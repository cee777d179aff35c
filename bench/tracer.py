"""In-memory spans and counters at the boundaries between horomink's modules.

The tracer replaces the names through which one module calls the next (for
example ``horomink.solver.build_polytope`` or the SciPy minimizers under the
names ``horomink.polytope`` imports them by) with thin wrappers, only while a
traced round runs. Nothing under ``src/`` changes; the untraced rounds run
the original functions.

A span is (name, parent span, start, end). Spans live in flat arrays and
are written out when the run ends. Self time is a span's duration minus the
time covered by its direct child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self._name_ids: dict[str, int] = {}
        self.names: list[str] = []
        # one entry per span; the parent is -1 for a root span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name id, child seconds]
        self.counts: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self._open: Counter = Counter()

    # ------------------------------------------------------------ recording

    def reset_round(self):
        """Clear the per-round aggregates; recorded spans are kept."""
        self.counts = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def span(self, name: str, func, args, kwargs):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        frame = [index, nid, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.span_end[index] = end
            self._stack.pop()
            self._open[name] -= 1
            duration = end - start
            self.counts[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration

    # ------------------------------------------------------------- patching

    def wrap(self, owner, attribute: str, name: str, after=None):
        """Route owner.attribute through a span named `name`.

        `after(tracer, args, kwargs, result)` runs once the call returns and
        adds counters that need the arguments or the result.
        """
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.span(name, original, args, kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def replace(self, owner, attribute: str, value):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def unpatch(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # --------------------------------------------------------------- output

    def write(self, path: str, counters: dict):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            counter_names=np.array(sorted(counters)),
            counter_values=np.array([float(counters[k]) for k in sorted(counters)]),
        )


class _IsometryProxy:
    """Stands in for the Isometry class inside horomink.polytope so that
    rotation_between can be counted without touching the class itself."""

    def __init__(self, cls, rotation_between):
        self._cls = cls
        self.rotation_between = rotation_between

    def __getattr__(self, attribute):
        return getattr(self._cls, attribute)


def _count_radial(tracer, args, kwargs, result):
    tracer.counts["horoball.radial_matrix_entries"] += int(result.size)


def _count_quadrature(tracer, args, kwargs, result):
    tracer.counts["quadrature.nodes_built"] += int(result.count)


def _count_facet(tracer, args, kwargs, result):
    poly = args[0]
    if poly.n >= 2:
        samples = kwargs.get("mc_samples", args[2] if len(args) > 2 else 400_000)
        tracer.counts["polytope.mc_points"] += int(samples)


def _count_solve(tracer, args, kwargs, result):
    tracer.counts["solver.iterations"] += int(result.iterations)


def _count_rescale(tracer, args, kwargs, result):
    if kwargs.get("mode", args[4] if len(args) > 4 else "phi") == "volume":
        tracer.counts["solver.volume_rescales"] += 1


def _counter(key):
    def count(tracer, args, kwargs, result):
        tracer.counts[key] += 1

    return count


def _count_brent(tracer, args, kwargs, result):
    if tracer.inside("polytope.build"):
        tracer.counts["polytope.brent_runs_in_build"] += 1


def install(tracer: Tracer):
    """Wrap every module boundary the per-layer metrics are read from."""
    from horomink import cli, geometry, polytope, solver

    t = tracer
    # cli -> everything it calls
    t.wrap(cli, "main", "cli.main")
    t.wrap(cli, "solve_even", "solver.solve", after=_count_solve)
    t.wrap(cli, "residual", "solver.residual")
    t.wrap(cli, "build_polytope", "polytope.build")
    t.wrap(cli, "volume", "polytope.volume")
    t.wrap(cli, "facet_area", "polytope.facet_area", after=_count_facet)
    t.wrap(cli, "support", "polytope.support")
    t.wrap(cli, "hausdorff_distance", "polytope.hausdorff")
    t.wrap(cli, "separate", "polytope.separate")
    t.wrap(cli, "build_quadrature", "quadrature.build", after=_count_quadrature)
    # callers of solve_even outside the package look it up on the module
    t.wrap(solver, "solve_even", "solver.solve", after=_count_solve)
    # solver -> itself and polytope
    t.wrap(solver, "rescale_to_constraint", "solver.rescale", after=_count_rescale)
    t.wrap(solver, "build_polytope", "polytope.build", after=_counter("solver.bodies_built"))
    t.wrap(solver, "canonicalize", "polytope.canonicalize")
    t.wrap(solver, "facet_area", "polytope.facet_area", after=_count_facet)
    t.wrap(solver, "volume", "polytope.volume")
    t.wrap(
        solver, "_volume_of_spec", "polytope.volume_eval", after=_counter("solver.volume_evals")
    )
    t.wrap(solver, "build_quadrature", "quadrature.build", after=_count_quadrature)
    # polytope -> horoball, quadrature, geometry and SciPy
    t.wrap(polytope, "radial_matrix", "horoball.radial_matrix", after=_count_radial)
    t.wrap(polytope, "_scalar_minimize", "polytope.brent", after=_count_brent)
    t.wrap(polytope, "_nm_minimize", "polytope.nelder_mead")
    t.wrap(polytope, "_volume_of_spec", "polytope.volume_eval")
    t.wrap(polytope, "build_quadrature", "quadrature.build", after=_count_quadrature)
    rotation = geometry.Isometry.rotation_between

    def rotation_between(a, b):
        return t.span("geometry.rotation", rotation, (a, b), {})

    t.replace(polytope, "Isometry", _IsometryProxy(geometry.Isometry, rotation_between))


def layer_metrics(t: Tracer) -> dict:
    """Per-round per-layer figures from one traced round's aggregates."""
    c = t.counts

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "solver.iterations": c["solver.iterations"],
        "solver.bodies_built": c["solver.bodies_built"],
        "solver.rescale_s": t.self_s["solver.rescale"],
        "solver.rescale_calls": c["solver.rescale"],
        "solver.volume_evals": c["solver.volume_evals"],
        "solver.volume_evals_per_rescale": ratio(
            c["solver.volume_evals"], c["solver.volume_rescales"]
        ),
        "polytope.build_s": t.total_s["polytope.build"],
        "polytope.brent_runs": c["polytope.brent"],
        "polytope.brent_runs_per_build": ratio(
            c["polytope.brent_runs_in_build"], c["polytope.build"]
        ),
        "polytope.nelder_mead_runs": c["polytope.nelder_mead"],
        "polytope.volume_s": t.total_s["polytope.volume"] + t.total_s["polytope.volume_eval"],
        "polytope.volume_calls": c["polytope.volume"] + c["polytope.volume_eval"],
        "polytope.facet_area_s": t.total_s["polytope.facet_area"],
        "polytope.facet_area_calls": c["polytope.facet_area"],
        "polytope.mc_points": c["polytope.mc_points"],
        "polytope.canonicalize_s": t.total_s["polytope.canonicalize"],
        "polytope.support_s": t.total_s["polytope.support"],
        "polytope.hausdorff_s": t.total_s["polytope.hausdorff"],
        "polytope.separate_s": t.total_s["polytope.separate"],
        "horoball.radial_matrix_calls": c["horoball.radial_matrix"],
        "horoball.radial_matrix_entries": c["horoball.radial_matrix_entries"],
        "horoball.entries_per_call": ratio(
            c["horoball.radial_matrix_entries"], c["horoball.radial_matrix"]
        ),
        "horoball.radial_matrix_s": t.total_s["horoball.radial_matrix"],
        "quadrature.rules_built": c["quadrature.build"],
        "quadrature.nodes_built": c["quadrature.nodes_built"],
        "quadrature.build_s": t.total_s["quadrature.build"],
        "geometry.rotations": c["geometry.rotation"],
        "cli.self_s": t.self_s["cli.main"],
        "cli.commands": c["cli.main"],
    }
