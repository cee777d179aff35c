"""Inputs, timed operations and output checks of the horomink benchmark.

Every workload is a list of operations. A run repeats that list in whole
rounds; each operation starts when the previous one ends (a closed loop with
one caller). The operations call horomink through module attributes
(``horomink.solver.solve_even``, ``horomink.cli.main``), so a traced round
sees the wrappers the tracer installs there.

Input shapes are drawn once from CORPUS_SEED with the generators the
acceptance tests use. The run seed moves them: a rotation
and reflection of the plane, a new order of the atoms or horoballs and a
new choice of representative in each antipodal pair. Every seed therefore
solves the same problems in other coordinates, so seed-to-seed spread is
timing noise and not a change in problem difficulty, and the Monte-Carlo
checks (run on the unmoved shape) pass or fail the same way for every seed.
The n = 2 inputs are not moved at all: their facet areas are Monte-Carlo
estimates whose noise depends on the coordinates, and a moved input could
land on either side of the solver tolerance.

The checks never reuse the number under test: they compare against
``horomink.oracle`` (Monte-Carlo volume, bisection radii, grid search),
closed forms, or a property the answer must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import horomink
import horomink.cli
import horomink.solver
from horomink import (
    DiscreteMeasure,
    PolytopeSpec,
    SolverConfig,
    build_polytope,
    build_quadrature,
    hausdorff_distance,
)
from horomink.oracle import grid_search_even, mc_volume, radial_bisection
from horomink.polytope import _volume_of_spec

CORPUS_SEED = 2310_03516

WORKLOADS = ("solve-n1-maxvol", "solve-n1-fixvol", "solve-n2", "query-cli")

LENS_VOLUME = 4.0 * (math.sqrt(3.0) - math.pi / 3.0)


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str
    kind: str  # "solve", or the CLI command the operation times
    run: Callable[[], tuple]  # () -> (ok, output)
    check: Callable[[object], None]  # raises CheckFailed; only called when ok
    digest: Callable[[object], object]  # compared between rounds


# ---------------------------------------------------------------- helpers


def _corpus(stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(CORPUS_SEED + stream))


# Isometry.rotation_between(e, e*) fails its own Lorentz test for e within
# about 1e-3 rad of -e* = (0, -1), and facet_area calls it for every facet.
# The failure would depend on the seed, so motions keep every direction that
# reaches facet_area this far from -e*.
FAULT_MARGIN = 0.01


class PlaneMotion:
    """Rotation of the plane by a seeded angle, then an optional reflection.

    `avoid` holds the rows (and, implicitly, their antipodes) that must stay
    FAULT_MARGIN away from (0, -1) once moved.
    """

    def __init__(self, rng: np.random.Generator, avoid: np.ndarray):
        rows = np.vstack([avoid, -avoid])
        while True:
            self.angle = float(rng.uniform(0.0, 2.0 * math.pi))
            self.flip = bool(rng.random() < 0.5)
            if np.all(self.apply(rows)[:, 1] > -math.cos(FAULT_MARGIN)):
                break

    def apply(self, rows: np.ndarray) -> np.ndarray:
        c, s = math.cos(self.angle), math.sin(self.angle)
        out = rows @ np.array([[c, s], [-s, c]])
        if self.flip:
            out[:, 1] = -out[:, 1]
        return out

    def angle_of(self, phi: float) -> float:
        phi = phi + self.angle
        return -phi if self.flip else phi


def even_planar_pairs(rng: np.random.Generator, m: int):
    """The criterion-7 generator: m pairs, angular gaps > 0.25, weights in [0.3, 3]."""
    while True:
        ang = np.sort(rng.uniform(0.0, math.pi, size=m))
        if np.min(np.diff(np.concatenate([ang, [ang[0] + math.pi]]))) > 0.25:
            break
    return np.column_stack([np.cos(ang), np.sin(ang)]), rng.uniform(0.3, 3.0, size=m)


def sphere_pairs(rng: np.random.Generator, m: int):
    """m pairs on S^2 with pairwise |cos| < 0.9, weights in [0.5, 2]."""
    while True:
        rows = rng.normal(size=(m, 3))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        gram = np.abs(rows @ rows.T)
        np.fill_diagonal(gram, 0.0)
        if np.max(gram) < 0.9:
            break
    return rows, rng.uniform(0.5, 2.0, size=m)


def phi_even(z: np.ndarray, weights: np.ndarray, p: float) -> float:
    """Phi_p of the full even scale vector (z, z), written out here."""
    if p == 0.0:
        return 2.0 * float(np.sum(weights * z))
    return 2.0 * float(np.sum(weights * (np.exp(p * z) - 1.0))) / p


def mc_volume_batched(spec: PolytopeSpec, samples: int) -> tuple[float, float]:
    """oracle.mc_volume over independent seeded batches of at most 2e7 entries."""
    poly = build_polytope(spec)
    batch = max(10_000, min(samples, 20_000_000 // (spec.count + 8)))
    batches = -(-samples // batch)
    runs = [mc_volume(poly, num_samples=batch, seed=k) for k in range(batches)]
    estimate = sum(r[0] for r in runs) / batches
    stderr = math.sqrt(sum(r[1] ** 2 for r in runs)) / batches
    return estimate, stderr


def expect_mc_volume(spec: PolytopeSpec, value: float, what: str, samples: int = 1_000_000):
    estimate, stderr = mc_volume_batched(spec, samples)
    expect(
        abs(value - estimate) <= 3.0 * stderr,
        f"{what}: volume {value:.8g} vs Monte-Carlo {estimate:.8g} +- {stderr:.2g}",
    )


def boundary_radii(directions: np.ndarray, x: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Radial function of a planar body by oracle.radial_bisection."""
    phis = np.arctan2(directions[:, 1], directions[:, 0])
    out = np.empty(angles.size)
    for k, a in enumerate(angles):
        out[k] = min(radial_bisection(float(s), math.cos(a - f)) for f, s in zip(phis, x))
    return out


def busemann(center: np.ndarray, point: np.ndarray) -> float:
    """f_e(X) = log(X_t - X_s . e) on the hyperboloid, written out here."""
    return math.log(float(point[-1] - point[:-1] @ center))


def boundary_points(directions, x, angles) -> np.ndarray:
    rho = boundary_radii(directions, x, angles)
    return np.column_stack([np.sinh(rho) * np.cos(angles), np.sinh(rho) * np.sin(angles), np.cosh(rho)])


# ------------------------------------------------------------------ solves


def _solve_digest(result):
    return (tuple(result.z.tolist()), result.lam, result.residual_max_rel, result.iterations)


def even_spec(rows: np.ndarray, z: np.ndarray) -> PolytopeSpec:
    """The even body with scales z on the pairs (rows, -rows)."""
    return PolytopeSpec(
        n=rows.shape[1] - 1, directions=np.vstack([rows, -rows]), x=np.concatenate([z, z]), even=True
    )


def solve_op(label, measure, ref_rows, weights, p, v0, tol, extra_check=None) -> Op:
    """One solve_even call with the checks every solve gets.

    ref_rows are the measure's pair directions in the corpus orientation,
    where the Monte-Carlo volume check samples the solved body.
    """
    config = SolverConfig(p=p, v0=v0, tol=tol)

    def run():
        result = horomink.solver.solve_even(measure, config)
        return result.converged, result

    def check(result):
        res = result.residual_max_rel
        expect(res <= tol, f"{label}: residual {res:.3g} > {tol}")
        trace = np.diff(np.array(result.objective_trace))
        if p >= 0.0:
            expect(np.all(trace >= -1e-12), f"{label}: volume trace decreases")
            phi = phi_even(result.z, weights, p)
            expect(abs(phi - 1.0) <= 1e-8, f"{label}: Phi_p = {phi!r}, not 1")
        else:
            expect(np.all(trace <= 1e-12), f"{label}: Phi_p trace increases")
            expect_mc_volume(even_spec(ref_rows, result.z), v0, label)
        if extra_check is not None:
            extra_check(result)

    return Op(label, "solve", run, check, _solve_digest)


def planar_solve_op(label, ref_rows, weights, p, v0, tol, rng, motion) -> Op:
    m = ref_rows.shape[0]
    order = rng.permutation(m)
    signs = rng.choice([-1.0, 1.0], size=m)
    ref = ref_rows[order] * signs[:, None]
    w = weights[order]
    measure = DiscreteMeasure.from_even_pairs(motion.apply(ref), w)

    extra = None
    if m == 2:

        def extra(result):
            z_grid = grid_search_even(measure, p, v0, resolution=200 if p >= 0.0 else 100)
            gap = float(np.max(np.abs(result.z - z_grid)))
            expect(gap <= 0.01, f"{label}: grid search optimum differs by {gap:.3g}")

    return solve_op(label, measure, ref, w, p, v0, tol, extra)


def regular_polygon_op(label, rows, weight, p, tol) -> Op:
    """Equal weights on k equally spaced planar pairs (p >= 0): by symmetry
    the optimum has equal scales with Phi_p = 1, so z = log(1 + p / (2 k a)) / p."""
    k = rows.shape[0]
    w = np.full(k, weight)
    measure = DiscreteMeasure.from_even_pairs(rows, w)
    exact = math.log1p(p / (2 * k * weight)) / p

    def extra(result):
        gap = float(np.max(np.abs(result.z - exact)))
        expect(gap <= 1e-6 * exact, f"{label}: scales {result.z.tolist()} vs {exact!r}")

    return solve_op(label, measure, rows, w, p, 1.0, tol, extra)


def solve_n1_maxvol(seed: int, smoke: bool) -> list[Op]:
    rng = np.random.Generator(np.random.Philox(seed))
    # 2 to 4 pairs: a round of 5 and 6 pairs takes 7 s more and reaches no other code
    cases = [(m, even_planar_pairs(_corpus(100 + m), m)) for m in range(2, 3 if smoke else 5)]
    k = 4
    angles = math.pi * np.arange(k) / k
    polygon = np.column_stack([np.cos(angles), np.sin(angles)])
    motion = PlaneMotion(rng, avoid=np.vstack([polygon] + [rows for _, (rows, _) in cases]))
    ops = [
        planar_solve_op(f"maxvol m={m} p={p:g}", rows, w, p, 1.0, 1e-3, rng, motion)
        for m, (rows, w) in cases
        for p in (0.0, 2.0)
    ]
    weight = float(rng.uniform(0.5, 2.0))
    ops.append(regular_polygon_op("maxvol 4-gon p=2", motion.apply(polygon), weight, 2.0, 1e-3))
    return ops


# (p, V0, pairs). One 2-pair cell, because its grid-search check costs ~5 s;
# no 4- to 6-pair cells, which take 9 to 27 s a solve here and would leave
# room for one round per run.
FIXVOL_CELLS = [(-0.5, 4.0, 3), (-1.0, 1.0, 2), (-2.0, 1.0, 3)]


def solve_n1_fixvol(seed: int, smoke: bool) -> list[Op]:
    rng = np.random.Generator(np.random.Philox(seed))
    cells = FIXVOL_CELLS[:1] if smoke else FIXVOL_CELLS
    shapes = [even_planar_pairs(_corpus(200 + k), m) for k, (_, _, m) in enumerate(cells)]
    motion = PlaneMotion(rng, avoid=np.vstack([rows for rows, _ in shapes]))
    return [
        planar_solve_op(f"fixvol m={m} p={p:g} V0={v0:g}", rows, w, p, v0, 1e-3, rng, motion)
        for (p, v0, m), (rows, w) in zip(cells, shapes)
    ]


def solve_n2(seed: int, smoke: bool) -> list[Op]:
    """A 3-pair measure on S^2 at p = 2 and p = -1, the same for every seed.

    The coordinate-cube solve is left out: it always fails (its Monte-Carlo
    facet areas stop it at residual 1.1e-2 after 0 iterations) and costs
    8-12 s, which would leave room for one round per run.
    """
    rows, w = sphere_pairs(_corpus(300), 3)
    measure = DiscreteMeasure.from_even_pairs(rows, w)
    ps = (2.0,) if smoke else (2.0, -1.0)
    return [solve_op(f"n2 m=3 p={p:g}", measure, rows, w, p, 1.0, 1e-2) for p in ps]


# --------------------------------------------------------------------- CLI


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = horomink.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@dataclass
class Body:
    name: str
    path: str
    ref_directions: np.ndarray  # corpus orientation
    directions: np.ndarray  # as written to the file
    x: np.ndarray
    order: np.ndarray  # corpus index of each horoball in the file

    @property
    def spec(self) -> PolytopeSpec:
        return PolytopeSpec(n=self.directions.shape[1] - 1, directions=self.directions, x=self.x)

    @property
    def ref_spec(self) -> PolytopeSpec:
        return PolytopeSpec(n=self.ref_directions.shape[1] - 1, directions=self.ref_directions, x=self.x)


def write_body(folder, name, ref_rows, x, rng, motion) -> Body:
    order = rng.permutation(ref_rows.shape[0])
    ref_rows, x = ref_rows[order], np.asarray(x, dtype=np.float64)[order]
    rows = motion.apply(ref_rows) if motion is not None else ref_rows
    path = os.path.join(folder, f"{name}.json")
    payload = {
        "schema_version": "1",
        "n": rows.shape[1] - 1,
        "horoballs": [{"direction": r.tolist(), "x": float(v)} for r, v in zip(rows, x)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return Body(name, path, ref_rows, rows, x, order)


def _cli_digest(output):
    return output[:2]


def cli_op(label, kind, argv, check) -> Op:
    def run():
        out = run_cli(argv)
        return out[0] == 0, out

    return Op(label, kind, run, lambda out: check(last_json(out[1])), _cli_digest)


def volume_op(body: Body, exact: float | None = None, extra_args=(), reference=None) -> Op:
    def check(report):
        v = report["volume"]
        if exact is not None:
            expect(abs(v - exact) <= 1e-9, f"volume {body.name}: {v!r} vs {exact!r}")
        elif reference is not None:
            want = reference()
            expect(abs(v - want) <= 1e-12 * abs(want), f"volume {body.name}: {v!r} vs {want!r}")
        else:
            expect_mc_volume(body.ref_spec, v, f"volume {body.name}", samples=250_000)

    label = " ".join(["volume", body.name, *extra_args])
    return cli_op(label, "volume", ["volume", "--body", body.path, *extra_args], check)


def _sample_angles(extra: np.ndarray, count: int = 64) -> np.ndarray:
    return np.concatenate([2.0 * math.pi * np.arange(count) / count, extra])


def facets_op(body: Body) -> Op:
    def check(report):
        areas = np.array(report["areas"])
        u = np.array(report["canonical_support"])
        m = body.x.size
        expect(areas.shape == (m,) and u.shape == (m,), f"facets {body.name}: wrong lengths")
        expect(np.all(areas >= 0.0), f"facets {body.name}: negative area")
        expect(np.all(u <= body.x + 1e-12), f"facets {body.name}: support above its scale")
        phis = np.arctan2(body.directions[:, 1], body.directions[:, 0])
        points = boundary_points(body.directions, body.x, _sample_angles(phis + math.pi))
        for i in range(m):
            lower = max(busemann(body.directions[i], pt) for pt in points)
            expect(u[i] >= lower - 1e-9, f"facets {body.name}: support {i} below a boundary point")
        # S_i = dV/dx_i on the largest and the smallest facet
        h = 1e-6
        for i in (int(np.argmin(areas)), int(np.argmax(areas))):
            up, down = body.x.copy(), body.x.copy()
            up[i] += h
            down[i] -= h
            spec_up, spec_down = body.spec.with_x(up), body.spec.with_x(down)
            fd = (_volume_of_spec(spec_up, None) - _volume_of_spec(spec_down, None)) / (2 * h)
            expect(abs(fd - areas[i]) <= 1e-5 * (1.0 + areas[i]),
                   f"facets {body.name}: area {i} = {areas[i]!r} vs dV/dx = {fd!r}")

    return cli_op(f"facets {body.name}", "facets", ["facets", "--body", body.path], check)


def support_op(body: Body, j: int) -> Op:
    e = body.directions[j]

    def check(report):
        u = report["support"]
        expect(u <= body.x[j] + 1e-12, f"support {body.name}: {u!r} above the scale {body.x[j]!r}")
        phi = math.atan2(e[1], e[0])
        points = boundary_points(body.directions, body.x, _sample_angles(np.array([phi + math.pi])))
        lower = max(busemann(e, pt) for pt in points)
        expect(u >= lower - 1e-9, f"support {body.name}: {u!r} below a boundary value {lower!r}")

    argv = ["support", "--body", body.path, "--direction=" + ",".join(repr(float(v)) for v in e)]
    return cli_op(f"support {body.name}", "support", argv, check)


def hausdorff_op(a: Body, b: Body, c: Body | None) -> Op:
    def check(report):
        d = report["distance"]
        ka, kb = build_polytope(a.spec), build_polytope(b.spec)
        expect(d > 0.0, f"hausdorff {a.name} {b.name}: zero between different bodies")
        back = hausdorff_distance(kb, ka)
        expect(abs(back - d) <= 1e-12, f"hausdorff {a.name} {b.name}: {d!r} vs reversed {back!r}")
        if c is not None:
            kc = build_polytope(c.spec)
            expect(hausdorff_distance(ka, ka) == 0.0, f"hausdorff {a.name}: nonzero to itself")
            ac, bc = hausdorff_distance(ka, kc), hausdorff_distance(kb, kc)
            expect(ac <= d + bc + 2e-4, f"hausdorff {a.name} {b.name} {c.name}: triangle inequality")

    argv = ["hausdorff", "--body", a.path, "--other", b.path]
    return cli_op(f"hausdorff {a.name} {b.name}", "hausdorff", argv, check)


def separate_op(body: Body, theta: float, gap: float) -> Op:
    rho = boundary_radii(body.directions, body.x, np.array([theta]))[0] + gap
    point = np.array([math.sinh(rho) * math.cos(theta), math.sinh(rho) * math.sin(theta),
                      math.cosh(rho)])

    def check(report):
        center, s = np.array(report["center"]), report["s"]
        expect(busemann(center, point) > s, f"separate {body.name}: the ball holds the query point")
        angles = _sample_angles(theta + np.linspace(-0.2, 0.2, 41))
        worst = max(busemann(center, pt) - s for pt in boundary_points(body.directions, body.x, angles))
        expect(worst <= 1e-6, f"separate {body.name}: boundary point {worst:.3g} outside the ball")

    argv = ["separate", "--body", body.path, "--point=" + ",".join(repr(float(v)) for v in point)]
    return cli_op(f"separate {body.name}", "separate", argv, check)


def roundtrip_op(folder: str, rows: np.ndarray, weights: np.ndarray, p: float) -> Op:
    instance = os.path.join(folder, "instance.json")
    solution = os.path.join(folder, "solution.json")
    atoms = [
        {"direction": (s * r).tolist(), "weight": float(w)}
        for r, w in zip(rows, weights)
        for s in (1.0, -1.0)
    ]
    with open(instance, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": "1", "n": 1, "p": p, "even": True, "atoms": atoms}, fh)

    def run():
        solved = run_cli(["solve", "--input", instance, "--output", solution])
        checked = run_cli(["check", "--instance", instance, "--solution", solution])
        return solved[0] == 0 and checked[0] == 0, (solved, checked)

    def check(out):
        with open(solution, encoding="utf-8") as fh:
            sol = json.load(fh)
        report = last_json(out[1][1])
        expect(sol["converged"] and sol["residual_max_rel"] <= 1e-3, "roundtrip: solve did not converge")
        expect(report["match"] is True, "roundtrip: check did not reproduce the residual")
        phi = phi_even(np.array(sol["z"]), weights, p)
        expect(abs(phi - 1.0) <= 1e-8, f"roundtrip: Phi_p = {phi!r}, not 1")

    def digest(out):
        return tuple(o[:2] for o in out)

    return Op("roundtrip solve+check", "roundtrip", run, check, digest)


def query_cli(seed: int, smoke: bool, folder: str) -> list[Op]:
    rng = np.random.Generator(np.random.Philox(seed))
    sizes = (4,) if smoke else (4, 16, 64, 256)
    shapes = {"lens": (np.array([[1.0, 0.0], [-1.0, 0.0]]), np.full(2, math.log(2.0)))}
    for m in sizes:
        c = _corpus(400 + m)
        ang = 2.0 * math.pi * np.arange(m) / m
        polygon = np.column_stack([np.cos(ang), np.sin(ang)])
        shapes[f"polygon{m}"] = (polygon, np.full(m, c.uniform(0.5, 1.5)))
        ang = c.uniform(0.0, 2.0 * math.pi, size=m)
        shapes[f"random{m}"] = (np.column_stack([np.cos(ang), np.sin(ang)]), c.uniform(0.4, 2.0, size=m))
    pair_rows, pair_w = even_planar_pairs(_corpus(500), 2)
    facet_bodies = [f"{kind}{m}" for m in sizes if m <= 64 for kind in ("polygon", "random")]
    motion = PlaneMotion(rng, avoid=np.vstack([pair_rows] + [shapes[name][0] for name in facet_bodies]))
    bodies = {name: write_body(folder, name, rows, x, rng, motion) for name, (rows, x) in shapes.items()}
    lens = bodies["lens"]
    cube = write_body(folder, "cube3d", np.vstack([np.eye(3), -np.eye(3)]), np.full(6, 0.5), rng, None)

    ops = [volume_op(lens, exact=LENS_VOLUME)]
    ops += [volume_op(bodies[f"{kind}{m}"]) for m in sizes for kind in ("polygon", "random") if m < 256]
    if not smoke:
        ops.append(volume_op(bodies["polygon256"]))
    ops += [facets_op(bodies[name]) for name in facet_bodies]
    for m in sizes:
        c = _corpus(600 + m)
        for kind in ("polygon", "random"):
            body = bodies[f"{kind}{m}"]
            ops.append(support_op(body, int(np.flatnonzero(body.order == c.integers(m))[0])))
            theta = motion.angle_of(float(c.uniform(0.0, 2.0 * math.pi)))
            ops.append(separate_op(body, theta, float(c.uniform(0.2, 1.0))))
    for m in sizes:
        if m <= 64:
            third = bodies["polygon16"] if m == 4 and not smoke else (lens if m == 4 else None)
            ops.append(hausdorff_op(bodies[f"polygon{m}"], bodies[f"random{m}"], third))
    # the CLI's --quad-kind names are not the ones build_quadrature knows
    planar = bodies[f"random{sizes[-1] if smoke else 16}"]
    for kind in ("grid", "mc"):
        ops.append(volume_op(planar, extra_args=("--quad-kind", kind),
                             reference=lambda: horomink.volume(build_polytope(planar.spec))))
    ops.append(volume_op(cube, extra_args=("--quad-kind", "product"), reference=lambda: horomink.volume(
        build_polytope(cube.spec, scan=build_quadrature(2, kind="product-rule")))))
    ops.append(roundtrip_op(folder, motion.apply(pair_rows), pair_w, 2.0))
    return ops


def build(name: str, seed: int, smoke: bool, folder: str) -> list[Op]:
    if name == "solve-n1-maxvol":
        return solve_n1_maxvol(seed, smoke)
    if name == "solve-n1-fixvol":
        return solve_n1_fixvol(seed, smoke)
    if name == "solve-n2":
        return solve_n2(seed, smoke)
    if name == "query-cli":
        return query_cli(seed, smoke, folder)
    raise ValueError(f"unknown workload {name!r}")
