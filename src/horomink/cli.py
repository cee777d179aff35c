"""Command-line front end: JSON I/O, solver runs, geometry queries, SVG render.

Exit codes: 0 success, 1 `check` mismatch, 2 invalid input (the message
names the offending field or flag), 3 solver did not converge, 4 geometry
or domain errors, 5 internal errors (a fault in the program; the traceback
goes to stderr). Query subcommands print a single JSON object to stdout.
HOROMINK_THREADS caps the thread pools numpy delegates to.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import traceback

import numpy as np

from .errors import HoromkError, NotEvenError
from .geometry import Direction, HyperboloidPoint, convert_model
from .polytope import (
    DiscreteMeasure,
    HConvexPolytope,
    PolytopeSpec,
    build_polytope,
    facet_area,
    hausdorff_distance,
    separate,
    support,
    volume,
)
from .quadrature import build_quadrature
from .solver import SolverConfig, residual, solve_even

SCHEMA_VERSION = "1"

# Quadrature kinds as files and flags name them, and as build_quadrature does.
_QUAD_KINDS = {"grid": "uniform-grid", "product": "product-rule", "mc": "monte-carlo"}


class SchemaViolation(Exception):
    """Invalid input file; `field` names the offending location."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


# ---------------------------------------------------------------- validation

def _check_keys(obj: dict, allowed: set, required: set, where: str):
    if not isinstance(obj, dict):
        raise SchemaViolation(where, "expected a JSON object")
    for key in obj:
        if key not in allowed:
            raise SchemaViolation(f"{where}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            raise SchemaViolation(f"{where}.{key}", "missing required field")


def _check_version(obj: dict, where: str):
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise SchemaViolation(
            f"{where}.schema_version", f"expected {SCHEMA_VERSION!r}"
        )


def _as_int(value, where: str, minimum=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaViolation(where, "expected an integer")
    if minimum is not None and value < minimum:
        raise SchemaViolation(where, f"must be >= {minimum}")
    return value


def _as_real(value, where: str, positive=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaViolation(where, "expected a number")
    value = float(value)
    if not math.isfinite(value):
        raise SchemaViolation(where, "must be finite")
    if positive and value <= 0.0:
        raise SchemaViolation(where, "must be positive")
    return value


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaViolation(where, "expected a boolean")
    return value


def _as_vector(value, length: int, where: str) -> list:
    if not isinstance(value, list) or len(value) != length:
        raise SchemaViolation(where, f"expected a list of {length} numbers")
    return [_as_real(v, f"{where}[{k}]") for k, v in enumerate(value)]


def _load_json(path: str, where: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaViolation(where, f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaViolation(where, f"invalid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaViolation(where, f"unreadable file {path}: {exc}")


def _write_text(path: str, text: str, where: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaViolation(where, f"cannot write {path}: {exc}")


def _check_rule_kind(n: int, kind, where: str):
    """The grid exists only on the circle and the product rule only on S^2."""
    if kind == "grid" and n != 1:
        raise SchemaViolation(where, "the grid rule exists only for n = 1")
    if kind == "product" and n != 2:
        raise SchemaViolation(where, "the product rule exists only for n = 2")


def validate_instance(obj: dict) -> dict:
    """Validated InstanceFile contents as plain Python values."""
    _check_keys(
        obj,
        {"schema_version", "n", "p", "V0", "atoms", "even", "solver"},
        {"schema_version", "n", "p", "atoms", "even"},
        "instance",
    )
    _check_version(obj, "instance")
    n = _as_int(obj["n"], "instance.n", minimum=1)
    if n > 2:
        raise SchemaViolation("instance.n", "the solver accepts n <= 2 only")
    p = _as_real(obj["p"], "instance.p")
    v0 = _as_real(obj.get("V0", 1.0), "instance.V0", positive=True)
    even = _as_bool(obj["even"], "instance.even")
    atoms_raw = obj["atoms"]
    if not isinstance(atoms_raw, list) or not atoms_raw:
        raise SchemaViolation("instance.atoms", "expected a non-empty list")
    atoms = []
    for k, atom in enumerate(atoms_raw):
        where = f"instance.atoms[{k}]"
        _check_keys(atom, {"direction", "weight"}, {"direction", "weight"}, where)
        vec = np.array(_as_vector(atom["direction"], n + 1, f"{where}.direction"))
        norm = float(np.linalg.norm(vec))
        if norm <= 0.0:
            raise SchemaViolation(f"{where}.direction", "must be nonzero")
        atoms.append(
            {
                "direction": (vec / norm).tolist(),
                "weight": _as_real(atom["weight"], f"{where}.weight", positive=True),
            }
        )
    solver_raw = obj.get("solver", {})
    _check_keys(solver_raw, {"tol", "max_iters"}, set(), "instance.solver")
    overrides = {}
    if "tol" in solver_raw:
        overrides["tol"] = _as_real(solver_raw["tol"], "instance.solver.tol", positive=True)
    if "max_iters" in solver_raw:
        overrides["max_iters"] = _as_int(solver_raw["max_iters"], "instance.solver.max_iters", minimum=0)
    return {"n": n, "p": p, "v0": v0, "even": even, "atoms": atoms, "solver": overrides}


def validate_body(obj: dict) -> dict:
    """Validated BodyFile contents (a bare horoball family)."""
    _check_keys(
        obj,
        {"schema_version", "n", "horoballs", "even"},
        {"schema_version", "n", "horoballs"},
        "body",
    )
    _check_version(obj, "body")
    n = _as_int(obj["n"], "body.n", minimum=1)
    even = _as_bool(obj.get("even", False), "body.even")
    balls_raw = obj["horoballs"]
    if not isinstance(balls_raw, list) or not balls_raw:
        raise SchemaViolation("body.horoballs", "expected a non-empty list")
    balls = []
    for k, ball in enumerate(balls_raw):
        where = f"body.horoballs[{k}]"
        _check_keys(ball, {"direction", "x"}, {"direction", "x"}, where)
        vec = np.array(_as_vector(ball["direction"], n + 1, f"{where}.direction"))
        norm = float(np.linalg.norm(vec))
        if norm <= 0.0:
            raise SchemaViolation(f"{where}.direction", "must be nonzero")
        x = _as_real(ball["x"], f"{where}.x")
        if x < 0.0:
            raise SchemaViolation(f"{where}.x", "must be >= 0")
        balls.append({"direction": (vec / norm).tolist(), "x": x})
    return {"n": n, "even": even, "horoballs": balls}


def validate_solution(obj: dict) -> dict:
    """Validated SolutionFile contents."""
    _check_keys(
        obj,
        {
            "schema_version", "created", "instance", "z", "lambda",
            "residual_max_rel", "volume", "facet_areas", "iterations",
            "converged", "config",
        },
        {
            "schema_version", "instance", "z", "lambda", "residual_max_rel",
            "volume", "facet_areas", "iterations", "converged", "config",
        },
        "solution",
    )
    _check_version(obj, "solution")
    inst = obj["instance"]
    _check_keys(
        inst,
        {"n", "p", "V0", "atoms", "even"},
        {"n", "p", "atoms", "even"},
        "solution.instance",
    )
    inst_full = validate_instance(
        {
            "schema_version": SCHEMA_VERSION,
            "n": inst["n"],
            "p": inst["p"],
            "V0": inst.get("V0", 1.0),
            "atoms": inst["atoms"],
            "even": inst["even"],
        }
    )
    z = obj["z"]
    if not isinstance(z, list) or not z:
        raise SchemaViolation("solution.z", "expected a non-empty list")
    z = [_as_real(v, f"solution.z[{k}]", positive=True) for k, v in enumerate(z)]
    # a record of the run, like `created`: nothing reads it back
    if not isinstance(obj["config"], dict):
        raise SchemaViolation("solution.config", "expected a JSON object")
    out = {
        "instance": inst_full,
        "z": z,
        "lambda": _as_real(obj["lambda"], "solution.lambda"),
        "residual_max_rel": _as_real(obj["residual_max_rel"], "solution.residual_max_rel"),
        "volume": _as_real(obj["volume"], "solution.volume"),
        "facet_areas": [
            _as_real(v, f"solution.facet_areas[{k}]")
            for k, v in enumerate(obj["facet_areas"])
        ],
        "iterations": _as_int(obj["iterations"], "solution.iterations", minimum=0),
        "converged": _as_bool(obj["converged"], "solution.converged"),
    }
    return out


# ------------------------------------------------------------------ builders

def _measure_from_instance(inst: dict) -> DiscreteMeasure:
    directions = np.array([a["direction"] for a in inst["atoms"]])
    weights = np.array([a["weight"] for a in inst["atoms"]])
    try:
        return DiscreteMeasure(
            n=inst["n"], directions=directions, weights=weights, even=inst["even"]
        )
    except NotEvenError as exc:
        raise SchemaViolation("instance.atoms", str(exc))


def _poly_from_body(body: dict, scan=None) -> HConvexPolytope:
    spec = PolytopeSpec(
        n=body["n"],
        directions=np.array([b["direction"] for b in body["horoballs"]]),
        x=np.array([b["x"] for b in body["horoballs"]]),
        even=body["even"],
    )
    return build_polytope(spec, scan=scan)


def _poly_from_solution(sol: dict):
    """(polytope, measure, p) rebuilt from a solution's echo and scales."""
    inst = sol["instance"]
    measure = _measure_from_instance(inst)
    reduced_dirs, _ = measure.reduced_pairs()
    m = reduced_dirs.shape[0]
    if len(sol["z"]) != m:
        raise SchemaViolation(
            "solution.z", f"expected {m} entries for {m} direction pairs"
        )
    z = np.array(sol["z"])
    spec = PolytopeSpec(
        n=inst["n"],
        directions=np.vstack([reduced_dirs, -reduced_dirs]),
        x=np.concatenate([z, z]),
        even=True,
    )
    return build_polytope(spec), measure, inst["p"]


def _parse_csv_floats(text: str, where: str) -> np.ndarray:
    try:
        values = np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise SchemaViolation(where, "expected comma-separated numbers")
    if not np.all(np.isfinite(values)):
        raise SchemaViolation(where, "must be finite")
    return values


def _flag(value, where: str, minimum=None, positive=False):
    """A validated optional command line number; None when the flag is absent."""
    if value is None:
        return None
    if isinstance(value, int):
        return _as_int(value, where, minimum=minimum)
    return _as_real(value, where, positive=positive)


def _emit(payload: dict):
    print(json.dumps(payload, sort_keys=True))


def _rule_from_args(n: int, args):
    """The scan rule the --quad-* flags ask for, validated in every
    dimension but built only for n >= 3: n <= 2 bodies read no scan."""
    _flag(args.quad_nodes, "--quad-nodes", minimum=2)
    _flag(args.seed, "--seed", minimum=0)
    _check_rule_kind(n, args.quad_kind, "--quad-kind")
    if n <= 2 or (args.quad_nodes is None and args.quad_kind is None):
        return None
    return build_quadrature(n, args.quad_nodes, _QUAD_KINDS.get(args.quad_kind), args.seed or 0)


# ------------------------------------------------------------------ commands

def _cmd_solve(args) -> int:
    inst = validate_instance(_load_json(args.input, "instance"))
    measure = _measure_from_instance(inst)
    cfg_kwargs = dict(inst["solver"])
    for key, value in (
        ("p", _flag(args.p, "--p")),
        ("v0", _flag(args.v0, "--v0", positive=True)),
    ):
        if value is not None:
            inst[key] = value
    for key, value in (
        ("tol", _flag(args.tol, "--tol", positive=True)),
        ("max_iters", _flag(args.max_iters, "--max-iters", minimum=0)),
    ):
        if value is not None:
            cfg_kwargs[key] = value
    config = SolverConfig(p=inst["p"], v0=inst["v0"], **cfg_kwargs)
    result = solve_even(measure, config)
    areas = [
        facet_area(result.polytope, i)
        for i in range(result.polytope.spec.directions.shape[0])
    ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "instance": {
            "n": inst["n"],
            "p": inst["p"],
            "V0": inst["v0"],
            "atoms": inst["atoms"],
            "even": inst["even"],
        },
        "z": [float(v) for v in result.z],
        "lambda": float(result.lam),
        "residual_max_rel": float(result.residual_max_rel),
        "volume": float(volume(result.polytope)),
        "facet_areas": [float(a) for a in areas],
        "iterations": result.iterations,
        "converged": result.converged,
        "config": {
            "p": config.p,
            "v0": config.v0,
            "tol": config.tol,
            "max_iters": config.max_iters,
        },
    }
    _write_text(args.output, json.dumps(payload, sort_keys=True, indent=2) + "\n", "--output")
    print(
        f"solve: converged={result.converged} iterations={result.iterations} "
        f"residual={result.residual_max_rel:.3e}"
    )
    return 0 if result.converged else 3


def _cmd_check(args) -> int:
    inst = validate_instance(_load_json(args.instance, "instance"))
    sol = validate_solution(_load_json(args.solution, "solution"))
    measure = _measure_from_instance(inst)
    poly, _, _ = _poly_from_solution(sol)
    lam, max_rel = residual(poly, measure, inst["p"])
    stored = sol["residual_max_rel"]
    match = abs(max_rel - stored) <= 1e-9
    _emit(
        {
            "lambda": lam,
            "residual_max_rel": max_rel,
            "stored_residual_max_rel": stored,
            "match": match,
        }
    )
    return 0 if match else 1


def _cmd_volume(args) -> int:
    body = validate_body(_load_json(args.body, "body"))
    rule = _rule_from_args(body["n"], args)
    poly = _poly_from_body(body, scan=rule)
    _emit({"volume": volume(poly)})
    return 0


def _cmd_facets(args) -> int:
    body = validate_body(_load_json(args.body, "body"))
    poly = _poly_from_body(body)
    count = poly.spec.directions.shape[0]
    _emit(
        {
            "areas": [facet_area(poly, i) for i in range(count)],
            "nonempty": [bool(v) for v in poly.facet_nonempty],
            "canonical_support": [float(v) for v in poly.canonical_support],
        }
    )
    return 0


def _cmd_support(args) -> int:
    body = validate_body(_load_json(args.body, "body"))
    vec = _parse_csv_floats(args.direction, "direction")
    if vec.shape[0] != body["n"] + 1:
        raise SchemaViolation("direction", f"expected {body['n'] + 1} components")
    if not np.any(vec):
        raise SchemaViolation("direction", "must be nonzero")
    poly = _poly_from_body(body)
    value = support(poly, Direction.from_vector(vec))
    _emit({"support": value})
    return 0


def _cmd_hausdorff(args) -> int:
    body_a = validate_body(_load_json(args.body, "body"))
    body_b = validate_body(_load_json(args.other, "body"))
    if body_a["n"] != body_b["n"]:
        raise SchemaViolation("body.n", "the two bodies have different dimensions")
    poly_a = _poly_from_body(body_a)
    poly_b = _poly_from_body(body_b)
    _emit({"distance": hausdorff_distance(poly_a, poly_b)})
    return 0


def _cmd_separate(args) -> int:
    body = validate_body(_load_json(args.body, "body"))
    vec = _parse_csv_floats(args.point, "point")
    if vec.shape[0] != body["n"] + 2:
        raise SchemaViolation("point", f"expected {body['n'] + 2} coordinates")
    poly = _poly_from_body(body)
    try:
        point = HyperboloidPoint(vec)
    except ValueError as exc:
        raise SchemaViolation("point", str(exc))
    ball = separate(poly, point)
    _emit({"center": [float(v) for v in ball.center.vector], "s": float(ball.s)})
    return 0


def _cmd_oracle_volume(args) -> int:
    from .oracle import mc_volume

    body = validate_body(_load_json(args.body, "body"))
    _flag(args.samples, "--samples", minimum=2)
    _flag(args.seed, "--seed", minimum=0)
    poly = _poly_from_body(body)
    estimate, stderr = mc_volume(poly, num_samples=args.samples, seed=args.seed or 0)
    _emit(
        {
            "estimate": estimate,
            "stderr": stderr,
            "samples": args.samples,
            "seed": args.seed or 0,
        }
    )
    return 0


def _svg_circle(cx: float, cy: float, r: float, klass: str, stroke: str) -> str:
    return (
        f'  <circle class="{klass}" cx="{cx:.17g}" cy="{-cy:.17g}" r="{r:.17g}" '
        f'fill="none" stroke="{stroke}" stroke-width="0.008"/>'
    )


def _cmd_render(args) -> int:
    """The body in the Poincare disk: every horocycle, and the boundary as
    one SVG arc per body arc, each on its horocycle's circle."""
    sol = validate_solution(_load_json(args.solution, "solution"))
    if sol["instance"]["n"] != 1:
        raise HoromkError("rendering supports n = 1 only")
    poly, _, _ = _poly_from_solution(sol)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="-1.15 -1.15 2.3 2.3" width="600" height="600">',
        _svg_circle(0.0, 0.0, 1.0, "unit-circle", "#000000"),
    ]
    # the horocycle of B(e, u) is the circle tangent to the unit circle at
    # e through the point at distance u from O toward -e
    rho = 1.0 / (1.0 + np.exp(-poly.canonical_support))
    centers = poly.spec.directions * (1.0 - rho)[:, None]
    for (cx, cy), r in zip(centers, rho):
        lines.append(_svg_circle(cx, cy, r, "horocycle", "#777777"))
    arcs = poly.boundary
    starts = np.array([convert_model(HyperboloidPoint(v), "ball").coords for v in arcs.starts])
    # each arc runs counterclockwise about O from its start to the next one's
    order = np.argsort(np.arctan2(starts[:, 1], starts[:, 0]))
    ball, owner = starts[order], np.flatnonzero(arcs.active)[order]
    parts = [f"M {ball[0, 0]:.17g} {-ball[0, 1]:.17g}"]
    for k, j in enumerate(owner):
        end = ball[(k + 1) % owner.size]
        a, b = ball[k] - centers[j], end - centers[j]
        turn = (math.atan2(b[1], b[0]) - math.atan2(a[1], a[0])) % (2.0 * math.pi)
        # y is flipped, so a counterclockwise arc has sweep flag 0
        parts.append(f"A {rho[j]:.17g} {rho[j]:.17g} 0 {int(turn > math.pi)} 0 {end[0]:.17g} {-end[1]:.17g}")
    lines.append(
        f'  <path class="body-boundary" d="{" ".join(parts)} Z" '
        'fill="none" stroke="#aa0000" stroke-width="0.01"/>'
    )
    lines.append("</svg>")
    _write_text(args.svg, "\n".join(lines) + "\n", "--svg")
    print(f"render: wrote {args.svg}")
    return 0


# ---------------------------------------------------------------- entrypoint

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horomink",
        description="Horospherically convex polytopes: solver and geometry queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the even p-Minkowski solver")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--output", required=True)
    p_solve.add_argument("--p", type=float)
    p_solve.add_argument("--v0", type=float)
    p_solve.add_argument("--tol", type=float)
    p_solve.add_argument("--max-iters", type=int)
    p_solve.set_defaults(func=_cmd_solve)

    p_check = sub.add_parser("check", help="recompute a solution's residual")
    p_check.add_argument("--instance", required=True)
    p_check.add_argument("--solution", required=True)
    p_check.set_defaults(func=_cmd_check)

    p_vol = sub.add_parser("volume", help="volume of a horoball body")
    p_vol.add_argument("--body", required=True)
    p_vol.add_argument("--quad-nodes", type=int)
    p_vol.add_argument("--quad-kind", choices=tuple(_QUAD_KINDS))
    p_vol.add_argument("--seed", type=int)
    p_vol.set_defaults(func=_cmd_volume)

    p_fac = sub.add_parser("facets", help="facet areas and support numbers")
    p_fac.add_argument("--body", required=True)
    p_fac.set_defaults(func=_cmd_facets)

    p_sup = sub.add_parser("support", help="support number in one direction")
    p_sup.add_argument("--body", required=True)
    p_sup.add_argument("--direction", required=True, help="comma-separated unit vector")
    p_sup.set_defaults(func=_cmd_support)

    p_hau = sub.add_parser("hausdorff", help="distance between two bodies")
    p_hau.add_argument("--body", required=True)
    p_hau.add_argument("--other", required=True)
    p_hau.set_defaults(func=_cmd_hausdorff)

    p_sep = sub.add_parser("separate", help="separating horoball for an outside point")
    p_sep.add_argument("--body", required=True)
    p_sep.add_argument("--point", required=True, help="comma-separated hyperboloid coords")
    p_sep.set_defaults(func=_cmd_separate)

    p_orc = sub.add_parser("oracle-volume", help="Monte Carlo volume cross-check")
    p_orc.add_argument("--body", required=True)
    p_orc.add_argument("--samples", type=int, default=200_000)
    p_orc.add_argument("--seed", type=int)
    p_orc.set_defaults(func=_cmd_oracle_volume)

    p_ren = sub.add_parser("render", help="SVG of an n=1 solution in the disk chart")
    p_ren.add_argument("--solution", required=True)
    p_ren.add_argument("--svg", required=True)
    p_ren.set_defaults(func=_cmd_render)

    return parser


def _dispatch(args) -> int:
    try:
        return args.func(args)
    except SchemaViolation as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except HoromkError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 5


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    limit = os.environ.get("HOROMINK_THREADS")
    if limit:
        try:
            import threadpoolctl

            with threadpoolctl.threadpool_limits(limits=int(limit)):
                return _dispatch(args)
        except (ImportError, ValueError):
            print("warning: HOROMINK_THREADS ignored", file=sys.stderr)
    return _dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
