"""Command-line front end: JSON I/O, solver runs, geometry queries, SVG render.

Exit codes: 0 success, 1 `check` mismatch, 2 invalid input (the message
names the offending field or flag), 3 solver did not converge, 4 geometry
or domain errors, 5 internal errors (a fault in the program; the traceback
goes to stderr). Query subcommands print a single JSON object to stdout.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys
import traceback

import numpy as np

from .errors import HoromkError, NotEvenError, SpecError
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
from .solver import STOP_REASONS, SolverConfig, residual, solve_even

SCHEMA_VERSION = "1"

# The types of a JSON number; JSON's true and false are bools, not ints.
_NUMBERS = (int, float)

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
        raise SchemaViolation(f"{where}.schema_version", f"expected {SCHEMA_VERSION!r}")


def _as_int(value, where: str, minimum=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaViolation(where, "expected an integer")
    if minimum is not None and value < minimum:
        raise SchemaViolation(where, f"must be >= {minimum}")
    return value


def _number(value, where: str) -> float:
    """A JSON number as a float; an integer past the float range reads as
    infinite, so the finiteness check names it."""
    if type(value) not in _NUMBERS:
        raise SchemaViolation(where, "expected a number")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _as_real(value, where: str, positive=False) -> float:
    value = _number(value, where)
    if not math.isfinite(value):
        raise SchemaViolation(where, "must be finite")
    if positive and value <= 0.0:
        raise SchemaViolation(where, "must be positive")
    return value


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaViolation(where, "expected a boolean")
    return value


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


def _read_records(raw, n: int, key: str, where: str, positive: bool):
    """(directions, values) of a non-empty list of {"direction": [n + 1
    numbers], key: number} records, as the file gives them.

    Every record's keys are checked first, then the types and lengths, then
    over all records at once: finite components, nonzero directions, and
    values > 0 (positive) or >= 0. A fault names the first record and
    component that has it.
    """
    if not isinstance(raw, list) or not raw:
        raise SchemaViolation(where, "expected a non-empty list")
    # a record's location is spelled out only for the record that has a fault
    keys = {"direction", key}
    for k, record in enumerate(raw):
        if not isinstance(record, dict) or record.keys() != keys:
            _check_keys(record, keys, keys, f"{where}[{k}]")
    table = []
    for k, record in enumerate(raw):
        row = record["direction"] + [record[key]] if isinstance(record["direction"], list) else None
        if row is None or len(row) != n + 2 or not all(type(v) in _NUMBERS for v in row):
            _record_fault(record, n, key, f"{where}[{k}]")
        table.append(row)
    try:
        table = np.array(table, dtype=np.float64)
    except OverflowError:  # an integer past the float range
        table = np.array([[_number(v, where) for v in row] for row in table])
    directions, values = table[:, :-1], table[:, -1]
    finite = np.isfinite(directions)
    zero = ~np.any(directions, axis=1)
    out_of_range = ~np.isfinite(values) | (values <= 0.0 if positive else values < 0.0)
    bad = ~np.all(finite, axis=1) | zero | out_of_range
    if np.any(bad):
        k = int(np.argmax(bad))
        if not np.all(finite[k]):
            raise SchemaViolation(f"{where}[{k}].direction[{np.argmin(finite[k])}]", "must be finite")
        if zero[k]:
            raise SchemaViolation(f"{where}[{k}].direction", "must be nonzero")
        if not np.isfinite(values[k]):
            raise SchemaViolation(f"{where}[{k}].{key}", "must be finite")
        raise SchemaViolation(f"{where}[{k}].{key}", "must be positive" if positive else "must be >= 0")
    return directions, values


def _record_fault(record: dict, n: int, key: str, where: str):
    """Raise the type or length fault of one record (at `where`) that has one."""
    row = record["direction"]
    if not isinstance(row, list) or len(row) != n + 1:
        raise SchemaViolation(f"{where}.direction", f"expected a list of {n + 1} numbers")
    for c, v in enumerate(row):
        if type(v) not in _NUMBERS:
            raise SchemaViolation(f"{where}.direction[{c}]", "expected a number")
    _number(record[key], f"{where}.{key}")


def validate_instance(obj: dict, where: str = "instance") -> dict:
    """Validated InstanceFile contents as plain Python values and arrays.

    With where = "solution.instance" it validates a solution's echo of an
    instance, which has no `schema_version` or `solver`.
    """
    echo = where != "instance"
    required = {"n", "p", "atoms", "even"} | (set() if echo else {"schema_version"})
    _check_keys(obj, required | {"V0"} | (set() if echo else {"solver"}), required, where)
    if not echo:
        _check_version(obj, where)
    n = _as_int(obj["n"], f"{where}.n", minimum=1)
    if n > 2:
        raise SchemaViolation(f"{where}.n", "the solver accepts n <= 2 only")
    p = _as_real(obj["p"], f"{where}.p")
    v0 = _as_real(obj.get("V0", 1.0), f"{where}.V0", positive=True)
    if not _as_bool(obj["even"], f"{where}.even"):
        raise SchemaViolation(f"{where}.even", "the solver accepts even measures only")
    directions, weights = _read_records(obj["atoms"], n, "weight", f"{where}.atoms", positive=True)
    solver_raw = obj.get("solver", {})
    _check_keys(solver_raw, {"tol", "max_iters"}, set(), "instance.solver")
    overrides = {}
    if "tol" in solver_raw:
        overrides["tol"] = _as_real(solver_raw["tol"], "instance.solver.tol", positive=True)
    if "max_iters" in solver_raw:
        overrides["max_iters"] = _as_int(solver_raw["max_iters"], "instance.solver.max_iters", minimum=0)
    return {"n": n, "p": p, "v0": v0, "directions": directions, "weights": weights, "solver": overrides}


def validate_body(obj: dict) -> dict:
    """Validated BodyFile contents (a bare horoball family)."""
    required = {"schema_version", "n", "horoballs"}
    _check_keys(obj, required | {"even"}, required, "body")
    _check_version(obj, "body")
    n = _as_int(obj["n"], "body.n", minimum=1)
    even = _as_bool(obj.get("even", False), "body.even")
    directions, x = _read_records(obj["horoballs"], n, "x", "body.horoballs", positive=False)
    return {"n": n, "even": even, "directions": directions, "x": x}


def validate_solution(obj: dict) -> dict:
    """Validated SolutionFile contents."""
    required = {
        "schema_version", "instance", "z", "lambda", "residual_max_rel",
        "volume", "facet_areas", "iterations", "converged", "config",
    }
    _check_keys(obj, required | {"created", "stop_reason", "gradient_check_max_rel"}, required, "solution")
    _check_version(obj, "solution")
    inst = validate_instance(obj["instance"], "solution.instance")
    z = obj["z"]
    if not isinstance(z, list) or not z:
        raise SchemaViolation("solution.z", "expected a non-empty list")
    z = [_as_real(v, f"solution.z[{k}]", positive=True) for k, v in enumerate(z)]
    areas = obj["facet_areas"]
    if not isinstance(areas, list) or not areas:
        raise SchemaViolation("solution.facet_areas", "expected a non-empty list")
    # a record of the run, like `created`: nothing reads it back
    if not isinstance(obj["config"], dict):
        raise SchemaViolation("solution.config", "expected a JSON object")
    solution = {
        "instance": inst,
        "z": z,
        "lambda": _as_real(obj["lambda"], "solution.lambda"),
        "residual_max_rel": _as_real(obj["residual_max_rel"], "solution.residual_max_rel"),
        "volume": _as_real(obj["volume"], "solution.volume"),
        "facet_areas": [
            _as_real(v, f"solution.facet_areas[{k}]") for k, v in enumerate(areas)
        ],
        "iterations": _as_int(obj["iterations"], "solution.iterations", minimum=0),
        "converged": _as_bool(obj["converged"], "solution.converged"),
    }
    # optional records of the run, which nothing reads back: files written
    # before solve recorded them validate and check as before
    if "stop_reason" in obj:
        reason = obj["stop_reason"]
        if reason not in STOP_REASONS:
            raise SchemaViolation("solution.stop_reason", f"expected one of {', '.join(STOP_REASONS)}")
        if (reason == "converged") != solution["converged"]:
            raise SchemaViolation("solution.stop_reason", f"{reason} contradicts converged")
    if "gradient_check_max_rel" in obj:
        if _as_real(obj["gradient_check_max_rel"], "solution.gradient_check_max_rel") < 0.0:
            raise SchemaViolation("solution.gradient_check_max_rel", "must be >= 0")
    return solution


# ------------------------------------------------------------------ builders

def _measure_from_instance(inst: dict, where: str) -> DiscreteMeasure:
    """The even measure of a validated instance; atoms that do not pair, or
    two atoms on one direction, are a fault of the file at `where`."""
    try:
        return DiscreteMeasure(n=inst["n"], directions=inst["directions"], weights=inst["weights"])
    except (NotEvenError, SpecError) as exc:
        raise SchemaViolation(f"{where}.atoms", str(exc))


def _poly_from_body(body: dict, scan=None) -> HConvexPolytope:
    try:
        spec = PolytopeSpec(n=body["n"], directions=body["directions"], x=body["x"], even=body["even"])
    except NotEvenError as exc:
        raise SchemaViolation("body.horoballs", str(exc))
    return build_polytope(spec, scan=scan)


def _poly_from_solution(sol: dict) -> HConvexPolytope:
    """The body rebuilt from a solution's echo and scales."""
    measure = _measure_from_instance(sol["instance"], "solution.instance")
    m = measure.weights.size // 2
    if len(sol["z"]) != m:
        raise SchemaViolation("solution.z", f"expected {m} entries for {m} direction pairs")
    return build_polytope(measure.spec(sol["z"]))


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
    """The scan rule the --quad-* and --seed flags ask for, validated in every
    dimension but built only for n >= 3: n <= 2 bodies read no scan."""
    _flag(args.quad_nodes, "--quad-nodes", minimum=2)
    _flag(args.seed, "--seed", minimum=0)
    _check_rule_kind(n, args.quad_kind, "--quad-kind")
    if n <= 2:
        return None
    return build_quadrature(n, args.quad_nodes, _QUAD_KINDS.get(args.quad_kind), args.seed or 0)


# ------------------------------------------------------------------ commands

def _cmd_solve(args) -> int:
    inst = validate_instance(_load_json(args.input, "instance"))
    measure = _measure_from_instance(inst, "instance")
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
            "atoms": [
                {"direction": d, "weight": w}
                for d, w in zip(inst["directions"].tolist(), inst["weights"].tolist())
            ],
            "even": True,
        },
        "z": [float(v) for v in result.z],
        "lambda": float(result.lam),
        "residual_max_rel": float(result.residual_max_rel),
        "volume": float(volume(result.polytope)),
        "facet_areas": [float(a) for a in areas],
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "gradient_check_max_rel": float(result.gradient_check_max_rel),
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
        f"residual={result.residual_max_rel:.3e} stop_reason={result.stop_reason}"
    )
    return 0 if result.converged else 3


def _cmd_check(args) -> int:
    inst = validate_instance(_load_json(args.instance, "instance"))
    sol = validate_solution(_load_json(args.solution, "solution"))
    measure = _measure_from_instance(inst, "instance")
    poly = _poly_from_solution(sol)
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
    poly = _poly_from_solution(sol)
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

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
    p_vol.add_argument(
        "--quad-kind",
        choices=tuple(_QUAD_KINDS),
        help="never changes the rule: grid (n = 1) and product (n = 2) are accepted "
        "where no rule is built, and for n >= 3 only mc, the default, is",
    )
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
    return _dispatch(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
