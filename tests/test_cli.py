"""Command-line front end: file validation, exit codes, solution round
trips, rendering, determinism."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import horomink
from horomink import PolytopeSpec, build_polytope, build_quadrature, volume
from horomink.cli import main

LOG2 = math.log(2.0)


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def symmetric_instance(tmp_path):
    return write_json(
        tmp_path / "instance.json",
        {
            "schema_version": "1",
            "n": 1,
            "p": 0.0,
            "V0": 1.0,
            "even": True,
            "atoms": [
                {"direction": [1.0, 0.0], "weight": 1.0},
                {"direction": [0.0, 1.0], "weight": 1.0},
                {"direction": [-1.0, 0.0], "weight": 1.0},
                {"direction": [0.0, -1.0], "weight": 1.0},
            ],
        },
    )


@pytest.fixture()
def asymmetric_instance(tmp_path):
    c, s = math.cos(1.1), math.sin(1.1)
    return write_json(
        tmp_path / "asym.json",
        {
            "schema_version": "1",
            "n": 1,
            "p": 0.0,
            "even": True,
            "atoms": [
                {"direction": [1.0, 0.0], "weight": 1.0},
                {"direction": [c, s], "weight": 1.7},
                {"direction": [-1.0, 0.0], "weight": 1.0},
                {"direction": [-c, -s], "weight": 1.7},
            ],
        },
    )


@pytest.fixture()
def lens_body(tmp_path):
    return write_json(
        tmp_path / "lens.json",
        {
            "schema_version": "1",
            "n": 1,
            "even": True,
            "horoballs": [
                {"direction": [1.0, 0.0], "x": LOG2},
                {"direction": [-1.0, 0.0], "x": LOG2},
            ],
        },
    )


def child_env(**extra) -> dict:
    """Environment for a child interpreter that imports this same package."""
    package_root = os.path.dirname(os.path.dirname(horomink.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


# -------------------------------------------------------------- solve + check

def test_solve_check_roundtrip(tmp_path, symmetric_instance, capsys):
    out = tmp_path / "solution.json"
    assert main(["solve", "--input", symmetric_instance, "--output", str(out)]) == 0
    sol = json.loads(out.read_text())
    assert sol["schema_version"] == "1"
    assert sol["converged"] is True
    assert np.allclose(sol["z"], 0.25, atol=1e-4)
    assert len(sol["facet_areas"]) == 4
    assert sol["facet_areas"][0] == pytest.approx(sol["lambda"], rel=1e-9)
    assert sol["iterations"] == 0
    assert "quad_nodes" not in sol["config"]
    assert "created" in sol and "instance" in sol
    capsys.readouterr()

    code = main(["check", "--instance", symmetric_instance, "--solution", str(out)])
    report = last_json(capsys)
    assert code == 0
    assert report["match"] is True
    assert abs(report["residual_max_rel"] - sol["residual_max_rel"]) <= 1e-9


def test_check_flags_tampered_solution(tmp_path, symmetric_instance, capsys):
    out = tmp_path / "solution.json"
    main(["solve", "--input", symmetric_instance, "--output", str(out)])
    sol = json.loads(out.read_text())
    sol["residual_max_rel"] = 0.5
    tampered = write_json(tmp_path / "tampered.json", sol)
    capsys.readouterr()
    code = main(["check", "--instance", symmetric_instance, "--solution", tampered])
    assert code == 1
    assert last_json(capsys)["match"] is False


def test_solve_deterministic_reruns(tmp_path, symmetric_instance, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["solve", "--input", symmetric_instance, "--output", str(a)])
    main(["solve", "--input", symmetric_instance, "--output", str(b)])
    capsys.readouterr()
    strip = lambda p: [  # noqa: E731
        line for line in p.read_text().splitlines() if '"created"' not in line
    ]
    assert strip(a) == strip(b)


def test_solve_asymmetric_converges(tmp_path, asymmetric_instance, capsys):
    out = tmp_path / "solution.json"
    assert main(["solve", "--input", asymmetric_instance, "--output", str(out)]) == 0
    sol = json.loads(out.read_text())
    assert sol["converged"] is True
    assert sol["residual_max_rel"] <= 1e-3
    assert sol["z"][0] != pytest.approx(sol["z"][1], rel=1e-3)
    capsys.readouterr()


def test_solve_exit_3_without_convergence(tmp_path, asymmetric_instance, capsys):
    out = tmp_path / "stalled.json"
    code = main(
        ["solve", "--input", asymmetric_instance, "--output", str(out), "--max-iters", "0"]
    )
    assert code == 3
    sol = json.loads(out.read_text())  # file is still written
    assert sol["converged"] is False
    capsys.readouterr()


def test_solve_cli_overrides_take_effect(tmp_path, symmetric_instance, capsys):
    out = tmp_path / "solution.json"
    main(
        [
            "solve", "--input", symmetric_instance, "--output", str(out),
            "--p", "2.0", "--tol", "5e-3",
        ]
    )
    sol = json.loads(out.read_text())
    assert sol["config"]["p"] == 2.0
    assert sol["config"]["tol"] == 5e-3
    assert set(sol["config"]) == {"p", "v0", "tol", "max_iters"}
    assert sol["instance"]["p"] == 2.0
    capsys.readouterr()


# ------------------------------------------------------------- schema errors

def bad_cases(tmp_path):
    base = {
        "schema_version": "1",
        "n": 1,
        "p": 0.0,
        "even": True,
        "atoms": [
            {"direction": [1.0, 0.0], "weight": 1.0},
            {"direction": [-1.0, 0.0], "weight": 1.0},
        ],
    }
    unknown_top = dict(base, surprise=1)
    bad_atom = dict(base, atoms=[dict(base["atoms"][0], label="x"), base["atoms"][1]])
    bad_solver = dict(base, solver={"bogus": 1})
    bad_version = dict(base, schema_version="0")
    unpaired = dict(
        base,
        atoms=[
            {"direction": [1.0, 0.0], "weight": 1.0},
            {"direction": [0.0, 1.0], "weight": 1.0},
        ],
    )
    cases = {
        "instance.surprise": unknown_top,
        "instance.atoms[0].label": bad_atom,
        "instance.solver.bogus": bad_solver,
        "instance.schema_version": bad_version,
        "instance.atoms": unpaired,
    }
    # keys that picked the solver's quadrature or gradient mode, which solves
    # no longer read, and the line search and gradient check settings, now
    # constants
    for key, value in (
        ("quad_nodes", 900), ("quad_kind", "mc"), ("seed", 0), ("gradient_mode", "direct"),
        ("step", 0.25), ("backtrack", 0.5), ("fd_delta", 1e-4), ("grad_check_every", 10),
    ):
        cases[f"instance.solver.{key}"] = dict(base, solver={key: value})
    return cases


def test_schema_violations_name_the_field(tmp_path, capsys):
    for field, payload in bad_cases(tmp_path).items():
        path = write_json(tmp_path / "bad.json", payload)
        out = tmp_path / "unused.json"
        code = main(["solve", "--input", path, "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("schema error:")
        assert field in err


def test_schema_rejects_missing_and_malformed_files(tmp_path, capsys):
    out = tmp_path / "unused.json"
    assert main(["solve", "--input", str(tmp_path / "nope.json"), "--output", str(out)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["solve", "--input", str(broken), "--output", str(out)]) == 2
    capsys.readouterr()


def cube_body(tmp_path) -> str:
    rows = np.vstack([np.eye(3), -np.eye(3)])
    return write_json(
        tmp_path / "cube.json",
        {
            "schema_version": "1",
            "n": 2,
            "even": True,
            "horoballs": [{"direction": d.tolist(), "x": 0.5} for d in rows],
        },
    )


def backtrack_instance(tmp_path, instance: str) -> str:
    payload = json.loads(open(instance, encoding="utf-8").read())
    payload["solver"] = {"backtrack": 1.5}
    return write_json(tmp_path / "backtrack.json", payload)


# each case used to escape as exit 4 "geometry error"
@pytest.mark.parametrize(
    "case, field",
    [
        ("backtrack", "instance.solver.backtrack"),
        ("tol", "--tol"),
        ("quad_nodes", "--quad-nodes"),
        ("quad_kind", "--quad-kind"),
        ("direction", "direction"),
    ],
)
def test_invalid_user_input_exits_2(tmp_path, symmetric_instance, lens_body, capsys, case, field):
    out = str(tmp_path / "unused.json")
    argv = {
        "backtrack": ["solve", "--input", backtrack_instance(tmp_path, symmetric_instance), "--output", out],
        "tol": ["solve", "--input", symmetric_instance, "--output", out, "--tol", "-1"],
        "quad_nodes": ["volume", "--body", lens_body, "--quad-nodes", "1"],
        "quad_kind": ["volume", "--body", cube_body(tmp_path), "--quad-kind", "grid"],
        "direction": ["support", "--body", cube_body(tmp_path), "--direction", "0,0,0"],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error:")
    assert field in err


def test_program_faults_exit_5(lens_body, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("injected fault")

    monkeypatch.setattr("horomink.cli.volume", broken)
    assert main(["volume", "--body", lens_body]) == 5
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "internal error: ValueError('injected fault')" in err


def test_body_schema_violation(tmp_path, capsys):
    body = write_json(
        tmp_path / "bad_body.json",
        {
            "schema_version": "1",
            "n": 1,
            "horoballs": [
                {"direction": [1.0, 0.0], "x": -0.5},
                {"direction": [-1.0, 0.0], "x": 1.0},
            ],
        },
    )
    code = main(["volume", "--body", body])
    err = capsys.readouterr().err
    assert code == 2
    assert "body.horoballs[0].x" in err


def test_check_rejects_wrong_z_length(tmp_path, symmetric_instance, capsys):
    out = tmp_path / "solution.json"
    main(["solve", "--input", symmetric_instance, "--output", str(out)])
    sol = json.loads(out.read_text())
    sol["z"] = sol["z"][:1]
    short = write_json(tmp_path / "short.json", sol)
    capsys.readouterr()
    code = main(["check", "--instance", symmetric_instance, "--solution", short])
    err = capsys.readouterr().err
    assert code == 2
    assert "solution.z" in err


# ------------------------------------------------------------ geometry queries

def test_volume_command(lens_body, capsys):
    assert main(["volume", "--body", lens_body]) == 0
    got = last_json(capsys)["volume"]
    assert got == pytest.approx(4.0 * (math.sqrt(3.0) - math.pi / 3.0), abs=1e-4)


def test_volume_of_an_unresolvable_body_exits_4(tmp_path, capsys):
    # the regular 16-gon at scale 1e-12 keeps no arc longer than the arc
    # tolerance; it used to escape as exit 5 with a numpy ValueError
    ang = 2.0 * math.pi * np.arange(16) / 16
    body = write_json(
        tmp_path / "tiny.json",
        {
            "schema_version": "1",
            "n": 1,
            "horoballs": [{"direction": [math.cos(a), math.sin(a)], "x": 1e-12} for a in ang],
        },
    )
    assert main(["volume", "--body", body]) == 4
    err = capsys.readouterr().err
    assert err.startswith("geometry error:")
    assert "too small to resolve" in err


@pytest.mark.parametrize("command", ["volume", "oracle-volume"])
def test_zero_scale_pairs_exit_4(tmp_path, command, capsys):
    # an even pair of scale 0 pins the body to the point O, which is no body
    body = write_json(
        tmp_path / "point.json",
        {
            "schema_version": "1",
            "n": 1,
            "even": True,
            "horoballs": [
                {"direction": [1.0, 0.0], "x": 0.0},
                {"direction": [-1.0, 0.0], "x": 0.0},
                {"direction": [0.0, 1.0], "x": 1.0},
                {"direction": [0.0, -1.0], "x": 1.0},
            ],
        },
    )
    assert main([command, "--body", body]) == 4
    err = capsys.readouterr().err
    assert err.startswith("geometry error:")
    assert "basepoint" in err


def test_volume_builds_a_rule_only_for_n3(tmp_path, monkeypatch, capsys):
    # n <= 2 bodies read no scan, so their --quad-* flags are validated
    # (see test_invalid_user_input_exits_2) but build nothing
    calls = []
    real = horomink.cli.build_quadrature
    monkeypatch.setattr(horomink.cli, "build_quadrature", lambda *args: calls.append(args) or real(*args))
    for n, kind in ((1, "grid"), (1, "mc"), (2, "product"), (2, "mc"), (3, "mc")):
        dirs = np.zeros((2, n + 1))
        dirs[:, 0] = [1.0, -1.0]
        body = write_json(
            tmp_path / f"body{n}.json",
            {
                "schema_version": "1",
                "n": n,
                "horoballs": [{"direction": d.tolist(), "x": LOG2} for d in dirs],
            },
        )
        calls.clear()
        assert main(["volume", "--body", body, "--quad-kind", kind, "--quad-nodes", "400"]) == 0
        assert len(calls) == (n == 3)
    spec = PolytopeSpec(n=3, directions=dirs, x=np.array([LOG2, LOG2]))
    rule = build_quadrature(3, 400, "monte-carlo", 0)
    assert last_json(capsys)["volume"] == volume(build_polytope(spec, scan=rule))


@pytest.mark.parametrize("kind", ["grid", "mc", "product"])
def test_volume_quad_kind(tmp_path, kind, capsys):
    n = 2 if kind == "product" else 1
    dirs = np.zeros((2, n + 1))
    dirs[:, 0] = [1.0, -1.0]
    body = write_json(
        tmp_path / "body.json",
        {
            "schema_version": "1",
            "n": n,
            "horoballs": [{"direction": d.tolist(), "x": LOG2} for d in dirs],
        },
    )
    long_name = {"grid": "uniform-grid", "mc": "monte-carlo", "product": "product-rule"}[kind]
    args = ["volume", "--body", body, "--quad-kind", kind, "--quad-nodes", "400", "--seed", "3"]
    assert main(args) == 0
    rule = build_quadrature(n, 400, long_name, 3)
    spec = PolytopeSpec(n=n, directions=dirs, x=np.array([LOG2, LOG2]))
    assert last_json(capsys)["volume"] == volume(build_polytope(spec, scan=rule))


def test_instance_quad_kind_round_trip(tmp_path, capsys):
    # this instance once set "solver": {"quad_kind": "grid", "quad_nodes": 512};
    # solves read no quadrature, so those keys are refused (bad_cases) and
    # the instance without them solves over several iterations and checks
    inst = {
        "schema_version": "1",
        "n": 1,
        "p": 0.0,
        "even": True,
        "atoms": [
            {"direction": [1.0, 0.0], "weight": 1.0},
            {"direction": [-1.0, 0.0], "weight": 1.0},
            {"direction": [0.0, 1.0], "weight": 2.0},
            {"direction": [0.0, -1.0], "weight": 2.0},
        ],
    }
    path = write_json(tmp_path / "inst.json", inst)
    out = tmp_path / "sol.json"
    assert main(["solve", "--input", path, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["iterations"] > 0
    assert main(["check", "--instance", path, "--solution", str(out)]) == 0
    assert last_json(capsys)["match"] is True


def axis_atoms() -> list:
    """Pairs on the coordinate axes of R^3, weighted 1, 1.5 and 2."""
    atoms = []
    for axis, weight in ((0, 1.0), (1, 1.5), (2, 2.0)):
        for sign in (1.0, -1.0):
            direction = [0.0, 0.0, 0.0]
            direction[axis] = sign
            atoms.append({"direction": direction, "weight": weight})
    return atoms


def test_check_reads_old_solutions_with_a_quadrature_config(tmp_path, capsys):
    # written by `solve --max-iters 0` before solves stopped building a
    # rule, from an instance with "solver": {"quad_nodes": 900, "quad_kind": "mc"}
    inst = write_json(
        tmp_path / "inst.json",
        {"schema_version": "1", "n": 2, "p": 0.0, "even": True, "atoms": axis_atoms()},
    )
    old = {
        "config": {
            "backtrack": 0.5, "fd_delta": 0.0001, "gradient_mode": "direct", "max_iters": 0,
            "p": 0.0, "quad_kind": "mc", "quad_nodes": 900, "seed": 0, "step": 0.25,
            "tol": 0.001, "v0": 1.0,
        },
        "converged": False,
        "created": "2026-10-18T10:51:44.011190+00:00",
        "facet_areas": [0.04395561699829847] * 2 + [0.04395561699829846]
        + [0.04395561699829847] * 2 + [0.04395561699829846],
        "instance": {"V0": 1.0, "atoms": axis_atoms(), "even": True, "n": 2, "p": 0.0},
        "iterations": 0,
        "lambda": 0.02930374466553231,
        "residual_max_rel": 0.5000000000000001,
        "schema_version": "1",
        "volume": 0.010016381669282549,
        "z": [0.1111111111111111] * 3,
    }
    sol = write_json(tmp_path / "sol.json", old)
    assert main(["check", "--instance", inst, "--solution", sol]) == 0
    assert last_json(capsys)["match"] is True
    # and a new n = 2 file from the same instance checks the same way
    assert main(["solve", "--input", inst, "--output", sol, "--max-iters", "0"]) == 3
    capsys.readouterr()
    assert main(["check", "--instance", inst, "--solution", sol]) == 0
    assert last_json(capsys)["match"] is True


def test_n3_instances_exit_2(tmp_path, capsys):
    atoms = []
    for axis in range(4):
        for sign in (1.0, -1.0):
            direction = [0.0] * 4
            direction[axis] = sign
            atoms.append({"direction": direction, "weight": 1.0})
    inst = write_json(
        tmp_path / "inst.json",
        {"schema_version": "1", "n": 3, "p": 0.0, "even": True, "atoms": atoms},
    )
    sol = write_json(
        tmp_path / "sol.json",
        {
            "schema_version": "1", "instance": {"n": 3, "p": 0.0, "even": True, "atoms": atoms},
            "z": [0.5] * 4, "lambda": 1.0, "residual_max_rel": 0.0, "volume": 1.0,
            "facet_areas": [1.0] * 8, "iterations": 0, "converged": True, "config": {},
        },
    )
    for argv in (
        ["solve", "--input", inst, "--output", str(tmp_path / "unused.json")],
        ["check", "--instance", inst, "--solution", sol],
        ["render", "--solution", sol, "--svg", str(tmp_path / "unused.svg")],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: instance.n:")
    assert not (tmp_path / "unused.json").exists()


def test_facets_command(lens_body, capsys):
    assert main(["facets", "--body", lens_body]) == 0
    report = last_json(capsys)
    assert report["nonempty"] == [True, True]
    assert np.allclose(report["areas"], 2.0 * math.sqrt(3.0), atol=1e-9)
    assert np.allclose(report["canonical_support"], LOG2, atol=1e-9)


def test_support_command(lens_body, capsys):
    assert main(["support", "--body", lens_body, "--direction", "1,0"]) == 0
    assert last_json(capsys)["support"] == pytest.approx(LOG2, abs=1e-9)
    assert main(["support", "--body", lens_body, "--direction", "0,nope"]) == 2


def test_hausdorff_command(tmp_path, capsys):
    def lens_at(s, name):
        return write_json(
            tmp_path / name,
            {
                "schema_version": "1",
                "n": 1,
                "even": True,
                "horoballs": [
                    {"direction": [1.0, 0.0], "x": s},
                    {"direction": [-1.0, 0.0], "x": s},
                ],
            },
        )

    a = lens_at(1.0, "a.json")
    b = lens_at(1.2, "b.json")
    assert main(["hausdorff", "--body", a, "--other", b]) == 0
    want = math.acosh(math.exp(1.2)) - math.acosh(math.exp(1.0))
    assert last_json(capsys)["distance"] == pytest.approx(want, abs=1e-6)


def test_separate_command(lens_body, capsys):
    point = f"{math.sinh(2.0)},0,{math.cosh(2.0)}"
    assert main(["separate", "--body", lens_body, "--point", point]) == 0
    report = last_json(capsys)
    assert math.isfinite(report["s"])
    assert len(report["center"]) == 2
    # interior point cannot be separated
    assert main(["separate", "--body", lens_body, "--point", "0,0,1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("geometry error:")


def test_oracle_volume_command(lens_body, capsys):
    assert main(
        ["oracle-volume", "--body", lens_body, "--samples", "100000", "--seed", "4"]
    ) == 0
    report = last_json(capsys)
    want = 4.0 * (math.sqrt(3.0) - math.pi / 3.0)
    assert abs(report["estimate"] - want) <= 5.0 * report["stderr"]
    assert report["samples"] == 100000


# -------------------------------------------------------------------- render

def test_render_structure(tmp_path, symmetric_instance, capsys):
    sol = tmp_path / "solution.json"
    main(["solve", "--input", symmetric_instance, "--output", str(sol)])
    svg = tmp_path / "body.svg"
    assert main(["render", "--solution", str(sol), "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.count('class="unit-circle"') == 1
    assert text.count('class="horocycle"') == 4
    assert text.count('class="body-boundary"') == 1
    assert 'viewBox="-1.15 -1.15 2.3 2.3"' in text
    assert " Z" in text
    capsys.readouterr()


def svg_arc_center(start, end, r, large, sweep):
    """Center of the SVG arc command from start to end (SVG spec F.6.5,
    equal radii, no rotation)."""
    half = 0.5 * (start - end)
    lift = math.sqrt(max(r * r / float(half @ half) - 1.0, 0.0))
    sign = 1.0 if large != sweep else -1.0
    return 0.5 * (start + end) + sign * lift * np.array([half[1], -half[0]])


def test_render_draws_the_exact_boundary(tmp_path, capsys):
    atoms = []
    for direction, weight in (([1.0, 0.0], 1.0), ([0.6, 0.8], 2.0), ([0.0, 1.0], 0.05)):
        atoms += [
            {"direction": direction, "weight": weight},
            {"direction": [-v for v in direction], "weight": weight},
        ]
    inst = write_json(
        tmp_path / "inst.json",
        {"schema_version": "1", "n": 1, "p": 0.0, "even": True, "atoms": atoms},
    )
    sol, svg = tmp_path / "sol.json", tmp_path / "body.svg"
    assert main(["solve", "--input", inst, "--output", str(sol)]) == 0
    assert main(["render", "--solution", str(sol), "--svg", str(svg)]) == 0
    capsys.readouterr()
    text = svg.read_text()
    circles = np.array(
        re.findall(r'class="horocycle" cx="(\S+)" cy="(\S+)" r="(\S+)"', text), dtype=float
    )
    assert circles.shape == (6, 3)
    path = re.search(r'class="body-boundary" d="M (\S+) (\S+) (.*) Z"', text)
    vertex = np.array([float(path.group(1)), float(path.group(2))])
    commands = path.group(3).split("A ")[1:]
    assert len(commands) == 6
    for command in commands:
        r, _, _, large, sweep, x, y = (float(v) for v in command.split())
        end = np.array([x, y])
        # both ends lie on the arc's horocycle, and each vertex on two of them
        gaps = np.abs(np.hypot(*(vertex[:, None] - circles[:, :2].T)) - circles[:, 2])
        assert np.count_nonzero(gaps <= 1e-12) >= 2
        on = np.flatnonzero(
            (np.abs(np.hypot(*(end[:, None] - circles[:, :2].T)) - circles[:, 2]) <= 1e-12)
            & (gaps <= 1e-12)
            & (circles[:, 2] == r)
        )
        assert on.size == 1
        # and the flags draw it around that circle's center, not its mirror
        center = svg_arc_center(vertex, end, r, large, sweep)
        assert np.allclose(center, circles[on[0], :2], atol=1e-9)
        vertex = end


def test_render_rejects_higher_dimensions(tmp_path, capsys):
    inst = write_json(
        tmp_path / "inst2.json",
        {
            "schema_version": "1",
            "n": 2,
            "p": 0.0,
            "even": True,
            "atoms": [
                {"direction": [1.0, 0.0, 0.0], "weight": 1.0},
                {"direction": [0.0, 1.0, 0.0], "weight": 1.0},
                {"direction": [0.0, 0.0, 1.0], "weight": 1.0},
                {"direction": [-1.0, 0.0, 0.0], "weight": 1.0},
                {"direction": [0.0, -1.0, 0.0], "weight": 1.0},
                {"direction": [0.0, 0.0, -1.0], "weight": 1.0},
            ],
        },
    )
    sol = tmp_path / "sol2.json"
    assert main(["solve", "--input", inst, "--output", str(sol)]) == 0
    capsys.readouterr()
    assert main(["render", "--solution", str(sol), "--svg", str(tmp_path / "x.svg")]) == 4
    assert "geometry error" in capsys.readouterr().err


# ------------------------------------------------------------------ process

def test_module_entrypoint_with_thread_cap(tmp_path, lens_body):
    env = child_env(HOROMINK_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "horomink.cli", "volume", "--body", lens_body],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "volume" in json.loads(proc.stdout.strip().splitlines()[-1] or "{}")


def test_thread_cap_garbage_is_ignored(tmp_path, lens_body):
    env = child_env(HOROMINK_THREADS="not-a-number")
    proc = subprocess.run(
        [sys.executable, "-m", "horomink.cli", "volume", "--body", lens_body],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "HOROMINK_THREADS ignored" in proc.stderr
