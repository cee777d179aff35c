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
        # both exited 4 as geometry errors naming no field
        "instance.even": dict(base, even=False),
        "instance.atoms: measure atoms must have pairwise distinct directions": dict(
            base,
            atoms=[{"direction": [1, 0], "weight": 1.0}, {"direction": [2, 0], "weight": 1.0}],
        ),
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


# (case, the faulty record made from a good one and its value key, the field
# after the record's index, the message); an instance's value key is
# "weight", a body's is "x"
RECORD_FAULTS = [
    ("not-an-object", lambda rec, key: [rec["direction"], rec[key]], "", "expected a JSON object"),
    ("unknown-key", lambda rec, key: dict(rec, label="x"), ".label", "unknown field"),
    ("missing-key", lambda rec, key: {"direction": rec["direction"]}, ".{key}", "missing required field"),
    ("direction-not-a-list", lambda rec, key: dict(rec, direction=1.0), ".direction", "expected a list of 2 numbers"),
    ("direction-too-long", lambda rec, key: dict(rec, direction=[1.0, 0.0, 0.0]), ".direction", "expected a list of 2 numbers"),
    ("true-component", lambda rec, key: dict(rec, direction=[1.0, True]), ".direction[1]", "expected a number"),
    ("string-component", lambda rec, key: dict(rec, direction=["1", 0.0]), ".direction[0]", "expected a number"),
    ("nan-component", lambda rec, key: dict(rec, direction=[1.0, math.nan]), ".direction[1]", "must be finite"),
    ("infinite-component", lambda rec, key: dict(rec, direction=[math.inf, 0.0]), ".direction[0]", "must be finite"),
    ("zero-direction", lambda rec, key: dict(rec, direction=[0.0, 0.0]), ".direction", "must be nonzero"),
    ("value-not-a-number", lambda rec, key: dict(rec, **{key: "1"}), ".{key}", "expected a number"),
    ("value-out-of-range", lambda rec, key: dict(rec, **{key: {"weight": 0.0, "x": -1.0}[key]}), ".{key}", None),
]


@pytest.mark.parametrize("case, fault, suffix, text", RECORD_FAULTS, ids=[c[0] for c in RECORD_FAULTS])
@pytest.mark.parametrize("container", ["atoms", "horoballs"])
def test_each_record_fault_names_its_record(tmp_path, container, case, fault, suffix, text, capsys):
    # the one faulty record sits at index 2 of a square's four
    key, top = {"atoms": ("weight", "instance"), "horoballs": ("x", "body")}[container]
    records = [
        {"direction": d, key: 1.0}
        for d in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0])
    ]
    records[2] = fault(records[2], key)
    payload = {"schema_version": "1", "n": 1, "even": True, container: records}
    if container == "atoms":
        path = write_json(tmp_path / "inst.json", dict(payload, p=0.0))
        argv = ["solve", "--input", path, "--output", str(tmp_path / "unused.json")]
    else:
        argv = ["volume", "--body", write_json(tmp_path / "body.json", payload)]
    text = text or {"weight": "must be positive", "x": "must be >= 0"}[key]
    assert main(argv) == 2
    field = f"{top}.{container}[2]{suffix.format(key=key)}"
    assert capsys.readouterr().err == f"schema error: {field}: {text}\n"


def solved(tmp_path, instance: str) -> dict:
    out = tmp_path / "solution.json"
    assert main(["solve", "--input", instance, "--output", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("case", ["body-x", "weight", "direction", "z"])
def test_integers_past_the_float_range_exit_2(tmp_path, symmetric_instance, lens_body, case, capsys):
    # float(10 ** 400) raised OverflowError, which exited 5
    huge = 10**400
    payload = json.loads(open(lens_body if case == "body-x" else symmetric_instance).read())
    if case == "body-x":
        payload["horoballs"][1]["x"] = huge
        argv, field = ["volume", "--body"], "body.horoballs[1].x"
    elif case == "weight":
        payload["atoms"][1]["weight"] = huge
        argv, field = ["solve", "--output", str(tmp_path / "unused.json"), "--input"], "instance.atoms[1].weight"
    elif case == "direction":
        payload["atoms"][1]["direction"] = [0, -huge]
        argv, field = ["solve", "--output", str(tmp_path / "unused.json"), "--input"], "instance.atoms[1].direction[1]"
    else:
        payload = dict(solved(tmp_path, symmetric_instance), z=[0.25, huge])
        argv, field = ["check", "--instance", symmetric_instance, "--solution"], "solution.z[1]"
    capsys.readouterr()
    assert main(argv + [write_json(tmp_path / "huge.json", payload)]) == 2
    assert capsys.readouterr().err == f"schema error: {field}: must be finite\n"


@pytest.mark.parametrize("command", ["check", "render"])
@pytest.mark.parametrize(
    "fault, message",
    [
        (("weight", -1.0), "solution.instance.atoms[1].weight: must be positive"),
        (("direction", [0.6, 0.8]), "solution.instance.atoms: measure: no antipodal partner for entry 1"),
    ],
    ids=["negative-weight", "no-antipode"],
)
def test_faults_in_a_solutions_echo_name_the_solution(tmp_path, symmetric_instance, command, fault, message, capsys):
    # they named instance.atoms, which points at the --instance file
    sol = solved(tmp_path, symmetric_instance)
    key, value = fault
    sol["instance"]["atoms"][1][key] = value
    bad = write_json(tmp_path / "bad.json", sol)
    capsys.readouterr()
    argv = {
        "check": ["check", "--instance", symmetric_instance, "--solution", bad],
        "render": ["render", "--solution", bad, "--svg", str(tmp_path / "x.svg")],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"schema error: {message}\n"


def test_check_rebuilds_the_solved_body_from_raw_directions(tmp_path, capsys):
    # the echo holds the atoms as the file gives them, so check normalizes
    # the same rows solve did and reproduces the residual exactly
    atoms = [
        {"direction": d, "weight": w}
        for d, w in (([3, 4], 1.0), ([-3, -4], 1.0), ([2, 0], 2.0), ([-2, 0], 2.0), ([0.5, -1.5], 0.7), ([-0.5, 1.5], 0.7))
    ]
    inst = write_json(tmp_path / "inst.json", {"schema_version": "1", "n": 1, "p": 0.0, "even": True, "atoms": atoms})
    sol = solved(tmp_path, inst)
    assert sol["iterations"] > 0
    assert sol["instance"]["atoms"] == atoms
    assert all(isinstance(v, float) for atom in sol["instance"]["atoms"] for v in atom["direction"])
    capsys.readouterr()
    assert main(["check", "--instance", inst, "--solution", str(tmp_path / "solution.json")]) == 0
    assert last_json(capsys)["residual_max_rel"] == sol["residual_max_rel"]


@pytest.mark.parametrize(
    "rows",
    [[[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.6, 0.8]]],
    ids=["n1", "n2"],
)
def test_check_and_render_rebuild_the_solved_body_bit_for_bit(tmp_path, monkeypatch, rows):
    # check and render rebuild the body from the solution file
    # (_poly_from_solution) through the measure's own even spec, as the
    # solver built it
    results = []

    def solve_and_keep(measure, config):
        results.append(horomink.solver.solve_even(measure, config))
        return results[-1]

    monkeypatch.setattr(horomink.cli, "solve_even", solve_and_keep)
    atoms = [
        {"direction": [sign * v for v in row], "weight": weight}
        for sign in (1.0, -1.0)
        for row, weight in zip(rows, (1.0, 1.7, 0.8))
    ]
    payload = {"schema_version": "1", "n": len(rows[0]) - 1, "p": 0.0, "even": True, "atoms": atoms}
    sol = horomink.cli.validate_solution(solved(tmp_path, write_json(tmp_path / "inst.json", payload)))
    assert sol["iterations"] > 0
    body, rebuilt = results[0].polytope, horomink.cli._poly_from_solution(sol)
    assert np.array_equal(np.array(sol["z"]), results[0].z)
    assert np.array_equal(rebuilt.spec.x, body.spec.x)
    for field in body.boundary.__dataclass_fields__:
        assert np.array_equal(getattr(rebuilt.boundary, field), getattr(body.boundary, field)), field


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


@pytest.mark.parametrize("command", ["check", "render"])
@pytest.mark.parametrize("areas", [5, None])
def test_malformed_facet_areas_exit_2(tmp_path, symmetric_instance, command, areas, capsys):
    # a non-list is a schema error, not a program fault
    out = tmp_path / "solution.json"
    main(["solve", "--input", symmetric_instance, "--output", str(out)])
    sol = json.loads(out.read_text())
    sol["facet_areas"] = areas
    bad = write_json(tmp_path / "bad.json", sol)
    capsys.readouterr()
    argv = {
        "check": ["check", "--instance", symmetric_instance, "--solution", bad],
        "render": ["render", "--solution", bad, "--svg", str(tmp_path / "x.svg")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error:")
    assert "solution.facet_areas" in err


@pytest.mark.parametrize(
    "rows, scales",
    [
        # unequal scales on the antipodal pair (1, 0), (-1, 0)
        ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 2.0, 1.0]),
        # (0.6, 0.8) has no antipode
        ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.6, 0.8]], [1.0, 1.0, 1.0, 1.0]),
    ],
    ids=["unequal-pair", "no-antipode"],
)
def test_bodies_that_do_not_pair_exit_2(tmp_path, rows, scales, capsys):
    # an even body file that does not pair is a schema error naming the field,
    # as an even instance file is
    body = write_json(
        tmp_path / "odd.json",
        {
            "schema_version": "1",
            "n": 1,
            "even": True,
            "horoballs": [{"direction": d, "x": x} for d, x in zip(rows, scales)],
        },
    )
    assert main(["volume", "--body", body]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error:")
    assert "body.horoballs" in err


def axes_instance(tmp_path, p: float, v0: float, weights=(1.0, 2.0)) -> str:
    return write_json(
        tmp_path / "axes.json",
        {
            "schema_version": "1",
            "n": 1,
            "p": p,
            "V0": v0,
            "even": True,
            "atoms": [
                {"direction": d, "weight": w}
                for d, w in zip(
                    ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]), weights * 2
                )
            ],
        },
    )


@pytest.mark.parametrize(
    "p, v0, weights, named",
    [
        (-1.0, 1e100, (1.0, 2.0), "V0 = 1e+100"),
        (-2000.0, 1.0, (1.0, 2.0), "p = -2000.0"),
        (-1e6, 1.0, (1.0, 1.0), "p = -1000000.0"),
    ],
    ids=["huge-V0", "p-2000", "p-1e6"],
)
def test_unsolvable_extremes_exit_4(tmp_path, p, v0, weights, named, capsys):
    # user errors naming the value, not program faults; no file is written
    out = tmp_path / "solution.json"
    argv = ["solve", "--input", axes_instance(tmp_path, p, v0, weights), "--output", str(out)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("geometry error:")
    assert named in err
    assert not out.exists()


def test_negative_flags_in_exponent_notation_take_the_equals_form(tmp_path, capsys):
    # argparse reads "--p -1e6" as a flag without a value; "--p=-1e6" overrides
    # the file's p = 2
    out = tmp_path / "solution.json"
    argv = ["solve", "--input", axes_instance(tmp_path, 2.0, 1.0, (1.0, 1.0)), "--output", str(out)]
    assert main(argv + ["--p=-1e6"]) == 4
    assert "p = -1000000.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("v0", [1e30, 1e50])
def test_solve_large_volumes(tmp_path, v0, capsys):
    out = tmp_path / "solution.json"
    instance = axes_instance(tmp_path, -1.0, v0)
    assert main(["solve", "--input", instance, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["iterations"] > 0
    capsys.readouterr()
    assert main(["check", "--instance", instance, "--solution", str(out)]) == 0
    assert last_json(capsys)["match"] is True


def test_solve_large_positive_p_is_quiet(tmp_path, capsys):
    out = tmp_path / "solution.json"
    argv = ["solve", "--input", axes_instance(tmp_path, -1.0, 1.0), "--output", str(out)]
    assert main(argv + ["--p", "2000"]) == 0
    assert capsys.readouterr().err == ""


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



def test_volume_past_the_float_range_exits_4(tmp_path, capsys):
    # the cube at scale 354 printed {"volume": Infinity}, which is not JSON,
    # and exited 0
    rows = np.vstack([np.eye(3), -np.eye(3)])
    body = write_json(
        tmp_path / "huge.json",
        {
            "schema_version": "1",
            "n": 2,
            "horoballs": [{"direction": row.tolist(), "x": 354.0} for row in rows],
        },
    )
    assert main(["volume", "--body", body]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("geometry error:")
    assert "past the float range" in err


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


def test_n3_volume_seed_alone_sets_the_rule(tmp_path, capsys):
    # --seed alone chooses the seed of the n >= 3 rule
    dirs = np.zeros((2, 4))
    dirs[:, 0] = [1.0, -1.0]
    body = write_json(
        tmp_path / "body.json",
        {"schema_version": "1", "n": 3, "horoballs": [{"direction": d.tolist(), "x": LOG2} for d in dirs]},
    )
    spec = PolytopeSpec(n=3, directions=dirs, x=np.array([LOG2, LOG2]))
    for seed in (0, 5):
        assert main(["volume", "--body", body, "--seed", str(seed)]) == 0
        rule = build_quadrature(3, seed=seed)
        assert last_json(capsys)["volume"] == volume(build_polytope(spec, scan=rule))
    assert volume(build_polytope(spec, scan=rule)) != volume(build_polytope(spec))


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


def test_solution_records_why_the_solver_stopped(tmp_path, asymmetric_instance, capsys):
    out = tmp_path / "solution.json"
    assert main(["solve", "--input", asymmetric_instance, "--output", str(out)]) == 0
    report = capsys.readouterr().out
    sol = json.loads(out.read_text())
    assert sol["stop_reason"] == "converged"
    assert report.endswith(" stop_reason=converged\n")
    # the gradient check runs once, on the returned body: measured 2.0e-10
    assert 0.0 < sol["gradient_check_max_rel"] <= 1e-9
    assert main(["check", "--instance", asymmetric_instance, "--solution", str(out)]) == 0
    assert last_json(capsys)["match"] is True
    # a solve cut short says so, and checks all the same
    assert main(["solve", "--input", asymmetric_instance, "--output", str(out), "--max-iters", "0"]) == 3
    assert capsys.readouterr().out.endswith(" stop_reason=max_iters\n")
    assert json.loads(out.read_text())["stop_reason"] == "max_iters"
    assert main(["check", "--instance", asymmetric_instance, "--solution", str(out)]) == 0
    assert last_json(capsys)["match"] is True


def test_solutions_without_a_stop_reason_still_check(tmp_path, asymmetric_instance, capsys):
    out = tmp_path / "solution.json"
    assert main(["solve", "--input", asymmetric_instance, "--output", str(out)]) == 0
    sol = json.loads(out.read_text())
    del sol["stop_reason"], sol["gradient_check_max_rel"]
    older = write_json(tmp_path / "older.json", sol)
    capsys.readouterr()
    assert main(["check", "--instance", asymmetric_instance, "--solution", older]) == 0
    assert last_json(capsys)["match"] is True


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("stop_reason", "tired", "expected one of converged, max_iters, line_search, zero_direction"),
        ("stop_reason", 3, "expected one of converged, max_iters, line_search, zero_direction"),
        ("stop_reason", "line_search", "line_search contradicts converged"),
        ("gradient_check_max_rel", -1e-3, "must be >= 0"),
        ("gradient_check_max_rel", "0", "expected a number"),
        ("gradient_check_max_rel", math.inf, "must be finite"),
    ],
)
def test_bad_run_records_exit_2(tmp_path, asymmetric_instance, capsys, field, value, message):
    out = tmp_path / "solution.json"
    assert main(["solve", "--input", asymmetric_instance, "--output", str(out)]) == 0
    sol = json.loads(out.read_text())
    sol[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(sol), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "--instance", asymmetric_instance, "--solution", str(bad)]) == 2
    assert capsys.readouterr().err == f"schema error: solution.{field}: {message}\n"


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
    # render reads the solution alone, so its fault is in the solution's echo
    for argv, field in (
        (["solve", "--input", inst, "--output", str(tmp_path / "unused.json")], "instance.n"),
        (["check", "--instance", inst, "--solution", sol], "instance.n"),
        (["render", "--solution", sol, "--svg", str(tmp_path / "unused.svg")], "solution.instance.n"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: {field}:")
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


@pytest.mark.parametrize("row, like", [([1e200, 1e200], [1.0, 1.0]), ([1e-320, 0], [1.0, 0.0])], ids=["huge", "subnormal"])
def test_directions_whose_squares_leave_the_float_range(tmp_path, lens_body, row, like, capsys):
    # the norm of [1e200, 1e200] overflowed, and [1e-320, 0] was refused as
    # "must be nonzero"; support exited 5 on both directions
    rows = [row, [-1.0, 1.0], [0.0, -1.0]]
    body = write_json(
        tmp_path / "far.json",
        {"schema_version": "1", "n": 1, "horoballs": [{"direction": d, "x": 1.0} for d in rows]},
    )
    assert main(["volume", "--body", body]) == 0
    spec = PolytopeSpec(n=1, directions=[like] + rows[1:], x=np.ones(3))
    assert last_json(capsys)["volume"] == pytest.approx(volume(build_polytope(spec)), rel=1e-12)
    assert main(["support", "--body", lens_body, "--direction", ",".join(map(str, row))]) == 0
    got = last_json(capsys)["support"]
    assert main(["support", "--body", lens_body, "--direction", ",".join(map(str, like))]) == 0
    assert got == pytest.approx(last_json(capsys)["support"], rel=1e-12)


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


@pytest.mark.parametrize("n", [1, 2])
def test_separate_far_from_the_body(tmp_path, n, capsys):
    # the ball is formed in closed form; a boost back from the point failed
    # its Lorentz test past a distance of about 9, and the command exited 5
    dirs = np.vstack([np.eye(n + 1), -np.eye(n + 1)])
    body = write_json(
        tmp_path / "cube.json",
        {"schema_version": "1", "n": n, "even": True, "horoballs": [{"direction": list(d), "x": 0.8} for d in dirs]},
    )
    poly = build_polytope(PolytopeSpec(n=n, directions=dirs, x=np.full(dirs.shape[0], 0.8), even=True))
    theta = horomink.Direction.from_vector(np.arange(1.0, n + 2.0))
    for r in (12.0, 100.0, 300.0):
        q = horomink.polar_point(r, theta)
        assert main(["separate", "--body", body, "--point", ",".join(map(repr, q.coords.tolist()))]) == 0
        report = last_json(capsys)
        center = horomink.Direction(np.array(report["center"]))
        # the ball touches the body and leaves the point outside
        assert horomink.support(poly, center) == pytest.approx(report["s"], abs=1e-12)
        assert horomink.busemann_value(center, q) - report["s"] >= r - horomink.extremal_radii(poly)[0]


@pytest.mark.parametrize("point", ["3e200,0,1e200", "1e200,0,1e200"])
def test_separate_refuses_points_whose_squares_overflow(lens_body, point, capsys):
    # <X, X> read inf - inf = nan, which passed the sheet test
    assert main(["separate", "--body", lens_body, "--point", point]) == 2
    assert "off the unit hyperboloid" in capsys.readouterr().err


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
    # python -m horomink.cli; thread pools are capped by the standard
    # OMP_NUM_THREADS / OPENBLAS_NUM_THREADS variables, which need no code here
    proc = subprocess.run(
        [sys.executable, "-m", "horomink.cli", "volume", "--body", lens_body],
        capture_output=True,
        text=True,
        env=child_env(OMP_NUM_THREADS="1"),
    )
    assert proc.returncode == 0
    assert "volume" in json.loads(proc.stdout.strip().splitlines()[-1] or "{}")
