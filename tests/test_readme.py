"""The README documents the command line as the parser and the instance
and solution validators implement it."""

import argparse
import dataclasses
import re
from pathlib import Path

from horomink.cli import SchemaViolation, _build_parser, validate_instance, validate_solution
from horomink.solver import SolverConfig, SolverResult

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_usage() -> dict:
    """Flags per subcommand in the README's command-line usage block."""
    block = README.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    # an indented line continues the command above it
    commands = block.replace("\n ", " ").splitlines()
    usage = {}
    for line in commands:
        words = line.split()
        assert words[0] == "horomink", line
        usage[words[1]] = set(re.findall(r"--[a-z0-9-]+", line))
    return usage


def parser_flags() -> dict:
    subparsers = next(
        action for action in _build_parser()._actions if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {flag for action in sub._actions for flag in action.option_strings if flag not in ("-h", "--help")}
        for name, sub in subparsers.choices.items()
    }


def test_readme_usage_matches_the_parser():
    assert readme_usage() == parser_flags()


def test_readme_solver_keys_match_the_validator():
    sentence = re.search(r"Valid `solver` keys:([^.]*)\.", README).group(1)
    documented = set(re.findall(r"`([a-z_0-9]+)`", sentence))
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
    # every SolverConfig field, and every key an instance file ever took
    candidates = {field.name for field in dataclasses.fields(SolverConfig)} | documented | {
        "step", "backtrack", "min_step", "fd_delta", "grad_check_every",
        "quad_nodes", "quad_kind", "seed", "gradient_mode",
    }
    accepted = set()
    for key in candidates:
        try:
            validate_instance(dict(base, solver={key: 1}))
        except SchemaViolation as exc:
            assert exc.field == f"instance.solver.{key}"
            assert "unknown field" in str(exc)
        else:
            accepted.add(key)
    assert accepted == documented == {"tol", "max_iters"}


def test_readme_solution_fields_match_the_validator():
    sentence = re.search(r"Fields:([^.]*)\.", README).group(1)
    documented = set(re.findall(r"`([a-z_0-9]+)`", sentence))
    # every SolverResult field, the instance's keys, and the documented ones
    candidates = {field.name for field in dataclasses.fields(SolverResult)} | documented | {
        "schema_version", "n", "p", "V0", "atoms", "even", "solver", "lam", "measure",
    }
    accepted = set()
    for key in candidates:
        # unknown keys are reported before missing ones
        try:
            validate_solution({key: None})
        except SchemaViolation as exc:
            if str(exc) != f"solution.{key}: unknown field":
                accepted.add(key)
    # every file carries schema_version, which the README names once for all
    assert accepted - {"schema_version"} == documented
    assert "schema_version" in accepted
