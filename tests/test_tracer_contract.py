"""The benchmark's tracer wraps module attributes by name; every name it
wraps must exist, so a rename or deletion fails here and not only in a
benchmark run."""

import importlib.util
from pathlib import Path

from horomink import cli, polytope, solver

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_unpatches():
    tracer_module = load_tracer()
    owners = (cli, polytope, solver)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        assert solver.build_quadrature is not before[2]["build_quadrature"]
        assert solver._volume_of_spec is not before[2]["_volume_of_spec"]
    finally:
        tracer.unpatch()
    for owner, names in zip(owners, before):
        for name, value in names.items():
            assert getattr(owner, name) is value, f"{owner.__name__}.{name} not restored"
