"""The import graph: SciPy loads only in the paths that call it.

Each check runs in a child interpreter, because pytest's own warning filter
for scipy.integrate.IntegrationWarning imports SciPy into this process."""

import json
import os
import subprocess
import sys
import textwrap

import horomink


def run_child(script: str, tmp_path) -> subprocess.CompletedProcess:
    package_root = os.path.dirname(os.path.dirname(horomink.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    source = tmp_path / "child.py"
    source.write_text(textwrap.dedent(script), encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(source)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_n_le_2_work_loads_no_scipy(tmp_path):
    body = tmp_path / "planar.json"
    body.write_text(
        json.dumps(
            {
                "schema_version": "1",
                "n": 1,
                "even": True,
                "horoballs": [
                    {"direction": [1.0, 0.0], "x": 0.7},
                    {"direction": [0.0, 1.0], "x": 0.9},
                    {"direction": [-1.0, 0.0], "x": 0.7},
                    {"direction": [0.0, -1.0], "x": 0.9},
                ],
            }
        ),
        encoding="utf-8",
    )
    proc = run_child(
        f"""
        import sys

        import numpy as np

        import horomink
        import horomink.cli
        from horomink import (
            DiscreteMeasure, Direction, PolytopeSpec, SolverConfig, build_polytope, facet_area,
            hausdorff_distance, polar_point, separate, solve_even, support, volume,
        )

        assert "scipy" not in sys.modules, "import"
        planar = DiscreteMeasure.from_even_pairs([[1.0, 0.0], [0.6, 0.8]], [1.0, 1.7])
        spatial = DiscreteMeasure.from_even_pairs(np.eye(3), [1.0, 1.5, 2.0])
        for measure, p in ((planar, 0.0), (spatial, -1.0)):
            result = solve_even(measure, SolverConfig(p=p, tol=1e-2))
            assert result.converged and result.gradient_check_max_rel <= 1e-3
        for n in (1, 2):
            dirs = np.vstack([np.eye(n + 1), -np.eye(n + 1)])
            spec = PolytopeSpec(n=n, directions=dirs, x=np.full(dirs.shape[0], 0.8), even=True)
            poly = build_polytope(spec)
            assert volume(poly) > 0.0 and all(facet_area(poly, i) > 0.0 for i in range(poly.spec.count))
            support(poly, Direction(np.ones(n + 1) / np.sqrt(n + 1)))
            separate(poly, polar_point(5.0, Direction(np.ones(n + 1) / np.sqrt(n + 1))))
            if n == 1:
                other = build_polytope(PolytopeSpec(n=1, directions=dirs, x=np.full(4, 1.1), even=True))
                assert hausdorff_distance(poly, other) > 0.0
        assert horomink.cli.main(["volume", "--body", {str(body)!r}]) == 0
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))[:5]
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


def test_n_ge_3_work_loads_scipy(tmp_path):
    proc = run_child(
        """
        import sys

        import numpy as np

        from horomink import PolytopeSpec, build_polytope, build_quadrature, facet_area, t_body_volume, volume

        dirs = np.vstack([np.eye(4), -np.eye(4)])
        spec = PolytopeSpec(n=3, directions=dirs, x=np.ones(8), even=True)
        poly = build_polytope(spec, scan=build_quadrature(3, 500))
        # a volume reads the scan radii only; facet flags refine support numbers
        assert volume(poly) > 0.0
        assert "scipy" not in sys.modules
        assert all(facet_area(poly, i) > 0.0 for i in range(poly.spec.count))
        assert "scipy.optimize" in sys.modules and "scipy.integrate" not in sys.modules
        assert t_body_volume(1.0, 3) > 0.0
        assert "scipy.integrate" in sys.modules
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
