"""Acceptance gate: ten criteria, one test each, at the advertised
tolerances and runtime budgets. Each test prints a single summary line;
run with -v (or -s) to see them per criterion."""

import math
import time

import numpy as np
import pytest

from horomink import (
    DiscreteMeasure,
    Direction,
    Isometry,
    PolytopeSpec,
    SolverConfig,
    boundedness_bound,
    build_polytope,
    build_quadrature,
    extremal_radii,
    facet_area,
    facet_area_fd,
    hausdorff_distance,
    horoball_contains,
    horoball_transform,
    outer_parallel_support,
    polar_point,
    radial,
    solve_even,
    support,
    t_body_volume,
    t_body_volume_lower_bound,
    volume,
)
from horomink.oracle import mc_volume, t_body_wulff_spec
from horomink.polytope import _radial_rows, _support_grid

LOG2 = math.log(2.0)


def lens_spec(s: float, n: int = 1) -> PolytopeSpec:
    dirs = np.zeros((2, n + 1))
    dirs[0, 0] = 1.0
    dirs[1, 0] = -1.0
    return PolytopeSpec(n=n, directions=dirs, x=np.array([s, s]), even=True)


def random_spec(rng, m: int, x_range, even: bool = False) -> PolytopeSpec:
    while True:
        wrap = math.pi if even else 2.0 * math.pi
        ang = np.sort(rng.uniform(0.0, wrap, size=m))
        if np.min(np.diff(np.concatenate([ang, [ang[0] + wrap]]))) > 0.2:
            break
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    x = rng.uniform(*x_range, size=m)
    if even:
        return PolytopeSpec(
            n=1, directions=np.vstack([dirs, -dirs]), x=np.concatenate([x, x]), even=True
        )
    return PolytopeSpec(n=1, directions=dirs, x=x)


def random_measure(rng, m: int) -> DiscreteMeasure:
    while True:
        ang = np.sort(rng.uniform(0.0, math.pi, size=m))
        if np.min(np.diff(np.concatenate([ang, [ang[0] + math.pi]]))) > 0.25:
            break
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    return DiscreteMeasure.from_even_pairs(dirs, rng.uniform(0.3, 3.0, size=m))


def test_criterion_01_lens_facet_goldens():
    start = time.perf_counter()
    poly1 = build_polytope(lens_spec(LOG2, n=1))
    got1 = facet_area(poly1, 0)
    assert got1 == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-9)
    poly2 = build_polytope(lens_spec(LOG2, n=2))
    got2 = facet_area(poly2, 0)
    assert got2 == pytest.approx(3.0 * math.pi, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    print(
        f"criterion 1: PASS (n=1 facet {got1:.12f} vs 2*sqrt(3), "
        f"n=2 facet {got2:.12f} vs 3*pi, {elapsed:.2f}s)"
    )


def _facets_active(spec: PolytopeSpec, margin: float) -> bool:
    """True when every listed horoball cuts a facet with at least the given
    gap from redundancy. The volume is differentiable in x_i everywhere,
    but only C^1 at the tangency threshold (the facet area kinks to zero
    there), so a central difference needs the whole window on one side.
    """
    if spec.count == 2:
        return True  # two distinct horoballs always carve two facets
    for i in range(spec.count):
        keep = [j for j in range(spec.count) if j != i]
        sub = PolytopeSpec(n=1, directions=spec.directions[keep], x=spec.x[keep])
        ceiling = support(build_polytope(sub), Direction(spec.directions[i]))
        if ceiling - float(spec.x[i]) < margin:
            return False
    return True


def test_criterion_02_facet_area_is_volume_derivative():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(2024))
    worst = 0.0
    checked = 0
    bodies = 0
    while bodies < 50:
        spec = random_spec(rng, int(rng.integers(2, 6)), (0.2, 2.0))
        if not _facets_active(spec, margin=1e-2):
            continue
        poly = build_polytope(spec)
        bodies += 1
        for i in range(spec.count):
            direct = facet_area(poly, i)
            fd = facet_area_fd(poly, i, delta=1e-4)
            worst = max(worst, abs(direct - fd) / max(direct, 1e-8))
            checked += 1
    assert worst <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    print(
        f"criterion 2: PASS ({checked} facets on 50 bodies, worst rel gap "
        f"{worst:.3e} <= 1e-3, {elapsed:.1f}s)"
    )


def test_criterion_03_volume_isometry_invariance():
    rng = np.random.Generator(np.random.Philox(3030))
    worst = 0.0
    for _ in range(20):
        spec = random_spec(rng, int(rng.integers(3, 6)), (1.2, 2.5))
        poly = build_polytope(spec)
        v0 = volume(poly)
        for _ in range(5):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            iso = Isometry.boost(
                Direction(np.array([math.cos(ang), math.sin(ang)])),
                rng.uniform(0.1, 1.0),
            )
            moved = [horoball_transform(b, iso) for b in spec.horoballs()]
            moved_spec = PolytopeSpec(
                n=1,
                directions=np.array([b.center.vector for b in moved]),
                x=np.array([b.s for b in moved]),
            )
            v1 = volume(build_polytope(moved_spec))
            worst = max(worst, abs(v1 - v0) / v0)
    assert worst <= 1e-3
    print(f"criterion 3: PASS (100 boosted volumes, worst rel change {worst:.3e})")


def test_criterion_04_lens_volume_cross_check():
    target = 4.0 * (math.sqrt(3.0) - math.pi / 3.0)
    poly = build_polytope(lens_spec(LOG2))
    quad = volume(poly)
    assert quad == pytest.approx(target, abs=1e-4)
    estimate, stderr = mc_volume(poly, num_samples=1_000_000, seed=404)
    assert abs(estimate - target) <= 3.0 * stderr
    print(
        f"criterion 4: PASS (quadrature {quad:.8f}, mc {estimate:.6f} "
        f"+- {stderr:.2e} vs {target:.8f})"
    )


def test_criterion_05_tube_body_suite():
    for r in (1.0, 2.0, 4.0):
        assert t_body_volume(r, 1) >= t_body_volume_lower_bound(r, 1)
    exact2 = t_body_volume(2.0, 2)
    wulff2 = volume(build_polytope(t_body_wulff_spec(2.0, 2, count=256)))
    rel2 = abs(wulff2 - exact2) / exact2
    assert rel2 <= 1e-2
    # n = 1 needs only the two endpoint horoballs and is exact
    exact1 = t_body_volume(2.0, 1)
    wulff1 = volume(build_polytope(t_body_wulff_spec(2.0, 1)))
    assert wulff1 == pytest.approx(exact1, rel=1e-4)
    rng = np.random.Generator(np.random.Philox(5050))
    for _ in range(50):
        spec = random_spec(rng, int(rng.integers(2, 6)), (0.3, 1.8))
        poly = build_polytope(spec)
        bound = boundedness_bound(volume(poly), 1)
        assert float(np.max(poly.canonical_support)) <= bound
    print(
        f"criterion 5: PASS (lower bounds at r=1,2,4; T(2) wulff n=2 rel "
        f"{rel2:.2e}, n=1 exact; support bound on 50 bodies)"
    )


def test_criterion_06_solver_symmetric_p0():
    start = time.perf_counter()
    mu = DiscreteMeasure.from_even_pairs(
        np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0])
    )
    result = solve_even(mu, SolverConfig(p=0.0))
    elapsed = time.perf_counter() - start
    assert result.converged
    assert result.residual_max_rel <= 1e-3
    assert result.iterations <= 200
    assert np.allclose(result.z, 0.25, atol=1e-4)
    assert elapsed <= 10.0
    print(
        f"criterion 6: PASS (z = {result.z.tolist()}, residual "
        f"{result.residual_max_rel:.2e}, {result.iterations} iterations, {elapsed:.2f}s)"
    )


def test_criterion_07_solver_exponent_sweep():
    start = time.perf_counter()
    n = 1
    batches = {"p=2": (2.0, 7000), "p=-1": (-1.0, 7100), "p=-n": (-float(n), 7200)}
    for label, (p, seed) in batches.items():
        rng = np.random.Generator(np.random.Philox(seed))
        for k in range(10):
            mu = random_measure(rng, int(rng.integers(2, 7)))
            cfg = SolverConfig(p=p, v0=1.0, tol=1e-2)
            result = solve_even(mu, cfg)
            assert result.converged, f"{label} run {k} did not converge"
            assert result.residual_max_rel <= 1e-2
            trace = np.array(result.objective_trace)
            if p >= 0:
                assert np.all(np.diff(trace) >= -1e-12)
            else:
                assert np.all(np.diff(trace) <= 1e-12)
                assert volume(result.polytope) == pytest.approx(1.0, rel=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed <= 300.0
    print(f"criterion 7: PASS (30 runs across p in {{2, -1, -n}}, {elapsed:.1f}s)")


def test_criterion_08_metric_suite():
    rng = np.random.Generator(np.random.Philox(8080))
    # Hausdorff axioms on 100 random triples
    for _ in range(100):
        a, b, c = (
            build_polytope(random_spec(rng, int(rng.integers(3, 6)), (0.8, 1.8)))
            for _ in range(3)
        )
        dab = hausdorff_distance(a, b)
        assert dab == hausdorff_distance(b, a)
        assert dab >= 0.0
        assert hausdorff_distance(a, a) == 0.0
        assert hausdorff_distance(a, c) <= dab + hausdorff_distance(b, c) + 2e-4
    # extremal radii against dense support/radial grids
    rule = build_quadrature(1, 10000)
    worst_ext = 0.0
    for _ in range(20):
        poly = build_polytope(
            random_spec(rng, int(rng.integers(3, 6)), (0.8, 1.8)), scan=rule
        )
        sup = _support_grid(poly, rule.nodes)
        big_r, small_r = extremal_radii(poly)
        worst_ext = max(
            worst_ext,
            abs(float(np.max(sup)) - big_r),
            abs(float(np.min(sup)) - small_r),
        )
    assert worst_ext <= 1e-3
    # outer parallel growth rate; 256 directions keep the polygonal slack
    # far below the rate*eps headroom at a fraction of the default cost
    worst_slack = -math.inf
    par_angles = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    par_dirs = np.column_stack([np.cos(par_angles), np.sin(par_angles)])
    for _ in range(50):
        poly = build_polytope(random_spec(rng, int(rng.integers(3, 6)), (0.8, 1.8)))
        eps = rng.uniform(0.01, 0.5)
        big_r, small_r = extremal_radii(poly)
        rate = 2.0 * math.exp(2.0 * big_r) / (small_r * math.exp(small_r))
        outer = build_polytope(outer_parallel_support(poly, eps, dirs=par_dirs))
        for _ in range(20):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            theta = Direction(np.array([math.cos(ang), math.sin(ang)]))
            grown = radial(outer, theta) - radial(poly, theta)
            worst_slack = max(worst_slack, grown - rate * eps)
    assert worst_slack <= 1e-9
    print(
        f"criterion 8: PASS (100 triples, extremal gap {worst_ext:.2e}, "
        f"parallel-body slack {worst_slack:.2e})"
    )


def test_criterion_09_separating_horoball():
    rng = np.random.Generator(np.random.Philox(9090))
    from horomink import separate

    count = 10000
    angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    thetas = np.column_stack([np.cos(angles), np.sin(angles)])
    worst = -math.inf
    for _ in range(50):
        spec = random_spec(rng, int(rng.integers(3, 6)), (0.5, 1.5))
        poly = build_polytope(spec)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        theta = Direction(np.array([math.cos(ang), math.sin(ang)]))
        q = polar_point(radial(poly, theta) + rng.uniform(0.05, 2.0), theta)
        ball = separate(poly, q)
        assert not horoball_contains(ball, q)
        rho = _radial_rows(spec, thetas)
        boundary = np.column_stack([np.sinh(rho)[:, None] * thetas, np.cosh(rho)])
        # busemann_value at every boundary point X: log(X_t - X_s . e) - s
        gaps = np.log(boundary[:, -1] - boundary[:, :-1] @ ball.center.vector) - ball.s
        worst = max(worst, float(np.max(gaps)))
    assert worst <= 1e-6
    print(f"criterion 9: PASS (50 bodies, worst boundary excess {worst:.2e} <= 1e-6)")


def test_criterion_10_determinism():
    rng_spec = lambda seed: np.random.Generator(np.random.Philox(seed))  # noqa: E731
    mu = random_measure(rng_spec(1234), 3)
    first = solve_even(mu, SolverConfig(p=2.0))
    second = solve_even(random_measure(rng_spec(1234), 3), SolverConfig(p=2.0))
    assert np.array_equal(first.z, second.z)
    assert first.lam == second.lam
    assert first.residual_max_rel == second.residual_max_rel
    assert first.objective_trace == second.objective_trace

    lens = build_polytope(lens_spec(LOG2))
    assert mc_volume(lens, 100_000, seed=7) == mc_volume(lens, 100_000, seed=7)

    poly2 = build_polytope(lens_spec(LOG2, n=2))
    assert facet_area(poly2, 0) == facet_area(poly2, 0)

    spec_a = t_body_wulff_spec(1.0, 3, count=32, seed=6)
    spec_b = t_body_wulff_spec(1.0, 3, count=32, seed=6)
    assert np.array_equal(spec_a.x, spec_b.x)
    assert np.array_equal(spec_a.directions, spec_b.directions)
    print("criterion 10: PASS (solver, mc volume, mc facet, wulff family reruns identical)")
