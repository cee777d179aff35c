import math

import numpy as np
import pytest

from horomink.geometry import (
    Direction,
    HyperboloidPoint,
    Isometry,
    minkowski_dot,
    polar_point,
    safe_acosh,
)
from horomink.horoball import (
    Horoball,
    busemann_value,
    horoball_contains,
    horoball_transform,
    radial_matrix,
)
from horomink.oracle import radial_bisection

E1 = Direction(np.array([1.0, 0.0]))
E_UP = Direction(np.array([0.0, 1.0]))

# Radial reach of a scale-log(2) horoball orthogonally to its center,
# i.e. the root of cosh(t) = 2: log(2 + sqrt(3)).
ORTHOGONAL_REACH_LOG2 = 1.3169578969248166


def rand_direction(rng, n):
    return Direction.from_vector(rng.normal(size=n + 1))


def origin(n):
    return polar_point(0.0, Direction(np.eye(n + 1)[0]))


def reach_of(ball: Horoball, theta: Direction) -> float:
    """radial_matrix's one entry for one horoball and one direction."""
    return float(radial_matrix(ball.center.vector[None, :], np.array([ball.s]), theta.vector[None, :])[0, 0])


def test_busemann_vanishes_at_origin():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        assert busemann_value(rand_direction(rng, n), origin(n)) == pytest.approx(0.0, abs=1e-12)


def test_busemann_polar_formula():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        e, theta = rand_direction(rng, n), rand_direction(rng, n)
        r = float(rng.uniform(0.0, 3.0))
        want = math.log(math.cosh(r) - math.sinh(r) * float(np.dot(theta.vector, e.vector)))
        assert busemann_value(e, polar_point(r, theta)) == pytest.approx(want, abs=1e-10)


def test_contains_origin_iff_scale_nonnegative():
    assert horoball_contains(Horoball(E1, 0.0), origin(1))
    assert horoball_contains(Horoball(E1, 0.5), origin(1))
    assert not horoball_contains(Horoball(E1, -0.1), origin(1))


def test_radial_matches_bisection_oracle():
    rng = np.random.default_rng(2)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        e, theta = rand_direction(rng, n), rand_direction(rng, n)
        s = float(rng.uniform(0.05, 3.0))
        reach = reach_of(Horoball(e, s), theta)
        c = float(np.dot(e.vector, theta.vector))
        if math.isinf(reach):
            assert c >= 1.0 - 1e-9
            continue
        assert reach == pytest.approx(radial_bisection(s, c), abs=1e-9)


def test_radial_boundary_equation_residual():
    # cosh(t) - c sinh(t) = e^s at the returned t, evaluated cancellation-free.
    rng = np.random.default_rng(3)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        e, theta = rand_direction(rng, n), rand_direction(rng, n)
        s = float(rng.uniform(0.05, 3.0))
        reach = reach_of(Horoball(e, s), theta)
        if math.isinf(reach):
            continue
        c = float(np.clip(np.dot(e.vector, theta.vector), -1.0, 1.0))
        x = math.exp(reach)
        lhs = 0.5 * (x * (1.0 - c) + (1.0 + c) / x)
        assert abs(lhs - math.exp(s)) <= 1e-10 * max(1.0, math.exp(s))


def test_radial_orthogonal_golden_value():
    reach = reach_of(Horoball(E1, math.log(2.0)), E_UP)
    assert reach == pytest.approx(ORTHOGONAL_REACH_LOG2, abs=1e-12)


def test_radial_antipodal_equals_scale():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        e = rand_direction(rng, n)
        s = float(rng.uniform(0.1, 2.5))
        anti = Direction(-e.vector)
        assert reach_of(Horoball(e, s), anti) == pytest.approx(s, abs=1e-12)


def test_radial_unbounded_toward_center():
    assert math.isinf(reach_of(Horoball(E1, 0.3), E1))
    nearly = Direction.from_vector(np.array([1.0, 1e-3]))
    assert math.isfinite(reach_of(Horoball(E1, 0.3), nearly))


def test_radial_monotone_in_alignment():
    ball = Horoball(E1, 0.8)
    angles = np.linspace(math.pi, 1e-3, 64)
    reaches = [
        reach_of(ball, Direction(np.array([math.cos(a), math.sin(a)])))
        for a in angles
    ]
    assert all(b > a for a, b in zip(reaches, reaches[1:]))


def test_boundary_hit_property():
    rng = np.random.default_rng(5)
    count = 0
    while count < 1000:
        n = int(rng.integers(1, 4))
        e, theta = rand_direction(rng, n), rand_direction(rng, n)
        s = float(rng.uniform(0.05, 2.0))
        ball = Horoball(e, s)
        reach = reach_of(ball, theta)
        if math.isinf(reach):
            continue
        count += 1
        assert busemann_value(e, polar_point(reach, theta)) == pytest.approx(s, abs=1e-9)
        assert horoball_contains(ball, polar_point(reach * 0.999, theta))
        assert not horoball_contains(ball, polar_point(reach + 1e-6, theta))


def test_transform_identity():
    ball = Horoball(E1, 0.7)
    out = horoball_transform(ball, Isometry(np.eye(3)))
    assert np.allclose(out.center.vector, ball.center.vector) and out.s == pytest.approx(0.7)


def test_transform_boost_toward_center_shifts_scale():
    ball = Horoball(E1, 1.5)
    out = horoball_transform(ball, Isometry.boost(E1, 0.4))
    assert np.allclose(out.center.vector, E1.vector, atol=1e-12)
    assert out.s == pytest.approx(1.1, abs=1e-12)


def test_transform_rotation_moves_center_keeps_scale():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        e, target = rand_direction(rng, n), rand_direction(rng, n)
        out = horoball_transform(Horoball(e, 0.9), Isometry.rotation_between(e, target))
        assert np.allclose(out.center.vector, target.vector, atol=1e-10)
        assert out.s == pytest.approx(0.9, abs=1e-12)


def test_transform_composition():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        ball = Horoball(rand_direction(rng, n), float(rng.uniform(-1.0, 2.0)))
        m1 = Isometry.boost(rand_direction(rng, n), float(rng.uniform(-1, 1)))
        m2 = Isometry.rotation_between(rand_direction(rng, n), rand_direction(rng, n))
        one = horoball_transform(horoball_transform(ball, m1), m2)
        two = horoball_transform(ball, Isometry(m2.matrix @ m1.matrix))
        assert np.allclose(one.center.vector, two.center.vector, atol=1e-9)
        assert one.s == pytest.approx(two.s, abs=1e-9)


def test_transform_preserves_membership():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 4))
        ball = Horoball(rand_direction(rng, n), float(rng.uniform(-0.5, 1.5)))
        iso = Isometry.boost(rand_direction(rng, n), float(rng.uniform(-1, 1)))
        point = polar_point(float(rng.uniform(0, 2.5)), rand_direction(rng, n))
        gap = busemann_value(ball.center, point) - ball.s
        if abs(gap) < 1e-6:
            continue  # keep clear of the boundary so roundoff cannot flip the answer
        checked += 1
        moved = horoball_transform(ball, iso)
        assert horoball_contains(ball, point) == horoball_contains(moved, HyperboloidPoint(iso.matrix @ point.coords))


def test_concentric_horosphere_distance_is_scale_gap():
    # Points on the scale-s horosphere about e sit at distance eps from the
    # scale (s + eps) one: V = X - (e, 1) e^{-s} is a unit tangent at X
    # (<V, X> = 0, <V, V> = 1) pointing away from e, and the geodesic
    # cosh(eps) X + sinh(eps) V raises the Busemann value by eps.
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        e = rand_direction(rng, n)
        s = float(rng.uniform(0.1, 1.5))
        eps = float(rng.uniform(0.05, 0.8))
        theta = rand_direction(rng, n)
        reach = reach_of(Horoball(e, s), theta)
        if math.isinf(reach):
            continue
        x = polar_point(reach, theta)
        assert busemann_value(e, x) == pytest.approx(s, abs=1e-9)
        v = x.coords - math.exp(-s) * np.append(e.vector, 1.0)
        y = HyperboloidPoint(math.cosh(eps) * x.coords + math.sinh(eps) * v)
        assert float(safe_acosh(-minkowski_dot(x.coords, y.coords))) == pytest.approx(eps, abs=1e-8)
        assert busemann_value(e, y) == pytest.approx(s + eps, abs=1e-8)
