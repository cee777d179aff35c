import math

import numpy as np
import pytest

from horomink.geometry import (
    BallPoint,
    Direction,
    HyperboloidPoint,
    Isometry,
    convert_model,
    minkowski_dot,
    polar_point,
    safe_acosh,
)
from horomink.oracle import chord_arclength


def rand_direction(rng, n):
    return Direction.from_vector(rng.normal(size=n + 1))


def rand_point(rng, n, rmax=2.5):
    return polar_point(rng.uniform(0.0, rmax), rand_direction(rng, n))


def origin(n):
    return polar_point(0.0, Direction(np.eye(n + 1)[0]))


def distance(x, y):
    """d(X, Y) = acosh(-<X, Y>), as the package reads it off the form."""
    return float(safe_acosh(-minkowski_dot(x.coords, y.coords)))


def test_distance_origin_to_polar_is_radius():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        theta = rand_direction(rng, n)
        assert distance(origin(n), polar_point(1.0, theta)) == pytest.approx(1.0, abs=1e-12)


def test_distance_clamps_roundoff_for_coincident_points():
    x = polar_point(0.7, Direction(np.array([1.0, 0.0])))
    d = distance(x, x)
    assert d == 0.0 and not math.isnan(d)


def test_distance_symmetry_and_positivity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        x, y = rand_point(rng, n), rand_point(rng, n)
        assert distance(x, y) == distance(y, x)
        assert distance(x, y) >= 0.0


def test_distance_matches_chord_arclength_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        x, y = rand_point(rng, n), rand_point(rng, n)
        oracle = chord_arclength(x.coords, y.coords, segments=4096)
        assert distance(x, y) == pytest.approx(oracle, abs=1e-5)


def test_polar_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        r = float(rng.uniform(0.0, 3.0))
        theta = rand_direction(rng, n)
        x = polar_point(r, theta)
        assert distance(origin(n), x) == pytest.approx(r, abs=1e-10)
        if r > 1e-6:
            spatial = x.coords[:-1]
            assert np.allclose(spatial / np.linalg.norm(spatial), theta.vector, atol=1e-10)


def test_polar_rejects_negative_radius():
    with pytest.raises(ValueError):
        polar_point(-0.1, Direction(np.array([1.0, 0.0])))


def test_origin_images_in_other_models():
    o = origin(2)
    assert np.allclose(convert_model(o, "ball").coords, np.zeros(3))


def test_convert_round_trips():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        x = rand_point(rng, n, rmax=3.0)
        back = convert_model(convert_model(x, "ball"), "hyperboloid")
        assert np.max(np.abs(back.coords - x.coords)) < 1e-10


def test_convert_preserves_distances():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        x, y = rand_point(rng, n), rand_point(rng, n)
        a, b = convert_model(x, "ball").coords, convert_model(y, "ball").coords
        # the ball chart's own distance formula
        gap = 2.0 * float(np.dot(a - b, a - b)) / ((1.0 - float(np.dot(a, a))) * (1.0 - float(np.dot(b, b))))
        assert math.acosh(1.0 + gap) == pytest.approx(distance(x, y), abs=1e-9)


def test_convert_is_identity_on_same_model():
    x = rand_point(np.random.default_rng(6), 1)
    assert convert_model(x, "hyperboloid") is x


def test_convert_rejects_unknown_model():
    with pytest.raises(ValueError):
        convert_model(origin(1), "klein")
    with pytest.raises(TypeError):
        convert_model(np.zeros(3), "ball")


def test_point_validation():
    with pytest.raises(ValueError):
        BallPoint(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        HyperboloidPoint(np.array([0.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        HyperboloidPoint(np.array([0.0, 0.0, -1.0]))
    with pytest.raises(ValueError):
        Direction(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Direction.from_vector(np.zeros(2))


@pytest.mark.parametrize(
    "vec, unit", [([1e200, 1e200], [math.sqrt(0.5)] * 2), ([1e-320, 0.0], [1.0, 0.0])], ids=["huge", "subnormal"]
)
def test_from_vector_past_the_float_range_of_its_squares(vec, unit):
    # both raised ValueError: the norm overflowed to inf or underflowed to 0
    np.testing.assert_allclose(Direction.from_vector(vec).vector, unit, rtol=1e-15, atol=0.0)


def test_isometries_satisfy_lorentz_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        eta = np.eye(n + 2)
        eta[-1, -1] = -1.0
        b = Isometry.boost(rand_direction(rng, n), float(rng.uniform(-2, 2)))
        r = Isometry.rotation_between(rand_direction(rng, n), rand_direction(rng, n))
        for iso in (b, r, Isometry(b.matrix @ r.matrix), Isometry(eta @ (r.matrix @ b.matrix).T @ eta)):
            assert np.max(np.abs(iso.matrix.T @ eta @ iso.matrix - eta)) < 1e-10


def test_isometries_preserve_distance():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        boost = Isometry.boost(rand_direction(rng, n), float(rng.uniform(-1.5, 1.5)))
        rotation = Isometry.rotation_between(rand_direction(rng, n), rand_direction(rng, n))
        mat = boost.matrix @ rotation.matrix
        x, y = rand_point(rng, n), rand_point(rng, n)
        moved = minkowski_dot(mat @ x.coords, mat @ y.coords)
        assert float(safe_acosh(-moved)) == pytest.approx(distance(x, y), abs=1e-9)


def test_isometry_rejects_non_lorentz_matrix():
    with pytest.raises(ValueError):
        Isometry(np.eye(3) * 2.0)
    with pytest.raises(ValueError, match="not Lorentz"):
        Isometry(Isometry.boost(Direction(np.array([0.6, 0.8])), 1.0).matrix * (1.0 + 1e-6))


def test_boost_moves_origin_to_polar_point():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        theta = rand_direction(rng, n)
        d = float(rng.uniform(0.0, 2.0))
        image = Isometry.boost(theta, d).matrix @ origin(n).coords
        assert np.max(np.abs(image - polar_point(d, theta).coords)) < 1e-10


def test_boost_to_origin_sends_point_home():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        r, theta = float(rng.uniform(0.0, 3.0)), rand_direction(rng, n)
        # a boost by -r moves the point at distance r back along its ray
        home = Isometry.boost(theta, -r).matrix @ polar_point(r, theta).coords
        assert np.max(np.abs(home - origin(n).coords)) < 1e-10


def test_rotation_between_maps_first_to_second():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        a, b = rand_direction(rng, n), rand_direction(rng, n)
        image = Isometry.rotation_between(a, b).matrix[:-1, :-1] @ a.vector
        assert np.allclose(image, b.vector, atol=1e-12)
    up = Direction(np.array([0.0, 1.0]))
    down = Direction(np.array([0.0, -1.0]))
    image = Isometry.rotation_between(up, down).matrix[:-1, :-1] @ up.vector
    assert np.allclose(image, down.vector, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("delta", [1e-2, 1e-3, 3e-4, 1e-5, 1e-7])
def test_rotation_between_near_antipode(n, delta):
    # the mirror pair keeps the matrix Lorentz where 1 / (1 + dot) blows up
    rng = np.random.default_rng(12)
    target = Direction(np.append(np.zeros(n), 1.0))
    for _ in range(10):
        side = rng.normal(size=n)
        side /= np.linalg.norm(side)
        a = Direction(np.append(math.sin(delta) * side, -math.cos(delta)))
        iso = Isometry.rotation_between(a, target)  # checks M^T eta M = eta
        assert np.allclose(iso.matrix[:-1, :-1] @ a.vector, target.vector, atol=1e-12)
        assert np.linalg.det(iso.matrix) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [9.0, 30.0, 300.0])
def test_the_lorentz_test_scales_with_the_matrix(d):
    # M^T eta M carries roundoff of the size of the largest squared entry,
    # cosh(d)^2 for a boost; the absolute 1e-10 refused boosts past about 9
    theta = Direction(np.array([0.6, 0.8]))
    boost = Isometry.boost(theta, d)
    image = boost.matrix @ origin(1).coords
    assert np.max(np.abs(image - polar_point(d, theta).coords)) <= 1e-15 * math.cosh(d)
    # one entry off by a relative 1e-6 moves M^T eta M by about 1e-7 cosh(d)^2
    skewed = np.array(boost.matrix)
    skewed[0, 0] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="not Lorentz"):
        Isometry(skewed)
    with pytest.raises(ValueError, match="swaps the hyperboloid sheets"):
        Isometry(boost.matrix @ np.diag([1.0, 1.0, -1.0]))
