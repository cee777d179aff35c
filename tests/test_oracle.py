"""The reference implementations themselves: Monte-Carlo volume, grid
search, and the tangent-horoball family for tube bodies."""

import math

import numpy as np
import pytest

from horomink import (
    DiscreteMeasure,
    PolytopeSpec,
    SpecError,
    build_polytope,
    t_body_volume,
    volume,
)
from horomink.oracle import grid_search_even, mc_volume, t_body_wulff_spec

LOG2 = math.log(2.0)
LENS_VOLUME_LOG2 = 2.7394130254891182


def lens_poly(s: float = LOG2):
    return build_polytope(
        PolytopeSpec(
            n=1,
            directions=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            x=np.array([s, s]),
            even=True,
        )
    )


def random_poly(rng, n: int, m: int, x_range=(0.8, 1.8)):
    while True:
        dirs = rng.normal(size=(m, n + 1))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        gram = dirs @ dirs.T
        np.fill_diagonal(gram, -1.0)
        if np.max(gram) < math.cos(0.35):
            break
    return build_polytope(
        PolytopeSpec(n=n, directions=dirs, x=rng.uniform(*x_range, size=m))
    )


# ------------------------------------------------------------------ mc_volume

def test_mc_volume_lens_golden():
    estimate, stderr = mc_volume(lens_poly(), num_samples=1_000_000, seed=3)
    assert stderr > 0.0
    assert abs(estimate - LENS_VOLUME_LOG2) <= 3.0 * stderr


def test_mc_volume_deterministic():
    a = mc_volume(lens_poly(), num_samples=50_000, seed=11)
    b = mc_volume(lens_poly(), num_samples=50_000, seed=11)
    assert a == b
    c = mc_volume(lens_poly(), num_samples=50_000, seed=12)
    assert a != c


def test_mc_volume_random_corpus():
    # quadrature volume and the chart sampler agree within 3 sigma across
    # dimensions; seeds vary per body so a systematic bias cannot hide
    rng = np.random.Generator(np.random.Philox(99))
    for k in range(10):
        poly = random_poly(rng, 1, int(rng.integers(3, 6)))
        est, err = mc_volume(poly, num_samples=200_000, seed=1000 + k)
        assert abs(est - volume(poly)) <= 3.0 * err
    for k in range(10):
        poly = random_poly(rng, 2, int(rng.integers(4, 7)))
        est, err = mc_volume(poly, num_samples=200_000, seed=2000 + k)
        assert abs(est - volume(poly)) <= 3.0 * err


def test_mc_volume_rejects_tiny_sample():
    with pytest.raises(ValueError):
        mc_volume(lens_poly(), num_samples=1)


# ---------------------------------------------------------------- grid search

def test_grid_search_single_pair():
    mu = DiscreteMeasure.from_even_pairs(np.array([[1.0, 0.0]]), np.array([1.0]))
    z = grid_search_even(mu, 0.0)
    assert z.shape == (1,)
    assert z[0] == pytest.approx(0.5, abs=1e-12)


def test_grid_search_symmetric_cross():
    mu = DiscreteMeasure.from_even_pairs(
        np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0])
    )
    z = grid_search_even(mu, 0.0, resolution=200)
    assert np.allclose(z, 0.25, atol=2.0 / 200)


def test_grid_search_refinement_never_worsens():
    mu = DiscreteMeasure.from_even_pairs(
        np.array([[1.0, 0.0], [math.cos(1.1), math.sin(1.1)]]),
        np.array([1.0, 1.7]),
    )

    def objective(z):
        spec = PolytopeSpec(
            n=1,
            directions=np.vstack([mu.reduced_pairs()[0], -mu.reduced_pairs()[0]]),
            x=np.concatenate([z, z]),
            even=True,
        )
        return volume(build_polytope(spec))

    # nested mixing grids: 101, 202, 404 interior intervals
    coarse = objective(grid_search_even(mu, 0.0, resolution=100))
    mid = objective(grid_search_even(mu, 0.0, resolution=201))
    fine = objective(grid_search_even(mu, 0.0, resolution=403))
    assert mid >= coarse - 1e-15
    assert fine >= mid - 1e-15


def test_grid_search_negative_p():
    mu = DiscreteMeasure.from_even_pairs(
        np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0])
    )
    z = grid_search_even(mu, -1.0, v0=1.0, resolution=150)
    spec = PolytopeSpec(
        n=1,
        directions=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        x=np.concatenate([z, z]),
        even=True,
    )
    assert volume(build_polytope(spec)) == pytest.approx(1.0, rel=1e-4)
    assert z[0] == pytest.approx(z[1], abs=2.0 / 150)


def test_grid_search_rejections():
    mu3 = DiscreteMeasure.from_even_pairs(
        np.array([[1.0, 0.0], [0.0, 1.0], [math.cos(2.2), math.sin(2.2)]]),
        np.array([1.0, 1.0, 1.0]),
    )
    with pytest.raises(ValueError):
        grid_search_even(mu3, 0.0)
    mu = DiscreteMeasure.from_even_pairs(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        grid_search_even(mu, 0.0, resolution=99)


# ------------------------------------------------------- tangent-ball familes

def test_wulff_family_n1_matches_integral():
    spec = t_body_wulff_spec(2.0, 1)
    assert spec.count == 2
    assert np.all(spec.x > 0.0)
    got = volume(build_polytope(spec))
    assert got == pytest.approx(t_body_volume(2.0, 1), rel=1e-4)


def test_wulff_family_n2_matches_integral():
    spec = t_body_wulff_spec(1.5, 2, count=96)
    got = volume(build_polytope(spec))
    assert got == pytest.approx(t_body_volume(1.5, 2), rel=1e-2)


def test_wulff_family_n3_builds():
    spec = t_body_wulff_spec(1.0, 3, count=64, seed=5)
    assert spec.count == 64
    assert np.all(np.isfinite(spec.x)) and np.all(spec.x > 0.0)
    poly = build_polytope(spec)
    assert volume(poly) > 0.0


def test_wulff_family_rejections():
    with pytest.raises(SpecError):
        t_body_wulff_spec(0.0, 1)
    with pytest.raises(SpecError):
        t_body_wulff_spec(1.0, 2, count=2)
