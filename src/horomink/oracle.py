"""Slow independent reference computations used to certify the fast paths.

Everything here is deliberately written against different machinery than
the closed forms it checks: bisection instead of quadratic roots, chord
sums instead of arccosh, rejection-style Monte-Carlo in the ball chart
instead of radial quadrature, and brute-force grid search instead of the
projected-gradient solver. Test suites freeze values produced here; the
functions stay available at runtime for spot checks (see the
`oracle-volume` subcommand).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SpecError
from .polytope import (
    HConvexPolytope,
    PolytopeSpec,
    extremal_radii,
    _volume_of_spec,
)
from .quadrature import build_quadrature, unit_ball_volume


def radial_bisection(s: float, cos_angle: float, tol: float = 1e-12) -> float:
    """Radial reach of a horoball by bisection on g(t) = cosh t - c sinh t - e^s.

    Independent of the closed quadratic form: brackets the crossing on the
    increasing branch of g (t >= artanh(max(c, 0))) and bisects. Returns
    math.inf when the ray never exits (c within 1e-9 of 1).
    """
    if s <= 0.0:
        raise ValueError("needs s > 0")
    c = min(max(cos_angle, -1.0), 1.0)
    if c >= 1.0 - 1e-9:
        return math.inf
    target = math.exp(s)

    def g(t: float) -> float:
        return math.cosh(t) - c * math.sinh(t) - target

    lo = math.atanh(c) if c > 0.0 else 0.0
    hi = max(lo, 1.0)
    while g(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("failed to bracket the horoball boundary")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def chord_arclength(x: np.ndarray, y: np.ndarray, segments: int = 4096) -> float:
    """Geodesic length between hyperboloid points by Minkowski chord sums.

    Projects the straight segment from x to y back onto the hyperboloid
    (which traces the geodesic) and accumulates the Minkowski norms of the
    coordinate differences. No arccosh involved; error is O(1/segments^2).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ts = np.linspace(0.0, 1.0, segments + 1)[:, None]
    chord = (1.0 - ts) * x[None, :] + ts * y[None, :]
    quad = np.sum(chord[:, :-1] ** 2, axis=1) - chord[:, -1] ** 2
    curve = chord / np.sqrt(-quad)[:, None]
    diff = np.diff(curve, axis=0)
    seg_sq = np.sum(diff[:, :-1] ** 2, axis=1) - diff[:, -1] ** 2
    return float(np.sum(np.sqrt(np.maximum(seg_sq, 0.0))))


def mc_volume(
    poly: HConvexPolytope, num_samples: int = 1_000_000, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo volume estimate with a standard error, in the ball chart.

    Samples uniformly from the Euclidean ball of radius tanh(R/2) (the
    chart image of the circumscribed ball), weighs each point by the
    hyperbolic density (2 / (1 - |Y|^2))^{n+1}, and keeps samples inside
    every horoball. Only the sampling radius R comes from the library
    (extremal_radii: read off the boundary arcs for n <= 2, a scan refined
    by Nelder-Mead for n >= 3); the estimate is independent of the
    volume formulas and the radial quadrature path.
    """
    if num_samples < 2:
        raise ValueError("need at least two samples")
    big_r, _ = extremal_radii(poly)
    chart_radius = math.tanh(0.5 * big_r)
    dim = poly.spec.n + 1
    rng = np.random.Generator(np.random.Philox(seed))
    raw = rng.normal(size=(num_samples, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    radii = chart_radius * rng.random(num_samples) ** (1.0 / dim)
    points = raw * radii[:, None]
    sq = np.sum(points * points, axis=1)
    scale = 1.0 / (1.0 - sq)
    spatial = 2.0 * points * scale[:, None]
    last = (1.0 + sq) * scale
    # f_e(X) <= x  <=>  -<X, (e, 1)> <= e^x, vectorized over samples x atoms
    pairing = spatial @ poly.spec.directions.T - last[:, None]
    inside = np.all(-pairing <= np.exp(poly.spec.x)[None, :], axis=1)
    density = (2.0 * scale) ** dim
    values = np.where(inside, density, 0.0)
    ball = unit_ball_volume(dim) * chart_radius**dim
    estimate = ball * float(np.mean(values))
    stderr = ball * float(np.std(values, ddof=1)) / math.sqrt(num_samples)
    return estimate, stderr


def grid_search_even(
    measure,
    p: float,
    v0: float = 1.0,
    resolution: int = 200,
) -> np.ndarray:
    """Brute-force optimum of the even problem over the constraint slice.

    Supports one or two direction pairs only; the constraint set is a
    curve parameterized by the mixing weight w in (0, 1), each point of
    which is pinned to the constraint by local bisection (no code shared
    with the solver's rescaling). Returns the reduced scales of the best
    grid point.
    """
    if resolution < 100:
        raise ValueError("grid search needs resolution >= 100")
    _, reduced_w = measure.reduced_pairs()
    m = reduced_w.size
    if m > 2:
        raise ValueError("grid search handles at most two direction pairs")
    n = measure.n
    # n <= 2 volumes are exact and read no rule
    rule = build_quadrature(n) if n > 2 else None
    template = measure.spec(np.ones(m))

    def local_phi(z: np.ndarray) -> float:
        if p == 0.0:
            return 2.0 * float(np.dot(reduced_w, z))
        return 2.0 * float(np.sum(reduced_w * np.expm1(p * z)) / p)

    def local_volume(z: np.ndarray) -> float:
        return _volume_of_spec(template.with_x(np.concatenate([z, z]), even=False), rule)

    def pinned(direction: np.ndarray) -> np.ndarray:
        if p >= 0.0:
            target, func = 1.0, local_phi
        else:
            target, func = v0, local_volume
        if p == 0.0:
            return direction * (target / local_phi(direction))
        lo, hi = 1.0, 1.0
        if func(direction) < target:
            while func(hi * direction) < target:
                hi *= 2.0
            lo = hi / 2.0
        else:
            while func(lo * direction) > target:
                lo /= 2.0
            hi = lo * 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if func(mid * direction) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi) * direction

    if m == 1:
        return pinned(np.ones(1))

    best_z = None
    best_obj = -math.inf
    for w in np.linspace(0.0, 1.0, resolution + 2)[1:-1]:
        z = pinned(np.array([w, 1.0 - w]))
        obj = local_volume(z) if p >= 0.0 else -local_phi(z)
        if obj > best_obj:
            best_obj = obj
            best_z = z
    return best_z


def t_body_wulff_spec(r: float, n: int, count: int = 256, seed: int = 0) -> PolytopeSpec:
    """Horoball family whose envelope approximates the tangent body T(r).

    In the upper half-space chart that sends the ideal point (0, ..., 0, 1)
    to infinity and O to height 1 over the floor origin, T(r) is cut out by
    horoballs tangent to the floor at |p| = e^{r/2} with scale 0. The boost
    by r/2 that centers the body at O sends each of them to the equator: the
    image of its null vector has last spatial part 0 and time part
    cosh(r/2) - sinh(r/2) tanh(r/2) = 1 / cosh(r/2), so it is the horoball
    at (theta, 0), theta the contact direction, with scale log cosh(r/2),
    taken as r/2 + log1p(e^{-r}) - log 2 so that it is finite for every r.
    count is the number of contact points (n = 1 always uses the two
    endpoints; n >= 3 draws seeded random ones).
    """
    if r <= 0.0:
        raise SpecError("needs r > 0")
    if n == 1:
        thetas = np.array([[1.0], [-1.0]])
    elif n == 2:
        if count < 3:
            raise SpecError("need at least three contact points for n = 2")
        angles = 2.0 * math.pi * np.arange(count) / count
        thetas = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        rng = np.random.Generator(np.random.Philox(seed))
        thetas = rng.normal(size=(count, n))
        thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    scale = 0.5 * r + math.log1p(math.exp(-r)) - math.log(2.0)
    directions = np.column_stack([thetas, np.zeros(len(thetas))])
    return PolytopeSpec(n=n, directions=directions, x=np.full(len(thetas), scale))
