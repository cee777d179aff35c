"""Horospherically convex polytopes: intersections of closed horoballs.

A body is specified by directions e_i on the ideal sphere and scales
x_i >= 0; the polytope is the intersection of the closed horoballs
B(e_i, x_i). With at least two distinct directions and positive scales the
intersection is compact with the basepoint O interior, so it is star
shaped about O and fully described by its radial function.

Every horosphere is intrinsically flat, and in its flat chart each other
horoball cuts out a Euclidean disk (_shadows, one formula for every
dimension). For n <= 2 a build turns those disks into the body's boundary
once, and every query reads off it in closed form:

* n = 1: one arc per supporting horoball (_PlanarBoundary). Facet lengths
  are arc lengths, the volume is a sum of per-arc sector areas, and
  the Hausdorff distance is a maximum over finitely many candidate angles.
* n = 2: the circular arcs that bound each facet (_FacetArcs). Facet areas
  follow from Green's theorem, and the volume is a divergence-theorem sum
  of one smooth integral per arc.

Support numbers, the circumradius and nearest boundary points follow one
rule: for q = (v, 1) with |v| <= 1 (an ideal point v, O at v = 0, or a
query point up to a positive factor), -<X, q> is a convex quadratic on each
horosphere's chart (_chart_quadratic), so its extremes over the boundary
sit at vertices, arc ends, one stationary point per arc or a facet's
interior minimizer. The inradius is min_i x_i in
every dimension. No scan enters there, and the one tolerance (_ARC_TOL)
only absorbs roundoff where a horoball touches a vertex. For n >= 3 the
queries maximize over a scan quadrature, refine with Nelder-Mead and
estimate facet areas by Monte-Carlo over the facet's disks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import quad as _adaptive_quad
from scipy.optimize import minimize as _nm_minimize
# Unused here; the benchmark's tracer wraps this name to count Brent runs.
from scipy.optimize import minimize_scalar as _scalar_minimize  # noqa: F401

from .errors import (
    DegenerateBodyError,
    NotEvenError,
    PointInsideError,
    SpecError,
)
from .geometry import (
    Direction,
    HyperboloidPoint,
    # Unused here; the benchmark's tracer swaps this name to count rotations.
    Isometry,  # noqa: F401
    boost_to_origin,
    minkowski_dot,
    polar_point,
    safe_acosh,
)
from .horoball import Horoball, horoball_transform, radial_matrix
from .quadrature import SphereQuadrature, build_quadrature, sinh_power_integral, unit_ball_volume

# For n >= 3, a listed direction supports the body when its scale matches
# the support number this closely.
FACET_TOL = 1e-7

# Monte-Carlo points per n >= 3 facet area.
_MC_SAMPLES = 400_000

# Pairwise direction separation below this counts as "the same direction".
DIRECTION_TOL = 1e-9

# Boundary maxima often sit at body vertices where the objective has a kink,
# so the value error of a refinement is first order in the bracket width.
_REFINE_XATOL = 1e-12

# An arc shorter than this, relative to its parameter magnitude (arclength
# for n = 1, angle for n = 2), is roundoff around a single point: a
# horoball that only touches a vertex.
_ARC_TOL = 1e-12

# Gauss-Legendre nodes on [-1, 1]: 16 per arc for the n = 2 volume, whose
# integrand is analytic along each arc, and 4 for the cone kernel's short
# intervals.
_ARC_NODES = np.polynomial.legendre.leggauss(16)
_KERNEL_NODES = np.polynomial.legendre.leggauss(4)

# z - atan z = z^3 (1/3 - z^2/5 + z^4/7 - ...); 26 terms reach roundoff
# for z < 1/2.
_ATAN_POWERS = np.arange(26)
_ATAN_SERIES = (-1.0) ** _ATAN_POWERS / (2 * _ATAN_POWERS + 3)
# the n = 2 tube volume over 2 pi h^5 (see t_body_volume), by the same powers
_TUBE_SERIES = (2 * _ATAN_POWERS + 2) / (3 * (2 * _ATAN_POWERS + 5))
# (sinh u - u) / u^3 = sum_k u^(2k) / (2k + 3)!, highest power first (for
# np.polyval); 9 terms reach roundoff for u < 1
_SINH_SERIES = np.array([1.0 / math.factorial(2 * k + 3) for k in range(8, -1, -1)])

# An n = 2 facet's arcs are first swept over this many of its disks; the
# rest join only where they cut the result.
_SWEEP_START = 12


def _direction_rows(directions, n: int) -> np.ndarray:
    rows = np.array(directions, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != n + 1 or rows.shape[0] == 0:
        raise SpecError(f"directions must form a nonempty (m, {n + 1}) array")
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0) or not np.all(np.isfinite(rows)):
        raise SpecError("directions must be finite and nonzero")
    rows = rows / norms[:, None]
    rows.setflags(write=False)
    return rows


def _even_pairing(directions: np.ndarray, what: str) -> np.ndarray:
    """Antipodal partners: rows (i, j) with i < j, in order of i; NotEven
    when an entry has none."""
    count = directions.shape[0]
    if count % 2 != 0:
        raise NotEvenError(f"{what}: odd number of entries cannot pair up")
    partner = np.full(count, -1)
    for i in range(count):
        if partner[i] >= 0:
            continue
        gaps = np.linalg.norm(directions + directions[i], axis=1)
        found = -1
        for j in np.argsort(gaps):
            if j != i and partner[j] < 0 and gaps[j] <= DIRECTION_TOL:
                found = int(j)
                break
        if found < 0:
            raise NotEvenError(f"{what}: no antipodal partner for entry {i}")
        partner[i], partner[found] = found, i
    first = np.flatnonzero(np.arange(count) < partner)
    pairs = np.column_stack([first, partner[first]])
    pairs.setflags(write=False)
    return pairs


def _check_even_values(pairs: np.ndarray, values: np.ndarray, what: str):
    """NotEven naming the first pair (by its lower index i) whose values
    differ: |v_i - v_j| > 1e-9 max(1, |v_i|)."""
    i, j = pairs[:, 0], pairs[:, 1]
    unequal = np.abs(values[i] - values[j]) > 1e-9 * np.maximum(1.0, np.abs(values[i]))
    if np.any(unequal):
        k = int(np.argmax(unequal))
        raise NotEvenError(f"{what}: entries {i[k]} and {j[k]} pair with unequal values")


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finite positive measure on S^n: atoms (direction, weight)."""

    n: int
    directions: np.ndarray
    weights: np.ndarray
    even: bool = False
    # antipodal pairs (i, j), i < j, of an even measure (see _even_pairing)
    _pairs: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        rows = _direction_rows(self.directions, self.n)
        weights = np.array(self.weights, dtype=np.float64)
        if weights.shape != (rows.shape[0],):
            raise SpecError("weights must align with directions")
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            raise SpecError("atom weights must be positive and finite")
        gram = rows @ rows.T
        np.fill_diagonal(gram, -2.0)
        if np.max(gram) > 1.0 - DIRECTION_TOL:
            raise SpecError("measure atoms must have pairwise distinct directions")
        weights.setflags(write=False)
        object.__setattr__(self, "directions", rows)
        object.__setattr__(self, "weights", weights)
        if self.even:
            pairs = _even_pairing(rows, "measure")
            _check_even_values(pairs, weights, "measure")
            object.__setattr__(self, "_pairs", pairs)

    @property
    def count(self) -> int:
        return self.directions.shape[0]

    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def reduced_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """One representative per antipodal pair (first occurrences, input order)."""
        if not self.even:
            raise NotEvenError("measure is not flagged even")
        idx = self._pairs[:, 0]
        return self.directions[idx], self.weights[idx]

    @classmethod
    def from_even_pairs(cls, directions, weights) -> "DiscreteMeasure":
        """Build the full even measure from one representative per pair."""
        rows = np.asarray(directions, dtype=np.float64)
        w = np.asarray(weights, dtype=np.float64)
        return cls(
            n=rows.shape[1] - 1,
            directions=np.vstack([rows, -rows]),
            weights=np.concatenate([w, w]),
            even=True,
        )


@dataclass(frozen=True, eq=False)
class PolytopeSpec:
    """Defining data of an intersection of closed horoballs."""

    n: int
    directions: np.ndarray
    x: np.ndarray
    even: bool = False
    # antipodal pairs (i, j), i < j, of an even spec (see _even_pairing);
    # they depend on the directions only, so with_x passes them on
    _pairs: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        rows = _direction_rows(self.directions, self.n)
        if rows.shape[0] < 2:
            raise SpecError("need at least two horoballs")
        gram = rows @ rows.T
        np.fill_diagonal(gram, 2.0)
        if np.min(gram) > 1.0 - DIRECTION_TOL:
            # every off-diagonal pair nearly coincides: no two distinct directions
            raise SpecError("need at least two distinct directions")
        object.__setattr__(self, "directions", rows)
        self._set_x(self.x)

    def _set_x(self, new_x):
        """Check and store the scales against the (checked) directions."""
        x = np.array(new_x, dtype=np.float64)
        if x.shape != (self.count,):
            raise SpecError("scales x must align with directions")
        if np.any(x < 0.0) or not np.all(np.isfinite(x)):
            raise SpecError("scales x must be nonnegative and finite")
        if np.any(x == 0.0) and not self.even:
            raise SpecError("zero scales are only representable for even specs")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        if self.even:
            if self._pairs is None:
                object.__setattr__(self, "_pairs", _even_pairing(self.directions, "spec"))
            _check_even_values(self._pairs, x, "spec")

    @property
    def count(self) -> int:
        return self.directions.shape[0]

    def with_x(self, new_x, even: bool | None = None) -> "PolytopeSpec":
        """The same directions with the scales new_x; only those are checked.

        An even spec passes its pairs on; a spec made even here pairs its
        directions first.
        """
        even = self.even if even is None else even
        spec = object.__new__(PolytopeSpec)
        object.__setattr__(spec, "n", self.n)
        object.__setattr__(spec, "directions", self.directions)
        object.__setattr__(spec, "even", even)
        object.__setattr__(spec, "_pairs", self._pairs if even else None)
        spec._set_x(new_x)
        return spec

    def horoballs(self) -> list[Horoball]:
        return [
            Horoball(Direction(self.directions[i]), float(self.x[i]))
            for i in range(self.count)
        ]


@dataclass(frozen=True, eq=False)
class _PlanarBoundary:
    """Boundary of a planar body: at most one arc per horoball.

    In the flat chart of horocycle j (see _shadows), s is signed arclength
    and grows counterclockwise about O. Horoball k cuts horocycle j in the
    interval |s - c_jk| <= w_jk, and the body's arc on it is [lo_j, hi_j],
    the intersection of those intervals. `starts` holds X_j(lo_j) for every
    active arc; each vertex of the polygon starts exactly one arc. `frames`
    holds the chart frame T_j of every horoball.
    """

    lo: np.ndarray
    hi: np.ndarray
    active: np.ndarray
    starts: np.ndarray
    frames: np.ndarray


@dataclass(frozen=True, eq=False)
class _FacetArcs:
    """Boundary of an n = 2 body: the circular arcs around each facet.

    Arc a bounds facet i = facet[a]. In the flat chart of horosphere i (see
    _shadows) it is s = center[a] + width[a] (cos t, sin t) for t in
    [lo[a], hi[a]], part of the circle that another horoball cuts from the
    horosphere, and it runs counterclockwise around the facet. `frames`
    holds the chart frame T_i of every horoball.
    """

    facet: np.ndarray
    center: np.ndarray
    width: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    active: np.ndarray
    frames: np.ndarray


@dataclass(frozen=True, eq=False)
class HConvexPolytope:
    """A built body: spec plus support numbers and the data its queries read.

    n <= 2 bodies carry their boundary arcs and no scan (scan and
    scan_radii are None); n >= 3 bodies carry a scan quadrature with the
    radial function on its nodes.
    """

    spec: PolytopeSpec
    canonical_support: np.ndarray
    facet_nonempty: np.ndarray
    scan: SphereQuadrature | None
    scan_radii: np.ndarray | None
    boundary: _PlanarBoundary | _FacetArcs | None = None

    @property
    def n(self) -> int:
        return self.spec.n

    @cached_property
    def _scan_cosh(self) -> np.ndarray:
        return np.cosh(self.scan_radii)

    @cached_property
    def _scan_sinh(self) -> np.ndarray:
        return np.sinh(self.scan_radii)

    @cached_property
    def _areas(self) -> np.ndarray:
        # every facet's exact area (n <= 2), computed once for all facets
        return _exact_areas(self.spec, self.boundary)


def _radial_rows(spec: PolytopeSpec, thetas: np.ndarray) -> np.ndarray:
    """Radial function of the body on the given unit rows."""
    per_ball = radial_matrix(spec.directions, spec.x, thetas)
    return np.min(per_ball, axis=1)


def _radial_single(spec: PolytopeSpec, theta: np.ndarray) -> float:
    return float(_radial_rows(spec, theta[None, :])[0])


# ---------------------------------------------------------------------------
# flat charts: the disks that horoballs cut from each horosphere
# ---------------------------------------------------------------------------

def _chart_basis(theta: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space at theta (rows), for one
    unit vector or for each row of a stack of them."""
    _, _, vt = np.linalg.svd(theta[..., None, :])
    return vt[..., 1:, :]


def _chart_frames(dirs: np.ndarray) -> np.ndarray:
    """T_i for every row e_i: an orthonormal frame of e_i^perp, (m, n, n + 1)."""
    if dirs.shape[1] == 2:
        # e_i turned by -pi/2, so that planar arcs run counterclockwise about O
        return (dirs[:, ::-1] * np.array([1.0, -1.0]))[:, None, :]
    return _chart_basis(dirs)


def _shadows(spec: PolytopeSpec, rows: np.ndarray, frames: np.ndarray):
    """The disks that the horoballs cut from the horospheres in `rows`.

    Horosphere i has the flat, isometric chart

        X_i(s) = P_i + (T_i^T s, 0) + |s|^2 / (2 E_i) (e_i, 1),  s in R^n,

    with E_i = e^{x_i}, P_i = (-sinh(x_i) e_i, cosh x_i) its point nearest O
    and T_i = frames[i]. Along it -<X_i(s), (e_k, 1)> <= E_k says that
    horoball k holds the disk |s - c_ik| <= w_ik, where

        c_ik = 2 E_i T_i e_k / |e_i - e_k|^2,
        w_ik^2 = 4 E_i E_k / |e_i - e_k|^2 - 1.

    w_ik^2 is formed as (4 expm1(x_i + x_k) + |e_i + e_k|^2) / |e_i - e_k|^2,
    a sum of nonnegative terms, so a disk keeps its digits when both
    horoballs barely hold O. The power of the chart origin s = 0 with
    respect to the disk, |c_ik|^2 - w_ik^2, is small where c_ik and w_ik
    are large and nearly equal (a small body), so it is formed without
    that difference, from |T_i e_k|^2 = |e_i - e_k|^2 |e_i + e_k|^2 / 4:

        |c_ik|^2 - w_ik^2 = (|e_i + e_k|^2 expm1(2 x_i)
                             - 4 expm1(x_i + x_k)) / |e_i - e_k|^2.

    Returns c (r, m, n), w^2 (r, m), the power (r, m) and `same` (r, m).
    `same` marks the horoballs about the ideal point of horosphere i
    (including i itself); their entries are not finite, and each holds all
    of horosphere i or none of it (see _eclipsed).
    """
    x, coords = spec.x, np.ascontiguousarray(spec.directions.T)
    # e_k - e_i and e_k + e_i, coordinate first: numpy's inner loops then
    # run over k, not over the n + 1 coordinates
    mine = coords[:, rows, None]
    gap, side = coords[:, None, :] - mine, coords[:, None, :] + mine
    # |e_i - e_k|^2 = 2 (1 - e_i . e_k), free of cancellation, and
    # |e_i + e_k|^2 = 4 - |e_i - e_k|^2, formed directly for the same reason
    chord_sq = np.einsum("cik,cik->ik", gap, gap)
    side_sq = np.einsum("cik,cik->ik", side, side)
    # T_i e_k = T_i (e_k - e_i), which keeps its digits as e_k nears e_i
    toward = np.einsum("iac,cik->ika", frames, gap)
    # the pair arrays are the largest here (m x m x (n + 1)); let them go
    # before the m x m results are formed
    del gap, side
    with np.errstate(divide="ignore", invalid="ignore"):
        center = 2.0 * np.exp(x[rows, None, None]) * toward / chord_sq[..., None]
        lift = 4.0 * np.expm1(x[rows, None] + x)
        width_sq = lift + side_sq
        width_sq /= chord_sq
        power = side_sq * np.expm1(2.0 * x[rows, None])
        power -= lift
        power /= chord_sq
    return center, width_sq, power, chord_sq <= 1e-24


def _eclipsed(spec: PolytopeSpec, rows: np.ndarray, same: np.ndarray) -> np.ndarray:
    """Rows whose horosphere lies outside a horoball about the same ideal
    point; of two equal horoballs the first listed keeps the facet."""
    i, k = np.nonzero(same)
    x, j = spec.x, rows[i]
    out = np.zeros(rows.size, dtype=bool)
    out[i[(x[k] < x[j]) | ((x[k] == x[j]) & (k < j))]] = True
    return out


def _chart_points(spec: PolytopeSpec, j: np.ndarray, s: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Hyperboloid coordinates of X_j(s), row by row: s is (k, n) and
    frames holds T_j for each row (see _shadows)."""
    x = spec.x[j]
    lift = (s * s).sum(axis=1) / (2.0 * np.exp(x))
    out = np.empty((j.size, spec.n + 2))
    out[:, :-1] = (lift - np.sinh(x))[:, None] * spec.directions[j] + (s[:, None, :] @ frames)[:, 0]
    out[:, -1] = np.cosh(x) + lift
    return out


def _chart_quadratic(spec: PolytopeSpec, rows: np.ndarray, frames: np.ndarray, v: np.ndarray):
    """-<X_i(s), q> = alpha + beta . s + gamma |s|^2 on horosphere i.

    For each i in rows (frames holds their T_i) and q = (v, 1) for each
    row of v, expanding the chart of _shadows gives

        alpha = sinh(x_i) (e_i . v) + cosh(x_i),
        beta = -T_i v,
        gamma = (1 - e_i . v) / (2 E_i),

    and gamma >= 0 since |v| <= 1. For a unit v, q is the ideal point v and
    -<X, q> is exp of the Busemann function f_v; v = 0 is O, and for
    |v| < 1, q is a point of H^{n+1} scaled by 1 / cosh of its distance to
    O, so -<X, q> is cosh of the distance to it, scaled by the same
    factor. Returns alpha (r, Q), beta (r, Q, n) and gamma (r, Q).
    """
    x = spec.x[rows][:, None]
    cos = spec.directions[rows] @ v.T
    alpha = np.sinh(x) * cos + np.cosh(x)
    beta = -np.einsum("aij,qj->aqi", frames, v)
    gamma = (1.0 - cos) / (2.0 * np.exp(x))
    return alpha, beta, gamma


# ---------------------------------------------------------------------------
# planar bodies: the boundary arcs and what reads off them
# ---------------------------------------------------------------------------

def _planar_boundary(spec: PolytopeSpec) -> _PlanarBoundary:
    """Arcs of every horocycle that lie in all the other horoballs: the
    intersection of the intervals from _shadows, all pairs at once.

    Interval k on horocycle j is [c - w, c + w]. On a small body c and w
    are both of size cot(angle / 2) while the arc is of the body's size.
    The end farther from 0, c + sign(c) w, adds two terms of one sign; the
    nearer one is taken as (c^2 - w^2) / (c + sign(c) w), with the power
    c^2 - w^2 from _shadows, so that both ends keep their relative digits.
    """
    rows = np.arange(spec.count)
    frames = _chart_frames(spec.directions)
    center, width_sq, power, same = _shadows(spec, rows, frames)
    center = center[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        width = np.sqrt(np.maximum(width_sq, 0.0))
        below = np.signbit(center)
        far = center + np.copysign(width, center)
        near = power / far
        lo = np.max(np.where(same, -np.inf, np.where(below, far, near)), axis=1)
        hi = np.min(np.where(same, np.inf, np.where(below, near, far)), axis=1)
    missed = np.any(~same & (width_sq < 0.0), axis=1)
    active = ~(_eclipsed(spec, rows, same) | missed) & (
        hi - lo > _ARC_TOL * (1.0 + np.abs(lo) + np.abs(hi))
    )
    active.setflags(write=False)
    j = np.flatnonzero(active)
    starts = _chart_points(spec, j, lo[j][:, None], frames[j])
    return _PlanarBoundary(lo=lo, hi=hi, active=active, starts=starts, frames=frames)


def _vertex_values(starts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """-<X, (v, 1)> at every point X (rows of starts, hyperboloid
    coordinates; columns of the result) for each row v, in any dimension.

    For a unit v its log is the Busemann value f_v(X). Along a horocycle
    it is a convex quadratic in s (_chart_quadratic), so its largest value
    over a planar arc sits at one of the arc's ends.
    """
    return starts[None, :, -1] - v @ starts[:, :-1].T


def _volume_closed_plane(spec: PolytopeSpec, arcs: _PlanarBoundary) -> float:
    """Exact area of a planar body: the sum of its arcs' sector areas.

    The sector O, X_j(lo), X_j(hi) has area the integral of (cosh r - 1)
    dphi, which along the horocycle (E = e^x) is the integral over [lo, hi]
    of the positive (sinh x + s^2 / (2 E)) / (cosh x + 1 + s^2 / (2 E)) ds.
    Its antiderivative is s - 2 atan(k s) / k with k = 1 / (1 + E), so the
    sector is

        tanh(x / 2) (hi - lo) + 2 (u - atan2(u, w)),
        u = k (hi - lo),  w = 1 + k^2 lo hi,

    two nonnegative terms. Where z = u / w < 1/2 (w > 1/2), the second is
    taken as u - atan z = z (w - 1) + (z - atan z), with w - 1 = k^2 lo hi
    formed directly and z - atan z summed as a series; elsewhere
    u - atan2(u, w) has no small difference. So a small body keeps its
    relative accuracy, where a sum of angles of size pi leaves an absolute
    error of about 1e-15.
    """
    j = np.flatnonzero(arcs.active)
    x, lo, hi = spec.x[j], arcs.lo[j], arcs.hi[j]
    k = 1.0 / (1.0 + np.exp(x))
    a, b = k * lo, k * hi
    u, w_less = b - a, a * b
    w = 1.0 + w_less
    # w <= 1/2 needs a b <= -1/2, hence u >= sqrt 2, so there z >= 1/2 too
    z = u / np.maximum(w, 0.5)
    q = z * z
    small = z * (w_less + q * (np.power.outer(q, _ATAN_POWERS) @ _ATAN_SERIES))
    rest = np.where(z < 0.5, small, u - np.arctan2(u, w))
    return float(np.sum(np.tanh(0.5 * x) * (hi - lo) + 2.0 * rest))


def _angles_where(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Every angle phi with p cos(phi) + q sin(phi) + r = 0, over all rows."""
    rho = np.hypot(p, q)
    keep = (rho > 0.0) & (np.abs(r) <= rho)
    base = np.arctan2(q[keep], p[keep])
    spread = np.arccos(-r[keep] / rho[keep])
    return np.concatenate([base - spread, base + spread])


def _planar_hausdorff(k_body: HConvexPolytope, l_body: HConvexPolytope) -> float:
    """Largest support gap between two planar bodies.

    For e = (cos phi, sin phi), exp f_e at vertex X_v is A_v(phi) =
    t_v - x_v cos phi - y_v sin phi, and u(K, e) = log max_v A_v. Between
    breakpoints of the two upper envelopes the gap is log(A_v / A_w) for
    one vertex of each body. The breakpoints (A_v = A_v') and the
    stationary points of those pieces (det(X_v, X_w, (cos phi, sin phi, 1))
    = 0) all solve an equation linear in (cos phi, sin phi), so the largest
    gap over those angles is the distance.
    """
    # the candidate angles, hence the rounding, must not depend on argument order
    if l_body.boundary.starts.tobytes() < k_body.boundary.starts.tobytes():
        k_body, l_body = l_body, k_body
    a, b = k_body.boundary.starts, l_body.boundary.starts
    parts = []
    for rows in (a, b):
        i, j = np.triu_indices(rows.shape[0], 1)
        step = rows[i] - rows[j]
        parts.append(_angles_where(step[:, 0], step[:, 1], -step[:, 2]))
    cross = np.cross(a[:, None, :], b[None, :, :]).reshape(-1, 3)
    parts.append(_angles_where(cross[:, 0], cross[:, 1], cross[:, 2]))
    phi = np.concatenate(parts)
    dirs = np.column_stack([np.cos(phi), np.sin(phi)])
    gap = np.abs(_support_grid(k_body, dirs) - _support_grid(l_body, dirs))
    return float(np.max(gap, initial=0.0))


# ---------------------------------------------------------------------------
# n = 2 bodies: the arcs around each facet and what reads off them
# ---------------------------------------------------------------------------

def _arc_turns(lo: np.ndarray, hi: np.ndarray, g: np.ndarray):
    """Angles t where g . u(t), u(t) = (cos t, sin t), can peak on the arcs
    [lo, hi] (broadcast against g's leading axes): both ends, and the angle
    of g when it lies on the arc (else lo once more)."""
    peak = np.arctan2(g[..., 1], g[..., 0])
    return lo, hi, np.where(np.mod(peak - lo, 2.0 * math.pi) <= hi - lo, peak, lo)


def _on_circle(c: np.ndarray, w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The points c + w u(t), broadcast."""
    return c + w[..., None] * np.stack(np.broadcast_arrays(np.cos(t), np.sin(t)), axis=-1)


def _disk_intersection(c: np.ndarray, w: np.ndarray):
    """Arcs (circle, lo, hi) bounding the common part of the disks
    |s - c_a| <= w_a, counterclockwise; empty when that is at most a point.

    On circle a, every disk b that crosses it keeps the angles within
    atan2(h, d) of the direction of c_b - c_a, where h is half the common
    chord and d its distance from c_a; written with Heron's formula for
    the triangle of sides w_a, w_b and |c_b - c_a|, that angle keeps its
    digits when one circle is far larger than the other, where an arccos of
    the law of cosines would not. A coverage sweep over the sorted interval
    ends keeps the pieces that lie in all of them. Two disks whose overlap,
    or whose gap between one nested in the other, is below _ARC_TOL of
    their radii count as touching, decided once per pair; pieces shorter
    than _ARC_TOL (relative to 2 pi) are roundoff at a vertex where three
    or more circles meet.
    """
    tau = 2.0 * math.pi
    step = c[None, :, :] - c[:, None, :]
    dist = np.hypot(step[..., 0], step[..., 1])
    wa, wb = w[:, None], w[None, :]
    slack = _ARC_TOL * (wa + wb)
    overlap = wa + wb - dist
    if np.any(overlap <= slack):
        return np.empty(0, dtype=int), np.empty(0), np.empty(0)
    # a disk that holds another bounds nothing there; the other lies outside
    # it (of two equal disks, the first listed bounds)
    cuts = dist - np.abs(wa - wb) > slack
    index = np.arange(w.size)
    larger = (wa > wb) | ((wa == wb) & (index[None, :] < index[:, None]))
    heron = overlap * (dist + wb - wa) * (dist + wa - wb) * (dist + wa + wb)
    spread = np.arctan2(np.sqrt(np.maximum(heron, 0.0)), wa * wa - wb * wb + dist * dist)
    start = np.mod(np.arctan2(step[..., 1], step[..., 0]) - spread, tau)
    end = start + 2.0 * spread
    wraps = np.count_nonzero(cuts & (end > tau), axis=1)[:, None]
    ends = np.concatenate([start, np.where(end > tau, end - tau, end)], axis=1)
    ends = np.where(np.concatenate([cuts, cuts], axis=1), ends, tau)
    order = np.argsort(ends, axis=1, kind="stable")
    flips = np.take_along_axis(np.concatenate([cuts, -1 * cuts], axis=1), order, axis=1)
    bounds = np.concatenate(
        [np.zeros(wraps.shape), np.take_along_axis(ends, order, axis=1), np.full(wraps.shape, tau)],
        axis=1,
    )
    # cover[a, j]: how many of the intervals hold the piece bounds[a, j : j + 2]
    cover = np.concatenate([wraps, wraps + np.cumsum(flips, axis=1)], axis=1)
    lo, hi = bounds[:, :-1].copy(), bounds[:, 1:]
    keep = (
        (cover == np.count_nonzero(cuts, axis=1)[:, None])
        & ~np.any(~cuts & larger, axis=1)[:, None]
        & (hi - lo > _ARC_TOL * tau)
    )
    # a piece that ends at 2 pi goes on into the one that starts at 0
    closing = keep[:, 1:] & (hi[:, 1:] == tau)
    joined = np.flatnonzero(keep[:, 0] & np.any(closing, axis=1))
    last = 1 + np.argmax(closing[joined], axis=1)
    lo[joined, 0] = lo[joined, last] - tau
    keep[joined, last] = False
    a, j = np.nonzero(keep)
    return a, lo[a, j], hi[a, j]


def _facet_arcs(spec: PolytopeSpec) -> _FacetArcs:
    """The arcs that bound every facet of an n = 2 body.

    Facet i is the common part of the disks that the other horoballs cut
    from horosphere i (_shadows). Most of those disks hold the whole facet,
    so the arcs come from the _SWEEP_START disks that hold the middle of
    their bounding boxes' overlap most tightly; every disk that does not
    hold the common part of those (to within _ARC_TOL, checked on its arcs)
    joins them, until none is left. A facet is nonempty exactly when it
    keeps an arc.
    """
    rows = np.arange(spec.count)
    frames = _chart_frames(spec.directions)
    center, width_sq, _, same = _shadows(spec, rows, frames)
    empty = _eclipsed(spec, rows, same) | np.any(~same & (width_sq <= 0.0), axis=1)
    # (facet, center, width, lo, hi) per facet, after one empty entry
    parts = [(np.empty(0, dtype=int), np.empty((0, 2)), np.empty(0), np.empty(0), np.empty(0))]
    for i in np.flatnonzero(~empty):
        c, w = center[i, ~same[i]], np.sqrt(width_sq[i, ~same[i]])
        low, high = np.max(c - w[:, None], axis=0), np.min(c + w[:, None], axis=0)
        if np.any(low >= high):
            continue
        clearance = w - np.hypot(*(0.5 * (low + high) - c).T)
        chosen = np.sort(np.argsort(clearance, kind="stable")[:_SWEEP_START])
        while True:
            a, lo, hi = _disk_intersection(c[chosen], w[chosen])
            a = chosen[a]
            if a.size == 0 or chosen.size == w.size:
                break
            # |s - c_k|^2 is largest at an end of an arc or at its point
            # farthest from c_k
            ends = _arc_turns(lo[:, None], hi[:, None], c[a][:, None, :] - c[None, :, :])
            reach = np.max(
                [np.sum((_on_circle(c[a][:, None, :], w[a][:, None], t) - c) ** 2, axis=2) for t in ends],
                axis=(0, 1),
            )
            missing = np.setdiff1d(np.flatnonzero(reach > (w * (1.0 + _ARC_TOL)) ** 2), chosen)
            if missing.size == 0:
                break
            chosen = np.union1d(chosen, missing)
        parts.append((np.full(a.size, i), c[a], w[a], lo, hi))
    facet, arc_center, width, lo, hi = (np.concatenate(column) for column in zip(*parts))
    active = np.zeros(spec.count, dtype=bool)
    active[facet] = True
    active.setflags(write=False)
    return _FacetArcs(
        facet=facet, center=arc_center, width=width, lo=lo, hi=hi, active=active, frames=frames
    )


def _arc_values(spec: PolytopeSpec, arcs: _FacetArcs, v: np.ndarray, sign: float):
    """Where -<X, (v, 1)> peaks (sign 1) or bottoms out (sign -1) along
    each arc, for each row v, and its values there.

    The quadratic of _chart_quadratic is convex, so it peaks on the
    boundary of a facet; along an arc s = c + w u(t) it is affine in u(t),
    so it peaks at an end of the arc or at u = g / |g|,
    g = beta + 2 gamma c, and bottoms out at an end or at u = -g / |g|,
    when that angle lies on the arc (_arc_turns). The quadratic is
    evaluated at those points, not expanded about c, which may lie far
    from the facet. Returns the chart points (3, arcs, Q, 2) and the values
    (3, arcs, Q).
    """
    alpha, beta, gamma = _chart_quadratic(spec, arcs.facet, arcs.frames[arcs.facet], v)
    c, w = arcs.center[:, None, :], arcs.width[:, None]
    turns = _arc_turns(arcs.lo[:, None], arcs.hi[:, None], sign * (beta + 2.0 * gamma[..., None] * c))
    points = np.stack([_on_circle(c, w, t) for t in np.broadcast_arrays(*turns)])
    return points, alpha + np.sum((beta + gamma[..., None] * points) * points, axis=-1)


def _arc_candidates(spec: PolytopeSpec, arcs: _FacetArcs, v: np.ndarray, sign: float) -> np.ndarray:
    """Hyperboloid coordinates of the points of _arc_values for one row v."""
    rows = np.tile(arcs.facet, 3)
    s = _arc_values(spec, arcs, v, sign)[0].reshape(-1, 2)
    return _chart_points(spec, rows, s, arcs.frames[rows])


def _arc_areas(arcs: _FacetArcs, count: int) -> np.ndarray:
    """Facet areas by Green's theorem, half the integral of s x ds around
    each facet: per arc, the circular segment between the arc and its chord,
    w^2 (dt - sin dt) / 2, plus the shoelace term of the chord, A x B / 2.
    Unlike the sector form w (w dt + c x du) / 2 this keeps its digits when
    a circle is much larger than the facet."""
    w, span = arcs.width, arcs.hi - arcs.lo
    (ax, ay), (bx, by) = (
        (arcs.center + w[:, None] * np.column_stack([np.cos(t), np.sin(t)])).T for t in (arcs.lo, arcs.hi)
    )
    halves = 0.5 * (w * w * (span - np.sin(span)) + ax * by - ay * bx)
    return np.bincount(arcs.facet, weights=halves, minlength=count)


def _cone_kernel(x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Psi(rho) / rho^2 on a horosphere of scale x, for delta = rho^2 / (2 e^x).

    The field Y = (I_2(r) / sinh(r)^2) d/dr has div Y = 1, and on facet i
    <d/dr, nu> = (cosh r - e^{-x_i}) / sinh r. So the volume is the sum over
    facets of the integral of F(r) = I_2(r) (cosh r - e^{-x_i}) / sinh(r)^3,
    with cosh r = cosh x_i + delta a function of rho = |s| alone; in polar
    coordinates about s = 0 that is the boundary integral of Psi(rho) dphi,
    Psi(rho) = E_i (G(r) - G(x_i)) and G(t) = (cosh t + t (1 - e^{-x_i}
    cosh t) / sinh t) / 2. Here Psi / rho^2 = (G(r) - G(x)) / (2 delta), the
    mean of F / 2 over cosh r in [cosh x, cosh x + delta]; since
    1 - e^{-x} cosh r = e^{-x} (sinh x - delta), G(r) - G(x) =
    (delta + e^{-x} (r (sinh x - delta) / sinh r - x)) / 2. The closed form
    loses about log10(1 / delta) digits to cancellation, so below
    delta = 1e-2 a 4-node Gauss-Legendre mean of F takes over (F is analytic
    in cosh r away from -1, so on so short an interval that is exact to
    roundoff).

    On a small body x and delta are both small and cosh r rounds to 1, so
    every quantity is formed from cosh r - 1 = 2 sinh(x / 2)^2 + delta
    instead (_cone_radius), cosh r - e^{-x} as (cosh r - 1) - expm1(-x),
    and sinh r cosh r - r below r = 1/2 as a series.
    """
    a = np.exp(-x)
    bend = 2.0 * np.sinh(0.5 * x) ** 2
    r, sh = _cone_radius(bend + delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = (delta + a * (r * (np.sinh(x) - delta) / sh - x)) / (4.0 * delta)
    nodes, weights = _KERNEL_NODES
    lift = bend[..., None] + 0.5 * delta[..., None] * (1.0 + nodes)
    r, sh = _cone_radius(lift)
    # sinh r cosh r - r = (sinh 2r - 2r) / 2 = 4 r^3 sum_k (4 r^2)^k / (2k + 3)!
    series = 4.0 * r**3 * np.polyval(_SINH_SERIES, 4.0 * r * r)
    excess = np.where(r < 0.5, series, sh * (1.0 + lift) - r)
    density = excess * (lift - np.expm1(-x)[..., None]) / (2.0 * sh**3)
    return np.where(delta < 1e-2, 0.25 * np.sum(weights * density, axis=-1), closed)


def _cone_radius(lift: np.ndarray):
    """(r, sinh r) from lift = cosh r - 1 >= 0: r = 2 asinh(sqrt(lift / 2))
    and sinh r = sqrt(lift (lift + 2)) keep their relative digits for small
    r, where arccosh(1 + lift) would not."""
    return 2.0 * np.arcsinh(np.sqrt(0.5 * lift)), np.sqrt(lift) * np.sqrt(lift + 2.0)


def _arc_volume(spec: PolytopeSpec, arcs: _FacetArcs) -> float:
    """Exact n = 2 volume: the sum over arcs of the integral of Psi_i dphi.

    Along s = c + w u(t), rho^2 dphi = s x ds = w (w + c . u(t)) dt, so each
    arc adds the integral of _cone_kernel * w (w + c . u(t)) dt, which is
    analytic in t; 16-node Gauss-Legendre reaches roundoff.
    """
    nodes, weights = _ARC_NODES
    half = 0.5 * (arcs.hi - arcs.lo)[:, None]
    t = 0.5 * (arcs.hi + arcs.lo)[:, None] + half * nodes
    ux, uy = np.cos(t), np.sin(t)
    cx, cy = arcs.center[:, :1], arcs.center[:, 1:]
    w = arcs.width[:, None]
    x = spec.x[arcs.facet][:, None]
    rho_sq = (cx + w * ux) ** 2 + (cy + w * uy) ** 2
    kernel = _cone_kernel(np.broadcast_to(x, rho_sq.shape), rho_sq / (2.0 * np.exp(x)))
    return float(np.sum(half * weights * kernel * w * (w + cx * ux + cy * uy)))


def _exact_boundary(spec: PolytopeSpec) -> _PlanarBoundary | _FacetArcs | None:
    """The boundary arcs of an n <= 2 body; None for n >= 3."""
    if spec.n == 1:
        return _planar_boundary(spec)
    return _facet_arcs(spec) if spec.n == 2 else None


def _exact_support(spec: PolytopeSpec, arcs, dirs: np.ndarray) -> np.ndarray:
    """Support numbers for each row of dirs: the log of the largest
    -<X, (e, 1)>, over the vertices for n = 1 and per arc for n = 2."""
    if spec.n == 1:
        return np.log(np.max(_vertex_values(arcs.starts, dirs), axis=1))
    return np.log(np.max(_arc_values(spec, arcs, dirs, 1.0)[1], axis=0)).max(axis=0)


def _exact_nearest(spec: PolytopeSpec, arcs, q: np.ndarray) -> np.ndarray:
    """Boundary point nearest to the outside point q (hyperboloid coordinates).

    cosh d(X_i(s), q) = -<X_i(s), q> is q_0 times the convex quadratic of
    _chart_quadratic for v = q' / q_0 (gamma > 0), smallest at
    s* = -beta / (2 gamma). For n = 1 s* is clipped to each arc. For n = 2
    the facet's smallest value is at s* when s* lies in all of the facet's
    disks, and otherwise on one of its arcs, at an end or at the angle of
    -g (_arc_values); all these candidates are compared.
    """
    rows = np.flatnonzero(arcs.active)
    frames = arcs.frames[rows]
    v = q[None, :-1] / q[-1]
    _, beta, gamma = _chart_quadratic(spec, rows, frames, v)
    s = -beta[:, 0] / (2.0 * gamma)
    if spec.n == 1:
        points = _chart_points(spec, rows, np.clip(s, arcs.lo[rows, None], arcs.hi[rows, None]), frames)
    else:
        center, width_sq, _, same = _shadows(spec, rows, frames)
        inside = np.all(same | (np.sum((s[:, None, :] - center) ** 2, axis=2) <= width_sq), axis=1)
        points = np.vstack(
            [_chart_points(spec, rows[inside], s[inside], frames[inside]), _arc_candidates(spec, arcs, v, -1.0)]
        )
    return points[int(np.argmin(-minkowski_dot(points, q[None, :])))]


def _exact_volume(spec: PolytopeSpec, arcs) -> float:
    if spec.n == 1:
        return _volume_closed_plane(spec, arcs)
    return _arc_volume(spec, arcs)


def _exact_areas(spec: PolytopeSpec, arcs) -> np.ndarray:
    """Every facet's area, 0 for an empty facet: arc lengths for n = 1,
    Green's theorem over the facet's arcs for n = 2."""
    if spec.n == 1:
        out = np.zeros(spec.count)
        out[arcs.active] = arcs.hi[arcs.active] - arcs.lo[arcs.active]
        return out
    return _arc_areas(arcs, spec.count)


# ---------------------------------------------------------------------------
# building and support
# ---------------------------------------------------------------------------

def _refine_max_sphere(objective, theta0: np.ndarray, step: float) -> float:
    """Maximize a function of a unit vector in R^{n+1}, n >= 2, near theta0."""
    basis = _chart_basis(theta0)
    k = basis.shape[0]

    def neg(v):
        vec = theta0 + basis.T @ v
        return -objective(vec / np.linalg.norm(vec))

    simplex = np.zeros((k + 1, k))
    simplex[1:] = np.eye(k) * step
    res = _nm_minimize(
        neg,
        np.zeros(k),
        method="Nelder-Mead",
        options={
            "xatol": _REFINE_XATOL,
            "fatol": 1e-13,
            "initial_simplex": simplex,
            "maxiter": 600,
        },
    )
    return max(objective(theta0), -float(res.fun))


def _scan_spacing(scan: SphereQuadrature) -> float:
    # mean angular spacing estimate for scattered node sets on S^n
    return (float(np.sum(scan.weights)) / scan.count) ** (1.0 / scan.n)


def _support_objective(spec: PolytopeSpec, e_vec: np.ndarray):
    def value(theta: np.ndarray) -> float:
        rho = _radial_single(spec, theta)
        c = float(np.dot(theta, e_vec))
        return math.log(math.cosh(rho) - math.sinh(rho) * c)

    return value


def build_polytope(spec: PolytopeSpec, scan: SphereQuadrature | None = None) -> HConvexPolytope:
    """Intersect the spec's horoballs and precompute support data.

    For n <= 2 the body is described exactly by its boundary arcs (one per
    facet for n = 1, the arcs around every facet for n = 2), a horoball
    carries a facet exactly when it keeps an arc, and support numbers are
    maxima over the arcs; no radial function is evaluated and a passed scan
    is not used (the body keeps scan=None). For n >= 3 the scan (by default
    build_quadrature's rule) is the direction set for support and extremal
    maximizations and the volume rule, and a horoball carries a facet when
    its scale is within FACET_TOL of its Nelder-Mead refined support number.
    An even spec containing a zero-scale pair collapses to the single point
    O, which has no interior, and raises DegenerateBodyError.
    """
    if np.any(spec.x == 0.0):
        raise DegenerateBodyError("an even pair with scale 0 pins the body to the basepoint")
    if scan is not None and scan.n != spec.n:
        raise SpecError("scan quadrature dimension does not match the spec")
    arcs = _exact_boundary(spec)
    if arcs is not None:
        return _exact_body(spec, arcs)
    if scan is None:
        scan = build_quadrature(spec.n)
    radii = _radial_rows(spec, scan.nodes)
    if not np.all(np.isfinite(radii)):
        raise SpecError("body is unbounded along a scanned direction")
    # Coarse support values for all listed directions in one pass.
    a, b = np.cosh(radii), np.sinh(radii)
    cos = scan.nodes @ spec.directions.T
    coarse = np.log(a[:, None] - b[:, None] * cos)
    best = np.argmax(coarse, axis=0)
    spacing = _scan_spacing(scan)
    support_vals = np.empty(spec.count)
    for i in range(spec.count):
        refined = _refine_max_sphere(
            _support_objective(spec, spec.directions[i]),
            scan.nodes[best[i]],
            spacing,
        )
        # Support of a listed direction never exceeds its own scale.
        support_vals[i] = min(refined, float(spec.x[i]))
    return HConvexPolytope(
        spec=spec,
        canonical_support=support_vals,
        facet_nonempty=(spec.x - support_vals) <= FACET_TOL,
        scan=scan,
        scan_radii=radii,
    )


def _exact_body(spec: PolytopeSpec, arcs) -> HConvexPolytope:
    """The n <= 2 body of a spec with positive scales, from its boundary
    arcs (_exact_boundary(spec)): a horoball carries a facet exactly when
    it keeps an arc, and support numbers are maxima over the arcs. A body
    that keeps no arc at all is below the resolution of _ARC_TOL and raises
    DegenerateBodyError."""
    if not np.any(arcs.active):
        raise DegenerateBodyError(
            f"every boundary arc is shorter than the arc tolerance {_ARC_TOL:g}: "
            "the body is too small to resolve"
        )
    top = _exact_support(spec, arcs, spec.directions)
    # a facet lies on its own horosphere, so that horoball touches the body
    support_vals = np.where(arcs.active, spec.x, np.minimum(top, spec.x))
    return HConvexPolytope(
        spec=spec,
        canonical_support=support_vals,
        facet_nonempty=arcs.active,
        scan=None,
        scan_radii=None,
        boundary=arcs,
    )


def radial(poly: HConvexPolytope, theta: Direction) -> float:
    """Distance from O to the boundary along theta."""
    if theta.n != poly.n:
        raise SpecError("direction dimension mismatch")
    return _radial_single(poly.spec, theta.vector)


def support(poly: HConvexPolytope, e: Direction) -> float:
    """Horospherical support number: the largest Busemann value over the body.

    Exact for n <= 2: the largest value over the vertices for n = 1, and
    over the arc ends and each arc's stationary point for n = 2. For n >= 3
    the best scan node is refined by Nelder-Mead.
    """
    if e.n != poly.n:
        raise SpecError("direction dimension mismatch")
    if poly.boundary is not None:
        return float(_exact_support(poly.spec, poly.boundary, e.vector[None, :])[0])
    cos = poly.scan.nodes @ e.vector
    vals = np.log(poly._scan_cosh - poly._scan_sinh * cos)
    g = int(np.argmax(vals))
    refined = _refine_max_sphere(
        _support_objective(poly.spec, e.vector), poly.scan.nodes[g], _scan_spacing(poly.scan)
    )
    return max(float(vals[g]), refined)


def _support_grid(poly: HConvexPolytope, dirs: np.ndarray) -> np.ndarray:
    """Support numbers for many directions: exact for n <= 2, scan maxima for
    n >= 3, 512 directions at a time to bound the arrays of one pass."""
    chunk = 512
    out = np.empty(dirs.shape[0])
    for lo in range(0, dirs.shape[0], chunk):
        rows = dirs[lo : lo + chunk]
        if poly.boundary is not None:
            out[lo : lo + chunk] = _exact_support(poly.spec, poly.boundary, rows)
        else:
            cos = poly.scan.nodes @ rows.T
            out[lo : lo + chunk] = np.max(
                np.log(poly._scan_cosh[:, None] - poly._scan_sinh[:, None] * cos), axis=0
            )
    return out


def extremal_radii(poly: HConvexPolytope) -> tuple[float, float]:
    """(R, r): the circumscribed and inscribed geodesic ball radii about O.

    r = min_i x_i in every dimension: the body's complement is the union
    of the horoballs' complements, and O lies at distance x_i from
    horosphere i. For n <= 2, cosh of the distance to O, -<X, O>, is a
    convex quadratic on each facet, so it peaks at a vertex for n = 1, and
    at an arc end or an arc's stationary point for n = 2 (_arc_candidates
    with v = 0); R is asinh of the largest spatial norm |X'| = sinh d(O, X)
    over those points, which keeps its digits for small bodies where an
    acosh of cosh d would not. For n >= 3, R is the largest scanned radius
    refined by Nelder-Mead.
    """
    spec, arcs = poly.spec, poly.boundary
    small = float(np.min(spec.x))
    if arcs is None:
        big = _refine_max_sphere(
            lambda theta: _radial_single(spec, theta),
            poly.scan.nodes[int(np.argmax(poly.scan_radii))],
            _scan_spacing(poly.scan),
        )
        return float(big), small
    points = arcs.starts if spec.n == 1 else _arc_candidates(spec, arcs, np.zeros((1, 3)), 1.0)
    return float(np.arcsinh(np.max(np.linalg.norm(points[:, :-1], axis=1)))), small


def volume(poly: HConvexPolytope) -> float:
    """Hyperbolic volume.

    Exact for n <= 2, read off the boundary arcs: a sum of per-arc sector
    areas for n = 1 (see _volume_closed_plane) and of per-arc divergence-theorem
    integrals for n = 2 (see _cone_kernel). For n >= 3 the radial
    sinh-power integral over the body's scan, the rule
    build_polytope(spec, scan=...) was given.
    """
    if poly.boundary is not None:
        return _exact_volume(poly.spec, poly.boundary)
    return poly.scan.integrate(sinh_power_integral(poly.n, poly.scan_radii))


def _volume_of_spec(spec: PolytopeSpec, rule: SphereQuadrature | None) -> float:
    """Volume of the spec's body without building it; the rule serves n >= 3 only."""
    arcs = _exact_boundary(spec)
    if arcs is not None:
        return _exact_volume(spec, arcs)
    radii = _radial_rows(spec, rule.nodes)
    if not np.all(np.isfinite(radii)):
        raise SpecError("body is unbounded along a scanned direction")
    return rule.integrate(sinh_power_integral(spec.n, radii))


# ---------------------------------------------------------------------------
# facets
# ---------------------------------------------------------------------------

def facet_area(poly: HConvexPolytope, i: int) -> float:
    """n-dimensional area of the facet carried by horoball i.

    Zero when the horoball does not support the body. Exact for n <= 2:
    the length of the horoball's boundary arc for n = 1, and Green's
    theorem over the arcs around the facet for n = 2. For n >= 3 the facet
    is the intersection of the disks the other horoballs cut from
    horosphere i in its flat chart (_shadows), whose area is estimated by
    Monte-Carlo over the smallest disk's bounding box: _MC_SAMPLES points
    from the seed 770001 + i, so every call repeats its estimate.
    """
    spec = poly.spec
    if not 0 <= i < spec.count:
        raise IndexError("facet index out of range")
    if not poly.facet_nonempty[i]:
        return 0.0
    if poly.boundary is not None:
        return float(poly._areas[i])
    row = np.array([i])
    center, width_sq, _, same = _shadows(spec, row, _chart_frames(spec.directions[row]))
    if _eclipsed(spec, row, same)[0] or np.any(~same & (width_sq <= 0.0)):
        return 0.0
    centers, radii = center[0, ~same[0]], np.sqrt(width_sq[0, ~same[0]])
    smallest = int(np.argmin(radii))
    box_center = centers[smallest]
    half = float(radii[smallest])
    rng = np.random.Generator(np.random.Philox(770001 + i))
    pts = rng.uniform(-half, half, size=(_MC_SAMPLES, spec.n)) + box_center[None, :]
    inside = np.ones(_MC_SAMPLES, dtype=bool)
    for c, r in zip(centers, radii):
        d = pts - c[None, :]
        inside &= np.einsum("ij,ij->i", d, d) <= r * r
    box_volume = (2.0 * half) ** spec.n
    return box_volume * float(np.count_nonzero(inside)) / _MC_SAMPLES


def facet_areas(poly: HConvexPolytope) -> np.ndarray:
    """facet_area for every listed horoball."""
    return np.array([facet_area(poly, i) for i in range(poly.spec.count)])


def facet_area_fd(poly: HConvexPolytope, i: int, delta: float = 1e-4) -> float:
    """Facet area as the central difference of the volume in the scale x_i.

    Independent of the facet-area formulas. For n <= 2 both volumes are
    exact arc sums, so the difference tracks the true derivative; for
    n >= 3 both sides integrate on the body's scan, so the node error
    largely cancels.
    """
    spec = poly.spec
    if not 0 <= i < spec.count:
        raise IndexError("facet index out of range")
    step = min(delta, float(spec.x[i]) / 2.0)
    up = np.array(spec.x)
    up[i] += step
    down = np.array(spec.x)
    down[i] -= step
    v_up = _volume_of_spec(spec.with_x(up, even=False), poly.scan)
    v_down = _volume_of_spec(spec.with_x(down, even=False), poly.scan)
    return (v_up - v_down) / (2.0 * step)


def surface_measure_p(poly: HConvexPolytope, p: float) -> DiscreteMeasure:
    """The p-weighted surface measure: atom e^{-p u_i} S_i at each facet direction."""
    spec = poly.spec
    dirs, weights = [], []
    for i in range(spec.count):
        area = facet_area(poly, i)
        if area <= 0.0:
            continue
        dirs.append(spec.directions[i])
        weights.append(math.exp(-p * float(poly.canonical_support[i])) * area)
    if not dirs:
        raise DegenerateBodyError("no supporting facets found")
    return DiscreteMeasure(
        n=spec.n,
        directions=np.array(dirs),
        weights=np.array(weights),
        even=bool(spec.even and len(dirs) == spec.count),
    )


# ---------------------------------------------------------------------------
# comparisons and constructions
# ---------------------------------------------------------------------------

def hausdorff_distance(k_body: HConvexPolytope, l_body: HConvexPolytope) -> float:
    """Uniform distance between horospherical support functions.

    Exact for n = 1: the largest gap over the finitely many angles where
    the gap can peak (see _planar_hausdorff). For n >= 2, coarse
    maximization of |u_K - u_L| over build_quadrature's 4096-node rule,
    then Nelder-Mead refinement with support evaluations that are exact
    for n = 2.
    """
    if k_body.n != l_body.n:
        raise SpecError("bodies live in different dimensions")
    if k_body.n == 1:
        return _planar_hausdorff(k_body, l_body)
    rule = build_quadrature(k_body.n, 4096)
    dirs = rule.nodes
    diff = np.abs(_support_grid(k_body, dirs) - _support_grid(l_body, dirs))
    g = int(np.argmax(diff))

    def gap(vec):
        e = Direction(vec / np.linalg.norm(vec))
        return abs(support(k_body, e) - support(l_body, e))

    refined = _refine_max_sphere(gap, dirs[g], _scan_spacing(rule))
    return max(float(diff[g]), refined)


def canonicalize(poly: HConvexPolytope) -> PolytopeSpec:
    """Spec with every scale replaced by its support number.

    The body is unchanged and every horoball of the new spec touches it,
    so rebuilding and canonicalizing again is a fixed point (for n >= 3 up
    to the support refinement tolerance). Even pairing is preserved exactly.
    """
    new_x = np.array(poly.canonical_support)
    if poly.spec.even:
        i, j = poly.spec._pairs.T
        new_x[i] = new_x[j] = np.minimum(new_x[i], new_x[j])
    return poly.spec.with_x(new_x)


def separate(poly: HConvexPolytope, point: HyperboloidPoint) -> Horoball:
    """Closed horoball containing the body but not the (strictly outside) point.

    Finds the boundary point nearest to the query, then returns the
    horoball tangent there to the geodesic sphere around the query,
    expressed in the original coordinates. For n <= 2 the nearest point is
    exact: the smallest cosh of the distance over the facets' interior
    minimizers, arc ends and arc stationary points (_exact_nearest). For
    n >= 3 it is the nearest scan point refined by Nelder-Mead.
    """
    spec = poly.spec
    if point.n != poly.n:
        raise SpecError("point dimension mismatch")
    if np.all(np.log(_vertex_values(point.coords[None, :], spec.directions)[:, 0]) <= spec.x):
        raise PointInsideError("the point is not strictly outside the body")
    if poly.boundary is not None:
        nearest = HyperboloidPoint(_exact_nearest(spec, poly.boundary, point.coords))
    else:
        nearest = _scan_nearest(poly, point)
    to_origin = boost_to_origin(point)
    moved = to_origin.apply(nearest)
    dist = float(safe_acosh(moved.coords[-1]))
    center = Direction.from_vector(moved.coords[:-1])
    return horoball_transform(Horoball(center, -dist), to_origin.inverse())


def _scan_nearest(poly: HConvexPolytope, point: HyperboloidPoint) -> HyperboloidPoint:
    spec = poly.spec
    boundary = np.empty((poly.scan.count, spec.n + 2))
    boundary[:, :-1] = poly._scan_sinh[:, None] * poly.scan.nodes
    boundary[:, -1] = poly._scan_cosh
    dots = -minkowski_dot(boundary, point.coords[None, :])
    dists = safe_acosh(dots)
    g = int(np.argmin(dists))

    best = {"d": float(dists[g]), "theta": poly.scan.nodes[g]}

    def neg_dist(theta):
        x = polar_point(_radial_single(spec, theta), Direction(theta))
        d = float(safe_acosh(-minkowski_dot(x.coords, point.coords)))
        if d < best["d"]:
            best["d"], best["theta"] = d, theta
        return -d

    _refine_max_sphere(neg_dist, poly.scan.nodes[g], _scan_spacing(poly.scan))

    theta_star = best["theta"] / np.linalg.norm(best["theta"])
    return polar_point(_radial_single(spec, theta_star), Direction(theta_star))


def outer_parallel_support(
    poly: HConvexPolytope,
    eps: float,
    dirs: SphereQuadrature | np.ndarray | None = None,
) -> PolytopeSpec:
    """Spec of the grid outer approximation of the eps-parallel body.

    Each grid direction contributes the horoball with scale u(K, e) + eps;
    the resulting body contains the true parallel body and matches its
    support numbers exactly at the grid directions. The default grid is
    the body's scan, or build_quadrature's default for n <= 2 bodies.
    """
    if eps <= 0.0:
        raise ValueError("needs eps > 0")
    if dirs is None:
        rows = (poly.scan if poly.scan is not None else build_quadrature(poly.n)).nodes
    elif isinstance(dirs, SphereQuadrature):
        rows = dirs.nodes
    else:
        rows = _direction_rows(dirs, poly.n)
    values = np.empty(rows.shape[0])
    for g in range(rows.shape[0]):
        values[g] = support(poly, Direction(rows[g])) + eps
    return PolytopeSpec(n=poly.n, directions=rows, x=values)


# ---------------------------------------------------------------------------
# tube bodies and the volume-based support bound
# ---------------------------------------------------------------------------

def t_body_volume(r: float, n: int) -> float:
    """Volume of the tube body T(r): the smallest h-convex set joining O to
    the point at distance r.

    In closed form for n <= 2: with sigma = sinh(r / 2) and h = tanh(r / 2),

        n = 1:  4 (sigma - atan sigma),
        n = 2:  pi ((2/3) sinh(r/2)^3 / cosh(r/2) - r + 2 h)
              = 2 pi h^5 sum_j h^(2j) (2j + 2) / (3 (2j + 5)).

    Where sigma or h is below 1/2 the sums of positive series are taken
    (for n = 1 that of _volume_closed_plane), since there the closed forms
    cancel to r^3 and r^5. For n >= 3, an adaptive 1-D integral in the
    half-space chart: kappa_n times the integral over y in [1, e^r] of
    width^n / y^(n + 1), width = sqrt(a y - y^2) - e^(r/2), a = e^r + 1.
    It is taken in u = log y, where dy / y^(n + 1) = du / y^n, with the
    width in the form (y - 1)(e^r - y) / (sqrt(y (a - y)) + e^(r/2)) and
    y - 1 = expm1(u), e^r - y = y expm1(r - u), a - y = 1 + y expm1(r - u),
    so that nothing cancels.
    """
    if r <= 0.0:
        raise ValueError("needs r > 0")
    if n < 1:
        raise ValueError("needs n >= 1")
    if n == 1:
        sigma = math.sinh(0.5 * r)
        if sigma < 0.5:
            q = sigma * sigma
            return 4.0 * sigma * q * float(np.power(q, _ATAN_POWERS) @ _ATAN_SERIES)
        return 4.0 * (sigma - math.atan(sigma))
    if n == 2:
        h = math.tanh(0.5 * r)
        if h < 0.5:
            q = h * h
            return 2.0 * math.pi * h * q * q * float(np.power(q, _ATAN_POWERS) @ _TUBE_SERIES)
        return math.pi * (2.0 / 3.0 * math.sinh(0.5 * r) ** 3 / math.cosh(0.5 * r) - r + 2.0 * h)
    half = math.exp(0.5 * r)

    def integrand(u: float) -> float:
        y, far = math.exp(u), math.expm1(r - u)
        return (math.expm1(u) * far / (math.sqrt(y * (1.0 + y * far)) + half)) ** n

    value, _ = _adaptive_quad(integrand, 0.0, r, epsabs=0.0, epsrel=1e-13, limit=200)
    return unit_ball_volume(n) * value


def t_body_volume_lower_bound(r: float, n: int) -> float:
    """Closed-form lower bound for t_body_volume with the same (r, n)."""
    if r <= 0.0:
        raise ValueError("needs r > 0")
    if n < 1:
        raise ValueError("needs n >= 1")
    a = (math.exp(r) + 1.0) / 2.0
    shrink = (math.exp(r / 2.0) - 1.0) / (math.exp(r / 2.0) + 1.0)
    series = math.log(a)
    for k in range(n):
        series += ((-1.0) ** (n - k)) * math.comb(n, k) / (n - k) * (1.0 - a ** (k - n))
    return unit_ball_volume(n) * shrink**n * series


def boundedness_bound(max_volume: float, n: int) -> float:
    """Smallest r (within 1e-6) with t_body_volume(r, n) > max_volume.

    Any body of volume at most max_volume has every support number below
    this bound: a support number of size r forces the body to contain a
    congruent copy of T(r).
    """
    if max_volume <= 0.0:
        raise ValueError("needs max_volume > 0")
    lo, hi = 0.0, 1.0
    while t_body_volume(hi, n) <= max_volume:
        lo = hi
        hi *= 2.0
        if hi > 256.0:
            raise ValueError("max_volume too large to bracket")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if t_body_volume(mid, n) > max_volume:
            hi = mid
        else:
            lo = mid
    return hi
