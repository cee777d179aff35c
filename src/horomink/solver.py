"""Projected-gradient solver for the even discrete horospherical Minkowski problem.

Given an even measure with atoms (e_i, a_i) and an exponent p, the solver
finds scales z for the horoballs at the measure's directions so that each
facet area matches lambda * a_i * e^{p z_i} for a common multiplier
lambda. The variational formulations differ by the sign of p:

* p >= 0: maximize volume subject to Phi_p(z) = 1;
* p < 0: minimize Phi_p subject to volume = V0.

Each accepted iterate is canonicalized (scales replaced by support
numbers, which never changes the body) and, in the Phi_p-constrained
mode, rescaled back onto the constraint, so the objective trace is
monotone. A trial point is projected onto its constraint along the ray
t z by safeguarded Newton, with exact slopes: d/dt Phi_p(t z) in closed
form, and d/dt V(t z) = sum of z_i S_i(t z) for n <= 2, where volume and
facet areas read off one boundary build. Each iteration's first trial
takes the two-point step of Barzilai and Borwein (IMA J. Numer. Anal.
1988) in its second form: with s the last accepted move in z and y the
change of the projected gradient d over it, it moves z by
(-s.y / |y|^2) d, a length clamped to [_MIN_STEP, _STEP]; where s.y >= 0
the previous length is kept. It costs no evaluation, and a refused trial
halves the length. A trial is accepted when it raises log V (p >= 0) or
log sum a_i e^{p z_i} (p < 0): both keep their digits at V0 where Phi_p
has rounded to its supremum. Convergence is certified by the relative
residual of the optimality system, never by iterate distance.

Each piece of work is done once. The measure is paired into antipodal
pairs once, and every trial spec inherits the pairing of one template.
Each trial is built once: in the Phi_p-constrained mode at its rescaled
scales, and in the volume-constrained mode as the body of the rescale's
last evaluation (one boundary per evaluation). That body is canonicalized,
and it is the body the trial is judged on unless canonicalizing lowered a
scale; only then is the trial built a second time, at the lowered scales
(rescaled back onto Phi_p = 1 in that mode).
The loop takes no finite difference: the gradient check reads the
returned body once (SolverResult.gradient_check_max_rel).
The tube-volume support bound (boundedness_bound) is no closed form: it
doubles r and then bisects to 1e-6 in r, on the closed-form tube volume.

The solver accepts n <= 2 only, where every area, volume, support number
and slope it reads is exact and the certificate is exact with them; for
n >= 3 facet areas are Monte-Carlo estimates whose noise would swamp the
residual, so solve_even refuses such measures.
No quadrature rule is built or read.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    HoromkError,
    MismatchedDirectionsError,
    SpecError,
    UnreachableTargetError,
)
from .polytope import (
    DiscreteMeasure,
    HConvexPolytope,
    PolytopeSpec,
    boundedness_bound,
    build_polytope,
    canonicalize,
    facet_area,
    facet_area_fd,
    volume,
    _body,
)
# Unused here; the benchmark's tracer wraps these names to count volume
# evaluations and quadrature rules built.
from .polytope import _volume_of_spec  # noqa: F401
from .quadrature import build_quadrature  # noqa: F401

logger = logging.getLogger(__name__)

_Z_FLOOR = 1e-9

# The line search: the longest (and the first iteration's) step length, the
# factor a refused trial shortens it by, and the shortest step tried before
# the search gives up.
_STEP = 0.25
_BACKTRACK = 0.5
_MIN_STEP = 1e-12

# Why solve_even stopped (SolverResult.stop_reason).
STOP_REASONS = ("converged", "max_iters", "line_search", "zero_direction")


def phi_p(x, weights, p: float) -> float:
    """Constraint functional: sum of a_i (e^{p x_i} - 1) / p, or its p = 0 limit.

    Evaluated with expm1 so tiny |p| stays close to the linear limit
    sum(a_i x_i). For p < 0 the value is bounded above by sum(a_i) / |p|.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if x.shape != w.shape:
        raise SpecError("x and weights must align")
    if p == 0.0:
        return float(np.dot(w, x))
    return float(np.sum(w * np.expm1(p * x)) / p)


def rescale_to_constraint(x, weights, p: float, target: float) -> float:
    """Multiplier t > 0 with Phi_p(t x) = target, to absolute accuracy 1e-8.

    By safeguarded Newton from t = 1 (_newton_on_ray), with the exact slope
    d/dt Phi_p(t x) = sum of a_i x_i e^{p t x_i}, which is exact in one step
    for p = 0 and gives no step (and no warning) where it overflows. The
    volume constraint has its own projection, _volume_rescale.

    Raises UnreachableTargetError when the target cannot be bracketed
    within t in [1e-12, 1e9], e.g. when it reaches the functional's
    supremum sum(a_i) / |p| (possible only for p < 0), or when the bracket
    collapses (relative width 1e-15) with no value inside the tolerance.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise SpecError("rescaling needs strictly positive scales")
    if target <= 0.0:
        raise UnreachableTargetError("constraint target must be positive")
    w = np.asarray(weights, dtype=np.float64)
    if p < 0.0:
        supremum = float(np.sum(w)) / abs(p)
        if target >= supremum:
            raise UnreachableTargetError(
                f"target {target} is not below the p<0 supremum {supremum}"
            )

    def value(t: float) -> tuple[float, float, None]:
        with np.errstate(over="ignore"):
            return phi_p(t * x, w, p), float(np.sum(w * x * np.exp(p * t * x))), None

    return _newton_on_ray(value, target, 1e-8, 1e9)[0]


def _volume_rescale(x: np.ndarray, target: float, spec: PolytopeSpec):
    """(t, the body at t x) with V(P(t x)) = target.

    Solves to relative accuracy 1e-9 for positive x and target, with the
    body built from the directions of spec, an n <= 2 spec (solve_even
    refuses n >= 3 before it gets here). The slope is exact: d/dt V(t x) =
    sum of x_i S_i(t x) by the variational identity S_i = dV/dx_i, so every
    evaluation builds the boundary at t x once and reads volume and slope
    off the body it makes. The body of the last evaluation, where t was
    accepted, is returned so that the caller need not build it again.

    Raises UnreachableTargetError like rescale_to_constraint, and also
    keeps t max(x) <= 350, below which products of two horoball radii
    e^{t x_i} stay finite. A collapsed bracket here is typically a target
    below the roundoff of the volume formula.
    """

    # the solver's x = (z, z) pairs bit for bit, and so does t x: its pair
    # values are checked once, here
    paired = spec.with_x(x)

    def value(t: float):
        body = _body(paired._scaled(t))
        return volume(body), float(np.dot(x, body._areas)), body

    # tight, so that the solver's objective comparisons are not polluted by
    # rescaling noise; the disks of _shadows hold e^{t x_i} e^{t x_k}, which
    # overflows past t (x_i + x_k) = log(float max) ~ 709.8
    return _newton_on_ray(value, target, 1e-9 * target, min(1e9, 350.0 / float(np.max(x))))


def _newton_on_ray(value, target: float, tol: float, t_max: float):
    """Safeguarded Newton for F(t) = target along a ray, F increasing in t.

    value(t) returns (F(t), F'(t), what the evaluation built); the result
    is (t, that payload at t) for the first t with |F(t) - target| <= tol.
    From t = 1 each value narrows a bracket [lo, hi] by its sign. The
    Newton step for log F = log target in log t, t exp(log(target / F)
    F / (t F')), is taken when it lies strictly inside the bracket and
    [1e-12, t_max]; otherwise t doubles while there is no upper end, halves
    while there is no lower end, and bisects once both are known. Newton in
    log-log form is exact for a power law c t^k, the shape of V and Phi_p
    near t = 0; where F grows exponentially, plain Newton on F overshoots
    by orders of magnitude and then comes back one e-fold of F per step.
    """
    lo, hi, t = 0.0, math.inf, 1.0
    for _ in range(200):
        v, slope, built = value(t)
        if abs(v - target) <= tol:
            return t, built
        if v < target:
            lo = t
        else:
            hi = t
        if hi < math.inf and hi - lo <= 1e-15 * hi:
            break
        # an overflowed value or slope gives no Newton step; the bracket
        # steps below then take over
        if 0.0 < v < math.inf and 0.0 < slope < math.inf:
            # a step past e^50 leaves [1e-12, 1e9] anyway
            step = t * math.exp(min(math.log(target / v) * v / (t * slope), 50.0))
        else:
            step = math.nan
        if max(lo, 1e-12) < step < min(hi, t_max):
            t = step
        elif hi == math.inf:
            t = 2.0 * lo
            if t > t_max:
                raise UnreachableTargetError("failed to bracket the constraint target")
        elif lo == 0.0:
            t = 0.5 * hi
            if t < 1e-12:
                raise UnreachableTargetError("failed to bracket the constraint target")
        else:
            t = 0.5 * (lo + hi)
    raise UnreachableTargetError(
        f"no multiplier meets the constraint target {target!r}: the bracket "
        f"[{lo!r}, {hi!r}] closed with the value {v!r} there"
    )


def _lagrange_residual(areas, u, weights, p: float) -> tuple[float, float]:
    """(lambda, max_i |e^{-p u_i} S_i - lambda a_i| / (lambda a_i)), with
    lambda = (sum of the areas S_i) / (sum of a_i e^{p u_i}).

    Raises HoromkError naming p where e^{p u_i} or e^{-p u_i} leaves the
    float range, so that the denominator or a defect is 0 or not finite.
    """
    with np.errstate(all="ignore"):
        denominator = float(np.sum(weights * np.exp(p * u)))
        if 0.0 < denominator < math.inf:
            lam = float(np.sum(areas)) / denominator
            if lam <= 0.0:
                return 0.0, math.inf
            rel = np.abs(np.exp(-p * u) * areas - lam * weights) / (lam * weights)
            if np.all(np.isfinite(rel)):
                return lam, float(np.max(rel))
    raise HoromkError(f"p = {p!r} is too extreme: e^(p u) leaves the float range")


def residual(poly: HConvexPolytope, measure: DiscreteMeasure, p: float) -> tuple[float, float]:
    """Multiplier and worst relative defect of the optimality system.

    Matches measure atoms to the polytope's directions (within 1e-9; the
    atoms lie at least 4.5e-5 apart, so no two match one direction) and
    returns _lagrange_residual over the matched facets. Antipodal facets of
    an even body are congruent, so for an even spec only the measure's
    first atom of each antipodal pair is evaluated, exactly as solve_even
    does: the certificate then reproduces the solver's own number. For
    n <= 2, the dimensions solve_even accepts, the areas are exact and the
    two of a pair agree to roundoff; for n >= 3 they are Monte-Carlo
    estimates, and the residual has no more digits than they do. The
    polytope need not be even: certifying that a perturbed body is NOT
    optimal for an even measure is a supported use, and then every atom is
    evaluated.
    """
    if poly.spec.even:
        atoms, weights = measure.reduced_pairs()
    else:
        atoms, weights = measure.directions, measure.weights
    # gaps[k, j] = |e_j - a_k|: each atom's nearest facet direction, at once
    gaps = np.linalg.norm(poly.spec.directions[None, :, :] - atoms[:, None, :], axis=2)
    idx = np.argmin(gaps, axis=1)
    unmatched = np.min(gaps, axis=1) > 1e-9
    if np.any(unmatched):
        raise MismatchedDirectionsError(
            f"measure atom {int(np.argmax(unmatched))} has no matching facet direction"
        )
    areas = np.array([facet_area(poly, j) for j in idx.tolist()])
    return _lagrange_residual(areas, poly.canonical_support[idx], weights, p)


@dataclass
class SolverConfig:
    """What solve_even solves and when it stops.

    p, v0 (the volume target for p < 0), the stop test tol on the
    residual, and max_iters, the most accepted iterations.
    """

    p: float
    v0: float = 1.0
    tol: float = 1e-3
    max_iters: int = 200

    def __post_init__(self):
        if self.tol <= 0 or self.max_iters < 0:
            raise ValueError("invalid solver configuration")
        if self.p < 0 and self.v0 <= 0:
            raise ValueError("p < 0 runs need a positive target volume")


@dataclass
class SolverResult:
    """What solve_even returns. stop_reason says why the loop ended:
    "converged" (the residual reached tol), "max_iters", "line_search" (no
    step down to _MIN_STEP raised the score) or "zero_direction" (the
    projected gradient vanished); gradient_check_max_rel, on first read."""

    polytope: HConvexPolytope
    z: np.ndarray
    lam: float
    residual_max_rel: float
    objective_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    stop_reason: str = "max_iters"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @cached_property
    def gradient_check_max_rel(self) -> float:
        """Worst gap between the returned body's volume gradient 2 S_i and
        central differences of its volume, over the largest 2 S_i; warns
        above 1e-3. Norm-wise, since V has a kink where a facet closes, at
        a step of 1e-4 min(1, min z): 1e-4 closes facets at scales ~1e-2."""
        poly, m = self.polytope, self.z.size
        delta = 1e-4 * min(1.0, float(np.min(self.z)))
        direct = 2.0 * np.array([facet_area(poly, i) for i in range(m)])
        fd = np.array([facet_area_fd(poly, i, delta) + facet_area_fd(poly, m + i, delta) for i in range(m)])
        worst = float(np.max(np.abs(direct - fd)) / np.max(direct))
        if worst > 1e-3:
            logger.warning("direct and finite-difference gradients disagree: %.3g", worst)
        return worst


@dataclass(slots=True)
class _Iterate:
    """Built body plus the quantities the loop needs, evaluated once."""

    z: np.ndarray
    poly: HConvexPolytope
    areas: np.ndarray
    u: np.ndarray
    lam: float
    res: float
    objective: float
    score: float


def solve_even(measure: DiscreteMeasure, config: SolverConfig) -> SolverResult:
    """Scales solving the even p-Minkowski system for the given measure.

    Returns the best iterate with converged=False when the residual never
    reaches config.tol; callers decide how to treat that (the command line
    front end exits with a dedicated code). Raises SpecError for a measure
    on S^n with n >= 3, UnreachableTargetError for a V0 past the support
    bound's range, and HoromkError for a p whose e^(p u) leaves the float
    range.
    """
    if measure.n > 2:
        raise SpecError(f"solve_even needs n <= 2, got measure.n = {measure.n}")
    _, reduced_w = measure.reduced_pairs()
    m = reduced_w.size
    if m < 2:
        raise SpecError("need at least two direction pairs to optimize")
    n = measure.n
    p = config.p
    full_w = np.concatenate([reduced_w, reduced_w])
    spec_template = measure.spec(np.ones(m))
    try:
        z_cap = boundedness_bound(config.v0, n) if p < 0.0 else math.inf
    except ValueError:
        raise UnreachableTargetError(
            f"V0 = {config.v0!r} is too large: its support bound passes 256"
        ) from None
    maximizing = p >= 0.0

    def build(z: np.ndarray) -> HConvexPolytope:
        return build_polytope(spec_template.with_x(np.concatenate([z, z])))

    def phi_rescaled(z: np.ndarray) -> np.ndarray:
        return z * rescale_to_constraint(np.concatenate([z, z]), full_w, p, 1.0)

    def canonical(poly: HConvexPolytope) -> np.ndarray:
        return np.array(canonicalize(poly).x[:m])

    def project(z: np.ndarray) -> tuple[np.ndarray, HConvexPolytope | None]:
        """(projected scales, the body built at exactly those scales or None).

        The clipped trial is rescaled onto its constraint, built there once
        and canonicalized: its scales become the body's support numbers,
        which keeps the body. When that lowers no scale, the rescaled
        scales are the projection, already on the constraint, and come with
        the body just built. Otherwise the lowered scales come without a
        body, for evaluate to build; in the Phi_p mode they are rescaled
        once more first, since canonicalizing keeps the volume but lowers
        Phi_p.
        """
        z = np.clip(z, _Z_FLOOR, z_cap)
        if maximizing:
            z = phi_rescaled(z)
            poly = build(z)
        else:
            # the rescale's last evaluation built the body at t (z, z), which
            # is (z t, z t) bit for bit. It skips build_polytope's check for a
            # body with no arc and needs none: its volume is within 1e-9 of
            # V0 > 0
            t, poly = _volume_rescale(np.concatenate([z, z]), config.v0, spec_template)
            z = z * t
        lowered = canonical(poly)
        if np.array_equal(lowered, z):
            return z, poly
        return (phi_rescaled(lowered) if maximizing else lowered), None

    def evaluate(z: np.ndarray, poly: HConvexPolytope | None) -> _Iterate:
        """The iterate at z, judged on poly, the body at z from project;
        built here when project returned None."""
        if poly is None:
            poly = build(z)
        areas = np.array([facet_area(poly, i) for i in range(m)])
        u = np.array(poly.canonical_support[:m])
        lam, res = _lagrange_residual(areas, u, reduced_w, p)
        value = volume(poly) if maximizing else phi_p(np.concatenate([z, z]), full_w, p)
        score = math.log(value) if maximizing else float(np.logaddexp.reduce(p * z + np.log(reduced_w)))
        return _Iterate(z, poly, areas, u, lam, res, value, score)

    def gradient(it: _Iterate) -> tuple[np.ndarray, np.ndarray]:
        """(objective gradient, constraint gradient) in the reduced scales; for
        p < 0, -a_i e^{p z_i} / sum_j a_j e^{p z_j}, which cannot underflow."""
        vol_grad = 2.0 * it.areas
        if maximizing:
            return vol_grad, 2.0 * reduced_w * np.exp(p * it.z)
        return -reduced_w * np.exp(p * it.z - it.score), vol_grad

    current = evaluate(*project(np.ones(m)))
    trace = [current.objective]
    best = current
    step = _STEP
    iterations = 0
    last = None  # (z, unnormalized d) at the previous accepted iterate

    while True:
        if current.res <= config.tol:
            stop_reason = "converged"
            break
        if iterations >= config.max_iters:
            stop_reason = "max_iters"
            break
        g, h = gradient(current)
        hh = float(np.dot(h, h))
        d = g - (float(np.dot(g, h)) / hh) * h if hh > 0 else g
        norm = float(np.linalg.norm(d))
        if norm < 1e-15:
            stop_reason = "zero_direction"
            break
        if last is not None:
            # Barzilai-Borwein: -s.y / |y|^2 estimates the inverse curvature
            # along the last move; times |d|, it is the step on the unit d
            s, y = current.z - last[0], d - last[1]
            sy = float(np.dot(s, y))
            if sy < 0.0:
                step = min(max(-sy / float(np.dot(y, y)) * norm, _MIN_STEP), _STEP)
        last = (current.z, d)
        d = d / norm
        accepted = None
        while step >= _MIN_STEP:
            try:
                z, poly = project(current.z + step * d)
            except UnreachableTargetError:
                # no multiplier within rescale_to_constraint's window; a
                # shorter step keeps the trial further from degenerate
                step *= _BACKTRACK
                continue
            trial = evaluate(z, poly)
            if trial.score > current.score:
                accepted = trial
                break
            step *= _BACKTRACK
        if accepted is None:
            stop_reason = "line_search"
            break
        current = accepted
        iterations += 1
        trace.append(current.objective)
        if np.any(current.z <= 2.0 * _Z_FLOOR):
            logger.warning("an accepted iterate sits at the zero-scale boundary")
        if math.isfinite(z_cap) and np.any(current.z >= 0.999 * z_cap):
            logger.warning("support-bound safeguard is active on an accepted iterate")
        if current.res < best.res:
            best = current

    final = current if stop_reason == "converged" else best
    return SolverResult(
        polytope=final.poly,
        z=final.z,
        lam=final.lam,
        residual_max_rel=final.res,
        objective_trace=trace,
        iterations=iterations,
        stop_reason=stop_reason,
    )
