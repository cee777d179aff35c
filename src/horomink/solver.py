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
facet areas read off one boundary build. Convergence is certified
by the relative residual of the optimality system, never by iterate
distance.

Each piece of work is done once. The measure is paired into antipodal
pairs once, and every trial spec inherits the pairing of one template.
In the volume-constrained mode a trial builds one boundary per rescale
evaluation, and its canonicalizing build reuses the arcs of the last one,
so the trial adds only the build of the canonical body it is judged on.
The tube-volume support bound (boundedness_bound) is in closed form.

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

import numpy as np

from .errors import (
    MismatchedDirectionsError,
    NotEvenError,
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
    _exact_areas,
    _exact_body,
    _exact_boundary,
    _exact_volume,
)
# Unused here; the benchmark's tracer wraps these names to count volume
# evaluations and quadrature rules built.
from .polytope import _volume_of_spec  # noqa: F401
from .quadrature import build_quadrature  # noqa: F401

logger = logging.getLogger(__name__)

_Z_FLOOR = 1e-9

# The line search: first step length, the factor a refused trial shortens it
# by, and the shortest step tried before the search gives up.
_STEP = 0.25
_BACKTRACK = 0.5
_MIN_STEP = 1e-12

# Accepted iterations between checks of the exact gradient against central
# differences of the volume (facet_area_fd's default step).
_GRAD_CHECK_EVERY = 10


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

    In closed form for p = 0, where the functional is linear. Otherwise by
    safeguarded Newton from t = 1 (_newton_on_ray), with the exact slope
    d/dt Phi_p(t x) = sum of a_i x_i e^{p t x_i}. The volume constraint has
    its own projection, _volume_rescale, which shares that loop.

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
    if p == 0.0:
        return target / phi_p(x, w, 0.0)
    if p < 0.0:
        supremum = float(np.sum(w)) / abs(p)
        if target >= supremum:
            raise UnreachableTargetError(
                f"target {target} is not below the p<0 supremum {supremum}"
            )

    def value(t: float) -> tuple[float, float, None]:
        return phi_p(t * x, w, p), float(np.sum(w * x * np.exp(p * t * x))), None

    return _newton_on_ray(value, target, 1e-8, 1e9)[0]


def _volume_rescale(x: np.ndarray, target: float, spec: PolytopeSpec):
    """(t, boundary arcs of the body at t x) with V(P(t x)) = target.

    Solves to relative accuracy 1e-9 for positive x and target, with the
    body built from the directions of spec, an n <= 2 spec (solve_even
    refuses n >= 3 before it gets here). The slope is exact: d/dt V(t x) =
    sum of x_i S_i(t x) by the variational identity S_i = dV/dx_i, so every
    evaluation builds the boundary at t x once and reads volume and slope
    off it. The arcs of the last evaluation, where t was accepted, are
    returned so that the caller need not build them again.

    Raises UnreachableTargetError like rescale_to_constraint, and also
    keeps t max(x) <= 350, below which products of two horoball radii
    e^{t x_i} stay finite. A collapsed bracket here is typically a target
    below the roundoff of the volume formula.
    """

    def value(t: float):
        scaled = spec.with_x(t * x, even=False)
        arcs = _exact_boundary(scaled)
        return _exact_volume(scaled, arcs), float(np.dot(x, _exact_areas(scaled, arcs))), arcs

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
    lambda = (sum of the areas S_i) / (sum of a_i e^{p u_i})."""
    lam = float(np.sum(areas)) / float(np.sum(weights * np.exp(p * u)))
    if lam <= 0.0:
        return 0.0, math.inf
    rel = np.abs(np.exp(-p * u) * areas - lam * weights) / (lam * weights)
    return lam, float(np.max(rel))


def residual(poly: HConvexPolytope, measure: DiscreteMeasure, p: float) -> tuple[float, float]:
    """Multiplier and worst relative defect of the optimality system.

    Matches measure atoms to the polytope's directions (within 1e-9) and
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
    if not measure.even:
        raise NotEvenError("residual is defined for even measures")

    if poly.spec.even:
        atoms, weights = measure.reduced_pairs()
    else:
        atoms, weights = measure.directions, measure.weights
    dirs = poly.spec.directions
    idx = []
    for k in range(atoms.shape[0]):
        gaps = np.linalg.norm(dirs - atoms[k][None, :], axis=1)
        j = int(np.argmin(gaps))
        if gaps[j] > 1e-9:
            raise MismatchedDirectionsError(
                f"measure atom {k} has no matching facet direction"
            )
        idx.append(j)
    if len(set(idx)) != len(idx):
        raise MismatchedDirectionsError("two atoms matched the same facet direction")
    areas = np.array([facet_area(poly, j) for j in idx])
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
    polytope: HConvexPolytope
    z: np.ndarray
    lam: float
    residual_max_rel: float
    objective_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    gradient_check_max_rel: float = 0.0


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


def solve_even(measure: DiscreteMeasure, config: SolverConfig) -> SolverResult:
    """Scales solving the even p-Minkowski system for the given measure.

    Returns the best iterate with converged=False when the residual never
    reaches config.tol; callers decide how to treat that (the command line
    front end exits with a dedicated code). Raises SpecError for a measure
    on S^n with n >= 3.
    """
    if not measure.even:
        raise NotEvenError("solve_even needs an even measure")
    if measure.n > 2:
        raise SpecError(f"solve_even needs n <= 2, got measure.n = {measure.n}")
    reduced_dirs, reduced_w = measure.reduced_pairs()
    m = reduced_dirs.shape[0]
    if m < 2:
        raise SpecError("need at least two direction pairs to optimize")
    n = measure.n
    p = config.p
    full_dirs = np.vstack([reduced_dirs, -reduced_dirs])
    full_w = np.concatenate([reduced_w, reduced_w])
    spec_template = PolytopeSpec(
        n=n, directions=full_dirs, x=np.ones(2 * m), even=True
    )
    z_cap = boundedness_bound(config.v0, n) if p < 0.0 else math.inf
    maximizing = p >= 0.0

    def build(z: np.ndarray) -> HConvexPolytope:
        return build_polytope(spec_template.with_x(np.concatenate([z, z])))

    def phi_rescaled(z: np.ndarray) -> np.ndarray:
        return z * rescale_to_constraint(np.concatenate([z, z]), full_w, p, 1.0)

    def canonical(poly: HConvexPolytope) -> np.ndarray:
        return np.array(canonicalize(poly).x[:m])

    def project(z: np.ndarray) -> np.ndarray:
        z = np.clip(z, _Z_FLOOR, z_cap)
        if maximizing:
            # Canonicalizing keeps the body, hence its volume, but lowers Phi_p.
            return phi_rescaled(canonical(build(phi_rescaled(z))))
        # the rescale's last evaluation built the boundary at t (z, z), which
        # is (z t, z t) bit for bit: canonicalize the body from those arcs
        t, arcs = _volume_rescale(np.concatenate([z, z]), config.v0, spec_template)
        z = z * t
        return canonical(_exact_body(spec_template.with_x(np.concatenate([z, z])), arcs))

    def evaluate(z: np.ndarray) -> _Iterate:
        poly = build(z)
        areas = np.array([facet_area(poly, i) for i in range(m)])
        u = np.array(poly.canonical_support[:m])
        lam, res = _lagrange_residual(areas, u, reduced_w, p)
        value = volume(poly) if maximizing else phi_p(np.concatenate([z, z]), full_w, p)
        return _Iterate(z, poly, areas, u, lam, res, value)

    def gradient(it: _Iterate) -> tuple[np.ndarray, np.ndarray]:
        """(objective gradient, constraint gradient) in the reduced scales."""
        phi_grad = 2.0 * reduced_w * np.exp(p * it.z)
        vol_grad = 2.0 * it.areas
        return (vol_grad, phi_grad) if maximizing else (-phi_grad, vol_grad)

    current = evaluate(project(np.ones(m)))
    trace = [current.objective]
    best = current
    step = _STEP
    iterations = 0
    converged = False
    grad_check_worst = 0.0

    while True:
        if current.res <= config.tol:
            converged = True
            break
        if iterations >= config.max_iters:
            break
        g, h = gradient(current)
        hh = float(np.dot(h, h))
        d = g - (float(np.dot(g, h)) / hh) * h if hh > 0 else g
        norm = float(np.linalg.norm(d))
        if norm < 1e-15:
            break
        d /= norm
        accepted = None
        while step >= _MIN_STEP:
            try:
                z = project(current.z + step * d)
            except UnreachableTargetError:
                # no multiplier within rescale_to_constraint's window; a
                # shorter step keeps the trial further from degenerate
                step *= _BACKTRACK
                continue
            trial = evaluate(z)
            gain = trial.objective - current.objective
            if (gain > 1e-15) if maximizing else (gain < -1e-15):
                accepted = trial
                break
            step *= _BACKTRACK
        if accepted is None:
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
        step = min(step / _BACKTRACK, 4.0 * _STEP)
        if iterations % _GRAD_CHECK_EVERY == 0:
            direct = 2.0 * current.areas
            fd = np.array(
                [facet_area_fd(current.poly, i) + facet_area_fd(current.poly, m + i) for i in range(m)]
            )
            # norm-wise: V has a kink where a facet closes, so a central
            # difference over a facet that closes within the step (or is
            # closed already) is off by O(1) relative to its own area
            worst = float(np.max(np.abs(direct - fd)) / np.max(direct))
            grad_check_worst = max(grad_check_worst, worst)
            if worst > 1e-3:
                logger.warning("direct and finite-difference gradients disagree: %.3g", worst)

    final = current if converged else best
    return SolverResult(
        polytope=final.poly,
        z=final.z,
        lam=final.lam,
        residual_max_rel=final.res,
        objective_trace=trace,
        iterations=iterations,
        converged=converged,
        gradient_check_max_rel=grad_check_worst,
    )
