"""Constraint functional, rescaling, optimality residual, and the
projected-gradient solver on small even instances."""

import dataclasses
import logging
import math
import re
import warnings

import numpy as np
import pytest

from horomink import (
    DiscreteMeasure,
    HoromkError,
    MismatchedDirectionsError,
    NotEvenError,
    PolytopeSpec,
    SolverConfig,
    SpecError,
    UnreachableTargetError,
    boundedness_bound,
    build_polytope,
    canonicalize,
    facet_area,
    phi_p,
    rescale_to_constraint,
    residual,
    solve_even,
    volume,
)
from horomink import polytope, solver

LOG2 = math.log(2.0)


def cross_measure() -> DiscreteMeasure:
    """Symmetric four-direction instance: +-(1,0), +-(0,1), unit weights."""
    return DiscreteMeasure.from_even_pairs(
        np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0])
    )


def random_even_measure(rng, m: int, weights=(0.4, 2.5)) -> DiscreteMeasure:
    while True:
        ang = np.sort(rng.uniform(0.0, math.pi, size=m))
        if np.min(np.diff(np.concatenate([ang, [ang[0] + math.pi]]))) > 0.25:
            break
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    return DiscreteMeasure.from_even_pairs(dirs, rng.uniform(*weights, size=m))


def lens_polytope(x1: float, x2: float, even: bool = False):
    spec = PolytopeSpec(
        n=1,
        directions=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        x=np.array([x1, x2]),
        even=even,
    )
    return build_polytope(spec)


# ----------------------------------------------------------- constraint value

def test_phi_p_paired_single_atom():
    x = np.array([3.0, 3.0])
    w = np.array([1.0, 1.0])
    assert phi_p(x, w, 0.0) == 6.0
    assert phi_p(x, w, 1.0) == pytest.approx(2.0 * (math.exp(3.0) - 1.0), rel=1e-14)


def test_phi_p_zero_and_monotone():
    w = np.array([0.5, 1.5, 0.5, 1.5])
    for p in (-2.0, -1.0, 0.0, 1.0, 3.0):
        assert phi_p(np.zeros(4), w, p) == 0.0
        x = np.array([0.3, 0.8, 0.3, 0.8])
        for k in range(4):
            bumped = x.copy()
            bumped[k] += 0.1
            assert phi_p(bumped, w, p) > phi_p(x, w, p)


def test_phi_p_negative_p_bounded():
    w = np.array([1.0, 1.0])
    assert phi_p(np.array([50.0, 50.0]), w, -1.0) == pytest.approx(2.0, abs=1e-8)
    assert phi_p(np.array([700.0, 700.0]), w, -1.0) <= 2.0


def test_phi_p_continuous_at_zero():
    x = np.array([0.3, 0.7, 0.3, 0.7])
    w = np.array([1.0, 2.0, 1.0, 2.0])
    at0 = phi_p(x, w, 0.0)
    p = 1e-6
    # one-sided gap obeys the first-order remainder bound
    remainder = 0.5 * p * float(np.sum(w * x * x * np.exp(p * x)))
    assert abs(phi_p(x, w, p) - at0) <= remainder * 1.001
    # symmetrized average kills the linear term
    sym = 0.5 * (phi_p(x, w, p) + phi_p(x, w, -p))
    assert abs(sym - at0) <= 1e-8


def test_phi_p_shape_mismatch():
    with pytest.raises(SpecError):
        phi_p(np.array([1.0, 2.0]), np.array([1.0]), 0.0)


# -------------------------------------------------------------------- rescale

def test_rescale_identity_on_target():
    x = np.array([0.4, 0.9, 0.4, 0.9])
    w = np.array([1.0, 2.0, 1.0, 2.0])
    target = phi_p(x, w, 1.0)
    t = rescale_to_constraint(x, w, 1.0, target)
    assert abs(t - 1.0) <= 1e-6
    assert abs(phi_p(t * x, w, 1.0) - target) <= 1e-8


def test_rescale_p0_linear_exact(monkeypatch):
    # Phi_0 is linear in t, so the log-log Newton step from t = 1 lands on
    # the target and the second evaluation accepts it
    x = np.array([0.4, 0.9])
    w = np.array([1.0, 2.0])
    calls = counted(monkeypatch, "phi_p")
    t = rescale_to_constraint(x, w, 0.0, 1.0)
    assert len(calls) == 2
    assert t == 1.0 / phi_p(x, w, 0.0)
    assert phi_p(t * x, w, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_rescale_negative_p_unreachable():
    x = np.array([1.0, 1.0])
    w = np.array([1.0, 1.0])
    # supremum of Phi_{-1} is sum(w) = 2
    with pytest.raises(UnreachableTargetError):
        rescale_to_constraint(x, w, -1.0, 2.0)
    with pytest.raises(UnreachableTargetError):
        rescale_to_constraint(x, w, -1.0, 5.0)
    t = rescale_to_constraint(x, w, -1.0, 1.9)
    assert abs(phi_p(t * x, w, -1.0) - 1.9) <= 1e-8


def test_rescale_volume_mode():
    spec = PolytopeSpec(
        n=1,
        directions=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        x=np.array([1.0, 1.0]),
        even=True,
    )
    x = np.array([1.0, 1.0])
    t = solver._volume_rescale(x, 1.0, spec)[0]
    scaled = build_polytope(spec.with_x(t * x))
    assert volume(scaled) == pytest.approx(1.0, rel=1e-9)


def test_rescale_rejects_bad_input():
    x = np.array([1.0, 1.0])
    w = np.array([1.0, 1.0])
    with pytest.raises(SpecError):
        rescale_to_constraint(np.array([1.0, 0.0]), w, 0.0, 1.0)
    with pytest.raises(UnreachableTargetError):
        rescale_to_constraint(x, w, 0.0, -1.0)


def counted(monkeypatch, name: str) -> list:
    """Count the calls a rescale makes to solver.<name>."""
    calls = []
    original = getattr(solver, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, name, wrapper)
    return calls


def random_even_body(rng, n: int) -> PolytopeSpec:
    """2-6 random direction pairs with scales spread wide enough that most
    bodies have redundant horoballs."""
    pairs = int(rng.integers(2, 7))
    if n == 1:
        ang = rng.uniform(0.0, math.pi, size=pairs)
        rows = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        raw = rng.normal(size=(pairs, n + 1))
        rows = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    x = rng.uniform(0.1, 2.5, size=pairs)
    return PolytopeSpec(n=n, directions=np.vstack([rows, -rows]), x=np.concatenate([x, x]), even=True)


@pytest.mark.parametrize("n", [1, 2])
def test_rescale_volume_newton_on_random_even_bodies(monkeypatch, n):
    rng = np.random.Generator(np.random.Philox(4400 + n))
    calls = counted(monkeypatch, "_body")
    redundant = 0
    for _ in range(30):
        spec = random_even_body(rng, n)
        redundant += int(not np.all(build_polytope(spec).facet_nonempty))
        for target in (0.05, 1.0, 20.0):
            calls.clear()
            t = solver._volume_rescale(spec.x, target, spec)[0]
            # one boundary build per evaluation, both volume and slope read off it
            assert len(calls) <= 10
            v = volume(build_polytope(spec.with_x(t * spec.x)))
            assert abs(v - target) <= 1e-9 * target
    assert redundant >= 10


@pytest.mark.parametrize("p", [2.0, -2.0])
def test_rescale_phi_newton_is_quick(monkeypatch, p):
    rng = np.random.Generator(np.random.Philox(4500))
    calls = counted(monkeypatch, "phi_p")
    for _ in range(30):
        m = int(rng.integers(2, 7))
        x = rng.uniform(0.05, 3.0, size=m)
        w = rng.uniform(0.2, 3.0, size=m)
        for target in (0.05, 1.0, 20.0):
            if p < 0.0 and target >= float(np.sum(w)) / abs(p):
                continue
            calls.clear()
            t = rescale_to_constraint(x, w, p, target)
            assert len(calls) <= 8
            assert abs(phi_p(t * x, w, p) - target) <= 1e-8


def test_rescale_unbracketable_targets():
    # Phi_{-1}(t x) = 2 (1 - e^{-t 1e-9}) reaches 1.9 only at t = 3.0e9
    with pytest.raises(UnreachableTargetError):
        rescale_to_constraint(np.array([1e-9, 1e-9]), np.ones(2), -1.0, 1.9)
    # the lens of scale 1e-10 t reaches area 1 only at t ~ 4e9
    spec = PolytopeSpec(
        n=1, directions=np.array([[1.0, 0.0], [-1.0, 0.0]]), x=np.array([1.0, 1.0]), even=True
    )
    with pytest.raises(UnreachableTargetError):
        solver._volume_rescale(1e-10 * spec.x, 1.0, spec)


def test_rescale_collapsed_bracket_is_unreachable():
    # Phi_1(t x) = 2 (e^t - 1) carries a roundoff of about 2e-8 at 1e8,
    # above the absolute tolerance 1e-8, so the bracket closes first; the
    # first Newton step from t = 1 overflows Phi on the way there
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(UnreachableTargetError, match="closed with the value"):
            rescale_to_constraint(np.ones(2), np.ones(2), 1.0, 1e8)


def test_rescale_reads_tiny_planar_volumes():
    # the lens of scale 1e-12 has area 3.77e-18; planar volumes keep their
    # relative accuracy that small, so 1e-30 is met at t = 4.13e-9, and
    # 1e-40 would need t = 8.9e-16, below the window's 1e-12
    spec = PolytopeSpec(
        n=1, directions=np.array([[1.0, 0.0], [-1.0, 0.0]]), x=np.array([1e-12, 1e-12]), even=True
    )
    t = solver._volume_rescale(spec.x, 1e-30, spec)[0]
    assert t == pytest.approx(4.1274e-9, rel=1e-4)
    assert volume(build_polytope(spec.with_x(t * spec.x))) == pytest.approx(1e-30, rel=1e-9)
    with pytest.raises(UnreachableTargetError, match="failed to bracket"):
        solver._volume_rescale(spec.x, 1e-40, spec)


# ------------------------------------------------------------------- residual

def test_residual_lens_is_exact():
    mu = DiscreteMeasure.from_even_pairs(np.array([[1.0, 0.0]]), np.array([0.7]))
    for p in (0.0, 1.3, -0.8):
        poly = lens_polytope(LOG2, LOG2, even=True)
        lam, rel = residual(poly, mu, p)
        assert lam > 0.0
        assert rel <= 1e-9


def test_residual_perturbed_lens_is_positive():
    mu = DiscreteMeasure.from_even_pairs(np.array([[1.0, 0.0]]), np.array([1.0]))
    lam, rel = residual(lens_polytope(0.6, 0.9), mu, 1.0)
    assert lam > 0.0
    assert rel > 1e-3


def test_residual_mismatched_directions():
    mu = DiscreteMeasure.from_even_pairs(np.array([[0.0, 1.0]]), np.array([1.0]))
    with pytest.raises(MismatchedDirectionsError):
        residual(lens_polytope(LOG2, LOG2, even=True), mu, 0.0)


def test_residual_errors_name_the_first_unmatched_atom():
    # a lens certified against the square's measure: atoms 1 ((0, 1)) and
    # 3 ((0, -1)) have no facet, and the first of them is named
    square = DiscreteMeasure.from_even_pairs(np.eye(2), np.ones(2))
    with pytest.raises(MismatchedDirectionsError, match=r"^measure atom 1 has no matching facet direction$"):
        residual(lens_polytope(0.6, 0.9), square, 0.0)
    # an even body reads one atom per pair: (1, 0), then (0.6, 0.8) and (0.8, -0.6)
    skew = DiscreteMeasure.from_even_pairs(np.array([[1.0, 0.0], [0.6, 0.8], [0.8, -0.6]]), np.ones(3))
    with pytest.raises(MismatchedDirectionsError, match=r"^measure atom 1 has no matching facet direction$"):
        residual(build_polytope(PolytopeSpec(n=1, directions=np.vstack([np.eye(2), -np.eye(2)]),
                                             x=np.ones(4), even=True)), skew, 0.0)


# ---------------------------------------------------------------------- solve

def test_solve_symmetric_p0():
    result = solve_even(cross_measure(), SolverConfig(p=0.0))
    assert result.converged
    assert result.residual_max_rel <= 1e-3
    assert np.allclose(result.z, 0.25, atol=1e-4)
    # symmetric instance is solved by the feasible symmetric start
    assert result.iterations == 0
    assert result.lam == pytest.approx(0.46341253694602275, rel=1e-9)
    full = np.concatenate([result.z, result.z])
    assert phi_p(full, np.ones(4), 0.0) == pytest.approx(1.0, abs=1e-8)


def test_solve_symmetric_p2():
    result = solve_even(cross_measure(), SolverConfig(p=2.0))
    assert result.converged
    assert abs(result.z[0] - result.z[1]) <= 1e-6
    full = np.concatenate([result.z, result.z])
    assert phi_p(full, np.ones(4), 2.0) == pytest.approx(1.0, abs=1e-8)
    # trace is non-decreasing for the maximizing branch
    trace = np.array(result.objective_trace)
    assert np.all(np.diff(trace) >= -1e-12)
    # evenness of the solution body: paired facets carry equal area
    poly = result.polytope
    for i in range(2):
        assert abs(facet_area(poly, i) - facet_area(poly, i + 2)) <= 1e-6
    # admissibility: canonicalize is a fixed point
    fixed = canonicalize(poly)
    assert np.allclose(fixed.x, poly.spec.x, atol=1e-7)


def test_solve_asymmetric_p0_matches_grid_oracle():
    from horomink.oracle import grid_search_even

    mu = DiscreteMeasure.from_even_pairs(
        np.array([[1.0, 0.0], [math.cos(1.1), math.sin(1.1)]]),
        np.array([1.0, 1.7]),
    )
    result = solve_even(mu, SolverConfig(p=0.0))
    assert result.converged
    z_grid = grid_search_even(mu, 0.0, resolution=400)
    assert np.max(np.abs(result.z - z_grid)) <= 0.01
    # solver's volume is at least the best grid volume, up to grid slack
    spec = PolytopeSpec(
        n=1,
        directions=np.vstack([mu.reduced_pairs()[0], -mu.reduced_pairs()[0]]),
        x=np.concatenate([z_grid, z_grid]),
        even=True,
    )
    v_grid = volume(build_polytope(spec))
    assert volume(result.polytope) >= v_grid - 1e-6


def test_solve_p_negative_random():
    rng = np.random.Generator(np.random.Philox(42))
    mu = random_even_measure(rng, 3)
    cfg = SolverConfig(p=-1.0, v0=1.0)
    result = solve_even(mu, cfg)
    assert result.converged
    assert result.residual_max_rel <= 1e-2
    assert volume(result.polytope) == pytest.approx(1.0, rel=1e-3)
    trace = np.array(result.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12)
    assert float(np.max(result.z)) <= boundedness_bound(1.0 * 1.01, 1) + 1e-9
    # certificate ties the measure to the solution's surface atoms
    lam, rel = residual(result.polytope, mu, -1.0)
    assert rel <= 1e-2
    assert lam == pytest.approx(result.lam, rel=1e-9)


def count_calls(monkeypatch, targets) -> dict:
    """Calls of each (module, name) in targets, counted as they happen."""
    calls = {}
    for owner, name in targets:
        original = getattr(owner, name)

        def wrapper(*args, _key=(owner.__name__, name), _original=original, **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_solve_does_each_piece_of_work_once(monkeypatch):
    # one pairing for the measure and one for the spec template, which every
    # trial spec inherits; one body (_body) per rescale evaluation. Each trial
    # (one _lagrange_residual) is judged on the body of its rescale's last
    # evaluation (_volume_rescale), and builds again (build_polytope, one
    # more boundary) only when canonicalizing lowered a scale. The
    # chart frames come with the template, once per solve, in both dimensions
    calls = count_calls(
        monkeypatch,
        [
            (polytope, "_chart_frames"),
            (polytope, "_even_pairing"),
            (solver, "_body"),
            (polytope, "_exact_boundary"),
            (solver, "build_polytope"),
            (solver, "_volume_rescale"),
            (solver, "_lagrange_residual"),
        ],
    )
    mu = random_even_measure(np.random.Generator(np.random.Philox(42)), 3)
    result = solve_even(mu, SolverConfig(p=-1.0, v0=1.0))
    assert result.converged
    assert result.iterations == 5
    assert calls[("horomink.polytope", "_even_pairing")] == 2
    assert calls[("horomink.solver", "_volume_rescale")] == 7
    assert calls[("horomink.solver", "_lagrange_residual")] == 7
    assert calls[("horomink.solver", "build_polytope")] == 1
    assert calls[("horomink.solver", "_body")] == 20
    assert calls[("horomink.polytope", "_exact_boundary")] == 21
    assert calls[("horomink.polytope", "_chart_frames")] == 1
    calls.clear()
    result = solve_even(DiscreteMeasure.from_even_pairs(*three_sphere_pairs()), SolverConfig(p=-1.0))
    assert result.converged
    assert calls[("horomink.polytope", "_chart_frames")] == 1


def test_phi_mode_builds_each_trial_once(monkeypatch):
    # each trial rescales onto Phi_p = 1, builds, and canonicalizes once; only
    # a trial whose canonicalizing lowered a scale rescales and builds again
    # (2 of 8 here), so a second build on every trial would read 16 or more
    calls = count_calls(
        monkeypatch,
        [
            (solver, "rescale_to_constraint"),
            (solver, "build_polytope"),
            (solver, "canonicalize"),
            (solver, "_lagrange_residual"),
        ],
    )
    mu = random_even_measure(np.random.Generator(np.random.Philox(42)), 3)
    result = solve_even(mu, SolverConfig(p=2.0))
    assert result.converged
    assert result.iterations == 4
    assert calls[("horomink.solver", "canonicalize")] == 8
    assert calls[("horomink.solver", "_lagrange_residual")] == 8
    assert calls[("horomink.solver", "build_polytope")] == 10
    assert calls[("horomink.solver", "rescale_to_constraint")] == 10


def test_exponent_sweep_converges_at_tol_1e6(monkeypatch):
    # criterion 7's 30 measures (tests/test_acceptance.py) at tol 1e-6, with
    # their monotone traces. Evaluations, one _lagrange_residual per trial
    # and one per solve's start, measured 498 here; the bound is 1.1 times that
    calls = count_calls(monkeypatch, [(solver, "_lagrange_residual")])
    for p, seed in ((2.0, 7000), (-1.0, 7100), (-1.0, 7200)):
        rng = np.random.Generator(np.random.Philox(seed))
        for k in range(10):
            mu = random_even_measure(rng, int(rng.integers(2, 7)), weights=(0.3, 3.0))
            result = solve_even(mu, SolverConfig(p=p, v0=1.0, tol=1e-6))
            assert result.converged, f"p = {p} run {k}"
            trace = np.diff(np.array(result.objective_trace))
            assert np.all(trace >= -1e-12) if p >= 0.0 else np.all(trace <= 1e-12)
    assert calls[("horomink.solver", "_lagrange_residual")] <= 547


def test_stop_reasons():
    assert solve_even(axes_measure(), SolverConfig(p=2.0)).stop_reason == "converged"
    capped = solve_even(axes_measure(), SolverConfig(p=2.0, tol=1e-15, max_iters=2))
    assert (capped.stop_reason, capped.iterations, capped.converged) == ("max_iters", 2, False)
    # the residual's roundoff floor lies above 1e-15: past it no step down to
    # _MIN_STEP raises the score
    stalled = solve_even(axes_measure(), SolverConfig(p=2.0, tol=1e-15))
    assert (stalled.stop_reason, stalled.converged) == ("line_search", False)
    assert stalled.iterations < SolverConfig(p=2.0).max_iters


def test_solve_rejections():
    with pytest.raises(NotEvenError):
        solve_even(
            DiscreteMeasure(
                n=1,
                directions=np.array([[1.0, 0.0], [0.0, 1.0]]),
                weights=np.array([1.0, 1.0]),
            ),
            SolverConfig(p=0.0),
        )
    single = DiscreteMeasure.from_even_pairs(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(SpecError):
        solve_even(single, SolverConfig(p=0.0))


def axes_measure() -> DiscreteMeasure:
    """+-(1,0) with weight 1 and +-(0,1) with weight 2."""
    return DiscreteMeasure.from_even_pairs(np.eye(2), np.array([1.0, 2.0]))


@pytest.mark.parametrize("v0", [1.0, 1e10])
def test_steep_exponent_on_the_axes_converges(v0):
    # at p = -20 the optimum for V0 = 1 has facets of areas 1.9e-5 and 2.1;
    # for V0 = 1e10, where p z_i is about -450, the score near it moves by
    # little more than its roundoff, so only short steps raise it
    result = solve_even(axes_measure(), SolverConfig(p=-20.0, v0=v0, tol=1e-3))
    assert result.converged
    assert volume(result.polytope) == pytest.approx(v0, rel=1e-8)


def test_solve_past_the_support_bound_is_unreachable():
    # boundedness_bound's ValueError past r = 256 is a user error here
    with pytest.raises(UnreachableTargetError, match=r"V0 = 1e\+100"):
        solve_even(axes_measure(), SolverConfig(p=-1.0, v0=1e100))


@pytest.mark.parametrize(
    "measure, p", [(axes_measure, -2000.0), (cross_measure, -1e6)], ids=["p-2000", "p-1e6"]
)
def test_extreme_exponents_say_so(measure, p):
    # sum of a_i e^{p u_i} underflows to 0, and the multiplier divides by it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(HoromkError, match=re.escape(f"p = {p!r}")):
            solve_even(measure(), SolverConfig(p=p))


@pytest.mark.parametrize("p", [2000.0, 1e6], ids=["p2000", "p1e6"])
def test_large_positive_exponents_solve_quietly(p):
    # the rescale's first evaluations overflow e^{p t x}; that gives no
    # Newton step, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = solve_even(axes_measure(), SolverConfig(p=p))
    assert result.converged


@pytest.mark.parametrize("v0", [1e30, 1e50])
def test_large_volumes_converge(v0):
    # Phi_{-1} rounds to sum(a_i) here and the Phi_p gradient 2 a_i e^{-z_i}
    # is below 1e-29; trials are judged on log sum a_i e^{-z_i}, and the
    # direction is taken from that sum's gradient, so neither stalls the loop
    result = solve_even(axes_measure(), SolverConfig(p=-1.0, v0=v0))
    assert result.converged
    assert result.iterations > 0
    assert volume(result.polytope) == pytest.approx(v0, rel=1e-8)


def test_lagrange_residual_past_the_float_range():
    areas, weights = np.ones(2), np.ones(2)
    # e^{-p u} overflows while the multiplier's denominator stays finite
    with pytest.raises(HoromkError, match="p = -800.0"):
        solver._lagrange_residual(areas, np.array([0.1, 1.0]), weights, -800.0)
    # finite cases keep their arithmetic
    u = np.array([0.5, 1.0])
    lam = 2.0 / float(np.sum(np.exp(-3.0 * u)))
    rel = np.abs(np.exp(3.0 * u) - lam) / lam
    assert solver._lagrange_residual(areas, u, weights, -3.0) == (lam, float(np.max(rel)))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(p=0.0, tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(p=0.0, max_iters=-1)
    with pytest.raises(ValueError):
        SolverConfig(p=-1.0, v0=0.0)


def test_solver_result_consistency():
    result = solve_even(cross_measure(), SolverConfig(p=2.0))
    assert np.allclose(result.polytope.spec.x[:2], result.z)
    assert len(result.objective_trace) == result.iterations + 1


def test_solve_refuses_n3():
    mu = DiscreteMeasure.from_even_pairs(np.eye(4), np.ones(4))
    with pytest.raises(SpecError, match="measure.n = 3"):
        solve_even(mu, SolverConfig(p=0.0))


def steep_measure() -> DiscreteMeasure:
    """Four planar pairs that at p = -20 drive facets nearly shut: the
    objective rewards small scales, iterates carry a facet of area 4.7e-5
    next to one of 1.35, which a central difference of step 1e-4 runs past
    the kink of V where it closes (136% off per atom), and volume rescales
    of trial points at the zero-scale floor need multipliers of about 4e8."""
    ang = np.array(
        [0.058191401443041864, 1.139034047683624, 2.432458291274824, 2.4529182459263765]
    )
    weights = np.array(
        [1.0611992516720905, 1.5320284733767786, 0.8078392282226188, 1.2899074828259096]
    )
    return DiscreteMeasure.from_even_pairs(np.column_stack([np.cos(ang), np.sin(ang)]), weights)


def test_gradient_check_quiet_at_closing_facets(caplog):
    with caplog.at_level(logging.WARNING, logger="horomink.solver"):
        result = solve_even(steep_measure(), SolverConfig(p=-20.0))
    assert result.iterations >= 10
    assert result.gradient_check_max_rel <= 1e-3
    assert not [r for r in caplog.records if "disagree" in r.getMessage()]


def test_solve_takes_no_finite_differences(monkeypatch):
    # the check runs once, on the returned body, when first read: 2m central
    # differences for m pairs, and none in the loop's 10 or more iterations
    calls = count_calls(monkeypatch, [(solver, "facet_area_fd")])
    result = solve_even(steep_measure(), SolverConfig(p=-20.0))
    assert result.iterations >= 10
    assert calls == {}
    first = result.gradient_check_max_rel
    assert calls[("horomink.solver", "facet_area_fd")] == 2 * result.z.size
    assert result.gradient_check_max_rel == first
    assert calls[("horomink.solver", "facet_area_fd")] == 2 * result.z.size


def inflate_largest_area(monkeypatch):
    """Make solver.facet_area report each body's largest facet 1% too large."""
    exact = solver.facet_area

    def inflated(poly, i, *args, **kwargs):
        areas = [exact(poly, j) for j in range(poly.spec.directions.shape[0])]
        return areas[i] * (1.01 if i == int(np.argmax(areas)) else 1.0)

    monkeypatch.setattr(solver, "facet_area", inflated)


def test_gradient_check_catches_a_wrong_area(monkeypatch, caplog):
    inflate_largest_area(monkeypatch)
    mu = random_even_measure(np.random.Generator(np.random.Philox(77)), 3)
    with caplog.at_level(logging.WARNING, logger="horomink.solver"):
        result = solve_even(mu, SolverConfig(p=2.0))
        assert result.iterations >= 1
        assert result.gradient_check_max_rel >= 5e-3
    assert [r for r in caplog.records if "disagree" in r.getMessage()]


def test_gradient_check_steps_relative_to_a_small_body(monkeypatch, caplog):
    # 32 planar pairs whose scales come out near 0.012. A fixed step of 1e-4
    # closes neighbouring facets there, past the kink of V: the check read
    # 0.17 on this body with it, and 4.7e-9 at the step 1e-4 min z
    ang = math.pi * (np.arange(32) + np.random.Generator(np.random.Philox(5)).uniform(-0.2, 0.2, 32)) / 32
    weights = np.random.Generator(np.random.Philox(6)).uniform(0.5, 2.0, 32)
    mu = DiscreteMeasure.from_even_pairs(np.column_stack([np.cos(ang), np.sin(ang)]), weights)
    result = solve_even(mu, SolverConfig(p=2.0, tol=1e-6, max_iters=400))
    assert result.converged
    assert np.max(result.z) < 0.013
    with caplog.at_level(logging.WARNING, logger="horomink.solver"):
        assert result.gradient_check_max_rel <= 1e-6
        assert not [r for r in caplog.records if "disagree" in r.getMessage()]
        # the same body read again, with one area 1% off
        inflate_largest_area(monkeypatch)
        assert dataclasses.replace(result).gradient_check_max_rel >= 5e-3
    assert [r for r in caplog.records if "disagree" in r.getMessage()]


def test_volume_rescales_do_not_overflow():
    # trial points that need t max(z) > 350 are refused by the rescale
    # and shortened by the line search, instead of evaluated on e^{t z}
    # products past the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = solve_even(steep_measure(), SolverConfig(p=-20.0))
    assert volume(result.polytope) == pytest.approx(1.0, rel=1e-6)


# ------------------------------------------------------------------ n = 2

def test_solve_cube_starts_at_its_optimum():
    # equal weights on the coordinate axes: the cube with z = 1/6 is optimal
    mu = DiscreteMeasure.from_even_pairs(np.eye(3), np.ones(3))
    result = solve_even(mu, SolverConfig(p=0.0))
    assert result.converged
    assert result.iterations == 0
    assert result.residual_max_rel <= 1e-12
    assert np.allclose(result.z, 1.0 / 6.0, atol=1e-12)


def three_sphere_pairs() -> tuple[np.ndarray, np.ndarray]:
    rows = np.array(
        [
            [-0.4546916775860576, -0.890614114308254, 0.00787259353079515],
            [0.6446738120210247, -0.7643172293890372, -0.01465772674551246],
            [0.24101517703466213, -0.22644116660060482, -0.9437351760464943],
        ]
    )
    weights = np.array([0.8919566456575361, 1.3387236434529521, 1.3995118001798388])
    return rows, weights


@pytest.mark.parametrize("p", [2.0, -1.0])
def test_solve_three_pairs_on_the_sphere_at_default_tol(p):
    rows, weights = three_sphere_pairs()
    mu = DiscreteMeasure.from_even_pairs(rows, weights)
    result = solve_even(mu, SolverConfig(p=p))
    assert result.converged
    assert result.residual_max_rel <= 1e-3
    assert residual(result.polytope, mu, p)[1] == result.residual_max_rel
    trace = np.diff(np.array(result.objective_trace))
    if p >= 0.0:
        assert np.all(trace >= -1e-12)
        assert phi_p(np.concatenate([result.z, result.z]), np.concatenate([weights, weights]), p) == (
            pytest.approx(1.0, abs=1e-8)
        )
    else:
        assert np.all(trace <= 1e-12)
        assert volume(result.polytope) == pytest.approx(1.0, rel=1e-6)


def test_volume_mode_solves_are_deterministic():
    # criterion 10 reruns a p = 2 (phi-mode) solve; these go through the
    # volume-mode Newton projection
    planar = lambda: random_even_measure(np.random.Generator(np.random.Philox(77)), 3)  # noqa: E731
    sphere = lambda: DiscreteMeasure.from_even_pairs(*three_sphere_pairs())  # noqa: E731
    for make in (planar, sphere):
        first = solve_even(make(), SolverConfig(p=-1.0))
        second = solve_even(make(), SolverConfig(p=-1.0))
        assert first.converged
        assert np.array_equal(first.z, second.z)
        assert first.lam == second.lam
        assert first.residual_max_rel == second.residual_max_rel
        assert first.objective_trace == second.objective_trace
