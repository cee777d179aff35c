"""Bodies made of horoballs: builds, radial/support, volumes, facets,
distances, canonicalization, separation, tube bodies."""

import math
from statistics import NormalDist

import numpy as np
import pytest

from horomink import (
    DegenerateBodyError,
    DiscreteMeasure,
    Direction,
    HyperboloidPoint,
    Isometry,
    NotEvenError,
    PointInsideError,
    PolytopeSpec,
    SpecError,
    boundedness_bound,
    build_polytope,
    build_quadrature,
    busemann_value,
    canonicalize,
    extremal_radii,
    facet_area,
    facet_area_fd,
    hausdorff_distance,
    horoball_contains,
    horoball_transform,
    outer_parallel_support,
    polar_point,
    radial,
    separate,
    support,
    residual,
    t_body_volume,
    t_body_volume_lower_bound,
    volume,
)
from horomink import polytope
from horomink.oracle import mc_volume, radial_bisection
from horomink.polytope import (
    _chart_frames,
    _cone_kernel,
    _radial_rows,
    _radial_single,
    _refine_max_sphere,
    _shadows,
    _support_grid,
    _volume_of_spec,
)
from horomink.quadrature import sinh_power_integral
from horomink.solver import _volume_rescale

LOG2 = math.log(2.0)
ACOSH2 = 1.3169578969248166  # arccosh(2): lens reach orthogonal to the axis
LENS_VOLUME_LOG2 = 2.7394130254891182  # 4 (sqrt 3 - pi/3)
LENS_FACET_LOG2 = 3.4641016151377544  # 2 sqrt 3


def lens_spec(s: float = LOG2, n: int = 1) -> PolytopeSpec:
    dirs = np.zeros((2, n + 1))
    dirs[0, 0] = 1.0
    dirs[1, 0] = -1.0
    return PolytopeSpec(n=n, directions=dirs, x=np.array([s, s]), even=True)


def all_facet_areas(poly) -> np.ndarray:
    return np.array([facet_area(poly, i) for i in range(poly.spec.count)])


def random_spec(rng, m: int, x_range=(0.2, 2.0), even: bool = False) -> PolytopeSpec:
    """Random n=1 spec with angularly separated directions."""
    while True:
        ang = np.sort(rng.uniform(0.0, math.pi if even else 2.0 * math.pi, size=m))
        wrap = math.pi if even else 2.0 * math.pi
        if np.min(np.diff(np.concatenate([ang, [ang[0] + wrap]]))) > 0.2:
            break
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    x = rng.uniform(*x_range, size=m)
    if even:
        return PolytopeSpec(
            n=1, directions=np.vstack([dirs, -dirs]), x=np.concatenate([x, x]), even=True
        )
    return PolytopeSpec(n=1, directions=dirs, x=x)


def transformed_body(poly, iso: Isometry):
    moved = [horoball_transform(b, iso) for b in poly.spec.horoballs()]
    spec = PolytopeSpec(
        n=poly.n,
        directions=np.array([b.center.vector for b in moved]),
        x=np.array([b.s for b in moved]),
    )
    return build_polytope(spec)


@pytest.fixture(scope="module")
def lens():
    return build_polytope(lens_spec())


# ----------------------------------------------------------------- building

def test_lens_build(lens):
    assert np.allclose(lens.canonical_support, [LOG2, LOG2], atol=1e-9)
    assert lens.facet_nonempty.all()


def test_spec_validation_errors():
    e = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(SpecError):
        PolytopeSpec(n=1, directions=e[:1], x=np.array([1.0]))
    with pytest.raises(SpecError):
        PolytopeSpec(n=1, directions=np.array([[1.0, 0.0], [1.0, 1e-12]]),
                     x=np.array([1.0, 1.0]))
    # a single ideal point, however often it is listed, bounds nothing
    with pytest.raises(SpecError):
        PolytopeSpec(n=1, directions=np.array([[1.0, 0.0], [1.0, 0.0]]),
                     x=np.array([1.0, 2.0]))
    with pytest.raises(SpecError):
        PolytopeSpec(n=1, directions=e, x=np.array([1.0, -0.5]))
    with pytest.raises(SpecError):
        PolytopeSpec(n=1, directions=e, x=np.array([1.0, np.inf]))
    # zero scales need the even symmetry to carry meaning
    with pytest.raises(SpecError):
        PolytopeSpec(n=1, directions=np.array([[1.0, 0.0], [0.0, 1.0]]),
                     x=np.array([0.0, 1.0]))
    with pytest.raises(NotEvenError):
        PolytopeSpec(n=1, directions=np.array([[1.0, 0.0], [0.0, 1.0]]),
                     x=np.array([1.0, 1.0]), even=True)
    with pytest.raises(NotEvenError):
        PolytopeSpec(n=1, directions=e, x=np.array([1.0, 1.5]), even=True)


# rows whose squared norm leaves the float range, and their unit vectors
FAR_ROWS = [([1e200, 1e200], [math.sqrt(0.5)] * 2), ([1e-320, 0.0], [1.0, 0.0])]


@pytest.mark.parametrize("row, unit", FAR_ROWS, ids=["huge", "subnormal"])
def test_directions_whose_squares_leave_the_float_range(row, unit):
    # [1e200, 1e200] became [0, 0] with an overflow warning
    spec = PolytopeSpec(n=1, directions=[row, [-1.0, 0.0], [0.0, -1.0]], x=[1.0, 1.0, 1.0])
    measure = DiscreteMeasure(n=1, directions=[row, [-c for c in row]], weights=[1.0, 1.0])
    for rows in (spec.directions, measure.directions):
        np.testing.assert_allclose(rows[0], unit, rtol=1e-15, atol=0.0)


def test_directions_in_the_normal_range_keep_their_bits():
    # scaling a row by a power of two before its norm is exact
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-100.0, 100.0, size=(200, 1))
    spec = PolytopeSpec(n=2, directions=rows, x=np.ones(200))
    assert np.array_equal(spec.directions, rows / np.linalg.norm(rows, axis=1)[:, None])


def test_degenerate_body_paths():
    # a zero-scale even pair pins the body to the point O, which has no interior
    for n in (1, 2):
        with pytest.raises(DegenerateBodyError, match="basepoint"):
            build_polytope(lens_spec(s=0.0, n=n))


def test_bodies_that_keep_no_arc_are_refused():
    # every side of the regular 16-gon and every facet of the cube at scale
    # 1e-12 is shorter than _ARC_TOL; builds used to die in an empty numpy
    # reduction (ValueError)
    ang = 2.0 * math.pi * np.arange(16) / 16
    polygon = PolytopeSpec(n=1, directions=np.column_stack([np.cos(ang), np.sin(ang)]), x=np.full(16, 1e-12))
    cube = PolytopeSpec(n=2, directions=np.vstack([np.eye(3), -np.eye(3)]), x=np.full(6, 1e-12))
    for spec in (polygon, cube):
        with pytest.raises(DegenerateBodyError, match="too small to resolve"):
            build_polytope(spec)
    # a volume rescale reads such a body as volume 0 and moves on
    t = _volume_rescale(polygon.x, 3e-12, polygon)[0]
    assert volume(build_polytope(polygon.with_x(t * polygon.x))) == pytest.approx(3e-12, rel=1e-9)


def test_scan_dimension_mismatch():
    with pytest.raises(SpecError):
        build_polytope(lens_spec(), scan=build_quadrature(2))


# ------------------------------------------------------------------- radial

def test_lens_radial_goldens(lens):
    e = Direction(np.array([1.0, 0.0]))
    perp = Direction(np.array([0.0, 1.0]))
    assert radial(lens, e) == pytest.approx(LOG2, abs=1e-12)
    assert radial(lens, perp) == pytest.approx(ACOSH2, abs=1e-12)


def test_radial_matches_bisection_oracle(lens):
    rng = np.random.Generator(np.random.Philox(5))
    for ang in rng.uniform(0.0, 2.0 * math.pi, size=200):
        theta = np.array([math.cos(ang), math.sin(ang)])
        want = min(
            radial_bisection(LOG2, float(theta @ lens.spec.directions[j]))
            for j in range(2)
        )
        got = radial(lens, Direction(theta))
        assert got == pytest.approx(want, abs=1e-9)


def test_radial_order_invariance():
    rng = np.random.Generator(np.random.Philox(6))
    spec = random_spec(rng, 4)
    flipped = PolytopeSpec(n=1, directions=spec.directions[::-1], x=spec.x[::-1])
    a, b = build_polytope(spec), build_polytope(flipped)
    for ang in rng.uniform(0.0, 2.0 * math.pi, size=50):
        theta = Direction(np.array([math.cos(ang), math.sin(ang)]))
        assert radial(a, theta) == radial(b, theta)


def test_boundary_consistency():
    rng = np.random.Generator(np.random.Philox(7))
    for spec in (lens_spec(), random_spec(rng, 5)):
        poly = build_polytope(spec)
        for ang in rng.uniform(0.0, 2.0 * math.pi, size=500):
            theta = Direction(np.array([math.cos(ang), math.sin(ang)]))
            x = polar_point(radial(poly, theta), theta)
            vals = np.array(
                [busemann_value(Direction(d), x) for d in spec.directions]
            )
            assert np.all(vals <= spec.x + 1e-9)
            assert np.min(spec.x - vals) <= 1e-9


# ------------------------------------------------------------------ support

def test_lens_support_goldens(lens):
    e = Direction(np.array([1.0, 0.0]))
    minus = Direction(np.array([-1.0, 0.0]))
    perp = Direction(np.array([0.0, 1.0]))
    assert support(lens, e) == pytest.approx(LOG2, abs=1e-9)
    assert support(lens, minus) == pytest.approx(LOG2, abs=1e-9)
    val = support(lens, perp)
    upper = math.log(math.cosh(ACOSH2) + math.sinh(ACOSH2))
    assert ACOSH2 - 1e-6 <= val <= upper + 1e-12


def _golden_max(fun, lo, hi, iters=70):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = fun(d)
    return max(fc, fd)


def test_support_dense_grid_oracle():
    # dense grid localizes the boundary maximum of the horofunction, then a
    # golden section pass (none of the library's refinement code) pins it down
    rng = np.random.Generator(np.random.Philox(8))
    spec = random_spec(rng, 4)
    poly = build_polytope(spec)
    count = 20000
    angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    thetas = np.column_stack([np.cos(angles), np.sin(angles)])
    rho = _radial_rows(spec, thetas)
    a, b = np.cosh(rho), np.sinh(rho)
    gap = 2.0 * math.pi / count
    for ang in rng.uniform(0.0, 2.0 * math.pi, size=20):
        e = np.array([math.cos(ang), math.sin(ang)])

        def horofun(t):
            theta = np.array([math.cos(t), math.sin(t)])
            r = float(_radial_rows(spec, theta[None, :])[0])
            return math.log(math.cosh(r) - math.sinh(r) * float(theta @ e))

        vals = np.log(a - b * (thetas @ e))
        peak = float(angles[int(np.argmax(vals))])
        want = max(float(np.max(vals)), _golden_max(horofun, peak - gap, peak + gap))
        assert support(poly, Direction(e)) == pytest.approx(want, abs=1e-8)


def test_eq_3_7_sandwich_and_extremal_radii():
    rng = np.random.Generator(np.random.Philox(9))
    grid = build_quadrature(1, 10000)
    for _ in range(3):
        spec = random_spec(rng, 4)
        poly = build_polytope(spec, scan=grid)
        big_r, small_r = extremal_radii(poly)
        sup = _support_grid(poly, grid.nodes)
        assert abs(float(np.max(sup)) - big_r) <= 1e-3
        assert abs(float(np.min(sup)) - small_r) <= 1e-3
        # the inradius is exactly the smallest listed scale
        assert small_r == pytest.approx(float(np.min(spec.x)), abs=1e-7)


def test_lens_extremal_radii(lens):
    big_r, small_r = extremal_radii(lens)
    assert big_r == pytest.approx(ACOSH2, abs=1e-9)
    assert small_r == pytest.approx(LOG2, abs=1e-9)


def test_ball_wulff_limit():
    # constant scales over a dense grid approximate the geodesic ball
    r0 = 1.0
    count = 1024
    ang = 2.0 * math.pi * np.arange(count) / count
    spec = PolytopeSpec(
        n=1,
        directions=np.column_stack([np.cos(ang), np.sin(ang)]),
        x=np.full(count, r0),
    )
    poly = build_polytope(spec)
    big_r, small_r = extremal_radii(poly)
    assert big_r == pytest.approx(r0, abs=1e-4)
    assert small_r == pytest.approx(r0, abs=1e-9)
    ball_volume = 2.0 * math.pi * (math.cosh(r0) - 1.0)
    assert volume(poly) == pytest.approx(ball_volume, rel=1e-3)


# ------------------------------------------------------------------- volume

def test_lens_volume_golden(lens):
    assert volume(lens) == pytest.approx(4.0 * (math.sqrt(3.0) - math.pi / 3.0), abs=1e-12)


def test_small_planar_volumes_keep_their_digits():
    # the lens of scale s has area 4 (h - atan h), h = sqrt(expm1(2 s)), by
    # Gauss-Bonnet (its corners have angle 2 atan h); below h = 0.05 the
    # series h^3 (1/3 - h^2/5 + ...) gives h - atan h without cancellation
    for s in (1e-3, 1e-4, 1e-6, 1e-9, 1e-12):
        h = math.sqrt(math.expm1(2.0 * s))
        want = 4.0 * h**3 * sum((-h * h) ** k / (2 * k + 3) for k in range(8))
        assert volume(build_polytope(lens_spec(s))) == pytest.approx(want, rel=1e-12, abs=0.0)
    # no planar volume is negative, down to bodies of scale 1e-12; there the
    # regular 16-gon's sides, about 4e-13, are all below _ARC_TOL, and the
    # body is refused as one that cannot be resolved
    rng = np.random.Generator(np.random.Philox(25))
    for scale in (1.0, 1e-3, 1e-6, 1e-9, 1e-12):
        for m in (2, 3, 5, 16):
            ang = 2.0 * math.pi * np.arange(m) / m
            regular = PolytopeSpec(
                n=1, directions=np.column_stack([np.cos(ang), np.sin(ang)]), x=np.full(m, scale)
            )
            scattered = scattered_spec(rng, m)
            for spec in (regular, scattered.with_x(scale * scattered.x)):
                if spec is regular and (scale, m) == (1e-12, 16):
                    with pytest.raises(DegenerateBodyError, match="too small to resolve"):
                        build_polytope(spec)
                else:
                    assert volume(build_polytope(spec)) > 0.0


def planar_volume_50_digits(spec: PolytopeSpec):
    """Sum over horocycles j of the sector integral of _volume_closed_plane,
    int (sinh x + s^2 / (2 E)) / (cosh x + 1 + s^2 / (2 E)) ds over the arc
    [lo_j, hi_j] = intersection over k of [c_jk - w_jk, c_jk + w_jk],
    all at 50 digits, for the unit directions nearest the spec's (which are
    unit only to roundoff, a difference the sums below would amplify by
    about 1 / scale)."""
    import mpmath

    with mpmath.workdps(50):
        e = [[mpmath.mpf(float(v)) for v in row] for row in spec.directions]
        e = [[v / mpmath.sqrt(row[0] ** 2 + row[1] ** 2) for v in row] for row in e]
        xs = [mpmath.mpf(float(v)) for v in spec.x]
        total = mpmath.mpf(0)
        for j, (ej, xj) in enumerate(zip(e, xs)):
            big = mpmath.exp(xj)
            lo, hi = -mpmath.inf, mpmath.inf
            for k, (ek, xk) in enumerate(zip(e, xs)):
                if k != j:
                    chord = (ek[0] - ej[0]) ** 2 + (ek[1] - ej[1]) ** 2
                    # T_j e_k, with T_j = e_j turned by -pi/2
                    c = 2 * big * (ej[1] * ek[0] - ej[0] * ek[1]) / chord
                    w = mpmath.sqrt(4 * big * mpmath.exp(xk) / chord - 1)
                    lo, hi = max(lo, c - w), min(hi, c + w)
            if hi > lo:
                lift = lambda s: s * s / (2 * big)  # noqa: E731
                total += mpmath.quad(
                    lambda s: (mpmath.sinh(xj) + lift(s)) / (mpmath.cosh(xj) + 1 + lift(s)), [lo, hi]
                )
        return total


def test_small_regular_polygons_keep_their_digits():
    # the arc ends c - w cancelled to the body's size, which left relative
    # volume errors of up to 5.2e-7 at scale 1e-9; measured now: 2.3e-15
    for m in (3, 4, 7, 16):
        ang = 2.0 * math.pi * np.arange(m) / m
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
        for scale in (1e-6, 1e-9):
            spec = PolytopeSpec(n=1, directions=dirs, x=np.full(m, scale))
            want = planar_volume_50_digits(spec)
            assert abs(volume(build_polytope(spec)) / float(want) - 1.0) <= 1e-14


def test_volume_monotone_in_scales():
    rng = np.random.Generator(np.random.Philox(10))
    spec = random_spec(rng, 4, x_range=(0.5, 1.5))
    bigger = spec.with_x(spec.x + rng.uniform(0.0, 0.5, size=4))
    pa, pb = build_polytope(spec), build_polytope(bigger)
    assert volume(pb) >= volume(pa)
    for ang in rng.uniform(0.0, 2.0 * math.pi, size=100):
        theta = Direction(np.array([math.cos(ang), math.sin(ang)]))
        assert radial(pb, theta) >= radial(pa, theta) - 1e-12


def test_volume_isometry_invariance():
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(3):
        spec = random_spec(rng, 4, x_range=(1.2, 2.5))
        poly = build_polytope(spec)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        iso = Isometry.boost(
            Direction(np.array([math.cos(ang), math.sin(ang)])),
            rng.uniform(0.2, 1.0),
        )
        moved = transformed_body(poly, iso)
        v0, v1 = volume(poly), volume(moved)
        assert abs(v0 - v1) / v0 <= 1e-12


# ------------------------------------------------------------------- facets

def test_lens_facet_area_golden(lens):
    for i in range(2):
        assert facet_area(lens, i) == pytest.approx(LENS_FACET_LOG2, abs=1e-9)


def test_asymmetric_lens_facet_area():
    x1, x2 = 0.4, 0.9
    spec = PolytopeSpec(
        n=1, directions=np.array([[1.0, 0.0], [-1.0, 0.0]]), x=np.array([x1, x2])
    )
    poly = build_polytope(spec)
    want = 2.0 * math.sqrt(math.exp(x1 + x2) - 1.0)
    assert facet_area(poly, 0) == pytest.approx(want, abs=1e-9)
    assert facet_area(poly, 1) == pytest.approx(want, abs=1e-9)


def test_lens_facet_area_3d():
    poly = build_polytope(lens_spec(n=2))
    got = facet_area(poly, 0)
    assert got == pytest.approx(3.0 * math.pi, abs=1e-9)
    assert facet_area(poly, 0) == got


def test_redundant_facet_is_empty():
    spec = PolytopeSpec(
        n=1,
        directions=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
        x=np.array([LOG2, LOG2, 10.0]),
    )
    poly = build_polytope(spec)
    assert not poly.facet_nonempty[2]
    assert facet_area(poly, 2) == 0.0
    assert poly.facet_nonempty[0] and poly.facet_nonempty[1]
    assert facet_area(poly, 0) == pytest.approx(LENS_FACET_LOG2, abs=1e-9)


def test_facet_area_fd_matches_direct(lens):
    fd = facet_area_fd(lens, 0)
    assert fd == pytest.approx(LENS_FACET_LOG2, rel=1e-3)
    rng = np.random.Generator(np.random.Philox(12))
    for _ in range(3):
        spec = random_spec(rng, int(rng.integers(3, 6)))
        poly = build_polytope(spec)
        direct = all_facet_areas(poly)
        for i in range(spec.count):
            fd = facet_area_fd(poly, i)
            assert abs(direct[i] - fd) / max(direct[i], 1e-8) <= 1e-3


def test_facet_area_near_the_chart_antipode():
    # e_0 sits 3e-4 rad from -e* = (0, 0, -1), where a rotation of e_i to e*
    # used to fail its Lorentz check
    tilt = 3e-4
    axis = np.array([math.sin(tilt), 0.0, -math.cos(tilt)])
    spec = PolytopeSpec(n=2, directions=np.array([axis, -axis]), x=np.array([LOG2, LOG2]))
    poly = build_polytope(spec)
    for i in range(2):
        assert facet_area(poly, i) == pytest.approx(3.0 * math.pi, abs=1e-9)


def test_facet_index_out_of_range(lens):
    with pytest.raises(IndexError):
        facet_area(lens, 2)
    with pytest.raises(IndexError):
        facet_area_fd(lens, -1)


def test_surface_measure(lens):
    # the p-weighted surface measure e^{-p u_k} S_k, formed once, by the
    # solver's residual: the lens solves it with lambda = 1 and residual 0
    area = 2.0 * math.sqrt(math.exp(2 * LOG2) - 1.0)
    for p in (0.0, 1.7):
        weights = np.exp(-p * lens.canonical_support) * area
        mu = DiscreteMeasure(n=1, directions=lens.spec.directions, weights=weights)
        lam, res = residual(lens, mu, p)
        assert lam == pytest.approx(1.0, rel=1e-12)
        assert res <= 1e-12


def test_evenness_invariants():
    rng = np.random.Generator(np.random.Philox(13))
    spec = random_spec(rng, 3, even=True)
    poly = build_polytope(spec)
    m = 3
    for i in range(m):
        u_plus = support(poly, Direction(spec.directions[i]))
        u_minus = support(poly, Direction(spec.directions[m + i]))
        assert abs(u_plus - u_minus) <= 1e-9
        s_plus = facet_area(poly, i)
        s_minus = facet_area(poly, m + i)
        assert abs(s_plus - s_minus) <= 1e-6


# ---------------------------------------------------------------- distances

def test_hausdorff_axioms(lens):
    assert hausdorff_distance(lens, lens) == 0.0
    rng = np.random.Generator(np.random.Philox(14))
    a = build_polytope(random_spec(rng, 3, x_range=(0.8, 1.5)))
    b = build_polytope(random_spec(rng, 4, x_range=(0.8, 1.5)))
    c = build_polytope(random_spec(rng, 3, x_range=(0.8, 1.5)))
    dab, dba = hausdorff_distance(a, b), hausdorff_distance(b, a)
    assert dab == dba
    assert dab > 0.0
    dac = hausdorff_distance(a, c)
    dbc = hausdorff_distance(b, c)
    assert dac <= dab + dbc + 2e-4


def test_hausdorff_lens_pair_dense_oracle():
    a = build_polytope(lens_spec(1.0))
    b = build_polytope(lens_spec(1.2))
    got = hausdorff_distance(a, b)
    # the largest support gap over 10240 sampled angles bounds it from below
    angles = 2.0 * math.pi * np.arange(10240) / 10240
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    dense = float(np.max(np.abs(_support_grid(a, dirs) - _support_grid(b, dirs))))
    assert dense - 1e-12 <= got <= dense + 1e-4
    # support gap at the listed directions is 0.2; the max lives at the equator
    equator_gap = math.acosh(math.exp(1.2)) - math.acosh(math.exp(1.0))
    assert got == pytest.approx(equator_gap, abs=1e-6)


# ---------------------------------------------------------- planar closed forms

def scattered_spec(rng, m: int) -> PolytopeSpec:
    """Random n=1 spec without a gap condition, so some horoballs are redundant."""
    ang = rng.uniform(0.0, 2.0 * math.pi, size=m)
    return PolytopeSpec(
        n=1,
        directions=np.column_stack([np.cos(ang), np.sin(ang)]),
        x=rng.uniform(0.3, 2.5, size=m),
    )


def test_planar_results_do_not_depend_on_the_scan():
    rng = np.random.Generator(np.random.Philox(21))
    scans = (
        build_quadrature(1, 64),
        None,
        build_quadrature(1, 777, kind="monte-carlo", seed=3),
    )
    probes = np.column_stack([np.cos(np.arange(7.0)), np.sin(np.arange(7.0))])
    for m in (2, 3, 5, 9):
        spec, other = scattered_spec(rng, m), scattered_spec(rng, m + 1)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        theta = Direction(np.array([math.cos(ang), math.sin(ang)]))
        results = []
        for scan in scans:
            poly = build_polytope(spec, scan=scan)
            q = polar_point(radial(poly, theta) + 0.5, theta)
            ball = separate(poly, q)
            results.append(
                (
                    poly.canonical_support,
                    poly.facet_nonempty,
                    all_facet_areas(poly),
                    np.array(extremal_radii(poly)),
                    np.array([support(poly, Direction(e)) for e in probes]),
                    np.array([volume(poly), hausdorff_distance(poly, build_polytope(other, scan))]),
                    np.append(ball.center.vector, ball.s),
                )
            )
        for got in results[1:]:
            for want, value in zip(results[0], got):
                assert np.array_equal(want, value)


def test_planar_facet_lengths_are_volume_derivatives():
    rng = np.random.Generator(np.random.Philox(22))
    redundant = 0
    for _ in range(24):
        spec = scattered_spec(rng, int(rng.integers(3, 17)))
        poly = build_polytope(spec)
        redundant += int(np.count_nonzero(~poly.facet_nonempty))
        for i in range(spec.count):
            direct = facet_area(poly, i)
            fd = facet_area_fd(poly, i, delta=1e-5)
            assert abs(direct - fd) <= 1e-6 * (1.0 + direct)
    assert redundant > 0


def test_planar_hausdorff_bounds_dense_sampling():
    rng = np.random.Generator(np.random.Philox(23))
    angles = np.linspace(0.0, 2.0 * math.pi, 100_000, endpoint=False)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    for _ in range(6):
        a = build_polytope(scattered_spec(rng, int(rng.integers(2, 9))))
        b = build_polytope(scattered_spec(rng, int(rng.integers(2, 9))))
        exact = hausdorff_distance(a, b)
        sampled = float(np.max(np.abs(_support_grid(a, dirs) - _support_grid(b, dirs))))
        # the sampled angles are a subset of the circle; 1e-12 absorbs roundoff
        assert exact >= sampled - 1e-12
        assert exact - sampled <= 1e-4
        assert hausdorff_distance(b, a) == exact


def test_planar_separate_returns_the_nearest_point():
    rng = np.random.Generator(np.random.Philox(24))
    angles = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
    thetas = np.column_stack([np.cos(angles), np.sin(angles)])
    for _ in range(3):
        spec = scattered_spec(rng, int(rng.integers(3, 7)))
        poly = build_polytope(spec)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        theta = Direction(np.array([math.cos(ang), math.sin(ang)]))
        q = polar_point(radial(poly, theta) + rng.uniform(0.1, 1.5), theta)
        ball = separate(poly, q)
        gap = busemann_value(ball.center, q) - ball.s
        cosines = thetas @ spec.directions.T
        rho = np.array(
            [min(radial_bisection(s, c) for s, c in zip(spec.x, row)) for row in cosines]
        )
        boundary = np.column_stack([np.sinh(rho)[:, None] * thetas, np.cosh(rho)])
        cosh_dists = boundary[:, 2] * q.coords[2] - boundary[:, :2] @ q.coords[:2]
        dists = np.arccosh(np.maximum(cosh_dists, 1.0))
        assert gap <= float(np.min(dists)) + 1e-9


def test_triple_point_body():
    # the canonicalized redundant horoball meets both lens vertices' horocycles
    # at one point: one vertex, and an empty facet for the touching ball
    spec = PolytopeSpec(
        n=1,
        directions=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
        x=np.array([LOG2, LOG2, ACOSH2]),
    )
    poly = build_polytope(spec)
    assert poly.facet_nonempty.tolist() == [True, True, False]
    assert poly.boundary.starts.shape == (2, 3)
    assert np.allclose(all_facet_areas(poly), [LENS_FACET_LOG2, LENS_FACET_LOG2, 0.0], atol=1e-12)
    assert volume(poly) == pytest.approx(LENS_VOLUME_LOG2, abs=1e-12)
    assert np.allclose(poly.canonical_support, spec.x, atol=1e-12)
    assert extremal_radii(poly) == pytest.approx((ACOSH2, LOG2), abs=1e-12)


def all_pairs_boundary(spec: PolytopeSpec):
    """(active, lo, hi) of a planar body from every horoball's interval on
    every horocycle: the m x m intersection, with no angular order."""
    rows = np.arange(spec.count)
    center, width_sq, power, same = _shadows(spec, rows[:, None], rows[None, :])
    center = center[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        width = np.sqrt(np.maximum(width_sq, 0.0))
        below = np.signbit(center)
        far = center + np.copysign(width, center)
        near = power / far
        lo = np.max(np.where(same, -np.inf, np.where(below, far, near)), axis=1)
        hi = np.min(np.where(same, np.inf, np.where(below, near, far)), axis=1)
    # of horoballs about one ideal point the smallest, first listed, keeps its arc
    x, (i, k) = spec.x, np.nonzero(same)
    eclipsed = np.zeros(spec.count, dtype=bool)
    eclipsed[i[(x[k] < x[i]) | ((x[k] == x[i]) & (k < i))]] = True
    missed = np.any(~same & (width_sq < 0.0), axis=1)
    tol = polytope._ARC_TOL * (1.0 + np.abs(lo) + np.abs(hi))
    return ~(eclipsed | missed) & (hi - lo > tol), lo, hi


def planar_stress_corpus(count: int, seed: int):
    """Planar specs: random, with exact duplicates (equal and unequal
    scales), with directions 1e-9 rad apart, and equal-scale regular
    polygons; 2 to 39 horoballs, every 20th up to 300, at scales from
    1e-11 to 200."""
    rng = np.random.Generator(np.random.Philox(seed))
    for t in range(count):
        kind, m = t % 5, int(rng.integers(2, 300 if t % 20 == 0 else 40))
        ang = rng.uniform(0.0, 2.0 * math.pi, size=m)
        scale = 10.0 ** rng.uniform(-11.0, math.log10(200.0))
        x = scale * rng.uniform(0.5, 1.0, size=m)
        if kind == 1:
            ang = np.concatenate([ang, ang[: m // 2 + 1]])
            x = np.concatenate([x, x[: m // 2 + 1] if t % 2 else scale * rng.uniform(0.5, 1.0, m // 2 + 1)])
        elif kind == 2:
            ang = np.concatenate([ang, ang[: m // 2 + 1] + 1e-9 * rng.choice([-1.0, 1.0], m // 2 + 1)])
            x = np.concatenate([x, scale * rng.uniform(0.5, 1.0, m // 2 + 1)])
        elif kind == 3:
            ang, x = rng.uniform(0.0, 1.0) + 2.0 * math.pi * np.arange(m) / m, np.full(m, scale)
        yield PolytopeSpec(n=1, directions=np.column_stack([np.cos(ang), np.sin(ang)]), x=x)


def test_planar_boundary_matches_the_all_pairs_intersection():
    # the angular-neighbour pass keeps the arcs of the m x m intersection,
    # bit for bit
    for spec in planar_stress_corpus(2000, seed=170):
        arcs = polytope._planar_boundary(spec)
        active, lo, hi = all_pairs_boundary(spec)
        assert np.array_equal(arcs.active, active)
        assert np.array_equal(arcs.lo[active], lo[active])
        assert np.array_equal(arcs.hi[active], hi[active])


def test_specs_from_one_template_follow_their_own_kept_horoballs():
    # two horoballs about direction 0: the smaller keeps the arc, so which
    # one does changes with the scales, and a spec made by with_x must not
    # read the first pass its template made for the other
    ang = 2.0 * math.pi * np.arange(7) / 7
    rows = np.column_stack([np.cos(ang), np.sin(ang)])
    spec = PolytopeSpec(n=1, directions=np.vstack([rows, rows[:1]]), x=np.r_[np.ones(7), 1.2])
    for x in (spec.x, np.r_[1.2, np.ones(6), 1.0], spec.x):
        arcs = polytope._planar_boundary(spec.with_x(x))
        active, lo, hi = all_pairs_boundary(PolytopeSpec(n=1, directions=spec.directions, x=x))
        assert np.array_equal(arcs.active, active)
        assert np.array_equal(arcs.lo[active], lo[active])
        assert np.array_equal(arcs.hi[active], hi[active])


def test_planar_build_cuts_each_arc_by_its_neighbours(monkeypatch):
    pairs = []
    shadows = polytope._shadows

    def counted(spec, j, k, terms=None):
        pairs.append(np.broadcast(j, k).size)
        return shadows(spec, j, k, terms)

    monkeypatch.setattr(polytope, "_shadows", counted)
    ang = 2.0 * math.pi * np.arange(256) / 256
    polygon = PolytopeSpec(n=1, directions=np.column_stack([np.cos(ang), np.sin(ang)]), x=np.full(256, 0.9))
    poly = build_polytope(polygon)
    assert np.all(poly.facet_nonempty)
    # 65280 pairs for every horoball on every other one
    assert sum(pairs) <= 256 * 2 * polytope._WINDOW


# ------------------------------------------------------------ n = 2 closed forms

def even_sphere_spec(rng, pairs: int, x_range=(0.3, 1.5)) -> PolytopeSpec:
    """Random even n=2 spec: `pairs` Gaussian directions and their antipodes."""
    raw = rng.normal(size=(pairs, 3))
    rows = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    x = rng.uniform(*x_range, size=pairs)
    return PolytopeSpec(
        n=2, directions=np.vstack([rows, -rows]), x=np.concatenate([x, x]), even=True
    )


def n2_corpus(count: int = 40, seed: int = 31) -> list:
    rng = np.random.Generator(np.random.Philox(seed))
    return [even_sphere_spec(rng, int(rng.integers(2, 7))) for _ in range(count)]


def nelder_mead_undershoot_spec() -> PolytopeSpec:
    # a scan refined by Nelder-Mead puts the support number of direction 2
    # 1.4e-5 below that of its antipode, direction 6
    rng = np.random.default_rng(11)
    for _ in range(4):
        spec = even_sphere_spec(rng, int(rng.integers(2, 6)), x_range=(0.5, 1.5))
    return spec


def chart_points(spec, i, s) -> np.ndarray:
    """X_i(s) on horosphere i, s given in its flat chart (rows)."""
    e, x = spec.directions[i], float(spec.x[i])
    lift = np.sum(s * s, axis=1) / (2.0 * math.exp(x))
    spatial = (lift - math.sinh(x))[:, None] * e + s @ _chart_frames(spec.directions[[i]])[0]
    return np.column_stack([spatial, math.cosh(x) + lift])


def exp_busemann(points, directions) -> np.ndarray:
    """-<X, (e, 1)> for every point (rows) and direction (columns)."""
    return points[:, -1:] - points[:, :-1] @ directions.T


def test_shadow_circles_lie_on_both_horospheres():
    rng = np.random.Generator(np.random.Philox(30))
    turns = np.linspace(0.0, 2.0 * math.pi, 7)
    for spec in n2_corpus(5, seed=30) + [random_spec(rng, 5)]:
        rows = np.arange(spec.count)
        center, width_sq, _, same = _shadows(spec, rows[:, None], rows[None, :])
        for i in rows:
            for k in np.flatnonzero(~same[i] & (width_sq[i] > 0.0)):
                if spec.n == 1:
                    s = center[i, k] + math.sqrt(width_sq[i, k]) * np.array([[-1.0], [1.0]])
                else:
                    u = np.column_stack([np.cos(turns), np.sin(turns)])
                    s = center[i, k] + math.sqrt(width_sq[i, k]) * u
                points = chart_points(spec, i, s)
                lorentz = np.sum(points[:, :-1] ** 2, axis=1) - points[:, -1] ** 2
                assert np.allclose(lorentz, -1.0, atol=1e-9)
                values = exp_busemann(points, spec.directions[[i, k]])
                assert np.allclose(values, np.exp(spec.x[[i, k]]), rtol=1e-12)


def mc_facet_area(spec, i, samples, rng) -> tuple[float, float]:
    """(estimate, standard error) of the common part of the disks that the
    other horoballs cut from horosphere i, from uniform points in the
    overlap of the disks' bounding boxes."""
    center, width_sq, _, same = _shadows(spec, np.array([[i]]), np.arange(spec.count)[None, :])
    if np.any(width_sq[0, ~same[0]] <= 0.0):
        return 0.0, 0.0
    c, w = center[0, ~same[0]], np.sqrt(width_sq[0, ~same[0]])
    low, high = np.max(c - w[:, None], axis=0), np.min(c + w[:, None], axis=0)
    if np.any(low >= high):
        return 0.0, 0.0
    corners = np.array([low, [low[0], high[1]], [high[0], low[1]], high])
    # a disk that holds the whole box rejects no point
    cuts = np.max(np.linalg.norm(corners[None, :, :] - c[:, None, :], axis=2), axis=1) > w
    px, py = rng.uniform(low, high, size=(samples, 2)).T
    inside = np.ones(samples, dtype=bool)
    for ck, wk in zip(c[cuts], w[cuts]):
        inside &= (px - ck[0]) ** 2 + (py - ck[1]) ** 2 <= wk * wk
    box, hit = float(np.prod(high - low)), float(np.mean(inside))
    # no hits (or no misses) still leaves a resolution of one sample
    return box * hit, box * math.sqrt(max(hit * (1.0 - hit), 1.0 / samples) / samples)


def test_n2_facet_areas_match_monte_carlo():
    rng = np.random.Generator(np.random.Philox(32))
    scores = []
    for spec in n2_corpus():
        poly = build_polytope(spec)
        # antipodal facets of an even body are congruent: one per pair
        for i in range(spec.count // 2):
            estimate, stderr = mc_facet_area(spec, i, 500_000, rng)
            if estimate == 0.0:
                assert facet_area(poly, i) <= 3.0 * stderr
            else:
                scores.append((facet_area(poly, i) - estimate) / stderr)
    scores = np.array(scores)
    assert scores.size >= 80
    # 3 sigma for the pooled mean, and for the largest of the independent
    # scores at the same family-wise level (Sidak)
    assert abs(float(np.mean(scores))) <= 3.0 / math.sqrt(scores.size)
    level = 2.0 * NormalDist().cdf(-3.0)
    worst = NormalDist().inv_cdf(1.0 - 0.5 * (1.0 - (1.0 - level) ** (1.0 / scores.size)))
    assert float(np.max(np.abs(scores))) <= worst


def test_n2_facet_areas_are_volume_derivatives():
    for spec in n2_corpus():
        poly = build_polytope(spec)
        for i in range(spec.count):
            direct = facet_area(poly, i)
            assert abs(direct - facet_area_fd(poly, i, delta=1e-5)) <= 1e-6 * (1.0 + direct)


def test_n2_volume_matches_quadrature_and_monte_carlo():
    fine = build_quadrature(2, 1_000_000)
    for k, spec in enumerate(n2_corpus()[::5]):
        exact = volume(build_polytope(spec))
        quad = fine.integrate(sinh_power_integral(2, _radial_rows(spec, fine.nodes)))
        assert abs(exact - quad) <= 1e-6 * exact
        estimate, stderr = mc_volume(build_polytope(spec), num_samples=250_000, seed=40 + k)
        assert abs(exact - estimate) <= 3.0 * stderr


def test_n2_support_numbers_bound_sampled_boundaries():
    # below: no boundary point found by bisection along 600 rays beats the
    # support number; above: it is attained, within 1e-6, at a point of
    # the arcs that lies in every horoball and on the bisected boundary
    rng = np.random.Generator(np.random.Philox(33))
    count = 600
    golden = math.pi * (3.0 - math.sqrt(5.0)) * np.arange(count)
    height = 1.0 - (np.arange(count) + 0.5) * 2.0 / count
    ring = np.sqrt(1.0 - height**2)
    thetas = np.column_stack([ring * np.cos(golden), ring * np.sin(golden), height])
    for spec in n2_corpus(4, seed=34):
        poly = build_polytope(spec)
        probes = rng.normal(size=(4, 3))
        probes = np.vstack([spec.directions, probes / np.linalg.norm(probes, axis=1, keepdims=True)])
        exact = _support_grid(poly, probes)
        rho = np.array(
            [min(radial_bisection(s, c) for s, c in zip(spec.x, row)) for row in thetas @ spec.directions.T]
        )
        sampled = np.log(np.cosh(rho)[:, None] - np.sinh(rho)[:, None] * (thetas @ probes.T))
        assert np.all(exact >= np.max(sampled, axis=0) - 1e-12)
        arcs = poly.boundary
        points = []
        for a in range(arcs.facet.size):
            t = np.linspace(arcs.lo[a], arcs.hi[a], 4001)
            s = arcs.center[a] + arcs.width[a] * np.column_stack([np.cos(t), np.sin(t)])
            points.append(chart_points(spec, arcs.facet[a], s))
        points = np.vstack(points)
        values = np.log(exp_busemann(points, probes))
        for q in range(probes.shape[0]):
            best = points[int(np.argmax(values[:, q]))]
            assert -1e-12 <= exact[q] - values[:, q].max() <= 1e-6
            assert np.all(np.log(exp_busemann(best[None, :], spec.directions))[0] <= spec.x + 1e-12)
            theta = best[:3] / np.linalg.norm(best[:3])
            reach = min(radial_bisection(s, c) for s, c in zip(spec.x, spec.directions @ theta))
            assert math.asinh(np.linalg.norm(best[:3])) == pytest.approx(reach, abs=1e-9)


def test_n2_even_bodies_are_symmetric_and_canonical():
    rng = np.random.Generator(np.random.Philox(36))
    probes = rng.normal(size=(50, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    for spec in n2_corpus() + [nelder_mead_undershoot_spec()]:
        poly = build_polytope(spec)
        m = spec.count // 2
        u = poly.canonical_support
        assert np.max(np.abs(u[:m] - u[m:])) <= 1e-12
        assert np.max(np.abs(_support_grid(poly, probes) - _support_grid(poly, -probes))) <= 1e-12
        v = volume(poly)
        assert abs(_volume_of_spec(canonicalize(poly), None) - v) <= 1e-12 * v


def test_n2_results_do_not_depend_on_the_scan(monkeypatch):
    scans = (
        build_quadrature(2, 900, kind="monte-carlo", seed=5),
        None,
        build_quadrature(2, 4096),
    )
    probes = np.array([[0.6, 0.0, 0.8], [0.0, -1.0, 0.0], [-0.48, 0.6, 0.64]])
    calls = []
    radial_matrix = polytope.radial_matrix

    def counted(*args):
        calls.append(None)
        return radial_matrix(*args)

    for spec in n2_corpus(3, seed=35):
        theta = Direction(np.array([0.36, 0.48, -0.8]))
        q = polar_point(radial(build_polytope(spec), theta) + 0.4, theta)
        results = []
        for scan in scans:
            monkeypatch.setattr(polytope, "radial_matrix", counted)
            poly = build_polytope(spec, scan=scan)
            radii, ball = extremal_radii(poly), separate(poly, q)
            monkeypatch.undo()
            # an n = 2 body keeps no scan and evaluates no radial function
            assert poly.scan is None and poly.scan_radii is None
            assert calls == []
            results.append(
                (
                    poly.canonical_support,
                    poly.facet_nonempty,
                    all_facet_areas(poly),
                    volume(poly),
                    np.array([support(poly, Direction(e)) for e in probes]),
                    np.array(radii),
                    np.append(ball.center.vector, ball.s),
                )
            )
        for got in results[1:]:
            for want, value in zip(results[0], got):
                assert np.array_equal(want, value)


def fibonacci_sphere(count: int) -> np.ndarray:
    golden = math.pi * (3.0 - math.sqrt(5.0)) * np.arange(count)
    height = 1.0 - (np.arange(count) + 0.5) * 2.0 / count
    ring = np.sqrt(1.0 - height**2)
    return np.column_stack([ring * np.cos(golden), ring * np.sin(golden), height])


def test_n2_separate_and_extremal_radii_against_dense_boundaries():
    # the nearest point must be exact: a ball through a point 1e-6 short of
    # it cuts sampled boundary points by about that much
    rng = np.random.Generator(np.random.Philox(41))
    cube = PolytopeSpec(
        n=2, directions=np.vstack([np.eye(3), -np.eye(3)]), x=np.full(6, 0.5), even=True
    )
    # a body of scale 1e-9, where cosh of the circumradius rounds to 1
    tiny = even_sphere_spec(np.random.Generator(np.random.Philox(43)), 4, x_range=(1e-9, 2e-9))
    specs = [even_sphere_spec(rng, int(rng.integers(2, 6))) for _ in range(20)] + [tiny, cube]
    thetas = fibonacci_sphere(40_000)
    # toward a facet, an edge and a vertex of the cube, then random directions
    aims = [np.array([0.3, 0.2, 1.0]), np.array([1.0, 1.0, 0.1]), np.ones(3)]
    redundant = 0
    for k, spec in enumerate(specs):
        poly = build_polytope(spec)
        redundant += int(np.count_nonzero(~poly.facet_nonempty))
        rho = _radial_rows(spec, thetas)
        boundary = np.column_stack([np.sinh(rho)[:, None] * thetas, np.cosh(rho)])
        big_r, small_r = extremal_radii(poly)
        assert big_r >= float(np.max(rho)) - 1e-12
        assert small_r == float(np.min(spec.x))
        for aim in aims if k == len(specs) - 1 else [rng.normal(size=3)]:
            theta = Direction(aim / np.linalg.norm(aim))
            q = polar_point(radial(poly, theta) + rng.uniform(0.05, 1.5), theta)
            ball = separate(poly, q)
            assert not horoball_contains(ball, q)
            excess = np.log(exp_busemann(boundary, ball.center.vector[None, :]))[:, 0] - ball.s
            assert float(np.max(excess)) <= 1e-9
            dists = np.arccosh(np.maximum(boundary @ np.append(-q.coords[:-1], q.coords[-1]), 1.0))
            assert busemann_value(ball.center, q) - ball.s <= float(np.min(dists)) + 1e-12
    assert redundant > 0


def test_inradius_is_the_smallest_scale():
    rng = np.random.Generator(np.random.Philox(42))
    for spec in [random_spec(rng, 5), even_sphere_spec(rng, 4), lens_spec(0.7, n=3)]:
        poly = build_polytope(spec, scan=build_quadrature(3, 500) if spec.n == 3 else None)
        assert extremal_radii(poly)[1] == float(np.min(spec.x))


def test_n3_volume_runs_no_support_refinement(monkeypatch):
    # a volume reads the scan radii only; support numbers wait for their
    # first use, and there share one refinement with support()
    runs = []
    original = polytope._nm_minimize

    def counted(*args, **kwargs):
        runs.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(polytope, "_nm_minimize", counted)
    dirs = np.vstack([np.eye(4), -np.eye(4)])
    spec = PolytopeSpec(n=3, directions=dirs, x=np.ones(8), even=True)
    scan = build_quadrature(3, 500)
    poly = build_polytope(spec, scan)
    assert volume(poly) == _volume_of_spec(spec, scan)
    assert len(runs) == 0
    assert poly.facet_nonempty.all()
    assert len(runs) == 8
    assert poly.canonical_support[5] == min(support(poly, Direction(dirs[5])), 1.0)
    assert len(runs) == 9


def test_n2_duplicate_and_nearly_coincident_horoballs():
    rng = np.random.Generator(np.random.Philox(38))
    base = even_sphere_spec(rng, 4, x_range=(0.4, 1.2))
    dirs, x = base.directions, base.x
    poly = build_polytope(base)
    top = int(np.argmax(all_facet_areas(poly)))
    # a copy of the largest facet's horoball cuts the same disk from every
    # other horosphere
    twin = build_polytope(
        PolytopeSpec(n=2, directions=np.vstack([dirs, dirs[top]]), x=np.append(x, x[top]))
    )
    assert volume(twin) == pytest.approx(volume(poly), rel=1e-12)
    assert np.allclose(all_facet_areas(twin), np.append(all_facet_areas(poly), 0.0), rtol=1e-12)
    # horoballs 2e-7 rad from that one cut disks of radius ~1e7 from its
    # horosphere; once canonicalized they touch the body
    for _ in range(6):
        tilt = dirs[top] + 2e-7 * np.cross(dirs[top], rng.normal(size=3))
        near = PolytopeSpec(
            n=2, directions=np.vstack([dirs, tilt]), x=np.append(x, x[top] + 0.3 * rng.random())
        )
        v = volume(build_polytope(near))
        assert v == pytest.approx(volume(poly), rel=1e-9)
        assert _volume_of_spec(canonicalize(build_polytope(near)), None) == pytest.approx(v, rel=1e-9)
    # one of equal scale 1e-9 rad away cuts the facet near its foot point:
    # both facets are bounded by a circle of radius ~1e9 (a central
    # difference would move it by 1e-5 / 1e-9 per unit step in x, so the
    # check is Monte-Carlo)
    tilt = dirs[top] + 1e-9 * np.cross(dirs[top], rng.normal(size=3))
    cut = build_polytope(
        PolytopeSpec(n=2, directions=np.vstack([dirs, tilt]), x=np.append(x, x[top]))
    )
    sampler = np.random.Generator(np.random.Philox(39))
    for i in (top, 8):
        estimate, stderr = mc_facet_area(cut.spec, i, 500_000, sampler)
        assert estimate > 0.1
        assert abs(facet_area(cut, i) - estimate) <= 3.0 * stderr
    # support numbers against dense points of the arcs, placed in 3-space
    arcs = cut.boundary
    points = np.vstack(
        [
            chart_points(cut.spec, arcs.facet[a], arcs.center[a] + arcs.width[a] * np.column_stack([np.cos(t), np.sin(t)]))
            for a in range(arcs.facet.size)
            for t in [np.linspace(arcs.lo[a], arcs.hi[a], 2001)]
        ]
    )
    probes = sampler.normal(size=(20, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    dense = np.max(np.log(exp_busemann(points, probes)), axis=0)
    exact = _support_grid(cut, probes)
    assert np.all(exact >= dense - 1e-12)
    assert np.all(exact - dense <= 1e-6)


def test_cube_vertices_meet_three_facets():
    spec = PolytopeSpec(
        n=2, directions=np.vstack([np.eye(3), -np.eye(3)]), x=np.full(6, 0.5), even=True
    )
    poly = build_polytope(spec)
    arcs = poly.boundary
    assert np.bincount(arcs.facet).tolist() == [4] * 6
    assert np.all(arcs.hi - arcs.lo > 0.1)
    for a in range(arcs.facet.size):
        for t in (arcs.lo[a], arcs.hi[a]):
            s = arcs.center[a] + arcs.width[a] * np.array([[math.cos(t), math.sin(t)]])
            gaps = exp_busemann(chart_points(spec, arcs.facet[a], s), spec.directions) - np.exp(spec.x)
            assert np.count_nonzero(np.abs(gaps) <= 1e-12) == 3
    areas = all_facet_areas(poly)
    assert areas.min() > 0.0
    assert np.ptp(areas) <= 1e-12 * areas.max()


def test_arc_near_the_foot_point():
    # horoball 2 cuts horosphere 0 along a circle that passes 1e-4 from the
    # foot point s = 0, where Psi = E (G(r) - G(x)) cancels to O(rho^2); the
    # body is turned off the axes, along which the product rule converges
    # slowly
    chart_gap = 1e-4
    big = 2.0
    width = big + chart_gap  # |c_02| = E_0 for orthogonal e_0, e_2
    turn, _ = np.linalg.qr(np.random.Generator(np.random.Philox(37)).normal(size=(3, 3)))
    spec = PolytopeSpec(
        n=2,
        directions=np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]) @ turn.T,
        x=np.array([math.log(big), math.log(big), math.log((width**2 + 1.0) / (2.0 * big))]),
    )
    poly = build_polytope(spec)
    arcs = poly.boundary
    on_foot = (arcs.facet == 0) & (np.abs(np.linalg.norm(arcs.center, axis=1) - arcs.width) < 2e-4)
    assert np.count_nonzero(on_foot) == 1
    a = int(np.flatnonzero(on_foot)[0])
    toward = math.atan2(-arcs.center[a, 1], -arcs.center[a, 0])
    assert np.mod(toward - arcs.lo[a], 2.0 * math.pi) <= arcs.hi[a] - arcs.lo[a]
    fine = build_quadrature(2, 1_000_000)
    quad = fine.integrate(sinh_power_integral(2, _radial_rows(spec, fine.nodes)))
    assert volume(poly) == pytest.approx(quad, rel=1e-6)
    for i in range(spec.count):
        direct = facet_area(poly, i)
        assert abs(direct - facet_area_fd(poly, i, delta=1e-5)) <= 1e-6 * (1.0 + direct)


def test_cone_kernel_matches_adaptive_quadrature():
    # the kernel is the mean of F / 2 over [cosh x, cosh x + delta]; below
    # delta = 1e-4 the rounding of cosh x + t spoils an adaptive rule, and
    # two-point Gauss (error delta^4 F / 4320) is the reference
    from scipy.integrate import quad

    def density(c, x):
        r = math.acosh(c)
        return (math.sinh(r) * c - r) * (c - math.exp(-x)) / (2.0 * math.sinh(r) ** 3)

    for x in (0.05, 0.7, 2.5):
        base = math.cosh(x)
        deltas = np.logspace(-14.0, 1.5, 32)
        for delta, value in zip(deltas, _cone_kernel(np.full(deltas.size, x), deltas)):
            if delta >= 1e-4:
                mean = quad(density, base, base + delta, args=(x,), epsabs=0.0, epsrel=1e-13)[0] / delta
            else:
                mean = 0.5 * sum(density(base + 0.5 * delta * (1.0 + t), x) for t in (-3**-0.5, 3**-0.5))
            assert value == pytest.approx(0.5 * mean, rel=1e-10)


def cube_volume_digits(s: float):
    """Volume of the cube with horoballs of scale s at +-e_1, +-e_2, +-e_3,
    integrated in polar coordinates about O at 80 digits.

    The facet of -e_3 is hit first along theta where theta_3 >= |theta_1|,
    |theta_2| (a horoball bounds the body on the side away from its ideal
    point), eight congruent triangles 0 <= v <= u <= 1 in the gnomonic
    coordinates theta ~ (u, v, 1); there cosh r - c sinh r = e^s with
    c = theta_3 gives the radial function, and the cone over d theta holds
    the integral of sinh(r)^2 from 0 to it, sinh(2 r) / 4 - r / 2. At s =
    1e-11 that difference, and log e^r, cost about 33 of the 80 digits."""
    import mpmath

    with mpmath.workdps(80):
        big = mpmath.exp(mpmath.mpf(s))

        def cone(u, v):
            q = 1 + u * u + v * v
            c = 1 / mpmath.sqrt(q)
            r = mpmath.log((big + mpmath.sqrt(big * big - 1 + c * c)) / (1 + c))
            return (mpmath.sinh(2 * r) / 4 - r / 2) / q ** mpmath.mpf(1.5)

        inner = lambda u: mpmath.quad(lambda v: cone(u, v), [0, u], method="gauss-legendre")  # noqa: E731
        return 48 * mpmath.quad(inner, [0, 1], method="gauss-legendre")


def test_small_cubes_keep_their_volume():
    # the kernel read arccosh(cosh x + delta), which rounds to 0 for small x
    # and delta: 4.5e-6 relative error at s = 1e-6, 6.7e-4 at 1e-7 and NaN
    # from 1e-8 on. Measured now: 5.6e-10 and 6.3e-10 at 1e-6 and 1e-7, at
    # most 1.7e-7 down to 1e-11. What is left comes from the chart disks
    # (_shadows), not from rho^2 along the arcs: with the disks formed at 50
    # digits, the error falls within 1e-26
    cube = PolytopeSpec(n=2, directions=np.vstack([np.eye(3), -np.eye(3)]), x=np.ones(6))
    for s in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11):
        got = volume(build_polytope(cube.with_x(np.full(6, s))))
        assert abs(got / float(cube_volume_digits(s)) - 1.0) <= (1e-9 if s >= 1e-7 else 2e-7)


def test_large_cubes_keep_their_volume_and_areas():
    # V e^{-2s} and S e^{-2s} tend to constants. _disk_intersection's Heron
    # product overflowed from s of about 177 on, and the kernel's sinh(r)^3
    # from about 236: V e^{-2s} read 6.8496 instead of 1.8909 from s = 180
    # on, with RuntimeWarnings (errors under this suite's filter)
    cube = PolytopeSpec(n=2, directions=np.vstack([np.eye(3), -np.eye(3)]), x=np.ones(6))
    scaled = []
    for s in (50.0, 100.0, 180.0, 240.0, 340.0):
        poly = build_polytope(cube.with_x(np.full(6, s)))
        scaled.append(np.array([volume(poly), facet_area(poly, 0)]) * math.exp(-2.0 * s))
    assert scaled[0][0] == pytest.approx(1.8908804617663, rel=1e-12)
    assert np.max(np.abs(np.array(scaled) / scaled[0] - 1.0)) <= 1e-13



def test_bodies_past_the_float_range_say_so():
    # the disks of _shadows hold e^(x_i + x_k); past the float range that
    # overflowed into "too small to resolve" (the square and the cube at
    # scale 356) or a volume of inf (the cube at 354), with RuntimeWarnings
    # (errors under this suite's filter)
    square = PolytopeSpec(n=1, directions=np.vstack([np.eye(2), -np.eye(2)]), x=np.ones(4))
    cube = PolytopeSpec(n=2, directions=np.vstack([np.eye(3), -np.eye(3)]), x=np.ones(6))
    # the square at 354 is in range: V = 8 (sqrt 2 - 1) e^s
    big = volume(build_polytope(square.with_x(np.full(4, 354.0))))
    assert big * math.exp(-354.0) == pytest.approx(8.0 * (math.sqrt(2.0) - 1.0), rel=1e-14)
    for spec, s in ((square, 356.0), (cube, 354.0), (cube, 356.0)):
        with pytest.raises(SpecError, match="past the float range"):
            build_polytope(spec.with_x(np.full(spec.count, s)))


def test_facets_with_many_disks_grow_their_sweep(monkeypatch):
    # e_3 and a ring of 16 directions at polar angle 0.5 (even, 17 pairs):
    # facet 0 is cut by all 16 ring disks, more than _SWEEP_START, so its
    # first sweep misses some and the growth loop adds them
    ring = 2.0 * math.pi * np.arange(16) / 16
    tilted = np.column_stack(
        [math.sin(0.5) * np.cos(ring), math.sin(0.5) * np.sin(ring), np.full(16, math.cos(0.5))]
    )
    rows = np.vstack([[0.0, 0.0, 1.0], tilted])
    spec = PolytopeSpec(n=2, directions=np.vstack([rows, -rows]), x=np.ones(34), even=True)
    poly = build_polytope(spec)
    assert np.count_nonzero(poly.boundary.facet == 0) == 16
    assert facet_area(poly, 0) == pytest.approx(facet_area_fd(poly, 0, delta=1e-5), abs=1e-6)
    ring_areas = np.array([facet_area(poly, i) for i in range(1, 17)])
    assert ring_areas == pytest.approx(np.full(16, ring_areas[0]), rel=1e-12)
    # one sweep over every disk gives the same arcs, bit for bit
    monkeypatch.setattr(polytope, "_SWEEP_START", 1000)
    whole = polytope._facet_arcs(spec)
    for name in ("facet", "center", "width", "lo", "hi", "active"):
        assert np.array_equal(getattr(poly.boundary, name), getattr(whole, name)), name


def test_grown_facets_match_one_sweep_over_every_disk(monkeypatch):
    # 60 random even bodies of 7 to 24 pairs, scales U(0.6, 1.4), U(1e-3, 2)
    # and U(0.6, 1.4) times 10^U(-6, 1.5): the first sweep and the growth
    # rounds keep, bit for bit, the arcs of one sweep over every disk
    rng = np.random.Generator(np.random.Philox(22))
    specs = []
    for trial in range(60):
        x_range = (1e-3, 2.0) if trial % 3 == 1 else (0.6, 1.4)
        spec = even_sphere_spec(rng, int(rng.integers(7, 25)), x_range=x_range)
        specs.append(spec.with_x(spec.x * 10.0 ** rng.uniform(-6.0, 1.5)) if trial % 3 == 2 else spec)
    tests, grown = [], []
    turns = polytope._arc_turns

    def counted(lo, hi, g):
        tests[-1] += 1
        return turns(lo, hi, g)

    monkeypatch.setattr(polytope, "_arc_turns", counted)
    for spec in specs:
        tests.append(0)
        grown.append(polytope._facet_arcs(spec))
    # every body has a facet that grows
    assert min(tests) > 0
    monkeypatch.setattr(polytope, "_SWEEP_START", 1000)
    for spec, arcs in zip(specs, grown):
        whole = polytope._facet_arcs(spec)
        for name in ("facet", "center", "width", "lo", "hi", "active"):
            assert np.array_equal(getattr(arcs, name), getattr(whole, name)), name


def test_facet_sweeps_batch_the_growing_facets(monkeypatch):
    sweeps, tests = [], []
    sweep, turns = polytope._disk_intersection, polytope._arc_turns

    def counted_sweep(c, w, valid):
        sweeps.append(valid.shape)
        return sweep(c, w, valid)

    def counted_turns(lo, hi, g):
        tests.append(lo.shape)
        return turns(lo, hi, g)

    monkeypatch.setattr(polytope, "_disk_intersection", counted_sweep)
    monkeypatch.setattr(polytope, "_arc_turns", counted_turns)
    # no facet of 6 horoballs has more than 12 disks: one sweep, no growth
    cube = PolytopeSpec(n=2, directions=np.vstack([np.eye(3), -np.eye(3)]), x=np.ones(6))
    for spec in (cube, even_sphere_spec(np.random.Generator(np.random.Philox(3)), 3)):
        sweeps.clear()
        build_polytope(spec)
        assert (len(sweeps), len(tests)) == (1, 0)
    # 64 pairs: one containment pass, and four facets grow, to 22, 22, 18
    # and 18 disks, in one sweep
    sweeps.clear()
    build_polytope(even_sphere_spec(np.random.Generator(np.random.Philox(28)), 64))
    assert sweeps[1:] == [(4, 22)]
    assert len(tests) == 1


# ------------------------------------------------------------- canonical form

def test_canonicalize_lens_fixed_point(lens):
    fixed = canonicalize(lens)
    assert np.allclose(fixed.x, lens.spec.x, atol=1e-9)
    assert fixed.even


def test_canonicalize_redundant_horoball():
    spec = PolytopeSpec(
        n=1,
        directions=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
        x=np.array([LOG2, LOG2, 10.0]),
    )
    poly = build_polytope(spec)
    fixed = canonicalize(poly)
    assert fixed.x[2] == pytest.approx(ACOSH2, abs=1e-7)
    assert np.all(fixed.x <= spec.x + 1e-12)
    rebuilt = build_polytope(fixed)
    rng = np.random.Generator(np.random.Philox(15))
    for ang in rng.uniform(0.0, 2.0 * math.pi, size=100):
        theta = Direction(np.array([math.cos(ang), math.sin(ang)]))
        assert radial(rebuilt, theta) == pytest.approx(radial(poly, theta), abs=1e-7)
    # idempotence
    again = canonicalize(rebuilt)
    assert np.allclose(again.x, fixed.x, atol=1e-7)


def test_canonicalize_even_ties_pairs():
    rng = np.random.Generator(np.random.Philox(16))
    spec = random_spec(rng, 3, even=True)
    fixed = canonicalize(build_polytope(spec))
    assert fixed.even
    for i in range(3):
        assert fixed.x[i] == fixed.x[3 + i]


def shuffled_even_spec() -> PolytopeSpec:
    """Three pairs listed out of order: (0, 2), (1, 5), (3, 4)."""
    a, b, c = (np.array([math.cos(t), math.sin(t)]) for t in (0.3, 1.4, 2.5))
    return PolytopeSpec(
        n=1,
        directions=np.array([a, b, -a, c, -c, -b]),
        x=np.array([1.0, 0.8, 1.0, 3.0, 3.0, 0.8]),
        even=True,
    )


def test_pair_value_check_matches_the_loop_it_replaced():
    # the per-pair loop that _even_pairing ran before pairs were stored
    def loop_message(pairs, values):
        for i, j in pairs:
            if abs(values[i] - values[j]) > 1e-9 * max(1.0, abs(values[i])):
                return f"spec: entries {i} and {j} pair with unequal values"
        return None

    rng = np.random.Generator(np.random.Philox(27))
    for _ in range(200):
        count = 2 * int(rng.integers(1, 6))
        order = rng.permutation(count)
        pairs = np.sort(order.reshape(-1, 2), axis=1)
        pairs = pairs[np.argsort(pairs[:, 0])]
        values = np.empty(count)
        values[pairs[:, 0]] = rng.choice([0.5, 1.0, 3.0, 1e3], size=pairs.shape[0])
        # gaps on both sides of the threshold
        gaps = rng.choice([0.0, 0.5e-9, 0.999e-9, 1.001e-9, 2e-9, 0.1], size=pairs.shape[0])
        values[pairs[:, 1]] = values[pairs[:, 0]] * (1.0 + rng.choice([-1.0, 1.0], size=gaps.size) * gaps)
        want = loop_message(pairs.tolist(), values.tolist())
        if want is None:
            polytope._check_even_values(pairs, values, "spec")
        else:
            with pytest.raises(NotEvenError) as caught:
                polytope._check_even_values(pairs, values, "spec")
            assert str(caught.value) == want


def test_canonicalize_ties_pairs_listed_out_of_order():
    poly = build_polytope(shuffled_even_spec())
    # support numbers that differ within each pair, as roundoff could leave them
    vars(poly)["canonical_support"] = np.array([1.0, 0.8, 0.9, 1.2, 1.1, 0.75])
    fixed = canonicalize(poly)
    assert fixed.even
    assert fixed.x.tolist() == [0.9, 0.75, 0.9, 1.1, 1.1, 0.75]


def test_with_x_checks_pair_values_with_the_pairs_it_inherits():
    spec = shuffled_even_spec()
    # the first unequal pair by its lower index is named, as before pairs
    # were inherited
    with pytest.raises(NotEvenError, match=r"^spec: entries 1 and 5 pair with unequal values$"):
        spec.with_x(np.array([1.0, 0.8, 1.0, 3.0, 3.1, 0.9]))
    # |x_i - x_j| > 1e-9 max(1, |x_i|), i the lower index
    with pytest.raises(NotEvenError, match=r"^spec: entries 0 and 2 pair with unequal values$"):
        spec.with_x(np.array([1.0, 0.8, 1.0 + 2e-9, 3.0, 3.0, 0.8]))
    assert spec.with_x(np.array([1.0, 0.8, 1.0 + 5e-10, 3.0, 3.0, 0.8])).even
    assert not spec.with_x(np.array([1.0, 0.8, 1.0, 3.0, 3.1, 0.9]), even=False).even
    # a spec made even by with_x pairs its directions from scratch
    odd = PolytopeSpec(n=1, directions=spec.directions, x=spec.x)
    assert odd.with_x(spec.x, even=True).even
    with pytest.raises(NotEvenError, match="entries 1 and 5"):
        odd.with_x(np.array([1.0, 0.8, 1.0, 3.0, 3.0, 0.7]), even=True)
    lone = PolytopeSpec(n=1, directions=np.array([[1.0, 0.0], [0.0, 1.0]]), x=np.ones(2))
    with pytest.raises(NotEvenError, match="no antipodal partner for entry 0"):
        lone.with_x(np.ones(2), even=True)


# ---------------------------------------------------------------- separation

def test_separate_contract(lens):
    rng = np.random.Generator(np.random.Philox(17))
    angles = np.linspace(0.0, 2.0 * math.pi, 10000, endpoint=False)
    thetas = np.column_stack([np.cos(angles), np.sin(angles)])
    rho = _radial_rows(lens.spec, thetas)
    boundary = np.column_stack([np.sinh(rho)[:, None] * thetas, np.cosh(rho)])
    for _ in range(5):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        theta = Direction(np.array([math.cos(ang), math.sin(ang)]))
        q = polar_point(radial(lens, theta) + rng.uniform(0.05, 2.0), theta)
        ball = separate(lens, q)
        assert not horoball_contains(ball, q)
        gaps = np.array(
            [busemann_value(ball.center, HyperboloidPoint(b)) - ball.s for b in boundary]
        )
        assert float(np.max(gaps)) <= 1e-6
        assert float(np.min(-gaps)) <= 1e-4  # tangency


def test_separate_rejects_interior_points(lens):
    with pytest.raises(PointInsideError):
        separate(lens, polar_point(0.0, Direction(np.array([1.0, 0.0]))))
    with pytest.raises(PointInsideError):
        separate(lens, polar_point(0.3, Direction(np.array([1.0, 0.0]))))


def reference_separation(x: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float]:
    """The separating horoball through the boundary point x, at 50 digits:
    c = x + T for the unit tangent T at x pointing away from q, and
    s = f_e(q) - d(x, q)."""
    import mpmath

    with mpmath.workdps(50):
        xm, qm = [mpmath.mpf(float(v)) for v in x], [mpmath.mpf(float(v)) for v in q]

        def form(a, b):
            return mpmath.fsum(u * v for u, v in zip(a[:-1], b[:-1])) - a[-1] * b[-1]

        cosh_d = -form(xm, qm)
        away = [cosh_d * u - v for u, v in zip(xm, qm)]
        norm = mpmath.sqrt(form(away, away))
        c = [u + v / norm for u, v in zip(xm, away)]
        length = mpmath.sqrt(mpmath.fsum(v * v for v in c[:-1]))
        e = [v / length for v in c[:-1]]
        s = mpmath.log(-form(qm, e + [mpmath.mpf(1)])) - mpmath.acosh(cosh_d)
        return np.array([float(v) for v in e]), float(s)


def test_separate_matches_a_50_digit_evaluation():
    # the isometry round trip was off by up to 1.5e-10 in the center and
    # 3.5e-10 (relative) in s on bodies like these
    rng = np.random.Generator(np.random.Philox(45))
    for k in range(16):
        spec = random_spec(rng, 3, even=True) if k % 2 else even_sphere_spec(rng, 3)
        poly = build_polytope(spec)
        theta = Direction.from_vector(rng.normal(size=spec.n + 1))
        q = polar_point(radial(poly, theta) + rng.uniform(1.5, 8.0), theta)
        ball = separate(poly, q)
        center, s = reference_separation(polytope._exact_nearest(spec, poly.boundary, q.coords), q.coords)
        assert np.max(np.abs(ball.center.vector - center)) <= 1e-12
        assert abs(ball.s - s) <= 1e-12 * max(1.0, abs(s))


def test_separate_keeps_small_gaps_outside():
    # s is read at q, so q lies outside by d however small the gap; the
    # isometry round trip left q on the ball's boundary, to roundoff, at
    # gaps of 1e-8
    rng = np.random.Generator(np.random.Philox(46))
    angles = np.linspace(0.0, 2.0 * math.pi, 20_000, endpoint=False)
    thetas = np.column_stack([np.cos(angles), np.sin(angles)])
    worst = dict.fromkeys((1e-2, 1e-4, 1e-6, 1e-8), -math.inf)
    for _ in range(30):
        spec = random_spec(rng, int(rng.integers(2, 6)), even=True)
        poly = build_polytope(spec)
        rho = _radial_rows(spec, thetas)
        boundary = np.column_stack([np.sinh(rho)[:, None] * thetas, np.cosh(rho)])
        theta = Direction(thetas[int(rng.integers(thetas.shape[0]))])
        for gap in worst:
            q = polar_point(radial(poly, theta) + gap, theta)
            ball = separate(poly, q)
            assert busemann_value(ball.center, q) > ball.s
            excess = np.log(exp_busemann(boundary, ball.center.vector[None, :]))[:, 0] - ball.s
            worst[gap] = max(worst[gap], float(np.max(excess)))
    assert max(worst[1e-2], worst[1e-4], worst[1e-6]) <= 1e-8
    assert worst[1e-8] <= 1e-6


def test_separate_far_from_an_n3_body():
    # a boost back from q failed its Lorentz test past a distance of about 9
    spec = PolytopeSpec(n=3, directions=np.vstack([np.eye(4), -np.eye(4)]), x=np.full(8, 0.8), even=True)
    poly = build_polytope(spec, scan=build_quadrature(3, 500))
    theta = Direction.from_vector(np.array([1.0, 2.0, 3.0, 4.0]))
    big_r = extremal_radii(poly)[0]
    for r in (12.0, 100.0, 300.0):
        q = polar_point(r, theta)
        ball = separate(poly, q)
        assert busemann_value(ball.center, q) - ball.s >= r - big_r
        assert support(poly, ball.center) <= ball.s + 1e-6


def test_scan_points_are_read_like_vertices():
    # for n >= 3 the support grid is the vertex kernel on the scan's
    # boundary points; it agrees with the polar form log max(cosh rho -
    # sinh rho theta . e) over the nodes to roundoff (2.2e-16 measured)
    rng = np.random.Generator(np.random.Philox(48))
    worst = 0.0
    for n in (3, 4):
        for k in range(6):
            pairs = int(rng.integers(n + 1, n + 4))
            rows = rng.normal(size=(pairs, n + 1))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            x = rng.uniform(0.3, 1.5, size=pairs)
            spec = PolytopeSpec(n=n, directions=np.vstack([rows, -rows]), x=np.concatenate([x, x]), even=True)
            scan = build_quadrature(n, 500, seed=k)
            poly = build_polytope(spec, scan)
            probes = rng.normal(size=(40, n + 1))
            probes /= np.linalg.norm(probes, axis=1, keepdims=True)
            rho = _radial_rows(spec, scan.nodes)[:, None]
            polar = np.log(np.max(np.cosh(rho) - np.sinh(rho) * (scan.nodes @ probes.T), axis=0))
            grid = _support_grid(poly, probes)
            worst = max(worst, float(np.max(np.abs(grid - polar))))
            e = Direction(probes[0])
            assert support(poly, e) >= _support_grid(poly, probes[:1])[0]
            # separate's distance is at most the nearest scan point's
            q = polar_point(radial(poly, e) + rng.uniform(0.05, 1.0), e)
            points = np.column_stack([np.sinh(rho) * scan.nodes, np.cosh(rho)])
            nearest = float(np.min(np.arccosh(np.maximum(points @ np.append(-q.coords[:-1], q.coords[-1]), 1.0))))
            ball = separate(poly, q)
            assert busemann_value(ball.center, q) - ball.s <= nearest + 1e-12
            # the refinement returns a unit vector and the objective's value there
            g = int(np.argmax(rho))
            value, theta = _refine_max_sphere(lambda t: _radial_single(spec, t), scan.nodes[g], scan)
            assert abs(float(np.linalg.norm(theta)) - 1.0) <= 1e-15
            assert _radial_single(spec, theta) == value >= float(rho[g, 0])
    assert worst <= 1e-15


# ------------------------------------------------------------ outer parallel

def test_outer_parallel_support_values(lens):
    eps = 0.25
    ang = 2.0 * math.pi * np.arange(8) / 8
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    spec = outer_parallel_support(lens, eps, dirs)
    base = np.array([support(lens, Direction(d)) for d in dirs])
    assert np.allclose(spec.x, base + eps, atol=1e-12)
    outer = build_polytope(spec)
    # contains the original body
    rng = np.random.Generator(np.random.Philox(18))
    for a in rng.uniform(0.0, 2.0 * math.pi, size=100):
        theta = Direction(np.array([math.cos(a), math.sin(a)]))
        assert radial(outer, theta) >= radial(lens, theta) - 1e-9
    # where the defining horoball supports the outer body, support is exact
    for g in range(8):
        if outer.facet_nonempty[g]:
            assert support(outer, Direction(dirs[g])) == pytest.approx(
                base[g] + eps, abs=1e-7
            )


def test_outer_parallel_radial_growth_bound(lens):
    eps = 0.05
    big_r, small_r = extremal_radii(lens)
    bound = 2.0 * math.exp(2.0 * big_r) / (small_r * math.exp(small_r)) * eps
    ang = 2.0 * math.pi * np.arange(256) / 256
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    outer = build_polytope(outer_parallel_support(lens, eps, dirs))
    rng = np.random.Generator(np.random.Philox(19))
    for a in rng.uniform(0.0, 2.0 * math.pi, size=200):
        theta = Direction(np.array([math.cos(a), math.sin(a)]))
        assert radial(outer, theta) <= radial(lens, theta) + bound + 1e-3


def test_outer_parallel_needs_positive_eps(lens):
    with pytest.raises(ValueError):
        outer_parallel_support(lens, 0.0, np.array([[1.0, 0.0]]))


# ----------------------------------------------------------------- T bodies

def test_t_body_volume_basics():
    assert t_body_volume(1e-6, 1) < 1e-8
    values = [t_body_volume(r, 1) for r in (0.5, 1.0, 2.0, 3.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        t_body_volume(0.0, 1)
    with pytest.raises(ValueError):
        t_body_volume(-1.0, 2)
    with pytest.raises(ValueError):
        t_body_volume_lower_bound(0.0, 1)


def test_t_body_volume_exceeds_lower_bound():
    for n in (1, 2, 3):
        for r in (0.5, 1.0, 2.0):
            lo = t_body_volume_lower_bound(r, n)
            assert t_body_volume(r, n) > lo > 0.0


def test_t_body_volume_riemann_oracle():
    # midpoint Riemann sum, written against the same integral but none of
    # the adaptive machinery
    r, n = 2.0, 1
    er = math.exp(r)
    a = er + 1.0
    half = math.exp(r / 2.0)
    ys = np.linspace(1.0, er, 200001)
    mids = 0.5 * (ys[:-1] + ys[1:])
    width = np.sqrt(np.maximum(a * mids - mids * mids, 0.0)) - half
    vals = np.where(width > 0.0, np.maximum(width, 0.0) ** n / mids ** (n + 1), 0.0)
    riemann = 2.0 * float(np.sum(vals)) * (er - 1.0) / 200000
    assert t_body_volume(r, n) == pytest.approx(riemann, rel=1e-6)


def tube_volume_50_digits(r: float, n: int):
    """The tube body's defining integral in the half-space chart, at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        er, half = mpmath.exp(r), mpmath.exp(r / 2)

        def integrand(y):
            return (mpmath.sqrt((er + 1) * y - y * y) - half) ** n / y ** (n + 1)

        # the integrand vanishes at both ends, y = 1 and y = e^r
        value = mpmath.quad(integrand, [1, mpmath.sqrt(er), er])
        return mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2 + 1) * value


@pytest.mark.parametrize("n", [1, 2])
def test_t_body_volume_closed_forms_match_50_digit_quadrature(n):
    # r = 1.1 and 1.2 sit just above the switch from series to closed form
    # (sinh(r/2) = 1/2 at r = 0.96, tanh(r/2) = 1/2 at r = 1.10)
    radii = np.concatenate([np.geomspace(1e-3, 20.0, 13), [0.96, 1.1, 1.2]])
    worst = max(
        abs(t_body_volume(float(r), n) / float(tube_volume_50_digits(float(r), n)) - 1.0) for r in radii
    )
    assert worst <= 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_t_body_volume_matches_50_digit_quadrature_past_r14(n):
    # the adaptive rule in y read t_body_volume(15, 3) = -238.8 (8.25e8
    # expected); in u = log y it stays within 1e-14 of 50 digits
    worst = max(
        abs(t_body_volume(r, n) / float(tube_volume_50_digits(r, n)) - 1.0)
        for r in (0.01, 1.0, 5.0, 14.0, 15.0, 20.0, 30.0)
    )
    assert worst <= 1e-12


def test_boundedness_bound_keeps_its_values():
    # the values of the adaptive-quadrature tube volume (within its 1e-6)
    before = {
        1: [0.018171310424804688, 1.464299201965332, 1.8579864501953125, 3.00253963470459, 7.943792343139648],
        2: [0.1307659149169922, 1.8608646392822266, 2.1525650024414062, 2.8809242248535156, 5.372016906738281],
    }
    for n, values in before.items():
        for target, want in zip((1e-6, 0.5, 1.0, 4.0, 100.0), values):
            assert abs(boundedness_bound(target, n) - want) <= 1e-6


def test_boundedness_bound_runs_no_quadrature_for_planar_and_n2(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature called")

    monkeypatch.setattr(polytope, "_adaptive_quad", refuse)
    for n in (1, 2):
        assert boundedness_bound(1.0, n) > 0.0
    # the quadrature read about 0 past r = 14, so for n = 2 and volumes above
    # t_body_volume(8, 2) = 1.5e3 the bracket search went on until it overflowed
    assert t_body_volume(boundedness_bound(2000.0, 2), 2) > 2000.0


def test_tube_volumes_past_the_float_range():
    # these raised a bare OverflowError from math (or read inf at r = 1419,
    # n = 1); at n = 6, r = 239 the quadrature's sums overflowed first
    for r, n in ((250.0, 6), (239.0, 6), (711.0, 2), (1419.0, 1), (1500.0, 1)):
        with pytest.raises(ValueError, match="float range"):
            t_body_volume(r, n)
    # n = 2 formed sinh(r/2)^3, which overflowed at r = 500 although the
    # volume is 7.3e216
    import mpmath

    with mpmath.workdps(30):
        half = mpmath.mpf(250)
        cap = 2 * mpmath.sinh(half) ** 3 / (3 * mpmath.cosh(half))
        want = mpmath.pi * (cap - 500 + 2 * mpmath.tanh(half))
    assert t_body_volume(500.0, 2) == pytest.approx(float(want), rel=1e-14)
    # a tube past the float range exceeds every volume, so the bound exists
    # (it raised OverflowError); where it lies past r = 256 it is refused
    bound = boundedness_bound(1e300, 6)
    assert t_body_volume(bound - 1e-6, 6) <= 1e300 < t_body_volume(bound, 6)
    for n in (1, 2, 3, 4, 5):
        with pytest.raises(ValueError, match="too large to bracket"):
            boundedness_bound(1e300, n)


def test_boundedness_bound_contract():
    for target in (0.5, 1.0, 4.0):
        b = boundedness_bound(target, 1)
        assert t_body_volume(b, 1) > target
        assert t_body_volume(b - 1e-6, 1) <= target + 1e-12
    assert boundedness_bound(0.5, 1) <= boundedness_bound(1.0, 1) <= boundedness_bound(4.0, 1)
    with pytest.raises(ValueError):
        boundedness_bound(0.0, 1)


def test_boundedness_bound_caps_supports():
    rng = np.random.Generator(np.random.Philox(20))
    for _ in range(5):
        spec = random_spec(rng, 4, x_range=(0.3, 1.8))
        poly = build_polytope(spec)
        bound = boundedness_bound(volume(poly), 1)
        assert float(np.max(poly.canonical_support)) <= bound


# ----------------------------------------------------------- discrete measure

def test_discrete_measure_validation():
    dirs = np.array([[1.0, 0.0], [-1.0, 0.0]])
    mu = DiscreteMeasure(n=1, directions=dirs, weights=np.array([1.0, 1.0]))
    assert mu.directions.shape == (2, 2)
    assert np.array_equal(mu.weights, [1.0, 1.0])
    red_dirs, red_w = mu.reduced_pairs()
    assert red_dirs.shape == (1, 2)
    assert red_w[0] == 1.0
    with pytest.raises(SpecError):
        DiscreteMeasure(n=1, directions=np.array([[1.0, 0.0], [1.0, 0.0]]),
                        weights=np.array([1.0, 1.0]))
    with pytest.raises(SpecError):
        DiscreteMeasure(n=1, directions=dirs, weights=np.array([1.0, -1.0]))
    # every measure is even: atoms that do not pair raise when it is made
    with pytest.raises(NotEvenError, match="^measure: entries 0 and 1 pair with unequal values$"):
        DiscreteMeasure(n=1, directions=dirs, weights=np.array([1.0, 2.0]))
    with pytest.raises(NotEvenError, match="^measure: no antipodal partner for entry 0$"):
        DiscreteMeasure(n=1, directions=np.array([[1.0, 0.0], [0.0, 1.0]]),
                        weights=np.array([1.0, 1.0]))


def test_discrete_measure_from_even_pairs():
    mu = DiscreteMeasure.from_even_pairs(
        np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([2.0, 3.0])
    )
    assert mu.directions.shape == (4, 2)
    red_dirs, red_w = mu.reduced_pairs()
    assert np.allclose(red_w, [2.0, 3.0])
    # the even spec on the reduced pairs, scales (z, z)
    spec = mu.spec(np.array([0.5, 0.7]))
    assert spec.even and spec.x.tolist() == [0.5, 0.7, 0.5, 0.7]
    assert np.array_equal(spec.directions, np.vstack([red_dirs, -red_dirs]))
