import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import homcone.roots
from homcone import (
    BallPen,
    Box,
    Branch,
    Ellipsoid,
    EuclideanBall,
    Hyperbolic,
    L1Ball,
    MaxIterationsExceeded,
    PBall,
    PsiEvaluator,
    Simplex,
    homogenization_polar_membership,
    project_homogenization,
    set_from_spec,
)
from homcone.roots import brent_root
from oracle import sample_members
from set_catalog import BY_ID, CATALOG, CORE, pairs
from test_cores import set_floats


PROJECTABLE = pairs(CORE, projectable=True)
POLAR_ONLY = [set_ for _, set_ in pairs(CORE, projectable=False)]


def random_points(rng, dim, n, scale=6.0):
    return rng.uniform(-scale, scale, size=(n, dim))


# ---------------------------------------------------------------------------
# Projector examples
# ---------------------------------------------------------------------------

def test_ball_fixed_point():
    ball = EuclideanBall((1.0, 0.0), 1.0)
    np.testing.assert_allclose(ball.project((1.0, 0.0)), [1.0, 0.0], atol=0)


def test_ball_radial_projection():
    # Frozen value 0.2 * (3, 4); certified below against sampled members.
    ball = EuclideanBall((0.0, 0.0), 1.0)
    p = ball.project((3.0, 4.0))
    np.testing.assert_allclose(p, [0.6, 0.8], atol=1e-15)
    members = sample_members(ball, 20_000, np.random.default_rng(0))
    x = np.array([3.0, 4.0])
    dists = np.linalg.norm(members - x, axis=1)
    assert np.linalg.norm(p - x) <= dists.min() + 1e-9


def test_ball_pen_projection():
    # dist(x, ray) = 2 > 1 pushes x halfway back toward the ray.
    pen = BallPen((0.0, 1.0))
    p = pen.project((0.0, -2.0))
    np.testing.assert_allclose(p, [0.0, -1.0], atol=1e-15)
    members = sample_members(pen, 20_000, np.random.default_rng(1))
    x = np.array([0.0, -2.0])
    assert np.linalg.norm(p - x) <= np.linalg.norm(members - x, axis=1).min() + 1e-9


@pytest.mark.parametrize("scale", [1e17, 1e20])
def test_simplex_and_l1_projection_at_huge_scale(scale):
    # At this size the sorted cumulative sum rounds the target away, and the
    # threshold index has to fall back to the largest entry.
    x = scale * np.array([0.3, 0.2, 0.5]) + np.array([1.0, 0.0, 0.0])
    for set_ in (Simplex(3), L1Ball(1.0, dim=3)):
        p = set_.project(x)
        assert set_.contains(p)
        np.testing.assert_allclose(p, [0.0, 0.0, 1.0], atol=1e-9)


def test_projection_unsupported_variants():
    for set_ in POLAR_ONLY:
        with pytest.raises(NotImplementedError, match=r"has no projector|p in \{2, inf\} only"):
            set_.project(np.zeros(set_.dim))


def test_p_ball_message_names_the_projectable_p():
    # p = 1 is rejected by the constructor (L1Ball is that set), so the
    # message names only p = 2 and p = inf.
    with pytest.raises(NotImplementedError, match=r"for p in \{2, inf\} only$"):
        PBall(3.0, 1.0).project((1.0, 0.0))


@pytest.mark.parametrize("p", [2000.0, 1e5, 1e308])
def test_p_ball_membership_at_large_p(p):
    # On the rescale into [1/2, 1), every |x_i|^p underflows to 0 at these p;
    # the norm is taken relative to the largest entry there.
    ball = PBall(p, 1.0)
    assert not ball.contains((5.0, 0.0))
    assert not ball.contains((1.5, 1.5))
    assert ball.contains((1.0, 0.0))
    assert ball.contains((0.999, -0.999))
    assert ball._pnorm(np.array([0.75, 0.75]), p) == pytest.approx(0.75 * 2.0 ** (1.0 / p))


@pytest.mark.parametrize("p", [1.0005, 1.0001, 1.0 + 1e-9])
def test_p_ball_support_near_p_one(p):
    # q = p / (p - 1) is 2,001 and above, where the q-th powers underflow on
    # the rescale; sigma is the q-norm, 2^(1/q) on (1, 1).
    ball = PBall(p, 1.0)
    assert ball.support((1.0, 1.0)) == pytest.approx(2.0 ** (1.0 / ball.q), rel=1e-12)
    assert ball.support((3.0, 3.0)) == pytest.approx(3.0 * 2.0 ** (1.0 / ball.q), rel=1e-12)
    assert not ball.polar().contains((3.0, 3.0))
    assert not homogenization_polar_membership(ball, ((3.0, 3.0), 0.0))


def test_dimension_mismatch():
    ball = EuclideanBall((0.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="expected dimension 2, got 3"):
        ball.project((1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="expected dimension 2, got 1"):
        ball.support((1.0,))
    with pytest.raises(ValueError, match="expected dimension 2, got 3"):
        ball.recession_distance((1.0, 2.0, 3.0))


def test_constructor_rejections():
    with pytest.raises(ValueError, match="the ball must contain the origin"):
        EuclideanBall((2.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        EuclideanBall((0.0, 0.0), -1.0)
    with pytest.raises(ValueError, match="ray direction must be a unit vector"):
        BallPen((1.0, 1.0))
    with pytest.raises(ValueError):
        BallPen((3.0, 4.0, 1.0e-3))
    with pytest.raises(ValueError):
        Box((-0.5, 1.0))
    with pytest.raises(ValueError):
        PBall(1.0, 2.0)
    with pytest.raises(ValueError):
        Ellipsoid([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        Ellipsoid([[1.0, 0.0], [0.0, -2.0]])
    with pytest.raises(ValueError, match="d must be a unit vector"):
        set_from_spec('{"type": "shifted_unit_ball", "d": [0.5, 0.5]}')
    with pytest.raises(ValueError, match="dimension must be positive"):
        PBall(2.0, 1.0, 0)


@pytest.mark.parametrize("build, spec", [
    (lambda r: EuclideanBall((0.0, 0.0), r),
     '{"type": "euclidean_ball", "center": [0, 0], "radius": %s}'),
    (lambda r: L1Ball(r), '{"type": "l1_ball", "radius": %s}'),
    (lambda r: PBall(2.0, r), '{"type": "p_ball", "p": 2, "radius": %s}'),
], ids=["euclidean_ball", "l1_ball", "p_ball"])
def test_non_finite_radius_is_rejected(build, spec):
    # An infinite radius once built a set whose projector returned nan;
    # Python's json reads Infinity and NaN, so specs could carry them too.
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            build(r)
    for text in ("Infinity", "NaN"):
        with pytest.raises(ValueError, match="positive and finite"):
            set_from_spec(spec % text)


@pytest.mark.parametrize("t", [1e-12, 1.0, 1e12])
@pytest.mark.parametrize("direction", [(1.0, 0.0), (0.6, 0.8)])
def test_ball_origin_check_is_scale_invariant(t, direction):
    # A centre on the sphere of radius r keeps 0 in the ball; 1.01 r does not.
    r = 1.7
    c = np.array(direction)
    EuclideanBall(t * r * c, t * r)
    with pytest.raises(ValueError, match="the ball must contain the origin"):
        EuclideanBall(1.01 * t * r * c, t * r)


@pytest.mark.parametrize("t", [1e-12, 1.0, 1e12])
def test_ellipsoid_symmetry_check_is_scale_invariant(t):
    # Asymmetry at 1e-13 relative is roundoff; at 0.9 it is a wrong matrix.
    near = np.array([[2.0, 0.3], [0.3 + 1e-13, 0.8]])
    e = Ellipsoid(t * near)
    np.testing.assert_array_equal(e.q_matrix, e.q_matrix.T)
    with pytest.raises(ValueError, match="symmetric"):
        Ellipsoid(t * np.array([[1.0, 0.9], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Support function examples
# ---------------------------------------------------------------------------

def test_support_hyperbolic_infinite():
    assert Hyperbolic().support((1.0, 2.0)) == math.inf


def test_support_at_zero_is_zero():
    for _, set_ in pairs(CORE):
        assert set_.support(np.zeros(set_.dim)) == 0.0


def test_support_shifted_ball_value():
    # sigma = <z, y> + radius ||y||; certified against the sampled supremum.
    ball = EuclideanBall((1.0, 0.0), 1.0)
    assert ball.support((0.0, 3.0)) == pytest.approx(3.0, abs=1e-12)
    members = sample_members(ball, 200_000, np.random.default_rng(2))
    sampled = float(np.max(members @ np.array([0.0, 3.0])))
    assert sampled <= 3.0 + 1e-9
    assert sampled == pytest.approx(3.0, abs=1e-2)


def test_support_closed_forms_dominate_sampled_supremum():
    rng = np.random.default_rng(3)
    for _, set_ in PROJECTABLE:
        members = sample_members(set_, 5_000, rng)
        for _ in range(10):
            y = rng.normal(size=set_.dim) * 3.0
            sigma = set_.support(y)
            assert float(np.max(members @ y)) <= sigma + 1e-9


@pytest.mark.parametrize("k", [-1000, 1000])
@pytest.mark.parametrize("name,set_", pairs(CORE))
def test_support_and_recession_distance_are_exact_at_every_scale(name, set_, k):
    # Both are positively homogeneous and evaluated on the exact power-of-2
    # rescale of y, so y 2^k gives the value times 2^k bit for bit, and +inf
    # stays +inf; no square overflows or underflows on the way.
    rng = np.random.default_rng(16)
    for _ in range(20):
        y = rng.normal(size=set_.dim) * 3.0
        big = np.ldexp(y, k)
        sigma = set_.support(y)
        expected = sigma if math.isinf(sigma) else math.ldexp(sigma, k)
        assert set_.support(big) == expected
        if not isinstance(set_, Hyperbolic):
            dist = set_.recession_distance(y)
            assert set_.recession_distance(big) == math.ldexp(dist, k)


def test_support_and_recession_distance_near_the_float_limits():
    # Finite where the true value is, +inf where it exceeds the float range.
    assert Hyperbolic().support((1e200, 1e199)) == pytest.approx(
        1e198 / (1.0 + math.sqrt(0.99)), rel=1e-14)
    ball = EuclideanBall((0.0, 0.0), 1.0)
    assert ball.support((1e200, 1e200)) == pytest.approx(2.0 ** 0.5 * 1e200, rel=1e-15)
    assert ball.support((1.7e308, 1.7e308)) == math.inf
    assert BallPen((0.0, 1.0)).recession_distance((1e200, 1e200)) == 1e200


def exact_ball_support(ball, y):
    """<c, y> + gamma ||y|| from the exact values of the float inputs, to 200
    digits: the inner product and ||y||^2 as Fractions, then one square root."""
    cy = sum(Fraction(c) * Fraction(v) for c, v in zip(ball.center.tolist(), y.tolist()))
    yy = sum(Fraction(v) ** 2 for v in y.tolist())
    with localcontext() as ctx:
        ctx.prec = 200
        norm = (Decimal(yy.numerator) / Decimal(yy.denominator)).sqrt()
        return Decimal(cy.numerator) / Decimal(cy.denominator) + Decimal(ball.radius) * norm


OFF_CENTRE = [e for e in CATALOG if e.spec_type == "shifted_unit_ball"
              or (e.spec_type == "euclidean_ball" and any(e.build["center"]))]
#: Balls whose sphere passes through the origin with ||c|| = gamma exactly.
THROUGH_ORIGIN = ("shifted_disc", "shifted_unit_ball")


@pytest.mark.parametrize("entry", OFF_CENTRE, ids=lambda e: e.id)
def test_off_centre_ball_support_does_not_cancel(entry):
    # Around -c, sigma_C(y) = gamma ||y|| + <c, y> is a difference of near
    # equals, at |y| from 1e-9 to 1e17.  Where the sphere passes through the
    # origin the value is exact to 1e-12 relative (the paper's shifted disc
    # once read 0.0 at ((-1e17, 6.3e8)) for 2.0); elsewhere, within 4 ulps
    # of gamma ||y||.
    ball = entry.make()
    e = ball.center / np.linalg.norm(ball.center)
    rng = np.random.default_rng(19)
    for t in np.logspace(-9, 17, 27):
        for _ in range(8):
            p = rng.normal(size=ball.dim)
            p -= (p @ e) * e
            y = t * (10.0 ** rng.uniform(-10.0, 0.0) * p - e)
            err = abs(Decimal(ball.support(y)) - exact_ball_support(ball, y))
            if entry.id in THROUGH_ORIGIN:
                assert err <= Decimal(1e-12) * exact_ball_support(ball, y), y
            else:
                assert err <= 4 * math.ulp(ball.radius * float(np.linalg.norm(y))), y


@pytest.mark.parametrize("set_", [Hyperbolic(), EuclideanBall((-1.0, 0.0), 1.0)],
                         ids=["hyperbolic", "shifted_unit_ball_e1"])
def test_support_reproducer_does_not_cancel(set_):
    # Both once read 0.0 here: the point is in neither polar set.
    assert set_.support((1e17, 632455532.0336759)) == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("entry_id", ["ball_off_rho_gamma", "shifted_unit_ball_3d"])
def test_support_where_the_centre_norm_rounds_to_the_radius(entry_id):
    # ||c||^2 = 0.6^2 + 0.8^2 exceeds gamma^2 = 1 by about 4e-17 on floats,
    # and rho = ||c|| rounds to gamma, so gamma - rho once read 0:
    # (-0.6e8, 1, 0.8e8) gave 5e-9 for 2.78e-9.  Around -c, with the offset
    # on the axis where c is 0 (so that y - <e, y> e loses nothing to
    # rounding), sigma_C(y) is exact to 1e-13 at |y| from 1e-9 to 1e17,
    # where the offset dominates it and where gamma - ||c|| does.
    ball = BY_ID[entry_id].make()
    reproducer = np.array([0.0, 1.0, 0.0]) - 1e8 * ball.center
    assert abs(ball.support(reproducer) - 2.7795539507496866e-09) <= 1e-22
    for t in np.logspace(-9, 17, 27):
        for delta in np.logspace(-12, 0, 13):
            y = t * (np.array([0.0, delta, 0.0]) - ball.center)
            exact = exact_ball_support(ball, y)
            assert abs(Decimal(ball.support(y)) - exact) <= Decimal(1e-13) * abs(exact), y


def test_hyperbolic_support_does_not_cancel():
    # y1 - sqrt(y1^2 - y2^2) cancels as y2 / y1 -> 0.
    hyp = Hyperbolic()
    assert hyp.support((1e8, math.sqrt(2e8))) == pytest.approx(1.000000005, rel=1e-15)
    assert hyp.support((3.0, -3.0)) == 3.0
    rng = np.random.default_rng(23)
    for _ in range(500):
        y1 = 10.0 ** rng.uniform(-9.0, 17.0)
        y2 = y1 * rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-12.0, 0.0)
        with localcontext() as ctx:
            ctx.prec = 200
            exact = Decimal(y1) - (Decimal(y1) ** 2 - Decimal(y2) ** 2).sqrt()
            assert abs(Decimal(hyp.support((y1, y2))) - exact) <= Decimal(1e-15) * exact


# ---------------------------------------------------------------------------
# Recession cone
# ---------------------------------------------------------------------------

def test_recession_bounded_sets():
    ball = EuclideanBall((0.0, 0.0), 2.0)
    np.testing.assert_allclose(ball.project_recession((5.0, 5.0)), [0.0, 0.0])
    assert ball.recession_distance((3.0, 4.0)) == pytest.approx(5.0)


def test_recession_ball_pen_ray():
    pen = BallPen((0.0, 1.0))
    np.testing.assert_allclose(pen.project_recession((3.0, 4.0)), [0.0, 4.0])
    np.testing.assert_allclose(pen.project_recession((3.0, -4.0)), [0.0, 0.0])
    assert pen.recession_distance((0.0, 5.0)) == 0.0
    assert pen.recession_distance((3.0, -4.0)) == pytest.approx(5.0)


def test_recession_strip_ray():
    strip = BallPen((0.0, 1.0))
    np.testing.assert_allclose(strip.project_recession((3.0, 4.0)), [0.0, 4.0])


def test_recession_capability_missing():
    with pytest.raises(NotImplementedError, match="does not expose a recession-cone projector"):
        Hyperbolic().project_recession((1.0, 1.0))


def test_recession_directions_stay_in_set():
    # Scaled recession directions remain members for every rho >= 0.
    for _, set_ in pairs(CORE, projectable=True, bounded=False):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.uniform(-5, 5, size=set_.dim)
            d = set_.project_recession(x)
            n = np.linalg.norm(d)
            if n == 0:
                continue
            for rho in (0.0, 1.0, 10.0, 100.0):
                assert set_.contains(rho * d / n, tol=1e-9)


# ---------------------------------------------------------------------------
# Projector invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,set_", PROJECTABLE)
def test_projection_idempotent(name, set_):
    rng = np.random.default_rng(10)
    for x in random_points(rng, set_.dim, 1000):
        p = set_.project(x)
        q = set_.project(p)
        assert np.linalg.norm(q - p) <= 1e-10


@pytest.mark.parametrize("name,set_", PROJECTABLE)
def test_projection_nonexpansive(name, set_):
    rng = np.random.default_rng(11)
    for _ in range(300):
        x, w = random_points(rng, set_.dim, 2)
        px, pw = set_.project(x), set_.project(w)
        assert np.linalg.norm(px - pw) <= np.linalg.norm(x - w) + 1e-12


@pytest.mark.parametrize("name,set_", PROJECTABLE)
def test_projection_variational_inequality(name, set_):
    rng = np.random.default_rng(12)
    members = sample_members(set_, 2_000, rng)
    for x in random_points(rng, set_.dim, 50):
        p = set_.project(x)
        assert set_.contains(p, tol=1e-12) or set_.contains(p, tol=1e-9)
        gaps = (members - p) @ (x - p)
        assert float(np.max(gaps)) <= 1e-9


@pytest.mark.parametrize("name,set_", [t for t in PROJECTABLE if t[1].dim == 2])
def test_scaled_projection_identity(name, set_):
    # alpha * P_C(y / alpha) is the nearest point of alpha*C: feasibility plus
    # the variational inequality over sampled members of alpha*C.
    rng = np.random.default_rng(13)
    members = sample_members(set_, 5_000, rng)
    for alpha in (0.5, 1.0, 3.0):
        for y in random_points(rng, set_.dim, 30):
            p = alpha * set_.project(y / alpha)
            assert set_.contains(p / alpha, tol=1e-9)
            scaled = alpha * members
            dists = np.linalg.norm(scaled - y, axis=1)
            assert np.linalg.norm(p - y) <= dists.min() + 1e-6
            gaps = (scaled - p) @ (y - p)
            assert float(np.max(gaps)) <= 1e-6


def test_support_positive_homogeneity_and_subadditivity():
    rng = np.random.default_rng(14)
    for _, set_ in pairs(CORE):
        for _ in range(50):
            y1 = rng.normal(size=set_.dim) * 2.0
            y2 = rng.normal(size=set_.dim) * 2.0
            lam = rng.uniform(0.1, 10.0)
            s1 = set_.support(y1)
            s2 = set_.support(y2)
            s12 = set_.support(y1 + y2)
            shom = set_.support(lam * y1)
            if math.isinf(s1):
                assert math.isinf(shom)
            else:
                assert shom == pytest.approx(lam * s1, rel=1e-12, abs=1e-12)
            if not math.isinf(s1) and not math.isinf(s2):
                assert s12 <= s1 + s2 + 1e-9


# ---------------------------------------------------------------------------
# Ellipsoid projector
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def brent_ellipsoid_project(ell, x):
    """The bracketed Brent solve of the secular equation sum w t^2 = 1,
    t = u / (1 + lam w), that the Newton kernel replaced; the accuracy
    reference for it."""
    w, u = ell._evals, ell._evecs.T @ x
    if float(np.sum(w * u * u)) <= 1.0:
        return x.copy()

    def g(lam):
        t = u / (1.0 + lam * w)
        return float(np.sum(w * t * t)) - 1.0

    hi = 1.0
    while g(hi) > 0.0:
        hi *= 4.0
    lam, _ = brent_root(g, 0.0, hi, g(0.0), g(hi), 1e-15, 4 * EPS, 200)
    return ell._evecs @ (u / (1.0 + lam * w))


def ellipsoid_residuals(ell, x, p):
    """KKT residual ||x - p - lam Qp|| / ||x|| (lam by least squares) and
    feasibility error |<p, Qp> - 1|, in extended precision.

    Q is taken as the factorisation V diag(w) V^T both kernels solve on: at
    condition 1e12 the eigensolver's own error is far above the root solve's
    and would hide it.
    """
    ld = np.longdouble
    v = ell._evecs.astype(ld)
    q = (v * ell._evals.astype(ld)) @ v.T
    x, p = x.astype(ld), p.astype(ld)
    qp = q @ p
    lam = (qp @ (x - p)) / (qp @ qp)
    kkt = np.sqrt(np.sum((x - p - lam * qp) ** 2) / np.sum(x * x))
    return float(kkt), float(abs(p @ qp - 1))


@pytest.mark.parametrize("n", [2, 10, 50])
@pytest.mark.parametrize("cond", [1e0, 1e3, 1e6, 1e9, 1e12])
def test_ellipsoid_newton_is_as_accurate_as_brent(cond, n):
    rng = np.random.default_rng([int(math.log10(cond)), n])
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = np.exp(rng.uniform(-0.5, 0.5, n) * math.log(cond))
    w[:2] = cond ** -0.5, cond ** 0.5
    ell = Ellipsoid((u * w) @ u.T)
    dirs = rng.normal(size=(80, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    # Norms log-spaced over 1e-9..1e12, then points a few ulps from the
    # boundary on either side.
    spread = dirs[:40] * np.logspace(-9, 12, 40)[:, None]
    gauge = np.sqrt(np.einsum("ij,jk,ik->i", dirs[40:], ell.q_matrix, dirs[40:]))
    ulps = np.arange(40) % 17 - 4
    boundary = dirs[40:] / gauge[:, None] * (1.0 + ulps * EPS)[:, None]
    for points in (spread, boundary):
        newton, brent = [], []
        for x in points:
            p = ell.project(x)
            p_ref = brent_ellipsoid_project(ell, x)
            if np.array_equal(p, x) and np.array_equal(p_ref, x):
                continue
            newton.append(ellipsoid_residuals(ell, x, p))
            brent.append(ellipsoid_residuals(ell, x, p_ref))
        if not newton:
            continue
        # Both kernels share the rounding of the change of basis, so their
        # residuals differ by rounding noise input by input; the largest
        # residual over the group must stay at Brent's level.
        worst_newton = np.max(newton, axis=0)
        worst_brent = np.max(brent, axis=0)
        assert np.all(worst_newton <= 4.0 * worst_brent + 16.0 * EPS), (
            worst_newton, worst_brent)


def test_ellipsoid_kernels_stay_in_range_on_an_extremely_stretched_q():
    # Q = diag(1e200, 1): a start of the secular solve from ||c|| - max a = 0
    # alone would overflow r = c / a on the stretched axis.
    ell = Ellipsoid(np.diag([1e200, 1.0]))
    np.testing.assert_allclose(ell.project((100.0, 0.0)), [1e-100, 0.0], rtol=1e-14)
    # In the (y1, s) plane K is the ice-cream cone |y1| <= 1e-100 s.
    res = project_homogenization(ell, ((0.1, 0.0), 1e-61))
    alpha = (1e-61 + 1e-101) / (1.0 + 1e-200)
    assert res.branch is Branch.CONE_INTERIOR
    assert res.alpha_star == pytest.approx(alpha, rel=1e-14)
    np.testing.assert_allclose(res.point.y, [1e-100 * alpha, 0.0], rtol=1e-14)


def test_public_projectors_are_exact_where_the_squared_norm_overflows():
    # ||x||^2 of a query near 1e200 overflows; the norm or gauge is then taken
    # on x scaled by a power of 2, with no RuntimeWarning (an error here).
    far = (1e200, 1e200)
    np.testing.assert_allclose(EuclideanBall((0.0, 0.0), 1.0).project(far),
                               [math.sqrt(0.5)] * 2, rtol=1e-15)
    np.testing.assert_allclose(EuclideanBall((0.3, 0.0), 1.0).project(far),
                               [0.3 + math.sqrt(0.5), math.sqrt(0.5)], rtol=1e-15)
    assert BallPen((0.0, 1.0)).project(far).tolist() == [1.0, 1e200]
    ell = Ellipsoid([[2.0, 0.3], [0.3, 0.8]])
    # Far along a direction the projection is the point whose normal it is.
    np.testing.assert_allclose(ell.project(far), ell.project((1e20, 1e20)), rtol=1e-14)
    np.testing.assert_allclose(ell.project((-3e300, 1e300)),
                               ell.project((-3e20, 1e20)), rtol=1e-14)
    for set_ in (EuclideanBall((0.3, 0.0), 1.0), BallPen((0.0, 1.0)), ell):
        assert not set_.contains((1e200, -1e200))
    tiny = EuclideanBall((1e-200, 0.0), 1e-200)
    assert tiny.project((1.0, 0.0)).tolist() == [2e-200, 0.0]


def test_ellipsoid_projector_stays_in_range_on_a_large_eigenvalue():
    # |x| times the largest eigenvalue exceeds the float range: x is scaled by
    # a power of 2 before the eigenbasis product, with no RuntimeWarning.
    ell = Ellipsoid(np.diag([1e10, 1.0]))
    np.testing.assert_allclose(ell.project((1e300, 0.0)), [1e-5, 0.0], rtol=1e-15)
    np.testing.assert_allclose(ell.project((1e300, -1e300)),
                               ell.project((1e20, -1e20)), rtol=1e-14)
    assert ell.project((1e-300, 0.5)).tolist() == [1e-300, 0.5]


@pytest.mark.filterwarnings("error")
def test_ellipsoid_support_survives_a_tiny_eigenvalue():
    # sum u_i^2 / w_i overflows at w = 1e-310, where sigma_C(e1) = 1 / sqrt(w)
    # is about 1e155: the norm of u / sqrt(w) answers there, with no warning.
    ell = Ellipsoid(np.diag([1e-310, 1.0]))
    assert ell.support((1.0, 0.0)) == pytest.approx(1e155, rel=1e-12)
    assert ell.support((0.0, 1.0)) == 1.0
    # sigma_C((1e-200, 0)) is about 1e-45: inside the polar set, a view here.
    assert ell.polar().contains((1e-200, 0.0))
    assert not ell.polar().contains((1e-150, 0.0))


def test_ellipsoid_support_keeps_its_sum_where_it_is_finite():
    rng = np.random.default_rng(89)
    for entry in CATALOG:
        if entry.spec_type != "ellipsoid":
            continue
        ell = entry.make()
        for _ in range(20):
            y = rng.uniform(-1.0, 1.0, ell.dim)
            u = ell._evecs.T @ y
            assert ell._support(y) == math.sqrt(np.sum(u * u / ell._evals))


def test_ball_projector_beyond_the_float_range():
    # ||x - c|| exceeds the float maximum: the direction comes from x - c
    # scaled by its largest entry, not from (x - c) / inf = 0.
    np.testing.assert_allclose(EuclideanBall((0.0, 0.0), 1.0).project((1.7e308, 1.7e308)),
                               [math.sqrt(0.5)] * 2, rtol=1e-15)
    np.testing.assert_allclose(EuclideanBall((0.3, 0.0), 1.0).project((1.7e308, -1.7e308)),
                               [0.3 + math.sqrt(0.5), -math.sqrt(0.5)], rtol=1e-15)


@pytest.mark.filterwarnings("error")
def test_ball_projector_with_a_centre_near_the_float_range():
    # x - c itself overflows: it is formed from x and c scaled alike by a
    # power of 2, with no overflow and no nan.
    ball = EuclideanBall((-1e308, 0.0), 1e308)
    np.testing.assert_allclose(ball.project((1.7e308, 0.0)), [0.0, 0.0], atol=1e292)
    # The same ball and point scaled down by 1e308.
    np.testing.assert_allclose(ball.project((1.7e308, 1.7e308)) / 1e308,
                               EuclideanBall((-1.0, 0.0), 1.0).project((1.7, 1.7)),
                               rtol=1e-14)
    assert ball.project((-1e308, 5e307)).tolist() == [-1e308, 5e307]
    far = EuclideanBall((1e308, 1e308), 1.5e308)
    np.testing.assert_allclose(far.project((-1.7e308, -1.7e308)) / 1e308,
                               EuclideanBall((1.0, 1.0), 1.5).project((-1.7, -1.7)),
                               rtol=1e-14)
    tiny = EuclideanBall((0.0, 0.0), 1e-300)
    np.testing.assert_allclose(tiny.project((1.7e308, 1.7e308)),
                               [math.sqrt(0.5) * 1e-300] * 2, rtol=1e-15)


@pytest.mark.filterwarnings("error")
def test_off_centre_ball_projector_scales_x_minus_c_before_the_radius():
    # x - c and the answer lie in range but radius (x - c) does not: x - c
    # is scaled by radius / ||x - c||, at most 1, instead.
    ball = EuclideanBall((3e199, 0.0, 0.0), 1e200)
    np.testing.assert_allclose(ball.project((4e200, 1e200, 0.0)) / 1e200,
                               EuclideanBall((0.3, 0.0, 0.0), 1.0).project((4.0, 1.0, 0.0)),
                               rtol=1e-14)


@pytest.mark.filterwarnings("error")
def test_off_centre_ball_projector_scales_the_radius_last():
    # ||x - c|| / radius is above 2^1074 but the answer, radius on the ray to
    # x, is in range: radius / ||x - c|| alone would round to 0.
    np.testing.assert_array_equal(EuclideanBall(np.zeros(2), 1e-300).project((1e30, 0.0)),
                                  [1e-300, 0.0])
    np.testing.assert_allclose(EuclideanBall((1e-300, 0.0), 1e-300).project((0.0, 1e30)),
                               [1e-300, 1e-300], rtol=1e-15)


@pytest.mark.filterwarnings("error")
def test_ball_membership_with_a_centre_near_the_float_range():
    # The membership test forms x - c as the projector does.
    ball = EuclideanBall((-1e308, 0.0), 1e308)
    assert not ball.contains((1.7e308, 0.0))
    assert ball.contains((-1.7e308, 0.0))
    assert ball.contains((-1e308, 5e307))
    assert not ball.contains((-1e308, 1.7e308))
    far = EuclideanBall((1e308, 1e308), 1.5e308)
    assert not far.contains((-1.7e308, -1.7e308))
    assert far.contains((1.7e308, 1.7e308))


@pytest.mark.filterwarnings("error")
def test_psi_prime_at_zero_takes_sigma_in_range():
    # psi'(0+) takes sigma_C on the query within 2^(+-500), not rescaled,
    # where <c, y> may leave the float range though sigma_C does not: it is
    # formed on the power-of-2 rescale, as support() does.
    far = EuclideanBall((1e200, 0.0, 0.0), 1e200)
    assert PsiEvaluator(far, np.array([-1e150, 0.0, 0.0]), 0.0).psi_prime_plus_zero() == 0.0
    ball = EuclideanBall((3e199, 0.0, 0.0), 1e200)
    rng = np.random.default_rng(0)
    for k in range(-500, 501, 50):
        y, s = np.ldexp(rng.normal(size=3), k), math.ldexp(rng.uniform(-1.0, 1.0), k)
        slope = PsiEvaluator(ball, y, s).psi_prime_plus_zero()
        assert slope == -2.0 * (s + ball.support(y))


@pytest.mark.filterwarnings("error")
def test_simplex_and_l1_sums_stay_in_range():
    # Their sums are taken on the power-of-2 rescale, with no overflow.
    big = (1.7e308, 1.7e308)
    assert not Simplex(2).contains(big)
    assert Simplex(2).project(big).tolist() == [0.5, 0.5]
    assert L1Ball(1.0, 2).project(big).tolist() == [0.5, 0.5]
    # Entries far below the largest one: clipped breakpoints, not a sum of
    # them at -inf and a threshold of -inf.
    assert Simplex(3).project((2.0, -1.7e308, -1.7e308)).tolist() == [1.0, 0.0, 0.0]
    assert L1Ball(1.0, 3).project((1.7e308, 1e-300, 1e-300)).tolist() == [1.0, 0.0, 0.0]
    for n in (20, 2000):
        x = Simplex(n).project(np.r_[2.0, np.full(n - 1, -1.7e308)])
        assert x[0] == 1.0 and not x[1:].any()
        x = L1Ball(1.0, n).project(np.r_[1.7e308, np.full(n - 1, 1e-300)])
        assert x[0] == 1.0 and not x[1:].any()
    # A radius far below the entries keeps its digits.
    assert L1Ball(1e-10, 2).project((1e308, 1e308)).tolist() == [5e-11, 5e-11]


@pytest.mark.filterwarnings("error")
def test_ball_pen_forms_its_ray_point_on_the_rescale():
    pen = BallPen((0.6, 0.8))
    # <d, x> = 1.4 (1.7e308) leaves the float range; x is far from the ray.
    assert not pen.contains((1.7e308, 1.7e308))
    # Its nearest ray point, 1.7e308 (0.84, 1.12), exceeds the range too.
    with pytest.raises(OverflowError, match="float64 range"):
        pen.project((1.7e308, 1.7e308))
    with pytest.raises(OverflowError, match="float64 range"):
        pen.project_recession((1.7e308, 1.7e308))
    # x minus its ray point overflows; the answer lies in range.
    assert not pen.contains((-1.7e308, 1.7e308))
    np.testing.assert_allclose(pen.project((-1.7e308, 1.7e308)) / 1e308,
                               pen.project_recession((-1.7, 1.7)), rtol=1e-15)


def test_box_projector_is_clip_bit_for_bit():
    rng = np.random.default_rng(11)
    b = rng.uniform(0.0, 2.0, 50)
    b[::5] = 0.0
    box = Box(b)
    for x in (rng.uniform(-3.0, 3.0, 50), np.where(rng.integers(2, size=50), -0.0, 0.0),
              np.where(rng.integers(2, size=50), -1.0, 1.0) * b):
        assert box.project(x).tobytes() == np.clip(x, -b, b).tobytes()


def test_ellipsoid_kernel_stays_in_range_on_a_large_eigenvalue():
    # ||W^1/2 u||^2 overflows at a query within 2^500 when Q has a large
    # eigenvalue; the kernel agrees with the solver without a RuntimeWarning.
    ell = Ellipsoid(np.diag([1e10, 1.0]))
    v = ((1e150, 1e150), 1.0)
    fast = project_homogenization(ell, v)
    slow = project_homogenization(ell, v, eps=1e-13, force_iterative=True)
    assert fast.branch is slow.branch is Branch.CONE_INTERIOR
    assert fast.alpha_star == pytest.approx(slow.alpha_star, rel=1e-12)
    np.testing.assert_allclose(fast.point.y, slow.point.y, rtol=1e-12)


def test_ellipsoid_root_searches_raise_when_their_budget_is_spent(monkeypatch):
    # One evaluation cannot converge on this far point of a stretched
    # ellipsoid, for the projector or for the cone kernel: both run the
    # secular Newton solve, on Python floats and on numpy arrays alike.
    monkeypatch.setattr(homcone.roots, "_ROOT_MAX_STEPS", 1)
    ell = Ellipsoid([[1e3, 0.0], [0.0, 1e-3]])
    for limit in (math.inf, 0):
        set_floats(monkeypatch, limit)
        with pytest.raises(MaxIterationsExceeded, match="in 1 steps"):
            ell.project((50.0, 70.0))
        with pytest.raises(MaxIterationsExceeded,
                           match="secular equation did not converge in 1 steps"):
            project_homogenization(ell, ((50.0, 70.0), 0.5))


# ---------------------------------------------------------------------------
# JSON set specifications
# ---------------------------------------------------------------------------

def test_spec_round_trip_all_variants():
    specs = [
        '{"type": "euclidean_ball", "center": [1, 0], "radius": 1.0}',
        '{"type": "ball_pen", "direction": [0, 1]}',
        '{"type": "box", "halfwidths": [1, 2, 3]}',
        '{"type": "simplex", "dim": 4}',
        '{"type": "l1_ball", "radius": 2.0}',
        '{"type": "p_ball", "p": 3, "radius": 1.5}',
        '{"type": "p_ball", "p": "inf", "radius": 1.5}',
        '{"type": "ellipsoid", "q": [[2, 0], [0, 1]]}',
        '{"type": "shifted_unit_ball", "d": [0, -1]}',
        '{"type": "ball_plus_strip"}',
        '{"type": "hyperbolic"}',
    ]
    for text in specs:
        set_ = set_from_spec(text)
        assert set_.contains(np.zeros(set_.dim), tol=1e-9)


def test_paper_example_specs_build_the_cataloged_sets():
    ball = set_from_spec('{"type": "shifted_unit_ball", "d": [0.6, 0.8]}')
    assert type(ball) is EuclideanBall and ball.radius == 1.0
    np.testing.assert_allclose(ball.center, [-0.6, -0.8], rtol=1e-15)
    pen = set_from_spec('{"type": "ball_plus_strip"}')
    assert type(pen) is BallPen and pen.direction.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("kind", ["simplex", "l1_ball", "p_ball"])
@pytest.mark.parametrize("dim", ["2.7", "true", '"3"'], ids=["float", "bool", "string"])
def test_spec_rejects_non_integer_dim(kind, dim):
    params = {"simplex": "", "l1_ball": ', "radius": 1', "p_ball": ', "p": 3, "radius": 1'}
    with pytest.raises(ValueError, match="dimension must be an integer"):
        set_from_spec(f'{{"type": "{kind}", "dim": {dim}{params[kind]}}}')


NON_NUMERIC_FIELDS = [
    '{"type": "euclidean_ball", "center": [0, 0], "radius": true}',
    '{"type": "euclidean_ball", "center": [0, 0], "radius": "2"}',
    '{"type": "euclidean_ball", "center": [false, 0], "radius": 1}',
    '{"type": "euclidean_ball", "center": ["0.5", 0], "radius": 1}',
    '{"type": "box", "halfwidths": [true, 1]}',
    '{"type": "box", "halfwidths": "12"}',
    '{"type": "ball_pen", "direction": [false, true]}',
    '{"type": "l1_ball", "radius": true}',
    '{"type": "p_ball", "p": true, "radius": 1}',
    '{"type": "p_ball", "p": 3, "radius": "1"}',
    '{"type": "ellipsoid", "q": [[true, 0], [0, 1]]}',
    '{"type": "ellipsoid", "q": [[2, "0"], ["0", 1]]}',
    '{"type": "shifted_unit_ball", "d": [0, true]}',
]


@pytest.mark.parametrize("text", NON_NUMERIC_FIELDS)
def test_spec_rejects_bools_and_strings_in_numeric_fields(text):
    with pytest.raises(ValueError, match="must be numeric"):
        set_from_spec(text)


def test_spec_rejects_an_unrecognized_p_string():
    # It goes through the builder's wrapper, like every other bad parameter.
    with pytest.raises(ValueError,
                       match="^bad parameters for p_ball: unrecognized p value 'two'$"):
        set_from_spec('{"type": "p_ball", "p": "two", "radius": 1}')


def test_spec_accepts_p_inf_and_numeric_fields():
    assert set_from_spec('{"type": "p_ball", "p": "inf", "radius": 1}').p == math.inf
    ball = set_from_spec('{"type": "euclidean_ball", "center": [0, 0.5], "radius": 2}')
    assert ball.radius == 2.0 and ball.center.tolist() == [0.0, 0.5]


def test_dimension_accepts_numpy_integers():
    assert Simplex(np.int64(3)).dim == 3
    assert L1Ball(1.0, np.int32(4)).dim == 4


def test_spec_rejects_garbage():
    with pytest.raises(ValueError, match="^invalid JSON: Expecting property name"):
        set_from_spec("{not json")
    with pytest.raises(ValueError, match="^unknown set type 'moebius_strip'$"):
        set_from_spec('{"type": "moebius_strip"}')
    with pytest.raises(ValueError, match=r"^unknown keys for euclidean_ball: \['color'\]$"):
        set_from_spec('{"type": "euclidean_ball", "center": [0, 0], "radius": 1, "color": "red"}')
    with pytest.raises(ValueError, match=r"^missing keys for euclidean_ball: \['radius'\]$"):
        set_from_spec('{"type": "euclidean_ball", "center": [0, 0]}')
    with pytest.raises(ValueError, match="^set spec must be a JSON object$"):
        set_from_spec('[1, 2, 3]')
    with pytest.raises(ValueError, match="^bad parameters for euclidean_ball: the ball must "
                                         "contain the origin"):
        set_from_spec('{"type": "euclidean_ball", "center": [2, 0], "radius": 1}')


def test_membership_examples():
    assert Simplex(3).contains((0.2, 0.3, 0.4))
    assert not Simplex(3).contains((0.5, 0.6, 0.2))
    assert BallPen((0.0, 1.0)).contains((0.9, 50.0))
    assert BallPen((0.0, 1.0)).contains((0.3, -0.9))
    assert not BallPen((0.0, 1.0)).contains((1.5, -0.5))
    assert Hyperbolic().contains((-1.0, 1.0))
    assert not Hyperbolic().contains((0.5, 1.0))
