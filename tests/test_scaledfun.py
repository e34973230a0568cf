import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from homcone import (
    BallPen,
    Box,
    CapabilityMissing,
    Ellipsoid,
    EuclideanBall,
    Hyperbolic,
    MaxIterationsExceeded,
    PsiEvaluator,
    Simplex,
    project_homogenization,
)
from set_catalog import CORE, pairs
from test_homproj import CountingBox


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------

def test_phi_ball_outside():
    # (||y|| - gamma)^2 = (5 - 1)^2
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (3.0, 4.0), 0.0)
    assert ev.phi(1.0) == pytest.approx(16.0, abs=1e-12)


def test_phi_zero_cases():
    ev = PsiEvaluator(Simplex(2), (0.0, 0.0), 3.0)
    assert ev.phi(1.0) == 0.0
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (3.0, 4.0), 0.0)
    assert ev.phi(5.0) == pytest.approx(0.0, abs=1e-12)


def test_phi_rejects_nonpositive_alpha():
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (1.0, 1.0), 0.0)
    with pytest.raises(ValueError, match="the scaling parameter must be positive"):
        ev.phi(0.0)
    with pytest.raises(ValueError, match="the scaling parameter must be positive"):
        ev.phi_prime(-1.0)
    with pytest.raises(ValueError, match="the scaling parameter must be positive"):
        ev.psi_prime(0.0)
    with pytest.raises(ValueError, match="the scaling parameter must be nonnegative"):
        ev.psi(-0.5)


# ---------------------------------------------------------------------------
# phi'
# ---------------------------------------------------------------------------

def test_phi_prime_ball():
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (3.0, 4.0), 0.0)
    assert ev.phi_prime(1.0) == pytest.approx(-8.0, abs=1e-12)
    fd = central_diff(ev.phi, 1.0, 1e-6)
    assert ev.phi_prime(1.0) == pytest.approx(fd, rel=1e-7)


def test_phi_prime_zero_at_origin_query():
    ev = PsiEvaluator(Box((1.0, 1.0)), (0.0, 0.0), 0.0)
    assert ev.phi_prime(2.0) == 0.0


def test_phi_prime_ball_pen():
    # phi(a) = max^2(0, dist(y, ray) - a) with dist = 5, so phi'(1) = -8.
    ev = PsiEvaluator(BallPen((0.0, 1.0)), (3.0, -4.0), 0.0)
    assert ev.phi_prime(1.0) == pytest.approx(-8.0, abs=1e-12)
    fd = central_diff(ev.phi, 1.0, 1e-6)
    assert ev.phi_prime(1.0) == pytest.approx(fd, rel=1e-7)


def test_phi_prime_nonpositive_random():
    rng = np.random.default_rng(21)
    for _, set_ in pairs(CORE, projectable=True):
        for _ in range(100):
            ev = PsiEvaluator(set_, rng.uniform(-5, 5, set_.dim), rng.uniform(-5, 5))
            assert ev.phi_prime(rng.uniform(0.05, 10.0)) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_phi_prime_is_bit_for_bit_within_range():
    # Where <p, w - p> is in range, phi' is -2 alpha <p, w - p> as numpy's
    # dot product forms it, bit for bit.
    rng = np.random.default_rng(23)
    for _, set_ in pairs(CORE, projectable=True):
        for _ in range(50):
            t = 10.0 ** rng.uniform(-150.0, 150.0)
            ev = PsiEvaluator(set_, t * rng.normal(size=set_.dim), 0.0)
            alpha = t * rng.uniform(0.05, 10.0)
            w = ev.y / alpha
            p = set_.project(w)
            assert ev.phi_prime(alpha) == -2.0 * alpha * float(p @ (w - p))


@pytest.mark.filterwarnings("error")
def test_phi_prime_is_range_safe():
    # Near a ball of radius 1e200 off the origin, P_C(w) has entries near
    # 1e200, and <p, w - p> at w near 1e250 leaves the float range while
    # alpha <p, w - p> does not: phi' is taken on the power-of-2 rescales.
    ball = EuclideanBall((3e199, 0.0, 0.0), 1e200)
    ev = PsiEvaluator(ball, (1e100, -2e100, 5e99), 0.0)
    alpha = 1e-150
    w = ev.y / alpha
    p = ball.project(w)
    exact = -2.0 * math.fsum(float(pi) * (float(qi) * alpha)
                             for pi, qi in zip(p, w - p))
    assert math.isfinite(exact)
    assert ev.phi_prime(alpha) == pytest.approx(exact, rel=1e-14)
    # Here w = y / alpha is inside C, so <p, w - p> = 0 while -2 alpha and
    # 2 (alpha - s) overflow: phi' is 0, not inf * 0 = nan, and psi' is +inf.
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.3), (-2.21e307, 1e308), -7.06e307)
    assert (ev.phi_prime(1e308), ev.psi_prime(1e308)) == (0.0, math.inf)
    # Above alpha = 2^1023, -2 alpha overflows while -2 alpha <p, w - p> does
    # not: phi' is finite, about -2e307.
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (1.1e308, 0.0), 0.0)
    alpha = 1e308
    w = ev.y / alpha
    p = ev.set.project(w)
    exact = -2.0 * math.fsum(float(pi) * (float(qi) * alpha)
                             for pi, qi in zip(p, w - p))
    assert ev.phi_prime(alpha) == pytest.approx(exact, rel=1e-14)


@pytest.mark.filterwarnings("error")
def test_wide_off_centre_ball_raises_no_floating_point_warning():
    # This ball has no cone kernel (its weights leave 2^(+-900)), so P_K runs
    # the solver, whose psi' forms <p, w - p> of vectors near 1e200.  With
    # warnings as errors, every query at scales 1e-300..1e308 answers or
    # spends the root budget (a separate defect of the solver).
    ball = EuclideanBall((3e199, 0.0, 0.0), 1e200)
    rng = np.random.default_rng(0)
    answered = 0
    for t in np.logspace(-300, 308, 40):
        v = (t * rng.normal(size=3), t * rng.uniform(-1.0, 1.0))
        try:
            res = project_homogenization(ball, v)
        except MaxIterationsExceeded:
            continue
        answered += 1
        assert math.isfinite(res.alpha_star) and np.isfinite(res.point.y).all()
    assert answered >= 18


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------

def test_psi_ball_off_center():
    ev = PsiEvaluator(EuclideanBall((1.0, 0.0), 1.0), (1.0, 2.0), 1.0)
    assert ev.psi(1.0) == pytest.approx(1.0, abs=1e-12)


def test_psi_at_zero_bounded():
    ev = PsiEvaluator(Box((1.0, 1.0)), (0.0, 0.0), 0.0)
    assert ev.psi(0.0) == 0.0


def test_psi_at_zero_ball_pen():
    # dist(y, ray)^2 + s^2 = 4 + 9
    ev = PsiEvaluator(BallPen((0.0, 1.0)), (0.0, -2.0), -3.0)
    assert ev.psi(0.0) == pytest.approx(13.0, abs=1e-12)


def test_psi_at_zero_needs_recession_projector():
    ev = PsiEvaluator(Hyperbolic(), (1.0, 1.0), 0.0)
    with pytest.raises(CapabilityMissing, match="does not expose a recession-cone projector"):
        ev.psi(0.0)


# ---------------------------------------------------------------------------
# psi'
# ---------------------------------------------------------------------------

def test_psi_prime_trivial():
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (0.0, 0.0), 0.0)
    assert ev.psi_prime(1.0) == pytest.approx(2.0, abs=1e-12)


def test_psi_prime_reference_instance_clipped_values():
    # At alpha in {3, 5} the query y/alpha lies inside the ball, so the exact
    # derivative of phi vanishes and psi' reduces to 2 (alpha - s).  The
    # bundled reference trace prints 4.10 / 8.11 there because it evaluates
    # the radial branch expression on both sides; see the homproj tests.
    ev = PsiEvaluator(EuclideanBall((1.0, 0.0), 1.0), (1.0, 2.0), 1.0)
    assert ev.psi_prime(3.0) == pytest.approx(4.0, abs=1e-12)
    assert ev.psi_prime(5.0) == pytest.approx(8.0, abs=1e-12)
    fd3 = central_diff(ev.psi, 3.0, 1e-7)
    assert ev.psi_prime(3.0) == pytest.approx(fd3, rel=1e-6)
    # Away from the clipped region both conventions coincide; frozen from the
    # radial expression, matching the reference table at 3 significant digits.
    assert ev.psi_prime(1.5) == pytest.approx(0.14928750, abs=5e-8)
    assert ev.psi_prime(0.75) == pytest.approx(-3.3450768, abs=5e-8)


def psi_prime_plus_zero_ball(center, radius, y, s):
    return PsiEvaluator(EuclideanBall(center, radius), y, s).psi_prime_plus_zero()


def test_psi_prime_plus_zero_examples():
    # For a ball the certificate is -2s - 2<center, y> - 2 radius ||y||.
    v = psi_prime_plus_zero_ball((1.0, 0.0), 1.0, (1.0, 2.0), 1.0)
    assert v == pytest.approx(-2.0 - 2.0 - 2.0 * math.sqrt(5.0), abs=1e-12)
    assert v < 0  # positive minimizer for this instance
    assert psi_prime_plus_zero_ball((0.0, 0.0), 1.0, (0.0, 0.0), -1.0) == 2.0
    assert psi_prime_plus_zero_ball((0.0, 0.0), 2.0, (3.0, 4.0), -20.0) == pytest.approx(20.0)
    with pytest.raises(ValueError, match="the ball must contain the origin"):
        psi_prime_plus_zero_ball((3.0, 0.0), 1.0, (1.0, 1.0), 0.0)


def test_psi_prime_plus_zero_sign_matches_grid_minimum():
    # Nonnegative right derivative at 0 certifies the 0 minimizer; check the
    # certificate against a direct grid scan of psi.
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 2.0), (3.0, 4.0), -20.0)
    grid = np.linspace(0.0, 50.0, 20_001)
    values = [ev.psi(a) for a in grid]
    assert int(np.argmin(values)) == 0
    assert psi_prime_plus_zero_ball((0.0, 0.0), 2.0, (3.0, 4.0), -20.0) >= 0.0


def test_psi_prime_plus_zero_is_the_right_limit():
    # -2 (s + sigma_C(y)) is the limit of psi' at 0+ on every bounded set,
    # and psi'(0) itself stays undefined.
    rng = np.random.default_rng(27)
    for _, set_ in pairs(CORE, projectable=True, bounded=True):
        for _ in range(50):
            ev = PsiEvaluator(set_, rng.uniform(-6, 6, set_.dim), rng.uniform(-6, 6))
            assert ev.psi_prime_plus_zero() == pytest.approx(ev.psi_prime(1e-7), abs=1e-5)
        with pytest.raises(ValueError, match="the scaling parameter must be positive"):
            ev.psi_prime(0.0)
    with pytest.raises(CapabilityMissing, match="needs a bounded set"):
        PsiEvaluator(BallPen((0.0, 1.0)), (1.0, 1.0), 0.0).psi_prime_plus_zero()


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def evaluators(rng):
    for _, set_ in pairs(CORE, projectable=True):
        y = rng.uniform(-6, 6, size=set_.dim)
        s = rng.uniform(-6, 6)
        yield PsiEvaluator(set_, y, s)


def test_psi_prime_nondecreasing():
    rng = np.random.default_rng(23)
    grid = np.linspace(0.05, 25.0, 400)
    for ev in evaluators(rng):
        vals = [ev.psi_prime(a) for a in grid]
        assert all(v2 >= v1 - 1e-9 for v1, v2 in zip(vals, vals[1:]))


def test_phi_nonincreasing():
    rng = np.random.default_rng(24)
    grid = np.linspace(0.05, 25.0, 400)
    for ev in evaluators(rng):
        vals = [ev.phi(a) for a in grid]
        assert all(v2 <= v1 + 1e-9 for v1, v2 in zip(vals, vals[1:]))


def test_phi_limits():
    rng = np.random.default_rng(25)
    for ev in evaluators(rng):
        r = ev.set.recession_distance(ev.y)
        assert ev.phi(1e-8) == pytest.approx(r * r, abs=1e-4)
    # Sets containing a neighbourhood of 0 generate the whole space, so the
    # large-alpha limit of phi is 0.
    for set_ in (EuclideanBall((0.0, 0.0), 1.3), BallPen((0.6, 0.8))):
        ev = PsiEvaluator(set_, (3.0, -4.0), 0.0)
        assert ev.phi(1e8) == pytest.approx(0.0, abs=1e-4)
    # The corner simplex generates the nonnegative orthant.
    ev = PsiEvaluator(Simplex(2), (3.0, -4.0), 0.0)
    assert ev.phi(1e8) == pytest.approx(16.0, abs=1e-4)
    # At alpha = 1e-200, w - P_C(w) is near 1e200 and its square would
    # overflow; phi and psi still reach the limit r^2 = 1.
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (1.0, 0.0), 0.0)
    assert ev.phi(1e-200) == pytest.approx(1.0, rel=1e-15)
    assert ev.psi(1e-200) == pytest.approx(1.0, rel=1e-15)


# ---------------------------------------------------------------------------
# The projection memo of a shared evaluator
# ---------------------------------------------------------------------------

def test_each_alpha_costs_one_projector_call():
    # phi and phi', and psi and psi', at one alpha read one P_C(y / alpha).
    box = CountingBox((1.0, 2.0))
    ev = PsiEvaluator(box, (3.0, -4.0), 0.5)
    for value, slope, alpha in ((ev.phi, ev.phi_prime, 0.7), (ev.psi, ev.psi_prime, 1.9)):
        calls = box.calls
        value(alpha)
        slope(alpha)
        assert box.calls == calls + 1


def test_an_alpha_that_puts_w_out_of_range_is_an_overflow_error():
    # At alpha = 1e-310, w = y / alpha is (inf, 0): phi, psi and phi' were
    # nan there.  The error names the scaling parameter, and P_C is not called.
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (1.0, 0.0), 0.0)
    for f in (ev.phi, ev.psi, ev.phi_prime, ev.psi_prime):
        with pytest.raises(OverflowError, match="scaling parameter puts y / alpha beyond"):
            f(1e-310)
    box = CountingBox((1.0, 1.0))
    with pytest.raises(OverflowError, match="scaling parameter"):
        PsiEvaluator(box, (1.0, 0.0), 0.0).psi_prime(1e-310)
    assert box.calls == 0


def test_shared_evaluator_answers_do_not_depend_on_call_order():
    set_ = Ellipsoid([[2.0, 0.3], [0.3, 0.8]])
    y, s = np.array([3.0, -4.0]), 0.5
    alphas = [0.3, 1.7, 0.3, 5.0, 1.7, 0.9, 5.0, 0.3, 2.2, 0.9]
    expected = {a: (PsiEvaluator(set_, y, s).psi_prime(a), set_.project(y / a))
                for a in alphas}
    ev = PsiEvaluator(set_, y, s)
    for order in (alphas, alphas[::-1], sorted(alphas)):
        for a in order:
            assert ev.psi_prime(a) == expected[a][0]
        for a in reversed(order):
            np.testing.assert_array_equal(ev._at(a)[2], expected[a][1])


def test_shared_evaluator_is_consistent_across_threads():
    # A torn memo entry would pair one alpha with another alpha's projection.
    set_ = Box((1.0, 2.0, 0.5))
    y, s = np.array([3.0, -4.0, 2.5]), 0.25
    alphas = np.linspace(0.1, 6.0, 25)
    expected = [(PsiEvaluator(set_, y, s).psi_prime(a), set_.project(y / a)) for a in alphas]
    ev = PsiEvaluator(set_, y, s)

    def work(shift):
        got = []
        for k in range(20 * len(alphas)):
            i = (k * 7 + shift) % len(alphas)
            got.append((i, ev.psi_prime(alphas[i]), ev._at(alphas[i])[2]))
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(16), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 16
    for got in results:
        for i, d, p in got:
            assert d == expected[i][0]
            np.testing.assert_array_equal(p, expected[i][1])
