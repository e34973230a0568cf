import dataclasses
import hashlib
import math

import numpy as np
import pytest

import homcone
import homcone.homproj
from homcone import (
    BallPen,
    Box,
    Branch,
    Ellipsoid,
    EuclideanBall,
    L1Ball,
    MaxIterationsExceeded,
    PBall,
    PsiEvaluator,
    Simplex,
    TraceRow,
    project_homogenization,
)
from homcone.paper import (
    REFERENCE_TABLE,
    bisection_projection,
    find_alpha_star,
    quartic_coefficients,
    reference_trace,
)
from homcone.roots import brent_root
from set_catalog import BY_ID, CATALOG, CORE, OFF_AXIS, UserBall, pairs, params

REFERENCE_ALPHA_STAR = 1.4597189


def fmt8(x):
    return "" if x is None else f"{x:#.8g}"


def fmt_dpsi(x):
    return "" if x is None else f"{x:.2e}"


# Formats trace rows as `homcone table1` prints them, written out here so that
# the comparison with paper.REFERENCE_TABLE does not rely on the CLI's formatter.
def format_rows(trace):
    return [
        (
            r.n,
            fmt8(r.alpha),
            fmt8(r.mid),
            fmt8(r.beta),
            fmt_dpsi(r.dpsi_alpha),
            fmt_dpsi(r.dpsi_mid),
            fmt_dpsi(r.dpsi_beta),
        )
        for r in trace
    ]


# ---------------------------------------------------------------------------
# find_alpha_star, the paper's reference bisection (homcone.paper)
# ---------------------------------------------------------------------------

def test_reference_trace_matches_frozen_rows():
    alpha_star, trace = reference_trace()
    assert format_rows(trace) == list(REFERENCE_TABLE)
    assert abs(alpha_star - REFERENCE_ALPHA_STAR) < 5e-8


def test_reference_trace_golden_rows_detail():
    _, trace = reference_trace()
    r3 = trace[2]
    assert (fmt8(r3.alpha), fmt8(r3.mid), fmt8(r3.beta)) == (
        "0.75000000",
        "1.1250000",
        "1.5000000",
    )
    assert fmt_dpsi(r3.dpsi_alpha) == "-3.35e+00"
    assert fmt_dpsi(r3.dpsi_beta) == "1.49e-01"
    r12 = trace[11]
    assert fmt8(r12.mid) == "1.4597168"
    assert fmt_dpsi(r12.dpsi_mid) == "-1.06e-05"


#: sha256 of the reference trace's rows, one line per row of its six float
#: fields as ``float.hex`` ("" for a missing midpoint), joined by newlines.
REFERENCE_TRACE_SHA256 = "e2e7aeb87b40e74837c37f93ee50e7090e608e8f30f682746fa10f8fe43a1200"


def test_reference_trace_is_pinned_bit_for_bit():
    # The bundled trace is the paper's: any change to how psi' or the
    # bisection is evaluated that moves one bit of it shows here.
    alpha_star, trace = reference_trace()
    assert alpha_star.hex() == "0x1.75b0240000000p+0"
    text = "\n".join(",".join("" if v is None else float(v).hex() for v in row[1:])
                     for row in trace)
    assert hashlib.sha256(text.encode()).hexdigest() == REFERENCE_TRACE_SHA256


def test_pure_bisection_has_no_bracket_moves():
    # psi'(2) < 0 < psi'(4) immediately, so every row carries a midpoint.
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (3.0, 4.0), 0.0)
    alpha_star, trace = find_alpha_star(ev.psi_prime, 2.0, 4.0, 1e-6, 200)
    assert all(r.mid is not None for r in trace)
    assert alpha_star == pytest.approx(2.5, abs=1e-6)


def test_bisection_agrees_with_ice_cream_closed_form():
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (3.0, 4.0), 0.0)
    alpha_star, _ = find_alpha_star(ev.psi_prime, 1.0, 2.0, 1e-6, 200)
    assert alpha_star == pytest.approx(2.5, abs=1e-6)


def test_alpha_zero_declared_by_halving():
    # psi' stays positive all the way down, certifying the 0 minimizer.
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 2.0), (3.0, 4.0), -20.0)
    alpha_star, trace = find_alpha_star(ev.psi_prime, 1.0, 2.0, 1e-6, 200)
    assert alpha_star == 0.0
    assert all(r.mid is None for r in trace)


def test_max_iterations_exceeded():
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (3.0, 4.0), 0.0)
    with pytest.raises(MaxIterationsExceeded):
        find_alpha_star(ev.psi_prime, 1e-3, 2e-3, 1e-12, max_iter=3)


@pytest.mark.parametrize("root", [1.0, 2.0], ids=["left", "right"])
def test_bracket_end_with_zero_derivative_is_returned(root):
    # psi' = alpha - root vanishes at a bracket end, so no bisection row is needed.
    alpha_star, trace = find_alpha_star(lambda a: a - root, 1.0, 2.0)
    assert alpha_star == root
    assert len(trace) == 1 and trace[0].mid is None


def test_trace_bracket_monotonicity():
    _, trace = reference_trace()
    rows = trace
    for r1, r2 in zip(rows, rows[1:]):
        assert r2.alpha > r1.alpha or r2.beta < r1.beta
    widths = [r.beta - r.alpha for r in rows if r.mid is not None]
    for w1, w2 in zip(widths, widths[1:]):
        assert w2 == pytest.approx(0.5 * w1, rel=1e-12)


# ---------------------------------------------------------------------------
# Closed-form fast paths
# ---------------------------------------------------------------------------

def test_ice_cream_ray_branch():
    res = project_homogenization(EuclideanBall((0.0, 0.0), 1.0), (np.array([3.0, 4.0]), 0.0))
    np.testing.assert_allclose(res.point.y, [1.5, 2.0], atol=1e-12)
    assert res.point.s == pytest.approx(2.5)
    assert res.branch is Branch.CONE_INTERIOR
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (3.0, 4.0), 0.0)
    alpha_star, _ = find_alpha_star(ev.psi_prime, 1.0, 2.0, 1e-6, 200)
    assert res.alpha_star == pytest.approx(alpha_star, abs=1e-6)


def test_ice_cream_apex_branch():
    res = project_homogenization(EuclideanBall((0.0, 0.0), 1.0), (np.array([0.0, 0.0]), -1.0))
    np.testing.assert_allclose(res.point.y, [0.0, 0.0])
    assert res.point.s == 0.0
    assert res.branch is Branch.RECESSION


def test_ice_cream_member_branch():
    res = project_homogenization(EuclideanBall((0.0, 0.0), 2.0), (np.array([1.0, 0.0]), 1.0))
    np.testing.assert_allclose(res.point.y, [1.0, 0.0])
    assert res.point.s == 1.0
    assert res.branch is Branch.ALREADY_IN_K


def test_ball_pen_recession_branch():
    res = project_homogenization(BallPen((0.0, 1.0)), (np.array([0.0, -2.0]), -3.0))
    np.testing.assert_allclose(res.point.y, [0.0, 0.0])
    assert res.point.s == 0.0
    assert res.branch is Branch.RECESSION


def test_ball_pen_member_branch():
    res = project_homogenization(BallPen((0.0, 1.0)), (np.array([0.0, 5.0]), 7.0))
    np.testing.assert_allclose(res.point.y, [0.0, 5.0])
    assert res.point.s == 7.0
    assert res.branch is Branch.ALREADY_IN_K


def test_ball_pen_ray_branch():
    res = project_homogenization(BallPen((0.0, 1.0)), (np.array([4.0, 0.0]), 0.0))
    assert res.alpha_star == pytest.approx(2.0)
    np.testing.assert_allclose(res.point.y, [2.0, 0.0], atol=1e-12)
    assert res.point.s == pytest.approx(2.0)
    # Cross-check against the bracket search.
    pen = BallPen((0.0, 1.0))
    it = project_homogenization(pen, (np.array([4.0, 0.0]), 0.0), force_iterative=True)
    assert np.linalg.norm(res.point.y - it.point.y) <= 1e-5
    assert abs(res.point.s - it.point.s) <= 1e-5


@pytest.mark.parametrize("entry", params(CORE, kernel=True))
def test_cone_kernel_is_the_one_dispatch_point(entry, monkeypatch):
    set_ = entry.make()
    kernel = type(set_)._project_cone
    calls = []

    def counting(self, y, s):
        calls.append((y, s))
        return kernel(self, y, s)

    monkeypatch.setattr(type(set_), "_project_cone", counting)
    for y, s in [((3.0, 4.0), 0.5), ((0.0, 1.0), 9.0), ((0.0, -2.0), -5.0)]:
        res = project_homogenization(set_, (np.resize(y, set_.dim), s))
        assert res.iterations == 0
    assert len(calls) == 3

    def forbidden(self, y, s):
        raise AssertionError("force_iterative must bypass the cone kernel")

    monkeypatch.setattr(type(set_), "_project_cone", forbidden)
    res = project_homogenization(set_, (np.resize((3.0, 4.0), set_.dim), 0.5),
                                 force_iterative=True)
    assert res.iterations > 0


def kernel_queries(set_, rng, count=45):
    """Queries on every branch: a third inside K (y = s c for a member c), a
    third in the polar cone of K (s < -sigma_C(y)), and a third off both.
    Every other y has small-integer entries, which ties breakpoints; every
    fourth y is all-negative, and three heights off both are 0."""
    queries = []
    for i in range(count):
        y = rng.uniform(-4.0, 4.0, set_.dim)
        if i % 2:
            y = rng.integers(-3, 4, set_.dim).astype(float)
        if i % 4 == 0:
            y = -np.abs(y)
        if i % 3 == 0:
            s = rng.uniform(0.1, 4.0)
            y = s * set_.project(y)
        elif i % 3 == 1:
            if not set_.bounded:
                # Reflected off the recession cone, y is in its polar, where
                # sigma_C is finite.
                y = y - 2.0 * set_.project_recession(y)
            s = -set_.support(y) - rng.uniform(0.0, 2.0)
        else:
            s = 0.0 if i % 5 == 2 else rng.uniform(-4.0, 4.0)
        queries.append((y, s))
    return queries


def kernel_branch(set_, v):
    """The branch of the cone kernel's answer to v, which agrees with
    force_iterative at eps 1e-13 to 1e-12 ||v|| in alpha* and the point."""
    fast = project_homogenization(set_, v)
    slow = project_homogenization(set_, v, eps=1e-13, force_iterative=True)
    v_norm = math.hypot(float(np.linalg.norm(v[0])), v[1])
    assert fast.iterations == 0 and fast.point.s == fast.alpha_star
    assert abs(fast.alpha_star - slow.alpha_star) <= 1e-12 * v_norm
    assert float(np.linalg.norm(fast.point.y - slow.point.y)) <= 1e-12 * v_norm
    return fast.branch


@pytest.mark.parametrize("entry", params(CATALOG, "routes", kernel=True))
def test_cone_kernel_agrees_with_the_generic_solver(entry):
    # On every branch and at every scale.
    set_ = entry.make()
    queries = [*kernel_queries(set_, np.random.default_rng(53)), *entry.queries]
    branches = {kernel_branch(set_, (t * y, t * s)) for y, s in queries for t in SCALES}
    assert branches == set(Branch)


@pytest.mark.parametrize("c", [1e-20, 1e20, 1e100])
def test_ellipsoid_kernel_is_exact_at_every_scale_of_q(c):
    # Q = c diag(1, 2, 3) is a huge or a tiny ellipsoid; the kernel's unknown
    # carries no scale of Q, so it agrees with the generic solver as above.
    ell = Ellipsoid(c * np.diag([1.0, 2.0, 3.0]))
    queries = kernel_queries(ell, np.random.default_rng(55))
    assert {kernel_branch(ell, v) for v in queries} == set(Branch)


@pytest.mark.parametrize("rho", [1e-12, 0.5, 1.0])
def test_off_centre_ball_kernel_on_the_centre_axis(rho):
    # y = a e leaves y_perp = 0, the kernel's own branch: every branch there
    # agrees with the solver as above.
    ball = EuclideanBall(rho * OFF_AXIS, 1.0)
    branches = {kernel_branch(ball, (a * OFF_AXIS, s)) for a in (-3.0, -0.5, 0.0, 0.5, 3.0)
                for s in (-4.0, -1.0, 0.0, 0.3, 1.0, 4.0)}
    assert branches == set(Branch)


def test_off_centre_ball_rotation_diagonalises_m():
    # The closed-form rotation and weights against an eigensolver on
    # M = [[1, -rho], [-rho, rho^2 - gamma^2]].
    for rho, gamma in [(1e-12, 1.0), (0.5, 1.0), (1.0, 1.0), (0.3, 0.4), (2.0, 7.0)]:
        ball = EuclideanBall((rho, 0.0), gamma)
        cos, sin = ball._turn
        m = np.array([[1.0, -rho], [-rho, rho * rho - gamma * gamma]])
        rot = np.array([[cos, -sin], [sin, cos]])
        lam, neg = np.diag(rot @ m @ rot.T)
        np.testing.assert_allclose(rot @ m @ rot.T, np.diag([lam, neg]),
                                   atol=1e-14 * gamma ** 2)
        np.testing.assert_allclose(ball._weights, [1.0 / -neg, lam / -neg], rtol=1e-13)
        assert sin * rho + cos > 0.0  # q > 0 on the ray through (c, 1)


@pytest.mark.parametrize("exponent", range(-100, 101, 25))
@pytest.mark.parametrize("rho", [1e-12, 0.5, 1.0])
def test_off_centre_ball_kernel_at_extreme_radii(rho, exponent):
    # From a radius of 1e-100 to 1e100, at query scales from 1e-300 to 1e300:
    # no exception and no RuntimeWarning (an error under pytest), a height
    # >= 0, and <p, v - p> = 0 to 1e-12 ||v||^2.
    gamma = 10.0 ** exponent
    ball = EuclideanBall(rho * gamma * OFF_AXIS, gamma)
    for t, y, s in extreme_radii_queries(gamma):
        res = project_homogenization(ball, (t * y, t * s))
        x, h = res.point.y / t, res.point.s / t
        assert h >= 0.0 and np.all(np.isfinite(x))
        orth = float(x @ (y - x)) + h * (s - h)
        assert abs(orth) <= 1e-12 * (float(y @ y) + s * s)


def extreme_radii_queries(gamma):
    """(t, y, s): 3-D queries (y, s) of largest entry 1, about half of them
    with y first stretched by a radius gamma above 1, at the scales t from
    1e-300 to 1e300."""
    rng = np.random.default_rng(57)
    for t in (1e-300, 1e-9, 1.0, 1e12, 1e300):
        for _ in range(12):
            y = rng.normal(size=3) * (max(gamma, 1.0) if rng.integers(2) else 1.0)
            s = rng.uniform(-1.0, 1.0)
            unit = max(float(np.abs(y).max()), abs(s))
            yield t, y / unit, s / unit


def test_off_centre_ball_beyond_the_kernel_weights_takes_the_solver():
    # At radius 1e-140 the weights (about 1e280) leave 2^(+-900): the kernel
    # declines and the generic solver answers.
    ball = EuclideanBall((5e-141, 0.0), 1e-140)
    v = ((1.0, 1.0), 1.0)
    assert ball._project_cone(*v) is None
    res = project_homogenization(ball, v, eps=1e-12)
    assert res.iterations > 0 and res.branch is Branch.CONE_INTERIOR
    assert moreau_certificate(ball, v, res) <= 1e-9


def moreau_certificate(set_, v, res, wide=False):
    """Largest of the three Moreau residuals of the answer p = (x, alpha*),
    each relative to ||v||: p in K (its distance to K, through P_C), v - p in
    the polar of K (s_q + sigma_C(y_q) <= 0), and <p, v - p> = 0.

    On an unbounded C, sigma_C(y_q) is +inf wherever roundoff puts y_q a
    little off the polar of the recession cone R_C, so y_q first loses its
    part P_R(y_q) in R_C, and then 1e-12 ||v|| more along it (w is the
    rest); the dual residual adds what that moved.  On a wide C (see
    set_catalog.Entry) the excess s_q + sigma_C(w) moves by eps ||v|| times
    the size of C when p is rounded, so it is read as a distance instead:
    the one from (w, s_q) to (lambda w, s_q) in the polar, 0 <= lambda <= 1."""
    y, s = v
    x, t = res.point
    v_norm = math.hypot(float(np.linalg.norm(y)), s)
    if t > 0.0:
        primal = t * float(np.linalg.norm(x / t - set_.project(x / t)))
    else:
        primal = set_.recession_distance(x) - t
    q_y, q_s = y - x, s - t
    w, moved = q_y, 0.0
    if not set_.bounded:
        r = set_.project_recession(q_y)
        along = float(np.linalg.norm(r))
        if along > 0.0:
            moved = along + 1e-12 * v_norm
            w = q_y - (moved / along) * r
    sigma = set_.support(w)
    dual = max(0.0, q_s + sigma)
    if wide and dual > 0.0 and q_s < 0.0:
        dual = (1.0 + q_s / sigma) * float(np.linalg.norm(w))
    dual += moved
    orth = abs(float(x @ q_y) + t * q_s) / v_norm
    return max(primal, dual, orth) / v_norm


def test_ellipsoid_kernel_certifies_on_the_boundaries_of_k_and_its_polar():
    # Queries a few ulps to either side of, and exactly on, the boundary of K
    # (s = ||W^1/2 u||) and of its polar (s = -sigma_C(y)), over random
    # ellipsoids of condition up to 1e12: the kernel answers each, and its
    # answer passes the Moreau certificate, which does not trust the root
    # search.  The smallest eigenvalue stays at or above 1e-3: rounding p at
    # eps ||v|| moves sigma_C(y_q) by up to eps ||v|| / sqrt(min w), so the
    # certificate cannot read below that on a correctly rounded answer.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        cond = 10.0 ** rng.uniform(0.0, 12.0)
        basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
        w = cond ** rng.uniform(0.0, 1.0, n)
        w[:2] = 1.0, cond
        ell = Ellipsoid((basis * (w * 10.0 ** rng.uniform(-3.0, 3.0))) @ basis.T)
        for k in range(-2, 3):
            for on_polar in (False, True):
                y = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
                u = ell._evecs.T @ y
                edge = ell.support(y) if on_polar else math.sqrt(u @ (ell._evals * u))
                v = (y, (-edge if on_polar else edge) * (1.0 + k * eps))
                res = project_homogenization(ell, v)
                assert (res.branch is Branch.RECESSION) == (res.alpha_star == 0.0)
                assert moreau_certificate(ell, v, res) <= 1e-12


@pytest.mark.parametrize("p, twin", [
    (2.0, EuclideanBall((0.0, 0.0, 0.0), 1.2)),
    (math.inf, Box((1.2, 1.2, 1.2))),
], ids=["p2", "pinf"])
def test_p_ball_is_the_origin_ball_or_the_box(p, twin):
    pball = PBall(p, 1.2, dim=3)
    rng = np.random.default_rng(54)
    for y, s in kernel_queries(twin, rng, count=12):
        assert np.array_equal(pball.project(y), twin.project(y))
        a, b = project_homogenization(pball, (y, s)), project_homogenization(twin, (y, s))
        assert (a.alpha_star, a.branch) == (b.alpha_star, b.branch)
        assert np.array_equal(a.point.y, b.point.y)


def test_cone_kernels_do_not_overflow():
    # alpha* = (1 + 2e200) / 3 for the box; no squared norm is formed.
    res = project_homogenization(Box((1.0, 1.0)), ((1e200, 1e200), 1.0))
    assert res.branch is Branch.CONE_INTERIOR
    assert res.alpha_star == pytest.approx(2e200 / 3.0, rel=1e-15)
    np.testing.assert_allclose(res.point.y, [2e200 / 3.0] * 2, rtol=1e-15)
    for set_ in (L1Ball(1.0), Simplex(2), Ellipsoid([[2.0, 0.3], [0.3, 0.8]])):
        for t in (1e-300, 1e200, 1e300):
            v = (t * np.array([1.0, 3.0]), -0.1 * t)
            res = project_homogenization(set_, v)
            base = project_homogenization(set_, ((1.0, 3.0), -0.1))
            assert res.branch is base.branch is Branch.CONE_INTERIOR
            assert res.alpha_star == pytest.approx(t * base.alpha_star, rel=1e-14)
            np.testing.assert_allclose(res.point.y, t * base.point.y, rtol=1e-14)


# Queries on which a kernel run at the given scale forms a squared norm or a
# sum out of range: it underflows on the tiny ones, where the ball pen and the
# origin ball would take branch recession, and overflows on the huge ones.
EXTREME_KERNEL_QUERIES = [
    pytest.param(BallPen((0.0, 1.0)), ((1e-200, 3e-200), -1e-201), id="ballpen_tiny"),
    pytest.param(EuclideanBall((0.0, 0.0), 1.0), ((1e-200, 3e-200), -1e-201),
                 id="ball0_tiny"),
    pytest.param(EuclideanBall((0.0, 0.0), 1.0), ((1e200, 1e200), 1.0), id="ball0_huge"),
    pytest.param(Box((1.0, 1.0)), ((1e308, 1e308), 1.0), id="box_huge"),
    pytest.param(L1Ball(1.0), ((1e308, 1e308), 1.0), id="l1_huge"),
    pytest.param(Simplex(2), ((1e308, 1e308), 1.0), id="simplex_huge"),
]


@pytest.mark.parametrize("set_, v", EXTREME_KERNEL_QUERIES)
def test_cone_kernels_match_the_solver_at_extreme_scales(set_, v):
    fast = project_homogenization(set_, v)
    slow = project_homogenization(set_, v, eps=1e-13, force_iterative=True)
    assert fast.iterations == 0 < slow.iterations
    assert fast.branch is slow.branch is Branch.CONE_INTERIOR
    assert fast.alpha_star == pytest.approx(slow.alpha_star, rel=1e-12)
    np.testing.assert_allclose(fast.point.y, slow.point.y, rtol=1e-12)


@pytest.mark.parametrize("set_, force, v, branch", [
    *(pytest.param(set_, force, ((1.0, 3.0), 0.5), Branch.CONE_INTERIOR, id=name)
      for name, set_, force in [
          ("ball_off", EuclideanBall((0.4, 0.2), 1.0), False),
          ("box_forced", Box((1.0, 0.7)), True),
          ("ellipsoid_forced", Ellipsoid([[2.0, 0.3], [0.3, 0.8]]), True),
          ("ball0", EuclideanBall((0.0, 0.0), 1.0), False),
          ("ballpen", BallPen((0.0, 1.0)), False),
          ("box", Box((1.0, 0.7)), False),
          ("l1", L1Ball(1.0), False),
          ("simplex", Simplex(2), False),
          ("ellipsoid", Ellipsoid([[2.0, 0.3], [0.3, 0.8]]), False),
          ("pball2", PBall(2.0, 1.0), False),
          ("pballinf", PBall(math.inf, 1.0), False),
      ]),
    # A set with no kernel, on the membership shortcut and on the recession
    # branch.
    pytest.param(BY_ID["user_ball"].make(), False, ((0.2, 0.1), 1.0), Branch.ALREADY_IN_K,
                 id="user_ball_in_k"),
    pytest.param(BY_ID["user_ball"].make(), False, ((0.4, -0.3), -5.0), Branch.RECESSION,
                 id="user_ball_recession"),
])
@pytest.mark.parametrize("e", [-700, 700])
def test_generic_solver_rescales_extreme_queries_exactly(set_, force, v, branch, e):
    # A query beyond 2^(+-500) is solved on its exact power-of-2 rescale, by
    # the solver and the cone kernels alike, so the answer is the unit-scale
    # one times 2^e, bit for bit, on every route.
    y, s = np.array(v[0]), v[1]
    big = (np.ldexp(y, e), math.ldexp(s, e))
    base = project_homogenization(set_, (y, s), force_iterative=force, keep_trace=True)
    res = project_homogenization(set_, big, force_iterative=force, keep_trace=True)
    assert res.branch is base.branch is branch
    assert res.iterations == base.iterations
    # Routes without psi' calls keep no trace, but for the empty one of a
    # recession that psi'(0+) decides.  Every trace value scales alike, as
    # psi' is positively homogeneous.
    assert (base.trace is None) == (base.iterations == 0) or base.trace == ()
    assert res.trace == (None if base.trace is None else tuple(
        TraceRow(r.n, *(None if x is None else math.ldexp(x, e) for x in r[1:]))
        for r in base.trace))
    # The paper's bisection rescales alike.  Its recession count depends on
    # the scale (it halves down to an absolute 1e-12), so only its answer is
    # compared.
    unit = bisection_projection(set_, (y, s), 0.5, 4.0, eps=1e-9, force_iterative=force)
    bracket = bisection_projection(
        set_, big, math.ldexp(0.5, e), math.ldexp(4.0, e),
        eps=math.ldexp(1e-9, e), force_iterative=force,
    )
    for got, want in ((res, base), (bracket, unit)):
        assert got.branch is want.branch
        assert got.alpha_star == math.ldexp(want.alpha_star, e) == got.point.s
        assert np.array_equal(got.point.y, np.ldexp(want.point.y, e))


@pytest.mark.parametrize("set_, v", [
    pytest.param(EuclideanBall((0.0, 0.0), 1.0), ((1.7e308, 1.7e308), 1.7e308),
                 id="alpha_kernel"),
    pytest.param(EuclideanBall((0.1, 0.0), 1.0), ((1.7e308, 1.7e308), 1.7e308),
                 id="alpha_solver"),
    # alpha* = 0, but the point is 1.4 M (0.6, 0.8) for M = 1.7e308.
    pytest.param(BallPen((0.6, 0.8)), ((1.7e308, 1.7e308), -1.7e308), id="point"),
])
def test_a_projection_beyond_the_float_range_is_an_overflow_error(set_, v):
    with pytest.raises(OverflowError, match="exceeds the float64 range"):
        project_homogenization(set_, v)


PUBLIC_NAMES = [
    "BallPen", "Box", "Branch", "ConePoint", "ConvexSet", "Ellipsoid",
    "EuclideanBall", "Hyperbolic", "L1Ball", "MaxIterationsExceeded", "PBall",
    "ProjectionResult", "PsiEvaluator", "Simplex", "TraceRow",
    "homogenization_polar_membership", "project_homogenization", "set_from_spec",
]


def test_public_names():
    assert sorted(homcone.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(homcone, name) is not None
    assert homcone.Branch is homcone.homproj.Branch
    # A malformed spec is a ValueError and a missing operation a
    # NotImplementedError, with no base class over them; the polar cone of
    # C is the polar cone of K at height 0; ``as_vector`` is homcone.sets'.
    for name in ("HomconeError", "InvalidSetSpec", "polar_cone_membership", "as_vector"):
        assert not hasattr(homcone, name)
    assert homcone.MaxIterationsExceeded is homcone.roots.MaxIterationsExceeded


# ---------------------------------------------------------------------------
# project_homogenization
# ---------------------------------------------------------------------------

def test_projection_reference_value():
    ball = EuclideanBall((1.0, 0.0), 1.0)
    res = bisection_projection(ball, ((1.0, 2.0), 1.0), 3.0, 5.0)
    np.testing.assert_allclose(
        res.point.y, [1.1327162, 1.4226203], rtol=0, atol=1e-6
    )
    assert res.point.s == pytest.approx(1.4597189, abs=1e-6)
    assert res.branch is Branch.CONE_INTERIOR
    assert res.iterations == 23


def test_projection_apex_identity():
    for _, set_ in pairs(CORE, projectable=True):
        res = project_homogenization(set_, (np.zeros(set_.dim), 0.0))
        np.testing.assert_allclose(res.point.y, np.zeros(set_.dim))
        assert res.point.s == 0.0
        assert res.branch is Branch.ALREADY_IN_K


def test_projection_member_shortcut():
    res = project_homogenization(EuclideanBall((0.0, 0.0), 1.0), ((0.5, 0.0), 2.0))
    np.testing.assert_allclose(res.point.y, [0.5, 0.0])
    assert res.point.s == 2.0
    assert res.branch is Branch.ALREADY_IN_K


def test_projection_recession_branch_by_iteration():
    res = project_homogenization(
        EuclideanBall((0.0, 0.0), 2.0), ((3.0, 4.0), -20.0), force_iterative=True
    )
    assert res.branch is Branch.RECESSION
    assert res.alpha_star == 0.0
    np.testing.assert_allclose(res.point.y, [0.0, 0.0])


def test_result_is_slotted():
    # No per-instance __dict__; the dataclass helpers still work.
    res = project_homogenization(EuclideanBall((0.0, 0.0), 1.5), ((3.0, 4.0), 1.0))
    assert not hasattr(res, "__dict__")
    with pytest.raises(AttributeError):
        res.elapsed = 1.0
    moved = dataclasses.replace(res, iterations=7)
    assert moved.iterations == 7 and moved.alpha_star == res.alpha_star
    assert dataclasses.asdict(res)["branch"] is Branch.CONE_INTERIOR


def project(set_, v, **kwargs):
    """project_homogenization, or the paper's bisection where ``kwargs``
    give a bracket."""
    route = bisection_projection if "alpha0" in kwargs else project_homogenization
    return route(set_, v, **kwargs)


@pytest.mark.parametrize("scale", [1.0, 1e200], ids=["in_range", "rescaled"])
@pytest.mark.parametrize("route", [{}, {"force_iterative": True},
                                   {"alpha0": 0.5, "beta0": 4.0}],
                         ids=["kernel", "solver", "bracket"])
def test_the_point_is_a_cone_point_on_every_route(route, scale):
    # The kernel route builds the point with tuple.__new__; every route, the
    # paper's bisection too, also on the power-of-2 rescale (|e| > 500),
    # returns the NamedTuple.
    box = Box((1.0, 0.5))
    kwargs = dict(route)
    if scale != 1.0 and "alpha0" in kwargs:
        kwargs = {"alpha0": 0.5 * scale, "beta0": 4.0 * scale}
    res = project(box, ((3.0 * scale, -1.0 * scale), 0.5 * scale), **kwargs)
    assert res.branch is Branch.CONE_INTERIOR
    point = res.point
    assert isinstance(point, homcone.ConePoint) and isinstance(point, tuple)
    assert type(point) is homcone.ConePoint
    assert point._fields == ("y", "s")
    y, s = point
    assert y is point.y is point[0] and s == point.s == point[1] == res.alpha_star
    assert len(point) == 2 and point._asdict()["s"] == s


def test_membership_shortcut_is_scale_invariant():
    # (y/s) = (3000, 0) lies far outside the box at every scale, so the
    # shortcut must not call a tiny query a height-0 recession member.
    box = Box((1.0, 1.0))
    for t in (1.0, 1e-10):
        res = project_homogenization(box, (t * np.array([3.0, 0.0]), t * 1e-3))
        assert res.branch is Branch.CONE_INTERIOR
        assert res.alpha_star == pytest.approx(t * 1.5005, rel=1e-6)


def test_default_solver_is_scale_invariant_on_reference_query():
    ball = EuclideanBall((1.0, 0.0), 1.0)
    for t in (1e-9, 1e-3, 1.0, 1e6, 1e12):
        res = project_homogenization(ball, (t * np.array([1.0, 2.0]), t))
        assert res.alpha_star / t == pytest.approx(REFERENCE_ALPHA_STAR, abs=1e-6)
        assert res.iterations <= 10


def test_default_solver_trace_rows():
    ball = EuclideanBall((1.0, 0.0), 1.0)
    res = project_homogenization(ball, ((1.0, 2.0), 1.0), keep_trace=True, eps=1e-12,
                                 force_iterative=True)
    rows = res.trace
    # The a priori bracket [0, s+ + ||(y, s)||], then one trial per row, each
    # inside its bracket; the row count is the psi' call count.
    assert (rows[0].alpha, rows[0].mid) == (0.0, None)
    assert rows[0].beta == pytest.approx(1.0 + math.sqrt(6.0), rel=1e-15)
    assert len(rows) == res.iterations
    for r in rows[1:]:
        assert r.alpha < r.mid < r.beta
        assert r.dpsi_alpha < 0.0 < r.dpsi_beta
    assert res.alpha_star == pytest.approx(REFERENCE_ALPHA_STAR, abs=1e-6)


@pytest.mark.parametrize("entry", params(CORE, kernel=True))
def test_a_caller_bracket_selects_the_bisection_on_kernel_sets(entry):
    # The paper's bisection from a caller's bracket bypasses the kernel:
    # iterations counts its steps, and alpha* is the left end of a final
    # bracket narrower than eps around the kernel's answer.
    set_ = entry.make()
    v = (np.resize((3.0, -1.0), set_.dim), 0.5)
    kernel = project_homogenization(set_, v)
    bisected = bisection_projection(set_, v, 0.5, 4.0, eps=1e-9)
    assert kernel.iterations == 0 < bisected.iterations
    assert bisected.branch is kernel.branch is Branch.CONE_INTERIOR
    assert abs(bisected.alpha_star - kernel.alpha_star) <= 1e-9


def test_a_set_without_a_cone_kernel_runs_the_solver():
    rng = np.random.default_rng(59)
    solved = 0
    for _ in range(60):
        center = rng.normal(size=3)
        center *= rng.uniform(0.1, 1.0) / np.linalg.norm(center)
        v = (rng.uniform(-4.0, 4.0, 3), rng.uniform(-4.0, 4.0))
        user = project_homogenization(UserBall(center, 1.0), v, eps=1e-12)
        kernel = project_homogenization(EuclideanBall(center, 1.0), v)
        assert kernel.iterations == 0
        assert user.branch is kernel.branch
        solved += user.iterations > 0
        assert abs(user.alpha_star - kernel.alpha_star) <= 1e-9
        np.testing.assert_allclose(user.point.y, kernel.point.y, rtol=0, atol=1e-9)
    assert solved >= 30


def test_default_solver_recession_needs_no_projector_call():
    res = project_homogenization(
        EuclideanBall((0.0, 0.0), 2.0), ((3.0, 4.0), -20.0), force_iterative=True
    )
    assert res.branch is Branch.RECESSION
    assert res.iterations == 0


@pytest.mark.parametrize("set_", [Box((1.0, 1.0)), BallPen((0.6, 0.8))],
                         ids=["bounded", "unbounded"])
def test_origin_needs_no_psi_evaluation(set_, monkeypatch):
    # ||(y, s)|| = 0 decides alpha* = 0 before psi' is evaluated anywhere.
    def forbidden(*args):
        raise AssertionError("psi' evaluated at the origin")

    monkeypatch.setattr(PsiEvaluator, "psi_prime", forbidden)
    monkeypatch.setattr(PsiEvaluator, "psi_prime_plus_zero", forbidden)
    res = project_homogenization(set_, (np.zeros(2), 0.0), force_iterative=True)
    assert res.branch is Branch.RECESSION
    assert res.alpha_star == 0.0 and res.iterations == 0
    assert not np.any(res.point.y) and res.point.s == 0.0


def test_root_at_the_a_priori_bound_returns_the_bound(monkeypatch):
    # Only roundoff puts psi'(hi) <= 0; the bound itself is then alpha*.
    monkeypatch.setattr(PsiEvaluator, "psi_prime", lambda self, alpha: -1.0)
    res = project_homogenization(Box((1.0, 1.0)), ((3.0, 4.0), 0.5),
                                 force_iterative=True)
    assert res.alpha_star == 0.5 + math.hypot(5.0, 0.5)
    assert res.branch is Branch.CONE_INTERIOR and res.iterations == 1


def test_half_bracket_is_rejected():
    with pytest.raises(ValueError):
        bisection_projection(Box((1.0, 1.0)), ((3.0, 0.0), 1.0), 3.0, None)


@pytest.mark.parametrize("bracket, name", [
    ((3e299, 5e300, 1e-300), "eps"),
    ((1e-300, 5e300, 1e-6), "alpha0"),
], ids=["eps", "alpha0"])
def test_a_bracket_that_underflows_on_the_rescale_is_named(bracket, name):
    # Valid as given; on the query's rescale by 2^-998 the named value
    # underflows to 0, which must not be blamed on the caller's input.
    alpha0, beta0, eps = bracket
    with pytest.raises(ValueError) as exc:
        bisection_projection(EuclideanBall((1.0, 0.0), 1.0), ((1e300, 2e300), 1e300),
                             alpha0, beta0, eps=eps)
    assert str(exc.value) == f"{name} leaves the float64 range at this query's scale"


def test_a_bracket_that_collapses_on_the_rescale_is_named():
    # 0 < alpha0 < beta0 as given; on the rescale by 2^-998 both ends round
    # to one subnormal, which must not be blamed on the caller's input.
    with pytest.raises(ValueError) as exc:
        bisection_projection(EuclideanBall((1.0, 0.0), 1.0), ((1e300, 2e300), 1e300),
                             1e-8, math.nextafter(1e-8, 1.0))
    assert str(exc.value) == "alpha0 and beta0 round to one value at this query's scale"


class CountingBox(Box):
    """A Box that counts its projector calls."""

    calls = 0

    def _project(self, x):
        self.calls += 1
        return super()._project(x)


def interior_box_queries():
    rng = np.random.default_rng(51)
    queries = [((3.0, 4.0), 0.5)]
    while len(queries) < 40:
        y = rng.normal(size=2) * 10.0 ** rng.uniform(-9, 12)
        queries.append((y, rng.uniform(-1.0, 1.0) * float(np.linalg.norm(y))))
    return queries


def test_default_solver_makes_one_projector_call_per_iteration():
    # The final P_C(y / alpha*) reuses the solver's last projection.  The box
    # has a cone kernel, so the generic solver is forced.
    interior = 0
    for y, s in interior_box_queries():
        box = CountingBox((1.0, 1.0))
        res = project_homogenization(box, (y, s), force_iterative=True)
        if res.branch is Branch.CONE_INTERIOR:
            interior += 1
            assert box.calls == res.iterations
    assert interior >= 20


@pytest.mark.parametrize("max_iter", [
    0, -1, pytest.param(np.int64(0), id="int64_0"),
    # Once ran, and failed with "in 1.5 evaluations" or "in True evaluations".
    2.5, True,
])
@pytest.mark.parametrize("bracket", [{}, {"alpha0": 1.0, "beta0": 2.0}],
                         ids=["default", "bracket"])
def test_nonpositive_max_iter_is_rejected_before_any_work(max_iter, bracket):
    # A numpy integer is accepted, and then checked like a Python one.
    message = ("max_iter must be an integer" if isinstance(max_iter, (bool, float))
               else "max_iter must be at least 1")
    box = CountingBox((1.0, 1.0))
    with pytest.raises(ValueError, match=message):
        project(box, ((3.0, 4.0), 0.5), max_iter=max_iter, **bracket)
    assert box.calls == 0
    ev = PsiEvaluator(box, (3.0, 4.0), 0.5)
    with pytest.raises(ValueError, match=message):
        find_alpha_star(ev.psi_prime, 1.0, 2.0, max_iter=max_iter)
    assert box.calls == 0


NON_FINITE_SOLVER_ARGS = {
    "eps_inf": {"eps": math.inf},
    "eps_nan": {"eps": math.nan},
    "alpha0_nan": {"alpha0": math.nan, "beta0": 2.0},
    "beta0_inf": {"alpha0": 0.1, "beta0": math.inf},
    "bracket_eps_inf": {"alpha0": 1.0, "beta0": 2.0, "eps": math.inf},
}


@pytest.mark.parametrize("kwargs", list(NON_FINITE_SOLVER_ARGS.values()),
                         ids=list(NON_FINITE_SOLVER_ARGS))
def test_non_finite_solver_parameter_is_rejected_before_any_work(kwargs):
    # eps = inf once returned alpha* 5.52 for this Box query (the true
    # alpha* is 2.5), and the closed-form ball never looked at the values.
    box = CountingBox((1.0, 1.0))
    for set_ in (box, EuclideanBall((0.0, 0.0), 1.0)):
        with pytest.raises(ValueError, match="finite"):
            project(set_, ((3.0, 4.0), 0.5), **kwargs)
    assert box.calls == 0
    ev = PsiEvaluator(box, (3.0, 4.0), 0.5)
    with pytest.raises(ValueError, match="finite"):
        find_alpha_star(ev.psi_prime, **{"alpha0": 1.0, "beta0": 2.0, **kwargs})
    assert box.calls == 0


def test_exhausted_budget_reports_the_caller_budget():
    # Each query takes 5 psi' calls.  The budget was once reported less the
    # calls made before Brent's method started ("in 1" for max_iter 2 or 3).
    for set_ in (Box((1.0, 1.0)), BallPen((0.6, 0.8))):
        for max_iter in (1, 2, 3, np.int64(3)):
            with pytest.raises(MaxIterationsExceeded, match=f"in {max_iter} evaluations"):
                project_homogenization(set_, ((3.0, -4.0), 0.5), max_iter=max_iter,
                                       force_iterative=True)


SCALES = (1e-9, 1e-6, 1.0, 1e6, 1e12)


@pytest.mark.parametrize("entry", params(CATALOG, "laws", projectable=True))
def test_projection_is_a_projector_at_every_scale(entry):
    # Homogeneity, idempotence and the Moreau conditions (p in K, q = v - p
    # in the polar cone, <p, q> = 0), all relative to ||v||, from 1e-9 to
    # 1e12, on the kernel or the generic route, whichever the set takes.
    set_ = entry.make()
    rng = np.random.default_rng(41)
    queries = [(rng.uniform(-4, 4, set_.dim), rng.uniform(-4, 4)) for _ in range(30)]
    for y, s in [*queries, *entry.queries]:
        base = project_homogenization(set_, (y, s), eps=1e-12)
        for t in SCALES:
            v = (t * y, t * s)
            v_norm = t * math.hypot(float(np.linalg.norm(y)), s)
            res = project_homogenization(set_, v, eps=1e-12)
            p_y, p_s = res.point
            err = math.hypot(float(np.linalg.norm(p_y - t * base.point.y)),
                             p_s - t * base.point.s)
            assert err <= 1e-9 * v_norm
            again = project_homogenization(set_, res.point, eps=1e-12)
            err = math.hypot(float(np.linalg.norm(again.point.y - p_y)),
                             again.point.s - p_s)
            assert err <= 1e-9 * v_norm
            assert moreau_certificate(set_, v, res, entry.wide) <= 1e-9


# ---------------------------------------------------------------------------
# brent_root
# ---------------------------------------------------------------------------

def never_called(x):
    raise AssertionError("f evaluated")


def test_brent_root_returns_a_bracket_end_that_is_a_root():
    assert brent_root(never_called, 1.0, 2.0, 0.0, 1.0, 0.0, 1e-12, 10) == (1.0, 0)
    assert brent_root(never_called, 0.0, 1.0, -1.0, 0.0, 0.0, 1e-12, 10) == (1.0, 0)


@pytest.mark.parametrize("fa, fb", [(1.0, 2.0), (-2.0, -1.0)], ids=["above", "below"])
def test_brent_root_rejects_a_bracket_without_a_sign_change(fa, fb):
    with pytest.raises(ValueError, match="opposite signs"):
        brent_root(never_called, 0.0, 1.0, fa, fb, 0.0, 1e-12, 10)


def test_brent_root_raises_when_its_budget_is_spent():
    calls = []

    def f(x):
        calls.append(x)
        return x ** 3 - 2.0

    with pytest.raises(MaxIterationsExceeded, match="in 3 evaluations"):
        brent_root(f, 0.0, 2.0, -2.0, 6.0, 0.0, 1e-15, 3)
    assert len(calls) == 3
    assert all(0.0 < x < 2.0 for x in calls)


# ---------------------------------------------------------------------------
# Residual quartic
# ---------------------------------------------------------------------------

def test_quartic_reference_coefficients():
    q = quartic_coefficients((1.0, 0.0), 1.0, (1.0, 2.0), 1.0)
    assert q == (-5.0, -38.0, 44.0, -18.0, 5.0)


def test_quartic_residual_at_reference_alpha():
    q = quartic_coefficients((1.0, 0.0), 1.0, (1.0, 2.0), 1.0)
    ball = EuclideanBall((1.0, 0.0), 1.0)
    res = bisection_projection(ball, ((1.0, 2.0), 1.0), 3.0, 5.0)
    assert abs(q.residual(res.alpha_star)) < 1e-4


def test_off_centre_kernel_alpha_is_a_root_of_the_quartic():
    # The paper's check: the kernel never forms the quartic, yet its alpha*
    # on cone-interior queries is a root of it, relative to max |xi_i|.
    rng = np.random.default_rng(58)
    checked = 0
    for _ in range(200):
        gamma = rng.uniform(0.5, 2.0)
        n = int(rng.integers(2, 5))
        d = rng.normal(size=n)
        center = d * (gamma * rng.choice([1e-6, 0.3, 0.7, 1.0]) / np.linalg.norm(d))
        y, s = rng.uniform(-4.0, 4.0, n), rng.uniform(-4.0, 4.0)
        res = project_homogenization(EuclideanBall(center, gamma), (y, s))
        if res.branch is not Branch.CONE_INTERIOR:
            continue
        assert res.iterations == 0
        q = quartic_coefficients(center, gamma, y, s)
        assert abs(q.residual(res.alpha_star)) <= 1e-12 * max(abs(c) for c in q)
        checked += 1
    assert checked >= 100


def test_reference_instance_on_the_default_path_takes_the_kernel():
    ball = EuclideanBall((1.0, 0.0), 1.0)
    res = project_homogenization(ball, ((1.0, 2.0), 1.0))
    assert res.iterations == 0 and res.branch is Branch.CONE_INTERIOR
    # The reference value is the bisection's, to its width 1e-6; the kernel's
    # alpha* is the exact root, 1.45971961...
    assert res.alpha_star == pytest.approx(REFERENCE_ALPHA_STAR, abs=1e-6)
    np.testing.assert_allclose(res.point.y, [1.1327162, 1.4226203], rtol=0, atol=1e-6)
    exact = project_homogenization(ball, ((1.0, 2.0), 1.0), eps=1e-13,
                                   force_iterative=True)
    assert res.alpha_star == pytest.approx(exact.alpha_star, rel=1e-14)


def test_quartic_degenerates_at_origin_center():
    # With the ball centred at 0 the quartic collapses to a quadratic whose
    # positive root is the closed-form minimizer (s + g||y||) / (g^2 + 1).
    y = (3.0, 4.0)
    s = 2.0
    g = 1.5
    q = quartic_coefficients((0.0, 0.0), g, y, s)
    assert q.xi3 == 0.0 and q.xi4 == 0.0
    root = (s + g * 5.0) / (g * g + 1.0)
    assert abs(q.residual(root)) < 1e-9 * max(abs(c) for c in q)


def test_quartic_leading_coefficient_nonnegative():
    rng = np.random.default_rng(38)
    for _ in range(100):
        g = rng.uniform(0.5, 3.0)
        z = rng.uniform(-1, 1, 2)
        z = z * rng.uniform(0.0, g) / max(np.linalg.norm(z), 1e-12)
        q = quartic_coefficients(z, g, rng.uniform(-5, 5, 2), rng.uniform(-5, 5))
        assert q.xi4 >= 0.0


def test_quartic_rejects_center_outside():
    with pytest.raises(ValueError, match="the ball must contain the origin"):
        quartic_coefficients((2.0, 0.0), 1.0, (1.0, 1.0), 0.0)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_quartic_rejects_non_finite_height(s):
    with pytest.raises(ValueError, match="height must be finite"):
        quartic_coefficients((1.0, 0.0), 1.0, (1.0, 2.0), s)
