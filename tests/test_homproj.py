import math

import numpy as np
import pytest

import homcone
import homcone.homproj
from homcone import (
    BallPen,
    Box,
    Branch,
    CenterOutsideRadius,
    Ellipsoid,
    EuclideanBall,
    L1Ball,
    MaxIterationsExceeded,
    PBall,
    PsiEvaluator,
    Simplex,
    find_alpha_star,
    project_homogenization,
    quartic_coefficients,
    reference_trace,
)
from homcone.cli import REFERENCE_TABLE
from homcone.roots import brent_root
from oracle import sample_members

REFERENCE_ALPHA_STAR = 1.4597189


def fmt8(x):
    return "" if x is None else f"{x:#.8g}"


def fmt_dpsi(x):
    return "" if x is None else f"{x:.2e}"


# Formats trace rows as `homcone table1` prints them, written out here so that
# the comparison with cli.REFERENCE_TABLE does not rely on the CLI's formatter.
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
# find_alpha_star
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


def test_pure_bisection_has_no_bracket_moves():
    # psi'(2) < 0 < psi'(4) immediately, so every row carries a midpoint.
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (3.0, 4.0), 0.0)
    alpha_star, trace = find_alpha_star(ev, 2.0, 4.0, 1e-6, 200)
    assert all(r.mid is not None for r in trace)
    assert alpha_star == pytest.approx(2.5, abs=1e-6)


def test_bisection_agrees_with_ice_cream_closed_form():
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (3.0, 4.0), 0.0)
    alpha_star, _ = find_alpha_star(ev, 1.0, 2.0, 1e-6, 200)
    assert alpha_star == pytest.approx(2.5, abs=1e-6)


def test_alpha_zero_declared_by_halving():
    # psi' stays positive all the way down, certifying the 0 minimizer.
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 2.0), (3.0, 4.0), -20.0)
    alpha_star, trace = find_alpha_star(ev, 1.0, 2.0, 1e-6, 200)
    assert alpha_star == 0.0
    assert all(r.mid is None for r in trace)


def test_max_iterations_exceeded():
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (3.0, 4.0), 0.0)
    with pytest.raises(MaxIterationsExceeded):
        find_alpha_star(ev, 1e-3, 2e-3, 1e-12, max_iter=3)


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
    alpha_star, _ = find_alpha_star(ev, 1.0, 2.0, 1e-6, 200)
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


@pytest.mark.parametrize("set_", [EuclideanBall((0.0, 0.0), 1.5), BallPen((0.6, 0.8))],
                         ids=["ball0", "ballpen"])
def test_cone_kernel_is_the_one_dispatch_point(set_, monkeypatch):
    kernel = type(set_)._project_cone
    calls = []

    def counting(self, y, s):
        calls.append((y, s))
        return kernel(self, y, s)

    monkeypatch.setattr(type(set_), "_project_cone", counting)
    for p in [((3.0, 4.0), 0.5), ((0.0, 1.0), 9.0), ((0.0, -2.0), -5.0)]:
        res = project_homogenization(set_, p)
        assert res.iterations == 0
    assert len(calls) == 3

    def forbidden(self, y, s):
        raise AssertionError("force_iterative must bypass the cone kernel")

    monkeypatch.setattr(type(set_), "_project_cone", forbidden)
    res = project_homogenization(set_, ((3.0, 4.0), 0.5), force_iterative=True)
    assert res.iterations > 0


PUBLIC_NAMES = [
    "BallPen", "Box", "Branch", "CapabilityMissing", "CenterOutsideRadius",
    "ConePoint", "ConvexSet", "DimensionMismatch", "Ellipsoid", "EuclideanBall",
    "HomconeError", "Hyperbolic", "InvalidSetSpec", "L1Ball",
    "MaxIterationsExceeded", "NoClosedFormAvailable", "NonPositiveAlpha", "PBall",
    "PolarDescription", "ProjectionResult", "PsiEvaluator", "QuarticCoefficients",
    "Simplex", "TraceRow", "UnsupportedProjection", "as_vector",
    "closed_form_polar", "find_alpha_star", "homogenization_polar_membership",
    "polar_cone_membership", "polar_membership", "project_homogenization",
    "quartic_coefficients", "reference_trace", "set_from_spec",
]


def test_public_names():
    assert sorted(homcone.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(homcone, name) is not None
    assert homcone.Branch is homcone.homproj.Branch


# ---------------------------------------------------------------------------
# project_homogenization
# ---------------------------------------------------------------------------

def test_projection_reference_value():
    ball = EuclideanBall((1.0, 0.0), 1.0)
    res = project_homogenization(ball, ((1.0, 2.0), 1.0), alpha0=3.0, beta0=5.0)
    np.testing.assert_allclose(
        res.point.y, [1.1327162, 1.4226203], rtol=0, atol=1e-6
    )
    assert res.point.s == pytest.approx(1.4597189, abs=1e-6)
    assert res.branch is Branch.CONE_INTERIOR
    assert res.iterations == 23


def test_projection_apex_identity():
    for set_ in (EuclideanBall((0.3, 0.0), 1.0), Simplex(2), BallPen((0.0, 1.0))):
        res = project_homogenization(set_, (np.zeros(2), 0.0))
        np.testing.assert_allclose(res.point.y, np.zeros(2))
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


def test_result_invariants_random():
    rng = np.random.default_rng(31)
    sets = [
        EuclideanBall((0.0, 0.0), 1.5),
        EuclideanBall((0.4, 0.2), 1.0),
        Box((1.0, 0.7)),
        Simplex(2),
        BallPen((0.0, 1.0)),
    ]
    for set_ in sets:
        for _ in range(100):
            p = (rng.uniform(-8, 8, 2), rng.uniform(-8, 8))
            res = project_homogenization(set_, p)
            assert res.point.s == res.alpha_star
            if res.branch is not Branch.ALREADY_IN_K:
                assert (res.branch is Branch.RECESSION) == (res.alpha_star == 0.0)
            assert res.alpha_star >= 0.0


def test_projection_idempotent():
    rng = np.random.default_rng(32)
    sets = [
        EuclideanBall((0.4, 0.2), 1.0),
        Box((1.0, 0.7)),
        L1Ball(1.2),
        Simplex(2),
        BallPen((0.8, 0.6)),
        EuclideanBall((0.0, 0.0), 0.7),
    ]
    for set_ in sets:
        for _ in range(50):
            p = (rng.uniform(-8, 8, 2), rng.uniform(-8, 8))
            first = project_homogenization(set_, p)
            second = project_homogenization(set_, first.point)
            err = math.hypot(
                float(np.linalg.norm(second.point.y - first.point.y)),
                second.point.s - first.point.s,
            )
            assert err <= 1e-7


def test_projection_variational_inequality():
    # Members of K sampled as rho * (c, 1) plus recession directions at
    # height 0; tight accuracy comes from a small bisection width.
    rng = np.random.default_rng(33)
    sets = [
        EuclideanBall((0.4, 0.2), 1.0),
        Box((1.0, 0.7)),
        Simplex(2),
        L1Ball(1.2),
        BallPen((0.0, 1.0)),
    ]
    for set_ in sets:
        members = sample_members(set_, 400, rng)
        rhos = rng.uniform(0.0, 10.0, size=members.shape[0])
        cone_pts = np.column_stack([members * rhos[:, None], rhos])
        for _ in range(25):
            q = np.append(rng.uniform(-8, 8, 2), rng.uniform(-8, 8))
            res = project_homogenization(set_, (q[:2], q[2]), eps=1e-12)
            if res.branch is Branch.ALREADY_IN_K:
                continue
            pk = np.append(res.point.y, res.point.s)
            gaps = (cone_pts - pk) @ (q - pk)
            assert float(np.max(gaps)) <= 1e-7
            if isinstance(set_, BallPen):
                k = np.append(10.0 * set_.direction, 0.0)
                assert float((k - pk) @ (q - pk)) <= 1e-7


def test_closed_form_matches_iteration():
    rng = np.random.default_rng(34)
    ball = EuclideanBall((0.0, 0.0), 1.0)
    pen = BallPen((0.0, 1.0))
    for set_ in (ball, pen):
        for _ in range(200):
            p = (rng.uniform(-10, 10, 2), rng.uniform(-10, 10))
            fast = project_homogenization(set_, p)
            slow = project_homogenization(set_, p, force_iterative=True)
            err = math.hypot(
                float(np.linalg.norm(fast.point.y - slow.point.y)),
                fast.point.s - slow.point.s,
            )
            assert err <= 1e-5


def test_moreau_decomposition_ball_pair():
    # The polar cone of the cone over B(0, gamma) is the reflected cone over
    # B(0, 1/gamma); the two projections split the point orthogonally.
    rng = np.random.default_rng(35)
    for gamma in (0.5, 1.0, 2.0):
        for _ in range(200):
            y = rng.uniform(-10, 10, 2)
            s = rng.uniform(-10, 10)
            pk = project_homogenization(EuclideanBall((0.0, 0.0), gamma), (y, s))
            dual = project_homogenization(EuclideanBall((0.0, 0.0), 1.0 / gamma), (y, -s))
            m_y, m_s = dual.point.y, -dual.point.s
            np.testing.assert_allclose(pk.point.y + m_y, y, atol=1e-7)
            assert pk.point.s + m_s == pytest.approx(s, abs=1e-7)
            inner = float(pk.point.y @ m_y) + pk.point.s * m_s
            assert abs(inner) <= 1e-7


def test_cone_scaling():
    rng = np.random.default_rng(36)
    sets = [EuclideanBall((0.0, 0.0), 1.5), EuclideanBall((0.4, 0.2), 1.0), Box((1.0, 0.7))]
    for set_ in sets:
        for _ in range(40):
            y = rng.uniform(-5, 5, 2)
            s = rng.uniform(-5, 5)
            lam = rng.uniform(0.2, 4.0)
            base = project_homogenization(set_, (y, s), eps=1e-12)
            scaled = project_homogenization(set_, (lam * y, lam * s), eps=1e-12)
            np.testing.assert_allclose(
                scaled.point.y, lam * base.point.y, atol=1e-7
            )
            assert scaled.point.s == pytest.approx(lam * base.point.s, abs=1e-7)


def test_projection_all_projectable_variants_smoke():
    rng = np.random.default_rng(37)
    sets = [
        EuclideanBall((0.0, 0.0), 1.3),
        EuclideanBall((0.5, -0.3), 1.0),
        Box((0.8, 1.5)),
        L1Ball(1.7),
        PBall(2.0, 1.2),
        PBall(math.inf, 0.9),
        Ellipsoid([[2.0, 0.3], [0.3, 0.8]]),
        Simplex(2),
        BallPen((0.6, 0.8)),
    ]
    for set_ in sets:
        for _ in range(10):
            p = (rng.uniform(-6, 6, 2), rng.uniform(-6, 6))
            res = project_homogenization(set_, p)
            if res.alpha_star > 0:
                assert set_.contains(res.point.y / res.point.s, tol=1e-7)


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
    res = project_homogenization(ball, ((1.0, 2.0), 1.0), keep_trace=True, eps=1e-12)
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


def test_half_bracket_is_rejected():
    with pytest.raises(ValueError):
        project_homogenization(Box((1.0, 1.0)), ((3.0, 0.0), 1.0), alpha0=3.0)


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
    # The final P_C(y / alpha*) reuses the solver's last projection.
    interior = 0
    for y, s in interior_box_queries():
        box = CountingBox((1.0, 1.0))
        res = project_homogenization(box, (y, s))
        if res.branch is Branch.CONE_INTERIOR:
            interior += 1
            assert box.calls == res.iterations
    assert interior >= 20


@pytest.mark.parametrize("max_iter", [0, -1])
@pytest.mark.parametrize("bracket", [{}, {"alpha0": 1.0, "beta0": 2.0}],
                         ids=["default", "bracket"])
def test_nonpositive_max_iter_is_rejected_before_any_work(max_iter, bracket):
    box = CountingBox((1.0, 1.0))
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        project_homogenization(box, ((3.0, 4.0), 0.5), max_iter=max_iter, **bracket)
    assert box.calls == 0
    ev = PsiEvaluator(box, (3.0, 4.0), 0.5)
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        find_alpha_star(ev, 1.0, 2.0, max_iter=max_iter)
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
            project_homogenization(set_, ((3.0, 4.0), 0.5), **kwargs)
    assert box.calls == 0
    ev = PsiEvaluator(box, (3.0, 4.0), 0.5)
    with pytest.raises(ValueError, match="finite"):
        find_alpha_star(ev, **{"alpha0": 1.0, "beta0": 2.0, **kwargs})
    assert box.calls == 0


def test_exhausted_budget_reports_the_caller_budget():
    for set_ in (Box((1.0, 1.0)), BallPen((0.6, 0.8))):
        with pytest.raises(MaxIterationsExceeded, match="in 1 evaluations"):
            project_homogenization(set_, ((3.0, -4.0), 0.5), max_iter=1,
                                   force_iterative=True)


SCALES = (1e-9, 1e-6, 1.0, 1e6, 1e12)


def scale_property_sets():
    return [
        ("ball_off", EuclideanBall((0.4, 0.2), 1.0)),
        ("box", Box((1.0, 0.7, 1.6))),
        ("l1", L1Ball(1.2, dim=3)),
        ("simplex", Simplex(3)),
        ("ellipsoid", Ellipsoid([[2.0, 0.3], [0.3, 0.8]])),
        ("pball2", PBall(2.0, 1.2)),
        ("pballinf", PBall(math.inf, 0.9, dim=3)),
    ]


@pytest.mark.parametrize("name,set_", scale_property_sets(),
                         ids=[n for n, _ in scale_property_sets()])
def test_projection_is_a_projector_at_every_scale(name, set_):
    # Homogeneity, idempotence and the Moreau conditions (q = v - p in the
    # polar cone, <p, q> = 0), all relative to ||v||, from 1e-9 to 1e12.
    rng = np.random.default_rng(41)
    for _ in range(30):
        y = rng.uniform(-4, 4, set_.dim)
        s = rng.uniform(-4, 4)
        base = project_homogenization(set_, (y, s), eps=1e-12)
        for t in SCALES:
            v_norm = t * math.hypot(float(np.linalg.norm(y)), s)
            res = project_homogenization(set_, (t * y, t * s), eps=1e-12)
            p_y, p_s = res.point
            err = math.hypot(float(np.linalg.norm(p_y - t * base.point.y)),
                             p_s - t * base.point.s)
            assert err <= 1e-9 * v_norm
            again = project_homogenization(set_, res.point, eps=1e-12)
            err = math.hypot(float(np.linalg.norm(again.point.y - p_y)),
                             again.point.s - p_s)
            assert err <= 1e-9 * v_norm
            q_y, q_s = t * y - p_y, t * s - p_s
            assert q_s + set_.support(q_y) <= 1e-9 * v_norm
            assert abs(float(p_y @ q_y) + p_s * q_s) <= 1e-9 * v_norm * v_norm


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
    res = project_homogenization(ball, ((1.0, 2.0), 1.0), alpha0=3.0, beta0=5.0)
    assert abs(q.residual(res.alpha_star)) < 1e-4


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
    with pytest.raises(CenterOutsideRadius):
        quartic_coefficients((2.0, 0.0), 1.0, (1.0, 1.0), 0.0)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_quartic_rejects_non_finite_height(s):
    with pytest.raises(ValueError, match="height must be finite"):
        quartic_coefficients((1.0, 0.0), 1.0, (1.0, 2.0), s)
