import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import homcone.sets
from homcone import (
    BallPen,
    Box,
    Branch,
    ConvexSet,
    Ellipsoid,
    EuclideanBall,
    Hyperbolic,
    L1Ball,
    PBall,
    Simplex,
    homogenization_polar_membership,
    project_homogenization,
)
from set_catalog import BY_ID, CORE, pairs
from test_homproj import SCALES, kernel_queries, moreau_certificate


#: The half-width of the box of points y that the sigma oracle samples, per
#: catalog entry: sigma_C(y) = 1 lies well inside it.
POLAR_BOXES = {
    "ball0_half": 4.0, "ball0_two": 2.0, "shifted_disc": 3.0, "box": 2.0,
    "box_uneven": 3.0, "l1": 2.0, "pball3": 2.0, "pball_1_5": 2.0,
    "ellipsoid": 3.0, "simplex": 3.0, "shifted_unit_ball": 3.0, "ball_pen": 2.0,
    "strip": 2.0, "hyperbolic": 4.0,
}


def polar_cases():
    """(id, set, box) for the entries of POLAR_BOXES."""
    return [(name, BY_ID[name].make(), box) for name, box in POLAR_BOXES.items()]


# ---------------------------------------------------------------------------
# Membership examples
# ---------------------------------------------------------------------------

def test_polar_membership_examples():
    assert L1Ball(1.0).polar().contains((1.0, 1.0))
    assert Simplex(3).polar().contains((1.0, 1.0, 1.0))
    assert not Simplex(3).polar().contains((1.5, 0.0, 0.0))
    assert Hyperbolic().polar().contains((1.0, 0.0))
    assert EuclideanBall((0.0, 0.0), 2.0).polar().contains((0.4, 0.3))


@pytest.mark.parametrize("t", [1.0, 1e-6, 1e-9, 1e-12, 1e-300, 1e300])
def test_polar_cone_membership_is_the_same_at_every_scale(t):
    # The polar cone of a bounded set is {0}; every y <= 0 is in the simplex's.
    assert not homogenization_polar_membership(Box((1.0, 1.0)), ((t, t), 0.0))
    assert homogenization_polar_membership(Simplex(2), ((-t, -t), 0.0))


def test_polar_cone_membership_examples():
    ball = EuclideanBall((0.0, 0.0), 1.0)
    assert homogenization_polar_membership(ball, ((0.0, 0.0), 0.0))
    assert not homogenization_polar_membership(ball, ((0.1, 0.0), 0.0))
    pen = BallPen((0.0, 1.0))
    assert homogenization_polar_membership(pen, ((0.0, 0.0), 0.0))
    assert not homogenization_polar_membership(pen, ((0.0, -1.0), 0.0))  # sigma = 1 > 0
    assert not homogenization_polar_membership(Box((1.0, 1.0)), ((-1.0, 0.0), 0.0))


def test_homogenization_polar_membership_examples():
    pen = BallPen((0.0, 1.0))
    assert homogenization_polar_membership(pen, (np.array([0.0, -1.0]), -1.0))
    for set_ in (pen, EuclideanBall((0.0, 0.0), 1.0), Simplex(2)):
        assert homogenization_polar_membership(set_, (np.zeros(2), 0.0))
        assert not homogenization_polar_membership(set_, (np.zeros(2), 0.5))


def test_homogenization_polar_membership_is_the_same_at_every_scale():
    # The polar cone of K is a cone, so (t y, t s) is a member for every t > 0
    # or for none.  t ((1, 1), 0.5) projects off the apex at every scale, so
    # it is a member at none; an absolute band would admit it at t = 1e-12.
    box = Box((1.0, 1.0))
    rng = np.random.default_rng(45)
    for _, set_, scale in polar_cases():
        points = [(rng.uniform(-scale, scale, set_.dim), rng.uniform(-4.0, 4.0))
                  for _ in range(100)]
        expected = [homogenization_polar_membership(set_, p) for p in points]
        for t in (1e-12, 1.0, 1e12):
            assert not homogenization_polar_membership(box, (t * np.ones(2), 0.5 * t))
            assert homogenization_polar_membership(box, (0.25 * t * np.ones(2), -t))
            got = [homogenization_polar_membership(set_, (t * y, t * s))
                   for y, s in points]
            assert got == expected


def test_homogenization_polar_membership_at_extreme_magnitudes():
    # y / |s| would overflow at the tiny height, and sigma_C(y) or ||(y, s)||
    # at the huge queries, where an infinite band would admit any point.
    box, ball = Box((1.0, 1.0)), EuclideanBall((0.0, 0.0), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not homogenization_polar_membership(box, ((1.0, -1.0), -1e-320))
        assert homogenization_polar_membership(box, ((0.0, 0.0), -1e-320))
        assert not homogenization_polar_membership(box, ((1e200, 1e200), -1.0))
        assert homogenization_polar_membership(ball, ((1e200, 1e200), -1e201))
        assert not homogenization_polar_membership(ball, ((1e300, 1e300), -1e300))


def test_classical_ball_pen_polar_cone_formula():
    # Membership in the polar cone of K matches the explicit description
    # {y2 <= 0 and ||y|| + s <= 0}.
    rng = np.random.default_rng(41)
    pen = BallPen((0.0, 1.0))
    for _ in range(500):
        y = rng.uniform(-4, 4, 2)
        s = rng.uniform(-4, 4)
        explicit = y[1] <= 0.0 and math.hypot(*y) + s <= 0.0
        if abs(math.hypot(*y) + s) < 1e-7 or abs(y[1]) < 1e-7:
            continue
        assert homogenization_polar_membership(pen, (y, s)) == explicit


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_closed_form_ball_is_dual_ball():
    polar = EuclideanBall((0.0, 0.0), 2.0).polar()
    assert isinstance(polar, EuclideanBall)
    assert polar.radius == pytest.approx(0.5)


def test_closed_form_box_is_l1_predicate():
    desc = Box((1.0, 1.0)).polar()
    rng = np.random.default_rng(42)
    for _ in range(500):
        y = rng.uniform(-2, 2, 2)
        if abs(np.abs(y).sum() - 1.0) < 1e-9:
            continue
        assert desc.contains(y) == (np.abs(y).sum() <= 1.0)


def test_closed_form_equal_box_answers_by_its_l1_dual():
    # The polar of the box of halfwidth 2 is the l1 ball of radius 1/2, and
    # its own membership test answers, band included: sigma_C(y) <= 1 + tol
    # is a band of tol / 2 in l1 terms, and answers False here.
    polar = Box((2.0, 2.0)).polar()
    assert isinstance(polar, L1Ball) and polar.radius == 0.5
    y = (0.5 + 0.75e-9, 0.0)
    assert polar.contains(y)
    assert not Box((2.0, 2.0)).support(y) <= 1.0 + 1e-9


def test_closed_form_shifted_disc_matches_parabola():
    # For the disc centred at (1, 0): y1 <= (1 - y2^2) / 2.
    desc = EuclideanBall((1.0, 0.0), 1.0).polar()
    rng = np.random.default_rng(43)
    for _ in range(500):
        y = rng.uniform(-3, 3, 2)
        parabola = y[0] <= 0.5 * (1.0 - y[1] ** 2)
        if abs(y[0] - 0.5 * (1.0 - y[1] ** 2)) < 1e-9:
            continue
        assert desc.contains(y) == parabola


class Square(ConvexSet):
    """A user-defined set: the square [-1, 1]^2, with its polar kernel."""

    dim = 2

    def _contains(self, x, tol):
        return bool(np.all(np.abs(x) <= 1.0 + tol))

    def _support(self, y):
        return float(np.sum(np.abs(y)))

    def _polar_contains(self, y, tol):
        return float(np.sum(np.abs(y))) <= 1.0 + tol


class HalvedBox(Box):
    """The box of half the given halfwidths; its polar doubles the weights."""

    def _contains(self, x, tol):
        return super()._contains(2.0 * x, 2.0 * tol)

    def _support(self, y):
        return 0.5 * super()._support(y)

    def _polar(self):
        return None

    def _polar_contains(self, y, tol):
        return float(0.5 * self.halfwidths @ np.abs(y)) <= 1.0 + tol


@pytest.mark.parametrize("set_", [Square(), HalvedBox((1.0, 1.0))],
                         ids=["convex_set", "box_subclass"])
def test_closed_form_uses_the_set_polar_kernel(set_):
    desc = set_.polar()
    assert isinstance(desc, homcone.sets._Polar) and desc.polar() is set_
    rng = np.random.default_rng(52)
    for y in rng.uniform(-3.0, 3.0, size=(500, 2)):
        if abs(set_.support(y) - 1.0) < 1e-7:
            continue
        assert desc.contains(y) == (set_.support(y) <= 1.0)
    # (1.5, 0) is in the polar of the halved unit box, not of the unit box.
    assert desc.contains((1.5, 0.0)) == isinstance(set_, HalvedBox)


def test_bipolar_ball_pair():
    # Membership in the polar of the polar agrees with the original ball.
    ball = EuclideanBall((0.0, 0.0), 2.0)
    dual = ball.polar()
    rng = np.random.default_rng(46)
    for _ in range(1000):
        x = rng.uniform(-3, 3, 2)
        sigma_dual = dual.support(x)
        if abs(sigma_dual - 1.0) < 1e-7:
            continue
        assert (sigma_dual <= 1.0) == ball.contains(x, tol=0.0)


@pytest.mark.parametrize("p", [1e16, 1e308, math.inf], ids=str)
def test_p_ball_polar_where_q_rounds_to_one(p):
    # q = p / (p - 1) rounds to 1 for p above 2^53; the dual is the l1 ball,
    # not a q-ball, which the constructor would reject.
    ball = PBall(p, 2.0)
    dual = ball.polar()
    assert isinstance(dual, L1Ball) and dual.radius == 0.5
    rng = np.random.default_rng(48)
    for y in rng.uniform(-1.0, 1.0, size=(200, 2)):
        if abs(ball.support(y) - 1.0) < 1e-7:
            continue
        assert dual.contains(y) == (ball.support(y) <= 1.0)


def test_bipolar_box_l1_pair():
    box = Box((1.0, 1.0))
    dual = box.polar()  # the unit cross-polytope
    assert isinstance(dual, L1Ball)
    rng = np.random.default_rng(47)
    for _ in range(1000):
        x = rng.uniform(-2, 2, 2)
        sigma_dual = dual.support(x)
        if abs(sigma_dual - 1.0) < 1e-7:
            continue
        assert (sigma_dual <= 1.0) == box.contains(x, tol=0.0)


def test_polar_cone_is_recession_of_polar_set_hyperbolic():
    # Members of the polar cone generate rays inside the polar set; clear
    # non-members escape it at some sampled scale.
    hyp = Hyperbolic()
    desc = hyp.polar()
    for t in (0.0, 0.5, 2.0, 10.0):
        y = np.array([t, 0.0])
        assert homogenization_polar_membership(hyp, (y, 0.0))
        for rho in (1.0, 10.0, 100.0):
            assert desc.contains(rho * y)
    rng = np.random.default_rng(48)
    checked = 0
    for _ in range(2000):
        y = rng.uniform(-2, 2, 2)
        n = np.linalg.norm(y)
        if n < 0.5 or n > 2.0:
            continue
        sigma = hyp.support(y)
        if not math.isinf(sigma) and sigma < 0.05:
            continue
        assert not homogenization_polar_membership(hyp, (y, 0.0))
        assert any(not desc.contains(rho * y) for rho in (1.0, 10.0, 100.0))
        checked += 1
    assert checked > 500


def test_homogenization_polar_branches_disjoint():
    rng = np.random.default_rng(49)
    pen = BallPen((0.0, 1.0))
    for _ in range(2000):
        y = rng.uniform(-3, 3, 2)
        s = rng.uniform(-3, 3)
        ray_branch = s < -1e-12 and pen.polar().contains(y / (-s))
        flat_branch = abs(s) <= 1e-12 and homogenization_polar_membership(pen, (y, 0.0))
        assert not (ray_branch and flat_branch)


def test_polar_membership_consistent_with_projection():
    # A point lies in the polar cone of K exactly when it projects to the apex.
    rng = np.random.default_rng(50)
    for _, set_ in pairs(CORE, projectable=True):
        hits = 0
        for _ in range(300):
            y = rng.uniform(-6, 6, set_.dim)
            sigma = set_.support(y)
            # About a quarter of the heights put (y, s) in the polar cone.
            s = rng.uniform(-8, 2) if math.isinf(sigma) else sigma * rng.uniform(-1.5, 0.5)
            if s < 0 and abs(set_.support(y / (-s)) - 1.0) < 1e-4:
                continue
            member = homogenization_polar_membership(set_, (y, s))
            res = project_homogenization(set_, (y, s), eps=1e-9)
            at_apex = (
                math.hypot(float(np.linalg.norm(res.point.y)), res.point.s) <= 1e-6
            )
            assert member == at_apex
            hits += member
        assert hits > 0


# ---------------------------------------------------------------------------
# The polar set as a set: C.polar()
# ---------------------------------------------------------------------------

#: Per kind of set with a cataloged polar, the set at n entries.  The
#: ellipsoid is axis-aligned, so that both sides share its eigenbasis exactly.
CATALOGED = {
    "ball": lambda n: EuclideanBall(np.zeros(n), 1.3),
    "box": lambda n: Box(np.full(n, 0.8)),
    "l1": lambda n: L1Ball(1.7, n),
    "ellipsoid": lambda n: Ellipsoid(np.diag(np.logspace(-1.0, 1.0, n))),
    "pball2": lambda n: PBall(2.0, 1.2, n),
    "pballinf": lambda n: PBall(math.inf, 0.9, n),
}

#: Catalog entries whose polar is the view of the set (sets._Polar), each
#: with a cone kernel.
VIEWED = ["ball_off", "shifted_unit_ball", "box_uneven", "box_zero_halfwidths",
          "simplex", "ballpen", "ball_pen"]


def reflected_queries(set_, rng):
    """kernel_queries of C with the height negated, at every scale of SCALES:
    (y, -s) is in the polar of the cone of C° where (y, s) is in K_C, and in
    the cone of C° where (y, s) is in the polar of K_C."""
    return [(t * y, -t * s) for y, s in kernel_queries(set_, rng) for t in SCALES]


def gap(a, b):
    """||P - Q|| for the points of two projection results."""
    return math.hypot(float(np.linalg.norm(a.point.y - b.point.y)),
                      a.alpha_star - b.alpha_star)


def norm(v):
    return math.hypot(float(np.linalg.norm(v[0])), v[1])


@pytest.mark.parametrize("kind", sorted(CATALOGED))
def test_reflected_kernel_agrees_with_the_cataloged_polar(kind):
    # The cone of C° through C's kernel, reflected, against the cataloged
    # polar's own kernel, on every branch and at n = 2..13.
    rng = np.random.default_rng(60)
    branches = set()
    for n in range(2, 14):
        set_ = CATALOGED[kind](n)
        view, polar = homcone.sets._Polar(set_), set_.polar()
        for v in reflected_queries(set_, rng):
            got = project_homogenization(view, v)
            assert got.iterations == 0
            assert gap(got, project_homogenization(polar, v)) <= 1e-15 * norm(v)
            branches.add(got.branch)
    assert branches == set(Branch)


@pytest.mark.parametrize("entry", ["ellipsoid", "ellipsoid_3d", "ellipsoid_cond_1e12",
                                   "ellipsoid_13d", "ellipsoid_40d"])
def test_reflected_kernel_agrees_with_a_rotated_polar_ellipsoid(entry):
    # In a rotated eigenbasis each side takes its own products with V, which
    # round apart by about sqrt(n) ulps of ||v||.  A second eigensolve of
    # Q^-1 once moved the polar's axes: 2e-8 ||v|| at cond(Q) = 1e12.
    set_ = BY_ID[entry].make()
    view, polar = homcone.sets._Polar(set_), set_.polar()
    for v in reflected_queries(set_, np.random.default_rng(62)):
        assert gap(project_homogenization(view, v),
                   project_homogenization(polar, v)) <= 1e-14 * norm(v)


def reflected_certificate(set_, v, res):
    """The Moreau certificate of the answer p = (z, alpha) to v = (y, t) on
    the cone of C°: C's certificate (tests/test_homproj.py) at (y, -t) for
    the answer (y - z, alpha - t) that p reflects.  Its dual part, sigma_C(z)
    <= alpha, is p's membership, read as there on an unbounded C."""
    (y, t), (z, alpha) = v, res.point
    return moreau_certificate(set_, (y, -t), SimpleNamespace(point=(y - z, alpha - t)))


@pytest.mark.parametrize("entry", VIEWED)
def test_reflected_kernel_certifies_on_the_polar_views(entry):
    set_ = BY_ID[entry].make()
    view = set_.polar()
    assert isinstance(view, homcone.sets._Polar)
    branches = set()
    for y, t in reflected_queries(set_, np.random.default_rng(61)):
        res = project_homogenization(view, (y, t))
        assert res.iterations == 0
        assert (res.branch is Branch.RECESSION) == (res.alpha_star == 0.0)
        if res.branch is Branch.ALREADY_IN_K:
            assert np.array_equal(res.point.y, y) and res.alpha_star == t
        assert reflected_certificate(set_, (y, t), res) <= 1e-9
        branches.add(res.branch)
    assert branches == set(Branch)


def test_the_polar_of_the_polar_is_the_set():
    # The bipolar theorem: the view returns C itself, a cataloged polar the
    # set of C's type with equal parameters, and PBall(inf) the equal box.
    for entry in VIEWED:
        set_ = BY_ID[entry].make()
        assert set_.polar().polar() is set_
    ball = EuclideanBall(np.zeros(3), 1.3).polar().polar()
    assert isinstance(ball, EuclideanBall) and ball.radius == pytest.approx(1.3, rel=1e-15)
    box = Box(np.full(3, 0.8)).polar().polar()
    np.testing.assert_allclose(box.halfwidths, 0.8, rtol=1e-15)
    l1 = L1Ball(1.7, 3).polar().polar()
    assert isinstance(l1, L1Ball) and (l1.radius, l1.dim) == (pytest.approx(1.7, rel=1e-15), 3)
    p_ball = PBall(3.0, 1.2, 4).polar().polar()
    assert isinstance(p_ball, PBall) and p_ball.dim == 4
    assert (p_ball.p, p_ball.radius) == (pytest.approx(3.0, rel=1e-15),
                                         pytest.approx(1.2, rel=1e-15))
    box = PBall(math.inf, 0.9, 3).polar().polar()
    assert isinstance(box, Box)
    np.testing.assert_allclose(box.halfwidths, 0.9, rtol=1e-15)
    q = BY_ID["ellipsoid_3d"].make().q_matrix
    ellipsoid = Ellipsoid(q).polar().polar()
    assert isinstance(ellipsoid, Ellipsoid)
    np.testing.assert_allclose(ellipsoid.q_matrix, q, atol=1e-14 * np.abs(q).max())


def test_the_polar_view_offers_membership_and_its_cone_only():
    view = Simplex(2).polar()
    assert not view.bounded
    with pytest.raises(NotImplementedError, match="the polar of Simplex has no support"):
        view.support((1.0, 1.0))
    with pytest.raises(NotImplementedError, match="the polar of Simplex has no projector"):
        view.project((3.0, 3.0))
    with pytest.raises(NotImplementedError):
        view.project_recession((1.0, 1.0))
    # Without a kernel of C the generic route needs P_C°, unless the query
    # is a member.
    hyp = Hyperbolic().polar()
    assert project_homogenization(hyp, ((3.0, 0.0), 1.0)).branch is Branch.ALREADY_IN_K
    with pytest.raises(NotImplementedError):
        project_homogenization(hyp, ((0.0, 3.0), 1.0))


#: Sets whose cataloged polar has the parameter 1/radius.
RECIPROCAL_POLARS = {
    "ball": lambda r: EuclideanBall((0.0, 0.0), r),
    "box": lambda r: Box((r, r)),
    "l1": lambda r: L1Ball(r),
    "pball3": lambda r: PBall(3.0, r),
    "pball_inf": lambda r: PBall(math.inf, r),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", [1e-310, 5e-309])
@pytest.mark.parametrize("kind", sorted(RECIPROCAL_POLARS))
def test_a_polar_whose_radius_overflows_is_the_support_view(kind, radius):
    # 1/radius exceeds the float64 range, so no cataloged polar exists: the
    # sigma_C view answers, with no warning, and at 5e-309 some finite y
    # lies outside it.
    set_ = RECIPROCAL_POLARS[kind](radius)
    polar = set_.polar()
    assert isinstance(polar, homcone.sets._Polar)
    for y in ((0.0, 0.0), (1.0, -2.0), (-1e300, 3e307), (1.7e308, 1.7e308)):
        inside = set_.support(y) <= 1.0 + homcone.sets.MEMBERSHIP_TOL
        assert polar.contains(y) == inside


@pytest.mark.filterwarnings("error")
def test_a_polar_ellipsoid_whose_inverse_overflows_is_the_support_view():
    polar = Ellipsoid(np.diag([1e-310, 1.0])).polar()
    assert isinstance(polar, homcone.sets._Polar)
    assert polar.contains((0.0, 0.0))


@pytest.mark.filterwarnings("error")
def test_a_polar_ellipsoid_at_the_edge_of_the_range_is_cataloged():
    # 1/w = 1e308 is finite, but twice it is not: the polar's Q^-1 is made
    # symmetric without that sum, so the cataloged polar stays.
    polar = Ellipsoid(np.diag([1e-308, 1.0])).polar()
    assert type(polar) is Ellipsoid
    q = polar.q_matrix
    assert q[0, 0] == 1.0 / 1e-308 and np.array_equal(q, q.T)


class Diamond(ConvexSet):
    """A user-defined set with only ``dim``, ``_contains`` and ``_support``:
    the l1 ball of radius 2."""

    dim = 2

    def _contains(self, x, tol):
        return float(np.sum(np.abs(x))) <= 2.0 + tol

    def _support(self, y):
        return 2.0 * float(np.max(np.abs(y)))


def test_a_user_set_polar_is_sigma_at_most_one_plus_tol():
    set_ = Diamond()
    polar = set_.polar()
    assert isinstance(polar, homcone.sets._Polar) and polar.polar() is set_
    rng = np.random.default_rng(57)
    points = [*rng.uniform(-1.0, 1.0, size=(200, 2)), (0.5 + 1e-10, 0.0),
              (-1e-300, 1e-300), (1e300, -1e300)]
    for y in points:
        for tol in (0.0, 1e-9):
            assert polar.contains(y, tol) == (set_.support(y) <= 1.0 + tol)
    # sigma_C = 1 + 2e-10 there: inside the band, outside the polar.
    assert polar.contains((0.5 + 1e-10, 0.0)) and not polar.contains((0.5 + 1e-10, 0.0), 0.0)
