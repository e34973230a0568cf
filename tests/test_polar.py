import math
import warnings

import numpy as np
import pytest

from homcone import (
    BallPen,
    Box,
    CapabilityMissing,
    ConvexSet,
    EuclideanBall,
    Hyperbolic,
    L1Ball,
    PBall,
    Simplex,
    closed_form_polar,
    homogenization_polar_membership,
    polar_cone_membership,
    polar_membership,
    project_homogenization,
)
from set_catalog import BY_ID, CORE, pairs


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
    assert polar_membership(L1Ball(1.0), (1.0, 1.0))
    assert polar_membership(Simplex(3), (1.0, 1.0, 1.0))
    assert not polar_membership(Simplex(3), (1.5, 0.0, 0.0))
    assert polar_membership(Hyperbolic(), (1.0, 0.0))
    assert polar_membership(EuclideanBall((0.0, 0.0), 2.0), (0.4, 0.3))


@pytest.mark.parametrize("t", [1.0, 1e-6, 1e-9, 1e-12, 1e-300, 1e300])
def test_polar_cone_membership_is_the_same_at_every_scale(t):
    # The polar cone of a bounded set is {0}; every y <= 0 is in the simplex's.
    assert not polar_cone_membership(Box((1.0, 1.0)), (t, t))
    assert polar_cone_membership(Simplex(2), (-t, -t))


def test_polar_cone_membership_examples():
    ball = EuclideanBall((0.0, 0.0), 1.0)
    assert polar_cone_membership(ball, (0.0, 0.0))
    assert not polar_cone_membership(ball, (0.1, 0.0))
    pen = BallPen((0.0, 1.0))
    assert polar_cone_membership(pen, (0.0, 0.0))
    assert not polar_cone_membership(pen, (0.0, -1.0))  # sigma = 1 > 0
    assert not polar_cone_membership(Box((1.0, 1.0)), (-1.0, 0.0))


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
    desc = closed_form_polar(EuclideanBall((0.0, 0.0), 2.0))
    assert isinstance(desc.polar_set, EuclideanBall)
    assert desc.polar_set.radius == pytest.approx(0.5)


def test_closed_form_box_is_l1_predicate():
    desc = closed_form_polar(Box((1.0, 1.0)))
    rng = np.random.default_rng(42)
    for _ in range(500):
        y = rng.uniform(-2, 2, 2)
        if abs(np.abs(y).sum() - 1.0) < 1e-9:
            continue
        assert desc.contains(y) == (np.abs(y).sum() <= 1.0)


def test_closed_form_equal_box_answers_by_its_l1_dual():
    # The polar of the box of halfwidth 2 is the l1 ball of radius 1/2, and
    # its own membership test answers, band included: sigma_C(y) <= 1 + tol
    # is a band of tol / 2 in l1 terms, and once answered False here.
    desc = closed_form_polar(Box((2.0, 2.0)))
    assert isinstance(desc.polar_set, L1Ball) and desc.polar_set.radius == 0.5
    y = (0.5 + 0.75e-9, 0.0)
    assert desc.polar_set.contains(y)
    assert desc.contains(y)
    assert not polar_membership(Box((2.0, 2.0)), y)


def test_closed_form_shifted_disc_matches_parabola():
    # For the disc centred at (1, 0): y1 <= (1 - y2^2) / 2.
    desc = closed_form_polar(EuclideanBall((1.0, 0.0), 1.0))
    rng = np.random.default_rng(43)
    for _ in range(500):
        y = rng.uniform(-3, 3, 2)
        parabola = y[0] <= 0.5 * (1.0 - y[1] ** 2)
        if abs(y[0] - 0.5 * (1.0 - y[1] ** 2)) < 1e-9:
            continue
        assert desc.contains(y) == parabola


def test_closed_form_rejects_unknown_sets():
    class Odd:
        dim = 2

    with pytest.raises(TypeError, match="Odd is not a ConvexSet"):
        closed_form_polar(Odd())

    class NoPolar(ConvexSet):
        dim = 2

        def _support(self, y):
            return float(np.linalg.norm(y))

    with pytest.raises(CapabilityMissing, match="no cataloged closed-form polar for NoPolar"):
        closed_form_polar(NoPolar())


class Square(ConvexSet):
    """A user-defined set: the square [-1, 1]^2, with its polar kernel."""

    dim = 2

    def _contains(self, x, tol):
        return bool(np.all(np.abs(x) <= 1.0 + tol))

    def _support(self, y):
        return float(np.sum(np.abs(y)))

    def _polar(self):
        return lambda y, tol: float(np.sum(np.abs(y))) <= 1.0 + tol


class HalvedBox(Box):
    """The box of half the given halfwidths; its polar doubles the weights."""

    def _contains(self, x, tol):
        return super()._contains(2.0 * x, 2.0 * tol)

    def _support(self, y):
        return 0.5 * super()._support(y)

    def _polar(self):
        b = 0.5 * self.halfwidths
        return lambda y, tol: float(b @ np.abs(y)) <= 1.0 + tol


@pytest.mark.parametrize("set_", [Square(), HalvedBox((1.0, 1.0))],
                         ids=["convex_set", "box_subclass"])
def test_closed_form_uses_the_set_polar_kernel(set_):
    desc = closed_form_polar(set_)
    assert desc.source is set_
    assert desc.polar_set is None
    rng = np.random.default_rng(52)
    for y in rng.uniform(-3.0, 3.0, size=(500, 2)):
        if abs(set_.support(y) - 1.0) < 1e-7:
            continue
        assert desc.contains(y) == polar_membership(set_, y)
    # (1.5, 0) is in the polar of the halved unit box, not of the unit box.
    assert desc.contains((1.5, 0.0)) == isinstance(set_, HalvedBox)


def test_bipolar_ball_pair():
    # Membership in the polar of the polar agrees with the original ball.
    ball = EuclideanBall((0.0, 0.0), 2.0)
    dual = closed_form_polar(ball).polar_set
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
    dual = closed_form_polar(ball).polar_set
    assert isinstance(dual, L1Ball) and dual.radius == 0.5
    rng = np.random.default_rng(48)
    for y in rng.uniform(-1.0, 1.0, size=(200, 2)):
        if abs(ball.support(y) - 1.0) < 1e-7:
            continue
        assert closed_form_polar(ball).contains(y) == polar_membership(ball, y)


def test_bipolar_box_l1_pair():
    box = Box((1.0, 1.0))
    dual = closed_form_polar(box).polar_set  # the unit cross-polytope
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
    desc = closed_form_polar(hyp)
    for t in (0.0, 0.5, 2.0, 10.0):
        y = np.array([t, 0.0])
        assert polar_cone_membership(hyp, y)
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
        assert not polar_cone_membership(hyp, y)
        assert any(not desc.contains(rho * y) for rho in (1.0, 10.0, 100.0))
        checked += 1
    assert checked > 500


def test_homogenization_polar_branches_disjoint():
    rng = np.random.default_rng(49)
    pen = BallPen((0.0, 1.0))
    for _ in range(2000):
        y = rng.uniform(-3, 3, 2)
        s = rng.uniform(-3, 3)
        ray_branch = s < -1e-12 and polar_membership(pen, y / (-s))
        flat_branch = abs(s) <= 1e-12 and polar_cone_membership(pen, y)
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
