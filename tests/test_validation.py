"""Inputs are validated once, at the public boundary.

Every public set method and entry point rejects a malformed vector; after
that the kernels and the solver run unchecked, so one query costs one
validation pass: the entry point validates and sizes (y, s) at once, and every
later step reuses the checked query.
"""

import math
import re
from decimal import Decimal

import numpy as np
import pytest

import homcone.cli
import homcone.homproj
import homcone.paper
import homcone.sets
from homcone import (
    Box,
    ConvexSet,
    Ellipsoid,
    EuclideanBall,
    Hyperbolic,
    PBall,
    PsiEvaluator,
    homogenization_polar_membership,
    project_homogenization,
    set_from_spec,
)
from set_catalog import CORE, pairs, params

ENTRIES = {
    "project": lambda c, x: c.project(x),
    "contains": lambda c, x: c.contains(x),
    "support": lambda c, x: c.support(x),
    "project_recession": lambda c, x: c.project_recession(x),
    "recession_distance": lambda c, x: c.recession_distance(x),
    "PsiEvaluator": lambda c, x: PsiEvaluator(c, x, 1.0),
    "project_homogenization": lambda c, x: project_homogenization(c, (x, 1.0)),
    # Membership in the polar set by the view on every set (the set's
    # ``_polar_contains``: its closed form or sigma_C), and by the set's own
    # polar: the cataloged set or that view.
    "polar_membership": lambda c, x: homcone.sets._Polar(c).contains(x),
    "closed_form_polar": lambda c, x: c.polar().contains(x),
    "homogenization_polar_membership":
        lambda c, x: homogenization_polar_membership(c, (x, -1.0)),
}

CORE_SETS = pairs(CORE)
PROJECTABLE = {e.id: e.projectable for e in CORE}

BAD_INPUTS = {
    "wrong_length": lambda n: np.ones(n + 1),
    "nan_entry": lambda n: np.r_[np.ones(n - 1), np.nan],
    "inf_entry": lambda n: np.r_[np.ones(n - 1), np.inf],
    "2d_array": lambda n: np.ones((2, n)),
    "empty": lambda n: np.array([]),
    "complex": lambda n: np.r_[np.ones(n - 1), 1j],
}

#: The message each kind of bad vector is rejected with.
BAD_MESSAGES = {
    "wrong_length": "expected dimension",
    "nan_entry": "vector entries must be finite",
    "inf_entry": "vector entries must be finite",
    "2d_array": "expected a nonempty 1-D real vector",
    "empty": "expected a nonempty 1-D real vector",
    "complex": "expected a nonempty 1-D real vector",
}


def boundary_cases():
    for name, set_ in CORE_SETS:
        for entry in ENTRIES:
            if entry == "project" and not PROJECTABLE[name]:
                continue
            if (entry in ("project_recession", "recession_distance")
                    and not (PROJECTABLE[name] or set_.bounded)):
                continue
            yield pytest.param(set_, entry, id=f"{name}-{entry}")


@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
@pytest.mark.parametrize("set_, entry", list(boundary_cases()))
def test_boundary_rejects_bad_vectors(set_, entry, bad):
    x = BAD_INPUTS[bad](set_.dim)
    with pytest.raises(ValueError, match=BAD_MESSAGES[bad]):
        ENTRIES[entry](set_, x)


class NoPolar(ConvexSet):
    """A user set that defines only its dimension: every kernel is the base
    class's, and its polar is a view."""

    dim = 2


_EVALUATOR = PsiEvaluator(Box((1.0, 1.0)), (1.0, 2.0), 0.5)

#: One exception per failure kind: (exception, its whole message, the call).
FAILURES = {
    "wrong_length": (ValueError, "expected dimension 2, got 3",
                     lambda: Box((1.0, 1.0)).project((1.0, 2.0, 3.0))),
    "centre_outside": (ValueError,
                       "the ball must contain the origin: require ||center|| <= radius",
                       lambda: EuclideanBall((2.0, 0.0), 1.0)),
    "ellipsoid_not_square": (ValueError, "Q must be a square matrix",
                             lambda: Ellipsoid([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])),
    "ellipsoid_not_finite": (ValueError, "Q entries must be finite",
                             lambda: Ellipsoid([[1.0, 0.0], [0.0, math.inf]])),
    "phi_alpha_0": (ValueError, "the scaling parameter must be positive",
                    lambda: _EVALUATOR.phi(0.0)),
    "phi_prime_alpha_negative": (ValueError, "the scaling parameter must be positive",
                                 lambda: _EVALUATOR.phi_prime(-1.0)),
    "psi_prime_alpha_0": (ValueError, "the scaling parameter must be positive",
                          lambda: _EVALUATOR.psi_prime(0.0)),
    "psi_alpha_negative": (ValueError, "the scaling parameter must be nonnegative",
                           lambda: _EVALUATOR.psi(-0.5)),
    # At inf, phi and psi were once nan with no warning.
    "phi_alpha_inf": (ValueError, "the scaling parameter must be finite",
                      lambda: _EVALUATOR.phi(math.inf)),
    "psi_alpha_inf": (ValueError, "the scaling parameter must be finite",
                      lambda: _EVALUATOR.psi(math.inf)),
    "psi_prime_alpha_inf": (ValueError, "the scaling parameter must be finite",
                            lambda: _EVALUATOR.psi_prime(math.inf)),
    # A non-number eps or tol was once a TypeError from float().
    "eps_none": (ValueError, "eps must be positive and finite",
                 lambda: project_homogenization(Box((1.0, 1.0)), ((1.0, 2.0), 1.0),
                                                eps=None)),
    "eps_not_a_number": (ValueError, "eps must be positive and finite",
                         lambda: project_homogenization(Box((1.0, 1.0)), ((1.0, 2.0), 1.0),
                                                        eps="small")),
    "tol_none_polar_cone": (ValueError, "tolerance must be finite and nonnegative",
                            lambda: homogenization_polar_membership(
                                Box((1.0, 1.0)), ((1.0, 2.0), 1.0), tol=None)),
    "tol_none_contains": (ValueError, "tolerance must be finite and nonnegative",
                          lambda: Box((1.0, 1.0)).contains((0.5, 0.5), tol=None)),
    # A complex vector once lost its imaginary part with only a ComplexWarning.
    "complex_vector": (ValueError, "expected a nonempty 1-D real vector",
                       lambda: project_homogenization(Box((1.0, 1.0)),
                                                      (np.array([1 + 5j, 2]), 0.5))),
    "complex_contains": (ValueError, "expected a nonempty 1-D real vector",
                         lambda: Box((1.0, 1.0)).contains(np.array([0.5 + 9j, 0.5]))),
    "complex_centre": (ValueError, "expected a nonempty 1-D real vector",
                       lambda: EuclideanBall(np.array([0.1 + 1j, 0.0]), 1.0)),
    # A height that is not a real number was once a TypeError from float().
    "height_none": (ValueError, "height must be finite",
                    lambda: project_homogenization(Box((1.0, 1.0)), ((1.0, 2.0), None))),
    "height_complex": (ValueError, "height must be finite",
                       lambda: project_homogenization(Box((1.0, 1.0)), ((1.0, 2.0), 1 + 0j))),
    "bracket_not_a_number": (ValueError, "require 0 < alpha0 < beta0, both finite",
                             lambda: homcone.paper.bisection_projection(
                                 Box((1.0, 1.0)), ((1.0, 2.0), 1.0), [1.0], 5.0)),
    "bad_point": (ValueError,
                  "bad point '1,zebra': could not convert string to float: 'zebra'",
                  lambda: homcone.cli._parse_point("1,zebra")),
    "project_hyperbolic": (NotImplementedError,
                           "Hyperbolic is cataloged for support-function and polar "
                           "work only and has no projector",
                           lambda: Hyperbolic().project((1.0, 1.0))),
    "project_p_ball_3": (NotImplementedError,
                         "p-ball projection is implemented for p in {2, inf} only",
                         lambda: PBall(3.0, 1.0).project((1.0, 1.0))),
    "base_polar": (NotImplementedError, "the polar of NoPolar has no support function",
                   lambda: NoPolar().polar().support((1.0, 1.0))),
    "base_contains": (NotImplementedError, "NoPolar has no membership test",
                      lambda: NoPolar().contains((1.0, 1.0))),
    "base_support": (NotImplementedError, "NoPolar has no support function",
                     lambda: NoPolar().support((1.0, 1.0))),
    "base_polar_contains": (NotImplementedError, "NoPolar has no support function",
                            lambda: NoPolar().polar().contains((1.0, 1.0))),
    # The membership shortcut asks _contains; the solver of a bounded set
    # asks psi'(0+), which is sigma_C.
    "base_project_homogenization": (
        NotImplementedError, "NoPolar has no membership test",
        lambda: project_homogenization(NoPolar(), ((1.0, 1.0), 1.0))),
    "base_project_homogenization_iterative": (
        NotImplementedError, "NoPolar has no support function",
        lambda: project_homogenization(NoPolar(), ((1.0, 1.0), 1.0), force_iterative=True)),
    "ellipsoid_empty": (ValueError, "Q must be nonempty",
                        lambda: Ellipsoid(np.zeros((0, 0)))),
    "spec_invalid_json": (ValueError, "invalid JSON: Expecting value: line 1 column 1 (char 0)",
                          lambda: set_from_spec("")),
    "spec_not_an_object": (ValueError, "set spec must be a JSON object",
                           lambda: set_from_spec("[1, 2]")),
    "spec_unknown_type": (ValueError, "unknown set type 'cube'",
                          lambda: set_from_spec('{"type": "cube"}')),
    "spec_type_not_a_string": (ValueError, "unknown set type ['box']",
                               lambda: set_from_spec('{"type": ["box"]}')),
    "spec_unknown_key": (ValueError, "unknown keys for box: ['color']",
                         lambda: set_from_spec({"type": "box", "halfwidths": [1, 1],
                                                "color": "red"})),
    "spec_missing_key": (ValueError, "missing keys for p_ball: ['p', 'radius']",
                         lambda: set_from_spec({"type": "p_ball"})),
    "spec_bad_parameter": (ValueError, "bad parameters for box: halfwidths must be nonnegative",
                           lambda: set_from_spec({"type": "box", "halfwidths": [-1, 1]})),
    "spec_unrecognized_p": (ValueError, "bad parameters for p_ball: unrecognized p value 'two'",
                            lambda: set_from_spec({"type": "p_ball", "p": "two",
                                                   "radius": 1})),
}


@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_each_failure_raises_its_kind_with_its_message(failure):
    kind, message, call = FAILURES[failure]
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()


HEIGHTS = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("s", HEIGHTS, ids=str)
@pytest.mark.parametrize("entry", params(CORE, projectable=True))
def test_non_finite_height_is_rejected(entry, s):
    set_ = entry.make()
    y = np.ones(set_.dim)
    for force_iterative in (False, True):
        with pytest.raises(ValueError):
            project_homogenization(set_, (y, s), force_iterative=force_iterative)


@pytest.mark.parametrize("s", HEIGHTS, ids=str)
def test_non_finite_height_is_rejected_by_other_entries(s):
    with pytest.raises(ValueError):
        PsiEvaluator(Box((1.0, 1.0)), (1.0, 2.0), s)
    with pytest.raises(ValueError):
        homogenization_polar_membership(Box((1.0, 1.0)), ((1.0, 2.0), s))


def test_int_and_bool_queries_are_accepted():
    box = Box((1.0, 2.0))
    want = project_homogenization(box, (np.array([3.0, 1.0]), 1.0))
    for y, s in (((3, 1), 1), ((3, True), True), (np.array([3, 1]), np.int64(1))):
        got = project_homogenization(box, (y, s))
        assert got.alpha_star == want.alpha_star
        assert got.point.y.tobytes() == want.point.y.tobytes()


#: eps = 1e-6 in forms that float() accepts but that are no float.
EPS_FORMS = ("1e-6", b"1e-6", np.str_("1e-6"), Decimal("1e-6"))


def answer(res):
    """The bits of a projection: alpha*, the point, branch, iterations, trace."""
    return (res.alpha_star.hex(), res.point.y.tobytes(), res.point.s.hex(),
            res.branch, res.iterations, res.trace)


@pytest.mark.parametrize("eps", EPS_FORMS, ids=repr)
def test_eps_that_float_accepts_answers_as_its_float(eps):
    # Such an eps once passed validation and failed inside the solver: a
    # UFuncTypeError or TypeError on the Brent route, a TypeError on the
    # bracket route.
    box, p = Box((1.0, 1.0)), ((3.0, 1.0), 0.2)
    routes = (
        lambda e: project_homogenization(box, p, eps=e, force_iterative=True,
                                         keep_trace=True),
        lambda e: homcone.paper.bisection_projection(box, p, 0.5, 2.0, eps=e,
                                                     force_iterative=True),
    )
    for route in routes:
        assert answer(route(eps)) == answer(route(1e-6))
    dpsi = PsiEvaluator(box, *p).psi_prime
    assert (homcone.paper.find_alpha_star(dpsi, eps=eps)
            == homcone.paper.find_alpha_star(dpsi, eps=1e-6))


@pytest.mark.parametrize("t", (2.0 ** 600, 2.0 ** -600), ids=("2^600", "2^-600"))
def test_string_bracket_on_a_rescaled_query_answers_as_its_floats(t):
    # The bracket of a query beyond 2^(+-500) is rescaled with the query;
    # string ends once raised a TypeError there.
    box, p = Box((1.0, 1.0)), ((3.0 * t, 1.0 * t), 0.2 * t)
    bracket = (0.5 * t, 2.0 * t, 1e-6 * t)
    want = homcone.paper.bisection_projection(box, p, *bracket)
    got = homcone.paper.bisection_projection(box, p, *map(repr, bracket))
    assert want.branch.value == "cone_interior"
    assert answer(got) == answer(want)


def count_validation_passes(monkeypatch):
    """Count the calls of the one-pass query validator in every module that
    binds it; ``as_vector`` is a pass too, as it calls it."""
    calls = []
    original = homcone.sets._as_query

    def counting(y, dim=None, s=0.0, safe=math.inf):
        calls.append(dim)
        return original(y, dim, s, safe)

    for module in (homcone.sets, homcone.homproj):
        if hasattr(module, "_as_query"):
            monkeypatch.setattr(module, "_as_query", counting)
    return calls


@pytest.mark.parametrize("entry", params(CORE, projectable=True))
def test_one_query_validates_at_most_twice(entry, monkeypatch):
    set_ = entry.make()
    calls = count_validation_passes(monkeypatch)
    # Outside the set, so the iterative sets take the cone-interior branch.
    y = np.full(set_.dim, 3.0)
    res = project_homogenization(set_, (y, 0.5))
    assert res.branch.value == "cone_interior"
    assert (res.iterations == 0) == entry.kernel
    assert calls == [set_.dim]
    # Beyond 2^(+-500) the rescaled query is not validated again.
    calls.clear()
    project_homogenization(set_, (np.ldexp(y, 700), math.ldexp(0.5, 700)))
    assert calls == [set_.dim]


def count_norms_of(y, monkeypatch):
    """Count the ``numpy.linalg.norm`` calls on a vector equal to y."""
    calls = []
    original = np.linalg.norm

    def counting(x, *args, **kwargs):
        if np.shape(x) == y.shape and np.array_equal(x, y):
            calls.append(x)
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    return calls


GENERIC_ROUTES = {
    "force_iterative": lambda c, p: project_homogenization(c, p, force_iterative=True),
    "bisection": lambda c, p: homcone.paper.bisection_projection(c, p, 0.25, 2.0),
    "polar_membership": homogenization_polar_membership,
}


@pytest.mark.parametrize("route", sorted(GENERIC_ROUTES))
def test_generic_routes_take_the_norm_from_validation(route, monkeypatch):
    # max(||y||, |s|) lies in [1/2, 1), so no route rescales y; y / s is
    # outside the box, so the projections take the solver.  psi'(0+) sizes y
    # by roots._norm, not numpy's, and is not counted.
    y = np.array([0.6, 0.2])
    calls = count_norms_of(y, monkeypatch)
    GENERIC_ROUTES[route](Box((1.0, 2.0)), (y, 0.5))
    assert calls == []


def test_psi_prime_at_zero_takes_the_norm_from_validation(monkeypatch):
    # psi'(0+) sizes y by the norm validation took: no second sizing by
    # sets._scaled, wherever it is bound.
    calls = []
    for module in (homcone.sets, homcone.homproj):
        if hasattr(module, "_scaled"):
            def counting(f, v, original=module._scaled):
                calls.append(v)
                return original(f, v)

            monkeypatch.setattr(module, "_scaled", counting)
    res = project_homogenization(Box((1.0, 2.0)), ((3.0, 1.0), 0.2), force_iterative=True)
    assert res.branch.value == "cone_interior"
    assert calls == []


@pytest.mark.parametrize("entry", ["polar_cone_membership",
                                   "homogenization_polar_membership"])
def test_polar_cone_memberships_validate_once(entry, monkeypatch):
    set_ = Box((1.0, 2.0))
    calls = count_validation_passes(monkeypatch)
    if entry == "polar_cone_membership":
        # The polar cone of C: the polar cone of K at height 0.
        assert not homogenization_polar_membership(set_, ((1e300, -3e300), 0.0))
    else:
        assert homogenization_polar_membership(set_, ((1e-300, 3e-300), -1e-299))
    assert calls == [2]


TOLERANCE_ENTRIES = {
    "contains": lambda c, y, tol: c.contains(y, tol),
    "polar_membership": lambda c, y, tol: homcone.sets._Polar(c).contains(y, tol),
    "polar_cone_membership":
        lambda c, y, tol: homogenization_polar_membership(c, (y, 0.0), tol),
    "homogenization_polar_membership":
        lambda c, y, tol: homogenization_polar_membership(c, (y, -1.0), tol),
    "closed_form_polar": lambda c, y, tol: c.polar().contains(y, tol),
}


@pytest.mark.parametrize("tol", (math.nan, math.inf, -1.0), ids=str)
@pytest.mark.parametrize("entry", sorted(TOLERANCE_ENTRIES))
def test_bad_tolerance_is_rejected(entry, tol):
    # A nan band once answered False and an infinite one True everywhere.
    for set_ in (Box((1.0, 1.0)), EuclideanBall((0.5, 0.0), 1.0)):
        with pytest.raises(ValueError, match="tolerance must be finite"):
            TOLERANCE_ENTRIES[entry](set_, (0.5, 0.5), tol)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, set_", CORE_SETS, ids=[n for n, _ in CORE_SETS])
def test_closed_form_polar_stays_in_range(name, set_):
    # The closed forms once squared, powered or summed the raw y and
    # overflowed here; the support function rescales and answers False.
    polar = set_.polar()
    for t, sign in ((1e200, 1.0), (1e200, -1.0), (1.7e308, 1.0)):
        y = np.full(set_.dim, t)
        y[1] *= sign
        assert polar.contains(y) == (set_.support(y) <= 1.0 + 1e-9)
