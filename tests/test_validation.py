"""Inputs are validated once, at the public boundary.

Every public set method and entry point rejects a malformed vector; after
that the kernels and the solver run unchecked, so one query costs one
validation pass: the entry point validates and sizes (y, s) at once, and every
later step reuses the checked query.
"""

import math

import numpy as np
import pytest

import homcone.homproj
import homcone.polar
import homcone.scaledfun
import homcone.sets
from homcone import (
    BallPen,
    Box,
    DimensionMismatch,
    Ellipsoid,
    EuclideanBall,
    Hyperbolic,
    L1Ball,
    PBall,
    PsiEvaluator,
    Simplex,
    closed_form_polar,
    homogenization_polar_membership,
    polar_cone_membership,
    polar_membership,
    project_homogenization,
)

# (name, set, projectable, has a recession cone)
CATALOG = [
    ("ball0", EuclideanBall((0.0, 0.0), 1.3), True, True),
    ("ball_off", EuclideanBall((0.5, -0.3), 1.0), True, True),
    ("box", Box((0.8, 1.5, 0.6)), True, True),
    ("l1", L1Ball(1.7, dim=3), True, True),
    ("pball2", PBall(2.0, 1.2), True, True),
    ("pballinf", PBall(math.inf, 0.9, dim=3), True, True),
    ("pball3", PBall(3.0, 1.0), False, True),
    ("ellipsoid", Ellipsoid([[2.0, 0.3], [0.3, 0.8]]), True, True),
    ("simplex", Simplex(3), True, True),
    ("ballpen", BallPen((0.6, 0.8)), True, True),
    ("shifted_unit_ball", EuclideanBall((0.0, -1.0), 1.0), True, True),
    ("strip", BallPen((0.0, 1.0)), True, True),
    ("hyperbolic", Hyperbolic(), False, False),
    # Above sets._FLOATS entries, where validation runs on numpy arrays.
    ("box13", Box(np.linspace(0.5, 1.7, 13)), True, True),
]

ENTRIES = {
    "project": lambda c, x: c.project(x),
    "contains": lambda c, x: c.contains(x),
    "support": lambda c, x: c.support(x),
    "project_recession": lambda c, x: c.project_recession(x),
    "recession_distance": lambda c, x: c.recession_distance(x),
    "PsiEvaluator": lambda c, x: PsiEvaluator(c, x, 1.0),
    "project_homogenization": lambda c, x: project_homogenization(c, (x, 1.0)),
    "polar_membership": lambda c, x: polar_membership(c, x),
    "closed_form_polar": lambda c, x: closed_form_polar(c).contains(x),
    "homogenization_polar_membership":
        lambda c, x: homogenization_polar_membership(c, (x, -1.0)),
}

BAD_INPUTS = {
    "wrong_length": lambda n: np.ones(n + 1),
    "nan_entry": lambda n: np.r_[np.ones(n - 1), np.nan],
    "inf_entry": lambda n: np.r_[np.ones(n - 1), np.inf],
    "2d_array": lambda n: np.ones((2, n)),
    "empty": lambda n: np.array([]),
}


def boundary_cases():
    for name, set_, projectable, has_rec in CATALOG:
        for entry in ENTRIES:
            if entry == "project" and not projectable:
                continue
            if entry in ("project_recession", "recession_distance") and not has_rec:
                continue
            yield pytest.param(set_, entry, id=f"{name}-{entry}")


@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
@pytest.mark.parametrize("set_, entry", list(boundary_cases()))
def test_boundary_rejects_bad_vectors(set_, entry, bad):
    x = BAD_INPUTS[bad](set_.dim)
    with pytest.raises((DimensionMismatch, ValueError)):
        ENTRIES[entry](set_, x)


PROJECTABLE = [(name, set_) for name, set_, projectable, _ in CATALOG if projectable]
HEIGHTS = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("s", HEIGHTS, ids=str)
@pytest.mark.parametrize("name, set_", PROJECTABLE, ids=[n for n, _ in PROJECTABLE])
def test_non_finite_height_is_rejected(name, set_, s):
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


def count_validation_passes(monkeypatch):
    """Count the calls of the one-pass query validator in every module that
    binds it; ``as_vector`` is a pass too, as it calls it."""
    calls = []
    original = homcone.sets._as_query

    def counting(y, dim=None, s=0.0):
        calls.append(dim)
        return original(y, dim, s)

    for module in (homcone.sets, homcone.scaledfun, homcone.homproj, homcone.polar):
        if hasattr(module, "_as_query"):
            monkeypatch.setattr(module, "_as_query", counting)
    return calls


@pytest.mark.parametrize("name, set_", PROJECTABLE, ids=[n for n, _ in PROJECTABLE])
def test_one_query_validates_at_most_twice(name, set_, monkeypatch):
    calls = count_validation_passes(monkeypatch)
    # Outside the set, so the iterative sets take the cone-interior branch.
    y = np.full(set_.dim, 3.0)
    res = project_homogenization(set_, (y, 0.5))
    closed_form = name in ("ball0", "ball_off", "ballpen", "strip", "box", "l1",
                           "simplex", "ellipsoid", "pball2", "pballinf",
                           "shifted_unit_ball", "box13")
    assert res.branch.value == "cone_interior"
    assert (res.iterations == 0) == closed_form
    assert calls == [set_.dim]
    # Beyond 2^(+-500) the rescaled query is not validated again.
    calls.clear()
    project_homogenization(set_, (np.ldexp(y, 700), math.ldexp(0.5, 700)))
    assert calls == [set_.dim]


@pytest.mark.parametrize("entry", ["polar_cone_membership",
                                   "homogenization_polar_membership"])
def test_polar_cone_memberships_validate_once(entry, monkeypatch):
    set_ = Box((1.0, 2.0))
    calls = count_validation_passes(monkeypatch)
    if entry == "polar_cone_membership":
        assert not polar_cone_membership(set_, (1e300, -3e300))
    else:
        assert homogenization_polar_membership(set_, ((1e-300, 3e-300), -1e-299))
    assert calls == [2]


TOLERANCE_ENTRIES = {
    "contains": lambda c, y, tol: c.contains(y, tol),
    "polar_membership": lambda c, y, tol: polar_membership(c, y, tol),
    "polar_cone_membership": lambda c, y, tol: polar_cone_membership(c, y, tol),
    "homogenization_polar_membership":
        lambda c, y, tol: homogenization_polar_membership(c, (y, -1.0), tol),
    "closed_form_polar": lambda c, y, tol: closed_form_polar(c).contains(y, tol),
}


@pytest.mark.parametrize("tol", (math.nan, math.inf, -1.0), ids=str)
@pytest.mark.parametrize("entry", sorted(TOLERANCE_ENTRIES))
def test_bad_tolerance_is_rejected(entry, tol):
    # A nan band once answered False and an infinite one True everywhere.
    for set_ in (Box((1.0, 1.0)), EuclideanBall((0.5, 0.0), 1.0)):
        with pytest.raises(ValueError, match="tolerance must be finite"):
            TOLERANCE_ENTRIES[entry](set_, (0.5, 0.5), tol)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, set_", [(n, c) for n, c, _, _ in CATALOG],
                         ids=[n for n, *_ in CATALOG])
def test_closed_form_polar_stays_in_range(name, set_):
    # The closed forms once squared, powered or summed the raw y and
    # overflowed here; the support function rescales and answers False.
    for t, sign in ((1e200, 1.0), (1e200, -1.0), (1.7e308, 1.0)):
        y = np.full(set_.dim, t)
        y[1] *= sign
        assert closed_form_polar(set_).contains(y) == polar_membership(set_, y)
