"""Contracts over the whole catalog (tests/set_catalog.py).

The catalog holds every spec type, its flags describe its sets, and every
public method of every set, and P_K on both routes, answers at every query
scale from 1e-300 to the float64 limit with no floating-point warning.  The
other contracts over the catalog: the projector laws and the agreement of
the two routes in tests/test_homproj.py, and the exact breakpoint roots in
tests/test_breakpoints.py.
"""

import math

import numpy as np
import pytest

import homcone
import homcone.sets
from homcone import (
    Branch,
    ConvexSet,
    PsiEvaluator,
    homogenization_polar_membership,
    project_homogenization,
)
from set_catalog import CATALOG, params


def test_the_catalog_holds_every_spec_type_under_unique_ids():
    assert {e.spec_type for e in CATALOG} - {None} == set(homcone.sets._SPEC_BUILDERS)
    assert len({e.id for e in CATALOG}) == len(CATALOG)


def assert_flags(entry, set_):
    assert set_.bounded == entry.bounded
    y = np.full(set_.dim, 3.0)
    if entry.projectable:
        assert set_.project(y).shape == (set_.dim,)
    else:
        with pytest.raises(NotImplementedError):
            set_.project(y)
    assert (set_._project_cone(y, 0.5) is not None) == entry.kernel


#: 40 scales log-uniform over 1e-300..1e308, then the float64 limit.
SWEEP_SCALES = (*np.logspace(-300, 308, 40).tolist(), 1.7e308)


def sweep_queries(dim, rng):
    """(t, y, s): a query of largest entry at most t at every sweep scale."""
    for t in SWEEP_SCALES:
        y = rng.uniform(-1.0, 1.0, dim)
        y[rng.integers(dim)] = rng.choice((-1.0, 1.0))
        yield t, t * y, t * rng.uniform(-1.0, 1.0)


def assert_answer(set_, v, route):
    """P_K(v) by the route is finite, alpha* >= 0 is the height of the point,
    and alpha* is 0 on branch recession and nowhere else but where it
    underflows, which 2^600 v shows."""
    res = project_homogenization(set_, v, **route)
    assert math.isfinite(res.alpha_star) and res.alpha_star >= 0.0
    assert np.isfinite(res.point.y).all()
    assert res.point.s == res.alpha_star
    assert (res.branch is Branch.RECESSION) <= (res.alpha_star == 0.0)
    if res.alpha_star == 0.0 and res.branch is Branch.CONE_INTERIOR:
        y, s = v
        up = project_homogenization(set_, (np.ldexp(y, 600), math.ldexp(s, 600)),
                                    **route)
        assert 0.0 < up.alpha_star < 2.0 ** (600 - 1074)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", params(CATALOG, "sweep"))
def test_every_method_answers_at_every_scale(entry):
    # The entry's flags describe the set.  Then an answer beyond the float64
    # range raises OverflowError, as README documents; only queries at the
    # limit may meet one.
    set_ = entry.make()
    assert_flags(entry, set_)
    recession = entry.projectable or entry.bounded
    # Without a kernel, both routes are the generic solver.
    routes = ({}, {"force_iterative": True}) if entry.kernel else ({},)
    polar = set_.polar()
    for t, y, s in sweep_queries(set_.dim, np.random.default_rng(71)):
        assert isinstance(set_.contains(y), bool)
        assert not math.isnan(set_.support(y))
        assert isinstance(polar.contains(y), bool)
        assert isinstance(homogenization_polar_membership(set_, (y, 0.0)), bool)
        assert isinstance(homogenization_polar_membership(set_, (y, s)), bool)
        if recession:
            assert np.isfinite(set_.project_recession(y)).all()
            assert math.isfinite(set_.recession_distance(y)) or t > 1e307
        if not entry.projectable:
            continue
        try:
            assert np.isfinite(set_.project(y)).all()
            if t < 1e307:
                assert math.isfinite(PsiEvaluator(set_, y, s).psi_prime(t))
            for route in routes:
                assert_answer(set_, (y, s), route)
        except OverflowError as exc:
            assert t > 1e307 and "float64 range" in str(exc)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", params(CATALOG, "polar"))
def test_closed_form_polar_answers_by_its_polar_set_or_by_sigma(entry):
    # One membership rule per polar set: a cataloged polar set's own test,
    # or, where ``_polar`` returns None, the set's ``_polar_contains``: its
    # closed form, or sigma_C(y) <= 1 + tol itself where it keeps the
    # default.  Checked at every sweep point and on the polar's boundary
    # through it, at tol 0 and 1e-9.
    set_ = entry.make()
    described = set_._polar()
    polar = set_.polar()
    if described is None:
        assert isinstance(polar, homcone.sets._Polar) and polar.polar() is set_
    else:
        assert type(polar) is type(described)
    by_sigma = type(set_)._polar_contains is ConvexSet._polar_contains
    for _, y, _ in sweep_queries(set_.dim, np.random.default_rng(71)):
        sigma = set_.support(y)
        points = [y] + ([y / sigma] if 0.0 < sigma < math.inf else [])
        for point in points:
            for tol in (0.0, 1e-9):
                got = polar.contains(point, tol)
                if described is not None:
                    assert got == described.contains(point, tol)
                elif by_sigma:
                    assert got == (set_.support(point) <= 1.0 + tol)
                else:
                    assert got == set_._polar_contains(np.asarray(point, dtype=float), tol)


@pytest.mark.parametrize("entry", params(CATALOG, "polar"))
def test_polar_hook_returns_a_set_or_none(entry):
    # ``_polar()`` names the cataloged polar set, or None for the view.
    described = entry.make()._polar()
    assert described is None or isinstance(described, ConvexSet)


#: The names a set's repr is evaluated with: homcone's, and inf for p = inf.
REPR_NAMESPACE = {**vars(homcone), "inf": math.inf}


def public_parameters(set_):
    return {k: v for k, v in vars(set_).items() if not k.startswith("_")}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", params([e for e in CATALOG if e.spec_type], "repr"))
def test_repr_rebuilds_the_set(entry):
    # eval(repr(C)) is a set of C's type with C's parameters, bit for bit,
    # and so is the repr of C's polar, a cataloged set or a view.
    set_ = entry.make()
    for built in (set_, set_.polar()):
        rebuilt = eval(repr(built), REPR_NAMESPACE)
        assert type(rebuilt) is type(built)
        want, got = public_parameters(built), public_parameters(rebuilt)
        assert got.keys() == want.keys()
        for key, value in want.items():
            np.testing.assert_array_equal(got[key], value, err_msg=key, strict=True)
