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

import homcone.sets
from homcone import (
    Branch,
    CapabilityMissing,
    ConvexSet,
    PsiEvaluator,
    homogenization_polar_membership,
    polar_cone_membership,
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
        with pytest.raises(CapabilityMissing):
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
        assert isinstance(polar_cone_membership(set_, y), bool)
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
    # the set's closed-form kernel, or, where ``_polar`` returns None,
    # sigma_C(y) <= 1 + tol itself.  Checked at every sweep point and on the
    # polar's boundary through it, at tol 0 and 1e-9.
    set_ = entry.make()
    described = set_._polar()
    polar = set_.polar()
    if isinstance(described, ConvexSet):
        assert type(polar) is type(described)
    else:
        assert isinstance(polar, homcone.sets._Polar) and polar.polar() is set_
    for _, y, _ in sweep_queries(set_.dim, np.random.default_rng(71)):
        sigma = set_.support(y)
        points = [y] + ([y / sigma] if 0.0 < sigma < math.inf else [])
        for point in points:
            for tol in (0.0, 1e-9):
                got = polar.contains(point, tol)
                if isinstance(described, ConvexSet):
                    assert got == described.contains(point, tol)
                elif described is None:
                    assert got == (set_.support(point) <= 1.0 + tol)
                else:
                    assert got == described(np.asarray(point, dtype=float), tol)
