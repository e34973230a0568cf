"""Membership in the polar cone of C and in the polar cone of the
homogenization cone; the polar set {sigma_C <= 1} is a set, ``C.polar()``.

The polar cone of C is {y : sigma_C(y) <= 0}, with sigma_C the support
function.  The polar cone of K = cl cone(C x {1}) decomposes disjointly as

    cone(polar set x {-1})  disjoint-union  (polar cone x {0}),

which is also cl cone(polar set x {-1}); membership is the one inequality
sigma_C(y) + s <= 0, which fails for every s > 0 because C contains the origin.

Both cones are closed, so membership under floating point needs a band.  The
polar cone of C is the slice s = 0 of the polar cone of K and is tested as
that slice.  There the band is relative to ||(y, s)||, as the set is a cone,
and the test runs on the exact power-of-2 rescale that brings the largest
entry into [1/2, 1), sized by the pass that validates the query; both sides
are positively homogeneous, and neither sigma_C nor the norm can overflow.
Each function validates its tolerance once (finite and nonnegative,
ValueError otherwise).
"""

from __future__ import annotations

import math

import numpy as np

from .sets import MEMBERSHIP_TOL, _as_query, _as_tolerance


def polar_cone_membership(set_, y, tol=MEMBERSHIP_TOL) -> bool:
    """y belongs to the polar cone iff sigma_C(y) <= tol ||y||, so t y is
    answered alike at every scale t > 0: the polar cone of K at height 0."""
    return homogenization_polar_membership(set_, (y, 0.0), tol)


def homogenization_polar_membership(set_, p, tol=MEMBERSHIP_TOL) -> bool:
    """Membership of (y, s) in the polar cone of K = cl cone(C x {1}).

    True iff sigma_C(y) + s <= tol ||(y, s)||, so (t y, t s) is answered alike
    at every scale t > 0.  No division by s: a height near 0 needs no branch.
    """
    y, s = p
    y, s, e = _as_query(y, set_.dim, s)
    tol = _as_tolerance(tol)
    y, s = np.ldexp(y, -e), math.ldexp(s, -e)
    return set_._support(y) + s <= tol * math.hypot(float(np.linalg.norm(y)), s)
