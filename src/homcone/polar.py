"""Polar sets, polar cones, and membership in the polar of the homogenization cone.

The polar set of C is {y : sigma_C(y) <= 1} and the polar cone is
{y : sigma_C(y) <= 0}, with sigma_C the support function.  The polar cone of
K = cl cone(C x {1}) decomposes disjointly as

    cone(polar set x {-1})  disjoint-union  (polar cone x {0}),

which is also cl cone(polar set x {-1}); membership is the one inequality
sigma_C(y) + s <= 0, which fails for every s > 0 because C contains the origin.

All membership checks carry an explicit tolerance band: every polar object is
closed, so boundary classification under floating point needs one.  The
polar cone of C is the slice s = 0 of the polar cone of K and is tested as
that slice.  There the band is relative to ||(y, s)||, as the set is a cone,
and the test runs on the exact power-of-2 rescale that brings the largest
entry into [1/2, 1), sized by the pass that validates the query; both sides
are positively homogeneous, and neither sigma_C nor the norm can overflow.
Each public function validates its tolerance once (finite and nonnegative,
ValueError otherwise).

The closed form of each set's polar lives on the set, as its ``_polar``
kernel (see :mod:`homcone.sets`), which returns one value: the cataloged
polar set, a membership kernel, or None where the polar is just
{sigma_C <= 1 + tol}; :func:`closed_form_polar` wraps that value and names
no set class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .sets import MEMBERSHIP_TOL, ConvexSet, _as_query, _as_tolerance, as_vector


def polar_membership(set_, y, tol=MEMBERSHIP_TOL) -> bool:
    """y belongs to the polar set iff sigma_C(y) <= 1 (+ tol)."""
    tol = _as_tolerance(tol)
    return set_.support(y) <= 1.0 + tol


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


@dataclass
class PolarDescription:
    """Closed-form description of the polar set of ``source``.

    When the polar is itself a cataloged set, ``polar_set`` carries that
    descriptor and ``predicate`` is its membership kernel ``_contains``.
    Otherwise ``predicate(y, tol)`` is the source's own closed-form kernel,
    which agrees with the sigma-based oracle up to the boundary band, or
    None where the polar is just {sigma_C <= 1 + tol}, which
    :func:`polar_membership` answers.  :meth:`contains` validates y against
    the source's dimension and tol once, so the predicate always receives a
    finite float64 vector of that length.
    """

    source: ConvexSet
    predicate: Optional[Callable]
    polar_set: Optional[ConvexSet] = None

    def contains(self, y, tol=MEMBERSHIP_TOL) -> bool:
        if self.predicate is None:
            return polar_membership(self.source, y, tol)
        y = as_vector(y, self.source.dim)
        return bool(self.predicate(y, _as_tolerance(tol)))


def closed_form_polar(set_) -> PolarDescription:
    """Cataloged closed form of the polar set, from the set's ``_polar``
    kernel: CapabilityMissing for a set without one, TypeError for an object
    that is not a ConvexSet."""
    if not isinstance(set_, ConvexSet):
        raise TypeError(f"{type(set_).__name__} is not a ConvexSet")
    polar = set_._polar()
    if isinstance(polar, ConvexSet):
        return PolarDescription(set_, polar._contains, polar)
    return PolarDescription(set_, polar)
