"""Polar sets, polar cones, and membership in the polar of the homogenization cone.

The polar set of C is {y : sigma_C(y) <= 1} and the polar cone is
{y : sigma_C(y) <= 0}, with sigma_C the support function.  The polar cone of
K = cl cone(C x {1}) decomposes disjointly as

    cone(polar set x {-1})  disjoint-union  (polar cone x {0}),

which is also cl cone(polar set x {-1}); membership is the one inequality
sigma_C(y) + s <= 0, which fails for every s > 0 because C contains the origin.

All membership checks carry an explicit tolerance band: every polar object is
closed, so boundary classification under floating point needs one.  On the
polar cone of K the band is relative to ||(y, s)||, as that set is a cone.
Each public function validates its tolerance once (finite and nonnegative,
ValueError otherwise).

The closed form of each set's polar lives on the set, as its ``_polar``
kernel (see :mod:`homcone.sets`); :func:`closed_form_polar` wraps that kernel
and names no set class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NoClosedFormAvailable
from .sets import MEMBERSHIP_TOL, ConvexSet, _as_tolerance, as_height, as_vector


def polar_membership(set_, y, tol=MEMBERSHIP_TOL) -> bool:
    """y belongs to the polar set iff sigma_C(y) <= 1 (+ tol)."""
    tol = _as_tolerance(tol)
    return set_.support(y) <= 1.0 + tol


def polar_cone_membership(set_, y, tol=MEMBERSHIP_TOL) -> bool:
    """y belongs to the polar cone iff sigma_C(y) <= 0 (+ tol)."""
    tol = _as_tolerance(tol)
    return set_.support(y) <= tol


def homogenization_polar_membership(set_, p, tol=MEMBERSHIP_TOL) -> bool:
    """Membership of (y, s) in the polar cone of K = cl cone(C x {1}).

    True iff sigma_C(y) + s <= tol ||(y, s)||, so (t y, t s) is answered alike
    at every scale t > 0.  No division by s: a height near 0 needs no branch.
    """
    y, s = p
    y = as_vector(y, set_.dim)
    s = as_height(s)
    tol = _as_tolerance(tol)
    # Both sides are positively homogeneous.  Scaling (y, s) to unit size by a
    # power of 2 is exact and keeps sigma_C and the norm from overflowing.
    e = math.frexp(max(float(np.max(np.abs(y))), abs(s)))[1]
    y, s = np.ldexp(y, -e), math.ldexp(s, -e)
    return set_._support(y) + s <= tol * math.hypot(float(np.linalg.norm(y)), s)


@dataclass
class PolarDescription:
    """Closed-form description of the polar set of ``source``.

    ``predicate(y, tol)`` is the source's ``_polar`` membership kernel and
    agrees with the sigma-based oracle up to the boundary band.
    :meth:`contains` validates y against the source's dimension and tol once,
    so the predicate always receives a finite float64 vector of that length.
    When the polar is itself a cataloged set, ``polar_set`` carries that
    descriptor as well and the predicate is its membership kernel.
    """

    source: ConvexSet
    predicate: Callable
    polar_set: Optional[ConvexSet] = None

    def contains(self, y, tol=MEMBERSHIP_TOL) -> bool:
        y = as_vector(y, self.source.dim)
        return bool(self.predicate(y, _as_tolerance(tol)))


def closed_form_polar(set_) -> PolarDescription:
    """Cataloged closed form of the polar set, from the set's ``_polar``
    kernel; NoClosedFormAvailable for a set without one."""
    if not isinstance(set_, ConvexSet):
        raise NoClosedFormAvailable(f"{type(set_).__name__} is not a ConvexSet")
    return PolarDescription(set_, *set_._polar())
