"""Polar sets, polar cones, and membership in the polar of the homogenization cone.

The polar set of C is {y : sigma_C(y) <= 1} and the polar cone is
{y : sigma_C(y) <= 0}, with sigma_C the support function.  The polar cone of
K = cl cone(C x {1}) decomposes disjointly as

    cone(polar set x {-1})  disjoint-union  (polar cone x {0}),

which is also cl cone(polar set x {-1}); membership reduces to a support
function evaluation at y/|s| (s < 0) or at y (s = 0), and fails outright for
s > 0.

All membership checks carry an explicit tolerance band: every polar object is
closed, so boundary classification under floating point needs one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NoClosedFormAvailable
from .sets import (
    BallPen,
    BallPlusHalfAxisStrip,
    Box,
    ConvexSet,
    Ellipsoid,
    EuclideanBall,
    Hyperbolic,
    L1Ball,
    PBall,
    ShiftedUnitBall,
    Simplex,
    as_height,
    as_vector,
)

DEFAULT_TOL = 1e-9


def polar_membership(set_, y, tol=DEFAULT_TOL) -> bool:
    """y belongs to the polar set iff sigma_C(y) <= 1 (+ tol)."""
    return set_.support(y) <= 1.0 + tol


def polar_cone_membership(set_, y, tol=DEFAULT_TOL) -> bool:
    """y belongs to the polar cone iff sigma_C(y) <= 0 (+ tol)."""
    return set_.support(y) <= tol


def homogenization_polar_membership(set_, p, tol=DEFAULT_TOL) -> bool:
    """Membership of (y, s) in the polar cone of K = cl cone(C x {1}).

    True iff s < 0 and y/|s| lies in the polar set, or s = 0 (within tol) and
    y lies in the polar cone.  Any s > tol fails immediately.
    """
    y, s = p
    y = as_vector(y, set_.dim)
    s = as_height(s)
    if s < 0.0 and set_._support(y / (-s)) <= 1.0 + tol:
        return True
    return abs(s) <= tol and set_._support(y) <= tol


@dataclass
class PolarDescription:
    """Closed-form description of the polar set of ``source``.

    ``predicate(y, tol)`` implements the printed closed form and agrees with
    the sigma-based oracle up to the boundary band.  :meth:`contains`
    validates y once against the source's dimension, so the predicate always
    receives a finite float64 vector of that length.  When the polar is itself
    a cataloged set, ``polar_set`` carries that descriptor as well and the
    predicate is its membership kernel.
    """

    source: ConvexSet
    predicate: Callable
    polar_set: Optional[ConvexSet] = None
    label: str = field(default="")

    def contains(self, y, tol=DEFAULT_TOL) -> bool:
        return bool(self.predicate(as_vector(y, self.source.dim), tol))


def closed_form_polar(set_) -> PolarDescription:
    """Cataloged closed form of the polar set; NoClosedFormAvailable otherwise."""

    if isinstance(set_, EuclideanBall):
        if not np.any(set_.center):
            dual = EuclideanBall(np.zeros(set_.dim), 1.0 / set_.radius)
            return PolarDescription(set_, dual._contains, dual, "ball of radius 1/gamma")

        z, g = set_.center, set_.radius

        def pred(y, tol):
            return g * float(np.linalg.norm(y)) + float(z @ y) <= 1.0 + tol

        return PolarDescription(set_, pred, None, "gamma ||y|| + <z, y> <= 1")

    if isinstance(set_, Box):
        b = set_.halfwidths

        def pred(y, tol):
            return float(b @ np.abs(y)) <= 1.0 + tol

        polar_set = None
        if set_.dim >= 1 and np.all(b == b[0]) and b[0] > 0.0:
            polar_set = L1Ball(1.0 / b[0], set_.dim)
        return PolarDescription(set_, pred, polar_set, "weighted l1 ball")

    if isinstance(set_, L1Ball):
        dual = Box(np.full(set_.dim, 1.0 / set_.radius))
        return PolarDescription(set_, dual._contains, dual, "box of halfwidth 1/radius")

    if isinstance(set_, PBall):
        if math.isinf(set_.p):
            dual = L1Ball(1.0 / set_.radius, set_.dim)
        else:
            dual = PBall(set_.q, 1.0 / set_.radius, set_.dim)
        return PolarDescription(
            set_, dual._contains, dual, "dual-norm ball of radius 1/radius"
        )

    if isinstance(set_, Ellipsoid):
        w, v = set_._evals, set_._evecs
        q_inv = v @ np.diag(1.0 / w) @ v.T
        dual = Ellipsoid(0.5 * (q_inv + q_inv.T))
        return PolarDescription(
            set_, dual._contains, dual, "ellipsoid of the inverse matrix"
        )

    if isinstance(set_, Simplex):

        def pred(y, tol):
            return bool(np.max(y) <= 1.0 + tol)

        return PolarDescription(set_, pred, None, "each coordinate at most 1")

    if isinstance(set_, ShiftedUnitBall):
        d = set_.d

        def pred(y, tol):
            t = float(d @ y)
            r = y - t * d
            return float(r @ r) <= 1.0 + 2.0 * t + tol

        return PolarDescription(
            set_, pred, None, "||component orthogonal to d||^2 <= 1 + 2 <d, y>"
        )

    if isinstance(set_, BallPen):
        d = set_.direction

        def pred(y, tol):
            return float(np.linalg.norm(y)) <= 1.0 + tol and float(d @ y) <= tol

        return PolarDescription(set_, pred, None, "unit ball cut by <d, y> <= 0")

    if isinstance(set_, BallPlusHalfAxisStrip):

        def pred(y, tol):
            return float(np.linalg.norm(y)) <= 1.0 + tol and y[1] <= tol

        return PolarDescription(set_, pred, None, "lower half of the unit disc")

    if isinstance(set_, Hyperbolic):
        # Region between the two diagonal rays, capped by y1 <= 1 or the
        # parabola 1 + y2^2 <= 2 y1 (the two conditions overlap on the
        # boundary arc, matching the convex hull of {0} and the parabola
        # epigraph).
        def pred(y, tol):
            if abs(y[1]) > y[0] + tol:
                return False
            return y[0] <= 1.0 + tol or 1.0 + y[1] * y[1] <= 2.0 * y[0] + tol

        return PolarDescription(
            set_, pred, None, "|y2| <= y1 and (y1 <= 1 or 1 + y2^2 <= 2 y1)"
        )

    raise NoClosedFormAvailable(
        f"no cataloged closed-form polar for {type(set_).__name__}"
    )
