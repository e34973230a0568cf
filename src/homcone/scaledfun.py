"""Scalar functions of the scaling parameter, driven by a set's projector.

For a fixed query (y, s), ``phi(a) = a^2 * dist(y/a, C)^2`` is the squared
distance from y to the scaled set aC, and ``psi(a) = phi(a) + (a - s)^2`` the
squared distance from (y, s) to the slice aC x {a}.  ``psi`` extends to a = 0
through the recession cone of C; the minimizer of the extension determines the
projection onto the homogenization cone (see :mod:`homcone.homproj`).

``phi`` is convex, nonincreasing, and differentiable with

    phi'(a) = -2 a <P_C(y/a), y/a - P_C(y/a)>  <=  0,

so phi, psi and their derivatives at one a > 0 share one projector call,
kept in the evaluator's memo; where w = y / a leaves the float64 range they
raise OverflowError.  For bounded C the right derivative of psi at 0 has the
closed form -2 (s + sigma_C(y)): one support-function call, no projector call.
"""

from __future__ import annotations

import math

import numpy as np

from .roots import _norm
from .sets import _as_query, _ldexp_or_inf, _scaled


def _phi_prime(alpha, w, p) -> float:
    """-2 alpha <p, w - p> for p = P_C(w); 0, not nan, where <p, w - p> is 0
    and -2 alpha overflows, and -2 (alpha <p, w - p>) where only -2 alpha
    does.  ``np.vdot`` raises no floating-point warning; only where
    <p, w - p> leaves the float range is it taken of p and w - p each scaled
    by the power of 2 that brings its largest entry into [1/2, 1)."""
    r = w - p
    d = float(np.vdot(p, r))
    if math.isfinite(d):
        v = -2.0 * alpha * d if d else -d
        return v if math.isfinite(v) else -2.0 * (alpha * d)
    a = math.frexp(float(np.abs(p).max()))[1]
    b = math.frexp(float(np.abs(r).max()))[1]
    d = float(np.vdot(np.ldexp(p, -a), np.ldexp(r, -b)))
    return _ldexp_or_inf(-2.0 * alpha * d, a + b)


class PsiEvaluator:
    """phi, psi and their derivatives for one set and one query point (y, s).

    The constructor validates (y, s) once; every evaluation then calls the
    set's unchecked kernels on vectors built from that query.  At a = 0,
    ``psi`` needs the recession-cone projector of the set; variants without
    one raise NotImplementedError rather than approximating.

    The one piece of state is a memo of the (alpha, w = y / alpha, P_C(w))
    triples of the last two alphas, read by ``phi``, ``phi_prime``,
    ``psi_prime`` and the solver's answer.  It is one tuple of whole triples,
    replaced in a single assignment and only read for an exact match of
    alpha, so a shared evaluator stays safe across threads: a concurrent call
    can at worst evict a triple, never pair an alpha with another alpha's
    projection.  Stored vectors are shared and must not be modified.
    """

    def __init__(self, set_, y, s):
        self.set = set_
        self.y, self.s, _ = _as_query(y, set_.dim, s)
        self._memo = ()

    @classmethod
    def _of_valid(cls, set_, y, s):
        """An evaluator on a query (y, s) its caller has already validated."""
        ev = cls.__new__(cls)
        ev.set, ev.y, ev.s, ev._memo = set_, y, s, ()
        return ev

    def _at(self, alpha):
        """``(alpha, w, P_C(w))`` for w = y / alpha, from the memo where it holds
        this alpha: ValueError for an alpha that is not positive, and
        OverflowError, with no projector call, where w is out of range."""
        alpha = float(alpha)
        if not alpha > 0.0:
            raise ValueError("the scaling parameter must be positive")
        for entry in self._memo:
            if entry[0] == alpha:
                return entry
        with np.errstate(over="raise"):
            try:
                w = self.y / alpha
            except FloatingPointError:
                raise OverflowError("the scaling parameter puts y / alpha beyond the "
                                    "float64 range") from None
        entry = alpha, w, self.set._project(w)
        self._memo = (entry,) + self._memo[:1]
        return entry

    def phi(self, alpha) -> float:
        """Squared distance from y to alpha * C; nonnegative, nonincreasing."""
        alpha, w, p = self._at(alpha)
        t = alpha * _norm(w - p)
        return t * t

    def phi_prime(self, alpha) -> float:
        """Analytic derivative of phi; always <= 0."""
        return _phi_prime(*self._at(alpha))

    def psi(self, alpha) -> float:
        """phi(alpha) + (alpha - s)^2 for alpha > 0, recession form at 0."""
        alpha = float(alpha)
        if alpha < 0.0:
            raise ValueError("the scaling parameter must be nonnegative")
        if alpha == 0.0:
            r = self.set._recession_distance(self.y)
            return r * r + self.s * self.s
        d = alpha - self.s
        return self.phi(alpha) + d * d

    def psi_prime(self, alpha) -> float:
        """2 (alpha - s) + phi'(alpha); continuous, nondecreasing on (0, inf).

        Out of the float range it is taken at alpha and s scaled by the power
        of 2 that brings the larger into [1/2, 1), with w = y / alpha and
        P_C(w) as they were, and scaled back: inf of its sign, not nan."""
        alpha, w, p = self._at(alpha)
        d = 2.0 * (alpha - self.s) + _phi_prime(alpha, w, p)
        if math.isfinite(d):
            return d
        k = math.frexp(max(alpha, abs(self.s)))[1]
        a = math.ldexp(alpha, -k)
        return _ldexp_or_inf(2.0 * (a - math.ldexp(self.s, -k)) + _phi_prime(a, w, p), k)

    def psi_prime_plus_zero(self) -> float:
        """Right derivative of psi at 0 for a bounded set: -2 (s + sigma_C(y)).

        As a -> 0+, <P_C(y/a), y> tends to sigma_C(y) and a ||P_C(y/a)||^2 to
        0.  A nonnegative value certifies alpha* = 0, the recession branch:
        (y, s) then lies in the polar cone of K.  Unbounded sets raise
        NotImplementedError, since their sigma_C is +inf off the polar of the
        recession cone.  sigma_C is taken on the power-of-2 rescale of y, as
        :meth:`~homcone.sets.ConvexSet.support` does, so that no inner
        product inside it leaves the float range.
        """
        if not self.set.bounded:
            raise NotImplementedError("psi'(0+) in closed form needs a bounded set")
        return -2.0 * (self.s + _scaled(self.set._support, self.y))
