"""Projection onto the homogenization cone K = cl cone(C x {1}).

For a query (y, s), ``phi(a) = a^2 dist(y/a, C)^2`` is the squared distance
from y to the scaled set aC, and ``psi(a) = phi(a) + (a - s)^2`` the squared
distance from (y, s) to the slice aC x {a}; psi extends to a = 0 through the
recession cone of C.  phi is convex, nonincreasing and differentiable, with

    phi'(a) = -2 a <P_C(y/a), y/a - P_C(y/a)>  <=  0,

so phi, psi and their derivatives at one a > 0 share one projector call
(:class:`PsiEvaluator`).  The unique minimizer alpha* >= 0 of psi
determines the projection:

    P_K(y, s) = (P_rec(y), 0)                       if alpha* = 0,
                (alpha* P_C(y / alpha*), alpha*)    if alpha* > 0.

alpha* is the root of the monotone derivative psi' on the a priori bracket
[0, s+ + ||(y, s)||], found by a safeguarded Brent iteration
(:mod:`homcone.roots`), the library's one root loop on psi', to a tolerance
relative to alpha*; for bounded sets the support function decides the
recession branch without a projector call.  Every step scales with the
query, so P_K(t v) = t P_K(v) holds to the tolerance at every scale.  A set
whose cone has an exact projector answers through its ``_project_cone``
kernel instead, with no psi' iteration (:mod:`homcone.sets` documents the
kernels); any set without one takes the solver, and ``force_iterative``
selects it on every set.  Without a kernel, a query in K takes the
membership shortcut :func:`_member`, unless ``force_iterative``, and the
solver's answer reads P_C(y / alpha*) from the evaluator's memo.  Each
route yields (alpha*, x, branch) with its iterations and trace, and one
site, which names no set class, scales them back and builds the result.
The paper's bisection, :func:`homcone.paper.bisection_projection`, shares
the shortcut, the answer and the site.

Each entry point validates its query in one call,
:func:`homcone.sets._as_query` (a finite real y of the set's dimension and a
finite real height s), which also sizes and rescales it: one whose size
max(||y||, |s|) lies beyond 2^(+-500) comes back on its exact power-of-2
rescale, ahead of the kernel and the solver alike, so neither forms a
squared norm that overflows or underflows, and with the ||y|| the solver's
bracket and psi'(0+) reuse.  Everything after that call runs the sets'
unchecked kernels (see :mod:`homcone.sets`); on the kernel route it reads
the :class:`~homcone.sets.Branch` members from names bound once and
compares floats instead of calling the builtin ``max``.

The polar cone of K is cl cone(C° x {-1}), with C° = {sigma_C <= 1} the
polar set (``ConvexSet.polar``): (y, s) belongs to it iff sigma_C(y) + s <= 0,
which fails for every s > 0 because C contains the origin.  Its slice at
s = 0 is the polar cone of C (:func:`homogenization_polar_membership`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .roots import _ROOT_RTOL, _ldexp_or_inf, _norm, brent_root
from .sets import (_CONE, _IN_K, _RECESSION, MEMBERSHIP_TOL, Branch, _as_float,
                   _as_query, _as_tolerance, _ldexp_array)

#: Queries whose size max(||y||, |s|) has a binary exponent beyond this are
#: projected on an exact power-of-2 rescale, so that squared norms neither
#: overflow nor underflow; within it answers are computed as given.
_SAFE_EXPONENT = 500


class ConePoint(NamedTuple):
    """A point (y, s) of X x R, the argument of the cone projector."""

    y: np.ndarray
    s: float


class TraceRow(NamedTuple):
    """One step of a root search on psi'; a trace is a tuple of these.

    On the Brent path the first row is the a priori bracket (no midpoint) and
    each later row one trial point, in ``mid``, inside that step's bracket.
    The paper's bisection (:mod:`homcone.paper`) records a midpoint only on
    its bisection steps, not on its bracket moves.
    """

    n: int
    alpha: float
    mid: Optional[float]
    beta: float
    dpsi_alpha: float
    dpsi_mid: Optional[float]
    dpsi_beta: float


@dataclass(slots=True)
class ProjectionResult:
    alpha_star: float
    point: ConePoint
    branch: Branch
    iterations: int
    trace: Optional[tuple] = None


# ---------------------------------------------------------------------------
# psi and its derivatives
# ---------------------------------------------------------------------------

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
        self.y, self.s, _, self._n = _as_query(y, set_.dim, s)
        self._memo = ()

    @classmethod
    def _of_valid(cls, set_, y, s, n):
        """An evaluator on a query (y, s) its caller has already validated,
        with n = ||y|| as validation took it."""
        ev = cls.__new__(cls)
        ev.set, ev.y, ev.s, ev._n, ev._memo = set_, y, s, n, ()
        return ev

    def _at(self, alpha):
        """``(alpha, w, P_C(w))`` for w = y / alpha, from the memo where it holds
        this alpha: ValueError for an alpha that is not positive or not
        finite, and OverflowError, with no projector call, where w is out of
        range."""
        alpha = float(alpha)
        if not 0.0 < alpha < math.inf:
            raise ValueError("the scaling parameter must be "
                             + ("finite" if alpha > 0.0 else "positive"))
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
        recession cone.  sigma_C is taken on the power-of-2 rescale of y that
        brings the norm validation took (the largest entry where it
        overflowed) into [1/2, 1), so that no inner product inside it leaves
        the float range.
        """
        if not self.set.bounded:
            raise NotImplementedError("psi'(0+) in closed form needs a bounded set")
        y, n = self.y, self._n
        e = math.frexp(n if n < math.inf else float(np.abs(y).max()))[1]
        return -2.0 * (self.s + _ldexp_or_inf(self.set._support(np.ldexp(y, -e)), e))


# ---------------------------------------------------------------------------
# Root search on psi'
# ---------------------------------------------------------------------------

def _check_solver_args(eps, max_iter) -> float:
    """eps as the float it is checked as: ValueError for an eps that is not a
    positive finite number, or a max_iter that is not an integer (a Python
    or numpy one, not a bool) of at least 1."""
    if (type(eps) is float and 0.0 < eps < math.inf
            and type(max_iter) is int and max_iter >= 1):
        return eps
    eps = _as_float(eps)
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    # type() first, which also rejects a bool: isinstance against np.integer
    # is slow next to a whole kernel query.
    if type(max_iter) is not int and not isinstance(max_iter, np.integer):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    return eps


def _alpha_star(ev, scale, eps, max_iter, rows):
    """alpha* by Brent's method on psi' over [0, s+ + scale], scale = ||(y, s)||.

    The bracket holds because (alpha* - s)^2 <= psi(alpha*) <= psi(0) <=
    scale^2.  For bounded sets the left end is 0 with psi'(0+) from the
    support function; unbounded sets start from psi' at 1e-12 scale.  A
    nonnegative psi' at the left end certifies the recession branch.  The
    search stops when the bracket is narrower than ``eps`` alpha, with
    ``eps`` floored at ``_ROOT_RTOL`` as below a few ulps the bracket can no
    longer shrink, and returns the best iterate.  Returns
    ``(alpha_star, psi' evaluations)``; when ``rows`` is a list, one TraceRow
    per step is appended to it.
    """
    if scale == 0.0:
        return 0.0, 0
    psi_prime = ev.psi_prime
    if ev.set.bounded:
        lo, f_lo, calls = 0.0, ev.psi_prime_plus_zero(), 0
    else:
        lo = 1e-12 * scale
        f_lo, calls = psi_prime(lo), 1
    if f_lo >= 0.0:
        return 0.0, calls
    hi = max(ev.s, 0.0) + scale
    f_hi = psi_prime(hi)
    calls += 1
    if rows is not None:
        rows.append(TraceRow(1, lo, None, hi, f_lo, None, f_hi))
        psi_prime = _recorded(psi_prime, rows, lo, hi, f_lo, f_hi)
    if f_hi <= 0.0:
        # Only roundoff puts the root at or past the a priori bound.
        return hi, calls
    return brent_root(psi_prime, lo, hi, f_lo, f_hi, 0.0, max(eps, _ROOT_RTOL),
                      max_iter, calls)


def _recorded(psi_prime, rows, lo, hi, f_lo, f_hi):
    """psi_prime that appends a TraceRow per call.  psi' is monotone, so the
    sign of each value moves one end of the bracket."""
    def step(alpha):
        nonlocal lo, hi, f_lo, f_hi
        d = psi_prime(alpha)
        rows.append(TraceRow(len(rows) + 1, lo, alpha, hi, f_lo, d, f_hi))
        if d < 0.0:
            lo, f_lo = alpha, d
        else:
            hi, f_hi = alpha, d
        return d

    return step


# ---------------------------------------------------------------------------
# General projection
# ---------------------------------------------------------------------------

def _member(set_, y, s, scale):
    """``(alpha*, x, ALREADY_IN_K)`` for a query in K, as a kernel answers,
    else None: rays over C or, for heights within 1e-12 scale = ||(y, s)||
    of 0, recession directions, to MEMBERSHIP_TOL."""
    height_tol = 1e-12 * scale
    if s > height_tol:
        inside = set_._contains(y / s, MEMBERSHIP_TOL)
    else:
        inside = s >= -height_tol and set_._recession_distance(y) <= MEMBERSHIP_TOL * scale
    return (s if s > 0.0 else 0.0, y.copy(), _IN_K) if inside else None


def project_homogenization(set_, p, eps=1e-6, max_iter=200, force_iterative=False,
                           keep_trace=False) -> ProjectionResult:
    """Project (y, s) onto the homogenization cone of the set.

    The query is validated in one pass, which also sizes it: one whose size
    max(||y||, |s|) lies beyond 2^(+-500) is projected on its exact
    power-of-2 rescale, and the answer and trace are scaled back.  The set's
    ``_project_cone`` kernel answers exactly where it has one, with
    ``iterations`` 0; where it returns None alpha* is solved for by Brent's
    method on psi', with ``eps`` relative to alpha* and ``iterations`` the
    psi' evaluations, at most ``max_iter``.  ``force_iterative`` bypasses
    the kernel and the membership shortcut.  An ``eps`` that is not positive
    and finite, and a ``max_iter`` that is not an integer of at least 1, are
    a ValueError before any work.
    """
    eps = _check_solver_args(eps, max_iter)
    y, s = p
    y, s, e, n = _as_query(y, set_.dim, s, _SAFE_EXPONENT)
    found = None if force_iterative else (set_._project_cone(y, s)
                                          or _member(set_, y, s, math.hypot(n, s)))
    if found is not None:
        return _result(found, 0, None, e)
    ev = PsiEvaluator._of_valid(set_, y, s, n)
    rows = [] if keep_trace else None
    alpha_star, iterations = _alpha_star(ev, math.hypot(n, s), eps, max_iter, rows)
    return _result(_answer(ev, alpha_star), iterations,
                   None if rows is None else tuple(rows), e)


def _answer(ev, alpha_star):
    """``(alpha*, x, branch)`` for the minimizer alpha* of ev's psi."""
    if alpha_star == 0.0:
        return 0.0, ev.set._project_recession(ev.y), _RECESSION
    # alpha* is almost always a point psi' was just evaluated at: the memo's.
    return alpha_star, alpha_star * ev._at(alpha_star)[2], _CONE


def _result(found, iterations, trace, e) -> ProjectionResult:
    """The one site that builds a ProjectionResult: the (alpha*, x, branch)
    found for a query that validation rescaled by 2^-e, scaled back."""
    alpha_star, x, branch = found
    if e:
        # P_K and psi' are positively homogeneous and the rescale is exact.
        alpha_star, x = _up(alpha_star, e), _ldexp_array(x, e)
        if trace is not None:
            trace = tuple(TraceRow(r.n, *(None if v is None else _up(v, e)
                                          for v in r[1:])) for r in trace)
    # tuple.__new__ skips the NamedTuple's Python-level constructor.
    return ProjectionResult(alpha_star, tuple.__new__(ConePoint, (x, alpha_star)),
                            branch, iterations, trace)


def _up(v, e) -> float:
    """v 2^e; OverflowError where it exceeds the float64 range."""
    try:
        return math.ldexp(v, e)
    except OverflowError:
        raise OverflowError("the projection exceeds the float64 range") from None


# ---------------------------------------------------------------------------
# Polar cone
# ---------------------------------------------------------------------------

def homogenization_polar_membership(set_, p, tol=MEMBERSHIP_TOL) -> bool:
    """Membership of (y, s) in the polar cone of K; at s = 0, of y in the
    polar cone of C.

    True iff sigma_C(y) + s <= tol ||(y, s)||, a band relative to the query,
    as the set is a cone, so (t y, t s) is answered alike at every scale
    t > 0.  No division by s: a height near 0 needs no branch.  Both sides
    are taken on the exact power-of-2 rescale of the query, where neither
    sigma_C nor the norm can overflow.  A tolerance that is not finite and
    nonnegative is a ValueError.
    """
    y, s = p
    y, s, _, n = _as_query(y, set_.dim, s, 0)
    tol = _as_tolerance(tol)
    return set_._support(y) + s <= tol * math.hypot(n, s)
