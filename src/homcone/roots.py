"""The scalar root solves of the library: pure functions of floats and
arrays that name no set class.

The paper turns P_K into one-dimensional root solves that need only P_C.
:mod:`homcone.homproj` locates alpha* on psi' by Brent's method
(:func:`brent_root`); the cone kernels and projectors of
:mod:`homcone.sets` end in the root of a piecewise-linear function over its
breakpoints (:func:`_breakpoint_root`: the box, l1 ball and simplex) or in
the Newton solve of a secular equation (:func:`_secular_root`: the
ellipsoid), which projects onto a quadratic cone (:func:`_quadratic_cone`,
in 2-D :func:`_plane_cone`: the ellipsoid and the ball off the origin).
Both have a 2-entry form as straight-line code on Python floats, bit for
bit with their list cores: :func:`_plane_cone`, and :func:`_pair_root`,
the largest piece root on two breakpoints, which the 2-entry box, l1 and
simplex kernels call on their own floats (a numpy call costs more there
than the arithmetic it does).  No
core validates its input; each states the contract its callers keep.  A
solve out of its step budget raises :class:`MaxIterationsExceeded`, defined
here, so that the module imports nothing from the package; the one other
loop that raises it is the paper's reference bisection, worked-example code
in :mod:`homcone.paper`.  The float helpers that the cores and the sets
share live here too: the scale-safe norm :func:`_norm`, :func:`_ldexp_or_inf`
and the off-centre ball's exact radius gap :func:`_radius_gap`.
"""

from __future__ import annotations

import math

import numpy as np


class MaxIterationsExceeded(Exception):
    """A root search (the reference bisection, Brent's method or the secular
    Newton solve) did not converge within its step budget."""


#: The relative step that ends the secular Newton solve (:func:`_secular_root`,
#: :func:`_plane_cone`), also the floor of the alpha* tolerance in
#: :mod:`homcone.homproj`, and the most evaluations that solve may take.
_ROOT_RTOL = 4.0 * np.finfo(float).eps
_ROOT_MAX_STEPS = 100

#: :func:`_norm` rescales below this norm, where the square is below 2^-1000.
_NORM_FLOOR = 2.0 ** -500

#: Up to this many entries the work runs on Python floats, where numpy's
#: cost per call outweighs its cost per entry.  Its users: here :func:`_norm`,
#: :func:`_breakpoint_root` and :func:`_secular_root`; in :mod:`homcone.sets`,
#: which imports it, the query validation ``_as_query`` (which takes
#: :func:`_norm`'s hypot inline), ``_simplex_cone``, the cone kernels of
#: ``Box`` and ``Ellipsoid``, the halfwidth list ``Box`` stores, and the
#: 2-entry paths of the box, l1, simplex, ball and ball-pen kernels, which
#: run while it is at least 2.  The
#: crossover measured at 12; no benchmark workload runs 13 to 16 entries,
#: where a higher switch could be shown.
_FLOATS = 12


def _ldexp_or_inf(value, e) -> float:
    """value 2^e, or an infinity of its sign where that exceeds the float64
    range."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return math.copysign(math.inf, value)


def _norm(v) -> float:
    """||v|| of a 1-D float64 array, also where its square overflows or
    underflows: inf where it exceeds the float64 range, and nan or inf
    where an entry is not finite.  Up to ``_FLOATS`` entries it is the
    scale-safe ``math.hypot`` of the Python floats of v.  Above, ``np.vdot``
    raises no floating-point warning, and only where the plain norm is not
    finite or is at most ``_NORM_FLOOR`` is it taken of v on the exact
    power-of-2 rescale that brings its largest entry into [1/2, 1).  Either
    way ||2^k v|| is 2^k ||v|| bit for bit wherever no square underflows."""
    if v.size <= _FLOATS:
        return math.hypot(*v.tolist())
    n = math.sqrt(np.vdot(v, v))
    if _NORM_FLOOR < n < math.inf:
        return n
    top = float(np.abs(v).max())
    if not 0.0 < top < math.inf:
        return top
    e = math.frexp(top)[1]
    v = np.ldexp(v, -e)
    return _ldexp_or_inf(math.sqrt(np.vdot(v, v)), e)


def _square_terms(x):
    """Three floats whose exact sum is x^2, for |x| < 2^970: Veltkamp's split
    of x into two halves of 26 bits, whose products are exact."""
    big = 134217729.0 * x
    hi = big - (big - x)
    lo = x - hi
    return hi * hi, 2.0 * hi * lo, lo * lo


def _radius_gap(c, g, rho) -> float:
    """g - ||c|| as (g^2 - ||c||^2) / (g + rho), rho the rounded ||c||, where
    rho is near g and g - rho cancels.  The numerator is the correctly
    rounded ``math.fsum`` of the exact square terms on the power-of-2
    rescale that brings g into [1/2, 1), so that no square overflows."""
    k = math.frexp(g)[1]
    g = math.ldexp(g, -k)
    terms = list(_square_terms(g))
    for ci in np.ldexp(c, -k).tolist():
        terms += [-t for t in _square_terms(ci)]
    return math.ldexp(math.fsum(terms) / (g + math.ldexp(rho, -k)), k)


def brent_root(f, a, b, fa, fb, xtol, rtol, max_iter, n=0):
    """Root of ``f`` between ``a`` and ``b``, given ``fa = f(a)`` and ``fb = f(b)``
    of opposite signs.

    Stops when ``f`` vanishes at the best iterate x (the bracket end with the
    smaller ``|f|``) or when the bracket around x is narrower than
    ``xtol + rtol |x|``, and returns ``(x, evaluations of f)``.  ``f`` is only
    evaluated strictly inside the bracket.  ``n`` counts the evaluations the
    caller has already made, such as ``fa`` and ``fb``, towards ``max_iter``,
    and is included in the count returned.  Raises MaxIterationsExceeded,
    naming ``max_iter``, when ``max_iter`` evaluations in all do not meet the
    tolerance.
    """
    if fa == 0.0:
        return a, n
    if fb == 0.0:
        return b, n
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("f(a) and f(b) must have opposite signs")
    xpre, fpre, xcur, fcur = a, fa, b, fb
    xblk = fblk = spre = scur = 0.0
    while True:
        if (fpre > 0.0) != (fcur > 0.0):
            # The last step crossed the root: the bracket is [xpre, xcur].
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, n
        if n >= max_iter:
            raise MaxIterationsExceeded(
                f"root search did not converge in {max_iter} evaluations"
            )
        interpolate = abs(spre) > delta and abs(fcur) < abs(fpre)
        if interpolate:
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            # Accept only a step towards the other end that shrinks the
            # bracket fast enough; otherwise bisect.
            interpolate = stry * sbis > 0.0 and 2.0 * abs(stry) < min(
                abs(spre), 3.0 * abs(sbis) - delta
            )
        if interpolate:
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
        n += 1


#: Above 4 times this many breakpoints, :func:`_breakpoint_root` takes
#: Newton steps from the root on a strided sample of about this many.
_SAMPLE = 256

#: The most Newton steps :func:`_breakpoint_root` takes before it sorts.  The
#: iter_large box and l1 roots take 2-4; the few simplex roots that take more
#: than 6 sort a few hundred breakpoints.
_NEWTON_STEPS = 6


def _breakpoint_root(t, slope, offset, u=None, w=None):
    """Root x of the decreasing piecewise-linear function

        F(x) = offset - slope x + sum_i max(u_i - w_i x, 0),   w_i > 0,

    whose breakpoints are t = u / w (u = t and w = 1 when not given).  The
    box, l1 and simplex projectors and their cone kernels all reduce to it.
    Contract: finite float64 arrays of one size, in any order; slope >= 0, and
    where it is 0 (the simplex threshold) offset < 0 and max t = 0; t empty
    only where slope > 0; the callers' rescales keep every sum in range.

    Up to ``_FLOATS`` breakpoints one sort and one scan of running sums on
    Python floats find it (:func:`_sorted_root_floats`; the 2-entry cone
    kernels of the box, l1 ball and simplex call its straight-line form
    :func:`_pair_root` on their own floats), and up to 4 _SAMPLE
    one sort and one cumulative sum on arrays (:func:`_sorted_root`).
    Above, Newton steps on F (Michelot's finite algorithm, 1986) start from
    the root of F / stride on every stride-th breakpoint.  A step from x is
    the root of F's piece at x, (offset + sum_{t > x} u) / (slope +
    sum_{t > x} w): two dot products against a mask.  F is convex, so every
    step lands at or left of its root, and from there the set above x only
    shrinks; a step that keeps its size keeps the set and is F's root
    exactly.  The root is the largest piece root, so x is the largest step
    so far (the sample root is no piece root and does not count): a step
    that rounds below the one before cannot undo it.  A breakpoint at or
    below a step has no term at the root, so after ``_NEWTON_STEPS`` steps
    one sort of those above x finds the root.  For the simplex threshold
    (slope 0, the largest breakpoint 0) the sample root and every step lie
    below 0, so no step divides by 0.
    """
    if t.size <= _FLOATS:
        return _sorted_root_floats(t.tolist(), slope, offset,
                                   None if w is None else u.tolist(),
                                   None if w is None else w.tolist())
    if t.size <= 4 * _SAMPLE:
        return _sorted_root(t, slope, offset, u, w)
    step = t.size // _SAMPLE
    cut = slice(None, None, step)
    above = t > _sorted_root(t[cut], slope / step, offset / step,
                             None if w is None else u[cut],
                             None if w is None else w[cut])
    k = int(np.count_nonzero(above))
    x = -math.inf
    for _ in range(_NEWTON_STEPS):
        mask = above.astype(float)
        top, base = (mask @ t, k) if w is None else (mask @ u, mask @ w)
        x = max(x, (offset + float(top)) / (slope + float(base)))
        above = t > x
        k, count = int(np.count_nonzero(above)), k
        if k == count:
            return x
    keep = np.flatnonzero(above)
    return max(x, _sorted_root(t[keep], slope, offset,
                               None if w is None else u[keep],
                               None if w is None else w[keep]))


def _sorted_root(t, slope, offset, u, w):
    """The root of F of :func:`_breakpoint_root`, on its contract with t
    nonempty, by one sort and one cumulative sum.

    Where exactly the k largest breakpoints exceed x, F is linear with root
    x_k = (offset + U_k) / (slope + W_k), U_k and W_k the sums of their u
    and w.  F is the largest of these pieces, so its root is the largest
    x_k, or offset / slope (k = 0) where that is larger.  No test t_k > x_k
    picks k: where every x_k rounds to its t_k, that test would pick k = 0.
    """
    if w is None:
        x = (offset + np.sort(t)[::-1].cumsum()) / (slope + np.arange(1, t.size + 1))
    else:
        order = t.argsort()[::-1]
        x = (offset + u[order].cumsum()) / (slope + w[order].cumsum())
    root = float(x.max())
    return max(root, offset / slope) if slope else root


def _sorted_root_floats(t, slope, offset, u, w):
    """The root of :func:`_sorted_root` on Python floats: one descending
    sort, then one scan with running sums U_k and W_k.  t, u and w may be
    any iterables of floats, on the contract of :func:`_breakpoint_root`."""
    root = offset / slope if slope else -math.inf
    top = base = 0.0
    if w is None:
        for ti in sorted(t, reverse=True):
            top += ti
            base += 1.0
            x = (offset + top) / (slope + base)
            if x > root:
                root = x
    else:
        for _, ui, wi in sorted(zip(t, u, w), reverse=True):
            top += ui
            base += wi
            x = (offset + top) / (slope + base)
            if x > root:
                root = x
    return root


def _pair_root(t0, t1, slope, offset, u0, u1, w0, w1):
    """:func:`_sorted_root_floats` on two breakpoints, bit for bit, as
    straight-line code: the descending sort of the triples (t, u, w) is one
    lexicographic comparison that keeps a tie in its order, and the scan is
    its two steps.  The unweighted root passes u = t and w = 1.0."""
    if t1 > t0 or t1 == t0 and (u1 > u0 or u1 == u0 and w1 > w0):
        u0, u1, w0, w1 = u1, u0, w1, w0
    root = offset / slope if slope else -math.inf
    top, base = 0.0 + u0, 0.0 + w0
    x = (offset + top) / (slope + base)
    if x > root:
        root = x
    x = (offset + (top + u1)) / (slope + (base + w1))
    return x if x > root else root


def _secular_root(c, a):
    """Root x >= 0 of M(x) = 1 / ||c / (a + x)|| = 1 for a >= 0, by Newton.
    Contract: c and a are finite float64 arrays of one size, and a is all
    positive, or all 0 with c nonzero, so that no c / (a + x) divides by 0.

    M is concave and increasing (Moré and Sorensen, "Computing a trust region
    step", 1983), so Newton climbs monotonically from the lower bound
    max(||c|| - max a, ||c min a / a|| - min a, 0); the second term keeps
    c / (a + x) in range when a spans hundreds of decades.  Stops when
    M(x) >= 1 or a step is at most ``_ROOT_RTOL`` x; raises
    MaxIterationsExceeded after ``_ROOT_MAX_STEPS`` evaluations.  Up to
    ``_FLOATS`` entries the same iteration runs on Python floats
    (:func:`_secular_root_floats`).
    """
    if c.size <= _FLOATS:
        return _secular_root_floats(c.tolist(), a.tolist())
    x = max(_norm(c) - float(a.max()), 0.0)
    a_lo = float(a.min())
    if a_lo > 0.0:
        x = max(x, _norm(c * (a_lo / a)) - a_lo)
    for _ in range(_ROOT_MAX_STEPS):
        d = a + x
        r = c / d
        f = float(np.vdot(r, r))
        if f <= 1.0:
            return x
        # The Newton step (1 - M) / M' is f (sqrt(f) - 1) / g, g = sum r^2 / d.
        step = f * (math.sqrt(f) - 1.0) / float(np.vdot(r / d, r))
        x += step
        if step <= _ROOT_RTOL * x:
            return x
    raise MaxIterationsExceeded(
        f"secular equation did not converge in {_ROOT_MAX_STEPS} steps"
    )


def _secular_root_floats(c, a):
    """:func:`_secular_root` on lists of Python floats, on its contract: the
    same lower bound, Newton step and stopping rule, with the scale-safe
    ``math.hypot`` for the norms."""
    x = math.hypot(*c) - max(a)
    x = 0.0 if 0.0 > x else x
    a_lo = min(a)
    if a_lo > 0.0:
        lower = math.hypot(*[ci * (a_lo / ai) for ci, ai in zip(c, a)]) - a_lo
        x = lower if lower > x else x
    for _ in range(_ROOT_MAX_STEPS):
        f = g = 0.0
        for ci, ai in zip(c, a):
            d = ai + x
            r = ci / d
            f += r * r
            g += r / d * r
        if f <= 1.0:
            return x
        step = f * (math.sqrt(f) - 1.0) / g
        x += step
        if step <= _ROOT_RTOL * x:
            return x
    raise MaxIterationsExceeded(
        f"secular equation did not converge in {_ROOT_MAX_STEPS} steps"
    )


def _quadratic_cone(u, w, s, root, one):
    """Projection of (u, s) onto the quadratic cone {(z, t) : ||W^1/2 z|| <= t}
    with W = diag(w), w > 0: None where (u, s) lies in it, else ``(t, z)``,
    with t = 0 (and z None) at the apex.  Contract: u, w, root and one are
    finite float64 arrays of one size and s a finite float, from a query
    whose size max(||u||, |s|) lies within 2^(+-500).

    Off the cone and its polar, the KKT conditions give z = u / (1 + mu w)
    and t = ||W^1/2 z|| = s / (1 - mu) for a multiplier mu > 0, so
    z = t u / d with d = t + (t - s) w.  The unknown is v = t - max(s, 0),
    which keeps t - s = v + max(-s, 0) exact however small mu is: t is the
    root of M(v) = 1 for M(v) = 1 / ||W^1/2 u / d(v)||.  Each d_i is linear
    and increasing in v, so M is concave and increasing, from s / ||W^1/2 u||
    (s > 0) or -s / ||W^-1/2 u|| (s <= 0) at v = 0 to at least 1 at
    t = ||W^1/2 u||.  :func:`_secular_root` solves it with c = W^1/2 u /
    (1 + w) and a = (max(s, 0) + max(-s, 0) w) / (1 + w), to a tolerance
    relative to v, independent of the scale of the query and of w.  On the
    polar of the cone, M(0) >= 1, the root is v = 0 and t = 0: the apex.
    ``root`` and ``one`` are the caller's stored sqrt(w) and 1 + w.
    """
    wu = root * u
    if math.sqrt(np.vdot(wu, wu)) <= s:
        return None
    base, lift = max(s, 0.0), max(-s, 0.0)
    v = _secular_root(wu / one, (base + lift * w) / one)
    t = base + v
    if t == 0.0:
        return 0.0, None
    return t, u * (t / ((v + lift) * w + t))


def _quadratic_cone_floats(u, w, s, root, one):
    """:func:`_quadratic_cone` on sequences of Python floats, on its
    contract, z a list, the norm by the scale-safe ``math.hypot``."""
    wu = [hi * ui for ui, hi in zip(u, root)]
    if math.hypot(*wu) <= s:
        return None
    base, lift = 0.0 if 0.0 > s else s, 0.0 if 0.0 > -s else -s
    v = _secular_root_floats([x / oi for x, oi in zip(wu, one)],
                             [(base + lift * wi) / oi for wi, oi in zip(w, one)])
    t = base + v
    if t == 0.0:
        return 0.0, None
    return t, [ui * (t / ((v + lift) * wi + t)) for ui, wi in zip(u, w)]


def _plane_cone(r, p, w, root, one, s):
    """:func:`_quadratic_cone_floats` on the 2-vector (r, p), bit for bit,
    as straight-line code: None inside the cone, else ``(t, z_r, z_p)``,
    t = 0 at the apex.  :func:`_secular_root_floats` is inlined, with the
    same lower bounds, Newton step, stopping rule and
    MaxIterationsExceeded.  ``root`` and ``one`` are sqrt(w) and 1 + w, as
    stored by its two callers: the off-centre ball, on its rotated plane
    rescaled below 1 with w within 2^(+-900), and the 2-D ellipsoid, in its
    eigenbasis on a query of size max(||y||, |s|) within 2^(+-500).  All are
    finite floats, w > 0."""
    (w0, w1), (h0, h1), (o0, o1) = w, root, one
    c0, c1 = h0 * r, h1 * p
    if math.hypot(c0, c1) <= s:
        return None
    base, lift = 0.0 if 0.0 > s else s, 0.0 if 0.0 > -s else -s
    c0, c1 = c0 / o0, c1 / o1
    a0, a1 = (base + lift * w0) / o0, (base + lift * w1) / o1
    x = math.hypot(c0, c1) - (a1 if a1 > a0 else a0)
    x = 0.0 if 0.0 > x else x
    a_lo = a1 if a1 < a0 else a0
    if a_lo > 0.0:
        lower = math.hypot(c0 * (a_lo / a0), c1 * (a_lo / a1)) - a_lo
        x = lower if lower > x else x
    for _ in range(_ROOT_MAX_STEPS):
        d0, d1 = a0 + x, a1 + x
        r0, r1 = c0 / d0, c1 / d1
        f = r0 * r0 + r1 * r1
        if f <= 1.0:
            break
        step = f * (math.sqrt(f) - 1.0) / (r0 / d0 * r0 + r1 / d1 * r1)
        x += step
        if step <= _ROOT_RTOL * x:
            break
    else:
        raise MaxIterationsExceeded(
            f"secular equation did not converge in {_ROOT_MAX_STEPS} steps"
        )
    t = base + x
    if t == 0.0:
        return 0.0, 0.0, 0.0
    return t, r * (t / ((x + lift) * w0 + t)), p * (t / ((x + lift) * w1 + t))
