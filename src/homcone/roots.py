"""Safeguarded root finding on a sign-change bracket.

Brent's method (Brent 1973, *Algorithms for Minimization without
Derivatives*, ch. 4): secant or inverse quadratic interpolation steps, with a
bisection step whenever the interpolated one would leave the bracket or not
shrink it fast enough.  It is the one bracketed root finder of the library,
and :mod:`homcone.homproj` locates alpha* with it; the paper's reference
bisection, kept for Table 1 and ``homcone project --alpha0 --beta0``, is
worked-example code in :mod:`homcone.paper`.  The secular Newton solve of
the ellipsoid and the quadratic cones is :func:`homcone.sets._secular_root`.
"""

from __future__ import annotations

import math

from .errors import MaxIterationsExceeded


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
