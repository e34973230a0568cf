"""Convex set catalog: projectors, support functions, membership, recession
cones, the exact projectors onto the homogenization cones that have one, and
the polar sets.

Every cataloged set is a closed convex subset of R^n that contains the origin;
constructors reject parameters violating that standing assumption with a
ValueError, as the queries reject a vector of the wrong length.  Descriptors
are immutable after construction and every operation is a pure function, so
shared instances are safe to evaluate concurrently.

Not every variant is projectable: some sets exist only for support-function and
polar work and raise ``NotImplementedError`` from :meth:`project`, as a set
does for every operation it lacks.

Each set is implemented once.  The JSON spec types ``shifted_unit_ball`` and
``ball_plus_strip`` name two of the paper's examples and build the
:class:`EuclideanBall` and :class:`BallPen` that they are.

Validation contract: a query (y, s) is validated in one call,
:func:`_as_query`, shared by every entry point.  It rejects a complex y and a
height that is not a real number like any bad value, and it also sizes the
query: where the binary exponent of max(||y||, |s|) lies beyond the caller's
bound, it returns the query rescaled exactly by that power of 2, with its
exponent.  :func:`as_vector` is that call for a vector alone.  The
public methods of :class:`ConvexSet` (``project``, ``contains``, ``support``,
``project_recession``, ``recession_distance``) validate their vector once and
dispatch to a per-set kernel (``_project``, ``_contains``, ``_support``,
``_project_recession``, ...), ``support`` and ``recession_distance`` on the
power-of-2 rescale that call returns.  Kernels assume a
finite float64 vector of the set's dimension and never re-validate; callers
inside the package that built the vector from an already validated query
call the kernels directly.  A membership tolerance is validated by
:func:`_as_tolerance`, which requires it finite and nonnegative; kernels take
the tolerance unchecked.

One optional kernel, ``_project_cone(y, s)``, projects a validated query onto
the homogenization cone K of the set exactly, returning
``(alpha*, x, branch)`` with P_K(y, s) = (x, alpha*), or None when the set has
none; :func:`homcone.homproj.project_homogenization` calls it once per query,
after its exact power-of-2 rescale, so a kernel only sees a query whose
size max(||y||, |s|) lies within 2^(+-500), or the origin, and forms no
squared norm that overflows or underflows.  The origin-centred Euclidean
ball (the ice-cream cone) and the ball pen have a closed form, and
``PBall`` with p = 2 or p = inf takes the origin ball's or the box's
kernel.  The others end in a root solve of :mod:`homcone.roots`: the box,
the l1 ball and the simplex in the root over the breakpoints of a
piecewise-linear equation (:func:`_breakpoint_root`), the ellipsoid and the
ball off the origin in the projection onto one quadratic cone
{||W^1/2 z|| <= t}: the ellipsoid in its eigenbasis
(:func:`_quadratic_cone`), the ball, after one rotation of the plane of its
centre and the height, on a 2-vector (:func:`_plane_cone`), which also
solves the 2-D ellipsoid.  Only the p-balls without a projector have no
kernel.  Up to ``_FLOATS`` (12) entries the box, l1 and simplex kernels
take every scalar they branch on (membership in K, sigma_C(y), the simplex
kernel's sums and extremes) from one ``tolist()``, and the breakpoint root
runs on Python floats too: the box hands it the lists of its branch tests,
the simplex family its breakpoints, which it lists; numpy builds only the
answer.  A box with a zero halfwidth takes the numpy path above 2 entries,
whose index of the nonzero halfwidths keeps them out of the root.  A sum
that lies within its rounding error of a branch edge is retaken on numpy
(:func:`_sum_at_most`), so both sides of the switch branch alike.

At two entries, where each numpy call costs more than the arithmetic it
does, the kernels of the box (:meth:`Box._pair_cone`), the l1 ball and the
simplex (:func:`_simplex_pair`, with the straight-line root
:func:`_pair_root`), the origin-centred ball, the ball pen and the
off-centre ball around its plane solve work on the two floats of y from
the branch tests to the answer, and build one array at the end, bit for
bit with the general path.  Where numpy would clip or take a positive part,
they compare with numpy's tie rule (numpy 2.4 on x86-64 returns the second
operand of ``np.maximum`` and ``np.minimum`` on a tie, which decides the
sign of a zero).  Only the box retakes an edge, as its sigma_C(y) is
numpy's dot product; numpy's sum of two entries equals their float sum.
<d, y>, <e, y> and the 2-entry ellipsoid's V^T y and V z stay numpy's
products, which may round apart from float sums, taken like every product
by ``ndarray.dot``, the bits of ``@`` at half its dispatch cost; ``np.vdot``
stays only where an overflow must be a silent inf, as ``ndarray.dot`` warns.
These paths run only while 2 <= ``_FLOATS``, so 0 or 1 reaches numpy.

The kernels read the :class:`Branch` members from
the names ``_IN_K``, ``_RECESSION`` and ``_CONE``, bound once; they and the
cores of :mod:`homcone.roots` they call on Python floats compare two or
three floats where they would call the builtin ``max`` or ``min``, with its
tie rule, so that signed zeros keep their bits.  On CPython 3.11 the
attribute read and the call each cost about ten times the name or the
comparison.
A subclass that changes ``_project`` of one of these sets
(``EuclideanBall``, ``BallPen``, ``Box``, ``L1Ball``, ``Simplex``,
``Ellipsoid``, ``PBall``) must also override ``_project_cone``, or the
kernel would answer for the old set.

:meth:`ConvexSet.polar` returns the polar set {y : sigma_C(y) <= 1}: the
cataloged set that ``_polar()`` returns, else, where it returns None (the
default), a view (:class:`_Polar`) whose membership is the set's
``_polar_contains(y, tol)``: sigma_C(y) <= 1 + tol by default, a closed form
where that bands differently from sigma_C.  ``_polar_contains`` takes y
unscaled, so it squares, powers or sums no entry that could leave the
float64 range: it uses :func:`_norm`, or evaluates a positively homogeneous
form on the power-of-2 rescale of y (:func:`_scaled`).  A subclass that
changes the geometry of a set must override ``_polar`` and
``_polar_contains`` too.
"""

from __future__ import annotations

import enum
import json
import math
import operator

import numpy as np

from .roots import (_FLOATS, _breakpoint_root, _ldexp_or_inf, _norm, _pair_root,
                    _plane_cone, _quadratic_cone, _quadratic_cone_floats,
                    _radius_gap, _secular_root, _sorted_root_floats)

#: Default absolute tolerance for membership checks.
MEMBERSHIP_TOL = 1e-9

#: Half an ulp of the largest float: x_i - c_i, with |c_i| below it, rounds
#: to a finite value for every finite x_i.
_HALF_ULP_MAX = 2.0 ** 970


#: The dtype of a query vector that needs no conversion.
_FLOAT64 = np.dtype(float)


def _as_query(y, dim=None, s=0.0, safe=math.inf):
    """Validate a query (y, s) in one pass: y a finite nonempty 1-D real
    vector, of length ``dim`` when given, returned as float64, and s a finite
    real number, returned as a float; a complex y or a non-number s is a
    ValueError too.

    Returns ``(y, s, e, n)`` with n = ||y||.  Where the binary exponent k of
    the size max(||y||, |s|) (0 at the origin) exceeds ``safe`` in
    magnitude, y, s and n come back rescaled exactly by 2^-k, which brings
    that size into [1/2, 1), and e is k; otherwise as given, and e is 0.  The
    default rescales no query, ``safe`` 0 every one.  n is :func:`_norm`'s,
    inline up to ``_FLOATS`` entries, and is also the finiteness check: it is
    nan or inf exactly where an entry is or where the norm overflows, and
    only then is the largest |y_i| taken to size y (n is then taken again on
    the rescaled y).
    """
    if type(y) is np.ndarray and y.dtype is _FLOAT64:
        v = y
    else:
        v = np.asarray(y)
        if v.dtype.kind == "c":
            raise ValueError("expected a nonempty 1-D real vector")
        if v.dtype is not _FLOAT64:
            v = np.asarray(y, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-D real vector")
    size = n = math.hypot(*v.tolist()) if v.size <= _FLOATS else _norm(v)
    if not size < math.inf:
        size = float(np.abs(v).max())
        if not size < math.inf:
            raise ValueError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected dimension {dim}, got {v.size}")
    try:
        s = float(s)
    except (TypeError, ValueError):
        raise ValueError("height must be finite") from None
    h = abs(s)
    if not h < math.inf:
        raise ValueError("height must be finite")
    e = math.frexp(h if h > size else size)[1]
    if -safe <= e <= safe:
        return v, s, 0, n
    v = np.ldexp(v, -e)
    return v, math.ldexp(s, -e), e, math.ldexp(n, -e) if n < math.inf else _norm(v)


def as_vector(x, dim=None) -> np.ndarray:
    """Validate ``x`` as a finite 1-D float64 vector, optionally of length ``dim``."""
    return _as_query(x, dim)[0]


def _sum_at_most(total, n, edge, exact, *args) -> bool:
    """Whether ``exact(*args) <= edge``, for ``exact`` the numpy sum or dot
    product of n nonnegative terms, decided on ``total``, the sum of their
    Python floats, where that lies farther from edge than twice the rounding
    error of any summation order (n ulps of the sum, plus half the smallest
    subnormal per product that underflows): there both round to the same
    side.  ``total`` None: on numpy."""
    if total is not None:
        if abs(total - edge) > n * (2.0 ** -51 * total + 2.0 ** -1073):
            return total <= edge
    return float(exact(*args)) <= edge


def _ldexp_array(v, e) -> np.ndarray:
    """v 2^e; raises OverflowError where an entry leaves the float64 range."""
    try:
        math.ldexp(float(np.abs(v).max()), e)
    except OverflowError:
        raise OverflowError("the projection exceeds the float64 range") from None
    return np.ldexp(v, e)


def _scaled(f, v) -> float:
    """f(v) for a positively homogeneous f, evaluated on the exact power-of-2
    rescale of v that brings ||v|| (its largest entry where the norm
    overflows) into [1/2, 1), so that no square, power or sum inside f
    leaves the float64 range; an infinity where f(v) itself exceeds it."""
    n = _norm(v)
    e = math.frexp(n if n < math.inf else float(np.abs(v).max()))[1]
    return _ldexp_or_inf(f(np.ldexp(v, -e)), e)


def _as_float(x) -> float:
    """float(x), or nan where x is not a number, so that a range check
    rejects it with its own ValueError."""
    try:
        return float(x)
    except (TypeError, ValueError):
        return math.nan


def _as_tolerance(tol) -> float:
    """Validate a membership tolerance as a finite float >= 0."""
    tol = _as_float(tol)
    if not 0.0 <= tol < math.inf:
        raise ValueError("tolerance must be finite and nonnegative")
    return tol


def _dimension(value) -> int:
    """Validate a set dimension: a Python or numpy integer >= 1, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"dimension must be an integer, got {value!r}")
    if value < 1:
        raise ValueError("dimension must be positive")
    return int(value)


def _unit_vector(d, name) -> np.ndarray:
    """Validate ``d`` as a unit vector (to 1e-9) and return it renormalised."""
    d = as_vector(d)
    # An entry above about 1e154 overflows the norm: inf, a ValueError below.
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(d))
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a unit vector")
    return d / n


class Branch(str, enum.Enum):
    """Which case of the projection formula produced the result."""

    ALREADY_IN_K = "already_in_k"
    RECESSION = "recession"
    CONE_INTERIOR = "cone_interior"


#: The members, bound once: reading a name costs a tenth of reading
#: ``Branch.<member>``, and the kernels read one per query.
_IN_K, _RECESSION, _CONE = Branch.ALREADY_IN_K, Branch.RECESSION, Branch.CONE_INTERIOR


# ---------------------------------------------------------------------------
# Set variants
# ---------------------------------------------------------------------------

class ConvexSet:
    """Base class for the cataloged sets.

    Subclasses define ``dim`` and the kernels ``_contains``, ``_support`` and,
    where available, ``_project``; the public methods validate and dispatch.
    Bounded variants inherit the projection onto the trivial recession cone
    {0}; unbounded ones override ``_project_recession`` or leave the
    capability missing.  A set whose homogenization cone has an exact
    projector overrides ``_project_cone``; the default None selects the
    generic solver.  A set whose polar is cataloged overrides ``_polar``,
    which returns that set; the default None gives the view, whose
    membership ``_polar_contains`` tests sigma_C <= 1 + tol unless the set
    overrides it with a closed form.  The
    defaults of ``_project`` and of ``_project_recession`` (of an unbounded
    set) raise NotImplementedError, as do those of ``_contains`` and
    ``_support``, each naming the set and what it lacks.
    """

    dim: int
    bounded: bool = True

    def contains(self, x, tol=MEMBERSHIP_TOL) -> bool:
        """Membership test derived from the set's defining inequalities."""
        return self._contains(as_vector(x, self.dim), _as_tolerance(tol))

    def support(self, y) -> float:
        """Support function sup over members c of <c, y>; may be +inf.

        Positively homogeneous, so evaluated on the power-of-2 rescale of y
        that validation sizes; +inf also where it exceeds the float64 range."""
        y, _, e, _ = _as_query(y, self.dim, 0.0, 0)
        return _ldexp_or_inf(self._support(y), e)

    def project(self, x) -> np.ndarray:
        """Nearest point of the set to x."""
        return self._project(as_vector(x, self.dim))

    def project_recession(self, x) -> np.ndarray:
        """Projection of x onto the recession cone of the set."""
        return self._project_recession(as_vector(x, self.dim))

    def polar(self) -> ConvexSet:
        """The polar set {y : sigma_C(y) <= 1}: the cataloged set equal to
        it, else a view of this set (:class:`_Polar`)."""
        polar = self._polar()
        return _Polar(self) if polar is None else polar

    def recession_distance(self, y) -> float:
        """Distance from y to the recession cone; zero iff y is a recession
        direction.  Evaluated on the exact power-of-2 rescale of y, like
        :meth:`support`."""
        y, _, e, _ = _as_query(y, self.dim, 0.0, 0)
        return _ldexp_or_inf(self._recession_distance(y), e)

    def _contains(self, x, tol) -> bool:
        raise NotImplementedError(f"{type(self).__name__} has no membership test")

    def _support(self, y) -> float:
        raise NotImplementedError(f"{type(self).__name__} has no support function")

    def _project(self, x) -> np.ndarray:
        raise NotImplementedError(
            f"{type(self).__name__} is cataloged for support-function and "
            "polar work only and has no projector"
        )

    def _project_recession(self, x) -> np.ndarray:
        if self.bounded:
            return np.zeros(self.dim)
        raise NotImplementedError(
            f"{type(self).__name__} does not expose a recession-cone projector"
        )

    def _recession_distance(self, y) -> float:
        return float(np.linalg.norm(y - self._project_recession(y)))

    def _project_cone(self, y, s):
        """Exact P_K(y, s) as ``(alpha*, x, branch)`` with
        P_K(y, s) = (x, alpha*), or None for the generic solver.  The size
        max(||y||, |s|) of the query lies within 2^(+-500), or the query is
        the origin."""
        return None

    def _polar(self):
        """The cataloged polar set, or None for the view :class:`_Polar`."""
        return None

    def _polar_contains(self, y, tol) -> bool:
        """Membership of y in the polar view: sigma_C(y) <= 1 + tol."""
        return _scaled(self._support, y) <= 1.0 + tol


class EuclideanBall(ConvexSet):
    """Ball {x : ||x - center|| <= radius} with ||center|| <= radius.

    Off the origin, with rho = ||c||, e = c / rho and a = <e, y>, the cone
    K = {||y - s c|| <= gamma s} is the nappe s >= 0 of ||y - a e||^2 +
    (a, s) M (a, s)^T <= 0 for M = [[1, -rho], [-rho, rho^2 - gamma^2]].
    M has determinant -gamma^2, so one eigenvalue lam > 0 and one
    -gamma^2 / lam < 0.  The rotation of the (a, s) plane onto its
    eigenvectors, p = cos a - sin s and q = sin a + cos s with
    tan = rho / (h + sqrt(h^2 + rho^2)), h = (1 + gamma^2 - rho^2) / 2, and
    lam = 1 + rho tan, is orthogonal, and it maps K onto the quadratic cone
    {||W^1/2 (||y - a e||, p)|| <= q} with W = diag(lam, lam^2) / gamma^2
    (:func:`_plane_cone`).  The constructor takes the rotation and the
    weights from this closed form once, and stores the square roots of the
    weights and 1 + each for that solve.

    sigma_C(y) = gamma ||y|| + rho a cancels where <c, y> < -3 gamma ||y|| / 4
    (wholly if the sphere holds the origin); there it is (gamma ||y - a e||^2
    + k a^2) / (||y|| - (rho / gamma) a), k = (gamma - rho)(1 + rho / gamma),
    which squares neither gamma nor rho, with e, rho / gamma and k stored;
    where rho > 3 gamma / 4, gamma - rho is taken exactly
    (:func:`~homcone.roots._radius_gap`), as rho may round to gamma.
    """

    def __init__(self, center, radius):
        self.center = as_vector(center)
        self.radius = float(radius)
        if not 0.0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        rho = _norm(self.center)
        # Relative slack, so that (t c, t r) is accepted alike at every scale t.
        if rho > self.radius * (1.0 + 1e-12):
            raise ValueError(
                "the ball must contain the origin: require ||center|| <= radius"
            )
        self.dim = self.center.size
        self._top = float(np.abs(self.center).max())
        self._centred = rho == 0.0
        self._turn = None
        if not self._centred:
            g = self.radius
            self._axis = self.center / rho
            # The 2-entry cone kernel's axis on Python floats.
            self._floats = self._axis.tolist() if self.dim == 2 else None
            # h and rho in units of gamma, so that no square overflows; h < 0
            # only in the slack above, where R - h has no cancellation.
            b = rho / g
            # sigma_C takes gamma - rho exactly where it cancels.  The
            # rotation keeps it rounded: there the exact gap is the rounding
            # of c, which at radii above about 1e8 outweighs the 1 in h and
            # would turn the kernel's axes with the last bit of c.
            gap = g - rho
            exact = gap if rho <= 0.75 * g else _radius_gap(self.center, g, rho)
            self._sigma_form = (b, exact * (1.0 + b))
            h = 0.5 / g + 0.5 * gap * (1.0 + b)
            big = math.hypot(h, b)
            tan = b / (h + big) if h >= 0.0 else (big - h) / b
            k = (1.0 + rho * tan) / g
            weights = (k / g, k * k)
            # Beyond these weights (radii above 1e135 or below 1e-135) the
            # kernel's squares could leave the float64 range: the solver answers.
            if 2.0 ** -900 <= min(weights) and max(weights) <= 2.0 ** 900:
                cos = 1.0 / math.hypot(1.0, tan)
                self._turn = (cos, tan * cos)
                self._weights = weights
                self._roots = (math.sqrt(weights[0]), math.sqrt(weights[1]))
                self._ones = (1.0 + weights[0], 1.0 + weights[1])

    def __repr__(self):
        return f"EuclideanBall(center={self.center.tolist()}, radius={self.radius})"

    def _offset(self, x):
        """``(r, n, e)``, r = (x - c) 2^-e and n = ||r||: e is 0 where both are in
        range, else the exponent of the largest entry of x and c, scaled alike."""
        if self._top < _HALF_ULP_MAX:
            r = x - self.center
            n = _norm(r)
            if n < math.inf:
                return r, n, 0
        e = math.frexp(max(float(np.abs(x).max()), self._top))[1]
        r = np.ldexp(x, -e) - np.ldexp(self.center, -e)
        return r, _norm(r), e

    def _contains(self, x, tol):
        _, n, e = self._offset(x)
        return _ldexp_or_inf(n, e) <= self.radius + tol

    def _project(self, x):
        r, n, e = self._offset(x)
        if n <= math.ldexp(self.radius, -e):
            return x.copy()
        return self.center + self.radius * (r / n)

    def _support(self, y):
        cy, ny = float(self.center.dot(y)), _norm(y)
        if cy >= -0.75 * self.radius * ny:
            return cy + self.radius * ny
        e = self._axis
        b, k = self._sigma_form
        a = float(e.dot(y))
        return (self.radius * _norm(y - a * e) ** 2 + k * (a * a)) / (ny - b * a)

    def _project_cone(self, y, s):
        """The ice-cream cone {||y|| <= gamma s} for the centre 0: the identity
        where ||y|| <= gamma s, the apex where gamma ||y|| <= -s, and otherwise
        the ray point with alpha* = (s + gamma ||y||) / (1 + gamma^2).

        Off the origin, the quadratic cone of the class docstring on the
        2-vector (||y_perp||, p) and the height q, for y = a e + y_perp,
        solved by :func:`_plane_cone`; the answer (z, t) is rotated back and
        z_1 scales y_perp.  The rotated query is rescaled by a power of 2 to
        a largest entry below 1, so weights far from 1 square nothing out of
        range."""
        if self._centred:
            gamma = self.radius
            pair = y.size == 2 and 2 <= _FLOATS
            if pair:
                y0, y1 = y.tolist()
                ny = math.hypot(y0, y1)
            else:
                ny = _norm(y)
            if ny <= gamma * s:
                return s, y.copy(), _IN_K
            if gamma * ny <= -s:
                return 0.0, np.zeros(y.size), _RECESSION
            rho = (s + gamma * ny) / (1.0 + gamma * gamma)
            k = rho * gamma / ny
            return rho, np.array((k * y0, k * y1)) if pair else k * y, _CONE
        if self._turn is None:
            return None
        e = self._axis
        cos, sin = self._turn
        a = float(e.dot(y))
        pair = y.size == 2 and 2 <= _FLOATS
        if pair:
            (e0, e1), (y0, y1) = self._floats, y.tolist()
            p0, p1 = y0 - a * e0, y1 - a * e1
            r = math.hypot(p0, p1)
        else:
            perp = y - a * e
            r = _norm(perp)
        p, q = cos * a - sin * s, sin * a + cos * s
        # max(r, |p|, |q|), with the builtin's tie rule.
        big, top = abs(p), abs(q)
        big = big if big > r else r
        k = math.frexp(top if top > big else big)[1]
        cone = _plane_cone(math.ldexp(r, -k), math.ldexp(p, -k), self._weights,
                           self._roots, self._ones, math.ldexp(q, -k))
        # K lies in s >= ||y|| / (gamma + rho); a height below 0 comes from
        # rounding in the rotation, at radii beyond about 1e15 only.
        if cone is None:
            return 0.0 if 0.0 > s else s, y.copy(), _IN_K
        t, zr, zp = cone
        if t == 0.0:
            return 0.0, np.zeros(y.size), _RECESSION
        t, zr, zp = math.ldexp(t, k), math.ldexp(zr, k), math.ldexp(zp, k)
        c = cos * zp + sin * t
        if pair:
            x0, x1 = c * e0, c * e1
            if r > 0.0:
                f = zr / r
                x0, x1 = x0 + f * p0, x1 + f * p1
            x = np.array((x0, x1))
        else:
            x = c * e
            if r > 0.0:
                x += (zr / r) * perp
        height = cos * t - sin * zp
        return 0.0 if 0.0 > height else height, x, _CONE

    def _polar(self):
        """The ball of radius 1/gamma where that is finite; off the origin
        gamma ||y|| + <c, y> <= 1."""
        if self._centred and 1.0 / self.radius < math.inf:
            return EuclideanBall(np.zeros(self.dim), 1.0 / self.radius)
        return None


class Box(ConvexSet):
    """Axis-aligned box {x : |x_i| <= halfwidths_i}."""

    def __init__(self, halfwidths):
        b = as_vector(halfwidths)
        if np.any(b < 0.0):
            raise ValueError("halfwidths must be nonnegative")
        self.halfwidths = b
        self._low = -b
        self.dim = b.size
        # The cone kernel's breakpoints skip zero halfwidths, on numpy; where
        # there is none it takes the halfwidths themselves, not a copy.
        live = np.flatnonzero(b > 0.0)
        self._live = None if live.size == b.size else live
        self._live_b = b if self._live is None else b[live]
        self._live_bb = self._live_b * self._live_b
        # The cone kernel's halfwidths on Python floats, stored up to
        # _FLOATS entries only: a list of 20,000 floats costs 0.8 MB.  Where
        # _FLOATS is raised after construction the kernel lists them itself.
        self._floats = b.tolist() if b.size <= _FLOATS else None

    def __repr__(self):
        return f"Box(halfwidths={self.halfwidths.tolist()})"

    def _contains(self, x, tol):
        return bool(np.all(np.abs(x) <= self.halfwidths + tol))

    def _project(self, x):
        return np.minimum(np.maximum(x, self._low), self.halfwidths)

    def _support(self, y):
        return float(self.halfwidths.dot(np.abs(y)))

    def _project_cone(self, y, s):
        """K = {|y_i| <= b_i s}: the identity there, the apex where
        s + sigma_C(y) <= 0, and otherwise P_{alpha C}(y) = clip(y, -alpha b,
        alpha b) with alpha* the root of psi'/2 = alpha - s - sum b_i
        max(|y_i| - alpha b_i, 0), that is alpha* = (s + sum_A b_i |y_i|) /
        (1 + sum_A b_i^2) over A = {|y_i| > alpha* b_i}.  Zero halfwidths
        never enter A."""
        if y.size == 2 and 2 <= _FLOATS:
            return self._pair_cone(y, s)
        b = self.halfwidths
        a = np.abs(y)
        if y.size > _FLOATS or self._live is not None:
            if s >= 0.0 and (a <= s * b).all():
                return s, y.copy(), _IN_K
            sigma = None
        else:
            bs, vals = self._floats or b.tolist(), a.tolist()
            if s >= 0.0 and all(ai <= s * bi for ai, bi in zip(vals, bs)):
                return s, y.copy(), _IN_K
            sigma = sum(map(operator.mul, bs, vals))
        # s + sigma_C(y) <= 0.
        if _sum_at_most(sigma, y.size, -s, b.dot, a):
            return 0.0, np.zeros(y.size), _RECESSION
        if sigma is None:
            if self._live is not None:
                a = a[self._live]
            b_live = self._live_b
            alpha = _breakpoint_root(a / b_live, 1.0, s, b_live * a, self._live_bb)
        else:
            alpha = _sorted_root_floats(map(operator.truediv, vals, bs), 1.0, s,
                                        map(operator.mul, bs, vals),
                                        map(operator.mul, bs, bs))
        ab = alpha * b
        return alpha, np.minimum(np.maximum(y, -ab), ab), _CONE

    def _pair_cone(self, y, s):
        """:meth:`_project_cone` at two entries, bit for bit, on the Python
        floats of y and b.  A zero halfwidth enters the root with u = w = 0
        and its breakpoint below all others, so that its piece repeats the
        one before it; the clip takes numpy's tie rule, the second operand."""
        y0, y1 = y.tolist()
        b0, b1 = self._floats or self.halfwidths.tolist()
        a0, a1 = abs(y0), abs(y1)
        if s >= 0.0 and a0 <= s * b0 and a1 <= s * b1:
            return s, y.copy(), _IN_K
        u0, u1 = b0 * a0, b1 * a1
        # s + sigma_C(y) <= 0, at its edge on numpy's <b, |y|>.
        if _sum_at_most(u0 + u1, 2, -s, self._support, y):
            return 0.0, np.zeros(2), _RECESSION
        alpha = _pair_root(a0 / b0 if b0 > 0.0 else -1.0,
                           a1 / b1 if b1 > 0.0 else -1.0,
                           1.0, s, u0, u1, b0 * b0, b1 * b1)
        h0, h1 = alpha * b0, alpha * b1
        x0 = y0 if y0 > -h0 else -h0
        x1 = y1 if y1 > -h1 else -h1
        return alpha, np.array((x0 if x0 < h0 else h0, x1 if x1 < h1 else h1)), _CONE

    def _polar(self):
        """<b, |y|> <= 1: for equal halfwidths b > 0, the l1 ball of radius 1/b
        where that is finite."""
        b = float(self.halfwidths[0])
        equal = np.all(self.halfwidths == b) and b > 0.0 and 1.0 / b < math.inf
        return L1Ball(1.0 / b, self.dim) if equal else None


def _simplex_threshold(v, target):
    """max(v - theta, 0) for v >= 0 with theta such that its sum equals
    target; assumes the sum of v exceeds target.

    The breakpoints d are the entries minus the largest one, so target is
    not rounded away against huge entries, and the piece root of the
    largest alone is exactly -target.  So the root is at least -target, and
    d is clipped at -2 target, inactive with a margin against rounding; the
    search runs on the power-of-2 rescale that brings target into [1/2, 1),
    so no sum of d leaves the float64 range.
    """
    e = math.frexp(target)[1]
    d = np.ldexp(np.maximum(v - float(np.max(v)), -2.0 * target), -e)
    theta = _breakpoint_root(d, 0.0, -math.ldexp(target, -e))
    return np.ldexp(np.maximum(d - theta, 0.0), e)


def _simplex_cone(v, r, s):
    """P_K(v, s) as ``(alpha*, x, branch)`` for C = {x >= 0 : sum x <= r}.

    P_{alpha C}(v) = max(v - theta, 0) with the threshold theta >= 0 that
    makes its sum at most alpha r, and psi'/2 = alpha - s - r theta.  So
    alpha* = s + r theta, where theta solves sum max(v - theta, 0) = r s +
    r^2 theta: theta = (S_k - r s) / (k + r^2) over the k largest entries
    (sum S_k).  The search runs on the entries minus the largest one, whose
    shift folds into s + r max(v) = s + sigma_C(v).
    """
    vals = v.tolist() if v.size <= _FLOATS else None
    low = float(v.min()) if vals is None else min(vals)
    if low >= 0.0 and _sum_at_most(None if vals is None else sum(vals), v.size,
                                   r * s, v.sum):
        return s, v.copy(), _IN_K
    top = float(v.max()) if vals is None else max(vals)
    lift = s + r * (0.0 if 0.0 > top else top)
    if lift <= 0.0:
        return 0.0, np.zeros(v.size), _RECESSION
    # Where top > r s, every float sum of the positive parts exceeds r s too.
    if low < 0.0 and top <= r * s:
        pos = np.maximum(v, 0.0)
        plus = None if vals is None else sum(x for x in vals if x > 0.0)
        if _sum_at_most(plus, v.size, r * s, pos.sum):
            # theta = 0 at alpha = s: only the negative entries move.
            return s, pos, _CONE
    d = v - top
    theta = _breakpoint_root(d, r * r, -r * lift)
    return lift + r * theta, np.maximum(d - theta, 0.0), _CONE


def _simplex_pair(y, r, s, signed):
    """:func:`_simplex_cone` at two entries, bit for bit, on the Python floats
    of v = y, or of v = |y| with the signs of y restored where ``signed``
    (the l1 ball).  The builtin ``min`` and ``max`` of v are comparisons with
    their tie rule, max(., 0.0) takes numpy's, the second operand, and the
    root is :func:`_pair_root`'s.  The two sums need no retake: numpy's sum
    of two float64 entries equals their float sum."""
    y0, y1 = y.tolist()
    v0, v1 = (abs(y0), abs(y1)) if signed else (y0, y1)
    low = v1 if v1 < v0 else v0
    if low >= 0.0 and v0 + v1 <= r * s:
        return s, y.copy(), _IN_K
    top = v1 if v1 > v0 else v0
    lift = s + r * (0.0 if 0.0 > top else top)
    if lift <= 0.0:
        return 0.0, np.zeros(2), _RECESSION
    if low < 0.0 and top <= r * s:
        x0, x1 = v0 if v0 > 0.0 else 0.0, v1 if v1 > 0.0 else 0.0
        if x0 + x1 <= r * s:
            return s, np.array((x0, x1)), _CONE
    d0, d1 = v0 - top, v1 - top
    theta = _pair_root(d0, d1, r * r, -r * lift, d0, d1, 1.0, 1.0)
    x0, x1 = d0 - theta, d1 - theta
    x0, x1 = x0 if x0 > 0.0 else 0.0, x1 if x1 > 0.0 else 0.0
    if signed:
        x0, x1 = math.copysign(x0, y0), math.copysign(x1, y1)
    return lift + r * theta, np.array((x0, x1)), _CONE


class L1Ball(ConvexSet):
    """Cross-polytope {x : sum |x_i| <= radius}."""

    def __init__(self, radius, dim=2):
        self.radius = float(radius)
        if not 0.0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        self.dim = _dimension(dim)

    def __repr__(self):
        return f"L1Ball(radius={self.radius}, dim={self.dim})"

    def _contains(self, x, tol):
        return _scaled(np.sum, np.abs(x)) <= self.radius + tol

    def _project(self, x):
        a = np.abs(x)
        if _scaled(np.sum, a) <= self.radius:
            return x.copy()
        return np.sign(x) * _simplex_threshold(a, self.radius)

    def _support(self, y):
        return self.radius * float(np.max(np.abs(y)))

    def _project_cone(self, y, s):
        """The simplex kernel of radius r on |y| (:func:`_simplex_cone`),
        signs restored: K = {||y||_1 <= r s} is symmetric under sign flips."""
        if y.size == 2 and 2 <= _FLOATS:
            return _simplex_pair(y, self.radius, s, True)
        alpha, x, branch = _simplex_cone(np.abs(y), self.radius, s)
        if branch is _RECESSION:
            return alpha, x, branch
        return alpha, np.copysign(x, y, out=x), branch

    def _polar(self):
        """The box of halfwidth 1/radius where that is finite."""
        b = 1.0 / self.radius
        return Box(np.full(self.dim, b)) if b < math.inf else None


class PBall(ConvexSet):
    """p-norm ball {x : ||x||_p <= radius} for p > 1 (p = inf allowed).

    The support function is the dual q-norm for every p.  For p = 2 and
    p = inf the set is the origin-centred ball and the box of halfwidth
    radius, and their projectors and cone kernels answer; other p have none.
    """

    def __init__(self, p, radius, dim=2):
        p = float(p)
        if not (p > 1.0):
            raise ValueError("p must exceed 1 (use L1Ball for p = 1)")
        self.p = p
        self.q = 1.0 if math.isinf(p) else p / (p - 1.0)
        self.radius = float(radius)
        if not 0.0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        self.dim = _dimension(dim)
        self._same = None
        if p == 2.0:
            self._same = EuclideanBall(np.zeros(self.dim), self.radius)
        elif math.isinf(p):
            self._same = Box(np.full(self.dim, self.radius))

    def __repr__(self):
        return f"PBall(p={self.p}, radius={self.radius}, dim={self.dim})"

    @staticmethod
    def _pnorm(x, p):
        a = np.abs(x)
        top = float(a.max())
        if math.isinf(p):
            return top
        if top > 0.0 and p * math.log2(top) < -1022.0:
            # top^p would leave the normal range: take the norm relative to top.
            return top * float(np.sum((a / top) ** p) ** (1.0 / p))
        return float(np.sum(a ** p) ** (1.0 / p))

    def _contains(self, x, tol):
        return _scaled(lambda v: self._pnorm(v, self.p), x) <= self.radius + tol

    def _project(self, x):
        if self._same is None:
            raise NotImplementedError(
                "p-ball projection is implemented for p in {2, inf} only"
            )
        return self._same._project(x)

    def _support(self, y):
        return self.radius * self._pnorm(y, self.q)

    def _project_cone(self, y, s):
        return None if self._same is None else self._same._project_cone(y, s)

    def _polar(self):
        """The dual-norm (q-norm, or l1 where q rounds to 1, as at p = inf)
        ball of radius 1/radius where that is finite."""
        r = 1.0 / self.radius
        if not r < math.inf:
            return None
        return L1Ball(r, self.dim) if self.q == 1.0 else PBall(self.q, r, self.dim)


class Ellipsoid(ConvexSet):
    """Ellipsoid {x : <x, Qx> <= 1} for a symmetric positive definite Q.

    Both kernels work in the eigenbasis Q = V diag(w) V^T and solve one
    secular equation by :func:`_secular_root`.  For u = V^T x outside the
    set, the nearest point is V (u / (1 + lam w)) with ||W^1/2 u / (1 + lam
    w)|| = 1: c = u / sqrt(w) and a = 1 / w.  The constructor stores sqrt(w)
    and 1 + w, as arrays and, with w, as lists of Python floats, so that no
    query takes them again; the cone kernel solves a 2-D ellipsoid by the
    straight-line plane solve (:func:`_plane_cone`) of the off-centre ball.
    """

    def __init__(self, q_matrix):
        q = np.asarray(q_matrix, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("Q must be a square matrix")
        if not np.all(np.isfinite(q)):
            raise ValueError("Q entries must be finite")
        if q.size == 0:
            raise ValueError("Q must be nonempty")
        # atol scales with Q, so that Q and t Q are accepted alike.
        top = float(np.max(np.abs(q)))
        if not np.allclose(q, q.T, rtol=1e-10, atol=1e-12 * top):
            raise ValueError("Q must be symmetric")
        # From 2^1023 the sum overflows: halve first there, as _polar does.
        q = 0.5 * (q + q.T) if top < 2.0 ** 1023 else 0.5 * q + 0.5 * q.T
        w, v = np.linalg.eigh(q)
        if not (w[0] > 0.0 and np.isfinite(w).all()):
            raise ValueError("Q must be positive definite")
        self._store(q, w, v)

    def _store(self, q, w, v):
        """Keep Q, its eigenpairs (w, V) and the factors of the kernels."""
        self.q_matrix, self._evals, self._evecs, self.dim = q, w, v, q.shape[0]
        self._roots = np.sqrt(w)
        self._ones = 1.0 + w
        self._floats = (w.tolist(), self._roots.tolist(), self._ones.tolist())

    def __repr__(self):
        return f"Ellipsoid(q_matrix={self.q_matrix.tolist()})"

    def _eigen(self, x):
        """``(u, e)``: u = V^T (x 2^-e) for the least e >= 0 that brings every
        entry below 1, so V^T x and w u stay in range; callers scale 1 alike."""
        e = max(math.frexp(float(np.abs(x).max()))[1], 0)
        return self._evecs.T.dot(np.ldexp(x, -e)), e

    def _contains(self, x, tol):
        u, e = self._eigen(x)
        return float(np.vdot(u, self._evals * u)) <= math.ldexp(1.0 + tol, -2 * e)

    def _project(self, x):
        w = self._evals
        u, e = self._eigen(x)
        if np.vdot(u, w * u) <= math.ldexp(1.0, -2 * e):
            return x.copy()
        one = math.ldexp(1.0, -e)
        lam = _secular_root(u / self._roots, one / w)
        return self._evecs.dot(u / (one + lam * w))

    def _support(self, y):
        u = self._evecs.T.dot(y)
        # Where the sum of u_i^2 / w_i overflows on a tiny w_i: ||u / sqrt(w)||.
        with np.errstate(over="ignore"):
            total = float(np.sum(u * u / self._evals))
        return math.sqrt(total) if total < math.inf else _norm(u / self._roots)

    def _project_cone(self, y, s):
        """K = {(y, s) : ||W^1/2 u|| <= s} with u = V^T y: the quadratic cone
        of :func:`_quadratic_cone`, whose answer (t, z) is the point V z at
        height t.  Like every kernel it receives a query whose size
        max(||y||, |s|) lies within 2^(+-500), so no squared norm overflows.
        Two entries take the plane solve (:func:`_plane_cone`), up to
        ``_FLOATS`` the list core (:func:`_quadratic_cone_floats`), both on
        the stored lists of the factors, above it the numpy core on the
        stored arrays, and V^T y and V z are ``ndarray.dot`` either way."""
        u = self._evecs.T.dot(y)
        n = y.size
        w, root, one = self._floats
        if n > _FLOATS:
            cone = _quadratic_cone(u, self._evals, s, self._roots, self._ones)
        elif n == 2:
            cone = _plane_cone(*u.tolist(), w, root, one, s)
            if cone is not None:
                cone = cone[0], cone[1:]
        else:
            cone = _quadratic_cone_floats(u.tolist(), w, s, root, one)
        if cone is None:
            return s, y.copy(), _IN_K
        t, z = cone
        if t == 0.0:
            return 0.0, np.zeros(n), _RECESSION
        return t, self._evecs.dot(z), _CONE

    def _polar(self):
        """The ellipsoid of Q^-1 = V diag(1/w) V^T, on the eigenpairs (1/w, V):
        a second eigensolve would move its axes by cond(Q) ulps.  Q^-1 is
        stored exactly symmetric, halved before the sum so that no entry
        overflows, so its repr rebuilds it.  None where Q^-1 leaves the
        float64 range."""
        with np.errstate(all="ignore"):
            w, v = 1.0 / self._evals, self._evecs
            q = (v * w).dot(v.T)
            q = 0.5 * q + 0.5 * q.T
        if not np.isfinite(q).all():
            return None
        polar = Ellipsoid.__new__(Ellipsoid)
        polar._store(q, w, v)
        return polar


class Simplex(ConvexSet):
    """The corner simplex {x : x_i >= 0, sum x_i <= 1}.  Its polar is
    {y : y_i <= 1}, where sigma_C(y) = max(0, max_i y_i) <= 1."""

    def __init__(self, dim):
        self.dim = _dimension(dim)

    def __repr__(self):
        return f"Simplex(dim={self.dim})"

    def _contains(self, x, tol):
        return bool(np.min(x) >= -tol) and _scaled(np.sum, x) <= 1.0 + tol

    def _project(self, x):
        # The threshold is positive, so negative entries map to 0 either way.
        w = np.maximum(x, 0.0)
        if _scaled(np.sum, w) <= 1.0:
            return w
        return _simplex_threshold(w, 1.0)

    def _support(self, y):
        return max(0.0, float(np.max(y)))

    def _project_cone(self, y, s):
        """The kernel of :func:`_simplex_cone` with r = 1."""
        if y.size == 2 and 2 <= _FLOATS:
            return _simplex_pair(y, 1.0, s, False)
        return _simplex_cone(y, 1.0, s)


class BallPen(ConvexSet):
    """Unit ball plus a ray: B(0,1) + R+ d.  Unbounded, fully projectable."""

    bounded = False

    def __init__(self, direction):
        self.direction = _unit_vector(direction, "ray direction")
        self.dim = self.direction.size
        # The 2-entry cone kernel's direction on Python floats.
        self._floats = self.direction.tolist() if self.dim == 2 else None

    def __repr__(self):
        return f"BallPen(direction={self.direction.tolist()})"

    def _ray_point(self, x):
        """``(v, q, e)``: x scaled by 2^-e, e the exponent of its largest
        entry, and the ray point q nearest to v, so that <d, x> and x minus
        that point stay in the float64 range."""
        e = math.frexp(float(np.abs(x).max()))[1]
        v = np.ldexp(x, -e)
        return v, max(0.0, float(self.direction.dot(v))) * self.direction, e

    def _project_recession(self, x):
        _, q, e = self._ray_point(x)
        return _ldexp_array(q, e)

    def _contains(self, x, tol):
        v, q, e = self._ray_point(x)
        return _ldexp_or_inf(_norm(v - q), e) <= 1.0 + tol

    def _project(self, x):
        v, q, e = self._ray_point(x)
        r = v - q
        dr = _norm(r)
        if _ldexp_or_inf(dr, e) <= 1.0:
            return x.copy()
        return _ldexp_array(v - r, e) + r / dr

    def _support(self, y):
        if float(self.direction.dot(y)) <= 0.0:
            return float(np.linalg.norm(y))
        return math.inf

    def _project_cone(self, y, s):
        """Split on delta = dist(y, ray) against -s and s: the recession branch
        when delta <= -s, the identity-height branch when delta <= s, and the
        averaged branch alpha* = (s + delta) / 2 otherwise, where
        alpha* P_C(y / alpha*) moves y towards the ray by the factor
        alpha* / delta < 1."""
        d = self.direction
        dy = float(d.dot(y))
        pair = y.size == 2 and 2 <= _FLOATS
        # Where <d, y> <= 0 the nearest ray point is 0 and the residual is y.
        if pair:
            (d0, d1), (r0, r1) = self._floats, y.tolist()
            if dy > 0.0:
                r0, r1 = r0 - dy * d0, r1 - dy * d1
            delta = math.hypot(r0, r1)
        else:
            on_ray = dy * d if dy > 0.0 else None
            r = y if on_ray is None else y - on_ray
            delta = _norm(r)
        if delta <= -s:
            branch = _IN_K if s == 0.0 else _RECESSION
            c = dy if dy > 0.0 else 0.0
            return 0.0, np.array((c * d0, c * d1)) if pair else c * d, branch
        if delta <= s:
            # Here dist(y/s, ray) <= 1, so y/s is already a member and the
            # projected point reproduces (y, s).
            return s, y.copy(), _IN_K
        alpha = 0.5 * (s + delta)
        k = alpha / delta
        if pair:
            x0, x1 = k * r0, k * r1
            if dy > 0.0:
                x0, x1 = x0 + dy * d0, x1 + dy * d1
            return alpha, np.array((x0, x1)), _CONE
        x = k * r
        if on_ray is not None:
            x += on_ray
        return alpha, x, _CONE

    def _polar_contains(self, y, tol):
        """The unit ball cut by <d, y> <= 0."""
        # Within the unit ball <d, y> is in range too.
        return _norm(y) <= 1.0 + tol and float(self.direction.dot(y)) <= tol


class Hyperbolic(ConvexSet):
    """2-D region below a hyperbola branch: x1 <= 1 - sqrt(1 + x2^2).

    Cataloged for support-function and polar work; no projector and no
    recession-cone projector.
    """

    bounded = False
    dim = 2

    def __repr__(self):
        return "Hyperbolic()"

    def _contains(self, x, tol):
        return bool(x[0] <= 1.0 - math.hypot(1.0, x[1]) + tol)

    def _support(self, y):
        # y1 - sqrt(y1^2 - y2^2) = y2^2 / (y1 + sqrt((y1 - y2)(y1 + y2))),
        # which does not cancel as y2 / y1 -> 0.
        y1, y2 = y.tolist()
        if y1 < abs(y2):
            return math.inf
        if y1 == 0.0:
            return 0.0
        return y2 * y2 / (y1 + math.sqrt((y1 - y2) * (y1 + y2)))

    def _polar_contains(self, y, tol):
        """|y2| <= y1 and (y1 <= 1 or 1 + y2^2 <= 2 y1).

        The two caps overlap on the boundary arc, matching the convex hull of
        {0} and the parabola epigraph."""
        y1, y2 = y.tolist()
        if abs(y2) > y1 + tol:
            return False
        # 1 + y2^2 <= 2 y1 + tol halved, which is exact, so that 2 y1
        # stays in range; a square beyond it is an infinity on floats.
        return y1 <= 1.0 + tol or 0.5 + y2 * (0.5 * y2) <= y1 + 0.5 * tol


class _Polar(ConvexSet):
    """The polar set C° = {y : sigma_C(y) <= 1} of a set C with no cataloged
    polar, as a view of C, whose polar is C (the bipolar theorem).

    Membership is C's ``_polar_contains(y, tol)``: sigma_C(y) <= 1 + tol on
    the power-of-2 rescale of y, unless C has a closed form.
    The cone of C° is {(y, t) : sigma_C(y) <= t}, the polar cone of K_C
    reflected in its height, so by Moreau's decomposition its projection of
    (y, t) is (y - x, t + a) for (x, a) = P_{K_C}(y, -t), from C's cone
    kernel where C has one.  The gauge of C (sigma of C°) and P_C° are not
    offered; C° is unbounded where 0 is on the boundary of C, so it never
    claims to be bounded.
    """

    bounded = False

    def __init__(self, source):
        self._source, self.dim = source, source.dim

    def __repr__(self):
        return f"{self._source!r}.polar()"

    def _contains(self, y, tol):
        return bool(self._source._polar_contains(y, tol))

    def _support(self, y):
        raise NotImplementedError(
            f"the polar of {type(self._source).__name__} has no support function")

    def _project(self, y):
        raise NotImplementedError(
            f"the polar of {type(self._source).__name__} has no projector")

    def _project_cone(self, y, s):
        found = self._source._project_cone(y, -s)
        if found is None:
            return None
        a, x, branch = found
        alpha = s + a
        if alpha <= 0.0:
            return 0.0, y - x, _RECESSION
        # Where P_{K_C}(y, -s) is the apex, (y, s) is a member.
        inside = branch is _RECESSION and not x.any()
        return alpha, y - x, _IN_K if inside else _CONE

    def _polar(self):
        return self._source


# ---------------------------------------------------------------------------
# JSON set specifications
# ---------------------------------------------------------------------------

def _field(obj, key):
    """A numeric spec field, rejecting bools and strings at any depth, which
    float() and numpy would otherwise read as 1.0, 0.0 or a parsed number."""
    def check(value):
        if isinstance(value, (bool, np.bool_, str, bytes)):
            raise ValueError(f"{key} must be numeric, got {value!r}")
        if isinstance(value, (list, tuple)):
            for item in value:
                check(item)

    check(obj[key])
    return obj[key]


def _parse_p(obj):
    value = obj["p"]
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ValueError(f"unrecognized p value {value!r}")
    return float(_field(obj, "p"))


#: Per spec type: its required keys, its optional keys and its builder.
_SPEC_BUILDERS = {
    "euclidean_ball": (
        {"center", "radius"}, set(),
        lambda o: EuclideanBall(_field(o, "center"), _field(o, "radius")),
    ),
    "ball_pen": ({"direction"}, set(), lambda o: BallPen(_field(o, "direction"))),
    "box": ({"halfwidths"}, set(), lambda o: Box(_field(o, "halfwidths"))),
    "simplex": ({"dim"}, set(), lambda o: Simplex(o["dim"])),
    "l1_ball": (
        {"radius"}, {"dim"},
        lambda o: L1Ball(_field(o, "radius"), o.get("dim", 2)),
    ),
    "p_ball": (
        {"p", "radius"}, {"dim"},
        lambda o: PBall(_parse_p(o), _field(o, "radius"), o.get("dim", 2)),
    ),
    "ellipsoid": ({"q"}, set(), lambda o: Ellipsoid(_field(o, "q"))),
    # The paper's disc with the origin on its boundary, B(0, 1) - d, and its
    # disc plus the half strip |x1| <= 1, x2 >= 0, which is B(0, 1) + R+ e2.
    "shifted_unit_ball": (
        {"d"}, set(),
        lambda o: EuclideanBall(-_unit_vector(_field(o, "d"), "d"), 1.0),
    ),
    "ball_plus_strip": (set(), set(), lambda o: BallPen((0.0, 1.0))),
    "hyperbolic": (set(), set(), lambda o: Hyperbolic()),
}


def set_from_spec(spec) -> ConvexSet:
    """Build a set from its JSON object form (a dict or JSON text).

    A malformed spec raises ``ValueError``: invalid JSON, a value that is not
    an object, an unknown type, an unknown or missing key, and a bad
    parameter, which includes a bool or a string in a numeric field (``p``
    may be the string ``"inf"``).
    """
    if isinstance(spec, (str, bytes)):
        try:
            obj = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc
    else:
        obj = spec
    if not isinstance(obj, dict):
        raise ValueError("set spec must be a JSON object")
    kind = obj.get("type")
    # A list or an object as the type is unhashable: no dict lookup for it.
    if not isinstance(kind, str) or kind not in _SPEC_BUILDERS:
        raise ValueError(f"unknown set type {kind!r}")
    required, optional, builder = _SPEC_BUILDERS[kind]
    extra = set(obj) - {"type"} - required - optional
    if extra:
        raise ValueError(f"unknown keys for {kind}: {sorted(extra)}")
    missing = required - set(obj)
    if missing:
        raise ValueError(f"missing keys for {kind}: {sorted(missing)}")
    try:
        return builder(obj)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad parameters for {kind}: {exc}") from exc
