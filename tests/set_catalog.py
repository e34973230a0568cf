"""The one catalog of sets the tests run on.

Each entry names a set, builds it on demand from a ``set_from_spec`` object
or a callable (so a broken construction fails its test, not the
collection), and says what it offers: ``projectable`` (P_C exists),
``bounded`` (its recession cone is {0}), ``kernel`` (P_K has an exact
kernel here, so ``force_iterative`` is a second route) and ``wide`` (its
size dwarfs the queries, so the projector laws read the dual Moreau
residual as a distance, not as the excess s + sigma_C(y)).  ``queries`` are
extra queries (y, s), such as a defect's reproducer, that every contract
runs; ``xfail`` maps each contract the set fails by a logged defect to the
reason, and the test marks that case a strict xfail (the key ``"build"``:
every test, as the construction fails).

``CORE`` holds one entry per set type, the box also at 13 entries (the
numpy side of ``roots._FLOATS``); the per-method tests run on it.
``CATALOG`` adds the other sizes (1, 2, 3, 13 and 40 where the type
allows), narrow and wide parameters, user subclasses with no kernel and
the defects' reproducers; the contract tests run on all of it.  Adding a
set is one entry.  pytest numbers some test ids by position in ``CORE``,
so new entries go at the end of it.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from homcone import ConvexSet, set_from_spec

ITEM_8 = "ROADMAP item 8: the generic solver fails on this set"
L1_LIFT = ("FOUND (CHANGES.md): the l1 kernel's alpha* = lift + r theta cancels "
           "at a wide radius")
OVER_2_512 = "FOUND (CHANGES.md): a parameter above 2^512 breaks this set"


@dataclass(frozen=True)
class Entry:
    id: str
    build: object  # a spec dict for set_from_spec, or a callable
    projectable: bool = True
    bounded: bool = True
    kernel: bool = True
    wide: bool = False
    xfail: dict = field(default_factory=dict)
    queries: tuple = ()

    def make(self):
        if isinstance(self.build, dict):
            return set_from_spec(self.build)
        return self.build()

    @property
    def spec_type(self):
        return self.build["type"] if isinstance(self.build, dict) else None

    def marks(self, contract):
        reason = self.xfail.get("build") or self.xfail.get(contract)
        return [pytest.mark.xfail(reason=reason, strict=True)] if reason else []


def select(entries, **flags):
    """The entries whose flags have the given values."""
    return [e for e in entries if all(getattr(e, k) == v for k, v in flags.items())]


def params(entries, contract=None, **flags):
    """``pytest.param(entry, id=entry.id)`` for the selected entries, with the
    strict xfails of ``contract``."""
    return [pytest.param(e, id=e.id, marks=e.marks(contract))
            for e in select(entries, **flags)]


def pairs(entries, **flags):
    """``(id, set)`` for the selected entries, built now."""
    return [(e.id, e.make()) for e in select(entries, **flags)]


def spec(kind, **fields):
    """The ``set_from_spec`` object of a set; sequences become float lists."""
    return {"type": kind, **{k: np.asarray(v, dtype=float).tolist() if np.ndim(v) else v
                             for k, v in fields.items()}}


def ball(center, radius):
    return spec("euclidean_ball", center=center, radius=radius)


def unit(n, seed):
    d = np.random.default_rng(seed).normal(size=n)
    return d / np.linalg.norm(d)


def spd(n, seed, spread):
    """A symmetric positive definite matrix with eigenvalues 10^-spread ..
    10^spread, log-spaced, in a random orthonormal basis."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return (q * np.logspace(-spread, spread, n)) @ q.T


class UserBall(ConvexSet):
    """A ball given only through _project, _support and _contains, with no
    cone kernel and no closed-form polar: the generic route is all it has.
    Its norms are math.hypot's, which neither overflows nor underflows."""

    def __init__(self, center, radius):
        self.center, self.radius = np.asarray(center, dtype=float), radius
        self.dim = self.center.size

    def _project(self, x):
        d = x - self.center
        n = math.hypot(*d)
        return x.copy() if n <= self.radius else self.center + self.radius * (d / n)

    def _support(self, y):
        return float(self.center @ y) + self.radius * math.hypot(*y)

    def _contains(self, x, tol):
        return math.hypot(*(x - self.center)) <= self.radius + tol


class PowerSet(ConvexSet):
    """C = {(x, z) : x >= 0, |z| <= x^a}, whose homogenization is the 3-D
    power cone: unbounded, rec C = {(x, 0) : x >= 0}, no kernel.  P_C puts a
    point outside C on the curve |z| = x^a, at the root of the increasing
    x - x0 + a x^(a - 1) (x^a - |z0|) on (0, max(|z0|^(1/a), x0)]."""

    dim = 2
    bounded = False

    def __init__(self, a):
        self.a = a

    def _contains(self, x, tol):
        return bool(x[0] >= -tol and abs(x[1]) <= max(x[0], 0.0) ** self.a + tol)

    def _support(self, y):
        u, w = float(y[0]), abs(float(y[1]))
        if w == 0.0 and u <= 0.0:
            return 0.0
        if u >= 0.0:
            return math.inf
        top = (self.a * w / -u) ** (1.0 / (1.0 - self.a))
        return (1.0 - self.a) * w * top ** self.a

    def _project_recession(self, x):
        return np.array([max(float(x[0]), 0.0), 0.0])

    def _project(self, x):
        x0, z0 = float(x[0]), abs(float(x[1]))
        if self._contains(x, 0.0):
            return x.copy()
        if z0 == 0.0:
            return np.zeros(2)
        lo, hi = 0.0, max(z0 ** (1.0 / self.a), x0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid - x0 + self.a * mid ** (self.a - 1.0) * (mid ** self.a - z0) < 0.0:
                lo = mid
            else:
                hi = mid
        return np.array([hi, math.copysign(hi ** self.a, float(x[1]))])


OFF_AXIS = np.array([0.6, 0.0, -0.8])

# The order of the first eleven is fixed: see the module docstring.
CORE = [
    Entry("ball0", ball((0, 0), 1.3)),
    Entry("ball_off", ball((0.5, -0.3), 1.0)),
    Entry("box", spec("box", halfwidths=(0.8, 1.5, 0.6))),
    Entry("l1", spec("l1_ball", radius=1.7, dim=3)),
    Entry("pball2", spec("p_ball", p=2, radius=1.2)),
    Entry("pballinf", spec("p_ball", p="inf", radius=0.9)),
    Entry("ellipsoid", spec("ellipsoid", q=[[2.0, 0.3], [0.3, 0.8]])),
    Entry("simplex", spec("simplex", dim=3)),
    Entry("ballpen", spec("ball_pen", direction=(0.6, 0.8)), bounded=False),
    Entry("hyperbolic", spec("hyperbolic"), projectable=False, bounded=False,
          kernel=False),
    Entry("pball3", spec("p_ball", p=3, radius=1.0), projectable=False, kernel=False),
    Entry("shifted_unit_ball", spec("shifted_unit_ball", d=(0, 1))),
    Entry("strip", spec("ball_plus_strip"), bounded=False),
    Entry("box13", spec("box", halfwidths=np.linspace(0.5, 1.7, 13))),
]

SIZES = (1, 3, 13, 40)
REPRODUCER = ((np.ones(2), -0.5),)

VARIANTS = [
    # Every type at the other sizes: 1, 2, 3, 13 and 40 entries.
    *(Entry(f"ball0_{n}d", ball(np.zeros(n), 1.3)) for n in SIZES),
    Entry("ball_off_1d", ball((-0.5,), 1.0)),
    *(Entry(f"ball_off_{n}d", ball(0.5 * unit(n, n), 1.0)) for n in SIZES[1:]),
    # The off-centre ball at rho = ||c|| of 1e-12, gamma / 2 and gamma: the
    # last is the paper's shifted unit ball, the origin on its sphere.
    Entry("ball_off_rho_1e-12", ball(1e-12 * OFF_AXIS, 1.0)),
    Entry("ball_off_rho_half", ball(0.5 * OFF_AXIS, 1.0)),
    Entry("ball_off_rho_gamma", ball(OFF_AXIS, 1.0)),
    Entry("box_1d", spec("box", halfwidths=(0.8,))),
    Entry("box_2d", spec("box", halfwidths=(1.0, 0.7))),
    Entry("box_40d", spec("box", halfwidths=np.linspace(0.2, 2.0, 40))),
    Entry("box_ties", spec("box", halfwidths=(1.0, 1.0, 2.0, 0.5))),
    Entry("box_zero_halfwidths", spec("box", halfwidths=(0.0, 1.2, 0.0, 0.5))),
    *(Entry(f"l1_{n}d", spec("l1_ball", radius=0.5 if n == 1 else 1.2, dim=n))
      for n in (1, 2, 13, 40)),
    *(Entry(f"pball2_{n}d", spec("p_ball", p=2, radius=1.2, dim=n)) for n in SIZES),
    *(Entry(f"pballinf_{n}d", spec("p_ball", p="inf", radius=0.9, dim=n)) for n in SIZES),
    Entry("pball3_13d", spec("p_ball", p=3, radius=1.0, dim=13), projectable=False,
          kernel=False),
    Entry("pball_1_5", spec("p_ball", p=1.5, radius=2.0), projectable=False, kernel=False),
    Entry("ellipsoid_1d", spec("ellipsoid", q=[[2.5]])),
    Entry("ellipsoid_3d", spec("ellipsoid", q=spd(3, 3, 1.0))),
    Entry("ellipsoid_cond_1e12", spec("ellipsoid", q=spd(3, 52, 6.0))),
    *(Entry(f"ellipsoid_{n}d", spec("ellipsoid", q=spd(n, n, 3.0))) for n in (13, 40)),
    *(Entry(f"simplex_{n}d", spec("simplex", dim=n)) for n in (1, 2, 13, 40)),
    *(Entry(f"ballpen_{n}d", spec("ball_pen", direction=unit(n, n)), bounded=False)
      for n in SIZES),
    Entry("shifted_unit_ball_3d", spec("shifted_unit_ball", d=(0.6, 0.0, 0.8))),
    Entry("user_ball", lambda: UserBall((0.4, -0.3), 1.0), kernel=False),
    Entry("user_ball_13d", lambda: UserBall(0.5 * unit(13, 7), 1.0), kernel=False),
    Entry("ball0_half", ball((0, 0), 0.5)),
    Entry("ball0_two", ball((0, 0), 2.0)),
    Entry("shifted_disc", ball((1, 0), 1.0)),
    Entry("box_uneven", spec("box", halfwidths=(0.5, 2.0))),
    Entry("ball_pen", spec("ball_pen", direction=(0, 1)), bounded=False),
    # Narrow and wide parameters.
    Entry("ball0_1e-12", ball((0, 0), 1e-12)),
    Entry("ball0_1e16", ball((0, 0), 1e16), wide=True),
    Entry("ball_off_1e-12", ball((3e-13, -4e-13), 1e-12)),
    Entry("box_1e-12", spec("box", halfwidths=(1e-12, 2e-12))),
    # Where every piece root rounds to its breakpoint, the breakpoint root
    # once fell back to offset / slope: alpha* = -0.5 for ((1, 1), -0.5).
    *(Entry(f"box_1e16_{n}d", spec("box", halfwidths=np.full(n, 1e16)), wide=True,
            queries=((np.ones(n), -0.5),), xfail={"routes": ITEM_8} if n > 2 else {})
      for n in (2, 13, 2000)),
    Entry("l1_1e-12", spec("l1_ball", radius=1e-12, dim=3)),
    Entry("simplex_2000d", spec("simplex", dim=2000)),
    Entry("ellipsoid_1e-20", spec("ellipsoid", q=np.diag([1e-20, 2e-20, 3e-20])),
          wide=True),
    Entry("ellipsoid_1e20", spec("ellipsoid", q=np.diag([1e20, 2e20, 3e20]))),
    # Where the off-centre ball's weights leave 2^(+-900), its kernel stands
    # aside and the generic solver answers.
    Entry("ball_off_1e-140", ball((5e-141, 0), 1e-140), kernel=False),
    # The defects, each with its reproducer.
    Entry("l1_1e6", spec("l1_ball", radius=1e6), queries=REPRODUCER,
          xfail=dict.fromkeys(("laws", "routes", "oracle"), L1_LIFT)),
    *(Entry(f"l1_1e{k}", spec("l1_ball", radius=10.0 ** k), queries=REPRODUCER,
            xfail=dict.fromkeys(("sweep", "laws", "routes", "oracle"), L1_LIFT))
      for k in (12, 16)),
    Entry("box_1e200", spec("box", halfwidths=(1e200, 1e200)), xfail={"build": OVER_2_512}),
    Entry("l1_1e200", spec("l1_ball", radius=1e200),
          xfail=dict.fromkeys(("sweep", "laws", "routes", "oracle"), OVER_2_512)),
    Entry("ball0_1e200", ball((0, 0), 1e200),
          xfail=dict.fromkeys(("sweep", "laws", "routes"), OVER_2_512)),
    Entry("ball_off_5e16", ball((5e16, 0), 1e17), queries=REPRODUCER,
          xfail={"routes": ITEM_8}),
    Entry("ball_off_1e140", ball((5e139, 0, 0), 1e140), kernel=False,
          xfail=dict.fromkeys(("sweep", "laws"), ITEM_8)),
    Entry("ellipsoid_tiny_alpha", spec("ellipsoid", q=np.diag([1e-100, 2e-100])),
          queries=((np.ones(2), -1.0),), xfail=dict.fromkeys(("sweep", "routes"), ITEM_8)),
    Entry("power_0_8", lambda: PowerSet(0.8), bounded=False, kernel=False,
          queries=((np.array([1.0, 1e-3]), -0.5),),
          xfail=dict.fromkeys(("sweep", "laws"), ITEM_8)),
]

CATALOG = CORE + VARIANTS
BY_ID = {e.id: e for e in CATALOG}
