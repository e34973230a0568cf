"""Workload catalog: set parameters, exact geometry and seeded query generation.

Every input the benchmark feeds the program comes from here and depends only on
the workload name and the seed.  The geometry (support function, gauge, member
sampling) is written out independently of ``homcone`` so that the generator
and the certificate do not trust the code they measure; only the projector P_C
is taken from the program, as the paper's method assumes.
"""

from __future__ import annotations

import numpy as np

#: Share of each branch in the generated query mix.  Counts are fixed per set,
#: not sampled, so every seed hits the mix exactly.
BRANCH_MIX = {"cone_interior": 0.8, "recession": 0.1, "already_in_k": 0.1}

#: Workload definitions.  ``sets`` lists (kind, dimension); ``per_set`` is the
#: number of distinct queries per set; ``scale`` bounds log10 of the query
#: scale t, drawn log-uniformly, and every query (y, s) is multiplied by t;
#: ``calibration`` names the kernel of ``calibrate.KERNELS`` whose code is
#: most like the workload's queries.
WORKLOADS = {
    "iter_small": {
        "why": "Python overhead and ~25 psi' calls per query dominate; the "
               "1e-9..1e12 scale spread exposes the homogeneity and overflow "
               "defects",
        "sets": [(k, n) for k in ("ball_off", "box", "l1", "simplex", "ellipsoid")
                 for n in (2, 10)],
        "per_set": 200,
        "scale": (-9.0, 12.0),
        "calibration": "small",
    },
    "iter_large": {
        "why": "the projector kernel takes most of the query time, so kernel "
               "changes show here and overhead-only changes show little",
        "sets": [("box", 20000), ("l1", 20000), ("simplex", 20000),
                 ("ball_off", 20000), ("ellipsoid", 500)],
        "per_set": 20,
        "scale": (-0.3, 0.3),
        "calibration": "large",
    },
    "closed_form": {
        "why": "zero projector and psi' calls: solver changes must leave it flat "
               "and a slower exact formula shows here",
        "sets": [(k, n) for k in ("ball0", "ball_pen") for n in (2, 10, 1000)],
        "per_set": 200,
        "scale": (-9.0, 12.0),
        "calibration": "small",
    },
    "cli_project": {
        "why": "the only workload that runs the homcone process; import time "
               "dominates each run",
        "sets": [("ball_off", 2), ("box", 3), ("l1", 2), ("simplex", 3),
                 ("ellipsoid", 2), ("ball0", 2), ("ball_pen", 2)],
        "per_set": 1,
        "scale": (0.0, 0.0),
        "calibration": None,
    },
}

#: Seed of the set parameters; the run's seed draws only the queries.
CATALOG_SEED = 20220606

#: Workloads on which homcone 0.1.0 fails some queries through its absolute
#: tolerance on alpha (wrong answers, MaxIterationsExceeded) and overflow at
#: large scale (IndexError).  They are counted as failures; on every other
#: workload a single failed query marks the run incorrect.
KNOWN_FAILING = {"iter_small", "iter_large"}


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


class Geometry:
    """Exact facts about one cataloged set, independent of ``homcone``."""

    bounded = True

    def support(self, y):
        raise NotImplementedError

    def gauge(self, y):
        raise NotImplementedError

    def member(self, rng, lam):
        """A point lam * c with c in C, 0 < lam < 1, so strictly inside C."""
        raise NotImplementedError

    def project_recession(self, y):
        return np.zeros_like(y)

    def rec_support(self, y):
        """sigma_C(y - P_rec(y)): (y, s) has alpha* = 0 iff s <= -rec_support(y)."""
        return self.support(y - self.project_recession(y))


class Ball(Geometry):
    def __init__(self, center, radius):
        self.center, self.radius = center, radius
        self.spec = {"type": "euclidean_ball", "center": center.tolist(),
                     "radius": radius}

    def support(self, y):
        return float(self.center @ y) + self.radius * float(np.linalg.norm(y))

    def gauge(self, y):
        # Smallest g > 0 with ||y - g c|| <= g r, the positive root of
        # g^2 (r^2 - |c|^2) + 2 g <y, c> - |y|^2 = 0.
        a = self.radius ** 2 - float(self.center @ self.center)
        b = float(y @ self.center)
        return (-b + np.sqrt(b * b + a * float(y @ y))) / a

    def member(self, rng, lam):
        return lam * (self.center + rng.uniform(0.0, 1.0) * self.radius
                      * _unit(rng, self.center.size))


class Box(Geometry):
    def __init__(self, halfwidths):
        self.h = halfwidths
        self.spec = {"type": "box", "halfwidths": halfwidths.tolist()}

    def support(self, y):
        return float(self.h @ np.abs(y))

    def gauge(self, y):
        return float(np.max(np.abs(y) / self.h))

    def member(self, rng, lam):
        return lam * rng.uniform(-1.0, 1.0, self.h.size) * self.h


class L1(Geometry):
    def __init__(self, radius, dim):
        self.radius, self.dim = radius, dim
        self.spec = {"type": "l1_ball", "radius": radius, "dim": dim}

    def support(self, y):
        return self.radius * float(np.max(np.abs(y)))

    def gauge(self, y):
        return float(np.sum(np.abs(y))) / self.radius

    def member(self, rng, lam):
        e = rng.exponential(size=self.dim)
        return lam * self.radius * np.sign(rng.normal(size=self.dim)) * e / e.sum()


class Simplex(Geometry):
    def __init__(self, dim):
        self.dim = dim
        self.spec = {"type": "simplex", "dim": dim}

    def support(self, y):
        return max(0.0, float(np.max(y)))

    def gauge(self, y):
        return float(np.sum(y)) if np.min(y) >= 0.0 else np.inf

    def member(self, rng, lam):
        e = rng.exponential(size=self.dim)
        return lam * e / e.sum()


class Ellipsoid(Geometry):
    """{x : <x, Qx> <= 1} with Q = U diag(w) U^T."""

    def __init__(self, u, w):
        self.u, self.w = u, w
        self.q = (u * w) @ u.T
        self.spec = {"type": "ellipsoid", "q": self.q.tolist()}

    def support(self, y):
        return float(np.linalg.norm((self.u.T @ y) / np.sqrt(self.w)))

    def gauge(self, y):
        return float(np.linalg.norm((self.u.T @ y) * np.sqrt(self.w)))

    def member(self, rng, lam):
        return self.u @ (lam * _unit(rng, self.w.size) / np.sqrt(self.w))


class BallPen(Geometry):
    """B(0, 1) + R+ d, unbounded with recession cone the ray R+ d."""

    bounded = False

    def __init__(self, direction):
        self.d = direction
        self.spec = {"type": "ball_pen", "direction": direction.tolist()}

    def project_recession(self, y):
        return max(0.0, float(self.d @ y)) * self.d

    def support(self, y):
        return float(np.linalg.norm(y)) if float(self.d @ y) <= 0.0 else np.inf

    def gauge(self, y):
        return float(np.linalg.norm(y - self.project_recession(y)))

    def rec_support(self, y):
        # y - P_rec(y) is orthogonal to d, so sigma_C of it is its norm; the
        # generic formula would see roundoff-positive <d, .> and return inf.
        return self.gauge(y)

    def member(self, rng, lam):
        return rng.uniform(0.0, 2.0) * self.d + lam * _unit(rng, self.d.size)


def make_geometry(kind, n, rng) -> Geometry:
    """Draw the parameters of one cataloged set."""
    if kind == "ball_off":
        return Ball(0.5 * _unit(rng, n), 1.0)
    if kind == "ball0":
        return Ball(np.zeros(n), float(rng.uniform(0.5, 2.0)))
    if kind == "box":
        return Box(rng.uniform(0.5, 2.0, n))
    if kind == "l1":
        return L1(float(rng.uniform(0.5, 2.0)), n)
    if kind == "simplex":
        return Simplex(n)
    if kind == "ellipsoid":
        u, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return Ellipsoid(u, np.exp(rng.uniform(np.log(0.25), np.log(4.0), n)))
    if kind == "ball_pen":
        return BallPen(_unit(rng, n))
    raise ValueError(f"unknown set kind {kind!r}")


def build_set(hc, geom):
    """Construct the program's set object for a geometry (the timed set-up)."""
    if isinstance(geom, Ball):
        return hc.EuclideanBall(geom.center, geom.radius)
    if isinstance(geom, Box):
        return hc.Box(geom.h)
    if isinstance(geom, L1):
        return hc.L1Ball(geom.radius, geom.dim)
    if isinstance(geom, Simplex):
        return hc.Simplex(geom.dim)
    if isinstance(geom, Ellipsoid):
        return hc.Ellipsoid(geom.q)
    return hc.BallPen(geom.d)


def branch_counts(per_set):
    """Exact number of queries per branch for one set."""
    rec = round(per_set * BRANCH_MIX["recession"])
    ink = round(per_set * BRANCH_MIX["already_in_k"])
    return {"cone_interior": per_set - rec - ink, "recession": rec,
            "already_in_k": ink}


def make_query(geom, branch, rng, n, frac, norm):
    """One unit-scale query (y, s) on the given branch, away from its edges.

    ``frac`` in [0, 1) places s within the branch's interval and ``norm`` is
    ||y||; both are drawn stratified by ``generate``.
    """
    frac = 0.05 + 0.9 * frac
    if branch == "already_in_k":
        s = 0.5 + 1.5 * frac
        return s * geom.member(rng, rng.uniform(0.2, 0.9)), s
    y = norm * _unit(rng, n)
    lo = -geom.rec_support(y)
    if branch == "recession":
        return y, lo - frac * float(np.linalg.norm(y))
    hi = geom.gauge(y)
    if not np.isfinite(hi):
        hi = abs(lo) + 2.0 * float(np.linalg.norm(y))
    return y, lo + frac * (hi - lo)


def _strata(rng, count):
    """One uniform draw in each of ``count`` equal slices of [0, 1), shuffled."""
    return rng.permutation((np.arange(count) + rng.uniform(size=count)) / count)


def generate(workload, seed):
    """Sets and queries of a workload; the seed draws the queries.

    Returns (geometries, queries) where each query is a tuple
    (set_index, y, s, branch, scale); queries are shuffled across sets.
    """
    spec = WORKLOADS[workload]
    # The set parameters are part of the workload and the same for every
    # seed, so that runs on different seeds time the same sets.
    fixed = np.random.default_rng([CATALOG_SEED, sorted(WORKLOADS).index(workload)])
    geoms = [make_geometry(kind, n, fixed) for kind, n in spec["sets"]]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    lo, hi = spec["scale"]
    queries = []
    for i, ((_, n), geom) in enumerate(zip(spec["sets"], geoms)):
        for branch, count in branch_counts(spec["per_set"]).items():
            # Scale (log-uniform over [lo, hi]), position within the branch
            # and ||y|| (uniform over [0.5, 2]) are each stratified, so every
            # seed covers their ranges alike and only the draws within the
            # slices and the directions change.
            for u, frac, v in zip(*(_strata(rng, count) for _ in range(3))):
                y, s = make_query(geom, branch, rng, n, frac, 0.5 + 1.5 * v)
                t = 10.0 ** (lo + (hi - lo) * u)
                queries.append((i, t * y, t * s, branch, t))
    order = rng.permutation(len(queries))
    return geoms, [queries[j] for j in order]
