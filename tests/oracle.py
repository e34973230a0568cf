"""Brute-force verification oracles, independent of the analytic paths they check.

Two oracles: a grid-plus-golden-section minimizer of psi, and a sampled lower
bound on the support function built from explicit members of the set.  Both
draw randomness from a counter-based generator (Philox) keyed by the config
seed, so results reproduce bit for bit for a fixed seed.  The environment
variable ``HOMCONE_SEED`` overrides the default seed.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from homcone.sets import (
    BallPen,
    Box,
    Ellipsoid,
    EuclideanBall,
    Hyperbolic,
    L1Ball,
    PBall,
    Simplex,
    as_vector,
)

DEFAULT_SEED = 20220531

#: Scale of the far probes used to detect unbounded support directions.
_PROBE_SCALE = 1e6


def _default_seed() -> int:
    return int(os.environ.get("HOMCONE_SEED", DEFAULT_SEED))


@dataclass
class OracleConfig:
    grid_points: int = 100_000
    alpha_max: float = 1e3
    samples: int = 200_000
    seed: int | None = None

    def __post_init__(self):
        if self.grid_points < 100:
            raise ValueError("grid_points must be at least 100")
        if self.alpha_max <= 0 or self.samples < 1:
            raise ValueError("alpha_max must be positive and samples >= 1")
        if self.seed is None:
            self.seed = _default_seed()

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self.seed))


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, a, b, tol=1e-8):
    """Golden-section minimization of a unimodal f on [a, b]."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    while abs(d - c) > tol:
        if f(c) < f(d):
            b = d
        else:
            a = c
        c = b - _INV_PHI * (b - a)
        d = a + _INV_PHI * (b - a)
    return 0.5 * (a + b)


def brute_force_alpha_star(ev, cfg: OracleConfig | None = None) -> float:
    """Grid scan of psi over [0, alpha_max] refined by golden-section search.

    Strict convexity of psi makes the refinement inside the bracketing grid
    cell exact up to the stopping width (1e-8).
    """
    cfg = cfg or OracleConfig()
    grid = np.linspace(0.0, cfg.alpha_max, cfg.grid_points)
    values = [ev.psi(a) for a in grid]
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, cfg.grid_points - 1)]
    return max(_golden_section(ev.psi, lo, hi), 0.0)


# ---------------------------------------------------------------------------
# Member sampling
# ---------------------------------------------------------------------------

def _unit_rows(rng, n, dim):
    w = rng.normal(size=(n, dim))
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return w / norms


def _ball_members(rng, n, dim, center, radius):
    n_int = n // 2
    u = _unit_rows(rng, n, dim)
    radii = radius * rng.random(n_int) ** (1.0 / dim)
    interior = center + u[:n_int] * radii[:, None]
    boundary = center + radius * u[n_int:]
    return np.vstack([interior, boundary])


def sample_members(set_, n, rng) -> np.ndarray:
    """Return an (m, dim) array of points of the set, m >= n.

    Mixes random interior points with boundary (and, for polytopes, vertex)
    points so that the sampled support supremum is tight.  Every returned row
    satisfies the set's defining inequalities up to roundoff.
    """
    dim = set_.dim
    zero = np.zeros((1, dim))

    if isinstance(set_, EuclideanBall):
        pts = _ball_members(rng, n, dim, set_.center, set_.radius)
    elif isinstance(set_, Box):
        pts = set_.halfwidths * rng.uniform(-1.0, 1.0, size=(n, dim))
        if dim <= 12:
            corners = np.array(list(itertools.product((-1.0, 1.0), repeat=dim)))
            pts = np.vstack([pts, set_.halfwidths * corners])
        else:
            signs = rng.choice((-1.0, 1.0), size=(n // 4, dim))
            pts = np.vstack([pts, set_.halfwidths * signs])
    elif isinstance(set_, L1Ball):
        w = rng.dirichlet(np.ones(dim), size=n)
        signs = rng.choice((-1.0, 1.0), size=(n, dim))
        scale = np.concatenate(
            [rng.random(n // 2), np.ones(n - n // 2)]
        )  # interior then boundary
        pts = set_.radius * scale[:, None] * signs * w
        vertices = set_.radius * np.vstack([np.eye(dim), -np.eye(dim)])
        pts = np.vstack([pts, vertices])
    elif isinstance(set_, Simplex):
        w = rng.dirichlet(np.ones(dim + 1), size=n)
        pts = w[:, 1:]
        pts = np.vstack([pts, np.eye(dim)])
    elif isinstance(set_, PBall):
        w = rng.normal(size=(n, dim))
        if math.isinf(set_.p):
            u = w / np.max(np.abs(w), axis=1, keepdims=True)
        else:
            u = w / (np.sum(np.abs(w) ** set_.p, axis=1, keepdims=True)
                     ** (1.0 / set_.p))
        n_int = n // 2
        scale = np.concatenate([rng.random(n_int) ** (1.0 / dim),
                                np.ones(n - n_int)])
        pts = set_.radius * scale[:, None] * u
        pts = np.vstack([pts, set_.radius * np.vstack([np.eye(dim), -np.eye(dim)])])
    elif isinstance(set_, Ellipsoid):
        ball = _ball_members(rng, n, dim, np.zeros(dim), 1.0)
        transform = set_._evecs @ np.diag(set_._evals ** -0.5) @ set_._evecs.T
        pts = ball @ transform.T
    elif isinstance(set_, BallPen):
        ball = _ball_members(rng, n // 2, dim, np.zeros(dim), 1.0)
        t = rng.uniform(0.0, 10.0, size=n - n // 2)
        shifted = (ball[: t.size] if t.size <= ball.shape[0]
                   else np.vstack([ball] * (t.size // ball.shape[0] + 1))[: t.size])
        pts = np.vstack([ball, shifted + t[:, None] * set_.direction])
    elif isinstance(set_, Hyperbolic):
        t = rng.uniform(-50.0, 50.0, size=n)
        x1 = 1.0 - np.hypot(1.0, t) - rng.exponential(1.0, size=n) * (
            rng.random(n) < 0.5
        )
        pts = np.column_stack([x1, t])
    else:
        raise TypeError(f"no sampler for {type(set_).__name__}")

    return np.vstack([pts, zero])


def _far_probes(set_):
    """Far-out members along candidate recession directions, if any."""
    if isinstance(set_, BallPen):
        return [_PROBE_SCALE * set_.direction]
    if isinstance(set_, Hyperbolic):
        t = _PROBE_SCALE
        return [
            np.array([1.0 - math.hypot(1.0, t), t]),
            np.array([1.0 - math.hypot(1.0, t), -t]),
            np.array([-_PROBE_SCALE, 0.0]),
        ]
    return []


def sampled_support(set_, y, cfg: OracleConfig | None = None) -> float:
    """Maximum of <c, y> over sampled members of the set.

    A guaranteed lower bound on the support function.  Returns math.inf when
    far probes along recession directions reveal unbounded growth; this is a
    reported value, not an exception.
    """
    cfg = cfg or OracleConfig()
    y = as_vector(y, set_.dim)
    pts = sample_members(set_, cfg.samples, cfg.rng())
    best = float(np.max(pts @ y))
    for probe in _far_probes(set_):
        if float(probe @ y) > best + 1.0:
            return math.inf
    return best
