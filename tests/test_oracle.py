import math

import numpy as np
import pytest

from homcone import (
    BallPen,
    EuclideanBall,
    Hyperbolic,
    PsiEvaluator,
    Simplex,
)
from oracle import OracleConfig, brute_force_alpha_star, sample_members, sampled_support
from set_catalog import CORE, pairs

FAST = OracleConfig(grid_points=2000, alpha_max=60.0, samples=20_000, seed=99)


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(grid_points=10)
    with pytest.raises(ValueError):
        OracleConfig(alpha_max=-1.0)


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("HOMCONE_SEED", "12345")
    assert OracleConfig().seed == 12345
    monkeypatch.delenv("HOMCONE_SEED")
    assert OracleConfig().seed == 20220531


def test_oracle_reproducible_bit_for_bit():
    set_ = EuclideanBall((0.3, -0.2), 1.0)
    y = (1.7, -2.4)
    a = sampled_support(set_, y, OracleConfig(samples=5000, seed=7))
    b = sampled_support(set_, y, OracleConfig(samples=5000, seed=7))
    c = sampled_support(set_, y, OracleConfig(samples=5000, seed=8))
    assert a == b
    assert a != c


def test_brute_force_reference_instance():
    ev = PsiEvaluator(EuclideanBall((1.0, 0.0), 1.0), (1.0, 2.0), 1.0)
    assert brute_force_alpha_star(ev, FAST) == pytest.approx(1.4597189, abs=1e-5)


def test_brute_force_ice_cream():
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (3.0, 4.0), 0.0)
    assert brute_force_alpha_star(ev, FAST) == pytest.approx(2.5, abs=1e-6)


def test_brute_force_zero_minimizer():
    ev = PsiEvaluator(EuclideanBall((0.0, 0.0), 1.0), (0.0, 0.0), -1.0)
    assert brute_force_alpha_star(ev, FAST) == pytest.approx(0.0, abs=1e-7)


def test_sampled_support_examples():
    assert sampled_support(
        EuclideanBall((0.0, 0.0), 1.0), (0.0, 3.0), OracleConfig(seed=1, samples=200_000)
    ) == pytest.approx(3.0, abs=1e-2)
    assert sampled_support(Simplex(3), (0.0, 0.0, 0.0), FAST) == 0.0
    assert sampled_support(Simplex(3), (-1.0, -2.0, -3.0), FAST) == pytest.approx(
        0.0, abs=1e-12
    )


def test_sampled_support_reports_unbounded():
    pen = BallPen((0.0, 1.0))
    assert sampled_support(pen, (0.0, 1.0), FAST) == math.inf
    assert sampled_support(pen, (1.0, 1.0), FAST) == math.inf
    assert sampled_support(Hyperbolic(), (1.0, 2.0), FAST) == math.inf
    assert sampled_support(Hyperbolic(), (-0.5, 0.0), FAST) == math.inf


def test_sampled_support_never_exceeds_closed_form():
    rng = np.random.default_rng(51)
    for _, set_ in pairs(CORE):
        for _ in range(20):
            y = rng.normal(size=set_.dim) * 3.0
            got = sampled_support(set_, y, FAST)
            sigma = set_.support(y)
            if math.isinf(got):
                assert math.isinf(sigma)
            else:
                assert got <= sigma + 1e-9


def test_sampled_support_tight_for_bounded_sets():
    cfg = OracleConfig(seed=3, samples=200_000)
    rng = np.random.default_rng(52)
    for _, set_ in pairs(CORE, bounded=True):
        for _ in range(2):
            y = rng.normal(size=set_.dim) * 3.0
            sigma = set_.support(y)
            assert sampled_support(set_, y, cfg) == pytest.approx(sigma, abs=1e-2)


def test_sample_members_are_members():
    rng = np.random.default_rng(53)
    for _, set_ in pairs(CORE):
        pts = sample_members(set_, 2000, rng)
        for p in pts[:: max(1, len(pts) // 200)]:
            assert set_.contains(p, tol=1e-9)
