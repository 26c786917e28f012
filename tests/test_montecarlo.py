"""Counter-based streams and the chunked mean estimator."""
import numpy as np
import pytest

from gausszonoids import (
    EstimateWithCI,
    FrameSpec,
    GaussianVector,
    MCConfig,
    expected_absdet_mc,
    mc_mean,
    montecarlo,
    stream,
)


def test_stream_is_deterministic():
    a = stream(42, 3).standard_normal(8)
    b = stream(42, 3).standard_normal(8)
    assert np.array_equal(a, b)


def test_stream_substreams_differ():
    a = stream(42, 0).standard_normal(8)
    b = stream(42, 1).standard_normal(8)
    c = stream(43, 0).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mc_mean_reproducible(monkeypatch):
    monkeypatch.setattr(montecarlo, "_CHUNK", 1 << 12)
    cfg = MCConfig(samples=30_000, seed=9)

    def draw(rng, n):
        return rng.standard_normal(n) ** 2

    first = mc_mean(draw, cfg)
    second = mc_mean(draw, cfg)
    assert first == second
    assert isinstance(first, EstimateWithCI)
    assert first.n_samples == 30_000


def test_mc_mean_matches_known_moment():
    # E xi^2 = 1 for standard normal; the z-score must be modest
    cfg = MCConfig(samples=200_000, seed=1)
    est = mc_mean(lambda rng, n: rng.standard_normal(n) ** 2, cfg)
    assert abs(est.mean - 1.0) < 4 * est.std_error
    # SE of the sample mean of chi^2_1 is sqrt(2/n)
    assert est.std_error == pytest.approx((2 / 200_000) ** 0.5, rel=0.05)


def test_mc_mean_constant_has_zero_error():
    cfg = MCConfig(samples=5_000, seed=0)
    est = mc_mean(lambda rng, n: np.full(n, 2.5), cfg)
    assert est.mean == 2.5
    assert est.std_error == 0.0


def test_mc_mean_error_survives_a_large_mean():
    # |det| of a 1x1 frame at s = 1e9 is s + xi: unit variance under a mean
    # of 1e9, where the one-pass sum(x^2) - n mean^2 cancels to 0
    n = 200_000
    frame = FrameSpec(1, [GaussianVector(np.eye(1), np.array([1e9]))])
    est = expected_absdet_mc(frame, MCConfig(samples=n, seed=0))
    assert est.std_error == pytest.approx(n**-0.5, rel=0.05)


def test_mc_mean_partial_final_chunk(monkeypatch):
    monkeypatch.setattr(montecarlo, "_CHUNK", 1 << 12)
    cfg = MCConfig(samples=(1 << 12) + 17, seed=5)
    est = mc_mean(lambda rng, n: np.ones(n), cfg)
    assert est.mean == 1.0
    assert est.n_samples == (1 << 12) + 17


def test_config_validation():
    with pytest.raises(ValueError):
        MCConfig(samples=0)
    with pytest.raises(ValueError):
        MCConfig(samples=100, seed=-1)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_stream_rejects_a_seed_outside_the_key_word(seed):
    # a Philox key word holds [0, 2^64); numpy would raise OverflowError
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        stream(seed, 0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        MCConfig(samples=100, seed=seed)
    stream((1 << 64) - 1, 0).standard_normal(2)  # the largest key word
