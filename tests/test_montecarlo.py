"""Keyed SFC64 streams and the chunked mean estimator."""
import math

import numpy as np
import pytest
from scipy import stats

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
from gausszonoids import determinants


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


@pytest.mark.parametrize("seed, index", [(0, 0), (42, 3), (7, 1000), ((1 << 64) - 1, 0), ((1 << 64) - 1, 17)])
def test_stream_is_numpys_spawned_child(seed, index):
    # chunk i draws from SFC64 on child i of SeedSequence(seed)
    child = np.random.SeedSequence(seed).spawn(index + 1)[index]
    want = np.random.Generator(np.random.SFC64(child)).standard_normal(64)
    assert stream(seed, index).standard_normal(64).tobytes() == want.tobytes()


def test_chunk_streams_start_independent():
    # the first normal of 2,000 chunks of one run: N(0, 1), and consecutive
    # chunks uncorrelated (|r| under 4 standard errors of 1/sqrt(2000))
    n = 2_000
    first = np.array([stream(11, i).standard_normal() for i in range(n)])
    assert stats.kstest(first, "norm").pvalue > 1e-3
    assert abs(np.corrcoef(first[:-1], first[1:])[0, 1]) < 4 / math.sqrt(n)


def _shared_frame(m, k, s):
    c = np.zeros(m)
    c[0] = s
    return FrameSpec(m, [GaussianVector(np.eye(m), c) for _ in range(k)])


def _chi(rng, nu, n):
    return np.sqrt(2.0 * rng.standard_gamma(nu / 2, n))


def _shared_5x4(rng, n):
    # z, column 1's chi_4, the pair chi_3 chi_2 as one Gamma(3), the leftover chi_2
    z = rng.standard_normal(n)
    col1 = np.hypot(z + 2.0 * 0.7, _chi(rng, 4, n))
    pair = rng.standard_gamma(3.0, n)
    return col1 * pair * _chi(rng, 2, n)


def _shared_3x1(rng, n):
    # |c + xi| for |c| = 0.7: z, then chi_2
    z = rng.standard_normal(n)
    return np.hypot(0.7 + z, _chi(rng, 2, n))


_MEANS_5x3 = np.array([[1.0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0], [0, 0, 1.0, 0, 0]])


def _qr_5x3(rng, n):
    # the k x m normals of each sample in turn; sqrt det of the Gram matrix
    gamma = (rng.standard_normal((n, 3, 5)) + _MEANS_5x3).transpose(0, 2, 1)
    return np.sqrt(np.linalg.det(gamma.transpose(0, 2, 1) @ gamma))


def test_chunks_draw_their_variates_in_order(monkeypatch):
    # chunk i of a run is one pass over stream(seed, i): the variates of
    # each frame come in a fixed order, whatever the chunk size
    monkeypatch.setattr(montecarlo, "_CHUNK", 1_000)
    samplers = []
    monkeypatch.setattr(
        determinants, "mc_mean", lambda sample, cfg: samplers.append(sample) or mc_mean(sample, cfg)
    )
    qr_frame = FrameSpec(5, [GaussianVector(np.eye(5), c) for c in _MEANS_5x3])
    for frame, by_hand in (
        (_shared_frame(5, 4, 0.7), _shared_5x4),
        (_shared_frame(3, 1, 0.7), _shared_3x1),
        (qr_frame, _qr_5x3),
    ):
        est = expected_absdet_mc(frame, MCConfig(samples=2_500, seed=7))
        hand = [by_hand(stream(7, i), n) for i, n in enumerate((1_000, 1_000, 500))]
        assert est.mean == pytest.approx(np.mean(np.concatenate(hand)), rel=1e-13)
    # the 5 x 4 sampler's own products, in the same order: the same bytes
    for i in range(3):
        want = _shared_5x4(stream(7, i), 1_000)
        assert samplers[0](stream(7, i), 1_000).tobytes() == want.tobytes()


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


@pytest.mark.filterwarnings("error")
def test_mc_mean_error_survives_huge_draws(monkeypatch):
    # draws near 1e300 square past the largest float; each chunk scales its
    # draws by a power of two first, so the error scales exactly with them
    monkeypatch.setattr(montecarlo, "_CHUNK", 1 << 12)
    cfg = MCConfig(samples=10_000, seed=3)
    unit = mc_mean(lambda rng, n: rng.standard_normal(n) + 5.0, cfg)
    huge = mc_mean(lambda rng, n: 2.0**1000 * (rng.standard_normal(n) + 5.0), cfg)
    assert huge.mean == 2.0**1000 * unit.mean
    assert huge.std_error == 2.0**1000 * unit.std_error
    # each chunk's squares sum to 1.4e308, finite, but two chunks do not
    monkeypatch.setattr(montecarlo, "_CHUNK", 4)
    a = 6e153
    est = mc_mean(lambda rng, n: np.array([a, -a, a, -a][:n]), MCConfig(samples=8))
    assert est.mean == 0.0
    assert est.std_error == pytest.approx(a / 7**0.5, rel=1e-15)


def test_mc_mean_error_survives_tiny_draws():
    # the squares of draws near 1e-200 underflow to 0 unless they are scaled
    n = 20_000
    est = mc_mean(lambda rng, k: 1e-200 * np.abs(rng.standard_normal(k)), MCConfig(n, seed=1))
    se = 1e-200 * math.sqrt((1 - 2 / math.pi) / n)
    assert est.std_error == pytest.approx(se, rel=0.1, abs=0)


@pytest.mark.filterwarnings("error")
def test_mc_mean_of_draws_near_the_largest_float():
    # 1000 draws of 1e306 sum past the largest float unless they are scaled
    est = mc_mean(lambda rng, k: 1e306 + rng.standard_normal(k), MCConfig(1000, seed=0))
    assert math.isfinite(est.mean)
    assert est.mean == pytest.approx(1e306, rel=1e-14)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_mc_mean_refuses_a_draw_that_is_not_finite(monkeypatch, bad):
    # one bad draw in the second chunk: no mean, and no warning on the way
    monkeypatch.setattr(montecarlo, "_CHUNK", 1 << 12)

    def draw(rng, n):
        x = rng.standard_normal(n)
        x[-1] = bad if n < 1 << 12 else x[-1]
        return x

    with pytest.raises(ValueError, match="not finite"):
        mc_mean(draw, MCConfig((1 << 12) + 10, seed=0))


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
def test_stream_rejects_a_seed_outside_the_seed_range(seed):
    # the CLI's seeds are [0, 2^64); SeedSequence would take a larger one
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        stream(seed, 0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        MCConfig(samples=100, seed=seed)
    stream((1 << 64) - 1, 0).standard_normal(2)  # the largest seed
