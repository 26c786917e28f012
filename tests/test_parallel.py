"""The chunked loops give the same bytes at any grid slice size, and on a
rerun."""
import numpy as np
import pytest

from gausszonoids import (
    EstimateWithCI,
    FrameSpec,
    GaussianVector,
    GridSpec,
    MCConfig,
    TubeSpec,
    check_inclusion,
    envelope_sandwich,
    expected_absdet_mc,
    expected_zeros_integral,
    limit_inradius_grid,
    mc_mean,
    mc_zero_count_circle,
    montecarlo,
    sine_field,
    stream,
)
from gausszonoids import determinants

CFG = MCConfig(samples=10_000, seed=3)


def _frame(m, k, s=0.7):
    c = np.zeros(m)
    c[0] = s
    return FrameSpec(m, [GaussianVector(np.eye(m), c) for _ in range(k)])


def _scaled_frame(m, k):
    rng = np.random.default_rng(m)
    return FrameSpec(
        m, [GaussianVector(rng.standard_normal((m, m)), rng.standard_normal(m)) for _ in range(k)]
    )


RUNS = {
    "absdet-1x1": lambda: expected_absdet_mc(_frame(1, 1), CFG),
    "absdet-2x2": lambda: expected_absdet_mc(_frame(2, 2), CFG),
    "absdet-2x2-scaled": lambda: expected_absdet_mc(_scaled_frame(2, 2), CFG),
    "absdet-10x10": lambda: expected_absdet_mc(_frame(10, 10), CFG),
    "absdet-5x3": lambda: expected_absdet_mc(_scaled_frame(5, 3), CFG),
    "zeros-mc": lambda: mc_zero_count_circle(sine_field(2), TubeSpec(0.1, 0.1), CFG),
    "inclusion": lambda: check_inclusion(6, 1.0, n_dirs=50_000, seed=4),
    # 1024 rows of 1024 cells: four row blocks
    "integral-2d": lambda: expected_zeros_integral(
        sine_field(2, dim=2), TubeSpec(0.05, 0.05), GridSpec(1024)
    ),
    "sandwich-2d": lambda: envelope_sandwich(sine_field(2, dim=2), 0.05, GridSpec(1024), r=0.05),
    "inradius-grid": limit_inradius_grid,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_slice_size_changes_nothing(name, monkeypatch):
    # several Monte Carlo chunks per run, the last one partial; the grid
    # scans at the default slice and at 3,000 points, the last slice partial
    monkeypatch.setattr(montecarlo, "_CHUNK", 3_000)
    first = repr(RUNS[name]())
    monkeypatch.setattr(montecarlo, "_SLICE", 3_000)
    assert repr(RUNS[name]()) == first


def test_shared_frames_factorize_nothing(monkeypatch):
    # a shared frame draws each |det| from its exact law, so no frame is
    # built or factorized; a frame that is not shared takes one QR per chunk
    def one_block(sample, cfg):
        return EstimateWithCI(float(np.mean(sample(stream(2, 0), 500))), 0.0, 500)

    monkeypatch.setattr(determinants, "mc_mean", one_block)
    calls = []
    for name in ("det", "qr"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=real, _n=name, **kw: calls.append(_n) or _f(*a, **kw))
    for m, k in ((1, 1), (2, 2), (5, 3), (10, 10)):
        expected_absdet_mc(_frame(m, k), CFG)
    assert calls == []
    expected_absdet_mc(_scaled_frame(5, 3), CFG)
    assert calls == ["qr"]


def test_chunk_errors_reach_the_caller():
    # the slices run in order, and none after the first that raises
    seen = []

    def fail_on_three(j):
        seen.append(int(j[0]))
        if j[0] == 30:
            raise KeyError(30)
        return j

    with pytest.raises(KeyError):
        montecarlo.grid_map(fail_on_three, 80, 10)
    assert seen == [0, 10, 20, 30]

    with pytest.raises(ValueError, match="shape"):
        mc_mean(lambda rng, n: np.ones((n, 1)), CFG)
