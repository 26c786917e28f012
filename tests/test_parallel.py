"""The chunked loops give the same bytes on any number of worker threads."""
import math

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
def test_worker_count_changes_nothing(name, monkeypatch):
    # several chunks per run, the last one partial
    monkeypatch.setattr(montecarlo, "_CHUNK", 3_000)
    monkeypatch.setattr(montecarlo, "_GRID_SLICE", 12_000)
    outputs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "WORKERS", workers)
        outputs.append(repr(RUNS[name]()))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_sub_blocks_draw_the_same_numbers(monkeypatch):
    # a chunk drawn in sub-blocks is the chunk drawn at once
    cfg = MCConfig(samples=5_000, seed=8)
    for frame in (_frame(1, 1), _frame(2, 2), _frame(4, 4), _scaled_frame(4, 4), _scaled_frame(5, 3)):
        results = []
        for size in (1 << 30, 1_000):
            monkeypatch.setattr(determinants, "_SUB_BLOCK", size)
            results.append(repr(expected_absdet_mc(frame, cfg)))
        assert results[0] == results[1]


def test_shared_frames_factorize_nothing(monkeypatch):
    # a shared frame draws each |det| from its exact law, so no frame is
    # built or factorized; a frame that is not shared takes one QR per sub-block
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


def test_parallel_map_keeps_input_order(monkeypatch):
    monkeypatch.setattr(montecarlo, "WORKERS", 3)
    assert montecarlo.parallel_map(lambda x: x * x, range(50)) == [x * x for x in range(50)]
    assert montecarlo.parallel_map(math.sqrt, []) == []


def test_worker_errors_reach_the_caller(monkeypatch):
    monkeypatch.setattr(montecarlo, "WORKERS", 2)

    def fail_on_three(x):
        if x == 3:
            raise KeyError(x)
        return x

    with pytest.raises(KeyError):
        montecarlo.parallel_map(fail_on_three, range(8))

    with pytest.raises(ValueError, match="shape"):
        mc_mean(lambda rng, n: np.ones((n, 1)), CFG)
