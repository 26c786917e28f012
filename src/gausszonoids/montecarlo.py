"""Chunked, reproducible Monte Carlo driver.

Streams are counter-based: chunk ``i`` of a run draws from a Philox generator
keyed by ``(seed, i)``, so estimates are bitwise reproducible for a fixed
(samples, seed, chunk) triple and chunks are independent by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["MCConfig", "EstimateWithCI", "stream", "mc_mean"]


@dataclass(frozen=True)
class MCConfig:
    samples: int
    seed: int = 0
    chunk: int = 1 << 16

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


class EstimateWithCI(NamedTuple):
    mean: float
    std_error: float
    n_samples: int


def stream(seed: int, index: int) -> np.random.Generator:
    """Generator for chunk `index` of the run keyed by `seed`."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def mc_mean(sample: Callable[[np.random.Generator, int], np.ndarray], cfg: MCConfig) -> EstimateWithCI:
    """Estimate E[sample] with a standard error.

    `sample(rng, n)` must return n i.i.d. scalar draws.  Per-chunk sums use
    numpy's pairwise summation; cross-chunk accumulation uses math.fsum, so
    the result does not depend on summation order beyond the fixed chunking.
    The variance keeps each chunk's squared deviations from its own mean and
    adds the spread of the chunk means (Chan, Golub & LeVeque), so it does not
    cancel when the mean is large against the spread.
    """
    counts: list[int] = []
    sums: list[float] = []
    devs: list[float] = []
    done = 0
    index = 0
    while done < cfg.samples:
        n = min(cfg.chunk, cfg.samples - done)
        values = np.asarray(sample(stream(cfg.seed, index), n), dtype=float)
        if values.shape != (n,):
            raise ValueError(f"sample() returned shape {values.shape}, expected ({n},)")
        total = float(np.sum(values))
        counts.append(n)
        sums.append(total)
        devs.append(float(np.sum((values - total / n) ** 2)))
        done += n
        index += 1
    n = cfg.samples
    mean = math.fsum(sums) / n
    if n > 1:
        spread = math.fsum(k * (t / k - mean) ** 2 for k, t in zip(counts, sums))
        var = (math.fsum(devs) + spread) / (n - 1)
        se = math.sqrt(var / n)
    else:
        se = float("inf")
    return EstimateWithCI(mean=mean, std_error=se, n_samples=n)
