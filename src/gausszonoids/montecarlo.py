"""Chunked, reproducible Monte Carlo driver, and the slicing of grid scans.

Streams are keyed: chunk ``i`` (of ``_CHUNK`` samples) draws from numpy's
SFC64 generator on ``SeedSequence(seed, spawn_key=(i,))``, child ``i`` of
``SeedSequence(seed)``, so estimates are bitwise reproducible for a fixed
(samples, seed) pair, whatever order the chunks run in.  The seed sequence
hashes (seed, i) into the chunk's state, and SFC64's 64-bit counter gives
every state a cycle of at least 2^64 draws.
A sampler fills its chunk in one pass, drawing its variates in a fixed
order from the chunk's stream.

Chunked loops (Monte Carlo chunks, tube row blocks, grid slices) are plain
loops, run in order on the calling thread, which reuses the heap pages of
each chunk for the next.  Every grid scan (the sandwich's pointwise check,
the meridian scans of the inclusion check, of b(s) and of the grid
inradius) runs through :func:`grid_map`, one slice of ``_SLICE`` flat
indices at a time, and :func:`mc_mean` cuts its chunks of ``_CHUNK``
samples the same way.  Only the Monte Carlo draws depend on a size, that of
their chunks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .kernels import _count, binary_exponent

__all__ = ["MCConfig", "EstimateWithCI", "stream", "mc_mean"]


# samples per chunk of a Monte Carlo run, one stream each
_CHUNK = 1 << 14
# flat indices per slice of a grid scan: each slice reuses the heap pages of
# the one before (a 10^6-point scan takes about 50 minor page faults, where
# slices of 2^14 points took 12-18 thousand, fresh pages for every slice)
_SLICE = 1 << 13
# the largest seed, that of the CLI
_SEED_MAX = (1 << 64) - 1


def grid_map(fn: Callable, n: int, size: int | None = None) -> list:
    """``[fn(j) ...]`` for the slices j of ``size`` (default _SLICE)
    consecutive flat indices (int64 arrays) that cover 0 .. n - 1, in order."""
    size = size or _SLICE
    return [fn(np.arange(k, min(k + size, n))) for k in range(0, n, size)]


@dataclass(frozen=True)
class MCConfig:
    samples: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "samples", _count("samples", self.samples))
        object.__setattr__(self, "seed", _count("seed", self.seed, 0, _SEED_MAX))


class EstimateWithCI(NamedTuple):
    mean: float
    std_error: float
    n_samples: int

    def as_dict(self) -> dict:
        """The printed layout: mean, std_error and n."""
        return {"mean": self.mean, "std_error": self.std_error, "n": self.n_samples}


def stream(seed: int, index: int) -> np.random.Generator:
    """Generator for chunk `index` of the run keyed by `seed`: SFC64 seeded by
    child `index` of ``SeedSequence(seed)``, that is by
    ``SeedSequence(seed).spawn(index + 1)[index]``."""
    seq = np.random.SeedSequence(
        _count("seed", seed, 0, _SEED_MAX), spawn_key=(_count("index", index, 0),)
    )
    return np.random.Generator(np.random.SFC64(seq))


def mc_mean(sample: Callable[[np.random.Generator, int], np.ndarray], cfg: MCConfig) -> EstimateWithCI:
    """Estimate E[sample] with a standard error.

    `sample(rng, n)` must return n i.i.d. finite scalar draws from the chunk's
    :func:`stream` `rng`; a draw that is not finite raises ValueError.  The
    chunks are the slices of :func:`grid_map` of _CHUNK samples, and a chunk
    holds the draws and one scaled copy of them, whose squared deviations
    are taken in place.  Each chunk scales its draws by 2^-e, e the binary
    exponent of its largest |draw|, before it sums them, and the chunks are
    combined on the largest e; scaling by a power of two changes no value,
    but keeps the sums and the squares of draws from the largest float down
    to the smallest normal ones finite and nonzero.  Per-chunk sums use
    numpy's pairwise summation; cross-chunk accumulation uses math.fsum, so
    the result does not depend on summation order beyond the fixed chunking.
    The variance keeps each chunk's squared deviations from its own mean and
    adds the spread of the chunk means (Chan, Golub & LeVeque), so it does
    not cancel when the mean is large against the spread.
    """

    def moments(j: np.ndarray) -> tuple[int, float, float, int]:
        n = j.size  # j: the indices of the chunk's samples
        values = np.asarray(sample(stream(cfg.seed, int(j[0]) // _CHUNK), n), dtype=float)
        if values.shape != (n,):
            raise ValueError(f"sample() returned shape {values.shape}, expected ({n},)")
        e = binary_exponent(values)
        values = np.ldexp(values, -e)
        total = float(np.sum(values))
        if not math.isfinite(total):  # n finite draws below 1 in size sum to at most n
            raise ValueError("a draw is not finite: it exceeds the float range or is undefined")
        values -= total / n  # the squared deviations, in place
        return n, total, float(np.sum(np.square(values, out=values))), e

    counts, sums, devs, exps = zip(*grid_map(moments, cfg.samples, _CHUNK))
    n, e = cfg.samples, max(exps)  # every chunk on the scale 2^-e of the largest draw
    sums = [math.ldexp(t, x - e) for t, x in zip(sums, exps)]
    mean = math.fsum(sums) / n
    if n > 1:
        spread = math.fsum(k * (t / k - mean) ** 2 for k, t in zip(counts, sums))
        inner = math.fsum(math.ldexp(d, 2 * (x - e)) for d, x in zip(devs, exps))
        se = math.ldexp(math.sqrt((inner + spread) / (n - 1) / n), e)
    else:
        se = float("inf")
    return EstimateWithCI(mean=math.ldexp(mean, e), std_error=se, n_samples=n)
