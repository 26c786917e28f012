"""Chunked, reproducible Monte Carlo driver, and the parallel map that runs
the package's chunked loops.

Streams are counter-based: chunk ``i`` (of ``_CHUNK`` samples) draws from a
Philox generator keyed by ``(seed, i)``, so estimates are bitwise
reproducible for a fixed (samples, seed) pair and chunks are independent.
A sampler fills its chunk in one pass, drawing its variates in a fixed
order from the chunk's stream.

Chunked loops (Monte Carlo chunks, tube row blocks, grid slices) run
through :func:`parallel_map` on one thread per core in the process's
affinity mask; ``taskset`` restricts them.  Each loop reduces its per-chunk
results in chunk order, so no result depends on how many cores there are.
Every grid scan (the sandwich's pointwise check, the meridian scans of the
inclusion check, of b(s) and of the grid inradius) runs through
:func:`grid_map`, one slice of ``_CHUNK`` flat indices per task, and
:func:`mc_mean` cuts its chunks the same way.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .kernels import binary_exponent

__all__ = ["MCConfig", "EstimateWithCI", "stream", "mc_mean"]


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# worker threads of parallel_map: the cores this process may run on
WORKERS = _cores()


def parallel_map(fn: Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]``, run on up to WORKERS threads.

    The results come back in input order, and the first exception raised by
    ``fn`` (in input order) reaches the caller.  numpy releases the
    interpreter lock inside its array loops, so chunks of array work overlap.
    """
    workers = min(WORKERS, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# samples per chunk of a Monte Carlo run, and flat indices per slice of a
# grid scan: one parallel task each (and one stream per chunk), so each
# thread holds one chunk's or one slice's arrays at a time
_CHUNK = 1 << 14


def grid_map(fn: Callable, n: int) -> list:
    """``fn(j)`` for the slices j of _CHUNK consecutive flat indices (int64
    arrays) that cover 0 .. n - 1, in order, on the parallel_map threads."""
    return parallel_map(lambda k: fn(np.arange(k, min(k + _CHUNK, n))), range(0, n, _CHUNK))


@dataclass(frozen=True)
class MCConfig:
    samples: int
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        _check_seed(self.seed)


class EstimateWithCI(NamedTuple):
    mean: float
    std_error: float
    n_samples: int

    def as_dict(self) -> dict:
        """The printed layout: mean, std_error and n."""
        return {"mean": self.mean, "std_error": self.std_error, "n": self.n_samples}


def _check_seed(seed: int):
    if not 0 <= seed < 1 << 64:  # a Philox key word
        raise ValueError("seed must be nonnegative and below 2**64")


def stream(seed: int, index: int) -> np.random.Generator:
    """Generator for chunk `index` of the run keyed by `seed`: Philox keyed by
    (seed, index) from counter 0."""
    _check_seed(seed)
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def mc_mean(sample: Callable[[np.random.Generator, int], np.ndarray], cfg: MCConfig) -> EstimateWithCI:
    """Estimate E[sample] with a standard error.

    `sample(rng, n)` must return n i.i.d. finite scalar draws from the chunk's
    :func:`stream` `rng`; a draw that is not finite raises ValueError.  The
    chunks are the slices of :func:`grid_map`, and a chunk holds the draws
    and one scaled copy of them, whose squared deviations are taken in
    place.  Each chunk scales its draws by 2^-e, e the binary exponent of
    its largest |draw|, before it sums them, and the chunks are combined on
    the largest e; scaling by a power of two changes no value, but keeps the
    sums and the squares of draws from the largest float down to the
    smallest normal ones finite and nonzero.  Per-chunk sums use numpy's
    pairwise summation; cross-chunk accumulation uses math.fsum, so the
    result does not depend on summation order beyond the fixed chunking,
    nor on how many threads :func:`parallel_map` runs the chunks on.  The
    variance keeps each chunk's squared deviations from its own mean and
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

    counts, sums, devs, exps = zip(*grid_map(moments, cfg.samples))
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
