"""Grid scans, Monte Carlo chunks and printed tables hold a bounded working
set, and slicing them changes no value."""
import math
import tracemalloc

import numpy as np
import pytest

from gausszonoids import (
    FrameSpec,
    GaussianVector,
    GridSpec,
    MCConfig,
    ScalarFieldSpec,
    check_inclusion,
    envelope_sandwich,
    expected_absdet_mc,
    limit_body_inradius,
    limit_inradius_grid,
    montecarlo,
    sine_field,
)
from gausszonoids import geometry
from gausszonoids._tube import _section_volume_vec
from gausszonoids.cli import main

# the most memory any one of these runs may hold at once, in bytes: a slice
# of grid points per thread, not a grid
PEAK = 8 << 20


def _peak(fn) -> int:
    """Peak bytes allocated while fn runs; numpy reports its buffers to
    tracemalloc."""
    limit_body_inradius()  # a cached constant, not part of the scan
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


RUNS = {
    "sandwich-2d": lambda path: envelope_sandwich(
        sine_field(2, dim=2), 0.05, GridSpec(1024), r=0.05
    ),
    "inradius-grid": lambda path: limit_inradius_grid(10**6),
    "inclusion": lambda path: check_inclusion(6, 1.0, 10**6, 3),
    "profile": lambda path: main(
        ["zonoid", "profile", "--m", "2", "--s", "0,1,2,3", "--n", "20000", "--out", str(path)]
    ),
    # the JSON is written curve by curve, one column converted at a time
    "profile-json": lambda path: main(
        ["zonoid", "profile", "--m", "2", "--s", "0,1,2,3", "--n", "20000", "--format", "json",
         "--out", str(path)]
    ),
    # the --m/--k/--s frame repeats one vector, not one identity matrix per column
    "det-mc-160": lambda path: main(
        ["det", "mc", "--m", "160", "--k", "160", "--s", "1", "--samples", "200000",
         "--out", str(path)]
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_peak_memory_is_a_slice_per_thread(name, monkeypatch, tmp_path):
    monkeypatch.setattr(montecarlo, "WORKERS", 2)
    peak = _peak(lambda: RUNS[name](tmp_path / "profile.csv"))
    assert peak <= PEAK, f"{name} held {peak / 2**20:.1f} MB"


# a Monte Carlo chunk's variates, its draws and their scaled copy per
# thread, whatever the frame's size
CHUNK_PEAK = 3 << 20


@pytest.mark.parametrize("m", [2, 10, 60])
def test_shared_sampler_holds_sub_blocks(m, monkeypatch):
    monkeypatch.setattr(montecarlo, "WORKERS", 2)
    c = np.zeros(m)
    c[0] = 1.0
    frame = FrameSpec(m, [GaussianVector(np.eye(m), c) for _ in range(m)])
    assert frame.shared
    peak = _peak(lambda: expected_absdet_mc(frame, MCConfig(200_000, seed=3)))
    assert peak <= CHUNK_PEAK, f"{m}x{m} held {peak / 2**20:.1f} MB"


def _mixed_field():
    # depends on both coordinates, unlike the sine fields, so a point built
    # from the wrong index has another value
    def phi(p):
        return np.sin(p[..., 0]) + 0.5 * np.sin(2 * p[..., 1]) + 0.3

    def grad(p):
        return np.stack([np.cos(p[..., 0]), np.cos(2 * p[..., 1])], axis=-1)

    return ScalarFieldSpec(2, phi, grad, name="mixed")


def _full_grid_extremes(field, tau, n):
    """The sandwich's four pointwise extremes, from the whole n^m grid at once."""
    m = field.dim
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = np.stack([a.ravel() for a in np.meshgrid(t, t)][:m], axis=-1) if m == 2 else t[:, None]
    body, ell = _section_volume_vec(field, tau, pts, ("gaussian", "ellipsoid"))
    bm = limit_body_inradius() ** m
    ratio = body[ell > 1e-300] / ell[ell > 1e-300]
    return (
        float(np.max(bm * ell - body)),
        float(np.max(body - ell)),
        float(np.min(ratio)),
        float(np.max(ratio)),
    )


@pytest.mark.parametrize("field, tau, r, n, chunk", [
    (sine_field(2), 0.05, math.inf, 70_001, None),  # five slices, the last partial
    (sine_field(5), 0.3, math.inf, 3_001, 1_000),
    (sine_field(2, dim=2), 0.05, math.inf, 190, None),  # 36100 points: three slices
    (_mixed_field(), 0.1, 0.2, 515, 4_096),
])
def test_sliced_sandwich_is_the_full_grid(field, tau, r, n, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    assert (n**field.dim) % montecarlo._CHUNK != 0
    rep = envelope_sandwich(field, tau, GridSpec(n), r=r)
    got = (rep.max_lower_violation, rep.max_upper_violation, rep.min_ratio, rep.max_ratio)
    assert got == _full_grid_extremes(field, tau, n)


# at n = 26 and 76, (n - 1) * step rounds below pi/2
@pytest.mark.parametrize("n", [1, 2, 3, 26, 76, 1_000, 65_537, 10**6])
def test_inradius_grid_slices_are_linspace(n, monkeypatch):
    scans = []
    real = geometry._ring_scan
    monkeypatch.setattr(
        geometry, "_ring_scan", lambda *args: scans.append(args) or real(*args)
    )
    limit_inradius_grid(n)
    ((_, angles, size),) = scans
    t = np.concatenate(montecarlo.grid_map(angles, size))
    assert t.tobytes() == np.linspace(0.0, math.pi / 2, n).tobytes()
