"""The benchmark's workloads: gausszonoids CLI invocations and the oracle
checks applied to what each one prints.

An op is one CLI invocation.  Its checks name oracle requests (see
``oracles.evaluate``), so the stored reference values never come from the
code under test.  A probe is an op kept out of the timed set because it is a
known defect at the time of writing; its verdict is reported on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# Fewer correct digits than this fails an op.  The gates are sanity bounds;
# the digits actually reached are reported as min_digits.
CLOSED_FORM = 12.0  # closed forms evaluated in double precision
ARGMIN = 6.0  # an argmin in double precision is good to about sqrt(eps)
GRID_MIN = 8.0  # minimum over a 1e6-point grid
VOLUME_QUAD = 4.0  # adaptive quadrature of the meridian integral
LEVEL_QUAD = 10.0  # 1-D tube integral with exact boundaries, coarea levels
GRID_2D = 2.0  # 2-D tube integral, first order in the cell size

SE_TOLERANCE = 0.05  # reported SE vs analytic SE, relative
MEAN_SE_MULTIPLE = 4.0  # MC mean vs exact mean, in reported SEs


@dataclass(frozen=True)
class Value:
    """A deterministic number in the output, compared with an oracle."""

    path: str
    oracle: tuple
    min_digits: float


@dataclass(frozen=True)
class MC:
    """A Monte Carlo mean and its reported standard error.

    ``oracle`` is the exact mean, when known.  ``var`` is the exact variance
    of one sample; ``ex2`` the exact second moment, used with the reported
    mean when the exact mean is unknown.  With either, the reported SE must
    be within SE_TOLERANCE of the analytic one."""

    mean: str
    se: str
    n: str | None = None  # where the output prints the sample count; None: the op's size
    oracle: tuple | None = None
    var: tuple | None = None
    ex2: tuple | None = None


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    values: tuple[Value, ...] = ()
    mc: tuple[MC, ...] = ()
    equal: tuple[tuple[str, object], ...] = ()
    size_flag: str | None = None  # flag carrying the scalable MC size
    size: int = 0
    seeded: bool = False
    # sample points the op processes, from its parsed output and its size
    samples: Callable[[dict, int], int] | None = None
    structure: Callable[[dict], list[str]] | None = None
    probe: str | None = None  # the known defect a probe keeps visible

    def command(self, scale: float, seed: int) -> list[str]:
        argv = list(self.argv)
        if self.size_flag:
            argv += [self.size_flag, str(self.scaled_size(scale))]
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv

    def scaled_size(self, scale: float) -> int:
        return max(1000, int(self.size * scale)) if self.probe is None else self.size


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]

    @property
    def timed(self) -> tuple[Op, ...]:
        return tuple(op for op in self.ops if op.probe is None)

    @property
    def probes(self) -> tuple[Op, ...]:
        return tuple(op for op in self.ops if op.probe is not None)


def _path_sum(*paths):
    def count(out, size):
        total = 0
        for p in paths:
            total += int(lookup(out, p))
        return total

    return count


def _rows_times_size(out, size):
    return len(out["rows"]) * size


def _grid_cells(n: int, dim: int):
    def count(out, size):
        return n**dim

    return count


def key(request: tuple) -> str:
    """Name of an oracle request in oracles.json."""
    return "|".join(str(part) for part in request)


def lookup(obj, path: str):
    for part in path.split("."):
        obj = obj[int(part)] if isinstance(obj, list) else obj[part]
    return obj


# -- bodies --------------------------------------------------------------------

PROFILE_S = (0.0, 1.0, 2.0, 3.0)
PROFILE_N = 20000


def _profile_rows() -> list[int]:
    """Rows away from the poles and the equator, where a one-ulp difference
    in theta cannot cost digits."""
    rows = []
    for j in range(0, PROFILE_N, 500):
        t = math.pi * j / (PROFILE_N - 1)
        if abs(math.cos(t)) >= 0.1 and math.sin(t) >= 0.1:
            rows.append(j)
    return rows


def _profile_values() -> tuple[Value, ...]:
    out = []
    for c, s in enumerate(PROFILE_S):
        for j in _profile_rows():
            row = f"rows.{c * PROFILE_N + j}"
            out.append(Value(f"{row}.theta", ("profile_theta", PROFILE_N, j), CLOSED_FORM))
            out.append(Value(f"{row}.axial", ("profile_axial", s, PROFILE_N, j), CLOSED_FORM))
            out.append(Value(f"{row}.radial", ("profile_radial", s, PROFILE_N, j), CLOSED_FORM))
    return tuple(out)


def _profile_structure(out) -> list[str]:
    rows = out["rows"]
    if len(rows) != len(PROFILE_S) * PROFILE_N:
        return [f"profile has {len(rows)} rows, expected {len(PROFILE_S) * PROFILE_N}"]
    problems = []
    for c, s in enumerate(PROFILE_S):
        curve = rows[c * PROFILE_N : (c + 1) * PROFILE_N]
        if any(r["s"] != s for r in curve):
            problems.append(f"profile curve {c} is not labelled s={s}")
        if any(b["axial"] >= a["axial"] for a, b in zip(curve, curve[1:])):
            problems.append(f"profile axial column not strictly decreasing at s={s}")
    return problems


def _volume_op(m: int, s: float) -> Op:
    return Op(
        name=f"volume-m{m}-s{s:g}",
        argv=("zonoid", "volume", "--m", str(m), "--s", repr(s)),
        values=(
            Value("volume", ("volume", m, s), VOLUME_QUAD),
            Value("bounds.upper", ("vol_upper", m, s), CLOSED_FORM),
            Value("bounds.lower", ("vol_lower", m, s), CLOSED_FORM),
            Value("bounds.lower_sharp", ("vol_lower_sharp", m, s), CLOSED_FORM),
            Value("asymptote_slope", ("vol_asymptote", m), CLOSED_FORM),
        ),
    )


def _inclusion_op(m: int, s: float, n: int) -> Op:
    return Op(
        name=f"inclusion-m{m}-s{s:g}",
        argv=("zonoid", "inclusion", "--m", str(m), "--s", repr(s)),
        values=(Value("limit_inradius", ("binfty",), CLOSED_FORM),),
        equal=(("verdict", "PASS"),),
        size_flag="--n",
        size=n,
        seeded=True,
        samples=_path_sum("n_dirs"),
    )


# Support, volume and inradius code of kernels and geometry.  The ops are
# short, so import is most of their wall time.
BODIES_OPS = (
    Op(
        name="binfty-check",
        argv=("binfty", "--check"),
        values=(
            Value("b_infinity", ("binfty",), CLOSED_FORM),
            Value("t_star", ("tstar",), ARGMIN),
            Value("check.grid_value", ("binfty",), GRID_MIN),
        ),
        equal=(("check.agrees", True),),
    ),
    _inclusion_op(6, 1.0, 1_000_000),
    _inclusion_op(3, 50.0, 1_000_000),
    _volume_op(1, 1200.0),
    _volume_op(2, 500.0),
    _volume_op(3, 2.0),
    _volume_op(8, 50.0),
    Op(
        name="profile-s0123",
        argv=("zonoid", "profile", "--m", "2", "--s", "0,1,2,3", "--n", str(PROFILE_N)),
        values=_profile_values(),
        structure=_profile_structure,
    ),
)


# -- det -----------------------------------------------------------------------


def _det_mc(m: int, s: float, n: int, probe: str | None = None) -> Op:
    if m == 1:
        mean, var = ("folded_mean", s), ("folded_var", s)
    else:
        mean, var = ("absdet", m, s), ("absdet_var", m, s)
    return Op(
        name=f"mc-m{m}-s{s:g}",
        argv=("det", "mc", "--m", str(m), "--k", str(m), "--s", repr(s)),
        mc=(MC("mean", "std_error", "n", oracle=mean, var=var),),
        size_flag="--samples",
        size=n,
        seeded=True,
        samples=_path_sum("n"),
        probe=probe,
    )


# montecarlo draws and determinants factorization, 1x1 to 10x10 frames.
DET_OPS = (
    _det_mc(1, 3.0, 2_000_000),
    Op(
        name="check-m2-k2-s2",
        argv=("det", "check", "--m", "2", "--k", "2", "--s", "2.0"),
        values=(
            Value("coeff", ("mv_coeff", 2, 2), CLOSED_FORM),
            Value("mixed_volume.mean", ("ellipse_area", 2.0), CLOSED_FORM),
            Value("bounds.upper", ("planar_upper", 2.0), CLOSED_FORM),
            Value("bounds.lower", ("planar_lower", 2.0), CLOSED_FORM),
        ),
        mc=(MC("mean", "std_error", "n", oracle=("absdet", 2, 2.0), var=("absdet_var", 2, 2.0)),),
        equal=(("verdict", "PASS"),),
        size_flag="--samples",
        size=500_000,
        seeded=True,
        samples=_path_sum("n", "mixed_volume.n"),
    ),
    Op(
        name="check-m5-k3-s1",
        argv=("det", "check", "--m", "5", "--k", "3", "--s", "1.0"),
        values=(Value("coeff", ("mv_coeff", 5, 3), CLOSED_FORM),),
        mc=(MC("mean", "std_error", "n", ex2=("absdet_ex2", 5, 3, 1.0)),),
        equal=(("verdict", "PASS"),),
        size_flag="--samples",
        size=200_000,
        seeded=True,
        samples=_path_sum("n", "mixed_volume.n"),
    ),
    _det_mc(10, 0.5, 300_000),
    _det_mc(
        1, 1e9, 200_000,
        probe="mc_mean's variance cancels at mean 1e9: the reported SE is far off 1/sqrt(n)",
    ),
)


# -- zeros-quad ----------------------------------------------------------------

TAUS_1D = (0.1, 0.03, 0.01, 0.003)


def _sweep_values(column: str, dim: int, taus, r_of_tau, alpha: float, digits: float):
    out = []
    for i, tau in enumerate(taus):
        r = r_of_tau(tau)
        out.append(Value(f"rows.{i}.{column}", ("zeros", dim, 2, tau, r), digits))
        out.append(Value(f"rows.{i}.limit", ("conc_limit", dim, 2, alpha), CLOSED_FORM))
    return tuple(out)


def _sandwich_values(dim: int, tau: float, r, digits: float):
    return (
        Value("count", ("zeros", dim, 2, tau, r), digits),
        Value("count_upper", ("envelope", dim, 2, tau, r), digits),
        Value("count_lower", ("envelope_lower", dim, 2, tau, r), digits),
        Value("limit_inradius", ("binfty",), CLOSED_FORM),
    )


_TAUS_ARG = ",".join(repr(t) for t in TAUS_1D)
_SIN2_2D = ("--field", "sin2-2d", "--taus", "0.05", "--r", "0.05")

# fields tube quadrature and the geometry volume table in 1-D and 2-D.
ZEROS_QUAD_OPS = (
    Op(
        name="integral-1d",
        argv=("grf", "integral", "--taus", _TAUS_ARG, "--alpha", "1"),
        values=_sweep_values("n_integral", 1, TAUS_1D, lambda t: t, 1.0, LEVEL_QUAD),
    ),
    *(
        Op(
            name=f"integral-2d-n{n}",
            argv=("grf", "integral", *_SIN2_2D, "--resolution", str(n)),
            values=_sweep_values("n_integral", 2, (0.05,), lambda t: 0.05, 1.0, GRID_2D),
            samples=_grid_cells(n, 2),
        )
        for n in (2048, 4096)
    ),
    Op(
        name="coarea-1d",
        argv=("grf", "coarea", "--taus", _TAUS_ARG, "--alpha", "1"),
        values=_sweep_values("n_coarea", 1, TAUS_1D, lambda t: t, 1.0, LEVEL_QUAD),
    ),
    Op(
        name="coarea-2d",
        argv=("grf", "coarea", *_SIN2_2D),
        values=_sweep_values("n_coarea", 2, (0.05,), lambda t: 0.05, 1.0, LEVEL_QUAD),
    ),
    Op(
        name="sandwich-2d-n1024",
        argv=("grf", "sandwich", "--field", "sin2-2d", "--tau", "0.05", "--r", "0.05",
              "--resolution", "1024"),
        values=_sandwich_values(2, 0.05, 0.05, GRID_2D),
        equal=(("verdict", "PASS"),),
        samples=_path_sum("n_points"),
    ),
    Op(
        name="sandwich-1d-n4096",
        argv=("grf", "sandwich", "--tau", "0.05", "--resolution", "4096"),
        values=_sandwich_values(1, 0.05, math.inf, LEVEL_QUAD),
        equal=(("verdict", "PASS"),),
        samples=_path_sum("n_points"),
    ),
    Op(
        name="integral-2d-default",
        argv=("grf", "integral", "--field", "sin2-2d", "--taus", "0.05"),
        values=_sweep_values("n_integral", 2, (0.05,), lambda t: 0.05, 1.0, GRID_2D),
        probe="the CLI never sizes a 2-D grid, so the default resolution exits 2",
    ),
)


# -- zeros-mc ------------------------------------------------------------------


def _zeros_mc(name: str, field_args: tuple, taus, r_of_tau, k: int, alpha: float, n: int) -> Op:
    return Op(
        name=name,
        argv=("grf", "mc", *field_args, "--taus", ",".join(repr(t) for t in taus)),
        values=tuple(
            Value(f"rows.{i}.limit", ("conc_limit", 1, k, alpha), CLOSED_FORM)
            for i in range(len(taus))
        ),
        mc=tuple(
            MC(f"rows.{i}.n_mc", f"rows.{i}.se", oracle=("zeros", 1, k, tau, r_of_tau(tau)))
            for i, tau in enumerate(taus)
        ),
        size_flag="--samples",
        size=n,
        seeded=True,
        samples=_rows_times_size,
    )


# montecarlo with 2 normals per sample: the fields sign scan and bisection
# do the work.
ZEROS_MC_OPS = (
    _zeros_mc("mc-sin2", ("--alpha", "1"), (0.1, 0.03), lambda t: t, 2, 1.0, 60_000),
    _zeros_mc("mc-sin2-fine", ("--alpha", "1"), (0.003,), lambda t: t, 2, 1.0, 30_000),
    _zeros_mc(
        "mc-sin6", ("--field", "sin6", "--r", "0.5"), (0.05,), lambda t: 0.5, 6, 10.0, 12_000
    ),
)

# Two workloads of about 25 s and 17 s of ops per pass, so that a 60 s run
# holds two or three passes and about 15 host-speed reference samples, and
# both workloads' runs fit the benchmark's time limit.
QUAD = Workload(
    name="quad",
    why=(
        "bodies and tube quadrature: kernels support, geometry volume table and inradius, "
        "fields integrals; no Monte Carlo"
    ),
    ops=BODIES_OPS + ZEROS_QUAD_OPS,
)
MC = Workload(
    name="mc",
    why=(
        "Monte Carlo: montecarlo draws, determinants on 1x1 to 10x10 frames, "
        "fields zero-count scan and bisection"
    ),
    ops=DET_OPS + ZEROS_MC_OPS,
)

WORKLOADS = {w.name: w for w in (QUAD, MC)}


def oracle_requests() -> list[tuple]:
    """Every oracle request any check names, in a stable order."""
    seen: dict = {}
    for w in WORKLOADS.values():
        for op in w.ops:
            for v in op.values:
                seen.setdefault(v.oracle)
            for mc in op.mc:
                for req in (mc.oracle, mc.var, mc.ex2):
                    if req is not None:
                        seen.setdefault(req)
    return list(seen)
