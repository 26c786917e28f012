"""Batch command-line surface.

Every computation in the library is exposed as a reproducible run driven by
flags or a JSON manifest (flags override manifest fields), emitting a single
JSON object or a CSV table.  Output carries no timestamps, so identical
manifest + seed reruns are byte-identical.

Exit codes: 0 success / verdict PASS, 1 verdict FAIL, 2 usage or manifest
error.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .determinants import (
    FrameSpec,
    check_determinant_bounds,
    expected_absdet_mc,
    iid_square_bounds,
    mixed_volume_coeff,
    mixed_volume_ellipsoids_mc,
)
from .fields import (
    GridResolutionError,
    GridSpec,
    TubeSpec,
    concentration_limit,
    envelope_sandwich,
    expected_zeros_coarea,
    expected_zeros_integral,
    mc_zero_count_circle,
    sine_field,
)
from .geometry import (
    KINDS,
    GaussianVector,
    RevolutionBody,
    boundary_profile,
    check_inclusion,
    limit_body_inradius,
    limit_inradius_angle,
    limit_inradius_grid,
    volume,
    volume_asymptote,
    volume_bounds,
)
from .montecarlo import MCConfig

SWEEP_COLUMNS = ("tau", "r", "n_integral", "n_coarea", "n_mc", "se", "limit", "rel_err")


# -- emission ----------------------------------------------------------------


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    return v


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _emit_json(obj: dict, out: str | None):
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"
    _write(text, out)


def _emit_csv(header, rows, out: str | None):
    lines = [",".join(header)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    _write("\n".join(lines) + "\n", out)


def _write(text: str, out: str | None):
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class CommandError(Exception):
    """Usage-class failure carrying the exit message."""


# -- manifest plumbing -------------------------------------------------------


def _merge_params(args, command: str, allowed: tuple, flags: dict) -> dict:
    """Manifest fields overridden by explicitly given flags; unknown manifest
    keys are rejected."""
    params: dict = {}
    if getattr(args, "manifest", None):
        try:
            with open(args.manifest) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise CommandError(f"cannot read manifest: {e}")
        if not isinstance(raw, dict):
            raise CommandError("manifest must be a JSON object")
        unknown = set(raw) - set(allowed) - {"command"}
        if unknown:
            raise CommandError(f"unknown manifest key(s): {', '.join(sorted(unknown))}")
        if "command" in raw and raw["command"] != command:
            raise CommandError(
                f"manifest command {raw['command']!r} does not match {command!r}"
            )
        params.update({k: v for k, v in raw.items() if k != "command"})
    for key, value in flags.items():
        if value is not None:
            params[key] = value
    return params


def _field_from_id(fid: str):
    m = re.fullmatch(r"sin(\d+)(-2d)?", fid)
    if not m:
        raise CommandError(f"unknown field id {fid!r} (expected sinK or sinK-2d)")
    return sine_field(int(m.group(1)), dim=2 if m.group(2) else 1)


def _floats(text) -> list:
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    return [float(tok) for tok in str(text).split(",") if tok != ""]


def _auto_resolution(field, r_min: float) -> int:
    """Smallest power-of-two grid (cells per axis) satisfying the
    8-cells-across-tube rule, at least 4096 in 1-D and 256 in 2-D; 2-D grids
    stop at 8192 per axis."""
    from .fields import _grad_max

    gmax = _grad_max(field)
    n, cap = (4096, 1 << 22) if field.dim == 1 else (256, 8192)
    if math.isfinite(r_min) and gmax > 0:
        need = 8.0 * 2.0 * math.pi * gmax / (2.0 * r_min)
        while n < need:
            n *= 2
            if n > cap:
                raise CommandError(
                    f"tube half-width {r_min:.3g} needs more than {cap} grid cells "
                    "per axis; pass a coarser tube or an explicit --resolution"
                )
    return n


def _grid_spec(p, field, r: float) -> GridSpec:
    """The grid of the resolution and rule parameters; without a resolution,
    the one _auto_resolution picks for the tube."""
    if p.get("resolution") is not None:
        res = int(p["resolution"])
    else:
        res = _auto_resolution(field, r)
    return GridSpec(res, p.get("rule", "gauss"))


# -- binfty -------------------------------------------------------------------


def cmd_binfty(args) -> int:
    p = _merge_params(args, "binfty", ("tol", "check", "out", "format"), {
        "tol": args.tol,
        "check": args.check or None,
    })
    tol = float(p.get("tol", 1e-10))
    if not tol > 0:
        raise CommandError("tol must be positive")
    value = limit_body_inradius(tol)
    obj = {
        "b_infinity": value,
        "t_star": limit_inradius_angle(tol),
        "tol": tol,
    }
    code = 0
    if p.get("check"):
        grid_value = limit_inradius_grid()
        agrees = abs(grid_value - value) <= tol
        obj["check"] = {"grid_value": grid_value, "agrees": agrees}
        if not agrees:
            code = 1
    _emit_json(obj, p.get("out", args.out))
    return code


# -- zonoid -------------------------------------------------------------------


def _body(kind: str, dim: int, s) -> RevolutionBody:
    if kind == "limit":
        return RevolutionBody("limit", dim)
    return RevolutionBody(kind, dim, float(s))


def cmd_zonoid(args) -> int:
    action = args.action
    command = f"zonoid {action}"
    if action == "support":
        p = _merge_params(args, command, ("s", "kind", "x", "yr", "out", "format"), {
            "s": args.s, "kind": args.kind, "x": args.x, "yr": args.yr,
        })
        kind = p.get("kind", "gaussian")
        if kind not in KINDS:
            raise CommandError(f"kind must be one of {', '.join(KINDS)}")
        s = p.get("s")
        if kind != "limit" and s is None:
            raise CommandError("support needs --s (except for kind=limit)")
        body = _body(kind, 2, s)
        x = float(p.get("x", 1.0))
        yr = float(p.get("yr", 0.0))
        obj = {"kind": kind, "x": x, "yr": yr, "support": body.support(x, yr)}
        if kind != "limit":
            obj["s"] = float(s)
        _emit_json(obj, p.get("out", args.out))
        return 0

    if action == "profile":
        p = _merge_params(args, command, ("s", "kind", "n", "out", "format"), {
            "s": args.s, "kind": args.kind, "n": args.n,
        })
        kind = p.get("kind", "gaussian")
        if kind not in KINDS:
            raise CommandError(f"kind must be one of {', '.join(KINDS)}")
        n = int(p.get("n", 181))
        svals = [None] if kind == "limit" else _floats(p.get("s", "0,1,2,3"))
        if not svals:
            raise CommandError("profile needs at least one s value")
        curves = []
        for s in svals:
            prof = boundary_profile(_body(kind, 2, s), n)
            curves.append((s, prof))
        fmt = p.get("format", args.format) or "csv"
        out = p.get("out", args.out)
        if fmt == "json":
            obj = {
                "kind": kind,
                "curves": [
                    {
                        "s": s,
                        "theta": prof[:, 0],
                        "axial": prof[:, 1],
                        "radial": prof[:, 2],
                    }
                    for s, prof in curves
                ],
            }
            _emit_json(obj, out)
        else:
            if len(curves) == 1:
                header = ("theta", "axial", "radial")
                rows = [tuple(r) for r in curves[0][1]]
            else:
                header = ("s", "theta", "axial", "radial")
                rows = [(s, *r) for s, prof in curves for r in prof]
            _emit_csv(header, rows, out)
        return 0

    if action == "volume":
        p = _merge_params(args, command, ("m", "s", "kind", "out", "format"), {
            "m": args.m, "s": args.s, "kind": args.kind,
        })
        kind = p.get("kind", "gaussian")
        if kind not in KINDS:
            raise CommandError(f"kind must be one of {', '.join(KINDS)}")
        if p.get("m") is None:
            raise CommandError("volume needs --m")
        m = int(p["m"])
        s = p.get("s")
        if kind != "limit" and s is None:
            raise CommandError("volume needs --s (except for kind=limit)")
        body = _body(kind, m, s)
        obj = {"kind": kind, "dim": m, "volume": volume(body)}
        if kind != "limit":
            obj["s"] = float(s)
        if kind == "gaussian":
            vb = volume_bounds(m, float(s))
            obj["bounds"] = {
                "lower": vb.lower,
                "lower_sharp": vb.lower_sharp,
                "upper": vb.upper,
            }
            obj["asymptote_slope"] = volume_asymptote(m)
        _emit_json(obj, p.get("out", args.out))
        return 0

    # inclusion
    p = _merge_params(
        args, command, ("m", "s", "n", "seed", "slack", "chunk", "out", "format"), {
            "m": args.m, "s": args.s, "n": args.n, "seed": args.seed,
        },
    )
    if p.get("m") is None or p.get("s") is None:
        raise CommandError("inclusion needs --m and --s")
    report = check_inclusion(
        int(p["m"]),
        float(p["s"]),
        n_dirs=int(p.get("n", 10_000)),
        seed=int(p.get("seed", 0)),
        chunk=int(p.get("chunk", 1 << 17)),
        slack=float(p.get("slack", 1e-12)),
    )
    obj = report.as_dict()
    obj["verdict"] = "PASS" if report.passed else "FAIL"
    _emit_json(obj, p.get("out", args.out))
    return 0 if report.passed else 1


# -- det ----------------------------------------------------------------------

_DET_KEYS = ("m", "k", "s", "columns", "samples", "seed", "chunk", "out", "format")


def _det_frame(p) -> FrameSpec:
    if p.get("columns") is not None:
        if p.get("m") is None:
            raise CommandError("manifest with columns needs m")
        m = int(p["m"])
        cols = []
        for i, spec in enumerate(p["columns"]):
            if not isinstance(spec, dict) or set(spec) - {"M", "c"}:
                raise CommandError(f"column {i} must be an object with keys M, c")
            mat = np.asarray(spec.get("M", np.eye(m)), dtype=float)
            c = np.asarray(spec.get("c", np.zeros(m)), dtype=float)
            cols.append(GaussianVector(mat, c))
        if p.get("k") is not None and int(p["k"]) != len(cols):
            raise CommandError("manifest k does not match the number of columns")
        return FrameSpec(m, cols)
    if p.get("m") is None:
        raise CommandError("needs --m (with optional --k, --s) or manifest columns")
    m = int(p["m"])
    k = int(p.get("k", m))
    s = float(p.get("s", 0.0))
    c = np.zeros(m)
    if m >= 1:
        c[0] = s
    cols = [GaussianVector(np.eye(m), c) for _ in range(k)]
    return FrameSpec(m, cols)


def _det_cfg(p) -> MCConfig:
    return MCConfig(
        samples=int(p.get("samples", 1_000_000)),
        seed=int(p.get("seed", 0)),
        chunk=int(p.get("chunk", 1 << 16)),
    )


def cmd_det(args) -> int:
    action = args.action
    p = _merge_params(args, f"det {action}", _DET_KEYS, {
        "m": args.m, "k": args.k, "s": args.s,
        "samples": args.samples, "seed": args.seed,
    })
    frame = _det_frame(p)
    out = p.get("out", args.out)

    if action == "mc":
        est = expected_absdet_mc(frame, _det_cfg(p))
        _emit_json(
            {
                "m": frame.dim,
                "k": frame.k,
                "mean": est.mean,
                "std_error": est.std_error,
                "n": est.n_samples,
            },
            out,
        )
        return 0

    if action == "bounds":
        shapes = [col.ellipsoid_matrix() for col in frame.columns]
        mv = mixed_volume_ellipsoids_mc(shapes, frame.dim, _det_cfg(p))
        alpha = mixed_volume_coeff(frame.dim, frame.k)
        b = limit_body_inradius()
        obj = {
            "m": frame.dim,
            "k": frame.k,
            "coeff": alpha,
            "mixed_volume": {"mean": mv.mean, "std_error": mv.std_error, "n": mv.n_samples},
            "bounds": {"lower": b**frame.k * alpha * mv.mean, "upper": alpha * mv.mean},
        }
        if frame.k == frame.dim and all(col.mean_norm == 0.0 for col in frame.columns):
            sq = iid_square_bounds(frame.dim, frame.columns[0].matrix, 0.0)
            obj["iid_square"] = {
                "lower": sq.lower, "upper": sq.upper, "asymptote_slope": sq.asymptote,
            }
        _emit_json(obj, out)
        return 0

    # check
    report = check_determinant_bounds(frame, _det_cfg(p))
    passed = report.passed
    obj = {
        "m": report.dim,
        "k": report.k,
        "mean": report.estimate.mean,
        "std_error": report.estimate.std_error,
        "n": report.estimate.n_samples,
        "coeff": report.coeff,
        "mixed_volume": {
            "mean": report.mixed_volume.mean,
            "std_error": report.mixed_volume.std_error,
            "n": report.mixed_volume.n_samples,
        },
        "bounds": {
            "lower": report.lower,
            "upper": report.upper,
            "se_lower": report.se_lower,
            "se_upper": report.se_upper,
        },
    }
    if args.self_test:
        # negative control: shrink the bracket until it must fail
        corrupted_upper = report.estimate.mean * 0.5
        corrupted_lower = report.estimate.mean * 1.5
        passed = corrupted_lower - 4 * report.se_lower <= report.estimate.mean <= (
            corrupted_upper + 4 * report.se_upper
        )
        obj["self_test"] = True
        obj["bounds"]["lower"] = corrupted_lower
        obj["bounds"]["upper"] = corrupted_upper
    obj["verdict"] = "PASS" if passed else "FAIL"
    _emit_json(obj, out)
    return 0 if passed else 1


# -- grf ----------------------------------------------------------------------

_GRF_KEYS = (
    "field", "taus", "tau", "alpha", "r", "r_coef", "r_power",
    "resolution", "rule", "samples", "seed", "chunk", "spacing",
    "slack", "out", "format", "m", "volz0",
)


def _r_rule(p):
    if p.get("r") is not None:
        rv = float(p["r"])
        return lambda tau: rv
    if p.get("r_coef") is not None or p.get("r_power") is not None:
        coef = float(p.get("r_coef", 1.0))
        power = float(p.get("r_power", 1.0))
        return lambda tau: coef * tau**power
    alpha = float(p.get("alpha", 1.0))
    return lambda tau: alpha * tau


def cmd_grf(args) -> int:
    action = args.action
    p = _merge_params(args, f"grf {action}", _GRF_KEYS, {
        "field": args.field, "taus": args.taus, "tau": args.tau,
        "alpha": args.alpha, "r": args.r,
        "r_coef": args.r_coef, "r_power": args.r_power,
        "resolution": args.resolution, "samples": args.samples,
        "seed": args.seed, "m": args.m, "volz0": args.volz0,
    })
    out = p.get("out", args.out)

    if action == "limit":
        if p.get("alpha") is None or p.get("volz0") is None:
            raise CommandError("limit needs --alpha and --volz0")
        m = int(p.get("m", 1))
        alpha = float(p["alpha"])
        volz0 = float(p["volz0"])
        _emit_json(
            {
                "dim": m,
                "alpha": alpha,
                "vol_zero_set": volz0,
                "limit": concentration_limit(m, alpha, volz0),
            },
            out,
        )
        return 0

    field = _field_from_id(str(p.get("field", "sin2")))
    if p.get("m") is not None and int(p["m"]) != field.dim:
        raise CommandError(
            f"--m {p['m']} contradicts the {field.dim}-D field {field.name}"
        )

    if action == "sandwich":
        if p.get("tau") is None:
            raise CommandError("sandwich needs --tau")
        tau = float(p["tau"])
        r = float(p.get("r", math.inf))
        report = envelope_sandwich(
            field, tau, _grid_spec(p, field, r), r=r,
            slack=float(p.get("slack", 1e-10)),
        )
        obj = report.as_dict()
        obj["field"] = field.name
        obj["verdict"] = "PASS" if report.passed else "FAIL"
        _emit_json(obj, out)
        return 0 if report.passed else 1

    # sweep table: integral | coarea | mc
    taus = _floats(p["taus"]) if p.get("taus") is not None else (
        [float(p["tau"])] if p.get("tau") is not None else None
    )
    if not taus:
        raise CommandError(f"{action} needs --taus (or --tau)")
    rule = _r_rule(p)
    rows = []
    for tau in taus:
        r = rule(tau)
        tube = TubeSpec(tau, r)
        row = dict.fromkeys(SWEEP_COLUMNS)
        row["tau"], row["r"] = tau, r
        if field.zero_set_measure is not None:
            row["limit"] = concentration_limit(
                field.dim, r / tau, field.zero_set_measure
            )
        if action == "integral":
            row["n_integral"] = expected_zeros_integral(
                field, tube, _grid_spec(p, field, r)
            )
            value = row["n_integral"]
        elif action == "coarea":
            row["n_coarea"] = expected_zeros_coarea(field, tube)
            value = row["n_coarea"]
        else:
            cfg = MCConfig(
                samples=int(p.get("samples", 100_000)),
                seed=int(p.get("seed", 0)),
                chunk=int(p.get("chunk", 1 << 16)),
            )
            spacing = float(p["spacing"]) if p.get("spacing") is not None else None
            est = mc_zero_count_circle(field, tube, cfg, spacing=spacing)
            row["n_mc"], row["se"] = est.mean, est.std_error
            value = est.mean
        if row["limit"] is not None and row["limit"] != 0.0:
            row["rel_err"] = abs(value - row["limit"]) / row["limit"]
        rows.append(row)
    fmt = p.get("format", args.format) or "csv"
    if fmt == "json":
        _emit_json({"field": field.name, "rows": rows}, out)
    else:
        _emit_csv(SWEEP_COLUMNS, [[row[c] for c in SWEEP_COLUMNS] for row in rows], out)
    return 0


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--samples", type=int, default=None)
    common.add_argument("--out", default=None)
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--manifest", default=None)

    parser = argparse.ArgumentParser(
        prog="gausszonoids",
        description="Gaussian zonoids: supports, volumes, determinants, zero sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("binfty", parents=[common], help="universal inradius constant")
    b.add_argument("--tol", type=float, default=None)
    b.add_argument("--check", action="store_true", help="cross-check by grid scan")
    b.set_defaults(fn=cmd_binfty)

    z = sub.add_parser("zonoid", parents=[common], help="bodies of revolution")
    z.add_argument("action", choices=("support", "profile", "volume", "inclusion"))
    z.add_argument("--m", type=int, default=None)
    z.add_argument("--s", default=None)
    z.add_argument("--n", type=int, default=None)
    z.add_argument("--kind", choices=KINDS, default=None)
    z.add_argument("--x", type=float, default=None)
    z.add_argument("--yr", type=float, default=None)
    z.set_defaults(fn=cmd_zonoid)

    d = sub.add_parser("det", parents=[common], help="random determinants")
    d.add_argument("action", choices=("mc", "bounds", "check"))
    d.add_argument("--m", type=int, default=None)
    d.add_argument("--k", type=int, default=None)
    d.add_argument("--s", type=float, default=None)
    d.add_argument("--self-test", action="store_true", dest="self_test")
    d.set_defaults(fn=cmd_det)

    g = sub.add_parser("grf", parents=[common], help="perturbed-field zero sets")
    g.add_argument("action", choices=("integral", "coarea", "mc", "limit", "sandwich"))
    g.add_argument("--field", default=None, help="sinK or sinK-2d")
    g.add_argument("--taus", default=None, help="comma-separated noise scales")
    g.add_argument("--tau", type=float, default=None)
    g.add_argument("--alpha", type=float, default=None, help="tube rule r = alpha*tau")
    g.add_argument("--r", type=float, default=None, help="fixed tube half-width")
    g.add_argument("--r-coef", type=float, default=None, dest="r_coef")
    g.add_argument("--r-power", type=float, default=None, dest="r_power")
    g.add_argument("--resolution", type=int, default=None)
    g.add_argument("--m", type=int, default=None)
    g.add_argument("--volz0", type=float, default=None, help="vol_{m-1} of the zero set")
    g.set_defaults(fn=cmd_grf)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CommandError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GridResolutionError as e:
        print(f"resolution error: {e} (increase --resolution)", file=sys.stderr)
        return 2
    except (ValueError, NotImplementedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
