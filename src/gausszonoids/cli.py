"""Batch command-line surface.

Every computation in the library is exposed as a reproducible run driven by
flags or a JSON manifest (flags override manifest fields), emitting a single
JSON object or a CSV table.  Output carries no timestamps, so identical
manifest + seed reruns are byte-identical.

Each command is one entry of :data:`COMMANDS`: a parameter schema and a
handler.  The flags, the allowed manifest keys and the coercion of every
value are generated from the schema; the handler calls the library and
returns the report to emit and whether its check passed.

Exit codes: 0 success / verdict PASS, 1 verdict FAIL, 2 usage or manifest
error.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import re
import sys
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .determinants import (
    FrameSpec, check_determinant_bounds, determinant_bracket, expected_absdet_mc, iid_square_bounds,
)
from .fields import (
    GridSpec, TubeSpec, concentration_limit, envelope_sandwich, expected_zeros_coarea,
    expected_zeros_integral, grid_for_tube, mc_zero_count_circle, sine_field,
)
from .geometry import (
    KINDS, GaussianVector, RevolutionBody, boundary_profile, check_inclusion, limit_body_inradius,
    limit_inradius_angle, limit_inradius_grid, volume, volume_asymptote, volume_bounds,
)
from .montecarlo import MCConfig

SWEEP_COLUMNS = ("tau", "r", "n_integral", "n_coarea", "n_mc", "se", "limit", "rel_err")
# the gap to limit_inradius_grid() that binfty --check accepts (it reads 1.1e-13)
_AGREEMENT = 1e-10


class CommandError(Exception):
    """Usage-class failure carrying the exit message."""


def _jsonable(v):
    """v with numpy scalars as Python values and non-finite floats as their
    repr; arrays are left to :class:`_Encoder`, which converts each one as it
    is written."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


class _Encoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, np.ndarray):
            return _jsonable(o.tolist())
        return super().default(o)


def _cell(v) -> str:
    return "" if v is None else repr(v)


# CSV rows or JSON tokens per write: bounds the text held at once
_BATCH = 4096


def _text(report):
    """The text of a report, in pieces: a dict as one JSON object (the bytes
    of ``json.dumps(..., indent=2, sort_keys=True)``), _BATCH tokens per
    piece, a (header, rows) pair as CSV, _BATCH rows per piece."""
    if isinstance(report, dict):
        tokens = _Encoder(indent=2, sort_keys=True).iterencode(_jsonable(report))
        while piece := "".join(itertools.islice(tokens, _BATCH)):
            yield piece
        yield "\n"
        return
    header, rows = report
    yield ",".join(header) + "\n"
    rows = iter(rows)
    while batch := list(itertools.islice(rows, _BATCH)):
        yield "".join(",".join(_cell(v) for v in row) + "\n" for row in batch)


def _emit(report, out: str | None):
    """Write a report (:func:`_text`) to the file out, or to stdout.  Every
    value of it is computed before it is written; only its text is made
    batch by batch."""
    if not out:
        sys.stdout.writelines(_text(report))
        return
    try:
        with open(out, "w", newline="") as fh:
            fh.writelines(_text(report))
    except OSError as e:
        raise CommandError(f"cannot write output: {e}")


def _verdict(obj: dict, passed: bool):
    obj["verdict"] = "PASS" if passed else "FAIL"
    return obj, passed


class Param(NamedTuple):
    """One parameter: ``cast`` turns a flag string or a manifest value into
    the value the handler reads (it also casts the default).  A default of
    ``...`` marks a parameter every run must set; a parameter without
    ``help`` is a manifest key only, with no flag."""

    cast: Callable
    default: object = None
    help: str | None = None


def _flag(value) -> bool:
    """A switch: True from its flag, or JSON true or false in a manifest."""
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not a boolean (JSON true or false)")
    return value


def _int(value) -> int:
    """An integer from a flag's text or an integral manifest number."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _float(value) -> float:
    """A float from a flag's text or a manifest number; JSON true and false
    are not numbers."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _numbers(value):
    """A manifest number, or nested lists of them, each cast by _float."""
    return [_numbers(v) for v in value] if isinstance(value, list) else _float(value)


def _columns(cols) -> list:
    """Manifest columns [{"M": matrix, "c": mean}, ...], each entry cast by _float."""
    if not all(isinstance(c, dict) and set(c) <= {"M", "c"} for c in cols):
        raise ValueError("it is not a list of objects with keys M, c")
    return [{key: _numbers(v) for key, v in col.items()} for col in cols]


def _choice(*options):
    def cast(value):
        if value not in options:
            raise ValueError(f"{value!r} is not one of {', '.join(options)}")
        return value

    return cast


def _floats(text) -> list:
    if isinstance(text, (list, tuple)):
        return [_float(v) for v in text]
    return [float(tok) for tok in str(text).split(",") if tok != ""]


def _field_from_id(fid):
    m = re.fullmatch(r"sin(\d+)(-2d)?", str(fid))
    if not m:
        raise CommandError(f"unknown field id {fid!r} (expected sinK or sinK-2d)")
    return sine_field(int(m.group(1)), dim=2 if m.group(2) else 1)


def _command(run, **schema) -> tuple:
    """A table entry: the handler's schema, plus the output file every
    command takes, and the handler."""
    schema["out"] = Param(str, None, "write the output to this file")
    return schema, run


def _params(args, name: str, schema: dict) -> dict:
    """Manifest fields overridden by explicitly given flags, each cast by its
    schema entry; unknown keys, unread flags and uncastable values are rejected."""
    raw: dict = {}
    if args.manifest:
        try:
            with open(args.manifest) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise CommandError(f"cannot read manifest: {e}")
        if not isinstance(raw, dict):
            raise CommandError("manifest must be a JSON object")
        unknown = set(raw) - set(schema) - {"command"}
        if unknown:
            raise CommandError(f"unknown manifest key(s): {', '.join(sorted(unknown))}")
        command = raw.pop("command", name)
        if command != name:
            raise CommandError(f"manifest command {command!r} does not match {name!r}")
    flags = {k: v for k, v in vars(args).items() if v is not None}
    unread = sorted(set(flags) - set(schema) - {"command", "action", "manifest"})
    if unread:
        raise CommandError(f"{name} does not read --{', --'.join(unread).replace('_', '-')}")
    raw.update({k: flags[k] for k in schema if k in flags})
    params = {}
    for key, prm in schema.items():
        value = raw.get(key)
        if value is None and prm.default is ...:
            raise CommandError(f"{name} needs {key}")
        value = prm.default if value is None else value
        try:
            params[key] = None if value is None else prm.cast(value)
        except (TypeError, ValueError) as e:
            raise CommandError(f"parameter {key}: {e}") from None
    return params


def _binfty(p):
    obj = {"b_infinity": limit_body_inradius(), "t_star": limit_inradius_angle()}
    if p["check"]:
        grid = limit_inradius_grid()
        obj["check"] = {"grid_value": grid, "agrees": abs(grid - obj["b_infinity"]) <= _AGREEMENT}
    return obj, obj.get("check", {}).get("agrees", True)


def _body(p, s) -> RevolutionBody:
    return RevolutionBody(p["kind"], p["m"], s)


def _with_s(obj: dict, body: RevolutionBody):
    return (obj if body.s is None else dict(obj, s=body.s)), True


def _support(p):
    body = _body(p, p["s"])
    support = body.support(p["x"], p["yr"])
    return _with_s({"kind": body.kind, "x": p["x"], "yr": p["yr"], "support": support}, body)


def _profile(p):
    svals = p["s"]
    if svals is None:  # a family; the limit body takes no s, the normalized needs s > 0
        family = {"limit": [None], "normalized": [1.0, 2.0, 3.0]}
        svals = family.get(p["kind"], [0.0, 1.0, 2.0, 3.0])
    if not svals:
        raise CommandError("profile needs at least one s value")
    curves = [(s, boundary_profile(_body(p, s), p["n"])) for s in svals]
    header = ("s", "theta", "axial", "radial")
    if p["format"] == "json":
        curves = [dict(zip(header, (s, *prof.T))) for s, prof in curves]
        return {"kind": p["kind"], "curves": curves}, True
    rows = ((s, *r) for s, prof in curves for r in _table_rows(prof))
    if len(curves) == 1:  # one curve: no s column
        header, rows = header[1:], (r[1:] for r in rows)
    return (header, rows), True


def _table_rows(table: np.ndarray):
    """The rows of a float array as lists of floats, made _BATCH at a time."""
    for k in range(0, len(table), _BATCH):
        yield from table[k : k + _BATCH].tolist()


def _volume(p):
    m, body = p["m"], _body(p, p["s"])
    obj = {"kind": body.kind, "dim": m, "volume": volume(body)}
    if body.kind == "gaussian":
        obj["bounds"] = volume_bounds(m, body.s)._asdict()
        obj["asymptote_slope"] = volume_asymptote(m)
    return _with_s(obj, body)


def _inclusion(p):
    report = check_inclusion(p["m"], p["s"], n_dirs=p["n"], seed=p["seed"])
    return _verdict(report.as_dict(), report.passed)


def _frame(p) -> FrameSpec:
    """The frame of the manifest's columns, or one vector with mean s*e1 k times."""
    m, cols = p["m"], p["columns"]
    if cols is None:
        c = np.zeros(m)
        c[:1] = p["s"]
        return FrameSpec(m, [GaussianVector(np.eye(m), c)] * (m if p["k"] is None else p["k"]))
    if p["k"] is not None and p["k"] != len(cols):
        raise CommandError("manifest k does not match the number of columns")
    eye, zero = np.eye(m), np.zeros(m)
    return FrameSpec(m, [GaussianVector(c.get("M", eye), c.get("c", zero)) for c in cols])


def _cfg(p) -> MCConfig:
    return MCConfig(p["samples"], p["seed"])


def _det_mc(p):
    frame = _frame(p)
    return {"m": frame.dim, "k": frame.k, **expected_absdet_mc(frame, _cfg(p)).as_dict()}, True


def _det_bounds(p):
    frame = _frame(p)
    obj = determinant_bracket(frame, _cfg(p)).as_dict()
    cols = frame.columns
    iid = all(c.mean_norm == 0.0 and np.array_equal(c.matrix, cols[0].matrix) for c in cols)
    if frame.k == frame.dim and iid:
        obj["iid_square"] = iid_square_bounds(frame.dim, cols[0].matrix, 0.0)._asdict()
    return obj, True


def _det_check(p):
    report = check_determinant_bounds(_frame(p), _cfg(p))
    if not p["self_test"]:
        return _verdict(report.as_dict(), report.passed)
    # negative control: an empty bracket, which the report's rule must fail
    mean = report.estimate.mean
    report = dataclasses.replace(report, lower=1.5 * mean, upper=0.5 * mean)
    return _verdict(dict(report.as_dict(), self_test=True), report.passed)


def _grid(p, field, r: float) -> GridSpec:
    if p["resolution"] is not None:
        return GridSpec(p["resolution"])
    return grid_for_tube(field, r)


def _limit(p):
    limit = concentration_limit(p["m"], p["alpha"], p["volz0"])
    return {"dim": p["m"], "alpha": p["alpha"], "vol_zero_set": p["volz0"], "limit": limit}, True


def _sandwich(p):
    field = p["field"]
    grid = _grid(p, field, p["r"])
    report = envelope_sandwich(field, p["tau"], grid, r=p["r"])
    return _verdict(dict(report.as_dict(), field=field.name), report.passed)


def _sweep(route, p):
    """Handler of a sweep: one row per tau, holding the columns that
    ``route(p, field, tube)`` returns, its first column against the limit."""
    field = p["field"]
    if not p["taus"]:
        raise CommandError("needs --taus")
    rows = []
    for tau in p["taus"]:
        tube = TubeSpec(tau, p["alpha"] * tau if p["r"] is None else p["r"])
        row = dict(dict.fromkeys(SWEEP_COLUMNS), tau=tau, r=tube.r)
        if field.zero_set_measure is not None:
            row["limit"] = concentration_limit(field.dim, tube.r / tau, field.zero_set_measure)
        values = route(p, field, tube)
        row.update(values)
        if row["limit"] is not None and row["limit"] != 0.0:
            value = next(iter(values.values()))
            row["rel_err"] = abs(value - row["limit"]) / row["limit"]
        rows.append(row)
    if p["format"] == "json":
        return {"field": field.name, "rows": rows}, True
    return (SWEEP_COLUMNS, [[row[c] for c in SWEEP_COLUMNS] for row in rows]), True


def _integral(p, field, tube):
    return {"n_integral": expected_zeros_integral(field, tube, _grid(p, field, tube.r))}


def _coarea(p, field, tube):
    return {"n_coarea": expected_zeros_coarea(field, tube)}


def _mc(p, field, tube):
    est = mc_zero_count_circle(field, tube, _cfg(p))
    return {"n_mc": est.mean, "se": est.std_error}


# -- the command table ---------------------------------------------------------

_KIND = Param(_choice(*KINDS), "gaussian", "body kind")
_S = Param(_float, None, "mean offset s (a comma-separated list for profile)")
_M = Param(_int, ..., "dimension")
_M2 = Param(_int, 2, _M.help)  # supports and profiles do not depend on it
_SEED = Param(_int, 0, "random seed")
_FRAME = {
    "m": _M,
    "k": Param(_int, None, "columns of the frame (default m)"),
    "s": Param(_float, 0.0, "mean offset s*e1 of every column"),
    "columns": Param(_columns),
    "samples": Param(_int, 1_000_000, "Monte Carlo samples"),
    "seed": _SEED,
}
_FORMAT = Param(_choice("json", "csv"), "csv", "table format")
_FIELD = Param(_field_from_id, "sin2", "sinK or sinK-2d")
_SWEEP = {
    "field": _FIELD,
    "taus": Param(_floats, None, "comma-separated noise scales"),
    "alpha": Param(_float, 1.0, "tube rule r = alpha*tau"),
    "r": Param(_float, None, "fixed tube half-width"),
    "format": _FORMAT,
}
_RESOLUTION = Param(_int, None, "grid cells per axis (default: sized to the tube)")

COMMANDS = {
    "binfty": _command(
        _binfty, check=Param(_flag, False, "cross-check by grid scan")
    ),
    "zonoid support": _command(
        _support, m=_M2, s=_S, kind=_KIND, x=Param(_float, 1.0, "axial part of the direction"),
        yr=Param(_float, 0.0, "radial part of the direction"),
    ),
    "zonoid profile": _command(
        _profile, m=_M2, s=Param(_floats, None, _S.help), kind=_KIND,
        n=Param(_int, 181, "boundary points; meridian angles for inclusion"), format=_FORMAT,
    ),
    "zonoid volume": _command(_volume, m=_M, s=_S, kind=_KIND),
    "zonoid inclusion": _command(
        _inclusion, m=_M, s=Param(_float, ..., _S.help),
        n=Param(_int, 10_000, "meridian angles, offset by one uniform draw"), seed=_SEED,
    ),
    "det mc": _command(_det_mc, **_FRAME),
    "det bounds": _command(_det_bounds, **_FRAME),
    "det check": _command(
        _det_check, **_FRAME, self_test=Param(_flag, False, "corrupt the bounds; must FAIL")
    ),
    "grf integral": _command(partial(_sweep, _integral), **_SWEEP, resolution=_RESOLUTION),
    "grf coarea": _command(partial(_sweep, _coarea), **_SWEEP),
    "grf mc": _command(
        partial(_sweep, _mc), **_SWEEP, samples=Param(_int, 100_000, "Monte Carlo samples"),
        seed=_SEED,
    ),
    "grf limit": _command(
        _limit, m=Param(_int, 1, "dimension of grf limit"),
        alpha=Param(_float, ..., _SWEEP["alpha"].help),
        volz0=Param(_float, ..., "vol_{m-1} of the zero set"),
    ),
    "grf sandwich": _command(
        _sandwich, field=_FIELD, tau=Param(_float, ..., "noise scale"), resolution=_RESOLUTION,
        r=Param(_float, math.inf, "tube half-width"),
    ),
}

_GROUPS = {"binfty": "universal inradius constant", "zonoid": "bodies of revolution",
           "det": "random determinants", "grf": "perturbed-field zero sets"}


def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per group of COMMANDS, taking an action when the group
    has several, and a flag for every parameter with help in any of them."""
    parser = argparse.ArgumentParser(
        prog="gausszonoids",
        description="Gaussian zonoids: supports, volumes, determinants, zero sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for group, help_text in _GROUPS.items():
        names = [n for n in COMMANDS if n.split()[0] == group]
        g = sub.add_parser(group, help=help_text)
        if names != [group]:
            g.add_argument("action", choices=[n.split()[1] for n in names])
        g.add_argument("--manifest", default=None, help="JSON object of parameters")
        flags = {k: prm for n in names for k, prm in COMMANDS[n][0].items() if prm.help}
        for key, prm in flags.items():
            opt = "--" + key.replace("_", "-")
            store = {"action": "store_true"} if prm.cast is _flag else {}
            g.add_argument(opt, dest=key, default=None, help=prm.help, **store)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    name = " ".join(filter(None, (args.command, getattr(args, "action", None))))
    try:
        schema, run = COMMANDS[name]
        p = _params(args, name, schema)
        report, passed = run(p)
        _emit(report, p["out"])
        return 0 if passed else 1
    except (CommandError, ValueError, NotImplementedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
