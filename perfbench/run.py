"""Benchmark of the gausszonoids CLI with every output checked by an oracle.

    python3 perfbench/run.py --workload quad --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seconds 60   # every workload

Closed loop, one client, no concurrency: each op of the workload is a real
CLI invocation in a fresh interpreter (perfbench/child.py), started only
after the previous one has exited.  Ops run round-robin until --seconds are
used up; every timed metric is a median over the processes of one op, so a
run's figures do not depend on how many passes fitted.  Monte Carlo seeds
come from --seed; the repeats of an op in one run use the same seed and must
print the same bytes.

Untraced runs also start a reference child every few seconds; its mean
wall time gauges the shared host's speed, and the time metrics are scaled
to a fixed nominal speed (host_speed), so the host's drift between runs
cancels.  The unscaled figures go to the result file as raw_metrics.

With --trace 1 each op alternates an untraced and a traced process; the
traced one wraps the library's public functions (perfbench/tracer.py) and
the per-layer metrics come from its spans.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json.  Lines before it give every metric by
name with its unit, and the probes.  The raw per-process samples, the
provenance and the spans go to .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from decimal import Decimal
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
ORACLE_FILE = HERE / "oracles.json"
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER_UNITS, layer_metrics  # noqa: E402
from workloads import MEAN_SE_MULTIPLE, SE_TOLERANCE, WORKLOADS, key, lookup  # noqa: E402

BLAS_THREADS = 1  # per child process; the host has 2 cores and is shared
# Wall time of the reference child (child.py --reference) on the host the
# benchmark was written on, in its fast state.  Time metrics are reported at
# this host speed: see host_speed().
REFERENCE_NOMINAL_S = 0.5
REFERENCE_EVERY_S = 2.0  # of op wall time between two reference children
CHILD_TIMEOUT_S = 150.0
DIGITS_CAP = 16.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_s": "s",
    "samples_per_s": "1/s",
    "min_digits": "digits",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (no package, or the import fails)."""


# -- child processes ---------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(argv: list[str], stdout_path: Path, stderr_path: Path):
    """Run argv to completion; return (wall_s, exit code, rusage, spawn stamp)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t1 - t0, proc.returncode, usage, t0


class Runner:
    """Starts the child processes; their files go to a scratch directory."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.tmp.mkdir(parents=True, exist_ok=True)

    def about(self) -> dict:
        path = self.tmp / "about.json"
        argv = [sys.executable, str(HERE / "child.py"), "--about", str(path)]
        _, code, _, _ = _spawn(argv, self.tmp / "about.out", self.tmp / "about.err")
        if code != 0:
            tail = (self.tmp / "about.err").read_text(errors="replace")[-2000:]
            raise BenchError(f"cannot import gausszonoids from {ROOT / 'src'}:\n{tail}")
        return json.loads(path.read_text())

    def reference(self) -> float:
        """Wall time of one reference child."""
        argv = [sys.executable, str(HERE / "child.py"), "--reference"]
        wall, code, _, _ = _spawn(argv, self.tmp / "reference.out", self.tmp / "reference.err")
        if code != 0:
            tail = (self.tmp / "reference.err").read_text(errors="replace")[-2000:]
            raise BenchError(f"the reference child exited {code}:\n{tail}")
        return wall

    def execute(self, argv: list[str], traced: bool) -> dict:
        times = self.tmp / "times.json"
        spans_file = self.tmp / "spans.json"
        for f in (times, spans_file):
            f.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(times)]
        if traced:
            cmd += ["--spans", str(spans_file)]
        cmd += ["--", *argv]
        out_path, err_path = self.tmp / "op.out", self.tmp / "op.err"
        wall, code, usage, t0 = _spawn(cmd, out_path, err_path)
        rec = {
            "traced": traced,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "code": code,
            "rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_bytes()[-500:].decode(errors="replace"),
        }
        if times.exists():
            t = json.loads(times.read_text())
            rec["setup_s"] = t["import_done"] - t0
            rec["solve_s"] = t["main_end"] - t["main_start"]
        if traced and spans_file.exists():
            rec["spans"] = json.loads(spans_file.read_text())
        return rec


# -- checking outputs ----------------------------------------------------------------


def parse_output(text: str):
    if text.lstrip().startswith("{"):
        return json.loads(text)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [
        {h: (float(c) if c != "" else None) for h, c in zip(header, line.split(","))}
        for line in lines[1:]
    ]
    return {"header": header, "rows": rows}


def digits(value, reference: str) -> float:
    """-log10 of the relative error of value against a decimal reference."""
    ref = Decimal(reference)
    err = abs(Decimal(value) - ref) / abs(ref)
    if err == 0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -float(err.log10()))


def check_output(op, code: int, stdout: bytes, oracles: dict, size: int) -> dict:
    """Compare one op's output with its oracles; returns problems, digits, samples."""
    problems: list[str] = []
    found: dict[str, float] = {}
    samples = 0
    if code != 0:
        return {"problems": [f"exit code {code}, expected 0"], "digits": found, "samples": 0}
    try:
        out = parse_output(stdout.decode())
    except (ValueError, IndexError) as exc:
        return {"problems": [f"unparseable output: {exc}"], "digits": found, "samples": 0}

    def get(path):
        try:
            return lookup(out, path)
        except (KeyError, IndexError, TypeError, ValueError):
            problems.append(f"{path}: missing from the output")
            return None

    def number(path):
        x = get(path)
        if x is not None and (isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x)):
            problems.append(f"{path}: {x!r} is not a finite number")
            return None
        return x

    for v in op.values:
        x = number(v.path)
        if x is None:
            continue
        d = digits(x, oracles[key(v.oracle)])
        found[v.path] = d
        if d < v.min_digits:
            problems.append(f"{v.path}: {d:.2f} digits against the oracle, gate {v.min_digits:g}")
    for mc in op.mc:
        mean, se = number(mc.mean), number(mc.se)
        n = size if mc.n is None else number(mc.n)
        if mean is None or se is None or n is None:
            continue
        if mc.oracle is not None:
            exact = float(oracles[key(mc.oracle)])
            if abs(mean - exact) > MEAN_SE_MULTIPLE * se + 1e-12 * abs(exact):
                z = abs(mean - exact) / se if se > 0 else math.inf
                problems.append(f"{mc.mean}: {mean!r} is {z:.1f} SE from the exact {exact!r}")
        var = None
        if mc.var is not None:
            var = float(oracles[key(mc.var)])
        elif mc.ex2 is not None:
            var = float(oracles[key(mc.ex2)]) - mean * mean
        if var is not None and var <= 0:
            problems.append(f"{mc.mean}: {mean!r} leaves no variance under the exact second moment")
        elif var is not None:
            se_true = math.sqrt(var / n)
            if abs(se / se_true - 1.0) > SE_TOLERANCE:
                problems.append(f"{mc.se}: reported {se:.4g}, analytic {se_true:.4g}")
    for path, expected in op.equal:
        got = get(path)
        if got is not None and got != expected:
            problems.append(f"{path}: {got!r}, expected {expected!r}")
    if op.structure is not None:
        problems += op.structure(out)
    if op.samples is not None:
        try:
            samples = op.samples(out, size)
        except (KeyError, IndexError, TypeError, ValueError):
            problems.append("sample count missing from the output")
    return {"problems": problems, "digits": found, "samples": samples}


# -- one workload ----------------------------------------------------------------------


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _op_seed(seed: int, index: int) -> int:
    return abs(seed) * 100 + index


class OpState:
    """The executions of one op in a run and the verdict on its output."""

    def __init__(self, op, index: int, seed: int, scale: float):
        self.op = op
        self.size = op.scaled_size(scale)
        self.argv = op.command(scale, _op_seed(seed, index))
        self.runs: list[dict] = []
        self.reference: tuple | None = None  # (code, stdout) of the first run
        self.verdict: dict | None = None
        self.layers: dict = {}  # per-layer medians over the traced runs

    def record(self, rec: dict, oracles: dict) -> bool:
        """Check rec's output; True when it passes."""
        if self.reference is None:
            self.reference = (rec["code"], rec["stdout"])
            self.verdict = check_output(self.op, rec["code"], rec["stdout"], oracles, self.size)
            problems = list(self.verdict["problems"])
        elif (rec["code"], rec["stdout"]) != self.reference:
            problems = ["output differs from the first run with the same inputs"]
        else:
            problems = list(self.verdict["problems"])
        if "solve_s" not in rec:
            problems.append("the child recorded no times")
        rec["problems"] = problems
        self.runs.append(rec)
        return not problems

    def median(self, field: str, traced: bool = False) -> float:
        return _median([r[field] for r in self.runs if r["traced"] == traced and field in r])

    def count(self, traced: bool) -> int:
        return sum(1 for r in self.runs if r["traced"] == traced)

    def next_step_s(self, trace: bool) -> float:
        """Expected time of this op's next step: its last run, or its last
        untraced and traced pair."""
        return sum(r["wall_s"] for r in self.runs[-2 if trace else -1:])


def run_workload(workload, seed: int, seconds: float, trace: bool, scale: float,
                 oracles: dict, runner: Runner) -> dict:
    start = time.perf_counter()
    deadline = start + seconds
    about = runner.about()

    probes = []
    for i, op in enumerate(workload.probes):
        st = OpState(op, 50 + i, seed, scale)
        st.record(runner.execute(st.argv, traced=False), oracles)
        probes.append(st)

    states = [OpState(op, i, seed, scale) for i, op in enumerate(workload.timed)]
    # Untraced runs time a reference child every REFERENCE_EVERY_S of op
    # time, so the host's speed is sampled all through the run.
    reference = [] if trace else [runner.reference()]
    since_reference = 0.0
    attempted = failed = passes = 0
    done = False
    while not done:
        for st in states:
            have_all = all(s.count(False) and (s.count(True) or not trace) for s in states)
            step = st.next_step_s(trace)
            if not trace and since_reference + step >= REFERENCE_EVERY_S:
                step += _median(reference)
            if have_all and time.perf_counter() + step > deadline:
                done = True
                break
            for traced in ((False, True) if trace else (False,)):
                ok = st.record(runner.execute(st.argv, traced), oracles)
                attempted += 1
                failed += not ok
                since_reference += st.runs[-1]["wall_s"]
            if not trace and since_reference >= REFERENCE_EVERY_S:
                reference.append(runner.reference())
                since_reference = 0.0
        else:
            passes += 1

    timed_runs = [r for st in states for r in st.runs if not r["traced"]]
    sampled = [st for st in states if st.verdict and st.verdict["samples"]]
    solve_sampled = sum(st.median("solve_s") for st in sampled)
    all_digits = [d for st in states if st.verdict for d in st.verdict["digits"].values()]
    raw = {
        "setup_s": _median([r["setup_s"] for r in timed_runs if "setup_s" in r]),
        "wall_s": sum(st.median("wall_s") for st in states),
        "solve_s": sum(st.median("solve_s") for st in states),
        "samples_per_s": (
            sum(st.verdict["samples"] for st in sampled) / solve_sampled if solve_sampled else 0.0
        ),
        "min_digits": min(all_digits) if all_digits else 0.0,
        "peak_rss_mb": max((r["rss_mb"] for r in timed_runs), default=0.0),
    }
    speed = host_speed(reference)
    metrics = dict(raw)
    for name in ("setup_s", "wall_s", "solve_s"):
        metrics[name] = raw[name] * speed
    metrics["samples_per_s"] = raw["samples_per_s"] / speed
    probe_failures = sum(1 for st in probes if st.runs[0]["problems"])
    fail_frac = (failed + probe_failures) / (attempted + len(probes))

    layers = {}
    spans_out = []
    if trace:
        for st in states:
            traced_runs = [r for r in st.runs if r["traced"] and "spans" in r]
            values = [layer_metrics(r["spans"]) for r in traced_runs]
            st.layers = {name: _median([v[name] for v in values]) for name in values[0]} if values else {}
            for r in traced_runs:
                base = len(spans_out)
                for name, t0, t1, parent, count in r["spans"]:
                    spans_out.append({
                        "name": name, "start": t0, "end": t1,
                        "parent": None if parent is None else base + parent,
                        "op": st.op.name, "count": count,
                    })
        names = [n for n in PER_LAYER_UNITS if n != "trace.overhead_frac"]
        layers = {n: sum(st.layers.get(n, 0.0) for st in states) for n in names}
        untraced = sum(st.median("solve_s") for st in states)
        traced_solve = sum(st.median("solve_s", traced=True) for st in states)
        layers["trace.overhead_frac"] = (traced_solve - untraced) / untraced if untraced else 0.0

    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "scale": scale,
        "elapsed_s": time.perf_counter() - start,
        "passes": passes,
        "about": about,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": fail_frac,
        "metrics": metrics,
        "raw_metrics": raw,
        "reference_s": reference,
        "host_speed": speed,
        "layers": layers,
        "ops": [_op_report(st) for st in states],
        "probes": [dict(_op_report(st), known_defect=st.op.probe) for st in probes],
        "spans": spans_out,
    }


def host_speed(reference: list[float]) -> float:
    """How much faster the host ran than in this run, judged by the mean
    wall time of the reference child; 1.0 when there is none (traced runs).

    The shared host drifts between a fast and a slow state that lasts from
    seconds to many minutes, and every process slows alike, the library's
    import and compute as much as the reference.  Times multiplied by this
    factor (rates divided by it) are those of the run at the host speed of
    REFERENCE_NOMINAL_S, so the drift cancels while a change to the library,
    which the reference does not run, shows in full.  The mean, not the
    median, because it follows the share of the run spent in the slow state
    in proportion, as the summed op times do."""
    return REFERENCE_NOMINAL_S / statistics.fmean(reference) if reference else 1.0


def _op_report(st: OpState) -> dict:
    return {
        "name": st.op.name,
        "argv": st.argv,
        "size": st.size,
        "problems": sorted({p for r in st.runs for p in r["problems"]}),
        "digits": st.verdict["digits"] if st.verdict else {},
        "samples": st.verdict["samples"] if st.verdict else 0,
        "layers": st.layers,
        "runs": [
            {k: v for k, v in r.items() if k not in ("stdout", "spans", "problems")}
            | {"passed": not r["problems"]}
            for r in st.runs
        ],
    }


# -- provenance and output ---------------------------------------------------------------


def provenance(seed: int) -> dict:
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "parent_python": sys.version.split()[0],
    }


def _summary(res: dict) -> list[str]:
    lines = [
        f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
        f"passes {res['passes']}  attempted {res['attempted']}  failed {res['failed']}  "
        f"elapsed {res['elapsed_s']:.1f} s"
    ]
    for name, unit in END_TO_END_UNITS.items():
        lines.append(f"  {name:<14} {res['metrics'][name]:.6g} {unit}")
    lines.append(f"  {'fail_frac':<14} {res['fail_frac']:.6g} ratio  (probes included)")
    if res["reference_s"]:
        raw = "  ".join(f"{n} {res['raw_metrics'][n]:.6g}" for n in ("setup_s", "wall_s", "solve_s"))
        lines.append(f"  host_speed     {res['host_speed']:.4g}  (mean of {len(res['reference_s'])} "
                     f"reference children; unscaled: {raw})")
    for name, value in res["layers"].items():
        lines.append(f"  {name:<34} {value:.6g} {PER_LAYER_UNITS[name]}")
    for op in res["ops"]:
        for p in op["problems"]:
            lines.append(f"  FAIL {op['name']}: {p}")
    for pr in res["probes"]:
        verdict = "FAIL" if pr["problems"] else "pass"
        lines.append(f"  probe {pr['name']}: {verdict}  (known defect: {pr['known_defect']})")
        for p in pr["problems"]:
            lines.append(f"    {p}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gausszonoids CLI benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="multiplies Monte Carlo sizes")
    ap.add_argument("--oracles", type=Path, default=ORACLE_FILE)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gausszonoids" / "cli.py").is_file():
        print(f"error: no gausszonoids package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    with open(args.oracles) as fh:
        oracles = json.load(fh)["values"]
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(OUT_DIR / "tmp")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance(args.seed)
    results = []
    try:
        for name in names:
            res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                               args.scale, oracles, runner)
            res["provenance"] = prov
            stem = f"{name}-seed{args.seed}-trace{args.trace}"
            spans = res.pop("spans")
            with open(OUT_DIR / f"{stem}.json", "w") as fh:
                json.dump(res, fh, indent=1)
            if spans:
                with open(OUT_DIR / f"{stem}-spans.json", "w") as fh:
                    json.dump(spans, fh)
            results.append(res)
            print("\n".join(_summary(res)), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {}
    for res in results:
        values = res["layers"] if args.trace else res["metrics"]
        prefix = "" if len(results) == 1 else f"{res['workload']}/"
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
