"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs every workload once untraced and once traced at tiny Monte Carlo
   sizes and checks that each run prints every metric BENCHMARK.json names,
   with its unit.
2. Negative control: reruns every workload against a copy of the oracles
   with each value moved by 1 % and checks that more ops fail than against
   the true oracles.

Tiny sizes make the Monte Carlo standard errors too rough for the 5 % SE
check, so a tiny run may fail ops; only the two properties above are
asserted.  Exit code 0 when both hold.
"""
from __future__ import annotations

import json
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.01"


def run(workload: str, trace: int, oracles: Path | None = None) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--scale", SCALE]
    if oracles is not None:
        cmd += ["--oracles", str(oracles)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(ROOT / ".perfbench" / f"{workload}-seed0-trace{trace}.json") as fh:
        details = json.load(fh)
    return result, details


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    problems = []

    for w in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run(w["name"], trace)
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} trace {trace}: metrics {got} != {want}")
            if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
                problems.append(f"{w['name']} trace {trace}: malformed result {result}")
            print(f"{w['name']} trace {trace}: {len(got)} metrics, "
                  f"attempted {result['attempted']}, failed {result['failed']}", flush=True)

    with open(HERE / "oracles.json") as fh:
        stored = json.load(fh)
    stored["values"] = {k: str(Decimal(v) * Decimal("1.01")) for k, v in stored["values"].items()}
    corrupted = ROOT / ".perfbench" / "oracles-corrupted.json"
    with open(corrupted, "w") as fh:
        json.dump(stored, fh)
    for w in bench["workloads"]:
        clean, clean_details = run(w["name"], 0)
        bad, bad_details = run(w["name"], 0, oracles=corrupted)
        print(f"{w['name']} negative control: fail_frac {clean_details['fail_frac']:.3g} "
              f"-> {bad_details['fail_frac']:.3g} with corrupted oracles", flush=True)
        if not bad_details["fail_frac"] > clean_details["fail_frac"]:
            problems.append(f"{w['name']}: a corrupted oracle did not raise fail_frac")

    for p in problems:
        print("SELFTEST FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
