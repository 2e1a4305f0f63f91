#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py [--seconds 2]

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
checks each result: exit code 0, `correct` true, the result keys, metric
names and units exactly as BENCHMARK.json lists them, every value a finite
number, and exactly-once accounting in every phase (sent = ok + shed +
errors, nothing missing). Exits 1 on the first failure.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def run(workload, trace, seconds, spec):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0, f"exit code {proc.returncode}")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"result keys {sorted(result)}")
    check(result["correct"] is True, "correct is not true")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
    check(isinstance(result["failed"], int) and result["failed"] == 0, "failed")

    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    check(set(got) == set(wanted),
          f"metric names differ: missing {sorted(set(wanted) - set(got))}, "
          f"extra {sorted(set(got) - set(wanted))}")
    for name, m in got.items():
        check(set(m) == {"value", "unit"}, f"{name}: keys {sorted(m)}")
        check(m["unit"] == wanted[name], f"{name}: unit {m['unit']!r}, want {wanted[name]!r}")
        check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
              f"{name}: value {m['value']!r}")

    phases = [l for l in lines if l.startswith("phases: ")]
    check(phases, "no phases line")
    for name, p in json.loads(phases[-1][len("phases: "):]).items():
        check(p["missing"] == 0, f"{name}: {p['missing']} requests never answered")
        check(p["sent"] == p["ok"] + p["shed"] + p["errors"],
              f"{name}: sent {p['sent']} != ok + shed + errors")
    env = [l for l in lines if l.startswith("env: ")]
    check(env, "no env line")
    for key in ("nproc", "cpu", "kernel_double", "kernel_int16", "build_type", "commit", "seed"):
        check(json.loads(env[-1][len("env: "):]).get(key) is not None, f"env lacks {key}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            try:
                run(w["name"], trace, args.seconds, spec)
                print(f"ok    {w['name']} --trace {trace}", flush=True)
            except (AssertionError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
                failures += 1
                print(f"FAIL  {w['name']} --trace {trace}: {e}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
