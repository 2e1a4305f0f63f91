#!/usr/bin/env python3
"""Socket-to-socket serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and through it the repository's library) into
.bench_build/perfbench, then measures one workload:

  --trace 0  end-to-end metrics. The server (`perfbench serve`) is started
             SETUP_STARTS times and its start-to-ready time is taken each
             time (setup_s is their median); the last instance serves the
             load generator (`perfbench load`): 12 rounds of capacity
             (closed loop) and nominal (open loop), then 6 overload rounds
             (open loop); see client.cpp.
  --trace 1  per-layer metrics. An untraced capacity-only run, a traced full
             run (obs::trace_start in the server; Chrome trace written at
             exit and reduced to per-span self times here) and the
             in-process layer probes (`perfbench probe`).

Every reply is checked against the client's own reference model; any wrong
logit or accounting violation makes `correct` false and the exit code 1.
Before the result, one `env:` line records where the run was measured. The
last stdout line is the result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Metric names, units and directions are listed in BENCHMARK.json; which
end-to-end metric each per-layer metric should move is in
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"

SETUP_STARTS = 7
READY_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150
# The open-loop generator counts as late when the 90th percentile of its
# send lag (due time -> request fully written) at the nominal rate, median
# over the rounds, exceeds this; the run's latencies are then not trusted.
# p90 is the tail the latency metrics bound. A host stall of a few ms that
# delays 1% of a round's sends shows in bench.send_lag_ms.p99 but leaves the
# bounded latencies whole, so it does not invalidate the run.
LAG_BOUND_MS = 5.0
# Every process runs GEMMs on its own thread; the probes alone use more.
ONE_LANE = {"ONESA_KERNEL_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "capacity_rps": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "overload_goodput_rps": "1/s",
    "server_cpu_us_per_req": "us",
    "peak_rss_mb": "MB",
}

SPANS = ("request", "queue_wait", "window_park", "service", "batch", "gemm")


def per_layer_units():
    units = {
        "p99_ms": "ms",
        "net.other_ms.p50": "ms", "net.other_ms.p99": "ms",
        "net.encode_req_us": "us", "net.decode_req_us": "us",
        "net.encode_reply_us": "us", "net.decode_reply_us": "us",
        "serve.queue_ms.p50": "ms", "serve.queue_ms.p99": "ms",
        "serve.service_ms.p50": "ms", "serve.service_ms.p99": "ms",
        "serve.batch_requests.mean": "count",
        "serve.shed_frac": "frac", "serve.window_expiries_per_s": "1/s",
        "serve.swap_ms": "ms", "serve.submit_rtt_us": "us",
        "nn.infer_us.r1": "us", "nn.infer_us.r16": "us", "nn.infer_us.r64": "us",
        "nn.layer_us.0": "us", "nn.layer_us.1": "us", "nn.layer_us.2": "us",
        "nn.int16_layer_us.0": "us", "nn.int16_layer_us.1": "us",
        "nn.register_ms": "ms",
        "kernels.pack_ms": "ms",
        "cpwl.gelu_ns_per_elem": "ns",
        "tensor.pool_hit_frac": "frac", "tensor.worker_allocs_per_req": "count",
        "obs.trace_overhead_frac": "frac",
        "bench.send_lag_ms.p99": "ms", "bench.client_threads": "count",
        "bench.client_cpu_frac": "frac",
        "bench.failed_frac": "frac", "bench.max_logit_err": "logit",
    }
    for shape in ("up", "down"):
        for m in (1, 16, 64):
            for dtype in ("double", "int16"):
                for lanes in ("1", "all"):
                    units[f"kernels.gemm_gflops.{shape}.{m}.{dtype}.{lanes}"] = "GFLOP/s"
    for span in SPANS:
        units[f"obs.self_us.{span}"] = "us"
    return units


PER_LAYER = per_layer_units()


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(BUILD / "build.log", "w") as out:
        for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed, see {BUILD / 'build.log'}")


# -------------------------------------------------------------- processes

class Server:
    """One `perfbench serve` process; start() returns its start-to-ready time."""

    def __init__(self, workload, seed, trace_out=None):
        self.args = [str(BINARY), "serve", "--workload", workload, "--seed", str(seed)]
        if trace_out:
            self.args += ["--trace-out", str(trace_out)]
        self.proc = None
        self.port = None

    def start(self):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env={**os.environ, **ONE_LANE}, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        if not line.startswith("READY "):
            raise BenchError(f"server did not become ready (got {line!r})")
        self.port = int(line.split()[1])
        return elapsed

    def stop(self):
        """Close stdin (the server drains and exits) and return its DONE record."""
        if self.proc is None:
            return {}
        proc, self.proc = self.proc, None
        try:
            out, _ = proc.communicate(input="", timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        done = [l for l in out.splitlines() if l.startswith("DONE ")]
        if proc.returncode != 0 or not done:
            raise BenchError(f"server exited with {proc.returncode}")
        return json.loads(done[-1][5:])


def run_json(args, env_extra=None):
    """Run a perfbench role to completion; its last stdout line is JSON."""
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                          env={**os.environ, **(env_extra or {})})
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{args[1]} printed nothing (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def load(server, workload, seed, seconds, phases="all"):
    rc, out = run_json([str(BINARY), "load", "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--port", str(server.port),
                        "--server-pid", str(server.proc.pid), "--phases", phases], ONE_LANE)
    if rc != 0 and out.get("violations", 0) == 0:
        raise BenchError(f"load generator exited with {rc}")
    return out


def serve_and_load(workload, seed, seconds, phases="all", setup_starts=1, trace_out=None):
    setups = []
    for _ in range(setup_starts - 1):
        s = Server(workload, seed)
        try:
            setups.append(s.start())
        finally:
            s.stop()
    server = Server(workload, seed, trace_out)
    try:
        setups.append(server.start())
        out = load(server, workload, seed, seconds, phases)
    finally:
        done = server.stop()
    for counter in ("double_settles", "protocol_errors"):
        if done.get(counter, 0) != 0:
            out["violations"] = out.get("violations", 0) + 1
            out["first_violation"] = out.get("first_violation") or f"server counted {counter}"
    return setups, out


# ---------------------------------------------------------------- metrics

def med(rounds, key):
    return statistics.median(r[key] for r in rounds)


def total(rounds, key):
    return sum(r[key] for r in rounds)


def server_total(rounds, name):
    return sum(r["server"][name] for r in rounds)


# Rates and CPU costs pool their rounds (counts over total time): the sum
# averages the host's second-to-second drift better than a median of a few
# rounds. Percentiles are taken per round and then their median, so a host
# stall inside one round moves none of them.

def rate(rounds, key):
    return total(rounds, key) / total(rounds, "seconds")


def cpu_us_per_req(rounds):
    return total(rounds, "cpu_s") / max(total(rounds, "ok"), 1) * 1e6


def end_to_end(setups, out):
    ph = out["phases"]
    return {
        "setup_s": statistics.median(setups),
        "capacity_rps": rate(ph["capacity"], "ok_in_window"),
        "p50_ms": med(ph["nominal"], "latency_p50"),
        "p90_ms": med(ph["nominal"], "latency_p90"),
        "overload_goodput_rps": rate(ph["overload"], "ok_in_window"),
        "server_cpu_us_per_req": cpu_us_per_req(ph["capacity"]),
        # VmHWM before the overload rounds: set-up, warm-up, capacity, nominal.
        "peak_rss_mb": max(r["peak_rss_mb"] for r in ph["capacity"] + ph["nominal"]),
    }


def span_self_times(trace_path):
    """Mean self time (us) per span of each name in SPANS.

    Async request spans ("b"/"e" sharing an id) nest queue_wait,
    window_park and service inside request; complete spans ("X") nest by
    time on their thread track (batch encloses the kernel spans, all of
    which count as "gemm")."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    totals = {s: 0.0 for s in SPANS}
    counts = {s: 0 for s in SPANS}
    intervals = {}
    by_tid = {}
    for ev in events:
        if ev["ph"] in ("b", "e"):
            key = (ev["name"], ev["id"])
            lo, hi = intervals.get(key, (None, None))
            if ev["ph"] == "b":
                lo = ev["ts"] if lo is None else min(lo, ev["ts"])
            else:
                hi = ev["ts"] if hi is None else max(hi, ev["ts"])
            intervals[key] = (lo, hi)
        elif ev["ph"] == "X":
            name = "gemm" if ev.get("cat") == "kernel" else ev["name"]
            by_tid.setdefault(ev["tid"], []).append((ev["ts"], ev["dur"], name))
    children = {}
    for (name, rid), (lo, hi) in intervals.items():
        if lo is None or hi is None or name not in totals:
            continue
        if name != "request":
            totals[name] += hi - lo
            counts[name] += 1
            children[rid] = children.get(rid, 0) + (hi - lo)
    for (name, rid), (lo, hi) in intervals.items():
        if name == "request" and lo is not None and hi is not None:
            # Children are stamped on other threads and may end a hair after
            # the request's own end event.
            totals["request"] += max(0.0, (hi - lo) - children.get(rid, 0))
            counts["request"] += 1
    for spans in by_tid.values():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []  # [end, name, child_time]
        def close(entry):
            if entry[1] in totals:
                totals[entry[1]] += entry[3] - entry[2]
                counts[entry[1]] += 1
        for ts, dur, name in spans:
            while stack and stack[-1][0] <= ts:
                close(stack.pop())
            if stack:
                stack[-1][2] += dur
            stack.append([ts + dur, name, 0.0, dur])
        while stack:
            close(stack.pop())
    return {f"obs.self_us.{s}": totals[s] / counts[s] if counts[s] else 0.0 for s in SPANS}


def per_layer(workload, seed, seconds):
    trace_path = BUILD / f"trace-{workload}-{seed}.json"
    _, plain = serve_and_load(workload, seed, seconds, phases="capacity")
    _, out = serve_and_load(workload, seed, seconds, trace_out=trace_path)
    rc, probes = run_json([str(BINARY), "probe", "--workload", workload, "--seed", str(seed)])
    if rc != 0:
        raise BenchError(f"layer probes exited with {rc}")
    ph = out["phases"]
    cap, nom, over = ph["capacity"], ph["nominal"], ph["overload"]
    pool_hits = server_total(cap, "perfbench_pool_hits")
    pool_total = pool_hits + server_total(cap, "perfbench_pool_misses")
    metrics = {
        "p99_ms": med(nom, "latency_p99"),
        "net.other_ms.p50": med(nom, "other_p50"),
        "net.other_ms.p99": med(nom, "other_p99"),
        "serve.queue_ms.p50": med(nom, "queue_p50"),
        "serve.queue_ms.p99": med(nom, "queue_p99"),
        "serve.service_ms.p50": med(nom, "service_p50"),
        "serve.service_ms.p99": med(nom, "service_p99"),
        "serve.batch_requests.mean": server_total(cap, "serve_batch_requests_sum")
            / max(server_total(cap, "serve_batch_requests_count"), 1),
        "serve.shed_frac": total(over, "shed") / max(total(over, "sent"), 1),
        "serve.window_expiries_per_s":
            server_total(nom, "serve_window_expiries_total") / total(nom, "seconds"),
        "tensor.pool_hit_frac": pool_hits / pool_total if pool_total else 1.0,
        "tensor.worker_allocs_per_req":
            server_total(cap, "perfbench_worker_heap_allocations") / max(total(cap, "ok"), 1),
        "obs.trace_overhead_frac":
            cpu_us_per_req(cap) / cpu_us_per_req(plain["phases"]["capacity"]) - 1.0,
        "bench.send_lag_ms.p99": med(nom, "lag_p99"),
        "bench.client_threads": out["client_threads"],
        "bench.client_cpu_frac": total(cap, "client_cpu_s") / total(cap, "seconds"),
        "bench.failed_frac": (total(nom, "sent") - total(nom, "ok")) / max(total(nom, "sent"), 1),
        "bench.max_logit_err": out["max_logit_err"],
    }
    metrics.update(span_self_times(trace_path))
    trace_path.unlink()
    metrics.update(probes)
    out["violations"] += plain["violations"]
    out["attempted"] += plain["attempted"]
    return metrics, out


def phase_summary(phases):
    """Accounting per phase, summed over its rounds, and the latency sample
    count of each round (the percentiles are per round, then the median)."""
    summary = {}
    for name, rounds in phases.items():
        summary[name] = {k: int(total(rounds, k)) for k in ("sent", "ok", "shed", "errors", "missing")}
        summary[name]["rounds"] = len(rounds)
        summary[name]["latency_samples_per_round"] = [int(r["latency_n"]) for r in rounds]
    return summary


# ------------------------------------------------------------ environment

def environment(seed, out):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        commit = r.stdout.strip() or None
    if commit is None:
        # A checkout without git history: name the sources by content.
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*")) + sorted(HERE.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
        commit = "sources-sha256:" + digest.hexdigest()[:16]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "kernel_double": out.get("kernel_double"),
        "kernel_int16": out.get("kernel_int16"),
        "build_type": out.get("build_type"),
        "commit": commit,
        "seed": seed,
        "fleet": "2 shards x 1 worker + 1 reactor, GEMMs on 1 lane",
        "client": "1 thread, 1 connection",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        if args.trace:
            metrics, out = per_layer(args.workload, args.seed, args.seconds)
            units = PER_LAYER
        else:
            setups, out = serve_and_load(args.workload, args.seed, args.seconds,
                                         setup_starts=SETUP_STARTS)
            metrics = end_to_end(setups, out)
            units = END_TO_END
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 1
    missing = sorted(set(units) - set(metrics))
    if missing:
        log(f"metrics missing from the run: {missing}")
        return 1
    ph = out["phases"]
    lag = med(ph["nominal"], "lag_p90") if "nominal" in ph else 0.0
    late = lag > LAG_BOUND_MS
    correct = out["violations"] == 0 and not late
    if out["violations"]:
        log(f"{out['violations']} violation(s), first: {out['first_violation']}")
    if late:
        log(f"generator ran late: send lag p90 {lag:.3f} ms "
            f"> {LAG_BOUND_MS} ms; the run is invalid")
    # Overload sheds are the designed answer to the overload phase; every
    # other non-ok outcome counts as failed.
    failed = sum(r["sent"] - r["ok"] - (r["shed"] if name == "overload" else 0)
                 for name, rounds in ph.items() for r in rounds)
    print("env: " + json.dumps(environment(args.seed, out)))
    print("phases: " + json.dumps(phase_summary(ph)))
    print(json.dumps({
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
