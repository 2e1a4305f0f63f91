#!/usr/bin/env python3
"""Diff two bench JSON artifacts and fail on performance-trajectory regressions.

Usage:
    compare_bench.py BASELINE.json FRESH.json [--threshold 0.2]

Walks both files in parallel and compares every numeric field whose name
contains "speedup" or equals "knee_offered_rps" / "overload_goodput_ratio"
— the figures of merit (measured speedup ratios and the traffic bench's
overload-survival figures). A fresh value more than THRESHOLD
(default 20%) below its baseline fails the run with exit code 1.

"flash_interactive_p99_ratio" (interactive p99 after a 10x flash crowd over
before it) is gated lower-is-better with 0.5 absolute slack — it hovers
near 1.0 when recovery is healthy and is a quotient of two jittery p99s.
"knee_offered_rps" is the offered load at which queueing delay turns the
hockey-stick corner; it is an absolute requests/second figure, so when
either file records hardware_threads == 1 it is demoted to INFO (on one
core the load generator and the server contend for the same cycles and the
knee measures the scheduler, not the server).

"int16_vs_double_rps_ratio" (the quantized lane's single-thread RPS over
the double lane's, from the serving bench) is gated like a speedup, but
only when both files record the same "int16_lane.int16_kernel" name: the
ratio tracks a code trajectory only within one kernel tier, so a baseline
from an AVX-512 host diffed against a scalar-tier run (or a baseline that
predates the lane) demotes it to INFO.

"allocs_per_request" is gated in the other direction (lower is better):
a fresh value above baseline * (1 + THRESHOLD) AND more than 0.01 above it
absolutely fails the run. The absolute slack matters because the committed
steady-state baseline is exactly 0, where any purely relative threshold
would either never fire or fire on measurement dust; 0.01 allocations per
request only trips when a real allocation re-entered the request path.

Two classes of figures are compared but reported as INFO, never failed:
  - "contention_scaling" (host wall-clock RPS ratios vs submitter threads)
    — real contention regressions show up here, but wall clock on shared
    single-vCPU CI runners swings far past any honest threshold;
  - threaded-GEMM speedups ("speedup_vs_1t", "speedup_dispatch") when
    either file records hardware_threads == 1 — a single-core host cannot
    exhibit (or predict) multi-core scaling, so those ratios are noise
    there.

List entries are matched by identity key (name / granularity / shape /
priority / workers / shards / row_budget / window_ms / class / lanes). When both files
carry a top-level "smoke" flag and the flags differ, only the sections
whose problem size does not depend on --smoke (SMOKE_INVARIANT_SECTIONS:
the precision ablation) are compared, and every skipped section is named —
timing ratios of differently-sized problems are not a trajectory. If the
kept sections' watched figures are all demoted to INFO, the run passes
with that said instead of failing for comparing nothing.

A watched field the BASELINE has but the fresh file lacks fails the run
with exit code 1 and names the field: a dict key that is gone, or a list
entry with no fresh counterpart whose subtree holds a watched field. A
rewritten bench section that silently dropped (or renamed) a gated figure
would otherwise disarm its gate without any failure. Baseline list entries
that hold no watched field are skipped with a note.

Fields or list entries present in the FRESH file but absent from the
baseline are tolerated with a warning (never a failure): a bench gaining a
section must be able to land before the regenerated baseline is committed
(no chicken-and-egg), while the note keeps the gap visible until it is.

Absolute timings (ms), GFLOP/s, and host latencies are deliberately NOT
compared: they move with the runner hardware. Ratios computed on one host
within one run are the stable signal.

A baseline file that is absent or not valid JSON downgrades the whole run
to a warning + exit 0: the gate is only armed once a good baseline is
committed, and a broken artifact must not impersonate a perf regression.
"""

import argparse
import json
import sys


def is_watched(key: str) -> bool:
    return (key in ("allocs_per_request", "contention_scaling", "knee_offered_rps",
                    "overload_goodput_ratio", "flash_interactive_p99_ratio",
                    "int16_vs_double_rps_ratio")
            or "speedup" in key)


def is_lower_better(key: str) -> bool:
    return key in ("allocs_per_request", "flash_interactive_p99_ratio")


# Absolute slack for lower-is-better fields. "allocs_per_request" has a
# committed baseline of exactly 0, where a relative threshold would either
# never fire or fire on dust. "flash_interactive_p99_ratio" hovers near 1.0
# (full recovery) and is a quotient of two p99s, each of which jitters by
# tens of percent run-to-run on shared runners; half a ratio point of slack
# keeps the gate on genuine failure-to-recover, not scheduler weather.
LOWER_BETTER_ABS_SLACK = {
    "allocs_per_request": 0.01,
    "flash_interactive_p99_ratio": 0.5,
}

# Multi-thread scaling figures that mean nothing on a 1-core host.
THREADED_KEYS = ("speedup_vs_1t", "speedup_dispatch")

# Absolute-throughput figures (requests/second at the wire). On a 1-core
# host the load generator, the reactor, and the fleet workers all share the
# single core, so the measured knee is dominated by scheduler interleaving
# rather than server capacity — report, never gate, there.
ABSOLUTE_RPS_KEYS = ("knee_offered_rps",)

# Figures whose meaning depends on which INT16 GEMM kernel tier the host
# dispatched (amx vs avx512vnni vs avx512bw vs avx2 vs portable). The check
# is name equality, not a list of known names, so a new tier is handled
# without an edit here. Comparing a baseline produced on
# an AVX-512 box against a fresh run on a scalar box (or vice versa) measures
# the hardware difference, not a code regression — demote to INFO whenever
# the two files record different kernel names (or either omits one).
KERNEL_TIER_KEYS = ("int16_vs_double_rps_ratio", "speedup_int16_vs_double")


# Top-level sections whose problem size is the same in smoke and full runs:
# bench_ablation_precision takes no --smoke flag and splices "precision"
# into the kernels artifact, so its figures stay comparable when the
# artifact's own sections do not.
SMOKE_INVARIANT_SECTIONS = ("precision",)


def entry_key(obj):
    """Identity of a list entry, built from its discriminating fields."""
    parts = []
    for field in ("name", "granularity", "shape", "priority", "workers", "shards",
                  "row_budget", "window_ms", "class", "lanes", "submitters", "bench",
                  "multiplier", "model"):
        if field in obj:
            parts.append((field, obj[field]))
    return tuple(parts) if parts else None


def watched_leaves(obj, path):
    """Paths of every watched numeric field inside `obj` (itself at `path`)."""
    if isinstance(obj, dict):
        out = []
        for key, value in obj.items():
            label = f"{path}.{key}" if path else key
            if is_watched(key) and isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                out.append(label)
            out.extend(watched_leaves(value, label))
        return out
    if isinstance(obj, list):
        out = []
        for i, item in enumerate(obj):
            out.extend(watched_leaves(item, f"{path}[{i}]"))
        return out
    return []


def walk(base, fresh, path, results):
    if isinstance(base, dict) and isinstance(fresh, dict):
        for key in base:
            label = f"{path}.{key}" if path else key
            if key in fresh:
                walk(base[key], fresh[key], label, results)
            else:
                # Gone from the fresh file: every watched field under it has
                # lost its gate.
                results["dropped"].extend(watched_leaves({key: base[key]}, path))
        for key in fresh:
            if key not in base:
                # New-in-fresh field: warn, never fail — lets a bench grow a
                # section before the regenerated baseline lands. Flag watched
                # fields specially: they stay unguarded until the baseline
                # catches up.
                label = f"{path}.{key}" if path else key
                if is_watched(key):
                    label += " (WATCHED, unguarded until baseline regenerated)"
                results["new"].append(label)
    elif isinstance(base, list) and isinstance(fresh, list):
        fresh_by_key = {}
        for item in fresh:
            if isinstance(item, dict):
                key = entry_key(item)
                if key is not None:
                    fresh_by_key[key] = item
        for item in base:
            if not isinstance(item, dict):
                continue
            key = entry_key(item)
            match = fresh_by_key.pop(key, None)
            label = next((str(v) for _, v in (key or ())), "?")
            if match is None:
                dropped = watched_leaves(item, f"{path}[{label}]")
                if dropped:
                    results["dropped"].extend(dropped)
                else:
                    results["skipped"].append(f"{path}[{key}] (no fresh counterpart)")
                continue
            walk(item, match, f"{path}[{label}]", results)
        for key in fresh_by_key:
            results["new"].append(f"{path}[{key}] (no baseline counterpart)")
    elif isinstance(base, (int, float)) and isinstance(fresh, (int, float)):
        leaf = path.rsplit(".", 1)[-1]
        if not is_watched(leaf) or isinstance(base, bool) or isinstance(fresh, bool):
            return
        if leaf == "contention_scaling" or (
                leaf in THREADED_KEYS + ABSOLUTE_RPS_KEYS
                and results.get("single_core")) or (
                leaf in KERNEL_TIER_KEYS
                and results.get("kernel_tier_mismatch")):
            results["informational"].append((path, base, fresh))
            return
        results["compared"].append((path, base, fresh))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="allowed fractional regression (default 0.2 = 20%%)")
    args = parser.parse_args()

    # A missing or unparseable BASELINE is a warning, not a crash: the gate
    # only exists once a baseline has been committed, and a corrupted artifact
    # download should read as "nothing to compare against", not a stack trace
    # masquerading as a perf regression. A bad FRESH file stays a hard error —
    # that means the bench itself broke, which the gate must surface.
    try:
        with open(args.baseline) as f:
            base = json.load(f)
    except FileNotFoundError:
        print(f"compare_bench: WARNING baseline '{args.baseline}' not found — "
              "nothing to compare against, skipping the gate")
        return 0
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        print(f"compare_bench: WARNING baseline '{args.baseline}' is not valid "
              f"JSON ({err}) — skipping the gate; regenerate and recommit it")
        return 0
    with open(args.fresh) as f:
        fresh = json.load(f)

    smoke_mismatch = ("smoke" in base and "smoke" in fresh
                      and base["smoke"] != fresh["smoke"])

    results = {"compared": [], "skipped": [], "new": [], "informational": [],
               "dropped": []}
    # Threaded-GEMM scaling rows are only meaningful when BOTH runs had
    # cores to scale onto; either side recording a 1-thread host demotes
    # them to INFO.
    results["single_core"] = (base.get("hardware_threads") == 1
                              or fresh.get("hardware_threads") == 1)

    # The INT16-vs-double RPS ratio is only a code-trajectory signal when both
    # runs dispatched the same INT16 kernel tier; a tier change (different
    # host, or either file predating the lane) makes it hardware news.
    def int16_kernel(doc):
        lane = doc.get("int16_lane")  # serving bench layout
        if not isinstance(lane, dict):  # kernels artifact: precision.int16_lane
            precision = doc.get("precision")
            lane = precision.get("int16_lane") if isinstance(precision, dict) else None
        return lane.get("int16_kernel") if isinstance(lane, dict) else None

    results["kernel_tier_mismatch"] = int16_kernel(base) != int16_kernel(fresh)
    if smoke_mismatch:
        skipped = [key for key, value in base.items()
                   if isinstance(value, (dict, list)) and key not in SMOKE_INVARIANT_SECTIONS]
        print(f"compare_bench: smoke flags differ ({base['smoke']} vs {fresh['smoke']}); "
              f"comparing only {', '.join(SMOKE_INVARIANT_SECTIONS)}; skipped "
              f"size-dependent section(s): {', '.join(skipped) or 'none'}")
        base = {key: base[key] for key in SMOKE_INVARIANT_SECTIONS if key in base}
        fresh = {key: fresh[key] for key in SMOKE_INVARIANT_SECTIONS if key in fresh}
    walk(base, fresh, "", results)

    regressions = []
    for path, old, new in results["compared"]:
        leaf = path.rsplit(".", 1)[-1]
        status = "OK"
        if is_lower_better(leaf):
            ceiling = old * (1.0 + args.threshold)
            if new > ceiling and new - old > LOWER_BETTER_ABS_SLACK.get(leaf, 0.0):
                status = "REGRESSION"
                regressions.append((path, old, new))
        else:
            floor = old * (1.0 - args.threshold)
            if old > 0 and new < floor:
                status = "REGRESSION"
                regressions.append((path, old, new))
        print(f"  {status:<10} {path}: {old:.4g} -> {new:.4g}")

    for path, old, new in results["informational"]:
        leaf = path.rsplit(".", 1)[-1]
        if leaf in THREADED_KEYS:
            reason = "1-core host"
        elif leaf in ABSOLUTE_RPS_KEYS:
            reason = "absolute RPS on 1-core host"
        elif leaf in KERNEL_TIER_KEYS:
            reason = "INT16 kernel tier differs between runs"
        else:
            reason = "wall-clock, shared-runner noise"
        print(f"  INFO       {path}: {old:.4g} -> {new:.4g} (ungated: {reason})")

    for note in results["skipped"]:
        print(f"  skipped    {note}")
    for label in results["dropped"]:
        print(f"  DROPPED    {label}: watched in the baseline, absent from the fresh file")
    for note in results["new"]:
        print(f"  WARNING    new in fresh, absent from baseline: {note}")
    print(f"compare_bench: {len(results['compared'])} field(s) compared, "
          f"{len(results['informational'])} informational, "
          f"{len(results['skipped'])} entr(ies) skipped, "
          f"{len(results['new'])} new-in-fresh warning(s), "
          f"{len(results['dropped'])} dropped watched field(s), {len(regressions)} regression(s) "
          f"(threshold {args.threshold:.0%})")

    # A watched field that vanished from the fresh file is a gate that no
    # longer fires. Fail loudly and name it: regenerate the committed
    # baseline together with the bench change if the drop is intended.
    if results["dropped"]:
        for label in results["dropped"]:
            print(f"FAIL: watched field {label} is in the baseline but missing from the "
                  "fresh file — a dropped or renamed gated figure disarms its gate",
                  file=sys.stderr)
        return 1

    # A gate that compares nothing guards nothing: zero matched fields means
    # a section/field was renamed or dropped, and silently passing would
    # disarm the CI check forever. The one exception is a smoke mismatch
    # whose kept sections matched but were demoted to INFO above (e.g. the
    # INT16 ratio on a different kernel tier): that is said, not hidden.
    if smoke_mismatch and not results["compared"] and results["informational"]:
        print("compare_bench: every size-independent figure is informational on "
              "this pair of runs; nothing gated")
    elif not results["compared"]:
        print("FAIL: no comparable speedup fields found — was a bench "
              "section renamed or dropped? Regenerate the committed baseline alongside "
              "the bench change.", file=sys.stderr)
        return 1

    if regressions:
        for path, old, new in regressions:
            if is_lower_better(path.rsplit(".", 1)[-1]):
                print(f"FAIL: {path} regressed {old:.4g} -> {new:.4g} "
                      f"(+{new - old:.4g} above baseline)", file=sys.stderr)
            else:
                print(f"FAIL: {path} regressed {old:.4g} -> {new:.4g} "
                      f"({(1 - new / old):.1%} below baseline)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
