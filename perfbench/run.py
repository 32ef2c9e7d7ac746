"""Closed-loop benchmark of the mpcx extraction loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 12 --trace 0

Workloads: paper-grid, paper-coarse, desk-trials (see README.md).  An
untraced run (``--trace 0``) reports the end-to-end metrics; a traced run
(``--trace 1``) reports the per-layer split instead.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  A full record of
the run, with machine facts, goes to perfbench/out/.

Set-up is measured in several fresh processes (import, scenario,
synthesis, one warm-up trial) and reported as their median; the last of
them goes on to the timed trials.  Exit status is 0 when a result was
printed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("paper-grid", "paper-coarse", "desk-trials")
SETUP_PROCESSES = 3
TIME_LIMIT_S = 170.0
# Two BLAS threads spinning on a 2-core box made identical paper-coarse
# trials swing between 7 and 11 s; one thread held them within about 10%.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

# end-to-end metric -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "trial_s_p50": ("s", "lower"),
    "paths_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "normalized_error": ("ratio", "lower"),
    "post_pa_cost": ("bin2", "lower"),
    "s_joint_frac": ("frac", "higher"),
}


def layer_better(name: str) -> str:
    return "higher" if name == "extract.commit_ratio" else "lower"


def _run_worker(args, phase: str, index: int, deadline: float):
    "Run one fresh workload process; returns (result dict, start wall time)."
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"{tag}.worker{index}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--phase", phase,
           "--result", str(result_path)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--spans", str(OUT / f"{args.workload}.spans.csv")]
    started = time.time()
    # worker chatter goes to stderr so that stdout ends with the result line
    proc = subprocess.run(cmd, stdout=sys.stderr, env={**os.environ, **BLAS_ENV},
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"{phase} process exited with status {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    return result, started


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_machine(facts: dict) -> None:
    def mb(key):
        return f"{facts[key] / 1e6:.1f} MB" if facts.get(key) else "unknown"

    print(f"machine: nproc {facts['nproc']}, python {facts['python']}, "
          f"numpy {facts['numpy']}, BLAS {facts['blas']} "
          f"(threads: {facts['blas_threads'] or 'unknown'}), "
          f"L2 {mb('l2_bytes')}, L3 {mb('l3_bytes')} per instance")


def _report_untraced(result: dict, setup_times: list[float]) -> dict:
    extra = result["extra"]
    metrics = {"setup_s": statistics.median(setup_times), **result["metrics"]}
    n = extra["trials"]
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "trial_s_p50": f"n={n} trials",
        "normalized_error": f"mean of first {extra['quality_trials']} trials",
        "post_pa_cost": f"mean of first {extra['quality_trials']} trials",
        "s_joint_frac": f"mean of first {extra['quality_trials']} trials",
    }
    print(f"{'metric':<20} {'value':>12}  {'unit':<6} {'better':<7} note")
    for name, (unit, better) in END_TO_END.items():
        print(f"{name:<20} {_fmt(metrics[name]):>12}  {unit:<6} {better:<7} "
              f"{notes.get(name, '')}")
        if name == "trial_s_p50" and "trial_s_tail" in extra:
            pct = extra["tail_pct"]
            print(f"{'trial_s_tail':<20} {_fmt(extra['trial_s_tail']):>12}  "
                  f"{'s':<6} {'lower':<7} p{pct:.0f}, 10 of {n} trials beyond")
        elif name == "trial_s_p50":
            print(f"{'trial_s_tail':<20} {'-':>12}  {'s':<6} {'lower':<7} "
                  f"not reported: {n} trials, needs 20")
    failed_frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':<20} {_fmt(failed_frac):>12}  {'frac':<6} {'lower':<7} "
          f"{result['failed']} of {result['attempted']} trials (with warm-up)")
    return {name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in END_TO_END.items()}


def _report_traced(result: dict) -> dict:
    layers = result["layers"]
    print(f"{'per-layer metric':<36} {'value':>12}  {'unit':<6} better   "
          "(per traced trial)")
    for name, entry in layers.items():
        print(f"{name:<36} {_fmt(entry['value']):>12}  {entry['unit']:<6} "
              f"{layer_better(name)}")
    facts = result["machine"]
    grid = layers["beamspace.grid_mb"]["value"]
    l2, l3 = facts.get("l2_bytes"), facts.get("l3_bytes")
    if l2 and l3:
        print(f"grid {grid:.1f} MB against L2 {l2 / 1e6:.1f} MB and "
              f"L3 {l3 / 1e6:.1f} MB; subtract_path bytes are computed as "
              "calls x 2 x grid bytes")

    walls = result["traced_walls"]
    wall = statistics.fmean(walls)
    table = result["span_table"]
    print(f"\nsplit of the mean traced trial ({wall:.6g} s, {len(walls)} trials), "
          "by self time:")
    print(f"{'span':<36} {'calls':>10} {'s':>10} {'self_s':>10} {'share':>7}")
    rows = sorted(((n, r) for n, r in table.items() if n != "bench.trial"),
                  key=lambda item: -item[1]["self_s"])
    for name, row in rows:
        print(f"{name:<36} {row['calls']:>10.6g} {row['s']:>10.4g} "
              f"{row['self_s']:>10.4g} {row['self_s'] / wall:>7.1%}")
    root = table.get("bench.trial", {"self_s": 0.0})
    print(f"{'(unattributed)':<36} {'':>10} {'':>10} {root['self_s']:>10.4g} "
          f"{root['self_s'] / wall:>7.1%}")
    for i, (w, rest) in enumerate(zip(walls, result["unattributed"])):
        print(f"traced trial {i}: wall {w:.6g} s, unattributed {rest:.6g} s")

    def value(name):
        return layers[name]["value"]

    greedy = table.get("extract.greedy_ls", {}).get("s", 0.0)
    if greedy:
        share = (value("beamspace.subtract_path.s") + value("extract.peak.s")) / greedy
        print(f"subtract_path + peak: {share:.1%} of greedy_ls wall")
    if value("extract.sage_refine.s"):
        share = value("extract.sage_refine.s") / wall
        print(f"sage_refine (with its transforms): {share:.1%} of trial wall")
    print(f"tracing overhead: {value('trace_overhead_frac'):+.1%} on the median trial")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Closed-loop mpcx benchmark; see perfbench/README.md.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes, for the self-test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)

    processes = 1 if args.trace else SETUP_PROCESSES
    setup_times = []
    try:
        for k in range(processes):
            phase = "full" if k == processes - 1 else "setup"
            result, started = _run_worker(args, phase, k, deadline)
            setup_times.append(result["setup_end"] - started)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"perfbench: {args.workload}: {err}", file=sys.stderr)
        return 1

    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload}, seed {args.seed}, {args.seconds:g} s, {mode}"
          f"{', tiny sizes' if args.tiny else ''}")
    _print_machine(result["machine"])
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    if args.trace:
        metrics = _report_traced(result)
    else:
        metrics = _report_untraced(result, setup_times)

    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, setup_times=setup_times)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                     encoding="utf-8")
    correct = result["failed"] == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
