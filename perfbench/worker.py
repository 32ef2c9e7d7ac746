"""One workload process: set up, warm up, run closed-loop trials, report.

Started by run.py as a fresh interpreter, so that set-up time includes the
import.  With ``--phase setup`` it stops after set-up and reports only when
set-up ended; with ``--phase full`` it goes on to the timed trials.  The
result goes to the JSON file named by ``--result``.

Traced runs first run untraced trials for half the time, then traced
trials for the other half; the ratio of their median walls is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_mpcx():
    "Import mpcx from this checkout's src/ and nowhere else."
    sys.path.insert(0, str(SRC))
    import mpcx

    origin = Path(mpcx.__file__).resolve().parent
    if origin != SRC / "mpcx":
        raise ImportError(f"mpcx imported from {origin}, not from {SRC / 'mpcx'}")


def _measure(workload, index: int, tracer=None):
    "One trial: timed run, then untimed checks; a raising trial is a failed one."
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        if index >= 0:  # the warm-up's input is prepared during set-up
            workload.prepare(index)
        t0 = time.perf_counter()
        if tracer is None:
            raw = workload.run(index)
        else:
            raw = tracer.run_trial(index, lambda: workload.run(index))
        wall = time.perf_counter() - t0
        return workload.check(index, raw, wall)
    except Exception:  # a failed trial is counted, not fatal
        traceback.print_exc()
        return Outcome(wall_s=time.perf_counter() - t0, extract_s=0.0,
                       committed=0, problems=["trial raised an exception"])


def _loop(workload, first: int, seconds: float, min_trials: int, tracer=None):
    "Closed loop: the next trial starts when the previous one has finished."
    outcomes = []
    t0 = time.perf_counter()
    while len(outcomes) < min_trials or time.perf_counter() - t0 < seconds:
        outcomes.append(_measure(workload, first + len(outcomes), tracer))
    return outcomes


def _tail(walls: list[float]):
    """Highest percentile with at least ten trials beyond it, or None.

    Reported only from 20 trials on, where that percentile is at least p50.
    """
    n = len(walls)
    if n < 20:
        return None
    rank = n - 10  # 1-based rank of the sample with ten trials above it
    return 100.0 * rank / n, sorted(walls)[rank - 1]


def _end_to_end(outcomes, quality_trials: int) -> tuple[dict, dict]:
    walls = [o.wall_s for o in outcomes]
    extract_s = sum(o.extract_s for o in outcomes)
    quality = outcomes[:quality_trials]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "trial_s_p50": statistics.median(walls),
        "paths_per_s": sum(o.committed for o in outcomes) / extract_s if extract_s else 0.0,
        "peak_rss_mb": rss_mb,
        "normalized_error": statistics.fmean(o.normalized_error for o in quality),
        "post_pa_cost": statistics.fmean(o.post_pa_cost for o in quality),
        "s_joint_frac": statistics.fmean(o.s_joint_frac for o in quality),
    }
    extra = {"trials": len(walls), "quality_trials": len(quality)}
    tail = _tail(walls)
    if tail is not None:
        extra["tail_pct"], extra["trial_s_tail"] = tail
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "full"), default="full")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="CSV file for the spans of a traced run")
    args = parser.parse_args(argv)

    _import_mpcx()
    from machine import machine_facts
    from tracer import SETUP_TRIAL, Tracer, per_layer_metrics, span_table
    from workloads import make_workload

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=Path(args.result).parent))
    try:
        workload = make_workload(args.workload, args.seed, workdir, args.tiny)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
            tracer.run_trial(SETUP_TRIAL, workload.setup)
            tracer.uninstall()
        else:
            workload.setup()
        warmup = _measure(workload, -1)
        setup_end = time.time()
        result = {"setup_end": setup_end}
        if args.phase == "setup":
            Path(args.result).write_text(json.dumps(result), encoding="utf-8")
            return 0

        if tracer is None:
            outcomes = _loop(workload, 0, args.seconds, workload.quality_trials)
            traced = []
        else:
            outcomes = _loop(workload, 0, args.seconds / 2, 1)
            tracer.install()
            try:
                traced = _loop(workload, len(outcomes), args.seconds / 2, 1, tracer)
            finally:
                tracer.uninstall()
        workload.finish(outcomes + traced)

        everything = [warmup] + outcomes + traced
        result.update(
            attempted=len(everything),
            failed=sum(1 for o in everything if o.problems),
            problems=sorted({p for o in everything for p in o.problems}),
            machine=machine_facts(),
            walls=[o.wall_s for o in outcomes],
        )
        if tracer is None:
            result["metrics"], result["extra"] = _end_to_end(
                outcomes, workload.quality_trials)
        else:
            ids = list(range(len(outcomes), len(outcomes) + len(traced)))
            untraced_p50 = statistics.median(o.wall_s for o in outcomes)
            traced_p50 = statistics.median(o.wall_s for o in traced)
            layers = per_layer_metrics(tracer, ids, traced_p50 / untraced_p50 - 1.0)
            result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            result["span_table"] = span_table(tracer, ids)
            result["traced_walls"] = [o.wall_s for o in traced]
            result["unattributed"] = [
                span_table(tracer, [i]).get("bench.trial", {}).get("self_s", math.nan)
                for i in ids]
            if args.spans:
                tracer.write_csv(args.spans)
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
