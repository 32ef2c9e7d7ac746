"""Fast self-test of the benchmark: every workload at tiny sizes, both modes.

    python3 perfbench/selftest.py

Runs run.py on each workload with ``--tiny``, untraced and traced, and
checks that the last output line is a correct result whose metric names
and units are exactly those BENCHMARK.json declares, and that the human-
readable lines name the metrics that only appear there.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS, layer_better  # noqa: E402

PRINTED_ONLY = ("trial_s_tail", "failed_frac")


def check_run(workload: str, trace: int, declared: dict) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} "
                      f"failed={result['failed']} attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(declared) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(declared))}")
    for name, entry in metrics.items():
        if name in declared and entry["unit"] != declared[name]:
            errors.append(f"{where}: {name} unit {entry['unit']} != {declared[name]}")
    text = "\n".join(lines[:-1])
    for name in (PRINTED_ONLY if not trace else ()) + tuple(metrics):
        if name not in text:
            errors.append(f"{where}: {name} not printed")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    if {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} != END_TO_END:
        errors.append("BENCHMARK.json end_to_end disagrees with run.END_TO_END")
    for m in spec["per_layer"]:
        if m["better"] != layer_better(m["name"]):
            errors.append(f"BENCHMARK.json: {m['name']} better={m['better']}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads disagree with run.WORKLOADS")
    for workload in WORKLOADS:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            found = check_run(workload, trace, declared)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}")
            errors += found
    for err in errors:
        print(err, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
