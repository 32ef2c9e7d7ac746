"""
The full evaluation protocol, end to end
========================================

Five stages over one run directory: draw a clustered scenario, synthesize
the response tensor, extract paths, associate them with the truth, and
consolidate a report plus plot-ready CSVs.  Each stage is also a CLI
subcommand (`mpcx scenario`, `mpcx synth`, ...); this script drives the
same entry points in-process at desk scale so it finishes in seconds.

Every artifact except timings.json is byte-deterministic for fixed seeds:
rerunning the pipeline reproduces the files exactly.
"""

import tempfile
from pathlib import Path

from mpcx import fileio
from mpcx.cli import main

SCENARIO = """\
n_clusters = 3
paths_per_cluster = 4
seed = 7
delay_center_min_s = 5e-09
delay_center_max_s = 2.5e-08
delay_spread_s = 2e-10
angle_spread = 0.01
dynamic_range_db = 60.0
"""

# the run directory and everything in it are removed when the block ends
with tempfile.TemporaryDirectory(prefix="mpcx_demo_") as tmp:
    run = Path(tmp) / "run"
    spec = Path(tmp) / "scenario.txt"
    spec.write_text(SCENARIO, encoding="utf-8")

    stages = [
        ["scenario", "--spec", str(spec)],
        ["synth", "--config", "desk", "--paths", str(run / "scenario.csv")],
        ["extract", "--config", "desk", "--tensor", str(run / "tensor.bin"),
         "--kdom", "24"],
        ["associate", "--config", "desk", "--truth", str(run / "truth_paths.csv"),
         "--estimates", str(run / "estimates.csv")],
        ["report"],
    ]
    for stage in stages:
        code = main(stage + ["--out-dir", str(run), "--quiet"])
        assert code == 0, f"stage {stage[0]} failed with exit code {code}"
        print(f"ran: mpcx {stage[0]}")

    print(f"\nartifacts in {run}:")
    for p in sorted(run.iterdir()):
        print(f"  {p.name:32s} {p.stat().st_size:8d} bytes")

    report = fileio.load_kv_report(run / "run_report.txt")

print("\nrun report:")
for key in ("n_phys", "n_estimates", "k_pa", "normalized_error",
            "pre_pa_cost", "post_pa_cost", "s_joint"):
    print(f"  {key} = {report[key]}")
