"""The benchmark's three closed-loop workloads.

A workload sets up its inputs once from the run seed, then runs trials one
after another (one client, closed loop).  ``run`` is the timed part of a
trial and the only part the tracer records; ``check`` scores and verifies
its outputs afterwards.  Every call into mpcx goes through a module
attribute (``extract.greedy_ls``), so the tracer's wrappers are seen.

Why these three, and what each should and should not move, is written down
in README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import time
from pathlib import Path

import numpy as np

from mpcx import assoc, cli, extract, fileio, scenario, sounder
from mpcx.assoc import ResolutionSpec
from mpcx.beamspace import GridSpec
from mpcx.extract import ExtractionConfig
from mpcx.scenario import ScenarioSpec

UNMATCHED_COST = 3.0  # the CLI's default opt-out price

# the paper protocol scenario, as run by acceptance criteria 11/12
PAPER_SCENARIO = dict(n_clusters=8, paths_per_cluster=28, seed=1,
                      cluster_decay_db=1.5, path_spread_db=4.0,
                      angle_spread=0.02, dynamic_range_db=60.0)

# desk-scale clusters whose delays fit the desk preset's 32 ns span
DESK_SCENARIO = dict(n_clusters=4, paths_per_cluster=4, seed=0,
                     delay_center_min_s=5e-9, delay_center_max_s=2.5e-8,
                     delay_spread_s=2e-10, angle_spread=0.01,
                     dynamic_range_db=60.0)
TINY_SCENARIO = dict(DESK_SCENARIO, n_clusters=2)


@dataclasses.dataclass
class Outcome:
    "Timing, quality and check results of one trial."

    wall_s: float
    extract_s: float
    committed: int
    normalized_error: float = math.nan
    post_pa_cost: float = math.nan
    s_joint_frac: float = math.nan
    problems: list[str] = dataclasses.field(default_factory=list)


def _finite_paths(paths) -> bool:
    return all(math.isfinite(v) for p in paths
               for v in (p.gain.real, p.gain.imag, p.delay, p.aod, p.aoa))


def _monotone(powers, initial: float) -> bool:
    "Residual power never increases (criterion 5's rounding allowance)."
    return bool(np.all(np.diff(np.asarray(powers)) <= 1e-9 * initial))


class PaperWorkload:
    """Extraction, association and scoring of one noiseless paper scenario.

    Each trial lists the truth paths in its own order, drawn from the run
    seed and the trial index, and synthesizes its tensor from that list
    before the clock starts.  The scenario is the same in every trial (see
    README.md), but no two trials get bit-identical inputs, so a cache of
    results cannot stand in for the work.  Quality is the first trial's.
    """

    quality_trials = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool,
                 oversample: int, k_dom: int, tiny_k_dom: int):
        self.seed = seed
        if tiny:
            self.config = fileio.load_sounder_config("desk")
            self.spec = ScenarioSpec(**TINY_SCENARIO)
            k_dom = tiny_k_dom
        else:
            self.config = fileio.load_sounder_config("paper")
            self.spec = ScenarioSpec(**PAPER_SCENARIO)
        self.xcfg = ExtractionConfig(
            k_dom=k_dom, k_g=4, k_up=2,
            grid=GridSpec(os_aoa=oversample, os_aod=oversample,
                          os_delay=oversample))
        self.res = ResolutionSpec.from_config(self.config)

    def setup(self) -> None:
        self.scenario = scenario.generate_scenario(self.spec).retained
        self.prepare(-1)

    def prepare(self, index: int) -> None:
        "Untimed: this trial's listing order of the truth and its tensor."
        rng = np.random.default_rng([self.seed, index + 1])
        self.truth = [self.scenario[i] for i in rng.permutation(len(self.scenario))]
        self.response = sounder.synthesize_response(self.config, self.truth)

    def run(self, index: int):
        t0 = time.perf_counter()
        paths, trace = extract.greedy_ls(self.response, self.config, self.xcfg)
        extract_s = time.perf_counter() - t0
        result = assoc.associate(self.truth, paths, self.res, UNMATCHED_COST)
        error = extract.reconstruction_error(
            sounder.synthesize_response(self.config, paths), self.response)
        return paths, trace, result, error, extract_s

    def check(self, index: int, raw, wall_s: float) -> Outcome:
        paths, trace, result, error, extract_s = raw
        out = Outcome(wall_s=wall_s, extract_s=extract_s, committed=len(paths),
                      normalized_error=error, post_pa_cost=result.post_pa_cost,
                      s_joint_frac=len(result.bin_sets.joint) / len(self.truth))
        if not _finite_paths(paths):
            out.problems.append("non-finite estimate")
        if not _monotone(trace.residual_power, trace.initial_power):
            out.problems.append("residual power increased")
        if result.k_pa > min(len(self.truth), len(paths)):
            out.problems.append(f"k_pa {result.k_pa} exceeds min(truth, estimates)")
        return out

    def finish(self, outcomes: list[Outcome]) -> None:
        pass


class DeskTrials:
    """Five CLI stages in-process per trial, each trial with its own seed.

    Stages exchange artifacts through a run directory, as a user's run
    would.  Quality is the mean over the first ``quality_trials`` trials, so
    it does not depend on how many trials fit in the run.
    """

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.kdom = 8 if tiny else 32
        self.quality_trials = 2 if tiny else 48
        self.spec_path = workdir / "desk_scenario.txt"

    def setup(self) -> None:
        spec = ScenarioSpec(**DESK_SCENARIO)
        lines = [f"{f.name} = {getattr(spec, f.name)!r}"
                 for f in dataclasses.fields(spec)]
        self.spec_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def prepare(self, index: int) -> None:
        pass  # every stage of a desk trial is part of the trial

    def _trial_seed(self, index: int) -> int:
        return self.seed * 1000 + (index if index >= 0 else 999)

    def _run_dir(self, index: int) -> Path:
        return self.workdir / (f"trial{index}" if index >= 0 else "warmup")

    def _stages(self, out: Path, seed: int) -> list[list[str]]:
        common = ["--out-dir", str(out), "--quiet"]
        return [
            ["scenario", "--spec", str(self.spec_path), "--seed", str(seed)] + common,
            ["synth", "--config", "desk", "--paths", str(out / cli.SCENARIO_CSV),
             "--snr-db", "20", "--seed", str(seed)] + common,
            ["extract", "--config", "desk", "--tensor", str(out / cli.TENSOR_BIN),
             "--kdom", str(self.kdom), "--sage-sweeps", "2"] + common,
            ["associate", "--config", "desk",
             "--truth", str(out / cli.TRUTH_CSV),
             "--estimates", str(out / cli.ESTIMATES_CSV)] + common,
            ["report"] + common,
        ]

    def _run_into(self, out: Path, seed: int):
        codes = []
        extract_s = 0.0
        for argv in self._stages(out, seed):
            t0 = time.perf_counter()
            codes.append(cli.main(argv))
            if argv[0] == "extract":
                extract_s = time.perf_counter() - t0
        return codes, extract_s

    def run(self, index: int):
        return self._run_into(self._run_dir(index), self._trial_seed(index))

    def check(self, index: int, raw, wall_s: float) -> Outcome:
        codes, extract_s = raw
        out_dir = self._run_dir(index)
        out = Outcome(wall_s=wall_s, extract_s=extract_s, committed=0)
        if any(codes):
            out.problems.append(f"stage exit codes {codes}")
            return out
        estimates = fileio.load_paths_csv(out_dir / cli.ESTIMATES_CSV)
        report = fileio.load_kv_report(out_dir / cli.RUN_REPORT)
        extract_info = fileio.load_kv_report(out_dir / cli.EXTRACT_REPORT)
        db = [v for _, v in fileio.load_trace_csv(out_dir / cli.TRACE_CSV)]
        out.committed = len(estimates)
        out.normalized_error = float(report["normalized_error"])
        out.post_pa_cost = float(report["post_pa_cost"])
        n_phys = int(report["n_phys"])
        out.s_joint_frac = int(report["s_joint"]) / n_phys
        if not _finite_paths(estimates):
            out.problems.append("non-finite estimate")
        if not _monotone(10.0 ** (np.asarray(db) / 10.0), 1.0):
            out.problems.append("residual power increased")
        if int(report["k_pa"]) > min(n_phys, len(estimates)):
            out.problems.append(f"k_pa {report['k_pa']} exceeds min(truth, estimates)")
        sweep1 = float(extract_info["sage_error_sweep_1"])
        sweep2 = float(extract_info["sage_error_sweep_2"])
        if not sweep2 <= sweep1 * (1 + 1e-12) + 1e-15:  # criterion 10's allowance
            out.problems.append(f"SAGE sweep 2 error {sweep2!r} above sweep 1 {sweep1!r}")
        if not all(math.isfinite(v) for v in (out.normalized_error, out.post_pa_cost)):
            out.problems.append("non-finite quality figure")
        if index != 0:  # trial 0 is kept for the rerun comparison
            shutil.rmtree(out_dir)
        return out

    def finish(self, outcomes: list[Outcome]) -> None:
        "Rerun trial 0 from scratch; every artifact but timings must match."
        first = self._run_dir(0)
        if not first.is_dir():
            outcomes[0].problems.append("trial 0 left no run directory to rerun")
            return
        again = self.workdir / "rerun0"
        codes, _ = self._run_into(again, self._trial_seed(0))
        names = sorted(p.name for p in first.iterdir() if p.name != cli.TIMINGS_JSON)
        again_names = sorted(p.name for p in again.iterdir() if p.name != cli.TIMINGS_JSON)
        if any(codes) or names != again_names:
            outcomes[0].problems.append("rerun of trial 0 produced other artifacts")
            return
        for name in names:
            if (first / name).read_bytes() != (again / name).read_bytes():
                outcomes[0].problems.append(f"rerun of trial 0 changed {name}")


def make_workload(name: str, seed: int, workdir: Path, tiny: bool):
    if name == "paper-grid":
        # k_dom cut to 4 commits (two outer iterations) so several trials fit a run
        return PaperWorkload(seed, workdir, tiny, oversample=4, k_dom=4, tiny_k_dom=4)
    if name == "paper-coarse":
        return PaperWorkload(seed, workdir, tiny, oversample=1, k_dom=448, tiny_k_dom=16)
    if name == "desk-trials":
        return DeskTrials(seed, workdir, tiny)
    raise ValueError(f"unknown workload {name!r}")
