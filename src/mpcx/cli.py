"""Command-line pipeline driver.

Five subcommands realize the full evaluation loop on a shared run directory:
``scenario`` draws clustered ground truth, ``synth`` renders it to a
frequency-response tensor (optional additive noise), ``extract`` runs the
greedy-LS estimator, ``associate`` scores estimates against truth, and
``report`` consolidates everything into a run report plus plot-data CSVs.

Exit codes: 0 success, 1 usage error, 2 data error.  All artifacts except
``timings.json`` (wall-clock sidecar) are byte-deterministic for fixed
inputs and seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import math
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import fileio
from .assoc import ResolutionSpec, associate
from .beamspace import GridSpec, beamspace_transform, pdp_marginals
from .extract import ExtractionConfig, greedy_ls, reconstruction_error, sage_refine
from .scenario import generate_scenario
from .sounder import SounderConfig, add_awgn, synthesize_response

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# run-directory artifact names
SCENARIO_CSV = "scenario.csv"
SCENARIO_SIDECAR = "scenario_spec.txt"
TRUTH_CSV = "truth_paths.csv"
CONFIG_TXT = "config.txt"
TENSOR_BIN = "tensor.bin"
ESTIMATES_CSV = "estimates.csv"
TRACE_CSV = "trace.csv"
EXTRACT_REPORT = "extract_report.txt"
PAIRS_CSV = "pairs.csv"
ASSOC_REPORT = "association_report.txt"
RUN_REPORT = "run_report.txt"
TIMINGS_JSON = "timings.json"


class UsageError(Exception):
    "Bad flags or flag combinations; maps to exit code 1."


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _float_flag(minimum: float = -math.inf, strict: bool = False):
    """argparse ``type`` for a float flag: finite and at least ``minimum``
    (above it if ``strict``).  A rejected value becomes a usage error that
    names the flag."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if value < minimum or (strict and value == minimum):
            bound = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"must be {bound} {minimum:g}, "
                                             f"got {text!r}")
        return value
    return parse


@dataclasses.dataclass(frozen=True)
class RunReport:
    "Consolidated numbers of one pipeline run, all recomputable from artifacts."

    config: SounderConfig
    n_phys: int
    k_dom: int
    n_estimates: int
    k_pa: int
    normalized_error: float
    pre_pa_cost: float
    post_pa_cost: float
    s_tau: int
    s_aoa: int
    s_aod: int
    s_joint: int
    unmatched_phys: int
    unmatched_est: int


@contextlib.contextmanager
def _run_lock(out_dir: Path):
    "One mutating command per run directory at a time."
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ValueError(
            f"{out_dir}: run directory is locked by another command "
            f"(remove stale {lock} if no other command is running)"
        ) from None
    try:
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            lock.unlink()


def _require(out_dir: Path, name: str, stage: str) -> Path:
    path = out_dir / name
    if not path.exists():
        raise ValueError(f"{out_dir}: missing artifact '{name}' "
                         f"(produced by the {stage} stage)")
    return path


def _record_timing(out_dir: Path, stage: str, seconds: float) -> None:
    fileio.save_timings(out_dir / TIMINGS_JSON, {stage: seconds})
    logger.info("%s stage finished in %.2f s", stage, seconds)


def cmd_scenario(args) -> int:
    out_dir = Path(args.out_dir)
    spec = fileio.load_scenario_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    t0 = time.perf_counter()
    with _run_lock(out_dir):
        scn = generate_scenario(spec)
        fileio.save_paths_csv(out_dir / SCENARIO_CSV, scn.retained)
        fileio.save_scenario_sidecar(out_dir / SCENARIO_SIDECAR, spec,
                                     len(scn.generated), len(scn.retained))
        _record_timing(out_dir, "scenario", time.perf_counter() - t0)
    logger.info("scenario: generated %d paths, retained %d within %s dB",
                len(scn.generated), len(scn.retained), spec.dynamic_range_db)
    return EXIT_OK


def cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    config = fileio.load_sounder_config(args.config)
    paths = fileio.load_paths_csv(args.paths, degrees=args.degrees)
    for rownum, p in enumerate(paths, start=2):
        if p.delay >= config.duration:
            raise ValueError(
                f"{args.paths}: row {rownum}: delay {p.delay!r} s is outside "
                f"the unambiguous span {config.duration!r} s"
            )
    if args.noise_power > 0 and args.snr_db is not None:
        raise UsageError("--noise-power and --snr-db are mutually exclusive")
    t0 = time.perf_counter()
    with _run_lock(out_dir):
        response = synthesize_response(config, paths)
        noise_power = args.noise_power
        if args.snr_db is not None:
            mean_power = float(np.mean(np.abs(response.values) ** 2))
            noise_power = mean_power / 10.0 ** (args.snr_db / 10.0)
        if noise_power > 0:
            response = add_awgn(response, noise_power,
                                0 if args.seed is None else args.seed)
        fileio.save_tensor(out_dir / TENSOR_BIN, response)
        fileio.save_sounder_config(out_dir / CONFIG_TXT, config)
        fileio.save_paths_csv(out_dir / TRUTH_CSV, paths)
        _record_timing(out_dir, "synth", time.perf_counter() - t0)
    logger.info("synth: wrote %s tensor from %d paths", response.values.shape,
                len(paths))
    return EXIT_OK


def cmd_extract(args) -> int:
    out_dir = Path(args.out_dir)
    if not 1 <= args.kup <= args.kg <= args.kdom:
        raise UsageError(f"require 1 <= kup <= kg <= kdom, got kup={args.kup} "
                         f"kg={args.kg} kdom={args.kdom}")
    if args.oversample < 1:
        raise UsageError("oversample must be >= 1")
    if args.sage_sweeps < 0:
        raise UsageError("sage-sweeps must be >= 0")
    config = fileio.load_sounder_config(args.config)
    response = fileio.load_response(args.tensor, config)
    spec = GridSpec(os_aoa=args.oversample, os_aod=args.oversample,
                    os_delay=args.oversample)
    xcfg = ExtractionConfig(k_dom=args.kdom, k_g=args.kg, k_up=args.kup,
                            grid=spec, residual_stop=args.residual_stop,
                            final_global_ls=args.final_ls,
                            refine_peaks=args.refine_peaks)
    t0 = time.perf_counter()
    with _run_lock(out_dir):
        paths, trace = greedy_ls(response, config, xcfg)
        if args.sage_sweeps > 0 and paths:
            paths, sweep_errors = sage_refine(response, paths, config, spec,
                                              args.sage_sweeps)
        else:
            sweep_errors = []
        estimate = synthesize_response(config, paths)
        error = reconstruction_error(estimate, response)
        fileio.save_paths_csv(out_dir / ESTIMATES_CSV, paths)
        fileio.save_trace_csv(out_dir / TRACE_CSV, trace)
        report = {
            "n_tx": config.n_tx,
            "n_rx": config.n_rx,
            "bandwidth_hz": config.bandwidth_hz,
            "n_freq": config.n_freq,
            "carrier_hz": config.carrier_hz,
            "k_dom": args.kdom,
            "k_g": args.kg,
            "k_up": args.kup,
            "oversample": args.oversample,
            "final_global_ls": args.final_ls,
            "refine_peaks": args.refine_peaks,
            "sage_sweeps": args.sage_sweeps,
            "residual_stop": args.residual_stop,
            "n_estimates": len(paths),
            "initial_power": trace.initial_power,
            "final_residual_power": error * trace.initial_power,
            "dropped_duplicates": trace.dropped_duplicates,
            "normalized_error": error,
        }
        for i, e in enumerate(sweep_errors, start=1):
            report[f"sage_error_sweep_{i}"] = e
        fileio.save_kv_report(out_dir / EXTRACT_REPORT, report)
        _record_timing(out_dir, "extract", time.perf_counter() - t0)
    logger.info("extract: committed %d paths, normalized error %.3e",
                len(paths), error)
    return EXIT_OK


def cmd_associate(args) -> int:
    out_dir = Path(args.out_dir)
    config = fileio.load_sounder_config(args.config)
    phys = fileio.load_paths_csv(args.truth, degrees=args.degrees)
    est = fileio.load_paths_csv(args.estimates, degrees=args.degrees)
    res = ResolutionSpec.from_config(config)
    t0 = time.perf_counter()
    with _run_lock(out_dir):
        result = associate(phys, est, res, args.unmatched_cost)
        fileio.save_pairs_csv(out_dir / PAIRS_CSV, result, phys, est, res)
        fileio.save_association_report(out_dir / ASSOC_REPORT, result,
                                       len(phys), len(est), args.unmatched_cost)
        _record_timing(out_dir, "associate", time.perf_counter() - t0)
    logger.info("associate: %d pairs (of %d truth, %d estimates), "
                "post-association cost %.3e", result.k_pa, len(phys), len(est),
                result.post_pa_cost)
    return EXIT_OK


def _build_run_report(out_dir: Path, oversample: int) -> RunReport:
    config = fileio.load_sounder_config(_require(out_dir, CONFIG_TXT, "synth"))
    truth = fileio.load_paths_csv(_require(out_dir, TRUTH_CSV, "synth"))
    response = fileio.load_response(_require(out_dir, TENSOR_BIN, "synth"), config)
    estimates = fileio.load_paths_csv(_require(out_dir, ESTIMATES_CSV, "extract"))
    extract_info = fileio.load_kv_report(_require(out_dir, EXTRACT_REPORT, "extract"))
    assoc_info = fileio.load_kv_report(_require(out_dir, ASSOC_REPORT, "associate"))
    _require(out_dir, TRACE_CSV, "extract")
    _require(out_dir, PAIRS_CSV, "associate")

    error = reconstruction_error(synthesize_response(config, estimates), response)

    # plot data: scatters, power maps, residual trace, per-axis errors
    fileio.save_scatter_csv(out_dir / "plot_truth_scatter.csv", truth)
    fileio.save_scatter_csv(out_dir / "plot_estimate_scatter.csv", estimates)
    res = ResolutionSpec.from_config(config)
    result = associate(truth, estimates, res,
                       float(assoc_info["unmatched_cost"]))
    fileio.save_associated_scatter_csv(out_dir / "plot_associated_scatter.csv",
                                       result, truth, estimates)
    spec = GridSpec(os_aoa=oversample, os_aod=oversample, os_delay=oversample)
    grid = beamspace_transform(response, spec)
    map_angles, map_delay = pdp_marginals(grid)
    fileio.save_matrix_csv(out_dir / "plot_pdp_aoa_aod.csv", "aoa_cycles",
                           grid.aoa_axis, grid.aod_axis, map_angles)
    fileio.save_matrix_csv(out_dir / "plot_pdp_aoa_delay.csv", "aoa_cycles",
                           grid.aoa_axis, grid.delay_axis, map_delay)
    shutil.copyfile(out_dir / TRACE_CSV, out_dir / "plot_residual_trace.csv")
    _copy_axis_errors(out_dir / PAIRS_CSV, out_dir / "plot_axis_errors.csv")

    return RunReport(
        config=config,
        n_phys=len(truth),
        k_dom=int(extract_info["k_dom"]),
        n_estimates=len(estimates),
        k_pa=result.k_pa,
        normalized_error=error,
        pre_pa_cost=result.pre_pa_cost,
        post_pa_cost=result.post_pa_cost,
        s_tau=len(result.bin_sets.delay),
        s_aoa=len(result.bin_sets.aoa),
        s_aod=len(result.bin_sets.aod),
        s_joint=len(result.bin_sets.joint),
        unmatched_phys=len(result.unmatched_phys),
        unmatched_est=len(result.unmatched_est),
    )


def _copy_axis_errors(pairs_path: Path, out_path: Path) -> None:
    "Re-emit the per-axis error columns of the pairs CSV verbatim."
    import csv as _csv

    with open(pairs_path, encoding="utf-8", newline="") as fh:
        rows = list(_csv.reader(fh))
    keep = ["phys_idx", "delay_err_bins", "aoa_err_bins", "aod_err_bins"]
    idx = [rows[0].index(k) for k in keep]
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow([row[i] for i in idx])


def cmd_report(args) -> int:
    out_dir = Path(args.out_dir)
    if args.oversample < 1:
        raise UsageError("oversample must be >= 1")
    t0 = time.perf_counter()
    with _run_lock(out_dir):
        report = _build_run_report(out_dir, args.oversample)
        cfg = report.config
        fileio.save_kv_report(out_dir / RUN_REPORT, {
            "n_tx": cfg.n_tx,
            "n_rx": cfg.n_rx,
            "bandwidth_hz": cfg.bandwidth_hz,
            "n_freq": cfg.n_freq,
            "carrier_hz": cfg.carrier_hz,
            "n_phys": report.n_phys,
            "k_dom": report.k_dom,
            "n_estimates": report.n_estimates,
            "k_pa": report.k_pa,
            "normalized_error": report.normalized_error,
            "pre_pa_cost": report.pre_pa_cost,
            "post_pa_cost": report.post_pa_cost,
            "s_tau": report.s_tau,
            "s_aoa": report.s_aoa,
            "s_aod": report.s_aod,
            "s_joint": report.s_joint,
            "unmatched_phys": report.unmatched_phys,
            "unmatched_est": report.unmatched_est,
        })
        _record_timing(out_dir, "report", time.perf_counter() - t0)
    logger.info("report: k_pa=%d, normalized error %.3e, joint bin count %d",
                report.k_pa, report.normalized_error, report.s_joint)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="seed for stages that draw randomness")
    common.add_argument("--out-dir", default=".",
                        help="run directory for artifacts (default: .)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress messages")

    parser = _Parser(prog="mpcx",
                     description="Synthetic sounder responses, greedy-LS "
                                 "multipath extraction, and scoring.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", parents=[common],
                       help="generate clustered ground-truth paths")
    p.add_argument("--spec", required=True, help="scenario spec file")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("synth", parents=[common],
                       help="synthesize a frequency-response tensor")
    p.add_argument("--config", required=True,
                   help="sounder config file or preset name (paper, desk)")
    p.add_argument("--paths", required=True, help="ground-truth path CSV")
    p.add_argument("--noise-power", type=_float_flag(0.0), default=0.0,
                   help="complex noise variance per tensor entry (default 0)")
    p.add_argument("--snr-db", type=_float_flag(), default=None,
                   help="set noise power from the mean per-entry channel power")
    p.add_argument("--degrees", action="store_true",
                   help="angle columns are physical degrees; convert on load")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", parents=[common],
                       help="run greedy-LS multipath extraction")
    p.add_argument("--config", required=True)
    p.add_argument("--tensor", required=True, help="response tensor file")
    p.add_argument("--kdom", type=int, required=True,
                   help="total committed-path budget")
    p.add_argument("--kg", type=int, default=4,
                   help="greedy candidates per iteration (default 4)")
    p.add_argument("--kup", type=int, default=2,
                   help="paths committed per iteration (default 2)")
    p.add_argument("--oversample", type=int, default=4,
                   help="beamspace oversampling per axis (default 4)")
    p.add_argument("--final-ls", action=argparse.BooleanOptionalAction,
                   default=True, help="joint LS refit of all amplitudes at the end")
    p.add_argument("--sage-sweeps", type=int, default=0,
                   help="refinement sweeps after extraction (default 0)")
    p.add_argument("--residual-stop", type=_float_flag(0.0), default=1e-6,
                   help="stop when residual/initial power falls below this")
    p.add_argument("--refine-peaks", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="sub-grid quadratic peak interpolation (default off)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("associate", parents=[common],
                       help="score estimates against ground truth")
    p.add_argument("--config", required=True)
    p.add_argument("--truth", required=True, help="ground-truth path CSV")
    p.add_argument("--estimates", required=True, help="estimated path CSV")
    p.add_argument("--unmatched-cost", type=_float_flag(0.0, strict=True),
                   default=3.0,
                   help="cost of leaving a path unmatched (default 3.0)")
    p.add_argument("--degrees", action="store_true",
                   help="angle columns are physical degrees; convert on load")
    p.set_defaults(func=cmd_associate)

    p = sub.add_parser("report", parents=[common],
                       help="consolidate a run directory into report + plot data")
    p.add_argument("--oversample", type=int, default=4,
                   help="oversampling for the power-map plots (default 4)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"mpcx: {err}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(message)s")
    try:
        return args.func(args)
    except UsageError as err:
        print(f"mpcx: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, np.linalg.LinAlgError) as err:
        print(f"mpcx: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
