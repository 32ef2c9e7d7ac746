"""Command-line pipeline driver.

Five subcommands realize the full evaluation loop on a shared run directory:
``scenario`` draws clustered ground truth, ``synth`` renders it to a
frequency-response tensor (optional additive noise), ``extract`` runs the
greedy-LS estimator, ``associate`` scores estimates against truth, and
``report`` copies the stage reports' metrics into one run report and writes
plot-data CSVs.

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
import sys
import time
from pathlib import Path

import numpy as np

from . import fileio
from .assoc import ResolutionSpec, associate
from .beamspace import GridSpec, pdp_marginals
from .extract import ExtractionConfig, greedy_ls, reconstruction_error, sage_refine
from .scenario import generate_scenario
from .sounder import add_awgn, synthesize_response

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


@contextlib.contextmanager
def _run_lock(out_dir: Path):
    """One mutating command per run directory at a time.  The directory's
    timing sidecar is validated as soon as the lock is held, so a malformed
    one fails the stage before it writes anything."""
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
        fileio.load_timings(out_dir / TIMINGS_JSON)
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


def _require_finite_power(response, source) -> float:
    "The response's total power; ValueError naming ``source`` if it overflows."
    power = response.power
    if not math.isfinite(power):
        raise ValueError(f"{source}: total power {power!r} of the tensor is not "
                         "finite")
    return power


def _check_grid_memory(config, oversample: int) -> None:
    """ValueError naming ``--oversample`` if one beamspace grid at this
    oversampling (complex128 over n_rx*os x n_tx*os x n_freq*os points) needs
    more bytes than the machine's physical memory, where the platform
    reports that."""
    need = 16 * config.n_rx * config.n_tx * config.n_freq * oversample**3
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # not reported here
        return
    if 0 < have < need:
        raise ValueError(f"--oversample {oversample}: the beamspace grid needs "
                         f"{need} bytes, more than the {have} bytes of physical "
                         "memory")


def _record_timing(out_dir: Path, stage: str, seconds: float, **counts) -> None:
    fileio.save_timings(out_dir / TIMINGS_JSON, {stage: seconds} | counts)
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
    paths = fileio.load_paths_csv(args.paths, degrees=args.degrees, config=config)
    if args.noise_power > 0 and args.snr_db is not None:
        raise UsageError("--noise-power and --snr-db are mutually exclusive")
    t0 = time.perf_counter()
    with _run_lock(out_dir):
        response = synthesize_response(config, paths)
        power = _require_finite_power(response, args.paths)
        noise_power = args.noise_power
        if args.snr_db is not None:
            mean_power = power / response.values.size
            try:
                noise_power = mean_power / 10.0 ** (args.snr_db / 10.0)
            except OverflowError:  # 10^(snr/10) above the float range
                noise_power = 0.0
            except ZeroDivisionError:  # 10^(snr/10) below it
                noise_power = math.inf
            if not math.isfinite(noise_power) or (noise_power == 0 and mean_power > 0):
                raise UsageError(f"--snr-db {args.snr_db!r} gives noise power "
                                 f"{noise_power!r} for mean channel power "
                                 f"{mean_power!r}: not finite and positive")
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
    _check_grid_memory(config, args.oversample)
    response = fileio.load_response(args.tensor, config)
    _require_finite_power(response, args.tensor)
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
        error = reconstruction_error(synthesize_response(config, paths), response)
        fileio.save_paths_csv(out_dir / ESTIMATES_CSV, paths)
        fileio.save_trace_csv(out_dir / TRACE_CSV, trace)
        report = dataclasses.asdict(config) | {
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
            "stop_reason": trace.stop_reason,
            "normalized_error": error,
        }
        for i, e in enumerate(sweep_errors, start=1):
            report[f"sage_error_sweep_{i}"] = e
        fileio.save_kv_report(out_dir / EXTRACT_REPORT, report)
        _record_timing(out_dir, "extract", time.perf_counter() - t0,
                       extract_full_sweeps=trace.full_sweeps)
    logger.info("extract: committed %d paths in %d full grid sweeps, normalized "
                "error %.3e", len(paths), trace.full_sweeps, error)
    return EXIT_OK


def cmd_associate(args) -> int:
    out_dir = Path(args.out_dir)
    config = fileio.load_sounder_config(args.config)
    phys = fileio.load_paths_csv(args.truth, degrees=args.degrees)
    est = fileio.load_paths_csv(args.estimates, degrees=args.degrees)
    for path, paths in ((args.truth, phys), (args.estimates, est)):
        if not paths:
            raise ValueError(f"{path}: holds no paths")
    total = sum(p.power for p in phys)
    if not 0 < total < math.inf:
        raise ValueError(f"{args.truth}: total power {total!r} must be finite and > 0")
    res = ResolutionSpec.from_config(config)
    t0 = time.perf_counter()
    with _run_lock(out_dir):
        result = associate(phys, est, res, args.unmatched_cost)
        fileio.save_pairs_csv(out_dir / PAIRS_CSV, result)
        fileio.save_association_report(out_dir / ASSOC_REPORT, result,
                                       len(phys), len(est), args.unmatched_cost)
        _record_timing(out_dir, "associate", time.perf_counter() - t0)
    logger.info("associate: %d pairs (of %d truth, %d estimates), "
                "post-association cost %.3e", result.k_pa, len(phys), len(est),
                result.post_pa_cost)
    return EXIT_OK


# keys of run_report.txt after the config block, in order, each copied from
# extract_report.txt if it is one of _EXTRACT_KEYS, else association_report.txt
_RUN_REPORT_KEYS = ("n_phys", "k_dom", "n_estimates", "k_pa", "normalized_error",
                    "pre_pa_cost", "post_pa_cost", "s_tau", "s_aoa", "s_aod",
                    "s_joint", "unmatched_phys", "unmatched_est")
_EXTRACT_KEYS = ("k_dom", "n_estimates", "normalized_error")


def cmd_report(args) -> int:
    out_dir = Path(args.out_dir)
    t0 = time.perf_counter()
    with _run_lock(out_dir):
        config = fileio.load_sounder_config(_require(out_dir, CONFIG_TXT, "synth"))
        truth = fileio.load_paths_csv(_require(out_dir, TRUTH_CSV, "synth"))
        response = fileio.load_response(_require(out_dir, TENSOR_BIN, "synth"),
                                        config)
        estimates = fileio.load_paths_csv(_require(out_dir, ESTIMATES_CSV, "extract"))
        trace_path = _require(out_dir, TRACE_CSV, "extract")
        stage_reports = {name: fileio.load_kv_report(_require(out_dir, name, stage))
                         for name, stage in ((EXTRACT_REPORT, "extract"),
                                             (ASSOC_REPORT, "associate"))}

        def copied(name: str, key: str) -> str:
            if key not in stage_reports[name]:
                raise ValueError(f"{out_dir / name}: missing key '{key}'")
            return stage_reports[name][key]

        # refuse a directory whose stages ran on different inputs
        for name, key, rows_name, rows in (
                (ASSOC_REPORT, "n_phys", TRUTH_CSV, truth),
                (ASSOC_REPORT, "n_est", ESTIMATES_CSV, estimates),
                (EXTRACT_REPORT, "n_estimates", ESTIMATES_CSV, estimates)):
            if copied(name, key) != str(len(rows)):
                raise ValueError(f"{out_dir / name}: '{key}' = {copied(name, key)}, "
                                 f"but {rows_name} has {len(rows)} rows: the run "
                                 f"directory mixes artifacts of different runs")
        text = copied(EXTRACT_REPORT, "oversample")
        if not (text.isdecimal() and int(text) >= 1):
            raise ValueError(f"{out_dir / EXTRACT_REPORT}: field 'oversample': "
                             f"expected an integer >= 1, got '{text}'")
        oversample = int(text)
        run_report = dataclasses.asdict(config)
        run_report.update(
            (key, copied(EXTRACT_REPORT if key in _EXTRACT_KEYS else ASSOC_REPORT, key))
            for key in _RUN_REPORT_KEYS)
        pair_rows = fileio.load_pairs_csv(
            _require(out_dir, PAIRS_CSV, "associate"), len(truth), len(estimates))

        # plot data: scatters, power maps, residual trace, per-axis errors
        fileio.save_scatter_csv(out_dir / "plot_truth_scatter.csv", truth)
        fileio.save_scatter_csv(out_dir / "plot_estimate_scatter.csv", estimates)
        fileio.save_associated_scatter_csv(
            out_dir / "plot_associated_scatter.csv",
            [(int(i), int(j), float(cost)) for i, j, cost, *_ in pair_rows],
            truth, estimates)
        spec = GridSpec(os_aoa=oversample, os_aod=oversample, os_delay=oversample)
        map_angles, map_delay = pdp_marginals(response, spec)
        fileio.save_matrix_csv(out_dir / "plot_pdp_aoa_aod.csv", "aoa_cycles",
                               spec.aoa_axis(config), spec.aod_axis(config),
                               map_angles)
        fileio.save_matrix_csv(out_dir / "plot_pdp_aoa_delay.csv", "aoa_cycles",
                               spec.aoa_axis(config), spec.delay_axis(config),
                               map_delay)
        fileio.copy_artifact(trace_path, out_dir / "plot_residual_trace.csv")
        fileio.save_axis_errors_csv(out_dir / "plot_axis_errors.csv", pair_rows)
        fileio.save_kv_report(out_dir / RUN_REPORT, run_report)
        _record_timing(out_dir, "report", time.perf_counter() - t0)
    logger.info("report: k_pa=%s, normalized error %s, joint bin count %s",
                run_report["k_pa"], run_report["normalized_error"],
                run_report["s_joint"])
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
