"""Command-line pipeline driver.

Five subcommands realize the full evaluation loop on a shared run directory:
``scenario`` draws clustered ground truth, ``synth`` renders it to a
frequency-response tensor (optional additive noise), ``extract`` runs the
greedy-LS estimator, ``associate`` scores estimates against truth, and
``report`` copies the stage reports' metrics into one run report and writes
plot-data CSVs.

Each flag is checked where it is parsed; a ``cmd_*`` function checks only
what relates flags to one another, loads its inputs and returns the stage's
work.  One runner in ``main`` runs that work for every stage: under the run
directory's lock, with the BLAS held at one thread (the span threads of
``pool.run_blocks`` own the cores, and no artifact then depends on the BLAS
thread count), timed, with its counts and the BLAS facts merged into
``timings.json``.

Exit codes: 0 success, 1 usage error, 2 data error.  All artifacts except
``timings.json`` (wall-clock sidecar) are byte-deterministic for fixed
inputs and seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import logging
import math
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import fileio
from .assoc import ResolutionSpec, associate
from .beamspace import GridSpec, _picker_bytes, pdp_marginals
from .extract import ExtractionConfig, _sage_refine, greedy_ls, reconstruction_error
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


def _number_flag(kind=float, minimum=-math.inf, strict=False, below=math.inf):
    """argparse ``type`` for a numeric flag: a finite ``kind`` (float or int)
    at least ``minimum`` (above it if ``strict``) and below ``below``.  A
    rejected value becomes a usage error that names the flag."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} {text!r}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if value < minimum or (strict and value == minimum):
            bound = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"must be {bound} {minimum:g}, "
                                             f"got {text!r}")
        if value >= below:
            raise argparse.ArgumentTypeError(f"must be < {below:g}, got {text!r}")
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


def _check_grid_memory(config, spec: GridSpec, k_g: int) -> None:
    """ValueError naming ``--oversample`` (which sets every factor of
    ``spec``) if the beamspace grid and its picker (``beamspace.
    _picker_bytes`` with k_g columns for the candidates), what extract
    allocates, need more bytes than the machine's physical memory, where
    the platform reports that.  Greedy-LS keeps nothing else whose size
    grows with k_dom but the commits themselves and the global refit's
    k_dom x k_dom Gram."""
    need = _picker_bytes(config, spec, k_g)
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # not reported here
        return
    if 0 < have < need:
        raise ValueError(f"--oversample {spec.os_delay}: the beamspace grid and its picker "
                         f"need {need} bytes, more than the {have} bytes of physical memory")


def _peak_rss_mb() -> float | None:
    """Peak resident set size of this process in MB (10^6 bytes), from
    ``ru_maxrss``; None where the ``resource`` module is missing."""
    try:
        import resource
    except ImportError:  # not on this platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts bytes on macOS and KiB elsewhere
    return peak / 1e6 if sys.platform == "darwin" else peak * 1024 / 1e6


# environment variables that set the BLAS thread count a process starts with
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# thread-count getters and setters of the OpenBLAS builds that numpy ships or
# links, and of MKL's single dynamic library
_BLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("MKL_Get_Max_Threads", "MKL_Set_Num_Threads"))
# their ctypes prototypes: a getter returns one C int, a setter takes one
_BLAS_GET = ctypes.CFUNCTYPE(ctypes.c_int)
_BLAS_SET = ctypes.CFUNCTYPE(None, ctypes.c_int)


@functools.cache
def _blas_library() -> tuple:
    """The thread-count getter and setter of the BLAS library loaded into
    this process, an OpenBLAS or MKL's ``mkl_rt``: the first pair of
    ``_BLAS_THREAD_CALLS`` that it exports both of; (None, None) where no
    loaded library exports a pair or the process's mappings cannot be read.
    Looked up once per process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if re.search(r"(openblas|mkl_rt)[^/]*\.so", line)})
    except OSError:  # no /proc on this platform
        return None, None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_CALLS:
            if hasattr(handle, get_name) and hasattr(handle, set_name):
                return _BLAS_GET((get_name, handle)), _BLAS_SET((set_name, handle))
    return None, None


def _blas_threads() -> int | None:
    """The thread count that the loaded BLAS library reports now; None where
    ``_blas_library`` finds none.  perfbench/machine.py reads the count the
    same way."""
    getter, _ = _blas_library()
    return None if getter is None else int(getter())


@contextlib.contextmanager
def _one_blas_thread():
    """Hold the loaded BLAS at one thread and restore its count on exit;
    yields whether it is held (False where ``_blas_library`` finds no
    getter and setter, and the BLAS keeps its own count)."""
    before, setter = _blas_threads(), _blas_library()[1]
    if setter is not None:
        setter(1)
    try:
        yield setter is not None
    finally:
        if setter is not None:
            setter(before)


def _blas_facts(held: bool) -> dict[str, str | int | bool | None]:
    """The BLAS library numpy was built with, the thread count in effect
    now, whether the stage runner holds it at one thread, the CPU count and
    the BLAS thread variables (None when unset): what explains a byte
    difference between the deterministic artifacts of two runs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # an older numpy takes no mode, or lists no BLAS
        blas = {}
    return ({"blas_name": blas.get("name"), "blas_version": blas.get("version"),
             "blas_threads": _blas_threads(), "blas_threads_held": held,
             "cpu_count": os.cpu_count()}
            | {var: os.environ.get(var) for var in _BLAS_THREAD_VARS})


def cmd_scenario(args):
    spec = fileio.load_scenario_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)

    def work(out_dir: Path):
        scn = generate_scenario(spec)
        fileio.save_paths_csv(out_dir / SCENARIO_CSV, scn.retained)
        fileio.save_scenario_sidecar(out_dir / SCENARIO_SIDECAR, spec,
                                     len(scn.generated), len(scn.retained))
        return (f"scenario: generated {len(scn.generated)} paths, retained "
                f"{len(scn.retained)} within {spec.dynamic_range_db} dB"), {}
    return work


def cmd_synth(args):
    if args.noise_power > 0 and args.snr_db is not None:
        raise UsageError("--noise-power and --snr-db are mutually exclusive")
    config = fileio.load_sounder_config(args.config)
    paths = fileio.load_paths_csv(args.paths, degrees=args.degrees, config=config)

    def work(out_dir: Path):
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
            response = add_awgn(response, noise_power, args.seed)
            # extract refuses a tensor whose power overflows: write none
            if not math.isfinite(response.power):
                flag, value = (("--noise-power", args.noise_power) if args.snr_db is None
                               else ("--snr-db", args.snr_db))
                raise UsageError(f"{flag} {value!r} gives noise power {noise_power!r}, "
                                 f"and the noisy tensor's total power "
                                 f"{response.power!r} is not finite")
        fileio.save_tensor(out_dir / TENSOR_BIN, response)
        fileio.save_sounder_config(out_dir / CONFIG_TXT, config)
        fileio.save_paths_csv(out_dir / TRUTH_CSV, paths)
        return (f"synth: wrote {response.values.shape} tensor from {len(paths)} "
                "paths"), {}
    return work


def cmd_extract(args):
    if not args.kup <= args.kg <= args.kdom:
        raise UsageError(f"require kup <= kg <= kdom, got kup={args.kup} "
                         f"kg={args.kg} kdom={args.kdom}")
    config = fileio.load_sounder_config(args.config)
    spec = GridSpec(os_aoa=args.oversample, os_aod=args.oversample,
                    os_delay=args.oversample)
    _check_grid_memory(config, spec, args.kg)
    response = fileio.load_response(args.tensor, config)
    _require_finite_power(response, args.tensor)
    xcfg = ExtractionConfig(k_dom=args.kdom, k_g=args.kg, k_up=args.kup,
                            grid=spec, residual_stop=args.residual_stop,
                            final_global_ls=args.final_ls,
                            refine_peaks=args.refine_peaks)

    def work(out_dir: Path):
        paths, trace = greedy_ls(response, config, xcfg)
        sweep_errors, sage_sweeps, sage_pass_s, sage_rows, sage_s = [], 0, 0.0, 0, 0.0
        if args.sage_sweeps > 0 and paths:
            paths, sweep_errors, sage_sweeps, sage_pass_s, sage_rows, sage_s = _sage_refine(
                response, paths, config, spec, args.sage_sweeps)
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
        return (f"extract: committed {len(paths)} paths in {trace.full_sweeps} grid "
                f"passes ({trace.grid_pass_s:.2f} s), SAGE made {sage_sweeps} "
                f"({sage_pass_s:.2f} s), normalized error {error:.3e}"), {
            "extract_full_sweeps": trace.full_sweeps,
            "sage_full_sweeps": sage_sweeps, "sage_s": sage_s,
            "grid_pass_s": trace.grid_pass_s, "sage_grid_pass_s": sage_pass_s,
            "extract_swept_rows": trace.swept_rows, "sage_swept_rows": sage_rows,
            "grid_bytes": spec._plane_bytes(config), "peak_rss_mb": _peak_rss_mb()}
    return work


def cmd_associate(args):
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

    def work(out_dir: Path):
        result = associate(phys, est, res, args.unmatched_cost)
        fileio.save_pairs_csv(out_dir / PAIRS_CSV, result)
        fileio.save_association_report(out_dir / ASSOC_REPORT, result,
                                       len(phys), len(est), args.unmatched_cost)
        return (f"associate: {result.k_pa} pairs (of {len(phys)} truth, {len(est)} "
                f"estimates), post-association cost {result.post_pa_cost:.3e}"), {}
    return work


# keys of run_report.txt after the config block, in order, each copied from
# extract_report.txt if it is one of _EXTRACT_KEYS, else association_report.txt
_RUN_REPORT_KEYS = ("n_phys", "k_dom", "n_estimates", "k_pa", "normalized_error",
                    "pre_pa_cost", "post_pa_cost", "s_tau", "s_aoa", "s_aod",
                    "s_joint", "unmatched_phys", "unmatched_est")
_EXTRACT_KEYS = ("k_dom", "n_estimates", "normalized_error")


def cmd_report(args):
    """Report's inputs are artifacts of the run directory itself, so its
    work loads them, under the directory's lock."""
    def work(out_dir: Path):
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
        return (f"report: k_pa={run_report['k_pa']}, normalized error "
                f"{run_report['normalized_error']}, joint bin count "
                f"{run_report['s_joint']}"), {}
    return work


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
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
    p.add_argument("--seed", type=_number_flag(int, 0), default=None,
                   help="replaces the spec file's seed")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("synth", parents=[common],
                       help="synthesize a frequency-response tensor")
    p.add_argument("--config", required=True,
                   help="sounder config file or preset name (paper, desk)")
    p.add_argument("--paths", required=True, help="ground-truth path CSV")
    p.add_argument("--noise-power", type=_number_flag(float, 0.0), default=0.0,
                   help="complex noise variance per tensor entry (default 0)")
    p.add_argument("--snr-db", type=_number_flag(), default=None,
                   help="set noise power from the mean per-entry channel power")
    p.add_argument("--seed", type=_number_flag(int, 0), default=0,
                   help="seed of the noise draw (default 0)")
    p.add_argument("--degrees", action="store_true",
                   help="angle columns are physical degrees; convert on load")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", parents=[common],
                       help="run greedy-LS multipath extraction")
    p.add_argument("--config", required=True)
    p.add_argument("--tensor", required=True, help="response tensor file")
    p.add_argument("--kdom", type=_number_flag(int, 1), required=True,
                   help="total committed-path budget")
    p.add_argument("--kg", type=_number_flag(int, 1), default=4,
                   help="greedy candidates per iteration (default 4)")
    p.add_argument("--kup", type=_number_flag(int, 1), default=2,
                   help="paths committed per iteration (default 2)")
    p.add_argument("--oversample", type=_number_flag(int, 1), default=4,
                   help="beamspace oversampling per axis (default 4)")
    p.add_argument("--final-ls", action=argparse.BooleanOptionalAction,
                   default=True, help="joint LS refit of all amplitudes at the end")
    p.add_argument("--sage-sweeps", type=_number_flag(int, 0), default=0,
                   help="refinement sweeps after extraction (default 0)")
    p.add_argument("--residual-stop",
                   type=_number_flag(float, 0.0, below=1.0), default=1e-6,
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
    p.add_argument("--unmatched-cost", type=_number_flag(float, 0.0, strict=True),
                   default=3.0,
                   help="cost of leaving a path unmatched (default 3.0)")
    p.add_argument("--degrees", action="store_true",
                   help="angle columns are physical degrees; convert on load")
    p.set_defaults(func=cmd_associate)

    p = sub.add_parser("report", parents=[common],
                       help="consolidate a run directory into report + plot data")
    p.set_defaults(func=cmd_report)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    "The parser of ``build_parser``, built once per process."
    return build_parser()


def main(argv=None) -> int:
    """Parse ``argv`` and run its stage.  The stage's ``cmd_*`` function
    checks the flags and loads the inputs, and returns the stage's work: a
    function of the run directory that writes the artifacts and returns the
    summary line to log and the counts for timings.json.  The work runs
    under the run directory's lock with the BLAS held at one thread, and its
    wall time, its counts and the BLAS facts are merged into timings.json."""
    try:
        args = _parser().parse_args(argv)
        # a handler for the root logger if it has none, and on every call the
        # level of this package's loggers, so --quiet holds for this call only
        logging.basicConfig(format="%(message)s")
        logging.getLogger(__package__).setLevel(
            logging.WARNING if args.quiet else logging.INFO)
        work, out_dir = args.func(args), Path(args.out_dir)
        with _run_lock(out_dir), _one_blas_thread() as held:
            start = time.perf_counter()
            summary, counts = work(out_dir)
            seconds = time.perf_counter() - start
            fileio.save_timings(out_dir / TIMINGS_JSON,
                                {args.command: seconds} | counts | _blas_facts(held))
        logger.info("%s stage finished in %.2f s", args.command, seconds)
        logger.info("%s", summary)
        return EXIT_OK
    except (UsageError, ValueError, OSError, np.linalg.LinAlgError) as err:
        print(f"mpcx: {err}", file=sys.stderr)
        return EXIT_USAGE if isinstance(err, UsageError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
