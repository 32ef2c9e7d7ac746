import builtins
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mpcx import (ExtractionConfig, GridSpec, beamspace, cli, extract, fileio, greedy_ls,
                  pool, synthesize_response)
from mpcx.cli import _blas_threads, _parser, main
from test_acceptance import PAPER_SCENARIO

DESK_SPEC = """\
n_clusters = 3
paths_per_cluster = 4
seed = 7
delay_center_min_s = 5e-09
delay_center_max_s = 2.5e-08
delay_spread_s = 2e-10
angle_spread = 0.01
dynamic_range_db = 60.0
"""

ARTIFACTS = [
    "scenario.csv", "scenario_spec.txt", "truth_paths.csv", "config.txt",
    "tensor.bin", "estimates.csv", "trace.csv", "extract_report.txt",
    "pairs.csv", "association_report.txt", "run_report.txt",
    "plot_truth_scatter.csv", "plot_estimate_scatter.csv",
    "plot_associated_scatter.csv", "plot_pdp_aoa_aod.csv",
    "plot_pdp_aoa_delay.csv", "plot_residual_trace.csv",
    "plot_axis_errors.csv",
]


def run_pipeline(base, kdom=24):
    out = base / "run"
    spec = base / "scn.txt"
    spec.write_text(DESK_SPEC, encoding="utf-8")
    steps = [
        ["scenario", "--spec", str(spec), "--out-dir", str(out), "--quiet"],
        ["synth", "--config", "desk", "--paths", str(out / "scenario.csv"),
         "--out-dir", str(out), "--quiet"],
        ["extract", "--config", "desk", "--tensor", str(out / "tensor.bin"),
         "--kdom", str(kdom), "--residual-stop", "0",
         "--out-dir", str(out), "--quiet"],
        ["associate", "--config", "desk", "--truth", str(out / "truth_paths.csv"),
         "--estimates", str(out / "estimates.csv"),
         "--out-dir", str(out), "--quiet"],
        ["report", "--out-dir", str(out), "--quiet"],
    ]
    for step in steps:
        assert main(step) == 0, f"stage failed: {step[0]}"
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("cli"))


def test_pipeline_writes_all_artifacts(run_dir):
    for name in ARTIFACTS:
        assert (run_dir / name).exists(), name
    assert (run_dir / "timings.json").exists()
    assert not (run_dir / ".lock").exists()


def test_pipeline_recovers_truth(run_dir):
    report = fileio.load_kv_report(run_dir / "run_report.txt")
    n_phys = int(report["n_phys"])
    assert n_phys == 12
    assert int(report["k_pa"]) == n_phys
    assert int(report["unmatched_phys"]) == 0
    assert float(report["normalized_error"]) < 0.05
    assert int(report["s_joint"]) == n_phys


def test_cli_matches_library_composition(run_dir):
    config = fileio.load_sounder_config(run_dir / "config.txt")
    response = fileio.load_response(run_dir / "tensor.bin", config)
    xcfg = ExtractionConfig(k_dom=24, k_g=4, k_up=2, grid=GridSpec(),
                            residual_stop=0.0)
    paths, trace = greedy_ls(response, config, xcfg)
    assert fileio.load_paths_csv(run_dir / "estimates.csv") == paths
    report = fileio.load_kv_report(run_dir / "extract_report.txt")
    assert report["stop_reason"] == trace.stop_reason == "k_dom"


def test_rerun_is_byte_identical(run_dir, tmp_path):
    again = run_pipeline(tmp_path)
    for name in ARTIFACTS:
        assert (again / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_sage_wall_time_goes_to_the_timings_sidecar_only(run_dir, tmp_path):
    """Extract with SAGE sweeps writes SAGE's own wall time as ``sage_s`` to
    timings.json, and 0 without them.  No other artifact names it, and a
    rerun with SAGE writes the same bytes to every other artifact."""
    assert fileio.load_timings(run_dir / "timings.json")["sage_s"] == 0.0
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        shutil.copytree(run_dir, out)
        assert main(["extract", "--config", "desk", "--tensor", str(out / "tensor.bin"),
                     "--kdom", "24", "--residual-stop", "0", "--sage-sweeps", "2",
                     "--out-dir", str(out), "--quiet"]) == 0
        timings = fileio.load_timings(out / "timings.json")
        assert 0 < timings["sage_s"] < timings["extract"]
        assert not any(re.search(r"\bsage_s\b", p.read_text(encoding="utf-8"))
                       for p in out.glob("*.*") if p.suffix in (".txt", ".csv"))
        runs.append(out)
    report = fileio.load_kv_report(runs[0] / "extract_report.txt")
    assert "sage_error_sweep_2" in report
    for name in ("estimates.csv", "trace.csv", "extract_report.txt"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_sage_grid_passes_go_to_the_timings_sidecar_only(run_dir, tmp_path):
    """Extract writes the grid passes of SAGE's picker, its transform
    included, as ``sage_full_sweeps`` to timings.json: 1 plus the full
    sweeps that SAGE makes, and 0 without SAGE.  No text artifact names it."""
    assert fileio.load_timings(run_dir / "timings.json")["sage_full_sweeps"] == 0
    out = tmp_path / "sage"
    shutil.copytree(run_dir, out)
    sage, swept = extract._sage_refine, []

    def counted(*args):
        with mock.patch.object(beamspace, "peak_sweep",
                               wraps=beamspace.peak_sweep) as sweeps:
            result = sage(*args)
        swept.append(sweeps.call_count)
        return result

    with mock.patch.object(cli, "_sage_refine", counted):
        assert main(["extract", "--config", "desk", "--tensor", str(out / "tensor.bin"),
                     "--kdom", "24", "--residual-stop", "0", "--sage-sweeps", "2",
                     "--out-dir", str(out), "--quiet"]) == 0
    timings = fileio.load_timings(out / "timings.json")
    assert len(swept) == 1 and timings["sage_full_sweeps"] == 1 + swept[0]
    assert not any("sage_full_sweeps" in p.read_text(encoding="utf-8")
                   for p in out.glob("*.txt"))


def test_grid_pass_seconds_go_to_the_timings_sidecar_only(run_dir, tmp_path):
    """Extract writes the wall seconds of greedy-LS's and SAGE's grid passes
    (transform and full sweeps) as ``grid_pass_s`` and ``sage_grid_pass_s``
    to timings.json: floats >= 0 that fit in the stage's own time, and 0.0
    for SAGE without ``--sage-sweeps``.  No text or CSV artifact names
    them."""
    keys = ("grid_pass_s", "sage_grid_pass_s")
    timings = fileio.load_timings(run_dir / "timings.json")
    assert type(timings["grid_pass_s"]) is float and timings["sage_grid_pass_s"] == 0.0
    out = tmp_path / "sage"
    shutil.copytree(run_dir, out)
    assert main(["extract", "--config", "desk", "--tensor", str(out / "tensor.bin"),
                 "--kdom", "24", "--residual-stop", "0", "--sage-sweeps", "1",
                 "--out-dir", str(out), "--quiet"]) == 0
    timings = fileio.load_timings(out / "timings.json")
    assert all(type(timings[key]) is float and timings[key] >= 0 for key in keys)
    assert timings["grid_pass_s"] + timings["sage_grid_pass_s"] <= timings["extract"]
    artifacts = [*out.glob("*.txt"), *out.glob("*.csv")]
    assert artifacts and not any(key in p.read_text(encoding="utf-8")
                                 for key in keys for p in artifacts)


def test_trace_is_monotone(run_dir):
    rows = fileio.load_trace_csv(run_dir / "trace.csv")
    dbs = [db for _, db in rows]
    assert all(b <= a + 1e-9 for a, b in zip(dbs, dbs[1:]))
    assert [i for i, _ in rows] == list(range(1, len(rows) + 1))


@pytest.mark.filterwarnings("error")
def test_extract_exact_recovery_writes_a_finite_trace(tmp_path, monkeypatch):
    """One noiseless on-grid path, no residual stop: the first commit fits
    it exactly, so the residual power can reach 0 but never goes negative
    or NaN.  Extract exits 0 and writes its full-sweep count, the bytes of
    its stored grid plane, its peak RSS and the BLAS facts (library, the
    thread count in effect during the stage, whether the runner held it at
    one thread, CPU count, thread variables, null when unset) to the timings
    sidecar, and to no other artifact.  After the stage, the BLAS runs with
    the thread count it had before."""
    before = _blas_threads()
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    paths = tmp_path / "one.csv"
    paths.write_text("gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles\n"
                     "0.8,-0.6,2.5e-09,0.125,-0.25\n", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["synth", "--config", "desk", "--paths", str(paths),
                 "--out-dir", str(out), "--quiet"]) == 0
    assert main(["extract", "--config", "desk", "--tensor", str(out / "tensor.bin"),
                 "--kdom", "8", "--residual-stop", "0", "--out-dir", str(out),
                 "--quiet"]) == 0
    rows = fileio.load_trace_csv(out / "trace.csv")
    assert rows and not any(np.isnan(db) for _, db in rows)
    config = fileio.load_sounder_config(out / "config.txt")
    _, trace = greedy_ls(fileio.load_response(out / "tensor.bin", config), config,
                         ExtractionConfig(k_dom=8, residual_stop=0.0))
    assert len(trace.residual_power) == len(rows)
    assert min(trace.residual_power) >= 0
    report = fileio.load_kv_report(out / "extract_report.txt")
    assert 0 <= float(report["final_residual_power"]) < 1e-20
    (first,) = [p for p in fileio.load_paths_csv(out / "estimates.csv")
                if abs(p.gain) > 1e-6]
    assert abs(first.gain - (0.8 - 0.6j)) < 1e-12
    timings = fileio.load_timings(out / "timings.json")
    assert timings["extract_full_sweeps"] >= 1
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert (timings["blas_name"], timings["blas_version"]) == (blas["name"],
                                                               blas["version"])
    assert timings["cpu_count"] == os.cpu_count()
    held = cli._blas_library()[1] is not None
    assert timings["blas_threads_held"] is held
    assert timings["blas_threads"] == (1 if held else before)
    assert _blas_threads() == before
    assert (timings["MKL_NUM_THREADS"], timings["OMP_NUM_THREADS"]) == ("3", None)
    assert timings["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")
    assert not any(blas["version"] in p.read_text(encoding="utf-8")
                   for p in out.glob("*.txt"))
    # the desk grid at oversample 4 stores 32 x 8 x 128 complex128 values
    assert timings["grid_bytes"] == 32 * 8 * 128 * 16
    assert timings["peak_rss_mb"] > 0
    assert not any(key in p.read_text(encoding="utf-8")
                   for key in ("grid_bytes", "peak_rss_mb") for p in out.glob("*.txt"))


def test_report_totals_recomputable(run_dir):
    report = fileio.load_kv_report(run_dir / "run_report.txt")
    assoc = fileio.load_kv_report(run_dir / "association_report.txt")
    for key in ("k_pa", "pre_pa_cost", "post_pa_cost", "s_tau", "s_aoa",
                "s_aod", "s_joint"):
        assert report[key] == assoc[key], key
    extract = fileio.load_kv_report(run_dir / "extract_report.txt")
    assert report["k_dom"] == extract["k_dom"]
    assert int(report["n_estimates"]) == int(extract["n_estimates"])


def test_report_maps_use_extract_oversample(run_dir, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(run_dir, out)
    info = out / "extract_report.txt"
    info.write_text(info.read_text(encoding="utf-8").replace(
        "oversample = 4", "oversample = 2"), encoding="utf-8")
    assert main(["report", "--out-dir", str(out), "--quiet"]) == 0
    lines = (out / "plot_pdp_aoa_aod.csv").read_text(encoding="utf-8").splitlines()
    assert (len(lines) - 1, len(lines[0].split(",")) - 1) == (16, 16)
    for name in ("run_report.txt", "plot_associated_scatter.csv",
                 "plot_axis_errors.csv"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


def _mix_subset_truth(out):
    "Re-associate against the first 6 of the 12 truth paths."
    subset = out.parent / "subset.csv"
    subset.write_text("\n".join((out / "truth_paths.csv").read_text(
        encoding="utf-8").splitlines()[:7]) + "\n", encoding="utf-8")
    assert main(["associate", "--config", "desk", "--truth", str(subset),
                 "--estimates", str(out / "estimates.csv"),
                 "--out-dir", str(out), "--quiet"]) == 0


def _edit(out, name, old, new):
    path = out / name
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


@pytest.mark.parametrize("mix, name, key", [
    (_mix_subset_truth, "association_report.txt", "n_phys"),
    (lambda out: _edit(out, "association_report.txt", "n_est = 24", "n_est = 23"),
     "association_report.txt", "n_est"),
    (lambda out: _edit(out, "pairs.csv", "\n0,", "\n12,"), "pairs.csv", "phys_idx"),
    (lambda out: _edit(out, "pairs.csv", "\n0,", "\n0,24"), "pairs.csv", "est_idx"),
    (lambda out: _edit(out, "extract_report.txt", "normalized_error =", "# "),
     "extract_report.txt", "normalized_error"),
    (lambda out: _edit(out, "extract_report.txt", "oversample = 4",
                       "oversample = four"), "extract_report.txt", "oversample"),
    (lambda out: _edit(out, "extract_report.txt", "oversample = 4",
                       "oversample = 0"), "extract_report.txt", "oversample"),
], ids=["subset-truth", "n-est", "phys-idx-range", "est-idx-range",
        "missing-key", "oversample-text", "oversample-zero"])
def test_report_refuses_mixed_run_dir(run_dir, tmp_path, capsys, mix, name, key):
    "A run directory whose artifacts disagree exits 2, naming file and key."
    out = tmp_path / "run"
    shutil.copytree(run_dir, out)
    mix(out)
    capsys.readouterr()
    assert main(["report", "--out-dir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert name in err and f"'{key}'" in err, err
    assert "Traceback" not in err
    assert (out / "run_report.txt").read_bytes() == \
        (run_dir / "run_report.txt").read_bytes()


class _FailingFile:
    "A file whose first write stores half of its data, then raises."

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise RuntimeError("writer interrupted")


@pytest.mark.parametrize("name", ["plot_axis_errors.csv", "plot_residual_trace.csv"])
def test_failed_plot_write_keeps_previous_file(run_dir, tmp_path, monkeypatch, name):
    out = tmp_path / "run"
    shutil.copytree(run_dir, out)
    before = (out / name).read_bytes()
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if name in str(file) and mode[0] in "wxa":
            return _FailingFile(fh)
        return fh

    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(RuntimeError, match="interrupted"):
        main(["report", "--out-dir", str(out), "--quiet"])
    monkeypatch.undo()
    assert (out / name).read_bytes() == before
    assert [p.name for p in out.iterdir() if p.name.endswith(".tmp")] == []


def test_seed_flag_overrides_spec(tmp_path):
    spec = tmp_path / "scn.txt"
    spec.write_text(DESK_SPEC, encoding="utf-8")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["scenario", "--spec", str(spec), "--out-dir", str(a),
                 "--quiet"]) == 0
    assert main(["scenario", "--spec", str(spec), "--out-dir", str(b),
                 "--seed", "99", "--quiet"]) == 0
    assert (a / "scenario.csv").read_bytes() != (b / "scenario.csv").read_bytes()
    sidecar = fileio.load_scenario_spec(b / "scenario_spec.txt")
    assert sidecar.seed == 99


def test_synth_snr_adds_noise(tmp_path):
    spec = tmp_path / "scn.txt"
    spec.write_text(DESK_SPEC, encoding="utf-8")
    out = tmp_path / "r"
    assert main(["scenario", "--spec", str(spec), "--out-dir", str(out),
                 "--quiet"]) == 0
    clean, noisy = tmp_path / "clean", tmp_path / "noisy"
    base = ["synth", "--config", "desk", "--paths", str(out / "scenario.csv"),
            "--quiet"]
    assert main(base + ["--out-dir", str(clean)]) == 0
    assert main(base + ["--out-dir", str(noisy), "--snr-db", "20",
                        "--seed", "5"]) == 0
    h0 = fileio.load_tensor(clean / "tensor.bin")
    h1 = fileio.load_tensor(noisy / "tensor.bin")
    noise = h1 - h0
    snr = np.mean(np.abs(h0) ** 2) / np.mean(np.abs(noise) ** 2)
    assert 10 * np.log10(snr) == pytest.approx(20.0, abs=1.0)


def test_synth_degrees_conversion(tmp_path):
    deg = tmp_path / "deg.csv"
    deg.write_text(
        "gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles\n"
        "1.0,0.0,5e-09,30.0,0.0\n",
        encoding="utf-8",
    )
    out = tmp_path / "r"
    assert main(["synth", "--config", "desk", "--paths", str(deg), "--degrees",
                 "--out-dir", str(out), "--quiet"]) == 0
    (p,) = fileio.load_paths_csv(out / "truth_paths.csv")
    assert p.aod == pytest.approx(0.5 * np.sin(np.radians(30.0)), rel=1e-12)


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_1(tmp_path, capsys):
    out = str(tmp_path / "r")
    t = tmp_path / "h.bin"
    t.write_bytes(b"")
    assert main(["extract", "--config", "desk", "--tensor", str(t),
                 "--kdom", "4", "--kg", "2", "--kup", "3",
                 "--out-dir", out, "--quiet"]) == 1
    assert "kup" in capsys.readouterr().err
    assert main(["no-such-command"]) == 1
    assert main(["extract", "--config", "desk", "--out-dir", out]) == 1  # no --kdom
    assert main(["associate", "--config", "desk", "--truth", "x", "--estimates",
                 "y", "--unmatched-cost", "0", "--out-dir", out]) == 1


def test_noise_flags_mutually_exclusive(tmp_path, capsys):
    deg = tmp_path / "p.csv"
    deg.write_text(
        "gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles\n1,0,5e-09,0.1,0.1\n",
        encoding="utf-8",
    )
    code = main(["synth", "--config", "desk", "--paths", str(deg),
                 "--noise-power", "0.1", "--snr-db", "20",
                 "--out-dir", str(tmp_path / "r"), "--quiet"])
    assert code == 1
    assert "mutually exclusive" in capsys.readouterr().err


def test_data_errors_exit_2(tmp_path, capsys):
    out = str(tmp_path / "r")
    # missing input file
    assert main(["synth", "--config", "desk", "--paths",
                 str(tmp_path / "nope.csv"), "--out-dir", out, "--quiet"]) == 2
    # malformed CSV names the missing column
    bad = tmp_path / "bad.csv"
    bad.write_text("gain_real,delay_s\n1,1e-9\n", encoding="utf-8")
    assert main(["synth", "--config", "desk", "--paths", str(bad),
                 "--out-dir", out, "--quiet"]) == 2
    assert "aoa_cycles" in capsys.readouterr().err
    # delay beyond the unambiguous span (desk: 32 ns)
    far = tmp_path / "far.csv"
    far.write_text(
        "gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles\n1,0,4e-08,0.1,0.1\n",
        encoding="utf-8",
    )
    assert main(["synth", "--config", "desk", "--paths", str(far),
                 "--out-dir", out, "--quiet"]) == 2
    assert "row 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["synth", "--config", "desk", "--paths", "p.csv", "--noise-power", "-1"],
     "--noise-power"),
    (["synth", "--config", "desk", "--paths", "p.csv", "--snr-db", "nan"],
     "--snr-db"),
    (["extract", "--config", "desk", "--tensor", "h.bin", "--kdom", "4",
      "--residual-stop", "nan"], "--residual-stop"),
    (["extract", "--config", "desk", "--tensor", "h.bin", "--kdom", "4",
      "--residual-stop", "-0.5"], "--residual-stop"),
    (["associate", "--config", "desk", "--truth", "t.csv", "--estimates",
      "e.csv", "--unmatched-cost", "nan"], "--unmatched-cost"),
    (["associate", "--config", "desk", "--truth", "t.csv", "--estimates",
      "e.csv", "--unmatched-cost", "inf"], "--unmatched-cost"),
    (["synth", "--config", "desk", "--paths", "p.csv", "--noise-power", "x"],
     "--noise-power"),
    (["scenario", "--spec", "s.txt", "--seed", "-1"], "--seed"),
    (["synth", "--config", "desk", "--paths", "p.csv", "--seed", "-1"], "--seed"),
    (["extract", "--config", "desk", "--tensor", "h.bin", "--kdom", "4",
      "--oversample", "0"], "--oversample"),
    (["extract", "--config", "desk", "--tensor", "h.bin", "--kdom", "4",
      "--sage-sweeps", "-1"], "--sage-sweeps"),
    (["extract", "--config", "desk", "--tensor", "h.bin", "--kdom", "0"], "--kdom"),
    (["extract", "--config", "desk", "--tensor", "h.bin", "--kdom", "4",
      "--kg", "2.5"], "--kg"),
    (["extract", "--config", "desk", "--tensor", "h.bin", "--kdom", "4",
      "--residual-stop", "1"], "--residual-stop"),
    # only scenario and synth draw randomness, so only they take a seed
    (["extract", "--config", "desk", "--tensor", "h.bin", "--kdom", "4",
      "--seed", "5"], "--seed"),
])
def test_bad_float_flags_exit_1_naming_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "r"
    assert main(argv + ["--out-dir", str(out), "--quiet"]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("column, value", [("gain_db", "7000"),
                                           ("phase_deg", "inf")])
def test_db_path_csv_out_of_range_exits_2_naming_field(tmp_path, capsys, column,
                                                       value):
    header = ["gain_db", "phase_deg", "delay_s", "aod_cycles", "aoa_cycles"]
    row = ["-6", "0", "5e-09", "0.1", "0.1"]
    row[header.index(column)] = value
    paths = tmp_path / "p.csv"
    paths.write_text(",".join(header) + "\n" + ",".join(row) + "\n",
                     encoding="utf-8")
    out = tmp_path / "r"
    assert main(["synth", "--config", "desk", "--paths", str(paths),
                 "--out-dir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "p.csv: row 2" in err and f"'{column}'" in err
    assert not (out / "tensor.bin").exists()


@pytest.mark.parametrize("column, field", [("delay_s", "delay"),
                                           ("gain_real", "gain")])
def test_non_finite_path_csv_exits_2(tmp_path, capsys, column, field):
    header = ["gain_real", "gain_imag", "delay_s", "aod_cycles", "aoa_cycles"]
    row = ["1", "0", "5e-09", "0.1", "0.1"]
    row[header.index(column)] = "nan"
    paths = tmp_path / "p.csv"
    paths.write_text(",".join(header) + "\n" + ",".join(row) + "\n",
                     encoding="utf-8")
    out = tmp_path / "r"
    assert main(["synth", "--config", "desk", "--paths", str(paths),
                 "--out-dir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "row 2" in err and field in err
    assert not (out / "tensor.bin").exists()


def test_non_finite_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n_tx = 8\nn_rx = 8\nbandwidth_hz = nan\nn_freq = 32\n",
                   encoding="utf-8")
    paths = tmp_path / "p.csv"
    paths.write_text("gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles\n"
                     "1,0,5e-09,0.1,0.1\n", encoding="utf-8")
    assert main(["synth", "--config", str(cfg), "--paths", str(paths),
                 "--out-dir", str(tmp_path / "r"), "--quiet"]) == 2
    assert "bandwidth_hz" in capsys.readouterr().err


def test_non_finite_tensor_exits_2_naming_tensor(tmp_path, capsys):
    paths = tmp_path / "p.csv"
    paths.write_text("gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles\n"
                     "1,0,5e-09,0.1,0.1\n", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["synth", "--config", "desk", "--paths", str(paths),
                 "--out-dir", str(out), "--quiet"]) == 0
    tensor = out / "tensor.bin"
    raw = bytearray(tensor.read_bytes())
    # (rx, tx, freq) = (2, 7, 30) of 8 x 8 x 32, real part, after the header
    offset = 32 + 16 * ((2 * 8 + 7) * 32 + 30)
    raw[offset:offset + 8] = np.array(np.nan, dtype="<f8").tobytes()
    tensor.write_bytes(bytes(raw))
    assert main(["extract", "--config", "desk", "--tensor", str(tensor),
                 "--kdom", "4", "--out-dir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert str(tensor) in err and "(2, 7, 30)" in err
    assert not (out / "estimates.csv").exists()


@pytest.mark.parametrize("snr_db, gain", [("4000", "1"), ("-4000", "1"),
                                           ("-3000", "100000")])
def test_snr_without_finite_noise_power_exits_1(tmp_path, capsys, snr_db, gain):
    "Noise power overflows, underflows to 0, or is infinite: no traceback."
    paths = tmp_path / "p.csv"
    paths.write_text("gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles\n"
                     f"{gain},0,5e-09,0.1,0.1\n", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["synth", "--config", "desk", "--paths", str(paths),
                 "--snr-db", snr_db, "--out-dir", str(out), "--quiet"]) == 1
    assert "--snr-db" in capsys.readouterr().err
    assert not (out / "tensor.bin").exists()


@pytest.mark.parametrize("flag, value, gain", [("--noise-power", "1e308", "1"),
                                               ("--snr-db", "-70", "1e150")])
def test_noise_that_overflows_the_tensor_power_exits_1(tmp_path, capsys, flag,
                                                       value, gain):
    """A finite noise power whose noisy tensor has a total power that is not
    finite, which extract would refuse: exit 1 naming the flag, no tensor."""
    paths = tmp_path / "p.csv"
    paths.write_text("gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles\n"
                     f"{gain},0,5e-09,0.1,0.1\n", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["synth", "--config", "desk", "--paths", str(paths), flag, value,
                 "--seed", "1", "--out-dir", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert flag in err and "not finite" in err
    assert not (out / "tensor.bin").exists()


@pytest.mark.parametrize("key", ["dynamic_range_db", "angle_spread",
                                 "delay_spread_s", "cluster_decay_db"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_scenario_spec_exits_2_naming_field(tmp_path, capsys, key, value):
    spec = tmp_path / "scn.txt"
    spec.write_text(f"n_clusters = 2\npaths_per_cluster = 3\nseed = 0\n"
                    f"{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["scenario", "--spec", str(spec), "--out-dir", str(out),
                 "--quiet"]) == 2
    assert key in capsys.readouterr().err
    assert not (out / "scenario_spec.txt").exists()


def test_negative_scenario_spec_seed_exits_2_naming_field(tmp_path, capsys):
    spec = tmp_path / "scn.txt"
    spec.write_text("n_clusters = 2\npaths_per_cluster = 3\nseed = -3\n",
                    encoding="utf-8")
    out = tmp_path / "r"
    assert main(["scenario", "--spec", str(spec), "--out-dir", str(out),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert str(spec) in err and "seed" in err and "Traceback" not in err
    assert not (out / "scenario_spec.txt").exists()


def test_missing_artifact_names_stage(tmp_path, capsys):
    out = tmp_path / "r"
    out.mkdir()
    assert main(["report", "--out-dir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "synth" in err


def test_locked_run_dir_exits_2(tmp_path, capsys):
    out = tmp_path / "r"
    out.mkdir()
    (out / ".lock").touch()
    spec = tmp_path / "scn.txt"
    spec.write_text(DESK_SPEC, encoding="utf-8")
    assert main(["scenario", "--spec", str(spec), "--out-dir", str(out),
                 "--quiet"]) == 2
    assert "locked" in capsys.readouterr().err


def test_synth_names_csv_row_of_aliasing_delay(tmp_path, capsys):
    "The row is the file's own, blank lines counted (desk span: 32 ns)."
    paths = tmp_path / "far.csv"
    paths.write_text("gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles\n"
                     "1,0,5e-09,0.1,0.1\n\n1,0,4e-08,0.1,0.1\n", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["synth", "--config", "desk", "--paths", str(paths),
                 "--out-dir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{paths}: row 4: delay 4e-08 s is outside the unambiguous span" in err
    assert not out.exists()


def test_non_finite_total_power_exits_2_naming_file(tmp_path, capsys):
    """A 3060 dB path: a finite path power near 1e306 and finite entries near
    1e153, but the power of the 2048 desk entries together overflows."""
    paths = tmp_path / "p.csv"
    paths.write_text("gain_db,phase_deg,delay_s,aod_cycles,aoa_cycles\n"
                     "3060,0,5e-09,0.1,0.1\n", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["synth", "--config", "desk", "--paths", str(paths),
                 "--out-dir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{paths}: total power" in err and "not finite" in err
    assert not (out / "tensor.bin").exists()

    config = fileio.load_sounder_config("desk")
    tensor = tmp_path / "tensor.bin"
    fileio.save_tensor(tensor, synthesize_response(
        config, fileio.load_paths_csv(paths)))
    assert main(["extract", "--config", "desk", "--tensor", str(tensor),
                 "--kdom", "4", "--out-dir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{tensor}: total power" in err and "not finite" in err
    assert not (out / "estimates.csv").exists()


def _associate(tmp_path, truth_rows, est_rows):
    "Run associate on two one-off path CSVs; returns (exit code, stderr, paths)."
    header = "gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles\n"
    truth, est = tmp_path / "truth.csv", tmp_path / "est.csv"
    truth.write_text(header + truth_rows, encoding="utf-8")
    est.write_text(header + est_rows, encoding="utf-8")
    out = tmp_path / "r"
    code = main(["associate", "--config", "desk", "--truth", str(truth),
                 "--estimates", str(est), "--out-dir", str(out), "--quiet"])
    assert not (out / "pairs.csv").exists()
    return code, truth, est


@pytest.mark.parametrize("gains, total", [("0.0", "0.0"), ("1e154", "inf")])
def test_associate_zero_or_overflowing_truth_power_exits_2_naming_file(
        tmp_path, capsys, gains, total):
    """All-zero gains, or path powers of 1e308 that are finite alone but
    overflow together (their weights would all read 0)."""
    code, truth, _ = _associate(
        tmp_path, f"{gains},0,5e-09,0.1,0.1\n{gains},0,1e-08,0,0\n",
        "1,0,5e-09,0.1,0.1\n")
    err = capsys.readouterr().err
    assert code == 2
    assert f"{truth}: total power {total} must be finite and > 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("side", ["truth", "estimates"])
def test_associate_overflowing_path_power_exits_2_naming_row(tmp_path, capsys, side):
    good, huge = "1,0,5e-09,0.1,0.1\n", "1,0,5e-09,0.1,0.1\n1e200,0,1e-08,0,0\n"
    code, truth, est = _associate(tmp_path, huge if side == "truth" else good,
                                  huge if side == "estimates" else good)
    err = capsys.readouterr().err
    assert code == 2
    assert f"{truth if side == 'truth' else est}: row 3: gain" in err
    assert "finite power" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("side", ["truth", "estimates"])
def test_associate_header_only_csv_exits_2_naming_file(tmp_path, capsys, side):
    good = "1,0,5e-09,0.1,0.1\n"
    code, truth, est = _associate(tmp_path, "" if side == "truth" else good,
                                  "" if side == "estimates" else good)
    err = capsys.readouterr().err
    assert code == 2
    assert f"{truth if side == 'truth' else est}: holds no paths" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, problem", [("{not json", "not valid JSON"),
                                           ("[1]", "holds list, not a JSON object")])
def test_malformed_timings_json_exits_2_naming_file(tmp_path, capsys, text, problem):
    out = tmp_path / "r"
    out.mkdir()
    timings = out / "timings.json"
    timings.write_text(text, encoding="utf-8")
    spec = tmp_path / "scn.txt"
    spec.write_text(DESK_SPEC, encoding="utf-8")
    assert main(["scenario", "--spec", str(spec), "--out-dir", str(out),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{timings}: {problem}" in err
    assert "Traceback" not in err
    assert timings.read_text(encoding="utf-8") == text
    # checked when the lock is taken, before the stage writes anything
    for name in ("scenario.csv", "scenario_spec.txt", ".lock"):
        assert not (out / name).exists(), name


def _sysconf(pages):
    "``os.sysconf`` of a machine with ``pages`` pages of 4096 bytes."
    def sysconf(name):
        return {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 4096}[name]
    return sysconf


def _extract_need(config, os, k_g):
    """Bytes that extract allocates at oversample ``os``: the stored AoD
    plane (os^2) plus the transform's delay-transformed lines (os),
    complex128; the picker's 16 + k_g factor columns (complex128) with their
    row bounds (float64) over the (AoA, AoD) rows, the 2^20 complex128
    lattice values that its tentative picks hold at most, and the grid's
    offset kernels and their phases, 2n - 1 complex128 values each per axis
    of n points, with the kernels' real-frame copies, 2n - 1 float64
    values."""
    grid = (os * os + os) * config.n_rx * config.n_tx * config.n_freq * 16
    rows = config.n_rx * config.n_tx * os * os
    axes = os * (config.n_rx + config.n_tx + config.n_freq)
    return (grid + (16 + 8) * rows * (16 + k_g) + 16 * (1 << 20)
            + (16 + 16 + 8) * (2 * axes - 3))


def test_extract_memory_preflight_counts_the_picker(tmp_path, capsys, monkeypatch):
    """With physical memory enough for the grid and the transform's lines
    but not for the picker's factor columns, row bounds and held rows too,
    extract exits 2 naming --oversample and writes nothing."""
    out = run_pipeline(tmp_path, kdom=4)
    before = (out / "estimates.csv").read_bytes()
    config = fileio.load_sounder_config(out / "config.txt")
    grid = 12 * config.n_rx * config.n_tx * config.n_freq * 16
    need = _extract_need(config, 3, k_g=4)
    monkeypatch.setattr("mpcx.cli.os.sysconf", _sysconf((grid + need) // 2 // 4096))
    assert main(["extract", "--config", "desk", "--tensor", str(out / "tensor.bin"),
                 "--kdom", "4", "--oversample", "3", "--out-dir", str(out),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"--oversample 3: the beamspace grid and its picker need {need} bytes" in err
    assert (out / "estimates.csv").read_bytes() == before


def test_extract_grid_over_physical_memory_exits_2(tmp_path, capsys, monkeypatch):
    out = run_pipeline(tmp_path, kdom=4)
    extract_outputs = ("estimates.csv", "trace.csv", "extract_report.txt",
                       "timings.json")
    before = {name: (out / name).read_bytes() for name in extract_outputs}
    argv = ["extract", "--config", "desk", "--tensor", str(out / "tensor.bin"),
            "--kdom", "4", "--oversample", "3", "--out-dir", str(out), "--quiet"]
    config = fileio.load_sounder_config(out / "config.txt")
    need = _extract_need(config, 3, k_g=4)
    # one page short of the grid and its picker
    monkeypatch.setattr("mpcx.cli.os.sysconf", _sysconf(need // 4096 - 1))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert (f"--oversample 3: the beamspace grid and its picker need {need} bytes, "
            f"more than the {(need // 4096 - 1) * 4096} bytes of physical memory"
            ) in err
    assert "Traceback" not in err
    for name, data in before.items():
        assert (out / name).read_bytes() == data, name
    assert not (out / ".lock").exists()
    # a grid that fits, and a platform that does not report its memory, run
    monkeypatch.setattr("mpcx.cli.os.sysconf", _sysconf(need // 4096 + 1))
    assert main(argv) == 0

    def unreported(name):
        raise ValueError(f"unrecognized configuration name {name!r}")
    monkeypatch.setattr("mpcx.cli.os.sysconf", unreported)
    assert main(argv) == 0


def test_extract_refined_commits_over_physical_memory_exit_2_naming_kdom(
        tmp_path, capsys, monkeypatch):
    """With --refine-peaks greedy-LS keeps the steering columns and gain of
    every commit: k_dom x (n_rx + n_tx + n_freq + 1) complex128 values.
    Where the grid and its picker fit but those do not as well, extract
    exits 2 naming --kdom, before any allocation fails, and writes nothing;
    one byte more of memory, and it runs."""
    out = run_pipeline(tmp_path, kdom=4)
    extract_outputs = ("estimates.csv", "trace.csv", "extract_report.txt",
                       "timings.json")
    before = {name: (out / name).read_bytes() for name in extract_outputs}
    config = fileio.load_sounder_config(out / "config.txt")
    need = _extract_need(config, 4, k_g=4)

    def argv(kdom):
        return ["extract", "--config", "desk", "--tensor", str(out / "tensor.bin"),
                "--kdom", str(kdom), "--refine-peaks", "--out-dir", str(out),
                "--quiet"]

    monkeypatch.setattr("mpcx.cli.os.sysconf", _sysconf(2 << 20))  # 8 GiB
    assert main(argv(10 ** 11)) == 2
    done = 16 * 10 ** 11 * (config.n_rx + config.n_tx + config.n_freq + 1)
    err = capsys.readouterr().err
    assert ("--kdom 100000000000: the beamspace grid, its picker and the refined "
            f"commits' steering columns need {need + done} bytes, more than the "
            f"{2 << 32} bytes of physical memory") in err
    assert "Traceback" not in err
    done = 16 * 4 * (config.n_rx + config.n_tx + config.n_freq + 1)
    for have, code in ((need + done - 1, 2), (need + done, 0)):
        monkeypatch.setattr("mpcx.cli.os.sysconf", lambda name, have=have: {
            "SC_PHYS_PAGES": have, "SC_PAGE_SIZE": 1}[name])
        assert main(argv(4)) == code
        if code:
            assert "--kdom 4: " in capsys.readouterr().err
            for name, data in before.items():
                assert (out / name).read_bytes() == data, name
            assert not (out / ".lock").exists()


def _numpy_blas_is_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # an older numpy takes no mode, or lists no BLAS
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _numpy_blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_blas_threads_reads_the_loaded_openblas():
    """The thread count follows OPENBLAS_NUM_THREADS in a fresh process,
    capped, as OpenBLAS caps it, at the CPUs the process may run on."""
    src = str(Path(fileio.__file__).parents[1])
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        env.pop("OMP_NUM_THREADS", None)
        got = subprocess.run(
            [sys.executable, "-c",
             "from mpcx.cli import _blas_threads; print(_blas_threads())"],
            check=True, capture_output=True, text=True, env=env, timeout=120).stdout
        assert int(got) == min(int(threads), pool._cpus())


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The five stages on the paper preset (k_dom 4, oversample 1), in a
    fresh process under one and under two OpenBLAS threads: the stage runner
    holds the BLAS at one thread, so every artifact but timings.json is the
    same bytes, and timings.json records the count in effect."""
    spec = tmp_path / "scenario.txt"
    spec.write_text(PAPER_SCENARIO, encoding="utf-8")
    stages = [["scenario", "--spec", str(spec)],
              ["synth", "--config", "paper", "--paths", "scenario.csv"],
              ["extract", "--config", "paper", "--tensor", "tensor.bin",
               "--kdom", "4", "--oversample", "1"],
              ["associate", "--config", "paper", "--truth", "truth_paths.csv",
               "--estimates", "estimates.csv"],
              ["report"]]
    code = ("import json, sys\n"
            "from mpcx.cli import main\n"
            "stages = json.loads(sys.argv[1])\n"
            "sys.exit(any(main(argv + ['--quiet']) for argv in stages))\n")
    src = str(Path(fileio.__file__).parents[1])
    runs = {}
    for threads in ("1", "2"):
        out = runs[threads] = tmp_path / f"threads{threads}"
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        env.pop("OMP_NUM_THREADS", None)
        subprocess.run([sys.executable, "-c", code, json.dumps(stages)], check=True,
                       cwd=out, env=env, timeout=300)
    names = sorted(p.name for p in runs["1"].iterdir())
    assert names == sorted(p.name for p in runs["2"].iterdir())
    assert set(ARTIFACTS) <= set(names)
    for name in names:
        if name != "timings.json":
            assert (runs["1"] / name).read_bytes() == (runs["2"] / name).read_bytes(), name
    for threads, out in runs.items():
        timings = fileio.load_timings(out / "timings.json")
        assert timings["OPENBLAS_NUM_THREADS"] == threads
        if timings["blas_threads_held"]:
            assert timings["blas_threads"] == 1


@pytest.mark.parametrize("order", [("--quiet", ""), ("", "--quiet")])
def test_quiet_holds_for_its_own_call_only(tmp_path, order):
    """Two in-process ``main`` calls in a fresh process, one with --quiet: the
    other call prints its progress lines to stderr, whichever comes first."""
    spec = tmp_path / "scn.txt"
    spec.write_text(DESK_SPEC, encoding="utf-8")
    code = (
        "import sys\n"
        "from mpcx.cli import main\n"
        "for k, flag in enumerate(sys.argv[2:]):\n"
        "    argv = ['scenario', '--spec', sys.argv[1], '--out-dir', f'run{k}']\n"
        "    assert main(argv + ([flag] if flag else [])) == 0\n"
        "    print('--- end of call', file=sys.stderr, flush=True)\n")
    src = str(Path(fileio.__file__).parents[1])
    err = subprocess.run([sys.executable, "-c", code, str(spec), *order],
                         check=True, capture_output=True, text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120).stderr
    calls = err.split("--- end of call\n")
    assert len(calls) == 3 and calls[2] == ""
    for flag, printed in zip(order, calls):
        assert ("scenario stage finished" in printed) == (flag != "--quiet"), err


def test_parser_is_built_once(tmp_path, monkeypatch):
    "Every main call of a process parses with the same parser."
    parser = _parser()
    monkeypatch.setattr("mpcx.cli.build_parser", lambda: pytest.fail("rebuilt"))
    spec = tmp_path / "scn.txt"
    spec.write_text(DESK_SPEC, encoding="utf-8")
    for k in range(2):
        assert main(["scenario", "--spec", str(spec), "--out-dir",
                     str(tmp_path / f"run{k}"), "--quiet"]) == 0
    assert _parser() is parser
