import builtins
import shutil

import numpy as np
import pytest

from mpcx import ExtractionConfig, GridSpec, fileio, greedy_ls, synthesize_response
from mpcx.cli import main

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


def test_trace_is_monotone(run_dir):
    rows = fileio.load_trace_csv(run_dir / "trace.csv")
    dbs = [db for _, db in rows]
    assert all(b <= a + 1e-9 for a, b in zip(dbs, dbs[1:]))
    assert [i for i, _ in rows] == list(range(1, len(rows) + 1))


@pytest.mark.filterwarnings("error")
def test_extract_exact_recovery_writes_a_finite_trace(tmp_path):
    """One noiseless on-grid path, no residual stop: the first commit fits
    it exactly, so the residual power can reach 0 but never goes negative
    or NaN.  Extract exits 0 and writes its full-sweep count to the
    timings sidecar."""
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
    assert fileio.load_timings(out / "timings.json")["extract_full_sweeps"] >= 1


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


def test_extract_grid_over_physical_memory_exits_2(tmp_path, capsys, monkeypatch):
    out = run_pipeline(tmp_path, kdom=4)
    extract_outputs = ("estimates.csv", "trace.csv", "extract_report.txt",
                       "timings.json")
    before = {name: (out / name).read_bytes() for name in extract_outputs}
    argv = ["extract", "--config", "desk", "--tensor", str(out / "tensor.bin"),
            "--kdom", "4", "--oversample", "3", "--out-dir", str(out), "--quiet"]
    config = fileio.load_sounder_config(out / "config.txt")
    need = 27 * config.n_rx * config.n_tx * config.n_freq * 16
    # one page short of the grid
    monkeypatch.setattr("mpcx.cli.os.sysconf", _sysconf(need // 4096 - 1))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert (f"--oversample 3: the beamspace grid needs {need} bytes, more than "
            f"the {(need // 4096 - 1) * 4096} bytes of physical memory") in err
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
