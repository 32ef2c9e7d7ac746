import json
import math

import numpy as np
import pytest

from mpcx import (
    ExtractionTrace,
    FrequencyResponse,
    PathParams,
    ResolutionSpec,
    ScenarioSpec,
    SounderConfig,
    associate,
    fileio,
    synthesize_response,
)

DESK = SounderConfig(n_tx=8, n_rx=8, bandwidth_hz=1e9, n_freq=32)


def sample_paths():
    return [
        PathParams(gain=1.25 - 0.5j, delay=3.75e-9, aod=0.125, aoa=-0.25),
        PathParams(gain=-0.1 + 2j, delay=17.2e-9, aod=-0.4871, aoa=0.33),
    ]


# ---------------------------------------------------------------------------
# key = value files


def test_parse_kv_roundtrip(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("# comment\na = 1\n\nb = hello world\n", encoding="utf-8")
    assert fileio.parse_kv_file(f) == {"a": "1", "b": "hello world"}


def test_parse_kv_reports_line_numbers(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("a = 1\nnot a pair\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        fileio.parse_kv_file(f)


def test_parse_kv_rejects_duplicates(tmp_path):
    f = tmp_path / "dup.txt"
    f.write_text("a = 1\na = 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        fileio.parse_kv_file(f)


def test_sounder_config_presets():
    paper = fileio.load_sounder_config("paper")
    assert (paper.n_tx, paper.n_rx, paper.n_freq) == (35, 35, 233)
    assert paper.bandwidth_hz == 1e9
    desk = fileio.load_sounder_config("desk")
    assert (desk.n_tx, desk.n_rx, desk.n_freq) == (8, 8, 32)


def test_sounder_config_file_roundtrip(tmp_path):
    f = tmp_path / "cfg.txt"
    fileio.save_sounder_config(f, DESK)
    assert fileio.load_sounder_config(f) == DESK


def test_sounder_config_rejects_unknown_keys(tmp_path):
    f = tmp_path / "cfg.txt"
    fileio.save_sounder_config(f, DESK)
    f.write_text(f.read_text(encoding="utf-8") + "mystery = 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="mystery"):
        fileio.load_sounder_config(f)


def test_sounder_config_bad_number_names_field(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("n_tx = eight\nn_rx = 8\nbandwidth_hz = 1e9\nn_freq = 32\n",
                 encoding="utf-8")
    with pytest.raises(ValueError, match="n_tx"):
        fileio.load_sounder_config(f)


def test_scenario_sidecar_is_reloadable(tmp_path):
    spec = ScenarioSpec(n_clusters=4, paths_per_cluster=7, seed=42,
                        cluster_decay_db=5.5)
    f = tmp_path / "scenario_spec.txt"
    fileio.save_scenario_sidecar(f, spec, n_generated=28, n_retained=25)
    assert fileio.load_scenario_spec(f) == spec
    text = f.read_text(encoding="utf-8")
    assert "# generated = 28" in text
    assert "# retained = 25" in text


def test_scenario_spec_unknown_key_rejected(tmp_path):
    f = tmp_path / "scn.txt"
    f.write_text("n_clusters = 2\npaths_per_cluster = 3\nseed = 0\nbogus = 1\n",
                 encoding="utf-8")
    with pytest.raises(ValueError, match="bogus"):
        fileio.load_scenario_spec(f)


# ---------------------------------------------------------------------------
# path CSVs


def test_paths_csv_roundtrip_exact(tmp_path):
    f = tmp_path / "paths.csv"
    paths = sample_paths()
    fileio.save_paths_csv(f, paths)
    loaded = fileio.load_paths_csv(f)
    assert loaded == paths  # repr-format floats survive the round trip exactly
    # and a second save is byte-identical
    g = tmp_path / "again.csv"
    fileio.save_paths_csv(g, loaded)
    assert g.read_bytes() == f.read_bytes()


def test_paths_csv_db_schema(tmp_path):
    f = tmp_path / "db.csv"
    f.write_text(
        "gain_db,phase_deg,delay_s,aod_cycles,aoa_cycles\n"
        "-6.0,90.0,5e-09,0.1,-0.2\n",
        encoding="utf-8",
    )
    (p,) = fileio.load_paths_csv(f)
    mag = 10 ** (-6.0 / 20)
    assert p.gain.real == pytest.approx(mag * math.cos(math.pi / 2), abs=1e-15)
    assert p.gain.imag == pytest.approx(mag, rel=1e-12)
    assert p.delay == 5e-9


def test_paths_csv_degrees_conversion(tmp_path):
    f = tmp_path / "deg.csv"
    f.write_text(
        "gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles\n"
        "1.0,0.0,5e-09,30.0,-90.0\n",
        encoding="utf-8",
    )
    (p,) = fileio.load_paths_csv(f, degrees=True)
    assert p.aod == pytest.approx(0.5 * math.sin(math.radians(30.0)), rel=1e-12)
    assert p.aoa == pytest.approx(-0.5, rel=1e-12)


def test_paths_csv_schema_error_names_missing_column(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("gain_real,gain_imag,delay_s,aod_cycles\n1,0,0,0\n",
                 encoding="utf-8")
    with pytest.raises(ValueError, match="aoa_cycles"):
        fileio.load_paths_csv(f)


def test_paths_csv_row_errors_numbered(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text(
        "gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles\n"
        "1,0,1e-9,0.1,0.1\n"
        "1,0,oops,0.1,0.1\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="row 3.*delay_s"):
        fileio.load_paths_csv(f)
    f.write_text(
        "gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles\n1,0,1e-9\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="row 2"):
        fileio.load_paths_csv(f)


def test_paths_csv_out_of_range_angle_names_row(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text(
        "gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles\n"
        "1,0,1e-9,0.7,0.1\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="row 2"):
        fileio.load_paths_csv(f)


def test_paths_csv_empty_file(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        fileio.load_paths_csv(f)


# ---------------------------------------------------------------------------
# binary tensors


def test_tensor_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    resp = synthesize_response(DESK, [
        PathParams(gain=complex(rng.normal(), rng.normal()),
                   delay=rng.uniform(0, DESK.duration * 0.9),
                   aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
        for _ in range(3)
    ])
    f = tmp_path / "h.bin"
    fileio.save_tensor(f, resp)
    values = fileio.load_tensor(f)
    assert np.array_equal(values, resp.values)
    reloaded = fileio.load_response(f, DESK)
    assert np.array_equal(reloaded.values, resp.values)


def test_tensor_bad_magic(tmp_path):
    f = tmp_path / "h.bin"
    f.write_bytes(b"NOTMAGIC" + b"\0" * 64)
    with pytest.raises(ValueError, match="magic"):
        fileio.load_tensor(f)


def test_tensor_truncation(tmp_path):
    f = tmp_path / "h.bin"
    fileio.save_tensor(f, synthesize_response(DESK, []))
    f.write_bytes(f.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        fileio.load_tensor(f)


def test_tensor_shape_mismatch(tmp_path):
    f = tmp_path / "h.bin"
    fileio.save_tensor(f, synthesize_response(DESK, []))
    other = SounderConfig(n_tx=4, n_rx=4, bandwidth_hz=1e9, n_freq=16)
    with pytest.raises(ValueError, match="shape"):
        fileio.load_response(f, other)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                 complex(-np.inf, np.nan)])
def test_tensor_non_finite_entry_names_file_and_index(tmp_path, bad):
    values = synthesize_response(DESK, sample_paths()).values.copy()
    values[3, 5, 17] = bad
    values[6, 0, 2] = bad
    f = tmp_path / "h.bin"
    fileio.save_tensor(f, FrequencyResponse(values=values, config=DESK))
    with pytest.raises(ValueError, match=r"\(rx, tx, freq\) = \(3, 5, 17\)") as err:
        fileio.load_tensor(f)
    assert str(f) in str(err.value)
    with pytest.raises(ValueError, match="non-finite"):
        fileio.load_response(f, DESK)


# ---------------------------------------------------------------------------
# reports, traces, plot data


def test_kv_report_formatting(tmp_path):
    f = tmp_path / "report.txt"
    fileio.save_kv_report(f, {"n": 3, "flag": True, "other": False,
                              "x": 0.25, "name": "run1"})
    text = f.read_text(encoding="utf-8")
    assert "n = 3\n" in text
    assert "flag = true\n" in text
    assert "other = false\n" in text
    assert "x = 0.25\n" in text
    loaded = fileio.load_kv_report(f)
    assert loaded["flag"] == "true"
    assert float(loaded["x"]) == 0.25


def test_trace_csv_roundtrip(tmp_path):
    trace = ExtractionTrace(residual_power=[50.0, 5.0, 0.5], initial_power=100.0)
    f = tmp_path / "trace.csv"
    fileio.save_trace_csv(f, trace)
    rows = fileio.load_trace_csv(f)
    assert [r[0] for r in rows] == [1, 2, 3]
    assert rows[0][1] == pytest.approx(10 * math.log10(0.5))
    assert rows[2][1] == pytest.approx(10 * math.log10(0.005))


def test_trace_csv_zero_residual_is_minus_inf(tmp_path):
    trace = ExtractionTrace(residual_power=[0.0], initial_power=10.0)
    f = tmp_path / "trace.csv"
    fileio.save_trace_csv(f, trace)
    rows = fileio.load_trace_csv(f)
    assert rows[0][1] == float("-inf")


def test_pairs_csv_contents(tmp_path):
    res = ResolutionSpec.from_config(DESK)
    phys = [PathParams(gain=2 + 0j, delay=4e-9, aod=0.125, aoa=-0.125)]
    est = [PathParams(gain=2 + 0j, delay=4.5e-9, aod=0.125, aoa=-0.125)]
    result = associate(phys, est, res, unmatched_cost=10.0)
    f = tmp_path / "pairs.csv"
    fileio.save_pairs_csv(f, result, phys, est, res)
    lines = f.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("phys_idx,est_idx,cost,delay_err_bins,aoa_err_bins,"
                        "aod_err_bins,in_joint")
    fields = lines[1].split(",")
    assert fields[0] == "0" and fields[1] == "0"
    assert float(fields[3]) == pytest.approx(-0.5)  # signed: truth minus estimate
    assert float(fields[4]) == 0.0
    assert fields[6] == "1"


def test_pairs_csv_load_keeps_text_and_checks_indices(tmp_path):
    res = ResolutionSpec.from_config(DESK)
    phys, est = sample_paths(), sample_paths()[::-1]
    result = associate(phys, est, res, unmatched_cost=1e6)
    f = tmp_path / "pairs.csv"
    fileio.save_pairs_csv(f, result, phys, est, res)
    rows = fileio.load_pairs_csv(f, len(phys), len(est))
    assert rows == [line.split(",") for line in
                    f.read_text(encoding="utf-8").splitlines()[1:]]
    assert [(int(i), int(j), float(c)) for i, j, c, *_ in rows] == result.pairs
    with pytest.raises(ValueError, match="row 2: field 'phys_idx'") as err:
        fileio.load_pairs_csv(f, 0, len(est))
    assert str(f) in str(err.value)
    with pytest.raises(ValueError, match="row 2: field 'est_idx'"):
        fileio.load_pairs_csv(f, len(phys), 0)
    text = f.read_text(encoding="utf-8")
    f.write_text(text.replace("\n1,", "\n-1,"), encoding="utf-8")
    with pytest.raises(ValueError, match="field 'phys_idx': '-1'"):
        fileio.load_pairs_csv(f, len(phys), len(est))
    f.write_text(text.replace(",in_joint", ""), encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        fileio.load_pairs_csv(f, len(phys), len(est))


def test_axis_errors_csv_copies_pairs_columns(tmp_path):
    rows = [["0", "1", "0.25", "-0.5", "1e-17", "0.0", "1"]]
    f = tmp_path / "axis.csv"
    fileio.save_axis_errors_csv(f, rows)
    assert f.read_text(encoding="utf-8") == (
        "phys_idx,delay_err_bins,aoa_err_bins,aod_err_bins\n0,-0.5,1e-17,0.0\n")


def test_scatter_csv(tmp_path):
    f = tmp_path / "scatter.csv"
    fileio.save_scatter_csv(f, sample_paths())
    lines = f.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "idx,delay_s,aoa_cycles,aod_cycles,power_db"
    assert len(lines) == 3
    power_db = float(lines[1].split(",")[4])
    assert power_db == pytest.approx(10 * math.log10(abs(1.25 - 0.5j) ** 2))


def test_matrix_csv_layout(tmp_path):
    f = tmp_path / "m.csv"
    fileio.save_matrix_csv(f, "aoa", np.array([0.0, 0.5]),
                           np.array([1.0, 2.0, 3.0]),
                           np.arange(6, dtype=float).reshape(2, 3))
    lines = f.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "aoa,1.0,2.0,3.0"
    assert lines[1] == "0.0,0.0,1.0,2.0"
    assert lines[2] == "0.5,3.0,4.0,5.0"
    with pytest.raises(ValueError, match="shape"):
        fileio.save_matrix_csv(f, "aoa", np.array([0.0]), np.array([1.0]),
                               np.zeros((2, 2)))


def test_timings_merge(tmp_path):
    f = tmp_path / "timings.json"
    fileio.save_timings(f, {"synth": 1.5})
    fileio.save_timings(f, {"extract": 2.5})
    data = json.loads(f.read_text(encoding="utf-8"))
    assert data == {"synth": 1.5, "extract": 2.5}


class _Unwritable:
    "A path-list entry whose gain raises when the writer reads it."

    @property
    def gain(self):
        raise RuntimeError("writer interrupted")


@pytest.mark.parametrize("writer", ["paths", "tensor", "matrix"])
def test_failed_write_keeps_previous_file(tmp_path, writer):
    "A writer that raises part way leaves the old file intact and no temp file."
    if writer == "paths":
        target = tmp_path / "paths.csv"
        fileio.save_paths_csv(target, sample_paths() * 2)
        # without the atomic replace this left the two good rows: a shorter
        # but valid path list
        save = lambda: fileio.save_paths_csv(target, sample_paths() + [_Unwritable()])
    elif writer == "tensor":
        target = tmp_path / "h.bin"
        fileio.save_tensor(target, synthesize_response(DESK, sample_paths()))
        bad = FrequencyResponse(values=np.full((8, 8, 32), "x", dtype=object),
                                config=DESK)
        save = lambda: fileio.save_tensor(target, bad)
    else:
        target = tmp_path / "map.csv"
        axis = np.array([0.0, 1.0])
        fileio.save_matrix_csv(target, "row", axis, axis, np.eye(2))
        bad = np.array([[1.0, 2.0], [3.0, "x"]], dtype=object)
        save = lambda: fileio.save_matrix_csv(target, "row", axis, axis, bad)
    before = target.read_bytes()
    with pytest.raises((RuntimeError, AttributeError, ValueError)):
        save()
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [target.name]


def test_writers_leave_no_temporary_files(tmp_path):
    fileio.save_paths_csv(tmp_path / "paths.csv", sample_paths())
    fileio.save_tensor(tmp_path / "h.bin", synthesize_response(DESK, sample_paths()))
    fileio.save_timings(tmp_path / "timings.json", {"a": 1.0})
    fileio.save_timings(tmp_path / "timings.json", {"b": 2.0})
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "h.bin", "paths.csv", "timings.json"]
    assert json.loads((tmp_path / "timings.json").read_text()) == {"a": 1.0, "b": 2.0}
