import csv
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("gain_db", ["7000", "nan", "inf"])
def test_paths_csv_db_gain_overflow_names_row_and_field(tmp_path, gain_db):
    f = tmp_path / "db.csv"
    f.write_text("gain_db,phase_deg,delay_s,aod_cycles,aoa_cycles\n"
                 "-6.0,0.0,5e-09,0.1,-0.2\n"
                 f"{gain_db},0.0,5e-09,0.1,-0.2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"db\.csv: row 3: field 'gain_db' {gain_db}"):
        fileio.load_paths_csv(f)


@pytest.mark.parametrize("phase_deg", ["inf", "-inf", "nan"])
def test_paths_csv_db_non_finite_phase_names_row_and_field(tmp_path, phase_deg):
    f = tmp_path / "db.csv"
    f.write_text("gain_db,phase_deg,delay_s,aod_cycles,aoa_cycles\n"
                 f"-6.0,{phase_deg},5e-09,0.1,-0.2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"db\.csv: row 2: field 'phase_deg' {phase_deg}"):
        fileio.load_paths_csv(f)


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


def write_raw_tensor(path, values):
    "A tensor file written byte by byte, as ``save_tensor`` lays it out."
    stacked = np.stack([values.real, values.imag], axis=-1).astype("<f8")
    path.write_bytes(fileio.TENSOR_MAGIC + np.array(values.shape, dtype="<u8").tobytes()
                     + stacked.tobytes())


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
    write_raw_tensor(f, values)
    with pytest.raises(ValueError, match=r"\(rx, tx, freq\) = \(3, 5, 17\)") as err:
        fileio.load_tensor(f)
    assert str(f) in str(err.value)
    with pytest.raises(ValueError, match="non-finite"):
        fileio.load_response(f, DESK)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, -np.inf)])
def test_save_tensor_refuses_non_finite_entry(tmp_path, bad):
    values = synthesize_response(DESK, sample_paths()).values.copy()
    values[2, 7, 30] = bad
    f = tmp_path / "h.bin"
    with pytest.raises(ValueError, match=r"\(rx, tx, freq\) = \(2, 7, 30\)") as err:
        fileio.save_tensor(f, FrequencyResponse(values=values, config=DESK))
    assert str(f) in str(err.value)
    assert list(tmp_path.iterdir()) == []


def test_raw_tensor_layout_matches_writer(tmp_path):
    resp = synthesize_response(DESK, sample_paths())
    fileio.save_tensor(tmp_path / "a.bin", resp)
    write_raw_tensor(tmp_path / "b.bin", resp.values)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


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


def test_trace_csv_errors_name_file_and_row(tmp_path):
    f = tmp_path / "trace.csv"
    f.write_text("commit_index,residual_power_db\n1,-3.0\nx,-4.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="row 3: field 'commit_index': invalid integer 'x'"):
        fileio.load_trace_csv(f)
    f.write_text("commit_index,residual_power_db\n1,-3.0,7\n", encoding="utf-8")
    with pytest.raises(ValueError, match="row 2: expected 2 fields, got 3") as err:
        fileio.load_trace_csv(f)
    assert str(f) in str(err.value)
    f.write_text("commit_index,residual_db\n1,-3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        fileio.load_trace_csv(f)


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
    fileio.save_pairs_csv(f, result)
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
    fileio.save_pairs_csv(f, result)
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


def csv_writer_matrix(path, row_name, row_axis, col_axis, matrix):
    "The matrix writer as it was: ``csv.writer`` with ``_fmt`` per value."
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([row_name] + [fileio._fmt(c) for c in col_axis])
        writer.writerows([fileio._fmt(r)] + [fileio._fmt(v) for v in row]
                         for r, row in zip(row_axis, matrix))


def test_matrix_csv_bytes_equal_the_csv_writer(tmp_path):
    """One ``repr`` join per row writes the bytes that ``csv.writer`` with
    ``_fmt`` per value wrote: zeros of both signs, a subnormal, the largest
    and smallest magnitudes, inf, -inf and nan, and a power map's floats."""
    rng = np.random.default_rng(17)
    special = np.array([[0.0, -0.0, 5e-324, 1e300, -1e300],
                        [np.inf, -np.inf, np.nan, 2.2250738585072014e-308, 1.0]])
    for matrix in (special, rng.exponential(size=(32, 128)) * 10.0 ** rng.integers(
            -300, 300, size=(32, 128))):
        row_axis = np.linspace(-0.5, 0.5, len(matrix), endpoint=False)
        col_axis = np.arange(matrix.shape[1]) / 1e9
        got, old = tmp_path / "got.csv", tmp_path / "old.csv"
        fileio.save_matrix_csv(got, "aoa_cycles", row_axis, col_axis, matrix)
        csv_writer_matrix(old, "aoa_cycles", row_axis, col_axis, matrix)
        assert got.read_bytes() == old.read_bytes()


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


# ---------------------------------------------------------------------------
# exact bytes of every writer on fixed inputs: floats appear as their repr,
# and every computed value below is exact in IEEE arithmetic, so the texts
# hold on any machine

GOLD_PHYS = sample_paths() + [PathParams(gain=-10j, delay=0.0, aod=0.5, aoa=-0.5)]
GOLD_EST = [PathParams(gain=1 + 0j, delay=3.5e-9, aod=0.1, aoa=-0.25),
            PathParams(gain=-10j, delay=0.25e-9, aod=0.5, aoa=0.5)]
# powers 1, 100, 1e6 and 0: exact decibels
GOLD_SCATTER = [PathParams(gain=1 + 0j, delay=3.75e-9, aod=0.125, aoa=-0.25),
                PathParams(gain=-10j, delay=0.0, aod=0.5, aoa=-0.5),
                PathParams(gain=1000 + 0j, delay=1.72e-08, aod=-0.4871, aoa=0.33),
                PathParams(gain=0j, delay=2e-9, aod=0.0, aoa=-0.0)]


def gold_association():
    res = ResolutionSpec.from_config(DESK)
    return associate(GOLD_PHYS, GOLD_EST, res, unmatched_cost=3.0)


def write_pairs(f):
    fileio.save_pairs_csv(f, gold_association())


def write_axis_errors(f):
    write_pairs(f)
    fileio.save_axis_errors_csv(f, fileio.load_pairs_csv(f, 3, 2))


GOLDEN = {
    "config": (
        lambda f: fileio.save_sounder_config(f, DESK),
        "n_tx = 8\nn_rx = 8\nbandwidth_hz = 1000000000.0\nn_freq = 32\n"
        "carrier_hz = 28000000000.0\n"),
    "scenario_sidecar": (
        lambda f: fileio.save_scenario_sidecar(
            f, ScenarioSpec(n_clusters=4, paths_per_cluster=7, seed=42,
                            cluster_decay_db=5.5), n_generated=28, n_retained=25),
        "# clustered scenario record\n"
        "# draw order per cluster: center delay ~ U(delay_center_min_s,\n"
        "#   delay_center_max_s), center aoa ~ U(angle_center_min,\n"
        "#   angle_center_max), center aod likewise; then per path: delay\n"
        "#   offset ~ N(0, delay_spread_s), aoa/aod offsets ~ N(0,\n"
        "#   angle_spread), power = -cluster_index*cluster_decay_db -\n"
        "#   U(0, path_spread_db) dB, phase ~ U(0, 2*pi)\n"
        "# generated = 28\n# retained = 25\n"
        "n_clusters = 4\npaths_per_cluster = 7\nseed = 42\n"
        "delay_center_min_s = 2e-08\ndelay_center_max_s = 2e-07\n"
        "delay_spread_s = 2e-09\nangle_center_min = -0.4\nangle_center_max = 0.4\n"
        "angle_spread = 0.015\ncluster_decay_db = 5.5\npath_spread_db = 10.0\n"
        "dynamic_range_db = 100.0\n"),
    "paths": (
        lambda f: fileio.save_paths_csv(f, GOLD_PHYS),
        "gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles\n"
        "1.25,-0.5,3.75e-09,0.125,-0.25\n"
        "-0.1,2.0,1.72e-08,-0.4871,0.33\n"
        "-0.0,-10.0,0.0,0.5,-0.5\n"),
    "trace": (
        lambda f: fileio.save_trace_csv(f, ExtractionTrace(
            residual_power=[10.0, 1.0, 0.0], initial_power=100.0)),
        "commit_index,residual_power_db\n1,-10.0\n2,-20.0\n3,-inf\n"),
    "pairs": (
        write_pairs,
        "phys_idx,est_idx,cost,delay_err_bins,aoa_err_bins,aod_err_bins,in_joint\n"
        "0,0,0.10249999999999986,0.24999999999999975,0.0,0.19999999999999996,1\n"
        "2,1,0.0625,-0.25,0.0,0.0,1\n"),
    "axis_errors": (
        write_axis_errors,
        "phys_idx,delay_err_bins,aoa_err_bins,aod_err_bins\n"
        "0,0.24999999999999975,0.0,0.19999999999999996\n"
        "2,-0.25,0.0,0.0\n"),
    "scatter": (
        lambda f: fileio.save_scatter_csv(f, GOLD_SCATTER),
        "idx,delay_s,aoa_cycles,aod_cycles,power_db\n"
        "0,3.75e-09,-0.25,0.125,0.0\n"
        "1,0.0,-0.5,0.5,20.0\n"
        "2,1.72e-08,0.33,-0.4871,60.0\n"
        "3,2e-09,-0.0,0.0,-inf\n"),
    "associated_scatter": (
        lambda f: fileio.save_associated_scatter_csv(
            f, gold_association().pairs, GOLD_PHYS, GOLD_EST),
        "phys_idx,est_idx,phys_delay_s,est_delay_s,phys_aoa_cycles,"
        "est_aoa_cycles,phys_aod_cycles,est_aod_cycles,cost\n"
        "0,0,3.75e-09,3.5e-09,-0.25,-0.25,0.125,0.1,0.10249999999999986\n"
        "2,1,0.0,2.5e-10,-0.5,0.5,0.5,0.5,0.0625\n"),
    "matrix": (
        lambda f: fileio.save_matrix_csv(
            f, "aoa_cycles", np.array([-0.5, 0.25]), np.array([0.0, 1e-9, 2.5e-9]),
            np.array([[0.0, 1.5, -2.0], [1e-300, 3.0, 7.25]])),
        "aoa_cycles,0.0,1e-09,2.5e-09\n-0.5,0.0,1.5,-2.0\n0.25,1e-300,3.0,7.25\n"),
    "association_report": (
        lambda f: fileio.save_association_report(
            f, gold_association(), n_phys=3, n_est=2, unmatched_cost=3.0),
        "n_phys = 3\nn_est = 2\nunmatched_cost = 3.0\nk_pa = 2\n"
        "pre_pa_cost = 8.012585492332915\npost_pa_cost = 0.06081675683337664\n"
        "s_tau = 2\ns_aoa = 2\ns_aod = 2\ns_joint = 2\n"
        "unmatched_phys = 1\nunmatched_est = 0\n"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_writer_golden_bytes(tmp_path, name):
    write, expected = GOLDEN[name]
    f = tmp_path / name
    write(f)
    assert f.read_bytes() == expected.encode("utf-8")


# ---------------------------------------------------------------------------
# round trips


def path_bits(p):
    "The exact bits of a path's five numbers (so -0.0 differs from 0.0)."
    return struct.pack("<5d", p.gain.real, p.gain.imag, p.delay, p.aod, p.aoa)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# a gain's power |gain|^2 must be finite: parts up to 1e153 keep it below 2e306
GAIN_PART = st.floats(-1e153, 1e153)
CYCLES = st.floats(-0.5, 0.5)
PATHS = st.lists(st.builds(
    PathParams, gain=st.builds(complex, GAIN_PART, GAIN_PART),
    delay=st.floats(0.0, allow_infinity=False), aod=CYCLES, aoa=CYCLES),
    max_size=6)


@settings(max_examples=100, deadline=None)
@given(paths=PATHS)
def test_paths_csv_roundtrip_is_bit_exact(tmp_path_factory, paths):
    f = tmp_path_factory.mktemp("paths") / "paths.csv"
    fileio.save_paths_csv(f, paths)
    assert [path_bits(p) for p in fileio.load_paths_csv(f)] == \
        [path_bits(p) for p in paths]


@settings(max_examples=50, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 3)] * 3), data=st.data())
def test_tensor_roundtrip_is_bit_exact(tmp_path_factory, shape, data):
    n_rx, n_tx, n_freq = shape
    parts = data.draw(st.lists(FINITE, min_size=2 * n_rx * n_tx * n_freq,
                               max_size=2 * n_rx * n_tx * n_freq))
    values = np.array(parts).view(complex).reshape(shape)
    config = SounderConfig(n_tx=n_tx, n_rx=n_rx, bandwidth_hz=1e9, n_freq=n_freq)
    f = tmp_path_factory.mktemp("tensor") / "h.bin"
    fileio.save_tensor(f, FrequencyResponse(values=values, config=config))
    loaded = fileio.load_response(f, config).values
    assert loaded.tobytes() == values.tobytes()


POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(config=st.builds(SounderConfig, n_tx=st.integers(1, 10**6),
                        n_rx=st.integers(1, 10**6), bandwidth_hz=POSITIVE,
                        n_freq=st.integers(1, 10**6), carrier_hz=POSITIVE))
def test_sounder_config_roundtrip(tmp_path_factory, config):
    f = tmp_path_factory.mktemp("cfg") / "cfg.txt"
    fileio.save_sounder_config(f, config)
    assert fileio.load_sounder_config(f) == config


NON_NEGATIVE = st.floats(0.0, allow_infinity=False)


@st.composite
def scenario_specs(draw):
    delays = sorted(draw(st.lists(NON_NEGATIVE, min_size=2, max_size=2)))
    angles = sorted(draw(st.lists(CYCLES, min_size=2, max_size=2)))
    return ScenarioSpec(
        n_clusters=draw(st.integers(1, 10**6)),
        paths_per_cluster=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 10**20)),
        delay_center_min_s=delays[0], delay_center_max_s=delays[1],
        delay_spread_s=draw(NON_NEGATIVE),
        angle_center_min=angles[0], angle_center_max=angles[1],
        angle_spread=draw(NON_NEGATIVE), cluster_decay_db=draw(FINITE),
        path_spread_db=draw(NON_NEGATIVE), dynamic_range_db=draw(POSITIVE))


@settings(max_examples=100, deadline=None)
@given(spec=scenario_specs(), counts=st.tuples(st.integers(0, 99), st.integers(0, 99)))
def test_scenario_sidecar_roundtrip(tmp_path_factory, spec, counts):
    f = tmp_path_factory.mktemp("scn") / "scenario_spec.txt"
    fileio.save_scenario_sidecar(f, spec, *counts)
    loaded = fileio.load_scenario_spec(f)
    assert loaded == spec
    assert [repr(getattr(loaded, k)) for k in vars(spec)] == \
        [repr(getattr(spec, k)) for k in vars(spec)]
