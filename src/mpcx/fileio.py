"""Persisted file formats for pipeline runs.

Formats, all documented here and stable:

- Path-list CSV, header ``gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles``;
  the alternate header ``gain_db,phase_deg,delay_s,aod_cycles,aoa_cycles`` is
  accepted and converted on load (magnitude 10^(dB/20), phase in degrees).
- Frequency-response tensor: magic ``MPXTEN01``, three little-endian uint64
  dimensions (rx, tx, freq), then interleaved (real, imag) float64 pairs in
  row-major (rx, tx, freq) order.
- Flat ``key = value`` text for sounder configs, scenario specs, and stage
  reports; ``#`` starts a comment line.
- Plot data as headed CSV (scatters, residual trace, per-pair errors, and
  power-map matrices whose header row carries the column-axis coordinates).
- Pairs CSV, written from an ``AssociationResult`` alone: per matched pair
  its indices, cost, ``pair_errors`` row and joint-bin membership.

The keys of a sounder config or scenario spec file are the fields of its
dataclass.  All CSVs are written by one writer, and those read back go through
one reader that checks the header and each row's field count.

All writers emit deterministic bytes for equal inputs: floats are written
with ``repr`` (shortest round-trip form) and line endings are ``\\n``.  Every
writer is atomic: it writes a temporary file in the target's directory and
moves it over the target with ``os.replace``, so a writer that fails or a
process killed part way leaves the previous file (or none) in place, never
a truncated one.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import os
import typing
from pathlib import Path

import numpy as np

from .assoc import AssociationResult
from .scenario import ScenarioSpec
from .sounder import (FrequencyResponse, PathParams, SounderConfig, _check_delay,
                      spatial_frequency)

if typing.TYPE_CHECKING:
    from .extract import ExtractionTrace

TENSOR_MAGIC = b"MPXTEN01"

PATHS_HEADER = ["gain_real", "gain_imag", "delay_s", "aod_cycles", "aoa_cycles"]
PATHS_HEADER_DB = ["gain_db", "phase_deg", "delay_s", "aod_cycles", "aoa_cycles"]
TRACE_HEADER = ["commit_index", "residual_power_db"]
PAIRS_HEADER = ["phys_idx", "est_idx", "cost", "delay_err_bins",
                "aoa_err_bins", "aod_err_bins", "in_joint"]

CONFIG_PRESETS = {
    "paper": dict(n_tx=35, n_rx=35, bandwidth_hz=1.0e9, n_freq=233, carrier_hz=28.0e9),
    "desk": dict(n_tx=8, n_rx=8, bandwidth_hz=1.0e9, n_freq=32, carrier_hz=28.0e9),
}


def _fmt(x) -> str:
    "Deterministic text for a number: bools as true/false, floats by ``repr``."
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


@contextlib.contextmanager
def _atomic_open(path, binary: bool = False):
    """Open a new temporary file beside ``path`` for writing.

    When the ``with`` block completes, the temporary file replaces ``path``
    in one ``os.replace``; when it raises, the temporary file is removed and
    ``path`` is left as it was.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    try:
        with (open(tmp, "xb") if binary
              else open(tmp, "x", encoding="utf-8", newline="")) as fh:
            yield fh
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            tmp.unlink()


def _write_text(path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def _write_csv(path, header: list[str], rows) -> None:
    "A headed CSV of already formatted ``rows``, with ``\\n`` line endings."
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path, headers: list[list[str]]) -> tuple[list[str], list]:
    """The header and the numbered non-blank rows (the header is row 1) of
    a CSV whose header is one of ``headers`` and whose rows all have as many
    fields; a ValueError names the file, and the row if one is at fault."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if header not in headers:
        missing = [c for c in headers[0] if c not in header]
        raise ValueError(f"{path}: unrecognized header {header}; expected "
                         f"{' or '.join(map(str, headers))} "
                         f"(missing columns: {missing or 'none'})")
    numbered = []
    for rownum, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}: row {rownum}: expected {len(header)} "
                             f"fields, got {len(row)}")
        numbered.append((rownum, row))
    return header, numbered


def _parse(kind, text: str, where: str):
    "``text`` as ``kind`` (int or float); a malformed value names ``where``."
    try:
        return kind(text)
    except ValueError:
        name = "integer" if kind is int else "number"
        raise ValueError(f"{where}: invalid {name} '{text}'") from None


# ---------------------------------------------------------------------------
# flat key = value files


def parse_kv_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` text file.

    Blank lines and lines starting with ``#`` are skipped.  Raises ValueError
    with the offending line number on malformed or duplicate entries.
    """
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ValueError(f"{path}: line {lineno}: empty key or value")
            if key in out:
                raise ValueError(f"{path}: line {lineno}: duplicate key '{key}'")
            out[key] = value
    return out


def _kv_lines(entries: dict) -> list[str]:
    "``key = value`` lines: numbers by ``_fmt``, anything else as text."
    return [f"{key} = {_fmt(v) if isinstance(v, (int, float, np.integer)) else v}"
            for key, v in entries.items()]


def _load_fields(cls, path):
    """Dataclass ``cls`` from a ``key = value`` file of its fields, each parsed
    by its ``int`` or ``float`` annotation.  A field without a default is
    required, an unknown key is rejected, and every error names the file."""
    fields = parse_kv_file(path)
    kinds = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in fields:
            kwargs[f.name] = _parse(kinds[f.name], fields.pop(f.name),
                                    f"{path}: field '{f.name}'")
        elif f.default is dataclasses.MISSING:
            raise ValueError(f"{path}: missing required key '{f.name}'")
    if fields:
        raise ValueError(f"{path}: unknown keys: {', '.join(sorted(fields))}")
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def load_sounder_config(source) -> SounderConfig:
    """Load a sounder config from a preset name ('paper', 'desk') or file."""
    if isinstance(source, str) and source in CONFIG_PRESETS:
        return SounderConfig(**CONFIG_PRESETS[source])
    return _load_fields(SounderConfig, source)


def save_sounder_config(path, config: SounderConfig) -> None:
    save_kv_report(path, dataclasses.asdict(config))


def load_scenario_spec(path) -> ScenarioSpec:
    "Load a scenario spec file; unrecognized or malformed keys are rejected."
    return _load_fields(ScenarioSpec, path)


def save_scenario_sidecar(path, spec: ScenarioSpec, n_generated: int,
                          n_retained: int) -> None:
    """Auditable record of a generated scenario.

    The file is itself a loadable scenario spec; the draw procedure and the
    generated/retained counts are recorded as comments.
    """
    lines = [
        "# clustered scenario record",
        "# draw order per cluster: center delay ~ U(delay_center_min_s,",
        "#   delay_center_max_s), center aoa ~ U(angle_center_min,",
        "#   angle_center_max), center aod likewise; then per path: delay",
        "#   offset ~ N(0, delay_spread_s), aoa/aod offsets ~ N(0,",
        "#   angle_spread), power = -cluster_index*cluster_decay_db -",
        "#   U(0, path_spread_db) dB, phase ~ U(0, 2*pi)",
        f"# generated = {n_generated}",
        f"# retained = {n_retained}",
    ]
    lines += _kv_lines(dataclasses.asdict(spec))
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# path-list CSV


def save_paths_csv(path, paths: list[PathParams]) -> None:
    _write_csv(path, PATHS_HEADER, (
        [_fmt(v) for v in (p.gain.real, p.gain.imag, p.delay, p.aod, p.aoa)]
        for p in paths))


def load_paths_csv(path, degrees: bool = False,
                   config: SounderConfig | None = None) -> list[PathParams]:
    """Read a path-list CSV in either accepted schema.

    With ``degrees=True`` the angle columns hold physical angles in degrees
    and are converted to spatial-frequency cycles on load.  With ``config``,
    a delay that would alias on its frequency grid, the check of
    ``synthesize_response``, is refused naming its row.
    """
    header, rows = _read_csv(path, [PATHS_HEADER, PATHS_HEADER_DB])
    paths: list[PathParams] = []
    for rownum, row in rows:
        vals = [_parse(float, text, f"{path}: row {rownum}: field '{name}'")
                for name, text in zip(header, row)]
        if header == PATHS_HEADER_DB:
            where = f"{path}: row {rownum}: field"
            if not math.isfinite(vals[1]):
                raise ValueError(f"{where} 'phase_deg' {vals[1]} must be finite")
            try:
                mag = 10.0 ** (vals[0] / 20.0)
            except OverflowError:
                mag = math.inf
            if not math.isfinite(mag):
                raise ValueError(f"{where} 'gain_db' {vals[0]} must give a finite "
                                 "linear gain")
            gain = mag * complex(math.cos(math.radians(vals[1])),
                                 math.sin(math.radians(vals[1])))
        else:
            gain = complex(vals[0], vals[1])
        aod, aoa = vals[3], vals[4]
        try:
            if degrees:
                aod = spatial_frequency(aod)
                aoa = spatial_frequency(aoa)
            paths.append(PathParams(gain=gain, delay=vals[2], aod=aod, aoa=aoa))
            if config is not None:
                _check_delay(config, vals[2])
        except ValueError as err:
            raise ValueError(f"{path}: row {rownum}: {err}") from None
    return paths


# ---------------------------------------------------------------------------
# binary tensors


def _check_finite(path, stacked: np.ndarray) -> None:
    "Raise ValueError naming the first (rx, tx, freq) entry that is not finite."
    bad = ~np.isfinite(stacked).all(axis=-1)
    if bad.any():
        rx, tx, freq = (int(k) for k in np.argwhere(bad)[0])
        raise ValueError(f"{path}: non-finite tensor entry at (rx, tx, freq) = "
                         f"({rx}, {tx}, {freq})")


def save_tensor(path, response: FrequencyResponse) -> None:
    "Write a response tensor; ValueError, before any write, on a non-finite entry."
    values = response.values
    stacked = np.stack([values.real, values.imag], axis=-1).astype("<f8", copy=False)
    _check_finite(path, stacked)
    with _atomic_open(path, binary=True) as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(np.array(values.shape, dtype="<u8").tobytes())
        fh.write(stacked.tobytes())


def load_tensor(path) -> np.ndarray:
    """Read a frequency-response tensor file back into a complex array.

    Raises ValueError for a bad header, a size that does not match the
    header, or a non-finite entry (naming its first (rx, tx, freq) index).
    """
    buf = Path(path).read_bytes()
    if len(buf) < 32 or buf[:8] != TENSOR_MAGIC:
        raise ValueError(f"{path}: not a response tensor file (bad magic)")
    dims = np.frombuffer(buf, dtype="<u8", count=3, offset=8)
    n_rx, n_tx, n_freq = (int(d) for d in dims)
    expected = 32 + n_rx * n_tx * n_freq * 16
    if len(buf) != expected:
        raise ValueError(f"{path}: truncated tensor: {len(buf)} bytes, "
                         f"expected {expected}")
    stacked = np.frombuffer(buf, dtype="<f8", offset=32).reshape(n_rx, n_tx, n_freq, 2)
    _check_finite(path, stacked)
    # a copy of the pairs as complex numbers keeps every bit, the signs of zeros too
    return stacked.view("<c16")[..., 0].astype(complex)


def load_response(path, config: SounderConfig) -> FrequencyResponse:
    values = load_tensor(path)
    expected = (config.n_rx, config.n_tx, config.n_freq)
    if values.shape != expected:
        raise ValueError(f"{path}: tensor shape {values.shape} does not match "
                         f"config {expected}")
    return FrequencyResponse(values=values, config=config)


# ---------------------------------------------------------------------------
# stage reports and plot data


def save_kv_report(path, entries: dict) -> None:
    "Write an ordered key = value report; values are formatted deterministically."
    _write_text(path, "\n".join(_kv_lines(entries)) + "\n")


def load_kv_report(path) -> dict[str, str]:
    return parse_kv_file(path)


def save_trace_csv(path, trace: ExtractionTrace) -> None:
    """Residual trace as (commit_index, residual_power_db).

    Power is in dB relative to the initial residual power, so the first row
    of a useful run is negative and the sequence is non-increasing.
    """
    rows = []
    for idx, power in enumerate(trace.residual_power, start=1):
        ratio = power / trace.initial_power if trace.initial_power else 0.0
        db = 10.0 * math.log10(ratio) if ratio > 0 else float("-inf")
        rows.append([idx, _fmt(db)])
    _write_csv(path, TRACE_HEADER, rows)


def load_trace_csv(path) -> list[tuple[int, float]]:
    _, rows = _read_csv(path, [TRACE_HEADER])
    return [tuple(_parse(kind, text, f"{path}: row {rownum}: field '{name}'")
                  for kind, name, text in zip((int, float), TRACE_HEADER, row))
            for rownum, row in rows]


def save_pairs_csv(path, result: AssociationResult) -> None:
    "Per-pair association errors in resolution bins (signed, truth minus estimate)."
    _write_csv(path, PAIRS_HEADER, (
        [i, j, _fmt(cost)] + [_fmt(e) for e in errors]
        + [int(i in result.bin_sets.joint)]
        for (i, j, cost), errors in zip(result.pairs, result.pair_errors)))


def load_pairs_csv(path, n_phys: int, n_est: int) -> list[list[str]]:
    """Rows of a pairs CSV as text, without the header.

    Raises ValueError naming the file, row and column of a ``phys_idx`` that
    is not an index into ``n_phys`` truth paths, an ``est_idx`` not an index
    into ``n_est`` estimates, or a ``cost`` that is not a number.
    """
    _, rows = _read_csv(path, [PAIRS_HEADER])
    for rownum, row in rows:
        for col, count in ((0, n_phys), (1, n_est)):
            if not (row[col].isdecimal() and int(row[col]) < count):
                raise ValueError(f"{path}: row {rownum}: field '{PAIRS_HEADER[col]}': "
                                 f"'{row[col]}' is not an index below {count}")
        _parse(float, row[2], f"{path}: row {rownum}: field 'cost'")
    return [row for _, row in rows]


def save_axis_errors_csv(path, pair_rows: list[list[str]]) -> None:
    "The per-axis error columns of pairs CSV rows, copied as text."
    _write_csv(path, ["phys_idx", "delay_err_bins", "aoa_err_bins", "aod_err_bins"],
               ([row[0], row[3], row[4], row[5]] for row in pair_rows))


def save_association_report(path, result: AssociationResult, n_phys: int,
                            n_est: int, unmatched_cost: float) -> None:
    save_kv_report(path, {
        "n_phys": n_phys,
        "n_est": n_est,
        "unmatched_cost": unmatched_cost,
        "k_pa": result.k_pa,
        "pre_pa_cost": result.pre_pa_cost,
        "post_pa_cost": result.post_pa_cost,
        "s_tau": len(result.bin_sets.delay),
        "s_aoa": len(result.bin_sets.aoa),
        "s_aod": len(result.bin_sets.aod),
        "s_joint": len(result.bin_sets.joint),
        "unmatched_phys": len(result.unmatched_phys),
        "unmatched_est": len(result.unmatched_est),
    })


def save_scatter_csv(path, paths: list[PathParams]) -> None:
    "Path geometry and power for scatter plots."
    _write_csv(path, ["idx", "delay_s", "aoa_cycles", "aod_cycles", "power_db"], (
        [idx, _fmt(p.delay), _fmt(p.aoa), _fmt(p.aod),
         _fmt(10.0 * math.log10(p.power) if p.power > 0 else float("-inf"))]
        for idx, p in enumerate(paths)))


def save_associated_scatter_csv(path, pairs: list[tuple[int, int, float]],
                                phys: list[PathParams],
                                est: list[PathParams]) -> None:
    "Matched truth-estimate coordinates for overlay plots, one row per pair."
    _write_csv(path, ["phys_idx", "est_idx", "phys_delay_s", "est_delay_s",
                      "phys_aoa_cycles", "est_aoa_cycles",
                      "phys_aod_cycles", "est_aod_cycles", "cost"], (
        [i, j] + [_fmt(v) for v in (phys[i].delay, est[j].delay, phys[i].aoa,
                                     est[j].aoa, phys[i].aod, est[j].aod, cost)]
        for i, j, cost in pairs))


def save_matrix_csv(path, row_name: str, row_axis: np.ndarray,
                    col_axis: np.ndarray, matrix: np.ndarray) -> None:
    """Real matrix as CSV: header row holds the column-axis coordinates,
    first column the row-axis coordinate.  The values are floats, each
    written by ``repr`` as ``_fmt`` writes it, a row as one join (no field
    of a float needs quoting); ValueError for a value that is not a number."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (len(row_axis), len(col_axis)):
        raise ValueError(f"matrix shape {matrix.shape} does not match axes "
                         f"({len(row_axis)}, {len(col_axis)})")
    with _atomic_open(path) as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            [row_name] + [_fmt(c) for c in col_axis])
        fh.writelines(",".join([_fmt(r)] + list(map(repr, row))) + "\n"
                      for r, row in zip(row_axis, matrix.tolist()))


def copy_artifact(src, dst) -> None:
    "Copy the bytes of ``src`` to ``dst``."
    with _atomic_open(dst, binary=True) as fh:
        fh.write(Path(src).read_bytes())


def load_timings(path) -> dict:
    """The run's timing sidecar as a dict, empty if the file does not exist;
    ValueError naming the file if it is not a JSON object."""
    p = Path(path)
    if not p.exists():
        return {}
    try:
        timings = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{p}: not valid JSON: {exc}") from None
    if not isinstance(timings, dict):
        raise ValueError(f"{p}: holds {type(timings).__name__}, not a JSON object")
    return timings


def save_timings(path, timings: dict[str, float | int | str | None]) -> None:
    """Merge stage wall-times, counts and machine facts into the run's timing
    sidecar (not deterministic)."""
    merged = load_timings(path) | timings
    _write_text(Path(path), json.dumps(merged, indent=2, sort_keys=True) + "\n")
