"""Persisted file formats for pipeline runs.

Formats, all documented here and stable:

- Path-list CSV, header ``gain_real,gain_imag,delay_s,aod_cycles,aoa_cycles``;
  the alternate header ``gain_db,phase_deg,delay_s,aod_cycles,aoa_cycles`` is
  accepted and converted on load (magnitude 10^(dB/20), phase in degrees).
- Frequency-response tensor: magic ``MPXTEN01``, three little-endian uint64
  dimensions (rx, tx, freq), then interleaved (real, imag) float64 pairs in
  row-major (rx, tx, freq) order.
- Beamspace grid tensor: magic ``MPXGRD01``, three uint64 dimensions, the
  three float64 axis-coordinate arrays, then interleaved values as above.
- Flat ``key = value`` text for sounder configs, scenario specs, and stage
  reports; ``#`` starts a comment line.
- Plot data as headed CSV (scatters, residual trace, per-pair errors, and
  power-map matrices whose header row carries the column-axis coordinates).

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
import json
import math
import os
from pathlib import Path

import numpy as np

from .assoc import AssociationResult, ResolutionSpec, wrap_cycles
from .beamspace import BeamspaceGrid
from .extract import ExtractionTrace
from .scenario import ScenarioSpec
from .sounder import FrequencyResponse, PathParams, SounderConfig, spatial_frequency

TENSOR_MAGIC = b"MPXTEN01"
GRID_MAGIC = b"MPXGRD01"

PATHS_HEADER = ["gain_real", "gain_imag", "delay_s", "aod_cycles", "aoa_cycles"]
PATHS_HEADER_DB = ["gain_db", "phase_deg", "delay_s", "aod_cycles", "aoa_cycles"]

CONFIG_PRESETS = {
    "paper": dict(n_tx=35, n_rx=35, bandwidth_hz=1.0e9, n_freq=233, carrier_hz=28.0e9),
    "desk": dict(n_tx=8, n_rx=8, bandwidth_hz=1.0e9, n_freq=32, carrier_hz=28.0e9),
}


def _fmt(x) -> str:
    "Deterministic shortest round-trip text for a number."
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


def _coerce(fields: dict[str, str], key: str, kind, path, required=True, default=None):
    if key not in fields:
        if required:
            raise ValueError(f"{path}: missing required key '{key}'")
        return default
    raw = fields.pop(key)
    try:
        if kind is int:
            return int(raw)
        return float(raw)
    except ValueError:
        name = "integer" if kind is int else "number"
        raise ValueError(f"{path}: field '{key}': invalid {name} '{raw}'") from None


def load_sounder_config(source) -> SounderConfig:
    """Load a sounder config from a preset name ('paper', 'desk') or file."""
    if isinstance(source, str) and source in CONFIG_PRESETS:
        return SounderConfig(**CONFIG_PRESETS[source])
    fields = parse_kv_file(source)
    kwargs = dict(
        n_tx=_coerce(fields, "n_tx", int, source),
        n_rx=_coerce(fields, "n_rx", int, source),
        bandwidth_hz=_coerce(fields, "bandwidth_hz", float, source),
        n_freq=_coerce(fields, "n_freq", int, source),
        carrier_hz=_coerce(fields, "carrier_hz", float, source,
                           required=False, default=28.0e9),
    )
    if fields:
        raise ValueError(f"{source}: unknown keys: {', '.join(sorted(fields))}")
    return SounderConfig(**kwargs)


def save_sounder_config(path, config: SounderConfig) -> None:
    lines = [
        f"n_tx = {config.n_tx}",
        f"n_rx = {config.n_rx}",
        f"bandwidth_hz = {_fmt(config.bandwidth_hz)}",
        f"n_freq = {config.n_freq}",
        f"carrier_hz = {_fmt(config.carrier_hz)}",
    ]
    _write_text(path, "\n".join(lines) + "\n")


_SCENARIO_FLOAT_KEYS = (
    "delay_center_min_s", "delay_center_max_s", "delay_spread_s",
    "angle_center_min", "angle_center_max", "angle_spread",
    "cluster_decay_db", "path_spread_db", "dynamic_range_db",
)


def load_scenario_spec(path) -> ScenarioSpec:
    "Load a scenario spec file; unrecognized or malformed keys are rejected."
    fields = parse_kv_file(path)
    kwargs = dict(
        n_clusters=_coerce(fields, "n_clusters", int, path),
        paths_per_cluster=_coerce(fields, "paths_per_cluster", int, path),
        seed=_coerce(fields, "seed", int, path),
    )
    defaults = ScenarioSpec(n_clusters=1, paths_per_cluster=1, seed=0)
    for key in _SCENARIO_FLOAT_KEYS:
        kwargs[key] = _coerce(fields, key, float, path,
                              required=False, default=getattr(defaults, key))
    if fields:
        raise ValueError(f"{path}: unknown keys: {', '.join(sorted(fields))}")
    return ScenarioSpec(**kwargs)


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
        f"n_clusters = {spec.n_clusters}",
        f"paths_per_cluster = {spec.paths_per_cluster}",
        f"seed = {spec.seed}",
    ]
    lines += [f"{key} = {_fmt(getattr(spec, key))}" for key in _SCENARIO_FLOAT_KEYS]
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# path-list CSV


def save_paths_csv(path, paths: list[PathParams]) -> None:
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PATHS_HEADER)
        for p in paths:
            writer.writerow([
                _fmt(p.gain.real), _fmt(p.gain.imag),
                _fmt(p.delay), _fmt(p.aod), _fmt(p.aoa),
            ])


def _parse_row_field(row, col_idx, name, path, rownum) -> float:
    try:
        return float(row[col_idx])
    except ValueError:
        raise ValueError(
            f"{path}: row {rownum}: field '{name}': invalid number '{row[col_idx]}'"
        ) from None


def load_paths_csv(path, degrees: bool = False) -> list[PathParams]:
    """Read a path-list CSV in either accepted schema.

    With ``degrees=True`` the angle columns hold physical angles in degrees
    and are converted to spatial-frequency cycles on load.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if header == PATHS_HEADER:
            db_form = False
        elif header == PATHS_HEADER_DB:
            db_form = True
        else:
            missing = [c for c in PATHS_HEADER if c not in header]
            raise ValueError(
                f"{path}: unrecognized header {header}; expected {PATHS_HEADER} "
                f"or {PATHS_HEADER_DB} (missing columns: {missing or 'none'})"
            )
        paths: list[PathParams] = []
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(f"{path}: row {rownum}: expected 5 fields, "
                                 f"got {len(row)}")
            vals = [_parse_row_field(row, i, header[i], path, rownum)
                    for i in range(5)]
            if db_form:
                mag = 10.0 ** (vals[0] / 20.0)
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
            except ValueError as err:
                raise ValueError(f"{path}: row {rownum}: {err}") from None
    return paths


# ---------------------------------------------------------------------------
# binary tensors


def _interleave(values: np.ndarray) -> bytes:
    stacked = np.empty(values.shape + (2,), dtype="<f8")
    stacked[..., 0] = values.real
    stacked[..., 1] = values.imag
    return stacked.tobytes()


def save_tensor(path, response: FrequencyResponse) -> None:
    dims = np.array(response.values.shape, dtype="<u8")
    with _atomic_open(path, binary=True) as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(dims.tobytes())
        fh.write(_interleave(response.values))


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
    flat = np.frombuffer(buf, dtype="<f8", offset=32)
    stacked = flat.reshape(n_rx, n_tx, n_freq, 2)
    bad = ~np.isfinite(stacked).all(axis=-1)
    if bad.any():
        rx, tx, freq = (int(k) for k in np.argwhere(bad)[0])
        raise ValueError(f"{path}: non-finite tensor entry at (rx, tx, freq) = "
                         f"({rx}, {tx}, {freq})")
    return stacked[..., 0] + 1j * stacked[..., 1]


def load_response(path, config: SounderConfig) -> FrequencyResponse:
    values = load_tensor(path)
    expected = (config.n_rx, config.n_tx, config.n_freq)
    if values.shape != expected:
        raise ValueError(f"{path}: tensor shape {values.shape} does not match "
                         f"config {expected}")
    return FrequencyResponse(values=values, config=config)


def save_grid(path, grid: BeamspaceGrid) -> None:
    "Persist a beamspace grid with its three axis-coordinate arrays."
    dims = np.array(grid.values.shape, dtype="<u8")
    with _atomic_open(path, binary=True) as fh:
        fh.write(GRID_MAGIC)
        fh.write(dims.tobytes())
        fh.write(np.asarray(grid.aoa_axis, dtype="<f8").tobytes())
        fh.write(np.asarray(grid.aod_axis, dtype="<f8").tobytes())
        fh.write(np.asarray(grid.delay_axis, dtype="<f8").tobytes())
        fh.write(_interleave(grid.values))


def load_grid(path) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    "Read a grid file; returns (values, (aoa_axis, aod_axis, delay_axis))."
    buf = Path(path).read_bytes()
    if len(buf) < 32 or buf[:8] != GRID_MAGIC:
        raise ValueError(f"{path}: not a beamspace grid file (bad magic)")
    dims = np.frombuffer(buf, dtype="<u8", count=3, offset=8)
    d0, d1, d2 = (int(d) for d in dims)
    off = 32
    axes = []
    for d in (d0, d1, d2):
        axes.append(np.frombuffer(buf, dtype="<f8", count=d, offset=off).copy())
        off += 8 * d
    expected = off + d0 * d1 * d2 * 16
    if len(buf) != expected:
        raise ValueError(f"{path}: truncated grid: {len(buf)} bytes, "
                         f"expected {expected}")
    flat = np.frombuffer(buf, dtype="<f8", offset=off)
    stacked = flat.reshape(d0, d1, d2, 2)
    return stacked[..., 0] + 1j * stacked[..., 1], tuple(axes)


# ---------------------------------------------------------------------------
# stage reports and plot data


def save_kv_report(path, entries: dict) -> None:
    "Write an ordered key = value report; values are formatted deterministically."
    lines = []
    for key, value in entries.items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, (int, np.integer)):
            text = str(int(value))
        elif isinstance(value, float):
            text = _fmt(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    _write_text(path, "\n".join(lines) + "\n")


def load_kv_report(path) -> dict[str, str]:
    return parse_kv_file(path)


def save_trace_csv(path, trace: ExtractionTrace) -> None:
    """Residual trace as (commit_index, residual_power_db).

    Power is in dB relative to the initial residual power, so the first row
    of a useful run is negative and the sequence is non-increasing.
    """
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["commit_index", "residual_power_db"])
        for idx, power in enumerate(trace.residual_power, start=1):
            ratio = power / trace.initial_power if trace.initial_power else 0.0
            db = 10.0 * math.log10(ratio) if ratio > 0 else float("-inf")
            writer.writerow([idx, _fmt(db)])


def load_trace_csv(path) -> list[tuple[int, float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["commit_index", "residual_power_db"]:
            raise ValueError(f"{path}: unexpected trace header {header}")
        return [(int(row[0]), float(row[1])) for row in reader if row]


def save_pairs_csv(path, result: AssociationResult, phys: list[PathParams],
                   est: list[PathParams], res: ResolutionSpec) -> None:
    "Per-pair association errors in resolution bins (signed, truth minus estimate)."
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["phys_idx", "est_idx", "cost", "delay_err_bins",
                         "aoa_err_bins", "aod_err_bins", "in_joint"])
        for i, j, cost in result.pairs:
            p, q = phys[i], est[j]
            writer.writerow([
                i, j, _fmt(cost),
                _fmt((p.delay - q.delay) / res.delay_res),
                _fmt(wrap_cycles(p.aoa - q.aoa) / res.aoa_res),
                _fmt(wrap_cycles(p.aod - q.aod) / res.aod_res),
                int(i in result.bin_sets.joint),
            ])


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
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["idx", "delay_s", "aoa_cycles", "aod_cycles", "power_db"])
        for idx, p in enumerate(paths):
            power_db = 10.0 * math.log10(p.power) if p.power > 0 else float("-inf")
            writer.writerow([idx, _fmt(p.delay), _fmt(p.aoa), _fmt(p.aod),
                             _fmt(power_db)])


def save_associated_scatter_csv(path, result: AssociationResult,
                                phys: list[PathParams],
                                est: list[PathParams]) -> None:
    "Matched truth-estimate coordinate pairs for overlay plots."
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["phys_idx", "est_idx",
                         "phys_delay_s", "est_delay_s",
                         "phys_aoa_cycles", "est_aoa_cycles",
                         "phys_aod_cycles", "est_aod_cycles", "cost"])
        for i, j, cost in result.pairs:
            p, q = phys[i], est[j]
            writer.writerow([i, j, _fmt(p.delay), _fmt(q.delay),
                             _fmt(p.aoa), _fmt(q.aoa),
                             _fmt(p.aod), _fmt(q.aod), _fmt(cost)])


def save_matrix_csv(path, row_name: str, row_axis: np.ndarray,
                    col_axis: np.ndarray, matrix: np.ndarray) -> None:
    """Real matrix as CSV: header row holds the column-axis coordinates,
    first column the row-axis coordinate."""
    matrix = np.asarray(matrix)
    if matrix.shape != (len(row_axis), len(col_axis)):
        raise ValueError(f"matrix shape {matrix.shape} does not match axes "
                         f"({len(row_axis)}, {len(col_axis)})")
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([row_name] + [_fmt(c) for c in col_axis])
        for r, row in zip(row_axis, matrix):
            writer.writerow([_fmt(r)] + [_fmt(v) for v in row])


def save_timings(path, timings: dict[str, float]) -> None:
    "Merge stage wall-times into the run's timing sidecar (not deterministic)."
    existing = {}
    p = Path(path)
    if p.exists():
        existing = json.loads(p.read_text(encoding="utf-8"))
    existing.update(timings)
    _write_text(p, json.dumps(existing, indent=2, sort_keys=True) + "\n")
