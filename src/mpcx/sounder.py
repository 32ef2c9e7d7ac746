"""Idealized MIMO sounder forward model.

Synthesizes the spatial frequency response of a static multipath channel
measured by uniform linear arrays at TX and RX, plus the critically sampled
angle-delay (virtual) representation and measurement noise.

Conventions used throughout the package:

* Angles are spatial frequencies in cycles, range [-0.5, 0.5] at critical
  (half-wavelength) element spacing.
* The steering vector element m is exp(+j*2*pi*theta*m); the TX side of the
  channel enters through its conjugate.
* The frequency axis is a uniform n_freq-point grid on [-W/2, +W/2) and all
  frequency integrals are replaced by sample means over that grid.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .pool import run_blocks


@dataclass(frozen=True)
class PathParams:
    """One multipath component: complex gain, delay and angle parameters.

    Parameters
    ----------
    gain : complex
        Linear complex path amplitude, finite, with a finite power |gain|^2.
    delay : float
        Propagation delay in seconds, finite and >= 0.
    aod : float
        Angle of departure as a spatial frequency in cycles, in [-0.5, 0.5].
    aoa : float
        Angle of arrival as a spatial frequency in cycles, in [-0.5, 0.5].
    """

    gain: complex
    delay: float
    aod: float
    aoa: float

    def __post_init__(self):
        try:
            power = self.power
        except OverflowError:
            power = math.inf
        if not math.isfinite(power):
            raise ValueError(f"gain {self.gain} must be finite, with a finite power")
        if not -0.5 <= self.aod <= 0.5:
            raise ValueError(f"aod {self.aod} outside [-0.5, 0.5] cycles")
        if not -0.5 <= self.aoa <= 0.5:
            raise ValueError(f"aoa {self.aoa} outside [-0.5, 0.5] cycles")
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise ValueError(f"delay {self.delay} must be finite and >= 0")

    @property
    def power(self) -> float:
        return abs(self.gain) ** 2


def _positive_int(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is a positive integer: a
    Python or numpy integer, not a bool."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 1):
        raise ValueError(f"{name} {value!r} must be a positive integer")


@dataclass(frozen=True)
class SounderConfig:
    """Array sizes and sampling parameters of the idealized sounder.

    ``carrier_hz`` only documents the physical-angle mapping; it enters no
    computation here.
    """

    n_tx: int
    n_rx: int
    bandwidth_hz: float
    n_freq: int
    carrier_hz: float = 28e9

    def __post_init__(self):
        for name in ("n_tx", "n_rx", "n_freq"):
            _positive_int(name, getattr(self, name))
        if not (math.isfinite(self.bandwidth_hz) and self.bandwidth_hz > 0):
            raise ValueError(f"bandwidth_hz {self.bandwidth_hz} must be finite "
                             "and positive")
        if not (math.isfinite(self.carrier_hz) and self.carrier_hz > 0):
            raise ValueError(f"carrier_hz {self.carrier_hz} must be finite "
                             "and positive")

    @property
    def delay_res(self) -> float:
        "Delay resolution 1/W in seconds."
        return 1.0 / self.bandwidth_hz

    @property
    def aod_res(self) -> float:
        "TX spatial-frequency resolution 1/n_tx in cycles."
        return 1.0 / self.n_tx

    @property
    def aoa_res(self) -> float:
        "RX spatial-frequency resolution 1/n_rx in cycles."
        return 1.0 / self.n_rx

    @property
    def duration(self) -> float:
        "Observation duration T = n_freq / W in seconds."
        return self.n_freq / self.bandwidth_hz

    @property
    def freq_grid(self) -> np.ndarray:
        "Uniform baseband frequency samples on [-W/2, +W/2)."
        w = self.bandwidth_hz
        return -w / 2.0 + np.arange(self.n_freq) * (w / self.n_freq)


@dataclass(frozen=True)
class FrequencyResponse:
    """Complex response tensor indexed (rx antenna, tx antenna, frequency sample)."""

    values: np.ndarray
    config: SounderConfig

    def __post_init__(self):
        expected = (self.config.n_rx, self.config.n_tx, self.config.n_freq)
        if self.values.shape != expected:
            raise ValueError(
                f"response shape {self.values.shape} does not match config {expected}"
            )

    @property
    def freq_grid(self) -> np.ndarray:
        return self.config.freq_grid

    @property
    def power(self) -> float:
        """Total squared Frobenius power summed over all tensor entries
        (``_sum_squares``); inf, without a warning, when it overflows the
        float range."""
        return _sum_squares(self.values)


def _sum_squares(values: np.ndarray) -> float:
    """sum |v|^2 over a complex array: one real dot of its float view with
    itself, so no magnitude temporary is made.  Every term is a non-negative
    square, so a sum past the float range is inf, without a warning, and
    only a NaN entry makes NaN (``np.vdot`` of a complex array can make NaN
    of an overflow, as inf - inf in its cross terms)."""
    flat = np.ascontiguousarray(values, dtype=complex).reshape(-1).view(float)
    with np.errstate(over="ignore"):
        return float(np.dot(flat, flat))


@dataclass(frozen=True)
class VirtualCoefficients:
    """Angle-delay channel coefficients on the critical resolution lattice.

    ``values[i, k, l]`` is the coefficient at RX spatial frequency i/n_rx,
    TX spatial frequency k/n_tx and delay l/W, for l = 0..L.
    """

    values: np.ndarray
    L: int


def resolvable_delays(tau_max: float, bandwidth_hz: float) -> int:
    """Number of resolvable delays L = ceil(tau_max * W).

    A small downward nudge guards against float noise pushing an exact
    integer product over the next ceiling.
    """
    x = tau_max * bandwidth_hz
    return int(math.ceil(x - 1e-9 * max(1.0, abs(x))))


def spatial_frequency(phi_deg):
    """Map a physical angle (degrees from broadside) to spatial frequency in cycles.

    theta = (d / lambda) * sin(phi) at critical spacing d/lambda = 0.5, so
    the result lies in [-0.5, 0.5].
    """
    phi = np.asarray(phi_deg, dtype=float)
    if np.any(phi < -90.0) or np.any(phi > 90.0):
        raise ValueError("physical angle must lie in [-90, 90] degrees")
    out = 0.5 * np.sin(np.deg2rad(phi))
    return float(out) if np.isscalar(phi_deg) else out


def _steering_matrices(
    config: SounderConfig, delays, aods, aoas
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis steering matrices of K path geometries, synthesis convention.

    Returns ``a_rx`` [n_rx x K] with entries exp(+j2pi*aoa_k*r), ``a_tx``
    [n_tx x K] with exp(-j2pi*aod_k*t) and ``a_f`` [n_freq x K] with
    exp(-j2pi*delay_k*f_m).  The unit-gain atom of path k is
    ``a_rx[:, k] (x) a_tx[:, k] (x) a_f[:, k]``.
    """
    a_rx = np.exp(2j * np.pi * np.outer(np.arange(config.n_rx), aoas))
    a_tx = np.exp(-2j * np.pi * np.outer(np.arange(config.n_tx), aods))
    a_f = np.exp(-2j * np.pi * np.outer(config.freq_grid, delays))
    return a_rx, a_tx, a_f


def _matched_filter(
    values: np.ndarray, a_rx: np.ndarray, a_tx: np.ndarray, a_f: np.ndarray
) -> np.ndarray:
    """Inner products of the K atoms of ``_steering_matrices`` with a
    response tensor: entry k is sum_{r,t,m} conj(atom_k[r,t,m]) * values[r,t,m]
    (the adjoint of synthesis, A^H h).

    Evaluated one rx row at a time: besides the conjugated steering
    matrices, the only temporary is one [n_tx x K] product per row, never
    an [n_rx*n_tx x K] one.
    """
    conj_tx = a_tx.conj()
    conj_f = a_f.conj()
    rows = np.empty(a_rx.shape, dtype=complex)
    for r in range(values.shape[0]):
        np.einsum("tk,tk->k", conj_tx, values[r] @ conj_f, out=rows[r])
    return np.einsum("rk,rk->k", a_rx.conj(), rows)


def _check_delay(config: SounderConfig, delay: float) -> None:
    "ValueError if ``delay`` aliases on the sampled frequency grid (>= T)."
    if delay >= config.duration:
        raise ValueError(f"delay {delay!r} s is outside the unambiguous span "
                         f"{config.duration!r} s")


# paths per block of synthesis: the block's steering matrices stay small next
# to the response tensor however many paths there are
_SYNTH_CHUNK = 64


def synthesize_response(config: SounderConfig, paths: list[PathParams]) -> FrequencyResponse:
    """Generate the sounder's spatial frequency response for a set of paths.

    values[r, t, k] = sum_n gain_n * exp(+j2pi*aoa_n*r) * exp(-j2pi*aod_n*t)
                            * exp(-j2pi*delay_n*f_k)

    evaluated from the steering matrices of ``_steering_matrices``, for
    blocks of up to ``_SYNTH_CHUNK`` paths, as one [n_tx x K] by
    [K x n_freq] product per rx row accumulated into the output, so no
    temporary is tensor-sized or grows with the number of paths.  The
    superposition is linear in the path list; an empty list yields the
    all-zero response.

    Raises
    ------
    ValueError
        If any path delay is >= the observation duration T (such a delay
        aliases on the sampled frequency grid).
    """
    for p in paths:
        _check_delay(config, p.delay)
    values = np.zeros((config.n_rx, config.n_tx, config.n_freq), dtype=complex)
    # by delay, so that the paths of a block that share one are contiguous
    paths = sorted(paths, key=lambda p: p.delay)
    for k0 in range(0, len(paths), _SYNTH_CHUNK):
        chunk = paths[k0:k0 + _SYNTH_CHUNK]
        delays = np.array([p.delay for p in chunk])
        # the first path of each distinct delay
        starts = np.flatnonzero(np.diff(delays, prepend=-1.0))
        a_rx, a_tx, a_f = _steering_matrices(config, delays[starts],
                                             [p.aod for p in chunk],
                                             [p.aoa for p in chunk])
        weighted_rx = a_rx * np.array([p.gain for p in chunk])
        shared = len(starts) < len(chunk)
        for r in range(config.n_rx):
            columns = a_tx * weighted_rx[r]
            if shared:
                columns = np.add.reduceat(columns, starts, axis=1)
            values[r] += columns @ a_f.T
        # free this block's matrices before the next block's are built
        del a_rx, a_tx, a_f, weighted_rx, columns
    return FrequencyResponse(values=values, config=config)


def add_awgn(
    response: FrequencyResponse, noise_power_per_sample: float, seed: int
) -> FrequencyResponse:
    """Add independent circular complex Gaussian noise to every tensor entry.

    ``noise_power_per_sample`` is the variance of each complex entry (real and
    imaginary parts each carry half of it).  Output is deterministic for a
    fixed seed.
    """
    if noise_power_per_sample < 0:
        raise ValueError("noise power must be >= 0")
    if noise_power_per_sample == 0:
        return FrequencyResponse(values=response.values.copy(), config=response.config)
    rng = np.random.default_rng(seed)
    shape = response.values.shape
    sigma = math.sqrt(noise_power_per_sample / 2.0)
    noise = sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return FrequencyResponse(values=response.values + noise, config=response.config)


# AoA rows per block of ``_separable_transform``'s AoA product.  Each block
# reads all of ``lines``, so larger blocks cost less (at paper size 14 rows
# take 10% less CPU time than 8), and a span that keeps nothing holds one
# block's rows (7 MB at paper oversampling 4, whose 140 AoA rows fall into
# 10 blocks that two spans share evenly)
_RX_BLOCK = 14

# (rx, AoD) lines per block of ``_separable_transform``'s delay product, at
# least one rx row's: 3 rx rows at paper size, so the 35 rx rows fall into 12
# blocks that two spans share evenly
_LINE_BLOCK = 128

# complex multiply-adds that weigh as one grid entry when a stage of the
# transform is sized for ``pool.run_blocks``.  Both stages split at paper
# oversampling 4; at oversampling 1 the delay stage (76 M of them) stays on
# the calling thread, where a span thread's BLAS buffers cost 3 MB of peak
# RSS for a 15 ms product
_MADDS_PER_ENTRY = 64


def _separable_transform(
    values: np.ndarray, m_rx: np.ndarray | None, m_tx: np.ndarray, m_f: np.ndarray,
    each_block: Callable[[], Callable[[int, np.ndarray], None]] | None = None,
    keep: bool = True,
) -> np.ndarray | None:
    """out[i, k, l] = sum_{r,t,m} m_rx[i, r] m_tx[k, t] values[r, t, m] m_f[m, l],
    applied AoD first, then delay, for blocks of rx rows (``_LINE_BLOCK``
    lines of n_freq values) into the n_rx x n_aod x n_delay ``lines``, then
    AoA for a block of ``_RX_BLOCK`` output rows into the preallocated
    result, so no output-sized temporary is made.  With the stored rows of
    a grid's AoD matrix, which is square, the delay and AoA products run on
    n_tx AoD rows, and ``lines`` is n_rx*n_tx*n_freq*os_delay values.

    Each stage runs its blocks in spans of whole blocks on
    ``pool.run_blocks``, sized by its multiply-adds (``_MADDS_PER_ENTRY``).
    Block shapes do not depend on the split, so every entry gets the same
    bits in any split.  With ``each_block``, every span calls it once, from
    its thread, and passes each block of its output rows to the function it
    returns as ``(first row, rows)``, [b x n_aod x n_delay], once they are
    made.  Without ``keep`` the rows are made in the span's buffer, nothing
    is kept and None is returned.  Without ``m_rx`` (None) there is no AoA
    product, and ``lines`` is returned."""
    n_rx, n_tx, n_freq = values.shape
    n_aod, n_out = len(m_tx), m_f.shape[1]
    lines = np.empty((n_rx, n_aod, n_out), dtype=complex)
    rx_rows = max(1, _LINE_BLOCK // n_aod)

    # an inf value makes NaNs (inf times 0): not finite either way, and named
    # by the scan of the result; the error state is per thread, so each span
    # sets it
    def delay(start: int, stop: int) -> None:
        with np.errstate(invalid="ignore"):
            for r0 in range(start, stop, rx_rows):
                b = min(rx_rows, stop - r0)
                aod_first = np.matmul(m_tx, values[r0:r0 + b])
                np.matmul(aod_first.reshape(b * n_aod, n_freq), m_f,
                          out=lines[r0:r0 + b].reshape(b * n_aod, n_out))

    run_blocks(delay, n_rx, rx_rows,
               n_aod * (n_tx + n_out) * n_freq // _MADDS_PER_ENTRY)
    if m_rx is None:
        return lines
    n_aoa = len(m_rx)
    lines = lines.reshape(n_rx, n_aod * n_out)
    out = np.empty((n_aoa, n_aod, n_out), dtype=complex) if keep else None

    def transform(start: int, stop: int) -> None:
        hook = each_block() if each_block else None
        buf = None if keep else np.empty((_RX_BLOCK, n_aod, n_out), dtype=complex)
        with np.errstate(invalid="ignore"):
            for first in range(start, stop, _RX_BLOCK):
                b = min(_RX_BLOCK, stop - first)
                rows = out[first:first + b] if keep else buf[:b]
                np.matmul(m_rx[first:first + b], lines, out=rows.reshape(b, -1))
                if hook:
                    hook(first, rows)

    run_blocks(transform, n_aoa, _RX_BLOCK, n_rx * n_aod * n_out // _MADDS_PER_ENTRY)
    return out


def _lattice_matrices(
    config: SounderConfig, delays, aods, aoas
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis matrices of the matched filter divided by n_rx*n_tx*n_freq on
    the separable (aoa, aod, delay) lattice of the given axes, in the argument
    order of ``_separable_transform``: the conjugated ``_steering_matrices``,
    rx [n_aoa x n_rx] carrying the 1/(n_rx*n_tx*n_freq), tx [n_aod x n_tx]
    and delay [n_freq x n_delay] (the largest, conjugated in place)."""
    a_rx, a_tx, a_f = _steering_matrices(config, delays, aods, aoas)
    return (a_rx.T.conj() / (config.n_rx * config.n_tx * config.n_freq),
            a_tx.T.conj(), np.conjugate(a_f, out=a_f))


def virtual_coefficients(response: FrequencyResponse, tau_max: float) -> VirtualCoefficients:
    """Angle-delay coefficients of a response on the critical lattice.

    Evaluates, for i = 0..n_rx-1, k = 0..n_tx-1, l = 0..L,

    Hv[i, k, l] = (1 / (n_rx*n_tx*n_freq)) *
        sum_{r,t,m} conj(a_rx(i/n_rx))_r * H[r,t,m] * a_tx(k/n_tx)_t
                    * exp(+j2pi*(l/W)*f_m)

    which is the frequency integral of the sampled representation replaced by
    the uniform sample mean: the beamspace transform evaluated on the
    critical lattice (i/n_rx, k/n_tx, l/W) instead of the oversampled one.
    """
    cfg = response.config
    if not 0 <= tau_max <= cfg.duration:
        raise ValueError(f"tau_max {tau_max} outside [0, duration {cfg.duration}]")
    L = resolvable_delays(tau_max, cfg.bandwidth_hz)
    values = _separable_transform(response.values, *_lattice_matrices(
        cfg, np.arange(L + 1) / cfg.bandwidth_hz, np.arange(cfg.n_tx) / cfg.n_tx,
        np.arange(cfg.n_rx) / cfg.n_rx))
    return VirtualCoefficients(values=values, L=L)


def reconstruct_from_virtual(
    coeffs: VirtualCoefficients, config: SounderConfig
) -> FrequencyResponse:
    """Evaluate the sampled (virtual) representation back on the frequency grid.

    Inverse of :func:`virtual_coefficients` for channels supported on the
    critical lattice: the lattice atoms of ``_steering_matrices``, unconjugated,
    applied by ``_separable_transform``.
    """
    v = coeffs.values
    if v.ndim != 3 or v.shape[0] != config.n_rx or v.shape[1] != config.n_tx:
        raise ValueError(
            f"coefficient shape {v.shape} inconsistent with config "
            f"({config.n_rx}, {config.n_tx}, L+1)"
        )
    if v.shape[2] > config.n_freq:
        raise ValueError("more delay taps than frequency samples")
    n_rx, n_tx, n_l = v.shape
    # lattice atoms: rx basis [r, i], tx basis [t, k], delay basis [m, l]
    basis_rx, basis_tx, basis_f = _steering_matrices(
        config, np.arange(n_l) / config.bandwidth_hz,
        np.arange(n_tx) / n_tx, np.arange(n_rx) / n_rx)
    values = _separable_transform(v, basis_rx, basis_tx, basis_f.T)
    return FrequencyResponse(values=values, config=config)


def signal_space_dimension(config: SounderConfig) -> int:
    "Dimension of the space-frequency measurement space, n_tx * n_rx * n_freq."
    return config.n_tx * config.n_rx * config.n_freq


def filter_by_dynamic_range(paths: list[PathParams], dr_db: float) -> list[PathParams]:
    """Keep paths whose power is within ``dr_db`` of the strongest path.

    Retains exactly the paths with |gain|^2 >= max_power / 10^(dr_db/10),
    preserving input order.
    """
    if not paths:
        raise ValueError("path list must be non-empty")
    if dr_db <= 0:
        raise ValueError("dynamic range must be positive (dB)")
    powers = np.array([p.power for p in paths])
    threshold = powers.max() / 10.0 ** (dr_db / 10.0)
    return [p for p, pw in zip(paths, powers) if pw >= threshold]
