"""Oversampled angle-delay (beamspace) representation of a measured response.

The transform maps an (rx, tx, frequency) response tensor onto a 3D lattice of
(AoA, AoD, delay) points.  It is the direct separable triple sum, computed as
three steering-matrix products (delay first, then AoA, then AoD); no FFT is
involved.  Its point-spread function separates into a product of three
closed-form kernels, which makes greedy subtraction of a single path exactly
consistent with the transform: subtracting ``single_path_grid`` from
``beamspace_transform`` of that path's synthesized response leaves zero up to
floating-point rounding.

Both kernels are defined as the exact normalized inner products of the
discrete sinusoids, so they carry a linear phase factor in addition to the
familiar real Dirichlet / sinc magnitudes.

All grid-wide work after the transform goes through one blocked kernel,
``peak_sweep``: it subtracts a list of path kernels from the grid, block by
cache-sized block, and finds the peak magnitude of the difference in the same
pass, optionally writing the difference back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sounder import (
    FrequencyResponse,
    PathParams,
    SounderConfig,
    _matched_filter,
    _steering_matrices,
    resolvable_delays,
)


@dataclass(frozen=True)
class GridSpec:
    """Oversampling factors and delay span of the beamspace lattice.

    The AoA axis has ``n_rx * os_aoa`` points uniformly covering [-0.5, 0.5),
    the AoD axis ``n_tx * os_aod`` points likewise, and the delay axis
    ``ceil(delay_span * W) * os_delay`` points covering [0, delay_span).
    ``delay_span`` defaults to the observation duration T.
    """

    os_aoa: int = 4
    os_aod: int = 4
    os_delay: int = 4
    delay_span: float | None = None

    def __post_init__(self):
        if min(self.os_aoa, self.os_aod, self.os_delay) < 1:
            raise ValueError("oversampling factors must be positive integers")
        if self.delay_span is not None and not (
                math.isfinite(self.delay_span) and self.delay_span > 0):
            raise ValueError(f"delay_span {self.delay_span} must be finite and "
                             "positive")

    def span(self, config: SounderConfig) -> float:
        return config.duration if self.delay_span is None else self.delay_span

    def aoa_axis(self, config: SounderConfig) -> np.ndarray:
        n = config.n_rx * self.os_aoa
        return -0.5 + np.arange(n) / n

    def aod_axis(self, config: SounderConfig) -> np.ndarray:
        n = config.n_tx * self.os_aod
        return -0.5 + np.arange(n) / n

    def delay_axis(self, config: SounderConfig) -> np.ndarray:
        n_bins = resolvable_delays(self.span(config), config.bandwidth_hz)
        n = n_bins * self.os_delay
        return np.arange(n) / (config.bandwidth_hz * self.os_delay)


@dataclass(frozen=True)
class BeamspaceGrid:
    """Complex beamspace tensor over (AoA, AoD, delay) lattice points.

    Normalization contract: a single path whose parameters sit exactly on the
    lattice produces its complex gain at the matching grid point.
    """

    values: np.ndarray
    spec: GridSpec
    config: SounderConfig

    @property
    def aoa_axis(self) -> np.ndarray:
        return self.spec.aoa_axis(self.config)

    @property
    def aod_axis(self) -> np.ndarray:
        return self.spec.aod_axis(self.config)

    @property
    def delay_axis(self) -> np.ndarray:
        return self.spec.delay_axis(self.config)

    @property
    def power(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


def angle_kernel(delta_theta, n: int):
    """Normalized steering-vector inner product (exact Dirichlet kernel).

    (1/n) * sum_{m=0}^{n-1} exp(j*2*pi*delta_theta*m)
        = exp(j*pi*(n-1)*delta_theta) * sin(pi*n*delta_theta)
          / (n * sin(pi*delta_theta))

    Periodic in ``delta_theta`` with period 1; the removable singularity at
    integer arguments evaluates to 1.  Accepts scalars or arrays.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    delta = np.asarray(delta_theta, dtype=float)
    scalar = delta.ndim == 0
    delta = np.atleast_1d(delta)
    # reduce to the principal period; the kernel is exactly 1-periodic
    frac = delta - np.round(delta)
    out = np.empty(frac.shape, dtype=complex)
    at_zero = frac == 0.0
    out[at_zero] = 1.0
    f = frac[~at_zero]
    out[~at_zero] = (
        np.exp(1j * np.pi * (n - 1) * f)
        * np.sin(np.pi * n * f)
        / (n * np.sin(np.pi * f))
    )
    return complex(out[0]) if scalar else out


def delay_kernel(delta_tau, bandwidth_hz: float, n_freq: int):
    """Discrete delay kernel: sample mean of exp(j*2*pi*delta_tau*f) over the
    baseband frequency grid.

    Equals 1 at ``delta_tau = 0`` and 0 at nonzero integer multiples of 1/W
    that are not multiples of n_freq/W.  This is the finite-sample counterpart
    of sinc(W*delta_tau) and the exact point-spread function of the transform
    along delay.
    """
    if n_freq < 1:
        raise ValueError("n_freq must be >= 1")
    delta = np.asarray(delta_tau, dtype=float)
    scalar = delta.ndim == 0
    phase = np.exp(-1j * np.pi * delta * bandwidth_hz)
    out = phase * angle_kernel(delta * bandwidth_hz / n_freq, n_freq)
    return complex(out) if scalar else out


def _check_spec(response: FrequencyResponse, spec: GridSpec) -> None:
    if spec.span(response.config) > response.config.duration:
        raise ValueError(
            "grid delay_span exceeds the observation duration; the transform "
            "would alias in delay"
        )


def _unit_phases(cycles_num: np.ndarray, den: int) -> np.ndarray:
    """exp(j*2*pi*cycles_num/den) for integer numerators.

    The numerators are reduced modulo ``den`` in integer arithmetic first, so
    large phases lose no precision.
    """
    return np.exp(2j * np.pi * (np.mod(cycles_num, den) / den))


def beamspace_transform(response: FrequencyResponse, spec: GridSpec) -> BeamspaceGrid:
    """Map a frequency response onto the oversampled AoA-AoD-delay lattice.

    The value at grid point (theta_r, theta_t, tau) is

        (1 / (n_rx*n_tx*n_freq)) * sum_{r,t,m}
            conj(a_rx(theta_r))_r * H[r,t,m] * a_tx(theta_t)_t
            * exp(+j*2*pi*tau*f_m)

    computed as this separable sum, one steering matrix per axis: the delay
    matrix is applied to all rx-tx lines, then the AoA matrix, then the AoD
    matrix one AoA row at a time into the preallocated grid, so no
    grid-sized temporary is made.  The lattice phases are exact rationals of
    a cycle and are reduced in integer arithmetic before exponentiation.
    """
    _check_spec(response, spec)
    cfg = response.config
    n_aoa = cfg.n_rx * spec.os_aoa
    n_aod = cfg.n_tx * spec.os_aod
    n_tau = resolvable_delays(spec.span(cfg), cfg.bandwidth_hz) * spec.os_delay

    # theta_i = -0.5 + i/n_aoa: -theta_i*r = r*(n_aoa - 2i) / (2*n_aoa) cycles
    a_rx = _unit_phases(
        np.outer(n_aoa - 2 * np.arange(n_aoa), np.arange(cfg.n_rx)), 2 * n_aoa)
    # theta_j = -0.5 + j/n_aod: theta_j*t = (2j - n_aod)*t / (2*n_aod) cycles
    a_tx = _unit_phases(
        np.outer(np.arange(n_aod) * 2 - n_aod, np.arange(cfg.n_tx)), 2 * n_aod)
    # tau_l*f_m = l*(2m - n_freq) / (2*n_freq*os_delay) cycles
    a_f = _unit_phases(
        np.outer(np.arange(cfg.n_freq) * 2 - cfg.n_freq, np.arange(n_tau)),
        2 * cfg.n_freq * spec.os_delay)
    a_f /= cfg.n_rx * cfg.n_tx * cfg.n_freq

    lines = response.values.reshape(cfg.n_rx * cfg.n_tx, cfg.n_freq) @ a_f
    rows = (a_rx @ lines.reshape(cfg.n_rx, cfg.n_tx * n_tau)).reshape(
        n_aoa, cfg.n_tx, n_tau)
    del lines
    values = np.empty((n_aoa, n_aod, n_tau), dtype=complex)
    for i in range(n_aoa):
        np.matmul(a_tx, rows[i], out=values[i])
    return BeamspaceGrid(values=values, spec=spec, config=cfg)


def beamspace_point(
    response: FrequencyResponse, aoa: float, aod: float, delay: float
) -> complex:
    """Evaluate the beamspace transform of a response at one off-lattice point.

    This is the matched filter of the unit path at (aoa, aod, delay) divided
    by n_rx*n_tx*n_freq, the exactly optimal single-path amplitude.
    """
    cfg = response.config
    atoms = _steering_matrices(cfg, [delay], [aod], [aoa])
    total = _matched_filter(response.values, *atoms)[0]
    return complex(total) / (cfg.n_rx * cfg.n_tx * cfg.n_freq)


def single_path_kernels(
    path: PathParams, spec: GridSpec, config: SounderConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis kernel vectors of one path on the beamspace lattice.

    The path's beamspace response is the outer product
    ``gain * k_aoa[:, None, None] * k_aod[None, :, None] * k_tau[None, None, :]``.
    """
    k_aoa = angle_kernel(path.aoa - spec.aoa_axis(config), config.n_rx)
    k_aod = angle_kernel(spec.aod_axis(config) - path.aod, config.n_tx)
    k_tau = delay_kernel(
        spec.delay_axis(config) - path.delay, config.bandwidth_hz, config.n_freq
    )
    return k_aoa, k_aod, k_tau


def single_path_grid(path: PathParams, spec: GridSpec, config: SounderConfig) -> BeamspaceGrid:
    """Analytic beamspace response of a single path (the subtraction kernel).

    Exactly equals ``beamspace_transform(synthesize_response(config, [path]), spec)``
    up to floating-point rounding -- the contract that makes greedy peak
    subtraction leave no self-noise.
    """
    k_aoa, k_aod, k_tau = single_path_kernels(path, spec, config)
    values = path.gain * np.einsum(
        "i,j,l->ijl", k_aoa, k_aod, k_tau, optimize=True
    )
    return BeamspaceGrid(values=values, spec=spec, config=config)


# entries per block of the peak sweep: 1 MB of complex128, so a block and
# its scratch buffers stay cache-resident while the sweep walks the grid
_BLOCK_ENTRIES = 1 << 16


def _kernel_factors(
    paths: list[PathParams], spec: GridSpec, config: SounderConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-K factors of the summed kernels of ``paths`` on the grid's
    ``(aoa*aod, delay)`` view: ``left[:, k]`` is ``gain*k_aoa (x) k_aod`` and
    ``right[k]`` is ``k_tau`` of path k."""
    kernels = [single_path_kernels(p, spec, config) for p in paths]
    left = np.stack(
        [p.gain * np.outer(k_aoa, k_aod).ravel()
         for p, (k_aoa, k_aod, _) in zip(paths, kernels)], axis=1)
    right = np.stack([k_tau for _, _, k_tau in kernels])
    return left, right


def peak_sweep(
    values: np.ndarray,
    paths: list[PathParams],
    spec: GridSpec,
    config: SounderConfig,
    write: bool = False,
) -> tuple[int, int, int, complex]:
    """Peak of ``|values - sum of the paths' beamspace responses|`` in one pass.

    Walks row blocks of the ``(aoa*aod, delay)`` view of ``values``.  Each
    block gets all path kernels subtracted as one rank-K product, then its
    magnitude and argmax are taken; the first strict maximum is kept, so
    exact magnitude ties resolve to the lowest (aoa, aod, delay) index triple
    in lexicographic order, as in ``np.argmax`` over the whole grid.  With
    ``write`` the difference is stored back into ``values`` (which must then
    be C-contiguous); otherwise ``values`` is only read.

    Returns the peak's index triple and the complex difference there; an
    all-zero difference reports index (0, 0, 0) and value 0.  Raises
    ValueError on an empty grid or a magnitude that is not finite.
    """
    if values.size == 0:
        raise ValueError("empty beamspace grid")
    if write and not values.flags.c_contiguous:
        raise ValueError("grid values must be C-contiguous to be updated in place")
    n_aoa, n_aod, n_tau = values.shape
    flat = values.reshape(n_aoa * n_aod, n_tau)
    if paths:
        left, right = _kernel_factors(paths, spec, config)
    rows = max(1, _BLOCK_ENTRIES // n_tau)
    kernel_buf = np.empty((rows, n_tau), dtype=complex)
    mag_buf = np.empty((rows, n_tau))
    best_mag, best_at, best_val = -1.0, 0, 0j
    for r0 in range(0, flat.shape[0], rows):
        block = flat[r0:r0 + rows]
        diff = block
        if paths:
            diff = kernel_buf[:len(block)]
            # np.dot, not np.matmul: matmul runs the rank-1 product, the
            # common case, about 2x slower
            np.dot(left[r0:r0 + rows], right, out=diff)
            if write:
                np.subtract(block, diff, out=block)
                diff = block
            else:
                np.subtract(block, diff, out=diff)
        mag = np.abs(diff, out=mag_buf[:len(block)])
        k = int(mag.argmax())  # a NaN wins the argmax, so it is not skipped
        peak = mag.flat[k]
        if not math.isfinite(peak):
            i, j, l = np.unravel_index(r0 * n_tau + k, values.shape)
            raise ValueError(
                f"non-finite beamspace magnitude at grid index ({i}, {j}, {l})")
        if peak > best_mag:
            best_mag, best_at, best_val = peak, r0 * n_tau + k, complex(diff.flat[k])
    i, j, l = np.unravel_index(best_at, values.shape)
    return int(i), int(j), int(l), best_val


def subtract_path(grid_values: np.ndarray, path: PathParams, spec: GridSpec,
                  config: SounderConfig) -> None:
    """In-place subtraction of one path's beamspace response from a grid tensor.

    Runs through ``peak_sweep`` with ``write`` set, so ``grid_values`` must be
    C-contiguous (ValueError otherwise, before anything is written), and the
    peak search of that sweep runs too, its result discarded.  A non-finite
    difference raises ValueError once its block has been written, which
    leaves the grid updated up to and including that block.
    """
    peak_sweep(grid_values, [path], spec, config, write=True)


def pdp_marginals(grid: BeamspaceGrid) -> tuple[np.ndarray, np.ndarray]:
    """2D power maps of a beamspace grid.

    Returns ``(aoa_aod, aoa_delay)`` where ``aoa_aod[i, j]`` sums |value|^2
    over the delay axis and ``aoa_delay[i, l]`` sums over the AoD axis.
    Both are accumulated one AoA row at a time, so the only temporary is one
    row's power.
    """
    n_aoa, n_aod, n_tau = grid.values.shape
    aoa_aod = np.empty((n_aoa, n_aod))
    aoa_delay = np.empty((n_aoa, n_tau))
    power = np.empty((n_aod, n_tau))
    for i in range(n_aoa):
        np.abs(grid.values[i], out=power)
        np.square(power, out=power)
        power.sum(axis=1, out=aoa_aod[i])
        power.sum(axis=0, out=aoa_delay[i])
    return aoa_aod, aoa_delay

