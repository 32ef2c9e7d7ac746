"""Oversampled angle-delay (beamspace) representation of a measured response.

The transform maps an (rx, tx, frequency) response tensor onto a 3D lattice of
(AoA, AoD, delay) points.  It is the direct separable triple sum, computed as
three products with the lattice matrices of ``sounder._lattice_matrices``
(delay first, then AoA, then AoD), the same separable map that gives the
critically sampled virtual coefficients; no FFT is involved.

A grid builds its lattice matrices once and keeps them.  The beamspace
footprint of a path is the transform of its atom: the grid's matrices times
the path's ``_steering_matrices``, one factor per axis.  Greedy subtraction
of a path therefore agrees with transforming the frequency-domain residual
up to floating-point rounding.

All grid-wide work after the transform goes through one blocked kernel,
``peak_sweep``: it subtracts a list of path footprints from the grid, block
by cache-sized block, writes the difference back, and finds its peak
magnitude in the same pass.

On a large grid the sweep and the transform cut their blocks into
contiguous spans, one per CPU of the process's affinity mask, that run
concurrently on the thread pool of ``mpcx.pool``.  Every entry gets the
same arithmetic in any span, and sweep results merge in span order, so a
split gives the same bits as one span.  A grid below the pool's minimum
span size stays one span on the calling thread; nothing is configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pool import run_spans, split_blocks
from .sounder import (
    FrequencyResponse,
    PathParams,
    SounderConfig,
    _lattice_matrices,
    _matched_filter,
    _separable_transform,
    _steering_matrices,
)


@dataclass(frozen=True)
class GridSpec:
    """Oversampling factors of the beamspace lattice.

    The AoA axis has ``n_rx * os_aoa`` points uniformly covering [-0.5, 0.5),
    the AoD axis ``n_tx * os_aod`` points likewise, and the delay axis
    ``n_freq * os_delay`` points covering the observation duration [0, T).
    """

    os_aoa: int = 4
    os_aod: int = 4
    os_delay: int = 4

    def __post_init__(self):
        if min(self.os_aoa, self.os_aod, self.os_delay) < 1:
            raise ValueError("oversampling factors must be positive integers")

    def aoa_axis(self, config: SounderConfig) -> np.ndarray:
        n = config.n_rx * self.os_aoa
        return -0.5 + np.arange(n) / n

    def aod_axis(self, config: SounderConfig) -> np.ndarray:
        n = config.n_tx * self.os_aod
        return -0.5 + np.arange(n) / n

    def delay_axis(self, config: SounderConfig) -> np.ndarray:
        n = config.n_freq * self.os_delay
        return np.arange(n) / (config.bandwidth_hz * self.os_delay)

    def _matrices(self, config: SounderConfig):
        "``sounder._lattice_matrices`` of this lattice's axes."
        return _lattice_matrices(config, self.delay_axis(config),
                                 self.aod_axis(config), self.aoa_axis(config))


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

    @cached_property
    def _matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The transform's lattice matrices of this grid's axes, built once per
        grid: every footprint that a sweep subtracts from it comes from them."""
        return self.spec._matrices(self.config)

    def _pick(self, paths: list[PathParams], refine: bool = False) -> PathParams:
        """``peak_sweep`` of this grid minus ``paths``, as a path: the peak's
        complex value at its axis coordinates, or with ``refine`` at the
        sub-grid coordinates of ``_refine_peak``."""
        i, j, l, val = peak_sweep(self, paths)
        if refine:
            aoa, aod, tau = _refine_peak(self, i, j, l)
        else:
            aoa = float(self.aoa_axis[i])
            aod = float(self.aod_axis[j])
            tau = float(self.delay_axis[l])
        return PathParams(gain=val, delay=tau, aod=aod, aoa=aoa)


def beamspace_transform(response: FrequencyResponse, spec: GridSpec) -> BeamspaceGrid:
    """Map a frequency response onto the oversampled AoA-AoD-delay lattice.

    The value at grid point (theta_r, theta_t, tau) is

        (1 / (n_rx*n_tx*n_freq)) * sum_{r,t,m}
            conj(a_rx(theta_r))_r * H[r,t,m] * a_tx(theta_t)_t
            * exp(+j*2*pi*tau*f_m)

    the same separable map as ``virtual_coefficients``, evaluated on the
    grid axes: the lattice matrices of the axes are applied delay first,
    then AoA, then AoD one AoA row at a time into the preallocated grid, so
    no grid-sized temporary is made.  The grid keeps the matrices for its
    sweeps.
    """
    cfg = response.config
    matrices = spec._matrices(cfg)
    grid = BeamspaceGrid(values=_separable_transform(response.values, *matrices),
                         spec=spec, config=cfg)
    object.__setattr__(grid, "_matrices", matrices)  # fills the cached_property
    return grid


def beamspace_point(
    response: FrequencyResponse, aoa: float, aod: float, delay: float
) -> complex:
    """Evaluate the beamspace transform of a response at one off-lattice point.

    This is the matched filter of the unit path at (aoa, aod, delay) divided
    by n_rx*n_tx*n_freq, the exactly optimal single-path amplitude, as the
    greedy-LS commit takes it.
    """
    values = response.values
    atoms = _steering_matrices(response.config, [delay], [aod], [aoa])
    return complex(_matched_filter(values, *atoms)[0]) / values.size


def _kernel_factors(
    matrices: tuple[np.ndarray, np.ndarray, np.ndarray],
    paths: list[PathParams],
    config: SounderConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-K factors of the summed footprints of ``paths`` on the
    ``(aoa*aod, delay)`` view of the lattice of ``matrices``: the lattice
    matrices applied to the paths' atoms, one axis at a time.  ``left[:, k]``
    is ``gain_k * (m_rx a_rx)[:, k] (x) (m_tx a_tx)[:, k]`` and ``right`` is
    ``a_f^T m_f``."""
    m_rx, m_tx, m_f = matrices
    a_rx, a_tx, a_f = _steering_matrices(
        config, [p.delay for p in paths], [p.aod for p in paths],
        [p.aoa for p in paths])
    k_rx = (m_rx @ a_rx) * np.array([p.gain for p in paths])
    left = (k_rx[:, None, :] * (m_tx @ a_tx)).reshape(-1, len(paths))
    return left, a_f.T @ m_f


def single_path_grid(path: PathParams, spec: GridSpec, config: SounderConfig) -> BeamspaceGrid:
    """Beamspace footprint of a single path (the subtraction kernel): the
    one-path case of the factors that ``peak_sweep`` subtracts.

    Equals ``beamspace_transform(synthesize_response(config, [path]), spec)``
    up to floating-point rounding -- the contract that makes greedy peak
    subtraction leave no self-noise.
    """
    matrices = spec._matrices(config)
    left, right = _kernel_factors(matrices, [path], config)
    values = (left @ right).reshape(len(matrices[0]), len(matrices[1]), -1)
    return BeamspaceGrid(values=values, spec=spec, config=config)


# entries per block of the peak sweep: 1 MB of complex128, so a block and
# its scratch buffers stay cache-resident while the sweep walks the grid
_BLOCK_ENTRIES = 1 << 16


def peak_sweep(
    grid: BeamspaceGrid, paths: list[PathParams]
) -> tuple[int, int, int, complex]:
    """Peak of ``|grid - sum of the paths' footprints|`` in one pass.

    Walks row blocks of the ``(aoa*aod, delay)`` view of ``grid.values``.
    Each block gets all footprints, built from the grid's own lattice
    matrices, subtracted as one rank-K product, then its magnitude and
    argmax are taken; the first strict maximum is kept, so exact magnitude
    ties resolve to the lowest (aoa, aod, delay) index triple in
    lexicographic order, as in ``np.argmax`` over the whole grid.  The
    difference is written back into ``grid.values``, which must be
    C-contiguous when there are paths (ValueError otherwise, before anything
    is written); with no paths the values are only read.  A large grid's
    blocks are cut into contiguous spans that run on ``pool.run_spans``;
    their results merge in span order, so the peak does not depend on the
    split.

    Returns the peak's index triple and the complex difference there; an
    all-zero difference reports index (0, 0, 0) and value 0.  Raises
    ValueError on an empty grid or a magnitude that is not finite, naming
    the lowest offending index that a span reached; in that case the blocks
    of its span up to and including the offending one are already written,
    and so may be blocks of the other spans.
    """
    values = grid.values
    if values.size == 0:
        raise ValueError("empty beamspace grid")
    if paths and not values.flags.c_contiguous:
        raise ValueError("grid values must be C-contiguous to be updated in place")
    n_aoa, n_aod, n_tau = values.shape
    flat = values.reshape(n_aoa * n_aod, n_tau)
    if paths:
        left, right = _kernel_factors(grid._matrices, paths, grid.config)
    rows = max(1, _BLOCK_ENTRIES // n_tau)

    def sweep(b0: int, b1: int) -> tuple[float, int, complex]:
        "(magnitude, flat index, value) of blocks b0..b1-1's first peak."
        kernel_buf = np.empty((rows, n_tau), dtype=complex)
        mag_buf = np.empty((rows, n_tau))
        best_mag, best_at, best_val = -1.0, 0, 0j
        for r0 in range(b0 * rows, min(b1 * rows, len(flat)), rows):
            block = flat[r0:r0 + rows]
            if paths:
                kernels = kernel_buf[:len(block)]
                # np.dot, not np.matmul: matmul runs the rank-1 product, the
                # common case, about 2x slower
                np.dot(left[r0:r0 + rows], right, out=kernels)
                np.subtract(block, kernels, out=block)
            mag = np.abs(block, out=mag_buf[:len(block)])
            k = int(mag.argmax())  # a NaN wins the argmax, so it is not skipped
            peak = float(mag.flat[k])
            if not math.isfinite(peak):
                return peak, r0 * n_tau + k, 0j
            if peak > best_mag:
                best_mag, best_at, best_val = peak, r0 * n_tau + k, complex(block.flat[k])
        return best_mag, best_at, best_val

    n_blocks = -(-len(flat) // rows)
    best_mag, best_at, best_val = -1.0, 0, 0j
    for peak, at, val in run_spans(sweep, split_blocks(n_blocks, rows * n_tau)):
        if not math.isfinite(peak):
            i, j, l = np.unravel_index(at, values.shape)
            raise ValueError(
                f"non-finite beamspace magnitude at grid index ({i}, {j}, {l})")
        if peak > best_mag:
            best_mag, best_at, best_val = peak, at, val
    i, j, l = np.unravel_index(best_at, values.shape)
    return int(i), int(j), int(l), best_val


def _parabolic_offset(y_lo: float, y_0: float, y_hi: float) -> float:
    "Vertex offset in [-0.5, 0.5] grid steps of the parabola through 3 samples."
    denom = y_lo - 2.0 * y_0 + y_hi
    if denom >= 0:  # not a proper local maximum
        return 0.0
    return float(np.clip(0.5 * (y_lo - y_hi) / denom, -0.5, 0.5))


def _refine_peak(grid: BeamspaceGrid, i: int, j: int, l: int) -> tuple[float, float, float]:
    """Sub-grid coordinates of the peak at index (i, j, l) by per-axis
    quadratic interpolation of |value|.

    Angle axes wrap periodically; the delay axis skips refinement at its
    edges.  Offsets are clamped to half a grid step per axis.
    """
    values = grid.values
    n_aoa, n_aod, n_tau = values.shape
    mag = np.abs
    d_aoa = _parabolic_offset(
        mag(values[(i - 1) % n_aoa, j, l]), mag(values[i, j, l]),
        mag(values[(i + 1) % n_aoa, j, l]))
    d_aod = _parabolic_offset(
        mag(values[i, (j - 1) % n_aod, l]), mag(values[i, j, l]),
        mag(values[i, (j + 1) % n_aod, l]))
    if 0 < l < n_tau - 1:
        d_tau = _parabolic_offset(
            mag(values[i, j, l - 1]), mag(values[i, j, l]),
            mag(values[i, j, l + 1]))
    else:
        d_tau = 0.0
    delay_axis = grid.delay_axis
    aoa = float(grid.aoa_axis[i]) + d_aoa / n_aoa
    if aoa < -0.5:
        aoa += 1.0
    aod = float(grid.aod_axis[j]) + d_aod / n_aod
    if aod < -0.5:
        aod += 1.0
    tau_step = float(delay_axis[1] - delay_axis[0]) if n_tau > 1 else 0.0
    tau = max(0.0, float(delay_axis[l]) + d_tau * tau_step)
    return aoa, aod, tau


def pdp_marginals(
    response: FrequencyResponse, spec: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """2D power maps of the beamspace grid of ``response`` on ``spec``.

    Returns ``(aoa_aod, aoa_delay)`` where ``aoa_aod[i, j]`` sums |value|^2
    over the delay axis and ``aoa_delay[i, l]`` sums over the AoD axis.
    Both are accumulated from each AoA row of the transform as it is made,
    so the grid is never held: besides the transform's own temporaries, the
    only one is a row's power.
    """
    matrices = spec._matrices(response.config)
    aoa_aod = np.empty((len(matrices[0]), len(matrices[1])))
    aoa_delay = np.empty((len(matrices[0]), matrices[2].shape[1]))

    def accumulate(i: int, row: np.ndarray) -> None:
        power = np.abs(row)
        np.square(power, out=power)
        power.sum(axis=1, out=aoa_aod[i])
        power.sum(axis=0, out=aoa_delay[i])

    _separable_transform(response.values, *matrices, each_row=accumulate)
    return aoa_aod, aoa_delay
