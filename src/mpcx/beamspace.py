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

Every grid-wide pass after the transform is one blocked kernel,
``peak_sweep``: it subtracts rank-K footprint factors from the grid, block
by cache-sized block, writes the difference back, and finds its peak
magnitude in the same pass; it can also record each (AoA, AoD) row's peak
magnitude.  ``tentative_peak`` finds the peak of the grid minus further
footprints without writing: with those row peaks and a bound on each row's
footprint it evaluates only the few rows that can hold the peak.

Greedy-LS's commits stay pending factors (``_PendingPicks``) until 16 are
pending or their bound keeps more than 5% of the rows.

On a large grid the sweep and the transform run their blocks in contiguous
spans, one per CPU, on ``mpcx.pool.run_blocks``.  Every entry gets the same
arithmetic in any span and the sweep's block peaks merge in block order, so
a split gives the same bits as one span.  A small grid stays one span on
the calling thread, and a tentative peak always does; nothing is
configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .pool import run_blocks
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

    def _pick(self, paths: list[PathParams]) -> PathParams:
        """``peak_sweep`` of this grid minus ``paths``, as a path at the
        peak's axis coordinates (see ``_path_at``)."""
        return self._path_at(*peak_sweep(self, paths))

    def _path_at(self, i: int, j: int, l: int, val: complex, refine: bool = False,
                 factors: tuple[np.ndarray, np.ndarray] | None = None) -> PathParams:
        """The peak ``val`` at index (i, j, l) as a path: at its axis
        coordinates, or with ``refine`` at the sub-grid coordinates of
        ``_refine_peak`` (of the grid minus the footprints of ``factors``)."""
        if refine:
            aoa, aod, tau = _refine_peak(self, i, j, l, factors)
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

# relative rounding allowance of ``tentative_peak``'s row bound: far above
# the rounding of a footprint sum, far below the gaps between row peaks
_BOUND_SLACK = 1e-9


def _block_peak(mag: np.ndarray, row_max: np.ndarray) -> tuple[float, int, int]:
    """(magnitude, row, column) of a block's peak from its row maxima: ties
    take the lowest flat index, and a NaN wins both argmaxes."""
    r = int(row_max.argmax())
    k = int(mag[r].argmax())
    return float(mag[r, k]), r, k


def _first_peak(peaks, shape: tuple[int, int, int]) -> tuple[int, int, int, complex]:
    """Index triple and value of the first strict maximum of (magnitude, flat
    index, value) block peaks taken in ascending index order; ValueError at
    the first magnitude that is not finite.  No peak gives (0, 0, 0) and 0."""
    best_mag, best_at, best_val = -1.0, 0, 0j
    for peak, at, val in peaks:
        if not math.isfinite(peak):
            i, j, l = np.unravel_index(at, shape)
            raise ValueError(
                f"non-finite beamspace magnitude at grid index ({i}, {j}, {l})")
        if peak > best_mag:
            best_mag, best_at, best_val = peak, at, val
    i, j, l = np.unravel_index(best_at, shape)
    return int(i), int(j), int(l), best_val


def peak_sweep(
    grid: BeamspaceGrid,
    footprints: list[PathParams] | tuple[np.ndarray, np.ndarray],
    row_peaks: np.ndarray | None = None,
) -> tuple[int, int, int, complex]:
    """Peak of ``|grid - footprints|`` in one pass.

    ``footprints`` are paths, whose ``_kernel_factors`` are built from the
    grid's own lattice matrices, or such factors already built.  Walks row
    blocks of the ``(aoa*aod, delay)`` view of ``grid.values``.  Each block
    gets all footprints subtracted as one rank-K product, then its magnitude, row
    maxima and argmax are taken; the first strict maximum is kept, so exact
    magnitude ties resolve to the lowest (aoa, aod, delay) index triple in
    lexicographic order, as in ``np.argmax`` over the whole grid.  The row
    maxima go into ``row_peaks`` (one float per row of the view) if it is
    given, for ``tentative_peak``.  The difference is written back into
    ``grid.values``, which must be C-contiguous when there are footprints
    (ValueError otherwise, before anything is written); with none the
    values are only read.  A large grid's blocks run in contiguous spans on
    ``pool.run_blocks``; each span lists its blocks' peaks and one merge
    walks them in block order, so the peak does not depend on the split.

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
    if footprints and not values.flags.c_contiguous:
        raise ValueError("grid values must be C-contiguous to be updated in place")
    n_aoa, n_aod, n_tau = values.shape
    flat = values.reshape(n_aoa * n_aod, n_tau)
    if footprints:
        left, right = (footprints if isinstance(footprints, tuple) else
                       _kernel_factors(grid._matrices, footprints, grid.config))
    if row_peaks is None:
        row_peaks = np.empty(len(flat))
    rows = max(1, _BLOCK_ENTRIES // n_tau)

    def sweep(start: int, stop: int) -> list[tuple[float, int, complex]]:
        """(magnitude, flat index, value) of each block's first peak, up to
        and including the first whose magnitude is not finite."""
        kernel_buf = np.empty((rows, n_tau), dtype=complex)
        mag_buf = np.empty((rows, n_tau))
        peaks = []
        for r0 in range(start, stop, rows):
            block = flat[r0:r0 + rows]
            if footprints:
                kernels = kernel_buf[:len(block)]
                # np.dot, not np.matmul: matmul runs the rank-1 product, the
                # common case, about 2x slower
                np.dot(left[r0:r0 + rows], right, out=kernels)
                np.subtract(block, kernels, out=block)
            mag = np.abs(block, out=mag_buf[:len(block)])
            peak, r, k = _block_peak(
                mag, np.max(mag, axis=1, out=row_peaks[r0:r0 + len(block)]))
            peaks.append((peak, (r0 + r) * n_tau + k, complex(block[r, k])))
            if not math.isfinite(peak):
                break
        return peaks

    return _first_peak(chain.from_iterable(run_blocks(sweep, len(flat), rows, n_tau)),
                       values.shape)


def _bound_rows(row_peaks: np.ndarray, reach: np.ndarray) -> np.ndarray:
    "Ascending indices of the rows that ``tentative_peak`` evaluates."
    floor = np.max(row_peaks - reach)
    return np.flatnonzero(~((row_peaks + reach) * (1 + _BOUND_SLACK) < floor))


def tentative_peak(
    grid: BeamspaceGrid, factors: tuple[np.ndarray, np.ndarray],
    row_peaks: np.ndarray, reach: np.ndarray | None = None,
) -> tuple[int, int, int, complex]:
    """``peak_sweep``'s peak of ``|grid - footprints|``, read-only and
    without a pass over the grid.

    ``factors`` are the footprints' ``_kernel_factors``, and ``row_peaks``
    the row maxima that the last ``peak_sweep`` recorded on the grid as it
    stands.  The footprints move row ``r`` of the ``(aoa*aod, delay)`` view
    by at most ``reach[r] = sum_k |left[r, k]| * max_l |right[k, l]|``
    (from the factors unless given), so the peak is at least ``floor =
    max_r(row_peaks[r] - reach[r])``, and only rows with ``(row_peaks[r] +
    reach[r]) * (1 + _BOUND_SLACK) >= floor`` (or a NaN bound) are
    evaluated: in ascending order, in blocks of half the sweep's size, each
    gathered by one ``np.take`` and its footprints subtracted in one call.
    Ties, the all-zero result and the non-finite ValueError are ``peak_sweep``'s.
    """
    values = grid.values
    if values.size == 0:
        raise ValueError("empty beamspace grid")
    n_aoa, n_aod, n_tau = values.shape
    flat = values.reshape(n_aoa * n_aod, n_tau)
    left, right = factors
    if reach is None:
        reach = np.abs(left) @ np.abs(right).max(axis=1)
    kept = _bound_rows(row_peaks, reach)
    rows = min(len(kept), max(1, _BLOCK_ENTRIES // 2 // n_tau))
    block_buf = np.empty((rows, n_tau), dtype=complex)
    kernel_buf = np.empty((rows, n_tau), dtype=complex)
    mag_buf = np.empty((rows, n_tau))
    row_buf = np.empty(rows)

    def peaks():
        for c0 in range(0, len(kept), rows):
            at = kept[c0:c0 + rows]
            n = len(at)
            block = np.take(flat, at, axis=0, out=block_buf[:n], mode="clip")
            np.subtract(block, np.dot(left[at], right, out=kernel_buf[:n]), out=block)
            mag = np.abs(block, out=mag_buf[:n])
            peak, r, k = _block_peak(mag, np.max(mag, axis=1, out=row_buf[:n]))
            yield peak, int(at[r]) * n_tau + k, complex(block[r, k])

    return _first_peak(peaks(), values.shape)


# pending commits, and share of the rows their bound keeps, past which a
# tentative pick costs about as much as the full sweep that writes them
_MAX_PENDING = 16
_MAX_KEPT_SHARE = 0.05


class _PendingPicks:
    """Greedy-LS's peak picks on a grid that its commits reach late.

    A commit stays pending: a column of the footprint factors ``left`` and
    ``right`` (its pick's unit ``_kernel_factors`` times its gain), with its
    row bound added to ``reach``.  Every pick is a ``tentative_peak`` of the
    grid minus the pending commits and the candidates so far.  A
    ``candidates`` call first runs one ``peak_sweep``, which writes the
    pending commits into the grid and records the row peaks, when it is the
    first call, when ``_MAX_PENDING`` commits are pending, or when their
    bound keeps more than ``_MAX_KEPT_SHARE`` of the rows; ``sweeps`` counts
    those sweeps.
    """

    def __init__(self, grid: BeamspaceGrid, refine: bool, k_g: int):
        self.grid, self.refine, self.k_g = grid, refine, k_g
        n_rows = grid.values.shape[0] * grid.values.shape[1]
        self.left = np.empty((n_rows, _MAX_PENDING + k_g), dtype=complex)
        self.right = np.empty((_MAX_PENDING + k_g, grid.values.shape[2]), dtype=complex)
        self.reach, self.row_peaks = np.zeros(n_rows), np.empty(n_rows)
        self.pending = self.sweeps = 0
        self.units = []  # (unit left, unit right, unit reach) of each candidate

    def candidates(self) -> list[PathParams]:
        "Up to ``k_g`` picks, ending before the first zero peak."
        reach, n = self.reach, self.pending
        if (not self.sweeps or n >= _MAX_PENDING or len(_bound_rows(
                self.row_peaks, reach)) > _MAX_KEPT_SHARE * len(reach)):
            peak_sweep(self.grid, (self.left[:, :n], self.right[:n]) if n else [],
                       self.row_peaks)
            self.sweeps += 1
            self.pending = n = 0
            reach.fill(0.0)
        self.units, found = [], []
        while len(found) < self.k_g:
            factors = (self.left[:, :n], self.right[:n])
            peak = self.grid._path_at(*tentative_peak(
                self.grid, factors, self.row_peaks, reach), self.refine, factors)
            if peak.gain == 0:
                break
            found.append(peak)
            left, right = _kernel_factors(self.grid._matrices,
                                          [replace(peak, gain=1)], self.grid.config)
            self.units.append((left[:, 0], right[0],
                               np.abs(left[:, 0]) * np.abs(right).max()))
            np.multiply(left[:, 0], peak.gain, out=self.left[:, n])
            self.right[n] = right[0]
            reach = reach + abs(peak.gain) * self.units[-1][2]
            n += 1
        return found

    def commit(self, index: int, gain: complex) -> None:
        "Make candidate ``index`` of the last ``candidates`` call a pending commit."
        left, right, unit_reach = self.units[index]
        np.multiply(left, gain, out=self.left[:, self.pending])
        self.right[self.pending] = right
        self.reach += abs(gain) * unit_reach
        self.pending += 1


def _parabolic_offset(y_lo: float, y_0: float, y_hi: float) -> float:
    "Vertex offset in [-0.5, 0.5] grid steps of the parabola through 3 samples."
    denom = y_lo - 2.0 * y_0 + y_hi
    if denom >= 0:  # not a proper local maximum
        return 0.0
    return float(np.clip(0.5 * (y_lo - y_hi) / denom, -0.5, 0.5))


def _refine_peak(
    grid: BeamspaceGrid, i: int, j: int, l: int,
    factors: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, float, float]:
    """Sub-grid coordinates of the peak at index (i, j, l) by per-axis
    quadratic interpolation of |value|.

    With ``factors`` (the ``_kernel_factors`` of some footprints) the values
    are those of the grid minus the footprints: the seven that are read are
    each computed from the factors, and the grid is not written.  Angle axes
    wrap periodically; the delay axis skips refinement at its edges.
    Offsets are clamped to half a grid step per axis.
    """
    values = grid.values
    n_aoa, n_aod, n_tau = values.shape

    def mag(a: int, b: int, c: int) -> float:
        value = values[a, b, c]
        if factors is not None:
            value = value - factors[0][a * n_aod + b] @ factors[1][:, c]
        return np.abs(value)

    d_aoa = _parabolic_offset(
        mag((i - 1) % n_aoa, j, l), mag(i, j, l), mag((i + 1) % n_aoa, j, l))
    d_aod = _parabolic_offset(
        mag(i, (j - 1) % n_aod, l), mag(i, j, l), mag(i, (j + 1) % n_aod, l))
    if 0 < l < n_tau - 1:
        d_tau = _parabolic_offset(mag(i, j, l - 1), mag(i, j, l), mag(i, j, l + 1))
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
