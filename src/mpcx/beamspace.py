"""Oversampled angle-delay (beamspace) representation of a measured response.

The transform maps an (rx, tx, frequency) response tensor onto a 3D lattice of
(AoA, AoD, delay) points.  It is the direct separable triple sum, computed as
three products with the lattice matrices of ``sounder._lattice_matrices``
(AoD first, then delay, then AoA; ``sounder._separable_transform``), the
same separable map that gives the critically sampled virtual coefficients;
no FFT is involved.

A grid builds its lattice matrices once and keeps them.  The beamspace
footprint of a path is the transform of its atom: the grid's matrices times
the path's ``_steering_matrices``, one factor per axis.  Greedy subtraction
of a path therefore agrees with transforming the frequency-domain residual
up to floating-point rounding.  On the uniform lattice each factor of a
lattice path depends only on the offset from the path's own index (a
shifted Dirichlet kernel), so a grid also builds, once, one kernel per axis
over lattice offsets from the same matrices (``_offset_kernels``: AoA and
AoD circulant, delay Toeplitz).  The picker reads a lattice path's
footprint off them as windows, with no steering matrices.  Each kernel is
a real Dirichlet kernel times a phase linear in the offset, ``exp(-j beta
d) D(d)`` (Sayeed, IEEE TSP 2002), so the Gram of lattice atoms is
``diag(phase) R diag(phase)^H`` with ``R`` real symmetric, gathered by
index differences from the kernels in that real frame (``_offset_phases``,
``_real_kernels``, ``_lattice_gram``), for greedy-LS's candidates and its
global refit.  A path off the lattice keeps the steering-matrix product.

A grid made by ``beamspace_transform`` stores only the critically sampled
AoD plane: the rows j = os_aod*q of each AoA row, n_aoa x n_tx x n_tau
values.  Along an angle axis every oversampled point is a fixed
interpolation of the critical samples (Sayeed, IEEE TSP 2002), so the other
os_aod - 1 AoD cosets of an AoA row are ``P = M_s M_0^-1`` times its
stored plane, where ``M_0`` and ``M_s`` are the stored and the other rows
of the grid's AoD lattice matrix and ``M_0^-1 = M_0^H / n_tx``.  On the
uniform AoD axis ``P`` is a Dirichlet kernel, ``diag(post) R diag(pre)``
with ``R`` real (``_coset_kernel``, ``BeamspaceGrid._kernel``), so the
derived rows of a block are one real product with the stored rows times
``pre``; the scans take magnitudes without ``post``.  The kernel is
applied in two places: a full pass (``_row_scan``) derives every row of a
block, and the row cache (``_LatticeRows``) derives the rows that are read
outside one, each as ``post * real * pre`` times its AoA row's plane:
``tentative_peak``, ``_point_value`` and ``.values``, which materializes
the whole lattice on access.  A grid built from an array stores every row
and derives none, as does a grid at os_aod = 1; its row cache is the plane
itself.

Every grid-wide pass after the transform is one blocked kernel,
``peak_sweep``: it subtracts rank-K footprint factors from the stored
plane, block of AoA rows by block, writes the difference back, and its
read-only scan (``_row_scan``) derives the other AoD rows and finds the
peak magnitude over all rows in the same pass; it can also record each
(AoA, AoD) row's peak magnitude.  The transform runs the same scan on each
block of the plane as it makes it when asked for the row peaks, so
greedy-LS's first row peaks cost no second pass.  ``pdp_marginals`` sums
its power maps from the same blocks by Parseval, from the stored rows
alone, and keeps no grid.
``tentative_peak`` finds the peak of the grid minus further footprints
without writing, over the rows it is handed.

Greedy-LS's commits (``greedy_extract``'s too) and SAGE's path updates
stay pending factors of one picker (``_PendingFootprints``), and
greedy-LS's candidates are held there after them.  The picker alone knows
its columns and its row bound: from the row peaks and the summed bounds of
its columns it keeps the few rows that can hold the peak, and its
``pick`` alone chooses between a full sweep and a tentative pick of those
rows: a sweep once 16 are pending or their bound keeps more than 5% of
the rows, and never while candidates are held.

On a large grid the sweep and the transform run their blocks in contiguous
spans, one per CPU, on ``mpcx.pool.run_blocks``.  Every entry gets the same
arithmetic in any span and the sweep's block peaks merge in block order, so
a split gives the same bits as one span.  A small grid stays one span on
the calling thread, and a tentative peak always does; nothing is
configurable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .pool import run_blocks
from .sounder import (
    FrequencyResponse,
    PathParams,
    SounderConfig,
    _lattice_matrices,
    _path_atoms,
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
        for name in ("os_aoa", "os_aod", "os_delay"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                    or value < 1):
                raise ValueError(f"{name} {value!r} must be a positive integer")

    def aoa_axis(self, config: SounderConfig) -> np.ndarray:
        n = config.n_rx * self.os_aoa
        return -0.5 + np.arange(n) / n

    def aod_axis(self, config: SounderConfig) -> np.ndarray:
        n = config.n_tx * self.os_aod
        return -0.5 + np.arange(n) / n

    def delay_axis(self, config: SounderConfig) -> np.ndarray:
        n = config.n_freq * self.os_delay
        return np.arange(n) / (config.bandwidth_hz * self.os_delay)

    def _plane_bytes(self, config: SounderConfig) -> int:
        """Bytes of the AoD plane that ``beamspace_transform`` stores on this
        lattice: n_rx*os_aoa x n_tx x n_freq*os_delay complex128 values."""
        return 16 * config.n_rx * self.os_aoa * config.n_tx * config.n_freq * self.os_delay

    def _matrices(self, config: SounderConfig):
        "``sounder._lattice_matrices`` of this lattice's axes."
        return _lattice_matrices(config, self.delay_axis(config),
                                 self.aod_axis(config), self.aoa_axis(config))


class BeamspaceGrid:
    """Complex beamspace tensor over (AoA, AoD, delay) lattice points.

    Normalization contract: a single path whose parameters sit exactly on the
    lattice produces its complex gain at the matching grid point.

    Storage contract: the grid stores ``_plane``, the AoD rows j =
    ``_step``*q of every AoA row (n_aoa x n_aod/``_step`` x n_tau values),
    and derives the other rows from it with ``_kernel``.
    ``BeamspaceGrid(values, spec, config)`` stores the whole array (step 1,
    no derived rows; the sweep writes into it); ``beamspace_transform``
    stores the critically sampled plane, step os_aod.  ``values`` is the
    stored array for a grid that derives nothing, and otherwise a new array
    that materializes the whole lattice.
    """

    def __init__(self, values: np.ndarray, spec: GridSpec, config: SounderConfig):
        self.spec, self.config = spec, config
        self._plane, self._step = values, 1

    @property
    def shape(self) -> tuple[int, int, int]:
        "(n_aoa, n_aod, n_tau) of the whole lattice."
        n_aoa, n_stored, n_tau = self._plane.shape
        return n_aoa, n_stored * self._step, n_tau

    @property
    def values(self) -> np.ndarray:
        """The whole lattice: the stored array, or a new one filled from a
        fresh ``_LatticeRows``, ``limit`` rows a call."""
        if self._step == 1:
            return self._plane
        rows = _LatticeRows(self)
        n_aoa, n_aod, n_tau = self.shape
        full = np.empty(self.shape, dtype=complex)
        flat = full.reshape(n_aoa * n_aod, n_tau)
        for r0 in range(0, len(flat), rows.limit):
            part = np.arange(r0, min(r0 + rows.limit, len(flat)))
            values, slots = rows.gather(self, part)
            np.take(values, slots, axis=0, out=flat[r0:r0 + len(part)])
        return full

    # the axis values, built once per grid for ``_path_at`` and the lattice test
    @cached_property
    def aoa_axis(self) -> np.ndarray:
        return self.spec.aoa_axis(self.config)

    @cached_property
    def aod_axis(self) -> np.ndarray:
        return self.spec.aod_axis(self.config)

    @cached_property
    def delay_axis(self) -> np.ndarray:
        return self.spec.delay_axis(self.config)

    @cached_property
    def _matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The transform's lattice matrices of this grid's axes, built once per
        grid: every footprint that a sweep subtracts from it comes from them."""
        return self.spec._matrices(self.config)

    @cached_property
    def _kernel(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        "``_coset_kernel`` of this grid's AoD axis and step."
        return _coset_kernel(self.config.n_tx, self._step)

    @cached_property
    def _lattice_rows(self) -> _LatticeRows:
        """Lattice rows of the plane as it stands, for ``tentative_peak`` and
        ``_point_value``; a ``peak_sweep`` that writes the plane drops them."""
        return _LatticeRows(self)

    @cached_property
    def _offset_kernels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The footprint factors of every lattice path as one kernel per axis
        over lattice offsets, built once per grid from its lattice matrices:
        entry ``d + n - 1`` of an axis of n points is the factor d points past
        the path's own index, so the path at index p reads the window
        ``[n - 1 - p, 2n - 1 - p)``.  AoA and AoD are circulant, the factors
        of the path at index 0 (n values, repeated); delay is Toeplitz, the
        ``a_f^T m_f`` rows of the paths at the last and the first delay."""
        m_rx, m_tx, m_f = self._matrices
        a_rx, a_tx, a_f = _steering_matrices(self.config, self.delay_axis[[-1, 0]],
                                             self.aod_axis[:1], self.aoa_axis[:1])
        k_rx, k_tx = (m_rx @ a_rx)[:, 0], (m_tx @ a_tx)[:, 0]
        last, first = a_f.T @ m_f
        return (np.concatenate((k_rx[1:], k_rx)), np.concatenate((k_tx[1:], k_tx)),
                np.concatenate((last, first[1:])))

    @cached_property
    def _offset_phases(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``exp(-j beta d)`` of each axis over the offsets d of its
        ``_offset_kernels`` (entry ``d + n - 1`` for an axis of n points), the
        phase that makes an offset kernel real: on the uniform lattice the
        kernel at offset d is ``exp(-j beta d) D(d)`` with ``D`` a real
        Dirichlet kernel (Sayeed, IEEE TSP 2002), beta = pi (n_rx - 1)/n_aoa
        for AoA, -pi (n_tx - 1)/n_aod for AoD and pi/n_tau for delay.  The
        angles are reduced to [0, 2 pi) in integers."""
        slopes = (self.config.n_rx - 1, 1 - self.config.n_tx, 1)
        return tuple(np.exp(-1j * np.pi * (c * np.arange(1 - n, n) % (2 * n)) / n)
                     for c, n in zip(slopes, self.shape))

    @cached_property
    def _real_kernels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``_offset_kernels`` in the real frame, built once per grid:
        each divided by its ``_offset_phases``, real part, averaged with its
        value at -d, so the Dirichlet kernel is exactly even and a Gram
        gathered from it exactly symmetric.  The imaginary part dropped is
        rounding, about 1e-14 of the kernel's maximum."""
        real = [(kernel * phase.conj()).real
                for kernel, phase in zip(self._offset_kernels, self._offset_phases)]
        return tuple((r + r[::-1]) / 2 for r in real)

    def _lattice_index(self, path: PathParams) -> tuple[int, int, int] | None:
        """Index of the lattice point whose axis values ``path``'s coordinates
        equal exactly, as ``_path_at`` makes them; None off the lattice."""
        i, j, l = _nearest_point(self, path)
        if (path.aoa == self.aoa_axis[i] and path.aod == self.aod_axis[j]
                and path.delay == self.delay_axis[l]):
            return i, j, l
        return None

    def _lattice_indices(self, paths: list[PathParams]) -> tuple[np.ndarray, ...] | None:
        "``_lattice_index`` of every path as (i, j, l) arrays; None if one is off it."
        at = [self._lattice_index(p) for p in paths]
        if None in at:
            return None
        return tuple(np.array(axis, dtype=np.intp) for axis in zip(*at))

    def _lattice_gram(self, at: tuple[np.ndarray, np.ndarray, np.ndarray],
                      ) -> tuple[np.ndarray, np.ndarray]:
        """``(R, phase)``: the Gram matrix A^H A of the atoms at the lattice
        indices ``at`` (the arrays of ``_lattice_indices``) in the real
        frame, ``A^H A = diag(phase) R diag(phase)^H``.  ``R`` is real
        symmetric, gathered by index differences: entry (a, b) is N =
        n_rx*n_tx*n_freq times the ``_real_kernels`` entries at index a
        minus index b, one per axis (the AoA kernel carries 1/N).  ``phase``
        is the product of the three axes' ``_offset_phases`` at each index
        (its offset from index 0), so |R| = |A^H A| and both have the same
        eigenvalues."""
        (k_rx, k_tx, k_f), (i, j, l) = self._real_kernels, at
        p_rx, p_tx, p_f = self._offset_phases
        n_aoa, n_aod, n_tau = self.shape
        gram = k_rx[np.add.outer(i, n_aoa - 1 - i)]
        gram *= k_tx[np.add.outer(j, n_aod - 1 - j)]
        gram *= k_f[np.add.outer(l, n_tau - 1 - l)]
        gram *= self.config.n_rx * self.config.n_tx * self.config.n_freq
        return gram, p_rx[n_aoa - 1 + i] * p_tx[n_aod - 1 + j] * p_f[n_tau - 1 + l]

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


def _coset_kernel(n_tx: int, step: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``(real, pre, post)``: the interpolator ``P = M_s M_0^H / n_tx`` of
    the derived AoD rows j = step*q + s (s = 1..step-1, in (q, s) order) of
    an AoA row from its stored rows q', as ``P = diag(post) real diag(pre)``,
    where ``M_0`` and ``M_s`` are the stored and the derived rows of the AoD
    lattice matrix (``M_0 M_0^H = n_tx I``).  On the uniform AoD axis ``P``
    is a Dirichlet kernel, real up to one phase per stored and one per
    derived row:

        real[(q, s), q'] = (-1)^(q-q') sin(pi s/step)
                           / (n_tx sin(pi (q - q' + s/step) / n_tx))
        pre[q'] = exp(-j pi (n_tx-1) q' / n_tx)
        post[j] = exp(+j pi (n_tx-1) j / (n_tx step))

    ``real`` is float64 [n_tx*(step-1) x n_tx], so the derived rows of a
    block cost one real product with the pre-scaled stored rows (half the
    multiply-adds of a complex one), and their magnitudes need no ``post``
    (|post| = 1).  The phases are reduced to [0, 2 pi) in integers; at
    n_tx = 1 ``real`` is exactly 1 and both phases exactly 1.  None at step
    1, where no row is derived."""
    if step == 1:
        return None
    q = np.arange(n_tx)
    u = np.arange(1, step) / step
    d = q[:, None] - q  # q - q'
    sign = np.where(d % 2, -1.0, 1.0)
    real = (sign[:, None] * np.sin(np.pi * u)[:, None]
            / (n_tx * np.sin(np.pi * (d[:, None] + u[:, None]) / n_tx)))
    j = step * q[:, None] + np.arange(1, step)
    pre = np.exp(-1j * np.pi * ((n_tx - 1) * q % (2 * n_tx)) / n_tx)
    post = np.exp(1j * np.pi * ((n_tx - 1) * j.ravel() % (2 * n_tx * step))
                  / (n_tx * step))
    return real.reshape(-1, n_tx), pre, post


def beamspace_transform(response: FrequencyResponse, spec: GridSpec,
                        row_peaks: np.ndarray | None = None) -> BeamspaceGrid:
    """Map a frequency response onto the oversampled AoA-AoD-delay lattice.

    The value at grid point (theta_r, theta_t, tau) is

        (1 / (n_rx*n_tx*n_freq)) * sum_{r,t,m}
            conj(a_rx(theta_r))_r * H[r,t,m] * a_tx(theta_t)_t
            * exp(+j*2*pi*tau*f_m)

    the same separable map as ``virtual_coefficients``, evaluated on the
    grid axes by ``sounder._separable_transform``: the lattice matrices of
    the axes are applied AoD first, then delay, then AoA a block of rows at
    a time into the preallocated plane.  Only the stored AoD rows (every
    os_aod-th, the critically sampled ones) are computed and kept, so the
    AoD matrix applied is square; the grid derives the rest (see
    ``BeamspaceGrid``) and keeps the matrices for its sweeps.

    With ``row_peaks`` (one float per row of the ``(aoa*aod, delay)`` view)
    each block of the plane is scanned as it is made, by the read-only scan
    of ``peak_sweep`` (``_row_scan``), which records the row maxima there:
    the same bits that ``peak_sweep(grid, row_peaks=row_peaks)`` writes, without
    a second pass over the plane.  A magnitude that is not finite raises
    the ValueError of that read-only sweep, naming the same index, once the
    plane is made.
    """
    cfg = response.config
    matrices = spec._matrices(cfg)
    m_rx, m_tx, m_f = matrices
    step, n_tau = spec.os_aod, m_f.shape[1]
    shape = (len(m_rx), len(m_tx), n_tau)
    each_block = peaks = None
    if row_peaks is not None:
        kernel = _coset_kernel(cfg.n_tx, step)
        aoa_rows = _scan_rows(shape, step)
        peaks = [None] * len(m_rx)  # block peaks by first AoA row

        def each_block():
            scan = _row_scan(kernel, row_peaks, aoa_rows, cfg.n_tx, n_tau)

            def scan_rows(first: int, rows: np.ndarray) -> None:
                for i0 in range(0, len(rows), aoa_rows):
                    peaks[first + i0] = scan(first + i0, rows[i0:i0 + aoa_rows])
            return scan_rows

    grid = BeamspaceGrid(_separable_transform(response.values, m_rx, m_tx[::step],
                                              m_f, each_block), spec, cfg)
    grid._step, grid._matrices = step, matrices
    if peaks is not None:
        _first_peak((p for p in peaks if p is not None), shape)
    return grid


def _kernel_factors(
    matrices: tuple[np.ndarray, np.ndarray, np.ndarray],
    steering: tuple[np.ndarray, np.ndarray, np.ndarray],
    gains: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-K factors of the summed footprints of K atoms, given by their
    ``_steering_matrices`` and gains, on the ``(aoa*aod, delay)`` view of
    the lattice of ``matrices``: the lattice matrices applied to the atoms,
    one axis at a time.  ``left[:, k]`` is ``gains[k] * (m_rx a_rx)[:, k]
    (x) (m_tx a_tx)[:, k]`` and ``right`` is ``a_f^T m_f``."""
    m_rx, m_tx, m_f = matrices
    a_rx, a_tx, a_f = steering
    k_rx = (m_rx @ a_rx) * gains
    left = (k_rx[:, None, :] * (m_tx @ a_tx)).reshape(-1, len(gains))
    return left, a_f.T @ m_f


def single_path_grid(path: PathParams, spec: GridSpec, config: SounderConfig) -> BeamspaceGrid:
    """Beamspace footprint of a single path (the subtraction kernel): the
    one-path case of the factors that ``peak_sweep`` subtracts.

    Equals ``beamspace_transform(synthesize_response(config, [path]), spec)``
    up to floating-point rounding -- the contract that makes greedy peak
    subtraction leave no self-noise.
    """
    matrices = spec._matrices(config)
    left, right = _kernel_factors(matrices, *_path_atoms(config, [path]))
    values = (left @ right).reshape(len(matrices[0]), len(matrices[1]), -1)
    return BeamspaceGrid(values=values, spec=spec, config=config)


# entries per block of the peak sweep: 1 MB of complex128, so a block and
# its scratch buffers stay cache-resident while the sweep walks the grid
_BLOCK_ENTRIES = 1 << 16

# relative rounding allowance of the picker's row bound: far above
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


def _scan_rows(shape: tuple[int, int, int], step: int) -> int:
    """AoA rows per block of a pass over a grid of lattice ``shape`` that
    stores every ``step``-th AoD row.  A block's derived rows and their
    magnitudes need more room than its stored rows: a block is 1/step of
    ``_BLOCK_ENTRIES`` lattice entries, so it stays cache-resident (at step 4
    on the desk grid 1.5x faster)."""
    return max(1, _BLOCK_ENTRIES // (shape[1] * shape[2] * step))


def _row_scan(kernel: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
              row_peaks: np.ndarray, aoa_rows: int, n_stored: int, n_tau: int):
    """The read-only scan of ``peak_sweep``, with one span's scratch buffers.

    ``scan(i0, block)`` takes the stored rows of AoA rows i0..i0+b-1 (``block``,
    [b x n_stored x n_tau], b <= ``aoa_rows``), derives their other AoD rows
    with the ``_coset_kernel`` ``kernel`` ``(real, pre, post)``: each AoA
    row's stored rows times ``pre`` go into one buffer, and ``real`` times
    it, one real product on its float view, gives the derived rows without
    their ``post`` phases, which leave the magnitudes as they are.  It
    writes the maximum magnitude of every (AoA, AoD) row into ``row_peaks``
    (one float per row of the ``(aoa*aod, delay)`` view) and returns the
    block's peak as (magnitude, flat lattice index, value): the first
    maximum in (aoa, aod, delay) order over stored and derived rows
    together.  Only that value gets its row's ``post``.
    """
    step = 1 if kernel is None else len(kernel[0]) // n_stored + 1
    n_aod = n_stored * step
    by_coset = row_peaks.reshape(-1, n_stored, step)
    mag_buf = np.empty((aoa_rows, n_stored, n_tau))
    if kernel is not None:
        real, pre, post = kernel
        # ``pre`` along whole rows: a broadcast product allocates a buffer
        pre = np.repeat(pre[:, None], n_tau, axis=1)
        scaled = np.empty((n_stored, n_tau), dtype=complex)
        derived_buf = np.empty((aoa_rows, len(real), n_tau), dtype=complex)
        derived_mag_buf = np.empty((aoa_rows, len(real), n_tau))

    def scan(i0: int, block: np.ndarray) -> tuple[float, int, complex]:
        b = len(block)
        mag = np.abs(block, out=mag_buf[:b])
        np.max(mag, axis=2, out=by_coset[i0:i0 + b, :, 0])
        if kernel is not None:
            derived = derived_buf[:b]
            for rows, out in zip(block, derived):
                np.multiply(rows, pre, out=scaled)
                np.matmul(real, scaled.view(float), out=out.view(float))
            derived_mag = np.abs(derived, out=derived_mag_buf[:b])
            np.max(derived_mag.reshape(b, n_stored, step - 1, n_tau), axis=3,
                   out=by_coset[i0:i0 + b, :, 1:])
        # the first row holding the block's maximum holds its first peak;
        # a NaN wins both argmaxes
        r = int(row_peaks[i0 * n_aod:(i0 + b) * n_aod].argmax())
        i, j = divmod(r, n_aod)
        q, s = divmod(j, step)
        if s:
            c = q * (step - 1) + s - 1
            row, row_mag, phase = derived[i, c], derived_mag[i, c], post[c]
        else:
            row, row_mag, phase = block[i, q], mag[i, q], 1
        k = int(row_mag.argmax())
        return float(row_mag[k]), (i0 * n_aod + r) * n_tau + k, complex(row[k] * phase)

    return scan


def peak_sweep(
    grid: BeamspaceGrid,
    factors: tuple[np.ndarray, np.ndarray] | None = None,
    row_peaks: np.ndarray | None = None,
) -> tuple[int, int, int, complex]:
    """Peak of ``|grid - footprints|`` in one pass.

    ``factors`` are the footprints' ``_kernel_factors`` on the ``(aoa*aod,
    delay)`` view of the whole lattice, or None for no footprint.  Walks
    blocks of AoA rows of the stored plane.  Each block gets all footprints
    subtracted from its stored rows as one rank-K product, written back;
    then its derived rows are made from them (one real product with
    ``grid._kernel``), and the magnitudes and maxima of every (AoA, AoD)
    row are taken, by the read-only ``_row_scan``.  The block's peak is the
    first maximum in (aoa, aod, delay) order over stored and derived rows
    together, and the first strict maximum over the blocks is kept, so
    exact magnitude ties resolve to the lowest index triple, as in
    ``np.argmax`` over the whole lattice.  The row maxima go into
    ``row_peaks`` (one float per row of the view) if it is given, for the
    picker's row bound.  The stored plane must be C-contiguous when there
    are footprints (ValueError otherwise, before anything is written); with
    none it is only read.  A large grid's blocks run in contiguous spans on
    ``pool.run_blocks``; each span lists its blocks' peaks and one merge
    walks them in block order, so the peak does not depend on the split.

    Returns the peak's index triple and the complex difference there; an
    all-zero difference reports index (0, 0, 0) and value 0.  Raises
    ValueError on an empty grid or a magnitude that is not finite, naming
    the lowest offending index that a span reached; in that case the blocks
    of its span up to and including the offending one are already written,
    and so may be blocks of the other spans.
    """
    plane, step = grid._plane, grid._step
    if plane.size == 0:
        raise ValueError("empty beamspace grid")
    if factors is not None and not plane.flags.c_contiguous:
        raise ValueError("grid values must be C-contiguous to be updated in place")
    n_aoa, n_stored, n_tau = plane.shape
    n_aod = n_stored * step
    if factors is not None:
        # the footprints' stored rows
        left = factors[0].reshape(n_aoa, n_aod, -1)[:, ::step]
        grid.__dict__.pop("_lattice_rows", None)  # made from the plane before
    if row_peaks is None:
        row_peaks = np.empty(n_aoa * n_aod)
    kernel = grid._kernel
    aoa_rows = _scan_rows(grid.shape, step)

    def sweep(start: int, stop: int) -> list[tuple[float, int, complex]]:
        """(magnitude, flat index, value) of each block's first peak, up to
        and including the first whose magnitude is not finite."""
        scan = _row_scan(kernel, row_peaks, aoa_rows, n_stored, n_tau)
        kernel_buf = np.empty((aoa_rows * n_stored, n_tau), dtype=complex)
        peaks = []
        # an inf value makes NaNs in the products: the merge names it
        with np.errstate(invalid="ignore"):
            for i0 in range(start, stop, aoa_rows):
                block = plane[i0:i0 + aoa_rows]
                if factors is not None:
                    rows = block.reshape(-1, n_tau)
                    kernels = kernel_buf[:len(rows)]
                    # np.dot, not np.matmul: matmul runs the rank-1 product,
                    # the common case, about 2x slower
                    np.dot(left[i0:i0 + len(block)].reshape(len(rows), -1),
                           factors[1], out=kernels)
                    np.subtract(rows, kernels, out=rows)
                peaks.append(scan(i0, block))
                if not math.isfinite(peaks[-1][0]):
                    break
        return peaks

    return _first_peak(
        chain.from_iterable(run_blocks(sweep, n_aoa, aoa_rows, n_aod * n_tau)),
        grid.shape)


def _bound_rows(row_peaks: np.ndarray, reach: np.ndarray,
                floor: float | None = None) -> np.ndarray:
    """Ascending indices of the rows that can hold the peak of a grid with
    row maxima ``row_peaks`` minus footprints that move row r by at most
    ``reach[r]``: the peak is at least max_r(row_peaks - reach), or
    ``floor`` where that is higher (a lower bound on it; a NaN floor is
    ignored), and only rows with ``(row_peaks + reach) * (1 +
    _BOUND_SLACK)`` at least that, or a NaN bound, are kept."""
    least = np.max(row_peaks - reach)
    if floor is not None and floor > least:
        least = floor
    return np.flatnonzero(~((row_peaks + reach) * (1 + _BOUND_SLACK) < least))


# values that a grid's ``_LatticeRows`` holds at most: 16 MB of complex128,
# more than the rows that greedy-LS's picks read between two sweeps at the
# paper protocol (at most 667 rows of 932 delays)
_HELD_ENTRIES = 1 << 20


class _LatticeRows:
    """Rows of a grid's lattice as the stored plane stands, each made once:
    the one reader of lattice rows outside a full pass (``tentative_peak``,
    ``_point_value`` and ``BeamspaceGrid.values``).

    Between two writes of the plane, greedy-LS's tentative picks read the
    same few rows again and again (about 15 reads per derived row at the
    paper protocol).  ``gather`` keeps every row it is asked for in
    ``values``: a stored row is copied from the plane, and a derived row is
    its row of ``P``, formed as ``post * real * pre`` from ``grid._kernel``,
    times its AoA row's stored plane, with the same bits whatever rows are
    made with it.  ``index`` maps a lattice row to its slot, or -1.  At most
    ``limit`` rows (``_HELD_ENTRIES`` values, or the five rows of a
    ``_refine_peak`` if more) are held; a call that needs more room first
    drops them all, and a call asks for at most ``limit`` rows.  On a grid
    that derives no row, ``values`` is the plane itself, a view of its
    rows, and ``index`` the identity: nothing is made.
    """

    def __init__(self, grid: BeamspaceGrid):
        n_aoa, n_aod, n_tau = grid.shape
        self.count = 0
        if grid._step == 1:
            self.values = grid._plane.reshape(n_aoa * n_aod, n_tau)
            self.index = np.arange(n_aoa * n_aod)
            self.limit = max(1, len(self.index))
            return
        self.index = np.full(n_aoa * n_aod, -1)
        self.limit = min(max(1, n_aoa * n_aod), max(5, _HELD_ENTRIES // n_tau))
        # pages that no row is written to are never touched
        self.values = np.empty((self.limit, n_tau), dtype=complex)

    def gather(self, grid: BeamspaceGrid,
               rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(values, slots)``: the slots in ``values`` of up to ``limit``
        ascending lattice ``rows`` of ``grid`` (whose rows these are), made
        where missing."""
        missing = rows[self.index[rows] < 0]
        if len(missing):
            if self.count + len(missing) > self.limit:
                self.index.fill(-1)
                self.count, missing = 0, rows
            self._make(grid, missing)
        return self.values, self.index[rows]

    def _make(self, grid: BeamspaceGrid, rows: np.ndarray) -> None:
        step = grid._step
        n_aoa, n_stored, n_tau = grid._plane.shape
        start, stop = self.count, self.count + len(rows)
        aoa, aod = np.divmod(rows, n_stored * step)
        q, s = np.divmod(aod, step)
        derived, stored = np.flatnonzero(s), np.flatnonzero(s == 0)
        # derived rows first, each its row of ``P`` formed from the kernel
        # (cheaper than pre-scaling the plane) times its AoA row's plane: one
        # vector-matrix product per row, stacked per AoA row, so a row's bits
        # do not depend on the rows made with it (a matrix product of several
        # rounds otherwise); then the stored rows
        real, pre, post = grid._kernel
        c = q[derived] * (step - 1) + s[derived] - 1
        coef = post[c, None] * real[c] * pre
        planes, firsts = np.unique(aoa[derived], return_index=True)
        firsts = firsts.tolist()
        for i, lo, hi in zip(planes.tolist(), firsts, firsts[1:] + [len(derived)]):
            np.matmul(coef[lo:hi, None], grid._plane[i],
                      out=self.values[start + lo:start + hi, None])
        middle = start + len(derived)
        np.take(grid._plane.reshape(-1, n_tau), aoa[stored] * n_stored + q[stored],
                axis=0, out=self.values[middle:stop])
        self.index[rows[derived]] = np.arange(start, middle)
        self.index[rows[stored]] = np.arange(middle, stop)
        self.count = stop


def tentative_peak(
    grid: BeamspaceGrid, factors: tuple[np.ndarray, np.ndarray], rows: np.ndarray,
) -> tuple[int, int, int, complex]:
    """``peak_sweep``'s peak of ``|grid - footprints|`` over the lattice
    rows ``rows`` alone, read-only and without a pass over the grid.

    ``factors`` are the footprints' ``_kernel_factors`` and ``rows``
    ascending indices of rows of the ``(aoa*aod, delay)`` view, such as
    those that ``_PendingFootprints`` keeps by its row bound.  Exactly
    those rows are evaluated, in blocks of half the sweep's size, each
    gathered by one ``np.take`` from ``grid._lattice_rows`` and its
    footprints subtracted in one call.  Ties, the all-zero result (also of
    no rows) and the non-finite ValueError are ``peak_sweep``'s.
    """
    if grid._plane.size == 0:
        raise ValueError("empty beamspace grid")
    n_tau = grid._plane.shape[2]
    left, right = factors
    size = min(len(rows), max(1, _BLOCK_ENTRIES // 2 // n_tau))
    block_buf = np.empty((size, n_tau), dtype=complex)
    kernel_buf = np.empty((size, n_tau), dtype=complex)
    mag_buf = np.empty((size, n_tau))
    row_buf = np.empty(size)
    cache = grid._lattice_rows
    # the block peaks are collected here, not drained from a generator by
    # ``_first_peak``, so a profile bills their evaluation to this function
    peaks = []
    for p0 in range(0, len(rows), cache.limit):
        part = rows[p0:p0 + cache.limit]
        source, slots = cache.gather(grid, part)
        for c0 in range(0, len(part), size):
            at = part[c0:c0 + size]
            n = len(at)
            block = np.take(source, slots[c0:c0 + size], axis=0,
                            out=block_buf[:n], mode="clip")
            np.subtract(block, np.dot(left[at], right, out=kernel_buf[:n]),
                        out=block)
            mag = np.abs(block, out=mag_buf[:n])
            peak, r, k = _block_peak(mag, np.max(mag, axis=1, out=row_buf[:n]))
            peaks.append((peak, int(at[r]) * n_tau + k, complex(block[r, k])))
            if not math.isfinite(peak):  # the merge names it
                return _first_peak(peaks, grid.shape)
    return _first_peak(peaks, grid.shape)


# pending footprints, and share of the rows their bound keeps, past which a
# tentative pick costs about as much as the full sweep that writes them
_MAX_PENDING = 16
_MAX_KEPT_SHARE = 0.05


class _PendingFootprints:
    """Peak picks on the grid of a response minus footprints not yet written
    into it: the one picker of greedy-LS (and so ``greedy_extract``) and SAGE,
    and the one owner of its column layout and its row bound.

    The grid is ``beamspace_transform`` of the response, which records the
    row peaks: the first of the grid passes that ``sweeps`` counts and whose
    wall seconds ``pass_s`` sums.  A footprint is a column of the factors
    ``left`` and ``right``, a path's ``unit`` footprint times a gain, with
    its row bound ``bounds[column]``, |gain| times the unit's.  The first
    ``pending`` columns are not yet written (``append``); the ``held`` ones
    after them are a caller's candidates (``hold``), which the next
    ``append`` drops.  The arrays, allocated once, have ``_MAX_PENDING`` +
    ``extra`` columns.
    """

    def __init__(self, response: FrequencyResponse, spec: GridSpec, extra: int):
        config = response.config
        n_rows = config.n_rx * spec.os_aoa * config.n_tx * spec.os_aod
        self.row_peaks = np.empty(n_rows)
        start = time.perf_counter()
        self.grid = beamspace_transform(response, spec, self.row_peaks)
        self.pass_s = time.perf_counter() - start
        columns = _MAX_PENDING + extra
        # Fortran order: a column is contiguous, as a ``right`` or ``bounds``
        # row is, so ``put`` writes it in one pass
        self.left = np.empty((n_rows, columns), dtype=complex, order="F")
        self.right = np.empty((columns, self.grid.shape[2]), dtype=complex)
        self.bounds = np.empty((columns, n_rows))
        self.pending, self.held, self.sweeps = 0, 0, 1

    def unit(self, path: PathParams):
        """``(atoms, unit)``: the footprint of ``path`` at gain 1 as a
        ``left`` column, a ``right`` row and that column's row bound, and the
        ``_steering_matrices`` it was built from.  A lattice path
        (``BeamspaceGrid._lattice_index``) reads its factors off the grid's
        ``_offset_kernels``, and ``atoms`` is None; any other path's are the
        ``_kernel_factors`` of its steering matrices."""
        grid = self.grid
        at = grid._lattice_index(path)
        if at is None:
            atoms = _steering_matrices(grid.config, [path.delay], [path.aod],
                                       [path.aoa])
            left, right = _kernel_factors(grid._matrices, atoms, np.ones(1))
            left, right = left[:, 0], right[0]
        else:
            atoms = None
            rx, tx, right = (kernel[n - 1 - p:2 * n - 1 - p] for kernel, p, n
                             in zip(grid._offset_kernels, at, grid.shape))
            left = np.multiply.outer(rx, tx).ravel()
        return atoms, (left, right, np.abs(left) * np.abs(right).max())

    def put(self, column: int, unit, gain: complex) -> None:
        "Column ``column``: the ``unit`` footprint times ``gain``, and its bound."
        np.multiply(unit[0], gain, out=self.left[:, column])
        self.right[column] = unit[1]
        np.multiply(unit[2], abs(gain), out=self.bounds[column])

    def hold(self, unit, gain: complex) -> None:
        "Hold the ``unit`` footprint times ``gain`` after the pending and held ones."
        self.put(self.pending + self.held, unit, gain)
        self.held += 1

    def append(self, unit, gain: complex) -> int:
        """Make the ``unit`` footprint times ``gain`` pending and drop the
        held ones; its column."""
        column = self.pending
        self.put(column, unit, gain)
        self.pending, self.held = column + 1, 0
        return column

    def residual_at(self, i: np.ndarray, j: np.ndarray, l: np.ndarray) -> np.ndarray:
        """Values of the grid minus the pending footprints at the lattice
        indices (i, j, l), read by ``_point_value`` in chunks of at most the
        row cache's ``limit`` distinct rows."""
        n = self.pending
        factors = (self.left[:, :n], self.right[:n]) if n else None
        _, row = np.unique(i * self.grid.shape[1] + j, return_inverse=True)
        chunk = row // self.grid._lattice_rows.limit
        values = np.empty(len(row), dtype=complex)
        for c in np.unique(chunk):
            at = np.flatnonzero(chunk == c)
            values[at] = _point_value(self.grid, i[at], j[at], l[at], factors)
        return values

    def _kept(self, near: PathParams | None):
        """The pending and held columns as factors, and the ascending rows
        that can hold the peak of the grid minus their footprints
        (``_bound_rows``): each row's reach is the columns' ``bounds``
        summed, and a pick near ``near`` is floored by the magnitude at the
        lattice point nearest it (``_point_value``), capped at that row's
        own bound, so the row is always kept."""
        n = self.pending + self.held
        factors, reach = (self.left[:, :n], self.right[:n]), self.bounds[:n].sum(axis=0)
        floor = None
        if near is not None:
            i, j, l = _nearest_point(self.grid, near)
            row = i * self.grid.shape[1] + j
            floor = min(abs(_point_value(self.grid, i, j, l, factors)),
                        self.row_peaks[row] + reach[row])
        return factors, _bound_rows(self.row_peaks, reach, floor)

    def pick(self, refine: bool = False, near: PathParams | None = None) -> PathParams:
        """The peak of the grid minus the pending and held footprints, as a
        path (``BeamspaceGrid._path_at``, sub-grid with ``refine``), with
        the floor of ``near`` (``_kept``) if given.

        It keeps the rows once and evaluates them with ``tentative_peak``.
        It is the one choice of a full sweep: when none is held and
        ``_MAX_PENDING`` are pending or the kept rows are more than
        ``_MAX_KEPT_SHARE`` of all, one ``peak_sweep`` first writes the
        pending footprints into the grid and records the row peaks again,
        none is pending, and the rows are kept once more.
        """
        factors, rows = self._kept(near)
        if self.pending and not self.held and (
                self.pending >= _MAX_PENDING
                or len(rows) > _MAX_KEPT_SHARE * len(self.row_peaks)):
            start = time.perf_counter()
            peak_sweep(self.grid, factors, self.row_peaks)
            self.pass_s += time.perf_counter() - start
            self.sweeps += 1
            self.pending = 0
            factors, rows = self._kept(near)
        return self.grid._path_at(*tentative_peak(self.grid, factors, rows),
                                  refine, factors)


def _picker_bytes(config: SounderConfig, spec: GridSpec, extra: int) -> int:
    """Bytes that a ``_PendingFootprints`` with ``extra`` columns allocates
    for a response of ``config`` on ``spec``: the stored AoD plane, the
    transform's AoD- and delay-transformed lines (n_rx x n_tx x
    n_freq*os_delay complex128 values), the ``_MAX_PENDING`` + ``extra``
    factor columns of n_aoa*n_aod complex128 values with their float64 row
    bounds, the cap of the lattice rows that its tentative picks hold
    (``_HELD_ENTRIES`` values), and its grid's ``_offset_kernels``,
    ``_offset_phases`` and ``_real_kernels`` (2n - 1 complex128, complex128
    and float64 values each for an axis of n points)."""
    n_aoa, n_aod = config.n_rx * spec.os_aoa, config.n_tx * spec.os_aod
    n_tau = config.n_freq * spec.os_delay
    return (spec._plane_bytes(config) + 16 * config.n_rx * config.n_tx * n_tau
            + (16 + 8) * n_aoa * n_aod * (_MAX_PENDING + extra) + 16 * _HELD_ENTRIES
            + (16 + 16 + 8) * (2 * (n_aoa + n_aod + n_tau) - 3))


# curvature, relative to the samples, below which a parabola is flat: far
# above rounding (equal rows that rounding made differ), far below a peak's
_FLAT_CURVATURE = 1e-12


def _parabolic_offset(y_lo: float, y_0: float, y_hi: float) -> float:
    """Vertex offset in [-0.5, 0.5] grid steps of the parabola through 3
    samples; 0 unless it is a proper local maximum, curved beyond rounding."""
    denom = y_lo - 2.0 * y_0 + y_hi
    if denom >= -_FLAT_CURVATURE * (abs(y_lo) + 2.0 * abs(y_0) + abs(y_hi)):
        return 0.0
    return float(np.clip(0.5 * (y_lo - y_hi) / denom, -0.5, 0.5))


def _point_value(grid: BeamspaceGrid, a: int | list[int], b: int | list[int],
                 c: int | list[int],
                 factors: tuple[np.ndarray, np.ndarray] | None = None):
    """Value at lattice index (a, b, c) of the grid minus the footprints of
    ``factors`` (their ``_kernel_factors``), if given, without writing the
    grid: its row is read through ``grid._lattice_rows``.  With arrays of
    indices (at most ``limit`` distinct rows), the value at each, their rows
    gathered in one call."""
    row = np.asarray(a) * grid.shape[1] + b
    rows, at = np.unique(row, return_inverse=True)
    values, slots = grid._lattice_rows.gather(grid, rows)
    value = values[slots[at], c]
    if factors is not None:
        value = value - np.sum(factors[0][row] * factors[1][:, c].T, axis=-1)
    return value


def _nearest_point(grid: BeamspaceGrid, path: PathParams) -> tuple[int, int, int]:
    """Index of the lattice point nearest ``path``'s geometry: the angles
    wrap, and the delay is clipped to the axis."""
    n_aoa, n_aod, n_tau = grid.shape
    l = round(path.delay * grid.config.bandwidth_hz * grid.spec.os_delay)
    return (round((path.aoa + 0.5) * n_aoa) % n_aoa,
            round((path.aod + 0.5) * n_aod) % n_aod, min(max(l, 0), n_tau - 1))


def _refine_peak(
    grid: BeamspaceGrid, i: int, j: int, l: int,
    factors: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, float, float]:
    """Sub-grid coordinates of the peak at index (i, j, l) by per-axis
    quadratic interpolation of |value|.

    With ``factors`` (the ``_kernel_factors`` of some footprints) the values
    are those of the grid minus the footprints: the seven that are read
    (five rows) are one ``_point_value``, and the grid is not written.
    Angle axes wrap periodically; the delay axis skips refinement at its
    edges.  Offsets are clamped to half a grid step per axis.
    """
    n_aoa, n_aod, n_tau = grid.shape
    # (i, j, l), then its neighbours along AoA, AoD and delay
    mag = np.abs(_point_value(
        grid, [i, (i - 1) % n_aoa, (i + 1) % n_aoa, i, i, i, i],
        [j, j, j, (j - 1) % n_aod, (j + 1) % n_aod, j, j],
        [l, l, l, l, l, max(l - 1, 0), min(l + 1, n_tau - 1)], factors))
    d_aoa = _parabolic_offset(mag[1], mag[0], mag[2])
    d_aod = _parabolic_offset(mag[3], mag[0], mag[4])
    d_tau = _parabolic_offset(mag[5], mag[0], mag[6]) if 0 < l < n_tau - 1 else 0.0
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
    Both come from each block of the transform's stored AoD rows as it is
    made, one AoA row at a time, with no derived row: along AoD the lattice
    samples a trigonometric polynomial of degree n_tx over a whole period,
    so by Parseval, with ``plane_i`` the n_tx stored rows of AoA row i,

        aoa_delay[i] = os_aod * sum_q |plane_i[q, :]|^2
        aoa_aod[i] = max(0, diag(Q G_i Q^H)),  G_i = plane_i plane_i^H

    where ``Q = m_tx m_tx[::os_aod]^H / n_tx`` (``interp``) maps the stored
    rows onto every AoD row (the clamp undoes rounding below 0 of the
    quadratic form).  The grid is never held: besides the transform's own
    temporaries, the only ones are an AoA row's.
    """
    cfg = response.config
    m_rx, m_tx, m_f = spec._matrices(cfg)
    step = spec.os_aod
    interp = m_tx @ m_tx[::step].T.conj() / cfg.n_tx
    interp_conj = interp.conj()
    aoa_aod = np.empty((len(m_rx), len(m_tx)))
    aoa_delay = np.empty((len(m_rx), m_f.shape[1]))

    def accumulate(first: int, rows: np.ndarray) -> None:
        for i, plane in enumerate(rows, first):
            np.sum(np.abs(plane) ** 2, axis=0, out=aoa_delay[i])
            aoa_delay[i] *= step
            gram = plane @ plane.T.conj()
            np.sum(interp @ gram * interp_conj, axis=1).real.clip(0, out=aoa_aod[i])

    _separable_transform(response.values, m_rx, m_tx[::step], m_f,
                         lambda: accumulate, keep=False)
    return aoa_aod, aoa_delay
