"""Oversampled angle-delay (beamspace) representation of a measured response.

The transform maps an (rx, tx, frequency) response tensor onto a 3D lattice of
(AoA, AoD, delay) points.  It is the direct separable triple sum, computed as
three products with the lattice matrices of ``sounder._lattice_matrices``
(``sounder._separable_transform``; ``beamspace_transform`` gives their
order), the same separable map that gives the critically sampled virtual
coefficients; no FFT is involved.

One kernel per axis.  The beamspace footprint of a path, the transform of
its atom, is separable, and along each axis it is a shifted Dirichlet
kernel times a phase linear in the offset (Sayeed, IEEE TSP 2002).
``_axis_kernel`` is its one source: for an axis' (elements, oversampling,
phase slope) and offsets u, in lattice steps past the path's own position,
it returns ``(phase, real)``, the factor being ``phase * real`` (the AoA
factor also carries 1/(n_rx n_tx n_freq)).  Its readers:

- a grid's ``_offset_tables``, each axis' kernel over the integer offsets
  of its lattice, built once per grid.  A lattice path's footprint factors
  are windows of them (``_footprint``), and the Gram of lattice atoms,
  ``diag(phase) R diag(phase)^H`` with ``R`` real symmetric, is gathered
  from them by index differences (``_lattice_gram``) for greedy-LS's
  candidates and its global refit;
- a path off the lattice: the kernel at its fractional offsets
  (``_footprint``, for the picker's ``unit`` and ``single_path_grid``);
- the coset interpolators below, and ``pdp_marginals``, which gathers the
  AoD table.

Greedy subtraction of a path therefore agrees with transforming the
frequency-domain residual up to floating-point rounding.

A grid made by ``beamspace_transform`` stores only the critically sampled
plane: the rows of every os_aoa-th AoA and every os_aod-th AoD point,
n_rx x n_tx x n_tau values, so its memory grows with os_delay alone (18 MB
at the paper protocol, where the whole lattice takes 292 MB).  A grid whose
plane of every AoA row holds at most ``_AOA_PLANE_ENTRIES`` values (32 MB;
the desk grid, and the paper grid at oversample 2) stores that plane
instead, as at os_aoa = 1: there deriving AoA rows would save little
memory for much per-call overhead.  Each angle
axis spans a whole period, so every oversampled point is a fixed
interpolation of the critical samples: the derived rows of an axis are
``P`` times its stored rows, with entry (k, q') of ``P`` the axis kernel at
offset k - os*q' over its elements, ``diag(post) R diag(pre)`` with ``R``
real (``_coset_kernel``, ``BeamspaceGrid._kernels``).

- Along AoA the plane is stored in the real frame: stored AoA row p is
  ``pre[p]`` times the lattice's, so the derived AoA rows of a few stored
  rows are one real product of their ``R`` rows with the whole plane's
  float view (``_derived_aoa_rows``; the plane is the transform's
  delay-transformed lines, its AoA matrix applied first to the tones),
  and a lattice AoA row is its phase
  (``BeamspaceGrid._aoa_phase``) times its real-frame rows.
- Along AoD the derived rows of an AoA row are one real product with its
  stored rows times ``pre``; the scans take magnitudes without ``post``.

The kernels are applied in two places: a full pass (``_row_scan``) derives
every row, and the row cache (``_LatticeRows``) derives the rows that are
read outside one (``tentative_peak``, ``_point_value`` and ``.values``,
which materializes the whole lattice on access), holding the derived AoA
rows it made; a writing sweep drops its rows and refills its held derived
AoA rows with those it derives itself.  A grid built from
an array stores every row and derives none; its row cache is the plane
itself.  A grid that stores every AoA row derives none of them and stores
the plane as the lattice's.

Every grid-wide pass after the transform is one blocked kernel,
``peak_sweep``: it subtracts rank-K footprint factors from the stored
plane, block of stored AoA rows by block, writes the difference back, and
its read-only scan derives the other rows and finds the peak magnitude over
all rows; it can also record each (AoA, AoD) row's peak magnitude.  Where
AoA rows are derived the pass is two phases, since a derived AoA row reads
every stored one: all blocks are written, then derived and scanned.  The
transform runs the read-only scan once when asked for the row
peaks.  ``pdp_marginals`` sums its power maps from the transform's blocks
by Parseval, from the stored rows alone, and keeps no grid.
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
spans, one per CPU, on ``mpcx.pool.run_blocks``.  Block shapes do not
depend on the split, every entry gets the same arithmetic in any span and
the sweep's block peaks merge in block order, so a split gives the same
bits as one span.  A small grid stays one span on the calling thread, and
a tentative peak always does; nothing is configurable.
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
    _positive_int,
    _separable_transform,
)


# entries of the plane of every AoA row (at every os_aod-th AoD row) up to
# which a transform stores that plane, 32 MB: on such a grid deriving AoA
# rows saves little memory and costs more in per-call overhead than in
# arithmetic (desk-trials ran 20-30% slower, and the paper grid's 28 passes
# at oversample 2, 18 MB, 0.1-0.2 s slower), while the paper protocol's
# plane is 73 MB at oversample 4
_AOA_PLANE_ENTRIES = 1 << 21


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
            _positive_int(name, getattr(self, name))

    def aoa_axis(self, config: SounderConfig) -> np.ndarray:
        n = config.n_rx * self.os_aoa
        return -0.5 + np.arange(n) / n

    def aod_axis(self, config: SounderConfig) -> np.ndarray:
        n = config.n_tx * self.os_aod
        return -0.5 + np.arange(n) / n

    def delay_axis(self, config: SounderConfig) -> np.ndarray:
        n = config.n_freq * self.os_delay
        return np.arange(n) / (config.bandwidth_hz * self.os_delay)

    def _aoa_step(self, config: SounderConfig) -> int:
        """Step between the AoA rows that ``beamspace_transform`` stores on
        this lattice: os_aoa, the critical rows, where the plane of every
        AoA row would hold more than ``_AOA_PLANE_ENTRIES`` values, else 1."""
        entries = config.n_rx * self.os_aoa * config.n_tx * config.n_freq * self.os_delay
        return self.os_aoa if entries > _AOA_PLANE_ENTRIES else 1

    def _plane_bytes(self, config: SounderConfig) -> int:
        """Bytes of the plane that ``beamspace_transform`` stores on this
        lattice: every ``_aoa_step``-th AoA row at every os_aod-th AoD row,
        n_rx*os_aoa/step x n_tx x n_freq*os_delay complex128 values."""
        return (16 * config.n_rx * self.os_aoa // self._aoa_step(config) * config.n_tx
                * config.n_freq * self.os_delay)

    def _matrices(self, config: SounderConfig):
        "``sounder._lattice_matrices`` of this lattice's axes."
        return _lattice_matrices(config, self.delay_axis(config),
                                 self.aod_axis(config), self.aoa_axis(config))

    def _axes(self, config: SounderConfig) -> tuple[tuple[int, int, int], ...]:
        "(elements, oversampling, phase slope) of the AoA, AoD and delay axes."
        return ((config.n_rx, self.os_aoa, config.n_rx - 1),
                (config.n_tx, self.os_aod, 1 - config.n_tx),
                (config.n_freq, self.os_delay, 1))

    def _offset_table(self, config: SounderConfig,
                      axis: int) -> tuple[np.ndarray, np.ndarray]:
        """``_axis_kernel`` of axis ``axis`` (0 AoA, 1 AoD, 2 delay) over the
        integer offsets 1 - n .. n - 1 of its n lattice points, offset d at
        entry d + n - 1."""
        elements, oversampling, slope = self._axes(config)[axis]
        n = elements * oversampling
        return _axis_kernel(elements, oversampling, slope, np.arange(1 - n, n))


class BeamspaceGrid:
    """Complex beamspace tensor over (AoA, AoD, delay) lattice points.

    Normalization contract: a single path whose parameters sit exactly on the
    lattice produces its complex gain at the matching grid point.

    Storage contract: the grid stores ``_plane``, the rows of every
    ``_steps[0]``-th AoA and every ``_steps[1]``-th AoD point (n_aoa/step_0
    x n_aod/step_1 x n_tau values), and derives the other rows from it with
    ``_kernels``.  ``BeamspaceGrid(values, spec, config)`` stores the whole
    array (steps (1, 1), no derived rows; the sweep writes into it);
    ``beamspace_transform`` stores the critically sampled plane, steps
    (os_aoa, os_aod): n_rx x n_tx x n_tau values, or, where the plane of
    every AoA row holds at most ``_AOA_PLANE_ENTRIES`` values, that plane,
    steps (1, os_aod) (``GridSpec._aoa_step``).  ``values`` is the stored
    array for a grid that derives nothing, and otherwise a new array that
    materializes the whole lattice.
    """

    def __init__(self, values: np.ndarray, spec: GridSpec, config: SounderConfig):
        self.spec, self.config = spec, config
        self._plane, self._steps = values, (1, 1)

    @property
    def shape(self) -> tuple[int, int, int]:
        "(n_aoa, n_aod, n_tau) of the whole lattice."
        n_rows, n_stored, n_tau = self._plane.shape
        return n_rows * self._steps[0], n_stored * self._steps[1], n_tau

    @property
    def values(self) -> np.ndarray:
        """The whole lattice: the stored array, or a new one filled from a
        fresh ``_LatticeRows``, ``limit`` rows a call."""
        if self._steps == (1, 1):
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
    def _kernels(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray] | None, ...]:
        "``_coset_kernel`` of the AoA and of the AoD table at this grid's steps."
        return tuple(_coset_kernel(self._offset_tables[axis], n, step) for axis, n, step
                     in zip((0, 1), (self.config.n_rx, self.config.n_tx), self._steps))

    @cached_property
    def _aoa_phase(self) -> np.ndarray:
        """Per lattice AoA row, the phase that takes its real-frame stored
        rows to lattice values: the AoA ``_coset_kernel``'s ``conj(pre)``
        for a stored row and ``post`` for a derived one.  A grid that
        derives AoA rows stores its plane in that frame: stored AoA row p is
        ``pre[p]`` times the lattice's, so ``real`` alone derives the rest."""
        real, pre, post = self._kernels[0]
        phase = np.empty(self.shape[0], dtype=complex)
        phase[::self._steps[0]] = pre.conj()
        phase.reshape(-1, self._steps[0])[:, 1:] = post.reshape(len(pre), -1)
        return phase

    @cached_property
    def _lattice_rows(self) -> _LatticeRows:
        """Lattice rows of the plane as it stands, for ``tentative_peak`` and
        ``_point_value``; a ``peak_sweep`` that writes the plane drops them
        (``_LatticeRows.drop``)."""
        return _LatticeRows(self)

    @cached_property
    def _offset_tables(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``GridSpec._offset_table`` of each axis, built once per grid:
        ``(phase, real)`` at entry ``d + n - 1`` of an axis of n points is
        its kernel d points past a path's own index, so the path at index p
        reads its factors in the window ``[n - 1 - p, 2n - 1 - p)``."""
        return tuple(self.spec._offset_table(self.config, axis) for axis in range(3))

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
        symmetric, gathered by index differences: entry (a, b) is the
        product of the ``_offset_tables`` reals at index a minus index b,
        one per axis.  ``phase`` is the product of the three tables' phases
        at each index (its offset from index 0), so |R| = |A^H A| and both
        have the same eigenvalues."""
        (p_rx, k_rx), (p_tx, k_tx), (p_f, k_f) = self._offset_tables
        i, j, l = at
        n_aoa, n_aod, n_tau = self.shape
        gram = k_rx[np.add.outer(i, n_aoa - 1 - i)]
        gram *= k_tx[np.add.outer(j, n_aod - 1 - j)]
        gram *= k_f[np.add.outer(l, n_tau - 1 - l)]
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


def _axis_kernel(n, os, slope, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(phase, real)``: the factor of a unit path's footprint along an
    axis of ``n`` elements and n*os lattice points, ``u`` lattice steps
    (any real or integer array) past the path's own position, is ``phase *
    real``, the axis' steering sum as a shifted Dirichlet kernel (Sayeed,
    IEEE TSP 2002):

        real(u) = sin(pi u / os) / sin(pi u / (n os))
        phase(u) = exp(-j pi slope u / (n os))

    ``n``, ``os`` and ``slope`` are integers or integer arrays of ``u``'s
    shape, one axis per entry, so several axes' offsets take one call with
    the bits of one call per axis.  ``real`` is evaluated at u' = u - k n
    os, k the nearest integer to u / (n os), as (-1)^(k (n + 1)) real(u'),
    and on |u'|, so it is exactly even in u, exactly 0 at the nonzero
    multiples of ``os`` below n os, and accurate where both sines are
    small; within 1e-9 of u' = 0, where the ratio is n to rounding, it is
    exactly n.  ``phase`` is reduced to [0, 2 pi) before the exponential,
    in integers for an integer ``u``."""
    n_pts = n * os
    phase = np.exp(-1j * np.pi * (slope * u % (2 * n_pts)) / n_pts)
    k = np.round(u / n_pts)
    a = np.abs(u - k * n_pts)
    off = a > 1e-9
    real = np.divide(np.sin(np.pi / os * a), np.sin(np.pi / n_pts * a),
                     out=np.broadcast_to(np.asarray(n, dtype=float), a.shape).copy(),
                     where=off)
    real[off & (a % os == 0)] = 0.0
    real *= (-1.0) ** (k * (n + 1))
    return phase, real


def _coset_kernel(table: tuple[np.ndarray, np.ndarray], n: int,
                  step: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``(real, pre, post)``: the interpolator ``P`` of the derived rows k =
    step*q + s (s = 1..step-1, in (q, s) order) of an angle axis of ``n``
    elements from its stored rows q', ``P = M_s M_0^H / n`` with ``M_0``
    and ``M_s`` the stored and the derived rows of the axis' lattice matrix
    (``M_0 M_0^H`` is a multiple of I).  Its entry (k, q') is the axis
    kernel at offset k - step*q' over n, so with the axis ``table``
    ``(phase, real)`` of ``GridSpec._offset_table``, ``P = diag(post) real
    diag(pre)``:

        real[(q, s), q'] = real(k - step q') / n
        pre[q'] = phase(-step q'),  post[k] = phase(k)

    ``real`` is float64 [n*(step-1) x n], so along AoD the derived rows of
    an AoA row cost one real product with its pre-scaled stored rows (half
    the multiply-adds of a complex one), and their magnitudes need no
    ``post`` (|post| = 1).  None at step 1, where no row is derived."""
    if step == 1:
        return None
    phase, real = table
    n_pts = n * step
    stored = step * np.arange(n)
    k = (stored[:, None] + np.arange(1, step)).ravel()
    return (real[n_pts - 1 + k[:, None] - stored] / n, phase[n_pts - 1 - stored],
            phase[n_pts - 1 + k])


def beamspace_transform(response: FrequencyResponse, spec: GridSpec,
                        row_peaks: np.ndarray | None = None) -> BeamspaceGrid:
    """Map a frequency response onto the oversampled AoA-AoD-delay lattice.

    The value at grid point (theta_r, theta_t, tau) is

        (1 / (n_rx*n_tx*n_freq)) * sum_{r,t,m}
            conj(a_rx(theta_r))_r * H[r,t,m] * a_tx(theta_t)_t
            * exp(+j*2*pi*tau*f_m)

    the same separable map as ``virtual_coefficients``, evaluated on the
    grid axes by ``sounder._separable_transform``.  Only the stored rows
    (every ``GridSpec._aoa_step``-th AoA and every os_aod-th AoD point: the
    critically sampled ones, or every AoA row on a small grid) are computed
    and kept, so the AoD matrix applied is square; the grid derives the
    other rows (see ``BeamspaceGrid``).  Where every AoA row is stored the
    lattice matrices are applied AoD first, then delay, then AoA a block of
    rows at a time into the preallocated plane.  Where AoA rows are
    derived, the square matrix of the stored AoA rows, in the real frame of
    ``BeamspaceGrid._aoa_phase``, is applied first, to the response's
    tones, and the AoD and delay products then make the plane itself.

    With ``row_peaks`` (one float per row of the ``(aoa*aod, delay)`` view)
    the plane is scanned by the read-only scan of ``peak_sweep``, which
    records the row maxima there: each block as it is made where every AoA
    row is stored (without a second pass over the plane), and in one pass
    over the made plane otherwise.  A magnitude that is not finite raises
    the ValueError of that read-only sweep, naming the same index, once the
    plane is made.
    """
    cfg = response.config
    m_rx, m_tx, m_f = spec._matrices(cfg)
    step, n_tau = spec._aoa_step(cfg), m_f.shape[1]
    m_tx = m_tx[::spec.os_aod]
    if step > 1:
        pre = _coset_kernel(spec._offset_table(cfg, 0), cfg.n_rx, step)[1]
        values = np.empty_like(response.values)
        with np.errstate(invalid="ignore"):  # named by the scan, as below
            np.matmul(m_rx[::step] * pre[:, None], response.values.reshape(cfg.n_rx, -1),
                      out=values.reshape(cfg.n_rx, -1))
        grid = BeamspaceGrid(_separable_transform(values, None, m_tx, m_f), spec, cfg)
        grid._steps = (step, spec.os_aod)
        if row_peaks is not None:
            _sweep(grid, None, row_peaks)
        return grid
    shape = (len(m_rx), cfg.n_tx * spec.os_aod, n_tau)
    each_block = peaks = None
    if row_peaks is not None:
        kernel = _coset_kernel(spec._offset_table(cfg, 1), cfg.n_tx, spec.os_aod)
        aoa_rows = _scan_rows(shape, spec.os_aod)
        peaks = [None] * len(m_rx)  # block peaks by first AoA row

        def each_block():
            scan = _row_scan(kernel, None, row_peaks, aoa_rows, cfg.n_tx, n_tau)

            def scan_rows(first: int, rows: np.ndarray) -> None:
                for i0 in range(0, len(rows), aoa_rows):
                    peaks[first + i0] = scan(first + i0, rows[i0:i0 + aoa_rows])
            return scan_rows

    grid = BeamspaceGrid(_separable_transform(response.values, m_rx, m_tx, m_f, each_block),
                         spec, cfg)
    grid._steps = (1, spec.os_aod)
    if peaks is not None:
        _first_peak((p for p in peaks if p is not None), shape)
    return grid


def _footprint(grid: BeamspaceGrid,
               path: PathParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The AoA, AoD and delay factors of the footprint of ``path`` at gain 1
    on the lattice of ``grid``, each ``phase * real`` of ``_axis_kernel``,
    the AoA factor times 1/(n_rx n_tx n_freq): windows of the grid's
    ``_offset_tables`` for a lattice path (``BeamspaceGrid._lattice_index``)
    and, for any other, the kernel at its fractional offsets, index minus
    the path's position in lattice steps, the three axes in one call."""
    at = grid._lattice_index(path)
    shape = grid.shape
    if at is None:
        cfg = grid.config
        positions = ((path.aoa + 0.5) * shape[0], (path.aod + 0.5) * shape[1],
                     path.delay * cfg.bandwidth_hz * grid.spec.os_delay)
        u = np.concatenate([np.arange(n) - p for n, p in zip(shape, positions)])
        phase, real = _axis_kernel(*(np.repeat(column, shape)
                                     for column in zip(*grid.spec._axes(cfg))), u)
        split = np.cumsum(shape[:2])
        kernels = zip(np.split(phase, split), np.split(real, split))
    else:
        kernels = ((phase[n - 1 - p:2 * n - 1 - p], real[n - 1 - p:2 * n - 1 - p])
                   for (phase, real), p, n in zip(grid._offset_tables, at, shape))
    rx, tx, f = (phase * real for phase, real in kernels)
    rx /= grid.config.n_rx * grid.config.n_tx * grid.config.n_freq
    return rx, tx, f


def single_path_grid(path: PathParams, spec: GridSpec, config: SounderConfig) -> BeamspaceGrid:
    """Beamspace footprint of a single path (the subtraction kernel): the
    product of its ``_footprint`` factors times its gain, the one-path case
    of the footprints that ``peak_sweep`` subtracts.

    Equals ``beamspace_transform(synthesize_response(config, [path]), spec)``
    up to floating-point rounding -- the contract that makes greedy peak
    subtraction leave no self-noise.
    """
    grid = BeamspaceGrid(np.empty((config.n_rx * spec.os_aoa, config.n_tx * spec.os_aod,
                                   config.n_freq * spec.os_delay), dtype=complex),
                         spec, config)
    rx, tx, f = _footprint(grid, path)
    np.multiply(np.multiply.outer(rx * path.gain, tx)[:, :, None], f, out=grid._plane)
    return grid


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


# stored AoA rows whose derived AoA rows one product of a pass makes.  The
# product reads the whole plane, so few rows cost about as much as more: at
# the paper protocol a product of 3 derived rows takes 0.84 ms and one of 6
# 0.94 ms, 29 against 17 ms for the 105 derived rows of a pass.  Products of
# 12 rows held twice the rows in each span and raised the peak RSS of a
# paper-grid trial by 14 MB
_AOA_GROUPS = 2

# float columns of the plane per product of ``_derived_aoa_rows``: a slice
# of 16 KB of each stored AoA row stays in cache while the derived rows are
# made from it.  At the paper protocol, one BLAS thread, 3 and 6 derived
# rows take 0.84 and 0.94 ms so, against 1.55 and 1.37 ms in one product
# over the whole plane, with the same bits
_DERIVE_COLUMNS = 2048


def _scan_rows(shape: tuple[int, int, int], step: int) -> int:
    """Lattice AoA rows per scan of a pass over a grid of lattice ``shape``
    that stores every ``step``-th AoD row.  A scan's derived AoD rows and
    their magnitudes need more room than its stored rows: a scan is 1/step
    of ``_BLOCK_ENTRIES`` lattice entries, so it stays cache-resident (at
    step 4 on the desk grid 1.5x faster)."""
    return max(1, _BLOCK_ENTRIES // (shape[1] * shape[2] * step))


def _derived_aoa_rows(grid: BeamspaceGrid, groups: list[int],
                      out: np.ndarray) -> tuple[list[int], np.ndarray]:
    """``(groups, rows)``: the derived AoA rows after the stored AoA rows
    ``groups`` (ascending), each its stored AoD rows in the real frame
    [n_stored x n_tau], made in ``out`` in lattice order: their AoA
    ``real`` rows times the whole plane's float view, one product per slice
    of ``_DERIVE_COLUMNS`` columns.  A matrix product gives a row the same
    bits whatever rows or columns are made with it; a product of one row
    would run on BLAS's vector kernel, whose rounding differs, so a lone
    derived row (at os_aoa = 2) is made with its neighbour group's, which
    ``groups`` then lists too (``out`` has room for two rows), unless it is
    the grid's only derived row."""
    n_rows, per = len(grid._plane), grid._steps[0] - 1
    if len(groups) * per == 1 and n_rows > 1:
        p = groups[0]
        groups = [p, p + 1] if p + 1 < n_rows else [p - 1, p]
    real = grid._kernels[0][0][(np.array(groups)[:, None] * per + np.arange(per)).ravel()]
    rows = out[:len(real)]
    plane = grid._plane.reshape(n_rows, -1).view(float)
    made = rows.reshape(len(real), -1).view(float)
    for c in range(0, plane.shape[1], _DERIVE_COLUMNS):
        np.matmul(real, plane[:, c:c + _DERIVE_COLUMNS], out=made[:, c:c + _DERIVE_COLUMNS])
    return groups, rows


def _row_scan(kernel: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
              aoa_phase: np.ndarray | None, row_peaks: np.ndarray, aoa_rows: int,
              n_stored: int, n_tau: int):
    """The read-only scan of ``peak_sweep``, with one span's scratch buffers.

    ``scan(i0, block)`` takes the stored AoD rows of lattice AoA rows
    i0..i0+b-1 (``block``, [b x n_stored x n_tau], b <= ``aoa_rows``),
    derives their other AoD rows with the AoD ``_coset_kernel`` ``kernel``
    ``(real, pre, post)``: each AoA row's stored rows times ``pre`` go into
    one buffer, and ``real`` times it, one real product on its float view,
    gives the derived rows without their ``post`` phases, which leave the
    magnitudes as they are.  It writes the maximum magnitude of every (AoA,
    AoD) row into ``row_peaks`` (one float per row of the ``(aoa*aod,
    delay)`` view) and returns the block's peak as (magnitude, flat lattice
    index, value): the first maximum in (aoa, aod, delay) order over stored
    and derived rows together.  Only that value gets its row's ``post``,
    and, on a grid that derives AoA rows, whose ``block`` is in the AoA real
    frame, its AoA row's phase ``aoa_phase`` (``BeamspaceGrid._aoa_phase``).
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
        if aoa_phase is not None:
            phase = phase * aoa_phase[i0 + i]
        return float(row_mag[k]), (i0 * n_aod + r) * n_tau + k, complex(row[k] * phase)

    return scan


def peak_sweep(
    grid: BeamspaceGrid,
    factors: tuple[np.ndarray, np.ndarray] | None = None,
    row_peaks: np.ndarray | None = None,
) -> tuple[int, int, int, complex]:
    """Peak of ``|grid - footprints|`` in one pass.

    ``factors`` are the rank-K factors ``(left, right)`` of K footprints on
    the ``(aoa*aod, delay)`` view of the whole lattice, or None for no
    footprint: ``left[:, k]`` is the gain times the outer product of the
    AoA and AoD ``_footprint`` factors of footprint k, flattened, and
    ``right[k]`` its delay factor.  Walks blocks of stored AoA rows: those
    of one scan (``_scan_rows``), or ``_AOA_GROUPS`` where AoA rows are
    derived.  Each block gets all footprints subtracted from its stored
    rows as one rank-K product, written back.  The read-only scan then
    derives the other rows and takes the magnitudes and maxima of every
    (AoA, AoD) row (``_row_scan``).  On a grid that derives AoA rows every
    block is written first, and then each block's derived AoA rows are
    made from the whole plane (``_derived_aoa_rows``) and its lattice AoA
    rows are scanned in order, ``_scan_rows`` at a time (stacked into one
    buffer where that is more than one); on any other grid a block is
    written and scanned in the same step.  The first maximum in (aoa,
    aod, delay) order over stored and derived rows is kept, so exact
    magnitude ties resolve to the lowest index triple, as in ``np.argmax``
    over the whole lattice.  The row maxima go into
    ``row_peaks`` (one float per row of the view) if it is given, for the
    picker's row bound.  A sweep with footprints drops the grid's row cache
    (``_LatticeRows.drop``); given ``row_peaks`` on a grid that derives AoA
    rows, it also copies the derived AoA rows of the groups that
    ``_LatticeRows.refill_slots`` picks into the cache's held rows as it
    makes them.  The stored plane must be C-contiguous when there
    are footprints (ValueError otherwise, before anything is written); with
    none it is only read.  A large grid's blocks run in contiguous spans on
    ``pool.run_blocks``; block shapes do not depend on the split, each span
    lists its peaks and one merge walks them in order, so the peak does not
    depend on the split.

    Returns the peak's index triple and the complex difference there; an
    all-zero difference reports index (0, 0, 0) and value 0.  Raises
    ValueError on an empty grid or a magnitude that is not finite, naming
    the lowest offending index that a span reached; in that case the blocks
    of its span up to and including the offending one are already written,
    and so may be blocks of the other spans (every block, on a grid that
    derives AoA rows, where such a value also reaches every derived AoA
    row).
    """
    return _sweep(grid, factors, row_peaks)


def _sweep(grid: BeamspaceGrid, factors: tuple[np.ndarray, np.ndarray] | None,
           row_peaks: np.ndarray | None) -> tuple[int, int, int, complex]:
    """``peak_sweep``, which also makes the first pass of a transform that
    derives AoA rows."""
    plane = grid._plane
    if plane.size == 0:
        raise ValueError("empty beamspace grid")
    if factors is not None and not plane.flags.c_contiguous:
        raise ValueError("grid values must be C-contiguous to be updated in place")
    n_rows, n_stored, n_tau = plane.shape
    n_aoa, n_aod, _ = grid.shape
    step = grid._steps[0]
    derives = grid._kernels[0] is not None
    cache = slots = None
    if factors is not None:
        # the footprints' stored rows, in the plane's frame
        left = factors[0].reshape(n_aoa, n_aod, -1)[::step, ::grid._steps[1]]
        if derives:
            left = left * grid._kernels[0][1][:, None, None]
        if grid._steps != (1, 1) and "_lattice_rows" in grid.__dict__:
            # made from the plane before: its rows are dropped, and the
            # sweep refills its held derived AoA rows with those it makes
            cache = grid._lattice_rows
            cache.drop()
            if derives and row_peaks is not None:
                slots = cache.refill_slots(row_peaks, step)
    if row_peaks is None:
        row_peaks = np.empty(n_aoa * n_aod)
    aoa_rows = _scan_rows(grid.shape, grid._steps[1])
    rows = _AOA_GROUPS if derives else aoa_rows

    def subtract(start: int, stop: int, buf: np.ndarray) -> None:
        "Write the footprints into the stored rows of the blocks in [start, stop)."
        for p0 in range(start, stop, rows):
            block = plane[p0:p0 + rows].reshape(-1, n_tau)
            kernels = buf[:len(block)]
            # np.dot, not np.matmul: matmul runs the rank-1 product, the
            # common case, about 2x slower
            np.dot(left[p0:p0 + rows].reshape(len(block), -1), factors[1], out=kernels)
            np.subtract(block, kernels, out=block)

    def write(start: int, stop: int) -> None:
        with np.errstate(invalid="ignore"):
            subtract(start, stop, np.empty((rows * n_stored, n_tau), dtype=complex))

    if factors is not None and derives:
        # sized by its multiply-adds, K an entry: at the paper protocol 16
        # pending footprints take 7 ms a pass on one thread
        run_blocks(write, n_rows, rows, n_stored * n_tau * len(factors[1]))

    def sweep(start: int, stop: int) -> list[tuple[float, int, complex]]:
        """(magnitude, flat index, value) of each scanned block's first
        peak, up to the first block holding one that is not finite."""
        scan = _row_scan(grid._kernels[1], grid._aoa_phase if derives else None,
                         row_peaks, aoa_rows, n_stored, n_tau)
        if derives:
            per = step - 1
            slab_buf = np.empty((max(2, rows * per), n_stored, n_tau), dtype=complex)
            stack_buf = np.empty((aoa_rows, n_stored, n_tau), dtype=complex)
        elif factors is not None:
            buf = np.empty((rows * n_stored, n_tau), dtype=complex)
        peaks = []
        # an inf value makes NaNs in the products: the merge names it
        with np.errstate(invalid="ignore"):
            for p0 in range(start, stop, rows):
                p1, first = min(p0 + rows, n_rows), len(peaks)
                if not derives:
                    if factors is not None:
                        subtract(p0, p1, buf)
                    peaks.append(scan(p0, plane[p0:p1]))
                else:
                    made, slabs = _derived_aoa_rows(grid, list(range(p0, p1)), slab_buf)
                    if slots is not None:
                        cache.refill(slots, made, slabs, range(p0, p1), step)
                    lattice = []  # the block's lattice AoA rows, in order
                    for p in range(p0, p1):
                        at = (p - made[0]) * per
                        lattice += [plane[p], *slabs[at:at + per]]
                    for k in range(0, len(lattice), aoa_rows):
                        part = lattice[k:k + aoa_rows]
                        block = (part[0][None] if len(part) == 1
                                 else np.stack(part, out=stack_buf[:len(part)]))
                        peaks.append(scan(p0 * step + k, block))
                if not all(math.isfinite(peak[0]) for peak in peaks[first:]):
                    break
        return peaks

    return _first_peak(
        chain.from_iterable(run_blocks(sweep, n_rows, rows, step * n_aod * n_tau)),
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


def _held_groups(per: int, n_rows: int) -> int:
    """Groups of derived AoA rows (the ``per`` that follow a stored AoA row)
    whose stored AoD rows a ``_LatticeRows`` holds at most, on a grid of
    ``n_rows`` stored AoA rows: those of twice ``n_rows`` derived rows, at
    least two groups, or all.  At the paper protocol that is 23 groups of
    35, 36 MB, twice the plane whatever the oversampling.  Criterion 11's
    picks read 542 groups over its 27 writing sweeps; the 23 groups that
    each sweep refills (``_LatticeRows.refill_slots``) hold all but 7 of
    them, and 11 groups, the ``_HELD_ENTRIES`` budget, would miss 259.
    Its picks then make 131 groups in 37 products of ``_derived_aoa_rows``
    (559 in 283 without the refill)."""
    return min(n_rows, max(2, 2 * n_rows // per))


class _LatticeRows:
    """Rows of a grid's lattice as the stored plane stands, each made once:
    the one reader of lattice rows outside a full pass (``tentative_peak``,
    ``_point_value`` and ``BeamspaceGrid.values``).

    Between two writes of the plane, greedy-LS's tentative picks read the
    same few rows again and again (about 15 reads per derived row at the
    paper protocol).  ``gather`` keeps every row it is asked for in
    ``values``, made from the stored AoD rows of its AoA row and that row's
    phase: a stored row is copied from them, and a derived row
    is its row of the AoD ``P``, formed as ``post * real * pre`` from
    ``grid._kernels[1]`` times the phase, times them, one vector-matrix
    product per row, so a row's bits do not depend on the rows made with
    it.  The stored AoD rows of a derived AoA row are held in ``slabs``
    (``_hold``), so each is made once between two writes of the plane, and
    a writing sweep refills them with the groups it derives that the next
    picks most likely read (``refill_slots``), so few are made at all.
    ``drop`` empties the cache for a write and keeps its buffers.
    ``index`` maps a lattice row to its slot, or -1.  At most
    ``limit`` rows (``_HELD_ENTRIES`` values, or the five rows of a
    ``_refine_peak`` if more) are held; a call that needs more room first
    drops them all, and a call asks for at most ``limit`` rows.  ``slabs``
    fill the same way, ``_held_groups`` groups at most.  On a grid
    that derives no row, ``values`` is the plane itself, a view of its
    rows, and ``index`` the identity: nothing is made.
    """

    def __init__(self, grid: BeamspaceGrid):
        n_aoa, n_aod, n_tau = grid.shape
        self.count = 0
        if grid._steps == (1, 1):
            self.values = grid._plane.reshape(n_aoa * n_aod, n_tau)
            self.index = np.arange(n_aoa * n_aod)
            self.limit = max(1, len(self.index))
            return
        self.index = np.full(n_aoa * n_aod, -1)
        self.limit = min(max(1, n_aoa * n_aod), max(5, _HELD_ENTRIES // n_tau))
        # pages that no row is written to are never touched
        self.values = np.empty((self.limit, n_tau), dtype=complex)
        if grid._kernels[0] is not None:
            n_rows, n_stored, _ = grid._plane.shape
            per = grid._steps[0] - 1
            # the held groups' rows, ``per`` a slot, the first ``slots``
            # taken; ``slab_index`` maps a derived AoA row to its row there
            self.slabs = np.empty((_held_groups(per, n_rows) * per, n_stored, n_tau),
                                  dtype=complex)
            self.slab_index = np.full(n_aoa, -1)
            self.slots = 0

    def drop(self) -> None:
        """Drop every row and held derived AoA row made so far, on a grid
        that derives rows.  The buffers stay: a new cache after each writing
        sweep faulted their pages in again, 0.2 s of criterion 11's extract."""
        self.index.fill(-1)
        self.count = 0
        if hasattr(self, "slabs"):
            self.slab_index.fill(-1)
            self.slots = 0

    def refill_slots(self, row_peaks: np.ndarray, step: int) -> np.ndarray:
        """Slot of each stored AoA row's group (its ``step`` - 1 derived AoA
        rows) that a writing sweep refills from the rows it derives, -1 for
        none: the groups whose derived rows have the highest ``row_peaks``
        (the sweep's own, before it scans), as many as ``slabs`` hold, in
        ascending order.  The picks that follow read mostly those
        (``_held_groups``)."""
        peaks = row_peaks.reshape(len(self.slab_index) // step, step, -1)[:, 1:]
        keep = np.sort(np.argsort(-peaks.max(axis=(1, 2)), kind="stable")[
            :len(self.slabs) // (step - 1)])
        slots = np.full(len(peaks), -1)
        slots[keep] = np.arange(len(keep))
        self.slots = len(keep)
        return slots

    def refill(self, slots: np.ndarray, made: list[int], rows: np.ndarray,
               groups: range, step: int) -> None:
        """Hold the derived AoA rows ``rows`` that a sweep made for the
        groups ``made`` (``_derived_aoa_rows``) in the ``refill_slots``
        ``slots`` of ``groups``, those of its block.  The sweep's spans fill
        disjoint slots."""
        per = step - 1
        for p in groups:
            if slots[p] >= 0:
                at, to = (p - made[0]) * per, slots[p] * per
                self.slabs[to:to + per] = rows[at:at + per]
                self.slab_index[p * step + 1:(p + 1) * step] = np.arange(to, to + per)

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

    def _hold(self, grid: BeamspaceGrid, groups: np.ndarray) -> None:
        """Hold the derived AoA rows of the stored AoA rows ``groups``
        (ascending, at most as many as there are slots): the missing ones
        are made into the next free slots by one ``_derived_aoa_rows``
        product; where they do not fit, every held group is dropped first
        and all of ``groups`` are made."""
        step = grid._steps[0]
        per = step - 1
        missing = groups[self.slab_index[groups * step + 1] < 0]
        if not len(missing):
            return
        if (self.slots + len(missing)) * per > len(self.slabs):
            self.slab_index.fill(-1)
            self.slots, missing = 0, groups
        first, self.slots = self.slots, self.slots + len(missing)
        out = self.slabs[first * per:self.slots * per]
        if len(out) == 1 and len(grid._plane) > 1:  # made with a neighbour
            made, rows = _derived_aoa_rows(grid, missing.tolist(),
                                           np.empty((2,) + out.shape[1:], dtype=complex))
            out[0] = rows[made.index(missing[0])]
        else:
            _derived_aoa_rows(grid, missing.tolist(), out)
        self.slab_index[(missing[:, None] * step + np.arange(1, step)).ravel()] = \
            np.arange(first * per, self.slots * per)

    def _make(self, grid: BeamspaceGrid, rows: np.ndarray) -> None:
        """Make ``rows``: in runs whose derived AoA rows ``slabs`` can hold
        at once (the groups of the rows whose AoA row is derived)."""
        step = grid._steps[0]
        if step == 1:
            self._fill(grid, rows)
            return
        aoa = rows // grid.shape[1]
        derived = np.flatnonzero(aoa % step)
        distinct, firsts = np.unique(aoa[derived] // step, return_index=True)
        fits = len(self.slabs) // (step - 1)
        edges = [0, *derived[firsts[fits::fits]].tolist(), len(rows)]
        for lo, hi, g0 in zip(edges, edges[1:], range(0, len(edges) - 1)):
            self._hold(grid, distinct[g0 * fits:(g0 + 1) * fits])
            self._fill(grid, rows[lo:hi])

    def _fill(self, grid: BeamspaceGrid, rows: np.ndarray) -> None:
        """Make ``rows``, their derived AoA rows held: derived AoD rows first,
        each its row of ``P`` formed from the kernel (cheaper than
        pre-scaling the stored rows) times the stored rows of its AoA row,
        one vector-matrix product per row, stacked per AoA row, so a row's
        bits do not depend on the rows made with it (a matrix product of
        several rounds otherwise); then the stored AoD rows, taken from the
        plane and then from the held rows, and times their AoA row's phase
        where AoA rows are derived."""
        step_a, step = grid._steps
        n_stored, n_tau = grid._plane.shape[1:]
        start = self.count
        aoa, aod = np.divmod(rows, grid.shape[1])
        q, s = np.divmod(aod, step)
        # each row's AoA row's stored rows start at row ``at`` of the plane,
        # or of the held rows for a derived AoA row (``held``)
        plane, slabs = grid._plane.reshape(-1, n_tau), None
        at = aoa // step_a * n_stored
        held = aoa % step_a > 0
        if step_a > 1:
            slabs = self.slabs.reshape(-1, n_tau)
            at[held] = self.slab_index[aoa[held]] * n_stored
        derived = np.flatnonzero(s)
        order = [derived, np.flatnonzero((s == 0) & ~held), np.flatnonzero((s == 0) & held)]
        if len(derived):
            real, pre, post = grid._kernels[1]
            c = q[derived] * (step - 1) + s[derived] - 1
            post = post[c] if step_a == 1 else grid._aoa_phase[aoa[derived]] * post[c]
            coef = post[:, None] * real[c] * pre
            a = aoa[derived]
            firsts = [0, *(np.flatnonzero(a[1:] != a[:-1]) + 1).tolist(), len(derived)]
            for lo, hi in zip(firsts, firsts[1:]):
                r = derived[lo]
                np.matmul(coef[lo:hi, None], (slabs if held[r] else plane)[at[r]:at[r] + n_stored],
                          out=self.values[start + lo:start + hi, None])
        middle = start + len(derived)
        stop = start + len(rows)
        # where AoA rows are derived, taken into a buffer and multiplied out
        # of place: an in-place product gave a row other bits in one call
        # than in another
        taken = self.values[middle:stop] if step_a == 1 else np.empty((stop - middle, n_tau),
                                                                      dtype=complex)
        split = len(order[1])
        for source, pick, out in zip((plane, slabs), order[1:], (taken[:split], taken[split:])):
            if len(pick):
                np.take(source, at[pick] + q[pick], axis=0, out=out)
        if step_a > 1:
            stored = np.concatenate(order[1:])
            np.multiply(taken, grid._aoa_phase[aoa[stored], None], out=self.values[middle:stop])
        self.index[rows[np.concatenate(order)]] = np.arange(start, stop)
        self.count = stop


def tentative_peak(
    grid: BeamspaceGrid, factors: tuple[np.ndarray, np.ndarray], rows: np.ndarray,
) -> tuple[int, int, int, complex]:
    """``peak_sweep``'s peak of ``|grid - footprints|`` over the lattice
    rows ``rows`` alone, read-only and without a pass over the grid.

    ``factors`` are the footprints' factors, as ``peak_sweep`` takes them,
    and ``rows`` ascending indices of rows of the ``(aoa*aod, delay)``
    view, such as those that ``_PendingFootprints`` keeps by its row
    bound.  Exactly
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
        """The footprint of ``path`` at gain 1 (``_footprint``) as a ``left``
        column, a ``right`` row and that column's row bound."""
        rx, tx, right = _footprint(self.grid, path)
        left = np.multiply.outer(rx, tx).ravel()
        return left, right, np.abs(left) * np.abs(right).max()

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
    for a response of ``config`` on ``spec``: the stored plane
    (``GridSpec._plane_bytes``); where that holds every AoA row, the
    transform's AoD- and delay-transformed lines (n_rx x n_tx x n_tau
    values), and otherwise, the lines being the plane, the derived AoA
    rows' stored rows that its row cache holds at most (``_held_groups``);
    the ``_MAX_PENDING``
    + ``extra`` factor columns of n_aoa*n_aod complex128 values with their
    float64 row bounds; the cap of the lattice rows that its tentative picks
    hold (``_HELD_ENTRIES`` values); and its grid's ``_offset_tables`` (2n -
    1 complex128 phases and float64 reals for an axis of n points)."""
    n_aoa, n_aod = config.n_rx * spec.os_aoa, config.n_tx * spec.os_aod
    n_tau = config.n_freq * spec.os_delay
    plane = spec._plane_bytes(config)
    second = 16 * config.n_tx * n_tau * (config.n_rx if spec._aoa_step(config) == 1 else
                                         _held_groups(spec.os_aoa - 1, config.n_rx)
                                         * (spec.os_aoa - 1))
    return (plane + second + (16 + 8) * n_aoa * n_aod * (_MAX_PENDING + extra)
            + 16 * _HELD_ENTRIES + (16 + 8) * (2 * (n_aoa + n_aod + n_tau) - 3))


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
    ``factors`` (as ``peak_sweep`` takes them), if given, without writing the
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

    With ``factors`` (some footprints' factors, as ``peak_sweep`` takes
    them) the values are those of the grid minus the footprints: the seven
    that are read (five rows) are one ``_point_value``, and the grid is not
    written.
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
    rows onto every AoD row: entry (j, q') is the AoD kernel at offset j -
    os_aod*q' over n_tx, gathered from ``GridSpec._offset_table`` (the
    clamp undoes rounding below 0 of the quadratic form).  The grid is never held: besides the transform's own
    temporaries, the only ones are an AoA row's.
    """
    cfg = response.config
    m_rx, m_tx, m_f = spec._matrices(cfg)
    step, n_aod = spec.os_aod, len(m_tx)
    phase, real = spec._offset_table(cfg, 1)
    at = n_aod - 1 + np.arange(n_aod)[:, None] - step * np.arange(cfg.n_tx)
    interp = phase[at] * real[at] / cfg.n_tx
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
