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
  of its lattice, built once per grid.  A path's position per axis, in
  lattice steps (``BeamspaceGrid._position``), is its integer index on
  the lattice and a float off it, and its type chooses, once per path,
  between a gather from the tables and the kernel at the real offsets.
  A path's footprint factors (``_footprint``, for the picker's ``unit``
  and ``single_path_grid``) are windows of them at an integer position,
  and the Gram of atoms, ``diag(phase) R diag(phase)^H`` with ``R`` real
  symmetric, is read at their position differences (``_lattice_gram``)
  for greedy-LS's candidates and its global refit;
- the picker's reads of the grid minus its pending footprints at float
  positions (``_PendingFootprints.residual_at``, ``_interpolate``): each
  axis spans a whole period, so the critical samples of the stored plane
  determine the grid anywhere, and the kernel at the offsets from them
  weights them;
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

A grid pass, ``peak_sweep``, has one job: it subtracts rank-K footprint
factors from the stored plane, if it is given any, block of stored AoA
rows by block, writes the difference back, and records the maximum
magnitude of every (AoA, AoD) row into the array that the grid owns
(``BeamspaceGrid._row_peaks``).  It finds no peak.  The transform ends
with the grid's first pass; every grid-wide write after it is a writing
pass.  Where AoA rows are derived the pass is two phases, since a derived
AoA row reads every stored one: all blocks are written, then derived and
scanned.  A grid that derives rows is rewritten and rescanned whole, since
a derived row reads every stored row of its AoA row, or every stored AoA
row.  A grid that stores every row (steps (1, 1): a transform at os_aod 1
that stores every AoA row, as at oversample 1, or a grid built from an
array) and already has its maxima is not: a writing pass whose footprints
leave some row unreached rewrites and rescans only the rows that a
footprint reaches (``_reached_sweep``), and every other row keeps its
exact maximum; footprints that reach every row, as off-lattice ones do,
get the full pass.  At critical sampling a lattice footprint reaches one
row, the axis kernel being exactly 0 at every nonzero multiple of os (the
virtual channel representation).  A pass finishes before it raises on a
value that is not finite, so the plane and its maxima always agree.

``tentative_peak`` is the one peak finder: the peak of the grid minus
further footprints, read-only, over the rows it is handed, with the rules
for ties, the all-zero result and the non-finite error.  ``pdp_marginals``
sums its power maps from the transform's blocks by Parseval, from the
stored rows alone, and keeps no grid.

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
depend on the split and every entry gets the same arithmetic in any span,
so a split gives the plane and row maxima of one span, bit for bit.  A
small grid stays one span on the calling thread, and a tentative peak
always does; nothing is configurable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pool import run_blocks
from .sounder import (
    _LINE_BLOCK,
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

    ``_row_peaks`` holds the maximum magnitude of every row of the
    ``(aoa*aod, delay)`` view of the plane as it stands, one float64 each,
    which every ``peak_sweep`` records: the transform's grid has them from
    its first pass, and a grid built from an array has none (None) until
    its first pass allocates them.  Code that writes the plane in place
    outside ``peak_sweep`` must reset ``_row_peaks`` to None, or a later
    writing pass on a grid that stores every row would rescan only the rows
    its footprints reach and keep the others' stale maxima.
    ``_swept_rows`` counts the rows of the view that writing sweeps
    rescanned.
    """

    def __init__(self, values: np.ndarray, spec: GridSpec, config: SounderConfig):
        self.spec, self.config = spec, config
        self._plane, self._steps = values, (1, 1)
        self._row_peaks, self._swept_rows = None, 0

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

    def _position(self, path: PathParams) -> tuple:
        """``path``'s position per axis in lattice steps: its
        ``_lattice_index`` (ints) on the lattice, and otherwise the floats
        (aoa + 1/2) n_aoa, (aod + 1/2) n_aod and delay B os_delay."""
        n_aoa, n_aod, _ = self.shape
        return self._lattice_index(path) or (
            (path.aoa + 0.5) * n_aoa, (path.aod + 0.5) * n_aod,
            path.delay * self.config.bandwidth_hz * self.spec.os_delay)

    def _positions(self, paths: list[PathParams]) -> tuple[np.ndarray, ...]:
        """``_position`` of every path as three arrays: integer where every
        path is a lattice point, float otherwise.  The readers of a kernel
        at their offsets (``_lattice_gram``, ``_PendingFootprints.
        residual_at``) gather it from the ``_offset_tables`` for integers
        and evaluate ``_axis_kernel`` for floats."""
        return tuple(np.array([self._position(p) for p in paths]).T)

    def _lattice_gram(self, at: tuple[np.ndarray, np.ndarray, np.ndarray],
                      ) -> tuple[np.ndarray, np.ndarray]:
        """``(R, phase)``: the Gram matrix A^H A of the atoms at the
        positions ``at`` (the arrays of ``_positions``) in the real frame,
        ``A^H A = diag(phase) R diag(phase)^H``.  ``R`` is real symmetric:
        entry (a, b) is the product of the ``_axis_kernel`` reals at
        position a minus position b, one per axis, gathered from the
        ``_offset_tables`` by index differences on the lattice.  ``phase``
        is the product of the three axes' kernel phases at each position
        (its offset from index 0), so |R| = |A^H A| and both have the same
        eigenvalues."""
        if at[0].dtype.kind == "f":
            # the three axes in one call, as (3, 1) columns
            n, os, slope = (np.array(c)[:, None] for c in zip(*self.spec._axes(self.config)))
            x = np.stack(at)
            gram = np.empty((x.shape[1],) * 2)
            rows = max(1, _BLOCK_ENTRIES // x.size)
            for r in range(0, len(gram), rows):  # the upper triangle, mirrored
                gram[r:r + rows, r:] = np.prod(_axis_kernel(
                    n[:, None], os[:, None], None, x[:, r:r + rows, None] - x[:, None, r:])[1],
                    axis=0)
                gram[r:, r:r + rows] = gram[r:r + rows, r:].T
            return gram, np.prod(_axis_kernel(n, os, slope, x)[0], axis=0)
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
    in integers for an integer ``u``; a ``slope`` of None skips it (None),
    for a reader of ``real`` alone."""
    n_pts = n * os
    phase = None if slope is None else np.exp(-1j * np.pi * (slope * u % (2 * n_pts)) / n_pts)
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


def beamspace_transform(response: FrequencyResponse, spec: GridSpec) -> BeamspaceGrid:
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

    The made plane gets the grid's first pass, ``peak_sweep(grid)``, which
    records its row maxima (``BeamspaceGrid._row_peaks``) and raises
    ``tentative_peak``'s ValueError if a magnitude is not finite.
    """
    cfg = response.config
    m_rx, m_tx, m_f = spec._matrices(cfg)
    step = spec._aoa_step(cfg)
    m_tx = m_tx[::spec.os_aod]
    if step > 1:
        pre = _coset_kernel(spec._offset_table(cfg, 0), cfg.n_rx, step)[1]
        values = np.empty_like(response.values)
        with np.errstate(invalid="ignore"):  # named by the first pass
            np.matmul(m_rx[::step] * pre[:, None], response.values.reshape(cfg.n_rx, -1),
                      out=values.reshape(cfg.n_rx, -1))
        plane = _separable_transform(values, None, m_tx, m_f)
    else:
        plane = _separable_transform(response.values, m_rx, m_tx, m_f)
    grid = BeamspaceGrid(plane, spec, cfg)
    grid._steps = (step, spec.os_aod)
    peak_sweep(grid)
    return grid


def _footprint(grid: BeamspaceGrid,
               path: PathParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The AoA, AoD and delay factors of the footprint of ``path`` at gain 1
    on the lattice of ``grid``, each ``phase * real`` of ``_axis_kernel``,
    the AoA factor times 1/(n_rx n_tx n_freq), by its position
    (``BeamspaceGrid._position``): windows of the grid's ``_offset_tables``
    at an integer position and, at a float one, the kernel at its offsets,
    index minus position, the three axes in one call."""
    shape, at = grid.shape, grid._position(path)
    if isinstance(at[0], float):
        u = np.concatenate([np.arange(n) - p for n, p in zip(shape, at)])
        phase, real = _axis_kernel(*(np.repeat(column, shape)
                                     for column in zip(*grid.spec._axes(grid.config))), u)
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
              row_peaks: np.ndarray, aoa_rows: int, n_stored: int, n_tau: int):
    """The scan of a ``peak_sweep`` pass, with one span's scratch buffers.

    ``scan(i0, block)`` takes the stored AoD rows of lattice AoA rows
    i0..i0+b-1 (``block``, [b x n_stored x n_tau], b <= ``aoa_rows``),
    derives their other AoD rows with the AoD ``_coset_kernel`` ``kernel``
    ``(real, pre, post)``: each AoA row's stored rows times ``pre`` go into
    one buffer, and ``real`` times it, one real product on its float view,
    gives the derived rows without their ``post`` phases, which leave the
    magnitudes as they are.  It writes the maximum magnitude of every (AoA,
    AoD) row into ``row_peaks`` (one float per row of the ``(aoa*aod,
    delay)`` view); a ``block`` in the AoA real frame has the lattice's
    magnitudes too.
    """
    step = 1 if kernel is None else len(kernel[0]) // n_stored + 1
    by_coset = row_peaks.reshape(-1, n_stored, step)
    mag_buf = np.empty((aoa_rows, n_stored, n_tau))
    if kernel is not None:
        real, pre, _ = kernel
        # ``pre`` along whole rows: a broadcast product allocates a buffer
        pre = np.repeat(pre[:, None], n_tau, axis=1)
        scaled = np.empty((n_stored, n_tau), dtype=complex)
        derived_buf = np.empty((aoa_rows, len(real), n_tau), dtype=complex)
        derived_mag_buf = np.empty((aoa_rows, len(real), n_tau))

    def scan(i0: int, block: np.ndarray) -> None:
        b = len(block)
        np.max(np.abs(block, out=mag_buf[:b]), axis=2, out=by_coset[i0:i0 + b, :, 0])
        if kernel is not None:
            derived = derived_buf[:b]
            for rows, out in zip(block, derived):
                np.multiply(rows, pre, out=scaled)
                np.matmul(real, scaled.view(float), out=out.view(float))
            mag = np.abs(derived, out=derived_mag_buf[:b])
            np.max(mag.reshape(b, n_stored, step - 1, n_tau), axis=3,
                   out=by_coset[i0:i0 + b, :, 1:])

    return scan


def peak_sweep(grid: BeamspaceGrid,
               factors: tuple[np.ndarray, np.ndarray] | None = None) -> None:
    """One pass over the grid: subtract footprints from the stored plane, if
    any are given, and record the maximum magnitude of every lattice row.

    ``factors`` are the rank-K factors ``(left, right)`` of K footprints on
    the ``(aoa*aod, delay)`` view of the whole lattice, or None for none:
    ``left[:, k]`` is the gain times the outer product of the AoA and AoD
    ``_footprint`` factors of footprint k, flattened, and ``right[k]`` its
    delay factor.  The maxima, one float per row of the view, go into the
    grid's ``_row_peaks``, allocated on its first pass.  A pass finds no
    peak: ``tentative_peak`` does, over the rows that a caller keeps by
    these maxima.

    The full pass (``_full_sweep``) walks blocks of stored AoA rows: those
    of one scan (``_scan_rows``), or ``_AOA_GROUPS`` where AoA rows are
    derived.  Each block gets all footprints subtracted from its stored
    rows as one rank-K product, written back, and ``_row_scan`` derives its
    other AoD rows and records the maxima.  On a grid that derives AoA rows
    every block is written first, as a derived AoA row reads every stored
    one; then each block's derived AoA rows are made from the whole plane
    (``_derived_aoa_rows``) and its lattice AoA rows are scanned in order,
    ``_scan_rows`` at a time.  A large grid's blocks run in contiguous
    spans on ``pool.run_blocks``; block shapes do not depend on the split,
    so neither do the bits.

    A grid that stores every row (``BeamspaceGrid._steps`` (1, 1)) and
    already has maxima, swept with footprints that reach some rows but not
    all, gets the restricted pass (``_reached_rows``, ``_reached_sweep``):
    only the rows where a ``left`` column is nonzero are rewritten and
    rescanned, with the full pass's bits, and every other row and its
    maximum stay as they are.  At critical sampling a lattice footprint
    reaches one row, the axis kernel being exactly 0 at every nonzero
    multiple of os.  A grid that derives rows always gets the full pass,
    as a derived row reads every stored row of its AoA row, or every
    stored AoA row.

    A sweep with footprints drops the grid's row cache
    (``_LatticeRows.drop``); on a grid that derives AoA rows it also copies
    the derived AoA rows of the groups that ``_LatticeRows.refill_slots``
    picks by the maxima before the pass into the cache's held rows as it
    makes them.  ``BeamspaceGrid._swept_rows`` counts the rows that writing
    sweeps rescanned.

    Raises ValueError on an empty grid, and, with footprints, on a stored
    plane that is not C-contiguous, before anything is written.  A pass
    always finishes, so the plane and its maxima agree; then, where a
    maximum is not finite, it raises the ValueError of ``tentative_peak``
    over exactly those rows.
    """
    plane = grid._plane
    if plane.size == 0:
        raise ValueError("empty beamspace grid")
    if factors is not None and not plane.flags.c_contiguous:
        raise ValueError("grid values must be C-contiguous to be updated in place")
    reached = None
    if grid._row_peaks is None:
        grid._row_peaks = np.empty(grid.shape[0] * grid.shape[1])
    elif factors is not None:
        reached = _reached_rows(grid, factors[0])
    if reached is None:
        _full_sweep(grid, factors)
    else:
        _reached_sweep(grid, factors, reached)
    if factors is not None:
        grid._swept_rows += len(grid._row_peaks) if reached is None else len(reached)
    bad = np.flatnonzero(~np.isfinite(grid._row_peaks))
    if len(bad):
        with np.errstate(invalid="ignore"):
            tentative_peak(grid, None, bad)


def _full_sweep(grid: BeamspaceGrid,
                factors: tuple[np.ndarray, np.ndarray] | None) -> None:
    "The pass of ``peak_sweep`` that writes and scans every block."
    plane, row_peaks = grid._plane, grid._row_peaks
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
            if derives:
                slots = cache.refill_slots(row_peaks, step)
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

    def sweep(start: int, stop: int) -> None:
        scan = _row_scan(grid._kernels[1], row_peaks, aoa_rows, n_stored, n_tau)
        if derives:
            per = step - 1
            slab_buf = np.empty((max(2, rows * per), n_stored, n_tau), dtype=complex)
            stack_buf = np.empty((aoa_rows, n_stored, n_tau), dtype=complex)
        elif factors is not None:
            buf = np.empty((rows * n_stored, n_tau), dtype=complex)
        # an inf value makes NaNs in the products: ``peak_sweep`` names it
        with np.errstate(invalid="ignore"):
            for p0 in range(start, stop, rows):
                p1 = min(p0 + rows, n_rows)
                if not derives:
                    if factors is not None:
                        subtract(p0, p1, buf)
                    scan(p0, plane[p0:p1])
                    continue
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
                    scan(p0 * step + k, block)

    run_blocks(sweep, n_rows, rows, step * n_aod * n_tau)


def _reached_rows(grid: BeamspaceGrid, left: np.ndarray) -> np.ndarray | None:
    """Ascending rows of the ``(aoa*aod, delay)`` view that the footprints
    with ``left`` factors reach (where a column is nonzero), where
    ``_reached_sweep`` gives them the full pass's bits and touches fewer
    rows than it: on a grid that stores every row (steps (1, 1)), with
    more than one delay, and every block of the full pass two view rows or
    more, so that its block products and ``_reached_sweep``'s run on BLAS's
    matrix kernel, which gives a row the same bits whatever rows are made
    with it (its vector kernel does not); and some row not reached, as
    where every row is reached the full pass is the same work.  None
    otherwise."""
    n_aoa, n_aod, n_tau = grid.shape
    per = _scan_rows(grid.shape, 1) * n_aod  # view rows per block of the full pass
    if grid._steps != (1, 1) or n_tau == 1 or per == 1 or n_aoa * n_aod % per == 1:
        return None
    reached = np.flatnonzero(np.any(left, axis=1))
    return reached if len(reached) < n_aoa * n_aod else None


def _reached_sweep(grid: BeamspaceGrid, factors: tuple[np.ndarray, np.ndarray],
                   reached: np.ndarray) -> None:
    """The pass of ``peak_sweep`` that writes and rescans only the
    ``reached`` rows of the ``(aoa*aod, delay)`` view (``_reached_rows``),
    on a grid that stores every row and has the maxima of its plane as it
    stands.  They are gathered in chunks of at most ``_BLOCK_ENTRIES``
    entries into preallocated buffers, written, stored back and rescanned
    into ``BeamspaceGrid._row_peaks``.  A reached row gets the bits of the
    full pass, as both products run on BLAS's matrix kernel; a lone row is
    made with a second one, as a product of one row would run on its
    vector kernel."""
    left, right = factors
    n_tau = grid.shape[2]
    flat = grid._plane.reshape(-1, n_tau)
    size = max(1, _BLOCK_ENTRIES // n_tau)
    room = max(2, min(len(reached), size))
    block_buf = np.empty((room, n_tau), dtype=complex)
    mag_buf = np.empty((room, n_tau))
    left_buf = np.zeros((room, left.shape[1]), dtype=complex)
    kernel_buf = np.empty((room, n_tau), dtype=complex)
    # an inf value makes NaNs in the products: ``peak_sweep`` names it
    with np.errstate(invalid="ignore"):
        for c0 in range(0, len(reached), size):
            at = reached[c0:c0 + size]
            n, m = len(at), max(2, len(at))
            block = np.take(flat, at, axis=0, out=block_buf[:n], mode="clip")
            np.take(left, at, axis=0, out=left_buf[:n], mode="clip")
            np.dot(left_buf[:m], right, out=kernel_buf[:m])
            np.subtract(block, kernel_buf[:n], out=block)
            flat[at] = block
            grid._row_peaks[at] = np.max(np.abs(block, out=mag_buf[:n]), axis=1)


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


def _held_rows(shape: tuple[int, int, int]) -> int:
    """Lattice rows that the ``_LatticeRows`` of a grid of lattice ``shape``
    that derives rows holds at most: ``_HELD_ENTRIES`` values, or the five
    rows of a ``_refine_peak`` if more, and no more than the lattice has."""
    n_aoa, n_aod, n_tau = shape
    return min(max(1, n_aoa * n_aod), max(5, _HELD_ENTRIES // n_tau))


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
        self.limit = _held_rows(grid.shape)
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
    grid: BeamspaceGrid, factors: tuple[np.ndarray, np.ndarray] | None, rows: np.ndarray,
) -> tuple[int, int, int, complex]:
    """Peak of ``|grid - footprints|`` over the lattice rows ``rows``,
    read-only and without a pass over the grid: the one peak finder.

    ``factors`` are the footprints' factors, as ``peak_sweep`` takes them,
    or None for none, and ``rows`` ascending indices of rows of the
    ``(aoa*aod, delay)`` view, such as those that ``_PendingFootprints``
    keeps by its row bound.  Exactly those rows are evaluated, in blocks of
    half the sweep's size, each gathered by one ``np.take`` from
    ``grid._lattice_rows`` and its footprints subtracted in one call.

    Returns the index triple and the complex difference of the first
    maximum in (aoa, aod, delay) order, so exact magnitude ties resolve to
    the lowest index triple, as ``np.argmax`` over the rows does; an
    all-zero difference, or no rows, gives index (0, 0, 0) and value 0.
    Raises ValueError on an empty grid, and at the first magnitude over the
    rows that is not finite, NaN or inf, naming its index whatever the
    block sizes; ``peak_sweep`` raises it over the rows whose maximum is
    not finite.
    """
    if grid._plane.size == 0:
        raise ValueError("empty beamspace grid")
    n_tau = grid._plane.shape[2]
    size = min(len(rows), max(1, _BLOCK_ENTRIES // 2 // n_tau))
    block_buf = np.empty((size, n_tau), dtype=complex)
    kernel_buf = np.empty((size, n_tau), dtype=complex)
    mag_buf = np.empty((size, n_tau))
    row_buf = np.empty(size)
    cache = grid._lattice_rows
    best, best_at, best_value = -1.0, 0, 0j
    for p0 in range(0, len(rows), cache.limit):
        part = rows[p0:p0 + cache.limit]
        source, slots = cache.gather(grid, part)
        for c0 in range(0, len(part), size):
            at = part[c0:c0 + size]
            n = len(at)
            block = np.take(source, slots[c0:c0 + size], axis=0,
                            out=block_buf[:n], mode="clip")
            if factors is not None:
                np.subtract(block, np.dot(factors[0][at], factors[1], out=kernel_buf[:n]),
                            out=block)
            mag = np.abs(block, out=mag_buf[:n])
            row_max = np.max(mag, axis=1, out=row_buf[:n])
            # the first row holding the block's maximum holds its first
            # peak; a NaN or inf maximum means a value that is not finite
            r = int(row_max.argmax())
            if not math.isfinite(row_max[r]):
                r = int(np.flatnonzero(~np.isfinite(row_max))[0])
                k = int(np.flatnonzero(~np.isfinite(mag[r]))[0])
                i, j, l = np.unravel_index(int(at[r]) * n_tau + k, grid.shape)
                raise ValueError(f"non-finite beamspace magnitude at grid index ({i}, {j}, {l})")
            k = int(mag[r].argmax())
            if mag[r, k] > best:
                best, best_at, best_value = mag[r, k], int(at[r]) * n_tau + k, complex(block[r, k])
    i, j, l = np.unravel_index(best_at, grid.shape)
    return int(i), int(j), int(l), best_value


# pending footprints, and share of the rows their bound keeps, past which a
# tentative pick costs about as much as the full sweep that writes them
_MAX_PENDING = 16
_MAX_KEPT_SHARE = 0.05


class _PendingFootprints:
    """Peak picks on the grid of a response minus footprints not yet written
    into it: the one picker of greedy-LS (and so ``greedy_extract``) and SAGE,
    and the one owner of its column layout and its row bound.

    The grid is ``beamspace_transform`` of the response, whose first pass
    records the row maxima (``BeamspaceGrid._row_peaks``) that the row
    bound reads: the first of the grid passes that ``sweeps`` counts and
    whose wall seconds ``pass_s`` sums.  A footprint is a column of the
    factors ``left`` and ``right``, a path's ``unit`` footprint times a
    gain, with its row bound ``bounds[column]``, |gain| times the unit's.  The first
    ``pending`` columns are not yet written (``append``); the ``held`` ones
    after them are a caller's candidates (``hold``), which the next
    ``append`` drops.  The arrays, allocated once, have ``_MAX_PENDING`` +
    ``extra`` columns.
    """

    def __init__(self, response: FrequencyResponse, spec: GridSpec, extra: int):
        config = response.config
        n_rows = config.n_rx * spec.os_aoa * config.n_tx * spec.os_aod
        start = time.perf_counter()
        self.grid = beamspace_transform(response, spec)
        self.pass_s = time.perf_counter() - start
        columns = _MAX_PENDING + extra
        # Fortran order: a column is contiguous, as a ``right`` or ``bounds``
        # row is, so ``put`` writes it in one pass
        self.left = np.empty((n_rows, columns), dtype=complex, order="F")
        self.right = np.empty((columns, self.grid.shape[2]), dtype=complex)
        self.bounds = np.empty((columns, n_rows))
        self.pending, self.held, self.sweeps = 0, 0, 1
        self.critical = None  # a copy of the plane's critical sub-lattice

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

    def residual_at(self, at: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        """Values of the grid minus the pending footprints at the positions
        ``at`` (``BeamspaceGrid._positions``): at lattice indices read by
        ``_point_value`` in chunks of at most the row cache's ``limit``
        distinct rows, and at float positions interpolated from the
        critical samples (``_interpolate``), of which the picker keeps a
        copy until its next sweep, in blocks of positions whose delay
        contraction holds at most ``_BLOCK_ENTRIES`` values."""
        n = self.pending
        factors = (self.left[:, :n], self.right[:n]) if n else None
        if at[0].dtype.kind == "f":
            if self.critical is None:
                spec, (step_a, step_d) = self.grid.spec, self.grid._steps
                self.critical = np.ascontiguousarray(self.grid._plane[
                    ::spec.os_aoa // step_a, ::spec.os_aod // step_d, ::spec.os_delay])
            block = max(1, _BLOCK_ENTRIES // (len(self.critical) * self.critical.shape[1]))
            return np.concatenate([
                _interpolate(self.grid, self.critical, tuple(x[s:s + block] for x in at),
                             factors) for s in range(0, len(at[0]), block)])
        i, j, l = at
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
        row_peaks, floor = self.grid._row_peaks, None
        if near is not None:
            i, j, l = _nearest_point(self.grid, near)
            row = i * self.grid.shape[1] + j
            floor = min(abs(_point_value(self.grid, i, j, l, factors)),
                        row_peaks[row] + reach[row])
        return factors, _bound_rows(row_peaks, reach, floor)

    def pick(self, refine: bool = False, near: PathParams | None = None) -> PathParams:
        """The peak of the grid minus the pending and held footprints, as a
        path (``BeamspaceGrid._path_at``, sub-grid with ``refine``), with
        the floor of ``near`` (``_kept``) if given.

        It keeps the rows once and evaluates them with ``tentative_peak``.
        It is the one choice of a full sweep: when none is held and
        ``_MAX_PENDING`` are pending or the kept rows are more than
        ``_MAX_KEPT_SHARE`` of all, one ``peak_sweep`` first writes the
        pending footprints into the grid and records the row maxima again,
        none is pending, and the rows are kept once more.  On a grid that
        stores every row that sweep rewrites and rescans only the rows that
        the pending footprints reach, one row a lattice commit at
        oversample 1.
        """
        factors, rows = self._kept(near)
        if self.pending and not self.held and (
                self.pending >= _MAX_PENDING
                or len(rows) > _MAX_KEPT_SHARE * len(self.grid._row_peaks)):
            start = time.perf_counter()
            peak_sweep(self.grid, factors)
            self.pass_s += time.perf_counter() - start
            self.sweeps += 1
            self.pending, self.critical = 0, None
            factors, rows = self._kept(near)
        return self.grid._path_at(*tentative_peak(self.grid, factors, rows),
                                  refine, factors)


def _picker_bytes(config: SounderConfig, spec: GridSpec, extra: int) -> int:
    """Bytes that a ``_PendingFootprints`` with ``extra`` columns needs for a
    response of ``config`` on ``spec``: the stored plane
    (``GridSpec._plane_bytes``) and the larger of two phases, as the
    transform's buffers are freed before the picker allocates its own.

    - The transform: where the plane holds every AoA row, the AoD- and
      delay-transformed lines (n_rx x n_tx x n_tau values), and otherwise
      the response in the AoA real frame (n_rx x n_tx x n_freq), the lines
      being the plane; the lattice matrices ([n_aoa x n_rx], [n_aod x
      n_tx] and [n_freq x n_tau]); and one block of the AoD product (the rx
      rows of ``_LINE_BLOCK`` lines, n_freq values each), all complex128.
    - The picker: the grid's row maxima, a float64 per (AoA, AoD) row; the
      ``_MAX_PENDING`` + ``extra`` factor columns of n_aoa*n_aod complex128
      values with their float64 row bounds, and their complex128 delay
      rows; its row cache (``_LatticeRows``): an int64 slot per (AoA, AoD)
      row and, where the grid derives rows, the lattice rows that its
      tentative picks hold at most (``_held_rows``), and where it derives
      AoA rows the derived AoA rows' stored rows (``_held_groups``) and an
      int64 slot per AoA row (a grid that stores every row holds a view of
      its plane); the grid's ``_offset_tables`` (2n - 1 complex128 phases
      and float64 reals for an axis of n points); and the buffers of a
      ``tentative_peak`` block, two complex128 and a float64 per entry and
      a float64 per row."""
    n_rx, n_tx, n_freq = config.n_rx, config.n_tx, config.n_freq
    n_aoa, n_aod, n_tau = n_rx * spec.os_aoa, n_tx * spec.os_aod, n_freq * spec.os_delay
    n_rows, columns, step = n_aoa * n_aod, _MAX_PENDING + extra, spec._aoa_step(config)
    rx_rows = min(n_rx, max(1, _LINE_BLOCK // n_tx))
    transform = 16 * (n_rx * n_tx * (n_tau if step == 1 else n_freq) + n_aoa * n_rx
                      + n_aod * n_tx + n_freq * n_tau + rx_rows * n_tx * n_freq)
    cache = 8 * n_rows
    if (step, spec.os_aod) != (1, 1):
        cache += 16 * _held_rows((n_aoa, n_aod, n_tau)) * n_tau
    if step > 1:
        per = spec.os_aoa - 1
        cache += 16 * _held_groups(per, n_rx) * per * n_tx * n_tau + 8 * n_aoa
    block = min(n_rows, max(1, _BLOCK_ENTRIES // 2 // n_tau))
    picker = (8 * n_rows + (16 + 8) * n_rows * columns + 16 * columns * n_tau + cache
              + (16 + 8) * (2 * (n_aoa + n_aod + n_tau) - 3) + (40 * n_tau + 8) * block)
    return spec._plane_bytes(config) + max(transform, picker)


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


def _interpolate(grid: BeamspaceGrid, critical: np.ndarray,
                 at: tuple[np.ndarray, np.ndarray, np.ndarray],
                 factors: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Values of the grid minus the footprints of ``factors`` (as
    ``peak_sweep`` takes them), if given, at the float positions ``at``
    (``BeamspaceGrid._positions``), without writing the grid.

    Each axis spans a whole period, so along it the grid is a
    trigonometric polynomial whose critical samples, every os-th lattice
    point, determine it everywhere: the value at position x is the sum over
    critical points q of ``_axis_kernel(x - os q) / n`` times the sample,
    one kernel call for every axis of every position.  ``critical``, the
    stored plane's critical sub-lattice (every os-th point per axis in the
    plane's AoA frame, so a grid that derives AoA rows takes its AoA
    weights times ``conj(pre)``) as a contiguous copy, is contracted delay
    first, then AoD and AoA, and the footprints' critical samples are
    contracted the same way and subtracted."""
    spec = grid.spec
    axes = sizes, steps, _ = tuple(zip(*spec._axes(grid.config)))
    u = np.concatenate([x[:, None] - os * np.arange(n)
                        for n, os, x in zip(sizes, steps, at)], axis=1)
    phase, real = _axis_kernel(*(np.repeat(column, sizes) for column in axes), u)
    w_rx, w_tx, w_f = np.split(phase * real / np.repeat(sizes, sizes),
                               np.cumsum(sizes[:2]), axis=1)
    w_plane = w_rx if grid._kernels[0] is None else w_rx * grid._kernels[0][1].conj()
    values = np.einsum("pk,kp->k", np.einsum("pqk,kq->pk", critical @ w_f.T, w_tx),
                       w_plane)
    if factors is not None:
        left = factors[0].reshape(*grid.shape[:2], -1)[::spec.os_aoa, ::spec.os_aod]
        angles = np.einsum("kq,kqc->kc", w_tx, np.tensordot(w_rx, left, axes=(1, 0)))
        values -= np.sum(angles * (w_f @ factors[1][:, ::spec.os_delay].T), axis=1)
    return values


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
