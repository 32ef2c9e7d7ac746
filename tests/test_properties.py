"""Property-based tests of the beamspace grid kernels, the LS solve, the
greedy-LS residual trace and the per-axis pair error rule.

The fixed-seed tests and the numbered criteria stay the reference; these
add random small grids, path lists, geometries and block sizes drawn by
hypothesis.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mpcx import (
    DegenerateGeometryError,
    ExtractionConfig,
    FrequencyResponse,
    GridSpec,
    PathParams,
    SounderConfig,
    add_awgn,
    beamspace,
    extract,
    beamspace_transform,
    fileio,
    greedy_ls,
    ls_amplitudes,
    pool,
    single_path_grid,
    sounder,
    synthesize_response,
)
from mpcx.assoc import ResolutionSpec, _axis_errors, _cost_matrix, associate
from mpcx.beamspace import peak_sweep, tentative_peak
from mpcx.extract import GRAM_CONDITION_LIMIT, _dictionary_gram
from mpcx.sounder import _matched_filter, _separable_transform

from closed_form import (
    beamspace_point,
    footprint_factors,
    kept_rows,
    kernel_factors,
    ls_condition,
    pairwise_cost,
    path_atoms,
)

SMALL = dict(n_rx=st.integers(1, 5), n_tx=st.integers(1, 5), n_freq=st.integers(1, 9),
             os_aoa=st.integers(1, 3), os_aod=st.integers(1, 3),
             os_delay=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))


def small_case(n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay):
    cfg = SounderConfig(n_tx=n_tx, n_rx=n_rx, bandwidth_hz=1e9, n_freq=n_freq)
    spec = GridSpec(os_aoa=os_aoa, os_aod=os_aod, os_delay=os_delay)
    shape = (len(spec.aoa_axis(cfg)), len(spec.aod_axis(cfg)),
             len(spec.delay_axis(cfg)))
    return cfg, spec, shape


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@settings(max_examples=60, deadline=None)
@given(**SMALL)
def test_transform_equals_point_evaluation(n_rx, n_tx, n_freq, os_aoa, os_aod,
                                           os_delay, seed):
    cfg, spec, shape = small_case(n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay)
    rng = np.random.default_rng(seed)
    resp = FrequencyResponse(values=complex_normal(rng, (n_rx, n_tx, n_freq)),
                             config=cfg)
    grid = beamspace_transform(resp, spec)
    assert grid.values.shape == shape
    for _ in range(4):
        i, j, l = (int(rng.integers(0, n)) for n in shape)
        point = beamspace_point(resp, grid.aoa_axis[i], grid.aod_axis[j],
                                grid.delay_axis[l])
        assert abs(grid.values[i, j, l] - point) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(**SMALL, n_paths=st.integers(0, 4), on_grid=st.booleans(),
       ties=st.booleans(), block=st.integers(1, 80), n_spans=st.integers(2, 4))
def test_peak_sweep_equals_dense_oracle(n_rx, n_tx, n_freq, os_aoa, os_aod,
                                        os_delay, seed, n_paths, on_grid, ties,
                                        block, n_spans):
    cfg, spec, shape = small_case(n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay)
    rng = np.random.default_rng(seed)
    if ties:
        # entries in {0, 1, sqrt 2} with random signs: many exact magnitude
        # ties, spread over several blocks; no arithmetic touches them
        values = (rng.integers(-1, 2, size=shape)
                  + 1j * rng.integers(-1, 2, size=shape)).astype(complex)
        paths = []
    else:
        values = complex_normal(rng, shape)
        aoa_ax, aod_ax, tau_ax = (spec.aoa_axis(cfg), spec.aod_axis(cfg),
                                  spec.delay_axis(cfg))
        paths = [
            PathParams(gain=complex(rng.normal(), rng.normal()),
                       delay=float(rng.choice(tau_ax)) if on_grid
                       else rng.uniform(0, cfg.duration),
                       aod=float(rng.choice(aod_ax)) if on_grid
                       else rng.uniform(-0.5, 0.5),
                       aoa=float(rng.choice(aoa_ax)) if on_grid
                       else rng.uniform(-0.5, 0.5))
            for _ in range(n_paths)
        ]
    dense = values - sum((single_path_grid(p, spec, cfg).values for p in paths),
                         np.zeros(shape, dtype=complex))
    mag = np.abs(dense)
    work = values.copy()
    split_work = values.copy()
    grid = beamspace.BeamspaceGrid(work, spec, cfg)
    split_grid = beamspace.BeamspaceGrid(split_work, spec, cfg)
    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", block):
        i, j, l, val = peak_sweep(grid, footprint_factors(grid, paths))
        # the same sweep cut into up to n_spans spans on the thread pool
        with mock.patch.multiple(pool, _cpus=lambda: n_spans, _MIN_SPAN_ENTRIES=1):
            split = peak_sweep(split_grid, footprint_factors(split_grid, paths))
    assert split == (i, j, l, val)
    assert np.array_equal(split_work, work)

    scale = max(1.0, float(mag.max()))
    if paths:
        assert np.max(np.abs(work - dense)) <= 1e-12 * scale
    else:
        assert np.array_equal(work, values)
    assert abs(val - dense[i, j, l]) <= 1e-12 * scale
    assert mag[i, j, l] >= mag.max() - 1e-12 * scale
    oracle = np.unravel_index(int(np.argmax(mag)), shape)
    ranked = np.sort(mag, axis=None)[::-1]
    if not paths or len(ranked) == 1 or ranked[0] - ranked[1] > 1e-9 * scale:
        # same arithmetic, or a peak that rounding cannot reorder: the same
        # index, exact ties going to the lowest index triple
        assert (i, j, l) == oracle


def random_paths(rng, cfg, spec, n_paths, on_grid):
    "Paths with normal gains, on the lattice of ``spec`` or anywhere."
    aoa_ax, aod_ax, tau_ax = (spec.aoa_axis(cfg), spec.aod_axis(cfg),
                              spec.delay_axis(cfg))
    return [
        PathParams(gain=complex(rng.normal(), rng.normal()),
                   delay=float(rng.choice(tau_ax)) if on_grid
                   else rng.uniform(0, cfg.duration),
                   aod=float(rng.choice(aod_ax)) if on_grid
                   else rng.uniform(-0.5, 0.5),
                   aoa=float(rng.choice(aoa_ax)) if on_grid
                   else rng.uniform(-0.5, 0.5))
        for _ in range(n_paths)
    ]


@settings(max_examples=150, deadline=None)
@given(**SMALL, n_paths=st.integers(1, 4), on_grid=st.booleans(),
       swept=st.integers(0, 2), pending=st.integers(0, 3),
       block=st.integers(1, 80))
def test_tentative_peak_equals_dense_oracle(n_rx, n_tx, n_freq, os_aoa, os_aod,
                                            os_delay, seed, n_paths, on_grid,
                                            swept, pending, block):
    """The read-only pick against ``np.argmax`` of the grid minus the paths'
    footprints, on row peaks that a sweep writing ``swept`` other paths
    recorded.  The first ``pending`` paths were never written to the grid:
    as greedy-LS keeps its pending commits, their factors are unit
    ``kernel_factors`` columns scaled by the gain, and their row bound is
    the sum of |gain| times the unit bound.  The same index unless rounding
    can reorder the top two, the value to 1e-12, the interpolated
    coordinates to 1e-9, and the grid bytes unchanged."""
    cfg, spec, shape = small_case(n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay)
    rng = np.random.default_rng(seed)
    grid = beamspace.BeamspaceGrid(complex_normal(rng, shape), spec, cfg)
    row_peaks = np.empty(shape[0] * shape[1])
    peak_sweep(grid, footprint_factors(grid, random_paths(rng, cfg, spec, swept,
                                                         on_grid)), row_peaks)
    assert np.array_equal(row_peaks,
                          np.abs(grid.values).reshape(len(row_peaks), -1).max(axis=1))
    before = grid.values.tobytes()
    paths = random_paths(rng, cfg, spec, pending + n_paths, on_grid)
    dense = grid.values - sum(single_path_grid(p, spec, cfg).values for p in paths)
    mag = np.abs(dense)
    units = [footprint_factors(grid, [replace(p, gain=1)]) for p in paths[:pending]]
    left, right = footprint_factors(grid, paths[pending:])
    factors = (np.hstack([u * p.gain for (u, _), p in zip(units, paths)] + [left]),
               np.vstack([r for _, r in units] + [right]))
    reach = sum((abs(p.gain) * np.abs(u[:, 0]) * np.abs(r).max()
                 for (u, r), p in zip(units, paths)),
                np.abs(left) @ np.abs(right).max(axis=1))
    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", block):
        i, j, l, val = tentative_peak(grid, factors,
                                      beamspace._bound_rows(row_peaks, reach))
    assert grid.values.tobytes() == before

    scale = max(1.0, float(mag.max()))
    assert abs(val - dense[i, j, l]) <= 1e-12 * scale
    assert mag[i, j, l] >= mag.max() - 1e-12 * scale
    ranked = np.sort(mag, axis=None)[::-1]
    if len(ranked) == 1 or ranked[0] - ranked[1] > 1e-9 * scale:
        assert (i, j, l) == np.unravel_index(int(np.argmax(mag)), shape)
    got = beamspace._refine_peak(grid, i, j, l, factors)
    ref = beamspace._refine_peak(beamspace.BeamspaceGrid(dense, spec, cfg), i, j, l)
    assert np.max(np.abs(np.subtract(got, ref))) <= 1e-9
    assert grid.values.tobytes() == before


def assert_same_peak(got, dense, scale):
    """``got`` is the peak of ``dense`` (its magnitude to 1e-12 of ``scale``,
    its value to 1e-12) and its index unless rounding can reorder the top two."""
    i, j, l, val = got
    mag = np.abs(dense)
    assert abs(val - dense[i, j, l]) <= 1e-12 * scale
    assert mag[i, j, l] >= mag.max() - 1e-12 * scale
    ranked = np.sort(mag, axis=None)[::-1]
    if len(ranked) == 1 or ranked[0] - ranked[1] > 1e-9 * scale:
        assert (i, j, l) == np.unravel_index(int(np.argmax(mag)), dense.shape)


@settings(max_examples=100, deadline=None)
@given(n_rx=st.integers(1, 5), n_tx=st.integers(1, 5), n_freq=st.integers(1, 9),
       os_aoa=st.integers(1, 4), os_aod=st.integers(1, 4),
       os_delay=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       n_paths=st.integers(0, 3), pending=st.integers(1, 3), on_grid=st.booleans(),
       block=st.integers(1, 200))
# one tx antenna: every AoD row is the same, so the AoD parabola is flat
@example(n_rx=5, n_tx=1, n_freq=5, os_aoa=1, os_aod=3, os_delay=1, seed=328195,
         n_paths=0, pending=1, on_grid=True, block=1)
def test_stored_plane_grid_equals_dense_lattice(n_rx, n_tx, n_freq, os_aoa, os_aod,
                                                os_delay, seed, n_paths, pending,
                                                on_grid, block):
    """A transform grid stores its critically sampled AoD plane and derives
    the other AoD rows.  Its ``values`` equal the dense transform (every AoD
    row through ``_separable_transform``) to 1e-12 of the maximum.  A
    ``peak_sweep`` with footprints, then a ``tentative_peak`` and
    ``_refine_peak`` against further ones, agree with the same calls on an
    array-built copy of the dense lattice: the same peak unless rounding can
    reorder the top two, row peaks and values to 1e-12, the swept lattices
    to 1e-12, and the tentative pick leaves the plane as it was.  Two rounds
    of tentative picks and a sweep that writes their footprints check that
    a pick after the write reads the written plane."""
    cfg, spec, shape = small_case(n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay)
    rng = np.random.default_rng(seed)
    resp = FrequencyResponse(values=complex_normal(rng, (n_rx, n_tx, n_freq)),
                             config=cfg)
    grid = beamspace_transform(resp, spec)
    dense = _separable_transform(resp.values, *spec._matrices(cfg))
    assert grid.values.shape == shape
    assert np.max(np.abs(grid.values - dense)) <= 1e-12 * np.abs(dense).max()
    copy = beamspace.BeamspaceGrid(dense.copy(), spec, cfg)
    scale = max(1.0, float(np.abs(dense).max()))  # footprint gains are O(1)

    paths = random_paths(rng, cfg, spec, n_paths, on_grid)
    row_peaks, copy_row_peaks = np.empty(shape[0] * shape[1]), np.empty(shape[0] * shape[1])
    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", block):
        got = peak_sweep(grid, footprint_factors(grid, paths), row_peaks)
        ref = peak_sweep(copy, footprint_factors(copy, paths), copy_row_peaks)
    swept = copy.values
    assert_same_peak(got, swept, scale)
    assert_same_peak(ref, swept, scale)
    assert np.max(np.abs(grid.values - swept)) <= 1e-12 * scale
    assert np.max(np.abs(row_peaks - copy_row_peaks)) <= 1e-12 * scale

    for _ in range(2):
        more = random_paths(rng, cfg, spec, pending, on_grid)
        factors = footprint_factors(grid, more)
        before = grid._plane.tobytes()
        with mock.patch.object(beamspace, "_BLOCK_ENTRIES", block):
            got = tentative_peak(grid, factors, kept_rows(row_peaks, factors))
            ref = tentative_peak(copy, factors, kept_rows(copy_row_peaks, factors))
        assert grid._plane.tobytes() == before
        rest = swept - sum(single_path_grid(p, spec, cfg).values for p in more)
        assert_same_peak(got, rest, scale)
        assert_same_peak(ref, rest, scale)
        i, j, l, _ = ref
        assert np.max(np.abs(np.subtract(
            beamspace._refine_peak(grid, i, j, l, factors),
            beamspace._refine_peak(copy, i, j, l, factors)))) <= 1e-9
        # a sweep that writes the footprints; the next pick reads the new plane
        peak_sweep(grid, factors, row_peaks)
        peak_sweep(copy, factors, copy_row_peaks)
        swept = copy.values
        assert np.max(np.abs(grid.values - swept)) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(**SMALL, pending=st.integers(1, 3), on_grid=st.booleans(),
       at_peak=st.booleans(), point=st.integers(0, 2**31), block=st.integers(1, 200))
def test_tentative_peak_with_a_point_floor_equals_dense_oracle(
        n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay, seed, pending, on_grid,
        at_peak, point, block):
    """SAGE's floor on a transform grid: the value of the grid minus the
    footprints at one lattice point (``_point_value``) equals the dense
    lattice's to 1e-12, and without footprints the grid's ``values`` there
    bit for bit; ``_nearest_point`` of a path there is that point.  Its
    magnitude, capped at its row's bound, keeps a subset of the rows that
    the default floor keeps, and that row where it is above the default
    floor; ``tentative_peak`` with it finds the dense peak unless rounding
    can reorder the top two."""
    cfg, spec, shape = small_case(n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay)
    rng = np.random.default_rng(seed)
    resp = FrequencyResponse(values=complex_normal(rng, (n_rx, n_tx, n_freq)),
                             config=cfg)
    row_peaks = np.empty(shape[0] * shape[1])
    grid = beamspace_transform(resp, spec, row_peaks)
    more = random_paths(rng, cfg, spec, pending, on_grid)
    factors = footprint_factors(grid, more)
    reach = np.abs(factors[0]) @ np.abs(factors[1]).max(axis=1)
    dense = grid.values - sum(single_path_grid(p, spec, cfg).values for p in more)
    scale = max(1.0, float(np.abs(dense).max()))
    at = int(np.argmax(np.abs(dense))) if at_peak else point % dense.size
    i, j, l = (int(k) for k in np.unravel_index(at, shape))
    there = grid._path_at(i, j, l, 1.0)
    assert beamspace._nearest_point(grid, there) == (i, j, l)
    value = beamspace._point_value(grid, i, j, l, factors)
    assert abs(value - dense[i, j, l]) <= 1e-12 * scale
    # one row maker for both: the same bits
    assert beamspace._point_value(grid, i, j, l) == grid.values[i, j, l]
    row = i * shape[1] + j
    floor = min(abs(value), row_peaks[row] + reach[row])
    kept = beamspace._bound_rows(row_peaks, reach, floor)
    assert set(kept) <= set(beamspace._bound_rows(row_peaks, reach))
    if floor >= np.max(row_peaks - reach):  # the floor is the one applied
        assert row in kept
    before = grid._plane.tobytes()
    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", block):
        got = tentative_peak(grid, factors, kept)
    assert grid._plane.tobytes() == before
    assert_same_peak(got, dense, scale)


@settings(max_examples=80, deadline=None)
@given(n_rx=st.integers(1, 5), n_tx=st.integers(1, 5), n_freq=st.integers(1, 9),
       os_aoa=st.integers(1, 4), os_aod=st.integers(1, 4),
       os_delay=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_single_path_grid_equals_transform_of_synthesis(n_rx, n_tx, n_freq, os_aoa,
                                                        os_aod, os_delay, seed):
    cfg, spec, shape = small_case(n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay)
    rng = np.random.default_rng(seed)
    path = PathParams(gain=complex(rng.normal(), rng.normal()),
                      delay=rng.uniform(0, cfg.duration),
                      aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
    kernel = single_path_grid(path, spec, cfg).values
    grid = beamspace_transform(synthesize_response(cfg, [path]), spec).values
    assert kernel.shape == grid.shape == shape
    assert np.max(np.abs(kernel - grid)) <= 1e-9 * abs(path.gain)


DESK = SounderConfig(n_tx=8, n_rx=8, bandwidth_hz=1e9, n_freq=32)


@settings(max_examples=80, deadline=None)
@given(desk=st.booleans(), n_rx=st.integers(1, 5), n_tx=st.integers(1, 5),
       n_freq=st.integers(1, 9), os_aoa=st.integers(1, 4), os_aod=st.integers(1, 4),
       os_delay=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       n_paths=st.integers(1, 6))
@example(desk=True, n_rx=1, n_tx=1, n_freq=1, os_aoa=4, os_aod=4, os_delay=4,
         seed=5, n_paths=6)
def test_lattice_footprints_and_gram_equal_the_steering_oracle(
        desk, n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay, seed, n_paths):
    """A lattice path's unit footprint, read off the grid's offset tables
    with no steering matrices, is the ``kernel_factors`` of its
    ``_steering_matrices`` (left, right and row bound, each to 1e-12 of its
    maximum), and the Gram that the grid gathers by index differences,
    ``diag(phase) R diag(phase)^H`` with ``R`` real symmetric, is
    ``_dictionary_gram`` to 1e-12 relative, duplicates and index 0 and the
    last index of every axis included."""
    if desk:
        cfg = DESK
        spec = GridSpec(os_aoa=os_aoa, os_aod=os_aod, os_delay=os_delay)
        shape = (len(spec.aoa_axis(cfg)), len(spec.aod_axis(cfg)),
                 len(spec.delay_axis(cfg)))
    else:
        cfg, spec, shape = small_case(n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay)
    rng = np.random.default_rng(seed)
    picks = beamspace._PendingFootprints(
        FrequencyResponse(values=complex_normal(rng, (cfg.n_rx, cfg.n_tx, cfg.n_freq)),
                          config=cfg), spec, 1)
    grid = picks.grid
    at = [tuple(int(rng.integers(0, n)) for n in shape) for _ in range(n_paths)]
    at += [(0, 0, 0), tuple(n - 1 for n in shape), at[0]]
    paths = [PathParams(gain=1, delay=float(grid.delay_axis[l]),
                        aod=float(grid.aod_axis[j]), aoa=float(grid.aoa_axis[i]))
             for i, j, l in at]
    for path, index in zip(paths, at):
        assert grid._lattice_index(path) == index
        left, right, bound = picks.unit(path)
        steering = sounder._steering_matrices(cfg, [path.delay], [path.aod], [path.aoa])
        oracle_left, oracle_right = kernel_factors(spec._matrices(cfg), steering,
                                                   np.ones(1))
        oracle_bound = np.abs(oracle_left[:, 0]) * np.abs(oracle_right).max()
        for got, oracle in ((left, oracle_left[:, 0]), (right, oracle_right[0]),
                            (bound, oracle_bound)):
            assert got.shape == oracle.shape
            assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    real, phase = grid._lattice_gram(grid._lattice_indices(paths))
    assert real.dtype == float and np.array_equal(real, real.T)
    gram = phase[:, None] * real * phase.conj()
    oracle = _dictionary_gram(*sounder._steering_matrices(
        cfg, *zip(*[(p.delay, p.aod, p.aoa) for p in paths])))
    assert np.max(np.abs(gram - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    off = replace(paths[0], delay=paths[0].delay + 0.25 / cfg.bandwidth_hz / os_delay)
    assert grid._lattice_index(off) is None
    assert grid._lattice_indices(paths + [off]) is None


# angles at and next to the ends of [-0.5, 0.5], and shares of the
# observation duration up to just below T
EDGE_ANGLES = st.sampled_from([-0.5, 0.5, 0.49999999999999994, -0.49999999999999994,
                               0.0])
EDGE_SHARES = st.sampled_from([0.0, 1 - 2**-52, 1 - 1e-9, 1 - 1e-3, 0.5])


@settings(max_examples=150, deadline=None)
@given(desk=st.booleans(), n_rx=st.integers(1, 5), n_tx=st.integers(1, 5),
       n_freq=st.integers(1, 10), os_aoa=st.integers(1, 4), os_aod=st.integers(1, 4),
       os_delay=st.integers(1, 4),
       aoa=st.one_of(EDGE_ANGLES, st.floats(-0.5, 0.5)),
       aod=st.one_of(EDGE_ANGLES, st.floats(-0.5, 0.5)),
       share=st.one_of(EDGE_SHARES, st.floats(0, 1, exclude_max=True)),
       seed=st.integers(0, 2**32 - 1))
@example(desk=False, n_rx=1, n_tx=4, n_freq=6, os_aoa=3, os_aod=2, os_delay=4,
         aoa=0.5, aod=-0.5, share=1 - 2**-52, seed=1)
@example(desk=False, n_rx=5, n_tx=1, n_freq=7, os_aoa=1, os_aod=4, os_delay=3,
         aoa=0.49999999999999994, aod=0.5, share=1 - 1e-9, seed=2)
def test_off_lattice_footprints_equal_the_steering_oracle(
        desk, n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay, aoa, aod, share, seed):
    """A path's footprint at any coordinates, the axis kernels at its
    fractional offsets off the lattice, is the ``kernel_factors`` of its
    ``_steering_matrices``: the picker's unit ``left``, ``right`` and row
    bound and ``single_path_grid`` each to 1e-12 of its maximum, with
    angles at and next to +-0.5, delays up to just below T, one element or
    tone on an axis, and even and odd tone counts."""
    if desk:
        cfg = DESK
        spec = GridSpec(os_aoa=os_aoa, os_aod=os_aod, os_delay=os_delay)
    else:
        cfg, spec, _ = small_case(n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay)
    rng = np.random.default_rng(seed)
    path = PathParams(gain=complex(rng.normal(), rng.normal()),
                      delay=share * cfg.duration, aod=aod, aoa=aoa)
    picks = beamspace._PendingFootprints(FrequencyResponse(
        values=np.zeros((cfg.n_rx, cfg.n_tx, cfg.n_freq), dtype=complex), config=cfg),
        spec, 1)
    left, right, bound = picks.unit(path)
    oracle_left, oracle_right = kernel_factors(
        spec._matrices(cfg),
        sounder._steering_matrices(cfg, [path.delay], [path.aod], [path.aoa]),
        np.ones(1))
    oracle_bound = np.abs(oracle_left[:, 0]) * np.abs(oracle_right).max()
    oracle_grid = ((oracle_left * path.gain) @ oracle_right).reshape(picks.grid.shape)
    for got, oracle in ((left, oracle_left[:, 0]), (right, oracle_right[0]),
                        (bound, oracle_bound),
                        (single_path_grid(path, spec, cfg).values, oracle_grid)):
        assert got.shape == oracle.shape
        assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def coherence_oracle(gram):
    "Every column pair (a, b), a < b, by descending coherence: a stable Python sort."
    norm = np.sqrt(np.abs(np.diag(gram)))
    coh = np.abs(gram) / np.outer(norm, norm)
    pairs = [(a, b, float(coh[a, b])) for a in range(len(gram))
             for b in range(a + 1, len(gram))]
    pairs.sort(key=lambda p: -p[2])
    return pairs


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 14), distinct=st.integers(1, 14), real=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_coherence_pairs_rank_as_a_python_sort(k, distinct, real, seed):
    """``_coherence_pairs`` is the head of a stable Python sort of all
    column pairs by descending coherence, the ``_REPORTED_PAIRS`` most
    coherent in the same order with the same ties (in (a, b) order), on
    complex and real Grams of ``k`` columns drawn from ``distinct`` ones,
    whose repeats tie exactly."""
    rng = np.random.default_rng(seed)
    base = complex_normal(rng, (6, distinct))
    base = base.T.conj() @ base
    if real:
        base = base.real
    pick = rng.integers(0, distinct, size=k)
    gram = base[np.ix_(pick, pick)]
    oracle = coherence_oracle(gram)
    assert extract._coherence_pairs(gram) == oracle[:extract._REPORTED_PAIRS]


@settings(max_examples=80, deadline=None)
@given(desk=st.booleans(), n_rx=st.integers(2, 5), n_tx=st.integers(2, 5),
       n_freq=st.integers(2, 9), os_aoa=st.integers(1, 4), os_aod=st.integers(1, 4),
       os_delay=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       n_paths=st.integers(1, 6))
@example(desk=True, n_rx=2, n_tx=2, n_freq=2, os_aoa=4, os_aod=4, os_delay=4,
         seed=5, n_paths=6)
def test_real_frame_solve_equals_the_complex_solve(
        desk, n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay, seed, n_paths):
    """``_dedup_solve`` of the real lattice Gram ``R`` with the right-hand
    side ``phase^H b``, its solution times ``phase``, is ``_dedup_solve`` of
    the complex ``_dictionary_gram`` of the same lattice atoms with ``b``:
    the same kept indices and dropped count, and the amplitudes to 1e-9
    relative.  The atoms are distinct lattice points whose Gram is well
    posed, plus an exact duplicate of the first, which both drop (where
    several columns are near-dependent, which one goes is a tie that
    rounding breaks, in either frame)."""
    if desk:
        cfg = DESK
        spec = GridSpec(os_aoa=os_aoa, os_aod=os_aod, os_delay=os_delay)
    else:
        cfg, spec, _ = small_case(n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay)
    grid = beamspace.BeamspaceGrid(np.zeros((
        len(spec.aoa_axis(cfg)), len(spec.aod_axis(cfg)), len(spec.delay_axis(cfg))),
        dtype=complex), spec, cfg)
    rng = np.random.default_rng(seed)
    flat = rng.choice(math.prod(grid.shape), size=n_paths, replace=False)
    at = [tuple(int(x) for x in np.unravel_index(f, grid.shape)) for f in flat]
    at.append(at[0])
    paths = [PathParams(gain=1, delay=float(grid.delay_axis[l]),
                        aod=float(grid.aod_axis[j]), aoa=float(grid.aoa_axis[i]))
             for i, j, l in at]
    gram = _dictionary_gram(*sounder._steering_matrices(
        cfg, *zip(*[(p.delay, p.aod, p.aoa) for p in paths])))
    assume(extract._gram_condition(gram[:-1, :-1]) < 1e8)
    rhs = complex_normal(rng, len(paths))
    real, phase = grid._lattice_gram(grid._lattice_indices(paths))
    amps, cond, kept, dropped = extract._dedup_solve(real, phase.conj() * rhs)
    oracle, oracle_cond, oracle_kept, oracle_dropped = extract._dedup_solve(gram, rhs)
    assert (kept, dropped) == (oracle_kept, oracle_dropped) == (list(range(n_paths)), 1)
    assert cond == pytest.approx(oracle_cond, rel=1e-6)
    got = amps * phase[kept]
    assert np.max(np.abs(got - oracle)) <= 1e-9 * np.max(np.abs(oracle))


def dense_atoms(cfg, geometry):
    "Explicit (n_rx*n_tx*n_freq, K) dictionary from hand-written exponentials."
    r, t, f = np.arange(cfg.n_rx), np.arange(cfg.n_tx), cfg.freq_grid
    return np.stack([np.kron(np.exp(2j * np.pi * aoa * r),
                             np.kron(np.exp(-2j * np.pi * aod * t),
                                     np.exp(-2j * np.pi * delay * f)))
                     for delay, aod, aoa in geometry], axis=1)


@settings(max_examples=120, deadline=None)
@given(n_rx=st.integers(2, 5), n_tx=st.integers(2, 5), n_freq=st.integers(4, 12),
       seed=st.integers(0, 2**32 - 1), n_paths=st.integers(1, 6),
       n_near=st.integers(0, 2), closeness=st.integers(0, 10))
def test_ls_equals_dense_pseudo_inverse(n_rx, n_tx, n_freq, seed, n_paths, n_near,
                                        closeness):
    """Amplitudes against pinv(A) h and the condition number against
    cond(A^H A), with up to two near-duplicates: copies of an earlier path
    moved by a drawn fraction 10^-closeness of a resolution cell per axis
    (closeness 10 is an exact duplicate)."""
    cfg = SounderConfig(n_tx=n_tx, n_rx=n_rx, bandwidth_hz=1e9, n_freq=n_freq)
    rng = np.random.default_rng(seed)
    geometry = [(rng.uniform(0, cfg.duration), rng.uniform(-0.5, 0.5),
                 rng.uniform(-0.5, 0.5)) for _ in range(n_paths)]
    step = 0.0 if closeness == 10 else 10.0 ** -closeness
    for _ in range(min(n_near, n_paths - 1)):
        delay, aod, aoa = geometry[int(rng.integers(0, n_paths))]
        shift = step * rng.uniform(-1, 1, size=3)
        geometry.append((delay + shift[0] * cfg.delay_res,
                         aod + shift[1] * cfg.aod_res, aoa + shift[2] * cfg.aoa_res))
    a = dense_atoms(cfg, geometry)
    gram = a.conj().T @ a
    dense_cond = np.linalg.cond(gram)
    shape = (n_rx, n_tx, n_freq)
    h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    resp = FrequencyResponse(values=h, config=cfg)

    cond = ls_condition(geometry, cfg)
    if not cond <= GRAM_CONDITION_LIMIT:
        assert dense_cond > 1e10
        with pytest.raises(DegenerateGeometryError):
            ls_amplitudes(resp, geometry, cfg)
        return
    # both condition numbers come from Gram matrices equal to rounding, so
    # they agree to about cond * eps relative
    assert abs(cond - dense_cond) <= 1e-12 * dense_cond**2 + 1e-12 * dense_cond
    ref = np.linalg.pinv(a) @ h.ravel()
    amps = ls_amplitudes(resp, geometry, cfg)
    # normal-equation error bound: eps * cond * (|h| / |A| + |x|)
    scale = (np.linalg.norm(h) / np.sqrt(np.linalg.norm(gram, 2))
             + np.linalg.norm(ref))
    assert np.max(np.abs(amps - ref)) <= 1e-12 * cond * scale


@settings(max_examples=80, deadline=None)
@given(**SMALL, block=st.integers(1, 200), rx_block=st.integers(1, 6),
       n_spans=st.integers(1, 4))
def test_transform_row_peaks_equal_read_only_sweep(n_rx, n_tx, n_freq, os_aoa, os_aod,
                                                   os_delay, seed, block, rx_block,
                                                   n_spans):
    """The row peaks that ``beamspace_transform`` records while it makes the
    plane equal, bit for bit, those that a read-only ``peak_sweep`` writes
    on the grid it returns, and so does the peak: for any oversampling,
    block sizes and span count.  The plane is the bits of the transform
    made without row peaks and without a split."""
    cfg, spec, shape = small_case(n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay)
    rng = np.random.default_rng(seed)
    resp = FrequencyResponse(values=complex_normal(rng, (n_rx, n_tx, n_freq)),
                             config=cfg)
    n_rows = shape[0] * shape[1]
    recorded, swept = np.full(n_rows, np.nan), np.full(n_rows, np.nan)
    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", block), \
            mock.patch.object(sounder, "_RX_BLOCK", rx_block):
        plain = beamspace_transform(resp, spec)
        with mock.patch.multiple(pool, _cpus=lambda: n_spans, _MIN_SPAN_ENTRIES=1):
            grid = beamspace_transform(resp, spec, recorded)
            peak = peak_sweep(grid, row_peaks=swept)
    assert np.array_equal(grid._plane, plain._plane)
    assert recorded.tobytes() == swept.tobytes()
    assert peak == peak_sweep(plain)


@settings(max_examples=60, deadline=None)
@given(n_rx=st.integers(2, 8), n_tx=st.integers(2, 8), n_freq=st.integers(4, 32),
       os=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       n_paths=st.integers(1, 6), k_dom=st.integers(1, 10),
       k_g_up=st.integers(1, 4).flatmap(
           lambda k_g: st.tuples(st.just(k_g), st.integers(1, k_g))),
       refine=st.booleans(), noisy=st.booleans())
# a single path, three commits: the residual falls to 9e-8 of the initial
# power, where a running difference initial - N*sum|alpha|^2, off by about
# 6e-16 of the initial power, would be 5e-9 to 9e-9 of the residual off
@example(n_rx=7, n_tx=4, n_freq=21, os=3, seed=6546, n_paths=1, k_dom=3,
         k_g_up=(1, 1), refine=True, noisy=False)
def test_residual_trace_never_increases_and_equals_recomputed(
        n_rx, n_tx, n_freq, os, seed, n_paths, k_dom, k_g_up, refine, noisy):
    """Desk-size greedy-LS runs: the residual power after each commit is the
    power of h minus the synthesized commits so far, and never exceeds the
    power before that commit (a rounding allowance of 1e-12 of the initial
    power)."""
    cfg = SounderConfig(n_tx=n_tx, n_rx=n_rx, bandwidth_hz=1e9, n_freq=n_freq)
    rng = np.random.default_rng(seed)
    truth = [PathParams(gain=complex(rng.normal(), rng.normal()),
                        delay=rng.uniform(0, cfg.duration * 0.95),
                        aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
             for _ in range(n_paths)]
    resp = synthesize_response(cfg, truth)
    if noisy:
        resp = add_awgn(resp, 0.01 * np.mean(np.abs(resp.values) ** 2), seed=seed)
    k_g, k_up = k_g_up
    xcfg = ExtractionConfig(k_dom=k_dom, k_g=k_g, k_up=k_up, residual_stop=0.0,
                            final_global_ls=False, refine_peaks=refine,
                            grid=GridSpec(os_aoa=os, os_aod=os, os_delay=os))
    found, trace = greedy_ls(resp, cfg, xcfg)
    assert len(trace.residual_power) == len(found) >= 1
    powers = np.array([trace.initial_power] + trace.residual_power)
    assert np.all(np.diff(powers) <= 1e-12 * trace.initial_power)
    for k, recorded in enumerate(trace.residual_power):
        residual = resp.values - synthesize_response(cfg, found[:k + 1]).values
        assert recorded == pytest.approx(float(np.vdot(residual, residual).real),
                                         rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(n_rx=st.integers(2, 6), n_tx=st.integers(2, 6), n_freq=st.integers(4, 16),
       os=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       n_paths=st.integers(1, 6), k_dom=st.integers(1, 10),
       k_g_up=st.integers(1, 4).flatmap(
           lambda k_g: st.tuples(st.just(k_g), st.integers(1, k_g))),
       refine=st.booleans(), noisy=st.booleans())
def test_committed_gain_is_beamspace_point_of_the_residual(
        n_rx, n_tx, n_freq, os, seed, n_paths, k_dom, k_g_up, refine, noisy):
    """With final LS off, each committed gain, taken from the Gram-updated
    right-hand side, is ``beamspace_point`` of the measurement minus the
    earlier commits at the commit's coordinates, to 1e-12 relative (of the
    measurement's amplitude scale for gains that rounding dominates)."""
    cfg = SounderConfig(n_tx=n_tx, n_rx=n_rx, bandwidth_hz=1e9, n_freq=n_freq)
    rng = np.random.default_rng(seed)
    truth = [PathParams(gain=complex(rng.normal(), rng.normal()),
                        delay=rng.uniform(0, cfg.duration * 0.95),
                        aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
             for _ in range(n_paths)]
    resp = synthesize_response(cfg, truth)
    if noisy:
        resp = add_awgn(resp, 0.01 * np.mean(np.abs(resp.values) ** 2), seed=seed)
    k_g, k_up = k_g_up
    xcfg = ExtractionConfig(k_dom=k_dom, k_g=k_g, k_up=k_up, residual_stop=0.0,
                            final_global_ls=False, refine_peaks=refine,
                            grid=GridSpec(os_aoa=os, os_aod=os, os_delay=os))
    found, _ = greedy_ls(resp, cfg, xcfg)
    scale = float(np.sqrt(np.mean(np.abs(resp.values) ** 2)))
    for k, path in enumerate(found):
        residual = FrequencyResponse(
            values=resp.values - synthesize_response(cfg, found[:k]).values,
            config=cfg)
        point = beamspace_point(residual, path.aoa, path.aod, path.delay)
        assert abs(path.gain - point) <= 1e-12 * max(abs(point), scale)


@settings(max_examples=60, deadline=None)
@given(n_rx=st.integers(2, 6), n_tx=st.integers(2, 6), n_freq=st.integers(4, 16),
       os=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       n_paths=st.integers(1, 6), k_dom=st.integers(1, 10),
       k_g_up=st.integers(1, 4).flatmap(
           lambda k_g: st.tuples(st.just(k_g), st.integers(1, k_g))),
       noisy=st.booleans())
def test_lattice_rhs_equals_batch_omp_oracle(
        n_rx, n_tx, n_freq, os, seed, n_paths, k_dom, k_g_up, noisy):
    """With refine and final LS off, the LS right-hand side that each
    greedy-LS iteration solves, read off the residual grid, is the Batch-OMP
    oracle: the candidates' matched filter of the measurement minus their
    cross-Gram with the commits so far times those commits' gains, to 1e-12
    relative (of N times the measurement's amplitude scale for entries that
    rounding dominates)."""
    cfg = SounderConfig(n_tx=n_tx, n_rx=n_rx, bandwidth_hz=1e9, n_freq=n_freq)
    rng = np.random.default_rng(seed)
    truth = [PathParams(gain=complex(rng.normal(), rng.normal()),
                        delay=rng.uniform(0, cfg.duration * 0.95),
                        aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
             for _ in range(n_paths)]
    resp = synthesize_response(cfg, truth)
    if noisy:
        resp = add_awgn(resp, 0.01 * np.mean(np.abs(resp.values) ** 2), seed=seed)
    k_g, k_up = k_g_up
    xcfg = ExtractionConfig(k_dom=k_dom, k_g=k_g, k_up=k_up, residual_stop=0.0,
                            final_global_ls=False,
                            grid=GridSpec(os_aoa=os, os_aod=os, os_delay=os))
    iterations, commits, solved = [], [], []  # (commits so far, candidates)
    pick, commit, solve = (extract._candidates,
                           beamspace._PendingFootprints.append, extract._solve)
    units = []  # the unit footprints of the last candidates
    grids = []  # the picker's grid, whose lattice frame the solves are in

    def counted_pick(*args):
        candidates, units[:], atoms = pick(*args)
        iterations.append((len(commits), candidates))
        grids[:] = [args[0].grid]
        return candidates, units, atoms

    def counted_commit(self, unit, gain):
        index = [u is unit for u in units].index(True)
        commits.append(replace(iterations[-1][1][index], gain=gain))
        return commit(self, unit, gain)

    def first_solve(gram, rhs):  # later solves of an iteration drop duplicates
        if len(solved) < len(iterations):
            solved.append(rhs.copy())
        return solve(gram, rhs)

    with mock.patch.object(extract, "_candidates", counted_pick), \
            mock.patch.object(beamspace._PendingFootprints, "append", counted_commit), \
            mock.patch.object(extract, "_solve", first_solve):
        found, _ = greedy_ls(resp, cfg, xcfg)
    assert [p.gain for p in found] == [p.gain for p in commits]
    assert len(solved) == len(iterations) - (iterations[-1][1] == [])

    def atoms(paths):
        return path_atoms(cfg, paths)[0]

    scale = resp.values.size * float(np.sqrt(np.mean(np.abs(resp.values) ** 2)))
    for rhs, (k, candidates) in zip(solved, iterations):
        # the solve is in the real frame: phase^H times A^H r
        rhs = rhs * grids[0]._lattice_gram(grids[0]._lattice_indices(candidates))[1]
        cand = atoms(candidates)
        oracle = _matched_filter(resp.values, *cand) - _dictionary_gram(
            *cand, other=atoms(commits[:k])) @ np.array([p.gain for p in commits[:k]],
                                                        dtype=complex)
        assert np.all(np.abs(rhs - oracle) <= 1e-12 * np.maximum(np.abs(oracle), scale))


# ---------------------------------------------------------------------------
# the per-axis pair error against the scalar formulas it replaced


def oracle_wrap(delta):
    return delta - np.ceil(delta - 0.5)


def oracle_errors(p, q, res):
    "Signed (delay, aoa, aod) error in bins of one pair, one scalar at a time."
    return ((p.delay - q.delay) / res.delay_res,
            oracle_wrap(p.aoa - q.aoa) / res.aoa_res,
            oracle_wrap(p.aod - q.aod) / res.aod_res)


def oracle_cost(p, q, res):
    d_tau, d_aoa, d_aod = oracle_errors(p, q, res)
    return float(d_tau * d_tau + d_aoa * d_aoa + d_aod * d_aod)


def oracle_within(p, q, res):
    "Per-axis |delta| <= resolution, on the unscaled differences."
    return (abs(p.delay - q.delay) <= res.delay_res,
            abs(oracle_wrap(p.aoa - q.aoa)) <= res.aoa_res,
            abs(oracle_wrap(p.aod - q.aod)) <= res.aod_res)


def bits(values):
    "Exact text of each float, signed zeros told apart."
    return [float(v).hex() for v in values]


ERR_ANGLE = st.one_of(st.floats(-0.5, 0.5), st.floats(0.45, 0.5),
                      st.floats(-0.5, -0.45), st.sampled_from([-0.5, 0.0, 0.5]))
ERR_PATH = st.builds(
    lambda g, d, t, r: PathParams(gain=complex(g, 1.0), delay=d, aod=t, aoa=r),
    st.floats(-2.0, 2.0), st.floats(0.0, 3.2e-8), ERR_ANGLE, ERR_ANGLE)


@settings(max_examples=150, deadline=None)
@given(phys=st.lists(ERR_PATH, min_size=1, max_size=5),
       est=st.lists(ERR_PATH, min_size=1, max_size=5),
       boundary=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       ulps=st.tuples(*[st.sampled_from([-1, 0, 1, None])] * 3),
       unmatched_cost=st.sampled_from([0.5, 3.0, 1e6]))
def test_pair_errors_costs_csv_and_bins_equal_scalar_oracle(
        tmp_path_factory, phys, est, boundary, ulps, unmatched_cost):
    """One pair's |delta| sits exactly on its axis's resolution, or the
    resolution is one ulp below or above it (None, or a delta under a
    thousandth of a desk bin, keeps the desk resolution on that axis)."""
    p, q = phys[boundary[0] % len(phys)], est[boundary[1] % len(est)]
    widths = []
    unscaled = oracle_errors(p, q, ResolutionSpec(1.0, 1.0, 1.0))
    for delta, ulp, desk in zip(unscaled, ulps, (1e-9, 1 / 8, 1 / 8)):
        delta = abs(delta)
        if ulp is None or delta < 1e-3 * desk:
            widths.append(desk)
        else:
            widths.append(delta if ulp == 0 else math.nextafter(delta, ulp * math.inf))
    res = ResolutionSpec(delay_res=widths[0], aoa_res=widths[1], aod_res=widths[2])

    errors = _axis_errors(phys, est, res)
    costs = _cost_matrix(errors)
    for i, a in enumerate(phys):
        for j, b in enumerate(est):
            assert bits(errors[i, j]) == bits(oracle_errors(a, b, res))
            assert bits([costs[i, j], pairwise_cost(a, b, res)]) == \
                bits([oracle_cost(a, b, res)] * 2)

    result = associate(phys, est, res, unmatched_cost)
    sets = [set(), set(), set()]
    for (i, j, cost), row in zip(result.pairs, result.pair_errors):
        assert bits([cost]) == bits([oracle_cost(phys[i], est[j], res)])
        assert bits(row) == bits(oracle_errors(phys[i], est[j], res))
        for axis, ok in enumerate(oracle_within(phys[i], est[j], res)):
            if ok:
                sets[axis].add(i)
    bins = result.bin_sets
    assert [bins.delay, bins.aoa, bins.aod] == sets
    assert bins.joint == sets[0] & sets[1] & sets[2]

    f = tmp_path_factory.mktemp("pairs") / "pairs.csv"
    fileio.save_pairs_csv(f, result)
    rows = [line.split(",") for line in f.read_text(encoding="utf-8").splitlines()[1:]]
    assert rows == [
        [str(i), str(j), repr(oracle_cost(phys[i], est[j], res))]
        + [repr(float(e)) for e in oracle_errors(phys[i], est[j], res)]
        + [str(int(i in bins.joint))]
        for i, j, _ in result.pairs]
