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
    dense_peak,
    footprint_factors,
    grid_peak,
    kept_rows,
    kernel_factors,
    ls_condition,
    pairwise_cost,
    path_atoms,
)

# the small grids here run the derived-AoA code of the paper protocol's
# grids (``beamspace._AOA_PLANE_ENTRIES``)
pytestmark = pytest.mark.usefixtures("derive_aoa_rows")

SMALL = dict(n_rx=st.integers(1, 5), n_tx=st.integers(1, 5), n_freq=st.integers(1, 9),
             os_aoa=st.integers(1, 4), os_aod=st.integers(1, 3),
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
        peak_sweep(grid, footprint_factors(grid, paths))
        i, j, l, val = grid_peak(grid)
        # the same sweep cut into up to n_spans spans on the thread pool
        with mock.patch.multiple(pool, _cpus=lambda: n_spans, _MIN_SPAN_ENTRIES=1):
            peak_sweep(split_grid, footprint_factors(split_grid, paths))
        assert grid_peak(split_grid) == (i, j, l, val)
    assert np.array_equal(split_work, work)
    assert split_grid._row_peaks.tobytes() == grid._row_peaks.tobytes()

    scale = max(1.0, float(mag.max()))
    # the row maxima of the written plane, and to rounding the oracle's
    assert np.array_equal(grid._row_peaks, dense_peak(work)[1])
    assert np.max(np.abs(grid._row_peaks - dense_peak(dense)[1])) <= 1e-12 * scale
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
    peak_sweep(grid, footprint_factors(grid, random_paths(rng, cfg, spec, swept, on_grid)))
    row_peaks = grid._row_peaks
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


def picker_factors(grid, paths):
    """The footprints of ``paths`` as the picker builds them (``_footprint``,
    whose lattice factors are exactly 0 at the nonzero multiples of os):
    ``left`` column k the outer product of the AoA and AoD factors times
    the gain, ``right`` row k the delay factor."""
    n_rows, n_tau = grid.shape[0] * grid.shape[1], grid.shape[2]
    left = np.empty((n_rows, len(paths)), dtype=complex, order="F")
    right = np.empty((len(paths), n_tau), dtype=complex)
    for k, p in enumerate(paths):
        rx, tx, right[k] = beamspace._footprint(grid, p)
        left[:, k] = np.multiply.outer(rx, tx).ravel() * p.gain
    return left, right


@settings(max_examples=200, deadline=None)
@given(n_rx=st.integers(1, 5), n_tx=st.integers(1, 5), n_freq=st.integers(1, 9),
       os_aoa=st.integers(1, 3), os_delay=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), n_paths=st.integers(0, 5),
       on_grid=st.booleans(), shared=st.booleans(), ties=st.booleans(),
       bad=st.sampled_from([None, "reached", "unreached"]),
       bad_value=st.sampled_from([math.nan, math.inf]), block=st.integers(1, 80))
@example(n_rx=3, n_tx=2, n_freq=4, os_aoa=1, os_delay=1, seed=1, n_paths=0, on_grid=True,
         shared=False, ties=False, bad=None, bad_value=math.nan, block=80)
@example(n_rx=3, n_tx=2, n_freq=4, os_aoa=1, os_delay=1, seed=2, n_paths=3, on_grid=False,
         shared=False, ties=False, bad=None, bad_value=math.nan, block=80)
@example(n_rx=3, n_tx=2, n_freq=4, os_aoa=1, os_delay=2, seed=0, n_paths=3, on_grid=True,
         shared=True, ties=False, bad=None, bad_value=math.nan, block=80)
@example(n_rx=3, n_tx=1, n_freq=4, os_aoa=1, os_delay=2, seed=0, n_paths=3, on_grid=True,
         shared=True, ties=False, bad=None, bad_value=math.nan, block=1)
@example(n_rx=3, n_tx=1, n_freq=4, os_aoa=1, os_delay=2, seed=0, n_paths=3, on_grid=True,
         shared=True, ties=False, bad=None, bad_value=math.nan, block=16)
@example(n_rx=3, n_tx=2, n_freq=1, os_aoa=2, os_delay=1, seed=0, n_paths=3, on_grid=True,
         shared=False, ties=False, bad=None, bad_value=math.nan, block=80)
def test_sweep_of_the_reached_rows_equals_the_full_write(
        n_rx, n_tx, n_freq, os_aoa, os_delay, seed, n_paths, on_grid, shared, ties, bad,
        bad_value, block):
    """On a grid that stores every row (os_aod 1, every AoA row stored) and
    has its row maxima, a writing ``peak_sweep`` rewrites and rescans only
    the rows that its footprints reach, and gives the full write's plane,
    row maxima and peak (the same sweep on a copy of the grid that has no
    maxima yet, so it makes the full pass): bit for bit at os_aoa 1, to
    1e-12 of the maximum where the AoA factor is dense, and the dense
    oracle's.  The footprints are the picker's on the lattice, which reach
    one row each at oversample 1, or anywhere, which reach every row; with
    ``shared`` the paths share the first one's angles, so that at
    oversample 1 their footprints reach one row, a lone row made by a
    product of several columns (a product of one row would run on BLAS's
    vector kernel, whose bits differ from the matrix kernel's); with
    ``ties``, integer values and integer footprints of one row each make
    exact magnitude ties between reached and unreached rows, which take the
    lowest index triple.  No footprint rewrites no row.  Footprints that
    reach every row, and grids whose full-pass block products run on BLAS's
    vector kernel (one delay, or a block of one view row), get the full
    pass.  A non-finite value in a reached or an unreached row raises the
    full sweep's ValueError, naming its index, once the plane is written
    whole."""
    cfg, spec, shape = small_case(n_rx, n_tx, n_freq, os_aoa, 1, os_delay)
    rng = np.random.default_rng(seed)
    n_rows, n_tau = shape[0] * shape[1], shape[2]
    if ties:
        values = (rng.integers(-1, 2, size=shape)
                  + 1j * rng.integers(-1, 2, size=shape)).astype(complex)
        grid = beamspace.BeamspaceGrid(values, spec, cfg)
        peak_sweep(grid)
        left = np.zeros((n_rows, n_paths), dtype=complex, order="F")
        left[rng.integers(0, n_rows, size=n_paths), np.arange(n_paths)] = 1
        right = (rng.integers(-1, 2, size=(n_paths, n_tau))
                 + 1j * rng.integers(-1, 2, size=(n_paths, n_tau))).astype(complex)
    else:
        resp = FrequencyResponse(values=complex_normal(rng, (n_rx, n_tx, n_freq)),
                                 config=cfg)
        with mock.patch.object(beamspace, "_AOA_PLANE_ENTRIES", 1 << 40):
            grid = beamspace_transform(resp, spec)
        paths = random_paths(rng, cfg, spec, n_paths, on_grid)
        if shared:
            paths = [replace(p, aoa=paths[0].aoa, aod=paths[0].aod) for p in paths]
        left, right = picker_factors(grid, paths)
    recorded = grid._row_peaks
    assert grid._steps == (1, 1) and recorded is not None
    reached = np.flatnonzero(np.any(left, axis=1))
    flat = grid._plane.reshape(n_rows, n_tau)
    if bad is not None:
        rows = reached if bad == "reached" else np.setdiff1d(np.arange(n_rows), reached)
        assume(len(rows))
        row = int(rng.choice(rows))
        flat[row, rng.integers(0, n_tau)] = bad_value
        recorded[row] = np.abs(flat[row]).max()  # the maxima as the grid stands
    dense = grid._plane - (left @ right).reshape(shape)
    full = beamspace.BeamspaceGrid(grid._plane.copy(), spec, cfg)
    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", block):
        if bad is None:
            peak_sweep(grid, (left, right))
            peak_sweep(full, (left, right))
            peak, ref = grid_peak(grid), grid_peak(full)
        else:
            with pytest.raises(ValueError, match="non-finite") as named:
                peak_sweep(full, (left, right))
            with pytest.raises(ValueError) as got:
                peak_sweep(grid, (left, right))
            assert str(got.value) == str(named.value)
        # the full pass where its block products would run on BLAS's vector
        # kernel (one delay, or a block of one view row) or every row is reached
        per = beamspace._scan_rows(shape, 1) * shape[1]
    restricted = n_tau > 1 and per > 1 and n_rows % per != 1 and len(reached) < n_rows
    assert grid._swept_rows == (len(reached) if restricted else n_rows)
    assert full._swept_rows == n_rows
    assert grid._row_peaks is recorded
    if not n_paths:
        assert len(reached) == 0
    elif on_grid and os_aoa == 1 and not ties:
        assert len(reached) <= n_paths  # a lattice footprint reaches one row
    assert np.array_equal(recorded, np.abs(flat).max(axis=1), equal_nan=True)
    scale = max(1.0, float(np.max(np.abs(dense), where=np.isfinite(dense), initial=0)))
    if os_aoa == 1 or ties:
        assert grid._plane.tobytes() == full._plane.tobytes()
        assert recorded.tobytes() == full._row_peaks.tobytes()
    else:
        finite = np.isfinite(full._plane)
        assert np.array_equal(np.isfinite(grid._plane), finite)
        assert np.max(np.abs(grid._plane[finite] - full._plane[finite]),
                      initial=0) <= 1e-12 * scale
        np.testing.assert_allclose(recorded, full._row_peaks, rtol=0, atol=1e-12 * scale)
    if bad is not None:
        return
    assert np.max(np.abs(grid._plane - dense), initial=0) <= 1e-12 * scale
    if os_aoa == 1 or ties:
        assert peak == ref
    else:
        assert_same_peak(peak, full._plane, scale)
    assert_same_peak(peak, dense, scale)
    if ties:  # exact arithmetic: the first maximum in (aoa, aod, delay) order
        assert peak[:3] == np.unravel_index(int(np.argmax(np.abs(dense))), shape)


@settings(max_examples=100, deadline=None)
@given(n_rx=st.integers(1, 5), n_tx=st.integers(1, 4), n_freq=st.integers(1, 6),
       os_aoa=st.integers(1, 3), os_aod=st.integers(1, 2), os_delay=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1), n_paths=st.integers(0, 3), on_grid=st.booleans(),
       transform=st.booleans(),
       bad=st.lists(st.sampled_from([complex(math.nan, 0.0), complex(1.0, math.nan),
                                     complex(math.inf, 0.0), complex(0.0, -math.inf)]),
                    min_size=1, max_size=4))
@example(n_rx=2, n_tx=2, n_freq=4, os_aoa=1, os_aod=1, os_delay=1, seed=0, n_paths=2,
         on_grid=True, transform=False,
         bad=[complex(math.inf, 0.0), complex(math.nan, 0.0), complex(math.inf, 0.0)])
def test_non_finite_values_are_named_alike_by_every_pass(
        n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay, seed, n_paths, on_grid, transform,
        bad):
    """NaN and inf values anywhere in a grid's stored plane, across block and
    span edges, make a ``peak_sweep`` raise ``tentative_peak``'s ValueError
    over the rows whose maximum is not finite, and it names the first
    magnitude of the written grid that is not finite, in (aoa, aod, delay)
    order: for every ``_BLOCK_ENTRIES`` and span count, and whether the pass
    is full (a grid with no row maxima yet) or restricted to the rows that
    the footprints reach (a grid that stores every row and has the maxima
    of its plane as it stands).  A grid built from an array stores every
    row; a transform's derives AoA rows at os_aoa > 1 and AoD rows at
    os_aod > 1, and those get the full pass.  Every pass writes the whole
    plane before it raises, and its row maxima are not finite exactly where
    the written grid's rows are not."""
    cfg, spec, shape = small_case(n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay)
    rng = np.random.default_rng(seed)
    if transform:
        grid = beamspace_transform(FrequencyResponse(
            values=complex_normal(rng, (n_rx, n_tx, n_freq)), config=cfg), spec)
    else:
        grid = beamspace.BeamspaceGrid(complex_normal(rng, shape), spec, cfg)
    plane, n_rows = grid._plane, shape[0] * shape[1]
    at = rng.choice(plane.size, size=min(len(bad), plane.size), replace=False)
    plane.reshape(-1)[at] = bad[:len(at)]
    paths = random_paths(rng, cfg, spec, n_paths, on_grid)
    factors = picker_factors(grid, paths) if paths else None
    stores_every_row = grid._steps == (1, 1)
    maxima = np.abs(plane).reshape(n_rows, -1).max(axis=1) if stores_every_row else None

    def sweep(block, n_spans, restricted):
        "The pass on a copy of the grid, its error message, and the copy."
        copy = beamspace.BeamspaceGrid(plane.copy(), spec, cfg)
        copy._steps = grid._steps
        if restricted:
            copy._row_peaks = maxima.copy()
        with mock.patch.object(beamspace, "_BLOCK_ENTRIES", block), \
                mock.patch.multiple(pool, _cpus=lambda: n_spans, _MIN_SPAN_ENTRIES=1), \
                pytest.raises(ValueError, match="non-finite") as named:
            peak_sweep(copy, factors)
        return str(named.value), copy

    _, ref = sweep(beamspace._BLOCK_ENTRIES, 1, False)
    with np.errstate(invalid="ignore"):
        lattice = ref.values
    first = np.unravel_index(int(np.flatnonzero(~np.isfinite(lattice))[0]), shape)
    expected = "non-finite beamspace magnitude at grid index ({}, {}, {})".format(*first)
    rows_bad = ~np.isfinite(lattice.reshape(n_rows, -1)).all(axis=1)
    finite = np.isfinite(ref._plane)
    for block in (1, 5, 16, 80):
        for n_spans in (1, 3):
            for restricted in (False, True) if stores_every_row else (False,):
                message, copy = sweep(block, n_spans, restricted)
                assert message == expected
                assert np.array_equal(~np.isfinite(copy._row_peaks), rows_bad)
                assert np.array_equal(np.isfinite(copy._plane), finite)
                assert np.max(np.abs(copy._plane[finite] - ref._plane[finite]),
                              initial=0) <= 1e-12 * max(1.0, np.abs(ref._plane[finite]).max(
                                  initial=0))


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
    array-built copy of the dense lattice: the same peak (``grid_peak``
    after a sweep) unless rounding can reorder the top two, row peaks and
    values to 1e-12, the swept lattices to 1e-12, and the tentative pick
    leaves the plane as it was.  Two rounds
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
    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", block):
        peak_sweep(grid, footprint_factors(grid, paths))
        peak_sweep(copy, footprint_factors(copy, paths))
        got, ref = grid_peak(grid), grid_peak(copy)
    row_peaks, copy_row_peaks = grid._row_peaks, copy._row_peaks
    swept = copy.values
    assert_same_peak(got, swept, scale)
    assert_same_peak(ref, swept, scale)
    assert np.array_equal(copy_row_peaks, dense_peak(swept)[1])
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
        peak_sweep(grid, factors)
        peak_sweep(copy, factors)
        swept = copy.values
        assert np.max(np.abs(grid.values - swept)) <= 1e-12 * scale
        assert np.max(np.abs(row_peaks - copy_row_peaks)) <= 1e-12 * scale


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
    grid = beamspace_transform(resp, spec)
    row_peaks = grid._row_peaks
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
    last index of every axis included.  With paths off the lattice among
    them, every position is a float and the Gram, the axis kernels at the
    real offset differences, is ``_dictionary_gram`` to 1e-12 too."""
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
    off = replace(paths[0], delay=paths[0].delay + 0.25 / cfg.bandwidth_hz / os_delay)
    assert grid._lattice_index(off) is None
    # and off the lattice: random coordinates, seam angles and a delay just
    # below T, where every position is a float
    off_paths = [off, PathParams(gain=1, delay=(1 - 2**-52) * cfg.duration,
                                 aod=-0.5, aoa=0.5)] + [
        PathParams(gain=1, delay=rng.uniform(0, cfg.duration),
                   aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
        for _ in range(n_paths)]
    for atoms, kind in ((paths, "i"), (paths + off_paths, "f")):
        at = grid._positions(atoms)
        assert all(x.dtype.kind == kind for x in at)
        real, phase = grid._lattice_gram(at)
        assert real.dtype == float and np.array_equal(real, real.T)
        gram = phase[:, None] * real * phase.conj()
        oracle = _dictionary_gram(*sounder._steering_matrices(
            cfg, *zip(*[(p.delay, p.aod, p.aoa) for p in atoms])))
        assert np.max(np.abs(gram - oracle)) <= 1e-12 * np.max(np.abs(oracle))


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


@settings(max_examples=150, deadline=None)
@given(desk=st.booleans(), n_rx=st.integers(1, 5), n_tx=st.integers(1, 5),
       n_freq=st.integers(1, 10), os_aoa=st.integers(1, 4), os_aod=st.integers(1, 4),
       os_delay=st.integers(1, 4), derive=st.booleans(),
       aoa=st.one_of(EDGE_ANGLES, st.floats(-0.5, 0.5)),
       aod=st.one_of(EDGE_ANGLES, st.floats(-0.5, 0.5)),
       share=st.one_of(EDGE_SHARES, st.floats(0, 1, exclude_max=True)),
       n_pending=st.sampled_from([0, 1, 3, 8]), seed=st.integers(0, 2**32 - 1))
@example(desk=False, n_rx=1, n_tx=1, n_freq=1, os_aoa=4, os_aod=4, os_delay=4,
         derive=True, aoa=0.5, aod=-0.5, share=1 - 2**-52, n_pending=1, seed=3)
def test_residual_at_float_positions_equals_the_point_oracle(
        desk, n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay, derive, aoa, aod, share,
        n_pending, seed):
    """At float positions the picker's ``residual_at`` interpolates the grid
    minus the pending footprints from its critical samples: it is
    ``beamspace_point`` of the response minus the pending paths, to 1e-12
    of the plane's maximum, at the drawn point (angles at and next to
    +-0.5, delays up to just below T) and at random ones, with one element
    on an axis, oversampling 1-4, none or several pending columns, on grids
    that derive their AoA rows and grids that store every one
    (``_AOA_PLANE_ENTRIES`` patched), in one block of positions and in
    blocks of one (``_BLOCK_ENTRIES`` patched)."""
    if desk:
        cfg = DESK
        spec = GridSpec(os_aoa=os_aoa, os_aod=os_aod, os_delay=os_delay)
    else:
        cfg, spec, _ = small_case(n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay)
    rng = np.random.default_rng(seed)

    def random_path():
        return PathParams(gain=complex(rng.normal(), rng.normal()),
                          delay=rng.uniform(0, cfg.duration),
                          aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))

    pending = [random_path() for _ in range(n_pending)]
    values = synthesize_response(cfg, pending + [random_path()]).values
    values = values + 0.1 * complex_normal(rng, values.shape)
    with mock.patch.object(beamspace, "_AOA_PLANE_ENTRIES", 0 if derive else 1 << 21):
        picks = beamspace._PendingFootprints(FrequencyResponse(values, cfg), spec, 1)
    assert (picks.grid._steps[0] > 1) == (derive and os_aoa > 1)
    for path in pending:
        picks.append(picks.unit(path), path.gain)
    points = [(aoa, aod, share * cfg.duration)] + [
        (p.aoa, p.aod, p.delay) for p in (random_path() for _ in range(3))]
    n_aoa, n_aod, _ = picks.grid.shape
    at = tuple(np.array(x, dtype=float) for x in zip(*[
        ((a + 0.5) * n_aoa, (d + 0.5) * n_aod, tau * cfg.bandwidth_hz * os_delay)
        for a, d, tau in points]))
    got = picks.residual_at(at)
    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", 1):  # one position a block
        blocked = picks.residual_at(at)
    residual = FrequencyResponse(values - synthesize_response(cfg, pending).values, cfg)
    oracle = [beamspace_point(residual, a, d, tau) for a, d, tau in points]
    for read in (got, blocked):
        assert np.max(np.abs(read - oracle)) <= 1e-12 * np.max(np.abs(picks.grid._plane))


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
    real, phase = grid._lattice_gram(grid._positions(paths))
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
    """The row peaks that ``beamspace_transform``'s first pass records equal,
    bit for bit, those that a second read-only ``peak_sweep`` writes on the
    grid it returns, and those of the transform made with default blocks
    and no split, and so does the grid's peak (``grid_peak``): for any
    oversampling, block sizes and span count.  The plane is the bits of the
    transform made without a split."""
    cfg, spec, shape = small_case(n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay)
    rng = np.random.default_rng(seed)
    resp = FrequencyResponse(values=complex_normal(rng, (n_rx, n_tx, n_freq)),
                             config=cfg)
    with mock.patch.object(sounder, "_RX_BLOCK", rx_block):
        plain = beamspace_transform(resp, spec)
        with mock.patch.object(beamspace, "_BLOCK_ENTRIES", block), \
                mock.patch.multiple(pool, _cpus=lambda: n_spans, _MIN_SPAN_ENTRIES=1):
            grid = beamspace_transform(resp, spec)
            recorded = grid._row_peaks.copy()
            peak_sweep(grid)
    assert np.array_equal(grid._plane, plain._plane)
    assert recorded.tobytes() == grid._row_peaks.tobytes() == plain._row_peaks.tobytes()
    assert grid_peak(grid) == grid_peak(plain)


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
       noisy=st.booleans(), refine=st.booleans())
def test_lattice_rhs_equals_batch_omp_oracle(
        n_rx, n_tx, n_freq, os, seed, n_paths, k_dom, k_g_up, noisy, refine):
    """With final LS off, the LS right-hand side that each greedy-LS
    iteration solves, read off the residual grid (at the lattice picks, or
    with ``refine`` interpolated at the refined ones), is the Batch-OMP
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
                            final_global_ls=False, refine_peaks=refine,
                            grid=GridSpec(os_aoa=os, os_aod=os, os_delay=os))
    iterations, commits, solved = [], [], []  # (commits so far, candidates)
    pick, commit, solve = (extract._candidates,
                           beamspace._PendingFootprints.append, extract._solve)
    units = []  # the unit footprints of the last candidates
    grids = []  # the picker's grid, whose lattice frame the solves are in

    def counted_pick(*args):
        candidates, units[:] = pick(*args)
        iterations.append((len(commits), candidates))
        grids[:] = [args[0].grid]
        return candidates, units

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

    def cross_gram(a, b):
        "A^H B of the atoms of two sets of steering matrices."
        return math.prod(x.T.conj() @ y for x, y in zip(a, b))

    scale = resp.values.size * float(np.sqrt(np.mean(np.abs(resp.values) ** 2)))
    for rhs, (k, candidates) in zip(solved, iterations):
        # the solve is in the real frame: phase^H times A^H r
        rhs = rhs * grids[0]._lattice_gram(grids[0]._positions(candidates))[1]
        cand = atoms(candidates)
        oracle = _matched_filter(resp.values, *cand) - cross_gram(
            cand, atoms(commits[:k])) @ np.array([p.gain for p in commits[:k]],
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


@settings(max_examples=100, deadline=None)
@given(n_rx=st.integers(2, 6), n_tx=st.integers(2, 6), n_freq=st.integers(4, 16),
       os_aoa=st.integers(1, 4), os_aod=st.integers(1, 4), os_delay=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), n_paths=st.integers(1, 5),
       k_dom=st.integers(1, 6), refine=st.booleans(), noisy=st.booleans())
@example(n_rx=5, n_tx=4, n_freq=12, os_aoa=4, os_aod=2, os_delay=3, seed=3, n_paths=4,
         k_dom=6, refine=True, noisy=True)
@example(n_rx=3, n_tx=4, n_freq=15, os_aoa=4, os_aod=3, os_delay=2, seed=472264,
         n_paths=1, k_dom=4, refine=True, noisy=False)
def test_greedy_ls_is_equivariant_to_scaling_and_rotating_the_tensor(
        n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay, seed, n_paths, k_dom, refine,
        noisy):
    """The closed loop respects the model's symmetries.  Greedy-LS on the
    tensor times 2 and times 2^-40 gives the same geometries bit for bit
    and the gains times exactly that factor.  On the tensor times 1j the
    lattice geometries are the same and the gains are 1j times the old ones
    to 1e-13 of their largest, times the largest condition number of the
    run's LS solves (``ls_condition``): the rotated tensor rounds
    differently in the products, and an ill-conditioned solve (two refined
    picks side by side) amplifies that.  Off the lattice, with
    ``refine_peaks``, a path's geometry moves by that same bound over its
    own amplitude, in resolution bins: its parabolic fit reads a residual
    whose rounding is set by the largest path, so a weak pick's offset
    carries it relative to its own small peak."""
    cfg = SounderConfig(n_tx=n_tx, n_rx=n_rx, bandwidth_hz=1e9, n_freq=n_freq)
    rng = np.random.default_rng(seed)
    truth = [PathParams(gain=complex(rng.normal(), rng.normal()),
                        delay=rng.uniform(0, cfg.duration * 0.95),
                        aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
             for _ in range(n_paths)]
    resp = synthesize_response(cfg, truth)
    if noisy:
        resp = add_awgn(resp, 0.01 * np.mean(np.abs(resp.values) ** 2), seed=seed)
    xcfg = ExtractionConfig(k_dom=k_dom, k_g=3, k_up=2, residual_stop=0.0,
                            refine_peaks=refine,
                            grid=GridSpec(os_aoa=os_aoa, os_aod=os_aod, os_delay=os_delay))

    def run(factor):
        return greedy_ls(FrequencyResponse(values=resp.values * factor, config=cfg),
                         cfg, xcfg)[0]

    base, trace = greedy_ls(resp, cfg, xcfg)
    assert base
    for factor in (2.0, 2.0 ** -40):
        scaled = run(factor)
        assert [(p.delay, p.aod, p.aoa) for p in scaled] == \
            [(p.delay, p.aod, p.aoa) for p in base]
        assert [p.gain for p in scaled] == [factor * p.gain for p in base]
    rotated = run(1j)
    assert len(rotated) == len(base)
    scale = max(abs(p.gain) for p in base) * max(1.0, *trace.ls_condition)
    bins = np.array([cfg.delay_res, cfg.aod_res, cfg.aoa_res])
    for got, old in zip(rotated, base):
        moved = np.subtract((got.delay, got.aod, got.aoa), (old.delay, old.aod, old.aoa))
        moved[1:] -= np.round(moved[1:])  # the angles wrap
        if refine:
            assert np.all(np.abs(moved) <= 1e-13 * scale / abs(old.gain) * bins)
        else:
            assert not moved.any()
    assert max(abs(got.gain - 1j * old.gain) for got, old in zip(rotated, base)) \
        <= 1e-13 * scale
