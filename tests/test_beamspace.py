import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpcx import (
    BeamspaceGrid,
    FrequencyResponse,
    GridSpec,
    PathParams,
    SounderConfig,
    beamspace_transform,
    pdp_marginals,
    single_path_grid,
    synthesize_response,
)
from mpcx import beamspace, fileio, pool, sounder
from mpcx.beamspace import peak_sweep, tentative_peak

from closed_form import (
    angle_kernel,
    beamspace_point,
    delay_kernel,
    dense_peak,
    footprint_factors,
    grid_peak,
    kept_rows,
)

# the small grids here run the derived-AoA code of the paper protocol's
# grids (``beamspace._AOA_PLANE_ENTRIES``)
pytestmark = pytest.mark.usefixtures("derive_aoa_rows")
# the threshold that the module's fixture sets aside
AOA_PLANE_ENTRIES = beamspace._AOA_PLANE_ENTRIES

DESK = SounderConfig(n_tx=8, n_rx=8, bandwidth_hz=1e9, n_freq=32)


def transform_oracle_point(resp, theta_r, theta_t, tau):
    "Direct triple-sum evaluation of the beamspace formula at one point."
    cfg = resp.config
    acc = 0.0 + 0.0j
    for r in range(cfg.n_rx):
        for t in range(cfg.n_tx):
            for k, f in enumerate(cfg.freq_grid):
                acc += (
                    np.exp(-2j * np.pi * theta_r * r)
                    * resp.values[r, t, k]
                    * np.exp(2j * np.pi * theta_t * t)
                    * np.exp(2j * np.pi * tau * f)
                )
    return acc / (cfg.n_rx * cfg.n_tx * cfg.n_freq)


def random_path(rng, cfg, margin=0.95):
    return PathParams(
        gain=complex(rng.normal(), rng.normal()),
        delay=rng.uniform(0, cfg.duration * margin),
        aod=rng.uniform(-0.5, 0.5),
        aoa=rng.uniform(-0.5, 0.5),
    )


# The per-axis factors of the footprint: on an axis with one element (or
# one tone, at delay 0) every steering entry is exp(0) = 1, so with the
# other two axes so reduced single_path_grid is the remaining axis' factor.


def aoa_factor(n, aoa, os=1):
    "AoA offsets ``aoa - axis`` and footprint factor of a unit path, n elements."
    cfg = SounderConfig(n_tx=1, n_rx=n, bandwidth_hz=1e9, n_freq=1)
    grid = single_path_grid(PathParams(gain=1 + 0j, delay=0.0, aod=0.0, aoa=aoa),
                            GridSpec(os_aoa=os, os_aod=1, os_delay=1), cfg)
    return aoa - grid.aoa_axis, grid.values[:, 0, 0]


def aod_factor(n, aod, os=1):
    "AoD offsets ``axis - aod`` and footprint factor of a unit path, n elements."
    cfg = SounderConfig(n_tx=n, n_rx=1, bandwidth_hz=1e9, n_freq=1)
    grid = single_path_grid(PathParams(gain=1 + 0j, delay=0.0, aod=aod, aoa=0.0),
                            GridSpec(os_aoa=1, os_aod=os, os_delay=1), cfg)
    return grid.aod_axis - aod, grid.values[0, :, 0]


def delay_factor(bandwidth_hz, n_freq, delay, os=1):
    "Delay offsets ``axis - delay`` and footprint factor of a unit path."
    cfg = SounderConfig(n_tx=1, n_rx=1, bandwidth_hz=bandwidth_hz, n_freq=n_freq)
    grid = single_path_grid(PathParams(gain=1 + 0j, delay=delay, aod=0.0, aoa=0.0),
                            GridSpec(os_aoa=1, os_aod=1, os_delay=os), cfg)
    return grid.delay_axis - delay, grid.values[0, 0, :]


def test_angle_kernel_peak_and_zero():
    for n in (1, 2, 4, 35):
        assert angle_kernel(0.0, n) == 1.0
        # a path on lattice point n // 2: peak 1 there, zeros at the others
        _, factor = aoa_factor(n, -0.5 + (n // 2) / n)
        assert abs(factor[n // 2] - 1.0) < 1e-12
        assert np.all(np.abs(np.delete(factor, n // 2)) < 1e-12)
    assert abs(angle_kernel(1.0 / 4, 4)) < 1e-12
    assert abs(angle_kernel(2.0 / 8, 8)) < 1e-12
    for n, offset in ((4, 1), (8, 2)):
        _, factor = aoa_factor(n, -0.5)
        assert abs(factor[offset]) < 1e-12
        _, factor = aod_factor(n, -0.5)
        assert abs(factor[offset]) < 1e-12


def test_angle_kernel_direct_sum_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        delta = rng.uniform(-2.0, 2.0)
        oracle = sum(np.exp(2j * np.pi * delta * m) for m in range(n)) / n
        assert angle_kernel(delta, n) == pytest.approx(oracle, abs=1e-12)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        os = int(rng.integers(1, 5))
        for offsets, factor in (aoa_factor(n, rng.uniform(-0.5, 0.5), os),
                                aod_factor(n, rng.uniform(-0.5, 0.5), os)):
            oracle = np.exp(2j * np.pi * np.outer(offsets, np.arange(n))).mean(axis=1)
            np.testing.assert_allclose(factor, oracle, rtol=0, atol=1e-12)
    # the specific quarter-bin case: offset 1/8 from lattice point 0
    oracle = sum(np.exp(2j * np.pi * (1 / 8) * m) for m in range(4)) / 4
    assert angle_kernel(1.0 / (2 * 4), 4) == pytest.approx(oracle, abs=1e-14)
    offsets, factor = aoa_factor(4, -0.5 + 1 / 8, os=2)
    assert offsets[0] == 1 / 8
    assert factor[0] == pytest.approx(oracle, abs=1e-14)


def test_angle_kernel_periodicity_and_phase():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = rng.uniform(-1.0, 1.0)
        n = int(rng.integers(2, 20))
        os = int(rng.integers(1, 5))
        assert angle_kernel(d + 1.0, n) == pytest.approx(angle_kernel(d, n), abs=1e-12)
        # period 1: paths at -0.5 and +0.5 are offset by exactly 1 everywhere
        np.testing.assert_allclose(aoa_factor(n, 0.5, os)[1],
                                   aoa_factor(n, -0.5, os)[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(aod_factor(n, 0.5, os)[1],
                                   aod_factor(n, -0.5, os)[1], rtol=0, atol=1e-12)
        # even magnitude: the path at -aoa sees the offsets negated, the
        # lattice point -axis[i] being axis[-i] up to a whole period
        aoa = rng.uniform(-0.5, 0.5)
        offsets, factor = aoa_factor(n, aoa, os)
        mirrored = aoa_factor(n, -aoa, os)[1][(-np.arange(n * os)) % (n * os)]
        np.testing.assert_allclose(np.abs(mirrored), np.abs(factor), rtol=0,
                                   atol=1e-12)
        # linear phase factor exp(j*pi*(n-1)*d) on top of a real magnitude
        unrotated = factor * np.exp(-1j * np.pi * (n - 1) * offsets)
        assert np.max(np.abs(unrotated.imag)) < 1e-12


def test_angle_kernel_integer_offsets_exact():
    assert angle_kernel(3.0, 5) == 1.0
    assert angle_kernel(-2.0, 9) == 1.0
    # the path at +0.5 sits a whole period from lattice point -0.5
    for n in (5, 9):
        offsets, factor = aoa_factor(n, 0.5)
        assert offsets[0] == 1.0
        assert abs(factor[0] - 1.0) < 1e-12
        offsets, factor = aod_factor(n, 0.5)
        assert offsets[0] == -1.0
        assert abs(factor[0] - 1.0) < 1e-12


def test_delay_kernel_values():
    assert delay_kernel(0.0, 1e9, 32) == 1.0
    assert abs(delay_kernel(1e-9, 1e9, 32)) < 1e-12
    _, factor = delay_factor(1e9, 32, 0.0)
    assert factor[0] == 1.0  # every exponential is exp(0) and 1/32 is exact
    assert np.all(np.abs(factor[1:]) < 1e-12)
    w, nf = 1e9, 64
    grid = -w / 2 + np.arange(nf) * (w / nf)
    oracle = np.mean(np.exp(2j * np.pi * 0.4e-9 * grid))
    assert delay_kernel(0.4e-9, w, nf) == pytest.approx(oracle, abs=1e-13)
    offsets, factor = delay_factor(w, nf, 0.0, os=5)  # lattice point 2 is 0.4 ns
    assert factor[2] == pytest.approx(oracle, abs=1e-13)
    np.testing.assert_allclose(
        factor, np.exp(2j * np.pi * np.outer(offsets, grid)).mean(axis=1),
        rtol=0, atol=1e-13)
    np.testing.assert_allclose(factor, delay_kernel(offsets, w, nf), rtol=0,
                               atol=1e-13)


def test_grid_spec_axes():
    spec = GridSpec(os_aoa=4, os_aod=2, os_delay=3)
    aoa = spec.aoa_axis(DESK)
    aod = spec.aod_axis(DESK)
    tau = spec.delay_axis(DESK)
    assert len(aoa) == 8 * 4 and aoa[0] == -0.5 and aoa[-1] < 0.5
    assert len(aod) == 8 * 2
    assert len(tau) == 32 * 3 and tau[0] == 0.0
    assert np.allclose(np.diff(tau), 1.0 / (1e9 * 3))


@pytest.mark.parametrize("field, value", [
    ("os_aoa", 0), ("os_aod", 2.5), ("os_delay", float("nan")), ("os_aoa", 2.5),
    ("os_aoa", True)])
def test_grid_spec_validation(field, value):
    """An oversampling factor that is not a positive integer raises a
    ValueError naming its field at construction, before it reaches an axis
    or a slice."""
    with pytest.raises(ValueError, match=f"^{field} "):
        GridSpec(**{field: value})


def test_grid_spec_accepts_numpy_integers():
    spec = GridSpec(os_aoa=np.int64(2), os_aod=np.int32(3), os_delay=np.uint8(1))
    assert len(spec.aoa_axis(DESK)) == 16 and len(spec.aod_axis(DESK)) == 24


def test_coset_kernel_matches_the_aod_lattice():
    """A transform grid's ``(real, pre, post)`` kernel is the interpolator
    ``M_s M_0^H / n_tx`` of its own AoD lattice matrix, with ``real`` real:
    its derived rows j = os*q + s in (q, s) order, from the stored rows q'."""
    for n_tx in range(1, 41):
        cfg = SounderConfig(n_tx=n_tx, n_rx=1, bandwidth_hz=1e9, n_freq=1)
        for os_aod in range(2, 7):
            spec = GridSpec(os_aoa=1, os_aod=os_aod, os_delay=1)
            grid = beamspace_transform(
                FrequencyResponse(values=np.zeros((1, n_tx, 1), dtype=complex),
                                  config=cfg), spec)
            real, pre, post = grid._kernels[1]
            assert real.dtype == np.float64
            cosets = spec._matrices(cfg)[1].reshape(n_tx, os_aod, n_tx)
            interp = cosets[:, 1:].reshape(-1, n_tx) @ cosets[:, 0].T.conj() / n_tx
            assert np.max(np.abs(post[:, None] * real * pre - interp)) <= 1e-13
            if n_tx == 1:
                assert np.all(real == 1)


def test_coset_kernel_matches_the_aoa_lattice():
    """A transform grid's AoA ``(real, pre, post)`` kernel is the
    interpolator ``M_s M_0^H / n_rx`` of its own AoA lattice matrix (which
    carries 1/(n_rx n_tx n_freq), undone here): its derived AoA rows i =
    os*p + s in (p, s) order, from the stored rows p'.  ``_aoa_phase`` is
    ``conj(pre)`` at the stored AoA rows and ``post`` at the derived ones."""
    for n_rx in range(1, 41):
        cfg = SounderConfig(n_tx=1, n_rx=n_rx, bandwidth_hz=1e9, n_freq=1)
        for os_aoa in range(2, 7):
            spec = GridSpec(os_aoa=os_aoa, os_aod=1, os_delay=1)
            grid = beamspace_transform(
                FrequencyResponse(values=np.zeros((n_rx, 1, 1), dtype=complex),
                                  config=cfg), spec)
            real, pre, post = grid._kernels[0]
            assert real.dtype == np.float64 and grid._kernels[1] is None
            cosets = spec._matrices(cfg)[0].reshape(n_rx, os_aoa, n_rx) * n_rx
            interp = cosets[:, 1:].reshape(-1, n_rx) @ cosets[:, 0].T.conj() / n_rx
            assert np.max(np.abs(post[:, None] * real * pre - interp)) <= 1e-13
            phase = grid._aoa_phase.reshape(n_rx, os_aoa)
            assert np.array_equal(phase[:, 0], pre.conj())
            assert np.array_equal(phase[:, 1:].ravel(), post)
            if n_rx == 1:
                assert np.all(real == 1)


def fft_transform_oracle(response, spec):
    "The transform evaluated with zero-padded FFTs along each axis."
    cfg = response.config
    n_aoa = cfg.n_rx * spec.os_aoa
    n_aod = cfg.n_tx * spec.os_aod
    n_tau = len(spec.delay_axis(cfg))
    pad_tau = cfg.n_freq * spec.os_delay
    work = response.values * ((-1.0) ** np.arange(cfg.n_rx))[:, None, None]
    work = np.fft.fft(work, n=n_aoa, axis=0) / cfg.n_rx
    work = work * ((-1.0) ** np.arange(cfg.n_tx))[None, :, None]
    work = np.fft.ifft(work, n=n_aod, axis=1) * (n_aod / cfg.n_tx)
    work = np.fft.ifft(work, n=pad_tau, axis=2)[:, :, :n_tau] * (pad_tau / cfg.n_freq)
    return work * np.exp(-1j * np.pi * np.arange(n_tau) / spec.os_delay)


@pytest.mark.parametrize("spec", [
    GridSpec(),
    GridSpec(os_aoa=3, os_aod=1, os_delay=2),
    GridSpec(os_aoa=1, os_aod=5, os_delay=3),
])
def test_transform_matches_fft_oracle(spec):
    rng = np.random.default_rng(13)
    resp = synthesize_response(DESK, [random_path(rng, DESK) for _ in range(4)])
    noisy = resp.values + 0.1 * (rng.normal(size=resp.values.shape)
                                 + 1j * rng.normal(size=resp.values.shape))
    resp = FrequencyResponse(values=noisy, config=DESK)
    got = beamspace_transform(resp, spec).values
    ref = fft_transform_oracle(resp, spec)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def hand_case(shape):
    "Sounder config and 1x oversampled spec whose lattice has ``shape``."
    n_aoa, n_aod, n_tau = shape
    cfg = SounderConfig(n_tx=n_aod, n_rx=n_aoa, bandwidth_hz=1e9, n_freq=n_tau)
    return cfg, GridSpec(os_aoa=1, os_aod=1, os_delay=1)


def assert_swept(grid, peak):
    """A pass over ``grid`` recorded the dense oracle's row maxima, and
    ``grid_peak`` finds the dense oracle's ``peak`` of the grid."""
    dense, maxima = dense_peak(grid.values)
    np.testing.assert_array_equal(grid._row_peaks, maxima)
    assert grid_peak(grid) == dense == peak


def test_peak_sweep_ties_across_blocks_take_lowest_index():
    cfg, spec = hand_case((4, 3, 5))
    values = np.zeros((4, 3, 5), dtype=complex)
    values[3, 2, 4] = 3.0
    values[2, 0, 1] = -3.0
    values[1, 1, 0] = 3j  # same magnitude, lowest index triple
    values[1, 2, 3] = 2.0
    for block in (1, 5, 7, 15, 60):
        with mock.patch.object(beamspace, "_BLOCK_ENTRIES", block):
            grid = BeamspaceGrid(values, spec, cfg)
            peak_sweep(grid)
            assert_swept(grid, (1, 1, 0, 3j))


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(1.0, np.nan),
                                 complex(np.inf, 0.0)])
@pytest.mark.parametrize("with_path", [False, True])
def test_peak_sweep_rejects_non_finite(bad, with_path):
    cfg, spec = hand_case((4, 3, 5))
    values = np.zeros((4, 3, 5), dtype=complex)
    values[0, 0, 0] = 10.0  # a larger finite peak in an earlier block
    values[3, 1, 2] = bad
    paths = [PathParams(gain=0.5 + 0j, delay=0.0, aod=0.0, aoa=0.0)] if with_path else []
    grid = BeamspaceGrid(values, spec, cfg)
    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", 5):
        with pytest.raises(ValueError, match=r"non-finite .* \(3, 1, 2\)"):
            peak_sweep(grid, footprint_factors(grid, paths))


def bound_case():
    """A 2x2x3 grid, its row peaks and hand-made rank-1 footprint factors
    (row r of the footprint is ``left[r] * [1, 1, 1]``, so ``reach`` is
    ``|left|``).  Row 2 (peak 4, reach 1) sets the floor at 3; row 1 (peak 2,
    reach 1) reaches exactly 3, and reaches it at column 0, a lower flat
    index than row 2's 3 at column 2.  Rows 0 and 3 cannot reach 3; row 0's
    values break its recorded peak, so reading them would change the pick."""
    cfg, spec = hand_case((2, 2, 3))
    values = np.zeros((2, 2, 3), dtype=complex)
    values[0, 0] = [10, 0, 0]  # recorded as 1 below: only read if not pruned
    values[0, 1] = [2, 0, 0]
    values[1, 0] = [0, 0, 4]
    row_peaks = np.array([1.0, 2.0, 4.0, 0.0])
    left = np.array([[0], [-1], [1], [0]], dtype=complex)
    right = np.ones((1, 3), dtype=complex)
    return BeamspaceGrid(values, spec, cfg), row_peaks, (left, right)


def test_tentative_peak_tie_at_the_row_bound_takes_lowest_index():
    grid, row_peaks, factors = bound_case()
    before = grid.values.copy()
    rows = kept_rows(row_peaks, factors)
    assert rows.tolist() == [1, 2]
    for block in (1, 3, 6, 12):
        with mock.patch.object(beamspace, "_BLOCK_ENTRIES", block):
            assert tentative_peak(grid, factors, rows) == (0, 1, 0, 3.0)
    assert np.array_equal(grid.values, before)
    # a grid that derives no row reads its plane: no row is copied
    assert np.shares_memory(grid._lattice_rows.values, grid._plane)
    # once row 1 cannot reach the floor, row 2's equal peak is the pick
    row_peaks[1] = np.nextafter(2.0, 0.0) / (1 + beamspace._BOUND_SLACK) - 1.0
    rows = kept_rows(row_peaks, factors)
    assert rows.tolist() == [2]
    assert tentative_peak(grid, factors, rows) == (1, 0, 2, 3.0)
    # exactly the rows handed over are evaluated: row 0's 10 wins among
    # them, and no row gives the all-zero result
    assert tentative_peak(grid, factors, np.array([0, 2])) == (0, 0, 0, 10.0)
    assert tentative_peak(grid, factors, np.array([], dtype=int)) == (0, 0, 0, 0)


def test_bound_rows_floor_only_raises_the_default_floor():
    """Without a floor the kept rows are those whose bound reaches
    max(row_peaks - reach), and all of them when a row peak is NaN.  A
    floor below that or a NaN floor keeps the same rows; a higher one keeps
    only the rows whose bound reaches it, within the rounding slack, and
    never drops a NaN row."""
    bound_rows = beamspace._bound_rows
    row_peaks = np.array([1.0, 5.0, 3.0, 0.5])
    reach = np.array([0.5, 1.0, 0.2, 4.0])  # bounds 1.5, 6, 3.2, 4.5; floor 4
    assert bound_rows(row_peaks, reach).tolist() == [1, 3]
    for floor in (None, 2.0, 4.0, math.nan):
        assert bound_rows(row_peaks, reach, floor).tolist() == [1, 3]
    assert bound_rows(row_peaks, reach, 4.5).tolist() == [1, 3]
    assert bound_rows(row_peaks, reach, 4.5 * (1 + 2e-9)).tolist() == [1]
    assert bound_rows(row_peaks, reach, 7.0).tolist() == []
    row_peaks[2] = math.nan
    for floor in (None, 2.0, 7.0, math.nan):
        assert bound_rows(row_peaks, reach, floor).tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(1.0, np.nan),
                                 complex(np.inf, 0.0)])
def test_tentative_peak_rejects_non_finite(bad):
    "A non-finite row peak keeps its row, whose value then raises."
    grid, row_peaks, factors = bound_case()
    grid.values[1, 1, 0] = bad
    row_peaks[3] = abs(bad)
    with pytest.raises(ValueError, match=r"non-finite .* \(1, 1, 0\)"):
        tentative_peak(grid, factors, kept_rows(row_peaks, factors))


def test_peak_sweep_write_needs_contiguous_grid():
    cfg, spec = hand_case((4, 3, 5))
    values = np.zeros((4, 3, 10), dtype=complex)[:, :, ::2]
    path = PathParams(gain=1 + 0j, delay=0.0, aod=-0.5, aoa=-0.5)  # on lattice
    grid = BeamspaceGrid(values, spec, cfg)
    with pytest.raises(ValueError, match="contiguous"):
        peak_sweep(grid, footprint_factors(grid, [path]))
    assert not values.any()
    # with no kernels nothing is written, so any layout will do
    values[1, 2, 3] = 2j
    grid = BeamspaceGrid(values, spec, cfg)
    peak_sweep(grid)
    assert_swept(grid, (1, 2, 3, 2j))


def test_transform_zero_response():
    grid = beamspace_transform(synthesize_response(DESK, []), GridSpec())
    assert np.all(grid.values == 0)
    assert grid.values.shape == (32, 32, 128)


def test_transform_matches_direct_sum_oracle():
    rng = np.random.default_rng(11)
    paths = [random_path(rng, DESK) for _ in range(3)]
    resp = synthesize_response(DESK, paths)
    grid = beamspace_transform(resp, GridSpec())
    for _ in range(6):
        i = int(rng.integers(0, len(grid.aoa_axis)))
        j = int(rng.integers(0, len(grid.aod_axis)))
        l = int(rng.integers(0, len(grid.delay_axis)))
        oracle = transform_oracle_point(resp, grid.aoa_axis[i], grid.aod_axis[j],
                                        grid.delay_axis[l])
        assert grid.values[i, j, l] == pytest.approx(oracle, abs=1e-12)


def test_transform_on_grid_single_path():
    spec = GridSpec()
    resp = synthesize_response(DESK, [])
    grid = beamspace_transform(resp, spec)
    i, j, l = 6, 20, 48
    path = PathParams(gain=0.7 - 0.2j, delay=float(grid.delay_axis[l]),
                      aod=float(grid.aod_axis[j]), aoa=float(grid.aoa_axis[i]))
    grid = beamspace_transform(synthesize_response(DESK, [path]), spec)
    assert grid.values[i, j, l] == pytest.approx(path.gain, abs=1e-12)
    # off-peak magnitudes bounded by the sidelobe product, which is < 1
    mags = np.abs(grid.values)
    assert np.unravel_index(np.argmax(mags), mags.shape) == (i, j, l)


def test_transform_linearity():
    rng = np.random.default_rng(13)
    a = synthesize_response(DESK, [random_path(rng, DESK)])
    b = synthesize_response(DESK, [random_path(rng, DESK)])
    spec = GridSpec(os_aoa=2, os_aod=2, os_delay=2)
    ga = beamspace_transform(a, spec).values
    gb = beamspace_transform(b, spec).values
    combined = beamspace_transform(
        type(a)(values=a.values + b.values, config=DESK), spec
    ).values
    assert np.allclose(combined, ga + gb, atol=1e-12)


def test_single_path_grid_zero_gain():
    path = PathParams(gain=0j, delay=1e-9, aod=0.1, aoa=-0.3)
    grid = single_path_grid(path, GridSpec(), DESK)
    assert np.all(grid.values == 0)


def test_kernel_consistency_random_paths():
    "single_path_grid must match transform(synthesize(path)) to 1e-9 relative."
    rng = np.random.default_rng(19)
    spec = GridSpec()
    for _ in range(25):
        path = random_path(rng, DESK)
        via_transform = beamspace_transform(synthesize_response(DESK, [path]), spec)
        analytic = single_path_grid(path, spec, DESK)
        num = np.linalg.norm(via_transform.values - analytic.values)
        den = np.linalg.norm(via_transform.values)
        assert num / den < 1e-9


def test_single_path_grid_on_grid_peak_exact():
    spec = GridSpec()
    axis_grid = beamspace_transform(synthesize_response(DESK, []), spec)
    path = PathParams(gain=2 - 1j, delay=float(axis_grid.delay_axis[17]),
                      aod=float(axis_grid.aod_axis[8]),
                      aoa=float(axis_grid.aoa_axis[3]))
    grid = single_path_grid(path, spec, DESK)
    assert grid.values[3, 8, 17] == path.gain


def test_beamspace_point_matches_grid_and_oracle():
    rng = np.random.default_rng(31)
    resp = synthesize_response(DESK, [random_path(rng, DESK) for _ in range(2)])
    grid = beamspace_transform(resp, GridSpec())
    i, j, l = 9, 2, 77
    point = beamspace_point(resp, float(grid.aoa_axis[i]), float(grid.aod_axis[j]),
                            float(grid.delay_axis[l]))
    assert point == pytest.approx(grid.values[i, j, l], abs=1e-12)
    off = beamspace_point(resp, 0.123, -0.271, 13.7e-9)
    oracle = transform_oracle_point(resp, 0.123, -0.271, 13.7e-9)
    assert off == pytest.approx(oracle, abs=1e-12)


def test_peak_sweep_subtraction_equals_residual_transform():
    "In-place grid subtraction == transforming the frequency-domain residual."
    rng = np.random.default_rng(37)
    spec = GridSpec()
    paths = [random_path(rng, DESK) for _ in range(3)]
    resp = synthesize_response(DESK, paths)
    grid = beamspace_transform(resp, spec)
    peak_sweep(grid, footprint_factors(grid, [paths[0]]))
    residual = type(resp)(values=resp.values
                          - synthesize_response(DESK, [paths[0]]).values,
                          config=DESK)
    expected = beamspace_transform(residual, spec)
    scale = np.linalg.norm(expected.values)
    assert np.linalg.norm(grid.values - expected.values) / scale < 1e-9


def test_peak_sweep_needs_contiguous_grid_and_finishes_before_raising():
    """The sweep writes block by block; a non-finite entry stops it only
    once every block is written, and the row maxima are those of the
    written grid."""
    cfg, spec = hand_case((4, 3, 5))
    path = PathParams(gain=1 + 0j, delay=0.0, aod=0.0, aoa=0.0)
    strided = np.ones((4, 3, 10), dtype=complex)[:, :, ::2]
    grid = BeamspaceGrid(strided, spec, cfg)
    with pytest.raises(ValueError, match="contiguous"):
        peak_sweep(grid, footprint_factors(grid, [path]))
    assert np.all(strided == 1)  # rejected before anything is written
    values = np.ones((4, 3, 5), dtype=complex)
    values[2, 1, 3] = np.nan
    expected = 1 - single_path_grid(path, spec, cfg).values
    expected[2, 1, 3] = np.nan
    grid = BeamspaceGrid(values, spec, cfg)
    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", 15):  # one AoA row a block
        with pytest.raises(ValueError, match=r"non-finite .* \(2, 1, 3\)"):
            peak_sweep(grid, footprint_factors(grid, [path]))
    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(grid._row_peaks, dense_peak(values)[1])


def test_pdp_marginals_properties():
    spec = GridSpec(os_aoa=2, os_aod=2, os_delay=2)
    zero = beamspace_transform(synthesize_response(DESK, []), spec)
    m_ang, m_del = pdp_marginals(synthesize_response(DESK, []), spec)
    assert np.all(m_ang == 0) and np.all(m_del == 0)
    assert m_ang.shape == (16, 16) and m_del.shape == (16, 64)

    axis_grid = zero
    for j in (4, 5):  # on a stored and on a derived AoD row
        path = PathParams(gain=1 + 0j, delay=float(axis_grid.delay_axis[10]),
                          aod=float(axis_grid.aod_axis[j]),
                          aoa=float(axis_grid.aoa_axis[7]))
        resp = synthesize_response(DESK, [path])
        grid = beamspace_transform(resp, spec)
        m_ang, m_del = pdp_marginals(resp, spec)
        total = np.sum(np.abs(grid.values) ** 2)
        assert np.sum(m_ang) == pytest.approx(total, rel=1e-12)
        assert np.sum(m_del) == pytest.approx(total, rel=1e-12)
        assert np.unravel_index(np.argmax(m_ang), m_ang.shape) == (7, j)
        assert np.unravel_index(np.argmax(m_del), m_del.shape) == (7, 10)
        # the Gram form of the angle map rounds below 0 where a path on a
        # derived row has no power, unless it is clamped
        assert np.all(m_ang >= 0) and np.all(m_del >= 0)


@pytest.mark.parametrize("os_aod", [1, 2, 3, 4])
@pytest.mark.parametrize("n_tx", [1, 3, 8])
def test_pdp_marginals_equal_full_grid_formula_in_one_row_of_memory(n_tx, os_aod):
    rng = np.random.default_rng(41)
    cfg = SounderConfig(n_tx=n_tx, n_rx=16, bandwidth_hz=1e9, n_freq=32)
    resp = FrequencyResponse(values=rng.normal(size=(16, n_tx, 32))
                             + 1j * rng.normal(size=(16, n_tx, 32)), config=cfg)
    spec = GridSpec(os_aod=os_aod)
    # the grid of the largest case, n_tx 8 at os_aod 4: on the smaller ones
    # the transform's own lattice matrices weigh more than their grid
    grid_bytes = 64 * 32 * 128 * 16
    tracemalloc.start()
    try:
        m_ang, m_del = pdp_marginals(resp, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    power = np.abs(beamspace_transform(resp, spec).values) ** 2
    np.testing.assert_allclose(m_ang, power.sum(axis=2), rtol=1e-12, atol=0)
    np.testing.assert_allclose(m_del, power.sum(axis=1), rtol=1e-12, atol=0)
    assert peak < 0.25 * grid_bytes, f"peak {peak / grid_bytes:.2f}x the grid"


def split_into(n_spans):
    "Patches under which every kernel with ``n_spans`` or more blocks splits."
    return mock.patch.multiple(pool, _cpus=lambda: n_spans, _MIN_SPAN_ENTRIES=1)


def test_split_sweep_tie_across_span_edge_takes_lowest_index():
    cfg, spec = hand_case((4, 3, 5))
    values = np.zeros((4, 3, 5), dtype=complex)
    values[2, 0, 1] = -3.0  # second span
    values[1, 2, 4] = 3j  # first span, same magnitude, lower index
    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", 15), split_into(2):
        for peak in ((1, 2, 4, 3j), (3, 1, 0, 4.0)):
            grid = BeamspaceGrid(values, spec, cfg)
            peak_sweep(grid)
            assert_swept(grid, peak)
            values[3, 1, 0] = 4.0  # a strictly larger peak in the second span wins


@pytest.mark.parametrize("with_path", [False, True])
def test_split_sweep_reports_lowest_non_finite_index(with_path):
    cfg, spec = hand_case((4, 3, 5))
    values = np.ones((4, 3, 5), dtype=complex)
    values[3, 0, 2] = np.inf  # second span
    values[1, 1, 3] = np.nan  # first span
    paths = [PathParams(gain=0.5 + 0j, delay=0.0, aod=0.0, aoa=0.0)] if with_path else []
    grid = BeamspaceGrid(values, spec, cfg)
    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", 15), split_into(2):
        with pytest.raises(ValueError, match=r"non-finite .* \(1, 1, 3\)"):
            peak_sweep(grid, footprint_factors(grid, paths))


@pytest.mark.parametrize("n_spans", [2, 3, 4])
@settings(max_examples=30, deadline=None)
@given(n_rx=st.integers(1, 17), n_tx=st.integers(1, 4), n_freq=st.integers(1, 8),
       os_aoa=st.integers(1, 4), os_aod=st.integers(1, 2),
       os_delay=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       line_rows=st.integers(1, 3), rx_block=st.integers(1, 4))
@example(n_rx=9, n_tx=3, n_freq=5, os_aoa=1, os_aod=2, os_delay=2, seed=0,
         line_rows=2, rx_block=2)
@example(n_rx=17, n_tx=2, n_freq=4, os_aoa=1, os_aod=1, os_delay=1, seed=1,
         line_rows=3, rx_block=4)
@example(n_rx=11, n_tx=3, n_freq=6, os_aoa=3, os_aod=1, os_delay=2, seed=2,
         line_rows=2, rx_block=4)
def test_split_transform_is_bit_identical(n_spans, n_rx, n_tx, n_freq, os_aoa, os_aod,
                                          os_delay, seed, line_rows, rx_block):
    """Any split of the transform's delay blocks (``line_rows`` rx rows) and
    AoA blocks (``rx_block`` rows) gives the unsplit bits, in
    ``beamspace_transform`` and in ``pdp_marginals``; both stages split into
    as many spans as they have blocks, up to ``n_spans``.  At os_aoa > 1 the
    transform applies its square AoA matrix to the tones first, in one
    product, and has no AoA stage."""
    rng = np.random.default_rng(seed)
    cfg = SounderConfig(n_tx=n_tx, n_rx=n_rx, bandwidth_hz=1e9, n_freq=n_freq)
    shape = (n_rx, n_tx, n_freq)
    resp = FrequencyResponse(values=rng.normal(size=shape) + 1j * rng.normal(size=shape),
                             config=cfg)
    spec = GridSpec(os_aoa=os_aoa, os_aod=os_aod, os_delay=os_delay)
    n_aoa = n_rx * os_aoa
    run_blocks, spans = sounder.run_blocks, []

    def counted(fn, n_rows, block_rows, row_entries):
        out = run_blocks(fn, n_rows, block_rows, row_entries)
        spans.append((n_rows, block_rows, len(out)))
        return out

    # the stored AoD rows are n_tx, so _LINE_BLOCK // n_tx rx rows per block
    with mock.patch.multiple(sounder, _LINE_BLOCK=line_rows * n_tx, _RX_BLOCK=rx_block,
                             _MADDS_PER_ENTRY=1):
        whole = beamspace_transform(resp, spec).values
        maps = pdp_marginals(resp, spec)
        with split_into(n_spans), mock.patch.object(sounder, "run_blocks", counted):
            np.testing.assert_array_equal(beamspace_transform(resp, spec).values, whole)
            for split, unsplit in zip(pdp_marginals(resp, spec), maps):
                np.testing.assert_array_equal(split, unsplit)
    stages = [(n_rx, line_rows, min(n_spans, -(-n_rx // line_rows))),
              (n_aoa, rx_block, min(n_spans, -(-n_aoa // rx_block)))]
    assert spans == stages[:1 if os_aoa > 1 else 2] + stages


@pytest.mark.parametrize("n_spans", [2, 3])
@settings(max_examples=30, deadline=None)
@given(n_rx=st.integers(1, 9), n_tx=st.integers(1, 4), n_freq=st.integers(1, 6),
       os_aoa=st.integers(1, 4), os_aod=st.integers(1, 3), os_delay=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1), n_paths=st.integers(1, 3),
       block=st.integers(1, 200))
@example(n_rx=7, n_tx=2, n_freq=3, os_aoa=2, os_aod=2, os_delay=1, seed=4, n_paths=2,
         block=1)
def test_split_sweep_of_a_transform_grid_is_bit_identical(
        n_spans, n_rx, n_tx, n_freq, os_aoa, os_aod, os_delay, seed, n_paths, block):
    """The transform's first pass and a writing ``peak_sweep`` on a grid that
    derives AoA rows (and AoD rows) give the unsplit bits in any split:
    the row peaks of both, the written plane and its peak.  Their blocks of stored
    AoA rows, and the derived AoA rows made per block, do not depend on the
    split; the last block's lone derived row (os_aoa 2, an odd n_rx) is made
    with its neighbour's in every split."""
    rng = np.random.default_rng(seed)
    cfg = SounderConfig(n_tx=n_tx, n_rx=n_rx, bandwidth_hz=1e9, n_freq=n_freq)
    shape = (n_rx, n_tx, n_freq)
    resp = FrequencyResponse(values=rng.normal(size=shape) + 1j * rng.normal(size=shape),
                             config=cfg)
    spec = GridSpec(os_aoa=os_aoa, os_aod=os_aod, os_delay=os_delay)
    paths = [random_path(rng, cfg) for _ in range(n_paths)]

    def run():
        grid = beamspace_transform(resp, spec)
        first = grid._row_peaks.tobytes()
        peak_sweep(grid, footprint_factors(grid, paths))
        return first, grid_peak(grid), grid._row_peaks.tobytes(), grid._plane.tobytes()

    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", block):
        whole = run()
        with split_into(n_spans):
            assert run() == whole


def test_run_blocks_spans_whole_blocks():
    with split_into(3):
        spans = pool.run_blocks(lambda start, stop: (start, stop), 18, 4, 1)
    assert spans == [(0, 4), (4, 12), (12, 18)]


def test_run_blocks_waits_for_every_span_before_raising():
    "A span that raises at once does not leave another still running."
    done = threading.Event()

    def span(start, stop):
        if start == 0:
            raise RuntimeError("span 0 failed")
        time.sleep(0.2)
        done.set()

    with split_into(2), pytest.raises(RuntimeError, match="span 0"):
        pool.run_blocks(span, 2, 1, 1)
    assert done.is_set()


def _sweep_in_child(values, spec, cfg, conn):
    with split_into(2):
        grid = BeamspaceGrid(values, spec, cfg)
        peak_sweep(grid)
        conn.send(grid._row_peaks)


@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_split_sweep_runs_in_a_forked_child():
    "A child forked after a split sweep splits its own sweep."
    cfg, spec = hand_case((4, 3, 5))
    values = np.zeros((4, 3, 5), dtype=complex)
    values[3, 2, 1] = 2.0
    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", 15), split_into(2):
        grid = BeamspaceGrid(values, spec, cfg)
        peak_sweep(grid)
        assert_swept(grid, (3, 2, 1, 2.0))
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_sweep_in_child, args=(values, spec, cfg, send))
        child.start()
        try:
            assert receive.poll(60), "the child's split sweep did not finish"
            np.testing.assert_array_equal(receive.recv(), grid._row_peaks)
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()
    assert child.exitcode == 0


def test_small_grids_and_one_cpu_start_no_pool():
    "Below the split threshold, or with one CPU, nothing imports concurrent.futures."
    code = """
import sys
from mpcx import GridSpec, SounderConfig, beamspace_transform, pool, synthesize_response
from mpcx.beamspace import peak_sweep
cfg = SounderConfig(n_tx=8, n_rx=8, bandwidth_hz=1e9, n_freq=32)
for split_at, cpus in ((pool._MIN_SPAN_ENTRIES, pool._cpus()), (1, 1)):
    pool._MIN_SPAN_ENTRIES, pool._cpus = split_at, lambda: cpus
    peak_sweep(beamspace_transform(synthesize_response(cfg, []), GridSpec()))
    assert "concurrent.futures" not in sys.modules
"""
    src = str(Path(beamspace.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})


def test_transform_rejects_foreign_shapes():
    other = SounderConfig(n_tx=4, n_rx=4, bandwidth_hz=1e9, n_freq=16)
    resp = synthesize_response(other, [])
    grid = beamspace_transform(resp, GridSpec())
    assert grid.values.shape == (16, 16, 64)


@pytest.mark.parametrize("preset", ["paper", "desk"])
def test_axis_kernel_of_three_axes_in_one_call_has_their_bits(preset):
    """An off-lattice footprint evaluates the three axes' offsets in one
    ``_axis_kernel`` call, with per-entry (elements, oversampling, slope):
    its ``(phase, real)`` bytes equal those of one call per axis, at
    fractional positions, at the lattice points and at the seam."""
    cfg = fileio.load_sounder_config(preset)
    rng = np.random.default_rng(7)
    for os in range(1, 5):
        spec = GridSpec(os_aoa=os, os_aod=(os % 4) + 1, os_delay=os)
        axes = spec._axes(cfg)
        sizes = [n * step for n, step, _ in axes]
        for positions in (rng.uniform(0, 1, 3) * sizes, [0.0, sizes[1] - 1.0, 0.5],
                          [sizes[0] - 1e-12, 1e-12, sizes[2] - 0.5]):
            offsets = [np.arange(n) - p for n, p in zip(sizes, positions)]
            phase, real = beamspace._axis_kernel(
                *(np.repeat(column, sizes) for column in zip(*axes)),
                np.concatenate(offsets))
            at = np.cumsum([0] + sizes)
            for k, (axis, u) in enumerate(zip(axes, offsets)):
                one_phase, one_real = beamspace._axis_kernel(*axis, u)
                assert phase[at[k]:at[k + 1]].tobytes() == one_phase.tobytes()
                assert real[at[k]:at[k + 1]].tobytes() == one_real.tobytes()


def test_picker_on_the_paper_lattice_holds_less_than_half_the_old_plane():
    """A ``_PendingFootprints`` on a random paper-config tensor at
    oversampling 4 (its transform, first pass and factor columns) peaks
    below half of the 73 MB that the lattice's AoA rows at every AoD step of
    os_aod take: the grid stores the critical 35 x 35 x 932 plane, 18 MB,
    which is the transform's delay-transformed lines.  One span, whose
    scratch rows a second span would hold again."""
    cfg = fileio.load_sounder_config("paper")
    rng = np.random.default_rng(3)
    shape = (cfg.n_rx, cfg.n_tx, cfg.n_freq)
    resp = FrequencyResponse(values=rng.normal(size=shape) + 1j * rng.normal(size=shape),
                             config=cfg)
    spec = GridSpec(4, 4, 4)
    old_plane = 16 * cfg.n_rx * 4 * cfg.n_tx * cfg.n_freq * 4
    with split_into(1):
        tracemalloc.start()
        try:
            picks = beamspace._PendingFootprints(resp, spec, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert picks.grid._plane.nbytes == spec._plane_bytes(cfg) == 35 * 35 * 932 * 16
    assert peak < old_plane / 2, f"peak {peak / old_plane:.2f}x the old plane"


@pytest.mark.parametrize("oversample", [1, 2, 3, 4])
def test_picker_bytes_bound_the_picker_peak_within_a_tenth(oversample):
    """``_picker_bytes``, what extract's memory preflight asks, is at least
    the tracemalloc peak of building a ``_PendingFootprints`` with 4
    candidate columns on a random paper-config tensor, its row cache and
    offset tables included, and at most a tenth above it: the larger of
    the transform's phase (at oversample 1) and the picker's."""
    cfg = fileio.load_sounder_config("paper")
    rng = np.random.default_rng(3)
    shape = (cfg.n_rx, cfg.n_tx, cfg.n_freq)
    resp = FrequencyResponse(values=rng.normal(size=shape) + 1j * rng.normal(size=shape),
                             config=cfg)
    spec = GridSpec(oversample, oversample, oversample)
    with mock.patch.object(beamspace, "_AOA_PLANE_ENTRIES", AOA_PLANE_ENTRIES):
        tracemalloc.start()
        try:
            picks = beamspace._PendingFootprints(resp, spec, 4)
            picks.grid._lattice_rows, picks.grid._offset_tables
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        asked = beamspace._picker_bytes(cfg, spec, 4)
    assert peak <= asked <= 1.1 * peak, f"asked {asked / peak:.3f}x the peak"


def test_grids_up_to_the_aoa_plane_threshold_store_every_aoa_row():
    """A transform stores every AoA row where that plane holds at most
    ``_AOA_PLANE_ENTRIES`` values and derives none, as at os_aoa = 1: the
    desk grid at oversample 4 stores 32 x 8 x 128 values and equals the FFT
    oracle.  The paper grid stores every AoA row at oversample 2 (18 MB)
    and its critical AoA rows at oversample 3 and 4."""
    with mock.patch.object(beamspace, "_AOA_PLANE_ENTRIES", AOA_PLANE_ENTRIES):
        spec = GridSpec()
        rng = np.random.default_rng(5)
        resp = synthesize_response(DESK, [random_path(rng, DESK) for _ in range(4)])
        grid = beamspace_transform(resp, spec)
        assert grid._steps == (1, 4) and grid._kernels[0] is None
        assert grid._plane.nbytes == spec._plane_bytes(DESK) == 32 * 8 * 128 * 16
        ref = fft_transform_oracle(resp, spec)
        assert np.max(np.abs(grid.values - ref)) <= 1e-12 * np.max(np.abs(ref))
        paper = fileio.load_sounder_config("paper")
        assert [GridSpec(os, os, os)._aoa_step(paper) for os in (1, 2, 3, 4)] == [1, 1, 3, 4]


@settings(max_examples=40, deadline=None)
@given(n_rx=st.integers(2, 9), n_tx=st.integers(1, 4), n_freq=st.integers(1, 6),
       os_aoa=st.integers(2, 4), os_aod=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       n_spans=st.integers(1, 3))
def test_rows_after_a_writing_sweep_have_the_bits_of_a_fresh_row_cache(
        n_rx, n_tx, n_freq, os_aoa, os_aod, seed, n_spans):
    """A writing ``peak_sweep`` refills the row cache's held derived AoA rows
    with those it derives: the groups with the highest derived row peaks
    before it, as many as the cache holds.  Every lattice row read through
    that cache afterwards has the bits of one made by a fresh cache of the
    written plane, in any split of the sweep."""
    rng = np.random.default_rng(seed)
    cfg = SounderConfig(n_tx=n_tx, n_rx=n_rx, bandwidth_hz=1e9, n_freq=n_freq)
    shape = (n_rx, n_tx, n_freq)
    resp = FrequencyResponse(values=rng.normal(size=shape) + 1j * rng.normal(size=shape),
                             config=cfg)
    spec = GridSpec(os_aoa=os_aoa, os_aod=os_aod, os_delay=1)
    grid = beamspace_transform(resp, spec)
    row_peaks = grid._row_peaks
    cache = grid._lattice_rows
    n_rows = len(row_peaks)
    cache.gather(grid, np.sort(rng.choice(n_rows, min(n_rows, cache.limit), replace=False)))
    derived = row_peaks.reshape(n_rx, os_aoa, -1)[:, 1:].max(axis=(1, 2))
    held = np.sort(np.argsort(-derived, kind="stable")[:len(cache.slabs) // (os_aoa - 1)])
    with split_into(n_spans):
        peak_sweep(grid, footprint_factors(grid, [random_path(rng, cfg)]))
    assert grid._lattice_rows is cache
    assert np.flatnonzero(cache.slab_index[1::os_aoa] >= 0).tolist() == held.tolist()
    for r0 in range(0, n_rows, cache.limit):
        rows = np.arange(r0, min(r0 + cache.limit, n_rows))
        values, slots = cache.gather(grid, rows)
        fresh, fresh_slots = beamspace._LatticeRows(grid).gather(grid, rows)
        assert values[slots].tobytes() == fresh[fresh_slots].tobytes()
