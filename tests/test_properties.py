"""Property-based tests of the beamspace grid kernels and the LS solve.

The fixed-seed tests and the numbered criteria stay the reference; these
add random small grids, path lists, geometries and block sizes drawn by
hypothesis.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcx import (
    DegenerateGeometryError,
    FrequencyResponse,
    GridSpec,
    PathParams,
    SounderConfig,
    beamspace,
    beamspace_point,
    beamspace_transform,
    ls_amplitudes,
    ls_condition,
    single_path_grid,
    synthesize_response,
)
from mpcx.beamspace import peak_sweep
from mpcx.extract import GRAM_CONDITION_LIMIT

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
       ties=st.booleans(), block=st.integers(1, 80))
def test_peak_sweep_equals_dense_oracle(n_rx, n_tx, n_freq, os_aoa, os_aod,
                                        os_delay, seed, n_paths, on_grid, ties,
                                        block):
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
    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", block):
        i, j, l, val = peak_sweep(work, paths, spec, cfg)

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
