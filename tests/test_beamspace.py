import tracemalloc
from unittest import mock

import numpy as np
import pytest

from mpcx import (
    BeamspaceGrid,
    FrequencyResponse,
    GridSpec,
    PathParams,
    SounderConfig,
    angle_kernel,
    beamspace_point,
    beamspace_transform,
    delay_kernel,
    pdp_marginals,
    single_path_grid,
    subtract_path,
    synthesize_response,
)
from mpcx import beamspace
from mpcx.beamspace import peak_sweep

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


def test_angle_kernel_peak_and_zero():
    for n in (1, 2, 4, 35):
        assert angle_kernel(0.0, n) == 1.0
    assert abs(angle_kernel(1.0 / 4, 4)) < 1e-12
    assert abs(angle_kernel(2.0 / 8, 8)) < 1e-12


def test_angle_kernel_direct_sum_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        delta = rng.uniform(-2.0, 2.0)
        oracle = sum(np.exp(2j * np.pi * delta * m) for m in range(n)) / n
        assert angle_kernel(delta, n) == pytest.approx(oracle, abs=1e-12)
    # the specific quarter-bin case
    oracle = sum(np.exp(2j * np.pi * (1 / 8) * m) for m in range(4)) / 4
    assert angle_kernel(1.0 / (2 * 4), 4) == pytest.approx(oracle, abs=1e-14)


def test_angle_kernel_periodicity_and_phase():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = rng.uniform(-1.0, 1.0)
        n = int(rng.integers(2, 20))
        assert angle_kernel(d + 1.0, n) == pytest.approx(angle_kernel(d, n), abs=1e-12)
        assert abs(angle_kernel(-d, n)) == pytest.approx(abs(angle_kernel(d, n)),
                                                         abs=1e-12)
        # linear phase factor exp(j*pi*(n-1)*d) on top of a real even magnitude
        val = angle_kernel(d, n)
        unrotated = val * np.exp(-1j * np.pi * (n - 1) * d)
        assert abs(unrotated.imag) < 1e-12


def test_angle_kernel_integer_offsets_exact():
    assert angle_kernel(3.0, 5) == 1.0
    assert angle_kernel(-2.0, 9) == 1.0


def test_delay_kernel_values():
    assert delay_kernel(0.0, 1e9, 32) == 1.0
    assert abs(delay_kernel(1e-9, 1e9, 32)) < 1e-12
    w, nf = 1e9, 64
    grid = -w / 2 + np.arange(nf) * (w / nf)
    oracle = np.mean(np.exp(2j * np.pi * 0.4e-9 * grid))
    assert delay_kernel(0.4e-9, w, nf) == pytest.approx(oracle, abs=1e-13)


def test_grid_spec_axes():
    spec = GridSpec(os_aoa=4, os_aod=2, os_delay=3)
    aoa = spec.aoa_axis(DESK)
    aod = spec.aod_axis(DESK)
    tau = spec.delay_axis(DESK)
    assert len(aoa) == 8 * 4 and aoa[0] == -0.5 and aoa[-1] < 0.5
    assert len(aod) == 8 * 2
    assert len(tau) == 32 * 3 and tau[0] == 0.0
    assert np.allclose(np.diff(tau), 1.0 / (1e9 * 3))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(os_aoa=0)
    with pytest.raises(ValueError):
        GridSpec(delay_span=-1e-9)
    spec = GridSpec(delay_span=DESK.duration * 2)
    resp = synthesize_response(DESK, [])
    with pytest.raises(ValueError):
        beamspace_transform(resp, spec)


@pytest.mark.parametrize("span", [float("nan"), float("inf")])
def test_grid_spec_rejects_non_finite_delay_span(span):
    with pytest.raises(ValueError, match="delay_span"):
        GridSpec(delay_span=span)


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
    GridSpec(os_aoa=1, os_aod=5, os_delay=3, delay_span=DESK.duration / 2),
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


def test_peak_sweep_ties_across_blocks_take_lowest_index():
    cfg, spec = hand_case((4, 3, 5))
    values = np.zeros((4, 3, 5), dtype=complex)
    values[3, 2, 4] = 3.0
    values[2, 0, 1] = -3.0
    values[1, 1, 0] = 3j  # same magnitude, lowest index triple
    values[1, 2, 3] = 2.0
    for block in (1, 5, 7, 15, 60):
        with mock.patch.object(beamspace, "_BLOCK_ENTRIES", block):
            assert peak_sweep(values, [], spec, cfg) == (1, 1, 0, 3j)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(1.0, np.nan),
                                 complex(np.inf, 0.0)])
@pytest.mark.parametrize("with_path", [False, True])
def test_peak_sweep_rejects_non_finite(bad, with_path):
    cfg, spec = hand_case((4, 3, 5))
    values = np.zeros((4, 3, 5), dtype=complex)
    values[0, 0, 0] = 10.0  # a larger finite peak in an earlier block
    values[3, 1, 2] = bad
    paths = [PathParams(gain=0.5 + 0j, delay=0.0, aod=0.0, aoa=0.0)] if with_path else []
    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", 5):
        with pytest.raises(ValueError, match=r"non-finite .* \(3, 1, 2\)"):
            peak_sweep(values, paths, spec, cfg)


def test_peak_sweep_write_needs_contiguous_grid():
    cfg, spec = hand_case((4, 3, 5))
    values = np.zeros((4, 3, 10), dtype=complex)[:, :, ::2]
    path = PathParams(gain=1 + 0j, delay=0.0, aod=-0.5, aoa=-0.5)  # on lattice
    with pytest.raises(ValueError, match="contiguous"):
        peak_sweep(values, [path], spec, cfg)
    assert not values.any()
    # with no kernels nothing is written, so any layout will do
    values[1, 2, 3] = 2j
    assert peak_sweep(values, [], spec, cfg) == (1, 2, 3, 2j)


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


def test_subtract_path_equals_residual_transform():
    "In-place grid subtraction == transforming the frequency-domain residual."
    rng = np.random.default_rng(37)
    spec = GridSpec()
    paths = [random_path(rng, DESK) for _ in range(3)]
    resp = synthesize_response(DESK, paths)
    grid = beamspace_transform(resp, spec)
    subtract_path(grid.values, paths[0], spec, DESK)
    residual = type(resp)(values=resp.values
                          - synthesize_response(DESK, [paths[0]]).values,
                          config=DESK)
    expected = beamspace_transform(residual, spec)
    scale = np.linalg.norm(expected.values)
    assert np.linalg.norm(grid.values - expected.values) / scale < 1e-9


def test_subtract_path_needs_contiguous_grid_and_may_stop_part_way():
    "subtract_path writes block by block; a non-finite entry stops it mid-grid."
    cfg, spec = hand_case((4, 3, 5))
    path = PathParams(gain=1 + 0j, delay=0.0, aod=0.0, aoa=0.0)
    strided = np.ones((4, 3, 10), dtype=complex)[:, :, ::2]
    with pytest.raises(ValueError, match="contiguous"):
        subtract_path(strided, path, spec, cfg)
    assert np.all(strided == 1)  # rejected before anything is written
    values = np.ones((4, 3, 5), dtype=complex)
    values[2, 1, 3] = np.nan
    expected = 1 - single_path_grid(path, spec, cfg).values
    expected[2, 1, 3] = np.nan
    with mock.patch.object(beamspace, "_BLOCK_ENTRIES", 15):  # one AoA row a block
        with pytest.raises(ValueError, match=r"non-finite .* \(2, 1, 3\)"):
            subtract_path(values, path, spec, cfg)
    np.testing.assert_allclose(values[:3], expected[:3], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(values[3], 1)  # the block after is untouched


def test_pdp_marginals_properties():
    spec = GridSpec(os_aoa=2, os_aod=2, os_delay=2)
    zero = beamspace_transform(synthesize_response(DESK, []), spec)
    m_ang, m_del = pdp_marginals(zero)
    assert np.all(m_ang == 0) and np.all(m_del == 0)
    assert m_ang.shape == (16, 16) and m_del.shape == (16, 64)

    axis_grid = zero
    path = PathParams(gain=1 + 0j, delay=float(axis_grid.delay_axis[10]),
                      aod=float(axis_grid.aod_axis[4]),
                      aoa=float(axis_grid.aoa_axis[7]))
    grid = beamspace_transform(synthesize_response(DESK, [path]), spec)
    m_ang, m_del = pdp_marginals(grid)
    total = np.sum(np.abs(grid.values) ** 2)
    assert np.sum(m_ang) == pytest.approx(total, rel=1e-12)
    assert np.sum(m_del) == pytest.approx(total, rel=1e-12)
    assert np.unravel_index(np.argmax(m_ang), m_ang.shape) == (7, 4)
    assert np.unravel_index(np.argmax(m_del), m_del.shape) == (7, 10)


def test_pdp_marginals_equal_full_grid_formula_in_one_row_of_memory():
    rng = np.random.default_rng(41)
    shape = (24, 20, 50)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    grid = BeamspaceGrid(values=values, spec=GridSpec(), config=DESK)
    tracemalloc.start()
    try:
        m_ang, m_del = pdp_marginals(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    power = np.abs(values) ** 2
    np.testing.assert_allclose(m_ang, power.sum(axis=2), rtol=1e-12, atol=0)
    np.testing.assert_allclose(m_del, power.sum(axis=1), rtol=1e-12, atol=0)
    assert peak < 0.25 * values.nbytes, f"peak {peak / values.nbytes:.2f}x the grid"


def test_transform_rejects_foreign_shapes():
    other = SounderConfig(n_tx=4, n_rx=4, bandwidth_hz=1e9, n_freq=16)
    resp = synthesize_response(other, [])
    grid_spec = GridSpec(delay_span=other.duration * 0.5)
    grid = beamspace_transform(resp, grid_spec)
    assert grid.values.shape == (16, 16, 32)
