import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcx import (
    FrequencyResponse,
    PathParams,
    SounderConfig,
    add_awgn,
    filter_by_dynamic_range,
    reconstruct_from_virtual,
    resolvable_delays,
    signal_space_dimension,
    spatial_frequency,
    synthesize_response,
    virtual_coefficients,
)
from mpcx import sounder
from mpcx.sounder import VirtualCoefficients, _matched_filter, _steering_matrices

from closed_form import steering_vector

DESK = SounderConfig(n_tx=8, n_rx=8, bandwidth_hz=1e9, n_freq=32)


def synth_oracle(config, paths):
    "Independent scalar-loop evaluation of the forward model."
    out = np.zeros((config.n_rx, config.n_tx, config.n_freq), dtype=complex)
    for r in range(config.n_rx):
        for t in range(config.n_tx):
            for k, f in enumerate(config.freq_grid):
                for p in paths:
                    out[r, t, k] += (
                        p.gain
                        * np.exp(2j * np.pi * p.aoa * r)
                        * np.exp(-2j * np.pi * p.aod * t)
                        * np.exp(-2j * np.pi * p.delay * f)
                    )
    return out


def test_spatial_frequency_values():
    assert spatial_frequency(0.0) == 0.0
    assert spatial_frequency(90.0) == pytest.approx(0.5, abs=1e-15)
    assert spatial_frequency(30.0) == pytest.approx(0.25, abs=1e-15)
    assert spatial_frequency(-90.0) == pytest.approx(-0.5, abs=1e-15)


def test_spatial_frequency_rejects_out_of_range():
    with pytest.raises(ValueError):
        spatial_frequency(90.5)
    with pytest.raises(ValueError):
        spatial_frequency(-120.0)


def test_steering_vector_known_values():
    assert np.allclose(steering_vector(0.0, 4), np.ones(4))
    assert np.allclose(steering_vector(0.5, 2), [1, -1])
    assert np.allclose(steering_vector(0.25, 4), [1, 1j, -1, -1j])


def test_steering_vector_norm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta = rng.uniform(-0.5, 0.5)
        n = int(rng.integers(1, 40))
        v = steering_vector(theta, n)
        assert np.linalg.norm(v) ** 2 == pytest.approx(n, rel=1e-12)


def test_path_params_validation():
    PathParams(gain=1 + 0j, delay=0.0, aod=0.5, aoa=-0.5)
    with pytest.raises(ValueError):
        PathParams(gain=1 + 0j, delay=-1e-9, aod=0.0, aoa=0.0)
    with pytest.raises(ValueError):
        PathParams(gain=1 + 0j, delay=0.0, aod=0.6, aoa=0.0)
    with pytest.raises(ValueError):
        PathParams(gain=1 + 0j, delay=0.0, aod=0.0, aoa=-0.51)


@pytest.mark.parametrize("field, value", [
    ("gain", complex(float("nan"), 0.0)),
    ("gain", complex(0.0, float("inf"))),
    ("delay", float("nan")),
    ("delay", float("inf")),
    ("aod", float("nan")),
    ("aoa", float("nan")),
])
def test_path_params_rejects_non_finite(field, value):
    fields = dict(gain=1 + 0j, delay=1e-9, aod=0.1, aoa=-0.1)
    fields[field] = value
    with pytest.raises(ValueError, match=field):
        PathParams(**fields)


@pytest.mark.parametrize("field", ["bandwidth_hz", "carrier_hz"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite(field, value):
    fields = dict(n_tx=8, n_rx=8, bandwidth_hz=1e9, n_freq=32, carrier_hz=28e9)
    fields[field] = value
    with pytest.raises(ValueError, match=field):
        SounderConfig(**fields)


def test_config_resolutions_exact():
    cfg = SounderConfig(n_tx=35, n_rx=35, bandwidth_hz=1e9, n_freq=233)
    assert cfg.delay_res * cfg.bandwidth_hz == 1.0
    assert cfg.aod_res * cfg.n_tx == 1.0
    assert cfg.aoa_res * cfg.n_rx == 1.0
    assert cfg.delay_res == 1e-9
    assert cfg.duration == 233e-9


def test_freq_grid_layout():
    grid = DESK.freq_grid
    assert len(grid) == DESK.n_freq
    assert grid[0] == -DESK.bandwidth_hz / 2
    steps = np.diff(grid)
    assert np.allclose(steps, DESK.bandwidth_hz / DESK.n_freq)
    assert grid[-1] < DESK.bandwidth_hz / 2


def test_synthesize_trivial_path_is_all_ones():
    resp = synthesize_response(DESK, [PathParams(gain=1 + 0j, delay=0.0,
                                                 aod=0.0, aoa=0.0)])
    assert np.allclose(resp.values, 1.0)


def test_synthesize_matches_scalar_loop_oracle():
    cfg = SounderConfig(n_tx=4, n_rx=4, bandwidth_hz=1e9, n_freq=8)
    path = PathParams(gain=2 + 0j, delay=cfg.delay_res, aod=0.0, aoa=cfg.aoa_res)
    resp = synthesize_response(cfg, [path])
    assert np.allclose(resp.values, synth_oracle(cfg, [path]), atol=1e-12)


def random_paths(rng, cfg, count):
    return [PathParams(gain=complex(rng.normal(), rng.normal()),
                       delay=rng.uniform(0, cfg.duration * 0.99),
                       aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
            for _ in range(count)]


@settings(max_examples=40, deadline=None)
@given(n_rx=st.integers(1, 4), n_tx=st.integers(1, 4), n_freq=st.integers(1, 6),
       count=st.integers(0, 40), chunk=st.integers(1, 70),
       seed=st.integers(0, 2**32 - 1))
def test_synthesize_equals_scalar_loop_oracle(n_rx, n_tx, n_freq, count, chunk,
                                              seed):
    "Steering-matrix synthesis, split into blocks of any size, equals the loop."
    cfg = SounderConfig(n_tx=n_tx, n_rx=n_rx, bandwidth_hz=1e9, n_freq=n_freq)
    paths = random_paths(np.random.default_rng(seed), cfg, count)
    with mock.patch.object(sounder, "_SYNTH_CHUNK", chunk):
        got = synthesize_response(cfg, paths).values
    oracle = synth_oracle(cfg, paths)
    # 1e-12 of the largest magnitude the sum can reach, so paths that
    # cancel do not make the bound vanish
    scale = sum(abs(p.gain) for p in paths)
    assert np.max(np.abs(got - oracle), initial=0.0) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(n_rx=st.integers(1, 5), n_tx=st.integers(1, 5), n_freq=st.integers(1, 9),
       count=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_matched_filter_equals_dense_adjoint(n_rx, n_tx, n_freq, count, seed):
    "The matched filter is A^H h for the dense dictionary of unit-gain atoms."
    cfg = SounderConfig(n_tx=n_tx, n_rx=n_rx, bandwidth_hz=1e9, n_freq=n_freq)
    rng = np.random.default_rng(seed)
    geometry = [(p.delay, p.aod, p.aoa) for p in random_paths(rng, cfg, count)]
    dense = np.stack([synthesize_response(
        cfg, [PathParams(gain=1 + 0j, delay=d, aod=t, aoa=r)]).values.ravel()
        for d, t, r in geometry], axis=1)
    h = rng.normal(size=(n_rx, n_tx, n_freq)) + 1j * rng.normal(size=(n_rx, n_tx, n_freq))
    got = _matched_filter(h, *_steering_matrices(cfg, *zip(*geometry)))
    oracle = dense.conj().T @ h.ravel()
    scale = np.abs(h).sum()  # bound on every |A^H h| entry
    assert np.max(np.abs(got - oracle)) <= 1e-12 * scale


def test_synthesize_memory_is_one_tensor():
    "448 paths at the paper config: no per-path or per-block tensor temporary."
    cfg = SounderConfig(n_tx=35, n_rx=35, bandwidth_hz=1e9, n_freq=233)
    paths = random_paths(np.random.default_rng(448), cfg, 448)
    out_bytes = 16 * cfg.n_rx * cfg.n_tx * cfg.n_freq
    tracemalloc.start()
    try:
        resp = synthesize_response(cfg, paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert resp.values.nbytes == out_bytes
    assert peak <= 1.25 * out_bytes, f"peak {peak / out_bytes:.2f}x the output"


def einsum_synth_oracle(config, paths):
    "The forward model as one einsum over the paths' steering vectors."
    r, t, f = np.arange(config.n_rx), np.arange(config.n_tx), config.freq_grid
    gains = np.array([p.gain for p in paths], dtype=complex)
    a_rx = np.exp(2j * np.pi * np.outer(r, [p.aoa for p in paths]))
    a_tx = np.exp(-2j * np.pi * np.outer(t, [p.aod for p in paths]))
    a_f = np.exp(-2j * np.pi * np.outer(f, [p.delay for p in paths]))
    return np.einsum("k,rk,tk,fk->rtf", gains, a_rx, a_tx, a_f)


@pytest.mark.parametrize("chunk", [None, 1, 3, 5])
def test_synthesize_by_distinct_delay_equals_einsum_oracle(chunk):
    """Paths that share a delay are summed before their delay's product:
    shared delays, listed out of order, an exact duplicate path, and blocks
    of 3 or 5 paths that split a delay group all give the einsum oracle."""
    rng = np.random.default_rng(29)
    delays = np.arange(4) / DESK.bandwidth_hz
    paths = [PathParams(gain=complex(rng.normal(), rng.normal()),
                        delay=float(delays[k % 4]), aod=rng.uniform(-0.5, 0.5),
                        aoa=rng.uniform(-0.5, 0.5)) for k in range(11)]
    paths.append(paths[5])
    paths.append(PathParams(gain=0.5j, delay=0.3e-9, aod=0.1, aoa=-0.2))
    oracle = einsum_synth_oracle(DESK, paths)
    with mock.patch.object(sounder, "_SYNTH_CHUNK", chunk or sounder._SYNTH_CHUNK):
        got = synthesize_response(DESK, paths).values
        empty = synthesize_response(DESK, []).values
    assert np.max(np.abs(got - oracle)) <= 1e-12 * sum(abs(p.gain) for p in paths)
    assert empty.shape == oracle.shape and not empty.any()


def test_synthesize_linearity():
    rng = np.random.default_rng(5)
    mk = lambda: PathParams(gain=complex(rng.normal(), rng.normal()),
                            delay=rng.uniform(0, DESK.duration * 0.9),
                            aod=rng.uniform(-0.5, 0.5),
                            aoa=rng.uniform(-0.5, 0.5))
    a = [mk() for _ in range(3)]
    b = [mk() for _ in range(2)]
    combined = synthesize_response(DESK, a + b)
    split = synthesize_response(DESK, a).values + synthesize_response(DESK, b).values
    assert np.allclose(combined.values, split, atol=1e-12)


def test_synthesize_empty_and_delay_range():
    assert np.all(synthesize_response(DESK, []).values == 0)
    late = PathParams(gain=1 + 0j, delay=DESK.duration, aod=0.0, aoa=0.0)
    with pytest.raises(ValueError):
        synthesize_response(DESK, [late])


def test_response_shape_validation():
    with pytest.raises(ValueError):
        FrequencyResponse(values=np.zeros((2, 2, 2), dtype=complex), config=DESK)


def test_awgn_zero_power_is_identity():
    resp = synthesize_response(DESK, [PathParams(1 + 0j, 1e-9, 0.1, -0.2)])
    noisy = add_awgn(resp, 0.0, seed=9)
    assert np.array_equal(noisy.values, resp.values)


def test_awgn_seeded_determinism():
    resp = synthesize_response(DESK, [PathParams(1 + 0j, 1e-9, 0.1, -0.2)])
    a = add_awgn(resp, 0.5, seed=42)
    b = add_awgn(resp, 0.5, seed=42)
    assert np.array_equal(a.values, b.values)
    c = add_awgn(resp, 0.5, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_awgn_sample_variance():
    # 8*8*32 = 2048 entries per run; accumulate runs for ~10^5 samples
    resp = FrequencyResponse(values=np.zeros((8, 8, 32), dtype=complex),
                             config=DESK)
    samples = []
    for seed in range(50):
        samples.append(add_awgn(resp, 1.0, seed=seed).values.ravel())
    noise = np.concatenate(samples)
    assert noise.size >= 1e5
    var = np.mean(np.abs(noise) ** 2)
    assert abs(var - 1.0) < 0.02


def test_awgn_negative_power_rejected():
    resp = synthesize_response(DESK, [])
    with pytest.raises(ValueError):
        add_awgn(resp, -0.1, seed=0)


def test_resolvable_delays_counts():
    assert resolvable_delays(128e-9, 1e9) == 128
    assert resolvable_delays(128.4e-9, 1e9) == 129
    assert resolvable_delays(0.0, 1e9) == 0


def on_grid_path(rng, cfg, l_max):
    "Random path on the critical virtual lattice."
    i = int(rng.integers(0, cfg.n_rx))
    k = int(rng.integers(0, cfg.n_tx))
    l = int(rng.integers(0, l_max + 1))
    aoa = i / cfg.n_rx
    if aoa > 0.5:
        aoa -= 1.0
    aod = k / cfg.n_tx
    if aod > 0.5:
        aod -= 1.0
    gain = complex(rng.normal(), rng.normal())
    return PathParams(gain=gain, delay=l / cfg.bandwidth_hz, aod=aod, aoa=aoa), (i, k, l)


def test_virtual_coefficients_on_grid_isolation():
    rng = np.random.default_rng(17)
    tau_max = 20 / DESK.bandwidth_hz
    path, (i0, k0, l0) = on_grid_path(rng, DESK, 20)
    resp = synthesize_response(DESK, [path])
    coeffs = virtual_coefficients(resp, tau_max)
    assert coeffs.values.shape == (8, 8, 21)
    peak = coeffs.values[i0, k0, l0]
    assert abs(peak - path.gain) < 1e-9 * abs(path.gain)
    rest = coeffs.values.copy()
    rest[i0, k0, l0] = 0.0
    assert np.max(np.abs(rest)) < 1e-9 * abs(path.gain)


def test_virtual_coefficients_zero_response():
    resp = synthesize_response(DESK, [])
    coeffs = virtual_coefficients(resp, 10e-9)
    assert np.all(coeffs.values == 0)


def test_virtual_coefficients_tau_max_guard():
    resp = synthesize_response(DESK, [])
    for tau_max in (DESK.duration * 1.01, -1e-9, float("nan")):
        with pytest.raises(ValueError, match="tau_max"):
            virtual_coefficients(resp, tau_max)


def fft_virtual_oracle(response, tau_max):
    "Virtual coefficients from three FFTs with the (-1)^l delay signs."
    cfg = response.config
    L = resolvable_delays(tau_max, cfg.bandwidth_hz)
    out = np.fft.fft(response.values, axis=0) / cfg.n_rx
    out = np.fft.ifft(out, axis=1)
    out = np.fft.ifft(out, axis=2)[:, :, :L + 1]
    return out * (-1.0) ** np.arange(L + 1)


def einsum_reconstruct_oracle(values, cfg):
    "Sampled representation on the frequency grid from hand-written lattice atoms."
    n_rx, n_tx, n_l = values.shape
    basis_rx = np.exp(2j * np.pi * np.outer(np.arange(cfg.n_rx), np.arange(n_rx) / n_rx))
    basis_tx = np.exp(-2j * np.pi * np.outer(np.arange(cfg.n_tx), np.arange(n_tx) / n_tx))
    basis_f = np.exp(-2j * np.pi * np.outer(cfg.freq_grid, np.arange(n_l) / cfg.bandwidth_hz))
    return np.einsum("ikl,ri,tk,ml->rtm", values, basis_rx, basis_tx, basis_f,
                     optimize=True)


@pytest.mark.parametrize("cfg, taps", [
    (DESK, 24), (SounderConfig(n_tx=5, n_rx=3, bandwidth_hz=2e9, n_freq=11), 10),
    (SounderConfig(n_tx=35, n_rx=35, bandwidth_hz=1e9, n_freq=233), 200)])
def test_virtual_pair_matches_fft_and_einsum_oracles(cfg, taps):
    rng = np.random.default_rng(29)
    shape = (cfg.n_rx, cfg.n_tx, cfg.n_freq)
    resp = FrequencyResponse(values=rng.normal(size=shape) + 1j * rng.normal(size=shape),
                             config=cfg)
    coeffs = virtual_coefficients(resp, taps / cfg.bandwidth_hz)
    ref = fft_virtual_oracle(resp, taps / cfg.bandwidth_hz)
    assert coeffs.L == taps and coeffs.values.shape == ref.shape
    assert np.max(np.abs(coeffs.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    back = reconstruct_from_virtual(coeffs, cfg).values
    ref = einsum_reconstruct_oracle(coeffs.values, cfg)
    assert np.max(np.abs(back - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_virtual_round_trip_on_grid():
    rng = np.random.default_rng(23)
    tau_max = 24 / DESK.bandwidth_hz
    for _ in range(20):
        n_paths = int(rng.integers(1, 4))
        paths = [on_grid_path(rng, DESK, 24)[0] for _ in range(n_paths)]
        resp = synthesize_response(DESK, paths)
        back = reconstruct_from_virtual(virtual_coefficients(resp, tau_max), DESK)
        err = np.linalg.norm(back.values - resp.values) / np.linalg.norm(resp.values)
        assert err < 1e-9


def test_reconstruct_from_virtual_single_coefficient():
    values = np.zeros((8, 8, 5), dtype=complex)
    i0, k0, l0 = 3, 6, 2
    values[i0, k0, l0] = 1.5 - 0.5j
    resp = reconstruct_from_virtual(VirtualCoefficients(values=values, L=4), DESK)
    oracle = np.zeros((8, 8, 32), dtype=complex)
    for r in range(8):
        for t in range(8):
            for m, f in enumerate(DESK.freq_grid):
                oracle[r, t, m] = (
                    (1.5 - 0.5j)
                    * np.exp(2j * np.pi * i0 / 8 * r)
                    * np.exp(-2j * np.pi * k0 / 8 * t)
                    * np.exp(-2j * np.pi * (l0 / DESK.bandwidth_hz) * f)
                )
    assert np.allclose(resp.values, oracle, atol=1e-12)


def test_reconstruct_from_virtual_shape_guard():
    values = np.zeros((4, 8, 3), dtype=complex)
    with pytest.raises(ValueError):
        reconstruct_from_virtual(VirtualCoefficients(values=values, L=2), DESK)


def test_signal_space_dimension_products():
    assert signal_space_dimension(SounderConfig(1, 1, 1e9, 1)) == 1
    assert signal_space_dimension(SounderConfig(2, 3, 1e9, 5)) == 30


def test_filter_by_dynamic_range_basics():
    mk = lambda db: PathParams(gain=10 ** (db / 20.0) + 0j, delay=0.0,
                               aod=0.0, aoa=0.0)
    equal = [mk(0.0) for _ in range(4)]
    assert filter_by_dynamic_range(equal, 10.0) == equal
    tiers = [mk(0.0), mk(-50.0), mk(-120.0)]
    assert filter_by_dynamic_range(tiers, 100.0) == tiers[:2]
    with pytest.raises(ValueError):
        filter_by_dynamic_range([], 10.0)


def test_filter_by_dynamic_range_brute_force():
    rng = np.random.default_rng(29)
    paths = [
        PathParams(gain=10 ** (rng.uniform(-110.0, 0.0) / 20.0)
                   * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                   delay=0.0, aod=0.0, aoa=0.0)
        for _ in range(252)
    ]
    kept = filter_by_dynamic_range(paths, 100.0)
    threshold = max(p.power for p in paths) / 10.0 ** 10.0
    oracle = [p for p in paths if p.power >= threshold]
    assert kept == oracle
