import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from mpcx import (
    BeamspaceGrid,
    DegenerateGeometryError,
    ExtractionConfig,
    ExtractionTrace,
    FrequencyResponse,
    GridSpec,
    PathParams,
    ScenarioSpec,
    SounderConfig,
    add_awgn,
    beamspace_transform,
    generate_scenario,
    greedy_extract,
    greedy_ls,
    ls_amplitudes,
    reconstruct,
    reconstruction_error,
    sage_refine,
    single_path_grid,
    synthesize_response,
)
from mpcx import beamspace, extract, pool, sounder

from closed_form import angle_kernel, beamspace_point, delay_kernel, ls_condition

DESK = SounderConfig(n_tx=8, n_rx=8, bandwidth_hz=1e9, n_freq=32)
PAPER = SounderConfig(n_tx=35, n_rx=35, bandwidth_hz=1e9, n_freq=233)
TINY = SounderConfig(n_tx=4, n_rx=4, bandwidth_hz=1e9, n_freq=16)


def axes(cfg, spec=None):
    spec = spec or GridSpec()
    grid = beamspace_transform(synthesize_response(cfg, []), spec)
    return grid.aoa_axis, grid.aod_axis, grid.delay_axis


def on_grid_path(rng, cfg, spec, gain=None):
    aoa_ax, aod_ax, tau_ax = axes(cfg, spec)
    if gain is None:
        gain = complex(rng.normal(), rng.normal())
    return PathParams(
        gain=gain,
        delay=float(tau_ax[rng.integers(0, len(tau_ax))]),
        aod=float(aod_ax[rng.integers(0, len(aod_ax))]),
        aoa=float(aoa_ax[rng.integers(0, len(aoa_ax))]),
    )


def dense_dictionary(cfg, geometry):
    "Explicit (n_rx*n_tx*n_freq, K) matrix of vectorized single-path responses."
    cols = []
    for delay, aod, aoa in geometry:
        p = PathParams(gain=1 + 0j, delay=delay, aod=aod, aoa=aoa)
        cols.append(synthesize_response(cfg, [p]).values.ravel())
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# peak picking


def hand_grid(values):
    "Wrap an explicit value tensor in a BeamspaceGrid with matching axes."
    n_aoa, n_aod, n_tau = values.shape
    cfg = SounderConfig(n_tx=n_aod, n_rx=n_aoa, bandwidth_hz=1e9, n_freq=n_tau)
    return BeamspaceGrid(values=values,
                         spec=GridSpec(os_aoa=1, os_aod=1, os_delay=1),
                         config=cfg)


def sweep_peak(grid):
    "Coordinates and value of the peak that a sweep without footprints finds."
    peak = grid._path_at(*beamspace.peak_sweep(grid))
    return peak.aoa, peak.aod, peak.delay, peak.gain


def test_find_peak_trivial():
    values = np.zeros((3, 4, 5), dtype=complex)
    values[1, 2, 3] = 2 - 1j
    grid = hand_grid(values)
    aoa, aod, delay, val = sweep_peak(grid)
    assert aoa == grid.aoa_axis[1]
    assert aod == grid.aod_axis[2]
    assert delay == grid.delay_axis[3]
    assert val == 2 - 1j


def test_find_peak_tie_breaks_lexicographic():
    values = np.zeros((2, 2, 2), dtype=complex)
    values[1, 0, 1] = 3.0
    values[0, 1, 1] = 3.0  # same magnitude, earlier in C order
    grid = hand_grid(values)
    aoa, aod, delay, _ = sweep_peak(grid)
    assert (aoa, aod, delay) == (grid.aoa_axis[0], grid.aod_axis[1],
                                 grid.delay_axis[1])


def test_find_peak_matches_scan():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(4, 5, 6)) + 1j * rng.normal(size=(4, 5, 6))
    grid = hand_grid(values)
    best, best_val = None, -1.0
    for i in range(4):
        for j in range(5):
            for l in range(6):
                if abs(values[i, j, l]) > best_val:
                    best, best_val = (i, j, l), abs(values[i, j, l])
    aoa, aod, delay, val = sweep_peak(grid)
    assert (aoa, aod, delay) == (grid.aoa_axis[best[0]], grid.aod_axis[best[1]],
                                 grid.delay_axis[best[2]])
    assert val == values[best]


# ---------------------------------------------------------------------------
# greedy peak-subtract scan


def test_greedy_extract_single_on_grid_path():
    rng = np.random.default_rng(9)
    spec = GridSpec()
    path = on_grid_path(rng, DESK, spec, gain=1.5 - 0.5j)
    resp = synthesize_response(DESK, [path])
    found = greedy_extract(resp, spec, 1)
    assert len(found) == 1
    got = found[0]
    assert got.gain == pytest.approx(path.gain, abs=1e-9)
    assert got.delay == pytest.approx(path.delay, abs=1e-18)
    assert got.aoa == pytest.approx(path.aoa, abs=1e-12)
    assert got.aod == pytest.approx(path.aod, abs=1e-12)


def test_greedy_extract_orders_by_power():
    spec = GridSpec()
    aoa_ax, aod_ax, tau_ax = axes(DESK, spec)
    strong = PathParams(gain=3 + 0j, delay=float(tau_ax[8]), aod=float(aod_ax[4]),
                        aoa=float(aoa_ax[4]))
    weak = PathParams(gain=0.5 + 0j, delay=float(tau_ax[64]), aod=float(aod_ax[20]),
                      aoa=float(aoa_ax[28]))
    resp = synthesize_response(DESK, [weak, strong])
    found = greedy_extract(resp, spec, 2)
    assert found[0].power > found[1].power
    assert found[0].delay == pytest.approx(strong.delay, abs=1e-18)
    assert found[1].delay == pytest.approx(weak.delay, abs=1e-18)


def test_greedy_extract_stops_on_zero_grid():
    resp = synthesize_response(DESK, [])
    found = greedy_extract(resp, GridSpec(), 5)
    assert found == []


# ---------------------------------------------------------------------------
# least squares


def test_ls_single_path_recovers_gain():
    rng = np.random.default_rng(21)
    path = PathParams(gain=2.3 - 1.1j, delay=13.4e-9, aod=0.173, aoa=-0.329)
    resp = synthesize_response(DESK, [path])
    amps = ls_amplitudes(resp, [(path.delay, path.aod, path.aoa)], DESK)
    assert amps[0] == pytest.approx(path.gain, abs=1e-10)
    del rng


def test_ls_orthogonal_paths_diagonal():
    "On-grid paths at distinct lattice sites are exactly orthogonal columns."
    spec = GridSpec(os_aoa=1, os_aod=1, os_delay=1)
    aoa_ax, aod_ax, tau_ax = axes(DESK, spec)
    paths = [
        PathParams(gain=1 + 1j, delay=float(tau_ax[2]), aod=float(aod_ax[1]),
                   aoa=float(aoa_ax[3])),
        PathParams(gain=-0.5 + 2j, delay=float(tau_ax[9]), aod=float(aod_ax[6]),
                   aoa=float(aoa_ax[0])),
    ]
    resp = synthesize_response(DESK, paths)
    geometry = [(p.delay, p.aod, p.aoa) for p in paths]
    amps = ls_amplitudes(resp, geometry, DESK)
    assert amps[0] == pytest.approx(paths[0].gain, abs=1e-10)
    assert amps[1] == pytest.approx(paths[1].gain, abs=1e-10)
    assert ls_condition(geometry, DESK) == pytest.approx(1.0, abs=1e-9)


def test_ls_matches_dense_pinv_oracle():
    rng = np.random.default_rng(33)
    for trial in range(8):
        k = int(rng.integers(1, 7))
        geometry = [
            (rng.uniform(0, TINY.duration * 0.9), rng.uniform(-0.5, 0.5),
             rng.uniform(-0.5, 0.5))
            for _ in range(k)
        ]
        if trial == 0:
            # deliberately sub-resolution delay spacing: 0.3 bins
            base = geometry[0]
            wrap = lambda x: x - round(x)
            geometry.append((base[0] + 0.3 / TINY.bandwidth_hz,
                             wrap(base[1] + 0.21), wrap(base[2] - 0.17)))
        truth = [PathParams(gain=complex(rng.normal(), rng.normal()), delay=d,
                            aod=t, aoa=r) for d, t, r in geometry]
        resp = synthesize_response(TINY, truth)
        a = dense_dictionary(TINY, geometry)
        oracle = np.linalg.pinv(a) @ resp.values.ravel()
        amps = ls_amplitudes(resp, geometry, TINY)
        assert np.allclose(amps, oracle, atol=1e-8)


def test_ls_duplicate_geometry_raises():
    geom = [(5e-9, 0.1, -0.2), (5e-9, 0.1, -0.2)]
    resp = synthesize_response(DESK, [PathParams(gain=1 + 0j, delay=5e-9, aod=0.1,
                                                 aoa=-0.2)])
    with pytest.raises(DegenerateGeometryError) as err:
        ls_amplitudes(resp, geom, DESK)
    assert err.value.pairs
    assert err.value.pairs[0][:2] == (0, 1)
    assert "0" in str(err.value) and "1" in str(err.value)


def test_global_refit_drops_later_exact_duplicate():
    """A committed list holding one geometry twice is refit without the later
    copy, counted once: with the amplitudes of the kept rows and columns of
    the whole list's normal equations, built once, which agree with a refit
    of the unique list to 1e-12."""
    resp = desk_case(3, 20.0, n_paths=4)
    unique = [PathParams(gain=1 + 0j, delay=5e-9, aod=0.1, aoa=-0.2),
              PathParams(gain=0.5j, delay=12e-9, aod=-0.3, aoa=0.25),
              PathParams(gain=-0.7 + 0j, delay=20e-9, aod=0.4, aoa=0.05)]
    copy = replace(unique[0], gain=0.25 - 0.5j)
    paths = [unique[0], unique[1], copy, unique[2]]
    trace = ExtractionTrace()
    refit = extract._global_refit(resp, paths, DESK, trace)
    assert trace.dropped_duplicates == 1
    assert [(p.delay, p.aod, p.aoa) for p in refit] == [
        (p.delay, p.aod, p.aoa) for p in unique]
    gram, rhs = extract._normal_equations(
        resp, [(p.delay, p.aod, p.aoa) for p in paths], DESK)
    kept = [0, 1, 3]
    subset = np.linalg.solve(gram[np.ix_(kept, kept)], rhs[kept])
    assert [p.gain for p in refit] == [complex(a) for a in subset]
    amps = ls_amplitudes(resp, [(p.delay, p.aod, p.aoa) for p in unique], DESK)
    np.testing.assert_allclose([p.gain for p in refit], amps, rtol=1e-12, atol=0)


def test_ls_rejects_empty_geometry():
    resp = synthesize_response(DESK, [])
    with pytest.raises(ValueError):
        ls_amplitudes(resp, [], DESK)
    with pytest.raises(ValueError, match="must be non-empty"):
        ls_condition([], DESK)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("axis, field", [(0, "delay"), (1, "aod"), (2, "aoa")])
def test_ls_rejects_non_finite_geometry(axis, field, value):
    resp = synthesize_response(DESK, [])
    geometry = [(5e-9, 0.1, -0.2), (9e-9, -0.3, 0.25)]
    bad = list(geometry[1])
    bad[axis] = value
    geometry[1] = tuple(bad)
    with pytest.raises(ValueError, match=f"geometry 1 {field} "):
        ls_amplitudes(resp, geometry, DESK)
    with pytest.raises(ValueError, match=f"geometry 1 {field} "):
        ls_condition(geometry, DESK)


def closed_form_gram(geometry, cfg):
    "Gram matrix from the closed-form per-axis Dirichlet kernels."
    delays, aods, aoas = (np.array(g) for g in zip(*geometry))
    d_rx = angle_kernel(aoas[None, :] - aoas[:, None], cfg.n_rx)
    d_tx = angle_kernel(aods[:, None] - aods[None, :], cfg.n_tx)
    d_f = delay_kernel(delays[:, None] - delays[None, :], cfg.bandwidth_hz,
                       cfg.n_freq)
    return cfg.n_rx * cfg.n_tx * cfg.n_freq * d_rx * d_tx * d_f


@pytest.mark.parametrize("cfg, k", [(TINY, 6), (DESK, 40), (PAPER, 60)])
def test_gram_matches_closed_form_kernels(cfg, k):
    rng = np.random.default_rng(59)
    geometry = [(rng.uniform(0, cfg.duration), rng.uniform(-0.5, 0.5),
                 rng.uniform(-0.5, 0.5)) for _ in range(k)]
    geometry.append(geometry[0])  # an exact duplicate column
    gram = extract._dictionary_gram(*sounder._steering_matrices(cfg, *zip(*geometry)))
    oracle = closed_form_gram(geometry, cfg)
    assert np.max(np.abs(gram - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    assert np.max(np.abs(gram - gram.conj().T)) <= 1e-12 * np.max(np.abs(oracle))


def lattice_commits(rng, cfg, spec, count, duplicate=False):
    """``count`` paths at distinct lattice points of ``spec`` with random
    gains, the last one at the first one's point when ``duplicate``."""
    aoa_ax, aod_ax, tau_ax = axes(cfg, spec)
    flat = rng.choice(len(aoa_ax) * len(aod_ax) * len(tau_ax), count, replace=False)
    i, j, l = np.unravel_index(flat, (len(aoa_ax), len(aod_ax), len(tau_ax)))
    if duplicate:
        i[-1], j[-1], l[-1] = i[0], j[0], l[0]
    return [PathParams(gain=complex(rng.normal(), rng.normal()),
                       delay=float(tau_ax[c]), aod=float(aod_ax[b]), aoa=float(aoa_ax[a]))
            for a, b, c in zip(i, j, l)]


def committed_picker(response, paths, spec, pending):
    """A picker whose grid holds ``response`` minus ``paths``: all but the
    last ``pending`` of them subtracted before the transform, those appended
    as pending footprints."""
    cfg = response.config
    written = synthesize_response(cfg, paths[:len(paths) - pending]).values
    picks = beamspace._PendingFootprints(
        FrequencyResponse(response.values - written, cfg), spec, 1)
    for path in paths[len(paths) - pending:]:
        picks.append(picks.unit(path), path.gain)
    return picks


@pytest.mark.parametrize("os, pending, duplicate, small_cache", [
    (1, 0, False, False), (1, 5, True, False), (3, 16, True, False),
    (2, 7, False, True), (4, 3, True, True)])
def test_lattice_refit_equals_the_matched_filter_refit(os, pending, duplicate,
                                                       small_cache):
    """The global refit of lattice commits, given their picker, reads its
    right-hand side off the residual grid (N times it at the commits plus
    the Gram times their gains) and gathers its Gram off the offset kernels:
    no normal equations of the measurement.  It keeps the same paths
    and drops as many as the refit from the measurement, with amplitudes to
    1e-9 relative, whether the commits are written into the grid or
    pending, also with an exact duplicate geometry and with the residual
    read in chunks of a row cache holding 5 rows (``_HELD_ENTRIES`` patched
    small)."""
    rng = np.random.default_rng(67 + os)
    resp = desk_case(os, 20.0, n_paths=10)
    spec = GridSpec(os_aoa=os, os_aod=os, os_delay=os)
    paths = lattice_commits(rng, DESK, spec, 24, duplicate)
    with mock.patch.object(beamspace, "_HELD_ENTRIES",
                           1 if small_cache else beamspace._HELD_ENTRIES):
        picks = committed_picker(resp, paths, spec, pending)
        trace = ExtractionTrace()
        with mock.patch.object(extract, "_normal_equations") as normal, \
                mock.patch.object(beamspace, "_point_value",
                                  wraps=beamspace._point_value) as read:
            refit = extract._global_refit(resp, paths, DESK, trace, picks)
        assert normal.call_count == 0
        if small_cache:
            assert picks.grid._lattice_rows.limit == 5
            rows = len(set((p.aoa, p.aod) for p in paths))
            assert read.call_count == math.ceil(rows / 5) > 1
    oracle_trace = ExtractionTrace()
    oracle = extract._global_refit(resp, paths, DESK, oracle_trace)
    assert trace.dropped_duplicates == oracle_trace.dropped_duplicates == duplicate
    assert [(p.delay, p.aod, p.aoa) for p in refit] == [
        (p.delay, p.aod, p.aoa) for p in oracle]
    gains = np.array([p.gain for p in oracle])
    assert np.max(np.abs([p.gain for p in refit] - gains)) <= 1e-9 * np.max(np.abs(gains))
    assert trace.ls_condition[0] == pytest.approx(oracle_trace.ls_condition[0], rel=1e-6)


def test_lattice_refit_falls_back_off_the_lattice():
    """One commit off the picker's lattice sends the refit to the normal
    equations of the measurement, whose amplitudes it then returns."""
    rng = np.random.default_rng(71)
    resp = desk_case(5, 20.0, n_paths=10)
    spec = GridSpec()
    paths = lattice_commits(rng, DESK, spec, 6)
    paths[2] = replace(paths[2], aod=paths[2].aod + 1e-3)
    picks = committed_picker(resp, paths, spec, 2)
    refit = extract._global_refit(resp, paths, DESK, ExtractionTrace(), picks)
    assert [p.gain for p in refit] == list(ls_amplitudes(
        resp, [(p.delay, p.aod, p.aoa) for p in paths], DESK))


def test_lattice_refit_memory_at_paper_refit_size():
    """448-path lattice refit at paper oversample 1: the gathered Gram, the
    residual read and the solve stay within 4 Gram matrices."""
    rng = np.random.default_rng(61)
    spec = GridSpec(os_aoa=1, os_aod=1, os_delay=1)
    paths = lattice_commits(rng, PAPER, spec, 448)
    resp = synthesize_response(PAPER, [])
    picks = committed_picker(resp, paths, spec, 4)
    gram_bytes = 16 * len(paths) ** 2
    tracemalloc.start()
    try:
        refit = extract._global_refit(resp, paths, PAPER, ExtractionTrace(), picks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(refit) == 448
    assert peak <= 4 * gram_bytes, f"peak {peak / gram_bytes:.2f}x the Gram"


def test_ls_solve_memory_at_paper_refit_size():
    "448-path paper refit: atoms, Gram and solve stay within 4 Gram matrices."
    rng = np.random.default_rng(61)
    geometry = [(rng.uniform(0, PAPER.duration * 0.9), rng.uniform(-0.5, 0.5),
                 rng.uniform(-0.5, 0.5)) for _ in range(448)]
    resp = synthesize_response(PAPER, [])
    gram_bytes = 16 * len(geometry) ** 2
    tracemalloc.start()
    try:
        amps = ls_amplitudes(resp, geometry, PAPER)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert amps.shape == (448,)
    assert peak <= 4 * gram_bytes, f"peak {peak / gram_bytes:.2f}x the Gram"


# ---------------------------------------------------------------------------
# full extraction loop


def test_greedy_ls_recovers_on_grid_paths_exactly():
    rng = np.random.default_rng(41)
    spec = GridSpec()
    aoa_ax, aod_ax, tau_ax = axes(DESK, spec)
    picks = set()
    while len(picks) < 5:
        picks.add((int(rng.integers(0, len(tau_ax) - 16)),
                   int(rng.integers(0, len(aod_ax))),
                   int(rng.integers(0, len(aoa_ax)))))
    truth = [
        PathParams(gain=complex(rng.normal(), rng.normal()),
                   delay=float(tau_ax[l]), aod=float(aod_ax[j]),
                   aoa=float(aoa_ax[i]))
        for l, j, i in sorted(picks)
    ]
    resp = synthesize_response(DESK, truth)
    cfg = ExtractionConfig(k_dom=5, k_g=2, k_up=1, grid=spec, residual_stop=0.0)
    found, trace = greedy_ls(resp, DESK, cfg)
    assert len(found) == 5
    err = reconstruction_error(reconstruct(found, DESK), resp)
    assert err < 1e-12
    by_site = {(round(p.delay * 1e12), round(p.aod, 9), round(p.aoa, 9)): p
               for p in found}
    for t in truth:
        key = (round(t.delay * 1e12), round(t.aod, 9), round(t.aoa, 9))
        assert key in by_site
        assert by_site[key].gain == pytest.approx(t.gain, abs=1e-9)
    # the trace is per-commit; it must be non-increasing even before the
    # final global refit cleans up cross-path interference
    powers = np.asarray(trace.residual_power)
    assert np.all(np.diff(powers) <= 1e-9 * trace.initial_power)


def test_greedy_ls_stores_a_fraction_of_the_paper_lattice():
    """The transform grid keeps only its critically sampled AoD plane: at the
    paper size and oversample 4 (a 292 MB lattice) one greedy-LS run peaks
    at under 0.4 of the lattice's bytes under tracemalloc, where storing
    every AoD row took about 1.13 of them, and leaves nothing of the grid
    allocated when it returns."""
    truth = generate_scenario(ScenarioSpec(
        n_clusters=8, paths_per_cluster=28, seed=1, cluster_decay_db=1.5,
        path_spread_db=4.0, angle_spread=0.02, dynamic_range_db=60.0)).retained
    resp = synthesize_response(PAPER, truth)
    spec = GridSpec(os_aoa=4, os_aod=4, os_delay=4)
    lattice_bytes = 16 * PAPER.n_rx * 4 * PAPER.n_tx * 4 * PAPER.n_freq * 4
    tracemalloc.start()
    try:
        paths, trace = greedy_ls(resp, PAPER, ExtractionConfig(k_dom=4, grid=spec))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(paths) == 4 and trace.full_sweeps >= 1
    assert peak <= 0.4 * lattice_bytes, f"peak {peak / lattice_bytes:.2f}x the lattice"
    assert held <= 0.01 * lattice_bytes, f"{held} bytes still held"


def test_greedy_ls_zero_input_returns_empty():
    resp = synthesize_response(DESK, [])
    found, trace = greedy_ls(resp, DESK, ExtractionConfig(k_dom=4))
    assert found == []
    assert trace.initial_power == 0.0
    assert trace.stop_reason == "exhausted"


def test_greedy_ls_rejects_as_many_candidates_as_dimensions():
    "k_g candidates in a signal space of k_g dimensions cannot be LS-refit."
    cfg = SounderConfig(n_tx=1, n_rx=1, bandwidth_hz=1e9, n_freq=2)
    resp = synthesize_response(cfg, [
        PathParams(gain=1 + 0j, delay=0.3e-9, aod=0.0, aoa=0.0),
        PathParams(gain=0.5j, delay=1.1e-9, aod=0.0, aoa=0.0)])
    with pytest.raises(ValueError, match="2 paths >= signal space dimension 2"):
        greedy_ls(resp, cfg, ExtractionConfig(k_dom=4, k_g=2, k_up=1))


def test_greedy_ls_trace_monotone_off_grid():
    rng = np.random.default_rng(47)
    truth = [
        PathParams(gain=complex(rng.normal(), rng.normal()),
                   delay=rng.uniform(0, DESK.duration * 0.9),
                   aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
        for _ in range(12)
    ]
    resp = synthesize_response(DESK, truth)
    cfg = ExtractionConfig(k_dom=20, k_g=4, k_up=2, residual_stop=0.0)
    found, trace = greedy_ls(resp, DESK, cfg)
    assert len(found) <= 20
    powers = np.asarray(trace.residual_power)
    assert np.all(np.diff(powers) <= powers[:-1] * 1e-12 + 1e-15)


def test_greedy_ls_respects_budget_and_batching():
    rng = np.random.default_rng(53)
    truth = [
        PathParams(gain=complex(rng.normal(), rng.normal()),
                   delay=rng.uniform(0, DESK.duration * 0.9),
                   aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
        for _ in range(9)
    ]
    resp = synthesize_response(DESK, truth)
    cfg = ExtractionConfig(k_dom=7, k_g=3, k_up=2, residual_stop=0.0,
                           final_global_ls=False)
    found, trace = greedy_ls(resp, DESK, cfg)
    assert len(found) == 7
    assert len(trace.residual_power) == 7
    assert trace.stop_reason == "k_dom"


def test_greedy_ls_stops_on_residual_stop():
    rng = np.random.default_rng(67)
    path = on_grid_path(rng, DESK, GridSpec())
    resp = synthesize_response(DESK, [path])
    found, trace = greedy_ls(resp, DESK, ExtractionConfig(k_dom=4, k_g=1, k_up=1))
    assert len(found) == 1
    assert trace.residual_power[-1] <= 1e-6 * trace.initial_power
    assert trace.stop_reason == "residual_stop"


@pytest.mark.parametrize("field", ["k_dom", "k_g", "k_up"])
@pytest.mark.parametrize("value", [0, 2.5, float("nan"), True, 2.0])
def test_extraction_config_counts_must_be_positive_integers(field, value):
    """A path count that is not a positive integer raises a ValueError
    naming its field at construction, not a TypeError deep in greedy_ls
    (or, for a NaN k_dom, an empty result)."""
    fields = dict(k_dom=4, k_g=4, k_up=1)
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{field} "):
        ExtractionConfig(**fields)


def test_extraction_config_accepts_numpy_integers():
    xcfg = ExtractionConfig(k_dom=np.int64(6), k_g=np.int32(3), k_up=np.uint8(2))
    found, _ = greedy_ls(desk_case(3, 20.0), DESK, xcfg)
    assert len(found) == 6


def test_extraction_config_validation():
    with pytest.raises(ValueError):
        ExtractionConfig(k_dom=0)
    with pytest.raises(ValueError):
        ExtractionConfig(k_dom=4, k_g=2, k_up=3)  # k_up > k_g
    with pytest.raises(ValueError):
        ExtractionConfig(k_dom=4, k_up=0)
    with pytest.raises(ValueError):
        ExtractionConfig(k_dom=4, residual_stop=-0.1)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_extraction_config_rejects_non_finite_residual_stop(value):
    with pytest.raises(ValueError, match="residual_stop"):
        ExtractionConfig(k_dom=4, residual_stop=value)


def test_ls_amplitudes_never_worse_than_raw_peaks():
    "Refit with LS must not increase reconstruction error for fixed geometry."
    rng = np.random.default_rng(59)
    spec = GridSpec()
    for _ in range(5):
        truth = [
            PathParams(gain=complex(rng.normal(), rng.normal()),
                       delay=rng.uniform(0, DESK.duration * 0.9),
                       aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
            for _ in range(2)
        ]
        resp = synthesize_response(DESK, truth)
        raw = greedy_extract(resp, spec, 2)
        if len(raw) < 2:
            continue
        geometry = [(p.delay, p.aod, p.aoa) for p in raw]
        amps = ls_amplitudes(resp, geometry, DESK)
        refit = [
            PathParams(gain=complex(a), delay=d, aod=t, aoa=r)
            for a, (d, t, r) in zip(amps, geometry)
        ]
        err_raw = reconstruction_error(reconstruct(raw, DESK), resp)
        err_ls = reconstruction_error(reconstruct(refit, DESK), resp)
        assert err_ls <= err_raw * (1 + 1e-12)


# ---------------------------------------------------------------------------
# reconstruction helpers


def test_reconstruct_is_forward_model():
    rng = np.random.default_rng(61)
    paths = [PathParams(gain=1 + 2j, delay=3e-9, aod=0.2, aoa=-0.1)]
    a = reconstruct(paths, DESK)
    b = synthesize_response(DESK, paths)
    assert np.array_equal(a.values, b.values)
    del rng


def test_reconstruction_error_values():
    truth = synthesize_response(DESK, [PathParams(gain=1 + 0j, delay=2e-9,
                                                  aod=0.0, aoa=0.0)])
    assert reconstruction_error(truth, truth) == 0.0
    zero = synthesize_response(DESK, [])
    assert reconstruction_error(zero, truth) == pytest.approx(1.0, rel=1e-12)
    scaled = type(truth)(values=truth.values * 1.1, config=DESK)
    assert reconstruction_error(scaled, truth) == pytest.approx(0.01, rel=1e-9)
    with pytest.raises(ValueError):
        reconstruction_error(truth, zero)


@pytest.mark.filterwarnings("error")
def test_sums_of_squares_overflow_to_inf_not_nan():
    """The power and the error's numerator are one real dot of the float
    view: equal to the abs-square sum, and a sum past the float range reads
    inf without a warning, not the NaN that a complex ``np.vdot`` makes."""
    rng = np.random.default_rng(3)
    shape = (DESK.n_rx, DESK.n_tx, DESK.n_freq)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert FrequencyResponse(values=values, config=DESK).power == pytest.approx(
        float(np.sum(np.abs(values) ** 2)), rel=1e-13)
    big = np.full(shape, 1e153 + 1e153j)
    assert FrequencyResponse(values=big, config=DESK).power == math.inf
    truth = FrequencyResponse(values=big / 1e10, config=DESK)
    assert math.isfinite(truth.power)
    assert reconstruction_error(FrequencyResponse(values=-big, config=DESK),
                                truth) == math.inf


# ---------------------------------------------------------------------------
# iterative per-path refinement


def test_sage_fixed_point_on_exact_estimates():
    rng = np.random.default_rng(67)
    spec = GridSpec()
    paths = [on_grid_path(rng, DESK, spec) for _ in range(3)]
    resp = synthesize_response(DESK, paths)
    refined, errors = sage_refine(resp, paths, DESK, spec, sweeps=2)
    assert len(refined) == 3
    assert errors[-1] < 1e-9
    for before, after in zip(paths, refined):
        assert after.gain == pytest.approx(before.gain, abs=1e-9)
        assert after.delay == pytest.approx(before.delay, abs=1e-18)


def test_sage_improves_off_bin_initialization():
    spec = GridSpec()
    aoa_ax, aod_ax, tau_ax = axes(DESK, spec)
    truth = PathParams(gain=1.7 + 0.4j, delay=float(tau_ax[40]),
                       aod=float(aod_ax[12]), aoa=float(aoa_ax[20]))
    # start the estimate several bins away on every axis
    start = PathParams(gain=0.2 + 0j, delay=float(tau_ax[46]),
                       aod=float(aod_ax[15]), aoa=float(aoa_ax[17]))
    resp = synthesize_response(DESK, [truth])
    refined, errors = sage_refine(resp, [start], DESK, spec, sweeps=3)
    err_start = reconstruction_error(reconstruct([start], DESK), resp)
    assert errors[-1] < err_start
    assert refined[0].delay == pytest.approx(truth.delay, abs=1e-18)
    assert refined[0].gain == pytest.approx(truth.gain, abs=1e-9)


def test_sage_sweeps_never_degrade():
    rng = np.random.default_rng(71)
    truth = [
        PathParams(gain=complex(rng.normal(), rng.normal()),
                   delay=rng.uniform(0, DESK.duration * 0.9),
                   aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
        for _ in range(5)
    ]
    resp = synthesize_response(DESK, truth)
    cfg = ExtractionConfig(k_dom=5, k_g=2, k_up=1, residual_stop=0.0)
    found, _ = greedy_ls(resp, DESK, cfg)
    base = reconstruction_error(reconstruct(found, DESK), resp)
    _, errors = sage_refine(resp, found, DESK, cfg.grid, sweeps=3)
    prev = base
    for e in errors:
        assert e <= prev * (1 + 1e-12)
        prev = e


def test_sage_input_validation():
    rng = np.random.default_rng(73)
    paths = [on_grid_path(rng, DESK, GridSpec())]
    resp = synthesize_response(DESK, paths)
    with pytest.raises(ValueError):
        sage_refine(resp, paths, DESK, GridSpec(), sweeps=0)
    with pytest.raises(ValueError):
        sage_refine(resp, [], DESK, GridSpec(), sweeps=1)


def sage_fft_oracle(response, paths, config, spec, sweeps):
    """Reference SAGE loop: keeps one response per path and runs a full FFT
    transform of each isolated response."""
    current = list(paths)
    components = [synthesize_response(config, [p]).values for p in current]
    total = np.sum(components, axis=0)
    errors = []
    for _ in range(sweeps):
        for k in range(len(current)):
            isolated = response.values - total + components[k]
            grid = beamspace_transform(
                FrequencyResponse(values=isolated, config=config), spec)
            aoa, aod, delay, val = sweep_peak(grid)
            new = PathParams(gain=val, delay=delay, aod=aod, aoa=aoa)
            total = total - components[k]
            components[k] = synthesize_response(config, [new]).values
            total = total + components[k]
            current[k] = new
        estimate = FrequencyResponse(values=total.copy(), config=config)
        errors.append(reconstruction_error(estimate, response))
    return current, errors


@pytest.mark.parametrize("snr_db", [None, 20.0])
@pytest.mark.parametrize("seed", range(10))
def test_sage_matches_fft_per_path_oracle(seed, snr_db):
    rng = np.random.default_rng(7000 + seed)
    truth = [
        PathParams(gain=complex(rng.normal(), rng.normal()),
                   delay=rng.uniform(0, DESK.duration * 0.9),
                   aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
        for _ in range(6)
    ]
    resp = synthesize_response(DESK, truth)
    if snr_db is not None:
        noise = np.mean(np.abs(resp.values) ** 2) / 10.0 ** (snr_db / 10.0)
        resp = add_awgn(resp, noise, seed=seed)
    cfg = ExtractionConfig(k_dom=8, k_g=4, k_up=2, residual_stop=0.0)
    found, _ = greedy_ls(resp, DESK, cfg)
    refined, errors = sage_refine(resp, found, DESK, cfg.grid, sweeps=2)
    ref_paths, ref_errors = sage_fft_oracle(resp, found, DESK, cfg.grid, sweeps=2)
    assert len(refined) == len(ref_paths)
    for got, ref in zip(refined, ref_paths):
        assert (got.delay, got.aod, got.aoa) == (ref.delay, ref.aod, ref.aoa)
        assert abs(got.gain - ref.gain) <= 1e-9
    assert len(errors) == len(ref_errors)
    for got, ref in zip(errors, ref_errors):
        assert got == pytest.approx(ref, rel=1e-12)


def test_sage_sweep_memory_is_one_grid():
    "One paper-size sweep allocates a few grids, not one response per path."
    rng = np.random.default_rng(79)
    spec = GridSpec(os_aoa=1, os_aod=1, os_delay=1)
    aoa_ax, aod_ax, tau_ax = (spec.aoa_axis(PAPER), spec.aod_axis(PAPER),
                              spec.delay_axis(PAPER))
    paths = [PathParams(gain=complex(rng.normal(), rng.normal()),
                        delay=float(rng.choice(tau_ax)),
                        aod=float(rng.choice(aod_ax)),
                        aoa=float(rng.choice(aoa_ax)))
             for _ in range(64)]
    resp = synthesize_response(PAPER, paths)
    tracemalloc.start()
    try:
        sage_refine(resp, paths, PAPER, spec, sweeps=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * resp.values.nbytes, f"peak {peak / resp.values.nbytes:.1f}x"


def test_refine_peaks_flag_smoke():
    """Quadratic peak interpolation stays close to truth for an off-grid path
    and lands closer than the grid-quantized pick."""
    spec = GridSpec()
    steps = np.array([spec.delay_axis(DESK)[1], 1.0 / (DESK.n_tx * spec.os_aod),
                      1.0 / (DESK.n_rx * spec.os_aoa)])
    base = dict(k_dom=1, k_g=1, k_up=1, residual_stop=0.0, final_global_ls=False)
    for truth in (
        PathParams(gain=1 + 0j, delay=10.37e-9, aod=0.211, aoa=-0.138),
        PathParams(gain=0.3 - 1.2j, delay=21.61e-9, aod=-0.407, aoa=0.0291),
        PathParams(gain=-2 + 0.5j, delay=3.08e-9, aod=0.0522, aoa=0.4433),
    ):
        resp = synthesize_response(DESK, [truth])
        found, _ = greedy_ls(resp, DESK, ExtractionConfig(**base, refine_peaks=True))
        assert len(found) == 1
        (fine,) = found
        (coarse,), _ = greedy_ls(resp, DESK, ExtractionConfig(**base))

        def offsets(p):
            return np.abs([p.delay - truth.delay, p.aod - truth.aod,
                           p.aoa - truth.aoa]) / steps

        assert np.all(offsets(fine) < 1)
        assert np.all(offsets(fine) <= offsets(coarse))
        assert np.sum(offsets(fine) ** 2) < np.sum(offsets(coarse) ** 2)


# ---------------------------------------------------------------------------
# the blocked peak sweep against the dense copy/subtract/argmax loops


def dense_subtract(values, path, spec, config):
    values -= single_path_grid(path, spec, config).values


def dense_peak(values):
    flat = int(np.argmax(np.abs(values)))
    i, j, l = np.unravel_index(flat, values.shape)
    return int(i), int(j), int(l), complex(values[i, j, l])


def greedy_extract_oracle(response, spec, count):
    "Reference matching pursuit: full-grid argmax, then full-grid subtraction."
    grid = beamspace_transform(response, spec)
    values = grid.values  # the whole lattice, materialized once
    estimates = []
    for _ in range(count):
        i, j, l, val = dense_peak(values)
        if val == 0:
            break
        path = PathParams(gain=val, delay=float(grid.delay_axis[l]),
                          aod=float(grid.aod_axis[j]), aoa=float(grid.aoa_axis[i]))
        estimates.append(path)
        dense_subtract(values, path, spec, response.config)
    return estimates


def greedy_ls_oracle(response, config, xcfg):
    """Reference greedy-LS loop: the k_g candidate picks run on a scratch copy
    of the residual grid, and every commit is subtracted from the grid at
    once."""
    spec = xcfg.grid
    residual = response.values.copy()
    res_fr = FrequencyResponse(values=residual, config=config)
    trace = ExtractionTrace(initial_power=float(np.sum(np.abs(residual) ** 2)))
    grid = beamspace_transform(res_fr, spec)
    gvals = grid.values
    committed = []
    while len(committed) < xcfg.k_dom:
        if float(np.sum(np.abs(residual) ** 2)) / trace.initial_power <= xcfg.residual_stop:
            break
        work = gvals.copy()
        candidates = []
        for _ in range(xcfg.k_g):
            i, j, l, val = dense_peak(work)
            if val == 0:
                break
            if xcfg.refine_peaks:
                aoa, aod, tau = beamspace._refine_peak(
                    BeamspaceGrid(work, spec, config), i, j, l)
            else:
                aoa, aod, tau = (float(grid.aoa_axis[i]), float(grid.aod_axis[j]),
                                 float(grid.delay_axis[l]))
            cand = PathParams(gain=val, delay=tau, aod=aod, aoa=aoa)
            candidates.append(cand)
            dense_subtract(work, cand, spec, config)
        if not candidates:
            break
        amps, cond, kept, dropped = extract._dedup_solve(*extract._normal_equations(
            res_fr, [(c.delay, c.aod, c.aoa) for c in candidates], config))
        order = np.argsort(-np.abs(amps) ** 2, kind="stable")
        n_commit = min(xcfg.k_up, xcfg.k_dom - len(committed), len(kept))
        for rank in range(n_commit):
            cand = candidates[kept[int(order[rank])]]
            alpha = beamspace_point(res_fr, cand.aoa, cand.aod, cand.delay)
            path = replace(cand, gain=alpha)
            committed.append(path)
            residual -= synthesize_response(config, [path]).values
            dense_subtract(gvals, path, spec, config)
    if xcfg.final_global_ls and committed:
        committed = extract._global_refit(response, committed, config, trace)
    return committed


def sage_grid_oracle(response, paths, config, spec, sweeps):
    """Reference residual-grid SAGE: per path, a full-grid add-back, argmax and
    subtraction."""
    current = list(paths)
    residual = FrequencyResponse(
        values=response.values - synthesize_response(config, current).values,
        config=config)
    grid = beamspace_transform(residual, spec)
    values = grid.values  # the whole lattice, materialized once
    for _ in range(sweeps):
        for k, old in enumerate(current):
            dense_subtract(values, replace(old, gain=-old.gain), spec, config)
            i, j, l, val = dense_peak(values)
            new = PathParams(gain=val, delay=float(grid.delay_axis[l]),
                             aod=float(grid.aod_axis[j]), aoa=float(grid.aoa_axis[i]))
            dense_subtract(values, new, spec, config)
            current[k] = new
    return current


def desk_case(seed, snr_db, n_paths=6):
    rng = np.random.default_rng(9000 + seed)
    truth = [
        PathParams(gain=complex(rng.normal(), rng.normal()),
                   delay=rng.uniform(0, DESK.duration * 0.9),
                   aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
        for _ in range(n_paths)
    ]
    resp = synthesize_response(DESK, truth)
    if snr_db is not None:
        noise = np.mean(np.abs(resp.values) ** 2) / 10.0 ** (snr_db / 10.0)
        resp = add_awgn(resp, noise, seed=seed)
    return resp


def assert_same_paths(got, ref, geometry_tol=0.0):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert abs(g.delay - r.delay) <= geometry_tol * DESK.duration
        assert abs(g.aod - r.aod) <= geometry_tol
        assert abs(g.aoa - r.aoa) <= geometry_tol
        assert abs(g.gain - r.gain) <= 1e-9


@pytest.mark.parametrize("snr_db", [None, 20.0])
@pytest.mark.parametrize("seed", range(10))
def test_grid_loops_match_dense_oracles(seed, snr_db):
    resp = desk_case(seed, snr_db)
    spec = GridSpec()
    assert_same_paths(greedy_extract(resp, spec, 8),
                      greedy_extract_oracle(resp, spec, 8))
    for final in (False, True):
        cfg = ExtractionConfig(k_dom=8, k_g=4, k_up=2, residual_stop=0.0,
                               final_global_ls=final)
        found, _ = greedy_ls(resp, DESK, cfg)
        assert_same_paths(found, greedy_ls_oracle(resp, DESK, cfg))
    refined, _ = sage_refine(resp, found, DESK, spec, sweeps=2)
    assert_same_paths(refined, sage_grid_oracle(resp, found, DESK, spec, sweeps=2))


@pytest.mark.parametrize("snr_db", [None, 20.0])
@pytest.mark.parametrize("seed", range(10))
def test_refine_peaks_matches_scratch_copy_oracle(seed, snr_db):
    resp = desk_case(seed, snr_db)
    cfg = ExtractionConfig(k_dom=8, k_g=4, k_up=2, residual_stop=0.0,
                           refine_peaks=True)
    found, _ = greedy_ls(resp, DESK, cfg)
    assert_same_paths(found, greedy_ls_oracle(resp, DESK, cfg), geometry_tol=1e-9)


def test_grid_matrices_built_once_per_extraction():
    """One greedy_ls and one sage_refine call each build the grid-axis lattice
    matrices once, whatever k_dom or the number of paths: every sweep reuses
    its grid's matrices."""
    for n_paths, k_dom in ((2, 1), (10, 12)):
        resp = desk_case(3, 20.0, n_paths)
        with mock.patch.object(beamspace, "_lattice_matrices",
                               wraps=beamspace._lattice_matrices) as built:
            found, _ = greedy_ls(resp, DESK, ExtractionConfig(
                k_dom=k_dom, k_g=4, k_up=2, residual_stop=0.0))
            assert built.call_count == 1
            sage_refine(resp, found, DESK, GridSpec(), sweeps=2)
            assert built.call_count == 2
        assert len(found) == k_dom


def test_candidate_atoms_built_once_per_pick():
    """The footprints come from the closed-form axis kernels, so on the
    lattice greedy_ls builds no steering matrices but the transform's
    lattice matrices: the footprints, the LS Gram and the global refit read
    the grid's offset tables.  With refine_peaks each candidate's steering
    matrices are built once, when it is picked: the LS Gram, the matched
    filter and the cross-Gram with the commits reuse them, and the only
    other builds are the lattice matrices and the global refit's atoms."""
    resp = desk_case(3, 20.0, n_paths=10)
    for refine in (False, True):
        built = mock.Mock(wraps=sounder._steering_matrices)
        with mock.patch.object(sounder, "_steering_matrices", built), \
                mock.patch.object(extract, "_steering_matrices", built):
            found, trace, tentative = counted_greedy_ls(resp, DESK, ExtractionConfig(
                k_dom=12, k_g=4, k_up=2, residual_stop=0.0, refine_peaks=refine))
        assert len(found) == 12
        assert tentative == 4 * (len(trace.ls_condition) - 1)
        assert built.call_count == (tentative + 2 if refine else 1)


def test_measurement_matched_filter_only_in_refit_on_the_lattice():
    """On the lattice greedy_ls reads each iteration's LS right-hand side and
    the global refit's off the residual grid: the matched filter of the
    measurement never runs, whatever k_dom.  With refine_peaks the picks are
    off the lattice and it runs once per iteration and once in the refit."""
    for n_paths, k_dom in ((2, 1), (10, 12)):
        resp = desk_case(3, 20.0, n_paths)
        for refine in (False, True):
            for final_ls in (True, False):
                with mock.patch.object(extract, "_matched_filter",
                                       wraps=extract._matched_filter) as filtered:
                    found, trace = greedy_ls(resp, DESK, ExtractionConfig(
                        k_dom=k_dom, k_g=4, k_up=2, residual_stop=0.0,
                        final_global_ls=final_ls, refine_peaks=refine))
                iterations = len(trace.ls_condition) - final_ls
                assert iterations >= (k_dom + 1) // 2
                assert filtered.call_count == refine * (iterations + final_ls)
                assert len(found) == k_dom


def counted_greedy_ls(resp, config, cfg):
    """greedy_ls with its grid passes and tentative picks counted: the
    transform, which records the first row peaks, and the full sweeps."""
    with mock.patch.object(beamspace, "beamspace_transform",
                           wraps=beamspace.beamspace_transform) as transforms, \
            mock.patch.object(beamspace, "peak_sweep",
                              wraps=beamspace.peak_sweep) as sweeps, \
            mock.patch.object(beamspace, "tentative_peak",
                              wraps=beamspace.tentative_peak) as tentative:
        found, trace = greedy_ls(resp, config, cfg)
    assert transforms.call_count == 1
    assert trace.full_sweeps == 1 + sweeps.call_count
    return found, trace, tentative.call_count


def test_greedy_ls_names_a_nan_response_at_its_first_pick():
    """A NaN response value makes every grid value NaN.  The transform that
    records the first row peaks raises the error that a read-only sweep of
    the grid raises, naming the same index, before any pick is made."""
    resp = desk_case(5, None)
    values = resp.values.copy()
    values[3, 1, 7] = np.nan
    resp = FrequencyResponse(values=values, config=DESK)
    cfg = ExtractionConfig(k_dom=4)
    with pytest.raises(ValueError, match="non-finite beamspace magnitude") as swept:
        beamspace.peak_sweep(beamspace_transform(resp, cfg.grid))
    with mock.patch.object(beamspace, "tentative_peak") as tentative, \
            pytest.raises(ValueError) as picked:
        greedy_ls(resp, DESK, cfg)
    assert str(picked.value) == str(swept.value)
    assert tentative.call_count == 0


def test_greedy_ls_sweeps_the_paper_grid_once_per_16_commits():
    """Where the pending commits' bound prunes, as on the paper grids, the
    commits are written into the grid only when 16 are pending: at most
    ceil(k_dom / 16) + 1 full sweeps.  Every pick is tentative.  The factor
    arrays are allocated once, with room for 16 pending commits and k_g
    candidates."""
    rng = np.random.default_rng(83)
    truth = [PathParams(gain=complex(rng.normal(), rng.normal()),
                        delay=rng.uniform(0, PAPER.duration * 0.9),
                        aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
             for _ in range(24)]
    resp = synthesize_response(PAPER, truth)
    cfg = ExtractionConfig(k_dom=48, k_g=4, k_up=2, residual_stop=0.0,
                           final_global_ls=False,
                           grid=GridSpec(os_aoa=1, os_aod=1, os_delay=1))
    widths = []  # factor columns at each candidates call
    candidates = extract._candidates

    def recorded(picks, *args):
        widths.append((picks.left.shape[1], len(picks.right)))
        return candidates(picks, *args)

    with mock.patch.object(extract, "_candidates", recorded):
        found, trace, tentative = counted_greedy_ls(resp, PAPER, cfg)
    assert len(found) == 48
    iterations = len(trace.ls_condition)
    assert iterations == 24
    assert trace.full_sweeps <= math.ceil(48 / 16) + 1
    assert tentative == 4 * iterations
    assert set(widths) == {(4 + 16, 4 + 16)}


def test_greedy_extract_sweeps_the_paper_grid_once_per_16_picks():
    """greedy_extract's picks stay pending as greedy-LS's commits do: on the
    oversample-1 paper grid, 48 picks make at most ceil(48 / 16) + 1 grid
    passes (the transform and the full sweeps), and every pick is
    tentative.  However often the grid is swept (at every pick with a share
    limit of 0, only at 16 pending with a limit of 1), the paths are the
    dense oracle's: the same geometry, and gains to 1e-9."""
    rng = np.random.default_rng(83)
    truth = [PathParams(gain=complex(rng.normal(), rng.normal()),
                        delay=rng.uniform(0, PAPER.duration * 0.9),
                        aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
             for _ in range(24)]
    resp = synthesize_response(PAPER, truth)
    spec = GridSpec(os_aoa=1, os_aod=1, os_delay=1)
    oracle = greedy_extract_oracle(resp, spec, 48)
    assert len(oracle) == 48
    for share in (0.05, 1.0, 0.0):
        with mock.patch.object(beamspace, "_MAX_KEPT_SHARE", share), \
                mock.patch.object(beamspace, "peak_sweep",
                                  wraps=beamspace.peak_sweep) as sweeps, \
                mock.patch.object(beamspace, "tentative_peak",
                                  wraps=beamspace.tentative_peak) as tentative:
            found = greedy_extract(resp, spec, 48)
        if share:
            assert 1 + sweeps.call_count <= math.ceil(48 / 16) + 1
        else:  # every pick after the first sweeps
            assert 1 + sweeps.call_count == 48
        assert tentative.call_count == 48
        assert_same_paths(found, oracle)


@pytest.mark.parametrize("refine", [False, True])
def test_greedy_ls_sweep_schedule_does_not_change_the_paths(refine):
    """On the desk grid the bound often keeps more than 5% of the rows, and
    a share limit of 0 gives one full sweep per iteration.  However often
    the grid is swept (every iteration; or only at the start, with no share
    limit), the committed paths agree to 1e-9."""
    resp = desk_case(4, 20.0, n_paths=10)
    cfg = ExtractionConfig(k_dom=12, k_g=4, k_up=2, residual_stop=0.0,
                           final_global_ls=False, refine_peaks=refine)
    found, trace, tentative = counted_greedy_ls(resp, DESK, cfg)
    assert len(found) == 12
    assert len(trace.ls_condition) == 6  # one LS per outer iteration
    assert 1 <= trace.full_sweeps <= 6
    assert tentative == 6 * 4
    for share, sweeps in ((0.0, 6), (1.0, 1)):
        with mock.patch.object(beamspace, "_MAX_KEPT_SHARE", share):
            again, trace, tentative = counted_greedy_ls(resp, DESK, cfg)
        assert (trace.full_sweeps, tentative) == (sweeps, 6 * 4)
        assert_same_paths(again, found, geometry_tol=1e-9 if refine else 0.0)


@pytest.mark.parametrize("pending_cap, share", [(16, 0.05), (16, 1.0), (16, 0.0),
                                                (2, 1.0)])
def test_held_candidates_move_picks_until_the_next_commit(pending_cap, share):
    """Candidates held on the picker (``hold``) move its picks until the next
    ``append`` drops them.  A pick made while candidates are held is the
    dense peak of the grid minus the pending commits and the held
    candidates, and never sweeps, whatever the sweep schedule; the first
    pick after a commit is the dense peak of the grid minus the pending
    commits alone."""
    resp = desk_case(2, 20.0, n_paths=10)
    spec = GridSpec()
    lattice = beamspace_transform(resp, spec)
    committed = lattice.values.copy()  # the grid minus the commits
    with mock.patch.object(beamspace, "_MAX_PENDING", pending_cap), \
            mock.patch.object(beamspace, "_MAX_KEPT_SHARE", share):
        picks = beamspace._PendingFootprints(resp, spec, 3)
        for round_ in range(4):
            work = committed.copy()  # minus the held candidates too
            held = []
            for _ in range(3):
                sweeps = picks.sweeps
                peak = picks.pick()
                if held:
                    assert picks.sweeps == sweeps
                i, j, l, val = dense_peak(work)
                assert (peak.aoa, peak.aod, peak.delay) == (
                    lattice.aoa_axis[i], lattice.aod_axis[j], lattice.delay_axis[l])
                assert abs(peak.gain - val) <= 1e-9
                picks.hold(picks.unit(peak), peak.gain)
                held.append(peak)
                dense_subtract(work, peak, spec, DESK)
            assert picks.held == 3
            commit = replace(held[round_ % 3], gain=0.5 * held[round_ % 3].gain)
            picks.append(picks.unit(commit), commit.gain)
            assert picks.held == 0
            dense_subtract(committed, commit, spec, DESK)
    if share == 0.0:  # the first pick after each commit sweeps
        assert picks.sweeps == 1 + 3
    elif share == 1.0 and pending_cap == 16:
        assert picks.sweeps == 1


def test_greedy_ls_memory_is_one_grid():
    "Paper config at oversample 2: the extractor holds one grid, no scratch copy."
    rng = np.random.default_rng(83)
    spec = GridSpec(os_aoa=2, os_aod=2, os_delay=2)
    truth = [PathParams(gain=complex(rng.normal(), rng.normal()),
                        delay=rng.uniform(0, PAPER.duration * 0.9),
                        aod=rng.uniform(-0.5, 0.5), aoa=rng.uniform(-0.5, 0.5))
             for _ in range(16)]
    resp = synthesize_response(PAPER, truth)
    grid_bytes = 16 * (len(spec.aoa_axis(PAPER)) * len(spec.aod_axis(PAPER))
                       * len(spec.delay_axis(PAPER)))
    cfg = ExtractionConfig(k_dom=4, k_g=4, k_up=2, grid=spec)
    tracemalloc.start()
    try:
        found, _ = greedy_ls(resp, PAPER, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(found) == 4
    assert peak <= 2 * grid_bytes, f"peak {peak / grid_bytes:.2f}x the grid"


@pytest.mark.parametrize("snr_db", [None, 20.0])
@pytest.mark.parametrize("seed", range(5))
def test_residual_trace_equals_recomputed_residual(seed, snr_db):
    "Each in-place commit leaves exactly h minus the synthesized commits."
    resp = desk_case(seed, snr_db, n_paths=10)
    cfg = ExtractionConfig(k_dom=12, k_g=4, k_up=2, residual_stop=0.0,
                           final_global_ls=False)
    found, trace = greedy_ls(resp, DESK, cfg)
    assert len(trace.residual_power) == len(found) == 12
    h = resp.values
    assert trace.initial_power == pytest.approx(np.sum(np.abs(h) ** 2), rel=1e-12)
    for k in range(len(found)):
        residual = h - synthesize_response(DESK, found[:k + 1]).values
        expected = float(np.sum(np.abs(residual) ** 2))
        assert trace.residual_power[k] == pytest.approx(expected, rel=1e-9)
        assert trace.committed_gain_power[k] == abs(found[k].gain) ** 2


def counted_sage_refine(resp, paths, spec, sweeps):
    "sage_refine with its full grid sweeps counted."
    with mock.patch.object(beamspace, "peak_sweep",
                           wraps=beamspace.peak_sweep) as swept:
        refined, errors = sage_refine(resp, paths, DESK, spec, sweeps)
    return refined, errors, swept.call_count


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_sage_pending_updates_match_the_full_sweep_loop(seed, refine):
    """SAGE's pending footprints and tentative picks against the dense
    full-sweep loop, for 24 grid-quantized or refine_peaks estimates over 3
    sweeps, under every sweep schedule: the defaults; a share limit of 0, so
    every update is a full sweep; a share limit of 1, so only the pending cap
    sweeps; and a cap of 2 pending columns.  The same geometry and gains to
    1e-9."""
    resp = desk_case(seed, 20.0, n_paths=16)
    spec = GridSpec()
    found, _ = greedy_ls(resp, DESK, ExtractionConfig(
        k_dom=24, residual_stop=0.0, refine_peaks=refine))
    assert len(found) == 24
    oracle = sage_grid_oracle(resp, found, DESK, spec, sweeps=3)
    updates = 3 * len(found)
    for pending, share in ((16, 0.05), (16, 0.0), (16, 1.0), (2, 1.0), (2, 0.05)):
        with mock.patch.object(beamspace, "_MAX_PENDING", pending), \
                mock.patch.object(beamspace, "_MAX_KEPT_SHARE", share):
            refined, _, sweeps = counted_sage_refine(resp, found, spec, 3)
        assert_same_paths(refined, oracle)
        if share == 0.0:
            assert sweeps == updates
        elif pending == 2:
            # the add-back column of every second update passes the cap
            assert sweeps >= (updates - 2) // 2
        elif share == 1.0:
            assert sweeps <= updates // 8


@pytest.mark.parametrize("seed", range(3))
def test_sage_sweeps_the_grid_for_few_updates(seed):
    """On a 32-estimate desk case at 20 dB, 2 SAGE sweeps make fewer full
    grid sweeps than a quarter of their 64 path updates: most updates are
    tentative picks.  The paths are those of the full-sweep loop."""
    resp = desk_case(seed, 20.0, n_paths=16)
    found, _ = greedy_ls(resp, DESK, ExtractionConfig(k_dom=32, residual_stop=0.0))
    assert len(found) == 32
    refined, _, sweeps = counted_sage_refine(resp, found, GridSpec(), 2)
    assert sweeps < 64 / 4
    assert_same_paths(refined, sage_grid_oracle(resp, found, DESK, GridSpec(), 2))


@pytest.mark.parametrize("split", [False, True])
def test_inf_response_raises_the_named_error_under_warnings_as_errors(split):
    """An inf response entry makes NaNs in the transform's products.  With
    warnings as errors, the transform, greedy_ls and sage_refine still raise
    the ValueError that names the first non-finite grid index, not a
    RuntimeWarning, also when the products run in spans on threads."""
    resp = desk_case(5, None)
    values = resp.values.copy()
    values[3, 1, 7] = np.inf
    resp = FrequencyResponse(values=values, config=DESK)
    spec = GridSpec()
    paths = [on_grid_path(np.random.default_rng(5), DESK, spec)]
    named = "non-finite beamspace magnitude at grid index"
    with warnings.catch_warnings(), \
            mock.patch.object(pool, "_MIN_SPAN_ENTRIES", 1 if split else 1 << 20):
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=named):
            beamspace.peak_sweep(beamspace_transform(resp, spec))
        with pytest.raises(ValueError, match=named):
            greedy_ls(resp, DESK, ExtractionConfig(k_dom=4, grid=spec))
        with pytest.raises(ValueError, match=named):
            sage_refine(resp, paths, DESK, spec, sweeps=1)
