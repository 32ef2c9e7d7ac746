"""Acceptance gate: twelve numbered criteria, one PASS/FAIL line each.

Criteria 11 and 12 run the full protocol-scale pipeline (twice) and take
several seconds each; they carry the ``slow`` marker, so
``pytest -m "not slow"`` deselects them during development.
"""

import contextlib
import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from mpcx import (
    ExtractionConfig,
    GridSpec,
    PathParams,
    ScenarioSpec,
    SounderConfig,
    assign,
    associate,
    beamspace_transform,
    fileio,
    generate_scenario,
    greedy_extract,
    greedy_ls,
    ls_amplitudes,
    reconstruct,
    reconstruct_from_virtual,
    reconstruction_error,
    sage_refine,
    signal_space_dimension,
    single_path_grid,
    synthesize_response,
    virtual_coefficients,
)
from mpcx.assoc import ResolutionSpec
from mpcx.cli import main

DESK = SounderConfig(n_tx=8, n_rx=8, bandwidth_hz=1e9, n_freq=32)
TINY = SounderConfig(n_tx=4, n_rx=4, bandwidth_hz=1e9, n_freq=16)

# protocol-scale scenario: 8 clusters x 28 paths = 224, all retained (the
# power spread tops out near 14.5 dB, far inside the 60 dB retention window)
PAPER_SCENARIO = """\
n_clusters = 8
paths_per_cluster = 28
seed = 1
cluster_decay_db = 1.5
path_spread_db = 4.0
angle_spread = 0.02
dynamic_range_db = 60.0
"""

_state: dict = {}


@contextlib.contextmanager
def criterion(capsys, num, name):
    outcome = "FAIL"
    try:
        yield
        outcome = "PASS"
    finally:
        with capsys.disabled():
            print(f"\n[criterion {num:02d}] {name}: {outcome}")


def random_path(rng, cfg, margin=0.95):
    return PathParams(
        gain=complex(rng.normal(), rng.normal()),
        delay=rng.uniform(0, cfg.duration * margin),
        aod=rng.uniform(-0.5, 0.5),
        aoa=rng.uniform(-0.5, 0.5),
    )


def test_01_signal_space_dimension(capsys):
    with criterion(capsys, 1, "signal-space dimension"):
        cfg = SounderConfig(n_tx=35, n_rx=35, bandwidth_hz=1e9, n_freq=128)
        assert signal_space_dimension(cfg) == 156800


def test_02_resolutions_exact(capsys):
    with criterion(capsys, 2, "exact per-axis resolutions"):
        cfg = SounderConfig(n_tx=35, n_rx=35, bandwidth_hz=1e9, n_freq=128)
        assert cfg.delay_res == 1e-9
        assert cfg.aoa_res == 1.0 / 35
        assert cfg.aod_res == 1.0 / 35


def test_03_kernel_consistency(capsys):
    with criterion(capsys, 3, "single-path footprint vs transform"):
        rng = np.random.default_rng(303)
        spec = GridSpec(os_aoa=4, os_aod=4, os_delay=4)
        for _ in range(100):
            path = random_path(rng, DESK)
            via = beamspace_transform(synthesize_response(DESK, [path]), spec)
            direct = single_path_grid(path, spec, DESK)
            rel = (np.linalg.norm(via.values - direct.values)
                   / np.linalg.norm(via.values))
            assert rel <= 1e-9


def _separated_on_grid_scenario(rng, grid_axes, n_paths):
    "On-grid paths, pairwise at least 2 resolution bins apart on some axis."
    aoa_ax, aod_ax, tau_ax = grid_axes
    os_f = 4  # oversampling of every axis in these runs
    sites: list[tuple[int, int, int]] = []
    while len(sites) < n_paths:
        cand = (int(rng.integers(0, len(aoa_ax))),
                int(rng.integers(0, len(aod_ax))),
                int(rng.integers(0, len(tau_ax) - 2 * os_f)))
        ok = True
        for site in sites:
            d_aoa = abs(cand[0] - site[0])
            d_aoa = min(d_aoa, len(aoa_ax) - d_aoa) / os_f
            d_aod = abs(cand[1] - site[1])
            d_aod = min(d_aod, len(aod_ax) - d_aod) / os_f
            d_tau = abs(cand[2] - site[2]) / os_f
            if max(d_aoa, d_aod, d_tau) < 2.0:
                ok = False
                break
        if ok:
            sites.append(cand)
    paths = []
    for i, j, l in sites:
        level_db = rng.uniform(-40.0, 0.0)
        phase = rng.uniform(0, 2 * np.pi)
        gain = 10 ** (level_db / 20) * complex(np.cos(phase), np.sin(phase))
        paths.append(PathParams(gain=gain, delay=float(tau_ax[l]),
                                aod=float(aod_ax[j]), aoa=float(aoa_ax[i])))
    return paths


def test_04_exact_on_grid_recovery(capsys):
    with criterion(capsys, 4, "exact recovery of separated on-grid paths"):
        rng = np.random.default_rng(404)
        spec = GridSpec()
        axes_grid = beamspace_transform(synthesize_response(DESK, []), spec)
        grid_axes = (axes_grid.aoa_axis, axes_grid.aod_axis,
                     axes_grid.delay_axis)
        traces = []
        for _ in range(20):
            n_paths = int(rng.integers(5, 9))
            truth = _separated_on_grid_scenario(rng, grid_axes, n_paths)
            resp = synthesize_response(DESK, truth)
            xcfg = ExtractionConfig(k_dom=n_paths, k_g=4, k_up=2, grid=spec,
                                    residual_stop=0.0)
            found, trace = greedy_ls(resp, DESK, xcfg)
            traces.append(trace)
            assert len(found) == n_paths
            err = reconstruction_error(reconstruct(found, DESK), resp)
            assert err <= 1e-10
            used = set()
            for t in truth:
                best, best_idx = None, None
                for idx, f in enumerate(found):
                    if idx in used:
                        continue
                    d = (abs(f.delay - t.delay) * DESK.bandwidth_hz
                         + abs(f.aoa - t.aoa) + abs(f.aod - t.aod))
                    if best is None or d < best:
                        best, best_idx = d, idx
                f = found[best_idx]
                used.add(best_idx)
                assert abs(f.delay - t.delay) <= 1e-9 * DESK.duration
                assert abs(f.aoa - t.aoa) <= 1e-9
                assert abs(f.aod - t.aod) <= 1e-9
                assert abs(f.gain - t.gain) <= 1e-9 * max(1.0, abs(t.gain))
        _state["on_grid_traces"] = traces


def test_05_residual_monotonicity(capsys):
    with criterion(capsys, 5, "residual power never increases per commit"):
        traces = list(_state.get("on_grid_traces", []))
        # plus one clustered 50-path off-grid scenario
        scn = generate_scenario(ScenarioSpec(
            n_clusters=5, paths_per_cluster=10, seed=55,
            delay_center_min_s=4e-9, delay_center_max_s=2.6e-8,
            delay_spread_s=4e-10, angle_spread=0.02,
            cluster_decay_db=2.0, path_spread_db=5.0, dynamic_range_db=60.0))
        assert len(scn.retained) == 50
        resp = synthesize_response(DESK, scn.retained)
        xcfg = ExtractionConfig(k_dom=100, k_g=4, k_up=2, residual_stop=0.0)
        _, trace = greedy_ls(resp, DESK, xcfg)
        traces.append(trace)
        assert traces
        for tr in traces:
            powers = np.asarray(tr.residual_power)
            assert powers.size > 0
            assert np.all(np.diff(powers) <= 1e-9 * tr.initial_power)


def test_06_ls_beats_raw_peaks(capsys):
    with criterion(capsys, 6, "LS amplitudes at least as good as raw peaks"):
        rng = np.random.default_rng(2)
        spec = GridSpec()
        wrap = lambda x: x - round(x)
        strict = 0
        for _ in range(20):
            base = PathParams(gain=complex(rng.normal(), rng.normal()),
                              delay=rng.uniform(0.1, 0.8) * DESK.duration,
                              aod=rng.uniform(-0.45, 0.45),
                              aoa=rng.uniform(-0.45, 0.45))
            # second path 0.2-0.6 resolution bins away on every axis; a full
            # one-bin offset would make the two atoms exactly orthogonal and
            # the sequential peak projections already jointly optimal
            sgn = rng.choice([-1.0, 1.0], size=3)
            second = PathParams(
                gain=complex(rng.normal(), rng.normal()),
                delay=base.delay + sgn[0] * rng.uniform(0.2, 0.6) / DESK.bandwidth_hz,
                aod=wrap(base.aod + sgn[1] * rng.uniform(0.2, 0.6) / DESK.n_tx),
                aoa=wrap(base.aoa + sgn[2] * rng.uniform(0.2, 0.6) / DESK.n_rx),
            )
            resp = synthesize_response(DESK, [base, second])
            raw = greedy_extract(resp, spec, 2)
            assert len(raw) == 2
            geometry = [(p.delay, p.aod, p.aoa) for p in raw]
            amps = ls_amplitudes(resp, geometry, DESK)
            refit = [PathParams(gain=complex(a), delay=d, aod=t, aoa=r)
                     for a, (d, t, r) in zip(amps, geometry)]
            err_raw = reconstruction_error(reconstruct(raw, DESK), resp)
            err_ls = reconstruction_error(reconstruct(refit, DESK), resp)
            assert err_ls <= err_raw * (1 + 1e-12)
            if err_ls < err_raw * (1 - 1e-12):
                strict += 1
        assert strict >= 18


def test_07_ls_matches_dense_oracle(capsys):
    with criterion(capsys, 7, "normal-equation LS vs dense pseudo-inverse"):
        rng = np.random.default_rng(707)
        for trial in range(12):
            k = int(rng.integers(1, 7))
            geometry = [(rng.uniform(0, TINY.duration * 0.9),
                         rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                        for _ in range(k)]
            if trial % 4 == 0 and k < 6:
                d, t, r = geometry[0]
                wrap = lambda x: x - round(x)
                geometry.append((d + 0.4 / TINY.bandwidth_hz,
                                 wrap(t + 0.3 / TINY.n_tx),
                                 wrap(r - 0.3 / TINY.n_rx)))
            truth = [PathParams(gain=complex(rng.normal(), rng.normal()),
                                delay=d, aod=t, aoa=r) for d, t, r in geometry]
            resp = synthesize_response(TINY, truth)
            cols = [synthesize_response(
                TINY, [PathParams(gain=1 + 0j, delay=d, aod=t, aoa=r)]
            ).values.ravel() for d, t, r in geometry]
            a = np.stack(cols, axis=1)
            oracle = np.linalg.pinv(a) @ resp.values.ravel()
            amps = ls_amplitudes(resp, geometry, TINY)
            rel = np.linalg.norm(amps - oracle) / np.linalg.norm(oracle)
            assert rel <= 1e-8


def _brute_force_assignment(cost, unmatched_cost):
    n, m = cost.shape
    best = None
    for k in range(0, min(n, m) + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.permutations(range(m), k):
                total = sum(cost[r, c] for r, c in zip(rows, cols))
                total += unmatched_cost * (n - k + m - k)
                if best is None or total < best:
                    best = total
    return best


def test_08_assignment_optimality(capsys):
    with criterion(capsys, 8, "assignment equals exhaustive optimum"):
        rng = np.random.default_rng(808)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            cost = rng.uniform(0, 10, size=(n, m))
            unmatched = float(rng.choice([0.5, 2.0, 5.0, 20.0]))
            result = assign(cost, unmatched)
            oracle = _brute_force_assignment(cost, unmatched)
            assert result.total_cost == pytest.approx(oracle, rel=1e-9)
            recomputed = sum(cost[r, c] for r, c in result.pairs)
            recomputed += unmatched * (len(result.unmatched_rows)
                                       + len(result.unmatched_cols))
            assert recomputed == pytest.approx(result.total_cost, rel=1e-9)


def test_09_virtual_round_trip(capsys):
    with criterion(capsys, 9, "critical-lattice coefficients round trip"):
        rng = np.random.default_rng(909)
        tap_count = 24
        tau_max = tap_count / DESK.bandwidth_hz
        for _ in range(20):
            paths = []
            for _ in range(int(rng.integers(1, 7))):
                i = int(rng.integers(0, DESK.n_rx))
                j = int(rng.integers(0, DESK.n_tx))
                l = int(rng.integers(0, tap_count + 1))
                aoa = i / DESK.n_rx
                aod = j / DESK.n_tx
                paths.append(PathParams(
                    gain=complex(rng.normal(), rng.normal()),
                    delay=l / DESK.bandwidth_hz,
                    aod=aod - 1.0 if aod > 0.5 else aod,
                    aoa=aoa - 1.0 if aoa > 0.5 else aoa,
                ))
            resp = synthesize_response(DESK, paths)
            coeffs = virtual_coefficients(resp, tau_max)
            back = reconstruct_from_virtual(coeffs, DESK)
            rel = (np.linalg.norm(back.values - resp.values)
                   / np.linalg.norm(resp.values))
            assert rel <= 1e-9


def test_10_sage_non_degradation(capsys):
    with criterion(capsys, 10, "per-sweep refinement never degrades"):
        rng = np.random.default_rng(1010)
        spec = GridSpec()
        for _ in range(10):
            truth = [random_path(rng, DESK) for _ in range(5)]
            resp = synthesize_response(DESK, truth)
            xcfg = ExtractionConfig(k_dom=5, k_g=4, k_up=2, grid=spec,
                                    residual_stop=0.0)
            found, _ = greedy_ls(resp, DESK, xcfg)
            base = reconstruction_error(reconstruct(found, DESK), resp)
            _, errors = sage_refine(resp, found, DESK, spec, sweeps=3)
            prev = base
            for e in errors:
                assert e <= prev * (1 + 1e-12) + 1e-15
                prev = e
        # exact estimates are fixed points
        axes_grid = beamspace_transform(synthesize_response(DESK, []), spec)
        exact = [PathParams(gain=1.3 - 0.7j,
                            delay=float(axes_grid.delay_axis[40]),
                            aod=float(axes_grid.aod_axis[9]),
                            aoa=float(axes_grid.aoa_axis[22])),
                 PathParams(gain=0.4 + 0.9j,
                            delay=float(axes_grid.delay_axis[90]),
                            aod=float(axes_grid.aod_axis[25]),
                            aoa=float(axes_grid.aoa_axis[3]))]
        resp = synthesize_response(DESK, exact)
        refined, errors = sage_refine(resp, exact, DESK, spec, sweeps=2)
        assert errors[-1] <= 1e-9
        for before, after in zip(exact, refined):
            assert abs(after.gain - before.gain) <= 1e-9
            assert abs(after.delay - before.delay) <= 1e-9 * DESK.duration
            assert abs(after.aoa - before.aoa) <= 1e-9
            assert abs(after.aod - before.aod) <= 1e-9


PLOT_ARTIFACTS = [
    "plot_truth_scatter.csv", "plot_estimate_scatter.csv",
    "plot_associated_scatter.csv", "plot_pdp_aoa_aod.csv",
    "plot_pdp_aoa_delay.csv", "plot_residual_trace.csv",
    "plot_axis_errors.csv",
]
STAGE_ARTIFACTS = [
    "scenario.csv", "scenario_spec.txt", "truth_paths.csv", "config.txt",
    "tensor.bin", "estimates.csv", "trace.csv", "extract_report.txt",
    "pairs.csv", "association_report.txt", "run_report.txt",
]


def _run_paper_pipeline(base: Path) -> Path:
    out = base / "run"
    spec = base / "scenario.txt"
    spec.write_text(PAPER_SCENARIO, encoding="utf-8")
    stages = [
        ["scenario", "--spec", str(spec)],
        ["synth", "--config", "paper", "--paths", str(out / "scenario.csv")],
        ["extract", "--config", "paper", "--tensor", str(out / "tensor.bin"),
         "--kdom", "448", "--kg", "4", "--kup", "2"],
        ["associate", "--config", "paper",
         "--truth", str(out / "truth_paths.csv"),
         "--estimates", str(out / "estimates.csv")],
        ["report"],
    ]
    for stage in stages:
        code = main(stage + ["--out-dir", str(out), "--quiet"])
        assert code == 0, f"pipeline stage {stage[0]} exited {code}"
    return out


@pytest.mark.slow
def test_11_protocol_scale_run(capsys, tmp_path_factory):
    with criterion(capsys, 11, "protocol-scale pipeline quality"):
        t0 = time.perf_counter()
        out = _run_paper_pipeline(tmp_path_factory.mktemp("protocol"))
        elapsed = time.perf_counter() - t0
        _state["protocol_run"] = out
        assert elapsed <= 1800, f"pipeline took {elapsed / 60:.1f} min"
        for name in STAGE_ARTIFACTS + PLOT_ARTIFACTS:
            assert (out / name).exists(), name
        report = fileio.load_kv_report(out / "run_report.txt")
        assert int(report["n_phys"]) == 224
        assert int(report["k_dom"]) == 448
        assert int(report["k_pa"]) == 224
        assert float(report["normalized_error"]) <= 0.01


@pytest.mark.slow
def test_12_protocol_determinism(capsys, tmp_path_factory):
    with criterion(capsys, 12, "protocol-scale rerun byte-identical"):
        first = _state.get("protocol_run")
        assert first is not None, "protocol-scale run unavailable"
        again = _run_paper_pipeline(tmp_path_factory.mktemp("protocol_again"))
        for name in STAGE_ARTIFACTS + PLOT_ARTIFACTS:
            a = (first / name).read_bytes()
            b = (again / name).read_bytes()
            assert a == b, f"artifact differs across reruns: {name}"
