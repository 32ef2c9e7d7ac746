import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcx import (
    PathParams,
    ResolutionSpec,
    SounderConfig,
    assign,
    associate,
    wrap_cycles,
)

from mpcx.assoc import _axis_errors, _cost_matrix, _lap

from closed_form import pairwise_cost

DESK = SounderConfig(n_tx=8, n_rx=8, bandwidth_hz=1e9, n_freq=32)
RES = ResolutionSpec.from_config(DESK)


def brute_force_assignment(cost, unmatched_cost):
    """Exhaustive optimum over all partial matchings of rows to columns.

    Total objective: sum of matched pair costs plus unmatched_cost for every
    unmatched row and every unmatched column.
    """
    n, m = cost.shape
    best_total = None
    best_pairs = None
    for k in range(0, min(n, m) + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.permutations(range(m), k):
                total = sum(cost[r, c] for r, c in zip(rows, cols))
                total += unmatched_cost * (n - k + m - k)
                if best_total is None or total < best_total - 1e-12:
                    best_total = total
                    best_pairs = set(zip(rows, cols))
    return best_total, best_pairs


def path(delay, aoa, aod, gain=1 + 0j):
    return PathParams(gain=gain, delay=delay, aod=aod, aoa=aoa)


# ---------------------------------------------------------------------------
# elementary pieces


def test_wrap_cycles():
    assert wrap_cycles(0.0) == 0.0
    assert wrap_cycles(0.3) == pytest.approx(0.3)
    assert wrap_cycles(0.7) == pytest.approx(-0.3)
    assert wrap_cycles(-0.7) == pytest.approx(0.3)
    assert wrap_cycles(1.0) == 0.0
    assert wrap_cycles(0.5) == 0.5  # boundary maps to +0.5, not -0.5
    assert wrap_cycles(-0.5) == 0.5


def test_pairwise_cost_zero_for_identical():
    a = path(5e-9, 0.1, -0.2)
    assert pairwise_cost(a, a, RES) == 0.0


def test_pairwise_cost_single_axis_bins():
    a = path(5e-9, 0.1, -0.2)
    b = path(5e-9 + RES.delay_res, 0.1, -0.2)
    assert pairwise_cost(a, b, RES) == pytest.approx(1.0, rel=1e-12)
    c = path(5e-9, 0.1 + RES.aoa_res, -0.2)
    assert pairwise_cost(a, c, RES) == pytest.approx(1.0, rel=1e-12)
    d = path(5e-9 + RES.delay_res, 0.1 + RES.aoa_res, -0.2 + RES.aod_res)
    assert pairwise_cost(a, d, RES) == pytest.approx(3.0, rel=1e-12)


def test_pairwise_cost_angle_wrap():
    a = path(5e-9, 0.5, 0.0)
    b = path(5e-9, -0.5, 0.0)
    assert pairwise_cost(a, b, RES) == pytest.approx(0.0, abs=1e-20)
    c = path(5e-9, 0.45, 0.0)
    d = path(5e-9, -0.45, 0.0)
    # shortest arc is 0.1 cycles, not 0.9
    expected = (0.1 / RES.aoa_res) ** 2
    assert pairwise_cost(c, d, RES) == pytest.approx(expected, rel=1e-9)


def test_pairwise_cost_ignores_gain():
    a = path(5e-9, 0.1, -0.2, gain=2 + 1j)
    b = path(5e-9, 0.1, -0.2, gain=-7j)
    assert pairwise_cost(a, b, RES) == 0.0


# angles clustered at the +-0.5 seam as well as spread, so differences wrap
ANGLE = st.one_of(st.floats(-0.5, 0.5),
                  st.floats(0.45, 0.5), st.floats(-0.5, -0.45))
PATH = st.builds(lambda d, t, r: PathParams(gain=1 + 0j, delay=d, aod=t, aoa=r),
                 st.floats(0.0, DESK.duration), ANGLE, ANGLE)


@settings(max_examples=60, deadline=None)
@given(phys=st.lists(PATH, min_size=1, max_size=6),
       est=st.lists(PATH, min_size=1, max_size=6))
def test_cost_matrix_equals_scalar_loop_bit_for_bit(phys, est):
    matrix = _cost_matrix(_axis_errors(phys, est, RES))
    loop = np.array([[pairwise_cost(p, q, RES) for q in est] for p in phys])
    assert matrix.shape == loop.shape
    assert np.array_equal(matrix, loop)


def test_resolution_spec_validation():
    with pytest.raises(ValueError):
        ResolutionSpec(delay_res=0.0, aoa_res=0.1, aod_res=0.1)
    spec = ResolutionSpec.from_config(DESK)
    assert spec.delay_res == 1e-9
    assert spec.aoa_res == 1.0 / 8
    assert spec.aod_res == 1.0 / 8


# ---------------------------------------------------------------------------
# minimum-cost partial assignment


def test_assign_two_by_two():
    result = assign(np.array([[1.0, 2.0], [2.0, 1.0]]), 10.0)
    assert set(result.pairs) == {(0, 0), (1, 1)}
    assert result.total_cost == pytest.approx(2.0)
    assert result.unmatched_rows == [] and result.unmatched_cols == []


def test_assign_prefers_unmatched_when_cheap():
    result = assign(np.array([[5.0]]), 1.0)
    assert result.pairs == []
    assert result.unmatched_rows == [0]
    assert result.unmatched_cols == [0]
    assert result.total_cost == pytest.approx(2.0)


def test_assign_rectangular():
    cost = np.array([[1.0, 9.0, 9.0],
                     [9.0, 1.0, 9.0]])
    result = assign(cost, 100.0)
    assert set(result.pairs) == {(0, 0), (1, 1)}
    assert result.unmatched_rows == []
    assert result.unmatched_cols == [2]
    assert result.total_cost == pytest.approx(1 + 1 + 100.0)


def test_assign_empty_inputs():
    result = assign(np.zeros((0, 3)), 2.0)
    assert result.pairs == []
    assert result.unmatched_cols == [0, 1, 2]
    assert result.total_cost == pytest.approx(6.0)
    result = assign(np.zeros((2, 0)), 2.0)
    assert result.unmatched_rows == [0, 1]
    assert result.total_cost == pytest.approx(4.0)


def test_assign_validation():
    with pytest.raises(ValueError):
        assign(np.zeros((2, 2)), 0.0)
    with pytest.raises(ValueError):
        assign(np.zeros((2, 2)), -1.0)
    with pytest.raises(ValueError):
        assign(np.array([[np.inf, 1.0], [1.0, 1.0]]), 1.0)
    with pytest.raises(ValueError):
        assign(np.array([[-0.5, 1.0], [1.0, 1.0]]), 1.0)
    with pytest.raises(ValueError):
        assign(np.zeros(4), 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_unmatched_cost_rejected(bad):
    with pytest.raises(ValueError, match=repr(bad)):
        assign(np.ones((2, 3)), bad)
    with pytest.raises(ValueError, match=repr(bad)):
        associate([path(1e-9, 0.0, 0.0)], [path(2e-9, 0.1, 0.1)], RES,
                  unmatched_cost=bad)


def test_assign_matches_brute_force():
    rng = np.random.default_rng(97)
    for trial in range(100):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        cost = rng.uniform(0, 10, size=(n, m))
        # mix of regimes: cheap, moderate, and expensive opt-out
        unmatched = float(rng.choice([0.5, 2.0, 5.0, 20.0]))
        result = assign(cost, unmatched)
        oracle_total, oracle_pairs = brute_force_assignment(cost, unmatched)
        assert result.total_cost == pytest.approx(oracle_total, rel=1e-9), (
            f"trial {trial}: got {result.total_cost}, oracle {oracle_total}"
        )
        # the recomputed objective of the returned matching must equal the
        # reported total (the matching itself may differ on exact ties)
        recomputed = sum(cost[r, c] for r, c in result.pairs)
        recomputed += unmatched * (len(result.unmatched_rows)
                                   + len(result.unmatched_cols))
        assert recomputed == pytest.approx(result.total_cost, rel=1e-9)
        assert len(result.pairs) + len(result.unmatched_rows) == n
        assert len(result.pairs) + len(result.unmatched_cols) == m


@st.composite
def tied_problems(draw):
    "Integer costs (exact ties) and an unmatched cost of half some cost."
    n = draw(st.integers(0, 5))
    m = draw(st.integers(0, 5))
    cost = np.array(draw(st.lists(st.integers(0, 6), min_size=n * m,
                                  max_size=n * m)), dtype=float).reshape(n, m)
    halves = sorted({c / 2 for c in cost.flat if c > 0}) or [0.5]
    return cost, draw(st.sampled_from(halves))


@settings(max_examples=300, deadline=None)
@given(problem=tied_problems())
def test_assign_matches_brute_force_with_ties(problem):
    cost, unmatched = problem
    n, m = cost.shape
    result = assign(cost, unmatched)
    oracle_total, _ = brute_force_assignment(cost, unmatched)
    # integers and halves add exactly, so the totals compare exactly
    assert result.total_cost == oracle_total
    recomputed = sum(cost[r, c] for r, c in result.pairs)
    recomputed += unmatched * (len(result.unmatched_rows)
                               + len(result.unmatched_cols))
    assert recomputed == result.total_cost
    rows = [r for r, _ in result.pairs]
    cols = [c for _, c in result.pairs]
    assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
    assert rows == sorted(rows)
    assert result.unmatched_rows == sorted(set(range(n)) - set(rows))
    assert result.unmatched_cols == sorted(set(range(m)) - set(cols))


def padded_square_assignment(cost, unmatched_cost):
    """Pairs and total of the (n+m) square dummy-padded formulation.

    The n x m matrix sits in the top left, the diagonals of the two dummy
    blocks carry ``unmatched_cost``, their other entries a prohibitive
    cost, and the bottom-right block is free.
    """
    n, m = cost.shape
    big = (n + m) * unmatched_cost + max(cost.max(), unmatched_cost) + 1.0
    padded = np.full((n + m, n + m), big)
    padded[:n, :m] = cost
    padded[np.arange(n), m + np.arange(n)] = unmatched_cost
    padded[n + np.arange(m), np.arange(m)] = unmatched_cost
    padded[n:, m:] = 0.0
    col4row = _lap(padded)
    pairs = [(i, int(col4row[i])) for i in range(n) if col4row[i] < m]
    total = float(sum(cost[i, j] for i, j in pairs))
    total += unmatched_cost * (n + m - 2 * len(pairs))
    return pairs, total


@pytest.mark.parametrize("shape", [(40, 80), (80, 40), (120, 60)])
def test_assign_matches_padded_square_at_scale(shape):
    rng = np.random.default_rng(113)
    cost = rng.uniform(0.0, 100.0, size=shape)  # continuous: no exact ties
    pairs, total = padded_square_assignment(cost, 1.0)
    result = assign(cost, 1.0)
    assert 0 < len(result.pairs) < min(shape)  # both regimes occur
    assert result.pairs == pairs
    assert result.total_cost == total


def test_associate_loads_no_scipy():
    "numpy is the only declared dependency; association must not need scipy."
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = (
        "import sys\n"
        "import mpcx\n"
        "from mpcx import PathParams, ResolutionSpec, associate\n"
        "res = ResolutionSpec(delay_res=1e-9, aoa_res=0.125, aod_res=0.125)\n"
        "phys = [PathParams(gain=1, delay=k * 1e-9, aod=0.1 * k, aoa=-0.1 * k)"
        " for k in range(4)]\n"
        "assert associate(phys, phys[:3], res).k_pa == 3\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_assign_all_unmatched_regime():
    rng = np.random.default_rng(101)
    cost = rng.uniform(5.0, 9.0, size=(4, 4))
    result = assign(cost, 0.25)
    assert result.pairs == []
    assert result.total_cost == pytest.approx(0.25 * 8)


# ---------------------------------------------------------------------------
# end-to-end association


def test_associate_identical_sets():
    phys = [path(5e-9, 0.1, -0.2, gain=2 + 0j), path(9e-9, -0.3, 0.4, gain=1 + 0j)]
    result = associate(phys, list(phys), RES)
    assert sorted(result.pairs, key=lambda p: p[0])[0][:2] == (0, 0)
    assert result.k_pa == 2
    assert result.pre_pa_cost == pytest.approx(0.0, abs=1e-15)
    assert result.post_pa_cost == pytest.approx(0.0, abs=1e-15)
    assert result.bin_sets.joint == {0, 1}
    assert result.unmatched_phys == [] and result.unmatched_est == []


def test_associate_bin_membership_per_axis():
    phys = [path(10e-9, 0.0, 0.0)]
    # 2 delay bins off: outside the delay set, inside both angle sets
    est = [path(10e-9 + 2 * RES.delay_res, 0.0, 0.0)]
    result = associate(phys, est, RES, unmatched_cost=10.0)
    assert result.k_pa == 1
    assert result.bin_sets.delay == frozenset()
    assert result.bin_sets.aoa == {0}
    assert result.bin_sets.aod == {0}
    assert result.bin_sets.joint == frozenset()


def test_associate_exactly_one_bin_is_inside():
    # errors of exactly one resolution step still count as inside the bin;
    # delay 0 keeps the float subtraction exact, 1/8 cycles is dyadic
    phys = [path(0.0, 0.0, 0.0)]
    est = [path(RES.delay_res, RES.aoa_res, -RES.aod_res)]
    result = associate(phys, est, RES, unmatched_cost=10.0)
    assert result.bin_sets.delay == {0}
    assert result.bin_sets.aoa == {0}
    assert result.bin_sets.aod == {0}
    assert result.bin_sets.joint == {0}


def test_associate_spurious_estimates_left_unmatched():
    rng = np.random.default_rng(103)
    phys = [
        path(float(5e-9 + 3e-9 * i), float(-0.4 + 0.08 * i),
             float(0.4 - 0.08 * i), gain=complex(rng.normal(), rng.normal()))
        for i in range(10)
    ]
    est = [
        PathParams(gain=p.gain, delay=p.delay + 0.2e-9, aod=p.aod + 0.01,
                   aoa=p.aoa - 0.01)
        for p in phys
    ]
    # spurious estimates far from everything
    spurious = [
        path(float(25e-9 + 0.31e-9 * i), float(0.47 - 0.093 * i),
             float(-0.45 + 0.09 * i))
        for i in range(10)
    ]
    result = associate(phys, est + spurious, RES, unmatched_cost=9.0)
    assert result.k_pa == 10
    assert {e for _, e, _ in result.pairs} == set(range(10))
    assert sorted(result.unmatched_est) == list(range(10, 20))
    assert result.unmatched_phys == []

    # cross-check the matching against the exhaustive oracle on the same cost
    cost = np.array([[pairwise_cost(p, e, RES) for e in est + spurious]
                     for p in phys])
    oracle_total, _ = brute_force_assignment(cost[:, :6], 9.0)
    del oracle_total  # brute force over the full 10x20 is too big; spot check
    small = associate(phys[:3], (est + spurious)[:4], RES, unmatched_cost=9.0)
    cost_small = np.array([[pairwise_cost(p, e, RES)
                            for e in (est + spurious)[:4]] for p in phys[:3]])
    bf_total, bf_pairs = brute_force_assignment(cost_small, 9.0)
    assign_small = assign(cost_small, 9.0)
    assert assign_small.total_cost == pytest.approx(bf_total, rel=1e-9)
    assert {(r, c) for r, c, _ in small.pairs} == bf_pairs


def test_associate_cost_weighting_by_power():
    strong = path(5e-9, 0.0, 0.0, gain=10 + 0j)   # power 100
    weak = path(20e-9, 0.3, -0.3, gain=1 + 0j)    # power 1
    est = [
        path(5e-9, 0.0, 0.0),                      # exact match to strong
        path(20e-9 + RES.delay_res, 0.3, -0.3),    # 1 bin off the weak one
    ]
    result = associate([strong, weak], est, RES, unmatched_cost=50.0)
    # post-association cost = sum_i w_i * c_i with w = power / total power
    assert result.post_pa_cost == pytest.approx((100 / 101) * 0 + (1 / 101) * 1,
                                                rel=1e-12)


def test_associate_post_cost_not_above_pre_cost_for_aligned_rank():
    "When rank-ordered pairing is feasible, optimal matching can only improve."
    rng = np.random.default_rng(107)
    for _ in range(10):
        phys = [
            path(float(rng.uniform(0, 25e-9)), float(rng.uniform(-0.45, 0.45)),
                 float(rng.uniform(-0.45, 0.45)),
                 gain=complex(rng.normal(), rng.normal()))
            for _ in range(6)
        ]
        est = [
            PathParams(gain=p.gain * complex(rng.normal(1, 0.05)),
                       delay=p.delay + float(rng.normal(0, 0.05e-9)),
                       aod=float(np.clip(p.aod + rng.normal(0, 0.002), -0.5, 0.5)),
                       aoa=float(np.clip(p.aoa + rng.normal(0, 0.002), -0.5, 0.5)))
            for p in phys
        ]
        result = associate(phys, est, RES, unmatched_cost=30.0)
        if result.k_pa == len(phys):
            assert (result.post_pa_cost
                    <= result.pre_pa_cost * (1 + 1e-9) + 1e-15)


def test_associate_pre_cost_is_rank_for_rank():
    # two paths with clearly distinct powers, estimates rank-swapped in
    # geometry: pre cost pairs strongest with strongest regardless of position
    phys = [path(5e-9, 0.0, 0.0, gain=3 + 0j), path(15e-9, 0.2, 0.2, gain=1 + 0j)]
    est = [path(15e-9, 0.2, 0.2, gain=3.1 + 0j), path(5e-9, 0.0, 0.0, gain=0.9 + 0j)]
    result = associate(phys, est, RES, unmatched_cost=1000.0)
    # optimal matching pairs by geometry (cost 0); rank pairing crosses them
    assert result.post_pa_cost == pytest.approx(0.0, abs=1e-15)
    w_strong = 9.0 / 10.0
    cross = pairwise_cost(phys[0], est[0], RES)
    cross2 = pairwise_cost(phys[1], est[1], RES)
    expected_pre = w_strong * cross + (1 - w_strong) * cross2
    assert result.pre_pa_cost == pytest.approx(expected_pre, rel=1e-12)


def test_associate_empty_inputs_raise():
    with pytest.raises(ValueError):
        associate([], [path(1e-9, 0.0, 0.0)], RES)
    with pytest.raises(ValueError):
        associate([path(1e-9, 0.0, 0.0)], [], RES)


def test_associate_joint_is_intersection():
    rng = np.random.default_rng(109)
    phys = [
        path(float(rng.uniform(0, 25e-9)), float(rng.uniform(-0.45, 0.45)),
             float(rng.uniform(-0.45, 0.45)))
        for _ in range(8)
    ]
    est = [
        PathParams(gain=p.gain,
                   delay=max(0.0, p.delay + float(rng.normal(0, 0.8e-9))),
                   aod=float(np.clip(p.aod + rng.normal(0, 0.1), -0.5, 0.5)),
                   aoa=float(np.clip(p.aoa + rng.normal(0, 0.1), -0.5, 0.5)))
        for p in phys
    ]
    result = associate(phys, est, RES, unmatched_cost=200.0)
    joint = result.bin_sets.delay & result.bin_sets.aoa & result.bin_sets.aod
    assert result.bin_sets.joint == joint
    # membership recomputed from the matched pairs themselves
    expected_delay = set()
    for p_idx, e_idx, _ in result.pairs:
        if abs(phys[p_idx].delay - est[e_idx].delay) <= RES.delay_res:
            expected_delay.add(p_idx)
    assert result.bin_sets.delay == expected_delay
