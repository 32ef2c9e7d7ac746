import math

import numpy as np
import pytest

from mpcx import ScenarioSpec, generate_scenario


def spec(**overrides):
    base = dict(n_clusters=3, paths_per_cluster=4, seed=7)
    base.update(overrides)
    return ScenarioSpec(**base)


def test_generation_is_deterministic():
    a = generate_scenario(spec())
    b = generate_scenario(spec())
    assert a.generated == b.generated
    assert a.retained == b.retained
    c = generate_scenario(spec(seed=8))
    assert c.generated != a.generated


def test_generated_counts():
    scn = generate_scenario(spec(n_clusters=5, paths_per_cluster=50))
    assert len(scn.generated) == 250
    assert len(scn.retained) <= 250


def test_all_paths_are_valid():
    scn = generate_scenario(spec(n_clusters=10, paths_per_cluster=20, seed=3))
    for p in scn.generated:
        assert p.delay >= 0
        assert -0.5 <= p.aoa <= 0.5
        assert -0.5 <= p.aod <= 0.5
        assert p.power > 0


def test_retention_matches_brute_force_threshold():
    scn = generate_scenario(spec(n_clusters=6, paths_per_cluster=30, seed=11,
                                 dynamic_range_db=25.0))
    powers = [p.power for p in scn.generated]
    cut = max(powers) * 10 ** (-25.0 / 10)
    expected = [p for p in scn.generated if p.power >= cut]
    assert scn.retained == expected
    assert len(scn.retained) < len(scn.generated)


def test_angles_cluster_near_centers():
    tight = spec(n_clusters=1, paths_per_cluster=200, seed=5, angle_spread=0.001)
    scn = generate_scenario(tight)
    aoas = np.array([p.aoa for p in scn.generated])
    assert aoas.std() < 0.01
    assert abs(aoas - aoas.mean()).max() < 0.02


def test_delay_window_respected():
    scn = generate_scenario(spec(n_clusters=8, paths_per_cluster=25, seed=13,
                                 delay_center_min_s=1e-8, delay_center_max_s=5e-8,
                                 delay_spread_s=1e-10))
    delays = np.array([p.delay for p in scn.generated])
    assert delays.min() >= 0
    assert delays.max() < 6e-8


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(paths_per_cluster=0)
    with pytest.raises(ValueError):
        spec(n_clusters=0)
    with pytest.raises(ValueError):
        spec(delay_center_min_s=-1e-9)
    with pytest.raises(ValueError):
        spec(delay_center_min_s=5e-8, delay_center_max_s=4e-8)
    with pytest.raises(ValueError):
        spec(angle_center_min=0.3, angle_center_max=-0.3)
    with pytest.raises(ValueError):
        spec(dynamic_range_db=0.0)


@pytest.mark.parametrize("field", ["delay_center_min_s", "delay_center_max_s",
                                   "delay_spread_s", "angle_center_min",
                                   "angle_center_max", "angle_spread",
                                   "cluster_decay_db", "path_spread_db",
                                   "dynamic_range_db"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_naming_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} .*finite"):
        spec(**{field: value})


def test_cluster_decay_orders_average_power():
    scn = generate_scenario(spec(n_clusters=4, paths_per_cluster=400, seed=17,
                                 cluster_decay_db=12.0, path_spread_db=3.0,
                                 dynamic_range_db=200.0))
    db = 10 * np.log10([p.power for p in scn.generated])
    per_cluster = db.reshape(4, 400).mean(axis=1)
    assert np.all(np.diff(per_cluster) < 0)
    assert per_cluster[0] - per_cluster[1] == pytest.approx(12.0, abs=1.0)
