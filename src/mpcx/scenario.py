"""Seeded synthetic scenario generation.

Produces clustered multipath ground truth for end-to-end runs: cluster
centers drawn uniformly in delay and angle, per-path Gaussian offsets around
each center, per-cluster power decay with per-path uniform spread, uniform
random phase.  Every draw comes from one seeded generator in a fixed order,
so a spec with the same seed always yields the same path list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .sounder import PathParams, filter_by_dynamic_range


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of the clustered scenario generator.

    ``cluster_decay_db`` lowers each successive cluster's power offset;
    ``path_spread_db`` is the uniform per-path spread below that offset.
    Paths whose power falls more than ``dynamic_range_db`` below the
    strongest generated path are dropped from the retained list.
    """

    n_clusters: int
    paths_per_cluster: int
    seed: int
    delay_center_min_s: float = 2.0e-8
    delay_center_max_s: float = 2.0e-7
    delay_spread_s: float = 2.0e-9
    angle_center_min: float = -0.4
    angle_center_max: float = 0.4
    angle_spread: float = 0.015
    cluster_decay_db: float = 6.0
    path_spread_db: float = 10.0
    dynamic_range_db: float = 100.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} {value} must be finite")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.paths_per_cluster < 1:
            raise ValueError("paths_per_cluster must be >= 1 (empty scenario)")
        if self.delay_center_min_s < 0:
            raise ValueError("delay_center_min_s must be >= 0")
        if self.delay_center_max_s < self.delay_center_min_s:
            raise ValueError("delay center range is inverted")
        if not -0.5 <= self.angle_center_min <= self.angle_center_max <= 0.5:
            raise ValueError("angle center range must lie within [-0.5, 0.5]")
        if self.delay_spread_s < 0 or self.angle_spread < 0:
            raise ValueError("spreads must be >= 0")
        if self.path_spread_db < 0:
            raise ValueError("path_spread_db must be >= 0")
        if self.dynamic_range_db <= 0:
            raise ValueError("dynamic_range_db must be > 0")


@dataclass(frozen=True)
class Scenario:
    "Generated ground truth: all drawn paths plus the dynamic-range-filtered subset."

    spec: ScenarioSpec
    generated: list[PathParams]
    retained: list[PathParams]


def generate_scenario(spec: ScenarioSpec) -> Scenario:
    """Draw a clustered path list from a seeded generator.

    Draw order, fixed for reproducibility: per cluster, first the center
    triple (delay, aoa, aod) from uniform distributions, then per path the
    Gaussian delay/aoa/aod offsets, the uniform power deficit in dB, and the
    uniform phase.  Angles clip to [-0.5, 0.5] and delays to >= 0 so every
    generated path satisfies the path invariants.
    """
    rng = np.random.default_rng(spec.seed)
    generated: list[PathParams] = []
    for c in range(spec.n_clusters):
        center_delay = rng.uniform(spec.delay_center_min_s, spec.delay_center_max_s)
        center_aoa = rng.uniform(spec.angle_center_min, spec.angle_center_max)
        center_aod = rng.uniform(spec.angle_center_min, spec.angle_center_max)
        offset_db = -c * spec.cluster_decay_db
        for _ in range(spec.paths_per_cluster):
            delay = max(0.0, center_delay + rng.normal(0.0, spec.delay_spread_s))
            aoa = float(np.clip(center_aoa + rng.normal(0.0, spec.angle_spread),
                                -0.5, 0.5))
            aod = float(np.clip(center_aod + rng.normal(0.0, spec.angle_spread),
                                -0.5, 0.5))
            level_db = offset_db - rng.uniform(0.0, spec.path_spread_db)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            gain = 10.0 ** (level_db / 20.0) * np.exp(1j * phase)
            generated.append(PathParams(gain=complex(gain), delay=float(delay),
                                        aod=aod, aoa=aoa))
    retained = filter_by_dynamic_range(generated, spec.dynamic_range_db)
    return Scenario(spec=spec, generated=generated, retained=retained)
