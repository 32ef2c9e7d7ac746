"""
Greedy-LS extraction: matching pursuit with least-squares refitting
===================================================================

The extractor alternates between greedy peak detection on the beamspace
residual and least-squares amplitude refits.  Each outer iteration scans
for k_g candidate peaks by CLEAN-style subtraction of the candidates found
so far (read-only: only the commits are ever written into the grid, 16
at a time on large grids), ranks them by LS-refitted power against the
current residual, and commits the k_up strongest.  No residual response
is formed: the LS right-hand side is the candidates' matched filter of
the measurement minus their Gram with the commits times the committed
gains.  A final LS refit of all committed geometries against the original
measurement replaces the amplitudes.

The residual power trace is non-increasing by construction: every commit
uses the exactly optimal amplitude for its geometry at commit time.
"""

import numpy as np

from mpcx import (
    ExtractionConfig,
    PathParams,
    ScenarioSpec,
    SounderConfig,
    generate_scenario,
    greedy_ls,
    reconstruct,
    reconstruction_error,
)

config = SounderConfig(n_tx=8, n_rx=8, bandwidth_hz=1e9, n_freq=32)

# clustered off-grid truth, delays inside the 32 ns unambiguous span
scenario = ScenarioSpec(n_clusters=3, paths_per_cluster=3, seed=11,
                        delay_center_min_s=5e-9, delay_center_max_s=2.4e-8,
                        delay_spread_s=3e-10, angle_spread=0.02,
                        cluster_decay_db=4.0, path_spread_db=6.0,
                        dynamic_range_db=60.0)
truth = generate_scenario(scenario).retained
print(f"truth: {len(truth)} off-grid paths in 3 clusters")

xcfg = ExtractionConfig(k_dom=18, k_g=4, k_up=2, residual_stop=0.0)
estimates, trace = greedy_ls(config=config, response=reconstruct(truth, config),
                             xcfg=xcfg)
print(f"committed {len(estimates)} paths "
      f"(budget {xcfg.k_dom}, {xcfg.k_g} candidates / {xcfg.k_up} commits per "
      f"iteration)\n")

print("residual power after each commit:")
for i, p in enumerate(trace.residual_power, start=1):
    db = 10 * np.log10(p / trace.initial_power)
    bar = "#" * max(0, int(50 + db))
    print(f"  {i:3d}  {db:8.2f} dB  {bar}")

err = reconstruction_error(reconstruct(estimates, config),
                           reconstruct(truth, config))
print(f"\nfinal normalized reconstruction error: {err:.3e}")

print("\nstrongest truth paths vs nearest estimates (delay ns / aoa / aod):")
by_power = sorted(truth, key=lambda p: -p.power)[:5]
for t in by_power:
    nearest = min(estimates,
                  key=lambda e: abs(e.delay - t.delay) * 1e9
                  + abs(e.aoa - t.aoa) + abs(e.aod - t.aod))
    print(f"  truth {t.delay*1e9:6.2f} {t.aoa:+.3f} {t.aod:+.3f}   "
          f"est {nearest.delay*1e9:6.2f} {nearest.aoa:+.3f} {nearest.aod:+.3f}")
