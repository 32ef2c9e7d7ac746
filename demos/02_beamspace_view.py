"""
Beamspace: where paths become peaks
===================================

The beamspace transform maps the (rx, tx, freq) response onto an
oversampled (AoA, AoD, delay) grid.  A path whose parameters sit exactly on
the grid lattice shows up as its complex gain at one grid point; off-grid
paths spread over neighboring points following the array's Dirichlet-kernel
point-spread function.  The transform is the direct separable triple sum,
evaluated as one steering-matrix product per axis.

This script places one on-grid and one off-grid path, locates their peaks,
and renders the angle-angle power marginal as a coarse text map.
"""

import numpy as np

from mpcx import (
    GridSpec,
    PathParams,
    SounderConfig,
    beamspace_transform,
    find_peak,
    pdp_marginals,
    synthesize_response,
)

config = SounderConfig(n_tx=8, n_rx=8, bandwidth_hz=1e9, n_freq=32)
spec = GridSpec(os_aoa=4, os_aod=4, os_delay=4)

# grid axes come from the transform of anything with this config
axes = beamspace_transform(synthesize_response(config, []), spec)
on_grid = PathParams(gain=1.0 + 0j, delay=float(axes.delay_axis[20]),
                     aod=float(axes.aod_axis[10]), aoa=float(axes.aoa_axis[24]))
off_grid = PathParams(gain=0.6 + 0j, delay=9.37e-9, aod=-0.271, aoa=0.158)

response = synthesize_response(config, [on_grid, off_grid])
grid = beamspace_transform(response, spec)
print(f"beamspace grid shape (aoa, aod, delay): {grid.values.shape}")

aoa, aod, delay, val = find_peak(grid)
print(f"\nstrongest peak: aoa={aoa:+.4f}, aod={aod:+.4f}, "
      f"delay={delay*1e9:.2f} ns, value={val:.4f}")
print(f"on-grid truth:  aoa={on_grid.aoa:+.4f}, aod={on_grid.aod:+.4f}, "
      f"delay={on_grid.delay*1e9:.2f} ns, gain={on_grid.gain:.4f}")

# the off-grid path never matches a lattice point exactly; its peak value
# is attenuated by the sub-bin offset
mask = np.abs(grid.aoa_axis - off_grid.aoa) < 0.5 / config.n_rx
sub = np.abs(grid.values[mask, :, :])
print(f"\noff-grid path: true gain {abs(off_grid.gain):.3f}, "
      f"strongest nearby grid value {sub.max():.3f}")

# angle-angle power map, rendered as text (rows: AoA, cols: AoD)
power_angles, _ = pdp_marginals(response, spec)
coarse = power_angles.reshape(8, 4, 8, 4).sum(axis=(1, 3))
levels = " .:-=+*#%@"
top = coarse.max()
print("\nAoA x AoD power map (coarse, log scale):")
for row in coarse:
    line = ""
    for v in row:
        db = 10 * np.log10(v / top + 1e-12)
        idx = int(np.clip((db + 40) / 40 * (len(levels) - 1), 0, len(levels) - 1))
        line += levels[idx] * 2
    print("  " + line)
