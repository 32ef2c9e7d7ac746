"""Closed-form per-axis beamspace kernels, the test oracle of the footprints.

The library builds every footprint from steering matrices; these are the
same normalized inner products written as Dirichlet kernels.
"""

import numpy as np


def angle_kernel(delta_theta, n: int):
    """Normalized steering-vector inner product (exact Dirichlet kernel).

    (1/n) * sum_{m=0}^{n-1} exp(j*2*pi*delta_theta*m)
        = exp(j*pi*(n-1)*delta_theta) * sin(pi*n*delta_theta)
          / (n * sin(pi*delta_theta))

    Periodic in ``delta_theta`` with period 1; the removable singularity at
    integer arguments evaluates to 1.  Accepts scalars or arrays.
    """
    delta = np.asarray(delta_theta, dtype=float)
    scalar = delta.ndim == 0
    delta = np.atleast_1d(delta)
    # reduce to the principal period; the kernel is exactly 1-periodic
    frac = delta - np.round(delta)
    out = np.empty(frac.shape, dtype=complex)
    at_zero = frac == 0.0
    out[at_zero] = 1.0
    f = frac[~at_zero]
    out[~at_zero] = (np.exp(1j * np.pi * (n - 1) * f) * np.sin(np.pi * n * f)
                     / (n * np.sin(np.pi * f)))
    return complex(out[0]) if scalar else out


def delay_kernel(delta_tau, bandwidth_hz: float, n_freq: int):
    """Sample mean of exp(j*2*pi*delta_tau*f) over the baseband frequency
    grid: 1 at ``delta_tau = 0``, 0 at nonzero integer multiples of 1/W that
    are not multiples of n_freq/W."""
    delta = np.asarray(delta_tau, dtype=float)
    out = (np.exp(-1j * np.pi * delta * bandwidth_hz)
           * angle_kernel(delta * bandwidth_hz / n_freq, n_freq))
    return complex(out) if delta.ndim == 0 else out
