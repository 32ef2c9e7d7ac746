"""Test oracles: closed-form per-axis beamspace kernels and the scalar
forms of library quantities.

The library builds every footprint from one closed-form kernel per axis;
here footprints are the transform's lattice matrices applied to the
paths' steering matrices (``kernel_factors``), and the kernels are the
same normalized inner products written as Dirichlet kernels.  The scalar
forms (one steering vector, one beamspace point, one pair cost, one Gram
condition number) are what the stages compute in bulk.  The footprint
factors of a path list and the rows that a bound on them keeps are what
the picker builds column by column.  A grid's peak is ``tentative_peak``
over every row (``grid_peak``), and the dense oracle of it and of the row
maxima that a grid pass records is ``np.argmax`` and ``np.max`` of the
whole lattice (``dense_peak``).
"""

import numpy as np

from mpcx import FrequencyResponse, PathParams, SounderConfig, synthesize_response
from mpcx.assoc import ResolutionSpec, _axis_errors, _cost_matrix
from mpcx.beamspace import _bound_rows, tentative_peak
from mpcx.extract import _gram_condition, _normal_equations
from mpcx.sounder import _matched_filter, _steering_matrices


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


def steering_vector(theta: float, n: int) -> np.ndarray:
    """Length-n array steering vector with element m equal to exp(+j*2*pi*theta*m)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.exp(2j * np.pi * theta * np.arange(n))


def beamspace_point(
    response: FrequencyResponse, aoa: float, aod: float, delay: float
) -> complex:
    """The beamspace transform of a response at one off-lattice point: the
    matched filter of the unit path at (aoa, aod, delay) divided by
    n_rx*n_tx*n_freq, the exactly optimal single-path amplitude."""
    values = response.values
    atoms = _steering_matrices(response.config, [delay], [aod], [aoa])
    return complex(_matched_filter(values, *atoms)[0]) / values.size


def pairwise_cost(phys: PathParams, est: PathParams, res: ResolutionSpec) -> float:
    """Normalized squared geometric distance between two paths, the 1x1 case
    of the association cost matrix.

    Sum over delay, arrival angle, and departure angle of the squared error
    divided by the squared per-axis resolution.  Angle differences wrap to
    the principal interval.  Zero iff the geometries coincide (mod 1 in
    angle); one unit per axis that is off by exactly one resolution width.
    """
    return float(_cost_matrix(_axis_errors([phys], [est], res))[0, 0])


def ls_condition(
    geometry: list[tuple[float, float, float]], config: SounderConfig
) -> float:
    """Condition number of the LS Gram matrix of the geometries, validated
    as ``ls_amplitudes`` validates them."""
    zero = synthesize_response(config, [])
    return _gram_condition(_normal_equations(zero, geometry, config)[0])


def path_atoms(config, paths):
    "``_steering_matrices`` of the geometries of ``paths`` and their gains."
    steering = _steering_matrices(config, [p.delay for p in paths],
                                  [p.aod for p in paths], [p.aoa for p in paths])
    return steering, np.array([p.gain for p in paths])


def kernel_factors(matrices, steering, gains):
    """Rank-K factors of the summed footprints of K atoms, given by their
    ``_steering_matrices`` and gains, on the ``(aoa*aod, delay)`` view of
    the lattice of ``matrices`` (``GridSpec._matrices``): the lattice
    matrices applied to the atoms, one axis at a time.  ``left[:, k]`` is
    ``gains[k] * (m_rx a_rx)[:, k] (x) (m_tx a_tx)[:, k]`` and ``right`` is
    ``a_f^T m_f``."""
    m_rx, m_tx, m_f = matrices
    a_rx, a_tx, a_f = steering
    k_rx = (m_rx @ a_rx) * gains
    left = (k_rx[:, None, :] * (m_tx @ a_tx)).reshape(-1, len(gains))
    return left, a_f.T @ m_f


def footprint_factors(grid, paths):
    """The ``kernel_factors`` of the paths' footprints on the lattice of
    ``grid``, built from its lattice matrices, as ``peak_sweep`` and
    ``tentative_peak`` take them; None for no path."""
    if not paths:
        return None
    return kernel_factors(grid.spec._matrices(grid.config),
                          *path_atoms(grid.config, paths))


def kept_rows(row_peaks, factors, floor=None):
    """The ascending rows that ``_bound_rows`` keeps for the footprints of
    ``factors`` on a grid with row maxima ``row_peaks``: row r moves by at
    most sum_k |left[r, k]| * max_l |right[k, l]|."""
    left, right = factors
    return _bound_rows(row_peaks, np.abs(left) @ np.abs(right).max(axis=1), floor)


def grid_peak(grid):
    """``tentative_peak`` over every row of the ``(aoa*aod, delay)`` view of
    ``grid``, without footprints: the peak of the grid as it stands."""
    return tentative_peak(grid, None, np.arange(grid.shape[0] * grid.shape[1]))


def dense_peak(values):
    """The dense oracle of a whole lattice tensor: the index triple and
    value of the first maximum of ``|values|`` (``np.argmax``), and the
    maximum magnitude of every (AoA, AoD) row."""
    mag = np.abs(values)
    i, j, l = (int(k) for k in np.unravel_index(int(np.argmax(mag)), values.shape))
    return (i, j, l, complex(values[i, j, l])), mag.reshape(-1, values.shape[2]).max(axis=1)
