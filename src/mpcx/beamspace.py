"""Oversampled angle-delay (beamspace) representation of a measured response.

The transform maps an (rx, tx, frequency) response tensor onto a 3D lattice of
(AoA, AoD, delay) points.  Its point-spread function separates into a product
of three closed-form kernels, which makes greedy subtraction of a single path
exactly consistent with the transform: subtracting ``single_path_grid`` from
``beamspace_transform`` of that path's synthesized response leaves zero up to
floating-point rounding.

Both kernels are defined as the exact normalized inner products of the
discrete sinusoids, so they carry a linear phase factor in addition to the
familiar real Dirichlet / sinc magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sounder import FrequencyResponse, PathParams, SounderConfig, resolvable_delays


@dataclass(frozen=True)
class GridSpec:
    """Oversampling factors and delay span of the beamspace lattice.

    The AoA axis has ``n_rx * os_aoa`` points uniformly covering [-0.5, 0.5),
    the AoD axis ``n_tx * os_aod`` points likewise, and the delay axis
    ``ceil(delay_span * W) * os_delay`` points covering [0, delay_span).
    ``delay_span`` defaults to the observation duration T.
    """

    os_aoa: int = 4
    os_aod: int = 4
    os_delay: int = 4
    delay_span: float | None = None

    def __post_init__(self):
        if min(self.os_aoa, self.os_aod, self.os_delay) < 1:
            raise ValueError("oversampling factors must be positive integers")
        if self.delay_span is not None and self.delay_span <= 0:
            raise ValueError("delay_span must be positive")

    def span(self, config: SounderConfig) -> float:
        return config.duration if self.delay_span is None else self.delay_span

    def aoa_axis(self, config: SounderConfig) -> np.ndarray:
        n = config.n_rx * self.os_aoa
        return -0.5 + np.arange(n) / n

    def aod_axis(self, config: SounderConfig) -> np.ndarray:
        n = config.n_tx * self.os_aod
        return -0.5 + np.arange(n) / n

    def delay_axis(self, config: SounderConfig) -> np.ndarray:
        n_bins = resolvable_delays(self.span(config), config.bandwidth_hz)
        n = n_bins * self.os_delay
        return np.arange(n) / (config.bandwidth_hz * self.os_delay)


@dataclass(frozen=True)
class BeamspaceGrid:
    """Complex beamspace tensor over (AoA, AoD, delay) lattice points.

    Normalization contract: a single path whose parameters sit exactly on the
    lattice produces its complex gain at the matching grid point.
    """

    values: np.ndarray
    spec: GridSpec
    config: SounderConfig

    @property
    def aoa_axis(self) -> np.ndarray:
        return self.spec.aoa_axis(self.config)

    @property
    def aod_axis(self) -> np.ndarray:
        return self.spec.aod_axis(self.config)

    @property
    def delay_axis(self) -> np.ndarray:
        return self.spec.delay_axis(self.config)

    @property
    def power(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


def angle_kernel(delta_theta, n: int):
    """Normalized steering-vector inner product (exact Dirichlet kernel).

    (1/n) * sum_{m=0}^{n-1} exp(j*2*pi*delta_theta*m)
        = exp(j*pi*(n-1)*delta_theta) * sin(pi*n*delta_theta)
          / (n * sin(pi*delta_theta))

    Periodic in ``delta_theta`` with period 1; the removable singularity at
    integer arguments evaluates to 1.  Accepts scalars or arrays.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    delta = np.asarray(delta_theta, dtype=float)
    scalar = delta.ndim == 0
    delta = np.atleast_1d(delta)
    # reduce to the principal period; the kernel is exactly 1-periodic
    frac = delta - np.round(delta)
    out = np.empty(frac.shape, dtype=complex)
    at_zero = frac == 0.0
    out[at_zero] = 1.0
    f = frac[~at_zero]
    out[~at_zero] = (
        np.exp(1j * np.pi * (n - 1) * f)
        * np.sin(np.pi * n * f)
        / (n * np.sin(np.pi * f))
    )
    return complex(out[0]) if scalar else out


def delay_kernel(delta_tau, bandwidth_hz: float, n_freq: int):
    """Discrete delay kernel: sample mean of exp(j*2*pi*delta_tau*f) over the
    baseband frequency grid.

    Equals 1 at ``delta_tau = 0`` and 0 at nonzero integer multiples of 1/W
    that are not multiples of n_freq/W.  This is the finite-sample counterpart
    of sinc(W*delta_tau) and the exact point-spread function of the transform
    along delay.
    """
    if n_freq < 1:
        raise ValueError("n_freq must be >= 1")
    delta = np.asarray(delta_tau, dtype=float)
    scalar = delta.ndim == 0
    phase = np.exp(-1j * np.pi * delta * bandwidth_hz)
    out = phase * angle_kernel(delta * bandwidth_hz / n_freq, n_freq)
    return complex(out) if scalar else out


def _check_spec(response: FrequencyResponse, spec: GridSpec) -> None:
    if spec.span(response.config) > response.config.duration:
        raise ValueError(
            "grid delay_span exceeds the observation duration; the transform "
            "would alias in delay"
        )


def beamspace_transform(response: FrequencyResponse, spec: GridSpec) -> BeamspaceGrid:
    """Map a frequency response onto the oversampled AoA-AoD-delay lattice.

    The value at grid point (theta_r, theta_t, tau) is

        (1 / (n_rx*n_tx*n_freq)) * sum_{r,t,m}
            conj(a_rx(theta_r))_r * H[r,t,m] * a_tx(theta_t)_t
            * exp(+j*2*pi*tau*f_m)

    computed here with zero-padded FFTs along each axis; the result is
    identical (to rounding) to the direct triple sum.
    """
    _check_spec(response, spec)
    cfg = response.config
    n_aoa = cfg.n_rx * spec.os_aoa
    n_aod = cfg.n_tx * spec.os_aod
    n_bins = resolvable_delays(spec.span(cfg), cfg.bandwidth_hz)
    n_tau = n_bins * spec.os_delay
    pad_tau = cfg.n_freq * spec.os_delay

    h = response.values
    # AoA axis: theta_i = -0.5 + i/n_aoa; the -0.5 offset becomes a (-1)^r twiddle
    work = h * ((-1.0) ** np.arange(cfg.n_rx))[:, None, None]
    work = np.fft.fft(work, n=n_aoa, axis=0) / cfg.n_rx
    # AoD axis: sum_t exp(+j2pi theta_j t), theta_j = -0.5 + j/n_aod
    work = work * ((-1.0) ** np.arange(cfg.n_tx))[None, :, None]
    work = np.fft.ifft(work, n=n_aod, axis=1) * (n_aod / cfg.n_tx)
    # delay axis: tau_l = l/(W*os); f_m = -W/2 + m W/n_freq
    work = np.fft.ifft(work, n=pad_tau, axis=2)[:, :, :n_tau] * (pad_tau / cfg.n_freq)
    tau_phase = np.exp(-1j * np.pi * np.arange(n_tau) / spec.os_delay)
    work = work * tau_phase[None, None, :]
    return BeamspaceGrid(values=work, spec=spec, config=cfg)


def beamspace_point(
    response: FrequencyResponse, aoa: float, aod: float, delay: float
) -> complex:
    """Evaluate the beamspace transform of a response at one off-lattice point."""
    cfg = response.config
    a_rx = np.exp(-2j * np.pi * aoa * np.arange(cfg.n_rx))
    a_tx = np.exp(2j * np.pi * aod * np.arange(cfg.n_tx))
    a_f = np.exp(2j * np.pi * delay * cfg.freq_grid)
    total = np.einsum("r,t,m,rtm->", a_rx, a_tx, a_f, response.values, optimize=True)
    return complex(total) / (cfg.n_rx * cfg.n_tx * cfg.n_freq)


def single_path_kernels(
    path: PathParams, spec: GridSpec, config: SounderConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis kernel vectors of one path on the beamspace lattice.

    The path's beamspace response is the outer product
    ``gain * k_aoa[:, None, None] * k_aod[None, :, None] * k_tau[None, None, :]``.
    """
    k_aoa = angle_kernel(path.aoa - spec.aoa_axis(config), config.n_rx)
    k_aod = angle_kernel(spec.aod_axis(config) - path.aod, config.n_tx)
    k_tau = delay_kernel(
        spec.delay_axis(config) - path.delay, config.bandwidth_hz, config.n_freq
    )
    return k_aoa, k_aod, k_tau


def single_path_grid(path: PathParams, spec: GridSpec, config: SounderConfig) -> BeamspaceGrid:
    """Analytic beamspace response of a single path (the subtraction kernel).

    Exactly equals ``beamspace_transform(synthesize_response(config, [path]), spec)``
    up to floating-point rounding -- the contract that makes greedy peak
    subtraction leave no self-noise.
    """
    k_aoa, k_aod, k_tau = single_path_kernels(path, spec, config)
    values = path.gain * np.einsum(
        "i,j,l->ijl", k_aoa, k_aod, k_tau, optimize=True
    )
    return BeamspaceGrid(values=values, spec=spec, config=config)


def subtract_path(grid_values: np.ndarray, path: PathParams, spec: GridSpec,
                  config: SounderConfig) -> None:
    "In-place subtraction of one path's beamspace response from a grid tensor."
    k_aoa, k_aod, k_tau = single_path_kernels(path, spec, config)
    grid_values -= path.gain * (
        k_aoa[:, None, None] * k_aod[None, :, None] * k_tau[None, None, :]
    )


def pdp_marginals(grid: BeamspaceGrid) -> tuple[np.ndarray, np.ndarray]:
    """2D power maps of a beamspace grid.

    Returns ``(aoa_aod, aoa_delay)`` where ``aoa_aod[i, j]`` sums |value|^2
    over the delay axis and ``aoa_delay[i, l]`` sums over the AoD axis.
    """
    power = np.abs(grid.values) ** 2
    return power.sum(axis=2), power.sum(axis=1)

