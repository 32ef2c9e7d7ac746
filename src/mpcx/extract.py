"""Multipath component extraction.

Implements greedy matching pursuit on the oversampled beamspace grid, a
driver that interleaves peak picking with least-squares amplitude refitting
on a commit schedule, and a path-wise expectation-maximization refinement
pass.  All estimators are deterministic functions of their inputs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .beamspace import BeamspaceGrid, GridSpec, _PendingPicks, beamspace_transform
from .sounder import (
    FrequencyResponse,
    PathParams,
    SounderConfig,
    _matched_filter,
    _steering_matrices,
    synthesize_response,
)

logger = logging.getLogger(__name__)

# condition-number ceiling beyond which a dictionary Gram matrix is treated
# as numerically singular
GRAM_CONDITION_LIMIT = 1e12


class DegenerateGeometryError(ValueError):
    """Raised when LS geometry columns are too close to linearly dependent.

    ``pairs`` holds (index_a, index_b, coherence) triples for the most nearly
    duplicate column pairs, most coherent first.
    """

    def __init__(self, condition: float, pairs: list[tuple[int, int, float]]):
        self.condition = condition
        self.pairs = pairs
        detail = ", ".join(f"({a},{b}) coherence {c:.6f}" for a, b, c in pairs[:5])
        super().__init__(
            f"LS dictionary numerically singular (condition {condition:.3e}); "
            f"near-duplicate geometry columns: {detail}"
        )


@dataclass(frozen=True)
class ExtractionConfig:
    """Knobs of the greedy-LS driver.

    ``k_dom`` is the total committed-path budget; each outer iteration detects
    ``k_g`` candidate peaks, refits their amplitudes by LS against the current
    residual, and commits the ``k_up`` strongest.
    """

    k_dom: int
    k_g: int = 4
    k_up: int = 2
    grid: GridSpec = field(default_factory=GridSpec)
    residual_stop: float = 1e-6
    final_global_ls: bool = True
    refine_peaks: bool = False

    def __post_init__(self):
        if self.k_dom < 1:
            raise ValueError("k_dom must be >= 1")
        if not 1 <= self.k_up <= self.k_g:
            raise ValueError(
                f"require 1 <= k_up <= k_g, got k_up={self.k_up}, k_g={self.k_g}"
            )
        if not (math.isfinite(self.residual_stop) and self.residual_stop >= 0):
            raise ValueError(f"residual_stop {self.residual_stop} must be finite "
                             "and >= 0")


@dataclass
class ExtractionTrace:
    """Per-commit and per-solve diagnostics of one greedy-LS run."""

    residual_power: list[float] = field(default_factory=list)
    committed_gain_power: list[float] = field(default_factory=list)
    ls_condition: list[float] = field(default_factory=list)
    initial_power: float = 0.0
    dropped_duplicates: int = 0
    full_sweeps: int = 0  # grid passes; the other picks were tentative
    stop_reason: str = ""  # "k_dom", "residual_stop" or "exhausted" (nothing to pick)


def find_peak(grid: BeamspaceGrid) -> tuple[float, float, float, complex]:
    """Coordinates and complex value of the maximum-magnitude grid entry.

    Exact magnitude ties resolve to the lowest (aoa, aod, delay) index triple
    in lexicographic order.  An all-zero grid reports peak value 0; an empty
    grid or a non-finite entry raises ValueError.
    """
    peak = grid._pick([])
    return peak.aoa, peak.aod, peak.delay, peak.gain


def greedy_extract(
    response: FrequencyResponse, spec: GridSpec, count: int
) -> list[PathParams]:
    """Plain greedy matching pursuit (iterative peak subtraction).

    Repeats ``count`` times: locate the strongest beamspace peak, record its
    grid coordinates and complex value as a path estimate, subtract that
    path's beamspace footprint, continue on the residual grid.
    Returns the estimates in detection order; stops early only if the
    residual grid becomes exactly zero.  Each subtraction is fused with the
    next peak search into one sweep, so the last estimate is never
    subtracted.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    grid = beamspace_transform(response, spec)
    estimates: list[PathParams] = []
    for _ in range(count):
        peak = grid._pick(estimates[-1:])
        if peak.gain == 0:
            break
        estimates.append(peak)
    return estimates


def _geometry_atoms(
    geometry: list[tuple[float, float, float]], config: SounderConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steering matrices (``_steering_matrices``) of (delay, aod, aoa)
    geometries, after checking that the list is non-empty and every value
    finite (the ValueError names the geometry index and field)."""
    if not geometry:
        raise ValueError("geometry list must be non-empty")
    for k, g in enumerate(geometry):
        for name, value in zip(("delay", "aod", "aoa"), g):
            if not math.isfinite(value):
                raise ValueError(f"geometry {k} {name} {value} must be finite")
    return _steering_matrices(config, *zip(*geometry))


def _dictionary_gram(a_rx: np.ndarray, a_tx: np.ndarray, a_f: np.ndarray,
                     other: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
                     ) -> np.ndarray:
    """Gram matrix A^H A of the atoms a_rx (x) a_tx (x) a_f, or the cross-Gram
    A^H B with the atoms of the steering matrices ``other``: the elementwise
    product of the three per-axis Grams (the full columns are never built)."""
    b_rx, b_tx, b_f = (a_rx, a_tx, a_f) if other is None else other
    gram = a_f.T.conj() @ b_f
    gram *= a_rx.T.conj() @ b_rx
    gram *= a_tx.T.conj() @ b_tx
    return gram


def _coherence_pairs(gram: np.ndarray) -> list[tuple[int, int, float]]:
    "Column pairs ranked by normalized coherence, most coherent first."
    k = gram.shape[0]
    norm = np.sqrt(np.abs(np.diag(gram)))
    coh = np.abs(gram) / np.outer(norm, norm)
    pairs = [(a, b, float(coh[a, b])) for a in range(k) for b in range(a + 1, k)]
    pairs.sort(key=lambda p: -p[2])
    return pairs


def _gram_condition(gram: np.ndarray) -> float:
    "Condition number of a Hermitian Gram matrix from its eigenvalues; inf if singular."
    eig = np.abs(np.linalg.eigvalsh(gram))
    with np.errstate(divide="ignore"):
        return float(eig.max() / eig.min())


def _solve(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solution of ``gram @ x = rhs`` and the Gram condition number, from its
    eigenvalues; DegenerateGeometryError if that exceeds the limit."""
    condition = _gram_condition(gram)
    if not np.isfinite(condition) or condition > GRAM_CONDITION_LIMIT:
        raise DegenerateGeometryError(condition, _coherence_pairs(gram))
    return np.linalg.solve(gram, rhs), condition


def _ls_solve(
    response: FrequencyResponse,
    geometry: list[tuple[float, float, float]],
    config: SounderConfig,
) -> tuple[np.ndarray, float]:
    """LS amplitudes and Gram condition number: the Gram matrix and the
    right-hand side from one set of atoms."""
    dim = config.n_rx * config.n_tx * config.n_freq
    if len(geometry) >= dim:
        raise ValueError(f"{len(geometry)} paths >= signal space dimension {dim}")
    if response.config != config:
        raise ValueError("response and config disagree")
    atoms = _geometry_atoms(geometry, config)
    return _solve(_dictionary_gram(*atoms), _matched_filter(response.values, *atoms))


def ls_amplitudes(
    response: FrequencyResponse,
    geometry: list[tuple[float, float, float]],
    config: SounderConfig,
) -> np.ndarray:
    """Least-squares complex amplitudes for fixed path geometries.

    Solves the normal equations (A^H A) alpha = A^H h where column k of A is
    the space-frequency vector of a unit path at geometry (delay, aod, aoa).
    Neither A nor its columns are materialized: the Gram matrix is the
    elementwise product of the per-axis Grams of the geometries' steering
    matrices, built once, and the right-hand side is their matched filter.

    Raises
    ------
    ValueError
        If the geometry list is empty or a delay, AoD or AoA is not finite
        (the error names the geometry index and field).
    DegenerateGeometryError
        If the Gram condition estimate exceeds ``GRAM_CONDITION_LIMIT``; the
        error names the most nearly duplicate geometry pairs.
    """
    return _ls_solve(response, geometry, config)[0]


def ls_condition(
    geometry: list[tuple[float, float, float]], config: SounderConfig
) -> float:
    "Condition number of the dictionary Gram matrix; validates like ``ls_amplitudes``."
    return _gram_condition(_dictionary_gram(*_geometry_atoms(geometry, config)))


def _dedup_solve(solve, n: int) -> tuple[np.ndarray, float, list[int], int]:
    """``solve(kept)``, an LS solve of the kept ones of ``n`` columns, that
    drops later near-duplicate columns until well posed.

    Returns (amplitudes, condition, kept original indices, dropped count).
    """
    kept = list(range(n))
    while True:
        try:
            return (*solve(kept), kept, n - len(kept))
        except DegenerateGeometryError as err:
            if len(kept) == 1:
                raise
            a, b, coh = err.pairs[0]
            logger.info("dropping near-duplicate LS candidate %d (coherence %.6f "
                        "with %d)", kept[max(a, b)], coh, kept[min(a, b)])
            del kept[max(a, b)]


def _ls_with_dedup(
    response: FrequencyResponse,
    geometry: list[tuple[float, float, float]],
    config: SounderConfig,
) -> tuple[np.ndarray, float, list[int], int]:
    "``_dedup_solve`` of ``_ls_solve`` on the kept geometries."
    return _dedup_solve(lambda kept: _ls_solve(
        response, [geometry[i] for i in kept], config), len(geometry))


def greedy_ls(
    response: FrequencyResponse,
    config: SounderConfig,
    xcfg: ExtractionConfig,
) -> tuple[list[PathParams], ExtractionTrace]:
    """Greedy matching pursuit with in-loop LS amplitude refitting.

    Outer loop, repeated until ``k_dom`` paths are committed or the residual
    power ratio falls below ``residual_stop``:

    1. pick ``k_g`` candidate peaks on the residual grid
       (``beamspace._PendingPicks``): each is a read-only ``tentative_peak``
       of the grid minus the pending commits and the candidates so far (raw
       CLEAN subtraction), over the rows a bound on those footprints keeps.
       A full ``peak_sweep`` writes the pending commits into the grid first,
       at the start and when 16 are pending or the bound keeps over 5% of
       the rows;
    2. LS-refit the candidates' amplitudes against the residual (degenerate
       ones are dropped, later one first).  No residual is kept: the
       right-hand side is A^H r = A^H h - G g (Batch-OMP), the matched
       filter of the measurement minus the cross-Gram with the commits
       times their gains;
    3. commit the ``k_up`` candidates with the largest refitted power, each
       at the exactly optimal single-path amplitude for the residual: its
       right-hand side entry over n_rx*n_tx*n_freq, the entries updated by
       ``-gram[:, c] * alpha`` after each commit.  The residual power falls
       by n_rx*n_tx*n_freq*|alpha|^2 (clamped at 0), so it never increases.

    If ``final_global_ls`` is set, one LS refit of all committed geometries
    against the original measurement replaces the committed amplitudes at the
    end (of duplicate geometries, the later one is dropped).
    With ``refine_peaks``, candidate coordinates are nudged off-grid by
    per-axis quadratic interpolation around each detected peak; estimates
    are grid-quantized otherwise.

    Returns the committed paths in commit order plus an
    :class:`ExtractionTrace` with residual power after each commit, the
    number of full grid sweeps and the reason the loop stopped.
    """
    if response.config != config:
        raise ValueError("response and config disagree")
    cfg = config
    values = response.values
    trace = ExtractionTrace(initial_power=float(np.vdot(values, values).real))
    if trace.initial_power == 0:
        trace.stop_reason = "exhausted"
        return [], trace

    picks = _PendingPicks(beamspace_transform(response, xcfg.grid),
                          xcfg.refine_peaks, xcfg.k_g)
    # steering columns and gains of the commits, in commit order
    done = tuple(np.empty((n, xcfg.k_dom), dtype=complex)
                 for n in (cfg.n_rx, cfg.n_tx, cfg.n_freq))
    gains = np.empty(xcfg.k_dom, dtype=complex)
    committed: list[PathParams] = []
    power = trace.initial_power

    trace.stop_reason = "k_dom"
    while len(committed) < xcfg.k_dom:
        if power / trace.initial_power <= xcfg.residual_stop:
            trace.stop_reason = "residual_stop"
            break

        # step 1: k_g peak picks on the grid minus the pending commits
        candidates = picks.candidates()
        if not candidates:
            trace.stop_reason = "exhausted"
            break

        # step 2: joint LS against the residual, from the atoms alone
        k = len(committed)
        if len(candidates) >= values.size:
            raise ValueError(f"{len(candidates)} paths >= signal space dimension "
                             f"{values.size}")
        atoms = _steering_matrices(cfg, *zip(*((c.delay, c.aod, c.aoa)
                                                for c in candidates)))
        gram = _dictionary_gram(*atoms)
        rhs = _matched_filter(values, *atoms) - _dictionary_gram(
            *atoms, other=tuple(d[:, :k] for d in done)) @ gains[:k]
        amps, cond, kept, dropped = _dedup_solve(
            lambda keep: _solve(gram[np.ix_(keep, keep)], rhs[keep]), len(rhs))
        trace.ls_condition.append(cond)
        trace.dropped_duplicates += dropped
        order = np.argsort(-np.abs(amps) ** 2, kind="stable")

        # step 3: commit the strongest k_up with exact per-commit amplitudes
        n_commit = min(xcfg.k_up, xcfg.k_dom - len(committed), len(kept))
        for rank in range(n_commit):
            c = kept[int(order[rank])]
            alpha = complex(rhs[c]) / values.size
            rhs -= gram[:, c] * alpha
            power = max(power - values.size * abs(alpha) ** 2, 0.0)
            for d, a in zip(done, atoms):
                d[:, k] = a[:, c]
            gains[k] = alpha
            k += 1
            picks.commit(c, alpha)
            cand = candidates[c]
            committed.append(PathParams(gain=alpha, delay=cand.delay,
                                        aod=cand.aod, aoa=cand.aoa))
            trace.residual_power.append(power)
            trace.committed_gain_power.append(abs(alpha) ** 2)

    trace.full_sweeps = picks.sweeps
    if xcfg.final_global_ls and committed:
        committed = _global_refit(response, committed, cfg, trace)
    return committed, trace


def _global_refit(
    response: FrequencyResponse,
    paths: list[PathParams],
    config: SounderConfig,
    trace: ExtractionTrace,
) -> list[PathParams]:
    """Refit all committed amplitudes jointly against the original measurement;
    a later near or exact duplicate geometry is dropped by ``_ls_with_dedup``."""
    geometry = [(p.delay, p.aod, p.aoa) for p in paths]
    amps, cond, kept, dropped = _ls_with_dedup(response, geometry, config)
    trace.ls_condition.append(cond)
    trace.dropped_duplicates += dropped
    return [replace(paths[i], gain=complex(a)) for a, i in zip(amps, kept)]


def reconstruct(paths: list[PathParams], config: SounderConfig) -> FrequencyResponse:
    "Frequency response of an estimated path set (same formula as synthesis)."
    return synthesize_response(config, paths)


def reconstruction_error(estimate: FrequencyResponse, truth: FrequencyResponse) -> float:
    """Normalized mean-square reconstruction error.

    Squared Frobenius deviation summed over the frequency grid, divided by
    the total squared Frobenius norm of the truth (0 for a perfect match,
    1 for an all-zero estimate).
    """
    if estimate.values.shape != truth.values.shape:
        raise ValueError("estimate and truth shapes differ")
    denom = truth.power
    if denom == 0:
        raise ValueError("truth response has zero power")
    return float(np.sum(np.abs(estimate.values - truth.values) ** 2)) / denom


def sage_refine(
    response: FrequencyResponse,
    paths: list[PathParams],
    config: SounderConfig,
    spec: GridSpec,
    sweeps: int,
) -> tuple[list[PathParams], list[float]]:
    """Path-wise expectation-maximization refinement of existing estimates.

    Each sweep revisits every path k: the measurement minus all other current
    path responses isolates path k plus residual (E-step); its beamspace peak
    re-estimates the geometry and the peak value re-estimates the amplitude
    (M-step, full-grid search).  Returns the refined paths and the normalized
    reconstruction error after each sweep; for grid-quantized inputs the
    error sequence is non-increasing.

    The E-step runs on one residual beamspace grid, transformed once: by
    linearity, the transform of the isolated response is the residual grid
    plus path k's footprint, which the grid builds from its own lattice
    matrices.  Each path update is one in-place peak sweep that subtracts
    the previous update's new footprint and adds path k's old footprint
    back, so no sweep re-runs the transform and no per-path response is
    kept.
    """
    if not paths:
        raise ValueError("path list must be non-empty")
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    if response.config != config:
        raise ValueError("response and config disagree")
    current = list(paths)
    residual = FrequencyResponse(
        values=response.values - synthesize_response(config, current).values,
        config=config,
    )
    grid = beamspace_transform(residual, spec)
    errors: list[float] = []
    pending: list[PathParams] = []  # the last update, not yet subtracted
    for _ in range(sweeps):
        for k, old in enumerate(current):
            new = grid._pick(pending + [replace(old, gain=-old.gain)])
            pending = [new]
            current[k] = new
        errors.append(
            reconstruction_error(synthesize_response(config, current), response)
        )
    return current, errors
