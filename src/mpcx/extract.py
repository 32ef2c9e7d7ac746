"""Multipath component extraction.

Implements greedy matching pursuit on the oversampled beamspace grid, a
driver that interleaves peak picking with least-squares amplitude refitting
on a commit schedule, and a path-wise expectation-maximization refinement
pass.  All estimators are deterministic functions of their inputs.

The LS fits of lattice paths never touch the measurement: their Gram is
gathered off the grid's offset kernels and their right-hand side A^H h is
N times the residual grid at the paths plus the Gram times the committed
gains (N = n_rx*n_tx*n_freq), in every greedy-LS iteration and in the
global refit (``_lattice_normal_equations``).  They are solved in the real
frame: a lattice Gram is ``G = diag(phase) R diag(phase)^H`` with ``R``
real symmetric (``BeamspaceGrid._lattice_gram``), so the condition and the
solve run on ``R``, with the right-hand side times ``phase^H``, and the
solution times ``phase`` is the amplitudes.  Off-lattice geometry
(``refine_peaks``, ``ls_amplitudes``) builds its complex normal equations
from steering matrices and the matched filter (``_normal_equations``).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .beamspace import GridSpec, _PendingFootprints
from .sounder import (
    FrequencyResponse,
    PathParams,
    SounderConfig,
    _matched_filter,
    _positive_int,
    _steering_matrices,
    _sum_squares,
    synthesize_response,
)

logger = logging.getLogger(__name__)

# condition-number ceiling beyond which a dictionary Gram matrix is treated
# as numerically singular
GRAM_CONDITION_LIMIT = 1e12

# share of the initial power below which greedy-LS sums the residual power
# from a residual tensor.  The running difference initial - N*sum|alpha|^2 is
# exact only to a few ulps of the initial power (about 1e-15 of it): under
# 1e-11 of a residual above this floor, but 1e-8 of one at 1e-7 of it
_RUNNING_POWER_FLOOR = 1e-4


# column pairs that ``_coherence_pairs`` keeps and a DegenerateGeometryError names
_REPORTED_PAIRS = 5


class DegenerateGeometryError(ValueError):
    """Raised when LS geometry columns are too close to linearly dependent.

    ``pairs`` holds (index_a, index_b, coherence) triples for the most nearly
    duplicate column pairs, most coherent first; the message names the
    first ``_REPORTED_PAIRS``.
    """

    def __init__(self, condition: float, pairs: list[tuple[int, int, float]]):
        self.condition = condition
        self.pairs = pairs
        detail = ", ".join(f"({a},{b}) coherence {c:.6f}"
                           for a, b, c in pairs[:_REPORTED_PAIRS])
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
        for name in ("k_dom", "k_g", "k_up"):
            _positive_int(name, getattr(self, name))
        if not self.k_up <= self.k_g:
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
    # grid passes, the transform's included; the other picks were tentative
    full_sweeps: int = 0
    # wall seconds of those passes: telemetry, which no artifact but
    # timings.json holds
    grid_pass_s: float = 0.0
    stop_reason: str = ""  # "k_dom", "residual_stop" or "exhausted" (nothing to pick)


def greedy_extract(
    response: FrequencyResponse, spec: GridSpec, count: int
) -> list[PathParams]:
    """Plain greedy matching pursuit (iterative peak subtraction).

    Repeats ``count`` times: locate the strongest beamspace peak, record its
    grid coordinates and complex value as a path estimate, subtract that
    path's beamspace footprint, continue on the residual grid.
    Returns the estimates in detection order; stops early only if the
    residual becomes exactly zero.  This is ``greedy_ls`` with one
    candidate per iteration, no residual stop and no global refit: a lone
    candidate's LS right-hand side is N times its peak value, so each commit
    is that value (to an ulp of the division by N).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return greedy_ls(response, response.config, ExtractionConfig(
        k_dom=count, k_g=1, k_up=1, grid=spec, residual_stop=0.0,
        final_global_ls=False))[0]


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
    """The ``_REPORTED_PAIRS`` column pairs (a, b), a < b, of highest
    normalized coherence, most coherent first and ties in (a, b) order: one
    stable sort of the upper triangle."""
    norm = np.sqrt(np.abs(np.diag(gram)))
    a, b = np.triu_indices(len(gram), 1)
    coh = np.abs(gram[a, b]) / (norm[a] * norm[b])
    top = np.argsort(-coh, kind="stable")[:_REPORTED_PAIRS]
    return [(int(a[t]), int(b[t]), float(coh[t])) for t in top]


def _gram_condition(gram: np.ndarray) -> float:
    "Condition number of a Hermitian Gram matrix from its eigenvalues; inf if singular."
    eig = np.abs(np.linalg.eigvalsh(gram))
    with np.errstate(divide="ignore"):
        return float(eig.max() / eig.min())


def _solve(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solution of ``gram @ x = rhs`` and the Gram condition number, from its
    eigenvalues; DegenerateGeometryError if that exceeds the limit.  A real
    Gram (the lattice frame of ``BeamspaceGrid._lattice_gram``) with a
    complex right-hand side is solved as one real system of two columns."""
    condition = _gram_condition(gram)
    if not np.isfinite(condition) or condition > GRAM_CONDITION_LIMIT:
        raise DegenerateGeometryError(condition, _coherence_pairs(gram))
    if np.iscomplexobj(gram) or not np.iscomplexobj(rhs):
        return np.linalg.solve(gram, rhs), condition
    parts = np.linalg.solve(gram, np.stack((rhs.real, rhs.imag), axis=1))
    return parts[:, 0] + 1j * parts[:, 1], condition


def _normal_equations(
    response: FrequencyResponse,
    geometry: list[tuple[float, float, float]],
    config: SounderConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix A^H A and right-hand side A^H h of the LS fit of
    ``response`` on the atoms of (delay, aod, aoa) geometries, from one set
    of ``_steering_matrices``.  ValueError for as many paths as the signal
    space dimension, a response of another config, an empty list or a
    value that is not finite (naming the geometry index and field)."""
    dim = config.n_rx * config.n_tx * config.n_freq
    if len(geometry) >= dim:
        raise ValueError(f"{len(geometry)} paths >= signal space dimension {dim}")
    if response.config != config:
        raise ValueError("response and config disagree")
    if not geometry:
        raise ValueError("geometry list must be non-empty")
    for k, g in enumerate(geometry):
        for name, value in zip(("delay", "aod", "aoa"), g):
            if not math.isfinite(value):
                raise ValueError(f"geometry {k} {name} {value} must be finite")
    atoms = _steering_matrices(config, *zip(*geometry))
    return _dictionary_gram(*atoms), _matched_filter(response.values, *atoms)


def _lattice_normal_equations(picks: _PendingFootprints, paths: list[PathParams],
                              at: tuple[np.ndarray, np.ndarray, np.ndarray],
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_normal_equations`` of lattice commits ``paths`` at the indices
    ``at``, whose footprints at their gains ``g`` ``picks`` has subtracted
    or holds pending, without a pass over the measurement, in the real
    frame: ``(R, rhs, phase)`` with the Gram ``G = diag(phase) R
    diag(phase)^H`` gathered off the grid's offset kernels
    (``_lattice_gram``) and ``rhs = phase^H A^H h``, whose solution times
    ``phase`` is the amplitudes.  A^H h = N v + G g, where v is the residual
    grid at the commits (``residual_at``), which is A^H r / N on the lattice
    (N = n_rx*n_tx*n_freq), so ``rhs = N phase^H v + R (phase^H g)``.
    ValueError for as many paths as N."""
    config = picks.grid.config
    dim = config.n_rx * config.n_tx * config.n_freq
    if len(paths) >= dim:
        raise ValueError(f"{len(paths)} paths >= signal space dimension {dim}")
    gram, phase = picks.grid._lattice_gram(at)
    rhs = dim * picks.residual_at(*at) * phase.conj()
    gains = np.array([p.gain for p in paths], dtype=complex) * phase.conj()
    # R times the real and the imaginary parts: a complex product would cast
    # R to a complex copy
    rhs += gram @ gains.real + 1j * (gram @ gains.imag)
    return gram, rhs, phase


def ls_amplitudes(
    response: FrequencyResponse,
    geometry: list[tuple[float, float, float]],
    config: SounderConfig,
) -> np.ndarray:
    """Least-squares complex amplitudes for fixed path geometries.

    Solves the normal equations (A^H A) alpha = A^H h where column k of A is
    the space-frequency vector of a unit path at geometry (delay, aod, aoa).
    Neither A nor its columns are materialized (``_normal_equations``): the
    Gram matrix is the elementwise product of the per-axis Grams of the
    geometries' steering matrices, built once, and the right-hand side is
    their matched filter.

    Raises
    ------
    ValueError
        If the geometry list is empty or a delay, AoD or AoA is not finite
        (the error names the geometry index and field).
    DegenerateGeometryError
        If the Gram condition estimate exceeds ``GRAM_CONDITION_LIMIT``; the
        error names the most nearly duplicate geometry pairs.
    """
    return _solve(*_normal_equations(response, geometry, config))[0]


def _dedup_solve(gram: np.ndarray,
                 rhs: np.ndarray) -> tuple[np.ndarray, float, list[int], int]:
    """``_solve`` of the normal equations ``gram @ x = rhs``, dropping the
    later column of the most coherent pair until well posed: its row and
    column leave copies of ``gram`` and ``rhs``, so a solve that drops
    nothing copies nothing.

    Returns (amplitudes, condition, kept original indices, dropped count).
    """
    n, kept = len(rhs), list(range(len(rhs)))
    while True:
        try:
            return (*_solve(gram, rhs), kept, n - len(kept))
        except DegenerateGeometryError as err:
            if len(kept) == 1:
                raise
            a, b, coh = err.pairs[0]  # a < b
            logger.info("dropping near-duplicate LS candidate %d (coherence %.6f "
                        "with %d)", kept[b], coh, kept[a])
            del kept[b]
            gram, rhs = np.delete(np.delete(gram, b, 0), b, 1), np.delete(rhs, b)


def greedy_ls(
    response: FrequencyResponse,
    config: SounderConfig,
    xcfg: ExtractionConfig,
) -> tuple[list[PathParams], ExtractionTrace]:
    """Greedy matching pursuit with in-loop LS amplitude refitting.

    Outer loop, repeated until ``k_dom`` paths are committed or the residual
    power ratio falls below ``residual_stop``:

    1. pick ``k_g`` candidate peaks on the residual grid (``_candidates``):
       each is a read-only ``tentative_peak`` of the grid minus the pending
       commits and the candidates so far (raw CLEAN subtraction), which the
       picker holds until the next commit, over the rows a bound on those
       footprints keeps.  The transform records the first row peaks; a full
       ``peak_sweep`` writes the pending commits into the grid before the
       first pick when 16 are pending or the bound keeps over 5% of the
       rows.  A lattice pick's footprint is read off the grid's offset
       kernels; with ``refine_peaks`` each pick's steering columns are built
       once there;
    2. LS-refit the candidates' amplitudes against the residual (degenerate
       ones are dropped, later one first), with their Gram gathered off the
       offset kernels in the real frame (``diag(phase) R diag(phase)^H``,
       solved for phase^H times the amplitudes), or with ``refine_peaks``
       that of their steering columns.  No residual response is kept.
       The grid is the transform A^H / N of the residual (N =
       n_rx*n_tx*n_freq), so on the lattice the right-hand side A^H r is
       read off it: N times each candidate's value plus the earlier
       candidates' values times their Gram entries with it (the candidate's
       value lacks their footprints).  With ``refine_peaks`` the picks are
       off the lattice and the right-hand side is the Batch-OMP identity
       A^H r = A^H h - G g: the matched filter of the measurement minus the
       cross-Gram with the commits (their kept steering columns) times
       their gains;
    3. commit the ``k_up`` candidates with the largest refitted power, each
       at the exactly optimal single-path amplitude for the residual: its
       right-hand side entry over n_rx*n_tx*n_freq (times its phase on the
       lattice), the entries updated by ``-gram[:, c]`` times that quotient
       after each commit.  The residual power falls
       by n_rx*n_tx*n_freq*|alpha|^2 (clamped at 0), so it never increases;
       once it is below ``_RUNNING_POWER_FLOOR`` of the initial power, where
       that running difference keeps too few digits, it is the power of the
       measurement minus the synthesized commits, a residual tensor kept from
       there on.

    If ``final_global_ls`` is set, one LS refit of all committed geometries
    against the original measurement replaces the committed amplitudes at the
    end (of duplicate geometries, the later one is dropped).  When every
    commit is a lattice point its normal equations come off the picker
    (``_lattice_normal_equations``), with no matched filter.
    With ``refine_peaks``, candidate coordinates are nudged off-grid by
    per-axis quadratic interpolation around each detected peak; estimates
    are grid-quantized otherwise.

    Returns the committed paths in commit order plus an
    :class:`ExtractionTrace` with residual power after each commit, the
    number of grid passes (the transform's and the full sweeps) and the
    reason the loop stopped.
    """
    if response.config != config:
        raise ValueError("response and config disagree")
    cfg = config
    values = response.values
    trace = ExtractionTrace(initial_power=response.power)
    if trace.initial_power == 0:
        trace.stop_reason = "exhausted"
        return [], trace

    picks = _PendingFootprints(response, xcfg.grid, xcfg.k_g)
    if xcfg.refine_peaks:
        # steering columns and gains of the commits, in commit order
        done = tuple(np.empty((n, xcfg.k_dom), dtype=complex)
                     for n in (cfg.n_rx, cfg.n_tx, cfg.n_freq))
        gains = np.empty(xcfg.k_dom, dtype=complex)
    committed: list[PathParams] = []
    power = trace.initial_power
    residual = None

    trace.stop_reason = "k_dom"
    while len(committed) < xcfg.k_dom:
        if power / trace.initial_power <= xcfg.residual_stop:
            trace.stop_reason = "residual_stop"
            break

        # step 1: k_g peak picks on the grid minus the pending commits
        candidates, units, atoms = _candidates(picks, xcfg.k_g, xcfg.refine_peaks)
        if not candidates:
            trace.stop_reason = "exhausted"
            break

        # step 2: joint LS against the residual, from the picks' atoms alone
        if len(candidates) >= values.size:
            raise ValueError(f"{len(candidates)} paths >= signal space dimension "
                             f"{values.size}")
        if xcfg.refine_peaks:
            gram, phase = _dictionary_gram(*atoms), None
            k = len(committed)
            rhs = _matched_filter(values, *atoms) - _dictionary_gram(
                *atoms, other=tuple(d[:, :k] for d in done)) @ gains[:k]
        else:
            # in the real frame: the Gram is diag(phase) R diag(phase)^H and
            # the system is solved for phase^H times the amplitudes
            gram, phase = picks.grid._lattice_gram(
                picks.grid._lattice_indices(candidates))
            # N times the residual grid at a lattice pick is its A^H r, and a
            # candidate's value lacks the earlier candidates' footprints there
            vals = np.array([c.gain for c in candidates]) * phase.conj()
            rhs = values.size * vals + np.tril(gram, -1) @ vals
        amps, cond, kept, dropped = _dedup_solve(gram, rhs)
        trace.ls_condition.append(cond)
        trace.dropped_duplicates += dropped
        order = np.argsort(-np.abs(amps) ** 2, kind="stable")

        # step 3: commit the strongest k_up with exact per-commit amplitudes
        n_commit = min(xcfg.k_up, xcfg.k_dom - len(committed), len(kept))
        for rank in range(n_commit):
            c = kept[int(order[rank])]
            alpha = complex(rhs[c]) / values.size
            rhs -= gram[:, c] * alpha
            if phase is not None:
                alpha *= complex(phase[c])
            power = max(power - values.size * abs(alpha) ** 2, 0.0)
            if xcfg.refine_peaks:
                for d, a in zip(done, atoms):
                    d[:, len(committed)] = a[:, c]
                gains[len(committed)] = alpha
            picks.append(units[c], alpha)
            committed.append(replace(candidates[c], gain=alpha))
            if residual is not None:
                residual -= synthesize_response(cfg, committed[-1:]).values
            elif power < _RUNNING_POWER_FLOOR * trace.initial_power:
                residual = values - synthesize_response(cfg, committed).values
            if residual is not None:
                power = _sum_squares(residual)
            trace.residual_power.append(power)
            trace.committed_gain_power.append(abs(alpha) ** 2)

    trace.full_sweeps, trace.grid_pass_s = picks.sweeps, picks.pass_s
    if xcfg.final_global_ls and committed:
        committed = _global_refit(response, committed, cfg, trace, picks)
    return committed, trace


def _candidates(picks: _PendingFootprints, k_g: int, refine: bool,
                ) -> tuple[list[PathParams], list, tuple[np.ndarray, ...] | None]:
    """Up to ``k_g`` picks of greedy-LS on the grid minus the pending commits
    and the picks so far, each held on ``picks`` until the next commit,
    ending before the first zero peak: the picks, their unit footprints and,
    with ``refine``, their ``_steering_matrices``, also of a pick that lands
    on the lattice (None without: every pick is a lattice point)."""
    found, units, atoms = [], [], []
    while len(found) < k_g:
        peak = picks.pick(refine)
        if peak.gain == 0:
            break
        unit = picks.unit(peak)
        if refine:
            atoms.append(_steering_matrices(picks.grid.config, [peak.delay],
                                            [peak.aod], [peak.aoa]))
        picks.hold(unit, peak.gain)
        found.append(peak)
        units.append(unit)
    if not refine:
        return found, units, None
    return found, units, tuple(np.concatenate(axis, axis=1) for axis in zip(*atoms))


def _global_refit(
    response: FrequencyResponse,
    paths: list[PathParams],
    config: SounderConfig,
    trace: ExtractionTrace,
    picks: _PendingFootprints | None = None,
) -> list[PathParams]:
    """Refit all committed amplitudes jointly against the original measurement;
    a later near or exact duplicate geometry is dropped by ``_dedup_solve``
    from the normal equations of all of them, built once.  With the picker
    that committed them, and every commit on its grid's lattice, those are
    ``_lattice_normal_equations``; otherwise ``_normal_equations``."""
    at = None if picks is None else picks.grid._lattice_indices(paths)
    if at is None:
        gram, rhs = _normal_equations(
            response, [(p.delay, p.aod, p.aoa) for p in paths], config)
        phase = None
    else:
        gram, rhs, phase = _lattice_normal_equations(picks, paths, at)
    amps, cond, kept, dropped = _dedup_solve(gram, rhs)
    if phase is not None:
        amps = amps * phase[kept]
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
    return _sum_squares(estimate.values - truth.values) / denom


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
    plus path k's footprint, built from the grid's own lattice matrices.
    The footprints stay pending on greedy-LS's picker
    (``beamspace._PendingFootprints``): each update adds path k's old
    footprint back as a pending column and picks the peak of the grid minus
    the pending footprints, floored by the exact value at path k's old
    lattice point.  A new path at the old geometry rewrites that column to
    gain g_new - g_old unless a sweep wrote it; any other is appended.  No
    update re-runs the transform and no per-path response is kept.
    """
    return _sage_refine(response, paths, config, spec, sweeps)[:2]


def _sage_refine(response: FrequencyResponse, paths: list[PathParams],
                 config: SounderConfig, spec: GridSpec,
                 sweeps: int) -> tuple[list[PathParams], list[float], int, float, float]:
    """``sage_refine``, the grid passes of its picker, the transform's
    included, their wall seconds, and the call's own wall seconds."""
    start = time.perf_counter()
    if not paths:
        raise ValueError("path list must be non-empty")
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    if response.config != config:
        raise ValueError("response and config disagree")
    current = list(paths)
    picks = _PendingFootprints(FrequencyResponse(
        response.values - synthesize_response(config, current).values, config),
        spec, 1)
    errors: list[float] = []
    for _ in range(sweeps):
        for k, old in enumerate(current):
            unit = picks.unit(old)
            back = picks.append(unit, -old.gain)
            new = picks.pick(near=old)
            same = (new.delay, new.aod, new.aoa) == (old.delay, old.aod, old.aoa)
            if same and picks.pending:  # not swept: the add-back column is pending
                picks.put(back, unit, new.gain - old.gain)
            else:
                picks.append(unit if same else picks.unit(new), new.gain)
            current[k] = new
        errors.append(reconstruction_error(synthesize_response(config, current),
                                           response))
    return current, errors, picks.sweeps, picks.pass_s, time.perf_counter() - start
