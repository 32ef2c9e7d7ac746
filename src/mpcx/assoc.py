"""Ground-truth association and scoring of extracted paths.

Pairs estimated paths with physical (ground-truth) paths by minimum
normalized geometric cost, using a rectangular assignment solver with an
adjustable per-element unmatched cost, then reports power-weighted cost
totals and resolution-bin membership sets over the matched pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sounder import PathParams, SounderConfig


@dataclass(frozen=True)
class ResolutionSpec:
    """Per-axis resolution widths used to normalize association costs."""

    delay_res: float
    aoa_res: float
    aod_res: float

    def __post_init__(self):
        if self.delay_res <= 0 or self.aoa_res <= 0 or self.aod_res <= 0:
            raise ValueError("resolutions must be strictly positive")

    @classmethod
    def from_config(cls, config: SounderConfig) -> "ResolutionSpec":
        return cls(delay_res=config.delay_res, aoa_res=config.aoa_res,
                   aod_res=config.aod_res)


@dataclass(frozen=True)
class BinSets:
    """Indices of matched physical paths whose error is within one bin.

    ``joint`` is exactly the intersection of the three per-axis sets.
    """

    delay: frozenset[int]
    aoa: frozenset[int]
    aod: frozenset[int]
    joint: frozenset[int]


@dataclass(frozen=True)
class Assignment:
    "Output of the rectangular assignment solver."

    pairs: list[tuple[int, int]]
    unmatched_rows: list[int]
    unmatched_cols: list[int]
    total_cost: float


@dataclass(frozen=True)
class AssociationResult:
    """Optimal truth-estimate pairing with cost totals and bin sets.

    ``pairs`` holds (phys_index, est_index, cost) triples sorted by physical
    index; every index appears in at most one pair.  Cost totals are weighted
    by each physical path's share of total physical power.  Row k of
    ``pair_errors`` is pair k's row of ``_axis_errors``.
    """

    pairs: list[tuple[int, int, float]]
    unmatched_phys: list[int]
    unmatched_est: list[int]
    pre_pa_cost: float
    post_pa_cost: float
    bin_sets: BinSets
    pair_errors: np.ndarray

    @property
    def k_pa(self) -> int:
        return len(self.pairs)


def wrap_cycles(delta):
    "Wrap a cycle difference to the principal interval (-0.5, 0.5]."
    return delta - np.ceil(delta - 0.5)


def _axis_errors(phys: list[PathParams], est: list[PathParams],
                 res: ResolutionSpec) -> np.ndarray:
    """Signed errors in resolution bins, n x m x 3: [i, j] is truth i minus
    estimate j in delay, AoA and AoD, angle differences wrapped.  The one
    error rule behind the costs, the bin sets and the pairs CSV."""
    delta = (np.array([(q.delay, q.aoa, q.aod) for q in phys])[:, None, :]
             - np.array([(q.delay, q.aoa, q.aod) for q in est]))
    delta[..., 1:] = wrap_cycles(delta[..., 1:])
    return delta / np.array([res.delay_res, res.aoa_res, res.aod_res])


def _cost_matrix(errors: np.ndarray) -> np.ndarray:
    "Costs of the pairs of an ``_axis_errors`` array: its squares summed per pair."
    return np.sum(errors ** 2, axis=-1)


def _lap(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment of every row of an n x m matrix, n <= m.

    Jonker-Volgenant style shortest augmenting path with dual potentials
    (Crouse, IEEE TAES 2016): one augmentation per row, each inner scan
    vectorized over columns.  An infinite entry forbids that pair; some
    assignment of every row must have a finite total.  Returns col4row:
    col4row[i] is the column assigned to row i.
    """
    n, m = cost.shape
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    # p[j] = row matched to column j, 1-based; p[0] tracks the row being inserted
    p = np.zeros(m + 1, dtype=np.intp)
    way = np.zeros(m + 1, dtype=np.intp)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            # shortest tentative distance among unvisited columns
            masked = np.where(free, minv[1:], np.inf)
            j1 = int(np.argmin(masked)) + 1
            delta = masked[j1 - 1]
            u[p[used]] += delta
            v[used] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        # walk the augmenting path backwards, flipping matches
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col4row = np.full(n, -1, dtype=np.intp)
    for j in range(1, m + 1):
        if p[j] != 0:
            col4row[p[j] - 1] = j - 1
    return col4row


def assign(cost_matrix: np.ndarray, unmatched_cost: float) -> Assignment:
    """Rectangular assignment with a per-element cost for leaving unmatched.

    Minimizes sum of matched costs plus ``unmatched_cost`` (u) times the
    number of unmatched rows plus unmatched columns.  That objective equals
    u * (n + m) + sum over matched pairs of (c_ij - 2u), so it is solved
    exactly as one n x (m + n) assignment in which every row is assigned:
    columns 0..m-1 hold the costs, column m + i is row i's own opt-out at
    2u, and every other opt-out entry is infinite.  With n > m the same is
    solved for the transpose, so the short side is always the rows.  A
    row-column pair is therefore matched only when its cost is below 2u (at
    exactly 2u either choice is optimal).  Pairs are sorted by row and the
    unmatched lists ascend; an empty matrix yields an empty pair list.
    """
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    if cost.size and (not np.all(np.isfinite(cost)) or cost.min() < 0):
        raise ValueError("costs must be finite and nonnegative")
    if not (np.isfinite(unmatched_cost) and unmatched_cost > 0):
        raise ValueError(
            f"unmatched_cost must be finite and > 0, got {unmatched_cost!r}")
    n, m = cost.shape
    short = cost.T if n > m else cost
    k, l = short.shape
    opt_out = np.full((k, k), np.inf)
    np.fill_diagonal(opt_out, 2.0 * unmatched_cost)
    col4row = _lap(np.hstack([short, opt_out]))
    pairs = [(i, int(col4row[i])) for i in range(k) if col4row[i] < l]
    if n > m:
        pairs = sorted((i, j) for j, i in pairs)
    matched_rows = {i for i, _ in pairs}
    matched_cols = {j for _, j in pairs}
    unmatched_rows = [i for i in range(n) if i not in matched_rows]
    unmatched_cols = [j for j in range(m) if j not in matched_cols]
    total = float(sum(cost[i, j] for i, j in pairs))
    total += unmatched_cost * (len(unmatched_rows) + len(unmatched_cols))
    return Assignment(pairs=pairs, unmatched_rows=unmatched_rows,
                      unmatched_cols=unmatched_cols, total_cost=total)


def _power_order(paths: list[PathParams]) -> list[int]:
    "Indices sorted by descending power, original order breaking ties."
    powers = np.array([p.power for p in paths])
    return list(np.argsort(-powers, kind="stable"))


def associate(
    phys: list[PathParams],
    est: list[PathParams],
    res: ResolutionSpec,
    unmatched_cost: float = 3.0,
) -> AssociationResult:
    """Optimal pairing of estimated paths to ground truth, with scores.

    The assignment itself runs on the unweighted pairwise cost matrix.  The
    reported totals weight each matched pair's cost by the physical path's
    fraction of total physical power:

    - ``post_pa_cost``: weighted total over the optimal pairs;
    - ``pre_pa_cost``: the same weighted total for the naive rank-for-rank
      pairing of the two power-sorted lists, over the strongest K_pa paths
      of each (K_pa = number of optimal pairs).

    Bin sets contain the physical indices of matched pairs whose per-axis
    error is within (<=) one resolution width; the joint set is the exact
    intersection of the three.  Total physical power must be finite and > 0.
    """
    if not phys or not est:
        raise ValueError("phys and est path lists must be non-empty")
    total = float(sum(p.power for p in phys))
    if not 0 < total < np.inf:
        raise ValueError(f"physical paths' total power {total!r} must be finite and > 0")
    errors = _axis_errors(phys, est, res)
    matrix = _cost_matrix(errors)
    solution = assign(matrix, unmatched_cost)
    weight = [p.power / total for p in phys]

    pairs = [(i, j, float(matrix[i, j])) for i, j in solution.pairs]
    post = float(sum(weight[i] * c for i, _, c in pairs))

    ranked = zip(_power_order(phys)[:len(pairs)], _power_order(est))
    pre = float(sum(weight[i] * float(matrix[i, j]) for i, j in ranked))

    rows = [i for i, _ in solution.pairs]
    pair_errors = errors[rows, [j for _, j in solution.pairs]]
    in_delay, in_aoa, in_aod = (frozenset(i for i, ok in zip(rows, within) if ok)
                                for within in (np.abs(pair_errors) <= 1).T)
    bin_sets = BinSets(delay=in_delay, aoa=in_aoa, aod=in_aod,
                       joint=in_delay & in_aoa & in_aod)
    return AssociationResult(
        pairs=pairs,
        unmatched_phys=solution.unmatched_rows,
        unmatched_est=solution.unmatched_cols,
        pre_pa_cost=pre,
        post_pa_cost=post,
        bin_sets=bin_sets,
        pair_errors=pair_errors,
    )
