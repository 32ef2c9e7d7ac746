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
    by each physical path's share of total physical power.
    """

    pairs: list[tuple[int, int, float]]
    unmatched_phys: list[int]
    unmatched_est: list[int]
    pre_pa_cost: float
    post_pa_cost: float
    bin_sets: BinSets

    @property
    def k_pa(self) -> int:
        return len(self.pairs)


def wrap_cycles(delta):
    "Wrap a cycle difference to the principal interval (-0.5, 0.5]."
    return delta - np.ceil(delta - 0.5)


def pairwise_cost(phys: PathParams, est: PathParams, res: ResolutionSpec) -> float:
    """Normalized squared geometric distance between two paths.

    Sum over delay, arrival angle, and departure angle of the squared error
    divided by the squared per-axis resolution.  Angle differences wrap to
    the principal interval.  Zero iff the geometries coincide (mod 1 in
    angle); one unit per axis that is off by exactly one resolution width.
    """
    d_tau = (phys.delay - est.delay) / res.delay_res
    d_aoa = wrap_cycles(phys.aoa - est.aoa) / res.aoa_res
    d_aod = wrap_cycles(phys.aod - est.aod) / res.aod_res
    return float(d_tau**2 + d_aoa**2 + d_aod**2)


def _cost_matrix(phys: list[PathParams], est: list[PathParams],
                 res: ResolutionSpec) -> np.ndarray:
    """``pairwise_cost`` of every (phys, est) pair as one n x m array.

    The same formula evaluated by broadcasting, operation for operation, so
    every entry equals the scalar ``pairwise_cost`` bit for bit.
    """
    p = np.array([(q.delay, q.aoa, q.aod) for q in phys])[:, None, :]
    e = np.array([(q.delay, q.aoa, q.aod) for q in est])[None, :, :]
    d_tau = (p[..., 0] - e[..., 0]) / res.delay_res
    d_aoa = wrap_cycles(p[..., 1] - e[..., 1]) / res.aoa_res
    d_aod = wrap_cycles(p[..., 2] - e[..., 2]) / res.aod_res
    return d_tau**2 + d_aoa**2 + d_aod**2


def _lap_square(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost perfect matching on a square cost matrix.

    Jonker-Volgenant style shortest augmenting path with dual potentials;
    one augmentation per row, each inner scan vectorized over columns.
    Returns col4row: col4row[i] is the column assigned to row i.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    # p[j] = row matched to column j, 1-based; p[0] tracks the row being inserted
    p = np.zeros(n + 1, dtype=np.intp)
    way = np.zeros(n + 1, dtype=np.intp)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
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
    for j in range(1, n + 1):
        if p[j] != 0:
            col4row[p[j] - 1] = j - 1
    return col4row


def assign(cost_matrix: np.ndarray, unmatched_cost: float) -> Assignment:
    """Rectangular assignment with a per-element cost for leaving unmatched.

    Minimizes sum of matched costs plus ``unmatched_cost`` times the number
    of unmatched rows plus unmatched columns, via the standard dummy
    augmentation: the n x m matrix is embedded in an (n+m) square matrix
    whose diagonal dummy blocks carry ``unmatched_cost`` and whose lower
    right block is free.  A row-column pair is therefore matched only when
    that lowers the total, i.e. roughly when its cost beats 2x the unmatched
    cost.  An empty matrix yields an empty pair list.
    """
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    if cost.size and (not np.all(np.isfinite(cost)) or cost.min() < 0):
        raise ValueError("costs must be finite and nonnegative")
    if unmatched_cost <= 0:
        raise ValueError("unmatched_cost must be > 0")
    n, m = cost.shape
    if n == 0 or m == 0:
        return Assignment(pairs=[], unmatched_rows=list(range(n)),
                          unmatched_cols=list(range(m)),
                          total_cost=unmatched_cost * (n + m))

    top = cost.max() if cost.size else 0.0
    big = (n + m) * unmatched_cost + max(top, unmatched_cost) + 1.0
    padded = np.full((n + m, n + m), big)
    padded[:n, :m] = cost
    padded[np.arange(n), m + np.arange(n)] = unmatched_cost
    padded[n + np.arange(m), np.arange(m)] = unmatched_cost
    padded[n:, m:] = 0.0

    col4row = _lap_square(padded)
    pairs = [(i, int(col4row[i])) for i in range(n) if col4row[i] < m]
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
    intersection of the three.
    """
    if not phys or not est:
        raise ValueError("phys and est path lists must be non-empty")
    matrix = _cost_matrix(phys, est, res)
    solution = assign(matrix, unmatched_cost)

    total_phys_power = float(sum(p.power for p in phys))
    weight = [p.power / total_phys_power for p in phys]

    pairs = [(i, j, float(matrix[i, j])) for i, j in solution.pairs]
    post = float(sum(weight[i] * c for i, _, c in pairs))

    k_pa = len(pairs)
    phys_rank = _power_order(phys)
    est_rank = _power_order(est)
    pre = 0.0
    for r in range(k_pa):
        i, j = phys_rank[r], est_rank[r]
        pre += weight[i] * float(matrix[i, j])

    in_delay, in_aoa, in_aod = set(), set(), set()
    for i, j, _ in pairs:
        p, q = phys[i], est[j]
        if abs(p.delay - q.delay) <= res.delay_res:
            in_delay.add(i)
        if abs(wrap_cycles(p.aoa - q.aoa)) <= res.aoa_res:
            in_aoa.add(i)
        if abs(wrap_cycles(p.aod - q.aod)) <= res.aod_res:
            in_aod.add(i)
    bin_sets = BinSets(
        delay=frozenset(in_delay),
        aoa=frozenset(in_aoa),
        aod=frozenset(in_aod),
        joint=frozenset(in_delay & in_aoa & in_aod),
    )
    return AssociationResult(
        pairs=pairs,
        unmatched_phys=solution.unmatched_rows,
        unmatched_est=solution.unmatched_cols,
        pre_pa_cost=pre,
        post_pa_cost=post,
        bin_sets=bin_sets,
    )
