"""Hungarian (Kuhn–Munkres) assignment, implemented from scratch.

The paper's ST-PC analysis (Alg. 1, line 6) and its reward computation
(Eq. 1) both rely on minimum-cost bipartite matching between two sets of
bounding boxes.  This module provides:

* :func:`hungarian` — the O(n^3) potentials formulation of the Hungarian
  algorithm for dense rectangular cost matrices (rows <= columns handled
  by transposition), cross-validated against
  ``scipy.optimize.linear_sum_assignment`` in the test suite;
* :func:`match_with_threshold` — the detection-matching wrapper that
  discards assigned pairs whose cost exceeds a gating threshold, which is
  how tracking-by-detection avoids matching unrelated objects.

The matrices are small — per label between two sampled frames, a few
dozen cells on average and rarely past 31×31 — and there are many of
them, so per-element overhead decides the cost.  The solver converts
the matrix to nested Python lists once and runs the potentials loop on
lists: about 3× faster per call than the same loop indexing NumPy
scalars, while a NumPy-vectorised inner loop was slower still at these
sizes.  scipy's ``linear_sum_assignment`` is not used at run time:
importing ``scipy.optimize`` costs about 49 MiB of resident memory and
half a second per process, every serving worker would pay it, and its
tie-breaking among equal-cost optima can differ from the one pinned
here.  The tests keep it as the optimality oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hungarian", "match_with_threshold"]


def hungarian(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost assignment for a dense cost matrix.

    Parameters
    ----------
    cost:
        ``(n, m)`` array of finite costs.  Every row (if ``n <= m``) or
        every column (if ``n > m``) receives exactly one partner; the
        smaller side is matched completely.

    Returns
    -------
    list of ``(row, col)`` pairs sorted by row index.  The number of pairs
    is ``min(n, m)``.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a 2-D matrix, got shape {cost.shape}")
    n, m = cost.shape
    if n == 0 or m == 0:
        return []
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must contain only finite values")
    if n > m:
        return sorted((row, col) for col, row in _assign(cost.T))
    return _assign(cost)


def _assign(cost: np.ndarray) -> list[tuple[int, int]]:
    """Potentials solver for a validated ``(n, m)`` matrix with ``n <= m``.

    Kept apart from :func:`hungarian` so that a tall matrix, solved as
    its transpose, is validated (and seen by callers wrapping
    :func:`hungarian`) once.
    """
    n, m = cost.shape
    if n == 1:
        # Single row: the optimum is the cheapest column.  ``argmin``
        # returns the first minimum, matching the full algorithm's
        # strict-improvement tie-breaking.
        return [(0, int(np.argmin(cost[0])))]

    # Potentials formulation (1-indexed), after the classic e-maxx/CP
    # presentation.  u/v are the dual potentials, p[j] is the row matched
    # to column j (0 = unmatched), way[j] is the predecessor column on the
    # alternating path.  All of them are Python lists (see the module
    # docstring); the float64 arithmetic and its order are those of the
    # array version, so ties break the same way.
    rows = cost.tolist()
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)
    way = [0] * (m + 1)
    columns = range(1, m + 1)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row = rows[i0 - 1]
            u_i0 = u[i0]
            delta = inf
            j1 = 0
            for j in columns:
                if used[j]:
                    continue
                cur = row[j - 1] - u_i0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    return sorted((p[j] - 1, j - 1) for j in columns if p[j])


def match_with_threshold(
    cost: np.ndarray, max_cost: float | None = None
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Hungarian matching with optional cost gating.

    With ``max_cost`` set, entries above the gate (or non-finite — an
    explicit "cannot match" marker) are treated as infeasible *before*
    the assignment: rows/columns with no feasible partner are pruned,
    and the remaining infeasible entries are masked to a finite sentinel
    large enough that the optimum never prefers one over any feasible
    assignment.  Pairs landing on a sentinel are dropped afterwards.
    Returns ``(pairs, unmatched_rows, unmatched_cols)`` — the
    decomposition Alg. 1 needs to assign velocities to matched boxes and
    handle disappearing/appearing ones.
    """
    cost = np.asarray(cost, dtype=float)
    if max_cost is not None and cost.size:
        pairs = _gated_pairs(cost, float(max_cost))
    else:
        pairs = hungarian(cost)
    matched_rows = {i for i, _ in pairs}
    matched_cols = {j for _, j in pairs}
    unmatched_rows = [i for i in range(cost.shape[0]) if i not in matched_rows]
    unmatched_cols = [j for j in range(cost.shape[1]) if j not in matched_cols]
    return pairs, unmatched_rows, unmatched_cols


def _gated_pairs(cost: np.ndarray, max_cost: float) -> list[tuple[int, int]]:
    """Assignment pairs whose cost passes the gate, via sentinel masking."""
    feasible = np.isfinite(cost) & (cost <= max_cost)
    if not feasible.any():
        return []
    rows = np.flatnonzero(feasible.any(axis=1))
    cols = np.flatnonzero(feasible.any(axis=0))
    sub_feasible = feasible[np.ix_(rows, cols)]
    sub = cost[np.ix_(rows, cols)].copy()
    # A sentinel so large that swapping any feasible pair for a sentinel
    # pair always raises the total: one sentinel outweighs the span of
    # min(n, m) feasible entries.
    lo = float(sub[sub_feasible].min())
    span = abs(max_cost) + abs(lo) + 1.0
    sentinel = min(len(rows), len(cols)) * span + 1.0
    sub[~sub_feasible] = sentinel
    return sorted(
        (int(rows[i]), int(cols[j]))
        for i, j in hungarian(sub)
        if sub_feasible[i, j]
    )
