"""Unit tests for the from-scratch Hungarian implementation."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.geometry import hungarian, match_with_threshold


def optimal_cost(cost):
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].sum()


class TestHungarian:
    def test_single_cell(self):
        assert hungarian(np.array([[3.0]])) == [(0, 0)]

    def test_square_known_answer(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        pairs = hungarian(cost)
        assert sum(cost[i, j] for i, j in pairs) == pytest.approx(5.0)

    def test_identity_preference(self):
        cost = np.eye(4) * -1 + 1  # zeros on the diagonal
        assert hungarian(cost) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_rectangular_wide(self):
        cost = np.array([[10.0, 1.0, 10.0, 10.0], [1.0, 10.0, 10.0, 10.0]])
        pairs = hungarian(cost)
        assert len(pairs) == 2
        assert sum(cost[i, j] for i, j in pairs) == pytest.approx(2.0)

    def test_rectangular_tall(self):
        cost = np.array([[10.0, 1.0], [1.0, 10.0], [5.0, 5.0]])
        pairs = hungarian(cost)
        assert len(pairs) == 2
        assert sum(cost[i, j] for i, j in pairs) == pytest.approx(2.0)

    def test_empty_matrix(self):
        assert hungarian(np.zeros((0, 3))) == []
        assert hungarian(np.zeros((3, 0))) == []

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            hungarian(np.array([[1.0, np.inf]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            hungarian(np.zeros(3))

    def test_matches_scipy_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n, m = rng.integers(1, 12, size=2)
            cost = rng.normal(size=(n, m)) * 5
            pairs = hungarian(cost)
            assert len(pairs) == min(n, m)
            ours = sum(cost[i, j] for i, j in pairs)
            assert ours == pytest.approx(optimal_cost(cost), abs=1e-9)

    def test_each_row_and_column_used_once(self):
        rng = np.random.default_rng(3)
        cost = rng.random((6, 9))
        pairs = hungarian(cost)
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)


class TestMatchWithThreshold:
    def test_threshold_drops_expensive_pairs(self):
        cost = np.array([[0.1, 9.0], [9.0, 8.0]])
        pairs, unmatched_rows, unmatched_cols = match_with_threshold(cost, max_cost=1.0)
        assert pairs == [(0, 0)]
        assert unmatched_rows == [1]
        assert unmatched_cols == [1]

    def test_no_threshold_keeps_all(self):
        cost = np.array([[0.1, 9.0], [9.0, 8.0]])
        pairs, unmatched_rows, unmatched_cols = match_with_threshold(cost)
        assert len(pairs) == 2
        assert unmatched_rows == []
        assert unmatched_cols == []

    def test_rectangular_unmatched_reported(self):
        cost = np.ones((2, 4))
        pairs, unmatched_rows, unmatched_cols = match_with_threshold(cost)
        assert len(pairs) == 2
        assert unmatched_rows == []
        assert len(unmatched_cols) == 2

    def test_gate_accepts_non_finite_markers(self):
        # inf marks "cannot match" (e.g. label mismatch); with a gate it
        # is treated as infeasible instead of raising.
        cost = np.array([[np.inf, 0.4], [0.3, np.inf]])
        pairs, unmatched_rows, unmatched_cols = match_with_threshold(cost, max_cost=1.0)
        assert pairs == [(0, 1), (1, 0)]
        assert unmatched_rows == [] and unmatched_cols == []

    def test_gated_optimum_beats_drop_after_matching(self):
        # The ungated optimum pairs (0,0)/(1,1) and the gate then kills
        # (1,1); feasibility-aware matching keeps two cheap pairs.
        cost = np.array([[0.1, 0.8], [0.7, 5.0]])
        pairs, unmatched_rows, unmatched_cols = match_with_threshold(cost, max_cost=1.0)
        assert pairs == [(0, 1), (1, 0)]
        assert unmatched_rows == [] and unmatched_cols == []

    def test_all_infeasible_matches_nothing(self):
        cost = np.full((3, 2), 9.0)
        pairs, unmatched_rows, unmatched_cols = match_with_threshold(cost, max_cost=1.0)
        assert pairs == []
        assert unmatched_rows == [0, 1, 2]
        assert unmatched_cols == [0, 1]

    def test_gated_pairs_all_pass_gate_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, m = rng.integers(1, 10, size=2)
            cost = rng.normal(size=(n, m)) * 3
            cost[rng.random(size=(n, m)) < 0.2] = np.inf
            pairs, unmatched_rows, unmatched_cols = match_with_threshold(
                cost, max_cost=1.5
            )
            assert all(cost[i, j] <= 1.5 for i, j in pairs)
            assert len(pairs) + len(unmatched_rows) == n
            assert len(pairs) + len(unmatched_cols) == m


class TestSingleRowFastPath:
    def test_first_minimum_wins_on_ties(self):
        assert hungarian(np.array([[2.0, 1.0, 1.0]])) == [(0, 1)]

    def test_single_column(self):
        assert hungarian(np.array([[3.0], [1.0], [2.0]])) == [(1, 0)]

    def test_matches_scipy_on_random_vectors(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m = int(rng.integers(1, 20))
            row = rng.normal(size=(1, m))
            assert hungarian(row) == [(0, int(np.argmin(row[0])))]
            col = rng.normal(size=(m, 1))
            pairs = hungarian(col)
            assert pairs == [(int(np.argmin(col[:, 0])), 0)]


# ----------------------------------------------------------------------
# Tie-breaking pins.  Among equal-cost optima the solver returns the one
# its visiting order reaches first (the first strict improvement wins).
# These assignments were recorded from the solver and pin that choice,
# so any rewrite of its body must return the very same pairs.
# ----------------------------------------------------------------------
def _degenerate_cases():
    i, j = np.indices((4, 6))
    a = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [3.0, 3.0]])
    centres = np.linalg.norm(a[:, None] - b[None], axis=2)
    return {
        "all_equal_square": np.full((4, 4), 1.0),
        "all_equal_wide": np.full((3, 5), 2.0),
        "all_equal_tall": np.full((5, 3), 2.0),
        "all_zero": np.zeros((3, 3)),
        "duplicate_rows": np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]),
        "duplicate_cols": np.array([[1.0, 1.0, 4.0], [2.0, 2.0, 0.5], [3.0, 3.0, 1.0]]),
        "duplicate_rows_tall": np.array([[0.5, 2.0], [0.5, 2.0], [0.5, 2.0], [1.0, 1.0]]),
        "two_optima_blocks": np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
        "zero_rows_tall": np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        ),
        "three_optima_wide": np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 2.0]]),
        "mirrored_wide": np.array([[3.0, 1.0, 1.0, 3.0], [1.0, 3.0, 3.0, 1.0]]),
        "repeated_centres": centres,
        "repeated_centres_tall": centres.T.copy(),
        "row_ties": np.array([[1.0, 1.0, 1.0, 1.0]]),
        "row_tie_after_min": np.array([[2.0, 1.0, 1.0]]),
        "col_ties": np.array([[1.0], [1.0], [1.0]]),
        "col_tie_after_min": np.array([[2.0], [1.0], [1.0]]),
        "int_grid": ((i + j) % 3).astype(float),
        "int_grid_tall": np.abs(np.subtract.outer(np.arange(6), np.arange(4))).astype(float),
        "int_grid_square": (np.add.outer(np.arange(5), np.arange(5)) % 2).astype(float),
    }


DEGENERATE_PINS = {
    "all_equal_square": [(0, 0), (1, 1), (2, 2), (3, 3)],
    "all_equal_wide": [(0, 0), (1, 1), (2, 2)],
    "all_equal_tall": [(0, 0), (1, 1), (2, 2)],
    "all_zero": [(0, 0), (1, 1), (2, 2)],
    "duplicate_rows": [(0, 0), (1, 1), (2, 2)],
    "duplicate_cols": [(0, 0), (1, 1), (2, 2)],
    "duplicate_rows_tall": [(0, 0), (3, 1)],
    "two_optima_blocks": [(0, 0), (1, 1), (2, 2)],
    "zero_rows_tall": [(0, 2), (1, 0), (2, 1)],
    "three_optima_wide": [(0, 1), (1, 0)],
    "mirrored_wide": [(0, 1), (1, 0)],
    "repeated_centres": [(0, 0), (1, 3), (2, 1), (3, 2)],
    "repeated_centres_tall": [(0, 0), (1, 2), (2, 3), (3, 1)],
    "row_ties": [(0, 0)],
    "row_tie_after_min": [(0, 1)],
    "col_ties": [(0, 0)],
    "col_tie_after_min": [(1, 0)],
    "int_grid": [(0, 0), (1, 2), (2, 1), (3, 3)],
    "int_grid_tall": [(0, 0), (1, 1), (2, 2), (3, 3)],
    "int_grid_square": [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)],
}


def _centre_distance_batch(seed=2025, count=30):
    """Center-distance matrices shaped like ST-PC's per-label matchings.

    The end frame holds the start frame's objects, moved a little and
    shuffled, minus a few that left and plus a few that arrived; some
    start frames hold two objects at one centre.
    """
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(count):
        n = int(rng.integers(1, 16))
        start = rng.uniform(-40.0, 40.0, size=(n, 3))
        start[:, 2] = rng.uniform(-1.0, 1.0, size=n)
        if n > 2 and rng.random() < 0.3:
            start[1] = start[0]
        keep = rng.random(n) > 0.15
        moved = start[keep] + rng.normal(scale=0.8, size=(int(keep.sum()), 3))
        extra = rng.uniform(-40.0, 40.0, size=(int(rng.integers(0, 4)), 3))
        end = np.concatenate([moved, extra])
        end = end[rng.permutation(len(end))]
        if len(end) == 0:
            end = rng.uniform(-40.0, 40.0, size=(1, 3))
        batch.append(np.linalg.norm(start[:, None, :] - end[None, :, :], axis=2))
    return batch


def _partners(pairs, shape):
    """The partner of each index on the smaller side, in index order."""
    n, m = shape
    if n <= m:
        return tuple(j for _, j in pairs)
    return tuple(i for i, _ in sorted(pairs, key=lambda pair: pair[1]))


#: Partners recorded per matrix of ``_centre_distance_batch()``.
BATCH_PINS = [
    (5, 1, 4, 2, 6, 0, 7),
    (0, 1, 2),
    (0, 10, 6, 13, 7, 1, 14, 2, 5, 3, 12, 4, 8),
    (2,),
    (3, 0, 2),
    (3, 8, 2, 4, 0, 6, 7, 1, 5),
    (0, 14, 12, 2, 10, 11, 13, 8, 6, 7, 3, 1, 9, 4, 5),
    (0,),
    (0, 1),
    (1, 4, 9, 0, 7, 2, 11, 3, 6, 5, 10),
    (4, 6, 5, 1, 8, 3, 10, 0),
    (5, 2, 8, 4, 6, 7, 1, 0, 9),
    (4, 5, 1, 6, 9, 2, 7, 8, 10),
    (1, 0, 2, 3),
    (1, 2),
    (0, 1, 3),
    (8, 0, 4, 3, 13, 9, 5, 1, 2, 12, 6, 11),
    (1, 0, 2),
    (3, 2, 0, 4, 6),
    (0, 4),
    (3, 2, 4, 0),
    (5, 0, 3, 7, 4, 10, 1, 6, 9, 8, 2),
    (0, 8, 9, 6, 3, 1, 10, 4, 12),
    (2, 0, 3, 4, 1),
    (0, 8, 6, 5, 9, 10, 7, 3, 13, 1, 11),
    (2,),
    (0, 2, 4, 3),
    (6, 7, 1, 5, 9, 10, 4, 3, 0, 8, 2),
    (1, 11, 6, 13, 7, 2, 8, 5, 9, 3, 12, 10, 0),
    (3, 0, 2, 1),
]


class TestPinnedTieBreaking:
    @pytest.mark.parametrize("name", sorted(DEGENERATE_PINS))
    def test_degenerate_inputs_keep_their_assignment(self, name):
        cost = _degenerate_cases()[name]
        pairs = hungarian(cost)
        assert pairs == DEGENERATE_PINS[name]
        assert sum(cost[i, j] for i, j in pairs) == pytest.approx(optimal_cost(cost))

    def test_centre_distance_batch_keeps_its_assignments(self):
        batch = _centre_distance_batch()
        assert len(batch) == len(BATCH_PINS)
        for cost, pinned in zip(batch, BATCH_PINS):
            pairs = hungarian(cost)
            assert _partners(pairs, cost.shape) == pinned
            assert [i for i, _ in pairs] == sorted(i for i, _ in pairs)

    def test_pairs_are_plain_ints(self):
        for pairs in (hungarian(np.full((3, 4), 1.0)), hungarian(np.full((4, 3), 1.0))):
            assert all(type(i) is int and type(j) is int for i, j in pairs)
