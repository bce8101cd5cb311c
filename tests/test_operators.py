"""Unit tests for the MIL-style engine operators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.bat import BAT
from repro.engine.cost import CostModel
from repro.engine.operators import (
    kfetch,
    materialize,
    multijoin_map,
    positional_join,
    reverse_join,
    uselect,
)
from repro.errors import AlignmentError, EngineError


@pytest.fixture()
def fragments():
    left = BAT.dense(np.array([0.1, 0.5, 0.3, 0.9]), alignment=1, name="H1")
    right = BAT.dense(np.array([0.2, 0.1, 0.6, 0.4]), alignment=1, name="H2")
    return left, right


class TestMultijoinMap:
    def test_min_with_constant(self, fragments):
        left, _ = fragments
        result = multijoin_map(np.minimum, left, 0.4)
        assert np.allclose(result.tail, [0.1, 0.4, 0.3, 0.4])

    def test_add_two_aligned_bats(self, fragments):
        left, right = fragments
        result = multijoin_map(np.add, left, right)
        assert np.allclose(result.tail, [0.3, 0.6, 0.9, 1.3])

    def test_result_keeps_head_base(self):
        bat = BAT.dense(np.array([1.0, 2.0]), head_base=5)
        result = multijoin_map(np.negative, bat)
        assert result.head_base == 5

    def test_misaligned_bats_rejected(self):
        left = BAT.dense(np.array([1.0, 2.0]))
        right = BAT.dense(np.array([1.0, 2.0]), head_base=3)
        with pytest.raises(AlignmentError):
            multijoin_map(np.add, left, right)

    def test_needs_at_least_one_bat(self):
        with pytest.raises(EngineError):
            multijoin_map(np.add, 1.0, 2.0)

    def test_charges_cost(self, fragments):
        left, right = fragments
        cost = CostModel()
        multijoin_map(np.add, left, right, cost=cost)
        assert cost.account.tuples_scanned == 8
        assert cost.account.arithmetic_ops > 0


class TestUselect:
    def test_returns_qualifying_oids(self):
        bat = BAT.dense(np.array([0.1, 0.7, 0.4, 0.9]), head_base=10)
        result = uselect(bat, 0.4, 1.0)
        assert np.array_equal(result.tail, np.array([11, 12, 13]))

    def test_result_has_dense_head(self):
        bat = BAT.dense(np.array([0.1, 0.7]))
        result = uselect(bat, 0.0, 1.0)
        assert result.properties.head_dense

    def test_empty_selection(self):
        bat = BAT.dense(np.array([0.1, 0.2]))
        result = uselect(bat, 0.5, 1.0)
        assert len(result) == 0

    def test_charges_comparisons(self):
        cost = CostModel()
        uselect(BAT.dense(np.array([0.1, 0.7])), 0.0, 1.0, cost=cost)
        assert cost.account.comparisons == 4


class TestKfetch:
    def test_kth_largest(self):
        bat = BAT.dense(np.array([5.0, 1.0, 9.0, 3.0, 7.0]))
        assert kfetch(bat, 1) == 9.0
        assert kfetch(bat, 2) == 7.0
        assert kfetch(bat, 5) == 1.0

    def test_kth_smallest(self):
        bat = BAT.dense(np.array([5.0, 1.0, 9.0, 3.0, 7.0]))
        assert kfetch(bat, 1, largest=False) == 1.0
        assert kfetch(bat, 3, largest=False) == 5.0

    def test_k_larger_than_bat(self):
        bat = BAT.dense(np.array([2.0, 4.0]))
        assert kfetch(bat, 10) == 2.0
        assert kfetch(bat, 10, largest=False) == 4.0

    def test_invalid_k(self):
        with pytest.raises(EngineError):
            kfetch(BAT.dense(np.array([1.0])), 0)

    def test_empty_bat(self):
        with pytest.raises(EngineError):
            kfetch(BAT.empty(), 1)

    def test_matches_numpy_sort(self):
        rng = np.random.default_rng(5)
        values = rng.random(200)
        bat = BAT.dense(values)
        for k in (1, 10, 50, 200):
            assert kfetch(bat, k) == pytest.approx(np.sort(values)[::-1][k - 1])

    def test_charges_heap_operations(self):
        cost = CostModel()
        kfetch(BAT.dense(np.arange(10.0)), 3, cost=cost)
        assert cost.account.heap_operations == 10


class TestJoins:
    def test_positional_join(self, fragments):
        left, right = fragments
        result = positional_join(left, right)
        assert np.allclose(result.tail, right.tail)
        assert result.head_base == left.head_base

    def test_positional_join_misaligned(self):
        left = BAT.dense(np.array([1.0]))
        right = BAT.dense(np.array([1.0, 2.0]))
        with pytest.raises(AlignmentError):
            positional_join(left, right)

    def test_reverse_join_gathers_by_oid(self):
        fragment = BAT.dense(np.array([10.0, 20.0, 30.0, 40.0]))
        candidates = BAT.dense(np.array([3, 1], dtype=np.int64))
        result = reverse_join(candidates, fragment)
        assert np.allclose(result.tail, [40.0, 20.0])

    def test_reverse_join_out_of_range(self):
        fragment = BAT.dense(np.array([10.0, 20.0]))
        candidates = BAT.dense(np.array([5], dtype=np.int64))
        with pytest.raises(EngineError):
            reverse_join(candidates, fragment)

    def test_reverse_join_explicit_head(self):
        fragment = BAT(np.array([10.0, 20.0, 30.0]), head=np.array([7, 3, 9]))
        candidates = BAT.dense(np.array([9, 7], dtype=np.int64))
        result = reverse_join(candidates, fragment)
        assert np.allclose(result.tail, [30.0, 10.0])

    def test_materialize(self):
        fragment = BAT.dense(np.array([5.0, 6.0, 7.0]))
        assert np.allclose(materialize(fragment, [2, 0]), [7.0, 5.0])
