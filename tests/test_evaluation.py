import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsml.dataset import LabelState
from wsml.evaluation import (
    average_precision,
    grouped_map,
    mean_average_precision,
    phase_distribution,
)

U = LabelState.UNKNOWN
P = LabelState.OBS_POS
N = LabelState.OBS_NEG


def ap_bruteforce(scores, labels):
    """Oracle: explicit precision-at-positive-rank summation over a sorted copy."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    acc = 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i]:
            hits += 1
            acc += hits / rank
    return acc / hits


class TestAveragePrecision:
    def test_hand_enumerated_example(self):
        ap = average_precision(np.array([0.9, 0.8, 0.3]), np.array([1, 0, 1]))
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)

    def test_perfect_ranking(self):
        ap = average_precision(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0]))
        assert ap == 1.0

    def test_single_positive_sample(self):
        assert average_precision(np.array([0.3]), np.array([1])) == 1.0

    def test_zero_positives_signal_skip(self):
        with pytest.raises(ValueError, match="skip"):
            average_precision(np.array([0.5, 0.4]), np.array([0, 0]))

    def test_matches_bruteforce_on_1000_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = rng.integers(1, 65)
            scores = rng.normal(size=n)
            if rng.random() < 0.3:
                scores = np.round(scores, 1)  # force ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[rng.integers(n)] = 1
            assert abs(average_precision(scores, labels) - ap_bruteforce(scores, labels)) <= 1e-12

    @given(seed=st.integers(0, 10_000), shift=st.floats(-5, 5), scale=st.floats(0.1, 10))
    @settings(max_examples=80, deadline=None)
    def test_invariant_under_monotone_transforms(self, seed, shift, scale):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 40)
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        base = average_precision(scores, labels)
        assert average_precision(scores * scale + shift, labels) == base
        assert average_precision(np.tanh(scores), labels) == base


class TestMeanAveragePrecision:
    def test_mean_of_two_categories(self):
        scores = np.array([[0.9, 0.9], [0.1, 0.8], [0.5, 0.1]])
        truth = np.array([[1, 0], [0, 1], [0, 1]])
        result = mean_average_precision(scores, truth)
        # category 0 perfect; category 1: positives at ranks 2 and 3
        assert result.per_category[0] == 1.0
        assert result.per_category[1] == pytest.approx((1.0 / 2.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
        assert result.mean == pytest.approx((1.0 + 7.0 / 12.0) / 2.0, abs=1e-12)

    def test_zero_positive_category_skipped(self):
        scores = np.random.default_rng(0).uniform(size=(4, 3))
        truth = np.array([[1, 0, 0], [0, 0, 1], [1, 0, 0], [0, 0, 1]])
        result = mean_average_precision(scores, truth)
        assert result.skipped == [1]
        assert result.per_category[1] is None
        assert len([v for v in result.per_category if v is not None]) == 2

    def test_all_categories_skipped_is_an_error(self):
        with pytest.raises(ValueError, match="undefined"):
            mean_average_precision(np.zeros((2, 2)), np.zeros((2, 2)))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        kinds=st.lists(st.sampled_from(["random", "all", "empty", "single"]), min_size=1, max_size=6),
        tied=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_each_category_is_average_precision_bit_for_bit(self, seed, n, kinds, tied):
        rng = np.random.default_rng(seed)
        k = len(kinds)
        # a few distinct values (with both zeros) force ties across and within categories
        scores = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0], size=(n, k)) if tied else rng.normal(size=(n, k))
        truth = rng.integers(0, 2, size=(n, k))
        for c, kind in enumerate(kinds):
            if kind != "random":
                truth[:, c] = 1 if kind == "all" else 0
            if kind == "single":
                truth[rng.integers(n), c] = 1
        if not truth.any():
            with pytest.raises(ValueError, match="undefined"):
                mean_average_precision(scores, truth)
            return
        result = mean_average_precision(scores, truth)
        assert result.skipped == [c for c in range(k) if not truth[:, c].any()]
        for c in range(k):
            if c in result.skipped:
                assert result.per_category[c] is None
            else:
                want = average_precision(scores[:, c], truth[:, c])
                assert np.float64(result.per_category[c]).tobytes() == np.float64(want).tobytes()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=(20, 6))
        truth = rng.integers(0, 2, size=(20, 6))
        truth[:, truth.sum(axis=0) == 0] = 1
        perm = rng.permutation(6)
        a = mean_average_precision(scores, truth)
        b = mean_average_precision(scores[:, perm], truth[:, perm])
        assert a.mean == pytest.approx(b.mean, abs=1e-15)


class TestGroupedMap:
    def test_even_group_sizes(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=(30, 10))
        truth = rng.integers(0, 2, size=(30, 10))
        truth[:, truth.sum(axis=0) == 0] = 1
        out = grouped_map(mean_average_precision(scores, truth).per_category, np.arange(10), 5)
        assert len(out) == 5

    def test_single_group_equals_overall_map(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(size=(15, 3))
        truth = rng.integers(0, 2, size=(15, 3))
        truth[:, truth.sum(axis=0) == 0] = 1
        out = grouped_map(mean_average_precision(scores, truth).per_category, np.array([5, 1, 3]), 1)
        assert out[0] == pytest.approx(mean_average_precision(scores, truth).mean, abs=1e-15)

    def test_ascending_count_order(self):
        # counts [5, 1, 3]: groups are category 1, then 2, then 0
        scores = np.array([[0.9, 0.1, 0.5], [0.2, 0.8, 0.6]])
        truth = np.array([[1, 0, 1], [0, 1, 1]])
        out = grouped_map(mean_average_precision(scores, truth).per_category, np.array([5, 1, 3]), 3)
        assert out[0] == average_precision(scores[:, 1], truth[:, 1])
        assert out[1] == average_precision(scores[:, 2], truth[:, 2])
        assert out[2] == average_precision(scores[:, 0], truth[:, 0])

    def test_remainder_goes_to_last_groups(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=(10, 7))
        truth = np.ones((10, 7), dtype=int)
        out = grouped_map(mean_average_precision(scores, truth).per_category, np.arange(7), 3)
        # sizes should be 2, 2, 3
        assert len(out) == 3

    def test_too_many_groups_rejected(self):
        with pytest.raises(ValueError, match="groups"):
            grouped_map(mean_average_precision(np.zeros((2, 3)), np.ones((2, 3))).per_category, np.arange(3), 4)


class TestPhaseDistribution:
    def test_all_peaks_in_first_epoch(self):
        argmax = np.ones((2, 3), dtype=int)
        truth = np.array([[1, 0, 1], [0, 1, 0]])
        states = np.array([[P, U, U], [U, P, U]], dtype=np.int8)
        table = phase_distribution(argmax, 5, truth, states)
        for bucket in table.values():
            assert bucket.warmup_pct == 100.0
            assert bucket.regular_pct == 0.0

    def test_bucket_membership(self):
        truth = np.array([[1, 1, 0]])
        states = np.array([[P, U, U]], dtype=np.int8)
        argmax = np.array([[1, 4, 1]])
        table = phase_distribution(argmax, 6, truth, states)
        assert table["TP"].count == 1 and table["TP"].warmup_pct == 100.0
        assert table["FN"].count == 1 and table["FN"].regular_pct == 100.0
        assert table["TN"].count == 1 and table["TN"].warmup_pct == 100.0

    def test_empty_bucket_reports_none(self):
        truth = np.array([[1, 1]])
        states = np.array([[P, P]], dtype=np.int8)
        table = phase_distribution(np.ones((1, 2), dtype=int), 3, truth, states)
        assert table["TN"] is None
        assert table["FN"] is None

    def test_requires_two_epochs(self):
        with pytest.raises(ValueError, match="2"):
            phase_distribution(np.ones((1, 2), dtype=int), 1, np.ones((1, 2), dtype=int),
                               np.full((1, 2), P, dtype=np.int8))

    def test_percentages_sum_to_hundred(self):
        rng = np.random.default_rng(8)
        truth = rng.integers(0, 2, size=(10, 4))
        states = np.where(truth == 1, P, np.where(rng.random((10, 4)) < 0.5, N, U)).astype(np.int8)
        argmax = rng.integers(1, 6, size=(10, 4))
        table = phase_distribution(argmax, 5, truth, states)
        for bucket in table.values():
            if bucket is not None:
                assert bucket.warmup_pct + bucket.regular_pct == pytest.approx(100.0)
