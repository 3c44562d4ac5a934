import importlib.util
import math
import pathlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsml.dataset import LabelState, PartialDataset, an_targets_from_states
from wsml.model import init_classifier
from wsml.schemes import (
    PARTITION_MIN,
    SPECS,
    Scheme,
    SchemeConfig,
    absolute_threshold,
    apply_permanent_corrections,
    an_losses,
    bce_elementwise,
    decide_planned,
    epoch_losses,
    plan_epoch,
    plan_rows,
    quota,
    rejection_rate,
    select_large_losses,
)

from test_model import backward

# loaded by path, as test_reference.py does: perfbench has a module named `reference`
_spec = importlib.util.spec_from_file_location("schemes_reference", pathlib.Path(__file__).with_name("reference.py"))
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

U = LabelState.UNKNOWN
P = LabelState.OBS_POS
N = LabelState.OBS_NEG
C = LabelState.CORRECTED_POS


def cfg(scheme, **kw):
    return SchemeConfig(Scheme(scheme), **kw)


@dataclass
class Decision:
    """One batch's decision: its targets, weights and threshold, and the flag rows it flagged in."""

    targets: np.ndarray
    weights: np.ndarray
    flags: np.ndarray
    threshold: float


def plan(scheme, states, epoch, cfg, cuts=()):
    """A lone run's epoch plan over `states`, in their row order, whose batches start at row 0 and at each cut."""
    bounds = sorted({0, len(states), *(cut for cut in cuts if cut < len(states))})
    return plan_epoch(plan_rows(scheme, states, cfg), epoch, np.arange(len(states)), [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])])


def decide_batch(scheme, probs, states, epoch, cfg) -> Decision:
    """One batch's decision as its own epoch plan, finished at once: the
    library's two steps over a single batch."""
    probs = np.asarray(probs, dtype=np.float64)
    states = np.asarray(states)
    if probs.shape != states.shape:
        raise ValueError(f"shape mismatch: probs {probs.shape} vs states {states.shape}")
    return decide(plan(scheme, states, epoch, cfg), 0, probs)


def decide(plan, i, probs) -> Decision:
    """A lone run's plan's decision for its batch i, from the probabilities `probs` of all its rows, flagged into a
    new all-False buffer; the targets as the float targets they stand for (a bool target has their bits in a
    difference), and the threshold the epoch end takes: an absolute schedule's if the batch selects, else the
    smallest AN loss -log(1 - p) flagged (NaN: none)."""
    flags = np.zeros(probs.shape, dtype=bool)
    targets, weights = decide_planned(plan, i, probs, flags)
    rows, selection = plan.batches[i]
    threshold = plan.threshold[0] if plan.rate is None and SPECS[plan.scheme].action != "none" else \
        float(np.fmin.reduce(-np.log(np.subtract(1.0, probs[flags])), initial=np.nan))
    return Decision(np.asarray(targets, dtype=np.float64), weights, flags[rows], threshold)


def plan_epoch_losses(plan, probs, flags):
    """The epoch's losses written over `probs`, with the AN losses against the plan's
    own targets in a new buffer."""
    return epoch_losses(plan, probs, flags, np.empty(probs.shape), plan.an)


def class_losses(probs):
    """(-log p, -log(1 - p)): the binary cross entropy against target 1 and against target 0."""
    return -np.log(probs), -np.log(1.0 - probs)


class TestBce:
    def test_one_log_pass_and_in_place_give_the_two_log_bits(self):
        rng = np.random.default_rng(8)
        probs = np.clip(rng.uniform(size=(40, 7)), 1e-7, 1.0 - 1e-7)
        positive = rng.uniform(size=(40, 7)) < 0.3
        targets = rng.uniform(size=(40, 7))
        pos, neg = class_losses(probs)
        want = np.where(positive, pos, neg)
        assert_same_bits(an_losses(probs, positive), want)
        assert_same_bits(an_losses(probs.copy(), positive, out=probs.copy()), want)
        assert_same_bits(bce_elementwise(probs, targets), targets * pos + (1.0 - targets) * neg)
        copy = probs.copy()
        assert bce_elementwise(copy, targets, out=copy) is copy
        assert_same_bits(copy, targets * pos + (1.0 - targets) * neg)

    def test_reference_values(self):
        out = bce_elementwise(np.array([[0.8, 0.5, 0.9]]), np.array([[0.0, 0.3, 1.0]]))
        assert abs(out[0, 0] - 1.6094379) < 1e-6
        assert abs(out[0, 1] - math.log(2)) < 1e-12  # 0.5 gives ln 2 for any target
        assert abs(out[0, 2] - 0.1053605) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            bce_elementwise(np.zeros((2, 2)), np.zeros((2, 3)))

    @given(t=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_half_probability_is_ln2_for_any_target(self, t):
        assert abs(bce_elementwise(np.array([[0.5]]), np.array([[t]]))[0, 0] - math.log(2)) < 1e-12


class TestRejectionRate:
    def test_relative_ramps_from_zero(self):
        c = cfg("ll-r", delta_rel=0.2)
        assert rejection_rate(Scheme.LL_R, 1, c) == 0.0
        assert rejection_rate(Scheme.LL_R, 6, c) == pytest.approx(1.0)
        assert rejection_rate(Scheme.LL_CT, 11, c) == pytest.approx(2.0)

    def test_permanent_correction_rate_is_constant(self):
        c = cfg("ll-cp", delta_rel=0.5)
        assert rejection_rate(Scheme.LL_CP, 1, c) == 0.0
        assert rejection_rate(Scheme.LL_CP, 2, c) == 0.5
        assert rejection_rate(Scheme.LL_CP, 9, c) == 0.5

    def test_clamped_to_hundred(self):
        c = cfg("ll-r", delta_rel=30.0)
        assert rejection_rate(Scheme.LL_R, 50, c) == 100.0

    def test_absolute_schemes_have_no_rate(self):
        c = cfg("ll-r-abs")
        assert rejection_rate(Scheme.LL_R_ABS, 3, c) is None

    def test_non_selecting_schemes_are_zero(self):
        c = cfg("wan")
        assert rejection_rate(Scheme.WAN, 10, c) == 0.0
        assert rejection_rate(Scheme.NAIVE_AN, 10, c) == 0.0


def select_by_states(losses, states, rate=None, threshold=None):
    """select_large_losses over a loss for every entry: the UNKNOWN entries of `states`
    are the candidates, flagged into a new all-False buffer shaped like `states`."""
    candidates = np.flatnonzero(np.asarray(states) == U)
    flags = np.zeros(np.shape(states), dtype=bool)
    return select_large_losses(np.asarray(losses, dtype=np.float64).reshape(-1)[candidates], candidates, rate,
                               threshold, flags)


class TestSelectLargeLosses:
    def test_top_k_with_reported_threshold(self):
        losses = np.array([[0.2, 1.5, 0.7, 2.1, 0.4]])
        states = np.full((1, 5), U, dtype=np.int8)
        flags, threshold = select_by_states(losses, states, rate=40.0)
        assert flags.sum() == 2
        assert flags[0, 3] and flags[0, 1]
        assert threshold == 1.5

    def test_zero_rate_flags_nothing(self):
        losses = np.ones((2, 3))
        states = np.full((2, 3), U, dtype=np.int8)
        flags, threshold = select_by_states(losses, states, rate=0.0)
        assert not flags.any()
        assert math.isnan(threshold)

    def test_absolute_mode_is_strict(self):
        losses = np.array([[1.19, 1.2, 1.21]])
        states = np.full((1, 3), U, dtype=np.int8)
        flags, threshold = select_by_states(losses, states, threshold=1.2)
        assert threshold == 1.2
        assert list(flags[0]) == [False, False, True]

    def test_observed_entries_never_selected(self):
        losses = np.array([[9.0, 1.0], [8.0, 2.0]])
        states = np.array([[P, U], [C, U]], dtype=np.int8)
        flags, _ = select_by_states(losses, states, rate=100.0)
        assert not flags[0, 0] and not flags[1, 0]
        assert flags[0, 1] and flags[1, 1]

    def test_tie_break_prefers_ascending_index(self):
        losses = np.array([[1.0, 1.0], [1.0, 0.5]])
        states = np.full((2, 2), U, dtype=np.int8)
        flags, _ = select_by_states(losses, states, rate=50.0)
        # two of the three tied 1.0 losses win; (0,0) then (0,1) by index order
        assert flags[0, 0] and flags[0, 1] and not flags[1, 0]

    @given(
        seed=st.integers(0, 10_000),
        rate=st.floats(0.0, 100.0),
        rows=st.integers(1, 6),
        cols=st.integers(2, 8),
    )
    @settings(max_examples=120, deadline=None)
    def test_flag_count_is_exact(self, seed, rate, rows, cols):
        rng = np.random.default_rng(seed)
        losses = rng.exponential(size=(rows, cols))
        states = rng.choice([int(U), int(P), int(N), int(C)], size=(rows, cols)).astype(np.int8)
        flags, threshold = select_by_states(losses, states, rate=rate)
        m = int((states == U).sum())
        expected = min(int((rate / 100.0) * m), m)
        assert int(flags.sum()) == expected
        assert not (flags & (states != U)).any()
        if expected:
            assert threshold == losses[flags].min()
        else:
            assert math.isnan(threshold)

    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(PARTITION_MIN, 4 * PARTITION_MIN),
        rate=st.floats(0.0, 100.0) | st.sampled_from([0.05, 50.0, 100.0]),
        levels=st.sampled_from([None, 3, 40]),
        nans=st.integers(0, 3) | st.integers(0, 4 * PARTITION_MIN),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_a_partition_flags_what_the_stable_sort_flags(self, seed, m, rate, levels, nans):
        """From PARTITION_MIN candidates on, the selection partitions; the flags and the threshold
        are those of the stable descending sort, ties (few loss levels) and NaN losses included."""
        rng = np.random.default_rng(seed)
        losses = rng.exponential(size=m) if levels is None else rng.integers(0, levels, size=m) / 7.0
        losses[rng.choice(m, size=min(nans, m), replace=False)] = np.nan
        candidates = np.sort(rng.choice(3 * m, size=m, replace=False))
        flags, threshold = select_large_losses(losses, candidates, rate, None, np.zeros(3 * m, dtype=bool))
        k = quota(rate, m)
        want = np.zeros(3 * m, dtype=bool)
        order = np.argsort(-losses, kind="stable")[:k]
        want[candidates[order]] = True
        assert np.array_equal(flags, want)
        assert repr(threshold) == repr(float(losses[order[-1]]) if k else math.nan)


def batch(states, probs):
    return np.asarray(probs, dtype=float), np.asarray(states, dtype=np.int8)


class TestDecideBatch:
    def test_naive_an(self):
        probs, states = batch([[U, P, N]], [[0.4, 0.6, 0.2]])
        d = decide_batch(Scheme.NAIVE_AN, probs, states, 1, cfg("naive-an"))
        assert np.array_equal(d.targets, [[0.0, 1.0, 0.0]])
        assert np.array_equal(d.weights, np.ones((1, 3)))
        assert math.isnan(d.threshold)

    def test_ignore_unobserved(self):
        probs, states = batch([[U, P, N]], [[0.4, 0.6, 0.2]])
        d = decide_batch(Scheme.IGNORE_UNOBSERVED, probs, states, 1, cfg("ignore-unobserved"))
        assert np.array_equal(d.weights, [[0.0, 1.0, 1.0]])

    def test_wan_weights(self):
        k = 20
        states = np.full((1, k), U, dtype=np.int8)
        states[0, 0] = P
        states[0, 1] = N
        states[0, 2] = C
        d = decide_batch(Scheme.WAN, np.full((1, k), 0.5), states, 3, cfg("wan"))
        assert d.weights[0, 0] == 1.0
        assert d.weights[0, 2] == 1.0  # corrected positive
        assert d.weights[0, 1] == pytest.approx(1 / 19)  # observed negative
        assert d.weights[0, 5] == pytest.approx(1 / 19)  # unknown

    def test_wan_with_two_categories_gives_unit_weight(self):
        probs, states = batch([[U, P]], [[0.5, 0.5]])
        d = decide_batch(Scheme.WAN, probs, states, 1, cfg("wan"))
        assert d.weights[0, 0] == 1.0

    def test_lsan_smooths_all_targets(self):
        probs, states = batch([[U, P, N]], [[0.4, 0.6, 0.2]])
        d = decide_batch(Scheme.LSAN, probs, states, 1, cfg("lsan", eps_smooth=0.1))
        assert np.allclose(d.targets, [[0.1, 0.9, 0.1]])
        assert np.array_equal(d.weights, np.ones((1, 3)))

    def test_ll_r_zeroes_flagged_weights(self):
        probs, states = batch([[U, U, U, U, P]], [[0.9, 0.2, 0.5, 0.3, 0.9]])
        d = decide_batch(Scheme.LL_R, probs, states, 26, cfg("ll-r", delta_rel=1.0))
        # rate 25% of 4 unknowns = 1 flag at the largest loss, p=0.9 -> target 0
        assert d.flags.sum() == 1
        assert d.flags[0, 0]
        assert d.weights[0, 0] == 0.0
        assert np.array_equal(d.targets, [[0, 0, 0, 0, 1.0]])

    def test_ll_ct_temporary_correction_identity(self):
        f = 0.9
        probs, states = batch([[U, U]], [[f, 0.1]])
        d = decide_batch(Scheme.LL_CT, probs, states, 51, cfg("ll-ct", delta_rel=1.0))
        assert d.flags[0, 0] and not d.flags[0, 1]
        effective = bce_elementwise(probs, d.targets)[0, 0]
        assert abs(effective - (-math.log(f))) < 1e-9
        # the equivalent weight on the original loss reproduces the same value
        lam = math.log(f) / math.log(1.0 - f)
        original = bce_elementwise(probs, np.zeros_like(probs))[0, 0]
        assert abs(original * lam - effective) < 1e-9

    def test_ll_ct_identity_at_half(self):
        probs, states = batch([[U, U, U, U]], [[0.5, 0.1, 0.1, 0.1]])
        d = decide_batch(Scheme.LL_CT, probs, states, 26, cfg("ll-ct", delta_rel=1.0))
        assert d.flags[0, 0]
        lam = math.log(0.5) / math.log(0.5)
        assert lam == 1.0
        assert abs(bce_elementwise(probs, d.targets)[0, 0] - math.log(2)) < 1e-12

    def test_ll_cp_flags_for_mutation(self):
        probs, states = batch([[U, U, P]], [[0.95, 0.1, 0.5]])
        d = decide_batch(Scheme.LL_CP, probs, states, 2, cfg("ll-cp", delta_rel=50.0))
        assert d.flags[0, 0]
        assert d.targets[0, 0] == 1.0
        assert np.array_equal(d.weights, np.ones((1, 3)))

    def test_absolute_variant_thresholds_from_first_epoch(self):
        probs, states = batch([[U, U]], [[0.9, 0.5]])
        # losses: -log(0.1) = 2.303, -log(0.5) = 0.693; threshold 1.5 - 0.15 = 1.35
        d = decide_batch(Scheme.LL_R_ABS, probs, states, 1, cfg("ll-r-abs", r0=1.5, delta_abs=0.15))
        assert d.threshold == pytest.approx(1.35)
        assert d.flags[0, 0] and not d.flags[0, 1]

    def test_epoch_one_neutrality_of_relative_schemes(self):
        rng = np.random.default_rng(0)
        probs = rng.uniform(0.01, 0.99, size=(4, 6))
        states = rng.choice([int(U), int(P), int(N)], size=(4, 6)).astype(np.int8)
        for token in ("ll-r", "ll-ct", "ll-cp"):
            d = decide_batch(Scheme(token), probs, states, 1, cfg(token, delta_rel=5.0))
            assert not d.flags.any()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            decide_batch("ll-q", np.zeros((1, 2)), np.full((1, 2), U, dtype=np.int8), 1, cfg("ll-r"))

    @given(seed=st.integers(0, 5000), epoch=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_flags_never_touch_observed(self, seed, epoch):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0.01, 0.99, size=(5, 7))
        states = rng.choice([int(U), int(P), int(N), int(C)], size=(5, 7)).astype(np.int8)
        for token in ("ll-r", "ll-ct", "ll-cp", "ll-r-abs", "ll-ct-abs", "ll-cp-abs"):
            d = decide_batch(Scheme(token), probs, states, epoch, cfg(token, delta_rel=3.0))
            assert not (d.flags & (states != U)).any()


def reference_decide_batch(scheme, probs, states, epoch, c):
    """The one-pass decision as written before the epoch plan existed: every
    rule evaluated from the batch's states, with the full BCE formula."""
    spec = SPECS[Scheme(scheme)]
    an = ((states == P) | (states == C)).astype(np.float64)
    unknown = states == U
    flags, threshold = np.zeros_like(unknown), float("nan")
    if spec.action != "none":
        pos, neg = class_losses(probs)
        rate = rejection_rate(scheme, epoch, c)
        if rate is None:
            flags, threshold = select_by_states(np.where(an == 1.0, pos, neg), states,
                                                threshold=absolute_threshold(epoch, c))
        else:
            flags, threshold = select_by_states(np.where(an == 1.0, pos, neg), states, rate=rate)
    targets = an
    if spec.target == "smoothed":
        targets = targets * (1.0 - c.eps_smooth) + (1.0 - targets) * c.eps_smooth
    if spec.action in ("temporary", "permanent"):
        targets = np.where(flags, 1.0, targets)
    if spec.weight == "ignore-unknown":
        weights = np.where(unknown, 0.0, 1.0)
    elif spec.weight == "wan":
        weights = np.where(an == 0.0, 1.0 / (states.shape[1] - 1), 1.0)
    else:
        weights = np.ones_like(probs)
    if spec.action == "reject":
        weights = np.where(flags, 0.0, weights)
    return Decision(targets, weights, flags, threshold)


def assert_same_bits(a, b, name=""):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def assert_same_decision(got: Decision, want: Decision):
    for name in ("targets", "weights", "flags"):
        assert_same_bits(getattr(got, name), getattr(want, name), name)
    assert got.threshold == want.threshold or (math.isnan(got.threshold) and math.isnan(want.threshold))


def decided_losses(decision: Decision, probs):
    """The weighted loss a batch decision trains on, as the batch once computed it."""
    return decision.weights * bce_elementwise(probs, decision.targets)


class TestEpochPlan:
    @given(
        token=st.sampled_from([s.value for s in Scheme]),
        epoch=st.integers(1, 40),
        n=st.integers(1, 60),
        k=st.integers(2, 9),
        seed=st.integers(0, 2**32 - 1),
        delta_rel=st.floats(0.0, 30.0),
        cuts=st.lists(st.integers(1, 59), max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_slices_of_the_epoch_plan_equal_decide_batch(self, token, epoch, n, k, seed, delta_rel, cuts):
        rng = np.random.default_rng(seed)
        states = rng.choice([int(U), int(P), int(N), int(C)], size=(n, k), p=[0.6, 0.15, 0.15, 0.1]).astype(np.int8)
        probs = rng.uniform(1e-4, 1.0 - 1e-4, size=(n, k))
        if n > 1:  # exact ties between losses, which the selection breaks by index
            probs[rng.integers(n, size=n // 2), rng.integers(k, size=n // 2)] = probs[0, 0]
        c = cfg(token, delta_rel=delta_rel, r0=float(rng.uniform(0.5, 3.0)), delta_abs=float(rng.uniform(0.0, 0.2)))
        planned = plan(Scheme(token), states, epoch, c, cuts)
        live = states.copy()  # the states as permanent correction leaves them, batch by batch
        flags, wanted = np.zeros((n, k), dtype=bool), []
        for i, (batch, _) in enumerate(planned.batches):
            got = decide(planned, i, probs)
            want = reference_decide_batch(token, probs[batch], live[batch], epoch, c)
            assert_same_decision(got, decide_batch(Scheme(token), probs[batch], live[batch], epoch, c))
            assert_same_decision(got, want)
            wanted.append((batch, decided_losses(want, probs[batch])))
            flags[batch] = got.flags
            if SPECS[Scheme(token)].action == "permanent":
                live[batch][got.flags] = C
        # the epoch's losses, computed once over every batch's probabilities, are the batches' own
        losses = plan_epoch_losses(planned, probs.copy(), flags)
        for batch, want_losses in wanted:
            assert_same_bits(losses[batch], want_losses)

    def test_plan_is_row_aligned_with_its_states(self):
        states = np.array([[U, P, N], [C, U, P]], dtype=np.int8)
        planned = plan(Scheme.WAN, states, 3, cfg("wan"))
        assert np.array_equal(planned.an, [[False, True, False], [True, False, True]])
        assert np.array_equal(planned.unknown, states == U)
        assert np.array_equal(planned.weights, [[0.5, 1.0, 0.5], [1.0, 0.5, 1.0]])
        assert planned.rate == [0.0] and planned.threshold is None

    def test_schedule_is_the_epoch_rate_or_threshold(self):
        states = np.full((1, 2), U, dtype=np.int8)
        relative = plan(Scheme.LL_CT, states, 4, cfg("ll-ct", delta_rel=2.0))
        assert (relative.rate, relative.threshold) == ([6.0], None)
        absolute = plan(Scheme.LL_R_ABS, states, 2, cfg("ll-r-abs", r0=1.5, delta_abs=0.25))
        assert (absolute.rate, absolute.threshold) == (None, [1.0])
        with pytest.raises(ValueError, match="epoch"):
            plan(Scheme.NAIVE_AN, states, 0, cfg("naive-an"))

    @pytest.mark.parametrize("scheme", list(SPECS))
    def test_given_an_losses_change_no_field_of_the_decision(self, scheme):
        # the AN losses by the two-log formula, given to the selection, decide as
        # the decision's own one-log AN losses do
        rng = np.random.default_rng(5)
        states = rng.choice([int(U), int(P), int(N), int(C)], size=(40, 6), p=[0.6, 0.15, 0.15, 0.1]).astype(np.int8)
        probs = rng.uniform(1e-4, 1.0 - 1e-4, size=(40, 6))
        probs[::3, 1] = probs[0, 0]  # loss ties, which the selection breaks by index
        c = cfg(scheme, delta_rel=10.0, r0=1.0, delta_abs=0.1)
        planned = plan(scheme, states, 4, c, (16, 32))
        flagged = 0
        for i, (batch, _) in enumerate(planned.batches):
            got = decide(planned, i, probs)
            if SPECS[scheme].action != "none":
                given = np.where(planned.an[batch], *class_losses(probs[batch]))
                flags, threshold = select_by_states(given, states[batch], *(planned.rate or [None]),
                                                    *(planned.threshold or [None]))
                assert np.array_equal(got.flags, flags)
                assert got.threshold == threshold or math.isnan(got.threshold) and math.isnan(threshold)
            assert_same_decision(got, reference_decide_batch(scheme, probs[batch], states[batch], 4, c))
            flagged += int(got.flags.sum())
        assert (flagged > 0) == (SPECS[scheme].action != "none")

    def test_each_batch_holds_the_flat_indices_of_its_unknown_entries(self):
        states = np.array([[U, P, U], [N, C, P], [U, U, U], [P, U, N], [N, P, N]], dtype=np.int8)
        planned = plan(Scheme.LL_R_ABS, states, 3, cfg("ll-r-abs"), (2, 4))
        assert [None if sel is None else sel[0].tolist() for _, sel in planned.batches] == [[0, 2], [6, 7, 8, 10], None]
        assert [batch for batch, _ in planned.batches] == [slice(0, 2), slice(2, 4), slice(4, 5)]


def python_selection(losses, states, rate=None, threshold=None):
    """The selection written out in plain Python: the first floor(rate/100 * M)
    UNKNOWN entries in (-loss, row, column) order, or every UNKNOWN entry above
    the threshold."""
    entries = sorted((-float(losses[i][j]), i, j)
                     for i in range(len(states)) for j in range(len(states[i])) if states[i][j] == U)
    flags = np.zeros(np.shape(states), dtype=bool)
    if threshold is not None:
        for loss, i, j in entries:
            flags[i, j] = -loss > threshold
        return flags, threshold
    k = min(int((rate / 100.0) * len(entries)), len(entries))
    for _, i, j in entries[:k]:
        flags[i, j] = True
    return flags, -entries[k - 1][0] if k else float("nan")


class TestPlannedSelection:
    @given(
        relative=st.booleans(),
        epoch=st.integers(1, 30),
        n=st.integers(1, 50),
        k=st.integers(2, 9),
        seed=st.integers(0, 2**32 - 1),
        levels=st.integers(1, 4),
        delta_rel=st.sampled_from([0.0, 0.1, 0.5, 2.0, 7.5, 40.0]),
        r0_level=st.integers(1, 4),
        delta_abs=st.sampled_from([0.0, 0.25, 0.5]),
        cuts=st.lists(st.integers(1, 49), max_size=8),
        size=st.integers(1, 17),
    )
    @settings(max_examples=200, deadline=None)
    def test_planned_selection_equals_a_python_top_k(
            self, relative, epoch, n, k, seed, levels, delta_rel, r0_level, delta_abs, cuts, size):
        rng = np.random.default_rng(seed)
        states = rng.choice([int(U), int(P), int(N), int(C)], size=(n, k), p=[0.6, 0.1, 0.15, 0.15]).astype(np.int8)
        # a few probability levels, so many exact loss ties, and with delta_abs = 0
        # a threshold that sits on one of those losses
        level_probs = np.array([0.125, 0.25, 0.5, 0.75, 0.875])
        probs = level_probs[rng.integers(0, levels + 1, size=(n, k))]
        losses = -np.log(1.0 - probs)  # the AN loss of an UNKNOWN entry, the only kind selected
        token = "ll-r" if relative else "ll-r-abs"
        c = cfg(token, delta_rel=delta_rel, r0=float(-np.log(1.0 - level_probs[r0_level])), delta_abs=delta_abs)
        # random cuts, then fixed-size batches whose last one is ragged
        for planned in (plan(Scheme(token), states, epoch, c, cuts), plan(Scheme(token), states, epoch, c, range(size, n, size))):
            for i, (batch, _) in enumerate(planned.batches):
                got = decide(planned, i, probs)
                flags, threshold = python_selection(losses[batch], states[batch], *(planned.rate or [None]),
                                                    *(planned.threshold or [None]))
                assert np.array_equal(got.flags, flags), batch
                assert got.threshold == threshold or math.isnan(got.threshold) and math.isnan(threshold)
                assert np.array_equal(got.weights, np.where(flags, 0.0, 1.0))

    def test_zero_quota_flags_nothing_and_keeps_the_planned_targets(self):
        states = np.full((2, 3), U, dtype=np.int8)
        planned = plan(Scheme.LL_CT, states, 2, cfg("ll-ct", delta_rel=10.0))  # 10% of 6 rounds to 0
        probs = np.full((2, 3), 0.3)
        d = decide(planned, 0, probs)
        assert not d.flags.any() and math.isnan(d.threshold)
        losses = plan_epoch_losses(planned, probs.copy(), d.flags)
        assert np.array_equal(d.targets, planned.targets) and np.array_equal(losses, class_losses(probs)[1])


class TestCandidateSelection:
    def test_ties_that_only_the_loss_sees_flag_by_ascending_index(self):
        # two distinct probabilities at the clamp's edge whose 1 - p round to the same
        # double: their AN losses tie, so the quota's edge takes the lower index, even
        # where that entry holds the smaller probability
        low, high = 1e-7, np.nextafter(1e-7, 1.0)
        assert low < high and 1.0 - low == 1.0 - high
        states = np.full((2, 4), U, dtype=np.int8)
        probs = np.array([[0.9, low, high, 0.05], [high, 0.9, low, 0.05]])
        c = cfg("ll-r", delta_rel=75.0)  # epoch 2: 75% of 4 UNKNOWN entries a row is 3, of 8 is 6
        by_row, both = plan(Scheme.LL_R, states, 2, c, (1,)), plan(Scheme.LL_R, states, 2, c)
        expected = {0: [[1, 1, 0, 1]], 1: [[1, 1, 0, 1]], None: [[1, 1, 1, 1], [0, 1, 0, 1]]}
        for row, want in expected.items():
            batch = slice(0, 2) if row is None else slice(row, row + 1)
            got = decide(both, 0, probs) if row is None else decide(by_row, row, probs)
            flags, threshold = reference.select(-np.log(1.0 - probs[batch]), states[batch], both.rate[0], None)
            assert got.flags.astype(int).tolist() == want == flags.astype(int).tolist()
            assert got.threshold == threshold == -np.log(1.0 - low)
            assert_same_decision(got, decide_batch(Scheme.LL_R, probs[batch], states[batch], 2, c))

    @pytest.mark.parametrize("scheme", list(SPECS))
    def test_a_batch_reads_the_probabilities_of_its_candidates_alone(self, scheme):
        rng = np.random.default_rng(17)
        states = rng.choice([int(U), int(P), int(N), int(C)], size=(30, 6), p=[0.6, 0.15, 0.15, 0.1]).astype(np.int8)
        probs = rng.uniform(1e-4, 1.0 - 1e-4, size=(30, 6))
        poisoned = probs.copy()
        poisoned[states != U] = rng.choice([np.nan, 0.0, 1.0], size=int((states != U).sum()))
        planned = plan(scheme, states, 4, cfg(scheme, delta_rel=10.0, r0=1.0, delta_abs=0.1), range(7, 30, 7))
        flagged = 0
        for i in range(len(planned.batches)):  # a ragged last batch
            want = decide(planned, i, probs)
            with np.errstate(all="raise"):  # log(0) and 0 * inf would raise
                got = decide(planned, i, poisoned)
            assert_same_decision(got, want)
            flagged += int(got.flags.sum())
        assert (flagged > 0) == (SPECS[scheme].action != "none")

    @pytest.mark.parametrize("size", [4, 7, 30])
    @pytest.mark.parametrize("scheme", list(SPECS))
    def test_epoch_losses_from_the_tracker_pass_are_the_batches_own(self, scheme, size):
        # the run started from `start`; LL-Cp has since corrected some of its UNKNOWN entries
        rng = np.random.default_rng(size)
        start = rng.choice([int(U), int(P), int(N)], size=(30, 6), p=[0.7, 0.15, 0.15]).astype(np.int8)
        states = np.where((start == U) & (rng.uniform(size=start.shape) < 0.15), int(C), start).astype(np.int8)
        assert (states == C).any()
        an0 = an_targets_from_states(start) == 1.0
        probs = rng.uniform(1e-4, 1.0 - 1e-4, size=(30, 6))
        probs[::4, 2] = probs[0, 0]  # loss ties, which the selection breaks by index
        planned = plan(scheme, states, 4, cfg(scheme, delta_rel=10.0, r0=1.0, delta_abs=0.1), range(size, 30, size))
        flags, wanted = np.zeros(states.shape, dtype=bool), []
        for i, (batch, _) in enumerate(planned.batches):
            targets, weights = decide_planned(planned, i, probs, flags)
            wanted.append((batch, weights * bce_elementwise(probs[batch], targets)))
        assert flags.any() == (SPECS[scheme].action != "none")
        seen = np.full(probs.shape, np.nan)
        losses = epoch_losses(planned, probs.copy(), flags, seen, an0)
        for batch, want in wanted:
            assert_same_bits(losses[batch], want)
        assert_same_bits(seen, an_losses(probs, an0))  # the tracker's, against the starting targets


@st.composite
def stacked_selections(draw):
    """(scheme, states (*arms, n, K) by row, configs, epoch, visiting order of each arm, batch cuts, probabilities
    (n, *arms, K) in visiting order) of a drawn stack of 1-4 arms, a lone run's without the arm axis: few
    probability levels (ties within and across arms), some NaN, rates whose quotas are often zero, and absolute
    thresholds at, just above or just below a loss."""
    arms, n, k = draw(st.integers(1, 4)), draw(st.integers(1, 40) | st.integers(90, 130)), draw(st.integers(2, 8))
    seed, lone = draw(st.integers(0, 2**32 - 1)), arms == 1 and draw(st.booleans())
    rng = np.random.default_rng(seed)
    states = rng.choice([int(U), int(P), int(N), int(C)], size=(arms, n, k), p=[0.7, 0.1, 0.1, 0.1]).astype(np.int8)
    levels = np.array([1e-7, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0 - 1e-7])[:draw(st.integers(1, 7))]
    probs = levels[rng.integers(0, len(levels), size=(n, arms, k))]
    probs[rng.uniform(size=probs.shape) < draw(st.sampled_from([0.0, 0.0, 0.02, 0.3]))] = np.nan
    if draw(st.booleans()):  # relative: LL-R's rate at epoch 2 is delta_rel
        scheme, epoch = Scheme.LL_R, 2
        cfgs = [cfg("ll-r", delta_rel=draw(st.sampled_from([0.0, 0.5, 3.0, 10.0, 37.5, 100.0]) | st.floats(0.0, 100.0)))
                for _ in range(arms)]
    else:  # absolute: r0 at epoch 1 with no decrement, at a level's loss or the next double either side
        scheme, epoch, losses = Scheme.LL_R_ABS, 1, -np.log(np.subtract(1.0, levels))
        at = [float(draw(st.sampled_from(list(losses)))) for _ in range(arms)]
        cfgs = [cfg("ll-r-abs", r0=loss if side is None else float(np.nextafter(loss, side)), delta_abs=0.0)
                for loss, side in zip(at, draw(st.lists(st.sampled_from([None, -np.inf, np.inf]), min_size=arms, max_size=arms)))]
    orders = [rng.permutation(n) for _ in range(arms)]
    cuts = draw(st.just([]) | st.lists(st.integers(1, max(1, n - 1)), max_size=6))  # one batch: from 512 candidates a partition
    if lone:
        return scheme, states[0], cfgs[0], epoch, orders, cuts, probs[:, 0]
    return scheme, states, cfgs, epoch, orders, cuts, probs


class TestStackedSelection:
    @given(case=stacked_selections())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_each_arm_flags_what_its_own_selection_flags_at_the_same_threshold(self, case):
        """Per batch and arm, the stack's one selection flags exactly what `select_large_losses` flags over that arm's
        candidates alone, and the smallest AN loss flagged is its threshold, bit for bit (NaN: nothing or a NaN
        loss); an absolute schedule's threshold is the plan's."""
        scheme, states, cfgs, epoch, orders, cuts, probs = case
        arms, (n, k) = len(orders), states.shape[-2:]
        bounds = sorted({0, n, *(cut for cut in cuts if cut < n)})
        batches = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        visit = np.stack([order + r * n for r, order in enumerate(orders)], axis=1).reshape(-1)
        planned = plan_epoch(plan_rows(scheme, states, cfgs), epoch, visit, batches)
        flags = np.zeros(probs.shape, dtype=bool)
        by_arm = states.reshape(arms, n, k)
        for i, batch in enumerate(batches):
            decide_planned(planned, i, probs, flags)
            for r in range(arms):
                visited = by_arm[r][orders[r][batch]]  # the arm's states of the batch's rows, in visiting order
                arm_probs = probs.reshape(n, arms, k)[batch, r]
                candidates = np.flatnonzero(visited == U)
                losses = -np.log(np.subtract(1.0, arm_probs.reshape(-1)[candidates]))
                rate, threshold = (planned.rate or [None] * arms)[r], (planned.threshold or [None] * arms)[r]
                want, want_threshold = select_large_losses(losses, candidates, rate, threshold, np.zeros((batch.stop - batch.start, k), dtype=bool))
                got = flags.reshape(n, arms, k)[batch, r]
                assert np.array_equal(got, want), (i, r)
                flagged = -np.log(np.subtract(1.0, arm_probs[got]))
                got_threshold = threshold if rate is None else float(flagged.min()) if flagged.size else math.nan
                assert repr(got_threshold) == repr(want_threshold), (i, r)


class TestQuota:
    def test_floor_of_the_rate_share(self):
        assert quota(0.2, 160) == 0
        assert quota(0.7, 144) == 1
        assert quota(25.0, 4) == 1
        assert quota(40.0, 5) == 2
        assert quota(100.0, 7) == 7
        assert quota(50.0, 0) == 0

    @given(rate=st.floats(0.0, 100.0), m=st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_never_above_the_unknown_count(self, rate, m):
        assert 0 <= quota(rate, m) <= m
        assert quota(rate, m) == min(math.floor(rate / 100.0 * m), m)


class TestDegenerateEquivalences:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.probs = rng.uniform(0.05, 0.95, size=(6, 5))
        self.states = rng.choice([int(U), int(P), int(N)], size=(6, 5)).astype(np.int8)

    def equal_decisions(self, a: Decision, b: Decision):
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.flags, b.flags)

    def test_ll_r_with_zero_delta_is_naive(self):
        for epoch in (1, 7, 30):
            a = decide_batch(Scheme.LL_R, self.probs, self.states, epoch, cfg("ll-r", delta_rel=0.0))
            b = decide_batch(Scheme.NAIVE_AN, self.probs, self.states, epoch, cfg("naive-an"))
            self.equal_decisions(a, b)

    def test_lsan_with_zero_eps_is_naive(self):
        a = decide_batch(Scheme.LSAN, self.probs, self.states, 3, cfg("lsan", eps_smooth=0.0))
        b = decide_batch(Scheme.NAIVE_AN, self.probs, self.states, 3, cfg("naive-an"))
        self.equal_decisions(a, b)

    def test_gradients_match_bitwise(self):
        model = init_classifier("linear", 3, 5, seed=2)
        x = np.random.default_rng(4).standard_normal((6, 3))
        a = decide_batch(Scheme.LL_R, self.probs, self.states, 9, cfg("ll-r", delta_rel=0.0))
        b = decide_batch(Scheme.NAIVE_AN, self.probs, self.states, 9, cfg("naive-an"))
        ga = backward(model, x, a.targets, a.weights)
        gb = backward(model, x, b.targets, b.weights)
        for name in ga:
            assert np.array_equal(ga[name], gb[name])


class TestRejectionMasksGradient:
    def test_zero_weight_equals_removing_the_element(self):
        rng = np.random.default_rng(6)
        model = init_classifier("linear", 3, 4, seed=6)
        x = rng.standard_normal((5, 3))
        targets = rng.integers(0, 2, size=(5, 4)).astype(float)
        weights = np.ones((5, 4))
        weights[2, 1] = 0.0
        weights[4, 3] = 0.0
        masked = backward(model, x, targets, weights)
        # independently knock the same elements out by zeroing their bce term:
        # with weights constant, dropping an element equals zero-weighting it
        direct = backward(model, x, targets, np.ones((5, 4)))
        removed_only = backward(model, x, targets, np.ones((5, 4)) - (weights == 0.0))
        for name in masked:
            assert np.array_equal(masked[name], removed_only[name])
        assert any(not np.array_equal(masked[k], direct[k]) for k in masked)


class TestApplyPermanentCorrections:
    def make_ds(self):
        states = np.array([[U, U, P], [N, U, U]], dtype=np.int8)
        return PartialDataset(np.zeros((2, 3)), states)

    def test_empty_flags_mutate_nothing(self):
        ds = self.make_ds()
        before = ds.states.copy()
        assert apply_permanent_corrections(ds.states, np.zeros((2, 3), dtype=bool)) == 0
        assert np.array_equal(ds.states, before)

    def test_corrections_are_permanent_and_visible(self):
        ds = self.make_ds()
        flags = np.zeros((2, 3), dtype=bool)
        flags[0, 0] = True
        assert apply_permanent_corrections(ds.states, flags) == 1
        assert ds.states[0, 0] == C
        assert an_targets_from_states(ds.states)[0, 0] == 1.0

    def test_flag_on_non_unknown_is_contract_violation(self):
        ds = self.make_ds()
        flags = np.zeros((2, 3), dtype=bool)
        flags[0, 2] = True
        with pytest.raises(ValueError, match="illegal state transition"):
            apply_permanent_corrections(ds.states, flags)

    def test_corrected_entry_cannot_be_flagged_again(self):
        ds = self.make_ds()
        flags = np.zeros((2, 3), dtype=bool)
        flags[1, 1] = True
        apply_permanent_corrections(ds.states, flags)
        with pytest.raises(ValueError):
            apply_permanent_corrections(ds.states, flags)


class TestSchemeTable:
    def test_every_scheme_has_exactly_one_spec(self):
        assert list(SPECS) == list(Scheme)

    def test_entries_use_the_documented_vocabulary(self):
        for scheme, spec in SPECS.items():
            assert spec.target in ("an", "smoothed"), scheme
            assert spec.weight in ("ones", "ignore-unknown", "wan"), scheme
            assert spec.action in ("none", "reject", "temporary", "permanent"), scheme
            assert spec.schedule in ("none", "relative", "absolute"), scheme
            # a large-loss action needs a schedule that selects, and vice versa
            assert (spec.action == "none") == (spec.schedule == "none"), scheme
            assert spec.reads <= {"delta_rel", "r0", "delta_abs", "eps_smooth"}, scheme


class TestConfigValidation:
    def test_negative_delta_rel_rejected(self):
        for value in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                cfg("ll-r", delta_rel=value).validate()

    def test_zero_delta_rel_allowed(self):
        cfg("ll-r", delta_rel=0.0).validate()

    def test_absolute_needs_positive_r0(self):
        for kw in ({"r0": 0.0}, {"r0": float("nan")}, {"r0": float("inf")},
                   {"delta_abs": float("nan")}, {"delta_abs": float("inf")}):
            with pytest.raises(ValueError):
                cfg("ll-ct-abs", **kw).validate()

    def test_eps_smooth_range(self):
        with pytest.raises(ValueError):
            cfg("lsan", eps_smooth=0.5).validate()
        cfg("lsan", eps_smooth=0.0).validate()
