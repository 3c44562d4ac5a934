import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsml.dataset import LabelState, PartialDataset
from wsml.model import backward, init_classifier
from wsml.schemes import (
    SPECS,
    BatchDecision,
    Scheme,
    SchemeConfig,
    apply_permanent_corrections,
    bce_elementwise,
    decide_batch,
    rejection_rate,
    select_large_losses,
)

U = LabelState.UNKNOWN
P = LabelState.OBS_POS
N = LabelState.OBS_NEG
C = LabelState.CORRECTED_POS


def cfg(scheme, **kw):
    return SchemeConfig(Scheme(scheme), **kw)


class TestBce:
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


class TestSelectLargeLosses:
    def test_top_k_with_reported_threshold(self):
        losses = np.array([[0.2, 1.5, 0.7, 2.1, 0.4]])
        states = np.full((1, 5), U, dtype=np.int8)
        flags, threshold = select_large_losses(losses, states, rate=40.0)
        assert flags.sum() == 2
        assert flags[0, 3] and flags[0, 1]
        assert threshold == 1.5

    def test_zero_rate_flags_nothing(self):
        losses = np.ones((2, 3))
        states = np.full((2, 3), U, dtype=np.int8)
        flags, threshold = select_large_losses(losses, states, rate=0.0)
        assert not flags.any()
        assert math.isnan(threshold)

    def test_absolute_mode_is_strict(self):
        losses = np.array([[1.19, 1.2, 1.21]])
        states = np.full((1, 3), U, dtype=np.int8)
        flags, threshold = select_large_losses(losses, states, threshold=1.2)
        assert threshold == 1.2
        assert list(flags[0]) == [False, False, True]

    def test_observed_entries_never_selected(self):
        losses = np.array([[9.0, 1.0], [8.0, 2.0]])
        states = np.array([[P, U], [C, U]], dtype=np.int8)
        flags, _ = select_large_losses(losses, states, rate=100.0)
        assert not flags[0, 0] and not flags[1, 0]
        assert flags[0, 1] and flags[1, 1]

    def test_tie_break_prefers_ascending_index(self):
        losses = np.array([[1.0, 1.0], [1.0, 0.5]])
        states = np.full((2, 2), U, dtype=np.int8)
        flags, _ = select_large_losses(losses, states, rate=50.0)
        # two of the three tied 1.0 losses win; (0,0) then (0,1) by index order
        assert flags[0, 0] and flags[0, 1] and not flags[1, 0]

    def test_requires_exactly_one_mode(self):
        losses = np.zeros((1, 2))
        states = np.full((1, 2), U, dtype=np.int8)
        with pytest.raises(ValueError):
            select_large_losses(losses, states)
        with pytest.raises(ValueError):
            select_large_losses(losses, states, rate=1.0, threshold=1.0)

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
        flags, threshold = select_large_losses(losses, states, rate=rate)
        m = int((states == U).sum())
        expected = min(int((rate / 100.0) * m), m)
        assert int(flags.sum()) == expected
        assert not (flags & (states != U)).any()
        if expected:
            assert threshold == losses[flags].min()
        else:
            assert math.isnan(threshold)


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


class TestDegenerateEquivalences:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.probs = rng.uniform(0.05, 0.95, size=(6, 5))
        self.states = rng.choice([int(U), int(P), int(N)], size=(6, 5)).astype(np.int8)

    def equal_decisions(self, a: BatchDecision, b: BatchDecision):
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
        assert apply_permanent_corrections(ds, np.zeros((2, 3), dtype=bool)) == 0
        assert np.array_equal(ds.states, before)

    def test_corrections_are_permanent_and_visible(self):
        ds = self.make_ds()
        flags = np.zeros((2, 3), dtype=bool)
        flags[0, 0] = True
        assert apply_permanent_corrections(ds, flags) == 1
        assert ds.states[0, 0] == C
        assert ds.an_targets()[0, 0] == 1.0

    def test_flag_on_non_unknown_is_contract_violation(self):
        ds = self.make_ds()
        flags = np.zeros((2, 3), dtype=bool)
        flags[0, 2] = True
        with pytest.raises(ValueError, match="illegal state transition"):
            apply_permanent_corrections(ds, flags)

    def test_corrected_entry_cannot_be_flagged_again(self):
        ds = self.make_ds()
        flags = np.zeros((2, 3), dtype=bool)
        flags[1, 1] = True
        apply_permanent_corrections(ds, flags)
        with pytest.raises(ValueError):
            apply_permanent_corrections(ds, flags)


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
        with pytest.raises(ValueError):
            cfg("ll-r", delta_rel=-0.1).validate()

    def test_zero_delta_rel_allowed(self):
        cfg("ll-r", delta_rel=0.0).validate()

    def test_absolute_needs_positive_r0(self):
        with pytest.raises(ValueError):
            cfg("ll-ct-abs", r0=0.0).validate()

    def test_eps_smooth_range(self):
        with pytest.raises(ValueError):
            cfg("lsan", eps_smooth=0.5).validate()
        cfg("lsan", eps_smooth=0.0).validate()
