import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsml import dataset as ds_mod
from wsml.dataset import (
    FormatError,
    LabelState,
    PartialDataset,
    SyntheticSpec,
    an_targets_from_states,
    generate_synthetic,
    load_dataset,
    make_fraction_observed,
    make_single_positive,
    save_dataset,
    sigmoid,
    subsample_indices,
)
from wsml.cli import main
from wsml.schemes import apply_permanent_corrections

U = LabelState.UNKNOWN
P = LabelState.OBS_POS
N = LabelState.OBS_NEG
C = LabelState.CORRECTED_POS


def small_dataset(truth=None):
    features = np.arange(8, dtype=float).reshape(4, 2)
    states = np.array([[P, N, U], [U, P, C], [N, N, P], [U, U, U]], dtype=np.int8)
    if truth is None:
        truth = np.array([[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 0]], dtype=np.int8)
    return PartialDataset(features, states, truth)


def fully_observed(truth, seed=0):
    rng = np.random.default_rng(seed)
    truth = np.asarray(truth, dtype=np.int8)
    states = np.where(truth == 1, P, N).astype(np.int8)
    return PartialDataset(rng.standard_normal((truth.shape[0], 3)), states, truth)


def test_plain_state_codes_match_the_enum():
    codes = (ds_mod.OBS_NEG, ds_mod.OBS_POS, ds_mod.UNKNOWN, ds_mod.CORRECTED_POS)
    assert codes == (N, P, U, C)
    assert all(type(code) is int for code in codes)


class TestPartialDataset:
    def test_validates_dimensions(self):
        with pytest.raises(ValueError):
            PartialDataset(np.zeros((0, 2)), np.zeros((0, 2), dtype=np.int8))
        with pytest.raises(ValueError, match="K >= 2"):
            PartialDataset(np.zeros((3, 2)), np.full((3, 1), U, dtype=np.int8))

    def test_rejects_nonfinite_features(self):
        feats = np.zeros((2, 2))
        feats[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            PartialDataset(feats, np.full((2, 2), U, dtype=np.int8))

    @pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (2, 1)])
    def test_rejects_any_nonfinite_feature_anywhere(self, value, where):
        feats = np.arange(6, dtype=float).reshape(3, 2)
        feats[where] = value
        with pytest.raises(ValueError, match="non-finite"):
            PartialDataset(feats, np.full((3, 2), U, dtype=np.int8))

    @pytest.mark.parametrize("code", [-1, 4, 127])
    def test_rejects_state_codes_outside_the_label_states(self, code):
        states = np.array([[U, P], [N, C]], dtype=np.int8)
        states[1, 1] = code
        with pytest.raises(ValueError, match="outside the LabelState set"):
            PartialDataset(np.zeros((2, 2)), states)

    @pytest.mark.parametrize("label", [-1, 2])
    def test_rejects_non_binary_truth(self, label):
        with pytest.raises(ValueError, match="truth must be binary"):
            PartialDataset(np.zeros((2, 2)), np.full((2, 2), U, dtype=np.int8), np.array([[0, 1], [label, 0]]))

    def test_validation_allocates_no_feature_sized_mask(self):
        rng = np.random.default_rng(0)
        n, d, k = 2000, 200, 10
        truth = (rng.uniform(size=(n, k)) < 0.3).astype(np.int8)
        states = np.where(rng.uniform(size=(n, k)) < 0.5, truth, U).astype(np.int8)
        ds = PartialDataset(rng.standard_normal((n, d)), states, truth)
        tracemalloc.start()
        try:
            ds.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * d, peak  # one byte per feature: what an isfinite mask alone takes

    def test_rejects_truth_disagreement(self):
        states = np.array([[P, N]], dtype=np.int8)
        with pytest.raises(ValueError, match="disagrees"):
            PartialDataset(np.zeros((1, 2)), states, np.array([[0, 0]]))
        with pytest.raises(ValueError, match="disagrees"):
            PartialDataset(np.zeros((1, 2)), states, np.array([[1, 1]]))

    def test_corrected_positive_needs_no_truth_agreement(self):
        states = np.array([[C, N]], dtype=np.int8)
        PartialDataset(np.zeros((1, 2)), states, np.array([[0, 0]]))

    def test_an_targets_by_cases(self):
        ds = small_dataset()
        expected = np.array([[1, 0, 0], [0, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=float)
        assert np.array_equal(an_targets_from_states(ds.states), expected)

    def test_an_targets_all_unknown_row_is_zero(self):
        states = np.full((1, 4), U, dtype=np.int8)
        assert np.array_equal(an_targets_from_states(states), np.zeros((1, 4)))


class TestStateTransitions:
    def test_unknown_to_corrected_is_allowed(self):
        ds = small_dataset()
        mask = np.zeros_like(ds.states, dtype=bool)
        mask[3, 0] = True
        assert apply_permanent_corrections(ds.states, mask) == 1
        assert ds.states[3, 0] == C

    @pytest.mark.parametrize("state", [P, N, C])
    def test_every_other_source_state_is_rejected(self, state):
        states = np.full((2, 2), U, dtype=np.int8)
        states[0, 0] = state
        ds = PartialDataset(np.zeros((2, 2)), states)
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(ValueError, match="illegal state transition"):
            apply_permanent_corrections(ds.states, mask)

    @given(st.integers(0, 3), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_transition_lattice(self, state_code, row, col):
        states = np.full((6, 6), U, dtype=np.int8)
        states[row, col] = state_code
        ds = PartialDataset(np.zeros((6, 6)), states)
        mask = np.zeros((6, 6), dtype=bool)
        mask[row, col] = True
        if state_code == int(U):
            apply_permanent_corrections(ds.states, mask)
            assert ds.states[row, col] == C
        else:
            before = ds.states.copy()
            with pytest.raises(ValueError):
                apply_permanent_corrections(ds.states, mask)
            assert np.array_equal(ds.states, before)


def two_branch_sigmoid(z):
    """The former sigmoid: one boolean-mask gather per sign of z."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bit_identical_to_the_two_branch_formula():
    edges = [0.0, -0.0, 1e-320, -1e-320, 1e-300, -1e-300, 40.0, -40.0, np.inf, -np.inf, 800.0, -800.0]
    rng = np.random.default_rng(0)
    z = np.concatenate([edges, np.linspace(-800.0, 800.0, 160_001), rng.uniform(-40.0, 40.0, 20_000)])
    assert sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()
    for shape in ((16, 10), (2000, 10)):  # a training batch and a whole-corpus pass
        batch = rng.standard_normal(shape) * 5.0
        assert sigmoid(batch).tobytes() == two_branch_sigmoid(batch).tobytes()
    # written over the logits themselves, as the forward pass does: the same bits
    logits = z.copy()
    assert sigmoid(logits, out=logits) is logits and logits.tobytes() == two_branch_sigmoid(z).tobytes()


class TestGenerateSynthetic:
    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=0, dim=2, classes=3, pos_rate=0.4).validate()
        with pytest.raises(ValueError):
            SyntheticSpec(n=2, dim=2, classes=1, pos_rate=0.9).validate()
        with pytest.raises(ValueError, match="at least one expected positive"):
            SyntheticSpec(n=2, dim=2, classes=3, pos_rate=0.1).validate()
        for temperature in (0.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="temperature"):
                SyntheticSpec(n=2, dim=2, classes=3, pos_rate=0.5, temperature=temperature).validate()
        for pos_rate in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="pos_rate"):
                SyntheticSpec(n=2, dim=2, classes=3, pos_rate=pos_rate).validate()

    def test_every_row_has_a_positive(self):
        ds = generate_synthetic(SyntheticSpec(n=4, dim=2, classes=3, pos_rate=0.4, seed=7))
        assert ds.truth.shape == (4, 3)
        assert (ds.truth.sum(axis=1) >= 1).all()
        assert ds.fully_observed()
        assert np.array_equal(an_targets_from_states(ds.states), ds.truth)

    def test_positive_rate_is_calibrated(self):
        ds = generate_synthetic(SyntheticSpec(n=2000, dim=20, classes=10, pos_rate=0.3, seed=1))
        assert 0.27 <= ds.truth.mean() <= 0.33

    def test_deterministic(self):
        spec = SyntheticSpec(n=50, dim=4, classes=5, pos_rate=0.35, seed=11)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.truth, b.truth)


def full_bisection(base_logits, uniforms, temperature, target_rate):
    """The bias-shift bisection with every rate a sigmoid pass over all entries."""

    def rate(c):
        return float(np.mean(uniforms < sigmoid((base_logits + c) / temperature)))

    lo, hi = -1.0, 1.0
    while rate(lo) > target_rate and lo > -1e9:
        lo *= 2.0
    while rate(hi) < target_rate and hi < 1e9:
        hi *= 2.0
    best_c, best_err = 0.0, abs(rate(0.0) - target_rate)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = rate(mid)
        err = abs(r - target_rate)
        if err < best_err:
            best_c, best_err = mid, err
        if r < target_rate:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return best_c


@given(
    n=st.integers(1, 3000),
    k=st.integers(2, 30),
    d=st.integers(1, 50),
    temperature=st.floats(0.05, 20.0),
    share=st.floats(0.0, 1.0),  # of the way from one positive a row (1/K) to 0.99
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_bias_shift_has_the_bits_of_the_full_bisection(n, k, d, temperature, share, seed):
    # the corpus draws of generate_synthetic; a target rate near 1/K doubles the lower
    # bracket end, near 0.99 the upper one, and more often the higher the temperature
    rng = np.random.default_rng(seed)
    weights, bias = rng.standard_normal((k, d)), rng.standard_normal(k)
    base = rng.standard_normal((n, d)) @ weights.T + bias
    uniforms = rng.uniform(size=(n, k))
    target = 1.0 / k + share * (0.99 - 1.0 / k)
    got = ds_mod._calibrate_bias_shift(base, uniforms, temperature, target)
    assert np.float64(got).tobytes() == np.float64(full_bisection(base, uniforms, temperature, target)).tobytes()


def per_row_single_positive(full, seed):
    """Reference: one rng.integers draw per row, in row order."""
    rng = np.random.default_rng(seed)
    states = np.full(full.states.shape, U, dtype=np.int8)
    for i in range(full.n):
        pos = np.flatnonzero(full.states[i] == P)
        if pos.size == 0:
            raise ValueError(f"sample {i} has no positive label to retain")
        states[i, pos[rng.integers(pos.size)]] = P
    return states


class TestMakeSinglePositive:
    def test_single_positive_row_is_forced(self):
        ds = fully_observed([[0, 1, 0, 0]])
        sp = make_single_positive(ds, seed=3)
        assert list(sp.states[0]) == [U, P, U, U]

    def test_exactly_one_positive_kept_per_row(self):
        ds = fully_observed([[1, 0, 1, 1], [1, 1, 0, 0]])
        sp = make_single_positive(ds, seed=5)
        assert ((sp.states == P).sum(axis=1) == 1).all()
        kept = sp.states == P
        assert (ds.truth[kept] == 1).all()
        assert ((sp.states == U) | (sp.states == P)).all()

    def test_retained_positive_is_uniform(self):
        # one call over many identical rows stands in for many seeded calls
        truth = np.tile([1, 0, 1, 1], (10_000, 1))
        sp = make_single_positive(fully_observed(truth), seed=123)
        freq = (sp.states == P).mean(axis=0)
        for col in (0, 2, 3):
            assert abs(freq[col] - 1 / 3) < 0.02
        assert freq[1] == 0.0

    def test_zero_positive_row_names_the_sample(self):
        truth = np.array([[1, 0], [0, 0]], dtype=np.int8)
        states = np.where(truth == 1, P, N).astype(np.int8)
        ds = PartialDataset(np.zeros((2, 2)), states, truth)
        with pytest.raises(ValueError, match="sample 1"):
            make_single_positive(ds, seed=0)

    def test_first_zero_positive_row_is_named(self):
        truth = np.array([[1, 0], [1, 1], [0, 0], [1, 0], [0, 0]], dtype=np.int8)
        ds = PartialDataset(np.zeros((5, 2)), np.where(truth == 1, P, N).astype(np.int8), truth)
        with pytest.raises(ValueError, match="^sample 2 has no positive label to retain$"):
            make_single_positive(ds, seed=0)

    @pytest.mark.parametrize("k", [2, 3, 5, 10, 20, 37, 50])
    @pytest.mark.parametrize("seed", [0, 1, 9, 123, 40_000])
    def test_matches_the_per_row_loop_bit_for_bit(self, k, seed):
        rng = np.random.default_rng([seed, k])
        truth = (rng.uniform(size=(400, k)) < rng.uniform(0.05, 0.8)).astype(np.int8)
        single = np.arange(0, 400, 3)  # every third row holds a single positive
        truth[single] = 0
        truth[single, rng.integers(k, size=single.size)] = 1
        truth[truth.sum(axis=1) == 0, rng.integers(k)] = 1
        ds = fully_observed(truth, seed=seed)
        assert np.array_equal(make_single_positive(ds, seed).states, per_row_single_positive(ds, seed))

    def test_requires_fully_observed(self):
        with pytest.raises(ValueError, match="fully observed"):
            make_single_positive(small_dataset(), seed=0)

    def test_truth_preserved_and_deterministic(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 2, size=(6, 4)).astype(np.int8)
        truth[truth.sum(axis=1) == 0, 0] = 1
        ds = fully_observed(truth)
        a = make_single_positive(ds, seed=9)
        b = make_single_positive(ds, seed=9)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.truth, ds.truth)


class TestMakeFractionObserved:
    def test_identity_at_full_fraction(self):
        ds = fully_observed(np.array([[1, 0, 1, 0], [0, 1, 0, 0], [1, 1, 0, 1]], dtype=np.int8))
        out = make_fraction_observed(ds, 1.0, seed=0)
        for name in ("features", "states", "truth"):  # the same dataset, bit for bit, in arrays of its own
            mine, theirs = getattr(out, name), getattr(ds, name)
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
            assert not np.shares_memory(mine, theirs), name

    def test_exact_observed_count(self):
        ds = fully_observed(np.ones((10, 10), dtype=np.int8))
        out = make_fraction_observed(ds, 0.25, seed=2)
        assert int((out.states != U).sum()) == 25

    def test_one_percent_of_5000(self):
        ds = fully_observed(np.ones((100, 50), dtype=np.int8))
        out = make_fraction_observed(ds, 0.01, seed=4)
        assert int((out.states != U).sum()) == 50

    def test_rejects_bad_fraction(self):
        ds = fully_observed(np.ones((2, 3), dtype=np.int8))
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                make_fraction_observed(ds, bad, seed=0)


class TestSubsample:
    def test_identity_and_count(self):
        ds = fully_observed(np.ones((100, 3), dtype=np.int8))
        assert ds.take(subsample_indices(ds.n, 1.0, seed=0)).n == 100
        assert ds.take(subsample_indices(ds.n, 0.1, seed=0)).n == 10

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError, match="keeps nothing"):
            subsample_indices(5, 0.1, seed=0)

    def test_deterministic(self):
        ds = fully_observed(np.ones((40, 3), dtype=np.int8), seed=8)
        a = ds.take(subsample_indices(ds.n, 0.5, seed=17))
        b = ds.take(subsample_indices(ds.n, 0.5, seed=17))
        assert np.array_equal(a.features, b.features)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "d.wsml"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.states, ds.states)
        assert np.array_equal(back.truth, ds.truth)
        assert np.array_equal(back.features, ds.features)

    def test_round_trip_without_truth(self, tmp_path):
        ds = PartialDataset(np.array([[0.1, -2.5e-7], [3.0, 4.0]]), np.full((2, 2), U, dtype=np.int8))
        path = tmp_path / "d.wsml"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.truth is None
        assert np.array_equal(back.features, ds.features)

    def test_an_targets_survive_round_trip(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "d.wsml"
        save_dataset(ds, path)
        assert np.array_equal(an_targets_from_states(load_dataset(path).states), an_targets_from_states(ds.states))

    def test_comment_lines_are_skipped(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "d.wsml"
        save_dataset(ds, path, config_comment='{"cmd": "gen"}')
        assert "#cfg" in path.read_text()
        assert np.array_equal(load_dataset(path).states, ds.states)

    def test_missing_feature_row_reports_line_5(self, tmp_path):
        path = tmp_path / "bad.wsml"
        path.write_text("WSML/1\n3 2 4\n0 0\n1 1\n")
        with pytest.raises(FormatError) as err:
            load_dataset(path)
        assert err.value.line == 5

    def test_illegal_state_token_named(self, tmp_path):
        path = tmp_path / "bad.wsml"
        path.write_text("WSML/1\n1 1 2\n0\n2 u\n")
        # K=1 is caught first; use a valid shape
        path.write_text("WSML/1\n1 2 2\n0 0\n2 u\n")
        with pytest.raises(FormatError, match="'2'"):
            load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.wsml"
        path.write_text("WSML/999\n1 2 2\n0 0\nu u\n")
        with pytest.raises(FormatError, match="header"):
            load_dataset(path)

    def test_wrong_feature_count(self, tmp_path):
        path = tmp_path / "bad.wsml"
        path.write_text("WSML/1\n1 2 2\n0 0 0\nu u\n")
        with pytest.raises(FormatError, match="expected 2 feature values"):
            load_dataset(path)

    def test_state_disagreeing_with_truth_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.wsml"
        # the second state row observes a positive that the truth section denies
        path.write_text("WSML/1\n# note\n2 1 2\n0\n0\nu 1\n1 u\nTRUTH\n0 1\n0 1\n")
        with pytest.raises(FormatError, match="disagrees") as err:
            load_dataset(path)
        assert err.value.line == 7
        argv = ["partialize", "--in", str(path), "--mode", "single-positive", "--seed", "1", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "line 7:" in capsys.readouterr().err

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "bad.wsml"
        path.write_text("WSML/1\n1 2 2\n0 0\nu u\nTRUTH\n0 0\nleftover\n")
        with pytest.raises(FormatError, match="trailing"):
            load_dataset(path)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        n, d, k = rng.integers(1, 8), rng.integers(1, 5), rng.integers(2, 6)
        truth = rng.integers(0, 2, size=(n, k)).astype(np.int8)
        choice = rng.integers(0, 3, size=(n, k))
        states = np.where(choice == 0, np.where(truth == 1, P, N), np.where(choice == 1, U, C)).astype(np.int8)
        scale = 10.0 ** rng.integers(-8, 8)
        ds = PartialDataset(rng.standard_normal((n, d)) * scale, states, truth)
        path = tmp_path_factory.mktemp("rt") / "d.wsml"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.states, ds.states)
        assert np.array_equal(back.truth, ds.truth)
