import dataclasses
import importlib.util
import pathlib
import pickle
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsml import model as model_mod, schemes, trainer as trainer_mod
from wsml.dataset import LabelState, PartialDataset, SyntheticSpec, generate_synthetic, make_single_positive
from wsml.evaluation import average_precision
from wsml.schemes import Scheme, SchemeConfig
from wsml.trainer import (
    MemorizationTracker,
    TrainConfig,
    TrainingDiverged,
    run,
    split,
    split_indices,
)

U = LabelState.UNKNOWN
P = LabelState.OBS_POS
N = LabelState.OBS_NEG
C = LabelState.CORRECTED_POS


# loaded by path, as test_reference.py does: perfbench has a module named `reference`
_spec = importlib.util.spec_from_file_location("trainer_reference", pathlib.Path(__file__).with_name("reference.py"))
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def tiny_partial(n=40, d=4, k=5, seed=0):
    full = generate_synthetic(SyntheticSpec(n=n, dim=d, classes=k, pos_rate=0.45, seed=seed))
    return make_single_positive(full, seed=seed)


def config(token="naive-an", **kw):
    scheme_kw = {key: kw.pop(key) for key in ("delta_rel", "r0", "delta_abs", "eps_smooth") if key in kw}
    defaults = dict(epochs=3, batch_size=8, seed=1, arch="linear", hidden=4)
    defaults.update(kw)
    return TrainConfig(scheme=SchemeConfig(Scheme(token), **scheme_kw), **defaults)


class TestSplit:
    def test_sizes(self):
        ds = tiny_partial(n=100)
        train, val = split(ds, 0.2, seed=0)
        assert train.n == 80 and val.n == 20

    def test_partition_of_indices(self):
        keep, out = split_indices(100, 0.2, seed=3)
        union = np.union1d(keep, out)
        assert np.array_equal(union, np.arange(100))
        assert np.intersect1d(keep, out).size == 0

    def test_deterministic(self):
        a = split_indices(50, 0.3, seed=7)
        b = split_indices(50, 0.3, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="empty side"):
            split_indices(3, 0.01, seed=0)


class TestModificationPrecision:
    """Each record's `flag_precision`: the share of flagged entries that are true positives."""

    def test_per_epoch_ratio(self):
        rep = run(config("ll-r", delta_rel=30.0, epochs=4), tiny_partial(n=60, seed=2))
        flagged = [r for r in rep.records if r.flags > 0]
        assert flagged
        assert all(r.flag_precision == r.flags_true_pos / r.flags for r in flagged)

    def test_zero_flags_is_absent_not_zero(self):
        for token, kw in (("ll-r", dict(delta_rel=30.0)), ("ll-cp", dict(delta_rel=30.0)), ("naive-an", {})):
            rep = run(config(token, epochs=3, **kw), tiny_partial(n=60, seed=2))
            assert rep.records[0].flags == 0  # the first epoch never selects
            assert rep.records[0].flag_precision is None
            if token == "naive-an":
                assert all(r.flag_precision is None for r in rep.records)
        ds = tiny_partial(n=60, seed=2)
        rep = run(config("ll-r", delta_rel=30.0, epochs=4), dataclasses.replace(ds, truth=None))
        assert any(r.flags > 0 for r in rep.records)
        assert all(r.flags_true_pos is None and r.flag_precision is None for r in rep.records)

    @pytest.mark.parametrize("granularity", ["epoch", "batch"])
    def test_cumulative_running_ratio(self, granularity):
        rep = run(config("ll-cp", delta_rel=30.0, epochs=5, llcp_granularity=granularity), tiny_partial(n=60, seed=5))
        hits = np.cumsum([r.flags_true_pos for r in rep.records])
        assert rep.records[-1].cum_corrections > 0
        for record, hit in zip(rep.records, hits):
            expected = int(hit) / record.cum_corrections if record.cum_corrections else None
            assert record.flag_precision == expected


class TestMemorizationTracker:
    def test_running_max_keeps_first_epoch_on_ties(self):
        t = MemorizationTracker(1, 2)
        t.update(np.array([[1.0, 0.5]]), 1)
        t.update(np.array([[1.0, 0.7]]), 2)
        assert t.argmax_epoch[0, 0] == 1  # tie stays at the first epoch
        assert t.argmax_epoch[0, 1] == 2
        assert t.max_loss[0, 1] == 0.7
        assert t.epochs_tracked == 2

    def test_max_is_nondecreasing(self):
        t = MemorizationTracker(1, 1)
        t.update(np.array([[2.0]]), 1)
        t.update(np.array([[1.0]]), 2)
        assert t.max_loss[0, 0] == 2.0

    @given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 14), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_one_fold_per_epoch_equals_the_per_batch_folds(self, n, k, batch_size, epochs, seed):
        rng = np.random.default_rng(seed)
        per_epoch, per_batch = MemorizationTracker(n, k), MemorizationTracker(n, k)
        for epoch in range(1, epochs + 1):
            order = rng.permutation(n)
            # few distinct values, so losses tie across epochs and with the -inf start
            seen = rng.choice([-np.inf, 0.0, 0.5, 1.0], size=(n, k))
            by_row = np.empty_like(seen)
            by_row[order] = seen  # as the trainer hands them over
            per_epoch.update(by_row, epoch)
            per_batch_fold(per_batch, order, seen, epoch, batch_size)
            assert per_epoch.max_loss.tobytes() == per_batch.max_loss.tobytes()
            assert per_epoch.argmax_epoch.tobytes() == per_batch.argmax_epoch.tobytes()


def per_batch_fold(tracker, order, seen, epoch, batch_size):
    """The tracker fold as the training loop ran it once per batch, before the
    per-epoch fold replaced it: `seen` holds the losses in visiting order."""
    for start in range(0, len(order), batch_size):
        rows, losses = order[start:start + batch_size], seen[start:start + batch_size]
        block = tracker.max_loss[rows]
        bigger = losses > block
        tracker.max_loss[rows] = np.where(bigger, losses, block)
        tracker.argmax_epoch[rows] = np.where(bigger, epoch, tracker.argmax_epoch[rows])


class TestRunBasics:
    def test_single_epoch_best_is_one(self):
        rep = run(config(epochs=1), tiny_partial())
        assert rep.best_epoch == 1
        assert len(rep.records) == 1

    def test_identical_runs_are_identical(self):
        ds = tiny_partial()
        a = run(config("ll-ct", delta_rel=2.0, epochs=4), ds)
        b = run(config("ll-ct", delta_rel=2.0, epochs=4), ds)
        assert [r.train_loss for r in a.records] == [r.train_loss for r in b.records]
        assert [r.val_map for r in a.records] == [r.val_map for r in b.records]
        assert a.best_epoch == b.best_epoch
        for name in a.best_model.params:
            assert np.array_equal(a.best_model.params[name], b.best_model.params[name])

    def test_best_epoch_maximizes_val_map_earliest(self):
        rep = run(config(epochs=5), tiny_partial())
        maps = [r.val_map for r in rep.records]
        assert rep.best_val_map == max(maps)
        assert rep.best_epoch == maps.index(max(maps)) + 1

    def test_epoch_prefix_is_stable(self):
        ds = tiny_partial()
        short = run(config(epochs=2), ds)
        long = run(config(epochs=5), ds)
        for a, b in zip(short.records, long.records[:2]):
            assert a.train_loss == b.train_loss
            assert a.val_map == b.val_map

    def test_divergence_aborts_with_epoch(self, monkeypatch):
        # the probability clamp keeps ordinary training finite, so poison a
        # parameter to exercise the non-finite-loss guard
        from wsml.model import init_classifier

        def poisoned(*args, **kwargs):
            m = init_classifier(*args, **kwargs)
            next(iter(m.params.values()))[0, 0] = np.nan
            return m

        monkeypatch.setattr(trainer_mod.model_mod, "init_classifier", poisoned)
        with pytest.raises(TrainingDiverged) as err:
            run(config(epochs=3), tiny_partial())
        assert err.value.epoch == 1
        assert "epoch 1" in str(err.value)

    def test_divergence_survives_pickling(self):
        err = TrainingDiverged(3)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is TrainingDiverged and back.epoch == 3
        assert str(back) == str(err) == "training diverged at epoch 3: non-finite batch loss"

    def test_divergence_in_the_middle_of_an_epoch_stops_it_before_the_tracker_fold(self, monkeypatch):
        # the losses are computed at epoch end: the batches after the poisoned
        # step still train, and the epoch raises before anything is folded in
        step, steps = trainer_mod.model_mod.step, []

        def poisoning(model, grads, opt):
            step(model, grads, opt)
            steps.append(opt.step_count)
            if len(steps) == 4 + 2:  # the second of epoch 2's four batches
                model.flat[0] = np.nan

        updates = []
        monkeypatch.setattr(trainer_mod.model_mod, "step", poisoning)
        monkeypatch.setattr(MemorizationTracker, "update", lambda self, *a: updates.append(a[-1]))
        with warnings.catch_warnings(), pytest.raises(TrainingDiverged) as err:
            warnings.simplefilter("error")
            run(config("ll-cp", delta_rel=20.0, epochs=3, arch="mlp1"), tiny_partial())
        assert err.value.epoch == 2
        assert str(err.value) == "training diverged at epoch 2: non-finite batch loss"
        assert len(steps) == 8 and updates == [1]  # epoch 2 trained to its end and was never folded

    def test_test_split_requires_truth(self):
        ds = tiny_partial()
        test = PartialDataset(np.zeros((3, ds.d)), np.full((3, ds.k), U, dtype=np.int8))
        with pytest.raises(ValueError, match="truth"):
            run(config(), ds, test)

    def test_non_finite_learning_rate_rejected(self):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                config(learning_rate=value).validate()

    @pytest.mark.parametrize("d,k", [(3, 5), (4, 6), (5, 4)])
    def test_test_set_shape_is_checked_before_training(self, monkeypatch, d, k):
        def never(*args, **kwargs):
            raise AssertionError("trained although the test set cannot be scored")

        monkeypatch.setattr(trainer_mod, "_train_epoch", never)
        ds = tiny_partial(d=4, k=5)
        test = generate_synthetic(SyntheticSpec(n=20, dim=d, classes=k, pos_rate=0.45, seed=2))
        with pytest.raises(ValueError, match=rf"\({d}, {k}\), training data \(4, 5\)"):
            run(config(), ds, test)

    def test_reports_test_map_when_supplied(self):
        full = generate_synthetic(SyntheticSpec(n=120, dim=4, classes=5, pos_rate=0.45, seed=4))
        pool, test = split(full, 0.25, seed=4)
        rep = run(config(epochs=2), make_single_positive(pool, seed=4), test)
        assert rep.test_map is not None
        assert 0.0 <= rep.test_map <= 100.0


class TestHandComputedLoss:
    def test_first_epoch_loss_matches_direct_formula(self):
        # 2 samples split 1/1; the single training batch's loss is the plain
        # elementwise cross entropy of the freshly initialized model
        features = np.array([[0.5, -1.0], [2.0, 0.3]])
        states = np.array([[P, U, U], [U, P, U]], dtype=np.int8)
        truth = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int8)
        ds = PartialDataset(features, states, truth)
        cfg = config(epochs=1, batch_size=4, val_fraction=0.5, seed=3)
        rep = run(cfg, ds)

        root = np.random.SeedSequence(3)
        split_seed, init_seed, _ = root.spawn(3)
        train_idx, _ = split_indices(2, 0.5, split_seed)
        from wsml.model import init_classifier

        m = init_classifier("linear", 2, 3, 4, init_seed)
        x = features[train_idx]
        probs = 1.0 / (1.0 + np.exp(-(x @ m.params["W"].T + m.params["b"])))
        an = (states[train_idx] == P).astype(float)
        expected = float(np.mean(-an * np.log(probs) - (1 - an) * np.log(1 - probs)))
        assert rep.records[0].train_loss == pytest.approx(expected, abs=1e-12)


class TestEpochOneNeutrality:
    def test_relative_schemes_match_naive_at_epoch_one(self):
        ds = tiny_partial()
        naive = run(config("naive-an", epochs=1), ds)
        for token in ("ll-r", "ll-ct", "ll-cp"):
            other = run(config(token, delta_rel=5.0, epochs=1), ds)
            assert other.records[0].flags == 0
            assert other.records[0].train_loss == naive.records[0].train_loss
            for name in naive.best_model.params:
                assert np.array_equal(other.best_model.params[name], naive.best_model.params[name])


class TestValidationMapWithoutTruth:
    def test_observed_only_ranking(self):
        # states carry enough observed labels for every category; no truth section
        rng = np.random.default_rng(11)
        n, k = 60, 3
        states = rng.choice([int(P), int(N), int(U)], size=(n, k), p=[0.3, 0.4, 0.3]).astype(np.int8)
        states[0] = [P, P, P]  # guarantee an observed positive everywhere
        ds = PartialDataset(rng.standard_normal((n, 4)), states)
        rep = run(config(epochs=2), ds)
        assert all(0.0 <= r.val_map <= 100.0 for r in rep.records)

    def test_mean_of_the_observed_entries_aps(self):
        rng = np.random.default_rng(12)
        n, k = 30, 5
        states = rng.choice([int(P), int(N), int(U), int(C)], size=(n, k), p=[0.3, 0.3, 0.2, 0.2]).astype(np.int8)
        states[0, :4] = P  # an observed positive in each of the first four categories
        states[:, 4] = rng.choice([int(N), int(U), int(C)], size=n)  # none in the last, which is skipped
        features = rng.standard_normal((n, 3))
        features[1::4] = features[0]  # equal rows score alike: ties inside every ranking
        classifier = model_mod.init_classifier("mlp1", 3, k, hidden=6, seed=4)
        probs = model_mod.forward(classifier, features)
        aps = []
        for c in range(4):
            observed = (states[:, c] == P) | (states[:, c] == N)  # C and U entries leave the ranking
            aps.append(average_precision(probs[observed, c], states[observed, c] == P))
        got = trainer_mod._validation_map(classifier, PartialDataset(features, states), np.arange(len(states)))
        assert got == sum(aps) / len(aps)

    def test_no_observed_positive_raises(self):
        rng = np.random.default_rng(13)
        states = rng.choice([int(N), int(U), int(C)], size=(10, 3)).astype(np.int8)
        classifier = model_mod.init_classifier("linear", 2, 3, seed=1)
        with pytest.raises(ValueError) as err:
            trainer_mod._validation_map(classifier, PartialDataset(rng.standard_normal((10, 2)), states), np.arange(10))
        assert str(err.value) == "validation mAP undefined: no category has an observed positive"


class TestPermanentCorrections:
    def test_batch_granularity_applies_within_epoch(self):
        ds = tiny_partial(n=60, seed=2)
        cfg = config("ll-cp", delta_rel=40.0, epochs=3, llcp_granularity="batch")
        rep = run(cfg, ds)
        assert rep.records[0].cum_corrections == 0  # first epoch never selects
        assert rep.records[-1].cum_corrections > 0

    def test_epoch_granularity_corrects_at_epoch_end(self):
        ds = tiny_partial(n=60, seed=2)
        rep = run(config("ll-cp", delta_rel=40.0, epochs=3), ds)
        assert rep.records[0].cum_corrections == 0
        assert rep.records[1].cum_corrections > 0

    @pytest.mark.parametrize("granularity", ["epoch", "batch"])
    def test_cumulative_corrections_nondecreasing(self, granularity):
        ds = tiny_partial(n=80, seed=3)
        cfg = config("ll-cp", delta_rel=20.0, epochs=5, llcp_granularity=granularity)
        rep = run(cfg, ds)
        cums = [r.cum_corrections for r in rep.records]
        assert all(b >= a for a, b in zip(cums, cums[1:]))

    def test_corrections_move_effective_targets_to_one(self):
        ds = tiny_partial(n=60, seed=5)
        rep = run(config("ll-cp", delta_rel=30.0, epochs=4), ds)
        assert rep.records[-1].cum_corrections > 0
        # precision bookkeeping is cumulative for permanent corrections
        flagged = [r for r in rep.records if r.flags > 0]
        assert all(r.flag_precision is not None for r in flagged)

    def test_absolute_permanent_variant_runs(self):
        ds = tiny_partial(n=60, seed=6)
        rep = run(config("ll-cp-abs", r0=1.5, delta_abs=0.3, epochs=4), ds)
        cums = [r.cum_corrections for r in rep.records]
        assert all(b >= a for a, b in zip(cums, cums[1:]))


class TestTrackerAgainstOriginalTargets:
    def test_tracker_uses_premodification_losses(self):
        # with aggressive permanent corrections the dataset's targets change,
        # but tracked losses must still reference the original assumed labels
        ds = tiny_partial(n=60, seed=7)
        cfg = config("ll-cp", delta_rel=80.0, epochs=3)
        rep = run(cfg, ds)
        assert rep.records[-1].cum_corrections > 0
        assert rep.tracker.max_loss.min() > 0.0  # every entry visited and positive

    def test_memorization_requires_multiple_epochs_tracked(self):
        rep = run(config(epochs=3), tiny_partial())
        assert rep.tracker.epochs_tracked == 3
        assert rep.tracker.argmax_epoch.max() <= 3
        assert rep.tracker.argmax_epoch.min() >= 1


class TestFrozenSchedule:
    def test_hidden_layer_frozen_for_initial_epochs(self):
        full = generate_synthetic(SyntheticSpec(n=60, dim=4, classes=4, pos_rate=0.4, seed=9))
        ds = make_single_positive(full, seed=9)
        cfg = TrainConfig(
            scheme=SchemeConfig(Scheme.NAIVE_AN),
            epochs=2,
            batch_size=8,
            arch="mlp1",
            hidden=6,
            frozen_epochs=2,
            seed=9,
        )
        rep = run(cfg, ds)
        from wsml.model import init_classifier

        root = np.random.SeedSequence(9)
        _, init_seed, _ = root.spawn(3)
        fresh = init_classifier("mlp1", 4, 4, 6, init_seed)
        # entire run is frozen, so the hidden layer never moved
        assert np.array_equal(rep.best_model.params["W1"], fresh.params["W1"])
        assert not np.array_equal(rep.best_model.params["W2"], fresh.params["W2"])

    @pytest.mark.parametrize("token", ["naive-an", "ll-ct", "ll-cp"])
    def test_a_frozen_linear_model_trains_like_an_unfrozen_one(self, token):
        # the freeze holds back the layers before the output layer, and a linear model has none
        ds = tiny_partial()
        frozen, free = (run(config(token, delta_rel=5.0, epochs=3, frozen_epochs=f), ds) for f in (2, 0))
        assert repr(frozen.records) == repr(free.records)  # repr: exact floats, and NaN equals NaN
        assert frozen.best_epoch == free.best_epoch
        for a, b in ((frozen.best_model.flat, free.best_model.flat), (frozen.final_states, free.final_states),
                     (frozen.tracker.max_loss, free.tracker.max_loss),
                     (frozen.tracker.argmax_epoch, free.tracker.argmax_epoch)):
            assert a.tobytes() == b.tobytes()

    def test_zero_hidden_is_rejected_only_with_a_hidden_layer(self):
        with pytest.raises(ValueError, match="mlp1 needs hidden >= 1, got 0"):
            config(arch="mlp1", hidden=0).validate()
        assert run(config(arch="linear", hidden=0, epochs=1), tiny_partial()).best_model.arch == "linear"


class TestUnknownOnlyFlags:
    @pytest.mark.parametrize("token,granularity", [("ll-r", "epoch"), ("ll-ct", "epoch"), ("ll-cp", "batch")])
    def test_a_planned_observed_candidate_raises_before_corrections_land(self, monkeypatch, token, granularity):
        plan_epoch, apply = schemes.plan_epoch, schemes.apply_permanent_corrections

        def leaky_plan(rows, *args):
            # every entry a candidate, observed and corrected ones too, while the plan's UNKNOWN mask stays true
            plan = plan_epoch(dataclasses.replace(rows, unknown=np.ones_like(rows.unknown),
                                                  counts=np.full_like(rows.counts, rows.unknown.shape[-1])), *args)
            plan.unknown = plan_epoch(rows, *args).unknown
            return plan

        landed = []

        def counting_corrections(ds, flags):
            landed.append(int(flags.sum()))
            return apply(ds, flags)

        monkeypatch.setattr(schemes, "plan_epoch", leaky_plan)
        monkeypatch.setattr(schemes, "apply_permanent_corrections", counting_corrections)
        cfg = config(token, delta_rel=100.0, llcp_granularity=granularity)
        with pytest.raises(AssertionError, match="observed or corrected entry"):
            run(cfg, tiny_partial())
        assert sum(landed) == 0


@pytest.mark.parametrize("batch_size", [1, 5, 7, 16, 33, 64, 256])
def test_one_sum_over_blocks_gives_each_batch_its_own_sum(batch_size):
    # the epoch sums its batches' losses as rows of one reshaped array; each
    # must have the bits of the batch's own sum, which the train loss adds up
    k = 10
    losses = np.random.default_rng(batch_size).exponential(size=(1600 - 3, k)) * 3.0
    full = len(losses) - len(losses) % batch_size
    blocks = losses[:full].reshape(-1, batch_size * k).sum(axis=1).tolist()
    own = [float(losses[lo:lo + batch_size].copy().sum()) for lo in range(0, full, batch_size)]
    assert repr(blocks) == repr(own)


def can_flag_batches(plan, batch_size):
    """How many of a lone run's plan's batches can flag: all under an absolute schedule,
    those with a positive quota of their UNKNOWN entries under a relative one."""
    unknown = [int(plan.unknown[lo:lo + batch_size].sum()) for lo in range(0, len(plan.unknown), batch_size)]
    return sum(plan.rate is None or schemes.quota(plan.rate[0], m) > 0 for m in unknown)


def counting_selections(monkeypatch, counts):
    """Count in counts["select"] the batch decisions that take a log pass, which is the selection's
    first step, and in counts["log"] every np.log call."""
    decide = schemes.decide_planned

    def counting_log(*args, **kwargs):
        counts["log"] += 1
        return log(*args, **kwargs)

    def counting_decide(*args):
        before = counts["log"]
        result = decide(*args)
        counts["select"] += counts["log"] > before
        return result

    log = np.log
    monkeypatch.setattr(np, "log", counting_log)
    monkeypatch.setattr(schemes, "decide_planned", counting_decide)


class TestPerBatchWork:
    @pytest.mark.parametrize(
        "token,granularity",
        [("naive-an", "epoch"), ("lsan", "epoch"), ("ll-r", "epoch"), ("ll-ct-abs", "epoch"),
         ("ll-cp", "epoch"), ("ll-cp", "batch")],
    )
    def test_one_forward_one_log_pass_one_tracker_update_per_batch(self, monkeypatch, token, granularity):
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(model_mod, "forward_pass", counting("forward", model_mod.forward_pass))
        monkeypatch.setattr(np, "log", counting("log", np.log))
        monkeypatch.setattr(MemorizationTracker, "update", counting("update", MemorizationTracker.update))
        cfg = config(token, delta_rel=5.0, epochs=3, arch="mlp1", llcp_granularity=granularity)
        report = run(cfg, tiny_partial())
        batches = cfg.epochs * -(-len(report.train_indices) // cfg.batch_size)
        assert counts["update"] == cfg.epochs  # the tracker folds each epoch in once
        assert counts["forward"] == batches + cfg.epochs  # plus one validation pass per epoch
        assert 0 < counts["log"] <= 2 * batches  # log p and log(1 - p), once

    @pytest.mark.parametrize(
        "token,granularity,selections",
        [("naive-an", "epoch", "none"), ("lsan", "epoch", "none"), ("wan", "epoch", "none"),
         ("ll-r", "epoch", "batch"), ("ll-ct-abs", "epoch", "batch"), ("ll-cp", "epoch", "epoch"),
         ("ll-cp", "batch", "batch")],
    )
    def test_label_state_work_is_planned_once_per_epoch(self, monkeypatch, token, granularity, selections):
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        plans, plan_epoch = [], schemes.plan_epoch
        monkeypatch.setattr(schemes, "plan_epoch", counting("plan", lambda *a: plans.append(plan_epoch(*a)) or plans[-1]))
        counting_selections(monkeypatch, counts)
        monkeypatch.setattr(schemes, "select_large_losses", counting("epoch select", schemes.select_large_losses))
        # plan_rows reads the schemes binding: the run's starting targets, then LL-Cp's after each epoch's corrections
        monkeypatch.setattr(schemes, "an_targets_from_states", counting("an", schemes.an_targets_from_states))
        monkeypatch.setattr(MemorizationTracker, "update", counting("update", MemorizationTracker.update))
        cfg = config(token, delta_rel=5.0, epochs=3, arch="mlp1", llcp_granularity=granularity)
        report = run(cfg, tiny_partial())
        batches = cfg.epochs * -(-len(report.train_indices) // cfg.batch_size)
        assert batches > cfg.epochs
        assert counts["update"] == cfg.epochs
        assert counts["plan"] == cfg.epochs
        assert counts["an"] == (cfg.epochs if token == "ll-cp" else 1)  # the states change only under LL-Cp
        # a batch selects only if it can flag: an absolute schedule, or a relative quota above zero
        can_flag = sum(can_flag_batches(plan, cfg.batch_size) for plan in plans)
        assert counts["select"] == {"none": 0, "batch": can_flag, "epoch": 0}[selections]
        assert counts["epoch select"] == (cfg.epochs if selections == "epoch" else 0)
        if selections == "batch":  # epoch 1 of a relative schedule has rate 0
            assert can_flag == (batches if token.endswith("-abs") else batches * 2 // 3)

    @pytest.mark.parametrize("token,granularity,delta_rel,batch_size", [("ll-cp", "batch", 0.2, 16), ("ll-ct", "epoch", 2.0, 8)])
    def test_a_batch_whose_quota_is_zero_never_selects(self, monkeypatch, token, granularity, delta_rel, batch_size):
        plans, plan_epoch, counts = [], schemes.plan_epoch, Counter()
        monkeypatch.setattr(schemes, "plan_epoch", lambda *a: plans.append(plan_epoch(*a)) or plans[-1])
        counting_selections(monkeypatch, counts)
        cfg = config(token, delta_rel=delta_rel, epochs=4, batch_size=batch_size, arch="mlp1", llcp_granularity=granularity)
        data = tiny_partial(n=60)
        report = run(cfg, data)
        batches = cfg.epochs * -(-len(report.train_indices) // batch_size)
        can_flag = sum(can_flag_batches(plan, batch_size) for plan in plans)
        assert counts["select"] == can_flag
        if token == "ll-cp":  # quota(0.2, m) = 0 below m = 500 UNKNOWN entries: never
            assert can_flag == 0
        else:  # some batches of epochs 2 to 4 reach a quota of one, the others select nothing
            assert 0 < can_flag < batches - batches // cfg.epochs
        records, states, *_ = reference.run(cfg, data)
        assert repr([dataclasses.astuple(r) for r in report.records]) == repr(records)
        assert np.array_equal(report.final_states, states)
