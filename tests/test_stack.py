"""`trainer.run_stack` against `trainer.run` of each of its arms alone, bit for bit, on drawn stacks.

A stack trains several runs over one dataset in lockstep: one forward pass,
gradient and step for all of them, each arm's decisions and epoch end its own.
Hypothesis draws what the arms share:
  - the data: N 12-90 rows, some of them repeats, K 2-6, D 1-5,
    single-positive or 10-90% observed, and a held-out test set with truth;
  - the scheme, LL-Cp at both granularities, the optimizer, the
    architecture, `frozen_epochs` and 1-4 epochs;
  - a batch size that leaves a ragged last batch;
and for each of 1-4 arms its own seed and scheme hyperparameters. Every field
of each arm's `RunReport` must have the bits `run` gives that arm alone. The
draws are derandomized, so every run of the suite checks the same cases.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsml import model, schemes, trainer
from wsml.dataset import SyntheticSpec, generate_synthetic, make_fraction_observed, make_single_positive
from wsml.schemes import SPECS, Scheme, SchemeConfig
from wsml.trainer import TrainConfig, TrainingDiverged, run, run_stack

SCHEMES = [(s.value, "epoch") for s in SPECS] + [("ll-cp", "batch"), ("ll-cp-abs", "batch")]


@st.composite
def stacks(draw, token, granularity):
    """(configs, dataset, test set) of one drawn stack of the scheme `token` at LL-Cp granularity `granularity`."""
    n, k, d = draw(st.integers(12, 90)), draw(st.integers(2, 6)), draw(st.integers(1, 5))
    distinct = draw(st.integers(max(1, n // 4), n))  # repeated rows tie their losses
    full = generate_synthetic(SyntheticSpec(n=distinct + 20, dim=d, classes=k, pos_rate=draw(st.floats(1.0 / k + 1e-9, 0.9)),
                                            seed=draw(st.integers(0, 2**16))))
    test = full.take(np.arange(distinct, distinct + 20))
    full = full.take(np.arange(n) % distinct)
    fraction = draw(st.none() | st.floats(0.1, 0.9))
    data_seed = draw(st.integers(0, 2**16))
    ds = make_single_positive(full, data_seed) if fraction is None else make_fraction_observed(full, fraction, data_seed)

    val_fraction = draw(st.sampled_from([0.2, 0.5]))
    n_train = n - int(val_fraction * n)
    batch_size = draw(st.integers(2, n_train - 1).filter(lambda b: n_train % b))  # a ragged last batch
    optimizer = draw(st.sampled_from(["adam", "sgd"]))
    shared = TrainConfig(
        scheme=SchemeConfig(Scheme(token)),
        epochs=draw(st.integers(1, 4)),
        batch_size=batch_size,
        optimizer=optimizer,
        learning_rate=0.01 if optimizer == "adam" else 0.5,
        arch=draw(st.sampled_from(["mlp1", "linear"])),
        hidden=draw(st.integers(1, 8)),
        frozen_epochs=draw(st.integers(0, 3)),
        val_fraction=val_fraction,
        llcp_granularity=granularity,
    )
    arms = draw(st.integers(1, 4))
    cfgs = [dataclasses.replace(
        shared,
        seed=draw(st.integers(0, 2**16)),
        scheme=SchemeConfig(Scheme(token), delta_rel=draw(st.floats(0.0, 40.0)), r0=draw(st.floats(1e-9, 3.0)),
                            delta_abs=draw(st.floats(0.0, 1.0)), eps_smooth=draw(st.floats(0.0, 0.45)))) for _ in range(arms)]
    return cfgs, ds, test


def assert_same_report(got, want):
    assert repr([dataclasses.astuple(r) for r in got.records]) == repr([dataclasses.astuple(r) for r in want.records])
    assert (got.best_epoch, repr(got.best_val_map), repr(got.test_map), got.effective_n) == \
        (want.best_epoch, repr(want.best_val_map), repr(want.test_map), want.effective_n)
    assert got.best_model.arch == want.best_model.arch and got.best_model.flat.tobytes() == want.best_model.flat.tobytes()
    assert got.best_model.frozen_hidden is want.best_model.frozen_hidden is False
    for name in ("train_indices", "initial_states", "final_states"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.tracker.max_loss.tobytes() == want.tracker.max_loss.tobytes()
    assert got.tracker.argmax_epoch.tobytes() == want.tracker.argmax_epoch.tobytes()
    assert got.tracker.epochs_tracked == want.tracker.epochs_tracked


@pytest.mark.parametrize("token,granularity", SCHEMES)
@given(data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_each_arm_of_a_drawn_stack_has_the_bits_it_has_alone(token, granularity, data):
    cfgs, ds, test = data.draw(stacks(token, granularity))
    reports = run_stack(cfgs, ds, test)
    assert len(reports) == len(cfgs)
    for cfg, report in zip(cfgs, reports):
        assert_same_report(report, run(cfg, ds, test))


def tiny_stack(*seeds):
    """(LL-Ct configs, an arm of each seed, and their dataset). Its 56 training rows make 8 full batches of 7, so
    the tests on it cover a stack whose every batch is full; the drawn stacks above cover ragged last batches."""
    full = generate_synthetic(SyntheticSpec(n=70, dim=4, classes=5, pos_rate=0.4, seed=1))
    cfgs = [TrainConfig(SchemeConfig(Scheme.LL_CT, delta_rel=5.0 + seed), epochs=3, batch_size=7, arch="mlp1",
                        hidden=6, seed=seed) for seed in seeds]
    return cfgs, make_single_positive(full, 1)


@pytest.mark.parametrize("seeds", [(3, 4, 5), (4, 5)])  # two arms stay stacked, or one is left
def test_an_arm_that_diverges_leaves_the_stack_and_the_others_keep_their_bits(monkeypatch, seeds):
    cfgs, ds = tiny_stack(*seeds)
    alone = [run(cfg, ds) for cfg in cfgs]
    end_epoch = trainer._end_epoch

    def diverge_seed_4_at_epoch_2(arms, epoch, losses):  # losses: (n, *arms, K) in visiting order
        for i, arm in enumerate(arms):
            if arm.cfg.seed == 4 and epoch == 2:
                losses.reshape(len(losses), len(arms), -1)[3, i, 1] = np.nan
        return end_epoch(arms, epoch, losses)

    monkeypatch.setattr(trainer, "_end_epoch", diverge_seed_4_at_epoch_2)
    for cfg, report, want in zip(cfgs, run_stack(cfgs, ds), alone):
        if cfg.seed == 4:
            assert isinstance(report, TrainingDiverged) and report.epoch == 2
        else:
            assert_same_report(report, want)


def test_a_diverged_arm_leaves_its_stacks_selection(monkeypatch):
    """Once an arm has failed, its rows select nothing: its NaN probabilities would otherwise send every later batch
    of the stack from the quicksort to the stable lexsort. The other arms keep their bits."""
    cfgs, ds = tiny_stack(3, 4, 5)
    alone = [run(cfg, ds) for cfg in cfgs]
    epochs, lexsorts, deciding = [], [], [False]
    plan_epoch, forward_pass, decide_planned = schemes.plan_epoch, model.forward_pass, schemes.decide_planned
    lexsort = np.lexsort

    def nan_seed_4_from_epoch_2(classifier, x, probs=None, *args):
        fwd = forward_pass(classifier, x, probs, *args)
        if probs is not None and epochs[-1] >= 2:
            probs[1] = np.nan  # seed 4's row of the stack, as if its model had diverged
        return fwd

    def decide(*args):
        deciding[0] = True
        try:
            return decide_planned(*args)
        finally:
            deciding[0] = False

    monkeypatch.setattr(schemes, "plan_epoch", lambda rows, epoch, *a: epochs.append(epoch) or plan_epoch(rows, epoch, *a))
    monkeypatch.setattr(model, "forward_pass", nan_seed_4_from_epoch_2)
    monkeypatch.setattr(schemes, "decide_planned", decide)
    monkeypatch.setattr(np, "lexsort", lambda keys: (deciding[0] and lexsorts.append(epochs[-1])) or lexsort(keys))
    reports = run_stack(cfgs, ds)
    assert isinstance(reports[1], TrainingDiverged) and reports[1].epoch == 2
    for i in (0, 2):
        assert_same_report(reports[i], alone[i])
    assert epochs == [1, 2, 3] and 2 in lexsorts and 3 not in lexsorts


def test_an_arm_that_fails_to_start_fails_alone():
    cfgs, ds = tiny_stack(3, 4)
    cfgs[0] = dataclasses.replace(cfgs[0], scheme=SchemeConfig(Scheme.LL_CT, delta_rel=-1.0))
    failed, report = run_stack(cfgs, ds)
    assert isinstance(failed, ValueError) and "delta_rel must be nonnegative" in str(failed)
    assert_same_report(report, run(cfgs[1], ds))
    with pytest.raises(ValueError, match="delta_rel must be nonnegative"):
        run(cfgs[0], ds)


@pytest.mark.parametrize("change", [{"batch_size": 8}, {"epochs": 4}, {"optimizer": "sgd"}, {"frozen_epochs": 1},
                                    {"scheme": SchemeConfig(Scheme.LL_R)}, {"llcp_granularity": "batch"}])
def test_arms_that_differ_beyond_seed_and_scheme_hyperparameters_do_not_stack(change):
    cfgs, ds = tiny_stack(3, 4)
    cfgs[1] = dataclasses.replace(cfgs[1], **change)
    with pytest.raises(ValueError, match="may differ only in seed and the scheme's hyperparameters"):
        run_stack(cfgs, ds)
