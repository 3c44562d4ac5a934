"""The training algorithm stated plainly, one batch at a time: a reference
that `wsml.trainer.run` must match bit for bit.

Each batch runs, in order:
  1. the forward pass;
  2. the binary cross entropy (BCE) against the assume-negative (AN) targets
     the run started from, folded into the memorization tracker;
  3. the scheme's base targets and weights from the current label states;
  4. the large-loss selection over the UNKNOWN entries, with its own top-k: a
     Python sort by (-loss, row, column);
  5. reject (weight 0) or correct (target 1) the flagged entries; batch-level
     permanent correction (LL-Cp) turns them from UNKNOWN to CORRECTED_POS;
  6. the gradient and the optimizer step.
Epoch-level LL-Cp trains its batches on the AN targets and selects once, at
epoch end, over the epoch's pooled BCE against the starting AN targets.

It shares with `wsml` the model's math (init, forward, gradient and step),
the seeding and the validation mAP, nothing of the schemes or the trainer.
On every batch it asserts the paper's invariants: flags fall only on UNKNOWN
entries, a relative schedule flags exactly floor(rate/100 * M) of the M
UNKNOWN entries, and the only state change is UNKNOWN -> CORRECTED_POS.
"""

import math

import numpy as np

from wsml import evaluation, model
from wsml.dataset import LabelState

from test_model import backward

UNKNOWN, CORRECTED = LabelState.UNKNOWN, LabelState.CORRECTED_POS
POSITIVE = (LabelState.OBS_POS, LabelState.CORRECTED_POS)  # AN target 1; every other state is 0
ACTIONS = {"ll-r": "reject", "ll-ct": "temporary", "ll-cp": "permanent"}  # by token, less any "-abs"


def bce(probs, targets):
    return targets * -np.log(probs) + (1.0 - targets) * -np.log(1.0 - probs)


def schedule(token, epoch, sc):
    """(rate in percent, None) for a relative schedule, (None, loss threshold) for an absolute one."""
    if token.endswith("-abs"):
        return None, sc.r0 - epoch * sc.delta_abs
    if token == "ll-cp":  # nothing in the first epoch, then the same rate every epoch
        rate = 0.0 if epoch == 1 else sc.delta_rel
    else:  # the rate grows by delta_rel points an epoch, from 0
        rate = (epoch - 1) * sc.delta_rel
    return min(max(rate, 0.0), 100.0), None


def select(losses, states, rate, threshold):
    """(flags on the large-loss UNKNOWN entries, the threshold in effect or NaN)."""
    cells = sorted((-losses[r, c], r, c) for r, c in zip(*np.nonzero(states == UNKNOWN)))
    if threshold is None:
        chosen = cells[:math.floor(rate / 100 * len(cells))]
        threshold = float(-chosen[-1][0]) if chosen else math.nan  # the smallest flagged loss
    else:
        chosen = [cell for cell in cells if -cell[0] > threshold]
    flags = np.zeros(states.shape, dtype=bool)
    for _, r, c in chosen:
        flags[r, c] = True
    assert not (flags & (states != UNKNOWN)).any(), "a flag on an entry that is not UNKNOWN"
    if rate is not None:
        assert flags.sum() == math.floor(rate / 100 * (states == UNKNOWN).sum()), "flag count off the quota"
    return flags, threshold


def check_state_change(before, after):
    changed = before != after
    assert (before[changed] == UNKNOWN).all(), "a state change from an entry that was not UNKNOWN"
    assert (after[changed] == CORRECTED).all(), "a state change to a state other than CORRECTED_POS"


def run(cfg, ds):
    """Train `cfg` on `ds` (which must carry truth); returns (records as EpochRecord
    field tuples, final states, tracker max loss, tracker argmax epoch, best epoch,
    best model)."""
    token, sc = cfg.scheme.scheme.value, cfg.scheme
    action = ACTIONS.get(token.removesuffix("-abs"))
    epoch_level = action == "permanent" and cfg.llcp_granularity == "epoch"

    split_seed, init_seed, shuffle_seed = np.random.SeedSequence(cfg.seed).spawn(3)
    perm = np.random.default_rng(split_seed).permutation(ds.n)
    n_val = math.floor(cfg.val_fraction * ds.n)
    train_rows, val_rows = np.sort(perm[n_val:]), np.sort(perm[:n_val])
    x, states, truth = ds.features[train_rows], ds.states[train_rows].copy(), ds.truth[train_rows]
    n, k = states.shape
    an0 = np.isin(states, POSITIVE).astype(np.float64)

    clf = model.init_classifier(cfg.arch, x.shape[1], k, cfg.hidden, init_seed)
    opt = model.make_optimizer(cfg.optimizer, cfg.learning_rate, clf)
    max_loss, argmax_epoch = np.full((n, k), -np.inf), np.zeros((n, k), dtype=np.int64)
    records, best_val, best_epoch, best_model = [], -1.0, 0, None
    corrected = corrected_true = 0

    for epoch, epoch_seed in enumerate(shuffle_seed.spawn(cfg.epochs), start=1):
        clf.frozen_hidden = epoch <= cfg.frozen_epochs
        order = np.random.default_rng(epoch_seed).permutation(n)
        rate, threshold = schedule(token, epoch, sc)
        pooled, flagged = np.zeros((n, k)), np.zeros((n, k), dtype=bool)
        thresholds, total = [], 0.0
        for start in range(0, n, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            probs = model.forward(clf, x[rows])

            loss0 = bce(probs, an0[rows])
            bigger = loss0 > max_loss[rows]  # the first epoch wins ties
            max_loss[rows] = np.where(bigger, loss0, max_loss[rows])
            argmax_epoch[rows] = np.where(bigger, epoch, argmax_epoch[rows])
            pooled[rows] = loss0

            before = states.copy()
            batch_states = states[rows]
            targets = np.isin(batch_states, POSITIVE).astype(np.float64)
            weights = np.ones(targets.shape)
            if token == "ignore-unobserved":
                weights[batch_states == UNKNOWN] = 0.0
            elif token == "wan":
                weights[targets == 0.0] = 1.0 / (k - 1)
            elif token == "lsan":
                targets = targets * (1.0 - sc.eps_smooth) + (1.0 - targets) * sc.eps_smooth
            if action is not None and not epoch_level:
                flags, cut = select(bce(probs, targets), batch_states, rate, threshold)
                if not math.isnan(cut):
                    thresholds.append(cut)
                if action == "reject":
                    weights[flags] = 0.0
                else:
                    targets[flags] = 1.0
                if action == "permanent":
                    states[rows] = np.where(flags, CORRECTED, batch_states)
                flagged[rows] = flags
            check_state_change(before, states)

            batch_loss = float((weights * bce(probs, targets)).sum())
            assert math.isfinite(batch_loss)
            total += batch_loss
            grads = backward(clf, x[rows], targets, weights)
            model.step(clf, np.concatenate([g.ravel() for g in grads.values()]), opt)

        if epoch_level:
            flagged, cut = select(pooled, states, rate, threshold)
            if not math.isnan(cut):
                thresholds.append(cut)
            before = states.copy()
            states[flagged] = CORRECTED
            check_state_change(before, states)

        flags, flags_true = int(flagged.sum()), int((flagged & (truth == 1)).sum())
        if action == "permanent":  # precision over every correction so far
            corrected, corrected_true = corrected + flags, corrected_true + flags_true
            precision = corrected_true / corrected if corrected else None
        else:
            precision = flags_true / flags if flags else None
        val_probs = model.forward(clf, ds.features[val_rows])
        val_map = evaluation.mean_average_precision(val_probs, ds.truth[val_rows]).mean * 100.0
        threshold_min = min(thresholds) if thresholds else math.nan
        records.append((epoch, total / (n * k), val_map, flags, flags_true, precision, corrected, threshold_min))
        if val_map > best_val:
            best_val, best_epoch, best_model = val_map, epoch, clf.copy()
    return records, states, max_loss, argmax_epoch, best_epoch, best_model
