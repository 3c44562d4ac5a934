"""Training loop: scheme-weighted optimization with memorization tracking,
validation-based model selection, and permanent-correction bookkeeping.

A run is a pure function of (config, dataset, test dataset): sample split,
parameter init, and per-epoch shuffles all derive from the config seed. The
run owns private copies of everything it mutates, so concurrent runs over a
shared dataset are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import evaluation, model as model_mod, schemes
from .dataset import OBS_NEG, OBS_POS, UNKNOWN, PartialDataset

__all__ = [
    "TrainConfig",
    "MemorizationTracker",
    "EpochRecord",
    "RunReport",
    "TrainingDiverged",
    "split",
    "split_indices",
    "run",
    "modification_precision",
]


class TrainingDiverged(RuntimeError):
    """Raised when a batch loss goes non-finite; carries the offending epoch."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}: non-finite batch loss")
        self.epoch = epoch

    def __reduce__(self):  # pickle rebuilds through __init__, whose argument `args` does not hold
        return type(self), (self.epoch,)


@dataclass
class TrainConfig:
    scheme: schemes.SchemeConfig
    epochs: int = 30
    batch_size: int = 16
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    arch: str = "mlp1"
    hidden: int = 64
    frozen_epochs: int = 0
    val_fraction: float = 0.2
    seed: int = 0
    # Permanent corrections are selected over the epoch's accumulated losses
    # by default; "batch" selects within every mini-batch; both land at epoch end.
    llcp_granularity: str = "epoch"

    def validate(self) -> None:
        self.scheme.validate()
        if self.epochs < 1:
            raise ValueError(f"need epochs >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"need batch_size >= 1, got {self.batch_size}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in (0, 1), got {self.val_fraction}")
        model_mod.check_arch(self.arch, self.hidden)
        model_mod.check_optimizer(self.optimizer, self.learning_rate)
        if self.frozen_epochs < 0:
            raise ValueError(f"frozen_epochs must be nonnegative, got {self.frozen_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.llcp_granularity not in ("epoch", "batch"):
            raise ValueError(f"llcp_granularity must be 'epoch' or 'batch', got {self.llcp_granularity!r}")


class MemorizationTracker:
    """Running maximum training loss and its epoch, per (sample, category).

    Losses are taken against the assume-negative targets the run started
    from, so the measurement reflects the original assumed labels even when a
    correcting scheme later rewrites states. The trainer folds each epoch's
    losses in once, at epoch end, by row.
    """

    def __init__(self, n: int, k: int):
        self.max_loss = np.full((n, k), -np.inf)
        self.argmax_epoch = np.zeros((n, k), dtype=np.int64)
        self.epochs_tracked = 0

    def update(self, losses: np.ndarray, epoch: int) -> None:
        """Fold in epoch `epoch`'s per-element losses of every row and count the epoch;
        the first epoch wins loss ties."""
        bigger = losses > self.max_loss
        np.copyto(self.max_loss, losses, where=bigger)
        np.copyto(self.argmax_epoch, epoch, where=bigger)
        self.epochs_tracked += 1


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_map: float
    flags: int
    flags_true_pos: int | None
    flag_precision: float | None
    cum_corrections: int
    threshold_min: float


@dataclass
class RunReport:
    records: list[EpochRecord]
    best_epoch: int
    best_val_map: float
    best_model: model_mod.Classifier
    test_map: float | None
    tracker: MemorizationTracker
    train_indices: np.ndarray
    effective_n: int
    initial_states: np.ndarray = field(repr=False, default=None)
    final_states: np.ndarray = field(repr=False, default=None)


def split_indices(n: int, fraction: float, seed):
    """Disjoint (kept, held-out) index split; held-out side gets floor(fraction*n)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    n_out = int(math.floor(fraction * n))
    if n_out == 0 or n_out == n:
        raise ValueError(f"split of {n} samples at fraction {fraction} leaves an empty side")
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[n_out:]), np.sort(perm[:n_out])


def split(ds: PartialDataset, fraction: float, seed):
    """Seeded sample-level split into (train, validation) datasets."""
    keep, out = split_indices(ds.n, fraction, seed)
    return ds.take(keep), ds.take(out)


def modification_precision(flag_counts, true_counts, cumulative: bool = False):
    """Per-epoch precision of flagged/corrected labels against ground truth.

    Per-epoch ratio for rejection/temporary correction; running ratio over
    all corrections so far when cumulative (permanent correction). Epochs
    whose denominator is zero report None rather than 0.
    """
    if len(flag_counts) != len(true_counts):
        raise ValueError("flag_counts and true_counts must have equal length")
    if cumulative:
        flag_counts, true_counts = accumulate(flag_counts), accumulate(true_counts)
    return [true / flags if flags else None for flags, true in zip(flag_counts, true_counts)]


def _validation_map(classifier, val: PartialDataset) -> float:
    """Validation mAP as a fraction: against truth when present, otherwise
    over observed entries only (unknown entries leave the ranking)."""
    # features checked when `val` was taken; the pass's buffers are freed again before the next epoch
    probs = model_mod.forward_pass(classifier, val.features).probs
    if val.truth is not None:
        return evaluation.mean_average_precision(probs, val.truth).mean
    aps = []
    for k in range(val.k):
        observed = (val.states[:, k] == OBS_POS) | (val.states[:, k] == OBS_NEG)
        labels = (val.states[:, k] == OBS_POS).astype(np.int8)
        if labels[observed].sum() == 0:
            continue
        aps.append(evaluation.average_precision(probs[observed, k], labels[observed]))
    if not aps:
        raise ValueError("validation mAP undefined: no category has an observed positive")
    return float(np.mean(aps))


def _train_epoch(classifier, train, cfg, epoch, opt, order, tracker, an0, buffers):
    """One pass over the training data; returns (mean loss, flagged entries, the
    truly positive ones among them or None without truth, smallest threshold).
    Under permanent correction the flagged entries are the corrected ones.

    A batch runs its forward pass, its decision (the AN loss of its candidates alone, only
    if it can flag, flagging into the flag buffer), its gradient and its step. At epoch end
    `schemes.epoch_losses` takes one AN-loss log pass into the tracker's buffer and makes each
    batch's weighted loss from it, with another log only where the batch trained on another target.

    buffers: (probabilities, AN losses, flags, forward pass buffers, gradient vector, its
    views, gradient deltas), reused every epoch; the first three are in visiting order, until
    the first takes the AN losses by row for the tracker fold."""
    scheme = cfg.scheme.scheme
    permanent = schemes.SPECS[scheme].action == "permanent"
    epoch_level = permanent and cfg.llcp_granularity == "epoch"

    n, k = train.n, train.k
    probs, seen, seen_flags, work, grad, grad_views, deltas = buffers
    seen_flags.fill(False)
    thresholds = []
    plan = schemes.plan_epoch(scheme, train.states[order], epoch, cfg.scheme)
    if epoch_level:  # each batch trains on the AN targets; the plan's schedule selects at epoch end
        plan.spec = schemes.SPECS[schemes.Scheme.NAIVE_AN]

    for start in range(0, n, cfg.batch_size):
        batch = slice(start, start + cfg.batch_size)  # of the rows in visiting order
        # the batch's own feature rows (checked with the dataset); the take method costs less than [] or np.take
        fwd = model_mod.forward_pass(classifier, train.features.take(order[batch], axis=0), probs[batch], work)
        targets, weights, threshold = schemes.decide_planned(plan, batch, fwd.probs, seen_flags[batch])
        if not math.isnan(threshold):
            thresholds.append(threshold)
        model_mod.gradient(classifier, fwd, targets, weights, grad, grad_views, deltas)
        model_mod.step(classifier, grad, opt)

    # the tracker's AN losses go into `seen`, against the AN targets the run started from
    losses = schemes.epoch_losses(plan, probs, seen_flags, seen, an0[order])  # over the probabilities
    full = n - n % cfg.batch_size  # each batch's sum over one contiguous block, as the batch had it
    batch_losses = losses[:full].reshape(-1, cfg.batch_size * k).sum(axis=1).tolist()
    batch_losses += [float(losses[full:].sum())] if full < n else []
    weighted_total = 0.0
    for batch_loss in batch_losses:  # in batch order
        if not math.isfinite(batch_loss):
            raise TrainingDiverged(epoch)
        weighted_total += batch_loss

    if (seen_flags & ~plan.unknown).any():  # before any flag is counted or corrected
        raise AssertionError("flag selection touched an observed or corrected entry")
    # every row was visited exactly once, so one fold by row does what a fold per batch would
    losses[order] = seen  # the AN losses by row, in a buffer that is free again
    tracker.update(losses, epoch)
    flags = np.empty_like(seen_flags)
    flags[order] = seen_flags  # all False under epoch-level LL-Cp, whose batches flag nothing
    if epoch_level:  # select over the epoch's AN losses, by row: ties break toward ascending (row, column)
        candidates = np.flatnonzero(train.states == UNKNOWN)
        _, threshold = schemes.select_large_losses(losses.reshape(-1)[candidates], candidates, plan.rate,
                                                   plan.threshold, flags)
        if not math.isnan(threshold):
            thresholds.append(threshold)
    flagged = schemes.apply_permanent_corrections(train, flags) if permanent else int(flags.sum())
    flagged_true = None if train.truth is None else int((flags & (train.truth == 1)).sum())

    mean_loss = weighted_total / (n * k)
    threshold_min = min(thresholds) if thresholds else float("nan")
    return mean_loss, flagged, flagged_true, threshold_min


def run(cfg: TrainConfig, ds: PartialDataset, test_ds: PartialDataset | None = None) -> RunReport:
    """Train for the configured epochs and keep the best-validation model.

    Ties on validation mAP resolve to the earliest epoch. Reported mAP values
    are percentages. Raises TrainingDiverged on a non-finite batch loss.
    """
    cfg.validate()
    if ds.n < 2:
        raise ValueError(f"need at least 2 samples to split, got {ds.n}")
    if test_ds is not None and test_ds.truth is None:
        raise ValueError("test dataset requires ground-truth labels")
    if test_ds is not None and (test_ds.d, test_ds.k) != (ds.d, ds.k):
        raise ValueError(f"test dataset has (D, K) = ({test_ds.d}, {test_ds.k}), training data ({ds.d}, {ds.k})")

    root = np.random.SeedSequence(cfg.seed)
    split_seed, init_seed, shuffle_seed = root.spawn(3)
    train_idx, val_idx = split_indices(ds.n, cfg.val_fraction, split_seed)
    train = ds.take(train_idx)  # private copy: permanent corrections mutate it
    val = ds.take(val_idx)

    classifier = model_mod.init_classifier(cfg.arch, train.d, train.k, cfg.hidden, init_seed)
    opt = model_mod.make_optimizer(cfg.optimizer, cfg.learning_rate, classifier)
    epoch_seeds = shuffle_seed.spawn(cfg.epochs)

    an0 = schemes.an_targets_from_states(train.states) == 1.0  # the assumed positives the run started from
    initial_states = train.states.copy()
    tracker = MemorizationTracker(train.n, train.k)
    grad, shape = np.empty_like(classifier.flat), (train.n, train.k)
    rows = min(cfg.batch_size, train.n)
    buffers = (np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool), model_mod.ForwardPass.empty(classifier, rows),
               grad, classifier.views(grad), model_mod.ForwardPass.empty(classifier, rows))

    permanent = schemes.SPECS[cfg.scheme.scheme].action == "permanent"
    records: list[EpochRecord] = []
    cum_corrections = 0
    best_epoch = 0
    best_val = -1.0
    best_model = classifier.copy()

    for epoch in range(1, cfg.epochs + 1):
        classifier.frozen_hidden = epoch <= cfg.frozen_epochs
        order = np.random.default_rng(epoch_seeds[epoch - 1]).permutation(train.n)
        mean_loss, epoch_flags, epoch_true, threshold_min = _train_epoch(
            classifier, train, cfg, epoch, opt, order, tracker, an0, buffers
        )
        if permanent:
            cum_corrections += epoch_flags

        val_map = _validation_map(classifier, val) * 100.0
        records.append(EpochRecord(  # flag_precision is filled in below, once all epochs exist
            epoch=epoch, train_loss=mean_loss, val_map=val_map, flags=epoch_flags, flags_true_pos=epoch_true,
            flag_precision=None, cum_corrections=cum_corrections, threshold_min=threshold_min))
        if val_map > best_val:
            best_val = val_map
            best_epoch = epoch
            best_model = classifier.copy()

    if train.truth is not None:
        precisions = modification_precision(
            [r.flags for r in records], [r.flags_true_pos for r in records], cumulative=permanent)
        for record, prec in zip(records, precisions):
            record.flag_precision = prec

    test_map = None
    if test_ds is not None:
        test_probs = model_mod.forward(best_model, test_ds.features)
        test_map = evaluation.mean_average_precision(test_probs, test_ds.truth).mean * 100.0

    best_model.frozen_hidden = False
    return RunReport(
        records=records,
        best_epoch=best_epoch,
        best_val_map=best_val,
        best_model=best_model,
        test_map=test_map,
        tracker=tracker,
        train_indices=train_idx,
        effective_n=ds.n,
        initial_states=initial_states,
        final_states=train.states.copy(),
    )
