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

import numpy as np

from . import evaluation, model as model_mod, schemes
from .dataset import LabelState, PartialDataset

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
    # by default; "batch" selects and applies within every mini-batch instead.
    llcp_granularity: str = "epoch"

    def validate(self) -> None:
        self.scheme.validate()
        if self.epochs < 1:
            raise ValueError(f"need epochs >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"need batch_size >= 1, got {self.batch_size}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in (0, 1), got {self.val_fraction}")
        if self.arch not in ("linear", "mlp1"):
            raise ValueError(f"unknown architecture {self.arch!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        if self.frozen_epochs < 0:
            raise ValueError(f"frozen_epochs must be nonnegative, got {self.frozen_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.llcp_granularity not in ("epoch", "batch"):
            raise ValueError(f"llcp_granularity must be 'epoch' or 'batch', got {self.llcp_granularity!r}")


class MemorizationTracker:
    """Running maximum training loss and its epoch, per (sample, category).

    Losses are recorded at batch time against the assume-negative targets the
    run started from, so the measurement reflects the original assumed labels
    even when a correcting scheme later rewrites states.
    """

    def __init__(self, n: int, k: int):
        self.max_loss = np.full((n, k), -np.inf)
        self.argmax_epoch = np.zeros((n, k), dtype=np.int64)
        self.epochs_tracked = 0

    def update(self, rows: np.ndarray, losses: np.ndarray, epoch: int) -> None:
        """Fold one batch of per-element losses in; first epoch wins loss ties."""
        bigger = losses > self.max_loss[rows]
        block = self.max_loss[rows]
        block[bigger] = losses[bigger]
        self.max_loss[rows] = block
        block_e = self.argmax_epoch[rows]
        block_e[bigger] = epoch
        self.argmax_epoch[rows] = block_e

    def end_epoch(self) -> None:
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
    config: TrainConfig
    records: list[EpochRecord]
    best_epoch: int
    best_val_map: float
    best_model: model_mod.Classifier
    test_map: float | None
    tracker: MemorizationTracker
    train_indices: np.ndarray
    val_indices: np.ndarray
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


def modification_precision(
    flag_counts,
    true_counts,
    cumulative: bool = False,
):
    """Per-epoch precision of flagged/corrected labels against ground truth.

    Per-epoch ratio for rejection/temporary correction; running ratio over
    all corrections so far when cumulative (permanent correction). Epochs
    whose denominator is zero report None rather than 0.
    """
    if len(flag_counts) != len(true_counts):
        raise ValueError("flag_counts and true_counts must have equal length")
    out: list[float | None] = []
    total_flags = 0
    total_true = 0
    for flags, true in zip(flag_counts, true_counts):
        if cumulative:
            total_flags += flags
            total_true += true
            out.append(total_true / total_flags if total_flags else None)
        else:
            out.append(true / flags if flags else None)
    return out


def _validation_map(classifier, val: PartialDataset) -> float:
    """Validation mAP as a fraction: against truth when present, otherwise
    over observed entries only (unknown entries leave the ranking)."""
    probs = model_mod.forward(classifier, val.features)
    if val.truth is not None:
        return evaluation.mean_average_precision(probs, val.truth).mean
    aps = []
    for k in range(val.k):
        observed = (val.states[:, k] == LabelState.OBS_POS) | (val.states[:, k] == LabelState.OBS_NEG)
        labels = (val.states[:, k] == LabelState.OBS_POS).astype(np.int8)
        if labels[observed].sum() == 0:
            continue
        aps.append(evaluation.average_precision(probs[observed, k], labels[observed]))
    if not aps:
        raise ValueError("validation mAP undefined: no category has an observed positive")
    return float(np.mean(aps))


def _count_true(flags: np.ndarray, truth) -> int | None:
    if truth is None:
        return None
    return int((flags & (truth == 1)).sum())


def _train_epoch(classifier, train, cfg, epoch, opt, order, tracker, an0):
    """One pass over the training data; returns the epoch's raw statistics."""
    scheme = cfg.scheme.scheme
    permanent = schemes.SPECS[scheme].action == "permanent"
    epoch_level = permanent and cfg.llcp_granularity == "epoch"
    # with epoch-level corrections each batch trains on the current
    # assume-negative targets and the large-loss selection happens once,
    # at epoch end, over the whole epoch's losses
    batch_scheme = schemes.Scheme.NAIVE_AN if epoch_level else scheme

    n, k = train.n, train.k
    epoch_losses = np.zeros((n, k)) if epoch_level else None
    weighted_total = 0.0
    flag_count = 0
    flag_true = 0 if train.truth is not None else None
    corrections = 0
    corrections_true = 0 if train.truth is not None else None
    thresholds = []

    for start in range(0, n, cfg.batch_size):
        rows = order[start : start + cfg.batch_size]
        x = train.features[rows]
        probs = model_mod.forward(classifier, x)
        base_losses = schemes.bce_elementwise(probs, an0[rows])
        tracker.update(rows, base_losses, epoch)
        if epoch_losses is not None:
            epoch_losses[rows] = base_losses

        decision = schemes.decide_batch(batch_scheme, probs, train.states[rows], epoch, cfg.scheme)
        if not math.isnan(decision.threshold):
            thresholds.append(decision.threshold)

        if permanent and not epoch_level and decision.flags.any():
            mask = np.zeros((n, k), dtype=bool)
            mask[rows] = decision.flags
            corrections += schemes.apply_permanent_corrections(train, mask)
            if corrections_true is not None:
                corrections_true += _count_true(mask, train.truth)
        elif decision.flags.any():
            flag_count += int(decision.flags.sum())
            if flag_true is not None:
                batch_truth = train.truth[rows]
                flag_true += int((decision.flags & (batch_truth == 1)).sum())

        batch_loss = float((decision.weights * schemes.bce_elementwise(probs, decision.targets)).sum())
        if not math.isfinite(batch_loss):
            raise TrainingDiverged(epoch)
        weighted_total += batch_loss

        grads = model_mod.backward(classifier, x, decision.targets, decision.weights)
        model_mod.step(classifier, grads, opt)

    if epoch_level:
        flags, threshold = schemes.select_for_epoch(scheme, epoch_losses, train.states, epoch, cfg.scheme)
        if flags.any():
            corrections += schemes.apply_permanent_corrections(train, flags)
            if corrections_true is not None:
                corrections_true += _count_true(flags, train.truth)
        if not math.isnan(threshold):
            thresholds.append(threshold)

    tracker.end_epoch()
    mean_loss = weighted_total / (n * k)
    threshold_min = min(thresholds) if thresholds else float("nan")
    return mean_loss, flag_count, flag_true, corrections, corrections_true, threshold_min


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

    root = np.random.SeedSequence(cfg.seed)
    split_seed, init_seed, shuffle_seed = root.spawn(3)
    train_idx, val_idx = split_indices(ds.n, cfg.val_fraction, split_seed)
    train = ds.take(train_idx)  # private copy: permanent corrections mutate it
    val = ds.take(val_idx)

    classifier = model_mod.init_classifier(cfg.arch, train.d, train.k, cfg.hidden, init_seed)
    opt = model_mod.make_optimizer(cfg.optimizer, cfg.learning_rate, classifier)
    epoch_seeds = shuffle_seed.spawn(cfg.epochs)

    an0 = train.an_targets()
    initial_states = train.states.copy()
    tracker = MemorizationTracker(train.n, train.k)

    permanent = schemes.SPECS[cfg.scheme.scheme].action == "permanent"
    records: list[EpochRecord] = []
    flag_counts: list[int] = []
    true_counts: list[int] = []
    cum_corrections = 0
    best_epoch = 0
    best_val = -1.0
    best_model = classifier.copy()

    for epoch in range(1, cfg.epochs + 1):
        classifier.frozen_hidden = cfg.arch == "mlp1" and epoch <= cfg.frozen_epochs
        order = np.random.default_rng(epoch_seeds[epoch - 1]).permutation(train.n)
        mean_loss, flags, flags_true, corr, corr_true, threshold_min = _train_epoch(
            classifier, train, cfg, epoch, opt, order, tracker, an0
        )
        cum_corrections += corr

        if permanent:
            flag_counts.append(corr)
            true_counts.append(corr_true if corr_true is not None else 0)
            epoch_flags, epoch_true = corr, corr_true
        else:
            flag_counts.append(flags)
            true_counts.append(flags_true if flags_true is not None else 0)
            epoch_flags, epoch_true = flags, flags_true

        val_map = _validation_map(classifier, val) * 100.0
        records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=mean_loss,
                val_map=val_map,
                flags=epoch_flags,
                flags_true_pos=epoch_true,
                flag_precision=None,  # filled below once all epochs exist
                cum_corrections=cum_corrections,
                threshold_min=threshold_min,
            )
        )
        if val_map > best_val:
            best_val = val_map
            best_epoch = epoch
            best_model = classifier.copy()

    if train.truth is not None:
        precisions = modification_precision(flag_counts, true_counts, cumulative=permanent)
        for record, prec in zip(records, precisions):
            record.flag_precision = prec

    test_map = None
    if test_ds is not None:
        test_probs = model_mod.forward(best_model, test_ds.features)
        test_map = evaluation.mean_average_precision(test_probs, test_ds.truth).mean * 100.0

    best_model.frozen_hidden = False
    return RunReport(
        config=cfg,
        records=records,
        best_epoch=best_epoch,
        best_val_map=best_val,
        best_model=best_model,
        test_map=test_map,
        tracker=tracker,
        train_indices=train_idx,
        val_indices=val_idx,
        effective_n=ds.n,
        initial_states=initial_states,
        final_states=train.states.copy(),
    )
