"""Training loop: scheme-weighted optimization with memorization tracking,
validation-based model selection, and permanent-correction bookkeeping.

A run is a pure function of (config, dataset, test dataset): sample split,
parameter init, and per-epoch shuffles all derive from the config seed. The
run owns private copies of everything it mutates, so concurrent runs over a
shared dataset are safe.

`run_stack` trains runs that differ only in seed and the scheme's hyperparameters
(a delta-rel sweep's arms) in lockstep: one forward pass, decision, gradient and step a
batch for all (see `wsml.model` and `wsml.schemes`), each arm with the bits it has alone.
`run` is the stack of one.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

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
    "run_stack",
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
    losses in once, at epoch end, by row: a stack's (arms, n, K) at once.
    """

    def __init__(self, *shape: int):  # (n, k), or a stack's (arms, n, k)
        self.max_loss = np.full(shape, -np.inf)
        self.argmax_epoch = np.zeros(shape, dtype=np.int64)
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


def _validation_map(classifier, ds: PartialDataset, rows: np.ndarray) -> float:
    """Validation mAP as a fraction over the dataset's `rows`, whose features are taken for the pass
    alone: against truth when present, otherwise over observed entries only (the others score -1.0, below a NaN
    probability's 0.0 and every clamped one, so the observed entries keep their own ranking's ranks and bits)."""
    # features checked with the dataset; the pass's buffers are freed again before the next epoch
    probs, states = model_mod.forward_pass(classifier, ds.features.take(rows, axis=0)).probs, ds.states[rows]
    if ds.truth is not None:
        return evaluation.mean_average_precision(probs, ds.truth[rows]).mean
    positive = states == OBS_POS
    if not positive.any():
        raise ValueError("validation mAP undefined: no category has an observed positive")
    scores = np.where(positive | (states == OBS_NEG), np.nan_to_num(probs, nan=0.0), -1.0)
    return evaluation.mean_average_precision(scores, positive).mean


@dataclass
class _Arm:
    """One run of a stack: all it owns but its row of the stacked parameters, states, tracker and buffers."""

    cfg: TrainConfig
    train_idx: np.ndarray  # its rows of the dataset, whose features the arms share
    val_idx: np.ndarray
    states: np.ndarray  # of the training rows, private: permanent corrections mutate them
    truth: np.ndarray | None  # where its training rows' truth is 1
    epoch_seeds: list
    best_model: model_mod.Classifier
    permanent: bool
    epoch_level: bool  # permanent corrections selected over the epoch's losses, at epoch end
    tracker: MemorizationTracker | None = None
    records: list[EpochRecord] = field(default_factory=list)
    cum_corrections: int = 0
    cum_true_pos: int = 0  # true positives among all flags so far: under LL-Cp, its corrections
    best_epoch: int = 0
    best_val: float = -1.0
    train_loss: float = math.nan  # of the epoch, until its record is made
    failure: Exception | None = None  # what stopped the run: from then on its row of the stack selects nothing


def _start(cfg: TrainConfig, ds: PartialDataset, test_ds: PartialDataset | None) -> _Arm:
    """Check one run's inputs and set it up: its split, its initial model (`best_model`) and its seeds."""
    cfg.validate()
    if ds.n < 2:
        raise ValueError(f"need at least 2 samples to split, got {ds.n}")
    if test_ds is not None and test_ds.truth is None:
        raise ValueError("test dataset requires ground-truth labels")
    if test_ds is not None and (test_ds.d, test_ds.k) != (ds.d, ds.k):
        raise ValueError(f"test dataset has (D, K) = ({test_ds.d}, {test_ds.k}), training data ({ds.d}, {ds.k})")

    split_seed, init_seed, shuffle_seed = np.random.SeedSequence(cfg.seed).spawn(3)
    train_idx, val_idx = split_indices(ds.n, cfg.val_fraction, split_seed)
    permanent = schemes.SPECS[cfg.scheme.scheme].action == "permanent"
    return _Arm(cfg, train_idx, val_idx, ds.states[train_idx], None if ds.truth is None else ds.truth[train_idx] == 1,
                shuffle_seed.spawn(cfg.epochs), model_mod.init_classifier(cfg.arch, ds.d, ds.k, cfg.hidden, init_seed),
                permanent, permanent and cfg.llcp_granularity == "epoch")


def _arms(a: np.ndarray, visiting: bool = False) -> list[np.ndarray]:
    """Each arm's (n, K) part of a stack's array, (arms, n, K) by row or (n, arms, K) `visiting`; a lone run's own."""
    return [a] if a.ndim == 2 else list(a.swapaxes(0, 1) if visiting else a)


def _buffers(classifier, n: int, k: int, d: int, batch_size: int):
    """A stack's reused arrays: each arm's dataset rows and each (row, arm)'s row of its (*arms, n, K) arrays, in
    visiting order; (probabilities, AN losses, flags), (n, *arms, K) likewise; the gradient; the batches' rows; and
    each batch's rows, feature rows, probabilities in both layouts, forward pass, gradient deltas and output delta."""
    arms, full = classifier.flat.shape[:-1], min(batch_size, n)
    rows, probs, flags = np.empty((*arms, n), dtype=np.int64), np.empty((n, *arms, k)), np.empty((n, *arms, k), dtype=bool)
    passes = {size: (np.empty((*arms, size, d)), *(model_mod.ForwardPass.empty(classifier, size) for _ in range(2)))
              for size in (full, n % batch_size or full)}  # (feature rows, forward pass, deltas): full and last batch
    slices, batches = [slice(start, start + batch_size) for start in range(0, n, batch_size)], []
    for batch in slices:
        x, work, deltas = passes[min(batch_size, n - batch.start)]
        batches.append((rows[..., batch], x, np.moveaxis(probs[batch], 0, -2), probs[batch], work, deltas,
                        np.moveaxis(deltas.raw, -2, 0)))
    grad, seen, visit = np.empty_like(classifier.flat), np.empty((n, *arms, k)), np.empty((n, math.prod(arms)), np.intp)
    return rows, visit, probs, seen, flags, grad, classifier.views(grad), batches, slices


def _train_epoch(stack, classifier, ds: PartialDataset, arms: list[_Arm], epoch: int, opt, buffers) -> None:
    """One pass of the stack (`classifier`: the `stack`, or a lone run's arm) over its arms' data, then each live
    arm's `_end_epoch`, the tracker fold and each live arm's `_settle`; an exception stops its arm as its `failure`.
    A batch takes every arm's feature rows, one forward pass, one decision and output delta for all arms, one
    backward pass and one step."""
    rows, visit, probs, seen, flags, grad, grad_views, batches, slices, base, tracker, states = buffers
    (n, k), first = tracker.max_loss.shape[-2:], arms[0]
    for i, (arm, arm_rows) in enumerate(zip(arms, rows.reshape(-1, n))):
        if arm.failure is None:
            order = np.random.default_rng(arm.epoch_seeds[epoch - 1]).permutation(n)
            arm.train_idx.take(order, out=arm_rows)
            np.add(order, i * n, out=visit[:, i])
    rows_plan = schemes.plan_rows(base.scheme, states, base.cfgs) if first.permanent and epoch > 1 else base
    if first.epoch_level:  # each batch trains on the AN targets; the plan's schedule selects at epoch end
        rows_plan = replace(rows_plan, spec=schemes.SPECS[schemes.Scheme.NAIVE_AN])
    plan = schemes.plan_epoch(rows_plan, epoch, visit.reshape(-1), slices, [arm.failure is None for arm in arms])
    flags.fill(False)

    for i, (batch_rows, x, batch_probs, planned_probs, work, deltas, delta) in enumerate(batches):
        ds.features.take(batch_rows, axis=0, out=x, mode="clip")  # clip: the rows are valid, and raise buffers `out`
        fwd = model_mod.forward_pass(classifier, x, batch_probs, work)
        model_mod.output_delta(planned_probs, *schemes.decide_planned(plan, i, probs, flags), delta)
        model_mod.backward(classifier, fwd, deltas, grad, grad_views)
        model_mod.step(classifier, grad, opt)

    # the AN losses against the targets each run started from; LL-Cp's states have changed since
    positive = base.an.reshape(-1, k).take(visit.reshape(-1), axis=0).reshape(plan.an.shape) if first.permanent else plan.an
    losses = schemes.epoch_losses(plan, probs, flags, seen, positive)  # over the probabilities
    for arm, arm_losses in zip(arms, _arms(losses, True)):
        arm.failure = arm.failure or _attempt(_end_epoch, arm, epoch, arm_losses)
    if all(arm.failure for arm in arms):  # nothing left to fold in
        return
    # every row was visited exactly once, so one fold by row does what a fold per batch would
    by_row, row_flags = losses.reshape(tracker.max_loss.shape), np.empty(tracker.max_loss.shape, dtype=bool)
    by_row.reshape(-1, k)[visit.reshape(-1)] = seen.reshape(-1, k)  # the AN losses by row, in a buffer that is free again
    tracker.update(by_row, epoch)
    row_flags.reshape(-1, k)[visit.reshape(-1)] = flags.reshape(-1, k)  # all False under epoch-level LL-Cp
    schedules, absolute = plan.rate or plan.threshold, plan.rate is None
    del plan, positive  # freed before validation: less to hold
    for i, (arm, *views) in enumerate(zip(arms, _arms(by_row), _arms(row_flags), schedules)):
        arm.failure = arm.failure or _attempt(_settle, arm, epoch, *views, absolute, stack.arm(i), ds)


def _attempt(fn, *args):
    """fn(*args), or the exception it raised: an arm of a stack fails alone, and `run` raises it again."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any exception, as a lone run would raise it
        return exc


def _end_epoch(arm: _Arm, epoch: int, losses) -> None:
    """Set an arm's train loss from its epoch losses (`schemes.epoch_losses`, written over its probabilities) in visiting
    order. Raises TrainingDiverged on a non-finite batch loss."""
    n, k = losses.shape
    full = n - n % arm.cfg.batch_size  # each batch's sum over one contiguous block, as the batch had it
    batch_losses = losses[:full].reshape(-1, arm.cfg.batch_size * k).sum(axis=1).tolist()
    batch_losses += [float(losses[full:].sum())] if full < n else []
    weighted_total = 0.0
    for batch_loss in batch_losses:  # in batch order
        if not math.isfinite(batch_loss):
            raise TrainingDiverged(epoch)
        weighted_total += batch_loss
    arm.train_loss = weighted_total / (n * k)


def _settle(arm: _Arm, epoch: int, losses, flags, schedule, absolute: bool, model, ds: PartialDataset) -> None:
    """An arm's epoch-level selection, corrections and record, from its AN losses and flags by row, its epoch's rate or
    threshold (`absolute`) and its model after the epoch (a view of its row of the stack), whose validation mAP is
    recorded; a copy of the model is kept if that is the best yet."""
    if (flags & (arm.states != UNKNOWN)).any():  # before any flag is counted or corrected
        raise AssertionError("flag selection touched an observed or corrected entry")
    # each batch's threshold is the smallest AN loss it flagged (NaN: none), or an absolute schedule's
    threshold = schedule if absolute else float(np.fmin.reduce(losses[flags], initial=np.nan))
    if arm.epoch_level:  # select over the epoch's AN losses, by row: ties break toward ascending (row, column)
        candidates = np.flatnonzero(arm.states == UNKNOWN)
        _, threshold = schemes.select_large_losses(losses.reshape(-1)[candidates], candidates,
                                                   None if absolute else schedule, schedule if absolute else None, flags)
    flagged = schemes.apply_permanent_corrections(arm.states, flags) if arm.permanent else int(np.count_nonzero(flags))
    arm.cum_corrections += flagged if arm.permanent else 0
    true_pos = None if arm.truth is None else int(np.count_nonzero(flags & arm.truth))
    arm.cum_true_pos += true_pos or 0
    # the precision of LL-Cp's corrections so far, else of this epoch's flags; None without truth or flags
    hits, total = (arm.cum_true_pos, arm.cum_corrections) if arm.permanent else (true_pos, flagged)
    val_map = _validation_map(model, ds, arm.val_idx) * 100.0
    arm.records.append(EpochRecord(
        epoch=epoch, train_loss=arm.train_loss, val_map=val_map, flags=flagged, flags_true_pos=true_pos,
        flag_precision=hits / total if true_pos is not None and total else None,
        cum_corrections=arm.cum_corrections, threshold_min=threshold))
    if val_map > arm.best_val:
        arm.best_val, arm.best_epoch, arm.best_model = val_map, epoch, model.copy()


def _report(arm: _Arm, ds: PartialDataset, test_ds: PartialDataset | None) -> RunReport:
    """A finished arm's report, with its best model's test mAP."""
    test_map = None if test_ds is None else evaluation.mean_average_precision(
        model_mod.forward(arm.best_model, test_ds.features), test_ds.truth).mean * 100.0
    arm.best_model.frozen_hidden = False
    return RunReport(records=arm.records, best_epoch=arm.best_epoch, best_val_map=arm.best_val, best_model=arm.best_model,
                     test_map=test_map, tracker=arm.tracker, train_indices=arm.train_idx, effective_n=ds.n,
                     initial_states=ds.states[arm.train_idx], final_states=arm.states.copy())


def run_stack(cfgs: list[TrainConfig], ds: PartialDataset,
              test_ds: PartialDataset | None = None) -> list[RunReport | Exception]:
    """Train the runs `cfgs`, which may differ only in seed and the scheme's hyperparameters, over `ds` in
    lockstep: their parameters, moments and activations share arrays with an arm axis, so each numpy call
    serves every arm. Returns each run's report, with the bits `run` gives it, or what stopped it alone."""
    first = cfgs[0]
    if any(replace(cfg, seed=first.seed, scheme=first.scheme) != first or cfg.scheme.scheme != first.scheme.scheme
           for cfg in cfgs):
        raise ValueError("the runs of a stack may differ only in seed and the scheme's hyperparameters")
    starts = [_attempt(_start, cfg, ds, test_ds) for cfg in cfgs]  # each arm, or the exception that stopped it
    arms = [arm for arm in starts if isinstance(arm, _Arm)]
    if arms:  # `first` has every setting they share, whether it started or not
        stack = model_mod.Classifier(first.arch, {name: np.stack([arm.best_model.params[name] for arm in arms])
                                                  for name in arms[0].best_model.params})
        # a lone run trains without the arm axis: np.dot's call costs about 0.65 us less than np.matmul's
        classifier = stack.arm(0) if len(arms) == 1 else stack
        opt = model_mod.make_optimizer(first.optimizer, first.learning_rate, classifier)
        tracker = MemorizationTracker(*classifier.flat.shape[:-1], *arms[0].states.shape)
        states = arms[0].states if len(arms) == 1 else np.stack([arm.states for arm in arms])  # (*arms, n, K)
        for arm, arm_states in zip(arms, _arms(states)):  # a view: LL-Cp's corrections land in the stack's states
            arm.states = arm_states
        buffers = (*_buffers(classifier, len(arms[0].train_idx), ds.k, ds.d, first.batch_size),
                   schemes.plan_rows(first.scheme.scheme, states, [arm.cfg.scheme for arm in arms]), tracker, states)
        for epoch in range(1, first.epochs + 1):
            classifier.frozen_hidden = epoch <= first.frozen_epochs
            _train_epoch(stack, classifier, ds, arms, epoch, opt, buffers)
            if all(arm.failure is not None for arm in arms):
                break
        for arm, max_loss, argmax in zip(arms, _arms(tracker.max_loss), _arms(tracker.argmax_epoch)):
            arm.tracker = copy.copy(tracker)  # whose arrays are views of the stack's
            arm.tracker.max_loss, arm.tracker.argmax_epoch = max_loss, argmax
    return [arm if isinstance(arm, Exception) else arm.failure or _attempt(_report, arm, ds, test_ds) for arm in starts]


def run(cfg: TrainConfig, ds: PartialDataset, test_ds: PartialDataset | None = None) -> RunReport:
    """Train for the configured epochs and keep the best-validation model: the stack of one.

    Ties on validation mAP resolve to the earliest epoch. Reported mAP values
    are percentages. Raises TrainingDiverged on a non-finite batch loss.
    """
    result = run_stack([cfg], ds, test_ds)[0]
    if isinstance(result, Exception):
        raise result
    return result
