"""Training loop: scheme-weighted optimization with memorization tracking,
validation-based model selection, and permanent-correction bookkeeping.

A run is a pure function of (config, dataset, test dataset): sample split,
parameter init, and per-epoch shuffles all derive from the config seed. The
run owns private copies of everything it mutates, so concurrent runs over a
shared dataset are safe.

`run_stack` trains runs that differ only in seed and the scheme's hyperparameters
(a delta-rel sweep's arms) in lockstep: one forward pass, gradient and step a batch
for all (see `wsml.model`), each arm with the bits it has alone. `run` is the stack of one.
"""

from __future__ import annotations

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


def _validation_map(classifier, ds: PartialDataset, rows: np.ndarray) -> float:
    """Validation mAP as a fraction over the dataset's `rows`, whose features are taken for the pass
    alone: against truth when present, otherwise over observed entries only (unknown entries leave
    the ranking)."""
    # features checked with the dataset; the pass's buffers are freed again before the next epoch
    probs, states = model_mod.forward_pass(classifier, ds.features.take(rows, axis=0)).probs, ds.states[rows]
    if ds.truth is not None:
        return evaluation.mean_average_precision(probs, ds.truth[rows]).mean
    aps = []
    for k in range(states.shape[1]):
        observed = (states[:, k] == OBS_POS) | (states[:, k] == OBS_NEG)
        labels = (states[:, k] == OBS_POS).astype(np.int8)
        if labels[observed].sum() == 0:
            continue
        aps.append(evaluation.average_precision(probs[observed, k], labels[observed]))
    if not aps:
        raise ValueError("validation mAP undefined: no category has an observed positive")
    return float(np.mean(aps))


@dataclass
class _Arm:
    """One run of a stack: all it owns but its row of the stacked parameters, moments and buffers."""

    cfg: TrainConfig
    train_idx: np.ndarray  # its rows of the dataset, whose features the arms share
    val_idx: np.ndarray
    states: np.ndarray  # of the training rows, private: permanent corrections mutate them
    truth: np.ndarray | None
    an0: np.ndarray  # the assumed positives the run started from
    epoch_seeds: list
    tracker: MemorizationTracker
    best_model: model_mod.Classifier
    permanent: bool
    epoch_level: bool  # permanent corrections selected over the epoch's losses, at epoch end
    records: list[EpochRecord] = field(default_factory=list)
    cum_corrections: int = 0
    cum_true_pos: int = 0  # true positives among all flags so far: under LL-Cp, its corrections
    best_epoch: int = 0
    best_val: float = -1.0
    failure: Exception | None = None  # what stopped the run: the stack skips its row from then on
    order: np.ndarray | None = None  # the epoch's visiting order (as training rows), plan and thresholds
    plan: schemes.EpochPlan | None = None
    thresholds: list[float] = field(default_factory=list)


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
    states, permanent = ds.states[train_idx], schemes.SPECS[cfg.scheme.scheme].action == "permanent"
    return _Arm(cfg, train_idx, val_idx, states, None if ds.truth is None else ds.truth[train_idx],
                schemes.an_targets_from_states(states) == 1.0, shuffle_seed.spawn(cfg.epochs),
                MemorizationTracker(*states.shape), model_mod.init_classifier(cfg.arch, ds.d, ds.k, cfg.hidden, init_seed),
                permanent, permanent and cfg.llcp_granularity == "epoch")


def _buffers(classifier, n: int, k: int, d: int, batch_size: int):
    """A stack's reused arrays: each arm's rows of the dataset, (probabilities, AN losses, flags) of them in
    visiting order, the gradient, and for each batch, made once, its slice, rows, feature rows, probabilities,
    forward pass and gradient deltas, and each arm's probabilities, flags and output delta."""
    arms, full = classifier.flat.shape[:-1], min(batch_size, n)

    def per_arm(a):  # each arm's part of an array, or the one part of a lone run's, which has no arm axis
        return list(a.reshape(-1, *a.shape[len(arms):]))

    rows, probs, flags = np.empty((*arms, n), dtype=np.int64), np.empty((*arms, n, k)), np.empty((*arms, n, k), dtype=bool)
    passes = {size: (np.empty((*arms, size, d)), *(model_mod.ForwardPass.empty(classifier, size) for _ in range(2)))
              for size in (full, n % batch_size or full)}  # (feature rows, forward pass, deltas): full and last batch
    batches = []
    for start in range(0, n, batch_size):
        batch, (x, work, deltas) = slice(start, start + batch_size), passes[min(batch_size, n - start)]
        batches.append((batch, rows[..., batch], x, probs[..., batch, :], work, deltas,
                        list(zip(*map(per_arm, (probs[..., batch, :], flags[..., batch, :], deltas.raw))))))
    grad, seen = np.empty_like(classifier.flat), np.empty((*arms, n, k))
    return per_arm(rows), [*zip(*map(per_arm, (probs, seen, flags)))], flags, grad, classifier.views(grad), batches


def _train_epoch(stack, classifier, ds: PartialDataset, arms: list[_Arm], epoch: int, opt, buffers) -> None:
    """One pass of the stack (`classifier`: the `stack`, or a lone run's arm) over its arms' data, then each
    live arm's epoch end and record, or the exception that stops it as its `failure`. A batch takes every arm's
    feature rows, one forward pass, each arm's decision and output delta, one backward pass and one step."""
    arm_rows, arm_ends, flags, grad, grad_views, batches = buffers
    flags.fill(False)
    for arm, rows in zip(arms, arm_rows):
        if arm.failure is None:
            arm.order = np.random.default_rng(arm.epoch_seeds[epoch - 1]).permutation(len(arm.train_idx))
            arm.train_idx.take(arm.order, out=rows)
            arm.plan = schemes.plan_epoch(arm.cfg.scheme.scheme, arm.states[arm.order], epoch, arm.cfg.scheme)
            if arm.epoch_level:  # each batch trains on the AN targets; the plan's schedule selects at epoch end
                arm.plan.spec = schemes.SPECS[schemes.Scheme.NAIVE_AN]
            arm.thresholds = []

    for batch, batch_rows, x, batch_probs, work, deltas, arm_views in batches:
        ds.features.take(batch_rows, axis=0, out=x, mode="clip")  # clip: the rows are valid, and raise buffers `out`
        fwd = model_mod.forward_pass(classifier, x, batch_probs, work)
        for arm, (arm_probs, arm_flags, delta) in zip(arms, arm_views):
            if arm.failure is None:
                targets, weights, threshold = schemes.decide_planned(arm.plan, batch, arm_probs, arm_flags)
                model_mod.output_delta(arm_probs, targets, weights, delta)
                if not math.isnan(threshold):
                    arm.thresholds.append(threshold)
        model_mod.backward(classifier, fwd, deltas, grad, grad_views)
        model_mod.step(classifier, grad, opt)

    ends = [arm.failure or _attempt(_end_epoch, arm, epoch, *bufs) for arm, bufs in zip(arms, arm_ends)]
    for i, (arm, end) in enumerate(zip(arms, ends)):  # validated once every arm's plan is freed: less to hold
        if arm.failure is None:  # its model after the epoch is a view of its row of the stack
            arm.failure = end if isinstance(end, Exception) else _attempt(_record, arm, end, stack.arm(i), ds)


def _attempt(fn, *args):
    """fn(*args), or the exception it raised: an arm of a stack fails alone, and `run` raises it again."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any exception, as a lone run would raise it
        return exc


def _end_epoch(arm: _Arm, epoch: int, probs, seen, seen_flags) -> EpochRecord:
    """An arm's epoch end from its (probabilities, AN losses, flags) in visiting order: losses, tracker fold,
    selection and corrections; returns its record but for validation. Raises TrainingDiverged on a non-finite
    batch loss. `epoch_losses` takes one AN-loss log pass into `seen`; `probs` then takes them by row."""
    cfg, plan, order, states = arm.cfg, arm.plan, arm.order, arm.states
    n, k = states.shape

    losses = schemes.epoch_losses(plan, probs, seen_flags, seen, arm.an0[order])  # over the probabilities
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
    arm.tracker.update(losses, epoch)
    flags = np.empty_like(seen_flags)
    flags[order] = seen_flags  # all False under epoch-level LL-Cp, whose batches flag nothing
    if arm.epoch_level:  # select over the epoch's AN losses, by row: ties break toward ascending (row, column)
        candidates = np.flatnonzero(states == UNKNOWN)
        _, threshold = schemes.select_large_losses(losses.reshape(-1)[candidates], candidates, plan.rate,
                                                   plan.threshold, flags)
        if not math.isnan(threshold):
            arm.thresholds.append(threshold)
    arm.plan = None  # freed before validation: less to hold
    flagged = schemes.apply_permanent_corrections(states, flags) if arm.permanent else int(flags.sum())
    arm.cum_corrections += flagged if arm.permanent else 0
    true_pos = None if arm.truth is None else int((flags & (arm.truth == 1)).sum())
    arm.cum_true_pos += true_pos or 0
    # the precision of LL-Cp's corrections so far, else of this epoch's flags; None without truth or flags
    hits, total = (arm.cum_true_pos, arm.cum_corrections) if arm.permanent else (true_pos, flagged)
    return EpochRecord(  # val_map comes with `_record`
        epoch=epoch, train_loss=weighted_total / (n * k), val_map=math.nan, flags=flagged, flags_true_pos=true_pos,
        flag_precision=hits / total if true_pos is not None and total else None,
        cum_corrections=arm.cum_corrections, threshold_min=min(arm.thresholds, default=float("nan")))


def _record(arm: _Arm, record: EpochRecord, model, ds: PartialDataset) -> None:
    """Record an arm's epoch with its model's validation mAP, and keep a copy of the model if that is the best yet."""
    record.val_map = _validation_map(model, ds, arm.val_idx) * 100.0
    arm.records.append(record)
    if record.val_map > arm.best_val:
        arm.best_val, arm.best_epoch, arm.best_model = record.val_map, record.epoch, model.copy()


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
        buffers = _buffers(classifier, len(arms[0].train_idx), ds.k, ds.d, first.batch_size)
        for epoch in range(1, first.epochs + 1):
            classifier.frozen_hidden = epoch <= first.frozen_epochs
            _train_epoch(stack, classifier, ds, arms, epoch, opt, buffers)
            if all(arm.failure is not None for arm in arms):
                break
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
