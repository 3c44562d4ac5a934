"""Loss weighting and flagging schemes over assume-negative targets.

Every scheme turns a batch of probabilities plus label states into an
effective target matrix and a weight matrix for the weighted elementwise
binary cross entropy. The large-loss family additionally selects UNKNOWN
entries whose loss is large and rejects them (weight 0), temporarily corrects
them (effective target 1), or marks them for permanent correction. An epoch
plan serves all the arms of a stack: a batch takes one selection for them all.

All operations here are pure except apply_permanent_corrections, which
requires exclusive access to the state matrix it corrects.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import CORRECTED_POS, UNKNOWN, an_targets_from_states

__all__ = [
    "Scheme",
    "SchemeConfig",
    "SchemeSpec",
    "SPECS",
    "EpochPlan",
    "an_losses",
    "bce_elementwise",
    "rejection_rate",
    "absolute_threshold",
    "quota",
    "select_large_losses",
    "plan_rows",
    "plan_epoch",
    "decide_planned",
    "epoch_losses",
    "apply_permanent_corrections",
]


class Scheme(str, enum.Enum):
    """Scheme selector; values double as the CLI tokens."""

    NAIVE_AN = "naive-an"
    IGNORE_UNOBSERVED = "ignore-unobserved"
    WAN = "wan"
    LSAN = "lsan"
    LL_R = "ll-r"
    LL_CT = "ll-ct"
    LL_CP = "ll-cp"
    LL_R_ABS = "ll-r-abs"
    LL_CT_ABS = "ll-ct-abs"
    LL_CP_ABS = "ll-cp-abs"


@dataclass(frozen=True)
class SchemeSpec:
    """What a scheme does, as data.

    target: base effective target, "an" (assume negative) or "smoothed".
    weight: base weight rule, "ones", "ignore-unknown" or "wan".
    action: what happens to flagged large-loss entries, "none", "reject"
        (weight 0), "temporary" (target 1) or "permanent" (corrected state).
    schedule: how entries are flagged, "none", "relative" (a rate of the
        unknown entries) or "absolute" (a loss threshold).
    reads: the SchemeConfig hyperparameters the scheme uses.
    """

    target: str
    weight: str
    action: str
    schedule: str
    reads: frozenset[str]


_RELATIVE = frozenset({"delta_rel"})
_ABSOLUTE = frozenset({"r0", "delta_abs"})

SPECS = {
    Scheme.NAIVE_AN: SchemeSpec("an", "ones", "none", "none", frozenset()),
    Scheme.IGNORE_UNOBSERVED: SchemeSpec("an", "ignore-unknown", "none", "none", frozenset()),
    Scheme.WAN: SchemeSpec("an", "wan", "none", "none", frozenset()),
    Scheme.LSAN: SchemeSpec("smoothed", "ones", "none", "none", frozenset({"eps_smooth"})),
    Scheme.LL_R: SchemeSpec("an", "ones", "reject", "relative", _RELATIVE),
    Scheme.LL_CT: SchemeSpec("an", "ones", "temporary", "relative", _RELATIVE),
    Scheme.LL_CP: SchemeSpec("an", "ones", "permanent", "relative", _RELATIVE),
    Scheme.LL_R_ABS: SchemeSpec("an", "ones", "reject", "absolute", _ABSOLUTE),
    Scheme.LL_CT_ABS: SchemeSpec("an", "ones", "temporary", "absolute", _ABSOLUTE),
    Scheme.LL_CP_ABS: SchemeSpec("an", "ones", "permanent", "absolute", _ABSOLUTE),
}


@dataclass
class SchemeConfig:
    """Scheme plus its hyperparameters.

    delta_rel: rate growth in percentage points per epoch (relative schedules).
    r0, delta_abs: initial threshold and per-epoch decrement (absolute schedules).
    eps_smooth: label smoothing mass (LSAN).
    """

    scheme: Scheme
    delta_rel: float = 0.2
    r0: float = 1.5
    delta_abs: float = 0.15
    eps_smooth: float = 0.1

    def __post_init__(self):
        self.scheme = Scheme(self.scheme)

    def validate(self) -> None:
        # delta_rel = 0 is allowed: it degenerates the relative schedules to
        # the naive baseline, which the equivalence checks rely on.
        reads = SPECS[self.scheme].reads
        if "delta_rel" in reads and not 0 <= self.delta_rel < math.inf:
            raise ValueError(f"delta_rel must be nonnegative and finite, got {self.delta_rel}")
        if "r0" in reads and not 0 < self.r0 < math.inf:
            raise ValueError(f"r0 must be positive and finite, got {self.r0}")
        if "delta_abs" in reads and not 0 <= self.delta_abs < math.inf:
            raise ValueError(f"delta_abs must be nonnegative and finite, got {self.delta_abs}")
        if not 0.0 <= self.eps_smooth < 0.5:
            raise ValueError(f"eps_smooth must lie in [0, 0.5), got {self.eps_smooth}")


def an_losses(probs: np.ndarray, positive: np.ndarray, out: np.ndarray) -> np.ndarray:
    """-log(where(positive, p, 1 - p)): the elementwise binary cross entropy against
    the targets of the boolean mask `positive`, with the bits of where(positive, -log p,
    -log(1 - p)) from one log pass; probs must be pre-clamped away from {0, 1}.
    out: where to write it, which may not be probs."""
    out = np.subtract(1.0, probs, out=out)  # a plain subtract: a masked ufunc loop costs more than the masked copy
    np.copyto(out, probs, where=positive)
    return np.negative(np.log(out, out=out), out=out)


def bce_elementwise(probs: np.ndarray, targets: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise binary cross entropy targets * -log p + (1 - targets) * -log(1 - p);
    probs must be pre-clamped away from {0, 1}. out: where to write it, which
    may be probs itself; new when None."""
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if probs.shape != targets.shape:
        raise ValueError(f"shape mismatch: probs {probs.shape} vs targets {targets.shape}")
    neg = np.log(np.subtract(1.0, probs))  # log(1 - p), negated by the subtraction below
    losses = np.log(probs, out=out)
    np.negative(losses, out=losses)
    losses *= targets
    neg *= np.subtract(1.0, targets)
    return np.subtract(losses, neg, out=losses)


def rejection_rate(scheme: Scheme, epoch: int, cfg: SchemeConfig) -> float | None:
    """Selection rate in percent for relative schedules; None for absolute ones.

    Rejection/temporary correction ramps as (epoch - 1) * delta_rel; permanent
    correction uses the constant delta_rel after a no-op first epoch.
    """
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch}")
    spec = SPECS[Scheme(scheme)]
    if spec.schedule == "absolute":
        return None
    if spec.schedule == "none":
        return 0.0
    if spec.action == "permanent":
        return 0.0 if epoch == 1 else float(min(max(cfg.delta_rel, 0.0), 100.0))
    return float(min(max((epoch - 1) * cfg.delta_rel, 0.0), 100.0))


def absolute_threshold(epoch: int, cfg: SchemeConfig) -> float:
    """Loss threshold for the absolute schedules: r0 - epoch * delta_abs."""
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch}")
    return cfg.r0 - epoch * cfg.delta_abs


# candidates from which a one-arm selection partitions rather than sorts: the sort is cheaper below
PARTITION_MIN = 512
# arm a's scale 2^(-32a) in a stack's ranking; from arm 32 on NaN, whose ranking falls back to the stable sort
_SCALES = np.append(np.ldexp(1.0, np.arange(0, -1024, -32)), np.nan)


def quota(rate: float | np.ndarray, m: int | np.ndarray):
    """How many of m UNKNOWN entries a relative schedule flags: floor(rate/100 * m), at most m; elementwise."""
    return np.minimum((np.divide(rate, 100.0) * m).astype(np.int64), m)


def select_large_losses(losses: np.ndarray, candidates: np.ndarray, rate: float | None, threshold: float | None,
                        flags: np.ndarray):
    """Flag large-loss UNKNOWN entries in `flags`; returns (flags, threshold used). Nothing is checked.

    candidates: the ascending flat indices of the UNKNOWN entries into `flags`, an all-False
    C-contiguous mask; losses: their losses, in the same order.

    Relative mode (rate in percent, threshold None): flags exactly quota(rate, M) of the
    M candidates, taking the largest losses; ties break toward ascending (row, column) index.
    The reported threshold is the smallest flagged loss, NaN when nothing is flagged.

    Absolute mode (threshold given, rate None): flags every candidate with loss strictly
    greater than the threshold.
    """
    k = None if rate is None else quota(rate, len(candidates))
    if k == 0:
        return flags, float("nan")
    if k is None:
        flags.put(candidates[losses > threshold], True)
        return flags, float(threshold)
    order = _ranked(np.negative(losses), np.arange(k))
    flags.put(candidates[order], True)
    return flags, float(losses[order[-1]])


def _ranked(keys: np.ndarray, picks: np.ndarray, arm: np.ndarray | None = None) -> np.ndarray:
    """The places `picks` of np.lexsort((keys, arm)), or without arms keys.argsort(kind="stable") (picks: its first
    places), of negated losses: each arm's largest first, ties toward the earlier place, NaN last. The stable sort costs
    several times a quicksort, which ranks instead wherever no tie, NaN or out-of-range key could change the order."""
    if arm is None and len(keys) >= PARTITION_MIN:  # a partition, cheaper still: the keys below the k-th, then its ties
        kth = np.partition(keys, len(picks) - 1)[len(picks) - 1]
        if not math.isnan(kth):  # else fewer than k keys are numbers, and the check below fails
            below = np.flatnonzero(keys < kth)
            return np.concatenate([below, np.flatnonzero(keys == kth)[:len(picks) - len(below)]])
    ranked = keys if arm is None else keys * _SCALES.take(arm, mode="clip")  # exact: in [-32, -2^-26], below arm + 1's
    order = ranked.argsort()
    ranked = ranked.take(order)
    if not (ranked[1:] > ranked[:-1]).all() or arm is not None and not (-32.0 <= keys.min() and keys.max() <= -2.0**-26):
        order = keys.argsort(kind="stable") if arm is None else np.lexsort((keys, arm))
    return order[picks]


@dataclass
class EpochPlan:
    """What the label states fix of a stack's batch decisions: the AN positives, the UNKNOWN mask, the base targets
    (`an` itself, whose bools have the float targets' bits in a difference, or LSAN's smoothed ones) and weights, laid
    out like the states, (*arms, n, K), by `plan_rows`, and in an epoch's visiting order, (n, *arms, K), by `plan_epoch`,
    which adds each arm's schedule (its rate, or its threshold if `spec.schedule` is "absolute") and each batch's rows
    and selection (None: none). counts: each row's UNKNOWN entries."""

    spec: SchemeSpec
    cfgs: list[SchemeConfig]
    an: np.ndarray
    unknown: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    counts: np.ndarray
    schedule: list[float] = field(default_factory=list)
    batches: list = field(default_factory=list)


def plan_rows(states: np.ndarray, cfgs: list[SchemeConfig]) -> EpochPlan:
    """The plan's arrays over `states` (*arms, n, K), of the arms with the configs `cfgs`, one per arm, all of one
    scheme. Once per run for a scheme that never changes states (all but LL-Cp)."""
    spec, states = SPECS[cfgs[0].scheme], np.asarray(states)
    an, unknown = an_targets_from_states(states) == 1.0, states == UNKNOWN
    targets = an
    if spec.target == "smoothed":  # where(an, 1 - eps, eps): the bits of an * (1 - eps) + (1 - an) * eps
        eps = np.array([cfg.eps_smooth for cfg in cfgs]).reshape(*states.shape[:-2], 1, 1)
        targets = np.where(an, 1.0 - eps, eps)
    if spec.weight == "ignore-unknown":
        weights = np.where(unknown, 0.0, 1.0)
    elif spec.weight == "wan":
        weights = np.where(an, 1.0, 1.0 / (states.shape[-1] - 1))
    else:
        weights = np.broadcast_to(1.0, states.shape)  # read-only, and no memory held for the epoch
    return EpochPlan(spec, cfgs, an, unknown, targets, weights, unknown.sum(axis=-1))


def plan_epoch(rows: EpochPlan, epoch: int, order: np.ndarray, batches: list[slice], live: list[bool]) -> EpochPlan:
    """The part of epoch `epoch`'s decisions that does not read the model, which holds for the whole epoch: permanent
    corrections land only at epoch end. order: for each (visiting row, arm) in turn, the row of `rows`' arrays seen
    as (arms * n, K) that it visits. batches: each batch's visiting rows, in turn. live: which arms select in the
    batches (not epoch-level LL-Cp, whose schedule selects at epoch end). A batch's selection: the ascending flat
    indices of its selecting arms' UNKNOWN entries into the (n, *arms, K) arrays, their arm (None in a lone run), and
    each one's -threshold (absolute) or the places flagged in their stable (arm, -loss) order, each arm's first quota."""
    spec, (n, k), arms = rows.spec, rows.an.shape[-2:], len(rows.cfgs)

    def reorder(a):  # a broadcast 1.0 has no rows to take
        shape = (n, *rows.an.shape[:-2], k)
        return a.reshape(-1, k).take(order, axis=0).reshape(shape) if any(a.strides) else np.broadcast_to(1.0, shape)

    an, relative = reorder(rows.an), spec.schedule != "absolute"
    plan = EpochPlan(spec, rows.cfgs, an, reorder(rows.unknown), an if rows.targets is rows.an else
                     reorder(rows.targets), reorder(rows.weights), rows.counts.reshape(-1).take(order).reshape(n, arms),
                     [rejection_rate(cfg.scheme, epoch, cfg) if relative else absolute_threshold(epoch, cfg)
                      for cfg in rows.cfgs])
    plan.batches = [(batch, None) for batch in batches]
    if spec.action == "none" or not any(live) or relative and not any(plan.schedule):
        return plan
    bounds = np.array([*(batch.start for batch in batches), n])
    counts = np.add.reduceat(plan.counts, bounds[:-1])  # of each (batch, arm): a live one selects at a positive quota
    quotas = np.where(live, quota(np.array(plan.schedule), counts) if relative else counts, 0)
    counts *= quotas > 0
    selects = (quotas > 0).repeat(np.diff(bounds), axis=0)  # of each (row, arm)
    candidates = np.flatnonzero(plan.unknown.reshape(n, arms, k) & selects[:, :, None])
    arm = np.repeat(np.tile(np.arange(arms, dtype=np.min_scalar_type(arms)), n), (plan.counts * selects).reshape(-1))
    ends = np.cumsum(counts.sum(axis=1)).tolist()
    if relative:  # each arm's quota from where its candidates start in the batch's order
        taken = np.cumsum(quotas)
        chosen = np.arange(taken[-1]) + np.repeat((np.cumsum(counts, axis=1) - counts - taken.reshape(counts.shape)
                                                   + quotas).reshape(-1), quotas.reshape(-1))
        stops = taken[arms - 1::arms].tolist()
    else:  # loss > t: -log(1 - p) > t is log(1 - p) < -t
        chosen, stops = np.negative(plan.schedule)[arm], ends
    plan.batches = [(batch, None if a == b else (candidates[a:b], arm[a:b] if arms > 1 else None, chosen[c:d]))
                    for batch, a, b, c, d in zip(batches, [0, *ends], ends, [0, *stops], stops)]
    return plan


def decide_planned(plan: EpochPlan, i: int, probs: np.ndarray, flags: np.ndarray):
    """Finish batch i's decision for all arms from `probs`, the probabilities of the plan's rows, (n, *arms, K): one
    gather and log pass gives its candidates' AN loss, -log(1 - p), and a relative schedule flags each arm's quota of
    the largest. flags: the epoch's all-False C-contiguous flags, (n, *arms, K). Returns the batch's (targets,
    weights), (B, *arms, K); the epoch end takes its losses and each threshold, the smallest AN loss flagged."""
    rows, selection = plan.batches[i]
    targets, weights = plan.targets[rows], plan.weights[rows]
    if selection is None:
        return targets, weights
    candidates, arm, chosen = selection
    keys = probs.take(candidates)
    np.log(np.subtract(1.0, keys, out=keys), out=keys)  # log(1 - p): the negated loss
    flags.put(candidates[keys < chosen if plan.spec.schedule == "absolute" else _ranked(keys, chosen, arm)], True)
    if plan.spec.action == "reject":
        return targets, np.where(flags[rows], 0.0, weights)
    return targets | flags[rows], weights  # flagged entries train toward 1 until the state change lands


def epoch_losses(plan: EpochPlan, probs: np.ndarray, flags: np.ndarray, seen: np.ndarray,
                 positive: np.ndarray) -> np.ndarray:
    """weights * bce(probs, targets) of the plan's rows, with the targets and weights their
    batch decisions trained on, written over `probs`, the rows' probabilities: computed once,
    at epoch end. flags: the entries the batches flagged, trained toward 1 or with weight 0.
    seen: where an_losses(probs, positive) goes first, against the boolean targets `positive`
    (its positives trained toward 1). Its bits stand wherever the trained target is
    `positive`; LSAN's smoothed targets take their own log pass."""
    action = plan.spec.action
    an_losses(probs, positive, out=seen)
    if plan.spec.target == "smoothed":
        bce_elementwise(probs, plan.targets, out=probs)
    else:  # where the batch trained toward 1 and `positive` is 0: -log p, from a gather, which costs less than a pass
        other = np.flatnonzero((plan.an | flags if action in ("temporary", "permanent") else plan.an) != positive)
        trained = np.negative(np.log(probs.take(other)))
        np.copyto(probs, seen)
        probs.put(other, trained)
    if plan.spec.weight != "ones":
        probs *= plan.weights
    if action == "reject":
        np.multiply(probs, 0.0, out=probs, where=flags)
    return probs


def apply_permanent_corrections(states: np.ndarray, flags: np.ndarray) -> int:
    """Permanently correct the entries of the state matrix `states` that the same-shape mask `flags`
    flags from UNKNOWN to CORRECTED_POS, in place, and return their number. This is the only legal
    state transition: a flag on an entry in another state raises before anything is mutated."""
    flags = np.asarray(flags, dtype=bool)
    if flags.shape != states.shape:
        raise ValueError("correction mask shape does not match states")
    r, c = np.nonzero(flags)
    illegal = np.flatnonzero(states[r, c] != UNKNOWN)
    if illegal.size:
        i = illegal[0]
        raise ValueError(f"illegal state transition at ({r[i]}, {c[i]}): only UNKNOWN may become CORRECTED_POS")
    states[r, c] = CORRECTED_POS
    return int(r.size)
