"""Loss weighting and flagging schemes over assume-negative targets.

Every scheme turns a batch of probabilities plus label states into an
effective target matrix and a weight matrix for the weighted elementwise
binary cross entropy. The large-loss family additionally selects UNKNOWN
entries whose loss is large and rejects them (weight 0), temporarily corrects
them (effective target 1), or marks them for permanent correction.

All operations here are pure except apply_permanent_corrections, which
requires exclusive access to the state matrix it corrects.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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


def an_losses(probs: np.ndarray, positive: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """-log(where(positive, p, 1 - p)): the elementwise binary cross entropy against
    the targets of the boolean mask `positive`, with the bits of where(positive, -log p,
    -log(1 - p)) from one log pass; probs must be pre-clamped away from {0, 1}.
    out: where to write it, which may not be probs; new when None."""
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


# candidates from which a relative selection partitions rather than sorts: the sort is cheaper below
PARTITION_MIN = 512


def quota(rate: float, m: int) -> int:
    """How many of m UNKNOWN entries a relative schedule flags: floor(rate/100 * m), at most m."""
    return min(int((rate / 100.0) * m), m)


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
    # descending loss, NaN last; the stable sort keeps the candidates' order on ties
    order = (-losses).argsort(kind="stable")[:k] if len(candidates) < PARTITION_MIN else _top_k(losses, k)
    flags.put(candidates[order], True)
    return flags, float(losses[order[-1]])


def _top_k(losses: np.ndarray, k: int) -> np.ndarray:
    """(-losses).argsort(kind="stable")[:k] by a partition, which costs less than that sort on many losses:
    every loss above the k-th largest, then its first ties. The sort's, when fewer than k losses are numbers."""
    keys = -losses
    keys.partition(k - 1)  # in place, so that the selection holds one copy of the losses
    kth = -keys[k - 1]
    if math.isnan(kth):
        return (-losses).argsort(kind="stable")[:k]
    above = np.flatnonzero(losses > kth)
    return np.concatenate([above, np.flatnonzero(losses == kth)[:k - len(above)]])


@dataclass
class EpochPlan:
    """What the label states fix of a scheme's batch decisions, row-aligned with
    those states: the AN positives, the UNKNOWN mask, the base targets and
    weights, and the epoch's selection rate or threshold (the other is None).
    candidates: the ascending flat indices of the UNKNOWN entries, of which
    rows [a, b) hold candidates[offsets[a]:offsets[b]]."""

    spec: SchemeSpec
    an: np.ndarray
    unknown: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    rate: float | None
    threshold: float | None
    candidates: np.ndarray
    offsets: list[int]


def plan_epoch(scheme: Scheme, states: np.ndarray, epoch: int, cfg: SchemeConfig) -> EpochPlan:
    """The part of the decisions over `states` that does not read the model. Over
    rows in visiting order it holds for a whole epoch: permanent corrections
    land only at epoch end."""
    spec = SPECS[Scheme(scheme)]
    states = np.asarray(states)
    rate = rejection_rate(scheme, epoch, cfg)
    threshold = absolute_threshold(epoch, cfg) if rate is None else None
    targets = an_targets_from_states(states)
    an, unknown = targets == 1.0, states == UNKNOWN
    if spec.target == "smoothed":
        targets = targets * (1.0 - cfg.eps_smooth) + (1.0 - targets) * cfg.eps_smooth
    if spec.weight == "ignore-unknown":
        weights = np.where(unknown, 0.0, 1.0)
    elif spec.weight == "wan":
        weights = np.where(an, 1.0, 1.0 / (states.shape[1] - 1))
    else:
        weights = np.broadcast_to(1.0, states.shape)  # read-only, and no memory held for the epoch
    offsets = [0, *np.cumsum(unknown.sum(axis=1)).tolist()]
    return EpochPlan(spec, an, unknown, targets, weights, rate, threshold, np.flatnonzero(unknown), offsets)


def decide_planned(plan: EpochPlan, batch: slice, probs: np.ndarray, flags: np.ndarray):
    """Finish the decision for the plan's rows in `batch` from their probabilities: select
    among the batch's candidates on their AN loss, -log(1 - p) (an UNKNOWN entry's AN target
    is 0), from one log pass over their probabilities alone, and only if the batch can flag (an
    absolute schedule, or a positive relative quota); then flag targets or weights.
    flags: the batch's all-False C-contiguous flag rows to flag in. Returns (targets, weights,
    threshold): the threshold in effect, NaN when nothing was selected; no losses, since
    `epoch_losses` computes them at epoch end."""
    targets, weights, action = plan.targets[batch], plan.weights[batch], plan.spec.action
    threshold = float("nan")
    if action != "none":
        start, stop, _ = batch.indices(len(plan.offsets) - 1)
        lo, hi = plan.offsets[start], plan.offsets[stop]
        if plan.rate is None or quota(plan.rate, hi - lo) > 0:
            candidates = plan.candidates[lo:hi] - start * targets.shape[1]
            losses = -np.log(np.subtract(1.0, probs.take(candidates)))
            _, threshold = select_large_losses(losses, candidates, plan.rate, plan.threshold, flags)
    if not math.isnan(threshold):  # NaN: no selection, or a relative quota of zero
        if action == "reject":
            weights = np.where(flags, 0.0, weights)
        else:  # flagged entries train toward 1 until the state change lands
            targets = np.where(flags, 1.0, targets)
    return targets, weights, threshold


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
        losses = bce_elementwise(probs, plan.targets, out=probs)
    else:
        same = (plan.an | flags if action in ("temporary", "permanent") else plan.an) == positive
        # elsewhere the batch trained toward 1; a whole -log p pass costs less than a masked or gathered one
        losses = probs if same.all() else np.negative(np.log(probs, out=probs), out=probs)
        np.copyto(losses, seen, where=same)
    if plan.spec.weight != "ones":
        losses *= plan.weights
    if action == "reject":
        np.multiply(losses, 0.0, out=losses, where=flags)
    return losses


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
