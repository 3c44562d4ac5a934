"""Loss weighting and flagging schemes over assume-negative targets.

Every scheme turns a batch of probabilities plus label states into an
effective target matrix and a weight matrix for the weighted elementwise
binary cross entropy. The large-loss family additionally selects UNKNOWN
entries whose loss is large and rejects them (weight 0), temporarily corrects
them (effective target 1), or marks them for permanent correction.

All operations here are pure except apply_permanent_corrections, which
requires exclusive access to the dataset's state matrix.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dataset import LabelState, PartialDataset, an_targets_from_states

__all__ = [
    "Scheme",
    "SchemeConfig",
    "SchemeSpec",
    "SPECS",
    "BatchDecision",
    "bce_elementwise",
    "rejection_rate",
    "absolute_threshold",
    "select_large_losses",
    "select_for_epoch",
    "decide_batch",
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
        if "delta_rel" in reads and self.delta_rel < 0:
            raise ValueError(f"delta_rel must be nonnegative, got {self.delta_rel}")
        if "r0" in reads and self.r0 <= 0:
            raise ValueError(f"r0 must be positive, got {self.r0}")
        if "delta_abs" in reads and self.delta_abs < 0:
            raise ValueError(f"delta_abs must be nonnegative, got {self.delta_abs}")
        if not 0.0 <= self.eps_smooth < 0.5:
            raise ValueError(f"eps_smooth must lie in [0, 0.5), got {self.eps_smooth}")


@dataclass
class BatchDecision:
    """Effective targets and weights for one batch.

    flags marks the large-loss UNKNOWN entries selected this batch (always a
    subset of UNKNOWN entries); threshold is the loss threshold in effect,
    NaN when no selection applies.
    """

    targets: np.ndarray
    weights: np.ndarray
    flags: np.ndarray
    threshold: float


def bce_elementwise(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Elementwise binary cross entropy; probs must be pre-clamped away from {0, 1}."""
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if probs.shape != targets.shape:
        raise ValueError(f"shape mismatch: probs {probs.shape} vs targets {targets.shape}")
    return -targets * np.log(probs) - (1.0 - targets) * np.log(1.0 - probs)


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


def select_large_losses(
    losses: np.ndarray,
    states: np.ndarray,
    rate: float | None = None,
    threshold: float | None = None,
):
    """Flag large-loss UNKNOWN entries; returns (flag mask, threshold used).

    Relative mode (rate in percent): flags exactly floor(rate/100 * M) of the
    M UNKNOWN entries, taking the largest losses; ties break toward ascending
    (row, column) index. The reported threshold is the smallest flagged loss,
    NaN when nothing is flagged.

    Absolute mode: flags every UNKNOWN entry with loss strictly greater than
    the threshold. Observed and corrected entries are never flagged.
    """
    losses = np.asarray(losses, dtype=np.float64)
    states = np.asarray(states)
    if losses.shape != states.shape:
        raise ValueError(f"shape mismatch: losses {losses.shape} vs states {states.shape}")
    if (rate is None) == (threshold is None):
        raise ValueError("exactly one of rate or threshold must be given")

    unknown = states == LabelState.UNKNOWN
    flags = np.zeros_like(unknown, dtype=bool)

    if threshold is not None:
        if not math.isfinite(threshold):
            raise ValueError(f"threshold must be finite, got {threshold}")
        flags[unknown & (losses > threshold)] = True
        return flags, float(threshold)

    if not 0.0 <= rate <= 100.0:
        raise ValueError(f"rate must lie in [0, 100], got {rate}")
    m = int(unknown.sum())
    k = min(int((rate / 100.0) * m), m)
    if k == 0:
        return flags, float("nan")

    flat_unknown = np.flatnonzero(unknown.reshape(-1))
    unknown_losses = losses.reshape(-1)[flat_unknown]
    # descending loss, ascending flat index on ties
    order = np.lexsort((flat_unknown, -unknown_losses))
    chosen = flat_unknown[order[:k]]
    flags.reshape(-1)[chosen] = True
    return flags, float(unknown_losses[order[k - 1]])


def select_for_epoch(scheme: Scheme, losses: np.ndarray, states: np.ndarray, epoch: int, cfg: SchemeConfig):
    """Flag large-loss UNKNOWN entries by the scheme's schedule at this epoch."""
    rate = rejection_rate(scheme, epoch, cfg)
    if rate is None:
        return select_large_losses(losses, states, threshold=absolute_threshold(epoch, cfg))
    return select_large_losses(losses, states, rate=rate)


def decide_batch(
    scheme: Scheme,
    probs: np.ndarray,
    states: np.ndarray,
    epoch: int,
    cfg: SchemeConfig,
) -> BatchDecision:
    """Build the effective targets, weights, and flags for one batch."""
    spec = SPECS[Scheme(scheme)]
    probs = np.asarray(probs, dtype=np.float64)
    states = np.asarray(states)
    if probs.shape != states.shape:
        raise ValueError(f"shape mismatch: probs {probs.shape} vs states {states.shape}")
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch}")

    an = an_targets_from_states(states)
    unknown = states == LabelState.UNKNOWN
    flags, threshold = np.zeros_like(unknown, dtype=bool), float("nan")
    if spec.action != "none":
        flags, threshold = select_for_epoch(scheme, bce_elementwise(probs, an), states, epoch, cfg)
    if (flags & ~unknown).any():
        raise AssertionError("flag selection touched an observed or corrected entry")

    targets = an
    if spec.target == "smoothed":
        targets = targets * (1.0 - cfg.eps_smooth) + (1.0 - targets) * cfg.eps_smooth
    if spec.action in ("temporary", "permanent"):
        # flagged entries train toward 1 until the state change lands
        targets = np.where(flags, 1.0, targets)

    if spec.weight == "ignore-unknown":
        weights = np.where(unknown, 0.0, 1.0)
    elif spec.weight == "wan":
        weights = np.where(an == 0.0, 1.0 / (states.shape[1] - 1), 1.0)
    else:
        weights = np.ones_like(probs)
    if spec.action == "reject":
        weights = np.where(flags, 0.0, weights)
    return BatchDecision(targets, weights, flags, threshold)


def apply_permanent_corrections(ds: PartialDataset, flags: np.ndarray) -> int:
    """Permanently correct the flagged UNKNOWN entries to CORRECTED_POS.

    The mutation is visible to every subsequent batch through the dataset's
    assume-negative targets. A flag on a non-UNKNOWN entry is a contract
    violation and raises. Returns the number of corrected entries.
    """
    return ds.correct_to_positive(np.asarray(flags, dtype=bool))
