"""Ranking metrics and the highest-loss-epoch distribution report.

Average precision here is the uninterpolated precision-at-positive-ranks
average with a deterministic index tie-break. Values are kept as fractions in
[0, 1]; presentation layers convert to percentages. All operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import OBS_NEG, OBS_POS, UNKNOWN

__all__ = [
    "APResult",
    "PhaseBucket",
    "average_precision",
    "mean_average_precision",
    "grouped_map",
    "phase_distribution",
]


@dataclass
class APResult:
    """Per-category average precision; categories without positives are skipped."""

    per_category: list[float | None]
    skipped: list[int]
    mean: float


@dataclass
class PhaseBucket:
    """Share of labels whose training loss peaked in epoch 1 vs later."""

    warmup_pct: float
    regular_pct: float
    count: int


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """AP of one ranking: mean precision at the ranks of the positive labels, the one-column
    case of `mean_average_precision`. Raises when there is no positive label (callers skip instead).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError(f"scores and labels must be equal-length vectors, got {scores.shape} and {labels.shape}")
    positive = labels != 0
    if not positive.any():
        raise ValueError("no positive labels: category should be skipped")
    return mean_average_precision(scores[:, None], positive[:, None]).mean


def mean_average_precision(scores: np.ndarray, truth: np.ndarray) -> APResult:
    """Per-category AP over samples; the mean skips categories with no positives.

    One stable sort ranks every category at once, by descending score with ties
    broken by ascending original index."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth)
    if scores.ndim != 2 or scores.shape != truth.shape:
        raise ValueError(f"scores and truth must be equal-shape matrices, got {scores.shape} and {truth.shape}")
    ranked = np.take_along_axis(truth.T != 0, np.argsort(-scores.T, axis=1, kind="stable"), axis=1)
    precision = np.cumsum(ranked, axis=1) / np.arange(1, scores.shape[0] + 1)
    per_category: list[float | None] = []
    for k, total in enumerate(truth.sum(axis=0)):
        per_category.append(None if total == 0 else float(precision[k][ranked[k]].sum() / ranked[k].sum()))
    skipped = [k for k, v in enumerate(per_category) if v is None]
    scored = [v for v in per_category if v is not None]
    if not scored:
        raise ValueError("every category lacks positives; mean average precision is undefined")
    return APResult(per_category, skipped, float(np.mean(scored)))


def grouped_map(per_category: list[float | None], counts: np.ndarray, groups: int) -> list[float | None]:
    """Mean AP per group of categories, grouped by ascending per-category count.

    per_category: `mean_average_precision(...).per_category`, None for a
    category without positives. Categories sort ascending by `counts` (ties
    by category index) and split into `groups` contiguous blocks of
    floor(K/groups), the remainder going one-per-group from the last group
    backward. A group whose categories all lack positives reports None.
    """
    counts = np.asarray(counts)
    k = len(per_category)
    if counts.shape != (k,):
        raise ValueError(f"counts must have one entry per category, got shape {counts.shape}")
    if groups < 1:
        raise ValueError(f"need at least one group, got {groups}")
    if groups > k:
        raise ValueError(f"cannot split {k} categories into {groups} groups")

    order = np.lexsort((np.arange(k), counts))
    sizes = [k // groups] * groups
    for i in range(k % groups):
        sizes[groups - 1 - i] += 1

    result: list[float | None] = []
    start = 0
    for size in sizes:
        aps = [per_category[c] for c in order[start : start + size] if per_category[c] is not None]
        start += size
        result.append(float(np.mean(aps)) if aps else None)
    return result


def phase_distribution(
    argmax_epoch: np.ndarray,
    epochs_tracked: int,
    truth: np.ndarray,
    states: np.ndarray,
) -> dict[str, PhaseBucket | None]:
    """Table of where each label's training loss peaked, by truth bucket.

    Buckets: TP = observed-positive entries; TN = zero-target entries whose
    truth is 0; FN = zero-target entries whose truth is 1 (the noise the
    assume-negative construction introduces). Warmup means the running-max
    loss occurred in epoch 1; regular means any later epoch. Empty buckets
    report None.
    """
    if truth is None:
        raise ValueError("phase distribution requires ground-truth labels")
    argmax_epoch = np.asarray(argmax_epoch)
    truth = np.asarray(truth)
    states = np.asarray(states)
    if epochs_tracked < 2:
        raise ValueError(f"phase distribution needs at least 2 tracked epochs, got {epochs_tracked}")
    if argmax_epoch.shape != truth.shape or argmax_epoch.shape != states.shape:
        raise ValueError("argmax_epoch, truth, and states must share one shape")

    zero_target = (states == OBS_NEG) | (states == UNKNOWN)
    buckets = {
        "TP": states == OBS_POS,
        "TN": zero_target & (truth == 0),
        "FN": zero_target & (truth == 1),
    }
    table: dict[str, PhaseBucket | None] = {}
    for name, mask in buckets.items():
        count = int(mask.sum())
        if count == 0:
            table[name] = None
            continue
        warm = float((argmax_epoch[mask] == 1).mean() * 100.0)
        table[name] = PhaseBucket(warm, 100.0 - warm, count)
    return table
