"""Partially labeled multi-label datasets.

A dataset couples an N x D feature matrix with an N x K matrix of per-label
observation states. Optional ground-truth labels ride along for analysis and
evaluation; training code must never read them as supervision.

All values are immutable after construction except the states matrix, whose
only legal mutation is UNKNOWN -> CORRECTED_POS via `correct_to_positive`.
A run that mutates states must own a private copy (see `PartialDataset.copy`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import io
from .io import FormatError

__all__ = [
    "LabelState",
    "PartialDataset",
    "SyntheticSpec",
    "FormatError",
    "an_targets_from_states",
    "generate_synthetic",
    "make_single_positive",
    "make_fraction_observed",
    "subsample_indices",
    "save_dataset",
    "load_dataset",
]

HEADER = "WSML/1"


class LabelState(enum.IntEnum):
    """Per-(sample, category) observation state."""

    OBS_NEG = 0
    OBS_POS = 1
    UNKNOWN = 2
    CORRECTED_POS = 3


# plain codes for array comparisons, which cost two Python-level lookups with a member
OBS_NEG, OBS_POS, UNKNOWN, CORRECTED_POS = (int(s) for s in LabelState)

# file tokens, indexed by LabelState code
STATE_TOKENS = ("0", "1", "u", "c")
TRUTH_TOKENS = ("0", "1")


def an_targets_from_states(states: np.ndarray) -> np.ndarray:
    """Assume-negative targets: observed/corrected positives map to 1, all else to 0."""
    pos = (states == OBS_POS) | (states == CORRECTED_POS)
    return pos.astype(np.float64)


def _disagreements(states: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Entries whose observed state contradicts the truth label."""
    return ((states == OBS_POS) & (truth == 0)) | ((states == OBS_NEG) & (truth == 1))


@dataclass
class PartialDataset:
    """Feature matrix plus per-label observation states and optional ground truth.

    features: N x D float64. states: N x K int8 of LabelState codes.
    truth: optional N x K binary matrix, analysis only.
    """

    features: np.ndarray
    states: np.ndarray
    truth: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.states = np.asarray(self.states, dtype=np.int8)
        if self.truth is not None:
            self.truth = np.asarray(self.truth, dtype=np.int8)
        self.validate()

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def k(self) -> int:
        return self.states.shape[1]

    def validate(self) -> None:
        if self.features.ndim != 2 or self.states.ndim != 2:
            raise ValueError("features and states must be 2-d matrices")
        n, d = self.features.shape
        if n < 1 or d < 1:
            raise ValueError(f"need N >= 1 and D >= 1, got N={n}, D={d}")
        if self.states.shape[0] != n:
            raise ValueError(
                f"states rows ({self.states.shape[0]}) do not match feature rows ({n})"
            )
        if self.states.shape[1] < 2:
            raise ValueError(f"need K >= 2 categories, got K={self.states.shape[1]}")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite values")
        if not np.isin(self.states, [int(s) for s in LabelState]).all():
            raise ValueError("states contain codes outside the LabelState set")
        if self.truth is not None:
            if self.truth.shape != self.states.shape:
                raise ValueError("truth shape does not match states shape")
            if not np.isin(self.truth, [0, 1]).all():
                raise ValueError("truth must be binary")
            if _disagreements(self.states, self.truth).any():
                raise ValueError("an observed state disagrees with truth")

    def copy(self) -> "PartialDataset":
        return PartialDataset(
            self.features.copy(),
            self.states.copy(),
            None if self.truth is None else self.truth.copy(),
        )

    def take(self, indices: np.ndarray) -> "PartialDataset":
        """Row subset with rows copied (the result owns its arrays)."""
        idx = np.asarray(indices)
        return PartialDataset(
            self.features[idx],
            self.states[idx],
            None if self.truth is None else self.truth[idx],
        )

    def an_targets(self) -> np.ndarray:
        """Current assume-negative target matrix (pure function of states)."""
        return an_targets_from_states(self.states)

    def unknown_mask(self) -> np.ndarray:
        return self.states == UNKNOWN

    def fully_observed(self) -> bool:
        return bool(((self.states == OBS_POS) | (self.states == OBS_NEG)).all())

    def correct_to_positive(self, mask: np.ndarray) -> int:
        """Flip the masked entries from UNKNOWN to CORRECTED_POS.

        This is the only legal state transition. Any masked entry in another
        state is a contract violation and raises before anything is mutated.
        Returns the number of entries corrected.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.states.shape:
            raise ValueError("correction mask shape does not match states")
        r, c = np.nonzero(mask)
        illegal = np.flatnonzero(self.states[r, c] != UNKNOWN)
        if illegal.size:
            i = illegal[0]
            raise ValueError(
                f"illegal state transition at ({r[i]}, {c[i]}): "
                f"only UNKNOWN may become CORRECTED_POS"
            )
        self.states[r, c] = CORRECTED_POS
        return int(r.size)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic fully-labeled corpus generator."""

    n: int
    dim: int
    classes: int
    pos_rate: float
    temperature: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.n < 1 or self.dim < 1 or self.classes < 2:
            raise ValueError(
                f"need n >= 1, dim >= 1, classes >= 2, got "
                f"n={self.n}, dim={self.dim}, classes={self.classes}"
            )
        if not 0.0 < self.pos_rate < 1.0:
            raise ValueError(f"pos_rate must lie in (0, 1), got {self.pos_rate}")
        if self.pos_rate * self.classes < 1.0:
            raise ValueError(
                f"pos_rate * classes must be >= 1 (at least one expected positive "
                f"per sample), got {self.pos_rate * self.classes:g}"
            )
        if not 0.0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: exp only ever sees -|z|."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    num = np.where(z >= 0, 1.0, e)
    e += 1.0
    return np.divide(num, e, out=num)  # one divide for both signs


def _calibrate_bias_shift(base_logits, uniforms, temperature, target_rate):
    """Bisect a global bias shift until the sampled positive rate hits the target.

    With the uniform draws fixed, the positive rate is a nondecreasing step
    function of the shift, so bisection converges; the best-seen shift wins.
    """

    def rate(c):
        return float(np.mean(uniforms < sigmoid((base_logits + c) / temperature)))

    lo, hi = -1.0, 1.0
    while rate(lo) > target_rate and lo > -1e9:
        lo *= 2.0
    while rate(hi) < target_rate and hi < 1e9:
        hi *= 2.0
    best_c, best_err = 0.0, abs(rate(0.0) - target_rate)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = rate(mid)
        err = abs(r - target_rate)
        if err < best_err:
            best_c, best_err = mid, err
        if r < target_rate:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return best_c


def generate_synthetic(spec: SyntheticSpec) -> PartialDataset:
    """Draw a fully observed dataset from a hidden linear label model.

    Features are standard normal; each category fires with probability
    sigmoid of a hidden linear logit. The bias is calibrated by bisection so
    the sampled positive rate tracks spec.pos_rate, and any all-negative
    sample gets its highest-probability category forced positive.
    Deterministic given spec.seed.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    weights = rng.standard_normal((spec.classes, spec.dim))
    bias = rng.standard_normal(spec.classes)
    features = rng.standard_normal((spec.n, spec.dim))
    uniforms = rng.uniform(size=(spec.n, spec.classes))

    base = features @ weights.T + bias
    shift = _calibrate_bias_shift(base, uniforms, spec.temperature, spec.pos_rate)
    probs = sigmoid((base + shift) / spec.temperature)
    truth = (uniforms < probs).astype(np.int8)

    empty_rows = np.flatnonzero(truth.sum(axis=1) == 0)
    if empty_rows.size:
        truth[empty_rows, probs[empty_rows].argmax(axis=1)] = 1

    states = np.where(truth == 1, OBS_POS, OBS_NEG).astype(np.int8)
    return PartialDataset(features, states, truth)


def make_single_positive(full: PartialDataset, seed) -> PartialDataset:
    """Keep exactly one uniformly chosen observed positive per sample; all other
    entries become UNKNOWN. Truth is preserved. Deterministic given seed."""
    if not full.fully_observed():
        raise ValueError("single-positive partialization requires a fully observed dataset")
    pos = full.states == OBS_POS
    counts = pos.sum(axis=1)
    if not counts.all():
        raise ValueError(f"sample {counts.argmin()} has no positive label to retain")
    # one draw per row in row order, the same draws a per-row loop makes
    pick = np.random.default_rng(seed).integers(counts)
    keep = (np.cumsum(pos, axis=1) <= pick[:, None]).sum(axis=1)  # column of each row's pick-th positive
    states = np.full(full.states.shape, UNKNOWN, dtype=np.int8)
    states[np.arange(full.n), keep] = OBS_POS
    return PartialDataset(full.features.copy(), states, None if full.truth is None else full.truth.copy())


def make_fraction_observed(full: PartialDataset, fraction: float, seed) -> PartialDataset:
    """Keep a uniformly random floor(fraction*N*K) subset of entries observed."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    if not full.fully_observed():
        raise ValueError("fraction partialization requires a fully observed dataset")
    if fraction == 1.0:
        return full.copy()
    total = full.n * full.k
    keep = int(math.floor(fraction * total))
    rng = np.random.default_rng(seed)
    chosen = rng.permutation(total)[:keep]
    flat = np.full(total, UNKNOWN, dtype=np.int8)
    flat[chosen] = full.states.reshape(-1)[chosen]
    return PartialDataset(
        full.features.copy(),
        flat.reshape(full.states.shape),
        None if full.truth is None else full.truth.copy(),
    )


def subsample_indices(n: int, fraction: float, seed) -> np.ndarray:
    """Sorted indices of a uniformly chosen floor(fraction*n) row subset."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    keep = int(math.floor(fraction * n))
    if keep == 0:
        raise ValueError(f"subsample of {n} samples at fraction {fraction} keeps nothing")
    rng = np.random.default_rng(seed)
    return np.sort(rng.permutation(n)[:keep])


# ---------------------------------------------------------------------------
# Text serialization (codec in wsml.io)
#
#   WSML/1
#   N D K
#   N feature rows (D reals)
#   N state rows (K tokens from STATE_TOKENS)
#   [TRUTH]
#   [N truth rows (K tokens from TRUTH_TOKENS)]
# ---------------------------------------------------------------------------


def save_dataset(ds: PartialDataset, path, config_comment: str | None = None) -> None:
    parts = [f"{ds.n} {ds.d} {ds.k}", (ds.features, io.REAL), (ds.states, STATE_TOKENS)]
    if ds.truth is not None:
        parts += ["TRUTH", (ds.truth, TRUTH_TOKENS)]
    io.save(path, HEADER, config_comment, parts)


def load_dataset(path) -> PartialDataset:
    with io.Reader(path, HEADER) as reader:
        n, d, k = reader.dims("N D K", least=(1, 1, 2))
        features = reader.block((n, d), "feature", io.REAL)
        first_state = reader.pos
        states = reader.block((n, k), "state", STATE_TOKENS)
        truth = None
        if not reader.at_end():
            lineno, marker = reader.line("TRUTH marker")
            if marker != "TRUTH":
                raise FormatError(lineno, f"unexpected content {marker!r}, expected 'TRUTH' or end of file")
            truth = reader.block((n, k), "truth", TRUTH_TOKENS)
            reader.end()
            bad = np.flatnonzero(_disagreements(states, truth).any(axis=1))
            if bad.size:
                raise FormatError(reader.number(first_state + bad[0]),
                                  "an observed state disagrees with the TRUTH section")
    return PartialDataset(features, states, truth)
