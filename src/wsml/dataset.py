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

__all__ = [
    "LabelState",
    "PartialDataset",
    "SyntheticSpec",
    "FormatError",
    "an_targets_from_states",
    "generate_synthetic",
    "make_single_positive",
    "make_fraction_observed",
    "subsample",
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


STATE_TO_TOKEN = {
    LabelState.OBS_NEG: "0",
    LabelState.OBS_POS: "1",
    LabelState.UNKNOWN: "u",
    LabelState.CORRECTED_POS: "c",
}
TOKEN_TO_STATE = {tok: st for st, tok in STATE_TO_TOKEN.items()}


class FormatError(ValueError):
    """A data file failed to parse; `line` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def an_targets_from_states(states: np.ndarray) -> np.ndarray:
    """Assume-negative targets: observed/corrected positives map to 1, all else to 0."""
    pos = (states == LabelState.OBS_POS) | (states == LabelState.CORRECTED_POS)
    return pos.astype(np.float64)


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
            bad_pos = (self.states == LabelState.OBS_POS) & (self.truth == 0)
            bad_neg = (self.states == LabelState.OBS_NEG) & (self.truth == 1)
            if bad_pos.any() or bad_neg.any():
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
        return self.states == LabelState.UNKNOWN

    def fully_observed(self) -> bool:
        return bool(
            ((self.states == LabelState.OBS_POS) | (self.states == LabelState.OBS_NEG)).all()
        )

    def correct_to_positive(self, mask: np.ndarray) -> int:
        """Flip the masked entries from UNKNOWN to CORRECTED_POS.

        This is the only legal state transition. Any masked entry in another
        state is a contract violation and raises before anything is mutated.
        Returns the number of entries corrected.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.states.shape:
            raise ValueError("correction mask shape does not match states")
        illegal = mask & (self.states != LabelState.UNKNOWN)
        if illegal.any():
            r, c = np.argwhere(illegal)[0]
            raise ValueError(
                f"illegal state transition at ({r}, {c}): "
                f"only UNKNOWN may become CORRECTED_POS"
            )
        self.states[mask] = LabelState.CORRECTED_POS
        return int(mask.sum())


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
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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

    states = np.where(truth == 1, LabelState.OBS_POS, LabelState.OBS_NEG).astype(np.int8)
    return PartialDataset(features, states, truth)


def make_single_positive(full: PartialDataset, seed) -> PartialDataset:
    """Keep exactly one uniformly chosen observed positive per sample; all other
    entries become UNKNOWN. Truth is preserved. Deterministic given seed."""
    if not full.fully_observed():
        raise ValueError("single-positive partialization requires a fully observed dataset")
    rng = np.random.default_rng(seed)
    states = np.full(full.states.shape, LabelState.UNKNOWN, dtype=np.int8)
    for i in range(full.n):
        pos = np.flatnonzero(full.states[i] == LabelState.OBS_POS)
        if pos.size == 0:
            raise ValueError(f"sample {i} has no positive label to retain")
        keep = pos[rng.integers(pos.size)]
        states[i, keep] = LabelState.OBS_POS
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
    flat = np.full(total, LabelState.UNKNOWN, dtype=np.int8)
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


def subsample(ds: PartialDataset, fraction: float, seed) -> PartialDataset:
    """Keep a uniformly chosen floor(fraction*N) sample subset, rows intact."""
    return ds.take(subsample_indices(ds.n, fraction, seed))


# ---------------------------------------------------------------------------
# Text serialization
#
#   WSML/1
#   N D K
#   N feature rows (D reals, 17 significant digits)
#   N state rows (K tokens from {0, 1, u, c})
#   [TRUTH]
#   [N truth rows (K tokens from {0, 1})]
#
# Lines starting with '#' are comments and are skipped on read.
# ---------------------------------------------------------------------------


class LineReader:
    """Sequential line reader that skips comments and tracks 1-based numbers."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self, expected: str):
        while self.pos < len(self.lines):
            self.pos += 1
            raw = self.lines[self.pos - 1]
            if raw.startswith("#"):
                continue
            return self.pos, raw.strip()
        raise FormatError(len(self.lines) + 1, f"unexpected end of file, expected {expected}")

    def peek(self):
        """(line_number, content) of the next non-comment line, or None at EOF."""
        pos = self.pos
        while pos < len(self.lines):
            pos += 1
            raw = self.lines[pos - 1]
            if raw.startswith("#"):
                continue
            return pos, raw.strip()
        return None


def read_rows(reader: LineReader, shape, what: str, parse=float, bounds=None) -> np.ndarray:
    """Read a rows x cols block of `parse`-able tokens, one row per line.

    bounds=(lo, hi) also requires every value to lie in [lo, hi].
    """
    rows, cols = shape
    out = np.empty((rows, cols), dtype=np.int64 if parse is int else np.float64)
    for i in range(rows):
        lineno, content = reader.next(f"{what} row {i + 1}")
        parts = content.split()
        if len(parts) != cols:
            raise FormatError(lineno, f"expected {cols} values for {what}, got {len(parts)}")
        try:
            out[i] = [parse(p) for p in parts]
        except (ValueError, OverflowError):
            kind = "integer" if parse is int else "real number"
            raise FormatError(lineno, f"invalid {kind} in {what}") from None
        if bounds is not None and ((out[i] < bounds[0]) | (out[i] > bounds[1])).any():
            raise FormatError(lineno, f"{what} values must lie in [{bounds[0]}, {bounds[1]}]")
    return out


def _format_real_row(row: np.ndarray) -> str:
    return " ".join(format(v, ".17g") for v in row)


def save_dataset(ds: PartialDataset, path, config_comment: str | None = None) -> None:
    lines = [HEADER]
    if config_comment is not None:
        lines.append("#cfg " + config_comment)
    lines.append(f"{ds.n} {ds.d} {ds.k}")
    for row in ds.features:
        lines.append(_format_real_row(row))
    for row in ds.states:
        lines.append(" ".join(STATE_TO_TOKEN[LabelState(v)] for v in row))
    if ds.truth is not None:
        lines.append("TRUTH")
        for row in ds.truth:
            lines.append(" ".join(str(int(v)) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_dims(lineno: int, content: str):
    parts = content.split()
    if len(parts) != 3:
        raise FormatError(lineno, f"expected 'N D K', got {content!r}")
    try:
        n, d, k = (int(p) for p in parts)
    except ValueError:
        raise FormatError(lineno, f"dimensions must be integers, got {content!r}") from None
    if n < 1 or d < 1 or k < 2:
        raise FormatError(lineno, f"invalid dimensions N={n} D={d} K={k}")
    return n, d, k


def load_dataset(path) -> PartialDataset:
    with open(path, "r", encoding="utf-8") as fh:
        reader = LineReader(fh.read())

    lineno, header = reader.next("header")
    if header != HEADER:
        raise FormatError(lineno, f"bad header {header!r}, expected {HEADER!r}")
    lineno, dims = reader.next("dimension line")
    n, d, k = _parse_dims(lineno, dims)

    features = np.empty((n, d), dtype=np.float64)
    for i in range(n):
        lineno, content = reader.next(f"feature row {i + 1}")
        parts = content.split()
        if len(parts) != d:
            raise FormatError(lineno, f"expected {d} feature values, got {len(parts)}")
        try:
            features[i] = [float(p) for p in parts]
        except ValueError:
            raise FormatError(lineno, f"invalid real number in {content!r}") from None

    states = np.empty((n, k), dtype=np.int8)
    for i in range(n):
        lineno, content = reader.next(f"state row {i + 1}")
        parts = content.split()
        if len(parts) != k:
            raise FormatError(lineno, f"expected {k} state tokens, got {len(parts)}")
        for j, tok in enumerate(parts):
            if tok not in TOKEN_TO_STATE:
                raise FormatError(lineno, f"illegal label state token {tok!r}")
            states[i, j] = TOKEN_TO_STATE[tok]

    truth = None
    nxt = reader.peek()
    if nxt is not None:
        lineno, content = reader.next("TRUTH marker")
        if content != "TRUTH":
            raise FormatError(lineno, f"unexpected content {content!r}, expected 'TRUTH' or end of file")
        truth = np.empty((n, k), dtype=np.int8)
        for i in range(n):
            lineno, content = reader.next(f"truth row {i + 1}")
            parts = content.split()
            if len(parts) != k:
                raise FormatError(lineno, f"expected {k} truth tokens, got {len(parts)}")
            for j, tok in enumerate(parts):
                if tok not in ("0", "1"):
                    raise FormatError(lineno, f"illegal truth token {tok!r}")
                truth[i, j] = int(tok)
        trailing = reader.peek()
        if trailing is not None:
            raise FormatError(trailing[0], f"unexpected trailing content {trailing[1]!r}")

    try:
        return PartialDataset(features, states, truth)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
