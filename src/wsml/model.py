"""Small sigmoid-output classifiers with hand-coded gradients and optimizers.

Two architectures: a linear map and a one-hidden-layer ReLU network. Forward
probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] so the elementwise
binary cross entropy and its temporary-correction weights stay finite.
Each classifier keeps its parameters in one contiguous float64 buffer with
a view per tensor, and Adam keeps its moments the same way, so an optimizer
step is one vector update. Classifier and OptimizerState are single-writer
values; forward and grad_check are pure and safe to share read-only across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import io
from .dataset import sigmoid

__all__ = [
    "PROB_EPS",
    "Classifier",
    "OptimizerState",
    "init_classifier",
    "ForwardPass",
    "forward",
    "forward_pass",
    "gradient",
    "backward",
    "make_optimizer",
    "step",
    "grad_check",
    "save_model",
    "load_model",
]

PROB_EPS = 1e-7

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

MODEL_HEADER = "WSMLMODEL/1"

# parameter tensors in serialization and buffer order, per architecture; the
# hidden layer comes first, so a frozen hidden layer is a prefix of the buffer
_PARAM_ORDER = {"linear": ("W", "b"), "mlp1": ("W1", "b1", "W2", "b2")}


@dataclass
class Classifier:
    """Parameter container; `arch` is "linear" or "mlp1".

    frozen_hidden freezes the hidden layer during `step` (the first-epochs
    schedule that trains only the output layer); it is not serialized.
    `flat` holds every parameter in _PARAM_ORDER; `params` are views into it.
    """

    arch: str
    params: dict[str, np.ndarray]
    frozen_hidden: bool = False
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.arch not in _PARAM_ORDER:
            raise ValueError(f"unknown architecture {self.arch!r}")
        self._layout, start = [], 0  # (name, start, stop, shape) of each tensor in `flat`
        for name in _PARAM_ORDER[self.arch]:
            shape = np.shape(self.params[name])
            self._layout.append((name, start, start + math.prod(shape), shape))
            start += math.prod(shape)
        self.flat = np.concatenate([np.asarray(self.params[name], dtype=np.float64).ravel() for name, *_ in self._layout])
        self.params = self.views(self.flat)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-tensor views of a vector laid out like `flat`."""
        return {name: flat[start:stop].reshape(shape) for name, start, stop, shape in self._layout}

    @property
    def input_dim(self) -> int:
        key = "W" if self.arch == "linear" else "W1"
        return self.params[key].shape[1]

    @property
    def num_classes(self) -> int:
        key = "W" if self.arch == "linear" else "W2"
        return self.params[key].shape[0]

    def copy(self) -> "Classifier":
        return Classifier(self.arch, self.params, self.frozen_hidden)  # __post_init__ copies into a new buffer

    def __reduce__(self):
        # rebuild through __init__: pickle and deepcopy would otherwise copy each view apart from `flat`
        return Classifier, (self.arch, self.params, self.frozen_hidden)


def init_classifier(arch: str, input_dim: int, num_classes: int, hidden: int = 64, seed=0) -> Classifier:
    """Seeded init: weights ~ N(0, 1/fan_in), biases zero."""
    if input_dim < 1 or num_classes < 1:
        raise ValueError(f"need input_dim >= 1 and num_classes >= 1, got {input_dim}, {num_classes}")
    rng = np.random.default_rng(seed)
    if arch == "linear":
        params = {
            "W": rng.standard_normal((num_classes, input_dim)) / np.sqrt(input_dim),
            "b": np.zeros(num_classes),
        }
    elif arch == "mlp1":
        if hidden < 1:
            raise ValueError(f"mlp1 needs hidden >= 1, got {hidden}")
        params = {
            "W1": rng.standard_normal((hidden, input_dim)) / np.sqrt(input_dim),
            "b1": np.zeros(hidden),
            "W2": rng.standard_normal((num_classes, hidden)) / np.sqrt(hidden),
            "b2": np.zeros(num_classes),
        }
    else:
        raise ValueError(f"unknown architecture {arch!r}")
    return Classifier(arch, params)


class ForwardPass(NamedTuple):
    """One forward pass: clamped and raw probabilities, hidden pre-activation and activation (None for linear)."""

    probs: np.ndarray
    raw: np.ndarray
    pre: np.ndarray | None
    act: np.ndarray | None


def forward_pass(model: Classifier, x: np.ndarray) -> ForwardPass:
    """Forward pass of a B x D float64 batch that the caller has already checked."""
    p = model.params
    pre = act = None
    if model.arch == "linear":
        raw = sigmoid(np.dot(x, p["W"].T) + p["b"])
    else:
        pre = np.dot(x, p["W1"].T) + p["b1"]
        act = np.maximum(pre, 0.0)
        raw = sigmoid(np.dot(act, p["W2"].T) + p["b2"])
    return ForwardPass(np.minimum(np.maximum(raw, PROB_EPS), 1.0 - PROB_EPS), raw, pre, act)


def forward(model: Classifier, x: np.ndarray) -> np.ndarray:
    """Probabilities for a B x D batch, clamped to [PROB_EPS, 1 - PROB_EPS]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"expected batch of shape (B, {model.input_dim}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("input batch contains non-finite values")
    return forward_pass(model, x).probs


def gradient(model: Classifier, x: np.ndarray, fwd: ForwardPass, targets: np.ndarray, weights: np.ndarray,
             out: np.ndarray | None = None, views: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Gradient of the weighted mean binary cross entropy at the forward pass
    `fwd` of x, as one vector laid out like `model.flat`: `out` when given
    (with `views`, its `model.views(out)`, if the caller keeps them), else a
    new vector.

    The loss is sum(weights * bce(P, targets)) / (B * K) with weights treated
    as constants, P the clamped forward probabilities. Where the clamp is
    active the probability is constant in the parameters, so those entries
    contribute exactly zero gradient (matching the finite-difference view).
    """
    b, k = fwd.probs.shape
    active = fwd.probs == fwd.raw  # the clamp left the probability alone
    grad_logits = weights * (fwd.probs - targets) * active / (b * k)
    out = np.empty_like(model.flat) if out is None else out
    g = model.views(out) if views is None else views
    if model.arch == "linear":
        np.dot(grad_logits.T, x, out=g["W"])
        grad_logits.sum(axis=0, out=g["b"])
        return out
    grad_pre = np.dot(grad_logits, model.params["W2"]) * (fwd.pre > 0)
    np.dot(grad_pre.T, x, out=g["W1"])
    grad_pre.sum(axis=0, out=g["b1"])
    np.dot(grad_logits.T, fwd.act, out=g["W2"])
    grad_logits.sum(axis=0, out=g["b2"])
    return out


def backward(model: Classifier, x: np.ndarray, targets: np.ndarray, weights: np.ndarray) -> dict[str, np.ndarray]:
    """Per-tensor gradients of the weighted mean binary cross entropy (see `gradient`)."""
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    b = x.shape[0]
    k = model.num_classes
    if targets.shape != (b, k) or weights.shape != (b, k):
        raise ValueError(
            f"targets/weights must have shape ({b}, {k}), got {targets.shape} and {weights.shape}"
        )
    return model.views(gradient(model, x, forward_pass(model, x), targets, weights))


@dataclass
class OptimizerState:
    """SGD or Adam state. Adam's moments `m` and `v` are vectors laid out like the
    classifier's `flat` (`Classifier.views` gives their per-tensor views); None for SGD."""

    kind: str
    learning_rate: float
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    step_count: int = 0


def make_optimizer(kind: str, learning_rate: float, model: Classifier) -> OptimizerState:
    if kind not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer {kind!r}")
    if not 0 < learning_rate < math.inf:
        raise ValueError(f"learning rate must be positive and finite, got {learning_rate}")
    opt = OptimizerState(kind, learning_rate)
    if kind == "adam":
        opt.m, opt.v = np.zeros_like(model.flat), np.zeros_like(model.flat)
    return opt


def step(model: Classifier, grads: np.ndarray, opt: OptimizerState) -> None:
    """Apply one optimizer step in place, skipping a frozen hidden layer.

    grads: a vector laid out like `model.flat`, as `gradient` returns.
    """
    frozen = model.arch == "mlp1" and model.frozen_hidden
    start = model.params["W1"].size + model.params["b1"].size if frozen else 0  # the hidden layer leads `flat`
    opt.step_count += 1
    t = opt.step_count
    param, g, lr = model.flat[start:], grads[start:], opt.learning_rate
    if opt.kind == "sgd":
        param -= lr * g
        return
    m = opt.m[start:]
    v = opt.v[start:]
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    param -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _weighted_loss(model: Classifier, x, targets, weights) -> float:
    from .schemes import bce_elementwise

    probs = forward(model, x)
    return float((weights * bce_elementwise(probs, targets)).sum() / (x.shape[0] * model.num_classes))


def grad_check(model: Classifier, x, targets, weights, step_size: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per parameter is |g_a - g_n| / max(|g_a|, |g_n|, 1e-8).
    Intended for small models (about 1e3 parameters or fewer).
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    analytic = backward(model, x, targets, weights)
    worst = 0.0
    for name, param in model.params.items():
        flat = param.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step_size
            plus = _weighted_loss(model, x, targets, weights)
            flat[i] = orig - step_size
            minus = _weighted_loss(model, x, targets, weights)
            flat[i] = orig
            numeric = (plus - minus) / (2.0 * step_size)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# Checkpoint format:
#   WSMLMODEL/1
#   linear|mlp1
#   D K          (linear)  or  D H K  (mlp1)
#   parameter tensors row-major in _PARAM_ORDER (codec in wsml.io)
# ---------------------------------------------------------------------------


def save_model(model: Classifier, path, config_comment: str | None = None) -> None:
    if model.arch == "linear":
        dims = f"{model.input_dim} {model.num_classes}"
    else:
        dims = f"{model.input_dim} {model.params['W1'].shape[0]} {model.num_classes}"
    blocks = [(model.params[name], io.REAL) for name in _PARAM_ORDER[model.arch]]
    io.save(path, MODEL_HEADER, config_comment, [model.arch, dims, *blocks])


def load_model(path) -> Classifier:
    reader = io.Reader(path, MODEL_HEADER)
    lineno, arch = reader.line("architecture line")
    if arch not in _PARAM_ORDER:
        raise io.FormatError(lineno, f"unknown architecture {arch!r}")
    if arch == "linear":
        d, k = reader.dims("D K")
        shapes = {"W": (k, d), "b": (k,)}
    else:
        d, h, k = reader.dims("D H K")
        shapes = {"W1": (h, d), "b1": (h,), "W2": (k, h), "b2": (k,)}
    params = {name: reader.block(shape, name, io.REAL) for name, shape in shapes.items()}
    reader.end()
    return Classifier(arch, params)
