"""Small sigmoid-output classifiers with hand-coded gradients and optimizers.

An architecture is a stack of ReLU layers under a sigmoid output layer, as
listed in `_LAYERS`, and every pass is one loop over the layers. Forward
probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] so the elementwise
binary cross entropy and its temporary-correction weights stay finite.
Each classifier keeps its parameters in one contiguous float64 buffer with
a view per tensor, and Adam keeps its moments the same way, so an optimizer
step is one vector update. Classifier and OptimizerState are single-writer
values; forward is pure and safe to share read-only across threads, while
grad_check moves each parameter in place and back, so it needs the model to
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import io
from .dataset import sigmoid
from .schemes import bce_elementwise

__all__ = [
    "PROB_EPS",
    "ARCHS",
    "OPTIMIZERS",
    "Classifier",
    "OptimizerState",
    "check_arch",
    "check_optimizer",
    "init_classifier",
    "ForwardPass",
    "forward",
    "forward_pass",
    "gradient",
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

# per architecture, the (weight, bias) names of each layer, input side first: a linear map, a
# one-hidden-layer ReLU network. This is the buffer and checkpoint order, so the output layer ends `flat`.
_LAYERS = {"linear": (("W", "b"),), "mlp1": (("W1", "b1"), ("W2", "b2"))}
ARCHS = {arch: len(layers) for arch, layers in _LAYERS.items()}  # architecture -> number of layers
OPTIMIZERS = ("sgd", "adam")


def check_arch(arch: str, hidden: int | None = None) -> None:
    """Raise ValueError unless `arch` is a key of _LAYERS whose hidden layers
    can be `hidden` wide (not checked when None)."""
    if arch not in _LAYERS:
        raise ValueError(f"unknown architecture {arch!r}")
    if hidden is not None and ARCHS[arch] > 1 and hidden < 1:
        raise ValueError(f"{arch} needs hidden >= 1, got {hidden}")


def check_optimizer(kind: str, learning_rate: float) -> None:
    """Raise ValueError unless `kind` is in OPTIMIZERS and the learning rate is positive and finite."""
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {kind!r}")
    if not 0 < learning_rate < math.inf:
        raise ValueError(f"learning rate must be positive and finite, got {learning_rate}")


@dataclass
class Classifier:
    """Parameter container; `arch` is a key of _LAYERS.

    frozen_hidden makes `step` train only the output layer (the first-epochs
    schedule); it is not serialized. `flat` holds every parameter in _LAYERS
    order; `params` (by name) and `layers` (weight, bias) are views into it.
    """

    arch: str
    params: dict[str, np.ndarray]
    frozen_hidden: bool = False
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    layers: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_arch(self.arch)
        self._layout, start = [], 0  # (name, start, stop, shape) of each tensor in `flat`
        for name in (name for layer in _LAYERS[self.arch] for name in layer):
            shape = np.shape(self.params[name])
            self._layout.append((name, start, start + math.prod(shape), shape))
            start += math.prod(shape)
        self.flat = np.concatenate([np.asarray(self.params[name], dtype=np.float64).ravel() for name, *_ in self._layout])
        self.params = self.views(self.flat)
        self.layers = [(self.params[w], self.params[b]) for w, b in _LAYERS[self.arch]]

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-tensor views of a vector laid out like `flat`."""
        return {name: flat[start:stop].reshape(shape) for name, start, stop, shape in self._layout}

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def num_classes(self) -> int:
        return self.layers[-1][0].shape[0]

    def copy(self) -> "Classifier":
        return Classifier(self.arch, self.params, self.frozen_hidden)  # __post_init__ copies into a new buffer

    def __eq__(self, other):  # the same tensors (names and shapes) holding the same values
        return isinstance(other, Classifier) and self._layout == other._layout and np.array_equal(self.flat, other.flat)

    def __reduce__(self):
        # rebuild through __init__: pickle and deepcopy would otherwise copy each view apart from `flat`
        return Classifier, (self.arch, self.params, self.frozen_hidden)


def init_classifier(arch: str, input_dim: int, num_classes: int, hidden: int = 64, seed=0) -> Classifier:
    """Seeded init: weights ~ N(0, 1/fan_in), biases zero."""
    if input_dim < 1 or num_classes < 1:
        raise ValueError(f"need input_dim >= 1 and num_classes >= 1, got {input_dim}, {num_classes}")
    check_arch(arch, hidden)
    widths = [input_dim, *[hidden] * (ARCHS[arch] - 1), num_classes]
    rng = np.random.default_rng(seed)
    params = {}
    for (w, b), fan_in, fan_out in zip(_LAYERS[arch], widths, widths[1:]):
        params[w] = rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
        params[b] = np.zeros(fan_out)
    return Classifier(arch, params)


class ForwardPass(NamedTuple):
    """Clamped and raw probabilities, each layer's input (the batch, then each hidden activation), each hidden pre-activation."""

    probs: np.ndarray
    raw: np.ndarray
    inputs: list[np.ndarray]
    pre: list[np.ndarray]


def forward_pass(model: Classifier, x: np.ndarray) -> ForwardPass:
    """Forward pass of a B x D float64 batch that the caller has already checked."""
    inputs, pre = [x], []
    for w, b in model.layers[:-1]:
        pre.append(np.dot(inputs[-1], w.T) + b)
        inputs.append(np.maximum(pre[-1], 0.0))
    w, b = model.layers[-1]
    raw = sigmoid(np.dot(inputs[-1], w.T) + b)
    return ForwardPass(np.minimum(np.maximum(raw, PROB_EPS), 1.0 - PROB_EPS), raw, inputs, pre)


def forward(model: Classifier, x: np.ndarray) -> np.ndarray:
    """Probabilities for a B x D batch, clamped to [PROB_EPS, 1 - PROB_EPS]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"expected batch of shape (B, {model.input_dim}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("input batch contains non-finite values")
    return forward_pass(model, x).probs


def gradient(model: Classifier, fwd: ForwardPass, targets: np.ndarray, weights: np.ndarray,
             out: np.ndarray | None = None, views: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Gradient of the weighted mean binary cross entropy at the forward pass
    `fwd`, as one vector laid out like `model.flat`: `out` when given (with
    `views`, its `model.views(out)`, if the caller keeps them), else a new
    vector.

    The loss is sum(weights * bce(P, targets)) / (B * K) with weights treated
    as constants, P the clamped forward probabilities. Where the clamp is
    active the probability is constant in the parameters, so those entries
    contribute exactly zero gradient (matching the finite-difference view).
    """
    b, k = fwd.probs.shape
    active = fwd.probs == fwd.raw  # the clamp left the probability alone
    grad = weights * (fwd.probs - targets) * active / (b * k)  # at the output layer's logits
    out = np.empty_like(model.flat) if out is None else out
    g = model.views(out) if views is None else views
    for i, (w_name, b_name) in reversed(list(enumerate(_LAYERS[model.arch]))):
        np.dot(grad.T, fwd.inputs[i], out=g[w_name])
        grad.sum(axis=0, out=g[b_name])
        if i:  # back through the ReLU to the previous layer's pre-activation
            grad = np.dot(grad, model.layers[i][0]) * (fwd.pre[i - 1] > 0)
    return out


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
    check_optimizer(kind, learning_rate)
    opt = OptimizerState(kind, learning_rate)
    if kind == "adam":
        opt.m, opt.v = np.zeros_like(model.flat), np.zeros_like(model.flat)
    return opt


def step(model: Classifier, grads: np.ndarray, opt: OptimizerState) -> None:
    """Apply one optimizer step in place, to the output layer alone if `model.frozen_hidden`.

    grads: a vector laid out like `model.flat`, as `gradient` returns.
    """
    start = model.flat.size - sum(t.size for t in model.layers[-1]) if model.frozen_hidden else 0
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


def grad_check(model: Classifier, x, targets, weights, step_size: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per parameter is |g_a - g_n| / max(|g_a|, |g_n|, 1e-8).
    Intended for small models (about 1e3 parameters or fewer).
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    analytic = gradient(model, forward_pass(model, x), targets, weights)

    def loss() -> float:
        return float((weights * bce_elementwise(forward(model, x), targets)).sum() / (x.shape[0] * model.num_classes))

    worst, flat = 0.0, model.flat
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step_size
        plus = loss()
        flat[i] = orig - step_size
        minus = loss()
        flat[i] = orig
        numeric = (plus - minus) / (2.0 * step_size)
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# Checkpoint format:
#   WSMLMODEL/1
#   the architecture, a key of _LAYERS
#   D [H] K      the widths: input, each hidden layer's, classes
#   each layer's weight, then bias, row-major, input side first (codec in wsml.io)
# ---------------------------------------------------------------------------


def save_model(model: Classifier, path, config_comment: str | None = None) -> None:
    widths = [model.input_dim] + [w.shape[0] for w, _ in model.layers]
    blocks = [(tensor, io.REAL) for layer in model.layers for tensor in layer]
    io.save(path, MODEL_HEADER, config_comment, [model.arch, " ".join(map(str, widths)), *blocks])


def load_model(path) -> Classifier:
    with io.Reader(path, MODEL_HEADER) as reader:
        lineno, arch = reader.line("architecture line")
        if arch not in _LAYERS:
            raise io.FormatError(lineno, f"unknown architecture {arch!r}")
        widths = reader.dims(" ".join(["D", *["H"] * (ARCHS[arch] - 1), "K"]))
        params = {}
        for (w, b), fan_in, fan_out in zip(_LAYERS[arch], widths, widths[1:]):
            params[w] = reader.block((fan_out, fan_in), w, io.REAL)
            params[b] = reader.block((fan_out,), b, io.REAL)
        reader.end()
    return Classifier(arch, params)
