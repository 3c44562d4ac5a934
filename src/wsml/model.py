"""Small sigmoid-output classifiers with hand-coded gradients and optimizers.

An architecture is a stack of ReLU layers under a sigmoid output layer, as
listed in `_LAYERS`, and every pass is one loop over the layers. Forward
probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] so the elementwise
binary cross entropy and its temporary-correction weights stay finite.
Each classifier keeps its parameters in one contiguous float64 buffer with
a view per tensor, and Adam keeps its moments the same way, so an optimizer
step is one vector update. A stack of R classifiers keeps them in an R x P
buffer, so each numpy call serves every arm; its products' `np.matmul` makes
for each arm the BLAS call a lone classifier's `np.dot` makes, so each arm
keeps its bits. Classifier and OptimizerState are single-writer values;
forward is pure and safe to share read-only across threads, while grad_check
moves each parameter in place and back, so it needs the model to itself.
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
    "output_delta",
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

# per architecture, the (weight, bias) names of each layer, input side first: a linear map, a
# one-hidden-layer ReLU network. This is the buffer and checkpoint order, so the output layer ends `flat`.
_LAYERS = {"linear": (("W", "b"),), "mlp1": (("W1", "b1"), ("W2", "b2"))}
ARCHS = {arch: len(layers) for arch, layers in _LAYERS.items()}  # architecture -> number of layers
_BACKWARD = {arch: [*reversed([*enumerate(layers)])] for arch, layers in _LAYERS.items()}  # (index, names), output first
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
    order; `params` (by name) and `layers` (weight, bias as a 1 x H row) are views into
    it. A stack's params carry a leading arm axis, and so do `flat` (R x P) and its views.
    """

    arch: str
    params: dict[str, np.ndarray]
    frozen_hidden: bool = False
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    layers: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_arch(self.arch)
        arms = np.shape(self.params[_LAYERS[self.arch][0][1]])[:-1]  # a bias is 1-D: (), or (R,) for a stack
        self._layout, start = [], 0  # (name, start, stop, shape) of each tensor in a row of `flat`
        for name in (name for layer in _LAYERS[self.arch] for name in layer):
            shape = np.shape(self.params[name])[len(arms):]
            self._layout.append((name, start, start + math.prod(shape), shape))
            start += math.prod(shape)
        self.flat = np.concatenate([np.asarray(self.params[name], dtype=np.float64).reshape(*arms, -1)
                                    for name, *_ in self._layout], axis=-1)
        self.params = self.views(self.flat)
        self.layers = [(self.params[w], self.params[b][..., None, :]) for w, b in _LAYERS[self.arch]]

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-tensor views of a vector (or R x P array) laid out like `flat`."""
        arms = flat.shape[:-1]
        return {name: flat[..., start:stop].reshape(*arms, *shape) for name, start, stop, shape in self._layout}

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[-1]

    @property
    def num_classes(self) -> int:
        return self.layers[-1][0].shape[-2]

    def copy(self) -> "Classifier":
        return Classifier(self.arch, self.params, self.frozen_hidden)  # __post_init__ copies into a new buffer

    def arm(self, i: int) -> "Classifier":
        """Arm i of a stack, whose parameters are views of the stack's: `copy` it to keep it."""
        arm = object.__new__(Classifier)
        arm.__dict__.update(self.__dict__, flat=self.flat[i], params={name: p[i] for name, p in self.params.items()},
                            layers=[(w[i], b[i]) for w, b in self.layers])
        return arm

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

    @classmethod
    def empty(cls, model: Classifier, rows: int) -> "ForwardPass":
        """Uninitialized arrays for a pass over `rows` rows (per arm, for a stack), without batch or probabilities."""
        arms, hidden = model.flat.shape[:-1], [w.shape[-2] for w, _ in model.layers[:-1]]
        return cls(None, np.empty((*arms, rows, model.num_classes)),
                   [None, *(np.empty((*arms, rows, h)) for h in hidden)], [np.empty((*arms, rows, h)) for h in hidden])


def forward_pass(model: Classifier, x: np.ndarray, probs: np.ndarray | None = None,
                 buffers: ForwardPass | None = None) -> ForwardPass:
    """Forward pass of a B x D float64 batch (R x B x D: a stack's) that the caller has already
    checked; it computes no loss. probs: the B x K (R x B x K) array the clamped probabilities
    go into. buffers: a ForwardPass of B rows (`ForwardPass.empty`, or an earlier pass) whose
    other arrays this pass writes over. Each is new when None."""
    matmul = np.dot if x.ndim == 2 else np.matmul
    buffers = ForwardPass.empty(model, x.shape[-2]) if buffers is None else buffers
    h = x
    for (w, b), act, z in zip(model.layers, buffers.inputs[1:], buffers.pre):  # the hidden layers
        matmul(h, w.mT, out=z)
        z += b
        h = np.maximum(z, 0.0, out=act)
    w, b = model.layers[-1]
    raw = matmul(h, w.mT, out=buffers.raw)
    raw += b
    sigmoid(raw, out=raw)
    probs = np.maximum(raw, PROB_EPS, out=probs)
    return ForwardPass(np.minimum(probs, 1.0 - PROB_EPS, out=probs), raw, [x, *buffers.inputs[1:]], buffers.pre)


def forward(model: Classifier, x: np.ndarray) -> np.ndarray:
    """Probabilities for a B x D batch, clamped to [PROB_EPS, 1 - PROB_EPS]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"expected batch of shape (B, {model.input_dim}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("input batch contains non-finite values")
    return forward_pass(model, x).probs


def output_delta(probs: np.ndarray, targets: np.ndarray, weights: np.ndarray, out: np.ndarray) -> None:
    """(probs - targets) * weights of one batch, into `out`: the delta at the output layer's logits."""
    np.subtract(probs, targets, out=out)
    if any(weights.strides) or weights.item(0) != 1.0:  # not one 1.0 broadcast over the batch: 1.0 * x is x
        out *= weights


def backward(model: Classifier, fwd: ForwardPass, deltas: ForwardPass, out: np.ndarray | None = None,
             views: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Gradient of the weighted mean binary cross entropy at the forward pass `fwd`, laid out like `model.flat`:
    `out` when given (with `views`, its `model.views(out)`, if the caller keeps them), else a new array. deltas: a
    pass of B rows other than `fwd` (`ForwardPass.empty`) whose `raw` holds the delta at the output logits
    (`output_delta`, of each arm's own targets and weights for a stack); the layers' deltas go over it.

    The loss is sum(weights * bce(P, targets)) / (B * K) with weights treated as constants, P the clamped forward
    probabilities. Where the clamp is active the probability is constant in the parameters, so those entries
    contribute exactly zero gradient (matching the finite-difference view)."""
    (b, k), matmul = fwd.probs.shape[-2:], np.dot if fwd.probs.ndim == 2 else np.matmul
    grad = deltas.raw
    grad *= fwd.probs == fwd.raw  # the clamp left the probability alone
    grad /= b * k
    out = np.empty_like(model.flat) if out is None else out
    g = model.views(out) if views is None else views
    for i, (w_name, b_name) in _BACKWARD[model.arch]:
        matmul(grad.mT, fwd.inputs[i], out=g[w_name])
        grad.sum(axis=-2, out=g[b_name])
        if i:  # back through the ReLU to the previous layer's pre-activation
            grad = matmul(grad, model.layers[i][0], out=deltas.pre[i - 1])
            grad *= fwd.pre[i - 1] > 0
    return out


@dataclass
class OptimizerState:
    """SGD or Adam state. Adam's moments `m` and `v` (and the two rows of `work`, a step's temporaries) are
    laid out like the classifier's `flat`, whose `Classifier.views` are per tensor; None for SGD."""

    kind: str
    learning_rate: float
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    step_count: int = 0
    work: np.ndarray | None = field(default=None, repr=False, compare=False)


def make_optimizer(kind: str, learning_rate: float, model: Classifier) -> OptimizerState:
    check_optimizer(kind, learning_rate)
    opt = OptimizerState(kind, learning_rate)
    if kind == "adam":
        opt.m, opt.v, opt.work = np.zeros_like(model.flat), np.zeros_like(model.flat), np.empty((2, *model.flat.shape))
    return opt


def step(model: Classifier, grads: np.ndarray, opt: OptimizerState) -> None:
    """Apply one optimizer step in place, to the output layer alone if `model.frozen_hidden`.

    grads: laid out like `model.flat`, as `backward` returns. Adam's
    temporaries go into `opt.work`, so a step allocates nothing.
    """
    start = model._layout[-2][1] if model.frozen_hidden else 0  # where the output layer's weight starts
    opt.step_count += 1
    t = opt.step_count
    param, g, lr = model.flat[..., start:], grads[..., start:], opt.learning_rate
    if opt.kind == "sgd":
        param -= lr * g
        return
    m, v, update, tmp = opt.m[..., start:], opt.v[..., start:], opt.work[0, ..., start:], opt.work[1, ..., start:]
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=tmp), g, out=tmp)
    np.divide(m, 1.0 - ADAM_BETA1**t, out=update)  # m_hat
    np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**t, out=tmp), out=tmp)  # sqrt(v_hat)
    tmp += ADAM_EPS
    update *= lr
    param -= np.divide(update, tmp, out=update)


def grad_check(model: Classifier, x, targets, weights, step_size: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per parameter is |g_a - g_n| / max(|g_a|, |g_n|, 1e-8).
    Intended for small models (about 1e3 parameters or fewer).
    """
    x, targets, weights = (np.asarray(a, dtype=np.float64) for a in (x, targets, weights))
    fwd, deltas = forward_pass(model, x), ForwardPass.empty(model, x.shape[0])
    output_delta(fwd.probs, targets, weights, deltas.raw)  # the training loop's calls
    analytic = backward(model, fwd, deltas)

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
    blocks = [(model.params[name], io.REAL) for layer in _LAYERS[model.arch] for name in layer]
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
