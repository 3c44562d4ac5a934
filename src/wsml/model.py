"""Small sigmoid-output classifiers with hand-coded gradients and optimizers.

Two architectures: a linear map and a one-hidden-layer ReLU network. Forward
probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] so the elementwise
binary cross entropy and its temporary-correction weights stay finite.
Classifier and OptimizerState are single-writer values; forward and
grad_check are pure and safe to share read-only across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import FormatError, LineReader, read_rows, sigmoid

__all__ = [
    "PROB_EPS",
    "Classifier",
    "OptimizerState",
    "init_classifier",
    "forward",
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

# parameter tensors in serialization order, per architecture
_PARAM_ORDER = {"linear": ("W", "b"), "mlp1": ("W1", "b1", "W2", "b2")}
_HIDDEN_PARAMS = ("W1", "b1")


@dataclass
class Classifier:
    """Parameter container; `arch` is "linear" or "mlp1".

    frozen_hidden freezes the hidden layer during `step` (the first-epochs
    schedule that trains only the output layer); it is not serialized.
    """

    arch: str
    params: dict[str, np.ndarray]
    frozen_hidden: bool = False

    @property
    def input_dim(self) -> int:
        key = "W" if self.arch == "linear" else "W1"
        return self.params[key].shape[1]

    @property
    def num_classes(self) -> int:
        key = "W" if self.arch == "linear" else "W2"
        return self.params[key].shape[0]

    @property
    def hidden_dim(self) -> int:
        if self.arch != "mlp1":
            raise ValueError("hidden_dim is only defined for mlp1")
        return self.params["W1"].shape[0]

    def copy(self) -> "Classifier":
        return Classifier(self.arch, {k: v.copy() for k, v in self.params.items()}, self.frozen_hidden)


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


def _forward_parts(model: Classifier, x: np.ndarray):
    """Returns (raw probabilities, hidden pre-activation, hidden activation)."""
    p = model.params
    if model.arch == "linear":
        return sigmoid(x @ p["W"].T + p["b"]), None, None
    pre = x @ p["W1"].T + p["b1"]
    act = np.maximum(pre, 0.0)
    return sigmoid(act @ p["W2"].T + p["b2"]), pre, act


def forward(model: Classifier, x: np.ndarray) -> np.ndarray:
    """Probabilities for a B x D batch, clamped to [PROB_EPS, 1 - PROB_EPS]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"expected batch of shape (B, {model.input_dim}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("input batch contains non-finite values")
    raw, _, _ = _forward_parts(model, x)
    return np.clip(raw, PROB_EPS, 1.0 - PROB_EPS)


def backward(model: Classifier, x: np.ndarray, targets: np.ndarray, weights: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the weighted mean binary cross entropy.

    The loss is sum(weights * bce(P, targets)) / (B * K) with weights treated
    as constants, P the clamped forward probabilities. Where the clamp is
    active the probability is constant in the parameters, so those entries
    contribute exactly zero gradient (matching the finite-difference view).
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    b = x.shape[0]
    k = model.num_classes
    if targets.shape != (b, k) or weights.shape != (b, k):
        raise ValueError(
            f"targets/weights must have shape ({b}, {k}), got {targets.shape} and {weights.shape}"
        )

    raw, pre, act = _forward_parts(model, x)
    probs = np.clip(raw, PROB_EPS, 1.0 - PROB_EPS)
    active = (raw >= PROB_EPS) & (raw <= 1.0 - PROB_EPS)
    grad_logits = weights * (probs - targets) * active / (b * k)

    p = model.params
    if model.arch == "linear":
        return {"W": grad_logits.T @ x, "b": grad_logits.sum(axis=0)}
    grad_act = grad_logits @ p["W2"]
    grad_pre = grad_act * (pre > 0)
    return {
        "W1": grad_pre.T @ x,
        "b1": grad_pre.sum(axis=0),
        "W2": grad_logits.T @ act,
        "b2": grad_logits.sum(axis=0),
    }


@dataclass
class OptimizerState:
    """SGD or Adam state; moment tensors are shaped exactly like the parameters."""

    kind: str
    learning_rate: float
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step_count: int = 0


def make_optimizer(kind: str, learning_rate: float, model: Classifier) -> OptimizerState:
    if kind not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer {kind!r}")
    if learning_rate <= 0:
        raise ValueError(f"learning rate must be positive, got {learning_rate}")
    opt = OptimizerState(kind, learning_rate)
    if kind == "adam":
        opt.m = {name: np.zeros_like(p) for name, p in model.params.items()}
        opt.v = {name: np.zeros_like(p) for name, p in model.params.items()}
    return opt


def step(model: Classifier, grads: dict[str, np.ndarray], opt: OptimizerState) -> None:
    """Apply one optimizer step in place, skipping frozen hidden-layer tensors."""
    frozen = set(_HIDDEN_PARAMS) if (model.arch == "mlp1" and model.frozen_hidden) else set()
    opt.step_count += 1
    t = opt.step_count
    for name, param in model.params.items():
        if name in frozen:
            continue
        g = grads[name]
        lr = opt.learning_rate
        if opt.kind == "sgd":
            param -= lr * g
        else:
            m = opt.m[name]
            v = opt.v[name]
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
#   parameter tensors row-major, 17 significant digits, in _PARAM_ORDER
# ---------------------------------------------------------------------------


def save_model(model: Classifier, path, config_comment: str | None = None) -> None:
    lines = [MODEL_HEADER]
    if config_comment is not None:
        lines.append("#cfg " + config_comment)
    lines.append(model.arch)
    if model.arch == "linear":
        lines.append(f"{model.input_dim} {model.num_classes}")
    else:
        lines.append(f"{model.input_dim} {model.hidden_dim} {model.num_classes}")
    for name in _PARAM_ORDER[model.arch]:
        tensor = np.atleast_2d(model.params[name])
        for row in tensor:
            lines.append(" ".join(format(v, ".17g") for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> Classifier:
    with open(path, "r", encoding="utf-8") as fh:
        reader = LineReader(fh.read())
    lineno, header = reader.next("header")
    if header != MODEL_HEADER:
        raise FormatError(lineno, f"bad header {header!r}, expected {MODEL_HEADER!r}")
    lineno, arch = reader.next("architecture line")
    if arch not in _PARAM_ORDER:
        raise FormatError(lineno, f"unknown architecture {arch!r}")
    lineno, dims_line = reader.next("dimension line")
    parts = dims_line.split()
    expected = 2 if arch == "linear" else 3
    if len(parts) != expected:
        raise FormatError(lineno, f"expected {expected} dimensions, got {dims_line!r}")
    try:
        dims = [int(p) for p in parts]
    except ValueError:
        raise FormatError(lineno, f"dimensions must be integers, got {dims_line!r}") from None
    if any(v < 1 for v in dims):
        raise FormatError(lineno, f"dimensions must be positive, got {dims_line!r}")

    if arch == "linear":
        d, k = dims
        params = {
            "W": read_rows(reader, (k, d), "W"),
            "b": read_rows(reader, (1, k), "b")[0],
        }
    else:
        d, h, k = dims
        params = {
            "W1": read_rows(reader, (h, d), "W1"),
            "b1": read_rows(reader, (1, h), "b1")[0],
            "W2": read_rows(reader, (k, h), "W2"),
            "b2": read_rows(reader, (1, k), "b2")[0],
        }
    trailing = reader.peek()
    if trailing is not None:
        raise FormatError(trailing[0], f"unexpected trailing content {trailing[1]!r}")
    return Classifier(arch, params)
