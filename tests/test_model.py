import copy
import pickle

import numpy as np
import pytest

from wsml.model import (
    PROB_EPS,
    Classifier,
    ForwardPass,
    backward as model_backward,
    forward,
    forward_pass,
    grad_check,
    init_classifier,
    load_model,
    make_optimizer,
    output_delta,
    save_model,
    step,
)
from wsml.schemes import bce_elementwise


def random_batch(rng, model, b):
    x = rng.standard_normal((b, model.input_dim))
    targets = rng.uniform(size=(b, model.num_classes))
    weights = rng.uniform(size=(b, model.num_classes)) * 2.0
    return x, targets, weights


def delta_backward(model, fwd, targets, weights, out=None):
    """The training loop's gradient at the pass `fwd`: `output_delta` into a fresh pass, then `backward` into `out`
    (a new array when None)."""
    deltas = ForwardPass.empty(model, fwd.probs.shape[0])
    output_delta(fwd.probs, targets, weights, deltas.raw)
    out = np.empty_like(model.flat) if out is None else out
    return model_backward(model, fwd, deltas, out, model.views(out))


def flat_gradient(model, x, targets, weights):
    return delta_backward(model, forward_pass(model, x), targets, weights)


def backward(model, x, targets, weights):
    """Per-tensor gradients of the weighted mean binary cross entropy, by tensor name."""
    return model.views(flat_gradient(model, x, targets, weights))


class TestInit:
    def test_linear_shapes_and_zero_bias(self):
        m = init_classifier("linear", 2, 3, seed=0)
        assert m.params["W"].shape == (3, 2)
        assert m.params["b"].shape == (3,)
        assert np.array_equal(m.params["b"], np.zeros(3))

    def test_same_seed_same_parameters(self):
        a = init_classifier("mlp1", 4, 3, hidden=5, seed=42)
        b = init_classifier("mlp1", 4, 3, hidden=5, seed=42)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_zero_hidden_rejected(self):
        with pytest.raises(ValueError, match="hidden"):
            init_classifier("mlp1", 4, 3, hidden=0)

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError, match="architecture"):
            init_classifier("resnet", 4, 3)


class TestForward:
    def test_zero_model_outputs_half(self):
        m = Classifier("linear", {"W": np.zeros((3, 2)), "b": np.zeros(3)})
        p = forward(m, np.array([[1.0, -2.0], [0.5, 0.5]]))
        assert np.array_equal(p, np.full((2, 3), 0.5))

    def test_large_logit_clamps(self):
        m = Classifier("linear", {"W": np.zeros((2, 1)), "b": np.array([40.0, -40.0])})
        p = forward(m, np.zeros((1, 1)))
        assert p[0, 0] == 1.0 - PROB_EPS
        assert p[0, 1] == PROB_EPS

    def test_batch_independence(self):
        rng = np.random.default_rng(0)
        m = init_classifier("mlp1", 4, 3, hidden=6, seed=1)
        x = rng.standard_normal((16, 4))
        full = forward(m, x)
        single = forward(m, x[5:6])
        assert np.array_equal(full[5], single[0])

    def test_rejects_nonfinite_input(self):
        m = init_classifier("linear", 2, 2, seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            forward(m, np.array([[np.nan, 0.0]]))


class TestBackward:
    def test_all_zero_weights_give_zero_gradients(self):
        rng = np.random.default_rng(3)
        m = init_classifier("mlp1", 3, 4, hidden=5, seed=3)
        x, targets, _ = random_batch(rng, m, 6)
        grads = backward(m, x, targets, np.zeros((6, 4)))
        for g in grads.values():
            assert np.array_equal(g, np.zeros_like(g))

    def test_hand_derived_single_element(self):
        # x=1, W=0, b=0, target=1, weight=1: dL/dW = (sigmoid(0) - 1) * x = -0.5
        m = Classifier("linear", {"W": np.zeros((1, 1)), "b": np.zeros(1)})
        grads = backward(m, np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        assert abs(grads["W"][0, 0] - (-0.5)) < 1e-12
        assert abs(grads["b"][0] - (-0.5)) < 1e-12

    def test_shape_mismatch_rejected(self):
        m = init_classifier("linear", 2, 3, seed=0)
        with pytest.raises(ValueError):
            grad_check(m, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3)))

    def test_finite_difference_linear(self):
        rng = np.random.default_rng(7)
        m = init_classifier("linear", 3, 2, seed=7)
        x, targets, weights = random_batch(rng, m, 4)
        assert grad_check(m, x, targets, weights) < 1e-4

    def test_finite_difference_mlp(self):
        rng = np.random.default_rng(8)
        m = init_classifier("mlp1", 3, 2, hidden=4, seed=8)
        x, targets, weights = random_batch(rng, m, 4)
        # resample batches that park a ReLU pre-activation near zero, where
        # the kink makes central differences meaningless
        pre = x @ m.params["W1"].T + m.params["b1"]
        while np.abs(pre).min() < 1e-3:
            x, targets, weights = random_batch(rng, m, 4)
            pre = x @ m.params["W1"].T + m.params["b1"]
        assert grad_check(m, x, targets, weights) < 1e-4

    def test_zero_weight_loss_checks_exactly(self):
        m = init_classifier("linear", 2, 2, seed=1)
        x = np.array([[0.3, -0.4]])
        assert grad_check(m, x, np.ones((1, 2)), np.zeros((1, 2))) == 0.0

    def test_category_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        m = init_classifier("linear", 3, 4, seed=9)
        x, targets, weights = random_batch(rng, m, 5)
        perm = rng.permutation(4)
        permuted = Classifier("linear", {"W": m.params["W"][perm], "b": m.params["b"][perm]})
        grads = backward(m, x, targets, weights)
        grads_p = backward(permuted, x, targets[:, perm], weights[:, perm])
        assert np.allclose(grads_p["W"], grads["W"][perm], atol=1e-15)
        assert np.allclose(grads_p["b"], grads["b"][perm], atol=1e-15)


class TestStep:
    def test_sgd_update(self):
        m = Classifier("linear", {"W": np.ones((1, 1)), "b": np.zeros(1)})
        opt = make_optimizer("sgd", 0.1, m)
        step(m, np.array([2.0, 0.0]), opt)  # W, then b
        assert abs(m.params["W"][0, 0] - 0.8) < 1e-15

    def test_frozen_hidden_blocks_update(self):
        m = init_classifier("mlp1", 2, 2, hidden=3, seed=0)
        m.frozen_hidden = True
        opt = make_optimizer("sgd", 0.5, m)
        before_w1 = m.params["W1"].copy()
        before_w2 = m.params["W2"].copy()
        step(m, np.ones_like(m.flat), opt)
        assert np.array_equal(m.params["W1"], before_w1)
        assert not np.array_equal(m.params["W2"], before_w2)

    def test_adam_first_step_size(self):
        m = Classifier("linear", {"W": np.ones((2, 2)), "b": np.ones(2)})
        opt = make_optimizer("adam", 1e-3, m)
        step(m, np.ones(6), opt)
        assert np.all(np.abs((1.0 - m.params["W"]) - 1e-3) < 1e-9)
        assert opt.step_count == 1

    def test_moments_match_parameter_shapes(self):
        m = init_classifier("mlp1", 3, 2, hidden=4, seed=2)
        opt = make_optimizer("adam", 1e-3, m)
        assert opt.m.shape == opt.v.shape == m.flat.shape
        for moment in (opt.m, opt.v):
            for name, view in m.views(moment).items():
                assert view.shape == m.params[name].shape and np.shares_memory(view, moment)
        assert make_optimizer("sgd", 1e-3, m).m is None


def reference_step(params, grads, m, v, kind, lr, t, frozen):
    """The per-tensor optimizer update that the flat one replaces."""
    for name, param in params.items():
        if name in frozen:
            continue
        g = grads[name]
        if kind == "sgd":
            param -= lr * g
            continue
        m[name] *= 0.9
        m[name] += (1.0 - 0.9) * g
        v[name] *= 0.999
        v[name] += (1.0 - 0.999) * g * g
        m_hat = m[name] / (1.0 - 0.9**t)
        v_hat = v[name] / (1.0 - 0.999**t)
        param -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)


class TestFlatBuffers:
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("arch,frozen", [("linear", False), ("mlp1", False), ("mlp1", True)])
    def test_flat_step_equals_the_per_tensor_formula(self, kind, arch, frozen):
        rng = np.random.default_rng(11)
        model = init_classifier(arch, 4, 3, hidden=5, seed=11)
        ref = {name: p.copy() for name, p in model.params.items()}
        ref_m = {name: np.zeros_like(p) for name, p in ref.items()}
        ref_v = {name: np.zeros_like(p) for name, p in ref.items()}
        frozen_names = {"W1", "b1"} if frozen else set()
        opt = make_optimizer(kind, 0.05, model)
        for t in range(1, 5):
            model.frozen_hidden = frozen
            x, targets, weights = random_batch(rng, model, 6)
            ref_grads = {name: g.copy() for name, g in backward(model, x, targets, weights).items()}
            step(model, flat_gradient(model, x, targets, weights), opt)
            reference_step(ref, ref_grads, ref_m, ref_v, kind, 0.05, t, frozen_names)
            for name in ref:
                assert model.params[name].tobytes() == ref[name].tobytes(), (t, name)
                assert np.shares_memory(model.params[name], model.flat)
            if kind == "adam":
                m, v = model.views(opt.m), model.views(opt.v)
                for name in ref:
                    assert m[name].shape == v[name].shape == ref[name].shape
                    assert m[name].tobytes() == ref_m[name].tobytes()
                    assert v[name].tobytes() == ref_v[name].tobytes()

    @pytest.mark.parametrize("arch,frozen", [("linear", False), ("mlp1", False), ("mlp1", True)])
    def test_gradient_writes_into_out(self, arch, frozen):
        rng = np.random.default_rng(5)
        model = init_classifier(arch, 4, 3, hidden=5, seed=5)
        model.frozen_hidden = frozen
        x, targets, weights = random_batch(rng, model, 6)
        fwd = forward_pass(model, x)
        raw = fwd.raw
        # raw probabilities on and beyond the clamp's edges: columns 0 and 1 are
        # clamped throughout, column 2 sits exactly on the lower edge
        raw[:, 0], raw[:, 1], raw[:, 2] = 0.0, 1.0, PROB_EPS
        raw[0, 0], raw[1, 1] = 1.0, 0.0
        fwd = fwd._replace(probs=np.clip(raw, PROB_EPS, 1.0 - PROB_EPS))
        fresh = delta_backward(model, fwd, targets, weights)
        buf = np.full_like(model.flat, np.nan)
        assert delta_backward(model, fwd, targets, weights, buf) is buf
        assert buf.tobytes() == fresh.tobytes()
        bias = model.views(buf)["b" if arch == "linear" else "b2"]
        assert bias[0] == bias[1] == 0.0 and bias[2] != 0.0  # clamped entries add nothing

    def test_frozen_hidden_layer_keeps_its_bits_under_both_optimizers(self):
        for kind in ("sgd", "adam"):
            m = init_classifier("mlp1", 3, 2, hidden=4, seed=3)
            m.frozen_hidden = True
            before = m.flat.copy()
            step(m, np.ones_like(m.flat), make_optimizer(kind, 0.5, m))
            hidden = m.params["W1"].size + m.params["b1"].size
            assert m.flat[:hidden].tobytes() == before[:hidden].tobytes()
            assert (m.flat[hidden:] != before[hidden:]).all()

    @pytest.mark.parametrize("arch", ["linear", "mlp1"])
    def test_forward_pass_into_buffers_gives_the_same_bits(self, arch):
        m = init_classifier(arch, 4, 3, hidden=5, seed=3)
        x = np.random.default_rng(3).standard_normal((6, 4)) * 4.0
        fresh = forward_pass(m, x)
        buffers = {rows: ForwardPass.empty(m, rows) for rows in (6, 4)}
        probs = np.full((9, 3), np.nan)
        for rows in (6, 4, 6):  # a full batch, a ragged one, then a full one again
            fwd = forward_pass(m, x[:rows], probs[2:2 + rows], buffers[rows])
            assert np.shares_memory(fwd.probs, probs) and np.shares_memory(fwd.raw, buffers[rows].raw)
            assert fwd.inputs[0] is not None and fwd.inputs[0].shape == (rows, 4)
            for got, want in zip([fwd.probs, fwd.raw, *fwd.inputs[1:], *fwd.pre],
                                 [fresh.probs, fresh.raw, *fresh.inputs[1:], *fresh.pre]):
                assert got.tobytes() == want[:rows].tobytes()
        assert np.isnan(probs[:2]).all() and np.isnan(probs[8:]).all()  # only the batch's rows are written

    @pytest.mark.parametrize("arch,depth", [("linear", 1), ("mlp1", 2)])
    def test_forward_pass_keeps_each_layer_input(self, arch, depth):
        m = init_classifier(arch, 4, 3, hidden=5, seed=2)
        x = np.random.default_rng(2).standard_normal((6, 4))
        fwd = forward_pass(m, x)
        assert len(m.layers) == len(fwd.inputs) == depth and len(fwd.pre) == depth - 1
        assert fwd.inputs[0] is x
        for (w, _), inp in zip(m.layers, fwd.inputs):
            assert inp.shape == (6, w.shape[1])
        for pre, act in zip(fwd.pre, fwd.inputs[1:]):
            assert np.array_equal(act, np.maximum(pre, 0.0))
        assert (m.input_dim, m.num_classes) == (4, 3)

    def test_classifier_built_from_a_dict_trains(self):
        rng = np.random.default_rng(4)
        # a transposed (non-contiguous) weight and integer biases: both get copied into the buffer
        w1 = rng.standard_normal((3, 5)).T
        m = Classifier("mlp1", {"W1": w1, "b1": np.zeros(5, dtype=int), "W2": rng.standard_normal((2, 5)), "b2": [0, 0]})
        assert m.flat.dtype == np.float64 and m.flat.size == 15 + 5 + 10 + 2
        assert np.array_equal(m.params["W1"], w1) and m.params["b2"].shape == (2,)
        x, targets, weights = random_batch(rng, m, 8)
        opt = make_optimizer("adam", 0.05, m)

        def loss():
            return float((weights * bce_elementwise(forward(m, x), targets)).mean())

        before = loss()
        for _ in range(30):
            step(m, flat_gradient(m, x, targets, weights), opt)
        assert loss() < before
        assert not np.array_equal(m.params["W1"], w1)
        for p in m.params.values():
            assert np.shares_memory(p, m.flat)

    def test_copy_owns_its_buffer(self):
        rng = np.random.default_rng(6)
        m = init_classifier("mlp1", 3, 2, hidden=4, seed=6)
        c = m.copy()
        snapshot = m.flat.copy()
        assert not np.shares_memory(c.flat, m.flat)
        x, targets, weights = random_batch(rng, m, 5)
        step(m, flat_gradient(m, x, targets, weights), make_optimizer("adam", 0.1, m))
        assert c.flat.tobytes() == snapshot.tobytes()
        assert not np.array_equal(m.flat, snapshot)
        for name, p in c.params.items():
            assert np.shares_memory(p, c.flat) and not np.shares_memory(p, m.flat)

    def test_equality_compares_the_tensors_and_never_raises(self):
        rng = np.random.default_rng(9)
        m = init_classifier("mlp1", 3, 2, hidden=4, seed=9)
        c = m.copy()
        assert m == c and not m != c
        x, targets, weights = random_batch(rng, m, 5)
        step(m, flat_gradient(m, x, targets, weights), make_optimizer("adam", 0.1, m))
        assert m != c and not m == c
        assert c != init_classifier("linear", 3, 2, seed=9)
        assert c != init_classifier("mlp1", 3, 2, hidden=5, seed=9)
        assert c != "mlp1" and c != None  # noqa: E711

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
    def test_deepcopy_and_pickle_keep_the_views_on_the_buffer(self, clone):
        rng = np.random.default_rng(8)
        m = init_classifier("mlp1", 3, 2, hidden=4, seed=8)
        m.frozen_hidden = True
        c = clone(m)
        assert c.frozen_hidden and c.flat.tobytes() == m.flat.tobytes()
        x, targets, weights = random_batch(rng, m, 5)
        for model in (m, c):
            step(model, flat_gradient(model, x, targets, weights), make_optimizer("adam", 0.1, model))
            for p in model.params.values():
                assert np.shares_memory(p, model.flat)
        assert c.flat.tobytes() == m.flat.tobytes() and not np.shares_memory(c.flat, m.flat)


class TestTrainingDynamics:
    def test_full_batch_sgd_loss_monotone_on_separable_data(self):
        # two well-separated clusters, labels depend on the sign of x[0]
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.normal(3, 0.3, (8, 2)), rng.normal(-3, 0.3, (8, 2))])
        targets = np.concatenate([np.ones((8, 2)), np.zeros((8, 2))])
        weights = np.ones_like(targets)
        m = init_classifier("linear", 2, 2, seed=5)
        opt = make_optimizer("sgd", 0.05, m)

        def loss():
            return float((weights * bce_elementwise(forward(m, x), targets)).mean())

        previous = loss()
        for _ in range(50):
            step(m, flat_gradient(m, x, targets, weights), opt)
            current = loss()
            assert current <= previous + 1e-12
            previous = current


class TestCheckpoint:
    @pytest.mark.parametrize("arch,kwargs", [("linear", {}), ("mlp1", {"hidden": 5})])
    def test_round_trip(self, tmp_path, arch, kwargs):
        m = init_classifier(arch, 3, 4, seed=13, **kwargs)
        for p in m.params.values():
            p *= 7.3  # exercise non-init values
        path = tmp_path / "m.model"
        save_model(m, path, config_comment='{"cmd": "train"}')
        back = load_model(path)
        assert back.arch == arch
        for name in m.params:
            assert np.array_equal(back.params[name], m.params[name])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("NOPE/1\nlinear\n1 1\n0\n0\n")
        with pytest.raises(ValueError, match="header"):
            load_model(path)

    def test_truncated_file_reports_line(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("WSMLMODEL/1\nlinear\n2 2\n0 0\n")
        with pytest.raises(ValueError, match="line 5"):
            load_model(path)
