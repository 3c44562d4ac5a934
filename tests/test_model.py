import numpy as np
import pytest

from wsml.model import (
    PROB_EPS,
    Classifier,
    backward,
    forward,
    grad_check,
    init_classifier,
    load_model,
    make_optimizer,
    save_model,
    step,
)
from wsml.schemes import bce_elementwise


def random_batch(rng, model, b):
    x = rng.standard_normal((b, model.input_dim))
    targets = rng.uniform(size=(b, model.num_classes))
    weights = rng.uniform(size=(b, model.num_classes)) * 2.0
    return x, targets, weights


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
            backward(m, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3)))

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
        step(m, {"W": np.array([[2.0]]), "b": np.array([0.0])}, opt)
        assert abs(m.params["W"][0, 0] - 0.8) < 1e-15

    def test_frozen_hidden_blocks_update(self):
        m = init_classifier("mlp1", 2, 2, hidden=3, seed=0)
        m.frozen_hidden = True
        opt = make_optimizer("sgd", 0.5, m)
        before_w1 = m.params["W1"].copy()
        before_w2 = m.params["W2"].copy()
        grads = {name: np.ones_like(p) for name, p in m.params.items()}
        step(m, grads, opt)
        assert np.array_equal(m.params["W1"], before_w1)
        assert not np.array_equal(m.params["W2"], before_w2)

    def test_adam_first_step_size(self):
        m = Classifier("linear", {"W": np.ones((2, 2)), "b": np.ones(2)})
        opt = make_optimizer("adam", 1e-3, m)
        step(m, {"W": np.ones((2, 2)), "b": np.ones(2)}, opt)
        assert np.all(np.abs((1.0 - m.params["W"]) - 1e-3) < 1e-9)
        assert opt.step_count == 1

    def test_moments_match_parameter_shapes(self):
        m = init_classifier("mlp1", 3, 2, hidden=4, seed=2)
        opt = make_optimizer("adam", 1e-3, m)
        for name, p in m.params.items():
            assert opt.m[name].shape == p.shape
            assert opt.v[name].shape == p.shape


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
            grads = backward(m, x, targets, weights)
            step(m, grads, opt)
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
