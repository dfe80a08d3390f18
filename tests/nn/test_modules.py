"""Tests for Module / layer abstractions."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


class TestModuleRegistration:
    def test_parameters_are_collected(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        assert len(layer.parameters()) == 2  # weight + bias

    def test_nested_module_parameters(self):
        model = nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))
        names = dict(model.named_parameters())
        assert any("layer0.weight" in name for name in names)
        assert len(model.parameters()) == 4

    def test_named_modules_walks_tree(self):
        model = nn.Sequential(nn.Linear(2, 2), nn.ReLU())
        names = [name for name, _ in model.named_modules()]
        assert "" in names and "layer0" in names

    def test_zero_grad_clears_gradients(self):
        layer = nn.Linear(3, 2)
        out = layer(Tensor(np.ones((1, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_num_parameters(self):
        layer = nn.Linear(4, 3)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Dropout(0.5), nn.Linear(2, 2))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(Tensor([1.0]))


class TestStateDict:
    def test_roundtrip(self):
        a = nn.Sequential(nn.Linear(4, 3), nn.ReLU(), nn.Linear(3, 2))
        b = nn.Sequential(nn.Linear(4, 3), nn.ReLU(), nn.Linear(3, 2))
        b.load_state_dict(a.state_dict())
        x = Tensor(np.random.default_rng(0).normal(size=(2, 4)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_missing_key_raises(self):
        layer = nn.Linear(2, 2)
        with pytest.raises(KeyError):
            layer.load_state_dict({})

    def test_shape_mismatch_raises(self):
        layer = nn.Linear(2, 2)
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_batchnorm_buffers_in_state(self):
        bn = nn.BatchNorm2d(3)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state

    def test_batchnorm_buffer_roundtrip(self):
        bn1 = nn.BatchNorm2d(2)
        bn1(Tensor(np.random.default_rng(0).normal(size=(4, 2, 3, 3))))
        bn2 = nn.BatchNorm2d(2)
        bn2.load_state_dict(bn1.state_dict())
        np.testing.assert_allclose(bn2.running_mean, bn1.running_mean)


class TestLayers:
    def test_linear_shapes(self):
        layer = nn.Linear(5, 3)
        assert layer(Tensor(np.zeros((7, 5)))).shape == (7, 3)

    def test_linear_no_bias(self):
        layer = nn.Linear(5, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_conv_shapes(self):
        layer = nn.Conv2d(3, 8, 3, padding=1)
        assert layer(Tensor(np.zeros((2, 3, 10, 10)))).shape == (2, 8, 10, 10)

    def test_conv_no_bias(self):
        layer = nn.Conv2d(3, 8, 3, bias=False)
        assert layer.bias is None

    def test_maxpool_module(self):
        assert nn.MaxPool2d(2)(Tensor(np.zeros((1, 1, 8, 8)))).shape == (1, 1, 4, 4)

    def test_avgpool_module(self):
        assert nn.AvgPool2d(2)(Tensor(np.zeros((1, 1, 8, 8)))).shape == (1, 1, 4, 4)

    def test_global_avgpool_module(self):
        assert nn.GlobalAvgPool2d()(Tensor(np.zeros((2, 3, 4, 4)))).shape == (2, 3)

    def test_flatten_module(self):
        assert nn.Flatten()(Tensor(np.zeros((2, 3, 4, 4)))).shape == (2, 48)

    def test_identity_module(self):
        x = Tensor(np.ones((2, 2)))
        assert nn.Identity()(x) is x

    def test_relu_module(self):
        out = nn.ReLU()(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_dropout_respects_mode(self):
        layer = nn.Dropout(0.9, seed=0)
        layer.eval()
        x = Tensor(np.ones((10, 10)))
        np.testing.assert_allclose(layer(x).data, x.data)

    def test_dropout_counter_state_rides_state_dict(self):
        from repro.nn.rng import STATE_STEP

        layer = nn.Dropout(0.5, seed=9, layer_id=2)
        layer.train()
        layer(Tensor(np.ones((4, 4))))
        layer.advance_step()
        state = layer.state_dict()
        assert int(state["rng_state"][STATE_STEP]) == 1
        revived = nn.Dropout(0.5, seed=0, layer_id=2)
        revived.load_state_dict(state)
        np.testing.assert_array_equal(revived.rng_state, layer.rng_state)
        # The buffer is restored in place — live plans keep their alias.
        assert revived.rng_state is revived._buffers["rng_state"]

    def test_dropout_same_step_reuses_one_mask(self):
        layer = nn.Dropout(0.5, seed=9, layer_id=1)
        layer.train()
        x = Tensor(np.ones((30, 30)))
        first = layer(x).data
        second = layer(x).data  # same optimizer step: identical mask
        np.testing.assert_array_equal(first, second)
        layer.advance_step()
        assert not np.array_equal(first, layer(x).data)

    def test_unseeded_dropout_warns_once_in_training(self):
        layer = nn.Dropout(0.5)  # no seed, no generator
        layer.train()
        x = Tensor(np.ones((8, 8)))
        with pytest.warns(UserWarning, match="without a seed"):
            layer(x)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            layer(x)  # warns only once

    def test_advance_dropout_steps_walks_the_tree(self):
        from repro.nn.rng import STATE_STEP

        model = nn.Sequential(nn.Dropout(0.5, seed=1, layer_id=1), nn.ReLU())
        nn.advance_dropout_steps(model)
        nn.advance_dropout_steps(model, count=2)
        assert int(model[0].rng_state[STATE_STEP]) == 3

    def test_sequential_iteration_and_indexing(self):
        model = nn.Sequential(nn.Linear(2, 2), nn.ReLU())
        assert len(model) == 2
        assert isinstance(model[1], nn.ReLU)
        assert len(list(iter(model))) == 2

    def test_sequential_append(self):
        model = nn.Sequential(nn.Linear(2, 2))
        model.append(nn.ReLU())
        assert len(model) == 2
        assert len(model.parameters()) == 2

    def test_reprs_are_informative(self):
        assert "Linear" in repr(nn.Linear(2, 3))
        assert "Conv2d" in repr(nn.Conv2d(1, 2, 3))
        assert "BatchNorm2d" in repr(nn.BatchNorm2d(4))
        assert "Sequential" in repr(nn.Sequential(nn.ReLU()))


class TestTrainingDynamics:
    def test_linear_layer_can_fit_regression(self):
        rng = np.random.default_rng(0)
        true_w = np.array([[2.0, -1.0]])
        x = rng.normal(size=(64, 2))
        y = x @ true_w.T
        layer = nn.Linear(2, 1, rng=rng)
        optimizer = nn.SGD(layer.parameters(), lr=0.1, momentum=0.0)
        from repro.nn import functional as F

        for _ in range(200):
            prediction = layer(Tensor(x))
            loss = F.mse_loss(prediction, Tensor(y))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(layer.weight.data, true_w, atol=0.05)
