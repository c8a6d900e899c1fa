"""From-scratch MLP: forward pass, gradients, training loop, persistence."""
import copy
import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from gammashock.optimize import Dataset, Scenario, system_fingerprint
from gammashock.surrogate import (
    DivergenceError,
    FeatureMode,
    FeatureSpec,
    MlpModel,
    TrainMode,
    _gradients,
    backprop_gradients,
    fit,
    forward,
    init_model,
    load_model,
    mse,
    predict_batch,
    predict_next_inspection,
    r_squared,
    save_model,
    train,
    training_loss,
)


def linear_model(theta: float) -> MlpModel:
    """One input, no hidden layer: output = theta * x (identity scalers)."""
    m = init_model((1, 1), seed=0)
    m.weights[0][:] = [[theta]]
    m.biases[0][:] = [0.0]
    return m


def random_model(rng: np.random.Generator, layer_sizes) -> MlpModel:
    m = init_model(layer_sizes, seed=int(rng.integers(1 << 16)))
    for w in m.weights:
        w += rng.normal(0, 0.5, w.shape)
    for b in m.biases:
        b += rng.normal(0, 0.5, b.shape)
    m.input_shift = rng.normal(0, 1, layer_sizes[0])
    m.input_scale = rng.uniform(0.5, 2.0, layer_sizes[0])
    m.output_shift = float(rng.normal())
    m.output_scale = float(rng.uniform(0.5, 2.0))
    return m


def mirrored_model(out_weights) -> MlpModel:
    """One input z, hidden units sigmoid(z) and sigmoid(-z), output their
    out_weights-weighted sum (zero biases, identity scalers)."""
    m = init_model((1, 2, 1), seed=0)
    m.weights[0][:] = [[1.0], [-1.0]]
    m.weights[1][:] = [out_weights]
    return m


def both_passes(m: MlpModel, zs):
    """Predictions for inputs zs from forward, row by row, and from predict_batch."""
    zs = np.asarray(zs, dtype=float)
    yield np.asarray([forward(m, [z]) for z in zs])
    yield predict_batch(m, zs[:, None])


class TestFeatureSpec:
    def test_feature_count(self, system):
        assert FeatureSpec(FeatureMode.U_ONLY).feature_count(system) == 3

    def test_levels_are_scaled_by_threshold(self, system):
        x = FeatureSpec(FeatureMode.U_ONLY).build(system, [10.0, 15.0, 7.0])
        assert np.allclose(x, [0.5, 0.5, 0.2])

    def test_thresholds_follow_the_system(self, system):
        spec, u = FeatureSpec(FeatureMode.U_ONLY), [10.0, 15.0, 7.0]
        c = system.components[0]
        wider = replace(
            system, components=(replace(c, soft_threshold=40.0),) + system.components[1:]
        )
        first = spec.build(system, u)
        first[:] = 0.0  # the caller owns the returned array
        assert spec.build(wider, u)[0] == 0.25
        assert spec.build(system, u)[0] == 0.5


class TestSigmoid:
    """The hidden layers' sigmoid, seen through forward and predict_batch."""

    def test_midpoint(self):
        for out in both_passes(mirrored_model([1.0, 0.0]), [0.0]):
            assert out[0] == 0.5

    def test_matches_logistic(self):
        zs = [-3.0, -0.5, 0.7, 4.0]
        ref = [1.0 / (1.0 + math.exp(-z)) for z in zs]
        for out in both_passes(mirrored_model([1.0, 0.0]), zs):
            assert np.all(np.abs(out - ref) <= 1e-15)

    def test_symmetry(self):
        # the output is sigmoid(z) + sigmoid(-z)
        for out in both_passes(mirrored_model([1.0, 1.0]), np.linspace(-20, 20, 41)):
            assert np.allclose(out, 1.0, atol=1e-15)

    def test_extreme_inputs_stay_finite(self):
        # hidden pre-activations reach -800 and 800 without an overflow warning
        for out in both_passes(mirrored_model([1.0, 0.0]), [-800.0, 800.0]):
            assert np.array_equal(out, [0.0, 1.0])
        for out in both_passes(mirrored_model([1.0, 1.0]), [-800.0, 800.0]):
            assert np.array_equal(out, [1.0, 1.0])


class TestInitModel:
    def test_shapes_and_zero_biases(self):
        m = init_model((3, 16, 16, 1), seed=42)
        assert [w.shape for w in m.weights] == [(16, 3), (16, 16), (1, 16)]
        assert all(np.all(b == 0.0) for b in m.biases)

    def test_weights_within_symmetric_limit(self):
        m = init_model((4, 8, 1), seed=0)
        for w, (fan_in, fan_out) in zip(m.weights, ((4, 8), (8, 1))):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= limit)

    def test_seeded(self):
        a = init_model((3, 5, 1), seed=7)
        b = init_model((3, 5, 1), seed=7)
        c = init_model((3, 5, 1), seed=8)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert any(not np.array_equal(x, y) for x, y in zip(a.weights, c.weights))

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            init_model((3,), seed=0)
        with pytest.raises(ValueError):
            init_model((3, 4, 2), seed=0)  # output layer must be width 1
        with pytest.raises(ValueError):
            init_model((0, 4, 1), seed=0)
        for sizes, kind in (((3, 4.0, 1), "float"), ((3, True, 1), "bool"), (("3", 4, 1), "str")):
            with pytest.raises(ValueError, match=f"layer_sizes: expected integers, got {kind}"):
                init_model(sizes, seed=0)
        assert init_model((np.int64(3), 4, 1), seed=0).layer_sizes == (3, 4, 1)

    def test_model_rejects_inconsistent_arrays(self):
        m = init_model((2, 3, 1), seed=0)
        with pytest.raises(ValueError):
            MlpModel(
                layer_sizes=(2, 3, 1),
                weights=[m.weights[0]],
                biases=[m.biases[0]],
                input_shift=np.zeros(2),
                input_scale=np.ones(2),
            )
        with pytest.raises(ValueError):
            MlpModel(
                layer_sizes=(2, 3, 1),
                weights=m.weights,
                biases=m.biases,
                input_shift=np.zeros(2),
                input_scale=np.zeros(2),  # zero scale is unusable
            )


    def test_model_takes_only_finite_real_numbers(self):
        m = init_model((2, 3, 1), seed=0)
        base = dict(layer_sizes=(2, 3, 1), weights=m.weights, biases=m.biases,
                    input_shift=np.zeros(2), input_scale=np.ones(2))
        assert MlpModel(**{**base, "output_scale": np.int64(2)}).output_scale == 2.0
        for edit, names in (
            ({"input_scale": np.ones(2, dtype=bool)}, "input_scale: expected real numbers, got bool"),
            ({"biases": [m.biases[0], ["0"]]}, "biases[1]: expected real numbers, got str"),
            ({"output_shift": 10**400}, "output_shift: expected finite numbers"),
            ({"input_shift": [0.0, -math.inf]}, "input_shift: expected finite numbers"),
            ({"input_shift": np.zeros(3)}, "input_shift: expected shape (2,), got (3,)"),
            ({"clamp_bounds": ("0.1", 50.0)}, "clamp_bounds: expected real numbers, got str"),
        ):
            with pytest.raises(ValueError) as err:
                MlpModel(**{**base, **edit})
            assert names in str(err.value)


class TestForward:
    def test_zero_network_outputs_its_bias(self):
        m = init_model((3, 4, 1), seed=1)
        for w in m.weights:
            w[:] = 0.0
        m.biases[-1][:] = [0.7]
        assert forward(m, [0.3, 0.6, 0.9]) == 0.7

    def test_single_hidden_unit_at_zero(self):
        m = init_model((1, 1, 1), seed=1)
        m.weights[0][:] = [[1.0]]
        m.weights[1][:] = [[1.0]]
        assert forward(m, [0.0]) == 0.5  # sigmoid(0) feeds a unit output weight

    def test_two_unit_hand_computation(self):
        m = init_model((2, 2, 1), seed=1)
        m.weights[0][:] = [[-0.5, 0.0], [0.0, -0.5]]
        m.weights[1][:] = [[1.0, 1.0]]
        got = forward(m, [1.0, 1.0])
        assert abs(got - 2.0 / (1.0 + math.exp(0.5))) <= 1e-12

    def test_scalers_applied(self):
        rng = np.random.default_rng(2)
        m = random_model(rng, (3, 4, 1))
        x = rng.normal(0, 1, 3)
        bare = copy.deepcopy(m)
        bare.input_shift = np.zeros(3)
        bare.input_scale = np.ones(3)
        bare.output_shift = 0.0
        bare.output_scale = 1.0
        xs = (x - m.input_shift) / m.input_scale
        assert abs(forward(m, x) - (forward(bare, xs) * m.output_scale + m.output_shift)) <= 1e-12

    def test_rejects_wrong_width(self):
        m = init_model((3, 4, 1), seed=1)
        with pytest.raises(ValueError):
            forward(m, [1.0, 2.0])

    def test_batch_matches_scalar(self):
        # forward is its own one-row pass, so it may round differently
        rng = np.random.default_rng(3)
        for sizes in [(4, 5, 1), (3, 16, 16, 1), (2, 7, 3, 4, 1), (3, 1)] * 5:
            m = random_model(rng, sizes)
            x = rng.normal(0, 1, (10, sizes[0]))
            for row, v in zip(x, predict_batch(m, x)):
                assert abs(forward(m, row) - v) <= 1e-12 * min(1.0, abs(v)), sizes


class TestMetrics:
    def test_mse(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mse([0.0], [2.0]) == 4.0
        assert mse([1.0, 3.0], [2.0, 5.0]) == 2.5
        with pytest.raises(ValueError):
            mse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mse([], [])

    def test_r_squared(self):
        t = [1.0, 2.0, 3.0, 4.0]
        assert r_squared(t, t) == 1.0
        assert abs(r_squared([2.5] * 4, t)) <= 1e-15  # mean predictor scores zero
        assert r_squared([1.1, 1.9, 3.2, 3.8], t) > 0.9
        with pytest.raises(ValueError):
            r_squared([1.0, 2.0], [3.0, 3.0])  # no target variance
        with pytest.raises(ValueError):
            r_squared([1.0], [2.0])  # too short
        with pytest.raises(ValueError):
            r_squared([1.0, 2.0], [1.0, 2.0, 3.0])


class TestGradients:
    def test_zero_residual_means_zero_gradients(self):
        m = init_model((2, 3, 1), seed=4)
        for w in m.weights:
            w[:] = 0.0
        m.biases[-1][:] = [1.3]
        assert training_loss(m, [0.2, 0.4], 1.3) == 0.0
        gw, gb = backprop_gradients(m, [0.2, 0.4], 1.3)
        assert all(np.all(g == 0.0) for g in gw)
        assert all(np.all(g == 0.0) for g in gb)

    def test_gradients_scale_linearly_with_the_residual(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, (3, 4, 1))
        x = rng.normal(0, 1, 3)
        out = forward(m, x)
        t1 = out - 0.8 * m.output_scale
        t2 = out - 1.6 * m.output_scale  # doubled residual in scaled space
        g1w, g1b = backprop_gradients(m, x, t1)
        g2w, g2b = backprop_gradients(m, x, t2)
        for a, b in zip(g1w + g1b, g2w + g2b):
            assert np.allclose(2.0 * a, b, rtol=0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, (3, 5, 4, 1))
        x = rng.normal(0, 1, 3)
        target = float(rng.normal())
        gw, gb = backprop_gradients(m, x, target)
        h = 1e-5
        for arrs, grads in ((m.weights, gw), (m.biases, gb)):
            for arr, grad in zip(arrs, grads):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    keep = arr[idx]
                    arr[idx] = keep + h
                    up = training_loss(m, x, target)
                    arr[idx] = keep - h
                    dn = training_loss(m, x, target)
                    arr[idx] = keep
                    fd = (up - dn) / (2 * h)
                    denom = max(abs(fd), abs(grad[idx]), 1e-8)
                    assert abs(fd - grad[idx]) / denom <= 1e-4

    def test_full_batch_is_the_mean_of_the_per_row_gradients(self):
        rng = np.random.default_rng(17)
        m = random_model(rng, (3, 5, 4, 1))
        x, y = rng.normal(0, 1, (6, 3)), rng.normal(0, 1, 6)
        stepped, _ = fit(
            m, x, y, eta=1.0, epochs=1, mode=TrainMode.FULL_BATCH_GD, fit_scalers=False
        )
        per_row = [gw + gb for gw, gb in (backprop_gradients(m, a, t) for a, t in zip(x, y))]
        params = zip(m.weights + m.biases, stepped.weights + stepped.biases)
        for k, (before, after) in enumerate(params):
            mean = np.mean([g[k] for g in per_row], axis=0)
            assert np.allclose(before - after, mean, rtol=0.0, atol=1e-12)

    def test_calls_return_arrays_that_share_no_memory(self):
        rng = np.random.default_rng(20)
        m = random_model(rng, (3, 5, 4, 1))
        x = rng.normal(0, 1, 3)
        first = sum(backprop_gradients(m, x, 0.5), [])
        second = sum(backprop_gradients(m, x, -0.5), [])
        params = m.weights + m.biases
        for a in first:
            assert not any(np.shares_memory(a, b) for b in second + params)
        assert not any(np.array_equal(a, b) for a, b in zip(first, second))


class TestFit:
    def test_zero_learning_rate_is_a_no_op(self):
        rng = np.random.default_rng(7)
        m = init_model((2, 3, 1), seed=9)
        x, y = rng.normal(0, 1, (6, 2)), rng.normal(0, 1, 6)
        trained, history = fit(m, x, y, eta=0.0, epochs=5)
        assert all(np.array_equal(a, b) for a, b in zip(trained.weights, m.weights))
        assert len(set(history)) == 1

    def test_zero_epochs_returns_history_free_copy(self):
        m = init_model((2, 3, 1), seed=9)
        trained, history = fit(m, np.zeros((3, 2)), np.asarray([1.0, 2.0, 3.0]), epochs=0)
        assert history == []
        assert all(np.array_equal(a, b) for a, b in zip(trained.weights, m.weights))

    def test_input_model_untouched(self):
        rng = np.random.default_rng(8)
        m = random_model(rng, (2, 3, 1))
        before = copy.deepcopy(m)
        trained, _ = fit(m, rng.normal(0, 1, (6, 2)), rng.normal(0, 1, 6), epochs=3)
        for a, b in zip(m.weights + m.biases, before.weights + before.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(m.input_shift, before.input_shift)
        assert np.array_equal(m.input_scale, before.input_scale)
        assert (m.output_shift, m.output_scale) == (before.output_shift, before.output_scale)
        for a in trained.weights + trained.biases:
            assert not any(np.shares_memory(a, b) for b in m.weights + m.biases)

    def test_scalers_fitted_from_training_data(self):
        rng = np.random.default_rng(9)
        x = rng.normal(3.0, 2.0, (20, 2))
        x[:, 1] = 7.0  # constant column keeps a unit scale
        y = rng.normal(10.0, 4.0, 20)
        trained, _ = fit(init_model((2, 3, 1), seed=1), x, y, epochs=1)
        assert np.allclose(trained.input_shift, x.mean(axis=0))
        assert np.isclose(trained.input_scale[0], x[:, 0].std())
        assert trained.input_scale[1] == 1.0
        assert np.isclose(trained.output_shift, y.mean())
        assert np.isclose(trained.output_scale, y.std())

    def test_full_batch_follows_the_analytic_iterate(self):
        # mirrored pair (1, 2), (-1, -2): the bias gradient cancels and
        # the single weight obeys theta_k - 2 = (1 - 2 eta)^k (theta_0 - 2)
        eta, epochs, theta0 = 0.1, 80, 0.0
        x = np.asarray([[1.0], [-1.0]])
        y = np.asarray([2.0, -2.0])
        trained, history = fit(
            linear_model(theta0), x, y, eta=eta, epochs=epochs,
            mode=TrainMode.FULL_BATCH_GD, fit_scalers=False,
        )
        for k in (0, 1, 2, 5, 10, 19):
            theta_k = 2.0 + (1.0 - 2.0 * eta) ** (k + 1) * (theta0 - 2.0)
            assert math.isclose(history[k], (theta_k - 2.0) ** 2, rel_tol=1e-10)
        assert abs(float(trained.weights[0][0, 0]) - 2.0) <= 1e-6
        assert trained.biases[0][0] == 0.0

    def test_full_batch_descends_at_a_small_enough_rate(self):
        rng = np.random.default_rng(10)
        x, y = rng.normal(0, 1, (12, 2)), rng.normal(0, 1, 12)
        eta = 0.2
        for _ in range(10):
            _, history = fit(
                init_model((2, 4, 1), seed=3), x, y, eta=eta, epochs=40,
                mode=TrainMode.FULL_BATCH_GD,
            )
            if all(b <= a + 1e-12 for a, b in zip(history, history[1:])):
                break
            eta *= 0.5
        else:
            pytest.fail("no learning rate in the halving ladder descended monotonically")

    def test_per_sample_epoch_is_sequential_single_row_steps(self):
        rng = np.random.default_rng(18)
        m = random_model(rng, (3, 5, 4, 1))
        x, y = rng.normal(0, 1, (7, 3)), rng.normal(0, 1, 7)
        eta, seed = 0.05, 19
        trained, _ = fit(m, x, y, eta=eta, epochs=1, seed=seed, fit_scalers=False)
        manual = copy.deepcopy(m)
        for i in np.random.default_rng((seed, 202)).permutation(y.size):
            gw, gb = backprop_gradients(manual, x[i], y[i])
            for p, g in zip(manual.weights + manual.biases, gw + gb):
                p -= eta * g
        for a, b in zip(trained.weights + trained.biases, manual.weights + manual.biases):
            assert np.array_equal(a, b)

    def test_full_batch_epoch_is_one_step_on_all_rows(self):
        rng = np.random.default_rng(21)
        m = random_model(rng, (3, 5, 4, 1))
        x, y = rng.normal(0, 1, (9, 3)), rng.normal(0, 1, 9)
        eta = 0.05
        trained, _ = fit(
            m, x, y, eta=eta, epochs=1, mode=TrainMode.FULL_BATCH_GD, fit_scalers=False
        )
        manual = copy.deepcopy(m)
        xs = (x - m.input_shift) / m.input_scale
        ys = (y - m.output_shift) / m.output_scale
        gw, gb = _gradients(manual, xs, ys)
        for p, g in zip(manual.weights + manual.biases, gw + gb):
            p -= eta * g
        for a, b in zip(trained.weights + trained.biases, manual.weights + manual.biases):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [23, 24])
    def test_per_sample_epochs_match_a_per_array_loop(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, (3, 16, 16, 1))
        x, y = rng.normal(0, 1, (7, 3)), rng.normal(0, 1, 7)
        eta, epochs = 0.05, 3
        trained, history = fit(m, x, y, eta=eta, epochs=epochs, seed=seed, fit_scalers=False)
        manual, manual_history = copy.deepcopy(m), []
        order = np.random.default_rng((seed, 202))
        for _ in range(epochs):
            for i in order.permutation(y.size):
                gw, gb = backprop_gradients(manual, x[i], y[i])
                for w, g in zip(manual.weights, gw):
                    w -= eta * g
                for b, g in zip(manual.biases, gb):
                    b -= eta * g
            manual_history.append(mse(predict_batch(manual, x), y))
        assert history == manual_history
        for a, b in zip(trained.weights + trained.biases, manual.weights + manual.biases):
            assert np.array_equal(a, b)

    def test_per_sample_shuffle_is_seeded(self):
        rng = np.random.default_rng(11)
        x, y = rng.normal(0, 1, (10, 2)), rng.normal(0, 1, 10)
        m = init_model((2, 4, 1), seed=5)
        a, ha = fit(m, x, y, epochs=3, seed=21)
        b, hb = fit(m, x, y, epochs=3, seed=21)
        c, hc = fit(m, x, y, epochs=3, seed=22)
        assert ha == hb
        assert all(np.array_equal(u, v) for u, v in zip(a.weights, b.weights))
        assert hc != ha

    def test_divergence_is_reported(self):
        rng = np.random.default_rng(12)
        x, y = rng.normal(0, 1, (8, 2)), rng.normal(0, 1, 8)
        with pytest.raises(DivergenceError):
            fit(init_model((2, 4, 1), seed=6), x, y, eta=1e6, epochs=50)

    def test_validation(self):
        m = init_model((2, 3, 1), seed=0)
        with pytest.raises(ValueError):
            fit(m, np.zeros((3, 5)), np.zeros(3))  # width mismatch
        with pytest.raises(ValueError):
            fit(m, np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            fit(m, np.zeros((3, 2)), np.zeros(3), eta=-0.1)
        with pytest.raises(ValueError):
            fit(m, np.zeros((3, 2)), np.zeros(3), epochs=-1)

    def test_target_rescaling_cancels_out(self):
        # scaling every target by c only rescales the output layer, so
        # predictions divided by c must agree to tight tolerance
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1, (12, 2))
        y = rng.uniform(3, 40, 12)
        c = 3.7
        kw = dict(eta=0.05, epochs=150, mode=TrainMode.FULL_BATCH_GD)
        m0 = init_model((2, 4, 1), seed=8)
        base, _ = fit(m0, x, y, **kw)
        scaled, _ = fit(m0, x, c * y, **kw)
        assert np.allclose(predict_batch(scaled, x) / c, predict_batch(base, x), atol=1e-9)


def labeled_dataset(system, n_train: int = 8, n_test: int = 4) -> Dataset:
    rng = np.random.default_rng(14)
    h = np.asarray([c.soft_threshold for c in system.components])
    rows = []
    for k in range(n_train + n_test):
        u = rng.uniform(0, 0.8, 3) * h
        rows.append(
            Scenario(
                scenario_id=k,
                u=tuple(float(v) for v in u),
                tau_star=float(4.0 + 0.1 * k),
                cost_rate_star=15.0,
                split="train" if k < n_train else "test",
            )
        )
    return Dataset(system_fingerprint(system), (0.1, 50.0), tuple(rows))


class TestTrain:
    def test_stamps_provenance(self, system):
        ds = labeled_dataset(system)
        model, history = train(init_model((3, 4, 1), seed=2), ds, system, epochs=20)
        assert model.system_fingerprint == system_fingerprint(system)
        assert model.dataset_fingerprint == ds.fingerprint
        assert model.clamp_bounds == ds.bounds
        assert model.metadata["train_rows"] == 8
        assert model.metadata["epochs"] == 20
        assert model.metadata["final_train_mse"] == history[-1]
        assert len(history) == 20

    def test_requires_a_training_split(self, system):
        bare = Dataset("", (0.1, 50.0), (Scenario(0, (0.0, 0.0, 0.0), 4.0, 15.0),))
        with pytest.raises(ValueError):
            train(init_model((3, 4, 1), seed=2), bare, system)

    def test_seeded(self, system):
        ds = labeled_dataset(system)
        a, _ = train(init_model((3, 4, 1), seed=2), ds, system, epochs=15, seed=3)
        b, _ = train(init_model((3, 4, 1), seed=2), ds, system, epochs=15, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))


class TestPredictNextInspection:
    def test_clamped_to_bounds(self, system):
        ds = labeled_dataset(system)
        model, _ = train(init_model((3, 4, 1), seed=2), ds, system, epochs=5)
        for w in model.weights:
            w[:] = 0.0
        model.biases[-1][:] = [-1e6]
        assert predict_next_inspection(model, system, None) == 0.1
        # a prediction leaves the arrays read-only, so the new bias is assigned
        model.biases = [*model.biases[:-1], np.asarray([1e6])]
        assert predict_next_inspection(model, system, None) == 50.0

    def test_rejects_a_different_system(self, system):
        ds = labeled_dataset(system)
        model, _ = train(init_model((3, 4, 1), seed=2), ds, system, epochs=5)
        other = replace(system, shock_rate=system.shock_rate * 3)
        with pytest.raises(ValueError):
            predict_next_inspection(model, other, None)

    def test_cached_fingerprint_still_tells_systems_apart(self, system):
        ds = labeled_dataset(system)
        model, _ = train(init_model((3, 4, 1), seed=2), ds, system, epochs=5)
        first = predict_next_inspection(model, system, None)
        c = system.components[0]
        other = replace(system, components=(replace(c, gamma_rate=c.gamma_rate * 1.01),)
                        + system.components[1:])
        with pytest.raises(ValueError):
            predict_next_inspection(model, other, None)
        assert predict_next_inspection(model, system, None) == first

    def test_matches_the_batch_path_on_states(self, system):
        rng = np.random.default_rng(4)
        h = np.asarray([c.soft_threshold for c in system.components])
        for _ in range(5):
            m = random_model(rng, (3, 16, 16, 1))
            u = rng.uniform(0.0, 0.8 * h, (20, 3))
            for row, v in zip(u, predict_batch(m, u / h)):
                assert abs(predict_next_inspection(m, system, row) / v - 1.0) <= 1e-12

    def test_none_means_new_parts(self, system):
        m = random_model(np.random.default_rng(6), (3, 16, 16, 1))
        assert predict_next_inspection(m, system, None) == predict_next_inspection(m, system, np.zeros(3))

    @pytest.mark.parametrize("u, message", [
        ([1.0, float("nan"), 2.0], "degradation levels must be finite and >= 0"),
        ([1.0, float("inf"), 2.0], "degradation levels must be finite and >= 0"),
        (np.asarray([1.0, -0.5, 2.0]), "degradation levels must be finite and >= 0"),
        ([1.0, 2.0], "state has 2 levels, system has 3 components"),
        (np.zeros((1, 3)), "state has 3 levels, system has 3 components"),
    ])
    def test_bad_levels_raise_the_level_check_message(self, system, u, message):
        m = random_model(np.random.default_rng(6), (3, 16, 16, 1))
        with pytest.raises(ValueError, match=re.escape(message)):
            predict_next_inspection(m, system, u)

    def test_unstamped_model_predicts_raw(self, system):
        m = init_model((3, 4, 1), seed=2)
        for w in m.weights:
            w[:] = 0.0
        m.biases[-1][:] = [123.0]
        assert predict_next_inspection(m, system, None) == 123.0

    @staticmethod
    def _assert_predicts_the_batch_path(m, system, u):
        h = np.asarray([c.soft_threshold for c in system.components])
        want = predict_batch(m, u / h)
        if m.clamp_bounds is not None:
            want = np.clip(want, *m.clamp_bounds)
        got = np.asarray([predict_next_inspection(m, system, row) for row in u])
        assert np.all(np.abs(got / want - 1.0) <= 1e-12)
        return got

    @pytest.mark.parametrize("edit", [
        lambda m, ds, s: setattr(m, "input_shift", m.input_shift + 0.3),
        lambda m, ds, s: setattr(m, "output_scale", 2.0 * m.output_scale),
        lambda m, ds, s: setattr(m, "clamp_bounds", (19.0, 21.0)),
        lambda m, ds, s: setattr(m, "weights", [1.5 * w for w in m.weights]),
        lambda m, ds, s: fit(m, [row.u for row in ds.rows("train")],
                             [row.tau_star for row in ds.rows("train")], epochs=3)[0],
        lambda m, ds, s: train(m, ds, s, epochs=3)[0],
    ], ids=["input_shift", "output_scale", "clamp_bounds", "weights", "fit", "train"])
    def test_a_prediction_after_an_edit_follows_the_edit(self, system, edit):
        m = random_model(np.random.default_rng(8), (3, 16, 16, 1))
        m.output_shift = 20.0  # away from 0, so that a relative gap means something
        m.system_fingerprint = system_fingerprint(system)
        u = np.random.default_rng(9).uniform(0.0, 16.0, (12, 3))
        before = self._assert_predicts_the_batch_path(m, system, u)
        edited = edit(m, labeled_dataset(system), system) or m
        assert not np.array_equal(self._assert_predicts_the_batch_path(edited, system, u), before)
        if edited is not m:  # fit and train leave their input as it was
            assert np.array_equal(self._assert_predicts_the_batch_path(m, system, u), before)

    @pytest.mark.parametrize("field", ["weights", "biases"])
    def test_a_prediction_leaves_the_arrays_read_only(self, system, field):
        m = random_model(np.random.default_rng(8), (3, 16, 16, 1))
        first = predict_next_inspection(m, system, None)
        for a in getattr(m, field):
            with pytest.raises(ValueError, match="read-only"):
                a[0] += 1.0
        with pytest.raises(TypeError):
            getattr(m, field)[0] = np.zeros_like(getattr(m, field)[0])
        assert predict_next_inspection(m, system, None) == first

    def test_an_equal_system_object_is_accepted(self, system):
        ds = labeled_dataset(system)
        model, _ = train(init_model((3, 4, 1), seed=2), ds, system, epochs=5)
        u = [4.0, 6.0, 7.0]
        first = predict_next_inspection(model, system, u)
        twin = replace(system)
        assert twin == system and twin is not system
        assert predict_next_inspection(model, twin, u) == first
        assert predict_next_inspection(model, system, u) == first

    def test_an_unstamped_model_takes_each_systems_thresholds(self, system):
        m = random_model(np.random.default_rng(10), (3, 16, 16, 1))
        m.output_shift = 20.0
        c = system.components[0]
        wider = replace(system, components=(replace(c, soft_threshold=2.0 * c.soft_threshold),)
                        + system.components[1:])
        u = np.random.default_rng(11).uniform(0.0, 16.0, (6, 3))
        for s in (system, wider, system, wider):
            self._assert_predicts_the_batch_path(m, s, u)
        assert predict_next_inspection(m, wider, u[0]) != predict_next_inspection(m, system, u[0])

    def test_an_unstamped_model_of_another_width_is_refused(self, system):
        with pytest.raises(ValueError, match="model takes 2 inputs, system has 3 components"):
            predict_next_inspection(init_model((2, 4, 1), seed=2), system, None)


class TestPersistence:
    def test_round_trip_is_bit_exact(self, system, tmp_path):
        ds = labeled_dataset(system)
        model, _ = train(init_model((3, 4, 1), seed=2), ds, system, epochs=10)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.layer_sizes == model.layer_sizes
        assert back.feature_mode == model.feature_mode
        assert back.clamp_bounds == model.clamp_bounds
        assert back.system_fingerprint == model.system_fingerprint
        assert back.metadata == model.metadata
        for a, b in zip(back.weights + back.biases, model.weights + model.biases):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert np.array_equal(back.input_shift, model.input_shift)
        assert np.array_equal(back.input_scale, model.input_scale)
        assert (back.output_shift, back.output_scale) == (model.output_shift, model.output_scale)
        rng = np.random.default_rng(15)
        x = rng.uniform(0, 1, (20, 3))
        assert np.array_equal(predict_batch(back, x), predict_batch(model, x))
        again = tmp_path / "again.json"
        save_model(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_a_model_that_predicted_round_trips_bit_identically(self, system, tmp_path):
        ds = labeled_dataset(system)
        model, _ = train(init_model((3, 4, 1), seed=2), ds, system, epochs=10)
        fresh, path = tmp_path / "fresh.json", tmp_path / "model.json"
        save_model(model, fresh)
        states = [row.u for row in ds.scenarios]
        preds = [predict_next_inspection(model, system, u) for u in states]
        save_model(model, path)
        assert path.read_bytes() == fresh.read_bytes()
        keys = {"format_version", *(f.name for f in fields(MlpModel))}
        assert set(json.loads(path.read_text())) == keys
        back = load_model(path)
        assert [predict_next_inspection(back, system, u) for u in states] == preds

    def test_save_is_byte_stable(self, system, tmp_path):
        ds = labeled_dataset(system)
        model, _ = train(init_model((3, 4, 1), seed=2), ds, system, epochs=5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_leaves_the_previous_file(self, system, tmp_path, monkeypatch):
        ds = labeled_dataset(system)
        model, _ = train(init_model((3, 4, 1), seed=2), ds, system, epochs=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        before = path.read_bytes()

        def broken_dump(doc, fh, **kw):
            fh.write('{"format_version": 1,')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", broken_dump)
        with pytest.raises(OSError):
            save_model(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_version_gate(self, system, tmp_path):
        ds = labeled_dataset(system)
        model, _ = train(init_model((3, 4, 1), seed=2), ds, system, epochs=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model(path)
