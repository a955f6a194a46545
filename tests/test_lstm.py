"""LSTM cell math, gradients vs finite differences, scaling, determinism."""
import math
import tracemalloc
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from surplusminer.errors import DataInsufficientError, ValidationError
from surplusminer.indicators import FeatureMatrix, build_features
from surplusminer.lstm import (
    PARAM_NAMES,
    LstmModel,
    LstmWeights,
    MinMaxScaler,
    TrainConfig,
    _forward,
    bptt_gradients,
    cell_forward,
    clip_gradients,
    fit_lstm,
    init_weights,
    load_lstm,
    predict_series,
    predict_window,
    save_lstm,
)

from conftest import make_series


def sine_prices(n=200, base=30000.0, amp=2000.0):
    return [base + amp * math.sin(i / 7.0) for i in range(n)]


def zero_weights(input_dim, hidden):
    w = init_weights(input_dim, hidden, seed=0)
    for _, arr in w.items():
        arr[...] = 0.0
    return w


def untrained_model(matrix, window, hidden, columns=None):
    """A model with initial weights, scaled on `matrix` (or on its input
    `columns`): enough to predict with."""
    inputs = matrix.input_array()[:, columns] if columns else matrix.input_array()
    return LstmModel(
        weights=init_weights(inputs.shape[1], hidden, seed=8),
        scaler=MinMaxScaler.fit(inputs),
        config=TrainConfig(window=window, hidden_size=hidden),
    )


class TestCellForward:
    def test_zero_weights_closed_form(self):
        """All-zero weights: every gate is 0.5, candidate is 0, so
        C_t = 0.5 * C_prev and h_t = 0.5 * tanh(C_t)."""
        h, d, m = 3, 2, 4
        w = zero_weights(d, h)
        x = np.ones((m, d))
        h_prev = np.zeros((m, h))
        c_prev = np.full((m, h), 0.8)
        h_t, c_t, _ = cell_forward(x, h_prev, c_prev, w)
        assert c_t == pytest.approx(np.full((m, h), 0.4), abs=1e-15)
        assert h_t == pytest.approx(0.5 * np.tanh(0.4) * np.ones((m, h)), abs=1e-15)

    def test_forget_gate_bias_retains_memory(self):
        h, d = 2, 2
        w = zero_weights(d, h)
        w.b_f[...] = 50.0  # forget gate saturates at 1
        x = np.zeros((1, d))
        c_prev = np.array([[0.3, -0.7]])
        _, c_t, _ = cell_forward(x, np.zeros((1, h)), c_prev, w)
        assert c_t == pytest.approx(c_prev, rel=1e-12)

    def test_state_shapes(self):
        w = init_weights(4, 5, seed=2)
        h_t, c_t, cache = cell_forward(
            np.zeros((7, 4)), np.zeros((7, 5)), np.zeros((7, 5)), w
        )
        assert h_t.shape == (7, 5)
        assert c_t.shape == (7, 5)


class TestGradients:
    def finite_difference_check(self, d, h, T, m, seed, eps=1e-5, tol=1e-4):
        rng = np.random.default_rng(seed)
        w = init_weights(d, h, seed=seed)
        windows = rng.normal(0.0, 1.0, size=(m, T, d))
        targets = rng.normal(0.0, 1.0, size=m)
        grads, _ = bptt_gradients(windows, targets, w)
        params = dict(w.items())
        for name in PARAM_NAMES:
            arr = params[name]
            grad = np.atleast_1d(np.asarray(grads[name], dtype=float))
            flat_arr = arr.reshape(-1)
            flat_grad = grad.reshape(-1)
            for j in range(flat_arr.size):
                orig = flat_arr[j]
                flat_arr[j] = orig + eps
                _, loss_hi = bptt_gradients(windows, targets, w)
                flat_arr[j] = orig - eps
                _, loss_lo = bptt_gradients(windows, targets, w)
                flat_arr[j] = orig
                numeric = (loss_hi - loss_lo) / (2.0 * eps)
                denom = max(abs(numeric), abs(flat_grad[j]), 1e-8)
                assert abs(numeric - flat_grad[j]) / denom < tol, (
                    f"{name}[{j}]: analytic {flat_grad[j]!r} vs numeric {numeric!r}"
                )

    def test_against_finite_differences_small(self):
        self.finite_difference_check(d=2, h=2, T=3, m=2, seed=3)

    def test_loss_is_mean_squared_error(self):
        rng = np.random.default_rng(4)
        w = init_weights(2, 3, seed=4)
        windows = rng.normal(size=(5, 4, 2))
        targets = rng.normal(size=5)
        _, loss = bptt_gradients(windows, targets, w)
        preds = [float(_forward(win[None], w)[0]) for win in windows]
        want = sum((p - t) ** 2 for p, t in zip(preds, targets)) / 5.0
        assert loss == pytest.approx(want, rel=1e-12)


class TestInputChecks:
    """The forward pass checks its windows once on entry, for training and
    prediction alike; cell_forward itself checks nothing."""

    def test_non_finite_window_rejected(self):
        w = init_weights(2, 3, seed=1)
        windows = np.ones((2, 4, 2))
        windows[1, 2, 1] = math.inf
        with pytest.raises(ValidationError, match="non-finite"):
            bptt_gradients(windows, np.zeros(2), w)

        matrix = build_features(make_series(sine_prices(60)))
        model = untrained_model(matrix, window=8, hidden=4)
        rows = matrix.input_array()[:8]
        rows[3, -1] = math.nan  # the price column, which is not constant
        with pytest.raises(ValidationError, match="non-finite"):
            predict_window(model, rows)

    def test_wrong_width_window_rejected(self):
        w = init_weights(2, 3, seed=1)
        with pytest.raises(ValidationError, match=r"windows must be \(batch, steps, 2\), got \(2, 4, 3\)"):
            bptt_gradients(np.zeros((2, 4, 3)), np.zeros(2), w)

    def test_targets_must_match_the_batch(self):
        w = init_weights(2, 3, seed=1)
        with pytest.raises(ValidationError, match="does not match batch 2"):
            bptt_gradients(np.zeros((2, 4, 2)), np.zeros(3), w)


class TestClipping:
    def test_large_gradients_scaled_to_norm(self):
        grads = {"a": np.array([3.0, 4.0]), "b": np.array([0.0])}
        clipped, raw_norm = clip_gradients(grads, 1.0)
        assert raw_norm == pytest.approx(5.0, rel=1e-12)
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in clipped.values()))
        assert norm == pytest.approx(1.0, rel=1e-12)
        # direction preserved
        assert clipped["a"][0] / clipped["a"][1] == pytest.approx(0.75, rel=1e-12)

    def test_small_gradients_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        clipped, raw_norm = clip_gradients(grads, 1.0)
        assert raw_norm == pytest.approx(0.5, rel=1e-12)
        assert np.array_equal(clipped["a"], grads["a"])


class TestScaler:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(100.0, 50000.0, size=(40, 3))
        scaler = MinMaxScaler.fit(X)
        transformed = scaler.transform(X)
        assert transformed.min() >= 0.0
        assert transformed.max() <= 1.0
        values = X[:, -1]
        back = [scaler.inverse_target(v) for v in scaler.transform(X)[:, -1]]
        assert back == pytest.approx(list(values), rel=1e-9)

    def test_constant_column_maps_to_zero(self):
        X = np.column_stack([np.full(10, 5.0), np.arange(10.0)])
        scaler = MinMaxScaler.fit(X)
        assert np.all(scaler.transform(X)[:, 0] == 0.0)

    def test_stats_come_from_fit_data_only(self):
        train = np.array([[0.0, 10.0], [1.0, 20.0]])
        scaler = MinMaxScaler.fit(train)
        test = np.array([[2.0, 40.0]])
        out = scaler.transform(test)
        assert out[0, 0] == pytest.approx(2.0)  # beyond the fit range, not clipped
        assert out[0, 1] == pytest.approx(3.0)

    def test_target_scaling_uses_price_column(self):
        X = np.array([[1.0, 100.0], [2.0, 200.0]])
        scaler = MinMaxScaler.fit(X)
        assert scaler.transform_target(150.0) == pytest.approx(0.5)
        assert scaler.inverse_target(0.5) == pytest.approx(150.0)


class TestInit:
    def test_bounds_and_shapes(self):
        d, h = 7, 16
        w = init_weights(d, h, seed=9)
        k = 1.0 / math.sqrt(h)
        for name, arr in w.items():
            assert np.all(np.abs(arr) <= k), name
        assert w.W_f.shape == (h, d)
        assert w.U_o.shape == (h, h)
        assert w.b_i.shape == (h,)
        assert w.V.shape == (h,)
        assert w.c.shape == (1,)
        assert w.hidden_size == h
        assert w.input_dim == d

    def test_deterministic_per_seed(self):
        a = init_weights(3, 4, seed=5)
        b = init_weights(3, 4, seed=5)
        other = init_weights(3, 4, seed=6)
        for (_, x), (_, y) in zip(a.items(), b.items()):
            assert np.array_equal(x, y)
        assert not np.array_equal(a.W_f, other.W_f)


class TestTraining:
    def test_loss_declines_on_sine(self):
        matrix = build_features(make_series(sine_prices(120)))
        config = TrainConfig(epochs=4, window=10, hidden_size=8, seed=0)
        model = fit_lstm(matrix, config)
        assert len(model.loss_trace) == 4
        assert model.loss_trace[-1] < model.loss_trace[0]

    def test_too_few_rows_rejected(self):
        matrix = build_features(make_series(sine_prices(25)))
        config = TrainConfig(epochs=1, window=len(matrix) + 1, hidden_size=4)
        with pytest.raises(DataInsufficientError):
            fit_lstm(matrix, config)

    def test_deterministic_same_bytes(self, tmp_path):
        matrix = build_features(make_series(sine_prices(80)))
        config = TrainConfig(epochs=2, window=8, hidden_size=6, seed=3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_lstm(fit_lstm(matrix, config), a)
        save_lstm(fit_lstm(matrix, config), b)
        assert a.read_bytes() == b.read_bytes()

    def test_chronological_batching_is_load_bearing(self):
        """Training on a reversed row order must change the fit."""
        prices = sine_prices(80)
        matrix = build_features(make_series(prices))
        config = TrainConfig(epochs=2, window=8, hidden_size=6, seed=3)
        model = fit_lstm(matrix, config)

        flipped = build_features(make_series(list(reversed(prices))))
        model_flipped = fit_lstm(flipped, config)
        x = matrix.input_array()[:8]
        assert predict_window(model, x) != predict_window(model_flipped, x)

    def test_scaler_fitted_on_training_matrix(self):
        matrix = build_features(make_series(sine_prices(80)))
        config = TrainConfig(epochs=1, window=8, hidden_size=4, seed=1)
        model = fit_lstm(matrix, config)
        inputs = matrix.input_array()
        assert model.scaler.mins == pytest.approx(inputs.min(axis=0))
        assert model.scaler.maxs == pytest.approx(inputs.max(axis=0))


class TestPrediction:
    def test_window_shape_contract(self):
        matrix = build_features(make_series(sine_prices(60)))
        config = TrainConfig(epochs=1, window=8, hidden_size=4, seed=2)
        model = fit_lstm(matrix, config)
        with pytest.raises(ValidationError, match="window"):
            predict_window(model, matrix.input_array()[:5])

    def test_series_keyed_by_next_day(self):
        start = date(2023, 1, 1)
        matrix = build_features(make_series(sine_prices(60), start=start))
        config = TrainConfig(epochs=1, window=8, hidden_size=4, seed=2)
        model = fit_lstm(matrix, config)
        preds = predict_series(model, matrix)
        first_covered = matrix.rows[config.window - 1].day
        assert min(preds) == first_covered + timedelta(days=1)
        assert max(preds) == matrix.rows[-1].day + timedelta(days=1)
        assert len(preds) == len(matrix) - config.window + 1

    def test_series_matches_per_window_reference(self):
        """The batched pass against one batch-of-one pass per day. Not
        bitwise: a matrix product over all windows may sum each dot product
        in a different order (blocked kernels) than a one-row product, so
        the last bit can differ; anything beyond rounding cannot pass."""
        T = 14
        matrix = build_features(make_series(sine_prices(300)))
        model = untrained_model(matrix, window=T, hidden=32)
        inputs = model.scaler.transform(matrix.input_array())
        want = {
            matrix.rows[i + T - 1].day + timedelta(days=1): float(
                model.scaler.inverse_target(_forward(inputs[None, i : i + T], model.weights)[0])
            )
            for i in range(len(matrix) - T + 1)
        }
        got = predict_series(model, matrix)
        assert list(got) == list(want)
        for day, value in want.items():
            assert got[day] == pytest.approx(value, rel=1e-12, abs=0.0), day

    def test_series_checks_the_input_width(self):
        """A model one input column narrower than the matrix (six of its
        seven): a ValidationError, not a numpy broadcast error."""
        matrix = build_features(make_series(sine_prices(60)))
        model = untrained_model(matrix, window=8, hidden=4, columns=slice(1, None))
        with pytest.raises(ValidationError, match="expected 6 input columns, got 7"):
            predict_series(model, matrix)

    def test_series_rejects_inf_in_a_column_constant_in_training(self):
        """A column constant in training scales with span 1, so an inf in it
        stays inf and reaches the forward pass's finiteness check."""
        matrix = build_features(make_series(sine_prices(60)))
        def last_feature(row, value):  # the RSI column
            return replace(row, features=row.features[:-1] + (value,))

        flat = FeatureMatrix([last_feature(row, 50.0) for row in matrix.rows])
        model = untrained_model(flat, window=8, hidden=4)
        hostile = FeatureMatrix(flat.rows[:-1] + [last_feature(flat.rows[-1], math.inf)])
        with pytest.raises(ValidationError, match="non-finite"):
            predict_series(model, hostile)

    def test_series_shorter_than_a_window(self):
        matrix = build_features(make_series(sine_prices(60)))
        model = untrained_model(matrix, window=8, hidden=4)
        short = FeatureMatrix(matrix.rows[:7])
        assert predict_series(model, short) == {}
        exact = FeatureMatrix(matrix.rows[:8])
        preds = predict_series(model, exact)
        assert list(preds) == [exact.rows[-1].day + timedelta(days=1)]
        assert preds[exact.rows[-1].day + timedelta(days=1)] == predict_window(model, exact.input_array())

    def test_series_memory_does_not_grow_with_steps(self):
        """About 1,470 windows of 14 steps at hidden 64. Keeping every
        step's gate activations (14 x 8 arrays of 1,470 x 64 floats) would
        take ~83 MB; the forward pass keeps only h and c."""
        matrix = build_features(make_series(sine_prices(1500)))
        model = untrained_model(matrix, window=14, hidden=64)
        tracemalloc.start()
        try:
            preds = predict_series(model, matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(preds) >= 1400
        assert peak < 25e6

    def test_round_trip_predictions_bitwise(self, tmp_path):
        matrix = build_features(make_series(sine_prices(60)))
        config = TrainConfig(epochs=2, window=8, hidden_size=4, seed=4)
        model = fit_lstm(matrix, config)
        path = tmp_path / "m.json"
        save_lstm(model, path)
        loaded = load_lstm(path)
        x = matrix.input_array()[:8]
        assert predict_window(loaded, x) == predict_window(model, x)
        assert loaded.loss_trace == model.loss_trace

    def test_schema_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "not-a-model/0"}')
        with pytest.raises(ValidationError):
            load_lstm(path)


class TestConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"epochs": 0},
            {"window": 0},
            {"hidden_size": 0},
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"clip_norm": 0.0},
        ],
    )
    def test_bad_values(self, kw):
        with pytest.raises(ValidationError):
            TrainConfig(**kw)
