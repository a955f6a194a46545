"""LSTM cell math, gradients vs finite differences, scaling, determinism."""
import json
import math
import tracemalloc
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from surplusminer.errors import DataInsufficientError, ValidationError
from surplusminer.indicators import FEATURE_NAMES, build_features
from surplusminer.ingest import parse_market_csv
from surplusminer.lstm import (
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
    input_array,
    load_lstm,
    predict_series,
    predict_window,
    save_lstm,
)

from conftest import DATA_DIR, make_series
from oracles import LSTM_NAMES, oracle_fit_lstm, oracle_lstm_gradients


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
    inputs = input_array(matrix)[:, columns] if columns else input_array(matrix)
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
        dict(w.items())["b_f"][...] = 50.0  # forget gate saturates at 1
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
        params, grads = dict(w.items()), dict(grads.items())
        for name in params:
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
        rows = input_array(matrix)[:8]
        rows[3, -1] = math.nan  # the price column, which is not constant
        with pytest.raises(ValidationError, match="non-finite"):
            predict_window(model, rows)

    def test_wrong_width_window_rejected(self):
        w = init_weights(2, 3, seed=1)
        with pytest.raises(ValidationError, match=r"windows must be \(batch, steps, 2\), got \(2, 4, 3\)"):
            bptt_gradients(np.zeros((2, 4, 3)), np.zeros(2), w)


class TestClipping:
    def test_large_gradients_scaled_to_norm(self):
        grads = LstmWeights.zeros(2, 1)
        grads.W[0, 0] = [3.0, 4.0]
        clipped, raw_norm = clip_gradients(grads, 1.0)
        assert raw_norm == pytest.approx(5.0, rel=1e-12)
        norm = math.sqrt(sum(float(np.sum(g * g)) for _, g in clipped.items()))
        assert norm == pytest.approx(1.0, rel=1e-12)
        # direction preserved
        assert clipped.W[0, 0, 0] / clipped.W[0, 0, 1] == pytest.approx(0.75, rel=1e-12)

    def test_small_gradients_untouched(self):
        grads = LstmWeights.zeros(2, 1)
        grads.W[0, 0] = [0.3, 0.4]
        before = {name: g.copy() for name, g in grads.items()}
        clipped, raw_norm = clip_gradients(grads, 1.0)
        assert raw_norm == pytest.approx(0.5, rel=1e-12)
        assert all(np.array_equal(g, before[name]) for name, g in clipped.items())


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

    def test_input_array_puts_the_price_last(self):
        """The indicators, then the same-day price: the column whose scaling
        the target takes."""
        rows = build_features(make_series(sine_prices(30)))
        inputs = input_array(rows)
        assert inputs.shape == (len(rows), len(FEATURE_NAMES) + 1)
        assert list(inputs[:, -1]) == [r.price for r in rows]


class TestInit:
    def test_bounds_and_shapes(self):
        d, h = 7, 16
        w = init_weights(d, h, seed=9)
        k = 1.0 / math.sqrt(h)
        for name, arr in w.items():
            assert np.all(np.abs(arr) <= k), name
        params = dict(w.items())
        assert params["W_f"].shape == (h, d)
        assert params["U_o"].shape == (h, h)
        assert params["b_i"].shape == (h,)
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
        assert not np.array_equal(dict(a.items())["W_f"], dict(other.items())["W_f"])


class TestTraining:
    def test_loss_declines_on_sine(self):
        matrix = build_features(make_series(sine_prices(120)))
        config = TrainConfig(epochs=4, window=10, hidden_size=8, seed=0)
        model = fit_lstm(matrix, config)
        assert len(model.loss_trace) == 4
        assert model.loss_trace[-1] < model.loss_trace[0]

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
        x = input_array(matrix)[:8]
        assert predict_window(model, x) != predict_window(model_flipped, x)

    def test_first_adam_step_moves_each_weight_by_the_step_size(self):
        """From zero moments, a bias-corrected Adam step is lr * g / (|g| + eps):
        at most lr for every weight, and lr * sign(g) to within eps / |g| where
        |g| > 1e-4. Without the bias correction it would be about 3.16 lr
        (0.1 / sqrt(0.001)), which an oracle written alike could share. One
        batch holds every window, so the fit takes one step from the initial
        weights along their clipped gradients."""
        matrix = build_features(make_series(sine_prices(60)))
        config = TrainConfig(epochs=1, window=8, hidden_size=4, batch_size=1000, seed=5)
        model = fit_lstm(matrix, config)
        scaled = model.scaler.transform(input_array(matrix))
        windows = np.lib.stride_tricks.sliding_window_view(scaled, 8, axis=0).transpose(0, 2, 1)
        targets = model.scaler.transform_target([r.target_price for r in matrix])[7:]
        start = init_weights(len(FEATURE_NAMES) + 1, 4, seed=5)
        grads, _ = clip_gradients(bptt_gradients(windows, targets, start)[0], config.clip_norm)
        lr, large_count = config.learning_rate, 0
        for (name, before), (_, after), (_, g) in zip(start.items(), model.weights.items(), grads.items()):
            moved = before - after
            assert np.all(np.abs(moved) <= lr * (1 + 1e-12)), name
            large = np.abs(g) > 1e-4
            assert moved[large] == pytest.approx(lr * np.sign(g[large]), rel=1e-4), name
            large_count += int(large.sum())
        assert large_count > 50

    def test_scaler_fitted_on_training_matrix(self):
        matrix = build_features(make_series(sine_prices(80)))
        config = TrainConfig(epochs=1, window=8, hidden_size=4, seed=1)
        model = fit_lstm(matrix, config)
        inputs = input_array(matrix)
        assert model.scaler.mins == pytest.approx(inputs.min(axis=0))
        assert model.scaler.maxs == pytest.approx(inputs.max(axis=0))


class TestPerGateOracle:
    """The package's LSTM against the per-gate reference in oracles.py, bit
    for bit: the same products in the same order must give the same floats,
    however the package lays out or batches its weights."""

    @pytest.mark.parametrize("d, h, T, m", [(7, 64, 14, 32), (7, 16, 14, 32), (3, 5, 4, 6), (2, 3, 1, 1)])
    def test_gradients_and_loss(self, d, h, T, m):
        rng = np.random.default_rng(18 + d)
        w = init_weights(d, h, seed=d)
        windows = rng.normal(0.0, 1.0, size=(m, T, d))
        targets = rng.normal(0.0, 1.0, size=m)
        grads, loss = bptt_gradients(windows, targets, w)
        want, want_loss = oracle_lstm_gradients(windows, targets, {n: a.copy() for n, a in w.items()})
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert tuple(name for name, _ in w.items()) == LSTM_NAMES
        for name, grad in grads.items():
            assert grad.tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("hidden, clip_norm", [(64, 1.0), (16, 1.0), (8, 0.05)])
    def test_two_epoch_fit_on_the_fixture(self, hidden, clip_norm):
        """Weights and loss trace of a 2-epoch fit on the fixture's features
        (700 windows, so the last batch holds 28); hidden size 64 is the
        shipped one, and the small clip_norm makes every step go through the
        scaling."""
        matrix = build_features(parse_market_csv(DATA_DIR / "market.csv"))
        config = TrainConfig(epochs=2, window=14, hidden_size=hidden, clip_norm=clip_norm, seed=42)
        model = fit_lstm(matrix, config)
        targets = np.array([r.target_price for r in matrix])
        want, trace = oracle_fit_lstm(
            input_array(matrix), targets, config.window, config.hidden_size, config.seed,
            config.epochs, config.batch_size, config.learning_rate, config.clip_norm,
        )
        for name, arr in model.weights.items():
            assert arr.tobytes() == want[name].tobytes(), name
        assert np.array(model.loss_trace).tobytes() == np.array(trace).tobytes()


class TestPrediction:
    def test_window_shape_contract(self):
        matrix = build_features(make_series(sine_prices(60)))
        config = TrainConfig(epochs=1, window=8, hidden_size=4, seed=2)
        model = fit_lstm(matrix, config)
        with pytest.raises(ValidationError, match="window"):
            predict_window(model, input_array(matrix)[:5])

    def test_series_keyed_by_next_day(self):
        start = date(2023, 1, 1)
        matrix = build_features(make_series(sine_prices(60), start=start))
        config = TrainConfig(epochs=1, window=8, hidden_size=4, seed=2)
        model = fit_lstm(matrix, config)
        preds = predict_series(model, matrix)
        assert len(preds) == len(matrix) - config.window + 1
        # entry i is the window of rows i..i+T-1, the forecast for the day after row i+T-1
        inputs = input_array(matrix)
        for i in (0, len(preds) - 1):
            want = predict_window(model, inputs[i : i + config.window])
            assert preds[i] == pytest.approx(want, rel=1e-12, abs=0.0), i

    def test_series_matches_per_window_reference(self):
        """The batched pass against one batch-of-one pass per day. Not
        bitwise: a matrix product over all windows may sum each dot product
        in a different order (blocked kernels) than a one-row product, so
        the last bit can differ; anything beyond rounding cannot pass."""
        T = 14
        matrix = build_features(make_series(sine_prices(300)))
        model = untrained_model(matrix, window=T, hidden=32)
        inputs = model.scaler.transform(input_array(matrix))
        want = [
            float(model.scaler.inverse_target(_forward(inputs[None, i : i + T], model.weights)[0]))
            for i in range(len(matrix) - T + 1)
        ]
        got = predict_series(model, matrix)
        assert got.shape == (len(want),)
        for i, value in enumerate(want):
            assert got[i] == pytest.approx(value, rel=1e-12, abs=0.0), i

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

        flat = [last_feature(row, 50.0) for row in matrix]
        model = untrained_model(flat, window=8, hidden=4)
        hostile = flat[:-1] + [last_feature(flat[-1], math.inf)]
        with pytest.raises(ValidationError, match="non-finite"):
            predict_series(model, hostile)

    def test_series_shorter_than_a_window(self):
        matrix = build_features(make_series(sine_prices(60)))
        model = untrained_model(matrix, window=8, hidden=4)
        short = matrix[:7]
        with pytest.raises(DataInsufficientError, match="need at least 8 feature rows, got 7"):
            predict_series(model, short)
        exact = matrix[:8]
        preds = predict_series(model, exact)
        assert preds.tolist() == [predict_window(model, input_array(exact))]

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
        x = input_array(matrix)[:8]
        assert predict_window(loaded, x) == predict_window(model, x)
        assert loaded.loss_trace == model.loss_trace

    def test_schema_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "not-a-model/0"}')
        with pytest.raises(ValidationError):
            load_lstm(path)


def _saved_model(tmp_path):
    """The file of a small model fitted on a sine series, and that series' features."""
    matrix = build_features(make_series(sine_prices(60)))
    path = tmp_path / "lstm_model.json"
    save_lstm(fit_lstm(matrix, TrainConfig(epochs=1, window=8, hidden_size=4, seed=4)), path)
    return path, matrix


def narrower_inputs(doc):
    """An LSTM model consistently one input column narrower than the features."""
    for name in ("W_f", "W_i", "W_c", "W_o"):
        doc["weights"][name] = [row[1:] for row in doc["weights"][name]]
    for key in ("mins", "maxs"):
        doc["scaler"][key] = doc["scaler"][key][1:]


class TestHostileModelFiles:
    """A damaged model file is a ValidationError naming the file, never
    another error: from load_lstm, or from predict_series when the model reads
    another width than the features have."""

    @staticmethod
    def _read_error(path, matrix) -> str:
        """The error of reading the model file at `path`: loading it, then
        predicting `matrix` from it (an error there prefixed with the file, as
        load_lstm prefixes its own)."""
        try:
            model = load_lstm(path)
        except ValidationError as exc:
            return str(exc)
        with pytest.raises(ValidationError) as info:
            predict_series(model, matrix)
        return f"{path}: {info.value}"

    def test_truncated_file(self, tmp_path):
        path, matrix = _saved_model(tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert "lstm_model.json: invalid JSON" in self._read_error(path, matrix)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda doc: doc["weights"].pop("U_o"), "missing key 'U_o'"),
            (narrower_inputs, "expected 6 input columns, got 7"),
            (lambda doc: doc["config"].update(window=2.5), "key 'config.window': expected int, got 2.5"),
            (lambda doc: doc["config"].pop("seed"), "missing key 'config.seed'"),
            (lambda doc: doc["config"].update(epoch=3), "unknown key 'config.epoch'"),
            (lambda doc: doc["scaler"].update(mins="0"), "key 'mins'"),
            (lambda doc: doc["weights"]["V"].pop(), "weight 'V' has shape"),
            (lambda doc: doc["weights"]["W_f"][0].__setitem__(0, True), "key 'W_f'"),
            (lambda doc: doc["weights"]["V"].__setitem__(0, float("nan")), "key 'V': numbers must be finite"),
            (lambda doc: doc["scaler"]["maxs"].__setitem__(0, float("inf")), "key 'maxs': numbers must be finite"),
        ],
        ids=[
            "missing-weight",
            "narrower-inputs",
            "mistyped-config-window",
            "missing-config-seed",
            "unknown-config-key",
            "mistyped-scaler-bounds",
            "misshapen-weight",
            "boolean-weight",
            "nan-weight",
            "infinite-scaler-bound",
        ],
    )
    def test_missing_or_mistyped_key(self, tmp_path, change, message):
        path, matrix = _saved_model(tmp_path)
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
        assert f"lstm_model.json: {message}" in self._read_error(path, matrix)


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
