"""Single-layer LSTM regressor with a linear head, trained by BPTT.

Everything is hand-rolled numpy: gate forward passes, backpropagation through
time, global-norm gradient clipping, and plain SGD over chronological
mini-batches. Inputs are min-max scaled to [0, 1] with statistics fitted on
the training split only; the target (next-day price) shares the price
column's scaling so predictions invert back to dollars.

Training and prediction share one forward pass, `_forward`, over a strided
(batch, steps, features) view of the scaled rows (`_windows`); it checks
its windows once on entry, so `cell_forward` is bare gate arithmetic.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from datetime import date
from pathlib import Path

import numpy as np

from .errors import DataInsufficientError, ValidationError
from .indicators import FeatureMatrix
from .ingest import json_array, json_fields, json_value, output_file, read_json_object
from .params import TrainConfig

LSTM_SCHEMA = "lstm-model/2"

@dataclass
class LstmWeights:
    """Gate weights (forget/input/cell/output) plus the linear head.

    W_* are (hidden, input), U_* are (hidden, hidden), b_* are (hidden,);
    V is (hidden,) and c is a (1,) array so all parameters update uniformly.
    """

    W_f: np.ndarray
    U_f: np.ndarray
    b_f: np.ndarray
    W_i: np.ndarray
    U_i: np.ndarray
    b_i: np.ndarray
    W_c: np.ndarray
    U_c: np.ndarray
    b_c: np.ndarray
    W_o: np.ndarray
    U_o: np.ndarray
    b_o: np.ndarray
    V: np.ndarray
    c: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.W_f.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W_f.shape[1]

    def items(self):
        for name in PARAM_NAMES:
            yield name, getattr(self, name)


PARAM_NAMES = tuple(f.name for f in fields(LstmWeights))


def init_weights(input_dim: int, hidden_size: int, seed: int) -> LstmWeights:
    """Uniform init on [-1/sqrt(h), 1/sqrt(h)], drawn in a fixed parameter order."""
    if input_dim < 1 or hidden_size < 1:
        raise ValidationError("input_dim and hidden_size must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC311)))
    k = 1.0 / np.sqrt(hidden_size)
    shapes = _weight_shapes(input_dim, hidden_size)
    values = {name: rng.uniform(-k, k, size=shapes[name]) for name in PARAM_NAMES}
    return LstmWeights(**values)


def _weight_shapes(input_dim: int, hidden_size: int) -> dict[str, tuple[int, ...]]:
    return {
        **{f"W_{g}": (hidden_size, input_dim) for g in "fico"},
        **{f"U_{g}": (hidden_size, hidden_size) for g in "fico"},
        **{f"b_{g}": (hidden_size,) for g in "fico"},
        "V": (hidden_size,),
        "c": (1,),
    }


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def cell_forward(
    x_t: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    w: LstmWeights,
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """One LSTM step over a batch: rows of x_t are samples. No checks here:
    `_forward` checks the whole window stack before its first step.

    Returns (h_t, c_t, cache); the cache carries everything the backward
    pass needs.
    """
    f = _sigmoid(x_t @ w.W_f.T + h_prev @ w.U_f.T + w.b_f)
    i = _sigmoid(x_t @ w.W_i.T + h_prev @ w.U_i.T + w.b_i)
    c_hat = np.tanh(x_t @ w.W_c.T + h_prev @ w.U_c.T + w.b_c)
    c_t = f * c_prev + i * c_hat
    o = _sigmoid(x_t @ w.W_o.T + h_prev @ w.U_o.T + w.b_o)
    tanh_c = np.tanh(c_t)
    h_t = o * tanh_c
    cache = (x_t, h_prev, c_prev, f, i, c_hat, o, tanh_c)
    return h_t, c_t, cache


def _forward(windows: np.ndarray, w: LstmWeights, caches: list | None = None) -> np.ndarray:
    """Scaled predictions for a (m, T, d) stack of windows (a strided view is
    fine): T cell steps over all m windows at once. The one forward pass, for
    training and prediction alike; it checks the stack's shape and that every
    value is finite before the first step.

    With a `caches` list (bptt_gradients), each step's cache is appended to
    it; without one only h and c are kept, so memory does not grow with T.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 3 or windows.shape[1] < 1 or windows.shape[2] != w.input_dim:
        raise ValidationError(f"windows must be (batch, steps, {w.input_dim}), got {windows.shape}")
    if not np.all(np.isfinite(windows)):
        raise ValidationError("non-finite input window")
    m, T, _ = windows.shape
    h = c = np.zeros((m, w.hidden_size))  # cell_forward returns new arrays
    for t in range(T):
        h, c, cache = cell_forward(windows[:, t, :], h, c, w)
        if caches is not None:
            caches.append(cache)
    return h @ w.V + w.c[0]


def bptt_gradients(
    windows: np.ndarray,
    targets: np.ndarray,
    w: LstmWeights,
) -> tuple[dict[str, np.ndarray], float]:
    """Analytic gradients of the batch mean squared error, plus the loss.

    windows is (m, T, d), checked by `_forward`, and targets is (m,).
    Gradients come back keyed by parameter name, unclipped.
    """
    caches: list = []
    preds = _forward(windows, w, caches)
    targets = np.asarray(targets, dtype=float)
    if targets.shape != preds.shape:
        raise ValidationError(f"targets shape {targets.shape} does not match batch {preds.shape[0]}")
    err = preds - targets
    if not np.all(np.isfinite(err)):
        bad = int(np.argmax(~np.isfinite(err)))
        raise ValidationError(f"non-finite loss at window {bad}")
    loss = float(np.mean(err**2))

    grads = {name: np.zeros_like(arr) for name, arr in w.items()}
    dpred = (2.0 / len(err)) * err  # (m,)
    *_, o, tanh_c = caches[-1]
    grads["V"] = dpred @ (o * tanh_c)  # the last step's h
    grads["c"] = np.array([float(np.sum(dpred))])

    dh = np.outer(dpred, w.V)  # (m, hidden)
    dc = np.zeros_like(dh)
    for x_t, h_prev, c_prev, f, i, c_hat, o, tanh_c in reversed(caches):
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c**2)
        dpre_f = (dc * c_prev) * f * (1.0 - f)
        dpre_i = (dc * c_hat) * i * (1.0 - i)
        dpre_c = (dc * i) * (1.0 - c_hat**2)
        dpre_o = do * o * (1.0 - o)
        for g, dpre in zip("fico", (dpre_f, dpre_i, dpre_c, dpre_o)):
            grads[f"W_{g}"] += dpre.T @ x_t
            grads[f"U_{g}"] += dpre.T @ h_prev
            grads[f"b_{g}"] += dpre.sum(axis=0)
        dh = dpre_f @ w.U_f + dpre_i @ w.U_i + dpre_c @ w.U_c + dpre_o @ w.U_o
        dc = dc * f
    return grads, loss


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients by max_norm/norm when the global norm exceeds it."""
    if max_norm <= 0:
        raise ValidationError(f"max_norm must be > 0, got {max_norm}")
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        grads = {name: g * scale for name, g in grads.items()}
    return grads, norm


@dataclass
class MinMaxScaler:
    """Column-wise min-max map to [0, 1], fitted on the training split only.

    The target takes the last column's scaling: FeatureMatrix.input_array
    puts the same-day price last, and the target is a price too, so scaled
    predictions invert back to the original units. A column constant in
    training has span 1, so its training values map to 0 and a non-finite
    value stays non-finite, for the forward pass to reject.
    """

    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def fit(cls, values: np.ndarray) -> "MinMaxScaler":
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValidationError("scaler needs a non-empty (n, d) matrix")
        return cls(values.min(axis=0), values.max(axis=0))

    @property
    def spans(self) -> np.ndarray:
        span = self.maxs - self.mins
        return np.where(span > 0, span, 1.0)

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.mins) / self.spans

    def transform_target(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y, dtype=float) - self.mins[-1]) / self.spans[-1]

    def inverse_target(self, scaled: np.ndarray | float) -> np.ndarray | float:
        return scaled * self.spans[-1] + self.mins[-1]


@dataclass
class LstmModel:
    weights: LstmWeights
    scaler: MinMaxScaler
    config: TrainConfig
    loss_trace: list[float] = field(default_factory=list)


def _apply_sgd(w: LstmWeights, grads: dict[str, np.ndarray], lr: float) -> None:
    for name, arr in w.items():
        arr -= lr * grads[name]


def _windows(scaled: np.ndarray, T: int) -> np.ndarray:
    """Every T-row window of the (n, d) scaled rows, n >= T, as an (n-T+1, T, d)
    view of them (no copies): window i is rows [i, i+T)."""
    return np.lib.stride_tricks.sliding_window_view(scaled, T, axis=0).transpose(0, 2, 1)


def fit_lstm(features: FeatureMatrix, config: TrainConfig) -> LstmModel:
    """Train on sliding windows of the feature matrix (chronological batches).

    Window i covers rows [i, i+T) and its target is row i+T-1's next-day
    price. The loss trace records the mean squared training loss of each
    epoch (one entry per epoch).
    """
    inputs = features.input_array()
    targets = features.target_array()
    n = len(targets)
    T = config.window
    if n < T:
        raise DataInsufficientError(f"need at least {T} feature rows, got {n}")

    scaler = MinMaxScaler.fit(inputs)
    n_windows = n - T + 1
    windows = _windows(scaler.transform(inputs), T)
    window_targets = scaler.transform_target(targets)[T - 1 :]

    w = init_weights(inputs.shape[1], config.hidden_size, config.seed)
    trace: list[float] = []
    for _ in range(config.epochs):
        sse = 0.0
        for start in range(0, n_windows, config.batch_size):
            batch = windows[start : start + config.batch_size]
            batch_targets = window_targets[start : start + config.batch_size]
            grads, loss = bptt_gradients(batch, batch_targets, w)
            grads, _ = clip_gradients(grads, config.clip_norm)
            _apply_sgd(w, grads, config.learning_rate)
            sse += loss * len(batch_targets)
        trace.append(sse / n_windows)
    return LstmModel(weights=w, scaler=scaler, config=config, loss_trace=trace)


def _predict_rows(model: LstmModel, inputs: np.ndarray) -> np.ndarray:
    """Next-day prices for every T-row window of the (n, d) raw inputs, n >= T,
    in one batched forward pass. The width is checked before scaling, which
    would otherwise fail on it as a numpy broadcast error."""
    if inputs.shape[1] != model.weights.input_dim:
        raise ValidationError(f"expected {model.weights.input_dim} input columns, got {inputs.shape[1]}")
    windows = _windows(model.scaler.transform(inputs), model.config.window)
    return model.scaler.inverse_target(_forward(windows, model.weights))


def predict_window(model: LstmModel, window_rows: np.ndarray) -> float:
    """Next-day price (in original units) from one (T, d) window of raw inputs."""
    arr = np.asarray(window_rows, dtype=float)
    expected = (model.config.window, model.weights.input_dim)
    if arr.shape != expected:
        raise ValidationError(f"incomplete window: expected {expected}, got {arr.shape}")
    return float(_predict_rows(model, arr)[0])


def predict_series(model: LstmModel, features: FeatureMatrix) -> dict[date, float]:
    """Predictions keyed by the target day of each window's last row.

    The first T-1 rows seed windows only, so the earliest prediction is for
    row T-1's target day; a matrix shorter than T has none at all.
    """
    T = model.config.window
    if len(features) < T:
        return {}
    days = [row.target_day for row in features.rows[T - 1 :]]
    return dict(zip(days, _predict_rows(model, features.input_array()).tolist()))


def save_lstm(model: LstmModel, path: str | Path) -> None:
    """Write the model as versioned JSON: config, scaler bounds, matrices row-major."""
    doc = {
        "schema": LSTM_SCHEMA,
        "config": asdict(model.config),
        "scaler": {"mins": model.scaler.mins.tolist(), "maxs": model.scaler.maxs.tolist()},
        "weights": {name: arr.tolist() for name, arr in model.weights.items()},
        "loss_trace": model.loss_trace,
    }
    with output_file(path) as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_lstm(path: str | Path) -> LstmModel:
    """Read a model written by save_lstm. A file that is not one (bad JSON, a
    missing or mistyped key, an array of the wrong shape) is a
    ValidationError naming the file."""
    doc = read_json_object(path)
    try:
        schema = doc.get("schema")
        if schema != LSTM_SCHEMA:
            raise ValidationError(f"unsupported model schema {schema!r}")
        config = json_fields(doc, "config", TrainConfig)
        weights_doc = json_value(doc, "weights", dict)
        width = json_array(weights_doc, "W_f", float, ndim=2).shape[1]  # the input columns
        weights = {}
        for name, shape in _weight_shapes(width, config.hidden_size).items():
            weights[name] = json_array(weights_doc, name, float, ndim=len(shape))
            if weights[name].shape != shape:
                raise ValidationError(f"weight {name!r} has shape {weights[name].shape}, expected {shape}")
        scaler_doc = json_value(doc, "scaler", dict)
        mins, maxs = (json_array(scaler_doc, key, float) for key in ("mins", "maxs"))
        if mins.shape != (width,) or maxs.shape != (width,):
            raise ValidationError(f"scaler bounds must have {width} entries")
        loss_trace = json_array(doc, "loss_trace", float).tolist()
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return LstmModel(
        weights=LstmWeights(**weights),
        scaler=MinMaxScaler(mins=mins, maxs=maxs),
        config=config,
        loss_trace=loss_trace,
    )
