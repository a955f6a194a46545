"""Single-layer LSTM regressor with a linear head, trained by BPTT.

Everything is hand-rolled numpy: gate forward passes, backpropagation through
time, global-norm gradient clipping, and plain SGD over chronological
mini-batches. Inputs are min-max scaled to [0, 1] with statistics fitted on
the training split only; the target (next-day price) shares the price
column's scaling so predictions invert back to dollars.

Training and prediction share one forward pass, `_forward`, over a strided
(batch, steps, features) view of the scaled rows (`_windows`); it checks
its windows once on entry, so `cell_forward` is bare gate arithmetic.

The weights are gate-major (`LstmWeights`): each of W, U and b stacks the
four gates on a leading axis, the standard LSTM layout (Appleyard, Kocisky
and Blunsom, "Optimizing Performance of Recurrent Neural Networks on GPUs",
2016), so a time step makes a handful of numpy calls instead of one per gate
and parameter. The stacking is a batch axis, not one wide product: numpy
still issues one BLAS call per gate, of the same shape, so each product is
the same floats as the per-gate formula and, for a training batch, stays
below OpenBLAS's threading threshold. Every sum runs in the per-gate order,
which keeps the models byte-identical to the per-gate reference in the
tests.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import DataInsufficientError, ValidationError
from .indicators import FeatureMatrix
from .ingest import json_array, json_fields, json_value, output_file, read_json_object
from .params import TrainConfig

LSTM_SCHEMA = "lstm-model/2"

@dataclass
class LstmWeights:
    """Gate weights (forget/input/output/cell candidate) plus the linear head.

    Gate-major: the four gates are stacked on a leading axis in the order
    f, i, o, c. W is (4, hidden, input), U is (4, hidden, hidden) and b is
    (4, hidden), so one batched product per step covers every gate, one
    in-place sigmoid covers the first three blocks and one tanh the last.
    V is (hidden,) and c is a (1,) array so all parameters update uniformly.

    The stacks are a layout, not a change of model: items(), and so the init
    draws, the clip's sum of squares and the model file, stay per parameter.
    The same class holds the gradients that bptt_gradients returns.
    """

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray
    V: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, input_dim: int, hidden_size: int) -> "LstmWeights":
        h, d = hidden_size, input_dim
        return cls(W=np.zeros((4, h, d)), U=np.zeros((4, h, h)), b=np.zeros((4, h)), V=np.zeros(h), c=np.zeros(1))

    @property
    def hidden_size(self) -> int:
        return self.W.shape[1]

    @property
    def input_dim(self) -> int:
        return self.W.shape[2]

    def items(self):
        """(name, view) per parameter: W_g, U_g and b_g of each gate g in the
        order f, i, c, o, then V and c. The init draws, the clip's sum of
        squares and the model file's keys follow this order."""
        for g in "fico":
            for stack in "WUb":
                yield f"{stack}_{g}", getattr(self, stack)["fioc".index(g)]
        yield "V", self.V
        yield "c", self.c


PARAM_NAMES = tuple(name for name, _ in LstmWeights.zeros(1, 1).items())


def init_weights(input_dim: int, hidden_size: int, seed: int) -> LstmWeights:
    """Uniform init on [-1/sqrt(h), 1/sqrt(h)], drawn in a fixed parameter order."""
    if input_dim < 1 or hidden_size < 1:
        raise ValidationError("input_dim and hidden_size must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC311)))
    k = 1.0 / np.sqrt(hidden_size)
    w = LstmWeights.zeros(input_dim, hidden_size)
    for _, arr in w.items():
        arr[...] = rng.uniform(-k, k, size=arr.shape)
    return w


def _sigmoid_in_place(z: np.ndarray) -> None:
    """z = 1 / (1 + exp(-z)), the same four operations as the plain formula."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)


def cell_forward(
    x_t: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    w: LstmWeights,
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """One LSTM step over a batch: rows of x_t are samples. No checks here:
    `_forward` checks the whole window stack before its first step.

    Each gate's pre-activation is (x_t W_g^T + h_prev U_g^T) + b_g, summed in
    that order. The stacked products are batched over the gate axis, so
    numpy makes one BLAS call per gate, each the size of a single gate's
    product; at a training batch's size OpenBLAS keeps it on one thread.

    Returns (h_t, c_t, cache); the cache carries everything the backward
    pass needs, the activated gates as one (4, m, h) stack.
    """
    g = x_t @ w.W.transpose(0, 2, 1)
    g += h_prev @ w.U.transpose(0, 2, 1)
    g += w.b[:, None]
    _sigmoid_in_place(g[:3])
    np.tanh(g[3], out=g[3])
    f, i, o, c_hat = g
    c_t = f * c_prev + i * c_hat
    tanh_c = np.tanh(c_t)
    h_t = o * tanh_c
    return h_t, c_t, (x_t, h_prev, c_prev, g, tanh_c)


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
        del cache  # or it holds this step's gates while the next step makes its own
    return h @ w.V + w.c[0]


def bptt_gradients(
    windows: np.ndarray,
    targets: np.ndarray,
    w: LstmWeights,
) -> tuple[LstmWeights, float]:
    """Analytic gradients of the batch mean squared error, plus the loss.

    windows is (m, T, d), checked by `_forward`, and targets is (m,).
    Gradients come back unclipped, as an LstmWeights of the weights' shapes.
    Each step fills one (4, m, h) stack of pre-activation gradients, each
    gate's from the same expression as the per-gate formula, and its
    products are batched over the gate axis.
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

    dpred = (2.0 / len(err)) * err  # (m,)
    *_, last_gates, last_tanh_c = caches[-1]
    grads = LstmWeights(
        W=np.zeros_like(w.W),
        U=np.zeros_like(w.U),
        b=np.zeros_like(w.b),
        V=dpred @ (last_gates[2] * last_tanh_c),  # the last step's h
        c=np.array([float(np.sum(dpred))]),
    )

    dh = np.outer(dpred, w.V)  # (m, hidden)
    dc = np.zeros_like(dh)
    D = np.empty_like(last_gates)  # the pre-activation gradients, gates f, i, o, c
    Dt = D.transpose(0, 2, 1)
    for x_t, h_prev, c_prev, g, tanh_c in reversed(caches):
        f, i, o, c_hat = g
        dc = dc + dh * o * (1.0 - tanh_c**2)
        # a sigmoid gate's is (upstream * s) * (1 - s), where the upstream
        # factors of f, i and o are dc * c_prev, dc * c_hat and dh * tanh_c
        np.multiply(dc, c_prev, out=D[0])
        np.multiply(dc, c_hat, out=D[1])
        np.multiply(dh, tanh_c, out=D[2])
        D[:3] *= g[:3]
        D[:3] *= 1.0 - g[:3]
        np.multiply(dc * i, 1.0 - c_hat**2, out=D[3])
        grads.W += Dt @ x_t
        grads.U += Dt @ h_prev
        grads.b += D.sum(axis=1)
        P = D @ w.U
        dh = P[0] + P[1] + P[3] + P[2]  # f + i + c + o: float addition is not associative
        dc = dc * f
    return grads, loss


def clip_gradients(grads: LstmWeights, max_norm: float) -> tuple[LstmWeights, float]:
    """Scale all gradients in place by max_norm/norm when the global norm
    exceeds it; returns (grads, norm). The squares are summed one parameter
    at a time, in items() order: a sum over a whole gate stack would round
    differently."""
    if max_norm <= 0:
        raise ValidationError(f"max_norm must be > 0, got {max_norm}")
    total = 0.0
    for _, g in grads.items():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for _, g in grads.items():
            g *= scale
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


def _apply_sgd(w: LstmWeights, grads: LstmWeights, lr: float) -> None:
    """One SGD step in place, a whole stack (W, U, b, V, c) at a time."""
    for stack in fields(LstmWeights):
        arr = getattr(w, stack.name)
        arr -= lr * getattr(grads, stack.name)


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


def predict_series(model: LstmModel, features: FeatureMatrix) -> np.ndarray:
    """The prediction from each T-row window of a feature matrix, in row order:
    entry i, from rows [i, i+T), forecasts row i+T-1's target day.

    The first T-1 rows seed windows only, so there are len(features)-T+1
    entries; a matrix shorter than T is a DataInsufficientError, as in fit_lstm.
    """
    T = model.config.window
    if len(features) < T:
        raise DataInsufficientError(f"need at least {T} feature rows, got {len(features)}")
    return _predict_rows(model, features.input_array())


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
        w = LstmWeights.zeros(width, config.hidden_size)
        for name, view in w.items():
            array = json_array(weights_doc, name, float, ndim=view.ndim)
            if array.shape != view.shape:
                raise ValidationError(f"weight {name!r} has shape {array.shape}, expected {view.shape}")
            view[...] = array
        scaler_doc = json_value(doc, "scaler", dict)
        mins, maxs = (json_array(scaler_doc, key, float) for key in ("mins", "maxs"))
        if mins.shape != (width,) or maxs.shape != (width,):
            raise ValidationError(f"scaler bounds must have {width} entries")
        loss_trace = json_array(doc, "loss_trace", float).tolist()
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return LstmModel(
        weights=w,
        scaler=MinMaxScaler(mins=mins, maxs=maxs),
        config=config,
        loss_trace=loss_trace,
    )
