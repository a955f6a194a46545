"""Regression error metrics and the evaluation report row."""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .ingest import write_output_csv


def _paired(actual: Sequence[float], predicted: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.ndim != 1 or p.ndim != 1:
        raise ValidationError("actual and predicted must be 1-d")
    if len(a) != len(p):
        raise ValidationError(f"length mismatch: {len(a)} actual vs {len(p)} predicted")
    if len(a) == 0:
        raise ValidationError("cannot compute a metric over zero points")
    if not (np.isfinite(a).all() and np.isfinite(p).all()):
        raise ValidationError("metric inputs must be finite")
    return a, p


def mse(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean squared error."""
    a, p = _paired(actual, predicted)
    return float(np.mean((a - p) ** 2))


def mae(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean absolute error."""
    a, p = _paired(actual, predicted)
    return float(np.mean(np.abs(a - p)))


def r2(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Coefficient of determination: 1 - SS_res / SS_tot.

    Undefined for a constant actual series (zero total variance) and for
    fewer than two points; both are errors.
    """
    a, p = _paired(actual, predicted)
    if len(a) < 2:
        raise ValidationError("r2 needs at least 2 points")
    ss_tot = float(np.sum((a - np.mean(a)) ** 2))
    if ss_tot == 0.0:
        raise ValidationError("r2 undefined: actual series is constant")
    ss_res = float(np.sum((a - p) ** 2))
    return 1.0 - ss_res / ss_tot


class EvalReport(NamedTuple):
    """One model/split evaluation row: an eval.csv row, its fields in column order."""

    model: str
    split: str
    n: int
    mae: float
    mse: float
    r2: float


def evaluate(model: str, split: str, actual: Sequence[float], predicted: Sequence[float]) -> EvalReport:
    a, p = _paired(actual, predicted)
    return EvalReport(
        model=model,
        split=split,
        n=len(a),
        mae=mae(a, p),
        mse=mse(a, p),
        r2=r2(a, p),
    )


def write_eval_csv(reports: Sequence[EvalReport], path, header_comment: str | None = None) -> None:
    """Write evaluation rows (model,split,n,mae,mse,r2)."""
    write_output_csv(path, EvalReport._fields, reports, header_comment)
