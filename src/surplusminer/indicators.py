"""Technical indicators over the daily price series, and the model feature matrix.

All indicators use trailing windows that include the current day. Outputs are
compact: element k of an indicator corresponds to the first input index at
which the window is complete, plus k. Arithmetic is deliberately plain
left-to-right Python (sum()/n and friends) so every value can be reproduced
exactly from the defining formula at any index.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from typing import TYPE_CHECKING, Sequence

from .errors import DataInsufficientError, ValidationError
from .ingest import MarketSeries, write_output_csv

if TYPE_CHECKING:
    import numpy as np

FEATURE_NAMES = ("sma14", "wma14", "momentum", "k_pct", "d_pct", "rsi")

# Indicator defaults: 14-day base window, 3-day smoothing of K%, 1-day momentum.
BASE_WINDOW = 14
D_WINDOW = 3
MOMENTUM_LAG = 1


def _check_window(n: int) -> None:
    if n < 1:
        raise ValidationError(f"window must be >= 1, got {n}")


def sma(prices: Sequence[float], n: int = BASE_WINDOW) -> list[float]:
    """Simple moving average: mean of the n prices ending at each index.

    Output element k covers input indices [k, k+n); a series shorter than n
    yields an empty list.
    """
    _check_window(n)
    ps = [float(p) for p in prices]
    return [sum(ps[t - n + 1 : t + 1]) / n for t in range(n - 1, len(ps))]


def wma(prices: Sequence[float], n: int = BASE_WINDOW) -> list[float]:
    """Weighted moving average with linear weights 1..n (newest weighted n)."""
    _check_window(n)
    ps = [float(p) for p in prices]
    weight_sum = n * (n + 1) // 2
    out = []
    for t in range(n - 1, len(ps)):
        acc = 0.0
        for i in range(1, n + 1):
            acc += i * ps[t - n + i]
        out.append(acc / weight_sum)
    return out


def momentum(prices: Sequence[float], n: int = MOMENTUM_LAG) -> list[float]:
    """Price change over n days: P_t - P_{t-n}."""
    _check_window(n)
    ps = [float(p) for p in prices]
    return [ps[t] - ps[t - n] for t in range(n, len(ps))]


def stoch_k(prices: Sequence[float], n: int = BASE_WINDOW) -> list[float]:
    """Stochastic %K: position of today's price within the trailing n-day range.

    100 * (P - L_n) / (H_n - L_n), with a flat window (H_n == L_n) defined
    as 50 (neutral).
    """
    _check_window(n)
    ps = [float(p) for p in prices]
    out = []
    for t in range(n - 1, len(ps)):
        window = ps[t - n + 1 : t + 1]
        hi, lo = max(window), min(window)
        if hi == lo:
            out.append(50.0)
        else:
            # ratio first: (P - L) / (H - L) <= 1 exactly, so the bound
            # 0 <= K <= 100 survives rounding
            out.append(100.0 * ((ps[t] - lo) / (hi - lo)))
    return out


def stoch_d(k_series: Sequence[float], m: int = D_WINDOW) -> list[float]:
    """Stochastic %D: m-day simple moving average of %K."""
    return sma(k_series, m)


def rsi(prices: Sequence[float], n: int = BASE_WINDOW) -> list[float]:
    """Relative strength index over the trailing n one-day changes.

    Average gain and average loss are simple means over the n changes ending
    at the current day. Both zero (flat window) is defined as 50; zero
    average loss with positive gains is 100.
    """
    _check_window(n)
    ps = [float(p) for p in prices]
    deltas = [ps[j] - ps[j - 1] for j in range(1, len(ps))]
    out = []
    for t in range(n, len(ps)):
        window = deltas[t - n : t]
        gains = [d for d in window if d > 0]
        losses = [-d for d in window if d < 0]
        avg_gain = sum(gains) / n
        avg_loss = sum(losses) / n
        if avg_loss == 0.0 and avg_gain == 0.0:
            out.append(50.0)
        elif avg_loss == 0.0:
            out.append(100.0)
        else:
            rs = avg_gain / avg_loss
            out.append(100.0 - 100.0 / (1.0 + rs))
    return out


@dataclass(frozen=True)
class FeatureRow:
    """One day's model inputs plus the next day's price as the target.

    `price` is the same-day close; it is not part of the tree-model feature
    set but the sequence model consumes it as a seventh input.
    """

    day: date
    sma14: float
    wma14: float
    momentum: float
    k_pct: float
    d_pct: float
    rsi: float
    price: float
    target_price: float

    @property
    def target_day(self) -> date:
        """The day whose price is this row's target, and so the day this row
        forecasts: the forecast for day d comes from the row dated d-1."""
        return self.day + timedelta(days=1)

    def features(self) -> tuple[float, ...]:
        return (self.sma14, self.wma14, self.momentum, self.k_pct, self.d_pct, self.rsi)


@dataclass
class FeatureMatrix:
    """Feature rows in date order, one per day with full indicator history."""

    rows: list[FeatureRow]

    def __post_init__(self) -> None:
        for prev, cur in zip(self.rows, self.rows[1:]):
            if cur.day <= prev.day:
                raise ValidationError(f"feature rows out of order at {cur.day.isoformat()}")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def feature_count(self) -> int:
        return len(FEATURE_NAMES)

    def feature_array(self) -> np.ndarray:
        """(n, 6) indicator matrix for the tree model."""
        import numpy as np  # here, so that features (no model) runs without numpy
        return np.array([r.features() for r in self.rows], dtype=float)

    def input_array(self) -> np.ndarray:
        """(n, 7) indicator matrix plus same-day price, for the sequence model."""
        import numpy as np
        return np.array([r.features() + (r.price,) for r in self.rows], dtype=float)

    def target_array(self) -> np.ndarray:
        import numpy as np
        return np.array([r.target_price for r in self.rows], dtype=float)

    def slice_dates(self, start: date, end: date) -> "FeatureMatrix":
        """Rows whose date falls in [start, end]."""
        return FeatureMatrix([r for r in self.rows if start <= r.day <= end])


def build_features(
    series: MarketSeries,
    n: int = BASE_WINDOW,
    d_window: int = D_WINDOW,
) -> FeatureMatrix:
    """Assemble the feature matrix from a cleaned (gap-free) market series.

    All indicators are aligned to start at the first day with a full n-day
    history (0-based index n, where the n one-day changes for RSI are first
    available); %D then needs d_window days of that aligned %K history. The
    first feature row therefore sits at 0-based index n + d_window - 1, and
    the final day is dropped because it has no next-day target.
    """
    prices = series.prices()
    dates = series.dates()
    first_row = n + d_window - 1
    if len(prices) < first_row + 2:
        raise DataInsufficientError(
            f"need at least {first_row + 2} days for one feature row, got {len(prices)}"
        )

    sma_vals = sma(prices, n)          # element k -> index n-1+k
    wma_vals = wma(prices, n)          # element k -> index n-1+k
    mom_vals = momentum(prices, MOMENTUM_LAG)  # element k -> index 1+k
    k_vals = stoch_k(prices, n)        # element k -> index n-1+k
    rsi_vals = rsi(prices, n)          # element k -> index n+k
    # %D over the %K series aligned to the n-day warm-up (first %K at index n).
    d_vals = stoch_d(k_vals[1:], d_window)  # element k -> index n+d_window-1+k

    rows = []
    for t in range(first_row, len(prices) - 1):
        rows.append(
            FeatureRow(
                day=dates[t],
                sma14=sma_vals[t - (n - 1)],
                wma14=wma_vals[t - (n - 1)],
                momentum=mom_vals[t - 1],
                k_pct=k_vals[t - (n - 1)],
                d_pct=d_vals[t - first_row],
                rsi=rsi_vals[t - n],
                price=prices[t],
                target_price=prices[t + 1],
            )
        )
    return FeatureMatrix(rows)


def write_features_csv(matrix: FeatureMatrix, path, header_comment: str | None = None) -> None:
    """Export the feature matrix (date,sma14,wma14,momentum,k_pct,d_pct,rsi,target)."""
    write_output_csv(
        path,
        ["date", *FEATURE_NAMES, "target"],
        (
            [r.day.isoformat(), *(repr(v) for v in r.features()), repr(r.target_price)]
            for r in matrix.rows
        ),
        header_comment,
    )
