"""Technical indicators over the daily price series, and the model feature matrix.

Day t's six features are one function of the prices ending on t:
`feature_values` reads the last FEATURE_WINDOW (16) of them, days t-15..t.
Each indicator below is a function of one window and takes the window's
length from the slice it is given. Arithmetic is deliberately plain
left-to-right Python (sum()/n and friends) so every value can be reproduced
exactly from the defining formula.
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

# 14-day base window; %D smooths the %K of the last 3 days, so day t's
# features read the prices of days t-15..t.
BASE_WINDOW = 14
D_WINDOW = 3
FEATURE_WINDOW = BASE_WINDOW + D_WINDOW - 1


def mean(window: Sequence[float]) -> float:
    """Simple moving average of the window (and %D, of the last three %K)."""
    return sum(window) / len(window)


def weighted_mean(window: Sequence[float]) -> float:
    """Mean with linear weights 1..n, the newest price weighted n."""
    acc = 0.0
    for i, p in enumerate(window, start=1):
        acc += i * p
    n = len(window)
    return acc / (n * (n + 1) // 2)


def stoch_k(window: Sequence[float]) -> float:
    """Stochastic %K: position of the last price within the window's range.

    100 * (P - L) / (H - L), with a flat window (H == L) defined as 50
    (neutral).
    """
    hi, lo = max(window), min(window)
    if hi == lo:
        return 50.0
    # ratio first: (P - L) / (H - L) <= 1 exactly, so the bound
    # 0 <= K <= 100 survives rounding
    return 100.0 * ((window[-1] - lo) / (hi - lo))


def rsi(window: Sequence[float]) -> float:
    """Relative strength index over the n one-day changes of n+1 prices.

    Average gain and average loss are simple means over the n changes. Both
    zero (flat window) is defined as 50; zero average loss with positive
    gains is 100.
    """
    gain = loss = 0.0
    for prev, cur in zip(window, window[1:]):
        d = cur - prev
        if d > 0:
            gain += d
        elif d < 0:
            loss -= d
    n = len(window) - 1
    avg_gain = gain / n
    avg_loss = loss / n
    if avg_loss == 0.0 and avg_gain == 0.0:
        return 50.0
    if avg_loss == 0.0:
        return 100.0
    rs = avg_gain / avg_loss
    return 100.0 - 100.0 / (1.0 + rs)


def feature_values(prices: Sequence[float]) -> tuple[float, ...]:
    """Day t's features, in FEATURE_NAMES order, from the prices ending on t.

    Only the last FEATURE_WINDOW prices are read: the mean, weighted mean and
    %K over the 14 ending on t, RSI over the 14 changes ending on t, and %D
    as the mean of the %K of days t-2, t-1 and t.
    """
    if len(prices) < FEATURE_WINDOW:
        raise DataInsufficientError(
            f"need {FEATURE_WINDOW} prices for one day's features, got {len(prices)}"
        )
    p = prices[-FEATURE_WINDOW:]
    window = p[-BASE_WINDOW:]
    k_pct = [stoch_k(p[i : i + BASE_WINDOW]) for i in range(D_WINDOW)]
    return (
        mean(window),
        weighted_mean(window),
        p[-1] - p[-2],
        k_pct[-1],
        mean(k_pct),
        rsi(p[-BASE_WINDOW - 1 :]),
    )


@dataclass(frozen=True)
class FeatureRow:
    """One day's model inputs plus the next day's price as the target.

    `features` holds the values named by FEATURE_NAMES. `price` is the
    same-day close; it is not part of the tree-model feature set but the
    sequence model consumes it as a seventh input.
    """

    day: date
    features: tuple[float, ...]
    price: float
    target_price: float

    @property
    def target_day(self) -> date:
        """The day whose price is this row's target, and so the day this row
        forecasts: the forecast for day d comes from the row dated d-1."""
        return self.day + timedelta(days=1)


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
        return np.array([r.features for r in self.rows], dtype=float)

    def input_array(self) -> np.ndarray:
        """(n, 7) indicator matrix plus same-day price, for the sequence model."""
        import numpy as np
        return np.array([r.features + (r.price,) for r in self.rows], dtype=float)

    def target_array(self) -> np.ndarray:
        import numpy as np
        return np.array([r.target_price for r in self.rows], dtype=float)

    def slice_dates(self, start: date, end: date) -> "FeatureMatrix":
        """Rows whose date falls in [start, end]."""
        return FeatureMatrix([r for r in self.rows if start <= r.day <= end])


def build_features(series: MarketSeries) -> FeatureMatrix:
    """Assemble the feature matrix from a cleaned (gap-free) market series.

    One row per day from the 17th (0-based index FEATURE_WINDOW, a day later
    than the first full window) to the next-to-last; the final day is dropped
    because it has no next-day target.
    """
    prices = series.prices()
    dates = series.dates()
    if len(prices) < FEATURE_WINDOW + 2:
        raise DataInsufficientError(
            f"need at least {FEATURE_WINDOW + 2} days for one feature row, got {len(prices)}"
        )
    return FeatureMatrix([
        FeatureRow(
            day=dates[t],
            features=feature_values(prices[t - FEATURE_WINDOW + 1 : t + 1]),
            price=prices[t],
            target_price=prices[t + 1],
        )
        for t in range(FEATURE_WINDOW, len(prices) - 1)
    ])


def write_features_csv(matrix: FeatureMatrix, path, header_comment: str | None = None) -> None:
    """Export the feature matrix: date, the FEATURE_NAMES columns, target."""
    write_output_csv(
        path,
        ["date", *FEATURE_NAMES, "target"],
        ((r.day, *r.features, r.target_price) for r in matrix.rows),
        header_comment,
    )
