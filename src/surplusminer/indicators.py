"""Technical indicators over the daily price series, and the models' feature rows.

Day t's six features are one function of the prices ending on t:
`feature_values` reads the last FEATURE_WINDOW (16) of them, days t-15..t.
Each indicator below is a function of one window and takes the window's
length from the slice it is given. Arithmetic is deliberately plain
left-to-right Python (a += loop, then /n, and friends) so every value can be
reproduced exactly from the defining formula on every Python: not sum(),
which compensates floats from Python 3.12 on.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from typing import Sequence

from .errors import DataInsufficientError
from .ingest import MarketRecord, write_output_csv

FEATURE_NAMES = ("sma14", "wma14", "momentum", "k_pct", "d_pct", "rsi")

# 14-day base window; %D smooths the %K of the last 3 days, so day t's
# features read the prices of days t-15..t.
BASE_WINDOW = 14
D_WINDOW = 3
FEATURE_WINDOW = BASE_WINDOW + D_WINDOW - 1


def mean(window: Sequence[float]) -> float:
    """Simple moving average of the window (and %D, of the last three %K)."""
    acc = 0.0
    for p in window:
        acc += p
    return acc / len(window)


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
    as the mean of the %K of days t-2, t-1 and t. build_features passes
    exactly FEATURE_WINDOW prices.
    """
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


def build_features(records: list[MarketRecord]) -> list[FeatureRow]:
    """The feature rows, in date order, of gap-filled market records: one
    record per day in date order, as fill_gaps returns them.

    One row per day from the 17th (0-based index FEATURE_WINDOW, a day later
    than the first full window) to the next-to-last; the final day is dropped
    because it has no next-day target. Fewer than FEATURE_WINDOW + 2 records
    is a DataInsufficientError.
    """
    prices = [r.price_usd for r in records]
    dates = [r.day for r in records]
    if len(prices) < FEATURE_WINDOW + 2:
        raise DataInsufficientError(
            f"need at least {FEATURE_WINDOW + 2} days for one feature row, got {len(prices)}"
        )
    return [
        FeatureRow(
            day=dates[t],
            features=feature_values(prices[t - FEATURE_WINDOW + 1 : t + 1]),
            price=prices[t],
            target_price=prices[t + 1],
        )
        for t in range(FEATURE_WINDOW, len(prices) - 1)
    ]


def write_features_csv(rows: list[FeatureRow], path, header_comment: str) -> None:
    """Export the feature rows: date, the FEATURE_NAMES columns, target."""
    write_output_csv(
        path,
        ["date", *FEATURE_NAMES, "target"],
        ((r.day, *r.features, r.target_price) for r in rows),
        header_comment,
    )
