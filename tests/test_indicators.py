"""Indicator correctness against per-index brute force, and feature assembly."""
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surplusminer.errors import DataInsufficientError
from surplusminer.indicators import (
    BASE_WINDOW,
    D_WINDOW,
    FEATURE_NAMES,
    FEATURE_WINDOW,
    build_features,
    feature_values,
    mean,
    rsi,
    stoch_k,
    weighted_mean,
)

from conftest import make_series
from oracles import oracle_d, oracle_k, oracle_momentum, oracle_rsi, oracle_sma, oracle_wma

price_floats = st.floats(min_value=0.01, max_value=1e6, allow_nan=False, allow_infinity=False)
prices_strategy = st.lists(price_floats, min_size=20, max_size=60)


def random_prices(n, seed=0):
    rng = np.random.default_rng(seed)
    return list(np.exp(rng.normal(np.log(30000.0), 0.3, size=n)))


def trailing(ps, n):
    """(t, the n prices ending on day t) for every day with n prices."""
    return [(t, ps[t - n + 1 : t + 1]) for t in range(n - 1, len(ps))]


def hexes(values):
    return tuple(float(v).hex() for v in values)


class TestAgainstBruteForce:
    """Every indicator must equal the defining formula exactly (==)."""

    def test_all_indicators_exact(self):
        ps = random_prices(300, seed=42)
        n = BASE_WINDOW
        for t, window in trailing(ps, n):
            assert mean(window) == oracle_sma(ps, t, n)
            assert weighted_mean(window) == oracle_wma(ps, t, n)
            assert stoch_k(window) == oracle_k(ps, t, n)
        for t, window in trailing(ps, n + 1):
            assert rsi(window) == oracle_rsi(ps, t, n)
        for t, window in trailing(ps, FEATURE_WINDOW):
            assert feature_values(window)[2] == oracle_momentum(ps, t, 1)

    def test_d_exact(self):
        ps = random_prices(100, seed=7)
        n, m = BASE_WINDOW, D_WINDOW
        got = [feature_values(window)[4] for _, window in trailing(ps, FEATURE_WINDOW)]
        want = []
        for t in range(n - 1 + m - 1, len(ps)):
            acc = 0.0
            for j in range(t - m + 1, t + 1):
                acc += oracle_k(ps, j, n)
            want.append(acc / m)
        assert got == want

    @pytest.mark.parametrize("window", [2, 5, 14])
    def test_other_windows_exact(self, window):
        ps = random_prices(80, seed=window)
        assert [mean(w) for _, w in trailing(ps, window)] == [
            oracle_sma(ps, t, window) for t in range(window - 1, len(ps))
        ]
        assert [rsi(w) for _, w in trailing(ps, window + 1)] == [
            oracle_rsi(ps, t, window) for t in range(window, len(ps))
        ]


class TestKnownValues:
    def test_wma_tiny(self):
        assert weighted_mean([1.0, 2.0, 3.0]) == 14.0 / 6.0

    def test_sma_tiny(self):
        assert [mean(w) for _, w in trailing([2.0, 4.0, 6.0, 8.0], 2)] == [3.0, 5.0, 7.0]

    def test_momentum_tiny(self):
        ps = [5.0] * (FEATURE_WINDOW - 1) + [7.0, 4.0]
        assert feature_values(ps[:-1])[2] == 2.0
        assert feature_values(ps)[2] == -3.0

    def test_constant_series_neutral(self):
        ps = [100.0] * 30
        assert all(stoch_k(w) == 50.0 for _, w in trailing(ps, 14))
        assert all(rsi(w) == 50.0 for _, w in trailing(ps, 15))
        assert all(mean(w) == 100.0 for _, w in trailing(ps, 14))

    def test_rsi_monotone_series(self):
        rising = [float(i) for i in range(1, 30)]
        assert all(rsi(w) == 100.0 for _, w in trailing(rising, 15))
        falling = [float(i) for i in range(30, 1, -1)]
        assert all(rsi(w) == 0.0 for _, w in trailing(falling, 15))

    def test_k_at_extremes(self):
        ps = [1.0, 2.0, 3.0, 4.0]
        assert stoch_k(ps[-3:]) == 100.0
        assert stoch_k(list(reversed(ps))[-3:]) == 0.0


class TestBounds:
    @given(prices_strategy)
    @settings(max_examples=60, deadline=None)
    def test_oscillators_in_0_100(self, ps):
        values = (
            [stoch_k(w) for _, w in trailing(ps, 14)]
            + [rsi(w) for _, w in trailing(ps, 15)]
            + [feature_values(w)[4] for _, w in trailing(ps, FEATURE_WINDOW)]
        )
        for v in values:
            assert 0.0 <= v <= 100.0

    @given(prices_strategy)
    @settings(max_examples=60, deadline=None)
    def test_sma_within_window_range(self, ps):
        """Mean stays in the window's range, up to summation rounding."""
        for _, window in trailing(ps, 14):
            v = mean(window)
            slack = 1e-13 * max(abs(min(window)), abs(max(window)))
            assert min(window) - slack <= v <= max(window) + slack


class TestCausality:
    START = date(2022, 1, 1)

    @given(st.lists(price_floats, min_size=FEATURE_WINDOW + 2, max_size=40), st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_row_reads_only_prices_up_to_its_day(self, ps, data):
        """Grown one day at a time, a path's features match build_features on
        the whole path bit for bit, and no later price moves them."""
        rows = build_features(make_series(ps, start=self.START)).rows
        for t in range(FEATURE_WINDOW, len(ps) - 1):
            path = ps[: t + 1]
            row = rows[t - FEATURE_WINDOW]
            assert row.day == self.START + timedelta(days=t)
            assert hexes(feature_values(path)) == hexes(row.features)
            later = data.draw(st.lists(price_floats, min_size=len(ps) - t - 1,
                                       max_size=len(ps) - t - 1))
            changed = build_features(make_series(path + later, start=self.START)).rows[t - FEATURE_WINDOW]
            assert hexes(changed.features + (changed.price,)) == hexes(
                row.features + (row.price,)
            )


class TestFeatureAssembly:
    def test_warm_up_indexing(self):
        """A 20-day series yields exactly 3 rows, on days 17..19 (1-based)."""
        start = date(2023, 1, 1)
        series = make_series(random_prices(20, seed=3), start=start)
        matrix = build_features(series)
        assert len(matrix) == 3
        assert matrix.rows[0].day == start + timedelta(days=16)
        assert matrix.rows[-1].day == start + timedelta(days=18)

    def test_minimum_length(self):
        n_min = BASE_WINDOW + D_WINDOW + 1  # first row index + target day
        series = make_series(random_prices(n_min, seed=4))
        assert len(build_features(series)) == 1
        short = make_series(random_prices(n_min - 1, seed=4))
        with pytest.raises(DataInsufficientError):
            build_features(short)
        with pytest.raises(DataInsufficientError):
            feature_values(random_prices(FEATURE_WINDOW - 1, seed=4))

    def test_row_values_match_indicators(self):
        ps = random_prices(40, seed=5)
        series = make_series(ps)
        matrix = build_features(series)
        t0 = BASE_WINDOW + D_WINDOW - 1
        for offset, row in enumerate(matrix.rows):
            t = t0 + offset
            assert row.features == (  # in FEATURE_NAMES order
                oracle_sma(ps, t, BASE_WINDOW),
                oracle_wma(ps, t, BASE_WINDOW),
                oracle_momentum(ps, t, 1),
                oracle_k(ps, t, BASE_WINDOW),
                oracle_d(ps, t, BASE_WINDOW, D_WINDOW),
                oracle_rsi(ps, t, BASE_WINDOW),
            )
            assert row.price == ps[t]
            assert row.target_price == ps[t + 1]

    def test_last_day_has_no_row(self):
        ps = random_prices(25, seed=6)
        series = make_series(ps)
        matrix = build_features(series)
        assert matrix.rows[-1].day == series.end - timedelta(days=1)

    def test_arrays_shapes(self):
        series = make_series(random_prices(30, seed=8))
        matrix = build_features(series)
        assert matrix.feature_array().shape == (len(matrix), len(FEATURE_NAMES))
        assert matrix.input_array().shape == (len(matrix), len(FEATURE_NAMES) + 1)
        assert matrix.target_array().shape == (len(matrix),)
        assert list(matrix.input_array()[:, -1]) == [r.price for r in matrix.rows]

    def test_slice_dates(self):
        series = make_series(random_prices(30, seed=9), start=date(2023, 1, 1))
        matrix = build_features(series)
        part = matrix.slice_dates(date(2023, 1, 20), date(2023, 1, 22))
        assert [r.day.day for r in part.rows] == [20, 21, 22]
