"""Fleet sizing, scenario planning, and the block reward schedule."""
import calendar
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surplusminer.errors import ValidationError
from surplusminer.fleet import (
    DEFAULT_LOSS_RATE,
    HALVING_SCHEDULE,
    MinerSpec,
    block_reward,
    build_scenarios,
)
from surplusminer.ingest import MonthlySurplusTotal

MINER = MinerSpec()


def hours(month):
    year, mon = map(int, month.split("-"))
    return 24.0 * calendar.monthrange(year, mon)[1]


def totals_from_supported(counts):
    """Monthly totals that, at loss_rate 0.0, support exactly the given counts."""
    months = [f"2023-{m:02d}" for m in range(1, len(counts) + 1)]
    return [MonthlySurplusTotal(m, (count + 0.5) * MINER.power_kw * hours(m)) for m, count in zip(months, counts)]


def one_month(month, kwh, loss_rate=DEFAULT_LOSS_RATE):
    """Scenario 1's fleet.csv row for a single month of surplus."""
    s1, _ = build_scenarios([MonthlySurplusTotal(month, kwh)], MINER, loss_rate)
    return s1.monthly[0]


class TestEnergy:
    def test_loss_rate_example(self):
        row = one_month("2023-06", 1_000_000.0)
        assert row.energy_used_kwh + row.energy_idle_kwh == pytest.approx(964_100.0, rel=1e-12)

    def test_supported_units_example(self):
        """964,100 usable kWh in a 30-day month runs 235 units of 4,086.72 kWh."""
        row = one_month("2023-06", 1_000_000.0)
        assert row.supported == row.operating == 235
        assert math.floor(964_100.0 / 4086.72) == 235
        assert row.energy_used_kwh == 235 * MINER.power_kw * 720.0

    def test_zero_energy(self):
        row = one_month("2023-06", 0.0)
        assert (row.supported, row.operating, row.energy_used_kwh, row.energy_idle_kwh) == (0, 0, 0.0, 0.0)

    def test_hours_in_month(self):
        """A month's hours set what its energy runs, and what the units use."""
        for month, month_hours in [("2023-01", 744.0), ("2023-02", 672.0), ("2024-02", 696.0)]:
            row = one_month(month, (10 + 0.5) * MINER.power_kw * month_hours, loss_rate=0.0)
            assert row.supported == 10
            assert row.energy_used_kwh == 10 * MINER.power_kw * month_hours


class TestMinerSpec:
    def test_default_consistency(self):
        # 5676 W / 473 TH/s = 12.0 J/TH
        assert MINER.power_w / MINER.hashrate_ths == 12.0
        assert MINER.power_kw == pytest.approx(5.676)

    @pytest.mark.parametrize("field,value", [(1, -1.0), (2, 0.0), (3, -5.0), (4, 0)])
    def test_positivity(self, field, value):
        args = ["m", 473.0, 5676.0, 10165.0, 90]
        args[field] = value
        with pytest.raises(ValidationError):
            MinerSpec(*args)


class TestScenarios:
    def test_extremes_vs_mean(self):
        s1, s2 = build_scenarios(totals_from_supported([10, 20, 30]), MINER, 0.0)
        assert s1.owned_units == 30
        assert [m.operating for m in s1.monthly] == [10, 20, 30]
        assert s2.owned_units == 20
        assert [m.operating for m in s2.monthly] == [10, 20, 20]

    def test_constant_supported_makes_scenarios_equal(self):
        s1, s2 = build_scenarios(totals_from_supported([15, 15, 15]), MINER, 0.0)
        assert s1.owned_units == s2.owned_units == 15
        assert [m.operating for m in s1.monthly] == [m.operating for m in s2.monthly]

    def test_mean_rounds_half_up(self):
        # mean 12.5 -> 13
        _, s2 = build_scenarios(totals_from_supported([10, 15]), MINER, 0.0)
        assert s2.owned_units == 13

    def test_operating_never_exceeds_supported_or_owned(self):
        rng = np.random.default_rng(3)
        counts = [int(v) for v in rng.integers(0, 500, size=12)]
        for plan in build_scenarios(totals_from_supported(counts), MINER, 0.0):
            for m in plan.monthly:
                assert m.operating <= m.supported
                assert m.operating <= plan.owned_units

    def test_energy_accounting(self):
        """used + idle must reconstruct the usable energy to within 1 kWh."""
        rng = np.random.default_rng(4)
        totals = [
            MonthlySurplusTotal(f"2023-{m:02d}", float(v))
            for m, v in enumerate(rng.uniform(1e5, 9e6, size=12), start=1)
        ]
        for plan in build_scenarios(totals, MINER, DEFAULT_LOSS_RATE):
            for total, m in zip(totals, plan.monthly):
                assert m.energy_used_kwh + m.energy_idle_kwh == pytest.approx(
                    total.total_kwh * (1.0 - DEFAULT_LOSS_RATE), abs=1.0
                )
                assert m.energy_used_kwh >= 0.0
                assert m.energy_idle_kwh >= 0.0


    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=24),
        st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_month_follows_the_rule(self, kwh, loss_rate):
        """floor(kwh * (1 - loss) / (kW * hours)) per month, then the two plans."""
        months = [f"{2023 + i // 12}-{i % 12 + 1:02d}" for i in range(len(kwh))]
        s1, s2 = build_scenarios([MonthlySurplusTotal(m, k) for m, k in zip(months, kwh)], MINER, loss_rate)
        supported = [math.floor(k * (1.0 - loss_rate) / (MINER.power_kw * hours(m))) for m, k in zip(months, kwh)]
        assert s1.owned_units == max(supported)
        assert s2.owned_units == math.floor(sum(supported) / len(supported) + 0.5)
        for plan in (s1, s2):
            assert [m.month for m in plan.monthly] == months
            assert [m.supported for m in plan.monthly] == supported
            assert [m.operating for m in plan.monthly] == [min(plan.owned_units, c) for c in supported]


class TestBlockReward:
    @pytest.mark.parametrize(
        "day,reward",
        [
            (date(2012, 11, 28), 25.0),
            (date(2016, 7, 9), 25.0),
            (date(2016, 7, 10), 12.5),
            (date(2020, 5, 11), 12.5),
            (date(2020, 5, 12), 6.25),
            (date(2024, 4, 19), 6.25),
            (date(2024, 4, 20), 3.125),
            (date(2030, 1, 1), 3.125),
        ],
    )
    def test_boundaries(self, day, reward):
        assert block_reward(day) == reward

    def test_before_schedule_rejected(self):
        with pytest.raises(ValidationError):
            block_reward(date(2012, 11, 27))

    def test_schedule_is_sorted_and_halving(self):
        days = [d for d, _ in HALVING_SCHEDULE]
        rewards = [r for _, r in HALVING_SCHEDULE]
        assert days == sorted(days)
        for a, b in zip(rewards, rewards[1:]):
            assert b == a / 2.0

    @given(st.integers(min_value=0, max_value=9000))
    @settings(max_examples=120, deadline=None)
    def test_monotone_non_increasing(self, offset):
        base = date(2012, 11, 28)
        d1 = base + timedelta(days=offset)
        d2 = d1 + timedelta(days=1)
        assert block_reward(d2) <= block_reward(d1)
