"""Fleet sizing, scenario planning, and the block reward schedule."""
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
    hours_in_month,
    month_capacity,
    supported_units,
    usable_energy,
)
from surplusminer.ingest import MonthlySurplusTotal

MINER = MinerSpec()


def caps_from_supported(counts, kwh_per_unit=4086.72):
    """MonthlyCapacity list that yields exactly the given supported counts."""
    months = [f"2023-{m:02d}" for m in range(1, len(counts) + 1)]
    out = []
    for month, count in zip(months, counts):
        hours = hours_in_month(month)
        usable = (count + 0.5) * MINER.power_kw * hours
        out.append(month_capacity_raw(month, usable))
    return out


def month_capacity_raw(month, usable):
    from surplusminer.fleet import MonthlyCapacity

    return MonthlyCapacity(
        month=month,
        usable_kwh=usable,
        supported=supported_units(usable, MINER, hours_in_month(month)),
    )


class TestEnergy:
    def test_loss_rate_example(self):
        assert usable_energy(1_000_000.0, DEFAULT_LOSS_RATE) == pytest.approx(964_100.0, rel=1e-12)

    def test_supported_units_example(self):
        assert supported_units(964_100.0, MINER, 720.0) == 235
        assert math.floor(964_100.0 / 4086.72) == 235

    def test_zero_energy(self):
        assert supported_units(0.0, MINER, 720.0) == 0

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
    def test_bad_loss_rate(self, rate):
        with pytest.raises(ValidationError):
            usable_energy(1000.0, rate)

    def test_hours_in_month(self):
        assert hours_in_month("2023-01") == 744.0
        assert hours_in_month("2023-02") == 672.0
        assert hours_in_month("2024-02") == 696.0


class TestMinerSpec:
    def test_default_consistency(self):
        # 5676 W / 473 TH/s = 12.0 J/TH
        assert MINER.power_w / MINER.hashrate_ths == pytest.approx(
            MINER.efficiency_j_per_th
        )
        assert MINER.power_kw == pytest.approx(5.676)

    def test_inconsistent_efficiency_rejected(self):
        with pytest.raises(ValidationError):
            MinerSpec("bogus", 473.0, 5676.0, 20.0, 10165.0, 90)

    @pytest.mark.parametrize("field,value", [(1, -1.0), (2, 0.0), (4, -5.0), (5, 0)])
    def test_positivity(self, field, value):
        args = ["m", 473.0, 5676.0, 12.0, 10165.0, 90]
        args[field] = value
        with pytest.raises(ValidationError):
            MinerSpec(*args)


class TestScenarios:
    def test_extremes_vs_mean(self):
        caps = caps_from_supported([10, 20, 30])
        s1, s2 = build_scenarios(caps, MINER)
        assert s1.owned_units == 30
        assert [m.operating for m in s1.monthly] == [10, 20, 30]
        assert s2.owned_units == 20
        assert [m.operating for m in s2.monthly] == [10, 20, 20]

    def test_constant_supported_makes_scenarios_equal(self):
        caps = caps_from_supported([15, 15, 15])
        s1, s2 = build_scenarios(caps, MINER)
        assert s1.owned_units == s2.owned_units == 15
        assert [m.operating for m in s1.monthly] == [m.operating for m in s2.monthly]

    def test_mean_rounds_half_up(self):
        # mean 12.5 -> 13
        caps = caps_from_supported([10, 15])
        _, s2 = build_scenarios(caps, MINER)
        assert s2.owned_units == 13

    def test_operating_never_exceeds_supported_or_owned(self):
        rng = np.random.default_rng(3)
        counts = [int(v) for v in rng.integers(0, 500, size=12)]
        caps = caps_from_supported(counts)
        for plan in build_scenarios(caps, MINER):
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
        caps = [month_capacity(t, MINER, DEFAULT_LOSS_RATE) for t in totals]
        for plan in build_scenarios(caps, MINER):
            for cap, m in zip(caps, plan.monthly):
                assert m.energy_used_kwh + m.energy_idle_kwh == pytest.approx(
                    cap.usable_kwh, abs=1.0
                )
                assert m.energy_used_kwh >= 0.0
                assert m.energy_idle_kwh >= 0.0

    def test_duplicate_month_rejected(self):
        caps = caps_from_supported([5])
        with pytest.raises(ValidationError):
            build_scenarios(caps + caps, MINER)

    def test_fleet_for_missing_month(self):
        caps = caps_from_supported([5, 6])
        s1, _ = build_scenarios(caps, MINER)
        with pytest.raises(ValidationError):
            s1.fleet_for("2024-01")


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
