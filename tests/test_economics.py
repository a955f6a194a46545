"""Mining economics: BTC/day, revenue, exact-cent money, case simulation."""
import logging
import math
from datetime import date, timedelta
from types import SimpleNamespace
from decimal import Decimal

import numpy as np
import pytest

from surplusminer.cli import render_report
from surplusminer.economics import (
    BLOCKS_PER_DAY,
    btc_per_day,
    case_totals,
    daily_revenue,
    depreciation_cost,
    months_spanned,
    run_case,
    usd_cents,
    usd_millions,
)
from surplusminer.errors import ValidationError
from surplusminer.fleet import DEFAULT_LOSS_RATE, MinerSpec, build_scenarios, month_capacity
from surplusminer.ingest import MonthlySurplusTotal, days

from conftest import make_series

MINER = MinerSpec()


def scenario_plans(kwh_by_month, miner=MINER):
    totals = [MonthlySurplusTotal(m, k) for m, k in kwh_by_month]
    caps = [month_capacity(t, miner, DEFAULT_LOSS_RATE) for t in totals]
    return build_scenarios(caps, miner)


class TestBtcPerDay:
    def test_full_share(self):
        assert btc_per_day(1000.0, 1000.0, 6.25, 144) == 900.0

    def test_hundredth_share(self):
        assert btc_per_day(10.0, 1000.0, 6.25, 144) == pytest.approx(9.0, rel=1e-12)

    def test_fleet_scale_example(self):
        fleet = 45_439 * 473.0  # 21,492,647 TH/s
        got = btc_per_day(fleet, 430_000_000.0, 6.25, 144)
        assert got == pytest.approx(44.98, abs=0.005)

    def test_share_capped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            got = btc_per_day(2000.0, 1000.0, 6.25, 144)
        assert got == 900.0
        assert any("cap" in r.message for r in caplog.records)

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            btc_per_day(1.0, 0.0, 6.25, 144)
        with pytest.raises(ValidationError):
            btc_per_day(-1.0, 10.0, 6.25, 144)


class TestDailyRevenue:
    def test_zero_price(self):
        assert daily_revenue(0.0, 5.0) == 0.0

    def test_product(self):
        assert daily_revenue(30000.0, 10.0) == 300000.0

    def test_linear_in_price(self):
        assert daily_revenue(60000.0, 3.5) == 2.0 * daily_revenue(30000.0, 3.5)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            daily_revenue(-1.0, 1.0)

    def test_price_above_the_bound_rejected(self):
        assert daily_revenue(1e12, 1.0) == 1e12
        with pytest.raises(ValidationError, match=r"price must be <= 1e\+12, got 1e\+300"):
            daily_revenue(1e300, 1.0)


class TestDepreciation:
    def test_large_fleet_exact_cents(self):
        got = depreciation_cost(45_439, 10_165.0, 12, 90)
        assert got == Decimal("61584991.33")

    def test_mean_fleet_exact_cents(self):
        got = depreciation_cost(30_565, 10_165.0, 12, 90)
        assert got == Decimal("41425763.33")

    def test_zero_months(self):
        assert depreciation_cost(100, 10_165.0, 0, 90) == Decimal("0.00")

    def test_zero_lifespan_rejected(self):
        with pytest.raises(ValidationError):
            depreciation_cost(1, 100.0, 12, 0)

    def test_exact_rational_no_float_drift(self):
        # 1/3 of a cent boundary: 1 unit, $0.01, 1 of 3 months = 0.00333...
        assert depreciation_cost(1, 0.01, 1, 3) == Decimal("0.00")
        # exactly half a cent rounds up
        assert depreciation_cost(1, 0.01, 1, 2) == Decimal("0.01")


class TestSoloMiningTime:
    """Expected days for one miner to earn 1 BTC: 1 / btc_per_day."""

    @staticmethod
    def solo_days(miner_ths, network_ths, reward):
        return 1.0 / btc_per_day(miner_ths, network_ths, reward, BLOCKS_PER_DAY)

    def test_realistic_network_scale(self):
        days = self.solo_days(500.0, 612_100_000.0, 3.125)
        assert days == pytest.approx(2720.4444, rel=1e-6)
        assert 7.0 <= days / 365.25 <= 8.0

    def test_full_share(self):
        assert self.solo_days(100.0, 100.0, 6.25) == pytest.approx(1.0 / 900.0)

    def test_inverse_in_hashrate(self):
        t1 = self.solo_days(100.0, 1e9, 6.25)
        t2 = self.solo_days(200.0, 1e9, 6.25)
        assert t1 == pytest.approx(2.0 * t2, rel=1e-12)


class TestMoneyHelpers:
    def test_usd_cents_half_up(self):
        assert usd_cents(1.005) == Decimal("1.01")
        assert usd_cents(1.004999) == Decimal("1.00")
        assert usd_cents(2.675) == Decimal("2.68")

    def test_usd_millions(self):
        assert usd_millions(Decimal("61584991.33")) == 62
        assert usd_millions(Decimal("41425763.33")) == 41
        assert usd_millions(Decimal("390123456.78")) == 390

    def test_months_spanned(self):
        assert months_spanned(date(2023, 1, 1), date(2023, 12, 31)) == 12
        assert months_spanned(date(2023, 6, 1), date(2023, 12, 31)) == 7
        assert months_spanned(date(2023, 3, 15), date(2023, 3, 20)) == 1


def simple_setup(n_days=59, price=25000.0, hashrate=4.0e8, kwh=5.0e6):
    """Two months (Jan-Feb 2023) of flat prices and surplus."""
    start = date(2023, 1, 1)
    series = make_series([price] * n_days, start=start, hashrate=hashrate)
    plans = scenario_plans([("2023-01", kwh), ("2023-02", kwh * 0.6)])
    return series, plans, start, date(2023, 2, 28)


def case_report(entries, plan, sim_start, sim_end):
    """The report row of one case's ledger rows, their revenue summed with +=
    in date order as read_ledger_totals sums it (not sum(), which on Python
    3.12 compensates for rounding)."""
    revenue = 0.0
    for entry in entries:
        revenue += entry.revenue_usd
    return case_totals(entries[0].price_source, revenue, plan, MINER, months_spanned(sim_start, sim_end))


def run_on(plan, series, sim_start, sim_end, prices=None, source="actual", blocks_per_day=144):
    """run_case over sim_start..sim_end with the columns cli slices from the
    market `series`: its network hash rate and, unless `prices` are given,
    its prices."""
    records = [r for r in series.records if sim_start <= r.day <= sim_end]
    if prices is None:
        prices = [r.price_usd for r in records]
    network = [r.network_hashrate_ths for r in records]
    return run_case(plan, source, days(sim_start, sim_end), prices, network, MINER, blocks_per_day)


class TestRunCase:
    def test_ledger_shape_and_totals(self):
        series, plans, sim_start, sim_end = simple_setup()
        entries = run_on(plans[0], series, sim_start, sim_end)
        assert len(entries) == 59
        assert [e.day for e in entries] == [sim_start + timedelta(days=i) for i in range(59)]
        report = case_report(entries, plans[0], sim_start, sim_end)
        assert report.case_label == "actual-1"
        acc = 0.0
        for entry in entries:
            acc += entry.revenue_usd
        assert usd_cents(acc) == report.revenue_usd
        assert report.profit_usd == report.revenue_usd - report.cost_usd

    def test_revenue_matches_independent_loop(self):
        series, plans, sim_start, sim_end = simple_setup()
        entries = run_on(plans[0], series, sim_start, sim_end)
        report = case_report(entries, plans[0], sim_start, sim_end)

        total = 0.0
        day = sim_start
        while day <= sim_end:
            month = f"{day.year:04d}-{day.month:02d}"
            op = next(m.operating for m in plans[0].monthly if m.month == month)
            btc = 6.25 * (op * 473.0 / 4.0e8) * 144.0
            total += 25000.0 * btc
            day += timedelta(days=1)
        assert float(report.revenue_usd) == pytest.approx(total, rel=1e-9)

    def test_scenario2_never_exceeds_scenario1(self):
        series, plans, sim_start, sim_end = simple_setup()
        r1, r2 = (
            case_report(run_on(plan, series, sim_start, sim_end), plan, sim_start, sim_end)
            for plan in plans
        )
        assert r2.revenue_usd <= r1.revenue_usd

    def test_revenue_monotone_in_price(self):
        series, plans, sim_start, sim_end = simple_setup()
        lower = make_series([20000.0] * 59, start=sim_start, hashrate=4.0e8)
        r_hi, r_lo = (
            case_report(
                run_on(plans[0], series, sim_start, sim_end, prices=s.prices()),
                plans[0], sim_start, sim_end,
            )
            for s in (series, lower)
        )
        assert r_lo.revenue_usd <= r_hi.revenue_usd

    @pytest.mark.parametrize("short", ["prices", "network"])
    def test_column_shorter_than_the_window_rejected(self, short):
        series, plans, sim_start, sim_end = simple_setup()
        columns = {"prices": series.prices(), "network": [r.network_hashrate_ths for r in series.records]}
        columns[short] = columns[short][:-1]
        with pytest.raises(ValueError, match="shorter"):
            run_case(plans[0], "actual", days(sim_start, sim_end), columns["prices"], columns["network"], MINER, 144)

    def test_bad_daily_price_names_the_case_and_the_day(self):
        """A negative forecast (an LSTM can make one) is refused, naming the
        case and the day, not only the value."""
        series, plans, sim_start, sim_end = simple_setup()
        preds = [26000.0] * 59
        preds[(date(2023, 2, 14) - sim_start).days] = -3797.75
        with pytest.raises(ValidationError, match=r"^case lstm-2, 2023-02-14: price must be >= 0, got -3797.75$"):
            run_on(plans[1], series, sim_start, sim_end, prices=preds, source="lstm")

    def test_zero_fleet_zero_money(self):
        start = date(2023, 1, 1)
        series = make_series([25000.0] * 31, start=start)
        plans = scenario_plans([("2023-01", 0.0)])
        entries = run_on(plans[0], series, start, date(2023, 1, 31))
        report = case_report(entries, plans[0], start, date(2023, 1, 31))
        assert report.revenue_usd == Decimal("0.00")
        assert report.cost_usd == Decimal("0.00")
        assert report.profit_usd == Decimal("0.00")

    def test_reward_boundary_is_respected(self):
        """A window spanning 2024-04-20 must use both 6.25 and 3.125."""
        start = date(2024, 4, 15)
        series = make_series([50000.0] * 10, start=start, hashrate=6.0e8)
        plans = scenario_plans([("2024-04", 5.0e6)])
        entries = run_on(plans[0], series, start, date(2024, 4, 24))
        by_day = {e.day: e.btc_mined for e in entries}
        assert by_day[date(2024, 4, 19)] == pytest.approx(
            2.0 * by_day[date(2024, 4, 20)], rel=1e-12
        )


class TestFixtureOracle:
    """Actual-price totals on the bundled fixture match an independent
    recomputation (tests/data/gen_expected_totals.py, stdlib only)."""

    def test_actual_cases_match_committed_totals(self, data_dir):
        import json

        from surplusminer.ingest import monthly_totals, parse_market_csv, parse_surplus_csv

        expected = json.loads((data_dir / "expected_actual_totals.json").read_text())
        cfg = json.loads((data_dir / "fixture_config.json").read_text())
        market = parse_market_csv(data_dir / cfg["market_csv"])
        surplus = parse_surplus_csv(data_dir / cfg["surplus_csv"], months=tuple(cfg["surplus_months"]))
        caps = [month_capacity(t, MINER, cfg["loss_rate"]) for t in monthly_totals(surplus)]
        plans = build_scenarios(caps, MINER)
        assert plans[0].owned_units == expected["owned_units"]["1"]
        assert plans[1].owned_units == expected["owned_units"]["2"]

        sim_start = date.fromisoformat(cfg["sim_start"])
        sim_end = date.fromisoformat(cfg["sim_end"])
        for plan in plans:
            entries = run_on(plan, market, sim_start, sim_end, blocks_per_day=cfg["blocks_per_day"])
            report = case_report(entries, plan, sim_start, sim_end)
            want = expected["cases"][report.case_label]
            assert report.revenue_usd == Decimal(want["revenue_usd"])
            assert report.cost_usd == Decimal(want["cost_usd"])
            assert report.profit_usd == Decimal(want["profit_usd"])


def vs_actual_cells(reports, sim_start, sim_end):
    """render_report's vs_actual cell (the last column) per case label."""
    cfg = SimpleNamespace(sim_start=sim_start, sim_end=sim_end, miner=MINER)
    rows = render_report(reports, cfg)[3:]  # after the title, a blank line and the header
    return {row.split()[0]: row.split()[-1] for row in rows}


class TestDeltas:
    def _reports(self, prices_by_source, kwh=5.0e6):
        series, _, sim_start, sim_end = simple_setup()
        plans = scenario_plans([("2023-01", kwh), ("2023-02", kwh * 0.6)])
        reports = []
        for label, price in prices_by_source.items():
            entries = run_on(plans[0], series, sim_start, sim_end, prices=[price] * 59, source=label)
            reports.append(case_report(entries, plans[0], sim_start, sim_end))
        return vs_actual_cells(reports, sim_start, sim_end)

    def test_deltas_vs_actual(self):
        # predicted price is 4% above actual flat 25000
        assert self._reports({"actual": 25000.0, "forest": 26000.0}) == {"actual-1": "-", "forest-1": "+4.00%"}

    def test_no_actual_case_leaves_none(self):
        assert self._reports({"forest": 26000.0}) == {"forest-1": "-"}

    def test_zero_actual_revenue_leaves_a_dash(self):
        assert self._reports({"actual": 25000.0, "lstm": 26000.0}, kwh=0.0) == {"actual-1": "-", "lstm-1": "-"}
