"""Daily mining output, revenue, depreciation, and per-case profit reports.

A case is one (price source, scenario plan) pair, and this module owns them:
PRICE_SOURCES names the sources, CASES maps each case label to its pair. Each
simulated day mines reward x (fleet share of network hash rate) x 144 blocks,
the same for every price source of a scenario (mine_scenario), valued at the
case's price for that day (run_case). Both work on values checked where they
entered: the market by MarketRecord, the forecasts by cli._case_columns, the
miner by MinerSpec. run_case is plain arithmetic; mine_scenario also refuses a
simulated month the surplus plan lacks and, through block_reward, a day before
the reward schedule. A case's revenue is the plain float sum, in date order, of
its daily revenues: run_case sums them as it formats the ledger lines, and
read_ledger_totals sums the same floats read back from ledger.csv, where each
is written as its repr, so both give the same bits. Money becomes exact cents
(Decimal) at the report boundary, and depreciation is exact rational
arithmetic, so profit = revenue - cost holds to the cent.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from datetime import date
from decimal import ROUND_HALF_UP, Context, Decimal, Inexact, InvalidOperation
from fractions import Fraction
from typing import NamedTuple

from .errors import ValidationError
from .fleet import HALVING_SCHEDULE, MinerSpec, ScenarioPlan, block_reward
from .ingest import MAX_PRICE_USD, _data_rows, _parse_float, days, output_file

logger = logging.getLogger(__name__)

BLOCKS_PER_DAY = 144  # Bitcoin's target of one block every 10 minutes

# The market's price, then each forecast model's, in forecasts.csv's column order.
PRICE_SOURCES = ("actual", "forest", "lstm")
# Each case label and its (price source, scenario): every source for both fleet plans.
CASES = {f"{source}-{scenario}": (source, scenario) for source in PRICE_SOURCES for scenario in (1, 2)}

_CENT = Decimal("0.01")
# The money step that must not round: cents past the 28 significant digits
# of decimal's default precision raise instead of being rounded away.
_EXACT = Context(traps=[Inexact])


def btc_per_day(
    fleet_hashrate_ths: float,
    network_hashrate_ths: float,
    reward_btc: float,
    blocks_per_day: int,
) -> float:
    """Expected BTC mined per day: reward x (fleet/network) x blocks.

    The network hash rate is > 0 (MarketRecord), the fleet's >= 0 and the
    reward HALVING_SCHEDULE's. A fleet share above 1 is physically impossible
    and is capped (with a warning) rather than extrapolated.
    """
    share = fleet_hashrate_ths / network_hashrate_ths
    if share > 1.0:
        logger.warning(
            "fleet hash rate %.0f TH/s exceeds the network's %.0f TH/s; capping share at 1",
            fleet_hashrate_ths,
            network_hashrate_ths,
        )
        share = 1.0
    return reward_btc * share * blocks_per_day


def daily_revenue(price_used_usd: float, btc: float) -> float:
    """Revenue for one day: price x BTC mined (exact float product), the
    price in [0, MAX_PRICE_USD] (MarketRecord, cli._case_columns)."""
    return price_used_usd * btc


def depreciation_cost(
    owned_units: int,
    unit_price_usd: float,
    months_operated: int,
    lifespan_months: int,
) -> Decimal:
    """Straight-line hardware cost for the months operated, in exact cents.

    owned x price x months / lifespan, evaluated as an exact rational and
    rounded half-up to cents only at the end. Cents past 28 significant
    digits raise decimal.Inexact rather than round. MinerSpec checks the
    price and lifespan (> 0); owned units and months are counts.
    """
    value = (
        Fraction(owned_units)
        * Fraction(Decimal(str(unit_price_usd)))
        * Fraction(months_operated)
        / Fraction(lifespan_months)
    )
    cents = math.floor(value * 100 + Fraction(1, 2))
    return Decimal(cents).scaleb(-2, _EXACT)


def usd_cents(amount: float) -> Decimal:
    """Float dollars -> Decimal rounded half-up to cents; decimal.InvalidOperation
    when the cents need more than 28 significant digits."""
    return Decimal(str(amount)).quantize(_CENT, rounding=ROUND_HALF_UP)


def usd_millions(amount: Decimal) -> int:
    """Dollars -> nearest whole million (half-up), for summary tables."""
    return int((amount / Decimal(1_000_000)).to_integral_value(rounding=ROUND_HALF_UP))


class DailyLedgerEntry(NamedTuple):
    """One case's day: a ledger.csv row, its fields in column order."""

    day: date
    scenario: int
    price_source: str
    operating_units: int
    fleet_hashrate_ths: float
    network_hashrate_ths: float
    btc_mined: float
    revenue_usd: float
    price_used_usd: float


LEDGER_COLUMNS = ("date", *DailyLedgerEntry._fields[1:])


@dataclass
class SimulationReport:
    """Totals for one case: one report row."""

    case_label: str
    scenario: int
    price_source: str
    revenue_usd: Decimal
    cost_usd: Decimal
    profit_usd: Decimal


def months_spanned(start: date, end: date) -> int:
    """Distinct calendar months touched by [start, end], start <= end."""
    return (end.year - start.year) * 12 + (end.month - start.month) + 1


def case_totals(
    price_source: str,
    revenue: float,
    plan: ScenarioPlan,
    miner: MinerSpec,
    months: int,
) -> SimulationReport:
    """The report row of one case: its summed float revenue in exact cents,
    the plan's hardware depreciation over `months`, and their difference.
    Money too large to hold exactly to the cent is a ValidationError naming
    the case."""
    label = f"{price_source}-{plan.scenario}"
    try:
        revenue_cents = usd_cents(revenue)
        cost_cents = depreciation_cost(
            plan.owned_units, miner.unit_price_usd, months, miner.lifespan_months
        )
    except (Inexact, InvalidOperation):
        raise ValidationError(
            f"case {label}: revenue {revenue!r} USD or the cost of {plan.owned_units} units at "
            f"{miner.unit_price_usd!r} USD has more than {_EXACT.prec} significant digits in cents"
        ) from None
    return SimulationReport(
        case_label=label,
        scenario=plan.scenario,
        price_source=price_source,
        revenue_usd=revenue_cents,
        cost_usd=cost_cents,
        profit_usd=revenue_cents - cost_cents,  # exact: both are >= 0 and fit in 28 digits of cents
    )


def mine_scenario(
    plan: ScenarioPlan, window: list[date], network: list[float], miner: MinerSpec
) -> list[tuple[str, float, str]]:
    """The days of `window` mined under `plan`, each as (ISO day, BTC mined,
    the ledger's cells operating_units,fleet_hashrate_ths,network_hashrate_ths,
    btc_mined as csv writes them: an int by str, a float by repr).

    network is day-aligned with window: each day's actual network hash rate.
    A month the plan lacks is a ValidationError naming the scenario and the
    day; block_reward's error for a day before its schedule propagates. A
    column of another length is a ValueError.
    """
    operating_by_month = {mf.month: mf.operating for mf in plan.monthly}
    mined: list[tuple[str, float, str]] = []
    for day, network_ths in zip(window, network, strict=True):
        month = f"{day.year:04d}-{day.month:02d}"
        if month not in operating_by_month:
            raise ValidationError(f"scenario {plan.scenario}, {day.isoformat()}: plan has no entry for month {month}")
        operating = operating_by_month[month]
        fleet_ths = operating * miner.hashrate_ths
        btc = btc_per_day(fleet_ths, network_ths, block_reward(day), BLOCKS_PER_DAY)
        mined.append((day.isoformat(), btc, f"{operating},{fleet_ths!r},{network_ths!r},{btc!r}"))
    return mined


def run_case(
    source: str, scenario: int, mined: list[tuple[str, float, str]], prices: list[float]
) -> tuple[float, list[str]]:
    """Price one case: its scenario's mined days (mine_scenario's) at the
    case's price of each day, which prices holds day-aligned (a column of
    another length is a ValueError). Returns the case's revenue, summed in
    date order, and its ledger.csv lines in date order."""
    total = 0.0
    lines: list[str] = []
    for (day, btc, cells), price in zip(mined, prices, strict=True):
        revenue = daily_revenue(price, btc)
        # += in date order, as read_ledger_totals adds: from Python 3.12, sum() compensates floats
        total += revenue
        lines.append(f"{day},{scenario},{source},{cells},{revenue!r},{price!r}\n")
    return total, lines


def write_ledger_csv(lines: list[str], path, header_comment: str) -> None:
    """The ledger: LEDGER_COLUMNS, then `lines` (run_case's), in the order given."""
    with output_file(path, header_comment) as fh:
        fh.write(",".join(LEDGER_COLUMNS) + "\n")
        fh.writelines(lines)


def read_ledger_totals(path, sim_start: date, sim_end: date) -> dict[str, float]:
    """Per case label in a ledger.csv: the revenue summed in file order.

    A wrong header, a short row, a case not in CASES, a bad value or a revenue
    outside [0, the most one day can earn] is a ValidationError naming the
    line; a case without exactly one row per day from sim_start to sim_end, in
    date order, is one naming the case. A ledger without a row holds no case:
    the caller names each requested case it lacks.
    """
    # every block at the largest reward ever paid, sold at ingest's highest price
    max_revenue = MAX_PRICE_USD * max(reward for _, reward in HALVING_SCHEDULE) * BLOCKS_PER_DAY

    def parse_row(row: list[str]) -> tuple[str, str, float]:
        entry = DailyLedgerEntry._make(row)
        case = f"{entry.price_source}-{entry.scenario}"
        if case not in CASES:
            raise ValidationError(f"unknown case {case!r}")
        revenue = _parse_float(entry.revenue_usd, "revenue_usd")
        if not 0 <= revenue <= max_revenue:
            raise ValidationError(f"revenue_usd must be in [0, {max_revenue:g}], got {entry.revenue_usd!r}")
        return case, entry.day, revenue

    totals: dict[str, float] = {}
    case_days: dict[str, list[str]] = {}
    for _, (key, day, revenue) in _data_rows(path, LEDGER_COLUMNS, parse_row):
        totals[key] = totals.get(key, 0.0) + revenue
        case_days.setdefault(key, []).append(day)
    expected = [day.isoformat() for day in days(sim_start, sim_end)]
    for key, listed in case_days.items():
        if listed != expected:
            raise ValidationError(
                f"{path}: case {key} must have one row per day from {sim_start} to {sim_end}, in date order"
            )
    return totals
