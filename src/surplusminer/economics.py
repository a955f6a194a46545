"""Daily mining output, revenue, depreciation, and per-case profit reports.

A case is one (price source, scenario plan) pair. Each simulated day mines
reward x (fleet share of network hash rate) x 144 blocks, valued at the
case's price for that day. A case's revenue is the plain float sum, in date
order, of its ledger rows read back from ledger.csv; money becomes exact cents
(Decimal) at the report boundary, and depreciation is exact rational
arithmetic throughout, so profit = revenue - cost holds to the cent.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from datetime import date, timedelta
from decimal import ROUND_HALF_UP, Context, Decimal, Inexact, InvalidOperation
from fractions import Fraction
from typing import NamedTuple

from .errors import DataInsufficientError, ValidationError
from .fleet import HALVING_SCHEDULE, MinerSpec, ScenarioPlan, block_reward
from .ingest import MAX_PRICE_USD, MarketSeries, _data_rows, _parse_float, write_output_csv

logger = logging.getLogger(__name__)

BLOCKS_PER_DAY = 144

_CENT = Decimal("0.01")
# The money step that must not round: cents past the 28 significant digits
# of decimal's default precision raise instead of being rounded away.
_EXACT = Context(traps=[Inexact])


def btc_per_day(
    fleet_hashrate_ths: float,
    network_hashrate_ths: float,
    reward_btc: float,
    blocks_per_day: int = BLOCKS_PER_DAY,
) -> float:
    """Expected BTC mined per day: reward x (fleet/network) x blocks.

    A fleet share above 1 is physically impossible and is capped (with a
    warning) rather than extrapolated.
    """
    if network_hashrate_ths <= 0:
        raise ValidationError(f"network hash rate must be > 0, got {network_hashrate_ths!r}")
    if fleet_hashrate_ths < 0:
        raise ValidationError(f"fleet hash rate must be >= 0, got {fleet_hashrate_ths!r}")
    if reward_btc < 0:
        raise ValidationError(f"reward must be >= 0, got {reward_btc!r}")
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
    """Revenue for one day: price x BTC mined (exact float product)."""
    if price_used_usd < 0:
        raise ValidationError(f"price must be >= 0, got {price_used_usd!r}")
    if btc < 0:
        raise ValidationError(f"btc must be >= 0, got {btc!r}")
    return price_used_usd * btc


def depreciation_cost(
    owned_units: int,
    unit_price_usd: float,
    months_operated: int,
    lifespan_months: int = 90,
) -> Decimal:
    """Straight-line hardware cost for the months operated, in exact cents.

    owned x price x months / lifespan, evaluated as an exact rational and
    rounded half-up to cents only at the end. Cents past 28 significant
    digits raise decimal.Inexact rather than round.
    """
    if lifespan_months <= 0:
        raise ValidationError(f"lifespan_months must be > 0, got {lifespan_months}")
    if owned_units < 0 or unit_price_usd < 0 or months_operated < 0:
        raise ValidationError("owned_units, unit_price_usd, months_operated must be >= 0")
    value = (
        Fraction(owned_units)
        * Fraction(Decimal(str(unit_price_usd)))
        * Fraction(months_operated)
        / Fraction(lifespan_months)
    )
    cents = math.floor(value * 100 + Fraction(1, 2))
    return Decimal(cents).scaleb(-2, _EXACT)


def solo_mining_time(
    miner_hashrate_ths: float,
    network_hashrate_ths: float,
    reward_btc: float,
) -> float:
    """Expected days for one miner to earn 1 BTC: 1 / btc_per_day."""
    if miner_hashrate_ths <= 0 or reward_btc <= 0:
        raise ValidationError("miner hash rate and reward must be > 0")
    rate = btc_per_day(miner_hashrate_ths, network_hashrate_ths, reward_btc)
    return 1.0 / rate


def usd_cents(amount: float) -> Decimal:
    """Float dollars -> Decimal rounded half-up to cents; decimal.InvalidOperation
    when the cents need more than 28 significant digits."""
    return Decimal(str(amount)).quantize(_CENT, rounding=ROUND_HALF_UP)


def usd_millions(amount: Decimal) -> int:
    """Dollars -> nearest whole million (half-up), for summary tables."""
    return int((amount / Decimal(1_000_000)).to_integral_value(rounding=ROUND_HALF_UP))


@dataclass
class PriceSource:
    """Daily prices for one case, keyed by the day they apply to."""

    label: str
    prices: dict[date, float]

    def __post_init__(self) -> None:
        if not self.prices:
            raise DataInsufficientError(f"price source {self.label!r} is empty")

    @classmethod
    def from_market(cls, market: MarketSeries) -> "PriceSource":
        return cls("actual", {r.day: r.price_usd for r in market.records})

    def price_for(self, day: date) -> float:
        price = self.prices.get(day)
        if price is None:
            raise ValidationError(f"price source {self.label!r} has no price for {day.isoformat()}")
        return price


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
    """Distinct calendar months touched by [start, end]."""
    if end < start:
        raise ValidationError("end before start")
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


def run_case(
    plan: ScenarioPlan,
    prices: PriceSource,
    market: MarketSeries,
    miner: MinerSpec,
    sim_start: date,
    sim_end: date,
    blocks_per_day: int = BLOCKS_PER_DAY,
) -> list[DailyLedgerEntry]:
    """Simulate one case day by day over [sim_start, sim_end]; its ledger
    rows in date order.

    Each day uses block_reward(day), the plan's operating units for the
    day's month, the day's actual network hash rate, and the case's price.
    Missing hash rate or price for any day is an error, and any error on a
    day names the case and the day.
    """
    if sim_end < sim_start:
        raise ValidationError("sim_end before sim_start")

    entries: list[DailyLedgerEntry] = []
    day = sim_start
    while day <= sim_end:
        try:
            record = market.lookup(day)
            if record is None:
                raise ValidationError("market series has no hash rate")
            month = f"{day.year:04d}-{day.month:02d}"
            operating = plan.fleet_for(month).operating
            fleet_ths = operating * miner.hashrate_ths
            price = prices.price_for(day)
            btc = btc_per_day(fleet_ths, record.network_hashrate_ths, block_reward(day), blocks_per_day)
            revenue = daily_revenue(price, btc)
        except ValidationError as exc:
            raise ValidationError(f"case {prices.label}-{plan.scenario}, {day.isoformat()}: {exc}") from None
        entries.append(
            DailyLedgerEntry(
                day=day,
                scenario=plan.scenario,
                price_source=prices.label,
                operating_units=operating,
                fleet_hashrate_ths=fleet_ths,
                network_hashrate_ths=record.network_hashrate_ths,
                btc_mined=btc,
                revenue_usd=revenue,
                price_used_usd=price,
            )
        )
        day += timedelta(days=1)
    return entries


def write_ledger_csv(entries: list[DailyLedgerEntry], path, header_comment: str | None = None) -> None:
    """Ledger rows, in the order given."""
    write_output_csv(path, LEDGER_COLUMNS, entries, header_comment)


def read_ledger_totals(path, blocks_per_day: int, sim_start: date, sim_end: date) -> dict[str, float]:
    """Per case label in a ledger.csv (price source-scenario): the revenue
    summed in file order.

    A wrong header, a short row, a bad value or a revenue outside [0, the most
    one day can earn] is a ValidationError naming the line; a case without
    exactly one row per day from sim_start to sim_end, in date order, is one
    naming the case; a ledger without a row is a DataInsufficientError.
    """
    # every block at the largest reward ever paid, sold at ingest's highest price
    max_revenue = MAX_PRICE_USD * max(reward for _, reward in HALVING_SCHEDULE) * blocks_per_day

    def parse_row(row: list[str]) -> tuple[str, str, float]:
        entry = DailyLedgerEntry._make(row)
        if entry.scenario not in ("1", "2"):
            raise ValidationError(f"invalid scenario {entry.scenario!r}")
        revenue = _parse_float(entry.revenue_usd, "revenue_usd")
        if not 0 <= revenue <= max_revenue:
            raise ValidationError(f"revenue_usd must be in [0, {max_revenue:g}], got {entry.revenue_usd!r}")
        return f"{entry.price_source}-{entry.scenario}", entry.day, revenue

    totals: dict[str, float] = {}
    days: dict[str, list[str]] = {}
    for _, (key, day, revenue) in _data_rows(path, LEDGER_COLUMNS, parse_row):
        totals[key] = totals.get(key, 0.0) + revenue
        days.setdefault(key, []).append(day)
    expected = [(sim_start + timedelta(days=i)).isoformat() for i in range((sim_end - sim_start).days + 1)]
    for key, case_days in days.items():
        if case_days != expected:
            raise ValidationError(
                f"{path}: case {key} must have one row per day from {sim_start} to {sim_end}, in date order"
            )
    return totals
