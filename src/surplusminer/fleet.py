"""Fleet sizing from monthly surplus energy, and the block subsidy schedule.

build_scenarios sizes both purchase plans in one pass over the monthly
surplus totals. A month's usable energy is its surplus kWh less a fixed
transmission/conversion loss, kwh * (1 - loss_rate); it runs
floor(usable / (kW * hours)) miners around the clock, the month's supported
count. Scenario 1 owns the peak month's count and runs all supported units
each month; scenario 2 owns the (half-up rounded) mean count and runs what it
owns, capped by the month's supported count. The inputs are checked where
they enter: the loss rate by the run config, each region's kWh by its
surplus record.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple

from .errors import ValidationError
from .ingest import MonthlySurplusTotal, days_in_month, write_output_csv

DEFAULT_LOSS_RATE = 0.0359  # combined transmission/conversion loss fraction


@dataclass(frozen=True)
class MinerSpec:
    """Nameplate figures for one mining unit; its efficiency in J/TH is
    power_w / hashrate_ths (12 for the default)."""

    name: str = "Antminer S21 XP Hyd"
    hashrate_ths: float = 473.0
    power_w: float = 5676.0
    unit_price_usd: float = 10165.0
    lifespan_months: int = 90

    def __post_init__(self) -> None:
        if not self.name or not self.name.isprintable():
            raise ValidationError(f"name must be non-empty and printable, got {self.name!r}")
        for attr in ("hashrate_ths", "power_w", "unit_price_usd"):
            if getattr(self, attr) <= 0:
                raise ValidationError(f"{attr} must be > 0, got {getattr(self, attr)!r}")
        if self.lifespan_months <= 0:
            raise ValidationError(f"lifespan_months must be > 0, got {self.lifespan_months}")

    @property
    def power_kw(self) -> float:
        return self.power_w / 1000.0


class MonthlyFleet(NamedTuple):
    """Operating outcome for one month under a purchase plan: a fleet.csv row,
    its fields in column order."""

    month: str
    scenario: int
    supported: int
    operating: int
    energy_used_kwh: float
    energy_idle_kwh: float


@dataclass(frozen=True)
class ScenarioPlan:
    """A purchase plan: units owned, and the month-by-month operating schedule."""

    scenario: int
    owned_units: int
    monthly: tuple[MonthlyFleet, ...]


def build_scenarios(
    totals: list[MonthlySurplusTotal],
    miner: MinerSpec,
    loss_rate: float,
) -> tuple[ScenarioPlan, ScenarioPlan]:
    """The two purchase plans (module docstring) from the monthly surplus
    totals, one per month in month order, as ingest.monthly_totals gives them.
    A miner so small that a month runs no finite count is a ValidationError.
    """
    months = []  # (month, hours, usable kWh, supported units)
    for month, kwh in totals:
        hours = 24.0 * days_in_month(month)
        usable = kwh * (1.0 - loss_rate)
        units = usable / (miner.power_kw * hours)
        if not math.isfinite(units):
            raise ValidationError(f"miner.power_w {miner.power_w!r} is too small: {usable!r} kWh runs {units} units")
        months.append((month, hours, usable, math.floor(units)))
    counts = [supported for *_, supported in months]
    owned2 = math.floor(sum(counts) / len(counts) + 0.5)

    def plan(scenario: int, owned: int) -> ScenarioPlan:
        # scenario 1 owns the peak count, so it runs each month's supported count
        monthly = []
        for month, hours, usable, supported in months:
            operating = min(owned, supported)
            used = operating * miner.power_kw * hours
            monthly.append(MonthlyFleet(month, scenario, supported, operating, used, usable - used))
        return ScenarioPlan(scenario, owned, tuple(monthly))

    return plan(1, max(counts)), plan(2, owned2)


# Block subsidy schedule: from each date (inclusive) the listed reward applies.
# A halving day itself already pays the new, lower reward.
HALVING_SCHEDULE: tuple[tuple[date, float], ...] = (
    (date(2012, 11, 28), 25.0),
    (date(2016, 7, 10), 12.5),
    (date(2020, 5, 12), 6.25),
    (date(2024, 4, 20), 3.125),
)


def block_reward(day: date) -> float:
    """BTC paid per block on the given day."""
    if day < HALVING_SCHEDULE[0][0]:
        raise ValidationError(
            f"no reward defined before {HALVING_SCHEDULE[0][0].isoformat()}, got {day.isoformat()}"
        )
    reward = HALVING_SCHEDULE[0][1]
    for start, value in HALVING_SCHEDULE:
        if day >= start:
            reward = value
        else:
            break
    return reward


def write_fleet_csv(plans: list[ScenarioPlan], path, header_comment: str) -> None:
    """Write every plan's MonthlyFleet rows, plan by plan."""
    write_output_csv(path, MonthlyFleet._fields, (mf for plan in plans for mf in plan.monthly), header_comment)
