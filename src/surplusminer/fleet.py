"""Fleet sizing from monthly surplus energy, and the block subsidy schedule.

Surplus energy is derated by a fixed transmission/conversion loss, divided by
one miner's monthly consumption to get the supported unit count, and turned
into two purchase plans: scenario 1 owns the peak month's count and runs all
supported units each month; scenario 2 owns the (half-up rounded) mean count
and runs what it owns, capped by the month's supported count.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple

from .errors import DataInsufficientError, ValidationError
from .ingest import MonthlySurplusTotal, days_in_month, write_output_csv

logger = logging.getLogger(__name__)

DEFAULT_LOSS_RATE = 0.0359  # combined transmission/conversion loss fraction


@dataclass(frozen=True)
class MinerSpec:
    """Nameplate figures for one mining unit."""

    name: str = "Antminer S21 XP Hyd"
    hashrate_ths: float = 473.0
    power_w: float = 5676.0
    efficiency_j_per_th: float = 12.0
    unit_price_usd: float = 10165.0
    lifespan_months: int = 90

    def __post_init__(self) -> None:
        if not self.name or not self.name.isprintable():
            raise ValidationError(f"miner.name must be non-empty and printable, got {self.name!r}")
        for attr in ("hashrate_ths", "power_w", "efficiency_j_per_th", "unit_price_usd"):
            if getattr(self, attr) <= 0:
                raise ValidationError(f"{attr} must be > 0, got {getattr(self, attr)!r}")
        if self.lifespan_months <= 0:
            raise ValidationError(f"lifespan_months must be > 0, got {self.lifespan_months}")
        implied = self.power_w / self.hashrate_ths  # W per TH/s == J per TH
        if abs(implied - self.efficiency_j_per_th) > 0.05 * self.efficiency_j_per_th:
            raise ValidationError(
                f"efficiency {self.efficiency_j_per_th} J/TH inconsistent with "
                f"power/hashrate = {implied:.2f} J/TH"
            )

    @property
    def power_kw(self) -> float:
        return self.power_w / 1000.0


def usable_energy(surplus_kwh: float, loss_rate: float) -> float:
    """Energy left after the fixed loss fraction: kwh * (1 - loss_rate)."""
    if not 0.0 <= loss_rate < 1.0:
        raise ValidationError(f"loss_rate must be in [0, 1), got {loss_rate!r}")
    if surplus_kwh < 0:
        raise ValidationError(f"surplus_kwh must be >= 0, got {surplus_kwh!r}")
    return surplus_kwh * (1.0 - loss_rate)


def hours_in_month(month: str) -> float:
    """Calendar-exact hours in a YYYY-MM month."""
    return 24.0 * days_in_month(month)


def supported_units(usable_kwh: float, miner: MinerSpec, hours: float) -> int:
    """Whole miners the energy can run around the clock: floor(kWh / (kW * h))."""
    if usable_kwh < 0:
        raise ValidationError(f"usable_kwh must be >= 0, got {usable_kwh!r}")
    if hours <= 0:
        raise ValidationError(f"hours must be > 0, got {hours!r}")
    units = usable_kwh / (miner.power_kw * hours)
    if not math.isfinite(units):
        raise ValidationError(f"miner.power_w {miner.power_w!r} is too small: {usable_kwh!r} kWh runs {units} units")
    return int(math.floor(units))


@dataclass(frozen=True)
class MonthlyCapacity:
    """Per-month energy budget and the unit count it supports."""

    month: str
    usable_kwh: float
    supported: int


def month_capacity(total: MonthlySurplusTotal, miner: MinerSpec, loss_rate: float) -> MonthlyCapacity:
    usable = usable_energy(total.total_kwh, loss_rate)
    return MonthlyCapacity(
        month=total.month,
        usable_kwh=usable,
        supported=supported_units(usable, miner, hours_in_month(total.month)),
    )


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

    def fleet_for(self, month: str) -> MonthlyFleet:
        for mf in self.monthly:
            if mf.month == month:
                return mf
        raise ValidationError(f"plan has no entry for month {month}")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _monthly_fleet(cap: MonthlyCapacity, scenario: int, operating: int, miner: MinerSpec) -> MonthlyFleet:
    used = operating * miner.power_kw * hours_in_month(cap.month)
    return MonthlyFleet(
        month=cap.month,
        scenario=scenario,
        supported=cap.supported,
        operating=operating,
        energy_used_kwh=used,
        energy_idle_kwh=cap.usable_kwh - used,
    )


def build_scenarios(
    capacities: list[MonthlyCapacity],
    miner: MinerSpec,
) -> tuple[ScenarioPlan, ScenarioPlan]:
    """Build the two purchase plans from per-month supported counts.

    Scenario 1 buys the maximum supported count and runs each month's full
    supported count (surplus is never exceeded). Scenario 2 buys the
    half-up-rounded mean count and runs min(owned, supported) each month.
    """
    if not capacities:
        raise DataInsufficientError("no monthly capacities to plan from")
    months = [c.month for c in capacities]
    if len(set(months)) != len(months):
        raise ValidationError("duplicate months in capacity list")
    ordered = sorted(capacities, key=lambda c: c.month)

    counts = [c.supported for c in ordered]
    owned1 = max(counts)
    owned2 = _round_half_up(sum(counts) / len(counts))

    plan1 = ScenarioPlan(
        scenario=1,
        owned_units=owned1,
        monthly=tuple(_monthly_fleet(c, 1, c.supported, miner) for c in ordered),
    )
    plan2 = ScenarioPlan(
        scenario=2,
        owned_units=owned2,
        monthly=tuple(_monthly_fleet(c, 2, min(owned2, c.supported), miner) for c in ordered),
    )
    return plan1, plan2


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


def write_fleet_csv(plans: list[ScenarioPlan], path, header_comment: str | None = None) -> None:
    """Write every plan's MonthlyFleet rows, plan by plan."""
    write_output_csv(path, MonthlyFleet._fields, (mf for plan in plans for mf in plan.monthly), header_comment)
