"""Recompute the actual-price case totals for the bundled fixture.

Spreadsheet-style cross-check: reads market.csv, surplus.csv, and
fixture_config.json directly and rebuilds the two scenarios' revenue,
cost, and profit with nothing but the standard library. Must not import
the package under test. Writes expected_actual_totals.json.

Run: python3 gen_expected_totals.py
"""
import calendar
import csv
import json
import math
from datetime import date, timedelta
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

MINER_HASHRATE_THS = 473.0
MINER_POWER_W = 5676.0
MINER_UNIT_PRICE_USD = 10165.0
MINER_LIFESPAN_MONTHS = 90
BLOCKS_PER_DAY = 144

# block subsidy from each date (inclusive)
HALVINGS = [
    (date(2016, 7, 10), 12.5),
    (date(2020, 5, 12), 6.25),
    (date(2024, 4, 20), 3.125),
]


def block_reward(day):
    reward = None
    for start, r in HALVINGS:
        if day >= start:
            reward = r
    if reward is None:
        raise SystemExit(f"no subsidy known for {day}")
    return reward


def read_market(path):
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            d = date.fromisoformat(row["date"])
            out[d] = (float(row["price_usd"]), float(row["network_hashrate_ths"]))
    return out


def month_sums(path, first, last):
    sums = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            m = row["month"]
            if not first <= m <= last:
                raise SystemExit(f"month {m} outside {first}..{last}")
            sums[m] = sums.get(m, 0.0) + float(row["surplus_kwh"])
    return {m: sums[m] for m in sorted(sums)}


def hours_in_month(month):
    year, mon = int(month[:4]), int(month[5:7])
    return 24.0 * calendar.monthrange(year, mon)[1]


def main():
    cfg = json.loads((HERE / "fixture_config.json").read_text())
    loss_rate = cfg["loss_rate"]
    sim_start = date.fromisoformat(cfg["sim_start"])
    sim_end = date.fromisoformat(cfg["sim_end"])
    first_month, last_month = cfg["surplus_months"]

    market = read_market(HERE / cfg["market_csv"])
    sums = month_sums(HERE / cfg["surplus_csv"], first_month, last_month)

    power_kw = MINER_POWER_W / 1000.0
    supported = {}
    for month, total in sums.items():
        usable = total * (1.0 - loss_rate)
        supported[month] = int(math.floor(usable / (power_kw * hours_in_month(month))))

    counts = list(supported.values())
    owned1 = max(counts)
    owned2 = int(math.floor(sum(counts) / len(counts) + 0.5))
    operating = {
        1: {m: c for m, c in supported.items()},
        2: {m: min(owned2, c) for m, c in supported.items()},
    }
    owned = {1: owned1, 2: owned2}

    months = (sim_end.year - sim_start.year) * 12 + (sim_end.month - sim_start.month) + 1

    result = {"owned_units": owned, "cases": {}}
    for scenario in (1, 2):
        total_revenue = 0.0
        day = sim_start
        while day <= sim_end:
            price, network = market[day]
            month = f"{day.year:04d}-{day.month:02d}"
            fleet_ths = operating[scenario][month] * MINER_HASHRATE_THS
            share = fleet_ths / network
            btc = block_reward(day) * share * BLOCKS_PER_DAY
            total_revenue += price * btc
            day += timedelta(days=1)

        revenue = Decimal(str(total_revenue)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
        value = (
            Fraction(owned[scenario])
            * Fraction(Decimal(str(MINER_UNIT_PRICE_USD)))
            * Fraction(months)
            / Fraction(MINER_LIFESPAN_MONTHS)
        )
        cost = Decimal(math.floor(value * 100 + Fraction(1, 2))).scaleb(-2)
        result["cases"][f"actual-{scenario}"] = {
            "revenue_usd": str(revenue),
            "cost_usd": str(cost),
            "profit_usd": str(revenue - cost),
        }

    out = HERE / "expected_actual_totals.json"
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    for label, c in result["cases"].items():
        print(f"{label}: revenue={c['revenue_usd']} cost={c['cost_usd']} profit={c['profit_usd']}")


if __name__ == "__main__":
    main()
