"""Seeded paper-scale inputs for the benchmark: market and surplus CSVs plus configs.

The market series runs daily over 2016-01-01..2023-12-31 at real-world
magnitudes: price follows a log-linear path through historical anchor points
with mean-reverting noise, and network hash rate follows its own anchors with
daily noise. Both noises are bounded (tanh), so price stays within
$400..$69k and hash rate within 1e6..5e8 TH/s without clipping, which would
leave runs of tied values. About 1% of days are dropped (never the first or
last day), so ingest has gaps to fill. Surplus energy is monthly for three
regions over 2020-01..2023-12, sized so that the fleet's hash rate stays far
below the network's: the fleet-share cap never fires.

The same seed gives byte-identical files. Usage:

    python3 bench/gen_inputs.py --seed 1 --out bench/work/inputs
"""
from __future__ import annotations

import argparse
import csv
import json
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np

MARKET_START = date(2016, 1, 1)
MARKET_END = date(2023, 12, 31)
PRICE_RANGE = (400.0, 69_000.0)
HASHRATE_RANGE = (1.0e6, 5.0e8)
# Largest log deviation from the anchor path; the anchors keep this much
# room inside the ranges above.
PRICE_NOISE = 0.12
HASHRATE_NOISE = 0.04
DROP_SHARE = 0.01

PRICE_ANCHORS = (
    (date(2016, 1, 1), 460.0),
    (date(2016, 6, 15), 690.0),
    (date(2016, 12, 31), 960.0),
    (date(2017, 6, 15), 2_450.0),
    (date(2017, 12, 17), 19_000.0),
    (date(2018, 2, 6), 7_000.0),
    (date(2018, 12, 15), 3_250.0),
    (date(2019, 6, 26), 12_000.0),
    (date(2019, 12, 31), 7_200.0),
    (date(2020, 3, 13), 4_900.0),
    (date(2020, 12, 31), 29_000.0),
    (date(2021, 4, 14), 60_000.0),
    (date(2021, 7, 20), 30_000.0),
    (date(2021, 11, 10), 61_000.0),
    (date(2022, 6, 18), 19_000.0),
    (date(2022, 11, 21), 15_800.0),
    (date(2023, 4, 14), 30_500.0),
    (date(2023, 9, 11), 25_000.0),
    (date(2023, 12, 31), 42_300.0),
)
HASHRATE_ANCHORS = (
    (date(2016, 1, 1), 1.05e6),
    (date(2016, 7, 1), 1.5e6),
    (date(2017, 1, 1), 2.5e6),
    (date(2017, 7, 1), 6.0e6),
    (date(2018, 1, 1), 2.2e7),
    (date(2018, 8, 1), 5.5e7),
    (date(2018, 12, 15), 3.6e7),
    (date(2019, 6, 1), 6.5e7),
    (date(2020, 1, 1), 1.1e8),
    (date(2020, 5, 15), 1.0e8),
    (date(2021, 5, 1), 1.8e8),
    (date(2021, 7, 1), 9.0e7),
    (date(2022, 1, 1), 1.9e8),
    (date(2022, 12, 1), 2.6e8),
    (date(2023, 6, 1), 3.8e8),
    (date(2023, 12, 31), 4.8e8),
)

SURPLUS_MONTHS = ("2020-01", "2023-12")
REGIONS = (("coastal", 1200, 4.2e6), ("highland", 800, 2.8e6), ("valley", 450, 1.6e6))

# Split dates per workload; every other key keeps the program's default
# (100 trees, 20 epochs, hidden size 64, ...).
CONFIGS = {
    "paper": {
        "analysis_start": "2016-01-01",
        "train_start": "2016-01-16",
        "train_end": "2022-12-31",
        "test_start": "2023-01-01",
        "test_end": "2023-12-31",
        "sim_start": "2023-01-01",
        "sim_end": "2023-12-31",
    },
    "paper-longsim": {
        "analysis_start": "2016-01-01",
        "train_start": "2016-01-16",
        "train_end": "2019-12-31",
        "test_start": "2020-01-01",
        "test_end": "2023-12-31",
        "sim_start": "2020-01-01",
        "sim_end": "2023-12-31",
    },
}


def _log_path(anchors, days: np.ndarray) -> np.ndarray:
    """Log-linear interpolation through (date, value) anchors at day offsets."""
    xs = [(d - MARKET_START).days for d, _ in anchors]
    ys = [math.log(v) for _, v in anchors]
    return np.interp(days, xs, ys)


def market_rows(seed: int) -> list[tuple[str, str, str]]:
    """Daily (date, price, hash rate) rows as CSV strings, with ~1% of days dropped."""
    rng = np.random.default_rng([seed, 0])
    n = (MARKET_END - MARKET_START).days + 1
    days = np.arange(n)
    shocks = rng.normal(0.0, 0.03, size=n)
    wander = np.empty(n)
    level = 0.0
    for i in range(n):
        level = 0.95 * level + shocks[i]
        wander[i] = level
    prices = np.exp(_log_path(PRICE_ANCHORS, days) + PRICE_NOISE * np.tanh(wander / PRICE_NOISE))
    jitter = rng.normal(0.0, 0.03, size=n)
    hashrate = np.exp(
        _log_path(HASHRATE_ANCHORS, days) + HASHRATE_NOISE * np.tanh(jitter / HASHRATE_NOISE)
    )
    dropped = set(rng.choice(np.arange(1, n - 1), size=round(DROP_SHARE * n), replace=False).tolist())
    return [
        (
            (MARKET_START + timedelta(days=i)).isoformat(),
            repr(round(float(prices[i]), 2)),
            repr(round(float(hashrate[i]), 1)),
        )
        for i in range(n)
        if i not in dropped
    ]


def surplus_rows(seed: int) -> list[tuple[str, str, int, str]]:
    """Monthly (region, month, households, kWh) rows over SURPLUS_MONTHS."""
    rng = np.random.default_rng([seed, 1])
    first, last = (int(m[:4]) for m in SURPLUS_MONTHS)
    months = [(y, m) for y in range(first, last + 1) for m in range(1, 13)]
    rows = []
    for region, households, base in REGIONS:
        for year, month in months:
            season = 1.0 + 0.35 * math.sin(2.0 * math.pi * (month - 3) / 12.0)
            noise = max(float(rng.normal(1.0, 0.05)), 0.5)
            rows.append((region, f"{year:04d}-{month:02d}", households, repr(round(base * season * noise, 1))))
    return rows


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_inputs(dest: Path, seed: int) -> dict[str, Path]:
    """Write market.csv, surplus.csv and one config per workload into dest.

    Returns the config path of each workload.
    """
    dest.mkdir(parents=True, exist_ok=True)
    _write_csv(dest / "market.csv", ["date", "price_usd", "network_hashrate_ths"], market_rows(seed))
    _write_csv(dest / "surplus.csv", ["region", "month", "households", "surplus_kwh"], surplus_rows(seed))
    configs = {}
    for name, splits in CONFIGS.items():
        doc = {
            "market_csv": "market.csv",
            "surplus_csv": "surplus.csv",
            **splits,
            "seed": 42,
            "surplus_months": list(SURPLUS_MONTHS),
        }
        path = dest / f"{name}_config.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        configs[name] = path
    return configs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for name, path in write_inputs(args.out, args.seed).items():
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
