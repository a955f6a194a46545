"""Shipping gate: one test per release criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The last check needs the real datasets (see the env vars below) and is
skipped otherwise.
"""
import json
import math
import os
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from surplusminer.cli import main
from surplusminer.economics import (
    BLOCKS_PER_DAY,
    btc_per_day,
    daily_revenue,
    depreciation_cost,
    usd_millions,
)
from surplusminer.errors import ValidationError
from surplusminer.fleet import HALVING_SCHEDULE, block_reward
from surplusminer.forest import ForestParams, bootstrap_sample, grow_tree, predict_tree
from surplusminer.indicators import (
    FEATURE_WINDOW,
    build_features,
    feature_values,
    mean,
    rsi,
    stoch_k,
    weighted_mean,
)
from surplusminer.lstm import PARAM_NAMES, TrainConfig, bptt_gradients, fit_lstm, init_weights

import oracles
from conftest import DATA_DIR, FIXTURE_CONFIG, make_series
from test_lstm import sine_prices


def verdict(cid: str, ok: bool, detail: str) -> None:
    print(f"{cid} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{cid}: {detail}"


def test_c01_depreciation_exact_to_the_cent():
    big = depreciation_cost(45_439, 10_165.0, 12, 90)
    mid = depreciation_cost(30_565, 10_165.0, 12, 90)
    ok = (
        big == Decimal("61584991.33")
        and mid == Decimal("41425763.33")
        and usd_millions(big) == 62
        and usd_millions(mid) == 41
    )
    verdict("C01", ok, f"12-month cost {big} / {mid}, millions {usd_millions(big)}/{usd_millions(mid)}")


def test_c02_revenue_matches_committed_recomputation():
    doc = json.loads((DATA_DIR / "expected_revenue_10day.json").read_text())
    total = 0.0
    for entry in doc["days"]:
        day = date.fromisoformat(entry["date"])
        fleet = entry["operating_units"] * doc["miner_hashrate_ths"]
        btc = btc_per_day(
            fleet, entry["network_hashrate_ths"], block_reward(day), doc["blocks_per_day"]
        )
        total += daily_revenue(entry["price_usd"], btc)
    want = doc["expected_total_revenue_usd"]
    rel = abs(total - want) / abs(want)
    verdict("C02", rel <= 1e-9, f"10-day revenue {total!r} vs committed {want!r} (rel {rel:.2e})")


def test_c03_block_reward_boundaries_and_monotonicity():
    problems = []
    for i, (boundary, new_reward) in enumerate(HALVING_SCHEDULE):
        if block_reward(boundary) != new_reward:
            problems.append(f"{boundary}: {block_reward(boundary)} != {new_reward}")
        if i > 0:
            old_reward = HALVING_SCHEDULE[i - 1][1]
            if block_reward(boundary - timedelta(days=1)) != old_reward:
                problems.append(f"day before {boundary} != {old_reward}")
    # dates before the schedule are undefined, the first boundary has no
    # in-range day before it
    with pytest.raises(ValidationError):
        block_reward(HALVING_SCHEDULE[0][0] - timedelta(days=1))

    rng = np.random.default_rng(20121128)
    first = HALVING_SCHEDULE[0][0].toordinal()
    span = date(2100, 1, 1).toordinal() - first
    ordinals = rng.integers(0, span, size=(10_000, 2))
    for a, b in ordinals:
        lo, hi = sorted((int(a), int(b)))
        if block_reward(date.fromordinal(first + lo)) < block_reward(date.fromordinal(first + hi)):
            problems.append(f"reward increased between offsets {lo} and {hi}")
            break
    verdict("C03", not problems, problems[0] if problems else
            "4 boundary days exact, 3 prior days exact, 10^4 random date pairs monotone")


def test_c04_tree_growth_matches_exhaustive_search():
    rng = np.random.default_rng(20240404)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(2, 13))
        p = int(rng.integers(1, 4))
        depth = int(rng.integers(0, 3))
        cols = []
        for _ in range(p):
            if rng.random() < 0.5:
                cols.append(rng.choice([0.0, 1.0, 2.0, 3.0], size=n))
            else:
                cols.append(rng.normal(0.0, 1.0, size=n))
        X = np.column_stack(cols)
        if rng.random() < 0.5:
            y = rng.choice([0.0, 1.0, 2.0], size=n)
        else:
            y = rng.normal(0.0, 1.0, size=n)

        params = ForestParams(n_trees=1, m_try=p, max_depth=depth, seed=1)
        tree = grow_tree(X, y, params, np.random.default_rng(trial))
        naive = oracles.naive_grow([list(row) for row in X], list(y), depth)

        assert oracles.same_tree(tree, naive), f"trial {trial}: structure differs"
        got_sse = sum((predict_tree(tree, row) - t) ** 2 for row, t in zip(X, y))
        want_sse = sum((oracles.naive_predict(naive, list(row)) - t) ** 2 for row, t in zip(X, y))
        assert got_sse == pytest.approx(want_sse, rel=1e-9, abs=1e-12), f"trial {trial}: SSE"
        checked += 1
    verdict("C04", checked == 200, f"{checked}/200 random trees equal exhaustive search")


def test_c05_bootstrap_distinct_fraction():
    rng = np.random.default_rng(632)
    n = 10_000
    fractions = [len(np.unique(bootstrap_sample(n, rng))) / n for _ in range(1000)]
    mean = float(np.mean(fractions))
    ok = abs(mean - 0.632) <= 0.01
    verdict("C05", ok, f"mean distinct fraction {mean:.4f} over 1000 resamples of n=10^4")


def test_c06_lstm_gradients_match_finite_differences():
    d, h, T, m, eps, tol = 2, 3, 4, 3, 1e-5, 1e-4
    rng = np.random.default_rng(6)
    w = init_weights(d, h, seed=6)
    windows = rng.normal(0.0, 1.0, size=(m, T, d))
    targets = rng.normal(0.0, 1.0, size=m)
    grads, _ = bptt_gradients(windows, targets, w)
    params, grads = dict(w.items()), dict(grads.items())
    worst = 0.0
    entries = 0
    for name in PARAM_NAMES:
        flat_arr = params[name].reshape(-1)
        flat_grad = np.atleast_1d(np.asarray(grads[name], dtype=float)).reshape(-1)
        for j in range(flat_arr.size):
            orig = flat_arr[j]
            flat_arr[j] = orig + eps
            _, loss_hi = bptt_gradients(windows, targets, w)
            flat_arr[j] = orig - eps
            _, loss_lo = bptt_gradients(windows, targets, w)
            flat_arr[j] = orig
            numeric = (loss_hi - loss_lo) / (2.0 * eps)
            denom = max(abs(numeric), abs(flat_grad[j]), 1e-8)
            err = abs(numeric - flat_grad[j]) / denom
            worst = max(worst, err)
            entries += 1
            assert err < tol, f"{name}[{j}]: analytic {flat_grad[j]!r} vs numeric {numeric!r}"
    verdict("C06", worst < tol, f"{entries} parameter entries, worst relative error {worst:.2e}")


def test_c07_lstm_loss_declines_with_default_epochs():
    matrix = build_features(make_series(sine_prices(200)))
    model = fit_lstm(matrix, TrainConfig(seed=7))
    trace = model.loss_trace
    ok = len(trace) == 20 and trace[-1] < trace[0]
    verdict("C07", ok, f"epoch loss {trace[0]:.6f} -> {trace[-1]:.6f} over {len(trace)} epochs")


def test_c08_indicators_match_per_index_recomputation():
    rng = np.random.default_rng(888)
    steps = rng.normal(0.0, 0.02, size=10_000)
    prices = [float(v) for v in 40_000.0 * np.exp(np.cumsum(steps))]
    n, m = 14, 3
    last = len(prices)
    days = range(n - 1, last)
    k_vals = [stoch_k(prices[t - n + 1 : t + 1]) for t in days]
    rsi_vals = [rsi(prices[t - n : t + 1]) for t in range(n, last)]
    # momentum and %D are made only inside feature_values, from 0-based day 15 on
    feature_days = range(FEATURE_WINDOW - 1, last)
    features = [feature_values(prices[t - FEATURE_WINDOW + 1 : t + 1]) for t in feature_days]
    d_vals = [f[4] for f in features]
    exact = (
        [mean(prices[t - n + 1 : t + 1]) for t in days]
        == [oracles.oracle_sma(prices, t, n) for t in days]
        and [weighted_mean(prices[t - n + 1 : t + 1]) for t in days]
        == [oracles.oracle_wma(prices, t, n) for t in days]
        and [f[2] for f in features]
        == [oracles.oracle_momentum(prices, t, 1) for t in feature_days]
        and k_vals == [oracles.oracle_k(prices, t, n) for t in days]
        and d_vals == [oracles.oracle_d(prices, t, n, m) for t in feature_days]
        and rsi_vals == [oracles.oracle_rsi(prices, t, n) for t in range(n, last)]
    )
    bounded = all(
        0.0 <= v <= 100.0 for series in (k_vals, d_vals, rsi_vals) for v in series
    )
    verdict("C08", exact and bounded,
            f"6 indicators exact on 10^4 points, oscillators bounded: {bounded}")


def test_c09_solo_mining_time_sanity():
    days = 1.0 / btc_per_day(500.0, 612_100_000.0, 3.125, BLOCKS_PER_DAY)
    years = days / 365.25
    verdict("C09", 7.0 <= years <= 8.0, f"1 BTC at 500 TH/s takes {days:.1f} days = {years:.2f} years")


def test_c10_pipeline_determinism(tmp_path):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        for cmd in ("ingest", "features", "train", "simulate"):
            rc = main([cmd, "--config", str(FIXTURE_CONFIG), "--out", str(out)])
            assert rc == 0, f"{cmd} exited {rc}"
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    same_names = set(outs[0]) == set(outs[1])
    diff = [name for name in outs[0] if outs[0][name] != outs[1].get(name)]
    verdict("C10", same_names and not diff,
            f"{len(outs[0])} files byte-identical across two runs" if not diff
            else f"differs: {diff}")


REAL_MARKET = os.environ.get("SURPLUSMINER_REAL_MARKET_CSV")
REAL_SURPLUS = os.environ.get("SURPLUSMINER_REAL_SURPLUS_CSV")


@pytest.mark.skipif(
    not (REAL_MARKET and REAL_SURPLUS),
    reason="set SURPLUSMINER_REAL_MARKET_CSV and SURPLUSMINER_REAL_SURPLUS_CSV to run",
)
def test_c11_real_data_quality(tmp_path):
    cfg_doc = {
        "market_csv": str(Path(REAL_MARKET).resolve()),
        "surplus_csv": str(Path(REAL_SURPLUS).resolve()),
        "analysis_start": "2016-01-01",
        "train_start": "2016-01-16",
        "train_end": "2022-12-31",
        "test_start": "2023-01-01",
        "test_end": "2023-09-23",
        "sim_start": "2023-01-01",
        "sim_end": "2023-09-23",
        "seed": 42,
    }
    cfg_path = tmp_path / "real_config.json"
    cfg_path.write_text(json.dumps(cfg_doc), encoding="utf-8")
    out = tmp_path / "out"
    for cmd in ("ingest", "features", "train", "simulate"):
        rc = main([cmd, "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0, f"{cmd} exited {rc}"

    r2 = {}
    for line in (out / "eval.csv").read_text(encoding="utf-8").splitlines():
        parts = line.split(",")
        if parts[0] in ("forest", "lstm") and parts[1] == "test":
            r2[parts[0]] = float(parts[-1])

    revenue = {"actual-1": 0.0, "actual-2": 0.0}
    import csv as _csv
    with open(out / "ledger.csv", newline="", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            fh.seek(0)
        for row in _csv.DictReader(fh):
            key = f"{row['price_source']}-{row['scenario']}"
            if key in revenue:
                revenue[key] += float(row["revenue_usd"])

    checks = {
        "forest r2": (r2.get("forest", float("-inf")), 0.85),
        "lstm r2": (r2.get("lstm", float("-inf")), 0.75),
    }
    problems = [f"{k} {v:.4f} < {floor_}" for k, (v, floor_) in checks.items() if v < floor_]
    for key, center in (("actual-1", 390e6), ("actual-2", 333e6)):
        rel = abs(revenue[key] - center) / center
        if rel > 0.10:
            problems.append(f"{key} revenue {revenue[key]:,.0f} is {rel:.1%} from {center:,.0f}")
    verdict("C11", not problems, "; ".join(problems) if problems else
            f"forest r2 {r2['forest']:.3f}, lstm r2 {r2['lstm']:.3f}, "
            f"revenue {revenue['actual-1']:,.0f} / {revenue['actual-2']:,.0f}")
