"""Tests of the benchmark itself: python3 -m pytest bench -q"""
from __future__ import annotations

import csv
import json
import re
import types
from datetime import date
from pathlib import Path

import pytest

import run
from gen_inputs import DROP_SHARE, HASHRATE_RANGE, MARKET_END, MARKET_START, PRICE_RANGE, write_inputs
from layertrace import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def test_generator_is_byte_identical_per_seed_and_differs_across_seeds(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        write_inputs(tmp_path / name, seed)
    assert run.tree_digest(tmp_path / "a") == run.tree_digest(tmp_path / "b")
    for name in ("market.csv", "surplus.csv"):
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()


def test_generated_market_has_paper_magnitudes_and_gaps(tmp_path):
    write_inputs(tmp_path, 5)
    with open(tmp_path / "market.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    days = [date.fromisoformat(r["date"]) for r in rows]
    assert days[0] == MARKET_START and days[-1] == MARKET_END
    total = (MARKET_END - MARKET_START).days + 1
    assert total - len(rows) == round(DROP_SHARE * total)
    assert all(PRICE_RANGE[0] <= float(r["price_usd"]) <= PRICE_RANGE[1] for r in rows)
    assert all(HASHRATE_RANGE[0] <= float(r["network_hashrate_ths"]) <= HASHRATE_RANGE[1] for r in rows)


def test_metric_and_workload_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names), [n for n in names if not NAME_RE.fullmatch(n)]
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


def test_report_check_catches_wrong_profit_and_missing_case():
    golden = (run.FIXTURE_DIR / "golden_report.txt").read_text(encoding="utf-8")
    assert run.report_problems(golden) == []
    wrong = golden.replace("6,832,559.62", "6,832,559.63")
    assert any("actual-1" in p for p in run.report_problems(wrong))
    dropped = "".join(line for line in golden.splitlines(True) if not line.startswith("lstm-2"))
    assert any("six cases" in p for p in run.report_problems(dropped))


def test_tracer_self_time_and_missing_names():
    module = types.SimpleNamespace(fit_forest=lambda: None)
    tracer = Tracer("t")
    with tracer.installed(module):
        with tracer.span("cli.train"):
            module.fit_forest()
            module.fit_forest()
    assert "forest.load_forest" in tracer.missing
    summary = tracer.summary()
    train, fit = summary["cli.train"], summary["forest.fit_forest"]
    assert fit["calls"] == 2
    assert train["self_s"] + fit["total_s"] == pytest.approx(train["total_s"])
    assert module.fit_forest.__name__ == "<lambda>"  # restored on exit


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_fixture_workload_passes_its_checks_and_reports_every_metric(capsys, trace, key):
    code = run.main(["--workload", "fixture", "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    result = _last_json(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want


def test_exits_nonzero_without_a_checkout(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC_DIR", tmp_path / "src")
    assert run.main(["--workload", "fixture", "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""
