"""End-to-end command-line runs on the bundled fixture data."""
import contextlib
import hashlib
import io
import json
import logging
import multiprocessing
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surplusminer import cli, forest, lstm
from surplusminer.cli import main
from surplusminer.errors import ValidationError
from surplusminer.indicators import FeatureMatrix, build_features
from surplusminer.ingest import MarketSeries

from conftest import DATA_DIR, FIXTURE_CONFIG, decode_nodes, encode_nodes

FIXTURE_HASH = "11e51f6d5144"


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    """One full ingest -> features -> train -> simulate run, shared read-only."""
    out = tmp_path_factory.mktemp("full_run")
    for cmd in ("ingest", "features", "train", "simulate"):
        rc = main([cmd, "--config", str(FIXTURE_CONFIG), "--out", str(out)])
        assert rc == 0, f"{cmd} exited {rc}"
    return out


def write_config(tmp_path: Path, **overrides) -> Path:
    """Fixture config clone in tmp_path with the data files beside it."""
    cfg = json.loads(FIXTURE_CONFIG.read_text())
    cfg.update(overrides)
    for name in ("market.csv", "surplus.csv"):
        if not (tmp_path / name).exists():
            shutil.copy(DATA_DIR / name, tmp_path / name)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


LOADERS = {"forest": forest.load_forest, "lstm": lstm.load_lstm}


def model_prices(name: str, model, market: MarketSeries) -> dict:
    """Model `name`'s price for each fixture test day from the features of
    `market`, keyed by day: predict_matrix on the rows dated test_start-1..
    test_end-1, or predict_series on those rows and the window history before
    them. Both return one price per row dated test_start-1.., in row order."""
    cfg = cli.load_config(FIXTURE_CONFIG)
    _, rows = cli._split_features(cfg, build_features(market))
    last = FeatureMatrix(rows.rows[cfg.lstm.window - 1 :])
    prices = lstm.predict_series(model, rows) if name == "lstm" else forest.predict_matrix(model, last)
    return dict(zip((row.target_day for row in last.rows), prices.tolist(), strict=True))


def reloaded_forecasts(out: Path, market: MarketSeries) -> dict[str, dict]:
    """Both models' prices per test day, from the model files in `out` reloaded."""
    return {name: model_prices(name, load(out / f"{name}_model.json"), market) for name, load in LOADERS.items()}


def fixture_market() -> MarketSeries:
    return cli._load_clean_market(cli.load_config(FIXTURE_CONFIG))[0]


class TestFullPipeline:
    def test_writes_expected_files(self, pipeline_out):
        names = {p.name for p in pipeline_out.iterdir()}
        assert names == {
            "config_used.json", "market_clean.csv", "surplus_monthly.csv",
            "ingest_summary.txt", "features.csv", "forest_model.json",
            "lstm_model.json", "eval.csv", "forecasts.csv", "train_summary.txt",
            "fleet.csv", "ledger.csv", "report.txt",
        }

    def test_report_matches_golden(self, pipeline_out):
        got = (pipeline_out / "report.txt").read_bytes()
        want = (DATA_DIR / "golden_report.txt").read_bytes()
        assert got == want

    def test_output_bytes_match_golden_digests(self, pipeline_out):
        """sha256 of each output whose bytes do not depend on BLAS summation
        order (the LSTM outputs and what is priced from them are left out)."""
        want = json.loads((DATA_DIR / "golden_digests.json").read_text(encoding="utf-8"))
        got = {name: hashlib.sha256((pipeline_out / name).read_bytes()).hexdigest() for name in want}
        assert got == want

    def test_text_outputs_carry_config_header(self, pipeline_out):
        """Every text output but forecasts.csv, whose header is tested below.
        ledger.csv's goes on with the sha256 of both input files."""
        digests = f" market_sha256={sha256(DATA_DIR / 'market.csv')} surplus_sha256={sha256(DATA_DIR / 'surplus.csv')}"
        for path in sorted(pipeline_out.glob("*.csv")) + sorted(pipeline_out.glob("*.txt")):
            if path.name != "forecasts.csv":
                first = path.read_text(encoding="utf-8").splitlines()[0]
                want = f"# config={FIXTURE_HASH} seed=42" + (digests if path.name == "ledger.csv" else "")
                assert first == want, path.name

    def test_config_echo_leads_with_hash_and_seed(self, pipeline_out):
        raw = (pipeline_out / "config_used.json").read_text(encoding="utf-8")
        doc = json.loads(raw)
        assert doc["config_hash"] == FIXTURE_HASH
        assert doc["seed"] == 42
        assert raw.index('"config_hash"') < raw.index('"seed"') < raw.index('"market_csv"')
        assert "out_dir" not in doc
        assert "base_dir" not in doc

    def test_eval_covers_both_models(self, pipeline_out):
        rows = (pipeline_out / "eval.csv").read_text(encoding="utf-8").splitlines()[2:]
        n = {row.split(",")[0]: int(row.split(",")[2]) for row in rows}
        cfg = cli.load_config(FIXTURE_CONFIG)
        test_days = (cfg.test_end - cfg.test_start).days + 1
        assert n == {"forest": test_days, "lstm": test_days}

    def test_simulate_rerun_is_byte_identical(self, pipeline_out):
        before = {n: (pipeline_out / n).read_bytes() for n in ("report.txt", "ledger.csv", "fleet.csv")}
        rc = main(["simulate", "--config", str(FIXTURE_CONFIG), "--out", str(pipeline_out)])
        assert rc == 0
        for name, blob in before.items():
            assert (pipeline_out / name).read_bytes() == blob, name

    def test_report_subcommand_rebuilds_identical_report(self, pipeline_out):
        want = (pipeline_out / "report.txt").read_bytes()
        (pipeline_out / "report.txt").unlink()
        rc = main(["report", "--config", str(FIXTURE_CONFIG), "--out", str(pipeline_out)])
        assert rc == 0
        assert (pipeline_out / "report.txt").read_bytes() == want

    def test_refused_report_leaves_every_file_byte_identical(self, pipeline_out, tmp_path, caplog):
        """config_used.json included: it is written only once a command has succeeded."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        with caplog.at_level(logging.ERROR):
            rc = main(["report", "--config", str(FIXTURE_CONFIG), "--out", str(out), "--seed", "7"])
        assert rc == 2
        assert "config=11e51f6d5144, seed=42, but the run config has config=fc6efefef6b1, seed=7" in caplog.text
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {p.name: p.read_bytes() for p in pipeline_out.iterdir()}


class TestCausalForecasts:
    """No forest or LSTM price for day d depends on a market price dated d or
    later. The models are the pipeline run's, reloaded; only the inputs change."""

    @given(st.data())
    @settings(max_examples=8, deadline=None)
    def test_perturbing_prices_from_d_on_leaves_the_price_on_d(self, pipeline_out, data):
        cfg = cli.load_config(FIXTURE_CONFIG)
        market = fixture_market()
        d = cfg.sim_start + timedelta(days=data.draw(st.integers(0, (cfg.sim_end - cfg.sim_start).days)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        perturbed = MarketSeries(
            [replace(r, price_usd=r.price_usd * rng.uniform(0.5, 2.0)) if r.day >= d else r for r in market.records]
        )
        before = reloaded_forecasts(pipeline_out, market)
        after = reloaded_forecasts(pipeline_out, perturbed)
        for name in ("forest", "lstm"):
            assert after[name][d] == before[name][d], name


class TestIngest:
    def test_clean_fixture_reports_zero_gaps(self, tmp_path, capsys):
        rc = main(["ingest", "--config", str(FIXTURE_CONFIG), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "gap days filled by carry-forward: 0" in capsys.readouterr().out

    def test_gapped_market_reports_fill_count(self, tmp_path, capsys):
        lines = (DATA_DIR / "market.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        removed = ("2022-03-10", "2022-03-11", "2023-07-04")
        kept = [ln for ln in lines if not ln.startswith(removed)]
        assert len(kept) == len(lines) - 3
        (tmp_path / "market.csv").write_text("".join(kept), encoding="utf-8")
        cfg = write_config(tmp_path)
        rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gap days filled by carry-forward: 3" in out
        cleaned = (tmp_path / "out" / "market_clean.csv").read_text(encoding="utf-8")
        assert cleaned.count("\n") == 732  # comment + header + 730 days
        assert "2022-03-10" in cleaned

    def test_corrupt_row_exits_2_naming_the_line(self, tmp_path, caplog):
        lines = (DATA_DIR / "market.csv").read_text(encoding="utf-8").splitlines()
        lines[4] = "2022-01-04,not-a-price,190000000.0"
        (tmp_path / "market.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path)
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "market.csv:5" in caplog.text

    def test_huge_price_exits_2_naming_the_line(self, tmp_path, caplog):
        """A price above MAX_PRICE_USD is refused at ingest, before the
        forest's sums of squares could overflow in train."""
        lines = (DATA_DIR / "market.csv").read_text(encoding="utf-8").splitlines()
        lines[300] = lines[300].replace(lines[300].split(",")[1], "1.8e212")
        (tmp_path / "market.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path)
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "market.csv:301: price_usd must be in [0, 1e+12], got 1.8e+212" in caplog.text

    @pytest.mark.parametrize(
        "cells, message",
        [
            ("1200,1e300", "surplus_kwh must be in [0, 1e+12], got 1e+300"),
            ("2000000000,3072706.1", "households must be in [0, 1e+09], got 2000000000"),
        ],
        ids=["huge-surplus", "huge-households"],
    )
    def test_huge_surplus_value_exits_2_naming_the_line(self, tmp_path, caplog, cells, message):
        """A surplus above MAX_SURPLUS_KWH, or households above MAX_HOUSEHOLDS,
        is refused at ingest instead of reaching the report's cost column."""
        text = (DATA_DIR / "surplus.csv").read_text(encoding="utf-8")
        (tmp_path / "surplus.csv").write_text(
            text.replace("coastal,2021-01,1200,3072706.1", f"coastal,2021-01,{cells}"), encoding="utf-8"
        )
        cfg = write_config(tmp_path)
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"surplus.csv:2: {message}" in caplog.text

    def test_gap_on_analysis_start_takes_the_day_before(self, tmp_path, capsys, caplog):
        """The record before analysis_start is kept until the gaps are filled,
        so a missing first day carries it forward. A market that starts after
        analysis_start has nothing to carry and still exits 3."""
        lines = (DATA_DIR / "market.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        cfg = write_config(tmp_path, analysis_start="2022-01-03")
        out = tmp_path / "out"
        kept = [ln for ln in lines if not ln.startswith("2022-01-03")]
        (tmp_path / "market.csv").write_text("".join(kept), encoding="utf-8")
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
        assert "gap days filled by carry-forward: 1" in capsys.readouterr().out
        cleaned = (out / "market_clean.csv").read_text(encoding="utf-8").splitlines()
        assert cleaned[2] == "2022-01-03,18134.04,188403558.6"  # 2022-01-02's record

        kept = [ln for ln in lines if not ln.startswith("2022-01-0")]
        (tmp_path / "market.csv").write_text("".join(kept), encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 3
        assert "gap at series start: first record is 2022-01-10" in caplog.text

    def test_date_not_in_yyyy_mm_dd_form_exits_2_naming_the_line(self, tmp_path, caplog):
        """Python 3.11's date.fromisoformat reads 20220104; 3.10's does not."""
        text = (DATA_DIR / "market.csv").read_text(encoding="utf-8")
        (tmp_path / "market.csv").write_text(text.replace("\n2022-01-04,", "\n20220104,"), encoding="utf-8")
        cfg = write_config(tmp_path)
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "market.csv:5: invalid ISO date '20220104'" in caplog.text

    def test_market_file_not_utf8_exits_2_naming_the_line(self, tmp_path, caplog):
        raw = (DATA_DIR / "market.csv").read_bytes()
        (tmp_path / "market.csv").write_bytes(raw + b"\xff\xfe")
        cfg = write_config(tmp_path)
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        line = raw.count(b"\n") + 1
        assert f"market.csv:{line}: byte 0xff is not UTF-8 (invalid start byte)" in caplog.text

    def test_cell_past_the_csv_field_limit_exits_2_naming_the_line(self, tmp_path, caplog):
        lines = (DATA_DIR / "market.csv").read_text(encoding="utf-8").splitlines()
        lines[4] = '2022-01-04,"' + "9" * 200_000 + '",190000000.0'
        (tmp_path / "market.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path)
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "market.csv:5: field larger than field limit" in caplog.text

    def test_missing_market_file_exits_2(self, tmp_path, caplog):
        cfg = write_config(tmp_path, market_csv="absent.csv")
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "not found" in caplog.text

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(FIXTURE_CONFIG), "--out", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["ingest", "--config", str(FIXTURE_CONFIG), "--out", str(out)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_too_little_market_data_exits_3(self, tmp_path):
        rows = ["date,price_usd,network_hashrate_ths"]
        for i in range(1, 11):
            rows.append(f"2022-01-{i:02d},40000.0,190000000.0")
        (tmp_path / "market.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path)
        rc = main(["features", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 3


class TestConfigValidation:
    def test_unknown_key_exits_2(self, tmp_path, caplog):
        cfg = write_config(tmp_path, typo_key=1)
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "typo_key" in caplog.text

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "config.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["ingest", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2

    def test_no_cases_exits_2_at_config_load(self, tmp_path, caplog):
        """For every command, ingest included, before the output directory is made."""
        cfg = write_config(tmp_path, cases=[])
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{cfg}: no cases requested" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_out_naming_a_file_exits_2_without_a_traceback(self, tmp_path, caplog):
        out = tmp_path / "out"
        out.write_text("a file\n", encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(FIXTURE_CONFIG), "--out", str(out)])
        assert rc == 2
        assert [r.getMessage() for r in caplog.records] == [
            f"validation error: cannot make the output directory {out}: File exists"
        ]
        assert not any(r.exc_info for r in caplog.records)
        assert out.read_text(encoding="utf-8") == "a file\n"

    def test_train_overlapping_test_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, train_end="2023-07-01")
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"train_start": "2023-05-31", "train_end": "2023-01-01"},
                "train_start 2023-05-31 must not be after train_end 2023-01-01",
            ),
            ({"analysis_start": "2023-07-01"}, "analysis_start 2023-07-01 must not be after train_end 2023-05-31"),
        ],
        ids=["train_start", "analysis_start"],
    )
    def test_date_after_train_end_exits_2_at_config_load(self, tmp_path, caplog, overrides, message):
        cfg = write_config(tmp_path, **overrides)
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{cfg}: {message}" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["", "a\nb"], ids=["empty", "newline"])
    def test_miner_name_not_one_printable_line_exits_2(self, tmp_path, caplog, name):
        """The name is report.txt's title; a line break in it would split the title."""
        cfg = write_config(tmp_path, miner={"name": name})
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"config section 'miner': name must be non-empty and printable, got {name!r}" in caplog.text

    def test_unknown_case_exits_2(self, tmp_path):
        rc = main([
            "simulate", "--config", str(FIXTURE_CONFIG),
            "--cases", "actual-3", "--out", str(tmp_path / "out"),
        ])
        assert rc == 2

    def test_empty_cases_flag_exits_2_leaving_the_report(self, pipeline_out, tmp_path, caplog):
        """--cases "" names the one case '', as --cases "," names two; neither means all six."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        with caplog.at_level(logging.ERROR):
            rc = main(["report", "--config", str(FIXTURE_CONFIG), "--out", str(out), "--cases", ""])
        assert rc == 2
        assert "unknown case ''" in caplog.text
        assert (out / "report.txt").read_bytes() == (pipeline_out / "report.txt").read_bytes()

    def test_one_day_test_window_train_exits_2_before_any_fit(self, tmp_path, caplog):
        """r2 needs two test days; simulate needs none of train's outputs for an actual case."""
        one_day = {key: "2023-06-01" for key in ("test_start", "test_end", "sim_start", "sim_end")}
        cfg = write_config(tmp_path, **one_day)
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR):
            rc = main(["train", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "test_start..test_end is the one day 2023-06-01" in caplog.text
        assert not (out / "forest_model.json").exists() and not (out / "lstm_model.json").exists()
        assert main(["simulate", "--config", str(cfg), "--cases", "actual-1", "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"forest": {"n_trees": "abc"}}, "forest.n_trees"),
            ({"forest": {"n_trees": 2.5}}, "forest.n_trees"),
            ({"forest": 5}, "forest"),
            ({"seed": "abc"}, "seed"),
            ({"loss_rate": "x"}, "loss_rate"),
            ({"cases": "actual-1"}, "cases"),
            ({"miner": {"power_w": "big"}}, "miner.power_w"),
            ({"surplus_months": ["2021-01"]}, "surplus_months"),
            # json reads Infinity, and 1e999, as inf
            ({"miner": {"unit_price_usd": float("inf")}}, "miner.unit_price_usd"),
            ({"miner": {"power_w": float("nan")}}, "miner.power_w"),
        ],
    )
    def test_wrongly_typed_value_exits_2_naming_the_key(self, tmp_path, caplog, overrides, key):
        cfg = write_config(tmp_path, **overrides)
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"config key {key!r}" in caplog.text

    @pytest.mark.parametrize(
        "section, values, message",
        [
            ("forest", {"n_trees": 0}, "n_trees must be >= 1, got 0"),
            ("lstm", {"window": 0}, "window must be >= 1, got 0"),
            ("miner", {"hashrate_ths": -1}, "hashrate_ths must be > 0, got -1.0"),
            # a check across keys, naming none of them
            ("miner", {"efficiency_j_per_th": 20}, "efficiency 20.0 J/TH inconsistent with power/hashrate = 12.00 J/TH"),
        ],
        ids=["forest", "lstm", "miner", "miner-efficiency"],
    )
    def test_bad_section_value_exits_2_naming_the_section(self, tmp_path, caplog, section, values, message):
        cfg = write_config(tmp_path, **{section: values})
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert [r.getMessage() for r in caplog.records] == [
            f"validation error: {cfg}: config section {section!r}: {message}"
        ]
        assert not (tmp_path / "out").exists()

    def test_week_date_exits_2_naming_the_key(self, tmp_path, caplog):
        """Python 3.11's date.fromisoformat reads 2023-W52-7 as 2023-12-31."""
        cfg = write_config(tmp_path, sim_end="2023-W52-7")
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config key 'sim_end': invalid ISO date '2023-W52-7'" in caplog.text

    @pytest.mark.parametrize(
        "command,overrides,args", [("train", {}, ("--seed", "-1")), ("ingest", {"seed": -1}, ())], ids=["flag", "key"]
    )
    def test_negative_seed_exits_2_without_a_traceback(self, tmp_path, caplog, command, overrides, args):
        cfg = write_config(tmp_path, **overrides)
        with caplog.at_level(logging.ERROR):
            rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *args])
        assert rc == 2
        assert [r.getMessage() for r in caplog.records] == [f"validation error: {cfg}: seed must be >= 0, got -1"]
        assert not any(r.exc_info for r in caplog.records)

    def test_partial_miner_section_merges_over_defaults(self, tmp_path):
        cfg = write_config(tmp_path, miner={"name": "x"})
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
        miner = json.loads((out / "config_used.json").read_text(encoding="utf-8"))["miner"]
        assert miner["name"] == "x"
        assert miner["hashrate_ths"] == 473.0 and miner["lifespan_months"] == 90

    @pytest.mark.parametrize("months", [["foo", "bar"], ["2023-12", "2021-01"]], ids=["not-months", "reversed"])
    def test_bad_surplus_months_exit_2_naming_the_key(self, tmp_path, caplog, months):
        cfg = write_config(tmp_path, surplus_months=months)
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"surplus_months must be two YYYY-MM months, the first not after the last, got {months}" in caplog.text
        assert "surplus.csv" not in caplog.text

    def test_report_without_ledger_exits_2(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR):
            rc = main(["report", "--config", str(FIXTURE_CONFIG), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{tmp_path / 'out' / 'ledger.csv'} is missing; run simulate first" in caplog.text


def doubled_surplus(text: str) -> str:
    """surplus.csv's text with every surplus_kwh, the last column, doubled."""
    header, *rows = text.splitlines()
    cells = [row.rsplit(",", 1) for row in rows]
    return "\n".join([header, *(f"{head},{2 * float(kwh)!r}" for head, kwh in cells)]) + "\n"


class TestReportFromLedger:
    def _report_on_edited_ledger(self, pipeline_out, tmp_path, edit, *args, config=FIXTURE_CONFIG) -> int:
        out = tmp_path / "out"
        out.mkdir()
        lines = (pipeline_out / "ledger.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        (out / "ledger.csv").write_text("".join(edit(lines)), encoding="utf-8")
        return main(["report", "--config", str(config), "--out", str(out), *args])

    def test_report_prints_only_the_requested_cases(self, pipeline_out, tmp_path, capsys):
        rc = self._report_on_edited_ledger(pipeline_out, tmp_path, lambda lines: lines, "--cases", "lstm-2,actual-1")
        assert rc == 0
        report = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
        assert [line.split()[0] for line in report.splitlines()[4:]] == ["actual-1", "lstm-2"]
        assert capsys.readouterr().out == report

    @pytest.mark.parametrize(
        "overrides, seed, seeds",
        [({}, 7, (", seed=42", ", seed=7")), ({"sim_end": "2023-12-30"}, None, ("", ""))],
        ids=["seed", "sim_end"],
    )
    def test_report_under_another_config_exits_2_naming_both_headers(
        self, pipeline_out, tmp_path, caplog, overrides, seed, seeds
    ):
        """The ledger is headed with the config it was simulated under, all six
        cases included; a report under another config would relabel it. The
        error names each header field that differs, with both values."""
        config = write_config(tmp_path, **overrides)
        args = ("--seed", str(seed)) if seed else ()
        with caplog.at_level(logging.ERROR):
            rc = self._report_on_edited_ledger(pipeline_out, tmp_path, lambda lines: lines, *args, config=config)
        assert rc == 2
        run_hash = cli.config_hash(cli.load_config(config, seed=seed))
        was, now = seeds
        assert (
            f"{tmp_path / 'out' / 'ledger.csv'} was made with config={FIXTURE_HASH}{was}, but the run config has "
            f"config={run_hash}{now}; run simulate again"
        ) in caplog.text

    def _report_on_ledger_bytes(self, pipeline_out, tmp_path, caplog, edit) -> str:
        """Report on the pipeline's ledger with its bytes edited; returns its
        first line as the error message must quote it."""
        out = tmp_path / "out"
        out.mkdir()
        raw = edit((pipeline_out / "ledger.csv").read_bytes())
        (out / "ledger.csv").write_bytes(raw)
        with caplog.at_level(logging.ERROR):
            assert main(["report", "--config", str(FIXTURE_CONFIG), "--out", str(out)]) == 2
        return raw.decode("utf-8", errors="replace").splitlines()[0]

    def test_report_on_ledger_whose_header_is_not_utf8_exits_2_naming_both_headers(self, pipeline_out, tmp_path, caplog):
        """Bytes that are not UTF-8 read as U+FFFD, so the message can quote the line."""
        first = self._report_on_ledger_bytes(pipeline_out, tmp_path, caplog, lambda raw: b"\xff\xfe" + raw)
        assert first.startswith(chr(0xFFFD) * 2 + "# config=")
        assert f"ledger.csv starts with {first!r}, not a '# key=value ...' header; run simulate again" in caplog.text

    def test_report_on_ledger_not_headed_key_values_exits_2(self, pipeline_out, tmp_path, caplog):
        first = self._report_on_ledger_bytes(
            pipeline_out, tmp_path, caplog, lambda raw: raw.replace(b"# config=", b"# made by hand, config=", 1)
        )
        assert f"ledger.csv starts with {first!r}, not a '# key=value ...' header; run simulate again" in caplog.text

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("market.csv", lambda text: text.replace("\n2022-03-10,", "\n2022-03-10,1")),
            ("surplus.csv", doubled_surplus),
        ],
        ids=["market", "doubled-surplus"],
    )
    def test_input_changed_since_simulate_exits_2_naming_it(self, pipeline_out, tmp_path, caplog, name, edit):
        """The ledger's rows come from the market file, and report prices the
        fleet from the surplus file: with either changed since simulate, the
        report would charge for a fleet the ledger did not mine."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        config = write_config(tmp_path)
        changed = tmp_path / name
        changed.write_text(edit(changed.read_text(encoding="utf-8")), encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            rc = main(["report", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert (
            f"{changed} has sha256 {sha256(changed)}, but {out / 'ledger.csv'} was made from one with sha256 "
            f"{sha256(DATA_DIR / name)}; run simulate again"
        ) in caplog.text
        assert (out / "report.txt").read_bytes() == (pipeline_out / "report.txt").read_bytes()

    @pytest.mark.parametrize(
        "edit", [lambda lines: lines[:3] + lines[2:], lambda lines: lines[:2] + lines[3:]], ids=["repeated", "missing"]
    )
    def test_report_on_ledger_with_a_repeated_or_missing_day_exits_2_naming_the_case(
        self, pipeline_out, tmp_path, caplog, edit
    ):
        """Line 3 is actual-1's first day: each of its days must appear once."""
        with caplog.at_level(logging.ERROR):
            rc = self._report_on_edited_ledger(pipeline_out, tmp_path, edit)
        assert rc == 2
        assert "case actual-1 must have one row per day from 2023-06-01 to 2023-12-31, in date order" in caplog.text

    def test_report_on_ledger_lacking_a_requested_case_exits_2_naming_it(self, pipeline_out, tmp_path, caplog):
        with caplog.at_level(logging.ERROR):
            rc = self._report_on_edited_ledger(
                pipeline_out, tmp_path, lambda lines: [ln for ln in lines if ",forest," not in ln]
            )
        assert rc == 2
        assert "no rows for requested case(s): forest-1, forest-2" in caplog.text

    def test_report_on_truncated_ledger_exits_2_naming_the_line(self, pipeline_out, tmp_path, caplog):
        with caplog.at_level(logging.ERROR):
            rc = self._report_on_edited_ledger(
                pipeline_out, tmp_path, lambda lines: lines[:-1] + [lines[-1][:25]]
            )
        assert rc == 2
        n_lines = len((pipeline_out / "ledger.csv").read_text(encoding="utf-8").splitlines())
        assert f"ledger.csv:{n_lines}:" in caplog.text

    @pytest.mark.parametrize("revenue", ["1e300", "-5000000.0"])
    def test_report_on_ledger_with_out_of_range_revenue_exits_2_naming_the_line(
        self, pipeline_out, tmp_path, caplog, revenue
    ):
        """A day's revenue must lie in [0, $1e12 x 25 BTC x 144 blocks]: 1e300
        once overflowed the cents conversion, and a negative day was summed."""
        def edit(lines):
            cells = lines[2].split(",")  # line 3, the first day of actual-1
            cells[7] = revenue
            return lines[:2] + [",".join(cells)] + lines[3:]

        with caplog.at_level(logging.ERROR):
            rc = self._report_on_edited_ledger(pipeline_out, tmp_path, edit)
        assert rc == 2
        assert f"ledger.csv:3: revenue_usd must be in [0, 3.6e+15], got {revenue!r}" in caplog.text

    def test_report_on_ledger_without_a_row_exits_3(self, pipeline_out, tmp_path, caplog):
        with caplog.at_level(logging.ERROR):
            rc = self._report_on_edited_ledger(pipeline_out, tmp_path, lambda lines: lines[:2])
        assert rc == 3
        assert f"{tmp_path / 'out' / 'ledger.csv'}: no records" in caplog.text

    def test_report_on_ledger_missing_a_column_exits_2_naming_the_line(self, pipeline_out, tmp_path, caplog):
        def drop_price_source(lines):
            return lines[:1] + [",".join(ln.split(",")[:2] + ln.split(",")[3:]) for ln in lines[1:]]

        with caplog.at_level(logging.ERROR):
            rc = self._report_on_edited_ledger(pipeline_out, tmp_path, drop_price_source)
        assert rc == 2
        assert "ledger.csv:2:" in caplog.text


FIXTURE_LSTM = json.loads(FIXTURE_CONFIG.read_text(encoding="utf-8"))["lstm"]


class TestForecastsFile:
    """train writes both models' price for every test day to forecasts.csv,
    headed with everything the prices depend on, and simulate prices from it
    only if this run has the same market file, split and model settings."""

    def test_prices_are_those_of_the_reloaded_models_bit_for_bit(self, pipeline_out):
        lines = (pipeline_out / "forecasts.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1] == "day,forest_usd,lstm_usd"
        got = {"forest": {}, "lstm": {}}
        for line in lines[2:]:
            day, forest_usd, lstm_usd = line.split(",")
            got["forest"][date.fromisoformat(day)] = float(forest_usd).hex()
            got["lstm"][date.fromisoformat(day)] = float(lstm_usd).hex()
        want = reloaded_forecasts(pipeline_out, fixture_market())
        assert got == {name: {day: price.hex() for day, price in prices.items()} for name, prices in want.items()}
        assert len(got["lstm"]) == 214

    def test_header_names_what_the_prices_depend_on(self, pipeline_out):
        first = (pipeline_out / "forecasts.csv").read_text(encoding="utf-8").splitlines()[0]
        assert first == "# " + " ".join([
            f"market_sha256={sha256(DATA_DIR / 'market.csv')}",
            "analysis_start=2022-01-01", "train_start=2022-01-01", "train_end=2023-05-31",
            "test_start=2023-06-01", "test_end=2023-12-31",
            "forest.n_trees=20", "forest.m_try=None", "forest.min_samples_leaf=1", "forest.max_depth=None",
            "forest.seed=42",
            "lstm.epochs=5", "lstm.window=14", "lstm.hidden_size=16", "lstm.learning_rate=0.001",
            "lstm.batch_size=32", "lstm.clip_norm=1.0", "lstm.seed=42",
        ])

    @staticmethod
    def _simulate_on_copy(pipeline_out, tmp_path, caplog, *args, edit=None, **overrides) -> int:
        """Simulate on a copy of the pipeline run, under a fixture config with
        `overrides` whose data files (the same bytes) lie beside it; edit(out)
        runs on the copy first."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        config = write_config(tmp_path, **overrides)
        if edit:
            edit(out)
        with caplog.at_level(logging.ERROR):
            return main(["simulate", "--config", str(config), "--out", str(out), *args])

    @staticmethod
    def _edit_rows(change):
        def edit(out):
            path = out / "forecasts.csv"
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join(change(lines)), encoding="utf-8")

        return edit

    def test_market_file_edited_after_train_exits_2(self, pipeline_out, tmp_path, caplog):
        def edit(out):
            market = tmp_path / "market.csv"
            market.write_text(market.read_text(encoding="utf-8").replace("\n2022-03-10,", "\n2022-03-10,1"), encoding="utf-8")

        rc = self._simulate_on_copy(pipeline_out, tmp_path, caplog, edit=edit)
        assert rc == 2
        assert f"{tmp_path / 'market.csv'} has sha256 {sha256(tmp_path / 'market.csv')}, but " in caplog.text
        assert f"was made from one with sha256 {sha256(DATA_DIR / 'market.csv')}; run train again" in caplog.text

    @pytest.mark.parametrize(
        "overrides, args, made_with, run_has",
        [
            ({"train_end": "2023-05-30"}, (), "train_end=2023-05-31", "train_end=2023-05-30"),
            ({"lstm": {**FIXTURE_LSTM, "window": 10}}, ("--cases", "lstm-1"), "lstm.window=14", "lstm.window=10"),
            ({}, ("--seed", "7", "--cases", "forest-2"), "forest.seed=42", "forest.seed=7"),
            ({}, ("--seed", "7", "--cases", "lstm-2"), "lstm.seed=42", "lstm.seed=7"),
            ({}, ("--seed", "7"), "forest.seed=42, lstm.seed=42", "forest.seed=7, lstm.seed=7"),
            (
                {"forest": {"n_trees": 10, "max_depth": 3}},
                ("--cases", "actual-1,forest-1"),
                "forest.n_trees=20, forest.max_depth=None",
                "forest.n_trees=10, forest.max_depth=3",
            ),
        ],
        ids=["train_end", "lstm-window", "seed-forest-2", "seed-lstm-2", "seed-all-cases", "forest-settings"],
    )
    def test_other_settings_exit_2_naming_each_field(
        self, pipeline_out, tmp_path, caplog, overrides, args, made_with, run_has
    ):
        """Only the settings of the models the cases need are compared; every
        one that differs is named with both values, and report.txt stays."""
        rc = self._simulate_on_copy(pipeline_out, tmp_path, caplog, *args, **overrides)
        assert rc == 2
        assert (
            f"{tmp_path / 'out' / 'forecasts.csv'} was made with {made_with}, but the run config has {run_has}; "
            "run train again"
        ) in caplog.text
        assert (tmp_path / "out" / "report.txt").read_bytes() == (pipeline_out / "report.txt").read_bytes()

    def test_missing_forecasts_file_exits_2(self, pipeline_out, tmp_path, caplog):
        rc = self._simulate_on_copy(pipeline_out, tmp_path, caplog, edit=lambda out: (out / "forecasts.csv").unlink())
        assert rc == 2
        assert "forecasts.csv is missing; run train first" in caplog.text

    def test_garbled_row_exits_2_naming_the_line(self, pipeline_out, tmp_path, caplog):
        def garble(lines):
            lines[4] = "2023-06-03,abc," + lines[4].split(",")[2]
            return lines

        rc = self._simulate_on_copy(pipeline_out, tmp_path, caplog, edit=self._edit_rows(garble))
        assert rc == 2
        assert "forecasts.csv:5: invalid number 'abc' in forest_usd" in caplog.text

    def test_missing_test_day_exits_2(self, pipeline_out, tmp_path, caplog):
        rc = self._simulate_on_copy(pipeline_out, tmp_path, caplog, edit=self._edit_rows(lambda lines: lines[:10] + lines[11:]))
        assert rc == 2
        assert "forecasts.csv must have one row per day from 2023-06-01 to 2023-12-31, in date order" in caplog.text

    def test_negative_forecast_reaches_run_case(self, pipeline_out, tmp_path, caplog):
        """Any finite price is read; run_case refuses a negative one, naming the case and the day."""
        def negative(lines):
            lines[2] = lines[2].rsplit(",", 1)[0] + ",-1.5\n"
            return lines

        rc = self._simulate_on_copy(pipeline_out, tmp_path, caplog, "--cases", "lstm-1", edit=self._edit_rows(negative))
        assert rc == 2
        assert "case lstm-1, 2023-06-01: price must be >= 0, got -1.5" in caplog.text

    def test_forecast_above_the_price_bound_exits_2_before_writing(self, pipeline_out, tmp_path, caplog):
        """run_case refuses a price above $1e12 as it does a negative one; no other file changes."""
        def huge(lines):
            day, _, lstm_usd = lines[3].split(",")
            lines[3] = f"{day},1e300,{lstm_usd}"
            return lines

        rc = self._simulate_on_copy(pipeline_out, tmp_path, caplog, edit=self._edit_rows(huge))
        assert rc == 2
        assert "case forest-1, 2023-06-02: price must be <= 1e+12, got 1e+300" in caplog.text
        out = tmp_path / "out"
        for path in pipeline_out.iterdir():
            if path.name != "forecasts.csv":
                assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize(
        "overrides, args, kept",
        [
            ({"sim_end": "2023-09-30"}, (), lambda cells: cells[0] <= "2023-09-30"),
            ({"sim_start": "2023-08-01"}, (), lambda cells: cells[0] >= "2023-08-01"),
            ({}, ("--cases", "forest-1,lstm-2"), lambda cells: cells[2] + cells[1] in ("forest1", "lstm2")),
        ],
        ids=["sim_end", "sim_start", "cases"],
    )
    def test_sim_end_or_cases_inside_the_test_window_need_no_retrain(
        self, pipeline_out, tmp_path, caplog, overrides, args, kept
    ):
        """The rows simulated are the full run's rows of the days and cases kept."""
        rc = self._simulate_on_copy(pipeline_out, tmp_path, caplog, *args, **overrides)
        assert rc == 0
        rows = (tmp_path / "out" / "ledger.csv").read_text(encoding="utf-8").splitlines()[2:]
        full = (pipeline_out / "ledger.csv").read_text(encoding="utf-8").splitlines()[2:]
        assert rows == [row for row in full if kept(row.split(","))]
        assert len(rows) in (6 * 122, 6 * 153, 2 * 214)


class TestMarketWindow:
    def test_market_ending_before_sim_end_exits_3_naming_both_windows(self, tmp_path, caplog):
        """simulate checks once that the gap-filled market covers every
        simulated day, before it prices any case, and writes no file."""
        lines = (DATA_DIR / "market.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        removed = tuple(f"2023-12-{day}" for day in range(21, 32))
        (tmp_path / "market.csv").write_text("".join(ln for ln in lines if not ln.startswith(removed)), encoding="utf-8")
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR):
            rc = main(["simulate", "--config", str(cfg), "--cases", "actual-1", "--out", str(out)])
        assert rc == 3
        assert (
            "insufficient data: the market data covers 2022-01-01..2023-12-20, "
            "not sim_start..sim_end 2023-06-01..2023-12-31"
        ) in caplog.text
        assert list(out.iterdir()) == []


class TestHostileModelFiles:
    """A damaged copy of the forest model file that train wrote is a
    ValidationError naming the file, the error a command exits 2 on, not a
    crash."""

    @staticmethod
    def _edited_forest_model(pipeline_out, tmp_path, edit) -> Path:
        path = tmp_path / "forest_model.json"
        path.write_bytes(edit((pipeline_out / "forest_model.json").read_bytes()))
        return path

    def test_truncated_forest_model_exits_2(self, pipeline_out, tmp_path):
        path = self._edited_forest_model(pipeline_out, tmp_path, lambda raw: raw[:5000])
        with pytest.raises(ValidationError, match=r"forest_model\.json: invalid JSON"):
            forest.load_forest(path)

    def test_forest_child_index_past_the_end_exits_2(self, pipeline_out, tmp_path):
        """A leaf marked as a split: the last split's right child would fall
        past the end of the tree."""

        def leaf_made_a_split(raw):
            doc = json.loads(raw)
            trees = decode_nodes(doc)
            feature = trees[0]["feature"]
            feature[feature.index(-1)] = 0
            encode_nodes(doc, trees)
            return json.dumps(doc).encode()

        path = self._edited_forest_model(pipeline_out, tmp_path, leaf_made_a_split)
        with pytest.raises(ValidationError, match=r"forest_model\.json: tree 0: node count"):
            forest.load_forest(path)


class TestOverrides:
    def test_seed_override_changes_hash(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["ingest", "--config", str(FIXTURE_CONFIG), "--seed", "7", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "config_used.json").read_text(encoding="utf-8"))
        assert doc["seed"] == 7
        assert doc["config_hash"] != FIXTURE_HASH
        first = (out / "market_clean.csv").read_text(encoding="utf-8").splitlines()[0]
        assert first.endswith("seed=7")

    def test_actual_cases_need_no_models(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "simulate", "--config", str(FIXTURE_CONFIG),
            "--cases", "actual-1,actual-2", "--out", str(out),
        ])
        assert rc == 0
        report = (out / "report.txt").read_text(encoding="utf-8")
        assert "actual-1" in report and "actual-2" in report
        assert "forest" not in report and "lstm" not in report

    def test_model_case_without_model_exits_2(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR):
            rc = main([
                "simulate", "--config", str(FIXTURE_CONFIG),
                "--cases", "forest-1", "--out", str(tmp_path / "out"),
            ])
        assert rc == 2
        assert "train" in caplog.text


class TestExactMoney:
    """Report money is exact to the cent or the run exits 2: a case total
    past decimal's 28 significant digits is never rounded into report.txt."""

    @pytest.mark.parametrize(
        "overrides",
        [{"blocks_per_day": 10**22}, {"miner": {"unit_price_usd": 1e30}}],
        ids=["huge-revenue", "huge-cost"],
    )
    def test_money_past_28_digits_exits_2_naming_the_case(self, tmp_path, caplog, overrides):
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR):
            rc = main([
                "simulate", "--config", str(write_config(tmp_path, **overrides)),
                "--cases", "actual-1,actual-2", "--out", str(out),
            ])
        assert rc == 2
        assert "case actual-1: " in caplog.text and "28 significant digits" in caplog.text
        assert not (out / "report.txt").exists()

    def test_unit_count_past_the_float_range_exits_2_naming_power_w(self, tmp_path, caplog):
        """A miner tiny enough that a month's surplus runs infinitely many of them."""
        miner = {"power_w": 1e-306, "hashrate_ths": 1e-307, "efficiency_j_per_th": 10}
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR):
            rc = main([
                "simulate", "--config", str(write_config(tmp_path, miner=miner)),
                "--cases", "actual-1", "--out", str(out),
            ])
        assert rc == 2
        assert "validation error: miner.power_w 1e-306 is too small" in caplog.text
        assert not (out / "report.txt").exists()


TRAIN_OUTPUTS = ("forest_model.json", "lstm_model.json", "eval.csv", "train_summary.txt")


@pytest.fixture(scope="module")
def train_by_cpus(tmp_path_factory):
    """Fixture `train` with one and with two available CPUs, cli.fit_lstm
    recording the process it runs in and how many pool workers are alive:
    {cpus: {"files": bytes by name, "stdout": str, "calls": [(pid, workers)]}}."""
    runs = {}
    for cpus in (1, 2):
        out = tmp_path_factory.mktemp(f"train_{cpus}cpu")
        calls = []
        fit_lstm = cli.fit_lstm

        def recording(*args, **kwargs):
            calls.append((os.getpid(), len(multiprocessing.active_children())))
            return fit_lstm(*args, **kwargs)

        stdout = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
            mp.setattr(forest, "_available_cpus", lambda: cpus)
            mp.setattr(cli, "fit_lstm", recording)
            rc = main(["train", "--config", str(FIXTURE_CONFIG), "--out", str(out)])
        assert rc == 0
        files = {name: (out / name).read_bytes() for name in TRAIN_OUTPUTS}
        runs[cpus] = {"files": files, "stdout": stdout.getvalue(), "calls": calls}
    return runs


class TestTrainFits:
    """train fits the LSTM in this process while the forest's workers grow
    trees (serially after the trees with one CPU)."""

    def test_outputs_do_not_depend_on_cpu_count(self, train_by_cpus):
        serial, overlapped = train_by_cpus[1], train_by_cpus[2]
        for name in TRAIN_OUTPUTS:
            assert overlapped["files"][name] == serial["files"][name], name
        assert overlapped["stdout"] == serial["stdout"]

    def test_lstm_trains_in_this_process_while_workers_are_alive(self, train_by_cpus):
        # in this process, so the layer trace, which wraps cli.fit_lstm here, sees its span
        ((pid, workers),) = train_by_cpus[2]["calls"]
        assert pid == os.getpid()
        assert workers > 0

    def test_one_cpu_trains_the_lstm_once_without_workers(self, train_by_cpus):
        assert train_by_cpus[1]["calls"] == [(os.getpid(), 0)]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_lstm_failure_exits_3_and_leaves_no_worker(self, tmp_path, caplog, monkeypatch, cpus):
        monkeypatch.setattr(forest, "_available_cpus", lambda: cpus)
        # 11 training rows (2023-05-20..2023-05-30, whose targets fall on or
        # before train_end), fewer than the 14-day window: the LSTM fails
        # inside the fit
        cfg = write_config(tmp_path, train_start="2023-05-20")
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR):
            rc = main(["train", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        assert "need at least 14 feature rows, got 11" in caplog.text
        assert multiprocessing.active_children() == []
        # the forest is saved only once both fits have succeeded
        assert not (out / "forest_model.json").exists()

    def test_too_little_history_before_test_start_exits_3_before_any_fit(self, tmp_path, caplog):
        """Fewer feature rows before test_start than one LSTM window is refused
        before either fit runs: no model is written and an earlier run's model
        stays. Feature rows start 2022-01-17, so 8 precede 2022-01-25."""
        cfg = write_config(
            tmp_path, analysis_start="2022-01-01", train_start="2022-01-01", train_end="2022-01-24",
            test_start="2022-01-25", test_end="2022-03-31", sim_start="2022-01-25", sim_end="2022-03-31",
        )
        out = tmp_path / "out"
        out.mkdir()
        earlier = b'{"a forest model": "from an earlier run"}\n'
        (out / "forest_model.json").write_bytes(earlier)
        with caplog.at_level(logging.ERROR):
            rc = main(["train", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        assert "too little history before test_start 2022-01-25" in caplog.text
        assert "2022-01-11..2022-01-24, got 8" in caplog.text
        assert (out / "forest_model.json").read_bytes() == earlier
        assert not (out / "lstm_model.json").exists()

    def test_market_ending_before_test_end_exits_3_before_any_fit(self, tmp_path, caplog):
        """The fixture market ends 2023-12-31: a month of test days would have
        no price to forecast from, and simulate could never read the forecasts."""
        cfg = write_config(tmp_path, test_end="2024-01-31")
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR):
            rc = main(["train", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        assert "the market data ends on 2023-12-31, before test_end 2024-01-31" in caplog.text
        assert list(out.iterdir()) == []

    def test_window_reaching_before_the_first_date_exits_3(self, tmp_path, caplog):
        """test_start minus a million days is before 0001-01-01, which a date cannot hold."""
        cfg = write_config(tmp_path, lstm={**json.loads(FIXTURE_CONFIG.read_text())["lstm"], "window": 1_000_000})
        with caplog.at_level(logging.ERROR):
            rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert (
            "too little history before test_start 2023-06-01: the 1000000-day window needs the feature rows "
            "dated the 1000000 days up to 2023-05-31, got 500"
        ) in caplog.text
        assert not any(r.exc_info for r in caplog.records)


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` with `args` in a fresh interpreter that imports this package."""
    src = str(Path(cli.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=300
    )


MAIN = "import sys; from surplusminer.cli import main; sys.exit(main(sys.argv[1:]))"
# an interpreter in which any import of numpy fails
MAIN_WITHOUT_NUMPY = 'import sys; sys.modules["numpy"] = None; ' + MAIN
ACTUAL_CASES = "actual-1,actual-2"


class TestStartWithoutNumpy:
    """The commands that compute with no array run without importing numpy."""

    def test_array_free_commands_match_a_normal_run(self, tmp_path):
        commands = (("ingest",), ("features",), ("simulate", "--cases", ACTUAL_CASES), ("report", "--cases", ACTUAL_CASES))
        runs = {}
        for name, code in (("plain", MAIN), ("without_numpy", MAIN_WITHOUT_NUMPY)):
            out = tmp_path / name
            streams = []
            for args in commands:
                proc = run_fresh(code, *args, "--config", str(FIXTURE_CONFIG), "--out", str(out))
                assert proc.returncode == 0, (name, args, proc.stderr)
                streams.append((proc.stdout, proc.stderr))
            runs[name] = (streams, {path.name: path.read_bytes() for path in out.iterdir()})
        assert runs["without_numpy"] == runs["plain"]
        assert set(runs["plain"][1]) == {
            "config_used.json", "market_clean.csv", "surplus_monthly.csv", "ingest_summary.txt",
            "features.csv", "fleet.csv", "ledger.csv", "report.txt",
        }

    def test_simulate_and_report_after_train_match_a_normal_run(self, pipeline_out, tmp_path):
        """After a plain train, simulate and report with all six cases read
        forecasts.csv, import no numpy and need no model file."""
        runs = {}
        for name, code in (("plain", MAIN), ("without_numpy", MAIN_WITHOUT_NUMPY)):
            out = tmp_path / name
            shutil.copytree(pipeline_out, out)
            for removed in ("forest_model.json", "lstm_model.json", "fleet.csv", "ledger.csv", "report.txt"):
                (out / removed).unlink()
            streams = []
            for command in ("simulate", "report"):
                proc = run_fresh(code, command, "--config", str(FIXTURE_CONFIG), "--out", str(out))
                assert proc.returncode == 0, (name, command, proc.stderr)
                streams.append((proc.stdout, proc.stderr))
            runs[name] = (streams, {path.name: path.read_bytes() for path in out.iterdir()})
        assert runs["without_numpy"] == runs["plain"]
        assert runs["plain"][1]["report.txt"] == (DATA_DIR / "golden_report.txt").read_bytes()

    def test_model_modules_leave_numpy_random_unloaded(self):
        """A reader of a model file (load_forest or load_lstm, then predict)
        draws nothing, so importing the model modules must not pull in
        numpy.random (~4.5 ms); only a fit draws."""
        proc = run_fresh(
            "import sys, surplusminer.forest, surplusminer.lstm; "
            "print('numpy' in sys.modules, 'numpy.random' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False"]

    def test_train_needs_numpy(self, tmp_path):
        """The guard bites: train imports numpy, and the import fails."""
        proc = run_fresh(MAIN_WITHOUT_NUMPY, "train", "--config", str(FIXTURE_CONFIG), "--out", str(tmp_path / "out"))
        assert proc.returncode == 4
        assert "ModuleNotFoundError: import of numpy halted" in proc.stderr


class TestLayerBindings:
    """cli binds the numpy layers' names on first use, and a name set from
    outside (bench/layertrace.py's timing wrappers, a monkeypatch) stays."""

    def test_a_layer_name_resolves_before_any_command(self):
        proc = run_fresh(
            "import sys; from surplusminer import cli, lstm; "
            "print('fit_lstm' in vars(cli), cli.fit_lstm is lstm.fit_lstm, 'numpy' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True", "True"]

    def test_train_calls_a_wrapper_set_before_it_and_binds_every_name(self, tmp_path):
        code = """if True:
            import json, sys
            from surplusminer import cli, forest
            calls = []
            def wrapper(*args, **kwargs):
                calls.append(1)
                return forest.fit_forest(*args, **kwargs)
            cli.fit_forest = wrapper
            rc = cli.main(sys.argv[1:])
            unbound = [n for names in cli.NUMPY_LAYERS.values() for n in names if n not in vars(cli)]
            print(json.dumps([rc, len(calls), cli.fit_forest is wrapper, unbound]))
        """
        proc = run_fresh(code, "train", "--config", str(FIXTURE_CONFIG), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, 1, True, []]
