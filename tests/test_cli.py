"""End-to-end command-line runs on the bundled fixture data."""
import contextlib
import hashlib
import io
import json
import logging
import multiprocessing
import os
import random
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
from surplusminer.errors import DataInsufficientError, ValidationError
from surplusminer.indicators import build_features
from surplusminer.ingest import MarketRecord

from conftest import DATA_DIR, FIXTURE_CONFIG, decode_nodes, encode_nodes, fails_after, killing_sampler

FIXTURE_HASH = "27f8a4472183"


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


def model_prices(name: str, model, market: list[MarketRecord]) -> dict:
    """Model `name`'s price for each fixture test day from the features of
    `market`, keyed by day: predict_matrix on the rows dated test_start-1..
    test_end-1, or predict_series on those rows and the window history before
    them. Both return one price per row dated test_start-1.., in row order."""
    cfg = cli.load_config(FIXTURE_CONFIG)
    _, rows = cli._split_features(cfg, build_features(market))
    last = rows[cfg.lstm.window - 1 :]
    prices = lstm.predict_series(model, rows) if name == "lstm" else forest.predict_matrix(model, last)
    return dict(zip((row.target_day for row in last), prices.tolist(), strict=True))


def reloaded_forecasts(out: Path, market: list[MarketRecord]) -> dict[str, dict]:
    """Both models' prices per test day, from the model files in `out` reloaded."""
    return {name: model_prices(name, load(out / f"{name}_model.json"), market) for name, load in LOADERS.items()}


def fixture_market() -> list[MarketRecord]:
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
        """sha256 of each output but lstm_model.json, whose bytes depend on
        the BLAS kernel, and the two text reports: train quotes each forecast
        to the cent, so forecasts.csv, eval.csv and ledger.csv do not."""
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

    def test_default_cases_hash_as_the_fixture_lists_them(self, tmp_path):
        """A config without `cases` runs the six cases in their default order,
        the fixture config's: both hash alike, so no output header changes.
        Reordering economics.CASES would change the default, and so every
        header."""
        cfg = json.loads(FIXTURE_CONFIG.read_text(encoding="utf-8"))
        del cfg["cases"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.config_hash(cli.load_config(path)) == FIXTURE_HASH

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
        assert f"config={FIXTURE_HASH}, seed=42, but the run config has config=a3f1ed3577d4, seed=7" in caplog.text
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
        perturbed = [replace(r, price_usd=r.price_usd * rng.uniform(0.5, 2.0)) if r.day >= d else r for r in market]
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

    def test_shuffled_market_rows_write_the_same_bytes(self, pipeline_out, tmp_path):
        """parse_market_csv alone puts the market in date order: nothing after
        it checks the order again."""
        header, *rows = (DATA_DIR / "market.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(7).shuffle(rows)
        assert rows != sorted(rows)
        (tmp_path / "market.csv").write_text(header + "".join(rows), encoding="utf-8")
        cfg = write_config(tmp_path)
        for cmd in ("ingest", "features"):
            assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        for name in ("market_clean.csv", "features.csv", "ingest_summary.txt"):
            assert (tmp_path / "out" / name).read_bytes() == (pipeline_out / name).read_bytes(), name

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

    def test_surplus_missing_a_simulated_month_exits_2_naming_the_scenario(self, tmp_path, caplog):
        """Fleet plans cover the months the surplus file has; a simulated day in
        any other month is refused before an output is written."""
        text = (DATA_DIR / "surplus.csv").read_text(encoding="utf-8")
        kept = [line for line in text.splitlines(keepends=True) if ",2023-12," not in line]
        assert len(kept) < len(text.splitlines())
        (tmp_path / "surplus.csv").write_text("".join(kept), encoding="utf-8")
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR):
            rc = main(["simulate", "--config", str(write_config(tmp_path)), "--cases", "actual-1,actual-2",
                       "--out", str(out)])
        assert rc == 2
        assert caplog.messages == ["validation error: scenario 1, 2023-12-01: plan has no entry for month 2023-12"]
        assert not any((out / name).exists() for name in ("fleet.csv", "ledger.csv", "report.txt"))

    def test_a_simulated_day_before_the_reward_schedule_exits_2(self, tmp_path, caplog):
        """The fixture moved back 11 years simulates 2012-06-01..2012-12-31,
        which starts before the first block reward that fleet.HALVING_SCHEDULE
        defines (2012-11-28); no output is written."""
        for name in ("market.csv", "surplus.csv"):
            text = (DATA_DIR / name).read_text(encoding="utf-8")
            for year in (2021, 2022, 2023):
                text = text.replace(f"\n{year}-", f"\n{year - 11}-").replace(f",{year}-", f",{year - 11}-")
            (tmp_path / name).write_text(text, encoding="utf-8")
        config = write_config(
            tmp_path, analysis_start="2011-01-01", train_start="2011-01-01", train_end="2012-05-31",
            test_start="2012-06-01", test_end="2012-12-31", sim_start="2012-06-01", sim_end="2012-12-31",
            surplus_months=["2010-01", "2012-12"],
        )
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR):
            rc = main(["simulate", "--config", str(config), "--cases", "actual-1,actual-2", "--out", str(out)])
        assert rc == 2
        assert caplog.messages == ["validation error: no reward defined before 2012-11-28, got 2012-06-01"]
        assert list(out.iterdir()) == []

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
        """blocks_per_day, miner.efficiency_j_per_th, forest.min_samples_leaf and
        forest.max_depth were keys (144 blocks, power / hash rate, 1 and none):
        an old config that sets any of them exits 2."""
        unknown = {"typo_key": {"typo_key": 1}, "blocks_per_day": {"blocks_per_day": 144},
                   "miner.efficiency_j_per_th": {"miner": {"efficiency_j_per_th": 12.0}},
                   "forest.min_samples_leaf": {"forest": {"min_samples_leaf": 1}},
                   "forest.max_depth": {"forest": {"max_depth": None}}}
        for key, overrides in unknown.items():
            cfg = write_config(tmp_path, **overrides)
            caplog.clear()
            with caplog.at_level(logging.ERROR):
                rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
            assert rc == 2, key
            assert f"unknown config key {key!r}" in caplog.text

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
            # the one check of each: no library function tests these again
            ("lstm", {"clip_norm": 0}, "clip_norm must be > 0, got 0.0"),
            ("lstm", {"hidden_size": 0}, "hidden_size must be >= 1, got 0"),
            ("miner", {"lifespan_months": 0}, "lifespan_months must be > 0, got 0"),
            ("miner", {"unit_price_usd": 0}, "unit_price_usd must be > 0, got 0.0"),
        ],
        ids=[
            "forest", "lstm", "miner",
            "lstm-clip_norm", "lstm-hidden_size", "miner-lifespan_months", "miner-unit_price_usd",
        ],
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

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
    def test_loss_rate_out_of_range_exits_2(self, tmp_path, caplog, rate):
        cfg = write_config(tmp_path, loss_rate=rate)
        with caplog.at_level(logging.ERROR):
            rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert [r.getMessage() for r in caplog.records] == [
            f"validation error: {cfg}: loss_rate must be in [0, 1), got {rate}"
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

    @pytest.mark.parametrize(
        "months",
        [["foo", "bar"], ["2023-12", "2021-01"], ["2021-01", "\u0662\u0660\u0662\u0663-12"]],
        ids=["not-months", "reversed", "non-ascii-digits"],
    )
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


def negative_lstm(day: str):
    """An edit of forecasts.csv's lines: lstm's price for `day` becomes -1.0."""
    def edit(lines):
        (i,) = [i for i, line in enumerate(lines) if line.startswith(f"{day},")]
        lines[i] = lines[i].rsplit(",", 1)[0] + ",-1.0\n"
        return lines

    return edit


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

    @pytest.mark.parametrize("cell, value, message", [
        (7, "1e300", "revenue_usd must be in [0, 3.6e+15], got '1e300'"),
        (7, "-5000000.0", "revenue_usd must be in [0, 3.6e+15], got '-5000000.0'"),
        (7, "nan", "non-finite value 'nan' in revenue_usd"),
        (7, "inf", "non-finite value 'inf' in revenue_usd"),
        (1, "3", "unknown case 'actual-3'"),
        (2, "persistence", "unknown case 'persistence-1'"),
    ], ids=["1e300", "-5000000.0", "nan", "inf", "scenario-3", "persistence"])
    def test_report_on_ledger_with_out_of_range_revenue_exits_2_naming_the_line(
        self, pipeline_out, tmp_path, caplog, cell, value, message
    ):
        """A day's revenue must be finite and lie in [0, $1e12 x 25 BTC x 144
        blocks] (1e300 once overflowed the cents conversion, and a negative
        day was summed), and its price source and scenario must be a case of
        economics.CASES."""
        def edit(lines):
            cells = lines[2].split(",")  # line 3, the first day of actual-1
            cells[cell] = value
            return lines[:2] + [",".join(cells)] + lines[3:]

        with caplog.at_level(logging.ERROR):
            rc = self._report_on_edited_ledger(pipeline_out, tmp_path, edit)
        assert rc == 2
        assert f"ledger.csv:3: {message}" in caplog.text

    def test_report_on_ledger_without_a_row_exits_2_naming_every_case(self, pipeline_out, tmp_path, caplog):
        """A ledger with its header lines and no row lacks every case (it exited 3, as no records)."""
        with caplog.at_level(logging.ERROR):
            rc = self._report_on_edited_ledger(pipeline_out, tmp_path, lambda lines: lines[:2])
        assert rc == 2
        assert (
            f"{tmp_path / 'out' / 'ledger.csv'} has no rows for requested case(s): "
            "actual-1, actual-2, forest-1, forest-2, lstm-1, lstm-2"
        ) in caplog.text

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
        """Quoted to the cent: round(price, 2) of each model's prediction."""
        lines = (pipeline_out / "forecasts.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1] == "day,forest_usd,lstm_usd"
        got = {"forest": {}, "lstm": {}}
        for line in lines[2:]:
            day, forest_usd, lstm_usd = line.split(",")
            got["forest"][date.fromisoformat(day)] = float(forest_usd).hex()
            got["lstm"][date.fromisoformat(day)] = float(lstm_usd).hex()
        want = reloaded_forecasts(pipeline_out, fixture_market())
        assert got == {name: {day: round(price, 2).hex() for day, price in prices.items()} for name, prices in want.items()}
        assert len(got["lstm"]) == 214

    def test_header_names_what_the_prices_depend_on(self, pipeline_out):
        first = (pipeline_out / "forecasts.csv").read_text(encoding="utf-8").splitlines()[0]
        assert first == "# " + " ".join([
            f"market_sha256={sha256(DATA_DIR / 'market.csv')}",
            "analysis_start=2022-01-01", "train_start=2022-01-01", "train_end=2023-05-31",
            "test_start=2023-06-01", "test_end=2023-12-31",
            "forest.schema=forest-model/5", "forest.n_trees=20", "forest.m_try=None", "forest.seed=42",
            "lstm.schema=lstm-model/3", "lstm.epochs=5", "lstm.window=14", "lstm.hidden_size=16", "lstm.learning_rate=0.001",
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
                {"forest": {"n_trees": 10, "m_try": 3}},
                ("--cases", "actual-1,forest-1"),
                "forest.n_trees=20, forest.m_try=None",
                "forest.n_trees=10, forest.m_try=3",
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

    @pytest.mark.parametrize(
        "made_with, header_edit",
        [("lstm-model/2", ("lstm.schema=lstm-model/3", "lstm.schema=lstm-model/2")),
         ("None", (" lstm.schema=lstm-model/3", ""))],
        ids=["sgd-era-schema", "no-schema-field"],
    )
    def test_lstm_forecasts_of_another_schema_exit_2(self, pipeline_out, tmp_path, caplog, made_with, header_edit):
        """Forecasts from an LSTM trained another way (lstm-model/2 took plain
        SGD steps; a header from before the schema field has none) are not
        priced; the cases that use only actual prices still run."""
        edit = self._edit_rows(lambda lines: [lines[0].replace(*header_edit), *lines[1:]])
        rc = self._simulate_on_copy(pipeline_out, tmp_path, caplog, "--cases", "lstm-1", edit=edit)
        assert rc == 2
        assert (
            f"{tmp_path / 'out' / 'forecasts.csv'} was made with lstm.schema={made_with}, but the run config has "
            "lstm.schema=lstm-model/3; run train again"
        ) in caplog.text
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "config.json"), "--out", str(out), "--cases", "actual-1,actual-2"]) == 0
        assert main(["simulate", "--config", str(tmp_path / "config.json"), "--out", str(out), "--cases", "forest-1"]) == 0

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

    def test_forecasts_without_a_row_exits_2_saying_run_train_again(self, pipeline_out, tmp_path, caplog):
        """Its header lines and no row: one row per test day is missing (it exited 3, as no records)."""
        rc = self._simulate_on_copy(pipeline_out, tmp_path, caplog, edit=self._edit_rows(lambda lines: lines[:2]))
        assert rc == 2
        assert (
            f"{tmp_path / 'out' / 'forecasts.csv'} must have one row per day from 2023-06-01 to 2023-12-31, "
            "in date order; run train again"
        ) in caplog.text

    def test_negative_forecast_exits_2_naming_the_model_and_the_day(self, pipeline_out, tmp_path, caplog):
        """Any finite price is read; simulate refuses a negative one on a
        simulated day, naming the file, the model and the day."""
        def negative(lines):
            lines[2] = lines[2].rsplit(",", 1)[0] + ",-1.5\n"
            return lines

        rc = self._simulate_on_copy(pipeline_out, tmp_path, caplog, "--cases", "lstm-1", edit=self._edit_rows(negative))
        assert rc == 2
        forecasts = tmp_path / "out" / "forecasts.csv"
        assert f"{forecasts}: lstm price for 2023-06-01 must be in [0, 1e+12], got -1.5" in caplog.text

    def test_forecast_above_the_price_bound_exits_2_before_writing(self, pipeline_out, tmp_path, caplog):
        """simulate refuses a price above $1e12 as it does a negative one; no other file changes."""
        def huge(lines):
            day, _, lstm_usd = lines[3].split(",")
            lines[3] = f"{day},1e300,{lstm_usd}"
            return lines

        rc = self._simulate_on_copy(pipeline_out, tmp_path, caplog, edit=self._edit_rows(huge))
        assert rc == 2
        forecasts = tmp_path / "out" / "forecasts.csv"
        assert f"{forecasts}: forest price for 2023-06-02 must be in [0, 1e+12], got 1e+300" in caplog.text
        out = tmp_path / "out"
        for path in pipeline_out.iterdir():
            if path.name != "forecasts.csv":
                assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize(
        "overrides, args, edit, kept",
        [
            ({"sim_end": "2023-09-30"}, (), None, lambda cells: cells[0] <= "2023-09-30"),
            ({"sim_start": "2023-08-01"}, (), negative_lstm("2023-06-05"), lambda cells: cells[0] >= "2023-08-01"),
            ({}, ("--cases", "forest-1,lstm-2"), None, lambda cells: cells[2] + cells[1] in ("forest1", "lstm2")),
        ],
        ids=["sim_end", "sim_start", "cases"],
    )
    def test_sim_end_or_cases_inside_the_test_window_need_no_retrain(
        self, pipeline_out, tmp_path, caplog, overrides, args, edit, kept
    ):
        """The rows simulated are the full run's rows of the days and cases
        kept. Only the simulated days' forecasts are checked: the sim_start
        run has a negative lstm price on 2023-06-05, before sim_start."""
        rc = self._simulate_on_copy(
            pipeline_out, tmp_path, caplog, *args, edit=edit and self._edit_rows(edit), **overrides
        )
        assert rc == 0
        rows = (tmp_path / "out" / "ledger.csv").read_text(encoding="utf-8").splitlines()[2:]
        full = (pipeline_out / "ledger.csv").read_text(encoding="utf-8").splitlines()[2:]
        assert rows == [row for row in full if kept(row.split(","))]
        assert len(rows) in (6 * 122, 6 * 153, 2 * 214)

    @pytest.mark.parametrize("cases", ["lstm-1", "actual-1,lstm-1"], ids=["lstm-1", "actual-1,lstm-1"])
    def test_a_case_fails_on_its_first_bad_day(self, pipeline_out, tmp_path, caplog, cases):
        """A surplus file without 2023-12 would stop the mining on 2023-12-01,
        and lstm-1's price on 2023-06-05 is negative. The prices are checked
        before any day is mined, so the price is the error, also when
        actual-1, sorted first, runs too. Either way no output is written."""
        config = write_config(tmp_path)
        surplus = tmp_path / "surplus.csv"
        lines = surplus.read_text(encoding="utf-8").splitlines(keepends=True)
        surplus.write_text("".join(line for line in lines if ",2023-12," not in line), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        forecasts = (pipeline_out / "forecasts.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        (out / "forecasts.csv").write_text("".join(negative_lstm("2023-06-05")(forecasts)), encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            rc = main(["simulate", "--config", str(config), "--out", str(out), "--cases", cases])
        assert rc == 2
        assert caplog.messages == [
            f"validation error: {out / 'forecasts.csv'}: lstm price for 2023-06-05 must be in [0, 1e+12], got -1.0"
        ]
        assert sorted(p.name for p in out.iterdir()) == ["forecasts.csv"]


class TestSimulateReport:
    """simulate reports the revenue it sums as it writes ledger.csv; report
    sums the same revenue read back from the file."""

    @pytest.mark.parametrize("cases", [None, "lstm-2,actual-1"], ids=["all-cases", "lstm-2,actual-1"])
    def test_simulate_writes_and_prints_the_report_that_report_does(self, pipeline_out, tmp_path, capsys, cases):
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        args = ["--config", str(FIXTURE_CONFIG), "--out", str(out), *(("--cases", cases) if cases else ())]
        capsys.readouterr()
        assert main(["simulate", *args]) == 0
        simulated = (out / "report.txt").read_bytes(), capsys.readouterr().out
        assert "lstm-2" in simulated[1]
        assert main(["report", *args]) == 0
        assert ((out / "report.txt").read_bytes(), capsys.readouterr().out) == simulated

    def test_fleet_share_cap_warns_once_per_scenario_and_day(self, tmp_path, caplog):
        """A day whose network hash rate is below the fleet's mines at a share
        of 1, in every case of the scenario, and is logged once per scenario:
        mining does not depend on the price source."""
        config = write_config(tmp_path)
        market = tmp_path / "market.csv"
        text = market.read_text(encoding="utf-8")
        day = "\n2023-07-04,17951.27,383493284.3\n"
        assert day in text
        market.write_text(text.replace(day, "\n2023-07-04,17951.27,100000.0\n"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            f"fleet hash rate {ths} TH/s exceeds the network's 100000 TH/s; capping share at 1"
            for ths in (1225070, 939851)
        ]
        rows = (out / "ledger.csv").read_text(encoding="utf-8").splitlines()[2:]
        btc_mined = [row.split(",")[6] for row in rows if row.startswith("2023-07-04,")]
        assert btc_mined == [repr(6.25 * 144)] * 6


class TestMarketWindow:
    """fill_gaps gives every command the market over analysis_start..test_end
    day by day, or refuses it; no command checks the market's dates again."""

    @staticmethod
    def write_market(tmp_path: Path, edit) -> Path:
        """The fixture config in tmp_path, its market.csv's lines passed through edit."""
        lines = (DATA_DIR / "market.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        (tmp_path / "market.csv").write_text("".join(edit(lines)), encoding="utf-8")
        return write_config(tmp_path)

    @pytest.mark.parametrize("command", ["ingest", "features", "train", "simulate"])
    def test_market_ending_before_test_end_exits_3_leaving_out_unchanged(
        self, pipeline_out, tmp_path, caplog, command
    ):
        """Cut at 2023-12-20, the market has no record on or after test_end:
        each command exits 3 with fill_gaps' message, and an earlier run's
        output directory stays as it was, config_used.json included."""
        removed = tuple(f"2023-12-{day}" for day in range(21, 32))
        cfg = self.write_market(tmp_path, lambda lines: [ln for ln in lines if not ln.startswith(removed)])
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        with caplog.at_level(logging.ERROR):
            rc = main([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        assert caplog.messages == ["insufficient data: the market data ends on 2023-12-20, before 2023-12-31"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {p.name: p.read_bytes() for p in pipeline_out.iterdir()}

    def test_a_gap_on_test_end_takes_the_day_before(self, tmp_path, capsys):
        """Without a 2023-12-31 row but with one for 2024-01-01, test_end is
        filled from 2023-12-30 like any other gap: the run writes the prices
        and the report of a market whose 2023-12-31 row copies 2023-12-30's.
        Only the market file's sha256 in the forecasts' and the ledger's
        headers tells the two runs apart."""

        def gap_on_test_end(lines):
            return [ln for ln in lines if not ln.startswith("2023-12-31")] + ["2024-01-01,99999.0,1.0\n"]

        def copy_of_the_day_before(lines):
            (day_before,) = [ln for ln in lines if ln.startswith("2023-12-30")]
            return [ln for ln in lines if not ln.startswith("2023-12-31")] + [day_before.replace("12-30", "12-31")]

        outs = []
        for name, edit in (("gap", gap_on_test_end), ("copy", copy_of_the_day_before)):
            (tmp_path / name).mkdir()
            cfg = self.write_market(tmp_path / name, edit)
            outs.append(tmp_path / name / "out")
            for cmd in ("ingest", "features", "train", "simulate", "report"):
                assert main([cmd, "--config", str(cfg), "--out", str(outs[-1])]) == 0, f"{name}: {cmd}"
            if name == "gap":
                assert "gap days filled by carry-forward: 1" in capsys.readouterr().out
        gap, copy = outs
        assert (gap / "report.txt").read_bytes() == (copy / "report.txt").read_bytes()
        assert (gap / "market_clean.csv").read_bytes() == (copy / "market_clean.csv").read_bytes()
        for name in ("forecasts.csv", "ledger.csv"):
            gap_lines, copy_lines = ((out / name).read_text(encoding="utf-8").splitlines() for out in outs)
            assert gap_lines[0] != copy_lines[0]
            assert gap_lines[1:] == copy_lines[1:]


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
    past decimal's 28 significant digits is never rounded into report.txt.
    Only the cost gets there: a day earns at most $1e12 x 25 BTC x 144 blocks
    = $3.6e15, so no simulated window's revenue has 28 digits of cents."""

    @pytest.mark.parametrize(
        "overrides",
        [{"miner": {"unit_price_usd": 1e30}}],
        ids=["huge-cost"],
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
        miner = {"power_w": 1e-306, "hashrate_ths": 1e-307}
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
        assert multiprocessing.active_children() == []
        files = {name: (out / name).read_bytes() for name in TRAIN_OUTPUTS}
        runs[cpus] = {"files": files, "stdout": stdout.getvalue(), "calls": calls}
    return runs


class TestTrainFits:
    """train fits the LSTM in this process while the forest's worker grows
    the trees (serially after the trees with one CPU)."""

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

    @staticmethod
    def refused_train(cfg: Path, pipeline_out: Path, tmp_path: Path) -> int:
        """train's exit code in a copy of a full run's output directory whose
        models stand in for an earlier run's. train must leave it as it was:
        a refused train writes no file."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        for name in ("forest_model.json", "lstm_model.json"):
            (out / name).write_text(f'{{"a {name} model": "from an earlier run"}}\n')
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        rc = main(["train", "--config", str(cfg), "--out", str(out)])
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        return rc

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_lstm_failure_exits_3_and_leaves_no_worker(self, pipeline_out, tmp_path, caplog, monkeypatch, cpus):
        """An LSTM fit that fails while the forest's worker grows its trees
        (or after them, on one CPU) ends train with its own exit code."""

        def too_little_data(*args, **kwargs):
            raise DataInsufficientError("the LSTM found too little data")

        monkeypatch.setattr(forest, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "fit_lstm", too_little_data)
        with fails_after(60), caplog.at_level(logging.ERROR):
            rc = self.refused_train(FIXTURE_CONFIG, pipeline_out, tmp_path)
        assert rc == 3
        assert caplog.messages == ["insufficient data: the LSTM found too little data"]
        assert multiprocessing.active_children() == []

    def test_too_few_training_rows_for_one_window_exits_3_before_any_fit(
        self, pipeline_out, tmp_path, caplog, monkeypatch
    ):
        """11 training rows (2023-05-20..2023-05-30, whose targets fall on or
        before train_end) are fewer than the 14-day window: refused before
        the forest's worker starts or any tree grows."""
        fits = []
        monkeypatch.setattr(cli, "fit_forest", lambda *args, **kwargs: fits.append(args))
        cfg = write_config(tmp_path, train_start="2023-05-20")
        with caplog.at_level(logging.ERROR):
            rc = self.refused_train(cfg, pipeline_out, tmp_path)
        assert rc == 3
        assert caplog.messages == [
            "insufficient data: too few training rows: train_start..train_end 2023-05-20..2023-05-31 "
            "gives 11 feature rows, fewer than the 14-day LSTM window"
        ]
        assert fits == []

    def test_a_training_window_without_feature_rows_exits_3_before_any_fit(self, pipeline_out, tmp_path, caplog):
        """train_start = train_end leaves no row dated train_start..train_end-1."""
        cfg = write_config(tmp_path, train_start="2023-05-31")
        with caplog.at_level(logging.ERROR):
            rc = self.refused_train(cfg, pipeline_out, tmp_path)
        assert rc == 3
        assert caplog.messages == [
            "insufficient data: too few training rows: train_start..train_end 2023-05-31..2023-05-31 "
            "gives 0 feature rows, fewer than the 14-day LSTM window"
        ]

    def test_constant_test_prices_exit_2_writing_no_file(self, pipeline_out, tmp_path, caplog):
        """Every test day at one price leaves r2 undefined. Both models are fit
        before that shows, but neither is written: an earlier run's stay."""
        cfg = write_config(tmp_path)
        market = tmp_path / "market.csv"
        lines = market.read_text().splitlines()
        for i, line in enumerate(lines):
            day, _, hashrate = line.split(",")
            if "2023-06-01" <= day <= "2023-12-31":
                lines[i] = f"{day},30000.0,{hashrate}"
        market.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.ERROR):
            rc = self.refused_train(cfg, pipeline_out, tmp_path)
        assert rc == 2
        assert caplog.messages == ["validation error: r2 undefined: actual series is constant"]

    def test_killed_forest_worker_exits_4(self, tmp_path, caplog, monkeypatch):
        """The forest's worker killed mid-fit (as the OOM killer would) ends
        train at once, in one line, rather than leaving it waiting for the
        lost trees."""
        monkeypatch.setattr(forest, "_available_cpus", lambda: 2)
        monkeypatch.setattr(forest, "bootstrap_sample", killing_sampler())
        with fails_after(60), caplog.at_level(logging.ERROR):
            rc = main(["train", "--config", str(FIXTURE_CONFIG), "--out", str(tmp_path / "out")])
        assert rc == 4
        assert caplog.messages == [
            "out of memory: the forest worker died before returning its trees, most likely killed for memory"
        ]
        assert not any(r.exc_info for r in caplog.records)
        assert multiprocessing.active_children() == []

    def test_error_in_forest_worker_keeps_its_exit_code(self, tmp_path, caplog, monkeypatch):
        """The worker's exception reaches train with its own type, so a
        ValidationError drawn in the worker exits 2, as it would here."""
        here = os.getpid()

        def draw(n, rng):
            if os.getpid() != here:
                raise ValidationError("drawn in the worker")
            return np.arange(n)

        monkeypatch.setattr(forest, "_available_cpus", lambda: 2)
        monkeypatch.setattr(forest, "bootstrap_sample", draw)
        with fails_after(60), caplog.at_level(logging.ERROR):
            rc = main(["train", "--config", str(FIXTURE_CONFIG), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert caplog.messages == ["validation error: drawn in the worker"]
        assert multiprocessing.active_children() == []

    def test_out_of_memory_exits_4_in_one_line(self, tmp_path, caplog, monkeypatch):
        """A fit too large for memory is refused without a traceback. The
        MemoryError is raised, not provoked: with memory overcommit a huge
        allocation can succeed and then thrash the machine."""

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 29.1 TiB for an array with shape (4, 1000000, 1000000)")

        monkeypatch.setattr(forest, "_available_cpus", lambda: 1)
        monkeypatch.setattr(cli, "fit_lstm", out_of_memory)
        with caplog.at_level(logging.ERROR):
            rc = main(["train", "--config", str(FIXTURE_CONFIG), "--out", str(tmp_path / "out")])
        assert rc == 4
        assert caplog.messages == ["out of memory: Unable to allocate 29.1 TiB for an array with shape (4, 1000000, 1000000)"]
        assert not any(r.exc_info for r in caplog.records)

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
# one in which any import of multiprocessing or concurrent (the forest's worker pool) fails
MAIN_WITHOUT_POOL = 'import sys; sys.modules["multiprocessing"] = sys.modules["concurrent"] = None; ' + MAIN
# pinned to one CPU, where train grows the trees in its own process
ONE_CPU = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
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

    def test_growing_trees_leaves_numpy_ma_unloaded(self):
        """np.unique imports numpy.ma (~20 ms in the forked forest worker of
        every train); grow_trees must not."""
        proc = run_fresh(
            "import sys, numpy as np; from surplusminer.forest import ForestParams, grow_trees, tree_rng; "
            "X = np.random.default_rng(0).normal(size=(50, 3)); "
            "trees = grow_trees(X, X.sum(axis=1), ForestParams(n_trees=2), [np.arange(50)] * 2, "
            "[tree_rng(0, 0), tree_rng(0, 1)]); "
            "print(trees[0].node_count > 1, 'numpy.ma' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False"]

    def test_train_needs_numpy(self, tmp_path):
        """The guard bites: train imports numpy, and the import fails."""
        proc = run_fresh(MAIN_WITHOUT_NUMPY, "train", "--config", str(FIXTURE_CONFIG), "--out", str(tmp_path / "out"))
        assert proc.returncode == 4
        assert "ModuleNotFoundError: import of numpy halted" in proc.stderr


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
class TestStartWithoutPool:
    """Only a train that forks its forest worker imports multiprocessing and
    concurrent.futures (~20-38 ms of a start-up-bound command)."""

    def test_commands_without_a_worker_match_a_normal_run(self, tmp_path):
        commands = ("ingest", "features", "train", "simulate", "report")
        runs = {}
        for name, code in (("plain", MAIN), ("without_pool", MAIN_WITHOUT_POOL)):
            out = tmp_path / name
            streams = []
            for command in commands:
                pin = ONE_CPU if command == "train" else ""
                proc = run_fresh(pin + code, command, "--config", str(FIXTURE_CONFIG), "--out", str(out))
                assert proc.returncode == 0, (name, command, proc.stderr)
                streams.append((proc.stdout, proc.stderr))
            runs[name] = (streams, {path.name: path.read_bytes() for path in out.iterdir()})
        assert runs["without_pool"] == runs["plain"]
        assert runs["plain"][1]["report.txt"] == (DATA_DIR / "golden_report.txt").read_bytes()

    @pytest.mark.skipif(forest._available_cpus() < 2, reason="needs two CPUs to fork a worker")
    def test_forking_train_needs_the_pool(self, pipeline_out, tmp_path):
        """The guard bites: train on two CPUs or more imports the pool, and the import fails."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        proc = run_fresh(MAIN_WITHOUT_POOL, "train", "--config", str(FIXTURE_CONFIG), "--out", str(out))
        assert proc.returncode == 4
        assert "ModuleNotFoundError: import of multiprocessing halted" in proc.stderr


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
