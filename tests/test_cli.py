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
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surplusminer import cli, forest
from surplusminer.cli import main
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


class TestFullPipeline:
    def test_writes_expected_files(self, pipeline_out):
        names = {p.name for p in pipeline_out.iterdir()}
        assert names == {
            "config_used.json", "market_clean.csv", "surplus_monthly.csv",
            "ingest_summary.txt", "features.csv", "forest_model.json",
            "lstm_model.json", "eval.csv", "train_summary.txt",
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
        for path in sorted(pipeline_out.glob("*.csv")) + sorted(pipeline_out.glob("*.txt")):
            first = path.read_text(encoding="utf-8").splitlines()[0]
            assert first == f"# config={FIXTURE_HASH} seed=42", path.name

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


class TestCausalForecasts:
    """No forest or LSTM price used on day d depends on a market price dated
    d or later. The models are the pipeline run's; only the inputs change."""

    @given(st.data())
    @settings(max_examples=8, deadline=None)
    def test_perturbing_prices_from_d_on_leaves_the_price_on_d(self, pipeline_out, data):
        cfg = cli.load_config(FIXTURE_CONFIG)
        market, _ = cli._load_clean_market(cfg)
        d = cfg.sim_start + timedelta(days=data.draw(st.integers(0, (cfg.sim_end - cfg.sim_start).days)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        perturbed = MarketSeries(
            [replace(r, price_usd=r.price_usd * rng.uniform(0.5, 2.0)) if r.day >= d else r for r in market.records]
        )
        before = cli._price_sources(cfg, pipeline_out, market)
        after = cli._price_sources(cfg, pipeline_out, perturbed)
        for name in ("forest", "lstm"):
            assert after[name].price_for(d) == before[name].price_for(d), name


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

    def test_train_overlapping_test_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, train_end="2023-07-01")
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_unknown_case_exits_2(self, tmp_path):
        rc = main([
            "simulate", "--config", str(FIXTURE_CONFIG),
            "--cases", "actual-3", "--out", str(tmp_path / "out"),
        ])
        assert rc == 2

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

    def test_report_without_ledger_exits_2(self, tmp_path):
        rc = main(["report", "--config", str(FIXTURE_CONFIG), "--out", str(tmp_path / "out")])
        assert rc == 2


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
        "overrides,args", [({}, ("--seed", "7")), ({"sim_end": "2023-12-30"}, ())], ids=["seed", "sim_end"]
    )
    def test_report_under_another_config_exits_2_naming_both_headers(
        self, pipeline_out, tmp_path, caplog, overrides, args
    ):
        """The ledger is headed with the config it was simulated under, all six
        cases included; a report under another config would relabel it."""
        config = write_config(tmp_path, **overrides)
        with caplog.at_level(logging.ERROR):
            rc = self._report_on_edited_ledger(pipeline_out, tmp_path, lambda lines: lines, *args, config=config)
        assert rc == 2
        written = (pipeline_out / "ledger.csv").read_text(encoding="utf-8").splitlines()[0]
        assert f"is headed {written!r}, but this run's ledger is headed '# config=" in caplog.text

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


def narrower_inputs(doc):
    """An LSTM model consistently one input column narrower than the features."""
    for name in ("W_f", "W_i", "W_c", "W_o"):
        doc["weights"][name] = [row[1:] for row in doc["weights"][name]]
    for key in ("mins", "maxs"):
        doc["scaler"][key] = doc["scaler"][key][1:]


class TestHostileModelFiles:
    """A damaged model file makes simulate exit 2 naming the file, not 4."""

    def _simulate_on_edited_model(self, pipeline_out, tmp_path, name, case, edit) -> int:
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        path = out / name
        path.write_bytes(edit(path.read_bytes()))
        return main(["simulate", "--config", str(FIXTURE_CONFIG), "--cases", case, "--out", str(out)])

    @staticmethod
    def _edit_json(change):
        def edit(raw):
            doc = json.loads(raw)
            change(doc)
            return json.dumps(doc).encode()

        return edit

    def test_truncated_forest_model_exits_2(self, pipeline_out, tmp_path, caplog):
        with caplog.at_level(logging.ERROR):
            rc = self._simulate_on_edited_model(
                pipeline_out, tmp_path, "forest_model.json", "forest-1", lambda raw: raw[:5000]
            )
        assert rc == 2
        assert "forest_model.json: invalid JSON" in caplog.text

    def test_forest_child_index_past_the_end_exits_2(self, pipeline_out, tmp_path, caplog):
        """A leaf marked as a split: the last split's right child would fall
        past the end of the tree."""

        def leaf_made_a_split(doc):
            trees = decode_nodes(doc)
            feature = trees[0]["feature"]
            feature[feature.index(-1)] = 0
            encode_nodes(doc, trees)

        with caplog.at_level(logging.ERROR):
            rc = self._simulate_on_edited_model(
                pipeline_out, tmp_path, "forest_model.json", "forest-1", self._edit_json(leaf_made_a_split)
            )
        assert rc == 2
        assert "forest_model.json: tree 0: node count" in caplog.text

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda p: p.update(n_trees=True), "key 'params.n_trees': expected int, got True"),
            (lambda p: p.update(max_depth=2.5), "key 'params.max_depth': expected int, got 2.5"),
            (lambda p: p.pop("seed"), "missing key 'params.seed'"),
            (lambda p: p.update(depth=3), "unknown key 'params.depth'"),
        ],
        ids=["boolean-n-trees", "float-max-depth", "missing-seed", "unknown-param"],
    )
    def test_forest_model_with_missing_or_mistyped_param_exits_2(
        self, pipeline_out, tmp_path, caplog, change, message
    ):
        with caplog.at_level(logging.ERROR):
            rc = self._simulate_on_edited_model(
                pipeline_out, tmp_path, "forest_model.json", "forest-1",
                self._edit_json(lambda doc: change(doc["params"])),
            )
        assert rc == 2
        assert f"forest_model.json: {message}" in caplog.text

    def test_truncated_lstm_model_exits_2(self, pipeline_out, tmp_path, caplog):
        with caplog.at_level(logging.ERROR):
            rc = self._simulate_on_edited_model(
                pipeline_out, tmp_path, "lstm_model.json", "lstm-1", lambda raw: raw[:5000]
            )
        assert rc == 2
        assert "lstm_model.json: invalid JSON" in caplog.text

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda doc: doc["weights"].pop("U_o"), "missing key 'U_o'"),
            (narrower_inputs, "expected 6 input columns, got 7"),
            (lambda doc: doc["config"].update(window=2.5), "key 'config.window': expected int, got 2.5"),
            (lambda doc: doc["config"].pop("seed"), "missing key 'config.seed'"),
            (lambda doc: doc["config"].update(epoch=3), "unknown key 'config.epoch'"),
            (lambda doc: doc["scaler"].update(mins="0"), "key 'mins'"),
            (lambda doc: doc["weights"]["V"].pop(), "weight 'V' has shape"),
            (lambda doc: doc["weights"]["W_f"][0].__setitem__(0, True), "key 'W_f'"),
            (lambda doc: doc["weights"]["V"].__setitem__(0, float("nan")), "key 'V': numbers must be finite"),
            (lambda doc: doc["scaler"]["maxs"].__setitem__(0, float("inf")), "key 'maxs': numbers must be finite"),
        ],
        ids=[
            "missing-weight",
            "narrower-inputs",
            "mistyped-config-window",
            "missing-config-seed",
            "unknown-config-key",
            "mistyped-scaler-bounds",
            "misshapen-weight",
            "boolean-weight",
            "nan-weight",
            "infinite-scaler-bound",
        ],
    )
    def test_lstm_model_with_missing_or_mistyped_key_exits_2(
        self, pipeline_out, tmp_path, caplog, change, message
    ):
        with caplog.at_level(logging.ERROR):
            rc = self._simulate_on_edited_model(
                pipeline_out, tmp_path, "lstm_model.json", "lstm-1", self._edit_json(change)
            )
        assert rc == 2
        assert f"lstm_model.json: {message}" in caplog.text


class TestModelSettings:
    """simulate uses a model only if it was trained under the run config's
    forest or lstm settings, seed included."""

    def test_lstm_model_with_another_window_exits_2(self, pipeline_out, tmp_path, caplog):
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        doc = json.loads((out / "lstm_model.json").read_text(encoding="utf-8"))
        doc["config"]["window"] = 10
        (out / "lstm_model.json").write_text(json.dumps(doc), encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            rc = main(["simulate", "--config", str(FIXTURE_CONFIG), "--cases", "lstm-1", "--out", str(out)])
        assert rc == 2
        assert "lstm_model.json: trained with window=10, but the run config has window=14" in caplog.text

    @pytest.mark.parametrize("case, model", [("forest-2", "forest_model.json"), ("lstm-2", "lstm_model.json")])
    def test_model_trained_under_another_seed_exits_2(self, pipeline_out, tmp_path, caplog, case, model):
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        report = (out / "report.txt").read_bytes()
        with caplog.at_level(logging.ERROR):
            rc = main(["simulate", "--config", str(FIXTURE_CONFIG), "--seed", "7", "--cases", case, "--out", str(out)])
        assert rc == 2
        assert f"{model}: trained with seed=42, but the run config has seed=7" in caplog.text
        assert (out / "report.txt").read_bytes() == report


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

    def test_model_modules_leave_numpy_random_unloaded(self):
        """simulate loads and predicts with both models and draws nothing, so
        importing them must not pull in numpy.random (~4.5 ms)."""
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
