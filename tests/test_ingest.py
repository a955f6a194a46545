"""Parsing, validation, gap filling, surplus aggregation, and the output format."""
import csv
import logging
from datetime import date, timedelta

import pytest

from surplusminer.economics import LEDGER_COLUMNS, DailyLedgerEntry, read_ledger_totals, write_ledger_csv
from surplusminer.errors import DataInsufficientError, ValidationError
from surplusminer.ingest import (
    MarketRecord,
    MarketSeries,
    MonthlySurplusTotal,
    SurplusRecord,
    days_in_month,
    fill_gaps,
    monthly_totals,
    output_file,
    parse_market_csv,
    parse_surplus_csv,
    write_market_csv,
    write_output_csv,
)
from surplusminer.metrics import EvalReport, write_eval_csv

from conftest import make_series


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


MARKET_HEADER = "date,price_usd,network_hashrate_ths\n"


class TestMarketParsing:
    def test_basic_round_trip(self, tmp_path):
        p = write(
            tmp_path,
            "m.csv",
            MARKET_HEADER
            + "2023-01-01,16625.08,255000000.0\n"
            + "2023-01-02,16688.47,260123456.5\n",
        )
        series = parse_market_csv(p)
        assert len(series) == 2
        assert series.start == date(2023, 1, 1)
        assert series.lookup(date(2023, 1, 2)).price_usd == 16688.47

        out = tmp_path / "round.csv"
        write_market_csv(series, out)
        again = parse_market_csv(out)
        assert again.records == series.records

    def test_unsorted_input_is_sorted(self, tmp_path):
        p = write(
            tmp_path,
            "m.csv",
            MARKET_HEADER + "2023-01-02,2.0,1.0\n2023-01-01,1.0,1.0\n",
        )
        series = parse_market_csv(p)
        assert [r.day for r in series.records] == [date(2023, 1, 1), date(2023, 1, 2)]

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        p = write(
            tmp_path,
            "m.csv",
            "# config=deadbeef0123 seed=7\n" + MARKET_HEADER + "\n2023-01-01,1.0,1.0\n",
        )
        assert len(parse_market_csv(p)) == 1

    def test_wrong_header_rejected(self, tmp_path):
        p = write(tmp_path, "m.csv", "day,price,hash\n2023-01-01,1.0,1.0\n")
        with pytest.raises(ValidationError):
            parse_market_csv(p)

    @pytest.mark.parametrize(
        "row",
        [
            "not-a-date,1.0,1.0",
            "2023-01-01,abc,1.0",
            "2023-01-01,-5.0,1.0",
            "2023-01-01,1.0,0.0",
            "2023-01-01,nan,1.0",
            "2023-01-01,1.0",
        ],
    )
    def test_bad_rows_name_the_line(self, tmp_path, row):
        p = write(tmp_path, "m.csv", MARKET_HEADER + row + "\n")
        with pytest.raises(ValidationError, match=r"m\.csv:2"):
            parse_market_csv(p)

    def test_duplicate_date_rejected(self, tmp_path):
        p = write(
            tmp_path,
            "m.csv",
            MARKET_HEADER + "2023-01-01,1.0,1.0\n2023-01-01,2.0,1.0\n",
        )
        with pytest.raises(ValidationError, match="duplicate"):
            parse_market_csv(p)


class TestMarketSeries:
    def test_clip(self):
        series = make_series([1, 2, 3, 4, 5], start=date(2023, 1, 1))
        clipped = series.clip(date(2023, 1, 2), date(2023, 1, 4))
        assert clipped.prices() == [2.0, 3.0, 4.0]

    def test_lookup_missing_returns_none(self):
        series = make_series([1, 2])
        assert series.lookup(date(1999, 1, 1)) is None


class TestFillGaps:
    def test_carries_previous_day_forward(self):
        gappy = MarketSeries(
            (
                MarketRecord(date(2023, 1, 1), 10.0, 100.0),
                MarketRecord(date(2023, 1, 4), 40.0, 400.0),
            )
        )
        filled = fill_gaps(gappy)
        assert len(filled) == 4
        assert filled.lookup(date(2023, 1, 2)).price_usd == 10.0
        assert filled.lookup(date(2023, 1, 3)).network_hashrate_ths == 100.0
        assert len(filled) == (filled.end - filled.start).days + 1

    def test_requested_start_before_data_raises(self):
        series = make_series([1, 2, 3], start=date(2023, 1, 10))
        with pytest.raises(DataInsufficientError, match="start"):
            fill_gaps(series, start=date(2023, 1, 1))

    def test_gap_at_a_later_start_takes_the_record_before(self):
        gappy = MarketSeries(
            (
                MarketRecord(date(2023, 1, 1), 10.0, 100.0),
                MarketRecord(date(2023, 1, 4), 40.0, 400.0),
            )
        )
        filled = fill_gaps(gappy, start=date(2023, 1, 3))
        assert filled.dates() == [date(2023, 1, 3), date(2023, 1, 4)]
        assert filled.lookup(date(2023, 1, 3)).price_usd == 10.0

    def test_too_short_raises(self):
        series = make_series([1])
        with pytest.raises(DataInsufficientError):
            fill_gaps(series)


SURPLUS_HEADER = "region,month,households,surplus_kwh\n"


class TestSurplus:
    def test_parse_and_totals(self, tmp_path):
        p = write(
            tmp_path,
            "s.csv",
            SURPLUS_HEADER
            + "north,2021-02,100,1000.5\n"
            + "south,2021-01,50,200.0\n"
            + "north,2021-01,100,300.0\n",
        )
        records = parse_surplus_csv(p, months=("2021-01", "2021-02"))
        assert [r.month for r in records] == ["2021-01", "2021-01", "2021-02"]
        totals = monthly_totals(records)
        assert totals[0].month == "2021-01"
        assert totals[0].total_kwh == 500.0
        assert totals[1].total_kwh == 1000.5

    def test_month_outside_range_rejected(self, tmp_path):
        p = write(
            tmp_path,
            "s.csv",
            SURPLUS_HEADER + "north,2020-12,10,5.0\nnorth,2021-01,10,6.0\n",
        )
        with pytest.raises(ValidationError, match="2020-12"):
            parse_surplus_csv(p, months=("2021-01", "2021-12"))

    def test_duplicate_region_month_rejected(self, tmp_path):
        p = write(
            tmp_path,
            "s.csv",
            SURPLUS_HEADER + "north,2021-01,10,5.0\nnorth,2021-01,10,6.0\n",
        )
        with pytest.raises(ValidationError, match="duplicate"):
            parse_surplus_csv(p)

    @pytest.mark.parametrize(
        "row",
        ["north,202101,10,5.0", "north,2021-13,10,5.0", "north,2021-01,-1,5.0", "north,2021-01,10,-5.0"],
    )
    def test_bad_rows_rejected(self, tmp_path, row):
        p = write(tmp_path, "s.csv", SURPLUS_HEADER + row + "\n")
        with pytest.raises(ValidationError):
            parse_surplus_csv(p)

    def test_record_validation(self):
        with pytest.raises(ValidationError):
            SurplusRecord("x", "2021-1", 1, 1.0)
        ok = SurplusRecord("x", "2021-01", 1, 1.0)
        assert ok.month == "2021-01"

    def test_zero_households_with_energy_warns_naming_the_line(self, tmp_path, caplog):
        p = write(tmp_path, "s.csv", SURPLUS_HEADER + "north,2021-01,10,5.0\nsouth,2021-01,0,7.5\n")
        with caplog.at_level(logging.WARNING):
            records = parse_surplus_csv(p)
        assert len(records) == 2
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            f"{p}:3: south/2021-01 reports 7.5 kWh from zero households"
        ]


LEDGER_HEADER = ",".join(LEDGER_COLUMNS) + "\n"
LEDGER_ROW = "2023-06-01,1,actual,7,3311.0,400000000.0,0.11,3000.0,27000.0\n"

# Each input reader, and its file's header row.
READERS = {
    "market": (parse_market_csv, MARKET_HEADER),
    "surplus": (parse_surplus_csv, SURPLUS_HEADER),
    "ledger": (lambda p: read_ledger_totals(p, 144, date(2023, 6, 1), date(2023, 6, 1)), LEDGER_HEADER),
}


class TestRowLocation:
    """Every input CSV is read by one row loop: an error in a row reads
    `<file>:<line>: <message>`, the line counted in the file as written."""

    @pytest.mark.parametrize(
        "reader,text,line,message",
        [
            pytest.param(
                "market", "day,price,hash\n",
                2, "expected header date,price_usd,network_hashrate_ths, got 'day,price,hash'",
                id="market-header",
            ),
            pytest.param(
                "market", MARKET_HEADER + "2023-01-01,1.0,1.0\n2023-01-02,1.0\n",
                4, "expected 3 columns, got 2",
                id="market-short-row",
            ),
            pytest.param(
                "market", MARKET_HEADER + "2023-01-01,1.0,1.0\n2023-01-02,abc,1.0\n",
                4, "invalid number 'abc' in price_usd",
                id="market-bad-cell",
            ),
            pytest.param(
                "surplus", "region,month,kwh\n",
                2, "expected header region,month,households,surplus_kwh, got 'region,month,kwh'",
                id="surplus-header",
            ),
            pytest.param(
                "surplus", SURPLUS_HEADER + "north,2021-01,10,5.0\nnorth,2021-02,10\n",
                4, "expected 4 columns, got 3",
                id="surplus-short-row",
            ),
            pytest.param(
                "surplus", SURPLUS_HEADER + "north,2021-01,10,5.0\nnorth,2021-02,ten,5.0\n",
                4, "invalid integer 'ten' in households",
                id="surplus-bad-cell",
            ),
            pytest.param(
                "ledger", "date,revenue\n",
                2, f"expected header {','.join(LEDGER_COLUMNS)}, got 'date,revenue'",
                id="ledger-header",
            ),
            pytest.param(
                "ledger", LEDGER_HEADER + LEDGER_ROW + "2023-06-02,1,actual\n",
                4, "expected 9 columns, got 3",
                id="ledger-short-row",
            ),
            pytest.param(
                "ledger", LEDGER_HEADER + LEDGER_ROW + "2023-06-01,2,actual,7,3311.0,400000000.0,0.11,abc,27000.0\n",
                4, "invalid number 'abc' in revenue_usd",
                id="ledger-bad-cell",
            ),
        ],
    )
    def test_a_failing_row_names_file_and_line(self, tmp_path, reader, text, line, message):
        parse, _ = READERS[reader]
        p = write(tmp_path, f"{reader}.csv", "# provenance\n" + text)
        with pytest.raises(ValidationError) as exc:
            parse(p)
        assert str(exc.value) == f"{p}:{line}: {message}"

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("body", ["", "# provenance\n", "# provenance\nHEADER\n\n"], ids=["empty", "comment", "header"])
    def test_a_file_without_a_data_row_has_no_records(self, tmp_path, reader, body):
        parse, header = READERS[reader]
        p = write(tmp_path, f"{reader}.csv", body.replace("HEADER\n", header))
        with pytest.raises(DataInsufficientError) as exc:
            parse(p)
        assert str(exc.value) == f"{p}: no records"

    @pytest.mark.parametrize("cell", ["20220104", "2022-W01-2"])
    def test_a_date_is_yyyy_mm_dd_on_every_python(self, tmp_path, cell):
        """date.fromisoformat reads both from Python 3.11 on."""
        p = write(tmp_path, "m.csv", MARKET_HEADER + f"{cell},1.0,1.0\n")
        with pytest.raises(ValidationError) as exc:
            parse_market_csv(p)
        assert str(exc.value) == f"{p}:2: invalid ISO date {cell!r}"


class TestCalendar:
    @pytest.mark.parametrize(
        "month,days",
        [("2023-01", 31), ("2023-02", 28), ("2024-02", 29), ("2023-04", 30), ("2023-12", 31)],
    )
    def test_days_in_month(self, month, days):
        assert days_in_month(month) == days


class TestOutputFile:
    def test_writes_in_place_with_the_mode_of_a_plain_open(self, tmp_path):
        path = tmp_path / "out.txt"
        with output_file(path, "hdr") as fh:
            fh.write("body\n")
        assert path.read_bytes() == b"# hdr\nbody\n"
        (tmp_path / "plain.txt").write_text("")
        assert path.stat().st_mode == (tmp_path / "plain.txt").stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "plain.txt"]

    def test_failed_write_keeps_the_previous_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"previous\n")
        with pytest.raises(RuntimeError, match="mid-write"):
            with output_file(path) as fh:
                fh.write("partial")
                fh.flush()
                raise RuntimeError("mid-write")
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


# floats whose shortest repr is long, subnormal, exponent-form or repeating
AWKWARD = (0.1 + 0.2, 5e-324, 1e22, 1 / 3)
DAY = date(2023, 6, 1)


class TestOutputFormat:
    """csv writes each record's fields as they are: a float as its repr, a
    date in ISO form, so every written value reads back unchanged."""

    @pytest.mark.parametrize(
        "write,columns,rows",
        [
            (
                lambda rows, path: write_ledger_csv(rows, path, "hdr"),
                LEDGER_COLUMNS,
                [DailyLedgerEntry(DAY + timedelta(days=i), 1, "actual", 7, x, x, x, x, x) for i, x in enumerate(AWKWARD)],
            ),
            (
                lambda rows, path: write_eval_csv(rows, path, "hdr"),
                EvalReport._fields,
                [EvalReport("forest", "test", 214, x, x, x) for x in AWKWARD],
            ),
            (
                lambda rows, path: write_output_csv(path, MonthlySurplusTotal._fields, rows, "hdr"),
                MonthlySurplusTotal._fields,
                [MonthlySurplusTotal(f"2023-0{i + 1}", x) for i, x in enumerate(AWKWARD)],
            ),
        ],
        ids=["ledger", "eval", "surplus_monthly"],
    )
    def test_every_cell_reads_back_bit_for_bit(self, tmp_path, write, columns, rows):
        path = tmp_path / "out.csv"
        write(rows, path)
        with open(path, newline="", encoding="utf-8") as fh:
            comment, header, *cells = csv.reader(fh)
        assert comment == ["# hdr"]
        assert tuple(header) == columns
        assert len(cells) == len(rows)
        for row, written in zip(rows, cells):
            assert len(written) == len(row)
            for value, cell in zip(row, written):
                if isinstance(value, float):
                    assert float(cell).hex() == value.hex(), cell
                elif isinstance(value, date):
                    assert cell == value.isoformat()
                else:
                    assert cell == str(value)
