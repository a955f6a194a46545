"""Loading, validation, and alignment of market and surplus-energy data.

Two inputs drive every run: a daily Bitcoin market file (closing price and
network hash rate) and a monthly surplus-electricity file from the utility.
Both arrive as CSV. This module parses them into typed records and rejects rows
that violate the documented invariants (with file/line context). fill_gaps
owns the market window: it cuts the series to it, fills and counts its missing
days. days walks the calendar. The module also owns the format of every file
the package writes (output_file) and the checked, typed reading of the JSON
files it reads back (read_json_object, json_value, json_array, json_fields).
"""
from __future__ import annotations

import calendar
import csv
import itertools
import json
import logging
import math
import os
import re
import types
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Union, get_args, get_origin, get_type_hints

from .errors import DataInsufficientError, ValidationError

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

MARKET_COLUMNS = ("date", "price_usd", "network_hashrate_ths")
SURPLUS_COLUMNS = ("region", "month", "households", "surplus_kwh")

# Months the utility dataset is allowed to cover unless config widens it.
DEFAULT_SURPLUS_MONTHS = ("2021-01", "2023-12")

# Far above any Bitcoin price yet, and far below the magnitudes (~1e154) at
# which the forest's sums of squared prices overflow a float.
MAX_PRICE_USD = 1e12
# Per region-month; all of Korea uses about 6e11 kWh of electricity a year.
# Bounded like prices, so that a stray magnitude cannot reach the report.
MAX_SURPLUS_KWH = 1e12
MAX_HOUSEHOLDS = 10**9

_MONTH_RE = re.compile(r"^\d{4}-(0[1-9]|1[0-2])$")
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


@dataclass(frozen=True)
class MarketRecord:
    """One day of Bitcoin market data."""

    day: date
    price_usd: float
    network_hashrate_ths: float

    def __post_init__(self) -> None:
        if not 0 <= self.price_usd <= MAX_PRICE_USD:
            raise ValidationError(
                f"price_usd must be in [0, {MAX_PRICE_USD:g}], got {self.price_usd!r}"
            )
        if not math.isfinite(self.network_hashrate_ths) or self.network_hashrate_ths <= 0:
            raise ValidationError(
                f"network_hashrate_ths must be finite and > 0, "
                f"got {self.network_hashrate_ths!r}"
            )


@dataclass
class MarketSeries:
    """Daily market records in strictly increasing date order."""

    records: list[MarketRecord]

    def __post_init__(self) -> None:
        for prev, cur in zip(self.records, self.records[1:]):
            if cur.day <= prev.day:
                raise ValidationError(
                    f"records out of order or duplicated at {cur.day.isoformat()}"
                )

    def __len__(self) -> int:
        return len(self.records)

    @property
    def start(self) -> date:
        if not self.records:
            raise DataInsufficientError("empty market series has no start date")
        return self.records[0].day

    @property
    def end(self) -> date:
        if not self.records:
            raise DataInsufficientError("empty market series has no end date")
        return self.records[-1].day

    def prices(self) -> list[float]:
        return [r.price_usd for r in self.records]

    def dates(self) -> list[date]:
        return [r.day for r in self.records]


def _data_rows(path: str | Path, columns: tuple[str, ...], parse, key=None):
    """Yield (line_number, parse(row)) for each data row of a CSV file whose
    header row is `columns`, skipping blank and '#' lines. With `key`, each
    record's label key(record) must be new, a (noun, value) pair such as
    ("date", date(2023, 1, 2)); a repeat is the error `duplicate date
    2023-01-02 (first seen at line <n>)`, the pair formatted only then.

    The '#' skip lets files written by this package (which carry a provenance
    header line, see output_file) round-trip through the same parser. A file
    without a data row is a DataInsufficientError. A different header, a row
    of another width, a ValidationError from parse, a duplicate, a row csv
    cannot read (csv.Error) or bytes that are not UTF-8 is a ValidationError
    starting `<path>:<line>: `: an input row's location is written here
    alone, and only when the row fails.
    """
    header = None
    any_rows = False
    seen: dict[tuple, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if not row or row[0].startswith("#"):
                    continue
                if header is None:
                    header = row
                    if tuple(h.strip() for h in header) != columns:
                        raise ValidationError(f"expected header {','.join(columns)}, got {','.join(header)!r}")
                elif len(row) != len(columns):
                    raise ValidationError(f"expected {len(columns)} columns, got {len(row)}")
                else:
                    any_rows = True
                    record = parse(row)
                    if key is not None:
                        label = key(record)
                        first = seen.setdefault(label, reader.line_num)
                        if first != reader.line_num:
                            raise ValidationError(f"duplicate {label[0]} {label[1]} (first seen at line {first})")
                    yield reader.line_num, record
        except (ValidationError, csv.Error) as exc:
            raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise ValidationError(_not_utf8(path)) from None
    if not any_rows:
        raise DataInsufficientError(f"{path}: no records")


def _not_utf8(path: str | Path) -> str:
    """`<path>:<line>: ...` for the first byte of the file that is not UTF-8.
    The text layer decodes ahead in blocks, so csv's line count at the
    failure need not be the line holding the byte."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return f"{path}:{line}: byte {raw[exc.start]:#04x} is not UTF-8 ({exc.reason})"
    return f"{path}: not UTF-8 text"


def _iso_date(text: str) -> date:
    """A YYYY-MM-DD date. date.fromisoformat alone would also take 20220104
    or the week date 2023-W52-7, but only from Python 3.11 on."""
    if not _DATE_RE.fullmatch(text):
        raise ValueError(text)
    return date.fromisoformat(text)


def _parse_date(text: str) -> date:
    try:
        return _iso_date(text.strip())
    except ValueError:
        raise ValidationError(f"invalid ISO date {text!r}") from None


def _parse_float(text: str, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"invalid number {text!r} in {column}") from None
    if not math.isfinite(value):
        raise ValidationError(f"non-finite value {text!r} in {column}")
    return value


def _market_record(row: list[str]) -> MarketRecord:
    day, price, rate = row
    return MarketRecord(_parse_date(day), _parse_float(price, "price_usd"), _parse_float(rate, "network_hashrate_ths"))


def parse_market_csv(path: str | Path) -> MarketSeries:
    """Parse the daily market CSV (date,price_usd,network_hashrate_ths).

    Rows may appear in any order and are sorted by date. Duplicate dates,
    malformed rows, and invalid values are hard errors naming the offending
    line. A file with no data rows is a data-insufficiency error.
    """
    path = Path(path)
    rows = _data_rows(path, MARKET_COLUMNS, _market_record, key=lambda rec: ("date", rec.day))
    records = sorted((rec for _, rec in rows), key=lambda r: r.day)
    return MarketSeries(records)


@contextmanager
def output_file(path: str | Path, header_comment: str | None = None):
    """Open a file for writing in the one output format: UTF-8, LF line endings
    on every platform, and a first line `# <header_comment>` when one is given.

    The bytes go to a sibling temp file that replaces `path` when the block
    completes; if it raises, the temp file is deleted and a previous `path`
    is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_json_object(path: str | Path) -> dict:
    """Parse a JSON file that holds one object. Unparsable JSON or another
    top-level value is a ValidationError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return doc


def json_value(doc: dict, key: str, kind: type | tuple[type, ...]):
    """doc[key] when it is present and an instance of `kind` (a JSON boolean
    never counts as a number); otherwise a ValidationError naming the key."""
    if key not in doc:
        raise ValidationError(f"missing key {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError(f"key {key!r}: unexpected {type(value).__name__}")
    return value


def typed_value(value, tp, what: str):
    """A JSON value as the field type tp: date, str, int, a finite float,
    `X | None`, or a tuple of strings. Anything else is a ValidationError that
    starts with `what`, the value's name (e.g. "config key 'seed'")."""
    if get_origin(tp) in (Union, types.UnionType):  # X | None
        if value is None:
            return None
        tp = next(arg for arg in get_args(tp) if arg is not type(None))
    if tp is date:
        try:
            return _iso_date(value)
        except (TypeError, ValueError):
            raise ValidationError(f"{what}: invalid ISO date {value!r}") from None
    if get_origin(tp) is tuple:
        args = get_args(tp)
        size = None if args[-1] is Ellipsis else len(args)
        if isinstance(value, list) and all(type(v) is str for v in value) and size in (None, len(value)):
            return tuple(value)
        want = "a list of strings" if size is None else f"a list of {size} strings"
        raise ValidationError(f"{what}: expected {want}, got {value!r}")
    if tp is float and type(value) is int:
        value = float(value)
    if type(value) is not tp:
        raise ValidationError(f"{what}: expected {tp.__name__}, got {value!r}")
    if tp is float and not math.isfinite(value):
        raise ValidationError(f"{what}: expected a finite float, got {value!r}")
    return value


def json_fields(doc: dict, key: str, cls):
    """Dataclass cls from doc[key], an object holding exactly cls's fields,
    each typed by typed_value. An unknown, missing or mistyped field is a
    ValidationError naming it as key.field."""
    raw = json_value(doc, key, dict)
    hints = get_type_hints(cls)
    for name in raw:
        if name not in hints:
            raise ValidationError(f"unknown key {key + '.' + name!r}")
    values = {}
    for f in fields(cls):
        if f.name not in raw:
            raise ValidationError(f"missing key {key + '.' + f.name!r}")
        values[f.name] = typed_value(raw[f.name], hints[f.name], f"key {key + '.' + f.name!r}")
    return cls(**values)


def json_array(doc: dict, key: str, dtype: type, ndim: int = 1) -> np.ndarray:
    """doc[key], a nested list of numbers, as an ndim-dimensional array of
    dtype int or float. A string, null, boolean or object element, a float
    where ints are due, a number that is not finite (json reads NaN and
    Infinity, and 1e999 as inf) or a ragged nesting is a ValidationError."""
    import numpy as np  # here, so that the commands that read no model file start without numpy
    raw = json_value(doc, key, list)
    try:
        arr = np.array(raw)
    except ValueError:  # ragged nesting
        arr = None
    kinds = "i" if dtype is int else "if"
    elements = raw  # numpy reads a boolean among numbers as 0 or 1, so look in raw
    for _ in range(ndim - 1):  # lazily, so only a regular nesting is flattened
        elements = itertools.chain.from_iterable(elements)
    if arr is None or arr.dtype.kind not in kinds or arr.ndim != ndim or bool in map(type, elements):
        raise ValidationError(f"key {key!r}: expected a {ndim}-d array of {dtype.__name__}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"key {key!r}: numbers must be finite")
    return arr.astype(np.int64 if dtype is int else float)


def write_output_csv(path: str | Path, columns, rows, header_comment: str | None = None) -> None:
    """Write an output CSV: the column header, then `rows`, in csv's default
    dialect with LF terminators. Floats are written as their repr, so they
    round-trip exactly; dates in ISO form."""
    with output_file(path, header_comment) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def write_market_csv(series: MarketSeries, path: str | Path, header_comment: str | None = None) -> None:
    """Serialize a market series back to CSV."""
    write_output_csv(
        path,
        MARKET_COLUMNS,
        ((r.day, r.price_usd, r.network_hashrate_ths) for r in series.records),
        header_comment,
    )


def days(start: date, end: date) -> list[date]:
    """Every day from start to end, both included, in order; none if end is before start."""
    return [date.fromordinal(n) for n in range(start.toordinal(), end.toordinal() + 1)]


def fill_gaps(series: MarketSeries, start: date, end: date) -> tuple[MarketSeries, int]:
    """The market window start..end with no day missing, and the number of
    days filled (logged). Records after end are dropped, and the window ends
    on the last one before. A missing day takes the day before's record, so a
    gap on start takes the last record before it. Fewer than 2 records in the
    window, or none on or before start, is a DataInsufficientError."""
    kept = [r for r in series.records if r.day <= end]
    inside = sum(r.day >= start for r in kept)
    if inside < 2:
        raise DataInsufficientError(f"market data covers {inside} days of {start}..{end}")
    first = kept[0].day
    if start < first:
        raise DataInsufficientError(
            f"gap at series start: first record is {first.isoformat()}, "
            f"requested range starts {start.isoformat()}"
        )
    by_day = {r.day: r for r in kept}
    out: list[MarketRecord] = []
    for day in days(first, kept[-1].day):
        rec = by_day.get(day)
        if rec is None:  # never on the first day, so out[-1] is the day before
            rec = MarketRecord(day, out[-1].price_usd, out[-1].network_hashrate_ths)
        out.append(rec)
    filled = MarketSeries(out[(start - first).days :])
    carried = len(filled) - inside
    if carried:
        logger.info("fill_gaps: carried previous day forward into %d missing days", carried)
    return filled, carried


@dataclass(frozen=True)
class SurplusRecord:
    """Surplus electricity reported by one region for one month."""

    region: str
    month: str  # "YYYY-MM"
    households: int
    surplus_kwh: float

    def __post_init__(self) -> None:
        if not _MONTH_RE.match(self.month):
            raise ValidationError(f"invalid month {self.month!r}, expected YYYY-MM")
        if not 0 <= self.households <= MAX_HOUSEHOLDS:
            raise ValidationError(f"households must be in [0, {MAX_HOUSEHOLDS:g}], got {self.households}")
        if not 0 <= self.surplus_kwh <= MAX_SURPLUS_KWH:
            raise ValidationError(f"surplus_kwh must be in [0, {MAX_SURPLUS_KWH:g}], got {self.surplus_kwh!r}")


class MonthlySurplusTotal(NamedTuple):
    """Surplus energy summed across regions for one month: a
    surplus_monthly.csv row, its fields in column order."""

    month: str
    total_kwh: float


def parse_surplus_csv(path: str | Path, months: tuple[str, str]) -> list[SurplusRecord]:
    """Parse the monthly surplus CSV (region,month,households,surplus_kwh).

    Months must fall within the allowed [first, last] range. Duplicate
    (region, month) pairs, negative values and values above MAX_HOUSEHOLDS or
    MAX_SURPLUS_KWH are hard errors. A month with zero households but positive
    energy is accepted with a warning.
    """
    path = Path(path)
    month_lo, month_hi = months

    def parse_row(row: list[str]) -> SurplusRecord:
        region = row[0].strip()
        if not region:
            raise ValidationError("empty region")
        try:
            households = int(row[2])
        except ValueError:
            raise ValidationError(f"invalid integer {row[2]!r} in households") from None
        rec = SurplusRecord(region, row[1].strip(), households, _parse_float(row[3], "surplus_kwh"))
        if not month_lo <= rec.month <= month_hi:
            raise ValidationError(f"month {rec.month} outside allowed range {month_lo}..{month_hi}")
        return rec

    records: list[SurplusRecord] = []
    rows = _data_rows(path, SURPLUS_COLUMNS, parse_row, key=lambda rec: ("record for", f"{rec.region}/{rec.month}"))
    for line_no, rec in rows:
        if rec.households == 0 and rec.surplus_kwh > 0:
            logger.warning(
                "%s:%d: %s/%s reports %.1f kWh from zero households",
                path, line_no, rec.region, rec.month, rec.surplus_kwh,
            )
        records.append(rec)
    records.sort(key=lambda r: (r.month, r.region))
    return records


def monthly_totals(records: list[SurplusRecord]) -> list[MonthlySurplusTotal]:
    """Sum surplus energy across regions, one total per month, sorted by month."""
    if not records:
        raise DataInsufficientError("no surplus records")
    sums: dict[str, float] = {}
    for rec in records:
        sums[rec.month] = sums.get(rec.month, 0.0) + rec.surplus_kwh
    return [MonthlySurplusTotal(m, sums[m]) for m in sorted(sums)]


def days_in_month(month: str) -> int:
    """Calendar days in a YYYY-MM month (leap-aware)."""
    if not _MONTH_RE.match(month):
        raise ValidationError(f"invalid month {month!r}, expected YYYY-MM")
    year, mon = int(month[:4]), int(month[5:7])
    return calendar.monthrange(year, mon)[1]
