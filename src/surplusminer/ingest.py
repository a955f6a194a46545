"""Loading, validation, and alignment of market and surplus-energy data.

Two inputs drive every run: a daily Bitcoin market file (closing price and
network hash rate) and a monthly surplus-electricity file from the utility.
Both arrive as CSV. This module parses them into typed records, rejects rows
that violate the documented invariants (with file/line context), and fills
calendar gaps in the market series by carrying the previous day forward. It
also owns the format of every file the package writes (output_file) and the
checked, typed reading of the JSON files it reads back (read_json_object,
json_value, json_array, json_fields).
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
from dataclasses import dataclass, field, fields
from datetime import date, timedelta
from pathlib import Path
from typing import TYPE_CHECKING, Union, get_args, get_origin, get_type_hints

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
    _by_date: dict[date, MarketRecord] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for prev, cur in zip(self.records, self.records[1:]):
            if cur.day <= prev.day:
                raise ValidationError(
                    f"records out of order or duplicated at {cur.day.isoformat()}"
                )
        self._by_date = {r.day: r for r in self.records}

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

    def lookup(self, day: date) -> MarketRecord | None:
        return self._by_date.get(day)

    def prices(self) -> list[float]:
        return [r.price_usd for r in self.records]

    def dates(self) -> list[date]:
        return [r.day for r in self.records]

    def clip(self, start: date | None = None, end: date | None = None) -> "MarketSeries":
        """Records within [start, end], inclusive; bounds default to the series edges."""
        kept = [
            r
            for r in self.records
            if (start is None or r.day >= start) and (end is None or r.day <= end)
        ]
        return MarketSeries(kept)


def _data_rows(path: str | Path, columns: tuple[str, ...]):
    """Yield (line_number, row) for each data row of a CSV file whose header
    row is `columns`, skipping blank and '#' lines.

    The '#' skip lets files written by this package (which carry a provenance
    header line, see output_file) round-trip through the same parser. A file
    without a header is a DataInsufficientError; a different header, or a row
    of another width, is a ValidationError naming the line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = None
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            where = f"{path}:{reader.line_num}"
            if header is None:
                header = row
                if tuple(h.strip() for h in header) != columns:
                    raise ValidationError(
                        f"{where}: expected header {','.join(columns)}, got {','.join(header)!r}"
                    )
            elif len(row) != len(columns):
                raise ValidationError(f"{where}: expected {len(columns)} columns, got {len(row)}")
            else:
                yield reader.line_num, row
    if header is None:
        raise DataInsufficientError(f"{path}: no records")


def _parse_date(text: str, where: str) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise ValidationError(f"{where}: invalid ISO date {text!r}") from None


def _parse_float(text: str, where: str, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"{where}: invalid number {text!r} in {column}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{where}: non-finite value {text!r} in {column}")
    return value


def parse_market_csv(path: str | Path) -> MarketSeries:
    """Parse the daily market CSV (date,price_usd,network_hashrate_ths).

    Rows may appear in any order and are sorted by date. Duplicate dates,
    malformed rows, and invalid values are hard errors naming the offending
    line. A file with no data rows is a data-insufficiency error.
    """
    path = Path(path)
    records: list[MarketRecord] = []
    seen: dict[date, int] = {}
    for line_no, row in _data_rows(path, MARKET_COLUMNS):
        where = f"{path}:{line_no}"
        day = _parse_date(row[0], where)
        if day in seen:
            raise ValidationError(
                f"{where}: duplicate date {day.isoformat()} "
                f"(first seen at line {seen[day]})"
            )
        seen[day] = line_no
        price = _parse_float(row[1], where, "price_usd")
        hashrate = _parse_float(row[2], where, "network_hashrate_ths")
        try:
            records.append(MarketRecord(day, price, hashrate))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None

    if not records:
        raise DataInsufficientError(f"{path}: no records")
    records.sort(key=lambda r: r.day)
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
            return date.fromisoformat(value)
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
    dialect with LF terminators. Floats should be passed as repr() strings so
    they round-trip exactly."""
    with output_file(path, header_comment) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def write_market_csv(series: MarketSeries, path: str | Path, header_comment: str | None = None) -> None:
    """Serialize a market series back to CSV."""
    write_output_csv(
        path,
        MARKET_COLUMNS,
        ([r.day.isoformat(), repr(r.price_usd), repr(r.network_hashrate_ths)] for r in series.records),
        header_comment,
    )


def fill_gaps(series: MarketSeries, start: date | None = None) -> MarketSeries:
    """Fill missing calendar days by carrying the previous record forward.

    The filled range runs from start (defaulting to the first record) to the
    last record; a gap at a later start takes the last record before it. A
    requested start earlier than the first record is an error: there is
    nothing to carry into the gap. The number of synthesized days is logged.
    """
    if len(series) < 2:
        raise DataInsufficientError("need at least 2 records to fill gaps")
    first, end = series.start, series.end
    if start is None:
        start = first
    if start < first:
        raise DataInsufficientError(
            f"gap at series start: first record is {first.isoformat()}, "
            f"requested range starts {start.isoformat()}"
        )
    if end < start:
        raise ValidationError("requested range is empty (end before start)")

    out: list[MarketRecord] = []
    carried = 0
    day = first
    while day <= end:
        rec = series.lookup(day)
        if rec is None:  # never on the first day, so out[-1] is the day before
            rec = MarketRecord(day, out[-1].price_usd, out[-1].network_hashrate_ths)
            carried += day >= start
        out.append(rec)
        day += timedelta(days=1)
    if carried:
        logger.info("fill_gaps: carried previous day forward into %d missing days", carried)
    return MarketSeries(out[(start - first).days :])


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


@dataclass(frozen=True)
class MonthlySurplusTotal:
    """Surplus energy summed across regions for one month."""

    month: str
    total_kwh: float


def parse_surplus_csv(
    path: str | Path,
    months: tuple[str, str] = DEFAULT_SURPLUS_MONTHS,
) -> list[SurplusRecord]:
    """Parse the monthly surplus CSV (region,month,households,surplus_kwh).

    Months must fall within the allowed [first, last] range. Duplicate
    (region, month) pairs, negative values and values above MAX_HOUSEHOLDS or
    MAX_SURPLUS_KWH are hard errors. A month with zero households but positive
    energy is accepted with a warning.
    """
    path = Path(path)
    month_lo, month_hi = months
    records: list[SurplusRecord] = []
    seen: dict[tuple[str, str], int] = {}
    for line_no, row in _data_rows(path, SURPLUS_COLUMNS):
        where = f"{path}:{line_no}"
        region = row[0].strip()
        if not region:
            raise ValidationError(f"{where}: empty region")
        month = row[1].strip()
        if not _MONTH_RE.match(month):
            raise ValidationError(f"{where}: unparseable month {row[1]!r}, expected YYYY-MM")
        if not (month_lo <= month <= month_hi):
            raise ValidationError(
                f"{where}: month {month} outside allowed range {month_lo}..{month_hi}"
            )
        key = (region, month)
        if key in seen:
            raise ValidationError(
                f"{where}: duplicate record for {region}/{month} "
                f"(first seen at line {seen[key]})"
            )
        seen[key] = line_no
        try:
            households = int(row[2])
        except ValueError:
            raise ValidationError(f"{where}: invalid integer {row[2]!r} in households") from None
        kwh = _parse_float(row[3], where, "surplus_kwh")
        try:
            rec = SurplusRecord(region, month, households, kwh)
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        if rec.households == 0 and rec.surplus_kwh > 0:
            logger.warning(
                "%s: %s/%s reports %.1f kWh from zero households",
                where, region, month, kwh,
            )
        records.append(rec)

    if not records:
        raise DataInsufficientError(f"{path}: no records")
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
