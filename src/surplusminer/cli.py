"""Command-line pipeline: ingest -> features -> train -> simulate -> report.

Every command is a pure function of (input files, config): reruns produce
byte-identical outputs, each output file starts with a `# key=value ...`
header line (the config hash and seed; for forecasts.csv and ledger.csv,
which a later command reads and checks, what their rows depend on), and the
effective config of the last command that succeeded is echoed into the output
directory. Exit codes: 0 success, 2 validation error, 3 insufficient data,
4 internal error.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import logging
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from datetime import date, timedelta
from pathlib import Path
from typing import NamedTuple, get_type_hints

from .economics import (
    BLOCKS_PER_DAY,
    SimulationReport,
    case_totals,
    months_spanned,
    read_ledger_totals,
    run_case,
    usd_millions,
    write_ledger_csv,
)
from .errors import DataInsufficientError, ValidationError
from .fleet import (
    DEFAULT_LOSS_RATE,
    MinerSpec,
    ScenarioPlan,
    build_scenarios,
    month_capacity,
    write_fleet_csv,
)
from .indicators import FeatureMatrix, build_features, write_features_csv
from .ingest import (
    DEFAULT_SURPLUS_MONTHS,
    MarketSeries,
    MonthlySurplusTotal,
    SurplusRecord,
    _MONTH_RE,
    _data_rows,
    _parse_date,
    _parse_float,
    days,
    fill_gaps,
    monthly_totals,
    output_file,
    parse_market_csv,
    parse_surplus_csv,
    read_json_object,
    typed_value,
    write_market_csv,
    write_output_csv,
)
from .params import ForestParams, TrainConfig

logger = logging.getLogger(__name__)

# The names taken from the numpy layers, bound here on first use (_bind_layers).
# load_forest, load_lstm, predict_forest and predict_window are not called here;
# they stay because bench/layertrace.py wraps every layer function bound in this
# namespace by name, and reports a metric for each of them.
NUMPY_LAYERS = {
    "forest": ("fit_forest", "load_forest", "predict_forest", "predict_matrix", "save_forest"),
    "lstm": ("fit_lstm", "load_lstm", "predict_series", "predict_window", "save_lstm"),
    "metrics": ("evaluate", "write_eval_csv"),
}


def _bind_layers() -> None:
    """Import the NUMPY_LAYERS modules and bind their names here. A name that
    is already bound, such as a wrapper set from outside, is kept."""
    for module, names in NUMPY_LAYERS.items():
        layer = importlib.import_module(f"{__package__}.{module}")
        for name in names:
            globals().setdefault(name, getattr(layer, name))


def __getattr__(name: str):
    """cli.<layer name> resolves before any command has bound it (PEP 562)."""
    if any(name in names for names in NUMPY_LAYERS.values()):
        _bind_layers()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

VALID_CASES = ("actual-1", "actual-2", "forest-1", "forest-2", "lstm-1", "lstm-2")
# The config keys that decide which feature rows the models train on and forecast from.
SPLIT_KEYS = ("analysis_start", "train_start", "train_end", "test_start", "test_end")


@dataclass
class RunConfig:
    """The run config. The fields here and in the forest, lstm and miner
    sections are the config file's keys, and their defaults are the keys'
    defaults; a field with metadata config_key=False is set by the loader."""

    market_csv: str
    surplus_csv: str
    analysis_start: date = date(2016, 1, 1)
    train_start: date = date(2016, 1, 16)
    train_end: date = date(2022, 12, 31)
    test_start: date = date(2023, 1, 1)
    test_end: date = date(2023, 12, 31)
    sim_start: date = date(2023, 1, 1)
    sim_end: date = date(2023, 12, 31)
    seed: int = 42
    loss_rate: float = DEFAULT_LOSS_RATE
    blocks_per_day: int = BLOCKS_PER_DAY
    cases: tuple[str, ...] = VALID_CASES
    surplus_months: tuple[str, str] = DEFAULT_SURPLUS_MONTHS
    forest: ForestParams = field(default_factory=ForestParams)
    lstm: TrainConfig = field(default_factory=TrainConfig)
    miner: MinerSpec = field(default_factory=MinerSpec)
    out_dir: str = "out"
    base_dir: str = field(default=".", metadata={"config_key": False})  # the config file's directory

    def __post_init__(self) -> None:
        for key in ("train_start", "analysis_start"):
            if getattr(self, key) > self.train_end:
                raise ValidationError(f"{key} {getattr(self, key)} must not be after train_end {self.train_end}")
        if self.train_end >= self.test_start:
            raise ValidationError(
                f"train_end {self.train_end} must precede test_start {self.test_start}"
            )
        if not (self.test_start <= self.sim_start <= self.sim_end <= self.test_end):
            raise ValidationError(
                f"simulation range {self.sim_start}..{self.sim_end} must lie within "
                f"the test range {self.test_start}..{self.test_end}"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValidationError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.blocks_per_day < 1:
            raise ValidationError(f"blocks_per_day must be >= 1, got {self.blocks_per_day}")
        first, last = self.surplus_months
        if not (_MONTH_RE.fullmatch(first) and _MONTH_RE.fullmatch(last) and first <= last):
            raise ValidationError(
                f"surplus_months must be two YYYY-MM months, the first not after the last, got {[first, last]}"
            )
        if not self.cases:
            raise ValidationError("no cases requested")
        for case in self.cases:
            if case not in VALID_CASES:
                raise ValidationError(
                    f"unknown case {case!r}; valid cases: {', '.join(VALID_CASES)}"
                )

    def input_path(self, raw: str) -> Path:
        """Input paths in the config are relative to the config file itself."""
        p = Path(raw)
        return p if p.is_absolute() else Path(self.base_dir) / p


def _config_keys(cls) -> list:
    """The fields of a config dataclass (or instance) that the config file sets."""
    return [f for f in fields(cls) if f.metadata.get("config_key", True)]


def _read_section(cls, raw, prefix: str = "", **loader_set):
    """Build config dataclass `cls` from a JSON object over the field defaults.

    A nested dataclass field is a section, read the same way; its fields that
    are not config keys take the run's value of the same name (the seed). An
    error from a section's own checks is prefixed with the section's name.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"config key {prefix[:-1]!r}: expected an object, got {raw!r}")
    keys = _config_keys(cls)
    names = {f.name for f in keys}
    for key in raw:
        if key not in names:
            raise ValidationError(f"unknown config key {prefix + key!r}")
    hints = get_type_hints(cls)
    values = dict(loader_set)
    for f in keys:
        tp = hints[f.name]
        if is_dataclass(tp):
            inherited = {g.name: values[g.name] for g in fields(tp) if not g.metadata.get("config_key", True)}
            values[f.name] = _read_section(tp, raw.get(f.name, {}), f"{prefix}{f.name}.", **inherited)
        elif f.name in raw:
            values[f.name] = typed_value(raw[f.name], tp, f"config key {prefix + f.name!r}")
        elif f.default is not MISSING:
            values[f.name] = f.default
        else:
            raise ValidationError(f"missing required key {prefix + f.name!r}")
    try:
        return cls(**values)
    except ValidationError as exc:
        if not prefix:
            raise
        raise ValidationError(f"config section {prefix[:-1]!r}: {exc}") from None


def load_config(
    path: str | Path,
    seed: int | None = None,
    cases: list[str] | None = None,
    out_dir: str | None = None,
) -> RunConfig:
    """Read the JSON config over the RunConfig defaults, with CLI overrides."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    raw = read_json_object(path)
    overrides = {"seed": seed, "cases": cases, "out_dir": out_dir}
    raw.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        return _read_section(RunConfig, raw, base_dir=str(path.parent))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _as_json(obj) -> dict:
    """A config dataclass's keys and values as JSON data, in field order."""
    doc = {}
    for f in _config_keys(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = _as_json(value)
        elif isinstance(value, date):
            value = value.isoformat()
        doc[f.name] = value
    return doc


def effective_config(cfg: RunConfig) -> dict:
    """The config as actually used. out_dir and the config file's location are
    excluded: outputs must not depend on where they are written or read from."""
    doc = _as_json(cfg)
    del doc["out_dir"]
    return doc


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(effective_config(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _config_fields(cfg: RunConfig) -> dict[str, str]:
    return {"config": config_hash(cfg), "seed": str(cfg.seed)}


def _key_values(fields: dict[str, str]) -> str:
    """A header line's text: `fields` as space-separated key=value pairs."""
    return " ".join(f"{key}={value}" for key, value in fields.items())


def _header(cfg: RunConfig) -> str:
    """The header of every output but forecasts.csv: the config hash and the seed."""
    return _key_values(_config_fields(cfg))


def _write_text(cfg: RunConfig, path: Path, lines: list[str]) -> None:
    """A text output: the config header line, then `lines`."""
    with output_file(path, _header(cfg)) as fh:
        fh.write("\n".join(lines) + "\n")


def _first_line(path: Path) -> str:
    """A file's first line, without its newline. Bytes that are not UTF-8 read
    as U+FFFD, so that a header can be compared and shown in a message."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.readline().rstrip("\n")


def _input_file(cfg: RunConfig, key: str) -> Path:
    """The input file that config key `key` (market_csv or surplus_csv) names."""
    path = cfg.input_path(getattr(cfg, key))
    if not path.is_file():
        raise ValidationError(f"{key.replace('_csv', ' CSV')} not found: {path}")
    return path


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


# The header fields that hold an input file's sha256, and the config key naming the file.
INPUT_DIGESTS = {"market_sha256": "market_csv", "surplus_sha256": "surplus_csv"}


def _digests(cfg: RunConfig, *keys: str) -> dict[str, str]:
    """The header fields `keys` of INPUT_DIGESTS: each input file's sha256."""
    return {key: _sha256(_input_file(cfg, INPUT_DIGESTS[key])) for key in keys}


def _check_header(cfg: RunConfig, path: Path, command: str, wanted: dict[str, str]) -> None:
    """Refuse an artifact that `command` wrote for a later command to read
    unless its header line, `# key=value ...`, holds every field of `wanted`,
    this run's values. A missing file, a first line of another form, an input
    file whose sha256 differs (named) or other fields that differ (each named
    with both values) is a ValidationError that says to run `command`."""
    if not path.is_file():
        raise ValidationError(f"{path} is missing; run {command} first")
    line = _first_line(path)
    pairs = [item.split("=", 1) for item in line[2:].split(" ")]
    if not line.startswith("# ") or any(len(pair) != 2 or not pair[0] for pair in pairs):
        raise ValidationError(f"{path} starts with {line!r}, not a '# key=value ...' header; run {command} again")
    made_with = dict(pairs)
    differ = [key for key in wanted if made_with.get(key) != wanted[key]]
    for key in differ:
        if key in INPUT_DIGESTS:
            raise ValidationError(
                f"{_input_file(cfg, INPUT_DIGESTS[key])} has sha256 {wanted[key]}, but {path} was made from "
                f"one with sha256 {made_with.get(key)}; run {command} again"
            )
    if differ:
        raise ValidationError(
            f"{path} was made with {', '.join(f'{key}={made_with.get(key)}' for key in differ)}, but the run "
            f"config has {', '.join(f'{key}={wanted[key]}' for key in differ)}; run {command} again"
        )


def _load_clean_market(cfg: RunConfig) -> tuple[MarketSeries, int]:
    """The market data over analysis_start..test_end, gap-filled, and the number of gap days filled."""
    return fill_gaps(parse_market_csv(_input_file(cfg, "market_csv")), cfg.analysis_start, cfg.test_end)


def _load_surplus(cfg: RunConfig) -> list[SurplusRecord]:
    """The surplus records, their months within surplus_months."""
    return parse_surplus_csv(_input_file(cfg, "surplus_csv"), cfg.surplus_months)


def cmd_ingest(cfg: RunConfig, out: Path) -> None:
    """Validate inputs and write the cleaned series plus a summary."""
    filled, gaps = _load_clean_market(cfg)
    surplus = _load_surplus(cfg)
    totals = monthly_totals(surplus)

    write_market_csv(filled, out / "market_clean.csv", header_comment=_header(cfg))
    write_output_csv(out / "surplus_monthly.csv", MonthlySurplusTotal._fields, totals, _header(cfg))

    regions = sorted({r.region for r in surplus})
    lines = [
        "ingest summary",
        f"market rows (cleaned): {len(filled)}",
        f"market span: {filled.start.isoformat()}..{filled.end.isoformat()}",
        f"gap days filled by carry-forward: {gaps}",
        f"surplus records: {len(surplus)}",
        f"surplus months: {totals[0].month}..{totals[-1].month} ({len(totals)} months)",
        f"surplus regions: {', '.join(regions)}",
    ]
    _write_text(cfg, out / "ingest_summary.txt", lines)
    print("\n".join(lines))


def cmd_features(cfg: RunConfig, out: Path) -> None:
    """Build and export the indicator feature matrix."""
    filled, _ = _load_clean_market(cfg)
    matrix = build_features(filled)
    write_features_csv(matrix, out / "features.csv", header_comment=_header(cfg))
    print(
        f"features: {len(matrix)} rows, "
        f"{matrix.rows[0].day.isoformat()}..{matrix.rows[-1].day.isoformat()}"
    )


def _split_features(cfg: RunConfig, matrix: FeatureMatrix) -> tuple[FeatureMatrix, FeatureMatrix]:
    """The training rows and the forecast rows, under one rule: the forecast
    for day d comes from the feature row dated d-1, whose target is d's price.

    Training rows are dated train_start..train_end-1, so every training target
    falls on or before train_end. Forecast rows are dated test_start-1..
    test_end-1, led by the lstm.window-1 rows before them: the LSTM's window
    history, all known by the time of each forecast. Rows are consecutive
    days, as build_features makes them from the gap-filled series. A one-day
    test window is a ValidationError: train's r2 needs two test days.
    """
    if cfg.test_start == cfg.test_end:
        raise ValidationError(f"test_start..test_end is the one day {cfg.test_start}; r2 needs at least 2 test days")
    day = timedelta(days=1)
    T = cfg.lstm.window
    train = matrix.slice_dates(cfg.train_start, cfg.train_end - day)
    if len(train) == 0:
        raise DataInsufficientError("no feature rows in the training window")
    if matrix.rows[-1].day < cfg.test_end - day:
        raise DataInsufficientError(
            f"the market data ends on {matrix.rows[-1].target_day}, before test_end {cfg.test_end}"
        )
    # counted in days before test_start, not from the window's first date: a
    # window of a million days would start before the first date there is
    history = sum(0 < (cfg.test_start - row.day).days <= T for row in matrix.rows)
    if history < T:
        first = cfg.test_start.toordinal() - T
        needed = f"{date.fromordinal(first)}.." if first >= 1 else f"the {T} days up to "
        raise DataInsufficientError(
            f"too little history before test_start {cfg.test_start}: the {T}-day window "
            f"needs the feature rows dated {needed}{cfg.test_start - day}, got {history}"
        )
    return train, matrix.slice_dates(cfg.test_start - T * day, cfg.test_end - day)


class Forecast(NamedTuple):
    """Both models' prices for one test day: a forecasts.csv row, its fields in column order."""

    day: date
    forest_usd: float
    lstm_usd: float


def _forecasts_header(cfg: RunConfig, models) -> dict[str, str]:
    """forecasts.csv's header fields for `models` ("forest", "lstm"): by name,
    everything their prices depend on. That is the market file's sha256, the
    split dates and each model's settings (seed included, as reprs); train
    writes the same model bytes from these on any CPU count."""
    header = _digests(cfg, "market_sha256")
    header.update((key, getattr(cfg, key).isoformat()) for key in SPLIT_KEYS)
    for name in models:
        settings = getattr(cfg, name)
        header.update((f"{name}.{f.name}", repr(getattr(settings, f.name))) for f in fields(settings))
    return header


def cmd_train(cfg: RunConfig, out: Path) -> None:
    """Fit both models on the training rows, write both models' price for every
    test day to forecasts.csv and evaluate them against the market's."""
    _bind_layers()
    filled, _ = _load_clean_market(cfg)
    matrix = build_features(filled)
    train, forecast = _split_features(cfg, matrix)

    # the LSTM trains in this process while the forest's workers grow trees
    lstm_fit: list = []
    forest_model = fit_forest(
        train, cfg.forest, meanwhile=lambda: lstm_fit.append(fit_lstm(train, cfg.lstm))
    )
    (lstm_model,) = lstm_fit
    save_forest(forest_model, out / "forest_model.json")
    save_lstm(lstm_model, out / "lstm_model.json")

    # one row per test day, in order, holding its price as the target: the
    # LSTM reads each window of the forecast rows, the forest these rows
    rows = FeatureMatrix(forecast.rows[cfg.lstm.window - 1 :])
    test_days = [row.target_day for row in rows.rows]
    predicted = {
        "forest": predict_matrix(forest_model, rows).tolist(),
        "lstm": predict_series(lstm_model, forecast).tolist(),
    }
    actual = rows.target_array()
    evals = [evaluate(name, "test", actual, prices) for name, prices in predicted.items()]
    write_eval_csv(evals, out / "eval.csv", header_comment=_header(cfg))
    write_output_csv(
        out / "forecasts.csv",
        Forecast._fields,
        map(Forecast, test_days, predicted["forest"], predicted["lstm"]),
        _key_values(_forecasts_header(cfg, ("forest", "lstm"))),
    )

    lines = [
        "training summary",
        f"train rows: {len(train)} ({train.rows[0].day.isoformat()}..{train.rows[-1].day.isoformat()})",
        f"test days: {len(test_days)} ({test_days[0]}..{test_days[-1]}), each forecast from the day before",
        f"forest: {cfg.forest.n_trees} trees, m_try={cfg.forest.resolved_m_try(matrix.feature_count)}",
        f"lstm: {cfg.lstm.epochs} epochs, hidden={cfg.lstm.hidden_size}, window={cfg.lstm.window}",
        "lstm loss trace: " + ", ".join(f"{v:.6f}" for v in lstm_model.loss_trace),
    ]
    for ev in evals:
        lines.append(
            f"{ev.model}/{ev.split}: n={ev.n} mae={ev.mae:.4f} mse={ev.mse:.4f} r2={ev.r2:.4f}"
        )
    _write_text(cfg, out / "train_summary.txt", lines)
    print("\n".join(lines))


def _build_plans(cfg: RunConfig) -> tuple[ScenarioPlan, ScenarioPlan]:
    capacities = [month_capacity(t, cfg.miner, cfg.loss_rate) for t in monthly_totals(_load_surplus(cfg))]
    return build_scenarios(capacities, cfg.miner)


def _read_forecasts(cfg: RunConfig, out: Path, models: list[str]) -> dict[str, list[float]]:
    """The prices of `models` for each test day, in date order, from the
    forecasts.csv that train wrote in `out`.

    Its header must hold this run's fields for `models` (_forecasts_header,
    _check_header). A row that does not parse is a ValidationError naming its
    line, and a file without exactly one row per test day, in date order, one
    naming the file. Any finite price is taken."""
    path = out / "forecasts.csv"
    _check_header(cfg, path, "train", _forecasts_header(cfg, models))

    def parse_row(row: list[str]) -> Forecast:
        return Forecast(_parse_date(row[0]), *(_parse_float(v, c) for v, c in zip(row[1:], Forecast._fields[1:])))

    rows = [forecast for _, forecast in _data_rows(path, Forecast._fields, parse_row)]
    if [row.day for row in rows] != days(cfg.test_start, cfg.test_end):
        raise ValidationError(
            f"{path} must have one row per day from {cfg.test_start} to {cfg.test_end}, in date order; run train again"
        )
    return {name: [getattr(row, f"{name}_usd") for row in rows] for name in models}


def _split_case(case: str) -> tuple[str, int]:
    """A case label's price source and scenario number: "forest-2" is ("forest", 2)."""
    source, scenario = case.rsplit("-", 1)
    return source, int(scenario)


def _case_columns(
    cfg: RunConfig, out: Path, market: MarketSeries
) -> tuple[list[date], list[float], dict[str, list[float]]]:
    """The simulated days, sim_start..sim_end, with the network hash rate of
    each and the price of each from every source named in the requested
    cases: the market's, and the forecasts that train wrote for each model.

    A gap-filled market that does not cover the simulated days is a
    DataInsufficientError naming both windows."""
    if cfg.sim_start < market.start or market.end < cfg.sim_end:
        raise DataInsufficientError(
            f"the market data covers {market.start}..{market.end}, "
            f"not sim_start..sim_end {cfg.sim_start}..{cfg.sim_end}"
        )
    window = days(cfg.sim_start, cfg.sim_end)
    first = (cfg.sim_start - market.start).days
    records = market.records[first : first + len(window)]
    needed = {_split_case(case)[0] for case in cfg.cases}
    prices = {"actual": [r.price_usd for r in records]} if "actual" in needed else {}
    models = [name for name in ("forest", "lstm") if name in needed]
    if models:
        first = (cfg.sim_start - cfg.test_start).days
        prices.update(
            (name, column[first : first + len(window)]) for name, column in _read_forecasts(cfg, out, models).items()
        )
    return window, [r.network_hashrate_ths for r in records], prices


def render_report(reports: list[SimulationReport], cfg: RunConfig) -> list[str]:
    """Fixed-width summary table: revenue/cost/profit per case, exact and in
    millions, and each forecast case's revenue against its scenario's actual case."""
    months = months_spanned(cfg.sim_start, cfg.sim_end)
    lines = [
        f"profit summary: {cfg.sim_start.isoformat()}..{cfg.sim_end.isoformat()} "
        f"({months} months), miner: {cfg.miner.name}",
        "",
    ]
    header = [
        "case", "scenario", "source", "revenue_usd", "cost_usd", "profit_usd",
        "rev_m", "cost_m", "profit_m", "vs_actual",
    ]
    actual = {r.scenario: r.revenue_usd for r in reports if r.price_source == "actual"}
    body = []
    for r in sorted(reports, key=lambda r: r.case_label):
        base = actual.get(r.scenario)
        no_base = r.price_source == "actual" or not base  # an actual row, no actual case, or zero revenue
        body.append(
            [
                r.case_label,
                str(r.scenario),
                r.price_source,
                f"{r.revenue_usd:,.2f}",
                f"{r.cost_usd:,.2f}",
                f"{r.profit_usd:,.2f}",
                str(usd_millions(r.revenue_usd)),
                str(usd_millions(r.cost_usd)),
                str(usd_millions(r.profit_usd)),
                "-" if no_base else f"{float((r.revenue_usd - base) / base * 100):+.2f}%",
            ]
        )
    widths = [max(len(header[i]), *(len(row[i]) for row in body)) for i in range(len(header))]

    def fmt(row: list[str]) -> str:
        cells = []
        for i, cell in enumerate(row):
            cells.append(cell.ljust(widths[i]) if i < 3 else cell.rjust(widths[i]))
        return "  ".join(cells).rstrip()

    lines.append(fmt(header))
    for row in body:
        lines.append(fmt(row))
    return lines


def _ledger_fields(cfg: RunConfig) -> dict[str, str]:
    """ledger.csv's header fields: those of the config with all six cases (a
    case's rows do not depend on which other cases ran, so a report on any of
    them can check the ledger against the run config), and the sha256 of the
    market file its rows come from and of the surplus file its fleet comes from."""
    return {**_config_fields(replace(cfg, cases=VALID_CASES)), **_digests(cfg, "market_sha256", "surplus_sha256")}


def _write_report(cfg: RunConfig, out: Path, plans: tuple[ScenarioPlan, ScenarioPlan]) -> None:
    """Render report.txt from out/ledger.csv alone, write it and print it: each
    requested case's revenue summed from the ledger, its depreciation and profit."""
    ledger_path = out / "ledger.csv"
    revenue = read_ledger_totals(ledger_path, cfg.blocks_per_day, cfg.sim_start, cfg.sim_end)
    missing = sorted(set(cfg.cases) - set(revenue))
    if missing:
        raise ValidationError(f"{ledger_path} has no rows for requested case(s): {', '.join(missing)}")
    months = months_spanned(cfg.sim_start, cfg.sim_end)
    reports = []
    for case in sorted(set(cfg.cases)):
        source, scenario = _split_case(case)
        reports.append(case_totals(source, revenue[case], plans[scenario - 1], cfg.miner, months))
    path = out / "report.txt"
    _write_text(cfg, path, render_report(reports, cfg))
    print(path.read_text(encoding="utf-8"), end="")


def cmd_simulate(cfg: RunConfig, out: Path) -> None:
    """Run every requested (price source x scenario) case into ledger.csv, then report from it."""
    market, _ = _load_clean_market(cfg)
    plans = _build_plans(cfg)
    window, network, prices = _case_columns(cfg, out, market)

    entries = []
    for case in sorted(set(cfg.cases)):
        source, scenario = _split_case(case)
        entries += run_case(plans[scenario - 1], source, window, prices[source], network, cfg.miner, cfg.blocks_per_day)
    write_fleet_csv(list(plans), out / "fleet.csv", header_comment=_header(cfg))
    write_ledger_csv(entries, out / "ledger.csv", header_comment=_key_values(_ledger_fields(cfg)))
    _write_report(cfg, out, plans)


def cmd_report(cfg: RunConfig, out: Path) -> None:
    """Rebuild the summary report of the requested cases from an existing ledger.csv."""
    plans = _build_plans(cfg)
    _check_header(cfg, out / "ledger.csv", "simulate", _ledger_fields(cfg))
    _write_report(cfg, out, plans)


# Each command and its help text. main makes the output directory before the
# command runs and writes config_used.json there once it has succeeded.
COMMANDS = {
    "ingest": (cmd_ingest, "validate and clean the input data"),
    "features": (cmd_features, "build the indicator feature matrix"),
    "train": (cmd_train, "fit and evaluate both price models"),
    "simulate": (cmd_simulate, "run the profit cases and write the report"),
    "report": (cmd_report, "rebuild the report from an existing ledger"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surplusminer",
        description="Simulate Bitcoin mining funded by surplus electricity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to the JSON run config")
        sp.add_argument("--seed", type=int, default=None, help="override the master seed")
        sp.add_argument("--cases", default=None, help="comma-separated case list, e.g. actual-1,forest-2")
        sp.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    cases = None if args.cases is None else args.cases.split(",")
    try:
        cfg = load_config(args.config, seed=args.seed, cases=cases, out_dir=args.out)
        out = Path(cfg.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot make the output directory {out}: {exc.strerror}") from None
        COMMANDS[args.command][0](cfg, out)
        with output_file(out / "config_used.json") as fh:
            json.dump({"config_hash": config_hash(cfg), "seed": cfg.seed, **effective_config(cfg)}, fh, indent=2)
            fh.write("\n")
    except ValidationError as exc:
        logger.error("validation error: %s", exc)
        return 2
    except DataInsufficientError as exc:
        logger.error("insufficient data: %s", exc)
        return 3
    except Exception:
        logger.exception("internal error")
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
