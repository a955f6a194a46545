"""Command-line pipeline: ingest -> features -> train -> simulate -> report.

Every command is a pure function of (input files, config): reruns produce
byte-identical outputs, each output file starts with a header naming the
config hash and seed, and the effective config is echoed into the output
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
from typing import get_type_hints

from .economics import (
    BLOCKS_PER_DAY,
    PriceSource,
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
# predict_forest and predict_window are not called here; they stay because
# bench/layertrace.py wraps every layer function bound in this namespace by name.
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
    are not config keys take the run's value of the same name (the seed).
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
    return cls(**values)


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


def _header(cfg: RunConfig) -> str:
    return f"config={config_hash(cfg)} seed={cfg.seed}"


def _ledger_header(cfg: RunConfig) -> str:
    """ledger.csv's header: that of the config with all six cases. A case's
    rows do not depend on which other cases ran, so a report on any of its
    cases can check the ledger against the run config."""
    return _header(replace(cfg, cases=VALID_CASES))


def _prepare_out(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"config_hash": config_hash(cfg), "seed": cfg.seed, **effective_config(cfg)}
    with output_file(out / "config_used.json") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return out


def _write_text(cfg: RunConfig, path: Path, lines: list[str]) -> None:
    """A text output: the config header line, then `lines`."""
    with output_file(path, _header(cfg)) as fh:
        fh.write("\n".join(lines) + "\n")


def _require_file(path: Path, what: str) -> None:
    if not path.is_file():
        raise ValidationError(f"{what} not found: {path}")


def _load_clean_market(cfg: RunConfig) -> tuple[MarketSeries, int]:
    """Parse the market data and gap-fill it over the analysis..test window.

    Only the end is clipped before filling, so a gap on analysis_start takes
    the last record before it. Returns (filled series, number of gap days filled).
    """
    market_path = cfg.input_path(cfg.market_csv)
    _require_file(market_path, "market CSV")
    series = parse_market_csv(market_path).clip(end=cfg.test_end)
    days = len(series.clip(start=cfg.analysis_start))
    if days < 2:
        raise DataInsufficientError(
            f"market data covers {days} days of {cfg.analysis_start}..{cfg.test_end}"
        )
    filled = fill_gaps(series, start=cfg.analysis_start)
    return filled, len(filled) - days


def cmd_ingest(cfg: RunConfig) -> None:
    """Validate inputs and write the cleaned series plus a summary."""
    out = _prepare_out(cfg)
    filled, gaps = _load_clean_market(cfg)
    surplus_path = cfg.input_path(cfg.surplus_csv)
    _require_file(surplus_path, "surplus CSV")
    surplus = parse_surplus_csv(surplus_path, months=cfg.surplus_months)
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


def cmd_features(cfg: RunConfig) -> None:
    """Build and export the indicator feature matrix."""
    out = _prepare_out(cfg)
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
    days, as build_features makes them from the gap-filled series.
    """
    day = timedelta(days=1)
    T = cfg.lstm.window
    train = matrix.slice_dates(cfg.train_start, cfg.train_end - day)
    if len(train) == 0:
        raise DataInsufficientError("no feature rows in the training window")
    first = cfg.test_start - T * day
    forecast = matrix.slice_dates(first, cfg.test_end - day)
    history = sum(row.day < cfg.test_start for row in forecast.rows)
    if history < T:
        raise DataInsufficientError(
            f"too little history before test_start {cfg.test_start}: the {T}-day window "
            f"needs the feature rows dated {first}..{cfg.test_start - day}, got {history}"
        )
    return train, forecast


def _forecast(cfg: RunConfig, forecast: FeatureMatrix, name: str, model) -> dict[date, float]:
    """The price of model `name` ("forest" or "lstm") for each test day, keyed
    by day. The LSTM reads each window of the forecast rows; the forest reads
    the rows after the window history, one per day."""
    if name == "lstm":
        return predict_series(model, forecast)
    rows = FeatureMatrix(forecast.rows[cfg.lstm.window - 1 :])
    return dict(zip((row.target_day for row in rows.rows), predict_matrix(model, rows).tolist()))


def cmd_train(cfg: RunConfig) -> None:
    """Fit both models on the training rows and evaluate them on every test day."""
    _bind_layers()
    out = _prepare_out(cfg)
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

    actual = PriceSource.from_market(filled)
    predicted = {
        name: _forecast(cfg, forecast, name, model) for name, model in (("forest", forest_model), ("lstm", lstm_model))
    }
    evals = [
        evaluate(name, "test", [actual.price_for(d) for d in prices], list(prices.values()))
        for name, prices in predicted.items()
    ]
    write_eval_csv(evals, out / "eval.csv", header_comment=_header(cfg))

    days = list(predicted["lstm"])  # the same for both models
    lines = [
        "training summary",
        f"train rows: {len(train)} ({train.rows[0].day.isoformat()}..{train.rows[-1].day.isoformat()})",
        f"test days: {len(days)} ({days[0].isoformat()}..{days[-1].isoformat()}), each forecast from the day before",
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
    surplus_path = cfg.input_path(cfg.surplus_csv)
    _require_file(surplus_path, "surplus CSV")
    surplus = parse_surplus_csv(surplus_path, months=cfg.surplus_months)
    capacities = [
        month_capacity(t, cfg.miner, cfg.loss_rate) for t in monthly_totals(surplus)
    ]
    return build_scenarios(capacities, cfg.miner)


def _field_values(obj, names: list[str]) -> str:
    return ", ".join(f"{name}={getattr(obj, name)!r}" for name in names)


def _price_sources(cfg: RunConfig, out: Path, market: MarketSeries) -> dict[str, PriceSource]:
    """Build the price source for every model named in the requested cases.

    A model is used only if it was trained under the run config's settings for
    it (cfg.forest or cfg.lstm, seed included)."""
    needed = {case.rsplit("-", 1)[0] for case in cfg.cases}
    sources: dict[str, PriceSource] = {}
    if "actual" in needed:
        sources["actual"] = PriceSource.from_market(market)
    if "forest" in needed or "lstm" in needed:
        _bind_layers()
        _, forecast = _split_features(cfg, build_features(market))
        for name, load, settings in (("forest", load_forest, "params"), ("lstm", load_lstm, "config")):
            if name in needed:
                model_path = out / f"{name}_model.json"
                if not model_path.is_file():
                    raise ValidationError(f"{name} cases requested but {model_path} is missing; run train first")
                model = load(model_path)
                trained, wanted = getattr(model, settings), getattr(cfg, name)
                differ = [f.name for f in fields(wanted) if getattr(trained, f.name) != getattr(wanted, f.name)]
                if differ:
                    raise ValidationError(
                        f"{model_path}: trained with {_field_values(trained, differ)}, "
                        f"but the run config has {_field_values(wanted, differ)}; run train again"
                    )
                try:
                    prices = _forecast(cfg, forecast, name, model)
                except ValidationError as exc:  # a model that does not fit the features
                    raise ValidationError(f"{model_path}: {exc}") from None
                sources[name] = PriceSource(name, prices)
    return sources


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


def _write_report(cfg: RunConfig, out: Path, plans: tuple[ScenarioPlan, ScenarioPlan]) -> None:
    """Render report.txt from out/ledger.csv alone, write it and print it: each
    requested case's revenue summed from the ledger, its depreciation and profit."""
    ledger_path = out / "ledger.csv"
    with open(ledger_path, encoding="utf-8") as fh:
        written_under = fh.readline().rstrip("\n")
    expected = f"# {_ledger_header(cfg)}"
    if written_under != expected:
        raise ValidationError(
            f"{ledger_path} is headed {written_under!r}, but this run's ledger is headed {expected!r}; "
            "run simulate again"
        )
    revenue = read_ledger_totals(ledger_path, cfg.blocks_per_day, cfg.sim_start, cfg.sim_end)
    missing = sorted(set(cfg.cases) - set(revenue))
    if missing:
        raise ValidationError(f"{ledger_path} has no rows for requested case(s): {', '.join(missing)}")
    months = months_spanned(cfg.sim_start, cfg.sim_end)
    reports = []
    for case in sorted(set(cfg.cases)):
        source, scenario = case.rsplit("-", 1)
        reports.append(case_totals(source, revenue[case], plans[int(scenario) - 1], cfg.miner, months))
    path = out / "report.txt"
    _write_text(cfg, path, render_report(reports, cfg))
    print(path.read_text(encoding="utf-8"), end="")


def cmd_simulate(cfg: RunConfig) -> None:
    """Run every requested (price source x scenario) case into ledger.csv, then report from it."""
    out = _prepare_out(cfg)
    if not cfg.cases:
        raise ValidationError("no cases requested")
    market, _ = _load_clean_market(cfg)
    plans = _build_plans(cfg)
    sources = _price_sources(cfg, out, market)

    entries = []
    for case in sorted(set(cfg.cases)):
        source, scenario = case.rsplit("-", 1)
        entries += run_case(
            plans[int(scenario) - 1], sources[source], market, cfg.miner,
            cfg.sim_start, cfg.sim_end, cfg.blocks_per_day,
        )
    write_fleet_csv(list(plans), out / "fleet.csv", header_comment=_header(cfg))
    write_ledger_csv(entries, out / "ledger.csv", header_comment=_ledger_header(cfg))
    _write_report(cfg, out, plans)


def cmd_report(cfg: RunConfig) -> None:
    """Rebuild the summary report of the requested cases from an existing ledger.csv."""
    out = _prepare_out(cfg)
    if not cfg.cases:
        raise ValidationError("no cases requested")
    ledger_path = out / "ledger.csv"
    if not ledger_path.is_file():
        raise ValidationError(f"no ledger found at {ledger_path}; run simulate first")
    _write_report(cfg, out, _build_plans(cfg))


COMMANDS = {
    "ingest": cmd_ingest,
    "features": cmd_features,
    "train": cmd_train,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surplusminer",
        description="Simulate Bitcoin mining funded by surplus electricity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "ingest": "validate and clean the input data",
        "features": "build the indicator feature matrix",
        "train": "fit and evaluate both price models",
        "simulate": "run the profit cases and write the report",
        "report": "rebuild the report from an existing ledger",
    }
    for name, help_text in helps.items():
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
    cases = args.cases.split(",") if args.cases else None
    try:
        cfg = load_config(args.config, seed=args.seed, cases=cases, out_dir=args.out)
        COMMANDS[args.command](cfg)
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
