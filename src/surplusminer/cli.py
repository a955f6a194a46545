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
import json
import logging
import sys
import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

from .economics import (
    BLOCKS_PER_DAY,
    PriceSource,
    SimulationReport,
    attach_deltas,
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
# predict_forest and predict_window are not called here; they stay bound in
# this namespace, where bench/layertrace.py wraps every layer function by name.
from .forest import ForestParams, fit_forest, load_forest, predict_forest, predict_matrix, save_forest  # noqa: F401
from .indicators import FeatureMatrix, build_features, write_features_csv
from .ingest import (
    DEFAULT_SURPLUS_MONTHS,
    MarketSeries,
    fill_gaps,
    monthly_totals,
    output_file,
    parse_market_csv,
    parse_surplus_csv,
    read_json_object,
    write_market_csv,
    write_output_csv,
)
from .lstm import TrainConfig, fit_lstm, load_lstm, predict_series, predict_window, save_lstm  # noqa: F401
from .metrics import evaluate, write_eval_csv

logger = logging.getLogger(__name__)

VALID_CASES = ("actual-1", "actual-2", "forest-1", "forest-2", "lstm-1", "lstm-2")


@dataclass
class RunConfig:
    """The run config. The fields here and in the forest, lstm and miner
    sections are the config file's keys, and their defaults are the keys'
    defaults; a field with metadata config_key=False is set by the loader."""

    market_csv: str
    surplus_csv: str
    analysis_start: date = date(2016, 1, 1)
    analysis_end: date = date(2023, 9, 23)
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


def _typed(value, tp, key: str):
    """A JSON value as the field type tp: date, str, int, float, `X | None`, or a
    tuple of strings. Anything else is a ValidationError naming the key."""
    if get_origin(tp) in (Union, types.UnionType):  # X | None
        if value is None:
            return None
        tp = next(arg for arg in get_args(tp) if arg is not type(None))
    if tp is date:
        try:
            return date.fromisoformat(value)
        except (TypeError, ValueError):
            raise ValidationError(f"config key {key!r}: invalid ISO date {value!r}") from None
    if get_origin(tp) is tuple:
        args = get_args(tp)
        size = None if args[-1] is Ellipsis else len(args)
        if isinstance(value, list) and all(type(v) is str for v in value) and size in (None, len(value)):
            return tuple(value)
        want = "a list of strings" if size is None else f"a list of {size} strings"
        raise ValidationError(f"config key {key!r}: expected {want}, got {value!r}")
    if tp is float and type(value) is int:
        value = float(value)
    if type(value) is not tp:
        raise ValidationError(f"config key {key!r}: expected {tp.__name__}, got {value!r}")
    return value


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
            values[f.name] = _typed(raw[f.name], tp, prefix + f.name)
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
    """Parse, clip to the analysis..test window, and gap-fill the market data.

    Returns (filled series, number of gap days filled).
    """
    market_path = cfg.input_path(cfg.market_csv)
    _require_file(market_path, "market CSV")
    series = parse_market_csv(market_path)
    clipped = series.clip(cfg.analysis_start, cfg.test_end)
    if len(clipped) < 2:
        raise DataInsufficientError(
            f"market data covers {len(clipped)} days of "
            f"{cfg.analysis_start}..{cfg.test_end}"
        )
    filled = fill_gaps(clipped, start=cfg.analysis_start)
    return filled, len(filled) - len(clipped)


def _window_note(cfg: RunConfig) -> str | None:
    if cfg.test_end > cfg.analysis_end:
        return (
            f"evaluation window ends {cfg.test_end.isoformat()}, after the configured "
            f"analysis window end {cfg.analysis_end.isoformat()}; split dates follow the config"
        )
    return None


def cmd_ingest(cfg: RunConfig) -> None:
    """Validate inputs and write the cleaned series plus a summary."""
    out = _prepare_out(cfg)
    filled, gaps = _load_clean_market(cfg)
    surplus_path = cfg.input_path(cfg.surplus_csv)
    _require_file(surplus_path, "surplus CSV")
    surplus = parse_surplus_csv(surplus_path, months=cfg.surplus_months)
    totals = monthly_totals(surplus)

    write_market_csv(filled, out / "market_clean.csv", header_comment=_header(cfg))
    write_output_csv(
        out / "surplus_monthly.csv",
        ["month", "total_kwh"],
        ([t.month, repr(t.total_kwh)] for t in totals),
        _header(cfg),
    )

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
    train = matrix.slice_dates(cfg.train_start, cfg.train_end)
    test = matrix.slice_dates(cfg.test_start, cfg.test_end)
    if len(train) == 0:
        raise DataInsufficientError("no feature rows in the training window")
    if len(test) == 0:
        raise DataInsufficientError("no feature rows in the test window")
    return train, test


def cmd_train(cfg: RunConfig) -> None:
    """Fit both models on the train split and evaluate on the test split."""
    out = _prepare_out(cfg)
    filled, _ = _load_clean_market(cfg)
    matrix = build_features(filled)
    train, test = _split_features(cfg, matrix)
    T = cfg.lstm.window
    if len(test) < T:
        raise DataInsufficientError(f"test split has {len(test)} rows, shorter than the {T}-day window")

    # the LSTM trains in this process while the forest's workers grow trees
    lstm_fit: list = []
    forest_model = fit_forest(
        train, cfg.forest, meanwhile=lambda: lstm_fit.append(fit_lstm(train, cfg.lstm))
    )
    (lstm_model,) = lstm_fit
    save_forest(forest_model, out / "forest_model.json")
    forest_eval = evaluate(
        "forest", "test", test.target_array(), predict_matrix(forest_model, test)
    )

    save_lstm(lstm_model, out / "lstm_model.json")
    predicted = list(predict_series(lstm_model, test).values())
    lstm_eval = evaluate("lstm", "test", test.target_array()[T - 1 :], predicted)

    write_eval_csv([forest_eval, lstm_eval], out / "eval.csv", header_comment=_header(cfg))

    lines = [
        "training summary",
        f"train rows: {len(train)} ({train.rows[0].day.isoformat()}..{train.rows[-1].day.isoformat()})",
        f"test rows: {len(test)} ({test.rows[0].day.isoformat()}..{test.rows[-1].day.isoformat()})",
        f"forest: {cfg.forest.n_trees} trees, m_try={cfg.forest.resolved_m_try(matrix.feature_count)}",
        f"lstm: {cfg.lstm.epochs} epochs, hidden={cfg.lstm.hidden_size}, window={cfg.lstm.window}",
        "lstm loss trace: " + ", ".join(f"{v:.6f}" for v in lstm_model.loss_trace),
    ]
    for ev in (forest_eval, lstm_eval):
        lines.append(
            f"{ev.model}/{ev.split}: n={ev.n} mae={ev.mae:.4f} mse={ev.mse:.4f} r2={ev.r2:.4f}"
        )
    note = _window_note(cfg)
    if note:
        lines.append(f"note: {note}")
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


def _price_sources(cfg: RunConfig, out: Path, market: MarketSeries) -> dict[str, PriceSource]:
    """Build the price source for every model named in the requested cases."""
    needed = {case.rsplit("-", 1)[0] for case in cfg.cases}
    sources: dict[str, PriceSource] = {}
    if "actual" in needed:
        sources["actual"] = PriceSource.from_market(market)
    if "forest" in needed or "lstm" in needed:
        matrix = build_features(market)
        _, test = _split_features(cfg, matrix)
        if "forest" in needed:
            model_path = out / "forest_model.json"
            if not model_path.is_file():
                raise ValidationError(f"forest cases requested but {model_path} is missing; run train first")
            days = [row.day + timedelta(days=1) for row in test.rows]
            preds = dict(zip(days, predict_matrix(load_forest(model_path), test).tolist()))
            sources["forest"] = PriceSource.from_predictions("forest", preds)
        if "lstm" in needed:
            model_path = out / "lstm_model.json"
            if not model_path.is_file():
                raise ValidationError(f"lstm cases requested but {model_path} is missing; run train first")
            model = load_lstm(model_path)
            sources["lstm"] = PriceSource.from_predictions("lstm", predict_series(model, test))
    return sources


def render_report(reports: list[SimulationReport], cfg: RunConfig) -> list[str]:
    """Fixed-width summary table: revenue/cost/profit per case, exact and in millions."""
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
    body = []
    ordered = sorted(reports, key=lambda r: r.case_label)
    for r in ordered:
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
                "-" if r.delta_vs_actual_pct is None else f"{r.delta_vs_actual_pct:+.2f}%",
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

    notes = []
    note = _window_note(cfg)
    if note:
        notes.append(note)
    fallbacks = [f"{r.case_label}={r.fallback_days}" for r in ordered if r.fallback_days]
    if fallbacks:
        notes.append("price-fallback days: " + ", ".join(fallbacks))
    if notes:
        lines.append("")
        lines.append("notes:")
        lines.extend(f"- {n}" for n in notes)
    return lines


def _write_report(reports: list[SimulationReport], cfg: RunConfig, out: Path) -> None:
    """Fill the deltas, write report.txt, and print it."""
    attach_deltas(reports)
    path = out / "report.txt"
    _write_text(cfg, path, render_report(reports, cfg))
    print(path.read_text(encoding="utf-8"), end="")


def cmd_simulate(cfg: RunConfig) -> None:
    """Run every requested (price source x scenario) case and write the report."""
    out = _prepare_out(cfg)
    if not cfg.cases:
        raise ValidationError("no cases requested")
    market, _ = _load_clean_market(cfg)
    plans = _build_plans(cfg)
    sources = _price_sources(cfg, out, market)

    reports = []
    for case in sorted(set(cfg.cases)):
        source_label, scenario = case.rsplit("-", 1)
        plan = plans[int(scenario) - 1]
        reports.append(
            run_case(
                plan,
                sources[source_label],
                market,
                cfg.miner,
                cfg.sim_start,
                cfg.sim_end,
                cfg.blocks_per_day,
            )
        )
    write_fleet_csv(list(plans), out / "fleet.csv", header_comment=_header(cfg))
    write_ledger_csv(reports, out / "ledger.csv", header_comment=_header(cfg))
    _write_report(reports, cfg, out)


def cmd_report(cfg: RunConfig) -> None:
    """Rebuild the summary report from an existing ledger.csv."""
    out = _prepare_out(cfg)
    ledger_path = out / "ledger.csv"
    if not ledger_path.is_file():
        raise ValidationError(f"no ledger found at {ledger_path}; run simulate first")

    totals = read_ledger_totals(ledger_path)
    if not totals:
        raise DataInsufficientError(f"{ledger_path}: no ledger rows")

    plans = _build_plans(cfg)
    months = months_spanned(cfg.sim_start, cfg.sim_end)
    reports = [
        case_totals(source, revenue, plans[scenario - 1], cfg.miner, months, fallback_days)
        for (source, scenario), (revenue, fallback_days) in totals.items()
    ]
    _write_report(reports, cfg, out)


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
