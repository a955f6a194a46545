"""surplusminer: turn surplus-electricity records into mining-fleet plans,
price forecasts, and profit reports."""

from .economics import (
    PriceSource,
    SimulationReport,
    btc_per_day,
    daily_revenue,
    depreciation_cost,
    run_case,
    solo_mining_time,
)
from .errors import DataInsufficientError, ValidationError
from .fleet import DEFAULT_MINER, MinerSpec, block_reward, build_scenarios
from .forest import ForestParams, fit_forest, load_forest, predict_matrix, save_forest
from .indicators import FeatureMatrix, build_features
from .ingest import MarketSeries, fill_gaps, parse_market_csv, parse_surplus_csv
from .lstm import TrainConfig, fit_lstm, load_lstm, predict_series, save_lstm
from .metrics import evaluate

__version__ = "0.1.0"

__all__ = [
    "DataInsufficientError",
    "ValidationError",
    "MarketSeries",
    "parse_market_csv",
    "parse_surplus_csv",
    "fill_gaps",
    "FeatureMatrix",
    "build_features",
    "ForestParams",
    "fit_forest",
    "predict_matrix",
    "save_forest",
    "load_forest",
    "TrainConfig",
    "fit_lstm",
    "predict_series",
    "save_lstm",
    "load_lstm",
    "evaluate",
    "MinerSpec",
    "DEFAULT_MINER",
    "build_scenarios",
    "block_reward",
    "PriceSource",
    "SimulationReport",
    "btc_per_day",
    "daily_revenue",
    "depreciation_cost",
    "solo_mining_time",
    "run_case",
    "__version__",
]
