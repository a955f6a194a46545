import base64
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from surplusminer.ingest import MarketRecord, MarketSeries

TESTS_DIR = Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))  # makes `oracles` importable from any cwd

DATA_DIR = TESTS_DIR / "data"
FIXTURE_CONFIG = DATA_DIR / "fixture_config.json"


def make_series(prices, start=date(2022, 1, 1), hashrate=3.0e8) -> MarketSeries:
    """Daily market series from a plain price list, constant network hash rate."""
    records = tuple(
        MarketRecord(start + timedelta(days=i), float(p), hashrate)
        for i, p in enumerate(prices)
    )
    return MarketSeries(records)


def decode_nodes(doc):
    """The node blobs of a forest model document as one dict of lists per tree:
    `feature` and `split_or_value`, the number each node uses."""
    feature = np.frombuffer(base64.b64decode(doc["feature"]), dtype=np.int8)
    number = np.frombuffer(base64.b64decode(doc["split_or_value"]), dtype="<f8")
    cuts = np.cumsum(doc["node_counts"])[:-1]
    return [
        {"feature": f.tolist(), "split_or_value": v.tolist()}
        for f, v in zip(np.split(feature, cuts), np.split(number, cuts))
    ]


def encode_nodes(doc, trees):
    """Store per-tree node lists back in doc, node_counts taken from `feature`."""
    doc["node_counts"] = [len(tree["feature"]) for tree in trees]
    feature = [f for tree in trees for f in tree["feature"]]
    number = [v for tree in trees for v in tree["split_or_value"]]
    doc["feature"] = base64.b64encode(np.array(feature, dtype=np.int8).tobytes()).decode()
    doc["split_or_value"] = base64.b64encode(np.array(number, dtype="<f8").tobytes()).decode()


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def fixture_config() -> Path:
    return FIXTURE_CONFIG
