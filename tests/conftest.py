import base64
import contextlib
import os
import signal
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from surplusminer.forest import ForestParams, Tree, grow_trees
from surplusminer.ingest import MarketRecord

TESTS_DIR = Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))  # makes `oracles` importable from any cwd

DATA_DIR = TESTS_DIR / "data"
FIXTURE_CONFIG = DATA_DIR / "fixture_config.json"


def make_series(prices, start=date(2022, 1, 1), hashrate=3.0e8) -> list[MarketRecord]:
    """Daily market records from a plain price list, constant network hash rate."""
    return [MarketRecord(start + timedelta(days=i), float(p), hashrate) for i, p in enumerate(prices)]


def grow_tree(X: np.ndarray, y: np.ndarray, params: ForestParams, rng: np.random.Generator) -> Tree:
    """One tree on every row of X and y, in order: grow_trees for one tree."""
    return grow_trees(X, y, params, [np.arange(len(y))], [rng])[0]


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


def killing_sampler():
    """A bootstrap draw, to patch over forest.bootstrap_sample, that sends
    SIGKILL (the OOM killer's signal) to any process but the one that made
    it: a forked forest worker dies mid-fit, and the test runner never does."""
    here = os.getpid()

    def draw(n, rng):
        if os.getpid() != here:
            os.kill(os.getpid(), signal.SIGKILL)
        return np.arange(n)

    return draw


@contextlib.contextmanager
def fails_after(seconds):
    """Raise TimeoutError in the block once it has run `seconds`, so that a
    hang fails the test instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def fixture_config() -> Path:
    return FIXTURE_CONFIG
