"""Random-forest regressor built from first principles.

Bootstrap bagging over B trees, a fresh random feature subset at every node,
exhaustive SSE-optimal splits at midpoints between consecutive distinct
feature values, and mean-of-trees prediction. Every random draw comes from a
per-tree substream derived by hashing (seed, tree index), so a fit is a pure
function of (data, params), and the trees are grown in parallel worker
processes without changing a bit of the result.

Each tree is one `Tree` record of parallel arrays in preorder (the layout of
scikit-learn's `Tree`): growing, saving, loading and predicting all use it.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DataInsufficientError, ValidationError
from .indicators import FeatureMatrix
from .ingest import json_array, json_value, output_file, read_json_object

FOREST_SCHEMA = "forest-model/2"

# Candidate totals within this relative band of the best are treated as tied
# and broken by (feature index, threshold). The band is scaled by the node's
# sum of squares: mathematically identical partitions reached through
# different sort orders can disagree in the last ulp, and a raw < comparison
# would turn those ties into coin flips.
_TIE_REL = 1e-12

LEAF = -1  # feature, left and right of a leaf node


@dataclass(frozen=True, eq=False)
class Tree:
    """One regression tree as parallel arrays over its nodes in preorder.

    Node 0 is the root. Internal node i sends rows with
    x[feature[i]] <= threshold[i] to left[i] (i + 1 in a grown tree) and the
    rest to right[i]; both children come after i. At a leaf, feature, left and right
    are LEAF and value[i] is the prediction. Unused threshold and value
    entries are 0.0.
    """

    feature: np.ndarray  # int64
    threshold: np.ndarray  # float64
    left: np.ndarray  # int64
    right: np.ndarray  # int64
    value: np.ndarray  # float64

    @property
    def node_count(self) -> int:
        return len(self.feature)


_TREE_ARRAYS = {"feature": int, "threshold": float, "left": int, "right": int, "value": float}


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    m_try: int | None = None  # None: max(1, floor(p / 3))
    min_samples_leaf: int = 1
    max_depth: int | None = None
    seed: int = field(default=0, metadata={"config_key": False})  # the run's master seed

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValidationError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.m_try is not None and self.m_try < 1:
            raise ValidationError(f"m_try must be >= 1, got {self.m_try}")
        if self.min_samples_leaf < 1:
            raise ValidationError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValidationError(f"max_depth must be >= 0, got {self.max_depth}")

    def resolved_m_try(self, p: int) -> int:
        m = self.m_try if self.m_try is not None else max(1, p // 3)
        if m > p:
            raise ValidationError(f"m_try={m} exceeds feature count {p}")
        return m


@dataclass
class ForestModel:
    trees: list[Tree]
    params: ForestParams
    feature_count: int


def tree_rng(seed: int, b: int) -> np.random.Generator:
    """Independent substream for tree b, a stable hash of (seed, b)."""
    return np.random.default_rng(np.random.SeedSequence((seed, b)))


def bootstrap_sample(n: int, rng: np.random.Generator) -> np.ndarray:
    """n row indices drawn uniformly with replacement."""
    if n < 1:
        raise ValidationError(f"cannot bootstrap from {n} rows")
    return rng.integers(0, n, size=n)


def _sse_tolerance(sq_sum: float) -> float:
    return _TIE_REL * (sq_sum + 1.0)


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    feature_subset: Sequence[int],
) -> Optional[tuple[int, float, float]]:
    """Exhaustive SSE-optimal split over the given features.

    Candidate thresholds are midpoints between consecutive distinct values of
    each feature (snapped down to the lower value when rounding would reach
    the upper one); rows with value <= threshold go left. Returns
    (feature, threshold, children_sse) minimizing SSE_left + SSE_right, ties
    broken by lowest feature index then lowest threshold. Returns None when
    no feature in the subset has two distinct values, or when the best
    candidate fails to reduce the parent SSE (no-gain splits are rejected).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if X.ndim != 2 or X.shape[0] != n:
        raise ValidationError(f"X shape {X.shape} does not match {n} targets")
    features = np.array(sorted(int(v) for v in feature_subset), dtype=np.int64)
    for f in features:
        if not 0 <= f < X.shape[1]:
            raise ValidationError(f"feature index {f} out of range for p={X.shape[1]}")
    if n < 2 or not features.size:
        return None
    return _split_search(X[:, features], y, features)


def _split_search(
    Xs: np.ndarray, y: np.ndarray, features: np.ndarray
) -> Optional[tuple[int, float, float]]:
    """best_split on the (n >= 2, m) columns Xs of the sorted `features`,
    all m in one 2-D pass; each column's arithmetic is that of a 1-D pass.
    Reductions call the ufuncs directly (np.sum is np.add.reduce)."""
    n, m = Xs.shape
    sq_sum = float(np.dot(y, y))
    tol = _sse_tolerance(sq_sum)
    parent = max(sq_sum - float(np.add.reduce(y)) ** 2 / n, 0.0)

    order = Xs.argsort(axis=0, kind="stable")
    cols = np.arange(m)
    xs = Xs[order, cols]
    ys = y[order]
    csum = np.add.accumulate(ys, axis=0)
    csq = np.add.accumulate(ys * ys, axis=0)
    # row k - 1 holds the candidate with k rows on the left; only boundaries
    # between distinct values are candidates
    k = np.arange(1, n)[:, None]
    valid = xs[1:] > xs[:-1]
    left_sum, left_sq = csum[:-1], csq[:-1]
    sse_left = left_sq - left_sum**2 / k
    sse_right = (csq[-1] - left_sq) - (csum[-1] - left_sum) ** 2 / (n - k)
    totals = np.maximum(sse_left, 0.0) + np.maximum(sse_right, 0.0)
    fmin = np.minimum.reduce(totals, axis=0, where=valid, initial=np.inf)
    # per feature, the lowest threshold among its tied minima (the first
    # candidate when a NaN total leaves none)
    tied = valid & (totals <= fmin + tol)
    first = tied.argmax(axis=0)

    best: tuple[float, int, float] | None = None  # (children_sse, feature, threshold)
    for j, has_candidate in enumerate(np.logical_or.reduce(valid, axis=0).tolist()):
        if not has_candidate:
            continue
        idx = first[j] if tied[first[j], j] else valid[:, j].argmax()
        cand_sse = float(totals[idx, j])
        lo, hi = float(xs[idx, j]), float(xs[idx + 1, j])
        threshold = (lo + hi) / 2.0
        # the midpoint of ulp-adjacent values can round up to hi, which would
        # send every row left; snap to lo so the partition stays two-sided
        if threshold >= hi:
            threshold = lo
        # strict improvement beyond the tie band; on a tie the earlier
        # (lower-index) feature stands
        if best is None or cand_sse < best[0] - tol:
            best = (cand_sse, int(features[j]), threshold)

    if best is None or parent - best[0] <= tol:
        return None
    return best[1], best[2], best[0]


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    rng: np.random.Generator,
) -> Tree:
    """Grow one tree in preorder, left child first, from an explicit stack.

    Leaves form when targets are constant, the node is smaller than
    2 * min_samples_leaf, max_depth is reached, or no gaining split exists.
    The feature subset is redrawn from rng at every node that may split, in
    preorder. Depth is bounded by the row count, not by the Python stack.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(y) == 0:
        raise DataInsufficientError("cannot grow a tree from zero rows")
    p = X.shape[1]
    m = params.resolved_m_try(p)
    min_split = 2 * params.min_samples_leaf
    max_depth = params.max_depth

    feature: list[int] = []
    threshold: list[float] = []
    right: list[int] = []
    value: list[float] = []
    # (row indices of the node, its depth, the node whose right child it is)
    stack: list[tuple[np.ndarray, int, int]] = [(np.arange(len(y)), 0, LEAF)]
    while stack:
        rows, depth, parent = stack.pop()
        node = len(feature)
        if parent != LEAF:
            right[parent] = node
        found = None
        if len(rows) > 1:
            ys = y[rows]
            if not (
                np.minimum.reduce(ys) == np.maximum.reduce(ys)
                or len(rows) < min_split
                or (max_depth is not None and depth >= max_depth)
            ):
                subset = np.sort(rng.choice(p, size=m, replace=False))
                found = _split_search(X[rows[:, None], subset], ys, subset)
        if found is None:
            # np.mean's arithmetic: a pairwise sum, then one division (for
            # one row, the row's value)
            leaf = float(np.add.reduce(ys)) / len(rows) if len(rows) > 1 else float(y[rows[0]])
            feature.append(LEAF)
            threshold.append(0.0)
            right.append(LEAF)
            value.append(leaf)
            continue
        f, thr, _ = found
        mask = X[rows, f] <= thr
        feature.append(f)
        threshold.append(thr)
        right.append(LEAF)  # set when the right child is popped
        value.append(0.0)
        stack.append((rows[~mask], depth + 1, node))
        stack.append((rows[mask], depth + 1, LEAF))

    feature_arr = np.array(feature, dtype=np.int64)
    internal = feature_arr != LEAF
    return Tree(
        feature=feature_arr,
        threshold=np.array(threshold, dtype=float),
        left=np.where(internal, np.arange(1, len(feature) + 1), LEAF),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=float),
    )


Sampler = Callable[[int, np.random.Generator], np.ndarray]

# (X, y, params, sampler) of the fit a pool worker serves; set once in each
# forked worker by _start_worker, never in the parent.
_worker_job: tuple | None = None


def _grow_bagged_tree(job: tuple, b: int) -> Tree:
    """Tree b of a fit: its bootstrap draw and its splits, from stream (seed, b)."""
    X, y, params, sampler = job
    rng = tree_rng(params.seed, b)
    idx = np.asarray(sampler(len(y), rng))
    return grow_tree(X[idx], y[idx], params, rng)


def _start_worker(job: tuple) -> None:
    global _worker_job
    _worker_job = job


def _grow_in_worker(b: int) -> Tree:
    return _grow_bagged_tree(_worker_job, b)


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fit_forest(
    features: FeatureMatrix,
    params: ForestParams,
    sampler: Sampler | None = None,
) -> ForestModel:
    """Fit B trees on bootstrap resamples of the feature matrix.

    The trees are grown in a pool of forked worker processes, one per
    available CPU (at most B), and collected in tree order; with one worker
    they are grown in this process. Tree b depends only on stream (seed, b),
    so the model is the same for any worker count.

    `sampler` is a test hook replacing the bootstrap draw (e.g. identity
    indices); it receives (n, rng) and must return row indices.
    """
    X = features.feature_array()
    y = features.target_array()
    if len(y) == 0:
        raise DataInsufficientError("cannot fit a forest on an empty feature matrix")
    params.resolved_m_try(X.shape[1])  # reject a bad m_try before any worker starts
    job = (X, y, params, sampler if sampler is not None else bootstrap_sample)
    workers = min(_available_cpus(), params.n_trees)
    if workers == 1 or not hasattr(os, "fork"):
        trees = [_grow_bagged_tree(job, b) for b in range(params.n_trees)]
    else:
        import multiprocessing  # here, so commands that never fit skip its ~7 ms import

        # fork, not spawn: the workers inherit X, y and the sampler (which may
        # be a closure) without pickling, and start in milliseconds instead of
        # re-importing numpy, which costs about as much as a small fit
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers, initializer=_start_worker, initargs=(job,)) as pool:
            trees = pool.map(_grow_in_worker, range(params.n_trees), chunksize=1)
    return ForestModel(trees=trees, params=params, feature_count=X.shape[1])


def predict_tree(tree: Tree, x: Sequence[float]) -> float:
    node = 0
    while tree.feature[node] != LEAF:
        goes_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if goes_left else tree.right[node]
    return float(tree.value[node])


def _tree_predictions(tree: Tree, X: np.ndarray) -> np.ndarray:
    """predict_tree for every row of X, all rows descending one level per step.
    Children always follow their parent, so every row reaches a leaf."""
    node = np.zeros(len(X), dtype=np.int64)
    active = np.arange(len(X))
    while active.size:
        at = node[active]
        f = tree.feature[at]
        internal = f != LEAF
        active, at, f = active[internal], at[internal], f[internal]
        goes_left = X[active, f] <= tree.threshold[at]
        node[active] = np.where(goes_left, tree.left[at], tree.right[at])
    return tree.value[node]


def _predict_rows(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Mean of the per-tree predictions for each row of X, summed in tree order."""
    if X.shape[1] != model.feature_count:
        raise ValidationError(f"expected {model.feature_count} features, got {X.shape[1]}")
    total = np.zeros(len(X))
    for tree in model.trees:
        total += _tree_predictions(tree, X)
    return total / len(model.trees)


def predict_forest(model: ForestModel, x: Sequence[float]) -> float:
    """The forest's prediction for one feature row."""
    return float(_predict_rows(model, np.asarray(x, dtype=float).reshape(1, -1))[0])


def predict_matrix(model: ForestModel, features: FeatureMatrix) -> np.ndarray:
    """The forest's prediction for every row of a feature matrix."""
    if not features.rows:
        return np.zeros(0)
    return _predict_rows(model, features.feature_array())


def save_forest(model: ForestModel, path: str | Path) -> None:
    """Write the model as versioned, self-describing JSON (deterministic bytes)."""
    doc = {
        "schema": FOREST_SCHEMA,
        "feature_count": model.feature_count,
        "params": asdict(model.params),
        "trees": [{name: getattr(t, name).tolist() for name in _TREE_ARRAYS} for t in model.trees],
    }
    with output_file(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def _checked_tree(doc: dict, feature_count: int) -> Tree:
    """A Tree from its JSON arrays, checked so that prediction stays in bounds
    and terminates: every child index points forward."""
    tree = Tree(**{name: json_array(doc, name, dtype) for name, dtype in _TREE_ARRAYS.items()})
    n = tree.node_count
    if n == 0 or any(len(getattr(tree, name)) != n for name in _TREE_ARRAYS):
        raise ValidationError("tree arrays must be non-empty and of equal length")
    leaf = tree.feature == LEAF
    nodes = np.arange(n)
    internal = ~leaf
    if not np.all((tree.feature[internal] >= 0) & (tree.feature[internal] < feature_count)):
        raise ValidationError(f"split feature out of range for {feature_count} features")
    for side in (tree.left, tree.right):
        if not np.all((side[internal] > nodes[internal]) & (side[internal] < n)):
            raise ValidationError("child index must come after its node and within the tree")
        if not np.all(side[leaf] == LEAF):
            raise ValidationError(f"leaf child index must be {LEAF}")
    if not (np.all(np.isfinite(tree.threshold)) and np.all(np.isfinite(tree.value))):
        raise ValidationError("thresholds and values must be finite")
    return tree


def load_forest(path: str | Path) -> ForestModel:
    """Read a model written by save_forest. A file that is not one (bad JSON,
    a missing or mistyped key, a tree that does not hold together) is a
    ValidationError naming the file."""
    doc = read_json_object(path)
    try:
        schema = doc.get("schema")
        if schema != FOREST_SCHEMA:
            raise ValidationError(f"unsupported model schema {schema!r}")
        feature_count = json_value(doc, "feature_count", int)
        if feature_count < 1:
            raise ValidationError(f"feature_count must be >= 1, got {feature_count}")
        try:
            params = ForestParams(**json_value(doc, "params", dict))
        except TypeError as exc:
            raise ValidationError(f"key 'params': {exc}") from None
        trees = []
        for b, tree_doc in enumerate(json_value(doc, "trees", list)):
            if not isinstance(tree_doc, dict):
                raise ValidationError(f"tree {b}: expected an object")
            try:
                trees.append(_checked_tree(tree_doc, feature_count))
            except ValidationError as exc:
                raise ValidationError(f"tree {b}: {exc}") from None
        if not trees:
            raise ValidationError("no trees")
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return ForestModel(trees=trees, params=params, feature_count=feature_count)
