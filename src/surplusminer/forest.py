"""Random-forest regressor built from first principles.

Bootstrap bagging over B trees, a fresh random feature subset at every node,
exhaustive SSE-optimal splits at midpoints between consecutive distinct
feature values, and mean-of-trees prediction. Every random draw comes from a
per-tree substream derived by hashing (seed, tree index), so a fit is a pure
function of (data, params), and the trees are grown in parallel worker
processes without changing a bit of the result.

A tree grows one depth level at a time, as in SLIQ (Mehta, Agrawal and
Rissanen, EDBT 1996) and SPRINT (Shafer et al., VLDB 1996): the stream first
gives the bootstrap draw, then, level by level, the feature subsets of that
level's splittable nodes in breadth-first order (left child before right),
and all nodes of a similar size are searched in one padded numpy pass.

Each tree is one `Tree` record of parallel arrays over its nodes in the order
they grow, level after level: growing, saving, loading and predicting all use
it.
"""
from __future__ import annotations

import base64
import json
import os
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DataInsufficientError, ValidationError
from .indicators import FeatureMatrix
from .ingest import json_array, json_fields, json_value, output_file, read_json_object
from .params import ForestParams

FOREST_SCHEMA = "forest-model/5"

# The model file stores split features as int8, so it holds at most this many.
_MAX_FEATURES = 127

# Candidate totals within this relative band of the best are treated as tied
# and broken by (feature index, threshold). The band is scaled by the node's
# sum of squares: mathematically identical partitions reached through
# different sort orders can disagree in the last ulp, and a raw < comparison
# would turn those ties into coin flips.
_TIE_REL = 1e-12

LEAF = -1  # feature and left child of a leaf node


@dataclass(frozen=True, eq=False)
class Tree:
    """One regression tree as parallel arrays over its nodes in level order.

    Node 0 is the root, and each depth level follows the one above it, its
    nodes in pairs, left child then right, in the order of their parents, so
    the j-th internal node's children are nodes 2j + 1 and 2j + 2. Internal
    node i sends rows with x[feature[i]] <= threshold[i] to left[i] and the
    rest to left[i] + 1. At a leaf, feature is LEAF and value[i] is the
    prediction. Unused threshold and value entries are 0.0.
    """

    feature: np.ndarray  # int64
    threshold: np.ndarray  # float64
    value: np.ndarray  # float64

    @property
    def node_count(self) -> int:
        return len(self.feature)

    @cached_property
    def left(self) -> np.ndarray:
        """Each node's left child, 2j + 1 at the j-th internal node; LEAF at a leaf."""
        internal = self.feature != LEAF
        return np.where(internal, 2 * np.cumsum(internal) - 1, LEAF)


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
    feature, threshold, sse = _split_search(
        X, y, np.arange(n)[None, :], np.array([n]), features[None, :]
    )
    if feature[0] == LEAF:
        return None
    return int(feature[0]), float(threshold[0]), float(sse[0])


def _split_search(
    X: np.ndarray, y: np.ndarray, rows: np.ndarray, sizes: np.ndarray, subsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """best_split for k nodes at once, in one padded pass.

    Node i holds the sizes[i] >= 2 rows rows[i, :sizes[i]] (the rest of the
    row is padding) and searches the sorted features subsets[i]. Every
    (node, feature) lane runs the arithmetic of a 1-D pass over that node
    alone: a stable sort, sequential cumulative sums, and the same SSE
    expressions and tie rules. Returns per node (feature, threshold,
    children_sse), with feature LEAF and threshold 0.0 where the node does
    not split. Reductions call the ufuncs directly (np.sum is np.add.reduce).
    """
    k, width = rows.shape
    real = np.arange(width) < sizes[:, None]
    Y = np.where(real, y[rows], 0.0)
    # the node's own sums, from 1-D calls on its rows in row order, so that
    # tolerance and parent SSE are those of the node searched alone
    sq_sums, parent = [], []
    for row, n in zip(Y, sizes.tolist()):
        ys = row[:n]
        sq_sum = float(np.dot(ys, ys))
        sq_sums.append(sq_sum)
        parent.append(max(sq_sum - float(np.add.reduce(ys)) ** 2 / n, 0.0))
    tol, parent = _TIE_REL * (np.array(sq_sums) + 1.0), np.array(parent)

    # lanes (node, feature) along the first two axes, rows along the last;
    # NaN sorts after every number, +inf included, so each lane's real rows
    # come first and keep their 1-D order, and padded y is 0 and adds nothing
    m = subsets.shape[1]
    Xs = np.where(real[:, None, :], X[rows[:, None, :], subsets[:, :, None]], np.nan)
    order = Xs.argsort(axis=2, kind="stable")
    xs = Xs.take(order + np.arange(0, k * m * width, width).reshape(k, m, 1))
    ys = Y.take(order + np.arange(0, k * width, width).reshape(k, 1, 1))
    csum = np.add.accumulate(ys, axis=2)
    csq = np.add.accumulate(ys * ys, axis=2)
    node, col, last = np.arange(k)[:, None], np.arange(m), (sizes - 1)[:, None]
    total_sum = csum[node, col, last][:, :, None]
    total_sq = csq[node, col, last][:, :, None]
    # position j - 1 holds the candidate with j rows on the left; only
    # boundaries between distinct values inside the node are candidates
    j = np.arange(1, width)
    n = sizes[:, None, None]
    valid = (xs[:, :, 1:] > xs[:, :, :-1]) & (j < n)
    left_sum, left_sq = csum[:, :, :-1], csq[:, :, :-1]
    sse_left = left_sq - left_sum**2 / j
    # padded lanes get a right-hand count of 1 instead of 0 or less; valid
    # lanes keep n - j, which is already >= 1
    sse_right = (total_sq - left_sq) - (total_sum - left_sum) ** 2 / np.maximum(n - j, 1)
    totals = np.maximum(sse_left, 0.0) + np.maximum(sse_right, 0.0)
    fmin = np.minimum.reduce(totals, axis=2, where=valid, initial=np.inf)
    # per lane, the lowest threshold among its tied minima (the first
    # candidate when a NaN total leaves none)
    tied = valid & (totals <= (fmin + tol[:, None])[:, :, None])
    first = tied.argmax(axis=2)
    idx = np.where(tied[node, col, first], first, valid.argmax(axis=2))
    has_candidate = np.logical_or.reduce(valid, axis=2)
    cand_sse = totals[node, col, idx]
    lo = np.where(has_candidate, xs[node, col, idx], 0.0)
    hi = np.where(has_candidate, xs[node, col, idx + 1], 0.0)
    threshold = (lo + hi) / 2.0
    # the midpoint of ulp-adjacent values can round up to hi, which would
    # send every row left; snap to lo so the partition stays two-sided
    threshold = np.where(threshold >= hi, lo, threshold)

    # features in ascending order: a later one replaces the best only by a
    # strict improvement beyond the tie band, so on a tie the lower index stands
    found = np.zeros(k, dtype=bool)
    best_sse = np.zeros(k)
    best_col = np.zeros(k, dtype=np.int64)
    for col in range(m):
        take = has_candidate[:, col] & (~found | (cand_sse[:, col] < best_sse - tol))
        best_sse = np.where(take, cand_sse[:, col], best_sse)
        best_col = np.where(take, col, best_col)
        found |= has_candidate[:, col]
    best_sse = np.where(found, best_sse, 0.0)
    split = found & ~(parent - best_sse <= tol)
    at = np.arange(k), best_col
    return np.where(split, subsets[at], LEAF), np.where(split, threshold[at], 0.0), best_sse


def _size_buckets(sizes: np.ndarray) -> list[np.ndarray]:
    """Indices of the nodes grouped by size, bucket j holding sizes in
    (4**(j-1), 4**j], so that padding at most quadruples a bucket's work."""
    bucket = np.searchsorted(4 ** np.arange(32, dtype=np.int64), sizes)
    return [np.flatnonzero(bucket == b) for b in np.unique(bucket).tolist()]


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    rng: np.random.Generator,
) -> Tree:
    """Grow one tree one depth level at a time, as SLIQ and SPRINT do.

    Leaves form when targets are constant, the node is smaller than
    2 * min_samples_leaf, max_depth is reached, or no gaining split exists.
    Each level takes its nodes in breadth-first order, left child before
    right, and draws the feature subsets of the nodes that may split in one
    call: node i of the k such nodes gets the m lowest-ranked of p uniform
    variates in row i of rng.random((k, p)), in ascending feature order.
    Nodes are then bucketed by size (powers of 4) and each bucket is searched
    in one padded pass of `_split_search`. A node's rows keep their ascending
    order, so its split is that of the node searched alone. The levels, laid
    end to end, are the Tree. Depth is bounded by the row count, not by the
    Python stack.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(y) == 0:
        raise DataInsufficientError("cannot grow a tree from zero rows")
    p = X.shape[1]
    m = params.resolved_m_try(p)
    min_split = 2 * params.min_samples_leaf
    max_depth = params.max_depth

    # the open nodes of the current level: their rows, concatenated in
    # breadth-first node order, and each node's row count
    rows = np.arange(len(y))
    sizes = np.array([len(y)])
    # per level: each node's feature (LEAF unless it splits), threshold, value
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    depth = 0
    while sizes.size:
        k = len(sizes)
        starts = np.add.accumulate(sizes) - sizes
        ys = y[rows]
        may_split = (
            (np.minimum.reduceat(ys, starts) != np.maximum.reduceat(ys, starts))
            & (sizes >= min_split)
            & (max_depth is None or depth < max_depth)
        )
        feature = np.full(k, LEAF, dtype=np.int64)
        threshold = np.zeros(k)
        candidates = np.flatnonzero(may_split)
        if candidates.size:
            subsets = np.sort(rng.random((candidates.size, p)).argsort(axis=1)[:, :m], axis=1)
            for bucket in _size_buckets(sizes[candidates]):
                nodes = candidates[bucket]
                n = sizes[nodes]
                offsets = np.minimum(np.arange(n.max()), (n - 1)[:, None])
                feature[nodes], threshold[nodes], _ = _split_search(
                    X, y, rows[starts[nodes][:, None] + offsets], n, subsets[bucket]
                )
        split = feature != LEAF

        # np.mean's arithmetic at a leaf: a pairwise sum, then one division
        # (for one row, the row's value)
        value = np.zeros(k)
        one = ~split & (sizes == 1)
        value[one] = ys[starts[one]]
        many = np.flatnonzero(~split & (sizes > 1))
        value[many] = [
            float(np.add.reduce(ys[a : a + n])) / n
            for a, n in zip(starts[many].tolist(), sizes[many].tolist())
        ]
        levels.append((feature, threshold, value))

        # the next level: each split node's rows, left child's then right
        # child's, each in ascending order (a stable sort by child)
        node_of_row = np.repeat(np.arange(k), sizes)
        kept = split[node_of_row]
        node_of_row, rows = node_of_row[kept], rows[kept]
        goes_right = ~(X[rows, feature[node_of_row]] <= threshold[node_of_row])
        child = 2 * (np.add.accumulate(split) - 1)[node_of_row] + goes_right
        rows = rows[child.argsort(kind="stable")]
        sizes = np.bincount(child, minlength=2 * int(split.sum()))
        depth += 1
    feature, threshold, value = (np.concatenate(column) for column in zip(*levels))
    return Tree(feature=feature, threshold=threshold, value=value)


# a string, so that importing this module does not load numpy.random
Sampler = Callable[[int, "np.random.Generator"], "np.ndarray"]

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
    meanwhile: Callable[[], object] | None = None,
) -> ForestModel:
    """Fit B trees on bootstrap resamples of the feature matrix.

    The trees are grown in a pool of forked worker processes, one per
    available CPU (at most B), and collected in tree order; with one worker
    they are grown in this process. Tree b depends only on stream (seed, b),
    so the model is the same for any worker count.

    `meanwhile`, when given, runs in this process while the workers grow
    trees, or after the trees with one worker. It starts only once every
    worker is forked, so no fork happens while it runs. If it raises, the
    pool is terminated and the exception propagates.

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
        if meanwhile is not None:
            meanwhile()
    else:
        import multiprocessing  # here, so commands that never fit skip its ~7 ms import

        # fork, not spawn: the workers inherit X, y and the sampler (which may
        # be a closure) without pickling, and start in milliseconds instead of
        # re-importing numpy, which costs about as much as a small fit
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers, initializer=_start_worker, initargs=(job,)) as pool:
            pending = pool.map_async(_grow_in_worker, range(params.n_trees), chunksize=1)
            if meanwhile is not None:
                meanwhile()
            trees = pending.get()
    return ForestModel(trees=trees, params=params, feature_count=X.shape[1])


def predict_tree(tree: Tree, x: Sequence[float]) -> float:
    node = 0
    while tree.feature[node] != LEAF:
        goes_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] + (not goes_left)
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
        node[active] = tree.left[at] + ~goes_left
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
    """Write the model as versioned JSON (deterministic bytes): a readable
    header (schema, params, feature_count, each tree's node count), then every
    node of every tree, in tree order, as two base64 strings. `feature` holds
    int8s, LEAF at a leaf; `split_or_value` little-endian float64s, the
    threshold at a split and the value at a leaf. A node uses one of the two
    numbers and the other is 0.0, so one number per node loses nothing."""
    if model.feature_count > _MAX_FEATURES:
        raise ValidationError(
            f"cannot save a forest over {model.feature_count} features: the model file holds at most {_MAX_FEATURES}"
        )
    feature = np.concatenate([t.feature for t in model.trees])
    number = np.where(
        feature != LEAF,
        np.concatenate([t.threshold for t in model.trees]),
        np.concatenate([t.value for t in model.trees]),
    )
    doc = {
        "schema": FOREST_SCHEMA,
        "params": asdict(model.params),
        "feature_count": model.feature_count,
        "node_counts": [t.node_count for t in model.trees],
        "feature": base64.b64encode(feature.astype(np.int8).tobytes()).decode("ascii"),
        "split_or_value": base64.b64encode(number.astype("<f8").tobytes()).decode("ascii"),
    }
    with output_file(path) as fh:
        fh.write(json.dumps(doc, separators=(",", ":")))
        fh.write("\n")


def _node_blob(doc: dict, key: str, dtype: str, count: int) -> np.ndarray:
    """doc[key], the base64 of `count` numbers of dtype, as an array."""
    text = json_value(doc, key, str)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raise ValidationError(f"key {key!r}: invalid base64") from None
    size = count * np.dtype(dtype).itemsize
    if len(raw) != size:
        raise ValidationError(f"key {key!r}: {len(raw)} bytes for {count} nodes, expected {size}")
    return np.frombuffer(raw, dtype=dtype)


def _unpacked_trees(doc: dict, node_counts: list[int], feature_count: int) -> list[Tree]:
    """The trees of a model file, checked so that prediction stays in bounds
    and terminates. Over all nodes at once: every number is finite and every
    split feature is one of the features. Per tree: k splits make 2k + 1
    nodes, so the last one's children, 2k - 1 and 2k, lie inside the tree,
    and each node's children come after it. An error names the tree."""
    total = sum(node_counts)
    feature = _node_blob(doc, "feature", "i1", total).astype(np.int64)
    number = _node_blob(doc, "split_or_value", "<f8", total)
    ends = np.cumsum(node_counts)

    def refuse(bad: np.ndarray, message: str) -> None:
        if bad.any():
            b = int(np.searchsorted(ends, bad.argmax(), side="right"))
            raise ValidationError(f"tree {b}: {message}")

    split = feature != LEAF
    refuse(~np.isfinite(number), "numbers must be finite")
    refuse(split & ((feature < 0) | (feature >= feature_count)), f"split feature out of range for {feature_count} features")
    columns = (feature, np.where(split, number, 0.0), np.where(split, 0.0, number))
    trees = []
    for b, arrays in enumerate(zip(*(np.split(column, ends[:-1]) for column in columns))):
        tree = Tree(*arrays)
        internal = tree.feature != LEAF
        n, k = tree.node_count, int(np.count_nonzero(internal))
        if n != 2 * k + 1:
            raise ValidationError(f"tree {b}: node count {n} is not 2 * {k} internal nodes + 1")
        if not np.all(tree.left[internal] > np.flatnonzero(internal)):
            raise ValidationError(f"tree {b}: child index must come after its node")
        trees.append(tree)
    return trees


def load_forest(path: str | Path) -> ForestModel:
    """Read a model written by save_forest. A file that is not one (bad JSON,
    a missing or mistyped key, node bytes that do not decode, a tree that does
    not hold together) is a ValidationError naming the file."""
    doc = read_json_object(path)
    try:
        schema = doc.get("schema")
        if schema != FOREST_SCHEMA:
            raise ValidationError(f"unsupported model schema {schema!r}")
        feature_count = json_value(doc, "feature_count", int)
        if feature_count < 1:
            raise ValidationError(f"feature_count must be >= 1, got {feature_count}")
        params = json_fields(doc, "params", ForestParams)
        if not json_value(doc, "node_counts", list):
            raise ValidationError("no trees")
        node_counts = json_array(doc, "node_counts", int).tolist()
        for b, n in enumerate(node_counts):
            if n < 1:
                raise ValidationError(f"tree {b}: node count {n} must be >= 1")
        trees = _unpacked_trees(doc, node_counts, feature_count)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return ForestModel(trees=trees, params=params, feature_count=feature_count)
