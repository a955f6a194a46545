"""Random-forest regressor built from first principles.

Bootstrap bagging over B trees, a fresh random feature subset at every node,
exhaustive SSE-optimal splits at midpoints between consecutive distinct
feature values, and mean-of-trees prediction. Every random draw comes from a
per-tree substream derived by hashing (seed, tree index), so a fit is a pure
function of (data, params).
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DataInsufficientError, ValidationError
from .indicators import FeatureMatrix
from .ingest import output_file

FOREST_SCHEMA = "forest-model/1"

# Candidate totals within this relative band of the best are treated as tied
# and broken by (feature index, threshold). The band is scaled by the node's
# sum of squares: mathematically identical partitions reached through
# different sort orders can disagree in the last ulp, and a raw < comparison
# would turn those ties into coin flips.
_TIE_REL = 1e-12


@dataclass
class TreeNode:
    """Internal node (feature/threshold/left/right) or leaf (value)."""

    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.value is not None


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
    trees: list[TreeNode]
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
    if n < 2:
        return None

    sq_sum = float(np.dot(y, y))
    tol = _sse_tolerance(sq_sum)
    parent = max(sq_sum - float(np.sum(y)) ** 2 / n, 0.0)

    best: tuple[float, int, float] | None = None  # (children_sse, feature, threshold)
    for f in sorted(int(v) for v in feature_subset):
        if not 0 <= f < X.shape[1]:
            raise ValidationError(f"feature index {f} out of range for p={X.shape[1]}")
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        k = np.nonzero(xs[1:] > xs[:-1])[0] + 1  # candidate left-side sizes
        if k.size == 0:
            continue
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        left_sum, left_sq = csum[k - 1], csq[k - 1]
        sse_left = left_sq - left_sum**2 / k
        sse_right = (csq[-1] - left_sq) - (csum[-1] - left_sum) ** 2 / (n - k)
        totals = np.maximum(sse_left, 0.0) + np.maximum(sse_right, 0.0)
        fmin = float(np.min(totals))
        # lowest threshold among this feature's tied minima
        idx = int(np.argmax(totals <= fmin + tol))
        cand_sse = float(totals[idx])
        lo, hi = float(xs[k[idx] - 1]), float(xs[k[idx]])
        threshold = (lo + hi) / 2.0
        # the midpoint of ulp-adjacent values can round up to hi, which would
        # send every row left; snap to lo so the partition stays two-sided
        if threshold >= hi:
            threshold = lo
        # strict improvement beyond the tie band; on a tie the earlier
        # (lower-index) feature stands
        if best is None or cand_sse < best[0] - tol:
            best = (cand_sse, f, threshold)

    if best is None:
        return None
    if parent - best[0] <= tol:
        return None
    return best[1], best[2], best[0]


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    rng: np.random.Generator,
    depth: int = 0,
) -> TreeNode:
    """Recursively grow one tree; preorder traversal, left child first.

    Leaves form when targets are constant, the node is smaller than
    2 * min_samples_leaf, max_depth is reached, or no gaining split exists.
    The feature subset is redrawn from rng at every internal node.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n == 0:
        raise DataInsufficientError("cannot grow a tree from zero rows")
    if (
        float(np.min(y)) == float(np.max(y))
        or n < 2 * params.min_samples_leaf
        or (params.max_depth is not None and depth >= params.max_depth)
    ):
        return TreeNode(value=float(np.mean(y)))

    p = X.shape[1]
    m = params.resolved_m_try(p)
    subset = np.sort(rng.choice(p, size=m, replace=False))
    found = best_split(X, y, subset)
    if found is None:
        return TreeNode(value=float(np.mean(y)))

    feature, threshold, _ = found
    mask = X[:, feature] <= threshold
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=grow_tree(X[mask], y[mask], params, rng, depth + 1),
        right=grow_tree(X[~mask], y[~mask], params, rng, depth + 1),
    )


Sampler = Callable[[int, np.random.Generator], np.ndarray]


def fit_forest(
    features: FeatureMatrix,
    params: ForestParams,
    sampler: Sampler | None = None,
) -> ForestModel:
    """Fit B trees on bootstrap resamples of the feature matrix.

    `sampler` is a test hook replacing the bootstrap draw (e.g. identity
    indices); it receives (n, rng) and must return row indices.
    """
    X = features.feature_array()
    y = features.target_array()
    n = len(y)
    if n == 0:
        raise DataInsufficientError("cannot fit a forest on an empty feature matrix")
    draw = sampler if sampler is not None else bootstrap_sample
    trees = []
    for b in range(params.n_trees):
        rng = tree_rng(params.seed, b)
        idx = np.asarray(draw(n, rng))
        trees.append(grow_tree(X[idx], y[idx], params, rng))
    return ForestModel(trees=trees, params=params, feature_count=X.shape[1])


def predict_tree(node: TreeNode, x: Sequence[float]) -> float:
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.value


def predict_forest(model: ForestModel, x: Sequence[float]) -> float:
    """Mean of the per-tree predictions (summed sequentially)."""
    if len(x) != model.feature_count:
        raise ValidationError(
            f"expected {model.feature_count} features, got {len(x)}"
        )
    total = 0.0
    for tree in model.trees:
        total += predict_tree(tree, x)
    return total / len(model.trees)


def predict_matrix(model: ForestModel, features: FeatureMatrix) -> np.ndarray:
    """predict_forest applied to every row of a feature matrix."""
    X = features.feature_array()
    return np.array([predict_forest(model, row) for row in X], dtype=float)


def _tree_to_nodes(root: TreeNode) -> list[dict]:
    """Flatten a tree to an index-linked preorder node list (no recursion)."""
    nodes: list[dict] = []
    stack: list[tuple[TreeNode, int, str]] = [(root, -1, "")]
    while stack:
        node, parent, side = stack.pop()
        idx = len(nodes)
        if parent >= 0:
            nodes[parent][side] = idx
        if node.is_leaf:
            nodes.append({"value": node.value})
        else:
            nodes.append({"feature": node.feature, "threshold": node.threshold, "left": -1, "right": -1})
            stack.append((node.right, idx, "right"))
            stack.append((node.left, idx, "left"))
    return nodes


def _nodes_to_tree(nodes: list[dict]) -> TreeNode:
    objs = [
        TreeNode(value=nd["value"])
        if "value" in nd
        else TreeNode(feature=nd["feature"], threshold=nd["threshold"])
        for nd in nodes
    ]
    for nd, obj in zip(nodes, objs):
        if "value" not in nd:
            obj.left = objs[nd["left"]]
            obj.right = objs[nd["right"]]
    return objs[0]


def save_forest(model: ForestModel, path: str | Path) -> None:
    """Write the model as versioned, self-describing JSON (deterministic bytes)."""
    doc = {
        "schema": FOREST_SCHEMA,
        "feature_count": model.feature_count,
        "params": asdict(model.params),
        "trees": [_tree_to_nodes(t) for t in model.trees],
    }
    with output_file(path) as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_forest(path: str | Path) -> ForestModel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != FOREST_SCHEMA:
        raise ValidationError(f"unsupported model schema {doc.get('schema')!r}")
    params = ForestParams(**doc["params"])
    trees = [_nodes_to_tree(nodes) for nodes in doc["trees"]]
    return ForestModel(trees=trees, params=params, feature_count=doc["feature_count"])
