"""Independent brute-force reference implementations used by the tests.

Each function evaluates the defining formula directly at one index (or grows
one tree exhaustively), with no code shared with the package. Indicator
oracles use the same left-to-right arithmetic order as a plain reading of the
formula, so equality against the package is exact, not approximate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import pytest


def oracle_sma(prices: Sequence[float], t: int, n: int) -> float:
    acc = 0.0
    for j in range(t - n + 1, t + 1):
        acc += prices[j]
    return acc / n


def oracle_wma(prices: Sequence[float], t: int, n: int) -> float:
    acc = 0.0
    weight = 0
    for i, j in enumerate(range(t - n + 1, t + 1), start=1):
        acc += i * prices[j]
        weight += i
    return acc / weight


def oracle_momentum(prices: Sequence[float], t: int, n: int) -> float:
    return prices[t] - prices[t - n]


def oracle_k(prices: Sequence[float], t: int, n: int) -> float:
    window = prices[t - n + 1 : t + 1]
    hi = max(window)
    lo = min(window)
    if hi == lo:
        return 50.0
    return 100.0 * ((prices[t] - lo) / (hi - lo))


def oracle_d(prices: Sequence[float], t: int, n: int, m: int) -> float:
    acc = 0.0
    for j in range(t - m + 1, t + 1):
        acc += oracle_k(prices, j, n)
    return acc / m


def oracle_rsi(prices: Sequence[float], t: int, n: int) -> float:
    gain = 0.0
    loss = 0.0
    for j in range(t - n + 1, t + 1):
        d = prices[j] - prices[j - 1]
        if d > 0:
            gain += d
        elif d < 0:
            loss += -d
    avg_gain = gain / n
    avg_loss = loss / n
    if avg_loss == 0.0 and avg_gain == 0.0:
        return 50.0
    if avg_loss == 0.0:
        return 100.0
    rs = avg_gain / avg_loss
    return 100.0 - 100.0 / (1.0 + rs)


# --- exhaustive regression tree, grown with the same frozen tie rules ------
#
# Rules shared with the package (and nothing else):
#   candidates  boundaries between consecutive distinct sorted feature values
#   threshold   midpoint of the two values, snapped down to the lower one if
#               rounding reaches the upper
#   tie band    tol = 1e-12 * (sum(y^2) + 1); within a feature take the lowest
#               threshold whose children SSE is within tol of the minimum;
#               across features (ascending index) replace only on an
#               improvement greater than tol
#   no gain     reject the split if it beats the parent SSE by at most tol
# SSE here is the naive two-pass formula, not the package's cumulative one.


@dataclass
class NaiveNode:
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["NaiveNode"] = None
    right: Optional["NaiveNode"] = None
    value: Optional[float] = None


def _naive_sse(ys: list[float]) -> float:
    mean = sum(ys) / len(ys)
    return sum((v - mean) ** 2 for v in ys)


def naive_best_split(
    X: list[list[float]], y: list[float]
) -> Optional[tuple[int, float, float]]:
    n = len(y)
    if n < 2:
        return None
    tol = 1e-12 * (sum(v * v for v in y) + 1.0)
    parent = _naive_sse(y)
    best: Optional[tuple[float, int, float]] = None
    p = len(X[0])
    for f in range(p):
        pairs = sorted(zip((row[f] for row in X), y), key=lambda pr: pr[0])
        xs = [pr[0] for pr in pairs]
        ys = [pr[1] for pr in pairs]
        cands: list[tuple[float, float]] = []  # (children_sse, threshold) ascending
        for k in range(1, n):
            if xs[k] <= xs[k - 1]:
                continue
            total = _naive_sse(ys[:k]) + _naive_sse(ys[k:])
            threshold = (xs[k - 1] + xs[k]) / 2.0
            if threshold >= xs[k]:
                threshold = xs[k - 1]
            cands.append((total, threshold))
        if not cands:
            continue
        fmin = min(total for total, _ in cands)
        total, threshold = next(c for c in cands if c[0] <= fmin + tol)
        if best is None or total < best[0] - tol:
            best = (total, f, threshold)
    if best is None or parent - best[0] <= tol:
        return None
    return best[1], best[2], best[0]


def naive_grow(
    X: list[list[float]],
    y: list[float],
    max_depth: Optional[int],
    min_samples_leaf: int = 1,
    depth: int = 0,
) -> NaiveNode:
    if min(y) == max(y) or len(y) < 2 * min_samples_leaf or (
        max_depth is not None and depth >= max_depth
    ):
        return NaiveNode(value=sum(y) / len(y))
    found = naive_best_split(X, y)
    if found is None:
        return NaiveNode(value=sum(y) / len(y))
    f, thr, _ = found
    lx, ly, rx, ry = [], [], [], []
    for row, target in zip(X, y):
        if row[f] <= thr:
            lx.append(row)
            ly.append(target)
        else:
            rx.append(row)
            ry.append(target)
    return NaiveNode(
        feature=f,
        threshold=thr,
        left=naive_grow(lx, ly, max_depth, min_samples_leaf, depth + 1),
        right=naive_grow(rx, ry, max_depth, min_samples_leaf, depth + 1),
    )


def naive_predict(node: NaiveNode, x: Sequence[float]) -> float:
    while node.value is None:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.value


def same_tree(tree, naive: NaiveNode) -> bool:
    """Walk a package tree's level-order arrays against the oracle's node
    graph: same topology and split features, thresholds bitwise, leaves to
    rel 1e-12, and every array node reached exactly once. A leaf has feature
    -1; internal node i's children are left[i] and left[i] + 1."""
    stack = [(0, naive)]
    reached = []
    while stack:
        i, node = stack.pop()
        reached.append(i)
        if (tree.feature[i] == -1) != (node.value is not None):
            return False
        if node.value is not None:
            if node.value != pytest.approx(tree.value[i], rel=1e-12, abs=1e-15):
                return False
            continue
        if tree.feature[i] != node.feature or tree.threshold[i] != node.threshold:
            return False
        stack.append((tree.left[i] + 1, node.right))
        stack.append((tree.left[i], node.left))
    return sorted(reached) == list(range(tree.node_count))
