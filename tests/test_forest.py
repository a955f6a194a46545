"""Regression forest: split search vs brute force, bootstrap, determinism."""
import base64
import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest

from surplusminer.errors import DataInsufficientError, ValidationError
from surplusminer import forest
from surplusminer.forest import (
    LEAF,
    ForestModel,
    ForestParams,
    Tree,
    best_split,
    bootstrap_sample,
    fit_forest,
    grow_tree,
    load_forest,
    predict_forest,
    predict_matrix,
    predict_tree,
    save_forest,
    tree_rng,
)
from surplusminer.indicators import build_features
from surplusminer.ingest import parse_market_csv

from conftest import DATA_DIR, decode_nodes, encode_nodes, make_series
from oracles import naive_best_split, naive_grow, naive_predict, same_tree


def random_matrix(n_days=80, seed=0):
    rng = np.random.default_rng(seed)
    prices = list(np.exp(rng.normal(np.log(30000.0), 0.25, size=n_days)))
    return build_features(make_series(prices))


def chain_tree(depth):
    """A hand-built flat chain: at level k, x <= k + 0.5 goes to a leaf of
    value k, anything larger one level down; the last leaf holds `depth`.
    Each level is the pair (leaf, next split), so the nodes are in level order."""
    feature, threshold, value = [], [], []
    for level in range(depth):
        feature += [0, LEAF]
        threshold += [level + 0.5, 0.0]
        value += [0.0, float(level)]
    feature.append(LEAF)
    threshold.append(0.0)
    value.append(float(depth))
    return Tree(feature=np.array(feature), threshold=np.array(threshold), value=np.array(value))


class TestBestSplit:
    def test_clean_separation(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.0, 1.0, 5.0, 5.0])
        feature, threshold, children_sse = best_split(X, y, [0])
        assert feature == 0
        assert threshold == 2.5
        assert children_sse == 0.0

    def test_no_distinct_values(self):
        X = np.ones((4, 2))
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert best_split(X, y, [0, 1]) is None

    def test_no_gain_rejected(self):
        # constant target: any split leaves SSE at 0 = parent, no gain
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([7.0, 7.0, 7.0])
        assert best_split(X, y, [0]) is None

    def test_single_row(self):
        assert best_split(np.array([[1.0]]), np.array([2.0]), [0]) is None

    def test_tie_prefers_lower_feature_then_threshold(self):
        # two identical columns: identical best SSE, feature 0 must win
        col = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([col, col])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        feature, threshold, _ = best_split(X, y, [0, 1])
        assert feature == 0
        assert threshold == 2.5

    def test_adjacent_float_values_still_split_two_ways(self):
        lo = 1.0
        hi = math.nextafter(lo, 2.0)
        X = np.array([[lo], [lo], [hi], [hi]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        feature, threshold, _ = best_split(X, y, [0])
        assert feature == 0
        mask = X[:, 0] <= threshold
        assert mask.sum() == 2

    def test_midpoint_rounding_up_snaps_to_the_lower_value(self):
        """With an odd last mantissa bit on lo, (lo + hi) / 2 rounds to hi
        itself, which would send every row left."""
        lo = math.nextafter(1.0, 2.0)
        hi = math.nextafter(lo, 2.0)
        assert (lo + hi) / 2.0 == hi
        X = np.array([[lo], [lo], [hi], [hi]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        feature, threshold, _ = best_split(X, y, [0])
        assert (feature, threshold) == (0, lo)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(99)
        for trial in range(300):
            n = int(rng.integers(2, 14))
            p = int(rng.integers(1, 4))
            X = rng.normal(0.0, 1.0, size=(n, p))
            if rng.random() < 0.3:
                X = np.round(X)  # force duplicate values
            y = rng.normal(0.0, 5.0, size=n)
            got = best_split(X, y, list(range(p)))
            want = naive_best_split([list(row) for row in X], list(y))
            if want is None:
                assert got is None, f"trial {trial}"
            else:
                assert got is not None, f"trial {trial}"
                assert got[0] == want[0], f"trial {trial}"
                assert got[1] == want[1], f"trial {trial}"
                assert got[2] == pytest.approx(want[2], rel=1e-9, abs=1e-12)


class TestGrowTree:
    def test_structure_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(1234)
        params = ForestParams(n_trees=1, m_try=3, max_depth=2, seed=0)
        for trial in range(60):
            n = int(rng.integers(2, 13))
            X = rng.normal(0.0, 1.0, size=(n, 3))
            y = rng.normal(0.0, 5.0, size=n)
            node = grow_tree(X, y, params, tree_rng(0, trial))
            naive = naive_grow([list(r) for r in X], list(y), max_depth=2)
            assert same_tree(node, naive), f"trial {trial}"

    def test_training_sse_matches_oracle(self):
        rng = np.random.default_rng(4321)
        params = ForestParams(n_trees=1, m_try=2, max_depth=2, seed=0)
        for trial in range(40):
            n = int(rng.integers(4, 13))
            X = rng.normal(0.0, 1.0, size=(n, 2))
            y = rng.normal(0.0, 5.0, size=n)
            node = grow_tree(X, y, params, tree_rng(0, trial))
            naive = naive_grow([list(r) for r in X], list(y), max_depth=2)
            sse = sum((predict_tree(node, row) - t) ** 2 for row, t in zip(X, y))
            naive_sse = sum((naive_predict(naive, row) - t) ** 2 for row, t in zip(X, y))
            assert sse == pytest.approx(naive_sse, rel=1e-9, abs=1e-12)

    def test_full_depth_tree_matches_exhaustive_oracle(self):
        """A whole tree, grown to purity on 200 rows with every feature tried
        at each node: bootstrap-style duplicated rows, and two of the three
        columns full of tied values."""
        rng = np.random.default_rng(2024)
        base_n = 120
        base = np.column_stack([
            rng.integers(0, 8, size=base_n).astype(float),
            rng.normal(0.0, 1.0, size=base_n),
            np.round(rng.normal(0.0, 1.0, size=base_n), 1),
        ])
        base_y = np.round(rng.normal(0.0, 5.0, size=base_n), 1)
        idx = rng.integers(0, base_n, size=200)
        X, y = base[idx], base_y[idx]
        tree = grow_tree(X, y, ForestParams(n_trees=1, m_try=3), tree_rng(0, 0))
        naive = naive_grow([list(r) for r in X], list(y), max_depth=None)
        assert same_tree(tree, naive)
        assert tree.node_count > 100

    def test_every_node_is_its_rows_searched_alone(self):
        """Level-wise growth must not change a node's arithmetic: each split is
        best_split on the node's rows in ascending order, and each leaf value
        is np.mean of them, bit for bit."""
        rng = np.random.default_rng(31)
        n, p = 300, 3
        X = np.round(rng.normal(0.0, 1.0, size=(n, p)), 2)
        y = rng.normal(0.0, 5.0, size=n)
        tree = grow_tree(X, y, ForestParams(n_trees=1, m_try=p, max_depth=4), tree_rng(0, 0))
        stack = [(0, np.arange(n))]
        while stack:
            i, rows = stack.pop()
            if tree.feature[i] == LEAF:
                assert tree.value[i] == float(np.mean(y[rows])), i
                continue
            f, thr, _ = best_split(X[rows], y[rows], range(p))
            assert (tree.feature[i], tree.threshold[i]) == (f, thr), i
            mask = X[rows, f] <= thr
            stack.append((tree.left[i] + 1, rows[~mask]))
            stack.append((tree.left[i], rows[mask]))

    def test_max_depth_zero_is_a_stump(self):
        params = ForestParams(n_trees=1, m_try=1, max_depth=0)
        X = np.array([[1.0], [2.0]])
        y = np.array([1.0, 2.0])
        tree = grow_tree(X, y, params, tree_rng(0, 0))
        assert tree.node_count == 1
        assert tree.feature[0] == LEAF
        assert tree.value[0] == 1.5

    def test_min_samples_leaf_gates_splitting(self):
        """Nodes smaller than 2 * min_samples_leaf must never split."""
        params = ForestParams(n_trees=1, m_try=1, min_samples_leaf=3)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(10, 1))
        y = rng.normal(size=10)
        tree = grow_tree(X, y, params, tree_rng(0, 0))

        stack = [(0, X)]
        while stack:
            i, rows = stack.pop()
            if tree.feature[i] == LEAF:
                continue
            assert len(rows) >= 2 * 3
            mask = rows[:, tree.feature[i]] <= tree.threshold[i]
            stack.append((tree.left[i], rows[mask]))
            stack.append((tree.left[i] + 1, rows[~mask]))

    def test_grows_a_chain_deeper_than_the_recursion_limit(self):
        """Targets growing by a factor of 3 make the exhaustive tree a chain:
        every split peels the largest row off into a right leaf. Grown under a
        recursion limit below its depth, it must still come out whole."""
        n = 300
        X = np.arange(n, dtype=float).reshape(-1, 1)
        y = 3.0 ** np.arange(n)
        params = ForestParams(n_trees=1, m_try=1, seed=0)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            tree = grow_tree(X, y, params, tree_rng(0, 0))
        finally:
            sys.setrecursionlimit(limit)

        assert tree.node_count == 2 * n - 1
        internal = np.flatnonzero(tree.feature != LEAF)
        # the chain runs down the left children, one level per row: each
        # level below the root is the pair (split, right leaf)
        assert internal.tolist() == [0] + list(range(1, 2 * n - 4, 2))
        assert tree.threshold[internal].tolist() == [n - 1.5 - k for k in range(n - 1)]
        assert [tree.value[tree.left[i] + 1] for i in internal] == y[::-1][: n - 1].tolist()
        assert tree.value[tree.left[internal[-1]]] == y[0]
        assert [predict_tree(tree, row) for row in X] == y.tolist()

    def test_memorizes_distinct_rows_without_bootstrap(self):
        matrix = random_matrix(n_days=50, seed=8)
        params = ForestParams(n_trees=3, m_try=2, seed=1)
        identity = lambda n, rng: np.arange(n)
        model = fit_forest(matrix, params, sampler=identity)
        preds = predict_matrix(model, matrix)
        assert preds == pytest.approx(matrix.target_array(), rel=1e-12)


class TestBootstrap:
    def test_sample_shape_and_range(self):
        rng = tree_rng(0, 0)
        idx = bootstrap_sample(100, rng)
        assert idx.shape == (100,)
        assert idx.min() >= 0
        assert idx.max() < 100

    def test_distinct_fraction_near_632(self):
        n = 2000
        fractions = []
        for b in range(200):
            idx = bootstrap_sample(n, tree_rng(7, b))
            fractions.append(len(np.unique(idx)) / n)
        assert np.mean(fractions) == pytest.approx(1.0 - 1.0 / math.e, abs=0.02)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            bootstrap_sample(0, tree_rng(0, 0))


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        matrix = random_matrix(seed=2)
        params = ForestParams(n_trees=8, seed=11)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_forest(fit_forest(matrix, params), a)
        save_forest(fit_forest(matrix, params), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self):
        matrix = random_matrix(seed=2)
        m1 = fit_forest(matrix, ForestParams(n_trees=4, seed=1))
        m2 = fit_forest(matrix, ForestParams(n_trees=4, seed=2))
        assert predict_matrix(m1, matrix) != pytest.approx(predict_matrix(m2, matrix))

    def test_tree_streams_independent_of_count(self):
        """Tree b is the same whether 4 or 8 trees are grown."""
        matrix = random_matrix(seed=3)
        small = fit_forest(matrix, ForestParams(n_trees=4, seed=5))
        large = fit_forest(matrix, ForestParams(n_trees=8, seed=5))
        x = matrix.feature_array()[0]
        for b in range(4):
            assert predict_tree(small.trees[b], x) == predict_tree(large.trees[b], x)

    def test_monotone_feature_transform_keeps_predictions(self):
        """Splits depend only on feature order, so a strictly increasing
        transform of a column must not change any prediction."""
        rng = np.random.default_rng(21)
        n = 40
        X = rng.normal(0.0, 1.0, size=(n, 2))
        y = rng.normal(0.0, 5.0, size=n)
        params = ForestParams(n_trees=1, m_try=2, seed=9)
        node = grow_tree(X, y, params, tree_rng(9, 0))

        X2 = X.copy()
        X2[:, 0] = np.exp(X2[:, 0])
        node2 = grow_tree(X2, y, params, tree_rng(9, 0))
        for row, row2 in zip(X, X2):
            assert predict_tree(node, row) == predict_tree(node2, row2)


class TestDraws:
    """Each level draws the feature subsets of its splittable nodes in one
    call; the split arithmetic itself does not depend on the draw."""

    def test_full_feature_fit_matches_recorded_digest(self, tmp_path):
        """With m_try = p every node searches every feature, so the order of
        the subset draws cannot matter: only a change in the split arithmetic,
        the tie rules or the file format can change these bytes. The trees
        are node for node those of the preorder stack grower that the
        level-wise grower replaced. The digest is of the forest-model/5
        file, recorded after the trees loaded from it matched those loaded
        from the forest-model/4 file array for array, bit for bit; that file
        had in turn matched the forest-model/3 file node for node."""
        matrix = build_features(parse_market_csv(DATA_DIR / "market.csv"))
        assert matrix.feature_count == 6
        path = tmp_path / "m.json"
        save_forest(fit_forest(matrix, ForestParams(n_trees=5, m_try=6, seed=1)), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "bdef3c768b4bf99da15c72b48505dd6f150b4c38badf83d48b61133f5ec5447d"

    def test_split_features_in_range(self):
        matrix = random_matrix(seed=5)
        p = matrix.feature_count
        model = fit_forest(matrix, ForestParams(n_trees=10, m_try=2, seed=4))
        for tree in model.trees:
            split = tree.feature[tree.feature != LEAF]
            assert split.size
            assert np.all((split >= 0) & (split < p))

    def test_single_feature_draw_is_uniform(self):
        """m_try=1 on a target that every feature explains: each split uses
        the one drawn feature, so split features are near uniform. A draw
        that favoured the first columns would fail here."""
        rng = np.random.default_rng(17)
        n, p = 200, 6
        X = rng.random((n, p))
        y = X.sum(axis=1)
        params = ForestParams(n_trees=1, m_try=1)
        trees = [grow_tree(X, y, params, tree_rng(3, b)) for b in range(50)]
        split = np.concatenate([t.feature[t.feature != LEAF] for t in trees])
        freq = np.bincount(split, minlength=p) / split.size
        assert split.size > 1000
        assert np.all(np.abs(freq - 1.0 / p) <= 0.05), freq


class TestWorkers:
    """fit_forest grows trees in one forked worker per available CPU; the
    model must not depend on how many there are."""

    def test_worker_count_does_not_change_the_model(self, tmp_path, monkeypatch):
        matrix = random_matrix(seed=6)
        params = ForestParams(n_trees=5, seed=2)
        saved, predicted = {}, {}
        for cpus in (1, 2):
            monkeypatch.setattr(forest, "_available_cpus", lambda: cpus)
            model = fit_forest(matrix, params)
            path = tmp_path / f"{cpus}.json"
            save_forest(model, path)
            saved[cpus] = path.read_bytes()
            predicted[cpus] = predict_matrix(model, matrix).tobytes()
        assert saved[1] == saved[2]
        assert predicted[1] == predicted[2]

    def test_sampler_reaches_the_workers(self, tmp_path, monkeypatch):
        """The test hook runs in the worker processes: it logs their pids,
        and its identity draw makes the forest memorize the rows."""
        log = tmp_path / "pids"

        def identity(n, rng):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return np.arange(n)

        monkeypatch.setattr(forest, "_available_cpus", lambda: 2)
        matrix = random_matrix(n_days=50, seed=8)
        model = fit_forest(matrix, ForestParams(n_trees=3, m_try=2, seed=1), sampler=identity)
        pids = log.read_text().split()
        assert len(pids) == 3
        assert str(os.getpid()) not in pids
        assert predict_matrix(model, matrix) == pytest.approx(matrix.target_array(), rel=1e-12)


def assert_same_arrays(got: Tree, want: Tree):
    """Bit for bit the same arrays, dtype included (-0.0 differs from 0.0)."""
    for name in ("feature", "threshold", "value"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


class TestSerialization:
    def test_round_trip_predictions_bitwise(self, tmp_path):
        matrix = random_matrix(seed=13)
        model = fit_forest(matrix, ForestParams(n_trees=5, seed=3))
        path = tmp_path / "m.json"
        save_forest(model, path)
        loaded = load_forest(path)
        assert np.array_equal(predict_matrix(loaded, matrix), predict_matrix(model, matrix))
        assert loaded.feature_count == model.feature_count
        assert loaded.params == model.params
        assert len(loaded.trees) == len(model.trees)
        for got, want in zip(loaded.trees, model.trees):
            assert_same_arrays(got, want)

    def test_schema_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something-else/9", "trees": []}))
        with pytest.raises(ValidationError):
            load_forest(path)

    def test_deep_chain_tree_round_trip(self, tmp_path):
        """The flat encoding must survive depth far beyond the Python
        recursion limit; the chain is built by hand to force it."""
        depth = sys.getrecursionlimit() + 500
        tree = chain_tree(depth)
        # a split and a leaf whose number is -0.0, which the file must keep
        tree.threshold[0] = tree.value[1] = -0.0
        params = ForestParams(n_trees=1, m_try=1, seed=0)
        model = ForestModel(trees=[tree], params=params, feature_count=1)
        path = tmp_path / "deep.json"
        save_forest(model, path)
        loaded = load_forest(path)
        assert_same_arrays(loaded.trees[0], tree)
        assert math.copysign(1.0, loaded.trees[0].threshold[0]) == -1.0
        assert math.copysign(1.0, loaded.trees[0].value[1]) == -1.0
        # x = k + 0.2 descends k levels right, then one left, to leaf value k
        for x in (0.0, 7.2, float(depth - 1) + 0.2, float(depth) + 5.0):
            assert predict_tree(loaded.trees[0], [x]) == predict_tree(tree, [x])
            assert predict_forest(loaded, [x]) == predict_tree(tree, [x])
        assert predict_tree(loaded.trees[0], [7.2]) == 7.0
        assert predict_forest(loaded, [float(depth) + 5.0]) == float(depth)


def _saved_model_doc(tmp_path):
    """A small fitted model's JSON document, to be edited into a bad file."""
    path = tmp_path / "m.json"
    save_forest(fit_forest(random_matrix(seed=4), ForestParams(n_trees=2, seed=1)), path)
    return json.loads(path.read_text())


def _write(tmp_path, doc):
    path = tmp_path / "forest_model.json"
    path.write_text(json.dumps(doc))
    return path


def _edited_nodes(tmp_path, edit):
    """A saved model file whose decoded trees went through edit(trees)."""
    doc = _saved_model_doc(tmp_path)
    trees = decode_nodes(doc)
    edit(trees)
    encode_nodes(doc, trees)
    return _write(tmp_path, doc)


def _move_last_split(tree, to):
    last = max(i for i, f in enumerate(tree["feature"]) if f != LEAF)
    tree["feature"][last], tree["feature"][to] = LEAF, tree["feature"][last]


def _leaf_made_a_split(tree):
    tree["feature"][tree["feature"].index(LEAF)] = 0


def _last_node_dropped(tree):
    for name in ("feature", "split_or_value"):
        tree[name].pop()


# Each case is named for where it puts the left child of the last split: far
# past the end, on the last node (so the right child is past the end), on the
# split's own node, or before it.
_CHILD_OUT_OF_ORDER = {
    "left-99999": (_leaf_made_a_split, "node count"),
    "left-last": (_last_node_dropped, "node count"),
    "left-0": (lambda tree: _move_last_split(tree, -2), "child index"),
    "left--1": (lambda tree: _move_last_split(tree, -1), "child index"),
}

# the key of the blob that stores each column of a Tree
_BLOB = {"feature": "feature", "threshold": "split_or_value", "value": "split_or_value"}


class TestHostileModelFiles:
    """Every malformed model file is a ValidationError naming the file and
    the fault, never a crash or a prediction that does not terminate."""

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "m.json"
        save_forest(fit_forest(random_matrix(seed=4), ForestParams(n_trees=2, seed=1)), path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ValidationError, match=r"m\.json: invalid JSON"):
            load_forest(path)

    def test_missing_key(self, tmp_path):
        doc = _saved_model_doc(tmp_path)
        del doc["split_or_value"]
        with pytest.raises(ValidationError, match=r"forest_model\.json: missing key 'split_or_value'"):
            load_forest(_write(tmp_path, doc))

    @pytest.mark.parametrize(
        "key, bad", [("feature", 1.0), ("threshold", "0.5"), ("value", None), ("feature", [1]), ("feature", True)]
    )
    def test_mistyped_array_element(self, tmp_path, key, bad):
        """The blob that stores `key` holds something other than a base64
        string ("0.5" is a string, but not base64)."""
        doc = _saved_model_doc(tmp_path)
        doc[_BLOB[key]] = bad
        with pytest.raises(ValidationError, match=rf"forest_model\.json: key '{_BLOB[key]}'"):
            load_forest(_write(tmp_path, doc))

    def test_mistyped_feature_count(self, tmp_path):
        doc = _saved_model_doc(tmp_path)
        doc["feature_count"] = "6"
        with pytest.raises(ValidationError, match=r"forest_model\.json: key 'feature_count'"):
            load_forest(_write(tmp_path, doc))

    def test_unequal_array_lengths(self, tmp_path):
        """One number fewer than `feature` has nodes: the float blob is 8
        bytes short of 8 * sum(node_counts)."""
        path = _edited_nodes(tmp_path, lambda trees: trees[0]["split_or_value"].pop())
        with pytest.raises(ValidationError, match=r"forest_model\.json: key 'split_or_value': .*bytes for"):
            load_forest(path)

    @pytest.mark.parametrize("case", list(_CHILD_OUT_OF_ORDER))
    def test_child_index_out_of_order(self, tmp_path, case):
        """Children are derived from `feature`: the j-th split's are nodes
        2j + 1 and 2j + 2. A child past the end would index out of bounds; one
        at or before its node could make prediction loop forever."""
        corrupt, message = _CHILD_OUT_OF_ORDER[case]

        def edit(trees):
            assert trees[0]["feature"][0] != LEAF
            corrupt(trees[0])

        with pytest.raises(ValidationError, match=rf"forest_model\.json: tree 0: {message}"):
            load_forest(_edited_nodes(tmp_path, edit))

    @pytest.mark.parametrize("feature", [6, -2])
    def test_split_feature_out_of_range(self, tmp_path, feature):
        """On the last node of tree 0, the node just before tree 1's first."""
        path = _edited_nodes(tmp_path, lambda trees: trees[0]["feature"].__setitem__(-1, feature))
        with pytest.raises(ValidationError, match=r"forest_model\.json: tree 0: split feature out of range"):
            load_forest(path)

    @pytest.mark.parametrize("key", ["threshold", "value"])
    def test_non_finite_number(self, tmp_path, key):
        """NaN as a split's threshold (tree 1's first node) or a leaf's value
        (its last node, the last in the file)."""
        at = 0 if key == "threshold" else -1
        path = _edited_nodes(tmp_path, lambda trees: trees[1]["split_or_value"].__setitem__(at, float("nan")))
        with pytest.raises(ValidationError, match=r"forest_model\.json: tree 1: .*finite"):
            load_forest(path)

    @pytest.mark.parametrize("key", ["feature", "split_or_value"])
    @pytest.mark.parametrize(
        "insert", ["*", "\n", "=", "À"], ids=["bad-char", "newline", "inner-pad", "non-ascii"]
    )
    def test_invalid_base64(self, tmp_path, key, insert):
        """One character put into a valid string: a lax decoder would skip
        the first two and still read every node."""
        doc = _saved_model_doc(tmp_path)
        doc[key] = doc[key][:4] + insert + doc[key][4:]
        with pytest.raises(ValidationError, match=rf"forest_model\.json: key '{key}': invalid base64"):
            load_forest(_write(tmp_path, doc))

    def test_float_blob_not_a_multiple_of_8_bytes(self, tmp_path):
        doc = _saved_model_doc(tmp_path)
        raw = base64.b64decode(doc["split_or_value"])
        doc["split_or_value"] = base64.b64encode(raw + b"\0\0\0").decode()
        with pytest.raises(ValidationError, match=r"forest_model\.json: key 'split_or_value': .*bytes for"):
            load_forest(_write(tmp_path, doc))

    @pytest.mark.parametrize("change", [1, -1], ids=["one-more", "one-fewer"])
    def test_node_counts_not_summing_to_the_blob(self, tmp_path, change):
        doc = _saved_model_doc(tmp_path)
        doc["node_counts"][1] += change
        with pytest.raises(ValidationError, match=r"forest_model\.json: key 'feature': .*bytes for"):
            load_forest(_write(tmp_path, doc))

    @pytest.mark.parametrize(
        "counts, message",
        [
            ([], "no trees"),
            ([0, 1], "tree 0: node count 0 must be >= 1"),
            ([-5, 10], "tree 0: node count -5 must be >= 1"),
            ([1.0, 2], "key 'node_counts'"),
            ("1", "key 'node_counts'"),
        ],
        ids=["empty", "zero", "negative", "float", "string"],
    )
    def test_bad_node_counts(self, tmp_path, counts, message):
        doc = _saved_model_doc(tmp_path)
        doc["node_counts"] = counts
        with pytest.raises(ValidationError, match=rf"forest_model\.json: {message}"):
            load_forest(_write(tmp_path, doc))

    def test_save_refuses_more_features_than_int8_holds(self, tmp_path):
        """Split features are stored as int8: 127 features fit, 128 do not."""
        params = ForestParams(n_trees=1, m_try=1, seed=0)
        path = tmp_path / "m.json"
        save_forest(ForestModel(trees=[chain_tree(1)], params=params, feature_count=127), path)
        assert load_forest(path).feature_count == 127
        with pytest.raises(ValidationError, match="128 features"):
            save_forest(ForestModel(trees=[chain_tree(1)], params=params, feature_count=128), tmp_path / "big.json")
        assert not (tmp_path / "big.json").exists()


class TestParams:
    def test_m_try_default_is_third(self):
        assert ForestParams().resolved_m_try(6) == 2
        assert ForestParams().resolved_m_try(2) == 1

    def test_m_try_too_large_rejected(self):
        with pytest.raises(ValidationError):
            ForestParams(m_try=7).resolved_m_try(6)

    @pytest.mark.parametrize("kw", [{"n_trees": 0}, {"min_samples_leaf": 0}, {"max_depth": -1}])
    def test_bad_params(self, kw):
        with pytest.raises(ValidationError):
            ForestParams(**kw)

    def test_prediction_dimension_checked(self):
        matrix = random_matrix(seed=1)
        model = fit_forest(matrix, ForestParams(n_trees=2))
        with pytest.raises(ValidationError):
            predict_forest(model, [1.0, 2.0])
