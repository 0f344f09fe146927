import json
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenuq import dns, forest
from eigenuq.forest import ForestFormatError, ForestHyperparams


def toy_data(n=400, seed=7):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 4))
    y1 = np.sin(3 * X[:, 0]) + 0.5 * X[:, 1] ** 2
    y2 = X[:, 2] * X[:, 3]
    Y = np.column_stack([y1, y2]) + 0.01 * rng.normal(size=(n, 2))
    return X, Y


HP = ForestHyperparams(max_depth=6, min_samples_split=4, max_features=3, n_trees=20)


def assert_saves_the_same(fitted, expected, out):
    forest.save(fitted, out / "fit.json")
    forest.save(expected, out / "expected.json")
    assert (out / "fit.json").read_bytes() == (out / "expected.json").read_bytes()


def reference_split(X, Y, idx, cand):
    """One node's split search, one candidate feature at a time."""
    best, best_sse = None, np.inf
    for feat in np.sort(cand):
        order = np.argsort(X[idx, feat], kind="stable")
        xs, ys = X[idx, feat][order], Y[idx][order]
        c1, c2 = np.cumsum(ys, axis=0), np.cumsum(ys * ys, axis=0)
        b = np.nonzero(xs[1:] > xs[:-1])[0]
        if len(b) == 0:
            continue
        nl = (b + 1)[:, None]
        nr = len(xs) - nl
        sse = np.sum(c2[b] - c1[b] ** 2 / nl, axis=1) + np.sum(
            (c2[-1] - c2[b]) - (c1[-1] - c1[b]) ** 2 / nr, axis=1
        )
        j = int(np.argmin(sse))
        if best is None or sse[j] < best_sse - 1e-15 * max(1.0, best_sse):
            best_sse, best = float(sse[j]), (int(feat), float(0.5 * (xs[b[j]] + xs[b[j] + 1])))
    return best


def reference_fit(X, Y, hp):
    """``forest.fit`` one node at a time, each tree breadth first from a queue."""
    nodes, roots = [], []  # node: [feature, threshold, left, right, value]
    for t in range(hp.n_trees):
        rng = np.random.default_rng([hp.seed, t])
        roots.append(len(nodes))
        queue = deque([(rng.integers(0, len(X), size=len(X)), 0)])
        while queue:
            idx, depth = queue.popleft()
            y = Y[idx]
            nodes.append([-1, 0.0, -1, -1, y.mean(axis=0)])
            if (
                depth >= hp.max_depth
                or len(idx) < hp.min_samples_split
                or np.all(y.var(axis=0) <= 0.0)
            ):
                continue
            split = reference_split(X, Y, idx, rng.permutation(X.shape[1])[: hp.max_features])
            if split is None:
                continue
            mask = X[idx, split[0]] <= split[1]
            given = len(nodes) + len(queue)  # the children's indices, first in first out
            nodes[-1][:4] = *split, given, given + 1
            queue += [(idx[mask], depth + 1), (idx[~mask], depth + 1)]
    return forest.RegressionForest(
        *(np.array(column) for column in zip(*nodes)),
        roots=np.array(roots),
        hyperparams=hp,
        n_features=X.shape[1],
    )


class TestHyperparams:
    def test_positive_required(self):
        for field in ("max_depth", "min_samples_split", "max_features", "n_trees"):
            kwargs = dict(max_depth=3, min_samples_split=2, max_features=2, n_trees=5)
            kwargs[field] = 0
            with pytest.raises(ValueError):
                ForestHyperparams(**kwargs)

    def test_presets(self):
        assert forest.HYPERPARAMS["p"].max_depth == 6
        assert forest.HYPERPARAMS["p"].min_samples_split == 6
        assert forest.HYPERPARAMS["p"].max_features == 3
        assert forest.HYPERPARAMS["p"].n_trees == 30
        assert forest.HYPERPARAMS["pcorr"].max_depth == 9
        assert forest.HYPERPARAMS["pcorr"].n_trees == 15
        assert forest.HYPERPARAMS["pcorr_angles"].n_trees == 30
        assert forest.HYPERPARAMS.keys() == dns.TARGET_NAMES.keys()


class TestFit:
    def test_deterministic_refit(self):
        X, Y = toy_data()
        f1 = forest.fit(X, Y, HP)
        f2 = forest.fit(X, Y, HP)
        Q = np.random.default_rng(1).uniform(-1, 1, size=(100, 4))
        assert np.array_equal(f1.predict(Q), f2.predict(Q))

    def test_seed_changes_model(self):
        X, Y = toy_data()
        f1 = forest.fit(X, Y, HP)
        hp2 = ForestHyperparams(
            max_depth=HP.max_depth,
            min_samples_split=HP.min_samples_split,
            max_features=HP.max_features,
            n_trees=HP.n_trees,
            seed=99,
        )
        f2 = forest.fit(X, Y, hp2)
        Q = np.random.default_rng(1).uniform(-1, 1, size=(100, 4))
        assert not np.array_equal(f1.predict(Q), f2.predict(Q))

    def test_beats_mean_predictor(self):
        X, Y = toy_data(n=600, seed=3)
        Xte, Yte = toy_data(n=200, seed=4)
        fitted = forest.fit(X, Y, HP)
        forest_mse = forest.mse(fitted, Xte, Yte)
        mean_mse = float(np.mean((Y.mean(axis=0) - Yte) ** 2))
        assert forest_mse < 0.5 * mean_mse

    def test_constant_target_yields_constant_prediction(self):
        X, _ = toy_data(n=100)
        Y = np.full((100, 1), 3.25)
        fitted = forest.fit(X, Y, HP)
        assert np.allclose(fitted.predict(X), 3.25, atol=1e-12)

    def test_predict_shape_and_feature_check(self):
        X, Y = toy_data()
        fitted = forest.fit(X, Y, HP)
        out = fitted.predict(X[:10])
        assert out.shape == (10, 2)
        with pytest.raises(ValueError, match="expected 4 features"):
            fitted.predict(np.zeros((3, 7)))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 60),
        n_features=st.integers(1, 5),
        n_targets=st.integers(1, 3),
        levels=st.integers(2, 8),
        max_depth=st.integers(1, 7),
        min_samples_split=st.integers(1, 6),
        n_trees=st.integers(1, 12),
        data=st.data(),
    )
    def test_predict_matches_predict_one(
        self, seed, n_rows, n_features, n_targets, levels, max_depth, min_samples_split,
        n_trees, data,
    ):
        # integer features split at half-integers; half-integer queries hit thresholds
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, size=(n_rows, n_features)).astype(float)
        Y = rng.normal(size=(n_rows, n_targets))
        hp = ForestHyperparams(
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            max_features=data.draw(st.integers(1, n_features), label="max_features"),
            n_trees=n_trees,
            seed=seed,
        )
        fitted = forest.fit(X, Y, hp)
        Q = np.vstack([X, rng.integers(-1, 2 * levels, size=(20, n_features)) / 2])
        batch = fitted.predict(Q)
        assert batch.shape == (len(Q), n_targets)
        for i, q in enumerate(Q):
            assert np.array_equal(batch[i], fitted.predict_one(q)), i


    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 300),
        n_features=st.integers(1, 5),
        n_targets=st.integers(1, 5),
        feature_levels=st.sampled_from([1, 2, 5, 40, 10**6]),
        target_levels=st.sampled_from([1, 2, 4, None]),
        max_depth=st.integers(1, 10),
        min_samples_split=st.integers(1, 6),
        n_trees=st.integers(1, 4),
        block_elements=st.sampled_from([1, 50, 1000, forest._BLOCK_ELEMENTS]),
        data=st.data(),
    )
    def test_fit_matches_breadth_first_reference(
        self, tmp_path_factory, seed, n_rows, n_features, n_targets, feature_levels,
        target_levels, max_depth, min_samples_split, n_trees, block_elements, data,
    ):
        # few feature levels give duplicate values, few target levels constant
        # or quantized targets; small blocks split every size across blocks
        rng = np.random.default_rng(seed)
        X = rng.integers(0, feature_levels, size=(n_rows, n_features)) / feature_levels
        if target_levels is None:
            Y = rng.normal(size=(n_rows, n_targets))
        else:
            Y = rng.integers(0, target_levels, size=(n_rows, n_targets)) * 0.3
        hp = ForestHyperparams(
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            max_features=data.draw(st.integers(1, n_features), label="max_features"),
            n_trees=n_trees,
            seed=seed,
        )
        with mock.patch.object(forest, "_BLOCK_ELEMENTS", block_elements):
            fitted = forest.fit(X, Y, hp)
        assert_saves_the_same(fitted, reference_fit(X, Y, hp), tmp_path_factory.mktemp("fit"))

    def test_default_training_size_matches_reference(self, tmp_path):
        # 764 rows, as the default training sets have: several blocks per level
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(764, 6))
        X[:, 0] = np.round(X[:, 0], 1)
        Y = np.column_stack([np.sin(4 * X[:, 1]), X[:, 0] * X[:, 2], np.round(X[:, 3], 1)])
        hp = ForestHyperparams(max_depth=9, min_samples_split=4, max_features=3, n_trees=3)
        for targets in (Y[:, :1], Y):
            assert_saves_the_same(forest.fit(X, targets, hp), reference_fit(X, targets, hp), tmp_path)


def saved_doc(tmp_path):
    """A saved 4-feature, 2-target forest as (path, parsed JSON)."""
    X, Y = toy_data(n=80)
    path = tmp_path / "forest.json"
    forest.save(forest.fit(X, Y, HP), path)
    return path, json.loads(path.read_text())


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        X, Y = toy_data()
        fitted = forest.fit(X, Y, HP, feature_names=list("abcd"), target_names=["u", "v"])
        path = tmp_path / "forest.json"
        forest.save(fitted, path)
        loaded = forest.load(path)
        assert loaded.feature_names == list("abcd")
        assert loaded.target_names == ["u", "v"]
        assert loaded.hyperparams == fitted.hyperparams
        Q = np.random.default_rng(2).uniform(-1, 1, size=(200, 4))
        assert np.array_equal(loaded.predict(Q), fitted.predict(Q))
        forest.save(loaded, tmp_path / "again.json")  # save -> load -> save keeps the bytes
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_schema_version_stamped(self, tmp_path):
        X, Y = toy_data(n=60)
        fitted = forest.fit(X, Y, HP)
        path = tmp_path / "forest.json"
        forest.save(fitted, path)
        doc = json.loads(path.read_text())
        assert doc["version"] == forest.SCHEMA_VERSION

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ForestFormatError):
            forest.load(path)
        path.write_text("not json at all")
        with pytest.raises(ForestFormatError):
            forest.load(path)

    def test_load_rejects_wrong_schema_version(self, tmp_path):
        X, Y = toy_data(n=60)
        fitted = forest.fit(X, Y, HP)
        path = tmp_path / "forest.json"
        forest.save(fitted, path)
        doc = json.loads(path.read_text())
        doc["version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ForestFormatError):
            forest.load(path)

    def test_load_packs_trees_into_one_node_table(self, tmp_path):
        path, doc = saved_doc(tmp_path)
        loaded = forest.load(path)
        sizes = [len(tree["split_feature"]) for tree in doc["trees"]]
        assert loaded.roots.tolist() == np.cumsum([0] + sizes[:-1]).tolist()
        assert loaded.value.shape == (sum(sizes), doc["n_targets"])
        assert loaded.n_targets == doc["n_targets"] == 2

    @pytest.mark.parametrize(
        "key, edit, message",
        [
            ("left", lambda v: [0, *v[1:]], "a child is not after its parent"),
            ("right", lambda v: [len(v), *v[1:]], "a child is not after its parent"),
            ("split_feature", lambda v: [4, *v[1:]], r"split feature outside \[-1, 4\)"),
            ("split_feature", lambda v: [-2, *v[1:]], r"split feature outside \[-1, 4\)"),
            ("leaf_value", lambda v: v[:-1], r"leaf_value is \(\d+, 2\), expected"),
            ("leaf_value", lambda v: [[*row, 0.0] for row in v], r"leaf_value is \(\d+, 3\)"),
        ],
        ids=["cycle", "child_outside_tree", "feature_too_large", "feature_below_leaf",
             "leaf_value_rows", "leaf_value_width"],
    )
    def test_load_rejects_malformed_tree(self, tmp_path, key, edit, message):
        path, doc = saved_doc(tmp_path)
        tree = doc["trees"][1]
        assert tree["split_feature"][0] >= 0  # the root splits
        tree[key] = edit(tree[key])
        path.write_text(json.dumps(doc))
        with pytest.raises(ForestFormatError, match=f"tree 1: {message}"):
            forest.load(path)

    def test_load_rejects_file_without_trees(self, tmp_path):
        path, doc = saved_doc(tmp_path)
        doc["trees"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(ForestFormatError, match="no trees"):
            forest.load(path)
