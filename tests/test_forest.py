import base64
import json
import re
import struct
import tracemalloc
from collections import deque
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenuq import dns, forest, pipeline
from eigenuq.forest import ForestFormatError, ForestHyperparams


def toy_data(n=400, seed=7):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 4))
    y1 = np.sin(3 * X[:, 0]) + 0.5 * X[:, 1] ** 2
    y2 = X[:, 2] * X[:, 3]
    Y = np.column_stack([y1, y2]) + 0.01 * rng.normal(size=(n, 2))
    return X, Y


HP = ForestHyperparams(max_depth=6, min_samples_split=4, max_features=3, n_trees=20)


def read_forest(path):
    """The forest of the UTF-8 file ``path``."""
    return forest.loads(path.read_text(encoding="utf-8"), path)


def assert_saves_the_same(fitted, expected, out):
    forest.save(fitted, out / "fit.json")
    forest.save(expected, out / "expected.json")
    assert (out / "fit.json").read_bytes() == (out / "expected.json").read_bytes()


def b64(floats):
    """Reference encoding of a schema-3 float field: the base64 text of
    the floats as little-endian float64 bytes, in order."""
    return base64.b64encode(struct.pack(f"<{len(floats)}d", *floats)).decode("ascii")


def unb64(text):
    """The floats of a schema-3 float field, in order."""
    raw = base64.b64decode(text)
    return list(struct.unpack(f"<{len(raw) // 8}d", raw))


def reference_save(fitted, path):
    """Schema 3 as one document through ``json.dump``: the bytes ``save``
    must write. Per tree, split_feature for every node, tree-local
    children for the split nodes, and the float64 bytes of the split
    nodes' thresholds and of the leaves' rows, each in node order."""
    trees, roots = [], fitted.roots.tolist()
    for s, e in zip(roots, [*roots[1:], len(fitted.feature)]):
        nodes = range(s, e)
        splits = [i for i in nodes if fitted.feature[i] >= 0]
        trees.append({
            "split_feature": [int(fitted.feature[i]) for i in nodes],
            "threshold": b64([float(fitted.threshold[i]) for i in splits]),
            "left": [int(fitted.left[i]) - s for i in splits],
            "right": [int(fitted.right[i]) - s for i in splits],
            "leaf_value": b64([v for i in nodes if fitted.feature[i] < 0
                               for v in fitted.value[fitted.leaf[i]].tolist()]),
        })
    doc = {
        "version": 3,
        "hyperparams": asdict(fitted.hyperparams),
        "feature_names": fitted.feature_names,
        "target_names": fitted.target_names,
        "n_features": fitted.n_features,
        "n_targets": fitted.n_targets,
        "trees": trees,
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def schema_2_doc(doc):
    """The schema-2 layout of a schema-3 document: floats as JSON numbers,
    one leaf_value row of n_targets per leaf."""
    width = doc["n_targets"]
    for tree in doc["trees"]:
        tree["threshold"] = unb64(tree["threshold"])
        values = unb64(tree["leaf_value"])
        tree["leaf_value"] = [values[i:i + width] for i in range(0, len(values), width)]
    doc["version"] = 2
    return doc


def schema_1_doc(doc):
    """The schema-1 layout of a schema-3 document: every list has an
    entry per node (threshold 0, children -1 and value 0 where schema 2
    has none)."""
    doc = schema_2_doc(doc)
    for tree in doc["trees"]:
        splits = iter(zip(tree["threshold"], tree["left"], tree["right"]))
        leaves = iter(tree["leaf_value"])
        zero = [0.0] * doc["n_targets"]
        nodes = [(*next(splits), zero) if f >= 0 else (0.0, -1, -1, next(leaves))
                 for f in tree["split_feature"]]
        tree.update(zip(("threshold", "left", "right", "leaf_value"), map(list, zip(*nodes))))
    doc["version"] = 1
    return doc


def assert_saves_as_json_dump(fitted, out):
    forest.save(fitted, out / "save.json")
    reference_save(fitted, out / "dump.json")
    assert (out / "save.json").read_bytes() == (out / "dump.json").read_bytes()


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
    nodes, values, roots = [], [], []  # node: [feature, threshold, left, right, leaf]
    for t in range(hp.n_trees):
        rng = np.random.default_rng([hp.seed, t])
        roots.append(len(nodes))
        queue = deque([(rng.integers(0, len(X), size=len(X)), 0)])
        while queue:
            idx, depth = queue.popleft()
            y = Y[idx]
            nodes.append([-1, 0.0, -1, -1, len(values)])
            split = None
            if not (
                depth >= hp.max_depth
                or len(idx) < hp.min_samples_split
                or np.all(y.var(axis=0) <= 0.0)
            ):
                split = reference_split(X, Y, idx, rng.permutation(X.shape[1])[: hp.max_features])
            if split is None:
                values.append(y.mean(axis=0))
                continue
            mask = X[idx, split[0]] <= split[1]
            given = len(nodes) + len(queue)  # the children's indices, first in first out
            nodes[-1] = [*split, given, given + 1, -1]
            queue += [(idx[mask], depth + 1), (idx[~mask], depth + 1)]
    return forest.RegressionForest(
        *(np.array(column) for column in zip(*nodes)),
        value=np.array(values),
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


@pytest.fixture(scope="module")
def training_sets(settings):
    """(X, Y) of the default training set of each target kind, as ``train``
    hands them to ``forest.fit``."""
    sets = {}

    class Captured(Exception):
        pass

    def capture(X, Y, hp, **names):
        raise Captured(X, Y)

    for kind in ("p", "pcorr_angles"):
        with mock.patch.object(forest, "fit", capture), pytest.raises(Captured) as caught:
            pipeline.train_forest(settings, kind)
        sets[kind] = caught.value.args
    return sets


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
        target_scale=st.sampled_from([1.0, 1e-120, 1e-150, 1e-160, 1e-165, 1e-300]),
        signed_zeros=st.booleans(),
        max_depth=st.integers(1, 10),
        min_samples_split=st.integers(1, 6),
        n_trees=st.integers(1, 4),
        block_elements=st.sampled_from([1, 50, 1000, forest._BLOCK_ELEMENTS]),
        data=st.data(),
    )
    def test_fit_matches_breadth_first_reference(
        self, tmp_path_factory, seed, n_rows, n_features, n_targets, feature_levels,
        target_levels, target_scale, signed_zeros, max_depth, min_samples_split, n_trees,
        block_elements, data,
    ):
        # few feature levels give duplicate values, few target levels constant
        # or quantized targets; small blocks split every size across blocks.
        # Scaled targets differ by less and more than 1e-140, and some of
        # their squares underflow (at 1e-165 spreads are about 1e-165 and
        # every square is 0, so a pre-test cut set too low shows); -0.0 and
        # 0.0 are one feature value
        rng = np.random.default_rng(seed)
        X = rng.integers(0, feature_levels, size=(n_rows, n_features)) / feature_levels
        if signed_zeros:
            X[(X == 0.0) & (rng.random(X.shape) < 0.5)] = -0.0
        if target_levels is None:
            Y = rng.normal(size=(n_rows, n_targets))
        else:
            Y = rng.integers(0, target_levels, size=(n_rows, n_targets)) * 0.3
        Y *= target_scale
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

    def test_equal_targets_with_positive_variance_search(self, tmp_path):
        # three targets of 0.1 have a numpy variance of 1.9e-34, not 0: the
        # node is no constant-target stop, and it splits
        X = np.array([[0.0], [1.0], [2.0]])
        Y = np.full((3, 1), 0.1)
        assert Y.var() > 0.0
        hp = ForestHyperparams(max_depth=1, min_samples_split=2, max_features=1, n_trees=1,
                               seed=1)
        fitted = forest.fit(X, Y, hp)
        assert fitted.feature[0] == 0
        assert_saves_the_same(fitted, reference_fit(X, Y, hp), tmp_path)

    def test_ranks_are_dense_and_signed_zeros_share_one(self):
        X = np.array([[0.5, -0.0], [-0.0, 2.0], [0.0, 0.0], [-1.0, 2.0]])
        assert forest._ranks(X).tolist() == [[2, 0], [1, 1], [1, 0], [0, 1]]

    def test_fit_rejects_target_without_columns(self):
        with pytest.raises(ValueError, match="no target columns"):
            forest.fit(np.zeros((5, 2)), np.ones((5, 0)), HP)

    @pytest.mark.parametrize(
        "kind, parent_peak_kb", [("pcorr_angles", 3_034), ("p", 2_160)]
    )
    def test_fit_peak_memory(self, training_sets, kind, parent_peak_kb):
        X, Y = training_sets[kind]
        hp = forest.HYPERPARAMS[kind]
        forest.fit(X, Y, hp)  # numpy's first use of each routine is not counted
        tracemalloc.start()
        try:
            forest.fit(X, Y, hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the peak before the rank-key sort and the spread pre-test, plus
        # 64 KB; leaf values kept per leaf, not per node, brought it to
        # 2,558 and 1,910 KB
        assert peak <= (parent_peak_kb + 64) * 1024

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
        loaded = read_forest(path)
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
            read_forest(path)
        path.write_text("not json at all")
        with pytest.raises(ForestFormatError):
            read_forest(path)
        # json.loads of bytes would skip a byte-order mark; the text keeps it
        path.write_bytes(b"\xef\xbb\xbf{}")
        with pytest.raises(ForestFormatError, match=r"bad\.json: not valid JSON \(line 1\)$"):
            read_forest(path)

    def test_load_rejects_wrong_schema_version(self, tmp_path):
        X, Y = toy_data(n=60)
        fitted = forest.fit(X, Y, HP)
        path = tmp_path / "forest.json"
        forest.save(fitted, path)
        doc = json.loads(path.read_text())
        doc["version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ForestFormatError):
            read_forest(path)

    def test_load_packs_trees_into_one_node_table(self, tmp_path):
        path, doc = saved_doc(tmp_path)
        loaded = read_forest(path)
        sizes = [len(tree["split_feature"]) for tree in doc["trees"]]
        n_leaves = sum(tree["split_feature"].count(-1) for tree in doc["trees"])
        assert loaded.roots.tolist() == np.cumsum([0] + sizes[:-1]).tolist()
        assert loaded.value.shape == (n_leaves, doc["n_targets"])
        assert loaded.n_targets == doc["n_targets"] == 2
        # leaf rows in node order, one per leaf
        assert loaded.leaf[loaded.feature < 0].tolist() == list(range(n_leaves))
        assert np.all(loaded.leaf[loaded.feature >= 0] == -1)

    @pytest.mark.parametrize(
        "key, edit, message",
        [
            ("left", lambda v, tree: [0, *v[1:]], "a child is not after its parent"),
            ("right", lambda v, tree: [len(tree["split_feature"]), *v[1:]],
             "a child is not after its parent"),
            ("split_feature", lambda v, tree: [4, *v[1:]], r"split feature outside \[-1, 4\)"),
            ("split_feature", lambda v, tree: [-2, *v[1:]], r"split feature outside \[-1, 4\)"),
            ("split_feature", lambda v, tree: [], "split_feature is not a non-empty list"),
            ("split_feature", lambda v, tree: [v[0] + 0.5, *v[1:]],
             "split_feature holds a non-integer entry"),
            ("left", lambda v, tree: [float(v[0]), *v[1:]], "left holds a non-integer entry"),
            ("right", lambda v, tree: [str(v[0]), *v[1:]], "right holds a non-integer entry"),
            # JSON true and false parse as bool, which numpy and == read as 1 and 0
            ("split_feature", lambda v, tree: [v[0], *[f >= 0 for f in v[1:]]],
             "split_feature holds a non-integer entry"),
            ("left", lambda v, tree: [*v[:-1], True], "left holds a non-integer entry"),
            ("right", lambda v, tree: [False, *v[1:]], "right holds a non-integer entry"),
            ("threshold", lambda v, tree: b64([0.0] * len(tree["split_feature"])),
             r"threshold holds \d+ bytes, expected \d+: 1 float64 per split node"),
            ("left", lambda v, tree: v[:-1], r"left is \(\d+,\), expected \(\d+,\)"),
            ("right", lambda v, tree: [*v, len(tree["split_feature"]) - 1],
             r"right is \(\d+,\), expected \(\d+,\)"),
            ("leaf_value", lambda v, tree: b64(unb64(v)[:-2]),
             r"leaf_value holds \d+ bytes, expected \d+: 2 float64 per leaf"),
            ("leaf_value", lambda v, tree: b64([0.0, 0.0] * len(tree["split_feature"])),
             r"leaf_value holds \d+ bytes, expected \d+: 2 float64 per leaf"),
            ("leaf_value", lambda v, tree: b64(unb64(v) + [0.0] * tree["split_feature"].count(-1)),
             r"leaf_value holds \d+ bytes, expected \d+: 2 float64 per leaf"),
            # bytes that are not whole float64 entries
            ("threshold", lambda v, tree: base64.b64encode(base64.b64decode(v)[:-3]).decode(),
             r"threshold holds \d+ bytes, expected \d+"),
            # strict base64: no character outside the alphabet (which a bare
            # a2b_base64 skips), no missing or extra padding
            ("threshold", lambda v, tree: v[:8] + "!" + v[9:], "threshold is not valid base64"),
            ("leaf_value", lambda v, tree: v[:8] + "\n" + v[9:], "leaf_value is not valid base64"),
            ("threshold", lambda v, tree: v.rstrip("="), "threshold is not valid base64"),
            ("threshold", lambda v, tree: v + "====", "threshold is not valid base64"),
            ("leaf_value", lambda v, tree: v[:8] + "\u00e9" + v[9:],
             "leaf_value is not valid base64"),
            # the schema-2 lists, with text or boolean entries too
            ("threshold", lambda v, tree: unb64(v), "threshold is not a base64 text"),
            ("threshold", lambda v, tree: [repr(x) for x in unb64(v)],
             "threshold is not a base64 text"),
            ("leaf_value", lambda v, tree: [[True, x] for x in unb64(v)[1::2]],
             "leaf_value is not a base64 text"),
            ("leaf_value", lambda v, tree: None, "leaf_value is not a base64 text"),
            ("threshold", lambda v, tree: b64([float("nan"), *unb64(v)[1:]]),
             "threshold holds a non-finite entry"),
            ("leaf_value", lambda v, tree: b64([*unb64(v)[:-1], float("inf")]),
             "leaf_value holds a non-finite entry"),
            ("threshold", lambda v, tree: b64([*unb64(v)[:-1], float("-inf")]),
             "threshold holds a non-finite entry"),
        ],
        ids=["cycle", "child_outside_tree", "feature_too_large", "feature_below_leaf",
             "no_nodes", "feature_not_integer", "left_float", "right_text",
             "feature_bool", "left_true", "right_false",
             "threshold_per_node", "left_short", "right_long",
             "leaf_value_rows", "leaf_value_per_node", "leaf_value_width",
             "threshold_partial_entry", "threshold_outside_alphabet", "leaf_value_newline",
             "threshold_no_padding", "threshold_extra_padding", "leaf_value_not_ascii",
             "threshold_list", "threshold_text_entries", "leaf_value_bool_entries",
             "leaf_value_null", "threshold_nan", "leaf_value_inf", "threshold_minus_inf"],
    )
    def test_load_rejects_malformed_tree(self, tmp_path, key, edit, message):
        path, doc = saved_doc(tmp_path)
        tree = doc["trees"][1]
        assert tree["split_feature"][0] >= 0  # the root splits
        tree[key] = edit(tree[key], tree)
        path.write_text(json.dumps(doc))
        with pytest.raises(ForestFormatError, match=f"tree 1: {message}"):
            read_forest(path)

    @pytest.mark.parametrize("key", ["n_features", "n_targets"])
    @pytest.mark.parametrize("count", [2.0, "2", True, None, 0, -1])
    def test_load_rejects_count_that_is_not_a_positive_integer(self, tmp_path, key, count):
        path, doc = saved_doc(tmp_path)
        doc[key] = count
        path.write_text(json.dumps(doc))
        message = f"{key} must be a positive integer, got {re.escape(repr(count))}"
        with pytest.raises(ForestFormatError, match=message):
            read_forest(path)

    @pytest.mark.parametrize("version", [True, 2.0])
    def test_load_rejects_version_that_is_not_an_integer(self, tmp_path, version):
        # JSON true equals 1 in Python, so it must not read as schema 1
        path, doc = saved_doc(tmp_path)
        doc["version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ForestFormatError, match="unsupported or missing version tag"):
            read_forest(path)

    def test_load_rejects_schema_1(self, tmp_path):
        path, doc = saved_doc(tmp_path)
        path.write_text(json.dumps(schema_1_doc(doc)))
        with pytest.raises(ForestFormatError,
                           match=f"^{re.escape(str(path))}: schema-1 forest file; this version "
                                 "reads schema 3 only: re-run train$"):
            read_forest(path)

    def test_load_rejects_schema_2(self, tmp_path):
        path, doc = saved_doc(tmp_path)
        path.write_text(json.dumps(schema_2_doc(doc)))
        with pytest.raises(ForestFormatError,
                           match=f"^{re.escape(str(path))}: schema-2 forest file; this version "
                                 "reads schema 3 only: re-run train$"):
            read_forest(path)

    @pytest.mark.parametrize(
        "key, edit, message",
        [
            ("hyperparams", lambda v: {**v, "n_trees": 7},
             "20 trees, but hyperparams.n_trees is 7"),
            ("feature_names", lambda v: ["a"], "feature_names holds 1 names, expected 0 or 4"),
            ("target_names", lambda v: list("uvw"), "target_names holds 3 names, expected 0 or 2"),
        ],
        ids=["n_trees", "feature_names", "target_names"],
    )
    def test_load_rejects_head_that_contradicts_the_trees(self, tmp_path, key, edit, message):
        path, doc = saved_doc(tmp_path)
        doc[key] = edit(doc[key])
        path.write_text(json.dumps(doc))
        with pytest.raises(ForestFormatError, match=message):
            read_forest(path)

    @pytest.mark.parametrize(
        "key, edit, message",
        [
            # a float, a JSON true and a text passed the bounds checks or
            # read as an integer
            ("hyperparams", lambda v: {**v, "max_depth": 2.5},
             "max_depth must be a positive integer, got 2.5"),
            ("hyperparams", lambda v: {**v, "seed": True},
             "seed must be a non-negative integer, got True"),
            ("hyperparams", lambda v: {**v, "n_trees": "30"},
             "n_trees must be a positive integer, got '30'"),
            # a text read as one name per character, other entries as given
            ("feature_names", lambda v: "abcd", "feature_names is not a list of texts"),
            ("feature_names", lambda v: [1, 2, 3, {}], "feature_names is not a list of texts"),
            ("target_names", lambda v: ["u", None], "target_names is not a list of texts"),
        ],
        ids=["max_depth_float", "seed_true", "n_trees_text", "feature_names_text",
             "feature_names_entries", "target_names_null"],
    )
    def test_load_rejects_head_of_another_type(self, tmp_path, key, edit, message):
        path, doc = saved_doc(tmp_path)
        doc[key] = edit(doc[key])
        path.write_text(json.dumps(doc))
        with pytest.raises(ForestFormatError,
                           match=f"malformed forest file \\({re.escape(message)}\\)"):
            read_forest(path)

    def test_load_rejects_file_without_trees(self, tmp_path):
        path, doc = saved_doc(tmp_path)
        doc["trees"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(ForestFormatError, match="no trees"):
            read_forest(path)

    @pytest.mark.parametrize("kind", ["p", "pcorr", "pcorr_angles"])
    def test_trained_forest_saves_as_json_dump(self, trained_forests, kind, tmp_path):
        assert_saves_as_json_dump(trained_forests[kind], tmp_path)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 80),
        n_targets=st.integers(1, 5),
        max_depth=st.integers(1, 6),
        n_trees=st.integers(1, 40),
        names=st.lists(st.text(max_size=6), max_size=4),
    )
    def test_fitted_forest_saves_as_json_dump(
        self, tmp_path_factory, seed, n_rows, n_targets, max_depth, n_trees, names,
    ):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n_rows, 4)) * 10.0 ** rng.integers(-300, 300, size=4)
        Y = rng.normal(size=(n_rows, n_targets))
        hp = ForestHyperparams(max_depth=max_depth, min_samples_split=2, max_features=3,
                               n_trees=n_trees, seed=seed)
        fitted = forest.fit(X, Y, hp, feature_names=names, target_names=names[::-1])
        assert_saves_as_json_dump(fitted, tmp_path_factory.mktemp("forest"))

    def test_save_holds_one_tree_at_a_time(self, trained_forests, tmp_path):
        fitted = trained_forests["pcorr_angles"]
        assert len(fitted.roots) == 30
        tracemalloc.start()
        try:
            forest.save(fitted, tmp_path / "forest.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole document as one object peaks at about 3.4 MB
        assert peak < 1e6

    @staticmethod
    def loads_peak(fitted, path):
        """The ``tracemalloc`` peak of ``loads`` on the saved ``fitted``."""
        forest.save(fitted, path)
        document = path.read_text(encoding="utf-8")
        tracemalloc.start()
        try:
            forest.loads(document, path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_loads_peak_memory(self, trained_forests, tmp_path):
        peak = self.loads_peak(trained_forests["pcorr_angles"], tmp_path / "forest.json")
        # a schema-1 file of this forest peaked at 5.32 MB, schema 2 at 2.6 MB
        assert peak < 4.5e6

    def test_loads_peak_memory_of_float_bytes(self, trained_forests, tmp_path):
        peak = self.loads_peak(trained_forests["pcorr_angles"], tmp_path / "forest.json")
        # schema 2 parsed each float into a Python float first: 2.5 MB
        assert peak <= 1.6e6

    # -0.0, the smallest subnormal, the largest subnormal, the smallest
    # normal and the largest finite float, each with both signs
    EDGE_FLOATS = [s * x for s in (1.0, -1.0) for x in (
        0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e308,
        1.7976931348623157e308)]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_targets=st.integers(1, 3), data=st.data())
    def test_save_load_floats_bit_for_bit(self, tmp_path_factory, seed, n_targets, data):
        rng = np.random.default_rng(seed)
        hp = ForestHyperparams(max_depth=4, min_samples_split=2, max_features=3, n_trees=3,
                               seed=seed)
        fitted = forest.fit(rng.normal(size=(40, 4)), rng.normal(size=(40, n_targets)), hp)
        floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
            self.EDGE_FLOATS)
        split = fitted.feature >= 0
        for a, where in ((fitted.threshold, split), (fitted.value, ...)):
            size = a[where].size
            a[where] = np.reshape(data.draw(st.lists(floats, min_size=size, max_size=size)),
                                  a[where].shape)
        path = tmp_path_factory.mktemp("forest") / "forest.json"
        forest.save(fitted, path)
        loaded = read_forest(path)
        assert loaded.threshold[split].tobytes() == fitted.threshold[split].tobytes()
        assert not np.any(loaded.threshold[~split])
        assert loaded.value.tobytes() == fitted.value.tobytes()
