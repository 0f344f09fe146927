"""Random regression forest: bagged CART trees with multi-output leaves.

Splits minimize the weighted child sum-of-squared-errors summed over all
target dimensions; candidate thresholds are midpoints between
consecutive sorted unique feature values. Ties break to the lowest
feature index, then the smallest threshold, so training is fully
deterministic given (X, Y, hyperparameters).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ForestHyperparams:
    max_depth: int
    min_samples_split: int
    max_features: int
    n_trees: int
    seed: int = 0

    def __post_init__(self):
        for name in ("max_depth", "min_samples_split", "max_features", "n_trees"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")


# Table-style defaults per target kind.
HYPERPARAMS_P = ForestHyperparams(max_depth=6, min_samples_split=6, max_features=3, n_trees=30)
HYPERPARAMS_PCORR = ForestHyperparams(max_depth=9, min_samples_split=4, max_features=3, n_trees=15)
HYPERPARAMS_PCORR_ANGLES = ForestHyperparams(max_depth=9, min_samples_split=4, max_features=3, n_trees=30)


@dataclass
class RegressionTree:
    """Flat-array CART tree; leaf nodes have split_feature = -1."""

    split_feature: np.ndarray  # int, -1 for leaves
    threshold: np.ndarray
    left: np.ndarray  # int child indices, -1 for leaves
    right: np.ndarray
    leaf_value: np.ndarray  # (n_nodes, n_targets), rows valid only at leaves

    def predict_one(self, x: np.ndarray) -> np.ndarray:
        i = 0
        while self.split_feature[i] >= 0:
            if x[self.split_feature[i]] <= self.threshold[i]:
                i = self.left[i]
            else:
                i = self.right[i]
        return self.leaf_value[i]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Route all rows of X through the tree simultaneously."""
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self.split_feature[node] >= 0
        while np.any(active):
            idx = node[active]
            feat = self.split_feature[idx]
            go_left = X[active, feat] <= self.threshold[idx]
            node[active] = np.where(go_left, self.left[idx], self.right[idx])
            active = self.split_feature[node] >= 0
        return self.leaf_value[node]


@dataclass
class RegressionForest:
    trees: list[RegressionTree]
    hyperparams: ForestHyperparams
    feature_names: list[str] = field(default_factory=list)
    target_names: list[str] = field(default_factory=list)
    n_features: int = 0
    n_targets: int = 0

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        out = np.zeros((X.shape[0], self.n_targets))
        for tree in self.trees:
            out += tree.predict_batch(X)
        return out / len(self.trees)


class _TreeBuilder:
    def __init__(self, X, Y, hp: ForestHyperparams, rng: np.random.Generator):
        self.X, self.Y, self.hp, self.rng = X, Y, hp, rng
        self.split_feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.leaf_value: list[np.ndarray] = []

    def _new_node(self) -> int:
        self.split_feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.leaf_value.append(np.zeros(self.Y.shape[1]))
        return len(self.split_feature) - 1

    def build(self, idx: np.ndarray, depth: int) -> int:
        node = self._new_node()
        y = self.Y[idx]
        self.leaf_value[node] = y.mean(axis=0)
        if (
            depth >= self.hp.max_depth
            or len(idx) < self.hp.min_samples_split
            or np.all(y.var(axis=0) <= 0.0)
        ):
            return node
        split = self._best_split(idx)
        if split is None:
            return node
        feat, thr = split
        mask = self.X[idx, feat] <= thr
        self.split_feature[node] = feat
        self.threshold[node] = thr
        # children appended after the parent; order fixed for determinism
        self.left[node] = self.build(idx[mask], depth + 1)
        self.right[node] = self.build(idx[~mask], depth + 1)
        return node

    def _best_split(self, idx: np.ndarray):
        n_feat = self.X.shape[1]
        cand = np.sort(self.rng.permutation(n_feat)[: self.hp.max_features])
        best = None
        best_sse = np.inf
        for feat in cand:
            x = self.X[idx, feat]
            order = np.argsort(x, kind="stable")
            xs = x[order]
            ys = self.Y[idx][order]
            # prefix sums for O(n) SSE of every left/right partition
            c1 = np.cumsum(ys, axis=0)
            c2 = np.cumsum(ys * ys, axis=0)
            tot1, tot2 = c1[-1], c2[-1]
            n = len(xs)
            boundaries = np.nonzero(xs[1:] > xs[:-1])[0]  # split after position b
            if len(boundaries) == 0:
                continue
            nl = (boundaries + 1)[:, None]
            nr = n - nl
            sse = np.sum(c2[boundaries] - c1[boundaries] ** 2 / nl, axis=1) + np.sum(
                (tot2 - c2[boundaries]) - (tot1 - c1[boundaries]) ** 2 / nr, axis=1
            )
            # first minimum = smallest threshold among equal-SSE splits
            j = int(np.argmin(sse))
            if best is None or sse[j] < best_sse - 1e-15 * max(1.0, best_sse):
                best_sse = float(sse[j])
                b = boundaries[j]
                best = (int(feat), float(0.5 * (xs[b] + xs[b + 1])))
        return best

    def finish(self) -> RegressionTree:
        return RegressionTree(
            split_feature=np.array(self.split_feature, dtype=np.int64),
            threshold=np.array(self.threshold),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            leaf_value=np.vstack(self.leaf_value),
        )


def fit(
    X: np.ndarray,
    Y: np.ndarray,
    hp: ForestHyperparams,
    feature_names: list[str] | None = None,
    target_names: list[str] | None = None,
) -> RegressionForest:
    """Train a forest of bootstrap-sampled trees; deterministic given
    (X, Y, hp)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or Y.ndim != 2:
        raise ValueError("X and Y must be 2-D arrays")
    if X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y row counts differ")
    if X.shape[0] < 1:
        raise ValueError("training data is empty")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValueError("training data contains non-finite values")
    if hp.max_features > X.shape[1]:
        raise ValueError("max_features exceeds the feature count")

    n = X.shape[0]
    trees = []
    for t in range(hp.n_trees):
        rng = np.random.default_rng([hp.seed, t])
        idx = rng.integers(0, n, size=n)
        builder = _TreeBuilder(X, Y, hp, rng)
        builder.build(idx, depth=0)
        trees.append(builder.finish())
    return RegressionForest(
        trees=trees,
        hyperparams=hp,
        feature_names=list(feature_names or []),
        target_names=list(target_names or []),
        n_features=X.shape[1],
        n_targets=Y.shape[1],
    )


def mse(forest: RegressionForest, X: np.ndarray, Y: np.ndarray) -> float:
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    pred = forest.predict(X)
    if pred.shape != Y.shape:
        raise ValueError("target dimension mismatch")
    return float(np.mean((pred - Y) ** 2))


def save(forest: RegressionForest, path) -> None:
    doc = {
        "version": SCHEMA_VERSION,
        "hyperparams": {
            "max_depth": forest.hyperparams.max_depth,
            "min_samples_split": forest.hyperparams.min_samples_split,
            "max_features": forest.hyperparams.max_features,
            "n_trees": forest.hyperparams.n_trees,
            "seed": forest.hyperparams.seed,
        },
        "feature_names": forest.feature_names,
        "target_names": forest.target_names,
        "n_features": forest.n_features,
        "n_targets": forest.n_targets,
        "trees": [
            {
                "split_feature": t.split_feature.tolist(),
                "threshold": t.threshold.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "leaf_value": t.leaf_value.tolist(),
            }
            for t in forest.trees
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


class ForestFormatError(ValueError):
    pass


def load(path) -> RegressionForest:
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ForestFormatError(f"{path}: not valid JSON (line {e.lineno})") from e
    if not isinstance(doc, dict) or doc.get("version") != SCHEMA_VERSION:
        raise ForestFormatError(
            f"{path}: unsupported or missing version tag (expected {SCHEMA_VERSION})"
        )
    try:
        hp = ForestHyperparams(**doc["hyperparams"])
        trees = [
            RegressionTree(
                split_feature=np.array(t["split_feature"], dtype=np.int64),
                threshold=np.array(t["threshold"], dtype=float),
                left=np.array(t["left"], dtype=np.int64),
                right=np.array(t["right"], dtype=np.int64),
                leaf_value=np.array(t["leaf_value"], dtype=float),
            )
            for t in doc["trees"]
        ]
        return RegressionForest(
            trees=trees,
            hyperparams=hp,
            feature_names=list(doc["feature_names"]),
            target_names=list(doc["target_names"]),
            n_features=int(doc["n_features"]),
            n_targets=int(doc["n_targets"]),
        )
    except (KeyError, TypeError) as e:
        raise ForestFormatError(f"{path}: malformed forest file ({e})") from e
