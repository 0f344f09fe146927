"""Random regression forest: bagged CART trees with multi-output leaves.

Splits minimize the weighted child sum-of-squared-errors summed over all
target dimensions; candidate thresholds are midpoints between
consecutive sorted unique feature values. Ties break to the lowest
feature index, then the smallest threshold, so training is fully
deterministic given (X, Y, hyperparameters).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

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
class RegressionForest:
    """All trees in one node table; tree t starts at node ``roots[t]``
    and its children come after their parents. Leaves have feature -1
    and children -1; ``value`` holds every node's mean target, read only
    at leaves."""

    feature: np.ndarray  # (n_nodes,) int
    threshold: np.ndarray  # (n_nodes,)
    left: np.ndarray  # (n_nodes,) int, table-wide node indices
    right: np.ndarray
    value: np.ndarray  # (n_nodes, n_targets)
    roots: np.ndarray  # (n_trees,) int
    hyperparams: ForestHyperparams
    feature_names: list[str] = field(default_factory=list)
    target_names: list[str] = field(default_factory=list)
    n_features: int = 0

    @property
    def n_targets(self) -> int:
        return self.value.shape[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route every row through every tree at once, one level per step."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {X.shape[1]}")
        rows = np.arange(X.shape[0])
        node = np.repeat(self.roots[:, None], X.shape[0], axis=1)  # (n_trees, n_rows)
        feat = self.feature[node]
        while np.any(feat >= 0):
            go_left = X[rows, feat] <= self.threshold[node]  # feature -1 is masked below
            node = np.where(feat < 0, node, np.where(go_left, self.left[node], self.right[node]))
            feat = self.feature[node]
        # tree by tree, so every row sums in one fixed order
        out = np.zeros((X.shape[0], self.n_targets))
        for leaf_values in self.value[node]:
            out += leaf_values
        return out / len(self.roots)

    def predict_one(self, x: np.ndarray) -> np.ndarray:
        """One row, tree by tree: the reference ``predict`` must match."""
        out = np.zeros(self.n_targets)
        for i in self.roots:
            while self.feature[i] >= 0:
                i = self.left[i] if x[self.feature[i]] <= self.threshold[i] else self.right[i]
            out += self.value[i]
        return out / len(self.roots)


class _TreeBuilder:
    """Grows trees into one shared node list, each child after its parent."""

    def __init__(self, X, Y, hp: ForestHyperparams):
        self.X, self.Y, self.hp = X, Y, hp
        self.nodes: list[list] = []  # [feature, threshold, left, right, value]

    def grow(self, rng: np.random.Generator) -> int:
        """Grow one tree on a bootstrap sample; returns its root."""
        self.rng = rng
        n = self.X.shape[0]
        return self.build(rng.integers(0, n, size=n), depth=0)

    def build(self, idx: np.ndarray, depth: int) -> int:
        y = self.Y[idx]
        row = [-1, 0.0, -1, -1, y.mean(axis=0)]
        self.nodes.append(row)
        node = len(self.nodes) - 1
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
        # children appended after the parent; order fixed for determinism
        row[:4] = feat, thr, self.build(idx[mask], depth + 1), self.build(idx[~mask], depth + 1)
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

    builder = _TreeBuilder(X, Y, hp)
    roots = [builder.grow(np.random.default_rng([hp.seed, t])) for t in range(hp.n_trees)]
    # columns feature, threshold, left, right, value: int, float, int, int, float
    return RegressionForest(
        *(np.array(column) for column in zip(*builder.nodes)),
        roots=np.array(roots),
        hyperparams=hp,
        feature_names=list(feature_names or []),
        target_names=list(target_names or []),
        n_features=X.shape[1],
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
    """Schema 1: one node list per tree, child indices local to the tree."""
    bounds = zip(forest.roots, [*forest.roots[1:], len(forest.feature)])
    doc = {
        "version": SCHEMA_VERSION,
        "hyperparams": asdict(forest.hyperparams),
        "feature_names": forest.feature_names,
        "target_names": forest.target_names,
        "n_features": forest.n_features,
        "n_targets": forest.n_targets,
        "trees": [
            {
                "split_feature": forest.feature[s:e].tolist(),
                "threshold": forest.threshold[s:e].tolist(),
                "left": np.where(forest.left[s:e] >= 0, forest.left[s:e] - s, -1).tolist(),
                "right": np.where(forest.right[s:e] >= 0, forest.right[s:e] - s, -1).tolist(),
                "leaf_value": forest.value[s:e].tolist(),
            }
            for s, e in bounds
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
        return _pack(doc)
    except (KeyError, TypeError, ValueError) as e:
        raise ForestFormatError(f"{path}: malformed forest file ({e})") from e


def _pack(doc: dict) -> RegressionForest:
    """The node table of a schema-1 document; raises ValueError naming
    the first defect that would make ``predict`` fail, hang or misshape."""
    n_features, n_targets = int(doc["n_features"]), int(doc["n_targets"])
    if not doc["trees"]:
        raise ValueError("no trees")
    roots, tables, offset = [], [], 0
    for t, tree in enumerate(doc["trees"]):
        feature, left, right = (
            np.array(tree[key], dtype=np.int64) for key in ("split_feature", "left", "right")
        )
        threshold = np.array(tree["threshold"], dtype=float)
        value = np.array(tree["leaf_value"], dtype=float)
        m = len(feature)
        if m == 0 or any(a.shape != (m,) for a in (feature, threshold, left, right)):
            raise ValueError(f"tree {t}: node lists are empty or differ in length")
        if value.shape != (m, n_targets):
            raise ValueError(f"tree {t}: leaf_value is {value.shape}, expected ({m}, {n_targets})")
        if np.any((feature < -1) | (feature >= n_features)):
            raise ValueError(f"tree {t}: split feature outside [-1, {n_features})")
        i = np.arange(m)
        split = feature >= 0
        inside = (i < left) & (left < m) & (i < right) & (right < m)
        if not np.all(np.where(split, inside, (left == -1) & (right == -1))):
            raise ValueError(f"tree {t}: a child is not after its parent inside the tree")
        left, right = np.where(split, left + offset, -1), np.where(split, right + offset, -1)
        tables.append((feature, threshold, left, right, value))
        roots.append(offset)
        offset += m
    return RegressionForest(
        *(np.concatenate(column) for column in zip(*tables)),
        roots=np.array(roots),
        hyperparams=ForestHyperparams(**doc["hyperparams"]),
        feature_names=list(doc["feature_names"]),
        target_names=list(doc["target_names"]),
        n_features=n_features,
    )
