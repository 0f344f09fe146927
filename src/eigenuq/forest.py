"""Random regression forest: bagged CART trees with multi-output leaves.

Splits minimize the weighted child sum-of-squared-errors summed over all
target dimensions; candidate thresholds are midpoints between
consecutive sorted unique feature values. Ties break to the lowest
feature index, then the smallest threshold, so training is fully
deterministic given (X, Y, hyperparameters).

All trees grow together, one level at a time. Each tree's generator
draws its bootstrap sample, then one candidate-feature set per node that
searches for a split, in breadth-first order: level by level, and left
child before right within a level.
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


# Table-style defaults per target kind (the keys of dns.TARGET_NAMES).
HYPERPARAMS = {
    "p": ForestHyperparams(max_depth=6, min_samples_split=6, max_features=3, n_trees=30),
    "pcorr": ForestHyperparams(max_depth=9, min_samples_split=4, max_features=3, n_trees=15),
    "pcorr_angles": ForestHyperparams(max_depth=9, min_samples_split=4, max_features=3, n_trees=30),
}


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


# Cap on the elements of one block (nodes x rows x candidates x targets):
# it bounds the transient memory of a level of growth.
_BLOCK_ELEMENTS = 1 << 14


def _blocks(count: np.ndarray, width: int, equal: bool = False):
    """Yield (nodes, n), largest nodes first: blocks of nodes of at most n
    rows, each padded to n rows of ``width`` elements, at most
    ``_BLOCK_ELEMENTS`` elements in all. With ``equal`` every node of a
    block has n rows: nothing is padded, so numpy sums each node's rows as
    it sums them for that node alone."""
    order = np.argsort(-count, kind="stable")
    desc = count[order]
    s = 0
    while s < len(order):
        n = int(desc[s])
        e = s + max(1, _BLOCK_ELEMENTS // (n * width))
        if equal:
            e = min(e, int(np.searchsorted(-desc, -n, side="right")))
        yield order[s:e], n
        s = e


def _best_splits(X, Y, rows, count, cand):
    """The best split of each node of a block: its ``count`` rows, padded to
    ``rows`` (nodes, n) with copies of its last row, and its ascending
    candidate features ``cand`` (nodes, m). Returns (feature, threshold),
    feature -1 where no candidate takes two distinct values."""
    B, n = rows.shape
    node = np.arange(B)
    feat = cand[:, :, None]
    # padding sorts last, and stably: each node's rows sort as they would alone
    pad = np.arange(n) >= count[:, None, None]
    order = np.argsort(np.where(pad, np.inf, X[rows[:, None, :], feat]), axis=2, kind="stable")
    rows = rows[node[:, None, None], order]  # (nodes, m, n)
    xs, ys = X[rows, feat], Y[rows]
    # prefix sums for O(n) SSE of every left/right partition
    c1 = np.cumsum(ys, axis=2)
    c2 = np.cumsum(ys * ys, axis=2)
    tot1, tot2 = c1[node, :, count - 1][:, :, None], c2[node, :, count - 1][:, :, None]
    c1, c2 = c1[:, :, :-1], c2[:, :, :-1]  # split after position b
    nl = np.arange(1, n)[:, None]
    nr = np.maximum(count[:, None, None, None] - nl, 1)  # 1 in the padding
    sse = np.sum(c2 - c1**2 / nl, axis=3) + np.sum((tot2 - c2) - (tot1 - c1) ** 2 / nr, axis=3)
    # no boundary lies in the padding: it repeats a value, none above the max
    boundary = xs[:, :, 1:] > xs[:, :, :-1]
    sse[~boundary] = np.inf
    # first minimum = smallest threshold among equal-SSE splits
    j = np.argmin(sse, axis=2)
    found = np.any(boundary, axis=2)
    feature_sse = np.take_along_axis(sse, j[:, :, None], axis=2)[:, :, 0]
    # a later candidate must beat the best so far by the relative tolerance
    pick, best = np.full(B, -1), np.full(B, np.inf)
    for f in range(cand.shape[1]):
        with np.errstate(invalid="ignore"):  # inf - inf before the first find
            better = found[:, f] & (
                (pick < 0) | (feature_sse[:, f] < best - 1e-15 * np.maximum(1.0, best))
            )
        pick = np.where(better, f, pick)
        best = np.where(better, feature_sse[:, f], best)
    b = j[node, pick]
    threshold = 0.5 * (xs[node, pick, b] + xs[node, pick, b + 1])
    split = pick >= 0
    return np.where(split, cand[node, pick], -1), np.where(split, threshold, 0.0)


def _grow(X: np.ndarray, Y: np.ndarray, hp: ForestHyperparams):
    """Grow all trees together, one level per pass; each tree draws its
    bootstrap, then one candidate set per searching node in breadth-first
    order. Returns the node columns feature, threshold, left, right, value
    and the roots: tree by tree, breadth first within a tree."""
    n, n_features = X.shape
    rngs = [np.random.default_rng([hp.seed, t]) for t in range(hp.n_trees)]
    # the open nodes of a level, ordered by tree, then breadth first;
    # their rows are concatenated in ``rows``
    tree = np.arange(hp.n_trees)
    count = np.full(hp.n_trees, n)
    rows = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
    levels = []  # per level: tree, feature, threshold, value, left child
    first = 0  # level-order index of the level's first node
    for depth in range(hp.max_depth + 1):
        start = np.cumsum(count) - count
        value = np.empty((len(count), Y.shape[1]))
        # the stop checks: depth, min_samples_split, constant targets
        search = (count >= hp.min_samples_split) & (depth < hp.max_depth)
        for nodes, c in _blocks(count, Y.shape[1], equal=True):
            y = Y[rows[start[nodes, None] + np.arange(c)]]  # (nodes, c, targets)
            value[nodes] = y.mean(axis=1)
            search[nodes] &= ~np.all(y.var(axis=1) <= 0.0, axis=1)
        feature = np.full(len(count), -1)
        threshold = np.zeros(len(count))
        searching = np.flatnonzero(search)
        if len(searching):
            # per tree, one row per searching node: bit for bit the draws of
            # c calls of rng.permutation(n_features)
            cand = np.concatenate([
                rngs[t].permuted(np.tile(np.arange(n_features), (c, 1)), axis=1)
                for t, c in enumerate(np.bincount(tree[searching], minlength=hp.n_trees))
                if c
            ])
            cand = np.sort(cand[:, : hp.max_features], axis=1)
            for block, c in _blocks(count[searching], hp.max_features * Y.shape[1]):
                nodes = searching[block]
                padded = start[nodes, None] + np.minimum(np.arange(c), count[nodes, None] - 1)
                feature[nodes], threshold[nodes] = _best_splits(
                    X, Y, rows[padded], count[nodes], cand[block]
                )
        # a split node's children are nodes 2r and 2r + 1 of the next level,
        # r its rank among the level's split nodes; left before right, each
        # child keeps its parent's row order
        split = feature >= 0
        rank = np.cumsum(split) - 1
        left = np.where(split, first + len(count) + 2 * rank, -1)
        levels.append((tree, feature, threshold, value, left))
        first += len(count)
        if not split.any():
            break
        owner = np.repeat(np.arange(len(count)), count)
        go_left = X[rows, feature[owner]] <= threshold[owner]
        keep = split[owner]
        child = 2 * rank[owner[keep]] + ~go_left[keep]
        rows = rows[keep][np.argsort(child, kind="stable")]
        count = np.bincount(child, minlength=2 * np.count_nonzero(split))
        tree = np.repeat(tree[split], 2)

    # level order -> table order: a stable sort by tree keeps each tree
    # breadth first
    tree, feature, threshold, value, left = (np.concatenate(c) for c in zip(*levels))
    order = np.argsort(tree, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    split = feature >= 0
    left, right = (np.where(split, position[left + side], -1)[order] for side in (0, 1))
    roots = np.searchsorted(tree[order], np.arange(hp.n_trees))
    return feature[order], threshold[order], left, right, value[order], roots


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

    *columns, roots = _grow(X, Y, hp)
    return RegressionForest(
        *columns,
        roots=roots,
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
