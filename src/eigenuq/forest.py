"""Random regression forest: bagged CART trees with multi-output leaves.

Splits minimize the weighted child sum-of-squared-errors summed over all
target dimensions, left to right; candidate thresholds are midpoints between
consecutive sorted unique feature values. Ties break to the lowest
feature index, then the smallest threshold, so training is fully
deterministic given (X, Y, hyperparameters).

All trees grow together, one level at a time. Each tree's generator
draws its bootstrap sample, then one candidate-feature set per node that
searches for a split, in breadth-first order: level by level, and left
child before right within a level.

Each fit ranks every X column once. A node's rows then sort on unique
integer keys, rank and place, in the order a stable sort of the values
gives. A node stops on constant targets where every target column has a
variance of 0; a node whose targets differ by 1e-140 or more in some
column is known to vary without one (``_differ``).

Each tree is laid out breadth first, so its layout gives its children:
those of its j-th split node are its nodes 2j + 1 and 2j + 2, and a tree
of k split nodes has 2k + 1 nodes. No child index is stored.
"""

from __future__ import annotations

import binascii
import json
import re
from dataclasses import asdict, dataclass, field

import numpy as np

SCHEMA_VERSION = 4

# base64 of the standard alphabet, padded: with a length that is a multiple
# of 4, this is the text binascii.a2b_base64 decodes without skipping a
# character or guessing the padding
_BASE64 = re.compile("[A-Za-z0-9+/]*={0,2}")


@dataclass(frozen=True)
class ForestHyperparams:
    max_depth: int
    min_samples_split: int
    max_features: int
    n_trees: int
    seed: int = 0

    def __post_init__(self):
        # a Python int each, so a forest file's 2.5, true or "30" is no
        # hyperparameter (true == 1, and 2.5 would pass the bounds)
        for name in ("max_depth", "min_samples_split", "max_features", "n_trees"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


# Table-style defaults per target kind (the keys of dns.TARGET_NAMES).
HYPERPARAMS = {
    "p": ForestHyperparams(max_depth=6, min_samples_split=6, max_features=3, n_trees=30),
    "pcorr": ForestHyperparams(max_depth=9, min_samples_split=4, max_features=3, n_trees=15),
    "pcorr_angles": ForestHyperparams(max_depth=9, min_samples_split=4, max_features=3, n_trees=30),
}


@dataclass
class RegressionForest:
    """All trees in one node table; tree t starts at node ``roots[t]``,
    breadth first. Leaves have feature -1, and only leaves have a value:
    ``value`` holds one row per leaf, the mean target of its training
    rows, in the table's node order. Derived from ``feature`` and
    ``roots``: ``left`` and ``right``, table-wide child indices (-1 at a
    leaf), and ``leaf``, each node's row of ``value`` (-1 at a split)."""

    feature: np.ndarray  # (n_nodes,) int
    threshold: np.ndarray  # (n_nodes,)
    value: np.ndarray  # (n_leaves, n_targets)
    roots: np.ndarray  # (n_trees,) int, ascending from 0
    hyperparams: ForestHyperparams
    feature_names: list[str] = field(default_factory=list)
    target_names: list[str] = field(default_factory=list)
    n_features: int = 0
    left: np.ndarray = field(init=False, repr=False)
    right: np.ndarray = field(init=False, repr=False)
    leaf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        split = self.feature >= 0
        before = np.cumsum(split) - split  # split nodes before each node
        root = np.repeat(self.roots, np.diff([*self.roots, len(self.feature)]))
        self.left = np.where(split, root + 2 * (before - before[root]) + 1, -1)
        self.right = np.where(split, self.left + 1, -1)
        self.leaf = np.where(split, -1, np.cumsum(~split) - 1)

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
        for leaf_values in self.value[self.leaf[node]]:
            out += leaf_values
        return out / len(self.roots)

    def predict_one(self, x: np.ndarray) -> np.ndarray:
        """One row, tree by tree: the reference ``predict`` must match."""
        out = np.zeros(self.n_targets)
        for i in self.roots:
            while self.feature[i] >= 0:
                i = self.left[i] if x[self.feature[i]] <= self.threshold[i] else self.right[i]
            out += self.value[self.leaf[i]]
        return out / len(self.roots)


# Cap on the elements of one block (nodes x rows x candidates x targets),
# and on the targets of one run of the spread pre-test (``_differ``): it
# bounds the transient memory of a level of growth.
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


def _ranks(X):
    """The dense rank of every entry of X within its column: equal values,
    -0.0 and 0.0 among them, share a rank, and ranks rise with the value."""
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    sorted_rank = np.zeros(X.shape, dtype=np.int64)
    np.cumsum(xs[1:] > xs[:-1], axis=0, out=sorted_rank[1:])
    rank = np.empty_like(sorted_rank)
    np.put_along_axis(rank, order, sorted_rank, axis=0)
    return rank


def _prefix_sums(a):
    """``a`` with its prefix sums along the last axis, in place, in
    ``np.cumsum``'s order. Along an axis of at most 16 entries the sums
    run as slab adds: numpy's accumulate makes one inner-loop call per
    row, which costs 3-5x more per element there."""
    if a.shape[-1] > 16:
        return np.cumsum(a, axis=-1, out=a)
    for k in range(1, a.shape[-1]):
        a[..., k] += a[..., k - 1]
    return a


def _sorted_rows(ranks, rows, count, cand):
    """Each candidate's rows in the order a stable sort of its values gives,
    (nodes, m, n), padding last, and whether the value rises after each
    position but the last, (nodes, m, n - 1), never into the padding.
    Rows sort on the unique keys (rank, place): the dense rank of the
    value (``_ranks``) and the row's place in its node, padding on rank
    len(ranks). A key holds the place in its low bits, so the sorted keys
    give both the order and the ranks. Flat np.take gathers faster than
    fancy indexing on several axes."""
    B, n = rows.shape
    place = np.arange(n)
    pad = place >= count[:, None, None]
    bits = (n - 1).bit_length()
    rank = np.take(ranks, rows[:, None, :] * ranks.shape[1] + cand[:, :, None])
    key = np.sort(np.where(pad, len(ranks), rank) << bits | place, axis=2)
    rows = np.take(rows, (key & ((1 << bits) - 1)) + (np.arange(B) * n)[:, None, None])
    key >>= bits
    return rows, (key[:, :, 1:] > key[:, :, :-1]) & ~pad[:, :, 1:]


def _best_splits(X, YY, ranks, rows, count, cand):
    """The best split on each candidate of each node of a block: its
    ``count`` rows, padded to ``rows`` (nodes, n) with copies of its last
    row, and its ascending candidate features ``cand`` (nodes, m).
    ``ranks`` holds the dense ranks of X's columns (``_ranks``),
    C-contiguous, and ``YY`` the w target columns, then their squares, as
    2w C-contiguous rows. Returns, each (nodes, m): whether the candidate
    takes two distinct values, the least SSE of its splits, and the
    threshold of the first split of that SSE."""
    B, n = rows.shape
    m = cand.shape[1]
    rows, boundary = _sorted_rows(ranks, rows, count, cand)
    # the targets first, (2w, nodes, m, n): prefix sums run along contiguous
    # rows, and a sum over the targets is w - 1 adds of whole slabs, left
    # to right, the order in which np.sum adds fewer than 8 columns
    c = _prefix_sums(np.take(YY, rows, axis=1))
    w = len(c) // 2
    c1, c2 = c[:w], c[w:]
    cell = np.arange(B * m).reshape(B, m)  # (node, candidate), flat
    tot = np.take(c.reshape(2 * w, -1), cell * n + (count - 1)[:, None], axis=1)[..., None]
    tot1, tot2 = tot[:w], tot[w:]
    # the SSE of every left/right partition. Each step below is an
    # operation of ``c2 - c1**2 / nl`` and ``(tot2 - c2) - (tot1 - c1)**2 /
    # nr``, in that order, done in place on whole arrays with divisors as
    # wide as a target's slab, so numpy runs long inner loops
    nl = np.empty((B, m, n))
    nl[...] = np.arange(1.0, n + 1)
    right = np.square(tot1 - c1)
    right /= np.maximum(count[:, None, None] - nl, 1.0)  # 1 in the padding
    right = np.subtract(tot2 - c2, right, out=right)
    left = np.square(c1, out=c1)
    left /= nl
    left = np.subtract(c2, left, out=left)
    for k in range(1, w):
        left[0] += left[k]
        right[0] += right[k]
    left[0] += right[0]
    sse = np.where(boundary, left[0, :, :, :-1], np.inf)  # a split after each position
    # first minimum = smallest threshold among equal-SSE splits
    j = np.argmin(sse, axis=2)
    below, above = np.take(rows, cell * n + j), np.take(rows, cell * n + j + 1)
    threshold = 0.5 * (X[below, cand] + X[above, cand])
    return np.any(boundary, axis=2), np.take(sse, cell * (n - 1) + j), threshold


def _pick(cand, found, sse, threshold):
    """The split of each node from its candidates' best splits (see
    ``_best_splits``): the first candidate that takes two distinct values,
    unless a later one beats the best so far by the relative tolerance.
    Returns (feature, threshold), feature -1 where no candidate takes two
    distinct values."""
    pick, best = np.full(len(cand), -1), np.full(len(cand), np.inf)
    with np.errstate(invalid="ignore"):  # inf - inf before the first find
        for f in range(cand.shape[1]):
            better = found[:, f] & ((pick < 0) | (sse[:, f] < best - 1e-15 * np.maximum(1.0, best)))
            pick = np.where(better, f, pick)
            best = np.where(better, sse[:, f], best)
    node = np.arange(len(cand))
    split = pick >= 0
    return np.where(split, cand[node, pick], -1), np.where(split, threshold[node, pick], 0.0)


def _targets(Y, rows, start, count, nodes):
    """Yield (nodes, y): the given nodes in blocks, with their targets y
    (nodes, c, targets). Every node of a block has c rows, so numpy sums
    each node's rows as it sums them for that node alone."""
    for block, c in _blocks(count[nodes], Y.shape[1], equal=True):
        yield nodes[block], np.take(Y, rows[start[nodes[block], None] + np.arange(c)], axis=0)


def _differ(Y, rows, start, count, nodes):
    """Whether the targets of each of the given nodes differ by 1e-140 or
    more in some column, which proves a positive variance there: some
    |y - mean| is then at least about 5e-141, its square at least about
    2.5e-281, and neither the sum of the squares nor its division by the
    count brings that to 0. Runs of nodes hold at most ``_BLOCK_ELEMENTS``
    targets each, a larger node alone."""
    differ = np.empty(len(nodes), dtype=bool)
    c = count[nodes]
    end = np.cumsum(c)
    first = end - c  # each node's first row among the nodes' rows
    cap = _BLOCK_ELEMENTS // Y.shape[1]
    s = 0
    while s < len(nodes):
        e = max(s + 1, int(np.searchsorted(end, first[s] + cap, side="right")))
        at = np.repeat(start[nodes[s:e]] - first[s:e], c[s:e]) + np.arange(first[s], end[e - 1])
        y = np.take(Y, rows[at], axis=0)
        offsets = first[s:e] - first[s]
        spread = np.maximum.reduceat(y, offsets) - np.minimum.reduceat(y, offsets)
        differ[s:e] = np.any(spread >= 1e-140, axis=1)
        s = e
    return differ


def _grow(X: np.ndarray, Y: np.ndarray, hp: ForestHyperparams):
    """Grow all trees together, one level per pass; each tree draws its
    bootstrap, then one candidate set per searching node in breadth-first
    order. Returns the node columns feature and threshold, the leaf
    values and the roots: tree by tree, breadth first within a tree.
    Only a node that may split gets the constant-target check, and only
    a leaf gets its mean target. The check computes the variances only
    of nodes whose targets differ by less than 1e-140 in every column
    (``_differ``)."""
    n, n_features = X.shape
    ranks = _ranks(X)
    YY = np.concatenate([Y.T, np.square(Y.T)])
    rngs = [np.random.default_rng([hp.seed, t]) for t in range(hp.n_trees)]
    # the open nodes of a level, ordered by tree, then breadth first;
    # their rows are concatenated in ``rows``
    tree = np.arange(hp.n_trees)
    count = np.full(hp.n_trees, n)
    rows = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
    levels = []  # per level: tree, feature, threshold, value
    for depth in range(hp.max_depth + 1):
        start = np.cumsum(count) - count
        # the stop checks: depth, min_samples_split, constant targets
        search = (count >= hp.min_samples_split) & (depth < hp.max_depth)
        maybe = np.flatnonzero(search)
        undecided = maybe[~_differ(Y, rows, start, count, maybe)]
        for nodes, y in _targets(Y, rows, start, count, undecided):
            search[nodes] = ~np.all(y.var(axis=1) <= 0.0, axis=1)
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
            found = np.empty(cand.shape, dtype=bool)
            sse, cut = np.empty(cand.shape), np.empty(cand.shape)
            for block, c in _blocks(count[searching], hp.max_features * Y.shape[1]):
                nodes = searching[block]
                padded = start[nodes, None] + np.minimum(np.arange(c), count[nodes, None] - 1)
                found[block], sse[block], cut[block] = _best_splits(
                    X, YY, ranks, rows[padded], count[nodes], cand[block]
                )
            feature[searching], threshold[searching] = _pick(cand, found, sse, cut)
        is_leaf = feature < 0
        slot = np.cumsum(is_leaf) - 1  # a leaf's row of ``value``
        value = np.empty((slot[-1] + 1, Y.shape[1]))
        for nodes, y in _targets(Y, rows, start, count, np.flatnonzero(is_leaf)):
            value[slot[nodes]] = y.mean(axis=1)
        levels.append((tree, feature, threshold, value))
        # a split node's children are nodes 2r and 2r + 1 of the next level,
        # r its rank among the level's split nodes; left before right, each
        # child keeps its parent's row order
        split = feature >= 0
        rank = np.cumsum(split) - 1
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
    tree, feature, threshold, value = (np.concatenate(c) for c in zip(*levels))
    order = np.argsort(tree, kind="stable")
    roots = np.searchsorted(tree[order], np.arange(hp.n_trees))
    is_leaf = feature < 0
    # ``value`` holds the leaves in level order
    value = value[(np.cumsum(is_leaf) - 1)[order[is_leaf[order]]]]
    return feature[order], threshold[order], value, roots


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
    if Y.shape[1] == 0:
        raise ValueError("no target columns")
    if X.shape[0] < 1:
        raise ValueError("training data is empty")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValueError("training data contains non-finite values")
    if hp.max_features > X.shape[1]:
        raise ValueError("max_features exceeds the feature count")

    return RegressionForest(
        *_grow(X, Y, hp),
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


def _base64(a: np.ndarray) -> str:
    """The base64 text of ``a``'s little-endian float64 bytes, row-major."""
    raw = np.asarray(a, dtype="<f8").tobytes()
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def save(forest: RegressionForest, path) -> None:
    """Schema 4: one object per tree. ``split_feature`` has an entry for
    every node, breadth first, -1 at a leaf; the children follow from
    that layout (see the module docstring). The floats are exact:
    ``threshold`` is the base64 text of the split nodes' thresholds as
    little-endian float64 bytes, in node order, and ``leaf_value`` that
    of the leaves' rows, in node order, row-major.

    The file holds the bytes ``json.dump(doc, f)`` writes, but each part
    goes through the C encoder of ``json.dumps``: the head, then one
    tree at a time, so no more than one tree's text is held at once."""
    head = json.dumps({
        "version": SCHEMA_VERSION,
        "hyperparams": asdict(forest.hyperparams),
        "feature_names": forest.feature_names,
        "target_names": forest.target_names,
        "n_features": forest.n_features,
        "n_targets": forest.n_targets,
    })
    bounds = zip(forest.roots, [*forest.roots[1:], len(forest.feature)])
    with open(path, "w") as f:
        f.write(head[:-1] + ', "trees": [')
        for t, (s, e) in enumerate(bounds):
            if t:
                f.write(", ")
            split = forest.feature[s:e] >= 0
            f.write(json.dumps({
                "split_feature": forest.feature[s:e].tolist(),
                "threshold": _base64(forest.threshold[s:e][split]),
                "leaf_value": _base64(forest.value[forest.leaf[s:e][~split]]),
            }))
        f.write("]}")


class ForestFormatError(ValueError):
    pass


def loads(text: str, name) -> RegressionForest:
    """The forest of the text of a schema-4 JSON document (see ``save``);
    a ForestFormatError names the document by ``name``. A byte-order
    mark is not JSON. A document of schema 1 or 2, which wrote its
    floats as JSON numbers, or of schema 3, which stored each split
    node's children, is rejected too: the forest has to be trained
    again. Files are read, and decoded as UTF-8, by the CLI
    (``pipeline._load_forest``)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ForestFormatError(f"{name}: not valid JSON (line {e.lineno})") from e
    version = doc.get("version") if isinstance(doc, dict) else None
    if type(version) is not int:  # JSON true is no version, though True == 1
        version = None
    if version in (1, 2, 3):
        raise ForestFormatError(
            f"{name}: schema-{version} forest file; this version reads schema "
            f"{SCHEMA_VERSION} only: re-run train"
        )
    if version != SCHEMA_VERSION:
        raise ForestFormatError(
            f"{name}: unsupported or missing version tag (expected {SCHEMA_VERSION})"
        )
    try:
        return _pack(doc)
    except (KeyError, TypeError, ValueError) as e:
        raise ForestFormatError(f"{name}: malformed forest file ({e})") from e


def _positive_int(doc, key):
    value = doc[key]
    if type(value) is not int or value < 1:
        raise ValueError(f"{key} must be a positive integer, got {value!r}")
    return value


def _names(doc, key, count):
    """The name list ``key``: a list of texts, empty or one for each of
    ``count``."""
    names = doc[key]
    if type(names) is not list or any(type(name) is not str for name in names):
        raise ValueError(f"{key} is not a list of texts")
    if names and len(names) != count:
        raise ValueError(f"{key} holds {len(names)} names, expected 0 or {count}")
    return names


def _floats(tree, t, key, rows, width, per):
    """The float field ``key`` of tree t as a (rows, width) array: a
    strict base64 text of 8 little-endian float64 bytes per entry, each
    finite. ``per`` names what one row belongs to."""
    text = tree[key]
    if type(text) is not str:
        raise ValueError(f"tree {t}: {key} is not a base64 text")
    if len(text) % 4 or not _BASE64.fullmatch(text):
        raise ValueError(f"tree {t}: {key} is not valid base64 text")
    raw = binascii.a2b_base64(text)
    if len(raw) != 8 * rows * width:
        raise ValueError(
            f"tree {t}: {key} holds {len(raw)} bytes, expected {8 * rows * width}: "
            f"{width} float64 per {per}"
        )
    a = np.frombuffer(raw, dtype="<f8").reshape(rows, width)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"tree {t}: {key} holds a non-finite entry")
    return a


def _pack(doc: dict) -> RegressionForest:
    """The node table of a schema-4 document; raises ValueError naming
    the first defect that would make ``predict`` fail, hang, misshape or
    return a non-finite value, or that contradicts the head. Each tree's
    fields leave ``doc`` once they are arrays."""
    n_features, n_targets = _positive_int(doc, "n_features"), _positive_int(doc, "n_targets")
    hyperparams = ForestHyperparams(**doc["hyperparams"])
    feature_names = _names(doc, "feature_names", n_features)
    target_names = _names(doc, "target_names", n_targets)
    trees = doc["trees"]
    if not trees:
        raise ValueError("no trees")
    if len(trees) != hyperparams.n_trees:
        raise ValueError(f"{len(trees)} trees, but hyperparams.n_trees is {hyperparams.n_trees}")
    roots, tables, offset = [], [], 0
    for t, tree in enumerate(trees):
        trees[t] = None
        # a float, text or boolean entry, which a cast to int64 would
        # truncate, parse or read as 0 or 1, is a defect
        entries = tree["split_feature"]
        feature = np.array(entries)
        if feature.size and (feature.dtype.kind != "i"
                             or feature.ndim == 1 and bool in set(map(type, entries))):
            raise ValueError(f"tree {t}: split_feature holds a non-integer entry")
        feature = feature.astype(np.int64)
        if feature.ndim != 1 or len(feature) == 0:
            raise ValueError(f"tree {t}: split_feature is not a non-empty list")
        if np.any((feature < -1) | (feature >= n_features)):
            raise ValueError(f"tree {t}: split feature outside [-1, {n_features})")
        # the children of the j-th split node are nodes 2j + 1 and 2j + 2:
        # with these two checks every route goes to higher nodes inside
        # the tree and ends at a leaf
        split = feature >= 0
        at = np.flatnonzero(split)
        m, n_split = len(feature), len(at)
        if m != 2 * n_split + 1:
            raise ValueError(
                f"tree {t}: {m} nodes, but {n_split} split nodes make {2 * n_split + 1}")
        late = np.flatnonzero(at > 2 * np.arange(n_split))
        if len(late):
            raise ValueError(f"tree {t}: split node {at[late[0]]} is not before its child "
                             f"{2 * late[0] + 1}")
        threshold = np.zeros(m)
        threshold[split] = _floats(tree, t, "threshold", n_split, 1, "split node")[:, 0]
        value = _floats(tree, t, "leaf_value", m - n_split, n_targets, "leaf")
        tables.append((feature, threshold, value))
        roots.append(offset)
        offset += m
    return RegressionForest(
        *(np.concatenate(column) for column in zip(*tables)),
        roots=np.array(roots),
        hyperparams=hyperparams,
        feature_names=feature_names,
        target_names=target_names,
        n_features=n_features,
    )
