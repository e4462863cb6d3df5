"""Per-dimension importance from phase-1 trials, via regression-forest
functional ANOVA, and the mapping from importance weights to change
probabilities and minimum fresh-sample counts.

Trees are fit by greedy variance reduction on an ordinal encoding of the
space (categoricals by list index).  Main-effect variances are computed
exactly from the fitted piecewise-constant predictor: every leaf is an
axis-aligned box, so marginalizing over all-but-one dimension reduces to
weighted sums of box masses.  Integer and categorical axes carry counting
measure, real axes uniform (Lebesgue) measure, matching how phase-1
sampling actually distributes points.

The trees grow level by level, as in CART's presorted growth (Breiman et
al., 1984): each depth handles the whole frontier of a batch of trees at
once, with one stable row-wise sort of every padded (node, dimension) row,
a vectorized cut search, and one stable partition into the children.  The
forest is the one a node-by-node recursion would grow, bit for bit, because
every rounding step keeps the operation and order of that recursion:

* node means and the re-scored sums of a cut's two sides are ``np.sum`` of
  rows of equal length, numpy's pairwise summation as on the 1-D slice;
* a node's SSE ``yc @ yc`` is a batched ``(k, 1, L) @ (k, L, 1)`` matmul,
  the same BLAS dot;
* prefix sums are ``np.cumsum`` along padded rows, which is sequential;
* the cut is the first minimum of its dimension, the dimension the first
  maximum gain above 1e-15; leaves come out depth-first, left before right.

Main effects sum each segment's leaf contributions in leaf order with
``np.cumsum`` down a leaf x segment coverage matrix, as the per-leaf loop
did.  ``FIT_ELEMENT_BUDGET`` bounds the arrays of all of this: the trees of
one batch, the nodes of one padded chunk and the leaves of one coverage
block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .space import SearchSpace, candidate_key
from .triallog import TrialRecord


# floor of every change probability derived from importance weights
P_MIN = 0.01

# array elements the fit works on at once: the bootstrap samples of the
# trees grown together in one batch, (node, dimension) rows x longest node
# of one padded chunk of the split search, leaves x segments of one block
# of the main-effect coverage matrix
FIT_ELEMENT_BUDGET = 8192


class ImportanceError(RuntimeError):
    """Importance estimation cannot proceed (too little data, bad input)."""


class ZeroVarianceError(ImportanceError):
    """All usable scores are identical; weights are undefined."""


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 30
    max_depth: int = 64
    min_leaf: int = 2
    bootstrap: bool = True

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.max_depth < 1 or self.min_leaf < 1:
            raise ImportanceError("forest configuration values must be positive")


@dataclass(frozen=True)
class TreeModel:
    """Leaves of one fitted tree: boxes (L, d, 2), means (L,), split dims used."""

    leaf_boxes: np.ndarray
    leaf_means: np.ndarray
    split_dims: tuple[int, ...]


@dataclass(frozen=True)
class Forest:
    trees: tuple[TreeModel, ...]
    n_dims: int


@dataclass(frozen=True)
class ImportanceWeights:
    """Main-effect share of total variance per dimension, in percent.

    The shares need not sum to 100; the remainder is interaction variance.
    """

    fractions: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(f < -1e-9 for f in self.fractions):
            raise ImportanceError("variance fractions cannot be negative")


def root_box(space: SearchSpace) -> np.ndarray:
    """Bounding box of the encoded space, (d, 2).

    Counting-measure axes (int, cat) use half-open integer ranges so that
    interval masses count whole values: an int dimension [3, 6] becomes
    [3, 7) holding four unit-mass points.
    """
    out = np.zeros((len(space), 2))
    for i, dim in enumerate(space.dimensions):
        if dim.kind == "real":
            out[i] = (dim.low, dim.high)
        elif dim.kind == "int":
            out[i] = (dim.low, dim.high + 1)
        else:
            out[i] = (0, len(dim.values))
    return out


def _is_counting(space: SearchSpace) -> np.ndarray:
    return np.array([d.kind != "real" for d in space.dimensions])


def _interval_mass(lo: np.ndarray, hi: np.ndarray, counting: bool) -> np.ndarray:
    """Unnormalized measure of [lo, hi) per row."""
    if counting:
        return np.ceil(hi) - np.ceil(lo)
    return hi - lo


def encode_trials(trials: Sequence[TrialRecord], space: SearchSpace) -> tuple[np.ndarray, np.ndarray]:
    """Ordinal design matrix and score vector from the usable trials.

    Failed and non-finite-score trials are dropped; categorical values map
    to their list index.
    """
    rows, ys = [], []
    cat_index = {
        i: {v: j for j, v in enumerate(dim.values)}
        for i, dim in enumerate(space.dimensions)
        if dim.kind == "cat"
    }
    for t in trials:
        if t.status == "failed" or not math.isfinite(t.score):
            continue
        row = [
            float(cat_index[i][v]) if i in cat_index else float(v)
            for i, v in enumerate(t.values)
        ]
        rows.append(row)
        ys.append(float(t.score))
    if not rows:
        return np.zeros((0, len(space))), np.zeros(0)
    return np.array(rows), np.array(ys)


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the positions where a new run of equal values begins."""
    out = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=out[1:])
    return out


def _equal_length_rows(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Yield (selection, length, rows) for the segments ``values[s : s + length]``
    of each length, gathered as the rows of one 2-D array.

    numpy sums each row of a 2-D array along axis 1 with the same pairwise
    summation it runs on the 1-D slice; a row padded to another length
    would be summed in another order.
    """
    order = np.argsort(lengths, kind="stable")
    cuts = np.flatnonzero(_run_starts(lengths[order])).tolist() + [order.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        sel = order[lo:hi]
        m = int(lengths[sel[0]])
        yield sel, m, values[starts[sel, None] + np.arange(m)]


def _best_splits(X: np.ndarray, rows: np.ndarray, yc: np.ndarray, start: np.ndarray, count: np.ndarray,
                 base_sse: np.ndarray, min_leaf: int) -> tuple[np.ndarray, np.ndarray]:
    """Best (dimension, threshold) of each node, dimension -1 where no cut gains.

    Node j holds the samples ``rows[start[j] : start[j] + count[j]]`` and
    their centered scores ``yc`` at the same positions; ``base_sse`` is
    ``yc @ yc`` per node.  Each (node, dimension) pair is one row of a
    padded chunk; padding sorts last as +inf and takes no part in a cut.
    """
    k, d = start.size, X.shape[1]
    width = int(count.max())
    pos = np.arange(width)
    inside = pos < count[:, None]
    at = np.where(inside, start[:, None] + pos, 0)
    xs = np.where(inside[:, None, :], X[rows[at]].transpose(0, 2, 1), np.inf)
    ys = np.where(inside, yc[at], 0.0)
    order = np.argsort(xs, axis=2, kind="stable")
    xs_s = np.take_along_axis(xs, order, axis=2)
    ys_s = ys[np.arange(k)[:, None, None], order]
    csum = np.cumsum(ys_s, axis=2)
    csum2 = np.cumsum(ys_s**2, axis=2)

    # cuts sit between consecutive distinct values and leave min_leaf a side
    n_left = pos[1:]
    ok = (xs_s[:, :, 1:] > xs_s[:, :, :-1]) & (n_left >= min_leaf) & (count[:, None, None] - n_left >= min_leaf)
    ci, cd, cp = np.nonzero(ok)
    dims = np.full(k, -1)
    if ci.size == 0:
        return dims, np.zeros(k)
    nl, nr = cp + 1, count[ci] - (cp + 1)
    last = count[ci] - 1
    sl, sl2 = csum[ci, cd, cp], csum2[ci, cd, cp]
    sr, sr2 = csum[ci, cd, last] - sl, csum2[ci, cd, last] - sl2
    sse = (sl2 - sl * sl / nl) + (sr2 - sr * sr / nr)

    # first minimum per (node, dimension), as np.argmin picks it (a NaN first)
    new_seg = _run_starts(ci * d + cd)
    seg = np.cumsum(new_seg) - 1
    low = np.minimum.reduceat(sse, np.flatnonzero(new_seg))[seg]
    hit = np.flatnonzero((sse == low) | (np.isnan(low) & np.isnan(sse)))
    pick = hit[_run_starts(seg[hit])]
    si, sd, sp = ci[pick], cd[pick], cp[pick]
    a, b = xs_s[si, sd, sp], xs_s[si, sd, sp + 1]
    mid = 0.5 * (a + b)
    # a midpoint that rounds onto a (or overflows) would move the cut; b
    # itself still separates the two sides
    thr = np.where((a < mid) & (mid <= b), mid, b)

    # re-score each winning cut from its partition in sample order, so two
    # dims inducing the same partition get bit-identical gains and the
    # first dim wins the tie
    side = np.where(inside[si], ~(xs[si, sd] < thr[:, None]), 2)
    parted = ys[si[:, None], np.argsort(side, axis=1, kind="stable")].ravel()
    row0 = np.arange(si.size) * width
    starts, lengths = np.concatenate((row0, row0 + nl[pick])), np.concatenate((nl[pick], nr[pick]))
    dev = np.empty(2 * si.size)
    for sel, m, v in _equal_length_rows(parted, starts, lengths):
        dev[sel] = ((v - (v.sum(axis=1) / m)[:, None]) ** 2).sum(axis=1)
    gains = np.full((k, d), -np.inf)
    gains[si, sd] = base_sse[si] - (dev[: si.size] + dev[si.size :])
    gains[~(gains > 1e-15)] = -np.inf
    best = np.argmax(gains, axis=1)
    thrs = np.zeros((k, d))
    thrs[si, sd] = thr
    found = gains[np.arange(k), best] > -np.inf
    dims[found] = best[found]
    return dims, thrs[np.arange(k), best]


def _grow_trees(X: np.ndarray, y: np.ndarray, root: np.ndarray, config: ForestConfig,
                rngs: Sequence[np.random.Generator]) -> list[TreeModel]:
    """Fit one tree per generator, all of them grown together level by level.

    The frontier holds every node of the current depth across the trees;
    ``rows`` lists their samples node after node, each node's in the order
    the recursive definition visits them.  A node becomes a leaf at
    ``max_depth``, below ``2 * min_leaf`` samples, on constant scores, or
    when no cut gains more than 1e-15; leaves come out in depth-first
    order, left before right.
    """
    n, d = X.shape
    n_trees = len(rngs)
    rows = np.concatenate([rng.integers(0, n, size=n) if config.bootstrap else np.arange(n) for rng in rngs])
    count = np.full(n_trees, n)
    tree = np.arange(n_trees)
    box = np.repeat(root[None], n_trees, axis=0)
    used = np.zeros((n_trees, d), dtype=bool)
    # per depth: indices of the split and the leaf nodes, and the leaves' boxes and means
    splits, leaves, leaf_boxes, leaf_means = [], [], [], []
    depth = 0
    while True:
        start = np.cumsum(count) - count
        yv = y[rows]
        mean = np.empty(count.size)
        base_sse = np.empty(count.size)
        yc = np.empty_like(yv)
        for sel, m, v in _equal_length_rows(yv, start, count):
            mean[sel] = v.sum(axis=1) / m
            c = v - mean[sel, None]
            # a (1, m) @ (m, 1) product per node runs the same BLAS dot as yc @ yc
            base_sse[sel] = np.matmul(c[:, None, :], c[:, :, None])[:, 0, 0]
            yc[start[sel, None] + np.arange(m)] = c
        dim = np.full(count.size, -1)
        thr = np.zeros(count.size)
        if depth < config.max_depth:
            varied = np.maximum.reduceat(yv, start) > np.minimum.reduceat(yv, start)
            nodes = np.flatnonzero((count >= 2 * config.min_leaf) & varied)
            nodes = nodes[np.argsort(-count[nodes], kind="stable")]
            i = 0
            while i < nodes.size:
                chunk = nodes[i : i + max(1, FIT_ELEMENT_BUDGET // (d * int(count[nodes[i]])))]
                dim[chunk], thr[chunk] = _best_splits(
                    X, rows, yc, start[chunk], count[chunk], base_sse[chunk], config.min_leaf
                )
                i += chunk.size
        split = np.flatnonzero(dim >= 0)
        leaf = np.flatnonzero(dim < 0)
        splits.append(split)
        leaves.append(leaf)
        leaf_boxes.append(box[leaf])
        leaf_means.append(mean[leaf])
        if split.size == 0:
            break

        # children: one stable partition of the split nodes' samples, with
        # the left child of each node right before its right child
        used[tree[split], dim[split]] = True
        owner = np.repeat(np.arange(count.size), count)
        kept = dim[owner] >= 0
        rows, owner = rows[kept], owner[kept]
        rank = np.cumsum(dim >= 0) - 1
        child = 2 * rank[owner] + ~(X[rows, dim[owner]] < thr[owner])
        rows = rows[np.argsort(child, kind="stable")]
        count = np.bincount(child, minlength=2 * split.size)
        tree = np.repeat(tree[split], 2)
        box = np.repeat(box[split], 2, axis=0)
        pair = 2 * np.arange(split.size)
        box[pair, dim[split], 1] = thr[split]
        box[pair + 1, dim[split], 0] = thr[split]
        depth += 1

    # depth-first order: count the leaves below every node bottom up, then
    # place each node's first leaf top down, a right child's after all the
    # leaves of its left sibling
    below = [np.ones(split.size + leaf.size, dtype=np.int64) for split, leaf in zip(splits, leaves)]
    for lvl in range(len(splits) - 2, -1, -1):
        below[lvl][splits[lvl]] = below[lvl + 1][0::2] + below[lvl + 1][1::2]
    tree_first = np.cumsum(below[0]) - below[0]
    first = tree_first
    at = []
    for lvl, (split, leaf) in enumerate(zip(splits, leaves)):
        at.append(first[leaf])
        if lvl + 1 < len(splits):
            first = np.repeat(first[split], 2)
            first[1::2] += below[lvl + 1][0::2]
    at = np.concatenate(at)
    boxes = np.empty((at.size, d, 2))
    means = np.empty(at.size)
    boxes[at] = np.concatenate(leaf_boxes)
    means[at] = np.concatenate(leaf_means)
    return [
        TreeModel(
            leaf_boxes=boxes[lo : lo + m].copy(),
            leaf_means=means[lo : lo + m].copy(),
            split_dims=tuple(int(i) for i in np.flatnonzero(used[t])),
        )
        for t, (lo, m) in enumerate(zip(tree_first, below[0]))
    ]


def fit_forest(
    trials: Sequence[TrialRecord],
    space: SearchSpace,
    config: ForestConfig = ForestConfig(),
    rng: np.random.Generator | None = None,
) -> Forest:
    """Fit the regression forest on the usable trials.

    Requires at least two distinct candidates among the usable trials and
    raises ZeroVarianceError when their scores are all equal.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    usable = [t for t in trials if t.status != "failed" and math.isfinite(t.score)]
    distinct = {candidate_key(space, t.values) for t in usable}
    if len(usable) < 2 or len(distinct) < 2:
        raise ImportanceError(f"need at least 2 usable trials with distinct candidates, have {len(distinct)}")
    X, y = encode_trials(usable, space)
    if np.ptp(y) == 0.0:
        raise ZeroVarianceError("scores carry no variance; weights undefined")
    root = root_box(space)
    streams = rng.spawn(config.n_trees)
    batch = max(1, FIT_ELEMENT_BUDGET // len(y))
    trees = tuple(
        tree
        for first in range(0, config.n_trees, batch)
        for tree in _grow_trees(X, y, root, config, streams[first : first + batch])
    )
    return Forest(trees=trees, n_dims=len(space))


def _tree_fractions(tree: TreeModel, root: np.ndarray, counting: np.ndarray) -> np.ndarray | None:
    """Exact per-dimension main-effect variance shares for one tree.

    Returns None when the tree's predictor has zero variance over the box
    (a constant bootstrap resample), which the forest average skips.  A real
    axis of zero width holds a single point: every leaf covers all of it, so
    it carries no variance and gets weight 0.
    """
    boxes, mus = tree.leaf_boxes, tree.leaf_means
    d = root.shape[0]
    axis_total = [
        float(_interval_mass(root[i : i + 1, 0], root[i : i + 1, 1], bool(counting[i]))[0])
        for i in range(d)
    ]
    mass = np.ones((boxes.shape[0], d))
    fixed = [total == 0.0 for total in axis_total]
    for i in range(d):
        if not fixed[i]:
            mass[:, i] = _interval_mass(boxes[:, i, 0], boxes[:, i, 1], bool(counting[i])) / axis_total[i]
    w = mass.prod(axis=1)
    mean = float(np.sum(w * mus))
    var = float(np.sum(w * mus**2) - mean * mean)
    if var <= 0.0:
        return None
    out = np.zeros(d)
    for i in range(d):
        if fixed[i]:
            continue
        edges = np.unique(boxes[:, i, :])
        left = np.searchsorted(edges, boxes[:, i, 0])
        right = np.searchsorted(edges, boxes[:, i, 1])
        w_minus = np.prod(np.delete(mass, i, axis=1), axis=1)
        contrib = w_minus * mus
        # each segment's marginal adds the contributions of the leaves that
        # cover it one after another in leaf order, starting from 0.0: the
        # running sum down a leaf x segment coverage matrix, taken in blocks
        # of leaves behind the previous block's last row
        seg = np.arange(edges.size - 1)
        marginal = np.zeros(seg.size)
        step = max(1, FIT_ELEMENT_BUDGET // seg.size)
        for lo in range(0, contrib.size, step):
            hi = lo + step
            cover = (left[lo:hi, None] <= seg) & (seg < right[lo:hi, None])
            block = np.where(cover, contrib[lo:hi, None], 0.0)
            marginal = np.cumsum(np.vstack([marginal, block]), axis=0)[-1]
        seg_mass = _interval_mass(edges[:-1], edges[1:], bool(counting[i])) / axis_total[i]
        v_i = float(np.sum(seg_mass * marginal**2) - mean * mean)
        out[i] = 100.0 * max(v_i, 0.0) / var
    return out


def main_effect_fractions(forest: Forest, space: SearchSpace) -> ImportanceWeights:
    """Average the exact per-tree variance shares into percent weights."""
    if forest.n_dims != len(space):
        raise ImportanceError("forest and space dimensionality differ")
    root = root_box(space)
    counting = _is_counting(space)
    per_tree = [f for t in forest.trees if (f := _tree_fractions(t, root, counting)) is not None]
    if not per_tree:
        raise ImportanceError("every tree in the forest is constant")
    return ImportanceWeights(fractions=tuple(float(v) for v in np.mean(per_tree, axis=0)))


def weights_to_probabilities(weights: ImportanceWeights | Sequence[float]) -> tuple[float, ...]:
    """Map weights to change probabilities: p_i = w_i / max(w), floored at P_MIN.

    The argmax dimension lands at exactly 1.0; every other probability stays
    positive so no dimension is permanently frozen.
    """
    if isinstance(weights, ImportanceWeights):
        weights = weights.fractions
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise ImportanceError("empty weight vector")
    if np.any(w < 0) or np.any(~np.isfinite(w)):
        raise ImportanceError("weights must be finite and non-negative")
    top = w.max()
    if top == 0.0:
        raise ImportanceError("all weights are zero; probabilities undefined")
    return tuple(float(max(x / top, P_MIN)) for x in w)


def min_samples_schedule(
    probs: Sequence[float],
    n0: int,
    n: int,
    overrides: dict[int, int] | None = None,
) -> tuple[int, ...]:
    """Minimum fresh-value counts k_i, default n0 for every dimension.

    Phase 1 already produces n0 fresh values per dimension, so the default
    keeps the unconditional-resampling rule from extending past the first
    weighted step.  Individual dimensions can be overridden.
    """
    if not 0 <= n0 < n:
        raise ImportanceError(f"need 0 <= n0 < n, got n0={n0} n={n}")
    k = [int(n0)] * len(probs)
    for i, v in (overrides or {}).items():
        if not 0 <= i < len(k):
            raise ImportanceError(f"override index {i} out of range")
        if v < 0:
            raise ImportanceError("k_min overrides must be non-negative")
        k[i] = int(v)
    return tuple(k)
