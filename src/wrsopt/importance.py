"""Per-dimension importance from phase-1 trials, via regression-forest
functional ANOVA, and the mapping from importance weights to change
probabilities.

Trees are fit by greedy variance reduction on the space's number line
(``space.to_ordinal``: categoricals by list index).  Main-effect variances
are computed exactly from the fitted piecewise-constant predictor: every
leaf is an axis-aligned box, so marginalizing over all-but-one dimension
reduces to weighted sums of box masses.  Integer and categorical axes
carry counting measure, real axes uniform (Lebesgue) measure, matching how
phase-1 sampling actually distributes points.

The trees grow level by level, as in CART's presorted growth (Breiman et
al., 1984): each depth handles the whole frontier of every tree at once,
with one stable row-wise sort of every padded (node, dimension) row, one
scoring of every cut of those rows, and one stable partition into the
children.  The forest is the one a node-by-node recursion would grow, bit
for bit, because every rounding step keeps the operation and order of that
recursion:

* node means and the re-scored sums of a cut's two sides are ``np.sum`` of
  rows of equal length, numpy's pairwise summation as on the 1-D slice;
* a node's SSE ``yc @ yc`` is a batched ``(k, 1, L) @ (k, L, 1)`` matmul,
  the same BLAS dot;
* prefix sums are ``np.cumsum`` along padded rows, which is sequential;
* the cut is the first minimum of its dimension, as ``np.argmin`` picks
  it along the row, the dimension the first maximum gain above 1e-15;
  leaves come out depth-first, left before right.

The recursion ranks a node's dimensions by gains re-scored from each cut's
two sides in sample order.  Only contested nodes pay for that re-score:
those where the best prefix-sum gain lies within ``CUT_MARGIN`` times the
node's SSE of another dimension's gain or of 1e-15, where a figure is not
finite, or where the node is too large for the rounding bound.  Elsewhere
the two gains differ by rounding far below that margin, so they pick the
same split (``_best_splits`` gives the bound).  For the same reason a
contested node within the bound re-scores only the dimensions whose
prefix-sum gain lies within the margin of its best; the others can
neither win nor decide the 1e-15 test.

Main effects handle all axes of a tree at once: one stable sort ranks
every axis's edges, one product gives every leaf's mass off each axis, and
each segment's marginal adds its covering leaves' contributions in leaf
order, as the per-leaf loop did, by ``np.bincount``, which adds its weights
in input order; ``v_i`` stays one ``np.sum`` per axis.
``FIT_ELEMENT_BUDGET`` bounds the nodes of one padded chunk of the split
search and the leaves of one block of marginal sums.

The callers are cli, after its argument parser, and the engine's run loop,
after RunConfig.validate, so nothing here checks its arguments again.  What
is refused is what the trials can cause: fewer than two distinct usable
candidates, scores without variance, and weights that are not finite or
all zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .space import SearchSpace, candidate_key, ordinal_bounds, to_ordinal
from .triallog import TrialRecord


# floor of every change probability derived from importance weights
P_MIN = 0.01

# array elements the fit works on at once: (node, dimension) rows x longest
# node of one padded chunk of the split search, leaves x segments of one
# block of the main-effect marginal sums
FIT_ELEMENT_BUDGET = 8192

# share of a node's SSE within which two cut gains, or a gain and 1e-15, count
# as contested and are re-scored in sample order
CUT_MARGIN = 2.0**-20


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


@dataclass(frozen=True)
class TreeModel:
    """Leaves of one fitted tree: boxes (L, d, 2), means (L,), split dims used."""

    leaf_boxes: np.ndarray
    leaf_means: np.ndarray
    split_dims: tuple[int, ...]


@dataclass(frozen=True)
class Forest:
    trees: tuple[TreeModel, ...]


def root_box(space: SearchSpace) -> np.ndarray:
    """Bounding box of the encoded space, (d, 2).

    Counting-measure axes (int, cat) use half-open integer ranges so that
    interval masses count whole values: an int dimension [3, 6] becomes
    [3, 7) holding four unit-mass points.  The edge high + 1 is added in
    Python ints, so it stays exact past 2**53.
    """
    low, high, counting = ordinal_bounds(space)
    return np.array([(a, b + 1 if c else b) for a, b, c in zip(low, high, counting.tolist())], dtype=float)


def _interval_mass(lo: np.ndarray, hi: np.ndarray, counting: np.ndarray | bool) -> np.ndarray:
    """Unnormalized measure of [lo, hi) per entry; ``counting`` marks the
    counting-measure entries and broadcasts against the bounds."""
    return np.where(counting, np.ceil(hi) - np.ceil(lo), hi - lo)


def encode_trials(trials: Sequence[TrialRecord], space: SearchSpace) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix of the trials' points on the number line, as floats,
    and their score vector.

    fit_forest, the one caller, passes usable trials only, at least two of
    them; their values lie in the space, as read_log guarantees for a log.
    """
    X = np.array([to_ordinal(space, t.values) for t in trials], dtype=float)
    return X, np.array([float(t.score) for t in trials])


def _equal_length_rows(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Yield (selection, length, rows) for the segments ``values[s : s + length]``
    of each length, gathered as the rows of one 2-D array.

    numpy sums each row of a 2-D array along axis 1 with the same pairwise
    summation it runs on the 1-D slice; a row padded to another length
    would be summed in another order.
    """
    order = np.argsort(lengths, kind="stable")
    sizes = lengths[order]
    begins = np.ones(order.size, dtype=bool)  # where a run of one length begins
    np.not_equal(sizes[1:], sizes[:-1], out=begins[1:])
    cuts = np.flatnonzero(begins).tolist() + [order.size]
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
    Every cut of every row is scored at once, and a cut that is not valid
    scores +inf.

    A dimension's cut is the first minimum of its prefix-sum SSE, as
    ``np.argmin`` picks it (a NaN first); in a row whose minimum is +inf
    that is its first valid cut.  The recursion ranks the dimensions, and
    tests the best against 1e-15, by each cut's gain re-scored from its two
    sides in sample order.  The prefix-sum gain ``base_sse - sse`` differs
    from that gain by rounding of at most about ``4 * n**1.5 * 2**-53 *
    base_sse`` on a node of n samples, measured at no more than 3.5e-15 *
    base_sse on the benchmark shapes.  For n <= 2**18 that is below a
    sixteenth of ``CUT_MARGIN * base_sse``, so where no second dimension
    lies within the margin of the best and the best does not lie within it
    of 1e-15, both gains make the same pick.  Only the other, contested
    nodes are re-scored; the rest take their best prefix gain as it is.
    Within a contested node, a dimension whose prefix gain lies more than
    the margin below the best re-scores to more than 14/16 of the margin
    below the best's re-scored gain: it cannot win, and when the best gains
    no more than 1e-15 neither does it.  So only the dimensions within the
    margin are re-scored, unless a gain is not finite or the node holds
    more than 2**18 samples, where the bound does not hold and every
    dimension with a valid cut is.
    The cut after a row's last sample divides 0.0 by its empty right side,
    and overflowed scores make inf - inf: the caller ignores invalid
    operations, as ``fit_forest`` does.
    """
    k, d = start.size, X.shape[1]
    width = int(count.max())
    pos = np.arange(width)
    inside = pos < count[:, None]
    at = np.where(inside, start[:, None] + pos, 0)
    xs = np.where(inside[:, None, :], X[rows[at]].transpose(0, 2, 1), np.inf)
    ys = np.where(inside, yc[at], 0.0)
    order = np.argsort(xs, axis=2, kind="stable")
    node, dim = np.arange(k)[:, None], np.arange(d)
    # flat gathers: row r = node * d + dim of the (k, d, width) arrays starts at r * width
    xs_s = xs.ravel()[order + (node * d + dim)[:, :, None] * width]
    ys_s = ys.ravel()[order + node[:, :, None] * width]
    csum = np.cumsum(ys_s, axis=2)
    csum2 = np.cumsum(ys_s**2, axis=2)

    # a cut after position p sits between consecutive distinct values and
    # leaves min_leaf a side; padding adds 0.0, so the last column is the total
    nl = pos[1:]
    nr = count[:, None] - nl
    ok = (xs_s[:, :, 1:] > xs_s[:, :, :-1]) & ((nl >= min_leaf) & (nr >= min_leaf))[:, None, :]
    sl, sl2 = csum[:, :, :-1], csum2[:, :, :-1]
    sr, sr2 = csum[:, :, -1:] - sl, csum2[:, :, -1:] - sl2
    sse = np.where(ok, (sl2 - sl * sl / nl) + (sr2 - sr * sr / nr[:, None, :]), np.inf)
    p = np.argmin(sse, axis=2)
    p = np.where(sse[node, dim, p] == np.inf, np.argmax(ok, axis=2), p)
    a, b = xs_s[node, dim, p], xs_s[node, dim, p + 1]
    mid = 0.5 * (a + b)
    # a midpoint that rounds onto a (or overflows) would move the cut; b
    # itself still separates the two sides
    thr = np.where((a < mid) & (mid <= b), mid, b)

    # a node is contested when rounding could change its pick: a second
    # dimension within the margin of the best, the best within it of
    # 1e-15, or a node the bound does not cover, with a figure that is not
    # finite or too many samples
    has = ok.any(axis=2)
    gain = np.where(has, base_sse[:, None] - sse[node, dim, p], -np.inf)
    top = gain.max(axis=1)
    margin = CUT_MARGIN * base_sse
    near = has & (gain >= (top - margin)[:, None])
    unbounded = (has & ~np.isfinite(gain)).any(axis=1) | (count > 2**18)
    contested = (near.sum(axis=1) > 1) | (np.abs(top - 1e-15) <= margin) | unbounded

    # re-score the cuts of each contested node that can still win from their
    # partitions in sample order, so two dims inducing the same partition get
    # bit-identical gains and the first dim wins the tie; a node the bound
    # does not cover re-scores every dimension with a valid cut
    ri, rd = np.nonzero(contested[:, None] & np.where(unbounded[:, None], has, near))
    if ri.size:
        side = np.where(inside[ri], ~(xs[ri, rd] < thr[ri, rd, None]), 2)
        parted = ys[ri[:, None], np.argsort(side, axis=1, kind="stable")].ravel()
        row0 = np.arange(ri.size) * width
        n_l = p[ri, rd] + 1
        starts, lengths = np.concatenate((row0, row0 + n_l)), np.concatenate((n_l, count[ri] - n_l))
        dev = np.empty(2 * ri.size)
        for sel, m, v in _equal_length_rows(parted, starts, lengths):
            dev[sel] = ((v - (v.sum(axis=1) / m)[:, None]) ** 2).sum(axis=1)
        gain[ri, rd] = base_sse[ri] - (dev[: ri.size] + dev[ri.size :])
    gain[~(gain > 1e-15)] = -np.inf
    best = np.argmax(gain, axis=1)
    pick = np.arange(k), best
    return np.where(gain[pick] > -np.inf, best, -1), thr[pick]


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


def fit_forest(trials: Sequence[TrialRecord], space: SearchSpace, config: ForestConfig,
               rng: np.random.Generator) -> Forest:
    """Fit the regression forest on the usable trials.

    Requires at least two distinct candidates among the usable trials and
    raises ZeroVarianceError when their scores are all equal.
    """
    usable = [t for t in trials if not t.failed]
    distinct = {candidate_key(space, t.values) for t in usable}
    if len(usable) < 2 or len(distinct) < 2:
        raise ImportanceError(f"need at least 2 usable trials with distinct candidates, have {len(distinct)}")
    X, y = encode_trials(usable, space)
    if np.ptp(y) == 0.0:
        raise ZeroVarianceError("scores carry no variance; weights undefined")
    # scores near float range overflow the split sums; their weights are refused later
    with np.errstate(over="ignore", invalid="ignore"):
        trees = _grow_trees(X, y, root_box(space), config, rng.spawn(config.n_trees))
    return Forest(trees=tuple(trees))


def _tree_fractions(tree: TreeModel, root: np.ndarray, counting: np.ndarray) -> np.ndarray | None:
    """Exact per-dimension main-effect variance shares for one tree.

    Returns None when the tree's predictor has zero variance over the box
    (a constant bootstrap resample), which the forest average skips.  All
    axes are handled at once; every figure keeps the operation and order of
    a per-axis loop, and each segment's marginal is added in leaf order by
    one ``np.bincount`` per block of leaves.  A real axis of zero width
    holds a single point: every leaf has mass 1 on it, and with one edge
    and no segment its share is ``100 * max(0 - mean**2, 0) / var``, 0.
    """
    boxes, mus = tree.leaf_boxes, tree.leaf_means
    n_leaves, d = boxes.shape[0], root.shape[0]
    axis_total = _interval_mass(root[:, 0], root[:, 1], counting)
    lo, hi = boxes[:, :, 0], boxes[:, :, 1]
    mass = np.divide(_interval_mass(lo, hi, counting), axis_total, out=np.ones((n_leaves, d)), where=axis_total != 0.0)
    w = mass.prod(axis=1)
    mean = float(np.sum(w * mus))
    var = float(np.sum(w * mus**2) - mean * mean)
    if var <= 0.0:
        return None

    # the leaf boxes' edges on each axis, ranked by one stable sort:
    # a value's rank among the distinct edges is the segment it starts
    edges = np.concatenate((lo, hi), axis=0).T  # (axis, lows then highs)
    order = np.argsort(edges, axis=1, kind="stable")
    ranked = np.take_along_axis(edges, order, axis=1)
    distinct = np.ones(ranked.shape, dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=distinct[:, 1:])
    rank = np.empty(ranked.shape, dtype=np.int64)
    np.put_along_axis(rank, order, np.cumsum(distinct, axis=1) - 1, axis=1)
    left, right = rank[:, :n_leaves].T, rank[:, n_leaves:].T  # (leaf, axis)
    n_seg = distinct.sum(axis=1) - 1
    # one column per (axis, segment), the axes one after another
    seg_start = np.cumsum(n_seg) - n_seg
    col_axis = np.repeat(np.arange(d), n_seg)
    col = np.arange(col_axis.size)
    # every axis holds one edge more than segments, so the lower edge of
    # column c on axis a is distinct edge c + a
    edge, lower = ranked[distinct], col + col_axis
    seg_lo, seg_hi = edge[lower], edge[lower + 1]

    # w_minus of a leaf on an axis: the product of its masses on the other axes
    others = np.arange(d - 1) + (np.arange(d - 1) >= np.arange(d)[:, None])
    contrib = np.prod(mass[:, others], axis=2) * mus[:, None]  # (leaf, axis)

    # each segment's marginal adds the contributions of the leaves that
    # cover it one after another in leaf order, starting from 0.0, as
    # np.bincount adds its weights in input order: in each block of leaves
    # the running sums enter first (0.0 + m is m), then the covered columns
    # of every (leaf, axis) pair, leaf-major
    marginal = np.zeros(col.size)
    first_col, n_cov = left + seg_start, right - left  # (leaf, axis)
    step = max(1, FIT_ELEMENT_BUDGET // col.size)
    for first in range(0, n_leaves, step):
        blk = slice(first, first + step)
        n = n_cov[blk].ravel()
        covered = np.arange(n.sum()) + np.repeat(first_col[blk].ravel() - (np.cumsum(n) - n), n)
        weights = np.repeat(contrib[blk].ravel(), n)
        marginal = np.bincount(np.concatenate((col, covered)), weights=np.concatenate((marginal, weights)))
    seg_mass = _interval_mass(seg_lo, seg_hi, counting[col_axis]) / axis_total[col_axis]
    terms = seg_mass * marginal**2
    out = np.empty(d)
    for i, (s0, m) in enumerate(zip(seg_start, n_seg)):
        v_i = float(np.sum(terms[s0 : s0 + m]) - mean * mean)
        out[i] = 100.0 * max(v_i, 0.0) / var
    return out


def main_effect_fractions(forest: Forest, space: SearchSpace) -> tuple[float, ...]:
    """Average the exact per-tree variance shares into percent weights.

    One main-effect share of total variance per dimension. The shares need
    not sum to 100; the remainder is interaction variance.
    """
    root = root_box(space)
    counting = ordinal_bounds(space)[2]
    with np.errstate(over="ignore", invalid="ignore"):
        per_tree = [f for t in forest.trees if (f := _tree_fractions(t, root, counting)) is not None]
    if not per_tree:
        raise ImportanceError("every tree in the forest is constant")
    return tuple(float(v) for v in np.mean(per_tree, axis=0))


def weights_to_probabilities(weights: Sequence[float]) -> tuple[float, ...]:
    """Map weights to change probabilities: p_i = w_i / max(w), floored at P_MIN.

    The argmax dimension lands at exactly 1.0; every other probability stays
    positive so no dimension is permanently frozen.  The weights are
    main-effect shares, never negative; a share that overflowed to inf or
    NaN, or all of them zero, is refused.
    """
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ImportanceError("weights must be finite")
    top = w.max()
    if top == 0.0:
        raise ImportanceError("all weights are zero; probabilities undefined")
    return tuple(float(max(x / top, P_MIN)) for x in w)
