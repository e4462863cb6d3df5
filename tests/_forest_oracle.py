"""The recursive tree grower and the per-leaf marginal loop that
``wrsopt.importance`` used before it grew trees level by level, kept as test
oracles.

``_fit_tree`` is the old per-node code with one change, the threshold rule
for values one ulp apart, which the level-wise grower shares.
``_tree_fractions`` is the old code unchanged.  The tests compare each with
its replacement byte for byte.  ``encode`` builds the samples both grow on.
"""

from __future__ import annotations

import numpy as np

from wrsopt.importance import ForestConfig, TreeModel, _interval_mass
from wrsopt.space import to_ordinal


def encode(trials, space) -> tuple[np.ndarray, np.ndarray]:
    """The samples fit_forest grows its trees on: each trial's point on the
    number line, as floats, and its score."""
    X = np.array([to_ordinal(space, t.values) for t in trials], dtype=float)
    return X, np.array([float(t.score) for t in trials])


def _fit_tree(X: np.ndarray, y: np.ndarray, root: np.ndarray, config: ForestConfig,
              rng: np.random.Generator) -> TreeModel:
    n, d = X.shape
    idx = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
    boxes: list[np.ndarray] = []
    means: list[float] = []
    used_dims: set[int] = set()

    def grow(indices: np.ndarray, box: np.ndarray, depth: int) -> None:
        ys = y[indices]
        if depth >= config.max_depth or len(indices) < 2 * config.min_leaf or np.ptp(ys) == 0.0:
            boxes.append(box)
            means.append(float(ys.mean()))
            return
        n_node = len(indices)
        # center once per node: shifts leave every SSE unchanged but avoid
        # catastrophic cancellation in the prefix-sum trick at deep nodes
        yc = ys - ys.mean()
        base_sse = float(yc @ yc)
        best = None  # (gain, dim, threshold)
        for dim in range(d):
            xs = X[indices, dim]
            order = np.argsort(xs, kind="stable")
            xs_s, ys_s = xs[order], yc[order]
            # split points sit between consecutive distinct observed values
            cut = np.nonzero(np.diff(xs_s) > 0)[0]
            if cut.size == 0:
                continue
            nl = cut + 1
            nr = n_node - nl
            ok = (nl >= config.min_leaf) & (nr >= config.min_leaf)
            if not ok.any():
                continue
            nl, pos = nl[ok], cut[ok]
            nr = n_node - nl
            csum = np.cumsum(ys_s)
            csum2 = np.cumsum(ys_s**2)
            sl, sl2 = csum[pos], csum2[pos]
            sr, sr2 = csum[-1] - sl, csum2[-1] - sl2
            sse = (sl2 - sl * sl / nl) + (sr2 - sr * sr / nr)
            j = int(np.argmin(sse))
            a, b = xs_s[pos[j]], xs_s[pos[j] + 1]
            mid = 0.5 * (a + b)
            # a midpoint that rounds onto a (or overflows) would move the
            # cut; b itself still separates the two sides
            thr = mid if a < mid <= b else b
            # re-score the winning cut from the partition itself so two dims
            # inducing the same partition get bit-identical gains and the
            # first dim wins the tie deterministically
            mask = xs < thr
            yl, yr = yc[mask], yc[~mask]
            gain = base_sse - float(((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum())
            if gain > 1e-15 and (best is None or gain > best[0]):
                best = (gain, dim, thr)
        if best is None:
            boxes.append(box)
            means.append(float(ys.mean()))
            return
        _, dim, thr = best
        used_dims.add(dim)
        mask = X[indices, dim] < thr
        lbox, rbox = box.copy(), box.copy()
        lbox[dim, 1] = thr
        rbox[dim, 0] = thr
        grow(indices[mask], lbox, depth + 1)
        grow(indices[~mask], rbox, depth + 1)

    grow(idx, root.copy(), 0)
    return TreeModel(
        leaf_boxes=np.array(boxes),
        leaf_means=np.array(means),
        split_dims=tuple(sorted(used_dims)),
    )


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
        marginal = np.zeros(edges.size - 1)
        contrib = w_minus * mus
        for li, ri, c in zip(left, right, contrib):
            marginal[li:ri] += c
        seg_mass = _interval_mass(edges[:-1], edges[1:], bool(counting[i])) / axis_total[i]
        v_i = float(np.sum(seg_mass * marginal**2) - mean * mean)
        out[i] = 100.0 * max(v_i, 0.0) / var
    return out
