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
            thr = 0.5 * (xs_s[pos[j]] + xs_s[pos[j] + 1])
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
    trees = tuple(_fit_tree(X, y, root, config, streams[t]) for t in range(config.n_trees))
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
        marginal = np.zeros(edges.size - 1)
        contrib = w_minus * mus
        for li, ri, c in zip(left, right, contrib):
            marginal[li:ri] += c
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
