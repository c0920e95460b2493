"""Vital-sign regression harness: ridge-regularized linear regression and a
bootstrap random forest over Gabor features, k-fold cross-validated MAE, and
the raw temporal-FFT baseline they are compared against.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .features import FeatureRow
from .magnify import BandSpec
from .radargram import FormatError, Radargram, RangeROI, naming

MODEL_MAGIC = b"RMGM"
MODEL_VERSION = 1
# model kinds by name, with the code a model file stores for each
MODEL_KINDS = {"rf": 2, "ols": 1}


@dataclass
class Dataset:
    """Feature matrix with labels."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2 or len(self.y) != len(self.X):
            raise ValueError(f"X {self.X.shape} and y {self.y.shape} do not align")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ValueError("dataset contains non-finite values")

    @classmethod
    def from_rows(cls, rows: list[FeatureRow]) -> "Dataset":
        if not rows:
            raise ValueError("no labelled feature rows")
        if any(r.label_bpm is None for r in rows):
            raise ValueError("all rows need labels to build a dataset")
        X = np.stack([r.features for r in rows])
        y = np.array([r.label_bpm for r in rows])
        return cls(X, y)

    def __len__(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    intercept: float
    ridge: float = 0.0

    kind = "ols"

    @property
    def n_features(self) -> int:
        return len(self.weights)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _check_columns(X, self.n_features) @ self.weights + self.intercept


def _check_columns(X, n_features: int) -> np.ndarray:
    """X as a C-contiguous float64 (rows, n_features) array, else ValueError."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"model expects {n_features} features per row, "
                         f"got an array of shape {X.shape}")
    return X


class ForestModel:
    """Bootstrap regression forest.

    ``trees`` holds one flat-array block per tree: per node the feature index
    (-1 = leaf), threshold, left/right child (local indices, -1 at leaves)
    and value.  Prediction runs on one packed node table of all trees, in
    which leaves point to themselves, so every (row, tree) pair steps down
    together for as many levels as the deepest tree has.
    """

    kind = "rf"

    def __init__(self, trees: list[dict], n_features: int, seed: int):
        """Pack the trees; ValueError unless every tree has nodes, every
        feature index lies in [-1, n_features) and every child lies after its
        parent within its tree (so every path ends at a leaf)."""
        self.trees = trees
        self.n_features = n_features
        self.seed = seed
        sizes = np.array([len(t["feature"]) for t in trees])
        if not len(trees) or any(len(t[key]) != len(t["feature"]) or not len(t[key])
                                 for t in trees for key, _ in _TREE_ARRAYS):
            raise ValueError("a forest needs trees with non-empty node arrays of equal length")
        packed = {key: np.concatenate([t[key] for t in trees]) for key, _ in _TREE_ARRAYS}
        self._roots = np.cumsum(sizes) - sizes
        tree_of = np.repeat(np.arange(len(trees)), sizes)
        here = np.arange(len(tree_of))
        end = (self._roots + sizes)[tree_of]
        feature = packed["feature"]
        internal = feature >= 0
        bad = (feature < -1) | (feature >= n_features)
        for key in ("left", "right"):     # global indices; leaves point to themselves
            child = packed[key] + self._roots[tree_of]
            bad |= internal & ((child <= here) | (child >= end))
            packed[key] = np.where(internal, child, here)
        if bad.any():
            t = tree_of[np.argmax(bad)]
            raise ValueError(f"tree {t}: a feature index outside [-1, {n_features}) "
                             "or a child that does not follow its parent")
        self._feature = np.where(internal, feature, 0)
        self._threshold = packed["threshold"]
        self._left = packed["left"]
        self._right = packed["right"]
        self._value = packed["value"]
        self._depth = 0
        level = self._roots
        while True:
            level = level[internal[level]]
            if not len(level):
                break
            level = np.unique(np.concatenate([self._left[level], self._right[level]]))
            self._depth += 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _check_columns(X, self.n_features)
        base = (np.arange(len(X)) * self.n_features)[:, None]
        flat = X.ravel()
        node = np.repeat(self._roots[None, :], len(X), axis=0)
        for _ in range(self._depth):
            go_left = flat[base + self._feature[node]] <= self._threshold[node]
            node = np.where(go_left, self._left[node], self._right[node])
        return self._value[node].mean(axis=1)


@dataclass(frozen=True)
class ModelReport:
    """Cross-validation result: per-fold MAE (bpm) and their arithmetic mean."""

    kind: str
    fold_maes: tuple[float, ...]
    seed: int

    @property
    def mean_mae(self) -> float:
        return float(np.mean(self.fold_maes))

    def to_text(self) -> str:
        lines = [f"model: {self.kind}", f"seed: {self.seed}",
                 f"mean MAE: {self.mean_mae:.6g} bpm", "per-fold MAE (bpm):"]
        lines += [f"  fold {i}: {m:.6g}" for i, m in enumerate(self.fold_maes)]
        return "\n".join(lines) + "\n"


def fit_ols(train: Dataset, ridge: float = 0.0) -> LinearModel:
    """Least squares with optional L2 penalty.

    Features and labels are centered so the intercept is unpenalized; a
    ridge > 0 appends sqrt(ridge) * I rows with zero targets.  A
    rank-deficient system gets the minimum-norm solution.
    """
    if len(train) < 2:
        raise ValueError("need at least 2 rows")
    if not 0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and non-negative, got {ridge}")
    X, y = train.X, train.y
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    A = X - x_mean
    b = y - y_mean
    if ridge > 0:
        d = X.shape[1]
        A = np.vstack([A, np.sqrt(ridge) * np.eye(d)])
        b = np.concatenate([b, np.zeros(d)])
    from scipy import linalg

    w = linalg.lstsq(A, b)[0]
    return LinearModel(weights=w, intercept=float(y_mean - x_mean @ w), ridge=ridge)


def _draw_subsets(rngs, tree_of_node, n_features, n_sub):
    """Per node a random feature subset of size n_sub, in drawn order.

    Nodes come grouped by tree; each tree draws one block of uniforms for
    its nodes from its own stream, and a node's subset is the first n_sub
    entries of the permutation that sorts its row.
    """
    counts = np.bincount(tree_of_node, minlength=len(rngs))
    u = np.concatenate([rngs[t].random((counts[t], n_features)) for t in np.flatnonzero(counts)])
    return np.argsort(u, axis=1)[:, :n_sub]


def _grow_forest(X, y, boots, rngs, max_depth, min_leaf, n_sub):
    """Grow all trees together, one depth level at a time.

    The samples of every open node of every tree sit in one array, grouped
    by node, so a level costs a fixed number of numpy calls however many
    nodes it holds.  Nodes are numbered level by level (trees in order
    within a level), then renumbered per tree, so a child always has a
    larger index than its parent.
    """
    n, d = X.shape
    # per column, the rows in ascending order (ties by row) and each row's place in it
    by_value = np.argsort(X, axis=0, kind="stable")
    place = np.empty_like(by_value)
    np.put_along_axis(place, by_value, np.arange(n)[:, None], axis=0)
    flat_place = place.ravel()                      # [row * d + f]
    sorted_rows = by_value.T.ravel()                # [f * n + place]
    sorted_x = np.take_along_axis(X, by_value, axis=0).T.ravel()
    flat_x = X.ravel()
    rows = np.sort(boots, axis=1).ravel()           # X row of each sample, grouped by open node
    counts = np.full(len(boots), n)                 # samples per open node
    tree_of = np.arange(len(boots))                 # tree of each open node
    levels = []
    for depth in range(max_depth + 1):
        starts = np.cumsum(counts) - counts
        ys = y[rows]
        value = np.add.reduceat(ys, starts) / counts
        varied = np.maximum.reduceat(ys, starts) > np.minimum.reduceat(ys, starts)
        search = np.flatnonzero(varied & (counts >= 2 * min_leaf) & (depth < max_depth))
        feature = np.full(len(counts), -1)
        threshold = np.zeros(len(counts))
        if len(search) and n_sub:
            # one segment per (node, drawn feature) pair, node-major in drawn order,
            # sorted by the key pair * n + place: ascending x within each pair
            pair_node = np.repeat(search, n_sub)
            pair_feat = _draw_subsets(rngs, tree_of[search], d, n_sub).ravel()
            pair_len = counts[pair_node]
            pair_off = np.cumsum(pair_len) - pair_len
            pair_id = np.arange(len(pair_node))
            at = np.arange(pair_off[-1] + pair_len[-1])
            sample = at + np.repeat(starts[pair_node] - pair_off, pair_len)
            key = np.sort(np.repeat(pair_id * n, pair_len)
                          + flat_place[rows[sample] * d + np.repeat(pair_feat, pair_len)])
            cell = key + np.repeat((pair_feat - pair_id) * n, pair_len)   # f * n + place
            xs = sorted_x[cell]
            # the SSE reduction of a split after each position, from the running
            # sum S of node-centered labels: S^2 n / (n_left n_right)
            csum = np.cumsum(y[sorted_rows[cell]] - np.repeat(value[pair_node], pair_len))
            s_left = csum - np.repeat(np.concatenate(([0.0], csum))[pair_off], pair_len)
            n_node = np.repeat(pair_len, pair_len)
            n_left = at + 1 - np.repeat(pair_off, pair_len)
            n_right = n_node - n_left
            gain = s_left**2 * n_node / (n_left * np.maximum(n_right, 1))
            invalid = (n_left < min_leaf) | (n_right < min_leaf)
            invalid[:-1] |= xs[1:] == xs[:-1]
            gain[invalid] = -1.0
            # first maximum per node: drawn feature order, then ascending x
            node_off = pair_off[::n_sub]
            best = np.maximum.reduceat(gain, node_off)
            at_best = np.where(gain == np.repeat(best, n_sub * counts[search]), at, len(at))
            k = np.minimum.reduceat(at_best, node_off)[best > 0]
            lo, hi = xs[k], xs[k + 1]
            mid = 0.5 * (lo + hi)   # rounds up to hi only when lo and hi are adjacent floats
            feature[search[best > 0]] = pair_feat[key[k] // n]
            threshold[search[best > 0]] = np.where(mid < hi, mid, lo)
        levels.append((tree_of, feature, threshold, value))
        split = feature >= 0
        if not split.any():
            break
        node_of = np.repeat(np.arange(len(counts)), counts)
        keep = split[node_of]
        rows, node_of = rows[keep], node_of[keep]
        go_right = ~(flat_x[rows * d + feature[node_of]] <= threshold[node_of])
        child = 2 * (np.cumsum(split) - 1)[node_of] + go_right
        rows = np.sort(child * n + rows) % n    # grouped by child, ascending row within
        counts = np.bincount(child, minlength=2 * int(split.sum()))
        tree_of = np.repeat(tree_of[split], 2)
    tree, feature, threshold, value = (np.concatenate(a) for a in zip(*levels))
    # the j-th split node (level-major order) has children n_trees + 2j and + 2j + 1
    split = feature >= 0
    left = np.full(len(feature), -1)
    left[split] = len(boots) + 2 * np.arange(int(split.sum()))
    right = np.where(split, left + 1, -1)
    order = np.argsort(tree, kind="stable")
    sizes = np.bincount(tree, minlength=len(boots))
    local = np.empty(len(tree), dtype=np.int64)
    local[order] = np.arange(len(tree)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    left = np.where(split, local[left], -1)
    right = np.where(split, local[right], -1)
    blocks = {"feature": feature[order], "threshold": threshold[order], "left": left[order],
              "right": right[order], "value": value[order]}
    ends = np.cumsum(sizes)
    return [{key: arr[end - size:end] for key, arr in blocks.items()}
            for size, end in zip(sizes, ends)]


def fit_rf(train: Dataset, n_trees: int = 100, max_depth: int = 12,
           min_leaf: int = 2, seed: int = 0) -> ForestModel:
    """Bootstrap-sampled CART regression forest.

    Splits maximize the reduction of within-node squared error over a random
    feature subset of size ceil(sqrt(d)) per node, at the midpoint between
    adjacent distinct values; ties go to the first drawn feature, then the
    smallest threshold.  A node stays a leaf at max_depth, below 2*min_leaf
    rows, when its labels are constant, or when no split leaves min_leaf
    rows on both sides.  The prediction is the mean of the tree outputs.

    All trees grow together breadth-first, one depth level at a time.  Tree
    t draws its bootstrap sample and then, level by level, the feature
    subsets of its nodes in node order, all from stream t of
    SeedSequence(seed).spawn(n_trees), so it depends only on (seed, t).
    """
    if n_trees < 1 or max_depth < 0 or min_leaf < 1:
        raise ValueError(f"need n_trees >= 1, max_depth >= 0 and min_leaf >= 1, "
                         f"got {n_trees}, {max_depth} and {min_leaf}")
    if len(train) < min_leaf:
        raise ValueError(f"need at least min_leaf={min_leaf} rows")
    X, y = train.X, train.y
    n_sub = int(np.ceil(np.sqrt(X.shape[1])))
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(n_trees)]
    boots = [rng.integers(0, len(y), size=len(y)) for rng in rngs]
    trees = _grow_forest(X, y, boots, rngs, max_depth, min_leaf, n_sub)
    return ForestModel(trees, n_features=X.shape[1], seed=seed)


def regress(data: Dataset, model: str = "rf", seed: int = 0, **params):
    """fit_rf (params: n_trees, max_depth, min_leaf; seeded) when model is
    'rf', fit_ols (params: ridge; seed unused) when it is 'ols'."""
    if model == "rf":
        return fit_rf(data, seed=seed, **params)
    if model == "ols":
        return fit_ols(data, **params)
    raise ValueError(f"unknown model {model!r}, expected {' or '.join(map(repr, MODEL_KINDS))}")


def kfold_mae(data: Dataset, k: int = 10, model: str = "rf", seed: int = 0,
              **params) -> ModelReport:
    """Shuffled k-fold cross-validation, reporting MAE in bpm per fold.

    model and params are as for regress, and fold i fits with seed + i.
    The shuffle is seeded once; folds partition the rows exactly.
    """
    n = len(data)
    if k > n:
        raise ValueError(f"k={k} exceeds {n} rows")
    if k < 2:
        raise ValueError("k must be at least 2")
    order = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(order, k)
    fold_maes = []
    for i, test_idx in enumerate(folds):
        train_idx = np.concatenate([folds[j] for j in range(k) if j != i])
        subset = Dataset(data.X[train_idx], data.y[train_idx])
        fitted = regress(subset, model, seed=seed + i, **params)
        fold_maes.append(float(np.abs(fitted.predict(data.X[test_idx]) - data.y[test_idx]).mean()))
    return ModelReport(kind=model, fold_maes=tuple(fold_maes), seed=seed)


def temporal_fft_baseline(window: Radargram, roi: RangeROI, search_band: BandSpec) -> float:
    """Conventional estimate: peak of the ROI-averaged magnitude spectra of the
    raw slow-time signals, in bpm.  No Gabor processing, no interpolation."""
    roi.validate(window.n_bins)
    search_band.validate(window.fps)
    segment = window.data[roi.slice].astype(np.float64)
    segment = segment - segment.mean(axis=1, keepdims=True)
    spectra = np.abs(np.fft.rfft(segment, axis=1)).mean(axis=0)
    freqs = np.fft.rfftfreq(window.n_frames, 1.0 / window.fps)
    inside = search_band.bins(freqs)
    peak = inside.start + np.argmax(spectra[inside])
    if spectra[peak] == 0:
        raise ValueError("no spectral peak above zero in the search band (static scene?)")
    return 60.0 * freqs[peak]


_DTYPE_CODES = {1: np.dtype("<i8"), 2: np.dtype("<f8")}
_TREE_ARRAYS = (("feature", 1), ("threshold", 2), ("left", 1), ("right", 1), ("value", 2))


def _write_array(fh, arr: np.ndarray) -> None:
    code = 1 if arr.dtype.kind == "i" else 2
    arr = arr.astype(_DTYPE_CODES[code], copy=False)
    fh.write(struct.pack("<BI", code, arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    fh.write(arr.tobytes())


class _Reader:
    """Cursor over a model file's bytes; every short read is a FormatError."""

    def __init__(self, data: bytes, path: str):
        self.data, self.pos, self.path = data, 0, path

    def take(self, n: int) -> bytes:
        if n > len(self.data) - self.pos:
            raise FormatError(f"{self.path}: truncated model file")
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, code: int) -> np.ndarray:
        got, ndim = self.unpack("<BI")
        if got != code or ndim != 1:
            raise FormatError(f"{self.path}: expected a 1-d {_DTYPE_CODES[code]} array, "
                              f"got dtype code {got} with {ndim} dims")
        (count,) = self.unpack("<Q")
        return np.frombuffer(self.take(8 * count), dtype=_DTYPE_CODES[code]).copy()


def save_model(model, path: str) -> None:
    """Versioned binary model file (format in README): magic RMGM, version,
    kind, then the model arrays; byte-deterministic."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", MODEL_VERSION, MODEL_KINDS[model.kind]))
        if model.kind == "ols":
            fh.write(struct.pack("<dd", model.intercept, model.ridge))
            _write_array(fh, model.weights)
        else:
            fh.write(struct.pack("<IIq", len(model.trees), model.n_features, model.seed))
            for tree in model.trees:
                for key, _ in _TREE_ARRAYS:
                    _write_array(fh, tree[key])


def load_model(path: str):
    """Read a model written by save_model.  A wrong magic, version or kind
    code, a short read, or a forest whose node links do not form trees over
    n_features columns raises FormatError."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), path)
    if reader.take(4) != MODEL_MAGIC:
        raise FormatError(f"{path}: not a model file")
    version, kind_code = reader.unpack("<II")
    if version != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported model version {version}")
    if kind_code == MODEL_KINDS["ols"]:
        intercept, ridge = reader.unpack("<dd")
        model = LinearModel(weights=reader.array(2), intercept=intercept, ridge=ridge)
    elif kind_code == MODEL_KINDS["rf"]:
        n_trees, n_features, seed = reader.unpack("<IIq")
        trees = [{key: reader.array(code) for key, code in _TREE_ARRAYS} for _ in range(n_trees)]
        with naming(path):
            model = ForestModel(trees, n_features=n_features, seed=seed)
    else:
        raise FormatError(f"{path}: unknown model kind code {kind_code}")
    if reader.pos != len(reader.data):
        raise FormatError(f"{path}: {len(reader.data) - reader.pos} trailing bytes")
    return model
