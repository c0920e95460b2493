import struct
import warnings

import numpy as np
import pytest

from radarmag import (BandSpec, Dataset, ForestModel, FormatError, fit_ols, fit_rf,
                      kfold_mae, load_model, save_model, simulate, temporal_fft_baseline)
from radarmag.regress import regress

from scenes import BREATHER_ROI, breather_scene


def linear_dataset(n=120, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 1.0
    if noise:
        y = y + noise * rng.standard_normal(n)
    return Dataset(X, y)


def tree_predict(tree, X):
    """Plain per-row walk down one tree: the oracle for the packed predict."""
    out = np.empty(len(X))
    for i, x in enumerate(X):
        node = 0
        while tree["feature"][node] >= 0:
            go_left = x[tree["feature"][node]] <= tree["threshold"][node]
            node = tree["left"][node] if go_left else tree["right"][node]
        out[i] = tree["value"][node]
    return out


def node_rows(tree, X):
    """Per node, the rows of X that pass through it, and per node its depth."""
    rows, depth = {0: np.arange(len(X))}, {0: 0}
    for node in range(len(tree["feature"])):   # children always follow their parent
        f = tree["feature"][node]
        if f >= 0:
            go_left = X[rows[node], f] <= tree["threshold"][node]
            for child, part in ((tree["left"][node], go_left), (tree["right"][node], ~go_left)):
                rows[child], depth[child] = rows[node][part], depth[node] + 1
    return rows, depth


def bootstrap(n_rows, seed, tree):
    """The bootstrap rows fit_rf draws for one tree (first draw of stream tree)."""
    ss = np.random.SeedSequence(seed).spawn(tree + 1)[tree]
    return np.random.default_rng(ss).integers(0, n_rows, size=n_rows)


def sse(y):
    return float(((y - y.mean()) ** 2).sum()) if len(y) else 0.0


def best_gain(x, y, min_leaf):
    """Largest SSE reduction over midpoint splits leaving min_leaf rows per side."""
    xs = np.unique(x)
    gains = [sse(y) - sse(y[x <= t]) - sse(y[x > t]) for t in 0.5 * (xs[1:] + xs[:-1])
             if min((x <= t).sum(), (x > t).sum()) >= min_leaf]
    return max(gains, default=-np.inf)


def stump():
    """One split on feature 1 at 0.5: left leaf 1.0, right leaf 3.0."""
    return {"feature": np.array([1, -1, -1]), "threshold": np.array([0.5, 0.0, 0.0]),
            "left": np.array([1, -1, -1]), "right": np.array([2, -1, -1]),
            "value": np.array([2.0, 1.0, 3.0])}


def forest_bytes(trees, n_features, seed):
    """A version-1 forest file written from the format description."""
    out = b"RMGM" + struct.pack("<IIIIq", 1, 2, len(trees), n_features, seed)
    for tree in trees:
        for key, dtype in (("feature", "<i8"), ("threshold", "<f8"), ("left", "<i8"),
                           ("right", "<i8"), ("value", "<f8")):
            out += struct.pack("<BIQ", 1 if dtype == "<i8" else 2, 1, len(tree[key]))
            out += np.asarray(tree[key]).astype(dtype).tobytes()
    return out


class TestOls:
    def test_exact_recovery(self):
        model = fit_ols(linear_dataset(), ridge=0.0)
        assert np.allclose(model.weights, [3.0, -2.0], atol=1e-8)
        assert model.intercept == pytest.approx(1.0, abs=1e-8)

    def test_constant_labels(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.standard_normal((50, 3)), np.full(50, 7.5))
        model = fit_ols(data)
        assert np.allclose(model.weights, 0.0, atol=1e-10)
        assert model.intercept == pytest.approx(7.5)

    def test_collinear_features_with_ridge(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(80)
        X = np.column_stack([x, x])  # duplicated column
        y = 2.0 * x + 0.01 * rng.standard_normal(80)
        model = fit_ols(Dataset(X, y), ridge=1e-3)
        assert np.isfinite(model.weights).all()
        mae = np.mean(np.abs(model.predict(X) - y))
        assert mae < 0.01

    def test_singular_at_zero_ridge_falls_back(self):
        # a duplicated column gets the minimum-norm split, without a warning
        rng = np.random.default_rng(3)
        x = rng.standard_normal(40)
        X = np.column_stack([x, x])
        y = x.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_ols(Dataset(X, y), ridge=0.0)
        assert np.allclose(model.weights, [0.5, 0.5], atol=1e-12)
        assert model.intercept == pytest.approx(0.0, abs=1e-12)

    def test_ridge_matches_closed_form(self):
        data = linear_dataset(n=50, noise=0.5, seed=6)
        ridge = 3.0
        Xc = data.X - data.X.mean(axis=0)
        w = np.linalg.solve(Xc.T @ Xc + ridge * np.eye(2), Xc.T @ (data.y - data.y.mean()))
        assert np.allclose(fit_ols(data, ridge=ridge).weights, w, rtol=1e-10, atol=0)

    def test_residual_orthogonality(self):
        data = linear_dataset(n=200, noise=0.3, seed=4)
        model = fit_ols(data, ridge=0.0)
        residual = data.y - model.predict(data.X)
        assert np.max(np.abs(data.X.T @ residual)) <= 1e-6 * np.linalg.norm(data.y)


class TestForest:
    def test_constant_labels(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.standard_normal((60, 4)), np.full(60, 3.25))
        model = fit_rf(data, n_trees=10, seed=0)
        assert np.allclose(model.predict(data.X), 3.25)

    def test_step_function(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, 200)
        data = Dataset(x[:, None], (x > 0.5).astype(float))
        model = fit_rf(data, n_trees=50, max_depth=3, seed=1)
        mae = np.mean(np.abs(model.predict(data.X) - data.y))
        assert mae < 0.05

    def test_forest_is_mean_of_trees(self):
        data = linear_dataset(n=80, noise=0.2, seed=7)
        model = fit_rf(data, n_trees=7, seed=2)
        query = np.vstack([data.X, np.random.default_rng(7).standard_normal((40, 2)) * 3])
        per_tree = np.stack([tree_predict(t, query) for t in model.trees])
        assert np.allclose(model.predict(query), per_tree.mean(axis=0), rtol=0, atol=1e-12)

    def test_batch_equals_single_rows(self):
        data = linear_dataset(n=70, noise=0.3, seed=16)
        model = fit_rf(data, n_trees=25, seed=8)
        query = np.random.default_rng(16).standard_normal((30, 2)) * 2
        single = np.array([model.predict(row[None, :])[0] for row in query])
        assert np.array_equal(model.predict(query), single)

    def test_first_trees_independent_of_forest_size(self):
        data = linear_dataset(n=60, noise=0.4, seed=17)
        small = fit_rf(data, n_trees=3, seed=9)
        large = fit_rf(data, n_trees=11, seed=9)
        for a, b in zip(small.trees, large.trees[:3]):
            assert a.keys() == b.keys()
            for key in a:
                assert a[key].dtype == b[key].dtype and np.array_equal(a[key], b[key])

    @pytest.mark.parametrize("min_leaf,max_depth", [(1, 12), (3, 4), (5, 7), (2, 0)])
    def test_leaf_sizes_and_depth(self, min_leaf, max_depth):
        data = linear_dataset(n=90, noise=0.5, seed=18)
        model = fit_rf(data, n_trees=6, max_depth=max_depth, min_leaf=min_leaf, seed=10)
        for t, tree in enumerate(model.trees):
            rows, depth = node_rows(tree, data.X[bootstrap(len(data), 10, t)])
            leaves = np.flatnonzero(tree["feature"] < 0)
            assert len(rows) == len(tree["feature"])   # every node is reached
            assert min(len(rows[leaf]) for leaf in leaves) >= min_leaf
            assert max(depth.values()) <= max_depth

    def test_splits_are_optimal(self):
        # with two features ceil(sqrt(2)) = 2, so every node searches both of them
        rng = np.random.default_rng(19)
        X = np.round(rng.standard_normal((60, 2)), 1)   # tied feature values
        data = Dataset(X, np.round(2 * X[:, 0] + rng.standard_normal(60)))
        min_leaf, max_depth = 3, 5
        model = fit_rf(data, n_trees=4, max_depth=max_depth, min_leaf=min_leaf, seed=11)
        for t, tree in enumerate(model.trees):
            boot = bootstrap(len(data), 11, t)
            Xb, yb = data.X[boot], data.y[boot]
            rows, depth = node_rows(tree, Xb)
            for node, idx in rows.items():
                x, y = Xb[idx], yb[idx]
                assert tree["value"][node] == pytest.approx(y.mean(), rel=1e-12, abs=1e-12)
                best = max(best_gain(x[:, f], y, min_leaf) for f in range(2))
                f = tree["feature"][node]
                if f < 0:
                    can_split = (depth[node] < max_depth and len(idx) >= 2 * min_leaf
                                 and np.ptp(y) > 0)
                    assert not can_split or best <= 1e-9 * sse(y)
                    continue
                xs = np.unique(x[:, f])
                assert tree["threshold"][node] in 0.5 * (xs[1:] + xs[:-1])
                go_left = x[:, f] <= tree["threshold"][node]
                gain = sse(y) - sse(y[go_left]) - sse(y[~go_left])
                assert gain == pytest.approx(best, rel=1e-9) and gain > 0

    def test_equal_gains_take_the_smallest_threshold(self):
        # splits after x = 0 and after x = 2 both reduce the SSE by 1/3
        from radarmag.regress import _grow_forest
        X = np.arange(4.0)[:, None]
        tree, = _grow_forest(X, np.array([0.0, 1.0, 0.0, 1.0]), [np.arange(4)],
                             [np.random.default_rng(0)], max_depth=1, min_leaf=1, n_sub=1)
        assert tree["feature"][0] == 0 and tree["threshold"][0] == 0.5

    def test_adjacent_float_values_split(self):
        # the midpoint of two adjacent floats can round onto the upper one
        lo = np.nextafter(1.0, 2.0)
        hi = np.nextafter(lo, 2.0)
        data = Dataset(np.array([[lo], [hi]] * 4), np.array([0.0, 1.0] * 4))
        model = fit_rf(data, n_trees=3, min_leaf=1, seed=0)
        assert np.array_equal(model.predict(data.X), data.y)

    def test_predictions_bounded_by_training_labels(self):
        rng = np.random.default_rng(8)
        data = Dataset(rng.standard_normal((100, 3)), rng.uniform(40, 90, 100))
        model = fit_rf(data, n_trees=20, seed=3)
        query = rng.standard_normal((50, 3)) * 10
        predictions = model.predict(query)
        assert predictions.min() >= data.y.min() - 1e-12
        assert predictions.max() <= data.y.max() + 1e-12

    def test_deterministic_given_seed(self):
        data = linear_dataset(n=60, noise=0.5, seed=9)
        a = fit_rf(data, n_trees=15, seed=4).predict(data.X)
        b = fit_rf(data, n_trees=15, seed=4).predict(data.X)
        assert np.array_equal(a, b)


class TestKfold:
    def test_perfect_linear_data(self):
        report = kfold_mae(linear_dataset(n=100), k=10, model="ols", seed=0, ridge=0.0)
        assert report.mean_mae <= 1e-6
        assert len(report.fold_maes) == 10

    def test_mean_is_arithmetic_mean(self):
        report = kfold_mae(linear_dataset(n=100, noise=1.0), k=5, model="ols", seed=0)
        assert report.mean_mae == pytest.approx(np.mean(report.fold_maes))

    def test_shuffled_labels_hit_sanity_ceiling(self):
        rng = np.random.default_rng(10)
        data = linear_dataset(n=200, noise=0.1, seed=10)
        shuffled = Dataset(data.X, rng.permutation(data.y))
        report = kfold_mae(shuffled, k=10, model="ols", seed=0, ridge=1e-6)
        mean_mae = np.mean(np.abs(shuffled.y - shuffled.y.mean()))
        assert report.mean_mae > 0.5 * mean_mae

    def test_determinism(self):
        data = linear_dataset(n=90, noise=0.4, seed=11)
        a = kfold_mae(data, k=9, model="rf", seed=5, n_trees=10)
        b = kfold_mae(data, k=9, model="rf", seed=5, n_trees=10)
        assert a == b

    def test_folds_partition_exactly(self):
        n, k = 97, 10
        order = np.random.default_rng(3).permutation(n)
        folds = np.array_split(order, k)
        joined = np.sort(np.concatenate(folds))
        assert np.array_equal(joined, np.arange(n))
        sizes = {len(f) for f in folds}
        assert max(sizes) - min(sizes) <= 1

    def test_k_exceeding_rows_rejected(self):
        with pytest.raises(ValueError):
            kfold_mae(linear_dataset(n=5), k=10, model="ols")

    def test_unknown_model_rejected(self):
        data = linear_dataset(n=9)
        for fit in (lambda: kfold_mae(data, k=3, model="svm"), lambda: regress(data, "svm")):
            with pytest.raises(ValueError, match="unknown model 'svm', expected 'rf' or 'ols'"):
                fit()


class TestBaseline:
    def test_breather_rate(self):
        r, _ = simulate(breather_scene(0.25, 0.5, duration_s=30.0), seed=0)
        bpm = temporal_fft_baseline(r, BREATHER_ROI, BandSpec(0.1, 0.7))
        assert bpm == pytest.approx(15.0, abs=1.0)

    def test_static_scene_rejected(self):
        from radarmag import SceneSpec, TargetSpec
        scene = SceneSpec(duration_s=30.0, fps=20.0, n_bins=96, bin_spacing=0.01,
                          targets=(TargetSpec("static", 0.48, 1.0),))
        r, _ = simulate(scene, seed=0)
        with pytest.raises(ValueError):
            temporal_fft_baseline(r, BREATHER_ROI, BandSpec(0.1, 0.7))


class TestPersistence:
    def test_ols_round_trip(self, tmp_path):
        model = fit_ols(linear_dataset(), ridge=0.5)
        path = str(tmp_path / "m.bin")
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.weights, model.weights)
        assert back.intercept == model.intercept
        assert back.ridge == model.ridge

    def test_rf_round_trip(self, tmp_path):
        data = linear_dataset(n=50, noise=0.2, seed=13)
        model = fit_rf(data, n_trees=5, seed=6)
        path = str(tmp_path / "m.bin")
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.predict(data.X), model.predict(data.X))

    def test_save_is_byte_deterministic(self, tmp_path):
        data = linear_dataset(n=50, noise=0.2, seed=14)
        model = fit_rf(data, n_trees=5, seed=7)
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_model(model, p1)
        save_model(model, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a model")
        with pytest.raises(ValueError):
            load_model(str(path))

    def test_forest_bytes_match_format(self, tmp_path):
        path = str(tmp_path / "m.bin")
        save_model(ForestModel([stump()], n_features=2, seed=-3), path)
        assert open(path, "rb").read() == forest_bytes([stump()], n_features=2, seed=-3)
        back = load_model(path)
        assert np.array_equal(back.predict(np.array([[0.0, 0.2], [0.0, 0.9]])), [1.0, 3.0])

    @pytest.mark.parametrize("kind", ["rf", "ols"])
    def test_every_truncation_rejected(self, tmp_path, kind):
        data = linear_dataset(n=12, noise=0.2, seed=20)
        model = fit_rf(data, n_trees=2, max_depth=2, seed=0) if kind == "rf" else fit_ols(data)
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        blob = path.read_bytes()
        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            with pytest.raises(FormatError):
                load_model(str(path))

    @pytest.mark.parametrize("kind_code", [0, 3, 2**32 - 1])
    def test_unknown_kind_code_rejected(self, tmp_path, kind_code):
        path = tmp_path / "m.bin"
        path.write_bytes(forest_bytes([stump()], n_features=2, seed=0))
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", kind_code)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="kind"):
            load_model(str(path))

    @pytest.mark.parametrize("key,value", [("feature", 2), ("feature", -2), ("left", 0),
                                           ("left", 3), ("right", -1)])
    def test_broken_tree_links_rejected(self, tmp_path, key, value):
        tree = stump()
        tree[key][0] = value
        path = tmp_path / "m.bin"
        path.write_bytes(forest_bytes([tree], n_features=2, seed=0))
        with pytest.raises(FormatError, match="tree 0"):
            load_model(str(path))

    def test_shared_children_load(self, tmp_path):
        # a 200-node chain whose nodes both point to the next one: 2**199 paths
        n = 200
        chain = {"feature": np.r_[np.zeros(n - 1, dtype=np.int64), -1],
                 "threshold": np.zeros(n), "left": np.r_[np.arange(1, n), -1],
                 "right": np.r_[np.arange(1, n), -1], "value": np.arange(n, dtype=float)}
        path = tmp_path / "m.bin"
        path.write_bytes(forest_bytes([chain], n_features=1, seed=0))
        assert np.array_equal(load_model(str(path)).predict(np.zeros((2, 1))), [n - 1, n - 1])

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(forest_bytes([stump()], n_features=2, seed=0) + b"\0")
        with pytest.raises(FormatError, match="trailing"):
            load_model(str(path))

    @pytest.mark.parametrize("n_columns", [1, 3])
    def test_feature_count_mismatch_rejected(self, n_columns):
        data = linear_dataset(n=30, noise=0.2, seed=21)
        query = np.zeros((4, n_columns))
        for model in (fit_rf(data, n_trees=3, seed=0), fit_ols(data)):
            with pytest.raises(ValueError, match="expects 2 features"):
                model.predict(query)
