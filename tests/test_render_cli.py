import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radarmag import (Dataset, FeatureRow, Radargram, fit_ols, fit_rf, load_radargram,
                      read_ppm, render_heatmap, save_model, simulate, write_features_csv,
                      write_ppm)
from radarmag.cli import main

from scenes import validation_scene


class TestRender:
    def test_uniform_image_for_constant_data(self):
        r = Radargram(np.zeros((4, 4)), fps=10.0, bin_spacing=0.1)
        with pytest.warns(UserWarning, match="constant"):
            image = render_heatmap(r)
        assert image.shape == (4, 4, 3)
        assert len(np.unique(image.reshape(-1, 3), axis=0)) == 1

    def test_axes_orientation(self):
        r, _ = simulate(validation_scene(duration_s=2.0), seed=0)
        image = render_heatmap(r)
        assert image.shape == (r.n_bins, r.n_frames, 3)

    def test_target_rows_are_visible(self):
        r, _ = simulate(validation_scene(amplitude_bins=1.0, duration_s=2.0), seed=0)
        image = render_heatmap(r, colormap="gray")
        gray = image[:, :, 0].astype(float)
        # oscillating target at bin 128 varies along time; empty rows do not
        assert gray[128].std() > 10 * gray[20].std()
        # static reflectors at 2 m produce straight bright-dark banding
        assert gray[256].std() < 1e-9

    def test_clip_percentiles_bound_saturation(self):
        rng = np.random.default_rng(0)
        r = Radargram(rng.standard_normal((64, 64)), fps=10.0, bin_spacing=0.1)
        render_heatmap(r, colormap="gray", clip_percentiles=(1.0, 99.0))
        lo, hi = np.percentile(r.data, [1.0, 99.0])
        clipped = np.mean((r.data <= lo) | (r.data >= hi))
        assert clipped <= 0.02 + 1.0 / r.data.size

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        path = str(tmp_path / "x.ppm")
        write_ppm(image, path)
        assert np.array_equal(read_ppm(path), image)


@pytest.fixture(scope="module")
def scene_rgrm(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("scene") / "scene.rgrm")
    assert main(["simulate", "configs/validation_scene.cfg", "-o", path]) == 0
    return path


class TestCli:
    def test_simulate_magnify_render_features_train_eval(self, tmp_path, capsys):
        scene = "configs/validation_scene.cfg"
        rgrm = str(tmp_path / "scene.rgrm")
        truth = str(tmp_path / "truth.csv")
        assert main(["simulate", scene, "--seed", "3", "-o", rgrm, "--truth", truth]) == 0
        r = load_radargram(rgrm)
        assert r.n_bins == 512

        out = str(tmp_path / "mag.rgrm")
        assert main(["magnify", rgrm, out, "--alpha", "10", "--band", "40:50",
                     "--bank", "configs/magnify_bank.cfg"]) == 0
        assert load_radargram(out).data.shape == r.data.shape

        ppm = str(tmp_path / "mag.ppm")
        assert main(["render", out, ppm, "--colormap", "jet", "--clip", "1:99"]) == 0
        image = read_ppm(ppm)
        assert image.shape == (512, 2000, 3)

        feats = str(tmp_path / "f.csv")
        assert main(["features", rgrm, "-o", feats, "--band", "40:50",
                     "--window", "5:2.5", "--roi", "100:156"]) == 0
        lines = open(feats).read().strip().splitlines()
        assert lines[0].startswith("window_start_s,label_bpm,fftpeak_l75")
        assert len(lines) == 1 + 3  # 10 s record, 5 s window, 2.5 s shift

        labels = str(tmp_path / "labels.csv")
        with open(labels, "w") as fh:
            fh.write("time_s,bpm\n")
            for t in np.arange(0, 10, 0.25):
                fh.write(f"{t},{2700.0}\n")  # 45 Hz in bpm
        feats2 = str(tmp_path / "f2.csv")
        assert main(["features", rgrm, "-o", feats2, "--band", "40:50",
                     "--window", "5:2.5", "--roi", "100:156", "--labels", labels]) == 0

        model = str(tmp_path / "m.bin")
        report = str(tmp_path / "report.txt")
        assert main(["train", feats2, "--model", "ols", "-o", model,
                     "--folds", "3", "--seed", "1", "--report", report]) == 0
        assert "mean MAE" in open(report).read()

        predictions = str(tmp_path / "pred.csv")
        assert main(["eval", model, feats2, "-o", predictions]) == 0
        assert "MAE" in capsys.readouterr().out

    def test_windowed_magnify_covers_the_tail(self, scene_rgrm, tmp_path):
        # 3 s windows at a 2 s shift stop 1 s short of the 10 s record's end
        out = str(tmp_path / "mag.rgrm")
        assert main(["magnify", scene_rgrm, out, "--alpha", "2", "--band", "40:50",
                     "--bank", "configs/magnify_bank.cfg", "--window", "3:2"]) == 0
        assert load_radargram(out).data.shape == load_radargram(scene_rgrm).data.shape

    def test_train_on_empty_feature_csv_is_user_error(self, scene_rgrm, tmp_path, capsys):
        feats = str(tmp_path / "f.csv")
        assert main(["features", scene_rgrm, "-o", feats, "--band", "40:50",
                     "--window", "50:5", "--roi", "100:156"]) == 0   # longer than the record
        capsys.readouterr()
        assert main(["train", feats, "-o", str(tmp_path / "m.bin")]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: no labelled feature rows"]

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.rgrm"), str(tmp_path / "b.rgrm")
        assert main(["simulate", "configs/validation_scene.cfg", "--seed", "9", "-o", a]) == 0
        assert main(["simulate", "configs/validation_scene.cfg", "--seed", "9", "-o", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_missing_scene_key_is_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("duration_s = 2\nfps = 100\nn_bins = 64\n")
        code = main(["simulate", str(bad), "-o", str(tmp_path / "x.rgrm")])
        assert code == 1
        assert "bin_spacing" in capsys.readouterr().err

    def test_nonexistent_input_is_user_error(self, tmp_path, capsys):
        code = main(["render", str(tmp_path / "missing.rgrm"), str(tmp_path / "x.ppm")])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "configs/validation_scene.cfg", "-o", "x.rgrm", "--seed", "abc"],
        ["magnify", "a.rgrm", "b.rgrm", "--alpha", "1", "--band", "40:50", "--window", "1:2"],
        ["features", "a.rgrm", "-o", "f.csv", "--band", "40:50", "--window", "5:2.5",
         "--roi", "5:x"],
        ["train", "f.csv", "-o", "m.bin", "--folds", "ten"],
        ["eval", "m.bin"],
        ["render", "a.rgrm", "b.ppm", "--clip", "x:y"],
    ], ids=lambda argv: argv[0])
    def test_malformed_flag_is_user_error(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: radarmag {argv[0]}: ")

    def test_missing_subcommand_is_user_error(self, capsys):
        assert main([]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_negative_denoise_sigma_is_user_error(self, tmp_path, capsys):
        rgrm = str(tmp_path / "scene.rgrm")
        code = main(["magnify", rgrm, str(tmp_path / "out.rgrm"), "--alpha", "1",
                     "--band", "40:50", "--denoise-sigma", "-3"])
        assert code == 1
        assert "denoise_sigma_bins" in capsys.readouterr().err

    def test_help_lists_units(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["magnify", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "Hz" in text and "alpha" in text


N_FEATURES = 4


def feature_csv(path, n_columns, rng):
    rows = [FeatureRow(window_start_s=5.0 * i, features=rng.standard_normal(n_columns),
                       label_bpm=60.0 + i) for i in range(6)]
    write_features_csv(rows, [f"f{j}" for j in range(n_columns)], str(path))


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """A 4-feature CSV and the bytes of an rf and an ols model trained on it."""
    root = tmp_path_factory.mktemp("eval")
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, N_FEATURES))
    data = Dataset(X, 60.0 + 5.0 * X[:, 0] + rng.standard_normal(20))
    blobs = {}
    for kind, model in (("rf", fit_rf(data, n_trees=3, max_depth=3, seed=0)),
                        ("ols", fit_ols(data))):
        save_model(model, str(root / kind))
        blobs[kind] = (root / kind).read_bytes()
    feature_csv(root / "features.csv", N_FEATURES, rng)
    return root, blobs


def run_eval(root, model_bytes, features="features.csv"):
    """Exit code and stderr lines of `radarmag eval` on the given model bytes."""
    (root / "model.bin").write_bytes(model_bytes)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", str(root / "model.bin"), str(root / features)])
    return code, err.getvalue().splitlines()


class TestEvalRejectsBadInput:
    """Malformed or mismatched model and feature files exit 1, never 0 or 2."""

    def test_intact_models_evaluate(self, eval_inputs):
        root, blobs = eval_inputs
        for blob in blobs.values():
            assert run_eval(root, blob) == (0, [])

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["rf", "ols"]), st.data())
    def test_truncated_model(self, eval_inputs, kind, data):
        root, blobs = eval_inputs
        size = data.draw(st.integers(0, len(blobs[kind]) - 1))
        code, err = run_eval(root, blobs[kind][:size])
        assert code == 1 and len(err) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["rf", "ols"]),
           st.integers(0, 2**32 - 1).filter(lambda code: code not in (1, 2)))
    def test_unknown_kind_code(self, eval_inputs, kind, kind_code):
        root, blobs = eval_inputs
        blob = blobs[kind][:8] + struct.pack("<I", kind_code) + blobs[kind][12:]
        code, err = run_eval(root, blob)
        assert code == 1 and len(err) == 1 and "kind" in err[0]

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["rf", "ols"]),
           st.integers(1, 12).filter(lambda n: n != N_FEATURES))
    def test_feature_count_mismatch(self, eval_inputs, kind, n_columns):
        root, blobs = eval_inputs
        feature_csv(root / "other.csv", n_columns, np.random.default_rng(n_columns))
        code, err = run_eval(root, blobs[kind], "other.csv")
        assert code == 1 and len(err) == 1 and f"expects {N_FEATURES} features" in err[0]
