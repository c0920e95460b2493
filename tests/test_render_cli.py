import numpy as np
import pytest

from radarmag import (Radargram, load_radargram, read_ppm, render_heatmap,
                      simulate, write_ppm)
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
