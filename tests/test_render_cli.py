import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from radarmag import (Dataset, FeatureRow, Radargram, default_bank, feature_names, fit_ols,
                      fit_rf, load_radargram, read_ppm, render_heatmap, save_model,
                      save_radargram, simulate, write_features_csv, write_ppm)
from radarmag.cli import main

from scenes import breather_scene, validation_scene


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


WINDOW_OVERFLOW = "window of 1e+308s at 20.0 fps has no finite frame count"


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
                     "--window", "50:5", "--roi", "100:156"]) == 1   # longer than the record
        assert capsys.readouterr().err.splitlines() == [
            "error: record of 10 s is shorter than one 50 s window"]
        for alpha in ("nan", "-5"):   # rejected once, before any window is cut
            assert main(["features", scene_rgrm, "-o", feats, "--band", "40:50",
                         "--window", "2:0.5", "--roi", "100:156", "--alpha", alpha]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: alpha must be finite and >= -1, got {float(alpha)}"]
        write_features_csv([], feature_names(default_bank()), feats)
        assert main(["train", feats, "-o", str(tmp_path / "m.bin")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {feats}: no feature rows"]

    @pytest.mark.parametrize("flags, message", [
        (["--roi", "100:900"], "ROI [100, 900] exceeds 512 bins"),
        (["--band", "40:150"], "band [40.0, 150.0] Hz exceeds Nyquist 100.0 Hz"),
        (["--band", "41:49", "--window", "0.05:0.05"], "band [41.0, 49.0] Hz contains no DFT bins"),
    ], ids=["roi", "nyquist", "no-dct-bin"])
    def test_record_level_feature_error_is_one_line(self, scene_rgrm, tmp_path, flags, message):
        feats = tmp_path / "f.csv"
        argv = ["features", scene_rgrm, "-o", str(feats), "--band", "40:50", "--window", "2:0.5",
                "--roi", "100:156"] + flags
        assert run_cli(argv) == (1, [f"error: {message}"])
        assert not feats.exists()

    @pytest.mark.parametrize("command", ["magnify", "features"])
    def test_zero_bandwidth_divisor_is_user_error(self, scene_rgrm, tmp_path, command):
        bank = tmp_path / "bank.cfg"
        bank.write_text("wavelengths = 16, 8\nbandwidth_divisor = 0\n")
        out = str(tmp_path / "out")
        argv = {"magnify": ["magnify", scene_rgrm, out, "--alpha", "1", "--band", "40:50"],
                "features": ["features", scene_rgrm, "-o", out, "--band", "40:50",
                             "--window", "2:0.5", "--roi", "100:156"]}[command]
        assert run_cli(argv + ["--bank", str(bank)]) == (
            1, [f"error: {bank}: bandwidth_divisor must be positive and finite, got 0.0"])

    @pytest.mark.parametrize("flags", [
        ["--max-depth", "-1"], ["--min-leaf", "0"], ["--min-leaf", "-3"],
        ["--model", "ols", "--ridge", "nan"], ["--model", "ols", "--ridge", "inf"],
        ["--seed", "9223372036854775808"], ["--model", "ols", "--seed", "-1"],
    ], ids=["max-depth=-1", "min-leaf=0", "min-leaf=-3", "ols-ridge=nan", "ols-ridge=inf",
            "seed=2**63", "ols-seed=-1"])
    def test_bad_train_hyperparameter_is_user_error(self, tmp_path, flags):
        feature_csv(tmp_path / "f.csv", N_FEATURES, np.random.default_rng(0))
        model = tmp_path / "m.bin"
        code, err = run_cli(["train", str(tmp_path / "f.csv"), "-o", str(model), "--folds", "3"] + flags)
        name = flags[-2].lstrip("-").replace("-", "_")   # the message names the parameter
        assert code == 1 and len(err) == 1 and err[0].startswith("error: ") and name in err[0], (code, err)
        assert not model.exists()

    def test_csv_record_reads_like_binary(self, tmp_path):
        outputs = {}
        for fmt, name in (("csv", "scene.csv"), ("binary", "scene.rgrm")):
            record = str(tmp_path / name)
            assert main(["simulate", "configs/validation_scene.cfg", "--seed", "2", "-o", record,
                         "--format", fmt]) == 0
            assert main(["render", record, record + ".ppm"]) == 0
            assert main(["magnify", record, record + ".mag", "--alpha", "10", "--band", "40:50",
                         "--bank", "configs/magnify_bank.cfg"]) == 0
            outputs[fmt] = [open(record + ext, "rb").read() for ext in (".ppm", ".mag")]
        assert outputs["csv"] == outputs["binary"]

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
        # a path through a regular file is an OS error, reported like a missing file
        through_file = str(tmp_path / "file")
        (tmp_path / "file").write_text("")
        for argv in (["simulate", "configs/validation_scene.cfg", "-o", through_file + "/x.rgrm"],
                     ["render", through_file + "/x.rgrm", str(tmp_path / "x.ppm")]):
            assert run_cli(argv) == (
                1, [f"error: [Errno 20] Not a directory: '{through_file}/x.rgrm'"])

    @pytest.mark.parametrize("scale, argv, message", [
        (1e306, ["magnify", "out", "--alpha", "2"], "non-finite coefficient at level 3 "),
        (1e306, ["features", "-o", "out", "--window", "30:5", "--roi", "34:62", "--alpha", "2"],
         "non-finite coefficient at level 3 "),
        (1e160, ["features", "-o", "out", "--window", "30:5", "--roi", "34:62"],
         "level 0 (wavelength 75.0): ROI power overflows float64"),
        (1.0, ["magnify", "out", "--alpha", "2", "--window", "1e308:1"], WINDOW_OVERFLOW),
        (1.0, ["features", "-o", "out", "--window", "1e308:1", "--roi", "34:62"], WINDOW_OVERFLOW),
        (1.0, ["magnify", "out", "--alpha", "2", "--window", "1e308:1e308"], WINDOW_OVERFLOW),
        (1.0, ["features", "-o", "out", "--window", "1e308:1e308", "--roi", "34:62"],
         WINDOW_OVERFLOW),
    ], ids=["magnify", "features-alpha-2", "features", "magnify-window", "features-window",
            "magnify-window-shift", "features-window-shift"])
    def test_overflowing_record_is_one_line(self, tmp_path, caplog, scale, argv, message):
        # the breather of tests/scenes.py scaled until its Gabor coefficients
        # (1e306) or their squares (1e160) overflow float64, or as it is with a
        # window whose frame count does
        r, _ = simulate(breather_scene(0.25, 0.5), seed=1)
        path = str(tmp_path / "scaled.rgrm")
        save_radargram(r.with_data(r.data * scale), path)
        argv = [argv[0], path] + [str(tmp_path / a) if a == "out" else a for a in argv[1:]]
        code, err = run_cli(argv + ["--band", "0.1:0.7"])
        assert code == 1 and len(err) == 1 and err[0].startswith(f"error: {message}"), err
        assert not (tmp_path / "out").exists()
        assert not [rec for rec in caplog.records if "skipping window" in rec.getMessage()]

    @pytest.mark.parametrize("argv", [
        ["simulate", "configs/validation_scene.cfg", "-o", "x.rgrm", "--seed", "abc"],
        ["magnify", "a.rgrm", "b.rgrm", "--alpha", "1", "--band", "40:50", "--window", "1:2"],
        ["features", "a.rgrm", "-o", "f.csv", "--band", "40:50", "--window", "5:2.5",
         "--roi", "5:x"],
        ["train", "f.csv", "-o", "m.bin", "--folds", "ten"],
        ["eval", "m.bin"],
        ["render", "a.rgrm", "b.ppm", "--clip", "x:y"],
        ["simulate", "configs/validation_scene.cfg", "-o", "x.rgrm", "--seed", "-1"],
    ], ids=["simulate", "magnify", "features", "train", "eval", "render", "simulate-seed=-1"])
    def test_malformed_flag_is_user_error(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: radarmag {argv[0]}: ")

    def test_missing_subcommand_is_user_error(self, capsys):
        assert main([]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_help_lists_units(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["magnify", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "Hz" in text and "alpha" in text


N_FEATURES = 4
BAD_CELLS = ("inf", "-inf", "nan", "1e999", "", "x", "0x10")


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


def run_cli(argv):
    """Exit code and stderr lines of one radarmag run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def run_eval(root, model_bytes, features="features.csv"):
    """Exit code and stderr lines of `radarmag eval` on the given model bytes."""
    (root / "model.bin").write_bytes(model_bytes)
    return run_cli(["eval", str(root / "model.bin"), str(root / features)])


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 1 + N_FEATURES), st.sampled_from(BAD_CELLS))
    def test_bad_feature_cell(self, eval_inputs, row, column, value):
        root, blobs = eval_inputs
        lines = (root / "features.csv").read_text().splitlines()
        names = lines[0].split(",")
        cells = lines[1 + row].split(",")
        cells[column] = value
        lines[1 + row] = ",".join(cells)
        (root / "bad.csv").write_text("\n".join(lines) + "\n")
        code, err = run_eval(root, blobs["rf"], "bad.csv")
        if (names[column], value) == ("label_bpm", ""):   # an unlabelled row is valid
            assert (code, err) == (0, [])
        else:
            assert (code, err) == (1, [f"error: {root / 'bad.csv'}:{2 + row}: "
                                       f"bad value {value!r} for {names[column]!r}"])

    def test_header_only_feature_csv(self, eval_inputs):
        root, blobs = eval_inputs
        header = (root / "features.csv").read_text().splitlines()[0]
        (root / "empty.csv").write_text(header + "\n")
        assert run_eval(root, blobs["ols"], "empty.csv") == (
            1, [f"error: {root / 'empty.csv'}: no feature rows"])

    @pytest.mark.parametrize("header, message", [
        ("window_start_s,label_bpm", "no feature columns"),
        ("window_start_s,label_bpm,f0,f0", "repeated column 'f0'"),
        ("window_start_s,label_bpm,f0,label_bpm", "repeated column 'label_bpm'"),
    ], ids=["no-feature-column", "repeated-feature", "repeated-label"])
    def test_feature_csv_columns(self, eval_inputs, header, message):
        root, blobs = eval_inputs
        row = ",".join(["0", "15"] + ["1"] * (header.count(",") - 1))
        path = root / "columns.csv"
        path.write_text(f"{header}\n{row}\n{row}\n{row}\n")
        assert run_eval(root, blobs["rf"], "columns.csv") == (1, [f"error: {path}: {message}"])
        assert run_cli(["train", str(path), "--folds", "3", "-o", str(root / "m.bin")]) == (
            1, [f"error: {path}: {message}"])


@pytest.fixture(scope="module")
def small_rgrm(tmp_path_factory):
    """Directory and bytes of a valid 3 x 4 binary radargram."""
    root = tmp_path_factory.mktemp("rgrm")
    r = Radargram(np.random.default_rng(0).standard_normal((3, 4)), fps=10.0, bin_spacing=0.1)
    save_radargram(r, str(root / "r.rgrm"))
    return root, (root / "r.rgrm").read_bytes()


def run_render(root, blob):
    path = root / "bad.rgrm"
    path.write_bytes(blob)
    code, err = run_cli(["render", str(path), str(root / "x.ppm")])
    assert code == 1 and len(err) == 1 and err[0].startswith(f"error: {path}: "), (code, err)
    return err[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRadargramRejectsBadInput:
    """Truncated or mis-sized .rgrm files exit 1 with one line, never 0 or 2."""

    def test_every_truncation(self, small_rgrm):
        root, blob = small_rgrm
        for size in range(len(blob)):
            run_render(root, blob[:size])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @example(1, 11).via("one sample short")
    @example(13, 1).via("one sample over")
    @example(2**20, 2**20).via("far beyond memory")
    @example(2**32 - 1, 2**32 - 1).via("largest header")
    def test_declared_shape_must_match_file_size(self, small_rgrm, n_bins, n_frames):
        assume(n_bins * n_frames != 12)
        root, blob = small_rgrm
        header = blob[:8] + struct.pack("<II", n_bins, n_frames) + blob[16:]
        assert "header declares" in run_render(root, header)


BAD_VALUES = ("inf", "-inf", "nan", "1e308", "", "x")

# Scene file: header block "" and one [target] block per kind
SCENE = {"": dict(duration_s="2", fps="50", n_bins="64", bin_spacing="0.01", noise_sigma="0.01",
                  t0_offset="0", pulse_sigma_bins="3", pulse_carrier_bins="6"),
         "sinusoid": dict(kind="sinusoid", center_range_m="0.2", reflectivity="1",
                          amplitude_bins="0.5", freq_hz="1"),
         "linear": dict(kind="linear", center_range_m="0.4", reflectivity="0.5",
                        velocity_mps="0.01")}
SCENE_KEYS = [(block, key) for block, keys in SCENE.items() for key in keys]
NUMERIC_SCENE_KEYS = [entry for entry in SCENE_KEYS if entry[1] != "kind"]

# Bank files with one numeric field of each key left open
BANKS = ["wavelengths = {}, 8\n",
         "wavelengths = 16, 8\nbandwidth_divisor = {}\n",
         "wavelengths = 16, {}\n",
         "level = {}:4\nlevel = 8:2\n",
         "level = 16:{}\nlevel = 8:2\n"]

EXCLUSIVE_LEVELS = ": 'level' entries exclude 'wavelengths' and 'bandwidth_divisor'"


def write_scene(path, edit=None, key=None, value=None):
    """Write the test scene with entry ``edit`` = (block, key) replaced by
    key = value; returns the line number of that entry."""
    lines, edited = [], None
    for block, entries in SCENE.items():
        if block:
            lines.append("[target]")
        for k, v in entries.items():
            if (block, k) == edit:
                k, v, edited = key, value, len(lines) + 1
            lines.append(f"{k} = {v}")
    path.write_text("\n".join(lines) + "\n")
    return edited


def check_config_error(path, line, key, value, code, err):
    """1e308 is finite, so some keys take it; every other value exits 1 naming file, line and key."""
    if value == "1e308":
        assert (code, len(err)) in ((0, 0), (1, 1)), (code, err)
    else:
        assert (code, err) == (1, [f"error: {path}:{line}: bad value {value!r} for {key!r}"])


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    write_scene(root / "scene.cfg")
    assert run_cli(["simulate", str(root / "scene.cfg"), "-o", str(root / "scene.rgrm")])[0] == 0
    return root


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestConfigFilesRejectBadInput:
    """Non-finite, empty, non-numeric or misspelt config entries exit 1 with one line."""

    @settings(max_examples=len(NUMERIC_SCENE_KEYS) * len(BAD_VALUES), deadline=None)
    @given(st.sampled_from(NUMERIC_SCENE_KEYS), st.sampled_from(BAD_VALUES))
    def test_scene_value(self, config_dir, entry, value):
        path = config_dir / "bad_scene.cfg"
        line = write_scene(path, entry, entry[1], value)
        code, err = run_cli(["simulate", str(path), "-o", str(config_dir / "x.rgrm")])
        check_config_error(path, line, entry[1], value, code, err)

    @settings(max_examples=len(SCENE_KEYS), deadline=None)
    @given(st.sampled_from(SCENE_KEYS))
    def test_misspelt_scene_key(self, config_dir, entry):
        path = config_dir / "bad_scene.cfg"
        block, key = entry
        line = write_scene(path, entry, key[:-1], SCENE[block][key])
        code, err = run_cli(["simulate", str(path), "-o", str(config_dir / "x.rgrm")])
        assert (code, err) == (1, [f"error: {path}:{line}: unknown key {key[:-1]!r}"])

    @settings(max_examples=len(SCENE_KEYS), deadline=None)
    @given(st.sampled_from(SCENE_KEYS))
    def test_repeated_scene_key(self, config_dir, entry):
        path = config_dir / "bad_scene.cfg"
        block, key = entry
        line = write_scene(path, entry, key, SCENE[block][key])
        lines = path.read_text().splitlines()
        lines.insert(line, lines[line - 1])
        path.write_text("\n".join(lines) + "\n")
        code, err = run_cli(["simulate", str(path), "-o", str(config_dir / "x.rgrm")])
        assert (code, err) == (1, [f"error: {path}:{line + 1}: repeated key {key!r}"])

    @pytest.mark.parametrize("template, message", [
        ("wavelengths = 75, 15\nlevel = 10:1\n", EXCLUSIVE_LEVELS),
        ("level = 16:4\nlevel = 8:2\nbandwidth_divisor = 3\n", EXCLUSIVE_LEVELS),
        ("wavelengths = 16, 8\nwavelengths = 16, 4\n", ":2: repeated key 'wavelengths'"),
        ("wavelengths = 16, 8\nbandwidth_divisor = 3\nbandwidth_divisor = 4\n",
         ":3: repeated key 'bandwidth_divisor'"),
    ], ids=["wavelengths-and-level", "level-and-divisor", "wavelengths-twice", "divisor-twice"])
    def test_conflicting_bank_keys(self, config_dir, template, message):
        path = config_dir / "bank.cfg"
        path.write_text(template)
        code, err = run_cli(["magnify", str(config_dir / "scene.rgrm"), str(config_dir / "x.rgrm"),
                             "--alpha", "1", "--band", "0.5:2", "--bank", str(path)])
        assert (code, err) == (1, [f"error: {path}{message}"])

    @settings(max_examples=len(BANKS) * len(BAD_VALUES), deadline=None)
    @given(st.sampled_from(BANKS), st.sampled_from(BAD_VALUES))
    def test_bank_value(self, config_dir, template, value):
        path = config_dir / "bank.cfg"
        path.write_text(template.format(value))
        line, text = next((i, t) for i, t in enumerate(template.splitlines(), 1) if "{}" in t)
        code, err = run_cli(["magnify", str(config_dir / "scene.rgrm"), str(config_dir / "x.rgrm"),
                             "--alpha", "1", "--band", "0.5:2", "--bank", str(path)])
        check_config_error(path, line, text.split("=")[0].strip(), value, code, err)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1.0, 512.0).filter(lambda v: not v.is_integer()))
    def test_fractional_n_bins(self, config_dir, n_bins):
        path = config_dir / "bad_scene.cfg"
        write_scene(path, ("", "n_bins"), "n_bins", repr(n_bins))
        code, err = run_cli(["simulate", str(path), "-o", str(config_dir / "x.rgrm")])
        assert (code, err) == (1, [f"error: {path}: n_bins must be a whole number, got {n_bins!r}"])

    # 1e17 float64 bins need 8e17 bytes, more than any 57-bit address space can
    # map, so these fail at allocation on any host and never touch memory
    @settings(max_examples=20, deadline=None)
    @given(st.floats(1e17, 1e308))
    @example(1e17).via("numpy MemoryError")
    @example(1e308).via("numpy size limit")
    def test_n_bins_too_large_to_allocate(self, config_dir, n_bins):
        path = config_dir / "bad_scene.cfg"
        write_scene(path, ("", "n_bins"), "n_bins", repr(n_bins))
        code, err = run_cli(["simulate", str(path), "-o", str(config_dir / "x.rgrm")])
        assert code == 1 and len(err) == 1 and err[0].startswith(f"error: {path}: "), (code, err)
