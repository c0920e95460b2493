import logging
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radarmag import (BandSpec, MagnifyConfig, Radargram, RangeROI,
                      SceneSpec, TargetSpec, WindowSpec, dct_bandpass, decompose,
                      default_bank, feature_names, featurize, fft_peak_bpm, level_signals,
                      magnify, read_features_csv, read_labels_csv, save_radargram, simulate,
                      unwrap_phase, windows, write_features_csv, zcr_hz)
from radarmag import features as features_module
from radarmag.cli import main

from scenes import BREATHER_ROI, NARROW_ROI, NARROW_SCENE, breather_scene

RR_BAND = BandSpec(0.1, 0.7)
HR_BAND = BandSpec(0.7, 3.0)


def sinusoid_signal(freq_hz, fps=20.0, duration_s=30.0, amplitude=1.0, noise=0.0, seed=0):
    t = np.arange(int(fps * duration_s)) / fps
    series = amplitude * np.sin(2 * np.pi * freq_hz * t)
    if noise:
        series = series + noise * np.random.default_rng(seed).standard_normal(len(t))
    return series


def whole(r):
    """The window spec whose one window is the whole record."""
    return WindowSpec(r.duration_s, r.duration_s)


def each_row(fn, stack):
    """fn applied to every series of a stack as a 1-D array, one call each."""
    return np.array([fn(row) for row in stack.reshape(-1, stack.shape[-1])]).reshape(stack.shape[:-1])


class TestLevelSeries:
    def test_breather_dominates_every_level(self):
        r, _ = simulate(breather_scene(0.25, 0.5), seed=0)
        bank = default_bank()
        series, skips = level_signals(r, bank, RR_BAND, BREATHER_ROI, whole(r))
        assert skips == [None]
        assert series.shape == (len(bank), 1, r.n_frames)
        for s in series[:, 0]:
            spectrum = np.abs(np.fft.rfft(s))
            freqs = np.fft.rfftfreq(len(s), 1.0 / r.fps)
            assert freqs[np.argmax(spectrum)] == pytest.approx(0.25, abs=1.0 / 60.0)

    def test_zero_radargram_rejected(self):
        r = Radargram(np.zeros((96, 600)), fps=20.0, bin_spacing=0.01)
        series, skips = level_signals(r, default_bank(), RR_BAND, BREATHER_ROI, whole(r))
        assert skips == ["level 0 (wavelength 75.0) has zero amplitude in ROI"]
        assert not series.any()

    def test_static_scene_has_no_in_band_motion(self):
        scene = SceneSpec(duration_s=30.0, fps=20.0, n_bins=96, bin_spacing=0.01,
                          targets=(TargetSpec("static", 0.48, 1.0),))
        r, _ = simulate(scene, seed=0)
        series, _ = level_signals(r, default_bank(), RR_BAND, BREATHER_ROI, whole(r))
        assert np.max(np.abs(series)) < 1e-6


class TestFftPeak:
    def test_quarter_hertz_is_15_bpm(self):
        assert fft_peak_bpm(sinusoid_signal(0.25), 20.0, RR_BAND) == pytest.approx(15.0, abs=0.5)

    def test_1p2_hertz_is_72_bpm(self):
        assert fft_peak_bpm(sinusoid_signal(1.2), 20.0, HR_BAND) == pytest.approx(72.0, abs=0.5)

    def test_larger_peak_wins(self):
        two = sinusoid_signal(0.25)
        weaker = sinusoid_signal(0.4, amplitude=0.5)
        assert fft_peak_bpm(two + weaker, 20.0, RR_BAND) == pytest.approx(15.0, abs=0.5)

    def test_scale_invariance(self):
        s = sinusoid_signal(0.3, noise=0.05)
        assert fft_peak_bpm(17.3 * s, 20.0, RR_BAND) == fft_peak_bpm(s, 20.0, RR_BAND)
        # a levels x windows x n stack is each series on its own, bit for bit,
        # also at 2 and 3 samples, whose only in-band bin is the edge bin 0
        band = BandSpec(0.0, 0.7)
        for n in (2, 3, 600):
            stack = 17.3 * np.random.default_rng(n).standard_normal((3, 4, n))
            got = fft_peak_bpm(stack, 20.0, band)
            assert np.array_equal(got, each_row(lambda row: fft_peak_bpm(row, 20.0, band), stack))

    def test_empty_band_rejected(self):
        s = sinusoid_signal(0.25, fps=20.0, duration_s=30.0)
        with pytest.raises(ValueError, match="contains no DFT bins"):
            fft_peak_bpm(s, 20.0, BandSpec(0.0001, 0.001))


class TestZcr:
    def test_pure_tone(self):
        s = sinusoid_signal(1.0, fps=20.0, duration_s=30.0)
        assert zcr_hz(s, 20.0) == pytest.approx(1.0, abs=1.0 / 30.0)

    def test_constant_series(self):
        assert zcr_hz(np.full(600, 2.5), 20.0) == 0.0
        # a levels x windows x n stack is each series on its own, bit for bit,
        # with an all-zero, a constant and a zero-led zero-mean series in it
        for n in (2, 3, 600):
            stack = np.random.default_rng(n).standard_normal((3, 4, n))
            stack[0, :3] = [np.zeros(n), np.full(n, 2.5), np.resize([0.0, 1.0, -1.0, 0.0], n)]
            got = zcr_hz(stack, 20.0)
            assert np.array_equal(got, each_row(lambda row: zcr_hz(row, 20.0), stack))
            assert got[0, 0] == got[0, 1] == 0.0

    def test_noisy_tone_within_15_percent(self):
        s = sinusoid_signal(0.25, noise=0.01, seed=3)
        assert abs(zcr_hz(s, 20.0) - 0.25) / 0.25 < 0.15

    def test_frequency_sweep_matches_within_resolution(self):
        for f in (0.2, 0.5, 1.3, 2.0):
            s = sinusoid_signal(f, fps=20.0, duration_s=30.0)
            assert abs(zcr_hz(s, 20.0) - f) <= 1.0 / 30.0


@pytest.fixture(scope="module")
def record():
    r, _ = simulate(breather_scene(0.25, 0.5, duration_s=60.0), seed=1)
    return r


class TestFeaturize:
    def test_seven_windows_and_feature_length(self, record):
        bank = default_bank()
        # also a 30-bin record, narrower than the widest kernel
        narrow, _ = simulate(NARROW_SCENE, seed=1)
        for r, roi, alpha in [(record, BREATHER_ROI, 0.0), (record, BREATHER_ROI, 1.0),
                              (narrow, NARROW_ROI, 0.0), (narrow, NARROW_ROI, 1.0)]:
            rows = featurize(r, bank, WindowSpec(30.0, 5.0), RR_BAND, roi, alpha=alpha)
            assert len(rows) == 7
            for row in rows:
                assert len(row.features) == 2 * len(bank)
                assert np.isfinite(row.features).all()
                assert np.abs(row.features[:len(bank)] - 15.0).max() <= 0.5   # FFT peaks, bpm

    def test_feature_vector_length_tracks_bank(self, record):
        from radarmag import make_bank
        bank14 = make_bank([75, 40, 20, 15, 12, 10, 9, 8, 7, 6, 5, 4.5, 4, 3.5])
        rows = featurize(record, bank14, WindowSpec(30.0, 5.0), RR_BAND, BREATHER_ROI)
        assert all(len(row.features) == 28 for row in rows)

    def test_labels_are_window_means(self, record):
        t = np.arange(0, 60.0, 0.5)
        labels = np.column_stack([t, np.full_like(t, 15.0)])
        rows = featurize(record, default_bank(), WindowSpec(30.0, 5.0), RR_BAND,
                         BREATHER_ROI, labels=labels)
        assert all(row.label_bpm == pytest.approx(15.0) for row in rows)
        # the mean is over the window's frames: 2.525 s at 20 fps rounds to
        # 51 frames, so window 0 spans [0, 2.55) s
        t = np.arange(2400) / 40.0
        bpm = np.full_like(t, 10.0)
        bpm[101] = 100.0   # at t = 2.525 s
        rows = featurize(record, default_bank(), WindowSpec(2.525, 2.525), RR_BAND,
                         BREATHER_ROI, labels=np.column_stack([t, bpm]))
        assert rows[0].label_bpm == pytest.approx(10.0 + 90.0 / 102)
        assert all(row.label_bpm == 10.0 for row in rows[1:])

    def test_deterministic_csv(self, record, tmp_path):
        bank = default_bank()
        rows = featurize(record, bank, WindowSpec(30.0, 5.0), RR_BAND, BREATHER_ROI)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_features_csv(rows, feature_names(bank), p1)
        write_features_csv(rows, feature_names(bank), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_csv_round_trip(self, record, tmp_path):
        bank = default_bank()
        t = np.arange(0, 60.0, 0.5)
        labels = np.column_stack([t, 15.0 + 0.1 * t])
        rows = featurize(record, bank, WindowSpec(30.0, 5.0), RR_BAND,
                         BREATHER_ROI, labels=labels)
        path = str(tmp_path / "f.csv")
        write_features_csv(rows, feature_names(bank), path)
        back, names = read_features_csv(path)
        assert names == feature_names(bank)
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert np.allclose(a.features, b.features, rtol=1e-10)
            assert a.label_bpm == pytest.approx(b.label_bpm, rel=1e-10)

    def test_labels_csv_reader(self, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        path.write_text("time_s,bpm\n0,60\n1,62\n2,64\n")
        labels = read_labels_csv(str(path))
        assert labels.shape == (3, 2)
        assert labels[1, 1] == 62.0
        bare = tmp_path / "bare.csv"
        bare.write_text("0,60\n1,62\n")
        assert read_labels_csv(str(bare)).shape == (2, 2)
        # malformed files: one line naming the file and line, also as a CLI error
        rgrm = str(tmp_path / "r.rgrm")
        save_radargram(Radargram(np.zeros((64, 100)), fps=20.0, bin_spacing=0.01), rgrm)
        for text, line in [("time_s,bpm,posture\n0,60,1\n1,62,1\n", 2),  # three columns
                           ("0\n1\n", 1),                                # one column
                           ("", 1),                                      # empty file
                           ("time_s,bpm\n", 2),                          # header only
                           ("time_s,bpm\n0,60\nabc,62\n", 3),            # text in the body
                           ("0,60\n1,nan\n", 2)]:                        # non-finite value
            bad = tmp_path / "bad.csv"
            bad.write_text(text)
            message = f"{bad}:{line}: expected two numeric columns (time_s, bpm)"
            with pytest.raises(ValueError) as exc:
                read_labels_csv(str(bad))
            assert str(exc.value) == message
            code = main(["features", rgrm, "-o", str(tmp_path / "f.csv"), "--band", "0.1:0.7",
                         "--window", "4:2", "--roi", "10:20", "--labels", str(bad)])
            assert code == 1
            assert capsys.readouterr().err.splitlines() == [f"error: {message}"], text


@contextmanager
def skip_log():
    """The messages featurize logs while the block runs."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("radarmag.features")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def per_window_oracle(r, bank, wspec, band, roi, alpha=0.0):
    """level_signals on each windows() slice: (start_s, series, skip) per
    window, series being levels x 1 x window length."""
    out = []
    for start, window in windows(r, wspec):
        if alpha != 0.0:
            window = magnify(window, bank, MagnifyConfig(alpha=alpha, band=band))
        series, (skip,) = level_signals(window, bank, band, roi, wspec)
        out.append((start / r.fps, series, skip))
    return out


def per_row_reference(window, bank, band, roi):
    """Filter, then weight: per level, every ROI row's unwrapped phase
    bandpassed on its own, then the rows' mean weighted by their mean power."""
    rows = features_module._analysis_rows(roi, bank.max_radius, window.n_bins)
    pyr = decompose(window.data[rows], bank)
    out = []
    for level in pyr.levels:
        sub = level[roi.first_bin - rows.start : roi.last_bin + 1 - rows.start]
        weights = (np.abs(sub) ** 2).mean(axis=1)
        filtered = dct_bandpass(unwrap_phase(np.angle(sub)), window.fps, band)
        out.append(weights @ filtered / weights.sum())
    return out


def features_of(series, fps, band):
    return np.concatenate([fft_peak_bpm(series, fps, band), zcr_hz(series, fps)])


def check_featurize_matches_oracle(r, bank, wspec, band, roi, alpha=0.0, atol=1e-12):
    """featurize keeps the oracle's windows, logs its skips, and matches its features."""
    expected = per_window_oracle(r, bank, wspec, band, roi, alpha)
    with skip_log() as messages:
        rows = featurize(r, bank, wspec, band, roi, alpha=alpha)
    assert messages == [f"skipping window at {start_s:.2f}s: {skip}"
                        for start_s, _, skip in expected if skip is not None]
    kept = [(start_s, series) for start_s, series, skip in expected if skip is None]
    assert [row.window_start_s for row in rows] == [start_s for start_s, _ in kept]
    for row, (_, series) in zip(rows, kept):
        assert np.abs(row.features - features_of(series[:, 0], r.fps, band)).max() <= atol
    return rows


@st.composite
def record_cases(draw):
    """A two-target record, a window that need not tile it, a band, an ROI and
    an optional stretch of all-zero frames."""
    fps = 20.0
    n_bins = draw(st.integers(48, 96))
    duration_s = draw(st.sampled_from([8.0, 12.5, 20.0]))
    targets = tuple(
        TargetSpec("sinusoid", draw(st.floats(0.1, 0.9)) * n_bins * 0.01, 1.0,
                   amplitude_bins=draw(st.floats(0.05, 1.0)), freq_hz=draw(st.floats(0.15, 2.5)))
        for _ in range(2))
    scene = SceneSpec(duration_s=duration_s, fps=fps, n_bins=n_bins, bin_spacing=0.01,
                      targets=targets, noise_sigma=0.02, pulse_sigma_bins=3.0,
                      pulse_carrier_bins=6.0)
    record, _ = simulate(scene, seed=draw(st.integers(0, 2**16)))
    data = record.data.copy()
    if draw(st.booleans()):
        lo = draw(st.integers(0, data.shape[1] - 1))
        data[:, lo : draw(st.integers(lo + 1, data.shape[1]))] = 0.0
    length_s = draw(st.sampled_from([2.0, 3.0, 5.0]))
    wspec = WindowSpec(length_s, draw(st.floats(0.05, 1.0)) * length_s)
    first = draw(st.integers(0, n_bins - 1))
    roi = RangeROI(first, draw(st.integers(first, n_bins - 1)))
    f_lo = draw(st.sampled_from([0.0, 0.1, 0.7]))
    band = BandSpec(f_lo, draw(st.sampled_from([0.7, 3.0, 10.0]).filter(lambda f: f > f_lo)))
    return Radargram(data, fps=fps, bin_spacing=0.01), wspec, band, roi


class TestRecordLevelFeaturize:
    """featurize analyses the record once; each window must still see exactly
    what level_signals sees on that window cut out."""

    @settings(max_examples=40, deadline=None)
    @given(record_cases())
    @example((simulate(breather_scene(0.25, 0.5, duration_s=20.0), seed=0)[0],
              WindowSpec(5.0, 1.5), BandSpec(0.0, 0.7), RangeROI(0, 95))).via("ROI of every bin")
    @example((simulate(breather_scene(0.25, 0.5, duration_s=1.5), seed=0)[0],
              WindowSpec(2.0, 1.0), RR_BAND, BREATHER_ROI)).via("record shorter than one window")
    def test_level_signals_match_per_window_oracle(self, case):
        # Compared on the signals, not the features: an FFT peak or a
        # zero-crossing count jumps at ties, and a window with one non-silent
        # frame has a flat spectrum whose peak roundoff alone decides.  A
        # window's phase is the record's unwrap re-anchored at its first
        # sample, a running sum over every earlier frame, so it carries
        # roundoff that the window's own unwrap does not.
        r, wspec, band, roi = case
        bank = default_bank()
        series, skips = level_signals(r, bank, band, roi, wspec)
        starts = wspec.starts(r.n_frames, r.fps)
        expected = per_window_oracle(r, bank, wspec, band, roi)
        # weighting before the bandpass matches bandpassing every ROI row before it
        for (_, window), (_, oracle, skip) in zip(windows(r, wspec), expected):
            if skip is None:
                for s, ref in zip(oracle[:, 0], per_row_reference(window, bank, band, roi),
                                  strict=True):
                    assert np.abs(s - ref).max() <= 1e-12
        # a record shorter than one window has none
        assert [start / r.fps for start in starts] == [start_s for start_s, _, _ in expected]
        assert series.shape == (len(bank), len(starts), wspec.frames(r.fps)[0])
        assert skips == [skip for _, _, skip in expected]
        for i, (_, oracle, skip) in enumerate(expected):
            if skip is None:
                assert np.abs(series[:, i] - oracle[:, 0]).max() <= 1e-10

    @pytest.mark.parametrize("roi", [RangeROI(0, 40), BREATHER_ROI, RangeROI(50, 95)],
                             ids=["bin-0", "breather", "last-bin"])
    def test_features_match_per_window_oracle(self, record, roi):
        bank = default_bank()
        for band in (RR_BAND, HR_BAND, BandSpec(0.0, 0.7)):
            # a 4 s shift leaves the last 2 s of the 60 s record uncovered
            rows = check_featurize_matches_oracle(record, bank, WindowSpec(30.0, 4.0), band, roi)
            assert len(rows) == 8

    def test_silent_stretch_skips_the_same_windows(self):
        r, _ = simulate(breather_scene(0.25, 0.5, duration_s=30.0), seed=2)
        data = r.data.copy()
        data[:, 200:420] = 0.0
        r = r.with_data(data)
        with skip_log() as messages:
            rows = check_featurize_matches_oracle(r, default_bank(), WindowSpec(5.0, 2.0),
                                                  RR_BAND, BREATHER_ROI)
        assert messages == [
            f"skipping window at {s:.2f}s: level 0 (wavelength 75.0) has zero amplitude in ROI"
            for s in (10.0, 12.0, 14.0, 16.0)]
        assert len(rows) == 13 - 4

    def test_magnified_windows_take_the_per_window_path(self, record):
        rows = check_featurize_matches_oracle(record, default_bank(), WindowSpec(30.0, 10.0),
                                              RR_BAND, BREATHER_ROI, alpha=1.0, atol=0.0)
        assert len(rows) == 4

    def test_magnified_memory_does_not_grow_with_record_length(self, record):
        # each window is cut from the record only when it is magnified, so the
        # traced peak grows with the record only by the windows' signals
        bank = default_bank()
        wspec = WindowSpec(30.0, 5.0)
        featurize(record, bank, wspec, RR_BAND, BREATHER_ROI, alpha=1.0)   # warm caches
        peaks = []
        for repeats in (1, 4):
            r = record.with_data(np.tile(record.data, repeats))
            tracemalloc.start()
            try:
                rows = featurize(r, bank, wspec, RR_BAND, BREATHER_ROI, alpha=1.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert r.duration_s == 240.0 and len(rows) == 43
        assert peaks[1] <= 1.25 * peaks[0], [f"{p / 2**20:.1f} MiB" for p in peaks]

    def test_one_decomposition_and_one_unwrap_per_level(self, record, monkeypatch):
        calls = {"decompose": []}
        decompose = features_module.decompose

        def counted_decompose(signal, bank):
            calls["decompose"].append(signal.shape)
            return decompose(signal, bank)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(features_module, "decompose", counted_decompose)
        for name in ("unwrap_phase", "dct_bandpass", "fft_peak_bpm", "zcr_hz"):
            monkeypatch.setattr(features_module, name, counted(name, getattr(features_module, name)))
        bank = default_bank()
        rows = featurize(record, bank, WindowSpec(30.0, 5.0), RR_BAND, BREATHER_ROI)
        assert len(rows) == 7
        # ROI rows 34..62 plus the 20-bin radius of the 75-bin kernel on each
        # side; each level's one bandpass filters all 7 windows, and each
        # feature is taken once over every level and window
        assert calls == {"decompose": [(69, record.n_frames)], "unwrap_phase": len(bank),
                         "dct_bandpass": len(bank), "fft_peak_bpm": 1, "zcr_hz": 1}

    @pytest.mark.parametrize("roi, band, message", [
        (RangeROI(90, 100), RR_BAND, "ROI [90, 100] exceeds 96 bins"),
        (BREATHER_ROI, BandSpec(0.7, 12.0), "band [0.7, 12.0] Hz exceeds Nyquist 10.0 Hz"),
        (BREATHER_ROI, BandSpec(0.21, 0.23), "band [0.21, 0.23] Hz contains no DFT bins"),
    ], ids=["roi", "nyquist", "no-dct-bin"])
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_record_level_errors_raise_once(self, record, roi, band, message, alpha):
        with skip_log() as messages, pytest.raises(ValueError) as exc:
            featurize(record, default_bank(), WindowSpec(10.0, 5.0), band, roi, alpha=alpha)
        assert str(exc.value) == message
        assert messages == []

    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    def test_band_without_a_dft_bin_fails_before_any_window(self, record, monkeypatch, alpha):
        # 1 s windows at 20 fps: the bandpass's DCT grid (0.5 Hz steps) has
        # a bin in 0.1-0.7 Hz, fft_peak_bpm's DFT grid (1 Hz steps) has none
        def analysed(*args, **kwargs):
            raise AssertionError("a window was analysed")

        monkeypatch.setattr(features_module, "decompose", analysed)
        monkeypatch.setattr(features_module, "magnify", analysed)
        with pytest.raises(ValueError) as exc:
            featurize(record, default_bank(), WindowSpec(1.0, 0.5), RR_BAND, BREATHER_ROI,
                      alpha=alpha)
        assert str(exc.value) == "band [0.1, 0.7] Hz contains no DFT bins"

    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    def test_uncovered_window_fails_before_any_window(self, record, monkeypatch, tmp_path,
                                                      capsys, alpha):
        # labels at 0 and 1 s cover the first 10 s window but not the one at 5 s
        def analysed(*args, **kwargs):
            raise AssertionError("a window was analysed")

        monkeypatch.setattr(features_module, "decompose", analysed)
        monkeypatch.setattr(features_module, "magnify", analysed)
        labels = np.array([[0.0, 60.0], [1.0, 62.0]])
        with pytest.raises(ValueError) as exc:
            featurize(record, default_bank(), WindowSpec(10.0, 5.0), RR_BAND, BREATHER_ROI,
                      labels=labels, alpha=alpha)
        assert str(exc.value) == "labels: no label samples cover window starting at 5.0s"
        # the CLI names the labels file
        rgrm, path = str(tmp_path / "r.rgrm"), tmp_path / "labels.csv"
        save_radargram(record, rgrm)
        path.write_text("time_s,bpm\n0,60\n1,62\n")
        code = main(["features", rgrm, "-o", str(tmp_path / "f.csv"), "--band", "0.1:0.7",
                     "--window", "10:5", "--roi", "34:62", "--labels", str(path),
                     "--alpha", str(alpha)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: no label samples cover window starting at 5.0s"]

    def test_magnify_error_raises_once(self, record):
        with skip_log() as messages, pytest.raises(ValueError, match="need at least 4 frames, got 2"):
            featurize(record, default_bank(), WindowSpec(0.1, 0.1), BandSpec(0.0, 0.7),
                      BREATHER_ROI, alpha=1.0)
        assert messages == []
