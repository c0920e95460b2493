import numpy as np
import pytest

from radarmag import (BandSpec, LevelSignal, Radargram, SceneSpec, TargetSpec,
                      WindowSpec, default_bank, feature_names, featurize,
                      fft_peak_bpm, level_signals, read_features_csv,
                      read_labels_csv, save_radargram, simulate, write_features_csv,
                      zcr_hz)
from radarmag.cli import main

from scenes import BREATHER_ROI, breather_scene

RR_BAND = BandSpec(0.1, 0.7)
HR_BAND = BandSpec(0.7, 3.0)


def sinusoid_signal(freq_hz, fps=20.0, duration_s=30.0, amplitude=1.0, noise=0.0, seed=0):
    t = np.arange(int(fps * duration_s)) / fps
    series = amplitude * np.sin(2 * np.pi * freq_hz * t)
    if noise:
        series = series + noise * np.random.default_rng(seed).standard_normal(len(t))
    return LevelSignal(level_index=0, wavelength=10.0, series=series, fps=fps)


class TestLevelSignals:
    def test_breather_dominates_every_level(self):
        r, _ = simulate(breather_scene(0.25, 0.5), seed=0)
        bank = default_bank()
        signals = level_signals(r, bank, RR_BAND, BREATHER_ROI)
        assert len(signals) == len(bank)
        for s in signals:
            spectrum = np.abs(np.fft.rfft(s.series))
            freqs = np.fft.rfftfreq(len(s.series), 1.0 / s.fps)
            assert freqs[np.argmax(spectrum)] == pytest.approx(0.25, abs=1.0 / 60.0)

    def test_zero_radargram_rejected(self):
        r = Radargram(np.zeros((96, 600)), fps=20.0, bin_spacing=0.01)
        with pytest.raises(ValueError, match="level 0"):
            level_signals(r, default_bank(), RR_BAND, BREATHER_ROI)

    def test_static_scene_has_no_in_band_motion(self):
        scene = SceneSpec(duration_s=30.0, fps=20.0, n_bins=96, bin_spacing=0.01,
                          targets=(TargetSpec("static", 0.48, 1.0),))
        r, _ = simulate(scene, seed=0)
        for s in level_signals(r, default_bank(), RR_BAND, BREATHER_ROI):
            assert np.max(np.abs(s.series)) < 1e-6


class TestFftPeak:
    def test_quarter_hertz_is_15_bpm(self):
        assert fft_peak_bpm(sinusoid_signal(0.25), RR_BAND) == pytest.approx(15.0, abs=0.5)

    def test_1p2_hertz_is_72_bpm(self):
        assert fft_peak_bpm(sinusoid_signal(1.2), HR_BAND) == pytest.approx(72.0, abs=0.5)

    def test_larger_peak_wins(self):
        two = sinusoid_signal(0.25)
        weaker = sinusoid_signal(0.4, amplitude=0.5)
        mixed = LevelSignal(0, 10.0, two.series + weaker.series, two.fps)
        assert fft_peak_bpm(mixed, RR_BAND) == pytest.approx(15.0, abs=0.5)

    def test_scale_invariance(self):
        s = sinusoid_signal(0.3, noise=0.05)
        scaled = LevelSignal(0, 10.0, 17.3 * s.series, s.fps)
        assert fft_peak_bpm(scaled, RR_BAND) == fft_peak_bpm(s, RR_BAND)

    def test_empty_band_rejected(self):
        s = sinusoid_signal(0.25, fps=20.0, duration_s=30.0)
        with pytest.raises(ValueError):
            fft_peak_bpm(s, BandSpec(0.0001, 0.001))


class TestZcr:
    def test_pure_tone(self):
        s = sinusoid_signal(1.0, fps=20.0, duration_s=30.0)
        assert zcr_hz(s) == pytest.approx(1.0, abs=1.0 / 30.0)

    def test_constant_series(self):
        s = LevelSignal(0, 10.0, np.full(600, 2.5), 20.0)
        assert zcr_hz(s) == 0.0

    def test_noisy_tone_within_15_percent(self):
        s = sinusoid_signal(0.25, noise=0.01, seed=3)
        assert abs(zcr_hz(s) - 0.25) / 0.25 < 0.15

    def test_frequency_sweep_matches_within_resolution(self):
        for f in (0.2, 0.5, 1.3, 2.0):
            s = sinusoid_signal(f, fps=20.0, duration_s=30.0)
            assert abs(zcr_hz(s) - f) <= 1.0 / 30.0


@pytest.fixture(scope="module")
def record():
    r, _ = simulate(breather_scene(0.25, 0.5, duration_s=60.0), seed=1)
    return r


class TestFeaturize:
    def test_seven_windows_and_feature_length(self, record):
        bank = default_bank()
        for alpha in (0.0, 1.0):
            rows = featurize(record, bank, WindowSpec(30.0, 5.0), RR_BAND, BREATHER_ROI,
                             alpha=alpha)
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
