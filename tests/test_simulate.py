import dataclasses

import numpy as np
import pytest
from scipy.signal import hilbert

from radarmag import (FormatError, RangeROI, SceneSpec, TargetSpec,
                      estimate_displacement, load_scene_config, simulate)

from scenes import validation_scene


def single_target_scene(kind="sinusoid", **kwargs):
    defaults = dict(amplitude_bins=0.5, freq_hz=45.0)
    defaults.update(kwargs)
    target = TargetSpec(kind, 1.0, 1.0, **({} if kind != "sinusoid" else defaults))
    if kind == "linear":
        target = TargetSpec(kind, 1.0, 1.0, velocity_mps=kwargs.get("velocity_mps", -0.02))
    if kind == "static":
        target = TargetSpec(kind, 1.0, 1.0)
    return SceneSpec(duration_s=5.0, fps=200.0, n_bins=256, bin_spacing=0.01,
                     targets=(target,), noise_sigma=kwargs.get("noise_sigma", 0.0),
                     pulse_sigma_bins=3.0, pulse_carrier_bins=6.0)


class TestSimulate:
    def test_deterministic(self):
        scene = validation_scene(noise_sigma=0.05)
        a, _ = simulate(scene, seed=11)
        b, _ = simulate(scene, seed=11)
        assert np.array_equal(a.data, b.data)

    def test_seed_changes_noise(self):
        scene = validation_scene(noise_sigma=0.05)
        a, _ = simulate(scene, seed=11)
        b, _ = simulate(scene, seed=12)
        assert not np.array_equal(a.data, b.data)

    def test_superposition(self):
        base = validation_scene()
        first = SceneSpec(**{**base.__dict__, "targets": base.targets[:2]})
        second = SceneSpec(**{**base.__dict__, "targets": base.targets[2:]})
        combined, _ = simulate(base, seed=0)
        a, _ = simulate(first, seed=0)
        b, _ = simulate(second, seed=0)
        assert np.max(np.abs(combined.data - (a.data + b.data))) < 1e-12

    def test_zero_target_scene_is_zero(self):
        scene = SceneSpec(duration_s=1.0, fps=100.0, n_bins=64, bin_spacing=0.01)
        r, truth = simulate(scene, seed=0)
        assert np.max(np.abs(r.data)) == 0.0
        assert truth.shape == (0, r.n_frames)

    def test_static_target_time_invariant(self):
        r, _ = simulate(single_target_scene("static"), seed=0)
        assert np.array_equal(r.data, np.tile(r.data[:, :1], (1, r.n_frames)))

    def test_ground_truth_traces(self):
        scene = validation_scene()
        _, truth = simulate(scene, seed=0)
        t = np.arange(scene.n_frames) / scene.fps
        assert np.allclose(truth[0], 0.1 * np.sin(2 * np.pi * 45.0 * t))
        assert np.allclose(truth[1], 0.0)
        assert np.allclose(truth[3], -0.0390625 * t / scene.bin_spacing)

    def test_target_leaving_window_is_rejected(self):
        scene = SceneSpec(duration_s=5.0, fps=100.0, n_bins=64, bin_spacing=0.01,
                          targets=(TargetSpec("linear", 0.5, 1.0, velocity_mps=0.05),))
        with pytest.raises(ValueError, match="target 0"):
            simulate(scene, seed=0)

    def test_nyquist_guard(self):
        with pytest.raises(ValueError):
            SceneSpec(duration_s=1.0, fps=60.0, n_bins=64, bin_spacing=0.01,
                      targets=(TargetSpec("sinusoid", 0.3, 1.0, amplitude_bins=0.1,
                                          freq_hz=45.0),))


def hilbert_displacement(r, roi):
    """estimate_displacement's steps on scipy.signal.hilbert's envelope: the
    oracle of its in-place analytic signal, which must match it bit for bit."""
    segment = (np.abs(hilbert(r.data, axis=0)) ** 2)[roi.slice]
    segment = np.log(segment + 1e-300 * segment.max())
    peak = np.clip(np.argmax(segment, axis=0), 1, roi.n_bins - 2)
    cols = np.arange(r.n_frames)
    y0, y1, y2 = segment[peak - 1, cols], segment[peak, cols], segment[peak + 1, cols]
    denom = y0 - 2.0 * y1 + y2
    offset = np.where(denom != 0, 0.5 * (y0 - y2) / np.where(denom == 0, 1.0, denom), 0.0)
    trace = roi.first_bin + peak + offset
    return trace - trace.mean()


class TestEstimateDisplacement:
    @pytest.mark.parametrize("n_bins", [256, 255])
    def test_matches_scipy_hilbert_envelope(self, n_bins):
        # even and odd lengths weight the spectrum differently (an even one
        # keeps its Nyquist bin once)
        scene = dataclasses.replace(single_target_scene(), n_bins=n_bins, noise_sigma=0.05)
        r, _ = simulate(scene, seed=0)
        roi = RangeROI(80, 120)
        assert np.array_equal(estimate_displacement(r, roi), hilbert_displacement(r, roi))

    def test_sinusoid_amplitude_and_frequency(self):
        scene = single_target_scene(amplitude_bins=0.5)
        r, truth = simulate(scene, seed=0)
        trace = estimate_displacement(r, RangeROI(80, 120))
        measured = (trace.max() - trace.min()) / 2
        assert abs(measured - 0.5) / 0.5 < 0.05
        spectrum = np.abs(np.fft.rfft(trace))
        freqs = np.fft.rfftfreq(len(trace), 1 / scene.fps)
        df = freqs[1] - freqs[0]
        assert abs(freqs[np.argmax(spectrum)] - 45.0) <= df

    def test_amplitude_sweep(self):
        for amplitude in (0.05, 0.2, 1.0):
            scene = single_target_scene(amplitude_bins=amplitude)
            r, _ = simulate(scene, seed=0)
            trace = estimate_displacement(r, RangeROI(80, 120))
            measured = (trace.max() - trace.min()) / 2
            assert abs(measured - amplitude) / amplitude < 0.05

    def test_static_target_flat_trace(self):
        r, _ = simulate(single_target_scene("static"), seed=0)
        trace = estimate_displacement(r, RangeROI(80, 120))
        assert np.max(np.abs(trace)) < 0.01

    def test_linear_mover_slope(self):
        scene = single_target_scene("linear", velocity_mps=-0.02)
        r, _ = simulate(scene, seed=0)
        trace = estimate_displacement(r, RangeROI(60, 120))
        t = np.arange(len(trace)) / scene.fps
        slope = np.polyfit(t, trace, 1)[0]
        expected = -0.02 / scene.bin_spacing
        assert abs(slope - expected) / abs(expected) < 0.05

    def test_empty_roi_rejected(self):
        scene = single_target_scene("static")
        r, _ = simulate(scene, seed=0)
        flat = r.with_data(np.zeros_like(r.data))
        with pytest.raises(ValueError):
            estimate_displacement(flat, RangeROI(10, 30))


class TestSceneConfig:
    def test_shipped_scene_parses(self):
        scene = load_scene_config("configs/validation_scene.cfg")
        assert scene.fps == 200.0
        assert scene.n_bins == 512
        kinds = [t.kind for t in scene.targets]
        assert kinds == ["sinusoid", "static", "static", "linear"]
        assert scene.targets[0].freq_hz == 45.0

    def test_missing_key_reported(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("duration_s = 2\nfps = 100\nn_bins = 64\n")
        with pytest.raises(FormatError, match="bin_spacing"):
            load_scene_config(str(path))

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("duration_s = 2\nfps: 100\n")
        with pytest.raises(FormatError, match=":2:"):
            load_scene_config(str(path))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("duration_s=2\nfps=100\nn_bins=64\nbin_spacing=0.01\n"
                        "[target]\nkind=wobble\ncenter_range_m=0.3\n")
        with pytest.raises(FormatError, match="wobble"):
            load_scene_config(str(path))
