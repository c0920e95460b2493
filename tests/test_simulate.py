import dataclasses
import importlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import hilbert

from radarmag import (FormatError, RangeROI, SceneSpec, TargetSpec, estimate_displacement,
                      load_scene_config, pulse_template, save_truth_csv, simulate)

from scenes import validation_scene

# the package's ``simulate`` is the function; its module holds the constants
simulate_module = importlib.import_module("radarmag.simulate")


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

    @pytest.mark.parametrize("n_targets", [0, 1, 3])
    def test_truth_csv_header_fits_its_rows(self, tmp_path, n_targets):
        path = tmp_path / "truth.csv"
        save_truth_csv(np.zeros((n_targets, 4)), 10.0, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(["time_s"] + [f"delta_bins_t{i}" for i in range(n_targets)])
        assert len(lines) == 5 and {len(line.split(",")) for line in lines} == {n_targets + 1}

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


class TestNonFiniteInput:
    """Non-finite scene values fail up front with a ValueError naming the
    field or the target, and no numpy warning (pytest.ini makes one an error)."""

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["center_range_m", "reflectivity", "amplitude_bins",
                                       "freq_hz", "velocity_mps"])
    def test_target_field(self, field, value):
        kind = "sinusoid" if field in ("amplitude_bins", "freq_hz") else "linear"
        values = dict(center_range_m=0.3, freq_hz=1.0)
        values[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TargetSpec(kind, **values)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_noise_sigma(self, value):
        with pytest.raises(ValueError, match="^noise_sigma must be non-negative and finite"):
            SceneSpec(duration_s=1.0, fps=100.0, n_bins=64, bin_spacing=0.01, noise_sigma=value)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field, message", [
        ("bin_spacing", "bin_spacing must be positive and finite"),
        ("t0_offset", "t0_offset must be finite")])
    def test_scene_geometry(self, field, message, value):
        # rejected before any target's range check or any rendering
        values = dict(duration_s=1.0, fps=100.0, n_bins=64, bin_spacing=0.01,
                      targets=(TargetSpec("static", 0.05),))
        values[field] = value
        with pytest.raises(ValueError, match=f"^{message}, got {value}$"):
            SceneSpec(**values)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_position_in_simulate(self, value):
        # a position the specs' own checks can no longer produce, set behind
        # their back: simulate's range check still names the target
        target = TargetSpec("static", 0.3)
        scene = SceneSpec(duration_s=1.0, fps=100.0, n_bins=64, bin_spacing=0.01,
                          targets=(TargetSpec("static", 0.2), target))
        object.__setattr__(target, "center_range_m", value)
        with pytest.raises(ValueError, match=r"^target 1 \(static\) leaves the range window"):
            simulate(scene, seed=0)


def full_matrix_simulate(scene, seed=0):
    """The renderer without bands or chunks: every target's template over
    every bin and frame, in target order, then the noise in one draw."""
    t = np.arange(scene.n_frames) / scene.fps
    x = np.arange(scene.n_bins, dtype=np.float64)[:, None]
    data = np.zeros((scene.n_bins, scene.n_frames))
    for tg in scene.targets:
        center = (tg.center_range_m - scene.t0_offset) / scene.bin_spacing
        position = center + tg.displacement_bins(t, scene.bin_spacing)
        data += tg.reflectivity * pulse_template(x - position[None, :], scene.pulse_sigma_bins,
                                                 scene.pulse_carrier_bins)
    if scene.noise_sigma > 0:
        data += scene.noise_sigma * np.random.default_rng(seed).standard_normal(data.shape)
    return data


def same_bits(a, b):
    """np.array_equal that also tells -0.0 from +0.0."""
    return np.array_equal(a, b) and a.tobytes() == np.ascontiguousarray(b).tobytes()


SPACING = 0.0078125   # a power of two, so bin * SPACING / SPACING == bin exactly
FPS = 100.0


@st.composite
def target_specs(draw, n_bins, duration_s):
    """A target of any kind whose track starts, centres or rests on the first
    bin, the last bin, or anywhere between.  Besides static targets, a
    zero-amplitude sinusoid, a sinusoid at fps / 4 and a zero-velocity linear
    target repeat positions within a chunk."""
    last = n_bins - 1
    kind = draw(st.sampled_from(["sinusoid", "static", "linear"]))
    start = draw(st.sampled_from([0.0, float(last)]) | st.floats(0.0, last))
    reflectivity = draw(st.floats(-2.0, 2.0))
    if kind == "static":
        return TargetSpec(kind, start * SPACING, reflectivity)
    if kind == "sinusoid":
        amplitude = min(start, last - start) * draw(st.just(0.0) | st.floats(0.0, 1.0))
        return TargetSpec(kind, start * SPACING, reflectivity, amplitude_bins=amplitude,
                          freq_hz=draw(st.just(FPS / 4) | st.floats(0.1, FPS / 2 - 1.0)))
    end = draw(st.sampled_from([0.0, start, float(last)]) | st.floats(0.0, last))
    velocity = (end - start) * SPACING / duration_s * (1.0 - 1e-9)
    return TargetSpec(kind, start * SPACING, reflectivity, velocity_mps=velocity)


@st.composite
def scenes(draw):
    n_bins = draw(st.integers(1, 600))
    n_frames = draw(st.integers(2, 300))
    duration_s = n_frames / FPS
    return SceneSpec(
        duration_s=duration_s, fps=FPS, n_bins=n_bins, bin_spacing=SPACING,
        targets=tuple(draw(st.lists(target_specs(n_bins, duration_s), max_size=4))),
        noise_sigma=draw(st.sampled_from([0.0, 0.1])),
        # from far below a bin to the whole record (pulse_sigma_bins <= n_bins)
        pulse_sigma_bins=n_bins * 10.0 ** draw(st.floats(-5.0, 0.0)),
        pulse_carrier_bins=draw(st.floats(0.5, 50.0)))


# a zero-amplitude sinusoid, a sinusoid at fps / 4 (positions center and
# center +- amplitude, each many times) and a zero-velocity linear target
REPEATING_SCENE = SceneSpec(
    duration_s=0.5, fps=FPS, n_bins=64, bin_spacing=SPACING,
    targets=(TargetSpec("sinusoid", 20 * SPACING, 1.0, amplitude_bins=0.0, freq_hz=10.0),
             TargetSpec("sinusoid", 30.3 * SPACING, -0.7, amplitude_bins=0.4, freq_hz=FPS / 4),
             TargetSpec("linear", 40.6 * SPACING, 1.5, velocity_mps=0.0)),
    pulse_sigma_bins=3.0, pulse_carrier_bins=6.0)


class TestBandedRenderer:
    """simulate renders each target per frame chunk on the bins within reach;
    the result must be the full-matrix renderer's, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(scenes(), st.integers(0, 2**32 - 1),
           st.just(simulate_module._CHUNK_ELEMENTS) | st.integers(1, 3000))
    @example(validation_scene(duration_s=2.6, noise_sigma=0.05), 5,
             simulate_module._CHUNK_ELEMENTS).via("2.6 s: one 512-frame chunk and 8 frames")
    @example(REPEATING_SCENE, 0, 64 * 7).via("positions that repeat within 7-frame chunks")
    def test_matches_full_matrix_renderer(self, scene, seed, chunk_elements):
        # chunk_elements also sizes the noise blocks; small values give many
        # ragged chunks and blocks on small scenes
        with mock.patch.object(simulate_module, "_CHUNK_ELEMENTS", chunk_elements):
            r, truth = simulate(scene, seed=seed)
        assert same_bits(r.data, full_matrix_simulate(scene, seed))
        t = np.arange(scene.n_frames) / scene.fps
        want = [tg.displacement_bins(t, scene.bin_spacing) for tg in scene.targets]
        assert same_bits(truth, np.reshape(want, truth.shape))

    def test_rows_just_outside_the_reach_are_exactly_zero(self):
        sigma = 3.0
        reach = simulate_module._reach(sigma)
        position = 200.3
        lo, hi = math.ceil(position - reach), math.floor(position + reach) + 1
        scene = SceneSpec(duration_s=0.02, fps=FPS, n_bins=512, bin_spacing=SPACING,
                          targets=(TargetSpec("static", position * SPACING),),
                          pulse_sigma_bins=sigma, pulse_carrier_bins=6.0)
        oracle = full_matrix_simulate(scene)
        assert (lo, hi) == (85, 317)
        assert not oracle[:lo].any() and not oracle[hi:].any()
        r, _ = simulate(scene)
        assert same_bits(r.data, oracle)
        # the envelope is 0.0 at the reach and not 0.0 at 1.7 units of the
        # exponent inside it: the band is no wider than its margin of one unit
        z = simulate_module._UNDERFLOW_EXPONENT
        assert np.exp(-z) == 0.0 and np.exp(-(z - 1.7)) > 0.0

    def test_template_columns_per_chunk(self):
        # each target's template is evaluated once per distinct position in a
        # chunk: one column for a static target, one per frame for a linear
        # mover, whose positions never repeat
        shapes = []

        def recording_template(offset_bins, sigma_bins, carrier_bins):
            shapes.append(offset_bins.shape)
            return pulse_template(offset_bins, sigma_bins, carrier_bins)

        scene = SceneSpec(duration_s=1.0, fps=FPS, n_bins=64, bin_spacing=SPACING,
                          targets=(TargetSpec("static", 20 * SPACING),
                                   TargetSpec("linear", 40 * SPACING, velocity_mps=-0.01)),
                          pulse_sigma_bins=3.0, pulse_carrier_bins=6.0)
        with mock.patch.object(simulate_module, "_CHUNK_ELEMENTS", 64 * 30), \
                mock.patch.object(simulate_module, "pulse_template", recording_template):
            r, _ = simulate(scene)
        assert [cols for _, cols in shapes] == [1, 30, 1, 30, 1, 30, 1, 10]
        assert same_bits(r.data, full_matrix_simulate(scene))

    def test_memory_does_not_grow_with_record_length(self):
        # beyond the record and the truth, simulate holds a few chunks of
        # _CHUNK_ELEMENTS samples, however long the record
        peaks = []
        for duration_s in (10.0, 40.0):
            scene = validation_scene(duration_s=duration_s, noise_sigma=0.05)
            tracemalloc.start()
            try:
                r, truth = simulate(scene, seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak - r.data.nbytes - truth.nbytes)
            del r, truth
        assert max(peaks) < 8 * 2**20, [f"{p / 2**20:.1f} MiB" for p in peaks]
        assert peaks[1] <= 1.25 * peaks[0], [f"{p / 2**20:.1f} MiB" for p in peaks]


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
