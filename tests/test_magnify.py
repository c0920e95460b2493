import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter1d

from radarmag import (BandSpec, MagnifyConfig, Radargram, WindowSpec,
                      dct_bandpass, decompose, default_bank, featurize, global_magnify, magnify,
                      magnify_windowed, reconstruct, simulate, unwrap_phase, windows)
from radarmag.magnify import (AMPLITUDE_MASK_RATIO, GATE_SMOOTH_S, PHASE_GATE_RATIO,
                              _check_finite, _gate_phase, _phasors, _rotate_windows)

from scenes import (NARROW_SCENE, SCENE_BAND, STATIC_SLICE, TARGET_ROI, TRACK_SLICE,
                    breather_scene, displacement_p2p, magnify_bank, validation_scene)


class TestBandSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BandSpec(2.0, 1.0)
        with pytest.raises(ValueError):
            BandSpec(-1.0, 1.0)
        BandSpec(0.0, 1.0).validate(10.0)
        with pytest.raises(ValueError):
            BandSpec(1.0, 6.0).validate(10.0)

    def test_alpha_floor(self):
        with pytest.raises(ValueError):
            MagnifyConfig(alpha=-1.5, band=BandSpec(1.0, 2.0))
        MagnifyConfig(alpha=-1.0, band=BandSpec(1.0, 2.0))

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            MagnifyConfig(alpha=alpha, band=BandSpec(1.0, 2.0))


def mirrored_rfft_bandpass(x, fps, band, axis):
    """Reference: ideal DFT bandpass of the even extension [x, flip(x)], first half kept."""
    n = x.shape[axis]
    ext = np.concatenate([x, np.flip(x, axis=axis)], axis=axis)
    freqs = np.fft.rfftfreq(2 * n, 1.0 / fps)
    keep = (freqs >= band.f_lo) & (freqs <= band.f_hi)
    shape = [1] * x.ndim
    shape[axis] = -1
    out = np.fft.irfft(np.fft.rfft(ext, axis=axis) * keep.reshape(shape), 2 * n, axis=axis)
    return np.take(out, np.arange(n), axis=axis)


class TestDctBandpass:
    @pytest.mark.parametrize("n", [64, 65, 200, 201])
    def test_matches_mirrored_dft_filter(self, n):
        rng = np.random.default_rng(n)
        fps = 128.0
        freqs = np.fft.rfftfreq(2 * n, 1.0 / fps)
        # both edges land exactly on filter bins
        band = BandSpec(freqs[5], freqs[n // 3])
        x = np.cumsum(rng.standard_normal((3, n)), axis=1)   # ramps: mirror matters
        out = dct_bandpass(x, fps, band, axis=1)
        ref = mirrored_rfft_bandpass(x, fps, band, axis=1)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(x))
        out0 = dct_bandpass(x.T, fps, band, axis=0)
        assert np.max(np.abs(out0 - ref.T)) <= 1e-12 * np.max(np.abs(x))

    def test_edge_bins_are_kept(self):
        n, fps = 64, 128.0
        k_lo, k_hi = 5, 20
        band = BandSpec(k_lo * fps / (2 * n), k_hi * fps / (2 * n))
        t = np.arange(n)
        for k in (k_lo, k_hi):
            tone = np.cos(np.pi * k * (t + 0.5) / n)   # DCT-II basis vector k
            assert np.max(np.abs(dct_bandpass(tone, fps, band) - tone)) <= 1e-12
        for k in (0, k_lo - 1, k_hi + 1):   # k = 0 is DC
            tone = np.cos(np.pi * k * (t + 0.5) / n)
            assert np.max(np.abs(dct_bandpass(tone, fps, band))) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            dct_bandpass(np.zeros(100), 10.0, BandSpec(2.0, 8.0))
        with pytest.raises(ValueError):
            dct_bandpass(np.array([0.0, np.nan, 1.0]), 10.0, BandSpec(1.0, 2.0))
        with pytest.raises(ValueError, match="no DFT bins"):   # bins lie 0.625 Hz apart
            dct_bandpass(np.zeros(8), 10.0, BandSpec(1.0, 1.1))


class TestUnwrapPhase:
    def test_single_wrap(self):
        out = unwrap_phase(np.array([0.0, np.pi - 0.1, -np.pi + 0.1]))
        assert np.allclose(out, [0.0, np.pi - 0.1, np.pi + 0.1], atol=1e-12)

    def test_smooth_ramp_unchanged(self):
        ramp = np.arange(0.0, 2.0, 0.1)
        assert np.allclose(unwrap_phase(ramp), ramp, atol=1e-12)
        # fewer than two samples: the same values, in a new float64 array
        for shape in [(0,), (1,), (3, 0), (3, 1), (2, 2, 1)]:
            p = np.random.default_rng(0).uniform(-np.pi, np.pi, shape)
            out = unwrap_phase(p)
            assert out.dtype == np.float64 and np.array_equal(out, p)
            assert not np.shares_memory(out, p)

    def test_wrapped_ramp_recovered(self):
        ramp = 0.3 * np.arange(1000)
        wrapped = np.angle(np.exp(1j * ramp))
        assert np.max(np.abs(unwrap_phase(wrapped) - ramp)) < 1e-12

    def test_boundary_maps_into_half_open_interval(self):
        # a -pi difference maps to +pi: (-pi, pi] excludes -pi
        out = unwrap_phase(np.array([0.0, -np.pi]))
        assert out[1] == pytest.approx(np.pi)


@pytest.fixture(scope="module")
def scene_data():
    r, _ = simulate(validation_scene(), seed=0)
    return r


class TestMagnify:
    def test_alpha_zero_is_bitwise_reconstruction(self, scene_data):
        bank = magnify_bank()
        # also a 30-bin record, narrower than the bank's widest kernel (215 bins)
        narrow, _ = simulate(NARROW_SCENE, seed=0)
        for r, band in [(scene_data, SCENE_BAND), (narrow, BandSpec(0.1, 0.7))]:
            out = magnify(r, bank, MagnifyConfig(alpha=0.0, band=band))
            reference = reconstruct(decompose(r.data, bank))
            assert np.array_equal(out.data, reference)

    def test_metadata_preserved(self, scene_data):
        out = magnify(scene_data, magnify_bank(), MagnifyConfig(alpha=2.0, band=SCENE_BAND))
        assert out.data.shape == scene_data.data.shape
        assert out.fps == scene_data.fps
        assert out.bin_spacing == scene_data.bin_spacing
        assert out.t0_offset == scene_data.t0_offset

    def test_magnification_scales_displacement(self, scene_data):
        alpha = 10.0
        bank = magnify_bank()
        mag = magnify(scene_data, bank, MagnifyConfig(alpha=alpha, band=SCENE_BAND))
        reference, _ = simulate(validation_scene(amplitude_bins=(1 + alpha) * 0.1), seed=0)
        p2p_mag = displacement_p2p(mag)
        p2p_ref = displacement_p2p(reference)
        assert abs(p2p_mag - p2p_ref) / p2p_ref < 0.10

    def test_selectivity(self, scene_data):
        mag = magnify(scene_data, magnify_bank(), MagnifyConfig(alpha=10.0, band=SCENE_BAND))
        static_change = (np.linalg.norm(mag.data[STATIC_SLICE] - scene_data.data[STATIC_SLICE])
                         / np.linalg.norm(scene_data.data[STATIC_SLICE]))
        assert static_change < 0.01
        track_energy = np.linalg.norm(mag.data[TRACK_SLICE]) ** 2
        track_ref = np.linalg.norm(scene_data.data[TRACK_SLICE]) ** 2
        assert abs(track_energy / track_ref - 1.0) < 0.05

    def test_composition_of_amplifications(self):
        # alpha1 then alpha2 composes to (1+alpha1)(1+alpha2) in the
        # small-motion regime
        alpha1, alpha2, amplitude = 2.0, 1.5, 0.1
        bank = magnify_bank()
        r, _ = simulate(validation_scene(amplitude_bins=amplitude), seed=0)
        once = magnify(r, bank, MagnifyConfig(alpha=alpha1, band=SCENE_BAND))
        twice = magnify(once, bank, MagnifyConfig(alpha=alpha2, band=SCENE_BAND))
        expected_amplitude = (1 + alpha1) * (1 + alpha2) * amplitude
        reference, _ = simulate(validation_scene(amplitude_bins=expected_amplitude), seed=0)
        p2p = displacement_p2p(twice)
        p2p_ref = displacement_p2p(reference)
        assert abs(p2p - p2p_ref) / p2p_ref < 0.10

    def test_streams_one_level_at_a_time(self):
        # peak traced memory stays below 2.6 complex arrays of one level at
        # transform length, whatever the number of levels: about 2.1 with no
        # input half spectrum held, where holding it read 3.3
        r, _ = simulate(validation_scene(duration_s=5.0), seed=0)
        bank = magnify_bank()
        assert len(bank) == 9 and r.data.shape == (512, 1000)
        m = bank.transform_length(r.n_bins)
        magnify(r, bank, MagnifyConfig(alpha=10.0, band=SCENE_BAND))   # warm caches
        tracemalloc.start()
        try:
            magnify(r, bank, MagnifyConfig(alpha=10.0, band=SCENE_BAND))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.6 * m * r.n_frames * 16, f"peak {peak / 2**20:.1f} MiB"

    def test_too_few_frames(self):
        r = Radargram(np.zeros((300, 3)), fps=100.0, bin_spacing=0.01)
        with pytest.raises(ValueError):
            magnify(r, magnify_bank(), MagnifyConfig(alpha=1.0, band=BandSpec(1.0, 2.0)))

    def test_windowed_matches_one_shot_on_stationary_content(self):
        scene = validation_scene(duration_s=20.0)
        r, _ = simulate(scene, seed=0)
        bank = magnify_bank()
        cfg = MagnifyConfig(alpha=5.0, band=SCENE_BAND)
        one_shot = magnify(r, bank, cfg)
        seg = slice(100, 157)
        interior = slice(int(2 * r.fps), int(18 * r.fps))
        # 8:4 tiles the 20 s record exactly; 7:3 and 3:2 leave a tail that only
        # the extra window ending at the last frame covers
        for wspec in (WindowSpec(8.0, 4.0), WindowSpec(7.0, 3.0), WindowSpec(3.0, 2.0)):
            stitched = magnify_windowed(r, bank, cfg, wspec=wspec)
            assert stitched.data.shape == one_shot.data.shape
            assert np.isfinite(stitched.data).all()
            # the oscillating target's magnified band agrees between the two paths
            num = np.linalg.norm(stitched.data[seg, interior] - one_shot.data[seg, interior])
            assert num / np.linalg.norm(one_shot.data[seg, interior]) < 0.05, wspec


def per_window_magnify(r, bank, cfg, wspec):
    """Windowed magnification one whole magnify call per window: the oracle
    of the grouped magnify_windowed, which must match it bit for bit."""
    length, shift = wspec.frames(r.fps)
    if r.n_frames < length:
        return magnify(r, bank, cfg)
    cut = windows(r, wspec)
    if cut[-1][0] + length < r.n_frames:
        cut.append((r.n_frames - length, r.with_data(r.data[:, -length:])))
    margin = (length - shift) // 2
    bounds = [0] + [start + margin for start, _ in cut[1:]] + [r.n_frames]
    out = np.empty_like(r.data)
    for (start, window), lo, hi in zip(cut, bounds, bounds[1:]):
        out[:, lo:hi] = magnify(window, bank, cfg).data[:, lo - start : hi - start]
    return r.with_data(out)


def count_map_levels(monkeypatch) -> list:
    """Patch magnify's map_levels to record the frames of each pass it makes."""
    module = sys.modules["radarmag.magnify"]
    passes = []
    map_levels = module.map_levels

    def counted_map_levels(signal, bank, op):
        passes.append(signal.shape[1])
        return map_levels(signal, bank, op)

    monkeypatch.setattr(module, "map_levels", counted_map_levels)
    return passes


@pytest.fixture(scope="module")
def short_scene():
    r, _ = simulate(validation_scene(duration_s=3.0), seed=0)
    return r


class TestMagnifyWindowed:
    @staticmethod
    def assert_matches_oracle(r, wspec, alpha):
        bank = magnify_bank()
        cfg = MagnifyConfig(alpha=alpha, band=SCENE_BAND)
        actual = magnify_windowed(r, bank, cfg, wspec)
        assert np.array_equal(actual.data, per_window_magnify(r, bank, cfg, wspec).data)
        assert (actual.fps, actual.bin_spacing, actual.t0_offset) == (
            r.fps, r.bin_spacing, r.t0_offset)

    # on the 3 s record, 1:0.5 and 2:1 tile it and 0.7:0.3 leaves a tail
    # that only the extra window ending at the last frame covers
    @pytest.mark.parametrize("alpha", [0.0, 10.0, 50.0])
    @pytest.mark.parametrize("wspec", [WindowSpec(1.0, 0.5), WindowSpec(2.0, 1.0),
                                       WindowSpec(0.7, 0.3)], ids=["1:0.5", "2:1", "0.7:0.3"])
    def test_matches_per_window_oracle(self, short_scene, wspec, alpha):
        self.assert_matches_oracle(short_scene, wspec, alpha)

    @pytest.mark.parametrize("length_s", [3.0, 2.9, 3.5, 6.0],
                             ids=["one-window", "one-window-and-tail", "record-shorter",
                                  "record-half-a-window"])
    def test_records_of_about_one_window(self, short_scene, length_s):
        # a record of exactly one window is one group of one window, a
        # slightly longer one adds the tail window, and a shorter one is one
        # window clipped to the record: the whole-record window of magnify
        self.assert_matches_oracle(short_scene, WindowSpec(length_s, 1.0), 10.0)
        if length_s >= short_scene.duration_s:
            cfg = MagnifyConfig(alpha=10.0, band=SCENE_BAND)
            assert np.array_equal(
                magnify(short_scene, magnify_bank(), cfg).data,
                magnify_windowed(short_scene, magnify_bank(), cfg, WindowSpec(length_s, 1.0)).data)

    @pytest.mark.parametrize("wspec", [None, WindowSpec(3.0, 1.0)], ids=["whole", "one-window"])
    def test_one_group_returns_its_pass_uncopied(self, short_scene, monkeypatch, wspec):
        # a run of one group hands back map_levels' output: no stitched
        # buffer, no record-sized copy
        module = sys.modules["radarmag.magnify"]
        outputs = []
        map_levels = module.map_levels

        def recorded_map_levels(signal, bank, op):
            outputs.append(map_levels(signal, bank, op))
            return outputs[-1]

        monkeypatch.setattr(module, "map_levels", recorded_map_levels)
        cfg = MagnifyConfig(alpha=10.0, band=SCENE_BAND)
        out = (magnify(short_scene, magnify_bank(), cfg) if wspec is None
               else magnify_windowed(short_scene, magnify_bank(), cfg, wspec))
        assert len(outputs) == 1 and np.shares_memory(out.data, outputs[0])

    def test_small_blocks_and_groups(self, short_scene, monkeypatch):
        # every group level is cut into several row blocks over its windows,
        # run on the pool, and a group cap of two 0.7:0.3 windows cuts the
        # 3 s record's nine windows into five groups, one map_levels pass each
        module = sys.modules["radarmag.magnify"]
        monkeypatch.setattr(module, "BLOCK_ELEMENTS", 40 * 140)
        monkeypatch.setattr(module, "GROUP_ELEMENTS", 512 * 200)
        passes = count_map_levels(monkeypatch)
        self.assert_matches_oracle(short_scene, WindowSpec(0.7, 0.3), 10.0)
        assert passes[:5] == [200, 200, 200, 200, 140]

    def test_lone_window_groups_pool_their_row_blocks(self, short_scene, monkeypatch):
        # 2 s windows at 1 s on 512 bins exceed the default group cap, so
        # each group holds one window, whose row blocks run on the pool
        module = sys.modules["radarmag.magnify"]
        monkeypatch.setattr(module, "BLOCK_ELEMENTS", 40 * 400)
        passes = count_map_levels(monkeypatch)
        self.assert_matches_oracle(short_scene, WindowSpec(2.0, 1.0), 10.0)
        assert passes[:2] == [400, 400]

    def test_no_pool_task_maps_onto_the_pool(self, short_scene, monkeypatch):
        # only the calling thread maps blocks onto the pool: a pool task that
        # waited on the pool could deadlock it; and no FFT on a pool thread
        # passes scipy workers, so no threads nest inside the pool's, nor
        # does global_magnify on the calling thread start threads beside it
        class GuardedPool(ThreadPoolExecutor):
            maps = 0

            def map(self, fn, *iterables, **kwargs):
                if threading.current_thread().name.startswith("radarmag"):
                    raise RuntimeError("a pool task mapped onto the pool")
                self.maps += 1
                return super().map(fn, *iterables, **kwargs)

        pooled_ffts, with_workers = set(), set()

        def guard(name):
            transform = getattr(scipy.fft, name)

            def guarded(*args, **kwargs):
                pooled = threading.current_thread().name.startswith("radarmag")
                if "workers" in kwargs:
                    if pooled:
                        raise RuntimeError(f"scipy.fft.{name} on a pool thread passed workers")
                    with_workers.add(name)
                if pooled:
                    pooled_ffts.add(name)
                return transform(*args, **kwargs)
            return guarded

        for name in ("fft", "ifft", "rfft", "irfft", "dct", "idct"):
            monkeypatch.setattr(scipy.fft, name, guard(name))
        gabor, module = sys.modules["radarmag.gabor"], sys.modules["radarmag.magnify"]
        pool = GuardedPool(2, thread_name_prefix="radarmag")
        monkeypatch.setattr(gabor, "_pool", lambda: pool)
        monkeypatch.setattr(gabor, "COLUMN_ELEMENTS", 2**14)
        monkeypatch.setattr(module, "BLOCK_ELEMENTS", 40 * 140)
        monkeypatch.setattr(module, "GROUP_ELEMENTS", 512 * 200)
        cfg = MagnifyConfig(alpha=10.0, band=SCENE_BAND)
        try:
            magnify(short_scene, magnify_bank(), cfg)
            assert pool.maps > 0
            maps = pool.maps
            magnify_windowed(short_scene, magnify_bank(), cfg, WindowSpec(0.7, 0.3))
            assert pool.maps > maps
            assert pooled_ffts == {"fft", "ifft", "rfft", "irfft", "dct", "idct"}
            # decompose runs the same analysis on the pool, with no workers
            # on any thread
            maps = pool.maps
            pooled_ffts.clear()
            with_workers.clear()
            gabor.decompose(short_scene.data, magnify_bank())
            assert pool.maps > maps
            global_magnify(short_scene.data.T, short_scene.fps, cfg)
        finally:
            pool.shutdown()
        assert pooled_ffts == {"rfft", "ifft"} and not with_workers

    @pytest.mark.parametrize("columns", [1, 7], ids=["one-column", "seven-columns"])
    def test_column_blocks_do_not_change_results(self, short_scene, monkeypatch, columns):
        # gabor's column blocks of one frame, or of 7 frames, which divide
        # neither the record's 600 frames nor a 1:0.5 group's 500 or 200
        bank = magnify_bank()
        cfg = MagnifyConfig(alpha=10.0, band=SCENE_BAND)

        def run():
            return (magnify(short_scene, bank, cfg).data,
                    magnify_windowed(short_scene, bank, cfg, WindowSpec(1.0, 0.5)).data)

        expected = run()
        monkeypatch.setattr(sys.modules["radarmag.gabor"], "COLUMN_ELEMENTS",
                            columns * bank.transform_length(short_scene.n_bins))
        assert all(np.array_equal(a, e) for a, e in zip(run(), expected))

    def test_too_few_frames_per_window(self, short_scene):
        with pytest.raises(ValueError, match="at least 4 frames, got 3"):
            magnify_windowed(short_scene, magnify_bank(), MagnifyConfig(1.0, SCENE_BAND),
                             WindowSpec(3 / short_scene.fps, 1 / short_scene.fps))

    def test_non_finite_coefficient_names_its_level(self):
        # the breather scaled until its Gabor coefficients overflow float64
        r, _ = simulate(breather_scene(0.25, 0.5), seed=1)
        r = r.with_data(r.data * 1e306)
        with pytest.raises(ValueError, match="non-finite coefficient at level 3 "):
            magnify_windowed(r, default_bank(), MagnifyConfig(2.0, BandSpec(0.1, 0.7)),
                             WindowSpec(10.0, 5.0))

    @staticmethod
    def inject(monkeypatch, at_pass, k, b, column, value):
        """Patch magnify's map_levels so that level k of its pass at_pass
        (counted from 0) holds value at bin b and the pass's column column
        when the phase op receives it."""
        module = sys.modules["radarmag.magnify"]
        map_levels = module.map_levels
        passes = []

        def injected_map_levels(signal, bank, op):
            passes.append(signal.shape[1])

            def injected_op(level_index, level):
                if len(passes) - 1 == at_pass and level_index == k:
                    level[b, column] = value
                op(level_index, level)
            return map_levels(signal, bank, injected_op)

        monkeypatch.setattr(module, "map_levels", injected_map_levels)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_non_finite_analysed_coefficient_names_its_bin_and_frame(
            self, short_scene, monkeypatch, value):
        # a non-finite coefficient reaches the op in an analysed level: the
        # op names it, not unwrap_phase without a level, bin or frame
        bank = magnify_bank()
        self.inject(monkeypatch, 0, 2, 100, 250, value)
        with pytest.raises(ValueError, match=(
                rf"^non-finite coefficient at level 2 \(wavelength {bank.levels[2].wavelength}\), "
                r"bin 100, frame 250$")):
            magnify(short_scene, bank, MagnifyConfig(10.0, SCENE_BAND))

    def test_non_finite_coefficient_in_a_later_group_names_its_record_frame(
            self, short_scene, monkeypatch):
        # two 0.7:0.3 windows per group: the third pass starts at frame 240,
        # so its column 37 is record frame 277
        module = sys.modules["radarmag.magnify"]
        monkeypatch.setattr(module, "GROUP_ELEMENTS", 512 * 200)
        bank = magnify_bank()
        self.inject(monkeypatch, 2, 4, 300, 37, np.nan)
        with pytest.raises(ValueError, match=(
                rf"^non-finite coefficient at level 4 \(wavelength {bank.levels[4].wavelength}\), "
                r"bin 300, frame 277$")):
            magnify_windowed(short_scene, bank, MagnifyConfig(10.0, SCENE_BAND),
                             WindowSpec(0.7, 0.3))

    def test_success_never_scans_for_non_finite_coefficients(self, short_scene, monkeypatch):
        # the serial whole-level scan runs only when a peak or a rotated
        # block is not finite: never on a successful call
        module = sys.modules["radarmag.magnify"]
        scans = []
        check_finite = module._check_finite

        def counted_check_finite(*args):
            scans.append(args[1])
            check_finite(*args)

        monkeypatch.setattr(module, "_check_finite", counted_check_finite)
        cfg = MagnifyConfig(alpha=10.0, band=SCENE_BAND)
        magnify(short_scene, magnify_bank(), cfg)
        magnify_windowed(short_scene, magnify_bank(), cfg, WindowSpec(1.0, 0.5))
        magnify_windowed(short_scene, magnify_bank(), cfg, WindowSpec(0.7, 0.3))
        assert scans == []
        # the wrapper does see the scans of a failing call
        self.inject(monkeypatch, 0, 1, 7, 9, np.nan)
        with pytest.raises(ValueError, match="bin 7, frame 9$"):
            magnify(short_scene, magnify_bank(), cfg)
        assert scans == [1]

    def test_memory_does_not_grow_with_record_length(self):
        # the traced peak above the output is one group's, however many
        # groups the record holds
        base, _ = simulate(validation_scene(), seed=0)
        bank = magnify_bank()
        cfg = MagnifyConfig(alpha=10.0, band=SCENE_BAND)
        wspec = WindowSpec(1.0, 0.5)
        magnify_windowed(base.with_data(base.data[:, :400]), bank, cfg, wspec)   # warm caches
        peaks = []
        for repeats in (1, 4):
            r = base.with_data(np.tile(base.data, repeats))
            tracemalloc.start()
            try:
                out = magnify_windowed(r, bank, cfg, wspec)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak - out.data.nbytes)
            del out
        assert r.data.shape == (512, 8000)
        assert peaks[1] <= 1.25 * peaks[0], [f"{p / 2**20:.1f} MiB" for p in peaks]


def dense_gate(phase, above, sigma):
    """The phase gate by its definition: the phase times the smoothed
    amplitude mask, filtered over every frame of every row."""
    return phase * gaussian_filter1d(above.astype(np.float64), sigma, axis=1, mode="nearest")


@st.composite
def gate_cases(draw):
    """(phase, above, sigma) at 20 or 200 fps (sigma 1 or 10 frames, filter
    radius 4 or 40): rows of up to three filter widths, so some are shorter
    than one, each all on, all off, or runs of one frame up to just over a
    filter width, which put edges at the first and the last frame and runs
    shorter than the radius."""
    sigma = GATE_SMOOTH_S * draw(st.sampled_from([20.0, 200.0]))
    width = 2 * int(4 * sigma + 0.5) + 1
    n = draw(st.integers(1, 3 * width))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["on", "off", "runs"]))
        if kind == "runs":
            runs = draw(st.lists(st.integers(1, width + 1), min_size=1, max_size=2 * n))
            on = draw(st.booleans())
            row = np.concatenate([np.full(k, (i % 2 == 0) == on) for i, k in enumerate(runs)])
            row = np.resize(row, n)   # repeats the runs up to n frames, or cuts them
        else:
            row = np.full(n, kind == "on")
        rows.append(row)
    above = np.array(rows)
    phase = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-10, 10, above.shape)
    return phase, above, sigma


class TestGatePhase:
    @settings(max_examples=300, deadline=None)
    @given(gate_cases())
    @example((np.linspace(-1, 1, 6).reshape(2, 3), np.array([[1, 0, 1], [0, 1, 0]], bool), 1.0))
    def test_matches_dense_filter(self, case):
        phase, above, sigma = case
        gated = phase.copy()
        _gate_phase(gated, above, sigma)
        assert np.array_equal(gated, dense_gate(phase, above, sigma))

    def test_scene_levels_match_dense_filter(self, scene_data):
        # the masks of the scene's levels: mixed rows with edges far apart,
        # all-on rows and all-off rows
        for level in decompose(scene_data.data, magnify_bank()).levels:
            phase = unwrap_phase(np.angle(level))
            amplitude = np.abs(level)
            above = amplitude >= PHASE_GATE_RATIO * amplitude.max()
            gated = phase.copy()
            _gate_phase(gated, above, GATE_SMOOTH_S * scene_data.fps)
            assert np.array_equal(gated, dense_gate(phase, above, GATE_SMOOTH_S * scene_data.fps))


class TestPhasors:
    def test_within_float32_rounding_of_float64_trig(self):
        # +-0, every multiple of pi/2 and of 2*pi up to 1e4, and angles
        # spread over +-1e4, in a 2-D array as the op passes them
        rng = np.random.default_rng(11)
        quarter_turns = np.arange(-6366, 6367) * (np.pi / 2)
        turns = np.arange(-1591, 1592) * (2 * np.pi)
        spread = rng.uniform(-1e4, 1e4, 200_000)
        angles = np.concatenate([[0.0, -0.0, 1e4, -1e4], quarter_turns, turns, spread])
        angles = np.resize(angles, (4, -(-angles.size // 4)))
        out = np.empty(angles.shape, dtype=np.complex128)
        _phasors(angles.copy(), out)
        assert np.max(np.abs(out.real - np.cos(angles))) <= 4e-7
        assert np.max(np.abs(out.imag - np.sin(angles))) <= 4e-7

    def test_zero_angle_gives_exactly_one(self):
        # what keeps alpha = 0 bit-exact
        out = np.empty((2, 3), dtype=np.complex128)
        _phasors(np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]]), out)
        assert (out == 1.0).all()

def whole_level_rotation(level, fps, cfg):
    """The phase op over a whole level at once: the oracle of the row-blocked
    _rotate_windows, which must match it bit for bit."""
    phase = unwrap_phase(np.angle(level))
    amplitude = np.abs(level)
    peak = amplitude.max()
    if peak > 0:
        phase = dense_gate(phase, amplitude >= PHASE_GATE_RATIO * peak, GATE_SMOOTH_S * fps)
    filtered = dct_bandpass(phase, fps, cfg.band, axis=1)
    del phase
    filtered[amplitude < AMPLITUDE_MASK_RATIO * peak] = 0.0
    del amplitude
    filtered *= cfg.alpha
    rotation = np.empty_like(level)
    _phasors(filtered, rotation)
    del filtered
    level *= rotation


def handmade_levels():
    """A level of zeros (peak 0); one row above the phase gate, one exactly at
    it and the rest below; a 1-row level; and a level with one row above the
    gate in the first half of its frames only, one in the second half only."""
    rng = np.random.default_rng(5)
    n = 400
    turns = np.cumsum(rng.integers(0, 3, n)) % 4
    quarter_turns = np.array([1, 1j, -1, -1j])[turns]   # |z| is exactly 1
    gated = 1e-4 * np.exp(1j * rng.uniform(-np.pi, np.pi, (6, n)))
    gated[0] = 1000.0 * quarter_turns
    gated[3] = PHASE_GATE_RATIO * 1000.0 * quarter_turns[::-1]
    single = rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))
    moving = 1e-4 * np.exp(1j * rng.uniform(-np.pi, np.pi, (4, n)))
    moving[0] = 1000.0 * quarter_turns
    moving[1, : n // 2] *= 1e6
    moving[2, n // 2 :] *= 1e6
    return {"zeros": np.zeros((5, n), complex), "gated": gated, "one-row": single,
            "moving": moving}


def unexpected_check(level):
    raise AssertionError("a finite level was scanned for non-finite coefficients")


def rotate_level(level, fps, cfg, check=unexpected_check):
    """_rotate_windows with the whole level as its one window, as magnify runs it."""
    n = level.shape[1]
    _rotate_windows(level, [0], n, [0, n], fps, cfg, check)


def overlapping_windows(n):
    """Windows over n frames at about 3/10 of n, shifted by 3/16 of n, plus a
    tail window ending at frame n, each keeping its centre as in
    magnify_windowed: (starts, length, bounds)."""
    length, shift = 3 * n // 10, 3 * n // 16
    starts = list(range(0, n - length + 1, shift))
    starts.append(n - length)
    margin = (length - shift) // 2
    return starts, length, [0] + [start + margin for start in starts[1:]] + [n]


class TestRotateLevel:
    @pytest.fixture(params=["default-blocks", "one-row-blocks"])
    def block_elements(self, request, monkeypatch):
        if request.param == "default-blocks":
            yield request.param
            return
        # BLOCK_ELEMENTS below one row gives one row per block, so every
        # level of more than one row runs on the thread pool; a short switch
        # interval interleaves the threads' write-backs as often as it can
        monkeypatch.setattr(sys.modules["radarmag.magnify"], "BLOCK_ELEMENTS", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield request.param
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def assert_matches_oracle(level, fps, cfg):
        expected, actual = level.copy(), level.copy()
        whole_level_rotation(expected, fps, cfg)
        rotate_level(actual, fps, cfg)
        assert np.array_equal(actual, expected)

    @staticmethod
    def assert_windows_match_oracle(level, fps, cfg):
        # each window rotated on its own copy by the whole-level op, and its
        # centre stitched in; the windows overlap, so a block that wrote one
        # window back before reading the next would rotate rotated frames
        starts, length, bounds = overlapping_windows(level.shape[1])
        assert len(starts) >= 4 and starts[-1] - starts[-2] < starts[1]
        expected, actual = level.copy(), level.copy()
        for start, lo, hi in zip(starts, bounds, bounds[1:]):
            window = level[:, start : start + length].copy()
            whole_level_rotation(window, fps, cfg)
            expected[:, lo:hi] = window[:, lo - start : hi - start]
        _rotate_windows(actual, starts, length, bounds, fps, cfg, unexpected_check)
        assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("alpha", [10.0, 50.0])
    def test_scene_levels_match_whole_level_op(self, scene_data, block_elements, alpha):
        cfg = MagnifyConfig(alpha=alpha, band=SCENE_BAND)
        for level in decompose(scene_data.data, magnify_bank()).levels:
            self.assert_matches_oracle(level, scene_data.fps, cfg)

    @pytest.mark.parametrize("name", ["zeros", "gated", "one-row", "moving"])
    def test_handmade_levels_match_whole_level_op(self, block_elements, name):
        level = handmade_levels()[name]
        self.assert_matches_oracle(level, 200.0, MagnifyConfig(alpha=10.0, band=SCENE_BAND))

    def test_scene_windows_match_stitched_whole_window_op(self, scene_data, block_elements):
        cfg = MagnifyConfig(alpha=10.0, band=SCENE_BAND)
        for level in decompose(scene_data.data, magnify_bank()).levels:
            self.assert_windows_match_oracle(level, scene_data.fps, cfg)

    @pytest.mark.parametrize("name", ["zeros", "gated", "one-row", "moving"])
    def test_handmade_windows_match_stitched_whole_window_op(self, block_elements, name):
        level = handmade_levels()[name]
        self.assert_windows_match_oracle(level, 200.0, MagnifyConfig(alpha=10.0, band=SCENE_BAND))

    def test_row_at_the_gate_is_rotated(self):
        # the row whose peak equals the gate exactly is gated, not skipped
        level = handmade_levels()["gated"]
        rotated = level.copy()
        rotate_level(rotated, 200.0, MagnifyConfig(alpha=10.0, band=SCENE_BAND))
        changed = ~np.isclose(rotated, level, rtol=1e-9, atol=0.0).all(axis=1)
        assert changed.tolist() == [True, False, False, True, False, False]

    @staticmethod
    def level_check(k, frame0=0):
        bank = default_bank()
        return lambda level: _check_finite(level, k, bank, frame0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coefficient_is_named_before_rotation(self, block_elements, value):
        # one bad coefficient in an 8 x 400 level: the check names it, and no
        # block has rotated anything by then
        level = np.exp(1j * 0.3 * np.arange(400.0)) * np.arange(1.0, 9.0)[:, None]
        level[5, 123] = value
        before = level.copy()
        with pytest.raises(ValueError, match=(
                r"^non-finite coefficient at level 3 \(wavelength 9.0\), bin 5, frame 1123$")):
            rotate_level(level, 200.0, MagnifyConfig(alpha=10.0, band=SCENE_BAND),
                         self.level_check(3, 1000))
        assert np.array_equal(level, before, equal_nan=True)

    def test_non_finite_rotated_coefficient_is_named(self, block_elements, monkeypatch):
        # a block whose rotated frames are not finite: the check runs once,
        # after the blocks have written back, and names the first of them
        module = sys.modules["radarmag.magnify"]
        rotate_block = module._rotate_block

        def spoiled_rotate_block(block, *args):
            rotate_block(block, *args)
            block[:, 123] = np.nan

        monkeypatch.setattr(module, "_rotate_block", spoiled_rotate_block)
        level = np.exp(1j * 0.3 * np.arange(400.0)) * np.arange(1.0, 9.0)[:, None]
        checked = []

        def check(level):
            checked.append(level.copy())
            self.level_check(0)(level)

        with pytest.raises(ValueError, match="^non-finite coefficient at level 0 .*, bin 0, frame 123$"):
            rotate_level(level, 200.0, MagnifyConfig(alpha=10.0, band=SCENE_BAND), check)
        assert len(checked) == 1 and np.isnan(checked[0][:, 123]).all()


COMPOSE_SECONDS = 2.0   # 400 frames, 90 cycles of the 45 Hz oscillator


def composed_error(alpha1, alpha2):
    """Criterion 4's measure of magnifying by alpha1 and then by alpha2: the
    relative error of the displacement p2p against the scene simulated with
    the composed gain (1 + alpha1)(1 + alpha2)."""
    bank = magnify_bank()
    out, _ = simulate(validation_scene(duration_s=COMPOSE_SECONDS), seed=0)
    for alpha in (alpha1, alpha2):
        out = magnify(out, bank, MagnifyConfig(alpha=alpha, band=SCENE_BAND))
    gain = (1.0 + alpha1) * (1.0 + alpha2)
    reference, _ = simulate(validation_scene(amplitude_bins=0.1 * gain,
                                             duration_s=COMPOSE_SECONDS), seed=0)
    want = displacement_p2p(reference)
    return abs(displacement_p2p(out) - want) / want if want > 0 else math.inf


@st.composite
def alpha_pairs(draw):
    """alpha1, alpha2 >= -1 whose composed gain is at most criterion 4's
    largest, 1 + 50."""
    alpha1 = draw(st.floats(-1.0, 50.0))
    top = 50.0 if alpha1 == -1.0 else min(50.0, 51.0 / (1.0 + alpha1) - 1.0)
    return alpha1, draw(st.floats(-1.0, top))


class TestComposition:
    """Magnifying by alpha1 and then alpha2 moves a target as far as one
    magnification by (1 + alpha1)(1 + alpha2) - 1 (Wadhwa et al., SIGGRAPH
    2013), up to criterion 4's 10 % tolerance against the simulated truth."""

    @pytest.mark.parametrize("alpha1, alpha2",
                             [(1.0, 1.0), (2.0, 1.5), (2.0, 3.0), (4.0, 1.0), (1.0, -0.5)])
    def test_pairs_within_criterion_4(self, alpha1, alpha2):
        assert composed_error(alpha1, alpha2) <= 0.10

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "criterion 4's p2p measure does not follow attenuation (one pass of alpha = -1 "
        "leaves 0.115 of the 0.200-bin p2p), nor a second gain on a magnified record "
        "((10, -0.5): error 1.16, (24, 1): 0.63); 28 of 49 grid pairs miss 10 %"))
    # no shrinking: the first failing pair is the report, and each pair costs
    # two magnify calls.  Hypothesis turns that pair into a patch with
    # libcst, whose import warns.
    @pytest.mark.filterwarnings("ignore::DeprecationWarning:libcst")
    @settings(max_examples=20, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(alpha_pairs())
    def test_drawn_pairs_within_criterion_4(self, alphas):
        error = composed_error(*alphas)
        assert error <= 0.10, f"alpha1, alpha2 = {alphas}: relative error {error:.3f}"


class TestGlobalMagnify:
    @staticmethod
    def band_limited_profile(n, rng, k_max=6):
        spectrum = np.zeros(n // 2 + 1, complex)
        spectrum[1 : k_max + 1] = rng.standard_normal(k_max) + 1j * rng.standard_normal(k_max)
        return np.fft.irfft(spectrum, n)

    @staticmethod
    def shift_frames(profile, shifts):
        n = len(profile)
        spectrum = np.fft.rfft(profile)
        k = np.arange(len(spectrum))
        ramp = np.exp(1j * 2 * np.pi * k[None, :] * shifts[:, None] / n)
        return np.fft.irfft(spectrum[None, :] * ramp, n, axis=1)

    def test_matches_analytic_shift_oracle(self):
        rng = np.random.default_rng(7)
        n, fps, dur = 64, 50.0, 4.0
        profile = self.band_limited_profile(n, rng)
        t = np.arange(int(fps * dur)) / fps
        delta = 0.3 * np.sin(2 * np.pi * 1.0 * t)
        frames = self.shift_frames(profile, delta)
        alpha = 2.0
        out = global_magnify(frames, fps, MagnifyConfig(alpha=alpha, band=BandSpec(0.0, fps / 2)))
        oracle = self.shift_frames(profile, (1 + alpha) * delta)
        assert np.max(np.abs(out - oracle)) <= 1e-6

    def test_alpha_zero_identity(self):
        rng = np.random.default_rng(8)
        frames = self.shift_frames(self.band_limited_profile(64, rng),
                                   0.2 * np.sin(np.linspace(0, 7, 100)))
        out = global_magnify(frames, 50.0, MagnifyConfig(alpha=0.0, band=BandSpec(0.0, 25.0)))
        assert np.max(np.abs(out - frames)) <= 1e-9

    def test_zero_displacement_identity(self):
        rng = np.random.default_rng(9)
        profile = self.band_limited_profile(64, rng)
        frames = np.tile(profile, (50, 1))
        out = global_magnify(frames, 50.0, MagnifyConfig(alpha=25.0, band=BandSpec(0.0, 25.0)))
        assert np.max(np.abs(out - frames)) <= 1e-9


def test_outputs_do_not_depend_on_the_thread_count(monkeypatch):
    # the pool's size sets how the phase op cuts a level into row blocks;
    # no output may move with it; magnify reads the CPU count through gabor
    gabor = sys.modules["radarmag.gabor"]
    r, _ = simulate(validation_scene(duration_s=6.0), seed=0)
    bank, cfg = magnify_bank(), MagnifyConfig(alpha=10.0, band=SCENE_BAND)
    outputs = {}
    for threads in (1, 2, 3):
        pool = ThreadPoolExecutor(threads, thread_name_prefix="radarmag")
        monkeypatch.setattr(gabor, "_pool", lambda: pool)
        monkeypatch.setattr(gabor, "_cpus", lambda: threads)
        try:
            rows = featurize(r, bank, WindowSpec(2.0, 2.0), SCENE_BAND, TARGET_ROI, alpha=2.0)
            outputs[threads] = [magnify(r, bank, cfg).data,
                                magnify_windowed(r, bank, cfg, WindowSpec(1.0, 0.5)).data,
                                np.stack(decompose(r.data, bank).levels),
                                np.stack([row.features for row in rows])]
        finally:
            pool.shutdown()
    for threads in (2, 3):
        assert all(np.array_equal(a, b) for a, b in zip(outputs[threads], outputs[1]))
