import tracemalloc

import numpy as np
import pytest

from radarmag import (BandSpec, MagnifyConfig, Radargram, WindowSpec,
                      dct_bandpass, decompose, global_magnify, magnify,
                      magnify_windowed, reconstruct, simulate, unwrap_phase)

from scenes import (NARROW_SCENE, SCENE_BAND, STATIC_SLICE, TRACK_SLICE, displacement_p2p,
                    magnify_bank, validation_scene)


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
        # peak traced memory stays below four complex arrays of one level at
        # transform length, whatever the number of levels
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
        assert peak < 4 * m * r.n_frames * 16, f"peak {peak / 2**20:.1f} MiB"

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

