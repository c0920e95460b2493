import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from radarmag import (DEFAULT_WAVELENGTHS, FormatError, GaborBank, GaborParams, decompose,
                      decompose_direct, default_bank, dyadic_bank, load_bank_config,
                      make_bank, make_gabor, reconstruct)
from radarmag.gabor import map_levels

BANK = default_bank()
SUPPORT = 2 * BANK.max_radius + 1
samples = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
profiles = st.integers(1, 3 * SUPPORT).flatmap(
    lambda n: arrays(np.float64, n, elements=samples))


def in_band_signal(n, rng, n_components=8, period_lo=4.0, period_hi=75.0):
    periods = rng.uniform(period_lo, period_hi, n_components)
    phases = rng.uniform(0, 2 * np.pi, n_components)
    amps = rng.uniform(0.5, 1.5, n_components)
    x = np.arange(n)
    return sum(a * np.cos(2 * np.pi * x / p + q) for a, p, q in zip(amps, periods, phases))


class TestKernel:
    def test_center_sample(self):
        for lam, sigma in [(15.0, 1.0), (75.0, 5.0), (4.0, 0.5)]:
            p = GaborParams(lam, sigma)
            ker = make_gabor(p)
            center = ker[p.support_radius]
            assert center.imag == 0.0
            assert center.real == pytest.approx(1.0 / (np.sqrt(2 * np.pi) * sigma**2), rel=1e-12)

    def test_conjugate_symmetry(self):
        p = GaborParams(9.0, 2.0)
        ker = make_gabor(p)
        assert np.allclose(ker[::-1], np.conj(ker), atol=1e-15)

    def test_dft_peak_at_carrier(self):
        # kernel lambda=15 sigma=1, zero-padded to 512: |DFT| peaks at the bin
        # nearest 1/15 cycles/bin
        ker = make_gabor(GaborParams(15.0, 1.0))
        padded = np.zeros(512, complex)
        padded[: len(ker)] = ker
        mag = np.abs(np.fft.fft(padded))
        assert np.argmax(mag) == round(512 / 15)

    def test_support_radius_validation(self):
        assert GaborParams(15.0, 2.0).support_radius == 8  # ceil(4*2)
        assert GaborParams(15.0, 2.01).support_radius == 9
        assert len(make_gabor(GaborParams(15.0, 2.0))) == 17
        with pytest.raises(ValueError):
            GaborParams(-1.0, 1.0)
        with pytest.raises(ValueError, match="4\\*sigma finite"):
            GaborParams(15.0, 1e308)  # 4*sigma overflows


class TestBankConstruction:
    def test_default_bank_matches_published_configuration(self):
        bank = default_bank()
        assert bank.wavelengths == (75.0, 15.0, 10.0, 9.0, 7.0, 5.0, 4.0)
        assert np.allclose(bank.sigmas, [5.0, 1.0, 0.6667, 0.6, 0.4667, 0.3333, 0.2667],
                           atol=5e-5)

    def test_all_kernels_conjugate_symmetric(self):
        for ker in default_bank().kernels:
            assert np.allclose(ker[::-1], np.conj(ker), atol=1e-15)

    def test_dyadic_bank_doubles_sigma(self):
        bank = dyadic_bank(4)
        assert bank.wavelengths == (32.0, 16.0, 8.0, 4.0)
        ratios = np.array(bank.sigmas[:-1]) / np.array(bank.sigmas[1:])
        assert np.allclose(ratios, 2.0)

    def test_wavelengths_strictly_decreasing(self):
        with pytest.raises(ValueError):
            make_bank([10.0, 10.0, 5.0])

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "bank.cfg"
        path.write_text("wavelengths = 75, 15, 10\nbandwidth_divisor = 15\n")
        bank = load_bank_config(str(path))
        assert bank.wavelengths == (75.0, 15.0, 10.0)
        assert bank.sigmas == (5.0, 1.0, 10.0 / 15.0)

    def test_config_explicit_levels(self, tmp_path):
        path = tmp_path / "bank.cfg"
        path.write_text("level = 30:12\nlevel = 8:4\n")
        bank = load_bank_config(str(path))
        assert bank.wavelengths == (30.0, 8.0)
        assert bank.sigmas == (12.0, 4.0)

    @pytest.mark.parametrize("divisor", [0.0, -15.0, np.inf, np.nan])
    def test_bandwidth_divisor_must_be_positive_and_finite(self, divisor):
        with pytest.raises(ValueError, match="bandwidth_divisor must be positive and finite"):
            make_bank([16.0, 8.0], bandwidth_divisor=divisor)

    def test_config_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bank.cfg"
        path.write_text("wavelengths = 75, 15\nbogus line\n")
        with pytest.raises(FormatError, match=":2:"):
            load_bank_config(str(path))


class TestDecompose:
    def test_delta_reproduces_kernel(self):
        bank = default_bank()
        n = 256
        profile = np.zeros(n)
        profile[n // 2] = 1.0
        pyr = decompose(profile, bank)
        for params, ker, level in zip(bank.levels, bank.kernels, pyr.levels):
            lo = n // 2 - params.support_radius
            hi = n // 2 + params.support_radius + 1
            assert np.allclose(level[lo:hi], ker, atol=1e-12)

    def test_zero_profile(self):
        bank = default_bank()
        pyr = decompose(np.zeros(256), bank)
        for level in pyr.levels:
            assert np.max(np.abs(level)) == 0.0

    def test_cosine_amplitude_and_phase_ramp(self):
        # quasi-analytic kernel so the negative-frequency image is negligible
        lam = 15.0
        bank = make_bank([lam], sigmas=[5.0])
        n = 512
        x = np.arange(n)
        pyr = decompose(np.cos(2 * np.pi * x / lam), bank)
        interior = slice(n // 4, 3 * n // 4)
        amp = np.abs(pyr.levels[0][interior])
        assert amp.std() / amp.mean() < 0.02
        phase = np.unwrap(np.angle(pyr.levels[0][interior]))
        slopes = np.diff(phase)
        assert np.allclose(slopes, 2 * np.pi / lam, atol=2e-3)

    @pytest.mark.parametrize("shape", [(SUPPORT,), (96, 7), (3 * SUPPORT, 5)])
    def test_levels_share_one_buffer_of_n_rows_each(self, shape):
        pyr = decompose(np.random.default_rng(0).standard_normal(shape), BANK)
        n, m = shape[0], BANK.transform_length(shape[0])
        base = pyr.levels[0].base
        assert all(level.base is base for level in pyr.levels)
        assert base.shape == (len(BANK) * n + m - n,) + shape[1:]

    def test_empty_signal_rejected(self):
        # any other length is zero-padded, so only a signal without samples fails
        for shape in [(0,), (0, 3)]:
            with pytest.raises(ValueError, match="signal has no samples"):
                decompose(np.zeros(shape), BANK)

    def test_linearity(self):
        bank = default_bank()
        rng = np.random.default_rng(1)
        f, g = rng.standard_normal(256), rng.standard_normal(256)
        a, b = 1.7, -0.4
        combined = decompose(a * f + b * g, bank)
        separate = [a * lf + b * lg
                    for lf, lg in zip(decompose(f, bank).levels, decompose(g, bank).levels)]
        for lc, ls in zip(combined.levels, separate):
            assert np.max(np.abs(lc - ls)) < 1e-10

    def test_fft_matches_direct_convolution(self):
        bank = default_bank()
        rng = np.random.default_rng(2)
        radius = bank.max_radius
        # also profiles and matrices shorter than the widest kernel
        shapes = [(256,)] * 5 + [(n,) + frames for n in (1, 2, radius, 2 * radius)
                                 for frames in ((), (3,))]
        for shape in shapes:
            signal = rng.standard_normal(shape)
            fast = decompose(signal, bank)
            slow = decompose_direct(signal, bank)
            for lf, ls in zip(fast.levels, slow.levels):
                assert np.max(np.abs(lf - ls)) < 1e-10

    def test_circular_shift_covariance(self):
        bank = default_bank()
        rng = np.random.default_rng(3)
        shift = 37
        # zeros at each end, so np.roll wraps no sample into a kernel's reach
        profile = np.pad(rng.standard_normal(256), bank.max_radius + shift)
        base = decompose(profile, bank)
        shifted = decompose(np.roll(profile, shift), bank)
        for lb, lsft in zip(base.levels, shifted.levels):
            assert np.max(np.abs(np.roll(lb, shift) - lsft)) < 1e-8

    def test_matrix_columns_match_profiles(self):
        bank = default_bank()
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((256, 3))
        pyr = decompose(matrix, bank)
        for j in range(3):
            single = decompose(matrix[:, j], bank)
            for lm, ls in zip(pyr.levels, single.levels):
                assert np.allclose(lm[:, j], ls, atol=1e-12)


class TestDecomposeProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.floats(-10, 10), st.floats(-10, 10))
    def test_linearity(self, data, a, b):
        f = data.draw(profiles)
        g = data.draw(arrays(np.float64, len(f), elements=samples))
        combined = decompose(a * f + b * g, BANK)
        scale = abs(a) * np.abs(f).max() + abs(b) * np.abs(g).max() + 1e-300
        for lc, lf, lg in zip(combined.levels, decompose(f, BANK).levels, decompose(g, BANK).levels):
            assert np.max(np.abs(lc - (a * lf + b * lg))) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_circular_integer_shift_covariance(self, data):
        # with max_radius + |shift| zeros at each end, a circular shift
        # (np.roll) of the profile wraps only zeros, so its levels roll with it
        core = data.draw(profiles)
        shift = data.draw(st.integers(-len(core), len(core)))
        f = np.pad(core, BANK.max_radius + abs(shift))
        base = decompose(f, BANK)
        shifted = decompose(np.roll(f, shift), BANK)
        scale = np.abs(f).max() + 1e-300
        for lb, ls in zip(base.levels, shifted.levels):
            assert np.max(np.abs(np.roll(lb, shift) - ls)) <= 1e-12 * scale


class TestReconstruct:
    def test_identity_op_is_reconstruct(self, monkeypatch):
        # reconstruct(decompose(x)) is the unchanged-level case of map_levels:
        # it synthesizes through the bank that built the pyramid, also for a
        # bank sharing the default wavelengths but not their sigmas.  Each of
        # the three calls fetches the bank's responses exactly once.
        fetched = []
        freq_responses = GaborBank.freq_responses
        monkeypatch.setattr(GaborBank, "freq_responses",
                            lambda bank, m: fetched.append(m) or freq_responses(bank, m))
        rng = np.random.default_rng(7)
        for bank in (BANK, make_bank(DEFAULT_WAVELENGTHS, bandwidth_divisor=10)):
            for x in (rng.standard_normal(256), rng.standard_normal((256, 5)),
                      rng.standard_normal(1), rng.standard_normal((256, 1))):
                seen = []
                out = map_levels(x, bank, lambda k, level: seen.append(k))
                assert seen == list(range(len(bank)))
                assert len(fetched) == 1
                pyr = decompose(x, bank)
                assert len(fetched) == 2
                assert np.array_equal(out, reconstruct(pyr))
                assert fetched == [bank.transform_length(x.shape[0])] * 3
                fetched.clear()

    def test_identity_on_in_band_signals(self):
        bank = default_bank()
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = in_band_signal(512, rng)
            out = reconstruct(decompose(f, bank))
            assert np.linalg.norm(out - f) / np.linalg.norm(f) <= 1e-3

    def test_zero_pyramid(self):
        bank = default_bank()
        pyr = decompose(np.zeros(256), bank)
        assert np.max(np.abs(reconstruct(pyr))) == 0.0

    def test_single_sinusoid_amplitude_preserved(self):
        bank = default_bank()
        n = 512
        x = np.arange(n)
        f = np.cos(2 * np.pi * x / 10.0)
        out = reconstruct(decompose(f, bank))
        interior = slice(n // 4, 3 * n // 4)
        measured = np.abs(np.fft.fft(out[interior] * np.hanning(n // 2)))
        expected = np.abs(np.fft.fft(f[interior] * np.hanning(n // 2)))
        k = np.argmax(expected)
        assert abs(measured[k] / expected[k] - 1.0) < 0.01

    def test_pre_real_sum_is_real(self):
        # conjugate-symmetric kernels + Hermitian resummation: the complex
        # reconstruction of a real input is real before taking the real part,
        # which is what lets reconstruct use a real inverse transform; the
        # levels are zero-padded to the transform length, as in synthesis
        bank = default_bank()
        rng = np.random.default_rng(6)
        f = in_band_signal(256, rng)
        pyr = decompose(f, bank)
        m = bank.transform_length(256)
        psis = bank.freq_responses(m)
        acc = sum(np.fft.fft(lev, m) * psi for lev, psi in zip(pyr.levels, psis))
        response = np.sum(np.abs(psis) ** 2, axis=0)
        mirror = (-np.arange(m)) % m
        full = np.fft.ifft((acc + np.conj(acc[mirror])) / (response + response[mirror]))[:256]
        assert np.max(np.abs(full.imag)) < 1e-12 * max(1.0, np.max(np.abs(full.real)))
        assert np.max(np.abs(reconstruct(pyr) - full.real)) < 1e-12

