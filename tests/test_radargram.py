import numpy as np
import pytest

from radarmag import (FormatError, Radargram, RangeROI, WindowSpec,
                      load_radargram, save_radargram, windows)


def make_radargram(n_bins=8, n_frames=16, fps=100.0, seed=0):
    rng = np.random.default_rng(seed)
    return Radargram(rng.standard_normal((n_bins, n_frames)), fps=fps, bin_spacing=0.05)


class TestRadargram:
    def test_validation(self):
        with pytest.raises(ValueError):
            Radargram(np.zeros((0, 4)), fps=10.0, bin_spacing=0.1)
        with pytest.raises(ValueError):
            Radargram(np.zeros((4, 4)), fps=0.0, bin_spacing=0.1)
        with pytest.raises(ValueError):
            Radargram(np.zeros((4, 4)), fps=10.0, bin_spacing=-1.0)
        bad = np.zeros((4, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            Radargram(bad, fps=10.0, bin_spacing=0.1)

    def test_data_is_read_only(self):
        r = make_radargram()
        with pytest.raises(ValueError):
            r.data[0, 0] = 1.0

    def test_range_axis(self):
        # bin i sits at range t0_offset + i * bin_spacing; with_data keeps the axis
        r = Radargram(np.zeros((4, 4)), fps=10.0, bin_spacing=0.5, t0_offset=1.0)
        r = r.with_data(np.ones((4, 4)))
        assert np.allclose(r.t0_offset + np.arange(r.n_bins) * r.bin_spacing, [1.0, 1.5, 2.0, 2.5])
        assert (2.0 - r.t0_offset) / r.bin_spacing == 2.0


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        r = make_radargram(n_bins=13, n_frames=37)
        path = str(tmp_path / "r.rgrm")
        save_radargram(r, path)
        back = load_radargram(path)
        assert np.array_equal(back.data, r.data)
        assert back.fps == r.fps
        assert back.bin_spacing == r.bin_spacing
        assert back.t0_offset == r.t0_offset

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "junk.rgrm")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + b"\0" * 64)
        with pytest.raises(FormatError):
            load_radargram(path)

    def test_truncated(self, tmp_path):
        r = make_radargram()
        path = str(tmp_path / "r.rgrm")
        save_radargram(r, path)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:-16])
        with pytest.raises(FormatError):
            load_radargram(path)

    def test_bad_header_values_name_the_file(self, tmp_path):
        path = str(tmp_path / "r.rgrm")
        for fps, sample in ((0.0, 1.0), (np.inf, 1.0), (10.0, np.nan)):
            save_radargram(make_radargram(n_bins=2, n_frames=3), path)
            blob = bytearray(open(path, "rb").read())
            blob[16:24] = np.float64(fps).tobytes()
            blob[-8:] = np.float64(sample).tobytes()
            open(path, "wb").write(bytes(blob))
            with pytest.raises(FormatError, match=f"^{path}: "):
                load_radargram(path)

    def test_write_to_unwritable_location(self, tmp_path):
        r = make_radargram()
        with pytest.raises(OSError):
            save_radargram(r, str(tmp_path / "missing_dir" / "r.rgrm"))


class TestCsvFormat:
    def test_round_trip(self, tmp_path):
        r = make_radargram(n_bins=5, n_frames=9)
        path = str(tmp_path / "r.csv")
        save_radargram(r, path, format="csv")
        back = load_radargram(path)
        assert np.max(np.abs(back.data - r.data)) <= 1e-9
        assert back.fps == r.fps

    def test_zeros_with_sidecar(self, tmp_path):
        path = str(tmp_path / "z.csv")
        np.savetxt(path, np.zeros((4, 4)), fmt="%.17g", delimiter=",")
        with open(path + ".meta", "w") as fh:
            fh.write("fps=100\nbin_spacing=0.05\n")
        r = load_radargram(path)
        assert r.fps == 100.0
        assert np.array_equal(r.data, np.zeros((4, 4)))

    def test_dimension_mismatch(self, tmp_path):
        r = make_radargram(n_bins=5, n_frames=9)
        path = str(tmp_path / "r.csv")
        save_radargram(r, path, format="csv")
        with open(path + ".meta", "a") as fh:
            pass
        meta = open(path + ".meta").read().replace("n_bins=5", "n_bins=7")
        with open(path + ".meta", "w") as fh:
            fh.write(meta)
        with pytest.raises(FormatError):
            load_radargram(path)

    def test_sidecar_errors_carry_line_numbers(self, tmp_path):
        path = str(tmp_path / "r.csv")
        np.savetxt(path, np.zeros((2, 2)), fmt="%g", delimiter=",")
        with open(path + ".meta", "w") as fh:
            fh.write("fps=100\nnot a pair\n")
        with pytest.raises(FormatError, match=":2:"):
            load_radargram(path)

    @pytest.mark.parametrize("meta, message", [
        ("fps=100\nbin_spacing=0.05\nfps=50\n", ":3: repeated key 'fps'"),
        ("fps=100\nbin_spacing=0.05\nn_bins=3.7\n", ": n_bins must be a whole number, got 3.7"),
        ("fps=100\nbin_spacing=0.05\nn_frames=2.5\n", ": n_frames must be a whole number, got 2.5"),
        ("fps=100\nbin_spacing=0.05\nt0_ofset=0.5\n", ":3: unknown key 't0_ofset'"),
    ], ids=["fps-twice", "fractional-bins", "fractional-frames", "misspelt-key"])
    def test_sidecar_rejects_repeated_keys_and_fractional_counts(self, tmp_path, meta, message):
        path = str(tmp_path / "r.csv")
        np.savetxt(path, np.zeros((3, 2)), fmt="%g", delimiter=",")
        with open(path + ".meta", "w") as fh:
            fh.write(meta)
        with pytest.raises(FormatError) as info:
            load_radargram(path)
        assert str(info.value) == path + ".meta" + message


class TestWindows:
    def test_30s_5s_windowing(self):
        r = make_radargram(n_bins=4, n_frames=6000, fps=100.0)
        spec = WindowSpec(30.0, 5.0)
        got = windows(r, spec)
        # oracle: enumerate starts s (multiples of 500) with s + 3000 <= 6000
        expected_starts = [s for s in range(0, 6000, 500) if s + 3000 <= 6000]
        assert [start for start, _ in got] == expected_starts
        assert len(got) == 7
        for start, w in got:
            assert w.n_frames == 3000
            assert w.fps == r.fps
            assert w.bin_spacing == r.bin_spacing
            assert np.array_equal(w.data, r.data[:, start:start + 3000])

    def test_exact_fit_gives_one_window(self):
        r = make_radargram(n_frames=3000, fps=100.0)
        assert len(windows(r, WindowSpec(30.0, 5.0))) == 1

    def test_too_short_gives_none(self):
        r = make_radargram(n_frames=2900, fps=100.0)
        assert windows(r, WindowSpec(30.0, 5.0)) == []

    def test_count_formula(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n_frames = int(rng.integers(10, 400))
            fps = 10.0
            length = int(rng.integers(4, 60))
            shift = int(rng.integers(1, length + 1))
            r = make_radargram(n_bins=2, n_frames=n_frames, fps=fps)
            got = len(windows(r, WindowSpec(length / fps, shift / fps)))
            expected = (n_frames - length) // shift + 1 if n_frames >= length else 0
            assert got == expected

    def test_window_spec_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(10.0, 0.0)
        with pytest.raises(ValueError):
            WindowSpec(10.0, 11.0)


class TestRangeROI:
    def test_validation(self):
        with pytest.raises(ValueError):
            RangeROI(-1, 3)
        with pytest.raises(ValueError):
            RangeROI(5, 3)
        roi = RangeROI(2, 5)
        roi.validate(6)
        with pytest.raises(ValueError):
            roi.validate(5)
        assert roi.n_bins == 4
