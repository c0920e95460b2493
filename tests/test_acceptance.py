"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single [criterion N] PASS line when its assertions hold
(visible with pytest -s); a failure raises with the measured values.
"""

import time

import numpy as np
import pytest

import radarmag as rm
from radarmag.cli import main as cli_main

from scenes import (BREATHER_ROI, SCENE_BAND, STATIC_SLICE, TARGET_ROI,
                    TRACK_SLICE, breather_scene, displacement_p2p,
                    magnify_bank, validation_scene)

RR_BAND = rm.BandSpec(0.1, 0.7)
HR_BAND = rm.BandSpec(0.7, 3.0)


def report(n, message):
    print(f"\n[criterion {n:2d}] PASS: {message}")


def ladder7_bank():
    pairs = [(13.35, 26.70), (10.68, 21.36), (8.54, 17.08), (6.84, 13.68),
             (5.47, 10.94), (4.38, 8.76), (3.5, 7.0)]
    return rm.make_bank([w for w, _ in pairs], sigmas=[s for _, s in pairs])


def band_limited_profile(n, rng, k_max=6):
    spectrum = np.zeros(n // 2 + 1, complex)
    spectrum[1 : k_max + 1] = rng.standard_normal(k_max) + 1j * rng.standard_normal(k_max)
    return np.fft.irfft(spectrum, n)


def shift_frames(profile, shifts):
    n = len(profile)
    spectrum = np.fft.rfft(profile)
    k = np.arange(len(spectrum))
    ramp = np.exp(1j * 2 * np.pi * k[None, :] * shifts[:, None] / n)
    return np.fft.irfft(spectrum[None, :] * ramp, n, axis=1)


def test_criterion_01_global_magnification_exactness():
    rng = np.random.default_rng(101)
    n, fps, duration = 64, 50.0, 4.0
    profile = band_limited_profile(n, rng)
    t = np.arange(int(fps * duration)) / fps
    delta = 0.3 * np.sin(2 * np.pi * 1.0 * t)
    frames = shift_frames(profile, delta)
    alpha = 2.0
    start = time.perf_counter()
    out = rm.global_magnify(frames, fps, rm.MagnifyConfig(alpha=alpha, band=rm.BandSpec(0.0, fps / 2)))
    elapsed = time.perf_counter() - start
    oracle = shift_frames(profile, (1 + alpha) * delta)
    error = np.max(np.abs(out - oracle))
    assert error <= 1e-6, f"max abs error {error:.3e} > 1e-6"
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s >= 1s"
    report(1, f"global magnifier matches Fourier-shift oracle, max err {error:.2e}, {elapsed*1e3:.0f} ms")


def test_criterion_02_reconstruction_identity():
    bank = rm.default_bank()
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        periods = rng.uniform(4.0, 75.0, 8)
        phases = rng.uniform(0, 2 * np.pi, 8)
        amps = rng.uniform(0.5, 1.5, 8)
        x = np.arange(512)
        f = sum(a * np.cos(2 * np.pi * x / p + q) for a, p, q in zip(amps, periods, phases))
        out = rm.reconstruct(rm.decompose(f, bank))
        worst = max(worst, np.linalg.norm(out - f) / np.linalg.norm(f))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-3, f"worst relative L2 {worst:.3e} > 1e-3"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s"
    report(2, f"reconstruct(decompose(f)) on 100 in-band signals, worst rel L2 {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_alpha_zero_passthrough():
    r, _ = rm.simulate(validation_scene(duration_s=4.0), seed=3)
    for bank in (magnify_bank(), rm.default_bank()):
        out = rm.magnify(r, bank, rm.MagnifyConfig(alpha=0.0, band=SCENE_BAND))
        reference = rm.reconstruct(rm.decompose(r.data, bank))
        assert np.array_equal(out.data, reference), "alpha=0 output differs from reconstruct(decompose(.))"
    report(3, "alpha=0 magnification equals reconstruct(decompose(.)) bit-for-bit")


def test_criterion_04_scene_reproduction():
    bank = magnify_bank()
    base, _ = rm.simulate(validation_scene(amplitude_bins=0.1), seed=0)
    lines = []
    for alpha in (10.0, 50.0):
        mag = rm.magnify(base, bank, rm.MagnifyConfig(alpha=alpha, band=SCENE_BAND))
        reference, _ = rm.simulate(validation_scene(amplitude_bins=(1 + alpha) * 0.1), seed=0)
        p2p_mag = displacement_p2p(mag)
        p2p_ref = displacement_p2p(reference)
        rel = abs(p2p_mag - p2p_ref) / p2p_ref
        assert rel <= 0.10, f"alpha={alpha}: displacement p2p {p2p_mag:.3f} vs {p2p_ref:.3f} (rel {rel:.3f} > 0.10)"
        static = (np.linalg.norm(mag.data[STATIC_SLICE] - base.data[STATIC_SLICE])
                  / np.linalg.norm(base.data[STATIC_SLICE]))
        assert static < 0.01, f"alpha={alpha}: static reflector change {static:.4f} >= 1%"
        track = abs(np.linalg.norm(mag.data[TRACK_SLICE]) ** 2
                    / np.linalg.norm(base.data[TRACK_SLICE]) ** 2 - 1.0)
        assert track < 0.05, f"alpha={alpha}: track energy change {track:.4f} >= 5%"
        lines.append(f"a={alpha:g}: rel {rel:.3f}, static {static:.1e}, track {track:.1e}")
    report(4, "scene displacement within 10%, non-targets untouched (" + "; ".join(lines) + ")")


def in_band_peak_per_bin(data, fps, band):
    centered = data - data.mean(axis=1, keepdims=True)
    spectra = np.abs(np.fft.rfft(centered, axis=1))
    freqs = np.fft.rfftfreq(data.shape[1], 1.0 / fps)
    keep = (freqs >= band.f_lo) & (freqs <= band.f_hi)
    return spectra[:, keep].max(axis=1)


def test_criterion_05_attenuation():
    bank = magnify_bank()
    base, _ = rm.simulate(validation_scene(amplitude_bins=0.1), seed=0)
    mag = rm.magnify(base, bank, rm.MagnifyConfig(alpha=-0.9, band=SCENE_BAND))
    before = in_band_peak_per_bin(base.data[TARGET_ROI.slice], base.fps, SCENE_BAND)
    after = in_band_peak_per_bin(mag.data[TARGET_ROI.slice], base.fps, SCENE_BAND)
    probe = np.argmax(before)
    reduction_db = 20.0 * np.log10(after[probe] / before[probe])
    assert reduction_db <= -15.0, f"45 Hz peak reduced by only {-reduction_db:.1f} dB (< 15 dB)"
    report(5, f"alpha=-0.9 reduces the 45 Hz peak by {-reduction_db:.1f} dB")


def test_criterion_06_feature_sanity():
    bank = rm.default_bank()
    r_breath, _ = rm.simulate(breather_scene(0.25, 0.5, duration_s=30.0), seed=6)
    whole = rm.WindowSpec(30.0, 30.0)
    series, _ = rm.level_signals(r_breath, bank, RR_BAND, BREATHER_ROI, whole)
    for k, bpm in enumerate(rm.fft_peak_bpm(series[:, 0], r_breath.fps, RR_BAND)):
        assert abs(bpm - 15.0) <= 0.5, f"level {k}: {bpm:.2f} bpm not within 15.0 +- 0.5"
    r_cardiac, _ = rm.simulate(breather_scene(1.2, 0.05, duration_s=30.0), seed=6)
    series, _ = rm.level_signals(r_cardiac, bank, HR_BAND, BREATHER_ROI, whole)
    for k, bpm in enumerate(rm.fft_peak_bpm(series[:, 0], r_cardiac.fps, HR_BAND)):
        assert abs(bpm - 72.0) <= 0.5, f"level {k}: {bpm:.2f} bpm not within 72.0 +- 0.5"
    t = np.arange(int(20.0 * 30.0)) / 20.0
    zcr = rm.zcr_hz(np.sin(2 * np.pi * 1.0 * t), 20.0)
    assert abs(zcr - 1.0) <= 0.034, f"zcr {zcr:.4f} Hz not within 1.0 +- 0.034"
    report(6, f"fft peaks 15/72 bpm on every level, zcr(1 Hz) = {zcr:.3f} Hz")


def synthesize_benchmark(n_records=50, duration_s=60.0, fps=20.0, n_bins=96, master_seed=2024):
    """Breathing + cardiac sinusoids per record; returns per-band datasets and
    per-window baseline errors."""
    param_rng = np.random.default_rng(master_seed)
    wspec = rm.WindowSpec(30.0, 5.0)
    bank = rm.default_bank()
    rows = {"rr": [], "hr": []}
    baseline_err = {"rr": [], "hr": []}
    for rec in range(n_records):
        f_breath = param_rng.uniform(0.2, 0.35)
        a_breath = param_rng.uniform(0.3, 1.0)
        f_cardiac = param_rng.uniform(1.0, 1.6)
        a_cardiac = param_rng.uniform(0.01, 0.05)
        center = 0.48 + param_rng.uniform(-0.04, 0.04)
        scene = rm.SceneSpec(
            duration_s=duration_s, fps=fps, n_bins=n_bins, bin_spacing=0.01,
            targets=(
                rm.TargetSpec("sinusoid", center, 1.0, amplitude_bins=a_breath, freq_hz=f_breath),
                rm.TargetSpec("sinusoid", center, 0.6, amplitude_bins=a_cardiac, freq_hz=f_cardiac),
            ),
            noise_sigma=0.02, pulse_sigma_bins=3.0, pulse_carrier_bins=6.0)
        record, _ = rm.simulate(scene, seed=master_seed + rec)
        t = np.arange(0, duration_s, 1.0)
        for key, band, truth_bpm in (("rr", RR_BAND, f_breath * 60.0),
                                     ("hr", HR_BAND, f_cardiac * 60.0)):
            labels = np.column_stack([t, np.full_like(t, truth_bpm)])
            rows[key].extend(rm.featurize(record, bank, wspec, band, BREATHER_ROI, labels=labels))
            for _, window in rm.windows(record, wspec):
                estimate = rm.temporal_fft_baseline(window, BREATHER_ROI, band)
                baseline_err[key].append(abs(estimate - truth_bpm))
    return rows, baseline_err


def test_criterion_07_directional_benchmark():
    start = time.perf_counter()
    rows, baseline_err = synthesize_benchmark()
    results = {}
    for key in ("rr", "hr"):
        data = rm.Dataset.from_rows(rows[key])
        rf = rm.kfold_mae(data, k=10, model="rf", seed=7).mean_mae
        lr = rm.kfold_mae(data, k=10, model="ols", seed=7, ridge=1e-8).mean_mae
        results[key] = (rf, lr, float(np.mean(baseline_err[key])))
    elapsed = time.perf_counter() - start
    rf_rr, lr_rr, base_rr = results["rr"]
    rf_hr, lr_hr, base_hr = results["hr"]
    assert rf_hr < base_hr, f"HR: RF {rf_hr:.3f} not strictly below baseline {base_hr:.3f}"
    assert lr_hr < base_hr, f"HR: LR {lr_hr:.3f} not strictly below baseline {base_hr:.3f}"
    assert rf_rr <= base_rr, f"RR: RF {rf_rr:.3f} above baseline {base_rr:.3f}"
    assert lr_rr <= base_rr, f"RR: LR {lr_rr:.3f} above baseline {base_rr:.3f}"
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s >= 5 min"
    report(7, f"MAE bpm, HR: fft {base_hr:.2f} > rf {rf_hr:.2f} / lr {lr_hr:.2f}; "
              f"RR: fft {base_rr:.2f} >= rf {rf_rr:.2f} / lr {lr_rr:.2f} ({elapsed:.0f}s)")


def run_pipeline(base, seed=17):
    base.mkdir(exist_ok=True)
    rgrm = str(base / "scene.rgrm")
    outputs = [rgrm, str(base / "truth.csv")]
    assert cli_main(["simulate", "configs/validation_scene.cfg", "--seed", str(seed),
                     "-o", rgrm, "--truth", outputs[1]]) == 0
    mag = str(base / "mag.rgrm")
    outputs.append(mag)
    assert cli_main(["magnify", rgrm, mag, "--alpha", "10", "--band", "40:50",
                     "--bank", "configs/magnify_bank.cfg"]) == 0
    ppm = str(base / "mag.ppm")
    outputs.append(ppm)
    assert cli_main(["render", mag, ppm, "--colormap", "jet"]) == 0
    feats = str(base / "features.csv")
    outputs.append(feats)
    assert cli_main(["features", rgrm, "-o", feats, "--band", "40:50",
                     "--window", "5:2.5", "--roi", "100:156"]) == 0
    labels = str(base / "labels.csv")
    with open(labels, "w") as fh:
        fh.write("time_s,bpm\n")
        for tt in np.arange(0.0, 10.0, 0.5):
            fh.write(f"{tt},2700\n")
    feats2 = str(base / "labeled.csv")
    outputs.append(feats2)
    assert cli_main(["features", rgrm, "-o", feats2, "--band", "40:50",
                     "--window", "5:2.5", "--roi", "100:156", "--labels", labels]) == 0
    model = str(base / "model.bin")
    report_path = str(base / "report.txt")
    outputs += [model, report_path]
    assert cli_main(["train", feats2, "--model", "rf", "--trees", "10", "--folds", "3",
                     "--seed", str(seed), "-o", model, "--report", report_path]) == 0
    return outputs


def test_criterion_08_determinism(tmp_path):
    first = run_pipeline(tmp_path / "one")
    second = run_pipeline(tmp_path / "two")
    for a, b in zip(first, second):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), f"{a} and {b} differ between identical runs"
    report(8, f"{len(first)} pipeline artifacts byte-identical across two seeded runs")


def _timed(fn, *args):
    import gc
    gc.collect()
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _benchmark_data():
    rng = np.random.default_rng(109)
    return rng.standard_normal((512, 6000))


def test_criterion_09a_magnify_budget():
    bank = ladder7_bank()
    data = _benchmark_data()
    r = rm.Radargram(data, fps=200.0, bin_spacing=0.01)
    rm.decompose(data[:, :256], bank)  # warm FFT plans
    start = time.perf_counter()
    rm.magnify(r, bank, rm.MagnifyConfig(alpha=10.0, band=rm.BandSpec(40.0, 50.0)))
    magnify_s = time.perf_counter() - start
    assert magnify_s < 10.0, f"magnify took {magnify_s:.1f}s >= 10s"
    report(9, f"30 s window of 512 bins x 6000 frames magnified in {magnify_s:.1f}s (< 10s)")


def test_criterion_09b_fft_speedup():
    # Stated for a commodity 4-core machine; the FFT path is memory-bound and
    # scales with cores while the direct reference is single-threaded.  A
    # 2-core Xeon (AVX-512) measured 6.3-9.6x.
    bank = ladder7_bank()
    data = _benchmark_data()
    rm.decompose(data[:, :256], bank)
    fft_s = min(_timed(rm.decompose, data, bank) for _ in range(3))
    direct_s = min(_timed(rm.decompose_direct, data, bank) for _ in range(2))
    ratio = direct_s / fft_s
    assert ratio >= 5.0, (f"FFT convolution only {ratio:.1f}x faster than direct "
                          f"({fft_s:.2f}s vs {direct_s:.2f}s); target >= 5x")
    report(9, f"FFT convolution {ratio:.1f}x faster than direct ({fft_s:.2f}s vs {direct_s:.2f}s)")


def test_criterion_10_oracle_equivalence():
    bank = rm.default_bank()
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(50):
        profile = rng.standard_normal(256)
        fast = rm.decompose(profile, bank)
        slow = rm.decompose_direct(profile, bank)
        for a, b in zip(fast.levels, slow.levels):
            worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-10, f"FFT vs direct convolution max abs diff {worst:.2e} > 1e-10"

    X = rng.standard_normal((60, 3))
    y = X @ np.array([2.5, -1.0, 0.5]) + 4.0
    model = rm.fit_ols(rm.Dataset(X, y), ridge=0.0)
    ols_err = max(np.max(np.abs(model.weights - [2.5, -1.0, 0.5])),
                  abs(model.intercept - 4.0))
    assert ols_err <= 1e-8, f"OLS recovery error {ols_err:.2e} > 1e-8"

    n, k = 103, 10
    order = np.random.default_rng(0).permutation(n)
    folds = np.array_split(order, k)
    assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(n)), "folds do not partition rows"
    report(10, f"FFT=direct to {worst:.1e}; OLS exact to {ols_err:.1e}; folds partition exactly")
