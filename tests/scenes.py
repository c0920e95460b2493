"""Shared synthetic scenes and banks used across the test suite.

The validation scene and the magnify bank are read from the shipped files
under configs/, which the CLI, the demos and the benchmark run too.
"""

import dataclasses
import os

import numpy as np

from radarmag import (BandSpec, GaborBank, RangeROI, SceneSpec, TargetSpec,
                      estimate_displacement, load_bank_config, load_scene_config)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")

# the validation scene's oscillator band and regions: the oscillator's rows,
# the static reflectors' rows and the rows the approaching target crosses
SCENE_BAND = BandSpec(40.0, 50.0)
TARGET_ROI = RangeROI(100, 156)
STATIC_SLICE = slice(246, 274)
TRACK_SLICE = slice(320, 401)


def validation_scene(amplitude_bins=0.1, duration_s=10.0, noise_sigma=0.0) -> SceneSpec:
    """configs/validation_scene.cfg with its oscillator's amplitude, its
    duration and its noise replaced."""
    base = load_scene_config(os.path.join(CONFIGS, "validation_scene.cfg"))
    oscillator = dataclasses.replace(base.targets[0], amplitude_bins=amplitude_bins)
    return dataclasses.replace(base, duration_s=duration_s, noise_sigma=noise_sigma,
                               targets=(oscillator,) + base.targets[1:])


def magnify_bank() -> GaborBank:
    """configs/magnify_bank.cfg: narrowband ladder plus low-frequency coverage levels."""
    return load_bank_config(os.path.join(CONFIGS, "magnify_bank.cfg"))


def criterion_7_scenes(n_records=50, master_seed=2024) -> list[tuple[SceneSpec, int]]:
    """(scene, seed) of each criterion-7 record, in record order: a breathing
    and a cardiac sinusoid at one drawn range, 60 s at 20 fps, noise 0.02."""
    rng = np.random.default_rng(master_seed)
    out = []
    for rec in range(n_records):
        f_breath = rng.uniform(0.2, 0.35)
        a_breath = rng.uniform(0.3, 1.0)
        f_cardiac = rng.uniform(1.0, 1.6)
        a_cardiac = rng.uniform(0.01, 0.05)
        center = 0.48 + rng.uniform(-0.04, 0.04)
        scene = SceneSpec(
            duration_s=60.0, fps=20.0, n_bins=96, bin_spacing=0.01,
            targets=(TargetSpec("sinusoid", center, 1.0, amplitude_bins=a_breath,
                                freq_hz=f_breath),
                     TargetSpec("sinusoid", center, 0.6, amplitude_bins=a_cardiac,
                                freq_hz=f_cardiac)),
            noise_sigma=0.02, pulse_sigma_bins=3.0, pulse_carrier_bins=6.0)
        out.append((scene, master_seed + rec))
    return out


def band_limited_profile(n, rng, k_max=6):
    """A real profile of n bins holding only spatial frequencies 1..k_max."""
    spectrum = np.zeros(n // 2 + 1, complex)
    spectrum[1 : k_max + 1] = rng.standard_normal(k_max) + 1j * rng.standard_normal(k_max)
    return np.fft.irfft(spectrum, n)


def shift_frames(profile, shifts):
    """One frame per shift: profile circularly shifted by that many bins (Fourier shift)."""
    n = len(profile)
    spectrum = np.fft.rfft(profile)
    k = np.arange(len(spectrum))
    ramp = np.exp(1j * 2 * np.pi * k[None, :] * shifts[:, None] / n)
    return np.fft.irfft(spectrum[None, :] * ramp, n, axis=1)


def breather_scene(freq_hz, amplitude_bins, duration_s=60.0, fps=20.0,
                   n_bins=96, extra_targets=(), noise_sigma=0.0, t0_offset=0.0) -> SceneSpec:
    """Single oscillating subject at 0.48 m, vital-sign style: mid-range of
    the default 96 bins, bin 15 of a 30-bin record with t0_offset = 0.33."""
    targets = (TargetSpec("sinusoid", 0.48, 1.0, amplitude_bins=amplitude_bins,
                          freq_hz=freq_hz),) + tuple(extra_targets)
    return SceneSpec(duration_s=duration_s, fps=fps, n_bins=n_bins,
                     bin_spacing=0.01, targets=targets, noise_sigma=noise_sigma,
                     t0_offset=t0_offset, pulse_sigma_bins=3.0, pulse_carrier_bins=6.0)


BREATHER_ROI = RangeROI(34, 62)
# The breather in a 30-bin record, narrower than the default bank's widest
# kernel (41 bins)
NARROW_SCENE = breather_scene(0.25, 0.5, n_bins=30, t0_offset=0.33)
NARROW_ROI = RangeROI(10, 20)


def displacement_p2p(r, roi=TARGET_ROI) -> float:
    d = estimate_displacement(r, roi)
    return float(d.max() - d.min())
