"""Shared synthetic scenes and banks used across the test suite."""

from radarmag import (BandSpec, GaborBank, RangeROI, SceneSpec, TargetSpec,
                      estimate_displacement, make_bank)

# Acceptance scene: 45 Hz oscillator at 1 m, static reflectors at 2 m,
# constant-velocity approach from 3 m.  bin_spacing maps 1 m to bin 128.
SCENE_FPS = 200.0
SCENE_BINS = 512
SCENE_SPACING = 1.0 / 128.0
SCENE_BAND = BandSpec(40.0, 50.0)
TARGET_ROI = RangeROI(100, 156)
STATIC_SLICE = slice(246, 274)
TRACK_SLICE = slice(320, 401)


def validation_scene(amplitude_bins=0.1, duration_s=10.0, noise_sigma=0.0) -> SceneSpec:
    return SceneSpec(
        duration_s=duration_s,
        fps=SCENE_FPS,
        n_bins=SCENE_BINS,
        bin_spacing=SCENE_SPACING,
        targets=(
            TargetSpec("sinusoid", 1.0, 1.0, amplitude_bins=amplitude_bins, freq_hz=45.0),
            TargetSpec("static", 2.0, 1.0),
            TargetSpec("static", 2.046875, 0.8),
            TargetSpec("linear", 3.0, 1.0, velocity_mps=-0.0390625),
        ),
        noise_sigma=noise_sigma,
        pulse_sigma_bins=3.0,
        pulse_carrier_bins=6.0,
    )


def magnify_bank() -> GaborBank:
    """Narrowband ladder plus low-frequency coverage levels (see configs/)."""
    pairs = [(240.0, 12.0), (30.0, 12.0), (13.35, 26.70), (10.68, 21.36),
             (8.54, 17.08), (6.84, 13.68), (5.47, 10.94), (4.38, 8.76), (3.5, 7.0)]
    return make_bank([w for w, _ in pairs], sigmas=[s for _, s in pairs])


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
