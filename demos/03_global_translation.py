"""The whole-profile (global) phase magnifier: for a periodic band-limited
profile under a common translation, scaling the per-frequency phase deviation
is exactly a magnified translation.

Run from the repository root:  python demos/03_global_translation.py
"""

import numpy as np

import radarmag as rm

rng = np.random.default_rng(3)
n, fps, duration = 64, 50.0, 4.0

# A band-limited periodic profile built from its low-frequency coefficients.
half = np.zeros(n // 2 + 1, complex)
half[1:7] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
profile = np.fft.irfft(half, n)


def shifted(delta):
    """One frame per shift (bins): the Fourier-shift theorem on the profile's half spectrum."""
    ramp = np.exp(2j * np.pi * np.arange(len(half)) * np.asarray(delta)[:, None] / n)
    return np.fft.irfft(half * ramp, n, axis=1)


# Translate it by a 1 Hz sub-bin wobble: delta(t) = 0.3 sin(2 pi t) bins.
t = np.arange(int(fps * duration)) / fps
delta = 0.3 * np.sin(2 * np.pi * 1.0 * t)
frames = shifted(delta)

alpha = 2.0
out = rm.global_magnify(frames, fps, rm.MagnifyConfig(alpha=alpha, band=rm.BandSpec(0.0, fps / 2)))

# The oracle is the same profile translated by (1 + alpha) delta(t).
oracle = shifted((1 + alpha) * delta)
print(f"profile of {n} bins, translation 0.3 sin(2 pi t) bins, alpha = {alpha:g}")
print(f"max |global_magnify - analytic shift| = {np.max(np.abs(out - oracle)):.2e}")

# alpha = 0 and zero displacement are both identities.
same = rm.global_magnify(frames, fps, rm.MagnifyConfig(alpha=0.0, band=rm.BandSpec(0.0, fps / 2)))
print(f"alpha=0 deviation: {np.max(np.abs(same - frames)):.2e}")

static = np.tile(profile, (len(t), 1))
unchanged = rm.global_magnify(static, fps, rm.MagnifyConfig(alpha=25.0, band=rm.BandSpec(0.0, fps / 2)))
print(f"no-motion deviation at alpha=25: {np.max(np.abs(unchanged - static)):.2e}")
