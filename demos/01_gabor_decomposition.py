"""Walk through the complex Gabor filter bank: kernels, decomposition of a
range profile, and the reconstruction identity.

Run from the repository root:  python demos/01_gabor_decomposition.py
"""

import numpy as np

import radarmag as rm

# The default bank uses the seven spatial wavelengths 75..4 bins with a
# bandwidth of one fifteenth of the wavelength.
bank = rm.default_bank()
print("default bank:")
for params, kernel in zip(bank.levels, bank.kernels):
    print(f"  wavelength {params.wavelength:5.1f} bins  sigma {params.sigma:5.3f}  "
          f"kernel {len(kernel)} taps  center gain {kernel[params.support_radius].real:.4f}")

# Each kernel is a Gaussian-windowed complex exponential; its argument tracks
# sub-bin displacement of whatever it responds to.
profile = np.zeros(256)
profile[128] = 1.0
pyramid = rm.decompose(profile, bank)
print("\nimpulse response check: level k equals kernel k centered on the impulse")
for params, kernel, level in zip(bank.levels, bank.kernels, pyramid.levels):
    span = slice(128 - params.support_radius, 128 + params.support_radius + 1)
    print(f"  wavelength {params.wavelength:5.1f}: max |level - kernel| = "
          f"{np.max(np.abs(level[span] - kernel)):.2e}")

# Reconstruction: convolve each level again with its own kernel, sum, and
# normalize by the aggregate squared frequency response.
rng = np.random.default_rng(0)
x = np.arange(512)
signal = sum(np.cos(2 * np.pi * x / p + q)
             for p, q in zip(rng.uniform(4, 75, 8), rng.uniform(0, 2 * np.pi, 8)))
restored = rm.reconstruct(rm.decompose(signal, bank))
err = np.linalg.norm(restored - signal) / np.linalg.norm(signal)
print(f"\nreconstruction of an in-band 8-sinusoid signal: relative L2 error {err:.2e}")

# A dyadic variant (sigma doubling per level) is available as well.
print("\ndyadic bank wavelengths:", rm.dyadic_bank(4).wavelengths)

# Banks are also loadable from config files; the magnification bank trades
# the broadband feature kernels for narrowband quasi-analytic ones.
mag_bank = rm.load_bank_config("configs/magnify_bank.cfg")
print("magnification bank wavelengths:", [f"{w:g}" for w in mag_bank.wavelengths])
