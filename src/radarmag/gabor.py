"""Complex Gabor wavelet bank: decomposition of range profiles into a
multi-wavelength pyramid and reconstruction through the squared frequency
response of each kernel.

Each kernel is a Gaussian-windowed complex exponential sampled at integer
range-bin offsets,

    g(x) = 1 / (sqrt(2*pi) * sigma^2) * exp(-x^2 / (2*sigma^2)) * exp(i*omega*x)

with omega = 2*pi / wavelength.  Convolving a profile with g (linear
convolution: the profile is zero-padded, and the same-size central part is
kept) yields complex coefficients whose argument tracks local sub-bin
displacement.  Summing the levels after convolving each one again with its
own kernel concentrates every level's net response into a non-negative
|Psi|^2, and dividing by the aggregate response in the frequency domain
restores unit gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft
from scipy import ndimage

from .radargram import FormatError, config_number, read_config

DEFAULT_WAVELENGTHS = (75.0, 15.0, 10.0, 9.0, 7.0, 5.0, 4.0)
DEFAULT_BANDWIDTH_DIVISOR = 15.0

RESPONSE_FLOOR_RATIO = 1e-6

# Below about 0.03 bins a kernel samples to one bin anyway, and below about
# 1e-77 its 1/sigma**2 gain overflows the squared synthesis response.
MIN_SIGMA = 1e-3


@dataclass(frozen=True)
class GaborParams:
    """One kernel: carrier wavelength and envelope sigma (both in bins)."""

    wavelength: float
    sigma: float

    def __post_init__(self):
        if not self.wavelength > 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if not (self.sigma >= MIN_SIGMA and math.isfinite(4 * self.sigma)):
            raise ValueError(f"sigma must be at least {MIN_SIGMA} bins with 4*sigma finite, got {self.sigma}")

    @property
    def omega(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @property
    def support_radius(self) -> int:
        """Truncation radius in bins: the kernel is sampled out to 4 sigma."""
        return math.ceil(4 * self.sigma)


def make_gabor(p: GaborParams) -> np.ndarray:
    """Sample the complex Gabor kernel at x in [-support_radius, +support_radius]."""
    x = np.arange(-p.support_radius, p.support_radius + 1, dtype=np.float64)
    envelope = np.exp(-(x**2) / (2.0 * p.sigma**2)) / (np.sqrt(2.0 * np.pi) * p.sigma**2)
    return envelope * np.exp(1j * p.omega * x)


class GaborBank:
    """Ordered set of complex Gabor kernels, longest wavelength first.

    Kernels and cached frequency responses are immutable after construction;
    a bank can be shared freely across threads.
    """

    def __init__(self, levels: list[GaborParams]):
        if len(levels) == 0:
            raise ValueError("bank needs at least one level")
        wl = [p.wavelength for p in levels]
        if any(b >= a for a, b in zip(wl, wl[1:])):
            raise ValueError(f"wavelengths must be strictly decreasing, got {wl}")
        self.levels = tuple(levels)
        self.kernels = tuple(make_gabor(p) for p in levels)
        self._responses: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def wavelengths(self) -> tuple[float, ...]:
        return tuple(p.wavelength for p in self.levels)

    @property
    def sigmas(self) -> tuple[float, ...]:
        return tuple(p.sigma for p in self.levels)

    @property
    def max_radius(self) -> int:
        return max(p.support_radius for p in self.levels)

    def freq_responses(self, m: int) -> np.ndarray:
        """Per-level DFT responses Psi at transform length m, kernel centered at index 0."""
        cached = self._responses.get(m)
        if cached is not None:
            return cached
        if m < 2 * self.max_radius + 1:
            raise ValueError(f"transform length {m} shorter than kernel support {2 * self.max_radius + 1}")
        psis = np.empty((len(self.levels), m), dtype=np.complex128)
        for i, (p, ker) in enumerate(zip(self.levels, self.kernels)):
            buf = np.zeros(m, dtype=np.complex128)
            buf[: p.support_radius + 1] = ker[p.support_radius :]
            buf[m - p.support_radius :] = ker[: p.support_radius]
            psis[i] = sfft.fft(buf)
        psis.setflags(write=False)
        self._responses[m] = psis
        return psis

    def transform_length(self, n: int) -> int:
        """Zero-padded length for n samples: no kernel wraps around the signal."""
        # 5-smooth lengths only: radix-7/11 passes are slow (a 726 = 2*3*11^2
        # point transform takes about twice as long as a 729 = 3^6 one)
        return sfft.next_fast_len(n + 2 * self.max_radius, real=True)


@dataclass(frozen=True, eq=False)
class Pyramid:
    """Per-level complex coefficients aligned to the decomposed signal.

    levels holds one complex array per bank level, all of one shape: vectors
    for a single profile, [n_bins x n_frames] matrices for a radargram.
    """

    levels: tuple[np.ndarray, ...]
    bank: GaborBank

    def __post_init__(self):
        if len(self.levels) != len(self.bank):
            raise ValueError(f"{len(self.levels)} levels for a {len(self.bank)}-level bank")
        if len({lev.shape for lev in self.levels}) != 1:
            raise ValueError(f"level shapes {[lev.shape for lev in self.levels]} differ")


def make_bank(wavelengths=DEFAULT_WAVELENGTHS, bandwidth_divisor=DEFAULT_BANDWIDTH_DIVISOR,
              sigmas=None) -> GaborBank:
    """Build a bank from wavelengths with sigma = wavelength / bandwidth_divisor.

    Pass sigmas to override the divisor rule per level.  The divisor must be
    positive and finite either way.
    """
    wavelengths = [float(w) for w in wavelengths]
    if not (bandwidth_divisor > 0 and math.isfinite(bandwidth_divisor)):
        raise ValueError(f"bandwidth_divisor must be positive and finite, got {bandwidth_divisor}")
    if sigmas is None:
        sigmas = [w / bandwidth_divisor for w in wavelengths]
    elif len(sigmas) != len(wavelengths):
        raise ValueError("sigmas must match wavelengths")
    pairs = sorted(zip(wavelengths, sigmas), key=lambda p: -p[0])
    return GaborBank([GaborParams(w, float(s)) for w, s in pairs])


def default_bank() -> GaborBank:
    """The seven-wavelength bank {75, 15, 10, 9, 7, 5, 4} with sigma = wavelength/15."""
    return make_bank(DEFAULT_WAVELENGTHS)


def dyadic_bank(n_levels: int) -> GaborBank:
    """Octave-spaced bank from 4 bins up: wavelengths (and sigmas) double per level."""
    if n_levels < 1:
        raise ValueError("need at least one level")
    return make_bank([4.0 * 2.0**k for k in range(n_levels)])


def load_bank_config(path: str) -> GaborBank:
    """Build a bank from a key=value config file.

    Keys: ``wavelengths`` (comma list) and ``bandwidth_divisor``; or
    explicit ``level = wavelength:sigma`` lines, the one repeatable key,
    which exclude both.
    """
    wavelengths = divisor = None
    levels = []
    for lineno, key, value in read_config(path, repeatable=("level",)):
        if key == "wavelengths":
            wavelengths = [config_number(path, lineno, key, v) for v in value.split(",")]
        elif key == "level":
            wl, _, sig = value.partition(":")
            levels.append((config_number(path, lineno, key, wl),
                           config_number(path, lineno, key, sig)))
        elif key == "bandwidth_divisor":
            divisor = config_number(path, lineno, key, value)
        else:
            raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
    sigmas = None
    if levels:
        if wavelengths is not None or divisor is not None:
            raise FormatError(f"{path}: 'level' entries exclude 'wavelengths' and 'bandwidth_divisor'")
        wavelengths, sigmas = [w for w, _ in levels], [s for _, s in levels]
    elif wavelengths is None:
        raise FormatError(f"{path}: config must define 'wavelengths' or 'level' entries")
    try:
        return make_bank(wavelengths, sigmas=sigmas,
                         bandwidth_divisor=DEFAULT_BANDWIDTH_DIVISOR if divisor is None else divisor)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _analysis_input(signal: np.ndarray, bank: GaborBank):
    """Validated float64 signal, its Hermitian half spectrum, and the bank's
    responses at its transform length."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected 1-D profile or 2-D radargram matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("signal contains non-finite samples")
    if x.shape[0] == 0:
        raise ValueError("signal has no samples")
    psis = bank.freq_responses(bank.transform_length(x.shape[0]))
    return x, sfft.rfft(x, n=psis.shape[1], axis=0, workers=-1), psis


def _column(v: np.ndarray, ndim: int) -> np.ndarray:
    """A per-frequency vector shaped to broadcast along axis 0 of an ndim array."""
    return v.reshape((-1,) + (1,) * (ndim - 1))


def _analyze_level(half: np.ndarray, psi: np.ndarray, buf: np.ndarray) -> None:
    """Write one level into buf (m rows; the level is rows [:n]) in place.

    The full spectrum of the real signal is rebuilt from its half as the
    product is formed, so no full-length copy of the input spectrum exists.
    """
    m, h = buf.shape[0], half.shape[0]
    np.multiply(half, _column(psi[:h], buf.ndim), out=buf[:h])
    tail = buf[h:]
    np.conjugate(half[m - h : 0 : -1], out=tail)
    tail *= _column(psi[h:], buf.ndim)
    sfft.ifft(buf, axis=0, overwrite_x=True, workers=-1)


def _synthesize(psis: np.ndarray, n: int, frames: tuple, fill) -> np.ndarray:
    """Collapse the levels that fill(k, buf) writes into rows [:n] of an
    m-row buffer back to an n-row real signal.

    Each level is zero-padded, transformed, filtered again by its own
    kernel, and added together with its conjugate mirror, so the sum is the
    half spectrum of a real signal.  It is divided once by the symmetrized
    aggregate response N + N(-xi), floored at RESPONSE_FLOOR_RATIO of its
    maximum so uncovered frequencies are attenuated instead of amplified.
    """
    m = psis.shape[1]
    h = m // 2 + 1
    acc = np.zeros((h,) + frames, dtype=np.complex128)
    buf = np.empty((m,) + frames, dtype=np.complex128)
    for k, psi in enumerate(psis):
        fill(k, buf)
        buf[n:] = 0.0
        sfft.fft(buf, axis=0, overwrite_x=True, workers=-1)
        buf *= _column(psi, buf.ndim)
        acc += buf[:h]
        acc[0] += np.conj(buf[0])
        # value at -xi lives at index (m - j) % m
        mirror = buf[m - h + 1 :]
        acc[1:] += np.conjugate(mirror, out=mirror)[::-1]
    response = np.sum(np.abs(psis) ** 2, axis=0)
    response = response + np.roll(response[::-1], 1)
    floor = RESPONSE_FLOOR_RATIO * response.max()
    acc /= _column(np.maximum(response[:h], floor), acc.ndim)
    out = sfft.irfft(acc, m, axis=0, overwrite_x=True, workers=-1)
    return out[:n].copy()


def decompose(signal: np.ndarray, bank: GaborBank) -> Pyramid:
    """Convolve a profile (1-D) or radargram matrix (bins x frames) with every kernel.

    Returns the same-size central part of the linear convolution.  It runs
    in the frequency domain and matches direct convolution to ~1e-13.
    """
    x, half, psis = _analysis_input(signal, bank)
    n, m = x.shape[0], psis.shape[1]
    # Level k is formed in rows [k*n, k*n + m) of one buffer and keeps rows
    # [k*n, (k+1)*n); its m - n extra rows belong to later levels, which
    # are written after it.
    flat = np.empty((len(psis) * n + m - n,) + x.shape[1:], dtype=np.complex128)
    for k, psi in enumerate(psis):
        _analyze_level(half, psi, flat[k * n : k * n + m])
    return Pyramid(levels=tuple(flat[k * n : (k + 1) * n] for k in range(len(psis))), bank=bank)


def map_levels(signal: np.ndarray, bank: GaborBank, op) -> np.ndarray:
    """Analyse, modify and resynthesize a signal one pyramid level at a time.

    For each level k, op(k, level) receives the complex coefficients
    (shaped like the signal) and modifies them in place.  This is the
    analysing fill of _synthesize: each level is added into the synthesis
    spectrum before the next one is formed, so only one level, the input
    half spectrum and the synthesis half spectrum are held at once.  An op
    that leaves its level unchanged returns exactly
    reconstruct(decompose(signal, bank)).
    """
    x, half, psis = _analysis_input(signal, bank)
    n = x.shape[0]

    def fill(k, buf):
        _analyze_level(half, psis[k], buf)
        op(k, buf[:n])

    return _synthesize(psis, n, x.shape[1:], fill)


def decompose_direct(signal: np.ndarray, bank: GaborBank) -> Pyramid:
    """Reference decomposition via direct spatial convolution (oracle path).

    Real and imaginary kernel parts are convolved separately along the bin
    axis, with zero padding as in decompose.
    """
    x = np.asarray(signal, dtype=np.float64)
    levels = []
    for ker in bank.kernels:
        real = ndimage.convolve1d(x, ker.real, axis=0, mode="constant", cval=0.0)
        imag = ndimage.convolve1d(x, ker.imag, axis=0, mode="constant", cval=0.0)
        levels.append(real + 1j * imag)
    return Pyramid(levels=tuple(levels), bank=bank)


def reconstruct(pyr: Pyramid) -> np.ndarray:
    """Collapse a pyramid back to a real profile or radargram matrix through
    the bank that built it: the copying fill of _synthesize."""
    n = pyr.levels[0].shape[0]
    psis = pyr.bank.freq_responses(pyr.bank.transform_length(n))

    def fill(k, buf):
        buf[:n] = pyr.levels[k]

    return _synthesize(psis, n, pyr.levels[0].shape[1:], fill)
