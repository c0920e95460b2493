"""Complex Gabor wavelet bank: decomposition of range profiles into a
multi-wavelength pyramid and reconstruction through the squared frequency
response of each kernel.

Each kernel is a Gaussian-windowed complex exponential sampled at integer
range-bin offsets,

    g(x) = 1 / (sqrt(2*pi) * sigma^2) * exp(-x^2 / (2*sigma^2)) * exp(i*omega*x)

with omega = 2*pi / wavelength.  Convolving a profile with g yields complex
coefficients whose argument tracks local sub-bin displacement.  Summing the
levels after convolving each one again with its own kernel concentrates
every level's net response into a non-negative |Psi|^2, and dividing by the
aggregate response in the frequency domain restores unit gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from warnings import warn

import numpy as np
from scipy import fft as sfft
from scipy import ndimage

from .radargram import FormatError, config_number, read_config

DEFAULT_WAVELENGTHS = (75.0, 15.0, 10.0, 9.0, 7.0, 5.0, 4.0)
DEFAULT_BANDWIDTH_DIVISOR = 15.0
DEFAULT_SUPPORT_MULTIPLIER = 4.0

RESPONSE_FLOOR_RATIO = 1e-6

# Below about 0.03 bins a kernel samples to one bin anyway, and below about
# 1e-77 its 1/sigma**2 gain overflows the squared synthesis response.
MIN_SIGMA = 1e-3


@dataclass(frozen=True)
class GaborParams:
    """One kernel: carrier wavelength, envelope sigma, truncation radius (all in bins)."""

    wavelength: float
    sigma: float
    support_radius: int

    def __post_init__(self):
        if not self.wavelength > 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if not self.sigma >= MIN_SIGMA:
            raise ValueError(f"sigma must be at least {MIN_SIGMA} bins, got {self.sigma}")
        if self.support_radius < int(np.ceil(4 * self.sigma)):
            raise ValueError(
                f"support_radius {self.support_radius} below ceil(4*sigma)={int(np.ceil(4 * self.sigma))}")

    @property
    def omega(self) -> float:
        return 2.0 * np.pi / self.wavelength


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

    def transform_length(self, n: int, mode: str) -> int:
        if mode == "linear":
            # 5-smooth lengths only: radix-7/11 passes are slow (a 726 = 2*3*11^2
            # point transform takes about twice as long as a 729 = 3^6 one)
            return sfft.next_fast_len(n + 2 * self.max_radius, real=True)
        if mode == "circular":
            return n
        raise ValueError(f"unknown convolution mode {mode!r}, expected 'linear' or 'circular'")


@dataclass(frozen=True, eq=False)
class Pyramid:
    """Per-level complex coefficients aligned to the decomposed signal.

    levels holds one complex array per bank level: vectors for a single
    profile, [n_bins x n_frames] matrices for a radargram.
    """

    source_len: int
    levels: tuple[np.ndarray, ...]
    bank: GaborBank
    mode: str = "linear"

    def __post_init__(self):
        if len(self.levels) != len(self.bank):
            raise ValueError(f"{len(self.levels)} levels for a {len(self.bank)}-level bank")
        for lev in self.levels:
            if lev.shape[0] != self.source_len:
                raise ValueError(f"level shape {lev.shape} does not match source length {self.source_len}")


def make_bank(wavelengths=DEFAULT_WAVELENGTHS, bandwidth_divisor=DEFAULT_BANDWIDTH_DIVISOR,
              support_multiplier=DEFAULT_SUPPORT_MULTIPLIER, sigmas=None) -> GaborBank:
    """Build a bank from wavelengths with sigma = wavelength / bandwidth_divisor.

    Pass sigmas to override the divisor rule per level.
    """
    wl = sorted(float(w) for w in wavelengths)[::-1]
    if sigmas is None:
        sig = [w / bandwidth_divisor for w in wl]
    else:
        if len(sigmas) != len(wavelengths):
            raise ValueError("sigmas must match wavelengths")
        pairs = sorted(zip(wavelengths, sigmas), key=lambda p: -p[0])
        wl = [float(w) for w, _ in pairs]
        sig = [float(s) for _, s in pairs]
    radii = [support_multiplier * s for s in sig]
    if not np.isfinite(radii).all():
        raise ValueError(f"support radii {radii} are not finite")
    params = [GaborParams(w, s, int(np.ceil(r))) for w, s, r in zip(wl, sig, radii)]
    return GaborBank(params)


def default_bank(signal_len: int | None = None) -> GaborBank:
    """The seven-wavelength bank {75, 15, 10, 9, 7, 5, 4} with sigma = wavelength/15."""
    bank = make_bank(DEFAULT_WAVELENGTHS)
    if signal_len is not None and signal_len < 2 * max(DEFAULT_WAVELENGTHS):
        warn(f"signal length {signal_len} is below twice the longest wavelength "
             f"({max(DEFAULT_WAVELENGTHS)}); coarse levels will be poorly resolved",
             stacklevel=2)
    return bank


def dyadic_bank(n_levels: int, base_wavelength: float = 4.0,
                bandwidth_divisor: float = DEFAULT_BANDWIDTH_DIVISOR) -> GaborBank:
    """Octave-spaced bank: wavelengths (and sigmas) double per level."""
    if n_levels < 1:
        raise ValueError("need at least one level")
    wavelengths = [base_wavelength * 2.0**k for k in range(n_levels)]
    return make_bank(wavelengths, bandwidth_divisor=bandwidth_divisor)


def load_bank_config(path: str) -> GaborBank:
    """Build a bank from a key=value config file.

    Keys: ``wavelengths`` (comma list), ``bandwidth_divisor``,
    ``support_multiplier``; or explicit ``level = wavelength:sigma`` lines
    which take precedence over the divisor rule.
    """
    wavelengths = None
    levels = []
    settings = {"bandwidth_divisor": DEFAULT_BANDWIDTH_DIVISOR,
                "support_multiplier": DEFAULT_SUPPORT_MULTIPLIER}
    for lineno, key, value in read_config(path):
        if key == "wavelengths":
            wavelengths = [config_number(path, lineno, key, v) for v in value.split(",")]
        elif key == "level":
            wl, _, sig = value.partition(":")
            levels.append((config_number(path, lineno, key, wl),
                           config_number(path, lineno, key, sig)))
        elif key in settings:
            settings[key] = config_number(path, lineno, key, value)
        else:
            raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
    sigmas = None
    if levels:
        wavelengths, sigmas = [w for w, _ in levels], [s for _, s in levels]
    elif wavelengths is None:
        raise FormatError(f"{path}: config must define 'wavelengths' or 'level' entries")
    try:
        return make_bank(wavelengths, sigmas=sigmas, **settings)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _analysis_input(signal: np.ndarray, bank: GaborBank, mode: str):
    """Validated float64 signal plus its transform length and Hermitian half spectrum."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected 1-D profile or 2-D radargram matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("signal contains non-finite samples")
    n = x.shape[0]
    support = 2 * bank.max_radius + 1
    if n < support:
        raise ValueError(f"signal length {n} shorter than largest kernel support {support}")
    m = bank.transform_length(n, mode)
    return x, m, sfft.rfft(x, n=m, axis=0, workers=-1)


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


class _Synthesis:
    """Accumulates levels into the Hermitian half of the synthesis spectrum.

    Each level is zero-padded, transformed, filtered again by its own
    kernel, and added together with its conjugate mirror, so the sum is the
    half spectrum of a real signal.  result() divides once by the
    symmetrized aggregate response N + N(-xi), floored at
    RESPONSE_FLOOR_RATIO of its maximum so uncovered frequencies are
    attenuated instead of amplified.
    """

    def __init__(self, psis: np.ndarray, n: int, frames: tuple):
        self.psis, self.n = psis, n
        m = psis.shape[1]
        self.acc = np.zeros((m // 2 + 1,) + frames, dtype=np.complex128)

    def add(self, buf: np.ndarray, k: int) -> None:
        """Add level k held in rows [:n] of buf; buf is overwritten."""
        m, h = buf.shape[0], self.acc.shape[0]
        buf[self.n :] = 0.0
        sfft.fft(buf, axis=0, overwrite_x=True, workers=-1)
        buf *= _column(self.psis[k], buf.ndim)
        self.acc += buf[:h]
        self.acc[0] += np.conj(buf[0])
        # value at -xi lives at index (m - j) % m
        mirror = buf[m - h + 1 :]
        self.acc[1:] += np.conjugate(mirror, out=mirror)[::-1]

    def result(self) -> np.ndarray:
        m, h = self.psis.shape[1], self.acc.shape[0]
        response = np.sum(np.abs(self.psis) ** 2, axis=0)
        response = response + np.roll(response[::-1], 1)
        floor = RESPONSE_FLOOR_RATIO * response.max()
        self.acc /= _column(np.maximum(response[:h], floor), self.acc.ndim)
        out = sfft.irfft(self.acc, m, axis=0, overwrite_x=True, workers=-1)
        return out[: self.n].copy()


def decompose(signal: np.ndarray, bank: GaborBank, mode: str = "linear") -> Pyramid:
    """Convolve a profile (1-D) or radargram matrix (bins x frames) with every kernel.

    mode 'linear' zero-pads and returns the same-size central part of the
    linear convolution; 'circular' wraps at the signal length.  Either path
    runs in the frequency domain and matches direct convolution to ~1e-13.
    """
    x, m, half = _analysis_input(signal, bank, mode)
    n = x.shape[0]
    levels = []
    for psi in bank.freq_responses(m):
        buf = np.empty((m,) + x.shape[1:], dtype=np.complex128)
        _analyze_level(half, psi, buf)
        levels.append(buf[:n])
    return Pyramid(source_len=n, levels=tuple(levels), bank=bank, mode=mode)


def map_levels(signal: np.ndarray, bank: GaborBank, op, mode: str = "linear") -> np.ndarray:
    """Analyse, modify and resynthesize a signal one pyramid level at a time.

    For each level k, op(k, level) receives the complex coefficients
    (shaped like the signal) and modifies them in place; the level is then
    added into the synthesis spectrum before the next one is formed.  Only
    one level, the input half spectrum and the synthesis half spectrum are
    held at once.  An op that leaves its level unchanged returns exactly
    reconstruct(decompose(signal, bank, mode), bank).
    """
    x, m, half = _analysis_input(signal, bank, mode)
    n = x.shape[0]
    psis = bank.freq_responses(m)
    synthesis = _Synthesis(psis, n, x.shape[1:])
    buf = np.empty((m,) + x.shape[1:], dtype=np.complex128)
    for k, psi in enumerate(psis):
        _analyze_level(half, psi, buf)
        op(k, buf[:n])
        synthesis.add(buf, k)
    return synthesis.result()


def decompose_direct(signal: np.ndarray, bank: GaborBank, mode: str = "linear") -> Pyramid:
    """Reference decomposition via direct spatial convolution (oracle path).

    Real and imaginary kernel parts are convolved separately along the bin
    axis; boundary handling matches decompose (zero padding or wrap).
    """
    x = np.asarray(signal, dtype=np.float64)
    boundary = "constant" if mode == "linear" else "wrap"
    levels = []
    for ker in bank.kernels:
        real = ndimage.convolve1d(x, ker.real, axis=0, mode=boundary, cval=0.0)
        imag = ndimage.convolve1d(x, ker.imag, axis=0, mode=boundary, cval=0.0)
        levels.append(real + 1j * imag)
    return Pyramid(source_len=x.shape[0], levels=tuple(levels), bank=bank, mode=mode)


def reconstruct(pyr: Pyramid, bank: GaborBank) -> np.ndarray:
    """Collapse a pyramid back to a real profile or radargram matrix."""
    if pyr.bank is not bank and pyr.bank.wavelengths != bank.wavelengths:
        raise ValueError("pyramid was built by a different bank")
    if len(pyr.levels) != len(bank):
        raise ValueError(f"{len(pyr.levels)} levels for a {len(bank)}-level bank")
    n = pyr.source_len
    psis = bank.freq_responses(bank.transform_length(n, pyr.mode))
    frames = pyr.levels[0].shape[1:]
    synthesis = _Synthesis(psis, n, frames)
    buf = np.empty((psis.shape[1],) + frames, dtype=np.complex128)
    for k, level in enumerate(pyr.levels):
        buf[:n] = level
        synthesis.add(buf, k)
    return synthesis.result()
