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

Analysis and synthesis act on each frame (column) alone, so both run in
column blocks of about COLUMN_ELEMENTS coefficients on the module's thread
pool: each block's passes stay in cache, and no array with a transform's
worth of rows spans the record.  There is one analysis, _analyse:
decompose asks it for every level at once and map_levels for one level at
a time.  Each column block transforms its own columns of the signal once
for the levels asked, so no spectrum of the whole signal is held.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np

from .radargram import FormatError, config_number, naming, read_config

DEFAULT_WAVELENGTHS = (75.0, 15.0, 10.0, 9.0, 7.0, 5.0, 4.0)
DEFAULT_BANDWIDTH_DIVISOR = 15.0

RESPONSE_FLOOR_RATIO = 1e-6

# Below about 0.03 bins a kernel samples to one bin anyway, and below about
# 1e-77 its 1/sigma**2 gain overflows the squared synthesis response.
MIN_SIGMA = 1e-3

# Coefficients per column block of the analysis and the synthesis (89
# frames at a 729-point transform): a block's transform scratch is 1 MiB,
# so its passes run in cache.
COLUMN_ELEMENTS = 2**16


def _cpus() -> int:
    """The number of CPUs this process may use."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@cache
def _pool() -> ThreadPoolExecutor:
    """The package's thread pool, one thread per CPU this process may use."""
    return ThreadPoolExecutor(_cpus(), thread_name_prefix="radarmag")


if hasattr(os, "register_at_fork"):
    # a forked child has none of the pool's threads; it makes its own
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _map_blocks(fn, starts: range) -> list:
    """[fn(start) for start in starts], on the thread pool when there is more
    than one block; a single block runs inline and starts no thread.  Only
    the calling thread maps: fn never waits on the pool itself, and runs
    scipy's FFTs without workers, so there is one layer of threads."""
    if len(starts) <= 1:
        return [fn(start) for start in starts]
    return list(_pool().map(fn, starts))


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
        from scipy import fft as sfft

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
        from scipy import fft as sfft

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
    with naming(path):   # e.g. a sigma of 1e17 bins cannot be sampled
        return make_bank(wavelengths, sigmas=sigmas,
                         bandwidth_divisor=DEFAULT_BANDWIDTH_DIVISOR if divisor is None else divisor)


def _analysis_input(signal: np.ndarray, bank: GaborBank):
    """The validated float64 signal and the bank's responses at its
    transform length."""
    # scipy.fft, and the scipy.ndimage that magnify's phase gate filters
    # with, load here, on the calling thread, so a pool task only re-reads
    # them; and at a process's first analysis, so their long-lived
    # allocations do not land among the buffers of a magnify run.  Loaded
    # in the middle of one, they raised the peak RSS of repeated 512 x 6000
    # magnify calls from 223 to 247 MB in some processes.  scipy.ndimage
    # serves only magnify's gate, but moving it into magnify brought that
    # peak back, so a process that only extracts features loads it too.
    import scipy.fft  # noqa: F401
    import scipy.ndimage  # noqa: F401

    x = np.asarray(signal, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected 1-D profile or 2-D radargram matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("signal contains non-finite samples")
    if x.shape[0] == 0:
        raise ValueError("signal has no samples")
    with _transform_memory(bank, x.shape[0]):
        psis = bank.freq_responses(bank.transform_length(x.shape[0]))
    return x, psis


@contextmanager
def _transform_memory(bank: GaborBank, n: int):
    """Turn a MemoryError from an allocation that grows with the transform
    of n-sample profiles into a ValueError naming the widest level and the
    transform length."""
    try:
        yield
    except MemoryError:
        widest = max(bank.levels, key=lambda p: p.support_radius)
        raise ValueError(
            f"out of memory: the level of wavelength {widest.wavelength} and sigma {widest.sigma} "
            f"(radius {widest.support_radius} bins) needs a {bank.transform_length(n)}-point "
            f"transform of {n}-sample profiles") from None


def _as_columns(a: np.ndarray) -> np.ndarray:
    """A 2-D view of a's columns: a 1-D profile is one column."""
    return a.reshape(a.shape[0], -1)


def _column_blocks(m: int, width: int) -> list:
    """Slices cutting width columns into blocks of about COLUMN_ELEMENTS
    coefficients at transform length m."""
    step = max(1, COLUMN_ELEMENTS // m)
    return [slice(start, min(start + step, width)) for start in range(0, width, step)]


def _analyse(x: np.ndarray, bank: GaborBank, psis: np.ndarray, levels) -> None:
    """Write the level of the signal x through each of psis, responses of
    the bank at x's transform length m, into the matching n-row array of
    levels, shaped like x.

    Each column block runs on the thread pool through one m-row complex
    scratch.  Its first m * c float64 slots take the block's c columns,
    zero-padded by hand (which transforms faster than rfft(block, n=m)), and
    their half spectrum is taken once.  Per level, the level's spectrum is
    formed in the scratch, the full spectrum of the real signal rebuilt from
    its half as the product is formed, and its inverse keeps rows [:n].  So
    no spectrum of the whole signal is held.
    """
    from scipy import fft as sfft

    n, m = x.shape[0], psis.shape[1]
    h = m // 2 + 1
    signal_columns, outs = _as_columns(x), [_as_columns(level) for level in levels]

    def analyse(cols: slice) -> None:
        c = cols.stop - cols.start
        scratch = np.empty((m, c), dtype=np.complex128)
        padded = scratch.reshape(-1).view(np.float64)[: m * c].reshape(m, c)
        padded[:n] = signal_columns[:, cols]
        padded[n:] = 0.0
        half = sfft.rfft(padded, axis=0)
        for psi, out in zip(psis, outs):
            np.multiply(half, psi[:h, None], out=scratch[:h])
            tail = np.conjugate(half[m - h : 0 : -1], out=scratch[h:])
            tail *= psi[h:, None]
            out[:, cols] = sfft.ifft(scratch, axis=0, overwrite_x=True)[:n]

    with _transform_memory(bank, n):
        _map_blocks(analyse, _column_blocks(m, signal_columns.shape[1]))


def _analysed_levels(x: np.ndarray, bank: GaborBank, psis: np.ndarray, op):
    """Yield every level of the signal x, after op(k, level) has modified
    level k in place.

    One n-row level array is reused for every level, formed by _analyse
    one level at a time, so the generator holds the level, and x, until its
    last level has been taken.
    """
    level = np.empty(x.shape, dtype=np.complex128)
    for k in range(len(psis)):
        _analyse(x, bank, psis[k : k + 1], (level,))
        op(k, level)
        yield level


def _synthesize(bank: GaborBank, psis: np.ndarray, n: int, frames: tuple, levels) -> np.ndarray:
    """Collapse levels, an iterable of n-row arrays shaped (n,) + frames,
    back to an n-row real signal through psis, the bank's responses at the
    transform length of n samples.

    Each level is zero-padded, transformed, filtered again by its own
    kernel, and added together with its conjugate mirror, so the sum is the
    half spectrum of a real signal.  It is divided once by the symmetrized
    aggregate response N + N(-xi), floored at RESPONSE_FLOOR_RATIO of its
    maximum so uncovered frequencies are attenuated instead of amplified.
    Both steps run per column block on the thread pool: a level's block
    goes through an m-row scratch of its own, and each block's inverse is
    written straight into the n-row output.  The half spectrum is held
    block-major, one contiguous slab of its rows by the block's columns
    per column block, so a block's accumulate and inverse run on memory of
    their own rather than on strided columns of one array.  The slabs are
    allocated before the first level is taken, and a bank whose transform
    they cannot hold is a ValueError naming the widest level.  The last
    level is let go before the inverse, so an iterable that alone holds
    its levels has freed them by then.
    """
    from scipy import fft as sfft

    m = psis.shape[1]
    h = m // 2 + 1
    width = math.prod(frames)
    blocks = _column_blocks(m, width)
    with _transform_memory(bank, n):
        acc = [np.zeros((h, cols.stop - cols.start), dtype=np.complex128) for cols in blocks]
    for k, level in enumerate(levels):
        columns, psi = _as_columns(level), psis[k, :, None]

        def add(b: int) -> None:
            block = columns[:, blocks[b]]
            buf = np.empty((m, block.shape[1]), dtype=np.complex128)
            buf[:n] = block
            buf[n:] = 0.0
            buf = sfft.fft(buf, axis=0, overwrite_x=True)
            buf *= psi
            spectrum = acc[b]
            spectrum += buf[:h]
            spectrum[0] += np.conj(buf[0])
            # value at -xi lives at index (m - j) % m
            mirror = buf[m - h + 1 :]
            spectrum[1:] += np.conjugate(mirror, out=mirror)[::-1]

        _map_blocks(add, range(len(blocks)))
    del level, columns   # the last level goes before the output is allocated
    response = np.sum(np.abs(psis) ** 2, axis=0)
    response = response + np.roll(response[::-1], 1)
    floor = RESPONSE_FLOOR_RATIO * response.max()
    gain = np.maximum(response[:h], floor)[:, None]
    out = np.empty((n,) + frames)
    out_columns = _as_columns(out)

    def invert(b: int) -> None:
        spectrum = acc[b]
        spectrum /= gain
        out_columns[:, blocks[b]] = sfft.irfft(spectrum, m, axis=0)[:n]

    _map_blocks(invert, range(len(blocks)))
    return out


def decompose(signal: np.ndarray, bank: GaborBank) -> Pyramid:
    """Convolve a profile (1-D) or radargram matrix (bins x frames) with every kernel.

    Returns the same-size central part of the linear convolution.  It runs
    in the frequency domain and matches direct convolution to ~1e-13.  The
    levels are formed by the analysis map_levels runs, in column blocks on
    the thread pool, each block transforming its columns once for every
    level; they are views of one (levels, n) + frames array.
    """
    x, psis = _analysis_input(signal, bank)
    levels = np.empty((len(psis),) + x.shape, dtype=np.complex128)
    _analyse(x, bank, psis, levels)
    return Pyramid(levels=tuple(levels), bank=bank)


def map_levels(signal: np.ndarray, bank: GaborBank, op) -> np.ndarray:
    """Analyse, modify and resynthesize a signal one pyramid level at a time.

    For each level k, op(k, level) receives the complex coefficients
    (shaped like the signal) and modifies them in place; it runs on the
    calling thread.  Each level is formed, column block by column block on
    the thread pool, from the signal itself into one n-row level array, and
    added into the synthesis half spectrum before the next one is formed.
    So besides the signal, only one level and the synthesis spectrum are
    held at once, and only the synthesis spectrum and the output at the
    final inverse.  An op that leaves its level unchanged returns exactly
    reconstruct(decompose(signal, bank)).
    """
    x, psis = _analysis_input(signal, bank)
    return _synthesize(bank, psis, x.shape[0], x.shape[1:], _analysed_levels(x, bank, psis, op))


def decompose_direct(signal: np.ndarray, bank: GaborBank) -> Pyramid:
    """Reference decomposition via direct spatial convolution (oracle path).

    Real and imaginary kernel parts are convolved separately along the bin
    axis, with zero padding as in decompose.
    """
    from scipy import ndimage

    x = np.asarray(signal, dtype=np.float64)
    levels = []
    for ker in bank.kernels:
        real = ndimage.convolve1d(x, ker.real, axis=0, mode="constant", cval=0.0)
        imag = ndimage.convolve1d(x, ker.imag, axis=0, mode="constant", cval=0.0)
        levels.append(real + 1j * imag)
    return Pyramid(levels=tuple(levels), bank=bank)


def reconstruct(pyr: Pyramid) -> np.ndarray:
    """Collapse a pyramid back to a real profile or radargram matrix through
    the bank that built it, by the synthesis map_levels runs."""
    n = pyr.levels[0].shape[0]
    psis = pyr.bank.freq_responses(pyr.bank.transform_length(n))
    return _synthesize(pyr.bank, psis, n, pyr.levels[0].shape[1:], pyr.levels)
