"""Motion magnification: per-level temporal phase filtering and amplification
over a radargram, plus the global FFT phase magnifier for pure translations.

The per-level pipeline runs inside one analysis/synthesis loop over the
Gabor bank (gabor.map_levels): for each level it unwraps every bin's
coefficient phase along slow time, gates it by amplitude, bandpasses it
around the motion frequency, scales the result by alpha and rotates the
coefficients by the scaled phase, then adds the level into the synthesis
before forming the next.  The phase operation runs on row blocks of a
level, on a thread pool when a level holds more than one block.  Output
displacement corresponds to (1 + alpha) times the input displacement;
alpha in [-1, 0) attenuates and alpha = -1 removes in-band motion entirely.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy import fft as sfft
from scipy.ndimage import gaussian_filter1d

# decompose is not called here; it stays bound in this module because the
# benchmark self-test (perfbench/selftest.py) checks its tracing wrapper here.
from .gabor import GaborBank, decompose, map_levels  # noqa: F401
from .radargram import Radargram, WindowSpec, windows

# Filtered phase is zeroed at coefficients below this fraction of the level's
# peak amplitude.
AMPLITUDE_MASK_RATIO = 1e-8
# The raw unwrapped phase is gated, before filtering, by a temporally
# smoothed mask of coefficients at or above this fraction of the level's
# peak, so bins that are empty for part of the record cannot leak broadband
# phase noise into the passband.
PHASE_GATE_RATIO = 1e-3
# Temporal smoothing sigma (seconds) of the phase gate's amplitude mask.
GATE_SMOOTH_S = 0.05
# Coefficients per row block of the phase operation (43 rows at 6000
# frames): a block's temporaries stay a few MB while the per-call overhead
# of its steps stays small.
BLOCK_ELEMENTS = 2**18


@dataclass(frozen=True)
class BandSpec:
    """Temporal passband [f_lo, f_hi] in Hz (slow time)."""

    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not 0 <= self.f_lo < self.f_hi:
            raise ValueError(f"need 0 <= f_lo < f_hi, got [{self.f_lo}, {self.f_hi}]")

    def validate(self, fps: float) -> None:
        if self.f_hi > fps / 2 + 1e-12:
            raise ValueError(f"band [{self.f_lo}, {self.f_hi}] Hz exceeds Nyquist {fps / 2} Hz")

    def bins(self, freqs: np.ndarray) -> slice:
        """The run of ascending freqs inside [f_lo, f_hi]; ValueError if it is empty."""
        lo, hi = np.searchsorted(freqs, self.f_lo, "left"), np.searchsorted(freqs, self.f_hi, "right")
        if lo == hi:
            raise ValueError(f"band [{self.f_lo}, {self.f_hi}] Hz contains no DFT bins")
        return slice(lo, hi)

    def dct_bins(self, n: int, fps: float) -> slice:
        """bins() of the DCT-II of n samples, whose bin k lies at k * fps / (2n)."""
        return self.bins(np.fft.rfftfreq(2 * n, 1.0 / fps)[:n])


@dataclass(frozen=True)
class MagnifyConfig:
    """Amplification settings: alpha scales the phase bandpassed to band (alpha >= -1)."""

    alpha: float
    band: BandSpec

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= -1):
            raise ValueError(f"alpha must be finite and >= -1, got {self.alpha}")


def unwrap_phase(series: np.ndarray) -> np.ndarray:
    """Unwrap radians along the last axis.

    Successive differences are mapped into (-pi, pi] by adding multiples of
    2*pi; the first sample is unchanged.
    """
    p = np.asarray(series, dtype=np.float64)
    if not np.isfinite(p).all():
        raise ValueError("phase series contains non-finite samples")
    out = np.empty_like(p)
    first = p[..., :1]
    d = out[..., 1:]
    np.subtract(p[..., 1:], p[..., :-1], out=d)
    wraps = d - np.pi
    wraps /= 2.0 * np.pi
    np.ceil(wraps, out=wraps)
    wraps *= 2.0 * np.pi
    d -= wraps
    del wraps
    np.cumsum(d, axis=-1, out=d)
    d += first
    out[..., :1] = first
    return out


def dct_bandpass(series: np.ndarray, fps: float, band: BandSpec, axis: int = -1) -> np.ndarray:
    """Ideal bandpass of the even (mirrored) extension of the series.

    The mirror removes the periodic wrap discontinuity of a plain DFT
    filter, which otherwise turns phase ramps (e.g. a target crossing bins)
    into broadband in-band leakage.  Filtering the extension [x, flip(x)]
    and keeping its first half is exactly masking the DCT-II of x
    (Martucci, IEEE TSP 1994): DCT bin k, at frequency k * fps / (2n), is
    kept when it lies in [f_lo, f_hi].
    """
    x = np.asarray(series, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("series contains non-finite samples")
    band.validate(fps)
    n = x.shape[axis]
    keep = np.zeros(n)
    keep[band.dct_bins(n, fps)] = 1.0
    shape = [1] * x.ndim
    shape[axis % x.ndim] = -1
    coefficients = sfft.dct(x, type=2, axis=axis, workers=-1)
    coefficients *= keep.reshape(shape)
    return sfft.idct(coefficients, type=2, axis=axis, overwrite_x=True, workers=-1)


def _gate_phase(phase: np.ndarray, above: np.ndarray, sigma: float) -> None:
    """phase *= gaussian_filter1d(above, sigma) along frames, in place.

    Only rows where the amplitude gate is mixed are filtered; a row that
    is entirely above the threshold takes the filter's response to a row
    of ones and a row entirely below it is zeroed, which is the same
    product the full filter gives.
    """
    full = above.all(axis=1)
    mixed = above.any(axis=1) & ~full
    phase[~(full | mixed)] = 0.0
    if full.any():
        ones = np.ones((1, phase.shape[1]))
        phase[full] *= gaussian_filter1d(ones, sigma, axis=1, mode="nearest")
    if mixed.any():
        gate = above[mixed].astype(np.float64)
        phase[mixed] *= gaussian_filter1d(gate, sigma, axis=1, mode="nearest")


@cache
def _pool() -> ThreadPoolExecutor:
    """The module's thread pool, sized to the CPUs this process may use."""
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:
        workers = os.cpu_count() or 1
    return ThreadPoolExecutor(workers, thread_name_prefix="radarmag")


if hasattr(os, "register_at_fork"):
    # a forked child has none of the pool's threads; it makes its own
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _map_blocks(fn, starts: range) -> list:
    """[fn(start) for start in starts], on the thread pool when there is more
    than one block; a single block runs inline and starts no thread."""
    if len(starts) <= 1:
        return [fn(start) for start in starts]
    return list(_pool().map(fn, starts))


def _rotate_rows(level: np.ndarray, rows: np.ndarray, peak: float, fps: float,
                 cfg: MagnifyConfig) -> None:
    """Rotate the given rows of a level in place by alpha times their filtered
    phase, gated and masked against the level's peak amplitude."""
    block = level[rows]
    phase = unwrap_phase(np.angle(block))
    amplitude = np.abs(block)
    if peak > 0:
        _gate_phase(phase, amplitude >= PHASE_GATE_RATIO * peak, GATE_SMOOTH_S * fps)
    filtered = dct_bandpass(phase, fps, cfg.band, axis=1)
    del phase
    filtered[amplitude < AMPLITUDE_MASK_RATIO * peak] = 0.0
    del amplitude
    filtered *= cfg.alpha
    rotation = np.empty_like(block)
    np.cos(filtered, out=rotation.real)
    np.sin(filtered, out=rotation.imag)
    del filtered
    block *= rotation
    level[rows] = block


def _rotate_level(level: np.ndarray, fps: float, cfg: MagnifyConfig) -> None:
    """Rotate one level (bins x frames) in place by alpha times its filtered phase.

    Every step runs along frames, row by row, except the level's peak
    amplitude, which one pass over row blocks takes first.  A row whose
    peak lies below the phase gate has its phase zeroed, hence rotates by
    exactly 1, and is left untouched; the other rows are rotated in blocks
    of about BLOCK_ELEMENTS coefficients on the module's thread pool.  The
    result does not depend on the block size or the number of threads.
    """
    step = max(1, BLOCK_ELEMENTS // level.shape[1])
    row_peak = np.concatenate(_map_blocks(
        lambda lo: np.abs(level[lo : lo + step]).max(axis=1), range(0, level.shape[0], step)))
    peak = row_peak.max()
    # ~(<) rather than >=, so that a NaN row is kept and unwrap_phase rejects it
    live = np.flatnonzero(~(row_peak < PHASE_GATE_RATIO * peak))
    _map_blocks(lambda lo: _rotate_rows(level, live[lo : lo + step], peak, fps, cfg),
                range(0, len(live), step))


def magnify(r: Radargram, bank: GaborBank, cfg: MagnifyConfig) -> Radargram:
    """Magnify in-band motion of a radargram by (1 + alpha).

    Streams the bank one level at a time through gabor.map_levels, so only
    one level is held in memory.  With alpha = 0 every coefficient is
    multiplied by exactly 1 and the output equals
    reconstruct(decompose(data)) bit for bit: both run the same synthesis.
    A non-finite rotated coefficient is a ValueError naming its level.
    """
    if r.n_frames < 4:
        raise ValueError(f"need at least 4 frames, got {r.n_frames}")
    cfg.band.validate(r.fps)

    def rotate(k: int, level: np.ndarray) -> None:
        _rotate_level(level, r.fps, cfg)
        if not np.isfinite(level).all():
            bad = np.argwhere(~np.isfinite(level))[0]
            raise ValueError(
                f"non-finite coefficient at level {k} (wavelength {bank.levels[k].wavelength}), "
                f"bin {bad[0]}, frame {bad[1]}")

    return r.with_data(map_levels(r.data, bank, rotate))


def magnify_windowed(r: Radargram, bank: GaborBank, cfg: MagnifyConfig,
                     wspec: WindowSpec) -> Radargram:
    """Window-at-a-time magnification for long records.

    Windows are cut by radargram.windows, plus one window ending at the last
    frame when those stop short of it.  Each window is magnified on its own
    and window i keeps frames [start_i + margin, start_{i+1} + margin), the
    centre of the window (overlap-discard stitching), which keeps filter edge
    transients out of the result; the first window keeps from frame 0 and
    the last one up to the end of the record.
    """
    length, shift = wspec.frames(r.fps)
    if r.n_frames < length:
        return magnify(r, bank, cfg)
    cut = windows(r, wspec)
    if cut[-1][0] + length < r.n_frames:
        cut.append((r.n_frames - length, r.with_data(r.data[:, -length:])))
    margin = (length - shift) // 2
    bounds = [0] + [start + margin for start, _ in cut[1:]] + [r.n_frames]
    out = np.empty_like(r.data)
    for (start, window), lo, hi in zip(cut, bounds, bounds[1:]):
        out[:, lo:hi] = magnify(window, bank, cfg).data[:, lo - start : hi - start]
    return r.with_data(out)


def global_magnify(frames: np.ndarray, fps: float, cfg: MagnifyConfig) -> np.ndarray:
    """Magnify a global translation via the whole-profile DFT phase.

    frames: real profiles stacked along axis 0 (n_frames x n_bins), assumed
    to be a periodic signal under a common translation.  Per frequency, the
    phase relative to frame 0 is bandpassed over time and scaled by alpha;
    conjugate symmetry is enforced by the real FFT, so the output is real.
    Exact (to roundoff) for band-limited periodic profiles under sub-period
    global shifts.
    """
    stack = np.asarray(frames, dtype=np.float64)
    if stack.ndim != 2:
        raise ValueError(f"expected frames stacked as 2-D (n_frames x n_bins), got {stack.shape}")
    if not np.isfinite(stack).all():
        raise ValueError("frames contain non-finite samples")
    cfg.band.validate(fps)
    spectra = sfft.rfft(stack, axis=1, workers=-1)
    reference = spectra[0]
    relative = spectra * np.conj(reference)[None, :]
    delta_phase = np.angle(relative)
    weak = np.abs(spectra) < 1e-12 * np.abs(spectra).max()
    delta_phase[weak] = 0.0
    delta_phase[:, np.abs(reference) < 1e-12 * np.abs(reference).max()] = 0.0
    filtered = dct_bandpass(delta_phase, fps, cfg.band, axis=0)
    shifted = spectra * np.exp(1j * cfg.alpha * filtered)
    return sfft.irfft(shifted, stack.shape[1], axis=1, workers=-1)
