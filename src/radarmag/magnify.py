"""Motion magnification: per-level temporal phase filtering and amplification
over a radargram, plus the global FFT phase magnifier for pure translations.

The per-level pipeline runs inside one analysis/synthesis loop over the
Gabor bank (gabor.map_levels): for each level it unwraps every bin's
coefficient phase along slow time, gates it by amplitude, bandpasses it
around the motion frequency, scales the result by alpha and rotates the
coefficients by the scaled phase, then adds the level into the synthesis
before forming the next.  One driver, magnify_windowed, runs every
magnification: it cuts the record into windows (a record shorter than one
window is one window clipped to it) and the windows into frame groups,
and runs one such loop per group, in which one phase operation,
_rotate_windows, rotates the group's windows of a level in place, on row
blocks and on a thread pool when there is more than one block.  magnify
is its one-window case, a window spanning the record, whose single group's
output is returned uncopied.  Output displacement corresponds to
(1 + alpha) times the input displacement; alpha in [-1, 0) attenuates
and alpha = -1 removes in-band motion entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import gabor
# decompose is not called here; it stays bound in this module because the
# benchmark self-test (perfbench/selftest.py) checks its tracing wrapper here.
from .gabor import GaborBank, _map_blocks, decompose, map_levels  # noqa: F401
from .radargram import Radargram, WindowSpec

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
# Coefficients per row block of the phase operation (21 rows at 6000
# frames): a block's temporaries stay a few MB while the per-call overhead
# of its steps stays small.
BLOCK_ELEMENTS = 2**17
# Coefficients in one level of a windowed-magnification frame group (four
# 1 s windows at a 0.5 s shift of a 512-bin, 200 fps record): the group's
# analysis and synthesis buffers stay tens of MB however long the record.
GROUP_ELEMENTS = 2**18


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
    from scipy import fft as sfft

    x = np.asarray(series, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("series contains non-finite samples")
    band.validate(fps)
    n = x.shape[axis]
    keep = np.zeros(n)
    keep[band.dct_bins(n, fps)] = 1.0
    shape = [1] * x.ndim
    shape[axis % x.ndim] = -1
    # no scipy workers: the phase op runs this on its pool's threads, one per CPU
    coefficients = sfft.dct(x, type=2, axis=axis)
    coefficients *= keep.reshape(shape)
    return sfft.idct(coefficients, type=2, axis=axis, overwrite_x=True)


@cache
def _ones_response(sigma: float) -> float:
    """gaussian_filter1d's response to a run of ones: every output sample of
    an all-ones series is this one value."""
    from scipy.ndimage import gaussian_filter1d

    return float(gaussian_filter1d(np.ones(1), sigma, mode="nearest")[0])


def _gate_phase(phase: np.ndarray, above: np.ndarray, sigma: float) -> None:
    """phase *= gaussian_filter1d(above.astype(float), sigma, axis=1,
    mode="nearest"), in place, for a C-contiguous phase (bins x frames).

    The filter reads the mask within its radius, int(4 * sigma + 0.5)
    frames, of a sample, so only the samples that lie that near a 0/1 edge
    of their row are filtered; every other sample takes exactly 0 or
    exactly the filter's response to ones (a zero may lose its sign).  The
    near samples of a row form segments, merged where they overlap or
    touch, never across rows; each is gathered with the radius of mask
    around it on both sides, from frame indices clipped to the row as mode
    "nearest" clips them, and all go through one filter call, in which a
    segment's padding keeps its neighbours out of its own samples.  So the
    product is the full filter's, bit for bit.
    """
    from scipy.ndimage import gaussian_filter1d

    n = phase.shape[1]
    radius = int(4 * sigma + 0.5)
    flat, mask = phase.reshape(-1), above.reshape(-1)
    # an edge e lies between frames e and e + 1 of its row, and frames
    # [e - radius + 1, e + radius] read both; pairs across rows are no edge
    row, e = np.divmod(np.flatnonzero(mask[1:] != mask[:-1]), n)
    in_row = e != n - 1
    edged = bool(in_row.any())
    if edged:
        row, e = row[in_row], e[in_row]
        lo, hi = np.maximum(e - (radius - 1), 0), np.minimum(e + (radius + 1), n)
        # hi grows along a row, so each segment ends at its last edge's hi
        starts = np.empty(len(e), dtype=bool)
        starts[0] = True
        np.not_equal(row[1:], row[:-1], out=starts[1:])
        starts[1:] |= lo[1:] > hi[:-1]
        first = np.flatnonzero(starts)
        last = np.empty_like(first)
        last[:-1], last[-1] = first[1:] - 1, len(e) - 1
        base, lo, hi = row[first] * n, lo[first], hi[last]
        length = hi - lo
        padded = length + 2 * radius
        inner_at = np.cumsum(length) - length
        padded_at = np.cumsum(padded) - padded
        j = np.arange(inner_at[-1] + length[-1])
        near = j + np.repeat(base + lo - inner_at, length)
        filtered_at = j + np.repeat(padded_at + radius - inner_at, length)
        frames = np.arange(padded_at[-1] + padded[-1]) + np.repeat(lo - radius - padded_at, padded)
        np.clip(frames, 0, n - 1, out=frames)
        frames += np.repeat(base, padded)
        gate = gaussian_filter1d(mask[frames].astype(np.float64), sigma, mode="nearest")
        gated = flat[near] * gate[filtered_at]
    phase *= _ones_response(sigma)
    phase[~above] = 0.0
    if edged:
        flat[near] = gated


def _phasors(angle: np.ndarray, out: np.ndarray) -> None:
    """out = exp(1j * angle) for a float64 angle, which this overwrites.

    The angle is reduced in float64 to angle - 2*pi*rint(angle / (2*pi)),
    within rounding of [-pi, pi], and its cosine and sine are taken in
    float32, many times faster than in float64: each part lies within 4e-7
    of the float64 one for |angle| up to 1e4.  Both precisions give cos
    and sin of +-0 exactly, so a zero angle gives exactly 1.
    """
    turns = angle / (2 * np.pi)
    np.rint(turns, out=turns)
    turns *= 2 * np.pi
    angle -= turns
    del turns
    reduced = angle.astype(np.float32)
    np.cos(reduced, out=out.real)
    np.sin(reduced, out=out.imag)


def _rotate_block(block: np.ndarray, peak: float, fps: float, cfg: MagnifyConfig) -> None:
    """Rotate a block of rows (bins x frames) in place by alpha times their
    filtered phase, gated and masked against their window's peak amplitude."""
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
    _phasors(filtered, rotation)
    del filtered
    block *= rotation


def _rotate_windows(level: np.ndarray, starts: list, length: int, bounds: list,
                    fps: float, cfg: MagnifyConfig, check) -> None:
    """Rotate windows of a level (bins x frames) in place by alpha times their
    filtered phase, keeping window i's frames [bounds[i], bounds[i + 1]).

    Window i spans frames [starts[i], starts[i] + length) and has its own
    peak, gate and bandpass.  One pass over row blocks takes every row's
    peak in every window.  A row whose peak in a window lies below that
    window's phase gate has its phase zeroed, hence rotates by exactly 1,
    and is left untouched there; the rows live in any window are cut into
    the fewest equal blocks of at most BLOCK_ELEMENTS coefficients over
    all windows, and into at least as many as there are windows or CPUs,
    whichever is fewer, on the package's thread pool (gabor._pool).
    A block owns its rows: it gathers and rotates them in every window
    where they are live before it writes any kept frames back, so no block
    reads what another one, or an earlier window of its own, has written.
    The result does not depend on the block size or the number of
    threads.

    check(level) raises if the level holds a non-finite coefficient; the op
    calls it only when it may.  The windows cover every frame, so a
    non-finite coefficient shows as a non-finite window peak, and check
    runs before any rotation.  Each block flags non-finite values in the
    frames it writes back, and a flag runs check on the rotated level.
    """
    step = max(1, BLOCK_ELEMENTS // level.shape[1])

    def window_peaks(lo: int) -> np.ndarray:
        amplitude = np.abs(level[lo : lo + step])
        return np.stack([amplitude[:, s : s + length].max(axis=1) for s in starts], axis=1)

    row_peak = np.concatenate(_map_blocks(window_peaks, range(0, level.shape[0], step)))
    peak = row_peak.max(axis=0)
    if not np.isfinite(peak).all():
        # check passes when only |z| overflowed, for a finite z whose modulus
        # exceeds the float range; such rows rotate as before
        check(level)
    live_in = row_peak >= PHASE_GATE_RATIO * peak
    live = np.flatnonzero(live_in.any(axis=1))
    cap = max(1, BLOCK_ELEMENTS // (len(starts) * length))
    blocks = max(min(len(starts), gabor._cpus()), -(-len(live) // cap))
    rows_per_block = max(1, -(-len(live) // blocks))

    def rotate_block(lo: int) -> bool:
        rows = live[lo : lo + rows_per_block]
        kept = [rows[keep] for keep in live_in[rows].T]
        gathered = [level[r, s : s + length] for r, s in zip(kept, starts)]
        for block, window_peak in zip(gathered, peak):
            _rotate_block(block, window_peak, fps, cfg)
        finite = True
        for r, block, s, a, b in zip(kept, gathered, starts, bounds, bounds[1:]):
            frames = block[:, a - s : b - s]
            level[r, a:b] = frames
            finite &= bool(np.isfinite(frames).all())
        return finite

    if not all(_map_blocks(rotate_block, range(0, len(live), rows_per_block))):
        check(level)


def _check_finite(level: np.ndarray, k: int, bank: GaborBank, frame0: int) -> None:
    """ValueError naming level k, the bin and the record frame (frame0 plus
    the column) of the first non-finite coefficient, if there is one.

    A serial scan of the whole level: _rotate_windows calls it only when a
    window peak or a rotated block is not finite, never on the success
    path."""
    if not np.isfinite(level).all():
        bad = np.argwhere(~np.isfinite(level))[0]
        raise ValueError(
            f"non-finite coefficient at level {k} (wavelength {bank.levels[k].wavelength}), "
            f"bin {bad[0]}, frame {frame0 + bad[1]}")


def _check_frames(n_frames: int) -> None:
    """ValueError unless a window holds the 4 frames magnification needs."""
    if n_frames < 4:
        raise ValueError(f"need at least 4 frames, got {n_frames}")


def magnify(r: Radargram, bank: GaborBank, cfg: MagnifyConfig) -> Radargram:
    """Magnify in-band motion of a radargram by (1 + alpha).

    Windowed magnification with one window spanning the whole record: one
    gabor.map_levels pass streams the bank a level at a time, so only one
    level is held in memory, and its output is the result, uncopied.  With
    alpha = 0 every coefficient is multiplied by exactly 1 and the output
    equals reconstruct(decompose(data)) bit for bit: both run the same
    synthesis.  A non-finite coefficient, analysed or rotated, is a
    ValueError naming it: "non-finite coefficient at level k (wavelength
    ...), bin b, frame f".  A record of fewer than 4 frames is a ValueError
    before any window is formed.
    """
    _check_frames(r.n_frames)
    return magnify_windowed(r, bank, cfg, WindowSpec(r.duration_s, r.duration_s))


def magnify_windowed(r: Radargram, bank: GaborBank, cfg: MagnifyConfig,
                     wspec: WindowSpec) -> Radargram:
    """Window-at-a-time magnification, the one driver of every magnification.

    Windows start at wspec.starts, plus one window ending at the last frame
    when those stop short of it; a record shorter than one window is one
    window clipped to the record.  Each window is magnified on its own and
    window i keeps frames [start_i + margin, start_{i+1} + margin), the
    centre of the window (overlap-discard stitching), which keeps filter
    edge transients out of the result; the first window keeps from frame 0
    and the last one up to the end of the record.

    Analysis and synthesis act on each frame alone, so the windows are
    stitched level by level, before synthesis, with the same result.  The
    record is cut into frame groups of consecutive windows, each spanning
    at most about GROUP_ELEMENTS coefficients per level (at least one
    window), and each group runs one gabor.map_levels pass.  Per level, one
    _rotate_windows call rotates every window of the group in place, each
    with its own peak, gate and bandpass, and keeps each window's centre.
    So one group holds its level, the synthesis spectrum and the row
    blocks in flight, whatever the record's length.  A run of one
    group returns its pass's output as it is; only several groups are
    stitched into a record-sized buffer.
    """
    length, shift = wspec.frames(r.fps)
    length = min(length, r.n_frames)
    _check_frames(length)
    cfg.band.validate(r.fps)
    starts = list(wspec.starts(r.n_frames, r.fps)) or [0]
    if starts[-1] + length < r.n_frames:
        starts.append(r.n_frames - length)
    margin = (length - shift) // 2
    bounds = [0] + [start + margin for start in starts[1:]] + [r.n_frames]
    per_group = max(1, (GROUP_ELEMENTS // r.n_bins - length) // shift + 1)
    groups = range(0, len(starts), per_group)
    out = np.empty_like(r.data) if len(groups) > 1 else None
    for g in groups:
        # the group's windows and their kept frames, counted from its first frame
        first = starts[g]
        group = [start - first for start in starts[g : g + per_group]]
        cuts = [bound - first for bound in bounds[g : g + len(group) + 1]]

        def rotate(k: int, level: np.ndarray) -> None:
            _rotate_windows(level, group, length, cuts, r.fps, cfg,
                            lambda level: _check_finite(level, k, bank, first))

        magnified = map_levels(r.data[:, first : first + group[-1] + length], bank, rotate)
        if out is None:
            return r.with_data(magnified)
        out[:, first + cuts[0] : first + cuts[-1]] = magnified[:, cuts[0] : cuts[-1]]
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
    from scipy import fft as sfft

    stack = np.asarray(frames, dtype=np.float64)
    if stack.ndim != 2:
        raise ValueError(f"expected frames stacked as 2-D (n_frames x n_bins), got {stack.shape}")
    if not np.isfinite(stack).all():
        raise ValueError("frames contain non-finite samples")
    cfg.band.validate(fps)
    spectra = sfft.rfft(stack, axis=1)
    reference = spectra[0]
    relative = spectra * np.conj(reference)[None, :]
    delta_phase = np.angle(relative)
    weak = np.abs(spectra) < 1e-12 * np.abs(spectra).max()
    delta_phase[weak] = 0.0
    delta_phase[:, np.abs(reference) < 1e-12 * np.abs(reference).max()] = 0.0
    filtered = dct_bandpass(delta_phase, fps, cfg.band, axis=0)
    shifted = spectra * np.exp(1j * cfg.alpha * filtered)
    return sfft.irfft(shifted, stack.shape[1], axis=1)
