"""Per-window vital-sign features: one bandpassed 1-D phase signal per Gabor
wavelength and window, summarized by its FFT spectral peak (bpm) and
zero-crossing rate.

The signals of a record form one levels x windows x samples array, and each
feature is taken along its last axis for every window at once.  A record is
decomposed once and cut into windows only after the phase unwrap, since
range-axis analysis acts on each frame on its own.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .gabor import GaborBank, decompose
from .magnify import BandSpec, MagnifyConfig, dct_bandpass, magnify, unwrap_phase
from .radargram import FormatError, Radargram, RangeROI, WindowSpec, config_number, naming

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FeatureRow:
    """Feature vector of one window: FFT-peak bpm then zcr (in Hz) per level."""

    window_start_s: float
    features: np.ndarray
    label_bpm: float | None = None


def _analysis_rows(roi: RangeROI, radius: int, n_bins: int) -> slice:
    """The ROI widened by radius bins on each side, clamped to the record.

    A kernel reaches radius bins and decompose zero-pads any number of rows,
    so the ROI rows of their pyramid equal those of the record's pyramid.
    """
    return slice(max(roi.first_bin - radius, 0), min(roi.last_bin + 1 + radius, n_bins))


def level_signals(r: Radargram, bank: GaborBank, band: BandSpec, roi: RangeROI,
                  wspec: WindowSpec) -> tuple[np.ndarray, list[str | None]]:
    """Bandpassed phase series of every bank level and window of a record,
    as (series, skips).

    The windows are those of wspec.starts.  series is a float64 levels x
    windows x window length array; series[k, i] belongs to level k and
    window i.  skips[i] is None, or why window i is skipped: zero ROI
    amplitude at some level, from which on its series is zero.

    Per level, coefficient phases over the ROI are unwrapped along slow
    time, averaged across ROI bins weighted by the window-mean squared
    amplitude of each bin, and then bandpassed once for all windows; the
    bandpass is linear, so the weighted mean commutes with it.  Only the
    ROI rows plus the largest kernel radius are decomposed, and each level
    is unwrapped once.  A window's phase is the record's unwrap shifted by
    the multiple of 2*pi that puts its first sample back on the wrapped
    phase, which is the window's own unwrap, so a lone window is the
    one-window record, bit for bit.  ROI power that overflows float64 at
    some level is a ValueError.
    """
    roi.validate(r.n_bins)
    band.validate(r.fps)
    length, starts = wspec.frames(r.fps)[0], wspec.starts(r.n_frames, r.fps)
    rows = _analysis_rows(roi, bank.max_radius, r.n_bins)
    pyr = decompose(r.data[rows], bank)
    roi_rows = slice(roi.first_bin - rows.start, roi.last_bin + 1 - rows.start)
    series = np.zeros((len(bank), len(starts), length))
    skips = [None] * len(starts)
    for k, (params, level) in enumerate(zip(bank.levels, pyr.levels)):
        sub = level[roi_rows]
        with np.errstate(over="ignore"):
            power = np.abs(sub) ** 2
            # a finite total bounds every window mean and sum taken below
            if not np.isfinite(power.sum()):
                raise ValueError(f"level {k} (wavelength {params.wavelength}): "
                                 "ROI power overflows float64")
        angle = np.angle(sub)
        phase = unwrap_phase(angle)
        for i, s in enumerate(starts):
            if skips[i] is not None:
                continue
            # a direct mean, not a difference of cumulative sums: that loses
            # the relative precision of a quiet window after a loud stretch
            weights = power[:, s : s + length].mean(axis=1)
            total = weights.sum()
            if total <= 0:
                skips[i] = f"level {k} (wavelength {params.wavelength}) has zero amplitude in ROI"
                continue
            # the shift is exactly 0 at s = 0, so a window's first sample keeps its wrapped phase
            window_phase = phase[:, s : s + length] - (phase[:, s] - angle[:, s])[:, None]
            series[k, i] = weights @ window_phase / total
        kept = [i for i, skip in enumerate(skips) if skip is None]
        if kept:
            series[k, kept] = dct_bandpass(series[k, kept], r.fps, band)
    return series, skips


def fft_peak_bpm(series: np.ndarray, fps: float, search_band: BandSpec) -> np.ndarray:
    """Frequency of the largest magnitude-spectrum peak inside the band, in
    bpm, of each series along the last axis of a stack sampled at fps.

    The peak location is refined by parabolic interpolation across the
    neighbouring DFT bins, unless the peak is the first or last bin.
    """
    n = np.shape(series)[-1]
    if n < 2:
        raise ValueError("series must have at least 2 samples")
    spectrum = np.abs(np.fft.rfft(series))
    inside = search_band.bins(np.fft.rfftfreq(n, 1.0 / fps))
    k = inside.start + np.argmax(spectrum[..., inside], axis=-1, keepdims=True)
    last = spectrum.shape[-1] - 1
    # an edge peak's missing neighbour is clamped onto it; its offset stays 0
    y0, y1, y2 = (np.take_along_axis(spectrum, np.clip(k + d, 0, last), axis=-1)
                  for d in (-1, 0, 1))
    denom = y0 - 2.0 * y1 + y2
    refine = (0 < k) & (k < last) & (denom != 0)
    offset = np.divide(0.5 * (y0 - y2), denom, out=np.zeros_like(denom), where=refine)
    return (60.0 * (k + offset) * fps / n)[..., 0]


def zcr_hz(series: np.ndarray, fps: float) -> np.ndarray:
    """Zero-crossing rate of each mean-removed series along the last axis of
    a stack sampled at fps, in Hz.

    Counts strict sign changes (zero samples inherit the previous sign, or
    none before the first nonzero sample) and divides by twice the
    duration; for a pure sinusoid this estimates its fundamental frequency.
    """
    s = np.asarray(series, dtype=np.float64)
    n = s.shape[-1]
    if n < 2:
        raise ValueError("series must have at least 2 samples")
    signs = np.sign(s - s.mean(axis=-1, keepdims=True))
    # forward fill from index 0, whose sign is 0 ahead of the first nonzero sample
    idx = np.where(signs != 0, np.arange(n), 0)
    np.maximum.accumulate(idx, axis=-1, out=idx)
    filled = np.take_along_axis(signs, idx, axis=-1)
    changes = np.count_nonzero(filled[..., 1:] * filled[..., :-1] < 0, axis=-1)
    return changes / (2.0 * (n / fps))


def feature_names(bank: GaborBank) -> list[str]:
    wl = [f"{p.wavelength:g}" for p in bank.levels]
    return [f"fftpeak_l{w}" for w in wl] + [f"zcr_l{w}" for w in wl]


def featurize(r: Radargram, bank: GaborBank, wspec: WindowSpec, band: BandSpec,
              roi: RangeROI, labels: np.ndarray | None = None,
              alpha: float = 0.0, labels_name: str = "labels") -> list[FeatureRow]:
    """Feature rows for every window of a record.

    Features per window: fft_peak_bpm per level (searched inside ``band``)
    followed by zcr_hz per level, 2 x levels in total, each taken once over
    the levels x windows stack of level_signals.  labels, if given, is a
    (time_s, bpm) array; each window's label is the mean bpm over its
    frames, [start, start + length) / fps.  A window without a label sample
    is a FormatError starting with labels_name, the labels' source.

    With alpha = 0 the record is analysed once by level_signals.  alpha != 0
    cuts each window from the record when it comes to it, magnifies it on
    its own (the band doubles as the magnification passband) and analyses
    it with the same wspec, of which it holds exactly one window, so that
    path decomposes every window.

    An invalid alpha, a record shorter than one window, an ROI beyond the
    record, a band above Nyquist or with no DCT or no DFT bin at the window
    length, and a window without a label sample are ValueErrors, raised
    before any window is analysed; a non-finite magnified coefficient or
    ROI power overflowing float64 is a ValueError too.  The one reason to
    skip a window, with a warning, is zero ROI amplitude at some level.
    """
    cfg = MagnifyConfig(alpha=alpha, band=band)
    length, _ = wspec.frames(r.fps)
    if r.n_frames < length:
        raise ValueError(f"record of {r.duration_s:g} s is shorter than one "
                         f"{wspec.length_s:g} s window")
    # mistakes in the record's set-up fail once here, not once per window
    roi.validate(r.n_bins)
    band.validate(r.fps)
    # a bin on the bandpass's DCT grid and on fft_peak_bpm's coarser DFT grid
    band.dct_bins(length, r.fps)
    band.bins(np.fft.rfftfreq(length, 1.0 / r.fps))
    starts = wspec.starts(r.n_frames, r.fps)
    window_labels = [None] * len(starts)
    if labels is not None:
        with naming(labels_name):
            window_labels = [window_label(labels, start / r.fps, (start + length) / r.fps)
                             for start in starts]
    if alpha == 0.0:
        series, skips = level_signals(r, bank, band, roi, wspec)
    else:
        # each window is cut from the record only when it is magnified
        series, skips = np.empty((len(bank), len(starts), length)), []
        for i, start in enumerate(starts):
            window = r.with_data(r.data[:, start : start + length])
            signals, (skip,) = level_signals(magnify(window, bank, cfg), bank, band, roi, wspec)
            series[:, i] = signals[:, 0]
            skips.append(skip)
    feats = np.concatenate([fft_peak_bpm(series, r.fps, band), zcr_hz(series, r.fps)])
    out = []
    for start, skip, row, label in zip(starts, skips, feats.T, window_labels):
        start_s = start / r.fps
        if skip is not None:
            log.warning("skipping window at %.2fs: %s", start_s, skip)
            continue
        out.append(FeatureRow(window_start_s=start_s, features=row, label_bpm=label))
    return out


def window_label(labels: np.ndarray, start_s: float, end_s: float) -> float:
    """Mean ground-truth bpm over [start_s, end_s)."""
    t, bpm = labels[:, 0], labels[:, 1]
    inside = (t >= start_s) & (t < end_s)
    if not inside.any():
        raise ValueError(f"no label samples cover window starting at {start_s}s")
    return float(bpm[inside].mean())


def read_labels_csv(path: str) -> np.ndarray:
    """Two-column (time_s, bpm) CSV.

    A first line with a non-numeric field is the header; blank lines are
    skipped and every other line must hold two finite numbers.
    """
    rows = []
    lineno = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                values = [float(v) for v in line.split(",")]
            except ValueError:
                if lineno == 1:
                    continue
                values = []
            if len(values) != 2 or not np.isfinite(values).all():
                raise FormatError(f"{path}:{lineno}: expected two numeric columns (time_s, bpm)")
            rows.append(values)
    if not rows:
        raise FormatError(f"{path}:{lineno + 1}: expected two numeric columns (time_s, bpm)")
    return np.array(rows)


# the feature CSV's columns before the features
CSV_LEADING = ("window_start_s", "label_bpm")


def write_features_csv(rows: list[FeatureRow], names: list[str], path: str) -> None:
    """Deterministic CSV: window_start_s, label_bpm, then the feature columns."""
    with open(path, "w") as fh:
        fh.write(",".join((*CSV_LEADING, *names)) + "\n")
        for row in rows:
            label = "" if row.label_bpm is None else f"{row.label_bpm:.12g}"
            feats = ",".join(f"{v:.12g}" for v in row.features)
            fh.write(f"{row.window_start_s:.12g},{label},{feats}\n")


def read_features_csv(path: str) -> tuple[list[FeatureRow], list[str]]:
    """Inverse of write_features_csv: at least one row and one feature
    column, no repeated column name, and every cell a finite number except
    an empty label."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header[:2]) != CSV_LEADING:
            raise FormatError(f"{path}: not a feature CSV (header {header[:2]})")
        if len(header) == 2:
            raise FormatError(f"{path}: no feature columns")
        repeated = [name for i, name in enumerate(header) if name in header[:i]]
        if repeated:
            raise FormatError(f"{path}: repeated column {repeated[0]!r}")
        rows = []
        for lineno, line in enumerate(fh, 2):
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise FormatError(f"{path}:{lineno}: row with {len(parts)} fields, expected {len(header)}")
            values = [None if (key, text) == (CSV_LEADING[1], "") else config_number(path, lineno, key, text)
                      for key, text in zip(header, parts)]
            rows.append(FeatureRow(window_start_s=values[0], features=np.array(values[2:]),
                                   label_bpm=values[1]))
    if not rows:
        raise FormatError(f"{path}: no feature rows")
    return rows, header[2:]
