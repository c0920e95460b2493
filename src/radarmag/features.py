"""Per-window vital-sign features: one bandpassed 1-D phase signal per Gabor
wavelength, summarized by its FFT spectral peak (bpm) and zero-crossing rate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .gabor import GaborBank, decompose
from .magnify import BandSpec, MagnifyConfig, dct_bandpass, magnify, unwrap_phase
from .radargram import Radargram, RangeROI, WindowSpec, windows

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LevelSignal:
    """Slow-time motion signal extracted from one pyramid level."""

    level_index: int
    wavelength: float
    series: np.ndarray
    fps: float

    @property
    def duration_s(self) -> float:
        return len(self.series) / self.fps


@dataclass(frozen=True)
class FeatureRow:
    """Feature vector of one window: FFT-peak bpm then zcr (in bpm) per level."""

    window_start_s: float
    features: np.ndarray
    label_bpm: float | None = None


def level_signals(window: Radargram, bank: GaborBank, band: BandSpec,
                  roi: RangeROI) -> list[LevelSignal]:
    """One bandpassed phase series per bank level.

    Per level, coefficient phases over the ROI are unwrapped along slow
    time, bandpassed, and averaged across ROI bins weighted by the
    window-mean squared amplitude of each bin.
    """
    roi.validate(window.n_bins)
    band.validate(window.fps)
    pyr = decompose(window.data, bank, mode="linear")
    out = []
    for k, (params, level) in enumerate(zip(bank.levels, pyr.levels)):
        sub = level[roi.slice]
        weights = (np.abs(sub) ** 2).mean(axis=1)
        total = weights.sum()
        if total <= 0:
            raise ValueError(f"level {k} (wavelength {params.wavelength}) has zero amplitude in ROI")
        phase = unwrap_phase(np.angle(sub), axis=1)
        filtered = dct_bandpass(phase, window.fps, band, axis=1)
        series = weights @ filtered / total
        out.append(LevelSignal(level_index=k, wavelength=params.wavelength,
                               series=series, fps=window.fps))
    return out


def fft_peak_bpm(signal: LevelSignal, search_band: BandSpec) -> float:
    """Frequency of the largest magnitude-spectrum peak inside the band, in bpm.

    The peak location is refined by parabolic interpolation across the
    neighbouring DFT bins.
    """
    s = signal.series
    if len(s) < 2:
        raise ValueError("series must have at least 2 samples")
    spectrum = np.abs(np.fft.rfft(s))
    freqs = np.fft.rfftfreq(len(s), 1.0 / signal.fps)
    inside = np.where((freqs >= search_band.f_lo) & (freqs <= search_band.f_hi))[0]
    if len(inside) == 0:
        raise ValueError(f"band [{search_band.f_lo}, {search_band.f_hi}] Hz contains no DFT bins")
    k = inside[np.argmax(spectrum[inside])]
    offset = 0.0
    if 0 < k < len(spectrum) - 1:
        y0, y1, y2 = spectrum[k - 1], spectrum[k], spectrum[k + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0:
            offset = 0.5 * (y0 - y2) / denom
    return 60.0 * (k + offset) * signal.fps / len(s)


def zcr_hz(signal: LevelSignal) -> float:
    """Zero-crossing rate of the mean-removed series, in Hz.

    Counts strict sign changes (zero samples inherit the previous sign) and
    divides by twice the duration; for a pure sinusoid this estimates its
    fundamental frequency.
    """
    s = np.asarray(signal.series, dtype=np.float64)
    if len(s) < 2:
        raise ValueError("series must have at least 2 samples")
    x = s - s.mean()
    signs = np.sign(x)
    nonzero = signs != 0
    if not nonzero.any():
        return 0.0
    idx = np.where(nonzero, np.arange(len(x)), 0)
    np.maximum.accumulate(idx, out=idx)
    filled = signs[idx]
    filled[: np.argmax(nonzero)] = 0.0
    changes = int(np.sum(filled[1:] * filled[:-1] < 0))
    return changes / (2.0 * signal.duration_s)


def feature_names(bank: GaborBank) -> list[str]:
    wl = [f"{p.wavelength:g}" for p in bank.levels]
    return [f"fftpeak_l{w}" for w in wl] + [f"zcr_l{w}" for w in wl]


def featurize(r: Radargram, bank: GaborBank, wspec: WindowSpec, band: BandSpec,
              roi: RangeROI, labels: np.ndarray | None = None,
              alpha: float = 0.0) -> list[FeatureRow]:
    """Feature rows for every window of a record.

    Features per window: fft_peak_bpm per level (searched inside ``band``)
    followed by zcr_hz per level, 2 x levels in total.  labels, if given, is
    a (time_s, bpm) array; each window's label is the mean bpm over the
    window.  alpha != 0 magnifies each window before extraction (the band
    doubles as the magnification passband).  Windows that fail are skipped
    with a warning; a record shorter than one window is a ValueError.
    """
    cut = windows(r, wspec)
    if not cut:
        raise ValueError(f"record of {r.duration_s:g} s is shorter than one "
                         f"{wspec.length_s:g} s window")
    rows = []
    for start, window in cut:
        start_s = start / r.fps
        try:
            if alpha != 0.0:
                window = magnify(window, bank, MagnifyConfig(alpha=alpha, band=band))
            signals = level_signals(window, bank, band, roi)
            feats = np.array([fft_peak_bpm(s, band) for s in signals]
                             + [zcr_hz(s) for s in signals])
        except (ValueError, FloatingPointError) as exc:
            log.warning("skipping window at %.2fs: %s", start_s, exc)
            continue
        label = None
        if labels is not None:
            label = window_label(labels, start_s, wspec.length_s)
        rows.append(FeatureRow(window_start_s=start_s, features=feats, label_bpm=label))
    return rows


def window_label(labels: np.ndarray, start_s: float, length_s: float) -> float:
    """Mean ground-truth bpm over [start_s, start_s + length_s)."""
    t, bpm = labels[:, 0], labels[:, 1]
    inside = (t >= start_s) & (t < start_s + length_s)
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
                raise ValueError(f"{path}:{lineno}: expected two numeric columns (time_s, bpm)")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}:{lineno + 1}: expected two numeric columns (time_s, bpm)")
    return np.array(rows)


def write_features_csv(rows: list[FeatureRow], names: list[str], path: str) -> None:
    """Deterministic CSV: window_start_s, label_bpm, then the feature columns."""
    with open(path, "w") as fh:
        fh.write("window_start_s,label_bpm," + ",".join(names) + "\n")
        for row in rows:
            label = "" if row.label_bpm is None else f"{row.label_bpm:.12g}"
            feats = ",".join(f"{v:.12g}" for v in row.features)
            fh.write(f"{row.window_start_s:.12g},{label},{feats}\n")


def read_features_csv(path: str) -> tuple[list[FeatureRow], list[str]]:
    """Inverse of write_features_csv."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["window_start_s", "label_bpm"]:
            raise ValueError(f"{path}: not a feature CSV (header {header[:2]})")
        names = header[2:]
        rows = []
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise ValueError(f"{path}: row with {len(parts)} fields, expected {len(header)}")
            label = float(parts[1]) if parts[1] else None
            rows.append(FeatureRow(window_start_s=float(parts[0]),
                                   features=np.array([float(v) for v in parts[2:]]),
                                   label_bpm=label))
    return rows, names
