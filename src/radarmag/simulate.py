"""Synthetic radargram generator: point scatterers with sinusoidal, static,
or constant-velocity range trajectories, rendered through a band-limited
pulse template at continuous sub-bin offsets, plus a sub-bin displacement
estimator used to validate magnification runs.

The pulse's Gaussian envelope underflows to exactly 0.0 in float64 a fixed
number of sigmas from its centre (``_reach``), so ``simulate`` renders each
target, frame chunk by frame chunk, only on the range bins within reach of
its positions in that chunk.  Every skipped sample would have added
``reflectivity * (+-0.0)`` to a sum that starts at +0.0, which leaves it
unchanged, so the record is bit-identical to evaluating the template over
every bin and frame.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np
from scipy import fft as sfft

from .radargram import FormatError, Radargram, RangeROI, config_number, read_config

TARGET_KINDS = ("sinusoid", "static", "linear")


@dataclass(frozen=True)
class TargetSpec:
    """One scatterer.

    center_range_m positions the scatterer; sinusoid targets oscillate as
    delta(t) = amplitude_bins * sin(2*pi*freq_hz*t) around it, linear targets
    move at velocity_mps (negative = toward the radar).
    """

    kind: str
    center_range_m: float
    reflectivity: float = 1.0
    amplitude_bins: float = 0.0
    freq_hz: float = 0.0
    velocity_mps: float = 0.0

    def __post_init__(self):
        if self.kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.kind!r}, expected one of {TARGET_KINDS}")
        for name in ("center_range_m", "reflectivity", "amplitude_bins", "freq_hz",
                     "velocity_mps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.amplitude_bins < 0:
            raise ValueError("amplitude_bins must be non-negative")
        if self.kind == "sinusoid" and self.freq_hz <= 0:
            raise ValueError("sinusoid targets need freq_hz > 0")

    def displacement_bins(self, t: np.ndarray, bin_spacing: float) -> np.ndarray:
        """Ground-truth displacement trace (bins, relative to center) at times t."""
        if self.kind == "sinusoid":
            return self.amplitude_bins * np.sin(2.0 * np.pi * self.freq_hz * t)
        if self.kind == "linear":
            return self.velocity_mps * t / bin_spacing
        return np.zeros_like(t)


@dataclass(frozen=True)
class SceneSpec:
    """Scene geometry, sampling, pulse template, and noise level."""

    duration_s: float
    fps: float
    n_bins: int
    bin_spacing: float
    targets: tuple[TargetSpec, ...] = ()
    noise_sigma: float = 0.0
    t0_offset: float = 0.0
    pulse_sigma_bins: float = 3.0
    pulse_carrier_bins: float = 6.0

    def __post_init__(self):
        if not float(self.n_bins).is_integer():
            raise ValueError(f"n_bins must be a whole number, got {self.n_bins}")
        object.__setattr__(self, "n_bins", int(self.n_bins))
        if not 2 <= self.duration_s * self.fps < np.inf:
            raise ValueError(f"scene must span at least 2 and finitely many frames, "
                             f"got duration_s * fps = {self.duration_s * self.fps:g}")
        if self.n_bins < 1 or self.bin_spacing <= 0:
            raise ValueError("need n_bins >= 1 and bin_spacing > 0")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be non-negative and finite, got {self.noise_sigma}")
        if not (0 < self.pulse_sigma_bins <= self.n_bins and self.pulse_carrier_bins > 0):
            raise ValueError("need 0 < pulse_sigma_bins <= n_bins and pulse_carrier_bins > 0")
        for tg in self.targets:
            if tg.kind == "sinusoid" and tg.freq_hz >= self.fps / 2:
                raise ValueError(
                    f"target frequency {tg.freq_hz} Hz is not representable at fps {self.fps}")
        span = self.n_bins * self.bin_spacing
        for i, tg in enumerate(self.targets):
            rel = tg.center_range_m - self.t0_offset
            if not 0 <= rel < span:
                raise ValueError(f"target {i} at {tg.center_range_m} m outside range window")

    @property
    def n_frames(self) -> int:
        return int(np.floor(self.duration_s * self.fps + 0.5))


_SCENE_KEYS = {f.name for f in fields(SceneSpec)} - {"targets"}
_TARGET_KEYS = {f.name for f in fields(TargetSpec)}

# exp(-z) rounds to exactly 0.0 in float64 once its true value is below
# 2**-1075, half the smallest subnormal: z > 1075 ln 2 = 745.13.  One more
# unit of z (a factor e) keeps clear of the rounding in forming z and of an
# exp that flushes a little late.
_UNDERFLOW_EXPONENT = math.log(2.0) - math.log(np.finfo(np.float64).smallest_subnormal) + 1.0
# samples per rendered chunk and per noise block: 2 MiB of float64 each
_CHUNK_ELEMENTS = 2**18


def _reach(sigma_bins: float) -> float:
    """Distance in bins beyond which pulse_template is exactly +-0.0."""
    return sigma_bins * math.sqrt(2.0 * _UNDERFLOW_EXPONENT)


def pulse_template(offset_bins: np.ndarray, sigma_bins: float, carrier_bins: float) -> np.ndarray:
    """Gaussian-windowed cosine evaluated at continuous bin offsets."""
    return np.exp(-(offset_bins**2) / (2.0 * sigma_bins**2)) * np.cos(
        2.0 * np.pi * offset_bins / carrier_bins)


# overflow from extreme scene values gives infinite positions or samples, rejected below
@np.errstate(over="ignore")
def simulate(scene: SceneSpec, seed: int = 0) -> tuple[Radargram, np.ndarray]:
    """Render a scene deterministically.

    Returns the radargram and the ground-truth displacement traces, one row
    per target, in bins.  Each frame's profile is the reflectivity-weighted
    sum of the pulse template centered at every target's instantaneous
    position, evaluated at fractional offsets so that sub-bin motion down to
    hundredths of a bin is encoded faithfully.

    Every target is checked to stay inside the range window before any
    rendering.  Then, per chunk of frames, the targets are added in order,
    each only on the bins within ``_reach`` of its positions in the chunk;
    the template is exactly +-0.0 everywhere else, so the sum is the same
    bits as over every bin.  Noise is added last, in row blocks drawn in
    the order of one C-order ``standard_normal`` of the record's shape.
    Temporaries stay within a few chunks of ``_CHUNK_ELEMENTS`` samples.
    """
    n_bins, n_frames = scene.n_bins, scene.n_frames
    t = np.arange(n_frames) / scene.fps
    truth = np.zeros((len(scene.targets), n_frames))
    centers = []
    for i, tg in enumerate(scene.targets):
        delta = tg.displacement_bins(t, scene.bin_spacing)
        center = (tg.center_range_m - scene.t0_offset) / scene.bin_spacing
        position = center + delta
        outside = ~((position >= 0) & (position <= n_bins - 1))
        if outside.any():
            bad = int(np.argmax(outside))
            raise ValueError(
                f"target {i} ({tg.kind}) leaves the range window at t={t[bad]:.3f}s "
                f"(bin {position[bad]:.2f})")
        truth[i] = delta
        centers.append(center)
    x = np.arange(n_bins, dtype=np.float64)[:, None]
    reach = _reach(scene.pulse_sigma_bins)
    data = np.zeros((n_bins, n_frames))
    step = max(1, _CHUNK_ELEMENTS // n_bins)
    for f0 in range(0, n_frames, step):
        cols = slice(f0, f0 + step)
        for tg, center, delta in zip(scene.targets, centers, truth):
            p = center + delta[cols]
            lo = max(0, math.ceil(p.min() - reach))
            hi = min(n_bins, math.floor(p.max() + reach) + 1)
            data[lo:hi, cols] += tg.reflectivity * pulse_template(
                x[lo:hi] - p, scene.pulse_sigma_bins, scene.pulse_carrier_bins)
    if scene.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        step = max(1, _CHUNK_ELEMENTS // n_frames)
        for r0 in range(0, n_bins, step):
            block = data[r0 : r0 + step]
            block += scene.noise_sigma * rng.standard_normal(block.shape)
    r = Radargram(data, fps=scene.fps, bin_spacing=scene.bin_spacing, t0_offset=scene.t0_offset)
    return r, truth


def estimate_displacement(r: Radargram, roi: RangeROI) -> np.ndarray:
    """Sub-bin displacement trace of the dominant target inside a ROI.

    Per frame: parabolic interpolation of the log squared envelope (the
    magnitude of the analytic signal along fast time) around the ROI argmax;
    in the log domain a Gaussian envelope peak is exactly parabolic, so
    sub-bin offsets are unbiased.  Returns the zero-mean trace in bins.
    """
    roi.validate(r.n_bins)
    if roi.n_bins < 3:
        raise ValueError("ROI must span at least 3 bins for parabolic interpolation")
    # the analytic signal as scipy.signal.hilbert forms it, in place: double
    # the positive frequencies, zero the negative ones (Nyquist, if any, kept)
    n = r.n_bins
    spectrum = sfft.fft(r.data, axis=0)
    spectrum[1 : (n + 1) // 2] *= 2.0
    spectrum[n // 2 + 1 :] = 0.0
    analytic = sfft.ifft(spectrum, axis=0, overwrite_x=True)
    segment = np.abs(analytic[roi.slice]) ** 2
    del spectrum, analytic
    if segment.max() <= 0 or np.ptp(segment) == 0:
        raise ValueError(f"ROI [{roi.first_bin}, {roi.last_bin}] is empty or flat")
    segment = np.log(segment + 1e-300 * segment.max())
    peak = np.argmax(segment, axis=0)
    peak = np.clip(peak, 1, roi.n_bins - 2)
    cols = np.arange(r.n_frames)
    y0 = segment[peak - 1, cols]
    y1 = segment[peak, cols]
    y2 = segment[peak + 1, cols]
    denom = y0 - 2.0 * y1 + y2
    offset = np.where(denom != 0, 0.5 * (y0 - y2) / np.where(denom == 0, 1.0, denom), 0.0)
    trace = roi.first_bin + peak + offset
    return trace - trace.mean()


def load_scene_config(path: str) -> SceneSpec:
    """Parse a scene config: key=value header plus repeated [target] blocks.

    Header keys are the SceneSpec fields and target keys the TargetSpec
    fields; any other key is rejected with its line number.
    """
    header: dict = {}
    targets: list[dict] = []
    for lineno, key, value in read_config(path, sections=("target",)):
        if value is None:
            targets.append({})
            continue
        if key not in (_TARGET_KEYS if targets else _SCENE_KEYS):
            raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
        block = targets[-1] if targets else header
        block[key] = value if key == "kind" else config_number(path, lineno, key, value)
    parsed = tuple(_spec(TargetSpec, tg, f"{path}: target {i}") for i, tg in enumerate(targets))
    return _spec(SceneSpec, dict(header, targets=parsed), path)


def _spec(cls, values: dict, where: str):
    """cls(**values), with missing required keys and validation errors naming ``where``."""
    for f in fields(cls):
        if f.default is MISSING and f.name not in values:
            raise FormatError(f"{where}: missing required key {f.name!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


def save_truth_csv(truth: np.ndarray, fps: float, path: str) -> None:
    """Write ground-truth displacement traces: time_s plus one column per target."""
    n_targets, n_frames = truth.shape
    t = np.arange(n_frames) / fps
    header = "time_s," + ",".join(f"delta_bins_t{i}" for i in range(n_targets))
    np.savetxt(path, np.column_stack([t, truth.T]), fmt="%.12g", delimiter=",",
               header=header, comments="")
