"""Radargram container, file formats, and slow-time windowing.

A radargram is a real 2-D matrix with fast-time range bins along axis 0 and
slow-time frames along axis 1, plus sampling metadata (frame rate, bin
spacing, range offset of the first bin).
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

MAGIC = b"RGRM"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIII ddd".replace(" ", ""))


class FormatError(ValueError):
    """Raised when a radargram file, sidecar or config file cannot be parsed."""


@dataclass(frozen=True, eq=False)
class Radargram:
    """Range bins x slow-time frames of real radar returns.

    data is stored as float64, C-contiguous and read-only; instances are
    immutable and safe to share across threads.
    """

    data: np.ndarray
    fps: float
    bin_spacing: float
    t0_offset: float = 0.0

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"radargram data must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"radargram must have at least 1 bin and 1 frame, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("radargram contains non-finite samples")
        for name in ("fps", "bin_spacing"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not math.isfinite(self.t0_offset):
            raise ValueError(f"t0_offset must be finite, got {self.t0_offset}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n_bins(self) -> int:
        return self.data.shape[0]

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_frames / self.fps

    def with_data(self, data: np.ndarray) -> "Radargram":
        """New radargram with the same metadata and different samples."""
        return Radargram(data, fps=self.fps, bin_spacing=self.bin_spacing, t0_offset=self.t0_offset)


@dataclass(frozen=True)
class WindowSpec:
    """Sliding slow-time window: length and shift in seconds."""

    length_s: float
    shift_s: float

    def __post_init__(self):
        if not 0 < self.shift_s <= self.length_s:
            raise ValueError(f"need 0 < shift_s <= length_s, got shift={self.shift_s} length={self.length_s}")

    def frames(self, fps: float) -> tuple[int, int]:
        """(window length, shift) in frames, seconds*fps rounded half-up."""
        # the shift is no longer than the window, so its count is finite too
        if not np.isfinite(self.length_s * fps):
            raise ValueError(f"window of {self.length_s}s at {fps} fps has no finite frame count")
        length = int(np.floor(self.length_s * fps + 0.5))
        shift = int(np.floor(self.shift_s * fps + 0.5))
        if length < 2:
            raise ValueError(f"window of {self.length_s}s at {fps} fps is shorter than 2 frames")
        if shift < 1:
            raise ValueError(f"shift of {self.shift_s}s at {fps} fps is shorter than 1 frame")
        return length, shift

    def starts(self, n_frames: int, fps: float) -> range:
        """First frame of every whole window over n_frames: the multiples of
        the shift; a trailing partial window is dropped."""
        length, shift = self.frames(fps)
        return range(0, n_frames - length + 1, shift)


@dataclass(frozen=True)
class RangeROI:
    """Inclusive range-bin interval [first_bin, last_bin]."""

    first_bin: int
    last_bin: int

    def __post_init__(self):
        if self.first_bin < 0 or self.last_bin < self.first_bin:
            raise ValueError(f"need 0 <= first_bin <= last_bin, got [{self.first_bin}, {self.last_bin}]")

    def validate(self, n_bins: int) -> None:
        if self.last_bin >= n_bins:
            raise ValueError(f"ROI [{self.first_bin}, {self.last_bin}] exceeds {n_bins} bins")

    @property
    def slice(self) -> slice:
        return slice(self.first_bin, self.last_bin + 1)

    @property
    def n_bins(self) -> int:
        return self.last_bin - self.first_bin + 1


def windows(r: Radargram, w: WindowSpec) -> list[tuple[int, Radargram]]:
    """Slide a window over slow time.

    Returns (start_frame, slice) pairs; starts are multiples of the shift and
    a trailing partial window is dropped.  A record shorter than one window
    yields an empty list.
    """
    length, _ = w.frames(r.fps)
    return [(start, r.with_data(r.data[:, start : start + length]))
            for start in w.starts(r.n_frames, r.fps)]


def save_radargram(r: Radargram, path: str, format: str = "binary") -> None:
    """Write a radargram to disk.

    binary: magic RGRM, little-endian header, float64 samples row-major
    (bit-exact round trip).  csv: one row per range bin, one column per
    frame; metadata goes to a key=value sidecar at ``<path>.meta``.
    """
    if format == "binary":
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, r.n_bins, r.n_frames,
                              r.fps, r.bin_spacing, r.t0_offset)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(r.data.astype("<f8", copy=False).tobytes())
    elif format == "csv":
        np.savetxt(path, r.data, fmt="%.17g", delimiter=",")
        with open(path + ".meta", "w") as fh:
            fh.write(f"fps={r.fps!r}\n")
            fh.write(f"bin_spacing={r.bin_spacing!r}\n")
            fh.write(f"t0_offset={r.t0_offset!r}\n")
            fh.write(f"n_bins={r.n_bins}\n")
            fh.write(f"n_frames={r.n_frames}\n")
    else:
        raise ValueError(f"unknown format {format!r}, expected 'binary' or 'csv'")


def load_radargram(path: str) -> Radargram:
    """Read a radargram written by save_radargram, in either format.

    A file that starts with the RGRM magic is binary; any other file is read
    as CSV when its ``<path>.meta`` sidecar exists.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if header.startswith(MAGIC):
            return _load_binary(path, fh, header)
    if os.path.exists(path + ".meta"):
        return _load_csv(path)
    raise FormatError(f"{path}: bad magic {header[:len(MAGIC)]!r}")


def _load_binary(path: str, fh, header: bytes) -> Radargram:
    if len(header) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    _, version, n_bins, n_frames, fps, bin_spacing, t0 = _HEADER.unpack(header)
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    size = 8 * n_bins * n_frames
    held = os.fstat(fh.fileno()).st_size - _HEADER.size
    if size != held:
        raise FormatError(f"{path}: header declares {n_bins}x{n_frames} float64 samples "
                          f"({size} bytes), file holds {held}")
    data = np.frombuffer(fh.read(size), dtype="<f8").reshape(n_bins, n_frames)
    return _radargram(path, data, fps, bin_spacing, t0)


def _radargram(path: str, data, fps, bin_spacing, t0_offset) -> Radargram:
    """The loaded record, with the constructor's validation errors naming the file."""
    try:
        return Radargram(data, fps=fps, bin_spacing=bin_spacing, t0_offset=t0_offset)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_config(path: str, sections=(), repeatable=()) -> list[tuple[int, str, str | None]]:
    """Entries of a key=value file as (line number, key, value).

    ``#`` starts a comment anywhere on a line and blank lines are skipped.
    A ``[name]`` line with a name in ``sections`` is returned as
    (line number, ``"[name]"``, None) and starts a new section; any other
    section, a line without ``=``, or a key outside ``repeatable`` given
    twice in one section raises FormatError naming the file and line.
    """
    entries = []
    seen = set()
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                if line[1:-1].strip() not in sections:
                    raise FormatError(f"{path}:{lineno}: unknown section {line!r}")
                entries.append((lineno, line, None))
                seen = set()
            elif "=" in line:
                key, _, value = line.partition("=")
                key = key.strip()
                if key in seen and key not in repeatable:
                    raise FormatError(f"{path}:{lineno}: repeated key {key!r}")
                seen.add(key)
                entries.append((lineno, key, value.strip()))
            else:
                raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
    return entries


def config_number(path: str, lineno: int, key: str, text: str) -> float:
    """A config value as a finite float, else FormatError naming the file and line."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise FormatError(f"{path}:{lineno}: bad value {text.strip()!r} for {key!r}")
    return value


def read_sidecar(path: str) -> dict:
    """Parse a key=value sidecar file; values are finite floats.  Keys other
    than those save_radargram writes are rejected with their line number."""
    meta = {}
    for lineno, key, value in read_config(path):
        if key not in ("fps", "bin_spacing", "t0_offset", "n_bins", "n_frames"):
            raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
        meta[key] = config_number(path, lineno, key, value)
    return meta


def _load_csv(path: str) -> Radargram:
    meta = read_sidecar(path + ".meta")
    for key in ("fps", "bin_spacing"):
        if key not in meta:
            raise FormatError(f"{path}.meta: missing required key {key!r}")
    for key in ("n_bins", "n_frames"):
        if not meta.get(key, 0.0).is_integer():
            raise FormatError(f"{path}.meta: {key} must be a whole number, got {meta[key]!r}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # empty file; its shape is rejected below
            data = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    declared = (int(meta.get("n_bins", data.shape[0])), int(meta.get("n_frames", data.shape[1])))
    if data.shape != declared:
        raise FormatError(f"{path}: {data.shape[0]}x{data.shape[1]} samples but sidecar declares "
                          f"n_bins={declared[0]}, n_frames={declared[1]}")
    return _radargram(path, data, meta["fps"], meta["bin_spacing"], meta.get("t0_offset", 0.0))
