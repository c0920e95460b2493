"""Radargram heatmap rendering to binary PPM (P6): range bins down the
vertical axis, frames across the horizontal axis, values clipped to
percentiles and mapped through a colormap.  No image codec dependencies.
"""

from __future__ import annotations

from warnings import warn

import numpy as np

from .radargram import FormatError, Radargram

COLORMAPS = ("gray", "jet")
# Samples per row block: the colormap's float temporaries (a few per
# sample) stay within a few MB whatever the record's size.
BLOCK_SAMPLES = 2**16


def _jet(v: np.ndarray) -> np.ndarray:
    """Classic piecewise-linear jet map for v in [0, 1] -> RGB in [0, 1]."""
    r = np.clip(1.5 - np.abs(4.0 * v - 3.0), 0.0, 1.0)
    g = np.clip(1.5 - np.abs(4.0 * v - 2.0), 0.0, 1.0)
    b = np.clip(1.5 - np.abs(4.0 * v - 1.0), 0.0, 1.0)
    return np.stack([r, g, b], axis=-1)


def render_heatmap(r: Radargram, colormap: str = "jet",
                   clip_percentiles: tuple[float, float] = (1.0, 99.0)) -> np.ndarray:
    """Map samples to an RGB uint8 image of shape (n_bins, n_frames, 3).

    The clip percentiles are taken over the whole record; the colormap runs
    on blocks of rows, each written into the preallocated image.
    """
    if colormap not in COLORMAPS:
        raise ValueError(f"unknown colormap {colormap!r}, expected one of {COLORMAPS}")
    p_lo, p_hi = clip_percentiles
    if not 0 <= p_lo < p_hi <= 100:
        raise ValueError(f"need 0 <= p_lo < p_hi <= 100, got {clip_percentiles}")
    lo = np.percentile(r.data, p_lo)
    hi = np.percentile(r.data, p_hi)
    if hi <= lo:
        warn("degenerate (constant) radargram; rendering uniform mid-level image", stacklevel=2)
    image = np.empty(r.data.shape + (3,), dtype=np.uint8)
    step = max(1, BLOCK_SAMPLES // r.n_frames)
    for first in range(0, r.n_bins, step):
        block = r.data[first : first + step]
        if hi <= lo:
            values = np.full(block.shape, 0.5)
        else:
            values = np.clip((block - lo) / (hi - lo), 0.0, 1.0)
        if colormap == "gray":
            rgb = np.repeat(values[:, :, None], 3, axis=2)
        else:
            rgb = _jet(values)
        image[first : first + step] = rgb * 255.0 + 0.5
    return image


def write_ppm(image: np.ndarray, path: str) -> None:
    """Write an RGB uint8 array as binary PPM (P6, maxval 255)."""
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError(f"expected (h, w, 3) uint8 image, got {image.shape} {image.dtype}")
    height, width = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def read_ppm(path: str) -> np.ndarray:
    """Read back a P6 PPM written by write_ppm.  A wrong magic, a dimension
    line other than two whole numbers, a maxval other than 255 or short
    pixel data is a FormatError naming the file."""
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"P6":
            raise FormatError(f"{path}: not a binary PPM")
        dims = fh.readline().decode("latin-1").split()
        maxval = fh.readline().decode("latin-1").split()
        data = fh.read()
    if len(dims) != 2 or not all(d.isdecimal() for d in dims):
        raise FormatError(f"{path}: expected 'width height', got {' '.join(dims)!r}")
    if maxval != ["255"]:
        raise FormatError(f"{path}: unsupported maxval {' '.join(maxval)}")
    width, height = int(dims[0]), int(dims[1])
    if len(data) < 3 * width * height:
        raise FormatError(f"{path}: {width}x{height} pixels need {3 * width * height} bytes, "
                          f"file holds {len(data)}")
    return np.frombuffer(data, np.uint8, 3 * width * height).reshape(height, width, 3)
