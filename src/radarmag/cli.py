"""Batch command-line front end.

Subcommands: simulate, magnify, features, train, eval, render.  Every run is
reproducible: the same flags and seeds produce byte-identical outputs.  Exit
codes: 0 success (also for --help), 1 user error (bad flags, arguments,
files, or configs; one line on stderr), 2 internal error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import gabor, regress
from .features import (feature_names, featurize, read_features_csv,
                       read_labels_csv, write_features_csv)
from .magnify import BandSpec, MagnifyConfig, magnify, magnify_windowed
from .radargram import (FormatError, RangeROI, WindowSpec, load_radargram,
                        save_radargram)
from .regress import Dataset, fit_ols, fit_rf, kfold_mae, load_model, save_model
from .render import render_heatmap, write_ppm
from .simulate import load_scene_config, save_truth_csv, simulate


def _pair(name: str, convert, build):
    """argparse type for an A:B flag: both halves through convert, then build(a, b)."""
    def parse(text: str):
        try:
            parts = [convert(part) for part in text.split(":")]
            if len(parts) != 2:
                raise ValueError("expected two values separated by ':'")
            if not np.isfinite(parts).all():
                raise ValueError("values must be finite")
            return build(*parts)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {name} {text!r}: {exc}") from None
    return parse


_band = _pair("band", float, BandSpec)
_window = _pair("window", float, WindowSpec)
_roi = _pair("roi", int, RangeROI)
_clip = _pair("clip", float, lambda lo, hi: (lo, hi))


class UsageError(Exception):
    """A malformed command line; reported as a user error (exit 1)."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of printing usage and exiting 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _load_bank(path: str | None) -> gabor.GaborBank:
    return gabor.default_bank() if path is None else gabor.load_bank_config(path)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radarmag",
        description="Phase-based motion magnification and vital-sign estimation for UWB radargrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a synthetic scene config to a radargram")
    p.add_argument("scene", help="scene config file (key=value plus [target] blocks)")
    p.add_argument("--seed", type=int, default=0, help="noise RNG seed (integer)")
    p.add_argument("-o", "--output", required=True, help="output radargram path")
    p.add_argument("--truth", help="also write ground-truth displacement traces (CSV, bins)")
    p.add_argument("--format", choices=("binary", "csv"), default="binary",
                   help="radargram file format (default binary)")

    p = sub.add_parser("magnify", help="magnify in-band motion of a radargram")
    p.add_argument("input", help="input radargram (binary or CSV)")
    p.add_argument("output", help="output radargram (binary)")
    p.add_argument("--alpha", type=float, required=True,
                   help="amplification factor (dimensionless, >= -1; output motion is (1+alpha)x)")
    p.add_argument("--band", type=_band, required=True, help="temporal passband LO:HI in Hz")
    p.add_argument("--bank", help="Gabor bank config file (default: built-in 7-wavelength bank)")
    p.add_argument("--window", type=_window,
                   help="optional LENGTH:SHIFT seconds; process window-at-a-time with "
                        "overlap-discard stitching")
    p.add_argument("--gate-ratio", type=float, default=1e-3,
                   help="amplitude gate for phase filtering, fraction of level peak (default 1e-3)")
    p.add_argument("--denoise-sigma", type=float, default=0.0,
                   help="amplitude-weighted spatial phase smoothing sigma in bins (default off)")

    p = sub.add_parser("features", help="extract per-window spectral-peak and zcr features")
    p.add_argument("input", help="input radargram (binary or CSV)")
    p.add_argument("-o", "--output", required=True, help="output feature CSV")
    p.add_argument("--band", type=_band, required=True,
                   help="phase bandpass and peak search band LO:HI in Hz")
    p.add_argument("--window", type=_window, required=True, help="window LENGTH:SHIFT in seconds")
    p.add_argument("--roi", type=_roi, required=True, help="range bins of interest FIRST:LAST (inclusive)")
    p.add_argument("--bank", help="Gabor bank config file (default: built-in 7-wavelength bank)")
    p.add_argument("--labels", help="ground-truth CSV (time_s,bpm) for window labels")
    p.add_argument("--alpha", type=float, default=0.0,
                   help="magnify windows by this factor before extraction (default 0 = off)")

    p = sub.add_parser("train", help="cross-validate and fit a regressor on a feature CSV")
    p.add_argument("features", help="labeled feature CSV from the features subcommand")
    p.add_argument("--model", choices=("rf", "ols"), default="rf", help="model kind (default rf)")
    p.add_argument("-o", "--output", required=True, help="output model file")
    p.add_argument("--folds", type=int, default=10, help="cross-validation folds (default 10)")
    p.add_argument("--seed", type=int, default=0, help="shuffle and forest seed (integer)")
    p.add_argument("--report", help="write the cross-validation report (text) here")
    p.add_argument("--report-csv", help="write per-fold MAEs (CSV) here")
    p.add_argument("--trees", type=int, default=100, help="rf: number of trees (default 100)")
    p.add_argument("--max-depth", type=int, default=12, help="rf: maximum tree depth (default 12)")
    p.add_argument("--min-leaf", type=int, default=2, help="rf: minimum samples per leaf (default 2)")
    p.add_argument("--ridge", type=float, default=0.0, help="ols: L2 penalty (default 0)")

    p = sub.add_parser("eval", help="evaluate a trained model on a feature CSV")
    p.add_argument("model", help="model file from train")
    p.add_argument("features", help="feature CSV; labels, when present, produce an MAE report")
    p.add_argument("-o", "--output", help="write per-window predictions (CSV) here")
    p.add_argument("--report", help="write the evaluation report (text) here")

    p = sub.add_parser("render", help="render a radargram heatmap to binary PPM")
    p.add_argument("input", help="input radargram (binary or CSV)")
    p.add_argument("output", help="output PPM image")
    p.add_argument("--colormap", choices=("gray", "jet"), default="jet",
                   help="colormap (default jet)")
    p.add_argument("--clip", type=_clip, default=(1.0, 99.0),
                   help="clip percentiles LO:HI (default 1:99)")
    return parser


def cmd_simulate(args) -> int:
    scene = load_scene_config(args.scene)
    r, truth = simulate(scene, seed=args.seed)
    save_radargram(r, args.output, format=args.format)
    if args.truth:
        save_truth_csv(truth, scene.fps, args.truth)
    print(f"wrote {args.output} ({r.n_bins} bins x {r.n_frames} frames at {r.fps:g} fps)")
    return 0


def cmd_magnify(args) -> int:
    cfg = MagnifyConfig(alpha=args.alpha, band=args.band,
                        phase_gate_ratio=args.gate_ratio,
                        denoise_sigma_bins=args.denoise_sigma)
    r = load_radargram(args.input)
    bank = _load_bank(args.bank)
    if args.window is not None:
        out = magnify_windowed(r, bank, cfg, args.window)
    else:
        out = magnify(r, bank, cfg)
    save_radargram(out, args.output)
    print(f"wrote {args.output} (alpha={args.alpha:g}, band {args.band.f_lo:g}-{args.band.f_hi:g} Hz)")
    return 0


def cmd_features(args) -> int:
    r = load_radargram(args.input)
    bank = _load_bank(args.bank)
    labels = read_labels_csv(args.labels) if args.labels else None
    rows = featurize(r, bank, args.window, args.band, args.roi,
                     labels=labels, alpha=args.alpha)
    write_features_csv(rows, feature_names(bank), args.output)
    print(f"wrote {args.output} ({len(rows)} windows x {2 * len(bank)} features)")
    return 0


def cmd_train(args) -> int:
    rows, names = read_features_csv(args.features)
    data = Dataset.from_rows(rows, feature_names=names)
    if args.model == "rf":
        params = dict(n_trees=args.trees, max_depth=args.max_depth, min_leaf=args.min_leaf)
    else:
        params = dict(ridge=args.ridge)
    report = kfold_mae(data, k=args.folds, model=args.model, seed=args.seed, **params)
    if args.model == "rf":
        model = fit_rf(data, seed=args.seed, **params)
    else:
        model = fit_ols(data, **params)
    save_model(model, args.output)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_text())
    if args.report_csv:
        with open(args.report_csv, "w") as fh:
            fh.write(report.to_csv())
    print(report.to_text(), end="")
    print(f"wrote {args.output}")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    rows, _ = read_features_csv(args.features)
    X = np.stack([row.features for row in rows])
    predictions = model.predict(X)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write("window_start_s,prediction_bpm\n")
            for row, pred in zip(rows, predictions):
                fh.write(f"{row.window_start_s:.12g},{pred:.12g}\n")
    lines = [f"model: {model.kind}", f"rows: {len(rows)}"]
    labeled = [(row.label_bpm, pred) for row, pred in zip(rows, predictions)
               if row.label_bpm is not None]
    if labeled:
        errors = np.abs(np.array([p for _, p in labeled]) - np.array([l for l, _ in labeled]))
        lines.append(f"MAE: {errors.mean():.6g} bpm over {len(labeled)} labeled rows")
    text = "\n".join(lines) + "\n"
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_render(args) -> int:
    r = load_radargram(args.input)
    image = render_heatmap(r, colormap=args.colormap, clip_percentiles=args.clip)
    write_ppm(image, args.output)
    print(f"wrote {args.output} ({image.shape[1]}x{image.shape[0]} px)")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "magnify": cmd_magnify,
    "features": cmd_features,
    "train": cmd_train,
    "eval": cmd_eval,
    "render": cmd_render,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, FileNotFoundError, PermissionError, IsADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
