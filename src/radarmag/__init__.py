"""Phase-based motion magnification and vital-sign estimation for UWB radargrams.

A radargram (range bins x slow-time frames) is decomposed with a bank of
complex Gabor wavelets; per-level coefficient phases are temporally
bandpassed and scaled to magnify (or attenuate) sub-bin motion, and the
levels are collapsed back into a radargram.  The same phase signals feed
per-window spectral-peak and zero-crossing features for respiration and
heart-rate regression.

scipy is imported inside the functions that use it, so importing the
package loads none of it, and a process pays for only the parts it calls.
"""

from .radargram import (FormatError, Radargram, RangeROI, WindowSpec,
                        load_radargram, save_radargram, windows)
from .gabor import (GaborBank, GaborParams, Pyramid, decompose,
                    decompose_direct, default_bank, dyadic_bank,
                    load_bank_config, make_bank, make_gabor, reconstruct,
                    DEFAULT_WAVELENGTHS)
from .magnify import (BandSpec, MagnifyConfig, dct_bandpass, global_magnify,
                      magnify, magnify_windowed, unwrap_phase)
from .simulate import (SceneSpec, TargetSpec, estimate_displacement,
                       load_scene_config, pulse_template, save_truth_csv, simulate)
from .features import (FeatureRow, feature_names, featurize,
                       fft_peak_bpm, level_signals, read_features_csv,
                       read_labels_csv, write_features_csv, zcr_hz)
from .regress import (Dataset, ForestModel, LinearModel, ModelReport, fit_ols,
                      fit_rf, kfold_mae, load_model, save_model,
                      temporal_fft_baseline)
from .render import render_heatmap, read_ppm, write_ppm

__version__ = "0.1.0"

__all__ = [
    "BandSpec", "Dataset", "FeatureRow", "ForestModel", "FormatError",
    "GaborBank", "GaborParams", "LinearModel", "MagnifyConfig",
    "ModelReport", "DEFAULT_WAVELENGTHS", "Pyramid", "Radargram", "RangeROI",
    "SceneSpec", "TargetSpec", "WindowSpec",
    "dct_bandpass", "decompose", "decompose_direct",
    "default_bank", "dyadic_bank", "estimate_displacement", "feature_names",
    "featurize", "fft_peak_bpm", "fit_ols", "fit_rf", "global_magnify",
    "kfold_mae", "level_signals", "load_bank_config", "load_model",
    "load_radargram", "load_scene_config", "magnify", "magnify_windowed",
    "make_bank", "make_gabor", "pulse_template", "read_features_csv",
    "read_labels_csv", "read_ppm", "reconstruct", "render_heatmap",
    "save_model", "save_radargram", "save_truth_csv", "simulate",
    "temporal_fft_baseline", "unwrap_phase", "windows",
    "write_features_csv", "write_ppm", "zcr_hz",
]
