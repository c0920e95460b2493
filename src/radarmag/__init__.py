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

from types import ModuleType as _ModuleType

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

# every public name bound above; the imports bind the submodules too, which
# are not part of the API
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
