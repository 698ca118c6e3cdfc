"""Product-of-filters decomposition of audio magnitude spectrograms.

Learns a pool of log-spectral filters with gamma-distributed sparse
activations by variational EM, runs mean-field posterior inference on new
spectra, and applies the model to bandwidth expansion and unsupervised
feature extraction, with KL/IS NMF baselines for comparison.
"""

__version__ = "0.1.0"

from .bwe import BweResult, expand, reconstruct_point, restrict_model
from .dsp import (AudioClip, StftConfig, band_mask, load_wav, log_spectral_distance,
                  stft_magnitude, stft_power)
from .errors import (DataFormatError, NumericalError, PofError,
                     UnsupportedFormatError, ValidationError)
from .estep import (FrameResult, default_posterior_init, dump_posteriors,
                    elbo, elbo_grad, floor_observations, infer_frames)
from .features import (FeatureMatrix, add_deltas, load_features_csv,
                       median_smooth, mfcc, pofc, save_features_csv)
from .model import (BandMask, FramePosterior, ModelMeta, PoFModel, Spectrogram,
                    load_model, load_spectrogram, sample, save_model,
                    save_spectrogram)
from .mstep import EmConfig, SufficientStats, fit
from .nmf import (NmfFit, NmfModel, load_nmf_model, nmf_encode, nmf_expand,
                  nmf_fit, save_nmf_model)
from .optim import OptimResult, minimize
from .specfn import digamma, ln_gamma, trigamma
