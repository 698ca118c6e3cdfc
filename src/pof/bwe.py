"""Bandwidth expansion: infer activations from band-limited spectra and
reconstruct the full band.

Inference runs on the band-limited rows of U and gamma only; the
reconstruction then combines the posterior-mean activations with the
full-band filters. Each frame's estimate is exp(E_q[log W]): LSD is an
RMS of log ratios, and the expected squared log error E_q[(log W_hat -
log W)^2] is smallest at log W_hat = E_q[log W]. Under the model W_f | a
has shape gamma_f and rate gamma_f exp(-(U a)_f), so E[log W_f | a] =
(U a)_f + psi(gamma_f) - log gamma_f, and E_q[log W_f] needs only E_q[a].
Observed bins are passed through unmodified: only missing content is
synthesized.
An audio clip is analysed at the model's n_fft with hop n_fft/2, the
framing the model's training spectrograms are assumed to have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import AudioClip, StftConfig, stft_magnitude
from .errors import ValidationError
from .estep import infer_frames
from .model import BandMask, FramePosterior, PoFModel, Spectrogram
from .optim import ZERO_PROGRESS
from .specfn import _digamma

__all__ = ["BweResult", "restrict_model", "expand", "reconstruct_point"]


@dataclass
class BweResult:
    """Per frame: the posterior (the prior mean where inference gave none)
    and its inference status; replaced counts the prior means."""

    reconstructed: Spectrogram
    posteriors: list[FramePosterior]
    statuses: list[str]
    replaced: int


def restrict_model(model: PoFModel, mask: BandMask) -> PoFModel:
    """Row-select U and gamma down to the masked bins; alpha is unchanged."""
    U, gamma = (mask.select(x, model.n_bins) for x in (model.U, model.gamma))
    return PoFModel(U, model.alpha, gamma, model.meta)


def reconstruct_point(model: PoFModel, mean: np.ndarray) -> np.ndarray:
    """exp(E_q[log W]) for every frame, (F, T), from the posterior-mean
    activations E_q[a], (L, T): exp(U E_q[a] + psi(gamma) - log gamma).
    """
    if mean.ndim != 2 or mean.shape[0] != model.n_filters:
        raise ValidationError(f"mean activations must be ({model.n_filters}, T), "
                              f"got {mean.shape}")
    offset = _digamma(model.gamma) - np.log(model.gamma)
    return np.exp(model.U @ mean + offset[:, None])


def expand(source, model: PoFModel, mask: BandMask) -> BweResult:
    """Infer activations from the band-limited observation and fill the band.

    source is an AudioClip (analysed with the model's n_fft and hop n_fft/2)
    or a Spectrogram at the model's n_fft carrying either all F rows or
    exactly the masked rows, either at the model's sample rate. Every frame
    starts from the fixed start of infer_frames, so the result depends on
    the source, the model and the mask alone. Frames whose inference fails
    (a non-finite bound) or makes no progress (status ZERO_PROGRESS, whose
    posterior is only that start) fall back to the prior (alpha, alpha),
    whose mean is E[a] = 1: their estimate is exp(E[log W]) at a = 1. All
    frames are reconstructed in one call of reconstruct_point.
    """
    if isinstance(source, AudioClip):
        n_fft = model.meta.n_fft
        spec = stft_magnitude(source, StftConfig(n_fft=n_fft, hop=n_fft // 2))
    elif isinstance(source, Spectrogram):
        spec = source
    else:
        raise ValidationError("source must be an AudioClip or Spectrogram")
    kind = "clip" if spec is not source else "spectrogram"
    if spec.sample_rate != model.meta.sample_rate:
        raise ValidationError(f"{kind} sample rate {spec.sample_rate:g} Hz does not "
                              f"match the model's {model.meta.sample_rate:g} Hz")
    if spec.n_fft != model.meta.n_fft:
        raise ValidationError(f"spectrogram n_fft {spec.n_fft} is not the model's {model.meta.n_fft}")

    observed = mask.select(spec.data, model.n_bins)
    sub = restrict_model(model, mask)
    results = infer_frames(observed, sub)
    inferred = [math.isfinite(r.elbo) and r.status != ZERO_PROGRESS for r in results]
    posteriors = [r.posterior if k else FramePosterior(model.alpha, model.alpha)
                  for r, k in zip(results, inferred)]

    recon = reconstruct_point(model, np.stack([p.nu / p.rho for p in posteriors], axis=1))
    recon[mask.kept] = observed
    out = Spectrogram(recon, spec.kind, spec.sample_rate, spec.n_fft, spec.hop)
    return BweResult(out, posteriors, [r.status for r in results], inferred.count(False))
