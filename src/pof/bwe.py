"""Bandwidth expansion: infer activations from band-limited spectra and
reconstruct the full band.

Inference runs on the band-limited rows of U and gamma only; the
reconstruction then combines the posterior-mean activations with the
full-band filters. The default point estimate is taken in the log-spectral
domain, exp(U E[a]), which is the more stable of the two candidates and
matches how loudness is perceived; the alternative product-of-MGFs
estimate is available behind the mode flag. Observed bins are passed
through unmodified: only missing content is synthesized. An audio clip
is analysed at the model's n_fft with hop n_fft/2, the framing the
model's training spectrograms are assumed to have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import AudioClip, StftConfig, stft_magnitude
from .errors import NumericalError, ValidationError
from .estep import infer_frames
from .model import BandMask, FramePosterior, PoFModel, Spectrogram
from .optim import ZERO_PROGRESS

__all__ = ["BweResult", "restrict_model", "expand", "reconstruct_point"]

RECON_MODES = ("log_domain", "mgf")


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


def reconstruct_point(model: PoFModel, post: FramePosterior, mode: str = "log_domain") -> np.ndarray:
    """Point estimate of one frame's full-band spectrum from its posterior.

    log_domain: exp(U E[a]). mgf: prod_l E[exp(U_fl a_l)], which requires
    U_fl < rho_l everywhere (the positive-exponent twin of the inference
    barrier) and errors out naming the first offending (f, l) otherwise.
    """
    if mode not in RECON_MODES:
        raise ValidationError(f"mode must be one of {RECON_MODES}")
    if post.nu.shape[0] != model.n_filters:
        raise ValidationError("posterior length does not match model filters")
    if mode == "log_domain":
        return np.exp(model.U @ (post.nu / post.rho))
    infeasible = model.U >= post.rho
    if np.any(infeasible):
        f, l = np.argwhere(infeasible)[0]
        raise NumericalError(
            f"mgf reconstruction infeasible: U[{f},{l}]={model.U[f, l]:.6g} "
            f">= rho[{l}]={post.rho[l]:.6g}"
        )
    return np.exp(-(np.log1p(-model.U / post.rho) @ post.nu))


def expand(
    source,
    model: PoFModel,
    mask: BandMask,
    *,
    seed: int = 0,
    mode: str = "log_domain",
) -> BweResult:
    """Infer activations from the band-limited observation and fill the band.

    source is an AudioClip (analysed with the model's n_fft and hop n_fft/2)
    or a Spectrogram at the model's n_fft carrying either all F rows or
    exactly the masked rows, either at the model's sample rate. Frames
    whose inference fails (a non-finite bound) or makes no progress (status
    ZERO_PROGRESS, whose posterior is only its random start) fall back to
    the prior-mean posterior (E[a] = 1), i.e. the model's mean log-spectrum.
    """
    if mode not in RECON_MODES:
        raise ValidationError(f"mode must be one of {RECON_MODES}")
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
    results = infer_frames(observed, sub, seed=seed)
    inferred = [math.isfinite(r.elbo) and r.status != ZERO_PROGRESS for r in results]
    posteriors = [r.posterior if k else FramePosterior(model.alpha, model.alpha)
                  for r, k in zip(results, inferred)]

    recon = np.column_stack([reconstruct_point(model, p, mode) for p in posteriors])
    recon[mask.kept] = observed
    out = Spectrogram(recon, spec.kind, spec.sample_rate, spec.n_fft, spec.hop)
    return BweResult(out, posteriors, [r.status for r in results], inferred.count(False))
