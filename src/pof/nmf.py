"""NMF baselines with multiplicative updates, and NMF bandwidth expansion.

Two divergences: generalized Kullback-Leibler on magnitude spectra and
Itakura-Saito on power spectra. Both use the standard multiplicative
update rules, which keep every entry non-negative and never increase the
cost; iteration stops when the relative cost decrease drops below rel_tol
(0.01% by default, matching the EM stopping rule).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import BandMask, Spectrogram, _read_json_doc, _write_json_doc, check_spectrum

__all__ = [
    "NmfModel",
    "NmfFit",
    "nmf_fit",
    "nmf_encode",
    "nmf_expand",
    "save_nmf_model",
    "load_nmf_model",
]

logger = logging.getLogger(__name__)

EPS = 1e-12
DIVERGENCES = ("kl", "is")
NMF_FORMAT = "pof-nmf"
NMF_VERSION = 1

_STREAM_NMF = 0xA0


@dataclass(frozen=True)
class NmfModel:
    V: np.ndarray          # (F, K) dictionary
    divergence: str        # "kl" | "is"

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        if V.ndim != 2:
            raise ValidationError("V must be 2-D")
        if not np.all(np.isfinite(V)) or np.any(V < 0):
            raise ValidationError("V must be finite and non-negative")
        if np.any(V.sum(axis=0) == 0):
            raise ValidationError("V must not contain an all-zero column")
        if self.divergence not in DIVERGENCES:
            raise ValidationError(f"divergence must be one of {DIVERGENCES}")
        V.flags.writeable = False
        object.__setattr__(self, "V", V)

    @property
    def n_bins(self) -> int:
        return self.V.shape[0]

    @property
    def K(self) -> int:
        return self.V.shape[1]


@dataclass
class NmfFit:
    H: np.ndarray              # (K, T) activations
    cost_trace: list[float]


def _kl_cost(W: np.ndarray, R: np.ndarray) -> float:
    R = np.maximum(R, EPS)
    wlog = np.where(W > 0, W * np.log(np.maximum(W, EPS) / R), 0.0)
    return float(np.sum(wlog - W + R))


def _is_cost(W: np.ndarray, R: np.ndarray) -> float:
    W = np.maximum(W, EPS)
    R = np.maximum(R, EPS)
    ratio = W / R
    return float(np.sum(ratio - np.log(ratio) - 1.0))


def _cost(W, V, H, divergence) -> float:
    R = V @ H
    return _kl_cost(W, R) if divergence == "kl" else _is_cost(W, R)


def _update_kl(W, V, H, update_v: bool):
    if update_v:
        R = np.maximum(V @ H, EPS)
        V = V * ((W / R) @ H.T) / np.maximum(H.sum(axis=1), EPS)
    R = np.maximum(V @ H, EPS)
    H = H * (V.T @ (W / R)) / np.maximum(V.sum(axis=0)[:, None], EPS)
    return V, H

def _update_is(W, V, H, update_v: bool):
    if update_v:
        R = np.maximum(V @ H, EPS)
        V = V * ((R**-2 * W) @ H.T) / np.maximum(R**-1 @ H.T, EPS)
    R = np.maximum(V @ H, EPS)
    H = H * (V.T @ (R**-2 * W)) / np.maximum(V.T @ R**-1, EPS)
    return V, H


def _run_updates(W, V, H, divergence, rel_tol, max_iters, update_v):
    if not 0 < rel_tol < np.inf:
        raise ValidationError("rel_tol must be positive and finite")
    update = _update_kl if divergence == "kl" else _update_is
    trace = [_cost(W, V, H, divergence)]
    for _ in range(max_iters):
        V, H = update(W, V, H, update_v)
        cost = _cost(W, V, H, divergence)
        prev = trace[-1]
        trace.append(cost)
        if prev - cost < rel_tol * abs(prev):
            break
    return V, H, trace


def nmf_fit(
    W,
    K: int,
    divergence: str = "kl",
    seed: int = 0,
    rel_tol: float = 1e-4,
    max_iters: int = 500,
    V0: np.ndarray | None = None,
    H0: np.ndarray | None = None,
) -> tuple[NmfModel, NmfFit]:
    """Factor W into a dictionary V and activations H by multiplicative updates."""
    if divergence not in DIVERGENCES:
        raise ValidationError(f"divergence must be one of {DIVERGENCES}")
    data = check_spectrum(W)
    if data.max() <= 0:
        raise ValidationError("cannot factor an all-zero spectrogram")
    F, T = data.shape
    if K < 1:
        raise ValidationError("K must be >= 1")
    if K > min(F, T):
        logger.warning("K=%d exceeds min(F, T)=%d; factorization is overcomplete",
                       K, min(F, T))
    rng = np.random.default_rng([int(seed), _STREAM_NMF])
    V = np.array(V0, dtype=float) if V0 is not None else rng.uniform(0.1, 1.1, (F, K))
    H = np.array(H0, dtype=float) if H0 is not None else rng.uniform(0.1, 1.1, (K, T))
    if V.shape != (F, K) or H.shape != (K, T):
        raise ValidationError("V0/H0 shapes do not match (F, K) / (K, T)")
    V, H, trace = _run_updates(data, V, H, divergence, rel_tol, max_iters, update_v=True)
    return NmfModel(V, divergence), NmfFit(H, trace)


def nmf_encode(
    W_bl,
    model: NmfModel,
    mask: BandMask,
    seed: int = 0,
    rel_tol: float = 1e-4,
    max_iters: int = 500,
    H0: np.ndarray | None = None,
) -> np.ndarray:
    """Infer activations for band-limited data with the dictionary fixed.

    Only the masked rows of V participate; the same multiplicative H update
    and stopping rule as nmf_fit apply.
    """
    V_bl = mask.select(model.V, model.n_bins)
    if np.any(V_bl.sum(axis=0) == 0):
        raise ValidationError("masked dictionary has an all-zero column")
    data = mask.select(check_spectrum(W_bl), model.n_bins)
    T = data.shape[1]
    rng = np.random.default_rng([int(seed), _STREAM_NMF, 1])
    H = np.array(H0, dtype=float) if H0 is not None else rng.uniform(0.1, 1.1, (model.K, T))
    if H.shape != (model.K, T):
        raise ValidationError("H0 shape does not match (K, T)")
    _, H, _ = _run_updates(data, V_bl, H, model.divergence, rel_tol, max_iters,
                           update_v=False)
    return H


def nmf_expand(
    W_bl,
    model: NmfModel,
    mask: BandMask,
    seed: int = 0,
    rel_tol: float = 1e-4,
    max_iters: int = 500,
) -> Spectrogram:
    """Reconstruct the full band as V H_bl, passing observed rows through."""
    if not isinstance(W_bl, Spectrogram):
        raise ValidationError("nmf_expand needs a Spectrogram input")
    observed = mask.select(W_bl.data, model.n_bins)
    H = nmf_encode(observed, model, mask, seed=seed, rel_tol=rel_tol, max_iters=max_iters)
    recon = model.V @ H
    recon[mask.kept] = observed
    return Spectrogram(recon, W_bl.kind, W_bl.sample_rate, W_bl.n_fft, W_bl.hop)


def save_nmf_model(model: NmfModel, path) -> None:
    _write_json_doc({
        "format": NMF_FORMAT,
        "version": NMF_VERSION,
        "F": model.n_bins,
        "K": model.K,
        "divergence": model.divergence,
        "V": model.V.tolist(),
    }, path)


def load_nmf_model(path) -> NmfModel:
    doc = _read_json_doc(path, NMF_FORMAT, NMF_VERSION, {"V": ("F", "K")}, ("divergence",))
    return NmfModel(doc["V"], doc["divergence"])
