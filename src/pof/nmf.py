"""NMF baselines with multiplicative updates, and NMF bandwidth expansion.

Two divergences: generalized Kullback-Leibler on magnitude spectra and
Itakura-Saito on power spectra. Both use the standard multiplicative
update rules, which keep every entry non-negative and never increase the
cost; iteration stops when the relative cost decrease drops below rel_tol
(0.01% by default, matching the EM stopping rule).

Each half-update forms the reconstruction R = max(V H, EPS) once, so an
iteration of nmf_fit (V, then H) forms V H twice and one of nmf_encode (H
alone) once; the cost of each iterate is read off the R that the next
update starts from.

Both entry points draw their start from the seed and run _run_updates;
nmf_encode, and so nmf_expand, stops after at most _MAX_ITERS iterations.
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
_MAX_ITERS = 500


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


def _reconstruct(V, H) -> np.ndarray:
    """R = max(V H, EPS), the reconstruction every update and cost reads."""
    R = V @ H
    return np.maximum(R, EPS, out=R)


def _cost_of(W, divergence):
    """The cost of an iterate as a function of its reconstruction R.

    KL is sum(W log W - W) - <W, log R> + sum(R), with W log W = 0 where
    W = 0; its first term does not depend on R and is summed here once.
    IS is sum(r - log r - 1) over r = W / R, with W floored at EPS.
    """
    if divergence == "kl":
        constant = float(np.sum(W * np.log(np.where(W > 0, W, 1.0)) - W))
        return lambda R: constant - float(np.vdot(W, np.log(R))) + float(np.sum(R))
    W = np.maximum(W, EPS)

    def is_cost(R):
        ratio = W / R
        return float(np.sum(ratio) - np.sum(np.log(ratio))) - ratio.size
    return is_cost


def _update_kl(W, V, H, R, update_v: bool):
    if update_v:
        V = V * ((W / R) @ H.T) / np.maximum(H.sum(axis=1), EPS)
        R = _reconstruct(V, H)
    H = H * (V.T @ (W / R)) / np.maximum(V.sum(axis=0)[:, None], EPS)
    return V, H


def _update_is(W, V, H, R, update_v: bool):
    # R^-2 as the square of R^-1: numpy's general power is five times slower
    if update_v:
        inv = 1.0 / R
        V = V * ((inv * inv * W) @ H.T) / np.maximum(inv @ H.T, EPS)
        R = _reconstruct(V, H)
    inv = 1.0 / R
    H = H * (V.T @ (inv * inv * W)) / np.maximum(V.T @ inv, EPS)
    return V, H


def _run_updates(W, V, H, divergence, rel_tol, max_iters, update_v):
    """Multiplicative updates from (V, H) until the relative cost decrease
    falls below rel_tol: (V, H, the cost of every iterate from the start).
    Each iterate's reconstruction serves both its cost and the next update."""
    if not 0 < rel_tol < np.inf:
        raise ValidationError("rel_tol must be positive and finite")
    update = _update_kl if divergence == "kl" else _update_is
    cost = _cost_of(W, divergence)
    R = _reconstruct(V, H)
    trace = [cost(R)]
    for _ in range(max_iters):
        V, H = update(W, V, H, R, update_v)
        R = _reconstruct(V, H)
        prev = trace[-1]
        trace.append(cost(R))
        if prev - trace[-1] < rel_tol * abs(prev):
            break
    return V, H, trace


def nmf_fit(
    W,
    K: int,
    divergence: str = "kl",
    seed: int = 0,
    rel_tol: float = 1e-4,
    max_iters: int = _MAX_ITERS,
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
    V = rng.uniform(0.1, 1.1, (F, K))
    H = rng.uniform(0.1, 1.1, (K, T))
    V, H, trace = _run_updates(data, V, H, divergence, rel_tol, max_iters, update_v=True)
    return NmfModel(V, divergence), NmfFit(H, trace)


def nmf_encode(
    W_bl,
    model: NmfModel,
    mask: BandMask,
    seed: int = 0,
    rel_tol: float = 1e-4,
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
    H = rng.uniform(0.1, 1.1, (model.K, T))
    _, H, _ = _run_updates(data, V_bl, H, model.divergence, rel_tol, _MAX_ITERS,
                           update_v=False)
    return H


def nmf_expand(
    W_bl,
    model: NmfModel,
    mask: BandMask,
    seed: int = 0,
    rel_tol: float = 1e-4,
) -> Spectrogram:
    """Reconstruct the full band as V H_bl, passing observed rows through."""
    if not isinstance(W_bl, Spectrogram):
        raise ValidationError("nmf_expand needs a Spectrogram input")
    observed = mask.select(W_bl.data, model.n_bins)
    H = nmf_encode(observed, model, mask, seed=seed, rel_tol=rel_tol)
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
