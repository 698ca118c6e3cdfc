"""Mean-field posterior inference for single frames.

For one observed spectrum w the variational family is a fully factorized
product of gammas q(a_l) = Gamma(nu_l, rho_l). The evidence lower bound

    L(nu, rho) = E_q[log p(w, a | U, alpha, gamma)] + H[q]

is evaluated with *all* constant terms included so that EM monotonicity is
directly measurable, and is -inf exactly when some U_fl <= -rho_l (the
moment-generating function of the gamma diverges there, so the barrier is
part of the objective rather than a constraint).

Optimization runs over (log nu, log rho) with L-BFGS; positivity comes for
free and the -inf barrier keeps rho away from the -min_f U_fl boundary.
Frames are independent, so inference over a spectrogram is a map over
frames whose result is bit-reproducible for any thread count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model import FramePosterior, PoFModel, Spectrogram
from .optim import LbfgsConfig, minimize
from .specfn import _digamma, _ln_gamma, _trigamma

__all__ = [
    "FrameResult",
    "elbo",
    "elbo_grad",
    "infer_frame",
    "infer_frames",
    "default_posterior_init",
    "floor_observations",
    "dump_posteriors",
]

# Observations are floored at this fraction of the spectrogram maximum so
# log W is finite on silent bins (the gamma likelihood has zero density at
# W = 0 for noise shapes > 1).
OBS_FLOOR_REL = 1e-10

# Default initialization: diffuse draws with unit mean.
INIT_SHAPE = 100.0
INIT_RATE = 100.0

_STREAM_EINIT = 0xE1


@dataclass
class FrameResult:
    """Outcome of inference on one frame."""

    posterior: FramePosterior
    elbo: float
    status: str


def floor_observations(data) -> np.ndarray:
    """Apply the relative observation floor to a non-negative array."""
    arr = np.asarray(getattr(data, "data", data), dtype=float)
    top = arr.max()
    if not np.isfinite(top) or top <= 0:
        raise ValidationError("cannot floor an all-zero or non-finite spectrogram")
    return np.maximum(arr, OBS_FLOOR_REL * top)


def _check_frame(w, model: PoFModel) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (model.n_bins,):
        raise ValidationError(f"frame length {w.shape} does not match F={model.n_bins}")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValidationError("frame entries must be positive (apply floor_observations)")
    return w


class _FrameProblem:
    """One frame's bound evaluation with (w, model)-only terms precomputed.

    Everything that does not depend on (nu, rho) — the gamma and alpha
    normalizers, gamma @ U, gamma * w — is hoisted out of the optimizer's
    inner loop.
    """

    def __init__(self, w, model: PoFModel):
        self.U = model.U
        self.alpha = model.alpha
        self.gamma = model.gamma
        self.w = w
        self.u_min = model.U.min(axis=0)                 # (L,) feasibility probe
        self.gu = model.gamma @ model.U                  # (L,)
        self.gw = model.gamma * w                        # (F,)
        self.const = float(
            np.sum(
                model.gamma * np.log(model.gamma)
                - _ln_gamma(model.gamma)
                + (model.gamma - 1.0) * np.log(w)
            )
            + np.sum(model.alpha * np.log(model.alpha) - _ln_gamma(model.alpha))
        )

    def value_and_grad(self, nu, rho, want_grad: bool):
        """Returns (value, d_nu, d_rho); gradients None when not requested
        or when the point is infeasible (value -inf)."""
        U, alpha = self.U, self.alpha
        if np.any(self.u_min <= -rho):
            return -math.inf, None, None
        with np.errstate(over="ignore"):
            ratio = U / rho                  # (F, L)
            log1p_r = np.log1p(ratio)
            log_mgf_sums = -(log1p_r @ nu)   # (F,)
            ea = nu / rho
            psi_nu = _digamma(nu)
            ela = psi_nu - np.log(rho)
            gw_prod = self.gw * np.exp(log_mgf_sums)   # overflow -> inf -> -inf bound
            value = (
                self.const
                - float(self.gu @ ea)
                - float(np.sum(gw_prod))
                + float(np.sum((alpha - 1.0) * ela - alpha * ea))
                + float(np.sum(nu - np.log(rho) + _ln_gamma(nu) + (1.0 - nu) * psi_nu))
            )
        if not math.isfinite(value):
            return -math.inf, None, None
        if not want_grad:
            return value, None, None
        with np.errstate(over="ignore"):
            d_nu = (
                log1p_r.T @ gw_prod
                - self.gu / rho
                + (alpha - nu) * _trigamma(nu)
                + 1.0
                - alpha / rho
            )
            d_rho = (nu / rho**2) * (self.gu - (U / (1.0 + ratio)).T @ gw_prod) + alpha * (
                nu / rho**2 - 1.0 / rho
            )
        return value, d_nu, d_rho


def elbo(w, model: PoFModel, post: FramePosterior) -> float:
    """Variational lower bound for one frame; -inf iff some U_fl <= -rho_l."""
    w = _check_frame(w, model)
    value, _, _ = _FrameProblem(w, model).value_and_grad(post.nu, post.rho, False)
    return value


def elbo_grad(w, model: PoFModel, post: FramePosterior) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (d/d nu, d/d rho) of the bound at a feasible point."""
    w = _check_frame(w, model)
    value, d_nu, d_rho = _FrameProblem(w, model).value_and_grad(post.nu, post.rho, True)
    if not math.isfinite(value):
        raise NumericalError("gradient requested at an infeasible point")
    return d_nu, d_rho


def default_posterior_init(model: PoFModel, seed: int, frame: int) -> FramePosterior:
    """Diffuse Gamma(100, 100) draws, lifted just enough to be feasible."""
    rng = np.random.default_rng([int(seed), _STREAM_EINIT, int(frame)])
    L = model.n_filters
    nu = rng.gamma(INIT_SHAPE, 1.0 / INIT_RATE, size=L)
    rho = rng.gamma(INIT_SHAPE, 1.0 / INIT_RATE, size=L)
    rho_min = np.maximum(0.0, -model.U.min(axis=0))
    rho = np.maximum(rho, rho_min * (1.0 + 1e-6) + 1e-12)
    return FramePosterior(nu, rho)


def infer_frame(
    w, model: PoFModel, init: FramePosterior, cfg: LbfgsConfig = LbfgsConfig()
) -> tuple[FramePosterior, float]:
    """Optimize (nu, rho) for one frame; returns the posterior and its bound."""
    result = _infer_frame_full(_check_frame(w, model), model, init, cfg)
    return result.posterior, result.elbo


def _infer_frame_full(w, model: PoFModel, init: FramePosterior, cfg: LbfgsConfig) -> FrameResult:
    L = model.n_filters
    if np.any(model.U <= -init.rho):
        raise NumericalError("initial posterior is infeasible for this model")
    problem = _FrameProblem(w, model)

    def f_and_grad(x):
        with np.errstate(over="ignore"):
            nu = np.exp(x[:L])
            rho = np.exp(x[L:])
        if not (np.all(np.isfinite(nu)) and np.all(np.isfinite(rho))) or np.any(
            nu == 0.0
        ) or np.any(rho == 0.0):
            return math.inf, np.zeros(2 * L)
        value, d_nu, d_rho = problem.value_and_grad(nu, rho, True)
        if not math.isfinite(value):
            return math.inf, np.zeros(2 * L)
        # minimize -L over (log nu, log rho); chain rule multiplies by nu, rho
        return -value, -np.concatenate((d_nu * nu, d_rho * rho))

    x0 = np.concatenate((np.log(init.nu), np.log(init.rho)))
    res = minimize(f_and_grad, x0, cfg)
    post = FramePosterior(np.exp(res.x[:L]), np.exp(res.x[L:]))
    return FrameResult(posterior=post, elbo=-res.f, status=res.status)


def infer_frames(
    W,
    model: PoFModel,
    cfg: LbfgsConfig = LbfgsConfig(),
    *,
    seed: int = 0,
    init: list[FramePosterior] | None = None,
    threads: int = 1,
) -> list[FrameResult]:
    """Independent per-frame inference over a spectrogram.

    Observations are floored on entry. Results are identical for any thread
    count and any execution order: each frame's task is self-contained and
    seeded by its own index.
    """
    data = floor_observations(W)
    if data.shape[0] != model.n_bins:
        raise ValidationError(
            f"spectrogram has {data.shape[0]} bins, model expects {model.n_bins}"
        )
    T = data.shape[1]
    if init is not None and len(init) != T:
        raise ValidationError("init list length must equal the number of frames")

    def task(t: int) -> FrameResult:
        start = init[t] if init is not None else default_posterior_init(model, seed, t)
        try:
            return _infer_frame_full(data[:, t], model, start, cfg)
        except NumericalError as exc:
            return FrameResult(posterior=start, elbo=-math.inf, status=f"failed: {exc}")

    if threads > 1 and T > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(task, range(T)))
    return [task(t) for t in range(T)]


def dump_posteriors(results: list[FrameResult], path) -> None:
    """Write the JSON posterior dump: [{frame, nu, rho, elbo}, ...].

    A bound that is not finite (a failed frame's -inf, a bound not computed)
    is written as null, so the file is strict JSON.
    """
    doc = [
        {
            "frame": t,
            "nu": [float(v) for v in r.posterior.nu],
            "rho": [float(v) for v in r.posterior.rho],
            "elbo": float(r.elbo) if math.isfinite(r.elbo) else None,
        }
        for t, r in enumerate(results)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, allow_nan=False)
        fh.write("\n")
