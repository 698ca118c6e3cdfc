"""Mean-field posterior inference over spectrogram frames.

For one observed spectrum w the variational family is a fully factorized
product of gammas q(a_l) = Gamma(nu_l, rho_l). The evidence lower bound

    L(nu, rho) = E_q[log p(w, a | U, alpha, gamma)] + H[q]

is evaluated with *all* constant terms included so that EM monotonicity is
directly measurable, and is -inf exactly when some U_fl <= -rho_l (the
moment-generating function of the gamma diverges there, so the barrier is
part of the objective rather than a constraint). Its shape terms
(alpha - nu) psi(nu) + log Gamma(nu) + nu are formed as
alpha psi(nu) + h(nu) with h from specfn._gamma_fns, as are their
derivatives; summed as written, terms of size nu log nu cancel, and at
nu = 1e18 the bound of a frame would be off by thousands of nats.

Frames are independent. infer_frames solves the frames of a chunk together
with the batched damped Newton of pof.optim.minimize, in the plain
(nu, rho) coordinates, over the box nu > 0, rho > rho_min with
rho_min = max(0, -min_f U_fl). The bound is not concave, so the solver's
modified Newton step is what makes every step a descent step. Each frame is
solved to round-off and keeps the status its solve ended with; a frame
that reports "zero_progress" still holds its start, not an inferred
posterior. Every reduction over a frame's terms stays within that frame,
so a frame's result does not depend on the frames that share its chunk.
The default start lies at least rho_min inside the barrier
(default_posterior_init).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model import FramePosterior, PoFModel, check_spectrum
from .optim import FAILED_START, chunks, minimize
from .specfn import _gamma_fns, _ln_gamma

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


def floor_observations(W) -> np.ndarray:
    """W, a Spectrogram or an array, floored at OBS_FLOOR_REL times its
    maximum. W must pass check_spectrum (2-D, non-empty, finite,
    non-negative) and hold a positive entry, else ValidationError."""
    data = check_spectrum(W)
    top = data.max()
    if top <= 0:
        raise ValidationError("cannot floor an all-zero spectrogram")
    return np.maximum(data, OBS_FLOOR_REL * top)


def _check_frame(w, model: PoFModel) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (model.n_bins,):
        raise ValidationError(f"frame length {w.shape} does not match F={model.n_bins}")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValidationError("frame entries must be positive (apply floor_observations)")
    return w


class _Frames:
    """The bound of a stack of frames, the rows of w (n, F), under one
    model, with every term that does not depend on (nu, rho) computed once.
    """

    def __init__(self, w: np.ndarray, model: PoFModel):
        gamma, alpha = model.gamma, model.alpha
        self.U = model.U
        self.alpha = alpha
        self.gu = gamma @ model.U                         # (L,)
        self.gw = gamma * w                               # (n, F)
        self.const = (
            float(np.sum(gamma * np.log(gamma) - _ln_gamma(gamma)))
            + float(np.sum(alpha * np.log(alpha) - _ln_gamma(alpha)))
            + ((gamma - 1.0) * np.log(w)).sum(axis=1)
        )
        rho_min = np.maximum(0.0, -model.U.min(axis=0))
        self.lower = np.concatenate((np.zeros_like(rho_min), rho_min))

    def bound(self, x: np.ndarray, derivs: bool = False):
        """L at each row (nu, rho) of x (n, 2L), and with derivs its
        gradient (n, 2L) and Hessian (n, 2L, 2L).

        A row outside the box nu > 0, rho > rho_min, or whose bound (or,
        with derivs, whose gradient or Hessian) is not finite, has bound
        -inf and NaN derivatives.
        """
        n, L = x.shape[0], self.U.shape[1]
        value = np.full(n, -math.inf)
        grad = np.full((n, 2 * L), math.nan)
        hess = np.full((n, 2 * L, 2 * L), math.nan)
        ok = np.flatnonzero(np.all(x > self.lower, axis=1))
        if ok.size == 0:
            return value, grad, hess
        U, alpha, gu = self.U, self.alpha, self.gu
        nu, rho = x[ok, :L], x[ok, L:]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ratio = U / rho[:, None, :]                   # (m, F, L)
            log1p_r = np.log1p(ratio)
            # c_f = gamma_f w_f exp(S_f), S_f = -sum_l nu_l log1p(U_fl / rho_l)
            c = self.gw[ok] * np.exp(-(log1p_r * nu[:, None, :]).sum(axis=2))
            ea = nu / rho
            _, psi, psi1, psi2, ent, ent1, ent2 = _gamma_fns(nu, bound=True)
            v = (self.const[ok] - (gu * ea).sum(axis=1) - c.sum(axis=1)
                 + (alpha * psi + ent - alpha * (np.log(rho) + ea)).sum(axis=1))
            if not derivs:
                good = np.isfinite(v)
                value[ok[good]] = v[good]
                return value, grad, hess
            # jac = dS / d(nu, rho): -log1p(U / rho) and nu B / rho with
            # B = U / (rho + U)
            B = ratio / (1.0 + ratio)
            jac = np.concatenate((-log1p_r, ea[:, None, :] * B), axis=2)
            cj = c[:, :, None] * jac
            g = -cj.sum(axis=1)
            h = -(cj.transpose(0, 2, 1) @ jac)
            # minus sum_f c_f times the second derivatives of S_f:
            # d2S / dnu drho = B / rho, d2S / drho^2 = -nu B (2 - B) / rho^2
            d_nu_rho = g[:, L:] / nu
            d_rho_rho = (cj[:, :, L:] * (2.0 - B)).sum(axis=1) / rho
            k = (gu + alpha) / (rho * rho)
            g[:, :L] += alpha * psi1 + ent1 - (gu + alpha) / rho
            g[:, L:] += k * nu - alpha / rho
            i, j = np.arange(L), np.arange(L, 2 * L)
            h[:, i, i] += alpha * psi2 + ent2
            h[:, i, j] += d_nu_rho + k
            h[:, j, i] += d_nu_rho + k
            h[:, j, j] += d_rho_rho + alpha / (rho * rho) - 2.0 * k * ea
        good = np.isfinite(v) & np.all(np.isfinite(g), axis=1) & np.all(
            np.isfinite(h), axis=(1, 2))
        value[ok[good]], grad[ok[good]], hess[ok[good]] = v[good], g[good], h[good]
        return value, grad, hess

    def objective(self, x: np.ndarray):
        """-L, its gradient and its Hessian: the function minimize solves."""
        value, grad, hess = self.bound(x, derivs=True)
        return -value, -grad, -hess


def elbo(w, model: PoFModel, post: FramePosterior) -> float:
    """Variational lower bound for one frame; -inf iff some U_fl <= -rho_l."""
    w = _check_frame(w, model)
    value, _, _ = _Frames(w[None], model).bound(np.concatenate((post.nu, post.rho))[None])
    return float(value[0])


def elbo_grad(w, model: PoFModel, post: FramePosterior) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (d/d nu, d/d rho) of the bound at a feasible point."""
    w = _check_frame(w, model)
    value, grad, _ = _Frames(w[None], model).bound(
        np.concatenate((post.nu, post.rho))[None], derivs=True)
    if not math.isfinite(value[0]):
        raise NumericalError("gradient requested at an infeasible point")
    L = model.n_filters
    return grad[0, :L], grad[0, L:]


def default_posterior_init(model: PoFModel, seed: int, frame: int) -> FramePosterior:
    """Diffuse Gamma(100, 100) draws of nu and rho, moved off the barrier.

    Where a draw of rho is below twice rho_min = max(0, -min_f U_fl), both
    nu and rho are scaled by 2 rho_min / rho: the mean nu / rho is kept and
    rho ends at least rho_min above the barrier, where the bound's gradient
    is moderate. Starting on the barrier instead gives gradients near 1e15
    and a first line search that may accept no step.
    """
    rng = np.random.default_rng([int(seed), _STREAM_EINIT, int(frame)])
    L = model.n_filters
    nu = rng.gamma(INIT_SHAPE, 1.0 / INIT_RATE, size=L)
    rho = rng.gamma(INIT_SHAPE, 1.0 / INIT_RATE, size=L)
    rho_min = np.maximum(0.0, -model.U.min(axis=0))
    scale = np.maximum(1.0, 2.0 * rho_min / rho)
    return FramePosterior(nu * scale, rho * scale)


def _solve(data: np.ndarray, model: PoFModel,
           starts: list[FramePosterior]) -> list[FrameResult]:
    """Infer every column of data (F, T) from its start, one minimize call
    per chunk of frames."""
    F, L = model.U.shape
    if any(p.nu.size != L for p in starts):
        raise ValidationError(f"initial posteriors must have L={L} entries")
    x0 = np.array([np.concatenate((p.nu, p.rho)) for p in starts])
    results = []
    # a solve holds about seven float blocks of (F + 4 L) L per frame: the
    # bound's (F, L) terms and the (2L, 2L) Hessians (measured at F=48 and
    # F=129, L=20)
    for idx in chunks(np.arange(data.shape[1]), 7 * 8 * L * (F + 4 * L)):
        frames = _Frames(np.ascontiguousarray(data[:, idx].T), model)
        res = minimize(frames.objective, x0[idx], frames.lower)
        results += [FrameResult(FramePosterior(x[:L], x[L:]), float(-f), str(status))
                    for x, f, status in zip(res.x, res.f, res.row_status)]
    return results


def infer_frame(w, model: PoFModel, init: FramePosterior) -> tuple[FramePosterior, float]:
    """Optimize (nu, rho) for one frame; returns the posterior and its bound.

    Raises NumericalError when the start is infeasible.
    """
    (result,) = _solve(_check_frame(w, model)[:, None], model, [init])
    if result.status == FAILED_START:
        raise NumericalError("initial posterior is infeasible for this model")
    return result.posterior, result.elbo


def infer_frames(
    W,
    model: PoFModel,
    *,
    seed: int = 0,
    init: list[FramePosterior] | None = None,
    threads: int = 1,
) -> list[FrameResult]:
    """Independent per-frame inference over a spectrogram.

    Observations are floored on entry. Frame t starts from init[t], or from
    default_posterior_init(model, seed, t). A frame whose start is
    infeasible keeps it, with bound -inf and status FAILED_START. threads
    is accepted and ignored: all frames of a chunk are solved as one
    batched array in one thread. It remains for callers written for the
    former thread-pool E-step, such as the benchmark, until they drop it.
    """
    data = floor_observations(W)
    if data.shape[0] != model.n_bins:
        raise ValidationError(
            f"spectrogram has {data.shape[0]} bins, model expects {model.n_bins}"
        )
    T = data.shape[1]
    if init is not None and len(init) != T:
        raise ValidationError("init list length must equal the number of frames")
    starts = init if init is not None else [
        default_posterior_init(model, seed, t) for t in range(T)]
    return _solve(data, model, starts)


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
