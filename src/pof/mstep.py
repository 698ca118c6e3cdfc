"""M-step objective, analytic gradients, and the variational EM driver.

The M-step maximizes Q(U, alpha, gamma) = sum_t E_q[log p(w_t, a_t | .)]
using the expected sufficient statistics from the E-step, one block at a
time:

  * U row by row with L-BFGS (rows are independent; the barrier
    U_fl > -min_t rho_lt keeps every stored posterior feasible, which is
    what makes the next E-step's warm start safe),
  * alpha, then gamma, in closed form up to a 1-D equation: each entry
    solves log x - psi(x) = c for its own constant c, by Minka's
    generalised Newton iteration ("Estimating a Gamma distribution", 2002).

Block order is U, alpha, gamma; each block only ever improves Q (the shape
blocks are concave and solved exactly), so the whole M-step is monotone and
fit()'s ELBO trace is non-decreasing.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .estep import floor_observations, infer_frames
from .model import FramePosterior, ModelMeta, PoFModel, Spectrogram
from .optim import LbfgsConfig, minimize
from .specfn import _digamma, _ln_gamma, _trigamma

__all__ = ["SufficientStats", "EmConfig", "q_objective", "grad_u_row",
           "grad_alpha", "grad_gamma", "mstep", "fit"]

logger = logging.getLogger(__name__)

_STREAM_UINIT = 0xF0

# Generalised-Newton steps for log x - psi(x) = c. From Minka's initial
# value, three reach round-off for every c in [1e-12, 1e10]; one more is
# margin.
_SHAPE_NEWTON_STEPS = 4


@dataclass
class SufficientStats:
    """Expected sufficient statistics of the activations for all frames."""

    nu: np.ndarray                # (L, T) posterior shapes
    rho: np.ndarray               # (L, T) posterior rates
    expect_a: np.ndarray          # (L, T)
    expect_log_a: np.ndarray      # (L, T)
    posteriors: list[FramePosterior]

    @classmethod
    def from_posteriors(cls, posteriors: list[FramePosterior]) -> "SufficientStats":
        if not posteriors:
            raise ValidationError("need at least one posterior")
        nu = np.stack([p.nu for p in posteriors], axis=1)
        rho = np.stack([p.rho for p in posteriors], axis=1)
        return cls(
            nu=nu,
            rho=rho,
            expect_a=nu / rho,
            expect_log_a=_digamma(nu) - np.log(rho),
            posteriors=list(posteriors),
        )


@dataclass(frozen=True)
class EmConfig:
    L: int = 50
    rel_tol: float = 1e-4          # stop when the bound grows by < 0.01%
    max_em_iters: int = 200
    seed: int = 0
    inner: LbfgsConfig = field(default_factory=LbfgsConfig)

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValidationError("rel_tol must be positive")
        if self.L < 1 or self.max_em_iters < 1:
            raise ValidationError("L and max_em_iters must be >= 1")


def _as_data(W) -> np.ndarray:
    data = np.asarray(getattr(W, "data", W), dtype=float)
    if data.ndim != 2:
        raise ValidationError("W must be 2-D (bins x frames)")
    return data


def _check_shapes(W: np.ndarray, model: PoFModel, stats: SufficientStats) -> None:
    F, T = W.shape
    L = model.n_filters
    if F != model.n_bins:
        raise ValidationError(f"W has {F} bins, model expects {model.n_bins}")
    if stats.expect_a.shape != (L, T) or stats.expect_log_a.shape != (L, T):
        raise ValidationError("sufficient statistics do not match model/data dims")


def _log_mgf_sums(U: np.ndarray, nu: np.ndarray, rho: np.ndarray) -> np.ndarray | None:
    """S[f, t] = sum_l -nu_lt log1p(U_fl / rho_lt), or None if infeasible."""
    S = np.zeros((U.shape[0], nu.shape[1]))
    for l in range(U.shape[1]):
        ratio = U[:, l, None] / rho[l]           # (F, T)
        if np.any(ratio <= -1.0):
            return None
        S -= nu[l] * np.log1p(ratio)
    return S


def _alpha_c(stats: SufficientStats) -> np.ndarray:
    """c in dQ/d alpha = T (log alpha - psi(alpha) - c)."""
    T = stats.expect_a.shape[1]
    return (stats.expect_a.sum(axis=1) - stats.expect_log_a.sum(axis=1)) / T - 1.0


def _gamma_c(W: np.ndarray, U: np.ndarray, stats: SufficientStats) -> np.ndarray | None:
    """c in dQ/d gamma = T (log gamma - psi(gamma) - c); None if infeasible."""
    S = _log_mgf_sums(U, stats.nu, stats.rho)
    if S is None:
        return None
    with np.errstate(over="ignore"):
        recon = np.exp(S)
    T = W.shape[1]
    return ((U @ stats.expect_a).sum(axis=1) + (W * recon).sum(axis=1)
            - np.log(W).sum(axis=1)) / T - 1.0


def _shape_q(x: np.ndarray, c: np.ndarray, T: int) -> np.ndarray:
    """The terms of Q in each shape entry x, given its c from _alpha_c or
    _gamma_c; concave in x, with derivative T (log x - psi(x) - c)."""
    return T * (x * np.log(x) - _ln_gamma(x) - (c + 1.0) * x)


def q_objective(W, model: PoFModel, stats: SufficientStats) -> float:
    """Q(U, alpha, gamma): the E-step bound minus the posterior entropy."""
    W = _as_data(W)
    _check_shapes(W, model, stats)
    if np.any(W <= 0):
        raise ValidationError("W entries must be positive (apply floor_observations)")
    c_gamma = _gamma_c(W, model.U, stats)
    if c_gamma is None:
        return -math.inf
    T = W.shape[1]
    total = (
        float(np.sum(_shape_q(model.gamma, c_gamma, T))) - float(np.log(W).sum())
        + float(np.sum(_shape_q(model.alpha, _alpha_c(stats), T)))
        - float(stats.expect_log_a.sum())
    )
    return total if math.isfinite(total) else -math.inf


def _u_row_q(u, w_f, gamma_f, stats: SufficientStats, sum_ea):
    """The terms of Q that depend on row u of U, and their gradient.

    Returns (-inf, None) when u is infeasible for the stored posteriors or
    the reconstruction overflows.
    """
    ratio = u[:, None] / stats.rho              # (L, T)
    if np.any(ratio <= -1.0):
        return -math.inf, None
    S = -np.sum(stats.nu * np.log1p(ratio), axis=0)   # (T,)
    with np.errstate(over="ignore"):
        w_recon = w_f * np.exp(S)
    q = gamma_f * (-float(u @ sum_ea) - float(w_recon.sum()))
    if not math.isfinite(q):
        return -math.inf, None
    ea = stats.expect_a
    return q, gamma_f * (-sum_ea + (ea * (w_recon / (1.0 + ratio))).sum(axis=1))


def grad_u_row(f: int, W, model: PoFModel, stats: SufficientStats) -> np.ndarray:
    """dQ/dU_f: gradient of Q restricted to row f of U.

    Row gradients are independent across f; perturbing any other row leaves
    this one unchanged.
    """
    W = _as_data(W)
    _check_shapes(W, model, stats)
    _, grad = _u_row_q(model.U[f], W[f], model.gamma[f], stats,
                       stats.expect_a.sum(axis=1))
    if grad is None:
        raise NumericalError(f"U row {f} is infeasible for the stored posteriors")
    return grad


def _solve_shape(c: np.ndarray) -> np.ndarray:
    """x > 0 with log x - psi(x) = c, elementwise; every c must be > 0.

    Minka's initial value, then generalised Newton steps on 1/x.
    """
    x = (3.0 - c + np.sqrt((c - 3.0) ** 2 + 24.0 * c)) / (12.0 * c)
    for _ in range(_SHAPE_NEWTON_STEPS):
        x = 1.0 / (1.0 / x + (np.log(x) - _digamma(x) - c)
                   / (x * x * (1.0 / x - _trigamma(x))))
    return x


def _update_shape(x0: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Maximise _shape_q(x, c, T) entrywise.

    An entry whose c is <= 0 or not finite has no finite maximiser (the
    objective rises towards x = inf), so it keeps its previous value.
    """
    x = x0.copy()
    ok = np.isfinite(c) & (c > 0)
    x[ok] = _solve_shape(c[ok])
    return x


def grad_alpha(W, model: PoFModel, stats: SufficientStats) -> np.ndarray:
    """dQ/d alpha_l = sum_t (log a_l + 1 - psi(a_l) + E[log a_lt] - E[a_lt])."""
    W = _as_data(W)
    _check_shapes(W, model, stats)
    alpha = model.alpha
    return W.shape[1] * (np.log(alpha) - _digamma(alpha) - _alpha_c(stats))


def grad_gamma(W, model: PoFModel, stats: SufficientStats) -> np.ndarray:
    """dQ/d gamma_f, summed over frames."""
    W = _as_data(W)
    _check_shapes(W, model, stats)
    c = _gamma_c(W, model.U, stats)
    if c is None:
        raise NumericalError("gradient requested at an infeasible point")
    gamma = model.gamma
    return W.shape[1] * (np.log(gamma) - _digamma(gamma) - c)


def _optimize_u_row(f, w_f, u0, gamma_f, stats, sum_ea, cfg) -> np.ndarray:
    """Maximize the row-f block of Q over u; returns the new row."""

    def f_and_grad(u):
        q, grad = _u_row_q(u, w_f, gamma_f, stats, sum_ea)
        if grad is None:
            return math.inf, np.zeros_like(u)
        return -q, -grad

    try:
        res = minimize(f_and_grad, u0, cfg)
    except NumericalError as exc:
        logger.warning("U row %d update failed (%s); keeping previous values", f, exc)
        return u0
    return res.x


def mstep(
    W,
    model: PoFModel,
    stats: SufficientStats,
    cfg: LbfgsConfig = LbfgsConfig(),
    *,
    frozen_rows: frozenset[int] = frozenset(),
) -> PoFModel:
    """One full M-step; never decreases Q. Rows in frozen_rows keep their
    U and gamma values (used for all-silent frequency bins)."""
    W = _as_data(W)
    _check_shapes(W, model, stats)
    if np.any(W <= 0):
        raise ValidationError("W entries must be positive (apply floor_observations)")
    sum_ea = stats.expect_a.sum(axis=1)

    U_new = model.U.copy()
    for f in range(W.shape[0]):
        if f not in frozen_rows:
            U_new[f] = _optimize_u_row(f, W[f], model.U[f], model.gamma[f], stats,
                                       sum_ea, cfg)

    alpha_new = _update_shape(model.alpha, _alpha_c(stats))

    c = _gamma_c(W, U_new, stats)
    if c is None:  # cannot happen when rows came back feasible; keep old gamma
        logger.warning("gamma update skipped: infeasible reconstruction")
        gamma_new = model.gamma.copy()
    else:
        gamma_new = _update_shape(model.gamma, c)
        for f in frozen_rows:
            gamma_new[f] = model.gamma[f]

    return PoFModel(U_new, alpha_new, gamma_new, model.meta)


def fit(
    W,
    cfg: EmConfig = EmConfig(),
    *,
    threads: int = 1,
    log_sink=None,
) -> tuple[PoFModel, list[float]]:
    """Variational EM: alternate per-frame inference and M-steps.

    Stops when the total bound grows by less than cfg.rel_tol (relative) or
    after cfg.max_em_iters iterations. Returns the fitted model and the
    per-iteration total-ELBO trace (non-decreasing up to float noise).

    threads is the E-step's worker count; the M-step runs serially.
    log_sink, when given, receives one formatted line per EM iteration: the
    bound, its growth, the E-step seconds (secs=) and the seconds of the
    M-step that produced this iteration's model (mstep_secs=, 0 at first).
    """
    raw = _as_data(W)
    if raw.shape[1] < 2:
        raise ValidationError("need at least 2 frames to fit")
    if raw.max() == raw.min():
        warnings.warn("input spectrogram is constant; fit will proceed but the "
                      "decomposition is degenerate", stacklevel=2)
    data = floor_observations(raw)
    F, T = data.shape
    zero_rows = frozenset(int(f) for f in np.flatnonzero(raw.max(axis=1) <= 0))
    if zero_rows:
        warnings.warn(f"{len(zero_rows)} all-zero frequency rows are frozen at "
                      "U=0, gamma=1", stacklevel=2)

    if isinstance(W, Spectrogram):
        meta = ModelMeta(sample_rate=W.sample_rate, n_fft=W.n_fft, created_by="pof.fit")
    else:
        meta = ModelMeta(created_by="pof.fit")

    rng = np.random.default_rng([int(cfg.seed), _STREAM_UINIT])
    U = rng.normal(0.0, 0.01, size=(F, cfg.L))
    for f in zero_rows:
        U[f] = 0.0
    model = PoFModel(U, np.ones(cfg.L), np.ones(F), meta)

    trace: list[float] = []
    warm: list[FramePosterior] | None = None
    prev = None
    mstep_secs = 0.0
    for it in range(1, cfg.max_em_iters + 1):
        t0 = time.perf_counter()
        results = infer_frames(
            data, model, cfg.inner, seed=cfg.seed, init=warm, threads=threads
        )
        total = float(sum(r.elbo for r in results))
        trace.append(total)
        delta = total - prev if prev is not None else math.nan
        if log_sink is not None:
            log_sink(
                f"iter={it} elbo={total:.10e} delta={delta:.6e} "
                f"secs={time.perf_counter() - t0:.3f} mstep_secs={mstep_secs:.3f}"
            )
        if prev is not None and total - prev <= cfg.rel_tol * abs(prev):
            break
        prev = total
        warm = [r.posterior for r in results]
        stats = SufficientStats.from_posteriors(warm)
        t0 = time.perf_counter()
        model = mstep(data, model, stats, cfg.inner, frozen_rows=zero_rows)
        mstep_secs = time.perf_counter() - t0
    return model, trace
