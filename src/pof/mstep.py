"""M-step objective, analytic gradients, and the variational EM driver.

The M-step maximizes Q(U, alpha, gamma) = sum_t E_q[log p(w_t, a_t | .)]
using the expected sufficient statistics from the E-step, one block at a
time:

  * U: Q splits into F independent row problems. Row f maximises
    Q_f(u) = -gamma_f phi_f(u), with
        phi_f(u) = u . sum_t E[a_t] + sum_t w_ft exp(S_ft),
        S_ft = -sum_l nu_lt log1p(u_l / rho_lt).
    Each -log1p of an affine function is convex and exp of a convex
    function is convex, so phi_f is convex on its feasible set
    u_l > -min_t rho_lt (and Q_f concave). With r_lt = rho_lt + u_l,
    g_lt = nu_lt / r_lt and E_ft = w_ft exp(S_ft):
        grad phi_f = sum_t E[a_t] - sum_t E_ft g_t,
        hess phi_f = sum_t E_ft (g_t g_t' + diag(nu_t / r_t^2)),
    which is positive definite whenever some E_ft > 0. The rows of a chunk
    are solved together by pof.optim.minimize, the damped Newton the
    E-step uses too; on this positive-definite Hessian its step is the
    plain Newton step (Boyd & Vandenberghe, Convex Optimization, 9.5). The
    box u > -min_t rho_t keeps every stored posterior feasible, which is
    what makes the next E-step's warm start safe.
  * alpha, then gamma, in closed form up to a 1-D equation: each entry
    solves log x - psi(x) = c for its own constant c, by Minka's
    generalised Newton iteration ("Estimating a Gamma distribution", 2002).

Block order is U, alpha, gamma; each block only ever improves Q (all three
are solved to round-off), so the whole M-step is monotone and fit()'s ELBO
trace is non-decreasing.

Every function here that takes W floors it on entry (_observed); the W
that fit passes on is floored already and comes through unchanged.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NumericalError, ValidationError
from .estep import floor_observations, infer_frames
from .model import FramePosterior, ModelMeta, PoFModel, Spectrogram, check_spectrum
from .optim import chunks, minimize
from .specfn import _digamma, _ln_gamma, _shape_eq

__all__ = ["SufficientStats", "EmConfig", "q_objective", "grad_u_row",
           "grad_alpha", "grad_gamma", "mstep", "fit"]

logger = logging.getLogger(__name__)

_STREAM_UINIT = 0xF0

# Generalised-Newton steps for log x - psi(x) = c. From Minka's initial
# value, three reach round-off for every c in [1e-14, 1e30]; one more is
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
    """Settings of fit. The E-step and every M-step block are solved to
    round-off, so there are no solver settings."""

    L: int = 50
    rel_tol: float = 1e-4          # stop when the bound grows by < 0.01%
    max_em_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:
            raise ValidationError("rel_tol must be positive and finite")
        if self.L < 1 or self.max_em_iters < 1:
            raise ValidationError("L and max_em_iters must be >= 1")


def _observed(W, model: PoFModel, stats: SufficientStats) -> np.ndarray:
    """W floored (floor_observations) and checked against the dimensions of
    the model and the statistics."""
    W = floor_observations(W)
    F, T = W.shape
    L = model.n_filters
    if F != model.n_bins:
        raise ValidationError(f"W has {F} bins, model expects {model.n_bins}")
    if stats.expect_a.shape != (L, T) or stats.expect_log_a.shape != (L, T):
        raise ValidationError("sufficient statistics do not match model/data dims")
    return W


def _alpha_c(stats: SufficientStats) -> np.ndarray:
    """c in dQ/d alpha = T (log alpha - psi(alpha) - c)."""
    T = stats.expect_a.shape[1]
    return (stats.expect_a.sum(axis=1) - stats.expect_log_a.sum(axis=1)) / T - 1.0


def _row_chunks(rows: np.ndarray, stats: SufficientStats) -> list[np.ndarray]:
    """rows split into the stacks minimize solves together: a solve holds
    about four (L, T) float blocks per row (measured at L=20, T=64)."""
    return chunks(rows, 4 * 8 * stats.expect_a.size)


def _gamma_c(W: np.ndarray, U: np.ndarray, stats: SufficientStats) -> np.ndarray | None:
    """c in dQ/d gamma = T (log gamma - psi(gamma) - c); None if infeasible.

    T (c_f + 1) = phi_f(U_f) - sum_t log w_ft (see _u_rows_phi); c_f is inf
    for a row whose reconstruction overflows.
    """
    if np.any(U <= -stats.rho.min(axis=1)):
        return None
    sum_ea = stats.expect_a.sum(axis=1)
    phi = np.empty(U.shape[0])
    for idx in _row_chunks(np.arange(U.shape[0]), stats):
        phi[idx] = _u_rows_phi(U[idx], W[idx], stats, sum_ea)
    return (phi - np.log(W).sum(axis=1)) / W.shape[1] - 1.0


def _shape_q(x: np.ndarray, c: np.ndarray, T: int) -> np.ndarray:
    """The terms of Q in each shape entry x, given its c from _alpha_c or
    _gamma_c; concave in x, with derivative T (log x - psi(x) - c)."""
    return T * (x * np.log(x) - _ln_gamma(x) - (c + 1.0) * x)


def q_objective(W, model: PoFModel, stats: SufficientStats) -> float:
    """Q(U, alpha, gamma): the E-step bound minus the posterior entropy."""
    W = _observed(W, model, stats)
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


def _u_rows_phi(u, w, stats: SufficientStats, sum_ea, *, derivs=False):
    """phi_f(u_f) = u_f . sum_ea + sum_t w_ft exp(S_ft) for a stack of rows.

    u is (n, L) and w the matching (n, T) rows of W; phi_f = -Q_f / gamma_f,
    where Q_f is the part of Q that depends on row f. Returns phi (n,), inf
    for a row that is infeasible for the stored posteriors (a row holding a
    NaN counts as infeasible and costs nothing) or whose reconstruction
    overflows. With derivs, also returns the gradient (n, L) and the Hessian
    (n, L, L); both are NaN for a row that is infeasible.
    """
    n, L = u.shape
    phi = np.full(n, math.inf)
    ok = np.all(u > -stats.rho.min(axis=1), axis=1)
    if derivs:
        grad = np.full((n, L), math.nan)
        hess = np.full((n, L, L), math.nan)
    if ok.any():
        u_ok = u[ok]
        ratio = u_ok[:, :, None] / stats.rho                  # (m, L, T)
        # a row within rounding of the barrier can still reach log1p(-1)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            S = -np.einsum("lt,mlt->mt", stats.nu, np.log1p(ratio))
            recon = w[ok] * np.exp(S)                          # (m, T)
            phi[ok] = u_ok @ sum_ea + recon.sum(axis=1)
            if derivs:
                # g_lt = nu_lt / (rho_lt + u_l) = E[a_lt] / (1 + ratio_lt)
                ratio += 1.0
                g = np.divide(stats.expect_a, ratio, out=ratio)
                eg = recon[:, None, :] * g
                grad[ok] = sum_ea - eg.sum(axis=2)
                h = eg @ g.transpose(0, 2, 1)
                # + diag(sum_t E_ft nu_lt / r_lt^2) = diag(sum_t E_ft g_lt^2 / nu_lt)
                g *= g
                g /= stats.nu
                diag = np.einsum("mlt,mt->ml", g, recon)
                h[:, np.arange(L), np.arange(L)] += diag
                hess[ok] = h
    phi[~np.isfinite(phi)] = math.inf
    return (phi, grad, hess) if derivs else phi


def _u_row_q(u, w_f, gamma_f, stats: SufficientStats, sum_ea):
    """The terms of Q that depend on row u of U, and their gradient.

    Returns (-inf, None) when u is infeasible for the stored posteriors or
    the reconstruction overflows.
    """
    phi, grad, _ = _u_rows_phi(u[None], w_f[None], stats, sum_ea, derivs=True)
    if not math.isfinite(phi[0]):
        return -math.inf, None
    return -gamma_f * float(phi[0]), -gamma_f * grad[0]


def grad_u_row(f: int, W, model: PoFModel, stats: SufficientStats) -> np.ndarray:
    """dQ/dU_f: gradient of Q restricted to row f of U.

    Row gradients are independent across f; perturbing any other row leaves
    this one unchanged.
    """
    W = _observed(W, model, stats)
    _, grad = _u_row_q(model.U[f], W[f], model.gamma[f], stats,
                       stats.expect_a.sum(axis=1))
    if grad is None:
        raise NumericalError(f"U row {f} is infeasible for the stored posteriors")
    return grad


def _solve_shape(c: np.ndarray) -> np.ndarray:
    """x > 0 with log x - psi(x) = c, elementwise; every c must be > 0.

    Minka's initial value (3 - c + sqrt((c - 3)^2 + 24 c)) / (12 c), then
    generalised Newton steps on 1/x. The initial value is evaluated as
    2 / (c (1 + (c + 18) / (sqrt((c - 3)^2 + 24 c) + 3))), whose terms are
    all positive: the textbook form cancels to 0 for c >~ 1e18.
    """
    x = 2.0 / (c * (1.0 + (c + 18.0) / (np.sqrt((c - 3.0) ** 2 + 24.0 * c) + 3.0)))
    for _ in range(_SHAPE_NEWTON_STEPS):
        lhs, slope = _shape_eq(x)
        x = 1.0 / (1.0 / x + (lhs - c) / (x * (x * slope)))
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
    W = _observed(W, model, stats)
    alpha = model.alpha
    return W.shape[1] * (np.log(alpha) - _digamma(alpha) - _alpha_c(stats))


def grad_gamma(W, model: PoFModel, stats: SufficientStats) -> np.ndarray:
    """dQ/d gamma_f, summed over frames."""
    W = _observed(W, model, stats)
    c = _gamma_c(W, model.U, stats)
    if c is None:
        raise NumericalError("gradient requested at an infeasible point")
    gamma = model.gamma
    return W.shape[1] * (np.log(gamma) - _digamma(gamma) - c)


def mstep(
    W,
    model: PoFModel,
    stats: SufficientStats,
    *,
    frozen_rows: frozenset[int] = frozenset(),
) -> PoFModel:
    """One full M-step; never decreases Q.

    U: every row not in frozen_rows is solved to round-off by minimize, in
    chunks of rows (_row_chunks). alpha, then gamma: each entry solves
    its 1-D stationarity equation (_solve_shape). Rows in frozen_rows keep
    their U and gamma values (used for all-silent frequency bins).
    """
    W = _observed(W, model, stats)

    sum_ea = stats.expect_a.sum(axis=1)
    lower = -stats.rho.min(axis=1)
    rows = np.array([f for f in range(W.shape[0]) if f not in frozen_rows], dtype=int)
    U_new = model.U.copy()
    for idx in _row_chunks(rows, stats):
        phi = partial(_u_rows_phi, w=W[idx], stats=stats, sum_ea=sum_ea, derivs=True)
        U_new[idx] = minimize(phi, model.U[idx], lower).x

    alpha_new = _update_shape(model.alpha, _alpha_c(stats))

    c = _gamma_c(W, U_new, stats)
    if c is None:  # only when a row's start was infeasible and it was kept
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
    log_sink=None,
) -> tuple[PoFModel, list[float]]:
    """Variational EM: alternate per-frame inference and M-steps.

    Stops when the total bound grows by less than cfg.rel_tol (relative) or
    after cfg.max_em_iters iterations. Returns the fitted model and the
    per-iteration total-ELBO trace (non-decreasing up to float noise).

    Each iteration runs the E-step (infer_frames, warm-started from the
    previous posteriors), then one mstep.
    log_sink, when given, receives one formatted line per EM iteration: the
    bound, its growth, the E-step seconds (secs=) and the seconds of the
    M-step that produced this iteration's model (mstep_secs=, 0 at first).
    """
    raw = check_spectrum(W)
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
        results = infer_frames(data, model, seed=cfg.seed, init=warm)
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
        model = mstep(data, model, stats, frozen_rows=zero_rows)
        mstep_secs = time.perf_counter() - t0
    return model, trace
