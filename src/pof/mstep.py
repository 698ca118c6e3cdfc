"""The M-step, block by block, and the variational EM driver.

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
    which is positive definite whenever some E_ft > 0. The rows are solved
    together by pof.optim.minimize, the damped Newton the E-step uses too;
    on this positive-definite Hessian its step is the plain Newton step
    (Boyd & Vandenberghe, Convex Optimization, 9.5). The box
    u > -min_t rho_t keeps every stored posterior feasible, which is what
    makes the next E-step's warm start safe.
  * alpha, then gamma, in closed form up to a 1-D equation: each entry
    solves log x - psi(x) = c for its own constant c, by Minka's
    generalised Newton iteration ("Estimating a Gamma distribution", 2002).
    gamma's c is read off the phi that each row's U solve ends at; gamma_f
    enters Q through row f alone, so a row whose start is infeasible keeps
    its U and gamma while the other rows' gamma is updated.

Block order is U, alpha, gamma; each block only ever improves Q (all three
are solved to round-off), so the whole M-step is monotone. fit() puts the
PX-EM rescale (_px_rescale) before each M-step: every filter l is scaled to
unit mean activation, U[:, l] *= m_l and rho_lt *= m_l with
m_l = mean_t nu_lt / rho_lt. The likelihood is unchanged and the bound rises
by sum_l T alpha_l (m_l - 1 - log m_l) >= 0, so it cannot fall either, and
fit()'s ELBO trace is non-decreasing.

Every function here that takes W floors it on entry (_observed); the W
that fit passes on is floored already and comes through unchanged.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .estep import floor_observations, infer_frames, status_counts
from .model import (FramePosterior, ModelMeta, PoFModel, Spectrogram, check_seed,
                    check_spectrum)
from .optim import minimize
from .specfn import _digamma, _shape_eq

__all__ = ["SufficientStats", "EmConfig", "mstep", "fit"]

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

    @classmethod
    def from_posteriors(cls, posteriors: list[FramePosterior]) -> "SufficientStats":
        if not posteriors:
            raise ValidationError("need at least one posterior")
        if len({p.nu.size for p in posteriors}) > 1:
            raise ValidationError("posteriors must all have the same number of entries")
        nu = np.stack([p.nu for p in posteriors], axis=1)
        rho = np.stack([p.rho for p in posteriors], axis=1)
        return cls(
            nu=nu,
            rho=rho,
            expect_a=nu / rho,
            expect_log_a=_digamma(nu) - np.log(rho),
        )


@dataclass(frozen=True)
class EmConfig:
    """Settings of fit. The E-step and every M-step block are solved to
    round-off, so there are no solver settings. seed draws only the initial
    U; the first E-step starts every frame at infer_frames' cold start."""

    L: int = 50
    rel_tol: float = 1e-4          # stop when the bound grows by < 0.01%
    max_em_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:
            raise ValidationError("rel_tol must be positive and finite")
        if self.L < 1 or self.max_em_iters < 1:
            raise ValidationError("L and max_em_iters must be >= 1")
        check_seed(self.seed)


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


def _row_bytes(stats: SufficientStats) -> int:
    """The peak bytes of one U row in flight: two (L, T) blocks and a few
    T-vectors of its evaluation, about four (L, L) stacks of its Hessian and
    direction, and 1 kB of rows and results (tracemalloc at L=5-50 and
    T=16-400: 116.7 kB at L=50, T=64 against the 135.3 kB asked for)."""
    L, T = stats.expect_a.shape
    return 8 * (2 * L * T + 4 * L * L + 6 * T) + 1024


def _gamma_c(W: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """c in dQ/d gamma = T (log gamma - psi(gamma) - c), from phi_f at each
    row's U_f (_u_rows_phi): T (c_f + 1) = phi_f - sum_t log w_ft; inf
    where phi_f is."""
    return (phi - np.log(W).sum(axis=1)) / W.shape[1] - 1.0


def _u_rows_phi(u, w, stats: SufficientStats, sum_ea):
    """phi_f(u_f) = u_f . sum_ea + sum_t w_ft exp(S_ft) for a stack of rows.

    u is (n, L) and w the matching (n, T) rows of W; phi_f = -Q_f / gamma_f,
    where Q_f is the part of Q that depends on row f. Returns phi (n,), inf
    for a row that is infeasible for the stored posteriors or whose
    reconstruction overflows; the gradient (n, L) and the Hessian (n, L, L),
    both NaN for a row that is infeasible; and, as minimize's convex
    stand-in C, the Hessian at the positions asked for: it is positive
    semidefinite.
    """
    L = u.shape[1]
    ok = np.all(u > -stats.rho.min(axis=1), axis=1)
    # a row within rounding of the barrier can still reach log1p(-1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio = u[:, :, None] / stats.rho                     # (n, L, T)
        S = -np.einsum("lt,mlt->mt", stats.nu, np.log1p(ratio))
        recon = w * np.exp(S)                                  # (n, T)
        phi = u @ sum_ea + recon.sum(axis=1)
        # g_lt = nu_lt / (rho_lt + u_l) = E[a_lt] / (1 + ratio_lt)
        ratio += 1.0
        g = np.divide(stats.expect_a, ratio, out=ratio)
        eg = recon[:, None, :] * g
        grad = sum_ea - eg.sum(axis=2)
        hess = eg @ g.transpose(0, 2, 1)
        # + diag(sum_t E_ft nu_lt / r_lt^2) = diag(sum_t E_ft g_lt^2 / nu_lt)
        g *= g
        g /= stats.nu
        hess[:, np.arange(L), np.arange(L)] += np.einsum("mlt,mt->ml", g, recon)
    phi[~(ok & np.isfinite(phi))] = math.inf
    grad[~ok], hess[~ok] = math.nan, math.nan
    return phi, grad, hess, lambda at: hess[at]


def _solve_shape(c: np.ndarray) -> np.ndarray:
    """x > 0 with log x - psi(x) = c, elementwise; every c must be > 0.

    Minka's initial value (3 - c + sqrt((c - 3)^2 + 24 c)) / (12 c), then
    generalised Newton steps on 1/x. The initial value is evaluated as
    1 / (c (1 + q) / 2), q = (c + 18) / (sqrt((c - 3)^2 + 24 c) + 3), with
    no cancellation (the textbook form gives 0 for c >~ 1e18) and no
    overflow: q is formed at min(c, 1e20), past which it is 1 and 1/c the
    root to rounding. The step is 0 once psi_1(x) overflows (c >~ 1e154).
    """
    cap = np.minimum(c, 1e20)
    q = (cap + 18.0) / (np.sqrt((cap - 3.0) ** 2 + 24.0 * cap) + 3.0)
    x = 1.0 / (0.5 * c * (1.0 + q))
    for _ in range(_SHAPE_NEWTON_STEPS):
        lhs, slope = _shape_eq(x)
        x = 1.0 / (1.0 / x + (lhs - c) / (x * (x * slope)))
    return x


def _update_shape(x0: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Maximise the terms of Q in each shape entry x, T (x log x - ln Gamma(x)
    - (c + 1) x), whose derivative is T (log x - psi(x) - c).

    An entry whose c is <= 0 or not finite has no finite maximiser (the
    objective rises towards x = inf), so it keeps its previous value.
    """
    x = x0.copy()
    ok = np.isfinite(c) & (c > 0)
    x[ok] = _solve_shape(c[ok])
    return x


def mstep(
    W,
    model: PoFModel,
    stats: SufficientStats,
    *,
    frozen_rows: frozenset[int] = frozenset(),
) -> PoFModel:
    """One full M-step; never decreases Q.

    U: every row not in frozen_rows is solved to round-off in one minimize
    call. alpha, then gamma: each entry solves its 1-D stationarity
    equation (_solve_shape). Rows in frozen_rows (all-silent frequency bins)
    and rows whose start is infeasible keep their U and gamma values.
    """
    W = _observed(W, model, stats)

    sum_ea = stats.expect_a.sum(axis=1)
    lower = -stats.rho.min(axis=1)
    rows = np.array([f for f in range(W.shape[0]) if f not in frozen_rows], dtype=int)
    w = W[rows]

    def phi(batch):
        idx, u = batch
        return _u_rows_phi(u, w[idx], stats, sum_ea)

    res = minimize(phi, model.U[rows], lower, _row_bytes(stats))
    U_new = model.U.copy()
    U_new[rows] = res.x

    alpha_new = _update_shape(model.alpha, _alpha_c(stats))

    gamma_new = model.gamma.copy()
    gamma_new[rows] = _update_shape(model.gamma[rows], _gamma_c(w, res.f))

    return PoFModel(U_new, alpha_new, gamma_new, model.meta)


def _px_rescale(
    model: PoFModel, posteriors: list[FramePosterior],
) -> tuple[np.ndarray, PoFModel, list[FramePosterior]]:
    """The PX-EM step: each filter rescaled to unit mean activation.

    Returns m_l = mean_t nu_lt / rho_lt, the model with U[:, l] scaled by
    m_l and the posteriors with rho_lt scaled by m_l. The likelihood sees U
    and a only through U_fl a_lt, whose mean U_fl nu_lt / rho_lt and
    distribution are unchanged, so the bound changes only in each filter's
    prior and entropy terms, by T alpha_l (m_l - 1 - log m_l) >= 0. The box
    rho_lt > -min_f U_fl scales by m_l > 0, so feasibility is kept, and a
    row of U that is 0 stays 0.
    """
    m = np.mean([p.mean() for p in posteriors], axis=0)
    return (m, PoFModel(model.U * m, model.alpha, model.gamma, model.meta),
            [FramePosterior(p.nu, p.rho * m) for p in posteriors])


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
    After a rel_tol stop, trace[-1] is the E-step bound under the returned
    model. When max_em_iters ends the loop, the returned model has had one
    M-step more, after the E-step that trace[-1] measures: its bound is not
    computed, and the time of that M-step is not logged.

    cfg.seed draws only the initial U ~ N(0, 0.01^2). Each iteration runs
    the E-step (infer_frames, from its cold start at first and then from
    the previous posteriors, or a higher ridge start), then the PX-EM rescale
    (_px_rescale; Liu, Rubin & Wu, "Parameter expansion to accelerate EM",
    Biometrika 1998), then one mstep on the rescaled model and statistics;
    the next E-step starts from the rescaled posteriors. The model sees U
    and a only through U a, so the prior's Gamma(alpha, alpha) pins each
    filter's mean activation at 1 but plain EM moves the scale of U towards
    it only slowly; the rescale moves it there at once and raises the bound
    by sum_l T alpha_l (m_l - 1 - log m_l) >= 0, so the trace stays monotone.
    log_sink, when given, receives one formatted line per EM iteration: the
    bound, its growth, the E-step seconds (secs=), the seconds of the
    M-step that produced this iteration's model (mstep_secs=, 0 at first),
    the smallest and largest rescale factor m_l of this E-step's posteriors
    (scale_min=, scale_max=: far from 1, the scale of U is drifting; near
    0, a filter is unused), and how many of the E-step's frames ended with
    each status (converged=, max_iters=, line_search_failed=,
    zero_progress=, failed_start=).
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
        results = infer_frames(data, model, init=warm)
        total = float(sum(r.elbo for r in results))
        trace.append(total)
        delta = total - prev if prev is not None else math.nan
        secs = time.perf_counter() - t0
        scale, px_model, warm = _px_rescale(model, [r.posterior for r in results])
        if log_sink is not None:
            log_sink(
                f"iter={it} elbo={total:.10e} delta={delta:.6e} "
                f"secs={secs:.3f} mstep_secs={mstep_secs:.3f} "
                f"scale_min={scale.min():.6g} scale_max={scale.max():.6g} "
                f"{status_counts(r.status for r in results)}"
            )
        if prev is not None and total - prev <= cfg.rel_tol * abs(prev):
            break
        prev = total
        stats = SufficientStats.from_posteriors(warm)
        t0 = time.perf_counter()
        model = mstep(data, px_model, stats, frozen_rows=zero_rows)
        mstep_secs = time.perf_counter() - t0
    return model, trace
