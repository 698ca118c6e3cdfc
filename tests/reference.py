"""Reference code that only the tests use.

The gamma-distribution kernels E[a], E[log a], the differential entropy and
the log of E[exp(-u a)] build the naive, term-by-term bound of
conftest.elbo_oracle, which the package's batched bound is tested against.
They call the package's special functions (specfn._gamma_fns), so the tests
of these kernels test those too. infer_frame solves one frame through the
E-step's chunk solver, and expected_log_spectrum is U a. nmf_run_updates is
the NMF loop that forms V H afresh in each half-update and again for each
cost, which pof.nmf._run_updates is tested against.

q_objective is the M-step objective Q(U, alpha, gamma), and grad_u_row,
grad_alpha and grad_gamma its gradients in each block. They are built from
the kernels pof.mstep.mstep runs (_u_rows_phi, _alpha_c, _gamma_c), so the
tests of Q test those too.

All kernels broadcast over array-valued parameters; scalar inputs give
scalar outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pof import FramePosterior, NumericalError, PoFModel, SufficientStats, ValidationError
from pof.estep import _check_frame, _solve
from pof.mstep import _alpha_c, _gamma_c, _observed, _u_rows_phi
from pof.nmf import EPS
from pof.optim import FAILED_START
from pof.specfn import _digamma, _gamma_fns, _ln_gamma, _maybe_scalar


@dataclass(frozen=True)
class GammaParams:
    """A (shape, rate) gamma parameter pair; both entries strictly positive.

    Either field may be a scalar or an array; the expectation kernels
    broadcast over them elementwise.
    """

    shape: float | np.ndarray
    rate: float | np.ndarray

    def __post_init__(self):
        for name in ("shape", "rate"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.size == 0 or not np.all(np.isfinite(v)) or np.any(v <= 0):
                raise ValidationError(f"GammaParams.{name} must be positive and finite")


def _like(q: GammaParams):
    return q.shape if np.ndim(q.shape) else q.rate


def gamma_entropy(q: GammaParams):
    """Differential entropy of Gamma(shape, rate).

    shape - log(rate) + log Gamma(shape) + (1 - shape) psi(shape), formed as
    psi(shape) + h(shape) - log(rate) (see specfn._gamma_fns) so that it
    does not cancel at large shape.
    """
    _, psi, _, _, ent, _, _ = _gamma_fns(np.asarray(q.shape, dtype=float), bound=True)
    out = psi + ent - np.log(np.asarray(q.rate, dtype=float))
    return _maybe_scalar(out, _like(q))


def gamma_expect_a(q: GammaParams):
    """E[a] = shape / rate."""
    out = np.asarray(q.shape, dtype=float) / np.asarray(q.rate, dtype=float)
    return _maybe_scalar(out, _like(q))


def gamma_expect_log_a(q: GammaParams):
    """E[log a] = psi(shape) - log(rate)."""
    nu = np.asarray(q.shape, dtype=float)
    out = _digamma(nu) - np.log(np.asarray(q.rate, dtype=float))
    return _maybe_scalar(out, _like(q))


def log_gamma_mgf(u, q: GammaParams):
    """log E[exp(-u a)] under a ~ Gamma(shape, rate).

    Equals -shape * log1p(u / rate) when u > -rate. For u <= -rate the
    expectation diverges and the result is +inf, so a bound summed from
    these terms is -inf exactly where the model's bound is.
    """
    ua = np.asarray(u, dtype=float)
    nu = np.asarray(q.shape, dtype=float)
    rho = np.asarray(q.rate, dtype=float)
    ratio = ua / rho
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -nu * np.log1p(ratio)
    out = np.where(ratio > -1.0, val, np.inf)
    if np.ndim(u) == 0 and np.ndim(q.shape) == 0 and np.ndim(q.rate) == 0:
        return float(out)
    return out


def expected_log_spectrum(model: PoFModel, a: np.ndarray) -> np.ndarray:
    """Log-spectrum sum_l U_fl a_l implied by a non-negative activation vector."""
    a = np.asarray(a, dtype=float)
    if a.shape != (model.n_filters,):
        raise ValidationError(
            f"activation length {a.shape} does not match L={model.n_filters}"
        )
    if np.any(a < 0):
        raise ValidationError("activations must be non-negative")
    return model.U @ a


def infer_frame(w, model: PoFModel, init: FramePosterior) -> tuple[FramePosterior, float]:
    """Optimize (nu, rho) for one positive frame w, unfloored; returns the
    posterior and its bound. Raises NumericalError when the start is
    infeasible."""
    x0 = np.concatenate((init.nu, init.rho))[None]
    (result,) = _solve(_check_frame(w, model)[:, None], model, x0)
    if result.status == FAILED_START:
        raise NumericalError("initial posterior is infeasible for this model")
    return result.posterior, result.elbo


def gamma_c(W, U, stats: SufficientStats) -> np.ndarray:
    """gamma's c at U (pof.mstep._gamma_c), from a fresh evaluation of phi;
    inf for a row of U that is infeasible for the stored posteriors."""
    return _gamma_c(W, _u_rows_phi(U, W, stats, stats.expect_a.sum(axis=1))[0])


def _shape_q(x: np.ndarray, c: np.ndarray, T: int) -> np.ndarray:
    """The terms of Q in each shape entry x, given its c from _alpha_c or
    gamma_c; concave in x, with derivative T (log x - psi(x) - c)."""
    return T * (x * np.log(x) - _ln_gamma(x) - (c + 1.0) * x)


def q_objective(W, model: PoFModel, stats: SufficientStats) -> float:
    """Q(U, alpha, gamma): the E-step bound minus the posterior entropy;
    -inf where a row of U is infeasible for the stored posteriors."""
    W = _observed(W, model, stats)
    T = W.shape[1]
    total = (
        float(np.sum(_shape_q(model.gamma, gamma_c(W, model.U, stats), T)))
        - float(np.log(W).sum())
        + float(np.sum(_shape_q(model.alpha, _alpha_c(stats), T)))
        - float(stats.expect_log_a.sum())
    )
    return total if math.isfinite(total) else -math.inf


def _u_row_q(u, w_f, gamma_f, stats: SufficientStats, sum_ea):
    """The terms of Q that depend on row u of U, and their gradient.

    Returns (-inf, None) when u is infeasible for the stored posteriors or
    the reconstruction overflows.
    """
    phi, grad, _, _ = _u_rows_phi(u[None], w_f[None], stats, sum_ea)
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


def grad_alpha(W, model: PoFModel, stats: SufficientStats) -> np.ndarray:
    """dQ/d alpha_l = sum_t (log a_l + 1 - psi(a_l) + E[log a_lt] - E[a_lt])."""
    W = _observed(W, model, stats)
    alpha = model.alpha
    return W.shape[1] * (np.log(alpha) - _digamma(alpha) - _alpha_c(stats))


def grad_gamma(W, model: PoFModel, stats: SufficientStats) -> np.ndarray:
    """dQ/d gamma_f, summed over frames; -inf where row f of U is infeasible
    for the stored posteriors."""
    W = _observed(W, model, stats)
    gamma = model.gamma
    return W.shape[1] * (np.log(gamma) - _digamma(gamma) - gamma_c(W, model.U, stats))


def _nmf_kl_cost(W, R):
    R = np.maximum(R, EPS)
    wlog = np.where(W > 0, W * np.log(np.maximum(W, EPS) / R), 0.0)
    return float(np.sum(wlog - W + R))


def _nmf_is_cost(W, R):
    W = np.maximum(W, EPS)
    R = np.maximum(R, EPS)
    ratio = W / R
    return float(np.sum(ratio - np.log(ratio) - 1.0))


def nmf_cost(W, V, H, divergence):
    """KL or IS cost of the reconstruction V H of W, formed term by term."""
    R = V @ H
    return _nmf_kl_cost(W, R) if divergence == "kl" else _nmf_is_cost(W, R)


def _nmf_update_kl(W, V, H, update_v):
    if update_v:
        R = np.maximum(V @ H, EPS)
        V = V * ((W / R) @ H.T) / np.maximum(H.sum(axis=1), EPS)
    R = np.maximum(V @ H, EPS)
    H = H * (V.T @ (W / R)) / np.maximum(V.sum(axis=0)[:, None], EPS)
    return V, H


def _nmf_update_is(W, V, H, update_v):
    if update_v:
        inv = 1.0 / np.maximum(V @ H, EPS)
        V = V * ((inv * inv * W) @ H.T) / np.maximum(inv @ H.T, EPS)
    inv = 1.0 / np.maximum(V @ H, EPS)
    H = H * (V.T @ (inv * inv * W)) / np.maximum(V.T @ inv, EPS)
    return V, H


def nmf_run_updates(W, V, H, divergence, rel_tol, max_iters, update_v):
    """The multiplicative updates and stopping rule of pof.nmf._run_updates,
    with V H formed in every half-update and again for every cost:
    (V, H, the cost of every iterate from the start)."""
    update = _nmf_update_kl if divergence == "kl" else _nmf_update_is
    trace = [nmf_cost(W, V, H, divergence)]
    for _ in range(max_iters):
        V, H = update(W, V, H, update_v)
        cost = nmf_cost(W, V, H, divergence)
        prev = trace[-1]
        trace.append(cost)
        if prev - cost < rel_tol * abs(prev):
            break
    return V, H, trace
