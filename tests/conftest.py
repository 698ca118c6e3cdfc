"""Shared fixtures and independent test oracles.

The oracles here are deliberately written in the dumbest correct way
(plain loops, scalar kernels, brute-force estimators) so they share no
code path with the implementations they check.
"""

from __future__ import annotations

import numpy as np
import pytest

from pof import FramePosterior, ModelMeta, PoFModel
from pof.specfn import ln_gamma
from reference import (GammaParams, gamma_entropy, gamma_expect_a, gamma_expect_log_a,
                       log_gamma_mgf)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_model(rng, F, L, u_scale=0.3, meta=None) -> PoFModel:
    U = rng.normal(0.0, u_scale, size=(F, L))
    alpha = rng.uniform(0.5, 3.0, size=L)
    gamma = rng.uniform(0.5, 5.0, size=F)
    return PoFModel(U, alpha, gamma, meta or ModelMeta())


def random_feasible_posterior(rng, model: PoFModel, margin=0.05) -> FramePosterior:
    """Posterior with rho strictly above the feasibility boundary."""
    L = model.n_filters
    nu = rng.uniform(0.5, 4.0, size=L)
    rho_min = np.maximum(0.0, -model.U.min(axis=0))
    rho = rho_min + margin + rng.uniform(0.3, 3.0, size=L)
    return FramePosterior(nu, rho)


def random_frame(rng, model: PoFModel) -> np.ndarray:
    """A strictly positive observation vector of plausible scale."""
    return rng.lognormal(mean=0.0, sigma=0.7, size=model.n_bins)


def huge_bin_problem(scale):
    """A spectrogram (8 bins, 6 frames) whose bin 0 is scale times the
    others, and a model for it. At scale 1e100 one frame's Jacobi-scaled
    Hessian has a Cholesky factor, with a smallest pivot of 1.5e-8, while LU
    meets an exact zero pivot on it."""
    W = np.random.default_rng(1).lognormal(size=(8, 6))
    W[0] *= scale
    model = PoFModel(np.random.default_rng(2).normal(0.0, 0.3, (8, 2)), np.ones(2), np.ones(8))
    return W, model


def central_diff(fun, x, eps=1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        grad[i] = (fun(xp) - fun(xm)) / (2.0 * eps)
    return grad


def elbo_oracle(w, model: PoFModel, post: FramePosterior) -> float:
    """Scalar-loop evidence lower bound, straight from the formulas."""
    F, L = model.U.shape
    total = 0.0
    for l in range(L):
        a, nu, rho = model.alpha[l], post.nu[l], post.rho[l]
        q = GammaParams(nu, rho)
        total += a * np.log(a) - ln_gamma(a)
        total += (a - 1.0) * gamma_expect_log_a(q) - a * gamma_expect_a(q)
        total += gamma_entropy(q)
    for f in range(F):
        g = model.gamma[f]
        total += g * np.log(g) - ln_gamma(g) + (g - 1.0) * np.log(w[f])
        log_prod = 0.0
        for l in range(L):
            log_prod += log_gamma_mgf(model.U[f, l], GammaParams(post.nu[l], post.rho[l]))
            total -= g * model.U[f, l] * gamma_expect_a(GammaParams(post.nu[l], post.rho[l]))
        total -= g * w[f] * np.exp(log_prod)
    return total


def q_oracle(W, model: PoFModel, posteriors) -> float:
    """Scalar-loop M-step objective: sum_t E_q[log p(w_t, a_t)]."""
    total = 0.0
    for t, post in enumerate(posteriors):
        total += elbo_oracle(W[:, t], model, post)
        for l in range(model.n_filters):
            total -= gamma_entropy(GammaParams(post.nu[l], post.rho[l]))
    return total


def importance_log_marginal(w, model: PoFModel, n_draws, seed) -> tuple[float, float]:
    """Importance-sampling estimate of log p(w) with the prior as proposal.

    Returns (log_estimate, log-domain standard error via the delta method).
    """
    rng = np.random.default_rng(seed)
    F, L = model.U.shape
    a = rng.gamma(np.broadcast_to(model.alpha, (n_draws, L)), 1.0 / model.alpha)
    log_ew = a @ model.U.T                                    # (n, F)
    g, wv = model.gamma, np.asarray(w)
    log_like = np.sum(
        g * np.log(g) - g * log_ew - ln_gamma(g) + (g - 1.0) * np.log(wv)
        - wv * g * np.exp(-log_ew),
        axis=1,
    )
    m = log_like.max()
    z = np.exp(log_like - m)
    mean_z = z.mean()
    log_est = m + np.log(mean_z)
    se_rel = z.std(ddof=1) / (np.sqrt(n_draws) * mean_z)     # se of log via delta method
    return float(log_est), float(se_rel)


@pytest.fixture
def rng():
    return make_rng(20240817)
