"""Mean-field inference tests: bound values against a scalar-loop oracle,
analytic gradients against finite differences, the importance-sampling
upper-bound check on tiny instances, and inferred bounds against scipy's
L-BFGS-B."""

import importlib
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from pof import (FramePosterior, NumericalError, PoFModel, ValidationError,
                 band_mask, elbo, elbo_grad, restrict_model, sample)
from pof.estep import (FrameResult, _Frames, _abs_2x2, default_posterior_init,
                       dump_posteriors, floor_observations, infer_frames)
from pof.optim import FAILED_START, ZERO_PROGRESS
from conftest import (central_diff, elbo_oracle, huge_bin_problem, importance_log_marginal,
                      random_feasible_posterior, random_frame, random_model)
from reference import infer_frame

optim = importlib.import_module("pof.optim")


def bench_inputs(telephone_band=False, frames=100, seed=0):
    """The benchmark's model (F=129 bins at 16 kHz, n_fft=256, L=20) and
    frames drawn from it; with telephone_band, both restricted to the F=48
    bins of 400-3400 Hz, as pof bwe solves them."""
    rng = np.random.default_rng(0)
    F, L = 129, 20
    model = PoFModel(rng.normal(0.0, 0.3, size=(F, L)), rng.uniform(0.5, 3.0, size=L),
                     rng.uniform(0.5, 5.0, size=F))
    W = sample(model, frames, seed=seed)[0].data
    if telephone_band:
        mask = band_mask(F, 16000.0, 256, 400.0, 3400.0)
        model, W = restrict_model(model, mask), mask.select(W, F)
    return model, W


def phi_rows(monkeypatch, sink):
    """Append to sink the frames of every bound evaluation infer_frames
    asks for, seen through a one-argument wrapper of minimize's phi."""
    estep = importlib.import_module("pof.estep")
    solve = estep.minimize

    def recorded(phi, *args):
        def seen(batch):
            sink.append(batch[0])
            return phi(batch)
        return solve(seen, *args)

    monkeypatch.setattr(estep, "minimize", recorded)


def trivial_instance():
    """F=1, L=1, U=0, gamma=1, alpha=1, w=1, q=Gamma(1,1): the posterior is
    exact, so the bound equals log p(w) = -1 and is stationary."""
    model = PoFModel(np.zeros((1, 1)), alpha=np.ones(1), gamma=np.ones(1))
    post = FramePosterior(np.ones(1), np.ones(1))
    w = np.ones(1)
    return w, model, post


class TestElbo:
    def test_hand_computed_trivial_case(self):
        w, model, post = trivial_instance()
        assert elbo(w, model, post) == pytest.approx(-1.0, abs=1e-12)

    def test_infeasible_returns_neg_inf(self):
        w, model, _ = trivial_instance()
        model = PoFModel(np.full((1, 1), -0.7), alpha=np.ones(1), gamma=np.ones(1))
        post = FramePosterior(np.ones(1), np.full(1, 0.5))
        assert elbo(w, model, post) == -math.inf

    def test_boundary_is_infeasible(self):
        w = np.ones(1)
        model = PoFModel(np.full((1, 1), -0.5), alpha=np.ones(1), gamma=np.ones(1))
        post = FramePosterior(np.ones(1), np.full(1, 0.5))
        assert elbo(w, model, post) == -math.inf

    def test_matches_scalar_loop_oracle(self, rng):
        for _ in range(20):
            model = random_model(rng, 6, 3)
            post = random_feasible_posterior(rng, model)
            w = random_frame(rng, model)
            assert elbo(w, model, post) == pytest.approx(
                elbo_oracle(w, model, post), rel=1e-10
            )

    def test_below_importance_sampling_log_marginal(self, rng):
        for k in range(5):
            model = random_model(rng, 6, 3, u_scale=0.2)
            post = random_feasible_posterior(rng, model)
            w, _ = sample(model, 1, seed=k)
            w = w.data[:, 0]
            bound = elbo(w, model, post)
            log_p, se = importance_log_marginal(w, model, 200000, seed=100 + k)
            assert bound <= log_p + 3 * se

    def test_concentrated_posterior_bound_is_smooth(self, rng):
        # at a fixed mean nu / rho the bound of a concentrated posterior
        # falls like -log(nu) / 2 per filter, the entropy of a near-normal
        # gamma: each tenfold nu costs log(10) / 2 per filter
        model = random_model(rng, 6, 3)
        post = random_feasible_posterior(rng, model)
        w = random_frame(rng, model)
        bounds = [elbo(w, model, FramePosterior(post.nu * s, post.rho * s))
                  for s in (1e14, 1e15, 1e16, 1e17, 1e18)]
        step = -0.5 * math.log(10.0) * model.n_filters
        assert np.allclose(np.diff(bounds), step, rtol=0.0, atol=1e-6)

    def test_dimension_mismatch(self, rng):
        model = random_model(rng, 6, 3)
        post = random_feasible_posterior(rng, model)
        with pytest.raises(ValidationError):
            elbo(np.ones(5), model, post)

    def test_rejects_zero_entries(self, rng):
        model = random_model(rng, 3, 2)
        post = random_feasible_posterior(rng, model)
        with pytest.raises(ValidationError):
            elbo(np.array([1.0, 0.0, 1.0]), model, post)


class TestElboGrad:
    def test_stationary_at_exact_posterior(self):
        w, model, post = trivial_instance()
        d_nu, d_rho = elbo_grad(w, model, post)
        assert abs(d_nu[0]) < 1e-12
        assert abs(d_rho[0]) < 1e-12

    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            model = random_model(rng, 6, 3)
            post = random_feasible_posterior(rng, model)
            w = random_frame(rng, model)
            d_nu, d_rho = elbo_grad(w, model, post)
            L = model.n_filters

            def fun(x):
                return elbo(w, model, FramePosterior(x[:L], x[L:]))

            fd = central_diff(fun, np.concatenate([post.nu, post.rho]), eps=1e-6)
            analytic = np.concatenate([d_nu, d_rho])
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-5

    def test_large_alpha_prior_term_cancels(self):
        # with nu = rho = alpha the prior contribution to d/d nu is
        # (alpha-nu) psi1 + 1 - alpha/rho = 0
        alpha = 1e4
        model = PoFModel(np.zeros((1, 1)), alpha=[alpha], gamma=np.ones(1))
        post = FramePosterior(np.full(1, alpha), np.full(1, alpha))
        d_nu, _ = elbo_grad(np.ones(1), model, post)
        assert abs(d_nu[0]) < 1e-10

    def test_infeasible_point_raises(self):
        model = PoFModel(np.full((1, 1), -0.7), alpha=np.ones(1), gamma=np.ones(1))
        post = FramePosterior(np.ones(1), np.full(1, 0.5))
        with pytest.raises(NumericalError):
            elbo_grad(np.ones(1), model, post)


def gram_oracle(w, model, x):
    """sum_f c_f j_f j_f' at x = (nu, rho), summed over bins in a loop: the
    positive-semidefinite part of the Hessian of -L."""
    L = model.n_filters
    nu, rho = x[:L], x[L:]
    gram = np.zeros((2 * L, 2 * L))
    for f in range(model.n_bins):
        u = model.U[f]
        c = model.gamma[f] * w[f] * np.exp(-np.sum(nu * np.log1p(u / rho)))
        j = np.concatenate((-np.log1p(u / rho), nu * u / (rho * (rho + u))))
        gram += c * np.outer(j, j)
    return gram


def abs_oracle(block):
    lam, vec = np.linalg.eigh(block)
    return (vec * np.abs(lam)) @ vec.T


def curvature_points(rng, model, w):
    """Random feasible posteriors, the default start (mostly with
    indefinite blocks) and the inferred posterior (mostly without)."""
    posts = [random_feasible_posterior(rng, model) for _ in range(4)]
    posts += [default_posterior_init(model, 0, 0)]
    posts += [r.posterior for r in infer_frames(w[:, None], model)]
    return np.array([np.concatenate((p.nu, p.rho)) for p in posts])


def log_objective(w, model, y):
    """_Frames.objective at the rows of y = log(nu, rho) for one frame w,
    with C_y at every row in place of the function that returns it."""
    value, grad, hess, stand_in = _Frames(w[None], model).objective(
        (np.zeros(len(y), dtype=int), y))
    return value, grad, hess, stand_in(np.arange(len(y)))


class TestCurvature:
    """H_y, the Hessian of -L in y = log(nu, rho) that the E-step's Newton
    steps use, and C_y, its stand-in built from the Gram term and the
    blocks |B_l| of the Hessian in (nu, rho), each scaled by X = diag(nu,
    rho)."""

    def test_hessian_matches_central_differences(self, rng):
        # H_y = X H X + diag(g_y), H from central differences of elbo_grad
        for _ in range(10):
            model = random_model(rng, 6, 3)
            post = random_feasible_posterior(rng, model)
            w = random_frame(rng, model)
            L = model.n_filters
            x = np.exp(np.log(np.concatenate([post.nu, post.rho])))
            _, grad, hess, _ = log_objective(w, model, np.log(x)[None])

            def minus_grad(z, i):
                return -np.concatenate(elbo_grad(w, model, FramePosterior(z[:L], z[L:])))[i]

            fd = np.array([central_diff(lambda z: minus_grad(z, i), x, eps=1e-6)
                           for i in range(2 * L)])
            expected = x[:, None] * fd * x[None, :] + np.diag(grad[0])
            assert np.allclose(hess[0], expected, rtol=1e-5, atol=1e-7 * np.abs(expected).max())

    def test_stand_in_is_symmetric_psd(self, rng):
        replaced = 0
        for _ in range(10):
            model = random_model(rng, 6, 3)
            w = random_frame(rng, model)
            _, _, hess, curv = log_objective(w, model, np.log(curvature_points(rng, model, w)))
            replaced += np.sum(np.any(curv != hess, axis=(1, 2)))
            for c in curv:
                scale = np.abs(c).max()
                assert np.allclose(c, c.T, rtol=0.0, atol=1e-13 * scale)
                assert np.linalg.eigvalsh(c).min() >= -1e-12 * scale
        assert replaced > 0

    def test_stand_in_replaces_exactly_the_indefinite_blocks(self, rng):
        seen = {True: 0, False: 0}
        for _ in range(10):
            model = random_model(rng, 6, 3)
            w = random_frame(rng, model)
            L = model.n_filters
            y = np.log(curvature_points(rng, model, w))
            _, grad, hess, curv = log_objective(w, model, y)
            for z, g, h, c in zip(np.exp(y), grad, hess, curv):
                # the Gram term, the blocks and their |.| in (nu, rho),
                # scaled by X; H_y and C_y also hold g_y and max(g_y, 0)
                # on their diagonals
                scale = np.outer(z, z)
                gram = gram_oracle(w, model, z) * scale
                expected = gram + np.diag(np.maximum(g, 0.0))
                psd = []
                for l in range(L):
                    idx = np.ix_([l, L + l], [l, L + l])
                    h_x = (h[idx] - np.diag(g[[l, L + l]])) / scale[idx]
                    block = h_x - gram[idx] / scale[idx]
                    lam = np.linalg.eigvalsh(block)
                    tol = 1e-8 * np.abs(h_x).max()
                    if np.abs(lam).min() <= tol:
                        break  # too close to singular to classify
                    psd.append(lam.min() > 0)
                    expected[idx] += abs_oracle(block) * scale[idx]
                else:
                    seen[all(psd)] += 1
                    if all(psd):
                        # C_y is H_y bitwise but where g_y < 0, on the diagonal
                        same = ~np.diag(g < 0.0)
                        assert np.array_equal(c[same], h[same])
                    else:
                        assert not np.array_equal(c, h)
                        assert np.allclose(c, expected, rtol=1e-9,
                                           atol=1e-11 * np.abs(expected).max())
                    # outside the blocks both are the Gram term, bitwise
                    off = np.ones((2 * L, 2 * L), dtype=bool)
                    off[np.arange(L), np.arange(L)] = False
                    off[np.arange(L), np.arange(L, 2 * L)] = False
                    off[np.arange(L, 2 * L), np.arange(L)] = False
                    off[np.arange(L, 2 * L), np.arange(L, 2 * L)] = False
                    assert np.array_equal(c[off], h[off])
        assert seen[True] > 0 and seen[False] > 0

    @pytest.mark.parametrize("a, b, c", [
        (2.0, 1.0, 3.0),          # positive definite
        (-2.0, 1.0, -3.0),        # negative definite
        (1.0, 2.0, 1.0),          # indefinite
        (1.0, 0.0, -4.0),         # indefinite, diagonal
        (0.0, 1.0, 0.0),          # indefinite, zero diagonal
        (-1.0, 0.0, 0.0),         # negative semidefinite
        (0.0, 0.0, 0.0),
        (1e200, 3e200, -2e200),   # indefinite near overflow
        (1e-200, -3e-200, 2e-300),
    ])
    def test_abs_of_2x2_block(self, a, b, c):
        got = np.array(_abs_2x2(*(np.full((1, 1), v) for v in (a, b, c))))[:, 0, 0]
        block = np.array([[a, b], [b, c]])
        scale = max(np.abs(block).max(), 1e-300)
        expected = abs_oracle(block / scale) * scale
        assert np.allclose(got, [expected[0, 0], expected[0, 1], expected[1, 1]],
                           rtol=1e-12, atol=1e-14 * scale)
        if np.linalg.eigvalsh(block / scale).min() >= 0.0:
            assert np.array_equal(got, [a, b, c])


class TestOneEvaluationPath:
    """bound and the objective share the code that forms the value and the
    gradient, so what is asked for must not change what is returned
    besides."""

    @pytest.mark.parametrize("F, L", [(6, 3), (129, 20)])
    def test_value_and_gradient_do_not_depend_on_derivs(self, rng, F, L):
        for _ in range(3):
            model = random_model(rng, F, L)
            w = random_frame(rng, model)
            x = curvature_points(rng, model, w)
            frames = _Frames(np.tile(w, (len(x) + 2, 1)), model)
            outside = np.repeat(x[:1], 2, axis=0)
            outside[0, L:] = 0.5 * frames.lower[L:]        # rho inside the barrier
            outside[1, 0] = -1.0                           # nu < 0
            x = np.concatenate((x, outside))
            (v0, g0), (v1, g1) = (frames.bound(x, derivs=d) for d in (0, 1))
            assert g0 is None
            assert np.all(v0[-2:] == -math.inf) and np.all(np.isnan(g1[-2:]))
            assert np.all(np.isfinite(v0[:-2]))
            assert np.array_equal(v0, v1)
            # the objective at y = log x: -L and g_y = -x g at exp(y); the
            # row inside the barrier may have rho = 0
            with np.errstate(divide="ignore"):
                y = np.log(x[:-1])
            rows = np.arange(len(y))
            value, grad, _, _ = frames.objective((rows, y))
            v, g = frames.bound(np.exp(y), derivs=1, rows=rows)
            assert np.array_equal(value, -v) and value[-1] == math.inf
            assert np.array_equal(grad[:-1], -np.exp(y[:-1]) * g[:-1])


class TestLogCoordinates:
    """The objective the solver sees: -L at x = exp(y) with g_y = -x g,
    H_y = X H X + diag(g_y) and C_y = X C X + diag(max(g_y, 0)), g the
    gradient of L and H, C the Hessian of -L and its stand-in in (nu, rho)."""

    def test_derivatives_match_central_differences(self, rng):
        for _ in range(10):
            model = random_model(rng, 6, 3)
            w = random_frame(rng, model)
            post = random_feasible_posterior(rng, model)
            y = np.log(np.concatenate([post.nu, post.rho]))
            _, grad, hess, _ = log_objective(w, model, y[None])
            fd = central_diff(lambda z: log_objective(w, model, z[None])[0][0], y, eps=1e-6)
            assert np.max(np.abs(grad[0] - fd) / np.maximum(np.abs(fd), 1e-8)) < 1e-5
            fd2 = np.array([central_diff(lambda z: log_objective(w, model, z[None])[1][0, i],
                                         y, eps=1e-6) for i in range(y.size)])
            assert np.allclose(hess[0], fd2, rtol=1e-5, atol=1e-7 * np.abs(fd2).max())

    def test_stand_in_is_symmetric_psd(self, rng):
        for _ in range(10):
            model = random_model(rng, 6, 3)
            w = random_frame(rng, model)
            _, _, _, curv = log_objective(w, model, np.log(curvature_points(rng, model, w)))
            for c in curv:
                scale = np.abs(c).max()
                assert np.allclose(c, c.T, rtol=0.0, atol=1e-13 * scale)
                assert np.linalg.eigvalsh(c).min() >= -1e-12 * scale

    def test_stand_in_is_hessian_where_blocks_psd_and_gradient_nonnegative(self, rng):
        # from each inferred posterior y*, a small step along H_y^-1 1
        # makes every entry of g_y positive; the inferred points themselves
        # mostly have some negative entry
        seen = {True: 0, False: 0}
        for _ in range(10):
            model = random_model(rng, 6, 3)
            L = model.n_filters
            w = random_frame(rng, model)
            y = np.log([np.concatenate((r.posterior.nu, r.posterior.rho))
                        for r in infer_frames(w[:, None], model)])
            _, _, hess, _ = log_objective(w, model, y)
            v = np.linalg.solve(hess, np.ones(y.shape)[:, :, None])[:, :, 0]
            y = np.concatenate((y, y + 1e-3 * v / np.abs(v).max(axis=1, keepdims=True)))
            _, grad, hess, curv = log_objective(w, model, y)
            for g, hy, cy in zip(grad, hess, curv):
                # an indefinite block changes its (nu_l, rho_l) entry in C
                if not np.array_equal(cy[np.arange(L), np.arange(L, 2 * L)],
                                      hy[np.arange(L), np.arange(L, 2 * L)]):
                    continue
                positive = bool(np.all(g >= 0.0))
                seen[positive] += 1
                if positive:
                    assert np.array_equal(cy, hy)
                else:
                    # only the negative entries of g_y differ, on the diagonal
                    assert np.allclose(cy - hy, np.diag(-np.minimum(g, 0.0)),
                                       rtol=0.0, atol=1e-13 * np.abs(hy).max())
        assert seen[True] > 0 and seen[False] > 0

    def test_failed_start_is_returned_bitwise(self, rng):
        # rho = 0.1 is inside the barrier rho > 0.2; exp(log 0.1) is not 0.1
        model = PoFModel(np.full((3, 2), -0.2), alpha=np.ones(2), gamma=np.ones(3))
        start = FramePosterior(np.full(2, 0.1), np.full(2, 0.1))
        assert np.exp(np.log(0.1)) != 0.1
        (result,) = infer_frames(np.ones((3, 1)), model, init=[start])
        assert result.status == FAILED_START
        assert np.array_equal(result.posterior.nu, start.nu)
        assert np.array_equal(result.posterior.rho, start.rho)


class TestInferFrame:
    def test_prior_recovered_when_likelihood_uninformative(self):
        # U = 0 makes the likelihood independent of a; optimum is the prior.
        model = PoFModel(np.zeros((4, 2)), alpha=np.ones(2), gamma=np.ones(4))
        init = FramePosterior(np.full(2, 0.5), np.full(2, 2.0))
        post, bound = infer_frame(np.ones(4), model, init)
        assert np.allclose(post.mean(), 1.0, atol=1e-6)
        assert bound >= elbo(np.ones(4), model, init) - 1e-12

    def test_never_decreases_bound(self, rng):
        for _ in range(10):
            model = random_model(rng, 8, 3)
            post0 = random_feasible_posterior(rng, model)
            w = random_frame(rng, model)
            start = elbo(w, model, post0)
            _, bound = infer_frame(w, model, post0)
            assert bound >= start - 1e-12

    def test_returned_posterior_feasible(self, rng):
        for _ in range(10):
            model = random_model(rng, 8, 3, u_scale=0.8)
            post0 = random_feasible_posterior(rng, model)
            w = random_frame(rng, model)
            post, _ = infer_frame(w, model, post0)
            assert np.all(model.U > -post.rho)

    def test_default_init_ignores_seed_and_frame(self, rng, monkeypatch):
        # one start for every seed and frame, nu = rho = 1 far from the
        # barrier, and the one infer_frames hands the solver, as log(1) = 0
        model = random_model(rng, 4, 3, u_scale=0.01)
        start = default_posterior_init(model, 0, 0)
        assert np.array_equal(start.nu, np.ones(3)) and np.array_equal(start.rho, np.ones(3))
        for seed, frame in [(1, 0), (0, 7), (123, 4000)]:
            other = default_posterior_init(model, seed, frame)
            assert np.array_equal(other.nu, start.nu) and np.array_equal(other.rho, start.rho)
        estep = importlib.import_module("pof.estep")
        solve, starts = estep.minimize, []

        def recorded(phi, y0, *args):
            starts.append(y0.copy())
            return solve(phi, y0, *args)

        monkeypatch.setattr(estep, "minimize", recorded)
        infer_frames(rng.lognormal(size=(4, 5)), model)
        assert np.array_equal(starts[0], np.zeros((5, 6)))

    def test_default_init_lifted_to_feasible(self):
        U = np.array([[-3.0, 0.2], [0.5, -1.5]])
        model = PoFModel(U, alpha=np.ones(2), gamma=np.ones(2))
        for t in range(20):
            init = default_posterior_init(model, seed=1, frame=t)
            assert np.all(model.U > -init.rho)

    def test_default_init_keeps_margin_from_barrier(self, rng):
        model = random_model(rng, 32, 3, u_scale=0.8)
        rho_min = -model.U.min(axis=0)
        for t in range(20):
            init = default_posterior_init(model, seed=2, frame=t)
            assert np.all(init.rho >= 2.0 * rho_min * (1.0 - 1e-12))

    def test_start_on_barrier_leaves_its_start(self, rng):
        # rho_min (1 + 1e-6) is the lift the default init once made: the
        # start sits on the barrier, where the gradient is about 1e15 and
        # the first Armijo step is below 1e-14
        F, L = 32, 3
        U = rng.normal(0.0, 0.8, size=(F, L))
        model = PoFModel(U, np.full(L, 2.0), np.full(F, 50.0))
        w = np.exp(U @ np.array([2.0, 0.05, 0.05])) * rng.gamma(50.0, 1 / 50.0, size=F)
        start = FramePosterior(np.ones(L), -U.min(axis=0) * (1.0 + 1e-6))
        result = infer_frames(w[:, None], model, init=[start])[0]
        assert result.status != ZERO_PROGRESS
        assert not np.array_equal(result.posterior.nu, start.nu)
        assert result.elbo > elbo(w, model, start) + 1.0

    def test_overflowing_gradient_at_start_is_a_failure(self, rng):
        # psi_1(1e-200) overflows: the bound is finite but its gradient is
        # not, so the start cannot be optimized from and must not come back
        # as a posterior with a finite bound
        model = random_model(rng, 6, 2)
        start = FramePosterior(np.full(2, 1e-200), np.full(2, 2.0))
        with np.errstate(divide="raise", invalid="raise"):
            result = infer_frames(random_frame(rng, model)[:, None], model,
                                  init=[start])[0]
        assert result.status.startswith("failed")
        assert result.elbo == -math.inf

    def test_infeasible_init_raises(self):
        model = PoFModel(np.full((1, 1), -2.0), alpha=np.ones(1), gamma=np.ones(1))
        init = FramePosterior(np.ones(1), np.ones(1))
        with pytest.raises(NumericalError):
            infer_frame(np.ones(1), model, init)

    def test_generative_coverage(self, rng):
        # posterior mean log-spectra should cover the true ones
        model = random_model(rng, 24, 3, u_scale=0.5)
        model = PoFModel(model.U, model.alpha, np.full(24, 30.0))
        spec, a_true = sample(model, 120, seed=5)
        results = infer_frames(spec, model)
        hits = total = 0
        for t, r in enumerate(results):
            mean_log = model.U @ r.posterior.mean()
            var_log = (model.U**2) @ (r.posterior.nu / r.posterior.rho**2)
            true_log = model.U @ a_true[:, t]
            ok = np.abs(mean_log - true_log) <= 3.0 * np.sqrt(var_log) + 1e-9
            hits += int(np.count_nonzero(ok))
            total += ok.size
        assert hits / total >= 0.95


class TestInferFrames:
    def test_single_frame_equals_infer_frame(self, rng):
        model = random_model(rng, 6, 2)
        w = random_frame(rng, model)
        W = w[:, None]
        results = infer_frames(W, model)
        init = default_posterior_init(model, seed=3, frame=0)
        post, bound = infer_frame(floor_observations(W)[:, 0], model, init)
        assert np.array_equal(results[0].posterior.nu, post.nu)
        assert np.array_equal(results[0].posterior.rho, post.rho)
        assert results[0].elbo == bound

    @pytest.mark.parametrize("seed", [0, 5])
    def test_default_starts_are_default_posterior_init(self, seed):
        # without init every frame starts where default_posterior_init
        # says, whatever seed and frame it is given; at the benchmark's
        # size some of its filters are moved off the barrier
        model, W = bench_inputs(frames=12, seed=seed)
        rho_min = np.maximum(0.0, -model.U.min(axis=0))
        init = [default_posterior_init(model, seed + t, t) for t in range(W.shape[1])]
        assert np.any(np.isclose(init[0].rho, 2.0 * rho_min, rtol=1e-12, atol=0.0))
        drawn = infer_frames(W, model)
        given = infer_frames(W, model, init=init)
        for a, b in zip(drawn, given):
            assert np.array_equal(a.posterior.nu, b.posterior.nu)
            assert np.array_equal(a.posterior.rho, b.posterior.rho)
            assert a.elbo == b.elbo and a.status == b.status

    def test_inference_is_deterministic(self):
        # the same bits from two calls, and from a frame alone as inside
        # its batch: a frame's result depends on the frame and the model
        model, W = bench_inputs(frames=12, seed=6)
        first, second = infer_frames(W, model), infer_frames(W, model)
        for t, (a, b) in enumerate(zip(first, second)):
            (alone,) = infer_frames(W[:, t:t + 1], model)
            for c in (b, alone):
                assert np.array_equal(a.posterior.nu, c.posterior.nu)
                assert np.array_equal(a.posterior.rho, c.posterior.rho)
                assert a.elbo == c.elbo and a.status == c.status

    def test_init_of_another_length_rejected(self, rng):
        model = random_model(rng, 6, 2)
        with pytest.raises(ValidationError):
            infer_frames(rng.lognormal(size=(6, 1)), model,
                         init=[FramePosterior(np.ones(3), np.ones(3))])

    def test_singular_newton_system_ends_its_frame(self):
        # a frame whose Newton system LU cannot solve gets a status; the
        # solve of the other frames goes on
        W, model = huge_bin_problem(1e100)
        results = infer_frames(W, model)
        assert len(results) == W.shape[1]
        assert {r.status for r in results} <= {"converged", "max_iters",
                                               "line_search_failed", ZERO_PROGRESS}
        assert all(math.isfinite(r.elbo) for r in results)

    def test_permutation_equivariance(self, rng):
        model = random_model(rng, 6, 2)
        W = rng.lognormal(size=(6, 5))
        perm = np.array([3, 1, 4, 0, 2])
        inits = [random_feasible_posterior(rng, model) for _ in range(5)]
        res = infer_frames(W, model, init=inits)
        res_p = infer_frames(W[:, perm], model, init=[inits[t] for t in perm])
        for i, t in enumerate(perm):
            assert np.array_equal(res_p[i].posterior.nu, res[t].posterior.nu)
            assert np.array_equal(res_p[i].posterior.rho, res[t].posterior.rho)

    @staticmethod
    def assert_refilled_stack_equals_one_frame_calls(W, model, monkeypatch):
        # 12 frames through a working set of 5: each frame's result is
        # bitwise the one it gets when solved alone, including the queued
        # frames whose start is infeasible (6) or already converged (8)
        W = floor_observations(W)
        L = model.n_filters
        init = [default_posterior_init(model, 7, t) for t in range(W.shape[1])]
        init[6] = FramePosterior(init[6].nu, np.full(L, -0.5 * model.U.min()))
        assert not math.isfinite(elbo(W[:, 6], model, init[6]))
        init[8] = infer_frames(W[:, 8:9], model, init=[init[8]])[0].posterior
        batches = []
        phi_rows(monkeypatch, batches)
        monkeypatch.setattr(optim, "_width", lambda _: 5)
        stacked = infer_frames(W, model, init=init)
        assert max(map(len, batches)) == 5
        # a queued start shares an evaluation with the trials of other frames
        assert any(np.any(rows < 5) and np.any(rows >= 5) for rows in batches)
        monkeypatch.undo()
        for t, b in enumerate(stacked):
            (a,) = infer_frames(W[:, t:t + 1], model, init=[init[t]])
            assert np.array_equal(a.posterior.nu, b.posterior.nu)
            assert np.array_equal(a.posterior.rho, b.posterior.rho)
            assert a.elbo == b.elbo
            assert a.status == b.status
        assert [r.status for r in stacked].count("converged") == 11
        assert stacked[6].status == FAILED_START
        assert np.array_equal(stacked[6].posterior.rho, init[6].rho)
        assert np.array_equal(stacked[8].posterior.nu, init[8].nu)
        assert np.array_equal(stacked[8].posterior.rho, init[8].rho)

    def test_one_frame_calls_equal_multi_chunk_call(self, rng, monkeypatch):
        model = random_model(rng, 8, 3)
        self.assert_refilled_stack_equals_one_frame_calls(rng.lognormal(size=(8, 12)), model,
                                                          monkeypatch)

    @pytest.mark.parametrize("telephone_band", [False, True], ids=["F=129", "F=48"])
    def test_one_frame_calls_equal_multi_chunk_call_at_benchmark_size(
            self, telephone_band, monkeypatch):
        # the sums over f go through BLAS matrix products
        model, W = bench_inputs(telephone_band, frames=12, seed=3)
        self.assert_refilled_stack_equals_one_frame_calls(W, model, monkeypatch)

    @pytest.mark.parametrize("telephone_band", [False, True], ids=["F=129", "F=48"])
    def test_solve_stays_within_its_chunk_budget(self, telephone_band, monkeypatch):
        # the peak bytes of a solve per frame in flight, as tracemalloc sees
        # numpy's buffers, against the bytes per frame _solve gives minimize;
        # all 32 frames are in flight at once
        model, W = bench_inputs(telephone_band, frames=32, seed=4)
        estep = importlib.import_module("pof.estep")
        solve, budget = estep.minimize, []

        def recorded(phi, y0, lower, row_bytes):
            budget.append(row_bytes)
            return solve(phi, y0, lower, row_bytes)

        monkeypatch.setattr(estep, "minimize", recorded)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            infer_frames(W, model)
            per_frame = (tracemalloc.get_traced_memory()[1] - base) / W.shape[1]
        finally:
            tracemalloc.stop()
        assert optim._width(budget[0]) >= W.shape[1]
        assert 0.6 * budget[0] <= per_frame <= budget[0]

    def test_newton_iterations_per_frame(self, monkeypatch):
        # a guard on the coordinates and the direction rule that needs no
        # timing: at the benchmark's size, frames solved one by one from the
        # default start take 11.0 Newton iterations on average (15 at most)
        # in log coordinates, about 18 in the plain (nu, rho) and about 26
        # with an |eigenvalue|-modified step in place of the step on C
        model, W = bench_inputs()
        W = floor_observations(W)
        estep = importlib.import_module("pof.estep")
        solve, iters = estep.minimize, []

        def counted(*args):
            res = solve(*args)
            iters.append(res.iters)
            return res

        monkeypatch.setattr(estep, "minimize", counted)
        results = [infer_frames(W[:, t:t + 1], model, init=[default_posterior_init(model, 1, t)])[0]
                   for t in range(W.shape[1])]
        assert len(iters) == 100
        assert all(r.status == "converged" for r in results)
        assert np.mean(iters) <= 13.0

    @pytest.mark.parametrize("seed", [201, 202])
    def test_chunk_makes_as_many_calls_as_its_slowest_frame(self, seed, monkeypatch):
        # a guard that needs no timing: each frame runs its own line search,
        # so a working set holding all 28 frames evaluates the bound as often
        # as its slowest frame does when solved alone, and no frame's
        # backtrack holds up the others
        model, W = bench_inputs(frames=28, seed=seed)
        W = floor_observations(W)
        calls = []
        phi_rows(monkeypatch, calls)
        infer_frames(W, model)
        together = len(calls)
        alone = []
        for t in range(W.shape[1]):
            calls.clear()
            infer_frames(W[:, t:t + 1], model, init=[default_posterior_init(model, 1, t)])
            alone.append(len(calls))
        assert together == max(alone)

    def test_bounds_at_least_scipy_optimum(self, rng):
        # scipy's L-BFGS-B from the same start, on the same bound, inside
        # the same box (nu > 0, rho > rho_min), is an independent solver
        for _ in range(5):
            model = random_model(rng, 8, 3, u_scale=0.5)
            L = model.n_filters
            W = floor_observations(rng.lognormal(sigma=0.7, size=(8, 3)))
            results = infer_frames(W, model)
            rho_min = np.maximum(0.0, -model.U.min(axis=0))
            box = [(1e-10, None)] * L + [(r * (1 + 1e-10) + 1e-10, None) for r in rho_min]
            for t, r in enumerate(results):
                def neg(x):
                    post = FramePosterior(x[:L], x[L:])
                    value = elbo(W[:, t], model, post)
                    if not math.isfinite(value):
                        return math.inf, np.zeros_like(x)
                    return -value, -np.concatenate(elbo_grad(W[:, t], model, post))

                start = default_posterior_init(model, 1, t)
                ref = scipy.optimize.minimize(
                    neg, np.concatenate((start.nu, start.rho)), jac=True,
                    method="L-BFGS-B", bounds=box,
                    options={"maxiter": 10000, "ftol": 1e-15, "gtol": 1e-12})
                assert r.status == "converged"
                assert r.elbo >= -ref.fun - 1e-9 * abs(ref.fun)

    def test_dump_format(self, rng, tmp_path):
        model = random_model(rng, 4, 2)
        W = rng.lognormal(size=(4, 3))
        results = infer_frames(W, model)
        path = tmp_path / "post.json"
        dump_posteriors(results, path)
        doc = json.loads(path.read_text())
        assert [d["frame"] for d in doc] == [0, 1, 2]
        for d in doc:
            assert len(d["nu"]) == 2 and len(d["rho"]) == 2
            assert isinstance(d["elbo"], float)


    def test_dump_bytes(self, tmp_path):
        # the exact bytes of a two-frame dump; a bound that is not finite
        # is written as null
        results = [FrameResult(FramePosterior(np.array([1.5, 0.1]), np.array([2.0, 3.0])),
                               -1.25, "converged"),
                   FrameResult(FramePosterior(np.array([1.0, 1e-300]), np.array([4.0, 1e20])),
                               -math.inf, FAILED_START)]
        path = tmp_path / "post.json"
        dump_posteriors(results, path)
        assert path.read_bytes() == (
            b'[{"frame": 0, "nu": [1.5, 0.1], "rho": [2.0, 3.0], "elbo": -1.25}, '
            b'{"frame": 1, "nu": [1.0, 1e-300], "rho": [4.0, 1e+20], "elbo": null}]\n')


class TestFloorObservations:
    def test_floor_level(self):
        W = np.array([[0.0, 2.0], [1.0, 0.0]])
        out = floor_observations(W)
        assert out.min() == 2.0 * 1e-10
        assert out.max() == 2.0

    def test_idempotent(self, rng):
        W = rng.lognormal(size=(4, 4))
        W[0, 0] = 0.0
        once = floor_observations(W)
        assert np.array_equal(floor_observations(once), once)

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            floor_observations(np.zeros((3, 3)))
