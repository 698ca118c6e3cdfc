"""M-step objective/gradient tests and the EM driver's monotonicity,
determinism, and recovery behavior."""

import importlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pof import (EmConfig, FramePosterior, PoFModel, Spectrogram, ValidationError,
                 elbo, fit, mstep, sample)
from pof.estep import floor_observations, infer_frames
from pof.mstep import SufficientStats, _alpha_c, _solve_shape, _u_rows_phi
from pof.specfn import _shape_eq
from conftest import (central_diff, huge_bin_problem, q_oracle,
                      random_feasible_posterior, random_model)
from reference import (GammaParams, _u_row_q, gamma_c, gamma_entropy, grad_alpha,
                       grad_gamma, grad_u_row, q_objective)


def random_posteriors(rng, F=6, L=3, T=4):
    """W, a random model and T random feasible posteriors."""
    model = random_model(rng, F, L)
    posts = [random_feasible_posterior(rng, model) for _ in range(T)]
    W = rng.lognormal(sigma=0.7, size=(F, T))
    return W, model, posts


def random_problem(rng, F=6, L=3, T=4):
    W, model, posts = random_posteriors(rng, F, L, T)
    return W, model, SufficientStats.from_posteriors(posts)


def trivial_problem():
    model = PoFModel(np.zeros((1, 1)), alpha=np.ones(1), gamma=np.ones(1))
    posts = [FramePosterior(np.ones(1), np.ones(1))]
    W = np.ones((1, 1))
    return W, model, SufficientStats.from_posteriors(posts)


class TestQObjective:
    def test_hand_computed_trivial_case(self):
        W, model, stats = trivial_problem()
        assert q_objective(W, model, stats) == pytest.approx(-2.0, abs=1e-12)

    def test_elbo_decomposition_identity(self, rng):
        # sum_t elbo_t = Q + sum_t entropy_t, exactly
        W, model, posts = random_posteriors(rng, F=7, L=3, T=5)
        q = q_objective(W, model, SufficientStats.from_posteriors(posts))
        total_elbo = sum(elbo(W[:, t], model, p) for t, p in enumerate(posts))
        total_entropy = sum(
            float(np.sum(gamma_entropy(GammaParams(p.nu, p.rho)))) for p in posts
        )
        assert total_elbo == pytest.approx(q + total_entropy, rel=1e-9)

    def test_matches_scalar_loop_oracle(self, rng):
        for _ in range(10):
            W, model, posts = random_posteriors(rng)
            assert q_objective(W, model, SufficientStats.from_posteriors(posts)) == \
                pytest.approx(q_oracle(W, model, posts), rel=1e-10)

    def test_infeasible_is_neg_inf(self):
        model = PoFModel(np.full((1, 1), -2.0), alpha=np.ones(1), gamma=np.ones(1))
        stats = SufficientStats.from_posteriors([FramePosterior(np.ones(1), np.ones(1))])
        assert q_objective(np.ones((1, 1)), model, stats) == -math.inf


class TestGradURow:
    def test_stationary_trivial_case(self):
        W, model, stats = trivial_problem()
        assert abs(grad_u_row(0, W, model, stats)[0]) < 1e-12

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            W, model, stats = random_problem(rng)
            f = int(rng.integers(model.n_bins))
            analytic = grad_u_row(f, W, model, stats)

            def fun(u_row):
                U = model.U.copy()
                U[f] = u_row
                return q_objective(W, PoFModel(U, model.alpha, model.gamma), stats)

            fd = central_diff(fun, model.U[f], eps=1e-6)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-5

    def test_row_separability_bitwise(self, rng):
        W, model, stats = random_problem(rng, F=5)
        before = grad_u_row(2, W, model, stats)
        U = model.U.copy()
        U[4] += 123.456  # perturb a different row
        after = grad_u_row(2, W, PoFModel(U, model.alpha, model.gamma), stats)
        assert np.array_equal(before, after)


class TestGradAlpha:
    def test_stationary_at_unit_posteriors(self):
        W, model, stats = trivial_problem()
        assert abs(grad_alpha(W, model, stats)[0]) < 1e-12

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            W, model, stats = random_problem(rng)
            analytic = grad_alpha(W, model, stats)

            def fun(alpha):
                return q_objective(W, PoFModel(model.U, alpha, model.gamma), stats)

            fd = central_diff(fun, model.alpha, eps=1e-6)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-5

    def test_blows_up_as_alpha_vanishes(self, rng):
        W, model, stats = random_problem(rng, L=2)
        tiny = PoFModel(model.U, np.full(2, 1e-12), model.gamma)
        g = grad_alpha(W, tiny, stats)
        assert np.all(g > 1e10)  # log alpha term dominates


class TestGradGamma:
    def test_hand_computed_trivial_case(self):
        W, model, stats = trivial_problem()
        g = grad_gamma(W, model, stats)
        assert g[0] == pytest.approx(np.euler_gamma, abs=1e-10)

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            W, model, stats = random_problem(rng)
            analytic = grad_gamma(W, model, stats)

            def fun(gamma):
                return q_objective(W, PoFModel(model.U, model.alpha, gamma), stats)

            fd = central_diff(fun, model.gamma, eps=1e-6)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-5

    def test_duplicated_frame_doubles_gradient(self, rng):
        W, model, posts = random_posteriors(rng, T=1)
        single = grad_gamma(W, model, SufficientStats.from_posteriors(posts))
        W2 = np.column_stack([W[:, 0], W[:, 0]])
        stats2 = SufficientStats.from_posteriors(posts * 2)
        double = grad_gamma(W2, model, stats2)
        assert np.allclose(double, 2.0 * single, rtol=1e-12)


class TestMstep:
    def test_q_never_decreases(self, rng):
        for _ in range(5):
            W, model, stats = random_problem(rng, F=8, L=3, T=6)
            q0 = q_objective(W, model, stats)
            new = mstep(W, model, stats)
            assert q_objective(W, new, stats) >= q0 - 1e-12

    def test_zero_entry_is_floored(self, rng):
        # mstep floors W on entry, as fit does
        W, model, stats = random_problem(rng)
        W[1, 2] = 0.0
        raw, floored = mstep(W, model, stats), mstep(floor_observations(W), model, stats)
        for name in ("U", "alpha", "gamma"):
            assert np.array_equal(getattr(raw, name), getattr(floored, name))

    def test_stationary_instance_nearly_unchanged(self):
        # At the trivial exact-posterior point all three gradients vanish
        # except gamma's (euler_gamma > 0), so run a two-frame version whose
        # alpha/U blocks are stationary and check they barely move.
        model = PoFModel(np.zeros((1, 1)), alpha=np.ones(1), gamma=np.ones(1))
        posts = [FramePosterior(np.ones(1), np.ones(1))] * 2
        W = np.ones((1, 2))
        stats = SufficientStats.from_posteriors(posts)
        new = mstep(W, model, stats)
        assert abs(new.U[0, 0]) < 1e-6
        assert abs(new.alpha[0] - 1.0) < 1e-6

    def test_frozen_rows_kept(self, rng):
        W, model, stats = random_problem(rng, F=5)
        new = mstep(W, model, stats, frozen_rows=frozenset({1, 3}))
        assert np.array_equal(new.U[1], model.U[1])
        assert np.array_equal(new.U[3], model.U[3])
        assert new.gamma[1] == model.gamma[1]
        assert new.gamma[3] == model.gamma[3]

    def test_shapes_stationary_after_mstep(self, rng):
        # the shape blocks are solved to round-off
        for _ in range(5):
            W, model, stats = random_problem(rng, F=8, L=3, T=6)
            frozen = frozenset({2})
            new = mstep(W, model, stats, frozen_rows=frozen)
            T = W.shape[1]
            ok_alpha = _alpha_c(stats) > 0
            ok_gamma = gamma_c(W, new.U, stats) > 0
            ok_gamma[list(frozen)] = False
            assert ok_alpha.any() and ok_gamma.any()
            assert np.max(np.abs(grad_alpha(W, new, stats)[ok_alpha])) <= 1e-9 * T
            assert np.max(np.abs(grad_gamma(W, new, stats)[ok_gamma])) <= 1e-9 * T

    def test_shape_without_finite_maximiser_kept(self):
        # one frame reconstructed exactly gives gamma's c = 0: Q rises
        # towards gamma = inf, so the previous value stays
        W, model, stats = trivial_problem()
        model = PoFModel(model.U, model.alpha, np.array([2.5]))
        assert gamma_c(W, model.U, stats)[0] == 0.0
        assert mstep(W, model, stats).gamma[0] == 2.5

    def test_alpha_gamma_recovery_with_true_filters(self, rng):
        # E-step with the true model, then alpha/gamma-only updates from the
        # exact expected statistics: recovered alpha within 20% of truth.
        F, L, T = 12, 3, 2000
        U = rng.normal(0.0, 0.4, size=(F, L))
        alpha_true = np.array([0.6, 1.5, 3.0])
        gamma_true = np.full(F, 20.0)
        true_model = PoFModel(U, alpha_true, gamma_true)
        spec, _ = sample(true_model, T, seed=21)
        results = infer_frames(spec, true_model, seed=0)
        assert all(r.status == "converged" for r in results)
        stats = SufficientStats.from_posteriors([r.posterior for r in results])
        alpha_hat = _solve_shape(_alpha_c(stats))
        assert np.all(np.abs(alpha_hat - alpha_true) / alpha_true < 0.2)


def row_q(f, W, model, stats):
    return _u_row_q(model.U[f], W[f], model.gamma[f], stats,
                    stats.expect_a.sum(axis=1))[0]


def lbfgs_row(f, W, model, stats):
    """Row f of U maximised by scipy's L-BFGS-B on _u_row_q, from model.U[f],
    inside the box u > -min_t rho_t."""
    sum_ea = stats.expect_a.sum(axis=1)

    def f_and_grad(u):
        q, grad = _u_row_q(u, W[f], model.gamma[f], stats, sum_ea)
        if grad is None:
            return math.inf, np.zeros_like(u)
        return -q, -grad

    lower = -stats.rho.min(axis=1)
    box = [(b + 1e-10 * max(1.0, abs(b)), None) for b in lower]
    return scipy.optimize.minimize(
        f_and_grad, model.U[f], jac=True, method="L-BFGS-B", bounds=box,
        options={"maxiter": 10000, "ftol": 1e-15, "gtol": 1e-12}).x


class TestURowNewton:
    def test_hessian_matches_finite_differences(self, rng):
        for _ in range(10):
            W, model, stats = random_problem(rng)
            f = int(rng.integers(model.n_bins))
            _, _, hess, _ = _u_rows_phi(model.U[f:f + 1], W[f:f + 1], stats,
                                     stats.expect_a.sum(axis=1))
            analytic = -model.gamma[f] * hess[0]       # Hessian of Q_f

            def grad_at(u_row):
                U = model.U.copy()
                U[f] = u_row
                return grad_u_row(f, W, PoFModel(U, model.alpha, model.gamma), stats)

            fd = np.array([central_diff(lambda u: grad_at(u)[i], model.U[f], eps=1e-6)
                           for i in range(model.n_filters)])
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-5

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), L=st.integers(1, 4), T=st.integers(1, 5))
    def test_hessian_is_psd(self, data, L, T):
        # the row objective is convex, which is why its Hessian serves as
        # its own stand-in C in minimize
        def arrays(shape, lo, hi):
            return data.draw(hnp.arrays(float, shape, elements=st.floats(lo, hi)))

        posts = [FramePosterior(arrays(L, 1e-3, 1e3), arrays(L, 1e-3, 1e3)) for _ in range(T)]
        stats = SufficientStats.from_posteriors(posts)
        W = arrays((3, T), 1e-6, 1e6)
        U = -stats.rho.min(axis=1) + arrays((3, L), 1e-6, 1e3)
        _, _, hess, curv = _u_rows_phi(U, W, stats, stats.expect_a.sum(axis=1))
        assert curv is hess
        for h in hess[np.all(np.isfinite(hess), axis=(1, 2))]:
            assert np.linalg.eigvalsh(h).min() >= -1e-12 * np.abs(h).max()

    def test_rows_at_least_as_good_as_lbfgs(self, rng):
        for _ in range(3):
            W, model, stats = random_problem(rng, F=8, L=3, T=6)
            frozen = frozenset({5})
            # both rows are scored with the starting gamma, which mstep updates
            new = PoFModel(mstep(W, model, stats, frozen_rows=frozen).U,
                           model.alpha, model.gamma)
            for f in set(range(8)) - frozen:
                U = model.U.copy()
                U[f] = lbfgs_row(f, W, model, stats)
                ref = row_q(f, W, PoFModel(U, model.alpha, model.gamma), stats)
                assert row_q(f, W, new, stats) >= ref - 1e-12 * abs(ref)

    def test_stack_matches_rows_solved_alone(self, rng, monkeypatch):
        W, model, stats = random_problem(rng, F=8, L=3, T=6)
        stacked = mstep(W, model, stats).U
        for f in range(8):
            alone = mstep(W[f:f + 1], PoFModel(model.U[f:f + 1], model.alpha,
                                               model.gamma[f:f + 1]), stats).U[0]
            assert np.max(np.abs(alone - stacked[f])) <= 1e-10 * np.max(np.abs(stacked[f]))
        # chunks of one row each give the same rows as one chunk
        monkeypatch.setattr(importlib.import_module("pof.optim"), "_CHUNK_BYTES", 1)
        chunked = mstep(W, model, stats).U
        scale = np.abs(stacked).max(axis=1, keepdims=True)
        assert np.all(np.abs(chunked - stacked) <= 1e-10 * scale)

    @pytest.mark.parametrize("L, T", [(50, 16), (50, 64), (20, 80), (5, 400)])
    def test_solve_stays_within_its_row_budget(self, L, T, monkeypatch):
        # the peak bytes of the U solve per row in flight, as tracemalloc
        # sees numpy's buffers, against the bytes per row mstep gives
        # minimize; all 24 rows are in flight at once
        rng = np.random.default_rng(L + T)
        F = 24
        model = PoFModel(rng.normal(0.0, 0.01, (F, L)), np.ones(L), rng.uniform(0.5, 5.0, F))
        stats = SufficientStats.from_posteriors(
            [FramePosterior(rng.uniform(0.5, 5.0, L), rng.uniform(0.5, 5.0, L))
             for _ in range(T)])
        W = rng.lognormal(size=(F, T))
        mstep_module = importlib.import_module("pof.mstep")
        solve, budget, peak = mstep_module.minimize, [], []

        def measured(phi, x0, lower, row_bytes):
            budget.append(row_bytes)
            tracemalloc.start()
            try:
                res = solve(phi, x0, lower, row_bytes)
                peak.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return res

        monkeypatch.setattr(mstep_module, "minimize", measured)
        mstep(W, model, stats)
        assert importlib.import_module("pof.optim")._width(budget[0]) >= F
        assert 0.6 * budget[0] <= peak[0] / F <= budget[0]

    def test_singular_hessian_row_kept(self, rng):
        # row 2's reconstruction underflows to 0 in every frame: exp(S) <=
        # (1 + 1e60 / 4)^-6 < 1e-350, so its Hessian is exactly 0 (W is
        # floored on entry, so a tiny row of W cannot do this)
        F, L, T = 5, 3, 4
        model = random_model(rng, F, L, u_scale=0.1)
        U = model.U.copy()
        U[2] = 1e60
        model = PoFModel(U, model.alpha, model.gamma)
        posts = [FramePosterior(np.full(L, 2.0), np.full(L, 1.0 + t)) for t in range(T)]
        stats = SufficientStats.from_posteriors(posts)
        W = rng.lognormal(sigma=0.7, size=(F, T))
        _, _, hess, _ = _u_rows_phi(U, W, stats, stats.expect_a.sum(axis=1))
        assert np.all(hess[2] == 0.0)
        new = mstep(W, model, stats)
        assert np.array_equal(new.U[2], U[2])
        for f in (0, 1, 3, 4):
            grad = grad_u_row(f, W, new, stats)
            assert np.max(np.abs(grad)) < 1e-8 * model.gamma[f] * stats.expect_a.sum()

    def test_tiny_reconstruction_row_moves(self, rng):
        # row 2 at 1e6 reconstructs about (rho / 1e6)^6, 1e-36 to 1e-33: its
        # Newton step is of order 1e40 and crosses the barrier, so the
        # backtrack has to start near the barrier to accept any trial
        F, L, T = 5, 3, 4
        model = random_model(rng, F, L, u_scale=0.1)
        U = model.U.copy()
        U[2] = 1e6
        model = PoFModel(U, model.alpha, model.gamma)
        posts = [FramePosterior(np.full(L, 2.0), np.full(L, 1.0 + t)) for t in range(T)]
        stats = SufficientStats.from_posteriors(posts)
        W = rng.lognormal(sigma=0.7, size=(F, T))
        W[2] = 1.0
        new = PoFModel(mstep(W, model, stats).U, model.alpha, model.gamma)
        assert np.all(new.U[2] < 1e6)
        assert row_q(2, W, new, stats) > row_q(2, W, model, stats)
        grad = grad_u_row(2, W, new, stats)
        assert np.max(np.abs(grad)) < 1e-8 * model.gamma[2] * stats.expect_a.sum()

    def test_infeasible_start_row_kept(self, rng):
        W, model, stats = random_problem(rng, F=5, L=3, T=4)
        U = model.U.copy()
        U[3, 1] = -stats.rho[1].min() - 1.0
        model = PoFModel(U, model.alpha, model.gamma)
        new = mstep(W, model, stats)
        assert np.array_equal(new.U[3], U[3])
        assert new.gamma[3] == model.gamma[3]
        # gamma_f enters Q through row f alone: the other rows' gamma is solved
        others = [0, 1, 2, 4]
        assert np.all(gamma_c(W, new.U, stats)[others] > 0)
        assert np.max(np.abs(grad_gamma(W, new, stats)[others])) <= 1e-9 * W.shape[1]
        # U rows scored with the starting gamma, as before mstep
        solved = PoFModel(new.U, model.alpha, model.gamma)
        for f in others:
            grad = grad_u_row(f, W, solved, stats)
            assert np.max(np.abs(grad)) < 1e-8 * model.gamma[f] * stats.expect_a.sum()


class TestSolveShape:
    def test_residual_over_range(self):
        # the residual is relative to c; log x - psi(x) is taken from
        # _shape_eq, since log(x) - _digamma(x) cancels at x ~ 1/(2c)
        c = np.logspace(-20, 30, 2001)
        x = _solve_shape(c)
        assert np.all(x > 0)
        assert np.max(np.abs(_shape_eq(x)[0] - c) / c) < 1e-12
        # below c = 1e-7 the expansion of the root is exact to rounding
        small = c <= 1e-7
        series = 1.0 / (2.0 * c[small]) + 1.0 / 6.0 + c[small] / 18.0
        assert np.max(np.abs(x[small] - series) / series) < 1e-13


class TestFit:
    def test_monotone_trace_and_determinism(self, rng):
        model_true = random_model(rng, 10, 2, u_scale=0.5)
        spec, _ = sample(model_true, 40, seed=2)
        cfg = EmConfig(L=2, max_em_iters=8, seed=3)
        m1, trace1 = fit(spec, cfg)
        m2, trace2 = fit(spec, cfg)
        assert trace1 == trace2
        assert np.array_equal(m1.U, m2.U)
        for a, b in zip(trace1, trace1[1:]):
            assert b >= a - 1e-9 * abs(a)

    def test_training_log_lines(self, rng):
        model_true = random_model(rng, 8, 2)
        spec, _ = sample(model_true, 20, seed=4)
        lines = []
        fit(spec, EmConfig(L=2, max_em_iters=3), log_sink=lines.append)
        assert len(lines) >= 2
        assert all(line.startswith("iter=") and "elbo=" in line and
                   "delta=" in line and "secs=" in line for line in lines)

    def test_degenerate_constant_input_warns(self):
        W = Spectrogram(np.ones((4, 6)), "magnitude", 16000, 1024, 512)
        with pytest.warns(UserWarning, match="constant"):
            fit(W, EmConfig(L=2, max_em_iters=2))

    def test_zero_rows_frozen(self, rng):
        data = rng.lognormal(size=(5, 30))
        data[2] = 0.0
        W = Spectrogram(data, "magnitude", 16000, 1024, 512)
        with pytest.warns(UserWarning, match="frozen"):
            model, _ = fit(W, EmConfig(L=2, max_em_iters=3))
        assert np.array_equal(model.U[2], np.zeros(2))
        assert model.gamma[2] == 1.0

    @pytest.mark.parametrize("scale", [1e50, 1e100, 1e150])
    def test_huge_bin_gives_finite_trace(self, scale):
        W, _ = huge_bin_problem(scale)
        _, trace = fit(W, EmConfig(L=2, max_em_iters=3))
        assert len(trace) == 3 and all(math.isfinite(b) for b in trace)

    def test_too_few_frames(self):
        W = Spectrogram(np.ones((4, 1)), "magnitude", 16000, 1024, 512)
        with pytest.raises(ValidationError):
            fit(W, EmConfig(L=2))


def heldout_bound(spec, model):
    """The E-step bound of spec under model, per observation."""
    return sum(r.elbo for r in infer_frames(spec, model)) / spec.data.size


def worst_filter_match(U_true, U_learned):
    """The smallest |cos| of a greedy best-match pairing of the columns,
    which are identified only up to permutation and scale."""
    cos = np.abs((U_true / np.linalg.norm(U_true, axis=0)).T
                 @ (U_learned / np.linalg.norm(U_learned, axis=0)))
    worst = 1.0
    for _ in range(cos.shape[0]):
        i, j = np.unravel_index(np.argmax(cos), cos.shape)
        worst = min(worst, cos[i, j])
        cos[i, :] = cos[:, j] = -1.0
    return worst


class TestFitRecovery:
    # F=16, L=3, 400 held-out frames, fits to T=40 and T=160 frames. Seeds
    # 0-9 measured: the T=160 gap is 3.0-21x below the T=40 one (0.0049-0.030
    # nats against 0.058-0.113); the worst match at T=160 is 0.846-0.972 for
    # seeds 0-4, and 0.39 for seed 8, whose fit converges to a local optimum
    # that splits one true filter over two learned ones.
    @pytest.mark.parametrize("seed", range(5))
    def test_fit_recovers_generating_model(self, seed):
        true = random_model(np.random.default_rng(100 + seed), 16, 3)
        heldout, _ = sample(true, 400, seed=900 + seed)
        best = heldout_bound(heldout, true)
        gaps = []
        for T in (40, 160):
            train, _ = sample(true, T, seed=seed)
            learned, _ = fit(train, EmConfig(L=3, max_em_iters=40, seed=seed))
            gaps.append(best - heldout_bound(heldout, learned))
        assert gaps[1] < 0.5 * gaps[0]
        assert worst_filter_match(true.U, learned.U) >= 0.75
