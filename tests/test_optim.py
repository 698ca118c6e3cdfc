"""Tests of the batched damped Newton solver: convergence, the direction
rule (H where it has a Cholesky factor, else the convex stand-in C), the
box, and the meaning of every row status."""

import importlib
import math

import numpy as np
import pytest

import pof
from pof import infer_frames, minimize
from pof.mstep import SufficientStats, mstep
from pof.optim import FAILED_START, ZERO_PROGRESS
from conftest import random_model

optim = importlib.import_module("pof.optim")


def rowwise(fun, convex=None):
    """phi for minimize from fun(x) -> (f, g, H) of one row, with C from
    convex(x) at the rows asked for, or C = H when convex is None. Rows
    where fun gives a non-finite value come back as +inf."""
    def phi(batch):
        _, X = batch
        n, d = X.shape
        f, g, h = np.empty(n), np.empty((n, d)), np.empty((n, d, d))
        for i, x in enumerate(X):
            f[i], g[i], h[i] = fun(x)
        f[~np.isfinite(f)] = math.inf
        if convex is None:
            return f, g, h, lambda at: h[at]
        return f, g, h, lambda at: np.array([convex(X[i]) for i in at]).reshape(len(at), d, d)
    return phi


def per_row(*funs):
    """phi for minimize whose row i is that of rowwise(funs[i])."""
    phis = [rowwise(fun) for fun in funs]

    def phi(batch):
        rows, X = batch
        outs = [phis[i]((None, X[j:j + 1]))[:3] for j, i in enumerate(rows)]
        f, g, h = (np.concatenate(parts) for parts in zip(*outs))
        return f, g, h, lambda at: h[at]
    return phi


def solve_counted(phi, X0, lower):
    """minimize's result and the number of phi calls it made."""
    calls = 0

    def counted(X):
        nonlocal calls
        calls += 1
        return phi(X)

    return minimize(counted, X0, lower), calls


def quadratic(x):
    return float(x @ x), 2.0 * x, 2.0 * np.eye(x.size)


def rosenbrock(x):
    a, b = x
    f = (1 - a) ** 2 + 100.0 * (b - a**2) ** 2
    g = np.array([-2 * (1 - a) - 400 * a * (b - a**2), 200 * (b - a**2)])
    h = np.array([[2 - 400 * (b - 3 * a**2), -400 * a], [-400 * a, 200.0]])
    return f, g, h


def rosenbrock_gauss_newton(x):
    # f = |r|^2 with r = (1 - a, 10 (b - a^2)): the curvature 2 J'J
    jac = np.array([[-1.0, 0.0], [-20.0 * x[0], 10.0]])
    return 2.0 * jac.T @ jac


def quartic(x):
    # saddle at 0, minima at +-(1/2, -1/2); indefinite Hessian near 0
    f = float(np.sum(x**4) + x[0] * x[1])
    g = np.array([4 * x[0] ** 3 + x[1], 4 * x[1] ** 3 + x[0]])
    h = np.array([[12 * x[0] ** 2, 1.0], [1.0, 12 * x[1] ** 2]])
    return f, g, h


def quartic_convex(x):
    # the convex quartic terms plus |[[0, 1], [1, 0]]| = I for the product
    return np.diag(12 * x**2) + np.eye(2)


def free(d):
    return np.full(d, -math.inf)


class TestMinimize:
    def test_quadratic_fast(self):
        X0 = np.random.default_rng(0).normal(size=(3, 10))
        res = minimize(rowwise(quadratic), X0, free(10))
        assert res.status == "converged"
        assert list(res.row_status) == ["converged"] * 3
        assert np.max(np.abs(res.x)) < 1e-12
        assert res.iters <= 2

    def test_rosenbrock(self):
        X0 = np.array([[-1.2, 1.0], [0.0, 1.0]])
        # the second start has an indefinite Hessian: only the step on the
        # Gauss-Newton curvature is a descent direction there
        assert np.linalg.eigvalsh(rosenbrock(X0[1])[2]).min() < 0
        res = minimize(rowwise(rosenbrock, rosenbrock_gauss_newton), X0, free(2))
        assert list(res.row_status) == ["converged", "converged"]
        assert np.allclose(res.x, 1.0, atol=1e-8)
        # independent optimality check: the gradient vanishes there
        for x in res.x:
            assert np.max(np.abs(rosenbrock(x)[1])) <= 1e-8

    def test_step_is_newton_on_h_where_h_factors_else_on_c(self):
        # row 0: H is positive definite and differs from C; row 1: H is
        # indefinite; row 2: H is C
        rng = np.random.default_rng(3)
        grad = rng.normal(size=(3, 4))
        a = rng.normal(size=(3, 4, 4))
        curv = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(4)
        hess = curv.copy()
        hess[0] += np.eye(4)
        hess[1] -= 2.0 * np.diag(np.diagonal(curv[1]))
        assert np.linalg.eigvalsh(hess[1]).min() < 0
        asked = []
        step = optim._directions(hess, lambda at: asked.append(at) or curv[at], grad,
                                 np.arange(3))
        for i, m in enumerate((hess[0], curv[1], curv[2])):
            assert np.allclose(step[i], -np.linalg.solve(m, grad[i]), rtol=1e-12, atol=0.0)
        # a descent direction on the row whose H has no factor, the only
        # row whose C is asked for
        assert grad[1] @ step[1] < 0
        assert [list(at) for at in asked] == [[1]]
        # the rows 2 and 1 of the stack alone: C is asked for by the row's
        # place in the stack, and the steps are those of the whole stack
        asked.clear()
        some = optim._directions(hess, lambda at: asked.append(at) or curv[at], grad,
                                 np.array([2, 1]))
        assert np.array_equal(some, step[[2, 1]])
        assert [list(at) for at in asked] == [[1]]

    def test_stand_in_asked_only_where_factors_rejects_h(self, monkeypatch):
        # each _factors call on a stack of H that rejects some rows is
        # followed by one request for C at that many rows, each of whose
        # scaled H numpy cannot factor, and then by the _factors call on
        # their C; a stack that _factors passes asks for no C
        events, factors = [], optim._factors
        monkeypatch.setattr(optim, "_factors",
                            lambda m: events.append(factors(m)) or events[-1].copy())
        phi = rowwise(rosenbrock, rosenbrock_gauss_newton)

        def seen(batch):
            f, g, h, stand_in = phi(batch)

            def asked(at):
                for i in at:
                    d = 1.0 / np.sqrt(np.abs(np.diagonal(h[i])))
                    with pytest.raises(np.linalg.LinAlgError):
                        np.linalg.cholesky(h[i] * d[:, None] * d[None, :])
                events.append(at)
                return stand_in(at)
            return f, g, h, asked

        X0 = np.array([[-1.2, 1.0], [0.0, 1.0], [2.0, -3.0], [0.5, 0.5], [-0.5, 2.0]])
        res = minimize(seen, X0, free(2))
        assert list(res.row_status) == ["converged"] * 5
        i, asked = 0, 0
        while i < len(events):
            verdict = events[i]
            if verdict.all():
                i += 1
                continue
            at, again = events[i + 1], events[i + 2]
            assert at.dtype != bool and again.dtype == bool
            assert len(at) == len(again) == np.sum(~verdict)
            asked += len(at)
            i += 3
        assert asked > 0

    def test_step_on_c_uses_scaled_c(self):
        # H has no Cholesky factor, so the step is the Newton step on C
        # Jacobi-scaled by its own diagonal, even for a badly scaled C
        scales = np.array([1e-6, 1.0, 1e6])
        curv = (np.eye(3) + 0.3) * scales[:, None] * scales[None, :]
        hess = curv.copy()
        hess[0, 0] = -hess[0, 0]
        grad = np.array([1.0, -2.0, 3.0])
        (step,) = optim._directions(hess[None], lambda at: curv[None][at], grad[None],
                                    np.arange(1))
        d = 1.0 / np.sqrt(np.diagonal(curv))
        expected = -d * np.linalg.solve(curv * d[:, None] * d[None, :], d * grad)
        assert np.array_equal(step, expected)

    def test_singular_solve_gives_its_row_no_step(self, monkeypatch):
        # a scaled H can have a (tiny) Cholesky factor where LU meets an
        # exact zero pivot; _factors is made to pass every matrix, so row 1,
        # whose rows 0 and 2 are exact negatives, reaches the solve
        monkeypatch.setattr(optim, "_factors", lambda m: np.ones(len(m), dtype=bool))
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 4, 4))
        hess = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(4)
        hess[1] = [[1.0, 0.5, -1.0, 0.2], [0.5, 1.0, -0.5, 0.3],
                   [-1.0, -0.5, 1.0, -0.2], [0.2, 0.3, -0.2, 1.0]]
        grad = rng.normal(size=(3, 4))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(hess[1], grad[1])
        step = optim._directions(hess, lambda at: hess[at], grad, np.arange(3))
        assert not np.any(np.isfinite(step[1]))
        for i in (0, 2):
            alone = optim._directions(hess[i:i + 1], lambda at: hess[i:i + 1][at],
                                      grad[i:i + 1], np.arange(1))[0]
            assert np.array_equal(step[i], alone)

    def test_row_whose_c_has_no_factor_is_kept(self):
        # row 0 lies on the saddle x0^2 - x1^2 (where x1 < 0.5) and is given
        # a stand-in C that is indefinite too: it has no direction and keeps
        # its start, while row 1, on a bowl, is solved
        def fun(x):
            if x[1] < 0.5:
                return (float(x[0] ** 2 - x[1] ** 2), np.array([2.0 * x[0], -2.0 * x[1]]),
                        np.diag([2.0, -2.0]))
            return quadratic(x - np.array([0.0, 2.0]))

        def convex(x):
            return np.diag([2.0, -1.0]) if x[1] < 0.5 else 2.0 * np.eye(2)

        X0 = np.array([[1.0, 0.25], [1.0, 1.0]])
        res = minimize(rowwise(fun, convex), X0, free(2))
        assert list(res.row_status) == [ZERO_PROGRESS, "converged"]
        assert res.status == ZERO_PROGRESS
        assert np.array_equal(res.x[0], X0[0])
        assert np.allclose(res.x[1], [0.0, 2.0], atol=1e-12)

    def test_rows_independent_of_stack(self):
        X0 = np.array([[-1.2, 1.0], [0.0, 1.0], [2.0, -3.0]])
        phi = rowwise(rosenbrock, rosenbrock_gauss_newton)
        together = minimize(phi, X0, free(2))
        for i in range(3):
            alone = minimize(phi, X0[i:i + 1], free(2))
            assert np.array_equal(alone.x[0], together.x[i])
            assert alone.f[0] == together.f[i]

    def test_stack_makes_as_many_calls_as_its_slowest_row(self):
        # the rows backtrack in different iterations; each runs its own line
        # search, so no row waits for another's halvings and the stack
        # makes the phi calls of its slowest row alone (30), not more
        X0 = np.array([[-1.2, 1.0], [0.0, 1.0], [2.0, -3.0]])
        phi = rowwise(rosenbrock, rosenbrock_gauss_newton)
        _, together = solve_counted(phi, X0, free(2))
        alone = [solve_counted(phi, X0[i:i + 1], free(2))[1] for i in range(3)]
        assert len(set(alone)) == 3
        assert together == max(alone)

    def test_per_row_caps_in_a_stack(self, monkeypatch):
        # one row of each ending, each capped on its own counts: -log x + x
        # from 1e-13 needs 48 iterations and ends max_iters at the cap of
        # 30; the wall of test_failure_after_progress_is_line_search_failed
        # ends line_search_failed after 27; an infeasible start; a quadratic
        monkeypatch.setattr(optim, "_MAX_ITERS", 30)

        def steep(x):
            return -math.log(x[0]) + x[0], np.array([1.0 - 1.0 / x[0]]), \
                np.full((1, 1), 1.0 / x[0] ** 2)

        def walled(x):
            if x[0] < 2.0:
                return math.inf, np.zeros(1), np.zeros((1, 1))
            return float(x[0] ** 2 - 4.0), np.array([2.0 * x[0]]), np.full((1, 1), 2.0)

        def positive(x):
            if x[0] <= 0.0:
                return math.inf, np.zeros(1), np.zeros((1, 1))
            return quadratic(x - 3.0)

        funs = [steep, walled, positive, lambda x: quadratic(x - 1.0)]
        X0 = np.array([[1e-13], [3.0], [-1.0], [2.0]])
        res, calls = solve_counted(per_row(*funs), X0, np.zeros(1))
        assert list(res.row_status) == ["max_iters", "line_search_failed", FAILED_START,
                                        "converged"]
        alone = [solve_counted(per_row(fun), X0[i:i + 1], np.zeros(1))
                 for i, fun in enumerate(funs)]
        for i, (a, _) in enumerate(alone):
            assert np.array_equal(a.x[0], res.x[i])
            assert a.f[0] == res.f[i]
            assert a.row_status[0] == res.row_status[i]
        assert [a.iters for a, _ in alone] == [30, 27, 0, 1]
        assert res.iters == 30
        assert calls == max(n for _, n in alone)

    def test_working_set_refills(self):
        # five rows through a working set of two: no evaluation holds more
        # than two rows, a queued start is evaluated beside the trial of a
        # row in flight, and every row ends as it does alone
        X0 = np.array([[-1.2, 1.0], [0.0, 1.0], [2.0, -3.0], [0.5, 0.5], [1.0, 1.0]])
        phi = rowwise(rosenbrock, rosenbrock_gauss_newton)
        batches = []

        def seen(batch):
            batches.append(batch[0].copy())
            return phi(batch)

        res = minimize(seen, X0, free(2), optim._CHUNK_BYTES // 2)
        assert max(map(len, batches)) == 2
        met, mixed = set(), False
        for rows in batches:
            mixed |= 0 < len(met.intersection(rows)) < len(rows)
            met.update(rows)
        assert mixed
        alone = [minimize(phi, X0[i:i + 1], free(2)) for i in range(5)]
        for i, a in enumerate(alone):
            assert np.array_equal(a.x[0], res.x[i])
            assert a.f[0] == res.f[i]
            assert a.row_status[0] == res.row_status[i] == "converged"
        assert res.iters == max(a.iters for a in alone)
        assert alone[4].iters == 0

    def test_width_above_rows(self):
        # a working set wider than the stack takes every start in the first
        # evaluation and gives the results of the default width
        X0 = np.array([[-1.2, 1.0], [0.0, 1.0], [2.0, -3.0]])
        phi = rowwise(rosenbrock, rosenbrock_gauss_newton)
        batches = []

        def seen(batch):
            batches.append(batch[0].copy())
            return phi(batch)

        res = minimize(seen, X0, free(2), optim._CHUNK_BYTES // 10)
        assert list(batches[0]) == [0, 1, 2]
        wide = minimize(phi, X0, free(2))
        assert np.array_equal(res.x, wide.x) and np.array_equal(res.f, wide.f)
        assert list(res.row_status) == list(wide.row_status)

    def test_no_rows(self):
        res, calls = solve_counted(rowwise(quadratic), np.zeros((0, 3)), free(3))
        assert calls == 0
        assert res.x.shape == (0, 3) and res.f.shape == (0,) and res.row_status.shape == (0,)
        assert res.status == "converged" and res.iters == 0

    def test_barrier_respected(self):
        # the minimiser of (x + 1)^2 over x > 0 is on the box: every trial
        # stays inside it, and the row stops at round-off next to it
        seen = []

        def shifted(x):
            seen.append(x[0])
            return quadratic(x + 1.0)

        res = minimize(rowwise(shifted), np.array([[2.0]]), np.zeros(1))
        assert res.status == "converged"
        assert 0.0 < res.x[0, 0] < 1e-12
        assert math.isfinite(res.f[0])
        assert all(v > 0.0 for v in seen)

    def test_interior_minimum_inside_box(self):
        res = minimize(rowwise(lambda x: quadratic(x - 1.0)), np.array([[2.0]]), np.zeros(1))
        assert res.status == "converged"
        assert res.x[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_accepted_values(self, monkeypatch):
        # the solve capped at k iterations is the first k iterations of the
        # uncapped one, so its values are the accepted values in order
        x0 = np.array([[2.0, -3.0]])
        values = [quartic(x0[0])[0]]
        for k in range(1, 100):
            monkeypatch.setattr(optim, "_MAX_ITERS", k)
            res = minimize(rowwise(quartic, quartic_convex), x0, free(2))
            assert res.iters == k
            values.append(res.f[0])
            if res.status == "converged":
                break
            assert res.status == "max_iters"
        assert res.status == "converged"
        assert len(values) >= 4
        assert all(b < a for a, b in zip(values, values[1:]))
        assert np.allclose(np.abs(res.x[0]), 0.5, atol=1e-8)

    def test_infeasible_start_row_kept(self):
        def positive(x):
            if x[0] <= 0.0:
                return math.inf, np.zeros(1), np.zeros((1, 1))
            return quadratic(x - 3.0)

        X0 = np.array([[-1.0], [1.0]])
        res = minimize(rowwise(positive), X0, free(1))
        assert list(res.row_status) == [FAILED_START, "converged"]
        assert res.status == FAILED_START
        assert res.x[0, 0] == -1.0 and res.f[0] == math.inf
        assert res.x[1, 0] == pytest.approx(3.0, abs=1e-12)

    def test_already_converged(self):
        X0 = np.zeros((1, 4))
        res = minimize(rowwise(quadratic), X0, free(4))
        assert res.status == "converged"
        assert res.iters == 0
        assert np.array_equal(res.x, X0)

    def test_max_iters_status(self, monkeypatch):
        monkeypatch.setattr(optim, "_MAX_ITERS", 2)
        res = minimize(rowwise(rosenbrock, rosenbrock_gauss_newton),
                       np.array([[-1.2, 1.0]]), free(2))
        assert res.status == "max_iters"
        assert res.iters == 2

    @pytest.mark.parametrize("x0", [1e-13, 1e-15])
    def test_steep_start_next_to_barrier_converges(self, x0):
        # -log x + x has |f'(x0)| = 1/x0 and f''(x0) = 1/x0^2: the Newton
        # step only doubles x, so the solve has to climb many decades
        def f(x):
            return -math.log(x[0]) + x[0], np.array([1.0 - 1.0 / x[0]]), \
                np.full((1, 1), 1.0 / x[0] ** 2)

        res = minimize(rowwise(f), np.array([[x0]]), np.zeros(1))
        assert res.status == "converged"
        assert res.x[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_overflowing_hessian_at_start_is_zero_progress(self):
        # the same function from 1e-200: f and g are finite but H = 1/x^2
        # overflows, so the row has no finite step and keeps its start,
        # with a status rather than a RuntimeWarning
        def f(x):
            with np.errstate(over="ignore"):
                h = (1.0 / x[0]) ** 2
            return -math.log(x[0]) + x[0], np.array([1.0 - 1.0 / x[0]]), np.full((1, 1), h)

        x0 = np.array([[1e-200]])
        res = minimize(rowwise(f), x0, np.zeros(1))
        assert res.status == ZERO_PROGRESS
        assert np.array_equal(res.x, x0)

    def test_no_accepted_step_is_zero_progress(self):
        # the reported gradient points uphill, so every step along the
        # Newton direction raises f: the one iteration begun accepts no
        # step, and its backtrack falls below rounding with x at its start
        def liar(x):
            return float(x @ x), -2.0 * x, 2.0 * np.eye(x.size)

        x0 = np.array([[1.0, -2.0]])
        res = minimize(rowwise(liar), x0, free(2))
        assert res.status == ZERO_PROGRESS
        assert res.iters == 1
        assert np.array_equal(res.x, x0)

    def test_failure_after_progress_is_line_search_failed(self):
        # x^2 - 4 over x >= 2 (a wall the box does not know) has its
        # minimiser on the wall, where the gradient does not vanish. Next to
        # it f is near 0, so the rounding of f, eps |f|, is far below the
        # predicted decrease of any step short enough to stay feasible.
        def walled(x):
            if x[0] < 2.0:
                return math.inf, np.zeros(1), np.zeros((1, 1))
            return float(x[0] ** 2 - 4.0), np.array([2.0 * x[0]]), np.full((1, 1), 2.0)

        res = minimize(rowwise(walled), np.array([[3.0]]), free(1))
        assert res.status == "line_search_failed"
        assert res.iters >= 1
        assert 2.0 <= res.x[0, 0] < 2.0 + 1e-12

    def test_backtrack_below_rounding_is_converged(self):
        # the same wall under x^2, whose value there is 4: once no feasible
        # step can lower f by more than its rounding the row has converged
        def walled(x):
            if x[0] < 2.0:
                return math.inf, np.zeros(1), np.zeros((1, 1))
            return float(x[0] ** 2), np.array([2.0 * x[0]]), np.full((1, 1), 2.0)

        res = minimize(rowwise(walled), np.array([[3.0]]), free(1))
        assert res.status == "converged"
        assert 2.0 <= res.x[0, 0] < 2.0 + 1e-12

    def test_zero_hessian_row_kept(self):
        # a linear row has no Newton step; it keeps its value and reports
        # that no step was taken, while the other row is solved
        def mixed(x):
            if x[1] < 0.5:
                return float(x[0]), np.array([1.0, 0.0]), np.zeros((2, 2))
            return quadratic(x - np.array([0.0, 2.0]))

        X0 = np.array([[1.0, 0.0], [1.0, 1.0]])
        res = minimize(rowwise(mixed), X0, free(2))
        assert list(res.row_status) == [ZERO_PROGRESS, "converged"]
        assert np.array_equal(res.x[0], X0[0])


class TestFactors:
    def test_marks_the_matrices_that_numpy_cholesky_factors(self):
        # one batched call gives, for each matrix, the verdict of
        # np.linalg.cholesky on that matrix alone
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        pd = a @ a.T + 0.1 * np.eye(4)
        indefinite = pd - 2.0 * np.diag(np.diagonal(pd))
        singular = np.ones((4, 4))
        huge = np.eye(4)
        huge[0, 1] = huge[1, 0] = 1e200
        not_finite = pd.copy()
        not_finite[2, 3] = not_finite[3, 2] = math.inf
        nan = pd.copy()
        nan[0, 0] = math.nan
        raw = np.stack([pd, indefinite, np.zeros((4, 4)), singular, huge, not_finite, nan,
                        2.0 * pd])
        # _jacobi zeroes the matrices that are not finite
        scaled, _ = optim._jacobi(raw)
        assert not np.any(scaled[5:7])

        def factors_alone(m):
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                return False
            return True

        for stack in (raw[:5], scaled):
            expected = [factors_alone(m) for m in stack]
            assert list(optim._factors(stack)) == expected
        assert list(optim._factors(scaled)) == [True] + [False] * 6 + [True]
        assert optim._factors(scaled[:0]).shape == (0,)


def traced_minimize(original, sink):
    """minimize as the benchmark's traced run wraps it: phi reaches it
    through a one-argument callable that counts the evaluations."""
    def counted_minimize(f_and_grad, x0, *args, **kwargs):
        def counted(x):
            sink.append(len(x[0]))
            return f_and_grad(x)
        return original(counted, x0, *args, **kwargs)
    return counted_minimize


class TestTracedCallers:
    """A one-argument wrapper around phi, installed over pof.estep.minimize
    or pof.mstep.minimize, sees every evaluation and changes no result."""

    def test_estep(self, rng, monkeypatch):
        estep = importlib.import_module("pof.estep")
        model = random_model(rng, 12, 3)
        W = rng.lognormal(sigma=0.7, size=(12, 9))
        plain = infer_frames(W, model)
        evaluated, seen = [], []
        objective = estep._Frames.objective
        monkeypatch.setattr(estep._Frames, "objective",
                            lambda frames, batch: evaluated.append(len(batch[0]))
                            or objective(frames, batch))
        monkeypatch.setattr(estep, "minimize", traced_minimize(estep.minimize, seen))
        traced = infer_frames(W, model)
        assert seen == evaluated and len(seen) > 1
        for a, b in zip(plain, traced):
            assert np.array_equal(a.posterior.nu, b.posterior.nu)
            assert np.array_equal(a.posterior.rho, b.posterior.rho)
            assert a.elbo == b.elbo and a.status == b.status

    def test_mstep(self, rng, monkeypatch):
        mstep_module = importlib.import_module("pof.mstep")
        assert mstep_module is pof.mstep  # the package re-exports no function under its name
        model = random_model(rng, 12, 3)
        W = rng.lognormal(sigma=0.7, size=(12, 9))
        stats = SufficientStats.from_posteriors(
            [r.posterior for r in infer_frames(W, model)])
        plain = mstep(W, model, stats, frozen_rows=frozenset({4}))
        evaluated, seen = [], []
        rows_phi = mstep_module._u_rows_phi

        # gamma's c is read off the values the U solve ends at, so every
        # evaluation of phi is one that minimize asked for
        def counted_rows_phi(u, *args):
            evaluated.append(len(u))
            return rows_phi(u, *args)

        monkeypatch.setattr(mstep_module, "_u_rows_phi", counted_rows_phi)
        monkeypatch.setattr(mstep_module, "minimize",
                            traced_minimize(mstep_module.minimize, seen))
        traced = mstep(W, model, stats, frozen_rows=frozenset({4}))
        assert seen == evaluated and len(seen) > 1
        assert np.array_equal(plain.U, traced.U)
        assert np.array_equal(plain.alpha, traced.alpha)
        assert np.array_equal(plain.gamma, traced.gamma)
