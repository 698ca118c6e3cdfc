"""Unit tests for the gamma special functions and the expectation kernels
of tests/reference.py, which are built on them.

Frozen expected values were computed from exact identities (factorials,
pi**2 constants) or from the Monte-Carlo / series oracles noted inline.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st

from pof import ValidationError
from pof.specfn import _gamma_fns, _shape_eq, digamma, ln_gamma, trigamma
from reference import (GammaParams, gamma_entropy, gamma_expect_a, gamma_expect_log_a,
                       log_gamma_mgf)


def euler_gamma_series(n=200):
    """Euler-Mascheroni via harmonic series with Euler-Maclaurin correction."""
    h = np.sum(1.0 / np.arange(1, n + 1))
    return h - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2)


class TestLnGamma:
    def test_exact_at_one_and_two(self):
        assert ln_gamma(1.0) == 0.0
        assert ln_gamma(2.0) == 0.0

    def test_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)

    def test_ten(self):
        # Gamma(10) = 9!
        assert ln_gamma(10.0) == pytest.approx(math.log(math.factorial(9)), rel=1e-13)

    def test_against_scipy_over_contract_range(self):
        x = np.geomspace(1e-6, 1e6, 4000)
        ref = sp.gammaln(x)
        err = np.abs(ln_gamma(x) - ref)
        # relative 1e-12, relaxing to absolute near the zeros of log-gamma
        assert np.all(err <= 1e-12 * np.maximum(np.abs(ref), 0.01))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(ValidationError):
            ln_gamma(bad)


class TestDigamma:
    def test_at_one(self):
        # psi(1) = -euler_gamma; series oracle agrees with the constant
        gamma_e = euler_gamma_series()
        assert abs(gamma_e - np.euler_gamma) < 1e-10
        assert digamma(1.0) == pytest.approx(-gamma_e, abs=1e-10)

    def test_at_two_by_recurrence_identity(self):
        assert digamma(2.0) == pytest.approx(digamma(1.0) + 1.0, abs=1e-12)
        assert digamma(2.0) == pytest.approx(0.4227843351, abs=1e-10)

    def test_large_x_asymptotics(self):
        x = 1e6
        assert digamma(x) == pytest.approx(math.log(x) - 1.0 / (2 * x), abs=1e-10)

    def test_recurrence_property(self):
        x = np.geomspace(0.01, 100.0, 500)
        assert np.allclose(digamma(x + 1.0) - digamma(x), 1.0 / x, atol=1e-10, rtol=0)

    def test_against_scipy(self):
        x = np.geomspace(0.01, 1e3, 3000)
        assert np.max(np.abs(digamma(x) - sp.digamma(x))) <= 1e-10

    def test_domain(self):
        with pytest.raises(ValidationError):
            digamma(-0.5)


class TestTrigamma:
    def test_known_values(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-10)
        assert trigamma(2.0) == pytest.approx(math.pi**2 / 6.0 - 1.0, abs=1e-10)
        assert trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, abs=1e-10)

    def test_recurrence_property(self):
        x = np.geomspace(0.01, 100.0, 500)
        assert np.allclose(trigamma(x + 1.0) - trigamma(x), -1.0 / x**2,
                           atol=1e-10, rtol=1e-10)

    def test_against_scipy(self):
        x = np.geomspace(0.01, 1e3, 3000)
        assert np.max(np.abs(trigamma(x) - sp.polygamma(1, x))) <= 1e-10

    def test_domain(self):
        with pytest.raises(ValidationError):
            trigamma(0.0)

    def test_tiny_argument_overflows_quietly(self):
        # x * x underflows to 0 below about 1e-154; psi_1 ~ 1/x**2 must
        # come out as +inf without a division by zero
        x = np.array([1e-200, 1e-320])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(_gamma_fns(x)[2] == np.inf)


# Log-uniform over (1e-8, 1e8), so every decade is drawn alike.
_POSITIVE = st.floats(min_value=math.log(1e-8), max_value=math.log(1e8)).map(math.exp)


@pytest.mark.parametrize("ours, ref", [
    (ln_gamma, sp.gammaln),
    (digamma, sp.digamma),
    (trigamma, lambda x: sp.polygamma(1, x)),
    (lambda x: float(_gamma_fns(np.array(x))[3]), lambda x: sp.polygamma(2, x)),
], ids=["ln_gamma", "digamma", "trigamma", "tetragamma"])
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(x=_POSITIVE)
def test_matches_scipy_property(ours, ref, x):
    want = float(ref(x))
    assert abs(ours(x) - want) <= 1e-11 * max(1.0, abs(want))


@pytest.mark.parametrize("x", [0.3, 3.0, 7.9, 8.1, 50.0, 1e6, 1e12])
def test_entropy_part_derivatives_match_differences(x):
    # h = log Gamma - x psi + x and the h', h'' returned with it
    def part(v):
        return _gamma_fns(np.array([v]))[4:7]

    _, h1, h2 = (float(v[0]) for v in part(x))
    step = 1e-4 * x
    up, down = part(x + step), part(x - step)
    assert float(up[0][0] - down[0][0]) / (2 * step) == pytest.approx(h1, rel=1e-6)
    assert float(up[1][0] - down[1][0]) / (2 * step) == pytest.approx(h2, rel=1e-6)


def test_shape_eq_against_mpmath():
    # log x - psi(x) and 1/x - psi_1(x) to 50 digits, up to x near 1/eps
    # and beyond, where forming them from psi and psi_1 cancels
    mpmath = pytest.importorskip("mpmath")
    x = np.logspace(-3, 20, 47)
    lhs, slope = _shape_eq(x)
    with mpmath.workdps(50):
        for xi, li, si in zip(x, lhs, slope):
            m = mpmath.mpf(xi)
            assert li == pytest.approx(float(mpmath.log(m) - mpmath.digamma(m)), rel=1e-14)
            assert si == pytest.approx(float(1 / m - mpmath.psi(1, m)), rel=1e-14)


class TestGammaEntropy:
    def test_unit_exponential(self):
        assert gamma_entropy(GammaParams(1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_rate_two_exponential(self):
        assert gamma_entropy(GammaParams(1.0, 2.0)) == pytest.approx(
            1.0 - math.log(2.0), abs=1e-12
        )

    def test_shape_three(self):
        # Monte-Carlo oracle (1e7 draws, seed 0) gives 1.84757 +/- 0.00072;
        # frozen value from the closed form, which the MC estimate covers.
        assert gamma_entropy(GammaParams(3.0, 1.0)) == pytest.approx(
            1.8475785104, abs=1e-9
        )

    def test_rate_shift_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            nu = rng.uniform(0.1, 50.0)
            rho = rng.uniform(0.1, 50.0)
            assert gamma_entropy(GammaParams(nu, rho)) == pytest.approx(
                gamma_entropy(GammaParams(nu, 1.0)) - math.log(rho), rel=1e-10, abs=1e-10
            )

    @pytest.mark.parametrize("nu", [1e6, 1e12, 1e18])
    def test_concentrated_normal_limit(self, nu):
        # Gamma(nu, nu) tends to N(1, 1/nu), with entropy
        # 0.5 log(2 pi e / nu) - 1/(3 nu) + O(1/nu^2). Summed term by term,
        # the formula's terms of size nu log nu would cancel to an error of
        # thousands at nu = 1e18.
        want = 0.5 * math.log(2.0 * math.pi * math.e / nu) - 1.0 / (3.0 * nu)
        assert gamma_entropy(GammaParams(nu, nu)) == pytest.approx(want, abs=1e-11)

    def test_monte_carlo(self):
        rng = np.random.default_rng(11)
        nu, rho = 2.3, 0.7
        x = rng.gamma(nu, 1.0 / rho, size=1_000_000)
        log_q = nu * np.log(rho) - sp.gammaln(nu) + (nu - 1) * np.log(x) - rho * x
        est, se = -log_q.mean(), log_q.std(ddof=1) / 1000.0
        assert abs(gamma_entropy(GammaParams(nu, rho)) - est) < 3 * se


class TestExpectations:
    def test_unit(self):
        q = GammaParams(1.0, 1.0)
        assert gamma_expect_a(q) == 1.0
        assert gamma_expect_log_a(q) == pytest.approx(-np.euler_gamma, abs=1e-10)

    def test_diffuse_init_has_unit_mean(self):
        assert gamma_expect_a(GammaParams(100.0, 100.0)) == 1.0

    def test_ratio(self):
        assert gamma_expect_a(GammaParams(5.0, 2.0)) == 2.5

    def test_jensen_gap(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = GammaParams(rng.uniform(0.2, 20.0), rng.uniform(0.2, 20.0))
            assert math.exp(gamma_expect_log_a(q)) < gamma_expect_a(q)


class TestLogGammaMgf:
    def test_zero_exponent(self):
        assert log_gamma_mgf(0.0, GammaParams(2.5, 1.3)) == 0.0

    def test_unit_case(self):
        assert log_gamma_mgf(1.0, GammaParams(1.0, 1.0)) == pytest.approx(
            math.log(0.5), abs=1e-14
        )

    def test_infeasible_sentinel(self):
        q = GammaParams(1.0, 1.0)
        assert log_gamma_mgf(-2.0, q) == math.inf
        assert log_gamma_mgf(-1.0, q) == math.inf   # boundary u = -rho included

    def test_monte_carlo(self):
        rng = np.random.default_rng(5)
        u, nu, rho = 0.3, 2.5, 1.7
        x = rng.gamma(nu, 1.0 / rho, size=1_000_000)
        vals = np.exp(-u * x)
        est, se = vals.mean(), vals.std(ddof=1) / 1000.0
        assert abs(math.exp(log_gamma_mgf(u, GammaParams(nu, rho))) - est) < 3 * se

    def test_monotone_decreasing_in_u(self):
        q = GammaParams(1.7, 2.2)
        u = np.linspace(-2.1, 10.0, 300)
        vals = log_gamma_mgf(u, q)
        finite = vals[u > -2.2]
        assert np.all(np.diff(finite) < 0)
        assert log_gamma_mgf(0.0, q) == 0.0

    def test_broadcasting(self):
        q = GammaParams(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        out = log_gamma_mgf(np.array([[1.0, 1.0]]), q)
        assert out.shape == (1, 2)
        assert out[0, 0] == pytest.approx(math.log(0.5))
        assert out[0, 1] == pytest.approx(2 * math.log(0.5))


def test_gamma_params_validation():
    with pytest.raises(ValidationError):
        GammaParams(-1.0, 1.0)
    with pytest.raises(ValidationError):
        GammaParams(1.0, 0.0)
    with pytest.raises(ValidationError):
        GammaParams(np.array([1.0, np.nan]), np.array([1.0, 1.0]))
