"""Gamma special functions.

Dependency-free numpy implementations of log-gamma, digamma, trigamma and
tetragamma (one shared upward recurrence into the asymptotic range, then
Bernoulli-series tails). The package's bounds and gradients call
_gamma_fns directly; ln_gamma, digamma and trigamma are its checked public
forms.

All functions broadcast over arrays; scalar inputs give scalar outputs.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = ["ln_gamma", "digamma", "trigamma"]

# Bernoulli numbers B_2, B_4, ..., B_14.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)
# Stirling-series coefficients B_2k / (2k (2k-1)) for log-gamma.
_LNG_COEF = tuple(b / ((2 * k) * (2 * k - 1)) for k, b in enumerate(_BERNOULLI, 1))
# B_2k / (2k) for digamma.
_PSI_COEF = tuple(b / (2 * k) for k, b in enumerate(_BERNOULLI, 1))
# (2k + 1) B_2k for tetragamma.
_PSI2_COEF = tuple((2 * k + 1) * b for k, b in enumerate(_BERNOULLI, 1))

_HALF_LOG_TWO_PI = 0.5 * np.log(2.0 * np.pi)

# _gamma_fns: rows are the log-gamma, digamma, trigamma and tetragamma
# series coefficients, applied to the powers (1/z**2)**k, k = 0..6; the
# factors x + k, k = 0..7, make the upward shift to z = x + 8.
_TAIL_COEF = np.array([_LNG_COEF, _PSI_COEF, _BERNOULLI, _PSI2_COEF])
_TAIL_POW = np.arange(len(_BERNOULLI), dtype=float)[:, None]
_SHIFTS = np.arange(8, dtype=float)[:, None]


def _checked(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValidationError(f"{name} must be positive and finite")
    return arr


def _maybe_scalar(out: np.ndarray, like) -> float | np.ndarray:
    if np.isscalar(like) or getattr(like, "ndim", 1) == 0:
        return float(out)
    return out


def _gamma_fns(x: np.ndarray, bound: bool = False):
    """(log Gamma(x), psi(x), psi_1(x)) for x > 0, from one upward
    recurrence; with bound, also (psi_2(x), h(x), h'(x), h''(x)), where

        h(x) = log Gamma(x) - x psi(x) + x,   h' = 1 - x psi_1,
        h'' = -(psi_1 + x psi_2)

    is the shape part of the gamma entropy and of the E-step bound.

    Entries below 8 are shifted to z = x + 8 through
    Gamma(x) = Gamma(x + 8) / (x (x+1) ... (x+7)). The four asymptotic
    series share log z, 1/z and the powers of 1/z**2, so one matrix product
    gives all four Bernoulli tails, and the shift's product and reciprocal
    sums come from one (8, n) array. h and its derivatives take their own
    series from the same tails: formed from the functions above, the terms
    of size x log x cancel and leave an absolute error near
    eps x log x (several thousand at x = 1e18). The E-step bound and its
    Hessian need all of these at once. On short vectors the cost is per
    numpy call: the first three cost little together, and the rest, about
    twenty more calls, are made only for the callers that ask for them.
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.reshape(-1)
    small = x < 8.0
    z = np.where(small, x + 8.0, x)
    log_z = np.log(z)
    inv_z = 1.0 / z
    inv_sq = inv_z * inv_z
    lng_tail, psi_tail, psi1_tail, psi2_tail = _TAIL_COEF @ (inv_sq ** _TAIL_POW)
    lng = (z - 0.5) * log_z - z + _HALF_LOG_TWO_PI + lng_tail * inv_z
    psi = log_z - 0.5 * inv_z - psi_tail * inv_sq
    psi1 = inv_z + 0.5 * inv_sq + psi1_tail * inv_sq * inv_z
    if bound:
        psi2 = -inv_sq * (1.0 + inv_z + psi2_tail * inv_sq)
        ent = 0.5 - 0.5 * log_z + _HALF_LOG_TWO_PI + (lng_tail + psi_tail) * inv_z
        ent1 = -inv_z * (0.5 + psi1_tail * inv_z)
        ent2 = inv_sq * (0.5 + (psi2_tail - psi1_tail) * inv_z)
    if small.any():
        # The product overflows only on the large branch, which where()
        # discards. The reciprocal is raised to powers, not x: x * x
        # underflows to 0 below about 1e-154, and psi_1 ~ 1/x**2 and
        # psi_2 ~ -2/x**3 must overflow quietly to +-inf instead of dividing
        # by zero. Below 8, h and its derivatives lose at most a digit when
        # formed from the functions themselves.
        with np.errstate(over="ignore", invalid="ignore"):
            shifted = x + _SHIFTS
            inv = 1.0 / shifted
            inv_sq_sh = inv * inv
            lng = np.where(small, lng - np.log(shifted.prod(axis=0)), lng)
            psi = np.where(small, psi - inv.sum(axis=0), psi)
            psi1 = np.where(small, psi1 + inv_sq_sh.sum(axis=0), psi1)
            if bound:
                psi2 = np.where(small, psi2 - 2.0 * (inv_sq_sh * inv).sum(axis=0), psi2)
                ent = np.where(small, lng - x * psi + x, ent)
                ent1 = np.where(small, 1.0 - x * psi1, ent1)
                ent2 = np.where(small, -(psi1 + x * psi2), ent2)
    lng = np.where((x == 1.0) | (x == 2.0), 0.0, lng)
    out = (lng, psi, psi1) + ((psi2, ent, ent1, ent2) if bound else ())
    return tuple(v.reshape(shape) for v in out)


def _ln_gamma(x: np.ndarray) -> np.ndarray:
    return _gamma_fns(x)[0]


def _digamma(x: np.ndarray) -> np.ndarray:
    return _gamma_fns(x)[1]


def _shape_eq(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log x - psi(x), 1/x - psi_1(x)) for a vector x > 0: the left side
    of the shape equation and its derivative. From x = 8 on both come from
    the Bernoulli tails alone, 0.5/x + psi_tail/x**2 and
    -(0.5/x**2 + psi1_tail/x**3); formed from psi and psi_1 they cancel,
    to noise once x nears 1/eps.
    """
    _, psi, psi1 = _gamma_fns(x)
    inv = 1.0 / np.maximum(x, 8.0)
    psi_tail, psi1_tail = _TAIL_COEF[1:3] @ ((inv * inv) ** _TAIL_POW)
    large = x >= 8.0
    return (np.where(large, inv * (0.5 + psi_tail * inv), np.log(x) - psi),
            np.where(large, -inv * inv * (0.5 + psi1_tail * inv), 1.0 / x - psi1))


def ln_gamma(x):
    """log Gamma(x) for x > 0."""
    return _maybe_scalar(_ln_gamma(_checked(x, "x")), x)


def digamma(x):
    """psi(x) = d/dx log Gamma(x) for x > 0."""
    return _maybe_scalar(_digamma(_checked(x, "x")), x)


def trigamma(x):
    """psi_1(x) = d/dx psi(x) for x > 0."""
    return _maybe_scalar(_gamma_fns(_checked(x, "x"))[2], x)
