"""Batched damped Newton for stacks of independent smooth problems.

minimize(phi, X0, lower) minimises n independent functions at once, one
per row x of the (n, d) array X0, each subject to the box x > lower. Both
EM steps use it: the E-step for the frames of a chunk in
y = (log nu, log rho), the M-step for rows of U.

phi(X) takes an (n, d) stack and returns each row's value (n,), gradient
(n, d), Hessian H (n, d, d) and a positive-semidefinite stand-in C for H
(n, d, d). A row that is infeasible, or whose value or derivatives are not
finite, has value +inf. Rows that are not being evaluated are passed as
NaN and must come back as +inf. A phi whose H is positive semidefinite
everywhere returns H itself as C. A row needs a finite Hessian: where a
finite value comes with an H that is not finite (1/x**2 overflows at
x = 1e-200), the row gets no finite step, and it ends ZERO_PROGRESS at its
start, or line_search_failed after earlier progress.

Direction. Each row's Hessian is Jacobi-scaled, D = 1/sqrt(|diag H|).
Where D H D has a Cholesky factor the step is the Newton step on H.
Otherwise it is the Newton step on C, scaled by its own diagonal, which is
a descent direction wherever C is positive definite; where C has no
Cholesky factor either, the step is not finite. A row whose C equals its H
takes the C branch directly, as both give the same step. A stack is
factored in one batched call that marks each matrix with no factor; so
which rule a row gets, and every reduction, depends on that row only, and
a row's result does not depend on the rows that share its stack.

Step. Each row runs its own backtrack: its first trial is the full step,
or _BARRIER_FRACTION of the way to the box when the full step would leave
it, halved until the trial satisfies Armijo and strictly lowers the value.
Each phi call after the first evaluates every row still solving at its
trial, and an accepted trial's derivatives serve that row's next step.

Each row ends with one status (row_status):
  converged           the Newton decrement |g.d| fell below the rounding of
                      the value, eps |f|, or, once a step has been
                      accepted, a trial's predicted decrease t |g.d| did;
  max_iters           still moving after _MAX_ITERS iterations;
  line_search_failed  a backtrack ran out of halvings, or the step was not
                      finite, after earlier steps were accepted;
  ZERO_PROGRESS       the same, or a backtrack fell below rounding, before
                      any step was accepted: x is the start;
  FAILED_START        the start is infeasible: x is the start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = ["OptimResult", "minimize", "chunks", "ZERO_PROGRESS", "FAILED_START"]

ZERO_PROGRESS = "zero_progress"
FAILED_START = "failed: starting point is infeasible (objective not finite)"

# Newton iterations, capped for each row on its own. At F=129, L=20 an
# E-step frame from the default start takes about 11 in log coordinates (at
# most 15 in 100 frames) and a first M-step row about 11; the cap only
# bounds a row that keeps accepting steps without reaching round-off.
_MAX_ITERS = 200
_MAX_HALVINGS = 60
_ARMIJO_C1 = 1e-4
# A step that would leave the box starts its backtrack this fraction of the
# way to it.
_BARRIER_FRACTION = 0.99
_EPS = np.finfo(float).eps
# Rows per stack are chosen so that the temporaries of one solve stay within
# this many bytes (at least one row per stack).
_CHUNK_BYTES = 4 << 20


@dataclass
class OptimResult:
    """x (n, d) and f (n,) of every row, the most Newton iterations any row
    began (an iteration whose backtrack accepts no step counts too), the
    status of the first row that did not converge ("converged" when all
    did), and every row's status."""

    x: np.ndarray
    f: np.ndarray
    iters: int
    status: str
    row_status: np.ndarray


def chunks(items: np.ndarray, item_bytes: int) -> list[np.ndarray]:
    """items split into stacks whose solves, holding item_bytes of
    temporaries per item, stay within _CHUNK_BYTES."""
    n = max(1, _CHUNK_BYTES // item_bytes)
    return [items[i:i + n] for i in range(0, items.size, n)]


def _jacobi(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D m D and D = 1/sqrt(|diag m|) (1 where the diagonal is 0) for each
    matrix of the stack m; a matrix that is not finite becomes 0."""
    diag = np.abs(np.diagonal(m, axis1=1, axis2=2))
    scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    with np.errstate(invalid="ignore"):
        # an infinite diagonal gives scale 0, and inf * 0 is NaN
        m = m * scale[:, :, None] * scale[:, None, :]
    m[~np.all(np.isfinite(m), axis=(1, 2))] = 0.0
    return m, scale


def _factors(m: np.ndarray) -> np.ndarray:
    """Which matrices of the stack m have a Cholesky factor. The stack is
    factored in one call of the gufunc behind np.linalg.cholesky, which
    leaves NaN in every matrix that has no factor instead of raising."""
    with np.errstate(invalid="ignore", over="ignore"):
        lower = _umath_linalg.cholesky_lo(m, signature="d->d")
    return ~np.isnan(lower).any(axis=(1, 2))


def _directions(hess: np.ndarray, curv: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The Newton step of each row on its H where the scaled H has a
    Cholesky factor, else on its C; not finite where neither has one."""
    # a row whose C is its H goes straight to the C test: both rules agree
    exact = ~np.all(hess == curv, axis=(1, 2))
    m, scale = _jacobi(hess)
    ok = np.zeros(exact.shape, dtype=bool)
    ok[exact] = _factors(m[exact])
    fall_back = exact & ~ok
    m[fall_back], scale[fall_back] = _jacobi(curv[fall_back])
    ok[~ok] = _factors(m[~ok])
    step = np.full_like(grad, math.nan)
    step[ok] = np.linalg.solve(m[ok], (scale * grad)[ok, :, None])[:, :, 0]
    return -scale * step


def minimize(phi, X0, lower) -> OptimResult:
    """Minimise each row of X0 over x > lower by damped Newton (see the
    module docstring). The benchmark's traced runs count evaluations and
    time the solves by wrapping this function as pof.estep.minimize and
    pof.mstep.minimize."""
    x = np.array(X0, dtype=float)
    f, grad, hess, curv = phi(x)
    status = np.full(len(f), "converged", dtype=object)
    active = np.isfinite(f)
    status[~active] = FAILED_START
    # per row: moved from its start, step, slope g.d, trial fraction t,
    # iterations and halvings; new holds the rows at a point not yet stepped
    moved, new = np.zeros_like(active), np.flatnonzero(active)
    step, slope, t = np.zeros_like(x), np.zeros_like(f), np.zeros_like(f)
    iters, halvings = np.zeros(len(f), dtype=int), np.zeros(len(f), dtype=int)
    while True:
        if new.size:
            step[new] = _directions(hess[new], curv[new], grad[new])
            slope[new] = (grad[new] * step[new]).sum(axis=1)
            # a Newton decrement below the rounding of f: converged
            active[new[np.abs(slope[new]) <= _EPS * np.abs(f[new])]] = False
            capped = new[active[new] & (iters[new] == _MAX_ITERS)]
            status[capped], active[capped] = "max_iters", False
            new = new[active[new]]
            iters[new] += 1
            halvings[new] = 0
            # the largest fraction of each step that keeps x > lower
            with np.errstate(divide="ignore", invalid="ignore"):
                room = np.where(step[new] < 0, (x[new] - lower) / -step[new], math.inf).min(axis=1)
            t[new] = np.minimum(1.0, _BARRIER_FRACTION * room)
        rows = np.flatnonzero(active)
        stuck = ~np.isfinite(slope[rows]) | (halvings[rows] == _MAX_HALVINGS)
        # a predicted decrease below the rounding of f ends the row:
        # converged if it has moved, at its start if it has not
        low = ~stuck & (t[rows] * np.abs(slope[rows]) <= _EPS * np.abs(f[rows]))
        active[rows[low | stuck]] = False
        ended = rows[stuck | (low & ~moved[rows])]
        status[ended] = np.where(moved[ended], "line_search_failed", ZERO_PROGRESS)
        rows = rows[active[rows]]
        if rows.size == 0:
            break
        trial = np.full_like(x, math.nan)
        trial[rows] = x[rows] + t[rows, None] * step[rows]
        f_t, grad_t, hess_t, curv_t = phi(trial)
        ok = (f_t[rows] < f[rows]) & (f_t[rows] <= f[rows] + _ARMIJO_C1 * t[rows] * slope[rows])
        new, rej = rows[ok], rows[~ok]
        x[new], f[new] = trial[new], f_t[new]
        grad[new], hess[new], curv[new] = grad_t[new], hess_t[new], curv_t[new]
        moved[new] = True
        t[rej] *= 0.5
        halvings[rej] += 1

    not_converged = np.flatnonzero(status != "converged")
    summary = status[not_converged[0]] if not_converged.size else "converged"
    return OptimResult(x=x, f=f, iters=int(iters.max(initial=0)), status=summary, row_status=status)
