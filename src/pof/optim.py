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
factored at once and, only if that fails, each matrix alone; so which rule
a row gets, and every reduction, depends on that row only, and a row's
result does not depend on the rows that share its stack.

Step. A row's first trial is the full step, or _BARRIER_FRACTION of the
way to the box when the full step would leave it; it halves until the
trial satisfies Armijo and strictly lowers the value, so accepted values
strictly decrease. Only rows still searching are evaluated again, and an
accepted trial's derivatives serve the next iteration.

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

__all__ = ["OptimResult", "minimize", "chunks", "ZERO_PROGRESS", "FAILED_START"]

ZERO_PROGRESS = "zero_progress"
FAILED_START = "failed: starting point is infeasible (objective not finite)"

# Newton iterations per row. At F=129, L=20 an E-step frame from the
# default start takes about 11 in log coordinates (at most 15 in 100
# frames) and a first M-step row about 11; the cap only bounds a row that
# keeps accepting steps without reaching round-off.
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
    """x (n, d) and f (n,) of every row, the Newton iterations begun (an
    iteration whose backtrack accepts no step counts too), the status of
    the first row that did not converge ("converged" when all did), and
    every row's status."""

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
    """Which matrices of the stack m have a Cholesky factor. The whole stack
    is tried at once; only if that fails is each matrix tried alone."""
    def factors(a):
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return False
        return True

    if m.shape[0] == 0 or factors(m):
        return np.ones(m.shape[0], dtype=bool)
    return np.array([factors(a) for a in m], dtype=bool)


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
    status = np.full(x.shape[0], "converged", dtype=object)
    active = np.isfinite(f)
    status[~active] = FAILED_START
    moved = np.zeros(x.shape[0], dtype=bool)
    iters = 0
    while active.any():
        rows = np.flatnonzero(active)
        step = _directions(hess[rows], curv[rows], grad[rows])
        slope = (grad[rows] * step).sum(axis=1)
        # a Newton decrement below the rounding of f: converged
        done = np.abs(slope) <= _EPS * np.abs(f[rows])
        active[rows[done]] = False
        rows, step, slope = rows[~done], step[~done], slope[~done]
        if rows.size == 0:
            break
        if iters == _MAX_ITERS:
            status[rows] = "max_iters"
            break
        iters += 1
        # the largest fraction of each step that keeps x > lower
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(step < 0, (x[rows] - lower) / -step, math.inf).min(axis=1)
        t = np.minimum(1.0, _BARRIER_FRACTION * room)
        searching = np.isfinite(slope)
        stalled = ~searching
        for _ in range(_MAX_HALVINGS):
            # a predicted decrease below the rounding of f ends the row:
            # converged if it has moved, at its start if it has not
            low = searching & (t * np.abs(slope) <= _EPS * np.abs(f[rows]))
            active[rows[low & moved[rows]]] = False
            stalled |= low & ~moved[rows]
            searching &= ~low
            s = np.flatnonzero(searching)
            if s.size == 0:
                break
            r = rows[s]
            trial = np.full_like(x, math.nan)
            trial[r] = x[r] + t[s, None] * step[s]
            f_t, grad_t, hess_t, curv_t = phi(trial)
            ok = (f_t[r] < f[r]) & (f_t[r] <= f[r] + _ARMIJO_C1 * t[s] * slope[s])
            acc = r[ok]
            x[acc], f[acc] = trial[acc], f_t[acc]
            grad[acc], hess[acc], curv[acc] = grad_t[acc], hess_t[acc], curv_t[acc]
            moved[acc] = True
            searching[s[ok]] = False
            t[s[~ok]] *= 0.5
        stuck = rows[stalled | searching]
        active[stuck] = False
        status[stuck] = np.where(moved[stuck], "line_search_failed", ZERO_PROGRESS)

    not_converged = np.flatnonzero(status != "converged")
    summary = status[not_converged[0]] if not_converged.size else "converged"
    return OptimResult(x=x, f=f, iters=iters, status=summary, row_status=status)
