"""Batched damped Newton for stacks of independent smooth problems.

minimize(phi, X0, lower, row_bytes) minimises n independent functions at
once, one per row x of the (n, d) array X0, each subject to the box
x > lower. Both EM steps use it: the E-step for the frames of a
spectrogram in y = (log nu, log rho), the M-step for the rows of U.

Working set. At most width = max(1, _CHUNK_BYTES // row_bytes) rows are in
flight, row_bytes being the temporaries one row's evaluation and direction
hold; the other rows wait in a queue, in row order. When a row ends, its
slot goes to the next queued row, whose start is evaluated in the same phi
call as the trials of the rows still solving. So a slow row holds up no
other, and the rows in flight, not n, set the memory a solve needs.

phi takes one argument, the pair (rows, X): the indices (m,) of the rows
to evaluate and their points X (m, d). It returns for exactly those rows
the value (m,), gradient (m, d), Hessian H (m, d, d) and a
positive-semidefinite stand-in C for H: a phi whose H is positive
semidefinite everywhere returns the H array itself; any other returns a
function of positions in the evaluation (an index array into its m rows)
that gives C (k, d, d) at those rows, which minimize calls, before the
next phi call, only for rows whose scaled H has no Cholesky factor; the
function sets its own errstate. A row that is infeasible, or whose value
or derivatives are not finite, has value +inf, and its derivatives are
not read. A row needs a finite Hessian: where a finite value comes with
an H that is not finite (1/x**2 overflows at x = 1e-200), the row gets no
finite step, and it ends ZERO_PROGRESS at its start, or
line_search_failed after earlier progress.

Direction. Each row's direction is found from the evaluation that produced
its point; no H, C or gradient is kept beyond it. Each row's Hessian is
Jacobi-scaled, D = 1/sqrt(|diag H|). Where D H D has a Cholesky factor the
step is the Newton step on H. Otherwise it is the Newton step on C, scaled
by its own diagonal, which is a descent direction wherever C is positive
definite; where C has no Cholesky factor either, or where the solve meets
an exact zero pivot, the step is not finite.
Where phi returns H itself as C, a row whose H has no factor is not
factored again. When every row of an evaluation steps, its stacks are read
in place; otherwise the rows that step are gathered first. A stack is
factored in one batched call that marks each matrix with no factor, and
solved in one more, whose rows with no factor are then set to NaN; so
which rule a row gets, and every reduction, depends on that row only, and
a row's result does not depend on the rows that share its evaluations.

Step. Each row runs its own backtrack: its first trial is the full step,
or _BARRIER_FRACTION of the way to the box when the full step would leave
it, halved until the trial satisfies Armijo and strictly lowers the value.
Each phi call evaluates every row in flight at its trial, and an accepted
trial's derivatives give that row's next step.

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

__all__ = ["OptimResult", "minimize", "ZERO_PROGRESS", "FAILED_START"]

ZERO_PROGRESS = "zero_progress"
FAILED_START = "failed_start"

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
# Rows in flight are chosen so that their temporaries stay within this many
# bytes (at least one row).
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


def _width(row_bytes: int) -> int:
    """How many rows that hold row_bytes each fit in _CHUNK_BYTES (at least
    one)."""
    return max(1, _CHUNK_BYTES // row_bytes)


def _jacobi(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D m D and D = 1/sqrt(|diag m|) (1 where the diagonal is 0) for each
    matrix of the stack m; a matrix that is not finite becomes 0."""
    diag = np.abs(np.diagonal(m, axis1=1, axis2=2))
    scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    with np.errstate(invalid="ignore"):
        # an infinite diagonal gives scale 0, and inf * 0 is NaN
        m = m * scale[:, :, None]
        m *= scale[:, None, :]
    m[~np.all(np.isfinite(m), axis=(1, 2))] = 0.0
    return m, scale


def _factors(m: np.ndarray) -> np.ndarray:
    """Which matrices of the finite stack m have a Cholesky factor. The
    stack is factored in one call of the gufunc behind np.linalg.cholesky,
    which, instead of raising, leaves an all-NaN matrix where a factor does
    not exist; so one entry of each factor tells."""
    with np.errstate(invalid="ignore", over="ignore"):
        lower = _umath_linalg.cholesky_lo(m, signature="d->d")
    return ~np.isnan(lower[:, 0, 0])


def _directions(hess: np.ndarray, curv, grad: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The Newton steps of the rows at of an evaluation, from its stacks
    hess and grad: on a row's H where its scaled H has a Cholesky factor,
    else on its C. curv is hess where H is its own stand-in, else the
    function of positions in the evaluation that returns C, called only for
    the rows whose H has no factor. A step is not finite where neither has
    a factor, or where LU meets an exact zero pivot (the gufunc behind
    np.linalg.solve then leaves NaN instead of raising). Where at is every
    row, the stacks are read in place."""
    own = curv is hess
    if at.size < len(hess):
        hess, grad = hess[at], grad[at]
    m, scale = _jacobi(hess)
    ok = _factors(m)
    if not (own or ok.all()):
        bad = np.flatnonzero(~ok)
        m[bad], scale[bad] = _jacobi(curv(at[bad]))
        ok[bad] = _factors(m[bad])
    with np.errstate(all="ignore"):
        step = _umath_linalg.solve(m, (scale * grad)[:, :, None])[:, :, 0]
    step[~ok] = math.nan
    return -scale * step


def minimize(phi, X0, lower, row_bytes: int = 1) -> OptimResult:
    """Minimise each row of X0 over x > lower by damped Newton, with at most
    _width(row_bytes) rows in flight (see the module docstring); the
    default row_bytes of 1 lets up to _CHUNK_BYTES rows in. The benchmark's
    traced runs count evaluations and time the solves by wrapping this
    function as pof.estep.minimize and pof.mstep.minimize, and phi as a
    one-argument callable."""
    x = np.array(X0, dtype=float)
    n, width = len(x), _width(row_bytes)
    f = np.full(n, math.inf)
    status = np.full(n, "converged", dtype=object)
    # per row: moved from its start, step, slope g.d, trial fraction t,
    # iterations and halvings; rows holds the rows in flight
    moved = np.zeros(n, dtype=bool)
    step, slope, t = np.zeros_like(x), np.zeros(n), np.zeros(n)
    iters, halvings = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    rows, queued = np.zeros(0, dtype=int), 0
    while True:
        # the rows in flight try their trials; free slots take queued starts
        starts = np.arange(queued, min(n, queued + width - rows.size))
        queued += starts.size
        if rows.size + starts.size == 0:
            break
        batch = np.concatenate((rows, starts))
        points = np.concatenate((x[rows] + t[rows, None] * step[rows], x[starts]))
        f_b, grad, hess, curv = phi((batch, points))
        k = rows.size
        ok = (f_b[:k] < f[rows]) & (f_b[:k] <= f[rows] + _ARMIJO_C1 * t[rows] * slope[rows])
        rej = rows[~ok]
        t[rej] *= 0.5
        halvings[rej] += 1
        moved[rows[ok]] = True
        feasible = np.isfinite(f_b[k:])
        status[starts[~feasible]] = FAILED_START
        # the rows at a new point, accepted trials and feasible starts, take
        # their directions from this evaluation
        at = np.concatenate((np.flatnonzero(ok), k + np.flatnonzero(feasible)))
        new = batch[at]
        if new.size:
            x[new], f[new] = points[at], f_b[at]
            step[new] = _directions(hess, curv, grad, at)
            slope[new] = (grad[at] * step[new]).sum(axis=1)
            # a Newton decrement below the rounding of f: converged
            going = ~(np.abs(slope[new]) <= _EPS * np.abs(f[new]))
            capped = new[going & (iters[new] == _MAX_ITERS)]
            status[capped] = "max_iters"
            new = new[going & (iters[new] < _MAX_ITERS)]
            iters[new] += 1
            halvings[new] = 0
            # the largest fraction of each step that keeps x > lower
            with np.errstate(divide="ignore", invalid="ignore"):
                room = np.where(step[new] < 0, (x[new] - lower) / -step[new], math.inf).min(axis=1)
            t[new] = np.minimum(1.0, _BARRIER_FRACTION * room)
        rows = np.concatenate((rej, new))
        stuck = ~np.isfinite(slope[rows]) | (halvings[rows] == _MAX_HALVINGS)
        # a predicted decrease below the rounding of f ends the row:
        # converged if it has moved, at its start if it has not
        low = ~stuck & (t[rows] * np.abs(slope[rows]) <= _EPS * np.abs(f[rows]))
        ended = rows[stuck | (low & ~moved[rows])]
        status[ended] = np.where(moved[ended], "line_search_failed", ZERO_PROGRESS)
        rows = rows[~(low | stuck)]

    not_converged = np.flatnonzero(status != "converged")
    summary = status[not_converged[0]] if not_converged.size else "converged"
    return OptimResult(x=x, f=f, iters=int(iters.max(initial=0)), status=summary, row_status=status)
