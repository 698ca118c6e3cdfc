"""Mean-field posterior inference over spectrogram frames.

For one observed spectrum w the variational family is a fully factorized
product of gammas q(a_l) = Gamma(nu_l, rho_l). The evidence lower bound

    L(nu, rho) = E_q[log p(w, a | U, alpha, gamma)] + H[q]

is evaluated with *all* constant terms included so that EM monotonicity is
directly measurable, and is -inf exactly when some U_fl <= -rho_l (the
moment-generating function of the gamma diverges there, so the barrier is
part of the objective rather than a constraint). Its shape terms
(alpha - nu) psi(nu) + log Gamma(nu) + nu are formed as
alpha psi(nu) + h(nu) with h from specfn._gamma_fns, as are their
derivatives; summed as written, terms of size nu log nu cancel, and at
nu = 1e18 the bound of a frame would be off by thousands of nats.

The bound is not concave, but the Hessian H of -L is a positive-semidefinite
Gram term plus one 2x2 block B_l per filter on (nu_l, rho_l), and only the
blocks can be indefinite. Its stand-in C is the Gram term plus the blocks
|B_l|, each block's eigenvalues made absolute in closed form (the |H| of
saddle-free Newton, Dauphin et al. 2014, where the indefiniteness lives).
_Frames.bound evaluates L and its gradient in (nu, rho), and
_Frames.objective, through the same code, also the Hessian in log
coordinates (below), in one (m, 2L, F) buffer for m frames:
log1p(U_fl / rho_l) and U_fl / rho_l, the
latter turned into B = U / (rho + U) in place. Every sum over f is a matrix
product on it: S, the f-sums behind g, and the Gram term, from the buffer
scaled by sqrt(c) in place. Per frame it holds 2 F L floats, and forming B
takes F L more for a moment; _solve gives minimize the bytes of a frame in
flight, this buffer or the (2L, 2L) stacks of its direction, whichever is
more, as measured with tracemalloc (at L=20 and F=129, 88 kB of the 99 kB
asked for), and so bounds how many frames are in flight at once.

Frames are independent. infer_frames solves all frames of the spectrogram
in one call of the batched damped Newton of pof.optim.minimize, which keeps
a working set of frames in flight and gives the slot of a frame that ends
to the next one; its evaluations are _Frames.objective on the frames in
flight. It solves in the log coordinates y = (log nu, log rho), where the
box nu > 0, rho > rho_min with rho_min = max(0, -min_f U_fl) is the box
y_rho > log rho_min. Converged nu spans 0.7 to 1,740 on the benchmark's
frames from starts near 1, and a Newton step in plain nu grows a scale only
geometrically (the reason mstep._solve_shape takes its Newton steps on
1/x); in y a frame from the default start takes about 11 iterations
instead of 18. With x = exp(y) and X = diag(x) the solver sees -L(exp y)
with

    g_y = x * g,   H_y = X H X + diag(g_y),   C_y = X C X + diag(max(g_y, 0)),

g and H the gradient and Hessian of -L. H and C in (nu, rho) are never
formed: H_y is built from the buffer, whose Gram factors dS_f / dy are
(log1p(r), B) times s = x * (-1, nu / rho) = (-nu, nu), by adding the
blocks B_l scaled by (nu^2, nu rho, rho^2), and then g_y, on strided views
of the diagonals of the stack. C_y is positive semidefinite, and it is H_y
wherever C = H and g_y >= 0; where H_y has no Cholesky factor the solver
steps on C_y, which the objective forms only for the rows minimize asks
for (H_y has a factor on about 85% of the rows an encode batch steps
from). A frame's posterior is exp(y) and its bound is the
one there. A frame that never moved ("zero_progress", a failed start, a
converged start) keeps its start x0 bitwise, with the bound at
exp(log x0), which equals its start's to rounding. Each frame is solved to
round-off and keeps the status its solve ended with; a frame that reports
"zero_progress" still holds its start, not an inferred posterior. Every
reduction over a frame's terms, matrix products included, stays within
that frame, and each frame runs its own line search; so a frame's result
does not depend on the frames that share its evaluations, nor on when it
enters the working set. Without init, every frame starts from one fixed
point, the prior mean moved at least rho_min inside the barrier
(default_posterior_init); so a frame's result is a function of the frame
and the model alone.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model import FramePosterior, PoFModel, check_spectrum
from .optim import FAILED_START, ZERO_PROGRESS, minimize
from .specfn import _gamma_fns, _ln_gamma

__all__ = [
    "FrameResult",
    "elbo",
    "elbo_grad",
    "infer_frames",
    "default_posterior_init",
    "floor_observations",
    "dump_posteriors",
    "status_counts",
]

# Observations are floored at this fraction of the spectrogram maximum so
# log W is finite on silent bins (the gamma likelihood has zero density at
# W = 0 for noise shapes > 1).
OBS_FLOOR_REL = 1e-10


@dataclass
class FrameResult:
    """Outcome of inference on one frame."""

    posterior: FramePosterior
    elbo: float
    status: str


def status_counts(statuses) -> str:
    """The frames per status: "converged=n max_iters=n ... failed_start=n"."""
    counts = Counter(statuses)
    return " ".join(f"{s}={counts[s]}" for s in (
        "converged", "max_iters", "line_search_failed", ZERO_PROGRESS, FAILED_START))


def floor_observations(W) -> np.ndarray:
    """W, a Spectrogram or an array, floored at OBS_FLOOR_REL times its
    maximum. W must pass check_spectrum (2-D, non-empty, finite,
    non-negative) and hold a positive entry, else ValidationError."""
    data = check_spectrum(W)
    top = data.max()
    if top <= 0:
        raise ValidationError("cannot floor an all-zero spectrogram")
    return np.maximum(data, OBS_FLOOR_REL * top)


def _check_frame(w, model: PoFModel) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (model.n_bins,):
        raise ValidationError(f"frame length {w.shape} does not match F={model.n_bins}")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValidationError("frame entries must be positive (apply floor_observations)")
    return w


class _Frames:
    """The bound of a stack of frames, the rows of w (n, F), under one
    model, with every term that does not depend on (nu, rho) computed once.
    """

    def __init__(self, w: np.ndarray, model: PoFModel):
        gamma, alpha = model.gamma, model.alpha
        self.UT = np.ascontiguousarray(model.U.T)
        self.alpha = alpha
        self.gu = gamma @ model.U                         # (L,)
        self.gw = gamma * w                               # (n, F)
        self.const = (
            float(np.sum(gamma * np.log(gamma) - _ln_gamma(gamma)))
            + float(np.sum(alpha * np.log(alpha) - _ln_gamma(alpha)))
            + ((gamma - 1.0) * np.log(w)).sum(axis=1)
        )
        rho_min = np.maximum(0.0, -model.U.min(axis=0))
        self.lower = np.concatenate((np.zeros_like(rho_min), rho_min))

    def _terms(self, x, derivs, rows):
        """L at each row (nu, rho) of x (m, 2L) for the frames rows, with no
        row marked yet: v (m,) and good, the rows inside the box nu > 0,
        rho > rho_min whose v (and, with derivs=1, gradient) is finite; with
        derivs=1 also the gradient g (m, 2L) and what the Hessian is formed
        from: the buffer, its halves now log1p(r) and B = U / (rho + U), c
        (m, F), cb = sum_f c_f B (m, L), ea = nu / rho, k = (gamma U +
        alpha) / rho^2 and alpha psi_2 + h'' (m, L). Call it under errstate.
        """
        L, F = self.UT.shape
        alpha, gu = self.alpha, self.gu
        nu, rho = x[:, :L], x[:, L:]
        # log1p(r) over r = U^T / rho, filter-major: passes run along f
        jac = np.empty((len(x), 2 * L, F))
        r = np.divide(self.UT, rho[:, :, None], out=jac[:, L:])
        np.log1p(r, out=jac[:, :L])
        # c_f = gamma_f w_f exp(S_f), S_f = -sum_l nu_l log1p(U_fl / rho_l)
        c = self.gw[rows] * np.exp(-(nu[:, None, :] @ jac[:, :L])[:, 0])
        ea = nu / rho
        _, psi, psi1, psi2, ent, ent1, ent2 = _gamma_fns(nu, bound=True)
        v = (self.const[rows] - (gu * ea).sum(axis=1) - c.sum(axis=1)
             + (alpha * psi + ent - alpha * (np.log(rho) + ea)).sum(axis=1))
        good = np.all(x > self.lower, axis=1) & np.isfinite(v)
        if not derivs:
            return v, None, good, None
        np.divide(r, r + 1.0, out=r)                  # B = U / (rho + U)
        # dS / d(nu, rho) = (-log1p(r), ea B): g needs sum_f c log1p(r), c B
        cl, cb = np.split((jac @ c[:, :, None])[:, :, 0], 2, axis=1)
        k = (gu + alpha) / (rho * rho)
        g = np.concatenate((cl + alpha * psi1 + ent1 - (gu + alpha) / rho,
                            k * nu - alpha / rho - ea * cb), axis=1)
        good &= np.all(np.isfinite(g), axis=1)
        return v, g, good, (jac, c, cb, ea, k, alpha * psi2 + ent2)

    def bound(self, x: np.ndarray, derivs: int = 0, rows=slice(None)):
        """L at each row (nu, rho) of x (m, 2L), for the frames rows (all by
        default), and, with derivs=1, its gradient (m, 2L), else None. A row
        outside the box nu > 0, rho > rho_min, or whose bound or gradient is
        not finite, has bound -inf and a NaN gradient.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v, g, good, _ = self._terms(x, derivs, rows)
        if not good.all():
            v[~good] = -math.inf
            if g is not None:
                g[~good] = math.nan
        return v, g

    def objective(self, batch):
        """-L at x = exp(y) for the frames rows, batch = (rows, y) with y =
        (log nu, log rho), with its gradient g_y, its Hessian H_y and a
        function of positions in the batch that returns C_y at those rows
        (see the module docstring): the function minimize solves. A row
        outside the box, or whose value, g_y or H_y is not finite, has value
        +inf; its derivatives are not meant to be read."""
        rows, y = batch
        L = self.UT.shape[0]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            x = np.exp(y)
            v, g, good, (jac, c, cb, ea, k, shape2) = self._terms(x, 1, rows)
            g *= -x                                       # g_y
            nu, rho = x[:, :L], x[:, L:]
            # the Gram term sum_f c_f dS_f dS_f^T, with dS_f / dy =
            # s (log1p(r), B) and s = x (-1, ea) = (-nu, nu) put in after the
            # product; its rho diagonal before that is sum_f c_f B^2
            jac *= np.sqrt(c)[:, None, :]
            hess = jac @ jac.transpose(0, 2, 1)
            del jac
            diag, nr, rn = _block_entries(hess)
            cb2 = diag[:, L:].copy()
            s = np.concatenate((-nu, nu), axis=1)
            hess *= s[:, :, None]
            hess *= s[:, None, :]
            gram = diag.copy(), nr.copy()
            # the blocks B_l of -L in (nu, rho), [[b_nn, b_nr], [b_nr, b_rr]],
            # with minus sum_f c_f times the second derivatives of S_f:
            # d2S / dnu drho = B / rho, d2S / drho^2 = -nu B (2 - B) / rho^2;
            # X B_l X scales them by (nu^2, nu rho, rho^2)
            blocks = (-shape2, cb / rho - k,
                      2.0 * k * ea - self.alpha / (rho * rho) - ea * (2.0 * cb - cb2) / rho)
            scales = (nu * nu, nu * rho, rho * rho)
            _add_blocks((diag, nr, rn), blocks, scales, g)
        # g_y is on the diagonal of H_y, so this also catches an overflow in g_y
        v[~(good & np.all(np.isfinite(hess), axis=(1, 2)))] = -math.inf

        def stand_in(at):
            """C_y = X (Gram + |B|) X + diag(max(g_y, 0)) at the positions at."""
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                curv = hess[at]
                d, o, p = _block_entries(curv)
                d[...], o[...], p[...] = gram[0][at], gram[1][at], gram[1][at]
                _add_blocks((d, o, p), _abs_2x2(*(b[at] for b in blocks)),
                            tuple(e[at] for e in scales), np.maximum(g[at], 0.0))
            return curv

        return -v, g, hess, stand_in


def _block_entries(m):
    """Writable views of the stack m (k, 2L, 2L), C-contiguous: its
    diagonal (k, 2L) and its (nu_l, rho_l) and (rho_l, nu_l) entries (k, L),
    as strided slices of its flat rows."""
    k, d = m.shape[:2]
    L = d // 2
    flat = m.reshape(k, d * d)
    return flat[:, ::d + 1], flat[:, L:d * L:d + 1], flat[:, d * L::d + 1]


def _add_blocks(entries, blocks, scales, diagonal):
    """Add the 2x2 blocks [[b_nn, b_nr], [b_nr, b_rr]] (each (k, L)), times
    scales, to the entries of _block_entries, then diagonal (k, 2L)."""
    diag, nr, rn = entries
    (b_nn, b_nr, b_rr), (s_nn, s_nr, s_rr) = blocks, scales
    L = nr.shape[1]
    diag[:, :L] += b_nn * s_nn
    diag[:, L:] += b_rr * s_rr
    off = b_nr * s_nr
    nr += off
    rn += off
    diag += diagonal


def _abs_2x2(a, b, c):
    """|B| = (B B)^(1/2) of the 2x2 blocks B = [[a, b], [b, c]], entrywise
    over a, b, c: B or -B where B is semidefinite, else (B B - det(B) I) / s,
    s = hypot(a - c, 2 b), formed from ratios of size at most 1."""
    semi = np.abs(b) <= np.sqrt(np.abs(a)) * np.sqrt(np.abs(c))
    psd = semi & (a >= 0.0) & (c >= 0.0)
    if psd.all():
        return a, b, c
    nsd = semi & (a <= 0.0) & (c <= 0.0)
    s = np.hypot(a - c, 2.0 * b)
    p, q = (a - c) / s, b / s
    indefinite = (a * p + 2.0 * b * q, b * ((a + c) / s), 2.0 * b * q - c * p)
    return tuple(np.where(psd, e, np.where(nsd, -e, f))
                 for e, f in zip((a, b, c), indefinite))


def elbo(w, model: PoFModel, post: FramePosterior) -> float:
    """Variational lower bound for one frame; -inf iff some U_fl <= -rho_l."""
    w = _check_frame(w, model)
    value, _ = _Frames(w[None], model).bound(np.concatenate((post.nu, post.rho))[None])
    return float(value[0])


def elbo_grad(w, model: PoFModel, post: FramePosterior) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (d/d nu, d/d rho) of the bound at a feasible point."""
    w = _check_frame(w, model)
    value, grad = _Frames(w[None], model).bound(
        np.concatenate((post.nu, post.rho))[None], derivs=1)
    if not math.isfinite(value[0]):
        raise NumericalError("gradient requested at an infeasible point")
    L = model.n_filters
    return grad[0, :L], grad[0, L:]


def _default_starts(model: PoFModel, n: int) -> np.ndarray:
    """n copies of the default start (nu, rho), one row each (see
    default_posterior_init)."""
    rho_min = np.maximum(0.0, -model.U.min(axis=0))
    start = np.maximum(1.0, 2.0 * rho_min)
    return np.tile(np.concatenate((start, start)), (n, 1))


def default_posterior_init(model: PoFModel, seed: int, frame: int) -> FramePosterior:
    """The start of every cold frame: nu_l = rho_l = max(1, 2 rho_min,l),
    with rho_min = max(0, -min_f U_fl).

    Its mean nu / rho is the prior mean E[a] = 1. Where the barrier is
    near, nu and rho are both raised to 2 rho_min, so that rho sits rho_min
    above it, where the bound's gradient is moderate; starting on the
    barrier instead gives gradients near 1e15 and a first line search that
    may accept no step.
    seed and frame are accepted and ignored: the start depends on the model
    alone. They remain for callers written for the former random start,
    such as the benchmark, until they drop them.
    """
    (x,) = _default_starts(model, 1)
    L = model.n_filters
    return FramePosterior(x[:L], x[L:])


def _solve(data: np.ndarray, model: PoFModel, x0: np.ndarray) -> list[FrameResult]:
    """Infer every column of data (F, T) from its start, the row (nu, rho)
    of x0 (T, 2L), in one minimize call."""
    F, L = model.U.shape
    y0 = np.log(x0)
    frames = _Frames(np.ascontiguousarray(data.T), model)
    with np.errstate(divide="ignore"):
        lower = np.log(frames.lower)
    # the peak of a solve per frame in flight, measured with tracemalloc at
    # L=5 to 50 and F=48 to 513, counts its F L and its L^2 parts apart: the
    # bound's buffer, the temporary of B and a few F-vectors beside the last
    # evaluation's H_y and the L-vectors of a frame, counted as two (2L, 2L)
    # stacks; or, while minimize picks the directions, H_y, its scaled copy
    # and, for rows whose H_y has no factor, C_y and its scaled copy or
    # factor, up to 4.9 stacks (at L=50), budgeted as six; whichever is
    # more, plus about 6 kB of rows and results (at L=20 it is 88 kB per
    # frame at F=129 and 59 to 66 kB at F=48, against the 99 and 83 kB
    # asked for)
    s = 4 * L * L
    res = minimize(frames.objective, y0, lower, 8 * max(3 * F * L + 5 * F + 2 * s, 6 * s) + 6144)
    # a row that never moved keeps its start bitwise, not exp(log x0);
    # a row that moved has a finite bound at exp(y), so exp(y) is finite
    kept = np.all(res.x == y0, axis=1)
    xs = np.where(kept[:, None], x0, np.exp(res.x))
    return [FrameResult(FramePosterior(x[:L], x[L:]), float(-f), str(status))
            for x, f, status in zip(xs, res.f, res.row_status)]


def infer_frames(
    W,
    model: PoFModel,
    *,
    init: list[FramePosterior] | None = None,
    threads: int = 1,
) -> list[FrameResult]:
    """Independent per-frame inference over a spectrogram.

    Observations are floored on entry. Frame t starts from init[t], or,
    without init, every frame from the one start of default_posterior_init,
    so that a frame's result depends on the frame and the model alone. A
    frame whose start is infeasible keeps it, with bound -inf and status
    FAILED_START. threads is accepted and ignored: the frames are solved as
    one batched working set in one thread. It remains for callers written
    for the former thread-pool E-step, such as the benchmark, until they
    drop it.
    """
    data = floor_observations(W)
    if data.shape[0] != model.n_bins:
        raise ValidationError(
            f"spectrogram has {data.shape[0]} bins, model expects {model.n_bins}"
        )
    T, L = data.shape[1], model.n_filters
    if init is None:
        x0 = _default_starts(model, T)
    elif len(init) != T:
        raise ValidationError("init list length must equal the number of frames")
    elif any(p.nu.size != L for p in init):
        raise ValidationError(f"initial posteriors must have L={L} entries")
    else:
        x0 = np.array([np.concatenate((p.nu, p.rho)) for p in init])
    return _solve(data, model, x0)


def dump_posteriors(results: list[FrameResult], path) -> None:
    """Write the JSON posterior dump: [{frame, nu, rho, elbo}, ...].

    A bound that is not finite (a failed frame's -inf, a bound not computed)
    is written as null, so the file is strict JSON.
    """
    doc = [
        {
            "frame": t,
            "nu": r.posterior.nu.tolist(),
            "rho": r.posterior.rho.tolist(),
            "elbo": float(r.elbo) if math.isfinite(r.elbo) else None,
        }
        for t, r in enumerate(results)
    ]
    # json.dumps encodes in C; json.dump streams through the pure-Python encoder
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, allow_nan=False) + "\n")
