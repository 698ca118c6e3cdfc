"""The three pipelines the benchmark drives: encode, train and bwe.

Each pipeline runs one operation per input batch, through ``pof``'s public
functions or ``pof.cli.main``, checks the operation's output, and turns a
list of operations into end-to-end metrics (untraced) or per-layer metrics
(traced).

Speed pools every operation of the run. When a pipeline is the run's
subject, its quality comes from its first QUALITY_BATCHES batches, which
every run makes whatever its speed; otherwise it repeated one reference
operation on identical input, and its quality is the first repetition's.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import pof
from pof import cli

import inputs
from hooks import Hooks

EM_CONFIG = pof.EmConfig(L=inputs.N_FILTERS, max_em_iters=2)
NMF_K = 20
# Relative agreement required between FrameResult.elbo and pof.elbo.
ELBO_RTOL = 1e-9
# The fit trace may fall by this share of its magnitude (float noise).
TRACE_RTOL = 1e-9
QUALITY_BATCHES = 2


@dataclass
class Op:
    """One operation: its timed seconds, what it produced, failed checks,
    and (traced runs only) per-layer figures."""

    seconds: float
    out: object
    errors: list[str]
    layer: dict = field(default_factory=dict)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else None


def _mean(values):
    return float(np.mean(values)) if len(values) else None


def _seconds_per(ops, work) -> float:
    """Seconds per unit of ``work(op)``, pooled over the operations."""
    return sum(op.seconds for op in ops) / sum(work(op) for op in ops)


def _quality(ops, subject: bool):
    return ops[:QUALITY_BATCHES] if subject else ops[:1]


def failed_share(n_failed: int, n_total: int) -> float:
    """(failed + 1) / (total + 1): a failure share that is never 0, so a
    regression from no failures still shows as a finite relative change."""
    return (n_failed + 1) / (n_total + 1)


def made_no_progress(post: pof.FramePosterior, init: pof.FramePosterior) -> bool:
    """True when inference handed back its starting point."""
    return bool(np.allclose(post.nu, init.nu, rtol=1e-12, atol=0.0)
                and np.allclose(post.rho, init.rho, rtol=1e-12, atol=0.0))


def _posterior_errors(posteriors) -> list[str]:
    return [f"frame {t}: posterior is not finite and positive"
            for t, p in enumerate(posteriors)
            if not (np.all(np.isfinite(p.nu)) and np.all(p.nu > 0)
                    and np.all(np.isfinite(p.rho)) and np.all(p.rho > 0))]


def check_frames(model, spec: pof.Spectrogram, results) -> list[str]:
    """Posteriors finite and positive; the bound of a few frames recomputed
    with ``pof.elbo`` agrees with ``FrameResult.elbo``."""
    if len(results) != spec.n_frames:
        return [f"{len(results)} results for {spec.n_frames} frames"]
    errors = _posterior_errors([r.posterior for r in results])
    data = pof.floor_observations(spec)
    finite = [t for t, r in enumerate(results) if math.isfinite(r.elbo)]
    for t in sorted({finite[0], finite[len(finite) // 2], finite[-1]} if finite else ()):
        again = pof.elbo(data[:, t], model, results[t].posterior)
        if not math.isclose(again, results[t].elbo, rel_tol=ELBO_RTOL, abs_tol=0.0):
            errors.append(f"frame {t}: pof.elbo gives {again!r}, inference reported "
                          f"{results[t].elbo!r}")
    return errors


class Encode:
    """``pof.infer_frames`` with the default cold init and one thread."""

    def __init__(self, data: inputs.Inputs):
        self.model = data.model

    def run(self, batch: inputs.Batch, threads: int = 1) -> Op:
        results, seconds = _timed(pof.infer_frames, batch.spec, self.model, threads=threads)
        return Op(seconds, results, check_frames(self.model, batch.spec, results))

    def run_traced(self, batch: inputs.Batch, hooks: Hooks) -> Op:
        """The same inference one frame per call, on data floored as
        ``infer_frames`` floors it and from the same initial posteriors."""
        data = pof.floor_observations(batch.spec)
        results, frame_s, solves = [], [], []
        t0 = time.perf_counter()
        with hooks.solves("pof.estep", solves):
            for t in range(data.shape[1]):
                init = pof.default_posterior_init(self.model, 0, t)
                out, seconds = _timed(pof.infer_frames, data[:, t:t + 1], self.model,
                                      init=[init], threads=1)
                results.append(out[0])
                frame_s.append(seconds)
        seconds = time.perf_counter() - t0
        return Op(seconds, results, check_frames(self.model, batch.spec, results),
                  {"frame_s": frame_s, "solves": solves})

    def _failed(self, results) -> list[bool]:
        return [r.status != "converged"
                or made_no_progress(r.posterior, pof.default_posterior_init(self.model, 0, t))
                for t, r in enumerate(results)]

    def metrics(self, ops, subject: bool) -> dict:
        quality = _quality(ops, subject)
        results = [r for op in quality for r in op.out]
        elbos = np.array([r.elbo for r in results])
        failed = sum(sum(self._failed(op.out)) for op in quality)
        return {
            "encode_fps": (1.0 / _seconds_per(ops, lambda op: len(op.out)),
                           "frames/s"),
            # The median frame, not the sum: at zero progress a frame keeps
            # the bound of its initial point, -1e6 to -4e8, and a sum of
            # those swings by a fifth between seeds.
            "encode_elbo_per_obs": (float(np.median(elbos[np.isfinite(elbos)]))
                                    / inputs.N_BINS, "nat"),
            "encode_failed_frac": (failed_share(failed, len(results)), "frac"),
        }

    def layer_metrics(self, ops) -> dict:
        frame_ms = [1e3 * s for op in ops for s in op.layer["frame_s"]]
        results = [(t, r) for op in ops for t, r in enumerate(op.out)]
        status = [r.status for _, r in results]
        u_min = self.model.U.min(axis=0)
        solves = [s for op in ops for s in op.layer["solves"]]
        evals = [s.evals for s in solves]
        return {
            "estep.frame_ms_p50": (_pct(frame_ms, 50), "ms"),
            "estep.frame_ms_p95": (_pct(frame_ms, 95), "ms"),
            "estep.frames_converged": (status.count("converged"), "count"),
            "estep.frames_max_iters": (status.count("max_iters"), "count"),
            "estep.frames_line_search_failed": (status.count("line_search_failed"), "count"),
            "estep.frames_zero_progress": (sum(
                made_no_progress(r.posterior, pof.default_posterior_init(self.model, 0, t))
                for t, r in results), "count"),
            "estep.min_barrier_margin": (min(float(np.min(r.posterior.rho + u_min))
                                             for _, r in results), "1"),
            "optim.evals_per_frame_p50": (_pct(evals, 50), "count"),
            "optim.evals_per_frame_p95": (_pct(evals, 95), "count"),
            "optim.iters_per_eval": (sum(s.iters for s in solves) / sum(evals)
                                     if evals else None, "ratio"),
        }


def check_trace(trace) -> list[str]:
    """The EM bound is finite and non-decreasing within float noise."""
    if not trace or not all(math.isfinite(v) for v in trace):
        return [f"fit trace is empty or not finite: {trace}"]
    return [f"fit trace falls at iteration {i + 1}: {trace[i - 1]!r} -> {trace[i]!r}"
            for i in range(1, len(trace))
            if trace[i] < trace[i - 1] - TRACE_RTOL * abs(trace[i - 1])]


class Train:
    """``pof.fit`` with two EM iterations."""

    def run(self, batch: inputs.Batch) -> Op:
        (_, trace), seconds = _timed(pof.fit, batch.spec, EM_CONFIG)
        return Op(seconds, (batch.spec.n_frames, trace), check_trace(trace))

    def run_traced(self, batch: inputs.Batch, hooks: Hooks) -> Op:
        """Spans around the E-step and M-step calls ``fit`` makes, and every
        ``minimize`` call inside each M-step: its first F calls are the U
        rows, the rest the shape parameters (alpha, then gamma)."""
        estep, solves, msteps = [], [], []

        def trace_mstep(original):
            def traced(*args, **kwargs):
                start = len(solves)
                t0 = time.perf_counter()
                out = original(*args, **kwargs)
                msteps.append((time.perf_counter() - t0, start, len(solves)))
                return out
            return traced

        with hooks.calls("pof.mstep", "infer_frames", estep), \
                hooks.wrap("pof.mstep", "mstep", trace_mstep), \
                hooks.solves("pof.mstep", solves):
            op = self.run(batch)
        n_rows = batch.spec.n_bins
        op.layer = {
            "estep_s": [c.seconds for c in estep],
            "mstep_s": [m[0] for m in msteps],
            "rows": [solves[a:a + n_rows] for _, a, _ in msteps] if solves else [],
            "shape": [solves[a + n_rows:b] for _, a, b in msteps] if solves else [],
        }
        return op

    def metrics(self, ops, subject: bool) -> dict:
        per_obs = [trace[-1] / (inputs.N_BINS * n_frames) for n_frames, trace in
                   (op.out for op in _quality(ops, subject))]
        return {
            "train_s": (_mean([op.seconds for op in ops]), "s"),
            "train_elbo_per_obs": (_mean(per_obs), "nat"),
        }

    def layer_metrics(self, ops) -> dict:
        rows = [m for op in ops for m in op.layer["rows"]]
        shape = [m for op in ops for m in op.layer["shape"]]
        row_solves = [s for m in rows for s in m]
        evals = [s.evals for s in row_solves]
        return {
            "mstep.fit_estep_s": (_mean([s for op in ops for s in op.layer["estep_s"]]), "s"),
            "mstep.fit_mstep_s": (_mean([s for op in ops for s in op.layer["mstep_s"]]), "s"),
            "mstep.u_rows_s": (_mean([sum(s.seconds for s in m) for m in rows]), "s"),
            "mstep.shape_s": (_mean([sum(s.seconds for s in m) for m in shape]), "s"),
            "optim.u_row_evals_p50": (_pct(evals, 50), "count"),
            "optim.u_row_evals_p95": (_pct(evals, 95), "count"),
            "mstep.u_rows_max_iters": (sum(s.status == "max_iters" for s in row_solves)
                                       / len(ops) if row_solves else None, "count"),
        }


def _load_posteriors(path) -> list[pof.FramePosterior]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return [pof.FramePosterior(np.array(d["nu"]), np.array(d["rho"])) for d in doc]


class Bwe:
    """``pof bwe`` with the true model, next to the NMF baseline: ``pof
    nmf-train`` once per round, then ``pof nmf-bwe`` on every batch."""

    def __init__(self, data: inputs.Inputs, workdir: str):
        self.data = data
        self.workdir = workdir
        self.kept, self.missing = inputs.band()
        self.restricted = pof.restrict_model(data.model, self.kept)
        self.nmf_path = os.path.join(workdir, "nmf_model.json")

    def _out(self, batch, tag):
        stem = os.path.splitext(os.path.basename(batch.path))[0]
        return os.path.join(self.workdir, f"{stem}.{tag}")

    def prepare(self) -> Op:
        """Train the NMF baseline."""
        rc, seconds = _timed(cli.main, ["nmf-train", self.data.nmf_train_path,
                                        "-K", str(NMF_K), "-o", self.nmf_path])
        return Op(seconds, rc, [] if rc == 0 else [f"pof nmf-train exited {rc}"])

    def prepare_traced(self, hooks: Hooks) -> Op:
        fits = []
        with hooks.calls("pof.cli", "nmf_fit", fits):
            op = self.prepare()
        op.layer = {"fits": fits}
        return op

    def _passes_through(self, path, truth, what) -> list[str]:
        out = pof.load_spectrogram(path)
        if out.data.shape != truth.data.shape:
            return [f"{what}: output shape {out.data.shape}"]
        if not np.array_equal(out.data[self.kept.kept], truth.data[self.kept.kept]):
            return [f"{what}: observed rows were not passed through unchanged"]
        return []

    def run(self, batch: inputs.Batch) -> Op:
        out_path, dump, nmf_out = (self._out(batch, t) for t in ("out.pofs", "post.json",
                                                                  "nmf.pofs"))
        rc, seconds = _timed(cli.main, ["bwe", batch.path, "-m", self.data.model_path,
                                        "-o", out_path, "--dump-posteriors", dump])
        rc_nmf, nmf_seconds = _timed(cli.main, ["nmf-bwe", batch.path, "-m", self.nmf_path,
                                                "-o", nmf_out])
        if rc != 0 or rc_nmf != 0:
            return Op(seconds, None, [f"pof bwe exited {rc}, pof nmf-bwe exited {rc_nmf}"])
        errors = (self._passes_through(out_path, batch.spec, "pof bwe")
                  + self._passes_through(nmf_out, batch.spec, "pof nmf-bwe"))
        posteriors = _load_posteriors(dump)
        if len(posteriors) != batch.spec.n_frames:
            errors.append(f"{len(posteriors)} posteriors for {batch.spec.n_frames} frames")
        if errors:
            return Op(seconds, None, errors)
        return Op(seconds, {"truth": batch.spec, "bwe": pof.load_spectrogram(out_path),
                            "nmf": pof.load_spectrogram(nmf_out), "posteriors": posteriors,
                            "nmf_s": nmf_seconds}, _posterior_errors(posteriors))

    def run_traced(self, batch: inputs.Batch, hooks: Hooks) -> Op:
        infer, recon, expand, nmf_expand, updates = [], [], [], [], []
        with hooks.calls("pof.bwe", "infer_frames", infer), \
                hooks.calls("pof.bwe", "reconstruct_point", recon), \
                hooks.calls("pof.cli", "expand", expand), \
                hooks.calls("pof.cli", "nmf_expand", nmf_expand), \
                hooks.calls("pof.nmf", "_run_updates", updates):
            op = self.run(batch)
        op.layer = {
            "infer_s": sum(c.seconds for c in infer) if infer else None,
            "reconstruct_s": sum(c.seconds for c in recon) if recon else None,
            "overhead_s": op.seconds - expand[0].seconds if expand else None,
            "nmf_bwe_s": nmf_expand[0].seconds if nmf_expand else None,
            "nmf_encode_iters": [len(c.out[2]) - 1 for c in updates
                                 if not c.kwargs.get("update_v", True)],
        }
        return op

    def _lsd(self, ops, key) -> float:
        """LSD over the missing bins, all frames of ``ops`` together."""
        out, truth = (pof.Spectrogram(np.concatenate([op.out[k].data for op in ops], axis=1),
                                      "magnitude", inputs.SAMPLE_RATE, inputs.N_FFT, inputs.HOP)
                      for k in (key, "truth"))
        return pof.log_spectral_distance(out, truth, self.missing)

    def _failed(self, posteriors) -> list[bool]:
        """Dumped posteriors equal to the restricted model's initial posterior
        (zero progress) or to the (alpha, alpha) fallback ``expand`` uses."""
        alpha = self.data.model.alpha
        return [made_no_progress(p, pof.default_posterior_init(self.restricted, 0, t))
                or (np.array_equal(p.nu, alpha) and np.array_equal(p.rho, alpha))
                for t, p in enumerate(posteriors)]

    def metrics(self, prepare: list[Op], ops, subject: bool) -> dict:
        quality = _quality(ops, subject)
        posteriors = [p for op in quality for p in op.out["posteriors"]]
        failed = sum(sum(self._failed(op.out["posteriors"])) for op in quality)
        return {
            "bwe_rtf": (_seconds_per(
                ops, lambda op: inputs.audio_seconds(op.out["truth"].n_frames)),
                "ratio"),
            "bwe_lsd_db": (self._lsd(quality, "bwe"), "dB"),
            "bwe_failed_frac": (failed_share(failed, len(posteriors)), "frac"),
            "nmf_s": (_mean([op.seconds for op in prepare])
                      + _mean([op.out["nmf_s"] for op in ops]), "s"),
            "nmf_bwe_lsd_db": (self._lsd(quality, "nmf"), "dB"),
        }

    def layer_metrics(self, prepare: list[Op], ops) -> dict:
        fits = [c for op in prepare for c in op.layer["fits"]]

        def per_call(key):
            values = [op.layer[key] for op in ops]
            return None if None in values else _mean(values)

        return {
            "bwe.infer_s": (per_call("infer_s"), "s"),
            "bwe.reconstruct_s": (per_call("reconstruct_s"), "s"),
            "cli.bwe_overhead_s": (per_call("overhead_s"), "s"),
            "nmf.train_iters": (len(fits[0].out[1].cost_trace) - 1 if fits else None, "count"),
            "nmf.encode_iters": (_mean([n for op in ops for n in op.layer["nmf_encode_iters"]]),
                                 "count"),
            "nmf.train_s": (_mean([c.seconds for c in fits]), "s"),
            "nmf.bwe_s": (per_call("nmf_bwe_s"), "s"),
        }
