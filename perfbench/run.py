"""Benchmark for the pof package: encode, train and bwe on synthetic spectra.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload {encode,train,bwe} --seed N \
        --seconds S --trace {0,1}

Every run executes all three pipelines, so it reports every metric named in
BENCHMARK.json. The pipeline named by --workload runs on batches drawn from
--seed; the other two repeat one fixed reference batch. With --trace 0 the
last line of stdout holds the end-to-end metrics; with --trace 1 the run is
made untraced and then again with hooks installed, and the last line holds
the per-layer metrics. The line before it holds the run's metadata. See
README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("encode", "train", "bwe")
SETUP_REPEATS = 9
NMF_TRAIN_FRAMES = 400


def _import_pof():
    """Import pof from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    if not (src / "pof" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pof package under {src}")
    sys.path.insert(0, str(src))
    import pof
    if not Path(pof.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported pof from {pof.__file__}, not {src}")


def _declared():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def _plans():
    from inputs import Plan
    subject = {"encode": Plan(100, 12), "train": Plan(80, 4), "bwe": Plan(100, 12)}
    reference = {"encode": Plan(40, 1), "train": Plan(12, 1), "bwe": Plan(40, 1)}
    return subject, reference


def _guarded(fn, *args):
    """Run one operation; an exception fails it instead of the run."""
    from pipelines import Op
    try:
        return fn(*args)
    except Exception as exc:  # the run goes on and reports the failure
        traceback.print_exc()
        return Op(0.0, None, [f"{type(exc).__name__}: {exc}"])


class Run:
    """One benchmark run: its inputs, pipelines, hooks and operations."""

    def __init__(self, args, workdir: str):
        import inputs
        from hooks import Hooks
        from pipelines import QUALITY_BATCHES, Bwe, Encode, Train

        self.args = args
        subject, reference = _plans()
        self.plans = {n: subject[n] if n == args.workload else reference[n] for n in WORKLOADS}
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.data = inputs.make_inputs(workdir, args.workload, args.seed, self.plans,
                                           NMF_TRAIN_FRAMES)
            setup.append(time.perf_counter() - t0)
        self.setup_s = statistics.median(setup)
        self.pipes = {"encode": Encode(self.data), "train": Train(),
                      "bwe": Bwe(self.data, workdir)}
        self.hooks = Hooks()
        self.ops: list = []
        # Every run measures the named workload's quality batches.
        self.min_rounds = QUALITY_BATCHES

    def warm_up(self):
        import pof
        spec = self.data.encode[0].spec
        pof.infer_frames(spec.data[:, :2], self.data.model)
        pof.nmf_fit(spec, 4, max_iters=5)

    def one_pass(self, traced: bool, rounds: int | None = None) -> tuple[float, int, dict]:
        """Rounds of: train the NMF baseline, run the named workload on its
        next seeded batch, train the NMF baseline again, run encode and bwe
        (where not named) on their reference batch. Rounds go on after
        ``min_rounds`` while the next should end within --seconds, so short
        operations are sampled across the run rather than once. A train
        reference fit closes the pass (unless train is the workload).
        ``rounds`` replays a pass of that many rounds.
        Returns (wall seconds, rounds, operations by pipeline)."""
        workload = self.args.workload
        batches = {"encode": self.data.encode, "train": self.data.train,
                   "bwe": self.data.bwe}
        bwe = self.pipes["bwe"]

        def run(name, batch):
            pipe = self.pipes[name]
            return (_guarded(pipe.run_traced, batch, self.hooks) if traced
                    else _guarded(pipe.run, batch))

        def prepare():
            return (_guarded(bwe.prepare_traced, self.hooks) if traced
                    else _guarded(bwe.prepare))

        ops = {"nmf_train": [], "encode": [], "train": [], "bwe": []}
        references = [n for n in ("encode", "bwe") if n != workload]
        start, last, k = time.perf_counter(), 0.0, 0
        while k < len(batches[workload]):
            t0 = time.perf_counter()
            if rounds is not None and k >= rounds:
                break
            if (rounds is None and k >= self.min_rounds
                    and (t0 - start) + last > self.args.seconds):
                break
            ops["nmf_train"].append(prepare())
            ops[workload].append(run(workload, batches[workload][k]))
            ops["nmf_train"].append(prepare())
            for name in references:
                ops[name].append(run(name, batches[name][0]))
            last = time.perf_counter() - t0
            k += 1
        if workload != "train":
            ops["train"].append(run("train", batches["train"][0]))
        wall = time.perf_counter() - start
        self.ops += [op for group in ops.values() for op in group]
        self.batches_run = {n: len(ops[n]) for n in ops}
        return wall, k, ops

    def _collect(self, ops, traced: bool) -> dict:
        """Metrics of every pipeline whose operations all produced output."""
        metrics = {}
        for name in WORKLOADS:
            needs = ops[name] + (ops["nmf_train"] if name == "bwe" else [])
            if not ops[name] or any(op.out is None for op in needs):
                continue
            pipe = self.pipes[name]
            args = ([ops["nmf_train"]] if name == "bwe" else []) + [ops[name]]
            metrics.update(pipe.layer_metrics(*args) if traced
                           else pipe.metrics(*args, name == self.args.workload))
        return metrics

    def end_to_end(self) -> dict:
        _, _, ops = self.one_pass(traced=False)
        metrics = self._collect(ops, traced=False)
        metrics["setup_s"] = (self.setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        return metrics

    def per_layer(self) -> dict:
        base_wall, rounds, _ = self.one_pass(traced=False)
        traced_wall, _, ops = self.one_pass(traced=True, rounds=rounds)
        metrics = self._collect(ops, traced=True)
        metrics["trace.overhead_frac"] = (traced_wall / base_wall - 1.0, "ratio")
        metrics.update(self.micro())
        metrics.update(self.thread_speedup())
        return metrics

    def thread_speedup(self) -> dict:
        """The first encode batch at threads=1 and threads=2, alternated
        twice so that both see the same interference from the host."""
        timed = {1: [], 2: []}
        for threads in (1, 2, 1, 2):
            op = _guarded(self.pipes["encode"].run, self.data.encode[0], threads)
            self.ops.append(op)
            if op.out is None:
                return {}
            timed[threads].append(op.seconds)
        return {"estep.thread_speedup_2v1": (sum(timed[1]) / sum(timed[2]), "ratio")}

    def micro(self) -> dict:
        """Per-call cost of the special functions on an L-vector and of one
        bound-plus-gradient at F=129, L=20. The arrays are a few thousand
        doubles and stay in cache, so these measure per-call overhead."""
        import numpy as np
        import pof
        model = self.data.model
        x = np.linspace(0.1, 10.0, model.n_filters)
        rho = np.maximum(model.alpha, 2.0 * np.maximum(0.0, -model.U.min(axis=0)))
        post = pof.FramePosterior(rho, rho)
        w = pof.floor_observations(self.data.encode[0].spec)[:, 0]
        return {
            "specfn.digamma_us": (_per_call_us(pof.digamma, x), "us"),
            "specfn.trigamma_us": (_per_call_us(pof.trigamma, x), "us"),
            "specfn.ln_gamma_us": (_per_call_us(pof.ln_gamma, x), "us"),
            "estep.elbo_grad_us": (_per_call_us(pof.elbo_grad, w, model, post, calls=300),
                                   "us"),
        }


def _per_call_us(fn, *args, calls: int = 2000, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        times.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(times)


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _blas():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _metadata(args, run: Run) -> dict:
    import numpy as np
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "frames_per_batch": {n: p.frames for n, p in run.plans.items()},
        "batches_run": run.batches_run,
        "nmf_train_frames": NMF_TRAIN_FRAMES,
        "absent_hooks": sorted(run.hooks.absent),
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # Before numpy loads: at F=129 the products are too small to gain from
    # BLAS threads, whose start-up made identical NMF fits swing from 0.25 s
    # to 1.2 s. An explicit setting from the caller is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _import_pof()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    end_to_end, per_layer = _declared()
    declared = per_layer if args.trace else end_to_end
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        run = Run(args, str(workdir))
        run.warm_up()
        measured = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    unknown = set(measured) - set(declared)
    if unknown:
        raise SystemExit(f"perfbench: metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for name, unit in declared.items():
        value = measured.get(name, (None, unit))[0]
        if value is not None and not math.isfinite(value):
            print(f"perfbench: {name} is {value}", file=sys.stderr)
            value = None
        metrics[name] = {"value": None if value is None else float(value), "unit": unit}
        print(f"{name:34s} {'absent' if value is None else f'{value:.6g}':>12s} {unit}",
              file=sys.stderr)
    failed = sum(1 for op in run.ops if op.errors)
    for op in run.ops:
        for error in op.errors:
            print(f"perfbench: check failed: {error}", file=sys.stderr)
    complete = args.trace or all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"meta": _metadata(args, run)}))
    print(json.dumps({"correct": failed == 0 and bool(complete), "attempted": len(run.ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
