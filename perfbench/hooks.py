"""Spans and counts for the traced run, taken from outside the package.

Each hook replaces one name in one ``pof`` module for the duration of a
``with`` block and restores it afterwards. Module handles come from
``importlib.import_module``: ``pof.mstep`` as an attribute is the
re-exported *function*, not the module. A hook whose target no longer
exists installs nothing; the metrics it feeds are reported as absent.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass


@dataclass
class Call:
    """One call of a wrapped function: wall time, keyword arguments, result."""

    seconds: float
    kwargs: dict
    out: object


@dataclass
class Solve:
    """One call of ``minimize``: work done and outcome."""

    evals: int
    iters: int
    status: str
    seconds: float


class Hooks:
    """Installs wrappers and remembers which targets were missing."""

    def __init__(self):
        self.absent: set[str] = set()

    @contextlib.contextmanager
    def wrap(self, module: str, name: str, make_wrapper):
        """Replace ``module.name`` with ``make_wrapper(original)``; yields
        whether the target existed."""
        mod = importlib.import_module(module)
        original = getattr(mod, name, None)
        if original is None:
            self.absent.add(f"{module}.{name}")
            yield False
            return
        setattr(mod, name, make_wrapper(original))
        try:
            yield True
        finally:
            setattr(mod, name, original)

    def calls(self, module: str, name: str, sink: list):
        """Append a ``Call`` for every call of ``module.name`` to ``sink``."""
        def make(original):
            def recorded(*args, **kwargs):
                t0 = time.perf_counter()
                out = original(*args, **kwargs)
                sink.append(Call(time.perf_counter() - t0, kwargs, out))
                return out
            return recorded
        return self.wrap(module, name, make)

    def solves(self, module: str, sink: list):
        """Record a ``Solve`` for every ``minimize`` call ``module`` makes."""
        def make(original):
            def counted_minimize(f_and_grad, x0, *args, **kwargs):
                evals = 0

                def counted(x):
                    nonlocal evals
                    evals += 1
                    return f_and_grad(x)

                t0 = time.perf_counter()
                try:
                    res = original(counted, x0, *args, **kwargs)
                except Exception:
                    sink.append(Solve(evals, 0, "error", time.perf_counter() - t0))
                    raise
                sink.append(Solve(evals, res.iters, res.status, time.perf_counter() - t0))
                return res
            return counted_minimize
        return self.wrap(module, "minimize", make)
