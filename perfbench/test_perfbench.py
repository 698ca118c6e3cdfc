"""Tests of the benchmark itself: inputs, traced E-step, checks, metric names.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np
import pytest

import pof

import inputs
from hooks import Hooks
from pipelines import Bwe, Encode, Train, check_frames, check_trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = {"encode": inputs.Plan(4, 2), "train": inputs.Plan(3, 1), "bwe": inputs.Plan(4, 2)}


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["end_to_end"], doc["per_layer"]


def _spectra(data: inputs.Inputs):
    return [b.spec.data for b in data.encode + data.train + data.bwe]


def test_inputs_are_deterministic_per_seed(tmp_path):
    a = inputs.make_inputs(str(tmp_path / "a"), "encode", 7, TINY, 20)
    b = inputs.make_inputs(str(tmp_path / "b"), "encode", 7, TINY, 20)
    for x, y in zip(_spectra(a), _spectra(b)):
        np.testing.assert_array_equal(x, y)
    assert (tmp_path / "a" / "true_model.json").read_bytes() == \
        (tmp_path / "b" / "true_model.json").read_bytes()


def test_two_seeds_give_different_inputs(tmp_path):
    for workload in ("encode", "train", "bwe"):
        a = inputs.make_inputs(str(tmp_path / f"{workload}7"), workload, 7, TINY, 20)
        b = inputs.make_inputs(str(tmp_path / f"{workload}8"), workload, 8, TINY, 20)
        seeded = [getattr(a, workload), getattr(b, workload)]
        for x, y in zip(*seeded):
            assert not np.array_equal(x.spec.data, y.spec.data)
        others = [n for n in ("encode", "train", "bwe") if n != workload]
        for name in others:  # reference batches do not follow the seed
            np.testing.assert_array_equal(getattr(a, name)[0].spec.data,
                                          getattr(b, name)[0].spec.data)


def test_traced_estep_reproduces_untraced_bounds(tmp_path):
    data = inputs.make_inputs(str(tmp_path), "encode", 3,
                              dict(TINY, encode=inputs.Plan(6, 1)), 20)
    encode = Encode(data)
    plain = encode.run(data.encode[0])
    traced = encode.run_traced(data.encode[0], Hooks())
    assert [r.elbo for r in traced.out] == [r.elbo for r in plain.out]
    assert [r.status for r in traced.out] == [r.status for r in plain.out]
    assert len(traced.layer["solves"]) == 6
    assert plain.errors == [] and traced.errors == []


def test_checks_catch_bad_outputs(tmp_path):
    data = inputs.make_inputs(str(tmp_path), "encode", 3, TINY, 20)
    batch = data.encode[0]
    results = pof.infer_frames(batch.spec, data.model)
    assert check_frames(data.model, batch.spec, results) == []
    finite = next(t for t, r in enumerate(results) if math.isfinite(r.elbo))
    results[finite] = pof.FrameResult(results[finite].posterior,
                                      results[finite].elbo * (1 + 1e-6) + 1e-6, "converged")
    assert check_frames(data.model, batch.spec, results)
    assert check_trace([-10.0, -5.0]) == []
    assert check_trace([-5.0, -10.0])
    assert check_trace([-5.0, math.nan])


def test_metric_names_are_well_formed_and_declared(tmp_path):
    end_to_end, per_layer = _declared()
    names = [m["name"] for m in end_to_end + per_layer]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))

    data = inputs.make_inputs(str(tmp_path), "bwe", 5, TINY, 40)
    hooks = Hooks()
    encode, train, bwe = Encode(data), Train(), Bwe(data, str(tmp_path))
    prepared, prepared_traced = [bwe.prepare()], [bwe.prepare_traced(hooks)]
    ops = {
        "encode": ([encode.run(b) for b in data.encode],
                   [encode.run_traced(b, hooks) for b in data.encode]),
        "train": ([train.run(b) for b in data.train],
                  [train.run_traced(b, hooks) for b in data.train]),
        "bwe": ([bwe.run(b) for b in data.bwe], [bwe.run_traced(b, hooks) for b in data.bwe]),
    }
    for plain, traced in ops.values():
        assert all(op.errors == [] for op in plain + traced)
    produced = {**encode.metrics(ops["encode"][0], False),
                **train.metrics(ops["train"][0], False),
                **bwe.metrics(prepared, ops["bwe"][0], True)}
    layer = {**encode.layer_metrics(ops["encode"][1]), **train.layer_metrics(ops["train"][1]),
             **bwe.layer_metrics(prepared_traced, ops["bwe"][1])}
    declared_e2e = {m["name"]: m["unit"] for m in end_to_end}
    declared_layer = {m["name"]: m["unit"] for m in per_layer}
    assert set(produced) <= set(declared_e2e)
    assert set(layer) <= set(declared_layer)
    for name, (value, unit) in {**produced, **layer}.items():
        assert unit == {**declared_e2e, **declared_layer}[name], name
        assert value is not None and math.isfinite(value), name
    assert hooks.absent == set()


def test_missing_hook_target_is_reported_absent():
    hooks = Hooks()
    sink = []
    with hooks.calls("pof.estep", "no_such_function", sink) as present:
        assert not present
    assert hooks.absent == {"pof.estep.no_such_function"}


def test_hook_restores_the_original():
    import importlib
    estep = importlib.import_module("pof.estep")
    original = estep.minimize
    with pytest.raises(RuntimeError):
        with Hooks().solves("pof.estep", []):
            assert estep.minimize is not original
            raise RuntimeError("boom")
    assert estep.minimize is original
