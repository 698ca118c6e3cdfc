"""NMF baselines: fixed points, cost monotonicity, and masked encoding."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pof import (BandMask, DataFormatError, NmfModel, Spectrogram, ValidationError,
                 load_nmf_model, nmf_encode, nmf_expand, nmf_fit, save_nmf_model)
from pof.nmf import _cost_of, _reconstruct, _run_updates
from reference import nmf_run_updates


def spec_of(data, kind="magnitude"):
    return Spectrogram(data, kind, 16000.0, 14, 7)


class TestNmfFit:
    @pytest.mark.parametrize("divergence", ["kl", "is"])
    def test_exact_factorization_is_fixed_point(self, rng, divergence):
        F, K, T = 8, 3, 10
        V0 = rng.uniform(0.5, 2.0, (F, K))
        H0 = rng.uniform(0.5, 2.0, (K, T))
        W = V0 @ H0
        V, H, trace = _run_updates(W, V0.copy(), H0.copy(), divergence, 1e-4, 3,
                                   update_v=True)
        assert np.allclose(V, V0, rtol=1e-6)
        assert np.allclose(H, H0, rtol=1e-6)
        assert trace[0] < 1e-9 * W.sum()

    @pytest.mark.parametrize("divergence", ["kl", "is"])
    def test_cost_monotone(self, rng, divergence):
        for trial in range(5):
            W = rng.lognormal(sigma=1.0, size=(12, 20))
            _, fit = nmf_fit(spec_of(W), 4, divergence, seed=trial, rel_tol=1e-7,
                             max_iters=200)
            trace = fit.cost_trace
            for a, b in zip(trace, trace[1:]):
                assert b <= a + 1e-10 * abs(a)

    def test_rank_one_exact_recovery(self, rng):
        col = rng.uniform(0.5, 2.0, 10)
        row = rng.uniform(0.5, 2.0, 15)
        W = np.outer(col, row)
        _, fit = nmf_fit(spec_of(W), 1, "kl", seed=3, rel_tol=1e-12, max_iters=2000)
        assert fit.cost_trace[-1] < 1e-8 * W.sum()

    def test_scale_invariance_of_cost_traces(self, rng):
        W = rng.lognormal(size=(10, 14))
        K = 3
        V0 = rng.uniform(0.1, 1.1, (10, K))
        H0 = rng.uniform(0.1, 1.1, (K, 14))
        d = np.array([0.5, 2.0, 1.25])
        _, _, trace_a = _run_updates(W, V0, H0, "kl", 1e-12, 60, update_v=True)
        _, _, trace_b = _run_updates(W, V0 * d, H0 / d[:, None], "kl", 1e-12, 60,
                                     update_v=True)
        assert np.allclose(trace_a, trace_b, rtol=1e-9)

    def test_zero_input_rejected(self):
        with pytest.raises(ValidationError):
            nmf_fit(spec_of(np.zeros((4, 4))), 2)

    def test_overcomplete_warns(self, rng, caplog):
        W = rng.lognormal(size=(4, 4))
        with caplog.at_level("WARNING", logger="pof.nmf"):
            nmf_fit(spec_of(W), 6, max_iters=5)
        assert any("overcomplete" in r.message for r in caplog.records)

    def test_nonnegativity_preserved(self, rng):
        W = rng.lognormal(size=(9, 13))
        model, fit = nmf_fit(spec_of(W), 4, "is", seed=1, max_iters=100)
        assert np.all(model.V >= 0)
        assert np.all(fit.H >= 0)


class TestRunUpdates:
    @pytest.mark.parametrize("update_v", [True, False])
    @pytest.mark.parametrize("divergence", ["kl", "is"])
    def test_matches_loop_that_reconstructs_for_every_cost(self, rng, divergence, update_v):
        # the multiplicative updates are bitwise those of the reference loop,
        # which forms V H afresh for every half-update and every cost; only
        # the rounding of the cost differs
        F, K, T = 24, 4, 60
        W = rng.lognormal(sigma=1.0, size=(F, T))
        W[rng.random((F, T)) < 0.2] = 0.0
        W[:, 3] = 0.0
        V0 = rng.uniform(0.1, 1.1, (F, K))
        H0 = rng.uniform(0.1, 1.1, (K, T))
        V, H, trace = _run_updates(W, V0.copy(), H0.copy(), divergence, 1e-6, 400,
                                   update_v=update_v)
        V_ref, H_ref, trace_ref = nmf_run_updates(W, V0.copy(), H0.copy(), divergence,
                                                  1e-6, 400, update_v=update_v)
        assert 10 < len(trace) < 401
        assert len(trace) == len(trace_ref)
        assert np.array_equal(V, V_ref) and np.array_equal(H, H_ref)
        np.testing.assert_allclose(trace, trace_ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("divergence", ["kl", "is"])
    def test_cost_is_the_loop_cost(self, rng, divergence):
        W = rng.lognormal(size=(9, 11))
        W[0] = 0.0
        V = rng.uniform(0.1, 1.1, (9, 3))
        H = rng.uniform(0.1, 1.1, (3, 11))
        _, _, trace = _run_updates(W, V, H, divergence, 1e-4, 0, update_v=True)
        assert trace == [_cost_of(W, divergence)(_reconstruct(V, H))]


class TestNmfEncode:
    def test_identity_mask_cost_comparable_to_joint_fit(self, rng):
        W = rng.lognormal(size=(10, 16))
        model, fit = nmf_fit(spec_of(W), 3, "kl", seed=5, rel_tol=1e-6, max_iters=400)
        mask = BandMask(np.arange(10))
        H = nmf_encode(W, model, mask, seed=6, rel_tol=1e-6)
        cost = _cost_of(W, "kl")
        joint = cost(_reconstruct(model.V, fit.H))
        encoded = cost(_reconstruct(model.V, H))
        assert encoded <= 1.1 * joint

    def test_duplicate_frames_give_identical_columns(self, rng):
        W = rng.lognormal(size=(8, 1))
        model, _ = nmf_fit(spec_of(W + rng.lognormal(size=(8, 1))), 2, seed=0,
                           max_iters=50)
        W6 = np.tile(W, (1, 6))
        mask = BandMask(np.arange(8))
        # columns are updated independently, so identical data + identical
        # (column-constant) init gives identical activation columns
        H0 = np.tile(np.full((2, 1), 0.7), (1, 6))
        _, H, _ = _run_updates(W6, mask.select(model.V, 8), H0, "kl", 1e-4, 100,
                               update_v=False)
        for t in range(1, 6):
            assert np.allclose(H[:, t], H[:, 0], rtol=1e-12)

    def test_fixed_point_unchanged(self, rng):
        F, K, T = 8, 2, 5
        V = rng.uniform(0.5, 2.0, (F, K))
        H_true = rng.uniform(0.5, 2.0, (K, T))
        W = V @ H_true
        model = NmfModel(V, "kl")
        mask = BandMask(np.arange(F))
        _, H, _ = _run_updates(W, mask.select(model.V, F), H_true.copy(), "kl", 1e-4, 4,
                               update_v=False)
        assert np.allclose(H, H_true, rtol=1e-8)


class TestNmfExpand:
    def test_identity_mask_is_plain_encode_reconstruction(self, rng):
        W = rng.lognormal(size=(8, 10))
        model, _ = nmf_fit(spec_of(W), 3, seed=2, max_iters=100)
        mask = BandMask(np.arange(8))
        out = nmf_expand(spec_of(W), model, mask, seed=3)
        assert np.array_equal(out.data, W)  # identity mask passes everything through

    def test_masked_reconstruction_beats_baseline(self, rng):
        # synthetic low-rank data with shared structure across bands
        F, K, T = 16, 3, 40
        V_true = rng.uniform(0.2, 2.0, (F, K))
        H_true = rng.uniform(0.0, 1.5, (K, T))
        train = V_true @ H_true + 0.01
        model, _ = nmf_fit(spec_of(train), K, seed=4, rel_tol=1e-6, max_iters=400)
        mask = BandMask(np.arange(4, 12))
        missing = BandMask(np.setdiff1d(np.arange(F), mask.kept))
        mean_spec = train.mean(axis=1)
        wins = 0
        trials = 10
        for s in range(trials):
            H_test = rng.uniform(0.0, 1.5, (K, 8))
            test = V_true @ H_test + 0.01
            test_spec = spec_of(test)
            out = nmf_expand(test_spec, model, mask, seed=s, rel_tol=1e-6)
            from pof import log_spectral_distance
            base = spec_of(np.tile(mean_spec[:, None], (1, 8)))
            wins += int(
                log_spectral_distance(out, test_spec, missing)
                < log_spectral_distance(base, test_spec, missing)
            )
        assert wins >= 7

    def test_zero_activations_zero_outside_mask(self, rng):
        V = rng.uniform(0.5, 1.0, (6, 2))
        model = NmfModel(V, "kl")
        mask = BandMask([2, 3])
        W_bl = np.zeros((2, 4))
        W_bl[:] = 1e-9  # nearly-zero observations drive H to ~0
        out = nmf_expand(spec_of(W_bl), model, mask, rel_tol=1e-12)
        outside = np.setdiff1d(np.arange(6), mask.kept)
        assert np.all(out.data[outside] < 1e-6)


class TestNmfSerialization:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(V=hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
                        elements=st.floats(0.0, 1e300)),
           divergence=st.sampled_from(["kl", "is"]), cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_round_trip(self, tmp_path, V, divergence, cut):
        # and a cut anywhere before the end is not a model file
        assume(np.all(V.sum(axis=0) > 0))
        path = tmp_path / "nmf.json"
        save_nmf_model(NmfModel(V, divergence), path)
        loaded = load_nmf_model(path)
        assert np.array_equal(loaded.V, V) and loaded.divergence == divergence
        blob = path.read_bytes().rstrip(b"\n")
        path.write_bytes(blob[:int(cut * len(blob))])
        with pytest.raises(DataFormatError):
            load_nmf_model(path)

    def test_validation(self):
        with pytest.raises(ValidationError):
            NmfModel(np.zeros((3, 2)), "kl")        # all-zero columns
        with pytest.raises(ValidationError):
            NmfModel(np.ones((3, 2)), "euclidean")  # unknown divergence
