"""Bandwidth expansion: model restriction, reconstruction modes, and the
missing-band pipeline against a mean-log-spectrum baseline."""

import numpy as np
import pytest

from pof import (BandMask, FramePosterior, NumericalError, PoFModel,
                 Spectrogram, ValidationError, expand, reconstruct_point,
                 restrict_model, sample)
from pof.dsp import log_spectral_distance
from pof.estep import FrameResult, infer_frames
from pof.optim import ZERO_PROGRESS
from conftest import random_model


class TestRestrictModel:
    def test_identity(self, rng):
        model = random_model(rng, 8, 3)
        sub = restrict_model(model, BandMask(np.arange(8)))
        assert np.array_equal(sub.U, model.U)
        assert np.array_equal(sub.gamma, model.gamma)
        assert np.array_equal(sub.alpha, model.alpha)

    def test_singleton(self, rng):
        model = random_model(rng, 8, 3)
        sub = restrict_model(model, BandMask([0]))
        assert sub.U.shape == (1, 3)
        assert sub.gamma.shape == (1,)
        assert np.array_equal(sub.alpha, model.alpha)

    def test_idempotent(self, rng):
        model = random_model(rng, 8, 3)
        once = restrict_model(model, BandMask([1, 4, 6]))
        twice = restrict_model(once, BandMask(np.arange(3)))
        assert np.array_equal(once.U, twice.U)

    def test_out_of_range(self, rng):
        model = random_model(rng, 8, 3)
        for kept in ([8], [0, 3, 9]):
            with pytest.raises(ValidationError, match="out of range"):
                restrict_model(model, BandMask(kept))


class TestReconstructPoint:
    def test_zero_filters_give_ones(self):
        model = PoFModel(np.zeros((5, 2)), np.ones(2), np.ones(5))
        post = FramePosterior(np.ones(2), np.ones(2))
        assert np.allclose(reconstruct_point(model, post, "log_domain"), 1.0)
        assert np.allclose(reconstruct_point(model, post, "mgf"), 1.0)

    def test_tiny_mean_activation_gives_ones(self, rng):
        model = random_model(rng, 5, 2)
        post = FramePosterior(np.full(2, 1e-12), np.ones(2))
        assert np.allclose(reconstruct_point(model, post, "log_domain"), 1.0, atol=1e-9)

    def test_concentrated_posterior_limit(self):
        # nu = rho -> infinity: both modes converge to exp(U * 1)
        model = PoFModel(np.array([[0.8], [-0.4]]), np.ones(1), np.ones(2))
        post = FramePosterior(np.full(1, 1e6), np.full(1, 1e6))
        target = np.exp(model.U[:, 0])
        assert np.allclose(reconstruct_point(model, post, "log_domain"), target, rtol=1e-4)
        assert np.allclose(reconstruct_point(model, post, "mgf"), target, rtol=1e-4)

    def test_jensen_ordering(self, rng):
        for _ in range(20):
            model = random_model(rng, 6, 3)
            nu = rng.uniform(0.5, 5.0, 3)
            rho = np.full(3, model.U.max() + rng.uniform(0.5, 2.0))
            post = FramePosterior(nu, rho)
            log_dom = reconstruct_point(model, post, "log_domain")
            mgf = reconstruct_point(model, post, "mgf")
            assert np.all(mgf >= log_dom - 1e-12)

    def test_mgf_infeasibility_names_entry(self):
        model = PoFModel(np.array([[0.2], [2.5]]), np.ones(1), np.ones(2))
        post = FramePosterior(np.ones(1), np.ones(1))
        with pytest.raises(NumericalError, match=r"U\[1,0\]"):
            reconstruct_point(model, post, "mgf")

    def test_bad_mode(self, rng):
        model = random_model(rng, 4, 2)
        post = FramePosterior(np.ones(2), np.ones(2))
        with pytest.raises(ValidationError):
            reconstruct_point(model, post, "average")


def trained_toy(rng, F=24, L=3, T=120, seed=5):
    """A synthetic truth model plus data drawn from it."""
    U = rng.normal(0.0, 0.5, size=(F, L))
    model = PoFModel(U, rng.uniform(0.8, 2.0, L), np.full(F, 40.0))
    spec, acts = sample(model, T, seed=seed)
    return model, spec, acts


class TestExpand:
    def test_identity_mask_passthrough_and_posteriors(self, rng):
        model, spec, _ = trained_toy(rng)
        mask = BandMask(np.arange(model.n_bins))
        result = expand(spec, model, mask, seed=9)
        assert np.array_equal(result.reconstructed.data, spec.data)
        direct = infer_frames(spec, model, seed=9)
        for p, r in zip(result.posteriors, direct):
            assert np.array_equal(p.nu, r.posterior.nu)
            assert np.array_equal(p.rho, r.posterior.rho)

    def test_observed_rows_pass_through_with_partial_mask(self, rng):
        model, spec, _ = trained_toy(rng)
        mask = BandMask(np.arange(6, 18))
        result = expand(spec, model, mask, seed=1)
        assert np.array_equal(result.reconstructed.data[mask.kept], spec.data[mask.kept])
        outside = np.setdiff1d(np.arange(model.n_bins), mask.kept)
        assert not np.array_equal(
            result.reconstructed.data[outside], spec.data[outside]
        )

    def test_accepts_pre_masked_rows(self, rng):
        model, spec, _ = trained_toy(rng)
        mask = BandMask(np.arange(6, 18))
        full = expand(spec, model, mask, seed=1)
        masked_spec = Spectrogram(mask.select(spec.data, spec.n_bins), spec.kind,
                                  spec.sample_rate, spec.n_fft, spec.hop)
        pre = expand(masked_spec, model, mask, seed=1)
        assert np.array_equal(full.reconstructed.data, pre.reconstructed.data)

    def test_wrong_bin_count_rejected(self, rng):
        model, spec, _ = trained_toy(rng)
        mask = BandMask(np.arange(6, 18))
        bad = Spectrogram(spec.data[:10], spec.kind, spec.sample_rate, spec.n_fft, spec.hop)
        with pytest.raises(ValidationError):
            expand(bad, model, mask)

    def test_beats_mean_spectrum_baseline_on_missing_band(self, rng):
        # speaker-independent toy version of the telephone-band experiment
        truth, train, _ = trained_toy(rng, F=24, L=3, T=200, seed=11)
        mask = BandMask(np.arange(5, 16))
        missing = BandMask(np.setdiff1d(np.arange(24), mask.kept))
        mean_log = np.log(np.maximum(train.data, 1e-12)).mean(axis=1)

        wins = 0
        n_sent = 12
        for s in range(n_sent):
            test_spec, _ = sample(truth, 30, seed=100 + s)
            result = expand(test_spec, truth, mask, seed=s)
            baseline = np.exp(mean_log)[:, None] * np.ones((1, 30))
            base_spec = Spectrogram(baseline, "magnitude", test_spec.sample_rate,
                                    test_spec.n_fft, test_spec.hop)
            lsd_pof = log_spectral_distance(result.reconstructed, test_spec, missing)
            lsd_base = log_spectral_distance(base_spec, test_spec, missing)
            wins += int(lsd_pof < lsd_base)
        assert wins >= int(0.9 * n_sent)

    def test_zero_progress_frame_falls_back_to_prior_mean(self, rng, monkeypatch):
        # a zero-progress frame keeps its random start and a finite bound;
        # expand must still treat it as failed
        model, spec, _ = trained_toy(rng)
        mask = BandMask(np.arange(6, 18))
        real = infer_frames(spec.data[mask.kept], restrict_model(model, mask), seed=1)
        stuck = FrameResult(real[2].posterior, real[2].elbo, ZERO_PROGRESS)
        assert np.isfinite(stuck.elbo)
        monkeypatch.setattr("pof.bwe.infer_frames",
                            lambda *args, **kwargs: real[:2] + [stuck] + real[3:])
        result = expand(spec, model, mask, seed=1)
        assert result.statuses == [r.status for r in real[:2]] + [ZERO_PROGRESS] + [
            r.status for r in real[3:]]
        assert result.replaced == 1
        assert np.array_equal(result.posteriors[2].nu, model.alpha)
        assert np.array_equal(result.posteriors[2].rho, model.alpha)
        prior_mean = reconstruct_point(model, FramePosterior(model.alpha, model.alpha))
        outside = np.setdiff1d(np.arange(model.n_bins), mask.kept)
        assert np.array_equal(result.reconstructed.data[outside, 2], prior_mean[outside])
        for t in (0, 1, 3):
            assert np.array_equal(result.posteriors[t].nu, real[t].posterior.nu)
