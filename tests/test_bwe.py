"""Bandwidth expansion: model restriction, the exp(E_q[log W]) estimate,
and the missing-band pipeline against a mean-log-spectrum baseline and
the estimate without the noise term."""

import numpy as np
import pytest
from scipy.special import digamma

from pof import (BandMask, PoFModel, Spectrogram, ValidationError, expand,
                 reconstruct_point, restrict_model, sample)
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


def noise_offset(gamma):
    """psi(gamma) - log gamma = E[log W_f | a] - (U a)_f, from scipy."""
    return digamma(gamma) - np.log(gamma)


class TestReconstructPoint:
    def test_zero_filters_give_noise_offset(self):
        gamma = np.array([0.5, 1.0, 2.0, 5.0, 40.0])
        model = PoFModel(np.zeros((5, 2)), np.ones(2), gamma)
        out = reconstruct_point(model, np.ones((2, 3)))
        assert out.shape == (5, 3)
        assert np.allclose(out, np.exp(noise_offset(gamma))[:, None], rtol=1e-12)

    def test_tiny_mean_activation_gives_noise_offset(self, rng):
        model = random_model(rng, 5, 2)
        out = reconstruct_point(model, np.full((2, 1), 1e-12))
        assert np.allclose(out[:, 0], np.exp(noise_offset(model.gamma)), rtol=1e-9)

    def test_concentrated_posterior_limit(self):
        # q concentrated at a = 1: the estimate is the geometric mean of W
        # under the model there, exp(mean log W) over many draws of W
        model = PoFModel(np.array([[0.8], [-0.4]]), np.ones(1), np.array([0.7, 3.0]))
        n = 200_000
        draws = np.random.default_rng(3).gamma(
            model.gamma[:, None], np.exp(model.U)[:, :1] / model.gamma[:, None], (2, n))
        log_w = np.log(draws)
        se = log_w.std(axis=1) / np.sqrt(n)
        est = np.log(reconstruct_point(model, np.ones((1, 1)))[:, 0])
        assert np.all(np.abs(est - log_w.mean(axis=1)) < 4 * se)

    def test_rejects_mean_of_wrong_shape(self, rng):
        model = random_model(rng, 4, 2)
        for mean in (np.ones(2), np.ones((3, 5))):
            with pytest.raises(ValidationError, match="mean activations"):
                reconstruct_point(model, mean)


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
        result = expand(spec, model, mask)
        assert np.array_equal(result.reconstructed.data, spec.data)
        direct = infer_frames(spec, model)
        for p, r in zip(result.posteriors, direct):
            assert np.array_equal(p.nu, r.posterior.nu)
            assert np.array_equal(p.rho, r.posterior.rho)

    def test_observed_rows_pass_through_with_partial_mask(self, rng):
        model, spec, _ = trained_toy(rng)
        mask = BandMask(np.arange(6, 18))
        result = expand(spec, model, mask)
        assert np.array_equal(result.reconstructed.data[mask.kept], spec.data[mask.kept])
        outside = np.setdiff1d(np.arange(model.n_bins), mask.kept)
        assert not np.array_equal(
            result.reconstructed.data[outside], spec.data[outside]
        )

    def test_accepts_pre_masked_rows(self, rng):
        model, spec, _ = trained_toy(rng)
        mask = BandMask(np.arange(6, 18))
        full = expand(spec, model, mask)
        masked_spec = Spectrogram(mask.select(spec.data, spec.n_bins), spec.kind,
                                  spec.sample_rate, spec.n_fft, spec.hop)
        pre = expand(masked_spec, model, mask)
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
            result = expand(test_spec, truth, mask)
            baseline = np.exp(mean_log)[:, None] * np.ones((1, 30))
            base_spec = Spectrogram(baseline, "magnitude", test_spec.sample_rate,
                                    test_spec.n_fft, test_spec.hop)
            lsd_pof = log_spectral_distance(result.reconstructed, test_spec, missing)
            lsd_base = log_spectral_distance(base_spec, test_spec, missing)
            wins += int(lsd_pof < lsd_base)
        assert wins >= int(0.9 * n_sent)

    def test_zero_progress_frame_falls_back_to_prior_mean(self, rng, monkeypatch):
        # a zero-progress frame keeps its start and a finite bound;
        # expand must still treat it as failed
        model, spec, _ = trained_toy(rng)
        mask = BandMask(np.arange(6, 18))
        real = infer_frames(spec.data[mask.kept], restrict_model(model, mask))
        stuck = FrameResult(real[2].posterior, real[2].elbo, ZERO_PROGRESS)
        assert np.isfinite(stuck.elbo)
        monkeypatch.setattr("pof.bwe.infer_frames",
                            lambda *args, **kwargs: real[:2] + [stuck] + real[3:])
        result = expand(spec, model, mask)
        assert result.statuses == [r.status for r in real[:2]] + [ZERO_PROGRESS] + [
            r.status for r in real[3:]]
        assert result.replaced == 1
        assert np.array_equal(result.posteriors[2].nu, model.alpha)
        assert np.array_equal(result.posteriors[2].rho, model.alpha)
        # the fallback is the same estimate at E[a] = 1
        prior_mean = reconstruct_point(model, np.ones((model.n_filters, spec.n_frames)))
        outside = np.setdiff1d(np.arange(model.n_bins), mask.kept)
        assert np.array_equal(result.reconstructed.data[outside, 2], prior_mean[outside, 2])
        for t in (0, 1, 3):
            assert np.array_equal(result.posteriors[t].nu, real[t].posterior.nu)

    def test_noise_term_lowers_missing_band_lsd(self, monkeypatch):
        # against exp(U E[a]), the estimate without psi(gamma) - log gamma;
        # bench-like noise, gamma ~ U(0.5, 5), where that term is large
        calls = []
        real = reconstruct_point
        monkeypatch.setattr("pof.bwe.reconstruct_point",
                            lambda *args: calls.append(1) or real(*args))
        F, L = 24, 3
        mask = BandMask(np.arange(5, 16))
        missing = BandMask(np.setdiff1d(np.arange(F), mask.kept))
        for seed in range(5):
            draw = np.random.default_rng(seed)
            model = PoFModel(draw.normal(0.0, 0.5, (F, L)), draw.uniform(0.8, 2.0, L),
                             draw.uniform(0.5, 5.0, F))
            spec, _ = sample(model, 60, seed=seed)
            result = expand(spec, model, mask)
            assert len(calls) == seed + 1  # one product for all frames
            mean = np.stack([p.nu / p.rho for p in result.posteriors], axis=1)
            plain = Spectrogram(np.exp(model.U @ mean), spec.kind, spec.sample_rate,
                                spec.n_fft, spec.hop)
            gain = (log_spectral_distance(plain, spec, missing)
                    - log_spectral_distance(result.reconstructed, spec, missing))
            assert gain > 0.2, f"seed {seed}: {gain:.3f} dB"
