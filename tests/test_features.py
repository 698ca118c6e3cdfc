"""Feature extraction: PoFC, MFCC, deltas, median smoothing, CSV round-trip."""

import importlib

import numpy as np
import pytest

from pof import (FeatureMatrix, PoFModel, Spectrogram, ValidationError, add_deltas,
                 infer_frames, load_features_csv, median_smooth, mfcc, pofc, sample,
                 save_features_csv)
from pof.features import dct_matrix, mel_filterbank
from conftest import random_model


def spec_of(data, kind="magnitude", sr=16000.0, n_fft=1024, hop=512):
    return Spectrogram(data, kind, sr, n_fft, hop)


class TestPofc:
    def test_uninformative_model_gives_prior_mean(self, rng):
        model = PoFModel(np.zeros((6, 3)), np.ones(3), np.ones(6))
        W = spec_of(rng.lognormal(size=(6, 8)))
        feat = pofc(infer_frames(W, model))
        assert feat.data.shape == (3, 8)
        assert np.allclose(feat.data, 1.0, atol=1e-5)
        assert feat.labels == ("pofc0", "pofc1", "pofc2")

    def test_nonnegative(self, rng):
        model = random_model(rng, 10, 3)
        spec, _ = sample(model, 12, seed=3)
        feat = pofc(infer_frames(spec, model))
        assert np.all(feat.data >= 0)

    def test_dominant_activation_discriminates(self, rng):
        # frames with one strong true activation: the matching feature row
        # should carry the largest within-frame z-score most of the time
        F, L, T = 32, 3, 60
        U = rng.normal(0.0, 0.8, size=(F, L))
        model = PoFModel(U, np.full(L, 2.0), np.full(F, 50.0))
        dominant = rng.integers(0, L, size=T)
        acts = np.full((L, T), 0.05)
        acts[dominant, np.arange(T)] = 2.0
        W = np.exp(U @ acts) * rng.gamma(50.0, 1 / 50.0, size=(F, T))
        # concentrated posteriors (nu in the thousands) are solved to
        # round-off, not stopped short of it
        results = infer_frames(spec_of(W), model)
        assert [r.status for r in results] == ["converged"] * T
        feat = pofc(results)
        z = (feat.data - feat.data.mean(axis=1, keepdims=True)) / (
            feat.data.std(axis=1, keepdims=True) + 1e-12
        )
        hits = np.mean(np.argmax(z, axis=0) == dominant)
        assert hits >= 0.8


class TestMfcc:
    def test_flat_spectrum_is_pure_dc(self):
        W = spec_of(np.full((513, 5), 2.5))
        feat = mfcc(W)
        assert feat.data.shape == (13, 5)
        assert np.allclose(feat.data[1:], 0.0, atol=1e-9)
        assert np.all(np.abs(feat.data[0]) > 0.1)

    def test_default_coefficient_count(self, rng):
        W = spec_of(rng.lognormal(size=(513, 4)))
        assert mfcc(W).data.shape[0] == 13

    def test_dct_orthonormal(self):
        C = dct_matrix(40)
        assert np.allclose(C @ C.T, np.eye(40), atol=1e-10)

    def test_filterbank_rows_normalized(self):
        fb = mel_filterbank(513, 16000.0, 1024, 40)
        assert fb.shape == (40, 513)
        assert np.allclose(fb.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(fb >= 0)

    def test_too_many_coeffs(self, rng):
        W = spec_of(rng.lognormal(size=(513, 4)))
        with pytest.raises(ValidationError):
            mfcc(W, n_coeffs=41, n_mels=40)

    def test_requires_magnitude(self, rng):
        W = spec_of(rng.lognormal(size=(513, 4)), kind="power")
        with pytest.raises(ValidationError):
            mfcc(W)


class TestAddDeltas:
    def test_constant_sequence(self):
        feat = FeatureMatrix(np.full((2, 6), 3.0), ("a", "b"))
        out = add_deltas(feat)
        assert out.data.shape == (6, 6)
        assert np.all(out.data[2:] == 0.0)
        assert out.labels == ("a", "b", "d_a", "d_b", "dd_a", "dd_b")

    def test_linear_ramp(self):
        c = 0.75
        feat = FeatureMatrix((c * np.arange(8))[None, :], ("x",))
        out = add_deltas(feat)
        assert np.allclose(out.data[1, 1:], c)
        assert out.data[1, 0] == 0.0
        assert np.allclose(out.data[2, 2:], 0.0)

    def test_matches_naive_shifted_subtraction(self, rng):
        x = rng.normal(size=(3, 10))
        out = add_deltas(FeatureMatrix(x, ("a", "b", "c")))
        naive_d = np.zeros_like(x)
        for t in range(1, 10):
            naive_d[:, t] = x[:, t] - x[:, t - 1]
        naive_dd = np.zeros_like(x)
        for t in range(1, 10):
            naive_dd[:, t] = naive_d[:, t] - naive_d[:, t - 1]
        assert np.array_equal(out.data[3:6], naive_d)
        assert np.array_equal(out.data[6:9], naive_dd)

    def test_double_application_keeps_original_rows(self, rng):
        x = rng.normal(size=(2, 7))
        once = add_deltas(FeatureMatrix(x, ("a", "b")))
        twice = add_deltas(once)
        assert np.array_equal(twice.data[:2], x)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            add_deltas(FeatureMatrix(np.ones((2, 2)), ("a", "b")))


def smooth_rows(x, length):
    """median_smooth of the rows of x, as an array."""
    x = np.atleast_2d(x)
    return median_smooth(FeatureMatrix(x, tuple(map(str, range(len(x))))), length).data


class TestMedianSmooth:
    def test_constant_unchanged(self):
        row = np.full(40, 1.5)
        assert np.array_equal(smooth_rows(row, 25), [row])

    def test_impulse_suppressed(self):
        row = np.zeros(60)
        row[30] = 100.0
        out = smooth_rows(row, 25)
        assert np.all(out == 0.0)

    def test_matches_sort_oracle(self, rng):
        row = rng.normal(size=50)
        out = smooth_rows(row, 7)[0]
        for t in range(50):
            lo, hi = max(0, t - 3), min(50, t + 4)
            window = sorted(row[lo:hi])
            n = len(window)
            med = window[n // 2] if n % 2 else 0.5 * (window[n // 2 - 1] + window[n // 2])
            assert out[t] == pytest.approx(med, abs=1e-12)

    @pytest.mark.parametrize("T,length", [(200, 25), (10, 25), (1, 25), (30, 1),
                                          (25, 25), (2, 3), (0, 5)])
    def test_matches_window_loop(self, rng, T, length):
        # T shorter than the window makes every window edge-truncated
        x = rng.normal(size=(3, T))
        half = length // 2
        want = np.empty_like(x)
        for t in range(T):
            want[:, t] = np.median(x[:, max(0, t - half):t + half + 1], axis=1)
        assert np.array_equal(smooth_rows(x, length), want)

    def test_no_rows(self):
        out = median_smooth(FeatureMatrix(np.zeros((0, 5)), ()), 3)
        assert out.data.shape == (0, 5) and out.labels == ()

    def test_blocks_match_one_block(self, rng, monkeypatch):
        x = rng.normal(size=(4, 300))
        whole = smooth_rows(x, 25)
        # blocks of one frame each, then of a few frames
        for size in (1, 8 * 4 * 25 * 7):
            monkeypatch.setattr(importlib.import_module("pof.features"),
                                "_SMOOTH_CHUNK_BYTES", size)
            assert np.array_equal(smooth_rows(x, 25), whole)

    def test_even_length_rejected(self):
        with pytest.raises(ValidationError):
            smooth_rows(np.zeros(10), 4)

    def test_feature_matrix_in_and_out(self, rng):
        feat = FeatureMatrix(rng.normal(size=(3, 30)), ("a", "b", "c"))
        out = median_smooth(feat, 5)
        assert isinstance(out, FeatureMatrix)
        assert out.labels == feat.labels

    def test_idempotent_on_long_constant_segments(self):
        row = np.concatenate([np.zeros(40), np.ones(40)])
        once = smooth_rows(row, 25)
        twice = smooth_rows(once, 25)
        assert np.array_equal(once, twice)


class TestCsv:
    def test_round_trip(self, rng, tmp_path):
        feat = FeatureMatrix(rng.normal(size=(4, 9)), ("a", "b", "c", "d"))
        path = tmp_path / "f.csv"
        save_features_csv(feat, path)
        loaded = load_features_csv(path)
        assert loaded.labels == feat.labels
        assert np.array_equal(loaded.data, feat.data)

    def test_header_layout(self, rng, tmp_path):
        feat = FeatureMatrix(rng.normal(size=(2, 3)), ("mfcc0", "mfcc1"))
        path = tmp_path / "f.csv"
        save_features_csv(feat, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "label,0,1,2"
        assert lines[1].startswith("mfcc0,")
        assert len(lines) == 3

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("label,0,1\na,1.0,2.0\nb,3.0\n")
        with pytest.raises(Exception, match="line 3"):
            load_features_csv(path)
