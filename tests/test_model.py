"""Domain types, generative sampling, and serialization round-trips."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pof import (BandMask, DataFormatError, EmConfig, FramePosterior, ModelMeta, NmfModel,
                 PoFModel, Spectrogram, SufficientStats, ValidationError, fit,
                 floor_observations, infer_frames, load_model, load_spectrogram,
                 nmf_encode, nmf_fit, sample, save_model, save_spectrogram)
from pof.mstep import mstep
from conftest import random_feasible_posterior, random_model
from reference import expected_log_spectrum, grad_alpha, grad_gamma, grad_u_row, q_objective

# Round-trip fuzz: every example rewrites one file under tmp_path.
fuzz = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
finite = st.floats(-1e300, 1e300)
positive = st.floats(1e-300, 1e300)


def arrays(shape, elements):
    return hnp.arrays(float, shape, elements=elements)


@st.composite
def models(draw):
    F, L = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    meta = ModelMeta(draw(st.floats(1e-3, 1e9)), draw(st.integers(1, 2**20)),
                     draw(st.text(max_size=6)))
    return PoFModel(draw(arrays((F, L), finite)), draw(arrays(L, positive)),
                    draw(arrays(F, positive)), meta)


@st.composite
def spectrograms(draw):
    n_fft = draw(st.integers(1, 2**32 - 1))
    shape = hnp.array_shapes(min_dims=2, max_dims=2, max_side=5)
    return Spectrogram(draw(arrays(shape, st.floats(0.0, 1e300))),
                       draw(st.sampled_from(["magnitude", "power"])),
                       draw(st.floats(1e-3, 1e9)), n_fft, draw(st.integers(1, n_fft)))


class TestTypes:
    def test_model_validation(self):
        with pytest.raises(ValidationError):
            PoFModel(np.zeros((4, 2)), alpha=[1.0, -1.0], gamma=np.ones(4))
        with pytest.raises(ValidationError):
            PoFModel(np.zeros((4, 2)), alpha=[1.0, 1.0], gamma=np.ones(3))
        with pytest.raises(ValidationError):
            PoFModel(np.full((4, 2), np.inf), alpha=[1.0, 1.0], gamma=np.ones(4))
        with pytest.raises(ValidationError, match="F, L >= 1"):
            PoFModel(np.zeros((4, 0)), alpha=[], gamma=np.ones(4))      # L = 0
        with pytest.raises(ValidationError, match="F, L >= 1"):
            PoFModel(np.zeros((0, 2)), alpha=[1.0, 1.0], gamma=[])      # F = 0

    def test_model_is_immutable(self, rng):
        m = random_model(rng, 4, 2)
        with pytest.raises(ValueError):
            m.U[0, 0] = 5.0

    def test_posterior_validation(self):
        with pytest.raises(ValidationError):
            FramePosterior(nu=[1.0, 0.0], rho=[1.0, 1.0])
        with pytest.raises(ValidationError):
            FramePosterior(nu=[1.0], rho=[1.0, 1.0])

    def test_spectrogram_validation(self):
        with pytest.raises(ValidationError):
            Spectrogram(-np.ones((3, 2)), "magnitude", 16000, 1024, 512)
        with pytest.raises(ValidationError):
            Spectrogram(np.ones((3, 2)), "loudness", 16000, 1024, 512)
        with pytest.raises(ValidationError):
            Spectrogram(np.ones((3, 2)), "magnitude", 16000, 1024, 2048)
        with pytest.raises(ValidationError):
            Spectrogram(np.ones((3, 0)), "magnitude", 16000, 1024, 512)


# Every entry point that takes an observed spectrogram reads it through
# model.check_spectrum, alone (NMF) or inside floor_observations (PoF); so
# do Q and its gradients in tests/reference.py, through mstep's own check.
ENTRY_POINTS = ["floor_observations", "fit", "infer_frames", "mstep", "q_objective",
                "grad_u_row", "grad_alpha", "grad_gamma", "nmf_fit", "nmf_encode"]


def malformed_spectrum(rng, case):
    W = rng.lognormal(size=(6, 5))
    if case == "1-D":
        return W[:, 0]
    if case == "3-D":
        return W[:, :, None]
    W[2, 3] = {"negative": -3.0, "neg_inf": -np.inf, "nan": np.nan}[case]
    return W


@pytest.mark.parametrize("case", ["negative", "neg_inf", "nan", "1-D", "3-D"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_reject_malformed_spectra(rng, entry, case):
    model = random_model(rng, 6, 2)
    stats = SufficientStats.from_posteriors(
        [random_feasible_posterior(rng, model) for _ in range(5)])
    nmf = NmfModel(rng.uniform(0.1, 1.0, size=(6, 2)), "kl")
    call = {
        "floor_observations": floor_observations,
        "fit": lambda W: fit(W, EmConfig(L=2, max_em_iters=2)),
        "infer_frames": lambda W: infer_frames(W, model),
        "mstep": lambda W: mstep(W, model, stats),
        "q_objective": lambda W: q_objective(W, model, stats),
        "grad_u_row": lambda W: grad_u_row(0, W, model, stats),
        "grad_alpha": lambda W: grad_alpha(W, model, stats),
        "grad_gamma": lambda W: grad_gamma(W, model, stats),
        "nmf_fit": lambda W: nmf_fit(W, 2, max_iters=2),
        "nmf_encode": lambda W: nmf_encode(W, nmf, BandMask(np.arange(6))),
    }[entry]
    with pytest.raises(ValidationError):
        call(malformed_spectrum(rng, case))


@pytest.mark.parametrize("entry", ["sample", "nmf_fit"])
def test_entry_points_reject_negative_seed(rng, entry):
    # numpy's generators take no negative seed; the refusal is ours
    model = random_model(rng, 6, 2)
    W = rng.lognormal(size=(6, 5))
    call = {
        "sample": lambda: sample(model, 2, -1),
        "nmf_fit": lambda: nmf_fit(W, 1, "kl", seed=-1),
    }[entry]
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        call()


class TestSample:
    def test_activation_prior_mean(self, rng):
        model = random_model(rng, 2, 3)
        _, a = sample(model, 40000, seed=1)
        for l in range(3):
            se = a[l].std(ddof=1) / np.sqrt(a.shape[1])
            assert abs(a[l].mean() - 1.0) < 3 * se

    def test_activation_prior_variance(self, rng):
        model = random_model(rng, 2, 3)
        _, a = sample(model, 100000, seed=2)
        for l in range(3):
            al = model.alpha[l]
            target = 1.0 / al
            v = a[l].var(ddof=1)
            # var(s^2) ~ (mu4 - sigma^4)/n with mu4 = sigma^4 (3 + 6/alpha)
            se = target * np.sqrt((2.0 + 6.0 / al) / a.shape[1])
            assert abs(v - target) < 4 * se

    def test_observation_mean_given_activations(self, rng):
        # W / exp(U a) is Gamma(gamma_f, gamma_f) noise with unit mean
        model = random_model(rng, 5, 2)
        spec, a = sample(model, 20000, seed=3)
        noise = spec.data / np.exp(model.U @ a)
        se = noise.std(ddof=1) / np.sqrt(noise.size)
        assert abs(noise.mean() - 1.0) < 3 * se

    def test_zero_filters_unit_gamma_is_exponential(self):
        model = PoFModel(np.zeros((1, 2)), alpha=np.ones(2), gamma=np.ones(1))
        spec, _ = sample(model, 100000, seed=4)
        w = spec.data.ravel()
        assert abs(w.mean() - 1.0) < 3 * w.std(ddof=1) / np.sqrt(w.size)

    def test_deterministic(self, rng):
        model = random_model(rng, 4, 2)
        s1, a1 = sample(model, 50, seed=9)
        s2, a2 = sample(model, 50, seed=9)
        assert np.array_equal(s1.data, s2.data)
        assert np.array_equal(a1, a2)
        s3, _ = sample(model, 50, seed=10)
        assert not np.array_equal(s1.data, s3.data)


class TestExpectedLogSpectrum:
    def test_zero_activation(self, rng):
        model = random_model(rng, 6, 3)
        assert np.array_equal(expected_log_spectrum(model, np.zeros(3)), np.zeros(6))

    def test_one_hot_returns_column(self, rng):
        model = random_model(rng, 6, 3)
        e1 = np.array([0.0, 1.0, 0.0])
        assert np.allclose(expected_log_spectrum(model, e1), model.U[:, 1], atol=0)

    def test_matches_naive_loops(self, rng):
        model = random_model(rng, 7, 4)
        a = rng.uniform(0.0, 2.0, size=4)
        naive = np.zeros(7)
        for f in range(7):
            for l in range(4):
                naive[f] += model.U[f, l] * a[l]
        assert np.allclose(expected_log_spectrum(model, a), naive, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        model = random_model(rng, 6, 3)
        with pytest.raises(ValidationError):
            expected_log_spectrum(model, np.zeros(4))


class TestModelSerialization:
    def test_file_bytes(self, tmp_path):
        # the exact bytes of a small model file: one line, json's spacing,
        # floats by repr
        model = PoFModel(np.array([[0.5, -1.0]]), np.array([1.0, 2.0]), np.array([3.0]),
                         ModelMeta(8000.0, 256, "test"))
        path = tmp_path / "m.json"
        save_model(model, path)
        assert path.read_bytes() == (
            b'{"format": "pof-model", "version": 1, "F": 1, "L": 2, "U": [[0.5, -1.0]], '
            b'"alpha": [1.0, 2.0], "gamma": [3.0], '
            b'"meta": {"sample_rate": 8000.0, "n_fft": 256, "created_by": "test"}}\n')

    @fuzz
    @given(model=models(), cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_round_trip(self, tmp_path, model, cut):
        # and a cut anywhere before the end is not a model file
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.U, model.U)
        assert np.array_equal(loaded.alpha, model.alpha)
        assert np.array_equal(loaded.gamma, model.gamma)
        assert loaded.meta == model.meta
        blob = path.read_bytes().rstrip(b"\n")
        path.write_bytes(blob[:int(cut * len(blob))])
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_negative_alpha_rejected(self, rng, tmp_path):
        model = random_model(rng, 4, 2)
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["alpha"][0] = -1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="alpha"):
            load_model(path)

    def test_dimension_mismatch_rejected(self, rng, tmp_path):
        model = random_model(rng, 4, 2)
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["U"] = doc["U"][:3]  # drop a row; gamma no longer matches
        path.write_text(json.dumps(doc))
        with pytest.raises((ValidationError, DataFormatError), match="U"):
            load_model(path)

    def test_missing_field_named(self, rng, tmp_path):
        model = random_model(rng, 4, 2)
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        del doc["gamma"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="gamma"):
            load_model(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            load_model(path)


class TestSpectrogramSerialization:
    @fuzz
    @given(spec=spectrograms(), cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_round_trip_bit_identical(self, tmp_path, spec, cut):
        # and a cut anywhere before the end is not a POFS file
        path = tmp_path / "s.pofs"
        save_spectrogram(spec, path)
        loaded = load_spectrogram(path)
        assert np.array_equal(loaded.data, spec.data)
        assert (loaded.kind, loaded.sample_rate, loaded.n_fft, loaded.hop) == (
            spec.kind, spec.sample_rate, spec.n_fft, spec.hop)
        blob = path.read_bytes()
        path.write_bytes(blob[:int(cut * len(blob))])
        with pytest.raises(DataFormatError):
            load_spectrogram(path)

    def test_truncated_file(self, rng, tmp_path):
        spec = Spectrogram(rng.lognormal(size=(4, 4)), "magnitude", 16000, 1024, 512)
        path = tmp_path / "s.pofs"
        save_spectrogram(spec, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-9])
        with pytest.raises(DataFormatError, match="truncated"):
            load_spectrogram(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        # a header that understates F * T would otherwise load a cropped spectrogram
        path = tmp_path / "s.pofs"
        save_spectrogram(Spectrogram(np.ones((2, 2)), "magnitude", 16000, 1024, 512), path)
        path.write_bytes(path.read_bytes() + bytes(7))
        with pytest.raises(DataFormatError, match="7 bytes after its payload"):
            load_spectrogram(path)

    def test_negative_entry_rejected(self, rng, tmp_path):
        spec = Spectrogram(np.ones((2, 2)), "magnitude", 16000, 1024, 512)
        path = tmp_path / "s.pofs"
        save_spectrogram(spec, path)
        blob = bytearray(path.read_bytes())
        blob[-8:] = np.array([-1.0]).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError):
            load_spectrogram(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.pofs"
        path.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(DataFormatError, match="magic"):
            load_spectrogram(path)
