"""End-to-end checks of `pof` subcommands through cli.main on tiny files."""

import json
import wave

import numpy as np
import pytest

from pof import (ModelMeta, PoFModel, Spectrogram, band_mask, load_features_csv,
                 load_model, load_nmf_model, load_spectrogram, log_spectral_distance,
                 save_model, save_spectrogram)
from pof.cli import main

RATE, N_FFT, F = 8000.0, 16, 9


def write_spec(path, data):
    save_spectrogram(Spectrogram(np.asarray(data, dtype=float), "magnitude",
                                 RATE, N_FFT, N_FFT // 2), path)
    return str(path)


def load_strict_json(path):
    """json.load that rejects NaN and +-Infinity, as strict parsers do."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


@pytest.mark.parametrize("band", [[], ["--low", "400", "--high", "3400"]],
                         ids=["full", "band"])
def test_eval_lsd(rng, tmp_path, capsys, band):
    a = write_spec(tmp_path / "a.pofs", rng.lognormal(size=(F, 4)))
    b = write_spec(tmp_path / "b.pofs", rng.lognormal(size=(F, 4)))
    assert main(["eval-lsd", a, b, *band]) == 0
    mask = band_mask(F, RATE, N_FFT, 400.0, 3400.0) if band else None
    want = log_spectral_distance(load_spectrogram(a), load_spectrogram(b), mask)
    assert float(capsys.readouterr().out) == pytest.approx(want, rel=1e-12)


def test_bwe_dump_is_strict_json(rng, tmp_path):
    model = PoFModel(rng.normal(0.0, 0.3, size=(F, 2)), np.ones(2), np.full(F, 2.0),
                     ModelMeta(sample_rate=RATE, n_fft=N_FFT))
    save_model(model, tmp_path / "model.json")
    spec = write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, 3)))
    dump = tmp_path / "post.json"
    assert main(["bwe", spec, "-m", str(tmp_path / "model.json"),
                 "-o", str(tmp_path / "out.pofs"), "--dump-posteriors", str(dump)]) == 0
    doc = load_strict_json(dump)
    assert [d["frame"] for d in doc] == [0, 1, 2]
    assert all(d["elbo"] is None for d in doc)  # bwe records no bound


def test_failed_encode_frame_dump_is_strict_json(tmp_path):
    # 80 filters all at U = -50: the default initial posterior sits just
    # inside the barrier, so its reconstruction overflows and the frame fails
    L = 80
    save_model(PoFModel(np.full((2, L), -50.0), np.ones(L), np.ones(2)),
               tmp_path / "model.json")
    spec = write_spec(tmp_path / "in.pofs", np.ones((2, 1)))
    dump = tmp_path / "post.json"
    assert main(["encode", spec, "-m", str(tmp_path / "model.json"),
                 "-o", str(dump)]) == 0
    (record,) = load_strict_json(dump)
    assert record["elbo"] is None
    assert all(isinstance(v, float) for v in record["nu"] + record["rho"])


def test_mgf_infeasible_bwe_is_exit_3(rng, tmp_path, capsys):
    # bin 0 (0 Hz) is outside the 400-3400 Hz band, so inference never sees
    # U[0, 0] = 50; the mgf estimate needs U < rho there and cannot have it
    U = rng.normal(0.0, 0.3, size=(F, 2))
    U[0, 0] = 50.0
    save_model(PoFModel(U, np.ones(2), np.full(F, 2.0),
                        ModelMeta(sample_rate=RATE, n_fft=N_FFT)), tmp_path / "model.json")
    spec = write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, 3)))
    assert main(["bwe", spec, "-m", str(tmp_path / "model.json"), "--mode", "mgf",
                 "-o", str(tmp_path / "out.pofs")]) == 3
    assert capsys.readouterr().err.startswith(
        "pof: numerical failure: mgf reconstruction infeasible")


def test_removed_config_key_is_exit_2(rng, tmp_path, capsys):
    # the E-step has no thread pool and no solver settings any more
    config = tmp_path / "pof.cfg"
    config.write_text("threads=4\n")
    spec = write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, 3)))
    assert main(["train", spec, "--config", str(config), "-o", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'threads'" in err
    assert "valid keys: K, L, divergence, high_hz, hop, low_hz" in err


def write_wav(path, samples):
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(int(RATE))
        fh.writeframes(pcm.tobytes())
    return str(path)


def test_subcommands_smoke(rng, tmp_path):
    # stft -> train -> features / synth, and nmf-train, on a 20-frame clip
    t = np.arange(8 * 21) / RATE
    clip = 0.5 * np.sin(2 * np.pi * 1000.0 * t) + 0.05 * rng.normal(size=t.size)
    wav = write_wav(tmp_path / "in.wav", clip)
    spec = str(tmp_path / "in.pofs")
    model = str(tmp_path / "model.json")
    assert main(["stft", wav, "--n-fft", str(N_FFT), "--hop", str(N_FFT // 2),
                 "-o", spec]) == 0
    assert load_spectrogram(spec).n_bins == F
    assert main(["train", spec, "-L", "2", "--max-iters", "2", "-o", model]) == 0
    fitted = load_model(model)
    assert fitted.U.shape == (F, 2) and np.all(np.isfinite(fitted.U))
    assert main(["nmf-train", spec, "-K", "2", "-o", str(tmp_path / "nmf.json")]) == 0
    assert load_nmf_model(tmp_path / "nmf.json").K == 2
    feats = tmp_path / "feat.csv"
    assert main(["features", spec, "-m", model, "--deltas", "--smooth",
                 "--median-length", "3", "-o", str(feats)]) == 0
    assert load_features_csv(feats).data.shape == (6, load_spectrogram(spec).n_frames)
    synth = str(tmp_path / "synth.pofs")
    assert main(["synth", "-m", model, "-T", "5", "-o", synth]) == 0
    assert load_spectrogram(synth).data.shape == (F, 5)


@pytest.mark.parametrize("argv", [["stft", "{missing}", "-o", "{out}"],
                                  ["train", "{missing}", "-o", "{out}"],
                                  ["nmf-train", "{missing}", "-o", "{out}"],
                                  ["features", "{missing}", "--mfcc", "-o", "{out}"],
                                  ["synth", "-m", "{missing}", "-T", "3", "-o", "{out}"]],
                         ids=["stft", "train", "nmf-train", "features", "synth"])
def test_missing_input_is_exit_2(tmp_path, argv):
    paths = {"missing": str(tmp_path / "missing"), "out": str(tmp_path / "out")}
    assert main([a.format(**paths) for a in argv]) == 2


def test_usage_error_is_exit_1():
    assert main(["train"]) == 1
