"""End-to-end checks of `pof` subcommands through cli.main on tiny files."""

import functools
import json
import math
import os
import struct
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

import pof
from pof import (ModelMeta, NmfModel, PoFModel, Spectrogram, band_mask, load_features_csv,
                 load_model, load_nmf_model, load_spectrogram, log_spectral_distance, mfcc,
                 sample, save_model, save_nmf_model, save_spectrogram)
from pof import cli
from pof.cli import main
from pof.estep import FrameResult, infer_frames
from conftest import huge_bin_problem

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


def test_removed_config_key_is_exit_2(rng, tmp_path, capsys):
    # the E-step has no thread pool and no solver settings any more
    config = tmp_path / "pof.cfg"
    config.write_text("threads=4\n")
    spec = write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, 3)))
    assert main(["train", spec, "--config", str(config), "-o", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'threads'" in err
    assert "valid keys: K, L, divergence, high_hz, hop, low_hz" in err


def test_synth_seed_flag_over_config_file(rng, tmp_path):
    model = PoFModel(rng.normal(0.0, 0.3, size=(F, 2)), np.ones(2), np.full(F, 2.0))
    save_model(model, tmp_path / "model.json")
    config = tmp_path / "pof.cfg"
    config.write_text("seed=3\n")
    out = str(tmp_path / "synth.pofs")
    argv = ["synth", "-m", str(tmp_path / "model.json"), "-T", "4",
            "--config", str(config), "-o", out]
    for extra, seed in (([], 3), (["--seed", "5"], 5)):
        assert main(argv + extra) == 0
        assert np.array_equal(load_spectrogram(out).data, sample(model, 4, seed)[0].data)


def test_features_n_mfcc_flag_over_config_file(rng, tmp_path):
    # n_mels has no flag: only the file sets it
    spec = write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, 5)))
    config = tmp_path / "pof.cfg"
    config.write_text("n_mfcc=5\nn_mels=20\n")
    out = str(tmp_path / "feat.csv")
    argv = ["features", spec, "--mfcc", "--config", str(config), "-o", out]
    for extra, n_coeffs in (([], 5), (["--n-mfcc", "7"], 7)):
        assert main(argv + extra) == 0
        want = mfcc(load_spectrogram(spec), n_coeffs=n_coeffs, n_mels=20)
        assert np.array_equal(load_features_csv(out).data, want.data)


_NUMPY_ONLY_PIPELINE = """
import sys
sys.modules["scipy"] = None
sys.modules["hypothesis"] = None
import numpy as np
from pof import ModelMeta, PoFModel, save_model
from pof.cli import main

out = sys.argv[1] + "/"
rng = np.random.default_rng(0)
save_model(PoFModel(rng.normal(0.0, 0.3, (9, 2)), np.ones(2), np.full(9, 2.0),
                    ModelMeta(sample_rate=8000.0, n_fft=16)), out + "true.json")
for argv in (["synth", "-m", out + "true.json", "-T", "12", "-o", out + "in.pofs"],
             ["train", out + "in.pofs", "-L", "2", "--max-iters", "2", "-o", out + "m.json"],
             ["encode", out + "in.pofs", "-m", out + "m.json", "-o", out + "post.json"],
             ["bwe", out + "in.pofs", "-m", out + "m.json", "-o", out + "bwe.pofs"],
             ["features", out + "in.pofs", "-m", out + "m.json", "-o", out + "feat.csv"]):
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
"""


def test_pipeline_runs_on_numpy_alone(tmp_path):
    # pyproject declares numpy as the only dependency; scipy and hypothesis
    # are installed for the tests, so an import of either would pass unseen
    src = str(Path(pof.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", _NUMPY_ONLY_PIPELINE, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "feat.csv").exists()


def write_wav(path, samples):
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(int(RATE))
        fh.writeframes(pcm.tobytes())
    return str(path)


# The tiny models have one filter or atom and one-decimal values, so that
# their files are short: the truncation test runs main once per prefix.
def write_tiny_model(path, rng, sample_rate=RATE):
    save_model(PoFModel(np.round(rng.normal(0.0, 0.3, size=(F, 1)), 1), np.ones(1),
                        np.full(F, 2.0), ModelMeta(sample_rate=sample_rate, n_fft=N_FFT)), path)
    return str(path)


def write_tiny_nmf_model(path, rng):
    save_nmf_model(NmfModel(np.round(rng.uniform(0.1, 1.0, size=(F, 1)), 1), "kl"), path)
    return str(path)


def test_bwe_on_wav_matches_stft_then_bwe(rng, tmp_path):
    # a WAV is analysed at the model's n_fft with hop n_fft/2, as `pof stft` would
    model = write_tiny_model(tmp_path / "model.json", rng)
    wav = write_wav(tmp_path / "in.wav", 0.3 * rng.normal(size=8 * 21))
    spec = str(tmp_path / "in.pofs")
    assert main(["bwe", wav, "-m", model, "-o", str(tmp_path / "wav.pofs")]) == 0
    assert main(["stft", wav, "--n-fft", str(N_FFT), "--hop", str(N_FFT // 2),
                 "-o", spec]) == 0
    assert main(["bwe", spec, "-m", model, "-o", str(tmp_path / "pofs.pofs")]) == 0
    assert (tmp_path / "wav.pofs").read_bytes() == (tmp_path / "pofs.pofs").read_bytes()


def test_bwe_on_wav_at_another_rate_is_exit_2(rng, tmp_path, capsys):
    model = write_tiny_model(tmp_path / "model.json", rng, sample_rate=2 * RATE)
    wav = write_wav(tmp_path / "in.wav", 0.3 * rng.normal(size=8 * 21))
    assert main(["bwe", wav, "-m", model, "-o", str(tmp_path / "out.pofs")]) == 2
    err = capsys.readouterr().err
    assert "clip sample rate 8000 Hz does not match the model's 16000 Hz" in err


@pytest.mark.parametrize("rate, n_fft, message", [
    (RATE, N_FFT, "spectrogram sample rate 8000 Hz does not match the model's 16000 Hz"),
    (2 * RATE, 2 * N_FFT, "spectrogram n_fft 32 is not the model's 16"),
], ids=["rate", "n_fft"])
def test_bwe_on_spectrogram_at_another_framing_is_exit_2(rng, tmp_path, capsys, rate, n_fft,
                                                         message):
    # F bins that do not lie at the model's frequencies: the band's rows
    # would be the wrong ones, and the output would carry the input's rate
    model = write_tiny_model(tmp_path / "model.json", rng, sample_rate=2 * RATE)
    spec = tmp_path / "in.pofs"
    save_spectrogram(Spectrogram(rng.lognormal(size=(F, 3)), "magnitude", rate, n_fft,
                                 n_fft // 2), spec)
    assert main(["bwe", str(spec), "-m", model, "-o", str(tmp_path / "out.pofs")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.pofs").exists()


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


def test_train_on_a_huge_bin_exits_zero(tmp_path):
    # a frame whose Newton system is singular ends with a status, not a
    # traceback
    spec = write_spec(tmp_path / "in.pofs", huge_bin_problem(1e100)[0])
    assert main(["train", spec, "-L", "2", "--max-iters", "3",
                 "-o", str(tmp_path / "m.json")]) == 0


def test_train_logs_frame_status_counts(rng, tmp_path, capsys):
    # every EM iteration's stderr line counts the E-step's frames by status
    # and gives the spread of the PX-EM factors, the filters' mean activations
    T = 12
    spec = write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, T)))
    assert main(["train", spec, "-L", "2", "--max-iters", "3",
                 "-o", str(tmp_path / "m.json")]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("iter=")]
    assert len(lines) >= 2
    statuses = ("converged", "max_iters", "line_search_failed", "zero_progress",
                "failed_start")
    for line in lines:
        fields = dict(item.split("=", 1) for item in line.split())
        counts = {name: int(fields[name]) for name in statuses}
        assert sum(counts.values()) == T
        assert counts["converged"] == T
        assert 0.0 < float(fields["scale_min"]) <= float(fields["scale_max"]) < math.inf


def test_encode_and_bwe_log_frame_status_counts(rng, tmp_path, capsys, monkeypatch):
    # each command's stderr line ends with the frame-status counts; bwe's
    # also says how many frames took the prior mean
    T = 6
    model = PoFModel(rng.normal(0.0, 0.3, size=(F, 2)), np.ones(2), np.full(F, 2.0),
                     ModelMeta(sample_rate=RATE, n_fft=N_FFT))
    save_model(model, tmp_path / "model.json")
    spec = write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, T)))
    argv = {"encode": ["encode", spec, "-m", str(tmp_path / "model.json"),
                       "-o", str(tmp_path / "post.json")],
            "bwe": ["bwe", spec, "-m", str(tmp_path / "model.json"),
                    "-o", str(tmp_path / "out.pofs")]}
    statuses = ("converged", "max_iters", "line_search_failed", "zero_progress",
                "failed_start")

    def counts(command):
        assert main(argv[command]) == 0
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("wrote ")
        fields = dict(item.split("=", 1) for item in line.split() if "=" in item)
        assert list(fields)[-len(statuses):] == list(statuses)
        return {name: int(value) for name, value in fields.items()}

    for command in argv:
        got = counts(command)
        assert got["converged"] == T and sum(got[s] for s in statuses) == T
    assert got["prior_mean"] == 0

    # a frame that made no progress is counted, and replaced by the prior mean
    def stuck(*args, **kwargs):
        first, *rest = infer_frames(*args, **kwargs)
        return [FrameResult(first.posterior, first.elbo, "zero_progress"), *rest]

    monkeypatch.setattr("pof.bwe.infer_frames", stuck)
    got = counts("bwe")
    assert (got["prior_mean"], got["zero_progress"], got["converged"]) == (1, 1, T - 1)


def test_features_logs_frame_status_counts(rng, tmp_path, capsys):
    # the PoFC path's stderr line ends with the counts of its frames by
    # status; MFCCs infer no frames and count none
    T = 5
    model = PoFModel(rng.normal(0.0, 0.3, size=(F, 2)), np.ones(2), np.full(F, 2.0),
                     ModelMeta(sample_rate=RATE, n_fft=N_FFT))
    save_model(model, tmp_path / "model.json")
    spec = write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, T)))
    out = str(tmp_path / "feat.csv")
    statuses = ("converged", "max_iters", "line_search_failed", "zero_progress",
                "failed_start")
    assert main(["features", spec, "-m", str(tmp_path / "model.json"), "-o", out]) == 0
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"wrote {out} (2 features x {T} frames) ")
    fields = dict(item.split("=", 1) for item in line.split() if "=" in item)
    assert list(fields) == list(statuses)
    assert int(fields["converged"]) == T and sum(int(v) for v in fields.values()) == T
    assert main(["features", spec, "--mfcc", "-o", out]) == 0
    (line,) = capsys.readouterr().err.splitlines()
    assert line.endswith(" frames)") and "=" not in line


@pytest.mark.parametrize("command, rel_tol", [("train", "nan"), ("nmf-train", "-1")])
def test_bad_rel_tol_is_exit_2(rng, tmp_path, capsys, command, rel_tol):
    spec = write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, 3)))
    assert main([command, spec, "--rel-tol", rel_tol, "-o", str(tmp_path / "m.json")]) == 2
    assert "rel_tol must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train"],
    # bwe has one estimator and no --mode
    ["bwe", "in.pofs", "-m", "model.json", "--mode", "mgf", "-o", "out.pofs"],
], ids=["train_without_inputs", "bwe_mode"])
def test_usage_error_is_exit_1(argv):
    assert main(argv) == 1


def every_prefix_is_exit_2(tmp_path, blob, argv):
    """main(argv) with {bad} naming each strict prefix of blob in turn."""
    bad = tmp_path / "bad"
    for n in range(len(blob)):
        bad.write_bytes(blob[:n])
        assert main([a.format(bad=bad) for a in argv]) == 2, f"prefix of {n} bytes"


def test_truncated_inputs_are_exit_2(rng, tmp_path, capsys, monkeypatch):
    # building the parser is nine tenths of a failing call; build it once
    monkeypatch.setattr(cli, "build_parser", functools.lru_cache(cli.build_parser))
    model = write_tiny_model(tmp_path / "model.json", rng)
    spec = write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, 1)))
    out = str(tmp_path / "out")
    # a model file ends in a newline; the prefix without it is a whole document
    model_doc = (tmp_path / "model.json").read_bytes().rstrip(b"\n")
    every_prefix_is_exit_2(tmp_path, model_doc, ["synth", "-m", "{bad}", "-T", "1", "-o", out])
    every_prefix_is_exit_2(tmp_path, (tmp_path / "in.pofs").read_bytes(),
                           ["bwe", "{bad}", "-m", model, "-o", out])
    write_tiny_nmf_model(tmp_path / "nmf.json", rng)
    every_prefix_is_exit_2(tmp_path, (tmp_path / "nmf.json").read_bytes().rstrip(b"\n"),
                           ["nmf-bwe", spec, "-m", "{bad}", "-o", out])
    assert all(line.startswith("pof: ") for line in capsys.readouterr().err.splitlines())


# case id -> (format, field, malformed value, part of the error message)
MALFORMED = {
    "meta_list": ("pof-model", "meta", [1], "'meta' must be a JSON object"),
    "meta_n_fft_text": ("pof-model", "meta", {"n_fft": "abc"}, "malformed 'meta'"),
    "meta_n_fft_inf": ("pof-model", "meta", {"n_fft": 1e400}, "malformed 'meta'"),
    "meta_rate_nan": ("pof-model", "meta", {"sample_rate": np.nan}, "finite sample_rate"),
    "F_text": ("pof-model", "F", "9", "'F' must be a non-negative integer"),
    "L_float": ("pof-model", "L", 1.0, "'L' must be a non-negative integer"),
    "U_text": ("pof-model", "U", [["0.5"]] * F, "'U' is not a numeric array"),
    "alpha_bool": ("pof-model", "alpha", [True], "'alpha' is not a numeric array"),
    "gamma_ragged": ("pof-model", "gamma", [[1.0]] * (F - 1) + [[1.0, 2.0]], "'gamma' is not"),
    "version": ("pof-model", "version", 2, "unsupported pof-model version 2"),
    "K_negative": ("pof-nmf", "K", -1, "'K' must be a non-negative integer"),
    "V_null": ("pof-nmf", "V", [[None]] * F, "'V' is not a numeric array"),
    "divergence_list": ("pof-nmf", "divergence", ["kl"], "divergence must be one of"),
}


@pytest.mark.parametrize("fmt, field, value, message", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_model_field_is_exit_2(rng, tmp_path, capsys, fmt, field, value, message):
    spec = write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, 2)))
    path = tmp_path / "model.json"
    if fmt == "pof-model":
        argv = ["synth", "-m", write_tiny_model(path, rng), "-T", "1", "-o", str(tmp_path / "out")]
    else:
        argv = ["nmf-bwe", spec, "-m", write_tiny_nmf_model(path, rng), "-o", str(tmp_path / "out")]
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("pof: ") and message in err


def test_model_without_filters_is_exit_2(rng, tmp_path, capsys):
    # an L=0 model file is well formed, but no frame can be inferred under it
    spec = write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, 2)))
    path = tmp_path / "model.json"
    doc = json.loads(Path(write_tiny_model(path, rng)).read_text())
    doc.update(L=0, U=[[]] * F, alpha=[])
    path.write_text(json.dumps(doc))
    for command in ("encode", "bwe", "features"):
        assert main([command, spec, "-m", str(path), "-o", str(tmp_path / "out")]) == 2
        assert "model file invalid: U must be a 2-D array with F, L >= 1" in (
            capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("offset, field, message", [
    (9, struct.pack("<I", 0), "non-empty"),      # T = 0 frames
    (14, struct.pack("<d", np.nan), "sample_rate must be positive and finite"),
], ids=["no_frames", "nan_sample_rate"])
def test_malformed_pofs_header_is_exit_2(rng, tmp_path, capsys, offset, field, message):
    # the header follows the 4-byte magic and the version byte: F, T, kind, rate
    path = tmp_path / "in.pofs"
    write_spec(path, rng.lognormal(size=(F, 2)))
    blob = bytearray(path.read_bytes())
    blob[offset:offset + len(field)] = field
    path.write_bytes(bytes(blob))
    assert main(["bwe", str(path), "-m", write_tiny_model(tmp_path / "m.json", rng),
                 "-o", str(tmp_path / "out.pofs")]) == 2
    assert message in capsys.readouterr().err


SUBCOMMANDS = ["stft", "train", "encode", "bwe", "nmf-train", "nmf-bwe", "features",
               "eval-lsd", "synth"]


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_subcommand_help_is_exit_0(capsys, subcommand):
    assert main([subcommand, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: pof {subcommand} ")


# subcommand that draws random numbers -> its argv on the files of _seed_paths
SEEDED = {
    "synth": ["synth", "-m", "{model}", "-T", "2", "-o", "{out}"],
    "train": ["train", "{spec}", "-L", "1", "--max-iters", "1", "-o", "{out}"],
    "nmf-train": ["nmf-train", "{spec}", "-K", "1", "-o", "{out}"],
}

# subcommands that draw no random number -> their argv; inference starts
# every frame, and NMF encoding every activation, at one fixed point
UNSEEDED = {
    "stft": ["stft", "{wav}", "--n-fft", str(N_FFT), "--hop", str(N_FFT // 2), "-o", "{out}"],
    "encode": ["encode", "{spec}", "-m", "{model}", "-o", "{out}"],
    "bwe": ["bwe", "{spec}", "-m", "{model}", "-o", "{out}"],
    "features": ["features", "{spec}", "-m", "{model}", "-o", "{out}"],
    "eval-lsd": ["eval-lsd", "{spec}", "{spec}"],
    "nmf-bwe": ["nmf-bwe", "{spec}", "-m", "{nmf}", "-o", "{out}"],
}


def _seed_paths(tmp_path, rng):
    return {"model": write_tiny_model(tmp_path / "model.json", rng),
            "nmf": write_tiny_nmf_model(tmp_path / "nmf.json", rng),
            "spec": write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, 3))),
            "wav": write_wav(tmp_path / "in.wav", 0.3 * rng.normal(size=8 * 5)),
            "out": str(tmp_path / "out")}


@pytest.mark.parametrize("subcommand", [*SEEDED, *UNSEEDED])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_negative_seed_is_refused(rng, tmp_path, capsys, subcommand, source):
    # numpy's generators take no negative seed; a config file's seed= line
    # is valid for every subcommand and checked by every one, and --seed -1
    # is refused by the flag's type where the flag exists; the refusal
    # comes before any input is read
    paths = _seed_paths(tmp_path, rng)
    (tmp_path / "pof.cfg").write_text("seed=-1\n")
    argv = [a.format(**paths) for a in {**SEEDED, **UNSEEDED}[subcommand]]
    if source == "file":
        code, message = 2, "pof: config line 1: expected a non-negative integer, got '-1'"
        argv += ["--config", str(tmp_path / "pof.cfg")]
    else:
        code, message = 1, ("argument --seed: invalid non_negative_int value: '-1'"
                            if subcommand in SEEDED else "unrecognized arguments: --seed -1")
        argv += ["--seed", "-1"]
    assert main(argv) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _outputs(argv, out, capsys):
    """The exit code, stdout and output file bytes of one main call."""
    code = main(argv)
    return code, capsys.readouterr().out, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("subcommand", [*SEEDED, *UNSEEDED])
def test_seed_flag_only_where_random_numbers_are_drawn(rng, tmp_path, capsys, subcommand):
    # --seed 0 and a config file's seed= line are accepted where a random
    # number is drawn and change nothing at the default; elsewhere the flag
    # is refused and the file's seed= line changes nothing
    paths = _seed_paths(tmp_path, rng)
    seeded = subcommand in SEEDED
    argv = [a.format(**paths) for a in (SEEDED if seeded else UNSEEDED)[subcommand]]
    (tmp_path / "pof.cfg").write_text(f"seed={0 if seeded else 1}\n")
    plain = _outputs(argv, tmp_path / "out", capsys)
    assert plain[0] == 0
    assert _outputs(argv + ["--config", str(tmp_path / "pof.cfg")],
                    tmp_path / "out", capsys) == plain
    if seeded:
        assert _outputs(argv + ["--seed", "0"], tmp_path / "out", capsys) == plain
    else:
        assert main(argv + ["--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: pof {subcommand} ")
        assert f"pof {subcommand}: error: unrecognized arguments: --seed 1" in err


def test_mfcc_without_coefficients_is_exit_2(rng, tmp_path, capsys):
    # a header-only CSV would be refused by load_features_csv
    spec = write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, 3)))
    out = tmp_path / "feat.csv"
    assert main(["features", spec, "--mfcc", "--n-mfcc", "0", "-o", str(out)]) == 2
    assert "n_coeffs=0 and n_mels=40 must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_features_without_model_or_mfcc_is_exit_2(rng, tmp_path, capsys):
    spec = write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, 3)))
    assert main(["features", spec, "-o", str(tmp_path / "feat.csv")]) == 2
    assert "features needs -m MODEL or --mfcc" in capsys.readouterr().err


def test_train_on_two_inputs_matches_one_concatenated(rng, tmp_path):
    data = rng.lognormal(size=(F, 12))
    a = write_spec(tmp_path / "a.pofs", data[:, :5])
    b = write_spec(tmp_path / "b.pofs", data[:, 5:])
    ab = write_spec(tmp_path / "ab.pofs", data)
    settings = ["-L", "2", "--max-iters", "2"]
    assert main(["train", a, b, *settings, "-o", str(tmp_path / "two.json")]) == 0
    assert main(["train", ab, *settings, "-o", str(tmp_path / "one.json")]) == 0
    assert (tmp_path / "two.json").read_bytes() == (tmp_path / "one.json").read_bytes()


@pytest.mark.parametrize("command", ["train", "nmf-train"])
@pytest.mark.parametrize("field, value", [("data", np.ones((F + 1, 3))), ("kind", "power"),
                                          ("sample_rate", 2 * RATE), ("n_fft", 2 * N_FFT),
                                          ("hop", N_FFT // 4)],
                         ids=["bins", "kind", "rate", "n_fft", "hop"])
def test_training_inputs_that_disagree_are_exit_2(tmp_path, capsys, command, field, value):
    framing = {"data": np.ones((F, 3)), "kind": "magnitude", "sample_rate": RATE,
               "n_fft": N_FFT, "hop": N_FFT // 2}
    save_spectrogram(Spectrogram(**framing), tmp_path / "a.pofs")
    save_spectrogram(Spectrogram(**{**framing, field: value}), tmp_path / "b.pofs")
    out = tmp_path / "m.json"
    assert main([command, str(tmp_path / "a.pofs"), str(tmp_path / "b.pofs"),
                 "-o", str(out)]) == 2
    assert "training inputs disagree" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_with_comments_and_blank_lines(rng, tmp_path):
    spec = write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, 6)))
    config = tmp_path / "pof.cfg"
    config.write_text("# a small fit\n\n  L = 1   # one filter\n\t\nmax_em_iters=2\n# seed=9\n")
    assert main(["train", spec, "--config", str(config), "-o", str(tmp_path / "file.json")]) == 0
    assert main(["train", spec, "-L", "1", "--max-iters", "2",
                 "-o", str(tmp_path / "flags.json")]) == 0
    assert (tmp_path / "file.json").read_bytes() == (tmp_path / "flags.json").read_bytes()


@pytest.mark.parametrize("line, message", [
    ("L", "config line 3: expected key=value, got 'L'"),
    ("L=abc", "config line 3: invalid literal for int() with base 10: 'abc'"),
], ids=["no_equals", "not_an_int"])
def test_malformed_config_line_is_exit_2(rng, tmp_path, capsys, line, message):
    spec = write_spec(tmp_path / "in.pofs", rng.lognormal(size=(F, 3)))
    config = tmp_path / "pof.cfg"
    config.write_text(f"# settings\n\n{line}\n")
    assert main(["train", spec, "--config", str(config), "-o", str(tmp_path / "m.json")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags, band", [
    ([], None), (["--low", "400"], (400.0, 2000.0)), (["--high", "3400"], (1000.0, 3400.0)),
    (["--low", "400", "--high", "3400"], (400.0, 3400.0)),
], ids=["none", "low", "high", "both"])
def test_eval_lsd_band_only_from_flags(rng, tmp_path, capsys, flags, band):
    # the file's edges never switch the band on, but fill in the edge the
    # flags leave out
    a = write_spec(tmp_path / "a.pofs", rng.lognormal(size=(F, 4)))
    b = write_spec(tmp_path / "b.pofs", rng.lognormal(size=(F, 4)))
    config = tmp_path / "pof.cfg"
    config.write_text("low_hz=1000\nhigh_hz=2000\n")
    assert main(["eval-lsd", a, b, "--config", str(config), *flags]) == 0
    mask = band_mask(F, RATE, N_FFT, *band) if band else None
    want = log_spectral_distance(load_spectrogram(a), load_spectrogram(b), mask)
    assert float(capsys.readouterr().out) == want
