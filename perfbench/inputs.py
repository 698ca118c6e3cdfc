"""Benchmark inputs: one fixed true model and spectrogram batches drawn from it.

The true model is the same on every run (F=129 bins for n_fft=256 at
16 kHz, L=20 filters, U ~ N(0, 0.3^2), alpha ~ U(0.5, 3),
gamma ~ U(0.5, 5)). Spectrograms are drawn with ``pof.sample``, so the
inputs never depend on the inference code under test.

Two kinds of batch are drawn:

* seeded batches, from the run's ``--seed``: they feed the workload the
  run is named after;
* reference batches, from a fixed seed: they feed the other two pipelines,
  which every run also executes so that it reports every end-to-end metric
  (see README.md for why they do not vary with the seed).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import pof

N_BINS = 129
N_FILTERS = 20
SAMPLE_RATE = 16000.0
N_FFT = 256
HOP = 128
LOW_HZ = 400.0
HIGH_HZ = 3400.0

# The true model is the one a seed-0 draw gives; it does not follow --seed.
TRUE_MODEL_SEED = 0
# Entropy tags that keep every stream of random numbers apart.
_SEEDED = 1
_REFERENCE = 0
ROLE_ENCODE = 1
ROLE_TRAIN = 2
ROLE_BWE = 3
ROLE_NMF_TRAIN = 4


def true_model() -> pof.PoFModel:
    """The fixed generating model every input is drawn from."""
    rng = np.random.default_rng(TRUE_MODEL_SEED)
    U = rng.normal(0.0, 0.3, size=(N_BINS, N_FILTERS))
    alpha = rng.uniform(0.5, 3.0, size=N_FILTERS)
    gamma = rng.uniform(0.5, 5.0, size=N_BINS)
    return pof.PoFModel(U, alpha, gamma, pof.ModelMeta(SAMPLE_RATE, N_FFT, "perfbench"))


def band() -> tuple[pof.BandMask, pof.BandMask]:
    """(observed, missing) bins of the 400-3400 Hz telephone band."""
    kept = pof.band_mask(N_BINS, SAMPLE_RATE, N_FFT, LOW_HZ, HIGH_HZ)
    missing = np.setdiff1d(np.arange(N_BINS), kept.kept)
    return kept, pof.BandMask(missing)


def audio_seconds(n_frames: int) -> float:
    """Duration of the audio an n_frames STFT with this framing covers."""
    return ((n_frames - 1) * HOP + N_FFT) / SAMPLE_RATE


def _draw(model: pof.PoFModel, n_frames: int, entropy) -> pof.Spectrogram:
    sample_seed = int(np.random.SeedSequence(entropy).generate_state(1)[0])
    spec, _ = pof.sample(model, n_frames, sample_seed)
    return pof.Spectrogram(spec.data, "magnitude", SAMPLE_RATE, N_FFT, HOP)


def seeded_batch(model, role: int, seed: int, index: int, n_frames: int) -> pof.Spectrogram:
    """Batch ``index`` of a workload's inputs for ``--seed seed``."""
    return _draw(model, n_frames, [_SEEDED, int(seed), role, int(index)])


def reference_batch(model, role: int, n_frames: int) -> pof.Spectrogram:
    """The fixed batch a pipeline runs on when it is not the run's workload."""
    return _draw(model, n_frames, [_REFERENCE, role])


@dataclass
class Batch:
    """One operation's input: the spectrogram and, for CLI pipelines, its file."""

    spec: pof.Spectrogram
    path: str | None = None


@dataclass
class Inputs:
    model: pof.PoFModel
    model_path: str
    encode: list[Batch]
    train: list[Batch]
    bwe: list[Batch]
    nmf_train_path: str


@dataclass(frozen=True)
class Plan:
    """Frames per batch, and the most batches a pipeline may run."""

    frames: int
    batches: int


def make_inputs(workdir: str, workload: str, seed: int, plans: dict[str, Plan],
                nmf_train_frames: int) -> Inputs:
    """Draw every batch the run uses and write the files the CLI reads.

    The pipeline named by ``workload`` gets seeded batches; the others get
    one reference batch each. The NMF baseline always trains on a reference
    batch.
    """
    model = true_model()
    os.makedirs(workdir, exist_ok=True)
    model_path = os.path.join(workdir, "true_model.json")
    pof.save_model(model, model_path)

    def batches(name, role):
        plan = plans[name]
        if name == workload:
            return [seeded_batch(model, role, seed, k, plan.frames) for k in range(plan.batches)]
        return [reference_batch(model, role, plan.frames)]

    bwe = []
    for k, spec in enumerate(batches("bwe", ROLE_BWE)):
        path = os.path.join(workdir, f"bwe_{k}.pofs")
        pof.save_spectrogram(spec, path)
        bwe.append(Batch(spec, path))
    nmf_train_path = os.path.join(workdir, "nmf_train.pofs")
    pof.save_spectrogram(reference_batch(model, ROLE_NMF_TRAIN, nmf_train_frames),
                         nmf_train_path)
    return Inputs(model, model_path, [Batch(s) for s in batches("encode", ROLE_ENCODE)],
                  [Batch(s) for s in batches("train", ROLE_TRAIN)], bwe, nmf_train_path)
