"""Audio ingestion, STFT analysis, band-limiting, and spectral distance.

Framing convention: no padding or centering; frame t covers samples
[t*hop, t*hop + n_fft), so T = floor((len - n_fft) / hop) + 1 and every
frame is fully interior. The window is the symmetric Hann
w[n] = 0.5 (1 - cos(2 pi n / (N - 1))).
"""

from __future__ import annotations

import wave
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, UnsupportedFormatError, ValidationError
from .model import BandMask, Spectrogram

__all__ = [
    "AudioClip",
    "StftConfig",
    "load_wav",
    "stft_magnitude",
    "stft_power",
    "band_mask",
    "log_spectral_distance",
]

# Pure guard against log10(0) in the distance; real pipelines floor their
# spectra long before this matters.
_LSD_GUARD = 1e-300


@dataclass(frozen=True)
class AudioClip:
    samples: np.ndarray     # in [-1, 1]
    sample_rate: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValidationError("samples must be a non-empty 1-D array")
        if not 0 < self.sample_rate < np.inf:
            raise ValidationError("sample_rate must be positive and finite")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class StftConfig:
    n_fft: int = 1024
    hop: int = 512

    def __post_init__(self):
        if self.n_fft <= 0 or not (0 < self.hop <= self.n_fft):
            raise ValidationError("need n_fft > 0 and 0 < hop <= n_fft")


def load_wav(path) -> AudioClip:
    """Read a 16-bit PCM mono RIFF/WAVE file, scaling samples by 1/32768."""
    try:
        wf = wave.open(str(path), "rb")
    except (wave.Error, EOFError) as exc:
        raise DataFormatError(f"cannot parse WAV file: {exc}") from exc
    with closing(wf):
        if wf.getcomptype() != "NONE":
            raise UnsupportedFormatError(
                f"compressed WAV ({wf.getcomptype()}) is not supported"
            )
        if wf.getnchannels() != 1:
            raise UnsupportedFormatError(
                f"only mono WAV is supported, got {wf.getnchannels()} channels"
            )
        if wf.getsampwidth() != 2:
            raise UnsupportedFormatError(
                f"only 16-bit PCM is supported, got {8 * wf.getsampwidth()}-bit"
            )
        n = wf.getnframes()
        raw = wf.readframes(n)
        if len(raw) < 2 * n:
            raise DataFormatError("truncated WAV data")
        samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
        if samples.size == 0:
            raise DataFormatError("WAV file contains no samples")
        return AudioClip(samples, float(wf.getframerate()))


def _frames(clip: AudioClip, cfg: StftConfig) -> np.ndarray:
    n = clip.samples.size
    if n < cfg.n_fft:
        raise ValidationError(
            f"clip has {n} samples, shorter than n_fft={cfg.n_fft}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(clip.samples, cfg.n_fft)
    return windows[:: cfg.hop]  # (T, n_fft)


def stft_magnitude(clip: AudioClip, cfg: StftConfig = StftConfig()) -> Spectrogram:
    """Magnitude STFT with F = n_fft/2 + 1 rows."""
    frames = _frames(clip, cfg)
    mag = np.abs(np.fft.rfft(frames * np.hanning(cfg.n_fft), axis=1)).T
    return Spectrogram(mag, "magnitude", clip.sample_rate, cfg.n_fft, cfg.hop)


def stft_power(clip: AudioClip, cfg: StftConfig = StftConfig()) -> Spectrogram:
    """Power STFT: elementwise square of the magnitude spectrogram."""
    mag = stft_magnitude(clip, cfg)
    return Spectrogram(mag.data**2, "power", clip.sample_rate, cfg.n_fft, cfg.hop)


def band_mask(F: int, sample_rate: float, n_fft: int, low: float, high: float) -> BandMask:
    """Bins whose center frequency f * sample_rate / n_fft lies in [low, high]."""
    if not (0 <= low < high <= sample_rate / 2):
        raise ValidationError("need 0 <= low < high <= sample_rate / 2")
    centers = np.arange(F) * (sample_rate / n_fft)
    kept = np.flatnonzero((centers >= low) & (centers <= high))
    if kept.size == 0:
        raise ValidationError(f"band [{low}, {high}] Hz keeps no bins")
    return BandMask(kept)


def log_spectral_distance(a: Spectrogram, b: Spectrogram, bins: BandMask | None = None) -> float:
    """RMS of 20 log10(a/b) in dB over the selected bins and all frames."""
    if a.data.shape != b.data.shape:
        raise ValidationError(
            f"shape mismatch: {a.data.shape} vs {b.data.shape}"
        )
    xa, xb = a.data, b.data
    if bins is not None:
        xa, xb = bins.select(xa, a.n_bins), bins.select(xb, a.n_bins)
    diff = 20.0 * np.log10(np.maximum(xa, _LSD_GUARD) / np.maximum(xb, _LSD_GUARD))
    return float(np.sqrt(np.mean(diff**2)))
