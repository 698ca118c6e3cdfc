"""Frame-level feature extraction: activation features, MFCCs, deltas,
and median smoothing."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataFormatError, ValidationError
from .model import Spectrogram

__all__ = [
    "FeatureMatrix",
    "pofc",
    "mfcc",
    "add_deltas",
    "median_smooth",
    "save_features_csv",
    "load_features_csv",
]

_MEL_LOG_FLOOR = 1e-12
# median_smooth sorts its windows in blocks of frames of about this many bytes
_SMOOTH_CHUNK_BYTES = 4 << 20


@dataclass(frozen=True)
class FeatureMatrix:
    """D x T feature matrix with one label per feature row."""

    data: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        labels = tuple(self.labels)
        if data.ndim != 2:
            raise ValidationError("feature data must be 2-D (features x frames)")
        if not np.all(np.isfinite(data)):
            raise ValidationError("feature entries must be finite")
        if len(labels) != data.shape[0]:
            raise ValidationError(
                f"{len(labels)} labels for {data.shape[0]} feature rows"
            )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "labels", labels)


def pofc(results) -> FeatureMatrix:
    """PoFC features: the posterior-mean activations E[a_t] of frames
    inferred by infer_frames, as an L x T matrix with one column per frame."""
    data = np.column_stack([r.posterior.mean() for r in results])
    return FeatureMatrix(data, tuple(f"pofc{l}" for l in range(data.shape[0])))


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


def mel_filterbank(n_bins: int, sample_rate: float, n_fft: int, n_mels: int) -> np.ndarray:
    """Triangular mel filters from 0 Hz to Nyquist, each normalized to unit sum.

    Unit-sum normalization makes a flat input spectrum produce identical
    energies in every band, so its cepstrum is a pure DC coefficient.
    """
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2))
    centers = np.arange(n_bins) * (sample_rate / n_fft)
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (centers - lo) / max(mid - lo, 1e-9)
        down = (hi - centers) / max(hi - mid, 1e-9)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
        total = fb[m].sum()
        if total > 0:
            fb[m] /= total
    return fb


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix of size n x n."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    mat = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * j + 1) / (2 * n))
    mat[0] = np.sqrt(1.0 / n)
    return mat


def mfcc(W: Spectrogram, n_coeffs: int = 13, n_mels: int = 40) -> FeatureMatrix:
    """Mel-frequency cepstral coefficients of a magnitude spectrogram.

    Mel-scale log-energies (HTK mel scale, triangular filters up to
    Nyquist) followed by an orthonormal DCT-II, keeping the first
    n_coeffs coefficients.
    """
    if W.kind != "magnitude":
        raise ValidationError("mfcc expects a magnitude spectrogram")
    if n_coeffs > n_mels:
        raise ValidationError(f"n_coeffs={n_coeffs} must not exceed n_mels={n_mels}")
    fb = mel_filterbank(W.n_bins, W.sample_rate, W.n_fft, n_mels)
    energies = fb @ W.data
    log_e = np.log(np.maximum(energies, _MEL_LOG_FLOOR))
    coeffs = (dct_matrix(n_mels) @ log_e)[:n_coeffs]
    return FeatureMatrix(coeffs, tuple(f"mfcc{i}" for i in range(n_coeffs)))


def add_deltas(feat: FeatureMatrix) -> FeatureMatrix:
    """Append first- and second-order frame differences (3D x T output).

    delta_t = x_t - x_{t-1} with delta_0 = 0; the second order repeats the
    same rule on the deltas.
    """
    if feat.data.shape[1] < 3:
        raise ValidationError("need at least 3 frames for delta features")

    def diff(x):
        out = np.zeros_like(x)
        out[:, 1:] = x[:, 1:] - x[:, :-1]
        return out

    d = diff(feat.data)
    dd = diff(d)
    labels = (
        feat.labels
        + tuple(f"d_{l}" for l in feat.labels)
        + tuple(f"dd_{l}" for l in feat.labels)
    )
    return FeatureMatrix(np.vstack([feat.data, d, dd]), labels)


def median_smooth(feat: FeatureMatrix, length: int = 25) -> FeatureMatrix:
    """Per-row sliding median of a feature matrix, with edge-truncated
    windows. length must be odd.
    """
    if length < 1 or length % 2 == 0:
        raise ValidationError("median filter length must be a positive odd number")
    rows = feat.data
    half = length // 2
    n_rows, T = rows.shape
    # Window t of the NaN-padded rows holds the n_t = min(T, t + half + 1) -
    # max(0, t - half) entries of the edge-truncated window; sorting puts the
    # NaN padding last, so the median is the middle of the first n_t entries.
    # Frames are sorted in blocks so the sorted copy stays near
    # _SMOOTH_CHUNK_BYTES whatever T is.
    padded = np.pad(rows, ((0, 0), (half, half)), constant_values=np.nan)
    t = np.arange(T)
    n = np.minimum(T, t + half + 1) - np.maximum(0, t - half)
    lo, hi = (n - 1) // 2, n // 2
    out = np.empty_like(rows)
    block = max(1, _SMOOTH_CHUNK_BYTES // (8 * max(1, n_rows) * length))
    for a in range(0, T, block):
        b = min(T, a + block)
        ordered = np.sort(sliding_window_view(padded[:, a:b + 2 * half], length, axis=1),
                          axis=2)
        k = np.arange(b - a)
        out[:, a:b] = (ordered[:, k, lo[a:b]] + ordered[:, k, hi[a:b]]) / 2
    return FeatureMatrix(out, feat.labels)


def save_features_csv(feat: FeatureMatrix, path) -> None:
    """CSV layout: header "label,0,1,..."; one row per feature, one column
    per frame, feature label in the first cell."""
    T = feat.data.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [str(t) for t in range(T)])
        for label, row in zip(feat.labels, feat.data):
            writer.writerow([label] + [repr(float(v)) for v in row])


def load_features_csv(path) -> FeatureMatrix:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows or not rows[0] or rows[0][0] != "label":
        raise DataFormatError("feature CSV must start with a 'label,...' header row")
    width = len(rows[0])
    labels = []
    data = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise DataFormatError(f"feature CSV line {i}: expected {width} cells, got {len(row)}")
        labels.append(row[0])
        try:
            data.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise DataFormatError(f"feature CSV line {i}: {exc}") from exc
    if not data:
        raise DataFormatError("feature CSV has no data rows")
    return FeatureMatrix(np.asarray(data), tuple(labels))
