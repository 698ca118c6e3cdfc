"""Core domain types, generative sampling, and on-disk formats.

A PoFModel holds the free parameters of the product-of-filters model:
U (F x L log-filters, unconstrained sign), per-filter sparsity shapes
alpha, and per-frequency noise shapes gamma. The generative story is

    a_lt  ~ Gamma(alpha_l, alpha_l)                      (activations)
    W_ft  ~ Gamma(gamma_f, gamma_f / exp(sum_l U_fl a_lt))

so E[a_lt] = 1 and E[W_ft | a_t] = exp(sum_l U_fl a_lt).

Models serialize to a versioned JSON document; spectrograms to the
binary POFS format (magic "POFS", little-endian header, column-major
float64 payload so frames are contiguous).
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataFormatError, ValidationError

__all__ = [
    "ModelMeta",
    "PoFModel",
    "FramePosterior",
    "Spectrogram",
    "check_spectrum",
    "BandMask",
    "sample",
    "save_model",
    "load_model",
    "save_spectrogram",
    "load_spectrogram",
]

MODEL_FORMAT = "pof-model"
MODEL_VERSION = 1
POFS_MAGIC = b"POFS"
POFS_VERSION = 1
_POFS_HEADER = struct.Struct("<IIBdII")  # F, T, kind, sample_rate, n_fft, hop
_KIND_TO_CODE = {"magnitude": 1, "power": 2}
_CODE_TO_KIND = {v: k for k, v in _KIND_TO_CODE.items()}


def _freeze(obj, name: str, value: np.ndarray) -> None:
    value = np.array(value, dtype=float)
    value.flags.writeable = False
    object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class ModelMeta:
    sample_rate: float = 16000.0
    n_fft: int = 1024
    created_by: str = "pof"

    def __post_init__(self):
        if not 0 < self.sample_rate < np.inf or self.n_fft < 1:
            raise ValidationError("meta needs a positive finite sample_rate and n_fft >= 1")


@dataclass(frozen=True)
class PoFModel:
    """Free parameters of the product-of-filters model (immutable)."""

    U: np.ndarray          # (F, L) log-filters
    alpha: np.ndarray      # (L,)  sparsity shapes
    gamma: np.ndarray      # (F,)  noise shapes
    meta: ModelMeta = field(default_factory=ModelMeta)

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        if U.ndim != 2:
            raise ValidationError("U must be a 2-D array")
        if alpha.ndim != 1 or alpha.shape[0] != U.shape[1]:
            raise ValidationError(
                f"alpha length {alpha.shape} does not match U columns {U.shape[1]}"
            )
        if gamma.ndim != 1 or gamma.shape[0] != U.shape[0]:
            raise ValidationError(
                f"gamma length {gamma.shape} does not match U rows {U.shape[0]}"
            )
        if not np.all(np.isfinite(U)):
            raise ValidationError("U must be finite")
        if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0):
            raise ValidationError("alpha must be positive and finite")
        if not np.all(np.isfinite(gamma)) or np.any(gamma <= 0):
            raise ValidationError("gamma must be positive and finite")
        _freeze(self, "U", U)
        _freeze(self, "alpha", alpha)
        _freeze(self, "gamma", gamma)

    @property
    def n_bins(self) -> int:
        return self.U.shape[0]

    @property
    def n_filters(self) -> int:
        return self.U.shape[1]


@dataclass(frozen=True)
class FramePosterior:
    """Variational gamma parameters (nu, rho) over one frame's activations."""

    nu: np.ndarray   # (L,)
    rho: np.ndarray  # (L,)

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        if nu.shape != rho.shape or nu.ndim != 1:
            raise ValidationError("nu and rho must be 1-D arrays of equal length")
        if not np.all(np.isfinite(nu)) or np.any(nu <= 0):
            raise ValidationError("nu must be positive and finite")
        if not np.all(np.isfinite(rho)) or np.any(rho <= 0):
            raise ValidationError("rho must be positive and finite")
        _freeze(self, "nu", nu)
        _freeze(self, "rho", rho)

    def mean(self) -> np.ndarray:
        """Posterior mean activations E[a] = nu / rho."""
        return self.nu / self.rho


@dataclass(frozen=True)
class BandMask:
    """Sorted, distinct frequency-bin indices retained in a band-limited view."""

    kept: np.ndarray  # (n,) int

    def __post_init__(self):
        kept = np.asarray(self.kept, dtype=np.intp)
        if kept.ndim != 1 or kept.size == 0:
            raise ValidationError("mask must keep at least one bin")
        if np.any(kept < 0) or np.any(np.diff(kept) <= 0):
            raise ValidationError("mask indices must be non-negative and strictly increasing")
        kept.flags.writeable = False
        object.__setattr__(self, "kept", kept)

    @property
    def size(self) -> int:
        return int(self.kept.size)

    def select(self, data: np.ndarray, n_bins: int) -> np.ndarray:
        """The masked rows of data, which holds either all n_bins rows or
        exactly the masked ones; the mask must fit n_bins."""
        if int(self.kept[-1]) >= n_bins:
            raise ValidationError(f"mask index {int(self.kept[-1])} out of range for F={n_bins}")
        if data.shape[0] == n_bins:
            return data[self.kept]
        if data.shape[0] == self.size:
            return data
        raise ValidationError(f"input has {data.shape[0]} bins; expected {n_bins} "
                              f"(full band) or {self.size} (masked rows)")


@dataclass(frozen=True)
class Spectrogram:
    """F x T non-negative matrix plus the audio provenance it came from."""

    data: np.ndarray       # (F, T)
    kind: str              # "magnitude" | "power"
    sample_rate: float
    n_fft: int
    hop: int

    def __post_init__(self):
        data = check_spectrum(self.data)
        if self.kind not in _KIND_TO_CODE:
            raise ValidationError(f"kind must be one of {sorted(_KIND_TO_CODE)}")
        if not 0 < self.sample_rate < np.inf:
            raise ValidationError("sample_rate must be positive and finite")
        if self.n_fft <= 0 or not (0 < self.hop <= self.n_fft):
            raise ValidationError("need n_fft > 0 and 0 < hop <= n_fft")
        _freeze(self, "data", data)

    @property
    def n_bins(self) -> int:
        return self.data.shape[0]

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]


def check_spectrum(W) -> np.ndarray:
    """The data of W, a Spectrogram or an array, as floats; ValidationError
    unless it is 2-D, non-empty, finite and non-negative."""
    data = np.asarray(W.data if isinstance(W, Spectrogram) else W, dtype=float)
    if data.ndim != 2 or data.size == 0:
        raise ValidationError("spectrogram data must be 2-D (bins x frames) and non-empty")
    if not np.all(np.isfinite(data)) or np.any(data < 0):
        raise ValidationError("spectrogram entries must be finite and non-negative")
    return data


def sample(model: PoFModel, T: int, seed: int) -> tuple[Spectrogram, np.ndarray]:
    """Draw T synthetic frames from the generative model.

    Returns the magnitude spectrogram and the true L x T activations.
    Deterministic for a given seed (sampling is a single seeded vectorized
    stream).
    """
    if T < 1:
        raise ValidationError("T must be >= 1")
    rng = np.random.default_rng([int(seed), 0x5A17])
    alpha = model.alpha[:, None]
    a = rng.gamma(shape=np.broadcast_to(alpha, (model.n_filters, T)),
                  scale=1.0 / alpha)
    log_ew = model.U @ a
    gamma = model.gamma[:, None]
    w = rng.gamma(shape=np.broadcast_to(gamma, (model.n_bins, T)),
                  scale=np.exp(log_ew) / gamma)
    spec = Spectrogram(
        w, "magnitude",
        sample_rate=model.meta.sample_rate,
        n_fft=model.meta.n_fft,
        hop=model.meta.n_fft // 2,
    )
    return spec, a


# ----------------------------------------------------------------------
# Model JSON


def _write_json_doc(doc: dict, path) -> None:
    """Write one model document as a single line of JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")     # encoded in C, unlike json.dump


def _read_json_doc(path, fmt: str, version: int, arrays: dict, fields=()) -> dict:
    """Read a model document: check its format and version, that the fields,
    the arrays (name -> dimension fields) and their non-negative integer
    dimensions are present, and give each array as floats of its shape.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # also a file that is not UTF-8
        raise DataFormatError(f"{fmt} file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{fmt} file must contain a JSON object")
    if doc.get("format") != fmt:
        raise DataFormatError(f"field 'format' must be '{fmt}'")
    if doc.get("version") != version:
        raise DataFormatError(f"unsupported {fmt} version {doc.get('version')!r}")
    dims = dict.fromkeys(d for shape in arrays.values() for d in shape)
    for key in (*dims, *arrays, *fields):
        if key not in doc:
            raise DataFormatError(f"{fmt} file missing field '{key}'")
    for key in dims:
        if type(doc[key]) is not int or doc[key] < 0:
            raise DataFormatError(f"field '{key}' must be a non-negative integer")
    for key, shape in arrays.items():
        try:
            value = np.asarray(doc[key])
        except ValueError as exc:  # a ragged nesting of lists
            raise DataFormatError(f"field '{key}' is not a numeric array: {exc}") from exc
        if value.dtype.kind not in "iuf":
            raise DataFormatError(f"field '{key}' is not a numeric array")
        expected = tuple(doc[d] for d in shape)
        if value.shape != expected:
            raise ValidationError(f"field '{key}' has shape {value.shape}, expected {expected}")
        doc[key] = value.astype(float)
    return doc


def save_model(model: PoFModel, path) -> None:
    _write_json_doc({
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "F": model.n_bins,
        "L": model.n_filters,
        "U": model.U.tolist(),
        "alpha": model.alpha.tolist(),
        "gamma": model.gamma.tolist(),
        "meta": asdict(model.meta),
    }, path)


def load_model(path) -> PoFModel:
    doc = _read_json_doc(path, MODEL_FORMAT, MODEL_VERSION,
                         {"U": ("F", "L"), "alpha": ("L",), "gamma": ("F",)})
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise DataFormatError("field 'meta' must be a JSON object")
    try:
        meta = ModelMeta(float(meta.get("sample_rate", 16000.0)),
                         int(meta.get("n_fft", 1024)),
                         str(meta.get("created_by", "unknown")))
        return PoFModel(doc["U"], doc["alpha"], doc["gamma"], meta)
    except ValidationError as exc:
        raise ValidationError(f"model file invalid: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"model file has a malformed 'meta' field: {exc}") from exc


# ----------------------------------------------------------------------
# POFS binary spectrograms


def save_spectrogram(spec: Spectrogram, path) -> None:
    header = _POFS_HEADER.pack(
        spec.n_bins,
        spec.n_frames,
        _KIND_TO_CODE[spec.kind],
        float(spec.sample_rate),
        int(spec.n_fft),
        int(spec.hop),
    )
    payload = np.ascontiguousarray(spec.data.ravel(order="F"), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(POFS_MAGIC)
        fh.write(bytes([POFS_VERSION]))
        fh.write(header)
        fh.write(payload.tobytes())


def load_spectrogram(path) -> Spectrogram:
    with open(path, "rb") as fh:
        blob = fh.read()
    head_len = len(POFS_MAGIC) + 1 + _POFS_HEADER.size
    if len(blob) < head_len:
        raise DataFormatError("truncated POFS file: incomplete header")
    if blob[: len(POFS_MAGIC)] != POFS_MAGIC:
        raise DataFormatError("not a POFS file (bad magic)")
    version = blob[len(POFS_MAGIC)]
    if version != POFS_VERSION:
        raise DataFormatError(f"unsupported POFS version {version}")
    F, T, kind_code, sample_rate, n_fft, hop = _POFS_HEADER.unpack(
        blob[len(POFS_MAGIC) + 1 : head_len]
    )
    if kind_code not in _CODE_TO_KIND:
        raise DataFormatError(f"unknown spectrogram kind code {kind_code}")
    expected = head_len + 8 * F * T
    if len(blob) < expected:
        raise DataFormatError(
            f"truncated POFS file: expected {expected} bytes, got {len(blob)}"
        )
    flat = np.frombuffer(blob, dtype="<f8", count=F * T, offset=head_len)
    data = flat.reshape((F, T), order="F")
    spec = Spectrogram(data, _CODE_TO_KIND[kind_code], sample_rate, n_fft, hop)
    if len(blob) > expected:
        raise DataFormatError(f"POFS file has {len(blob) - expected} bytes after its payload")
    return spec
