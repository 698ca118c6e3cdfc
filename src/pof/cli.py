"""Command-line surface: pof <subcommand> [inputs...] [flags].

Exit codes: 0 success, 1 usage error, 2 data, validation or numerical
error. Diagnostics go to stderr; results to files or stdout.

An optional flat key=value config file supplies defaults; explicit flags
always win over the file, and the file wins over built-in defaults. That
precedence is applied once, in main, before the subcommand runs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .bwe import expand
from .dsp import (AudioClip, StftConfig, band_mask, load_wav, log_spectral_distance,
                  stft_magnitude, stft_power)
from .errors import DataFormatError, PofError, ValidationError
from .estep import FrameResult, dump_posteriors, infer_frames, status_counts
from .features import add_deltas, median_smooth, mfcc, pofc, save_features_csv
from .model import (POFS_MAGIC, Spectrogram, load_model, load_spectrogram, sample,
                    save_model, save_spectrogram)
from .mstep import EmConfig, fit
from .nmf import load_nmf_model, nmf_expand, nmf_fit, save_nmf_model


def non_negative_int(text) -> int:
    """int(text), refused below 0: numpy's generators take no negative seed."""
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return value


# key -> (type, default); flags override the file, the file overrides these.
# A flag that sets a key takes its type from here (_setting).
CONFIG_KEYS = {
    "L": (int, 50),
    "rel_tol": (float, 1e-4),
    "max_em_iters": (int, 200),
    "seed": (non_negative_int, 0),
    "n_fft": (int, 1024),
    "hop": (int, 512),
    "low_hz": (float, 400.0),
    "high_hz": (float, 3400.0),
    "K": (int, 50),
    "divergence": (str, "kl"),
    "n_mfcc": (int, 13),
    "n_mels": (int, 40),
    "median_length": (int, 25),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, with the usage of the (sub)parser that met them.
    Long options are not abbreviated, so that a removed flag is an error,
    not a prefix of another (--mode of --model)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def parse_config_file(path) -> dict:
    """Parse a flat key=value file; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataFormatError(f"config line {lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in CONFIG_KEYS:
                raise ValidationError(
                    f"config line {lineno}: unknown key {key!r}; valid keys: "
                    + ", ".join(sorted(CONFIG_KEYS))
                )
            typ, _ = CONFIG_KEYS[key]
            try:
                values[key] = typ(value)
            except ValueError as exc:
                raise DataFormatError(f"config line {lineno}: {exc}") from exc
    return values


def _resolve(args) -> None:
    """Set args.<key> for every key of CONFIG_KEYS: the flag's value if one
    was given, else the --config file's, else the default. args.flagged
    holds the keys the flags set."""
    file = parse_config_file(args.config) if args.config else {}
    args.flagged = {key for key in CONFIG_KEYS if getattr(args, key, None) is not None}
    for key, (_, default) in CONFIG_KEYS.items():
        if key not in args.flagged:
            setattr(args, key, file.get(key, default))


def _load_spec_or_wav(path) -> Spectrogram | AudioClip:
    with open(path, "rb") as fh:
        magic = fh.read(4)
    return load_spectrogram(path) if magic == POFS_MAGIC else load_wav(path)


def _concat_specs(paths) -> Spectrogram:
    specs = [load_spectrogram(p) for p in paths]
    first = specs[0]
    for s in specs[1:]:
        if (s.n_bins, s.kind, s.sample_rate, s.n_fft, s.hop) != (
            first.n_bins, first.kind, first.sample_rate, first.n_fft, first.hop,
        ):
            raise ValidationError("training inputs disagree on bins/kind/rate/fft/hop")
    data = np.concatenate([s.data for s in specs], axis=1)
    return Spectrogram(data, first.kind, first.sample_rate, first.n_fft, first.hop)


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_stft(args) -> None:
    stft = StftConfig(n_fft=args.n_fft, hop=args.hop)
    clip = load_wav(args.input)
    spec = stft_power(clip, stft) if args.power else stft_magnitude(clip, stft)
    save_spectrogram(spec, args.output)
    _info(f"wrote {args.output} (F={spec.n_bins}, T={spec.n_frames}, kind={spec.kind})")


def cmd_train(args) -> None:
    spec = _concat_specs(args.inputs)
    em = EmConfig(L=args.L, rel_tol=args.rel_tol, max_em_iters=args.max_em_iters, seed=args.seed)
    model, trace = fit(spec, em, log_sink=_info)
    save_model(model, args.output)
    _info(f"wrote {args.output} (F={model.n_bins}, L={model.n_filters}, "
          f"{len(trace)} EM iterations)")


def cmd_encode(args) -> None:
    spec = load_spectrogram(args.input)
    model = load_model(args.model)
    results = infer_frames(spec, model)
    dump_posteriors(results, args.output)
    _info(f"wrote {args.output} ({len(results)} frames) "
          f"{status_counts(r.status for r in results)}")


def cmd_bwe(args) -> None:
    model = load_model(args.model)
    source = _load_spec_or_wav(args.input)
    mask = band_mask(model.n_bins, model.meta.sample_rate, model.meta.n_fft,
                     args.low_hz, args.high_hz)
    result = expand(source, model, mask)
    save_spectrogram(result.reconstructed, args.output)
    if args.dump_posteriors:
        records = [FrameResult(p, float("nan"), "bwe") for p in result.posteriors]
        dump_posteriors(records, args.dump_posteriors)
    _info(f"wrote {args.output} ({mask.size} observed bins of {model.n_bins}) "
          f"prior_mean={result.replaced} {status_counts(result.statuses)}")


def cmd_nmf_train(args) -> None:
    spec = _concat_specs(args.inputs)
    model, fit_result = nmf_fit(spec, args.K, args.divergence, seed=args.seed,
                                rel_tol=args.rel_tol)
    save_nmf_model(model, args.output)
    _info(f"wrote {args.output} (K={model.K}, divergence={model.divergence}, "
          f"{len(fit_result.cost_trace)} costs, final={fit_result.cost_trace[-1]:.6g})")


def cmd_nmf_bwe(args) -> None:
    model = load_nmf_model(args.model)
    spec = load_spectrogram(args.input)
    mask = band_mask(model.n_bins, spec.sample_rate, spec.n_fft, args.low_hz, args.high_hz)
    recon = nmf_expand(spec, model, mask, rel_tol=args.rel_tol)
    save_spectrogram(recon, args.output)
    _info(f"wrote {args.output}")


def cmd_features(args) -> None:
    spec = load_spectrogram(args.input)
    counts = ""
    if args.mfcc:
        feat = mfcc(spec, n_coeffs=args.n_mfcc, n_mels=args.n_mels)
    else:
        if not args.model:
            raise ValidationError("features needs -m MODEL or --mfcc")
        model = load_model(args.model)
        results = infer_frames(spec, model)
        feat = pofc(results)
        counts = " " + status_counts(r.status for r in results)
    if args.deltas:
        feat = add_deltas(feat)
    if args.smooth:
        feat = median_smooth(feat, args.median_length)
    save_features_csv(feat, args.output)
    _info(f"wrote {args.output} ({feat.data.shape[0]} features x "
          f"{feat.data.shape[1]} frames){counts}")


def cmd_eval_lsd(args) -> None:
    a = load_spectrogram(args.a)
    b = load_spectrogram(args.b)
    # the band applies only where a flag asks for it; the file and the
    # defaults supply the other edge
    mask = None
    if args.flagged & {"low_hz", "high_hz"}:
        mask = band_mask(a.n_bins, a.sample_rate, a.n_fft, args.low_hz, args.high_hz)
    print(log_spectral_distance(a, b, mask))


def cmd_synth(args) -> None:
    model = load_model(args.model)
    spec, _ = sample(model, args.frames, args.seed)
    save_spectrogram(spec, args.output)
    _info(f"wrote {args.output} (F={spec.n_bins}, T={spec.n_frames})")


def _setting(p, key, *flags, **kwargs):
    """Add flags that set the config key `key`, of CONFIG_KEYS' type; unset,
    they leave None, for _resolve to fill in."""
    p.add_argument(*flags, dest=key, type=CONFIG_KEYS[key][0], **kwargs)


def _add_common(p, *, output=True, seed=True):
    """--config; --seed where the subcommand draws random numbers, not where
    it only infers (encode, bwe, features and nmf-bwe start from a function
    of the frame and the model); a config file's seed= line is valid for
    every subcommand; -o if output."""
    p.add_argument("--config", help="flat key=value config file")
    if seed:
        _setting(p, "seed", "--seed", help=f"RNG seed (default {CONFIG_KEYS['seed'][1]})")
    if output:
        p.add_argument("-o", "--output", required=True, help="output path")


def build_parser() -> _Parser:
    parser = _Parser(prog="pof", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pof {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("stft", help="WAV -> POFS spectrogram")
    p.add_argument("input")
    _setting(p, "n_fft", "--n-fft")
    _setting(p, "hop", "--hop")
    p.add_argument("--power", action="store_true", help="write a power spectrogram")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_stft)

    p = sub.add_parser("train", help="fit a product-of-filters model",
                       description="Fit a product-of-filters model by variational "
                                   "EM. Every E-step frame and every M-step block is "
                                   "solved to round-off, so only the EM loop has "
                                   "settings.")
    p.add_argument("inputs", nargs="+", help="POFS files; frames are concatenated")
    _setting(p, "L", "-L", help="number of filters")
    _setting(p, "rel_tol", "--rel-tol", help="stop when the bound grows by less than this share")
    _setting(p, "max_em_iters", "--max-iters", help="EM iteration cap")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="posterior inference -> JSON dump")
    p.add_argument("input")
    p.add_argument("-m", "--model", required=True)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("bwe", help="bandwidth expansion with a trained model")
    p.add_argument("input", help="POFS, or WAV at the model's sample rate "
                                 "(analysed at the model's n_fft, hop n_fft/2)")
    p.add_argument("-m", "--model", required=True)
    _setting(p, "low_hz", "--low")
    _setting(p, "high_hz", "--high")
    p.add_argument("--dump-posteriors", help="optional JSON posterior dump path")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_bwe)

    p = sub.add_parser("nmf-train", help="fit an NMF baseline")
    p.add_argument("inputs", nargs="+")
    _setting(p, "K", "-K")
    _setting(p, "divergence", "--divergence", choices=["kl", "is"])
    _setting(p, "rel_tol", "--rel-tol")
    _add_common(p)
    p.set_defaults(func=cmd_nmf_train)

    p = sub.add_parser("nmf-bwe", help="bandwidth expansion with an NMF model")
    p.add_argument("input")
    p.add_argument("-m", "--model", required=True)
    _setting(p, "low_hz", "--low")
    _setting(p, "high_hz", "--high")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_nmf_bwe)

    p = sub.add_parser("features", help="PoFC or MFCC features -> CSV")
    p.add_argument("input")
    p.add_argument("-m", "--model", help="model JSON for PoFC features")
    p.add_argument("--mfcc", action="store_true", help="extract MFCCs instead")
    p.add_argument("--deltas", action="store_true", help="append delta features")
    p.add_argument("--smooth", action="store_true", help="median-filter the features")
    _setting(p, "median_length", "--median-length")
    _setting(p, "n_mfcc", "--n-mfcc")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("eval-lsd", help="log-spectral distance between two POFS files")
    p.add_argument("a")
    p.add_argument("b")
    _setting(p, "low_hz", "--low")
    _setting(p, "high_hz", "--high")
    _add_common(p, output=False, seed=False)
    p.set_defaults(func=cmd_eval_lsd)

    p = sub.add_parser("synth", help="sample a synthetic spectrogram from a model")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-T", "--frames", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _resolve(args)
        args.func(args)
        return 0
    except (PofError, OSError) as exc:
        print(f"pof: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
