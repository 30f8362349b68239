"""Command-line surface tying the pipeline together.

Subcommands: train, eval, loso, mine, gradcheck, synth, apex, ablate.
Every run that writes artifacts also writes a resolved-config snapshot that
fully determines the run given the dataset bytes. Errors leave one line on
standard error; exit codes: 0 success, 1 check failure, 2 usage error,
3 artifact mismatch, 4 runtime divergence. A reader that closes standard
output early (``| head``) ends the run with 1 and no traceback.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import tensor as tensor_mod
from .backbone import BackboneConfig, desk_backbone, paper_backbone
from .data import (
    DEFAULT_LABEL_MAP,
    DataError,
    SynthSpec,
    load_clips,
    load_manifest,
    save_synth_dataset,
    synth_generate,
)
from .evaluate import (
    apex_distance,
    apex_overlap,
    evaluate_fold,
    loso_run,
    record_clip,
)
from .gradcheck import grad_check, standard_primitive_cases
from .model import AkmNet, ModelBuilder, ModelConfig, build_model
from .rng import RngStream
from .train import DivergenceError, TrainConfig, train
from .variants import make_variant
from .weights import WeightFileError, load_weights, save_weights

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ARTIFACT_MISMATCH = 3
EXIT_DIVERGED = 4

DEFAULT_ABLATION = ("s123,s12,s13,s23,va-all,va-norm16,va-random10,va-last10")

PRIMITIVE_TOL = 1e-5
FULL_MODEL_TOL = 1e-4


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


# configuration ------------------------------------------------------------

def resolve_config(args):
    """Merge defaults, the optional JSON config file and the flags, in that
    order of increasing precedence."""
    config = {
        "preset": "desk",
        "precision": "f32",
        "seed": 0,
        "variant": "s123",
        "labels": None,
        "train": {},
        "model": {},
    }
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise CliError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise CliError(f"config file {path} is not valid JSON: {e}")
        for key, value in loaded.items():
            if key in ("train", "model"):
                config[key] = dict(value)
            elif key in config:
                config[key] = value
            else:
                raise CliError(f"config file {path}: unknown key {key!r}")
    for key in ("preset", "precision", "seed", "variant"):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def config_dtype(config):
    return np.float64 if config["precision"] == "f64" else np.float32


def backbone_for(config):
    return paper_backbone() if config["preset"] == "paper" else desk_backbone()


def resolve_label_map(config, manifest_path):
    """Explicit labels win; otherwise the default 4-way map when the file
    uses exactly those names, else the sorted distinct names of the file."""
    if config["labels"]:
        return {name: i for i, name in enumerate(config["labels"])}
    names = set()
    with open(manifest_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if len(row) > 2:
                names.add(row[2].strip())
    if names and names <= set(DEFAULT_LABEL_MAP):
        return dict(DEFAULT_LABEL_MAP)
    return {name: i for i, name in enumerate(sorted(names))}


def require_manifest(args):
    if not getattr(args, "manifest", None):
        raise CliError("a manifest is required (--manifest PATH)")
    path = Path(args.manifest)
    if not path.is_file():
        raise CliError(f"manifest not found: {path}")
    return path


def require_out(args):
    if not getattr(args, "out", None):
        raise CliError("an output directory is required (--out DIR)")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def load_dataset(args, config):
    manifest_path = require_manifest(args)
    label_map = resolve_label_map(config, manifest_path)
    manifest = load_manifest(manifest_path, label_map=label_map)
    clips = load_clips(manifest)
    if not clips:
        raise CliError(f"manifest {manifest_path} lists no clips")
    return manifest, clips, label_map


def model_config_from(config, n_classes):
    kwargs = dict(config.get("model") or {})
    kwargs.setdefault("n_classes", n_classes)
    backbone = backbone_for(config)
    overrides = kwargs.pop("backbone", None)
    if overrides:
        fields = dataclasses.asdict(backbone)
        for key, value in overrides.items():
            if key not in fields:
                raise CliError(f"bad model config: unknown backbone field {key!r}")
            fields[key] = tuple(value) if isinstance(value, list) else value
        backbone = BackboneConfig(**fields)
    try:
        return ModelConfig(backbone=backbone, **kwargs)
    except TypeError as e:
        raise CliError(f"bad model config: {e}")


def train_config_from(config):
    kwargs = dict(config.get("train") or {})
    kwargs.setdefault("seed", config["seed"])
    try:
        return TrainConfig(**kwargs)
    except TypeError as e:
        raise CliError(f"bad train config: {e}")


def build_run_model(config, n_classes):
    model_config = model_config_from(config, n_classes)
    policy = make_variant(config["variant"])
    return AkmNet(model_config, policy=policy,
                  rng=RngStream(config["seed"]), dtype=config_dtype(config))


def write_snapshot(out_dir, command, config, extra=None):
    payload = {"command": command, "version": __version__, "config": config}
    if extra:
        payload.update(extra)
    path = out_dir / "resolved_config.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_confusion_csv(path, confusion, label_map):
    names = [name for name, _ in sorted(label_map.items(), key=lambda kv: kv[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + names)
        for i, name in enumerate(names):
            writer.writerow([name] + [int(x) for x in confusion[i]])


def load_model_weights(args, model):
    if not getattr(args, "weights", None):
        raise CliError("trained weights are required (--weights PATH)")
    path = Path(args.weights)
    if not path.is_file():
        raise CliError(f"weights not found: {path}")
    load_weights(path, model.parameters())


# subcommands --------------------------------------------------------------

def cmd_train(args):
    config = resolve_config(args)
    out = require_out(args)
    manifest, clips, label_map = load_dataset(args, config)
    model = build_run_model(config, len(label_map))
    train_config = train_config_from(config)
    history = train(model, clips, train_config)

    save_weights(out / "model.akmw", model.parameters())
    with open(out / "history.jsonl", "w") as fh:
        for stats in history.epochs:
            fh.write(json.dumps(stats.to_dict(), sort_keys=True) + "\n")
    write_json(out / "metrics.json", {
        "n_clips": len(clips),
        "n_epochs": len(history.epochs),
        "final": history.final.to_dict(),
        "variant": config["variant"],
        "preset": config["preset"],
        "precision": config["precision"],
        "seed": config["seed"],
    })
    write_snapshot(out, "train", config, {"label_map": label_map,
                                          "manifest": str(args.manifest)})
    print(f"trained {len(history.epochs)} epochs on {len(clips)} clips, "
          f"final objective {history.final.mean_objective:.6g}")
    return EXIT_OK


def cmd_eval(args):
    config = resolve_config(args)
    out = require_out(args)
    manifest, clips, label_map = load_dataset(args, config)
    model = build_run_model(config, len(label_map))
    load_model_weights(args, model)
    report = evaluate_fold(model, clips, len(label_map),
                           rng=RngStream(config["seed"]).child("eval"))
    write_json(out / "metrics.json", {
        "accuracy": report.accuracy,
        "n_clips": len(clips),
        "n_rounds": report.n_rounds,
        "variant": config["variant"],
        "seed": config["seed"],
    })
    write_confusion_csv(out / "confusion.csv", report.confusion, label_map)
    write_snapshot(out, "eval", config, {"label_map": label_map,
                                         "manifest": str(args.manifest),
                                         "weights": str(args.weights)})
    print(f"accuracy {report.accuracy:.4f} on {len(clips)} clips")
    return EXIT_OK


def cmd_loso(args):
    config = resolve_config(args)
    out = require_out(args)
    manifest, clips, label_map = load_dataset(args, config)
    builder = ModelBuilder(config=model_config_from(config, len(label_map)),
                           variant=config["variant"],
                           precision=config["precision"])
    train_config = train_config_from(config)
    report = loso_run(clips, builder, train_config, n_classes=len(label_map),
                      workers=max(1, args.folds_parallel))
    write_json(out / "loso_report.json", report.to_dict())
    write_confusion_csv(out / "confusion.csv", report.confusion, label_map)
    write_snapshot(out, "loso", config, {"label_map": label_map,
                                         "manifest": str(args.manifest),
                                         "folds_parallel": args.folds_parallel})
    print(f"loso pooled accuracy {report.pooled_accuracy:.4f} over "
          f"{len(report.folds)} folds")
    return EXIT_OK


def cmd_mine(args):
    config = resolve_config(args)
    out = require_out(args)
    manifest, clips, label_map = load_dataset(args, config)
    model = build_run_model(config, len(label_map))
    load_model_weights(args, model)
    rng = RngStream(config["seed"]).child("mine")
    with open(out / "mine.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "T", "N", "indices", "beta", "fallback"])
        for clip in clips:
            r = record_clip(model, clip, rng=rng)
            writer.writerow([
                r.clip_id, r.frame_count, r.n_selected,
                " ".join(str(i) for i in r.indices),
                " ".join("%.8g" % b for b in r.beta),
                int(r.fallback),
            ])
    write_snapshot(out, "mine", config, {"label_map": label_map,
                                         "manifest": str(args.manifest),
                                         "weights": str(args.weights)})
    print(f"mined {len(clips)} clips")
    return EXIT_OK


def cmd_apex(args):
    config = resolve_config(args)
    out = require_out(args)
    manifest, clips, label_map = load_dataset(args, config)
    model = build_run_model(config, len(label_map))
    load_model_weights(args, model)
    rng = RngStream(config["seed"]).child("apex")
    records = [record_clip(model, clip, rng=rng) for clip in clips]
    overlap = apex_overlap(records)
    distance = apex_distance(records)
    write_json(out / "apex_overlap.json", overlap.to_dict())
    with open(out / "apex_distance.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "distance"])
        for clip_id, d in distance.per_clip.items():
            writer.writerow([clip_id, "%.8g" % d])
    write_snapshot(out, "apex", config, {"label_map": label_map,
                                         "manifest": str(args.manifest),
                                         "weights": str(args.weights)})
    print(f"apex ratio {overlap.ratio:.4f}, top-weight ratio "
          f"{overlap.ratio_high:.4f} ({overlap.n_evaluated} clips, "
          f"{overlap.n_excluded} without annotation)")
    return EXIT_OK


def cmd_synth(args):
    config = resolve_config(args)
    out = require_out(args)
    side = args.side if args.side is not None else backbone_for(config).input_side
    try:
        spec = SynthSpec(n_classes=args.classes, t_min=args.t_min,
                         t_max=args.t_max, signal_len=args.signal_len,
                         noise_scale=args.noise_scale, amplitude=args.amplitude,
                         side=side, seed=config["seed"])
    except ValueError as e:
        raise CliError(str(e))
    dataset = synth_generate(spec, n_clips=args.clips, n_subjects=args.subjects)
    save_synth_dataset(dataset, out, frame_format=args.frame_format)
    write_snapshot(out, "synth", config, {
        "synth": {"classes": args.classes, "t_min": args.t_min,
                  "t_max": args.t_max, "signal_len": args.signal_len,
                  "noise_scale": args.noise_scale, "amplitude": args.amplitude,
                  "side": side, "clips": args.clips, "subjects": args.subjects,
                  "frame_format": args.frame_format}})
    print(f"wrote {len(dataset.clips)} clips to {out}")
    return EXIT_OK


def cmd_ablate(args):
    config = resolve_config(args)
    out = require_out(args)
    manifest, clips, label_map = load_dataset(args, config)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise CliError("ablate: no variants given")
    root = RngStream(config["seed"])
    train_config = train_config_from(config)
    results = {}
    for name in variants:
        policy = make_variant(name)
        seed = int(root.child(f"ablate-{name}").integers(0, 2 ** 31))
        model = AkmNet(model_config_from(config, len(label_map)),
                       policy=policy, rng=RngStream(seed),
                       dtype=config_dtype(config))
        fold_config = TrainConfig(**{**train_config.__dict__, "seed": seed})
        history = train(model, clips, fold_config)
        report = evaluate_fold(model, clips, len(label_map),
                               rng=root.child(f"ablate-eval-{name}"))
        results[name] = {
            "seed": seed,
            "accuracy": report.accuracy,
            "n_rounds": report.n_rounds,
            "final": history.final.to_dict(),
            "records": [r.to_dict() for r in report.records],
        }
        print(f"{name}: accuracy {report.accuracy:.4f}")
    write_json(out / "ablation_report.json", {
        "variants": results,
        "n_clips": len(clips),
    })
    write_snapshot(out, "ablate", config, {"label_map": label_map,
                                           "manifest": str(args.manifest),
                                           "variant_list": variants})
    return EXIT_OK


# gradient checking --------------------------------------------------------

class _FaultInjector:
    """Test hook: scale one primitive's backward so checks must fail."""

    def __init__(self, name):
        if not hasattr(tensor_mod, name):
            raise CliError(f"no primitive named {name!r} to break")
        self.name = name
        self.original = getattr(tensor_mod, name)

    def __enter__(self):
        original = self.original

        def broken(*args, **kwargs):
            node = original(*args, **kwargs)
            if getattr(node, "_rule", None) is not None:
                rule = node._rule
                node._rule = lambda g: rule(g * 1.25)
            return node

        setattr(tensor_mod, self.name, broken)
        return self

    def __exit__(self, *exc):
        setattr(tensor_mod, self.name, self.original)
        return False


def _micro_model_config():
    backbone = BackboneConfig(input_side=8, input_channels=1,
                              stage_widths=(2, 3), blocks_per_stage=1,
                              output_grid=(2, 2))
    return ModelConfig(backbone=backbone, n_classes=3, gru_hidden=2,
                       gru_layers=2)


def _full_model_group_errors(seed):
    """Grad-check one micro model; worst relative error per parameter group."""
    model = build_model(_micro_model_config(), seed=seed, dtype=np.float64)
    clip = RngStream(seed).child("clip").normal((3, 8, 8), dtype=np.float64)
    names = [n for n, _ in model.parameters()]
    params = [p for _, p in model.parameters()]

    def objective():
        return model.forward(clip, label=1, gate_grad="local").omega

    report = grad_check(objective, params, epsilon=1e-5, names=names,
                        max_coords=3, rng=RngStream(seed).child("coords"))
    groups = {}
    for name, worst in zip(names, report.per_param):
        group = name.split(".", 1)[0]
        groups[group] = max(groups.get(group, 0.0), worst)
    return groups, report


def cmd_gradcheck(args):
    config = resolve_config(args)
    if config["precision"] != "f64":
        config["precision"] = "f64"   # finite differences need 64-bit
    failed = []

    def run_all():
        for name, builder in standard_primitive_cases().items():
            f, params, names = builder()
            report = grad_check(f, params, epsilon=1e-5, names=names)
            status = "ok" if report.ok(PRIMITIVE_TOL) else "FAIL"
            print(f"primitive {name}: max rel err {report.max_rel_error:.3e} "
                  f"[{status}]")
            if status == "FAIL":
                failed.append(f"primitive {name}")
        groups, report = _full_model_group_errors(seed=config["seed"])
        for group in sorted(groups):
            status = "ok" if groups[group] < FULL_MODEL_TOL else "FAIL"
            print(f"model group {group}: max rel err {groups[group]:.3e} "
                  f"[{status}]")
            if status == "FAIL":
                failed.append(f"model group {group}")
        for failure in report.failures:
            print(f"model check failure: {failure}")
            failed.append("model NaN")
        if report.n_skipped:
            print(f"skipped {report.n_skipped} boundary coordinate(s)")

    if args.inject_fault:
        with _FaultInjector(args.inject_fault):
            run_all()
    else:
        run_all()

    if failed:
        print(f"gradcheck FAILED: {', '.join(failed)}")
        return EXIT_CHECK_FAILED
    print("gradcheck passed")
    return EXIT_OK


# parser -------------------------------------------------------------------

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run-config file")
    common.add_argument("--manifest", help="dataset manifest CSV")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, help="master seed")
    common.add_argument("--variant",
                        help="selection policy, e.g. s123, s12, va-norm32")
    common.add_argument("--preset", choices=("paper", "desk"),
                        help="backbone scale preset")
    common.add_argument("--precision", choices=("f32", "f64"),
                        help="floating-point width")

    parser = argparse.ArgumentParser(
        prog="akmnet",
        description="key-frame mining classifier for variable-length clips")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[common], help="train a model")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate trained weights")
    p.add_argument("--weights", help="AKMW weight file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("loso", parents=[common],
                       help="leave-one-subject-out cross validation")
    p.add_argument("--folds-parallel", type=int, default=1,
                   help="train folds in this many worker processes")
    p.set_defaults(func=cmd_loso)

    p = sub.add_parser("mine", parents=[common],
                       help="export per-clip frame selections")
    p.add_argument("--weights", help="AKMW weight file")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="verify gradients against finite differences")
    p.add_argument("--inject-fault", metavar="PRIMITIVE",
                   help="deliberately break one primitive's backward "
                        "(negative control)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a planted-signal dataset")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--t-min", type=int, default=6)
    p.add_argument("--t-max", type=int, default=12)
    p.add_argument("--signal-len", type=int, default=3)
    p.add_argument("--noise-scale", type=float, default=0.05)
    p.add_argument("--amplitude", type=float, default=0.25)
    p.add_argument("--side", type=int, default=None,
                   help="frame side length (default: preset input size)")
    p.add_argument("--clips", type=int, default=24)
    p.add_argument("--subjects", type=int, default=4)
    p.add_argument("--frame-format", choices=("packed", "pgm"),
                   default="packed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("apex", parents=[common],
                       help="apex agreement metrics for trained weights")
    p.add_argument("--weights", help="AKMW weight file")
    p.set_defaults(func=cmd_apex)

    p = sub.add_parser("ablate", parents=[common],
                       help="train and evaluate a list of variants")
    p.add_argument("--variants", default=DEFAULT_ABLATION,
                   help="comma-separated variant names")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:   # argparse usage errors already printed a line
        return int(e.code) if e.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (``akmnet gradcheck | head``): drop the
        # rest of the output, including the flush at interpreter exit, and
        # exit 1 without a traceback, as Python's own SIGPIPE advice does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except DivergenceError as e:
        print(f"error: divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except WeightFileError as e:
        print(f"error: weights: {e}", file=sys.stderr)
        return EXIT_ARTIFACT_MISMATCH
    except DataError as e:
        print(f"error: data: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
