"""Command-line pipeline: gen-model, gen-calib, prune, eval, report.

Each stage reads/writes tensor-store archives so runs are cacheable and
independently re-runnable. A JSON config file supplies defaults; flags
win over the config. Every output directory gets a provenance.json
recording the effective config, seeds, and tool version. On failure or
interrupt the files written by the failing command are removed and the
exit status is nonzero. The MOP_THREADS environment variable caps BLAS
parallelism (it must be set before numpy is first imported, which the
console entry point guarantees).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

from . import DEFAULT_SUBSET_BUDGET, METHODS

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

METHOD_CHOICES = METHODS + ("enum",)

DEFAULT_CONFIG = {
    "model": {
        "n_domains": 3,
        "specialists_per_domain": 2,
        "n_generalists": 2,
        "duplicate_noise": 0.05,
        "domain_separation": 20.0,
        "seed": 1234,
        "hidden_dim": 16,
        "ff_dim": 32,
        "top_k": 2,
    },
    "calibration": {"tokens_per_domain": 128, "seed": 2024},
    "heldout": {"tokens_per_domain": 128, "seed": 9090},
}


def _apply_thread_cap() -> None:
    cap = os.environ.get("MOP_THREADS")
    if cap:
        for var in _THREAD_ENV_VARS:
            os.environ.setdefault(var, cap)


class ConfigError(ValueError):
    pass


def _merge(path: str | None, name: str, default, value):
    """`value` laid over `default`, as a new object.

    An object may hold only the default's keys; any other value must have
    the default's type, where an int may stand in for a float and a bool is
    never an int.
    """
    if isinstance(default, dict):
        if not isinstance(value, dict):
            what = repr(name) if name else "root"
            raise ConfigError(f"config {path}: {what} must be a JSON object")
        prefix = name + "." if name else ""
        for key in value:
            if key not in default:
                raise ConfigError(f"config {path}: unknown key {prefix + key!r}")
        return {
            key: _merge(path, prefix + key, item, value.get(key, item))
            for key, item in default.items()
        }
    expected = (int, float) if isinstance(default, float) else type(default)
    if not isinstance(value, expected) or isinstance(value, bool) != isinstance(default, bool):
        raise ConfigError(
            f"config {path}: {name} must be {type(default).__name__}, got {type(value).__name__}"
        )
    return value


def load_config(path: str | None) -> dict:
    """DEFAULT_CONFIG with the JSON object at `path`, if given, laid over it."""
    user: dict = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    return _merge(path, "", DEFAULT_CONFIG, user)


def validate_config(config: dict) -> None:
    if config["calibration"]["seed"] == config["heldout"]["seed"]:
        raise ConfigError(
            "calibration.seed must differ from heldout.seed "
            f"(both are {config['calibration']['seed']})"
        )


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


class _Outputs:
    """Tracks files written by one command so failures leave nothing behind."""

    def __init__(self) -> None:
        self.paths: list[str] = []

    def track(self, *paths: str) -> None:
        self.paths.extend(paths)

    def track_archive(self, prefix: str) -> None:
        self.track(prefix + ".json", prefix + ".bin")

    def discard_all(self) -> None:
        for path in self.paths:
            try:
                os.remove(path)
            except OSError:
                pass


def _write_provenance(out_dir: str, command: str, config: dict, outputs: _Outputs) -> None:
    from . import __version__

    doc = {
        "tool": "moe-prune",
        "version": __version__,
        "command": command,
        "config": config,
        "config_hash": config_hash(config),
    }
    path = os.path.join(out_dir, "provenance.json")
    outputs.track(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _ensure_parent_dir(prefix: str) -> str:
    out_dir = os.path.dirname(os.path.abspath(prefix))
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _planted_spec(model_cfg: dict):
    from .moe_sim import PlantedSpec

    return PlantedSpec(**{f.name: model_cfg[f.name] for f in dataclasses.fields(PlantedSpec)})


def _save_generated(args, config: dict, outputs: _Outputs, save, obj, metadata: dict) -> int:
    """The tail of gen-model and gen-calib: write the archive and its provenance."""
    out_dir = _ensure_parent_dir(args.out)
    outputs.track_archive(args.out)
    manifest = save(obj, args.out, {"config_hash": config_hash(config), **metadata})
    _write_provenance(out_dir, args.command, config, outputs)
    print(f"config hash: {config_hash(config)}")
    for entry in manifest.arrays:
        print(f"  {entry.name}: {list(entry.shape)} {entry.dtype}")
    return 0


def cmd_gen_model(args: argparse.Namespace, outputs: _Outputs) -> int:
    from .moe_sim import generate_layer, save_layer

    config = load_config(args.config)
    if args.seed is not None:
        config["model"]["seed"] = args.seed
    validate_config(config)
    spec = _planted_spec(config["model"])
    layer = generate_layer(
        spec,
        hidden_dim=config["model"]["hidden_dim"],
        ff_dim=config["model"]["ff_dim"],
        top_k=config["model"]["top_k"],
    )
    return _save_generated(args, config, outputs, save_layer, layer, {})


def cmd_gen_calib(args: argparse.Namespace, outputs: _Outputs) -> int:
    from .moe_sim import generate_calibration, load_layer, save_cache

    config = load_config(args.config)
    section = config[args.role]
    if args.tokens_per_domain is not None:
        section["tokens_per_domain"] = args.tokens_per_domain
    if args.seed is not None:
        section["seed"] = args.seed
    validate_config(config)
    layer = load_layer(args.model)
    spec = _planted_spec(config["model"])
    cache = generate_calibration(
        layer, spec, tokens_per_domain=section["tokens_per_domain"], seed=section["seed"]
    )
    return _save_generated(
        args, config, outputs, save_cache, cache, {"role": args.role, "seed": str(section["seed"])}
    )


def cmd_prune(args: argparse.Namespace, outputs: _Outputs) -> int:
    from .moe_sim import load_cache, load_layer
    from .prune import PROVENANCE_TAGS, prune_with_method, save_plan

    layer = load_layer(args.model)
    cache = load_cache(args.cache)
    params = {
        name: getattr(args, name) for name in ("method", "r", "m", "seed", "kmeans_seed", "budget")
    }
    plan = prune_with_method(cache, layer, **params)
    out_dir = _ensure_parent_dir(args.out)
    if plan.diagnostics:
        outputs.track_archive(args.out + ".diag")
    outputs.track(args.out + ".json")
    save_plan(plan, args.out)
    _write_provenance(out_dir, "prune", params, outputs)
    print(f"method: {plan.method}")
    print(f"kept: {plan.kept}")
    for tag in PROVENANCE_TAGS:
        tagged = [i for i, t in zip(plan.kept, plan.provenance) if t == tag]
        if tagged:
            print(f"  {tag}: {tagged}")
    if "losses" in plan.diagnostics:
        print(f"subsets examined: {len(plan.diagnostics['losses'])}")
    return 0


def cmd_eval(args: argparse.Namespace, outputs: _Outputs) -> int:
    from .evaluation import _heatmap_paths, evaluate_plan, export_heatmap_csv, report_to_csv
    from .moe_sim import load_cache, load_layer
    from .prune import load_plan

    layer = load_layer(args.model)
    plan = load_plan(args.plan)
    heldout = load_cache(args.heldout)
    report = evaluate_plan(layer, plan, heldout)
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.csv")
    outputs.track(report_path)
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report_to_csv(report))
    heatmap = os.path.join(args.out, "heatmap")
    outputs.track(*_heatmap_paths(report, heatmap))
    export_heatmap_csv(report, heatmap)
    inputs = {name: os.path.basename(getattr(args, name)) for name in ("model", "plan", "heldout")}
    _write_provenance(args.out, "eval", inputs, outputs)
    print(f"method: {report.method}")
    print(f"overall loss: {report.overall_loss:.6f}")
    print(f"worst-domain loss: {report.worst_domain_loss:.6f}")
    if report.coverage is not None:
        print(f"coverage: {report.coverage:.3f}")
    return 0


def cmd_report(args: argparse.Namespace, outputs: _Outputs) -> int:
    rows = []
    for root, _dirs, files in sorted(os.walk(args.dir)):
        if "report.csv" in files:
            path = os.path.join(root, "report.csv")
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            if len(lines) >= 2:
                rows.append((os.path.relpath(root, args.dir), lines[0], lines[1], path))
    if not rows:
        print(f"no report.csv files under {args.dir}", file=sys.stderr)
        return 1
    for _name, head, _body, path in rows:
        if head != rows[0][1]:
            print(f"error: {path} and {rows[0][3]} have different headers", file=sys.stderr)
            return 1
    header = "run," + rows[0][1]
    lines = [header] + [f"{name},{body}" for name, _head, body, _path in sorted(rows)]
    table = "\n".join(lines) + "\n"
    if args.out:
        _ensure_parent_dir(args.out)
        outputs.track(args.out)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table)
    print(table, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moe-prune",
        description="Generate, prune, and evaluate simulated MoE layers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-model", help="generate a planted MoE layer archive")
    p.add_argument("--config", help="JSON config file (flags win over it)")
    p.add_argument("--seed", type=int, help="override model.seed")
    p.add_argument("--out", required=True, help="archive path prefix")
    p.set_defaults(func=cmd_gen_model)

    p = sub.add_parser("gen-calib", help="generate a calibration/held-out cache archive")
    p.add_argument("--config", help="JSON config file (flags win over it)")
    p.add_argument("--model", required=True, help="layer archive path prefix")
    p.add_argument("--role", choices=("calibration", "heldout"), default="calibration")
    p.add_argument("--tokens-per-domain", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="archive path prefix")
    p.set_defaults(func=cmd_gen_calib)

    p = sub.add_parser("prune", help="run one pruning method and write the plan")
    p.add_argument("--model", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--method", required=True, choices=METHOD_CHOICES)
    p.add_argument("--r", required=True, type=int, help="experts to retain")
    p.add_argument("--m", type=int, help="general-core size for gvp/mop")
    p.add_argument("--seed", type=int, help="seed for the random baseline")
    p.add_argument("--kmeans-seed", type=int, help="domain-discovery seed for mop")
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET,
                   help="max subsets for exhaustive search")
    p.add_argument("--out", required=True, help="plan path prefix")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("eval", help="evaluate a plan on a held-out cache")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--heldout", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="aggregate report.csv files into one table")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", help="also write the table to this path")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    outputs = _Outputs()
    try:
        return args.func(args, outputs)
    except BaseException as exc:  # Ctrl-C too leaves no half-written outputs
        outputs.discard_all()
        if not isinstance(exc, (ConfigError, ValueError, OSError, KeyError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
