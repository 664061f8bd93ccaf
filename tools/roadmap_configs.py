"""Rebuild ROADMAP's nine (b)-(d) baseline configs and check their plan hashes.

    python tools/roadmap_configs.py [--only NAME ...] [--out FILE]

Each config is one in-process run on a planted layer: hidden 32 / ff 64,
`duplicate_noise` 0.05, `domain_separation` 20, model seed 11 and
calibration seed 12.

- (b) 4 domains x 3 specialists + 4 generalists (n = 16), 256 tokens per
  domain, top_k 2;
- (c) 6 x 3 + 4 (n = 22), 512 tokens per domain, top_k 2;
- (d) 8 x 7 + 8 (n = 64), 256 tokens per domain, top_k 6.

`gvp` and `mop` run at the default m unless named, `mop` with k-means seed 0.
A plan's hash is the first 16 hex digits of a sha256 over
`json.dumps([method, kept, provenance])`, then, for each diagnostic in
sorted key order, its name followed by `str(dtype)` and the raw bytes (an
array) or `json.dumps` of the value; the `b` loss is `reconstruction_loss`
of experts 0-7, as `float.hex`. Every hash and the loss are compared with
`roadmap_configs.change` of `BENCH_15.json`, the recorded baseline.

BLAS runs on one thread, as when the baseline was recorded. The tool prints
one line per config (name, one-shot seconds, hash, match) and exits 1 if any
differs. With `--out`, the timings and hashes are merged into that JSON file
under `roadmap_configs`. The two `c` plans take about 20 s each on a 2-core
machine; the whole set about a minute.
"""

from __future__ import annotations

import os

# Before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from moe_prune import moe_sim, prune_with_method, reconstruction_loss  # noqa: E402

BASELINE = os.path.join(ROOT, "BENCH_15.json")

# shape name: (domains, specialists per domain, generalists, tokens per domain, top_k)
SHAPES = {"b": (4, 3, 4, 256, 2), "c": (6, 3, 4, 512, 2), "d": (8, 7, 8, 256, 6)}

# config name: (shape, method, r, m)
CONFIGS = {
    "b_enum_exhaustive_r8": ("b", "enum_exhaustive", 8, None),
    "b_gvp_r8": ("b", "gvp", 8, None),
    "b_mop_r8": ("b", "mop", 8, None),
    "c_enum_greedy_r10": ("c", "enum_greedy", 10, None),
    "c_gvp_r10": ("c", "gvp", 10, None),
    "c_mop_r10": ("c", "mop", 10, None),
    "d_enum_greedy_r32": ("d", "enum_greedy", 32, None),
    "d_mop_r16_m8": ("d", "mop", 16, 8),
}
LOSS_CONFIG = "b_reconstruction_loss_8_kept"


def build(shape: str) -> tuple[moe_sim.MoELayer, moe_sim.CalibrationCache]:
    domains, specialists, generalists, tokens, top_k = SHAPES[shape]
    spec = moe_sim.PlantedSpec(
        n_domains=domains, specialists_per_domain=specialists, n_generalists=generalists,
        duplicate_noise=0.05, domain_separation=20.0, seed=11,
    )
    layer = moe_sim.generate_layer(spec, 32, 64, top_k)
    return layer, moe_sim.generate_calibration(layer, spec, tokens, 12)


def plan_hash(plan) -> str:
    digest = hashlib.sha256(json.dumps([plan.method, plan.kept, plan.provenance]).encode())
    for key in sorted(plan.diagnostics):
        value = plan.diagnostics[key]
        digest.update(key.encode())
        if isinstance(value, np.ndarray):
            digest.update(str(value.dtype).encode())
            digest.update(value.tobytes())
        else:
            digest.update(json.dumps(value).encode())
    return digest.hexdigest()[:16]


def run(names: list[str]) -> dict[str, dict]:
    built: dict[str, tuple] = {}
    results = {}
    for name in names:
        if name == LOSS_CONFIG:
            layer, cache = built.setdefault("b", build("b"))
            start = time.perf_counter()
            loss = reconstruction_loss(cache, layer, range(8))
            results[name] = {"s": round(time.perf_counter() - start, 6),
                             "loss_hex": float(loss).hex()}
            continue
        shape, method, r, m = CONFIGS[name]
        layer, cache = built.setdefault(shape, build(shape))
        start = time.perf_counter()
        plan = prune_with_method(cache, layer, method, r, m=m)
        results[name] = {"s": round(time.perf_counter() - start, 3), "sha256": plan_hash(plan)}
    return results


def main(argv: list[str]) -> int:
    known = [LOSS_CONFIG, *CONFIGS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=known, default=known, metavar="NAME")
    parser.add_argument("--out", help="merge the results into this JSON file")
    args = parser.parse_args(argv)
    with open(BASELINE, encoding="utf-8") as fh:
        want = json.load(fh)["roadmap_configs"]["change"]
    results = run(args.only)
    mismatched = []
    for name, got in results.items():
        key = "loss_hex" if name == LOSS_CONFIG else "sha256"
        same = got[key] == want[name][key]
        got["matches_bench_15"] = same
        if not same:
            mismatched.append(name)
        print(f"{name:30s} {got['s']:10.3f} s  {got[key]:22s} "
              f"{'ok' if same else 'MISMATCH, recorded ' + want[name][key]}", flush=True)
    if args.out:
        record = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                record = json.load(fh)
        record.setdefault("roadmap_configs", {}).update(results)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    if mismatched:
        print(f"{len(mismatched)} of {len(results)} differ from {os.path.basename(BASELINE)}: "
              f"{', '.join(mismatched)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
