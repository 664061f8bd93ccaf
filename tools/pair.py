"""Paired benchmark runs of two checkouts, in the layout of the `BENCH_*.json` files.

    python tools/pair.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B [--out BENCH.json]

Each checkout (without `.git` and caches) is copied into one of two sibling
directories of the same path length, and each run is that copy's own
`perfbench/run.py --workload W --seed S --seconds SEC --trace 0`, started from
the copy's root, SEC being the `run_seconds` of CHANGE_DIR's `BENCHMARK.json`.
Seed S makes one pair: the parent runs first on even seeds and the change first
on odd seeds. After half the pairs the two copies swap directories, so that
neither side keeps the directory that reads faster. Both sides run with the
same pinned environment (`PINNED`): glibc's allocator thresholds, because its
defaults let `peak_rss_mb` and the pass times drift with heap placement, and
`PYTHONHASHSEED`, which alone moves `peak_rss_mb` by about 0.1 MB.

For every end-to-end metric that `BENCHMARK.json` (in CHANGE_DIR) declares, the
output gives each side's median and inclusive quartiles
(`statistics.quantiles`), the pairs in which the change was better, the
relative change of the medians, and whether the change is worse than the
metric's bound, read both in the metric's unit and as a fraction of the
parent's median, whichever is stricter. `env` records the pinned variables,
the environment `run.py` reports, and whether bytecode caches were usable (with
`PYTHONDONTWRITEBYTECODE` set, every process compiles `src/`). With `--out`,
the workload's entry is merged into that file, so one file can hold several
workloads; without it the JSON goes to standard output. Progress goes to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

PINNED = {
    "MALLOC_MMAP_THRESHOLD_": "2097152",
    "MALLOC_TRIM_THRESHOLD_": "8388608",
    "PYTHONHASHSEED": "0",
}
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".perfbench_tmp"
)
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must read A-B, got {text!r}") from None
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"seeds must be an ascending range of seeds >= 0, "
                                         f"got {text!r}")
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """The last-line JSON of one `perfbench/run.py` run, plus its `env` line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    return result


def summary(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The `BENCH_*.json` entry of one metric over paired runs."""
    sign = -1.0 if better == "lower" else 1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)

    def quartiles(values):
        if len(values) < 2:
            return [values[0], values[0]]
        q = statistics.quantiles(values, n=4, method="inclusive")
        return [round(q[0], 4), round(q[2], 4)]

    worse = sign * (p_med - c_med)  # > 0 when the change is worse
    return {
        "parent_median": round(p_med, 4),
        "change_median": round(c_med, 4),
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
        "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "change_vs_parent": round((c_med - p_med) / p_med, 4) if p_med else None,
        "worse_than_bound": worse > bound or (p_med != 0 and worse / abs(p_med) > bound),
        "parent_runs": [round(v, 4) for v in parent],
        "change_runs": [round(v, 4) for v in change],
    }


def bytecode_cached(checkout: str) -> bool:
    return any(name.endswith(".pyc") for _, _, names in os.walk(os.path.join(checkout, "src"))
               for name in names)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    for path in (args.parent_dir, args.change_dir):
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            parser.error(f"{path} holds no perfbench/run.py")
    with open(os.path.join(args.change_dir, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    declared, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)  # run.py loads each copy's own src/
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    first: list[str] = []
    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        dirs = [os.path.join(tmp, name) for name in ("a", "b")]
        for source, copy in zip((args.parent_dir, args.change_dir), dirs):
            shutil.copytree(source, copy, ignore=IGNORE)
        where = dict(zip(SIDES, dirs))
        half = len(args.seeds) // 2
        for i, seed in enumerate(args.seeds):
            if i == half:  # the copies trade directories
                os.rename(dirs[0], dirs[0] + ".swap")
                os.rename(dirs[1], dirs[0])
                os.rename(dirs[0] + ".swap", dirs[1])
                where = dict(zip(SIDES, dirs[::-1]))
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                result = run_once(where[side], args.workload, seed, seconds, env)
                runs[side].append(result)
                values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(f"seed {seed} {side}: {values}", file=sys.stderr, flush=True)
        cached = {side: bytecode_cached(where[side]) for side in SIDES}

    metrics = {
        m["name"]: summary(*[[r["metrics"][m["name"]]["value"] for r in runs[side]]
                             for side in SIDES], m["better"], m["bound"])
        for m in declared
    }
    failed = sum(r["failed"] for side in SIDES for r in runs[side])
    entry = {
        "seeds": args.seeds,
        "pairs": len(args.seeds),
        "first": first,
        "directories_swapped_after_pair": half,
        "all_outputs_correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed": failed,
        "metrics": metrics,
    }
    report_env = {
        **runs["change"][0]["env"],
        **PINNED,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "bytecode_caches_usable": cached,
        "seconds": seconds,
    }
    report_env.pop("commit", None)  # the copies are not git checkouts
    if args.out:
        report = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                report = json.load(fh)
        report.setdefault("env", {}).update(report_env)
        report.setdefault("workloads", {})[args.workload] = entry
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    else:
        print(json.dumps({"env": report_env, "workloads": {args.workload: entry}}, indent=1))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
