#!/usr/bin/env python3
"""Record the expected output digests of every workload for a range of seeds.

Usage, from the root of a checkout:

    python3 perfbench/record.py FIRST LAST [WORKLOAD ...]

Runs one untraced pass of each workload (or of those named) per seed in
[FIRST, LAST] and merges the digests of its operations into perfbench/digests.json. Record only from
a commit whose plans, losses and reports are known to be right: run.py counts
every later difference as a failed operation.
"""

import json
import os
import sys

import run


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    chosen = sys.argv[3:] or run.WORKLOADS
    unknown = set(chosen) - set(run.WORKLOADS)
    if unknown:
        print(f"unknown workload(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    if not run.use_checkout_src():
        return 2
    path = os.path.join(run.BENCH_DIR, "digests.json")
    with open(path, encoding="utf-8") as fh:
        recorded = json.load(fh)
    for workload in chosen:
        for seed in range(first, last + 1):
            if workload == "cli":
                bench = run.Cli(seed, run.ReferenceLoop(spawn=True))
            else:
                bench = run.InProcess(workload, seed, None)
            try:
                result = bench.run_pass(traced=False)[1]
            finally:
                bench.close()
            ops = dict(result["ops"])
            if None in ops.values():
                print(f"{workload} seed {seed}: an operation failed", file=sys.stderr)
                return 1
            recorded.setdefault(workload, {})[str(seed)] = ops
            print(f"{workload} seed {seed}: {len(ops)} digests", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
