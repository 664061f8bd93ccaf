"""Run a fixed catalogue of one-line mutants against tier-1: mutants of the
bit-exact kernels, of the checks that name bad inputs, of the staged
commit that every written file goes through and of what `report` imports.

Each mutant replaces one exact fragment of one line in one file of
``src/moe_prune`` (of two lines, where one line's text occurs twice). It is
applied to a fresh copy of the repository in a temporary directory, and the
tier-1 tests run there with fixed hypothesis and hash seeds, stopping at the
first failure. A mutant is killed when a test fails and survives when every
test passes; a fragment that no longer occurs exactly once is reported as
stale, so the catalogue cannot drift silently from the code.

    python tools/mutants.py            # every mutant, in catalogue order
    python tools/mutants.py NAME ...   # only the named ones

A surviving mutant runs the whole suite, about 25 s on a 2-core machine.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".perfbench_tmp"
)
TIMEOUT_S = 900

# name: (file in src/moe_prune, fragment, replacement)
MUTANTS = {
    # the first-minimum rule at each search's call site: ties to the last subset
    "exhaustive-tie-to-last": (
        "prune.py", "best_row = _first_min(losses, size)",
        "best_row = len(losses) - 1 - _first_min(losses[::-1], size)",
    ),
    "greedy-tie-to-last": (
        "prune.py", "j = _first_min(losses, m - 1)",
        "j = m - 1 - _first_min(losses[::-1], m - 1)",
    ),
    "first-min-no-nan-mask": (
        "prune.py", "np.argmin(np.where(np.isnan(losses), np.inf, losses))", "np.argmin(losses)",
    ),
    # the one top-k rule: routing, activation counts, frequency and both
    # variability rankings
    "top-k-quicksort": (
        "moe_sim.py", 'kind="stable")[..., :k]', 'kind="quicksort")[..., :k]',
    ),
    "routing-no-k8-branch": ("moe_sim.py", "if k_sel < 8:", "if True:"),
    "pruned-forward-untransposed": ("moe_sim.py", "return out, weights.T", "return out, weights"),
    "routing-budget-2^40": ("metrics.py", "_BATCH_LOGITS = 1 << 13", "_BATCH_LOGITS = 1 << 40"),
    "variability-no-zero-mask": ("metrics.py", "terms[q == 0.0] = 0.0", "pass"),
    # each block of variability terms continues the sum of the blocks before it
    "variability-carry-dropped": ("metrics.py", "terms[0] += total", "pass"),
    "variability-lone-column-blocked": ("metrics.py", "if n > 1:", "if True:"),
    "coverage-counts-generalists": (
        "evaluation.py", "for i in kept if domains[i] >= 0}", "for i in kept}",
    ),
    "ward-no-nan-check": ("cluster.py", "if np.isnan(cost):", "if False:"),
    "kmeanspp-no-overflow-check": ("cluster.py", "if not np.isfinite(total):", "if False:"),
    # k-means++ keeps a product-form pick only when the draw is clear of the margin
    "kmeanspp-never-falls-back": (
        "cluster.py", "return pick if low + margin <= u < cdf[pick] - margin else -1",
        "return pick",
    ),
    "kmeanspp-margin-0": (
        "cluster.py", "_draw(d2, total, u, slack / total + (n + 4) * 2.0**-51)",
        "_draw(d2, total, u, 0.0)",
    ),
    "assign-widen-0": (
        "cluster.py", "widen = 4.0 * (d + 4) * 2.0**-53 / (1.0 - (d + 4) * 2.0**-53)",
        "widen = 0.0",
    ),
    "assign-bound-no-underflow-term": (
        "cluster.py", "(norms + reach) * (norms + reach) + (d + 4) * 2.0**-1070",
        "(norms + reach) * (norms + reach)",
    ),
    "assign-moves-no-underflow-term": (
        "cluster.py", ".sum(axis=1) + d * 2.0**-1074)", ".sum(axis=1))",
    ),
    "assign-moved-upper-no-widening": (
        "cluster.py", "upper = (upper + moves[labels]) * hi", "upper = upper + moves[labels]",
    ),
    "assign-moved-lower-no-widening": (
        "cluster.py", "lower = np.maximum(lower - moves.max(), 0.0) * lo",
        "lower = np.maximum(lower - moves.max(), 0.0)",
    ),
    "assign-first-minimum-wrong": (
        "cluster.py", "(dist == best).argmax(axis=0)", "(dist == best).argmin(axis=0)",
    ),
    "assign-fresh-upper-no-slack": (
        "cluster.py", "np.maximum(best + 0.25 * bound, 0.0)", "np.maximum(best, 0.0)",
    ),
    # a moved assignment hands its redo rows the step's c2 and their own b
    "redo-rows-first-bounds": (
        "cluster.py", "centroids, c2, bound[redo], hi, lo",
        "centroids, c2, bound[: redo.size], hi, lo",
    ),
    "redo-rows-previous-c2": (
        "cluster.py", "centroids, c2, bound[redo], hi, lo",
        "centroids, (previous * previous).sum(axis=1), bound[redo], hi, lo",
    ),
    "group-means-writes-previous": (
        "cluster.py", "centroids = previous.copy()", "centroids = previous",
    ),
    "lloyd-first-update-nothing-changed": (
        "cluster.py", "changed = np.ones(k, dtype=bool)", "changed = np.zeros(k, dtype=bool)",
    ),
    "repair-copies-own-centroids": (
        "cluster.py", 'np.take(centroids, labels, axis=0, out=scratch, mode="clip")  # each point',
        "scratch = centroids[labels]  # each point",
    ),
    # the scorer drops each output no set of a call keeps; the exhaustive search
    # hands it one block per first expert, so the outputs it drops are freed early
    "scorer-never-drops": (
        "metrics.py", "self._outputs = {e: out for e, out in self._outputs.items() if kept[e]}",
        "pass",
    ),
    # a one-expert set's squared error is its loss and its performance row:
    # here each row gets the previous expert's
    "perf-row-previous-error": (
        "metrics.py", "self._on_error(e, error)",
        "self._on_error(e, getattr(self, '_last', error)); self._last = error",
    ),
    "exhaustive-one-call": (
        "prune.py", "np.split(subsets, np.flatnonzero(np.diff(subsets[:, 0])) + 1)", "[subsets]",
    ),
    # prune_frequency, and the one door of gvp and mop, check the cache's layer
    "frequency-no-cache-check": (
        "prune.py", "_check_cache_layer(cache, layer)\n    counts = ", "counts = ",
    ),
    "general-count-no-cache-check": (
        "prune.py", "_check_cache_layer(cache, layer)\n    return m", "return m",
    ),
    "reconstruction-loss-unchecked": (
        "metrics.py", "idx = _sorted_kept(kept, layer.n_experts)", "idx = list(kept)",
    ),
    "planted-spec-negative-generalists": ("moe_sim.py", "if self.n_generalists < 0:", "if False:"),
    "kmeans-accepts-1d": ("cluster.py", "if pts.ndim != 2:", "if False:"),
    "coverage-no-planted-check": ("evaluation.py", "if not planted:", "if False:"),
    # a plan's metadata diagnostics are JSON: the text fallback of older plans
    "plan-diag-text-fallback": (
        "prune.py", "diagnostics[key] = json.loads(value)",
        "diagnostics[key] = value if value.startswith(\"'\") else json.loads(value)",
    ),
    # an expert's identity, not its position: mop scores a group member by its
    # place in the candidate list
    "mop-scores-by-position": (
        "prune.py", "scores.scores[g]", "scores.scores[[candidates.index(i) for i in g]]",
    ),
    # mop's representative is the top-variability member of its group; the
    # lowest one covers fewer domains when calibrated on one domain
    "mop-lowest-variability-representative": (
        "prune.py", "g[_top_k(scores.scores[g], 1)[0]]", "g[_top_k(-scores.scores[g], 1)[0]]",
    ),
    # `report` starts without dataclasses (and inspect, ast and dis)
    "cli-eager-dataclasses": ("cli.py", "import argparse", "import argparse, dataclasses"),
    # the staged commit every written file goes through
    "stage-no-rollback": (
        "__init__.py", "renamed.append(os.path.join(directory, name))", "pass",
    ),
    "stage-left-on-failure": (
        "__init__.py", "for name in os.listdir(stage)]", "for name in []]",
    ),
}


def run_mutant(path: str, fragment: str, replacement: str) -> tuple[str, str]:
    """(outcome, detail) of tier-1 on a copy of the repository with one mutant applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        target = os.path.join(copy, "src", "moe_prune", path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(fragment) != 1:
            return "stale", f"fragment occurs {text.count(fragment)} times in {path}"
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(fragment, replacement))
        # a fixed hash seed, as the hypothesis seed, so that a rerun repeats the
        # outcome; a wide terminal, so that pytest prints each failure's reason
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONHASHSEED="0",
                   COLUMNS="400")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                "--continue-on-collection-errors", "--hypothesis-seed=0"]
        try:
            proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0:
        return "survived", lines[-1] if lines else ""
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    return "killed", (failed or lines[-1:] or ["pytest exited with no output"])[0][:240]


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(MUTANTS)}",
              file=sys.stderr)
        return 2
    print("| mutant | file | outcome | detail |\n|---|---|---|---|", flush=True)
    stale = False
    for name in argv or list(MUTANTS):
        path, fragment, replacement = MUTANTS[name]
        outcome, detail = run_mutant(path, fragment, replacement)
        stale |= outcome == "stale"
        print(f"| {name} | {path} | {outcome} | {detail} |", flush=True)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
