"""The three benchmark workloads: inputs from a seed, one pass of the body, output digests.

``search`` and ``cluster`` drive the package in process; ``cli`` runs the
command-line pipeline as separate processes. Every pass returns one digest per
operation (a prune or an eval, or for ``cli`` also the final report), or None
for an operation that raised, plus the coverage and worst-domain loss of its
``mop`` plans.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from moe_prune import moe_sim
from tracing import METHODS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Layer shape and planted structure per in-process workload.
# Token counts keep one pass short (about 2 s and 1.6 s on a 2-core Xeon VM),
# so that a run times many passes and its median outlasts the slow spells of
# a shared host.
SPECS = {
    "search": {"n_domains": 4, "specialists_per_domain": 3, "n_generalists": 4,
               "hidden_dim": 32, "ff_dim": 64, "top_k": 2, "tokens_per_domain": 128},
    # k-means does most of this workload's work, and its Lloyd iteration count
    # depends on the calibration token draw (about 8% between quartiles over
    # ten draws). The draw is therefore fixed; the seed still makes the model
    # and the held-out tokens, so every seed yields different plans. At 2,048
    # tokens k-means takes about 70% of a pass; at 1,024, about half.
    "cluster": {"n_domains": 8, "specialists_per_domain": 4, "n_generalists": 16,
                "hidden_dim": 32, "ff_dim": 64, "top_k": 2, "tokens_per_domain": 256,
                "calibration_seed": 2024},
}

# (method, r, m, k-means seed) per in-process workload; the random baseline
# takes its seed from the workload seed.
CONFIGS = {
    "search": [("random", 8, None, None), ("frequency", 8, None, None),
               ("enum_exhaustive", 4, None, None), ("enum_greedy", 8, None, None),
               ("gvp", 8, 3, None), ("mop", 8, 3, 0)],
    "cluster": [("mop", 12, 1, 0), ("mop", 12, 1, 1), ("mop", 12, 1, 2),
                ("gvp", 12, 1, None)],
}


def sub_seeds(seed: int) -> tuple[int, int, int, int]:
    """Model, calibration, held-out and random-baseline seeds for one workload seed."""
    return tuple(int(x) % 2**31 for x in np.random.SeedSequence(seed).generate_state(4))


def build_inputs(workload: str, seed: int):
    """The layer, calibration cache and held-out cache of an in-process workload."""
    spec_cfg = SPECS[workload]
    model_seed, calib_seed, heldout_seed, _ = sub_seeds(seed)
    spec = moe_sim.PlantedSpec(
        n_domains=spec_cfg["n_domains"],
        specialists_per_domain=spec_cfg["specialists_per_domain"],
        n_generalists=spec_cfg["n_generalists"],
        duplicate_noise=0.05,
        domain_separation=20.0,
        seed=model_seed,
    )
    layer = moe_sim.generate_layer(spec, spec_cfg["hidden_dim"], spec_cfg["ff_dim"],
                                   spec_cfg["top_k"])
    tokens = spec_cfg["tokens_per_domain"]
    calib_seed = spec_cfg.get("calibration_seed", calib_seed)
    calibration = moe_sim.generate_calibration(layer, spec, tokens, calib_seed)
    heldout = moe_sim.generate_calibration(layer, spec, tokens, heldout_seed)
    return layer, calibration, heldout


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:16]


def _f64(*values) -> bytes:
    return np.concatenate([np.atleast_1d(np.asarray(v, dtype="<f8")) for v in values]).tobytes()


def plan_digest(plan) -> str:
    loss = [plan.diagnostics[k] for k in ("best_loss", "stage1_loss") if k in plan.diagnostics]
    ident = json.dumps([plan.method, plan.kept, plan.provenance]).encode()
    return _digest(ident, _f64(*loss) if loss else b"")


def report_digest(report) -> str:
    coverage = -1.0 if report.coverage is None else report.coverage
    return _digest(json.dumps(report.kept).encode(),
                   _f64(report.overall_loss, report.per_domain_loss, coverage))


def _op_failed(label: str) -> None:
    print(f"operation {label} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def inprocess_pass(workload: str, seed: int, inputs) -> dict:
    """Prune with every config of the workload and evaluate each plan on held-out data."""
    from moe_prune import evaluation, prune

    layer, calibration, heldout = inputs
    random_seed = sub_seeds(seed)[3]
    ops: list[tuple[str, str | None]] = []
    coverage, worst = [], []
    for method, r, m, kmeans_seed in CONFIGS[workload]:
        label = f"{method}:r{r}:m{m}:k{kmeans_seed}"
        try:
            plan = prune.prune_with_method(
                calibration, layer, method=method, r=r, m=m,
                seed=random_seed if method == "random" else None, kmeans_seed=kmeans_seed,
            )
        except Exception:  # an operation that raises is counted, never retried
            _op_failed("prune " + label)
            ops += [("prune " + label, None), ("eval " + label, None)]
            continue
        ops.append(("prune " + label, plan_digest(plan)))
        try:
            report = evaluation.evaluate_plan(layer, plan, heldout)
        except Exception:
            _op_failed("eval " + label)
            ops.append(("eval " + label, None))
            continue
        ops.append(("eval " + label, report_digest(report)))
        if method == "mop":
            coverage.append(report.coverage)
            worst.append(report.worst_domain_loss)
    return {"ops": ops, "mop_coverage": coverage, "mop_worst_domain_loss": worst}


# ---------------------------------------------------------------------------
# cli


class CliRunner:
    """Runs the default-config pipeline in `run_dir` as ``python -m moe_prune.cli`` processes.

    With ``traced`` set, each process starts through ``cli_launcher.py``,
    which installs the tracer and writes its spans to ``<run_dir>/spans``.
    ``after_process`` is called after each process ends.
    """

    def __init__(self, run_dir: str, seed: int, traced: bool, after_process) -> None:
        self.run_dir = run_dir
        self.seed = seed
        self.traced = traced
        self.after_process = after_process
        self.proc_wall: list[tuple[str, float]] = []  # (command, seconds)
        self.span_files: list[str] = []
        if traced:
            os.makedirs(os.path.join(run_dir, "spans"))

    def _run(self, argv: list[str]) -> bool:
        if self.traced:
            spans = os.path.join(self.run_dir, "spans", f"{len(self.proc_wall)}.json")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_launcher.py"), spans] + argv
            self.span_files.append(spans)
        else:
            cmd = [sys.executable, "-m", "moe_prune.cli"] + argv
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=self.run_dir, capture_output=True, text=True)
        self.proc_wall.append((argv[0], time.perf_counter() - start))
        self.after_process()
        if done.returncode != 0:
            print(f"command {' '.join(argv)} exited {done.returncode}:\n{done.stderr}",
                  file=sys.stderr)
        return done.returncode == 0

    def _digest(self, relpath: str) -> str | None:
        try:
            with open(os.path.join(self.run_dir, relpath), "rb") as fh:
                return _digest(fh.read())
        except OSError:
            return None

    def setup(self) -> float:
        """gen-model plus the calibration and held-out caches; returns wall seconds."""
        model_seed, calib_seed, heldout_seed, _ = sub_seeds(self.seed)
        start = time.perf_counter()
        self._run(["gen-model", "--seed", str(model_seed), "--out", "model"])
        self._run(["gen-calib", "--model", "model", "--seed", str(calib_seed), "--out", "calib"])
        self._run(["gen-calib", "--model", "model", "--role", "heldout",
                   "--seed", str(heldout_seed), "--out", "heldout"])
        return time.perf_counter() - start

    def body(self) -> dict:
        """prune + eval for every method at r=4, m=1, then report."""
        random_seed = sub_seeds(self.seed)[3]
        ops: list[tuple[str, str | None]] = []
        coverage, worst = [], []
        for method in METHODS:
            plan = os.path.join("plans", method, "plan")
            ok = self._run(["prune", "--model", "model", "--cache", "calib", "--method", method,
                            "--r", "4", "--m", "1", "--seed", str(random_seed),
                            "--kmeans-seed", "0", "--out", plan])
            ops.append((f"prune {method}", self._digest(plan + ".json") if ok else None))
            out = os.path.join("evals", method)
            ok = self._run(["eval", "--model", "model", "--plan", plan, "--heldout", "heldout",
                            "--out", out])
            report = os.path.join(out, "report.csv")
            ops.append((f"eval {method}", self._digest(report) if ok else None))
            if ok and method == "mop":
                with open(os.path.join(self.run_dir, report), newline="") as fh:
                    row = next(csv.DictReader(fh))
                coverage.append(float(row["coverage"]))
                worst.append(float(row["worst_domain_loss"]))
        ok = self._run(["report", "--dir", "evals", "--out", "report.csv"])
        ops.append(("report", self._digest("report.csv") if ok else None))
        return {"ops": ops, "mop_coverage": coverage, "mop_worst_domain_loss": worst}

    def spans(self) -> tuple[list[list], list[float]]:
        """All spans of the traced processes, and each process's import time."""
        spans: list[list] = []
        imports: list[float] = []
        for proc, path in enumerate(self.span_files):
            if not os.path.exists(path):
                continue
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            imports.append(doc["import_s"])
            base = len(spans)
            for name, start, end, parent, info in doc["spans"]:
                if info and "cache" in info:
                    info["cache"] = f"{proc}:{info['cache']}"  # ids repeat across processes
                spans.append([name, start, end, parent + base if parent >= 0 else -1, info])
        return spans, imports

    def command_medians(self) -> dict[str, float]:
        """Median process wall time per CLI command."""
        walls: dict[str, list[float]] = {}
        for command, seconds in self.proc_wall:
            walls.setdefault(command, []).append(seconds)
        return {command: statistics.median(w) for command, w in walls.items()}
