#!/usr/bin/env python3
"""Benchmark of the moe_prune package, end to end (--trace 0) or per layer (--trace 1).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {search,cluster,cli} --seed N --seconds S --trace {0,1}

The seed makes the inputs: the planted layer and the calibration and held-out
token draws. Passes of the workload body repeat until S seconds have passed:
the first warms up, at least three more are timed. Each timed pass's wall
time is divided by the time of fixed reference work sampled around it, which
gauges the host's speed (see ReferenceLoop). Every operation's output
digest is checked against perfbench/digests.json when it records that seed,
and against the run's first pass otherwise. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
lines before it are a readable table and the environment. BLAS runs on one
thread in this process and in every process it starts.
"""

from __future__ import annotations

import os
import sys

# Before numpy is first imported, here and (inherited) in every child process.
for _var in ("MOP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from tracing import CLI_COMMANDS, Tracer, layer_metrics, median_by_key  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("search", "cluster", "cli")
MIN_PASSES = 3  # per kind of pass: untraced, and in a traced run also traced
REF_SAMPLES = 3  # reference-loop timings after each pass

# The layer each workload is predicted to spend most of its run in.
DOMINANT = {
    "search": "metrics.reconstruction_loss.s",
    "cluster": "cluster.kmeans.s",
    "cli": "cli.import_s x cli.processes",
}

UNITS = {
    "moe_sim.expert_applies": "count_computed",
    "moe_sim.expert_flops": "flop_computed",
    "moe_sim.apply_useful_ratio": "ratio_computed",
    "trace.dominant_share": "1",
    "run_vs_ref": "x_ref",
    "evaluation.mop_worst_domain_loss": "loss",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# ---------------------------------------------------------------------------
# passes


class InProcess:
    """search and cluster: the package driven from this process."""

    def __init__(self, workload: str, seed: int, tracer) -> None:
        import workloads  # loads moe_prune, so only after main() has put SRC on the path

        self.workload, self.seed, self.tracer = workload, seed, tracer
        self._pass = workloads.inprocess_pass
        if tracer:
            tracer.install()
        self.inputs = workloads.build_inputs(workload, seed)
        self.setup_spans = list(tracer.spans) if tracer else []
        if tracer:
            tracer.uninstall()
            tracer.spans.clear()

    def setup_sample(self) -> float:
        """Wall time of one set-up in a fresh process."""
        probe = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), self.workload,
                 str(self.seed)]
        start = time.perf_counter()
        subprocess.run(probe, check=True)
        return time.perf_counter() - start

    def run_pass(self, traced: bool):
        """(wall seconds, pass result, per-layer metrics or None, set-up seconds or None)."""
        if traced:
            self.tracer.install()
        try:
            start = time.perf_counter()
            result = self._pass(self.workload, self.seed, self.inputs)
            wall = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        if not traced:
            return wall, result, None, None
        layers = layer_metrics(self.tracer.spans)
        setup = layer_metrics(self.setup_spans)
        for key in ("moe_sim.generate_layer.s", "moe_sim.generate_calibration.s"):
            layers[key] = setup[key]
        layers.update(cli_layer_metrics(None, []))
        self.tracer.spans.clear()
        return wall, result, layers, None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class Cli:
    """cli: each pass is a fresh run directory; set-up and body are timed apart."""

    def __init__(self, seed: int, ref: ReferenceLoop) -> None:
        os.makedirs(TMP_ROOT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=TMP_ROOT)
        self.seed = seed
        self.ref = ref
        self.passes = 0

    def run_pass(self, traced: bool):
        from workloads import CliRunner

        self.passes += 1
        run_dir = os.path.join(self.tmp, f"pass{self.passes}")
        os.makedirs(run_dir)
        runner = CliRunner(run_dir, self.seed, traced, self.ref.sample)
        spent = self.ref.spent  # the reference's samples are taken out of both times
        setup = runner.setup() - (self.ref.spent - spent)
        body_start = len(runner.proc_wall)
        spent = self.ref.spent
        start = time.perf_counter()
        result = runner.body()
        wall = time.perf_counter() - start - (self.ref.spent - spent)
        layers = None
        if traced:
            spans, imports = runner.spans()
            layers = layer_metrics(spans)
            layers.update(cli_layer_metrics(runner, imports, len(runner.proc_wall) - body_start))
        shutil.rmtree(run_dir)
        return wall, result, layers, setup

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run still uses it


def cli_layer_metrics(runner, imports: list[float], body_processes: int = 0) -> dict:
    """cli.* metrics of one traced pass; all zero when no CLI process ran."""
    walls = runner.command_medians() if runner else {}
    out = {"cli.import_s": statistics.median(imports) if imports else 0.0}
    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = walls.get(command, 0.0)
    out["cli.processes"] = body_processes
    return out


# ---------------------------------------------------------------------------
# host speed


class ReferenceLoop:
    """Fixed work that no commit of the package changes, timed to gauge the host's speed.

    On a shared 2-core Xeon VM a pass slows by 20-50% in spells that last
    from a second to tens of seconds. Work of the same kind slows with it,
    so the ratio of a pass's wall time to this work's mean time over the same
    stretch holds steady where the wall time alone does not. The work
    resembles the pass. In process it is a Python loop and 200 small matrix
    products (about 10 ms), timed after each pass (about 2 s): over seven
    35 s windows of back-to-back 0.8 s cluster passes (1,024 tokens), the
    quartile distance over the median of the median pass wall time was 0.20,
    that of the median ratio 0.046. For cli, whose passes are 13 short interpreter processes, it is a
    bare interpreter start (``python -S -c pass``, about 13 ms), timed after
    each process: over 43 passes its mean correlated with the pass's process
    time at 0.92, the loop's at 0.41.
    """

    def __init__(self, spawn: bool) -> None:
        import numpy as np

        self.spawn = spawn
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((256, 32))
        self.b = rng.standard_normal((32, 64))
        self.samples: list[float] = []
        self.spent = 0.0  # seconds in the work since start-up

    def _work(self) -> None:
        if self.spawn:
            subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
            return
        total = 0
        for i in range(50_000):
            total += i * i
        for _ in range(200):
            (self.a @ self.b).sum()

    def sample(self) -> None:
        start = time.perf_counter()
        self._work()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds

    def drain(self) -> list[float]:
        """The samples taken since the last drain."""
        samples, self.samples = self.samples, []
        return samples


# ---------------------------------------------------------------------------
# checks


def load_expected(workload: str, seed: int) -> dict | None:
    with open(os.path.join(BENCH_DIR, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    return recorded.get(workload, {}).get(str(seed))


def count_failures(results: list[dict], expected: dict | None) -> tuple[int, int]:
    """(attempted, failed) over every operation of every pass.

    An operation fails when it raised or its digest differs from the recorded
    one; for a seed with no record, from the same operation in the first pass.
    """
    reference = expected if expected is not None else dict(results[0]["ops"])
    attempted = failed = 0
    for result in results:
        for label, digest in result["ops"]:
            attempted += 1
            if digest is None or reference.get(label) != digest:
                failed += 1
    return attempted, failed


# ---------------------------------------------------------------------------
# environment


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "MOP_THREADS": os.environ["MOP_THREADS"],
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# main


def measure(bench, ref: ReferenceLoop, seconds: float, trace: bool):
    """Run passes for `seconds`, warm-up included (at least MIN_PASSES timed ones of each kind).

    The first pass is checked but not timed: on a shared 2-core x86 VM it ran
    20-40% slower than the ones after it while caches and clocks warm up. A
    traced run then alternates untraced and traced passes, so that the tracing
    overhead is the difference of two medians taken over the same period. An
    untraced run follows each in-process pass with one fresh-process set-up;
    a cli pass times its own set-up. Set-ups and passes thus sample the same
    stretch of time, and their medians ride out the slow spells of a shared
    host. Each pass is followed by REF_SAMPLES runs of the reference loop (a
    cli pass also runs it after each of its processes), so that the loop's
    samples before, during and after a pass bracket it. Returns pass walls by
    kind, the loop's mean time over each untraced pass, set-up walls
    (untraced runs only), every pass result and the per-layer metrics of
    each traced pass.
    """
    walls = {False: [], True: []}
    refs, setups, results, layers = [], [], [], []
    start = time.perf_counter()
    results.append(bench.run_pass(False)[1])
    for _ in range(REF_SAMPLES):
        ref.sample()
    before = ref.drain()  # the samples just before the next pass
    kinds = (False, True) if trace else (False,)
    while (time.perf_counter() - start < seconds
           or any(len(walls[k]) < MIN_PASSES for k in kinds)):
        for traced in kinds:
            wall, result, layer, setup = bench.run_pass(traced)
            walls[traced].append(wall)
            for _ in range(REF_SAMPLES):
                ref.sample()
            samples = ref.drain()
            if not traced:
                refs.append(statistics.fmean(before + samples))
            before = samples
            results.append(result)
            if layer is not None:
                layers.append(layer)
            if not trace:
                setups.append(setup if setup is not None else bench.setup_sample())
    return walls, refs, setups, results, layers


def use_checkout_src() -> bool:
    """Load moe_prune from the checkout's src/, here and in child processes."""
    if not os.path.isfile(os.path.join(SRC, "moe_prune", "__init__.py")):
        print(f"error: no moe_prune package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout_src():
        return 2

    tracer = Tracer() if args.trace else None
    ref = ReferenceLoop(spawn=args.workload == "cli")
    if args.workload == "cli":
        bench = Cli(args.seed, ref)
    else:
        bench = InProcess(args.workload, args.seed, tracer)
    try:
        walls, refs, setup, results, layers = measure(bench, ref, args.seconds, bool(args.trace))
        peak_rss = bench.peak_rss_mb()
    finally:
        bench.close()

    attempted, failed = count_failures(results, load_expected(args.workload, args.seed))
    coverage = [statistics.fmean(r["mop_coverage"]) for r in results if r["mop_coverage"]]
    worst = [statistics.median(r["mop_worst_domain_loss"]) for r in results
             if r["mop_worst_domain_loss"]]
    coverage = statistics.median(coverage) if coverage else 0.0
    worst = statistics.median(worst) if worst else 0.0
    run = walls[False]
    run_vs_ref = [wall / r for wall, r in zip(run, refs)]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {attempted}  failed {failed}")
    print(f"{'metric':<36} {'median':>14} {'unit':<15} {'n':>3} {'min':>10} {'max':>10}")
    if args.trace:
        metrics = per_layer(args.workload, layers, walls, refs, worst)
    else:
        rows = [
            ("setup_s", setup, "s"),
            ("run_vs_ref", run_vs_ref, "x_ref"),
            ("peak_rss_mb", [peak_rss], "MB"),
            ("ok_frac", [(attempted - failed) / attempted], "1"),
            ("mop_coverage", [coverage], "1"),
        ]
        metrics = {name: {"value": statistics.median(v), "unit": unit} for name, v, unit in rows}
        # Shown for reading only: pass wall time and the reference loop's
        # each follow the host's speed, failed_frac is 0 when all is well and
        # the worst-domain loss depends on the seed, so none can carry a bound.
        rows += [("run_s", run, "s"),
                 ("host.ref_loop_s", refs, "s"),
                 ("failed_frac", [failed / attempted], "1"),
                 ("mop_worst_domain_loss", [worst], "loss")]
        for name, values, unit in rows:
            print(f"{name:<36} {statistics.median(values):>14.6g} {unit:<15} {len(values):>3} "
                  f"{min(values):>10.4g} {max(values):>10.4g}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def per_layer(workload: str, layers: list[dict], walls: dict, refs: list[float],
              worst: float) -> dict:
    """Medians over traced passes of every layer metric, plus the tracing overhead."""
    values = median_by_key(layers)
    untraced, traced = statistics.median(walls[False]), statistics.median(walls[True])
    values["evaluation.mop_worst_domain_loss"] = worst
    values["trace.untraced_run_s"] = untraced
    values["trace.traced_run_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    values["host.ref_loop_s"] = statistics.median(refs)
    candidates = {name: values.get(name) for name in DOMINANT.values()}
    candidates["cli.import_s x cli.processes"] = values["cli.import_s"] * values["cli.processes"]
    values["trace.dominant_share"] = candidates[DOMINANT[workload]] / traced
    for name, value in values.items():
        print(f"{name:<36} {value:>14.6g} {unit_of(name):<15} {len(layers):>3}")
    largest = max(candidates, key=candidates.get)
    print(f"largest layer: {largest}, {candidates[largest] / traced:.1%} of traced run_s; "
          f"predicted: {DOMINANT[workload]} "
          f"({'as predicted' if largest == DOMINANT[workload] else 'NOT as predicted'})")
    return {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
