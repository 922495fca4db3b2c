"""Benchmark worker: one fresh, single-threaded process that imports
evarify from the checkout's `src/` and runs a workload's operations in a
closed loop through `evarify.cli.run(argv)`.

Started by `run.py`; it prints `ready` once `import evarify` completes
(the parent times set-up up to that line) and writes its result as JSON
to `--result`.  With `--probe` it exits right after `ready`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

#: Seconds `reference_kernel` takes at the reference speed: about its
#: median on the 2-core machine the benchmark was defined on (README.md).
REFERENCE_KERNEL_S = 0.015


def reference_kernel() -> float:
    """Seconds of a fixed piece of work that does not touch evarify: an
    interpreter loop, vector arithmetic and a `scipy.special` call, the
    mix evarify's operations are made of.  Timed between operations, it
    tells how fast the shared machine runs at that moment."""
    import numpy
    from scipy import special

    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    x = numpy.linspace(0.0, 1.0, 200_000)
    for _ in range(10):
        x = numpy.sqrt(x * x + 1.0) - 0.9
    special.gammaln(x[:20_000] + 1.0).sum()
    return time.perf_counter() - start


def _import_evarify(root: Path):
    import evarify

    src = (root / "src").resolve()
    if src not in Path(evarify.__file__).resolve().parents:
        raise SystemExit(f"evarify was imported from {evarify.__file__}, not from {src}")
    return evarify


class Runner:
    """Runs operations, checks their reports and keeps what the metrics
    need."""

    def __init__(self, ops, workdir: Path, reference: dict):
        from evarify import cli

        self.cli = cli
        self.ops = ops
        self.workdir = workdir
        # operation names are unique across workloads
        self.reference = {name: entry for entries in reference.values()
                          for name, entry in entries.items()}
        self.exact = {}
        self.digests = {}
        self.attempted = 0
        self.failures = []
        self.problems = []
        #: `reference_kernel` times, when a list: one after each operation
        self.kernel_s = None

    def argv(self, op, out: Path, config=None) -> list[str]:
        argv = list(op.argv)
        config = op.config if config is None else config
        if config is not None:
            path = self.workdir / f"{op.name}.config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        return argv + ["--seed", str(op.seed), "--out", str(out)]

    def call(self, argv, tracer=None) -> tuple[int | Exception, float]:
        """Exit code (or the exception raised) and seconds of one CLI call."""
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            span = tracer.open("cli.run") if tracer else None
            try:
                rc = self.cli.run(argv)
            except Exception as exc:  # an operation that raises is a failure
                rc = exc
            finally:
                if span:
                    tracer.close(span)
            elapsed = time.perf_counter() - start
        return rc, elapsed

    def prepare(self) -> None:
        """Exact expectations for the Monte Carlo operations, outside any
        timed pass."""
        for op in self.ops:
            if op.kind != "monte_carlo":
                continue
            out = self.workdir / f"{op.name}.exact.json"
            rc, _ = self.call(self.argv(op, out, workloads.exact_config(op.config)))
            if rc == 0:
                self.exact[op.name] = json.loads(out.read_bytes())

    def check(self, op, report: dict) -> list[str]:
        if op.kind == "monte_carlo":
            if op.name not in self.exact:
                return [f"the exact run for {op.name} failed"]
            return checks.check_monte_carlo(report, self.exact[op.name])
        ref = self.reference.get(op.name)
        if ref is None:
            return [f"no stored reference for {op.name}"]
        if op.kind == "conditions":
            return checks.check_conditions(report, ref)
        return checks.check_certify(report, ref)

    def run_pass(self, index: int, tracer=None,
                 deadline: float | None = None) -> tuple[list[float], list[dict]]:
        """One pass over the operations; returns latencies and reports.
        With a tracer, each operation runs inside a `cli.run` span.  With
        a ``deadline`` (a `time.perf_counter()` value), no operation
        starts after it, so the pass may stop early."""
        latencies, reports = [], []
        for op in self.ops:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if tracer:
                tracer.op = f"{index}:{op.name}"
            out = self.workdir / f"{op.name}.report.json"
            out.unlink(missing_ok=True)
            self.attempted += 1
            problems = []
            report = {}
            rc, elapsed = self.call(self.argv(op, out), tracer)
            if self.kernel_s is not None:
                self.kernel_s.append(reference_kernel())
            if isinstance(rc, Exception):
                problems.append(f"raised {type(rc).__name__}: {rc}")
            else:
                if rc != 0:
                    problems.append(f"exit code {rc}")
                data = out.read_bytes() if out.exists() else b""
                digest = hashlib.sha256(data).hexdigest()
                first = self.digests.setdefault(op.name, digest)
                if digest != first:
                    problems.append("report bytes differ from the first pass")
                try:
                    report = json.loads(data)
                    problems += self.check(op, report)
                except (ValueError, KeyError, TypeError) as exc:
                    problems.append(f"unreadable report: {type(exc).__name__}: {exc}")
            if problems:
                self.failures.append({"pass": index, "op": op.name, "problems": problems})
            latencies.append(elapsed)
            reports.append(report)
        return latencies, reports


def _tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile that leaves at least ten samples beyond it,
    and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - 11)
    return 100.0 * (k + 1) / n, ordered[k]


def _measured(runner: Runner, ops, seconds: float) -> dict:
    """End-to-end metrics over untraced passes.  The first pass is whole;
    after it, operations keep running in order, pass after pass, and none
    starts once ``seconds`` have gone by.  The reference kernel runs once
    before the first operation and after each one, outside their times.

    `wall_s` is one pass at the reference speed: the sum over operations
    of each one's mean latency, scaled by ``REFERENCE_KERNEL_S`` over the
    kernel's median time in the run.  The shared machine's speed drifts
    by tens of percent over tens of seconds and between runs; the kernel
    drifts with it, and the scaling takes that drift out."""
    walls, samples, per_op = [], [], {op.name: [] for op in ops}
    runner.kernel_s = [reference_kernel()]
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        latencies, _ = runner.run_pass(len(walls), deadline=deadline if walls else None)
        walls.append(sum(latencies))
        samples += latencies
        for op, elapsed in zip(ops, latencies):
            per_op[op.name].append(elapsed)
    kernel = statistics.median(runner.kernel_s)
    runner.kernel_s = None
    wall = sum(statistics.fmean(v) for v in per_op.values())
    percentile, tail = _tail(samples)
    return {
        "passes": len(walls),
        # the last pass may stop early, at the deadline
        "pass_wall_s": walls,
        "op_latency_s": per_op,
        "wall_raw_s": wall,
        "reference_kernel_s": kernel,
        "reference_kernel_samples": len(samples) + 1,
        # per-operation latency; reported, but too noisy on a shared
        # machine to carry a regression bound (see README.md)
        "op_samples": len(samples),
        "op_p50_s": statistics.median(samples),
        "op_tail_s": tail,
        "op_tail_percentile": percentile,
        "metrics": {
            "wall_s": wall * REFERENCE_KERNEL_S / kernel,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def _mc_throughput(ops, latencies, reports) -> float:
    samples, seconds = 0, 0.0
    for op, elapsed, report in zip(ops, latencies, reports):
        if op.kind == "monte_carlo":
            samples += op.config["plan"]["samples"] * len(report.get("rows", ()))
            seconds += elapsed
    return samples / seconds if seconds else 0.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--result")
    args = parser.parse_args()
    root = Path(args.root)

    evarify = _import_evarify(root)
    print("ready", flush=True)
    if args.probe:
        return 0

    import numpy
    import scipy

    ops = workloads.build(args.workload, args.seed)
    workdir = Path(args.result).parent / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(ops, workdir, checks.load_reference())
        runner.prepare()

        result = {
            "provenance": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "evarify": evarify.__version__,
                "nproc": os.cpu_count(),
                "cpu": _cpu_model(),
            },
            "ops": [op.name for op in ops],
        }
        if args.trace:
            result.update(_traced(runner, ops))
        else:
            result.update(_measured(runner, ops, args.seconds))
        result.update({
            "attempted": runner.attempted,
            "failed": len({(f["pass"], f["op"]) for f in runner.failures}),
            "failures": runner.failures,
            "problems": runner.problems,
        })
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


def _traced(runner: Runner, ops) -> dict:
    """One untraced pass, then two traced passes; per-layer metrics are
    the median of the traced passes, and their counts must repeat."""
    untraced, reports = runner.run_pass(0)
    traced_walls, per_pass, spans = [], [], []
    for i in (1, 2):
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            latencies, reports_i = runner.run_pass(i, tracer)
        finally:
            restore()
        traced_walls.append(sum(latencies))
        per_pass.append(tracing.layer_metrics(tracer, reports_i))
        spans.append(tracer.records())
    counts = {name for name, unit in tracing.LAYER_METRICS if unit == "count"}
    for name in counts:
        if per_pass[0][name] != per_pass[1][name]:
            runner.problems.append(f"count {name} differs between traced passes")
    metrics = {name: per_pass[0][name] if name in counts
               else statistics.median([m[name] for m in per_pass]) for name in per_pass[0]}
    metrics["mc_samples_per_s"] = _mc_throughput(ops, untraced, reports)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - sum(untraced)
    return {"untraced_wall_s": sum(untraced), "traced_wall_s": traced_walls,
            "spans": spans, "metrics": metrics}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or platform.machine()


if __name__ == "__main__":
    sys.exit(main())
