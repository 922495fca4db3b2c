"""evarify benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload certify_spikes --seed 1 --seconds 32 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
Each run spawns fresh single-threaded worker processes (BLAS/OpenMP
capped at one thread): a few that only import evarify, timing set-up,
then one that runs the workload's operations in a closed loop (one
client; an operation starts when the previous one has finished).

With `--trace 0` the last line of standard output holds the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of a traced
run.  The line before it carries provenance and details.  Full results
and spans go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Fresh processes timed for `setup_s`, including the worker itself.
SETUP_SAMPLES = 3
#: `-X importtime` probes in a traced run.
IMPORT_PROBES = 3
#: A run must end within this many seconds.
RUN_LIMIT_S = 175.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args: list[str], env: dict, python_flags=(), stderr=None):
    """Start a worker; returns (process, seconds from spawn to `ready`)."""
    cmd = [sys.executable, *python_flags, str(HERE / "worker.py"), "--root", str(ROOT), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=stderr, text=True)
    try:
        waiting, _, _ = select.select([proc.stdout], [], [], 120.0)
        line = proc.stdout.readline() if waiting else ""
        if line.strip() != "ready":
            raise RuntimeError(f"worker did not start: {line!r}")
    except BaseException:
        _stop(proc)
        raise
    return proc, time.perf_counter() - start


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for a worker; one that outlives ``timeout``, or whose wait is
    interrupted, is killed."""
    try:
        proc.communicate(timeout=timeout)
    finally:
        _stop(proc)


def _probe(env: dict, python_flags=()) -> tuple[float, str]:
    """Seconds to `ready` of a worker that only imports evarify, and its
    standard error (a file, not a pipe: `-X importtime` writes more than
    a pipe holds before `ready`)."""
    err_path = OUT / f"probe-{os.getpid()}.err"
    try:
        with open(err_path, "w+", encoding="utf-8") as err:
            proc, ready = _spawn(["--probe"], env, python_flags, stderr=err)
            _finish(proc, timeout=60)
            err.seek(0)
            text = err.read()
    finally:
        err_path.unlink(missing_ok=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {text}")
    return ready, text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its workers (through the finally blocks)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (ROOT / "src" / "evarify" / "__init__.py").is_file():
        print(f"error: no evarify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    env = _env()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"{tag}.json"
    result_path.unlink(missing_ok=True)

    setup, imports = [], []
    if args.trace:
        for _ in range(IMPORT_PROBES):
            imports.append(tracing.parse_importtime(_probe(env, ("-X", "importtime"))[1]))
    else:
        setup = [_probe(env)[0] for _ in range(SETUP_SAMPLES - 1)]
    worker, ready = _spawn(
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--result", str(result_path)], env)
    setup.append(ready)
    try:
        _finish(worker, timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    if worker.returncode != 0 or not result_path.is_file():
        print(f"error: worker exited {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())

    if args.trace:
        metrics = dict(result["metrics"])
        for name in ("import.evarify.s", "import.scipy_stats.s"):
            metrics[name] = statistics.median(probe[name] for probe in imports)
        units = dict(tracing.LAYER_METRICS)
        spans = result.pop("spans")
        (OUT / f"{tag}.spans.json").write_text(json.dumps(spans))
    else:
        metrics = dict(result["metrics"], setup_s=statistics.median(setup))
        units = END_TO_END_UNITS
        result["setup_samples_s"] = setup
    result["metrics"] = metrics
    result_path.write_text(json.dumps(result, indent=1))

    detail = {key: result[key] for key in result if key not in ("metrics", "failures")}
    detail["failures"] = result["failures"][:10]
    print(json.dumps({"detail": detail}))
    correct = not result["failures"] and not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
