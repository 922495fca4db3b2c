"""Write the reports of 53 CLI runs, for comparing trees: the benchmark's
33 and 20 that build the bundles or composites it never builds, or take
a path it never takes.

    python3 tools/report_bytes.py OUT_DIR [--against OTHER_DIR]

Runs, from the checkout this file sits in and with BLAS/OpenMP on one
thread, every operation of the three benchmark workloads at seed 1 (28
runs, from ``perfbench.workloads.build``), the exact-plan twin of each
Monte Carlo operation (5 runs, ``workloads.exact_config``), and at seed 1
the ``certify`` and ``check-conditions`` runs of each of ``EXTRA_FAMILIES``
(12 runs, ``extra.spikes.<name>`` and ``extra.conditions.<name>``), plus
the interpolated certify of normal_mean with epsilon 0.1, the ``ones``
suite of poisson, the poisson counterexample at lambda 50 and the
check-conditions of normal_mean with alpha 1e4, whose log-ratio identity
fails with ten witnesses (4 runs), and the certify of a composite of
generic components on non-adjacent keys on each of cauchy with epsilon
0.2 and poisson (2 runs, ``extra.generic.<name>``), and the interpolated
certify of cauchy with epsilon 0.2 at theta -1e6, 0.3 and 1e6 (1 run,
``extra.interpolated.cauchy.eps0.2.far``), and the Monte Carlo certify of
poisson's spikes at lambda 1e6 with 64 samples, whose draws span more
support points than there are samples, so the composite is read at each
draw, not once per support point as in the benchmark's (1 run,
``extra.mc.poisson.wide``).
For each run it writes ``OUT_DIR/<op>.json`` (the report, absent when the run wrote
none), ``OUT_DIR/<op>.csv`` (the same run's report with ``--format csv``)
and ``OUT_DIR/<op>.stdout`` (standard output, then the exit code).
The exact twins are named ``<op>.exact``.  Two trees give the same
results when ``diff -r`` finds no difference between their OUT_DIRs.

With ``--against OTHER_DIR`` (an OUT_DIR written earlier, for example
from another checkout) it then prints, for each run whose files differ
from OTHER_DIR's, what moved: for a certify report the largest |change|
of any row's estimate and that row's ``error_bound`` here (when rows'
thetas moved, how many rows and the largest relative move), for a
check-conditions report each check's ``estimated_constant`` or
``max_violation`` that moved, or, when it differs in anything else,
each differing field with its old and new value.  It exits with 1 when
any row's move exceeds that row's own bound, when a check's value moves
by more than ``CHECK_TOL``, when a report differs in anything else
(beyond the rows' estimates and error bounds and the worst row's theta,
estimate and error bound, which may move to another row among near-ties
but must be the new report's own worst row as ``sweep`` picks it), or
when the standard output differs in a verdict line or the exit code (its
lines compared with their numbers masked, the exit code as it is).  A CSV
report may differ only where its JSON twin differs and that move is
accepted.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from evarify import cli  # noqa: E402

SEED = 1


#: the bundles the benchmark never builds: (name, CLI family flags)
EXTRA_FAMILIES = (
    ("binomial.n4", ("--family", "binomial", "--n", "4")),
    ("cauchy", ("--family", "cauchy")),
    ("normal_mean.alpha0.5.n3", ("--family", "normal_mean", "--alpha", "0.5", "--n", "3")),
    ("normal_mean.eps0.1", ("--family", "normal_mean", "--epsilon", "0.1")),
    ("normal_variance.n4", ("--family", "normal_variance", "--n", "4")),
    ("normal_variance.n5", ("--family", "normal_variance", "--n", "5")),
)


def _generic_keys(family: dict, thetas: list, keys: list, alternative) -> dict:
    """A certify config of likelihood-ratio components on the given net
    indices, against the alternatives ``alternative(k)``."""
    return {"command": "certify", "family": family, "mode": {"kind": "discrete"},
            "theta_grid": {"values": thetas},
            "components": [{"index": k, "type": "likelihood_ratio",
                            "alternative": alternative(k)} for k in keys]}


#: composites of generic components whose keys leave gaps, where the
#: composite is its default level: (name, certify config)
EXTRA_GENERIC = (
    ("cauchy.eps0.2.gaps", _generic_keys({"name": "cauchy", "params": {"epsilon": "0.2"}},
                                         [0.5, -4.25, 9.0], [-6, -2, 0, 3, 9],
                                         lambda k: k + 0.3)),
    ("poisson.gaps", _generic_keys({"name": "poisson", "params": {}},
                                   [0.5, 9.0, 30.25, 200.0], [1, 3, 6, 10],
                                   lambda k: 1.2 * k * k + 0.5)),
)


def runs():
    """(name, argv without --seed/--out, config or None, seed or None) of
    each run."""
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, SEED):
            yield op.name, op.argv, op.config, op.seed
            if op.kind == "monte_carlo":
                yield f"{op.name}.exact", op.argv, workloads.exact_config(op.config), op.seed
    for name, flags in EXTRA_FAMILIES:
        yield f"extra.spikes.{name}", ("certify", *flags), None, SEED
        yield f"extra.conditions.{name}", ("check-conditions", *flags), None, SEED
    yield ("extra.interpolated.normal_mean.eps0.1",
           ("certify", "--family", "normal_mean", "--epsilon", "0.1", "--mode", "interpolated"),
           None, SEED)
    yield ("extra.interpolated.cauchy.eps0.2.far", ("certify",),
           {"command": "certify", "family": {"name": "cauchy", "params": {"epsilon": "0.2"}},
            "mode": {"kind": "interpolated"}, "theta_grid": {"values": [-1e6, 0.3, 1e6]}}, SEED)
    yield ("extra.mc.poisson.wide", ("certify",),
           {"command": "certify", "family": {"name": "poisson", "params": {}},
            "suite": "spikes", "mode": {"kind": "discrete"}, "theta_grid": {"values": [1e6]},
            "plan": {"method": "monte_carlo", "samples": 64}}, SEED)
    yield "extra.ones.poisson", ("certify", "--family", "poisson", "--suite", "ones"), None, SEED
    for name, config in EXTRA_GENERIC:
        yield f"extra.generic.{name}", ("certify",), config, SEED
    yield ("extra.conditions.normal_mean.alpha1e4",
           ("check-conditions", "--family", "normal_mean", "--alpha", "1e4"), None, SEED)
    # counterexample takes no --seed
    yield ("extra.counterexample.poisson",
           ("counterexample", "--family", "poisson", "--lambda", "50"), None, None)


#: report fields that may move within a row's error bound, and the worst
#: row's copies of them (see compare)
_WORST = ("worst_theta", "worst_value", "worst_error_bound")
_MOVABLE = ("estimate", "error_bound", *_WORST)


def _fixed(records: list) -> list:
    return [{k: v for k, v in r.items() if k not in _MOVABLE} for r in records]


def compare(new: dict, old: dict) -> tuple[float, dict | None, list] | None:
    """How report ``new`` moved from ``old``: (the largest |change| of a
    row's estimate, that row, the thetas of the rows that moved beyond
    their own error bound), or None when they differ in anything else or
    ``new``'s worst row is not its own worst row, the greatest (estimate,
    theta) as ``sweep`` picks it."""
    new, old = dict(new), dict(old)
    rows, old_rows = new.pop("rows", None), old.pop("rows", None)
    if rows is None or old_rows is None or _fixed([new, *rows]) != _fixed([old, *old_rows]):
        return None
    if rows:
        worst = max(rows, key=lambda r: (r["estimate"], r["theta"]))
        if repr([new.get(k) for k in _WORST]) != repr(
                [worst["theta"], worst["estimate"], worst["error_bound"]]):
            return None
    deltas = [abs(r["estimate"] - o["estimate"]) for r, o in zip(rows, old_rows)]
    over = [r["theta"] for d, r in zip(deltas, rows) if not d <= r["error_bound"]]
    if not rows:
        return 0.0, None, over
    i = max(range(len(rows)), key=deltas.__getitem__)
    return deltas[i], rows[i], over


def theta_moves(new: dict, old: dict) -> tuple[int, float] | None:
    """How the thetas of certify report ``new``'s rows moved from
    ``old``'s: (the number of rows whose theta moved, the largest relative
    move), or None when no theta moved or the reports have no rows of the
    same count."""
    rows, old_rows = new.get("rows"), old.get("rows")
    if rows is None or old_rows is None or len(rows) != len(old_rows):
        return None
    pairs = [(r["theta"], o["theta"]) for r, o in zip(rows, old_rows) if r["theta"] != o["theta"]]
    if not pairs:
        return None
    return len(pairs), max(abs(t - was) / abs(was) if was else math.inf for t, was in pairs)


#: check fields that may move, and by at most this much (perfbench's
#: SLACK_TOL)
_CHECK_MOVABLE = ("estimated_constant", "max_violation")
CHECK_TOL = 1e-7


def compare_checks(new: dict, old: dict) -> list | None:
    """How check-conditions report ``new`` moved from ``old``: (check,
    field, old value, new value) for each estimated constant or
    max_violation that moved, or None when they differ in anything else
    (a value that appears or vanishes included)."""
    new, old = dict(new), dict(old)
    checks, old_checks = new.pop("checks", None), old.pop("checks", None)
    if checks is None or old_checks is None or new != old or checks.keys() != old_checks.keys():
        return None
    moves = []
    for name in checks:
        mine, theirs = dict(checks[name]), dict(old_checks[name])
        for key in _CHECK_MOVABLE:
            value, was = mine.pop(key, None), theirs.pop(key, None)
            if value is None or was is None:
                if value is not was:
                    return None
            elif repr(value) != repr(was):  # NaN equals itself here
                moves.append((name, key, was, value))
        if mine != theirs:
            return None
    return moves


def check_differences(new: dict, old: dict) -> list:
    """Each field in which check-conditions report ``new`` differs from
    ``old``, as (where, old value, new value): a check's field is where
    "<check> <field>", a report's own field its key, and a field one side
    lacks has the value ``absent`` there."""
    def fields(doc):
        checks = doc.get("checks") or {}
        return {**{key: value for key, value in doc.items() if key != "checks"},
                **{f"{check} {key}": value for check, rep in checks.items()
                   for key, value in rep.items()}}

    mine, theirs = fields(new), fields(old)
    pairs = [(where, theirs.get(where, "absent"), mine.get(where, "absent"))
             for where in {**mine, **theirs}]
    return [(where, was, value) for where, was, value in pairs if repr(was) != repr(value)]


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def same_verdicts(new: str, old: str) -> bool:
    """Whether two runs' standard outputs agree in every line but its
    numbers, and in the last line (the exit code) as it is."""
    mine, theirs = new.splitlines(), old.splitlines()
    return (mine[-1:] == theirs[-1:]
            and [_NUMBER.sub("#", line) for line in mine] == [_NUMBER.sub("#", line) for line in theirs])


def _report_moves(name: str, new: dict, old: dict) -> int:
    """Print how a report moved; 1 if beyond what is allowed."""
    if "checks" in new:
        moves = compare_checks(new, old)
        if moves is None:
            print(f"{name}: differs beyond check constants and max violations")
            for where, was, value in check_differences(new, old):
                print(f"{name}: {where} {was} -> {value}")
            return 1
        status = 0
        for check, key, was, value in moves:
            delta = abs(value - was)
            print(f"{name}: {check} {key} moved by {delta:.3g} ({was!r} -> {value!r})")
            if not delta <= CHECK_TOL:
                print(f"{name}: EXCEEDS {CHECK_TOL:g} at {check} {key}")
                status = 1
        return status
    moved = compare(new, old)
    if moved is None:
        print(f"{name}: differs beyond row estimates and error bounds")
        shifted = theta_moves(new, old)
        if shifted is not None:
            print(f"{name}: theta moved on {shifted[0]} of {len(new['rows'])} rows, "
                  f"by at most {shifted[1]:.3g} relative")
        return 1
    delta, row, over = moved
    where = "" if row is None else (f" at theta = {row['theta']!r}, "
                                    f"error_bound = {row['error_bound']:.3g}")
    print(f"{name}: max |delta estimate| = {delta:.3g}{where}")
    if over:
        print(f"{name}: EXCEEDS its error bound at theta = {over!r}")
        return 1
    return 0


def _moves(out: Path, other: Path) -> int:
    """Print each run whose files differ from OTHER_DIR's; 1 if any moved
    beyond what is allowed (see the module docstring)."""
    status = 0
    for name, *_ in runs():
        report_moved = None  # the JSON report's status: None when it did not move
        for suffix in (".stdout", ".json", ".csv"):
            mine, theirs = out / f"{name}{suffix}", other / f"{name}{suffix}"
            if mine.exists() != theirs.exists():
                print(f"{name}: {suffix[1:]} missing on one side")
                status = 1
            elif not mine.exists() or mine.read_bytes() == theirs.read_bytes():
                continue
            elif suffix == ".stdout":
                if not same_verdicts(mine.read_text(), theirs.read_text()):
                    print(f"{name}: standard output differs in a verdict line or the exit code")
                    status = 1
            elif suffix == ".json":
                report_moved = _report_moves(name, json.loads(mine.read_bytes()),
                                             json.loads(theirs.read_bytes()))
                status |= report_moved
            elif report_moved != 0:
                print(f"{name}: csv differs where its JSON report makes no accepted move")
                status = 1
    return status


def main(argv: list[str]) -> int:
    against = None
    if len(argv) == 3 and argv[1] == "--against":
        argv, against = argv[:1], Path(argv[2])
    if len(argv) != 1:
        print("usage: python3 tools/report_bytes.py OUT_DIR [--against OTHER_DIR]",
              file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for name, op_argv, config, seed in runs():
        args = list(op_argv) + ([] if seed is None else ["--seed", str(seed)])
        if config is not None:
            path = out / f"{name}.config.json"
            path.write_text(json.dumps(config))
            args += ["--config", str(path)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.run(args + ["--out", str(out / f"{name}.json")])
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(args + ["--out", str(out / f"{name}.csv"), "--format", "csv"])
        if config is not None:
            path.unlink()
        (out / f"{name}.stdout").write_text(f"{stdout.getvalue()}exit code {rc}\n")
    return 0 if against is None else _moves(out, against)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
