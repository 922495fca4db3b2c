"""Spans and counters around evarify's public functions, installed from
outside the package.

Each wrapper replaces a function at the name its caller looks up (for
example `evarify.cli.spike_composite`, which the CLI imported by name),
so the program itself is unchanged.  A span records (name, start, end,
parent, op id); self time is a span's duration minus the time its
direct children cover.  Functions called once per sample or per cell
(`Estimator.index`, `CompositeEVariable.__call__`) only count calls.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

LAYERS = ("cli", "families", "verifier", "combinator", "checker")

#: Conditions whose `n_evaluated` the checker's reports carry.
REPORTED_CONDITIONS = ("log_ratio_identity", "cell_sandwich",
                       "divergence_growth", "reverse_triangle")
CONDITIONS = REPORTED_CONDITIONS + ("cell_bound", "step_lower_bound")

ENGINES = ("exact_sum", "quadrature", "monte_carlo")

#: Per-layer metric names and units, in the order the traced run prints
#: them.
LAYER_METRICS = (
    [("import.evarify.s", "s"), ("import.scipy_stats.s", "s")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("families.make_bundle.s", "s"),
        ("verifier.default_theta_grid.s", "s"),
        ("verifier.spike_composite.self_s", "s"),
        ("verifier.spike_suite.s", "s"),
        ("verifier.spike_suite.cells", "count"),
        ("verifier.spike_suite.us_per_cell", "us"),
        ("verifier.sweep.self_s", "s"),
        ("verifier.sweep.thetas", "count"),
    ]
    + [(f"verifier.sweep.rows.{engine}", "count") for engine in ENGINES]
    + [
        ("verifier.expectation.calls", "count"),
        ("verifier.expectation.monte_carlo.self_s", "s"),
        ("verifier.expectation.quadrature.s", "s"),
        ("verifier.expectation.exact_sum.s", "s"),
        ("verifier.certify_interpolated_factor.s", "s"),
        ("combinator.eval_many.s", "s"),
        ("combinator.eval_many.samples", "count"),
        ("combinator.eval_many.us_per_sample", "us"),
        ("combinator.composite_call.calls", "count"),
        ("combinator.components_from_specs.s", "s"),
        ("combinator.combine_discrete.s", "s"),
    ]
    + [(f"checker.{name}.{what}", unit) for name in CONDITIONS
       for what, unit in (("s", "s"), ("n_evaluated", "count"))]
    + [
        ("checker.default_cell_samples.s", "s"),
        ("core.Estimator.index.calls", "count"),
        ("mc_samples_per_s", "1/s"),
        ("trace.overhead_s", "s"),
    ]
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: str | None
    end: float = 0.0
    child_s: float = 0.0
    items: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """Spans and call counters of one traced pass, kept in memory."""

    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    op: str | None = None
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def last_items(self, name: str) -> int:
        """Items of the most recently closed span called ``name``."""
        for span in reversed(self.spans):
            if span.name == name and span.end:
                return span.items
        return 0

    def records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op} for s in self.spans]


def _spanned(tracer: Tracer, name: str, fn, items=None, rename=None):
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if items is not None:
            span.items = items(args, kwargs, result)
        if rename is not None:
            span.name = rename(result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer):
    """Wrap evarify's public functions; returns a function that restores
    the originals."""
    from evarify import checker, cli, combinator, core, verifier

    def cell_bound_items(args, kwargs, result):
        samples = kwargs.get("samples", args[1] if len(args) > 1 else None)
        if samples is None:
            return tracer.last_items("checker.default_cell_samples")
        return len(samples)

    def step_items(args, kwargs, result):
        window = kwargs.get("index_window", args[1] if len(args) > 1 else ())
        return max(0, len(window) - 1)

    length = lambda args, kwargs, result: len(result)  # noqa: E731
    spanned = {
        # (owner, attribute): (span name, items, rename)
        (cli, "make_bundle"): ("families.make_bundle", None, None),
        (cli, "default_theta_grid"): ("verifier.default_theta_grid", None, None),
        (verifier, "default_theta_grid"): ("verifier.default_theta_grid", None, None),
        (cli, "spike_composite"): (
            "verifier.spike_composite",
            lambda args, kwargs, result: len(result.components), None),
        (verifier, "spike_suite"): ("verifier.spike_suite", None, None),
        (cli, "sweep"): ("verifier.sweep", None, None),
        (verifier, "expectation"): (
            "verifier.expectation", None,
            lambda result: f"verifier.expectation.{result.method}"),
        (cli, "certify_interpolated_factor"): (
            "verifier.certify_interpolated_factor", None, None),
        (cli, "interpolated_spike_composite"): (
            "verifier.interpolated_spike_composite", None, None),
        (verifier, "interpolated_spike_composite"): (
            "verifier.interpolated_spike_composite", None, None),
        (cli, "components_from_specs"): ("combinator.components_from_specs", None, None),
        (cli, "combine_discrete"): ("combinator.combine_discrete", None, None),
        (verifier, "combine_discrete"): ("combinator.combine_discrete", None, None),
        (combinator.CompositeEVariable, "eval_many"): ("combinator.eval_many", length, None),
        (cli, "run_all_checks"): ("checker.run_all_checks", None, None),
        (checker, "check_log_ratio_identity"): ("checker.log_ratio_identity", None, None),
        (checker, "check_cell_sandwich"): ("checker.cell_sandwich", None, None),
        (checker, "default_cell_samples"): ("checker.default_cell_samples", length, None),
        (checker, "estimate_cell_bound"): ("checker.cell_bound", cell_bound_items, None),
        (checker, "check_divergence_growth"): ("checker.divergence_growth", None, None),
        (checker, "check_reverse_triangle"): ("checker.reverse_triangle", None, None),
        (checker, "estimate_step_lower_bound"): ("checker.step_lower_bound", step_items, None),
    }
    counted = {
        (combinator.CompositeEVariable, "__call__"): "combinator.composite_call",
        (core.RoundToNet, "index"): "core.Estimator.index",
        (core.CeilDyadic, "index"): "core.Estimator.index",
        (core.REpsilon, "index"): "core.Estimator.index",
    }
    saved = []
    for (owner, attr), (name, items, rename) in spanned.items():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _spanned(tracer, name, original, items, rename))
    for (owner, attr), name in counted.items():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _counted(tracer, name, original))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return restore


def layer_metrics(tracer: Tracer, reports: list[dict]) -> dict[str, float]:
    """Per-layer totals of one traced pass.

    ``reports`` are the pass's parsed CLI reports: engine mix and sweep
    sizes come from certify rows, condition counts from the checker's
    `n_evaluated`.  Metrics of layers the pass never reached are 0.
    """
    total = Counter()
    self_time = Counter()
    items = Counter()
    layer_self = Counter()
    calls = Counter()
    for span in tracer.spans:
        total[span.name] += span.duration
        self_time[span.name] += span.self_s
        items[span.name] += span.items
        calls[span.name] += 1
        layer_self[span.name.split(".")[0]] += span.self_s

    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update({
        "families.make_bundle.s": total["families.make_bundle"],
        "verifier.default_theta_grid.s": total["verifier.default_theta_grid"],
        "verifier.spike_composite.self_s": self_time["verifier.spike_composite"],
        "verifier.spike_suite.s": total["verifier.spike_suite"],
        "verifier.spike_suite.cells": items["verifier.spike_composite"],
        "verifier.sweep.self_s": self_time["verifier.sweep"],
        "verifier.expectation.calls": sum(
            calls[f"verifier.expectation.{engine}"] for engine in ENGINES),
        "verifier.expectation.monte_carlo.self_s": self_time["verifier.expectation.monte_carlo"],
        "verifier.expectation.quadrature.s": total["verifier.expectation.quadrature"],
        "verifier.expectation.exact_sum.s": total["verifier.expectation.exact_sum"],
        "verifier.certify_interpolated_factor.s": total["verifier.certify_interpolated_factor"],
        "combinator.eval_many.s": total["combinator.eval_many"],
        "combinator.eval_many.samples": items["combinator.eval_many"],
        "combinator.composite_call.calls": tracer.counts["combinator.composite_call"],
        "combinator.components_from_specs.s": total["combinator.components_from_specs"],
        "combinator.combine_discrete.s": total["combinator.combine_discrete"],
        "checker.default_cell_samples.s": total["checker.default_cell_samples"],
        "core.Estimator.index.calls": tracer.counts["core.Estimator.index"],
    })
    out["verifier.spike_suite.us_per_cell"] = _per(
        out["verifier.spike_suite.s"], out["verifier.spike_suite.cells"])
    out["combinator.eval_many.us_per_sample"] = _per(
        out["combinator.eval_many.s"], out["combinator.eval_many.samples"])

    rows = Counter()
    thetas = 0
    evaluated = Counter()
    for report in reports:
        for row in report.get("rows", ()):
            rows[row["method"]] += 1
            thetas += 1
        for name, rep in report.get("checks", {}).items():
            evaluated[name] += rep["n_evaluated"]
    out["verifier.sweep.thetas"] = thetas
    out.update({f"verifier.sweep.rows.{engine}": rows[engine] for engine in ENGINES})
    for name in CONDITIONS:
        out[f"checker.{name}.s"] = total[f"checker.{name}"]
        out[f"checker.{name}.n_evaluated"] = (
            evaluated[name] if name in REPORTED_CONDITIONS else items[f"checker.{name}"])
    return out


def _per(seconds: float, count: int) -> float:
    return 1e6 * seconds / count if count else 0.0


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing `evarify` and `scipy.stats`, from the
    output of `python -X importtime`.

    scipy loads `scipy.stats` lazily, so the package has no line of its
    own: its time is the cumulative time of the outermost `scipy.stats.*`
    modules.  The output lists children before their parent, one indent
    level deeper.
    """
    pending: list[tuple[int, list]] = []  # (depth, [module, seconds, children])
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            seconds = int(parts[1]) / 1e6
        except ValueError:  # the header line
            continue
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        node = [name.strip(), seconds, []]
        while pending and pending[-1][0] > depth:
            node[2].append(pending.pop()[1])
        pending.append((depth, node))

    def stats_time(node) -> float:
        module, seconds, children = node
        if module == "scipy.stats" or module.startswith("scipy.stats."):
            return seconds
        return sum(stats_time(child) for child in children)

    roots = [node for _, node in pending]
    return {
        "import.evarify.s": sum(node[1] for node in roots if node[0] == "evarify"),
        "import.scipy_stats.s": sum(stats_time(node) for node in roots),
    }
