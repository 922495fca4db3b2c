"""Output checks: each returns a list of problems, empty when the
operation's report is correct.

References live in `reference.json` beside this file (see
`make_reference.py`).  A reference worst value is stored unnormalised,
``worst_value * factor_C``, so a change to a bundle's factor C does not
move it.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Slack on checker constants; the same value as `evarify.checker.SLACK_TOL`.
SLACK_TOL = 1e-7

#: A Monte Carlo estimate must lie within this multiple of its own error
#: bound (a 99% half-width) plus the exact engine's bound.
MC_MULTIPLE = 3.0


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def summarize_certify(report: dict) -> dict:
    """The reference record of a certify report."""
    return {
        "worst_unnormalized": report["worst_value"] * report["factor_C"],
        "methods": sorted({row["method"] for row in report["rows"]}),
    }


def summarize_conditions(report: dict) -> dict:
    """The reference record of a check-conditions report."""
    return {name: rep["estimated_constant"] for name, rep in sorted(report["checks"].items())}


def check_certify(report: dict, ref: dict) -> list[str]:
    """Verdict passes and the unnormalised worst value matches the
    reference within the report's own error bound."""
    problems = []
    if report["verdict"] != "pass":
        problems.append(f"verdict {report['verdict']!r}")
    C = report["factor_C"]
    got = report["worst_value"] * C
    tol = report["worst_error_bound"] * C
    if not abs(got - ref["worst_unnormalized"]) <= tol:
        problems.append(
            f"worst unnormalised value {got!r} differs from reference "
            f"{ref['worst_unnormalized']!r} by more than {tol!r}"
        )
    methods = sorted({row["method"] for row in report["rows"]})
    if methods != ref["methods"]:
        problems.append(f"engines {methods} differ from reference {ref['methods']}")
    return problems


def check_monte_carlo(report: dict, exact: dict) -> list[str]:
    """Every Monte Carlo row agrees with the exact expectation of the same
    composite at the same theta (``exact`` is the report of the same
    configuration under the default plan)."""
    problems = []
    if report["verdict"] != "pass":
        problems.append(f"verdict {report['verdict']!r}")
    exact_rows = {row["theta"]: row for row in exact["rows"]}
    if len(report["rows"]) != len(exact_rows):
        problems.append("row count differs from the exact report")
    for row in report["rows"]:
        ref = exact_rows.get(row["theta"])
        if row["method"] != "monte_carlo" or ref is None:
            problems.append(f"theta {row['theta']!r}: no Monte Carlo row with an exact partner")
            continue
        tol = MC_MULTIPLE * (row["error_bound"] + ref["error_bound"])
        if not abs(row["estimate"] - ref["estimate"]) <= tol:
            problems.append(
                f"theta {row['theta']!r}: Monte Carlo {row['estimate']!r} vs exact "
                f"{ref['estimate']!r} beyond {tol!r}"
            )
    return problems


def check_conditions(report: dict, ref: dict) -> list[str]:
    """Overall pass, the same checks as the reference, and each estimated
    constant within `SLACK_TOL` of it."""
    problems = []
    if report["overall"] != "pass":
        problems.append(f"overall {report['overall']!r}")
    got = summarize_conditions(report)
    if sorted(got) != sorted(ref):
        problems.append(f"checks {sorted(got)} differ from reference {sorted(ref)}")
    for name, want in ref.items():
        value = got.get(name)
        if want is None or value is None:
            if value != want:
                problems.append(f"{name}: estimated constant {value!r}, reference {want!r}")
        elif not abs(value - want) <= SLACK_TOL:
            problems.append(f"{name}: estimated constant {value!r}, reference {want!r}")
    return problems
