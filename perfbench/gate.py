"""Correctness gate: per-run checks, output-file checks and reference summaries.

Every run the benchmark makes, measured, traced or reference, passes through
``check_summary``, which sorts what it finds into two lists:

* errors: the output is wrong. A non-finite field, a drift inequality that
  does not hold, an optimal policy off its budget or target beyond sampling
  error, a malformed or inconsistent output file, a summary that differs
  between identical runs or from its reference. Any error makes the result
  ``correct: false``.
* misses: the output is right, but the run did not meet an operating target
  of its policy: queue stability, the budget or a delivery target. The run
  is a failed operation. It counts in ``failed`` without making the result
  incorrect.

Tolerances:

* Queue-driven runs must report ``queues_stable`` (a miss otherwise) and a
  drift slack within ``harness.DRIFT_SLACK`` (an error otherwise); the
  library only reports the slack, so the benchmark enforces it.
* Queue-driven budget kinds may spend at most 1.02 times the budget and
  mdpp-energy may fall at most 2% short of any delivery target (criterion 05).
* The optimal threshold kinds hit their budget or target only up to sampling
  error, since the threshold comes from a finite warm-up spectrum and the
  average from a finite horizon. Their tolerance is the acceptance
  criteria's 3% (criteria 03 and 04, set at 1e5 slots) or five standard
  errors of the realized duty cycle d over N slots and M warm-up samples,
  sqrt((1 - d) / d * (1/N + 1/M)), whichever is larger. For the energy kind
  this treats each transmitting slot as delivering the same power; the
  spread of the top eigenvalue within the tail adds a few percent to the
  variance, well inside the five-sigma margin.
* Summaries are compared with reference summaries recorded at this commit
  to a relative 1e-9 (absolute 1e-12 for fields near zero). A summary field
  is an average over N <= 1e4 slots, so re-associating its sums moves it by
  about N * 2.2e-16 = 2e-12 relative, 500 times inside the tolerance, while a
  single changed transmit decision moves the duty cycle by 1/N >= 1e-4. The
  drift slack is round-off by definition and is gated, not compared.
"""

from __future__ import annotations

import csv
import json
import math

from wptsim.harness import DRIFT_SLACK

from workloads import QUEUE_KINDS

CRITERION_TOL = 0.03
QUEUE_DELIVERY_TOL = 0.02
QUEUE_BUDGET_RATIO = 1.02
SIGMAS = 5.0
REF_RTOL = 1e-9
REF_ATOL = 1e-12
UNCOMPARED_FIELDS = ("drift_slack_max",)


def sampling_tol(duty: float, slots: int, warmup: int) -> float:
    if duty <= 0.0:
        return 0.0
    se = math.sqrt((1.0 - duty) / duty * (1.0 / slots + 1.0 / warmup))
    return max(CRITERION_TOL, SIGMAS * se)


def check_summary(s) -> tuple:
    """(errors, misses) of one RunSummary; both empty when the run passes."""
    errors, misses = [], []
    for key, value in s.to_row().items():
        if isinstance(value, float) and not math.isfinite(value):
            errors.append(f"{key} is {value}")
    params = s.config["params"]
    if s.policy in QUEUE_KINDS:
        if s.queues_stable is not True:
            misses.append(f"queues not stable: z rates {s.z_rates}")
        if not s.drift_slack_max <= DRIFT_SLACK:
            errors.append(f"drift slack {s.drift_slack_max:.3e} exceeds {DRIFT_SLACK:.0e}")
    if s.policy == "optimal-power":
        dev = abs(s.avg_transmit_power - params["p_avg"]) / params["p_avg"]
        tol = sampling_tol(s.duty_cycle, s.slots, s.config["warmup_samples"])
        if not dev <= tol:
            errors.append(f"transmit power off budget by {dev:.2%} (tol {tol:.2%})")
    elif s.policy in ("mdpp-power", "mmf", "qpf"):
        spend = s.avg_transmit_power / params["p_avg"]
        if not spend <= QUEUE_BUDGET_RATIO:
            misses.append(f"transmit/budget {spend:.4f} exceeds {QUEUE_BUDGET_RATIO}")
    elif s.policy == "optimal-energy":
        target = params["p_targets"][0]
        dev = abs(s.avg_received_power[0] - target) / target
        tol = sampling_tol(s.duty_cycle, s.slots, s.config["warmup_samples"])
        if not dev <= tol:
            errors.append(f"delivery off target by {dev:.2%} (tol {tol:.2%})")
    elif s.policy == "mdpp-energy":
        short = max((t - r) / t for t, r in zip(params["p_targets"], s.avg_received_power))
        if not short <= QUEUE_DELIVERY_TOL:
            misses.append(f"delivery {short:.2%} short of target (tol {QUEUE_DELIVERY_TOL:.0%})")
    return errors, misses


# ---------------------------------------------------------------------------
# output files


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse RFC 8259 JSON: NaN, Infinity and -Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def _read_rows(path, fmt: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    if fmt == "jsonlines":
        lines = text.splitlines()
        if not lines or "meta" not in strict_json(lines[0]):
            raise ValueError("first line is not a meta object")
        return [strict_json(line) for line in lines[1:]]
    lines = text.splitlines(keepends=True)
    meta = [line[2:] for line in lines if line.startswith("# ")]
    strict_json("".join(meta))
    return list(csv.DictReader(line for line in lines if not line.startswith("#")))


def _cell(value, fmt: str):
    """The form a summary value takes in an output row of the given format."""
    if fmt == "jsonlines":
        return value
    return "" if value is None else str(value)


def check_output(output, records) -> list:
    """Problems with one CLI invocation's output file, checked against the
    summaries of the runs that produced it."""
    if output.returncode != 0:
        return [f"cli exited {output.returncode}"]
    if output.printed != str(output.path):
        return [f"cli printed {output.printed!r}, expected the output path"]
    try:
        rows = _read_rows(output.path, output.fmt)
    except (OSError, ValueError, csv.Error) as err:
        return [f"{output.path.name} does not parse: {err}"]
    problems = []
    if len(rows) != output.expected_rows:
        problems.append(f"{len(rows)} rows, expected {output.expected_rows}")
    errors = [row["error"] for row in rows if row.get("error")]
    if errors:
        problems.append(f"error rows: {errors}")
    if len(records) != len(rows):
        problems.append(f"{len(rows)} rows for {len(records)} runs")
        return problems
    for i, (row, rec) in enumerate(zip(rows, records)):
        if rec.summary is None:
            continue
        for key, value in rec.summary.to_row().items():
            if row.get(key) != _cell(value, output.fmt):
                problems.append(f"row {i} {key}: file has {row.get(key)!r}, run returned {value!r}")
    return problems


# ---------------------------------------------------------------------------
# reference summaries


def reference_row(summary) -> dict:
    row = summary.to_row()
    for key in UNCOMPARED_FIELDS:
        row.pop(key, None)
    return row


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=REF_RTOL, abs_tol=REF_ATOL)
    return a == b


def compare_reference(got: dict, want: dict) -> list:
    if set(got) != set(want):
        return [f"fields differ from the reference: {sorted(set(got) ^ set(want))}"]
    return [
        f"{key}: {got[key]!r} vs reference {want[key]!r}"
        for key in want
        if not _same(got[key], want[key])
    ]
