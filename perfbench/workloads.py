"""The benchmark's workloads: inputs generated from a seed, and one pass
over each workload's run list.

Every workload is a closed loop in one process with no added threads: each
run starts when the previous one returns.

* unweighted-beams: the four kinds whose beam direction does not depend on
  queue state (optimal-energy and mdpp-energy on fig5 with one receiver,
  optimal-power and mdpp-power on fig7-baseline) at a long horizon.
* weighted-beams: mmf and qpf on fig8a at distance ratio 1.5 (steering
  line of sight) and mdpp-energy on fig4 (two receivers, n_tx=10, n_rx=2),
  whose beams depend on the queues every slot, plus optimal-power on the
  same fig8a scenario as the fairness policies' optimal reference.
* short-sweeps: ``wptsim compare --preset fig5`` and ``wptsim sweep
  --preset fig6`` through ``cli.main`` at a short horizon, with the output
  files written, so per-run fixed costs (warm-up spectrum, config, output)
  dominate.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from wptsim import cli, config, harness

from spans import ROOT_SPAN

THRESHOLD_KINDS = ("optimal-energy", "optimal-power")
QUEUE_KINDS = ("mdpp-energy", "mdpp-power", "mmf", "qpf")

# evaluated slots per run of the two long workloads
LONG_SLOTS = {"full": 10_000, "tiny": 2_000}
# horizon of the CLI runs; the library's queue-stability verdict (backlog
# rate within 1e-3 of the power scale) needs a few thousand slots, because a
# single peak-power slot of backlog exceeds it on shorter horizons
SHORT_SLOTS = 2_000
# fixed scenario seed of the reference case that every invocation re-runs
REFERENCE_SEED = 424_242


@dataclass(frozen=True)
class Case:
    preset: str
    kind: str
    d_r: Optional[float] = None


@dataclass
class Output:
    """One CLI invocation: its output file and the runs that produced it."""

    path: Path
    fmt: str
    expected_rows: int
    returncode: int
    printed: str
    first_run: int
    end_run: int


@dataclass
class Pass:
    """One pass over a run list."""

    seconds: float
    first_run: int
    end_run: int
    outputs: list


def scenario_seed(seed: int, index: int) -> int:
    """Scenario seed of the index-th input generated from a benchmark seed."""
    return 16 * seed + index


def case_inputs(case: Case, seed: int, slots: int):
    """The ScenarioConfig and PolicyParams the library receives for one case."""
    exp = config.load_preset(case.preset)
    cfg = replace(exp.scenario, slots=slots, seed=seed)
    params = exp.params
    if case.d_r is not None:
        cfg, params = harness.apply_sweep_value(cfg, params, "d_r", case.d_r)
    return cfg, params


class LongWorkload:
    """A list of harness.run calls; writes no files."""

    def __init__(self, cases: tuple):
        self.cases = cases
        self.presets = tuple(dict.fromkeys(c.preset for c in cases))

    def _run_cases(self, seed: int, slots: int) -> list:
        for i, case in enumerate(self.cases):
            cfg, params = case_inputs(case, scenario_seed(seed, i), slots)
            try:
                harness.run(cfg, params, case.kind)
            except (ValueError, ArithmeticError):
                pass  # recorded as a failed run at the binding
        return []

    def run_list(self, seed: int, size: str, out_dir: Path, tag: str) -> list:
        return self._run_cases(seed, LONG_SLOTS[size])

    def reference_list(self, out_dir: Path, tag: str) -> list:
        return self._run_cases(REFERENCE_SEED, SHORT_SLOTS)


class CliWorkload:
    """compare --preset fig5 (CSV) and sweep --preset fig6 (JSON lines)."""

    presets = ("fig5", "fig6")
    sweep_reps = 1

    def __init__(self, recorder):
        self.recorder = recorder
        fig6 = config.load_preset("fig6")
        self.sweep_rows = len(fig6.sweep.values) * self.sweep_reps * len(fig6.kinds)

    def _main(self, argv: list, path: Path, fmt: str, expected_rows: int) -> Output:
        first = len(self.recorder.runs)
        buf = io.StringIO()
        with self.recorder.span("cli.main"), redirect_stdout(buf):
            rc = cli.main(argv + ["--out", str(path), "--format", fmt])
        return Output(path, fmt, expected_rows, rc, buf.getvalue().strip(), first, len(self.recorder.runs))

    def compare(self, seed: int, out_dir: Path, tag: str) -> Output:
        path = out_dir / f"{tag}-compare-fig5.csv"
        argv = ["compare", "--preset", "fig5", "--slots", str(SHORT_SLOTS), "--seed", str(seed)]
        return self._main(argv, path, "csv", 2)

    def sweep(self, seed: int, out_dir: Path, tag: str) -> Output:
        path = out_dir / f"{tag}-sweep-fig6.jsonl"
        argv = ["sweep", "--preset", "fig6", "--slots", str(SHORT_SLOTS), "--seed", str(seed),
                "--reps", str(self.sweep_reps)]
        return self._main(argv, path, "jsonlines", self.sweep_rows)

    def run_list(self, seed: int, size: str, out_dir: Path, tag: str) -> list:
        return [
            self.compare(scenario_seed(seed, 0), out_dir, tag),
            self.sweep(scenario_seed(seed, 1), out_dir, tag),
        ]

    def reference_list(self, out_dir: Path, tag: str) -> list:
        return [self.compare(scenario_seed(REFERENCE_SEED, 0), out_dir, tag)]


def make(name: str, recorder):
    if name == "unweighted-beams":
        return LongWorkload(
            (
                Case("fig5", "optimal-energy"),
                Case("fig5", "mdpp-energy"),
                Case("fig7-baseline", "optimal-power"),
                Case("fig7-baseline", "mdpp-power"),
            ),
        )
    if name == "weighted-beams":
        return LongWorkload(
            (
                Case("fig8a", "mmf", 1.5),
                Case("fig8a", "qpf", 1.5),
                Case("fig8a", "optimal-power", 1.5),
                Case("fig4", "mdpp-energy"),
            ),
        )
    if name == "short-sweeps":
        return CliWorkload(recorder)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("unweighted-beams", "weighted-beams", "short-sweeps")


def one_pass(recorder, run, out_dir: Path, tag: str) -> Pass:
    """Run `run(out_dir, tag)` once under a root span and time it."""
    first = len(recorder.runs)
    start = time.perf_counter()
    with recorder.span(ROOT_SPAN):
        outputs = run(out_dir, tag)
    seconds = time.perf_counter() - start
    return Pass(seconds, first, len(recorder.runs), outputs)
