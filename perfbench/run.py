"""wptsim benchmark: host cost per simulated slot, checked for correctness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library is imported from ``src/``, so the
benchmark needs no installed copy and no build step. Workloads are defined
in ``workloads.py``; ``README.md`` lists the metrics and what each should
move.

With ``--trace 0`` the run list is repeated, untraced, until S seconds have
passed, and the end-to-end metrics are reported. With ``--trace 1`` untraced
and traced passes alternate until S seconds have passed, and the per-layer
metrics are reported. Both modes gate every run they make (``gate.py``), re-run a fixed
reference case twice, and print, as the last line of standard output, one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os
import sys

# the simulator is single-threaded and its matrices are 8x8 at most, so BLAS
# and OpenMP pools only add wake-up noise; pin them before numpy is imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gzip
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"
SETUP_RUNS = {"full": 5, "tiny": 1}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_library():
    """Import wptsim from src/ of this checkout and nowhere else."""
    init = SRC / "wptsim" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no library sources at {init}")
    sys.path.insert(0, str(SRC))
    import wptsim

    if Path(wptsim.__file__).resolve() != init.resolve():
        raise BenchError(f"imported wptsim from {wptsim.__file__}, not from {init}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shortens the long workloads' horizon, for the self-test",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def measure_setup(presets, runs: int) -> list:
    """Seconds for a fresh interpreter to import wptsim and load the presets."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import wptsim.config as c; "
        "[c.load_preset(n) for n in sys.argv[2:]]"
    )
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        # no timeout: waiting with one polls the child every 50 ms, which
        # would quantize the measurement
        subprocess.run([sys.executable, "-c", code, str(SRC), *presets], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def provenance() -> dict:
    import numpy
    import yaml

    prov = {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        prov["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        prov["blas"] = None
    if "scipy" in sys.modules:
        prov["scipy"] = sys.modules["scipy"].__version__
    return prov


def load_references() -> dict:
    if not REFERENCES.is_file():
        return {"fixed": {}, "seeds": {}}
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# measurement


def measure(workload, recorder, args, run_dir: Path):
    """Repeat the run list until args.seconds have passed; in trace mode
    alternate untraced and traced passes. Returns (untraced passes, traced
    passes)."""
    from workloads import one_pass

    def run_list(out_dir, tag):
        return workload.run_list(args.seed, args.size, out_dir, tag)

    untraced, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        n = len(untraced)
        with recorder.installed(trace=False):
            untraced.append(one_pass(recorder, run_list, run_dir, f"pass{n}"))
        if args.trace:
            with recorder.installed(trace=True):
                traced.append(one_pass(recorder, run_list, run_dir, f"pass{n}-traced"))
    return untraced, traced


def reference_passes(workload, recorder, run_dir: Path) -> list:
    """The fixed reference case, run twice."""
    from workloads import one_pass

    passes = []
    with recorder.installed(trace=False):
        for i in range(2):
            passes.append(one_pass(recorder, workload.reference_list, run_dir, f"reference{i}"))
    return passes


# ---------------------------------------------------------------------------
# checks


def records_of(recorder, p) -> list:
    return recorder.runs[p.first_run : p.end_run]


def check_all(recorder, passes: list, ref_passes: list, references: dict, args) -> dict:
    """Gate every run; returns a status dict for the report."""
    import gate
    from spans import RunRecord

    for rec in recorder.runs:
        if rec.summary is not None:
            errors, misses = gate.check_summary(rec.summary)
            rec.errors += errors
            rec.misses += misses
        elif not rec.errors:
            rec.errors.append("run returned no summary")

    for p in passes + ref_passes:
        for out in p.outputs:
            owners = recorder.runs[out.first_run : out.end_run]
            errors = gate.check_output(out, owners)
            if errors and not owners:
                recorder.runs.append(RunRecord(f"cli:{out.path.name}", 0, 0.0, None, list(errors)))
            for rec in owners:
                rec.errors += errors

    status = {}
    # every pass of one list has identical inputs: the summaries must be
    # bit-identical, traced or not (criterion 11)
    for group, name in ((passes, "passes"), (ref_passes, "reference passes")):
        base = [r.summary for r in records_of(recorder, group[0])]
        for p in group[1:]:
            recs = records_of(recorder, p)
            if len(recs) != len(base):
                for rec in recs:
                    rec.errors.append(f"{len(recs)} runs in a pass, {len(base)} in the first")
                continue
            for rec, want in zip(recs, base):
                if rec.summary is not None and want is not None and rec.summary.to_row() != want.to_row():
                    rec.errors.append("summary not bit-identical across passes")
        status[f"determinism ({name})"] = f"{len(group)} passes compared"

    fixed = references.get("fixed", {}).get(args.workload)
    status["reference (fixed case)"] = _compare_to_reference(
        records_of(recorder, ref_passes[0]), fixed, "fixed reference case"
    )
    seeded = references.get("seeds", {}).get(args.size, {}).get(args.workload, {}).get(str(args.seed))
    status[f"reference (seed {args.seed})"] = _compare_to_reference(
        records_of(recorder, passes[0]), seeded, f"seed {args.seed}"
    )
    return status


def _compare_to_reference(recs: list, want, what: str) -> str:
    import gate

    if want is None:
        return f"no reference recorded for {what}"
    if len(recs) != len(want):
        for rec in recs:
            rec.errors.append(f"{len(recs)} runs, reference for {what} has {len(want)}")
        return "run count differs"
    mismatched = 0
    for rec, row in zip(recs, want):
        if rec.summary is None:
            continue
        errors = gate.compare_reference(gate.reference_row(rec.summary), row)
        if errors:
            mismatched += 1
            rec.errors += [f"reference ({what}): {e}" for e in errors]
    return f"{len(recs) - mismatched}/{len(recs)} runs match (rtol {gate.REF_RTOL:g})"


# ---------------------------------------------------------------------------
# metrics


def slot_us(records, kinds) -> float:
    picked = [r for r in records if r.kind in kinds]
    slots = sum(r.slots for r in picked)
    return 1e6 * sum(r.seconds for r in picked) / slots if slots else 0.0


def end_to_end(recorder, passes, setup_times) -> tuple:
    from workloads import QUEUE_KINDS, THRESHOLD_KINDS

    per_pass = [records_of(recorder, p) for p in passes]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.seconds for p in passes), "s"),
        "slot_us.threshold": (statistics.median(slot_us(r, THRESHOLD_KINDS) for r in per_pass), "us"),
        "slot_us.queue": (statistics.median(slot_us(r, QUEUE_KINDS) for r in per_pass), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    by_run = {
        f"{i}:{rec.kind}@{rec.slots}": statistics.median(
            1e6 * recs[i].seconds / recs[i].slots for recs in per_pass if len(recs) > i
        )
        for i, rec in enumerate(per_pass[0])
    }
    return metrics, by_run


def per_layer(recorder, untraced, traced) -> tuple:
    from spans import ROOT_SPAN, RUN_SPAN, get, ratio, span_totals

    n = len(traced)
    totals = span_totals(recorder.spans)
    records = [r for p in traced for r in records_of(recorder, p)]
    slots = sum(r.slots for r in records)
    transmit = sum(round(r.summary.duty_cycle * r.slots) for r in records if r.summary is not None)
    eig = get(totals, "linalg.max_eigpair")
    comb = get(totals, "linalg.weighted_combine")
    step = get(totals, "policies.step")
    run = get(totals, RUN_SPAN)
    block = get(totals, "channel.sample_slot_block")
    spec = get(totals, "channel.empirical_gain_spectrum")
    solve = get(totals, "threshold.solve")
    load = get(totals, "config.load")
    root = get(totals, ROOT_SPAN)
    work = recorder.work
    metrics = {
        "linalg.max_eigpair.calls": (eig.calls / n, "count"),
        "linalg.max_eigpair.us_per_call": (1e6 * ratio(eig.seconds, eig.calls), "us"),
        "linalg.max_eigpair.useful_ratio": (ratio(transmit, eig.calls), "ratio"),
        "linalg.weighted_combine.calls": (comb.calls / n, "count"),
        "linalg.weighted_combine.us_per_call": (1e6 * ratio(comb.seconds, comb.calls), "us"),
        "policies.step.calls": (step.calls / n, "count"),
        "policies.step.self_us_per_slot": (1e6 * ratio(step.self_seconds, step.calls), "us"),
        "harness.run.calls": (run.calls / n, "count"),
        "harness.run.self_us_per_slot": (1e6 * ratio(run.self_seconds, slots), "us"),
        "channel.sample_slot_block.calls": (block.calls / n, "count"),
        "channel.sample_slot_block.us_per_slot": (
            1e6 * ratio(block.seconds, work.get("channel.sample_slot_block", 0)), "us"),
        "channel.empirical_gain_spectrum.calls": (spec.calls / n, "count"),
        "channel.empirical_gain_spectrum.s": (spec.seconds / n, "s"),
        "channel.empirical_gain_spectrum.us_per_sample": (
            1e6 * ratio(spec.seconds, work.get("channel.empirical_gain_spectrum", 0)), "us"),
        "threshold.solve.calls": (solve.calls / n, "count"),
        "threshold.solve.s": (solve.seconds / n, "s"),
        "config.load.calls": (load.calls / n, "count"),
        "config.load.s": (load.seconds / n, "s"),
        "trace.overhead_ratio": (
            statistics.median(p.seconds for p in traced) / statistics.median(p.seconds for p in untraced),
            "ratio"),
        "trace.accounted_ratio": (1.0 - ratio(root.self_seconds, root.seconds), "ratio"),
    }
    layers = {
        name: {"calls_per_pass": t.calls / n, "s_per_pass": t.seconds / n, "self_s_per_pass": t.self_seconds / n}
        for name, t in sorted(totals.items())
    }
    if "cli.write_rows" in layers:
        layers["cli.write_rows"]["rows_written_per_pass"] = work["cli.write_rows"] / n
    return metrics, layers


def write_spans(recorder, path: Path) -> None:
    spans = recorder.spans
    origin = spans[0][1] if spans else 0.0
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write('["name", "start_s", "end_s", "parent", "run_id"]\n')
        for name, start, end, parent, run_id in spans:
            fh.write(json.dumps([name, start - origin, end - origin, parent, run_id]) + "\n")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_library()
    except (BenchError, ImportError) as err:
        print(f"perfbench: cannot run: {err}", file=sys.stderr)
        return 2

    # the benchmark's own modules import wptsim, so every function here
    # imports them only after import_library() has found it
    import workloads
    from spans import Recorder

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    recorder = Recorder()
    workload = workloads.make(args.workload, recorder)
    setup_times = [] if args.trace else measure_setup(workload.presets, SETUP_RUNS[args.size])
    untraced, traced = measure(workload, recorder, args, run_dir)
    if not args.trace:
        metrics, by_run = end_to_end(recorder, untraced, setup_times)
    ref = reference_passes(workload, recorder, run_dir)
    status = check_all(recorder, untraced + traced, ref, load_references(), args)
    if args.trace:
        metrics, layers = per_layer(recorder, untraced, traced)
        write_spans(recorder, run_dir / "spans.jsonl.gz")

    attempted = len(recorder.runs)
    failed = sum(1 for r in recorder.runs if r.errors or r.misses)
    correct = not any(r.errors for r in recorder.runs)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "pass_seconds": {"untraced": [p.seconds for p in untraced], "traced": [p.seconds for p in traced]},
        "fail_ratio": {"failed": failed, "attempted": attempted, "value": failed / attempted},
        "checks": status,
        "errors": [f"{r.kind}@{r.slots}: {e}" for r in recorder.runs for e in r.errors],
        "misses": [f"{r.kind}@{r.slots}: {m}" for r in recorder.runs for m in r.misses],
        "provenance": provenance(),
        "notes": [
            "The known -Infinity output (a receiver that harvests nothing) is not exercised: "
            "no preset used here has a zero-harvest receiver.",
        ],
    }
    if args.trace:
        detail["layers"] = layers
        detail["missing_bindings"] = recorder.missing
    else:
        detail["setup_s_runs"] = setup_times
        detail["slot_us_by_run"] = by_run
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced / {len(traced)} traced passes, "
          f"fail_ratio {failed}/{attempted}; detail in {run_dir.relative_to(ROOT)}/result.json")
    prov = detail["provenance"]
    print("  provenance: " + ", ".join(
        f"{key} {prov[key]}" for key in ("host", "nproc", "python", "numpy", "pyyaml", "scipy", "blas") if key in prov
    ) + f", thread vars {THREAD_VARS[0]}={prov['thread_vars'][THREAD_VARS[0]]} (all {len(THREAD_VARS)} pinned)")
    for error in detail["errors"][:20]:
        print(f"  ERROR {error}")
    for miss in detail["misses"][:20]:
        print(f"  MISS  {miss}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
