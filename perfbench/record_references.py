"""Record the reference summaries that later benchmark runs are compared with.

    python3 perfbench/record_references.py --seeds 0-23

Run from the repository root. For every workload it records the fixed
reference case and, for each seed, one pass of the full-size run list, and
writes them to perfbench/references.json. A run whose output the gate finds
wrong is not recorded: the script stops instead. Runs that miss an operating
target (see gate.py) are recorded as they are.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # pins the thread variables before numpy is imported


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_pass(recorder, workload_run, out_dir, tag) -> list:
    import gate
    from workloads import one_pass

    with recorder.installed(trace=False):
        p = one_pass(recorder, workload_run, out_dir, tag)
    records = run.records_of(recorder, p)
    errors = [f"{r.kind}: {msg}" for r in records for msg in r.errors]
    for r in records:
        if r.summary is not None:
            errors += [f"{r.kind}: {msg}" for msg in gate.check_summary(r.summary)[0]]
    for out in p.outputs:
        errors += gate.check_output(out, recorder.runs[out.first_run : out.end_run])
    if errors:
        raise SystemExit(f"refusing to record {tag}: {errors}")
    return [gate.reference_row(r.summary) for r in records]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-23"))
    args = parser.parse_args(argv)
    run.import_library()

    import workloads
    from spans import Recorder

    out_dir = run.OUT_DIR / "record"
    out_dir.mkdir(parents=True, exist_ok=True)
    refs = {"recorded_with": run.provenance(), "fixed": {}, "seeds": {"full": {}}}
    for name in workloads.WORKLOADS:
        recorder = Recorder()
        workload = workloads.make(name, recorder)
        refs["fixed"][name] = record_pass(recorder, workload.reference_list, out_dir, f"{name}-fixed")
        per_seed = refs["seeds"]["full"][name] = {}
        for seed in args.seeds:
            per_seed[str(seed)] = record_pass(
                recorder,
                lambda d, t, seed=seed: workload.run_list(seed, "full", d, t),
                out_dir,
                f"{name}-seed{seed}",
            )
            print(f"{name} seed {seed}: {len(per_seed[str(seed)])} runs", file=sys.stderr, flush=True)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
