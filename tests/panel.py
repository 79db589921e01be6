"""A fixed differential panel of run summaries, recorded and compared.

    PYTHONPATH=src python tests/panel.py record OUT
    PYTHONPATH=src python tests/panel.py compare A B

record runs the panel and writes one JSON line per case: the case name and
its to_row(), every float as float.hex(), or the error the run raised.
compare reads two such files and prints one verdict:

* bit-identical: every case has the same row, bit for bit;
* round-off: the same cases, errors and non-float fields, the same
  duty_cycle (so the same number of transmitting slots), every other float
  within ROUND_OFF relative, and drift_slack_max, which is round-off by
  construction, within the run's own bound DRIFT_SLACK on both sides; the
  largest relative difference and, apart from it, the largest change of
  drift_slack_max are shown;
* moved: anything else, with the differing cases named.

The panel covers every preset and every kind (seeds 24-29), V at its
default, 0.5 and 500 (every preset and queue-driven kind, seed 24), and
K = 1, 2 and 3 receivers at rician_kappa 0, 3 and inf (steering line of
sight, every kind, seed 24), all at 3000 slots. Record it with the parent
and with the change on PYTHONPATH, then compare the two files. Per-slot
transmit decisions are not recorded: run() does not expose them, so a
moved decision shows only through the summary fields.
"""

import json
import math
import sys
from dataclasses import replace

from wptsim.channel import ScenarioConfig
from wptsim.config import load_preset, preset_names
from wptsim.harness import DRIFT_SLACK, WARMUP_SAMPLES, run
from wptsim.policies import POLICY_KINDS, QUEUE_DRIVEN_KINDS, PolicyParams

SLOTS = 3000
SEEDS = tuple(range(24, 30))
V_VALUES = (0.5, 500.0)
KAPPAS = (0.0, 3.0, math.inf)
POSITIONS = ((0.3, 0.3), (0.0, 0.5), (-0.4, 0.2))
ROUND_OFF = 1e-12


def _filled(params, k):
    """params with every field set that some kind needs, as
    test_differential.py fills them."""
    return replace(
        params,
        p_avg=params.p_avg if params.p_avg is not None else 0.5 * params.p_peak,
        p_targets=params.p_targets if params.p_targets is not None else (0.01,) * k,
        p_min=params.p_min if params.p_min is not None else 0.005,
    )


def cases(slots=SLOTS, seeds=SEEDS):
    """(name, cfg, params, kind) of every run of the panel."""
    for preset in preset_names():
        exp = load_preset(preset)
        params = _filled(exp.params, exp.scenario.n_receivers)
        for seed in seeds:
            cfg = replace(exp.scenario, slots=slots, seed=seed)
            for kind in POLICY_KINDS:
                yield f"{preset} {kind} seed={seed}", cfg, params, kind
        cfg = replace(exp.scenario, slots=slots, seed=seeds[0])
        for v in V_VALUES:
            for kind in QUEUE_DRIVEN_KINDS:
                yield f"{preset} {kind} seed={seeds[0]} v={v}", cfg, replace(params, v=v), kind
    for k in (1, 2, 3):
        for kappa in KAPPAS:
            cfg = ScenarioConfig(
                positions=POSITIONS[:k], rician_kappa=kappa, los_mode="steering", slots=slots, seed=seeds[0]
            )
            params = _filled(PolicyParams(p_peak=10.0), k)
            for kind in POLICY_KINDS:
                yield f"K={k} kappa={kappa} {kind} seed={seeds[0]}", cfg, params, kind


def _encoded(row):
    return {key: v.hex() if isinstance(v, float) else v for key, v in row.items()}


def record(path, slots=SLOTS, seeds=SEEDS, warmup_samples=WARMUP_SAMPLES):
    """Run the panel and write its rows to path; returns the number of cases."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for name, cfg, params, kind in cases(slots, seeds):
            try:
                entry = {"case": name, "row": _encoded(run(cfg, params, kind, warmup_samples).to_row())}
            except (ValueError, ArithmeticError) as err:
                entry = {"case": name, "error": f"{type(err).__name__}: {err}"}
            fh.write(json.dumps(entry) + "\n")
            n += 1
    return n


def _load(path):
    with open(path, encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    return {entry["case"]: entry for entry in entries}


def _float(value):
    """The float a row value encodes, or None for a non-float value."""
    try:
        return float.fromhex(value) if isinstance(value, str) else None
    except ValueError:
        return None


def _relative_difference(a, b):
    """(the largest relative difference between two rows' floats other than
    drift_slack_max, the change of drift_slack_max); the first is inf when
    the rows differ in anything but float round-off, in duty_cycle, or in a
    drift_slack_max beyond DRIFT_SLACK on either side."""
    if "row" not in a or "row" not in b or a["row"].keys() != b["row"].keys():
        return math.inf, 0.0
    worst, slack = 0.0, 0.0
    for key, va in a["row"].items():
        vb = b["row"][key]
        if va == vb:
            continue
        fa, fb = _float(va), _float(vb)
        if key == "duty_cycle" or fa is None or fb is None or not (math.isfinite(fa) and math.isfinite(fb)):
            return math.inf, slack
        if key == "drift_slack_max":
            slack = abs(fa - fb)
            if not max(fa, fb) <= DRIFT_SLACK:
                return math.inf, slack
        else:
            worst = max(worst, abs(fa - fb) / max(abs(fa), abs(fb)))
    return worst, slack


def compare(path_a, path_b):
    """The verdict line for the change from panel file path_a to path_b."""
    a, b = _load(path_a), _load(path_b)
    if a.keys() != b.keys():
        return f"moved: the cases differ: {sorted(a.keys() ^ b.keys())}"
    diffs = {name: _relative_difference(a[name], b[name]) for name in a if a[name] != b[name]}
    if not diffs:
        return f"bit-identical: {len(a)} cases"
    moved = [name for name, (d, _) in diffs.items() if not d <= ROUND_OFF]
    if moved:
        return f"moved: {len(moved)} of {len(a)} cases: {', '.join(moved)}"
    worst = max(d for d, _ in diffs.values())
    slack = max(s for _, s in diffs.values())
    return (
        f"round-off: {len(diffs)} of {len(a)} cases differ, max relative difference {worst:.3e}, "
        f"drift_slack_max max change {slack:.3e}"
    )


def main(argv):
    if len(argv) == 2 and argv[0] == "record":
        print(f"recorded {record(argv[1])} cases to {argv[1]}")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        verdict = compare(argv[1], argv[2])
        print(verdict)
        return 1 if verdict.startswith("moved") else 0
    print("usage: panel.py record OUT | panel.py compare A B", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
