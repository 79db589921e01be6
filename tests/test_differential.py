"""Differential test: the library's run() against the readable per-slot
simulation in oracles.py, bit for bit on every summary column.

The library decides a threshold kind's whole chunk from one stacked
eigensolve and steps a queue-driven kind without per-slot state objects;
neither may move a single bit of a run summary. Three scenarios cover one
receiver (fig5), two receivers with an all-ones line of sight
(fig7-baseline) and two receivers with steering phases (fig8a at d_r=1.5),
each at 3000 slots, which spans several chunks and a partial last one.
"""

from dataclasses import replace

import pytest

from wptsim import harness
from wptsim.config import load_preset
from wptsim.policies import POLICY_KINDS
from oracles import run_per_slot

SLOTS = 3000
SCENARIOS = {"fig5": None, "fig7-baseline": None, "fig8a": 1.5}


def inputs(preset, d_r):
    """The preset's scenario at SLOTS slots, with every policy field set so
    that each kind can run on it."""
    exp = load_preset(preset)
    cfg = replace(exp.scenario, slots=SLOTS, seed=7)
    p = exp.params
    params = replace(
        p,
        p_avg=p.p_avg if p.p_avg is not None else 0.5 * p.p_peak,
        p_targets=p.p_targets if p.p_targets is not None else (0.01,) * cfg.n_receivers,
        p_min=p.p_min if p.p_min is not None else 0.005,
    )
    if d_r is not None:
        cfg, params = harness.apply_sweep_value(cfg, params, "d_r", d_r)
    return cfg, params


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return f"ValueError: {err}"


@pytest.mark.parametrize("preset", SCENARIOS)
@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_run_matches_per_slot_oracle(preset, kind):
    cfg, params = inputs(preset, SCENARIOS[preset])
    want = outcome(run_per_slot, cfg, params, kind)
    got = outcome(lambda: harness.run(cfg, params, kind).to_row())
    assert got == want
    if cfg.n_receivers > 1 and kind == "optimal-energy":
        assert "single-receiver" in got  # the one pair that is an error on both sides
