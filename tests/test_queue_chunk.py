"""The queue chunk kernel (every queue-driven kind) against the readable
per-slot simulation, its batched checks, and core_step's dispatch of every
kind to its block kernel.

The kernel steps a whole chunk per call and checks the residual of every
slot's top eigenpair once per chunk. It must reproduce
tests/oracles.run_per_slot bit for bit beyond the presets of
test_differential.py (three receivers, extreme V, pure line of sight, random
scenarios), and each check it batches must still fail a run with the error
the slot-by-slot checks raise.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptsim import harness, linalg, policies
from wptsim.channel import KAPPA_LOS_LIMIT, ScenarioConfig
from wptsim.policies import POLICY_KINDS, QUEUE_DRIVEN_KINDS, PolicyParams, core_step
from wptsim.threshold import ThresholdValue
from oracles import run_per_slot
from test_linalg import not_converging

QUEUE_CHUNK_KINDS = QUEUE_DRIVEN_KINDS
THRESHOLD_KINDS = tuple(kind for kind in POLICY_KINDS if kind not in QUEUE_CHUNK_KINDS)
POSITIONS = ((0.3, 0.3), (0.0, 0.5), (-0.4, 0.2))
THREE_RX = ScenarioConfig(n_tx=8, n_rx=4, positions=POSITIONS, slots=1100, seed=11, los_mode="steering")
PARAMS = PolicyParams(p_peak=10.0, p_avg=5.0, p_targets=(0.05, 0.03, 0.04), p_min=0.005)
# V of the gate runs: mdpp-energy's queues grow by the targets each slot,
# so a small V lets it transmit within a 64-slot block; mdpp-power's budget
# queue climbs by p_peak - p_avg per transmitting slot to about V lambda_max
# (sum_i W_i) ~ 17 before it alternates transmitting and silent slots
GATE_V = {"mdpp-energy": 0.01, "mdpp-power": 500.0, "mmf": 2.0, "qpf": 2.0}


def test_the_kinds_are_those_the_kernel_steps(monkeypatch):
    slots = [policies.POLICIES[kind].slot for kind in QUEUE_CHUNK_KINDS]
    assert all(callable(slot) for slot in slots) and len(set(slots)) == len(slots)
    assert all(policies.POLICIES[kind].slot is None for kind in THRESHOLD_KINDS)
    # a threshold kind steps a block with no queues (at a zero threshold
    # every slot transmits), so a run's drift check reads 0 and its queue
    # rates are empty
    cfg = replace(THREE_RX, slots=64, seed=3)
    ws_block = linalg.grams(harness.sample_slot_block(cfg, harness.evaluation_rng(cfg), cfg.slots))
    for kind in THRESHOLD_KINDS:
        qs, ds, received = core_step(kind, np.zeros(0), PARAMS, ws_block, 1.0, ThresholdValue(0.0, 1.0))
        assert qs.shape == (65, 0) and ds.shape == (64, 0) and np.shape(received) == (64, 3)
        k = 1 if policies.POLICIES[kind].combine_rule == "single" else 3
        summary = harness.run(replace(cfg, positions=POSITIONS[:k], slots=600), params_for(k, None), kind, 512)
        assert summary.duty_cycle > 0.0 and summary.drift_slack_max == 0.0
        assert summary.z_rates == summary.g_rates == ()
    # core_step sends a queue kind to _queue_chunk with its slot function,
    # and a threshold kind to _threshold_chunk with its combine rule
    stepped = []
    monkeypatch.setattr(policies, "_queue_chunk", lambda slot, *args: stepped.append(slot))
    monkeypatch.setattr(policies, "_threshold_chunk", lambda rule, th, peak, *args: stepped.append((rule, th, peak)))
    for kind in POLICY_KINDS:
        core_step(kind, None, PARAMS, None, None, ThresholdValue(2.5, 1.0))
    want = {"optimal-energy": ("single", 2.5, 10.0), "optimal-power": ("sum", 2.5, 10.0)}
    assert stepped == [want[kind] if kind in want else policies.POLICIES[kind].slot for kind in POLICY_KINDS]


def params_for(k, v):
    """PARAMS for k receivers at control parameter v."""
    return replace(PARAMS, v=v, p_targets=PARAMS.p_targets[:k])


def rows(cfg, params, kind):
    """(kernel row, oracle row) of one run."""
    return harness.run(cfg, params, kind).to_row(), run_per_slot(cfg, params, kind)


@pytest.mark.parametrize("kind", QUEUE_CHUNK_KINDS)
@pytest.mark.parametrize(
    "case",
    [
        (THREE_RX, 0.5),
        (THREE_RX, 500.0),
        (replace(THREE_RX, rician_kappa=float("inf")), None),
    ],
    ids=["v0.5", "v500", "kappa-inf"],
)
def test_three_receivers_match_the_oracle(kind, case):
    cfg, v = case
    got, want = rows(cfg, params_for(3, v), kind)
    assert got == want


@st.composite
def queue_cases(draw):
    k = draw(st.integers(1, 3))
    n_rx = draw(st.integers(1, 4))
    cfg = ScenarioConfig(
        n_tx=draw(st.integers(n_rx + 1, 8)),
        n_rx=n_rx,
        positions=POSITIONS[:k],
        rician_kappa=draw(st.floats(0.0, 20.0) | st.just(KAPPA_LOS_LIMIT)),
        los_mode=draw(st.sampled_from(["ones", "steering"])),
        slots=draw(st.integers(1, 600)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    v = draw(st.none() | st.floats(0.01, 1000.0))
    return cfg, params_for(k, v), draw(st.sampled_from(QUEUE_CHUNK_KINDS))


@settings(max_examples=40, deadline=None)
@given(queue_cases())
def test_random_scenarios_match_the_oracle(case):
    got, want = rows(*case)
    assert got == want


def test_integer_p_peak_runs_as_its_float():
    # qpf's targets min(V / G_i, p_peak) once landed in an integer array
    # when p_peak was an int, which truncated them
    cfg = replace(THREE_RX, slots=2000)
    for kind in QUEUE_CHUNK_KINDS:
        want = harness.run(cfg, PARAMS, kind).to_row()
        assert harness.run(cfg, replace(PARAMS, p_peak=10), kind).to_row() == want


# ---------------------------------------------------------------------------
# the batched checks


def gate_params(kind):
    return replace(PARAMS, v=GATE_V[kind])


def chunk_inputs(kind):
    """Empty queues, the gate V and a 64-slot block of three-receiver Grams."""
    cfg = replace(THREE_RX, slots=64, seed=3)
    ws_block = linalg.grams(harness.sample_slot_block(cfg, harness.evaluation_rng(cfg), cfg.slots))
    q = np.zeros(sum(policies.POLICIES[kind].queues(3)))
    return q, gate_params(kind), ws_block


class Solver:
    """linalg's eigh, counting its calls; from call wrong_from on, it hands
    out the bottom eigenvector as the top one."""

    def __init__(self, wrong_from=None):
        self.calls = 0
        self.wrong_from = wrong_from

    def __call__(self, w):
        vals, vecs = linalg._eigh(w)
        self.calls += 1
        if self.wrong_from is not None and self.calls >= self.wrong_from:
            vecs = vecs.copy()
            vecs[:, -1] = vecs[:, 0]
        return vals, vecs


@pytest.mark.parametrize("kind", QUEUE_CHUNK_KINDS)
def test_a_wrong_top_vector_fails_the_residual_check(kind, monkeypatch):
    monkeypatch.setattr(policies, "_eigh", Solver(wrong_from=40))
    with pytest.raises(ArithmeticError, match="residual"):
        harness.run(replace(THREE_RX, slots=300), gate_params(kind), kind)


@pytest.mark.parametrize("kind", QUEUE_CHUNK_KINDS)
def test_a_nan_queue_fails_the_finite_check(kind):
    q, params, ws_block = chunk_inputs(kind)
    q[0] = np.nan
    with pytest.raises(ValueError, match="weights and shift must be finite"):
        core_step(kind, q, params, ws_block, 1.0)


def no_convergence(w):
    raise ArithmeticError("Hermitian eigendecomposition did not converge")


@pytest.mark.parametrize("kind", QUEUE_CHUNK_KINDS)
@pytest.mark.parametrize(
    "solver, error",
    [(linalg._eigh, "eigenpair residual"), (no_convergence, "did not converge")],
    ids=["converges", "fails"],
)
def test_a_matrix_corrupted_after_hermitian_part_still_fails_the_run(kind, solver, error, monkeypatch):
    # the kernel checks no Hermiticity: a skew that eigh cannot see leaves
    # the pair it finds off the stored matrix, which the residual check
    # catches, and a solve that fails to converge fails the run by itself
    def skewed(w):
        out = linalg.hermitian_part(w)
        out[0, 1] += 1e-6  # upper triangle only: eigh reads the lower one
        return out

    monkeypatch.setattr(policies, "hermitian_part", skewed)
    monkeypatch.setattr(policies, "_eigh", solver)
    with pytest.raises(ArithmeticError, match=error):
        harness.run(replace(THREE_RX, slots=300), gate_params(kind), kind)


@pytest.mark.parametrize("kind", QUEUE_CHUNK_KINDS)
def test_a_solve_that_does_not_converge_fails_the_run(kind, monkeypatch):
    monkeypatch.setattr(linalg, "_eigh_lo", not_converging)
    with pytest.raises(ArithmeticError, match="^Hermitian eigendecomposition did not converge$"):
        harness.run(replace(THREE_RX, slots=300), gate_params(kind), kind)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", QUEUE_CHUNK_KINDS)
def test_a_nan_solve_fails_the_chunk_without_a_warning(kind):
    # one errstate per chunk keeps the solver's invalid-value warning quiet;
    # its NaN eigenvalues are the named error
    q, params, ws_block = chunk_inputs(kind)
    ws_block[5] = np.nan
    with pytest.raises(ArithmeticError, match="did not converge"):
        core_step(kind, q, params, ws_block, 1.0)


@pytest.mark.parametrize("kind", QUEUE_CHUNK_KINDS)
@pytest.mark.parametrize("wrong_from, error", [(None, ValueError), (10, ArithmeticError)])
def test_the_first_failing_slot_decides_the_error(kind, wrong_from, error, monkeypatch):
    # from slot 20 on the deficits are NaN, so the next slot's weights or
    # shift are not finite, which fails as that slot is solved; a wrong top
    # vector from slot 9 on fails its residual check, batched to the end of
    # the chunk, and must still win, as it does slot by slot
    solver = Solver(wrong_from)
    spec = policies.POLICIES[kind]

    def nan_from_slot_20(q, beam, params):
        return [d * (np.nan if solver.calls > 20 else 1.0) for d in spec.slot(q, beam, params)]

    monkeypatch.setattr(policies, "_eigh", solver)
    monkeypatch.setitem(policies.POLICIES, kind, replace(spec, slot=nan_from_slot_20))
    q, params, ws_block = chunk_inputs(kind)
    with pytest.raises(error):
        core_step(kind, q, params, ws_block, 1.0)
