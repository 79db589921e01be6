"""Property tests (hypothesis): the Hermiticity gate, the queue update, the
chunked slot loop and the config parser.

* The Hermiticity gate of max_eigpair, the one entry point whose matrices
  come from callers, accepts a matrix whose max|W - W^H| sits just below
  HERMITIAN_ATOL and rejects one just above it.
* Over any chain of slots from nonnegative queues, q <- max(q + d, 0)
  keeps the queues nonnegative, chunk_drift_slack gives each slot the slack
  of the per-slot formula bit for bit, and the quadratic drift inequality
  holds to within DRIFT_SLACK, for raw deficits and for the deficits the
  policies produce.
* On random small scenarios, every policy kind's run summary is the same
  bit for bit whatever the slot chunk size.
* The parser turns any mapping, with any keys and values of any type in
  any section, into an Experiment or a ConfigError, never another
  exception; it names an unknown key by its full path whatever the other
  values of its section; and every valid experiment survives a YAML round
  trip of its echoed config.
"""

from dataclasses import fields

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from wptsim import harness
from wptsim.channel import KAPPA_LOS_LIMIT, ScenarioConfig
from wptsim.config import ConfigError, Experiment, experiment_from_mapping, experiment_to_mapping, preset_names
from wptsim.harness import DRIFT_SLACK, SweepSpec, chunk_drift_slack, run
from wptsim.linalg import HERMITIAN_ATOL, max_eigpair
from wptsim.policies import POLICIES, POLICY_KINDS, QUEUE_DRIVEN_KINDS, PolicyParams, core_step
from oracles import drift_slack, random_hermitian

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def perturbed(draw, factor):
    """An exactly Hermitian W with one entry moved so that max|W - W^H| is
    factor * HERMITIAN_ATOL, up to round-off far below the margins drawn."""
    n = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(SEEDS))
    w = random_hermitian(rng, n, scale=draw(st.floats(min_value=1e-3, max_value=10.0)))
    dev = draw(factor) * HERMITIAN_ATOL
    a = draw(st.integers(min_value=0, max_value=n - 1))
    b = draw(st.integers(min_value=0, max_value=n - 1))
    if a == b:
        # W - W^H on the diagonal is twice the imaginary part
        w[a, a] += 0.5j * dev
    else:
        w[a, b] += dev * np.exp(1j * draw(st.floats(min_value=0.0, max_value=2 * np.pi)))
    return w


BELOW = st.floats(min_value=0.0, max_value=0.99)
ABOVE = st.floats(min_value=1.01, max_value=100.0)


@settings(max_examples=150, deadline=None)
@given(perturbed(BELOW))
def test_hermitian_gate_accepts_just_below_tolerance(w):
    max_eigpair(w)


@settings(max_examples=150, deadline=None)
@given(perturbed(ABOVE))
def test_hermitian_gate_rejects_just_above_tolerance(w):
    with pytest.raises(ValueError, match="not Hermitian"):
        max_eigpair(w)


@st.composite
def queue_chains(draw):
    """Nonnegative starting queues and the deficits of 1 to 10 slots."""
    n = draw(st.integers(min_value=1, max_value=7))
    t = draw(st.integers(min_value=1, max_value=10))
    q = draw(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=n, max_size=n))
    d = draw(st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=t * n, max_size=t * n))
    return np.array(q), np.array(d).reshape(t, n)


@settings(max_examples=300, deadline=None)
@given(queue_chains())
def test_queue_update_is_nonnegative_and_keeps_the_drift_bound(chain):
    q, ds = chain
    qs = [q]
    for d in ds:
        qs.append(np.maximum(qs[-1] + d, 0.0))
    qs = np.array(qs)
    assert np.all(qs >= 0.0)
    per_slot = [drift_slack(qs[t], qs[t + 1], ds[t]) for t in range(len(ds))]
    for t, slack in enumerate(per_slot):
        assert chunk_drift_slack(qs[t : t + 2], ds[t : t + 1]) == slack
    assert chunk_drift_slack(qs, ds) == max(per_slot)
    assert max(per_slot) <= DRIFT_SLACK


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(QUEUE_DRIVEN_KINDS), seed=SEEDS)
def test_policy_deficits_keep_the_drift_bound(kind, seed):
    rng = np.random.default_rng(seed)
    params = PolicyParams(p_peak=10.0, v=float(rng.uniform(0.01, 50.0)), p_avg=5.0,
                          p_targets=(0.01, 0.02), p_min=0.005)
    q = rng.uniform(0.0, 50.0, size=sum(POLICIES[kind].queues(2)))
    ws_block = []
    for _ in range(20):
        h = rng.standard_normal((2, 4, 8)) + 1j * rng.standard_normal((2, 4, 8))
        ws = 1e-3 * np.einsum("kmn,kmp->knp", h.conj(), h)
        ws_block.append(0.5 * (ws + np.conj(np.swapaxes(ws, 1, 2))))
    qs, ds, _ = core_step(kind, q, params, np.stack(ws_block), 1.0)
    assert np.array_equal(qs[1:], np.maximum(qs[:-1] + ds, 0.0))
    assert np.all(qs >= 0.0)
    assert chunk_drift_slack(qs, ds) <= DRIFT_SLACK


# ---------------------------------------------------------------------------
# the chunked slot loop


@st.composite
def chunk_cases(draw):
    """A random small scenario and a policy kind that supports it."""
    k = draw(st.integers(1, 2))
    n_rx = draw(st.integers(1, 4))
    cfg = ScenarioConfig(
        n_tx=draw(st.integers(n_rx + 1, 8)),
        n_rx=n_rx,
        positions=((0.3, 0.3), (0.0, 0.5))[:k],
        rician_kappa=draw(st.floats(0.0, 20.0) | st.just(KAPPA_LOS_LIMIT)),
        los_mode=draw(st.sampled_from(["ones", "steering"])),
        efficiency=draw(st.floats(0.1, 1.0)),
        slots=draw(st.integers(1, 1100)),
        seed=draw(SEEDS),
    )
    kind = draw(st.sampled_from([kd for kd in POLICY_KINDS if k == 1 or POLICIES[kd].combine_rule != "single"]))
    # lambda_max(W_i) >= trace(W_i) / N, whose mean is g_i * M, so half of
    # that mean at peak power is a feasible delivery target
    targets = tuple(0.5 * 5.0 * cfg.efficiency * n_rx * g for g in cfg.gains())
    return cfg, PolicyParams(p_peak=5.0, p_avg=2.5, p_targets=targets, p_min=0.1 * min(targets)), kind


@settings(max_examples=20, deadline=None)
@given(chunk_cases())
def test_chunk_size_moves_no_bit(case):
    cfg, params, kind = case
    rows = []
    for chunk in (512, 1, 7, 513):
        # a function-scoped monkeypatch fixture would be shared by all examples
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_CHUNK", chunk)
            row = run(cfg, params, kind, warmup_samples=256).to_row()
        rows.append({key: v.hex() if isinstance(v, float) else v for key, v in row.items()})
    assert rows[1:] == rows[:1] * 3


# ---------------------------------------------------------------------------
# the config parser

SECTION_KEYS = {
    "scenario": [f.name for f in fields(ScenarioConfig)],
    "policy": ["kind"] + [f.name for f in fields(PolicyParams)],
    "sweep": [f.name for f in fields(SweepSpec)],
}
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
ANY_VALUE = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=6,
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _plausible(key):
    """Values of the right shape for key, valid or not, mixed with anything."""
    pairs = st.lists(st.lists(FINITE, min_size=1, max_size=3), max_size=3)
    by_key = {
        "kind": st.sampled_from(POLICY_KINDS) | st.lists(st.sampled_from(POLICY_KINDS), max_size=3),
        "positions": pairs,
        "ap_position": st.lists(FINITE, max_size=3),
        "p_targets": st.lists(FINITE, max_size=3),
        "values": st.lists(st.integers(-2, 12) | FINITE, max_size=3),
        "parameter": st.sampled_from(["n_tx", "v", "d_r", "p_target"]),
        "los_mode": st.sampled_from(["ones", "steering"]),
    }
    return by_key.get(key, st.integers(-2, 12) | FINITE) | SCALARS | ANY_VALUE


@st.composite
def valid_mapping(draw):
    n_rx = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    coord = st.floats(0.1, 2.0)
    scenario = {
        "n_tx": draw(st.integers(n_rx + 1, n_rx + 6)),
        "n_rx": n_rx,
        "positions": draw(st.lists(st.lists(coord, min_size=2, max_size=2), min_size=k, max_size=k)),
        "ap_position": [0.0, 0.0],
        "rician_kappa": draw(st.floats(0.0, 1e3)),
        "pathloss_exponent": draw(st.floats(0.5, 4.0)),
        "reference_gain": draw(st.floats(0.0, 1.0)),
        "efficiency": draw(st.floats(0.0, 1.0)),
        "slots": draw(st.integers(1, 10**6)),
        "seed": draw(st.integers(0, 2**63)),
        "los_mode": draw(st.sampled_from(["ones", "steering"])),
    }
    p_peak = draw(st.floats(1e-3, 100.0))
    policy = {
        "kind": draw(st.sampled_from(POLICY_KINDS) | st.lists(st.sampled_from(POLICY_KINDS), min_size=1, max_size=3)),
        "p_peak": p_peak,
        "v": draw(st.none() | st.floats(1e-6, 1e6)),
        "p_avg": draw(st.none() | st.floats(1e-3, 1.0).map(lambda f: f * p_peak)),
        "p_targets": draw(st.none() | st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)),
        "p_min": draw(st.none() | st.floats(0.0, 1.0)),
    }
    data = {"scenario": scenario, "policy": {key: v for key, v in policy.items() if v is not None}}
    if draw(st.booleans()):
        data["sweep"] = {
            "parameter": draw(st.sampled_from(["n_tx", "v", "d_r", "p_target"])),
            "values": draw(st.lists(st.integers(2, 12) | st.floats(0.5, 3.0), min_size=1, max_size=4)),
            "repetitions": draw(st.integers(1, 5)),
        }
    return data


@st.composite
def any_mapping(draw):
    """A valid mapping with one to four entries set to a value of any type,
    dropped or added: a section that is no mapping, an unknown key, a preset."""
    data = draw(valid_mapping())
    for _ in range(draw(st.integers(1, 4))):
        section = draw(st.sampled_from(["top level", *SECTION_KEYS]))
        if section == "top level":
            target, names, value = data, ["preset", *SECTION_KEYS], st.sampled_from(preset_names()) | ANY_VALUE
        else:
            if not isinstance(data.get(section), dict):
                data[section] = {}
            target, names = data[section], SECTION_KEYS[section]
        key = draw(st.sampled_from(names) | st.text(max_size=6))
        if draw(st.integers(0, 3)):
            target[key] = draw(value if section == "top level" else _plausible(key))
        else:
            target.pop(key, None)
    return data


@settings(max_examples=400, deadline=None)
@given(any_mapping())
def test_parser_returns_an_experiment_or_a_config_error(data):
    try:
        exp = experiment_from_mapping(data)
    except ConfigError:
        return
    assert isinstance(exp, Experiment)


@settings(max_examples=200, deadline=None)
@given(valid_mapping(), st.sampled_from(["top level", *SECTION_KEYS]), st.data())
def test_unknown_key_is_named_by_its_full_path(mapping, section, data):
    experiment_from_mapping(mapping)
    allowed = ["preset", *SECTION_KEYS] if section == "top level" else SECTION_KEYS[section]
    key = data.draw(st.text(max_size=6).filter(lambda t: t not in allowed))
    if section == "top level":
        mapping[key] = data.draw(ANY_VALUE)
    else:
        # the section's other values may be anything: keys are checked first
        target = mapping.setdefault(section, {})
        for name in list(target):
            if data.draw(st.booleans()):
                target[name] = data.draw(ANY_VALUE)
        target[key] = data.draw(ANY_VALUE)
    with pytest.raises(ConfigError) as err:
        experiment_from_mapping(mapping)
    assert f"{section}.{key}: unknown key" in str(err.value)


@settings(max_examples=200, deadline=None)
@given(valid_mapping())
def test_valid_experiment_survives_a_yaml_round_trip(data):
    exp = experiment_from_mapping(data)
    again = experiment_from_mapping(yaml.safe_load(yaml.safe_dump(experiment_to_mapping(exp))))
    assert again == exp
