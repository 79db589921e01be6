"""Slot-loop simulation harness.

run() drives one policy over cfg.slots timeslots and accumulates the
time-averaged metrics; for the optimal threshold policies it first estimates
the transmit threshold from a warm-up eigenvalue spectrum drawn on an RNG
stream disjoint from the evaluation stream. Slots are sampled and their
Grams formed in blocks of _CHUNK, and every kind steps a whole block in one
core_step call: a threshold policy decides the block at once on an empty
queue vector, a queue-driven one steps through it slot by slot. The block
size does not move a single bit of the summary. sweep() repeats run() over
a one-parameter grid with independently seeded repetitions.

Every run checks the realized quadratic-drift inequality on every slot:
with L = (1/2) sum_q q^2 over all queues and per-queue update
q <- max(q + d, 0),

    L[l+1] - L[l] <= sum_q q[l] * d[l] + (1/2) * sum_q d[l]^2

must hold up to arithmetic slack; with no queues both sides are zero. The
maximum observed slack is reported in the summary.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from wptsim.channel import (
    ScenarioConfig,
    _CHUNK,
    _as_int,
    _as_real,
    empirical_gain_spectrum,
    evaluation_rng,
    sample_slot_block,
    warmup_rng,
)
from wptsim.linalg import grams
from wptsim.policies import (
    PolicyParams,
    core_step,
    gap_bound_const,
    policy_spec,
    resolve_params,
)
from wptsim.threshold import (
    InfeasibleTargetError,
    solve_energy_threshold,
    solve_power_threshold,
)

WARMUP_SAMPLES = 20_000
QUEUE_RATE_TOL = 1e-3
DRIFT_SLACK = 1e-9


@dataclass(frozen=True)
class RunSummary:
    """Time-averaged outcome of one run; all sequences stored as tuples so
    two summaries from identical runs compare equal bit-for-bit."""

    policy: str
    seed: int
    slots: int
    avg_transmit_power: float
    avg_received_power: tuple
    min_received: float
    sum_log_received: float
    duty_cycle: float
    z_rates: tuple
    g_rates: tuple
    queues_stable: Optional[bool]
    drift_slack_max: float
    threshold: Optional[float]
    v: Optional[float]
    gap_bound: Optional[float]
    config: dict

    @property
    def total_received(self) -> float:
        return float(sum(self.avg_received_power))

    def to_row(self) -> dict:
        """Flatten into one results-table row with per-receiver columns."""
        row = {
            "policy": self.policy,
            "seed": self.seed,
            "slots": self.slots,
            "avg_transmit_power": self.avg_transmit_power,
            "total_received": self.total_received,
            "min_received": self.min_received,
            "sum_log_received": self.sum_log_received,
            "duty_cycle": self.duty_cycle,
            "queues_stable": self.queues_stable,
            "drift_slack_max": self.drift_slack_max,
            "threshold": self.threshold,
            "v": self.v,
            "gap_bound": self.gap_bound,
        }
        for i, q in enumerate(self.avg_received_power, start=1):
            row[f"avg_received_power_{i}"] = q
        for i, r in enumerate(self.z_rates, start=1):
            row[f"z_rate_{i}"] = r
        for i, r in enumerate(self.g_rates, start=1):
            row[f"g_rate_{i}"] = r
        return row


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep grid with independently seeded repetitions."""

    parameter: str
    values: tuple
    repetitions: int = 1

    def __post_init__(self):
        if self.parameter not in ("n_tx", "v", "d_r", "p_target"):
            raise ValueError(
                f"swept parameter must be one of n_tx, v, d_r, p_target, got {self.parameter!r}"
            )
        if not isinstance(self.values, (list, tuple)) or len(self.values) == 0:
            raise ValueError(f"values must be a list of at least one value, got {self.values!r}")
        check = _as_int if self.parameter == "n_tx" else _as_real
        for i, value in enumerate(self.values):
            check(f"values[{i}] of {self.parameter}", value)
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "repetitions", _as_int("repetitions", self.repetitions))
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")


def power_scale(params: PolicyParams) -> float:
    """Reference scale for queue-rate stability: max of the power targets in play."""
    candidates = [0.0]
    if params.p_targets:
        candidates.extend(params.p_targets)
    if params.p_avg is not None:
        candidates.append(params.p_avg)
    return max(candidates)


def chunk_drift_slack(qs: np.ndarray, ds: np.ndarray) -> float:
    """The largest drift slack over a chunk.

    Row t of qs holds the queues q before slot t (the last row the queues
    after the chunk), row t of ds the deficits d of slot t, so that
    qs[t + 1] = max(qs[t] + d, 0). Slot t's slack is the amount by which
    L(qs[t + 1]) - L(qs[t]) exceeds q.d + |d|^2 / 2 for L(q) = sum(q^2) / 2:

        0.5 * (sum(q'^2) - sum(q^2)) - (dot(q, d) + 0.5 * sum(d^2))

    The inequality holds exactly, so the slack is pure round-off. Row sums of
    squares and (1, n) @ (n, 1) products round as the 1-D np.sum and np.dot
    of each slot do. A NaN slack is passed over, as max() passes over it.
    """
    sq = (qs**2).sum(axis=1)
    lhs = 0.5 * (sq[1:] - sq[:-1])
    rhs = np.matmul(qs[:-1, None, :], ds[:, :, None])[:, 0, 0] + 0.5 * (ds**2).sum(axis=1)
    return float(np.fmax.reduce(lhs - rhs))


def estimate_threshold(cfg: ScenarioConfig, params: PolicyParams, policy_kind: str, warmup_samples: int):
    """Warm-up spectrum estimation for the optimal policies."""
    rule = policy_spec(policy_kind).combine_rule
    if rule == "single" and cfg.efficiency <= 0.0:
        raise InfeasibleTargetError("zero conversion efficiency cannot deliver a positive target")
    spectrum = empirical_gain_spectrum(cfg, rule, warmup_samples, warmup_rng(cfg))
    if rule == "single":
        return solve_energy_threshold(spectrum, params.p_targets[0] / cfg.efficiency, params.p_peak)
    return solve_power_threshold(spectrum, params.p_avg, params.p_peak)


def run(
    cfg: ScenarioConfig,
    params: PolicyParams,
    policy_kind: str,
    warmup_samples: int = WARMUP_SAMPLES,
) -> RunSummary:
    """Simulate one policy for cfg.slots slots; deterministic in (cfg, params)."""
    spec = policy_spec(policy_kind)
    queue_driven = spec.queues is not None
    k = cfg.n_receivers
    params = resolve_params(cfg, params, policy_kind)

    threshold = None if queue_driven else estimate_threshold(cfg, params, policy_kind, warmup_samples)
    eff = cfg.efficiency

    # the sums are accumulated slot by slot in slot order; a silent slot
    # would add exact zeros, so it is skipped
    sum_transmit = 0.0
    sum_recv = np.zeros(k)
    transmit_slots = 0
    drift_slack_max = 0.0
    nz, ng = spec.queues(k) if queue_driven else (0, 0)
    q = np.zeros(nz + ng)

    rng = evaluation_rng(cfg)
    done = 0
    while done < cfg.slots:
        take = min(_CHUNK, cfg.slots - done)
        ws_block = grams(sample_slot_block(cfg, rng, take))
        qs, ds, on_recv = core_step(policy_kind, q, params, ws_block, eff, threshold)
        q = qs[-1]
        drift_slack_max = max(drift_slack_max, chunk_drift_slack(qs, ds))
        # max(q + d, 0) is never negative and a NaN persists to the end of
        # the block, so the block's last queues cover every slot
        if not (q >= 0.0).all():
            raise ArithmeticError(f"queues left the nonnegative orthant: {q}")
        # the transmitting slots of the block, in slot order
        for recv in on_recv:
            sum_transmit += params.p_peak
            sum_recv += recv
            transmit_slots += 1
        done += take
        del ws_block  # freed before the next block is sampled

    slots = cfg.slots
    avg_recv = sum_recv / slots
    z_rates = tuple(float(x) / slots for x in q[:nz])
    g_rates = tuple(float(x) / slots for x in q[nz:])
    stable = None
    if queue_driven:
        # only the constraint queues z bound a time-average requirement;
        # the auxiliary g queues track slowly-varying targets and may sit
        # at a large V-dependent equilibrium without violating anything
        budget = QUEUE_RATE_TOL * power_scale(params)
        stable = bool(all(r <= budget for r in z_rates))

    return RunSummary(
        policy=policy_kind,
        seed=cfg.seed,
        slots=slots,
        avg_transmit_power=sum_transmit / slots,
        avg_received_power=tuple(float(q) for q in avg_recv),
        min_received=float(np.min(avg_recv)),
        sum_log_received=float(sum(math.log(q) if q > 0.0 else -math.inf for q in avg_recv)),
        duty_cycle=transmit_slots / slots,
        z_rates=z_rates,
        g_rates=g_rates,
        queues_stable=stable,
        drift_slack_max=drift_slack_max,
        threshold=None if threshold is None else threshold.lambda_th,
        v=params.v,
        gap_bound=gap_bound_const(policy_kind, k, params.p_peak),
        config={
            "scenario": asdict(cfg),
            "params": asdict(params),
            "warmup_samples": warmup_samples if threshold is not None else None,
        },
    )


def apply_sweep_value(cfg: ScenarioConfig, params: PolicyParams, parameter: str, value):
    """Return (cfg, params) with one swept parameter applied."""
    if parameter == "n_tx":
        return replace(cfg, n_tx=value), params
    if parameter == "v":
        return cfg, replace(params, v=float(value))
    if parameter == "p_target":
        return cfg, replace(params, p_targets=(float(value),) * cfg.n_receivers)
    if parameter == "d_r":
        if cfg.n_receivers != 2:
            raise ValueError("the distance-ratio sweep is defined for exactly two receivers")
        d_near = float(cfg.distances()[0])
        far = (cfg.ap_position[0], cfg.ap_position[1] + float(value) * d_near)
        return replace(cfg, positions=(cfg.positions[0], far)), params
    raise ValueError(f"unknown sweep parameter {parameter!r}")


def sweep(
    base_cfg: ScenarioConfig,
    base_params: PolicyParams,
    spec: SweepSpec,
    policy_kinds: Sequence[str],
) -> list:
    """Run a one-parameter sweep; one row per (point, repetition, policy).

    Each (point, repetition) pair gets its own seed derived from the base
    seed, so repetitions are independent and any point can be re-run alone.
    A failing point is recorded as a row with an "error" field rather than
    aborting the sweep.
    """
    rows = []
    for p_idx, value in enumerate(spec.values):
        for rep in range(spec.repetitions):
            seed = base_cfg.seed + p_idx * spec.repetitions + rep
            for kind in policy_kinds:
                prov = {
                    "sweep_parameter": spec.parameter,
                    "sweep_value": value,
                    "rep": rep,
                    "seed": seed,
                    "policy": kind,
                }
                try:
                    cfg, params = apply_sweep_value(base_cfg, base_params, spec.parameter, value)
                    cfg = replace(cfg, seed=seed)
                    summary = run(cfg, params, kind)
                    row = summary.to_row()
                    row.update(prov)
                except (ValueError, ArithmeticError) as err:
                    row = dict(prov)
                    row["error"] = str(err)
                rows.append(row)
    return rows
