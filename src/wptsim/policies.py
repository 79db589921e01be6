"""Transmission policies.

All six policies are two-level: each slot they either transmit at peak power
along the dominant eigenvector of a (weighted) combination of the channel
Grams, or stay silent. They differ in how the combination is weighted and
when they transmit:

* optimal-energy   transmit iff lambda_max(W_1) >= threshold (single receiver,
                   threshold from the energy solver); stateless.
* optimal-power    transmit iff lambda_max(sum_i W_i) >= threshold (threshold
                   from the power solver); stateless.
* mdpp-energy      weights are per-receiver deficit queues Z_i tracking the
                   delivery targets P_i; transmit iff
                   lambda_max(sum Z_i W_i - V I) > 0.
* mdpp-power       single budget queue Z_1 tracking the average transmit
                   power; transmit iff lambda_max(V sum W_i - Z_1 I) > 0.
* mmf              max-min fairness: per-receiver queues G_i chase a shared
                   bang-bang auxiliary target (p_peak for everyone while
                   sum G_i < V, else 0) plus the budget queue.
* qpf              proportional fairness with a QoS floor: auxiliary targets
                   gamma_i = min(V / G_i, p_peak), per-receiver floor queues
                   on p_min, plus the budget queue.

The queue-driven policies transmit on a strictly positive top eigenvalue; at
exactly zero the beam contributes nothing to the weighted objective, and the
policies stay silent. Beam amplitude is sqrt(p_peak), so transmit power is
exactly p_peak. Queue updates are Z <- max(Z + deficit, 0); each step
returns the per-queue deficits so a drift bound can be checked externally.

The threshold kinds carry no state, so their step decides a whole chunk of
slots from one stacked eigensolve. The queue-driven steps depend on the
queues, so they advance one slot at a time on a flat queue vector.

Each kind's step, needed parameters, queue sizes and optimal reference live
in its PolicySpec entry of POLICIES; the calibrated default V formulas live
in default_v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from wptsim.channel import ScenarioConfig
from wptsim.linalg import eigh_stack, hermitian_part, max_eigpair, top_eigpair, weighted_combine


@dataclass
class PolicyParams:
    """Policy parameters; fields unused by a given policy may stay None."""

    p_peak: float
    v: Optional[float] = None
    p_avg: Optional[float] = None
    p_targets: Optional[tuple] = None
    p_min: Optional[float] = None

    def __post_init__(self):
        if self.p_peak <= 0.0:
            raise ValueError(f"p_peak must be > 0, got {self.p_peak}")
        if self.v is not None and self.v <= 0.0:
            raise ValueError(f"v must be > 0, got {self.v}")
        if self.p_avg is not None and not 0.0 < self.p_avg <= self.p_peak:
            raise ValueError(f"need 0 < p_avg <= p_peak, got p_avg={self.p_avg}")
        if self.p_targets is not None:
            try:
                self.p_targets = tuple(float(p) for p in self.p_targets)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"p_targets must be a list of watts, got {self.p_targets!r}") from None
            if any(p < 0.0 for p in self.p_targets):
                raise ValueError(f"p_targets must be >= 0, got {self.p_targets}")
        if self.p_min is not None and self.p_min < 0.0:
            raise ValueError(f"p_min must be >= 0, got {self.p_min}")


def _received(ws: np.ndarray, beam: np.ndarray, efficiency: float) -> np.ndarray:
    """Per-receiver harvested power zeta * beam^H W_i beam."""
    return efficiency * np.einsum("n,knm,m->k", beam.conj(), ws, beam).real


# ---------------------------------------------------------------------------
# optimal threshold policies (stateless): one chunk of slots per call


def _threshold_chunk(w, lambda_th, p_peak, ws_block, efficiency) -> np.ndarray:
    """Received powers (n_on, K) of the slots whose lambda_max(w[t]) clears
    lambda_th, in slot order; the other slots of the chunk stay silent.

    One stacked eigh serves the whole chunk; the beam is built only for the
    transmitting slots, by the same top_eigpair that max_eigpair uses.
    """
    vals, vecs = eigh_stack(w)
    on = np.flatnonzero(vals[:, -1] >= lambda_th)
    recv = np.empty((on.size, ws_block.shape[1]))
    amp = np.sqrt(p_peak)
    for i, t in enumerate(on):
        pair = top_eigpair(w[t], vals[t], vecs[t])
        recv[i] = _received(ws_block[t], amp * pair.vector, efficiency)
    return recv


def _core_optimal_energy(params, threshold, ws_block, efficiency):
    return _threshold_chunk(ws_block[:, 0], threshold.lambda_th, params.p_peak, ws_block, efficiency)


def _core_optimal_power(params, threshold, ws_block, efficiency):
    # sum_i W_i: unit weights make every product exact, so this is the sum
    # weighted_combine(ones, ws) forms, bit for bit whenever the BLAS adds
    # the receivers in order (always for K <= 2)
    summed = hermitian_part(ws_block.sum(axis=1))
    return _threshold_chunk(summed, threshold.lambda_th, params.p_peak, ws_block, efficiency)


# ---------------------------------------------------------------------------
# queue-driven policies: one slot per call on the queue vector q, constraint
# queues (z) first, then auxiliary queues (g)


def _beam(weights, shift, p_peak, ws, efficiency) -> tuple:
    """(power, received): peak power along the top eigenvector of
    sum_i weights[i] W_i - shift I if its eigenvalue is positive, else silence."""
    pair = max_eigpair(weighted_combine(weights, ws, shift))
    if pair.value > 0.0:
        return p_peak, _received(ws, np.sqrt(p_peak) * pair.vector, efficiency)
    return 0.0, np.zeros(ws.shape[0])


def _core_mdpp_energy(q, params, ws, efficiency):
    power, recv = _beam(q, params.v, params.p_peak, ws, efficiency)
    return power, recv, np.asarray(params.p_targets) - recv


def _core_mdpp_power(q, params, ws, efficiency):
    power, recv = _beam(np.full(ws.shape[0], params.v), q[0], params.p_peak, ws, efficiency)
    return power, recv, np.array([power - params.p_avg])


def _core_mmf(q, params, ws, efficiency):
    g = q[1:]
    gamma = np.full(ws.shape[0], params.p_peak if params.v > float(g.sum()) else 0.0)
    power, recv = _beam(g, q[0], params.p_peak, ws, efficiency)
    return power, recv, np.concatenate(([power - params.p_avg], gamma - recv))


def _core_qpf(q, params, ws, efficiency):
    k = ws.shape[0]
    z, g = q[: k + 1], q[k + 1 :]
    # gamma_i = min(V / G_i, p_peak); an empty queue gets the cap (V/0+ -> inf)
    gamma = np.full(k, params.p_peak)
    pos = g > 0.0
    gamma[pos] = np.minimum(params.v / g[pos], params.p_peak)
    power, recv = _beam(z[:k] + g, z[k], params.p_peak, ws, efficiency)
    return power, recv, np.concatenate((params.p_min - recv, [power - params.p_avg], gamma - recv))


# ---------------------------------------------------------------------------
# the registry of policy kinds


@dataclass(frozen=True)
class PolicySpec:
    """The facts that set one policy kind apart from the others.

    step advances the policy on the channel Grams. A stateless threshold
    kind takes a whole chunk, ws_block of shape (T, K, N, N):
    step(params, threshold, ws_block, efficiency) returns the received
    powers (n_on, K) of the chunk's transmitting slots, in slot order. A
    queue-driven kind takes one slot, ws of shape (K, N, N), and the queue
    vector q (constraint queues z first, then auxiliary queues g):
    step(q, params, ws, efficiency) returns (power, received, deficits), and
    the caller applies q <- max(q + deficits, 0). needs names the
    PolicyParams fields the kind reads. queues maps the receiver count K to
    the sizes of z and g, None for a stateless kind. compare is the optimal
    kind a queue-driven kind is measured against and the summary column the
    gap is read on.
    """

    step: Callable
    needs: tuple
    queues: Optional[Callable[[int], tuple]] = None
    compare: Optional[tuple] = None
    single_receiver: bool = False


_POWER_REFERENCE = ("optimal-power", "total_received")

POLICIES = {
    "optimal-energy": PolicySpec(_core_optimal_energy, ("p_targets",), single_receiver=True),
    "mdpp-energy": PolicySpec(
        _core_mdpp_energy, ("v", "p_targets"), lambda k: (k, 0), ("optimal-energy", "avg_transmit_power")
    ),
    "optimal-power": PolicySpec(_core_optimal_power, ("p_avg",)),
    "mdpp-power": PolicySpec(_core_mdpp_power, ("v", "p_avg"), lambda k: (1, 0), _POWER_REFERENCE),
    "mmf": PolicySpec(_core_mmf, ("v", "p_avg"), lambda k: (1, k), _POWER_REFERENCE),
    "qpf": PolicySpec(_core_qpf, ("v", "p_avg", "p_min"), lambda k: (k + 1, k), _POWER_REFERENCE),
}
POLICY_KINDS = tuple(POLICIES)
QUEUE_DRIVEN_KINDS = tuple(kind for kind, spec in POLICIES.items() if spec.queues is not None)

_NEEDS = {
    "v": "the control parameter v",
    "p_avg": "the average power budget p_avg",
    "p_targets": "one delivery target per receiver",
    "p_min": "the QoS floor p_min",
}


def policy_spec(kind: str) -> PolicySpec:
    """The registry entry of a kind; an unknown kind raises ValueError."""
    if kind not in POLICIES:
        raise ValueError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")
    return POLICIES[kind]


def validate_params_for(kind: str, params: PolicyParams, n_receivers: int, skip: tuple = ()) -> None:
    """Check that the fields a policy relies on, except those in skip, are
    present and consistent."""
    spec = policy_spec(kind)
    if spec.single_receiver and n_receivers != 1:
        raise ValueError(f"{kind} is single-receiver only")
    for name in spec.needs:
        if name in skip:
            continue
        value = getattr(params, name)
        if value is None or (name == "p_targets" and len(value) != n_receivers):
            raise ValueError(f"{kind} needs {_NEEDS[name]}")


def core_step(kind: str, q, params, ws, efficiency):
    """Advance a queue-driven policy one slot: (power, received, deficits)."""
    return POLICIES[kind].step(q, params, ws, efficiency)


def gap_bound_const(kind: str, n_receivers: int, p_peak: float) -> Optional[float]:
    """Constant B of the O(B/V) optimality-gap bound, None for the optimal policies.

    B holds one p_peak**2 / 2 term per virtual queue, constraint and
    auxiliary alike.
    """
    queues = policy_spec(kind).queues
    if queues is None:
        return None
    return 0.5 * sum(queues(n_receivers)) * p_peak**2


def default_v(kind: str, params: PolicyParams, cfg: ScenarioConfig) -> float:
    """Default control parameter V for the configured horizon.

    V trades the optimality gap (O(1/V)) against queue magnitude (O(V)).
    Each formula was calibrated empirically on desk-scale Rician scenarios
    so that at the configured horizon the constraint queues end well inside
    the mean-rate stability budget 1e-3 * (power scale) * slots while the
    measured optimality gap stays under a few percent. The channel scale
    enters through the pure line-of-sight eigenvalue g_i * M * N. Pass an
    explicit v to override for anything exotic.
    """
    lam_hat = cfg.gains() * cfg.n_rx * cfg.n_tx
    horizon = 1e-3 * cfg.slots
    if kind == "mdpp-energy":
        # equilibrium backlog ~ v / lam_th per queue; 0.75 puts the worst
        # queue around 75% of its budget, which measured 3-4% above the
        # optimal transmit power on the single-receiver reference scenario
        targets = np.asarray(params.p_targets, dtype=np.float64)
        v = 0.75 * horizon * float(np.min(targets * lam_hat))
    elif kind == "mdpp-power":
        # equilibrium backlog ~ v * lam_th; measured gap ~1% with the
        # budget queue near a quarter of its allowance
        scale = float(np.sum(lam_hat))
        v = 0.3 * horizon * params.p_avg / scale if scale > 0.0 else 0.0
    elif kind == "mmf":
        # bang-bang auxiliary targets keep sum(g) hovering near v, so a few
        # peak-power slots' worth is enough; larger v only slows tracking
        v = 10.0 * params.p_avg
    elif kind == "qpf":
        # the auxiliary queues settle at g_i ~ v / received_i following a
        # sqrt(2 v t) transient; this keeps that transient under a few
        # percent of the horizon for the weakest receiver
        recv_hat = params.p_avg * float(np.min(lam_hat))
        v = 0.05 * cfg.slots * recv_hat**2
    else:
        raise ValueError(f"policy {kind!r} does not use v")
    if not v > 0.0:
        raise ValueError(
            f"{kind} has no default v: the channel scale (reference_gain) or a delivery "
            "target is zero; pass v explicitly"
        )
    return v
