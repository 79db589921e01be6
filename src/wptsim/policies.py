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

The threshold kinds carry no state, so _threshold_chunk decides a whole
chunk of slots from one stacked eigensolve. The queue-driven kinds depend
on the queues, so _queue_chunk advances a whole chunk one slot at a time on
a flat queue vector. Both return core_step's triple and check every slot's
eigenpair once, at the end of the chunk. The queue kinds differ only in
their slot function: the weights and shift it hands to the beam, and the
deficits it returns.

Each kind's slot function, needed parameters, queue sizes, combine rule and
optimal reference live in its PolicySpec entry of POLICIES; the calibrated
default V formulas live in default_v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from wptsim.channel import ScenarioConfig, _as_real
from wptsim.linalg import _eigh, check_stack, hermitian_part, top_vector


@dataclass
class PolicyParams:
    """Policy parameters; fields unused by a given policy may stay None."""

    p_peak: float
    v: Optional[float] = None
    p_avg: Optional[float] = None
    p_targets: Optional[tuple] = None
    p_min: Optional[float] = None

    def __post_init__(self):
        for name in ("p_peak", "v", "p_avg", "p_min"):
            if name == "p_peak" or getattr(self, name) is not None:
                _as_real(name, getattr(self, name))
        if self.p_peak <= 0.0:
            raise ValueError(f"p_peak must be > 0, got {self.p_peak}")
        if self.v is not None and self.v <= 0.0:
            raise ValueError(f"v must be > 0, got {self.v}")
        if self.p_avg is not None and not 0.0 < self.p_avg <= self.p_peak:
            raise ValueError(f"need 0 < p_avg <= p_peak, got p_avg={self.p_avg}")
        if self.p_targets is not None:
            try:
                self.p_targets = tuple(float(_as_real("p_targets", p)) for p in self.p_targets)
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


def _threshold_chunk(rule, lambda_th, p_peak, ws_block, efficiency) -> tuple:
    """Step a threshold kind through a chunk ws_block (T, K, N, N): a slot
    transmits iff lambda_max(w[t]) clears lambda_th, with w[t] = W_1 for rule
    "single" and hermitian_part(sum_i W_i) for "sum".

    Returns (qs, ds, received) as core_step says, with no queues: qs is
    (T + 1, 0) and ds (T, 0). Every slot's decision and beam are those of
    the per-slot oracle's max_eigpair (tests/oracles.py), bit for bit. One
    stacked eigh serves the whole chunk, the beam is built only for the
    transmitting slots, and one check_stack at the end checks every slot's
    top pair, as _queue_chunk does.
    """
    if rule == "single":
        w = ws_block[:, 0]
    else:
        # sum_i W_i: unit weights make every product exact, so this is the
        # sum the oracle's weighted_combine(ones, ws) forms, bit for bit
        # whenever the BLAS adds the receivers in order (always for K <= 2)
        w = hermitian_part(ws_block.sum(axis=1))
    vals, vecs = _eigh(w)
    lams = vals[:, -1]
    # a silent slot's residual is checked on the solver's own unit vector
    tops = vecs[:, :, -1].copy()
    amp = np.sqrt(p_peak)
    on = np.flatnonzero(lams >= lambda_th)
    received = np.empty((on.size, ws_block.shape[1]))
    for i, t in enumerate(on):
        tops[t] = vec = top_vector(vals[t], vecs[t])
        received[i] = _received(ws_block[t], amp * vec, efficiency)
    check_stack(w, lams, tops)
    return np.zeros((len(w) + 1, 0)), np.zeros((len(w), 0)), received


# ---------------------------------------------------------------------------
# the queue-driven policies: one chunk of slots per call on the queue
# vector q, constraint queues (z) first, then auxiliary queues (g). Their
# weights or shift follow the queues, so the slots are still stepped one by
# one, but only the work that depends on the queues stays in the loop: the
# scalar queue arithmetic in Python floats (the same IEEE operations as
# numpy's on the queue vector), one combine, one eigh and, on a
# transmitting slot, the beam. The residual check of every slot's top pair
# runs once per chunk on stacked buffers.


def _sum(xs) -> float:
    """float(np.sum(xs)), bit for bit: numpy adds fewer than 8 floats one
    by one, as sum() does, and pairwise from 8 on."""
    return sum(xs) if len(xs) < 8 else float(np.sum(xs))


def _mdpp_power_slot(q, beam, params):
    """One mdpp-power slot on q = [z]: the budget deficit, with the beam
    taken through beam(weights, shift) -> (power, received) at weight V for
    every receiver."""
    power, _ = beam((params.v,), q[0])
    return [power - params.p_avg]


def _mdpp_energy_slot(q, beam, params):
    """One mdpp-energy slot on q = [z_1..z_K]: the deficits, with the beam
    taken through beam(weights, shift) -> (power, received)."""
    power, recv = beam(q, params.v)
    return [t - r for t, r in zip(params.p_targets, recv)]


def _mmf_slot(q, beam, params):
    """One mmf slot on q = [z, g_1..g_K]: the deficits, with the beam taken
    through beam(weights, shift) -> (power, received)."""
    g = q[1:]
    gamma = params.p_peak if params.v > _sum(g) else 0.0
    power, recv = beam(g, q[0])
    return [power - params.p_avg, *[gamma - r for r in recv]]


def _qpf_slot(q, beam, params):
    """One qpf slot on q = [z_1..z_K, z_budget, g_1..g_K], as _mmf_slot."""
    k = len(q) // 2
    z, g = q[: k + 1], q[k + 1 :]
    # gamma_i = min(V / G_i, p_peak); an empty queue gets the cap (V/0+ -> inf)
    gamma = [min(params.v / x, params.p_peak) if x > 0.0 else params.p_peak for x in g]
    power, recv = beam([a + b for a, b in zip(z, g)], z[k])
    return [*[params.p_min - r for r in recv], power - params.p_avg, *[c - r for c, r in zip(gamma, recv)]]


def _queue_chunk(slot, q, params, ws_block, efficiency) -> tuple:
    """Step a queue-driven policy through a chunk ws_block (T, K, N, N) from
    the queue vector q, one slot(q, beam, params) -> deficits call per slot.

    Returns (qs, ds, received) as core_step says. beam takes K weights, or
    one weight for every receiver. Every slot's decision, beam and queues
    are those of max_eigpair(weighted_combine(weights, ws, shift)) and
    q <- max(q + d, 0) in the per-slot oracle (tests/oracles.py), bit for
    bit. Finite weights and convergence are checked as each slot is solved,
    and the top-pair residual of every slot at the end of the chunk, or
    before the first inline failure is raised, so the run fails with the
    error the slot-by-slot checks would raise first. Each slot's matrix
    leaves hermitian_part Hermitian bit for bit, so it is not checked for
    Hermiticity.
    """
    t_slots, k, n = ws_block.shape[:3]
    flat = ws_block.reshape(t_slots, k, n * n)
    mats = np.empty((t_slots, n, n), dtype=np.complex128)
    lams = np.empty(t_slots)
    tops = np.empty((t_slots, n), dtype=np.complex128)
    row = np.empty((1, k))
    amp = np.sqrt(params.p_peak)
    silent = [0.0] * k
    received = []
    t = 0

    def beam(weights, shift):
        if not (math.isfinite(shift) and all(map(math.isfinite, weights))):
            raise ValueError("weights and shift must be finite")
        # sum_i weights[i] W_i - shift I on this slot's Grams; a single
        # weight fills the row
        row[0] = weights
        m = np.dot(row, flat[t])
        m[0, :: n + 1] -= shift
        mats[t] = m = hermitian_part(m.reshape(n, n))
        vals, vecs = _eigh(m)
        lams[t] = lam = float(vals[-1])
        if lam > 0.0:
            tops[t] = vec = top_vector(vals, vecs)
            recv = _received(ws_block[t], amp * vec, efficiency)
            received.append(recv)
            return params.p_peak, recv.tolist()
        # a silent slot's vector goes unused; its residual is checked on the
        # solver's own unit vector, as _threshold_chunk checks it
        tops[t] = vecs[:, -1]
        return 0.0, silent

    qs = [q.tolist()]
    ds = []
    try:
        # a solve that does not converge raises in _eigh, with no
        # invalid-value warning from its NaN eigenvalues first
        with np.errstate(invalid="ignore"):
            for t in range(t_slots):
                d = slot(qs[t], beam, params)
                ds.append(d)
                qs.append([max(a + b, 0.0) for a, b in zip(qs[t], d)])
    except (ValueError, ArithmeticError):
        check_stack(mats[:t], lams[:t], tops[:t])
        raise
    check_stack(mats, lams, tops)
    return np.array(qs), np.array(ds), received


# ---------------------------------------------------------------------------
# the registry of policy kinds


@dataclass(frozen=True)
class PolicySpec:
    """The facts that set one policy kind apart from the others.

    needs names the PolicyParams fields the kind reads. queues maps the
    receiver count K to the sizes of z and g, None for a stateless kind.
    compare is the optimal kind a queue-driven kind is measured against and
    the summary column the gap is read on. combine_rule is a threshold
    kind's empirical_gain_spectrum rule: "single" (W_1, one receiver only)
    or "sum" (sum_i W_i); core_step hands it to _threshold_chunk as the
    matrix the kind thresholds. slot is a queue-driven kind's slot function,
    slot(q, beam, params) -> deficits, which core_step steps on _queue_chunk.
    """

    needs: tuple
    queues: Optional[Callable[[int], tuple]] = None
    compare: Optional[tuple] = None
    combine_rule: Optional[str] = None
    slot: Optional[Callable] = None


_POWER_REFERENCE = ("optimal-power", "total_received")

POLICIES = {
    "optimal-energy": PolicySpec(("p_targets",), combine_rule="single"),
    "mdpp-energy": PolicySpec(
        ("v", "p_targets"), lambda k: (k, 0), ("optimal-energy", "avg_transmit_power"), slot=_mdpp_energy_slot
    ),
    "optimal-power": PolicySpec(("p_avg",), combine_rule="sum"),
    "mdpp-power": PolicySpec(("v", "p_avg"), lambda k: (1, 0), _POWER_REFERENCE, slot=_mdpp_power_slot),
    "mmf": PolicySpec(("v", "p_avg"), lambda k: (1, k), _POWER_REFERENCE, slot=_mmf_slot),
    "qpf": PolicySpec(("v", "p_avg", "p_min"), lambda k: (k + 1, k), _POWER_REFERENCE, slot=_qpf_slot),
}
POLICY_KINDS = tuple(POLICIES)
QUEUE_DRIVEN_KINDS = tuple(kind for kind, spec in POLICIES.items() if spec.queues is not None)

_NEEDS = {
    "p_avg": "the average power budget p_avg",
    "p_targets": "one delivery target per receiver",
    "p_min": "the QoS floor p_min",
}


def policy_spec(kind: str) -> PolicySpec:
    """The registry entry of a kind; an unknown kind raises ValueError."""
    if kind not in POLICIES:
        raise ValueError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")
    return POLICIES[kind]


def core_step(kind: str, q, params, ws_block, efficiency, threshold=None):
    """Advance a kind through a chunk ws_block (T, K, N, N) from the queue
    vector q (constraint queues z first, then auxiliary queues g). A queue
    kind steps _queue_chunk with its slot function; a threshold kind, whose
    q is empty, steps _threshold_chunk with its combine_rule at
    threshold.lambda_th.

    Returns (qs, ds, received): the queues before each slot and after the
    last (T + 1, n), each slot's deficits (T, n) with qs[t + 1] =
    max(qs[t] + ds[t], 0), and the received powers of the transmitting
    slots in slot order.
    """
    spec = POLICIES[kind]
    if spec.slot is not None:
        return _queue_chunk(spec.slot, q, params, ws_block, efficiency)
    return _threshold_chunk(spec.combine_rule, threshold.lambda_th, params.p_peak, ws_block, efficiency)


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


def resolve_params(cfg: ScenarioConfig, params: PolicyParams, kind: str) -> PolicyParams:
    """params checked against what kind needs on cfg, with a missing v set
    to default_v, and v cleared for a kind that reads none. The other
    needed fields are checked first, because default_v reads them."""
    spec = policy_spec(kind)
    if spec.combine_rule == "single" and cfg.n_receivers != 1:
        raise ValueError(f"{kind} is single-receiver only")
    for name in spec.needs:
        value = getattr(params, name)
        if name != "v" and (value is None or (name == "p_targets" and len(value) != cfg.n_receivers)):
            raise ValueError(f"{kind} needs {_NEEDS[name]}")
    if "v" not in spec.needs:
        params = replace(params, v=None)
    elif params.v is None:
        params = replace(params, v=default_v(kind, params, cfg))
    return params
