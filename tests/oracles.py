"""Oracles for the test suite.

Two kinds, both slow on purpose and correctness references only:

* independent numerical oracles, which avoid the library's code paths (and
  numpy's eigensolver): the spectrum oracle runs a hand-written cyclic
  Jacobi iteration on the real symmetric embedding of a complex Hermitian
  matrix, and the matrix helpers use naive index loops;
* the readable per-slot simulation (run_per_slot and its steps): one slot
  at a time, a QueueState and a SlotDecision per slot, built from the
  library's own per-matrix kernels (weighted_combine, max_eigpair). The
  library's chunked threshold kinds and allocation-free queue kinds must
  reproduce its summaries bit for bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from wptsim.channel import evaluation_rng, sample_slot_block
from wptsim.harness import (
    QUEUE_RATE_TOL,
    WARMUP_SAMPLES,
    RunSummary,
    estimate_threshold,
    power_scale,
)
from wptsim.linalg import grams, max_eigpair, weighted_combine
from wptsim.policies import gap_bound_const, policy_spec, resolve_params


def naive_gram(h):
    """conj-transpose(h) @ h by explicit triple loop."""
    m, n = h.shape
    w = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            acc = 0.0 + 0.0j
            for r in range(m):
                acc += np.conj(h[r, a]) * h[r, b]
            w[a, b] = acc
    return w


def naive_combine(weights, grams, shift):
    n = grams[0].shape[0]
    out = np.zeros((n, n), dtype=complex)
    for wgt, g in zip(weights, grams):
        for a in range(n):
            for b in range(n):
                out[a, b] += wgt * g[a, b]
    for a in range(n):
        out[a, a] -= shift
    return out


def naive_trace_quad(w, x):
    """Tr(W x x*) via the explicit outer product and diagonal sum."""
    n = len(x)
    outer = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            outer[a, b] = x[a] * np.conj(x[b])
    tr = 0.0 + 0.0j
    for a in range(n):
        for b in range(n):
            tr += w[a, b] * outer[b, a]
    return tr.real


def real_embedding(w):
    """Hermitian w = X + iY -> real symmetric [[X, -Y], [Y, X]].

    Its spectrum is the spectrum of w with every eigenvalue doubled.
    """
    w = np.asarray(w, dtype=complex)
    x, y = w.real, w.imag
    return np.block([[x, -y], [y, x]])


def jacobi_spectrum(w, max_sweeps=60):
    """All eigenvalues of Hermitian w (each once), ascending, via cyclic
    Jacobi rotations on the real embedding. Pure Givens arithmetic; no
    library eigensolver involved."""
    a = real_embedding(w)
    n = a.shape[0]
    scale = max(1.0, float(np.sqrt(np.sum(a * a))))
    for _ in range(max_sweeps):
        off = np.sqrt(max(0.0, float(np.sum(a * a) - np.sum(np.diag(a) ** 2))))
        if off <= 1e-14 * scale:
            break
        thresh = off / n
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                diff = a[q, q] - a[p, p]
                # skip pivots too small to matter; also keeps tau finite
                if abs(apq) <= max(1e-2 * thresh / n, 1e-150 * (1.0 + abs(diff))):
                    continue
                tau = diff / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    vals = np.sort(np.diag(a).real)
    # the embedding doubles every eigenvalue; collapse adjacent pairs
    return 0.5 * (vals[0::2] + vals[1::2])


def random_hermitian(rng, dim, scale=1.0):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (raw + raw.conj().T)


def random_psd(rng, m, n):
    h = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return naive_gram(h)


# ---------------------------------------------------------------------------
# the readable per-slot simulation


@dataclass
class QueueState:
    """Virtual queues of one policy instance (watt-slots) plus current targets."""

    z: np.ndarray
    g: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.float64)
        self.g = np.asarray(self.g, dtype=np.float64)
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        if np.any(self.z < 0.0) or np.any(self.g < 0.0):
            raise ValueError("queue values must be nonnegative")


@dataclass
class SlotDecision:
    """One slot's beam, its power, the received powers and the per-queue
    deficits, constraint queues (z) first, then auxiliary queues (g)."""

    beam: np.ndarray
    transmitted_power: float
    received_power: np.ndarray
    deficits: np.ndarray = field(default_factory=lambda: np.zeros(0))


def init_queue_state(kind, k):
    nz, ng = policy_spec(kind).queues(k)
    return QueueState(np.zeros(nz), np.zeros(ng), np.zeros(ng))


def _received(ws, beam, efficiency):
    return efficiency * np.einsum("n,knm,m->k", beam.conj(), ws, beam).real


def _two_level(pair, on, p_peak, ws, efficiency):
    if on:
        beam = np.sqrt(p_peak) * pair.vector
        return beam, p_peak, _received(ws, beam, efficiency)
    return np.zeros(ws.shape[1], dtype=np.complex128), 0.0, np.zeros(ws.shape[0])


def step_optimal_energy(params, threshold, ws, efficiency):
    pair = max_eigpair(ws[0])
    return SlotDecision(*_two_level(pair, pair.value >= threshold.lambda_th, params.p_peak, ws, efficiency))


def step_optimal_power(params, threshold, ws, efficiency):
    pair = max_eigpair(weighted_combine(np.ones(ws.shape[0]), ws, 0.0))
    return SlotDecision(*_two_level(pair, pair.value >= threshold.lambda_th, params.p_peak, ws, efficiency))


def step_mdpp_energy(state, params, ws, efficiency):
    pair = max_eigpair(weighted_combine(state.z, ws, shift=params.v))
    beam, power, recv = _two_level(pair, pair.value > 0.0, params.p_peak, ws, efficiency)
    deficits = np.asarray(params.p_targets) - recv
    new_z = np.maximum(state.z + deficits, 0.0)
    return SlotDecision(beam, power, recv, deficits), QueueState(new_z, state.g, state.gamma)


def step_mdpp_power(state, params, ws, efficiency):
    k = ws.shape[0]
    pair = max_eigpair(weighted_combine(np.full(k, params.v), ws, shift=state.z[0]))
    beam, power, recv = _two_level(pair, pair.value > 0.0, params.p_peak, ws, efficiency)
    deficit = power - params.p_avg
    new_z = np.maximum(state.z + deficit, 0.0)
    return SlotDecision(beam, power, recv, np.array([deficit])), QueueState(new_z, state.g, state.gamma)


def step_mmf(state, params, ws, efficiency):
    k = ws.shape[0]
    gamma_on = params.v > float(np.sum(state.g))
    gamma = np.full(k, params.p_peak if gamma_on else 0.0)
    pair = max_eigpair(weighted_combine(state.g, ws, shift=state.z[0]))
    beam, power, recv = _two_level(pair, pair.value > 0.0, params.p_peak, ws, efficiency)
    z_deficit = power - params.p_avg
    g_deficits = gamma - recv
    new_z = np.maximum(state.z + z_deficit, 0.0)
    new_g = np.maximum(state.g + g_deficits, 0.0)
    dec = SlotDecision(beam, power, recv, np.concatenate(([z_deficit], g_deficits)))
    return dec, QueueState(new_z, new_g, gamma)


def step_qpf(state, params, ws, efficiency):
    k = ws.shape[0]
    g = state.g
    gamma = np.full(k, float(params.p_peak))
    pos = g > 0.0
    gamma[pos] = np.minimum(params.v / g[pos], params.p_peak)
    pair = max_eigpair(weighted_combine(state.z[:k] + g, ws, shift=state.z[k]))
    beam, power, recv = _two_level(pair, pair.value > 0.0, params.p_peak, ws, efficiency)
    floor_deficits = params.p_min - recv
    budget_deficit = power - params.p_avg
    g_deficits = gamma - recv
    new_z = np.maximum(np.concatenate((state.z[:k] + floor_deficits, [state.z[k] + budget_deficit])), 0.0)
    new_g = np.maximum(g + g_deficits, 0.0)
    dec = SlotDecision(beam, power, recv, np.concatenate((floor_deficits, [budget_deficit], g_deficits)))
    return dec, QueueState(new_z, new_g, gamma)


THRESHOLD_STEPS = {"optimal-energy": step_optimal_energy, "optimal-power": step_optimal_power}
QUEUE_STEPS = {
    "mdpp-energy": step_mdpp_energy,
    "mdpp-power": step_mdpp_power,
    "mmf": step_mmf,
    "qpf": step_qpf,
}


def drift_slack(q_prev, q_new, d):
    """One slot's drift slack: the amount by which L(q_new) - L(q_prev)
    exceeds q_prev.d + |d|^2 / 2 for L(q) = sum(q^2) / 2, in 1-D np.sum and
    np.dot."""
    lhs = 0.5 * float(np.sum(q_new**2) - np.sum(q_prev**2))
    rhs = float(np.dot(q_prev, d) + 0.5 * np.sum(d**2))
    return lhs - rhs


def run_per_slot(cfg, params, kind, warmup_samples=WARMUP_SAMPLES):
    """harness.run's to_row(), one sampled slot and one step at a time."""
    k = cfg.n_receivers
    queue_driven = kind in QUEUE_STEPS
    params = resolve_params(cfg, params, kind)
    threshold = None if queue_driven else estimate_threshold(cfg, params, kind, warmup_samples)
    state = init_queue_state(kind, k) if queue_driven else None

    sum_transmit = 0.0
    sum_recv = np.zeros(k)
    transmit_slots = 0
    drift_slack_max = 0.0
    rng = evaluation_rng(cfg)
    for _ in range(cfg.slots):
        ws = grams(sample_slot_block(cfg, rng, 1))[0]
        if queue_driven:
            q_prev = np.concatenate((state.z, state.g))
            dec, state = QUEUE_STEPS[kind](state, params, ws, cfg.efficiency)
            q_new = np.concatenate((state.z, state.g))
            drift_slack_max = max(drift_slack_max, drift_slack(q_prev, q_new, dec.deficits))
        else:
            dec = THRESHOLD_STEPS[kind](params, threshold, ws, cfg.efficiency)
        sum_transmit += dec.transmitted_power
        sum_recv += dec.received_power
        transmit_slots += dec.transmitted_power > 0.0

    slots = cfg.slots
    avg_recv = sum_recv / slots
    z_rates = tuple(float(q) / slots for q in state.z) if queue_driven else ()
    g_rates = tuple(float(q) / slots for q in state.g) if queue_driven else ()
    stable = None
    if queue_driven:
        stable = bool(all(r <= QUEUE_RATE_TOL * power_scale(params) for r in z_rates))
    return RunSummary(
        policy=kind,
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
        gap_bound=gap_bound_const(kind, k, params.p_peak),
        config={},
    ).to_row()
