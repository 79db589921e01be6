"""Per-slot policy tests: hand-worked decisions, queue recursions, invariants.

Crafted diagonal Grams make every decision checkable by hand; the budget-queue
recursion is replayed against a plain-float oracle with dyadic parameters so
trajectories match exactly.
"""

from dataclasses import replace

import numpy as np
import pytest

from wptsim.channel import ScenarioConfig
from wptsim.policies import (
    POLICIES,
    POLICY_KINDS,
    QUEUE_DRIVEN_KINDS,
    PolicyParams,
    core_step,
    default_v,
    gap_bound_const,
    resolve_params,
)
from wptsim.threshold import ThresholdValue
from oracles import jacobi_spectrum, naive_combine, naive_gram

E1_3 = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
TWO_RX = ScenarioConfig(positions=((0.3, 0.3), (0.0, 0.5)))


def diag_gram(*entries):
    return np.diag(np.asarray(entries, dtype=np.complex128))


def grams_of(*hs):
    """Stacked Grams of the given channel matrices, from the index-loop oracle."""
    return np.stack([naive_gram(np.asarray(h, dtype=np.complex128)) for h in hs])


def chunk(*ws):
    """A chunk of slots, one stacked (K, N, N) Gram per slot."""
    return np.stack(ws)


def threshold_step(kind):
    """The received powers a threshold kind's core_step returns for one
    chunk, as STEP(params, threshold, ws_block, efficiency)."""
    return staticmethod(lambda params, threshold, ws, eff: core_step(kind, np.zeros(0), params, ws, eff, threshold)[2])


class TestOptimalEnergy:
    STEP = threshold_step("optimal-energy")
    PARAMS = PolicyParams(p_peak=5.0, p_targets=(0.01,))

    def test_transmits_above_threshold(self):
        ws = grams_of([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        recv = self.STEP(self.PARAMS, ThresholdValue(2.0, 1.0), chunk(ws), 1.0)
        assert recv.shape == (1, 1)
        # beam sqrt(5) e1 on W = diag(4, 1, 0)
        assert recv[0, 0] == pytest.approx(20.0, rel=1e-12)

    def test_boundary_value_transmits(self):
        ws = grams_of([[2.0, 0.0, 0.0]])
        assert len(self.STEP(self.PARAMS, ThresholdValue(4.0, 1.0), chunk(ws), 1.0)) == 1

    def test_silent_below_threshold(self):
        ws = grams_of([[2.0, 0.0, 0.0]])
        recv = self.STEP(self.PARAMS, ThresholdValue(4.0 + 1e-9, 1.0), chunk(ws), 1.0)
        assert recv.shape == (0, 1)

    def test_efficiency_scales_received(self):
        ws = grams_of([[2.0, 0.0, 0.0]])
        recv = self.STEP(self.PARAMS, ThresholdValue(0.0, 1.0), chunk(ws), 0.5)
        assert recv[0, 0] == pytest.approx(10.0, rel=1e-12)

    def test_rejects_multiple_receivers(self):
        with pytest.raises(ValueError, match="single-receiver"):
            resolve_params(TWO_RX, self.PARAMS, "optimal-energy")

    def test_chunk_keeps_transmitting_slots_in_order(self):
        quiet = grams_of([[1.0, 0.0, 0.0]])  # lambda_max 1
        loud = grams_of([[0.0, 2.0, 0.0]])  # lambda_max 4
        louder = grams_of([[0.0, 0.0, 3.0]])  # lambda_max 9
        recv = self.STEP(self.PARAMS, ThresholdValue(2.0, 1.0), chunk(quiet, louder, quiet, loud), 1.0)
        assert recv[:, 0] == pytest.approx([45.0, 20.0], rel=1e-12)


class TestOptimalPower:
    STEP = threshold_step("optimal-power")
    WS = grams_of([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])  # diag(1,0,0), diag(0,2,0)

    def test_beams_on_summed_gram(self):
        recv = self.STEP(PolicyParams(p_peak=4.0, p_avg=2.0), ThresholdValue(1.5, 0.5), chunk(self.WS), 1.0)
        # beam 2 e2: the second receiver takes everything
        assert recv[0] == pytest.approx([0.0, 8.0], abs=1e-12)

    def test_boundary_and_silence(self):
        p = PolicyParams(p_peak=4.0, p_avg=2.0)
        assert len(self.STEP(p, ThresholdValue(2.0, 0.5), chunk(self.WS), 1.0)) == 1
        recv = self.STEP(p, ThresholdValue(2.0 + 1e-9, 0.5), chunk(self.WS), 1.0)
        assert recv.shape == (0, 2)


def advance(kind, q, params, ws, efficiency=1.0):
    """One slot, stepped as a one-slot chunk: (power, received, deficits,
    next queues)."""
    qs, ds, on = core_step(kind, np.asarray(q, dtype=np.float64), params, ws[None], efficiency)
    power, recv = (params.p_peak, on[0]) if on else (0.0, np.zeros(ws.shape[0]))
    return power, recv, ds[0], qs[1]


def initial_queues(kind, k):
    return np.zeros(sum(POLICIES[kind].queues(k)))


def weights_and_shift(kind, q, params, k):
    """The weighted Gram combination each queue-driven kind beams on."""
    if kind == "mdpp-energy":
        return q, params.v
    if kind == "mdpp-power":
        return np.full(k, params.v), q[0]
    if kind == "mmf":
        return q[1:], q[0]
    return q[:k] + q[k + 1 :], q[k]


class TestMdppEnergy:
    def test_transmits_when_weighted_shift_positive(self):
        params = PolicyParams(p_peak=5.0, v=2.0, p_targets=(0.01,))
        power, recv, _, q = advance("mdpp-energy", [1.0], params, np.stack([diag_gram(5.0, 1.0)]))
        # W' = 1*diag(5,1) - 2I = diag(3,-1): transmit along e1
        assert power == 5.0
        assert recv[0] == pytest.approx(25.0, rel=1e-12)
        assert q[0] == 0.0

    def test_queue_accumulates_shortfall(self):
        params = PolicyParams(p_peak=5.0, v=1e-6, p_targets=(0.01,))
        ws = np.stack([diag_gram(0.0008, 0.0)])
        _, recv, _, q = advance("mdpp-energy", [0.01], params, ws)
        assert recv[0] == pytest.approx(0.004, rel=1e-12)
        assert q[0] == pytest.approx(0.016, rel=1e-12)

    def test_cold_start_is_silent_and_seeds_queues(self):
        params = PolicyParams(p_peak=5.0, v=2.0, p_targets=(0.01, 0.02))
        ws = np.stack([diag_gram(5.0, 1.0), diag_gram(1.0, 3.0)])
        power, _, _, q = advance("mdpp-energy", initial_queues("mdpp-energy", 2), params, ws)
        assert power == 0.0
        assert np.array_equal(q, [0.01, 0.02])

    def test_zero_eigenvalue_stays_silent(self):
        params = PolicyParams(p_peak=5.0, v=2.0, p_targets=(0.01,))
        power, _, _, _ = advance("mdpp-energy", [1.0], params, np.stack([diag_gram(2.0, 2.0)]))
        assert power == 0.0  # W' = 0 exactly, strict rule

    def test_scaling_queues_and_v_preserves_decision(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            ws = np.stack([h.conj().T @ h])
            params = PolicyParams(p_peak=5.0, v=2.0, p_targets=(0.01,))
            scaled = PolicyParams(p_peak=5.0, v=8.0, p_targets=(0.01,))
            z = float(rng.uniform(0, 3))
            p1, r1, _, _ = advance("mdpp-energy", [z], params, ws)
            p2, r2, _, _ = advance("mdpp-energy", [4.0 * z], scaled, ws)
            assert p1 == p2
            assert np.allclose(r1, r2, rtol=1e-9, atol=1e-12)


class TestMdppPower:
    def test_cold_start_transmits_and_charges_budget(self):
        params = PolicyParams(p_peak=4.0, v=0.25, p_avg=1.5)
        ws = np.stack([diag_gram(3.0, 0.0), diag_gram(1.0, 1.0)])
        power, _, d, q = advance("mdpp-power", initial_queues("mdpp-power", 2), params, ws)
        assert power == 4.0
        assert q[0] == pytest.approx(params.p_peak - params.p_avg, rel=1e-12)
        assert np.array_equal(d, [params.p_peak - params.p_avg])

    def test_large_backlog_silences(self):
        params = PolicyParams(p_peak=4.0, v=0.25, p_avg=1.5)
        ws = np.stack([diag_gram(3.0, 0.0)])
        power, _, _, q = advance("mdpp-power", [100.0], params, ws)
        assert power == 0.0
        assert q[0] == pytest.approx(100.0 - 1.5, rel=1e-12)

    def test_recursion_matches_plain_float_oracle(self):
        # dyadic parameters keep every update exact, so trajectories must
        # agree bitwise with an independent scalar recursion
        p_peak, p_avg, v = 4.0, 1.5, 0.25
        ws = np.stack([diag_gram(3.0, 0.0), diag_gram(1.0625, 1.0)])
        lam_hat = jacobi_spectrum(ws.sum(axis=0))[-1]
        assert lam_hat == pytest.approx(4.0625, abs=1e-12)

        params = PolicyParams(p_peak=p_peak, v=v, p_avg=p_avg)
        q = initial_queues("mdpp-power", 2)
        z_oracle = 0.0
        transmits = policy_transmits = 0
        for _ in range(999):
            on = v * lam_hat - z_oracle > 0.0
            power, _, _, q = advance("mdpp-power", q, params, ws)
            assert (power > 0.0) == on
            z_oracle = max(z_oracle + ((p_peak if on else 0.0) - p_avg), 0.0)
            assert q[0] == z_oracle
            transmits += on
            policy_transmits += power > 0.0
        assert policy_transmits == transmits
        # long-run duty ~ p_avg / p_peak up to one-slot quantization
        assert transmits / 999 == pytest.approx(p_avg / p_peak, abs=0.05)


class TestMmf:
    PARAMS = PolicyParams(p_peak=4.0, v=2.0, p_avg=2.0)

    def test_cold_start_silent_with_full_targets(self):
        ws = np.stack([diag_gram(3.0, 0.0), diag_gram(1.0, 1.0)])
        power, recv, d, q = advance("mmf", initial_queues("mmf", 2), self.PARAMS, ws)
        assert power == 0.0
        assert np.array_equal(d[1:] + recv, [4.0, 4.0])  # sum g = 0 < v: targets on
        assert np.array_equal(q, [0.0, 4.0, 4.0])

    def test_targets_switch_off_above_v(self):
        g = np.array([1.5, 0.6])
        ws = np.stack([diag_gram(3.0, 0.0), diag_gram(1.0, 1.0)])
        power, recv, d, q = advance("mmf", np.concatenate(([0.0], g)), self.PARAMS, ws)
        assert np.array_equal(d[1:] + recv, [0.0, 0.0])  # sum g = 2.1 >= v
        assert power == 4.0  # weighted gram has positive top eigenvalue
        # auxiliary queues drain by the received power, floored at zero
        assert np.allclose(q[1:], np.maximum(g - recv, 0.0), atol=1e-12)

    def test_deficit_layout_z_then_g(self):
        q0 = np.array([0.3, 1.0, 2.0])
        ws = np.stack([diag_gram(3.0, 0.0), diag_gram(1.0, 1.0)])
        _, _, d, q = advance("mmf", q0, self.PARAMS, ws)
        assert d.shape == (3,)
        assert np.array_equal(q, np.maximum(q0 + d, 0.0))
        assert d[0] in (self.PARAMS.p_peak - self.PARAMS.p_avg, -self.PARAMS.p_avg)


class TestQpf:
    PARAMS = PolicyParams(p_peak=4.0, v=2.0, p_avg=2.0, p_min=0.5)

    def test_cold_start_silent_with_capped_targets(self):
        ws = np.stack([diag_gram(3.0, 0.0), diag_gram(1.0, 1.0)])
        power, recv, d, q = advance("qpf", initial_queues("qpf", 2), self.PARAMS, ws)
        assert power == 0.0
        assert np.array_equal(d[3:] + recv, [4.0, 4.0])  # empty queues take the cap
        assert np.array_equal(q[:3], [0.5, 0.5, 0.0])  # floor queues charge p_min

    def test_target_is_v_over_g_capped(self):
        q0 = np.array([0.0, 0.0, 0.0, 8.0, 0.25])
        ws = np.stack([diag_gram(3.0, 0.0), diag_gram(1.0, 1.0)])
        _, recv, d, _ = advance("qpf", q0, self.PARAMS, ws)
        gamma = d[3:] + recv
        assert gamma[0] == pytest.approx(0.25, rel=1e-12)  # v / g_1
        assert gamma[1] == 4.0  # v / 0.25 = 8 capped at p_peak

    def test_deficit_layout_z_then_g(self):
        q0 = np.array([0.2, 0.1, 0.05, 1.0, 2.0])
        ws = np.stack([diag_gram(3.0, 0.0), diag_gram(1.0, 1.0)])
        _, recv, d, q = advance("qpf", q0, self.PARAMS, ws)
        assert d.shape == (5,)
        assert np.array_equal(q, np.maximum(q0 + d, 0.0))
        assert np.array_equal(d[:2], self.PARAMS.p_min - recv)


class TestInvariants:
    """Randomized sweeps over all queue-driven policies."""

    @staticmethod
    def params_for(kind):
        return PolicyParams(p_peak=4.0, v=1.5, p_avg=2.0, p_targets=(0.01, 0.02), p_min=0.25)

    def random_ws(self, rng, k=2, n=4):
        h = rng.standard_normal((k, 2, n)) + 1j * rng.standard_normal((k, 2, n))
        ws = np.einsum("kmn,kmp->knp", h.conj(), h)
        return 0.5 * (ws + np.conj(np.swapaxes(ws, 1, 2)))

    @pytest.mark.parametrize("kind", QUEUE_DRIVEN_KINDS)
    def test_two_level_power_and_nonnegative_queues(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**32)
        params = self.params_for(kind)
        q = initial_queues(kind, 2)
        saw_on = saw_off = False
        for _ in range(200):
            power, recv, _, q = advance(kind, q, params, self.random_ws(rng))
            assert power in (0.0, params.p_peak)
            assert np.all(q >= 0.0)
            assert np.all(recv >= 0.0)
            saw_on |= power > 0.0
            saw_off |= power == 0.0
        assert saw_on  # both branches exercised
        assert saw_off or kind == "mdpp-power"

    @pytest.mark.parametrize("kind", QUEUE_DRIVEN_KINDS)
    def test_zero_channel_never_transmits(self, kind):
        params = self.params_for(kind)
        q = initial_queues(kind, 2)
        ws = np.zeros((2, 4, 4), dtype=np.complex128)
        for _ in range(5):
            power, recv, _, q = advance(kind, q, params, ws)
            assert power == 0.0
            assert np.all(recv == 0.0)

    @pytest.mark.parametrize("kind", QUEUE_DRIVEN_KINDS)
    def test_beam_is_scaled_top_eigenvector(self, kind):
        # a unit top eigenvector v of W' = sum_i w_i W_i - s I at power p
        # harvests recv_i = p v^H W_i v, so sum_i w_i recv_i - s p = p lambda_max(W')
        rng = np.random.default_rng(77)
        params = self.params_for(kind)
        q = initial_queues(kind, 2)
        checked = 0
        for _ in range(250):
            ws = self.random_ws(rng)
            weights, shift = weights_and_shift(kind, q, params, 2)
            lam = jacobi_spectrum(naive_combine(weights, ws, shift))[-1]
            power, recv, _, q = advance(kind, q, params, ws)
            if power == 0.0:
                assert lam <= 1e-9 * max(1.0, abs(shift))
                continue
            assert lam > 0.0
            assert float(np.dot(weights, recv)) - shift * power == pytest.approx(power * lam, rel=1e-9, abs=1e-12)
            for i in range(2):
                assert 0.0 <= recv[i] <= power * jacobi_spectrum(ws[i])[-1] * (1 + 1e-9)
            checked += 1
        assert checked > 10


class TestParameterPlumbing:
    def test_policy_params_validation(self):
        with pytest.raises(ValueError):
            PolicyParams(p_peak=0.0)
        with pytest.raises(ValueError):
            PolicyParams(p_peak=1.0, v=-1.0)
        with pytest.raises(ValueError):
            PolicyParams(p_peak=1.0, p_avg=2.0)
        with pytest.raises(ValueError):
            PolicyParams(p_peak=1.0, p_targets=(0.01, -0.01))
        with pytest.raises(ValueError):
            PolicyParams(p_peak=1.0, p_min=-0.5)
        # a bool, a string or a NaN is named, never compared or converted
        for name in ("p_peak", "v", "p_avg", "p_min"):
            for value in (float("nan"), True, "3"):
                with pytest.raises(ValueError, match=f"{name} must be a number"):
                    PolicyParams(**{"p_peak": 5.0, name: value})
        for entry in (float("nan"), True, "0.01"):
            with pytest.raises(ValueError, match="p_targets"):
                PolicyParams(p_peak=1.0, p_targets=(0.01, entry))
        # valid values keep their value and type
        params = PolicyParams(p_peak=5, v=2, p_avg=np.float64(2.5), p_targets=[1, 0.5], p_min=0)
        assert (params.p_peak, params.v, params.p_min) == (5, 2, 0) and type(params.p_peak) is int
        assert type(params.p_avg) is np.float64 and params.p_targets == (1.0, 0.5)

    def test_resolve_params_checks_the_needed_fields(self):
        full = PolicyParams(p_peak=4.0, v=1.0, p_avg=2.0, p_targets=(0.01, 0.02), p_min=0.1)
        for kind in POLICY_KINDS:
            if kind == "optimal-energy":
                continue
            # a kind that reads no v reports none
            want = full if "v" in POLICIES[kind].needs else replace(full, v=None)
            assert resolve_params(TWO_RX, full, kind) == want
        with pytest.raises(ValueError, match="unknown policy"):
            resolve_params(TWO_RX, full, "mdpp")
        # a missing v is derived, not rejected
        assert resolve_params(TWO_RX, PolicyParams(p_peak=4.0, p_avg=2.0), "mmf").v == 20.0
        with pytest.raises(ValueError, match="target"):
            resolve_params(TWO_RX, PolicyParams(p_peak=4.0, v=1.0, p_targets=(0.01,)), "mdpp-energy")
        with pytest.raises(ValueError, match="p_avg"):
            resolve_params(TWO_RX, PolicyParams(p_peak=4.0), "optimal-power")
        with pytest.raises(ValueError, match="p_min"):
            resolve_params(TWO_RX, PolicyParams(p_peak=4.0, v=1.0, p_avg=2.0), "qpf")
        with pytest.raises(ValueError, match="single-receiver"):
            resolve_params(TWO_RX, PolicyParams(p_peak=4.0, p_targets=(0.01, 0.02)), "optimal-energy")

    def test_init_queue_state_sizes(self):
        # (constraint queues z, auxiliary queues g) for three receivers
        assert POLICIES["mdpp-energy"].queues(3) == (3, 0)
        assert POLICIES["mdpp-power"].queues(3) == (1, 0)
        assert POLICIES["mmf"].queues(3) == (1, 3)
        assert POLICIES["qpf"].queues(3) == (4, 3)
        assert POLICIES["optimal-energy"].queues is None
        assert POLICIES["optimal-power"].queues is None

    def test_gap_bound_const(self):
        assert gap_bound_const("mdpp-energy", 2, 5.0) == pytest.approx(25.0)
        assert gap_bound_const("mdpp-power", 2, 5.0) == pytest.approx(12.5)
        assert gap_bound_const("mmf", 2, 5.0) == pytest.approx(37.5)
        assert gap_bound_const("qpf", 2, 5.0) == pytest.approx(62.5)
        assert gap_bound_const("optimal-energy", 2, 5.0) is None

    def test_default_v_positive_for_queue_kinds(self):
        cfg = ScenarioConfig(n_tx=8, n_rx=4, positions=((0.3, 0.3), (0.0, 0.5)), slots=100_000)
        params = PolicyParams(p_peak=5.0, p_avg=2.5, p_targets=(0.01, 0.01), p_min=0.005)
        for kind in QUEUE_DRIVEN_KINDS:
            assert default_v(kind, params, cfg) > 0.0
        with pytest.raises(ValueError):
            default_v("optimal-power", params, cfg)

    @pytest.mark.parametrize(
        "kind, gain, targets",
        [
            ("mdpp-power", 0.0, (0.01,)),
            ("mdpp-energy", 0.0, (0.01,)),
            ("mdpp-energy", 1e-3, (0.0,)),
            ("qpf", 0.0, (0.01,)),
        ],
    )
    def test_default_v_names_a_zero_channel_scale(self, kind, gain, targets):
        cfg = ScenarioConfig(n_tx=8, n_rx=4, positions=((0.3, 0.3),), slots=1000, reference_gain=gain)
        params = PolicyParams(p_peak=5.0, p_avg=2.5, p_targets=targets, p_min=0.005)
        with pytest.raises(ValueError, match="pass v explicitly"):
            default_v(kind, params, cfg)
