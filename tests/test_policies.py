"""Per-slot policy tests: hand-worked decisions, queue recursions, invariants.

Crafted diagonal Grams make every decision checkable by hand; the budget-queue
recursion is replayed against a plain-float oracle with dyadic parameters so
trajectories match exactly.
"""

import numpy as np
import pytest

from wptsim.channel import ScenarioConfig
from wptsim.policies import (
    POLICIES,
    POLICY_KINDS,
    QUEUE_DRIVEN_KINDS,
    PolicyParams,
    QueueState,
    core_step,
    default_v,
    gap_bound_const,
    init_queue_state,
    validate_params_for,
)
from wptsim.threshold import ThresholdValue
from oracles import jacobi_spectrum, naive_gram

E1_3 = np.array([1.0, 0.0, 0.0], dtype=np.complex128)


def diag_gram(*entries):
    return np.diag(np.asarray(entries, dtype=np.complex128))


def grams_of(*hs):
    """Stacked Grams of the given channel matrices, from the index-loop oracle."""
    return np.stack([naive_gram(np.asarray(h, dtype=np.complex128)) for h in hs])


class TestOptimalEnergy:
    STEP = staticmethod(POLICIES["optimal-energy"].step)
    PARAMS = PolicyParams(p_peak=5.0, p_targets=(0.01,))

    def test_transmits_above_threshold(self):
        ws = grams_of([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        dec = self.STEP(self.PARAMS, ThresholdValue(2.0, 1.0), ws, 1.0)
        assert dec.transmitted_power == 5.0
        assert np.allclose(dec.beam, np.sqrt(5.0) * E1_3, atol=1e-12)
        assert dec.received_power[0] == pytest.approx(20.0, rel=1e-12)

    def test_boundary_value_transmits(self):
        ws = grams_of([[2.0, 0.0, 0.0]])
        dec = self.STEP(self.PARAMS, ThresholdValue(4.0, 1.0), ws, 1.0)
        assert dec.transmitted_power == 5.0

    def test_silent_below_threshold(self):
        ws = grams_of([[2.0, 0.0, 0.0]])
        dec = self.STEP(self.PARAMS, ThresholdValue(4.0 + 1e-9, 1.0), ws, 1.0)
        assert dec.transmitted_power == 0.0
        assert np.all(dec.beam == 0.0)
        assert np.all(dec.received_power == 0.0)

    def test_efficiency_scales_received(self):
        ws = grams_of([[2.0, 0.0, 0.0]])
        dec = self.STEP(self.PARAMS, ThresholdValue(0.0, 1.0), ws, 0.5)
        assert dec.received_power[0] == pytest.approx(10.0, rel=1e-12)

    def test_rejects_multiple_receivers(self):
        with pytest.raises(ValueError, match="single-receiver"):
            validate_params_for("optimal-energy", self.PARAMS, 2)


class TestOptimalPower:
    STEP = staticmethod(POLICIES["optimal-power"].step)
    WS = grams_of([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])  # diag(1,0,0), diag(0,2,0)

    def test_beams_on_summed_gram(self):
        dec = self.STEP(PolicyParams(p_peak=4.0, p_avg=2.0), ThresholdValue(1.5, 0.5), self.WS, 1.0)
        assert dec.transmitted_power == 4.0
        assert np.allclose(dec.beam, 2.0 * np.array([0, 1, 0]), atol=1e-12)
        assert dec.received_power == pytest.approx([0.0, 8.0], abs=1e-12)

    def test_boundary_and_silence(self):
        p = PolicyParams(p_peak=4.0, p_avg=2.0)
        assert self.STEP(p, ThresholdValue(2.0, 0.5), self.WS, 1.0).transmitted_power == 4.0
        dec = self.STEP(p, ThresholdValue(2.0 + 1e-9, 0.5), self.WS, 1.0)
        assert dec.transmitted_power == 0.0
        assert np.all(dec.received_power == 0.0)


class TestMdppEnergy:
    def test_transmits_when_weighted_shift_positive(self):
        state = QueueState(np.array([1.0]), np.zeros(0), np.zeros(0))
        params = PolicyParams(p_peak=5.0, v=2.0, p_targets=(0.01,))
        dec, nxt = core_step("mdpp-energy", state, params, np.stack([diag_gram(5.0, 1.0)]), 1.0)
        # W' = 1*diag(5,1) - 2I = diag(3,-1): transmit along e1
        assert dec.transmitted_power == 5.0
        assert np.allclose(dec.beam, np.sqrt(5.0) * np.array([1, 0]), atol=1e-12)
        assert dec.received_power[0] == pytest.approx(25.0, rel=1e-12)
        assert nxt.z[0] == 0.0

    def test_queue_accumulates_shortfall(self):
        state = QueueState(np.array([0.01]), np.zeros(0), np.zeros(0))
        params = PolicyParams(p_peak=5.0, v=1e-6, p_targets=(0.01,))
        ws = np.stack([diag_gram(0.0008, 0.0)])
        dec, nxt = core_step("mdpp-energy", state, params, ws, 1.0)
        assert dec.received_power[0] == pytest.approx(0.004, rel=1e-12)
        assert nxt.z[0] == pytest.approx(0.016, rel=1e-12)

    def test_cold_start_is_silent_and_seeds_queues(self):
        params = PolicyParams(p_peak=5.0, v=2.0, p_targets=(0.01, 0.02))
        ws = np.stack([diag_gram(5.0, 1.0), diag_gram(1.0, 3.0)])
        dec, nxt = core_step("mdpp-energy", init_queue_state("mdpp-energy", 2), params, ws, 1.0)
        assert dec.transmitted_power == 0.0
        assert np.array_equal(nxt.z, [0.01, 0.02])

    def test_zero_eigenvalue_stays_silent(self):
        state = QueueState(np.array([1.0]), np.zeros(0), np.zeros(0))
        params = PolicyParams(p_peak=5.0, v=2.0, p_targets=(0.01,))
        dec, _ = core_step("mdpp-energy", state, params, np.stack([diag_gram(2.0, 2.0)]), 1.0)
        assert dec.transmitted_power == 0.0  # W' = 0 exactly, strict rule

    def test_scaling_queues_and_v_preserves_decision(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            ws = np.stack([h.conj().T @ h])
            params = PolicyParams(p_peak=5.0, v=2.0, p_targets=(0.01,))
            scaled = PolicyParams(p_peak=5.0, v=8.0, p_targets=(0.01,))
            z = np.array([float(rng.uniform(0, 3))])
            d1, _ = core_step("mdpp-energy", QueueState(z, np.zeros(0), np.zeros(0)), params, ws, 1.0)
            d2, _ = core_step("mdpp-energy", QueueState(4.0 * z, np.zeros(0), np.zeros(0)), scaled, ws, 1.0)
            assert d1.transmitted_power == d2.transmitted_power
            assert np.allclose(d1.beam, d2.beam, atol=1e-9)


class TestMdppPower:
    def test_cold_start_transmits_and_charges_budget(self):
        params = PolicyParams(p_peak=4.0, v=0.25, p_avg=1.5)
        ws = np.stack([diag_gram(3.0, 0.0), diag_gram(1.0, 1.0)])
        dec, nxt = core_step("mdpp-power", init_queue_state("mdpp-power", 2), params, ws, 1.0)
        assert dec.transmitted_power == 4.0
        assert nxt.z[0] == pytest.approx(params.p_peak - params.p_avg, rel=1e-12)
        assert np.array_equal(dec.deficits, [params.p_peak - params.p_avg])

    def test_large_backlog_silences(self):
        params = PolicyParams(p_peak=4.0, v=0.25, p_avg=1.5)
        ws = np.stack([diag_gram(3.0, 0.0)])
        state = QueueState(np.array([100.0]), np.zeros(0), np.zeros(0))
        dec, nxt = core_step("mdpp-power", state, params, ws, 1.0)
        assert dec.transmitted_power == 0.0
        assert nxt.z[0] == pytest.approx(100.0 - 1.5, rel=1e-12)

    def test_recursion_matches_plain_float_oracle(self):
        # dyadic parameters keep every update exact, so trajectories must
        # agree bitwise with an independent scalar recursion
        p_peak, p_avg, v = 4.0, 1.5, 0.25
        ws = np.stack([diag_gram(3.0, 0.0), diag_gram(1.0625, 1.0)])
        lam_hat = jacobi_spectrum(ws.sum(axis=0))[-1]
        assert lam_hat == pytest.approx(4.0625, abs=1e-12)

        params = PolicyParams(p_peak=p_peak, v=v, p_avg=p_avg)
        state = init_queue_state("mdpp-power", 2)
        z_oracle = 0.0
        transmits = policy_transmits = 0
        for _ in range(999):
            on = v * lam_hat - z_oracle > 0.0
            dec, state = core_step("mdpp-power", state, params, ws, 1.0)
            assert (dec.transmitted_power > 0.0) == on
            z_oracle = max(z_oracle + ((p_peak if on else 0.0) - p_avg), 0.0)
            assert state.z[0] == z_oracle
            transmits += on
            policy_transmits += dec.transmitted_power > 0.0
        assert policy_transmits == transmits
        # long-run duty ~ p_avg / p_peak up to one-slot quantization
        assert transmits / 999 == pytest.approx(p_avg / p_peak, abs=0.05)


class TestMmf:
    PARAMS = PolicyParams(p_peak=4.0, v=2.0, p_avg=2.0)

    def test_cold_start_silent_with_full_targets(self):
        ws = np.stack([diag_gram(3.0, 0.0), diag_gram(1.0, 1.0)])
        dec, nxt = core_step("mmf", init_queue_state("mmf", 2), self.PARAMS, ws, 1.0)
        assert dec.transmitted_power == 0.0
        assert np.array_equal(nxt.gamma, [4.0, 4.0])  # sum g = 0 < v: targets on
        assert np.array_equal(nxt.g, [4.0, 4.0])
        assert nxt.z[0] == 0.0

    def test_targets_switch_off_above_v(self):
        state = QueueState(np.array([0.0]), np.array([1.5, 0.6]), np.zeros(2))
        ws = np.stack([diag_gram(3.0, 0.0), diag_gram(1.0, 1.0)])
        dec, nxt = core_step("mmf", state, self.PARAMS, ws, 1.0)
        assert np.array_equal(nxt.gamma, [0.0, 0.0])  # sum g = 2.1 >= v
        assert dec.transmitted_power == 4.0  # weighted gram has positive top eigenvalue
        # auxiliary queues drain by the received power, floored at zero
        assert np.allclose(nxt.g, np.maximum(state.g - dec.received_power, 0.0), atol=1e-12)

    def test_deficit_layout_z_then_g(self):
        state = QueueState(np.array([0.3]), np.array([1.0, 2.0]), np.zeros(2))
        ws = np.stack([diag_gram(3.0, 0.0), diag_gram(1.0, 1.0)])
        dec, nxt = core_step("mmf", state, self.PARAMS, ws, 1.0)
        assert dec.deficits.shape == (3,)
        assert np.allclose(nxt.z, np.maximum(state.z + dec.deficits[:1], 0.0), atol=1e-15)
        assert np.allclose(nxt.g, np.maximum(state.g + dec.deficits[1:], 0.0), atol=1e-15)


class TestQpf:
    PARAMS = PolicyParams(p_peak=4.0, v=2.0, p_avg=2.0, p_min=0.5)

    def test_cold_start_silent_with_capped_targets(self):
        ws = np.stack([diag_gram(3.0, 0.0), diag_gram(1.0, 1.0)])
        dec, nxt = core_step("qpf", init_queue_state("qpf", 2), self.PARAMS, ws, 1.0)
        assert dec.transmitted_power == 0.0
        assert np.array_equal(nxt.gamma, [4.0, 4.0])  # empty queues take the cap
        assert np.array_equal(nxt.z, [0.5, 0.5, 0.0])  # floor queues charge p_min

    def test_target_is_v_over_g_capped(self):
        state = QueueState(np.array([0.0, 0.0, 0.0]), np.array([8.0, 0.25]), np.zeros(2))
        ws = np.stack([diag_gram(3.0, 0.0), diag_gram(1.0, 1.0)])
        _, nxt = core_step("qpf", state, self.PARAMS, ws, 1.0)
        assert nxt.gamma[0] == pytest.approx(0.25, rel=1e-12)  # v / g_1
        assert nxt.gamma[1] == 4.0  # v / 0.25 = 8 capped at p_peak

    def test_deficit_layout_z_then_g(self):
        state = QueueState(np.array([0.2, 0.1, 0.05]), np.array([1.0, 2.0]), np.zeros(2))
        ws = np.stack([diag_gram(3.0, 0.0), diag_gram(1.0, 1.0)])
        dec, nxt = core_step("qpf", state, self.PARAMS, ws, 1.0)
        assert dec.deficits.shape == (5,)
        assert np.allclose(nxt.z, np.maximum(state.z + dec.deficits[:3], 0.0), atol=1e-15)
        assert np.allclose(nxt.g, np.maximum(state.g + dec.deficits[3:], 0.0), atol=1e-15)


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
        state = init_queue_state(kind, 2)
        saw_on = saw_off = False
        for _ in range(200):
            dec, state = core_step(kind, state, params, self.random_ws(rng), 1.0)
            assert dec.transmitted_power in (0.0, params.p_peak)
            assert np.all(state.z >= 0.0) and np.all(state.g >= 0.0)
            assert np.all(dec.received_power >= 0.0)
            saw_on |= dec.transmitted_power > 0.0
            saw_off |= dec.transmitted_power == 0.0
        assert saw_on  # both branches exercised
        assert saw_off or kind == "mdpp-power"

    @pytest.mark.parametrize("kind", QUEUE_DRIVEN_KINDS)
    def test_zero_channel_never_transmits(self, kind):
        params = self.params_for(kind)
        state = init_queue_state(kind, 2)
        ws = np.zeros((2, 4, 4), dtype=np.complex128)
        for _ in range(5):
            dec, state = core_step(kind, state, params, ws, 1.0)
            assert dec.transmitted_power == 0.0
            assert np.all(dec.beam == 0.0)

    @pytest.mark.parametrize("kind", QUEUE_DRIVEN_KINDS)
    def test_beam_is_scaled_top_eigenvector(self, kind):
        rng = np.random.default_rng(77)
        params = self.params_for(kind)
        state = init_queue_state(kind, 2)
        checked = 0
        for _ in range(250):
            ws = self.random_ws(rng)
            dec, state = core_step(kind, state, params, ws, 1.0)
            if dec.transmitted_power == 0.0:
                continue
            assert np.linalg.norm(dec.beam) == pytest.approx(np.sqrt(params.p_peak), rel=1e-10)
            # received power computed from the beam itself must match
            for i in range(2):
                manual = (dec.beam.conj() @ ws[i] @ dec.beam).real
                assert dec.received_power[i] == pytest.approx(manual, rel=1e-10)
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

    def test_validate_params_for(self):
        full = PolicyParams(p_peak=4.0, v=1.0, p_avg=2.0, p_targets=(0.01, 0.02), p_min=0.1)
        for kind in POLICY_KINDS:
            if kind == "optimal-energy":
                continue
            validate_params_for(kind, full, 2)
        with pytest.raises(ValueError, match="unknown policy"):
            validate_params_for("mdpp", full, 2)
        with pytest.raises(ValueError, match="control parameter"):
            validate_params_for("mmf", PolicyParams(p_peak=4.0, p_avg=2.0), 2)
        with pytest.raises(ValueError, match="target"):
            validate_params_for("mdpp-energy", PolicyParams(p_peak=4.0, v=1.0, p_targets=(0.01,)), 2)
        with pytest.raises(ValueError, match="p_avg"):
            validate_params_for("optimal-power", PolicyParams(p_peak=4.0), 2)
        with pytest.raises(ValueError, match="p_min"):
            validate_params_for("qpf", PolicyParams(p_peak=4.0, v=1.0, p_avg=2.0), 2)
        with pytest.raises(ValueError, match="single-receiver"):
            validate_params_for("optimal-energy", PolicyParams(p_peak=4.0, p_targets=(0.01, 0.02)), 2)

    def test_init_queue_state_sizes(self):
        assert init_queue_state("mdpp-energy", 3).z.shape == (3,)
        assert init_queue_state("mdpp-power", 3).z.shape == (1,)
        s = init_queue_state("mmf", 3)
        assert (s.z.shape, s.g.shape, s.gamma.shape) == ((1,), (3,), (3,))
        s = init_queue_state("qpf", 3)
        assert (s.z.shape, s.g.shape, s.gamma.shape) == ((4,), (3,), (3,))
        with pytest.raises(ValueError):
            init_queue_state("optimal-energy", 1)

    def test_queue_state_rejects_negative(self):
        with pytest.raises(ValueError):
            QueueState(np.array([-1.0]), np.zeros(0), np.zeros(0))

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
