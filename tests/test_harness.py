"""Harness tests: run/sweep plumbing, degenerate channels, drift bound.

Degenerate scenarios (zero gain, pure line-of-sight) have closed-form
outcomes, so the whole loop is checkable end to end without tolerance games.
"""

from dataclasses import replace

import numpy as np
import pytest

from wptsim import harness, linalg, policies
from wptsim.channel import KAPPA_LOS_LIMIT, ScenarioConfig
from wptsim.config import load_preset
from wptsim.harness import (
    DRIFT_SLACK,
    RunSummary,
    SweepSpec,
    apply_sweep_value,
    estimate_threshold,
    power_scale,
    resolve_params,
    run,
    sweep,
)
from wptsim.policies import POLICY_KINDS, QUEUE_DRIVEN_KINDS, PolicyParams
from wptsim.threshold import InfeasibleTargetError

TWO_RX = ((0.3, 0.3), (0.0, 0.5))


def scenario(**kw):
    base = dict(n_tx=4, n_rx=2, positions=TWO_RX, slots=300, seed=11)
    base.update(kw)
    return ScenarioConfig(**base)


class TestDegenerateChannels:
    def test_zero_gain_starves_delivery_queues(self):
        cfg = scenario(reference_gain=0.0, slots=200)
        params = PolicyParams(p_peak=5.0, v=1.0, p_targets=(0.01, 0.02))
        s = run(cfg, params, "mdpp-energy")
        assert s.avg_transmit_power == 0.0
        assert s.duty_cycle == 0.0
        assert s.avg_received_power == (0.0, 0.0)
        assert s.z_rates[0] == pytest.approx(0.01, rel=1e-9)
        assert s.z_rates[1] == pytest.approx(0.02, rel=1e-9)
        assert s.queues_stable is False
        assert s.drift_slack_max <= DRIFT_SLACK

    def test_zero_efficiency_energy_target_is_infeasible(self):
        cfg = scenario(positions=((0.3, 0.3),), efficiency=0.0, slots=50)
        params = PolicyParams(p_peak=5.0, p_targets=(0.01,))
        with pytest.raises(InfeasibleTargetError, match="zero conversion efficiency"):
            run(cfg, params, "optimal-energy")

    def test_pure_los_power_budget_at_peak_transmits_always(self):
        cfg = scenario(positions=((0.3, 0.3),), rician_kappa=KAPPA_LOS_LIMIT, slots=64)
        params = PolicyParams(p_peak=5.0, p_avg=5.0)
        s = run(cfg, params, "optimal-power", warmup_samples=128)
        assert s.threshold == 0.0
        assert s.duty_cycle == 1.0
        assert s.avg_transmit_power == 5.0
        # rank-one line of sight: every slot harvests p_peak * g * M * N
        lam = cfg.gains()[0] * cfg.n_rx * cfg.n_tx
        assert s.avg_received_power[0] == pytest.approx(5.0 * lam, rel=1e-9)

    def test_pure_los_energy_threshold_feasible_target(self):
        cfg = scenario(positions=((0.3, 0.3),), rician_kappa=KAPPA_LOS_LIMIT, slots=64)
        lam = cfg.gains()[0] * cfg.n_rx * cfg.n_tx
        params = PolicyParams(p_peak=5.0, p_targets=(0.9 * 5.0 * lam,))
        s = run(cfg, params, "optimal-energy", warmup_samples=128)
        assert s.duty_cycle == 1.0
        assert s.avg_received_power[0] >= params.p_targets[0]


class TestRunBookkeeping:
    def test_summaries_are_deterministic(self):
        cfg = scenario(slots=120)
        params = PolicyParams(p_peak=5.0, v=0.002, p_avg=2.5)
        a = run(cfg, params, "mdpp-power")
        b = run(cfg, params, "mdpp-power")
        assert a == b
        c = run(replace(cfg, seed=12), params, "mdpp-power")
        assert c.avg_received_power != a.avg_received_power

    @pytest.mark.parametrize("kind", QUEUE_DRIVEN_KINDS)
    def test_drift_bound_holds_each_slot(self, kind):
        cfg = scenario(slots=400)
        params = PolicyParams(p_peak=5.0, p_avg=2.5, p_targets=(0.005, 0.005), p_min=0.002)
        s = run(cfg, params, kind)
        assert s.drift_slack_max <= DRIFT_SLACK

    def test_row_has_per_receiver_columns(self):
        cfg = scenario(slots=60)
        params = PolicyParams(p_peak=5.0, p_avg=2.5, p_min=0.002)
        row = run(cfg, params, "qpf").to_row()
        for key in (
            "policy",
            "avg_transmit_power",
            "total_received",
            "avg_received_power_1",
            "avg_received_power_2",
            "z_rate_1",
            "z_rate_3",
            "g_rate_2",
            "duty_cycle",
            "v",
            "gap_bound",
        ):
            assert key in row
        assert row["total_received"] == pytest.approx(
            row["avg_received_power_1"] + row["avg_received_power_2"], rel=1e-12
        )

    def test_config_echo_carries_assumptions_and_resolved_v(self):
        cfg = scenario(slots=60)
        s = run(cfg, PolicyParams(p_peak=5.0, p_avg=2.5), "mdpp-power")
        echo = s.config
        assert echo["scenario"]["n_tx"] == 4
        assert echo["scenario"]["rician_kappa"] == cfg.rician_kappa
        assert echo["params"]["v"] == s.v and s.v is not None and s.v > 0
        assert echo["warmup_samples"] is None  # no threshold estimation here

    def test_optimal_run_records_threshold_and_warmup(self):
        cfg = scenario(slots=60)
        s = run(cfg, PolicyParams(p_peak=5.0, p_avg=2.5), "optimal-power", warmup_samples=256)
        assert s.threshold is not None and s.threshold >= 0.0
        assert s.config["warmup_samples"] == 256
        assert s.queues_stable is None and s.z_rates == ()

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_summary_does_not_depend_on_chunk_size(self, kind, monkeypatch):
        positions = TWO_RX[:1] if kind == "optimal-energy" else TWO_RX
        cfg = scenario(slots=3000, positions=positions)
        params = PolicyParams(p_peak=5.0, p_avg=2.5, p_targets=(0.005,) * len(positions), p_min=0.002)
        want = run(cfg, params, kind, warmup_samples=512).to_row()
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(harness, "_CHUNK", chunk)
            assert run(cfg, params, kind, warmup_samples=512).to_row() == want

    def test_chunk_size_cannot_move_the_last_bits(self, monkeypatch):
        # a case whose summary once moved by an ulp between small and large
        # chunks, because the Gram stacks' memory layout followed their size
        exp = load_preset("fig7-baseline")
        cfg = replace(exp.scenario, slots=3000, seed=35)
        want = run(cfg, exp.params, "mdpp-power").to_row()
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(harness, "_CHUNK", chunk)
            assert run(cfg, exp.params, "mdpp-power").to_row() == want

    def test_queues_outside_the_orthant_are_rejected(self, monkeypatch):
        def nan_step(kind, q, params, ws_block, efficiency):
            qs = np.full((len(ws_block) + 1, q.size), np.nan)
            qs[0] = q
            return qs, np.full((len(ws_block), q.size), np.nan), []

        monkeypatch.setattr(harness, "core_step", nan_step)
        with pytest.raises(ArithmeticError, match="nonnegative"):
            run(scenario(slots=10), PolicyParams(p_peak=5.0, v=1.0, p_avg=2.5), "mdpp-power")

    @staticmethod
    def threshold_run(kind):
        positions = TWO_RX[:1] if kind == "optimal-energy" else TWO_RX
        params = PolicyParams(p_peak=5.0, p_avg=2.5, p_targets=(0.005,) * len(positions))
        return run(scenario(slots=300, positions=positions), params, kind, warmup_samples=256)

    @pytest.mark.parametrize("kind", ("optimal-energy", "optimal-power"))
    def test_a_wrong_stacked_top_vector_fails_a_threshold_run(self, kind, monkeypatch):
        # the stacked gate: every slot's top pair, on the solver's own vector
        eigh = policies._eigh

        def bottom_as_top(w):
            vals, vecs = eigh(w)
            vecs = vecs.copy()
            vecs[..., -1] = vecs[..., 0]
            return vals, vecs

        beams = []
        top_eigpair = policies.top_eigpair

        def counted(*args):
            beams.append(args)
            return top_eigpair(*args)

        monkeypatch.setattr(policies, "_eigh", bottom_as_top)
        monkeypatch.setattr(policies, "top_eigpair", counted)
        with pytest.raises(ArithmeticError, match="residual"):
            self.threshold_run(kind)
        assert not beams  # raised before any beam was built

    @pytest.mark.parametrize("kind", ("optimal-energy", "optimal-power"))
    def test_a_wrong_beam_fails_a_threshold_run(self, kind, monkeypatch):
        # the per-slot gate: top_eigpair checks the beam of each transmitting slot
        monkeypatch.setattr(linalg, "top_vector", lambda vals, vecs: vecs[:, 0].copy())
        with pytest.raises(ArithmeticError, match="residual"):
            self.threshold_run(kind)

    @pytest.mark.parametrize("kind", QUEUE_DRIVEN_KINDS)
    def test_missing_field_is_named_before_v_is_derived(self, kind):
        # default_v reads these fields, so they must be named before it runs
        if kind == "mdpp-energy":
            want = "needs one delivery target per receiver"
        else:
            want = "needs the average power budget p_avg"
        with pytest.raises(ValueError, match=want):
            run(scenario(slots=10), PolicyParams(p_peak=5.0), kind)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            run(scenario(slots=10), PolicyParams(p_peak=5.0), "dpp")

    def test_resolve_params_fills_v_only_when_missing(self):
        cfg = scenario()
        params = PolicyParams(p_peak=5.0, p_avg=2.5)
        assert resolve_params(cfg, params, "mdpp-power").v > 0
        explicit = PolicyParams(p_peak=5.0, v=0.123, p_avg=2.5)
        assert resolve_params(cfg, explicit, "mdpp-power").v == 0.123
        assert resolve_params(cfg, params, "optimal-power").v is None

    def test_power_scale(self):
        assert power_scale(PolicyParams(p_peak=5.0, p_targets=(0.01, 0.04))) == 0.04
        assert power_scale(PolicyParams(p_peak=5.0, p_avg=2.5)) == 2.5
        assert power_scale(PolicyParams(p_peak=5.0)) == 0.0

    def test_estimate_threshold_deterministic_in_seed(self):
        cfg = scenario(positions=((0.3, 0.3),), slots=10)
        params = PolicyParams(p_peak=5.0, p_avg=2.5)
        t1 = estimate_threshold(cfg, params, "optimal-power", 512)
        t2 = estimate_threshold(cfg, params, "optimal-power", 512)
        assert t1 == t2
        t3 = estimate_threshold(replace(cfg, seed=99), params, "optimal-power", 512)
        assert t3 != t1


class TestSweep:
    PARAMS = PolicyParams(p_peak=5.0, v=0.002, p_avg=2.5)

    def test_single_point_matches_plain_run(self):
        cfg = scenario(slots=80)
        spec = SweepSpec("n_tx", (4,), repetitions=1)
        rows = sweep(cfg, self.PARAMS, spec, ["mdpp-power"])
        assert len(rows) == 1
        direct = run(cfg, self.PARAMS, "mdpp-power").to_row()
        for key, val in direct.items():
            assert rows[0][key] == val
        assert rows[0]["sweep_parameter"] == "n_tx"
        assert rows[0]["sweep_value"] == 4

    def test_seed_layout_is_point_major(self):
        cfg = scenario(slots=20, seed=100)
        spec = SweepSpec("n_tx", (4, 6), repetitions=2)
        rows = sweep(cfg, self.PARAMS, spec, ["mdpp-power"])
        assert [r["seed"] for r in rows] == [100, 101, 102, 103]
        assert [r["sweep_value"] for r in rows] == [4, 4, 6, 6]
        assert [r["rep"] for r in rows] == [0, 1, 0, 1]

    def test_infeasible_points_become_error_rows(self):
        cfg = scenario(positions=((0.3, 0.3),), slots=20)
        spec = SweepSpec("d_r", (1.0, 2.0), repetitions=1)
        rows = sweep(cfg, self.PARAMS, spec, ["mdpp-power"])
        assert len(rows) == 2
        assert all("error" in r for r in rows)
        assert "two receivers" in rows[0]["error"]
        # a non-integer antenna count is an error row, not a truncated run
        rows = sweep(scenario(slots=20), self.PARAMS, SweepSpec("n_tx", (4.5,)), ["mdpp-power"])
        assert rows[0]["sweep_value"] == 4.5 and "n_tx must be an integer" in rows[0]["error"]

    def test_multi_policy_rows_share_seeds(self):
        cfg = scenario(slots=20)
        params = PolicyParams(p_peak=5.0, v=0.002, p_avg=2.5, p_min=0.001)
        rows = sweep(cfg, params, SweepSpec("n_tx", (4, 6)), ["mdpp-power", "qpf"])
        assert [r["policy"] for r in rows] == ["mdpp-power", "qpf", "mdpp-power", "qpf"]
        assert rows[0]["seed"] == rows[1]["seed"]

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="swept parameter"):
            SweepSpec("kappa", (1,))
        with pytest.raises(ValueError, match="at least one"):
            SweepSpec("n_tx", ())
        with pytest.raises(ValueError, match="repetitions"):
            SweepSpec("n_tx", (4,), repetitions=0)
        with pytest.raises(ValueError, match="repetitions must be an integer"):
            SweepSpec("n_tx", (4,), repetitions=1.5)
        with pytest.raises(ValueError, match="values must be a list"):
            SweepSpec("n_tx", 4)

    def test_apply_sweep_value(self):
        cfg = scenario()
        params = PolicyParams(p_peak=5.0, v=1.0, p_targets=(0.01, 0.01), p_avg=2.5)
        cfg2, _ = apply_sweep_value(cfg, params, "n_tx", 6)
        assert cfg2.n_tx == 6
        _, p2 = apply_sweep_value(cfg, params, "v", 0.25)
        assert p2.v == 0.25
        _, p3 = apply_sweep_value(cfg, params, "p_target", 0.02)
        assert p3.p_targets == (0.02, 0.02)
        cfg4, _ = apply_sweep_value(cfg, params, "d_r", 2.0)
        d = cfg4.distances()
        assert d[1] / d[0] == pytest.approx(2.0, rel=1e-12)
        assert cfg4.positions[0] == cfg.positions[0]
        with pytest.raises(ValueError, match="unknown sweep"):
            apply_sweep_value(cfg, params, "slots", 10)


class TestCrossPolicyConsistency:
    def test_single_receiver_qpf_tracks_power_objective(self):
        # with one receiver and a slack floor, proportional fairness and the
        # budgeted power objective maximize the same thing; both run near
        # the optimum, so their harvested averages should agree closely.
        # The gain is boosted so queue-weighted eigenvalues dominate the
        # budget-queue step and both policies actually select slots.
        cfg = scenario(positions=((0.3, 0.3),), slots=20_000, seed=3, reference_gain=0.0117)
        qpf = run(cfg, PolicyParams(p_peak=5.0, p_avg=2.5, p_min=1e-4, v=40.0), "qpf")
        dpp = run(cfg, PolicyParams(p_peak=5.0, p_avg=2.5), "mdpp-power")
        assert qpf.total_received == pytest.approx(dpp.total_received, rel=0.05)
        assert qpf.avg_transmit_power <= 2.5 * 1.05
        assert dpp.avg_transmit_power <= 2.5 * 1.05
