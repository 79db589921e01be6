"""Channel sampler tests: geometry, Rician moments, stream discipline."""

import math

import numpy as np
import pytest

from wptsim.channel import (
    DEFAULT_REFERENCE_GAIN,
    KAPPA_LOS_LIMIT,
    ScenarioConfig,
    empirical_gain_spectrum,
    evaluation_rng,
    los_matrices,
    sample_slot_block,
    warmup_rng,
)
from wptsim.linalg import grams, max_eigpair


def make_cfg(**kw):
    base = dict(n_tx=8, n_rx=4, positions=((0.3, 0.3),), slots=100, seed=42)
    base.update(kw)
    return ScenarioConfig(**base)


class TestScenarioValidation:
    def test_antenna_ordering_enforced(self):
        with pytest.raises(ValueError, match="n_tx > n_rx"):
            make_cfg(n_tx=4, n_rx=6)
        with pytest.raises(ValueError):
            make_cfg(n_tx=4, n_rx=4)

    def test_receiver_at_access_point_rejected(self):
        with pytest.raises(ValueError, match="distance"):
            make_cfg(positions=((0.0, 0.0),))

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_cfg(rician_kappa=-1.0)
        with pytest.raises(ValueError):
            make_cfg(pathloss_exponent=0.0)
        with pytest.raises(ValueError):
            make_cfg(efficiency=1.5)
        with pytest.raises(ValueError):
            make_cfg(slots=0)
        with pytest.raises(ValueError):
            make_cfg(los_mode="mystery")
        # integer fields take no float or bool, which would be truncated or
        # crash numpy; numpy integers become Python ints
        for name, value in (("n_tx", 8.0), ("n_rx", 2.5), ("slots", 40.5), ("seed", 1.5), ("seed", True)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                make_cfg(**{name: value})
        assert type(make_cfg(seed=np.int64(3)).seed) is int
        with pytest.raises(ValueError, match="positions"):
            make_cfg(positions=5)
        with pytest.raises(ValueError, match="ap_position"):
            make_cfg(ap_position="ab")
        # float fields take no bool, string or NaN, which would be compared
        # as numbers or fail later without naming the field
        for name in ("rician_kappa", "pathloss_exponent", "reference_gain", "efficiency"):
            for value in (float("nan"), True, "3"):
                with pytest.raises(ValueError, match=f"{name} must be a number"):
                    make_cfg(**{name: value})
        # infinite kappa is the pure line-of-sight limit; valid values keep their type
        assert make_cfg(rician_kappa=math.inf).rician_kappa == math.inf
        assert type(make_cfg(rician_kappa=3).rician_kappa) is int

    def test_negative_seed_is_named(self):
        # numpy's SeedSequence takes no negative entropy, so the run used to
        # fail late with an error that named no field
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            make_cfg(seed=-1)
        assert make_cfg(seed=0).seed == 0

    def test_zero_reference_gain_allowed(self):
        assert make_cfg(reference_gain=0.0).gains()[0] == 0.0

    def test_geometry(self):
        cfg = make_cfg(positions=((0.3, 0.3), (0.0, 0.5)), ap_position=(0.0, 0.0))
        d = cfg.distances()
        assert d[0] == pytest.approx(math.hypot(0.3, 0.3), rel=1e-12)
        assert d[1] == pytest.approx(0.5, rel=1e-12)
        g = cfg.gains()
        for i in range(2):
            assert g[i] == pytest.approx(cfg.reference_gain * d[i] ** -2.5, rel=1e-12)

    def test_reference_distance_has_milliwatt_scale_gain(self):
        # per-entry power gain 1e-3 at the 0.424 m reference receiver
        cfg = make_cfg()
        assert cfg.gains()[0] == pytest.approx(1e-3, rel=1e-12)
        assert cfg.reference_gain == pytest.approx(DEFAULT_REFERENCE_GAIN, rel=0)


class TestLineOfSight:
    def test_kappa_limit_is_exact_los(self):
        cfg = make_cfg(rician_kappa=KAPPA_LOS_LIMIT)
        block = sample_slot_block(cfg, evaluation_rng(cfg), 3)
        expected = math.sqrt(cfg.gains()[0]) * los_matrices(cfg)[0]
        for l in range(3):
            assert np.array_equal(block[l, 0], expected)

    def test_ones_mode_gram_peak(self):
        cfg = make_cfg(rician_kappa=KAPPA_LOS_LIMIT)
        h = sample_slot_block(cfg, evaluation_rng(cfg), 1)[0, 0]
        lam = max_eigpair(grams(h)).value
        assert lam == pytest.approx(cfg.gains()[0] * cfg.n_rx * cfg.n_tx, rel=1e-10)

    def test_steering_mode_gram_peak_and_modulus(self):
        cfg = make_cfg(rician_kappa=KAPPA_LOS_LIMIT, los_mode="steering",
                       positions=((0.3, 0.3), (0.0, 0.5)))
        los = los_matrices(cfg)
        assert np.allclose(np.abs(los), 1.0, atol=1e-12)
        h = sample_slot_block(cfg, evaluation_rng(cfg), 1)[0, 1]
        lam = max_eigpair(grams(h)).value
        assert lam == pytest.approx(cfg.gains()[1] * cfg.n_rx * cfg.n_tx, rel=1e-10)

    def test_steering_receivers_distinct(self):
        cfg = make_cfg(los_mode="steering", positions=((0.3, 0.3), (0.0, 0.5)))
        los = los_matrices(cfg)
        assert not np.allclose(los[0], los[1], atol=1e-6)


class TestMoments:
    def test_mean_power_matches_gain_any_kappa(self):
        # E|h_mn|^2 = g for every kappa: the LOS/NLOS split preserves power
        for kappa, seed in ((0.0, 7), (3.0, 8), (40.0, 9)):
            cfg = make_cfg(rician_kappa=kappa, seed=seed)
            block = sample_slot_block(cfg, evaluation_rng(cfg), 4000)
            mean_power = float(np.mean(np.abs(block[:, 0]) ** 2))
            assert mean_power == pytest.approx(cfg.gains()[0], rel=0.02)

    def test_mean_matrix_is_los_component(self):
        cfg = make_cfg(rician_kappa=3.0, seed=10)
        block = sample_slot_block(cfg, evaluation_rng(cfg), 4000)
        g = cfg.gains()[0]
        expected = math.sqrt(g * 3.0 / 4.0) * los_matrices(cfg)[0]
        spread = math.sqrt(g / 4.0)
        assert np.allclose(block[:, 0].mean(axis=0), expected, atol=5 * spread / math.sqrt(4000))

    def test_rayleigh_single_antenna_power_is_exponential(self):
        cfg = ScenarioConfig(n_tx=2, n_rx=1, positions=((0.3, 0.3),), slots=10,
                             seed=11, rician_kappa=0.0)
        block = sample_slot_block(cfg, evaluation_rng(cfg), 6000)
        power = np.abs(block[:, 0, 0, 0]) ** 2
        g = cfg.gains()[0]
        assert float(power.mean()) == pytest.approx(g, rel=0.05)
        assert float(power.var()) == pytest.approx(g * g, rel=0.15)
        # memoryless tail: P(X > g) should be close to 1/e
        assert float(np.mean(power > g)) == pytest.approx(math.exp(-1), abs=0.02)

    def test_slots_independent(self):
        cfg = make_cfg(seed=12)
        block = sample_slot_block(cfg, evaluation_rng(cfg), 3000)
        lam = np.linalg.eigvalsh(
            np.einsum("lmn,lmp->lnp", block[:, 0].conj(), block[:, 0])
        )[:, -1]
        a, b = lam[:-1] - lam.mean(), lam[1:] - lam.mean()
        corr = float(np.sum(a * b) / math.sqrt(np.sum(a * a) * np.sum(b * b)))
        assert abs(corr) < 0.05


class TestStreams:
    def test_same_seed_reproduces_bits(self):
        cfg = make_cfg(seed=13)
        a = sample_slot_block(cfg, evaluation_rng(cfg), 20)
        b = sample_slot_block(cfg, evaluation_rng(cfg), 20)
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        a = sample_slot_block(make_cfg(seed=1), evaluation_rng(make_cfg(seed=1)), 4)
        b = sample_slot_block(make_cfg(seed=2), evaluation_rng(make_cfg(seed=2)), 4)
        assert not np.array_equal(a, b)

    def test_warmup_stream_disjoint_from_evaluation(self):
        cfg = make_cfg(seed=14)
        a = sample_slot_block(cfg, evaluation_rng(cfg), 10)
        b = sample_slot_block(cfg, warmup_rng(cfg), 10)
        assert not np.array_equal(a, b)

    def test_chunked_equals_contiguous(self):
        cfg = make_cfg(seed=15)
        rng = evaluation_rng(cfg)
        first = sample_slot_block(cfg, rng, 7)
        second = sample_slot_block(cfg, rng, 5)
        whole = sample_slot_block(cfg, evaluation_rng(cfg), 12)
        assert np.array_equal(np.concatenate([first, second]), whole)

    def test_per_slot_equals_block(self):
        cfg = make_cfg(seed=16, positions=((0.3, 0.3), (0.0, 0.5)))
        rng = evaluation_rng(cfg)
        singles = [sample_slot_block(cfg, rng, 1) for _ in range(4)]
        block = sample_slot_block(cfg, evaluation_rng(cfg), 4)
        for i, slot in enumerate(singles):
            assert slot.shape == (1, 2, cfg.n_rx, cfg.n_tx)
            assert np.array_equal(slot[0], block[i])


class TestSpectrum:
    def test_sorted_nonnegative(self):
        cfg = make_cfg(seed=17)
        spec = empirical_gain_spectrum(cfg, "single", 500, warmup_rng(cfg))
        x = spec.samples
        assert spec.count == 500
        assert np.all(np.diff(x) >= 0)
        assert np.all(x >= 0)

    def test_reference_gain_scales_samples_exactly(self):
        cfg1 = make_cfg(seed=18)
        cfg4 = make_cfg(seed=18, reference_gain=4.0 * cfg1.reference_gain)
        s1 = empirical_gain_spectrum(cfg1, "single", 400, warmup_rng(cfg1))
        s4 = empirical_gain_spectrum(cfg4, "single", 400, warmup_rng(cfg4))
        assert np.array_equal(4.0 * s1.samples, s4.samples)

    def test_sum_rule_equals_single_for_one_receiver(self):
        cfg = make_cfg(seed=19)
        a = empirical_gain_spectrum(cfg, "single", 300, warmup_rng(cfg))
        b = empirical_gain_spectrum(cfg, "sum", 300, warmup_rng(cfg))
        assert np.allclose(a.samples, b.samples, rtol=1e-10)

    def test_sum_rule_dominates_single(self):
        cfg = make_cfg(seed=20, positions=((0.3, 0.3), (0.0, 0.5)))
        a = empirical_gain_spectrum(cfg, "single", 300, warmup_rng(cfg))
        b = empirical_gain_spectrum(cfg, "sum", 300, warmup_rng(cfg))
        # same draws; the far receiver's PSD gram can only raise the peak
        assert np.all(b.samples >= a.samples - 1e-15)

    def test_los_limit_spectrum_degenerate(self):
        cfg = make_cfg(seed=21, rician_kappa=KAPPA_LOS_LIMIT)
        spec = empirical_gain_spectrum(cfg, "single", 50, warmup_rng(cfg))
        expected = cfg.gains()[0] * cfg.n_rx * cfg.n_tx
        assert np.allclose(spec.samples, expected, rtol=1e-10)

    def test_invalid_arguments(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            empirical_gain_spectrum(cfg, "product", 10, warmup_rng(cfg))
        with pytest.raises(ValueError):
            empirical_gain_spectrum(cfg, "single", 0, warmup_rng(cfg))
