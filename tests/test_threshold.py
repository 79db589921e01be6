"""Threshold solver tests against brute-force enumeration oracles."""

import math

import numpy as np
import pytest

from wptsim.threshold import (
    EmpiricalSpectrum,
    InfeasibleTargetError,
    ThresholdValue,
    solve_energy_threshold,
    solve_power_threshold,
)


def spectrum(values):
    return EmpiricalSpectrum(np.asarray(values, dtype=float))


def oracle_energy(values, ratio):
    """Enumerate every candidate threshold; keep the largest whose closed
    tail mean still reaches the ratio. Returns (threshold, achieved) with
    the transmit-always case canonicalized to threshold 0."""
    xs = sorted(values)
    n = len(xs)
    best = None
    for t in sorted(set(xs)):
        tail = [v for v in xs if v >= t]
        mean = sum(tail) / n
        if mean >= ratio:
            best = (t, mean)
    if best is None:
        return None
    t, mean = best
    if t <= xs[0]:
        return (0.0, mean)
    return best


def oracle_power(values, ratio):
    """Smallest index-tail that fits the duty budget, resolved to its sample
    value; closed-tail duty reported (atoms transmit)."""
    xs = sorted(values)
    n = len(xs)
    if ratio >= 1.0:
        return (0.0, 1.0)
    count = n
    while count > 0 and count / n > ratio + 1e-12:
        count -= 1
    if count == 0:
        return (math.inf, 0.0)
    t = xs[n - count]
    duty = sum(1 for v in xs if v >= t) / n
    return (t, duty)


class TestEnergySolver:
    def test_constant_spectrum_transmit_always(self):
        got = solve_energy_threshold(spectrum([1, 1, 1, 1]), 1.0, 1.0)
        assert got == ThresholdValue(0.0, 1.0)

    def test_tail_selection(self):
        got = solve_energy_threshold(spectrum([1, 2, 3, 4]), 1.75, 1.0)
        assert got.lambda_th == 3.0
        assert got.achieved_target == pytest.approx(1.75, rel=1e-12)

    def test_infeasible_names_deficit(self):
        with pytest.raises(InfeasibleTargetError, match=r"deficit 0\.5\)"):
            solve_energy_threshold(spectrum([1, 2, 3, 4]), 3.0, 1.0)

    def test_scaling_by_p_peak(self):
        # target 3.5 W at peak 2 W is the ratio 1.75 case again
        got = solve_energy_threshold(spectrum([1, 2, 3, 4]), 3.5, 2.0)
        assert got.lambda_th == 3.0

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            solve_energy_threshold(spectrum([1.0]), 0.0, 1.0)
        with pytest.raises(ValueError):
            solve_energy_threshold(spectrum([1.0]), 1.0, -1.0)

    @pytest.mark.parametrize("p_target, p_peak", [(math.nan, 5.0), (1.0, math.nan)], ids=["target", "peak"])
    def test_rejects_nan_inputs_by_name(self, p_target, p_peak):
        with pytest.raises(ValueError, match="p_target and p_peak must be > 0"):
            solve_energy_threshold(spectrum([1.0, 2.0]), p_target, p_peak)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(201)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            vals = rng.uniform(0, 4, size=n)
            if rng.random() < 0.5:
                vals = np.round(vals, 1)  # inject ties
            ratio = float(rng.uniform(0.01, 1.2)) * float(vals.mean() + 1e-9)
            expected = oracle_energy(vals.tolist(), ratio)
            if expected is None:
                with pytest.raises(InfeasibleTargetError):
                    solve_energy_threshold(spectrum(vals), ratio, 1.0)
                continue
            got = solve_energy_threshold(spectrum(vals), ratio, 1.0)
            assert got.lambda_th == pytest.approx(expected[0], abs=1e-12)
            assert got.achieved_target == pytest.approx(expected[1], rel=1e-12)
            assert got.achieved_target >= ratio - 1e-12

    def test_monotone_in_target(self):
        rng = np.random.default_rng(202)
        for _ in range(50):
            vals = np.round(rng.uniform(0, 5, size=int(rng.integers(2, 40))), 1)
            mean = float(vals.mean())
            targets = sorted(rng.uniform(0.05, 1.0, size=4) * mean)
            ths = [solve_energy_threshold(spectrum(vals), t, 1.0).lambda_th for t in targets]
            assert all(a >= b - 1e-15 for a, b in zip(ths, ths[1:]))


class TestPowerSolver:
    def test_unconstrained_limit(self):
        assert solve_power_threshold(spectrum([1, 2, 3]), 5.0, 5.0) == ThresholdValue(0.0, 1.0)
        assert solve_power_threshold(spectrum([1, 2, 3]), 7.0, 5.0) == ThresholdValue(0.0, 1.0)

    def test_median_split(self):
        got = solve_power_threshold(spectrum([1, 2, 3, 4]), 0.5, 1.0)
        assert got.lambda_th == 3.0
        assert got.achieved_target == pytest.approx(0.5, rel=1e-12)

    def test_atom_at_quantile_transmits(self):
        got = solve_power_threshold(spectrum([5, 5, 5, 5]), 0.25, 1.0)
        assert got.lambda_th == 5.0
        assert got.achieved_target == 1.0

    def test_budget_below_one_sample(self):
        got = solve_power_threshold(spectrum([2.0]), 0.5, 1.0)
        assert got.lambda_th == math.inf
        assert got.achieved_target == 0.0

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            solve_power_threshold(spectrum([1.0]), 0.0, 1.0)
        with pytest.raises(ValueError):
            solve_power_threshold(spectrum([1.0]), 1.0, 0.0)

    @pytest.mark.parametrize("p_avg, p_peak", [(math.nan, 10.0), (1.0, math.nan)], ids=["avg", "peak"])
    def test_rejects_nan_inputs_by_name(self, p_avg, p_peak):
        with pytest.raises(ValueError, match="p_avg and p_peak must be > 0"):
            solve_power_threshold(spectrum([1.0, 2.0]), p_avg, p_peak)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(203)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            vals = rng.uniform(0, 4, size=n)
            if rng.random() < 0.5:
                vals = np.round(vals, 1)
            ratio = float(rng.uniform(0.02, 1.3))
            expected = oracle_power(vals.tolist(), ratio)
            got = solve_power_threshold(spectrum(vals), ratio, 1.0)
            assert got.lambda_th == pytest.approx(expected[0], abs=1e-12)
            assert got.achieved_target == pytest.approx(expected[1], rel=1e-12)

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(204)
        for _ in range(50):
            vals = np.round(rng.uniform(0, 5, size=int(rng.integers(2, 40))), 1)
            budgets = sorted(rng.uniform(0.05, 1.0, size=4))
            ths = [solve_power_threshold(spectrum(vals), b, 1.0).lambda_th for b in budgets]
            assert all(a >= b - 1e-15 for a, b in zip(ths, ths[1:]))


class TestEmpiricalSpectrum:
    def test_sorts_input(self):
        s = spectrum([3, 1, 2])
        assert np.array_equal(s.samples, [1, 2, 3])

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            spectrum([])
        with pytest.raises(ValueError):
            spectrum([1.0, math.nan])

    def test_clips_rounding_noise_but_rejects_negative(self):
        s = spectrum([1.0, -1e-15])
        assert s.samples[0] == 0.0
        with pytest.raises(ValueError):
            spectrum([1.0, -0.5])

    def test_quantiles(self):
        s = spectrum([1, 2, 3, 4])
        assert s.quantile(0.0) == 1.0
        assert s.quantile(0.25) == 1.0
        assert s.quantile(0.5) == 2.0
        assert s.quantile(0.75) == 3.0
        assert s.quantile(1.0) == 4.0
        assert spectrum([7.0]).quantile(0.5) == 7.0
        with pytest.raises(ValueError):
            s.quantile(1.5)
