"""Empirical transmit-threshold solvers for the optimal two-level policies.

The optimal policies transmit at peak power exactly when the dominant channel
eigenvalue clears a threshold. The analytic solutions need the eigenvalue
distribution, which has no tractable closed form here, so both solvers work
on an empirical spectrum gathered during a warm-up phase:

* energy-limited: the largest sample threshold whose closed tail still
  carries enough eigenvalue mass to meet the delivery target;
* power-limited: the empirical quantile at probability 1 - p_avg/p_peak,
  so that transmitting on the closed tail spends the average-power budget.

Ties at the threshold transmit (closed tail, matching the policies' ">=").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InfeasibleTargetError(ValueError):
    """Raised when even always-transmit cannot meet the requested target."""

    def __init__(self, message: str, deficit: float):
        super().__init__(message)
        self.deficit = deficit


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Sorted nonnegative samples of a maximal channel eigenvalue."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.sort(np.asarray(self.samples, dtype=np.float64).ravel())
        if s.size == 0:
            raise ValueError("spectrum needs at least one sample")
        if not np.all(np.isfinite(s)):
            raise ValueError("spectrum samples must be finite")
        if s[0] < -1e-12 * max(1.0, float(abs(s[-1]))):
            raise ValueError(f"spectrum samples must be >= 0, found {s[0]:.3e}")
        object.__setattr__(self, "samples", np.maximum(s, 0.0))

    @property
    def count(self) -> int:
        return int(self.samples.size)

    def quantile(self, p: float) -> float:
        """Empirical quantile inf{t : ECDF(t) >= p}."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {p}")
        k = math.ceil(p * self.count - 1e-9) - 1
        return float(self.samples[min(self.count - 1, max(0, k))])


@dataclass(frozen=True)
class ThresholdValue:
    """A transmit threshold plus the tail statistic it actually attains."""

    lambda_th: float
    achieved_target: float


def solve_energy_threshold(
    spectrum: EmpiricalSpectrum, p_target: float, p_peak: float
) -> ThresholdValue:
    """Threshold for the energy-limited optimal policy.

    Picks the largest sample value t such that the closed-tail mean
    (1/n) * sum_{lambda_j >= t} lambda_j still reaches p_target / p_peak;
    peak-power transmission on that tail then delivers p_target on average.
    When the tail is the whole sample set the threshold is reported as 0
    (transmit always). achieved_target is the attained tail mean.
    """
    if p_target <= 0.0 or p_peak <= 0.0:
        raise ValueError(f"p_target and p_peak must be > 0, got {p_target}, {p_peak}")
    x = spectrum.samples
    n = spectrum.count
    ratio = p_target / p_peak
    # tail_sum[j] = sum of x[j:], decreasing in j
    tail_sum = np.cumsum(x[::-1])[::-1]
    if tail_sum[0] / n < ratio:
        deficit = ratio - tail_sum[0] / n
        raise InfeasibleTargetError(
            f"target {p_target:.6g} W is infeasible at p_peak {p_peak:.6g} W: "
            f"always-transmit attains tail mean {tail_sum[0] / n:.6g} < required "
            f"{ratio:.6g} (deficit {deficit:.6g})",
            deficit=deficit,
        )
    feasible = np.nonzero(tail_sum >= n * ratio)[0]
    j = int(feasible[-1])
    t = float(x[j])
    first = int(np.searchsorted(x, t, side="left"))
    achieved = float(tail_sum[first] / n)
    if first == 0:
        return ThresholdValue(0.0, achieved)
    return ThresholdValue(t, achieved)


def solve_power_threshold(
    spectrum: EmpiricalSpectrum, p_avg: float, p_peak: float
) -> ThresholdValue:
    """Threshold for the power-limited optimal policy.

    Takes the left-continuous empirical quantile at probability
    1 - p_avg/p_peak: with k = ceil((1 - p_avg/p_peak) * n), the (k+1)-th
    smallest sample. Transmitting on the closed tail above it spends a duty
    cycle of p_avg/p_peak up to one-sample quantization (ties at the
    threshold may overshoot; they transmit by convention). p_avg >= p_peak
    means the budget never binds and the threshold is 0. achieved_target is
    the attained closed-tail duty cycle.
    """
    if p_avg <= 0.0 or p_peak <= 0.0:
        raise ValueError(f"p_avg and p_peak must be > 0, got {p_avg}, {p_peak}")
    x = spectrum.samples
    n = spectrum.count
    ratio = p_avg / p_peak
    if ratio >= 1.0:
        return ThresholdValue(0.0, 1.0)
    k = math.ceil((1.0 - ratio) * n - 1e-9)
    if k >= n:
        # budget below one sample's duty: stay silent rather than overspend
        return ThresholdValue(math.inf, 0.0)
    t = float(x[max(k, 0)])
    duty = float(n - np.searchsorted(x, t, side="left")) / n
    return ThresholdValue(t, duty)
