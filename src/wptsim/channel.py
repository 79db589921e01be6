"""MIMO Rician fading channel sampler with distance-based path loss.

Channels are i.i.d. across slots (quasi-static within a slot):

    H_i = sqrt(g_i) * ( sqrt(kappa/(kappa+1)) * H_LOS
                        + sqrt(1/(kappa+1))   * H_NLOS )

with per-receiver power gain g_i = reference_gain * d_i**(-pathloss_exponent)
and H_NLOS i.i.d. circularly-symmetric complex Gaussian with unit variance.

The line-of-sight component has unit-magnitude entries and is rank one. Two
modes are supported: "ones" uses the all-ones matrix for every receiver;
"steering" uses half-wavelength uniform-linear-array phase ramps derived from
the receiver bearing, so receivers at different bearings have nearly
orthogonal line-of-sight signatures. Kappa at or above ``KAPPA_LOS_LIMIT`` is
treated as the deterministic pure line-of-sight limit.

Randomness comes from counter-based Philox streams derived from the scenario
seed. The evaluation stream (spawn key 0) and the warm-up stream (spawn key 1,
used for threshold estimation) are disjoint by construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from wptsim.linalg import grams
from wptsim.threshold import EmpiricalSpectrum

KAPPA_LOS_LIMIT = 1e12

# Fig.-7-style desk scenario: the near receiver sits 0.424 m from the access
# point; the default reference gain gives it an expected per-entry power gain
# of 1e-3, which turns watt-scale transmit power into milliwatt-scale
# harvested power.
NEAR_DISTANCE_M = math.hypot(0.3, 0.3)
DEFAULT_PATHLOSS_EXPONENT = 2.5
DEFAULT_KAPPA = 3.0
DEFAULT_REFERENCE_GAIN = 1e-3 * NEAR_DISTANCE_M**DEFAULT_PATHLOSS_EXPONENT

_EVAL_STREAM = 0
_WARMUP_STREAM = 1

# slots (and warm-up samples) sampled and solved per block: small enough that
# a block's arrays (about 1 MB each for two 4x8 receivers) barely show in the
# peak memory, large enough that the per-block calls cost little per slot
_CHUNK = 512


def _as_int(name: str, value) -> int:
    """value as a Python int; a float, a bool or any other non-integer is a
    ValueError naming the field, never a silent truncation."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_real(name: str, value):
    """value unchanged if it is a real number; a bool, a string, a NaN, an
    int beyond the float range or any other non-number is a ValueError
    naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        nan = math.isnan(value)
    except OverflowError:
        raise ValueError(f"{name} must be a number, got an integer beyond the float range") from None
    if nan:
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _as_coordinate(name: str, value) -> float:
    """value as a float if it is a finite real number; a bool, a string, a
    NaN, an infinity or any other non-number is a ValueError naming the field."""
    if not math.isfinite(_as_real(name, value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """Static description of one scenario: geometry, fading, antennas, horizon."""

    n_tx: int = 8
    n_rx: int = 4
    positions: tuple = ((0.3, 0.3),)
    ap_position: tuple = (0.0, 0.0)
    rician_kappa: float = DEFAULT_KAPPA
    pathloss_exponent: float = DEFAULT_PATHLOSS_EXPONENT
    reference_gain: float = DEFAULT_REFERENCE_GAIN
    efficiency: float = 1.0
    slots: int = 100_000
    seed: int = 0
    los_mode: str = "ones"

    def __post_init__(self):
        for name in ("n_tx", "n_rx", "slots", "seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        for name in ("rician_kappa", "pathloss_exponent", "reference_gain", "efficiency"):
            _as_real(name, getattr(self, name))
        try:
            positions = tuple(
                tuple(_as_coordinate(f"positions[{i}]", c) for c in p) for i, p in enumerate(self.positions)
            )
        except TypeError:
            raise ValueError(f"positions must be a list of [x, y] pairs, got {self.positions!r}") from None
        try:
            ap_position = tuple(_as_coordinate("ap_position", c) for c in self.ap_position)
        except TypeError:
            raise ValueError(f"ap_position must be an [x, y] pair, got {self.ap_position!r}") from None
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "ap_position", ap_position)
        if self.n_rx < 1 or self.n_tx <= self.n_rx:
            raise ValueError(
                f"need n_tx > n_rx >= 1 (more transmit than receive antennas), "
                f"got n_tx={self.n_tx}, n_rx={self.n_rx}"
            )
        if len(self.positions) < 1:
            raise ValueError("need at least one receiver position")
        if any(len(p) != 2 for p in self.positions) or len(self.ap_position) != 2:
            raise ValueError("positions must be planar (x, y) coordinates")
        if min(self.distances()) <= 0.0:
            raise ValueError("every receiver must be at a positive distance from the AP")
        if self.rician_kappa < 0.0:
            raise ValueError(f"rician_kappa must be >= 0, got {self.rician_kappa}")
        if self.pathloss_exponent <= 0.0:
            raise ValueError(f"pathloss_exponent must be > 0, got {self.pathloss_exponent}")
        if self.reference_gain < 0.0:
            raise ValueError(f"reference_gain must be >= 0, got {self.reference_gain}")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.efficiency}")
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.los_mode not in ("ones", "steering"):
            raise ValueError(f"los_mode must be 'ones' or 'steering', got {self.los_mode!r}")

    @property
    def n_receivers(self) -> int:
        return len(self.positions)

    def distances(self) -> np.ndarray:
        """Receiver distances from the access point, meters."""
        pos = np.asarray(self.positions, dtype=np.float64)
        ap = np.asarray(self.ap_position, dtype=np.float64)
        return np.hypot(pos[:, 0] - ap[0], pos[:, 1] - ap[1])

    def gains(self) -> np.ndarray:
        """Per-receiver average power gains g_i."""
        return self.reference_gain * self.distances() ** (-self.pathloss_exponent)


def _stream(seed: int, key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(key,))
    return np.random.Generator(np.random.Philox(ss))


def evaluation_rng(cfg: ScenarioConfig) -> np.random.Generator:
    """Stream used for the evaluated slot sequence."""
    return _stream(cfg.seed, _EVAL_STREAM)


def warmup_rng(cfg: ScenarioConfig) -> np.random.Generator:
    """Stream used for warm-up spectrum estimation; disjoint from evaluation."""
    return _stream(cfg.seed, _WARMUP_STREAM)


def los_matrices(cfg: ScenarioConfig) -> np.ndarray:
    """Unit-gain line-of-sight components, shape (K, M, N)."""
    k, m, n = cfg.n_receivers, cfg.n_rx, cfg.n_tx
    if cfg.los_mode == "ones":
        return np.ones((k, m, n), dtype=np.complex128)
    pos = np.asarray(cfg.positions, dtype=np.float64)
    ap = np.asarray(cfg.ap_position, dtype=np.float64)
    bearing = np.arctan2(pos[:, 1] - ap[1], pos[:, 0] - ap[0])
    # Half-wavelength ULA phase ramp along each array, one ramp per bearing.
    psi = np.pi * np.cos(bearing)
    a_rx = np.exp(1j * psi[:, None] * np.arange(m)[None, :])
    a_tx = np.exp(1j * psi[:, None] * np.arange(n)[None, :])
    return a_rx[:, :, None] * a_tx.conj()[:, None, :]


def _unit_fading_block(cfg: ScenarioConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """Unit-gain Rician fading draws, shape (count, K, M, N)."""
    k, m, n = cfg.n_receivers, cfg.n_rx, cfg.n_tx
    los = los_matrices(cfg)
    if cfg.rician_kappa >= KAPPA_LOS_LIMIT:
        return np.broadcast_to(los, (count, k, m, n)).copy()
    raw = rng.standard_normal((count, k, m, n, 2))
    nlos = (raw[..., 0] + 1j * raw[..., 1]) * math.sqrt(0.5)
    c_los = math.sqrt(cfg.rician_kappa / (cfg.rician_kappa + 1.0))
    c_nlos = math.sqrt(1.0 / (cfg.rician_kappa + 1.0))
    return c_los * los + c_nlos * nlos


def sample_slot_block(cfg: ScenarioConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """Sample `count` consecutive slots, shape (count, K, M, N).

    Consumes the stream slot by slot, so sampling in chunks or one slot at a
    time (count=1) yields bit-identical sequences.
    """
    amp = np.sqrt(cfg.gains())
    return amp[None, :, None, None] * _unit_fading_block(cfg, rng, count)


def empirical_gain_spectrum(cfg, combine_rule: str, n_samples: int, rng):
    """Sample the maximal eigenvalue of the (combined) channel Gram.

    combine_rule "single" samples lambda_max(W_1) of the first receiver;
    "sum" samples lambda_max(sum_i W_i). The reference gain is factored out of
    the eigenvalue computation and multiplied back in, so scaling it rescales
    every sample exactly.
    """
    n_samples = _as_int("n_samples", n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if combine_rule not in ("single", "sum"):
        raise ValueError(f"combine_rule must be 'single' or 'sum', got {combine_rule!r}")
    rel = cfg.distances() ** (-cfg.pathloss_exponent)
    amp = np.sqrt(rel[:1] if combine_rule == "single" else rel)[:, None, None]
    samples = np.empty(n_samples, dtype=np.float64)
    for done in range(0, n_samples, _CHUNK):
        take = min(_CHUNK, n_samples - done)
        h = _unit_fading_block(cfg, rng, take)[:, : amp.shape[0]]  # unit gain, (take, K, M, N)
        h *= amp  # in place: a scaled copy would raise the peak memory by one block
        # sum_i W_i is the Gram of the receivers' channels stacked row-wise
        w = grams(h.reshape(take, -1, cfg.n_tx))
        samples[done : done + take] = cfg.reference_gain * np.linalg.eigvalsh(w)[:, -1]
    return EmpiricalSpectrum(samples)
