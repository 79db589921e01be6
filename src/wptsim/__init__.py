"""Simulation lab for threshold and queue-driven transmit beamforming in
multi-antenna wireless power transfer.

A multi-antenna access point beams RF energy to one or more multi-antenna
receivers over Rician fading channels. This package provides the linear
algebra kernels, the channel sampler, the empirical threshold solvers, the
six transmission policies (two optimal threshold policies and four
queue-driven near-optimal ones), a slot-loop harness with parameter sweeps,
and a command line front end.
"""

from wptsim.linalg import grams
from wptsim.channel import (
    ScenarioConfig,
    evaluation_rng,
    warmup_rng,
    sample_slot_block,
    empirical_gain_spectrum,
)
from wptsim.threshold import (
    EmpiricalSpectrum,
    ThresholdValue,
    InfeasibleTargetError,
    solve_energy_threshold,
    solve_power_threshold,
)
from wptsim.policies import (
    POLICIES,
    POLICY_KINDS,
    PolicyParams,
    default_v,
    gap_bound_const,
)
from wptsim.harness import RunSummary, SweepSpec, run, sweep
from wptsim.config import (
    ConfigError,
    Experiment,
    load_preset,
    load_experiment_file,
    preset_names,
)

__version__ = "0.1.0"

__all__ = [
    "grams",
    "ScenarioConfig",
    "evaluation_rng",
    "warmup_rng",
    "sample_slot_block",
    "empirical_gain_spectrum",
    "EmpiricalSpectrum",
    "ThresholdValue",
    "InfeasibleTargetError",
    "solve_energy_threshold",
    "solve_power_threshold",
    "POLICIES",
    "POLICY_KINDS",
    "PolicyParams",
    "default_v",
    "gap_bound_const",
    "RunSummary",
    "SweepSpec",
    "run",
    "sweep",
    "ConfigError",
    "Experiment",
    "load_preset",
    "load_experiment_file",
    "preset_names",
    "__version__",
]
