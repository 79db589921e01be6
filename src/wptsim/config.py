"""Experiment configuration: strict file parsing, presets, serialization.

Config files are YAML with up to four top-level entries:

    preset: fig5            # optional; named preset expanded first
    scenario: {...}         # ScenarioConfig fields
    policy: {...}           # policy kind(s) plus PolicyParams fields
    sweep: {...}            # optional SweepSpec fields

Explicit sections override the expanded preset key-by-key. Parsing is
strict: any unknown key fails with its full key path, so a typo in a sweep
key cannot silently invalidate an experiment. Each section's keys are the
fields of its dataclass, and the dataclass alone checks and converts their
values; its errors come back as ConfigErrors naming the section.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Optional

import yaml

from wptsim.channel import ScenarioConfig
from wptsim.harness import SweepSpec
from wptsim.policies import PolicyParams, policy_spec


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key path."""


# the reference two-receiver desk topology: access point at the origin,
# one receiver on the diagonal at 0.3,0.3 and one further out on the y axis
AP_POSITION = (0.0, 0.0)
NEAR_POSITION = (0.3, 0.3)
FAR_POSITION = (0.0, 0.5 * math.sqrt(2.0))


@dataclass(frozen=True)
class Experiment:
    """A fully-resolved experiment: scenario, policy grid, optional sweep."""

    scenario: ScenarioConfig
    params: PolicyParams
    kinds: tuple
    sweep: Optional[SweepSpec] = None
    name: str = "custom"


def _preset_dicts() -> dict:
    """Raw preset definitions; returned fresh so callers can mutate."""
    base2 = {
        "n_tx": 8,
        "n_rx": 4,
        "positions": [list(NEAR_POSITION), list(FAR_POSITION)],
        "slots": 100_000,
    }
    presets = {
        # average transmit power of the energy-limited controller vs the
        # transmit array size, two receivers, 10 mW targets
        "fig4": {
            "scenario": {**base2, "n_rx": 2, "n_tx": 10},
            "policy": {"kind": "mdpp-energy", "p_peak": 5.0, "p_targets": [0.01, 0.01]},
            "sweep": {"parameter": "n_tx", "values": [4, 6, 8, 10], "repetitions": 3},
        },
        # single-receiver energy-limited controller against the optimal
        # threshold policy, 15 mW target
        "fig5": {
            "scenario": {
                "n_tx": 8,
                "n_rx": 4,
                "positions": [list(NEAR_POSITION)],
                "slots": 100_000,
            },
            "policy": {"kind": ["mdpp-energy", "optimal-energy"], "p_peak": 5.0, "p_targets": [0.015]},
            "sweep": {"parameter": "n_tx", "values": [6, 8, 10], "repetitions": 3},
        },
        # total received power of the budget-limited controller against the
        # optimal threshold policy vs the transmit array size
        "fig6": {
            "scenario": dict(base2),
            "policy": {"kind": ["mdpp-power", "optimal-power"], "p_peak": 10.0, "p_avg": 5.0},
            "sweep": {"parameter": "n_tx", "values": [6, 8, 10, 12], "repetitions": 3},
        },
        # the baseline two-receiver topology and budget policy, no sweep
        "fig7-baseline": {
            "scenario": dict(base2),
            "policy": {"kind": "mdpp-power", "p_peak": 10.0, "p_avg": 5.0},
        },
        # fairness policies vs the receiver distance ratio; per-antenna
        # steering phases so the two receivers occupy distinct directions
        "fig8a": {
            "scenario": {**base2, "los_mode": "steering"},
            "policy": {
                "kind": ["mdpp-power", "mmf", "qpf"],
                "p_peak": 10.0,
                "p_avg": 5.0,
                "p_min": 0.005,
            },
            "sweep": {"parameter": "d_r", "values": [1.0, 1.25, 1.5, 2.0], "repetitions": 3},
        },
    }
    # same runs as fig8a; the total-received column is read instead of the
    # per-receiver ones
    presets["fig8b"] = presets["fig8a"]
    return presets


def preset_names() -> tuple:
    return tuple(sorted(_preset_dicts()))


def _check_keys(mapping: dict, allowed, section: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{section}.{key}: unknown key")


def _merge(base: dict, override: dict) -> dict:
    out = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key].update(val)
        else:
            out[key] = val
    return out


def _build(cls, raw: dict, section: str):
    """cls(**raw) with the field names of cls as the only allowed keys.

    A field without a default is required. The dataclass checks and
    converts the values itself; its TypeError or ValueError is re-raised as
    a ConfigError naming the section.
    """
    _check_keys(raw, [f.name for f in fields(cls)], section)
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in raw:
            raise ConfigError(f"{section}.{f.name}: required")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{section}: {err}") from None


def _kinds(policy: dict) -> tuple:
    """The policy section's kind entry, one name or a list of them, as a tuple."""
    if "kind" not in policy:
        raise ConfigError("policy.kind: required")
    kinds = policy["kind"]
    kinds = [kinds] if isinstance(kinds, str) else kinds
    if not isinstance(kinds, (list, tuple)) or not kinds or not all(isinstance(k, str) for k in kinds):
        raise ConfigError(f"policy.kind: expected a policy name or a list of them, got {policy['kind']!r}")
    for kind in kinds:
        try:
            policy_spec(kind)
        except ValueError as err:
            raise ConfigError(f"policy.kind: {err}") from None
    return tuple(kinds)


def experiment_from_mapping(data: dict, name: str = "custom") -> Experiment:
    """Validate one parsed config mapping into an Experiment (strict keys)."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a mapping")
    _check_keys(data, ("preset", "scenario", "policy", "sweep"), "top level")
    if "preset" in data:
        name, presets = str(data["preset"]), _preset_dicts()
        if name not in presets:
            raise ConfigError(f"preset: unknown preset {name!r}; known presets: {', '.join(sorted(presets))}")
        data = _merge(presets[name], {k: v for k, v in data.items() if k != "preset"})
    for section in ("scenario", "policy"):
        if section not in data:
            raise ConfigError(f"{section}: required section missing")
    for section, raw in data.items():
        if not isinstance(raw, dict):
            raise ConfigError(f"{section}: expected a mapping")
    policy = data["policy"]
    return Experiment(
        scenario=_build(ScenarioConfig, data["scenario"], "scenario"),
        params=_build(PolicyParams, {k: v for k, v in policy.items() if k != "kind"}, "policy"),
        kinds=_kinds(policy),
        sweep=_build(SweepSpec, data["sweep"], "sweep") if "sweep" in data else None,
        name=name,
    )


def load_preset(name: str) -> Experiment:
    return experiment_from_mapping({"preset": name})


def load_experiment_file(path: str) -> Experiment:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: malformed config: {err}") from None
    if data is None:
        raise ConfigError(f"{path}: empty config")
    return experiment_from_mapping(data, name="custom")


def experiment_to_mapping(exp: Experiment) -> dict:
    """Full effective config, every default echoed explicitly; unset policy
    fields stay implicit."""
    data = {
        "scenario": asdict(exp.scenario),
        "policy": {
            "kind": exp.kinds[0] if len(exp.kinds) == 1 else list(exp.kinds),
            **{k: v for k, v in asdict(exp.params).items() if v is not None},
        },
    }
    if exp.sweep is not None:
        data["sweep"] = asdict(exp.sweep)
    return data
