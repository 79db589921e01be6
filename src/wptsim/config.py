"""Experiment configuration: strict file parsing, presets, serialization.

Config files are YAML with up to four top-level entries:

    preset: fig5            # optional; named preset expanded first
    scenario: {...}         # ScenarioConfig fields
    policy: {...}           # policy kind(s) plus PolicyParams fields
    sweep: {...}            # optional SweepSpec fields

Explicit sections override the expanded preset key-by-key. Parsing is
strict: any unknown key fails with its full key path, so a typo in a sweep
key cannot silently invalidate an experiment.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

import yaml

from wptsim.channel import ScenarioConfig
from wptsim.harness import SweepSpec
from wptsim.policies import POLICY_KINDS, PolicyParams


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key path."""


_SCENARIO_KEYS = tuple(f.name for f in fields(ScenarioConfig))
_POLICY_KEYS = ("kind",) + tuple(f.name for f in fields(PolicyParams))
_SWEEP_KEYS = ("parameter", "values", "repetitions")

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
    return {
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


def preset_names() -> tuple:
    names = _preset_dicts()
    # same runs as fig8a; the total-received column is read instead of the
    # per-receiver ones
    return tuple(sorted(names)) + ("fig8b",)


def _preset_mapping(name: str) -> dict:
    presets = _preset_dicts()
    presets["fig8b"] = presets["fig8a"]
    if name not in presets:
        known = ", ".join(sorted(presets))
        raise ConfigError(f"preset: unknown preset {name!r}; known presets: {known}")
    return presets[name]


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


def _positions(raw, path: str):
    try:
        pts = tuple((float(p[0]), float(p[1])) for p in raw)
    except (TypeError, ValueError, IndexError):
        raise ConfigError(f"{path}: expected a list of [x, y] pairs") from None
    if not pts:
        raise ConfigError(f"{path}: at least one receiver position required")
    return pts


def _build_scenario(raw: dict) -> ScenarioConfig:
    _check_keys(raw, _SCENARIO_KEYS, "scenario")
    kwargs = dict(raw)
    if "positions" in kwargs:
        kwargs["positions"] = _positions(kwargs["positions"], "scenario.positions")
    if "ap_position" in kwargs:
        ap = kwargs["ap_position"]
        try:
            kwargs["ap_position"] = (float(ap[0]), float(ap[1]))
        except (TypeError, ValueError, IndexError):
            raise ConfigError("scenario.ap_position: expected an [x, y] pair") from None
    try:
        return ScenarioConfig(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"scenario: {err}") from None


def _build_policy(raw: dict):
    _check_keys(raw, _POLICY_KEYS, "policy")
    if "kind" not in raw:
        raise ConfigError("policy.kind: required")
    kinds = raw["kind"]
    if isinstance(kinds, str):
        kinds = [kinds]
    kinds = tuple(str(k) for k in kinds)
    for k in kinds:
        if k not in POLICY_KINDS:
            raise ConfigError(
                f"policy.kind: unknown policy {k!r}; expected one of {', '.join(POLICY_KINDS)}"
            )
    if "p_peak" not in raw:
        raise ConfigError("policy.p_peak: required")
    kwargs = {k: v for k, v in raw.items() if k != "kind"}
    if kwargs.get("p_targets") is not None:
        try:
            kwargs["p_targets"] = tuple(float(t) for t in kwargs["p_targets"])
        except (TypeError, ValueError):
            raise ConfigError("policy.p_targets: expected a list of watts") from None
    try:
        return PolicyParams(**kwargs), kinds
    except (TypeError, ValueError) as err:
        raise ConfigError(f"policy: {err}") from None


def _build_sweep(raw: dict) -> SweepSpec:
    _check_keys(raw, _SWEEP_KEYS, "sweep")
    for key in ("parameter", "values"):
        if key not in raw:
            raise ConfigError(f"sweep.{key}: required")
    try:
        return SweepSpec(
            parameter=str(raw["parameter"]),
            values=tuple(raw["values"]),
            repetitions=int(raw.get("repetitions", 1)),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"sweep: {err}") from None


def experiment_from_mapping(data: dict, name: str = "custom") -> Experiment:
    """Validate one parsed config mapping into an Experiment (strict keys)."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a mapping")
    _check_keys(data, ("preset", "scenario", "policy", "sweep"), "top level")
    if "preset" in data:
        preset = _preset_mapping(str(data["preset"]))
        name = str(data["preset"])
        data = _merge(preset, {k: v for k, v in data.items() if k != "preset"})
    for section in ("scenario", "policy"):
        if section not in data:
            raise ConfigError(f"{section}: required section missing")
        if not isinstance(data[section], dict):
            raise ConfigError(f"{section}: expected a mapping")
    scenario = _build_scenario(data["scenario"])
    params, kinds = _build_policy(data["policy"])
    sweep = None
    if "sweep" in data:
        if not isinstance(data["sweep"], dict):
            raise ConfigError("sweep: expected a mapping")
        sweep = _build_sweep(data["sweep"])
    return Experiment(scenario=scenario, params=params, kinds=kinds, sweep=sweep, name=name)


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
    """Full effective config, every default echoed explicitly."""
    cfg = exp.scenario
    data = {
        "scenario": {
            **asdict(cfg),
            "positions": [list(p) for p in cfg.positions],
            "ap_position": list(cfg.ap_position),
        },
        "policy": {
            "kind": exp.kinds[0] if len(exp.kinds) == 1 else list(exp.kinds),
            **{k: list(v) if isinstance(v, tuple) else v for k, v in asdict(exp.params).items() if v is not None},
        },
    }
    if exp.sweep is not None:
        data["sweep"] = {
            "parameter": exp.sweep.parameter,
            "values": list(exp.sweep.values),
            "repetitions": exp.sweep.repetitions,
        }
    return data


def serialize_experiment(exp: Experiment) -> str:
    return yaml.safe_dump(experiment_to_mapping(exp), sort_keys=False)
