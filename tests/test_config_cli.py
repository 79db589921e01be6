"""Config parsing and CLI tests: strict keys, presets, round trips, outputs."""

import json

import pytest
import yaml

from wptsim.channel import ScenarioConfig
from wptsim.cli import main
from wptsim.config import (
    ConfigError,
    experiment_from_mapping,
    experiment_to_mapping,
    load_experiment_file,
    load_preset,
    preset_names,
)
from wptsim.policies import PolicyParams

MINIMAL = {
    "scenario": {"n_tx": 4, "n_rx": 2, "positions": [[0.3, 0.3]], "slots": 40, "seed": 7},
    "policy": {"kind": "mdpp-power", "p_peak": 5.0, "p_avg": 2.5},
}

# each queue-driven kind's optimal reference and the column its gap is read on
COMPARE_REFERENCES = {
    "mdpp-energy": ("optimal-energy", "avg_transmit_power"),
    "mdpp-power": ("optimal-power", "total_received"),
    "mmf": ("optimal-power", "total_received"),
    "qpf": ("optimal-power", "total_received"),
}


def write_config(tmp_path, data, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """Parse RFC 8259 JSON: NaN, Infinity and -Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def read_csv_with_meta(path):
    import csv

    meta_lines, body = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# "):
                meta_lines.append(line[2:])
            else:
                body.append(line)
    meta = json.loads("".join(meta_lines))
    rows = list(csv.DictReader(body))
    return meta, rows


# (section, key, value) inputs that once got past the parser: a non-string
# kind raised TypeError, a float n_tx or slots crashed the run in numpy, and
# a float seed ran the truncated seed under the float's name
MALFORMED = [
    ("policy", "kind", 5),
    ("policy", "kind", None),
    ("policy", "kind", []),
    ("scenario", "n_tx", 4.5),
    ("scenario", "slots", 40.5),
    ("scenario", "seed", 1.5),
    ("scenario", "seed", True),
    ("scenario", "rician_kappa", float("nan")),
    ("scenario", "rician_kappa", "3"),
    ("scenario", "reference_gain", True),
    ("scenario", "pathloss_exponent", float("nan")),
    ("policy", "p_peak", "5"),
    ("policy", "v", float("nan")),
    ("policy", "p_min", float("nan")),
    ("policy", "p_targets", [float("nan")]),
    ("scenario", "positions", [[float("nan"), 0.3]]),
    ("scenario", "positions", [[0.3, float("inf")]]),
    ("scenario", "positions", [[True, 0.3]]),
    ("scenario", "positions", [["3", 0.3]]),
    ("scenario", "ap_position", [float("nan"), 0.0]),
    ("scenario", "ap_position", [float("-inf"), 0.0]),
    ("scenario", "ap_position", [0.0, "3"]),
]

# every scalar float field, each given an int too large to become a float
FLOAT_FIELDS = [
    *[(ScenarioConfig, name) for name in ("rician_kappa", "pathloss_exponent", "reference_gain", "efficiency")],
    *[(PolicyParams, name) for name in ("p_peak", "v", "p_avg", "p_min")],
]


class TestPresets:
    def test_known_names(self):
        assert set(preset_names()) == {"fig4", "fig5", "fig6", "fig7-baseline", "fig8a", "fig8b"}

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("fig9")

    def test_single_receiver_comparison_preset(self):
        exp = load_preset("fig5")
        assert exp.name == "fig5"
        assert exp.kinds == ("mdpp-energy", "optimal-energy")
        assert exp.scenario.n_receivers == 1
        assert exp.params.p_targets == (0.015,)
        assert exp.sweep.parameter == "n_tx"

    def test_baseline_preset_has_no_sweep(self):
        exp = load_preset("fig7-baseline")
        assert exp.sweep is None
        assert exp.kinds == ("mdpp-power",)
        assert exp.scenario.n_receivers == 2
        assert (exp.params.p_peak, exp.params.p_avg) == (10.0, 5.0)

    def test_fairness_presets_use_steering_phases(self):
        a, b = load_preset("fig8a"), load_preset("fig8b")
        assert a.scenario.los_mode == "steering"
        assert a.sweep.parameter == "d_r"
        assert "qpf" in a.kinds and a.params.p_min == 0.005
        # same runs, different plotted column
        assert b.scenario == a.scenario and b.sweep == a.sweep

    def test_every_preset_loads(self):
        for name in preset_names():
            exp = load_preset(name)
            assert exp.scenario.slots == 100_000

    def test_preset_with_overrides(self):
        exp = experiment_from_mapping(
            {"preset": "fig7-baseline", "scenario": {"slots": 500, "seed": 9}, "policy": {"p_avg": 4.0}}
        )
        assert exp.scenario.slots == 500 and exp.scenario.seed == 9
        assert exp.scenario.n_tx == 8  # untouched preset value
        assert exp.params.p_avg == 4.0 and exp.params.p_peak == 10.0
        assert exp.name == "fig7-baseline"


class TestStrictParsing:
    def test_minimal_mapping(self):
        exp = experiment_from_mapping(MINIMAL)
        assert exp.kinds == ("mdpp-power",)
        assert exp.sweep is None and exp.name == "custom"

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda d: d.update(policies=1), "top level.policies"),
            (lambda d: d["scenario"].update(kappa=3), "scenario.kappa"),
            (lambda d: d["policy"].update(peak=5), "policy.peak"),
            (lambda d: d.update(sweep={"parameter": "n_tx", "values": [4], "step": 1}), "sweep.step"),
        ],
    )
    def test_unknown_keys_name_their_path(self, mutate, path):
        data = {k: dict(v) for k, v in MINIMAL.items()}
        mutate(data)
        with pytest.raises(ConfigError, match=f"{path}: unknown key".replace(".", r"\.")):
            experiment_from_mapping(data)

    def test_missing_sections_and_fields(self):
        with pytest.raises(ConfigError, match="policy: required section"):
            experiment_from_mapping({"scenario": dict(MINIMAL["scenario"])})
        with pytest.raises(ConfigError, match="policy.kind: required"):
            experiment_from_mapping({**MINIMAL, "policy": {"p_peak": 5.0}})
        with pytest.raises(ConfigError, match="policy.p_peak: required"):
            experiment_from_mapping({**MINIMAL, "policy": {"kind": "mdpp-power"}})

    @pytest.mark.parametrize("cls, name", FLOAT_FIELDS)
    def test_an_int_beyond_the_float_range_is_named(self, cls, name):
        base = {"p_peak": 5.0} if cls is PolicyParams else {}
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            cls(**{**base, name: 10**400})

    def test_invalid_values_surface_as_config_errors(self):
        bad = {**MINIMAL, "scenario": {**MINIMAL["scenario"], "n_rx": 4}}
        with pytest.raises(ConfigError, match="scenario: "):
            experiment_from_mapping(bad)
        with pytest.raises(ConfigError, match="unknown policy"):
            experiment_from_mapping({**MINIMAL, "policy": {"kind": "dpp", "p_peak": 5.0}})
        with pytest.raises(ConfigError, match="p_targets"):
            experiment_from_mapping(
                {**MINIMAL, "policy": {"kind": "mdpp-energy", "p_peak": 5.0, "p_targets": "lots"}}
            )
        with pytest.raises(ConfigError, match="positions"):
            experiment_from_mapping(
                {**MINIMAL, "scenario": {**MINIMAL["scenario"], "positions": [[0.3]]}}
            )
        with pytest.raises(ConfigError, match="top level"):
            experiment_from_mapping([1, 2])
        for section, key, value in MALFORMED:
            data = {k: dict(v) for k, v in MINIMAL.items()}
            data[section][key] = value
            with pytest.raises(ConfigError, match=f"{section}: .*{key}|{section}.{key}"):
                experiment_from_mapping(data)

    def test_file_loading_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_experiment_file(str(tmp_path / "nope.yaml"))
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario: [unclosed\n")
        with pytest.raises(ConfigError, match="malformed"):
            load_experiment_file(str(bad))
        empty = tmp_path / "empty.yaml"
        empty.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_experiment_file(str(empty))


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(set(preset_names())))
    def test_presets_survive_serialization(self, name):
        exp = load_preset(name)
        text = yaml.safe_dump(experiment_to_mapping(exp))
        again = experiment_from_mapping(yaml.safe_load(text))
        assert again.scenario == exp.scenario
        assert again.params == exp.params
        assert again.kinds == exp.kinds
        assert again.sweep == exp.sweep

    def test_custom_with_all_fields(self):
        exp = experiment_from_mapping(
            {
                "scenario": {
                    "n_tx": 6,
                    "n_rx": 2,
                    "positions": [[0.3, 0.3], [0.0, 0.7]],
                    "ap_position": [0.1, 0.0],
                    "rician_kappa": 5.0,
                    "pathloss_exponent": 2.0,
                    "reference_gain": 2e-4,
                    "efficiency": 0.8,
                    "slots": 1000,
                    "seed": 42,
                    "los_mode": "steering",
                },
                "policy": {
                    "kind": ["qpf", "mmf"],
                    "p_peak": 8.0,
                    "v": 3.5,
                    "p_avg": 4.0,
                    "p_targets": [0.01, 0.02],
                    "p_min": 0.004,
                },
                "sweep": {"parameter": "d_r", "values": [1.0, 2.0], "repetitions": 2},
            }
        )
        again = experiment_from_mapping(yaml.safe_load(yaml.safe_dump(experiment_to_mapping(exp))))
        assert (again.scenario, again.params, again.kinds, again.sweep) == (
            exp.scenario,
            exp.params,
            exp.kinds,
            exp.sweep,
        )

    def test_mapping_echoes_every_scenario_default(self):
        data = experiment_to_mapping(experiment_from_mapping(MINIMAL))
        assert data["scenario"]["rician_kappa"] == 3.0
        assert data["scenario"]["los_mode"] == "ones"
        assert data["scenario"]["efficiency"] == 1.0
        assert "v" not in data["policy"]  # unset fields stay implicit


class TestCli:
    def test_flag_conflicts(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert main(["run", "--config", path, "--preset", "fig5"]) == 1
        assert "conflict" in capsys.readouterr().err
        assert main(["run"]) == 1
        assert "required" in capsys.readouterr().err

    def test_run_csv_output(self, tmp_path, capsys):
        config = write_config(tmp_path, MINIMAL)
        out = str(tmp_path / "result.csv")
        assert main(["run", "--config", config, "--out", out, "--reps", "2"]) == 0
        assert capsys.readouterr().out.strip() == out
        meta, rows = read_csv_with_meta(out)
        assert meta["config"]["scenario"]["seed"] == 7
        assert meta["preset"] == "custom"
        assert [r["rep"] for r in rows] == ["0", "1"]
        assert [int(r["seed"]) for r in rows] == [7, 8]
        assert all(r["policy"] == "mdpp-power" for r in rows)
        assert float(rows[0]["avg_transmit_power"]) >= 0.0

    def test_run_jsonlines_output(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        out = str(tmp_path / "result.jsonl")
        assert main(["run", "--config", config, "--out", out, "--format", "jsonlines"]) == 0
        lines = [strict_json(l) for l in open(out, encoding="utf-8")]
        assert "meta" in lines[0]
        assert lines[0]["meta"]["config"]["policy"]["kind"] == "mdpp-power"
        assert lines[1]["policy"] == "mdpp-power"
        assert isinstance(lines[1]["total_received"], float)

        # non-finite summary values are written as null: a receiver that
        # harvests nothing, and a budget below one warm-up sample's duty
        scenario = MINIMAL["scenario"]
        for name, data, key in (
            ("zero-gain", {"scenario": {**scenario, "reference_gain": 0.0},
                           "policy": {"kind": "optimal-power", "p_peak": 5.0, "p_avg": 2.5}},
             "sum_log_received"),
            ("tiny-budget", {"scenario": scenario,
                             "policy": {"kind": "optimal-power", "p_peak": 10.0, "p_avg": 1e-5}},
             "threshold"),
        ):
            out = str(tmp_path / f"{name}.jsonl")
            config = write_config(tmp_path, data, name=f"{name}.yaml")
            assert main(["run", "--config", config, "--out", out, "--format", "jsonlines"]) == 0
            lines = [strict_json(l) for l in open(out, encoding="utf-8")]
            assert "meta" in lines[0]
            assert key in lines[1] and lines[1][key] is None

    def test_seed_and_slots_overrides(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        out = str(tmp_path / "o.csv")
        assert main(["run", "--config", config, "--out", out, "--seed", "99", "--slots", "25"]) == 0
        meta, rows = read_csv_with_meta(out)
        assert meta["config"]["scenario"]["seed"] == 99
        assert meta["config"]["scenario"]["slots"] == 25
        assert int(rows[0]["seed"]) == 99 and int(rows[0]["slots"]) == 25

    def test_default_output_honors_env_dir(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, MINIMAL)
        monkeypatch.setenv("WPTSIM_OUT", str(tmp_path))
        assert main(["run", "--config", config]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == str(tmp_path / "run-custom.csv")
        meta, rows = read_csv_with_meta(printed)
        assert len(rows) == 1

    def test_multi_kind_run_order(self, tmp_path):
        data = {
            "scenario": dict(MINIMAL["scenario"]),
            "policy": {"kind": ["mdpp-power", "optimal-power"], "p_peak": 5.0, "p_avg": 2.5},
        }
        config = write_config(tmp_path, data)
        out = str(tmp_path / "multi.csv")
        assert main(["run", "--config", config, "--out", out]) == 0
        _, rows = read_csv_with_meta(out)
        assert [r["policy"] for r in rows] == ["mdpp-power", "optimal-power"]
        assert rows[1]["threshold"] != ""

    def test_negative_seed_fails_before_any_row_is_written(self, tmp_path, capsys):
        # a sweep from seed -1 once wrote an error row for seed -1 next to
        # valid rows for seeds 0, 1, ... and exited 0
        out = tmp_path / "s.jsonl"
        argv = ["sweep", "--preset", "fig6", "--seed", "-1", "--slots", "10", "--out", str(out)]
        assert main(argv) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_requires_sweep_section(self, tmp_path, capsys):
        config = write_config(tmp_path, MINIMAL)
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "s.csv")]) == 1
        assert "no sweep section" in capsys.readouterr().err

    def test_sweep_value_of_the_wrong_type_fails_the_config(self, tmp_path, capsys):
        # PyYAML reads 1e-3 (no dot) as the string "1e-3", which once ran
        # silently as v = 0.001, and a bool as v = 1.0
        data = {k: dict(v) for k, v in MINIMAL.items()}
        data["sweep"] = {"parameter": "v", "values": [0.5, True]}
        with pytest.raises(ConfigError, match=r"^sweep: values\[1\] of v must be a number, got True$"):
            experiment_from_mapping(data)
        config = tmp_path / "exp.yaml"
        config.write_text(yaml.safe_dump(MINIMAL) + "sweep:\n  parameter: v\n  values: [1e-3]\n")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        assert "sweep: values[0] of v must be a number, got '1e-3'" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rows_and_reps_override(self, tmp_path):
        data = {k: dict(v) for k, v in MINIMAL.items()}
        data["sweep"] = {"parameter": "n_tx", "values": [4, 6], "repetitions": 3}
        config = write_config(tmp_path, data)
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config", config, "--out", out, "--reps", "2"]) == 0
        _, rows = read_csv_with_meta(out)
        assert len(rows) == 4  # 2 points x 2 reps x 1 policy
        assert [r["sweep_value"] for r in rows] == ["4", "4", "6", "6"]

    @pytest.mark.parametrize("kind", sorted(COMPARE_REFERENCES))
    def test_compare_appends_gap_columns(self, tmp_path, kind):
        reference, metric = COMPARE_REFERENCES[kind]
        policy = {"kind": kind, "p_peak": 5.0, "p_avg": 2.5, "p_targets": [0.01], "p_min": 0.001}
        config = write_config(tmp_path, {"scenario": MINIMAL["scenario"], "policy": policy})
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", "--config", config, "--out", out]) == 0
        _, rows = read_csv_with_meta(out)
        assert [r["policy"] for r in rows] == [kind, reference]
        near, opt = rows
        assert near["gap_metric"] == metric
        gap = float(near[metric]) - float(opt[metric])
        assert float(near["gap"]) == pytest.approx(gap, rel=1e-9)
        assert float(near["b_over_v"]) > 0.0
        assert opt["gap"] == ""  # reference rows carry no gap

    def test_compare_needs_queue_driven_kind(self, tmp_path, capsys):
        data = {
            "scenario": dict(MINIMAL["scenario"]),
            "policy": {"kind": "optimal-power", "p_peak": 5.0, "p_avg": 2.5},
        }
        config = write_config(tmp_path, data)
        assert main(["compare", "--config", config, "--out", str(tmp_path / "c.csv")]) == 1
        assert "queue-driven" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", MALFORMED)
    def test_malformed_value_is_named_without_traceback(self, tmp_path, capsys, section, key, value):
        data = {k: dict(v) for k, v in MINIMAL.items()}
        data[section][key] = value
        config = write_config(tmp_path, data)
        assert main(["run", "--config", config, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_an_int_beyond_the_float_range_is_named_without_traceback(self, tmp_path, capsys):
        data = {**MINIMAL, "scenario": {**MINIMAL["scenario"], "efficiency": 10**400}}
        config = write_config(tmp_path, data)
        assert "efficiency: 1" + "0" * 400 + "\n" in (tmp_path / "exp.yaml").read_text()
        assert main(["run", "--config", config, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "efficiency must be a number" in err and "Traceback" not in err

    def test_missing_policy_field_is_named(self, tmp_path, capsys):
        data = {**MINIMAL, "policy": {"kind": "mmf", "p_peak": 5.0}}
        config = write_config(tmp_path, data)
        assert main(["run", "--config", config, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "p_avg" in err and "Traceback" not in err

    def test_infeasible_target_reported_as_error(self, tmp_path, capsys):
        data = {
            "scenario": {**MINIMAL["scenario"], "efficiency": 0.0},
            "policy": {"kind": "optimal-energy", "p_peak": 5.0, "p_targets": [0.01]},
        }
        config = write_config(tmp_path, data)
        assert main(["run", "--config", config, "--out", str(tmp_path / "x.csv")]) == 1
        assert "error" in capsys.readouterr().err

    def test_preset_smoke_with_tiny_horizon(self, tmp_path):
        out = str(tmp_path / "preset.csv")
        assert main(["run", "--preset", "fig7-baseline", "--slots", "30", "--out", out]) == 0
        meta, rows = read_csv_with_meta(out)
        assert meta["preset"] == "fig7-baseline"
        assert len(rows) == 1 and rows[0]["policy"] == "mdpp-power"
