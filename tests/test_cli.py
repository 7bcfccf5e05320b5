import ast
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anticip_mpc.cli import EXIT_INVALID_INPUT, EXIT_OK, _reseeded, _sha256, main
from anticip_mpc.costs import CostWeights
from anticip_mpc.kinematics import default_robot_model, load_robot_model, model_to_dict
from anticip_mpc.metrics import evaluate_trace
from anticip_mpc.mpc import _SCENARIO_KEYS, ExecutionTrace, MpcConfig, load_scenario
from anticip_mpc.prediction import ReachConfig, prediction_to_dict, synthesize_reach


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def mpc_overlay(directory: Path, **fields) -> Path:
    """An overlay file in `directory` that sets the given `mpc` fields."""
    config = directory / "mpc.json"
    config.write_text(json.dumps({"mpc": fields}))
    return config


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated scenario shared by the command tests (short task for speed)."""
    out = tmp_path_factory.mktemp("ws")
    config = mpc_overlay(tmp_path_factory.mktemp("overlay"), task_duration=2.0)
    code = run_cli("gen-scenario", "--out", out, "--seed", 7, "--config", config)
    assert code == EXIT_OK
    return out


def one_replan_overlay(directory: Path) -> Path:
    """An overlay that makes the workspace's 2 s task one replan, as `plan` runs it."""
    config = directory / "one_replan.json"
    config.write_text(json.dumps({"mpc": {"horizon": 2.0, "replan_period": 2.0}}))
    return config


def ground_truth_with_a_negative_variance() -> dict:
    """The default human as an inline prediction whose frame 1, joint 0 covariance is not positive definite."""
    data = prediction_to_dict(synthesize_reach(ReachConfig()))
    data["frames"][1][0]["cov"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -0.1]]
    return data


def strip_timing(data: dict) -> dict:
    data = dict(data)
    data.pop("total_wall_time", None)
    data["replans"] = [
        {k: v for k, v in r.items() if k not in ("wall_time",)} for r in data["replans"]
    ]
    return data


class TestGenScenario:
    def test_deterministic_bytes(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli("gen-scenario", "--out", tmp_path / sub, "--seed", 3) == EXIT_OK
        for name in ("scenario.json", "prediction.json", "robot.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert json.loads((tmp_path / "a" / "scenario.json").read_text())["robot_model"] == "robot.json"

    def test_robot_file_is_the_scenarios_model(self, tmp_path):
        """An inline robot_model overlay is the model written to robot.json, not the default robot."""
        robot = model_to_dict(default_robot_model())
        robot["velocity_bounds"] = {"lower": [-1.0] * 7, "upper": [1.0] * 7}
        config = tmp_path / "robot_overlay.json"
        config.write_text(json.dumps({"robot_model": robot}))
        out = tmp_path / "out"
        assert run_cli("gen-scenario", "--out", out, "--config", config) == EXIT_OK
        written = model_to_dict(load_robot_model(out / "robot.json"))
        assert written == model_to_dict(load_scenario(out / "scenario.json").model) == robot

    def test_zero_duration_rejected(self, tmp_path):
        config = mpc_overlay(tmp_path, task_duration=0)
        assert run_cli("gen-scenario", "--out", tmp_path, "--config", config) == EXIT_INVALID_INPUT

    def test_zero_dt_rejected(self, tmp_path, capsys):
        config = mpc_overlay(tmp_path, dt=0)
        assert run_cli("gen-scenario", "--out", tmp_path, "--config", config) == EXIT_INVALID_INPUT
        assert "mpc dt must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("dt", float("nan")), ("horizon", float("inf")), ("replan_period", -0.5), ("task_duration", float("nan"))],
    )
    def test_bad_timing_field_names_its_mpc_field(self, tmp_path, capsys, field, value):
        """A bad timing field is named as the mpc field it is, not as the default human it spans."""
        out = tmp_path / "new"
        config = mpc_overlay(tmp_path, **{field: value})
        assert run_cli("gen-scenario", "--out", out, "--config", config) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert f"mpc {field} must be positive and finite" in err and "reach" not in err
        assert not out.exists()

    def test_nan_synthesis_dt_rejected(self, tmp_path, capsys):
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps({"prediction": {"synthesize": {"dt": float("nan")}}}))
        assert run_cli("gen-scenario", "--out", tmp_path, "--config", config) == EXIT_INVALID_INPUT
        assert "reach dt must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dt", "fast"),
            ("seed", "x"),
            ("joint_names", 5),
            ("rest_positions", "a"),
            ("reach_joint", 1.5),
            ("duration", None),
            ("jitter", "big"),
            ("settle", "x"),
            ("reach_target", [1, 2]),
        ],
    )
    def test_malformed_synthesis_field_rejected(self, tmp_path, capsys, key, value):
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps({"prediction": {"synthesize": {key: value}}}))
        assert run_cli("gen-scenario", "--out", tmp_path, "--config", config) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert f"reach {key}" in err
        assert "Traceback" not in err

    def test_missing_config_rejected(self, tmp_path, capsys):
        code = run_cli("gen-scenario", "--out", tmp_path, "--config", tmp_path / "nope.json")
        assert code == EXIT_INVALID_INPUT
        assert "config" in capsys.readouterr().err
        assert not (tmp_path / "scenario.json").exists()

    def test_prediction_path_overlay(self, tmp_path):
        """A prediction given as a file path, relative to the output
        directory, is a valid scenario form."""
        config = mpc_overlay(tmp_path, task_duration=2.0)
        assert run_cli("gen-scenario", "--out", tmp_path, "--seed", 3, "--config", config) == EXIT_OK
        before = (tmp_path / "prediction.json").read_bytes()
        config.write_text(json.dumps({"mpc": {"task_duration": 2.0}, "prediction": "prediction.json"}))
        code = run_cli("gen-scenario", "--out", tmp_path, "--seed", 3, "--config", config)
        assert code == EXIT_OK
        assert (tmp_path / "prediction.json").read_bytes() == before
        assert json.loads((tmp_path / "scenario.json").read_text())["prediction"] == "prediction.json"
        load_scenario(tmp_path / "scenario.json")

    def test_missing_prediction_path_rejected(self, tmp_path, capsys):
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps({"prediction": "missing.json"}))
        assert run_cli("gen-scenario", "--out", tmp_path, "--config", config) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert "prediction" in err and "Traceback" not in err
        assert not (tmp_path / "scenario.json").exists()

    @pytest.mark.parametrize(
        "overlay, message",
        [
            pytest.param({"ground_truth": {"synthesize": {"dt": "fast"}}}, "reach dt", id="synthesize_dt"),
            pytest.param({"weights": {"w_dist": -1}}, "weights w_dist", id="w_dist"),
            # the overlay's mpc fields set the default human's span, and are checked as mpc fields
            pytest.param({"mpc": {"dt": float("nan")}}, "mpc dt must be positive and finite", id="mpc_dt"),
            # an inline ground truth replaces the scenario's null one, so its covariances are checked
            pytest.param({"ground_truth": ground_truth_with_a_negative_variance()}, "frame 1, joint 0", id="ground_truth_cov"),
        ],
    )
    def test_failing_overlay_creates_no_directory(self, tmp_path, capsys, overlay, message):
        """The overlay is checked before --out is created, so nothing is written."""
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps(overlay))
        out = tmp_path / "out"
        assert run_cli("gen-scenario", "--out", out, "--config", config) == EXIT_INVALID_INPUT
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overlay, duration, dt",
        [
            pytest.param({"mpc": {"task_duration": 10.0}}, 11.25, 0.25, id="task_duration"),
            pytest.param({"mpc": {"dt": 0.125}}, 6.25, 0.125, id="dt"),
            pytest.param(
                {"mpc": {"task_duration": 10.0}, "prediction": {"synthesize": {"duration": 12.0, "dt": 0.5}}},
                12.0, 0.5, id="explicit_synthesize",
            ),
        ],
    )
    def test_default_human_spans_the_overlay_timing(self, tmp_path, overlay, duration, dt):
        """The default human covers the overlay's task and one horizon past it on its mpc
        grid; an explicit synthesize field wins."""
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps(overlay))
        assert run_cli("gen-scenario", "--out", tmp_path / "out", "--config", config) == EXIT_OK
        synthesize = json.loads((tmp_path / "out" / "scenario.json").read_text())["prediction"]["synthesize"]
        assert (synthesize["duration"], synthesize["dt"]) == (duration, dt)

    @pytest.mark.parametrize(
        "overlay, key",
        [
            pytest.param({"seed": 3}, "seed", id="seed"),
            pytest.param({"prediction": {"synthesize": {"seed": 3}}}, "prediction.synthesize.seed", id="synthesize"),
        ],
    )
    def test_overlay_seed_other_than_the_flag_rejected(self, tmp_path, capsys, overlay, key):
        """The default human is drawn from --seed, so an overlay seed that differs exits 2
        naming it and writes nothing; one that agrees is accepted."""
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps(overlay))
        out = tmp_path / "out"
        assert run_cli("gen-scenario", "--out", out, "--seed", 7, "--config", config) == EXIT_INVALID_INPUT
        assert f"config {key}=3 conflicts with --seed 7" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli("gen-scenario", "--out", out, "--seed", 3, "--config", config) == EXIT_OK

    def test_each_overlay_seed_checked(self, tmp_path, capsys):
        """A top-level seed that agrees with --seed does not excuse a synthesize seed that does not."""
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps({"seed": 7, "prediction": {"synthesize": {"seed": 3}}}))
        out = tmp_path / "out"
        assert run_cli("gen-scenario", "--out", out, "--seed", 7, "--config", config) == EXIT_INVALID_INPUT
        assert "config prediction.synthesize.seed=3 conflicts with --seed 7" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_written(self, workspace):
        manifest = json.loads((workspace / "gen_scenario_manifest.json").read_text())
        assert manifest["command"] == "gen-scenario"
        assert manifest["seed"] == 7
        assert any(p.endswith("scenario.json") for p in manifest["outputs"])


class TestPlan:
    def test_generated_scenario_plans_without_edits(self, workspace, tmp_path):
        out = tmp_path / "plan"
        assert run_cli("plan", "--scenario", workspace / "scenario.json", "--out", out) == EXIT_OK
        plan = json.loads((out / "plan.json").read_text())
        assert len(plan["states"]) == 9  # 2 s task at dt 0.25
        rows = list(csv.reader((out / "plan.csv").open()))
        assert rows[0][0] == "time" and len(rows) == 10
        manifest = json.loads((out / "plan_manifest.json").read_text())
        assert len(manifest["inputs"]) == 1

    def test_missing_scenario_is_invalid_input(self, tmp_path):
        assert run_cli("plan", "--scenario", tmp_path / "nope.json", "--out", tmp_path) == 2

    def test_plan_csv_is_the_one_replan_trace(self, workspace, tmp_path):
        plan_out, sim_out = tmp_path / "plan", tmp_path / "sim"
        scenario = workspace / "scenario.json"
        assert run_cli("plan", "--scenario", scenario, "--out", plan_out) == EXIT_OK
        config = one_replan_overlay(tmp_path)
        assert run_cli("simulate", "--scenario", scenario, "--config", config, "--out", sim_out) == EXIT_OK
        assert (plan_out / "plan.csv").read_bytes() == (sim_out / "trace.csv").read_bytes()
        trace = json.loads((sim_out / "trace.json").read_text())
        plan = json.loads((plan_out / "plan.json").read_text())
        assert len(trace["replans"]) == 1
        assert plan["states"] == trace["replans"][0]["states"]


# two synthesized frames 0.001 s apart: a 2 s task holds the last one for
# ~2000 grid steps, and the 1.5-per-step covariance inflation overflows
SHORT_PREDICTION = {"prediction": {"synthesize": {"duration": 0.001, "dt": 0.001}}}


# one malformed field per case: (input file, path to the field, value, the field's name in the error)
MALFORMED_FIELDS = [
    ("robot", ["n_joints"], "x", "n_joints"),
    ("robot", ["joints", 2, "axis"], "abc", "axis"),
    ("robot", ["base_pose", "position"], [0, 0], "base_pose.position"),
    ("robot", ["tracked_frames"], ["a"], "tracked_frames"),
    ("robot", ["tracked_frames"], [1.5], "tracked_frames"),
    ("robot", ["eef_frame"], 7.9, "eef_frame"),
    ("robot", ["joints", 3, "offset", 1], float("nan"), "offset"),
    ("robot", ["joints", 0, "axis"], [0.0, 0.0, True], "axis"),
    ("prediction", ["frames"], 5, "frames"),
    ("prediction", ["head_index"], 0.7, "head_index"),
    ("prediction", ["head_index"], "0", "head_index"),
    ("prediction", ["joint_names"], "abcde", "joint_names"),
    ("prediction", ["dt"], True, "prediction dt"),
    ("prediction", ["dt"], float("inf"), "prediction dt"),
    ("scenario", ["mpc", "dt"], "0.25", "mpc dt"),
    ("scenario", ["gaze_object"], [True, 0.05, 0.30], "gaze_object"),
    ("scenario", ["weights", "w_dist"], True, "w_dist"),
]


# one malformed trace field per case: (path to the field, value, the field's name in the error)
MALFORMED_TRACE_FIELDS = [
    (["gaze_object"], [1.0, 2.0], "trace gaze_object"),
    (["legibility_start"], [[1.0, 2.0, 3.0]], "trace legibility_start"),
    (["goal_orientation"], [1.0, 0.0, 0.0], "trace goal_orientation"),
    (["legibility_goals"], [[1.0, 2.0]], "trace legibility_goals"),
    (["legibility_goal_index"], 5, "trace legibility_goal_index"),
    (["head_index"], 99, "trace head_index"),
    (["eef_quats", 0], [1.0, 0.0, 0.0], "trace eef_quats"),
    (["human_pred", 0], [[0.0, 0.0, 0.0]], "trace human_pred"),
    (["replans", 0, "total_cost"], "abc", "trace replan 0 total_cost"),
    (["replans", 0, "converged"], "yes", "trace replan 0 converged"),
    (["replans", 1, "iterations"], 2.5, "trace replan 1 iterations"),
    (["replans", 0, "controls"], [[0.0] * 7], "trace replan 0 controls"),
    (["replans", 0, "states", 1], ["x"] * 7, "trace replan 0 states"),
    (["replans", 0, "grad_inf"], -1.0, "trace replan 0 grad_inf"),
    (["states", 0], [False] + [0.0] * 6, "trace states"),
    (["replans"], 5, "trace replans"),
    (["replans"], {"a": 1}, "trace replans"),
    (["replans"], None, "trace replans"),
    (["replans"], [], "trace replans"),
    (["replans"], [5], "trace replan 0"),
    (["replans"], ["x"], "trace replan 0"),
]


class TestMalformedScenario:
    def test_plan_past_prediction_end_exits_invalid_input(self, workspace, tmp_path, capsys):
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps(SHORT_PREDICTION))
        code = run_cli("plan", "--scenario", workspace / "scenario.json", "--config", config, "--out", tmp_path / "plan")
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "past the prediction's last frame" in err

    @pytest.mark.parametrize("version", [99, 0, True, 1.0, "1"])
    def test_other_schema_version_exits_invalid_input(self, workspace, tmp_path, capsys, version):
        # True == 1 and 1.0 == 1 in Python, so the version is checked as an integer
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps({"schema_version": version}))
        code = run_cli("plan", "--scenario", workspace / "scenario.json", "--config", config, "--out", tmp_path / "plan")
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert "scenario schema_version" in err
        assert "Traceback" not in err
        assert not (tmp_path / "plan" / "plan.json").exists()

    @pytest.mark.parametrize(
        "value, message",
        [
            (float("nan"), "mean at frame 2, joint 1 must be finite"),
            (True, "frame 2, joint 1: mean must be 3 numbers"),
        ],
        ids=["nan", "bool"],
    )
    def test_bad_prediction_mean_exits_invalid_input(self, workspace, tmp_path, capsys, value, message):
        data = json.loads((workspace / "prediction.json").read_text())
        data["frames"][2][1]["mean"][0] = value
        (tmp_path / "prediction.json").write_text(json.dumps(data))  # NaN as the JSON extension token
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps({"prediction": str(tmp_path / "prediction.json")}))
        code = run_cli("simulate", "--scenario", workspace / "scenario.json", "--config", config, "--out", tmp_path / "sim")
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize(
        "overlay",
        [
            {"mpc": {"bogus": 1}},
            {"mpc": {"dt": float("nan")}},
            {"robot_model": "no_such_robot.json"},
            {"weights": {"w_dist": "heavy"}},
            {"legibility": [[0.622, -0.524, 0.323]]},
            {"gaze_object": [0.75, 0.05]},
            {"start_q": "home"},
            {"nominal": "straight"},
            {"legibility": {"goal_index": 0.5}},
            {"seed": "seven"},
            {"goal_pose": "up"},
            {"goal_pose": {"position": [0.6, 0.0], "orientation": [1.0, 0.0, 0.0, 0.0]}},
            SHORT_PREDICTION,
        ],
        ids=[
            "unknown_mpc_key", "nan_dt", "missing_robot_model", "string_weight",
            "list_legibility", "two_vector_gaze", "string_start_q", "string_nominal",
            "fractional_goal_index", "string_seed", "string_goal_pose", "two_vector_goal_position",
            "hold_overflow",
        ],
    )
    def test_simulate_exits_invalid_input(self, workspace, tmp_path, overlay, capsys):
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps(overlay))  # NaN is written as the JSON extension token
        code = run_cli(
            "simulate", "--scenario", workspace / "scenario.json", "--config", config,
            "--out", tmp_path / "sim",
        )
        assert code == EXIT_INVALID_INPUT
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, path, value, field",
        MALFORMED_FIELDS,
        ids=[f"{src}:{'.'.join(map(str, path))}={value!r}" for src, path, value, _ in MALFORMED_FIELDS],
    )
    def test_malformed_field_exits_invalid_input_naming_it(
        self, workspace, tmp_path, capsys, source, path, value, field
    ):
        """A malformed robot, prediction or scenario field exits 2 with a
        message naming the field, not with a traceback."""
        if source == "scenario":
            overlay = value
            for key in reversed(path):
                overlay = {key: overlay}
        else:
            data = json.loads((workspace / f"{source}.json").read_text())
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            edited = tmp_path / f"{source}.json"
            edited.write_text(json.dumps(data))  # NaN and inf as JSON extension tokens
            overlay = {"robot_model" if source == "robot" else "prediction": str(edited)}
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps(overlay))
        code = run_cli("plan", "--scenario", workspace / "scenario.json", "--config", config, "--out", tmp_path / "plan")
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, value", [("settle", -3), ("growth_rate", -1)])
    def test_negative_reach_field_exits_invalid_input_naming_it(self, workspace, tmp_path, capsys, name, value):
        """A negative settle was read as 0, and a negative growth_rate exited
        naming a covariance; each now exits 2 at load, naming the field."""
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps({"prediction": {"synthesize": {name: value}}}))
        code = run_cli("simulate", "--scenario", workspace / "scenario.json", "--config", config, "--out", tmp_path / "sim")
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert f"reach {name} must be finite and >= 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "sim" / "trace.json").exists()

    @pytest.mark.parametrize("key", ["prediction", "ground_truth"])
    def test_inline_prediction_onto_synthesized_source_exits_invalid_input(self, workspace, tmp_path, capsys, key):
        """An overlay's inline prediction deep-merges into the scenario's synthesize block: one
        source mixing two forms is rejected, naming the source's key and the extra keys."""
        data = json.loads((workspace / "scenario.json").read_text())
        data.update(robot_model=str(workspace / "robot.json"), ground_truth=data["prediction"])
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps({key: json.loads((workspace / "prediction.json").read_text())}))
        code = run_cli("simulate", "--scenario", scenario, "--config", config, "--out", tmp_path / "sim")
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert "['dt', 'frames', 'head_index', 'joint_names', 't0']" in err and "synthesize" in err
        assert f"scenario {key} holding 'synthesize'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "sim" / "trace.json").exists()

    def test_zero_joint_prediction_exits_invalid_input(self, workspace, tmp_path, capsys):
        data = json.loads((workspace / "prediction.json").read_text())
        data.update(joint_names=[], frames=[[] for _ in data["frames"]])
        (tmp_path / "prediction.json").write_text(json.dumps(data))
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps({"prediction": str(tmp_path / "prediction.json")}))
        code = run_cli("plan", "--scenario", workspace / "scenario.json", "--config", config, "--out", tmp_path / "plan")
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert "needs at least one joint" in err
        assert "Traceback" not in err

    def test_zero_replan_period_exits_instead_of_hanging(self, workspace, tmp_path):
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps({"mpc": {"replan_period": 0}}))
        proc = subprocess.run(
            [
                sys.executable, "-m", "anticip_mpc.cli", "simulate", "--scenario", str(workspace / "scenario.json"),
                "--config", str(config), "--out", str(tmp_path / "sim"),
            ],
            capture_output=True,
            text=True,
            timeout=60,  # a run that never advances would otherwise hang the suite
        )
        assert proc.returncode == EXIT_INVALID_INPUT
        assert "replan_period" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["gen-scenario", "plan", "simulate", "bench"])
    def test_list_overlay_exits_invalid_input(self, workspace, tmp_path, command, capsys):
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps([{"seed": 1}]))
        argv = [command, "--config", config, "--out", tmp_path / "out"]
        if command != "gen-scenario":
            argv += ["--scenario", workspace / "scenario.json"]
        assert run_cli(*argv) == EXIT_INVALID_INPUT
        assert "expected a JSON object, got list" in capsys.readouterr().err


# retired and misspelled settings: (overlay, the key the error names)
REMOVED_SETTINGS = [
    *(({"solver": {key: value}}, "solver") for key, value in (
        ("max_inner_iters", 5), ("max_outer_iters", 6), ("cost_tol", 1e-4), ("grad_tol", 1e-5),
        ("constraint_tol", 1e-4), ("init_penalty", 1.0), ("penalty_scale", 10.0), ("reg_cap", 1e6),
    )),
    ({"mpc": {"goal_position_tol": 0.02}}, "goal_position_tol"),
    ({"mcp": {"dt": 0.25}}, "mcp"),
    ({"solvr": {}}, "solvr"),
]


class TestRemovedSettings:
    @pytest.mark.parametrize(
        "overlay, key", REMOVED_SETTINGS, ids=[json.dumps(overlay) for overlay, _ in REMOVED_SETTINGS]
    )
    def test_overlay_exits_invalid_input_naming_the_key(self, workspace, tmp_path, capsys, overlay, key):
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps(overlay))
        code = run_cli("plan", "--scenario", workspace / "scenario.json", "--config", config, "--out", tmp_path)
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not (tmp_path / "plan.json").exists()

    @pytest.mark.parametrize(
        "section, key, named", [("solver", "max_inner_iters", "solver"), ("mpc", "goal_position_tol", "goal_position_tol")]
    )
    def test_old_scenario_file_exits_invalid_input(self, workspace, tmp_path, capsys, section, key, named):
        data = json.loads((workspace / "scenario.json").read_text())
        data["robot_model"] = str(workspace / "robot.json")
        data.setdefault(section, {})[key] = 5
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        assert run_cli("simulate", "--scenario", scenario, "--out", tmp_path / "sim") == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag, value",
        [("plan", "--seed", 1), ("simulate", "--seed", 5), ("simulate", "--horizon", 2.0),
         ("simulate", "--replan", 2.0), ("eval", "--config", "x.json"), ("gen-scenario", "--duration", 2.0),
         ("gen-scenario", "--dt", 0.125), ("gen-scenario", "--horizon", 2.0), ("gen-scenario", "--replan", 2.0),
         ("bench", "--seed", 1)],
    )
    def test_removed_flag_exits_invalid_input(self, workspace, traces, tmp_path, capsys, command, flag, value):
        inputs = {"gen-scenario": [], "eval": [traces[0]]}.get(command, ["--scenario", workspace / "scenario.json"])
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *inputs, flag, value, "--out", out)
        assert exc.value.code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestOutDirectory:
    """--out is created after the argument checks, and a path that cannot be a
    directory exits 2 naming --out."""

    @pytest.mark.parametrize("command", ["gen-scenario", "plan", "simulate", "eval", "bench"])
    def test_out_naming_a_file_exits_invalid_input(self, workspace, traces, tmp_path, capsys, command):
        existing = tmp_path / "existing"
        existing.write_text("keep")
        scenario = ["--scenario", workspace / "scenario.json"]
        inputs = {"gen-scenario": [], "eval": [traces[0]], "bench": ["--n", 1, *scenario]}.get(command, scenario)
        assert run_cli(command, *inputs, "--out", existing) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert "--out" in err and str(existing) in err
        assert "Traceback" not in err
        assert existing.read_text() == "keep"

    def test_out_below_a_file_exits_invalid_input(self, tmp_path, capsys):
        (tmp_path / "existing").write_text("")
        assert run_cli("gen-scenario", "--out", tmp_path / "existing" / "sub") == EXIT_INVALID_INPUT
        assert "--out" in capsys.readouterr().err

    def test_rejected_duration_creates_no_directory(self, tmp_path):
        out = tmp_path / "new"
        config = mpc_overlay(tmp_path, task_duration=-1)
        assert run_cli("gen-scenario", "--out", out, "--config", config) == EXIT_INVALID_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("command", ["plan", "simulate", "eval", "bench"])
    def test_missing_input_creates_no_directory(self, tmp_path, command):
        out = tmp_path / "new"
        missing = tmp_path / "nope.json"
        inputs = [missing] if command == "eval" else ["--scenario", missing]
        assert run_cli(command, *inputs, "--out", out) == EXIT_INVALID_INPUT
        assert not out.exists()


class TestManifestSeed:
    """A manifest records the seed the run drew from: the scenario's, or each trace's."""

    def test_plan_records_the_scenario_seed(self, workspace, tmp_path):
        out = tmp_path / "plan"
        assert run_cli("plan", "--scenario", workspace / "scenario.json", "--out", out) == EXIT_OK
        assert json.loads((out / "plan_manifest.json").read_text())["seed"] == 7

    def test_simulate_and_eval_record_the_trace_seeds(self, workspace, traces, tmp_path):
        config = tmp_path / "seed.json"
        config.write_text(json.dumps({"seed": 11}))
        sim_out, eval_out = tmp_path / "sim", tmp_path / "eval"
        scenario = workspace / "scenario.json"
        assert run_cli("simulate", "--scenario", scenario, "--config", config, "--out", sim_out) == EXIT_OK
        assert json.loads((sim_out / "simulate_manifest.json").read_text())["seed"] == 11
        assert run_cli("eval", sim_out / "trace.json", traces[0], "--out", eval_out) == EXIT_OK
        assert json.loads((eval_out / "eval_manifest.json").read_text())["seed"] == [11, 7]


class TestManifestOverlay:
    """plan, simulate and bench manifests name the --config overlay and hash it beside the scenario."""

    @pytest.mark.parametrize("command", ["plan", "simulate", "bench"])
    def test_overlay_path_and_hash_recorded(self, workspace, tmp_path, command):
        config = one_replan_overlay(tmp_path)
        scenario = workspace / "scenario.json"
        out = tmp_path / command
        extra = ["--n", 1] if command == "bench" else []
        assert run_cli(command, "--scenario", scenario, "--config", config, "--out", out, *extra) == EXIT_OK
        manifest = json.loads((out / f"{command}_manifest.json").read_text())
        assert manifest["config"]["scenario"] == str(scenario)
        assert manifest["config"]["config"] == str(config)
        assert manifest["inputs"] == {str(scenario): _sha256(scenario), str(config): _sha256(config)}

    def test_no_overlay_records_null(self, workspace, tmp_path):
        scenario = workspace / "scenario.json"
        assert run_cli("plan", "--scenario", scenario, "--out", tmp_path) == EXIT_OK
        manifest = json.loads((tmp_path / "plan_manifest.json").read_text())
        assert manifest["config"] == {"scenario": str(scenario), "config": None}
        assert list(manifest["inputs"]) == [str(scenario)]


class TestSimulate:
    def test_replan_records(self, workspace, tmp_path):
        out = tmp_path / "sim"
        code = run_cli("simulate", "--scenario", workspace / "scenario.json", "--out", out)
        assert code == EXIT_OK
        trace = json.loads((out / "trace.json").read_text())
        assert len(trace["replans"]) == 4  # ceil(2.0 / 0.5)
        assert (out / "trace.csv").exists()

    def test_deterministic_up_to_wall_time(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("simulate", "--scenario", workspace / "scenario.json", "--out", out) == EXIT_OK
        ta = strip_timing(json.loads((a / "trace.json").read_text()))
        tb = strip_timing(json.loads((b / "trace.json").read_text()))
        assert ta == tb

    def test_ground_truth_starting_after_zero_exits_2_at_load(self, workspace, tmp_path, capsys):
        block = json.loads((workspace / "scenario.json").read_text())["prediction"]["synthesize"]
        config = tmp_path / "late_truth.json"
        config.write_text(json.dumps({"ground_truth": {"synthesize": {**block, "t0": 0.5}}}))
        out = tmp_path / "sim"
        code = run_cli("simulate", "--scenario", workspace / "scenario.json", "--config", config, "--out", out)
        assert code == EXIT_INVALID_INPUT
        assert "scenario ground_truth must start at or before t = 0, got t0=0.5" in capsys.readouterr().err
        assert not (out / "trace.json").exists()

    def test_degenerate_mpc_equals_plan(self, workspace, tmp_path):
        plan_out = tmp_path / "plan"
        sim_out = tmp_path / "sim"
        scenario = workspace / "scenario.json"
        assert run_cli("plan", "--scenario", scenario, "--out", plan_out) == EXIT_OK
        config = one_replan_overlay(tmp_path)
        assert run_cli("simulate", "--scenario", scenario, "--config", config, "--out", sim_out) == EXIT_OK
        plan = json.loads((plan_out / "plan.json").read_text())
        trace = ExecutionTrace.load_json(sim_out / "trace.json")
        assert np.array_equal(trace.states, np.asarray(plan["states"]))


@pytest.fixture(scope="module")
def traces(workspace, tmp_path_factory):
    outs = []
    for seed in (1, 2, 3):
        out = tmp_path_factory.mktemp(f"run{seed}")
        config = out / "override.json"
        config.write_text(json.dumps({"prediction": {"synthesize": {"seed": seed}}}))
        code = run_cli(
            "simulate", "--scenario", workspace / "scenario.json",
            "--config", config, "--out", out,
        )
        assert code == EXIT_OK
        outs.append(out / "trace.json")
    return outs


class TestEval:
    def test_reports_and_aggregate(self, traces, tmp_path):
        out = tmp_path / "eval"
        assert run_cli("eval", *traces, "--out", out) == EXIT_OK
        rows = list(csv.reader((out / "metrics.csv").open()))
        assert rows[0] == ["trace", "dst", "vis", "leg", "nom", "lat"]
        per_trace = np.array([[float(v) for v in row[1:]] for row in rows[1:4]])
        mean_row = np.array([float(v) for v in rows[4][1:]])
        std_row = np.array([float(v) for v in rows[5][1:]])
        assert rows[4][0] == "mean" and rows[5][0] == "std"
        np.testing.assert_allclose(mean_row, per_trace.mean(axis=0), atol=1e-6)
        np.testing.assert_allclose(std_row, per_trace.std(axis=0, ddof=1), atol=1e-6)

    def test_report_and_manifest_are_strict_json(self, traces, tmp_path):
        """Neither file holds a NaN or Infinity token, which strict JSON readers refuse."""
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        out = tmp_path / "eval"
        assert run_cli("eval", traces[0], "--out", out) == EXIT_OK
        for name in ("report_0.json", "eval_manifest.json"):
            json.loads((out / name).read_text(), parse_constant=reject)

    def test_same_named_traces_keep_their_own_reports(self, traces, tmp_path):
        # every simulate run writes trace.json, so the reports go by position
        assert len({Path(t).name for t in traces}) == 1
        out = tmp_path / "eval"
        assert run_cli("eval", traces[0], traces[1], "--out", out) == EXIT_OK
        rows = list(csv.reader((out / "metrics.csv").open()))
        assert [row[0] for row in rows[1:3]] == [str(traces[0]), str(traces[1])]
        for i, trace in enumerate(traces[:2]):
            assert run_cli("eval", trace, "--out", tmp_path / f"single{i}") == EXIT_OK
            single = json.loads((tmp_path / f"single{i}" / "report_0.json").read_text())
            assert json.loads((out / f"report_{i}.json").read_text()) == single
        assert (out / "report_0.json").read_text() != (out / "report_1.json").read_text()
        assert not (out / "report_2.json").exists()

    def test_far_human_scores_full_separation(self, workspace, tmp_path):
        config = tmp_path / "far.json"
        rest = (np.array([[1.1, 0, 0.55], [1.1, 0, 0.3], [1.15, 0, 0.05], [0.95, 0.3, 0.25], [0.95, -0.3, 0.25]]) + 50.0).tolist()
        config.write_text(json.dumps({
            "weights": {"w_dist": 0.0, "w_vis": 0.0},
            "prediction": {"synthesize": {"rest_positions": rest, "reach_target": [50.75, 0.05, 0.30]}},
        }))
        sim_out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--scenario", workspace / "scenario.json",
            "--config", config, "--out", sim_out,
        ) == EXIT_OK
        eval_out = tmp_path / "eval"
        assert run_cli("eval", sim_out / "trace.json", "--out", eval_out) == EXIT_OK
        report = json.loads((eval_out / "report_0.json").read_text())
        assert report["dst"] == 1.0

    def test_single_goal_trace_scores_full_legibility(self, workspace, tmp_path):
        """With one candidate goal the inferred goal probability is exactly 1."""
        config = tmp_path / "one_goal.json"
        config.write_text(json.dumps({"legibility": {"goals": [[0.622, -0.524, 0.323]], "goal_index": 0}}))
        sim_out, eval_out = tmp_path / "sim", tmp_path / "eval"
        scenario = workspace / "scenario.json"
        assert run_cli("simulate", "--scenario", scenario, "--config", config, "--out", sim_out) == EXIT_OK
        assert run_cli("eval", sim_out / "trace.json", "--out", eval_out) == EXIT_OK
        report = json.loads((eval_out / "report_0.json").read_text())
        assert report["leg"] == 1.0

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--threshold", "nan", "threshold must be positive"), ("--threshold", "-1", "threshold must be positive"),
         ("--fov", "nan", "fov_half_angle must be"), ("--fov", "-0.5", "fov_half_angle must be")],
    )
    def test_bad_metric_flag_exits_invalid_input(self, traces, tmp_path, capsys, flag, value, message):
        out = tmp_path / "eval"
        assert run_cli("eval", *traces, flag, value, "--out", out) == EXIT_INVALID_INPUT
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_trace_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run_cli("eval", bad, "--out", tmp_path) == EXIT_INVALID_INPUT

    def test_non_numeric_times_rejected(self, traces, tmp_path, capsys):
        data = json.loads(traces[0].read_text())
        data["times"] = ["soon"] * len(data["times"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run_cli("eval", bad, "--out", tmp_path) == EXIT_INVALID_INPUT
        assert "trace times must be a rectangular array of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [2, 0, True, 1.0])
    def test_other_schema_version_rejected(self, traces, tmp_path, capsys, version):
        data = json.loads(traces[0].read_text())
        assert data["schema_version"] == 1
        data["schema_version"] = version
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run_cli("eval", bad, "--out", tmp_path / "eval") == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert "trace schema_version" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["states", "eef_positions"])
    def test_truncated_per_step_array_rejected(self, traces, tmp_path, capsys, field):
        data = json.loads(traces[0].read_text())
        assert len(data[field]) == len(data["times"]) > 3
        data[field] = data[field][:3]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run_cli("eval", bad, "--out", tmp_path) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert field in err
        assert "InvalidInputError" not in err


    @pytest.mark.parametrize(
        "path, value, field",
        MALFORMED_TRACE_FIELDS,
        ids=[f"{'.'.join(map(str, path))}={value!r}" for path, value, _ in MALFORMED_TRACE_FIELDS],
    )
    def test_malformed_trace_field_exits_invalid_input_naming_it(
        self, traces, tmp_path, capsys, path, value, field
    ):
        """A malformed trace field exits 2 with a message naming it, never
        with a traceback or a silent load."""
        data = json.loads(traces[0].read_text())
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run_cli("eval", bad, "--out", tmp_path) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err


class TestBench:
    def test_summary_counts_requested_runs(self, workspace, tmp_path):
        out = tmp_path / "bench"
        code = run_cli(
            "bench", "--scenario", workspace / "scenario.json", "--out", out, "--n", 2
        )
        assert code == EXIT_OK
        summary = json.loads((out / "bench.json").read_text())
        assert summary["n_runs"] == 2
        assert summary["per_trajectory_mean_s"] > 0
        rows = list(csv.reader((out / "bench.csv").open()))
        assert len(rows) == 3  # header + one per requested run, warm-up excluded

    def test_file_prediction_shares_one_human_and_warns(self, workspace, tmp_path, monkeypatch, caplog):
        import anticip_mpc.cli as cli_module

        data = json.loads((workspace / "scenario.json").read_text())
        data["prediction"] = str(workspace / "prediction.json")
        data["robot_model"] = str(workspace / "robot.json")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        humans, run_mpc = [], cli_module.run_mpc

        def recording_run_mpc(s):
            humans.append(s.prediction)
            return run_mpc(s)

        monkeypatch.setattr(cli_module, "run_mpc", recording_run_mpc)
        assert run_cli("bench", "--scenario", scenario, "--out", tmp_path / "bench", "--n", 2) == EXIT_OK
        assert len(humans) == 3 and all(h is humans[0] for h in humans)  # warm-up and two runs
        assert "bench runs will share one human motion" in caplog.text

    def test_runs_draw_from_the_scenario_seed(self, workspace, tmp_path, monkeypatch):
        """The warm-up and the first run draw the scenario's own human (seed 7), the second
        run seed 8, and the manifest records seed 7."""
        import anticip_mpc.cli as cli_module

        seeds, run_mpc = [], cli_module.run_mpc

        def recording_run_mpc(s):
            seeds.append((s.seed, s.synthesis.seed))
            return run_mpc(s)

        monkeypatch.setattr(cli_module, "run_mpc", recording_run_mpc)
        out = tmp_path / "bench"
        assert run_cli("bench", "--scenario", workspace / "scenario.json", "--out", out, "--n", 2) == EXIT_OK
        assert seeds == [(7, 7), (7, 7), (8, 8)]
        assert json.loads((out / "bench_manifest.json").read_text())["seed"] == 7

    @pytest.mark.parametrize("n", [0, -1])
    def test_fewer_than_one_run_rejected(self, workspace, tmp_path, n, capsys):
        code = run_cli("bench", "--scenario", workspace / "scenario.json", "--out", tmp_path, "--n", n)
        assert code == EXIT_INVALID_INPUT
        assert "--n must be at least 1" in capsys.readouterr().err

    def test_reseeded_scenario_matches_seed_overlay(self, workspace, tmp_path):
        config = tmp_path / "seed.json"
        config.write_text(json.dumps({"prediction": {"synthesize": {"seed": 5}}, "seed": 5}))
        expected = load_scenario(workspace / "scenario.json", config)
        base = load_scenario(workspace / "scenario.json")
        got = _reseeded(base, 5)
        assert got.seed == 5 and base.seed == 7
        assert got.synthesis.to_dict() == expected.synthesis.to_dict()
        assert np.array_equal(got.prediction.means, expected.prediction.means)
        assert np.array_equal(got.prediction.covs, expected.prediction.covs)
        assert not np.array_equal(got.prediction.means, base.prediction.means)


class TestSolverFailureExit:
    @pytest.mark.parametrize("command", ["plan", "simulate", "bench"])
    def test_plan_reports_exit_code_3(self, workspace, tmp_path, monkeypatch, command):
        from anticip_mpc.errors import SolverError
        import anticip_mpc.mpc as mpc_mod

        def boom(*args, **kwargs):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(mpc_mod, "solve", boom)
        out = tmp_path / command
        code = run_cli(command, "--scenario", workspace / "scenario.json", "--out", out)
        assert code == 3
        diag = json.loads((out / f"{command}_diagnostics.json").read_text())
        assert diag == {"error": "synthetic failure", "command": command}


class TestTopLevel:
    def test_schema_prints_json(self, capsys):
        assert run_cli("--schema") == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == 1
        assert "scenario" in data and "trajectory_csv_columns" in data

    def test_schema_config_keys_match_dataclass_fields(self, capsys, traces):
        assert run_cli("--schema") == EXIT_OK
        schemas = json.loads(capsys.readouterr().out)
        scenario = schemas["scenario"]
        for key, cls in (("weights", CostWeights), ("mpc", MpcConfig)):
            assert set(scenario[key]) == {f.name for f in dataclasses.fields(cls)}, key
        assert set(scenario) | {"schema_version"} == _SCENARIO_KEYS
        report = evaluate_trace(ExecutionTrace.load_json(traces[0])).to_dict()
        assert set(schemas["metrics_report"]) == set(report)
        assert set(schemas["metrics_report"]["config"]) == set(report["config"])

    def test_no_command_shows_help(self, capsys):
        assert run_cli() == EXIT_INVALID_INPUT

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "anticip_mpc.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "anticip-mpc" in proc.stdout

    def test_import_loads_no_test_dependencies(self):
        """scipy and the test oracles are test-only; importing them would
        add to every process's start-up time."""
        import anticip_mpc

        tests_dir = Path(__file__).resolve().parent
        src_dir = Path(anticip_mpc.__file__).resolve().parents[1]
        code = "import sys, anticip_mpc; print(sorted({m.split('.')[0] for m in sys.modules}))"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(src_dir), str(tests_dir)])),
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(ast.literal_eval(proc.stdout))
        assert "anticip_mpc" in loaded
        assert not loaded & {"scipy", "oracles"}

    def test_log_env_var_enables_debug(self, workspace):
        env = dict(os.environ, ANTICIP_MPC_LOG="DEBUG")
        proc = subprocess.run(
            [
                sys.executable, "-m", "anticip_mpc.cli", "simulate",
                "--scenario", str(workspace / "scenario.json"),
                "--out", str(workspace / "logrun"),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "replan t=" in proc.stderr
