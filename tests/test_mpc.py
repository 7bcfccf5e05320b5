import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from anticip_mpc import (
    InvalidInputError,
    MpcConfig,
    derive_nominal,
    run_mpc,
    solve,
    warm_start_shift,
)
from anticip_mpc.cli import default_reach_config, default_scenario_dict
from anticip_mpc.kinematics import default_robot_model, fk_batch, model_to_dict
from anticip_mpc.errors import read_json
import anticip_mpc.mpc as mpc_module
import anticip_mpc.solver as solver_module
from anticip_mpc.mpc import (
    ExecutionTrace,
    ReplanRecord,
    Scenario,
    build_problem,
    deep_update,
    linear_warm_start,
    load_scenario,
    scenario_from_dict,
)
from anticip_mpc.costs import CostWeights, KnotCostEvaluator
from anticip_mpc.metrics import evaluate_trace, separation_metric
from anticip_mpc.prediction import HumanPrediction, ReachConfig, prediction_to_dict, slice_horizon

from conftest import backward, eef_pose, forward
from oracles import (
    HumanJointGaussian, KnotContext, LegibilityContext, legibility_cost, slice_horizon_loop, stack_contexts,
)


def make_scenario(seed=0, **overrides) -> Scenario:
    data = default_scenario_dict(seed=seed)
    data["robot_model"] = model_to_dict(default_robot_model())
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(data.get(key), dict):
            data[key].update(val)
        else:
            data[key] = val
    return scenario_from_dict(data, Path("."))


@pytest.fixture(scope="module")
def default_trace():
    return run_mpc(make_scenario(seed=0))


class TestDeriveNominal:
    def test_degenerate_interpolation(self, seven_dof):
        q = np.full(7, 0.3)
        nominal = derive_nominal(seven_dof, q, q, 4)
        expected = eef_pose(seven_dof, q).position
        assert np.array_equal(nominal, np.tile(expected, (5, 1)))

    def test_linear_in_joint_space(self, planar_model):
        nominal = derive_nominal(planar_model, [0.0, 0.0], [np.pi / 2, 0.0], 2)
        for i, q0 in enumerate([0.0, np.pi / 4, np.pi / 2]):
            expected = eef_pose(planar_model, [q0, 0.0]).position
            np.testing.assert_allclose(nominal[i], expected, atol=1e-12)

    def test_endpoints_exact(self, seven_dof):
        rng = np.random.default_rng(0)
        start, goal = rng.uniform(-1, 1, 7), rng.uniform(-1, 1, 7)
        nominal = derive_nominal(seven_dof, start, goal, 10)
        np.testing.assert_allclose(
            nominal[0], eef_pose(seven_dof, start).position, atol=1e-14
        )
        np.testing.assert_allclose(
            nominal[-1], eef_pose(seven_dof, goal).position, atol=1e-14
        )

    def test_dimension_mismatch(self, seven_dof):
        with pytest.raises(InvalidInputError):
            derive_nominal(seven_dof, np.zeros(6), np.zeros(7), 4)


class TestWarmStartShift:
    def test_zero_shift_is_identity(self):
        controls = np.arange(8.0).reshape(4, 2)
        out = warm_start_shift(controls, 0, 4)
        assert np.array_equal(out, controls)

    def test_shift_and_pad(self):
        controls = np.array([[1.0], [2.0], [3.0], [4.0]])
        out = warm_start_shift(controls, 2, 4)
        assert np.array_equal(out, np.array([[3.0], [4.0], [4.0], [4.0]]))

    def test_shift_beyond_plan_rejected(self):
        with pytest.raises(InvalidInputError):
            warm_start_shift(np.zeros((2, 1)), 3, 4)


class TestMpcConfig:
    def test_defaults_arithmetic(self):
        cfg = MpcConfig()
        assert cfg.horizon_knots == 6
        assert cfg.replan_steps == 2
        assert cfg.task_steps == 20

    def test_misaligned_periods_rejected(self):
        with pytest.raises(InvalidInputError):
            MpcConfig(replan_period=0.4)
        with pytest.raises(InvalidInputError):
            MpcConfig(horizon=0.3)
        with pytest.raises(InvalidInputError, match="horizon must be at least the replan period"):
            MpcConfig(horizon=0.25, replan_period=0.5)

    @pytest.mark.parametrize("horizon, replan_period", [(0.49999999, 0.5), (0.5, 0.49999999)])
    def test_horizon_and_replan_period_compare_in_grid_steps(self, horizon, replan_period):
        """Both read as 2 steps of 0.25 s, so neither order is a horizon shorter than the replan period."""
        cfg = MpcConfig(horizon=horizon, replan_period=replan_period)
        assert cfg.horizon_knots - 1 == cfg.replan_steps == 2


class TestRunMpc:
    def test_replan_count_when_goal_never_met(self, monkeypatch):
        monkeypatch.setattr(mpc_module, "GOAL_POSITION_TOL", 1e-9)
        scenario = make_scenario(seed=0)
        trace = run_mpc(scenario)
        assert len(trace.replans) == int(np.ceil(5.0 / 0.5)) == 10
        assert len(trace.times) == 21
        assert not trace.goal_reached

    def test_stitching_is_exact(self, default_trace):
        trace = default_trace
        replan_steps = 2
        stitched = [trace.states[0]]
        for record in trace.replans:
            stitched.extend(record.result.states[1 : replan_steps + 1])
        stitched = np.asarray(stitched)[: len(trace.states)]
        assert np.array_equal(trace.states, stitched)

    def test_ground_truth_starting_before_zero_is_read_from_t_zero(self):
        scenario = make_scenario(seed=0)
        pred = scenario.prediction
        assert pred.t0 == 0.0 and pred.dt == scenario.mpc.dt
        early = dataclasses.replace(pred, t0=-pred.dt)  # frame k + 1 lies at t = k dt
        trace = run_mpc(dataclasses.replace(scenario, ground_truth=early))
        assert np.array_equal(trace.human_true, early.means[1 : len(trace.times) + 1])
        assert np.array_equal(trace.human_pred, pred.means[: len(trace.times)])

    def test_timestamps_strictly_increasing(self, default_trace):
        assert np.all(np.diff(default_trace.times) > 0)

    def test_timing_bookkeeping(self, default_trace):
        assert sum(default_trace.replan_wall_times()) <= default_trace.total_wall_time

    def test_zero_weights_execute_clamped_warm_start(self):
        weights = {k: 0.0 for k in ("w_dist", "w_vis", "w_leg", "w_nom", "w_smooth", "w_goal")}
        scenario = make_scenario(seed=0, weights=weights)
        trace = run_mpc(scenario)
        cfg = scenario.mpc
        u = (scenario.goal_q - scenario.start_q) / ((cfg.horizon_knots - 1) * cfg.dt)
        u = np.clip(u, scenario.model.vel_lower, scenario.model.vel_upper)
        x = scenario.start_q.copy()
        expected = [x.copy()]
        for _ in range(len(trace.states) - 1):
            x = x + u * cfg.dt
            expected.append(x.copy())
        assert np.array_equal(trace.states, np.asarray(expected))

    def test_degenerate_horizon_equals_one_shot(self):
        scenario = make_scenario(
            seed=3, mpc={"horizon": 5.0, "replan_period": 5.0, "task_duration": 5.0}
        )
        trace = run_mpc(scenario)
        problem = build_problem(scenario, 0.0, scenario.mpc.task_steps + 1, scenario.start_q)
        cfg = scenario.mpc
        warm = linear_warm_start(scenario.start_q, scenario.goal_q, cfg.task_steps, cfg.dt)
        result = solve(problem, warm)
        assert len(trace.replans) == 1
        assert np.array_equal(trace.states, result.states)
        assert np.array_equal(trace.replans[0].result.controls, result.controls)

    def test_plans_use_only_future_predictions(self):
        scenario = make_scenario(seed=1)
        t_now = 2.0
        means, covs = slice_horizon(scenario.prediction, t_now, 6, scenario.mpc.dt)

        # corrupt every prediction frame strictly before t_now and slice again
        pred = scenario.prediction
        corrupted = pred.means.copy()
        past = np.array([pred.t0 + i * pred.dt for i in range(pred.n_frames)]) < t_now - 1e-9
        corrupted[past] += 100.0
        scenario = dataclasses.replace(
            scenario,
            prediction=HumanPrediction(pred.joint_names, pred.head_index, corrupted, pred.covs, pred.dt, pred.t0),
        )
        means2, covs2 = slice_horizon(scenario.prediction, t_now, 6, scenario.mpc.dt)
        assert np.array_equal(means, means2)
        assert np.array_equal(covs, covs2)
        problem = build_problem(scenario, t_now, 6, scenario.start_q)
        assert np.array_equal(problem.cost.mu, means)

    def test_ground_truth_substitution(self):
        gt = default_scenario_dict(seed=9)["prediction"]
        gt["synthesize"]["reach_target"] = [0.9, -0.1, 0.4]
        scenario = make_scenario(seed=0, ground_truth=gt)
        trace = run_mpc(scenario)
        assert not np.array_equal(trace.human_true, trace.human_pred)

    def test_separation_metric_reads_the_trace_distances(self, default_trace):
        """Each executed distance, taken as the threshold, splits the steps as
        the trace's min_human_dist does: the two read the same distances."""
        d = default_trace.min_human_dist
        assert len(np.unique(d)) > 10
        for threshold in d:
            assert separation_metric(default_trace, threshold=threshold) == np.mean(d > threshold)

    def test_every_replan_converges_or_stalls_on_default_scenario(self, default_trace):
        """A replan that does not converge ends at a plan from which a fresh
        backward and forward pass accept no step; none reaches the
        iteration cap."""
        scenario = make_scenario(seed=0)
        for r in default_trace.replans:
            result = r.result
            assert result.max_bound_violation == 0.0
            assert result.iterations < solver_module._MAX_INNER_ITERS
            if not result.converged:
                problem = build_problem(scenario, r.t_plan, scenario.mpc.horizon_knots, result.states[0])
                gains = backward(problem, result.states, result.controls)
                assert not forward(problem, result.states, result.controls, gains, result.total_cost).accepted


class TestTraceSerialization:
    def test_json_round_trip(self, default_trace, tmp_path):
        path = tmp_path / "trace.json"
        default_trace.save_json(path)
        loaded = ExecutionTrace.load_json(path)
        np.testing.assert_array_equal(loaded.states, default_trace.states)
        np.testing.assert_array_equal(loaded.eef_positions, default_trace.eef_positions)
        np.testing.assert_array_equal(loaded.human_true, default_trace.human_true)
        assert loaded.goal_reached == default_trace.goal_reached
        assert len(loaded.replans) == len(default_trace.replans)
        np.testing.assert_array_equal(
            loaded.replans[0].result.states, default_trace.replans[0].result.states
        )

    def test_json_round_trip_keeps_replan_wall_times(self, default_trace, tmp_path):
        """The replan's wall time (slicing, assembly and solve) is the one
        saved, not the solve's own."""
        path = tmp_path / "trace.json"
        default_trace.save_json(path)
        loaded = ExecutionTrace.load_json(path)
        assert loaded.replan_wall_times() == default_trace.replan_wall_times()
        assert [r.t_plan for r in loaded.replans] == [r.t_plan for r in default_trace.replans]

    def test_csv_format(self, default_trace, tmp_path):
        path = tmp_path / "trace.csv"
        default_trace.save_csv(path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "time"
        assert header[1:8] == [f"q{i}" for i in range(7)]
        assert header[8:] == ["eef_x", "eef_y", "eef_z", "min_human_dist"]
        assert len(lines) == len(default_trace.times) + 1


class TestTraceChecks:
    """The records check their own fields when built, so a trace from run_mpc,
    from a file or from hand passes one check."""

    def test_run_mpc_trace_keeps_read_only_copies(self, default_trace):
        assert not default_trace.states.flags.writeable and not default_trace.human_true.flags.writeable
        result = default_trace.replans[0].result
        assert not result.states.flags.writeable and not result.controls.flags.writeable

    def test_replan_record_copies_the_result(self, default_trace):
        result = default_trace.replans[0].result
        result = dataclasses.replace(result, states=result.states.copy())
        record = ReplanRecord(0.0, 0.1, result)
        result.states[0] = 99.0
        assert record.result is not result and record.result.states[0, 0] != 99.0

    def test_bad_replan_field_rejected_when_built(self, default_trace):
        record = default_trace.replans[0]
        with pytest.raises(InvalidInputError, match="replan wall_time must be finite and >= 0"):
            dataclasses.replace(record, wall_time=-0.1)
        with pytest.raises(InvalidInputError, match="replan t_plan must be a finite number"):
            dataclasses.replace(record, t_plan=float("nan"))
        with pytest.raises(InvalidInputError, match="replan converged must be true or false"):
            dataclasses.replace(record, result=dataclasses.replace(record.result, converged=1))

    def test_replan_of_another_width_rejected(self, default_trace):
        result = default_trace.replans[0].result
        narrow = dataclasses.replace(result, states=result.states[:, :6], controls=result.controls[:, :6])
        replans = [*default_trace.replans, ReplanRecord(9.0, 0.1, narrow)]
        message = rf"trace replan {len(replans) - 1} states must have shape \(\*, 7\), got \(\d+, 6\)"
        with pytest.raises(InvalidInputError, match=message):
            dataclasses.replace(default_trace, replans=replans)

    def test_empty_trace_rejected(self, default_trace):
        with pytest.raises(InvalidInputError, match="trace times must hold at least one time"):
            dataclasses.replace(default_trace, times=default_trace.times[:0])


class TestJsonInput:
    def test_trace_with_non_numeric_field_rejected(self, default_trace, tmp_path):
        data = default_trace.to_dict()
        data["times"] = ["t0"] * len(data["times"])
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidInputError, match="trace .*: trace times must be a rectangular array of numbers"):
            ExecutionTrace.load_json(path)

    def test_trace_missing_key_rejected(self, default_trace, tmp_path):
        data = default_trace.to_dict()
        del data["replans"][0]["grad_inf"]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidInputError, match="grad_inf"):
            ExecutionTrace.load_json(path)

    @pytest.mark.parametrize(
        "text, message",
        [(None, "No such file"), ("{", "Expecting"), ("[1, 2]", "expected a JSON object, got list")],
        ids=["missing", "malformed", "list"],
    )
    def test_read_json_rejects(self, tmp_path, text, message):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(InvalidInputError, match=f"config .*{message}"):
            read_json(path, "config")


class TestScenarioLoading:
    def test_overlay_deep_merges(self, tmp_path):
        data = default_scenario_dict(seed=0)
        data["robot_model"] = model_to_dict(default_robot_model())
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        overlay = tmp_path / "overlay.json"
        overlay.write_text(json.dumps({"mpc": {"horizon": 2.0}, "prediction": {"synthesize": {"seed": 4}}, "seed": 4}))
        scenario = load_scenario(path, overlay)
        assert scenario.mpc.horizon == 2.0
        assert scenario.mpc.replan_period == data["mpc"]["replan_period"]  # sibling keys kept
        assert scenario.synthesis.seed == 4 and scenario.seed == 4
        assert scenario.synthesis.jitter == data["prediction"]["synthesize"]["jitter"]
        assert load_scenario(path).mpc.horizon == data["mpc"]["horizon"]

    @pytest.mark.parametrize("seed, duration, dt", [(0, 6.25, 0.25), (7, 3.25, 0.1)])
    def test_default_reach_config_is_the_reach_config_defaults(self, seed, duration, dt):
        assert default_reach_config(seed, duration, dt) == ReachConfig(seed=seed, duration=duration, dt=dt).to_dict()

    def test_synthesize_keys_left_out_take_the_generated_values(self):
        """A synthesize block holding only seed, duration and dt is the human gen-scenario writes."""
        full = make_scenario(seed=3)
        block = {"seed": 3, "duration": full.synthesis.duration, "dt": full.synthesis.dt}
        short = make_scenario(seed=3, prediction={"synthesize": block})
        assert np.array_equal(short.prediction.means, full.prediction.means)
        assert np.array_equal(short.prediction.covs, full.prediction.covs)

    def test_deep_update_replaces_non_objects(self):
        base = {"a": {"b": 1, "c": [1, 2]}, "d": 5}
        merged = deep_update(base, {"a": {"c": [3]}, "d": {"e": 1}})
        assert merged == {"a": {"b": 1, "c": [3]}, "d": {"e": 1}}
        assert base == {"a": {"b": 1, "c": [1, 2]}, "d": 5}  # inputs untouched

    @pytest.mark.parametrize("overlay", [[{"seed": 3}], "seed", None], ids=["list", "string", "missing"])
    def test_bad_overlay_rejected(self, tmp_path, overlay):
        data = default_scenario_dict(seed=0)
        data["robot_model"] = model_to_dict(default_robot_model())
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        config = tmp_path / "overlay.json"
        if overlay is not None:
            config.write_text(json.dumps(overlay))
        with pytest.raises(InvalidInputError, match="config"):
            load_scenario(path, config)

    def test_missing_key_rejected(self, tmp_path):
        data = default_scenario_dict(seed=0)
        data["robot_model"] = model_to_dict(default_robot_model())
        del data["start_q"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidInputError):
            load_scenario(path)

    def test_relative_paths_resolve(self, tmp_path):
        from anticip_mpc.kinematics import save_robot_model

        save_robot_model(default_robot_model(), tmp_path / "robot.json")
        data = default_scenario_dict(seed=0)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        scenario = load_scenario(path)
        assert scenario.model.n_joints == 7

    def test_short_nominal_rejected(self):
        with pytest.raises(InvalidInputError):
            make_scenario(seed=0, nominal=[[0.0, 0.0, 0.0]] * 5)

    def test_legibility_and_nominal_path_resolve_from_the_scenario(self):
        scenario = make_scenario(seed=0)
        start = eef_pose(scenario.model, scenario.start_q).position
        task = scenario.task
        assert np.array_equal(task.leg_start, start)
        assert np.array_equal(task.goals, scenario.legibility_goals)
        assert task.goal_index == scenario.legibility_goal_index
        assert np.array_equal(task.gaze, scenario.gaze_object)
        assert task.model is scenario.model and task.weights is scenario.weights
        assert task.head_index == scenario.prediction.head_index
        assert scenario.task is task  # resolved once
        derived = derive_nominal(scenario.model, scenario.start_q, scenario.goal_q, scenario.mpc.task_steps)
        assert np.array_equal(scenario.nominal_path, derived)
        assert scenario.nominal_path is scenario.nominal_path  # resolved once

        explicit = make_scenario(seed=0, nominal=(derived + 0.01).tolist())
        assert np.array_equal(explicit.nominal_path, derived + 0.01)

        longer = dataclasses.replace(scenario, mpc=dataclasses.replace(scenario.mpc, task_duration=6.0))
        assert len(scenario.nominal_path) == 21 and len(longer.nominal_path) == 25
        moved = dataclasses.replace(scenario, start_q=scenario.start_q + 0.1)
        moved_start = eef_pose(scenario.model, moved.start_q).position
        assert np.array_equal(moved.task.leg_start, moved_start)
        assert not np.array_equal(moved.task.leg_start, start)

    def test_scenario_is_frozen_with_read_only_copies(self):
        """The resolved task cannot go stale: nothing it was resolved
        from can be changed in place or reassigned."""
        path = derive_nominal(default_robot_model(), np.zeros(7), np.ones(7), 20)
        scenario = dataclasses.replace(make_scenario(seed=0), nominal=path)
        start = scenario.task.leg_start.copy()
        with pytest.raises(ValueError):
            scenario.start_q[0] += 0.3
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.start_q = scenario.start_q + 0.3
        for name in ("start_q", "goal_q", "gaze_object", "legibility_goals", "nominal"):
            assert not getattr(scenario, name).flags.writeable, name
        path[0] += 1.0  # the caller's array is copied, not shared
        assert not np.array_equal(scenario.nominal[0], path[0])
        assert np.array_equal(scenario.task.leg_start, start)

    def test_scenario_compares_by_identity(self):
        a, b = make_scenario(seed=0), make_scenario(seed=0)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_replaced_goal_index_moves_the_legibility_term(self):
        """A scenario given another true goal by dataclasses.replace resolves a
        task with that goal, and its evaluator's legibility term scores it."""
        scenario = dataclasses.replace(make_scenario(seed=0), weights=CostWeights(w_leg=1.0))
        moved = dataclasses.replace(scenario, legibility_goal_index=1)
        assert scenario.task.goal_index == 0 and moved.task.goal_index == 1
        n_knots = scenario.mpc.horizon_knots
        xs = scenario.start_q + np.random.default_rng(5).uniform(-0.5, 0.5, (n_knots, 7))
        eefs = fk_batch(scenario.model, xs).positions[:, -1]
        values = []
        for s in (scenario, moved):
            task = s.task
            legibility = LegibilityContext(task.leg_start, task.goals, task.goal_index)
            expected = sum(legibility_cost(eef, legibility) for eef in eefs)
            values.append(build_problem(s, 0.0, n_knots, s.start_q).cost.value(xs))
            assert np.isclose(values[-1], expected, rtol=1e-12)
        # two candidate goals: per knot, the two choices' terms add to one
        assert abs(values[0] - values[1]) > 0.01 and np.isclose(values[0] + values[1], n_knots, rtol=1e-12)

    def test_legibility_goals_must_be_3_vectors(self):
        with pytest.raises(InvalidInputError, match="scenario legibility.goals must be a list of 3-vectors"):
            make_scenario(seed=0, legibility={"goals": [[0.6, -0.5]], "goal_index": 0})

    def test_inline_prediction_object_loads(self):
        synthesized = make_scenario(seed=2)
        data = default_scenario_dict(seed=2)
        data["robot_model"] = model_to_dict(default_robot_model())
        data["prediction"] = prediction_to_dict(synthesized.prediction)
        scenario = scenario_from_dict(data, Path("."))
        assert scenario.synthesis is None
        assert np.array_equal(scenario.prediction.means, synthesized.prediction.means)
        assert np.array_equal(scenario.prediction.covs, synthesized.prediction.covs)

    @pytest.mark.parametrize("key", ["prediction", "ground_truth"])
    def test_human_source_starting_after_zero_rejected(self, key):
        scenario = make_scenario(seed=0)
        late = dataclasses.replace(scenario.prediction, t0=0.5)
        with pytest.raises(InvalidInputError, match=f"scenario {key} must start at or before t = 0, got t0=0.5"):
            dataclasses.replace(scenario, **{key: late})
        # slice_horizon's tolerance of 1e-9 grid steps lets a start just past zero through
        dataclasses.replace(scenario, **{key: dataclasses.replace(late, t0=0.5e-9 * late.dt)})

    def test_explicit_goal_pose(self):
        scenario = make_scenario(
            seed=0,
            goal_pose={"position": [0.5, -0.4, 0.3], "orientation": [1.0, 0.0, 0.0, 0.0]},
        )
        np.testing.assert_allclose(scenario.task.goal.position, [0.5, -0.4, 0.3])
        # an explicit goal pose does not follow goal_q
        moved = dataclasses.replace(scenario, goal_q=scenario.start_q)
        assert moved.task.goal is scenario.goal_pose

    def test_derived_goal_pose_resolves_on_first_use(self, monkeypatch):
        """Like the nominal path, the derived goal pose costs no FK call at load."""
        monkeypatch.setattr(mpc_module, "fk_batch", lambda *args: pytest.fail("FK while loading"))
        scenario = make_scenario(seed=3)
        monkeypatch.undo()
        expected = eef_pose(scenario.model, scenario.goal_q)
        assert np.array_equal(scenario.task.goal.position, expected.position)
        assert np.array_equal(scenario.task.goal.orientation, expected.orientation)
        assert scenario.task is scenario.task  # resolved once

    def test_replaced_goal_q_derives_its_goal_pose(self):
        """A scenario given another goal_q by dataclasses.replace derives the
        goal pose at FK(goal_q), not the old one."""
        scenario = make_scenario(seed=3)
        g = scenario.goal_q + np.array([0.0, -0.3, 0.5, 0.2, 0.0, 0.1, 0.4])
        moved = dataclasses.replace(scenario, goal_q=g)
        expected = eef_pose(scenario.model, g)
        assert np.array_equal(moved.task.goal.position, expected.position)
        assert np.array_equal(moved.task.goal.orientation, expected.orientation)
        assert np.linalg.norm(moved.task.goal.position - scenario.task.goal.position) > 0.1


def seventeen_joint_scenario(seed=0) -> Scenario:
    """A 17-joint skeleton on a 0.1 s grid that ends at 5 s, so late horizons
    hold its last frame."""
    reach = default_scenario_dict(seed=seed)["prediction"]["synthesize"]
    reach.update(
        joint_names=[f"j{i}" for i in range(17)],
        head_index=10,
        rest_positions=[[1.05 + 0.01 * i, -0.3 + 0.6 * i / 16, 0.05 + 0.03 * i] for i in range(17)],
        reach_joint=16,
        reach_target=[0.78, 0.2, 0.33],
        duration=5.0,
        dt=0.1,
    )
    return make_scenario(seed=seed, prediction={"synthesize": reach})


def knot_context_problem_cost(scenario, t_start, n_knots):
    """The evaluator built through per-knot KnotContexts, with human frames
    from the per-joint slicing reference."""
    cfg = scenario.mpc
    nominal = scenario.nominal_path
    means, covs = slice_horizon_loop(scenario.prediction, t_start, n_knots, cfg.dt)
    contexts = []
    for i in range(n_knots):
        t = t_start + i * cfg.dt
        contexts.append(
            KnotContext(
                human_frame=tuple(HumanJointGaussian(m, c) for m, c in zip(means[i], covs[i])),
                nominal=nominal[min(int(round(t / cfg.dt)), len(nominal) - 1)],
                task=scenario.task,
                t=t,
            )
        )
    return KnotCostEvaluator(*stack_contexts(contexts))


def test_object_at_head_is_rejected_before_the_solve(monkeypatch):
    scenario = make_scenario(seed=4)
    cfg = scenario.mpc
    means, _ = slice_horizon(scenario.prediction, 0.0, cfg.horizon_knots, cfg.dt)
    scenario = dataclasses.replace(scenario, gaze_object=means[2, scenario.prediction.head_index])
    assert scenario.weights.w_vis > 0
    with pytest.raises(InvalidInputError, match="gazed object coincides with the head"):
        build_problem(scenario, 0.0, cfg.horizon_knots, scenario.start_q)
    monkeypatch.setattr(mpc_module, "solve", lambda *args, **kwargs: pytest.fail("a solve started"))
    with pytest.raises(InvalidInputError, match="gazed object coincides with the head"):
        run_mpc(scenario)


@pytest.mark.parametrize("joint, frame", [("head", 7), ("torso", 4)])
def test_zero_separation_solves_with_finite_costs(joint, frame):
    """A predicted joint exactly on a tracked frame of start_q, the end effector (frame 7) for
    the head: the first knot sits at zero separation, and zero gaze-ray length for the head."""
    scenario = make_scenario(seed=0)
    pred = scenario.prediction
    means = pred.means.copy()
    means[:, pred.joint_names.index(joint)] = fk_batch(scenario.model, scenario.start_q[None]).positions[0, frame]
    pred = HumanPrediction(pred.joint_names, pred.head_index, means, pred.covs, pred.dt, pred.t0)
    scenario = dataclasses.replace(scenario, prediction=pred)
    assert frame in scenario.model.tracked_frames and scenario.weights.w_vis > 0
    cfg = scenario.mpc
    problem = build_problem(scenario, 0.0, cfg.horizon_knots, scenario.start_q)
    result = solve(problem, linear_warm_start(scenario.start_q, scenario.goal_q, cfg.horizon_knots - 1, cfg.dt))
    assert np.isfinite(result.total_cost) and np.array_equal(result.states[0], scenario.start_q)
    for xs in (result.states, np.tile(scenario.start_q, (cfg.horizon_knots, 1))):
        assert np.isfinite(problem.cost.value(xs, result.controls))
        gx, hxx = problem.cost.state_derivatives(xs)
        assert np.isfinite(gx).all() and np.isfinite(hxx).all()


def test_end_effector_at_the_predicted_head_plans_and_evaluates():
    """The head case above, run through the loop and scored: the first trace
    point's end effector sits at the head, a zero gaze ray outside the cone."""
    scenario = make_scenario(seed=0)
    pred = scenario.prediction
    means = pred.means.copy()
    means[:, pred.head_index] = fk_batch(scenario.model, scenario.start_q[None]).positions[0, 7]
    trace = run_mpc(dataclasses.replace(scenario, prediction=dataclasses.replace(pred, means=means)))
    assert np.array_equal(trace.eef_positions[0], trace.human_true[0, pred.head_index])
    report = evaluate_trace(trace)
    assert 0.0 <= report.vis < 1.0


def test_goal_at_start_stops_after_one_replan():
    """With goal_q at start_q (goal pose derived), the first executed steps already meet the
    goal, so the loop exits early and the shortened trace still round-trips."""
    scenario = make_scenario(seed=7, goal_q=default_scenario_dict()["start_q"])
    trace = run_mpc(scenario)
    assert trace.goal_reached and len(trace.replans) == 1
    assert len(trace.times) == len(trace.states) == scenario.mpc.replan_steps + 1
    loaded = ExecutionTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
    assert loaded.goal_reached and len(loaded.replans) == 1
    assert loaded.to_dict() == trace.to_dict()


@pytest.mark.parametrize("which", ["reference", "seventeen_joints"])
def test_build_problem_matches_knot_context_route(which):
    scenario = make_scenario(seed=4) if which == "reference" else seventeen_joint_scenario(seed=4)
    rng = np.random.default_rng(4)
    n_knots = scenario.mpc.horizon_knots
    for t_start in (0.0, 1.5, 4.5):
        got = build_problem(scenario, t_start, n_knots, scenario.start_q).cost
        ref = knot_context_problem_cost(scenario, t_start, n_knots)
        for name in ("mu", "cov_inv", "sigma_head", "nominal", "gaze_hat"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert got.task is ref.task is scenario.task
        xs = scenario.start_q + rng.uniform(-0.3, 0.3, (11, n_knots, 7))
        us = rng.uniform(-0.5, 0.5, (11, n_knots - 1, 7))
        assert np.array_equal(got.value(xs, us), ref.value(xs, us))
        for a, b in zip(got.state_derivatives(xs[0]), ref.state_derivatives(xs[0])):
            assert np.array_equal(a, b)
    assert got.mu.shape[1] == (5 if which == "reference" else 17)


def test_every_replan_shares_the_scenario_task(monkeypatch):
    """The task is built once per scenario: every replan's evaluator reads the same object."""
    scenario = make_scenario(seed=2)
    n_knots = scenario.mpc.horizon_knots
    first = build_problem(scenario, 0.0, n_knots, scenario.start_q).cost
    assert first.task is build_problem(scenario, 0.5, n_knots, scenario.start_q).cost.task is scenario.task

    tasks = []
    build = mpc_module.build_problem

    def recording(*args):
        problem = build(*args)
        tasks.append(problem.cost.task)
        return problem

    monkeypatch.setattr(mpc_module, "build_problem", recording)
    trace = run_mpc(scenario)
    assert len(tasks) == len(trace.replans) > 1
    assert all(task is scenario.task for task in tasks)
