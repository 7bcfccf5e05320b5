"""The input boundary: the field checks in ``anticip_mpc.errors``, the
exported functions' argument checks, a mutation test over every loader, and
one through the command line."""

import copy
import json
import tempfile
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from anticip_mpc.cli import EXIT_INVALID_INPUT, EXIT_OK, default_reach_config, default_scenario_dict, main
from anticip_mpc.costs import CostTask, CostWeights, GoalSpec, KnotCostEvaluator
from anticip_mpc.errors import Fields, InvalidInputError, boolean, float_array, integer, number, store
from anticip_mpc.kinematics import default_robot_model, model_from_dict, model_to_dict
from anticip_mpc.metrics import evaluate_trace, separation_metric, visibility_metric
from anticip_mpc.mpc import (
    ExecutionTrace, MpcConfig, Scenario, derive_nominal, run_mpc, scenario_from_dict, warm_start_shift,
)
from anticip_mpc.prediction import (
    ReachConfig, prediction_from_dict, prediction_to_dict, slice_horizon, synthesize_reach,
)
from anticip_mpc.solver import BackwardPassResult, TrajectoryProblem, forward_pass, rollout, solve


class TestNumber:
    @pytest.mark.parametrize("value", [0, 2, 0.25, -3.5, np.float64(1.5), np.int64(4)])
    def test_accepts_finite_reals_as_floats(self, value):
        out = number(value, "x")
        assert out == value and type(out) is float

    @pytest.mark.parametrize(
        "value",
        [True, False, "0.25", "x", None, float("nan"), float("inf"), -float("inf"), [1.0], 10**400],
        ids=["true", "false", "numeric_string", "string", "none", "nan", "inf", "-inf", "list", "huge_int"],
    )
    def test_rejects_non_numbers_naming_the_field(self, value):
        with pytest.raises(InvalidInputError, match="w_dist must be a finite number"):
            number(value, "w_dist")

    def test_bounds(self):
        assert number(0, "x", 0) == 0.0
        with pytest.raises(InvalidInputError, match="x must be finite and >= 0, got -1"):
            number(-1, "x", 0)
        with pytest.raises(InvalidInputError, match="x must be positive and finite, got 0"):
            number(0, "x", 0, strict=True)
        with pytest.raises(InvalidInputError, match="x must be finite and >= 1, got 0.5"):
            number(0.5, "x", 1)
        with pytest.raises(InvalidInputError, match="x must be positive and finite, got nan"):
            number(float("nan"), "x", 0, strict=True)


class TestInteger:
    @pytest.mark.parametrize("value", [0, 7, -2, np.int64(3)])
    def test_accepts_integers_as_ints(self, value):
        out = integer(value, "seed")
        assert out == value and type(out) is int

    @pytest.mark.parametrize(
        "value",
        [True, 1.5, 3.0, "3", None, float("nan"), float("inf"), [1]],
        ids=["bool", "fractional", "integral_float", "string", "none", "nan", "inf", "list"],
    )
    def test_rejects_non_integers_naming_the_field(self, value):
        with pytest.raises(InvalidInputError, match="seed must be an integer"):
            integer(value, "seed")

    def test_bounds(self):
        assert integer(0, "i", 0, 4) == 0 and integer(4, "i", 0, 4) == 4
        with pytest.raises(InvalidInputError, match=r"i must be an integer in \[0, 4\], got 5"):
            integer(5, "i", 0, 4)
        with pytest.raises(InvalidInputError, match="i must be an integer >= 1, got 0"):
            integer(0, "i", 1)


class TestFloatArray:
    def test_accepts_numbers_of_the_shape(self):
        out = float_array([[1, 2.5, 3]], "a", (1, 3))
        assert out.dtype == float and out.tolist() == [[1.0, 2.5, 3.0]]
        assert float_array([], "a").shape == (0,)

    def test_keeps_float_arrays_without_copying(self):
        arr = np.zeros(3)
        assert float_array(arr, "a", (3,)) is arr

    @pytest.mark.parametrize(
        "value, message",
        [
            ([True, False, True], "a must be a rectangular array of numbers"),
            ([True, 1.0, 2.0], "a must be a rectangular array of numbers"),
            ([[1.0, 2.0, False]], "a must be a rectangular array of numbers"),
            ("abc", "a must be a rectangular array of numbers"),
            (["1", "2", "3"], "a must be a rectangular array of numbers"),
            ([1.0, None, 2.0], "a must be a rectangular array of numbers"),
            ([[1.0, 2.0], [3.0]], "a must be a rectangular array of numbers"),
            ([1.0, float("nan"), 2.0], "a must be finite"),
            ([1.0, 2.0, float("inf")], "a must be finite"),
            ([1.0, 2.0], r"a must have shape \(3,\), got \(2,\)"),
            ([[1.0, 2.0, 3.0]], r"a must have shape \(3,\), got \(1, 3\)"),
            (1.5, r"a must have shape \(3,\), got \(\)"),
        ],
        ids=["bools", "bool_among_numbers", "nested_bool", "string", "strings", "none_entry", "ragged", "nan", "inf", "short", "nested", "scalar"],
    )
    def test_rejects(self, value, message):
        with pytest.raises(InvalidInputError, match=message):
            float_array(value, "a", (3,))

    def test_none_in_shape_allows_any_size_on_that_axis(self):
        assert float_array([[1, 2, 3], [4, 5, 6]], "a", (None, 3)).shape == (2, 3)
        assert float_array([[1, 2]], "a", (1, None)).shape == (1, 2)
        with pytest.raises(InvalidInputError, match=r"a must have shape \(\*, 3\), got \(2, 2\)"):
            float_array([[1, 2], [3, 4]], "a", (None, 3))
        with pytest.raises(InvalidInputError, match=r"a must have shape \(\*,\), got \(1, 3\)"):
            float_array([[1, 2, 3]], "a", (None,))


class TestBoolean:
    def test_accepts_bools(self):
        assert boolean(True, "b") is True and boolean(False, "b") is False

    @pytest.mark.parametrize("value", [1, 0, "yes", "true", None, 1.0, [True]])
    def test_rejects_everything_else_naming_the_field(self, value):
        with pytest.raises(InvalidInputError, match="converged must be true or false"):
            boolean(value, "converged")


@dataclass(frozen=True)
class Gains(Fields):
    section = "gains"

    kp: float = 1.0
    steps: int = 2

    def __post_init__(self):
        self._check("kp", number, 0, strict=True)
        self._check("steps", integer, 1)


class TestFields:
    def test_round_trip_and_conversion(self):
        gains = Gains.from_dict({"kp": 3})
        assert gains.kp == 3.0 and type(gains.kp) is float
        assert Gains.from_dict(gains.to_dict()) == gains
        assert Gains().to_dict() == {"kp": 1.0, "steps": 2}

    def test_arrays_and_tuples_serialize_as_lists(self):
        data = ReachConfig().to_dict()
        assert data["joint_names"] == list(ReachConfig().joint_names)
        assert data["rest_positions"] == ReachConfig().rest_positions.tolist()
        np.testing.assert_array_equal(ReachConfig.from_dict(data).rest_positions, ReachConfig().rest_positions)

    def test_checked_arrays_are_read_only_copies(self):
        rest = np.array([[1.1, 0.0, 0.55]])
        config = ReachConfig(joint_names=("head",), reach_joint=0, rest_positions=rest)
        rest[0, 0] = 0.0
        assert rest.flags.writeable
        assert config.rest_positions[0, 0] == 1.1 and not config.rest_positions.flags.writeable
        assert not config.reach_target.flags.writeable

    def test_store_sets_frozen_fields_and_copies_only_arrays(self):
        gains, names, arr = Gains(), ("a", "b"), np.ones(2)
        store(gains, kp=arr, steps=names)
        arr[0] = 0.0
        assert gains.steps is names and gains.kp is not arr
        assert np.array_equal(gains.kp, [1.0, 1.0]) and not gains.kp.flags.writeable

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1, 2], "gains config must be an object"),
            ({"kd": 1.0}, r"unknown gains config keys: \['kd'\]"),
            ({"kp": 0}, "gains kp must be positive and finite"),
            ({"steps": 1.5}, "gains steps must be an integer >= 1"),
        ],
    )
    def test_rejects(self, data, message):
        with pytest.raises(InvalidInputError, match=message):
            Gains.from_dict(data)


# ---------------------------------------------------------------------------
# the exported functions' numeric arguments


_PREDICTION = synthesize_reach(ReachConfig())
_CONTROLS = np.zeros((3, 2))
_MODEL = default_robot_model()
_Q = np.zeros(_MODEL.n_joints)


def _problem(n_knots, dt, x0=(0.0, 0.0)):
    return TrajectoryProblem(n_knots, dt, x0, None, -np.ones(2), np.ones(2))


_MEANS, _COVS = slice_horizon(_PREDICTION, 0.0, 3, 0.25)  # (3, H, 3), (3, H, 3, 3)
_TASK = CostTask(
    _MODEL, CostWeights(w_dist=1.0), np.full(3, 2.0), np.zeros(3), np.ones((1, 3)), 0,
    GoalSpec(np.zeros(3), [1.0, 0.0, 0.0, 0.0]), head_index=0,
)


def _evaluator(means=_MEANS, covs=_COVS, nominal=np.zeros((3, 3)), head_index=0):
    return KnotCostEvaluator(replace(_TASK, head_index=head_index), means, covs, nominal)


_MEANS_HOLDING_TRUE = _PREDICTION.means.tolist()
_MEANS_HOLDING_TRUE[0][0][0] = True


def _planning_problem():
    """The evaluator's 3-knot horizon as a problem over the robot's joints."""
    return TrajectoryProblem(3, 0.25, _Q, _evaluator(), _MODEL.vel_lower, _MODEL.vel_upper)


def _forward_pass(states_rows=3, control_width=None, gain_knots=2, incumbent_cost=1.0):
    """forward_pass on _planning_problem from zero controls with zero gains, each shape as given."""
    n = _MODEL.n_joints
    problem = _planning_problem()
    states = rollout(problem, np.zeros((2, n)))[:states_rows]
    gains = BackwardPassResult(np.zeros((gain_knots, n)), np.zeros((gain_knots, n, n)), 1.0, 1.0)
    return forward_pass(problem, states, np.zeros((2, control_width or n)), gains, incumbent_cost)


# one replan at the robot's zero pose, which is also its goal
_TRACE = run_mpc(Scenario(
    _MODEL, _Q, _Q, np.full(3, 2.0), np.ones((1, 3)), 0, CostWeights(), MpcConfig(task_duration=0.5), _PREDICTION,
))


# (the argument the error names, the call)
BAD_ARGUMENTS = {
    "slice_horizon-nan_t_start": ("t_start", lambda: slice_horizon(_PREDICTION, float("nan"), 3, 0.25)),
    "slice_horizon-inf_t_start": ("t_start", lambda: slice_horizon(_PREDICTION, float("inf"), 3, 0.25)),
    "slice_horizon-fractional_n_knots": ("n_knots", lambda: slice_horizon(_PREDICTION, 0.0, 2.5, 0.25)),
    "slice_horizon-nan_n_knots": ("n_knots", lambda: slice_horizon(_PREDICTION, 0.0, float("nan"), 0.25)),
    "problem-fractional_n_knots": ("n_knots", lambda: _problem(2.5, 0.25)),
    "problem-inf_dt": ("dt", lambda: _problem(3, float("inf"))),
    "problem-nan_x0": ("x0", lambda: _problem(3, 0.25, [0.0, float("nan")])),
    "problem-inf_x0": ("x0", lambda: _problem(3, 0.25, [float("inf"), 0.0])),
    "derive_nominal-negative_n_steps": ("n_steps", lambda: derive_nominal(_MODEL, _Q, _Q, -3)),
    "derive_nominal-fractional_n_steps": ("n_steps", lambda: derive_nominal(_MODEL, _Q, _Q, 2.5)),
    "derive_nominal-bool_n_steps": ("n_steps", lambda: derive_nominal(_MODEL, _Q, _Q, True)),
    "warm_start_shift-fractional_steps": ("steps_executed", lambda: warm_start_shift(_CONTROLS, 2.5, 4)),
    "warm_start_shift-fractional_n_controls": ("n_controls", lambda: warm_start_shift(_CONTROLS, 1, 2.5)),
    "warm_start_shift-empty_plan": ("controls", lambda: warm_start_shift(np.zeros((0, 2)), 0, 4)),
    "evaluator-head_index_past_the_joints": ("head_index", lambda: _evaluator(head_index=_MEANS.shape[1])),
    "evaluator-short_nominal": ("nominal", lambda: _evaluator(nominal=np.zeros((2, 3)))),
    "evaluator-non_square_covs": ("covs", lambda: _evaluator(covs=_COVS[..., :2])),
    "evaluator-planar_means": ("means", lambda: _evaluator(means=_MEANS[..., :2])),
    "evaluator-no_knots": ("means", lambda: _evaluator(means=_MEANS[:0], covs=_COVS[:0], nominal=np.zeros((0, 3)))),
    # a bool is an int, so each of these would otherwise read True as 1.0
    "float_array-true_in_a_tuple": ("x", lambda: float_array((True, 0.0, 0.0), "x")),
    "float_array-true_in_a_tuple_row": ("x", lambda: float_array([(1.0, True, 0.0)], "x")),
    "robot-true_in_base_position": ("robot base_pose.position", lambda: replace(_MODEL, base_position=(True, 0.0, 0.0))),
    "prediction-bool_means": ("prediction means", lambda: replace(_PREDICTION, means=_PREDICTION.means > 0.0)),
    "prediction-true_in_a_means_tuple": ("prediction means", lambda: replace(_PREDICTION, means=tuple(_MEANS_HOLDING_TRUE))),
    "problem-true_in_x0": ("x0", lambda: TrajectoryProblem(3, 0.25, (True, 0.0), None, (-1.0, -1.0), (1.0, 1.0))),
    "problem-false_in_u_lower": ("u_lower", lambda: TrajectoryProblem(3, 0.25, (1.0, 0.0), None, (-1.0, False), (1.0, 1.0))),
    "problem-true_in_u_upper": ("u_upper", lambda: TrajectoryProblem(3, 0.25, (1.0, 0.0), None, (-1.0, -1.0), (1.0, True))),
    "warm_start_shift-bool_controls": ("controls", lambda: warm_start_shift(np.array([[True, False]]), 0, 2)),
    "derive_nominal-true_start_q": ("start_q", lambda: derive_nominal(_MODEL, [True] * _MODEL.n_joints, _Q, 4)),
    "derive_nominal-bool_goal_q": ("goal_q", lambda: derive_nominal(_MODEL, _Q, _Q > 0.0, 4)),
    "evaluator-bool_means": ("means", lambda: _evaluator(means=_MEANS > 0.0)),
    "evaluator-bool_covs": ("covs", lambda: _evaluator(covs=_COVS > 0.0)),
    "evaluator-bool_nominal": ("nominal", lambda: _evaluator(nominal=np.zeros((3, 3), dtype=bool))),
    "solve-bool_warm_start": ("initial controls", lambda: solve(_planning_problem(), np.zeros((2, _MODEL.n_joints), dtype=bool))),
    "rollout-true_controls": ("controls", lambda: rollout(_planning_problem(), [[True] * _MODEL.n_joints] * 2)),
    "forward_pass-short_states": ("states", lambda: _forward_pass(states_rows=2)),
    "forward_pass-wide_controls": ("controls", lambda: _forward_pass(control_width=_MODEL.n_joints + 1)),
    "forward_pass-gains_of_another_horizon": ("gains.k", lambda: _forward_pass(gain_knots=3)),
    "forward_pass-nan_incumbent_cost": ("incumbent_cost", lambda: _forward_pass(incumbent_cost=float("nan"))),
    "separation_metric-nan_threshold": ("threshold", lambda: separation_metric(_TRACE, float("nan"))),
    "separation_metric-inf_threshold": ("threshold", lambda: separation_metric(_TRACE, float("inf"))),
    "separation_metric-true_threshold": ("threshold", lambda: separation_metric(_TRACE, True)),
    "separation_metric-zero_threshold": ("threshold", lambda: separation_metric(_TRACE, 0.0)),
    "separation_metric-negative_threshold": ("threshold", lambda: separation_metric(_TRACE, -1.0)),
    "separation_metric-bogus_against": ("against", lambda: separation_metric(_TRACE, against="bogus")),
    "visibility_metric-nan_fov": ("fov_half_angle", lambda: visibility_metric(_TRACE, float("nan"))),
    "visibility_metric-true_fov": ("fov_half_angle", lambda: visibility_metric(_TRACE, True)),
    "visibility_metric-zero_fov": ("fov_half_angle", lambda: visibility_metric(_TRACE, 0.0)),
    "visibility_metric-fov_past_pi": ("fov_half_angle", lambda: visibility_metric(_TRACE, 3.2)),
    "visibility_metric-bogus_against": ("against", lambda: visibility_metric(_TRACE, against="bogus")),
    "visibility_metric-array_against": ("against", lambda: visibility_metric(_TRACE, against=np.array(["truth"] * 2))),
}


@pytest.mark.parametrize("name, call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_exported_function_rejects_bad_numeric_argument(name, call):
    """A NaN or infinite time or start state, a fractional, negative or
    boolean count, a bool among an array's numbers or a bool array at any
    exported entry point, an empty plan, a horizon
    array of the wrong shape, a head index past the predicted joints, or a
    metric's threshold, cone or `against` outside its range raises
    InvalidInputError naming the argument, before any arithmetic warns or
    fails on it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=f"^{name} must be"):
            call()


def test_forward_pass_runs_on_the_valid_arguments():
    """The arguments the forward_pass cases above each break in one shape or value."""
    assert _forward_pass().step_length == 1.0


def test_evaluator_builds_from_the_valid_horizon():
    """The horizon the evaluator cases above each break in one argument."""
    assert _evaluator(head_index=_MEANS.shape[1] - 1).value(np.zeros((3, _MODEL.n_joints))) > 0.0


def test_metrics_score_the_valid_trace():
    """The trace the metric cases above each score with one bad argument, at the ranges' edges."""
    report = evaluate_trace(_TRACE, threshold=1e-9, fov_half_angle=np.pi, against="predicted")
    assert report.dst == 1.0 and report.vis == 1.0


def test_problem_accepts_infinite_control_bounds():
    problem = TrajectoryProblem(3, 0.25, np.zeros(2), None, np.full(2, -np.inf), np.full(2, np.inf))
    assert np.array_equal(problem.u_upper, [np.inf, np.inf])


# ---------------------------------------------------------------------------
# mutation test: one field of a valid input replaced by a malformed value


def _scenario_dict() -> dict:
    data = default_scenario_dict(seed=0, duration=2.0)
    data["robot_model"] = model_to_dict(default_robot_model())
    return data


def _prediction_dict() -> dict:
    return prediction_to_dict(synthesize_reach(ReachConfig.from_dict(default_reach_config(0, 1.0, 0.25))))


_MISSING_DIR = Path(__file__).resolve().parent / "no_such_dir"  # relative file references resolve to nothing


def _trace_dict() -> dict:
    return run_mpc(scenario_from_dict(_scenario_dict(), _MISSING_DIR)).to_dict()


def _evaluate_trace_file(data: dict) -> None:
    """What `eval` runs on a trace: load the JSON file, then score it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.json"
        path.write_text(json.dumps(data))  # NaN and inf as JSON extension tokens
        evaluate_trace(ExecutionTrace.load_json(path))


LOADERS = {
    "scenario": (_scenario_dict(), lambda data: scenario_from_dict(data, _MISSING_DIR)),
    "robot": (model_to_dict(default_robot_model()), model_from_dict),
    "prediction": (_prediction_dict(), prediction_from_dict),
    "synthesis": (default_reach_config(0, 2.0, 0.25), lambda data: synthesize_reach(ReachConfig.from_dict(data))),
    "trace": (_trace_dict(), _evaluate_trace_file),
}

MALFORMED = [
    "x", "1", True, False, None, float("nan"), float("inf"), -float("inf"),
    -1, -2.5, 0.5, 1.5, [], [0.0, 1.0], [[1.0, 2.0]],
]

# top-level keys no scenario holds: retired sections and misspellings
UNKNOWN_SCENARIO_KEYS = ["solver", "mcp", "solvr", "wieghts", "goal_position_tol"]


def _replace_one_node(draw, data, values) -> None:
    """Replace one node of `data`, possibly nested, by a value drawn from `values`."""
    node = data
    key = draw(st.sampled_from(list(node)))
    while isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
        node = node[key]
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    node[key] = draw(st.sampled_from(values))


@st.composite
def mutated_input(draw):
    """A loader name, its valid input with one field, possibly nested,
    replaced by a malformed value, and whether loading must fail: a scenario
    may instead gain an unknown top-level key, which is always rejected."""
    name = draw(st.sampled_from(sorted(LOADERS)))
    data = copy.deepcopy(LOADERS[name][0])
    if name == "scenario" and draw(st.booleans()):
        data[draw(st.sampled_from(UNKNOWN_SCENARIO_KEYS))] = draw(st.sampled_from(MALFORMED + [{}]))
        return name, data, True
    _replace_one_node(draw, data, MALFORMED)
    return name, data, False


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_input())
def test_malformed_field_loads_or_raises_invalid_input(case):
    """Loading either succeeds or raises InvalidInputError; any other
    exception would reach the user as a traceback. An unknown scenario key
    never loads."""
    name, data, must_fail = case
    try:
        LOADERS[name][1](data)
    except InvalidInputError:
        return
    assert not must_fail, f"{name} loaded with an unknown key"


# ---------------------------------------------------------------------------
# the same through the command line: plan on a scenario, eval on a trace

# never a large finite number: a task duration of 1e12 would size arrays by it
REPLACEMENTS = [float("nan"), float("inf"), -1, 0, 2.5, "x", None, [], {}, True, [1, 2]]


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """The default scenario with its robot inline and a 1 s task set by
    gen-scenario's overlay, and the trace simulate writes from it."""
    out = tmp_path_factory.mktemp("cli_inputs")
    config = out / "overlay.json"
    config.write_text(json.dumps({"mpc": {"task_duration": 1.0}, "robot_model": model_to_dict(default_robot_model())}))
    assert main(["gen-scenario", "--out", str(out), "--config", str(config)]) == EXIT_OK
    assert main(["simulate", "--scenario", str(out / "scenario.json"), "--out", str(out)]) == EXIT_OK
    return {"plan": json.loads((out / "scenario.json").read_text()), "eval": json.loads((out / "trace.json").read_text())}


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exits_0_or_2_with_one_node_replaced(cli_inputs, data):
    """plan on a scenario, or eval on a trace, with one node, possibly nested,
    replaced: the command runs or rejects the input, and never raises."""
    command = data.draw(st.sampled_from(sorted(cli_inputs)))
    doc = copy.deepcopy(cli_inputs[command])
    _replace_one_node(data.draw, doc, REPLACEMENTS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))  # NaN and inf as JSON extension tokens
        inputs = ["--scenario", str(path)] if command == "plan" else [str(path)]
        assert main([command, *inputs, "--out", str(Path(tmp) / "out")]) in (EXIT_OK, EXIT_INVALID_INPUT)
