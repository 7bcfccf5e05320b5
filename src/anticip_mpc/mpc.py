"""Receding-horizon planning loop and scenario definitions.

A scenario resolves the cost's per-task inputs once, as one
:class:`CostTask`. Each replan slices the human prediction and the nominal
path over the lookahead window into per-knot cost arrays for an evaluator of
that task, solves the fixed-horizon problem warm-started from the previous
plan (the first replan from the joint-space line to the goal), then executes
a prefix under simulated position control (the executed motion tracks the
plan exactly). The executed human follows the prediction means unless the
scenario supplies a separate ground truth. The goal test uses the task's
:meth:`GoalSpec.errors`, and the separation metric reads the trace's human
distance through :func:`min_human_distance`.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .costs import CostTask, CostWeights, GoalSpec, KnotCostEvaluator
from .errors import (
    SCHEMA_VERSION, Fields, InvalidInputError, boolean, float_array, integer, number, read_json, store, write_json,
)
from .kinematics import RobotModel, fk_batch, load_robot_model, model_from_dict
from .prediction import (
    FRAME_TOL,
    HumanPrediction,
    ReachConfig,
    load_prediction,
    prediction_from_dict,
    slice_horizon,
    synthesize_reach,
)
from .solver import SolveResult, TrajectoryProblem, solve

log = logging.getLogger("anticip_mpc")

Array = np.ndarray

# the loop stops once the end effector is this close to the goal pose
GOAL_POSITION_TOL = 0.01  # m
ORIENT_GOAL_TOL = 1e-3  # 1 - <q, q_goal>^2


def _as_steps(value: float, dt: float, name: str) -> int:
    steps = value / dt
    if not (np.isfinite(steps) and abs(steps - round(steps)) <= 1e-6 and round(steps) >= 1):
        raise InvalidInputError(f"mpc {name}={value} must be a positive integer multiple of dt={dt}")
    return int(round(steps))


@dataclass(frozen=True)
class MpcConfig(Fields):
    """Timing of the receding-horizon loop (seconds); every field is positive."""

    section = "mpc"

    dt: float = 0.25
    horizon: float = 1.25
    replan_period: float = 0.5
    task_duration: float = 5.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            self._check(name, number, 0, strict=True)
        horizon = _as_steps(self.horizon, self.dt, "horizon")
        replan = _as_steps(self.replan_period, self.dt, "replan_period")
        task = _as_steps(self.task_duration, self.dt, "task_duration")
        if horizon < replan:  # compared in whole grid steps, as the loop reads them
            raise InvalidInputError("mpc horizon must be at least the replan period")
        # the grid counts the loop reads; to_dict emits only the four fields
        store(self, horizon_knots=horizon + 1, replan_steps=replan, task_steps=task)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Fully resolved planning task: robot, goals, weights, human data.

    A scenario is immutable and its arrays are read-only, so the ``task``
    and ``nominal_path`` it resolves on first use (not at load) and keeps
    cannot go stale; ``dataclasses.replace`` gives a scenario that resolves
    them again."""

    model: RobotModel
    start_q: Array
    goal_q: Array
    gaze_object: Array
    legibility_goals: Array  # (G, 3)
    legibility_goal_index: int
    weights: CostWeights
    mpc: MpcConfig
    prediction: HumanPrediction
    goal_pose: Optional[GoalSpec] = None  # explicit goal pose; None derives it from goal_q
    nominal: Optional[Array] = None  # explicit eef path; None derives one
    ground_truth: Optional[HumanPrediction] = None
    synthesis: Optional[ReachConfig] = None  # kept for re-seeded benchmark runs
    seed: int = 0

    def __post_init__(self):
        n = self.model.n_joints
        start_q = float_array(self.start_q, "scenario start_q", (n,))
        goal_q = float_array(self.goal_q, "scenario goal_q", (n,))
        gaze_object = float_array(self.gaze_object, "scenario gaze_object", (3,))
        goals = np.atleast_2d(float_array(self.legibility_goals, "scenario legibility.goals"))
        if goals.shape[1:] != (3,):
            raise InvalidInputError(f"scenario legibility.goals must be a list of 3-vectors, got {goals.shape}")
        goal_index = integer(self.legibility_goal_index, "scenario legibility.goal_index", 0, len(goals) - 1)
        seed = integer(self.seed, "scenario seed")
        for key, human in (("prediction", self.prediction), ("ground_truth", self.ground_truth)):
            if human is not None and not human.t0 <= FRAME_TOL * human.dt:
                raise InvalidInputError(f"scenario {key} must start at or before t = 0, got t0={human.t0}")
        nominal = self.nominal
        if nominal is not None:
            nominal = np.atleast_2d(float_array(nominal, "scenario nominal"))
            if nominal.shape[1:] != (3,) or len(nominal) <= self.mpc.task_steps:
                need = f"a (T, 3) path with T >= {self.mpc.task_steps + 1}"
                raise InvalidInputError(f"scenario nominal must be {need}, got shape {nominal.shape}")
        store(
            self, start_q=start_q, goal_q=goal_q, gaze_object=gaze_object, legibility_goals=goals,
            legibility_goal_index=goal_index, seed=seed, nominal=nominal,
        )

    @cached_property
    def task(self) -> CostTask:
        """The cost's per-task inputs, among them the goal pose (the explicit
        one, or the end-effector pose at goal_q) and the legibility start (the
        end-effector position at start_q)."""
        model, eef = self.model, self.model.eef_frame
        goal = self.goal_pose
        if goal is None:
            fk = fk_batch(model, self.goal_q[None, :])
            goal = GoalSpec(fk.positions[0, eef], fk.eef_quats[0])
        start = fk_batch(model, self.start_q[None, :]).positions[0, eef]
        return CostTask(
            model, self.weights, self.gaze_object, start, self.legibility_goals, self.legibility_goal_index, goal,
            self.prediction.head_index,
        )

    @cached_property
    def nominal_path(self) -> Array:
        """The explicit nominal path, or the one derived from start_q to goal_q."""
        if self.nominal is not None:
            return self.nominal
        return derive_nominal(self.model, self.start_q, self.goal_q, self.mpc.task_steps)


def derive_nominal(model: RobotModel, start_q, goal_q, n_steps: int) -> Array:
    """End-effector positions of the linear joint-space interpolation."""
    start_q = float_array(start_q, "start_q").reshape(-1)
    goal_q = float_array(goal_q, "goal_q").reshape(-1)
    if start_q.shape != goal_q.shape or start_q.shape != (model.n_joints,):
        raise InvalidInputError("start and goal joint vectors must match the robot")
    alphas = np.linspace(0.0, 1.0, integer(n_steps, "n_steps", 1) + 1)
    qs = start_q[None, :] + alphas[:, None] * (goal_q - start_q)[None, :]
    return fk_batch(model, qs).positions[:, model.eef_frame].copy()


def linear_warm_start(x0, goal_q, n_controls: int, dt: float) -> Array:
    """Constant-velocity joint-space line from x0 toward goal_q: the first
    replan's warm start (the solve clips it into the velocity box)."""
    u = (goal_q - x0) / (n_controls * dt)
    return np.tile(u, (n_controls, 1))


def warm_start_shift(controls: Array, steps_executed: int, n_controls: int) -> Array:
    """Shift a previous plan's controls and pad with the final control."""
    controls = np.atleast_2d(float_array(controls, "controls"))
    if len(controls) == 0:
        raise InvalidInputError(f"controls must be a plan of at least one row, got shape {controls.shape}")
    k = integer(steps_executed, "steps_executed", 0, controls.shape[0])
    n = integer(n_controls, "n_controls", 0)
    kept = controls[k:k + n]
    return np.vstack([kept, np.tile(controls[-1], (n - len(kept), 1))])


def build_problem(scenario: Scenario, t_start: float, n_knots: int, x0) -> TrajectoryProblem:
    """Fixed-horizon problem for a window starting at t_start.

    Human means and covariances are sliced from the prediction at the knot
    times; the nominal path is indexed by absolute time and clamped to its
    final point; the scenario's one task holds the per-task values.
    """
    cfg = scenario.mpc
    model = scenario.model
    nominal = scenario.nominal_path
    means, covs = slice_horizon(scenario.prediction, t_start, n_knots, cfg.dt)
    t = t_start + np.arange(n_knots) * cfg.dt
    idx = np.minimum(np.round(t / cfg.dt).astype(int), len(nominal) - 1)
    cost = KnotCostEvaluator(scenario.task, means, covs, nominal[idx])
    return TrajectoryProblem(n_knots, cfg.dt, x0, cost, model.vel_lower, model.vel_upper)


@dataclass
class ReplanRecord:
    """One replan, kept as the record's own checked copy; run_mpc builds it after timing the replan."""

    t_plan: float
    wall_time: float  # warm start + prediction slicing + problem assembly + solve
    result: SolveResult

    def __post_init__(self):
        r = self.result
        states = float_array(r.states, "replan states", (None, None))
        result = replace(r)  # a copy, so the caller's result keeps its own arrays
        store(
            result, states=states, total_cost=number(r.total_cost, "replan total_cost"),
            controls=float_array(r.controls, "replan controls", (len(states) - 1, states.shape[1])),
            converged=boolean(r.converged, "replan converged"), grad_inf=number(r.grad_inf, "replan grad_inf", 0),
            iterations=integer(r.iterations, "replan iterations", 0),
            outer_iterations=integer(r.outer_iterations, "replan outer_iterations", 0),
            max_bound_violation=number(r.max_bound_violation, "replan max_bound_violation", 0),
        )
        t_plan = number(self.t_plan, "replan t_plan")
        store(self, t_plan=t_plan, wall_time=number(self.wall_time, "replan wall_time", 0), result=result)

    def to_dict(self) -> dict:
        return {**self.result.to_dict(), "t_plan": self.t_plan, "wall_time": self.wall_time}


@dataclass
class ExecutionTrace:
    """Executed motion at T >= 1 times plus at least one replan record. The
    constructor checks every field and keeps each array as a read-only copy."""

    times: Array  # (T,)
    states: Array  # (T, n)
    eef_positions: Array  # (T, 3)
    eef_quats: Array  # (T, 4)
    tracked_positions: Array  # (T, R, 3) origins of the tracked robot frames
    human_true: Array  # (T, H, 3) executed human motion
    human_pred: Array  # (T, H, 3) prediction means at the executed times
    min_human_dist: Array  # (T,) min over (human joint, tracked frame)
    head_index: int
    nominal: Array  # (T, 3) nominal eef positions aligned to the grid
    gaze_object: Array
    legibility_start: Array
    legibility_goals: Array
    legibility_goal_index: int
    goal_position: Array
    goal_orientation: Array
    replans: list  # each replan plans for the trace's n joints
    total_wall_time: float
    goal_reached: bool
    dt: float
    seed: int = 0

    def __post_init__(self):
        def array(name, *shape):  # None: any size, read from the array
            return float_array(getattr(self, name), f"trace {name}", shape)

        times = array("times", None)
        T = len(times)
        if T < 1:
            raise InvalidInputError("trace times must hold at least one time")
        states = array("states", T, None)
        human_true = array("human_true", T, None, 3)
        H = human_true.shape[1]
        goals = array("legibility_goals", None, 3)
        if not (isinstance(self.replans, list) and self.replans):
            raise InvalidInputError(f"trace replans must be a nonempty list of replan records, got {self.replans!r}")
        for i, record in enumerate(self.replans):
            if not isinstance(record, ReplanRecord):
                raise InvalidInputError(f"trace replan {i} must be a replan record, got {record!r}")
            float_array(record.result.states, f"trace replan {i} states", (None, states.shape[1]))
        store(
            self, times=times, states=states, eef_positions=array("eef_positions", T, 3),
            eef_quats=array("eef_quats", T, 4), tracked_positions=array("tracked_positions", T, None, 3),
            human_true=human_true, human_pred=array("human_pred", T, H, 3), min_human_dist=array("min_human_dist", T),
            head_index=integer(self.head_index, "trace head_index", 0, H - 1), nominal=array("nominal", T, 3),
            gaze_object=array("gaze_object", 3), legibility_start=array("legibility_start", 3), legibility_goals=goals,
            legibility_goal_index=integer(self.legibility_goal_index, "trace legibility_goal_index", 0, len(goals) - 1),
            goal_position=array("goal_position", 3), goal_orientation=array("goal_orientation", 4),
            total_wall_time=number(self.total_wall_time, "trace total_wall_time", 0),
            goal_reached=boolean(self.goal_reached, "trace goal_reached"),
            dt=number(self.dt, "trace dt", 0, strict=True), seed=integer(self.seed, "trace seed"),
        )

    def replan_wall_times(self) -> list[float]:
        return [r.wall_time for r in self.replans]

    def to_dict(self) -> dict:
        replans = [r.to_dict() for r in self.replans]
        return {**Fields.to_dict(self), "schema_version": SCHEMA_VERSION, "replans": replans}

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionTrace":
        """The trace `data` describes; the record constructors check every field."""
        def record(i, r):  # replan i, named by its place in the trace
            try:
                result = SolveResult(**{name: r[name] for name in SolveResult.__dataclass_fields__})
                return ReplanRecord(r["t_plan"], r["wall_time"], result)
            except InvalidInputError as exc:
                raise InvalidInputError(f"trace replan {i}{str(exc).removeprefix('replan')}") from exc

        integer(data.get("schema_version", SCHEMA_VERSION), "trace schema_version", SCHEMA_VERSION, SCHEMA_VERSION)
        fields = {name: data[name] for name in cls.__dataclass_fields__ if name != "seed"}
        if isinstance(fields["replans"], list):  # the trace rejects anything else, and any entry not an object
            fields["replans"] = [record(i, r) if isinstance(r, dict) else r for i, r in enumerate(fields["replans"])]
        return cls(**fields, seed=data.get("seed", 0))

    def save_json(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load_json(cls, path) -> "ExecutionTrace":
        data = read_json(path, "trace")
        try:
            return cls.from_dict(data)
        except KeyError as exc:
            raise InvalidInputError(f"trace {path}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"trace {path}: {exc}") from exc

    def save_csv(self, path) -> None:
        """One row per dt: time, q..., eef xyz, min human distance."""
        n = self.states.shape[1]
        header = ["time"] + [f"q{i}" for i in range(n)] + ["eef_x", "eef_y", "eef_z", "min_human_dist"]
        rows = (
            [f"{t:.6f}"] + [f"{v:.9f}" for v in (*q, *p, d)]
            for t, q, p, d in zip(self.times, self.states, self.eef_positions, self.min_human_dist)
        )
        write_csv(path, header, rows)


def write_csv(path, header: list, rows) -> None:
    """Write `header`, then each of `rows`, to the CSV file at `path`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_mpc(scenario: Scenario) -> ExecutionTrace:
    """Run the receding-horizon loop and return the executed trace.

    Stops at the task duration or once the end effector is within
    GOAL_POSITION_TOL of the goal position and ORIENT_GOAL_TOL of its
    orientation.
    """
    cfg = scenario.mpc
    model = scenario.model
    n_steps = cfg.task_steps
    n_knots = cfg.horizon_knots
    replan_steps = cfg.replan_steps

    # resolved here, before the first timed replan
    task = scenario.task
    nominal = scenario.nominal_path

    executed = [scenario.start_q.copy()]
    replans: list[ReplanRecord] = []
    prev_controls: Optional[Array] = None
    x = scenario.start_q.copy()
    step = 0
    goal_reached = False

    t0_wall = time.perf_counter()
    while step < n_steps and not goal_reached:
        t_now = step * cfg.dt
        t_plan = time.perf_counter()
        problem = build_problem(scenario, t_now, n_knots, x)
        if prev_controls is None:
            init = linear_warm_start(x, scenario.goal_q, n_knots - 1, cfg.dt)
        else:
            init = warm_start_shift(prev_controls, replan_steps, n_knots - 1)
        result = solve(problem, init)
        wall = time.perf_counter() - t_plan
        replans.append(ReplanRecord(t_plan=t_now, wall_time=wall, result=result))
        log.debug(
            "replan t=%.2f: cost=%.4g iters=%d converged=%s wall=%.1f ms",
            t_now, result.total_cost, result.iterations, result.converged, 1e3 * wall,
        )

        n_exec = min(replan_steps, n_steps - step)
        executed.extend(result.states[1:n_exec + 1])
        x = result.states[n_exec].copy()
        prev_controls = result.controls
        step += n_exec

        fk = fk_batch(model, x[None, :])
        (pos_err,), (orient_err,) = task.goal.errors(fk.positions[:, model.eef_frame], fk.eef_rotations)
        goal_reached = bool(pos_err < GOAL_POSITION_TOL and orient_err < ORIENT_GOAL_TOL)

    states = np.asarray(executed)
    T1 = states.shape[0]
    fk = fk_batch(model, states)
    tracked = fk.positions[:, list(model.tracked_frames)]
    human_pred, _ = slice_horizon(scenario.prediction, 0.0, T1, cfg.dt)
    human_true = human_pred
    if scenario.ground_truth is not None:
        human_true, _ = slice_horizon(scenario.ground_truth, 0.0, T1, cfg.dt)
    total_wall = time.perf_counter() - t0_wall

    return ExecutionTrace(
        times=np.arange(T1) * cfg.dt,
        states=states,
        eef_positions=fk.positions[:, model.eef_frame],
        eef_quats=fk.eef_quats,
        tracked_positions=tracked,
        human_true=human_true,
        human_pred=human_pred,
        min_human_dist=min_human_distance(tracked, human_true),
        head_index=task.head_index,
        nominal=nominal[:T1],  # a nominal path has at least task_steps + 1 points
        gaze_object=task.gaze,
        legibility_start=task.leg_start,
        legibility_goals=task.goals,
        legibility_goal_index=task.goal_index,
        goal_position=task.goal.position,
        goal_orientation=task.goal.orientation,
        replans=replans,
        total_wall_time=total_wall,
        goal_reached=goal_reached,
        dt=cfg.dt,
        seed=scenario.seed,
    )


def min_human_distance(tracked: Array, human: Array) -> Array:
    """Per-step minimum distance (T,) over every pair of a tracked robot frame
    (T, R, 3) and a human joint (T, H, 3)."""
    d = np.linalg.norm(tracked[:, None, :, :] - human[:, :, None, :], axis=-1)
    return d.reshape(len(d), -1).min(axis=1)


# ---------------------------------------------------------------------------
# scenario file I/O


def _resolve(base: Path, ref: str) -> Path:
    p = Path(ref)
    return p if p.is_absolute() else base / p


def _load_human_source(data: dict, key: str, base: Path) -> tuple[HumanPrediction, Optional[ReachConfig]]:
    """The human that the scenario's `key` (``prediction`` or ``ground_truth``) describes."""
    entry = data[key]
    if isinstance(entry, str):
        return load_prediction(_resolve(base, entry)), None
    if isinstance(entry, dict) and "synthesize" in entry:
        extra = sorted(set(entry) - {"synthesize"})
        if extra:  # e.g. an overlay's inline prediction deep-merged into a synthesized one
            raise InvalidInputError(
                f"scenario {key} holding 'synthesize' may hold no other key, got {extra}; "
                f"give an inline {key} as a file path"
            )
        config = ReachConfig.from_dict(entry["synthesize"])
        return synthesize_reach(config), config
    if isinstance(entry, dict):
        return prediction_from_dict(entry), None
    raise InvalidInputError(f"scenario {key} must be a file path, inline dict, or {{'synthesize': ...}}")


# every top-level key a scenario may hold; any other is rejected, so a
# misspelled or retired key is never silently ignored
_SCENARIO_KEYS = frozenset((
    "schema_version", "robot_model", "start_q", "goal_q", "goal_pose", "gaze_object", "legibility",
    "nominal", "weights", "mpc", "prediction", "ground_truth", "seed",
))


def scenario_from_dict(data: dict, base: Path) -> Scenario:
    unknown = set(data) - _SCENARIO_KEYS
    if unknown:
        raise InvalidInputError(f"unknown scenario keys: {sorted(unknown)}")
    integer(data.get("schema_version", SCHEMA_VERSION), "scenario schema_version", SCHEMA_VERSION, SCHEMA_VERSION)
    try:
        model_entry = data["robot_model"]
        model = (
            load_robot_model(_resolve(base, model_entry))
            if isinstance(model_entry, str)
            else model_from_dict(model_entry)
        )
        prediction, synthesis = _load_human_source(data, "prediction", base)
        ground_truth = None
        if data.get("ground_truth") is not None:
            ground_truth, _ = _load_human_source(data, "ground_truth", base)
        goal_pose = data.get("goal_pose", "derive")
        if isinstance(goal_pose, dict):
            goal_pose = GoalSpec(goal_pose["position"], goal_pose["orientation"])
        elif goal_pose == "derive":
            goal_pose = None
        else:
            raise InvalidInputError("scenario goal_pose must be 'derive' or an object with position and orientation")
        nominal = data.get("nominal", "derive")
        legibility = data["legibility"]
        if not isinstance(legibility, dict):
            raise InvalidInputError("scenario legibility must be an object with goals and goal_index")
        return Scenario(
            model=model,
            start_q=data["start_q"],
            goal_q=data["goal_q"],
            gaze_object=data["gaze_object"],
            legibility_goals=legibility["goals"],
            legibility_goal_index=legibility["goal_index"],
            weights=CostWeights.from_dict(data["weights"]),
            mpc=MpcConfig.from_dict(data.get("mpc", {})),
            prediction=prediction,
            goal_pose=goal_pose,
            nominal=None if nominal in ("derive", None) else nominal,
            ground_truth=ground_truth,
            synthesis=synthesis,
            seed=data.get("seed", 0),
        )
    except KeyError as exc:
        raise InvalidInputError(f"scenario missing required key: {exc}") from exc


def deep_update(base: dict, overlay: dict) -> dict:
    """`base` with `overlay` merged in, recursing where both hold an object."""
    out = dict(base)
    for key, val in overlay.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = deep_update(out[key], val)
        else:
            out[key] = val
    return out


def load_scenario(path, overlay_path=None) -> Scenario:
    """Parse a scenario file, with the JSON object in `overlay_path` (if any)
    deep-merged onto it. Relative file references resolve against the
    scenario's directory."""
    data = read_json(path, "scenario")
    if overlay_path is not None:
        data = deep_update(data, read_json(overlay_path, "config"))
    return scenario_from_dict(data, Path(path).parent)
