import numpy as np
import pytest

from anticip_mpc import (
    CostTask,
    CostWeights,
    GoalSpec,
    KnotCostEvaluator,
    RobotModel,
    TrajectoryProblem,
    backward_pass,
    default_robot_model,
    forward_pass,
    solve,
)
from anticip_mpc.kinematics import fk_batch
from anticip_mpc.solver import _assemble_derivs

from oracles import HumanJointGaussian, KnotContext, stack_contexts


@pytest.fixture
def planar_model() -> RobotModel:
    """2-joint planar arm: both axes +z, unit link offsets along x."""
    return RobotModel(
        axes=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
        offsets=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        base_position=np.zeros(3),
        base_orientation=np.array([1.0, 0.0, 0.0, 0.0]),
        tracked_frames=(1, 2),
        eef_frame=2,
        vel_lower=-2.0 * np.ones(2),
        vel_upper=2.0 * np.ones(2),
    )


@pytest.fixture
def seven_dof() -> RobotModel:
    return default_robot_model()


def random_chain(rng: np.random.Generator, n_joints: int) -> RobotModel:
    axes = rng.normal(size=(n_joints, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    offsets = rng.uniform(-0.3, 0.3, size=(n_joints, 3))
    quat = rng.normal(size=4)
    quat /= np.linalg.norm(quat)
    return RobotModel(
        axes=axes,
        offsets=offsets,
        base_position=rng.uniform(-0.5, 0.5, size=3),
        base_orientation=quat,
        tracked_frames=tuple(range(1, n_joints + 1)),
        eef_frame=n_joints,
        vel_lower=-(1.0 + rng.uniform(0, 1, n_joints)),
        vel_upper=1.0 + rng.uniform(0, 1, n_joints),
    )


def random_spd(rng: np.random.Generator, scale: float = 0.1) -> np.ndarray:
    a = rng.normal(size=(3, 3)) * scale
    return a @ a.T + (0.2 * scale) ** 2 * np.eye(3)


def random_contexts(
    rng: np.random.Generator,
    model: RobotModel,
    qs,
    weights: CostWeights | None = None,
    n_human: int = 3,
    n_goals: int = 3,
    goal_index: int | None = None,
) -> list[KnotContext]:
    """Randomized knot contexts at the joint vectors qs: one cost task
    (gaze, legibility, goal, weights) drawn once, then each knot's human
    frame and nominal point, resampled away from cost kinks."""
    eefs = [eef_pose(model, q).position for q in qs]
    gaze = eefs[0] + rng.uniform(-1.2, 1.2, 3)
    while True:
        goal_p = eefs[0] + rng.uniform(-0.5, 0.5, 3)
        if min(np.linalg.norm(goal_p - eef) for eef in eefs) >= 0.02:
            break
    quat = rng.normal(size=4)
    quat /= np.linalg.norm(quat)
    goals = eefs[0] + rng.uniform(-0.7, 0.7, (n_goals, 3))
    start = eefs[0] + rng.uniform(-0.5, 0.5, 3)
    if weights is None:
        weights = CostWeights(*rng.uniform(0.1, 2.0, 6))
    gi = int(rng.integers(n_goals)) if goal_index is None else goal_index
    task = CostTask(model, weights, gaze, start, goals, gi, GoalSpec(goal_p, quat), head_index=0)

    contexts = []
    for eef in eefs:
        while True:
            human = tuple(
                HumanJointGaussian(eef + rng.uniform(-0.8, 0.8, 3), random_spd(rng)) for _ in range(n_human)
            )
            a = gaze - human[0].mean
            b = eef - human[0].mean
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            if na < 0.05 or nb < 0.05:
                continue
            if np.linalg.norm(np.cross(a / na, b / nb)) < 0.05:
                continue  # too close to the gaze-angle kink for finite differences
            nominal = eef + rng.uniform(-0.5, 0.5, 3)
            if np.linalg.norm(nominal - eef) >= 0.02:
                break
        contexts.append(KnotContext(human_frame=human, nominal=nominal, task=task, t=float(rng.uniform(0, 5))))
    return contexts


def random_context(rng: np.random.Generator, model: RobotModel, q: np.ndarray, **options) -> KnotContext:
    """One randomized knot context with its own cost task."""
    return random_contexts(rng, model, [q], **options)[0]


def eef_pose(model: RobotModel, q) -> GoalSpec:
    """End-effector pose of one joint vector, from a one-row fk_batch."""
    fk = fk_batch(model, np.asarray(q, dtype=float)[None, :])
    return GoalSpec(fk.positions[0, model.eef_frame], fk.eef_quats[0])


def problem_from_contexts(model: RobotModel, n_knots: int, dt: float, x0, contexts) -> TrajectoryProblem:
    """Trajectory problem whose cost is the evaluator over stacked knot contexts."""
    assert len(contexts) == n_knots
    return TrajectoryProblem(
        n_knots=n_knots,
        dt=dt,
        x0=x0,
        cost=KnotCostEvaluator(*stack_contexts(contexts)),
        u_lower=model.vel_lower,
        u_upper=model.vel_upper,
    )


def solve_default(problem: TrajectoryProblem, initial_controls=None):
    """solve from initial_controls, zero controls unless given."""
    if initial_controls is None:
        initial_controls = np.zeros((problem.n_knots - 1, problem.n_dims))
    return solve(problem, initial_controls)


def backward(problem: TrajectoryProblem, xs, us):
    """backward_pass at (xs, us): the derivatives it takes are assembled here."""
    return backward_pass(problem, _assemble_derivs(problem, xs, us))


def forward(problem: TrajectoryProblem, xs, us, gains, incumbent_cost=None):
    """forward_pass from (xs, us), scoring the incumbent here unless its cost
    is given."""
    if incumbent_cost is None:
        incumbent_cost = problem.cost.value(xs, us)
    return forward_pass(problem, xs, us, gains, incumbent_cost)
