"""Real-time anticipatory motion planning for manipulators near humans.

Weighted human- and task-centric costs (separation, visibility, legibility,
nominal deviation, smoothness, goal pose) optimized by a control-limited
iLQR solver inside a receding-horizon loop, with evaluation metrics and a CLI.
"""

from .costs import (
    CostTask,
    CostWeights,
    GoalSpec,
    KnotCostEvaluator,
)
from .errors import InvalidInputError, SolverError
from .kinematics import (
    RobotModel,
    default_robot_model,
    load_robot_model,
    save_robot_model,
)
from .metrics import (
    MetricsReport,
    evaluate_trace,
    latency_metric,
    legibility_metric,
    nominal_metric,
    separation_metric,
    visibility_metric,
)
from .mpc import (
    ExecutionTrace,
    MpcConfig,
    Scenario,
    build_problem,
    derive_nominal,
    load_scenario,
    run_mpc,
    warm_start_shift,
)
from .prediction import (
    HumanPrediction,
    ReachConfig,
    load_prediction,
    save_prediction,
    slice_horizon,
    synthesize_reach,
)
from .solver import (
    SolveResult,
    TrajectoryProblem,
    backward_pass,
    forward_pass,
    rollout,
    solve,
)

__version__ = "0.1.0"
