"""The benchmark's three workloads, built from a workload seed.

Every workload starts from ``anticip_mpc.cli.default_scenario_dict`` and
overrides only what makes it stress a different layer (see README.md):

- ``reference``: the paper's configuration, 6-knot horizons replanned every
  0.5 s; small batches, so per-call overhead dominates.
- ``oneshot``: one 21-knot solve over the whole 5 s task (the ``plan``
  path); long Riccati and rollout loops, bigger FK batches.
- ``fullbody``: a 17-joint predicted skeleton on a 0.1 s grid, ingested
  from JSON files; the separation term and prediction slicing dominate.

``prepare`` builds the inputs before anything is timed. ``load`` turns them
into scenarios through the library's own loaders; it is the timed set-up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Scenario seeds of workload seed s are s * SEED_STRIDE + i, so the sets of
# two workload seeds never overlap.
SEED_STRIDE = 1000


def scenario_seeds(seed: int, n: int) -> list[int]:
    if not 0 < n <= SEED_STRIDE:
        raise ValueError(f"scenario count must lie in [1, {SEED_STRIDE}]")
    return [seed * SEED_STRIDE + i for i in range(n)]


def _inline_robot(data: dict) -> dict:
    from anticip_mpc.kinematics import default_robot_model, model_to_dict

    data["robot_model"] = model_to_dict(default_robot_model())
    return data


def _prepare_reference(seeds, workdir):
    from anticip_mpc.cli import default_scenario_dict

    return [_inline_robot(default_scenario_dict(seed=s)) for s in seeds]


def _prepare_oneshot(seeds, workdir):
    from anticip_mpc.cli import default_scenario_dict

    # horizon = replan period = task duration: a single 21-knot solve, which
    # run_mpc performs exactly as `anticip-mpc plan` does
    return [_inline_robot(default_scenario_dict(seed=s, horizon=5.0, replan=5.0)) for s in seeds]


def _load_from_dicts(pkg, inputs):
    return [pkg.mpc.scenario_from_dict(data, Path(".")) for data in inputs]


# Human3.6M-style 17-joint skeleton, seated across the table from the robot
# (x away from the robot base, z up), the layout pose-prediction networks emit.
SKELETON_JOINTS = (
    "pelvis", "r_hip", "r_knee", "r_ankle", "l_hip", "l_knee", "l_ankle",
    "spine", "thorax", "neck", "head",
    "l_shoulder", "l_elbow", "l_wrist", "r_shoulder", "r_elbow", "r_wrist",
)
SKELETON_REST = (
    (1.15, 0.00, 0.05), (1.15, -0.12, 0.05), (0.90, -0.12, 0.02), (0.90, -0.12, -0.40),
    (1.15, 0.12, 0.05), (0.90, 0.12, 0.02), (0.90, 0.12, -0.40),
    (1.12, 0.00, 0.20), (1.10, 0.00, 0.38), (1.08, 0.00, 0.48), (1.10, 0.00, 0.55),
    (1.10, 0.18, 0.40), (1.02, 0.28, 0.28), (0.95, 0.30, 0.25),
    (1.10, -0.18, 0.40), (1.02, -0.28, 0.28), (0.95, -0.30, 0.25),
)
HEAD, R_ELBOW, R_WRIST, L_ELBOW, L_WRIST = 10, 15, 16, 12, 13
# The right hand crosses the end effector's sweep (y from +0.52 to -0.52 at
# x ~ 0.8, z ~ 0.32) in the first 3 s, then holds there.
REACH_TARGET = (0.78, 0.20, 0.33)
REACH_S, HOLD_S = 3.0, 3.3  # 6.3 s of frames cover the task plus one horizon
PREDICTION_DT = 0.1  # off the 0.25 s knot grid: every other knot interpolates
# networks are least certain about the extremities
COV_SCALE = {L_ELBOW: 1.5, R_ELBOW: 1.5, L_WRIST: 2.0, R_WRIST: 2.0}


def skeleton_prediction(seed: int):
    """Seeded 17-joint prediction: a minimum-jerk reach by the right wrist,
    with the elbow following half way and wider covariances at the arms."""
    from anticip_mpc.cli import default_reach_config
    from anticip_mpc.prediction import HumanPrediction, ReachConfig, synthesize_reach

    config = default_reach_config(seed, REACH_S, PREDICTION_DT)
    config.update(
        joint_names=list(SKELETON_JOINTS),
        head_index=HEAD,
        rest_positions=[list(p) for p in SKELETON_REST],
        reach_joint=R_WRIST,
        reach_target=list(REACH_TARGET),
        settle=HOLD_S,
    )
    base = synthesize_reach(ReachConfig.from_dict(config))
    means = base.means.copy()
    means[:, R_ELBOW] += 0.5 * (means[:, R_WRIST] - np.asarray(SKELETON_REST[R_WRIST]))
    scale = np.ones(len(SKELETON_JOINTS))
    for joint, factor in COV_SCALE.items():
        scale[joint] = factor
    covs = base.covs * scale[None, :, None, None]
    return HumanPrediction(base.joint_names, base.head_index, means, covs, base.dt, base.t0)


def _prepare_fullbody(seeds, workdir):
    from anticip_mpc.cli import default_scenario_dict
    from anticip_mpc.kinematics import default_robot_model, save_robot_model
    from anticip_mpc.prediction import save_prediction

    workdir.mkdir(parents=True, exist_ok=True)
    save_robot_model(default_robot_model(), workdir / "robot.json")
    paths = []
    for s in seeds:
        save_prediction(skeleton_prediction(s), workdir / f"prediction_{s}.json")
        data = default_scenario_dict(seed=s, robot_model="robot.json")
        data["prediction"] = f"prediction_{s}.json"
        path = workdir / f"scenario_{s}.json"
        path.write_text(json.dumps(data, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def _load_from_files(pkg, inputs):
    return [pkg.mpc.load_scenario(path) for path in inputs]


@dataclass(frozen=True)
class Workload:
    name: str
    n_scenarios: int  # distinct scenarios per pass
    prepare: Callable  # (scenario seeds, work directory) -> inputs
    load: Callable  # (package namespace, inputs) -> scenarios; timed as set-up


# Sized so that two passes take about 20 s here; oneshot, whose trajectories
# are single replans, needs 50 scenarios for 100 timed replans in two passes.
# The work varies little between scenario sets (a pass's total solver
# iterations move by 2-4% between workload seeds), and two passes of many
# scenarios spread less between seeds than more passes of fewer.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("reference", 36, _prepare_reference, _load_from_dicts),
        Workload("oneshot", 50, _prepare_oneshot, _load_from_dicts),
        Workload("fullbody", 24, _prepare_fullbody, _load_from_files),
    )
}
