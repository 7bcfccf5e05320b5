"""Command-line interface: scenario generation, planning, simulation, metrics.

Commands: gen-scenario, plan, simulate, eval, bench. Every command writes a
run manifest (resolved config, input hashes, the seed the run drew from,
outputs) next to its outputs so runs can be reproduced. Exit codes: 0
success, 2 invalid input, 3 solver failure (with
``<command>_diagnostics.json`` written to ``--out``).
ANTICIP_MPC_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .costs import CostWeights
from .errors import SCHEMA_VERSION, InvalidInputError, SolverError, read_json, write_json
from .kinematics import default_robot_model, model_to_dict, save_robot_model
from .metrics import FOV_HALF_ANGLE, SEPARATION_THRESHOLD, MetricsReport, evaluate_trace
from .mpc import (
    ExecutionTrace, MpcConfig, Scenario, deep_update, load_scenario, run_mpc, scenario_from_dict, write_csv,
)
from .prediction import ReachConfig, save_prediction, synthesize_reach

log = logging.getLogger("anticip_mpc")

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_SOLVER_FAILURE = 3


# ---------------------------------------------------------------------------
# manifests and helpers


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _scenario_manifest(args, **config) -> tuple[dict, list]:
    """The manifest config and inputs of a command that loads --scenario with
    an optional --config overlay: both paths (null for no overlay), and both
    files to hash."""
    overlay = None if args.config is None else str(args.config)
    inputs = [args.scenario] if args.config is None else [args.scenario, args.config]
    return {"scenario": str(args.scenario), "config": overlay, **config}, inputs


def write_manifest(out_dir: Path, command: str, config: dict, inputs, outputs, seed) -> Path:
    manifest = {
        "artifact_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs if Path(p).is_file()},
        "outputs": [str(p) for p in outputs],
    }
    path = out_dir / f"{command.replace('-', '_')}_manifest.json"
    write_json(path, manifest, indent=2)
    return path


# ---------------------------------------------------------------------------
# default desk-scale scenario


DEFAULT_WEIGHTS = {
    "w_dist": 2.0,
    "w_vis": 0.05,
    "w_leg": 1.0,
    "w_nom": 4.0,
    "w_smooth": 0.05,
    "w_goal": 4.0,
}

_START_Q = [0.7, 0.8, 0.0, 1.0, 0.0, 0.6, 0.0]
_GOAL_Q = [-0.7, 0.8, 0.0, 1.0, 0.0, 0.6, 0.0]


def default_reach_config(seed: int, duration: float, dt: float) -> dict:
    """The default human's ``synthesize`` block (every ReachConfig field), drawn from `seed`."""
    return ReachConfig(duration=duration, dt=dt, seed=seed).to_dict()


def default_scenario_dict(
    seed: int = 0,
    duration: float = MpcConfig.task_duration,
    dt: float = MpcConfig.dt,
    horizon: float = MpcConfig.horizon,
    replan: float = MpcConfig.replan_period,
    robot_model: str = "robot.json",
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "robot_model": robot_model,
        "start_q": _START_Q,
        "goal_q": _GOAL_Q,
        "goal_pose": "derive",
        "gaze_object": [0.75, 0.05, 0.30],
        "legibility": {
            "goals": [[0.622, -0.524, 0.323], [0.70, -0.30, 0.30]],
            "goal_index": 0,
        },
        "nominal": "derive",
        "weights": dict(DEFAULT_WEIGHTS),
        "mpc": {
            "dt": dt,
            "horizon": horizon,
            "replan_period": replan,
            "task_duration": duration,
        },
        "prediction": {"synthesize": default_reach_config(seed, duration + horizon, dt)},
        "ground_truth": None,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# commands


def _out_dir(path) -> Path:
    try:  # called after the command's argument checks, so a rejected call creates nothing
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names an existing file
        raise InvalidInputError(f"--out {path} cannot be used as a directory: {exc.strerror or exc}") from None
    return Path(path)


def cmd_gen_scenario(args) -> int:
    overlay = {} if args.config is None else read_json(args.config, "config")
    # the default human spans the overlay's task and one horizon past it, on the planner's grid
    mpc = MpcConfig.from_dict(overlay.get("mpc", {}))
    data = deep_update(
        default_scenario_dict(args.seed, mpc.task_duration, mpc.dt, mpc.horizon, mpc.replan_period), overlay
    )
    model = default_robot_model()
    # checked with the default model given inline, before anything is written
    checked = dict(data, robot_model=model_to_dict(model)) if data["robot_model"] == "robot.json" else data
    scenario = scenario_from_dict(checked, Path(args.out))
    # the default human is drawn from --seed, so the overlay may not name another seed
    synthesis_seed = None if scenario.synthesis is None else scenario.synthesis.seed
    for key, seed in (("seed", scenario.seed), ("prediction.synthesize.seed", synthesis_seed)):
        if seed not in (None, args.seed):
            raise InvalidInputError(f"config {key}={seed} conflicts with --seed {args.seed}")
    out = _out_dir(args.out)

    robot_path = out / "robot.json"
    save_robot_model(scenario.model, robot_path)
    pred_path = out / "prediction.json"
    save_prediction(scenario.prediction, pred_path)
    scenario_path = out / "scenario.json"
    write_json(scenario_path, data)

    write_manifest(out, "gen-scenario", data, [], [robot_path, pred_path, scenario_path], args.seed)
    print(f"wrote {scenario_path}")
    return EXIT_OK


def cmd_plan(args) -> int:
    """The one-shot plan: a receding-horizon run whose single replan spans the task."""
    scenario = load_scenario(args.scenario, args.config)
    out = _out_dir(args.out)
    duration = scenario.mpc.task_duration
    trace = run_mpc(replace(scenario, mpc=replace(scenario.mpc, horizon=duration, replan_period=duration)))

    replan = trace.replans[0]
    result = replan.result
    plan_json = out / "plan.json"
    write_json(plan_json, {"schema_version": SCHEMA_VERSION, **result.to_dict(), "wall_time": replan.wall_time})
    plan_csv = out / "plan.csv"
    trace.save_csv(plan_csv)
    write_manifest(out, "plan", *_scenario_manifest(args), [plan_json, plan_csv], scenario.seed)
    print(f"plan: cost={result.total_cost:.4f} converged={result.converged} wall={replan.wall_time:.3f}s")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario, args.config)
    out = _out_dir(args.out)
    run_mpc(scenario)  # discarded warm-up run: pays one-time cache costs
    trace = run_mpc(scenario)

    trace_json = out / "trace.json"
    trace.save_json(trace_json)
    trace_csv = out / "trace.csv"
    trace.save_csv(trace_csv)
    manifest = _scenario_manifest(args, mpc=scenario.mpc.to_dict())
    write_manifest(out, "simulate", *manifest, [trace_json, trace_csv], scenario.seed)
    lat = sum(trace.replan_wall_times())
    print(f"simulate: {len(trace.replans)} replans, planning time {lat:.3f}s, goal_reached={trace.goal_reached}")
    return EXIT_OK


def cmd_eval(args) -> int:
    traces = [ExecutionTrace.load_json(trace_path) for trace_path in args.traces]
    reports = [
        evaluate_trace(trace, threshold=args.threshold, fov_half_angle=args.fov, against=args.against)
        for trace in traces
    ]
    out = _out_dir(args.out)
    outputs = []
    for i, report in enumerate(reports):
        report_path = out / f"report_{i}.json"  # by position: simulate names every trace trace.json
        report.save_json(report_path)
        outputs.append(report_path)

    csv_path = out / "metrics.csv"
    rows = [[str(trace_path)] + report.csv_row() for trace_path, report in zip(args.traces, reports)]
    if len(reports) > 1:
        vals = np.array([[getattr(r, k) for k in MetricsReport.csv_header] for r in reports])
        rows.append(["mean"] + [f"{v:.6f}" for v in vals.mean(axis=0)])
        rows.append(["std"] + [f"{v:.6f}" for v in vals.std(axis=0, ddof=1)])
    write_csv(csv_path, ["trace"] + MetricsReport.csv_header, rows)
    outputs.append(csv_path)

    write_manifest(
        out,
        "eval",
        {"threshold": args.threshold, "fov_half_angle": args.fov, "against": args.against},
        list(args.traces),
        outputs,
        [trace.seed for trace in traces],
    )
    for report in reports:
        print(
            f"dst={report.dst:.3f} vis={report.vis:.3f} leg={report.leg:.3f} "
            f"nom={report.nom:.3f} lat={report.lat:.3f}s"
        )
    return EXIT_OK


def _reseeded(base: Scenario, seed: int) -> Scenario:
    """`base` with its synthesized human (if any) re-drawn from `seed`."""
    if base.synthesis is None:
        return base
    synthesis = replace(base.synthesis, seed=seed)
    return replace(base, prediction=synthesize_reach(synthesis), synthesis=synthesis, seed=seed)


def cmd_bench(args) -> int:
    if args.n < 1:
        raise InvalidInputError(f"--n must be at least 1, got {args.n}")
    base = load_scenario(args.scenario, args.config)
    out = _out_dir(args.out)
    if base.synthesis is None:
        log.warning("scenario prediction is not synthesized; bench runs will share one human motion")

    run_mpc(_reseeded(base, base.seed))  # discarded warm-up run

    t0 = time.perf_counter()
    traces = [run_mpc(_reseeded(base, base.seed + i)) for i in range(args.n)]
    bench_wall = time.perf_counter() - t0

    per_traj = np.array([sum(t.replan_wall_times()) for t in traces])
    per_replan = np.concatenate([t.replan_wall_times() for t in traces])
    summary = {
        "schema_version": SCHEMA_VERSION,
        "n_runs": args.n,
        "per_trajectory_mean_s": float(per_traj.mean()),
        "per_trajectory_std_s": float(per_traj.std(ddof=1)) if args.n > 1 else 0.0,
        "per_replan_mean_s": float(per_replan.mean()),
        "per_replan_std_s": float(per_replan.std(ddof=1)) if len(per_replan) > 1 else 0.0,
        "replans_per_run": [len(t.replans) for t in traces],
        "bench_wall_s": bench_wall,
    }
    summary_path = out / "bench.json"
    write_json(summary_path, summary)
    csv_path = out / "bench.csv"
    rows = ([i, f"{sum(t.replan_wall_times()):.6f}", len(t.replans)] for i, t in enumerate(traces))
    write_csv(csv_path, ["run", "planning_time_s", "replans"], rows)
    write_manifest(out, "bench", *_scenario_manifest(args, n=args.n), [summary_path, csv_path], base.seed)
    print(
        f"bench: {args.n} runs, per-trajectory {summary['per_trajectory_mean_s']:.3f}s "
        f"(std {summary['per_trajectory_std_s']:.3f}), per-replan {summary['per_replan_mean_s'] * 1e3:.1f}ms"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


_SCHEMAS = {
    "schema_version": SCHEMA_VERSION,
    "scenario": {
        "robot_model": "path or inline model dict",
        "start_q": "[rad] * n_joints",
        "goal_q": "[rad] * n_joints",
        "goal_pose": "'derive' | {position: [m]*3, orientation: [w,x,y,z]}",
        "gaze_object": "[m]*3",
        "legibility": {"goals": "[[m]*3, ...]", "goal_index": "int"},
        "nominal": "'derive' | [[m]*3, ...]",
        "weights": {f.name: "float >= 0" for f in fields(CostWeights)},
        "mpc": {f.name: "float > 0 (s)" for f in fields(MpcConfig)},
        "prediction": "path | inline prediction | {synthesize: {...}}",
        "ground_truth": "null | same as prediction",
        "seed": "int",
    },
    "robot_model": {
        "n_joints": "int",
        "joints": "[{axis: [unit 3-vec], offset: [m]*3}, ...]",
        "base_pose": {"position": "[m]*3", "orientation": "[w,x,y,z]"},
        "tracked_frames": "[frame indices]",
        "eef_frame": "int (last frame)",
        "velocity_bounds": {"lower": "[rad/s]*n", "upper": "[rad/s]*n"},
    },
    "prediction": {
        "joint_names": "[str]",
        "head_index": "int",
        "dt": "s",
        "t0": "s",
        "frames": "[[{mean: [m]*3, cov: 3x3}, ...] per timestep]",
    },
    "trace": "see ExecutionTrace.to_dict: executed states, eef path, human motion, per-replan records",
    "metrics_report": {
        "schema_version": "int", "dst": "[0,1]", "vis": "[0,1]", "leg": "[0,1]", "nom": "m^2", "lat": "s",
        "per_replan": "[s, ...]", "config": {"threshold": "m", "fov_half_angle": "rad", "against": "truth | predicted"},
    },
    "trajectory_csv_columns": ["time", "q0..qn", "eef_x", "eef_y", "eef_z", "min_human_dist"],
}


def _add_common(parser: argparse.ArgumentParser, config: bool = True) -> None:
    """--out, and --config where the command reads it."""
    if config:
        parser.add_argument("--config", default=None, help="JSON overlay merged onto the scenario")
    parser.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anticip-mpc",
        description="Anticipatory NMPC motion planning for manipulators near humans",
    )
    parser.add_argument("--version", action="version", version=f"anticip-mpc {__version__}")
    parser.add_argument("--schema", action="store_true", help="print output schemas and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-scenario", help="write a seeded scenario with a synthetic human")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="random seed of the scenario and its human")
    p.set_defaults(func=cmd_gen_scenario)

    p = sub.add_parser("plan", help="one-shot fixed-horizon solve over the full task")
    _add_common(p)
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="receding-horizon run producing an execution trace")
    _add_common(p)
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="compute the five metrics from trace files")
    _add_common(p, config=False)
    p.add_argument("traces", nargs="+", help="trace JSON files")
    p.add_argument("--threshold", type=float, default=SEPARATION_THRESHOLD, help="separation threshold, m")
    p.add_argument("--fov", type=float, default=FOV_HALF_ANGLE, help="field-of-view half angle, rad")
    p.add_argument("--against", choices=["truth", "predicted"], default="truth")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="seeded latency benchmark over N simulations")
    _add_common(p)
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, default=20, help="number of runs, from the scenario's seed up")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("ANTICIP_MPC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(message)s")

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        print(json.dumps(_SCHEMAS, indent=2))
        return EXIT_OK
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_INVALID_INPUT
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except SolverError as exc:
        command = args.command.replace("-", "_")
        write_json(Path(args.out) / f"{command}_diagnostics.json", {"error": str(exc), "command": command})
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
