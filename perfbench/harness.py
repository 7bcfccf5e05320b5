"""Measures one workload: set-up, planning latency, output checks, plan
quality, and (traced) per-layer metrics.

Everything runs serially in this process. Latency is the planner's own
per-replan wall time (``ReplanRecord.wall_time``: prediction slice, problem
assembly and solve), the definition the acceptance test uses.

Timings are reported at reference machine speed. A short fixed kernel, the
speed probe, runs after every timed call. A call's wall time is multiplied
by ``PROBE_REF_S`` over the median probe time within ``PROBE_WINDOW_S`` of
the call. On the shared 2-CPU virtual machine this benchmark was built on,
the speed of the same solve drifts by up to 60% for minutes at a time, which
no statistic over raw wall time survives; the ratio of planning time to
probe time moved by a few percent over the same minutes. Raw wall times are
kept in the result file.
"""

from __future__ import annotations

import importlib
import math
import os
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, scenario_seeds

# The probe's time on the machine the benchmark was built on, when quiet.
# It only sets the scale: comparisons between two runs do not depend on it.
PROBE_REF_S = 0.014
PROBE_WINDOW_S = 5.0  # a call's scale comes from the probes this close to it
MIN_PASSES = 2
MIN_REPLANS = 100  # so that ten timed replans lie beyond replan_ms_p90
EXTRA_SETUPS = 2  # set-ups before the first pass, on top of one per pass
RESIDUAL_TOL = 1e-12  # x_{t+1} - x_t - u_t dt, exact up to rounding
BOUND_TOL = 1e-4  # the solver's default constraint tolerance
COVERAGE_TOL = 0.05  # traced layer self times must cover the traced planning time
PLANNING_LAYERS = (
    "kinematics.fk_batch",
    "kinematics.position_jacobians",
    "costs.value",
    "costs.state_derivatives",
    "costs.evaluator_init",
    "solver.backward_pass",
    "solver.forward_pass",
    "solver.solve",
    "prediction.slice_horizon",
    "mpc.build_problem",
)
QUALITY_METRICS = ("min_sep_m", "dst", "vis", "leg", "nom")

_rng = np.random.default_rng(0)
_PROBE_A = _rng.standard_normal((8, 7, 7))
_PROBE_SPD = _PROBE_A @ np.swapaxes(_PROBE_A, 1, 2) + 7.0 * np.eye(7)
_PROBE_X = _rng.standard_normal((6, 7))


def speed_probe(reps: int = 120) -> float:
    """Wall time of a fixed kernel with the planner's mix of work: 7x7
    Cholesky factorizations and solves, small einsums and trigonometry,
    and interpreted float arithmetic."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(reps):
        for spd in _PROBE_SPD:
            s = np.linalg.solve(np.linalg.cholesky(spd), _PROBE_X.T)
            acc += float(np.einsum("ij,ij->", s, s))
        y = np.cos(_PROBE_X)[:, :, None] * np.sin(_PROBE_X)[:, None, :]
        acc += float(y.sum())
        for i in range(50):
            acc += i * 0.5
    return perf_counter() - t0


def fresh_import():
    """Import the package from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "anticip_mpc" or m.startswith("anticip_mpc.")]:
        del sys.modules[name]
    return importlib.import_module("anticip_mpc")


def machine_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy builds without the dict form
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


@dataclass
class Outcome:
    """One run_mpc call: its replan times, output checks and plan quality."""

    seed: int
    attempted: int
    failed: int = 0
    replan_s: list = field(default_factory=list)  # raw wall times
    scale: float = 1.0  # converts this call's times to reference machine speed
    t_mid: float = 0.0  # when the call ran
    quality: Optional[dict] = None
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.quality is not None


def plan_quality(pkg, trace) -> dict:
    report = pkg.metrics.evaluate_trace(trace)
    dq = float(np.dot(trace.eef_quats[-1], trace.goal_orientation))
    return {
        "seed": trace.seed,
        "dst": report.dst,
        "vis": report.vis,
        "leg": report.leg,
        "nom": report.nom,
        "min_sep_m": float(trace.min_human_dist.min()),
        "goal_pos_err_m": float(np.linalg.norm(trace.eef_positions[-1] - trace.goal_position)),
        "goal_orient_err": 1.0 - dq * dq,
        "final_cost": float(trace.replans[-1].result.total_cost),
        "goal_reached": bool(trace.goal_reached),
        "replans": len(trace.replans),
        "inner_iters": sum(r.result.iterations for r in trace.replans),
    }


def replan_problems(trace, dt: float) -> list[tuple[int, str]]:
    """Output checks on every replan's returned plan."""
    problems = []
    for k, record in enumerate(trace.replans):
        res = record.result
        residual = float(np.max(np.abs(res.states[1:] - res.states[:-1] - res.controls * dt)))
        if not residual <= RESIDUAL_TOL:
            problems.append((k, f"dynamics residual {residual:.3g} > {RESIDUAL_TOL:g}"))
        if not np.isfinite(res.total_cost):
            problems.append((k, f"non-finite cost {res.total_cost}"))
        if res.converged and not res.max_bound_violation < BOUND_TOL:
            problems.append((k, f"converged with bound violation {res.max_bound_violation:.3g}"))
    return problems


def plan_once(pkg, scenario) -> Outcome:
    cfg = scenario.mpc
    expected = math.ceil(cfg.task_steps / cfg.replan_steps)
    try:
        trace = pkg.mpc.run_mpc(scenario)
    except pkg.errors.SolverError as exc:
        # run_mpc discards the partial trace, so the whole trajectory fails
        return Outcome(scenario.seed, expected, expected, problems=[f"SolverError: {exc}"])
    outcome = Outcome(scenario.seed, len(trace.replans), replan_s=trace.replan_wall_times())
    problems = replan_problems(trace, cfg.dt)
    outcome.failed = len({k for k, _ in problems})
    outcome.problems = [f"replan {k}: {msg}" for k, msg in problems]
    outcome.quality = plan_quality(pkg, trace)
    return outcome


class Runner:
    """Plans every scenario of a workload once per pass.

    Each pass starts with a set-up: a fresh import of the package and the
    loading of every scenario. With a tracer, each scenario is planned
    untraced and traced, in alternating order, and the first pass's set-up
    is traced too.
    """

    def __init__(self, workload, inputs, tracer: Optional[Tracer]):
        self.workload = workload
        self.inputs = inputs
        self.tracer = tracer
        self.setups: list[tuple[float, float]] = []  # (wall time, when)
        self.untraced: list[Outcome] = []
        self.traced: list[Outcome] = []
        self.traj_ids: dict[int, Outcome] = {}  # traced trajectory id -> outcome
        self.traced_setup_t: Optional[float] = None
        self.first: dict[int, dict] = {}  # seed -> quality of its first run
        self.first_pass_traced: set[int] = set()  # trajectory ids
        self.passes = 0
        self.pkg = None
        self.period = None
        self.probes: list[tuple[float, float]] = []  # (when, probe time)

    def probe(self) -> None:
        t0 = perf_counter()
        duration = speed_probe()
        self.probes.append((t0 + 0.5 * duration, duration))

    def timed(self, fn):
        """Call fn, then probe the machine's speed; return fn's result and
        the midpoint of the call."""
        t0 = perf_counter()
        result = fn()
        t1 = perf_counter()
        self.probe()
        return result, 0.5 * (t0 + t1)

    def scale_at(self, t: float) -> float:
        """Factor converting wall time at time t to reference speed, from
        the median of the probes within PROBE_WINDOW_S of t."""
        when = np.array([p[0] for p in self.probes])
        durations = np.array([p[1] for p in self.probes])
        near = np.abs(when - t) <= PROBE_WINDOW_S
        if not near.any():
            near = np.abs(when - t) == np.min(np.abs(when - t))
        return PROBE_REF_S / float(np.median(durations[near]))

    def set_up(self, traced: bool) -> list:
        def load():
            t0 = perf_counter()
            self.pkg = fresh_import()
            if traced:
                self.tracer.install(self.pkg)
            try:
                scenarios = self.workload.load(self.pkg, self.inputs)
            finally:
                if traced:
                    self.tracer.uninstall()
            return scenarios, perf_counter() - t0

        (scenarios, wall), when = self.timed(load)
        self.setups.append((wall, when))
        if traced:
            self.traced_setup_t = when
        self.period = scenarios[0].mpc.replan_period
        return scenarios

    def record(self, outcome: Outcome) -> Outcome:
        q = outcome.quality
        if q is not None and q != self.first.setdefault(outcome.seed, q):
            outcome.problems.append(f"seed {outcome.seed}: plan differs from its first run")
            outcome.failed = outcome.attempted
        return outcome

    def plan_untraced(self, scenario) -> None:
        outcome, outcome_t = self.timed(lambda: plan_once(self.pkg, scenario))
        outcome.t_mid = outcome_t
        self.untraced.append(self.record(outcome))

    def plan_traced(self, scenario, traj: int) -> None:
        def traced():
            self.tracer.traj = traj
            self.tracer.install(self.pkg)
            try:
                return plan_once(self.pkg, scenario)
            finally:
                self.tracer.uninstall()

        outcome, outcome_t = self.timed(traced)
        outcome.t_mid = outcome_t
        self.traj_ids[traj] = outcome
        self.traced.append(self.record(outcome))

    def resolve_scales(self) -> None:
        """Give every timed call its scale, once all probes are in."""
        for o in self.outcomes():
            o.scale = self.scale_at(o.t_mid)

    def setup_s(self, scaled: bool) -> list[float]:
        return [wall * (self.scale_at(t) if scaled else 1.0) for wall, t in self.setups]

    def span_scale(self) -> dict[int, float]:
        scale = {traj: o.scale for traj, o in self.traj_ids.items()}
        scale[-1] = self.scale_at(self.traced_setup_t)
        return scale

    def run(self, seconds: float) -> None:
        """Whole passes until ``seconds`` have elapsed; untraced, also at
        least MIN_PASSES passes and MIN_REPLANS timed replans."""
        t0 = perf_counter()
        speed_probe()  # warm-up
        self.probe()
        for _ in range(EXTRA_SETUPS):
            self.set_up(traced=False)
        traj = 0
        while True:
            scenarios = self.set_up(traced=self.tracer is not None and self.passes == 0)
            if self.passes == 0:
                plan_once(self.pkg, scenarios[0])  # warm-up, discarded
            for scenario in scenarios:
                if self.tracer is None:
                    self.plan_untraced(scenario)
                    continue
                if traj % 2 == 0:
                    self.plan_untraced(scenario)
                    self.plan_traced(scenario, traj)
                else:
                    self.plan_traced(scenario, traj)
                    self.plan_untraced(scenario)
                if self.passes == 0:
                    self.first_pass_traced.add(traj)
                traj += 1
            self.passes += 1
            if perf_counter() - t0 < seconds:
                continue
            timed = sum(len(o.replan_s) for o in self.untraced)
            if self.tracer is not None or (self.passes >= MIN_PASSES and timed >= MIN_REPLANS):
                self.resolve_scales()
                return

    def outcomes(self) -> list[Outcome]:
        return self.untraced + self.traced


def _mean_or_none(values):
    return float(np.mean(values)) if len(values) else None


def _latency(outcomes: list[Outcome], scaled: bool, period: float) -> dict:
    ok = [o for o in outcomes if o.ok]
    traj = [(o.scale if scaled else 1.0) * sum(o.replan_s) for o in ok]
    replan = [(o.scale if scaled else 1.0) * t for o in ok for t in o.replan_s]
    return {
        "plan_s_mean": _mean_or_none(traj),
        "plan_s_p50": float(np.median(traj)) if traj else None,
        "replan_ms_p50": 1e3 * float(np.percentile(replan, 50)) if replan else None,
        "replan_ms_p90": 1e3 * float(np.percentile(replan, 90)) if replan else None,
        # a failed replan misses its deadline whatever its time
        "deadline_met_frac": sum(t <= period for t in replan) / sum(o.attempted for o in outcomes),
    }


def end_to_end(runner: Runner) -> dict:
    outcomes = runner.untraced
    metrics = _latency(outcomes, True, runner.period)
    metrics["setup_s"] = float(np.median(runner.setup_s(scaled=True)))
    metrics["replan_ok_frac"] = 1.0 - sum(o.failed for o in outcomes) / sum(o.attempted for o in outcomes)
    quality = list(runner.first.values())
    for name in QUALITY_METRICS:
        metrics[name] = _mean_or_none([q[name] for q in quality])
    return metrics


def per_layer(runner: Runner) -> dict:
    spans = runner.tracer.spans
    traced_ids = {s.traj for s in spans if s.traj >= 0}
    metrics = layer_metrics(
        spans, traced_ids, runner.first_pass_traced, len(runner.inputs), runner.span_scale()
    )
    traced_mean = _latency(runner.traced, True, runner.period)["plan_s_mean"]
    untraced_mean = _latency(runner.untraced, True, runner.period)["plan_s_mean"]
    layer_sum = sum(metrics[f"{name}.self_s"] for name in PLANNING_LAYERS)
    metrics["layers.self_sum_frac"] = layer_sum / traced_mean if traced_mean else None
    metrics["tracing.overhead_frac"] = (
        traced_mean / untraced_mean - 1.0 if traced_mean and untraced_mean else None
    )
    return metrics


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, workdir: Path, n_scenarios: Optional[int] = None
) -> dict:
    """Run one workload and return its result: the contract's four fields
    plus the machine, raw wall times, the scenario seeds and the per-seed
    quality block."""
    workload = WORKLOADS[name]
    seeds = scenario_seeds(seed, n_scenarios or workload.n_scenarios)
    inputs = workload.prepare(seeds, workdir / f"{name}-seed{seed}")
    runner = Runner(workload, inputs, Tracer() if trace else None)
    runner.run(seconds)

    outcomes = runner.outcomes()
    problems = [p for o in outcomes for p in o.problems]
    if trace:
        metrics = per_layer(runner)
        coverage = metrics["layers.self_sum_frac"]
        if coverage is None or abs(coverage - 1.0) > COVERAGE_TOL:
            problems.append(f"layer self times cover {coverage} of traced planning time")
    else:
        metrics = end_to_end(runner)
    scales = [o.scale for o in outcomes]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "correct": not problems and failed == 0 and all(v is not None for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "wall": {
            **_latency(runner.untraced, False, runner.period),
            "setup_s": float(np.median(runner.setup_s(scaled=False))),
            "speed_scale_p50": float(np.median(scales)),
            "speed_scale_min": float(np.min(scales)),
            "speed_scale_max": float(np.max(scales)),
        },
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": runner.passes,
        "trajectories": len(outcomes),
        "scenario_seeds": seeds,
        "setup_s": runner.setup_s(scaled=True),
        "machine": machine_info(),
        "quality": [runner.first[s] for s in seeds if s in runner.first],
        "problems": problems[:50],
    }
