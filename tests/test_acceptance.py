"""Acceptance suite: every criterion in one test with a printed PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured numbers.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from anticip_mpc import (
    GoalSpec,
    run_mpc,
    solve,
)
from anticip_mpc.cli import default_scenario_dict
from anticip_mpc.kinematics import default_robot_model, model_to_dict
from anticip_mpc.metrics import evaluate_trace, separation_metric
from anticip_mpc.mpc import build_problem, linear_warm_start, scenario_from_dict

from conftest import random_context, solve_default
from oracles import (
    LegibilityContext, goal_pose_cost, goal_probabilities, legibility_cost, lqr_tracking_solution, total_knot_cost,
)
from test_solver import quadratic_problem

N_SCENARIOS = 20
LATENCY_BOUND_S = 0.5
BENCH_WALL_BOUND_S = 120.0


def make_scenario(seed, horizon=1.25, replan=0.5, **weight_overrides):
    data = default_scenario_dict(seed=seed, horizon=horizon, replan=replan)
    data["robot_model"] = model_to_dict(default_robot_model())
    data["weights"].update(weight_overrides)
    return scenario_from_dict(data, Path("."))


@pytest.fixture(scope="module")
def latency_batch():
    """Warm-up run plus N seeded simulations at the reference configuration."""
    t0 = time.perf_counter()
    run_mpc(make_scenario(seed=1000))  # discarded warm-up
    traces = [run_mpc(make_scenario(seed=s)) for s in range(N_SCENARIOS)]
    wall = time.perf_counter() - t0
    return traces, wall


def test_latency(latency_batch):
    """Mean per-trajectory planning time at the reference configuration."""
    traces, bench_wall = latency_batch
    scenario = make_scenario(seed=0)
    assert scenario.model.n_joints == 7
    assert scenario.prediction.n_joints == 5
    assert scenario.mpc.dt == 0.25 and scenario.mpc.horizon == 1.25
    assert scenario.mpc.replan_period == 0.5 and scenario.mpc.task_duration == 5.0

    per_traj = np.array([sum(t.replan_wall_times()) for t in traces])
    mean = float(per_traj.mean())
    assert len(traces) >= 20
    assert mean <= LATENCY_BOUND_S, f"mean planning time {mean:.3f}s exceeds {LATENCY_BOUND_S}s"
    assert bench_wall < BENCH_WALL_BOUND_S
    print(
        f"\nACCEPTANCE latency: PASS mean={mean:.3f}s std={per_traj.std(ddof=1):.3f}s "
        f"max={per_traj.max():.3f}s over {len(traces)} runs (bench wall {bench_wall:.1f}s)"
    )


def test_solver_riccati_oracle():
    """Quadratic problems with inactive bounds match an independent Riccati recursion."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        problem, (Q, R, Qf, x_refs, x0, dt) = quadratic_problem(rng)
        xs_ref, _, _ = lqr_tracking_solution(Q, R, Qf, x_refs, x0, dt)
        result = solve_default(problem)
        err = float(np.max(np.abs(result.states - xs_ref)))
        worst = max(worst, err)
        assert err < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE solver_oracle: PASS 50 problems, worst state error {worst:.2e}, {elapsed:.2f}s")


def test_gradient_suite(seven_dof):
    """Analytic knot-cost gradients against central finite differences."""
    rng = np.random.default_rng(7)
    h = 1e-6
    worst = 0.0
    n_samples = 200
    for _ in range(n_samples):
        q = rng.uniform(-1.2, 1.2, 7)
        u = rng.uniform(-1, 1, 7)
        ctx = random_context(rng, seven_dof, q)
        grad = total_knot_cost(seven_dof, q, u, ctx).grad_x
        fd = np.empty(7)
        for j in range(7):
            dq = np.zeros(7)
            dq[j] = h
            fd[j] = (
                total_knot_cost(seven_dof, q + dq, u, ctx).value
                - total_knot_cost(seven_dof, q - dq, u, ctx).value
            ) / (2 * h)
        err = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-9)
        worst = max(worst, err)
        assert err < 1e-4
    print(f"\nACCEPTANCE gradient_suite: PASS {n_samples} samples, worst relative error {worst:.2e}")


def test_legibility_cancellation():
    """Decoupled goal probability equals the un-factored normalized form with a
    shared path-cost term injected."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        goals = rng.uniform(-1.2, 1.2, (k, 3))
        start = rng.uniform(-1.2, 1.2, 3)
        q_pos = rng.uniform(-1.2, 1.2, 3)
        gi = int(rng.integers(k))
        d_hat = float(rng.uniform(0.0, 5.0))
        ctx = LegibilityContext(start=start, goals=goals, goal_index=gi)
        decoupled = legibility_cost(q_pos, ctx)

        def unnormalized(g):
            return np.exp(-d_hat - np.sum((g - q_pos) ** 2)) / np.exp(-np.sum((g - start) ** 2))

        direct = 1.0 - unnormalized(goals[gi]) / sum(unnormalized(g) for g in goals)
        err = abs(direct - decoupled) / max(abs(direct), 1e-30)
        worst = max(worst, err)
        assert err < 1e-10
    print(f"\nACCEPTANCE legibility_cancellation: PASS 100 goal sets, worst relative error {worst:.2e}")


def test_feasibility(latency_batch):
    """Dynamics hold to 1e-12 per step; every solve lies inside its bounds."""
    traces, _ = latency_batch
    n_checked = 0
    for trace in traces:
        for record in trace.replans:
            res = record.result
            residual = res.states[1:] - res.states[:-1] - res.controls * 0.25
            assert np.max(np.abs(residual)) <= 1e-12
            assert res.max_bound_violation == 0.0
            n_checked += 1
    rng = np.random.default_rng(3)
    for _ in range(10):
        problem, _ = quadratic_problem(rng, bounds=0.5)
        res = solve_default(problem)
        residual = res.states[1:] - res.states[:-1] - res.controls * problem.dt
        assert np.max(np.abs(residual)) <= 1e-12
        assert res.max_bound_violation == 0.0
        n_checked += 1
    print(f"\nACCEPTANCE feasibility: PASS {n_checked} solves checked")


def test_velocity_bounds():
    """No replan returns, and no executed step runs, a velocity outside the
    box: receding-horizon and one-shot (horizon = replan = task) runs, in the
    default robot's ±2 rad/s box and in a ±1 rad/s one. Some returned controls
    sit on a bound of each box, so a control the solve failed to clamp would
    show."""
    n_replans = 0
    worst = 0.0
    on_bound = {}
    for box in (2.0, 1.0):
        on_bound[box] = 0
        for seed in range(5):
            for horizon, replan in ((1.25, 0.5), (5.0, 5.0)):
                scenario = make_scenario(seed, horizon=horizon, replan=replan)
                n = scenario.model.n_joints
                model = replace(scenario.model, vel_lower=np.full(n, -box), vel_upper=np.full(n, box))
                trace = run_mpc(replace(scenario, model=model))
                for record in trace.replans:
                    assert record.result.max_bound_violation == 0.0
                    controls = record.result.controls
                    assert np.all(controls >= model.vel_lower) and np.all(controls <= model.vel_upper)
                    on_bound[box] += int(np.count_nonzero((controls == model.vel_lower) | (controls == model.vel_upper)))
                    n_replans += 1
                velocity = np.diff(trace.states, axis=0) / scenario.mpc.dt
                excess = max(np.max(velocity - model.vel_upper), np.max(model.vel_lower - velocity))
                assert excess <= 1e-12
                worst = max(worst, excess)
        assert on_bound[box] > 0, f"no returned control reached the ±{box:g} rad/s box, so the check could not fail"
    print(
        f"\nACCEPTANCE velocity_bounds: PASS {n_replans} replans inside the box, controls on a bound "
        f"{on_bound[2.0]} (±2 rad/s) and {on_bound[1.0]} (±1 rad/s), executed excess {worst:.1e} rad/s"
    )


def test_degenerate_mpc_equivalence():
    """One-shot configuration reproduces the single solve bit-identically."""
    scenario = make_scenario(seed=5, horizon=5.0, replan=5.0)
    trace = run_mpc(scenario)
    problem = build_problem(scenario, 0.0, scenario.mpc.task_steps + 1, scenario.start_q)
    cfg = scenario.mpc
    warm = linear_warm_start(scenario.start_q, scenario.goal_q, cfg.task_steps, cfg.dt)
    result = solve(problem, warm)
    assert len(trace.replans) == 1
    assert np.array_equal(trace.states, result.states)
    assert np.array_equal(trace.replans[0].result.controls, result.controls)
    print("\nACCEPTANCE degenerate_mpc: PASS trace is bit-identical to the one-shot solve")


def test_behavioral_anticipation():
    """Separation cost makes the robot yield to a human crossing its path."""
    seed = 0
    with_dist = run_mpc(make_scenario(seed, w_dist=2.0))
    without = run_mpc(make_scenario(seed, w_dist=0.0))

    # the synthesized reach really crosses the path: without avoidance the
    # robot passes well inside the 20 cm threshold
    min_with = float(with_dist.min_human_dist.min())
    min_without = float(without.min_human_dist.min())
    assert min_without < 0.2
    assert min_with > min_without

    dst_with = separation_metric(with_dist)
    dst_without = separation_metric(without)
    assert dst_with >= dst_without
    print(
        f"\nACCEPTANCE anticipation: PASS min separation {min_without:.3f}m -> {min_with:.3f}m, "
        f"Dst {dst_without:.2f} -> {dst_with:.2f}"
    )


def test_quaternion_invariance():
    """Goal-pose cost is exactly invariant under quaternion negation."""
    rng = np.random.default_rng(13)
    for _ in range(100):
        q1 = rng.normal(size=4)
        q1 /= np.linalg.norm(q1)
        q2 = rng.normal(size=4)
        q2 /= np.linalg.norm(q2)
        p1 = rng.uniform(-1, 1, 3)
        p2 = rng.uniform(-1, 1, 3)
        base = goal_pose_cost(GoalSpec(p1, q1), GoalSpec(p2, q2))
        assert goal_pose_cost(GoalSpec(p1, -q1), GoalSpec(p2, q2)) == base
        assert goal_pose_cost(GoalSpec(p1, q1), GoalSpec(p2, -q2)) == base
    print("\nACCEPTANCE quaternion_invariance: PASS 100 random quaternions, exact equality")


def test_metric_probabilities(latency_batch):
    """Goal probabilities sum to one; fraction metrics stay inside [0, 1]."""
    rng = np.random.default_rng(17)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        ctx = LegibilityContext(
            start=rng.uniform(-1, 1, 3), goals=rng.uniform(-1, 1, (k, 3)), goal_index=0
        )
        probs = goal_probabilities(rng.uniform(-1, 1, 3), ctx)
        assert abs(float(probs.sum()) - 1.0) <= 1e-12

    traces, _ = latency_batch
    for trace in traces[:5]:
        report = evaluate_trace(trace)
        assert 0.0 <= report.dst <= 1.0
        assert 0.0 <= report.vis <= 1.0
        assert 0.0 < report.leg < 1.0
    print("\nACCEPTANCE metric_probabilities: PASS sums within 1e-12, fractions in range")
