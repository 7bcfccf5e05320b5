"""Microbenchmarks of the solver's per-iteration kernels (pytest-benchmark).

Tier-1 does not collect this file; run it by naming it:

    PYTHONPATH=src python -m pytest tests/bench_kernels.py

Add ``--benchmark-disable`` to run each case once as a plain test. Every case
works on the default scenario: the reference horizon (6 knots) or the
one-shot plan (21 knots), at the first replan's warm start.
"""

from pathlib import Path

import numpy as np
import pytest

from anticip_mpc.cli import default_scenario_dict
from anticip_mpc.kinematics import default_robot_model, fk_batch, model_to_dict
from anticip_mpc.mpc import build_problem, linear_warm_start, scenario_from_dict
from anticip_mpc.solver import _assemble_derivs, backward_pass, forward_pass, rollout


def _iterate(horizon: float):
    """The first solve's problem and its warm start (states, controls)."""
    data = default_scenario_dict(seed=51000, horizon=horizon, replan=min(horizon, 0.5))
    data["robot_model"] = model_to_dict(default_robot_model())
    scenario = scenario_from_dict(data, Path("."))
    n_knots = scenario.mpc.horizon_knots
    problem = build_problem(scenario, 0.0, n_knots, scenario.start_q)
    us = linear_warm_start(scenario.start_q, scenario.goal_q, n_knots - 1, scenario.mpc.dt)
    us = np.clip(us, problem.u_lower, problem.u_upper)
    return problem, rollout(problem, us), us


@pytest.fixture(scope="module")
def reference():
    return _iterate(1.25)


@pytest.fixture(scope="module")
def oneshot():
    return _iterate(5.0)


@pytest.mark.parametrize("rows", [6, 24, 84])
def test_fk_batch(benchmark, rows):
    model = default_robot_model()
    qs = np.random.default_rng(rows).uniform(-2.0, 2.0, (rows, model.n_joints))
    benchmark(fk_batch, model, qs)


def test_value(benchmark, reference):
    problem, xs, us = reference
    steps = 2.0 ** -np.arange(4)[:, None, None]  # four candidates, as the line search's first stage
    benchmark(problem.cost.value, xs[None] * (1.0 + 0.01 * steps), us[None] * (1.0 + steps))


def test_state_derivatives(benchmark, reference):
    problem, xs, us = reference
    problem.cost.value(xs, us)  # derivatives reuse the FK of the scored rows, as in a solve
    benchmark(problem.cost.state_derivatives, xs)


@pytest.mark.parametrize("horizon", ["reference", "oneshot"])
def test_backward_pass(benchmark, horizon, request):
    problem, xs, us = request.getfixturevalue(horizon)
    derivs = _assemble_derivs(problem, xs, us)
    benchmark(backward_pass, problem, derivs)


@pytest.mark.parametrize("horizon", ["reference", "oneshot"])
def test_forward_pass(benchmark, horizon, request):
    problem, xs, us = request.getfixturevalue(horizon)
    gains = backward_pass(problem, _assemble_derivs(problem, xs, us))
    benchmark(forward_pass, problem, xs, us, gains, float(problem.cost.value(xs, us)))
