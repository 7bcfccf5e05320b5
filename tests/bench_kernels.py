"""Microbenchmarks of the solver's per-iteration kernels (pytest-benchmark).

Tier-1 does not collect this file; run it by naming it:

    PYTHONPATH=src python -m pytest tests/bench_kernels.py

Add ``--benchmark-disable`` to run each case once as a plain test. Every case
works on the default scenario at the first replan's warm start: the reference
horizon (6 knots) or the one-shot plan (21 knots), and for the cost kernels
also the reference horizon against a 17-joint human on a 0.1 s grid, the
shape of perfbench's ``fullbody`` workload.

These timings show where a kernel's time goes; they cannot show a 10% change.
On a shared 2-CPU VM, with pytest-benchmark's defaults, cases spread by 25-100%
of their medians (interquartile range), and even a min-of-5 ``timeit`` of
``state_derivatives`` on the reference horizon read 149-239 us across four
runs of one tree. Claim a per-layer gain from perfbench's traced layer
table instead (``python3 perfbench/run.py --workload W --seed S --seconds 0
--trace 1``), whose self times are converted to reference speed and whose call
counts are exact.
"""

from pathlib import Path

import numpy as np
import pytest

from anticip_mpc.cli import default_scenario_dict
from anticip_mpc.kinematics import default_robot_model, fk_batch, model_to_dict
from anticip_mpc.mpc import build_problem, linear_warm_start, scenario_from_dict
from anticip_mpc.solver import _FIRST_STAGE, _assemble_derivs, backward_pass, forward_pass, rollout


def _iterate(horizon: float, n_human: int = 5):
    """The first solve's problem and its warm start (states, controls), with
    the default 5-joint human or a 17-joint skeleton predicted every 0.1 s."""
    data = default_scenario_dict(seed=51000, horizon=horizon, replan=min(horizon, 0.5))
    data["robot_model"] = model_to_dict(default_robot_model())
    if n_human == 17:
        data["prediction"]["synthesize"].update(
            joint_names=[f"j{i}" for i in range(17)],
            head_index=10,
            rest_positions=[[1.05 + 0.01 * i, -0.3 + 0.6 * i / 16, 0.05 + 0.03 * i] for i in range(17)],
            reach_joint=16,
            dt=0.1,
        )
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


@pytest.fixture(scope="module")
def fullbody():
    return _iterate(1.25, n_human=17)


@pytest.mark.parametrize("rows", [6, 24, 84])
def test_fk_batch(benchmark, rows):
    model = default_robot_model()
    qs = np.random.default_rng(rows).uniform(-2.0, 2.0, (rows, model.n_joints))
    benchmark(fk_batch, model, qs)


def _first_stage(xs, us):
    """Candidates around (xs, us), as many as a solve's first line search scores in its first stage."""
    steps = 2.0 ** -np.arange(_FIRST_STAGE)[:, None, None]
    return xs[None] * (1.0 + 0.01 * steps), us[None] * (1.0 + steps)


@pytest.mark.parametrize("horizon", ["reference", "oneshot", "fullbody"])
def test_value(benchmark, horizon, request):
    problem, xs, us = request.getfixturevalue(horizon)
    benchmark(problem.cost.value, *_first_stage(xs, us))


@pytest.mark.parametrize("horizon", ["reference", "oneshot", "fullbody"])
def test_state_derivatives(benchmark, horizon, request):
    """The hit path of a one-trajectory stack: derivatives read the term
    record that scoring the same trajectory kept, as at a solve's warm start:
    its FK, Mahalanobis forms, gaze cosines and goal probabilities, its
    residuals p - targets for the norm rows' gradients and its product
    R R_g^T for the orientation row's."""
    problem, xs, us = request.getfixturevalue(horizon)
    problem.cost.value(xs, us)
    benchmark(problem.cost.state_derivatives, xs)


@pytest.mark.parametrize("horizon", ["reference", "oneshot", "fullbody"])
def test_scored_then_derivatives(benchmark, horizon, request):
    """One line-search stage and the next iterate's derivatives: value on the
    four first-stage candidates, then state_derivatives of the one accepted,
    which finds it in the kept term record by content and reads that
    candidate's entries, the residuals and R R_g^T among them, forming no FK,
    residual or rotation product of its own."""
    problem, xs, us = request.getfixturevalue(horizon)
    cand_xs, cand_us = _first_stage(xs, us)
    accepted = cand_xs[1].copy()

    def scored_then_derivatives():
        problem.cost.value(cand_xs, cand_us)
        return problem.cost.state_derivatives(accepted)

    benchmark(scored_then_derivatives)


@pytest.mark.parametrize("horizon", ["reference", "oneshot", "fullbody"])
def test_state_derivatives_miss(benchmark, horizon, request):
    """Derivatives of a trajectory the kept stack does not hold: a term record
    of its own, FK included."""
    problem, xs, us = request.getfixturevalue(horizon)
    cand_xs, cand_us = _first_stage(xs, us)
    problem.cost.value(cand_xs, cand_us)
    benchmark(problem.cost.state_derivatives, xs)


@pytest.mark.parametrize("horizon", ["reference", "oneshot"])
def test_backward_pass(benchmark, horizon, request):
    problem, xs, us = request.getfixturevalue(horizon)
    derivs = _assemble_derivs(problem, xs, us)
    benchmark(backward_pass, problem, derivs)


@pytest.mark.parametrize("horizon", ["reference", "oneshot"])
def test_derivatives_and_backward_pass(benchmark, horizon, request):
    """One iteration's model and gains: the derivatives, which read the term
    record that scoring the same trajectory kept, then the backward pass."""
    problem, xs, us = request.getfixturevalue(horizon)
    problem.cost.value(xs, us)

    def derivatives_and_backward_pass():
        return backward_pass(problem, _assemble_derivs(problem, xs, us))

    benchmark(derivatives_and_backward_pass)


@pytest.mark.parametrize("last_step", [None, 1 / 16], ids=["first-search", "deep-first-stage"])
@pytest.mark.parametrize("horizon", ["reference", "oneshot"])
def test_forward_pass(benchmark, horizon, last_step, request):
    """A solve's first search (four first-stage steps), and a later one after an
    accepted step of 1/16, whose first stage scores seven."""
    problem, xs, us = request.getfixturevalue(horizon)
    gains = backward_pass(problem, _assemble_derivs(problem, xs, us))
    benchmark(forward_pass, problem, xs, us, gains, float(problem.cost.value(xs, us)), last_step)
