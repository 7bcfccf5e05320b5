import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from anticip_mpc import (
    CostWeights,
    InvalidInputError,
    SolverError,
    TrajectoryProblem,
    backward_pass,
    forward_pass,
    rollout,
    solve,
)
from anticip_mpc.costs import HESS_FLOOR
import anticip_mpc.solver as solver_module
from anticip_mpc.solver import (
    BackwardPassResult,
    _assemble_derivs,
    _first_stage_size,
    max_bound_violation,
)
from anticip_mpc.cli import default_scenario_dict
from anticip_mpc.kinematics import model_to_dict
from anticip_mpc.mpc import build_problem, linear_warm_start, scenario_from_dict

from conftest import backward, forward, problem_from_contexts, random_contexts, solve_default
from oracles import (
    QuadraticCost,
    adjoint_gradient,
    backward_pass_full_form,
    dense_qp_solution,
    forward_pass_one_call,
    lbfgsb_reference,
    line_search_loop,
    lqr_tracking_solution,
    textbook_rollout,
)

ROLLOUT_RTOL = 1e-12  # the offset rollout against the textbook one: they differ by rounding
SHORTEST_FIRST_STAGE_STEP = 2.0 ** (1 - solver_module._FIRST_STAGE)  # a solve's first search
# the step a solve's previous search accepted, which sets every first-stage depth: 3 to all 11 steps
LAST_STEPS = [None] + [2.0**-k for k in range(11)]


def shortest_first_stage_step(last_step):
    """The shortest step a search's first cost call scores after accepting last_step."""
    return SHORTEST_FIRST_STAGE_STEP if last_step is None else max(last_step / 4, 2.0**-10)


def quadratic_problem(rng, n=None, n_knots=None, bounds=10.0):
    n = n or int(rng.integers(1, 4))
    n_knots = n_knots or int(rng.integers(4, 13))
    a = rng.normal(size=(n, n))
    Q = a @ a.T + 0.5 * np.eye(n)
    b = rng.normal(size=(n, n))
    R = 0.1 * (b @ b.T) + 0.2 * np.eye(n)
    Qf = Q * float(rng.uniform(0.5, 2.0))
    x_refs = rng.uniform(-1, 1, (n_knots, n))
    x0 = rng.uniform(-1, 1, n)
    dt = float(rng.uniform(0.1, 0.5))
    cost = QuadraticCost(Q=Q, R=R, x_ref=x_refs, Qf=Qf)
    problem = TrajectoryProblem(
        n_knots=n_knots,
        dt=dt,
        x0=x0,
        cost=cost,
        u_lower=-bounds * np.ones(n),
        u_upper=bounds * np.ones(n),
    )
    return problem, (Q, R, Qf, x_refs, x0, dt)


def assert_dynamically_feasible(problem, result):
    steps = result.states[1:] - result.states[:-1] - result.controls * problem.dt
    assert np.max(np.abs(steps)) <= 1e-12


class TestRollout:
    def test_zero_controls_hold_state(self):
        problem, _ = quadratic_problem(np.random.default_rng(0), n=2, n_knots=5)
        states = rollout(problem, np.zeros((4, 2)))
        assert np.array_equal(states, np.tile(problem.x0, (5, 1)))

    def test_hand_integration(self):
        problem, _ = quadratic_problem(np.random.default_rng(1), n=1, n_knots=3)
        problem.dt = 0.25
        problem.x0 = np.array([0.0])
        states = rollout(problem, np.array([[1.0], [1.0]]))
        assert np.array_equal(states.ravel(), [0.0, 0.25, 0.5])

    def test_steps_match_definition(self):
        rng = np.random.default_rng(2)
        problem, _ = quadratic_problem(rng, n=3, n_knots=8)
        us = rng.uniform(-2, 2, (7, 3))
        states = rollout(problem, us)
        np.testing.assert_allclose(states[1:] - states[:-1], us * problem.dt, atol=1e-15)

    def test_dimension_mismatch(self):
        problem, _ = quadratic_problem(np.random.default_rng(3), n=2, n_knots=5)
        with pytest.raises(InvalidInputError):
            rollout(problem, np.zeros((3, 2)))


class TestRiccatiOracle:
    def test_oracle_agrees_with_dense_qp(self):
        rng = np.random.default_rng(4)
        _, (Q, R, Qf, x_refs, x0, dt) = quadratic_problem(rng, n=2, n_knots=6)
        xs_r, us_r, _ = lqr_tracking_solution(Q, R, Qf, x_refs, x0, dt)
        xs_qp, us_qp = dense_qp_solution(Q, R, Qf, x_refs, x0, dt)
        np.testing.assert_allclose(xs_r, xs_qp, atol=1e-8)
        np.testing.assert_allclose(us_r, us_qp, atol=1e-8)

    def test_one_dof_tracking(self):
        # pull x toward 1 with cost |x - 1|^2 + 0.1 |u|^2, bounds inactive
        Q = np.eye(1)
        R = 0.1 * np.eye(1)
        x_refs = np.ones((8, 1))
        problem = TrajectoryProblem(
            n_knots=8,
            dt=0.25,
            x0=np.zeros(1),
            cost=QuadraticCost(Q=Q, R=R, x_ref=x_refs),
            u_lower=np.array([-10.0]),
            u_upper=np.array([10.0]),
        )
        xs_ref, _, _ = lqr_tracking_solution(Q, R, Q, x_refs, np.zeros(1), 0.25)
        result = solve_default(problem)
        assert result.converged
        assert np.max(np.abs(result.states - xs_ref)) < 1e-6
        assert result.max_bound_violation == 0.0

    def test_solve_matches_riccati(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            problem, (Q, R, Qf, x_refs, x0, dt) = quadratic_problem(rng)
            xs_ref, _, _ = lqr_tracking_solution(Q, R, Qf, x_refs, x0, dt)
            result = solve_default(problem)
            assert np.max(np.abs(result.states - xs_ref)) < 1e-6
            assert result.converged
            assert_dynamically_feasible(problem, result)

    def test_backward_pass_gains_match_lqr(self):
        rng = np.random.default_rng(6)
        problem, (Q, R, Qf, x_refs, x0, dt) = quadratic_problem(rng, n=2, n_knots=7)
        _, _, Ks = lqr_tracking_solution(Q, R, Qf, x_refs, x0, dt)
        us = rng.uniform(-1, 1, (6, 2))
        bp = backward(problem, rollout(problem, us), us)
        for t in range(6):
            err = np.linalg.norm(bp.K[t] + Ks[t]) / np.linalg.norm(Ks[t])
            assert err < 1e-8

    def test_zero_cost_gives_zero_gains(self):
        n, n_knots = 2, 5
        problem = TrajectoryProblem(
            n_knots=n_knots,
            dt=0.25,
            x0=np.zeros(n),
            cost=QuadraticCost(Q=np.zeros((n, n)), R=HESS_FLOOR * np.eye(n), x_ref=np.zeros(n)),
            u_lower=-np.ones(n),
            u_upper=np.ones(n),
        )
        us = np.zeros((n_knots - 1, n))
        bp = backward(problem, rollout(problem, us), us)
        assert np.array_equal(bp.k, np.zeros((4, 2)))
        assert np.array_equal(bp.K, np.zeros((4, 2, 2)))
        assert bp.expected_decrease == 0.0

    def test_expected_decrease_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            problem, _ = quadratic_problem(rng)
            us = rng.uniform(-1, 1, (problem.n_knots - 1, problem.n_dims))
            bp = backward(problem, rollout(problem, us), us)
            assert bp.expected_decrease >= 0.0


class TestRiccatiFullForm:
    @staticmethod
    def assert_matches_full_form(problem, xs, us):
        """The solver's backward pass against the full-form oracle; returns
        the number of held controls (zero rows of k and K)."""
        derivs = _assemble_derivs(problem, xs, us)
        bp = backward_pass(problem, derivs)
        k, K, decrease, grad_inf = backward_pass_full_form(problem, derivs, us)
        for got, ref in ((bp.k, k), (bp.K, K)):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))
        assert abs(bp.expected_decrease - decrease) <= 1e-10 * decrease
        assert abs(bp.grad_inf - grad_inf) <= 1e-10 * grad_inf
        held = (bp.k == 0.0) & np.all(bp.K == 0.0, axis=2)
        assert np.array_equal(held, (k == 0.0) & np.all(K == 0.0, axis=2))
        return int(np.sum(held))

    def test_matches_full_form_on_quadratic_problems(self):
        rng = np.random.default_rng(17)
        held = [0, 0]  # controls past the box, controls on it
        for i in range(30):
            problem, _ = quadratic_problem(rng, bounds=1.0)
            us = rng.uniform(-1.5, 1.5, (problem.n_knots - 1, problem.n_dims))
            if i % 2:
                us = np.clip(us, problem.u_lower, problem.u_upper)
            held[i % 2] += self.assert_matches_full_form(problem, rollout(problem, us), us)
        assert min(held) > 0  # the hold rule fired both past and on the box

    def test_matches_full_form_on_a_seven_dof_horizon_with_held_controls(self, seven_dof):
        # 21 knots at dt = 0.1, which is not a power of two, so the sweep's
        # step units dt v_x and dt^2 V_xx round; a third of the controls start
        # on a bound, and light smoothness lets the state cost push some past it
        rng = np.random.default_rng(21)
        n_knots = 21
        weights = CostWeights(*rng.uniform(0.1, 2.0, 4), 0.01, rng.uniform(0.1, 2.0))
        contexts = random_contexts(rng, seven_dof, rng.uniform(-0.5, 0.5, (n_knots, 7)), weights, goal_index=0)
        problem = problem_from_contexts(seven_dof, n_knots, 0.1, np.zeros(7), contexts)
        us = np.clip(rng.uniform(-3.0, 3.0, (n_knots - 1, 7)), problem.u_lower, problem.u_upper)
        assert self.assert_matches_full_form(problem, rollout(problem, us), us) > 0

    def test_controls_pushed_out_of_the_box_are_held(self):
        # the reference runs at 2 rad/s against a 1 rad/s bound, so at the
        # bound every control's descent direction leaves the box
        n_knots, dt = 5, 0.25
        problem = TrajectoryProblem(
            n_knots=n_knots,
            dt=dt,
            x0=np.zeros(1),
            cost=QuadraticCost(Q=np.eye(1), R=0.1 * np.eye(1), x_ref=(2.0 * dt * np.arange(n_knots))[:, None]),
            u_lower=np.array([-1.0]),
            u_upper=np.array([1.0]),
        )
        us = np.ones((n_knots - 1, 1))
        xs = rollout(problem, us)
        bp = backward(problem, xs, us)
        assert not np.any(bp.k) and not np.any(bp.K)
        assert bp.grad_inf == 0.0 and bp.expected_decrease == 0.0
        assert self.assert_matches_full_form(problem, xs, us) == n_knots - 1

    def test_the_sweep_is_undamped(self):
        # the solver has no damping shift: backward_pass takes none, and the
        # reg_used the benchmark tracer reads stays 0
        rng = np.random.default_rng(18)
        problem, _ = quadratic_problem(rng, bounds=1.0)
        us = np.clip(rng.uniform(-1.5, 1.5, (problem.n_knots - 1, problem.n_dims)), -1.0, 1.0)
        derivs = _assemble_derivs(problem, rollout(problem, us), us)
        assert backward_pass(problem, derivs).reg_used == 0.0
        with pytest.raises(TypeError):
            backward_pass(problem, derivs, reg=1e-3)

    def test_knot_0_state_derivatives_do_not_reach_the_gains(self):
        # x_0 is fixed, so the sweep stops at knot 0's controls: its state
        # gradient and curvature would only build a value function no gain reads
        rng = np.random.default_rng(20)
        problem, _ = quadratic_problem(rng, bounds=1.0)
        us = rng.uniform(-1.5, 1.5, (problem.n_knots - 1, problem.n_dims))
        derivs = _assemble_derivs(problem, rollout(problem, us), us)
        bp = backward_pass(problem, derivs)
        derivs.gx[0] += rng.normal(size=problem.n_dims)
        derivs.hxx[0] *= 10.0
        perturbed = backward_pass(problem, derivs)
        assert np.array_equal(bp.k, perturbed.k) and np.array_equal(bp.K, perturbed.K)
        assert (bp.expected_decrease, bp.grad_inf) == (perturbed.expected_decrease, perturbed.grad_inf)

    def test_a_singular_last_knot_raises(self):
        # no curvature anywhere, so Q_uu = 0 at the last knot: its solve gives
        # NaN gains without an error or a warning, and the sweep names them
        class ZeroCurvature(QuadraticCost):
            def state_derivatives(self, xs):
                gx, hxx = super().state_derivatives(xs)
                return gx, np.zeros_like(hxx)

            def control_derivatives(self, us):
                gu, huu = super().control_derivatives(us)
                return gu, np.zeros_like(huu)

        n = 2
        problem = TrajectoryProblem(
            n_knots=5,
            dt=0.1,
            x0=np.zeros(n),
            cost=ZeroCurvature(Q=np.eye(n), R=np.eye(n), x_ref=np.ones(n)),
            u_lower=-10.0 * np.ones(n),
            u_upper=10.0 * np.ones(n),
        )
        us = np.zeros((4, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="backward pass"):
                backward(problem, rollout(problem, us), us)
            with pytest.raises(SolverError, match="backward pass"):
                solve_default(problem)


class TestLapackSolve:
    """The sweep calls np.linalg.solve's private LAPACK gufunc directly; a numpy
    release that changes it should fail here, not inside a plan."""

    def test_equals_np_linalg_solve_bit_for_bit(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(20, 7, 7)) + 4.0 * np.eye(7)
        b = rng.normal(size=(20, 7, 8))
        out = np.empty_like(b)
        solver_module._lapack_solve(a[3], b[3], out=out[3])
        assert np.array_equal(out[3], np.linalg.solve(a[3], b[3]))
        assert np.array_equal(solver_module._lapack_solve(a, b), np.linalg.solve(a, b))

    def test_singular_system_gives_non_finite_values_silently(self):
        a = np.zeros((7, 7))
        a[:6, :6] = np.eye(6)  # rank 6
        b = np.ones((7, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                x = solver_module._lapack_solve(a, b)
        assert not np.all(np.isfinite(x))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, b)


class TestForwardPass:
    def test_full_newton_step_on_quadratic(self):
        rng = np.random.default_rng(8)
        problem, (Q, R, Qf, x_refs, x0, dt) = quadratic_problem(rng, n=2, n_knots=6)
        xs_ref, _, _ = lqr_tracking_solution(Q, R, Qf, x_refs, x0, dt)
        us = np.zeros((5, 2))
        xs = rollout(problem, us)
        bp = backward(problem, xs, us)
        fp = forward(problem, xs, us, bp)
        assert fp.accepted and fp.step_length == 1.0
        assert np.max(np.abs(fp.states - xs_ref)) < 1e-6

    def test_optimal_incumbent_retained(self):
        rng = np.random.default_rng(9)
        problem, (Q, R, Qf, x_refs, x0, dt) = quadratic_problem(rng, n=1, n_knots=5)
        _, us_opt, _ = lqr_tracking_solution(Q, R, Qf, x_refs, x0, dt)
        xs_opt = rollout(problem, us_opt)
        bp = backward(problem, xs_opt, us_opt)
        fp = forward(problem, xs_opt, us_opt, bp)
        np.testing.assert_allclose(fp.controls, us_opt, atol=1e-9)

    def test_accepted_cost_never_worse(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            problem, _ = quadratic_problem(rng)
            us = rng.uniform(-1, 1, (problem.n_knots - 1, problem.n_dims))
            xs = rollout(problem, us)
            incumbent = problem.cost.value(xs, us)
            bp = backward(problem, xs, us)
            fp = forward(problem, xs, us, bp)
            assert fp.cost <= incumbent + 1e-12


def assert_matches_loop(problem, xs, us, bp, J=None):
    """Batched forward pass against the one-alpha-at-a-time reference, and,
    at every first-stage depth, bit for bit against the same stack scored in
    one cost call."""
    if J is None:
        J = problem.cost.value(xs, us)
    one_call = forward_pass_one_call(problem, xs, us, bp, J)
    for last_step in LAST_STEPS:
        fp = forward_pass(problem, xs, us, bp, J, last_step)
        assert (fp.accepted, fp.step_length, fp.cost) == (one_call.accepted, one_call.step_length, one_call.cost)
        assert np.array_equal(fp.states, one_call.states)
        assert np.array_equal(fp.controls, one_call.controls)
    with np.errstate(over="ignore", invalid="ignore"):
        ref_xs, ref_us, ref_cost, ref_alpha, ref_accepted = line_search_loop(problem, xs, us, bp, J)
    assert fp.accepted == ref_accepted
    assert fp.step_length == ref_alpha
    np.testing.assert_allclose(fp.states, ref_xs, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(fp.controls, ref_us, rtol=1e-12, atol=1e-12)
    assert np.isclose(fp.cost, ref_cost, rtol=1e-12, atol=1e-12)
    return fp


class RecordingCost:
    """A cost that keeps a copy of every stack of candidates it scores."""

    def __init__(self, cost):
        self.cost, self.stacks = cost, []

    def value(self, xs, us=None):
        self.stacks.append((xs.copy(), us.copy()))
        return self.cost.value(xs, us)


def assert_stack_matches_textbook(problem, xs, us, bp):
    """Every candidate of the line search's stack, scored in one cost call,
    against the textbook rollout ubar + alpha k + K (x - xbar) of its step
    length, to ROLLOUT_RTOL of the stack's largest entry; returns the
    number of clamped controls."""
    recorder = RecordingCost(problem.cost)
    forward_pass(replace(problem, cost=recorder), xs, us, bp, problem.cost.value(xs, us), 2.0**-10)
    (stack_xs, stack_us), = recorder.stacks
    for alpha, got_xs, got_us in zip(solver_module._ALPHAS, stack_xs, stack_us):
        ref_xs, ref_us = textbook_rollout(problem, xs, us, bp, alpha)
        for got, ref in ((got_xs, ref_xs), (got_us, ref_us)):
            np.testing.assert_allclose(got, ref, rtol=ROLLOUT_RTOL, atol=ROLLOUT_RTOL * np.max(np.abs(ref)))
    return int(np.sum((stack_us == problem.u_lower) | (stack_us == problem.u_upper)))


def seven_dof_problem(rng, model, weights, n_knots=6):
    contexts = random_contexts(rng, model, rng.uniform(-0.5, 0.5, (n_knots, 7)), weights=weights, goal_index=0)
    return problem_from_contexts(model, n_knots, 0.25, np.zeros(7), contexts)


def default_scenario(model, seed=0):
    data = default_scenario_dict(seed=seed)
    data["robot_model"] = model_to_dict(model)
    return scenario_from_dict(data, Path("."))


def default_first_solve(model):
    """The default scenario's first replan: its problem and linear warm start."""
    scenario = default_scenario(model)
    n_knots = scenario.mpc.horizon_knots
    problem = build_problem(scenario, 0.0, n_knots, scenario.start_q)
    return problem, linear_warm_start(scenario.start_q, scenario.goal_q, n_knots - 1, scenario.mpc.dt)


def default_task_problem(model):
    """The generated default task as one 21-knot problem from its start
    state; from zero controls, its line searches often find no step in the
    first stage."""
    scenario = default_scenario(model)
    return build_problem(scenario, 0.0, 21, scenario.start_q)


class TestAdjointGradient:
    @pytest.mark.parametrize(
        "seed, n_knots", [(0, 6), (1, 6), (0, 21)], ids=["reference-seed0", "reference-seed1", "oneshot"]
    )
    def test_matches_central_differences(self, seven_dof, seed, n_knots):
        """The oracle's adjoint gradient against central differences of the
        trajectory cost on the first replan's problem, at random controls
        inside half the velocity box. At h = 1e-6 the worst error read 3.5e-9
        of the gradient's largest entry (1.2e-9 and 1.1e-9 on reference)."""
        scenario = default_scenario(seven_dof, seed)
        problem = build_problem(scenario, 0.0, n_knots, scenario.start_q)
        rng = np.random.default_rng(seed)
        us = rng.uniform(0.5 * problem.u_lower, 0.5 * problem.u_upper, (n_knots - 1, problem.n_dims))
        grad = adjoint_gradient(problem, us)
        h = 1e-6
        fd = np.empty_like(us)
        for i in np.ndindex(us.shape):
            up, down = us.copy(), us.copy()
            up[i] += h
            down[i] -= h
            cost_up = problem.cost.value(rollout(problem, up), up)
            fd[i] = (cost_up - problem.cost.value(rollout(problem, down), down)) / (2 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))


class TestOptimalityGap:
    @pytest.mark.parametrize(
        "seed, timing, bound",
        [(0, {}, 0.01), (1, {}, 0.01), (1, {"horizon": 5.0, "replan": 5.0}, 0.025)],
        ids=["reference-seed0", "reference-seed1", "oneshot-seed1"],
    )
    def test_first_replan_lies_within_its_gap_of_lbfgsb(self, seven_dof, seed, timing, bound):
        """solve's final cost on a first replan over L-BFGS-B's, minus 1 (the gap),
        stays within `bound`: 1% on the reference shape (6 knots) and 2.5% on the
        oneshot shape (one 21-knot solve over the task, as perfbench's oneshot
        workload builds it). The oracle starts from the linear warm start and from
        solve's plan, at ftol 1e-13. Measured when the test was written: 0.60% and
        0.60% on reference seeds 0 and 1 (0.60-0.61% on seeds 0-3), and 1.74% on
        oneshot seed 1 (2.20% on seed 0)."""
        data = default_scenario_dict(seed=seed, **timing)
        data["robot_model"] = model_to_dict(seven_dof)
        scenario = scenario_from_dict(data, Path("."))
        n_knots = scenario.mpc.horizon_knots
        problem = build_problem(scenario, 0.0, n_knots, scenario.start_q)
        init = linear_warm_start(scenario.start_q, scenario.goal_q, n_knots - 1, scenario.mpc.dt)
        result = solve(problem, init)
        best, _ = lbfgsb_reference(problem, [init, result.controls])
        assert result.total_cost / best - 1 <= bound


class TestBatchedLineSearch:
    def test_matches_loop_on_quadratic_problems(self):
        rng = np.random.default_rng(17)
        clamped = 0
        for _ in range(30):
            problem, _ = quadratic_problem(rng, bounds=float(rng.uniform(0.3, 2.0)))
            M, n = problem.n_knots - 1, problem.n_dims
            us = rng.uniform(-1, 1, (M, n))
            xs = rollout(problem, us)
            bp = backward(problem, xs, us)
            fp = assert_matches_loop(problem, xs, us, bp)
            clamped += int(np.sum((fp.controls == problem.u_lower) | (fp.controls == problem.u_upper)))
        assert clamped > 0  # candidates were clamped into the box

    def test_matches_loop_along_seven_dof_iterations(self, seven_dof):
        rng = np.random.default_rng(18)
        accepted_alphas = set()
        for _ in range(3):
            problem = seven_dof_problem(rng, seven_dof, CostWeights(*rng.uniform(0.05, 1.0, 6)))
            us = rng.uniform(-0.5, 0.5, (5, 7))
            xs = rollout(problem, us)
            for _ in range(8):
                bp = backward(problem, xs, us)
                fp = assert_matches_loop(problem, xs, us, bp)
                accepted_alphas.add(fp.step_length)
                xs, us = fp.states, fp.controls
        assert len(accepted_alphas) > 1  # the search backtracked at least once

    def test_every_candidate_matches_the_textbook_rollout(self, seven_dof):
        """The rollout forms each control from the incumbent's offsets; every
        step length's candidate equals the textbook policy's to rounding,
        clamped or not, on the quadratic problems and along 7-DOF iterations."""
        rng = np.random.default_rng(17)
        clamped = 0
        for _ in range(30):
            problem, _ = quadratic_problem(rng, bounds=float(rng.uniform(0.3, 2.0)))
            us = rng.uniform(-1, 1, (problem.n_knots - 1, problem.n_dims))
            xs = rollout(problem, us)
            clamped += assert_stack_matches_textbook(problem, xs, us, backward(problem, xs, us))
        assert clamped > 0  # candidates were clamped into the box
        for _ in range(3):
            problem = seven_dof_problem(rng, seven_dof, CostWeights(*rng.uniform(0.05, 1.0, 6)))
            us = rng.uniform(-0.5, 0.5, (5, 7))
            xs = rollout(problem, us)
            for _ in range(8):
                bp = backward(problem, xs, us)
                assert_stack_matches_textbook(problem, xs, us, bp)
                fp = forward(problem, xs, us, bp)
                xs, us = fp.states, fp.controls

    def test_each_stage_matches_one_call(self, seven_dof):
        """The accepted step falls in the first scoring stage, in the second,
        or nowhere; each outcome is the one-call scoring's, bit for bit."""
        rng = np.random.default_rng(23)
        problems = [quadratic_problem(rng)[0] for _ in range(4)]
        problems += [seven_dof_problem(rng, seven_dof, CostWeights(*rng.uniform(0.05, 1.0, 6))) for _ in range(2)]
        steps = set()
        for problem in problems:
            us = rng.uniform(-0.5, 0.5, (problem.n_knots - 1, problem.n_dims))
            xs = rollout(problem, us)
            bp = backward(problem, xs, us)
            # a step stretched s times overshoots down to alpha ~ 1/s; a reversed one points uphill
            for stretch in (1.0, 8.0, 16.0, 64.0, -1.0):
                steps.add(assert_matches_loop(problem, xs, us, replace(bp, k=stretch * bp.k)).step_length)
        assert 1.0 in steps and SHORTEST_FIRST_STAGE_STEP in steps  # first stage
        assert any(0.0 < step < SHORTEST_FIRST_STAGE_STEP for step in steps)  # second stage
        assert 0.0 in steps  # no step

    @pytest.mark.parametrize(
        "last_step", [*solver_module._ALPHAS.tolist(), 0.3, 2.0**-10.5, 1e-6],
        ids=[*(f"2^-{k}" for k in range(solver_module._N_ALPHAS)), "0.3", "2^-10.5", "1e-6"],
    )
    def test_first_stage_size_counts_the_steps_down_to_the_last(self, last_step):
        """The first stage's size, placed by bisection, is the number of steps
        at least last_step plus two, at most all of them, on the grid and off it."""
        alphas, n_alphas = solver_module._ALPHAS, solver_module._N_ALPHAS
        assert _first_stage_size(last_step) == min(n_alphas, int((alphas >= last_step).sum()) + 2)

    def test_first_search_scores_the_fixed_first_stage(self):
        assert _first_stage_size(None) == solver_module._FIRST_STAGE

    def test_non_finite_large_steps_are_skipped(self, seven_dof):
        # steps so long that alpha = 1 overflows the states, while every
        # shorter step stays finite (joint angles enter the cost only
        # through sin and cos, and smoothness is off)
        rng = np.random.default_rng(19)
        problem = seven_dof_problem(rng, seven_dof, CostWeights(0.5, 0.05, 0.5, 1.0, 0.0, 1.0))
        # unbounded controls let these huge steps through the clamp
        problem.u_lower, problem.u_upper = np.full(7, -np.inf), np.full(7, np.inf)
        us = np.zeros((5, 7))
        xs = rollout(problem, us)
        huge = BackwardPassResult(
            k=np.full((5, 7), 1.5e308), K=np.zeros((5, 7, 7)), expected_decrease=0.0, grad_inf=1.0, reg_used=0.0
        )
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(rollout(problem, us + huge.k)))
        assert np.all(np.isfinite(rollout(problem, us + 0.5 * huge.k)))
        # an incumbent that every finite candidate beats: the first finite step wins
        fp = assert_matches_loop(problem, xs, us, huge, J=1e6)
        assert fp.accepted and fp.step_length == 0.5
        # an incumbent no candidate beats: nothing is accepted and the incumbent returns
        fp = assert_matches_loop(problem, xs, us, huge, J=-1e6)
        assert not fp.accepted and fp.step_length == 0.0
        assert fp.states is xs and fp.controls is us


class TestMonotonicity:
    def test_accepted_costs_non_increasing(self, seven_dof):
        rng = np.random.default_rng(11)
        weights = CostWeights(0.5, 0.05, 0.5, 1.0, 0.05, 1.0)
        contexts = random_contexts(rng, seven_dof, rng.uniform(-0.5, 0.5, (5, 7)), weights=weights, goal_index=0)
        problem = problem_from_contexts(seven_dof, 5, 0.25, np.zeros(7), contexts)
        us = np.zeros((4, 7))
        xs = rollout(problem, us)
        costs = [problem.cost.value(xs, us)]
        for _ in range(15):
            bp = backward(problem, xs, us)
            fp = forward(problem, xs, us, bp, incumbent_cost=costs[-1])
            if not fp.accepted:
                break
            xs, us = fp.states, fp.controls
            costs.append(fp.cost)
        assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))


class TestSolve:
    def test_zero_weights_return_warm_start(self, seven_dof):
        rng = np.random.default_rng(12)
        contexts = random_contexts(rng, seven_dof, np.zeros((6, 7)), weights=CostWeights(), goal_index=0)
        q_goal = rng.uniform(-1, 1, 7)
        problem = problem_from_contexts(seven_dof, 6, 0.25, np.zeros(7), contexts)
        warm = linear_warm_start(problem.x0, q_goal, 5, 0.25)
        result = solve(problem, warm)
        assert result.converged
        assert result.iterations <= 1
        assert result.total_cost == 0.0
        assert np.array_equal(result.controls, warm)

    def test_saturated_bounds_converge_within_tolerance(self):
        # tracking reference runs at 2 rad/s but the control bound is 1 rad/s
        n_knots, dt = 9, 0.25
        x_refs = (2.0 * dt * np.arange(n_knots))[:, None]
        problem = TrajectoryProblem(
            n_knots=n_knots,
            dt=dt,
            x0=np.zeros(1),
            cost=QuadraticCost(Q=np.eye(1), R=0.1 * np.eye(1), x_ref=x_refs),
            u_lower=np.array([-1.0]),
            u_upper=np.array([1.0]),
        )
        result = solve_default(problem)
        assert result.converged
        assert np.all(result.controls <= 1.0)
        assert np.all(result.controls >= -1.0)
        assert result.max_bound_violation == 0.0
        assert_dynamically_feasible(problem, result)
        # the bound genuinely binds
        assert np.max(result.controls) > 0.9

    def test_scores_each_trajectory_once(self, seven_dof, monkeypatch):
        """The warm start is scored once and every other cost comes from a
        forward pass: one batched call for the first-stage steps, and one more
        for the shorter steps exactly when none of those passed. Each search
        is handed the step its solve's previous search accepted, which sets
        how deep the first stage reaches. The returned cost is the plan's own,
        and every solve is one loop."""

        class CountingCost:
            def __init__(self, cost):
                self.cost = cost
                self.value_calls = 0

            def value(self, xs, us=None):
                self.value_calls += 1
                return self.cost.value(xs, us)

            def __getattr__(self, name):
                return getattr(self.cost, name)

        searches = []  # (the last step a search is handed, the step it accepts)

        def counting_forward_pass(problem, states, controls, gains, incumbent_cost, last_step=None):
            fp = forward_pass(problem, states, controls, gains, incumbent_cost, last_step)
            searches.append((last_step, fp.step_length))
            return fp

        monkeypatch.setattr(solver_module, "forward_pass", counting_forward_pass)
        rng = np.random.default_rng(21)
        weights = CostWeights(0.5, 0.05, 0.5, 1.0, 0.05, 1.0)
        problems = [seven_dof_problem(rng, seven_dof, weights) for _ in range(3)]
        problems += [quadratic_problem(rng, bounds=0.3)[0] for _ in range(3)]
        problems.append(default_task_problem(seven_dof))
        for problem in problems:
            cost = problem.cost
            problem.cost = CountingCost(cost)
            searches.clear()
            result = solve_default(problem)
            handed = [last_step for last_step, _ in searches]
            assert handed == [None] + [step for _, step in searches[:-1]]
            # a step shorter than the first stage's shortest, or none, means the first stage found nothing;
            # a first stage that reaches 2^-10 leaves no second one
            second_stages = sum(
                step < shortest_first_stage_step(last_step) and shortest_first_stage_step(last_step) > 2.0**-10
                for last_step, step in searches
            )
            assert problem.cost.value_calls == 1 + len(searches) + second_stages
            assert result.total_cost == cost.value(result.states, result.controls)
            assert result.outer_iterations == 1
        assert second_stages > 0  # the default task's solve reached the second stage

    def test_one_fk_call_per_cost_call(self, seven_dof, monkeypatch):
        """The derivatives of every iterate reuse the FK its cost call ran."""
        import anticip_mpc.costs as costs_module

        calls = {"fk": 0, "value": 0}
        fk_batch = costs_module.fk_batch
        value = costs_module.KnotCostEvaluator.value

        def counting_fk(*args):
            calls["fk"] += 1
            return fk_batch(*args)

        def counting_value(*args):
            calls["value"] += 1
            return value(*args)

        monkeypatch.setattr(costs_module, "fk_batch", counting_fk)
        monkeypatch.setattr(costs_module.KnotCostEvaluator, "value", counting_value)
        rng = np.random.default_rng(22)
        weights = CostWeights(0.5, 0.05, 0.5, 1.0, 0.05, 1.0)
        for _ in range(3):
            calls.update(fk=0, value=0)
            result = solve_default(seven_dof_problem(rng, seven_dof, weights))
            assert result.iterations > 1
            assert calls["fk"] == calls["value"]

    def test_derivatives_after_a_second_stage_step_reuse_its_fk(self, seven_dof, monkeypatch):
        """A step accepted from the second scoring call keeps that call's FK for
        the new iterate's derivatives: no extra fk_batch, and the same
        derivatives as from a fresh FK."""
        import anticip_mpc.costs as costs_module

        fk_calls = []
        fk_batch = costs_module.fk_batch

        def counting_fk(*args):
            fk_calls.append(1)
            return fk_batch(*args)

        monkeypatch.setattr(costs_module, "fk_batch", counting_fk)
        rng = np.random.default_rng(24)
        problem = seven_dof_problem(rng, seven_dof, CostWeights(0.5, 0.05, 0.5, 1.0, 0.05, 1.0))
        us = rng.uniform(-0.5, 0.5, (5, 7))
        xs = rollout(problem, us)
        bp = backward(problem, xs, us)
        fp = forward(problem, xs, us, replace(bp, k=64.0 * bp.k))
        assert fp.accepted and fp.step_length < SHORTEST_FIRST_STAGE_STEP
        fk_calls.clear()
        gx, hxx = problem.cost.state_derivatives(fp.states)
        assert not fk_calls
        problem.cost.value(xs)  # the accepted rows are no longer the last scored
        fresh_gx, fresh_hxx = problem.cost.state_derivatives(fp.states)
        assert len(fk_calls) == 2
        assert np.array_equal(gx, fresh_gx) and np.array_equal(hxx, fresh_hxx)

    def test_held_control_is_released_within_one_loop(self):
        # the reference ramps at 0.8 rad/s inside a 1 rad/s box. The warm
        # start puts the last control on its upper bound and the others on
        # the lower one, so the final state lags the reference and the last
        # control's descent direction leaves the box: it is held. Once the
        # earlier controls catch up it must come free, without a restart, and
        # the solve must land on the unconstrained optimum
        n_knots, dt = 8, 0.25
        Q, R = np.eye(1), 0.01 * np.eye(1)
        x_refs = (0.8 * dt * np.arange(n_knots))[:, None]
        problem = TrajectoryProblem(
            n_knots=n_knots,
            dt=dt,
            x0=np.zeros(1),
            cost=QuadraticCost(Q=Q, R=R, x_ref=x_refs),
            u_lower=np.array([-1.0]),
            u_upper=np.array([1.0]),
        )
        warm = -np.ones((n_knots - 1, 1))
        warm[-1] = 1.0
        bp = backward(problem, rollout(problem, warm), warm)
        assert bp.k[-1, 0] == 0.0 and np.all(bp.K[-1] == 0.0)  # held at the start
        xs_opt, us_opt, _ = lqr_tracking_solution(Q, R, Q, x_refs, problem.x0, dt)
        assert np.max(np.abs(us_opt)) < 0.95  # the optimum is interior
        result = solve(problem, warm)
        assert result.converged and result.outer_iterations == 1
        assert np.max(np.abs(result.controls - us_opt)) < 1e-6
        assert np.max(np.abs(result.states - xs_opt)) < 1e-6

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(13)
        problem, _ = quadratic_problem(rng, n=2, n_knots=8, bounds=0.8)
        r1 = solve_default(problem)
        r2 = solve_default(problem)
        assert np.array_equal(r1.states, r2.states)
        assert np.array_equal(r1.controls, r2.controls)
        assert r1.iterations == r2.iterations

    def test_clamped_into_bounds(self):
        # the warm start leaves the box on both sides; the solve of a cost with
        # only the package's control floor returns it clipped
        problem = TrajectoryProblem(
            n_knots=4,
            dt=0.25,
            x0=np.zeros(1),
            cost=QuadraticCost(Q=np.zeros((1, 1)), R=HESS_FLOOR * np.eye(1), x_ref=np.zeros(1)),
            u_lower=np.array([-2.0]),
            u_upper=np.array([2.0]),
        )
        warm = np.array([[5.0], [-7.0], [0.5]])
        result = solve(problem, warm)
        assert np.array_equal(result.controls, [[2.0], [-2.0], [0.5]])
        assert np.array_equal(result.states, rollout(problem, result.controls))
        assert result.max_bound_violation == 0.0
        assert np.array_equal(warm, [[5.0], [-7.0], [0.5]])  # the caller's array is left alone

    def test_nonfinite_warm_start_cost_raises(self):
        problem = TrajectoryProblem(
            n_knots=4,
            dt=0.25,
            x0=np.zeros(1),
            cost=QuadraticCost(Q=np.eye(1), R=np.eye(1), x_ref=np.full(1, 1e200)),
            u_lower=np.array([-1.0]),
            u_upper=np.array([1.0]),
        )
        with np.errstate(over="ignore"), pytest.raises(SolverError):
            solve_default(problem)

    def test_bad_initial_controls_shape(self):
        rng = np.random.default_rng(14)
        problem, _ = quadratic_problem(rng, n=2, n_knots=5)
        with pytest.raises(InvalidInputError):
            solve(problem, np.zeros((2, 2)))

    def test_iteration_caps_return_best_iterate(self, monkeypatch):
        rng = np.random.default_rng(15)
        problem, _ = quadratic_problem(rng, n=2, n_knots=8)
        monkeypatch.setattr(solver_module, "_MAX_INNER_ITERS", 1)
        result = solve_default(problem)
        assert not result.converged
        assert result.iterations == 1
        assert_dynamically_feasible(problem, result)

    def test_at_the_cap_grad_inf_is_the_previous_iterates(self, monkeypatch):
        # a one-iteration solve ends right after its accepted step, so its
        # gradient is the warm start's, not the returned plan's
        rng = np.random.default_rng(15)
        problem, _ = quadratic_problem(rng, n=2, n_knots=8)
        monkeypatch.setattr(solver_module, "_MAX_INNER_ITERS", 1)
        result = solve_default(problem)
        us0 = np.zeros_like(result.controls)
        assert not result.converged and not np.array_equal(result.controls, us0)
        assert result.grad_inf == backward(problem, rollout(problem, us0), us0).grad_inf


class TestUnconvergedExits:
    def test_underestimated_curvature_ends_at_the_cap_below_the_warm_start(self):
        # the reported state curvature is 1000x too small, so each Newton step
        # overshoots and the line search accepts only short steps: the solve
        # creeps down to the iteration cap, every step kept
        class Underestimated(QuadraticCost):
            def state_derivatives(self, xs):
                gx, hxx = super().state_derivatives(xs)
                return gx, 1e-3 * hxx

        problem = TrajectoryProblem(
            n_knots=4,
            dt=0.25,
            x0=np.zeros(1),
            cost=Underestimated(Q=np.eye(1), R=np.zeros((1, 1)), x_ref=np.ones(1)),
            u_lower=np.array([-1e4]),
            u_upper=np.array([1e4]),
        )
        result = solve_default(problem)
        assert not result.converged and result.iterations == solver_module._MAX_INNER_ITERS
        assert result.max_bound_violation == 0.0
        assert_dynamically_feasible(problem, result)
        us0 = np.zeros_like(result.controls)
        assert result.total_cost <= problem.cost.value(rollout(problem, us0), us0)

    def test_a_stalled_line_search_keeps_the_accepted_step(self):
        problem = self.turns_round()
        xs, us, _ = self.first_step(problem)
        assert not forward(problem, xs, us, backward(problem, xs, us)).accepted
        self.assert_keeps_first_step(problem, solve_default(problem), iterations=2)

    def test_a_stall_reports_the_gradient_at_the_returned_plan(self):
        problem = self.turns_round()
        result = solve_default(problem)
        assert not result.converged
        assert result.grad_inf == backward(problem, result.states, result.controls).grad_inf

    def test_a_failed_first_search_returns_the_warm_start(self):
        # the reported gradients point uphill everywhere, so no step of the
        # first line search lowers the cost
        class Uphill(QuadraticCost):
            def state_derivatives(self, xs):
                gx, hxx = super().state_derivatives(xs)
                return -gx, hxx

            def control_derivatives(self, us):
                gu, huu = super().control_derivatives(us)
                return -gu, huu

        problem = self.two_dims(Uphill(Q=np.eye(2), R=0.5 * np.eye(2), x_ref=np.ones(2)))
        result = solve_default(problem)
        us0 = np.zeros((problem.n_knots - 1, problem.n_dims))
        xs0 = rollout(problem, us0)
        assert not result.converged and result.iterations == 1
        np.testing.assert_array_equal(result.controls, us0)
        np.testing.assert_array_equal(result.states, xs0)
        assert result.total_cost == problem.cost.value(xs0, us0)
        assert result.grad_inf == backward(problem, xs0, us0).grad_inf > solver_module._GRAD_TOL

    @classmethod
    def turns_round(cls):
        """A problem whose solve stalls at its second line search: doubled
        state curvature stops the first step halfway to the optimum; once the
        iterate moves its reported gradient turns round, so every step of the
        second line search climbs."""

        class TurnsRound(QuadraticCost):
            def state_derivatives(self, xs):
                gx, hxx = super().state_derivatives(xs)
                return (-1.0 if np.any(xs != 0.0) else 1.0) * gx, 2.0 * hxx

            def control_derivatives(self, us):
                gu, huu = super().control_derivatives(us)
                return (-1.0 if np.any(us != 0.0) else 1.0) * gu, huu

        return cls.two_dims(TurnsRound(Q=np.eye(2), R=0.5 * np.eye(2), x_ref=np.ones(2)))

    @staticmethod
    def two_dims(cost):
        n = 2
        return TrajectoryProblem(
            n_knots=5, dt=0.1, x0=np.zeros(n), cost=cost, u_lower=-10.0 * np.ones(n), u_upper=10.0 * np.ones(n)
        )

    @staticmethod
    def first_step(problem):
        """The states, controls and cost of the solve's first accepted step
        from zero controls."""
        us = np.zeros((problem.n_knots - 1, problem.n_dims))
        xs = rollout(problem, us)
        fp = forward(problem, xs, us, backward(problem, xs, us))
        assert fp.accepted
        return fp.states, fp.controls, fp.cost

    def assert_keeps_first_step(self, problem, result, iterations):
        xs, us, cost = self.first_step(problem)
        assert not result.converged and result.iterations == iterations
        np.testing.assert_array_equal(result.states, xs)
        np.testing.assert_array_equal(result.controls, us)
        assert result.total_cost == cost
        assert result.max_bound_violation == 0.0
        assert_dynamically_feasible(problem, result)
        us0 = np.zeros_like(us)
        assert cost < problem.cost.value(rollout(problem, us0), us0)


class TestNonFiniteCurvature:
    """A NaN entry of the cost's state curvature gives the next backward pass
    non-finite gains, which end the default scenario's first solve at once."""

    @staticmethod
    def nan_curvature_at(monkeypatch, iterate):
        """Sets one last-knot hxx entry to NaN in the derivatives the solve
        assembles at its iterate-th iterate, 0 being the warm start."""
        assemble, calls = solver_module._assemble_derivs, []

        def with_nan(problem, xs, us):
            derivs = assemble(problem, xs, us)
            if len(calls) == iterate:
                derivs.hxx[-1, 0, 0] = np.nan
            calls.append(None)
            return derivs

        monkeypatch.setattr(solver_module, "_assemble_derivs", with_nan)

    def test_at_the_warm_start_raises(self, seven_dof, monkeypatch):
        problem, warm = default_first_solve(seven_dof)
        self.nan_curvature_at(monkeypatch, 0)
        with pytest.raises(SolverError, match="backward pass: non-finite gains"):
            solve(problem, warm)

    def test_at_the_second_iterate_keeps_the_accepted_step(self, seven_dof, monkeypatch):
        problem, warm = default_first_solve(seven_dof)
        us = np.clip(warm, problem.u_lower, problem.u_upper)
        xs = rollout(problem, us)
        step = forward(problem, xs, us, backward(problem, xs, us))
        assert step.accepted
        self.nan_curvature_at(monkeypatch, 1)
        result = solve(problem, warm)
        assert not result.converged and result.iterations == 2
        np.testing.assert_array_equal(result.controls, step.controls)
        np.testing.assert_array_equal(result.states, step.states)
        assert result.total_cost == step.cost
        assert np.isfinite(result.grad_inf)


class TestConfigAndHelpers:
    def test_violation_helpers(self):
        rng = np.random.default_rng(16)
        problem, _ = quadratic_problem(rng, n=2, n_knots=4, bounds=1.0)
        us = np.array([[1.5, 0.0], [0.0, -1.2], [0.5, 0.5]])
        assert np.isclose(max_bound_violation(problem, us), 0.5)  # upper side
        assert np.isclose(max_bound_violation(problem, us[1:]), 0.2)  # lower side
        assert max_bound_violation(problem, us[2:]) == 0.0  # inside the box

    def test_problem_validation(self):
        with pytest.raises(InvalidInputError):
            TrajectoryProblem(
                n_knots=1,
                dt=0.25,
                x0=np.zeros(2),
                cost=QuadraticCost(np.eye(2), np.eye(2), np.zeros(2)),
                u_lower=-np.ones(2),
                u_upper=np.ones(2),
            )
        with pytest.raises(InvalidInputError):
            TrajectoryProblem(
                n_knots=4,
                dt=-0.1,
                x0=np.zeros(2),
                cost=QuadraticCost(np.eye(2), np.eye(2), np.zeros(2)),
                u_lower=-np.ones(2),
                u_upper=np.ones(2),
            )

    @pytest.mark.parametrize(
        "u_lower, u_upper, message",
        [
            (-np.ones(3), np.ones(2), "control bounds must match the state dimension"),
            ([-1.0, 1.0], np.ones(2), "control bounds must satisfy lower < upper"),
        ],
        ids=["shape", "order"],
    )
    def test_problem_rejects_bad_control_bounds(self, u_lower, u_upper, message):
        with pytest.raises(InvalidInputError, match=message):
            TrajectoryProblem(
                n_knots=4,
                dt=0.25,
                x0=np.zeros(2),
                cost=QuadraticCost(np.eye(2), np.eye(2), np.zeros(2)),
                u_lower=u_lower,
                u_upper=u_upper,
            )
