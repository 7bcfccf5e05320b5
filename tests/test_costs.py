import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anticip_mpc import (
    CostTask,
    CostWeights,
    GoalSpec,
    InvalidInputError,
    KnotCostEvaluator,
    ReachConfig,
    RobotModel,
    default_robot_model,
    synthesize_reach,
)
from anticip_mpc.costs import DIST_EPS, HESS_FLOOR
from anticip_mpc.kinematics import fk_batch, position_jacobians
from anticip_mpc.prediction import _EIG_FLOOR

from conftest import eef_pose, random_context, random_contexts
from oracles import (
    HumanJointGaussian,
    LegibilityContext,
    distance_cost,
    goal_pose_cost,
    goal_probabilities,
    legibility_cost,
    nominal_cost,
    smoothness_cost,
    stack_contexts,
    state_derivatives_per_term,
    total_knot_cost,
    visibility_cost,
)


def one_link_model(offset):
    """Single revolute joint about z; at q=0 the eef sits at the offset."""
    return RobotModel(
        axes=np.array([[0.0, 0.0, 1.0]]),
        offsets=np.array([offset], dtype=float),
        base_position=np.zeros(3),
        base_orientation=[1, 0, 0, 0],
        tracked_frames=(1,),
        eef_frame=1,
        vel_lower=[-2.0],
        vel_upper=[2.0],
    )


class TestDistanceCost:
    def test_unit_distance_identity_covariance(self):
        model = one_link_model([1.0, 0.0, 0.0])
        human = [HumanJointGaussian([2.0, 0.0, 0.0], np.eye(3))]
        value = distance_cost(model, [0.0], human)
        assert np.isclose(value, 1.0 / (1.0 + 1e-6), rtol=1e-12)

    def test_sum_over_robot_joints(self, planar_model):
        # tracked frames at (1,0,0) and (2,0,0); human placed at distances 1 and 0.5
        p = np.array([1.875, np.sqrt(15.0 / 64.0), 0.0])
        assert np.isclose(np.linalg.norm(p - [1, 0, 0]), 1.0)
        assert np.isclose(np.linalg.norm(p - [2, 0, 0]), 0.5)
        human = [HumanJointGaussian(p, np.eye(3))]
        value = distance_cost(planar_model, [0.0, 0.0], human)
        expected = 1.0 / (1.0 + 1e-6) + 1.0 / (0.25 + 1e-6)
        assert np.isclose(value, expected, rtol=1e-10)
        assert np.isclose(value, 5.0, rtol=1e-4)

    def test_covariance_scaling(self):
        model = one_link_model([1.0, 0.0, 0.0])
        human = [HumanJointGaussian([2.0, 0.0, 0.0], 4.0 * np.eye(3))]
        value = distance_cost(model, [0.0], human)
        assert np.isclose(value, 1.0 / (0.25 + 1e-6), rtol=1e-12)

    def test_monotone_decreasing_in_separation(self):
        model = one_link_model([1.0, 0.0, 0.0])
        direction = np.array([0.3, 0.8, 0.52])
        direction /= np.linalg.norm(direction)
        values = [
            distance_cost(
                model, [0.0], [HumanJointGaussian([1.0, 0.0, 0.0] + r * direction, np.eye(3))]
            )
            for r in np.linspace(0.1, 2.0, 15)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestVisibilityCost:
    def test_orthogonal_rays(self):
        model = one_link_model([0.0, 1.0, 0.0])
        head = HumanJointGaussian([0.0, 0.0, 0.0], np.eye(3))
        value = visibility_cost(model, [0.0], head, [1.0, 0.0, 0.0])
        assert np.isclose(value, np.pi / 2, rtol=1e-12)

    def test_collinear_is_free(self):
        model = one_link_model([2.0, 0.0, 0.0])
        head = HumanJointGaussian([0.0, 0.0, 0.0], np.eye(3))
        assert np.isclose(visibility_cost(model, [0.0], head, [1.0, 0.0, 0.0]), 0.0, atol=1e-9)

    def test_division_by_head_stddev(self):
        model = one_link_model([0.0, 1.0, 0.0])
        head = HumanJointGaussian([0.0, 0.0, 0.0], 0.25 * np.eye(3))
        value = visibility_cost(model, [0.0], head, [1.0, 0.0, 0.0])
        assert np.isclose(value, np.pi, rtol=1e-12)

    def test_degenerate_ray_rejected(self):
        model = one_link_model([0.0, 1.0, 0.0])
        head = HumanJointGaussian([0.0, 1.0, 0.0], np.eye(3))  # coincides with eef
        with pytest.raises(InvalidInputError):
            visibility_cost(model, [0.0], head, [1.0, 0.0, 0.0])


class TestLegibilityCost:
    def test_at_start_all_goals_tie(self):
        rng = np.random.default_rng(0)
        for k in (2, 3, 5):
            goals = rng.uniform(-1, 1, (k, 3))
            start = rng.uniform(-1, 1, 3)
            ctx = LegibilityContext(start=start, goals=goals, goal_index=1)
            assert np.isclose(legibility_cost(start, ctx), 1.0 - 1.0 / k, rtol=1e-12)

    def test_two_goal_closed_form(self):
        ctx = LegibilityContext(
            start=[0.0, 0.0, 0.0],
            goals=[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
            goal_index=0,
        )
        p_expected = 1.0 / (1.0 + np.exp(-2.0))
        assert np.isclose(legibility_cost([0.5, 0.0, 0.0], ctx), 1.0 - p_expected, rtol=1e-12)
        assert np.isclose(1.0 - p_expected, 0.1192, atol=5e-5)

    def test_decoupled_equals_direct_with_shared_path_term(self):
        # the shared path-cost factor must cancel out of the normalized ratio
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            goals = rng.uniform(-1.2, 1.2, (k, 3))
            start = rng.uniform(-1.2, 1.2, 3)
            q_pos = rng.uniform(-1.2, 1.2, 3)
            gi = int(rng.integers(k))
            d_hat = float(rng.uniform(0.0, 5.0))
            ctx = LegibilityContext(start=start, goals=goals, goal_index=gi)
            decoupled = 1.0 - goal_probabilities(q_pos, ctx)[gi]

            def unnormalized(g):
                vq = np.sum((g - q_pos) ** 2)
                vs = np.sum((g - start) ** 2)
                return np.exp(-d_hat - vq) / np.exp(-vs)

            direct_p = unnormalized(goals[gi]) / sum(unnormalized(g) for g in goals)
            assert abs((1.0 - direct_p) - decoupled) <= 1e-10 * max(abs(decoupled), 1e-30)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            ctx = LegibilityContext(
                start=rng.uniform(-1, 1, 3), goals=rng.uniform(-1, 1, (k, 3)), goal_index=0
            )
            probs = goal_probabilities(rng.uniform(-1, 1, 3), ctx)
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert np.all(probs >= 0)

    def test_distant_goals_do_not_overflow(self):
        ctx = LegibilityContext(
            start=[0.0, 0.0, 0.0],
            goals=[[30.0, 0.0, 0.0], [-30.0, 0.0, 0.0]],
            goal_index=0,
        )
        value = legibility_cost([25.0, 0.0, 0.0], ctx)
        assert np.isfinite(value) and 0.0 <= value < 1.0


class TestSimpleCosts:
    def test_nominal(self):
        assert nominal_cost([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
        assert np.isclose(nominal_cost([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]), 1.0)
        assert np.isclose(nominal_cost([3.0, 4.0, 0.0], [0.0, 0.0, 0.0]), 5.0)

    def test_smoothness(self):
        assert smoothness_cost([0.0, 0.0]) == 0.0
        assert np.isclose(smoothness_cost([1.0, 1.0]), 2.0)
        assert np.isclose(smoothness_cost([0.3, -0.4]), 0.25)


class TestGoalPoseCost:
    def test_zero_at_goal(self):
        quat = np.array([0.5, 0.5, 0.5, 0.5])
        pose = GoalSpec([0.1, 0.2, 0.3], quat)
        assert np.isclose(goal_pose_cost(pose, GoalSpec([0.1, 0.2, 0.3], quat)), 0.0, atol=1e-15)

    def test_double_cover(self):
        quat = np.array([0.5, 0.5, 0.5, 0.5])
        pose = GoalSpec([0.1, 0.2, 0.3], -quat)
        assert np.isclose(goal_pose_cost(pose, GoalSpec([0.1, 0.2, 0.3], quat)), 0.0, atol=1e-15)

    def test_quarter_turn_orientation_term(self):
        goal_q = np.array([1.0, 0.0, 0.0, 0.0])
        eef_q = np.array([np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)])
        value = goal_pose_cost(GoalSpec([0.0, 0.0, 0.0], eef_q), GoalSpec([0.0, 0.0, 0.0], goal_q))
        assert np.isclose(value, 0.5, rtol=1e-12)

    def test_negation_invariance_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            q1 = rng.normal(size=4)
            q1 /= np.linalg.norm(q1)
            q2 = rng.normal(size=4)
            q2 /= np.linalg.norm(q2)
            p = rng.uniform(-1, 1, 3)
            base = goal_pose_cost(GoalSpec(p, q1), GoalSpec(p, q2))
            assert goal_pose_cost(GoalSpec(p, -q1), GoalSpec(p, q2)) == base
            assert goal_pose_cost(GoalSpec(p, q1), GoalSpec(p, -q2)) == base

    def test_errors_equal_the_quaternion_form(self):
        """GoalSpec.errors, read from rotation matrices, equals ||p - p_g|| and
        1 - <q, q_g>^2 on random poses, over a stack of candidates and knots."""
        from anticip_mpc.kinematics import quat_to_matrix

        rng = np.random.default_rng(21)
        qs = rng.normal(size=(5, 4, 4))
        qs /= np.linalg.norm(qs, axis=-1, keepdims=True)
        ps = rng.uniform(-1, 1, (5, 4, 3))
        for _ in range(20):
            q_g = rng.normal(size=4)
            goal = GoalSpec(rng.uniform(-1, 1, 3), q_g / np.linalg.norm(q_g))
            rotations = np.array([[quat_to_matrix(q) for q in row] for row in qs])
            pos_err, orient_err = goal.errors(ps, rotations)
            assert pos_err.shape == orient_err.shape == (5, 4)
            np.testing.assert_allclose(pos_err, np.linalg.norm(ps - goal.position, axis=-1), rtol=0, atol=1e-12)
            np.testing.assert_allclose(orient_err, 1.0 - (qs @ goal.orientation) ** 2, rtol=0, atol=1e-12)


    def test_cost_rows_equal_the_goal_errors(self, seven_dof):
        """The cost's rows 2-4, read from its one residual stack and its one
        product R R_g^T, equal ||p - nominal|| and GoalSpec.errors on random
        configurations bit for bit, and the trace form of the orientation error
        rounds within 1e-15 of the elementwise tr(R_g^T R)."""
        rng = np.random.default_rng(24)
        qs = rng.uniform(-np.pi, np.pi, (6, 7))
        contexts = random_contexts(rng, seven_dof, qs, weights=CostWeights(*rng.uniform(0.1, 2.0, 6)), goal_index=0)
        ev = KnotCostEvaluator(*stack_contexts(contexts))
        xs = qs + rng.uniform(-1.0, 1.0, (4, 6, 7))
        ev.value(xs)
        fk = fk_batch(seven_dof, xs.reshape(-1, 7))
        p_eef = fk.positions[:, seven_dof.eef_frame].reshape(4, 6, 3)
        rotations = fk.eef_rotations.reshape(4, 6, 3, 3)
        pos_err, orient_err = ev.task.goal.errors(p_eef, rotations)
        rows = ev._kept.rows
        assert np.array_equal(rows[..., 2], np.linalg.norm(p_eef - ev.nominal, axis=-1))
        assert np.array_equal(rows[..., 3], pos_err) and np.array_equal(rows[..., 4], orient_err)
        elementwise = 1.0 - 0.25 * (np.einsum("ij,...ij->...", ev.task.goal.rotation, rotations) + 1.0)
        np.testing.assert_allclose(orient_err, elementwise, rtol=0, atol=1e-15)


class TestTotalKnotCost:
    def test_zero_weights(self, seven_dof):
        rng = np.random.default_rng(4)
        ctx = random_context(rng, seven_dof, np.zeros(7), weights=CostWeights())
        res = total_knot_cost(seven_dof, np.zeros(7), np.zeros(7), ctx)
        assert res.value == 0.0
        assert np.array_equal(res.grad_x, np.zeros(7))
        assert np.array_equal(res.grad_u, np.zeros(7))

    def test_pure_smoothness(self, seven_dof):
        rng = np.random.default_rng(5)
        ctx = random_context(rng, seven_dof, np.zeros(7), weights=CostWeights(w_smooth=1.0))
        u = rng.uniform(-1, 1, 7)
        res = total_knot_cost(seven_dof, np.zeros(7), u, ctx)
        assert np.isclose(res.value, np.dot(u, u), rtol=1e-12)
        np.testing.assert_allclose(res.grad_u, 2 * u, rtol=1e-12)
        np.testing.assert_allclose(res.hess_uu, 2 * np.eye(7), atol=1e-7)

    def test_gradient_matches_finite_differences(self, seven_dof):
        rng = np.random.default_rng(6)
        h = 1e-6
        for _ in range(20):
            q = rng.uniform(-1.2, 1.2, 7)
            u = rng.uniform(-1, 1, 7)
            ctx = random_context(rng, seven_dof, q)
            res = total_knot_cost(seven_dof, q, u, ctx)
            fd = np.empty(7)
            for j in range(7):
                dq = np.zeros(7)
                dq[j] = h
                fp = total_knot_cost(seven_dof, q + dq, u, ctx).value
                fm = total_knot_cost(seven_dof, q - dq, u, ctx).value
                fd[j] = (fp - fm) / (2 * h)
            err = np.linalg.norm(res.grad_x - fd) / max(np.linalg.norm(fd), 1e-9)
            assert err < 1e-4

    def test_weight_linearity(self, seven_dof):
        rng = np.random.default_rng(7)
        base = CostWeights(*rng.uniform(0.1, 2.0, 6))
        q = rng.uniform(-1, 1, 7)
        u = rng.uniform(-1, 1, 7)
        ctx = random_context(rng, seven_dof, q, weights=base)
        v1 = total_knot_cost(seven_dof, q, u, ctx).value
        for a in (0.0, 0.5, 3.0):
            scaled = CostWeights(**{k: a * v for k, v in base.to_dict().items()})
            scaled_ctx = with_task(ctx, weights=scaled)
            v2 = total_knot_cost(seven_dof, q, u, scaled_ctx).value
            assert np.isclose(v2, a * v1, rtol=1e-10, atol=1e-12)

    def test_hessians_are_psd(self, seven_dof):
        rng = np.random.default_rng(8)
        for _ in range(10):
            q = rng.uniform(-1.2, 1.2, 7)
            ctx = random_context(rng, seven_dof, q)
            res = total_knot_cost(seven_dof, q, rng.uniform(-1, 1, 7), ctx)
            assert np.min(np.linalg.eigvalsh(res.hess_xx)) >= 0.0
            assert np.min(np.linalg.eigvalsh(res.hess_uu)) >= 0.0

    def test_terminal_knot_without_control(self, seven_dof):
        rng = np.random.default_rng(9)
        q = rng.uniform(-1, 1, 7)
        ctx = random_context(rng, seven_dof, q)
        res = total_knot_cost(seven_dof, q, None, ctx)
        assert np.array_equal(res.grad_u, np.zeros(7))


def with_task(ctx, **changes):
    """The knot context `ctx` with its own copy of its task, changed as given."""
    return dataclasses.replace(ctx, task=dataclasses.replace(ctx.task, **changes))


class TestBatchedEvaluator:
    def test_matches_scalar_ops(self, seven_dof):
        rng = np.random.default_rng(10)
        weights = CostWeights(*rng.uniform(0.1, 2.0, 6))
        qs = rng.uniform(-1.2, 1.2, (4, 7))
        us = rng.uniform(-1, 1, (3, 7))
        contexts = random_contexts(rng, seven_dof, qs, weights=weights, goal_index=0)
        ev = KnotCostEvaluator(*stack_contexts(contexts))
        task = contexts[0].task
        legibility = LegibilityContext(task.leg_start, task.goals, task.goal_index)

        expected = 0.0
        for i, ctx in enumerate(contexts):
            pose = eef_pose(seven_dof, qs[i])
            eef = pose.position
            head = ctx.human_frame[task.head_index]
            expected += weights.w_dist * distance_cost(seven_dof, qs[i], ctx.human_frame)
            expected += weights.w_vis * visibility_cost(seven_dof, qs[i], head, task.gaze)
            expected += weights.w_leg * legibility_cost(eef, legibility)
            expected += weights.w_nom * nominal_cost(eef, ctx.nominal)
            expected += weights.w_goal * goal_pose_cost(pose, task.goal)
        expected += weights.w_smooth * float(np.sum(us * us))
        assert np.isclose(ev.value(qs, us), expected, rtol=1e-10)

    def test_derivatives_match_per_knot(self, seven_dof):
        rng = np.random.default_rng(11)
        weights = CostWeights(*rng.uniform(0.1, 2.0, 6))
        qs = rng.uniform(-1.2, 1.2, (3, 7))
        contexts = random_contexts(rng, seven_dof, qs, weights=weights, goal_index=0)
        ev = KnotCostEvaluator(*stack_contexts(contexts))
        gx, hxx = ev.state_derivatives(qs)
        for i, ctx in enumerate(contexts):
            res = total_knot_cost(seven_dof, qs[i], None, ctx)
            np.testing.assert_allclose(gx[i], res.grad_x, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(hxx[i], res.hess_xx, rtol=1e-9, atol=1e-12)

    def test_curvature_meets_the_solver_precondition(self, seven_dof):
        # the backward pass does not repair Q_uu: the control curvature must be
        # positive definite and the state curvature positive semidefinite.
        # eigvalsh is backward stable, so a computed eigenvalue may fall short
        # of the exact one by a small multiple of n * eps * ||H||_2
        rng = np.random.default_rng(12)
        eps = np.finfo(float).eps
        for i in range(12):
            if i % 4 == 0:
                weights = CostWeights()
            else:
                weights = CostWeights(*rng.uniform(0.0, 2.0, 6) * (rng.uniform(size=6) < 0.6))
            qs = rng.uniform(-1.2, 1.2, (5, 7))
            ev = KnotCostEvaluator(*stack_contexts(random_contexts(rng, seven_dof, qs, weights=weights, goal_index=0)))
            _, huu = ev.control_derivatives(rng.uniform(-1, 1, (4, 7)))
            assert huu is ev.task.huu
            assert huu.shape == (7, 7) and np.array_equal(huu, (2.0 * weights.w_smooth + HESS_FLOOR) * np.eye(7))
            _, hxx = ev.state_derivatives(qs)
            tol = 10 * 7 * eps * np.linalg.norm(hxx, 2, axis=(1, 2))
            assert np.all(np.linalg.eigvalsh(hxx)[:, 0] >= HESS_FLOOR - tol)

    @pytest.mark.parametrize("n_human", [1, 5, 17])
    def test_derivatives_match_per_term_reference(self, seven_dof, n_human):
        # every weight, each one zeroed, and each one alone: every end-effector
        # row is checked with and without the others
        rng = np.random.default_rng(15 + n_human)
        names = list(CostWeights.__dataclass_fields__)
        zeroed = [{name: 0.0} for name in names]
        alone = [{other: 0.0 for other in names if other != name} for name in names]
        for change in [{}] + zeroed + alone:
            weights = CostWeights(**(dict(zip(names, rng.uniform(0.1, 2.0, 6))) | change))
            qs = rng.uniform(-1.2, 1.2, (6, 7))
            contexts = random_contexts(rng, seven_dof, qs, weights=weights, n_human=n_human, goal_index=1)
            ev = KnotCostEvaluator(*stack_contexts(contexts))
            gx, hxx = ev.state_derivatives(qs)
            gx_ref, hxx_ref = state_derivatives_per_term(ev, qs)
            for got, ref in ((gx, gx_ref), (hxx, hxx_ref)):
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("kink", ["nominal", "goal", "gaze"])
    def test_derivatives_at_the_kinks(self, seven_dof, kink):
        """At one knot the end effector sits exactly on its nominal point, exactly
        on the goal pose, or on the head-to-gaze-object ray. The derivatives stay
        finite and equal the per-term reference, and the kinked row alone adds no
        gradient at that knot."""
        rng = np.random.default_rng(21)
        qs = rng.uniform(-1.2, 1.2, (4, 7))
        contexts = random_contexts(rng, seven_dof, qs, goal_index=0)
        k, task = 2, contexts[0].task
        fk = fk_batch(seven_dof, qs)  # as the evaluator computes it, so the kink is exact
        p, head = fk.positions[k, seven_dof.eef_frame], contexts[k].human_frame[task.head_index].mean
        if kink == "nominal":
            contexts[k] = dataclasses.replace(contexts[k], nominal=p)
            alone = CostWeights(w_nom=1.0)
        elif kink == "goal":
            task = dataclasses.replace(task, goal=GoalSpec(p, fk.eef_quats[k]))
            alone = CostWeights(w_goal=1.0)
        else:
            task = dataclasses.replace(task, gaze=head + 2.0 * (p - head))
            a, b = task.gaze - head, p - head
            assert np.linalg.norm(np.cross(a, b)) < 1e-9 * np.linalg.norm(a) * np.linalg.norm(b)  # sin theta
            alone = CostWeights(w_vis=1.0)
        for weights in (task.weights, alone):
            knot_task = dataclasses.replace(task, weights=weights)
            ev = KnotCostEvaluator(*stack_contexts([dataclasses.replace(c, task=knot_task) for c in contexts]))
            gx, hxx = ev.state_derivatives(qs)
            assert np.isfinite(gx).all() and np.isfinite(hxx).all()
            gx_ref, hxx_ref = state_derivatives_per_term(ev, qs)
            for got, ref in ((gx, gx_ref), (hxx, hxx_ref)):
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
        # the goal's orientation error is zero there too, so its gradient is rounding
        np.testing.assert_allclose(gx[k], 0.0, atol=1e-12)

    @pytest.mark.parametrize("tracked", [(2, 4, 6), (5, 7, 2)])
    def test_any_tracked_frames(self, seven_dof, tracked):
        # without the end effector, which then has a Jacobian row of its own,
        # or with it in the middle of the set, sharing its tracked frame's row
        model = dataclasses.replace(seven_dof, tracked_frames=tracked)
        rng = np.random.default_rng(sum(tracked))
        weights = CostWeights(*rng.uniform(0.1, 2.0, 6))
        qs = rng.uniform(-1.2, 1.2, (4, 7))
        contexts = random_contexts(rng, model, qs, weights=weights, n_human=2, goal_index=0)
        task, means, covs, nominal = stack_contexts(contexts)
        ev = KnotCostEvaluator(task, means, covs, nominal)
        separation = dataclasses.replace(task, weights=CostWeights(w_dist=1.0))
        separation = KnotCostEvaluator(separation, means, covs, nominal)
        expected = sum(distance_cost(model, q, ctx.human_frame) for q, ctx in zip(qs, contexts))
        assert np.isclose(separation.value(qs), expected, rtol=1e-10)
        gx, hxx = ev.state_derivatives(qs)
        gx_ref, hxx_ref = state_derivatives_per_term(ev, qs)
        for got, ref in ((gx, gx_ref), (hxx, hxx_ref)):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))

    def test_candidate_axis_matches_per_trajectory(self, seven_dof):
        rng = np.random.default_rng(13)
        weights = CostWeights(*rng.uniform(0.1, 2.0, 6))
        qs = rng.uniform(-1.2, 1.2, (5, 7))
        contexts = random_contexts(rng, seven_dof, qs, weights=weights, goal_index=0)
        ev = KnotCostEvaluator(*stack_contexts(contexts))
        xs = qs + rng.uniform(-0.1, 0.1, (11, 5, 7))
        us = rng.uniform(-1, 1, (11, 4, 7))
        values = ev.value(xs, us)
        assert values.shape == (11,)
        expected = [ev.value(x, u) for x, u in zip(xs, us)]
        np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_derivatives_reuse_the_scored_fk(self, seven_dof, monkeypatch):
        import anticip_mpc.costs as costs_module

        rng = np.random.default_rng(18)
        weights = CostWeights(*rng.uniform(0.1, 2.0, 6))
        qs = rng.uniform(-1.2, 1.2, (5, 7))
        horizon = stack_contexts(random_contexts(rng, seven_dof, qs, weights=weights, goal_index=0))
        xs = qs + rng.uniform(-0.1, 0.1, (11, 5, 7))
        fresh = [KnotCostEvaluator(*horizon).state_derivatives(x) for x in (xs[3], xs[4] + 0.1)]

        ev = KnotCostEvaluator(*horizon)
        ev.value(xs)
        xs[4] += 0.1  # changed after scoring: its kept rows no longer match
        calls = []
        fk_batch = costs_module.fk_batch
        monkeypatch.setattr(costs_module, "fk_batch", lambda *args: calls.append(1) or fk_batch(*args))
        # the term intermediates: a hit reads them from the kept record, a miss computes them once
        term_calls = []
        term_functions = ((KnotCostEvaluator, "_mahalanobis"), (costs_module, "gaze_cosines"), (CostTask, "goal_probs"))
        for owner, name in term_functions:
            counted = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, f=counted, k=name: term_calls.append(k) or f(*args))
        for x, want, fk_calls in zip((xs[3].copy(), xs[4]), fresh, (0, 1)):
            gx, hxx = ev.state_derivatives(x)
            assert len(calls) == fk_calls
            assert sorted(term_calls) == fk_calls * ["_mahalanobis", "gaze_cosines", "goal_probs"]
            assert np.array_equal(gx, want[0]) and np.array_equal(hxx, want[1])

    @pytest.mark.parametrize("zeroed", [None, "w_dist", "w_vis", "w_leg", "w_nom", "w_goal"])
    @pytest.mark.parametrize("lead", [(4,), (7,), (2, 3)], ids=["4_candidates", "7_candidates", "2x3_candidates"])
    def test_kept_record_derivatives_equal_a_fresh_evaluators(self, seven_dof, monkeypatch, lead, zeroed):
        """Every candidate of a scored stack gets, from the kept term record and
        with no FK call, the derivatives of a fresh evaluator bit for bit, with
        any one state term absent from the record."""
        import anticip_mpc.costs as costs_module

        rng = np.random.default_rng(19)
        names = list(CostWeights.__dataclass_fields__)
        weights = CostWeights(*(0.0 if name == zeroed else v for name, v in zip(names, rng.uniform(0.1, 2.0, 6))))
        qs = rng.uniform(-1.2, 1.2, (5, 7))
        horizon = stack_contexts(random_contexts(rng, seven_dof, qs, weights=weights, goal_index=1))
        xs = qs + rng.uniform(-0.1, 0.1, lead + qs.shape)
        fresh = [KnotCostEvaluator(*horizon).state_derivatives(x) for x in xs.reshape(-1, *qs.shape)]

        ev = KnotCostEvaluator(*horizon)
        ev.value(xs)
        calls = []
        fk_batch = costs_module.fk_batch
        monkeypatch.setattr(costs_module, "fk_batch", lambda *args: calls.append(1) or fk_batch(*args))
        for x, (want_gx, want_hxx) in zip(xs.reshape(-1, *qs.shape), fresh):
            gx, hxx = ev.state_derivatives(x.copy())
            assert np.array_equal(gx, want_gx) and np.array_equal(hxx, want_hxx)
        assert not calls

    def test_exact_orientation_gradient_matches_central_difference(self):
        from anticip_mpc.kinematics import fk_batch

        from conftest import random_chain

        rng = np.random.default_rng(14)
        h = 1e-5
        for _ in range(5):
            model = random_chain(rng, 7)  # random, non-identity base orientation
            assert not np.allclose(model.base_orientation, [1, 0, 0, 0])
            qs = rng.uniform(-np.pi, np.pi, (3, 7))
            # random_contexts draws the goal orientation from a random quaternion,
            # off every joint and base axis
            contexts = random_contexts(rng, model, qs, weights=CostWeights(w_goal=1.0), goal_index=0)
            ev = KnotCostEvaluator(*stack_contexts(contexts))
            fk = fk_batch(model, qs)
            assert np.all(ev.task.goal.errors(fk.positions[:, -1], fk.eef_rotations)[1] > 1e-3)
            gx, _ = ev.state_derivatives(qs)
            # each knot's cost reads only its own state: one central difference per knot and joint
            steps = h * np.eye(qs.size).reshape(-1, *qs.shape)  # (21, 3, 7)
            g_fd = ((ev.value(qs + steps) - ev.value(qs - steps)) / (2 * h)).reshape(qs.shape)
            for k in range(3):
                assert np.linalg.norm(gx[k] - g_fd[k]) / np.linalg.norm(g_fd[k]) < 1e-6

    @pytest.mark.parametrize(
        "change, message",
        [
            pytest.param(
                lambda c: dataclasses.replace(c, human_frame=c.human_frame[:2]), "human joint count", id="n_human"
            ),
            pytest.param(lambda c: with_task(c), "one cost task", id="same_values"),
            pytest.param(lambda c: with_task(c, weights=CostWeights(w_nom=2.0)), "one cost task", id="weights"),
            pytest.param(lambda c: with_task(c, head_index=1), "one cost task", id="head_index"),
            pytest.param(lambda c: with_task(c, goal_index=1), "one cost task", id="goal_index"),
            pytest.param(lambda c: with_task(c, goals=c.task.goals[:2]), "one cost task", id="n_goals"),
            pytest.param(
                lambda c: with_task(c, leg_start=c.task.leg_start + 0.1), "one cost task", id="legibility_start"
            ),
            pytest.param(lambda c: with_task(c, gaze=c.task.gaze + 0.1), "one cost task", id="gaze_object"),
            pytest.param(
                lambda c: with_task(c, goal=GoalSpec(c.task.goal.position + 0.1, c.task.goal.orientation)),
                "one cost task",
                id="goal",
            ),
        ],
    )
    def test_rejects_mixed_layouts(self, seven_dof, change, message):
        """Knot contexts stack only with one human joint count and one task
        object, even where two tasks hold equal values."""
        rng = np.random.default_rng(16)
        c1 = random_context(rng, seven_dof, np.zeros(7), weights=CostWeights(w_nom=1.0), goal_index=0)
        stack_contexts([c1, c1])
        with pytest.raises(InvalidInputError, match=message):
            stack_contexts([c1, change(c1)])

    def test_rejects_empty_context_list(self):
        with pytest.raises(InvalidInputError):
            stack_contexts([])


SEPARATION_ULPS = 8  # rounding allowed in the expanded d^T S^-1 d and S^-1 d, in ulps of their largest term


def separation_bounds(ev, q):
    """Ranges within which a separation-only evaluator's value, gradient and
    curvature at one knot q may differ from the difference form's.

    Per (frame, joint) pair: the expanded m = d^T S^-1 d may round by
    SEPARATION_ULPS ulps of lam (|p| + |mu|)^2, and S^-1 d by as many of
    lam (|p| + |mu|), with lam the largest eigenvalue of S^-1. The denominator
    m + DIST_EPS then lies in [lo, hi], lo >= DIST_EPS; each pair's gradient and
    curvature bounds follow from it through the frame Jacobian's norm, with
    1e-12 of each term's size for the Jacobian products' own rounding. Returns
    ((least, greatest) value, gradient bound, curvature bound)."""
    fk = fk_batch(ev.task.model, q[None])
    tracked = ev.task.tracked
    p = fk.positions[0, tracked][:, None]  # (R, 1, 3)
    jac = np.linalg.norm(position_jacobians(fk, tracked)[0], ord=2, axis=(-2, -1))[:, None]  # (R, 1)
    X, mu = ev.cov_inv[0], ev.mu[0]
    d = p - mu  # (R, H, 3)
    m = np.einsum("rhi,hij,rhj->rh", d, X, d)
    sd = np.linalg.norm(np.einsum("hij,rhj->rhi", X, d), axis=-1)
    lam = np.linalg.eigvalsh(X)[:, -1]
    reach = np.linalg.norm(p, axis=-1) + np.linalg.norm(mu, axis=-1)
    dsd = SEPARATION_ULPS * np.finfo(float).eps * lam * reach
    dm = dsd * reach
    den = m + DIST_EPS
    lo, hi = np.maximum(m - dm, 0.0) + DIST_EPS, den + dm
    g_size, h_size = 2.0 * sd / den**2, 8.0 * sd**2 / den**3 + 2.0 * lam / den**2
    g_err = 2.0 * (dsd / lo**2 + sd * (1.0 / lo**2 - 1.0 / hi**2)) + 1e-12 * g_size
    h_err = 8.0 * ((2.0 * sd + dsd) * dsd / lo**3 + sd**2 * (1.0 / lo**3 - 1.0 / hi**3))
    h_err += 2.0 * lam * (1.0 / lo**2 - 1.0 / hi**2) + 1e-12 * h_size
    return (np.sum(1.0 / hi), np.sum(1.0 / lo)), np.sum(jac * g_err), np.sum(jac**2 * h_err)


def assert_separation_matches_oracles(model, q, human):
    """The evaluator's separation term at joint vector q against the
    difference forms of tests/oracles.py, within separation_bounds; every
    denominator at or above DIST_EPS, so no pair scores above 1 / DIST_EPS."""
    task = make_task(model=model, weights=CostWeights(w_dist=1.0))
    means = np.array([g.mean for g in human])[None]
    ev = KnotCostEvaluator(task, means, np.array([g.cov for g in human])[None], np.zeros((1, 3)))
    q = np.asarray(q, dtype=float)
    (least, greatest), g_tol, h_tol = separation_bounds(ev, q)
    value = ev.value(q[None])
    gx, hxx = ev.state_derivatives(q[None])
    assert np.isfinite(value) and np.all(np.isfinite(gx)) and np.all(np.isfinite(hxx))
    assert 0.0 < value
    assert least * (1 - 1e-12) <= distance_cost(model, q, human) <= greatest * (1 + 1e-12)
    assert least * (1 - 1e-12) <= value <= greatest * (1 + 1e-12)
    gx_ref, hxx_ref = state_derivatives_per_term(ev, q[None])
    assert np.linalg.norm(gx - gx_ref) <= g_tol
    assert np.linalg.norm(hxx - hxx_ref, ord=2, axis=(-2, -1)).item() <= h_tol


class TestSeparationNearContact:
    """A tracked frame at, and just off, a human joint whose covariance sits at
    the prediction's eigenvalue floor, with its mean about 1 m from the origin:
    the largest terms of the expanded distance are ~1e9 there, and their
    rounding must neither turn the distance negative nor leave it unbounded.
    At this mean the unfloored expansion rounds below zero at contact (to
    -3.7e-7 with x86-64 OpenBLAS)."""

    MEAN = np.array([0.55, -0.28, 0.84])

    @pytest.mark.parametrize("gap", [0.0, 1e-7, 1e-4])
    def test_finite_and_within_rounding_of_the_difference_form(self, gap):
        direction = np.array([0.3, 0.8, -0.52]) / np.linalg.norm([0.3, 0.8, -0.52])
        human = [HumanJointGaussian(self.MEAN, _EIG_FLOOR * np.eye(3))]
        assert np.array_equal(human[0].cov, _EIG_FLOOR * np.eye(3))
        assert_separation_matches_oracles(one_link_model(self.MEAN + gap * direction), [0.0], human)


@st.composite
def separation_cases(draw):
    """A joint vector of the default arm and 1, 5 or 17 human joints, each at
    0-2 m from one tracked frame, with covariance eigenvalues in [1e-9, 1]."""
    n_human = draw(st.sampled_from([1, 5, 17]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lams = 10.0 ** np.array(draw(st.lists(st.floats(-9.0, 0.0), min_size=3 * n_human, max_size=3 * n_human)))
    dists = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n_human, max_size=n_human)))
    model = default_robot_model()
    q = rng.uniform(-1.2, 1.2, 7)
    frames = fk_batch(model, q[None]).positions[0, list(model.tracked_frames)]
    directions = rng.normal(size=(n_human, 3))
    means = frames[rng.integers(len(frames), size=n_human)]
    means += dists[:, None] * directions / np.linalg.norm(directions, axis=1)[:, None]
    rotations = np.linalg.qr(rng.normal(size=(n_human, 3, 3)))[0]
    covs = (rotations * lams.reshape(n_human, 1, 3)) @ rotations.swapaxes(1, 2)
    covs = 0.5 * (covs + covs.swapaxes(1, 2))
    return model, q, [HumanJointGaussian(mean, cov) for mean, cov in zip(means, covs)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(separation_cases())
def test_separation_matches_difference_form(case):
    assert_separation_matches_oracles(*case)


class TestWeightValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            CostWeights(w_dist=-0.1)

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidInputError):
            CostWeights.from_dict({"w_dist": 1.0, "w_bogus": 2.0})

    def test_round_trip(self):
        w = CostWeights(1, 2, 3, 4, 5, 6)
        assert CostWeights.from_dict(w.to_dict()) == w


def make_task(start=(0.0, 0.0, 0.0), goals=((0.6, -0.5, 0.3), (0.7, -0.3, 0.3)), goal_index=0, **changes):
    """A cost task of the default robot with its legibility inputs as given."""
    fields = dict(
        model=default_robot_model(), weights=CostWeights(w_leg=1.0), gaze=[0.75, 0.05, 0.3], leg_start=start,
        goals=goals, goal_index=goal_index, goal=GoalSpec([0.5, -0.4, 0.3], [1.0, 0.0, 0.0, 0.0]), head_index=0,
    )
    return CostTask(**{**fields, **changes})


class TestGoalAndLegibilityValidation:
    def test_non_unit_goal_quaternion_rejected(self):
        with pytest.raises(InvalidInputError, match="goal orientation must be a unit quaternion"):
            GoalSpec([0.5, -0.4, 0.3], [1.0, 1.0, 0.0, 0.0])

    def test_empty_legibility_goals_rejected(self):
        with pytest.raises(InvalidInputError, match="legibility goals must be a nonempty"):
            make_task(goals=np.zeros((0, 3)))

    @pytest.mark.parametrize(
        "changes, message",
        [
            pytest.param({"goals": [[0.6, -0.5]]}, r"legibility goals must be a nonempty \(G, 3\) array", id="goals"),
            pytest.param({"goal_index": 2}, r"legibility goal_index must be an integer in \[0, 1\]", id="goal_index"),
            pytest.param({"goal_index": 0.5}, "legibility goal_index must be an integer", id="fractional"),
            pytest.param({"start": [0.0, 0.0]}, "legibility start", id="start"),
            pytest.param({"head_index": -1}, "head_index must be an integer >= 0", id="head_index"),
        ],
    )
    def test_task_inputs_are_checked(self, changes, message):
        with pytest.raises(InvalidInputError, match=message):
            make_task(**changes)


class TestStoredInputs:
    """Goal and legibility inputs keep read-only copies of the caller's arrays."""

    def test_goal_spec(self):
        p, q = np.array([0.5, -0.4, 0.3]), np.array([1.0, 0.0, 0.0, 0.0])
        goal = GoalSpec(p, q)
        p += 1.0
        q[0] = -1.0
        assert np.array_equal(goal.position, [0.5, -0.4, 0.3])
        assert np.array_equal(goal.orientation, [1.0, 0.0, 0.0, 0.0])
        assert not goal.position.flags.writeable and not goal.orientation.flags.writeable

    def test_cost_task(self):
        start, goals = np.zeros(3), np.array([[0.6, -0.5, 0.3], [0.7, -0.3, 0.3]])
        task = make_task(start, goals)
        start += 1.0
        goals[0] = 0.0
        assert np.array_equal(task.leg_start, np.zeros(3))
        assert np.array_equal(task.goals, [[0.6, -0.5, 0.3], [0.7, -0.3, 0.3]])
        assert not task.leg_start.flags.writeable and not task.goals.flags.writeable
        assert not task.leg_slopes.flags.writeable and not task.huu.flags.writeable


class TestArrayRecordsCompareByIdentity:
    """Records that hold arrays answer == and hash by identity, without raising."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: GoalSpec([0, 0, 0], [1, 0, 0, 0]), id="GoalSpec"),
            pytest.param(default_robot_model, id="RobotModel"),
            pytest.param(make_task, id="CostTask"),
            pytest.param(ReachConfig, id="ReachConfig"),
            pytest.param(lambda: synthesize_reach(ReachConfig()), id="HumanPrediction"),
        ],
    )
    def test_eq_and_hash(self, make):
        a, b = make(), make()
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2
