import json

import numpy as np
import pytest

from anticip_mpc import CostTask, CostWeights, GoalSpec, InvalidInputError, KnotCostEvaluator
from anticip_mpc.costs import legibility_logits, softmax
from anticip_mpc.kinematics import default_robot_model, fk_batch
from anticip_mpc.errors import SCHEMA_VERSION
from anticip_mpc.metrics import (
    FOV_HALF_ANGLE,
    MetricsReport,
    evaluate_trace,
    latency_metric,
    legibility_metric,
    nominal_metric,
    separation_metric,
    visibility_metric,
)
from anticip_mpc.mpc import ExecutionTrace, ReplanRecord
from anticip_mpc.solver import SolveResult


def make_trace(
    eef,
    human=None,
    tracked=None,
    nominal=None,
    gaze=None,
    goals=None,
    goal_index=0,
    start=None,
    replan_times=(0.1, 0.1),
    dt=0.25,
):
    """Hand-built trace for metric unit tests."""
    eef = np.atleast_2d(np.asarray(eef, dtype=float))
    T1 = eef.shape[0]
    if human is None:
        human = np.full((T1, 1, 3), 10.0)  # far away
    human = np.asarray(human, dtype=float)
    if tracked is None:
        tracked = eef[:, None, :]
    tracked = np.asarray(tracked, dtype=float)
    nominal = eef.copy() if nominal is None else np.asarray(nominal, dtype=float)
    goals = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]) if goals is None else np.asarray(goals)
    start = eef[0] if start is None else np.asarray(start, dtype=float)
    replans = [
        ReplanRecord(
            t_plan=i * 0.5,
            wall_time=w,
            result=SolveResult(
                states=np.zeros((2, 1)),
                controls=np.zeros((1, 1)),
                total_cost=0.0,
                iterations=1,
                outer_iterations=1,
                converged=True,
                max_bound_violation=0.0,
                grad_inf=0.0,
            ),
        )
        for i, w in enumerate(replan_times)
    ]
    return ExecutionTrace(
        times=np.arange(T1) * dt,
        states=np.zeros((T1, 1)),
        eef_positions=eef,
        eef_quats=np.tile([1.0, 0, 0, 0], (T1, 1)),
        tracked_positions=tracked,
        human_true=human,
        human_pred=human.copy(),
        min_human_dist=np.linalg.norm(tracked[:, None] - human[:, :, None], axis=-1).reshape(T1, -1).min(axis=1),
        head_index=0,
        nominal=nominal,
        gaze_object=np.array([1.0, 0.0, 0.0]) if gaze is None else np.asarray(gaze, dtype=float),
        legibility_start=start,
        legibility_goals=goals,
        legibility_goal_index=goal_index,
        goal_position=np.zeros(3),
        goal_orientation=np.array([1.0, 0, 0, 0]),
        replans=replans,
        total_wall_time=float(sum(replan_times)) + 0.01,
        goal_reached=False,
        dt=dt,
    )


class TestSeparationMetric:
    def test_always_clear(self):
        trace = make_trace(np.zeros((5, 3)))
        assert separation_metric(trace) == 1.0

    def test_half_within(self):
        eef = np.zeros((4, 3))
        human = np.full((4, 1, 3), 10.0)
        human[2:, 0] = [0.1, 0.0, 0.0]  # closer than 0.2 m on last two steps
        trace = make_trace(eef, human=human)
        assert separation_metric(trace) == 0.5

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        eef = rng.uniform(-0.3, 0.3, (10, 3))
        human = rng.uniform(-0.3, 0.3, (10, 2, 3))
        trace = make_trace(eef, human=human)
        values = [separation_metric(trace, threshold=t) for t in np.linspace(0.01, 1.0, 12)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_misaligned_grid_rejected(self):
        """Human motion off the trace grid is rejected when the trace loads,
        before any metric reads it."""
        data = make_trace(np.zeros((5, 3))).to_dict()
        data["human_true"] = np.zeros((4, 1, 3)).tolist()
        with pytest.raises(InvalidInputError, match=r"trace human_true must have shape \(5, \*, 3\), got \(4, 1, 3\)"):
            ExecutionTrace.from_dict(data)


class TestVisibilityMetric:
    def test_on_gaze_ray(self):
        eef = np.tile([2.0, 0.0, 0.0], (5, 1))
        human = np.zeros((5, 1, 3))
        trace = make_trace(eef, human=human, gaze=[1.0, 0.0, 0.0])
        assert visibility_metric(trace) == 1.0

    def test_behind_head(self):
        eef = np.tile([-2.0, 0.0, 0.0], (5, 1))
        human = np.zeros((5, 1, 3))
        trace = make_trace(eef, human=human, gaze=[1.0, 0.0, 0.0])
        assert visibility_metric(trace) == 0.0

    def test_cone_boundary(self):
        # 45 degrees off the ray: inside a 60 degree cone, outside a 30 degree one
        eef = np.tile([1.0, 1.0, 0.0], (3, 1))
        human = np.zeros((3, 1, 3))
        trace = make_trace(eef, human=human, gaze=[1.0, 0.0, 0.0])
        assert visibility_metric(trace, fov_half_angle=np.pi / 3) == 1.0
        assert visibility_metric(trace, fov_half_angle=np.pi / 6) == 0.0

    def test_agrees_with_the_visibility_cost_across_the_cone(self):
        """End effectors just inside and just outside the 60 degree cone: the
        metric counts a step inside exactly when the visibility cost's gaze
        angle is at most 60 degrees."""
        model = default_robot_model()
        rng = np.random.default_rng(5)
        q0 = rng.uniform(-1, 1, 7)
        head = np.array([1.1, 0.0, 0.55])
        b = fk_batch(model, q0[None]).positions[0, -1] - head
        k = np.cross(b, [0.0, 0.0, 1.0])
        k /= np.linalg.norm(k)
        gaze = head + np.cos(FOV_HALF_ANGLE) * b + np.sin(FOV_HALF_ANGLE) * np.cross(k, b)  # b turned 60 degrees
        qs = q0 + 1e-3 * rng.standard_normal((40, 7))

        task = CostTask(
            model, CostWeights(w_vis=1.0), gaze, np.zeros(3), np.zeros((1, 3)), 0,
            GoalSpec(np.zeros(3), [1.0, 0.0, 0.0, 0.0]), head_index=0,
        )
        evaluator = KnotCostEvaluator(task, head[None, None], np.eye(3)[None, None], np.zeros((1, 3)))
        angles = evaluator.value(qs[:, None])  # unit head sigma: the angle itself
        inside = angles <= FOV_HALF_ANGLE
        assert 0 < inside.sum() < len(qs)
        eef = fk_batch(model, qs).positions[:, -1]
        for p, seen in zip(eef, inside):
            assert visibility_metric(make_trace(p[None], human=head[None, None], gaze=gaze)) == float(seen)


    def test_end_effector_at_the_head_is_outside_the_cone(self):
        # a zero eef ray has a gaze angle of pi/2, as in the visibility cost
        eef = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        trace = make_trace(eef, human=np.zeros((2, 1, 3)), gaze=[1.0, 0.0, 0.0])
        assert visibility_metric(trace) == 0.5
        assert visibility_metric(trace, fov_half_angle=0.51 * np.pi) == 1.0

    def test_gazed_object_at_the_head_rejected(self):
        trace = make_trace(np.tile([2.0, 0.0, 0.0], (3, 1)), human=np.zeros((3, 1, 3)), gaze=[0.0, 0.0, 0.0])
        with pytest.raises(InvalidInputError, match="degenerate gaze ray"):
            visibility_metric(trace)


class TestLegibilityMetric:
    def test_empty_goal_set_rejected(self):
        """A trace with no candidate goal is rejected when it is built, so no metric reads it."""
        eef = np.cumsum(np.full((3, 3), 0.1), axis=0)
        with pytest.raises(InvalidInputError, match=r"trace legibility_goal_index must be an integer in \[0, -1\]"):
            make_trace(eef, goals=np.zeros((0, 3)))
        # an empty list is an empty goal set too, rejected by its shape
        with pytest.raises(InvalidInputError, match=r"trace legibility_goals must have shape \(\*, 3\), got \(0,\)"):
            make_trace(eef, goals=[])

    def test_static_at_start_ties_goals(self):
        for k in (2, 4):
            goals = np.random.default_rng(k).uniform(-1, 1, (k, 3))
            eef = np.tile([0.1, 0.2, 0.3], (6, 1))
            trace = make_trace(eef, goals=goals, start=[0.1, 0.2, 0.3])
            assert np.isclose(legibility_metric(trace), 1.0 / k, rtol=1e-12)

    def test_straight_line_beats_detour(self):
        goals = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        start = np.zeros(3)
        ts = np.linspace(0, 1, 9)[:, None]
        straight = ts * goals[0]
        detour = np.vstack([np.linspace(0, 1, 5)[:, None] * goals[1], np.linspace(goals[1], goals[0], 4)])
        t_straight = make_trace(straight, goals=goals, goal_index=0, start=start)
        t_detour = make_trace(detour, goals=goals, goal_index=0, start=start)
        assert legibility_metric(t_straight) > legibility_metric(t_detour)

    def test_matches_brute_force(self):
        """The metric equals the path-cost form computed by hand, whose squared
        accumulated path length every goal shares, on random paths up to 5 m long."""
        rng = np.random.default_rng(1)
        for _ in range(24):
            k = int(rng.integers(2, 6))
            goals = rng.uniform(-1, 1, (k, 3))
            gi = int(rng.integers(k))
            steps = rng.standard_normal((int(rng.integers(2, 12)), 3))
            lengths = np.linalg.norm(steps, axis=1)
            steps *= rng.uniform(0.0, 5.0) / lengths.sum()  # the whole path is at most 5 m long
            eef = np.vstack([rng.uniform(-1, 1, 3), steps]).cumsum(axis=0)
            start = eef[0]
            trace = make_trace(eef, goals=goals, goal_index=gi, start=start)
            value = legibility_metric(trace)

            probs = []
            for t in range(len(eef)):
                path_len = sum(np.linalg.norm(eef[i + 1] - eef[i]) for i in range(t))
                d = path_len**2
                weights = []
                for g in goals:
                    vq = np.sum((g - eef[t]) ** 2)
                    vs = np.sum((g - start) ** 2)
                    weights.append(np.exp(-d - vq) / np.exp(-vs))
                probs.append(weights[gi] / sum(weights))
            expected = float(np.mean(probs))
            assert abs(value - expected) <= 1e-10 * max(abs(expected), 1e-30)

    def test_path_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        goals = rng.uniform(-1, 1, (4, 3))
        eef = np.cumsum(rng.uniform(-0.2, 0.2, (10, 3)), axis=0)
        slopes, offsets = legibility_logits(eef[0], goals)
        probs = softmax(eef @ slopes + offsets)
        assert probs.shape == (10, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        # the metric for each goal reads that goal's column
        means = [legibility_metric(make_trace(eef, goals=goals, goal_index=gi)) for gi in range(4)]
        np.testing.assert_allclose(means, probs.mean(axis=0), rtol=0, atol=1e-15)

    def test_one_point_scores_the_goal_probability_there(self):
        """The path term cancels in the softmax, so a one-point trace scores
        the true goal's inferred probability at its point."""
        goals = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        start, point = np.zeros(3), np.array([0.3, 0.1, 0.0])
        weights = [np.exp(np.sum((g - start) ** 2) - np.sum((g - point) ** 2)) for g in goals]
        for gi in range(2):
            trace = make_trace(point[None], goals=goals, goal_index=gi, start=start)
            assert np.isclose(legibility_metric(trace), weights[gi] / sum(weights), rtol=1e-12)


class TestNominalMetric:
    def test_identical_is_zero(self):
        trace = make_trace(np.random.default_rng(3).uniform(-1, 1, (6, 3)))
        assert nominal_metric(trace) == 0.0

    def test_unit_offset_sums(self):
        eef = np.zeros((5, 3))
        nominal = np.tile([1.0, 0.0, 0.0], (5, 1))
        trace = make_trace(eef, nominal=nominal)
        assert np.isclose(nominal_metric(trace), 5.0, rtol=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, (6, 3))
        b = rng.uniform(-1, 1, (6, 3))
        assert np.isclose(
            nominal_metric(make_trace(a, nominal=b)), nominal_metric(make_trace(b, nominal=a)), rtol=1e-12
        )


class TestLatencyMetric:
    def test_sums_replan_times(self):
        trace = make_trace(np.zeros((4, 3)), replan_times=(0.1, 0.1, 0.1))
        total, per_replan = latency_metric(trace)
        assert np.isclose(total, 0.3)
        assert per_replan == [0.1, 0.1, 0.1]

    def test_single_replan(self):
        trace = make_trace(np.zeros((4, 3)), replan_times=(0.123,))
        total, _ = latency_metric(trace)
        assert np.isclose(total, 0.123)

    def test_missing_records_rejected(self):
        """A trace with no replan is rejected when it is built, so the latency metric never sums none."""
        with pytest.raises(InvalidInputError, match="trace replans must be a nonempty list of replan records"):
            make_trace(np.zeros((4, 3)), replan_times=())


class TestEvaluateTrace:
    def test_randomized_traces_stay_in_range(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            T1 = int(rng.integers(3, 12))
            eef = np.cumsum(rng.uniform(-0.2, 0.2, (T1, 3)), axis=0)
            human = rng.uniform(-0.6, 0.6, (T1, 2, 3))
            goals = rng.uniform(-1, 1, (3, 3))
            trace = make_trace(eef, human=human, goals=goals, goal_index=int(rng.integers(3)))
            report = evaluate_trace(trace)
            assert 0.0 <= report.dst <= 1.0
            assert 0.0 <= report.vis <= 1.0
            assert 0.0 < report.leg < 1.0
            assert report.nom >= 0.0 and report.lat >= 0.0

    def test_against_flag_validated(self):
        trace = make_trace(np.zeros((4, 3)))
        with pytest.raises(InvalidInputError):
            evaluate_trace(trace, against="hallucinated")
        for value in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(InvalidInputError, match="threshold must be positive and finite"):
                evaluate_trace(trace, threshold=value)
        for value in (np.nan, np.inf, 0.0, -0.5, 3.2):
            with pytest.raises(InvalidInputError, match="fov_half_angle must be"):
                evaluate_trace(trace, fov_half_angle=value)
        # the range's closed end: a cone of half-angle pi holds every direction
        assert evaluate_trace(trace, fov_half_angle=np.pi).vis == 1.0

    def test_report_serialization(self, tmp_path):
        trace = make_trace(np.cumsum(np.full((5, 3), 0.05), axis=0))
        report = evaluate_trace(trace)
        path = tmp_path / "report.json"
        report.save_json(path)
        data = json.loads(path.read_text())
        assert set(MetricsReport.csv_header) <= set(data)
        assert data["config"]["threshold"] == 0.2

    def test_report_dict_lists_every_field(self):
        report = evaluate_trace(make_trace(np.cumsum(np.full((5, 3), 0.05), axis=0)))
        by_hand = {
            "schema_version": SCHEMA_VERSION,
            "dst": report.dst,
            "vis": report.vis,
            "leg": report.leg,
            "nom": report.nom,
            "lat": report.lat,
            "per_replan": list(report.per_replan),
            "config": dict(report.config),
        }
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(by_hand, sort_keys=True)

    def test_fraction_bounds_enforced(self):
        with pytest.raises(InvalidInputError):
            MetricsReport(dst=1.2, vis=0.5, leg=0.5, nom=0.0, lat=0.1, per_replan=[0.1])

    def test_negative_latency_rejected(self):
        with pytest.raises(InvalidInputError, match="lat must be nonnegative"):
            MetricsReport(dst=0.5, vis=0.5, leg=0.5, nom=0.0, lat=-0.1, per_replan=[0.1])
