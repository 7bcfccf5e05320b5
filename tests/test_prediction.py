import dataclasses
import json

import numpy as np
import pytest

from anticip_mpc import InvalidInputError
from anticip_mpc.prediction import (
    HumanPrediction,
    ReachConfig,
    load_prediction,
    minimum_jerk_profile,
    prediction_to_dict,
    prediction_from_dict,
    save_prediction,
    slice_horizon,
    synthesize_reach,
)

from conftest import random_spd
from oracles import HumanJointGaussian, floor_pd, slice_horizon_loop


def make_prediction(n_frames=20, n_joints=5, dt=0.25, seed=0):
    rng = np.random.default_rng(seed)
    means = rng.uniform(-1, 1, (n_frames, n_joints, 3))
    covs = np.array([[random_spd(rng) for _ in range(n_joints)] for _ in range(n_frames)])
    return HumanPrediction(
        joint_names=tuple(f"j{i}" for i in range(n_joints)),
        head_index=0,
        means=means,
        covs=covs,
        dt=dt,
    )


BAD_ENTRY = "frame 3, joint 1: mean must be 3 numbers and cov a 3x3 matrix of numbers"
NOT_PD = np.diag([1.0, 1.0, -0.1])
ASYMMETRIC = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


class TestLoading:
    def test_round_trip(self, tmp_path):
        pred = make_prediction()
        path = tmp_path / "pred.json"
        save_prediction(pred, path)
        loaded = load_prediction(path)
        assert loaded.n_frames == 20
        assert loaded.n_joints == 5
        np.testing.assert_allclose(loaded.means, pred.means)
        np.testing.assert_allclose(loaded.covs, pred.covs)

    @pytest.mark.parametrize(
        "names, means, covs, message",
        [
            (("j0",), np.zeros((2, 1, 2)), np.tile(np.eye(3), (2, 1, 1, 1)), r"means must have shape \(T, H, 3\)"),
            (("j0",), np.zeros((2, 1, 3)), np.tile(np.eye(3), (2, 1, 1)), r"covs must have shape \(T, H, 3, 3\)"),
            (("j0", "j1"), np.zeros((2, 1, 3)), np.tile(np.eye(3), (2, 1, 1, 1)), "joint_names length must match"),
        ],
        ids=["means", "covs", "joint_names"],
    )
    def test_array_shapes_checked(self, names, means, covs, message):
        with pytest.raises(InvalidInputError, match=message):
            HumanPrediction(names, 0, means, covs, dt=0.25)

    def test_missing_key_named(self):
        data = prediction_to_dict(make_prediction())
        del data["frames"]
        with pytest.raises(InvalidInputError, match="prediction missing required key: 'frames'"):
            prediction_from_dict(data)

    def test_non_pd_covariance_names_frame_and_joint(self, tmp_path):
        pred = make_prediction()
        data = prediction_to_dict(pred)
        data["frames"][3][1]["cov"] = np.diag([1.0, 1.0, -0.1]).tolist()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidInputError, match="frame 3, joint 1"):
            load_prediction(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("mean", [0.1, float("nan"), 0.2], "mean at frame 3, joint 1 must be finite"),
            ("cov", [[1.0, 1e-3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "frame 3, joint 1 is not symmetric"),
            ("cov", np.diag([1.0, 1.0, -0.1]).tolist(), "frame 3, joint 1 is not positive definite"),
            ("cov", np.diag([1.0, float("inf"), 1.0]).tolist(), "frame 3, joint 1 must be a finite"),
            # a scalar or a string would otherwise broadcast into every coordinate
            ("mean", "0.5", BAD_ENTRY),
            ("mean", True, BAD_ENTRY),
            ("mean", 0.5, BAD_ENTRY),
            ("mean", [0.1, 0.2], BAD_ENTRY),
            ("mean", [[0.1, 0.2, 0.3]], BAD_ENTRY),
            ("mean", [True, False, True], BAD_ENTRY),
            # a float array would turn a bool among numbers into 0 or 1
            ("mean", [True, 0.0, 0.0], BAD_ENTRY),
            ("cov", [[1.0, False, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], BAD_ENTRY),
            ("mean", [10**400, 0.0, 0.0], BAD_ENTRY),
            ("cov", 1.0, BAD_ENTRY),
            ("cov", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], BAD_ENTRY),
            ("cov", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], BAD_ENTRY),
        ],
        ids=[
            "nan_mean", "asymmetric_cov", "non_pd_cov", "infinite_cov", "string_mean", "bool_mean",
            "scalar_mean", "short_mean", "nested_mean", "bool_vector_mean", "bool_among_numbers_mean",
            "bool_among_numbers_cov", "huge_int_mean", "scalar_cov", "2x3_cov", "string_cov",
        ],
    )
    def test_from_dict_rejects_bad_entry_naming_frame_and_joint(self, field, value, message):
        data = prediction_to_dict(make_prediction())
        data["frames"][3][1][field] = value
        with pytest.raises(InvalidInputError, match=message):
            prediction_from_dict(data)

    def test_integer_entries_load_as_floats(self):
        data = prediction_to_dict(make_prediction())
        data["frames"][3][1] = {"mean": [0, 1, 0], "cov": np.eye(3, dtype=int).tolist()}
        pred = prediction_from_dict(data)
        assert pred.means.dtype == float and pred.covs.dtype == float
        assert np.array_equal(pred.means[3, 1], [0.0, 1.0, 0.0])
        assert np.array_equal(pred.covs[3, 1], np.eye(3))

    def test_first_bad_covariance_is_named(self):
        data = prediction_to_dict(make_prediction())
        data["frames"][7][0]["cov"] = np.diag([1.0, 1.0, -0.1]).tolist()
        data["frames"][5][4]["cov"] = np.diag([1.0, 1.0, 0.0]).tolist()
        data["frames"][5][2]["cov"] = [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(InvalidInputError, match="frame 5, joint 2 is not symmetric"):
            prediction_from_dict(data)

    @pytest.mark.parametrize(
        "first, second, message",
        [
            (NOT_PD, np.diag([1.0, np.inf, 1.0]), "frame 2, joint 3 is not positive definite"),
            (ASYMMETRIC, np.diag([1.0, 1.0, 0.0]), "frame 2, joint 3 is not symmetric"),
            (np.diag([1.0, np.nan, 1.0]), ASYMMETRIC, "frame 2, joint 3 must be a finite"),
        ],
        ids=["non_pd_then_infinite", "asymmetric_then_non_pd", "nan_then_asymmetric"],
    )
    def test_first_of_two_bad_covariances_is_named(self, first, second, message):
        # the later entry sits at an earlier joint, so (frame, joint) order decides
        data = prediction_to_dict(make_prediction())
        data["frames"][2][3]["cov"] = np.asarray(first).tolist()
        data["frames"][3][0]["cov"] = np.asarray(second).tolist()
        with pytest.raises(InvalidInputError, match=message):
            prediction_from_dict(data)

    def test_covariance_asymmetric_within_tolerance_is_stored_symmetric(self):
        pred = make_prediction()
        covs = pred.covs.copy()
        covs[3, 1, 0, 2] += 5e-10
        stored = HumanPrediction(pred.joint_names, 0, pred.means, covs, pred.dt).covs
        assert np.array_equal(stored, np.swapaxes(stored, -1, -2))
        assert stored[3, 1, 0, 2] == 0.5 * covs[3, 1, 0, 2] + 0.5 * covs[3, 1, 2, 0] != covs[3, 1, 0, 2]
        assert np.array_equal(stored[4:], covs[4:])

    def test_asymmetric_covariance_rejected(self):
        cov = np.eye(3)
        cov[0, 1] = 1e-3
        with pytest.raises(InvalidInputError, match="symmetric"):
            HumanJointGaussian(np.zeros(3), cov)

    def test_callers_arrays_stay_writeable_and_unshared(self):
        means = np.zeros((2, 1, 3))
        covs = np.broadcast_to(np.eye(3), (2, 1, 3, 3)).copy()
        pred = HumanPrediction(("j",), 0, means, covs, 1.0)
        assert means.flags.writeable and covs.flags.writeable
        means[0, 0, 0] = 5.0
        covs[0, 0, 0, 0] = 5.0
        assert pred.means[0, 0, 0] == 0.0 and pred.covs[0, 0, 0, 0] == 1.0
        assert not pred.means.flags.writeable and not pred.covs.flags.writeable

    def test_ragged_frames_rejected(self, tmp_path):
        pred = make_prediction()
        data = prediction_to_dict(pred)
        data["frames"][4] = data["frames"][4][:3]
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidInputError, match="ragged"):
            load_prediction(path)


class TestSliceHorizon:
    def test_identity_slice(self):
        pred = make_prediction()
        means, covs = slice_horizon(pred, pred.t0, 3, pred.dt)
        assert np.array_equal(means, pred.means[:3])
        assert np.array_equal(covs, pred.covs[:3])

    def test_hold_and_inflate(self):
        pred = make_prediction(n_frames=4)
        means, covs = slice_horizon(pred, pred.t0, 6, pred.dt)
        np.testing.assert_array_equal(means[4], pred.means[-1])
        np.testing.assert_array_equal(means[5], pred.means[-1])
        np.testing.assert_allclose(covs[4], pred.covs[-1] * 1.5, rtol=1e-12)
        np.testing.assert_allclose(covs[5], pred.covs[-1] * 2.25, rtol=1e-12)

    def test_midpoint_interpolation(self):
        means = np.array([[[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]])
        covs = np.array([[np.eye(3)], [4.0 * np.eye(3)]])
        pred = HumanPrediction(("j0",), 0, means, covs, dt=1.0)
        m, c = slice_horizon(pred, 0.5, 1, 1.0)
        np.testing.assert_allclose(m[0, 0], [0.5, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(c[0, 0], 2.5 * np.eye(3), atol=1e-12)

    def test_interpolated_and_inflated_covariances_stay_pd(self):
        rng = np.random.default_rng(5)
        pred = make_prediction(n_frames=6, seed=5)
        for _ in range(50):
            t0 = float(rng.uniform(0, 6 * pred.dt))
            _, covs = slice_horizon(pred, t0, 4, float(rng.uniform(0.05, 0.5)))
            np.linalg.cholesky(covs)  # raises if any is not PD
            assert np.max(np.abs(covs - np.swapaxes(covs, -1, -2))) < 1e-12

    def test_matches_per_joint_reference_bitwise(self):
        rng = np.random.default_rng(6)
        seen = set()
        for seed in range(20):
            pred = make_prediction(n_frames=8, n_joints=int(rng.integers(1, 18)), dt=0.1, seed=seed)
            t_start = float(rng.choice([0.0, 0.2, float(rng.uniform(0.0, 0.6))]))
            dt = float(rng.choice([0.1, 0.25, float(rng.uniform(0.05, 0.3))]))
            got = slice_horizon(pred, t_start, 6, dt)
            ref = slice_horizon_loop(pred, t_start, 6, dt)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
            s = (t_start - pred.t0) / pred.dt + np.arange(6) * dt / pred.dt
            on_grid = np.abs(s - np.round(s)) < 1e-9
            seen |= {"held" if x > pred.n_frames - 1 else "on grid" if g else "interpolated" for x, g in zip(s, on_grid)}
        assert seen == {"on grid", "interpolated", "held"}

    def test_eigenvalue_floor_matches_reference_bitwise(self):
        rng = np.random.default_rng(7)
        # PD covariances with one eigenvalue below the 1e-9 floor, along the
        # same eigenvector in both frames (one of them diagonal), and one well
        # above it
        rot = [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(3)] + [np.eye(3)]
        low = [[(r * [4e-10, 1e-2 * (1 + t), 3e-2]) @ r.T for r in rot] for t in range(2)]
        covs = np.array([frame + [random_spd(rng)] for frame in low])
        covs = 0.5 * (covs + np.swapaxes(covs, -1, -2))
        assert np.max(np.linalg.eigvalsh(covs[:, :4])[..., 0]) < 1e-9 < np.min(np.linalg.eigvalsh(covs[:, 4]))
        means = rng.uniform(-1, 1, (2, 5, 3))
        pred = HumanPrediction(("a", "b", "c", "d", "e"), 0, means, covs, dt=1.0)
        # conditioned once, at construction, as the per-matrix reference floors each
        for t, h in np.ndindex(2, 5):
            assert np.array_equal(pred.covs[t, h], floor_pd(covs[t, h]))
        got = slice_horizon(pred, 0.0, 4, 0.3)
        ref = slice_horizon_loop(pred, 0.0, 4, 0.3)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
        # every knot, the on-grid first one included, is at or above the floor
        lows = np.linalg.eigvalsh(got[1])[..., 0]
        assert np.all(lows >= 1e-9 * (1 - 1e-6))

    def test_overflowing_hold_rejected(self):
        means = np.zeros((2, 1, 3))
        covs = np.array([[np.eye(3)], [np.eye(3)]])
        pred = HumanPrediction(("j0",), 0, means, covs, dt=0.001)
        slice_horizon(pred, 0.0, 6, 0.25)  # 1.5^1249 is still finite
        with pytest.raises(InvalidInputError, match=r"runs 4\.999 s \(4999 grid steps\) past"):
            slice_horizon(pred, 0.0, 21, 0.25)  # a 5 s task: 1.5^4999 overflows

    def test_non_finite_inflated_covariance_rejected(self):
        means = np.zeros((2, 1, 3))
        covs = np.array([[1e308 * np.eye(3)], [1e308 * np.eye(3)]])
        pred = HumanPrediction(("j0",), 0, means, covs, dt=1.0)
        slice_horizon(pred, 0.0, 3, 1.0)  # held one step: 1.5e308 is finite
        with pytest.raises(InvalidInputError, match="not finite"):
            slice_horizon(pred, 0.0, 4, 1.0)  # held two steps: 2.25e308 overflows

    def test_start_before_prediction_rejected(self):
        pred = make_prediction()
        with pytest.raises(InvalidInputError):
            slice_horizon(pred, pred.t0 - 0.1, 3, pred.dt)

    @pytest.mark.parametrize(
        "n_knots, dt, message",
        [(0, 0.25, "n_knots must be an integer >= 1"), (3, 0.0, "dt must be positive and finite"),
         (3, -0.25, "dt must be positive and finite"), (3, float("nan"), "dt must be positive and finite"),
         (3, float("inf"), "dt must be positive and finite")],
        ids=["n_knots", "dt", "negative_dt", "nan_dt", "inf_dt"],
    )
    def test_bad_knot_grid_rejected(self, n_knots, dt, message):
        with pytest.raises(InvalidInputError, match=message):
            slice_horizon(make_prediction(), 0.0, n_knots, dt)

    def test_start_within_tolerance_reads_the_first_frame(self):
        pred = make_prediction()
        means, covs = slice_horizon(pred, pred.t0 - 1e-9 * pred.dt, 2, pred.dt)
        assert np.array_equal(means, pred.means[:2])
        assert np.array_equal(covs, pred.covs[:2])


class TestSynthesizeReach:
    def test_zero_growth_keeps_base_covariance(self):
        config = ReachConfig(duration=2.0, settle=0.0, growth_rate=0.0, base_cov=1e-3)
        pred = synthesize_reach(config)
        expected = np.broadcast_to(1e-3 * np.eye(3), pred.covs.shape)
        np.testing.assert_allclose(pred.covs, expected, rtol=1e-12)

    def test_minimum_jerk_midpoint(self):
        config = ReachConfig(
            joint_names=("hand",),
            head_index=0,
            rest_positions=np.array([[0.4, 0.0, 0.8]]),
            reach_joint=0,
            reach_target=np.array([0.4, 0.4, 0.8]),
            duration=2.0,
            dt=0.25,
        )
        pred = synthesize_reach(config)
        idx = int(round(1.0 / 0.25))
        np.testing.assert_allclose(pred.means[idx, 0], [0.4, 0.2, 0.8], atol=1e-15)
        np.testing.assert_allclose(pred.means[-1, 0], [0.4, 0.4, 0.8], atol=1e-15)

    def test_profile_boundaries(self):
        assert minimum_jerk_profile(np.array([0.0]))[0] == 0.0
        assert minimum_jerk_profile(np.array([1.0]))[0] == 1.0
        tau = np.linspace(0, 1, 50)
        s = minimum_jerk_profile(tau)
        assert np.all(np.diff(s) >= 0)

    def test_seeded_determinism(self):
        a = synthesize_reach(ReachConfig(seed=42))
        b = synthesize_reach(ReachConfig(seed=42))
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.covs, b.covs)
        c = synthesize_reach(ReachConfig(seed=43))
        assert not np.array_equal(a.means, c.means)

    @pytest.mark.parametrize("name, value", [("settle", -3.0), ("growth_rate", -1.0)])
    def test_negative_settle_or_growth_rate_rejected(self, name, value):
        with pytest.raises(InvalidInputError, match=f"reach {name} must be finite and >= 0"):
            ReachConfig(**{name: value})

    def test_settle_holds_the_target(self):
        pred = synthesize_reach(ReachConfig(duration=2.0, settle=1.0, dt=0.25))
        assert pred.n_frames == 13
        assert np.array_equal(pred.means[8:, 4], np.broadcast_to(pred.means[8, 4], (5, 3)))

    def test_non_positive_duration_rejected(self):
        with pytest.raises(InvalidInputError):
            synthesize_reach(ReachConfig(duration=0.0))

    @pytest.mark.parametrize("dt", [0.0, -0.25, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_dt_rejected(self, dt):
        with pytest.raises(InvalidInputError, match="reach dt must be positive and finite"):
            synthesize_reach(ReachConfig(dt=dt))

    def test_config_cannot_be_reassigned(self):
        """Fields are checked once, at construction, so none can be replaced after."""
        config = ReachConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.dt = -1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.rest_positions = np.zeros((2, 3))
        assert config.dt == 0.25 and config.rest_positions.shape == (len(config.joint_names), 3)

    def test_unknown_config_key_rejected(self):
        with pytest.raises(InvalidInputError):
            ReachConfig.from_dict({"durration": 2.0})

    def test_non_object_config_rejected(self):
        with pytest.raises(InvalidInputError, match="must be an object"):
            ReachConfig.from_dict(5)
