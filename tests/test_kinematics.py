import json

import numpy as np
import pytest

from anticip_mpc import InvalidInputError
from anticip_mpc.kinematics import (
    RobotModel,
    default_robot_model,
    fk_batch,
    joint_mask,
    load_robot_model,
    model_to_dict,
    position_jacobians,
    quat_from_matrix,
    quat_to_matrix,
    save_robot_model,
)

from conftest import eef_pose, random_chain
from oracles import fk_rodrigues_chain, fk_transform_chain, position_jacobian, position_jacobians_cross


class TestForwardKinematics:
    def test_zero_angles_sum_link_offsets(self, planar_model):
        fk = fk_batch(planar_model, np.zeros((1, 2)))
        np.testing.assert_allclose(fk.positions[0, planar_model.eef_frame], [2.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            fk.positions[0], [[0, 0, 0], [1, 0, 0], [2, 0, 0]], atol=1e-12
        )

    def test_rigid_rotation_of_chain(self, planar_model):
        pose = eef_pose(planar_model, [np.pi / 2, 0.0])
        np.testing.assert_allclose(pose.position, [0.0, 2.0, 0.0], atol=1e-12)

    def test_matches_transform_composition_oracle(self, seven_dof):
        rng = np.random.default_rng(11)
        for _ in range(10):
            q = rng.uniform(-np.pi, np.pi, 7)
            fk = fk_batch(seven_dof, q[None, :])
            positions, R = fk_transform_chain(
                seven_dof.axes,
                seven_dof.offsets,
                seven_dof.base_position,
                np.eye(3),
                q,
            )
            np.testing.assert_allclose(fk.positions[0], positions, atol=1e-10)
            np.testing.assert_allclose(quat_to_matrix(fk.eef_quats[0]), R, atol=1e-10)

    def test_random_chains_match_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            model = random_chain(rng, int(rng.integers(2, 8)))
            q = rng.uniform(-np.pi, np.pi, model.n_joints)
            fk = fk_batch(model, q[None, :])
            positions, _ = fk_transform_chain(
                model.axes,
                model.offsets,
                model.base_position,
                quat_to_matrix(model.base_orientation),
                q,
            )
            np.testing.assert_allclose(fk.positions[0], positions, atol=1e-10)

    def test_batch_matches_per_joint_rodrigues_chain(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            model = random_chain(rng, int(rng.integers(1, 9)))
            qs = rng.uniform(-np.pi, np.pi, (5, model.n_joints))
            fk = fk_batch(model, qs)
            for b, q in enumerate(qs):
                positions, axes_world, R = fk_rodrigues_chain(model, q)
                np.testing.assert_allclose(fk.positions[b], positions, rtol=0, atol=1e-12)
                np.testing.assert_allclose(fk.joint_axes_world[b], axes_world, rtol=0, atol=1e-12)
                np.testing.assert_allclose(fk.eef_rotations[b], R, rtol=0, atol=1e-12)

    def test_unit_quaternion_output(self, seven_dof):
        rng = np.random.default_rng(13)
        qs = rng.uniform(-np.pi, np.pi, (32, 7))
        quats = fk_batch(seven_dof, qs).eef_quats
        np.testing.assert_allclose(np.linalg.norm(quats, axis=1), 1.0, atol=1e-12)
        assert np.all(quats[:, 0] >= 0)


class TestPositionJacobian:
    def test_planar_lever_arms(self, planar_model):
        J = position_jacobian(planar_model, [0.0, 0.0], 2)
        np.testing.assert_allclose(J[:, 0], [0.0, 2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(J[:, 1], [0.0, 1.0, 0.0], atol=1e-12)

    def test_base_frame_is_fixed(self, planar_model):
        J = position_jacobian(planar_model, [0.3, -0.7], 0)
        assert np.array_equal(J, np.zeros((3, 2)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        h = 1e-6
        for _ in range(6):
            model = random_chain(rng, int(rng.integers(2, 8)))
            q = rng.uniform(-np.pi, np.pi, model.n_joints)
            frame = int(rng.integers(1, model.n_joints + 1))
            J = position_jacobian(model, q, frame)
            J_fd = np.empty_like(J)
            for j in range(model.n_joints):
                dq = np.zeros(model.n_joints)
                dq[j] = h
                pp, pm = fk_batch(model, np.array([q + dq, q - dq])).positions[:, frame]
                J_fd[:, j] = (pp - pm) / (2 * h)
            err = np.linalg.norm(J - J_fd) / max(np.linalg.norm(J_fd), 1e-9)
            assert err < 1e-5

    def test_distal_columns_are_exactly_zero(self):
        rng = np.random.default_rng(15)
        model = random_chain(rng, 6)
        q = rng.uniform(-np.pi, np.pi, 6)
        for frame in range(model.n_joints + 1):
            J = position_jacobian(model, q, frame)
            assert np.array_equal(J[:, frame:], np.zeros((3, 6 - frame)))

    def test_batch_matches_single(self, seven_dof):
        rng = np.random.default_rng(16)
        qs = rng.uniform(-1, 1, (5, 7))
        fk = fk_batch(seven_dof, qs)
        frames = [2, 5, 7]
        J = position_jacobians(fk, frames)
        for b in range(5):
            for fi, frame in enumerate(frames):
                np.testing.assert_allclose(
                    J[b, fi], position_jacobian(seven_dof, qs[b], frame), atol=1e-12
                )

    @pytest.mark.parametrize("batch", [1, 6, 66])
    def test_matches_cross_product_reference_bitwise(self, seven_dof, batch):
        rng = np.random.default_rng(batch)
        for model in (seven_dof, random_chain(rng, 7)):
            fk = fk_batch(model, rng.uniform(-np.pi, np.pi, (batch, 7)))
            for frames in ([1, 2, 3, 4, 5, 6, 7, 7], [7, 0, 3], list(range(8))):
                J = position_jacobians_cross(fk, frames)
                assert np.array_equal(position_jacobians(fk, frames), J)
                assert np.array_equal(position_jacobians(fk, frames, mask=joint_mask(frames, 7)), J)  # the task's kept mask

    def test_invalid_frame(self, planar_model):
        with pytest.raises(InvalidInputError):
            position_jacobian(planar_model, [0.0, 0.0], 3)


class TestIsometry:
    def test_pairwise_distances_invariant_under_base_change(self):
        rng = np.random.default_rng(17)
        model = random_chain(rng, 5)
        quat = rng.normal(size=4)
        quat /= np.linalg.norm(quat)
        moved = RobotModel(
            axes=model.axes,
            offsets=model.offsets,
            base_position=rng.uniform(-1, 1, 3),
            base_orientation=quat,
            tracked_frames=model.tracked_frames,
            eef_frame=model.eef_frame,
            vel_lower=model.vel_lower,
            vel_upper=model.vel_upper,
        )
        qa = rng.uniform(-2, 2, 5)
        qb = rng.uniform(-2, 2, 5)
        d_orig = np.linalg.norm(eef_pose(model, qa).position - eef_pose(model, qb).position)
        d_moved = np.linalg.norm(eef_pose(moved, qa).position - eef_pose(moved, qb).position)
        assert abs(d_orig - d_moved) < 1e-9


class TestQuaternions:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(18)
        q = rng.normal(size=(64, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        q[q[:, 0] < 0] *= -1
        R = np.array([quat_to_matrix(qi) for qi in q])
        np.testing.assert_allclose(quat_from_matrix(R), q, atol=1e-12)

    def test_near_pi_rotations(self):
        # the trace-dominant w row of K degrades near 180 degrees; another row takes over
        for axis in np.eye(3):
            R = quat_to_matrix([np.cos(np.pi / 2 - 1e-8), *(np.sin(np.pi / 2 - 1e-8) * axis)])
            q = quat_from_matrix(R)
            np.testing.assert_allclose(quat_to_matrix(q), R, atol=1e-9)

    @pytest.mark.parametrize(
        "axis", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [0.3, -0.5, 0.8], None],
        ids=["x", "y", "z", "diagonal", "oblique", "identity"],
    )
    def test_exact_half_turns(self, axis):
        # a half-turn has w = 0 exactly, so q comes from one of K's x, y, z rows
        if axis is None:
            R = np.eye(3)
        else:
            a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
            R = 2 * np.outer(a, a) - np.eye(3)  # Rodrigues at pi
        q = quat_from_matrix(R)
        assert abs(np.linalg.norm(q) - 1) < 1e-15
        assert q[0] >= 0
        np.testing.assert_allclose(quat_to_matrix(q), R, rtol=0, atol=1e-15)


class TestModelValidation:
    def test_non_unit_axis_rejected(self):
        with pytest.raises(InvalidInputError):
            RobotModel(
                axes=np.array([[0.0, 0.0, 2.0]]),
                offsets=np.array([[1.0, 0.0, 0.0]]),
                base_position=np.zeros(3),
                base_orientation=[1, 0, 0, 0],
                tracked_frames=(1,),
                eef_frame=1,
                vel_lower=[-1.0],
                vel_upper=[1.0],
            )

    def test_bounds_ordering_enforced(self):
        with pytest.raises(InvalidInputError):
            RobotModel(
                axes=np.array([[0.0, 0.0, 1.0]]),
                offsets=np.array([[1.0, 0.0, 0.0]]),
                base_position=np.zeros(3),
                base_orientation=[1, 0, 0, 0],
                tracked_frames=(1,),
                eef_frame=1,
                vel_lower=[1.0],
                vel_upper=[-1.0],
            )

    @pytest.mark.parametrize(
        "axes, base_orientation, message",
        [
            ([[0.0, 0.0, 1.0, 0.0]], [1, 0, 0, 0], r"robot joints\[\]\.axis must be n_joints 3-vectors"),
            ([[0.0, 0.0, 1.0]], [1, 1, 0, 0], "base orientation must be a unit quaternion"),
        ],
        ids=["axis_shape", "base_orientation"],
    )
    def test_named_field_rejected(self, axes, base_orientation, message):
        with pytest.raises(InvalidInputError, match=message):
            RobotModel(
                axes=np.array(axes),
                offsets=np.array([[1.0, 0.0, 0.0]]),
                base_position=np.zeros(3),
                base_orientation=base_orientation,
                tracked_frames=(1,),
                eef_frame=1,
                vel_lower=[-1.0],
                vel_upper=[1.0],
            )

    def test_eef_must_be_last_frame(self):
        with pytest.raises(InvalidInputError):
            RobotModel(
                axes=np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
                offsets=np.zeros((2, 3)),
                base_position=np.zeros(3),
                base_orientation=[1, 0, 0, 0],
                tracked_frames=(1,),
                eef_frame=1,
                vel_lower=-np.ones(2),
                vel_upper=np.ones(2),
            )

    def test_callers_arrays_stay_writeable_and_unshared(self):
        """The model keeps read-only copies; the caller's arrays are neither frozen nor shared."""
        inputs = {
            "axes": np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
            "offsets": np.array([[0.1, 0.0, 0.3], [0.0, 0.0, 0.2]]),
            "base_position": np.zeros(3),
            "base_orientation": np.array([1.0, 0.0, 0.0, 0.0]),
            "vel_lower": -np.ones(2),
            "vel_upper": np.ones(2),
        }
        kept = {name: arr.copy() for name, arr in inputs.items()}
        model = RobotModel(tracked_frames=(1, 2), eef_frame=2, **inputs)
        before = fk_batch(model, np.array([[0.3, -0.2]])).positions
        for name, arr in inputs.items():
            assert arr.flags.writeable, name
            arr += 0.5
            assert np.array_equal(getattr(model, name), kept[name]), name
            assert not getattr(model, name).flags.writeable, name
        assert np.array_equal(fk_batch(model, np.array([[0.3, -0.2]])).positions, before)

    def test_json_round_trip(self, tmp_path, seven_dof):
        path = tmp_path / "robot.json"
        save_robot_model(seven_dof, path)
        loaded = load_robot_model(path)
        np.testing.assert_array_equal(loaded.axes, seven_dof.axes)
        np.testing.assert_array_equal(loaded.offsets, seven_dof.offsets)
        assert loaded.tracked_frames == seven_dof.tracked_frames
        np.testing.assert_array_equal(loaded.vel_upper, seven_dof.vel_upper)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InvalidInputError):
            load_robot_model(path)
        data = model_to_dict(default_robot_model())
        del data["joints"]
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidInputError):
            load_robot_model(path)
