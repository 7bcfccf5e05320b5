"""Serial-chain forward kinematics and positional Jacobians.

The robot is a chain of revolute joints. Joint ``j`` rotates about a fixed
axis expressed in its parent frame and is followed by a fixed translation to
the next frame, so a robot with ``n`` joints has ``n + 1`` frames: frame 0 is
the base, frame ``j`` (``j >= 1``) is the origin of joint ``j``, and the last
frame is the end effector. All quaternions use (w, x, y, z) ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, float_array, integer, read_json, store, write_json

Array = np.ndarray

_UNIT_TOL = 1e-9


# ---------------------------------------------------------------------------
# quaternion / rotation helpers


def quat_to_matrix(q: Array) -> Array:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=float)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_matrix(R: Array) -> Array:
    """Unit quaternions (w, x, y, z) for a batch of rotation matrices, by
    Shepperd's method (1978).

    Accepts shape (..., 3, 3) and returns (..., 4). The symmetric matrix
    K = 4 q q^T is written from R's entries; its row with the largest
    diagonal entry, 4 q_i q, is the best-conditioned multiple of q, so it is
    normalized and its sign canonicalized so w >= 0.
    """
    R = np.asarray(R, dtype=float)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = np.moveaxis(R, (-2, -1), (0, 1))
    K = np.stack(
        [
            1 + r00 + r11 + r22, r21 - r12, r02 - r20, r10 - r01,
            r21 - r12, 1 + r00 - r11 - r22, r01 + r10, r02 + r20,
            r02 - r20, r01 + r10, 1 - r00 + r11 - r22, r12 + r21,
            r10 - r01, r02 + r20, r12 + r21, 1 - r00 - r11 + r22,
        ],
        axis=-1,
    ).reshape(r00.shape + (4, 4))
    row = np.argmax(np.diagonal(K, axis1=-2, axis2=-1), axis=-1)
    q = np.take_along_axis(K, row[..., None, None], axis=-2)[..., 0, :]
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    return np.where(q[..., :1] < 0, -q, q)


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True, eq=False)
class RobotModel:
    """Axis-offset serial chain with velocity bounds and tracked frames.

    tracked_frames lists the frame indices whose origins count as robot
    joints in the human-separation cost; eef_frame must be the last frame.
    """

    axes: Array  # (n, 3) unit rotation axes in the parent frame
    offsets: Array  # (n, 3) translation to the next frame, meters
    base_position: Array
    base_orientation: Array  # unit quaternion (w, x, y, z)
    tracked_frames: tuple
    eef_frame: int
    vel_lower: Array  # rad/s
    vel_upper: Array

    def __post_init__(self):
        axes = float_array(self.axes, "robot joints[].axis")
        n = len(axes) if axes.ndim == 2 else 0
        if n < 1 or axes.shape != (n, 3):
            raise InvalidInputError(f"robot joints[].axis must be n_joints 3-vectors, got shape {axes.shape}")
        offsets = float_array(self.offsets, "robot joints[].offset", (n, 3))
        norms = np.linalg.norm(axes, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
            raise InvalidInputError("all rotation axes must be unit length")
        lo = float_array(self.vel_lower, "robot velocity_bounds.lower", (n,))
        hi = float_array(self.vel_upper, "robot velocity_bounds.upper", (n,))
        if not np.all(lo < hi):
            raise InvalidInputError("velocity bounds must satisfy lower < upper elementwise")
        base_p = float_array(self.base_position, "robot base_pose.position", (3,))
        base_q = float_array(self.base_orientation, "robot base_pose.orientation", (4,))
        if abs(np.linalg.norm(base_q) - 1.0) > _UNIT_TOL:
            raise InvalidInputError("base orientation must be a unit quaternion")
        frames = self.tracked_frames
        if not isinstance(frames, (list, tuple)) or not frames:
            raise InvalidInputError(f"robot tracked_frames must be a nonempty list of frames, got {frames!r}")
        tracked = tuple(integer(f, "robot tracked_frames entry", 0, n) for f in frames)
        eef_frame = integer(self.eef_frame, "robot eef_frame")
        if eef_frame != n:
            raise InvalidInputError("eef_frame must be the last frame of the chain")
        # per-joint Rodrigues terms aa^T, I - aa^T and [a]x, flattened and stacked
        # (n, 3, 9) once for the FK hot path, which weights them by 1, cos q and sin q
        outer = axes[:, :, None] * axes[:, None, :]
        skews = np.zeros((n, 3, 3))
        skews[:, 0, 1] = -axes[:, 2]
        skews[:, 0, 2] = axes[:, 1]
        skews[:, 1, 0] = axes[:, 2]
        skews[:, 1, 2] = -axes[:, 0]
        skews[:, 2, 0] = -axes[:, 1]
        skews[:, 2, 1] = axes[:, 0]
        # frame j's columns [axis_j | offset_(j-1)], zero where a frame has none,
        # so one product turns every joint axis and link step into the world frame
        frame_cols = np.zeros((n + 1, 3, 2))
        frame_cols[:n, :, 0] = axes
        frame_cols[1:, :, 1] = offsets
        store(
            self, axes=axes, offsets=offsets, base_position=base_p, base_orientation=base_q,
            vel_lower=lo, vel_upper=hi, tracked_frames=tracked, eef_frame=eef_frame,
            _rot_terms=np.stack([outer, np.eye(3) - outer, skews], axis=1).reshape(n, 3, 9),
            _frame_cols=frame_cols, _base_rotation=quat_to_matrix(base_q),
        )

    @property
    def n_joints(self) -> int:
        return self.axes.shape[0]


@dataclass
class BatchFk:
    """Forward kinematics of a batch of configurations."""

    positions: Array  # (B, n + 1, 3) frame origins in base coordinates
    joint_axes_world: Array  # (B, n, 3)
    eef_rotations: Array  # (B, 3, 3)

    @cached_property
    def eef_quats(self) -> Array:  # (B, 4), computed only when asked for
        return quat_from_matrix(self.eef_rotations)


def fk_batch(model: RobotModel, qs: Array) -> BatchFk:
    """Vectorized FK over a batch of joint vectors, shape (B, n_joints); a
    single configuration is a one-row batch."""
    qs = np.asarray(qs, dtype=float)
    B, n = qs.shape
    # joint-major Rodrigues weights [1, cos q, sin q] (n, B, 3), so one product with the
    # model's terms gives every joint rotation aa^T + c (I - aa^T) + s [a]x (n, B, 3, 3)
    weights = np.empty((n, B, 3))
    weights[..., 0] = 1.0
    np.cos(qs.T, out=weights[..., 1])
    np.sin(qs.T, out=weights[..., 2])
    joint_rots = (weights @ model._rot_terms).reshape(n, B, 3, 3)
    # frame_rots[j] is the world rotation of frame j, before joint j turns
    frame_rots = np.empty((n + 1, B, 3, 3))
    frame_rots[0] = model._base_rotation
    for j in range(n):
        np.matmul(frame_rots[j], joint_rots[j], out=frame_rots[j + 1])
    # one (3B, 3) @ (3, 2) product per frame, then (B, n + 1, 3, 2): world axes, link steps
    cols = (frame_rots.reshape(n + 1, 3 * B, 3) @ model._frame_cols).reshape(n + 1, B, 3, 2).swapaxes(0, 1)
    steps = cols[..., 1]
    steps[:, 0] = model.base_position
    positions = steps.cumsum(axis=1)  # sequential sums, as the chain adds them
    return BatchFk(positions, cols[:, :n, :, 0], frame_rots[n])


_WRAP = np.array([0, 1, 2, 0, 1])  # (a x b)_i = a_{i+1} b_{i+2} - a_{i+2} b_{i+1}: slices 1:4 and 2:5


def joint_mask(frames, n: int) -> Array:
    """(F, 1, n) factors of the Jacobian columns of frames: 1.0 where joint j moves frame f (j < f), else 0.0."""
    return (np.arange(n) < np.asarray(frames, dtype=int)[:, None])[:, None] * 1.0


def position_jacobians(fk: BatchFk, frames, *, mask: Array | None = None) -> Array:
    """Positional Jacobians (B, len(frames), 3, n) from a batched FK result.

    Column j of frame f is axis_j x (p_f - p_j) for j < f and zero otherwise.
    mask is joint_mask(frames, n), built here unless the caller keeps it (CostTask does).
    """
    frames = np.asarray(frames, dtype=int)
    n = fk.joint_axes_world.shape[1]
    if mask is None:
        mask = joint_mask(frames, n)
    # (B, F, 5, n) levers and (B, 1, 5, n) axes with components 0, 1, 2, 0, 1, so
    # the cross product reads its shifted components as slices; it is written
    # out because np.cross spends most of its time on axis bookkeeping here
    p = fk.positions[..., _WRAP]
    lever = p[:, frames, :, None] - p[:, None, :n, :].swapaxes(2, 3)
    a = fk.joint_axes_world[..., _WRAP].swapaxes(1, 2)[:, None]
    J = a[:, :, 1:4] * lever[:, :, 2:5] - a[:, :, 2:5] * lever[:, :, 1:4]
    J *= mask  # joint j moves frame f only if j < f
    return J


# ---------------------------------------------------------------------------
# model file I/O and the shipped default


def model_to_dict(model: RobotModel) -> dict:
    return {
        "n_joints": model.n_joints,
        "joints": [
            {"axis": model.axes[j].tolist(), "offset": model.offsets[j].tolist()}
            for j in range(model.n_joints)
        ],
        "base_pose": {
            "position": model.base_position.tolist(),
            "orientation": model.base_orientation.tolist(),
        },
        "tracked_frames": list(model.tracked_frames),
        "eef_frame": model.eef_frame,
        "velocity_bounds": {
            "lower": model.vel_lower.tolist(),
            "upper": model.vel_upper.tolist(),
        },
    }


def model_from_dict(data: dict) -> RobotModel:
    try:
        joints = data["joints"]
        n = integer(data["n_joints"], "robot n_joints", 1)
        if not isinstance(joints, list) or len(joints) != n:
            raise InvalidInputError("robot n_joints does not match the joints list")
        return RobotModel(
            axes=[j["axis"] for j in joints],
            offsets=[j["offset"] for j in joints],
            base_position=data["base_pose"]["position"],
            base_orientation=data["base_pose"]["orientation"],
            tracked_frames=data["tracked_frames"],
            eef_frame=data["eef_frame"],
            vel_lower=data["velocity_bounds"]["lower"],
            vel_upper=data["velocity_bounds"]["upper"],
        )
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed robot model: {exc}") from exc


def load_robot_model(path) -> RobotModel:
    return model_from_dict(read_json(path, "robot model"))


def save_robot_model(model: RobotModel, path) -> None:
    write_json(path, model_to_dict(model), indent=2)


def default_robot_model() -> RobotModel:
    """Generic 7-joint research arm used by benchmarks and generated scenarios.

    Alternating z/y axes with link offsets giving roughly 0.9 m of reach.
    """
    z = [0.0, 0.0, 1.0]
    y = [0.0, 1.0, 0.0]
    axes = np.array([z, y, z, y, z, y, z])
    offsets = np.array(
        [
            [0.0, 0.0, 0.333],
            [0.0, 0.0, 0.18],
            [0.0825, 0.0, 0.21],
            [-0.0825, 0.0, 0.18],
            [0.0, 0.0, 0.21],
            [0.088, 0.0, 0.107],
            [0.0, 0.0, 0.103],
        ]
    )
    return RobotModel(
        axes=axes,
        offsets=offsets,
        base_position=np.zeros(3),
        base_orientation=np.array([1.0, 0.0, 0.0, 0.0]),
        tracked_frames=tuple(range(1, 8)),
        eef_frame=7,
        vel_lower=-2.0 * np.ones(7),
        vel_upper=2.0 * np.ones(7),
    )
