"""The batched six-term knot cost and its inputs.

Six terms are combined into one knot cost: human separation (inverse
Mahalanobis distance), end-effector visibility (gaze angle over head
uncertainty), motion legibility (goal-inference probability), deviation from
a nominal end-effector path, control smoothness, and goal-pose error.
:class:`KnotCostEvaluator` evaluates them over whole trajectories with
batched kinematics. Apart from separation and smoothness, every term is a row
of one stack of scalars of the end-effector pose: gaze angle / sigma_head,
1 - p(goal), ||p - nominal||, ||p - goal|| and the orientation error, scored
with one product with the task's row weights. Their derivatives are one stack
of unit-weight gradients, and each row's Gauss-Newton curvature is one scale.
Every term's gradient and positive-semidefinite curvature reach joint space
through one product with the frame Jacobians: positional ones, and the end
effector's angular one. Its inputs come in two kinds: one :class:`CostTask`
for what the task fixes (robot, weights, gaze target, legibility goals and
start, goal pose and head index), built once with the constants derived from
it, and per-knot arrays for what each horizon slices (the human prediction and
the nominal path). From these each evaluator builds its constants once: the
inverse covariances, the head spread, the gaze rays, the norm rows' targets,
and per knot and human joint the 4x4 form Q with
(p - mu)^T S^-1 (p - mu) = [p; 1]^T Q [p; 1], so one matrix product scores
every tracked frame's separation from every joint. ``value`` keeps its
stack's term record (FK, the row stack and the terms' intermediates), from
which the line search's accepted candidate gets its derivatives. Two of those
intermediates serve a value and its gradient at once: the one residual stack
p - targets gives both norm rows and their unit gradients, and the one product
R R_g^T of the end-effector and goal rotations gives the orientation row (from
its trace, by ``GoalSpec.orientation_errors``, the formula's one home) and that
row's gradient (from its skew part). The evaluator checks the shapes of its
horizon arrays and the task's head index when it is built. The scalar
per-knot forms of the same terms, which the test suite checks the evaluator
against, live in ``tests/oracles.py``. The planning loop and the metrics
measure with this module's goal errors, gaze rays and goal inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import Fields, InvalidInputError, float_array, integer, number, store
from .kinematics import _UNIT_TOL, BatchFk, RobotModel, fk_batch, joint_mask, position_jacobians, quat_to_matrix

Array = np.ndarray

DIST_EPS = 1e-6  # Mahalanobis denominator regularizer; the raw formula is singular at contact
HESS_FLOOR = 1e-8
_CURV_GUARD = 1e-3  # floor of a row's value in its curvature scale, which keeps the curvature bounded
_TINY = 1e-12
# curvature scale of each end-effector row along its gradient, in units of w_k / max(c_k, _CURV_GUARD):
# 1/2 for the Gauss-Newton rank-one rows (gaze, legibility, orientation), -1 for the norms (nominal,
# goal position), whose isotropic w_k / max(c_k, _CURV_GUARD) I is added apart
_ROW_CURV = np.array([0.5, 0.5, -1.0, -1.0, 0.5])
_EYE3 = np.eye(3)
# a quarter of the axial vector of M - M^T from the row-major flattened M: entries (2,1), (0,2), (1,0)
# (flat 7, 2, 3) less (1,2), (2,0), (0,1) (flat 5, 6, 1), as one product (..., 9) @ (9, 3)
_AXIAL = np.zeros((9, 3))
_AXIAL[[7, 2, 3], [0, 1, 2]], _AXIAL[[5, 6, 1], [0, 1, 2]] = 0.25, -0.25
GAZE_FLOOR = 1e-9  # a head-centred ray shorter than this has no direction


@dataclass(frozen=True)
class CostWeights(Fields):
    """Weights of the six knot-cost terms, each a finite number >= 0."""

    section = "weights"

    w_dist: float = 0.0
    w_vis: float = 0.0
    w_leg: float = 0.0
    w_nom: float = 0.0
    w_smooth: float = 0.0
    w_goal: float = 0.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            self._check(name, number, 0)


@dataclass(frozen=True, eq=False)
class GoalSpec:
    """Target end-effector position and orientation (rotation matrix R_g)."""

    position: Array
    orientation: Array  # unit quaternion (w, x, y, z)

    def __post_init__(self):
        p = float_array(self.position, "goal_pose.position", (3,))
        q = float_array(self.orientation, "goal_pose.orientation", (4,))
        if abs(np.linalg.norm(q) - 1.0) > _UNIT_TOL:
            raise InvalidInputError("goal orientation must be a unit quaternion")
        store(self, position=p, orientation=q, rotation=quat_to_matrix(q))

    def errors(self, positions: Array, rotations: Array) -> tuple[Array, Array]:
        """Errors ||p - p_g|| and 1 - <q, q_g>^2 of end-effector positions
        (..., N, 3) and rotations (..., N, 3, 3)."""
        return _norms(positions - self.position), self.orientation_errors(self.relative(rotations))

    def relative(self, rotations: Array) -> Array:
        """The rotations (..., 3, 3) relative to the goal's, R R_g^T, as one (3 ..., 3) @ (3, 3) product."""
        return (rotations.reshape(-1, 3) @ self.rotation.T).reshape(rotations.shape)

    @staticmethod
    def orientation_errors(relative: Array) -> Array:
        """1 - <q, q_g>^2 = 1 - (tr(R R_g^T) + 1) / 4 from the rotations relative to the goal's,
        R R_g^T (..., 3, 3): the trace is the sum of the flattened product's entries 0, 4 and 8."""
        return 0.75 - 0.25 * np.add.reduce(relative.reshape(relative.shape[:-2] + (9,))[..., ::4], axis=-1)


@dataclass(frozen=True, eq=False)
class CostTask:
    """The cost inputs a task fixes across its replans, and the constants
    derived from them, built once."""

    model: RobotModel
    weights: CostWeights
    gaze: Array  # (3,) point the human is assumed to look at
    leg_start: Array  # (3,) task-start end-effector position
    goals: Array  # (G, 3) candidate goal positions
    goal_index: int  # the true goal among them
    goal: GoalSpec
    head_index: int  # the human joint that holds the head

    def __post_init__(self):
        start = float_array(self.leg_start, "legibility start", (3,))
        goals = np.atleast_2d(float_array(self.goals, "legibility goals"))
        if len(goals) < 1 or goals.shape[1:] != (3,):
            raise InvalidInputError(f"legibility goals must be a nonempty (G, 3) array, got shape {goals.shape}")
        goal_index = integer(self.goal_index, "legibility goal_index", 0, len(goals) - 1)
        model, w = self.model, self.weights
        tracked, eef = model.tracked_frames, model.eef_frame  # a tuple of ints, an int
        # one Jacobian per distinct frame: the tracked frames, then the end
        # effector unless it is tracked too
        jframes = tracked if eef in tracked else tracked + (eef,)
        eye = np.eye(model.n_joints)
        leg_slopes, leg_offsets = legibility_logits(start, goals)
        store(
            self, gaze=float_array(self.gaze, "gaze", (3,)), leg_start=start, goals=goals, goal_index=goal_index,
            head_index=integer(self.head_index, "head_index", 0), leg_slopes=leg_slopes, leg_offsets=leg_offsets,
            tracked=np.array(tracked), jframes=np.array(jframes), jmask=joint_mask(jframes, model.n_joints),
            eef_row=jframes.index(eef),
            hess_floor=HESS_FLOOR * eye, huu=(2.0 * w.w_smooth + HESS_FLOOR) * eye,
            row_weights=np.array([w.w_vis, w.w_leg, w.w_nom, w.w_goal, w.w_goal]),
        )

    def goal_probs(self, p_eef: Array) -> Array:
        """Inferred probabilities (..., G) of the candidate goals at end-effector points (..., 3)."""
        return softmax(p_eef @ self.leg_slopes + self.leg_offsets)


class KnotCostEvaluator:
    """Evaluates the knot cost over whole trajectories with batched FK: the
    task's fixed inputs against one horizon's human prediction (means (N, H, 3),
    covariances (N, H, 3, 3)) and nominal end-effector path (N, 3). The shapes,
    the numeric dtypes and the task's head index are checked here; the values
    are the loader's to check, so no element of an array is scanned."""

    def __init__(self, task: CostTask, means: Array, covs: Array, nominal: Array):
        means = float_array(means, "means", finite=False)
        covs = float_array(covs, "covs", finite=False)
        nominal = float_array(nominal, "nominal", finite=False)
        if means.ndim != 3 or means.shape[2] != 3 or not len(means):
            raise InvalidInputError(f"means must be an (N, H, 3) array with N >= 1, got shape {means.shape}")
        N, H = means.shape[:2]
        if covs.shape != (N, H, 3, 3):
            raise InvalidInputError(f"covs must be an ({N}, {H}, 3, 3) array, one per mean, got shape {covs.shape}")
        if nominal.shape != (N, 3):
            raise InvalidInputError(f"nominal must be an ({N}, 3) array, one point per knot, got shape {nominal.shape}")
        if task.head_index >= H:
            raise InvalidInputError(f"head_index must be below the prediction's {H} joints, got {task.head_index}")
        self.task = task
        self.mu, self.nominal, self.head = means, nominal, means[:, task.head_index]
        inv = np.linalg.inv(covs)
        self.cov_inv = 0.5 * (inv + inv.swapaxes(-1, -2))  # exactly symmetric, as Q below must be
        self.cov_inv_flat = self.cov_inv.reshape(N, H, 9)
        # Q = [[S^-1, -S^-1 mu], [-mu^T S^-1, mu^T S^-1 mu]] per knot and joint, kept (N, 16, H) for (u u^T) @ Q
        s_mu = self.cov_inv @ means[..., None]  # (N, H, 3, 1)
        quad = np.empty((N, 4, 4, H))
        quad[:, :3, :3] = self.cov_inv.transpose(0, 2, 3, 1)
        quad[:, :3, 3] = quad[:, 3, :3] = -s_mu[..., 0].swapaxes(1, 2)
        quad[:, 3, 3] = (means[..., None, :] @ s_mu)[..., 0, 0]
        self.quad = quad.reshape(N, 16, H)
        head_covs = covs[:, task.head_index].reshape(N, 9)
        self.sigma_head = np.sqrt(np.add.reduce(head_covs[:, ::4], axis=-1) / 3.0)  # (N,), from the trace
        self.gaze_hat = gaze_directions(task.gaze, self.head)  # unit head-to-object rays (N, 3)
        # the norm rows' targets (N, 2, 3): the nominal point, then the goal position
        self.targets = np.empty((N, 2, 3))
        self.targets[:, 0], self.targets[:, 1] = nominal, task.goal.position
        # Q's first three columns (N, 4, 3H): u^T of them is (S^-1 (p - mu))^T, the separation gradient's factor
        self.quad_cols = quad[:, :, :3].reshape(N, 4, -1)
        self._kept = None  # the term record of the last value call

    # -- values ------------------------------------------------------------

    def _terms(self, xs: Array) -> SimpleNamespace:
        """The term record of trajectories xs (..., N, n), flattened to C: the rows (C, N, n), their
        batched FK (frame positions, world joint axes, end-effector rotations), the end-effector row
        stack (C, N, 5) and the intermediates that value and state_derivatives both read, each (C, N, ...).
        Among them, the norm rows' one residual stack resid = p - targets (C, N, 2, 3) gives both norm
        rows and their gradients, and the one product rrg = R R_g^T (C, N, 3, 3) gives the orientation
        row (GoalSpec.orientation_errors, from its trace) and that row's gradient (from its skew part)."""
        task = self.task
        N, n = xs.shape[-2:]
        fk = fk_batch(task.model, xs.reshape(-1, n))
        t = SimpleNamespace(xs=xs.reshape(-1, N, n), positions=fk.positions.reshape(-1, N, n + 1, 3))
        t.axes, t.rotations = fk.joint_axes_world.reshape(-1, N, n, 3), fk.eef_rotations.reshape(-1, N, 3, 3)
        p_eef = t.positions[..., task.model.eef_frame, :]
        m, t.u = self._mahalanobis(t.positions)  # (C, N, R, H), (C, N, R, 4)
        t.denom = m + DIST_EPS
        t.bhat, t.cos, t.nb = gaze_cosines(self.gaze_hat, self.head, p_eef)
        t.probs = task.goal_probs(p_eef)
        t.resid = p_eef[..., None, :] - self.targets  # p - nominal, p - goal
        t.rrg = task.goal.relative(t.rotations)
        # gaze angle / sigma_head, 1 - p(goal), ||p - nominal||, then the goal errors ||p - goal|| and orientation
        t.rows = rows = np.empty(t.cos.shape + (5,))
        np.divide(np.arccos(t.cos), self.sigma_head, out=rows[..., 0])
        np.subtract(1.0, t.probs[..., task.goal_index], out=rows[..., 1])
        _norms(t.resid, out=rows[..., 2:4])
        rows[..., 4] = task.goal.orientation_errors(t.rrg)
        return t

    def _mahalanobis(self, positions: Array) -> tuple[Array, Array]:
        """Squared Mahalanobis distances (..., N, R, H) from the tracked frames of positions (..., N, F, 3)
        to every human joint, floored at 0 where the expansion cancels, and the frames' points [p; 1]."""
        tracked = self.task.tracked
        u = np.empty(positions.shape[:-2] + (len(tracked), 4))
        u[..., :3] = positions[..., tracked, :]
        u[..., 3] = 1.0
        uu = (u[..., :, None] * u[..., None, :]).reshape(u.shape[:-1] + (16,))
        return np.maximum(uu @ self.quad, 0.0), u

    def value(self, xs: Array, us: Optional[Array] = None):
        """Total cost of a trajectory, or of a stack of candidate trajectories.

        xs has shape (..., N, n) and us (..., N-1, n); the result has the
        leading shape, a scalar for a single (N, n) trajectory. All rows go
        through one batched FK call; their term record is kept for :meth:`state_derivatives`.
        """
        xs = np.array(xs, dtype=float)  # a copy, so the kept rows cannot change
        t = self._kept = self._terms(xs)
        w = self.task.weights
        vals = t.rows @ self.task.row_weights  # (C, N) knot costs
        vals += w.w_dist * np.add.reduce(1.0 / t.denom, axis=(-2, -1))
        total = np.add.reduce(vals, axis=-1).reshape(xs.shape[:-2])[()]
        # gated, not scaled: a zero weight times an overflowed control's inf square would be NaN
        if us is not None and w.w_smooth > 0:
            total = total + w.w_smooth * np.add.reduce(us * us, axis=(-2, -1))
        return total

    # -- derivatives ---------------------------------------------------------

    def state_derivatives(self, xs: Array) -> tuple[Array, Array]:
        """Gradient (N, n) and PSD curvature (N, n, n) of the per-knot state cost.

        Its term record is the kept stack's entries for the trajectory holding
        the same values (the line search's accepted candidate), else one of its
        own; the norm rows' gradients read its residuals p - targets and the
        orientation row's its product R R_g^T, so neither is formed twice.
        Every term adds its gradient and Gauss-Newton curvature to its row of
        g (N, F + 1, 3) and P (N, F + 1, 3, 3): separation to the tracked
        frames' positional rows; the end-effector rows, from one stack
        V (N, 5, 3) of unit-weight gradients, sum_k w_k V_k and
        sum_k s_k V_k V_k^T to the end effector's positional row (rows 0-3) or
        to the last, angular row, whose Jacobian has joint j's world axis as
        column j (row 4, the orientation).
        Row k's scale is s_k = w_k / (2 c_k) for the rank-one rows and -w_k / c_k
        for the norms, whose curvature (I - rhat rhat^T) / c_k also adds
        w_k / c_k I; c_k is the row's value floored at _CURV_GUARD. One product
        with the stacked Jacobians then gives sum_f J_f^T g_f and sum_f J_f^T P_f J_f.
        """
        xs = np.asarray(xs, dtype=float)
        N, n = xs.shape
        task, w = self.task, self.task.weights
        kept, hit = self._kept, ()
        if kept is not None and kept.xs.shape[1:] == xs.shape:
            hit = np.logical_and.reduce(kept.xs == xs, axis=(1, 2)).nonzero()[0]
        t, i = (kept, hit[0]) if len(hit) else (self._terms(xs), 0)
        positions, axes, rotations, u, denom = t.positions[i], t.axes[i], t.rotations[i], t.u[i], t.denom[i]
        bhat, cos, nb, probs, rows = t.bhat[i], t.cos[i], t.nb[i], t.probs[i], t.rows[i]
        resid, rrg = t.resid[i], t.rrg[i]
        # positional rows (N, F - 1, 3, n), then the angular row (N, 1, 3, n)
        F = len(task.jframes) + 1
        J = np.empty((N, F, 3, n))
        J[:, :-1] = position_jacobians(BatchFk(positions, axes, rotations), task.jframes, mask=task.jmask)
        J[:, -1] = axes.swapaxes(1, 2)

        g = np.zeros((N, F, 3))
        P = np.zeros((N, F, 3, 3))

        R = len(task.tracked)
        # S^-1 d = S^-1 p - S^-1 mu (N, R, 3, H): u against Q's first three columns, which are its rows
        sd = (u @ self.quad_cols).reshape(N, R, 3, -1)
        # gradient -sum_h c2 S^-1d with c2 = 2 w_dist / denom^2, and curvature with the sign of the
        # off-axis part flipped positive: sum_h 8 w_dist S^-1d (S^-1d)^T / denom^3 + c2 S^-1. Keeping
        # the full magnitude of both pieces stops line-search overshoot against the proximity barrier,
        # which otherwise stalls the inner loop. The gradient and the outer products are one product
        # sd @ [c2 | 4 c2 / denom (S^-1d)^T] (N, R, 3, 4)
        c2 = (2.0 * w.w_dist) / denom**2
        rhs = np.empty(c2.shape + (4,))
        rhs[..., 0] = c2
        np.multiply((c2 * (4.0 / denom))[..., None], sd.swapaxes(2, 3), out=rhs[..., 1:])
        sep = sd @ rhs
        np.negative(sep[..., 0], out=g[:, :R])
        np.add(sep[..., 1:], (c2 @ self.cov_inv_flat).reshape(N, R, 3, 3), out=P[:, :R])

        # unit-weight gradients V (N, 5, 3) of the end-effector rows: rows 0-3 w.r.t. the end-effector
        # position, the orientation row w.r.t. the angular row. The gaze angle's is
        # (cos bhat - ahat) / (|b| sin theta sigma_head), a norm's rhat = r / ||r||; each is zeroed at its
        # kink by a mask product, with its divisor floored there so that the masked quotient stays finite
        V = np.empty((N, 5, 3))
        v = cos[:, None] * bhat - self.gaze_hat
        sin_theta = _norms(v)
        scale = nb * np.maximum(sin_theta, 1e-9) * self.sigma_head
        np.multiply(v / scale[:, None], (sin_theta > 1e-9)[:, None], out=V[:, 0])
        p_r = probs[:, task.goal_index]
        np.multiply(-2.0 * p_r[:, None], task.goals[task.goal_index] - probs @ task.goals, out=V[:, 1])
        nr = rows[:, 2:4, None]
        np.multiply(resid / np.maximum(nr, _TINY), nr > _TINY, out=V[:, 2:4])
        # joint j turns the end effector about its world axis a_j, so d/dq_j of 1 - (tr(R_g^T R) + 1) / 4
        # is -tr(R_g^T [a_j]x R) / 4 = a_j . s / 4, with s the axial vector of R R_g^T - (R R_g^T)^T
        np.matmul(rrg.reshape(N, 9), _AXIAL, out=V[:, 4])
        wr = task.row_weights
        wc = wr / np.maximum(rows, _CURV_GUARD)  # w_k / c_k (N, 5)
        sV = (wc * _ROW_CURV)[:, :, None] * V
        g[:, task.eef_row] += wr[:4] @ V[:, :4]
        P[:, task.eef_row] += V[:, :4].swapaxes(1, 2) @ sV[:, :4] + (wc[:, 2] + wc[:, 3])[:, None, None] * _EYE3
        np.multiply(wr[4], V[:, 4], out=g[:, -1])
        np.multiply(V[:, 4, :, None], sV[:, 4, None, :], out=P[:, -1])

        Jf = J.reshape(N, 3 * F, n)
        gx = (g.reshape(N, 1, 3 * F) @ Jf)[:, 0]
        hxx = Jf.swapaxes(1, 2) @ (P @ J).reshape(N, 3 * F, n)
        hxx += task.hess_floor
        return gx, hxx

    def control_derivatives(self, us: Array) -> tuple[Array, Array]:
        """Gradient (M, n) of the control cost, and its curvature (n, n), the
        same at every knot: the task's read-only huu itself."""
        return 2.0 * self.task.weights.w_smooth * np.asarray(us, dtype=float), self.task.huu


def gaze_directions(gaze: Array, head: Array) -> Array:
    """Unit rays (..., 3) from head positions (..., 3) to the gazed object,
    which must lie GAZE_FLOOR or more from the head."""
    a = gaze - head
    na = _norms(a)
    if np.logical_or.reduce(na < GAZE_FLOOR, axis=None):
        raise InvalidInputError("degenerate gaze ray: the gazed object coincides with the head")
    return a / na[..., None]


def gaze_cosines(gaze_hat: Array, head: Array, p_eef: Array) -> tuple[Array, Array, Array]:
    """Unit head-to-end-effector rays, their cosines to the gaze rays, and their
    lengths floored at GAZE_FLOOR: an end effector at the head gets a zero
    ray, a right gaze angle and a finite gradient."""
    b = p_eef - head
    nb = np.maximum(_norms(b), GAZE_FLOOR)
    bhat = b / nb[..., None]
    cos_theta = np.maximum(np.minimum(np.add.reduce(gaze_hat * bhat, axis=-1), 1.0), -1.0)
    return bhat, cos_theta, nb


def legibility_logits(start: Array, goals: Array) -> tuple[Array, Array]:
    """Slopes (3, G) and offsets (G,) of the goal-inference logits Q @ slopes + offsets at
    end-effector points Q: goal G's ||G - S||^2 - ||G - Q||^2 from start S, less the -||Q||^2
    that every goal shares."""
    return 2.0 * goals.T, np.sum((goals - start) ** 2, axis=-1) - np.sum(goals**2, axis=-1)


def softmax(logits: Array) -> Array:
    """Max-shifted softmax over the last axis."""
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _norms(x: Array, out: Optional[Array] = None) -> Array:
    """Euclidean norms along the last axis, into out where given: np.linalg.norm's
    own formula for real arrays, without its dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=-1), out=out)
