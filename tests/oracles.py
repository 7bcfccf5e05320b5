"""Independent references the solver, kinematics and costs are checked against.

Deliberately simple and self-contained: the Riccati recursion here shares no
code with the iLQR solver, and the homogeneous-transform FK chain uses the
matrix exponential instead of a closed-form rotation. The loop versions of
vectorized solver, kinematics and prediction code (per-joint FK, np.cross
Jacobians, one-alpha-at-a-time line search, per-knot horizon slicing,
per-matrix covariance conditioning) are kept here as references for the
batched forms, as are the per-term cost derivative chain, the full-form
Riccati value update and the one-call scoring of the line search that the
solver's hot path simplifies or stages.

The per-knot cost model lives here too: one scalar function per cost term,
per-knot contexts of per-joint Gaussians (``KnotContext``,
``HumanJointGaussian``) that ``stack_contexts`` turns into the package
evaluator's inputs (one ``CostTask`` and per-knot arrays), and
``total_knot_cost``, the single-knot weighted sum with derivatives. The
package itself evaluates costs only through the batched
``KnotCostEvaluator``.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

from anticip_mpc.costs import (
    _CURV_GUARD,
    _TINY,
    DIST_EPS,
    HESS_FLOOR,
    CostTask,
    GoalSpec,
    KnotCostEvaluator,
)
from anticip_mpc.errors import InvalidInputError
from anticip_mpc.kinematics import RobotModel, fk_batch, position_jacobians, quat_to_matrix
from anticip_mpc.prediction import _EIG_FLOOR, HumanPrediction
from anticip_mpc.solver import _ARMIJO, _N_ALPHAS, ForwardPassResult, rollout


@dataclass
class QuadraticCost:
    """Tracking cost sum (x - ref)^T Q (x - ref) + u^T R u: a trajectory cost
    whose optimum the Riccati recursion below gives in closed form."""

    Q: np.ndarray
    R: np.ndarray
    x_ref: np.ndarray  # (N, n) or (n,)
    Qf: Optional[np.ndarray] = None  # terminal weight; defaults to Q

    def value(self, xs, us=None):
        e = xs - self.x_ref
        Qf = self.Q if self.Qf is None else self.Qf
        total = np.einsum("...ni,ij,...nj->...", e[..., :-1, :], self.Q, e[..., :-1, :])
        total = total + np.einsum("...i,ij,...j->...", e[..., -1, :], Qf, e[..., -1, :])
        if us is not None:
            total = total + np.einsum("...ni,ij,...nj->...", us, self.R, us)
        return total

    def state_derivatives(self, xs) -> tuple[np.ndarray, np.ndarray]:
        N, n = xs.shape
        e = xs - (self.x_ref if np.ndim(self.x_ref) == 2 else self.x_ref[None, :])
        Qf = self.Q if self.Qf is None else self.Qf
        gx = 2.0 * e @ self.Q
        gx[-1] = 2.0 * Qf @ e[-1]
        hxx = np.tile(2.0 * self.Q, (N, 1, 1))
        hxx[-1] = 2.0 * Qf
        return gx, hxx

    def control_derivatives(self, us) -> tuple[np.ndarray, np.ndarray]:
        return 2.0 * us @ self.R, 2.0 * self.R


def lqr_tracking_solution(Q, R, Qf, x_refs, x0, dt):
    """Affine-quadratic Riccati recursion for x_{t+1} = x_t + u_t dt.

    Minimizes sum_{t < N-1} (x_t - r_t)' Q (x_t - r_t) + u_t' R u_t plus the
    terminal (x_N - r_N)' Qf (x_N - r_N), with the value function carried as
    V_t(x) = x' P x + 2 q' x + const. Returns states, controls, and the
    feedback gains K_t of the optimal policy u_t = -K_t x_t - d_t.
    """
    x_refs = np.atleast_2d(np.asarray(x_refs, dtype=float))
    n_knots, n = x_refs.shape
    A = np.eye(n)
    B = dt * np.eye(n)
    P = Qf.copy()
    qv = -Qf @ x_refs[-1]
    Ks = np.empty((n_knots - 1, n, n))
    ds = np.empty((n_knots - 1, n))
    for t in range(n_knots - 2, -1, -1):
        H = R + B.T @ P @ B
        K = np.linalg.solve(H, B.T @ P @ A)
        d = np.linalg.solve(H, B.T @ qv)
        Acl = A - B @ K
        qv = -Q @ x_refs[t] + K.T @ R @ d + Acl.T @ (qv - P @ (B @ d))
        P = Q + K.T @ R @ K + Acl.T @ P @ Acl
        P = 0.5 * (P + P.T)
        Ks[t] = K
        ds[t] = d
    xs = np.empty((n_knots, n))
    us = np.empty((n_knots - 1, n))
    xs[0] = x0
    for t in range(n_knots - 1):
        us[t] = -Ks[t] @ xs[t] - ds[t]
        xs[t + 1] = xs[t] + us[t] * dt
    return xs, us, Ks


def quadratic_cost_value(Q, R, Qf, x_refs, xs, us):
    e = xs - x_refs
    total = float(np.einsum("ni,ij,nj->", e[:-1], Q, e[:-1]))
    total += float(e[-1] @ Qf @ e[-1])
    total += float(np.einsum("ni,ij,nj->", us, R, us))
    return total


def dense_qp_solution(Q, R, Qf, x_refs, x0, dt):
    """Direct quadratic-program solve in the stacked control vector.

    Recovers the exact Hessian and gradient of the objective by evaluation
    (finite differences are exact for quadratics) and solves the normal
    equations. Used to cross-check the Riccati oracle itself.
    """
    x_refs = np.atleast_2d(np.asarray(x_refs, dtype=float))
    n_knots, n = x_refs.shape
    m = (n_knots - 1) * n

    def value(u_flat):
        us = u_flat.reshape(n_knots - 1, n)
        xs = np.vstack([x0, x0 + np.cumsum(us * dt, axis=0)])
        return quadratic_cost_value(Q, R, Qf, x_refs, xs, us)

    f0 = value(np.zeros(m))
    g = np.empty(m)
    H = np.empty((m, m))
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = 1.0
        fp, fm = value(ei), value(-ei)
        g[i] = 0.5 * (fp - fm)
        H[i, i] = fp - 2.0 * f0 + fm
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros(m)
            e[i] = 1.0
            e[j] = 1.0
            # f(ei + ej) = f0 + g_i + g_j + (H_ii + H_jj)/2 + H_ij
            H[i, j] = H[j, i] = value(e) - f0 - g[i] - g[j] - 0.5 * (H[i, i] + H[j, j])
    u = np.linalg.solve(H, -g)
    us = u.reshape(n_knots - 1, n)
    xs = np.vstack([x0, x0 + np.cumsum(us * dt, axis=0)])
    return xs, us


def fk_transform_chain(axes, offsets, base_position, base_rotation, q):
    """Step-by-step product of homogeneous transforms with expm rotations."""
    T = np.eye(4)
    T[:3, :3] = base_rotation
    T[:3, 3] = base_position
    positions = [T[:3, 3].copy()]
    for axis, offset, angle in zip(axes, offsets, q):
        K = np.array(
            [
                [0.0, -axis[2], axis[1]],
                [axis[2], 0.0, -axis[0]],
                [-axis[1], axis[0], 0.0],
            ]
        )
        rot = np.eye(4)
        rot[:3, :3] = expm(angle * K)
        trans = np.eye(4)
        trans[:3, 3] = offset
        T = T @ rot @ trans
        positions.append(T[:3, 3].copy())
    return np.array(positions), T[:3, :3]


def rotation_about_axis(axis, angle):
    """Rodrigues rotation matrix about a fixed unit axis."""
    a = np.asarray(axis, dtype=float)
    K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.cos(angle) * np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * np.outer(a, a)


def fk_rodrigues_chain(model, q):
    """Joint-by-joint FK: frame positions (n+1, 3), world joint axes (n, 3)
    and the end-effector rotation, one Rodrigues rotation per joint."""
    R = quat_to_matrix(model.base_orientation)
    p = np.asarray(model.base_position, dtype=float).copy()
    positions = [p.copy()]
    axes_world = []
    for axis, offset, angle in zip(model.axes, model.offsets, q):
        axes_world.append(R @ axis)
        R = R @ rotation_about_axis(axis, angle)
        p = p + R @ offset
        positions.append(p.copy())
    return np.array(positions), np.array(axes_world), R


def position_jacobians_cross(fk, frames):
    """Positional Jacobians (B, F, 3, n) with np.cross over (B, F, n, 3) levers."""
    frames = np.asarray(frames, dtype=int)
    n = fk.joint_axes_world.shape[1]
    lever = fk.positions[:, frames][:, :, None, :] - fk.positions[:, None, :n, :]
    cols = np.cross(fk.joint_axes_world[:, None, :, :], lever)  # (B, F, n, 3)
    mask = np.arange(n)[None, :] < frames[:, None]  # (F, n)
    cols = cols * mask[None, :, :, None]
    return np.swapaxes(cols, 2, 3)


def floor_pd(cov):
    """Symmetrize one 3x3 matrix and clamp its eigenvalues so it stays PD: the
    conditioning a HumanPrediction gives each covariance at construction."""
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    if vals[0] >= _EIG_FLOOR:
        return cov
    vals = np.maximum(vals, _EIG_FLOOR)
    cov = (vecs * vals) @ vecs.T
    return 0.5 * (cov + cov.T)


def slice_horizon_loop(pred, t_start, n_knots, dt, hold_growth=1.5):
    """Horizon slice one knot at a time: on-grid knots copy the frame,
    off-grid knots interpolate it, knots past the last frame hold it and
    inflate the covariance by hold_growth per step."""
    rel0 = (t_start - pred.t0) / pred.dt
    T, H = pred.n_frames, pred.n_joints
    out_means = np.empty((n_knots, H, 3))
    out_covs = np.empty((n_knots, H, 3, 3))
    for k in range(n_knots):
        s = rel0 + k * dt / pred.dt
        snapped = round(s)
        if abs(s - snapped) < 1e-9 and 0 <= snapped <= T - 1:
            out_means[k] = pred.means[snapped]
            out_covs[k] = pred.covs[snapped]
        elif s <= T - 1:
            i0 = int(np.floor(s))
            w = s - i0
            out_means[k] = (1 - w) * pred.means[i0] + w * pred.means[i0 + 1]
            out_covs[k] = (1 - w) * pred.covs[i0] + w * pred.covs[i0 + 1]
        else:
            out_means[k] = pred.means[-1]
            out_covs[k] = pred.covs[-1] * hold_growth ** (s - (T - 1))
    return out_means, out_covs


def adjoint_gradient(problem, us):
    """Gradient (N-1, n) of the trajectory cost in the controls, by the adjoint
    of x_{t+1} = x_t + u_t dt: gu_t + dt * sum_{s > t} gx_s, from the cost's
    own state and control derivatives (x_0 is fixed, so gx_0 drops out)."""
    us = np.asarray(us, dtype=float)
    gx, _ = problem.cost.state_derivatives(rollout(problem, us))
    gu, _ = problem.cost.control_derivatives(us)
    return gu + problem.dt * np.cumsum(gx[:0:-1], axis=0)[::-1]


def lbfgsb_reference(problem, starts):
    """An independent optimum of the trajectory cost: L-BFGS-B (Byrd, Lu,
    Nocedal & Zhu 1995) on the flattened controls, with the velocity box as
    bounds, `adjoint_gradient` as the gradient and ftol 1e-13, from each of
    `starts` clipped into the box. Returns the lowest final cost and its
    controls."""
    M, n = problem.n_knots - 1, problem.n_dims

    def cost_and_gradient(flat):
        us = flat.reshape(M, n)
        return problem.cost.value(rollout(problem, us), us), adjoint_gradient(problem, us).ravel()

    lower, upper = np.tile(problem.u_lower, M), np.tile(problem.u_upper, M)
    runs = [
        minimize(cost_and_gradient, np.clip(np.ravel(start), lower, upper), jac=True, method="L-BFGS-B",
                 bounds=list(zip(lower, upper)), options={"ftol": 1e-13})
        for start in starts
    ]
    best = min(runs, key=lambda run: run.fun)
    return float(best.fun), best.x.reshape(M, n)


def textbook_rollout(problem, states, controls, gains, alpha):
    """The policy u = ubar_t + alpha k_t + K_t (x - xbar_t) about the incumbent (xbar, ubar) =
    (states, controls), rolled out from its start state one knot at a time, each control clamped
    into its bounds one component at a time: (states, controls)."""
    xs_new = np.empty_like(states)
    us_new = np.empty_like(controls)
    x = states[0]
    xs_new[0] = x
    for t in range(problem.n_knots - 1):
        u = controls[t] + alpha * gains.k[t] + gains.K[t] @ (x - states[t])
        u = np.array([min(max(ui, lo), hi) for ui, lo, hi in zip(u, problem.u_lower, problem.u_upper)])
        us_new[t] = u
        x = x + u * problem.dt
        xs_new[t + 1] = x
    return xs_new, us_new


def line_search_loop(problem, states, controls, gains, incumbent_cost):
    """Sequential backtracking line search: one textbook rollout and one cost
    call per step length, from alpha = 1 down, returning the first that
    passes Armijo as (states, controls, cost, alpha, accepted)."""
    for alpha in 2.0 ** -np.arange(_N_ALPHAS):
        xs_new, us_new = textbook_rollout(problem, states, controls, gains, alpha)
        if not np.all(np.isfinite(xs_new)):
            continue
        cost_new = problem.cost.value(xs_new, us_new)
        if incumbent_cost - cost_new >= _ARMIJO * alpha * gains.expected_decrease:
            return xs_new, us_new, cost_new, float(alpha), True
    return states, controls, incumbent_cost, 0.0, False


def forward_pass_one_call(problem, states, controls, gains, incumbent_cost):
    """The batched line search with the whole stack scored in one cost call:
    every alpha rolled out together and clamped into the box, non-finite
    candidates scored as the incumbent, and the largest alpha that passes
    Armijo returned. Each control is x_t K_t^T plus the offset
    c_t(alpha) = u_t + alpha k_t - x_t K_t^T of the incumbent, the solver's
    own arithmetic, so the solver's forward_pass, which scores the same
    stack in two stages, must match this bit for bit."""
    M = problem.n_knots - 1
    alphas = 2.0 ** -np.arange(_N_ALPHAS)
    xs = np.empty((_N_ALPHAS,) + states.shape)
    us = np.empty((_N_ALPHAS,) + controls.shape)
    xs[:, 0] = states[0]
    KT = gains.K.swapaxes(1, 2)
    offsets = controls[:, None] - states[:-1, None] @ KT + alphas[:, None] * gains.k[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(M):
            u = offsets[t] + xs[:, t] @ KT[t]
            u = np.minimum(np.maximum(u, problem.u_lower), problem.u_upper)
            us[:, t] = u
            xs[:, t + 1] = xs[:, t] + u * problem.dt
    finite = np.all(np.isfinite(xs), axis=(1, 2))
    xs[~finite] = states
    us[~finite] = controls
    costs = problem.cost.value(xs, us)
    passed = finite & (incumbent_cost - costs >= _ARMIJO * alphas * gains.expected_decrease)
    if not np.any(passed):
        return ForwardPassResult(states, controls, incumbent_cost, 0.0, False)
    i = int(np.argmax(passed))
    return ForwardPassResult(xs[i], us[i], float(costs[i]), float(alphas[i]), True)


def state_derivatives_per_term(ev, xs):
    """Gradient (N, n) and curvature (N, n, n) of a KnotCostEvaluator's state
    cost, each Cartesian term chained through its own Jacobian product."""

    def norm_grad_curv(r):
        nr = np.linalg.norm(r, axis=1)
        safe = np.maximum(nr, _TINY)
        rhat = r / safe[:, None]
        g = np.where(nr[:, None] > _TINY, rhat, 0.0)
        hp = (np.eye(3)[None] - rhat[:, :, None] * rhat[:, None, :]) / np.maximum(nr, _CURV_GUARD)[:, None, None]
        return g, hp

    xs = np.asarray(xs, dtype=float)
    N, n = xs.shape
    task = ev.task
    w = task.weights
    fk = fk_batch(task.model, xs)
    tracked = np.asarray(task.model.tracked_frames, dtype=int)
    J = position_jacobians(fk, np.concatenate([tracked, [task.model.eef_frame]]))
    Jt = J[:, : len(tracked)]
    Je = J[:, -1]
    p_eef = fk.positions[:, task.model.eef_frame]

    gx = np.zeros((N, n))
    hxx = np.tile(HESS_FLOOR * np.eye(n), (N, 1, 1))

    if w.w_dist > 0:
        d = fk.positions[:, tracked][:, None, :, :] - ev.mu[:, :, None, :]
        sd = np.einsum("nhij,nhrj->nhri", ev.cov_inv, d)
        m = np.einsum("nhri,nhri->nhr", d, sd)
        denom = m + DIST_EPS
        v = np.einsum("nhri,nria->nhra", sd, Jt)
        gx += w.w_dist * np.einsum("nhr,nhra->na", -2.0 / denom**2, v)
        hxx += w.w_dist * np.einsum("nhr,nhra,nhrb->nab", 8.0 / denom**3, v, v)
        w_off = np.einsum("nhr,nhij->nrij", 2.0 / denom**2, ev.cov_inv)
        hxx += w.w_dist * np.einsum("nria,nrij,nrjb->nab", Jt, w_off, Jt)

    if w.w_vis > 0:
        a = task.gaze - ev.mu[:, task.head_index]
        b = p_eef - ev.mu[:, task.head_index]
        nb = np.linalg.norm(b, axis=-1)
        ahat = a / np.linalg.norm(a, axis=-1)[:, None]
        bhat = b / nb[:, None]
        t = np.clip(np.sum(ahat * bhat, axis=-1), -1.0, 1.0)
        theta = np.arccos(t)
        u_perp = ahat - t[:, None] * bhat
        sin_theta = np.linalg.norm(u_perp, axis=-1)
        ok = sin_theta > 1e-9
        g_p = np.zeros_like(b)
        g_p[ok] = -u_perp[ok] / (nb[ok] * sin_theta[ok])[:, None]
        g_p = g_p / ev.sigma_head[:, None]
        c_vis = theta / ev.sigma_head
        gx += w.w_vis * np.einsum("ni,nia->na", g_p, Je)
        hp = g_p[:, :, None] * g_p[:, None, :] / (2.0 * np.maximum(c_vis, _CURV_GUARD))[:, None, None]
        hxx += w.w_vis * np.einsum("nia,nij,njb->nab", Je, hp, Je)

    if w.w_leg > 0:
        probs = task.goal_probs(p_eef)
        p_r = probs[:, task.goal_index]
        mean_goal = np.einsum("ng,gi->ni", probs, task.goals)
        g_p = -2.0 * p_r[:, None] * (task.goals[task.goal_index] - mean_goal)
        c_leg = 1.0 - p_r
        gx += w.w_leg * np.einsum("ni,nia->na", g_p, Je)
        hp = g_p[:, :, None] * g_p[:, None, :] / (2.0 * np.maximum(c_leg, _CURV_GUARD))[:, None, None]
        hxx += w.w_leg * np.einsum("nia,nij,njb->nab", Je, hp, Je)

    for weight, target in ((w.w_nom, ev.nominal), (w.w_goal, task.goal.position)):
        if weight > 0:
            gp, hp = norm_grad_curv(p_eef - target)
            gx += weight * np.einsum("ni,nia->na", gp, Je)
            hxx += weight * np.einsum("nia,nij,njb->nab", Je, hp, Je)

    if w.w_goal > 0:
        R = fk.eef_rotations
        o_val = 1.0 - 0.25 * (np.einsum("ij,nij->n", task.goal.rotation, R) + 1.0)
        mr = R @ task.goal.rotation.T
        s = np.stack([mr[:, 2, 1] - mr[:, 1, 2], mr[:, 0, 2] - mr[:, 2, 0], mr[:, 1, 0] - mr[:, 0, 1]], axis=1)
        g_or = 0.25 * np.einsum("nji,ni->nj", fk.joint_axes_world, s)
        gx += w.w_goal * g_or
        hxx += w.w_goal * g_or[:, :, None] * g_or[:, None, :] / (2.0 * np.maximum(o_val, _CURV_GUARD))[:, None, None]

    return gx, hxx


def backward_pass_full_form(problem, derivs, us):
    """Riccati sweep with the full value update of Tassa, Erez & Todorov 2012:
    v_x = q_x + K'Q_uu k + K'q_u + Q_ux'k and V_xx = Q_xx + K'Q_uu K + K'Q_ux + Q_ux'K.

    A control of us at or past a bound whose gradient q_u pushes it further
    out is held (Tassa, Mansard & Todorov 2014): its rows of k and K are
    zero, and the free controls' rows come from two triangular solves on the
    Cholesky factor of their own block of Q_uu, which raises LinAlgError
    unless that block is positive definite. grad_inf is taken over the free
    controls. Returns (k, K, expected_decrease, grad_inf)."""
    n = problem.n_dims
    M = problem.n_knots - 1
    dt = problem.dt
    k = np.zeros((M, n))
    K = np.zeros((M, n, n))
    vx = derivs.gx[-1].copy()
    vxx = derivs.hxx[-1].copy()
    d1 = d2 = grad_inf = 0.0
    for t in range(M - 1, -1, -1):
        qx = derivs.gx[t] + vx
        qu = derivs.gu[t] + dt * vx
        qxx = derivs.hxx[t] + vxx
        qux = dt * vxx
        quu = derivs.huu + dt * dt * vxx
        held = [
            (us[t, i] >= problem.u_upper[i] and qu[i] < 0.0) or (us[t, i] <= problem.u_lower[i] and qu[i] > 0.0)
            for i in range(n)
        ]
        free = [i for i in range(n) if not held[i]]
        if free:
            quu_ff = quu[np.ix_(free, free)]
            chol = np.linalg.cholesky(0.5 * (quu_ff + quu_ff.T))
            rhs = np.column_stack([qu[free], qux[free]])
            sol = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
            k[t, free] = -sol[:, 0]
            K[t, free] = -sol[:, 1:]
            grad_inf = max(grad_inf, float(np.max(np.abs(qu[free]))))
        d1 += float(qu @ k[t])
        d2 += float(k[t] @ quu @ k[t])
        vx = qx + K[t].T @ quu @ k[t] + K[t].T @ qu + qux.T @ k[t]
        vxx = qxx + K[t].T @ quu @ K[t] + K[t].T @ qux + qux.T @ K[t]
        vxx = 0.5 * (vxx + vxx.T)
    return k, K, max(0.0, -(d1 + 0.5 * d2)), grad_inf


# ---------------------------------------------------------------------------
# per-knot cost model


@dataclass(frozen=True)
class HumanJointGaussian:
    """Gaussian estimate of one human joint position, meters."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (3,) or not np.all(np.isfinite(mean)):
            raise InvalidInputError("mean must be a finite 3-vector")
        # checked and conditioned as a prediction's covariances are
        pred = HumanPrediction(("joint",), 0, mean[None, None], np.asarray(self.cov, dtype=float)[None, None], 1.0)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", pred.covs[0, 0])


@dataclass(frozen=True)
class KnotContext:
    """One knot's human frame and nominal point, and the task they belong to:
    everything the knot cost needs besides the robot state and control."""

    human_frame: tuple  # HumanJointGaussian per human joint, at least one
    nominal: np.ndarray  # nominal end-effector position at this knot's time
    task: CostTask
    t: float

    def __post_init__(self):
        frame = tuple(self.human_frame)
        for g in frame:
            if not isinstance(g, HumanJointGaussian):
                raise InvalidInputError("human_frame entries must be HumanJointGaussian")
        if not self.task.head_index < len(frame):
            raise InvalidInputError("head_index out of range")
        object.__setattr__(self, "human_frame", frame)
        object.__setattr__(self, "nominal", np.asarray(self.nominal, dtype=float).reshape(3))
        object.__setattr__(self, "t", float(self.t))


def stack_contexts(contexts: Sequence[KnotContext]) -> tuple:
    """Stack per-knot contexts into a KnotCostEvaluator's arguments: the task,
    means (N, H, 3), covariances (N, H, 3, 3) and nominal points (N, 3).

    Human frames and nominal points vary per knot; all contexts must share
    one cost task and one human joint count.
    """
    contexts = list(contexts)
    if not contexts:
        raise InvalidInputError("need at least one knot context")
    first = contexts[0]
    if any(c.task is not first.task for c in contexts):
        raise InvalidInputError("all knot contexts must share one cost task")
    H = len(first.human_frame)
    if any(len(c.human_frame) != H for c in contexts):
        raise InvalidInputError("all knot contexts must have the same human joint count")
    N = len(contexts)
    means = np.array([[g.mean for g in c.human_frame] for c in contexts]).reshape(N, H, 3)
    covs = np.array([[g.cov for g in c.human_frame] for c in contexts]).reshape(N, H, 3, 3)
    return first.task, means, covs, np.array([c.nominal for c in contexts])


def distance_cost(model: RobotModel, q, human_frame: Sequence[HumanJointGaussian]) -> float:
    """Inverse covariance-scaled separation, summed over human/robot joint pairs.

    sum_h sum_r 1 / (d_hr^T Sigma_h^-1 d_hr + eps) with d_hr the offset between
    human joint h and tracked robot frame r. Larger separation, smaller cost.
    """
    q = np.asarray(q, dtype=float).reshape(-1)
    fk = fk_batch(model, q[None, :])
    frames = fk.positions[0, list(model.tracked_frames)]  # (R, 3)
    total = 0.0
    for g in human_frame:
        d = frames - g.mean  # (R, 3)
        m = np.einsum("ri,ij,rj->r", d, np.linalg.inv(g.cov), d)
        total += float(np.sum(1.0 / (m + DIST_EPS)))
    return total


def head_position_stddev(head: HumanJointGaussian) -> float:
    """Rotation-invariant scalar spread of the head estimate, sqrt(tr(cov)/3)."""
    return float(np.sqrt(np.trace(head.cov) / 3.0))


def visibility_cost(model: RobotModel, q, head: HumanJointGaussian, gaze_object) -> float:
    """Angle at the head between the gazed object and the end effector,
    divided by the head-position standard deviation."""
    q = np.asarray(q, dtype=float).reshape(-1)
    fk = fk_batch(model, q[None, :])
    p_eef = fk.positions[0, model.eef_frame]
    return _visibility_angle(np.asarray(gaze_object, dtype=float), head.mean, p_eef) / head_position_stddev(head)


def _visibility_angle(gaze_object, head_mean, p_eef) -> float:
    a = gaze_object - head_mean
    b = p_eef - head_mean
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-9 or nb < 1e-9:
        raise InvalidInputError("degenerate gaze ray: object or end effector coincides with the head")
    t = np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0)
    return float(np.arccos(t))


@dataclass(frozen=True)
class LegibilityContext:
    """Task-start end-effector position, candidate goals, and the true goal:
    the legibility oracle's inputs, which a CostTask holds as ``leg_start``,
    ``goals`` and ``goal_index``."""

    start: np.ndarray
    goals: np.ndarray  # (G, 3)
    goal_index: int

    def __post_init__(self):
        object.__setattr__(self, "start", np.asarray(self.start, dtype=float))
        object.__setattr__(self, "goals", np.atleast_2d(np.asarray(self.goals, dtype=float)))


def legibility_cost(eef_position, ctx: LegibilityContext) -> float:
    """One minus the inferred probability of the true goal given the current
    end-effector position, using squared-distance path costs. Exponents are
    shifted by their maximum before exponentiation, so distant goals cannot
    overflow; the normalized ratio is shift-invariant."""
    probs = goal_probabilities(np.asarray(eef_position, dtype=float).reshape(3), ctx)
    return float(1.0 - probs[ctx.goal_index])


def goal_probabilities(eef_position, ctx: LegibilityContext):
    """P(G | position) over all candidate goals; sums to one."""
    # logits ||G - S||^2 - ||G - Q||^2
    logits = np.sum((ctx.goals - ctx.start) ** 2, axis=-1) - np.sum((ctx.goals - eef_position) ** 2, axis=-1)
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    return e / np.sum(e)


def nominal_cost(eef_position, nominal) -> float:
    """Euclidean distance between actual and nominal end-effector positions."""
    return float(np.linalg.norm(np.asarray(eef_position, dtype=float) - np.asarray(nominal, dtype=float)))


def smoothness_cost(u) -> float:
    """Squared magnitude of the joint-velocity control."""
    u = np.asarray(u, dtype=float)
    return float(np.dot(u, u))


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n < 1e-12):
        raise InvalidInputError("cannot normalize a zero quaternion")
    return q / n


def goal_pose_cost(eef: GoalSpec, goal: GoalSpec) -> float:
    """Position distance plus the orientation term 1 - <q_goal, q_eef>^2.

    The orientation term lies in [0, 1] and is invariant under negating
    either quaternion.
    """
    dq = float(np.dot(quat_normalize(eef.orientation), goal.orientation))
    return float(np.linalg.norm(goal.position - eef.position)) + 1.0 - dq * dq


@dataclass(frozen=True)
class KnotCostResult:
    value: float
    grad_x: np.ndarray
    grad_u: np.ndarray
    hess_xx: np.ndarray
    hess_uu: np.ndarray


def total_knot_cost(model: RobotModel, q, u, ctx: KnotContext) -> KnotCostResult:
    """Weighted sum of the six terms at one knot, with gradient and
    Gauss-Newton curvature from the batched evaluator over a one-knot horizon.

    Pass u=None at a terminal knot (no control there).
    """
    q = np.asarray(q, dtype=float).reshape(-1)
    n = model.n_joints
    ev = KnotCostEvaluator(*stack_contexts([ctx]))
    value = float(ev.value(q[None, :]))
    gx, hxx = ev.state_derivatives(q[None, :])
    gx, hxx = gx[0], hxx[0]
    if u is None:
        gu = np.zeros(n)
        huu = HESS_FLOOR * np.eye(n)
    else:
        u = np.asarray(u, dtype=float).reshape(-1)
        if u.shape != (n,):
            raise InvalidInputError(f"control has length {u.shape[0]}, expected {n}")
        w = ctx.task.weights.w_smooth
        value += w * float(np.dot(u, u))
        gu = 2.0 * w * u
        huu = (2.0 * w + HESS_FLOOR) * np.eye(n)
    return KnotCostResult(value, gx, gu, hxx, huu)


def position_jacobian(model: RobotModel, q, frame: int):
    """d(frame origin)/dq, a 3 x n_joints matrix, for one configuration."""
    q = np.asarray(q, dtype=float).reshape(-1)
    if not 0 <= int(frame) <= model.n_joints:
        raise InvalidInputError(f"frame index {frame} out of range [0, {model.n_joints}]")
    fk = fk_batch(model, q[None, :])
    return position_jacobians(fk, [int(frame)])[0, 0]
