"""Independent references the solver and kinematics are checked against.

Deliberately simple and self-contained: the Riccati recursion here shares no
code with the iLQR solver, and the homogeneous-transform FK chain uses the
matrix exponential instead of a closed-form rotation. The loop versions of
vectorized solver and kinematics code (per-joint FK, one-alpha-at-a-time line
search) are kept here as references for the batched forms.
"""

import numpy as np
from scipy.linalg import expm

from anticip_mpc.kinematics import quat_to_matrix
from anticip_mpc.solver import _ARMIJO, _N_ALPHAS, _al_objective


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


def line_search_loop(problem, states, controls, gains, duals, penalty, incumbent_cost):
    """Sequential backtracking line search: one rollout and one cost call per
    step length, from alpha = 1 down, returning the first that passes Armijo
    as (states, controls, cost, alpha, accepted)."""
    M = problem.n_knots - 1
    for alpha in 2.0 ** -np.arange(_N_ALPHAS):
        xs_new = np.empty_like(states)
        us_new = np.empty_like(controls)
        x = states[0]
        xs_new[0] = x
        for t in range(M):
            u = controls[t] + alpha * gains.k[t] + gains.K[t] @ (x - states[t])
            us_new[t] = u
            x = x + u * problem.dt
            xs_new[t + 1] = x
        if not np.all(np.isfinite(xs_new)):
            continue
        cost_new = _al_objective(problem, problem.cost.value(xs_new, us_new), us_new, duals, penalty)
        if incumbent_cost - cost_new >= _ARMIJO * alpha * gains.expected_decrease:
            return xs_new, us_new, cost_new, float(alpha), True
    return states, controls, incumbent_cost, 0.0, False
