"""Augmented-Lagrangian iLQR for fixed-horizon joint-velocity planning.

The problem is a single-integrator chain x_{t+1} = x_t + u_t dt with a fixed
initial state, per-knot nonlinear costs, and box bounds on the controls. An
inner iLQR loop (Riccati-style backward pass on local quadratic models plus a
line-searched forward rollout) minimizes the augmented objective; an outer
loop updates multipliers and the quadratic penalty until the bounds hold.

Bound constraints use the standard projection form: each bound contributes
(max(0, lambda + rho c)^2 - lambda^2) / (2 rho) to the objective, where c is
the signed violation.

The stopping rules and the penalty schedule are fixed module constants:
_MAX_INNER_ITERS, _MAX_OUTER_ITERS, _COST_TOL, _GRAD_TOL, _CONSTRAINT_TOL,
_INIT_PENALTY, _PENALTY_SCALE, and the regularization cap _REG_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from .errors import Fields, InvalidInputError, SolverError

Array = np.ndarray

_MAX_INNER_ITERS = 50  # per outer iteration
_MAX_OUTER_ITERS = 6
_COST_TOL = 1e-4  # relative cost change that ends the inner loop
_GRAD_TOL = 1e-5  # control-gradient infinity norm that ends the inner loop
_CONSTRAINT_TOL = 1e-4  # bound violation a converged solve stays below
_INIT_PENALTY = 1.0
_PENALTY_SCALE = 10.0
_REG_MIN = 1e-6
_REG_CAP = 1e6  # a larger shift fails the solve
_ARMIJO = 1e-4
_N_ALPHAS = 11  # alpha in {1, 1/2, ..., 2^-10}


class TrajectoryCost(Protocol):
    """Cost interface the solver optimizes against."""

    def value(self, xs: Array, us: Optional[Array] = None):
        """Total cost with a leading candidate axis: states (A, N, n) and
        controls (A, N-1, n) give costs (A,). A single trajectory, (N, n) and
        (N-1, n) without the axis, gives a scalar."""
        ...

    def state_derivatives(self, xs: Array) -> tuple[Array, Array]: ...

    def control_derivatives(self, us: Array) -> tuple[Array, Array]: ...


@dataclass
class TrajectoryProblem:
    """Fixed-horizon problem: start state, knot costs, control box bounds."""

    n_knots: int
    dt: float
    x0: Array
    cost: TrajectoryCost
    u_lower: Array
    u_upper: Array

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        self.u_lower = np.asarray(self.u_lower, dtype=float).reshape(-1)
        self.u_upper = np.asarray(self.u_upper, dtype=float).reshape(-1)
        if self.n_knots < 2:
            raise InvalidInputError("n_knots must be >= 2")
        if not self.dt > 0:
            raise InvalidInputError("dt must be positive")
        n = self.x0.shape[0]
        if self.u_lower.shape != (n,) or self.u_upper.shape != (n,):
            raise InvalidInputError("control bounds must match the state dimension")
        if not np.all(self.u_lower < self.u_upper):
            raise InvalidInputError("control bounds must satisfy lower < upper")

    @property
    def n_dims(self) -> int:
        return self.x0.shape[0]


@dataclass
class SolveResult:
    states: Array  # (N, n)
    controls: Array  # (N-1, n)
    total_cost: float
    iterations: int
    outer_iterations: int
    converged: bool
    max_bound_violation: float
    grad_inf: float

    to_dict = Fields.to_dict


def rollout(problem: TrajectoryProblem, controls: Array) -> Array:
    """Integrate x_{t+1} = x_t + u_t dt from the fixed start state."""
    controls = np.asarray(controls, dtype=float)
    if controls.shape != (problem.n_knots - 1, problem.n_dims):
        raise InvalidInputError(
            f"controls must have shape ({problem.n_knots - 1}, {problem.n_dims}), got {controls.shape}"
        )
    states = np.empty((problem.n_knots, problem.n_dims))
    states[0] = problem.x0
    # step-by-step so the stored states reproduce the update law bit-for-bit
    for t in range(problem.n_knots - 1):
        states[t + 1] = states[t] + controls[t] * problem.dt
    return states


# ---------------------------------------------------------------------------
# augmented-Lagrangian bookkeeping


def bound_violations(problem: TrajectoryProblem, us: Array) -> Array:
    """Signed violations c, shape (..., 2, M, n): [0] = u - upper, [1] = lower - u."""
    return np.stack([us - problem.u_upper, problem.u_lower - us], axis=-3)


def max_bound_violation(problem: TrajectoryProblem, us: Array) -> float:
    return float(max(0.0, np.max(bound_violations(problem, us))))


def al_update(duals: Array, penalty: float, violations: Array, prev_max_violation: float) -> tuple[Array, float]:
    """First-order multiplier update with conditional penalty growth.

    duals' = max(0, duals + penalty * c) per bound; the penalty is scaled up
    only when the worst violation failed to shrink by at least 4x since the
    previous outer iteration (and is still above tolerance).
    """
    if penalty <= 0:
        raise InvalidInputError("penalty must be positive")
    duals = np.maximum(0.0, duals + penalty * violations)
    max_viol = float(max(0.0, np.max(violations))) if violations.size else 0.0
    if max_viol > _CONSTRAINT_TOL and max_viol > prev_max_violation / 4.0:
        penalty = penalty * _PENALTY_SCALE
    return duals, penalty


def _al_objective(problem, cost_value, us: Array, duals: Array, penalty: float):
    """Augmented objective, penalty > 0, of controls (..., M, n) whose cost is cost_value (...)."""
    c = bound_violations(problem, us)
    proj = np.maximum(0.0, duals + penalty * c)
    return cost_value + np.sum(proj**2 - duals**2, axis=(-3, -2, -1)) / (2.0 * penalty)


def _al_control_terms(problem, us: Array, duals: Array, penalty: float) -> tuple[Array, Array]:
    """Gradient (M, n) and diagonal curvature (M, n) of the bound penalty."""
    c = bound_violations(problem, us)
    proj = np.maximum(0.0, duals + penalty * c)
    grad = proj[0] - proj[1]
    curv = penalty * ((proj[0] > 0).astype(float) + (proj[1] > 0).astype(float))
    return grad, curv


# ---------------------------------------------------------------------------
# iLQR passes


@dataclass
class BackwardPassResult:
    k: Array  # (M, n) feedforward steps
    K: Array  # (M, n, n) feedback gains
    expected_decrease: float  # model decrease at a full step, >= 0
    grad_inf: float  # infinity norm of the control gradient along the trajectory
    reg_used: float


@dataclass
class ForwardPassResult:
    states: Array
    controls: Array
    cost: float  # augmented objective
    step_length: float  # 0.0 when no step was accepted
    accepted: bool
    raw_cost: Optional[float] = None  # cost before the bound penalty; None when no step was accepted


@dataclass
class _Derivs:
    gx: Array
    gu: Array
    hxx: Array
    huu: Array


def _assemble_derivs(problem, xs, us, duals, penalty) -> _Derivs:
    gx, hxx = problem.cost.state_derivatives(xs)
    gu, huu = problem.cost.control_derivatives(us)
    g_al, c_al = _al_control_terms(problem, us, duals, penalty)
    gu = gu + g_al
    huu = huu + c_al[:, :, None] * np.eye(problem.n_dims)[None]
    return _Derivs(gx, gu, hxx, huu)


def _bump_reg(reg: float, where: str) -> float:
    """The next Levenberg-Marquardt shift: 1e-6 from zero, else 10x reg.

    The one regularization schedule of the solver; a shift past _REG_CAP
    aborts with a SolverError saying `where` it was needed.
    """
    reg = _REG_MIN if reg == 0.0 else reg * 10.0
    if reg > _REG_CAP:
        raise SolverError(f"{where}: regularization exceeded cap {_REG_CAP:g}")
    return reg


def backward_pass(problem: TrajectoryProblem, derivs: _Derivs, reg: float = 0.0) -> BackwardPassResult:
    """Riccati-style sweep producing affine feedback gains from the cost
    derivatives along the current iterate.

    Q_uu blocks are Levenberg-Marquardt shifted until they factorize: the
    shift starts at the given reg and follows :func:`_bump_reg` per failure.

    k = -Q_uu^-1 q_u and K = -Q_uu^-1 Q_ux come from the same shifted Q_uu, so
    the full value update of Tassa, Erez & Todorov (2012) loses its cross
    terms: v_x = q_x + Q_ux^T k, V_xx = Q_xx + Q_ux^T K, and the model
    decrease at a full step is -q_u^T k / 2.
    """
    n = problem.n_dims
    M = problem.n_knots - 1
    dt = problem.dt
    # column 0 holds the gradient and columns 1: the curvature, so one solve
    # gives [k | K] and one product updates [v_x | V_xx]
    hx = np.concatenate([derivs.gx[:, :, None], derivs.hxx], axis=2)  # (N, n, n+1)
    gu = np.zeros((M, n, n + 1))
    gu[:, :, 0] = derivs.gu
    huu = 0.5 * (derivs.huu + np.swapaxes(derivs.huu, 1, 2))

    while True:
        huu_reg = huu + reg * np.eye(n)
        q = np.empty((M, n, n + 1))  # [q_u | Q_ux]
        kK = np.empty((M, n, n + 1))  # [k | K]
        v = hx[-1].copy()  # [v_x | V_xx]
        v[:, 1:] = 0.5 * (v[:, 1:] + v[:, 1:].T)
        for t in range(M - 1, -1, -1):
            # A = I, B = dt * I for the single-integrator chain, so Q_ux = dt * V_xx
            # is symmetric and Q_ux^T [k | K] = Q_ux [k | K]
            q[t] = gu[t] + dt * v
            quu = huu_reg[t] + dt * dt * v[:, 1:]
            try:
                np.linalg.cholesky(quu)  # the positive-definiteness test
            except np.linalg.LinAlgError:
                break
            kK[t] = -np.linalg.solve(quu, q[t])
            v = hx[t] + v + q[t, :, 1:] @ kK[t]
            v[:, 1:] = 0.5 * (v[:, 1:] + v[:, 1:].T)
        else:
            qu, k = q[:, :, 0], kK[:, :, 0]
            decrease = max(0.0, -0.5 * float(np.sum(qu * k)))
            return BackwardPassResult(k, kK[:, :, 1:], decrease, float(np.max(np.abs(qu))), reg)
        reg = _bump_reg(reg, "backward pass: the local model cannot be made positive definite")


def forward_pass(
    problem: TrajectoryProblem,
    states: Array,
    controls: Array,
    gains: BackwardPassResult,
    duals: Array,
    penalty: float,
    incumbent_cost: float,
) -> ForwardPassResult:
    """Line-searched rollout of the affine policy, all step lengths at once.

    Rolls the policy out for every alpha in {1, 1/2, ..., 2^-10} together and
    scores the stack with one cost call. A candidate whose states are not
    finite is scored as the incumbent and never accepted. Returns the largest
    alpha whose actual decrease is at least 1e-4 * alpha * expected_decrease,
    or the incumbent with accepted=False when no step qualifies.
    incumbent_cost is the augmented objective of (states, controls).
    """
    M = problem.n_knots - 1
    dt = problem.dt
    alphas = 2.0 ** -np.arange(_N_ALPHAS)
    xs = np.empty((_N_ALPHAS,) + states.shape)
    us = np.empty((_N_ALPHAS,) + controls.shape)
    xs[:, 0] = states[0]
    # large steps may overflow; those candidates are masked out below
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(M):
            u = controls[t] + alphas[:, None] * gains.k[t] + (xs[:, t] - states[t]) @ gains.K[t].T
            us[:, t] = u
            xs[:, t + 1] = xs[:, t] + u * dt
    finite = np.all(np.isfinite(xs), axis=(1, 2))
    xs[~finite] = states
    us[~finite] = controls
    raw = problem.cost.value(xs, us)
    costs = _al_objective(problem, raw, us, duals, penalty)
    passed = finite & (incumbent_cost - costs >= _ARMIJO * alphas * gains.expected_decrease)
    if not np.any(passed):
        return ForwardPassResult(states, controls, incumbent_cost, 0.0, False)
    i = int(np.argmax(passed))
    return ForwardPassResult(xs[i], us[i], float(costs[i]), float(alphas[i]), True, float(raw[i]))


# ---------------------------------------------------------------------------
# outer solve


def solve(problem: TrajectoryProblem, initial_controls: Array) -> SolveResult:
    """AL-iLQR solve of the fixed-horizon problem from the warm start
    initial_controls, shape (n_knots - 1, n_dims); the planning loop picks it.

    Accepted iterate costs are non-increasing at fixed duals/penalty; on
    convergence the bound violation is below the constraint tolerance and
    either the relative cost change or the control gradient is below its
    tolerance. Hitting the iteration caps returns the best iterate with
    converged=False. The solve does not time itself; the caller times the
    replan around it.
    """
    M = problem.n_knots - 1
    n = problem.n_dims

    us = np.asarray(initial_controls, dtype=float).copy()
    if us.shape != (M, n):
        raise InvalidInputError(f"initial controls must have shape ({M}, {n})")
    xs = rollout(problem, us)

    cost = problem.cost.value(xs, us)  # of the current iterate, before the bound penalty
    if not np.isfinite(cost):
        raise SolverError(f"warm start has non-finite cost {cost}")

    duals = np.zeros((2, M, n))
    penalty = _INIT_PENALTY
    reg = 0.0
    total_iters = 0
    outer_done = 0
    prev_viol = max_bound_violation(problem, us)  # warm-start baseline for the shrink test
    converged = False
    grad_inf = np.inf

    for _ in range(_MAX_OUTER_ITERS):
        outer_done += 1
        J = _al_objective(problem, cost, us, duals, penalty)
        inner_converged = False
        derivs = None
        for _ in range(_MAX_INNER_ITERS):
            total_iters += 1
            if derivs is None:
                derivs = _assemble_derivs(problem, xs, us, duals, penalty)
            # reg goes by keyword: perfbench's tracer reads the shift a pass started from
            bp = backward_pass(problem, derivs, reg=reg)
            reg = bp.reg_used
            grad_inf = bp.grad_inf
            if bp.grad_inf < _GRAD_TOL:
                inner_converged = True
                break
            fp = forward_pass(problem, xs, us, bp, duals, penalty, J)
            if fp.accepted:
                dJ = J - fp.cost
                xs, us, J, cost = fp.states, fp.controls, fp.cost, fp.raw_cost
                derivs = None
                if fp.step_length >= 2.0**-5:
                    reg = 0.0 if reg <= _REG_MIN else reg / 10.0
                else:
                    # deep backtracking means the local model overshoots
                    reg = _bump_reg(reg, f"line search backtracked to step {fp.step_length:g}")
                if abs(dJ) / max(1.0, abs(J)) < _COST_TOL:
                    inner_converged = True
                    break
            else:
                reg = _bump_reg(reg, f"line search stalled at cost {J:.6g}")
        viol = max_bound_violation(problem, us)
        if inner_converged and viol < _CONSTRAINT_TOL:
            converged = True
            break
        duals, penalty = al_update(duals, penalty, bound_violations(problem, us), prev_viol)
        prev_viol = viol

    return SolveResult(
        states=xs,
        controls=us,
        total_cost=float(cost),
        iterations=total_iters,
        outer_iterations=outer_done,
        converged=converged,
        max_bound_violation=max_bound_violation(problem, us),
        grad_inf=float(grad_inf),
    )
