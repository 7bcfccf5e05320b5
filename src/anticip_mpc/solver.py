"""Control-limited iLQR for fixed-horizon joint-velocity planning.

The problem is a single-integrator chain x_{t+1} = x_t + u_t dt with a fixed
initial state, per-knot nonlinear costs, and box bounds on the controls. An
inner iLQR loop (Riccati-style backward pass on local quadratic models plus a
line-searched forward rollout) minimizes the cost; the rollout clamps every
control into its box, so every iterate is feasible. The backward pass makes
one sweep with one LAPACK solve per knot; the cost's positive definite control
curvature keeps every Q_uu positive definite, so the sweep needs no repair.
The sweep runs in step units, [dt v_x | dt^2 V_xx], and the rollout adds
x K_t^T to per-knot offsets made in one batched product, so each knot costs
a few whole-array operations; both differ from the textbook iteration by
rounding only.
The line search rolls out all its step lengths together and scores a first
stage of the longest in one cost call, the rest only when none of those
passes. The first stage reaches two halvings past the step the solve's last
search accepted (four steps in its first search), so a solve whose steps
stay short still finds each one in a single cost call. Which call scores a
step never changes its cost, so the split never changes a plan.

Bounds are held the way of Tassa, Mansard & Todorov (2014): a control that
sits on a bound, and whose descent direction leaves the box, gets no step
and no feedback, and the free controls solve their own block of Q_uu. The
backward pass decides afresh at every iteration which controls to hold, so a
bound the rest of the plan has moved away from is released inside the one
loop.

The line search is the solver's one globalization: there is no damping
shift. The stopping rules are fixed module constants, _MAX_INNER_ITERS,
_COST_TOL and _GRAD_TOL, and a line search that accepts no step ends the
solve at its iterate, not converged.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import Fields, InvalidInputError, SolverError, float_array, integer, number

Array = np.ndarray
_lapack_solve = np.linalg._umath_linalg.solve  # np.linalg.solve's gufunc: NaN, not an error, when singular

_MAX_INNER_ITERS = 50
_COST_TOL = 1e-4  # relative cost change that ends the solve
_GRAD_TOL = 1e-5  # free-control gradient infinity norm that ends the solve
_REG_MIN = 1e-6  # unused by the solver; only perfbench/tracing.py reads it until ROADMAP item 18 drops reg_bumps
_ARMIJO = 1e-4
_N_ALPHAS = 11  # alpha in {1, 1/2, ..., 2^-10}
_ALPHAS = 2.0 ** -np.arange(_N_ALPHAS)
_ARMIJO_ALPHAS = _ARMIJO * _ALPHAS  # each step's required decrease per unit of expected decrease
_ASCENDING_ALPHAS = sorted(_ALPHAS.tolist())  # bisect's order
# a solve's first search scores alpha in {1, ..., 1/8} first, the rest only if none of them
# passes; each later search scores down to a quarter of the step its previous search accepted
_FIRST_STAGE = 4


@dataclass
class TrajectoryProblem:
    """Fixed-horizon problem: start state, knot costs, control box bounds.

    The cost has a KnotCostEvaluator's methods; its ``value(xs, us)`` takes
    states (A, N, n) and controls (A, N-1, n) of A candidates to costs (A,),
    and a single (N, n) and (N-1, n) trajectory to a scalar. Its
    ``control_derivatives(us)`` gives the gradient (N-1, n) and one control
    curvature huu (n, n), the same at every knot, which must be positive
    definite; ``state_derivatives(xs)`` gives a positive semidefinite state
    curvature hxx (N, n, n). The package cost's Gauss-Newton model is both
    by construction (CostTask.huu); the backward pass does not repair Q_uu."""

    n_knots: int
    dt: float
    x0: Array
    cost: object
    u_lower: Array
    u_upper: Array

    def __post_init__(self):
        self.x0 = float_array(self.x0, "x0").reshape(-1)
        self.u_lower = float_array(self.u_lower, "u_lower", finite=False).reshape(-1)  # an infinite bound is no bound
        self.u_upper = float_array(self.u_upper, "u_upper", finite=False).reshape(-1)
        self.n_knots = integer(self.n_knots, "n_knots", 2)
        self.dt = number(self.dt, "dt", 0, strict=True)
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
    outer_iterations: int  # always 1; trace schema v1 carries the field
    converged: bool
    max_bound_violation: float
    grad_inf: float  # from the last backward pass that completed; see solve

    to_dict = Fields.to_dict


def rollout(problem: TrajectoryProblem, controls: Array) -> Array:
    """Integrate x_{t+1} = x_t + u_t dt from the fixed start state."""
    controls = float_array(controls, "controls", (problem.n_knots - 1, problem.n_dims), finite=False)
    states = np.empty((problem.n_knots, problem.n_dims))
    states[0] = problem.x0
    # step-by-step so the stored states reproduce the update law bit-for-bit
    for t in range(problem.n_knots - 1):
        states[t + 1] = states[t] + controls[t] * problem.dt
    return states


# ---------------------------------------------------------------------------
# bounds


def max_bound_violation(problem: TrajectoryProblem, us: Array) -> float:
    """How far the worst control lies outside its box; 0 inside."""
    return float(max(0.0, np.max(us - problem.u_upper), np.max(problem.u_lower - us)))


# ---------------------------------------------------------------------------
# iLQR passes


@dataclass
class BackwardPassResult:
    k: Array  # (M, n) feedforward steps
    K: Array  # (M, n, n) feedback gains
    expected_decrease: float  # model decrease at a full step, >= 0
    grad_inf: float  # infinity norm of the free controls' gradient along the trajectory
    reg_used: float = 0.0  # always 0; only perfbench/tracing.py reads it until ROADMAP item 18 drops reg_bumps


@dataclass
class ForwardPassResult:
    states: Array
    controls: Array
    cost: float
    step_length: float  # 0.0 when no step was accepted
    accepted: bool


@dataclass
class _Derivs:
    gx: Array  # (N, n)
    gu: Array  # (M, n)
    hxx: Array  # (N, n, n)
    huu: Array  # (n, n), the control curvature of every knot
    side: Array  # (M, n) +1 where a control sits on its upper bound, -1 on its lower, else 0
    on_bound: Array  # (M,) some control of the knot sits on a bound


def _assemble_derivs(problem, xs, us) -> _Derivs:
    gx, hxx = problem.cost.state_derivatives(xs)
    gu, huu = problem.cost.control_derivatives(us)
    side = (us >= problem.u_upper) * 1.0 - (us <= problem.u_lower)
    return _Derivs(gx, gu, hxx, huu, side, np.logical_or.reduce(side != 0.0, axis=1))


def backward_pass(problem: TrajectoryProblem, derivs: _Derivs) -> BackwardPassResult:
    """Riccati-style sweep producing affine feedback gains from the cost
    derivatives along the current iterate.

    One undamped sweep. Each knot's Q_uu is the cost's one control
    curvature, symmetrized once per call, plus dt^2 V_xx. It is positive
    definite at every knot when the cost meets TrajectoryProblem's
    precondition, so the sweep neither tests, repairs nor shifts it. A
    singular Q_uu or a non-finite derivative gives non-finite gains, which
    raise SolverError after the sweep.

    A control on a bound whose descent direction -q_u leaves the box is held
    (Tassa, Mansard & Todorov 2014): its rows of k and K are zero, the free
    controls solve their own block of Q_uu, and grad_inf is taken over the
    free controls only. Knots with no control on a bound skip the rule.

    k = -Q_uu^-1 q_u and K = -Q_uu^-1 Q_ux come from the same Q_uu, so
    the full value update of Tassa, Erez & Todorov (2012) loses its cross
    terms: v_x = q_x + Q_ux^T k, V_xx = Q_xx + Q_ux^T K, and the model
    decrease at a full step is -q_u^T k / 2. Held rows of k and K are zero,
    so this holds with Q_ux whole.

    The sweep runs in step units: it carries W = [dt v_x | dt^2 V_xx] and
    the cost's gradient and curvature scaled the same way, once per call.
    With A = I and B = dt I, [q_u | dt Q_ux] = [g_u | 0] + W and
    Q_uu = huu + W[:, 1:], so one solve gives X = [-k | -dt K] and the value
    update is W = [dt g_x | dt^2 h_xx] + W - W[:, 1:] X. K's 1/dt is applied
    once, after the sweep. V_xx is symmetrized once, at the last knot: the
    update -W[:, 1:] Q_uu^-1 W[:, 1:] is symmetric in exact arithmetic.
    """
    n = problem.n_dims
    M = problem.n_knots - 1
    dt = problem.dt
    # column 0 holds the gradient and columns 1: the curvature, so one solve
    # gives [k | dt K] and one product updates W
    hx = np.empty((M + 1, n, n + 1))
    np.multiply(derivs.gx, dt, out=hx[:, :, 0])
    np.multiply(derivs.hxx, dt * dt, out=hx[:, :, 1:])
    # [0 | huu] and [* | Q_uu] = [0 | huu] + W: whole (n, n+1) operands keep the add on numpy's
    # fast same-shape path, which a column block would leave
    huu = np.zeros((n, n + 1))
    np.multiply(0.5, derivs.huu + derivs.huu.T, out=huu[:, 1:])
    Q = np.empty((n, n + 1))
    quu = Q[:, 1:]  # this knot's Q_uu

    q = np.zeros((M, n, n + 1))  # [q_u | dt Q_ux], from the control gradient
    q[:, :, 0] = derivs.gu
    X = np.empty((M, n, n + 1))  # [-k | -dt K]
    W = hx[-1].copy()  # [dt v_x | dt^2 V_xx]
    W[:, 1:] = 0.5 * (W[:, 1:] + W[:, 1:].T)
    WK = W[:, 1:]  # dt Q_ux at every knot, a view of W
    WX = np.empty((n, n + 1))  # WK @ X[t]
    knots = list(zip(q, X, derivs.side, derivs.on_bound.tolist(), hx))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite gains are caught after the sweep
        for t in range(M - 1, -1, -1):
            qt, Xt, side, on_bound, hxt = knots[t]
            qt += W
            np.add(huu, W, out=Q)
            lhs, rhs = quu, qt
            if on_bound:
                free = side * qt[:, 0] >= 0.0
                # identity rows and columns decouple the held controls, and
                # their zero right-hand side gives them zero steps and gains
                lhs = np.where(free[:, None] & free, quu, np.eye(n))
                qt[:, 0] *= free  # out of the reported gradient
                rhs = qt * free[:, None]
            _lapack_solve(lhs, rhs, out=Xt)
            if t:  # knot 0's value function would feed no gain
                np.matmul(WK, Xt, out=WX)
                W += hxt
                W -= WX
    if not np.logical_and.reduce(np.isfinite(X), axis=None):
        raise SolverError("backward pass: non-finite gains; Q_uu is singular or the cost derivatives are not finite")
    qu, k, K = q[:, :, 0], np.negative(X[:, :, 0]), np.multiply(X[:, :, 1:], -1.0 / dt)
    decrease = max(0.0, -0.5 * float(np.add.reduce(qu * k, axis=None)))
    return BackwardPassResult(k, K, decrease, float(np.maximum.reduce(np.abs(qu), axis=None)))


def _first_stage_size(last_step: float | None) -> int:
    """How many of the longest steps a line search scores in its first cost call: _FIRST_STAGE in a
    solve's first search (last_step None), else every step down to last_step and two halvings past
    it, at most all of them. Counted by bisection, so any last_step in (0, 1] is placed."""
    if last_step is None:
        return _FIRST_STAGE
    return min(_N_ALPHAS, _N_ALPHAS - bisect_left(_ASCENDING_ALPHAS, last_step) + 2)


def forward_pass(
    problem: TrajectoryProblem,
    states: Array,
    controls: Array,
    gains: BackwardPassResult,
    incumbent_cost: float,
    last_step: float | None = None,
) -> ForwardPassResult:
    """Line-searched rollout of the affine policy, all step lengths at once.

    Rolls the policy u = controls_t + alpha k_t + K_t (x - states_t) out for
    every alpha in {1, 1/2, ..., 2^-10} together, clamping each control into
    its box before it enters the rollout. Each control is formed as
    x K_t^T + c_t(alpha), from offsets c_t(alpha) = controls_t + alpha k_t -
    states_t K_t^T made for every knot and alpha in one batched product, so
    it equals the policy's to rounding. The stack is scored in two cost
    calls at most: a first stage of the longest steps, the shorter ones
    only if none of those passes. last_step is the step the previous search
    of the same solve accepted, 2^-k, or None in a solve's first search; the
    first stage runs from 1 down to 2^-(k+2), or to 1/8 without it, and
    takes all eleven steps when k + 2 >= 10. A candidate's cost does not
    depend on the stack it is scored in, so the split never changes the
    result. A candidate whose states are not finite is scored as the
    incumbent and never accepted. Returns the largest alpha whose actual
    decrease is at least 1e-4 * alpha * expected_decrease, or the incumbent
    with accepted=False when no step qualifies. incumbent_cost is the cost
    of (states, controls), a finite number. The shapes of states, controls
    and the gains are checked, not their values.
    """
    M, n = problem.n_knots - 1, problem.n_dims
    for name, value, shape in (
        ("states", states, (M + 1, n)),
        ("controls", controls, (M, n)),
        ("gains.k", gains.k, (M, n)),
        ("gains.K", gains.K, (M, n, n)),
    ):
        if np.shape(value) != shape:
            raise InvalidInputError(f"{name} must be a {shape} array, got shape {np.shape(value)}")
    incumbent_cost = number(incumbent_cost, "incumbent_cost")
    dt = problem.dt
    xs = np.empty((M + 1, _N_ALPHAS, n))  # time-major: each knot's block is contiguous
    xs[0] = states[0]
    # us holds the offsets c_t(alpha) until each knot's turn adds x K_t^T
    KT = gains.K.swapaxes(1, 2)
    us = controls[:, None] - states[:-1, None] @ KT + _ALPHAS[:, None] * gains.k[:, None]  # (M, A, n)
    step = np.empty((_N_ALPHAS, n))
    # the box once per candidate: same-shape operands keep the clamp on numpy's fast path, which
    # broadcasting a bound would leave (np.clip dispatches slower still)
    lower, upper = np.empty((2, _N_ALPHAS, n))
    lower[:], upper[:] = problem.u_lower, problem.u_upper
    # large steps may overflow; those candidates are masked out below
    with np.errstate(over="ignore", invalid="ignore"):
        for x, x_next, u, KTt in zip(xs, xs[1:], us, KT):
            u += x @ KTt
            np.maximum(u, lower, out=u)
            np.minimum(u, upper, out=u)
            np.multiply(u, dt, out=step)
            np.add(x, step, out=x_next)
    xs = np.ascontiguousarray(xs.swapaxes(0, 1))  # a strided stack would change value's sum order
    us = np.ascontiguousarray(us.swapaxes(0, 1))
    finite = np.logical_and.reduce(np.isfinite(xs), axis=(1, 2))
    if not np.logical_and.reduce(finite):
        xs[~finite] = states
        us[~finite] = controls
    required = _ARMIJO_ALPHAS * gains.expected_decrease
    first = _first_stage_size(last_step)
    stages = (slice(0, first), slice(first, _N_ALPHAS)) if first < _N_ALPHAS else (slice(0, _N_ALPHAS),)
    for stage in stages:
        costs = problem.cost.value(xs[stage], us[stage])
        passed = finite[stage] & (incumbent_cost - costs >= required[stage])
        if np.logical_or.reduce(passed):
            i = int(passed.argmax())
            a = stage.start + i
            return ForwardPassResult(xs[a], us[a], float(costs[i]), float(_ALPHAS[a]), True)
    return ForwardPassResult(states, controls, incumbent_cost, 0.0, False)


# ---------------------------------------------------------------------------
# solve


def solve(problem: TrajectoryProblem, initial_controls: Array) -> SolveResult:
    """Clamped iLQR solve of the fixed-horizon problem from the warm start
    initial_controls, shape (n_knots - 1, n_dims), clipped into the box; the
    planning loop picks it.

    Every iterate lies inside the bounds and accepted iterate costs are
    non-increasing. The solve ends when the relative cost change or the free
    controls' gradient falls below its tolerance (converged); otherwise it
    returns its last iterate, not converged, at the iteration cap, at the
    first line search that accepts no step (a stall), or at non-finite gains
    in a later backward pass. It raises SolverError only for a warm start
    with a non-finite cost or non-finite gains in its first backward pass.
    The solve does not time itself; the caller times the replan around it.
    grad_inf is the free controls' gradient from the last backward pass
    that completed: at the returned plan when the solve ends on the gradient
    stop or a stall, at the iterate before it when the solve ends right
    after an accepted step (the cost-change stop, the iteration cap,
    non-finite gains in the next backward pass).
    """
    M = problem.n_knots - 1
    n = problem.n_dims

    # a non-finite warm start is caught by its cost below
    us = float_array(initial_controls, "initial controls", (M, n), finite=False)
    us = np.clip(us, problem.u_lower, problem.u_upper)
    xs = rollout(problem, us)

    J = problem.cost.value(xs, us)
    if not np.isfinite(J):
        raise SolverError(f"warm start has non-finite cost {J}")

    bp = None
    step = None  # the last accepted step length, which sizes the next search's first stage
    converged = False

    for iterations in range(1, _MAX_INNER_ITERS + 1):
        derivs = _assemble_derivs(problem, xs, us)
        try:
            bp = backward_pass(problem, derivs)
        except SolverError:
            if bp is None:
                raise  # non-finite gains at the warm start
            break  # non-finite gains: (xs, us) is the best iterate so far
        if bp.grad_inf < _GRAD_TOL:
            converged = True
            break
        fp = forward_pass(problem, xs, us, bp, J, step)
        if not fp.accepted:
            break  # a stall: no step lowers the cost along this model
        dJ = J - fp.cost
        xs, us, J, step = fp.states, fp.controls, fp.cost, fp.step_length
        if abs(dJ) / max(1.0, abs(J)) < _COST_TOL:
            converged = True
            break

    return SolveResult(
        states=xs,
        controls=us,
        total_cost=float(J),
        iterations=iterations,
        outer_iterations=1,
        converged=converged,
        max_bound_violation=max_bound_violation(problem, us),
        grad_inf=float(bp.grad_inf),
    )
