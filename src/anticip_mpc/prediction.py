"""Stochastic human-trajectory predictions: ingestion, slicing, synthesis.

A prediction is a per-joint Gaussian (mean + covariance) at each timestep on
a fixed grid. Predictions normally come from an external pose-prediction
network via JSON files; :func:`synthesize_reach` produces deterministic
desk-scale substitutes. A :class:`HumanPrediction` checks and conditions its
covariances once, at construction, so slicing a horizon only interpolates
between frames and holds the last one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Fields, InvalidInputError, float_array, integer, number, read_json, store, write_json

Array = np.ndarray

_SYM_TOL = 1e-9
FRAME_TOL = 1e-9  # a time within this many grid steps of a frame reads that frame
_EIG_FLOOR = 1e-9
_HOLD_GROWTH = 1.5  # covariance inflation per grid step held past the last frame


def _condition_covariances(covs: Array) -> Array:
    """Check a (T, H, 3, 3) stack in one pass (finite, symmetric within _SYM_TOL, positive
    definite), naming the first bad (frame, joint), and return it exactly symmetric with no
    eigenvalue below _EIG_FLOOR."""
    finite = np.isfinite(covs).all(axis=(-2, -1))
    with np.errstate(invalid="ignore", over="ignore"):
        asym = np.abs(covs - np.swapaxes(covs, -1, -2)).max(axis=(-2, -1)) > _SYM_TOL
        covs = 0.5 * covs + 0.5 * np.swapaxes(covs, -1, -2)
        # Gershgorin bound on the least eigenvalue: each diagonal entry less its row's other two
        flat = covs.reshape(covs.shape[:-2] + (9,))
        lows = (flat[..., ::4] - np.abs(flat[..., [1, 3, 6]]) - np.abs(flat[..., [2, 5, 7]])).min(axis=-1)
    unsure = finite & ~(lows >= _EIG_FLOOR)  # eigvalsh decides where the bound does not clear the floor
    if unsure.any():
        lows[unsure] = np.linalg.eigvalsh(covs[unsure])[:, 0]
    bad = ~finite | asym | (lows <= 0)
    if bad.any():
        t, h = np.argwhere(bad)[0]
        where = f"covariance at frame {t}, joint {h}"
        if not finite[t, h]:
            raise InvalidInputError(f"{where} must be a finite 3x3 matrix")
        raise InvalidInputError(f"{where} is {'not symmetric' if asym[t, h] else 'not positive definite'}")
    low = lows < _EIG_FLOOR
    if low.any():
        vals, vecs = np.linalg.eigh(covs[low])
        c = (vecs * np.maximum(vals, _EIG_FLOOR)[:, None, :]) @ np.swapaxes(vecs, -1, -2)
        covs[low] = 0.5 * c + 0.5 * np.swapaxes(c, -1, -2)
    return covs


@dataclass(frozen=True, eq=False)
class HumanPrediction:
    """Per-joint Gaussian trajectories on a fixed time grid.

    means has shape (T, H, 3) and covs (T, H, 3, 3); the grid is
    t0, t0 + dt, ..., t0 + (T - 1) dt.
    """

    joint_names: tuple
    head_index: int
    means: Array
    covs: Array
    dt: float
    t0: float = 0.0

    def __post_init__(self):
        means = float_array(self.means, "prediction means", finite=False)
        covs = float_array(self.covs, "prediction covs", finite=False)
        if means.ndim != 3 or means.shape[2] != 3 or means.shape[0] < 1:
            raise InvalidInputError("means must have shape (T, H, 3) with T >= 1")
        T, H = means.shape[:2]
        if H < 1:
            raise InvalidInputError("a prediction needs at least one joint (the head), got none")
        if covs.shape != (T, H, 3, 3):
            raise InvalidInputError("covs must have shape (T, H, 3, 3) matching means")
        joint_names = _names(self.joint_names, "prediction joint_names")
        if len(joint_names) != H:
            raise InvalidInputError("joint_names length must match the joint count")
        bad = ~np.all(np.isfinite(means), axis=-1)
        if np.any(bad):
            t, h = np.argwhere(bad)[0]
            raise InvalidInputError(f"mean at frame {t}, joint {h} must be finite")
        store(
            self, means=means, covs=_condition_covariances(covs), joint_names=joint_names,
            head_index=integer(self.head_index, "prediction head_index", 0, H - 1),
            dt=number(self.dt, "prediction dt", 0, strict=True), t0=number(self.t0, "prediction t0"),
        )

    @property
    def n_frames(self) -> int:
        return self.means.shape[0]

    @property
    def n_joints(self) -> int:
        return self.means.shape[1]


def slice_horizon(pred: HumanPrediction, t_start: float, n_knots: int, dt: float) -> tuple[Array, Array]:
    """Means (n_knots, H, 3) and covariances (n_knots, H, 3, 3) at t_start,
    t_start + dt, ... from a prediction.

    A knot within FRAME_TOL grid steps of a frame reads that frame; other times
    up to the last frame interpolate means and covariances linearly, which
    keeps the covariances conditioned at construction symmetric and above
    the eigenvalue floor. Times past the last frame hold the last mean and
    inflate its covariance by 1.5 per overrun grid step (fractional
    overruns use a fractional exponent); an inflation that overflows is
    rejected.
    """
    t_start = number(t_start, "t_start")
    n_knots = integer(n_knots, "n_knots", 1)
    dt = number(dt, "dt", 0, strict=True)
    rel0 = (t_start - pred.t0) / pred.dt
    if not rel0 >= -FRAME_TOL:
        raise InvalidInputError(f"t_start={t_start} precedes the prediction start {pred.t0}")
    rel0 = max(rel0, 0.0)  # a start within the tolerance would otherwise index frame -1
    T = pred.n_frames
    raw = rel0 + np.arange(n_knots) * dt / pred.dt  # knot times in grid steps
    s = np.where(np.abs(raw - np.round(raw)) < FRAME_TOL, np.round(raw), raw)
    held = s > T - 1
    i0 = np.floor(s[~held]).astype(int)
    i1 = np.minimum(i0 + 1, T - 1)
    w = (s[~held] - i0)[:, None, None]  # 0 on the grid

    out_means = np.empty((n_knots,) + pred.means.shape[1:])
    out_covs = np.empty((n_knots,) + pred.covs.shape[1:])
    out_means[~held] = (1 - w) * pred.means[i0] + w * pred.means[i1]
    w = w[..., None]
    out_covs[~held] = (1 - w) * pred.covs[i0] + w * pred.covs[i1]

    if np.any(held):
        overrun = raw[held] - (T - 1)
        try:
            factor = np.array([_HOLD_GROWTH**x for x in overrun.tolist()])
            with np.errstate(over="ignore"):
                inflated = pred.covs[-1] * factor[:, None, None, None]
            finite = np.all(np.isfinite(inflated))
        except OverflowError:
            finite = False
        if not finite:
            raise InvalidInputError(
                f"the horizon runs {overrun.max() * pred.dt:g} s ({overrun.max():g} grid steps) past "
                f"the prediction's last frame at t={pred.t0 + (T - 1) * pred.dt:g} s; the held covariance, inflated "
                f"by {_HOLD_GROWTH:g} per step, is not finite"
            )
        out_means[held] = pred.means[-1]
        out_covs[held] = inflated
    return out_means, out_covs


# ---------------------------------------------------------------------------
# synthetic reaching motion


_DEFAULT_JOINTS = ("head", "torso", "pelvis", "l_hand", "r_hand")
_DEFAULT_REST = np.array([  # seated across the table from the robot (x away from its base, z up)
    [1.10, 0.00, 0.55],
    [1.10, 0.00, 0.30],
    [1.15, 0.00, 0.05],
    [0.95, 0.30, 0.25],
    [0.95, -0.30, 0.25],
])


@dataclass(frozen=True, eq=False)
class ReachConfig(Fields):
    """Parameters for a deterministic synthetic human reach. The defaults are the package's one
    desk-scale human, reaching the right hand into the robot's workspace: ``gen-scenario`` writes
    them, and a scenario's ``synthesize`` block takes each key it leaves out from them."""

    section = "reach"

    joint_names: tuple = _DEFAULT_JOINTS
    head_index: int = 0
    rest_positions: Array = field(default_factory=lambda: _DEFAULT_REST)  # stored as a copy
    reach_joint: int = 4
    reach_target: Array = field(default_factory=lambda: np.array([0.75, 0.05, 0.30]))
    duration: float = 5.0
    settle: float = 0.0  # extra seconds held at the target after the reach
    dt: float = 0.25
    t0: float = 0.0
    base_cov: float = 2.5e-3  # isotropic variance at zero lookahead, m^2 (~5 cm std)
    growth_rate: float = 0.4  # relative covariance growth per second of lookahead
    jitter: float = 0.004  # quasi-static joint perturbation scale, meters
    seed: int = 0

    def __post_init__(self):
        self._check("joint_names", _names)
        H = len(self.joint_names)
        self._check("rest_positions", float_array, (H, 3))
        self._check("reach_target", float_array, (3,))
        for name in ("head_index", "reach_joint"):
            self._check(name, integer, 0, H - 1)
        self._check("seed", integer, 0)
        for name in ("duration", "dt", "base_cov"):
            self._check(name, number, 0, strict=True)
        for name in ("settle", "growth_rate"):
            self._check(name, number, 0)
        for name in ("t0", "jitter"):
            self._check(name, number)


def _names(value, name: str) -> tuple:
    if not isinstance(value, (list, tuple)) or not all(isinstance(n, str) for n in value):
        raise InvalidInputError(f"{name} must be a list of names, got {value!r}")
    return tuple(value)


def minimum_jerk_profile(tau: Array) -> Array:
    """Normalized minimum-jerk position profile on [0, 1]."""
    tau = np.clip(tau, 0.0, 1.0)
    return tau**3 * (10.0 - 15.0 * tau + 6.0 * tau**2)


def synthesize_reach(config: ReachConfig) -> HumanPrediction:
    """Deterministic (seeded) human reach: one joint follows a minimum-jerk
    path to the target, the others stay quasi-static with small seeded
    perturbations; covariance grows linearly with lookahead."""
    rest = config.rest_positions
    H = rest.shape[0]
    target = config.reach_target

    total = config.duration + config.settle
    T = int(round(total / config.dt)) + 1
    times = np.arange(T) * config.dt

    rng = np.random.default_rng(config.seed)
    noise = rng.standard_normal((T, H, 3))
    # 3-tap moving average keeps the jitter quasi-static rather than white
    smooth = noise.copy()
    smooth[1:-1] = (noise[:-2] + noise[1:-1] + noise[2:]) / 3.0
    means = rest[None, :, :] + config.jitter * smooth

    s = minimum_jerk_profile(times / config.duration)
    means[:, config.reach_joint, :] = rest[config.reach_joint] + s[:, None] * (target - rest[config.reach_joint])

    scale = config.base_cov * (1.0 + config.growth_rate * times)  # (T,)
    covs = scale[:, None, None, None] * np.eye(3)[None, None, :, :]
    covs = np.broadcast_to(covs, (T, H, 3, 3)).copy()

    return HumanPrediction(
        joint_names=tuple(config.joint_names),
        head_index=config.head_index,
        means=means,
        covs=covs,
        dt=config.dt,
        t0=config.t0,
    )


# ---------------------------------------------------------------------------
# file I/O


def load_prediction(path) -> HumanPrediction:
    """Load and validate a prediction JSON file."""
    return prediction_from_dict(read_json(path, "prediction"))


def prediction_from_dict(data: dict) -> HumanPrediction:
    try:
        joint_names = _names(data["joint_names"], "prediction joint_names")
        frames, head_index, dt = data["frames"], data["head_index"], data["dt"]
    except KeyError as exc:
        raise InvalidInputError(f"prediction missing required key: {exc}") from exc
    if not isinstance(frames, list) or not frames:
        raise InvalidInputError(f"prediction frames must be a nonempty list, got {frames!r}")
    means, covs = _frame_arrays(frames, len(joint_names))
    return HumanPrediction(joint_names, head_index, means, covs, dt, data.get("t0", 0.0))


def _frame_arrays(frames: list, H: int) -> tuple[Array, Array]:
    """Means (T, H, 3) and covariances (T, H, 3, 3), checked in one pass over the whole
    frame list; only if that fails does a per-entry pass run, naming the bad entry. Neither
    checks finiteness, which HumanPrediction reports by frame and joint."""
    T = len(frames)
    try:
        return (
            float_array([[entry["mean"] for entry in frame] for frame in frames], "means", (T, H, 3), finite=False),
            float_array([[entry["cov"] for entry in frame] for frame in frames], "covs", (T, H, 3, 3), finite=False),
        )
    except (KeyError, TypeError, InvalidInputError):
        pass
    means = np.empty((T, H, 3))
    covs = np.empty((T, H, 3, 3))
    for t, frame in enumerate(frames):
        if not isinstance(frame, list) or len(frame) != H:
            raise InvalidInputError(f"frame {t} must be a list of {H} joints (ragged prediction)")
        for h, entry in enumerate(frame):
            try:
                means[t, h] = float_array(entry["mean"], "mean", (3,), finite=False)
                covs[t, h] = float_array(entry["cov"], "cov", (3, 3), finite=False)
            except (KeyError, TypeError) as exc:
                raise InvalidInputError(f"frame {t}, joint {h}: {exc}") from exc
            except InvalidInputError:
                raise InvalidInputError(f"frame {t}, joint {h}: mean must be 3 numbers and cov a 3x3 matrix of numbers") from None
    return means, covs


def prediction_to_dict(pred: HumanPrediction) -> dict:
    return {
        "joint_names": list(pred.joint_names),
        "head_index": pred.head_index,
        "dt": pred.dt,
        "t0": pred.t0,
        "frames": [
            [
                {"mean": pred.means[t, h].tolist(), "cov": pred.covs[t, h].tolist()}
                for h in range(pred.n_joints)
            ]
            for t in range(pred.n_frames)
        ],
    }


def save_prediction(pred: HumanPrediction, path) -> None:
    write_json(path, prediction_to_dict(pred))

