"""Evaluation metrics over executed traces.

Five scalars: separation fraction, end-effector visibility fraction, mean
goal-inference probability, summed squared deviation from the nominal path,
and planning latency. Distances and gaze angles are computed against the
trace's ground-truth human by default; pass against="predicted" to score
against the prediction means instead. The metrics measure with the
planner's own human distance, gaze rays and goal inference, so a metric
cannot drift from the cost term it scores. The trace checked its own fields
when it was built; each metric checks only the arguments it reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import gaze_cosines, gaze_directions, legibility_logits, softmax
from .errors import SCHEMA_VERSION, Fields, InvalidInputError, number, write_json
from .mpc import ExecutionTrace, min_human_distance

Array = np.ndarray

SEPARATION_THRESHOLD = 0.2  # meters
FOV_HALF_ANGLE = np.pi / 3.0  # radians; central + paracentral human vision


def _human_motion(trace: ExecutionTrace, against: str) -> Array:
    if not (isinstance(against, str) and against in ("truth", "predicted")):  # an array would compare per entry
        raise InvalidInputError(f"against must be 'truth' or 'predicted', got {against!r}")
    return trace.human_pred if against == "predicted" else trace.human_true


def separation_metric(
    trace: ExecutionTrace, threshold: float = SEPARATION_THRESHOLD, against: str = "truth"
) -> float:
    """Fraction of timesteps with every human-robot joint pair farther than threshold (finite, > 0)."""
    threshold = number(threshold, "threshold", 0, strict=True)
    min_d = min_human_distance(trace.tracked_positions, _human_motion(trace, against))
    return float(np.mean(min_d > threshold))


def visibility_metric(
    trace: ExecutionTrace, fov_half_angle: float = FOV_HALF_ANGLE, against: str = "truth"
) -> float:
    """Fraction of timesteps with the end effector inside the gaze cone; fov_half_angle is in (0, pi]."""
    fov_half_angle = number(fov_half_angle, "fov_half_angle")
    if not 0 < fov_half_angle <= np.pi:
        raise InvalidInputError(f"fov_half_angle must be in (0, pi], got {fov_half_angle!r}")
    head = _human_motion(trace, against)[:, trace.head_index]
    _, cos_theta, _ = gaze_cosines(gaze_directions(trace.gaze_object, head), head, trace.eef_positions)
    return float(np.mean(np.arccos(cos_theta) <= fov_half_angle))


def legibility_metric(trace: ExecutionTrace) -> float:
    """Mean inferred probability of the true goal along the executed path.

    The inference is the legibility cost's: a goal's logit is its
    straight-line cost-to-go from the start less that from the end effector.
    The accumulated path length that the path-cost form adds to every logit
    is shared by all goals, so it cancels in the softmax.
    """
    slopes, offsets = legibility_logits(trace.legibility_start, trace.legibility_goals)
    return float(np.mean(softmax(trace.eef_positions @ slopes + offsets)[:, trace.legibility_goal_index]))


def nominal_metric(trace: ExecutionTrace) -> float:
    """Sum of squared distances between actual and nominal eef positions."""
    return float(np.sum((trace.eef_positions - trace.nominal) ** 2))


def latency_metric(trace: ExecutionTrace) -> tuple[float, list[float]]:
    """Total planning wall time of the trajectory plus per-replan times."""
    per_replan = trace.replan_wall_times()
    return float(sum(per_replan)), per_replan


@dataclass
class MetricsReport:
    dst: float
    vis: float
    leg: float
    nom: float
    lat: float
    per_replan: list
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("dst", "vis", "leg"):  # leg is exactly 1.0 with a single candidate goal
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidInputError(f"{name} must lie in [0, 1], got {v}")
        if self.lat < 0:
            raise InvalidInputError("lat must be nonnegative")

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **Fields.to_dict(self)}

    def save_json(self, path) -> None:
        write_json(path, self.to_dict())

    csv_header = ["dst", "vis", "leg", "nom", "lat"]

    def csv_row(self) -> list:
        return [f"{getattr(self, k):.6f}" for k in self.csv_header]


def evaluate_trace(
    trace: ExecutionTrace,
    threshold: float = SEPARATION_THRESHOLD,
    fov_half_angle: float = FOV_HALF_ANGLE,
    against: str = "truth",
) -> MetricsReport:
    """All five metrics of one executed trace; each metric checks the arguments it reads."""
    lat, per_replan = latency_metric(trace)
    return MetricsReport(
        dst=separation_metric(trace, threshold=threshold, against=against),
        vis=visibility_metric(trace, fov_half_angle=fov_half_angle, against=against),
        leg=legibility_metric(trace),
        nom=nominal_metric(trace),
        lat=lat,
        per_replan=per_replan,
        config={"threshold": float(threshold), "fov_half_angle": float(fov_half_angle), "against": against},
    )
