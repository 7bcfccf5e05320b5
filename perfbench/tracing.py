"""Layer tracing installed from outside the package.

The tracer replaces the names that the planner's callers look up (for
example ``anticip_mpc.mpc.solve`` or ``anticip_mpc.costs.fk_batch``) with
wrappers that record one span per call: name, start, end, parent span and
trajectory id. Spans stay in memory until the run ends. No file of the
package changes; ``uninstall`` restores the original names.

A span's self time is its duration minus the time of the spans it directly
contains. The self times of every span below a planning root
(``mpc.build_problem`` and ``solver.solve``, the two calls a replan makes)
add up to the time spent inside those roots, which is almost all of a
replan's wall time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

PLANNING_ROOTS = ("mpc.build_problem", "solver.solve")


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    traj: int
    start: float = 0.0
    end: float = 0.0
    info: Optional[dict] = None


def _fk_rows(args, kwargs, result):
    qs = kwargs["qs"] if "qs" in kwargs else args[1]
    return {"rows": int(np.shape(qs)[0])}


def _reg_bumps(reg_min):
    def annotate(args, kwargs, result):
        # backward_pass raises its shift to reg_min on the first failed
        # factorization and by 10x on each later one, so the bumps follow
        # from the shift it was given and the one it returns
        reg_in = kwargs.get("reg", args[5] if len(args) > 5 else 0.0)
        reg_out = result.reg_used
        if reg_out == reg_in:
            bumps = 0
        elif reg_in == 0.0:
            bumps = 1 + round(math.log10(reg_out / reg_min))
        else:
            bumps = round(math.log10(reg_out / reg_in))
        return {"reg_bumps": bumps}

    return annotate


def _accepted(args, kwargs, result):
    return {"accepted": bool(result.accepted)}


def _solve_stats(args, kwargs, result):
    return {
        "iterations": result.iterations,
        "outer_iterations": result.outer_iterations,
        "converged": bool(result.converged),
        "grad_inf": float(result.grad_inf),
    }


def _targets(pkg):
    """(owner, attribute, span name, annotate) for every traced call site."""
    kin, costs, solver, mpc, metrics = pkg.kinematics, pkg.costs, pkg.solver, pkg.mpc, pkg.metrics
    evaluator = costs.KnotCostEvaluator
    return [
        (kin, "fk_batch", "kinematics.fk_batch", _fk_rows),
        (costs, "fk_batch", "kinematics.fk_batch", _fk_rows),
        (mpc, "fk_batch", "kinematics.fk_batch", _fk_rows),
        (costs, "position_jacobians", "kinematics.position_jacobians", None),
        (evaluator, "__init__", "costs.evaluator_init", None),
        (evaluator, "value", "costs.value", None),
        (evaluator, "state_derivatives", "costs.state_derivatives", None),
        (solver, "backward_pass", "solver.backward_pass", _reg_bumps(solver._REG_MIN)),
        (solver, "forward_pass", "solver.forward_pass", _accepted),
        (mpc, "solve", "solver.solve", _solve_stats),
        (mpc, "build_problem", "mpc.build_problem", None),
        (mpc, "slice_horizon", "prediction.slice_horizon", None),
        (mpc, "load_prediction", "prediction.load", None),
        (mpc, "synthesize_reach", "prediction.load", None),
        (metrics, "evaluate_trace", "metrics.evaluate_trace", None),
    ]


class Tracer:
    """Records spans around the package's layer calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.traj = -1
        self._stack: list[int] = []
        self._installed: list = []

    def _wrap(self, name, fn, annotate):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.traj)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        return traced

    def install(self, pkg) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, annotate in _targets(pkg):
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(name, original, annotate))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def self_times(spans: list[Span]) -> tuple[list[float], list[int]]:
    """Self time of every span and the index of its root span."""
    child_time = [0.0] * len(spans)
    roots = [0] * len(spans)
    for i, span in enumerate(spans):  # a parent is always recorded before its children
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
            roots[i] = roots[span.parent]
        else:
            roots[i] = i
    return [s.end - s.start - c for s, c in zip(spans, child_time)], roots


def layer_metrics(
    spans: list[Span], timed_trajs: set, count_trajs: set, n_loaded: int, scale: dict
) -> dict:
    """Per-layer metrics.

    Times are self seconds per trajectory, averaged over ``timed_trajs``;
    ``prediction.load`` runs during set-up and is averaged over the
    ``n_loaded`` scenarios loaded under tracing. Counts cover
    ``count_trajs`` (one pass over the scenario set), so they repeat exactly
    between runs of the same code and inputs. ``scale`` maps a trajectory id
    (-1 for set-up) to the factor that converts its times to reference
    machine speed.
    """
    selfs, roots = self_times(spans)
    selfs = [t * scale[s.traj] for s, t in zip(spans, selfs)]
    planning = [spans[r].name in PLANNING_ROOTS for r in roots]
    n_timed = len(timed_trajs)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    rows = reg_bumps = trials = accepted = 0
    solves = []
    load_s = 0.0
    for i, span in enumerate(spans):
        if span.name == "prediction.load":
            load_s += selfs[i]
            continue
        if not (planning[i] or span.name == "metrics.evaluate_trace"):
            continue
        if span.traj in timed_trajs:
            self_s[span.name] = self_s.get(span.name, 0.0) + selfs[i]
        if span.traj not in count_trajs:
            continue
        calls[span.name] = calls.get(span.name, 0) + 1
        info = span.info or {}  # a call that raised has no annotation
        rows += info.get("rows", 0)
        reg_bumps += info.get("reg_bumps", 0)
        accepted += info.get("accepted", 0)
        if span.name == "costs.value" and spans[span.parent].name == "solver.forward_pass":
            trials += 1
        elif span.name == "solver.solve" and info:
            solves.append(info)

    def t(name):
        return self_s.get(name, 0.0) / n_timed

    forward_calls = calls.get("solver.forward_pass", 0)
    return {
        "kinematics.fk_batch.calls": calls.get("kinematics.fk_batch", 0),
        "kinematics.fk_batch.rows": rows,
        "kinematics.fk_batch.self_s": t("kinematics.fk_batch"),
        "kinematics.position_jacobians.calls": calls.get("kinematics.position_jacobians", 0),
        "kinematics.position_jacobians.self_s": t("kinematics.position_jacobians"),
        "costs.value.calls": calls.get("costs.value", 0),
        "costs.value.self_s": t("costs.value"),
        "costs.state_derivatives.calls": calls.get("costs.state_derivatives", 0),
        "costs.state_derivatives.self_s": t("costs.state_derivatives"),
        "costs.evaluator_init.self_s": t("costs.evaluator_init"),
        "solver.backward_pass.calls": calls.get("solver.backward_pass", 0),
        "solver.backward_pass.self_s": t("solver.backward_pass"),
        "solver.backward_pass.reg_bumps": reg_bumps,
        "solver.forward_pass.calls": forward_calls,
        "solver.forward_pass.self_s": t("solver.forward_pass"),
        "solver.line_search.trials_per_search": trials / forward_calls if forward_calls else 0.0,
        "solver.line_search.accept_ratio": accepted / trials if trials else 0.0,
        "solver.inner_iters": sum(s["iterations"] for s in solves),
        "solver.outer_iters": sum(s["outer_iterations"] for s in solves),
        "solver.converged_frac": sum(s["converged"] for s in solves) / len(solves) if solves else 0.0,
        "solver.grad_inf_p50": float(np.median([s["grad_inf"] for s in solves])) if solves else 0.0,
        "solver.solve.self_s": t("solver.solve"),
        "prediction.slice_horizon.calls": calls.get("prediction.slice_horizon", 0),
        "prediction.slice_horizon.self_s": t("prediction.slice_horizon"),
        "prediction.load.self_s": load_s / n_loaded,
        "mpc.build_problem.self_s": t("mpc.build_problem"),
        "mpc.replans": len(solves),
        "metrics.evaluate_trace.self_s": t("metrics.evaluate_trace"),
    }

