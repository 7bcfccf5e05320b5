"""Plan digests: one SHA-256 per benchmark workload over every replan's plan.

A change meant to leave plans bit-identical shows it here: run this on both
trees and compare the printed lines. Beside each digest goes the sum of the
replans' total costs to 12 significant digits, which shows how far a change
that moves plans at rounding level moved them.

    python3 tests/plan_digest.py --seed 3

Each workload's first ``N_SCENARIOS`` scenarios of the workload seed (built
by ``perfbench/workloads.py``, as the benchmark builds them) run through
``run_mpc``; the digest covers every replan's states, controls, iterations,
total cost, ``converged`` and ``grad_inf``. BLAS is pinned to one thread, as
in the benchmark. Digests can differ between machines and numpy/BLAS builds,
so compare two trees on one machine. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
N_SCENARIOS = 12  # per workload


def plan_digest(pkg, workload, seed: int, workdir: Path) -> tuple[str, float]:
    """SHA-256 over every replan of the workload's first N_SCENARIOS scenarios,
    and the sum of those replans' total costs."""
    import numpy as np
    from workloads import scenario_seeds

    digest, total = hashlib.sha256(), 0.0
    inputs = workload.prepare(scenario_seeds(seed, N_SCENARIOS), workdir)
    for scenario in workload.load(pkg, inputs):
        for replan in pkg.mpc.run_mpc(scenario).replans:
            r = replan.result
            digest.update(np.ascontiguousarray(r.states, dtype=float).tobytes())
            digest.update(np.ascontiguousarray(r.controls, dtype=float).tobytes())
            scalars = (r.iterations, float(r.total_cost).hex(), r.converged, float(r.grad_inf).hex())
            digest.update(repr(scalars).encode())
            total += float(r.total_cost)
    return digest.hexdigest(), total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3, help="workload seed, >= 0")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is first imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import anticip_mpc
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            digest, total = plan_digest(anticip_mpc, workload, args.seed, Path(tmp) / name)
            print(f"{name} seed {args.seed} scenarios {N_SCENARIOS}: {digest} total_cost {total:.12g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
