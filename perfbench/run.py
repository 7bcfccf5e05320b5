"""Planning benchmark of anticip-mpc: runs one workload and prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload reference --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; BENCHMARK.json names both sets with their units and
directions. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The full result (machine,
scenario seeds, per-seed plan quality, failed checks) is written to
perfbench/out/. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("reference", "oneshot", "fullbody")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, required=True, help="minimum measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "anticip_mpc" / "__init__.py").is_file():
        print(f"error: the anticip_mpc package is missing from {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # Single-threaded BLAS; numpy reads these only when it is first imported,
    # so the harness (which imports numpy) is imported after setting them.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    from harness import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT / "inputs")
    values = result["metrics"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metric names differ from BENCHMARK.json: {sorted(set(values))}")

    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {result['trajectories']} trajectories "
          f"in {result['passes']} passes, machine {json.dumps(result['machine'], sort_keys=True)}")
    for m in wanted:
        print(f"  {m['name']:<40} {_fmt(values[m['name']]):>12} {m['unit']:<8} ({m['better']} is better)")
    wall = result["wall"]
    print(f"  raw wall time: plan_s_mean {_fmt(wall['plan_s_mean'])} s, replan_ms_p90 "
          f"{_fmt(wall['replan_ms_p90'])} ms; speed scale p50 {_fmt(wall['speed_scale_p50'])} "
          f"(min {_fmt(wall['speed_scale_min'])}, max {_fmt(wall['speed_scale_max'])})")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print(f"  full result: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
