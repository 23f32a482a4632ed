"""Run every workload on several seeds and record medians, quartiles and spreads.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Each run is a separate ``run.py`` process with the run length from
BENCHMARK.json, one after another. For every (workload, end-to-end metric)
the output holds the ten values, their median and quartiles, and the
quartile spread as a share of the median next to a third of the metric's
bound. With ``--traced`` one traced run per workload (seed 0) adds the
per-layer breakdown.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import quartile_spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-800:]}")
    provenance = json.loads(next(line for line in lines if line.startswith("# provenance: "))
                            .removeprefix("# provenance: "))
    provenance["wall_s"] = time.perf_counter() - started
    return json.loads(lines[-1]), provenance


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        entry = {"seeds": [], "provenance": None, "end_to_end": {}}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, provenance = _run(workload, seed, spec["run_seconds"], 0)
            entry["seeds"].append({"seed": seed, "attempted": result["attempted"],
                                   "failed": result["failed"],
                                   "latency_tail_percentile":
                                       provenance["latency_tail_percentile"],
                                   "latency_samples": provenance["latency_samples"],
                                   "wall_s": provenance["wall_s"]})
            entry["provenance"] = {k: provenance[k] for k in
                                   ("commit", "nproc", "python", "numpy", "scipy",
                                    "blas_threads")}
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, f"wall {provenance['wall_s']:.1f} s",
                  {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = quartile_spread(vals)
            entry["end_to_end"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name], "within_third_of_bound": spread < bounds[name] / 3,
                "values": vals}
            print(f"  {workload} {name}: median {median:.6g} spread {spread:.4f} "
                  f"(bound/3 {bounds[name] / 3:.4f})", flush=True)
        if args.traced:
            result, provenance = _run(workload, 0, spec["run_seconds"], 1)
            entry["per_layer_seed0"] = {k: v["value"] for k, v in result["metrics"].items()}
        report["workloads"][workload] = entry
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
