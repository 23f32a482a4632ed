"""Record the per-(workload, method) deriv_nrmse ceilings in ceilings.json.

Runs one round of every workload for seeds 0..N-1 with no ceilings, and
sets each method's ceiling to MARGIN times the worst deriv_nrmse it reached.
Run it from the root of a checkout, only when a change to the benchmark or
an intended change in accuracy makes the old ceilings wrong:

    python3 perfbench/record_ceilings.py --seeds 10
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
MARGIN = 1.5


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    from workloads import WORKLOADS

    worst: dict[str, dict[str, float]] = {}
    scratch = BENCH_DIR.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, make in WORKLOADS.items():
            worst[name] = {}
            for seed in range(args.seeds):
                workload = make(seed, Path(tmp), {})
                for op in workload.round:
                    value = workload.check(op, workload.run(op))
                    worst[name][op.method] = max(worst[name].get(op.method, 0.0), value)
                print(name, seed, {m: round(v, 4) for m, v in worst[name].items()}, flush=True)
    ceilings = {name: {m: float(f"{MARGIN * v:.3g}") for m, v in sorted(by_method.items())}
                for name, by_method in worst.items()}
    (BENCH_DIR / "ceilings.json").write_text(json.dumps(ceilings, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
