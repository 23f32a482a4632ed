"""Run one derivkit benchmark workload and print its metrics.

Usage, from the root of a derivkit checkout:

    python3 perfbench/run.py --workload diff_long --seed 0 --seconds 10 --trace 0

One client runs the workload's ops in a closed loop for a fixed number of
whole rounds: as many as last about ``--seconds`` at the speed the
benchmark was calibrated at, and at least three, so every run of a workload
holds the same ops.
Every op's output is checked. Times are scaled to the reference host speed
with the probe in ``speed.py``; the unscaled figures are printed and kept. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the run is traced and
the object holds the per-layer metrics instead, with the tracing overhead
measured against an untraced replay of the same rounds in a fresh process.
The exit code is 1 when any op failed and 2 when the checkout is unusable.
"""

from __future__ import annotations

import os
import time

_STARTED = time.perf_counter()

# BLAS/OpenMP pools are pinned to one thread before numpy is imported, in
# this process and in every process it starts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import REFERENCE_S, probe  # noqa: E402
from stats import tail_percentile  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Every kind of op runs at least this often in a run, so the median and the
#: tail percentile are each taken inside one kind's samples or between two
#: kinds' middle samples, not from a lone sample.
MIN_ROUNDS = 3
#: Set-up is measured this many times: this process, then fresh children
#: started together (one per core on a two-core machine).
SETUP_REPEATS = 3
#: No new round starts after this much wall time, so a run ends within 180 s
#: even on a host much slower than the one the rounds were calibrated on.
WALL_LIMIT_S = 120.0


def _import_library():
    """Import derivkit from this checkout's sources, never from an installed copy."""
    if not (SRC / "derivkit" / "__init__.py").is_file():
        print(f"error: no derivkit sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import derivkit
    if Path(derivkit.__file__).resolve().parent != (SRC / "derivkit").resolve():
        print(f"error: imported derivkit from {derivkit.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def _provenance(args) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():  # git would otherwise search above the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "machine": platform.machine(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def _children(args, *extras: tuple[str, ...]) -> list[dict]:
    """Run fresh copies of this script side by side; returns their result lines."""
    procs = [subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for extra in extras]
    results = []
    try:
        for proc, extra in zip(procs, extras):
            out, err = proc.communicate(timeout=170)
            if proc.returncode != 0:
                raise RuntimeError(f"child {' '.join(extra)} failed ({proc.returncode}): "
                                   f"{err.strip()[-500:]}")
            results.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return results


def _rounds(workload, seconds: float) -> int:
    """Whole rounds lasting about ``seconds`` at calibration speed, at least three."""
    return max(MIN_ROUNDS, round(seconds / workload.round_s))


def _run_rounds(workload, recorder, rounds: int):
    """Closed loop over whole rounds; returns one record per op."""
    from spans import OP
    from workloads import CheckFailed

    records, op_spans = [], []
    probes = [probe()]
    done = 0
    while done < rounds and time.perf_counter() - _STARTED < WALL_LIMIT_S:
        for op in workload.round:
            if recorder:
                recorder.active = True
                span = recorder.open(OP)
            t0 = time.perf_counter()
            error = None
            try:
                output = workload.run(op)
            except Exception:  # a failed op is counted, never dropped
                error = traceback.format_exc(limit=-3)
            latency = time.perf_counter() - t0
            if recorder:
                recorder.close(span, error=error is not None)
                recorder.active = False
                op_spans.append(span)
            probes.append(probe())
            value = None
            if error is None:
                try:
                    value = workload.check(op, output)
                except CheckFailed as exc:
                    error = str(exc)
                except Exception:  # unreadable output fails the op too
                    error = traceback.format_exc(limit=-3)
            records.append({"kind": op.kind, "raw_latency_s": latency, "nrmse": value,
                            "error": error})
        done += 1
    for i, record in enumerate(records):
        # the probes taken between the four ops before and the four after
        scale = REFERENCE_S / statistics.median(probes[max(0, i - 3):i + 5])
        record["latency_s"] = record["raw_latency_s"] * scale
        if recorder:
            recorder.spans[op_spans[i]].info = {"scale": scale}
    return records, done


def _timing(latencies) -> dict:
    pct, tail = tail_percentile(latencies)
    return {"ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "latency_tail_ms": (1e3 * tail, "ms"), "tail_percentile": (pct, "%")}


def _end_to_end(records, setup_s: float) -> tuple[dict, dict]:
    ok = [r["nrmse"] for r in records if r["error"] is None]
    timing = _timing([r["latency_s"] for r in records])
    pct = timing.pop("tail_percentile")[0]
    metrics = {
        "setup_s": (setup_s, "s"),
        **timing,
        "deriv_nrmse": (statistics.fmean(ok) if ok else float("nan"), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    unscaled = {name: value for name, (value, _) in
                _timing([r["raw_latency_s"] for r in records]).items()}
    detail = {"failed_ratio": sum(r["error"] is not None for r in records) / len(records),
              "latency_tail_percentile": pct, "latency_samples": len(records),
              "unscaled": unscaled}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds (untraced replay of a traced run)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_library()
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    ceilings = json.loads((BENCH_DIR / "ceilings.json").read_text())[args.workload]
    workdir = ROOT / ".perfbench" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    recorder = spans.Recorder() if args.trace else None
    if recorder:
        uninstall = spans.install(recorder)
        recorder.active = True
        setup_span = recorder.open(spans.SETUP)
    workload = WORKLOADS[args.workload](args.seed, workdir, ceilings)
    raw_setup_s = time.perf_counter() - _STARTED
    setup_scale = REFERENCE_S / statistics.median(probe() for _ in range(5))
    if recorder:
        recorder.close(setup_span, info={"scale": setup_scale})
        recorder.active = False
    if args.setup_only:
        print(json.dumps({"setup_s": raw_setup_s * setup_scale, "raw_setup_s": raw_setup_s}))
        return 0
    setups = [(raw_setup_s * setup_scale, raw_setup_s)]
    if not args.trace and args.rounds is None:
        setups += [(child["setup_s"], child["raw_setup_s"]) for child in
                   _children(args, *[("--setup-only",)] * (SETUP_REPEATS - 1))]

    rounds = args.rounds or _rounds(workload, args.seconds)
    records, done = _run_rounds(workload, recorder, rounds)
    metrics, detail = _end_to_end(records, statistics.median(scaled for scaled, _ in setups))
    failed = sum(r["error"] is not None for r in records)
    provenance = _provenance(args)
    detail["unscaled"]["setup_s"] = statistics.median(raw for _, raw in setups)
    provenance.update(rounds=done, ops=len(records), setup_samples=setups,
                      reference_probe_s=REFERENCE_S, **detail)

    if recorder:
        uninstall()
        layer = spans.layer_metrics(recorder.spans)
        (replay,) = _children(args, ("--rounds", str(done)))
        layer["trace.untraced_op_s"] = 1.0 / replay["metrics"]["ops_per_s"]["value"]
        layer["trace.overhead_s"] = layer["trace.traced_op_s"] - layer["trace.untraced_op_s"]
        spans_path = workdir / f"spans-seed{args.seed}.jsonl.gz"
        recorder.write(spans_path)
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        reported = {name: {"value": layer[name], "unit": units[name]} for name in units}
        provenance["spans"] = str(spans_path.relative_to(ROOT))
    else:
        reported = {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}

    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": reported}
    tag = "-replay" if args.rounds else ""
    (workdir / f"result-seed{args.seed}-trace{args.trace}{tag}.json").write_text(
        json.dumps({"result": result, "provenance": provenance,
                    "ops": records}, indent=1) + "\n")

    print(f"# provenance: {json.dumps(provenance)}")
    for record in records:
        if record["error"]:
            print(f"# FAILED {record['kind']}: {record['error']}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = (f"  (p{detail['latency_tail_percentile']:.1f} of "
                    f"{detail['latency_samples']} samples)")
        print(f"# {args.workload} {name} = {value:.6g} {unit}{note}")
    print(f"# {args.workload} failed_ratio = {detail['failed_ratio']:.6g} ratio "
          f"({failed} of {len(records)} ops)")
    print(f"# {args.workload} unscaled: {json.dumps(detail['unscaled'])}")
    if recorder:
        for name, entry in reported.items():
            print(f"# {args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
