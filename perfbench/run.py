"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload app-launch --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with spans recorded around every
call into the program and prints the per-layer metrics instead.  Lines
starting with ``info`` carry the tail percentile, its sample count, the
``sim_digest`` and any failures; the last line is the JSON result.
The program is imported from ``src/`` of this checkout; without it the
run exits with status 2 and prints no result.
"""

import argparse
import json
import os
import statistics
import sys
import traceback

from common import (
    TAIL_BEYOND,
    WORK,
    ProgramMissing,
    load_benchmark_spec,
    require_repro,
    tail,
)

def measure(workload: str, seed: int, seconds: int, trace: bool):
    """Run one workload; returns its raw summary."""
    span_path = os.path.join(WORK, f"spans-{workload}-seed{seed}.jsonl")
    if workload == "serve-warm":
        from serveload import run_serve

        return run_serve(seed, seconds, trace, span_path)
    from simload import WORKLOADS, run_sim

    return run_sim(WORKLOADS[workload], seed, seconds, trace, span_path)


def result_of(summary, spec, trace: bool):
    """``(info dict, result dict)`` from a raw run summary."""
    latencies = summary["latencies"]
    n, failed = summary["ops"], summary["failed"]
    info = {
        "ops": n,
        "failed": failed,
        "error_rate": failed / n,
        "sim_digest": summary["sim_digest"],
        "problems": summary["problems"][:5],
        "host_speed_scale": summary["speed_scale"],
        "raw_setup_s": summary["raw_setup_s"],
        "setup_reps_s": summary["setup_reps_s"],
    }
    if latencies:
        pct, tail_value, beyond = tail(summary["tail_latencies"])
        p50 = statistics.median(latencies)
        info.update({"tail_percentile": f"p{pct}", "tail_beyond": beyond,
                     "samples": len(latencies),
                     "raw_p50_ms": 1000.0 * statistics.median(
                         summary["raw_latencies"]),
                     "tail_defect": (beyond < TAIL_BEYOND
                                     or p50 == tail_value)})
    if trace:
        layers = summary["layers"]
        values = {m["name"]: layers.get(m["name"], 0.0)
                  for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "ops_per_s": (len(latencies) / summary["busy_s"]
                          if summary["busy_s"] else 0.0),
            "op_p50_ms": 1000.0 * p50 if latencies else 0.0,
            "op_tail_ms": 1000.0 * tail_value if latencies else 0.0,
            "peak_rss_mb": summary["peak_rss_mb"],
            "setup_s": summary["setup_s"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    return info, {"correct": failed == 0, "attempted": n, "failed": failed,
                  "metrics": metrics}


def main(argv=None) -> int:
    spec = load_benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        require_repro()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        summary = measure(args.workload, args.seed, args.seconds, trace)
    except Exception:
        traceback.print_exc()
        return 1
    info, result = result_of(summary, spec, trace)
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, **info}
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
