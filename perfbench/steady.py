"""Steadiness check: run workloads repeatedly and compare spreads to bounds.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --seeds 11 12 13 14 15 16 17 18 19 20 \
        [--workload app-launch ...] [--seconds N]

For each workload and end-to-end metric this prints the median over
the runs, the quartiles (``statistics.quantiles(values, n=4)``), the
quartile spread as a share of the median, the metric's bound and a
verdict: ``steady`` below a third of the bound, ``ok`` within it,
``NOISY`` beyond it.  It also flags the tail defect (fewer than ten samples beyond the tail,
or ``op_p50_ms == op_tail_ms``), failed operations, and any seed whose
``sim_digest`` differs between runs.  Exit status 1 when anything is
flagged.
"""

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

from common import ROOT, TAIL_BEYOND, load_benchmark_spec, quartile_spread


def run_once(workload: str, seed: int, seconds: int):
    """One ``run.py`` invocation: ``(info dict, result dict)``."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    info = next(json.loads(line[len("info "):]) for line in lines
                if line.startswith("info "))
    return info, json.loads(lines[-1])


def judge(workload: str, runs, spec) -> List[str]:
    """Print the table for one workload; returns its flags."""
    flags: List[str] = []
    print(f"== {workload}: {len(runs)} runs")
    print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [result["metrics"][name]["value"] for _, result in runs]
        mid, q1, q3 = quartile_spread(values)
        spread = (q3 - q1) / mid if mid else float("inf")
        if spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "ok"
        else:
            verdict = "NOISY"
            flags.append(f"{workload}: {name} spread {spread:.3f} > "
                         f"bound {bound}")
        print(f"  {name:<14}{mid:>12.4f}{q1:>12.4f}{q3:>12.4f}"
              f"{spread:>9.3f}{bound:>8.2f}  {verdict}")
    digests: Dict[int, set] = {}
    for info, result in runs:
        digests.setdefault(info["seed"], set()).add(info["sim_digest"])
        metrics = result["metrics"]
        if (info.get("tail_beyond", 0) < TAIL_BEYOND
                or metrics["op_p50_ms"]["value"]
                == metrics["op_tail_ms"]["value"]):
            flags.append(f"{workload} seed {info['seed']}: tail defect "
                         f"({info.get('tail_percentile')}, "
                         f"{info.get('tail_beyond')} beyond)")
        if result["failed"] or not result["correct"]:
            flags.append(f"{workload} seed {info['seed']}: "
                         f"{result['failed']} failed: {info['problems']}")
    for seed, seen in sorted(digests.items()):
        if len(seen) > 1:
            flags.append(f"{workload} seed {seed}: sim_digest differs "
                         f"across runs")
    tails = sorted({info.get("tail_percentile") for info, _ in runs})
    stable = all(len(seen) == 1 for seen in digests.values())
    print(f"  tail percentiles {', '.join(map(str, tails))}; "
          f"digests {'stable' if stable else 'UNSTABLE'}")
    return flags


def main(argv=None) -> int:
    spec = load_benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two --seeds")
    flags: List[str] = []
    for workload in args.workload or names:
        runs = [run_once(workload, seed, args.seconds)
                for seed in args.seeds]
        flags.extend(judge(workload, runs, spec))
    for flag in flags:
        print(f"FLAG {flag}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
