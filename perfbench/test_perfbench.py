"""Self-tests of the benchmark.

Every workload runs at a tiny size (``--seconds 1``), traced and
untraced, and must print exactly the metric names and units that
``BENCHMARK.json`` declares.  Also covered: the tail rule, the tail and
set-up scaling, span self times, ``sim_digest`` repeatability, the
composed launch operation against ``launch_app``, the steadiness judge,
and the refusal to run without the program.  Run from the checkout root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import functools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    NULL_SPANS,
    REF_TAIL_FACTOR,
    ROOT,
    HostSpeed,
    Spans,
    load_benchmark_spec,
    require_repro,
    setup_seconds,
    tail,
    tail_scaled,
)

SPEC = load_benchmark_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _invoke(cwd: str, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@functools.lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int):
    """``(info, result)`` of one tiny run (cached across tests)."""
    out = _invoke(ROOT, workload, seed, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[-2].startswith("info ")
    return json.loads(lines[-2][len("info "):]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_benchmark_json(workload, trace):
    info, result = run(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["error_rate"] == 0.0
    assert len(info["sim_digest"]) == 64


def test_traced_run_reports_its_layers():
    _, launch = run("app-launch", 1, 1)
    _, serve = run("serve-warm", 1, 1)
    values = {name: m["value"] for name, m in launch["metrics"].items()}
    for name in ("android.boot_s", "kernel.run_ms", "kernel.fork_ms",
                 "kernel.exit_ms", "workloads.footprint_ms",
                 "workloads.tracegen_ms", "sim.events",
                 "hw.main_tlb.miss_rate"):
        assert values[name] > 0, name
    assert values["serve.request_ms"] == 0.0
    assert values["bench.span_coverage"] > 0.95
    served = {name: m["value"] for name, m in serve["metrics"].items()}
    assert served["serve.request_ms"] > 0
    assert served["serve.cache_hits"] > 0
    assert served["serve.cache_misses"] == 0
    assert served["kernel.run_ms"] == 0.0


def test_sim_digest_repeats_for_a_seed_and_ignores_tracing():
    plain = run("zygote-churn", 1, 0)[0]["sim_digest"]
    traced = run("zygote-churn", 1, 1)[0]["sim_digest"]
    other_seed = run("zygote-churn", 2, 0)[0]["sim_digest"]
    assert plain == traced
    assert plain != other_seed


def test_tail_rule():
    assert tail(list(range(1, 31))) == (66, 20, 10)
    assert tail(list(range(1, 1001))) == (99, 990, 10)
    pct, value, beyond = tail([5.0] * 10)
    assert (pct, value, beyond) == (100, 5.0, 0)


def test_tail_and_setup_scaling():
    # Nine references at their nominal 1 ms and one stalled at 4 ms.
    times = iter([0.001] * 9 + [0.004])
    speed = HostSpeed(lambda: next(times), nominal=0.001)
    speed.sample(10)
    assert speed.tail_scale(90) == pytest.approx(REF_TAIL_FACTOR)
    assert speed.tail_scale(100) == pytest.approx(REF_TAIL_FACTOR / 4)
    # 20 operations: the tail is p50, so the references' p50 scales it.
    assert tail_scaled([0.002] * 20, speed) == pytest.approx(
        [0.002 * REF_TAIL_FACTOR] * 20)
    # Set-up: the median step plus the warm-up, times sqrt(scale).
    assert setup_seconds(4.0, [1.0, 3.0, 2.0], 0.5) == {
        "setup_s": 5.0, "raw_setup_s": 2.5,
        "setup_reps_s": [2.0, 6.0, 4.0]}


def test_span_self_times_subtract_children_and_scale():
    spans = Spans()
    spans.records = [["op", 0.0, 10.0, -1, 0],
                     ["kernel.fork", 1.0, 4.0, 0, 0],
                     ["kernel.run", 5.0, 9.0, 0, 0]]
    assert spans.self_times({0: 1.0}) == {
        "op": 3.0, "kernel.fork": 3.0, "kernel.run": 4.0}
    assert spans.self_times({0: 2.0})["op"] == 6.0


def test_composed_launch_equals_launch_app():
    require_repro()
    from repro.common.rng import DeterministicRng
    from repro.workloads.profiles import HELLOWORLD
    from repro.workloads.session import launch_app

    from simload import AppLaunch

    workload = AppLaunch()
    state = workload.prepare(workload.boot(), seed=3, n=1)
    _, record = workload.op(state, 0, NULL_SPANS)
    session = launch_app(
        workload.boot(), HELLOWORLD, DeterministicRng(100, "perfbench-launch"),
        revisit_passes=1, base_burst=workload.base_burst,
        round_seed=state["round_seeds"][1])
    assert asdict(session.launch) == record


def test_steadiness_judge_flags_defects(capsys):
    from steady import judge

    def result(p50, tail_ms, setup_s=1.0):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        metrics["op_p50_ms"]["value"] = p50
        metrics["op_tail_ms"]["value"] = tail_ms
        metrics["setup_s"]["value"] = setup_s
        return {"correct": True, "failed": 0, "metrics": metrics}

    runs = [({"seed": 1, "sim_digest": "a", "tail_beyond": 10,
              "tail_percentile": "p90", "problems": []}, result(1.0, 2.0)),
            ({"seed": 1, "sim_digest": "b", "tail_beyond": 10,
              "tail_percentile": "p90", "problems": []}, result(1.0, 2.0)),
            ({"seed": 2, "sim_digest": "c", "tail_beyond": 3,
              "tail_percentile": "p100", "problems": []}, result(1.0, 1.0))]
    flags = judge("w", runs, SPEC)
    assert any("sim_digest differs" in flag for flag in flags)
    assert any("seed 2: tail defect" in flag for flag in flags)
    assert not any("seed 1: tail defect" in flag for flag in flags)
    assert not any("setup_s" in flag for flag in flags)

    # Set-up is judged against its bound like every other metric.
    runs = [({"seed": seed, "sim_digest": "a", "tail_beyond": 10,
              "tail_percentile": "p90", "problems": []},
             result(1.0, 2.0, setup_s=float(seed)))
            for seed in (1, 2, 3)]
    flags = judge("w", runs, SPEC)
    assert any(flag.startswith("w: setup_s spread") for flag in flags)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = _invoke(str(tmp_path), "app-launch", 1, 0)
    assert out.returncode != 0
    assert "{" not in out.stdout
