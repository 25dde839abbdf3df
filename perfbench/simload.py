"""The three simulation workloads: app-launch, zygote-churn, ipc-victima.

Each runs in this one process on one thread.  Set-up boots the Android
runtime :data:`BOOT_REPS` times (the median boot is reported) and warms
the last runtime up; the measured phase then runs a fixed number of
equal-sized operations on it, so every run with one seed simulates
exactly the same events and ``sim_digest`` can pin them.  Work counts
are read from the simulator's own counters between operations, outside
the timed region.
"""

import gc
import random
import statistics
import time
from collections import deque
from dataclasses import asdict, fields
from typing import Any, Dict, List, Optional

from common import (
    NULL_SPANS,
    TRAILING_REFS,
    HostSpeed,
    cpu_reference,
    Spans,
    digest,
    op_span_summary,
    peak_rss_mb_self,
    setup_seconds,
    span_layer_ms,
    tail_scaled,
    timed_setup,
    trace_overhead_pct,
)

#: Boots per set-up; ``setup_s`` takes their median.
BOOT_REPS = 4
#: The kernel configuration every workload runs (the paper's design).
CONFIG = "shared-ptp-tlb"
#: The zygote is always booted from this seed, so set-up does the same
#: work for every benchmark seed; the seed varies only operation inputs.
BOOT_SEED = 7

#: Span name -> per-layer metric, for every simulation workload.
LAYER_SPANS = {
    "kernel.fork": "kernel.fork_ms",
    "android.map_libs": "android.map_libs_ms",
    "workloads.footprint": "workloads.footprint_ms",
    "workloads.tracegen": "workloads.tracegen_ms",
    "kernel.run": "kernel.run_ms",
    "kernel.exit": "kernel.exit_ms",
    "android.binder": "android.binder_ms",
}


def observe(kernel) -> Dict[str, float]:
    """Flat snapshot of every cumulative simulated statistic."""
    from repro.kernel.counters import Counters

    snap: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        snap[key] = snap.get(key, 0) + value

    counters = kernel.counters
    for spec in fields(Counters):
        value = getattr(counters, spec.name)
        if isinstance(value, dict):
            for key, count in value.items():
                add(f"counters.{spec.name}.{key}", count)
        else:
            add(f"counters.{spec.name}", value)
    for core in kernel.platform.cores:
        for key, value in vars(core.stats).items():
            add(f"cpu.{key}", value)
        for name, tlb in (("main_tlb", core.main_tlb),
                          ("micro_itlb", core.micro_itlb),
                          ("micro_dtlb", core.micro_dtlb)):
            add(f"{name}.hits", tlb.stats.hits)
            add(f"{name}.misses", tlb.stats.misses)
        for name, cache in (("l1i", core.caches.l1i),
                            ("l1d", core.caches.l1d)):
            add(f"{name}.hits", cache.stats.hits)
            add(f"{name}.misses", cache.stats.misses)
    l2 = kernel.platform.shared_l2.stats
    add("l2.hits", l2.hits)
    add("l2.misses", l2.misses)
    for key, value in kernel.policy.event_counts().items():
        add(f"policy.{key}", value)
    return snap


def delta(after: Dict[str, float],
          before: Dict[str, float]) -> Dict[str, float]:
    """Per-operation change of every statistic (zeros dropped)."""
    out = {}
    for key, value in after.items():
        change = value - before.get(key, 0)
        if change:
            out[key] = change
    return out


# ---------------------------------------------------------------------------
# Workloads.  Each provides boot() -> runtime, prepare(runtime, seed, n)
# -> state, warmup(state), op(state, index, spans) -> (seconds, record)
# and check(record, delta) -> problem or None.
# ---------------------------------------------------------------------------

class _Workload:
    #: The translation policy the runtime boots with.
    policy = "baseline"

    def boot(self):
        from repro.experiments.common import build_runtime

        return build_runtime(CONFIG, seed=BOOT_SEED, policy=self.policy)


class AppLaunch(_Workload):
    """Closed loop of helloworld launches on one booted runtime."""

    name = "app-launch"
    #: Operations per second of ``--seconds`` (one launch is ~0.33 s on
    #: a 2-vCPU x86-64 container), fixing the work a run does.
    ops_per_second = 3.0
    #: Same as the paper's launch experiment (repro.experiments.launch).
    base_burst = 5000
    #: Host-speed references timed before each (long) operation, and
    #: which (see common.HostSpeed).
    refs_per_op = 2
    mixed_reference = True

    def prepare(self, runtime, seed: int, n: int) -> Dict[str, Any]:
        from repro.common.rng import DeterministicRng

        # The footprint is fixed (relaunching an app touches the same
        # pages); the trace's round seed is the generated input.
        base = random.Random(f"{seed}:app-launch").randrange(1 << 24)
        return {"runtime": runtime,
                "rng": DeterministicRng(100, "perfbench-launch"),
                "round_seeds": [base + index for index in range(n + 1)]}

    def warmup(self, state) -> None:
        self._launch(state, state["round_seeds"][0], 0, NULL_SPANS)

    def op(self, state, index: int, spans):
        return self._launch(state, state["round_seeds"][index + 1],
                            index, spans)

    def _launch(self, state, round_seed: int, index: int, spans):
        """``repro.workloads.session.launch_app``, one call per layer."""
        from repro.workloads.footprints import build_footprint
        from repro.workloads.profiles import HELLOWORLD
        from repro.workloads.session import (
            LaunchMeasurement,
            _map_own_libraries,
        )
        from repro.workloads.tracegen import build_app_trace

        runtime, rng = state["runtime"], state["rng"]
        kernel = runtime.kernel
        started = time.perf_counter()
        with spans.span("op", index):
            with spans.span("kernel.fork", index):
                child, _ = runtime.fork_app(HELLOWORLD.name)
            with spans.span("android.map_libs", index):
                own = _map_own_libraries(runtime, child, HELLOWORLD)
            with spans.span("workloads.footprint", index):
                footprint = build_footprint(
                    runtime, HELLOWORLD, rng.fork("footprint"),
                    own_libraries=own)
            with spans.span("workloads.tracegen", index):
                trace = build_app_trace(
                    runtime, footprint, rng.fork(f"trace-{round_seed}"),
                    revisit_passes=1, base_burst=self.base_burst)
            with spans.span("kernel.run", index):
                kernel.run(child, trace, 0)
        elapsed = time.perf_counter() - started
        # The measurement reads the child's statistics; it is the
        # benchmark's bookkeeping, not part of the operation.
        record = asdict(LaunchMeasurement.from_task(kernel, child))
        started = time.perf_counter()
        with spans.span("op", index):
            with spans.span("kernel.exit", index):
                kernel.exit_task(child)
        return elapsed + time.perf_counter() - started, record

    @staticmethod
    def check(record, change) -> Optional[str]:
        if change.get("counters.forks") != 1:
            return "launch did not fork exactly once"
        if record["instructions"] <= 0 or record["total_faults"] <= 0:
            return "launch executed no instructions or took no faults"
        return None


class ZygoteChurn(_Workload):
    """Fork from the zygote, a short trace, and exit of the oldest child."""

    name = "zygote-churn"
    ops_per_second = 60.0
    refs_per_op = 1
    mixed_reference = False
    #: Children alive at once; the oldest exits when the pool is full.
    pool = 8
    hot_fetches = 40
    heap_accesses = 8
    #: Fetches draw from this many of the zygote's hottest code pages.
    hot_prefix = 600

    def prepare(self, runtime, seed: int, n: int) -> Dict[str, Any]:
        from repro.common.constants import PAGE_SIZE
        from repro.common.events import ifetch, load, store

        draw = random.Random(f"{seed}:zygote-churn")
        hot = runtime.code_hot_ranking[:self.hot_prefix]
        heap = runtime.java_heap
        heap_pages = (heap.end - heap.start) // PAGE_SIZE
        traces = []
        for _ in range(n + self.pool):
            events = [ifetch(addr) for addr in
                      draw.sample(hot, self.hot_fetches)]
            for _ in range(self.heap_accesses):
                addr = heap.start + draw.randrange(heap_pages) * PAGE_SIZE
                events.append(store(addr) if draw.random() < 0.5
                              else load(addr))
            draw.shuffle(events)
            traces.append(events)
        return {"runtime": runtime, "traces": traces, "alive": deque()}

    def warmup(self, state) -> None:
        # Fill the pool so every measured operation also exits a child.
        for number in range(self.pool):
            self._churn(state, number, number, NULL_SPANS)

    def op(self, state, index: int, spans):
        return self._churn(state, self.pool + index, index, spans)

    def _churn(self, state, number: int, index: int, spans):
        """Child ``number`` (its trace and name); ``index`` is the op id."""
        runtime = state["runtime"]
        kernel = runtime.kernel
        alive = state["alive"]
        trace = state["traces"][number]
        started = time.perf_counter()
        with spans.span("op", index):
            with spans.span("kernel.fork", index):
                child, _ = runtime.fork_app(f"churn-{number}")
            with spans.span("kernel.run", index):
                kernel.run(child, trace, 0)
            alive.append(child)
            if len(alive) > self.pool:
                with spans.span("kernel.exit", index):
                    kernel.exit_task(alive.popleft())
        elapsed = time.perf_counter() - started
        stats = child.stats
        return elapsed, {"instructions": stats.instructions,
                         "cycles": stats.total_cycles,
                         "faults": child.counters.total_faults}

    @staticmethod
    def check(record, change) -> Optional[str]:
        if change.get("counters.forks") != 1:
            return "churn did not fork exactly once"
        if record["instructions"] <= 0:
            return "churn child executed no instructions"
        return None


class IpcVictima(_Workload):
    """Binder ping-pong under victima, whole noise periods per op."""

    name = "ipc-victima"
    policy = "victima"
    #: Three noise periods (12 invocations, ~50 ms) per operation: long
    #: enough that a short host stall is a small share of one.
    periods_per_op = 3
    ops_per_second = 20.0
    refs_per_op = 2
    mixed_reference = False

    def prepare(self, runtime, seed: int, n: int) -> Dict[str, Any]:
        from repro.android.binder import BinderBenchmark, BinderConfig

        # One run() is a whole number of noise periods, so every op does
        # the same work.
        invocations = self.periods_per_op * BinderConfig().noise_every
        bench = BinderBenchmark(
            runtime,
            BinderConfig(invocations=invocations, warmup_invocations=0),
            seed=seed)
        return {"runtime": runtime, "bench": bench,
                "invocations": invocations}

    def warmup(self, state) -> None:
        state["bench"].setup()
        for _ in range(3):
            state["bench"].run()

    def op(self, state, index: int, spans):
        started = time.perf_counter()
        with spans.span("op", index):
            with spans.span("android.binder", index):
                result = state["bench"].run()
        return time.perf_counter() - started, asdict(result)

    @staticmethod
    def check(record, change) -> Optional[str]:
        if record["context_switches"] <= 0:
            return "binder period made no context switches"
        if record["client"]["instructions"] <= 0 \
                or record["server"]["instructions"] <= 0:
            return "binder period executed no instructions"
        if change.get("policy.parked", 0) <= 0:
            return "victima parked no TLB victims"
        return None


WORKLOADS = {w.name: w for w in (AppLaunch(), ZygoteChurn(), IpcVictima())}


def ops_for(workload, seconds: int) -> int:
    """The fixed operation count of one run."""
    return max(1, round(seconds * workload.ops_per_second))


# ---------------------------------------------------------------------------
# One run of a workload.
# ---------------------------------------------------------------------------

def run_sim(workload, seed: int, seconds: int, trace: bool,
            span_path: str) -> Dict[str, Any]:
    """Set up, measure, verify; returns the raw run summary."""
    from repro.check import verify_kernel
    from repro.metrics import collect

    boots: List[float] = []
    runtime = None
    for _ in range(BOOT_REPS):
        runtime = None  # Free the previous boot before the next one.
        gc.collect()
        runtime, boot_s = timed_setup(workload.boot)
        boots.append(boot_s)
    n = ops_for(workload, seconds)
    state = workload.prepare(runtime, seed, n)
    _, warmup_s = timed_setup(lambda: workload.warmup(state))
    kernel = runtime.kernel
    speed = HostSpeed(cpu_reference(workload.mixed_reference))

    spans = Spans()
    timings: List[Any] = []  # (start stamp, raw seconds, traced)
    records: List[Any] = []
    problems: List[str] = []
    failed = 0
    totals: Dict[str, float] = {}
    before = observe(kernel)
    for index in range(n):
        # The traced run alternates traced and untraced operations so
        # their difference is the tracing overhead on the same kernel.
        traced = trace and index % 2 == 0
        speed.sample(workload.refs_per_op)
        stamp = time.perf_counter()
        try:
            elapsed, record = workload.op(
                state, index, spans if traced else NULL_SPANS)
        except Exception as exc:  # Counted, and the run goes on.
            failed += 1
            problems.append(f"op {index}: {type(exc).__name__}: {exc}")
            records.append({"error": type(exc).__name__})
            before = observe(kernel)
            continue
        after = observe(kernel)
        change = delta(after, before)
        before = after
        problem = workload.check(record, change)
        if problem is not None:
            failed += 1
            problems.append(f"op {index}: {problem}")
        timings.append((index, stamp, elapsed, traced))
        records.append({"op": record, "delta": change})
        for key, value in change.items():
            totals[key] = totals.get(key, 0) + value
    speed.sample(TRAILING_REFS)

    try:
        verify_kernel(kernel, site="perfbench")
    except Exception as exc:
        # A broken kernel invalidates every operation of the run.
        failed = n
        problems.append(f"verify_kernel: {type(exc).__name__}: {exc}")

    scales = {index: speed.scale_at(stamp + elapsed / 2)
              for index, stamp, elapsed, _ in timings}
    latencies = [elapsed * scales[index]
                 for index, _, elapsed, _ in timings]
    raw_latencies = [elapsed for _, _, elapsed, _ in timings]
    summary: Dict[str, Any] = {
        "ops": n,
        "failed": failed,
        "problems": problems,
        "latencies": latencies,
        "raw_latencies": raw_latencies,
        "tail_latencies": tail_scaled(raw_latencies, speed),
        "busy_s": sum(latencies),
        **setup_seconds(speed.median_scale(), boots, warmup_s),
        "peak_rss_mb": peak_rss_mb_self(),
        "sim_digest": digest(records),
        "speed_scale": speed.median_scale(),
    }
    if trace:
        traced = [elapsed * scales[index]
                  for index, _, elapsed, was in timings if was]
        untraced = [elapsed * scales[index]
                    for index, _, elapsed, was in timings if not was]
        done = len(latencies) or 1
        layers = {metric: 0.0 for metric in LAYER_SPANS.values()}
        layers.update(span_layer_ms(spans, len(traced), LAYER_SPANS,
                                    scales))
        layers.update(op_span_summary(spans, len(traced), scales))
        layers["bench.trace_overhead_pct"] = trace_overhead_pct(
            traced, untraced)
        layers["android.boot_s"] = statistics.median(
            summary["setup_reps_s"])
        layers.update(layer_counts(totals, done, sum(latencies), kernel,
                                   collect))
        # ipc-victima drives the engine through BinderBenchmark.run,
        # whose body is Kernel.run plus the binder driver's kernel path,
        # so that span stands for the engine there.
        binder_ms = layers.pop("android.binder_ms")
        if binder_ms:
            layers["kernel.run_ms"] = binder_ms
        layers["android.binder_invocation_ms"] = (
            binder_ms / state.get("invocations", 1))
        events = layers["sim.events"]
        layers["kernel.run_us_per_event"] = (
            1000.0 * layers["kernel.run_ms"] / events if events else 0.0)
        summary["layers"] = layers
        spans.dump(span_path)
    return summary


def _rate(misses: float, hits: float) -> float:
    total = misses + hits
    return misses / total if total else 0.0


def layer_counts(totals: Dict[str, float], ops: int, busy_s: float,
                 kernel, collect) -> Dict[str, float]:
    """Per-operation work counts and ratios from the summed deltas."""
    t = totals.get
    translations = sum(t(f"{side}.{kind}", 0)
                       for side in ("micro_itlb", "micro_dtlb")
                       for kind in ("hits", "misses"))
    parked = t("policy.parked", 0)
    revived = t("policy.revived", 0)
    return {
        "sim.events": translations / ops,
        "sim.minstr": t("cpu.instructions", 0) / ops / 1e6,
        "sim.mcycles": t("cpu.total_cycles", 0) / ops / 1e6,
        "sim.minstr_per_s": (t("cpu.instructions", 0) / 1e6 / busy_s
                             if busy_s else 0.0),
        "hw.main_tlb.miss_rate": _rate(t("main_tlb.misses", 0),
                                       t("main_tlb.hits", 0)),
        "hw.micro_tlb.miss_rate": _rate(
            t("micro_itlb.misses", 0) + t("micro_dtlb.misses", 0),
            t("micro_itlb.hits", 0) + t("micro_dtlb.hits", 0)),
        "hw.l1i.miss_rate": _rate(t("l1i.misses", 0), t("l1i.hits", 0)),
        "hw.l2.miss_rate": _rate(t("l2.misses", 0), t("l2.hits", 0)),
        "kernel.faults.cold_file": t("counters.cold_file_faults", 0) / ops,
        "kernel.faults.anon": t("counters.anon_faults", 0) / ops,
        "kernel.faults.cow": t("counters.cow_faults", 0) / ops,
        "kernel.faults.soft": t("counters.soft_faults", 0) / ops,
        "kernel.faults.domain": t("counters.domain_faults", 0) / ops,
        "core.ptp_share": t("counters.ptp_share_events", 0) / ops,
        "core.ptp_unshare": t("counters.ptp_unshare_events", 0) / ops,
        "core.ptes_copied": (t("counters.ptes_copied_fork", 0)
                             + t("counters.ptes_copied_unshare", 0)) / ops,
        "core.sharing_ratio": collect(kernel, 0)["satr_ptp_sharing_ratio"],
        "kernel.context_switches": t("counters.context_switches", 0) / ops,
        "policy.victima.parked": parked / ops,
        "policy.victima.revived": revived / ops,
        "policy.victima.revive_ratio": revived / parked if parked else 0.0,
    }
