"""Shared pieces of the benchmark: locating the program, order
statistics, the simulated-statistics digest, and the span recorder.

Everything here is the benchmark's own code.  The program under test is
the ``repro`` package in ``src/`` of the checkout this file sits in; it
is imported from there and nowhere else.
"""

import bisect
import gc
import hashlib
import json
import math
import os
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: The checkout root (this file lives in ``<root>/perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for server cache directories and span dumps.
WORK = os.path.join(ROOT, "perfbench", "_work")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


class ProgramMissing(RuntimeError):
    """The checkout holds no buildable program to measure."""


def require_repro():
    """Import ``repro`` from this checkout's ``src/``; never from elsewhere."""
    init = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(init):
        raise ProgramMissing(f"no program at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) \
            != SRC:
        raise ProgramMissing(
            f"repro imported from {repro.__file__}, not from {SRC}")
    return repro


def load_benchmark_spec() -> Dict[str, Any]:
    """The checkout's ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Order statistics.
# ---------------------------------------------------------------------------

def tail(values: Sequence[float]) -> Tuple[int, float, int]:
    """``(percentile, value, samples beyond)`` of the reported tail.

    The tail is the highest whole percentile whose nearest-rank value
    has at least :data:`TAIL_BEYOND` samples above it.  With too few
    samples for any such percentile the maximum is returned with the
    (short) count beyond it, and the caller flags the run.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1], 0
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1], n - rank


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(median, q1, q3)`` as ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def digest(records: List[Any]) -> str:
    """Canonical SHA-256 over JSON-safe per-operation records."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb_self() -> float:
    """Peak resident set of this process, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# Host speed.
#
# On a shared VM host speed drifts by up to 2x between runs and within
# one (neighbouring tenants), while a run's operations do fixed work.
# So every timing is scaled by a reference -- the benchmark's own fixed
# code, timed right beside the operations -- to the time it would have
# taken at the speed where the reference takes its nominal time.  The
# references must never change: they define the unit of every time.
# ---------------------------------------------------------------------------

#: The CPU reference's time at the nominal host speed.
REF_NOMINAL_S = 0.0025
#: References (nearest in time) whose median sets an operation's scale.
REF_WINDOW = 9
#: The references' tail at the nominal host speed, as a multiple of
#: their nominal time: on a quiet host their p90-p98 sat at 1.09-1.14
#: times their median.
REF_TAIL_FACTOR = 1.1
#: Keys the reference kernels draw from.
REF_KEYS = 1 << 15


class _Entry:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0


def reference_kernel(table: Dict[int, _Entry], steps: int,
                     keys: int) -> int:
    """Fixed interpreter work: an 8-way LRU over a pseudo-random stream
    of ``keys`` keys, counting each key in ``table`` (creating entries
    it lacks) -- the simulator's kind of work."""
    sets: List[List[int]] = [[] for _ in range(256)]
    x = 12345
    hits = 0
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x >> 4) % keys
        lines = sets[key & 255]
        if key in lines:
            lines.remove(key)
            lines.insert(0, key)
            hits += 1
        else:
            lines.insert(0, key)
            if len(lines) > 8:
                lines.pop()
        entry = table.get(key)
        if entry is None:
            entry = table[key] = _Entry(key)
        entry.hits += 1
    return hits


def cpu_reference(mixed: bool) -> Callable[[], float]:
    """A timed CPU reference: seconds per call.

    Workloads slow down differently when the host does, so there are
    two reference kernels.  The allocating one builds a fresh dict of
    small objects on every call (cache-resident); the table one walks a
    prebuilt few-MB table (cache-missing).  The reference is the first
    alone, or with ``mixed`` the geometric mean of both.  Measured on
    6-8 back-to-back runs each (the quartile spread of the run medians
    of operation time): allocating alone took zygote-churn from 0.11
    raw to 0.008 and ipc-victima from 0.32 to 0.06, where the table
    kernel gave 0.03 and 0.12; ``mixed`` took app-launch from 0.19 raw
    to 0.024, where either kernel alone gave 0.06-0.08.
    """
    table = {key: _Entry(key) for key in range(REF_KEYS)} if mixed else None

    def probe() -> float:
        # With the collector off, the program's heap (whose size sets
        # the cost of a collection) cannot slow the reference down.
        gc.disable()
        try:
            started = time.perf_counter()
            reference_kernel({}, 2000, REF_KEYS >> 1)
            alloc_s = time.perf_counter() - started
            if table is None:
                return alloc_s
            started = time.perf_counter()
            reference_kernel(table, 2500, REF_KEYS)
            return math.sqrt(alloc_s * (time.perf_counter() - started))
        finally:
            gc.enable()

    return probe


class HostSpeed:
    """Reference timings, stamped, and the scale they imply over time.

    ``probe`` times one reference and returns its seconds; ``nominal``
    is its time at the nominal host speed, which fixes the unit.
    """

    def __init__(self, probe: Callable[[], float],
                 nominal: float = REF_NOMINAL_S) -> None:
        self._probe = probe
        self._nominal = nominal
        self._stamps: List[float] = []
        self._refs: List[float] = []

    def sample(self, count: int = 1) -> None:
        """Take ``count`` reference timings."""
        for _ in range(count):
            stamp = time.perf_counter()
            self._refs.append(self._probe())
            self._stamps.append(stamp)

    def scale_at(self, stamp: float) -> float:
        """Nominal-over-measured reference time near ``stamp``."""
        n = len(self._refs)
        if n == 0:
            raise RuntimeError("no reference timings taken")
        centre = bisect.bisect_left(self._stamps, stamp)
        low = max(0, min(centre - REF_WINDOW // 2, n - REF_WINDOW))
        window = self._refs[low:low + REF_WINDOW]
        return self._nominal / statistics.median(window)

    def median_scale(self) -> float:
        return self._nominal / statistics.median(self._refs)

    def tail_scale(self, pct: int) -> float:
        """The scale of a ``pct``-th percentile: the references' own
        nearest-rank ``pct``-th percentile against its nominal time."""
        ordered = sorted(self._refs)
        rank = max(1, math.ceil(pct * len(ordered) / 100))
        return self._nominal * REF_TAIL_FACTOR / ordered[rank - 1]


def tail_scaled(raw: List[float], speed: HostSpeed) -> List[float]:
    """Operation times scaled for their tail (see :func:`tail`).

    Short stalls of the host, not its speed, make the tail: an
    operation now and then waits a few ms, in some runs far more often
    than in others, and the references wait alike.  So the tail is
    scaled by the references' tail at the same percentile, where the
    median is scaled by their median.  On six zygote-churn runs this
    took the quartile spread of the p98 from 0.096 (median scaling) to
    0.044; on serve-warm's p90 from 0.87 to 0.07-0.23 (see README.md).
    """
    factor = speed.tail_scale(tail(raw)[0])
    return [value * factor for value in raw]


#: Reference timings taken after the last operation, so the last
#: operations have references on both sides.
TRAILING_REFS = 5


def timed_setup(action: Callable[[], Any]):
    """Run one set-up step: ``(result, raw seconds)``."""
    started = time.perf_counter()
    result = action()
    return result, time.perf_counter() - started


def setup_seconds(scale: float, steps: List[float],
                  warmup_s: float) -> Dict[str, Any]:
    """Set-up time from the raw seconds of the repeated set-up steps and
    of the warm-up.

    ``scale`` is the median scale of the run's operation references,
    and set-up is multiplied by its square root.  A set-up step lasts
    seconds and references taken beside it did not track it (they
    flipped between two speeds ~1.6x apart while the boots between them
    did not), and boots follow a host-speed change about half as
    strongly as the references and the operations do: over ten runs
    whose allocating-reference scale ranged 0.9-1.9, median boots ranged
    ~3.4-2.0 s.  So the full scale over-corrects, and the square root
    gave the lowest run-to-run spread of every scaling tried (see
    README.md).  ``setup_s`` is the median step plus the warm-up, so
    scaled; ``raw_setup_s`` the same unscaled; ``setup_reps_s`` every
    step, scaled.
    """
    factor = math.sqrt(scale)
    raw = statistics.median(steps) + warmup_s
    return {"setup_s": raw * factor, "raw_setup_s": raw,
            "setup_reps_s": [step * factor for step in steps]}


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------

class _Span:
    __slots__ = ("_spans", "_record")

    def __init__(self, spans: "Spans", name: str, op: int) -> None:
        self._spans = spans
        stack = spans._stack
        self._record = [name, 0.0, 0.0, stack[-1] if stack else -1, op]

    def __enter__(self) -> "_Span":
        spans = self._spans
        spans._stack.append(len(spans.records))
        spans.records.append(self._record)
        self._record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._record[2] = time.perf_counter()
        self._spans._stack.pop()


class Spans:
    """In-memory span log: ``[name, start, end, parent index, op id]``.

    Spans nest by lexical ``with`` blocks; the parent is the span open
    when a new one starts.  Nothing is written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.records: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, op: int) -> _Span:
        return _Span(self, name, op)

    def self_times(self, scales: Dict[int, float]) -> Dict[str, float]:
        """Total self time per span name: duration minus the part of it
        covered by child spans, each scaled by its operation's host-speed
        factor from ``scales``."""
        child_time = [0.0] * len(self.records)
        for name, start, end, parent, _ in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _, op) in enumerate(self.records):
            own = (end - start - child_time[index]) * scales[op]
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def durations(self, scales: Dict[int, float]) -> Dict[str, float]:
        """Total scaled duration per span name."""
        totals: Dict[str, float] = {}
        for name, start, end, _, op in self.records:
            totals[name] = totals.get(name, 0.0) + (end - start) * scales[op]
        return totals

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.records:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op}) + "\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


class NullSpans:
    """The untraced recorder: every span is a shared no-op."""

    _NULL = _NullSpan()

    def span(self, name: str, op: int) -> _NullSpan:
        return self._NULL


NULL_SPANS = NullSpans()


def span_layer_ms(spans: Spans, traced_ops: int, names: Dict[str, str],
                  scales: Dict[int, float]) -> Dict[str, float]:
    """Per-operation mean self time (ms) of the named spans.

    ``names`` maps a span name to the metric it reports; names with no
    spans report 0 (the layer did no work on this workload).
    """
    totals = spans.self_times(scales)
    return {metric: (1000.0 * totals.get(name, 0.0) / traced_ops
                     if traced_ops else 0.0)
            for name, metric in names.items()}


def op_span_summary(spans: Spans, traced_ops: int,
                    scales: Dict[int, float]) -> Dict[str, float]:
    """Root-span self time per op and the share the layers cover."""
    root_self = spans.self_times(scales).get("op", 0.0)
    root_total = spans.durations(scales).get("op", 0.0)
    return {
        "bench.op_self_ms": (1000.0 * root_self / traced_ops
                             if traced_ops else 0.0),
        "bench.span_coverage": (1.0 - root_self / root_total
                                if root_total else 0.0),
    }


def trace_overhead_pct(traced: List[float],
                       untraced: List[float]) -> float:
    """Median traced op time over median untraced op time, in % above."""
    if not traced or not untraced:
        return 0.0
    ratio = statistics.median(traced) / statistics.median(untraced)
    return 100.0 * (ratio - 1.0)
