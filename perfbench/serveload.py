"""The serve-warm workload: an open loop of cache-hit ``POST /run``.

Set-up starts ``satr serve`` as a subprocess with a fresh cache
directory and fills the cache with one quick-scale key; it does this
:data:`SETUP_REPS` times (the median is reported) and keeps the last
server.  The measured phase sends a fixed number of requests for that
key on a fixed schedule from at most :data:`CONNECTIONS` connections;
each request opens its own connection, as ``satr loadgen`` does, and
is timed from the moment it was due, so a stall shows up in every
request it delays.  Every response must be 200 and carry the
report bytes the fill returned.
"""

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import (
    SRC,
    WORK,
    HostSpeed,
    Spans,
    cpu_reference,
    digest,
    op_span_summary,
    peak_rss_mb_of,
    setup_seconds,
    span_layer_ms,
    tail_scaled,
    timed_setup,
    trace_overhead_pct,
)

#: Set-ups per run; ``setup_s`` takes their median.  Each one simulates
#: a quick-scale key (~10-13 s on 2 vCPUs), so a third would make a
#: serve-warm run twice as long as a simulation workload's.
SETUP_REPS = 2
CONNECTIONS = 2
#: Slots per second of the open loop.  Every :data:`REF_EVERY`-th slot
#: times the HTTP reference, the others send a request: 10 requests per
#: second, 100 per 10 s, so the tail is p90.  A warm hit takes ~4 ms
#: and a shared 2-vCPU VM stalls one request in a few dozen for 5-20
#: ms, so the p97 of 400 requests per run read mostly stalls (quartile
#: spread 0.53 over ten runs); see :func:`common.tail_scaled`.
RATE = 20.0
REF_EVERY = 2
#: The server's own worker threads, and the fill request's cell jobs.
SERVER_WORKERS = 2
FILL_JOBS = 2
WARMUP_REQUESTS = 5
#: How long before a slot is due the client stops sleeping and spins.
SPIN_S = 0.001
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
#: The HTTP reference's time at the nominal host speed.
REF_HTTP_NOMINAL_S = 0.002
HERE = os.path.dirname(os.path.abspath(__file__))


def satr_serve(root: str) -> Callable[[str], List[str]]:
    """argv of ``satr serve`` with its cache under ``root``."""
    return lambda port_file: [
        sys.executable, "-m", "repro.experiments.runner", "serve",
        "--port", "0", "--port-file", port_file,
        "--cache-dir", os.path.join(root, "cache"),
        "--workers", str(SERVER_WORKERS)]


def reference_server(port_file: str) -> List[str]:
    """argv of the benchmark's reference HTTP server."""
    return [sys.executable, os.path.join(HERE, "refserver.py"), port_file]


def http_reference(server: "Server") -> Callable[[], float]:
    """A timed ``POST`` to the reference server: seconds per call.

    Requests to ``satr serve`` spend much of their time on connection
    set-up, thread hand-offs and wake-ups, which a CPU loop does not
    track; this reference takes the same path.  On six back-to-back runs
    on a heavily shared VM it cut the quartile spread of the run medians
    from 0.60 raw (0.44 with the CPU reference) to 0.13.
    """
    def probe() -> float:
        started = time.perf_counter()
        server.post_run(b"{}")
        return time.perf_counter() - started

    return probe


def _request_body(seed: int, jobs: int) -> bytes:
    return json.dumps({"target": "fork", "scale": "quick", "seed": seed,
                       "jobs": jobs}).encode("utf-8")


class Server:
    """One HTTP server subprocess on an ephemeral port.

    ``command(port_file)`` is its argv; the server writes its port to
    ``port_file`` once it listens.  ``root`` is its scratch directory,
    removed on :meth:`stop`.
    """

    def __init__(self, root: str,
                 command: Callable[[str], List[str]]) -> None:
        self.root = root
        os.makedirs(root)
        port_file = os.path.join(root, "port")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        self._log = open(os.path.join(root, "server.log"), "wb")
        self.proc = subprocess.Popen(
            command(port_file), env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + START_TIMEOUT_S
        self.port: Optional[int] = None
        while self.port is None:
            if self.proc.poll() is not None:
                raise RuntimeError(f"{command(port_file)[1]} exited with "
                                   f"{self.proc.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not start in time")
            try:
                with open(port_file, encoding="ascii") as handle:
                    text = handle.read().strip()
                self.port = int(text) if text else None
            except FileNotFoundError:
                pass
            if self.port is None:
                time.sleep(0.02)

    def _call(self, method: str, path: str,
              body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """One request on its own connection: ``(status, body bytes)``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def post_run(self, body: bytes):
        """One ``POST /run``: ``(status, decoded JSON body)``."""
        status, data = self._call("POST", "/run", body)
        return status, json.loads(data.decode("utf-8"))

    def scrape(self) -> Dict[str, float]:
        """``/metrics`` as ``{series: value}`` (labels folded into the key)."""
        from repro.metrics import parse_exposition

        _, data = self._call("GET", "/metrics")
        values: Dict[str, float] = {}
        for sample in parse_exposition(data.decode("utf-8"))["samples"]:
            key = sample["series"]
            labels = sample.get("labels") or {}
            if labels:
                key += "{" + ",".join(f"{k}={v}" for k, v in
                                      sorted(labels.items())) + "}"
            values[key] = float(sample["value"])
        return values

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill; always reaps the process."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        shutil.rmtree(self.root, ignore_errors=True)


def run_serve(seed: int, seconds: int, trace: bool,
              span_path: str) -> Dict[str, Any]:
    """Set up, measure, verify; returns the raw run summary."""
    # Set-up is simulation in the server's pool: the CPU reference,
    # sampled beside the HTTP one in the open loop, scales it.  Requests
    # are timed against the HTTP reference.
    cpu_speed = HostSpeed(cpu_reference(mixed=False))
    setup_times: List[float] = []
    server: Optional[Server] = None
    reference: Optional[Server] = None
    fill_body = _request_body(seed, FILL_JOBS)
    body = _request_body(seed, 1)
    try:
        for rep in range(SETUP_REPS):
            if server is not None:
                server.stop()
                server = None
            root = os.path.join(WORK, f"serve-{os.getpid()}-{rep}")

            def start_and_fill():
                started = Server(root, satr_serve(root))
                return started, started.post_run(fill_body)

            (server, (status, filled)), raw = timed_setup(start_and_fill)
            if status != 200 or filled.get("state") != "done":
                raise RuntimeError(f"cache fill failed: {status} {filled}")
            setup_times.append(raw)
        expected = filled["report"]
        _, warmup_s = timed_setup(lambda: [
            server.post_run(body) for _ in range(WARMUP_REQUESTS)])
        reference = Server(
            os.path.join(WORK, f"reference-{os.getpid()}"),
            reference_server)
        http_speed = HostSpeed(http_reference(reference),
                               REF_HTTP_NOMINAL_S)
        before = server.scrape() if trace else {}
        summary = _open_loop(server, body, expected, seconds, trace,
                             http_speed, cpu_speed)
        if trace:
            after = server.scrape()
        summary["peak_rss_mb"] = peak_rss_mb_of(server.proc.pid)
    finally:
        for running in (server, reference):
            if running is not None:
                running.stop()

    summary.update(setup_seconds(cpu_speed.median_scale(), setup_times,
                                 warmup_s))
    summary["speed_scale"] = http_speed.median_scale()
    # The served report is the rendered simulated statistics of the
    # key, so its digest pins the simulation like the other workloads.
    summary["sim_digest"] = digest([expected])
    if trace:
        summary["layers"].update(
            _server_layers(before, after, summary["ops"],
                           summary["depth_samples"]))
        summary["spans"].dump(span_path)
    del summary["spans"], summary["depth_samples"]
    return summary


def _open_loop(server: Server, body: bytes, expected: str, seconds: int,
               trace: bool, speed: HostSpeed,
               cpu_speed: HostSpeed) -> Dict[str, Any]:
    """Send requests on a fixed schedule of ``RATE * seconds`` slots.

    Every :data:`REF_EVERY`-th slot times the HTTP reference (``speed``)
    and the CPU one (``cpu_speed``, which scales set-up) instead of
    sending, so host speed is sampled all through the loop while no
    request is due.
    """
    slots = max(REF_EVERY, round(RATE * seconds))
    lock = threading.Lock()
    next_slot = [0]
    timings: Dict[int, Any] = {}  # slot -> (due, sent, done, problem)
    depth_samples: List[float] = []
    start_at = time.perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                slot = next_slot[0]
                next_slot[0] += 1
            if slot >= slots:
                return
            due = start_at + slot / RATE
            # Sleep until just before the slot is due, then spin, so the
            # client sends hot rather than waking from idle.
            delay = due - time.perf_counter() - SPIN_S
            if delay > 0:
                time.sleep(delay)
            while time.perf_counter() < due:
                pass
            if slot % REF_EVERY == 0:
                with lock:
                    speed.sample()
                    cpu_speed.sample()
                continue
            sent = time.perf_counter()
            try:
                status, decoded = server.post_run(body)
                ok = status == 200 and decoded.get("report") == expected
                problem = None if ok else f"status {status}"
            except (OSError, ValueError, http.client.HTTPException) as exc:
                problem = f"{type(exc).__name__}: {exc}"
            done = time.perf_counter()
            with lock:
                timings[slot] = (due, sent, done, problem)
            if trace and slot % 25 == 1:
                depth_samples.append(server.scrape().get(
                    "satr_serve_queue_depth", 0.0))

    started = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started

    order = sorted(timings)
    scales = {slot: speed.scale_at(timings[slot][0]) for slot in order}
    latencies = [(timings[s][2] - timings[s][0]) * scales[s] for s in order]
    raw_latencies = [timings[s][2] - timings[s][0] for s in order]
    problems = [f"request {s}: {timings[s][3]}" for s in order
                if timings[s][3] is not None]
    summary: Dict[str, Any] = {
        "ops": len(order),
        "failed": len(problems),
        "problems": problems,
        "latencies": latencies,
        "tail_latencies": tail_scaled(raw_latencies, speed),
        "raw_latencies": raw_latencies,
        # An open loop's throughput is its schedule unless it falls
        # behind, so it is requests over the loop's real wall time.
        "busy_s": wall,
        "depth_samples": depth_samples,
    }
    spans = Spans()
    if trace:
        # Alternate requests are traced; a traced request's root span
        # runs due -> done and its child send -> done, so the root's
        # self time is how late the generator sent it.
        traced_slots = [s for s in order if (s // REF_EVERY) % 2 == 0]
        for slot in traced_slots:
            due, sent, done, _ = timings[slot]
            spans.records.append(["op", due, done, -1, slot])
            spans.records.append(["serve.request", sent, done,
                                  len(spans.records) - 1, slot])
        traced_set = set(traced_slots)
        traced = [(timings[s][2] - timings[s][0]) * scales[s]
                  for s in order if s in traced_set]
        untraced = [(timings[s][2] - timings[s][0]) * scales[s]
                    for s in order if s not in traced_set]
        layers = span_layer_ms(spans, len(traced),
                               {"serve.request": "serve.request_ms"},
                               scales)
        layers.update(op_span_summary(spans, len(traced), scales))
        layers["bench.trace_overhead_pct"] = trace_overhead_pct(
            traced, untraced)
        layers["loadgen.late_max_ms"] = 1000.0 * max(
            timings[s][1] - timings[s][0] for s in order)
        summary["layers"] = layers
    summary["spans"] = spans
    return summary


def _server_layers(before: Dict[str, float], after: Dict[str, float],
                   ops: int, depth_samples: List[float]) -> Dict[str, float]:
    """Server-side figures from two ``/metrics`` scrapes."""
    def change(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    runs = change("satr_serve_run_seconds_count{target=fork}")
    return {
        "serve.server_run_ms": (1000.0 * change(
            "satr_serve_run_seconds_sum{target=fork}") / runs
            if runs else 0.0),
        "serve.cache_hits": change("satr_serve_cache_hits_total") / ops,
        "serve.cache_misses": change("satr_serve_cache_misses_total") / ops,
        "serve.coalesced": change(
            "satr_serve_coalesced_requests_total") / ops,
        "serve.queue_depth_max": max(depth_samples, default=0.0),
    }
