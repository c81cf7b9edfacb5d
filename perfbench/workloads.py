"""The four benchmark workloads.

Each in-process workload is a pair of steps the runner times
separately: ``setup()`` builds the state an operation needs and
``op(state)`` is the operation a user waits for; ``reuses_state`` says
whether one state serves several operations.  ``fingerprint(result)``
reduces a result to the exact values the output checks compare bit for
bit, and ``layer_counts`` reads the program's own exact counters.
The service workload drives a server subprocess instead.
"""

from __future__ import annotations

import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.config import DEFAULT_CONFIG
from repro.core.brute_force_sizer import BruteForceStatisticalSizer
from repro.core.pruned_sizer import PrunedStatisticalSizer
from repro.dist.cache import DEFAULT_CACHE_CAPACITY
from repro.errors import ReproError
from repro.netlist.benchmarks import load
from repro.service import ServiceClient
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing import ssta

from inputs import SESSION_MIX, seeded_circuit, session_requests
from reference import reference_s

#: Pruned sizing iterations per operation, and the brute-force
#: reference budget: the first BRUTE_ITERATIONS moves of the same
#: trajectory, which the pruned sizer must match bit for bit.
PRUNED_ITERATIONS = 2
BRUTE_ITERATIONS = 1

#: ssta-25k: c880 scaled 68x is 24,820 gates, depth 198, analysed on a
#: 16 ps grid with the default (cache-off) config.
SSTA_SCALE = 68
SSTA_DT = 16.0
#: Sink p99 of the paper circuit (seed 0), checked bit for bit.  A
#: relabelled circuit is the same circuit with its fan-outs listed in
#: another order, so load sums round differently: other seeds must
#: match within SSTA_P99_RTOL.
SSTA_P99 = 27026.825530832855
SSTA_P99_RTOL = 1e-9

#: service-mix: closed-loop client connections (= CPUs of the host the
#: workload was sized on) and server boots per run.
SERVICE_CLIENTS = 2
SERVICE_BOOTS = 5
#: Longest a round of sessions may take before the run is abandoned.
ROUND_TIMEOUT_S = 60.0


def _hex(x: float) -> str:
    return float(x).hex()


def sizing_fingerprint(result) -> tuple:
    """Selections, sensitivities and objectives of a sizing run."""
    return tuple(
        (s.all_gates, _hex(s.sensitivity), _hex(s.objective_before),
         _hex(s.objective_after))
        for s in result.steps
    )


class SizingWorkload:
    """A fixed-budget pruned sizing run on a seeded c432 with the
    ``repro-ssta optimize`` defaults (2 ps grid, dw 0.25, ``auto``
    backend, default-capacity result cache)."""

    kind = "sizing"
    name = "size-pruned-c432"
    reuses_state = False  # a sizer mutates its circuit

    def __init__(self, seed: int, sizer_cls=PrunedStatisticalSizer,
                 iterations: int = PRUNED_ITERATIONS):
        self.seed = seed
        self.sizer_cls = sizer_cls
        self.iterations = iterations

    def settings(self) -> dict:
        return {"circuit": "c432", "sizer": self.sizer_cls.name,
                "iterations": self.iterations,
                "brute_reference_iterations": BRUTE_ITERATIONS,
                "cache": DEFAULT_CACHE_CAPACITY}

    def setup(self):
        circuit = seeded_circuit("c432", self.seed)
        config = DEFAULT_CONFIG.with_updates(cache=DEFAULT_CACHE_CAPACITY)
        return self.sizer_cls(circuit, config=config,
                              max_iterations=self.iterations)

    def op(self, sizer):
        return sizer.run()

    def fingerprint(self, result) -> tuple:
        return sizing_fingerprint(result)

    def reference_check(self, fingerprints: list) -> Optional[dict]:
        """Brute force over the first BRUTE_ITERATIONS moves (untimed):
        the pruned sizer must pick exactly what it picks, with the same
        sensitivities.  Returns the outcome and the brute-force run,
        whose per-iteration times give the derived Table-2 row."""
        brute = SizingWorkload(self.seed, BruteForceStatisticalSizer,
                               BRUTE_ITERATIONS)
        ref = brute.op(brute.setup())
        same = (sizing_fingerprint(ref)
                == fingerprints[0][:BRUTE_ITERATIONS])
        return {"ok": same, "brute": ref}

    def layer_counts(self, result, sizer) -> Dict[str, float]:
        """Exact counts of one operation, read from the program's own
        statistics (IterationStats, OpCounter, the result cache)."""
        steps = [s.stats for s in result.steps]
        candidates = sum(s.candidates for s in steps)
        cache = sizer.config.cache
        return {
            "sizer.candidates": candidates,
            "sizer.pruned_frac": (
                sum(s.pruned for s in steps) / candidates if candidates else 0.0
            ),
            "sizer.nodes_computed": sum(s.nodes_computed for s in steps),
            "ops.convolutions": sum(s.convolutions for s in steps),
            "ops.max_ops": sum(s.max_ops for s in steps),
            "cache.hit_rate": result.cache_hit_rate,
            "cache.entries": len(cache),
            "cache.mb": cache.approx_bytes / 1e6,
        }


class SstaWorkload:
    """One full SSTA pass over a seeded 24,820-gate circuit."""

    kind = "ssta"
    name = "ssta-25k"
    #: The operation builds its own delay model (whose PDFs are filled
    #: lazily by the pass), so a circuit and graph serve every pass.
    reuses_state = True

    def __init__(self, seed: int):
        self.seed = seed

    def settings(self) -> dict:
        return {"circuit": "c880", "scale": SSTA_SCALE, "dt": SSTA_DT}

    def setup(self):
        circuit = seeded_circuit("c880", self.seed, scale=SSTA_SCALE)
        return circuit, TimingGraph(circuit)

    def op(self, state):
        circuit, graph = state
        config = DEFAULT_CONFIG.with_updates(dt=SSTA_DT)
        # Through the module, so a traced run's wrapper sees the call.
        return ssta.run_ssta(graph, DelayModel(circuit, config=config))

    def fingerprint(self, result) -> tuple:
        sink = result.sink_pdf
        return (_hex(sink.percentile(0.99)), sink.offset,
                sink.masses.tobytes())

    def golden_ok(self, result) -> bool:
        p99 = result.sink_pdf.percentile(0.99)
        if self.seed == 0:
            return p99 == SSTA_P99
        return abs(p99 - SSTA_P99) <= SSTA_P99_RTOL * SSTA_P99

    def layer_counts(self, result, state) -> Dict[str, float]:
        return {
            "ops.convolutions": result.counter.convolutions,
            "ops.max_ops": result.counter.max_ops,
            "ssta.arrival_mb": sum(
                a.masses.nbytes for a in result.arrivals) / 1e6,
        }


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------

def local_reference(request: tuple):
    """The answer a local serial run gives for one stream request."""
    endpoint, circuit, scale, iterations = request
    if endpoint == "analyze":
        c = load(circuit, scale=scale)
        sink = ssta.run_ssta(TimingGraph(c), DelayModel(c)).sink_pdf
        return (sink.dt, sink.offset, sink.masses.tobytes())
    config = DEFAULT_CONFIG.with_updates(cache=DEFAULT_CACHE_CAPACITY)
    result = PrunedStatisticalSizer(
        load(circuit, scale=scale), config=config, max_iterations=iterations
    ).run()
    return sizing_fingerprint(result) + (_hex(result.final_objective),)


def reply_fingerprint(request: tuple, reply):
    if request[0] == "analyze":
        sink = reply.sink
        return (sink.dt, sink.offset, sink.masses.tobytes())
    result = reply.result
    return sizing_fingerprint(result) + (_hex(result.final_objective),)


class Server:
    """A ``repro-ssta serve`` subprocess with default settings, started
    through ``perfbench/serve.py`` (which adds span wrappers when a
    trace file is requested)."""

    def __init__(self, root: Path, trace_out: Optional[Path] = None):
        cmd = [sys.executable, str(root / "perfbench" / "serve.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, cwd=str(root),
        )
        line = self.proc.stdout.readline()
        self.boot_s = time.perf_counter() - t0
        match = re.search(r"listening on (http://\S+)", line)
        if match is None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = match.group(1)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self) -> None:
        """Graceful shutdown (drain + exit); killed if it hangs."""
        if self.proc.poll() is None:
            try:
                ServiceClient(self.url, max_retries=0).shutdown()
            except ReproError:
                self.proc.terminate()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class ServiceWorkload:
    """Closed-loop sessions of seeded /analyze and /optimize requests
    from SERVICE_CLIENTS connections against one server."""

    kind = "service"
    name = "service-mix"
    boots = SERVICE_BOOTS

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.references: Dict[tuple, object] = {}
        self.server: Optional[Server] = None

    def settings(self) -> dict:
        return {"clients": SERVICE_CLIENTS, "mix": list(SESSION_MIX)}

    def prepare(self) -> None:
        """Local serial answers for every request in the mix."""
        for request in SESSION_MIX:
            if request not in self.references:
                self.references[request] = local_reference(request)

    def boot(self, times: int, trace_out: Optional[Path] = None) -> List[float]:
        """Boot the server ``times`` times (the last one stays up);
        returns every boot time."""
        boots = []
        for i in range(times):
            self.server = Server(self.root, trace_out)
            boots.append(self.server.boot_s)
            if i < times - 1:
                self.server.stop()
        return boots

    def _call(self, client, request) -> tuple:
        """One request: (endpoint, latency_s, ok, counts)."""
        endpoint, circuit, scale, iterations = request
        t0 = time.perf_counter()
        try:
            if endpoint == "analyze":
                reply = client.analyze(circuit, scale=scale)
            else:
                reply = client.optimize(circuit, scale=scale,
                                        iterations=iterations)
        except ReproError:
            return endpoint, time.perf_counter() - t0, False, {}
        latency = time.perf_counter() - t0
        ok = reply_fingerprint(request, reply) == self.references[request]
        if endpoint == "analyze":
            counts = {"ops.convolutions": reply.kernel.get("convolutions", 0),
                      "ops.max_ops": reply.kernel.get("max_ops", 0)}
        else:
            stats = [s.stats for s in reply.result.steps]
            counts = {
                "ops.convolutions": sum(s.convolutions for s in stats),
                "ops.max_ops": sum(s.max_ops for s in stats),
                "sizer.candidates": sum(s.candidates for s in stats),
                "sizer.pruned": sum(s.pruned for s in stats),
                "sizer.nodes_computed": sum(s.nodes_computed for s in stats),
            }
        return endpoint, latency, ok, counts

    def warm_up(self) -> list:
        """One sequential pass over the mix, so the server's resident
        circuits and result cache are filled before timing."""
        client = ServiceClient(self.server.url)
        return [self._call(client, request) for request in SESSION_MIX]

    def drive(self, seconds: float) -> dict:
        """Run the closed loop for ``seconds``.  The operation is one
        session: open, the mix's requests in seeded order, close.  Its
        duration is steadier than a single request's, whose median
        falls between the cheap analyses and the dearer sizing runs
        and moves with how the two clients' requests interleave.

        The clients run in rounds of one session each.  Between rounds,
        while the server is idle, the host-speed reference loop
        (``reference.py``) is timed."""
        records: List[tuple] = []
        sessions: List[float] = []
        refs: List[float] = []
        retries = [0] * SERVICE_CLIENTS
        seen = set(SESSION_MIX)  # the warm-up sent each request once
        repeats = [0]
        lock = threading.Lock()
        start = threading.Barrier(SERVICE_CLIENTS + 1, timeout=ROUND_TIMEOUT_S)
        done = threading.Barrier(SERVICE_CLIENTS + 1, timeout=ROUND_TIMEOUT_S)
        stop = [False]

        def loop(k: int) -> None:
            try:
                rounds(k)
            except threading.BrokenBarrierError:
                pass
            except BaseException:
                start.abort()  # the driver and the other client stop too
                done.abort()
                raise

        def rounds(k: int) -> None:
            client = ServiceClient(self.server.url)
            index = 0
            while True:
                start.wait()
                if stop[0]:
                    break
                t0 = time.perf_counter()
                try:
                    client.open_session()
                except ReproError:
                    with lock:
                        records.append(("session", 0.0, False, {}))
                    done.wait()
                    continue
                for request in session_requests(self.seed, k, index):
                    record = self._call(client, request)
                    with lock:
                        records.append(record)
                        repeats[0] += request in seen
                        seen.add(request)
                try:
                    client.close_session()
                except ReproError:
                    with lock:
                        records.append(("session", 0.0, False, {}))
                with lock:
                    sessions.append(time.perf_counter() - t0)
                index += 1
                done.wait()
            retries[k] = client.retries_performed

        threads = [threading.Thread(target=loop, args=(k,))
                   for k in range(SERVICE_CLIENTS)]
        for t in threads:
            t.start()
        refs.append(reference_s())
        t0 = time.perf_counter()
        lock_step = 0.0  # time spent timing references
        deadline = t0 + seconds
        try:
            while time.perf_counter() < deadline:
                start.wait()
                done.wait()
                t1 = time.perf_counter()
                refs.append(reference_s())
                lock_step += time.perf_counter() - t1
        finally:
            stop[0] = True
            try:
                start.wait()
            except threading.BrokenBarrierError:
                pass
            for t in threads:
                t.join()
        wall = time.perf_counter() - t0 - lock_step
        return {
            "records": records, "sessions": sessions, "wall_s": wall,
            "refs": refs,
            "retries": sum(retries),
            "repeat_share": repeats[0] / max(1, len(records)),
            "stats": ServiceClient(self.server.url).stats(),
            "peak_rss_mb": self.server.peak_rss_mb(),
        }
