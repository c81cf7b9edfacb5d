"""The repository benchmark: one command, two gated workloads and one more.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``interactions.json`` for why each was chosen and which
end-to-end metric each layer metric should move):

* ``size-pruned-c432`` -- the paper's pruned sizer, fixed budget,
  checked against brute force over the first iteration;
* ``service-mix`` -- a ``repro-ssta serve`` process under closed-loop
  sessions of /analyze and /optimize requests;
* ``ssta-25k`` -- one full SSTA pass over 24,820 gates at dt=16 (not
  gated; run it by hand for the large-circuit SSTA layers).

``--trace 0`` measures the end-to-end metrics with no tracing.  The
gated operation time, ``op_mean_ref``, is the mean operation wall
time over the mean time of a fixed reference loop run between the
operations (see ``reference.py``), so the shared host's speed drift
cancels; raw wall times are printed.
``--trace 1`` first runs untraced for half the time, then wraps every
layer boundary with spans (see ``spans.py``) for the other half and
reports per-layer metrics, the unattributed remainder and the tracing
overhead.  Every operation's output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

#: The gated workloads (BENCHMARK.json), and ssta-25k, which runs the
#: same way but is not gated: its spread between runs came close to the
#: bound on the host this was built on (see interactions.json,
#: "dropped").
WORKLOADS = ("size-pruned-c432", "service-mix")
CHOICES = WORKLOADS + ("ssta-25k",)

#: Per-layer metrics: name -> (unit, better).  Every traced run prints
#: all of them; a layer a workload never reaches reads 0 there (the
#: "no change" predictions in interactions.json).
LAYER_METRICS = {
    "netlist.load_s": ("s", "lower"),
    "graph.build_s": ("s", "lower"),
    "delay_model.pdf_calls": ("count", "lower"),
    "delay_model.pdf_s": ("s", "lower"),
    "ssta.run_calls": ("count", "lower"),
    "ssta.run_s": ("s", "lower"),
    "ssta.level_calls": ("count", "lower"),
    "ssta.level_s": ("s", "lower"),
    "ssta.level_nodes_mean": ("count", "higher"),
    "ssta.arrival_mb": ("MB", "lower"),
    "front.init_calls": ("count", "lower"),
    "front.init_s": ("s", "lower"),
    "front.step_calls": ("count", "lower"),
    "front.step_s": ("s", "lower"),
    "front.rebase_attempts": ("count", "lower"),
    "front.rebase_ok": ("count", "higher"),
    "sizer.candidates": ("count", "lower"),
    "sizer.pruned_frac": ("ratio", "higher"),
    "sizer.nodes_computed": ("count", "lower"),
    "bound.gap_calls": ("count", "lower"),
    "bound.gap_s": ("s", "lower"),
    "ops.add_calls": ("count", "lower"),
    "ops.add_s": ("s", "lower"),
    "ops.add_pairs": ("count", "lower"),
    "ops.max_calls": ("count", "lower"),
    "ops.max_s": ("s", "lower"),
    "ops.max_groups": ("count", "lower"),
    "ops.convolutions": ("count", "lower"),
    "ops.max_ops": ("count", "lower"),
    "kernel.add_s": ("s", "lower"),
    "kernel.max_s": ("s", "lower"),
    "pdf.trim_calls": ("count", "lower"),
    "pdf.trim_s": ("s", "lower"),
    "cache.hit_rate": ("ratio", "higher"),
    "cache.probe_s": ("s", "lower"),
    "cache.store_s": ("s", "lower"),
    "cache.entries": ("count", "lower"),
    "cache.mb": ("MB", "lower"),
    "service.handler_ms": ("ms", "lower"),
    "service.queue_ms": ("ms", "lower"),
    "service.rejected": ("count", "lower"),
    "service.retries": ("count", "lower"),
    "service.cache_hit_rate": ("ratio", "higher"),
    "service.repeat_share": ("ratio", "higher"),
    "service.request_tail_ms": ("ms", "lower"),
    "service.requests_per_s": ("1/s", "higher"),
    "table2.pruned_speedup": ("x", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: Per-layer metric -> (span name, summary field); values are per
#: traced operation.
SPAN_METRICS = {
    "netlist.load_s": ("netlist.load", "self_s"),
    "graph.build_s": ("graph.build", "self_s"),
    "delay_model.pdf_calls": ("delay_model.pdf", "calls"),
    "delay_model.pdf_s": ("delay_model.pdf", "self_s"),
    "ssta.run_calls": ("ssta.run", "calls"),
    "ssta.run_s": ("ssta.run", "self_s"),
    "ssta.level_calls": ("ssta.level", "calls"),
    "ssta.level_s": ("ssta.level", "self_s"),
    "front.init_calls": ("front.init", "calls"),
    "front.init_s": ("front.init", "self_s"),
    "front.step_calls": ("front.step", "calls"),
    "front.step_s": ("front.step", "self_s"),
    "front.rebase_attempts": ("front.rebase", "calls"),
    "bound.gap_calls": ("bound.gap", "calls"),
    "bound.gap_s": ("bound.gap", "self_s"),
    "ops.add_calls": ("ops.add", "calls"),
    "ops.add_s": ("ops.add", "self_s"),
    "ops.max_calls": ("ops.max", "calls"),
    "ops.max_s": ("ops.max", "self_s"),
    "kernel.add_s": ("kernel.add", "self_s"),
    "kernel.max_s": ("kernel.max", "self_s"),
    "pdf.trim_calls": ("pdf.trim", "calls"),
    "pdf.trim_s": ("pdf.trim", "self_s"),
    "cache.probe_s": ("cache.probe", "self_s"),
    "cache.store_s": ("cache.store", "self_s"),
}

#: Extra counters the span wrappers add up (see spans.BOUNDARIES).
COUNTER_METRICS = {
    "front.rebase_ok": "front.rebase_ok",
    "ops.add_pairs": "ops.add_pairs",
    "ops.max_groups": "ops.max_groups",
}


def tail(values: list) -> tuple:
    """(value, percentile, samples) of the highest percentile with at
    least ten samples beyond it; with fewer than 11 samples there is
    no such percentile and the slowest sample is reported (100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def stamp(settings: dict) -> dict:
    """Provenance of one result: when, with which settings (hashed),
    on how many CPUs, with which interpreter, NumPy and compiled-kernel
    provider."""
    import numpy as np
    from repro.dist._compiled import provider_kind

    blob = json.dumps(settings, sort_keys=True).encode()
    return {
        "_created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "_sha256": hashlib.sha256(blob).hexdigest(),
        "settings": settings,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compiled_provider": provider_kind() or "none",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Report:
    """Collects metric lines and the outcome counters."""

    def __init__(self) -> None:
        self.metrics: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        print(f"metric {name} = {value!r} {unit} {note}".rstrip())

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


# ----------------------------------------------------------------------
# In-process workloads (sizing, SSTA)
# ----------------------------------------------------------------------

#: Untraced runs repeat set-up so its median rests on many samples
#: spread over the run: SETUPS_PER_OP times before every operation, or
#: SETUP_MIN times up front for a workload whose state serves every
#: operation.
SETUPS_PER_OP = 8
SETUP_MIN = 3


def measure(wl, seconds: float, report: Report, tracer=None,
            min_ops: int = 3, setup_phase: bool = False) -> dict:
    """Repeat set-up + operation until ``seconds`` have passed and at
    least ``min_ops`` operations ran.  With ``setup_phase`` set-up is
    repeated (see SETUPS_PER_OP) and a workload that ``reuses_state``
    keeps one state for every operation; otherwise each operation gets
    one fresh set-up, as traced runs need.  Each result is reduced to
    its fingerprint and counts right away, so one operation's memory is
    freed before the next set-up.  With ``setup_phase`` the host-speed
    reference loop is also timed before the first operation and after
    each one (see ``reference.py``)."""
    from contextlib import nullcontext
    from reference import reference_s

    span = tracer.span if tracer else lambda *a, **k: nullcontext()
    setups, walls, fps, counts, steps, refs = [], [], [], [], [], []
    state = None
    keep_state = setup_phase and wl.reuses_state
    repeats = 1
    if keep_state:
        repeats = SETUP_MIN
    elif setup_phase:
        repeats = SETUPS_PER_OP
    golden = getattr(wl, "golden_ok", None)
    t_start = time.perf_counter()
    if setup_phase:
        refs.append(reference_s())
    while len(walls) < min_ops or time.perf_counter() - t_start < seconds:
        gc.collect()
        try:
            if state is None:
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    with span("setup", new_op=True):
                        state = wl.setup()
                    setups.append(time.perf_counter() - t0)
            t1 = time.perf_counter()
            with span("op"):
                result = wl.op(state)
            walls.append(time.perf_counter() - t1)
            if setup_phase:
                refs.append(reference_s())
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            report.check(False, "operation raised")
            state = None
            if time.perf_counter() - t_start > seconds:
                break
            continue
        fp = wl.fingerprint(result)
        fps.append(fp)
        counts.append(wl.layer_counts(result, state))
        if hasattr(result, "steps"):
            steps.append([s.stats.wall_time_s for s in result.steps])
        report.check(
            fp == fps[0] and (golden is None or golden(result)),
            f"{wl.name}: output differs between passes or from the "
            "recorded value",
        )
        del result
        if not keep_state:
            state = None
    mean_counts = {
        k: statistics.fmean(c[k] for c in counts) for k in counts[0]
    } if counts else {}
    return {"setups": setups, "walls": walls, "fps": fps,
            "counts": mean_counts, "steps": steps, "refs": refs}


def run_inprocess(wl, seconds: float, trace: bool, report: Report) -> None:
    if not trace:
        m = measure(wl, seconds, report, setup_phase=True)
        if not m["walls"]:
            raise RuntimeError("no operation completed")
        end_to_end(report, m["setups"], m["walls"], m["refs"], peak_rss_mb(),
                   "ssta_s" if wl.kind == "ssta" else "sizer_wall_s")
        if wl.kind == "sizing":
            table2(wl, m, report)
        return
    from spans import Tracer

    plain = measure(wl, seconds / 2, report, min_ops=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(wl, seconds / 2, report, tracer=tracer, min_ops=1)
    finally:
        tracer.restore()
    if not plain["walls"] or not traced["walls"]:
        raise RuntimeError("no operation completed")
    report.check(traced["fps"][0] == plain["fps"][0],
                 f"{wl.name}: traced output differs from untraced")
    n = len(traced["walls"])
    values = span_layers(tracer.summary(), tracer.counts,
                         tracer.root_wall(), n)
    values.update(traced["counts"])
    if wl.kind == "sizing":
        values["table2.pruned_speedup"] = table2(wl, plain, report)
    untraced_wall = statistics.median(
        s + w for s, w in zip(plain["setups"], plain["walls"]))
    traced_wall = statistics.median(
        s + w for s, w in zip(traced["setups"], traced["walls"]))
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    emit_layers(report, wl.name, values)


def span_layers(summary: dict, counts: dict, wall: float,
                n_ops: int) -> dict:
    """Per-operation layer values from a span summary (see
    ``Tracer.summary``), plus the check that layer self times and the
    unattributed remainder add up to the traced wall."""
    from spans import ROOTS

    values = {}
    for metric, (span, field) in SPAN_METRICS.items():
        values[metric] = summary.get(span, {}).get(field, 0) / n_ops
    for metric, counter in COUNTER_METRICS.items():
        values[metric] = counts.get(counter, 0) / n_ops
    level_calls = summary.get("ssta.level", {}).get("calls", 0)
    values["ssta.level_nodes_mean"] = (
        counts.get("ssta.level_nodes", 0) / level_calls
        if level_calls else 0.0
    )
    unattributed = sum(summary[r]["self_s"] for r in ROOTS if r in summary)
    layered = sum(v["self_s"] for k, v in summary.items() if k not in ROOTS)
    values["trace.wall_s"] = wall / n_ops
    values["trace.unattributed_frac"] = unattributed / wall
    print(f"trace: wall {wall!r} s = layers {layered!r} s "
          f"+ unattributed {unattributed!r} s over {n_ops} traced operations")
    for name, row in sorted(summary.items()):
        print(f"span {name} calls={row['calls']} total_s={row['total_s']!r} "
              f"self_s={row['self_s']!r}")
    values["_sum_ok"] = abs(layered + unattributed - wall) <= 1e-9 * max(wall, 1.0)
    return values


def table2(wl, m: dict, report: Report) -> float:
    """The pruned-vs-brute exactness check and the derived Table-2 row:
    brute-force over pruned time per iteration over the same first
    iterations (from IterationStats.wall_time_s).  Reported, never
    gated."""
    ref = wl.reference_check(m["fps"])
    report.check(ref["ok"], "pruned selections differ from brute force")
    k = len(ref["brute"].steps)
    brute_iter = statistics.fmean(s.stats.wall_time_s for s in ref["brute"].steps)
    pruned_iter = statistics.median(statistics.fmean(s[:k]) for s in m["steps"])
    pruned_frac = m["counts"]["sizer.pruned_frac"]
    factor = brute_iter / pruned_iter
    print(f"table2: first {k} iterations, brute {brute_iter!r} s/iter, "
          f"pruned {pruned_iter!r} s/iter (median of {len(m['steps'])}), "
          f"factor {factor!r}x, pruned fraction {pruned_frac!r}, "
          f"selections {'identical' if ref['ok'] else 'DIFFER'}")
    return factor


def end_to_end(report: Report, setups, walls, refs, rss_mb: float,
               issue_name: str) -> None:
    """The gated end-to-end metrics, plus the operation's wall time
    under its workload-specific name with its sample count, quartiles
    and tail.  ``walls`` are operation wall times and ``refs`` the
    times of the reference loop run between them (see
    ``reference.py``), both in seconds."""
    report.metric("setup_s", statistics.median(setups), "s",
                  f"(median of {len(setups)} set-ups)")
    report.metric("op_mean_ref",
                  statistics.fmean(walls) / statistics.fmean(refs), "ref",
                  f"(mean of {len(walls)} operations over the mean of "
                  f"{len(refs)} reference loops run between them)")
    report.metric("peak_rss_mb", rss_mb, "MB")
    for name, values in ((issue_name, walls), ("reference_s", refs)):
        q = (statistics.quantiles(values, n=4) if len(values) > 1
             else values * 3)
        value, pct, n = tail(values)
        print(f"also {name} = {statistics.median(values)!r} s "
              f"(median of {n}; quartiles {q[0]!r} {q[2]!r}; "
              f"p{pct:g} {value!r}; samples "
              f"{' '.join(f'{w:.6g}' for w in values)})")


def emit_layers(report: Report, workload: str, values: dict) -> None:
    report.check(values.pop("_sum_ok"),
                 "layer self times + unattributed != traced wall")
    for name, (unit, _better) in LAYER_METRICS.items():
        report.metric(name, values.get(name, 0.0), unit)
    check_predictions(report, workload)


def check_predictions(report: Report, workload: str) -> None:
    """The recorded 'no change' predictions: metrics that must read
    exactly 0 on this workload."""
    spec = json.loads((ROOT / "perfbench" / "interactions.json").read_text())
    for name, row in spec["layers"].items():
        if workload in row.get("zero_on", []):
            value = report.metrics[name]["value"]
            report.check(value == 0.0,
                         f"prediction failed: {name} = {value} on {workload}")


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------

def run_service(wl, seconds: float, trace: bool, report: Report) -> None:
    wl.prepare()
    if not trace:
        boots = wl.boot(wl.boots)
        try:
            service_outcome(report, wl.warm_up())
            run = wl.drive(seconds)
        finally:
            wl.server.stop()
        service_outcome(report, run["records"])
        end_to_end(report, boots, run["sessions"], run["refs"],
                   run["peak_rss_mb"], "session_s")
        latencies = [r[1] for r in run["records"]]
        value, pct, n = tail(latencies)
        print(f"also request_p50_ms = {statistics.median(latencies) * 1e3!r}"
              f" ms (median of {n})")
        print(f"also request_tail_ms = {value * 1e3!r} ms (p{pct:g} of {n})")
        print(f"also requests_per_s = {n / run['wall_s']!r} 1/s "
              f"({n} requests in {run['wall_s']!r} s)")
        return
    # Untraced server for the first half (the overhead baseline), a
    # traced one for the second.
    trace_file = BUILD / f"service-trace-{os.getpid()}.json"
    runs = []
    for out in (None, trace_file):
        wl.boot(1, out)
        try:
            warm = wl.warm_up()
            run = wl.drive(seconds / 2)
        finally:
            wl.server.stop()
        service_outcome(report, warm)
        service_outcome(report, run["records"])
        run["all"] = warm + run["records"]
        runs.append(run)
    plain, traced = runs
    data = json.loads(trace_file.read_text())
    trace_file.unlink()
    n = data["ops"]
    report.check(n == len(traced["all"]),
                 f"server traced {n} requests, client sent {len(traced['all'])}")
    values = span_layers(data["summary"], data["counts"], data["wall_s"], n)
    values.update(service_layers(traced))

    def mean_latency(records):
        return statistics.fmean(r[1] for r in records)

    values["trace.overhead_frac"] = (
        mean_latency(traced["records"]) / mean_latency(plain["records"]) - 1.0
    )
    # Tail and throughput come from the untraced half.
    latencies = [r[1] for r in plain["records"]]
    values["service.request_tail_ms"] = tail(latencies)[0] * 1e3
    values["service.requests_per_s"] = len(latencies) / plain["wall_s"]
    # Client latency minus server handler time: queueing, HTTP and JSON.
    values["service.queue_ms"] = (
        mean_latency(traced["all"]) - data["wall_s"] / n) * 1e3
    emit_layers(report, wl.name, values)


def service_outcome(report: Report, records: list) -> None:
    for endpoint, _latency, ok, _counts in records:
        report.check(ok, f"service {endpoint} reply differs from a local run")


def service_layers(run: dict) -> dict:
    """Service-layer values from /stats and the client's records (per
    request)."""
    stats = run["stats"]
    endpoints = [v for k, v in stats["requests"].items()
                 if k in ("POST /analyze", "POST /optimize")]
    total = sum(e["count"] for e in endpoints)
    records = run["all"]
    counts = {}
    for _endpoint, _latency, _ok, c in records:
        for key, value in c.items():
            counts[key] = counts.get(key, 0) + value
    n = len(records)
    cands = counts.get("sizer.candidates", 0)
    return {
        # request-weighted mean of the per-endpoint p50s in /stats
        "service.handler_ms": sum(e["p50_ms"] * e["count"]
                                  for e in endpoints) / total,
        "service.rejected": stats["overload"]["rejected"],
        "service.retries": run["retries"],
        "service.cache_hit_rate": stats["cache"]["hit_rate"],
        "service.repeat_share": run["repeat_share"],
        "cache.hit_rate": stats["cache"]["hit_rate"],
        "cache.entries": stats["cache"]["entries"],
        "cache.mb": stats["cache"]["approx_bytes"] / 1e6,
        "ops.convolutions": counts.get("ops.convolutions", 0) / n,
        "ops.max_ops": counts.get("ops.max_ops", 0) / n,
        "sizer.candidates": cands / n,
        "sizer.pruned_frac": counts.get("sizer.pruned", 0) / cands if cands else 0.0,
        "sizer.nodes_computed": counts.get("sizer.nodes_computed", 0) / n,
    }


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=CHOICES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    BUILD.mkdir(exist_ok=True)
    # The compiled-kernel provider builds its C library on demand; keep
    # that build inside the checkout.
    os.environ["REPRO_COMPILED_CACHE"] = str(BUILD / "repro-compiled")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as W

    if args.workload == "size-pruned-c432":
        wl = W.SizingWorkload(args.seed)
    elif args.workload == "ssta-25k":
        wl = W.SstaWorkload(args.seed)
    else:
        wl = W.ServiceWorkload(args.seed, ROOT)
    settings = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "workload_settings": wl.settings()}
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    report = Report()
    if wl.kind == "service":
        run_service(wl, args.seconds, bool(args.trace), report)
    else:
        run_inprocess(wl, args.seconds, bool(args.trace), report)
    record = stamp(settings)
    print("stamp " + json.dumps(record, sort_keys=True))
    for problem in report.problems:
        print(f"check failed: {problem}")
    print(f"failed_frac = {report.failed / max(1, report.attempted)!r} "
          f"({report.failed} of {report.attempted} operations)")
    if args.trace:
        out = BUILD / f"perfbench-{args.workload}-seed{args.seed}-trace.json"
        out.write_text(json.dumps({"stamp": record,
                                   "metrics": report.metrics}, indent=1))
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": report.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
