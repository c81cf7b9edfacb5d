"""Span recorder for the benchmark's traced runs.

The program under test carries no tracing of its own, so the traced
run wraps the public entry point of each layer from the outside: every
boundary in :data:`BOUNDARIES` is replaced, for the duration of the
traced run only, by a wrapper that records one span per call (name,
start, end, parent span, operation id).  :meth:`Tracer.restore` puts
every original object back, and :func:`installed_wrappers` lets the
tests prove it did.

Spans are kept in flat arrays in memory and reduced at the end.  A
layer's *self time* is the duration of its spans minus the part of
each interval that child spans cover (:func:`self_times`).  The time
the benchmark's own root spans keep for themselves is the unattributed
remainder, so the layer self times plus the unattributed time add up
to the traced wall by construction.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Root span names opened by the benchmark itself (or by the traced
#: server around each request).  Their self time is the unattributed
#: remainder.
ROOTS = ("setup", "op", "service.request")

_MARK = "_perfbench_span"


def _count_len(arg: int) -> Callable:
    return lambda args, kwargs, result: len(args[arg])


def _count_true(args, kwargs, result) -> int:
    return 1 if result is True else 0


#: (module, attribute path, span name, extra counter, count function).
#: A counter adds ``count(args, kwargs, result)`` to ``extra counter``
#: per call, e.g. the number of pairs in one batched ADD.
BOUNDARIES: List[Tuple[str, str, str, Optional[str], Optional[Callable]]] = [
    ("repro.netlist.generate", "generate_circuit", "netlist.load", None, None),
    ("repro.netlist.benchmarks", "load", "netlist.load", None, None),
    ("repro.timing.graph", "TimingGraph.__init__", "graph.build", None, None),
    ("repro.timing.delay_model", "DelayModel.delay_pdf", "delay_model.pdf",
     None, None),
    ("repro.timing.ssta", "run_ssta", "ssta.run", None, None),
    ("repro.timing.ssta", "compute_level_arrivals", "ssta.level",
     "ssta.level_nodes", _count_len(0)),
    ("repro.core.perturbation", "PerturbationFront.__init__", "front.init",
     None, None),
    ("repro.core.perturbation", "PerturbationFront.propagate_one_level",
     "front.step", None, None),
    ("repro.core.perturbation", "PerturbationFront.try_rebase",
     "front.rebase", "front.rebase_ok", _count_true),
    ("repro.dist.metrics", "max_percentile_gap", "bound.gap", None, None),
    ("repro.dist.ops", "convolve_many", "ops.add", "ops.add_pairs",
     _count_len(0)),
    ("repro.dist.ops", "stat_max_groups", "ops.max", "ops.max_groups",
     _count_len(0)),
    ("repro.exec.executor", "SerialExecutor.run_convolve_batch",
     "kernel.add", None, None),
    ("repro.exec.executor", "SerialExecutor.run_max_batch", "kernel.max",
     None, None),
    ("repro.dist.pdf", "DiscretePDF.trimmed", "pdf.trim", None, None),
    # Cache probes: key construction (fingerprints included) and the
    # lookups; stores separately.
    ("repro.dist.cache", "ConvolutionCache.convolve_key", "cache.probe",
     None, None),
    ("repro.dist.cache", "ConvolutionCache.max_key", "cache.probe", None, None),
    ("repro.dist.cache", "ConvolutionCache.node_key", "cache.probe", None, None),
    ("repro.dist.cache", "ConvolutionCache.lookup_convolve", "cache.probe",
     None, None),
    ("repro.dist.cache", "ConvolutionCache.lookup_max", "cache.probe",
     None, None),
    ("repro.dist.cache", "ConvolutionCache.lookup_node", "cache.probe",
     None, None),
    ("repro.dist.cache", "ConvolutionCache.lookup_gap", "cache.probe",
     None, None),
    ("repro.dist.cache", "ConvolutionCache.store_convolve", "cache.store",
     None, None),
    ("repro.dist.cache", "ConvolutionCache.store_max", "cache.store",
     None, None),
    ("repro.dist.cache", "ConvolutionCache.store_node", "cache.store",
     None, None),
    ("repro.dist.cache", "ConvolutionCache.store_gap", "cache.store",
     None, None),
]

#: Server-side roots: one operation per analysis request.
SERVICE_ROOTS = [
    ("repro.service.state", "ServiceState.analyze", "service.request"),
    ("repro.service.state", "ServiceState.optimize", "service.request"),
]


def import_all_repro() -> None:
    """Import every ``repro`` submodule, so no module first binds a
    wrapped function during the traced run (it would keep the wrapper
    after :meth:`Tracer.restore`).  Optional-dependency modules that
    fail to import are skipped."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        try:
            importlib.import_module(info.name)
        except ImportError:
            pass


def _repro_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def installed_wrappers() -> List[str]:
    """Names of ``repro`` module or class attributes that are still
    span wrappers (empty outside a traced run)."""
    found = []
    for mod in _repro_modules():
        for attr, value in list(vars(mod).items()):
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, raw in vars(value).items():
                    fn = getattr(raw, "__func__", raw)
                    if hasattr(fn, _MARK):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found


class Tracer:
    """In-memory span store plus the wrapper installer.

    Spans are appended to flat arrays under one lock (handler threads
    of the traced server record concurrently); each thread keeps its
    own stack of open spans, so a span's parent is always the open
    span of the same thread.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_op = 0
        self._patched: list = []

    # -- recording -----------------------------------------------------
    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.op = -1
        return stack

    def _enter(self, nid: int, new_op: bool) -> int:
        stack = self._stack()
        with self._lock:
            if new_op:
                self._local.op = self._next_op
                self._next_op += 1
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._local.op)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(i)
        return i

    def _exit(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, *, new_op: bool = False):
        """Record one span around the ``with`` body; ``new_op`` starts
        a new operation id (one sizing run, SSTA pass or request)."""
        i = self._enter(self._nid(name), new_op)
        try:
            yield
        finally:
            self._exit(i)

    def add_count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn: Callable, name: str, counter: Optional[str] = None,
             count: Optional[Callable] = None, new_op: bool = False):
        """A span-recording wrapper around ``fn``."""
        nid = self._nid(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = enter(nid, new_op)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(i)
            if counter is not None:
                self.add_count(counter, count(args, kwargs, result))
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, roots=()) -> None:
        """Replace every boundary (and every ``repro`` module binding
        of a wrapped module-level function) by its wrapper; ``roots``
        are boundaries that each start a new operation."""
        import_all_repro()
        specs = [(m, p, n, c, f, False) for m, p, n, c, f in BOUNDARIES]
        specs += [(m, p, n, None, None, True) for m, p, n in roots]
        for module, path, name, counter, count, new_op in specs:
            mod = importlib.import_module(module)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(
                        self.wrap(raw.__func__, name, counter, count, new_op)
                    )
                else:
                    new = self.wrap(raw, name, counter, count, new_op)
                self._patch(cls, meth, new)
                continue
            orig = getattr(mod, path)
            new = self.wrap(orig, name, counter, count, new_op)
            for other in _repro_modules():
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        self._patch(other, attr, new)

    def restore(self) -> None:
        """Put back every object :meth:`install` replaced."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- reduction -----------------------------------------------------
    def arrays(self) -> Tuple[np.ndarray, ...]:
        n = len(self.end)
        return (
            np.frombuffer(self.name_id, dtype=np.int64, count=n),
            np.frombuffer(self.start, dtype=np.float64, count=n),
            np.frombuffer(self.end, dtype=np.float64, count=n),
            np.frombuffer(self.parent, dtype=np.int64, count=n),
        )

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, total time and self time (seconds)."""
        name_id, start, end, parent = self.arrays()
        own = self_times(start, end, parent)
        dur = end - start
        out = {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return out

    def root_wall(self) -> float:
        """Total duration of the root spans (the traced wall)."""
        name_id, start, end, parent = self.arrays()
        return float((end - start)[parent < 0].sum())


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the union of its children's
    intervals, clipped to the span.  Children of one parent may
    overlap (spans recorded on several threads under one parent); the
    union counts covered time once."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    n = start.size
    covered = np.zeros(n)
    child = np.nonzero(parent >= 0)[0]
    if child.size:
        order = child[np.lexsort((start[child], parent[child]))]
        p = parent[order]
        cs = np.maximum(start[order], start[p])
        ce = np.maximum(np.minimum(end[order], end[p]), cs)
        same = np.r_[False, p[1:] == p[:-1]]
        prev_end = np.r_[-np.inf, ce[:-1]]
        overlapping = np.unique(p[same & (cs < prev_end)])
        simple = ~np.isin(p, overlapping)
        covered += np.bincount(p[simple], weights=(ce - cs)[simple],
                               minlength=n)
        for par in overlapping:
            sel = p == par
            total = 0.0
            run_s = run_e = None
            for s, e in zip(cs[sel], ce[sel]):
                if run_e is None or s > run_e:
                    if run_e is not None:
                        total += run_e - run_s
                    run_s, run_e = s, e
                elif e > run_e:
                    run_e = e
            if run_e is not None:
                total += run_e - run_s
            covered[par] = total
    return (end - start) - covered
