"""Tests for the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_nested_children():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    own = spans.self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0


def test_self_time_overlapping_children_count_once():
    # Children recorded on two threads under one parent overlap:
    # [1, 5] and [3, 7] cover [1, 7]; [8, 12] is clipped to [8, 10].
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 7.0, 12.0]
    parent = [-1, 0, 0, 0]
    own = spans.self_times(start, end, parent)
    assert own[0] == pytest.approx(10.0 - 6.0 - 2.0)
    assert own[1:].tolist() == [4.0, 4.0, 4.0]


def test_self_time_child_contained_in_sibling():
    start = [0.0, 1.0, 2.0, 4.0]
    end = [10.0, 9.0, 3.0, 5.0]
    parent = [-1, 0, 0, 0]
    assert spans.self_times(start, end, parent)[0] == pytest.approx(2.0)


def _originals():
    import repro.core.pruned_sizer as ps
    import repro.timing.ssta as ssta
    from repro.dist.cache import ConvolutionCache
    from repro.dist.pdf import DiscretePDF

    return {
        "run_ssta": ssta.run_ssta,
        "pruned.run_ssta": ps.run_ssta,
        "trimmed": DiscretePDF.__dict__["trimmed"],
        "convolve_key": ConvolutionCache.__dict__["convolve_key"],
    }


def _tiny_run():
    from repro.config import DEFAULT_CONFIG
    from repro.core.pruned_sizer import PrunedStatisticalSizer
    from repro.dist.cache import DEFAULT_CACHE_CAPACITY
    from workloads import sizing_fingerprint

    config = DEFAULT_CONFIG.with_updates(cache=DEFAULT_CACHE_CAPACITY)
    circuit = inputs.seeded_circuit("c432", 3, scale=0.25)
    result = PrunedStatisticalSizer(circuit, config=config,
                                    max_iterations=2).run()
    return sizing_fingerprint(result)


def test_traced_run_is_bitwise_untraced_and_restores_wrappers():
    spans.import_all_repro()
    before = _originals()
    assert spans.installed_wrappers() == []
    plain = _tiny_run()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spans.installed_wrappers()
        with tracer.span("op", new_op=True):
            traced = _tiny_run()
    finally:
        tracer.restore()
    assert traced == plain
    assert spans.installed_wrappers() == []
    after = _originals()
    assert all(after[k] is before[k] for k in before)
    summary = tracer.summary()
    assert summary["front.step"]["calls"] > 0
    assert summary["netlist.load"]["calls"] == 1
    layered = sum(v["self_s"] for k, v in summary.items() if k != "op")
    assert layered + summary["op"]["self_s"] == pytest.approx(
        tracer.root_wall(), rel=1e-9)
    # every span of the run carries the operation id of its root
    assert set(np.frombuffer(tracer.op, dtype=np.int64).tolist()) == {0}


def _netlist(circuit):
    return (list(circuit.inputs), list(circuit.outputs),
            [(g.output, g.cell.name, g.inputs) for g in circuit.gates()])


def test_seed_determines_circuit():
    a = _netlist(inputs.seeded_circuit("c432", 5))
    assert a == _netlist(inputs.seeded_circuit("c432", 5))
    assert a != _netlist(inputs.seeded_circuit("c432", 6))
    paper = inputs.seeded_circuit("c432", 0)
    from repro.netlist.benchmarks import load

    assert _netlist(paper) == _netlist(load("c432"))
    # a relabelled circuit is isomorphic: same sizes and depth
    other = inputs.seeded_circuit("c432", 6)
    assert (other.n_gates, other.depth()) == (paper.n_gates, paper.depth())


def test_seed_determines_request_stream():
    def stream(seed):
        return [inputs.session_requests(seed, k, i)
                for k in range(2) for i in range(5)]

    assert stream(1) == stream(1)
    assert stream(1) != stream(2)
    # the mix per session is fixed; only the order follows the seed
    assert sorted(stream(2)[0]) == sorted(inputs.SESSION_MIX)


def test_metric_names_and_interaction_map():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))
    assert [m["name"] for m in bench["per_layer"]] == list(run.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    spec = json.loads((HERE / "interactions.json").read_text())
    assert list(spec["layers"]) == list(run.LAYER_METRICS)
    assert set(spec["workloads"]) == set(run.CHOICES)
    e2e = {m["name"] for m in bench["end_to_end"]}
    for row in spec["layers"].values():
        assert set(row["moves"]) <= e2e
        assert set(row["zero_on"]) <= set(run.CHOICES)


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    values = list(range(1, 101))
    value, pct, n = run.tail(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10
