"""Golden-scale differentials for the engines that reuse forward SSTA.

``test_golden.py`` locks the forward sink of c17, c432, c880 and c1908
and pins level-batched == sequential forward propagation on them.
``test_level_batching.py`` proves the same for the backward pass, the
incremental update wave and the perturbation fronts, but only on small
random DAGs.  This module runs those contracts on the ISCAS golden
circuits, under every convolution backend (the ``backend`` fixture):

* **backward pass** — level-batched == sequential ``to_sink``, bitwise,
  with equal OpCounter tallies, cache on and off;
* **incremental update** — both modes reproduce a full rerun bitwise
  with the same recomputed-node count, and reverting a resize restores
  the base arrivals exactly (the sizers' trial-and-revert relies on it);
* **perturbation fronts** — batched == sequential, and a front run to
  completion reproduces the brute-force rerun's sink and sensitivity
  bit for bit (the exactness behind pruned == brute-force selection);
* **result cache** — a warm rerun and a save/load snapshot replay serve
  every operation from the cache with bitwise-identical arrivals, and a
  tiny cache churning evictions changes no value and keeps
  computed + hits equal to the golden cache-off tallies.
"""

import numpy as np
import pytest

from repro.core.objectives import default_objective
from repro.core.perturbation import PerturbationFront
from repro.core.sensitivity import perturbed_sink_pdf, statistical_sensitivity
from repro.dist._compiled import provider_kind
from repro.dist.cache import ConvolutionCache
from repro.dist.ops import OpCounter
from repro.netlist.benchmarks import load
from repro.timing.criticality import run_backward_ssta
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.incremental import update_ssta_after_resize
from repro.timing.ssta import run_ssta

from tests.timing.test_golden import GOLDEN_CIRCUITS, golden

#: Cache capacities: off, ample (no eviction on any golden circuit).
CACHES = (None, 4096)
#: Small enough to evict continuously on every golden circuit but c17.
TINY_CACHE = 32

#: Cache-off level-batched forward runs, one per (circuit, backend,
#: compiled provider) — read-only references the differentials compare
#: against.
_REFS: dict = {}


def _setup(circuit_name, cfg):
    circuit = load(circuit_name)
    graph = TimingGraph(circuit)
    return circuit, graph, DelayModel(circuit, config=cfg)


def _forward(circuit_name, cfg):
    circuit, graph, model = _setup(circuit_name, cfg)
    counter = OpCounter()
    result = run_ssta(graph, model, config=cfg, counter=counter)
    return result, counter, circuit, model


def _reference(circuit_name, backend_config):
    # The provider kind separates native from degraded compiled-auto.
    key = (circuit_name, backend_config.backend, provider_kind())
    if key not in _REFS:
        _REFS[key] = _forward(
            circuit_name, backend_config.with_updates(cache=None)
        )[0]
    return _REFS[key]


def _cache(capacity):
    return None if capacity is None else ConvolutionCache(capacity)


def _assert_bitwise(pdfs_a, pdfs_b):
    pdfs_a, pdfs_b = list(pdfs_a), list(pdfs_b)
    assert len(pdfs_a) == len(pdfs_b)
    for a, b in zip(pdfs_a, pdfs_b):
        assert a.offset == b.offset
        assert a.dt == b.dt
        assert np.array_equal(a.masses, b.masses)


def _tallies(counter):
    return (
        counter.convolutions,
        counter.max_ops,
        counter.convolve_cache_hits,
        counter.max_cache_hits,
    )


def _middle_gate(circuit):
    gates = circuit.topo_gates()
    return gates[len(gates) // 2]


@pytest.mark.parametrize("cache", CACHES)
@pytest.mark.parametrize("circuit", GOLDEN_CIRCUITS)
class TestBackwardGolden:
    def test_backward_batched_equals_sequential(
        self, circuit, cache, backend_config
    ):
        out = {}
        for level_batch in (True, False):
            cfg = backend_config.with_updates(
                level_batch=level_batch, cache=_cache(cache)
            )
            _, graph, model = _setup(circuit, cfg)
            counter = OpCounter()
            out[level_batch] = (
                run_backward_ssta(graph, model, config=cfg, counter=counter),
                counter,
            )
        _assert_bitwise(out[True][0].to_sink, out[False][0].to_sink)
        assert _tallies(out[True][1]) == _tallies(out[False][1])
        assert out[True][1].convolutions > 0


@pytest.mark.parametrize("circuit", GOLDEN_CIRCUITS)
class TestIncrementalGolden:
    @pytest.mark.parametrize("cache", CACHES)
    def test_batched_equals_sequential_equals_full_rerun(
        self, circuit, cache, backend_config
    ):
        out = {}
        for level_batch in (True, False):
            cfg = backend_config.with_updates(
                level_batch=level_batch, cache=_cache(cache)
            )
            base, _, circ, model = _forward(circuit, cfg)
            gate = _middle_gate(circ)
            gate.width += 1.0
            recomputed = update_ssta_after_resize(base, model, [gate])
            fresh = run_ssta(base.graph, model, config=cfg)
            _assert_bitwise(base.arrivals, fresh.arrivals)
            out[level_batch] = (base, recomputed)
        _assert_bitwise(out[True][0].arrivals, out[False][0].arrivals)
        assert out[True][1] == out[False][1]
        assert out[True][1] > 0

    @pytest.mark.parametrize("level_batch", [True, False])
    def test_reverted_resize_restores_base(
        self, circuit, level_batch, backend_config
    ):
        cfg = backend_config.with_updates(level_batch=level_batch)
        base, _, circ, model = _forward(circuit, cfg)
        gates = circ.topo_gates()
        resized = [gates[0], _middle_gate(circ), gates[-1]]
        original = [g.width for g in resized]
        for g in resized:
            g.width += 2.0
        assert update_ssta_after_resize(base, model, resized) > 0
        for g, w in zip(resized, original):
            g.width = w
        update_ssta_after_resize(base, model, resized)
        ref = _reference(circuit, backend_config)
        _assert_bitwise(base.arrivals, ref.arrivals)


@pytest.mark.parametrize("circuit", GOLDEN_CIRCUITS)
class TestPerturbationFrontGolden:
    @pytest.mark.parametrize("cache", CACHES)
    def test_front_batched_equals_sequential(
        self, circuit, cache, backend_config
    ):
        out = {}
        for level_batch in (True, False):
            cfg = backend_config.with_updates(
                level_batch=level_batch, cache=_cache(cache)
            )
            base, _, circ, model = _forward(circuit, cfg)
            front = PerturbationFront(
                base.graph, model, base, _middle_gate(circ), cfg.delta_w,
                default_objective(),
            )
            trajectory = [front.smx]
            while not front.is_done:
                front.propagate_one_level()
                trajectory.append(front.smx)
            out[level_batch] = (front, trajectory)
        (fa, ta), (fb, tb) = out[True], out[False]
        assert ta == tb
        assert fa.sensitivity == fb.sensitivity
        assert fa.nodes_computed == fb.nodes_computed
        assert fa.reached_sink == fb.reached_sink
        if fa.reached_sink:
            _assert_bitwise([fa.sink_pdf], [fb.sink_pdf])

    @pytest.mark.parametrize("level_batch", [True, False])
    def test_front_reproduces_brute_force_rerun(
        self, circuit, level_batch, backend_config
    ):
        """The last gate in topological order drives a primary output:
        its front reaches the sink unless the perturbation is absorbed
        on the way, and either way its answer is the full rerun's, bit
        for bit."""
        cfg = backend_config.with_updates(level_batch=level_batch)
        base, _, circ, model = _forward(circuit, cfg)
        gate = circ.topo_gates()[-1]
        objective = default_objective()
        front = PerturbationFront(
            base.graph, model, base, gate, cfg.delta_w, objective
        )
        sensitivity = front.run_to_sink()
        width = gate.width
        brute_sink = perturbed_sink_pdf(base.graph, model, gate, cfg.delta_w)
        assert gate.width == width
        brute_s = statistical_sensitivity(
            base.graph, model, gate, cfg.delta_w, objective,
            objective.evaluate(base.sink_pdf),
        )
        assert sensitivity == brute_s
        if front.reached_sink:
            _assert_bitwise([front.sink_pdf], [brute_sink])
        else:
            assert sensitivity == 0.0
            _assert_bitwise([brute_sink], [base.sink_pdf])


@pytest.mark.parametrize("circuit", GOLDEN_CIRCUITS)
class TestResultCacheGolden:
    @pytest.mark.parametrize("level_batch", [True, False])
    def test_warm_rerun_is_all_hits_and_bitwise(
        self, circuit, level_batch, backend_config
    ):
        cfg = backend_config.with_updates(
            level_batch=level_batch, cache=ConvolutionCache(4096)
        )
        cold, cold_counter, _, _ = _forward(circuit, cfg)
        warm, warm_counter, _, _ = _forward(circuit, cfg)
        _assert_bitwise(warm.arrivals, cold.arrivals)
        ref = _reference(circuit, backend_config)
        _assert_bitwise(warm.arrivals, ref.arrivals)
        assert warm_counter.total_ops == 0
        assert warm_counter.cache_hits == (
            cold_counter.total_ops + cold_counter.cache_hits
        )

    def test_snapshot_replay_is_all_hits_and_bitwise(
        self, circuit, backend_config, tmp_path
    ):
        cache = ConvolutionCache(4096)
        cold, cold_counter, _, _ = _forward(
            circuit, backend_config.with_updates(cache=cache)
        )
        path = tmp_path / "cache.pkl"
        assert cache.save(path) == len(cache) > 0
        loaded = ConvolutionCache.load(path)
        replay, counter, _, _ = _forward(
            circuit, backend_config.with_updates(cache=loaded)
        )
        _assert_bitwise(replay.arrivals, cold.arrivals)
        assert counter.total_ops == 0
        assert counter.cache_hits == (
            cold_counter.total_ops + cold_counter.cache_hits
        )

    @pytest.mark.parametrize("level_batch", [True, False])
    def test_tiny_cache_churn_is_bitwise(
        self, circuit, level_batch, backend_config
    ):
        gold = golden(circuit)
        cache = ConvolutionCache(TINY_CACHE)
        cfg = backend_config.with_updates(level_batch=level_batch, cache=cache)
        result, counter, _, _ = _forward(circuit, cfg)
        ref = _reference(circuit, backend_config)
        _assert_bitwise(result.arrivals, ref.arrivals)
        # computed + hits is the cache-off tally of the same requests.
        assert counter.convolutions + counter.convolve_cache_hits == (
            gold["convolutions"]
        )
        assert counter.max_ops + counter.max_cache_hits == gold["max_ops"]
        assert len(cache) <= TINY_CACHE
        if circuit != "c17":
            assert cache.stats.evictions > 0
