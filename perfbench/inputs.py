"""Seeded inputs for the benchmark workloads.

Circuits: the seed relabels a paper circuit.  Net names and the gate
declaration order are shuffled; pin order and the primary input and
output lists keep their order.  Every seed therefore yields a distinct
netlist (different names, different topological order, so a different
candidate order for the sizers) with the same timing graph shape, and
the work a workload does stays the same from seed to seed.  Seed 0 is
the paper circuit itself.

Request streams: the seed orders a fixed per-session mix of /analyze
and /optimize requests.  The mix is fixed so every stream carries the
same work; the order, and which client connection sends which
session, follow the seed.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.netlist.benchmarks import spec_for
from repro.netlist.circuit import Circuit
from repro.netlist import generate


def relabel(circuit: Circuit, seed: int) -> Circuit:
    """An isomorphic copy of ``circuit`` with seeded net names and gate
    order; ``seed == 0`` returns the circuit unchanged."""
    if seed == 0:
        return circuit
    rng = random.Random(seed)
    gates = list(circuit.gates())
    nets = list(circuit.inputs) + [g.output for g in gates]
    ids = list(range(len(nets)))
    rng.shuffle(ids)
    rename = {net: f"n{k}" for net, k in zip(nets, ids)}
    rng.shuffle(gates)
    out = Circuit(f"{circuit.name}~{seed}")
    for net in circuit.inputs:
        out.add_input(rename[net])
    for g in gates:
        out.add_gate(g.cell, [rename[n] for n in g.inputs], rename[g.output],
                     g.width)
    for net in circuit.outputs:
        out.add_output(rename[net])
    return out


def seeded_circuit(name: str, seed: int, *, scale: float = 1.0) -> Circuit:
    """Generate paper circuit ``name`` (optionally scaled) and relabel
    it with ``seed``.  Generation runs every call (no memo), so it is
    part of the measured set-up."""
    spec = spec_for(name)
    if scale != 1.0:
        spec = spec.scaled(scale)
    # Called through the module so a traced run's wrapper sees it.
    return relabel(generate.generate_circuit(spec), seed)


#: One session's requests: (endpoint, circuit, scale, iterations).
#: Read-mostly analyses of three small circuits plus one pruned sizing
#: run per circuit (iterations=0 marks an analysis).
SESSION_MIX: Tuple[Tuple[str, str, float, int], ...] = (
    ("analyze", "c17", 1.0, 0),
    ("analyze", "c432", 0.25, 0),
    ("analyze", "c880", 0.25, 0),
    ("analyze", "c432", 0.25, 0),
    ("optimize", "c17", 1.0, 2),
    ("optimize", "c432", 0.25, 2),
    ("optimize", "c880", 0.25, 2),
)


def session_requests(seed: int, client: int, index: int) -> List[tuple]:
    """The ``index``-th session of client connection ``client``."""
    rng = random.Random(f"{seed}/{client}/{index}")
    reqs = list(SESSION_MIX)
    rng.shuffle(reqs)
    return reqs
