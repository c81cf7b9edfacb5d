"""Shared fixtures: small hand-built circuits and fast configs.

The hand-built circuits are small enough to reason about exactly:

* ``chain3`` — INV chain, no reconvergence (convolution only);
* ``diamond`` — classic reconvergent fan-out (max correlations);
* ``two_path`` — two parallel paths of different depth merging at one
  output gate (the minimal "wall" example of Figure 1);
* ``c17`` — the genuine ISCAS'85 netlist.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.library.library import default_library
from repro.netlist.bench import C17_BENCH, parse_bench
from repro.netlist.circuit import Circuit

#: Coarse grid for fast unit tests.
FAST = AnalysisConfig(dt=8.0, delta_w=1.0)

from repro.dist import _compiled
from repro.dist.backends import available_backends

#: Every selectable convolution backend, straight from the registry so
#: a newly added backend is parametrized into the cross-backend suites
#: automatically.
ALL_BACKENDS = available_backends()

#: Extra leg of the ``backend`` fixture: ``compiled-auto`` with the C
#: provider switched off by the kill switch, so the degraded (pure-NumPy)
#: tier must meet every cross-backend contract the native one does.
DEGRADED_COMPILED = "compiled-auto-degraded"


@pytest.fixture
def fast_config():
    """Coarse-grid analysis config to keep unit tests quick."""
    return FAST


@pytest.fixture(params=ALL_BACKENDS + (DEGRADED_COMPILED,))
def backend(request, monkeypatch):
    """Parametrizes a test over every convolution backend, plus
    ``compiled-auto`` run degraded (:data:`DEGRADED_COMPILED`)."""
    if request.param != DEGRADED_COMPILED:
        return request.param
    monkeypatch.setenv(_compiled.DISABLE_ENV, "1")
    _compiled.reset_provider_cache()
    # Runs before monkeypatch restores the environment, so the next
    # test re-resolves the native provider.
    request.addfinalizer(_compiled.reset_provider_cache)
    assert _compiled.get_provider() is None
    return "compiled-auto"


@pytest.fixture
def backend_config(backend):
    """Default-grid config under each convolution backend — reruns the
    consuming test (SSTA, sizers, incremental updates) per backend."""
    return AnalysisConfig(backend=backend)


@pytest.fixture
def fast_backend_config(backend):
    """Coarse-grid variant of :func:`backend_config` for sizer suites."""
    return AnalysisConfig(dt=8.0, delta_w=1.0, backend=backend)


@pytest.fixture
def library():
    """The default 180nm-like cell library."""
    return default_library()


def build_chain3(library=None) -> Circuit:
    """a -> INV -> INV -> INV -> out (single path, three stages)."""
    lib = library if library is not None else default_library()
    inv = lib.get("INV_X1")
    c = Circuit("chain3")
    c.add_input("a")
    c.add_gate(inv, ["a"], "n1")
    c.add_gate(inv, ["n1"], "n2")
    c.add_gate(inv, ["n2"], "out")
    c.add_output("out")
    return c


def build_diamond(library=None) -> Circuit:
    """One driver fans out to two branches that reconverge at a NAND."""
    lib = library if library is not None else default_library()
    inv = lib.get("INV_X1")
    nand = lib.get("NAND2_X1")
    c = Circuit("diamond")
    c.add_input("a")
    c.add_gate(inv, ["a"], "stem")
    c.add_gate(inv, ["stem"], "left")
    c.add_gate(inv, ["stem"], "right")
    c.add_gate(nand, ["left", "right"], "out")
    c.add_output("out")
    return c


def build_two_path(library=None) -> Circuit:
    """A long and a short path from distinct inputs merging at a NAND —
    the minimal unbalanced-path example."""
    lib = library if library is not None else default_library()
    inv = lib.get("INV_X1")
    nand = lib.get("NAND2_X1")
    c = Circuit("two_path")
    c.add_input("a")
    c.add_input("b")
    c.add_gate(inv, ["a"], "l1")
    c.add_gate(inv, ["l1"], "l2")
    c.add_gate(inv, ["l2"], "l3")
    c.add_gate(inv, ["b"], "s1")
    c.add_gate(nand, ["l3", "s1"], "out")
    c.add_output("out")
    return c


@pytest.fixture
def chain3(library):
    return build_chain3(library)


@pytest.fixture
def diamond(library):
    return build_diamond(library)


@pytest.fixture
def two_path(library):
    return build_two_path(library)


@pytest.fixture
def c17():
    return parse_bench(C17_BENCH, name="c17")


@pytest.fixture
def rng():
    return np.random.default_rng(20050307)
