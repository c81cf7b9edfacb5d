"""Unit tests for the execution seam (`repro.exec`).

Covers the serial executor against the inline kernel helpers (bitwise
outputs, identical counter deltas) and the kernel-layer integration
(``convolve_many`` / ``stat_max_groups`` with the executor == without,
values, tallies, and cache statistics).
"""

import numpy as np
import pytest

from repro.dist.backends import get_backend
from repro.dist.cache import ConvolutionCache
from repro.dist.families import truncated_gaussian_pdf
from repro.dist.ops import (
    OpCounter,
    convolve_batch_raws,
    convolve_many,
    max_batch_raws,
    stat_max_groups,
)
from repro.exec import SERIAL_EXECUTOR, SerialExecutor


def g(center, sigma=40.0, dt=4.0):
    return truncated_gaussian_pdf(dt, center, sigma)


def _pairs(n):
    return [
        (g(500.0 + 7 * i).masses, g(800.0 + 11 * i, 25.0).masses)
        for i in range(n)
    ]


def _groups(n):
    out = []
    for i in range(n):
        k = 2 + (i % 3)
        out.append(tuple(g(400.0 + 13 * i + 31 * j, 20.0 + 5 * j)
                         for j in range(k)))
    return out


class TestSerialExecutor:
    def test_matches_inline_helpers_and_tallies(self, backend):
        kernel = get_backend(backend)
        pairs = _pairs(5)
        counter = OpCounter()
        raws = SerialExecutor().run_convolve_batch(
            kernel, pairs, counter=counter
        )
        ref = convolve_batch_raws(kernel, pairs)
        for a, b in zip(raws, ref):
            assert np.array_equal(a, b)
        assert counter.convolutions == 5

        groups = _groups(4)
        outs = SERIAL_EXECUTOR.run_max_batch(groups, counter=counter)
        ref = max_batch_raws(groups)
        for (lo_a, m_a), (lo_b, m_b) in zip(outs, ref):
            assert lo_a == lo_b
            assert np.array_equal(m_a, m_b)
        assert counter.max_ops == sum(len(gr) - 1 for gr in groups)


class TestKernelLayerIntegration:
    """``convolve_many`` / ``stat_max_groups`` with the executor must be
    indistinguishable from the inline path — results, counters, and
    cache statistics — for every backend, cache on and off."""

    @staticmethod
    def _both(kernel_fn, operands, backend, cache_cap):
        """``(results, counter, cache)`` inline, then via the executor."""
        out = []
        for ex in (None, SERIAL_EXECUTOR):
            cache = None if cache_cap is None else ConvolutionCache(cache_cap)
            counter = OpCounter()
            res = kernel_fn(
                operands, trim_eps=1e-9, counter=counter, backend=backend,
                cache=cache, executor=ex,
            )
            out.append((res, counter, cache))
        return out

    @staticmethod
    def _assert_same(ref, got, tally):
        (ref_res, ref_counter, ref_cache), (res, counter, cache) = ref, got
        for a, b in zip(res, ref_res):
            assert a.offset == b.offset
            assert np.array_equal(a.masses, b.masses)
        assert tally(counter) == tally(ref_counter)
        if cache is not None:
            assert (cache.stats.hits, cache.stats.misses) == (
                ref_cache.stats.hits, ref_cache.stats.misses
            )

    @pytest.mark.parametrize("cache_cap", [None, 1 << 12])
    def test_convolve_many(self, backend, cache_cap):
        pdf_pairs = [
            (g(500.0 + 3 * i), g(700.0 + 5 * (i % 4), 30.0))
            for i in range(9)
        ]
        pdf_pairs.append(pdf_pairs[0])  # intra-batch duplicate
        ref, got = self._both(convolve_many, pdf_pairs, backend, cache_cap)
        self._assert_same(
            ref, got, lambda c: (c.convolutions, c.convolve_cache_hits)
        )

    @pytest.mark.parametrize("cache_cap", [None, 1 << 12])
    def test_stat_max_groups(self, backend, cache_cap):
        groups = [list(gr) for gr in _groups(7)]
        groups.append(list(groups[1]))  # intra-batch duplicate group
        groups.append([g(100.0)])       # single-operand passthrough
        ref, got = self._both(stat_max_groups, groups, backend, cache_cap)
        self._assert_same(
            ref, got, lambda c: (c.max_ops, c.max_cache_hits)
        )
