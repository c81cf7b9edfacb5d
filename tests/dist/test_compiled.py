"""Compiled-tier harness: provider differentials, fused construction,
the bitwise MAX sweep, the fallback matrix, and registry compatibility.

Layered on the cross-backend harness (the ``compiled-auto`` name
joins every ``ALL_BACKENDS`` loop automatically via the registry), this
module adds what the generic loops cannot check:

* the compiled tier's *own* equivalence classes — raw convolutions
  within 1e-12 TV of ``direct``, MAX sweeps bitwise, scalar == batched
  bitwise, cache replays bitwise with fresh computes;
* the Theorem-4 percentile gap, which runs compiled under every
  backend: ``==`` the NumPy body on Hypothesis and hand-picked pairs,
  its own fallback matrix, and thread safety;
* the degradation matrix — ``REPRO_DISABLE_COMPILED``, no C compiler —
  under which ``compiled-auto`` must *be* the pure-NumPy direct kernel
  below its crossover, bit for bit, with exactly one warning.

Every operand here sits below the compiled-auto crossover unless a
test says otherwise, so ``compiled-auto`` runs the compiled side.

Every test here passes whether or not a provider resolves on this
host: provider-specific classes skip when the tier is degraded, and
the degradation tests force it.
"""

from __future__ import annotations

import sys
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import AnalysisConfig
from repro.dist import _compiled, metrics
from repro.dist.backends import (
    CompiledAutoBackend,
    get_backend,
    is_registry_backend,
)
from repro.dist.cache import ConvolutionCache
from repro.dist.metrics import (
    _VERTICAL_NOISE_FLOOR,
    _numpy_gap,
    max_percentile_gap,
)
from repro.dist.ops import (
    OpCounter,
    _max_masses,
    convolve,
    convolve_many,
    max_batch_raws,
    stat_max_groups,
    stat_max_many,
)
from repro.dist.pdf import DiscretePDF
from repro.errors import DistributionError

from tests.dist.test_backends import TV_TOL, pdfs

#: Resolved once at collection: the host's C provider, or None when
#: degraded.
PROVIDER = _compiled.get_provider()

#: The one compiled backend.
CA = get_backend("compiled-auto")

needs_provider = pytest.mark.skipif(
    PROVIDER is None,
    reason=f"compiled tier degraded ({_compiled.fail_reason()})",
)
needs_max_sweep = pytest.mark.skipif(
    PROVIDER is None or not PROVIDER.max_ok,
    reason="compiled MAX sweep unavailable",
)
needs_gap = pytest.mark.skipif(
    PROVIDER is None or not PROVIDER.gap_ok,
    reason="compiled percentile gap unavailable",
)


def _tv(p: DiscretePDF, q: DiscretePDF) -> float:
    """Total variation on the union grid (absolute-bin alignment)."""
    lo = min(p.offset, q.offset)
    hi = max(p.offset + p.masses.size, q.offset + q.masses.size)
    a = np.zeros(hi - lo)
    b = np.zeros(hi - lo)
    a[p.offset - lo : p.offset - lo + p.masses.size] = p.masses
    b[q.offset - lo : q.offset - lo + q.masses.size] = q.masses
    return 0.5 * float(np.abs(a - b).sum())


def _rand_pdf(rng, n, offset=0, dt=2.0) -> DiscretePDF:
    m = rng.random(n) + 1e-4
    return DiscretePDF(dt, offset, m)


@pytest.fixture
def fresh_provider_state():
    """Clear the provider memo after a test that patched the
    environment, so later callers re-resolve the real one.  The reset
    is deliberately lazy: this fixture tears down *before* monkeypatch
    restores the environment, so resolving eagerly here would memoize
    the patched world again."""
    yield
    _compiled.reset_provider_cache()


class TestCompiledDifferentials:
    """The tier's tolerance class vs the bitwise reference."""

    @settings(deadline=None, max_examples=60)
    @given(a=pdfs(), b=pdfs())
    def test_convolve_matches_direct_within_tv(self, a, b):
        assert CA.chooses(a.n_bins, b.n_bins) == "compiled"
        d = convolve(a, b, backend="direct")
        c = convolve(a, b, backend="compiled-auto")
        assert c.offset == d.offset
        assert _tv(c, d) < TV_TOL

    @settings(deadline=None, max_examples=60)
    @given(a=pdfs(), b=pdfs())
    def test_convolve_trimmed_within_semantic_budget(self, a, b):
        """With a trim the two arithmetic classes may cut the boundary
        bin differently when cumulative mass sits within an ulp of the
        threshold — a legal difference bounded by the trim budget
        itself, on top of the raw tolerance."""
        trim = 1e-9
        d = convolve(a, b, trim_eps=trim, backend="direct")
        c = convolve(a, b, trim_eps=trim, backend="compiled-auto")
        assert _tv(c, d) < trim + TV_TOL
        for q in (0.5, 0.99):
            assert c.percentile(q) == pytest.approx(
                d.percentile(q), abs=a.dt
            )

    def test_scalar_equals_batched_bitwise(self):
        rng = np.random.default_rng(7)
        pairs = [
            (_rand_pdf(rng, rng.integers(1, 40)),
             _rand_pdf(rng, rng.integers(1, 40), offset=3))
            for _ in range(17)
        ]
        batched = convolve_many(
            pairs, trim_eps=1e-9, backend="compiled-auto"
        )
        for (a, b), res in zip(pairs, batched):
            single = convolve(a, b, trim_eps=1e-9, backend="compiled-auto")
            assert single.offset == res.offset
            assert np.array_equal(single.masses, res.masses)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(11)
        a = _rand_pdf(rng, 33)
        b = _rand_pdf(rng, 17, offset=-4)
        r1 = convolve(a, b, trim_eps=1e-9, backend="compiled-auto")
        r2 = convolve(a, b, trim_eps=1e-9, backend="compiled-auto")
        assert r1.offset == r2.offset
        assert np.array_equal(r1.masses, r2.masses)

    def test_result_honors_pdf_contract(self):
        rng = np.random.default_rng(13)
        a = _rand_pdf(rng, 29)
        b = _rand_pdf(rng, 31, offset=5)
        c = convolve(a, b, trim_eps=1e-9, backend="compiled-auto")
        assert np.all(c.masses >= 0.0)
        assert c.masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert not c.masses.flags.writeable
        # The fused construction must produce a fully usable PDF.
        assert c.percentile(0.5) <= c.percentile(0.99)
        assert c.trimmed(1e-9) is c  # trim-idempotence memo stamped


@needs_provider
class TestFusedConstruction:
    """Cache and executor interplay of the compiled construction."""

    def test_cache_hit_is_stored_object(self):
        cache = ConvolutionCache(64)
        rng = np.random.default_rng(17)
        a = _rand_pdf(rng, 21)
        b = _rand_pdf(rng, 13, offset=2)
        first = convolve(
            a, b, trim_eps=1e-9, backend="compiled-auto", cache=cache
        )
        again = convolve(
            a, b, trim_eps=1e-9, backend="compiled-auto", cache=cache
        )
        assert again is first

    def test_translated_replay_bitwise_with_fresh_compute(self):
        """The rebuild_trimmed hook: a hit at a shifted anchor rebuilds
        through the compiled trim, matching a fresh fused compute at
        that anchor bit for bit."""
        cache = ConvolutionCache(64)
        rng = np.random.default_rng(19)
        raw_a, raw_b = rng.random(27) + 1e-4, rng.random(18) + 1e-4
        a = DiscretePDF(2.0, 3, raw_a)
        b = DiscretePDF(2.0, -1, raw_b)
        convolve(a, b, trim_eps=1e-9, backend="compiled-auto", cache=cache)
        # Content-equal translation: same raw vectors normalized
        # identically, new offset (shifted_bins would renormalize and
        # perturb the last ulp — a legitimate miss).
        a2 = DiscretePDF(2.0, 10, raw_a)
        hit = convolve(
            a2, b, trim_eps=1e-9, backend="compiled-auto", cache=cache
        )
        fresh = convolve(a2, b, trim_eps=1e-9, backend="compiled-auto")
        assert hit.offset == fresh.offset
        assert np.array_equal(hit.masses, fresh.masses)
        assert cache.stats.hits >= 1

    def test_executor_raws_build_bitwise_with_inline(self):
        """trim_raws over executor-shipped raws == the inline fused
        batch (the trim is a pure function of the raw bits)."""
        from repro.exec.executor import SERIAL_EXECUTOR

        rng = np.random.default_rng(23)
        pairs = [
            (_rand_pdf(rng, rng.integers(2, 50)),
             _rand_pdf(rng, rng.integers(2, 50), offset=1))
            for _ in range(9)
        ]
        inline = convolve_many(pairs, trim_eps=1e-9, backend="compiled-auto")
        via_exec = convolve_many(
            pairs, trim_eps=1e-9, backend="compiled-auto",
            executor=SERIAL_EXECUTOR,
        )
        for r_i, r_e in zip(inline, via_exec):
            assert r_i.offset == r_e.offset
            assert np.array_equal(r_i.masses, r_e.masses)

    def test_counter_tallies_match_direct(self):
        rng = np.random.default_rng(29)
        pairs = [
            (_rand_pdf(rng, 12), _rand_pdf(rng, 9, offset=2))
            for _ in range(6)
        ]
        cd, cc = OpCounter(), OpCounter()
        convolve_many(pairs, trim_eps=1e-9, backend="direct", counter=cd)
        convolve_many(
            pairs, trim_eps=1e-9, backend="compiled-auto", counter=cc
        )
        assert cc.convolutions == cd.convolutions == len(pairs)


@st.composite
def max_groups(draw):
    """Batches of MAX operand groups: k = 1..6 operands per group with
    overlapping or disjoint supports and point masses mixed in, and
    sometimes several groups of one (k, union width) shape — the
    stacked NumPy path's unit."""
    def operand(max_bins=24):
        n = draw(st.integers(1, max_bins))
        raw = draw(st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n
        ))
        raw[draw(st.integers(0, n - 1))] += 1e-3  # positive total
        return n, raw

    groups = []
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(1, 6))
        kind = draw(st.sampled_from(["overlap", "disjoint", "points"]))
        pdfs_ = []
        offset = draw(st.integers(-20, 20))
        for _ in range(k):
            if kind == "points":
                n, raw = 1, [1.0]
            else:
                n, raw = operand()
            pdfs_.append(DiscretePDF(2.0, offset, raw))
            # Disjoint supports leave a gap after each operand.
            offset += (
                n + draw(st.integers(0, 6)) if kind == "disjoint"
                else draw(st.integers(-4, 4))
            )
        groups.append(tuple(pdfs_))
    if draw(st.booleans()):
        # Equal-shape stack: translated copies of the first group.
        shifts = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4))
        groups += [
            tuple(p.shifted_bins(d) for p in groups[0]) for d in shifts
        ]
    return groups


def _assert_raws_bitwise(got, groups):
    for (lo, masses), pdfs_ in zip(got, groups):
        ref_lo, ref = _max_masses(pdfs_)
        assert lo == ref_lo
        assert np.array_equal(masses, ref)


@needs_max_sweep
class TestCompiledMaxSweep:
    """The MAX sweep runs in C under every backend, bitwise the NumPy
    sweep (``_max_masses``, the reference)."""

    @settings(deadline=None, max_examples=150)
    @given(groups=max_groups())
    def test_batch_raws_bitwise_with_max_masses(self, groups):
        _assert_raws_bitwise(max_batch_raws(groups), groups)
        multi = [g for g in groups if len(g) > 1]
        if multi:
            built = stat_max_groups(multi, trim_eps=1e-9, backend="auto")
            for res, pdfs_ in zip(built, multi):
                lo, masses = _max_masses(pdfs_)
                ref = DiscretePDF(2.0, lo, masses).trimmed(1e-9)
                assert res.offset == ref.offset
                assert np.array_equal(res.masses, ref.masses)

    def test_every_backend_runs_the_c_sweep(self, monkeypatch):
        calls = []
        provider = _compiled.get_provider()
        sweep = provider.max_sweep

        def counted(groups):
            calls.append(len(groups))
            return sweep(groups)

        monkeypatch.setattr(provider, "max_sweep", counted)
        groups = self._groups(29, n_groups=3)
        for name in ("direct", "fft", "auto", "compiled-auto"):
            stat_max_groups(groups, trim_eps=1e-9, backend=name)
            stat_max_many(groups[0], trim_eps=1e-9, backend=name)
        assert calls == [3, 1] * 4

    def _groups(self, seed, n_groups=7):
        rng = np.random.default_rng(seed)
        return [
            tuple(
                _rand_pdf(
                    rng, int(rng.integers(2, 40)),
                    offset=int(rng.integers(-6, 7)),
                )
                for _ in range(int(rng.integers(2, 5)))
            )
            for _ in range(n_groups)
        ]

    def test_sweep_bitwise_with_numpy_sweep(self):
        groups = self._groups(31)
        _assert_raws_bitwise(PROVIDER.max_sweep(groups), groups)

    def test_stat_max_many_bitwise_across_backends(self):
        groups = self._groups(37, n_groups=3)
        for pdfs_ in groups:
            d = stat_max_many(pdfs_, trim_eps=1e-9, backend="direct")
            c = stat_max_many(pdfs_, trim_eps=1e-9, backend="compiled-auto")
            assert c.offset == d.offset
            assert np.array_equal(c.masses, d.masses)

    def test_stat_max_groups_bitwise_with_cache(self):
        groups = self._groups(41)
        ref = stat_max_groups(groups, trim_eps=1e-9, backend="direct")
        for cache in (None, ConvolutionCache(64)):
            got = stat_max_groups(
                groups, trim_eps=1e-9, backend="compiled-auto", cache=cache
            )
            for r, g in zip(ref, got):
                assert r.offset == g.offset
                assert np.array_equal(r.masses, g.masses)

    def test_single_group_sweep_matches_max_masses(self):
        for pdfs_ in self._groups(43, n_groups=4):
            _assert_raws_bitwise(PROVIDER.max_sweep([pdfs_]), [pdfs_])


def _spy_numpy_max(monkeypatch) -> list:
    """Record every group the NumPy reference ``_max_masses`` computes
    (a single-group batch always reaches it on the NumPy path)."""
    from repro.dist import ops

    calls = []

    def counted(pdfs_):
        calls.append(tuple(pdfs_))
        return _max_masses(pdfs_)

    monkeypatch.setattr(ops, "_max_masses", counted)
    return calls


class TestFallbackMatrix:
    """Degraded compiled-auto == pure-NumPy direct below its
    crossover, bit for bit, warned once — under the kill switch and
    under a host with no C compiler."""

    def _assert_degraded_is_direct(self):
        assert _compiled.provider_kind() is None
        rng = np.random.default_rng(47)
        a = _rand_pdf(rng, 33)
        b = _rand_pdf(rng, 17, offset=-2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert not CA.fused_trim_active
            c = convolve(a, b, trim_eps=1e-9, backend="compiled-auto")
        d = convolve(a, b, trim_eps=1e-9, backend="direct")
        assert c.offset == d.offset
        assert np.array_equal(c.masses, d.masses)
        # MAX falls back to the stock sweep — also bitwise.
        g = (a, b)
        md = stat_max_many(g, trim_eps=1e-9, backend="direct")
        mc = stat_max_many(g, trim_eps=1e-9, backend="compiled-auto")
        assert md.offset == mc.offset
        assert np.array_equal(md.masses, mc.masses)

    def test_kill_switch_degrades_to_direct(
        self, monkeypatch, fresh_provider_state
    ):
        monkeypatch.setenv(_compiled.DISABLE_ENV, "1")
        _compiled.reset_provider_cache()
        assert _compiled.get_provider() is None
        assert _compiled.DISABLE_ENV in _compiled.fail_reason()
        self._assert_degraded_is_direct()

    def test_kill_switch_max_runs_numpy_sweep(
        self, monkeypatch, fresh_provider_state
    ):
        monkeypatch.setenv(_compiled.DISABLE_ENV, "1")
        _compiled.reset_provider_cache()
        calls = _spy_numpy_max(monkeypatch)
        rng = np.random.default_rng(57)
        group = (_rand_pdf(rng, 9), _rand_pdf(rng, 11, offset=1))
        _assert_raws_bitwise(max_batch_raws([group]), [group])
        assert calls == [group]

    def test_kill_switch_prices_pairs_like_auto(
        self, monkeypatch, fresh_provider_state
    ):
        """Degraded, the compiled side is np.convolve, so compiled-auto
        prices pairs with auto's ratio: a 700x700 pair goes to FFT, bit
        for bit what auto computes."""
        monkeypatch.setenv(_compiled.DISABLE_ENV, "1")
        _compiled.reset_provider_cache()
        rng = np.random.default_rng(61)
        a = _rand_pdf(rng, 700)
        b = _rand_pdf(rng, 700, offset=3)
        auto = get_backend("auto")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert CA.chooses(700, 700) == "fft"
            c = convolve(a, b, trim_eps=1e-9, backend="compiled-auto")
            (cm,) = convolve_many(
                [(a, b)], trim_eps=1e-9, backend="compiled-auto"
            )
        assert auto.chooses(700, 700) == "fft"
        ref = convolve(a, b, trim_eps=1e-9, backend="auto")
        for got in (c, cm):
            assert got.offset == ref.offset
            assert np.array_equal(got.masses, ref.masses)

    @needs_provider
    def test_provider_keeps_compiled_ratio(self):
        assert CA.chooses(700, 700) == "compiled"

    def test_compiler_absent_degrades_to_direct(
        self, monkeypatch, fresh_provider_state
    ):
        """Module patching simulates the barest host: the C provider
        cannot build."""
        # The ambient kill switch (e.g. CI's degraded leg) would mask
        # the provider-resolution path this test is about.
        monkeypatch.delenv(_compiled.DISABLE_ENV, raising=False)

        class _NoCompiler:
            def __init__(self):
                raise RuntimeError("no C compiler found")

        monkeypatch.setattr(_compiled, "_CProvider", _NoCompiler)
        _compiled.reset_provider_cache()
        assert _compiled.get_provider() is None
        assert "no C compiler found" in _compiled.fail_reason()
        self._assert_degraded_is_direct()

    def test_degraded_warns_exactly_once(
        self, monkeypatch, fresh_provider_state
    ):
        monkeypatch.setenv(_compiled.DISABLE_ENV, "1")
        _compiled.reset_provider_cache()
        monkeypatch.setattr(_compiled, "_warned", False)
        rng = np.random.default_rng(53)
        a = _rand_pdf(rng, 9)
        b = _rand_pdf(rng, 7)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            convolve(a, b, backend="compiled-auto")
            convolve(a, b, backend="compiled-auto")
        degraded = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "compiled kernel tier unavailable" in str(w.message)
        ]
        assert len(degraded) == 1
        assert "compiled-auto" in str(degraded[0].message)

    def test_self_check_failure_rejects_provider(
        self, monkeypatch, fresh_provider_state
    ):
        """A provider that cannot prove its contract never serves."""
        monkeypatch.delenv(_compiled.DISABLE_ENV, raising=False)

        class _LyingProvider:
            kind = "cext"
            max_ok = True

            def conv_trim_many(self, pairs, dts, offsets, eps, want):
                raise AssertionError("wrong bits")

        monkeypatch.setattr(
            _compiled, "_CProvider", lambda: _LyingProvider()
        )
        _compiled.reset_provider_cache()
        assert _compiled.get_provider() is None
        assert "self-check failed" in _compiled.fail_reason()

    @needs_provider
    def test_max_sweep_mismatch_disables_only_the_sweep(self, monkeypatch):
        """A max_ok=False provider still serves ADD; every MAX runs
        the NumPy sweep (bitwise anyway, by the guard)."""
        p = _compiled.get_provider()
        monkeypatch.setattr(p, "max_ok", False)

        def refuse(groups):
            raise AssertionError("sweep ran with max_ok=False")

        monkeypatch.setattr(p, "max_sweep", refuse)
        calls = _spy_numpy_max(monkeypatch)
        assert CA.fused_trim_active
        rng = np.random.default_rng(59)
        group = (_rand_pdf(rng, 9), _rand_pdf(rng, 11, offset=1))
        _assert_raws_bitwise(max_batch_raws([group]), [group])
        assert calls == [group]
        for name in ("auto", "compiled-auto"):
            stat_max_many(group, trim_eps=1e-9, backend=name)


class TestRegistryCompat:
    """The compiled tier must stay a registry backend so name-keyed
    machinery (cache snapshots) keeps working."""

    def test_compiled_backend_is_a_registry_singleton(self):
        assert is_registry_backend(CA)
        assert get_backend("compiled-auto") is CA

    @needs_provider
    def test_compiled_side_is_the_provider_bitwise(self):
        """Below the crossover compiled-auto's raw convolution is the
        provider's, bit for bit, scalar and batched."""
        rng = np.random.default_rng(71)
        a, b = rng.random(33) + 1e-4, rng.random(17) + 1e-4
        assert CA.chooses(a.size, b.size) == "compiled"
        ref = PROVIDER.conv_one(a, b)
        assert np.array_equal(CA.convolve_masses(a, b), ref)
        assert np.array_equal(CA.convolve_many([(a, b)])[0], ref)

    def test_cache_snapshot_roundtrip_under_compiled(self, tmp_path):
        cache = ConvolutionCache(64)
        rng = np.random.default_rng(61)
        pairs = [
            (_rand_pdf(rng, 15), _rand_pdf(rng, 12, offset=1))
            for _ in range(5)
        ]
        ref = convolve_many(
            pairs, trim_eps=1e-9, backend="compiled-auto", cache=cache
        )
        path = tmp_path / "snap.pkl"
        assert cache.save(path) == len(pairs)
        loaded = ConvolutionCache.load(path)
        hits = convolve_many(
            pairs, trim_eps=1e-9, backend="compiled-auto", cache=loaded
        )
        assert loaded.stats.hits == len(pairs)
        for r, h in zip(ref, hits):
            assert r.offset == h.offset
            assert np.array_equal(r.masses, h.masses)

    @pytest.mark.parametrize("name", ["compiled", "compiled-fast"])
    def test_unknown_backend_raises_distribution_error(self, name):
        """``compiled`` is a retired name: rejected like any typo, and
        the message lists the four backends that remain."""
        available = "available: direct, fft, auto, compiled-auto$"
        with pytest.raises(DistributionError, match=available):
            AnalysisConfig(backend=name)
        with pytest.raises(DistributionError, match=available):
            get_backend(name)

    def test_invalid_cost_ratio_rejected(self):
        with pytest.raises(DistributionError):
            CompiledAutoBackend(cost_ratio=-1.0)

    def test_compiled_auto_dispatch_boundaries(self):
        ca = get_backend("compiled-auto")
        assert ca.chooses(17, 17) == "compiled"
        assert ca.chooses(33, 129) == "compiled"
        assert ca.chooses(4097, 4097) == "fft"
        # Asymmetric pairs stay compiled (direct degenerates to O(N)).
        assert ca.chooses(1, 8192) == "compiled"

    def test_compiled_auto_fft_side_matches_fft_backend(self):
        rng = np.random.default_rng(67)
        n = 4097
        a = DiscretePDF(2.0, 0, rng.random(n) + 1e-4)
        b = DiscretePDF(2.0, 3, rng.random(n) + 1e-4)
        ca = get_backend("compiled-auto")
        assert ca.chooses(n, n) == "fft"
        via_ca = convolve(a, b, backend="compiled-auto")
        via_fft = convolve(a, b, backend="fft")
        assert _tv(via_ca, via_fft) < TV_TOL


def _same_gap(got: float, ref: float) -> bool:
    """The gap contract: the same float, and the same bits unless the
    value is a zero (``np.max`` picks between +0 and -0 by order)."""
    return got == ref and (ref == 0.0 or got.hex() == ref.hex())


def _overshooting_masses() -> np.ndarray:
    """Normalized masses whose sequential cumsum passes 1.0 before the
    last bin (the clip the knot builder must mirror): a sub-ulp tail,
    as trimming leaves, behind a body whose rounding overshoots."""
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        raw = np.concatenate([rng.random(38), [1e-17, 1e-17]])
        m = DiscretePDF(2.0, 0, raw).masses
        if float(np.cumsum(m)[:-1].max()) > 1.0:
            return m
    raise AssertionError("no overshooting cumsum found")


def _gap_cases() -> list:
    rng = np.random.default_rng(83)
    a = rng.random(41) + 1e-4
    b = rng.random(23) + 1e-4
    plateau = a.copy()
    plateau[12:19] = 0.0
    plateau[30:31] = 0.0
    ramp = a.copy()
    ramp[:6] = 0.0
    norm = DiscretePDF(2.0, 0, a).masses
    over = _overshooting_masses()
    cases = {
        "interior-plateaus": (plateau, 0, a, 1),
        "interior-plateaus-rev": (a, 1, plateau, 0),
        "leading-zero-ramp": (ramp, 0, a, 0),
        "leading-zero-ramp-rev": (a, 2, ramp, 0),
        "both-zero-ramps": (ramp, 0, plateau[::-1].copy(), 3),
        "point-masses": ([1.0], 7, [1.0], 4),
        "point-masses-rev": ([1.0], 4, [1.0], 7),
        "point-vs-spread": ([1.0], 20, a, 0),
        "spread-vs-point": (a, 0, [1.0], 20),
        "disjoint-a-first": (a, 0, b, 200),
        "disjoint-b-first": (a, 200, b, 0),
        "identical": (a, 3, a, 3),
        "shifted-twin-later": (a, 0, a, 5),
        "shifted-twin-earlier": (a, 5, a, 0),
        "overshoot": (over, 0, b, 10),
        "overshoot-twin": (over, 0, over, 1),
    }
    # Near-copies whose margins straddle the 1e-11 vertical floor.
    for eps in (0.5e-11, 1e-11, 1.0000001e-11, 2e-11, 1e-9):
        nudged = norm.copy()
        nudged[10] += eps
        nudged[11] -= eps
        cases[f"floor-{eps:g}"] = (norm, 0, nudged, 0)
        cases[f"floor-{eps:g}-rev"] = (nudged, 0, norm, 0)
    return [
        pytest.param(
            DiscretePDF(2.0, oa, np.asarray(ma, dtype=float)),
            DiscretePDF(2.0, ob, np.asarray(mb, dtype=float)),
            id=name,
        )
        for name, (ma, oa, mb, ob) in cases.items()
    ]


@st.composite
def gap_pairs(draw):
    """(base, perturbed)-like pairs: independent draws near each other,
    identical or shifted twins, and one-bin mass transfers."""
    a = draw(pdfs(max_bins=48, max_offset=12))
    kind = draw(st.sampled_from(["independent", "twin", "transfer"]))
    if kind == "independent":
        return a, draw(pdfs(max_bins=48, max_offset=12))
    if kind == "twin":
        return a, DiscretePDF(a.dt, a.offset + draw(st.integers(-3, 3)),
                              a.masses)
    m = a.masses.copy()
    i = draw(st.integers(0, m.size - 1))
    j = draw(st.integers(0, m.size - 1))
    moved = m[i] * draw(st.floats(0.0, 1.0))
    m[i] -= moved
    m[j] += moved
    return a, DiscretePDF(a.dt, a.offset, m)


class TestCompiledGap:
    """The Theorem-4 gap in the C provider: the NumPy body's value on
    every backend, with the NumPy body as the fallback."""

    @needs_provider
    def test_provider_gap_is_active(self):
        assert PROVIDER.gap_ok

    @needs_gap
    @settings(deadline=None, max_examples=300)
    @given(gap_pairs())
    def test_matches_numpy_gap(self, pair):
        a, b = pair
        ref = _numpy_gap(a, b)
        assert _same_gap(PROVIDER.gap(a, b, _VERTICAL_NOISE_FLOOR), ref)
        assert _same_gap(max_percentile_gap(a, b), ref)
        assert _same_gap(max_percentile_gap(b, a), _numpy_gap(b, a))

    @needs_gap
    @pytest.mark.parametrize("a, b", _gap_cases())
    def test_hand_picked_cases(self, a, b):
        ref = _numpy_gap(a, b)
        assert _same_gap(PROVIDER.gap(a, b, _VERTICAL_NOISE_FLOOR), ref)

    def test_overshoot_case_overshoots(self):
        """The hand-picked overshoot case really exercises the clip."""
        over = _overshooting_masses()
        assert float(np.cumsum(over)[:-1].max()) > 1.0

    def test_kill_switch_runs_numpy_body(
        self, monkeypatch, fresh_provider_state
    ):
        monkeypatch.setenv(_compiled.DISABLE_ENV, "1")
        _compiled.reset_provider_cache()
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return _numpy_gap(a, b)

        monkeypatch.setattr(metrics, "_numpy_gap", counted)
        rng = np.random.default_rng(97)
        a, b = _rand_pdf(rng, 12), _rand_pdf(rng, 15, offset=1)
        assert _same_gap(max_percentile_gap(a, b), _numpy_gap(a, b))
        assert calls == [(a, b)]

    def test_numba_in_sys_modules_leaves_c_provider_and_gap(
        self, monkeypatch, fresh_provider_state
    ):
        """An importable ``numba`` changes nothing: the C provider
        resolves and serves the gap.  (A numba provider once took
        precedence and sent every gap back to the NumPy body.)"""
        import types

        fake = types.ModuleType("numba")
        fake.njit = lambda *args, **kwargs: (lambda fn: fn)
        monkeypatch.delenv(_compiled.DISABLE_ENV, raising=False)
        monkeypatch.setitem(sys.modules, "numba", fake)
        _compiled.reset_provider_cache()
        if _compiled.get_provider() is None:
            pytest.skip(f"no C provider here ({_compiled.fail_reason()})")
        assert _compiled.provider_kind() == "cext"
        assert _compiled.get_provider().gap_ok is True

    @needs_provider
    def test_gap_self_check_failure_keeps_add_and_max(
        self, monkeypatch, fresh_provider_state
    ):
        """A gap off by one ulp disables only the gap: ADD and MAX keep
        the compiled kernels, the gap runs the NumPy body."""
        broken = _compiled._CProvider()
        exact = broken.gap
        monkeypatch.setattr(
            broken, "gap",
            lambda a, b, floor: np.nextafter(exact(a, b, floor), np.inf),
        )
        monkeypatch.delenv(_compiled.DISABLE_ENV, raising=False)
        monkeypatch.setattr(_compiled, "_CProvider", lambda: broken)
        _compiled.reset_provider_cache()
        assert _compiled.get_provider() is broken
        assert broken.max_ok and not broken.gap_ok
        kernel = get_backend("compiled-auto")
        assert kernel.fused_trim_active
        rng = np.random.default_rng(103)
        a, b = _rand_pdf(rng, 19), _rand_pdf(rng, 27, offset=2)
        assert _same_gap(max_percentile_gap(a, b), _numpy_gap(a, b))
        c = convolve(a, b, trim_eps=1e-9, backend="compiled-auto")
        ref_raw, ref = PROVIDER.conv_trim_one(
            a.masses, b.masses, a.dt, a.offset + b.offset, 1e-9
        )
        assert c.offset == ref.offset
        assert np.array_equal(c.masses, ref.masses)
        m = stat_max_many((a, b), trim_eps=1e-9, backend="compiled-auto")
        d = stat_max_many((a, b), trim_eps=1e-9, backend="direct")
        assert m.offset == d.offset
        assert np.array_equal(m.masses, d.masses)

    @needs_gap
    def test_threads_match_serial(self):
        """Per-call knot buffers: concurrent gaps (the foreign call
        drops the GIL) give the serial answers."""
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(107)
        pairs = []
        for _ in range(64):
            n = int(rng.integers(1, 300))
            a = _rand_pdf(rng, n, offset=int(rng.integers(-5, 5)))
            m = a.masses.copy()
            m[int(rng.integers(0, n))] += float(rng.random())
            pairs.append((a, DiscretePDF(a.dt, a.offset - 1, m)))
        serial = [max_percentile_gap(a, b).hex() for a, b in pairs]
        work = pairs * 8
        with ThreadPoolExecutor(4) as pool:
            threaded = list(
                pool.map(lambda p: max_percentile_gap(*p).hex(), work)
            )
        assert threaded == serial * 8


@needs_provider
class TestBufferChecks:
    """The cffi loader reads arrays as raw memory only when their
    layout and dtype match the C declaration: anything else raises,
    or (batches) is packed into a fresh contiguous buffer first."""

    @pytest.mark.parametrize("bad", [
        pytest.param(np.arange(8.0)[::2], id="non-contiguous"),
        pytest.param(np.arange(4, dtype=np.int64), id="int64"),
        pytest.param(np.ones(4, dtype=np.float32), id="float32"),
    ])
    def test_bad_operand_raises(self, bad):
        good = np.ones(3)
        with pytest.raises((TypeError, ValueError)):
            PROVIDER.conv_one(bad, good)
        try:
            got = PROVIDER.conv_many([(good, bad)])[0]
        except (TypeError, ValueError):
            return
        np.testing.assert_allclose(got, np.convolve(good, bad))
