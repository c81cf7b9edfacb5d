"""The compiled kernel provider: the ``compiled-auto`` backend's
convolutions, and the MAX sweep and Theorem-4 gap of every backend.

:class:`~repro.dist.backends.CompiledAutoBackend` delegates its
convolve/trim inner loops to the provider resolved here: a tiny C
library compiled on first use with the system C compiler and loaded
through cffi.  The two bitwise kernels — the MAX sweep and the
percentile gap — serve every backend, ``auto`` included, resolving the
provider lazily at the first MAX or gap.  When the provider cannot be
stood up — no C compiler, no cffi, or a failed self-check —
``get_provider()`` returns ``None``: the MAX and the gap run their
NumPy bodies, and ``compiled-auto`` degrades to ``auto``'s pure-NumPy
numerics with a single warning, so selecting it is always safe.

Four kernel families are provided.  The first three operate on packed
flat buffers (operands concatenated, ``int64`` offset/length arrays)
so a whole level batch costs one foreign call:

* **convolve** — scatter-form direct convolution, scalar and batched;
* **trim** — the fused normalize-and-trim construction step: a mirror
  of ``DiscretePDF._trusted(...).trimmed(trim_eps)`` whose reductions
  run sequentially in compiled code.  This is where the cache-miss
  speedup lives: the stock path pays ~10 µs of per-result NumPy
  dispatch (sum, divide, cumsum, searchsorted) per pair, the fused
  path pays one compiled call per batch.
* **max sweep** — the padded-CDF product + adjacent difference of the
  grouped statistical MAX, one call per batch of groups.
  :func:`repro.dist.ops.max_batch_raws` runs it under *every* backend,
  so unlike the convolve/trim family it must be **bitwise identical**
  to the NumPy sweep (``ops._max_masses``, the reference and
  fallback; MAX cache keys carry no backend component either).  It is
  by construction: the same multiplications and subtractions in the
  same order, with ``-ffp-contract=off`` pinning the C build.  A
  self-check verifies it and sets only ``max_ok = False`` on any
  mismatch.
* **percentile gap** — the Theorem-4 bound ``max_percentile_gap(a, b)``
  of :mod:`repro.dist.metrics`, one pair per call: both knot sets are
  built on the fly (sequential cumsum, clip at 1, last knot pinned)
  and, because each operand's knot levels are non-decreasing, NumPy's
  two ``searchsorted`` inverses and the ``np.interp`` margin lookup
  become monotone pointers in one linear pass.  Same operations in the
  same order as the NumPy body, so the result is the same float; the
  metric uses it under *every* backend.  A self-check mismatch sets
  only ``gap_ok = False``.

Equivalence classes: the convolve/trim family is a *tolerance* class
like the FFT backend — within 1e-12 total variation of ``direct`` but
not bitwise (sequential instead of pairwise reductions) — while the
max sweep and the percentile gap are bitwise (the gap up to the sign
of a zero result).  Within the compiled class itself everything is
deterministic and batch-invariant: scalar and batched paths run the
exact same compiled code per item.

``REPRO_DISABLE_COMPILED=1`` disables provider resolution entirely
(the kill switch); ``REPRO_COMPILED_CACHE`` overrides where the C
library is built (default ``~/.cache/repro/compiled``).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..config import MAX_BINS
from ..errors import DistributionError
from .pdf import DiscretePDF

__all__ = [
    "get_provider",
    "provider_kind",
    "reset_provider_cache",
    "DISABLE_ENV",
    "CACHE_DIR_ENV",
]

#: Kill switch: set to a non-empty value (other than ``0``) to disable
#: the compiled tier entirely; every kernel then runs its pure-NumPy
#: body (``compiled-auto`` runs as ``auto``).
DISABLE_ENV = "REPRO_DISABLE_COMPILED"

#: Where the C provider caches its compiled shared library.
CACHE_DIR_ENV = "REPRO_COMPILED_CACHE"

# ----------------------------------------------------------------------
# C source.  The trim kernel mirrors DiscretePDF._trusted(...).trimmed:
# normalize by the total, cut the largest prefix/suffix whose
# cumulative normalized mass stays <= trim_eps/2, lump the dropped mass
# onto the boundary bins, renormalize the kept vector (skipped when
# nothing was cut, exactly like the stock path returning self).  The
# reductions are sequential — this module's own arithmetic class — so
# results agree with the stock path to ~n ulp (well inside 1e-12 TV)
# but are not bitwise.  The max sweep, by contrast, performs the exact
# operation sequence of np.prod(grid, axis=0) + the spelled-out diff,
# so it *is* bitwise (and is verified before use); so does the gap,
# for DiscretePDF._inverse and np.interp.
# ----------------------------------------------------------------------

_C_SOURCE = r"""
#include <math.h>
#include <stdlib.h>
#include <string.h>

#define EXPORT __attribute__((visibility("default")))

static void conv_axpy(const double *a, long long na,
                      const double *b, long long nb, double *out)
{
    long long i, j;
    if (na < nb) {
        const double *tp = a; a = b; b = tp;
        long long tn = na; na = nb; nb = tn;
    }
    /* Scatter form with the shorter operand outermost: each output
       element accumulates its terms in ascending j, one rounding per
       term, independent of SIMD width. */
    for (j = 0; j < nb; ++j) {
        const double bj = b[j];
        double *o = out + j;
        for (i = 0; i < na; ++i)
            o[i] += a[i] * bj;
    }
}

/* Mirror of DiscretePDF._trusted(dt, off, raw).trimmed(trim_eps).
   Writes the kept (normalized) vector into `kept`, the cut index into
   *plo, and returns the kept length (< 0 on a non-positive total). */
static long long trim_one(const double *raw, long long n, double half,
                          double *kept, long long *plo)
{
    double total = 0.0, acc, tacc, lead, tlump;
    long long j, lo, hidrop, hi, klen;

    for (j = 0; j < n; ++j) total += raw[j];
    if (!(total > 0.0) || isinf(total)) return -1;

    /* Largest prefix of the normalized cdf with cumulative <= half
       (the cdf is non-decreasing, so the first excess ends the scan). */
    acc = 0.0; lead = 0.0; lo = 0;
    for (j = 0; j < n; ++j) {
        acc += raw[j] / total;
        if (acc <= half) { lo = j + 1; lead = acc; } else break;
    }
    /* Symmetric largest suffix, accumulated right-to-left. */
    tacc = 0.0; tlump = 0.0; hidrop = 0;
    for (j = n - 1; j >= 0; --j) {
        tacc += raw[j] / total;
        if (tacc <= half) { hidrop = n - j; tlump = tacc; } else break;
    }
    hi = n - hidrop;

    if (lo >= hi) {
        /* Degenerate request: keep the first-argmax bin and lump the
           full prefix/suffix sums onto it. */
        long long am = 0;
        double best = raw[0] / total, v;
        for (j = 1; j < n; ++j) {
            v = raw[j] / total;
            if (v > best) { best = v; am = j; }
        }
        lo = am; hi = am + 1;
        lead = 0.0;
        for (j = 0; j < lo; ++j) lead += raw[j] / total;
        tlump = 0.0;
        for (j = n - 1; j >= hi; --j) tlump += raw[j] / total;
    }

    if (lo == 0 && hi == n) {
        /* Nothing dropped: the trusted normalization is the result
           (no second renormalization, mirroring trimmed() returning
           self). */
        for (j = 0; j < n; ++j) kept[j] = raw[j] / total;
        *plo = 0;
        return n;
    }

    klen = hi - lo;
    for (j = 0; j < klen; ++j) kept[j] = raw[lo + j] / total;
    if (lo > 0) kept[0] += lead;
    if (hi < n) kept[klen - 1] += tlump;

    /* The _trusted renormalization of the kept vector. */
    acc = 0.0;
    for (j = 0; j < klen; ++j) acc += kept[j];
    if (!(acc > 0.0)) return -1;
    if (acc != 1.0)
        for (j = 0; j < klen; ++j) kept[j] /= acc;
    *plo = lo;
    return klen;
}

EXPORT long long repro_conv_batch(
    const double *A, const long long *aoff, const long long *alen,
    const double *B, const long long *boff, const long long *blen,
    double *OUT, const long long *ooff, long long k)
{
    long long i;
    for (i = 0; i < k; ++i) {
        long long na = alen[i], nb = blen[i];
        double *out = OUT + ooff[i];
        memset(out, 0, (size_t)(na + nb - 1) * sizeof(double));
        conv_axpy(A + aoff[i], na, B + boff[i], nb, out);
    }
    return 0;
}

EXPORT long long repro_conv_trim_batch(
    const double *A, const long long *aoff, const long long *alen,
    const double *B, const long long *boff, const long long *blen,
    double *OUT, const long long *ooff, double half,
    double *KEPT, long long *klo, long long *klen, long long k)
{
    long long i, r;
    for (i = 0; i < k; ++i) {
        long long na = alen[i], nb = blen[i];
        long long n = na + nb - 1;
        double *out = OUT + ooff[i];
        memset(out, 0, (size_t)n * sizeof(double));
        conv_axpy(A + aoff[i], na, B + boff[i], nb, out);
        r = trim_one(out, n, half, KEPT + ooff[i], klo + i);
        if (r < 0) return -(i + 1);
        klen[i] = r;
    }
    return 0;
}

EXPORT long long repro_trim_batch(
    const double *RAW, const long long *roff, const long long *rlen,
    double half, double *KEPT, long long *klo, long long *klen,
    long long k)
{
    long long i, r;
    for (i = 0; i < k; ++i) {
        r = trim_one(RAW + roff[i], rlen[i], half, KEPT + roff[i],
                     klo + i);
        if (r < 0) return -(i + 1);
        klen[i] = r;
    }
    return 0;
}

EXPORT long long repro_conv_trim_one(
    const double *a, long long na, const double *b, long long nb,
    double *out, double half, double *kept, long long *klo)
{
    long long n = na + nb - 1;
    memset(out, 0, (size_t)n * sizeof(double));
    conv_axpy(a, na, b, nb, out);
    return trim_one(out, n, half, kept, klo);
}

EXPORT long long repro_max_sweep(
    const double *CDF, const long long *cdfoff, const long long *cdflen,
    const long long *rstart,
    const long long *grow0, const long long *gk,
    const long long *gwidth, const long long *gooff,
    double *OUT, long long ngroups)
{
    long long g, r, w;
    for (g = 0; g < ngroups; ++g) {
        long long W = gwidth[g], r0 = grow0[g], k = gk[g];
        double *out = OUT + gooff[g];
        {
            const double *cdf = CDF + cdfoff[r0];
            long long s = rstart[r0], n = cdflen[r0];
            for (w = 0; w < W; ++w)
                out[w] = (w < s) ? 0.0 : (w < s + n ? cdf[w - s] : 1.0);
        }
        for (r = 1; r < k; ++r) {
            const double *cdf = CDF + cdfoff[r0 + r];
            long long s = rstart[r0 + r], n = cdflen[r0 + r];
            for (w = 0; w < W; ++w)
                out[w] *= (w < s) ? 0.0 : (w < s + n ? cdf[w - s] : 1.0);
        }
        for (w = W - 1; w >= 1; --w) out[w] = out[w] - out[w - 1];
    }
    return 0;
}

/* DiscretePDF._knots levels: 0, the sequential cumsum clipped at 1,
   and the last knot pinned to exactly 1.  Knot k sits at time
   (off - 1 + k) * dt, computed where it is read. */
static void gap_knots(const double *m, long long n, double *f)
{
    long long i;
    double acc = m[0];
    f[0] = 0.0;
    f[1] = acc < 1.0 ? acc : 1.0;
    for (i = 1; i < n; ++i) {
        acc += m[i];
        f[i + 1] = acc < 1.0 ? acc : 1.0;
    }
    f[n] = 1.0;
}

/* DiscretePDF._inverse at level p: searchsorted(side="left") becomes
   the monotone pointer *ptr (levels arrive non-decreasing), then the
   clip onto [rf, n] and the same segment arithmetic. */
static double gap_inverse(const double *f, long long n, long long rf,
                          long long off, double dt, double p,
                          long long *ptr)
{
    long long idx = *ptr, lo;
    double flo, xlo;
    while (idx <= n && f[idx] < p) ++idx;
    *ptr = idx;
    if (idx < rf) idx = rf;
    if (idx > n) idx = n;
    lo = idx - 1;
    flo = f[lo];
    xlo = (double)(off - 1 + lo) * dt;
    return xlo + (p - flo) / (f[idx] - flo)
                 * ((double)(off - 1 + idx) * dt - xlo);
}

/* np.interp(x, knots, left=0, right=1), NumPy's arithmetic and
   branches included; the bracket *pj walks from the previous query in
   either direction (queries are nearly, not provably, monotone). */
static double gap_interp(const double *f, long long n, long long off,
                         double dt, double x, long long *pj)
{
    long long j = *pj;
    double xj, xj1, slope, r;
    if (isnan(x)) return x;
    if (x > (double)(off - 1 + n) * dt) return 1.0;
    if (x < (double)(off - 1) * dt) return 0.0;
    while (j > 0 && (double)(off - 1 + j) * dt > x) --j;
    while (j < n && (double)(off + j) * dt <= x) ++j;
    *pj = j;
    if (j == n) return f[n];
    xj = (double)(off - 1 + j) * dt;
    if (xj == x) return f[j];
    xj1 = (double)(off + j) * dt;
    slope = (f[j + 1] - f[j]) / (xj1 - xj);
    r = slope * (x - xj) + f[j];
    if (isnan(r)) {
        r = slope * (x - xj1) + f[j + 1];
        if (isnan(r) && f[j] == f[j + 1]) r = f[j];
    }
    return r;
}

/* max_percentile_gap(a, b) in one linear pass per operand's level run
   (a's knot levels, then b's).  Returns NaN when the knot buffer
   cannot be allocated; the caller then runs the NumPy body. */
EXPORT double repro_gap(
    const double *ma, long long na, long long offa,
    const double *mb, long long nb, long long offb,
    double dt, double noise_floor)
{
    double *fa = (double *)malloc((size_t)(na + nb + 2) * sizeof(double));
    double *fb, best = -INFINITY;
    long long rfa = 0, rfb = 0, run, k;
    if (fa == NULL) return NAN;
    fb = fa + na + 1;
    gap_knots(ma, na, fa);
    gap_knots(mb, nb, fb);
    while (!(fa[rfa] > 0.0)) ++rfa;
    while (!(fb[rfb] > 0.0)) ++rfb;
    for (run = 0; run < 2; ++run) {
        const double *lv = run ? fb : fa;
        long long nl = run ? nb : na, pa = 0, pb = 0, pj = 0;
        for (k = 0; k <= nl; ++k) {
            double p = lv[k];
            double qb = gap_inverse(fb, nb, rfb, offb, dt, p, &pb);
            double g = gap_inverse(fa, na, rfa, offa, dt, p, &pa) - qb;
            /* np.where(margin > floor, g, np.minimum(g, 0)) */
            if (!(p - gap_interp(fa, na, offa, dt, qb, &pj) > noise_floor)
                && g > 0.0)
                g = 0.0;
            /* np.max: NaN propagates. */
            if (g > best || isnan(g)) best = g;
        }
    }
    free(fa);
    return best;
}
"""

#: Flags pin the arithmetic: no FMA contraction, no reassociation
#: (C forbids it below -ffast-math), so the max sweep's operation
#: sequence matches NumPy's on every conforming build.  SIMD width is
#: free to vary — each output element still accumulates its own terms
#: in the same order — so ``-march=native`` (tried first, with a
#: portable fallback) only changes speed, never bits, within one host's
#: cached build.
_C_FLAGS_BASE = (
    "-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno"
)
_C_FLAG_SETS = (
    _C_FLAGS_BASE + ("-march=native",),
    _C_FLAGS_BASE,
)

#: The library's entry points, as cffi declares them.
_CDEF = """
long long repro_conv_batch(
    const double *, const long long *, const long long *,
    const double *, const long long *, const long long *,
    double *, const long long *, long long);
long long repro_conv_trim_batch(
    const double *, const long long *, const long long *,
    const double *, const long long *, const long long *,
    double *, const long long *, double,
    double *, long long *, long long *, long long);
long long repro_trim_batch(
    const double *, const long long *, const long long *,
    double, double *, long long *, long long *, long long);
long long repro_conv_trim_one(
    const double *, long long, const double *, long long,
    double *, double, double *, long long *);
long long repro_max_sweep(
    const double *, const long long *, const long long *,
    const long long *, const long long *, const long long *,
    const long long *, const long long *, double *, long long);
double repro_gap(
    const double *, long long, long long,
    const double *, long long, long long, double, double);
"""

#: The cffi buffer type for each dtype the kernels take.  Any other
#: dtype is refused, and cffi refuses a ``long long[]`` where a
#: ``double *`` is declared, so no array is ever read as raw memory of
#: the wrong type.
_BUFFER_TYPES = {
    np.dtype(np.float64): "double[]",
    np.dtype(np.int64): "long long[]",
}


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro" / "compiled"


def _compile_library() -> Path:
    """Compile the C source into a content-addressed shared library,
    reusing a previous build when the source and flags are unchanged
    (later processes skip straight to dlopen).
    ``-march=native`` is attempted first and dropped for compilers
    that reject it."""
    cc = (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )
    if cc is None:
        raise RuntimeError("no C compiler found")
    cache = _cache_dir()
    last_exc: Optional[BaseException] = None
    for flags in _C_FLAG_SETS:
        digest = hashlib.sha256(
            ("\x00".join((_C_SOURCE,) + flags)).encode()
        ).hexdigest()[:16]
        so_path = cache / f"repro_kernels-{digest}.so"
        if so_path.exists():
            return so_path
        cache.mkdir(parents=True, exist_ok=True)
        c_path = cache / f"repro_kernels-{digest}.c"
        c_path.write_text(_C_SOURCE)
        with tempfile.NamedTemporaryFile(
            dir=cache, suffix=".so", delete=False
        ) as tmp:
            tmp_path = Path(tmp.name)
        try:
            subprocess.run(
                [cc, *flags, "-o", str(tmp_path), str(c_path)],
                check=True,
                capture_output=True,
                timeout=120,
            )
            # Atomic publish: concurrent builders race benignly.
            os.replace(tmp_path, so_path)
            return so_path
        except BaseException as exc:
            tmp_path.unlink(missing_ok=True)
            last_exc = exc
    raise RuntimeError(f"C compilation failed: {last_exc}")


def _pack(arrs: Sequence[np.ndarray]):
    """Concatenate 1-D float64 vectors; returns (flat, offsets, lengths)."""
    lens = np.fromiter(
        (a.size for a in arrs), dtype=np.int64, count=len(arrs)
    )
    offs = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    return np.concatenate(arrs) if arrs else np.empty(0), offs, lens


def _build_result(
    dt: float, offset: int, kept: np.ndarray, trim_eps: float
) -> DiscretePDF:
    """Wrap a provider-normalized kept vector without re-reducing it.

    The compiled trim already normalized ``kept`` (its own sequential
    arithmetic — the compiled class's analog of ``_trusted``'s
    division), so construction only stamps the fields and the trim
    idempotence memo, exactly as ``trimmed()`` does on its output.
    Callers pass an already read-only buffer (or view of one) and a
    plain-int offset; fields go straight into the instance dict — the
    frozen-dataclass ``__setattr__`` guard is for users, and this
    constructor is the compiled twin of ``_trusted``'s
    ``object.__setattr__`` sequence.
    """
    out = object.__new__(DiscretePDF)
    out.__dict__.update(
        dt=dt, offset=offset, masses=kept, _trim_level=trim_eps
    )
    return out


def _check_bins(n: int) -> None:
    if n > MAX_BINS:
        raise DistributionError(
            f"distribution spans {n} bins, exceeding MAX_BINS="
            f"{MAX_BINS}; dt is too small for this analysis"
        )


class _CProvider:
    """The C shared library, loaded through cffi."""

    kind = "cext"

    def __init__(self) -> None:
        import cffi

        so_path = _compile_library()
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        self._lib = ffi.dlopen(str(so_path))
        self._from_buffer = ffi.from_buffer
        self.max_ok = True
        self.gap_ok = True

    def _ptr(self, arr: np.ndarray):
        """Zero-copy pointer to ``arr``'s data.  ``from_buffer`` raises
        on a non-contiguous array; a dtype outside
        :data:`_BUFFER_TYPES` raises here."""
        btype = _BUFFER_TYPES.get(arr.dtype)
        if btype is None:
            raise TypeError(
                f"compiled kernels take float64/int64 arrays, got {arr.dtype}"
            )
        return self._from_buffer(btype, arr)

    # -- convolve ------------------------------------------------------
    def conv_one(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ptr = self._ptr
        n = a.size + b.size - 1
        out = np.empty(n)
        # Routed through the fused entry (one code path); the trim
        # writes into scratch and is discarded, the conv output is the
        # contract.
        rc = self._lib.repro_conv_trim_one(
            ptr(a), a.size, ptr(b), b.size, ptr(out), 0.0,
            ptr(np.empty(n)), ptr(np.empty(1, dtype=np.int64)),
        )
        if rc < 0:
            raise DistributionError("total probability mass must be positive")
        return out

    def conv_many(self, pairs: Sequence) -> list:
        if not pairs:
            return []
        ptr = self._ptr
        A, aoff, alen = _pack([p[0] for p in pairs])
        B, boff, blen = _pack([p[1] for p in pairs])
        olen = alen + blen - 1
        ooff = np.zeros(olen.size + 1, dtype=np.int64)
        np.cumsum(olen, out=ooff[1:])
        OUT = np.empty(int(ooff[-1]))
        rc = self._lib.repro_conv_batch(
            ptr(A), ptr(aoff), ptr(alen), ptr(B), ptr(boff), ptr(blen),
            ptr(OUT), ptr(ooff), len(pairs),
        )
        if rc != 0:  # pragma: no cover - conv_batch cannot fail
            raise DistributionError("compiled convolution failed")
        # Owned copies: callers (cache stores) must not pin the whole
        # batch buffer through one row.
        return [
            OUT[ooff[i]:ooff[i + 1]].copy() for i in range(len(pairs))
        ]

    # -- fused convolve + trim ----------------------------------------
    def conv_trim_one(
        self, a: np.ndarray, b: np.ndarray, dt: float, offset: int,
        trim_eps: float,
    ):
        ptr = self._ptr
        n = a.size + b.size - 1
        _check_bins(n)
        raw = np.empty(n)
        kept_buf = np.empty(n)
        klo = np.empty(1, dtype=np.int64)
        klen = self._lib.repro_conv_trim_one(
            ptr(a), a.size, ptr(b), b.size, ptr(raw), trim_eps / 2.0,
            ptr(kept_buf), ptr(klo),
        )
        if klen < 0:
            raise DistributionError("total probability mass must be positive")
        kept_buf.flags.writeable = False
        result = _build_result(
            dt, int(offset) + int(klo[0]), kept_buf[:klen], trim_eps
        )
        return raw, result

    def conv_trim_many(
        self, pairs: Sequence, dts, offsets, trim_eps: float,
        want_raws: bool,
    ):
        if not pairs:
            return [], []
        ptr = self._ptr
        A, aoff, alen = _pack([p[0] for p in pairs])
        B, boff, blen = _pack([p[1] for p in pairs])
        olen = alen + blen - 1
        _check_bins(int(olen.max()))
        ooff = np.zeros(olen.size + 1, dtype=np.int64)
        np.cumsum(olen, out=ooff[1:])
        OUT = np.empty(int(ooff[-1]))
        KEPT = np.empty(int(ooff[-1]))
        klo = np.empty(len(pairs), dtype=np.int64)
        klen = np.empty(len(pairs), dtype=np.int64)
        rc = self._lib.repro_conv_trim_batch(
            ptr(A), ptr(aoff), ptr(alen), ptr(B), ptr(boff), ptr(blen),
            ptr(OUT), ptr(ooff), trim_eps / 2.0,
            ptr(KEPT), ptr(klo), ptr(klen), len(pairs),
        )
        if rc != 0:
            raise DistributionError("total probability mass must be positive")
        # Results are read-only views into the batch's kept buffer:
        # nothing else ever writes it, and the pinned overhead is
        # bounded by one raw-sized buffer per batch.  Raws (cache
        # stores) are copied out — long-lived entries must not pin the
        # batch.
        KEPT.flags.writeable = False
        results = []
        raws = [] if want_raws else None
        # Hot loop: this is the per-result cost the tier exists to
        # shrink, so the _build_result body is inlined (no call, one
        # dict rebind) — same fields, same semantics.
        new = object.__new__
        cls = DiscretePDF
        append = results.append
        for o, kl, lo, dt, off in zip(
            ooff.tolist(), klen.tolist(), klo.tolist(), dts, offsets
        ):
            out = new(cls)
            out.__dict__.update(
                dt=dt, offset=off + lo,
                masses=KEPT[o:o + kl], _trim_level=trim_eps,
            )
            append(out)
        if want_raws:
            for o, ol in zip(ooff.tolist(), olen.tolist()):
                raws.append(OUT[o:o + ol].copy())
        return raws, results

    # -- trim of precomputed raws -------------------------------------
    def trim_one(
        self, dt: float, offset: int, raw: np.ndarray, trim_eps: float
    ) -> DiscretePDF:
        raws, results = self.trim_many(
            [raw], [dt], [offset], trim_eps
        )
        return results[0]

    def trim_many(self, raws: Sequence, dts, offsets, trim_eps: float):
        if not raws:
            return None, []
        ptr = self._ptr
        RAW, roff, rlen = _pack(list(raws))
        _check_bins(int(rlen.max()))
        KEPT = np.empty(RAW.size)
        klo = np.empty(len(raws), dtype=np.int64)
        klen = np.empty(len(raws), dtype=np.int64)
        rc = self._lib.repro_trim_batch(
            ptr(RAW), ptr(roff), ptr(rlen), trim_eps / 2.0,
            ptr(KEPT), ptr(klo), ptr(klen), len(raws),
        )
        if rc != 0:
            raise DistributionError("total probability mass must be positive")
        KEPT.flags.writeable = False
        results = []
        # Same inlined construction as conv_trim_many's hot loop.
        new = object.__new__
        cls = DiscretePDF
        append = results.append
        for o, kl, lo, dt, off in zip(
            roff.tolist(), klen.tolist(), klo.tolist(), dts, offsets
        ):
            out = new(cls)
            out.__dict__.update(
                dt=dt, offset=off + lo,
                masses=KEPT[o:o + kl], _trim_level=trim_eps,
            )
            append(out)
        return None, results

    # -- grouped MAX sweep --------------------------------------------
    def max_sweep(self, groups: Sequence) -> list:
        """``(lo, masses)`` per operand group — bitwise the NumPy
        ``_max_masses`` sweep (same multiplies, same order).

        Every MAX of every backend lands here, most batches holding a
        handful of groups, so the packing is kept to a few array
        builds: the per-row and per-group ``int64`` tables share one
        buffer (one ``from_buffer``, the rest pointer arithmetic)."""
        if not groups:
            return []
        cdfs = []
        row_off = [0]
        rstart = []
        g_row0 = []
        g_k = []
        g_width = []
        g_out = [0]
        los = []
        for pdfs in groups:
            lo = min(p.offset for p in pdfs)
            width = max(p.offset + p.masses.size for p in pdfs) - lo
            los.append(lo)
            g_row0.append(len(cdfs))
            g_k.append(len(pdfs))
            g_width.append(width)
            g_out.append(g_out[-1] + width)
            for p in pdfs:
                cdf = p._unit_cdf  # noqa: SLF001
                cdfs.append(cdf)
                row_off.append(row_off[-1] + cdf.size)
                rstart.append(p.offset - lo)
        row_len = [b - a for a, b in zip(row_off, row_off[1:])]
        # The seven tables in repro_max_sweep's argument order.
        tables = (row_off, row_len, rstart, g_row0, g_k, g_width, g_out)
        meta = self._ptr(np.fromiter(
            itertools.chain.from_iterable(tables), dtype=np.int64
        ))
        starts = itertools.accumulate(
            (len(t) for t in tables[:-1]), initial=0
        )
        n = len(groups)
        out = np.empty(g_out[-1])
        rc = self._lib.repro_max_sweep(
            self._ptr(np.concatenate(cdfs)), *(meta + i for i in starts),
            self._ptr(out), n,
        )
        if rc != 0:  # pragma: no cover - sweep cannot fail
            raise DistributionError("compiled max sweep failed")
        if n == 1:
            return [(los[0], out)]
        return [
            (los[g], out[g_out[g]:g_out[g + 1]].copy()) for g in range(n)
        ]

    # -- Theorem-4 percentile gap -------------------------------------
    def gap(self, a: DiscretePDF, b: DiscretePDF, noise_floor: float):
        """``max_percentile_gap(a, b)`` on one grid, the NumPy value
        bit for bit (signed zeros aside); NaN when the C side could not
        allocate its knot buffer.  The knots live in a per-call buffer:
        the foreign call releases the GIL and service handler threads
        evaluate gaps concurrently."""
        ptr = self._ptr
        ma, mb = a.masses, b.masses
        return self._lib.repro_gap(
            ptr(ma), ma.size, a.offset, ptr(mb), mb.size, b.offset,
            a.dt, noise_floor,
        )


# ----------------------------------------------------------------------
# Self-check: the provider proves its contract before first use.
# Convolve/trim differentials run against the stock NumPy path at the
# 1e-12-TV class boundary; the max sweep and the gap must be bitwise.
# Conv/trim failure rejects the provider outright; a max-sweep or gap
# mismatch only disables that kernel (the provider stays useful for
# the rest).
# ----------------------------------------------------------------------


def _tv(a: np.ndarray, b: np.ndarray) -> float:
    n = max(a.size, b.size)
    pa = np.zeros(n)
    pa[: a.size] = a
    pb = np.zeros(n)
    pb[: b.size] = b
    return 0.5 * float(np.abs(pa - pb).sum())


def _self_check(provider) -> None:
    rng = np.random.default_rng(20260808)
    cases = []
    for n_a, n_b in ((1, 1), (3, 7), (17, 17), (33, 129), (64, 64)):
        a = rng.random(n_a) + 1e-4
        b = rng.random(n_b) + 1e-4
        cases.append((a / a.sum(), b / b.sum()))
    for trim_eps in (0.0, 1e-9, 1e-3, 0.9):
        dts, offs = [1.0] * len(cases), [3] * len(cases)
        raws, results = provider.conv_trim_many(
            cases, dts, offs, trim_eps, True
        )
        raws2, results2 = provider.conv_trim_many(
            cases, dts, offs, trim_eps, True
        )
        for (a, b), raw, raw2, res, res2 in zip(
            cases, raws, raws2, results, results2
        ):
            ref_raw = np.convolve(a, b)
            if _tv(raw, ref_raw) > 1e-13 or not np.array_equal(raw, raw2):
                raise RuntimeError("compiled convolve failed self-check")
            ref = DiscretePDF._trusted(  # noqa: SLF001
                1.0, 3, ref_raw.copy()
            ).trimmed(trim_eps)
            # Generic masses sit nowhere near the eps/2 threshold, so
            # the compiled cut lands on the stock bin and the kept
            # vectors differ only in reduction round-off.
            if (
                res.offset != ref.offset
                or res.masses.size != ref.masses.size
                or _tv(res.masses, ref.masses) > 1e-12
            ):
                raise RuntimeError("compiled trim failed self-check")
            if (
                res2.offset != res.offset
                or not np.array_equal(res.masses, res2.masses)
            ):
                raise RuntimeError("compiled trim is not deterministic")
            # Scalar path must agree bitwise with the batched path.
            raw_s, res_s = provider.conv_trim_one(a, b, 1.0, 3, trim_eps)
            if not np.array_equal(raw_s, raw) or not np.array_equal(
                res_s.masses, res.masses
            ):
                raise RuntimeError("compiled scalar/batch paths disagree")
            # trim-of-raw must agree bitwise with fused conv+trim.
            re_res = provider.trim_one(1.0, 3, raw, trim_eps)
            if re_res.offset != res.offset or not np.array_equal(
                re_res.masses, res.masses
            ):
                raise RuntimeError("compiled trim replay disagrees")
    # Max sweep: bitwise or disabled.
    from .ops import _max_masses

    groups = []
    for k in (2, 3, 5):
        pdfs = []
        for i in range(k):
            m = rng.random(int(rng.integers(3, 40))) + 1e-4
            pdfs.append(DiscretePDF(2.0, int(rng.integers(-5, 6)), m))
        groups.append(tuple(pdfs))
    try:
        swept = provider.max_sweep(groups)
        for pdfs, (lo, masses) in zip(groups, swept):
            ref_lo, ref = _max_masses(pdfs)
            if lo != ref_lo or not np.array_equal(masses, ref):
                raise RuntimeError("not bitwise")
    except Exception:
        provider.max_ok = False
    # Theorem-4 gap: the NumPy body's value (==) or disabled.
    if provider.gap_ok:
        from .metrics import _VERTICAL_NOISE_FLOOR, _numpy_gap

        try:
            for a, b in _gap_check_cases(rng):
                got = provider.gap(a, b, _VERTICAL_NOISE_FLOOR)
                if not got == _numpy_gap(a, b):
                    raise RuntimeError("not bitwise")
        except Exception:
            provider.gap_ok = False


def _gap_check_cases(rng) -> list:
    """Operand pairs for the gap self-check: generic overlaps, zero-mass
    plateaus and a leading zero ramp, point masses, disjoint supports
    both ways, identical and shifted twins, a near-copy whose margins
    sit at the noise floor."""
    def pdf(offset, m):
        return DiscretePDF(2.0, offset, m)

    a = rng.random(33) + 1e-4
    b = rng.random(17) + 1e-4
    plateau = a.copy()
    plateau[:3] = 0.0
    plateau[10:14] = 0.0
    nudged = a / a.sum()
    nudged[5] += 1e-11
    nudged[6] -= 1e-11
    return [
        (pdf(0, a), pdf(4, b)),
        (pdf(4, b), pdf(0, a)),
        (pdf(0, plateau), pdf(1, a)),
        (pdf(1, a), pdf(0, plateau)),
        (pdf(3, [1.0]), pdf(1, [1.0])),
        (pdf(0, a), pdf(90, b)),
        (pdf(90, b), pdf(0, a)),
        (pdf(0, a), pdf(0, a)),
        (pdf(0, a), pdf(2, a)),
        (pdf(0, a), pdf(0, nudged)),
    ]


_lock = threading.Lock()
_resolved = False
_provider = None
_fail_reason: Optional[str] = None


def get_provider():
    """The process-wide compiled provider, or ``None`` when the tier
    is unavailable (kill switch set, no C compiler or cffi, or the
    library failed its self-check)."""
    global _resolved, _provider, _fail_reason
    if _resolved:
        return _provider
    with _lock:
        if _resolved:
            return _provider
        provider = None
        reason = None
        if os.environ.get(DISABLE_ENV, "0") not in ("", "0"):
            reason = f"{DISABLE_ENV} is set"
        else:
            try:
                provider = _CProvider()
            except Exception as exc:
                reason = (
                    f"C build failed ({exc.__class__.__name__}: {exc})"
                )
            if provider is not None:
                try:
                    _self_check(provider)
                except Exception as exc:
                    provider = None
                    reason = f"self-check failed ({exc})"
        _provider = provider
        _fail_reason = reason
        _resolved = True
    return _provider


def provider_kind() -> Optional[str]:
    """``"cext"``, or ``None`` when degraded (resolving if needed)."""
    p = get_provider()
    return None if p is None else p.kind


def fail_reason() -> Optional[str]:
    get_provider()
    return _fail_reason


def reset_provider_cache() -> None:
    """Forget the resolved provider (tests toggle the kill switch or
    patch the provider class; the next use re-resolves)."""
    global _resolved, _provider, _fail_reason
    with _lock:
        _resolved = False
        _provider = None
        _fail_reason = None


_warned = False


def warn_degraded_once() -> None:
    """One warning per process the first time the compiled backend
    runs degraded (pure-NumPy numerics)."""
    global _warned
    if _warned:
        return
    _warned = True
    warnings.warn(
        "compiled kernel tier unavailable "
        f"({fail_reason() or 'unknown reason'}); 'compiled-auto' runs "
        "as 'auto' (the pure-NumPy direct kernel below the FFT "
        "crossover)",
        RuntimeWarning,
        stacklevel=3,
    )
