"""Wire codecs for the analysis service — JSON-safe, bitwise-faithful.

The service's core invariant is that a server-mediated analysis
returns sink statistics **bitwise identical** to the same run executed
locally.  Two properties of the encoding carry that invariant over
JSON-over-HTTP:

* **Floats survive exactly.**  Python's ``json`` module serializes a
  float with ``repr``, the shortest string that round-trips to the
  same IEEE-754 double, and parses it back with correctly-rounded
  ``float()`` — so every scalar statistic (percentiles, objectives,
  sensitivities) crosses the wire bit for bit.
* **Mass vectors ship as raw bytes.**  A :class:`DiscretePDF` is
  encoded as its defining triple ``(dt, offset, masses)`` with the
  float64 mass vector base64-encoded little-endian, and decoded
  through the same memo-stripped ``__setstate__`` path the parallel
  IPC layer uses — no renormalization, no re-validation arithmetic,
  so the decoded distribution is the encoded one, bit for bit, and
  every derived query (``percentile``, ``mean``, ``cdf_at``) computes
  the identical value on either side of the wire.

Result objects round-trip as plain dicts mirroring their dataclasses:
:func:`sizing_result_to_wire` / :func:`sizing_result_from_wire`
reconstruct a genuine :class:`~repro.core.sizer_base.SizingResult`
(steps, per-iteration stats, initial widths and all) so client code
can keep consuming the library's result API unchanged.
"""

from __future__ import annotations

import base64
import sys
from typing import List

import numpy as np

from ..core.sizer_base import IterationStats, SizingResult, SizingStep
from ..dist.pdf import DiscretePDF
from ..errors import ServiceError

__all__ = [
    "pdf_to_wire",
    "pdf_from_wire",
    "sizing_result_to_wire",
    "sizing_result_from_wire",
    "overload_body",
    "parse_retry_after",
]

#: Wire format version, checked by the client against /health.
PROTOCOL_VERSION = 1


# ----------------------------------------------------------------------
# Overload rejection (503) body
# ----------------------------------------------------------------------
# A full queue is answered straight from the accept loop with 503 +
# ``Retry-After``.  The body mirrors the header's hint so clients
# behind header-stripping proxies still see it; ``"overloaded": true``
# is the machine-readable marker (the error text may evolve).

def overload_body(retry_after_s: float) -> dict:
    """The JSON body of a 503 admission rejection."""
    return {
        "error": "service overloaded: admission queue is full",
        "overloaded": True,
        "retry_after_s": float(retry_after_s),
    }


def parse_retry_after(header_value, body: dict) -> float | None:
    """Extract the retry hint from a 503's ``Retry-After`` header
    (delta-seconds form) falling back to the body's ``retry_after_s``;
    None when neither parses."""
    if header_value is not None:
        try:
            return max(0.0, float(header_value))
        except (TypeError, ValueError):
            pass
    value = body.get("retry_after_s") if isinstance(body, dict) else None
    try:
        return max(0.0, float(value))
    except (TypeError, ValueError):
        return None


def pdf_to_wire(pdf: DiscretePDF) -> dict:
    """Encode a distribution as its defining ``(dt, offset, masses)``
    triple with the mass bytes base64'd (little-endian float64)."""
    masses = np.ascontiguousarray(pdf.masses, dtype=np.float64)
    if sys.byteorder != "little":  # pragma: no cover - BE hosts only
        masses = masses.astype("<f8")
    return {
        "dt": pdf.dt,
        "offset": pdf.offset,
        "masses_b64": base64.b64encode(masses.tobytes()).decode("ascii"),
    }


def pdf_from_wire(payload: dict) -> DiscretePDF:
    """Decode :func:`pdf_to_wire` output bitwise.

    Reconstruction rides ``DiscretePDF.__setstate__`` — the pickle
    path that ships the triple verbatim — so no normalization
    arithmetic can shift a bit between encode and decode.
    """
    try:
        dt = float(payload["dt"])
        offset = int(payload["offset"])
        raw = base64.b64decode(payload["masses_b64"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed PDF payload: {exc}") from exc
    if len(raw) == 0 or len(raw) % 8:
        raise ServiceError(
            f"malformed PDF payload: {len(raw)} mass bytes"
        )
    masses = np.frombuffer(raw, dtype="<f8")
    if sys.byteorder != "little":  # pragma: no cover - BE hosts only
        masses = masses.astype(np.float64)
    masses = masses.copy()  # own the buffer before freezing it
    pdf = object.__new__(DiscretePDF)
    pdf.__setstate__((dt, offset, masses))
    return pdf


# ----------------------------------------------------------------------
# SizingResult round trip
# ----------------------------------------------------------------------

_STATS_FIELDS = (
    "wall_time_s", "candidates", "pruned", "finished_fronts",
    "nodes_computed", "convolutions", "max_ops", "cache_hits",
)


def _step_to_wire(step: SizingStep) -> dict:
    return {
        "iteration": step.iteration,
        "gate": step.gate,
        "sensitivity": step.sensitivity,
        "objective_before": step.objective_before,
        "objective_after": step.objective_after,
        "total_size": step.total_size,
        "extra_gates": list(step.extra_gates),
        "stats": {f: getattr(step.stats, f) for f in _STATS_FIELDS},
    }


def _step_from_wire(payload: dict) -> SizingStep:
    stats = IterationStats(**{
        f: payload["stats"][f] for f in _STATS_FIELDS
    })
    return SizingStep(
        iteration=int(payload["iteration"]),
        gate=payload["gate"],
        sensitivity=payload["sensitivity"],
        objective_before=payload["objective_before"],
        objective_after=payload["objective_after"],
        total_size=payload["total_size"],
        stats=stats,
        extra_gates=tuple(payload["extra_gates"]),
    )


def sizing_result_to_wire(result: SizingResult) -> dict:
    """Encode a :class:`SizingResult` as a JSON-safe dict (floats
    round-trip exactly; see the module docstring)."""
    return {
        "optimizer": result.optimizer,
        "circuit_name": result.circuit_name,
        "objective_name": result.objective_name,
        "delta_w": result.delta_w,
        "initial_objective": result.initial_objective,
        "final_objective": result.final_objective,
        "initial_size": result.initial_size,
        "final_size": result.final_size,
        "initial_widths": dict(result.initial_widths),
        "steps": [_step_to_wire(s) for s in result.steps],
        "stop_reason": result.stop_reason,
        "total_time_s": result.total_time_s,
    }


def sizing_result_from_wire(payload: dict) -> SizingResult:
    """Reconstruct the genuine result object from the wire dict."""
    try:
        steps: List[SizingStep] = [
            _step_from_wire(s) for s in payload["steps"]
        ]
        return SizingResult(
            optimizer=payload["optimizer"],
            circuit_name=payload["circuit_name"],
            objective_name=payload["objective_name"],
            delta_w=payload["delta_w"],
            initial_objective=payload["initial_objective"],
            final_objective=payload["final_objective"],
            initial_size=payload["initial_size"],
            final_size=payload["final_size"],
            initial_widths=dict(payload["initial_widths"]),
            steps=steps,
            stop_reason=payload["stop_reason"],
            total_time_s=payload["total_time_s"],
        )
    except (KeyError, TypeError) as exc:
        raise ServiceError(
            f"malformed sizing-result payload: {exc}"
        ) from exc
