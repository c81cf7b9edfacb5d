"""The serial execution plan the timing engines dispatch batches to.

:class:`SerialExecutor` runs the raw compute step of one kernel batch —
nothing more.  The calling kernel layer (``repro.dist.ops``) owns
cache resolution, dedupe, result construction, and stores, so the
executor sees only pure, independent work items.  It executes each
batch through exactly the helpers the inline path uses, so passing it
anywhere an executor is accepted changes nothing but the call stack.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..dist.ops import OpCounter, convolve_batch_raws, max_batch_raws

__all__ = ["SerialExecutor", "SERIAL_EXECUTOR"]


class SerialExecutor:
    """In-process execution of the two raw batch shapes of the SSTA
    inner loop.

    * outputs are returned **in item order** and are bitwise identical
      to :func:`~repro.dist.ops.convolve_batch_raws` /
      :func:`~repro.dist.ops.max_batch_raws` on the same batch;
    * ``counter`` (when given) receives exactly the computed-op tally
      the inline path would record — one convolution per pair,
      ``len(group) - 1`` max ops per group;
    * an empty batch performs no work and touches nothing.
    """

    def run_convolve_batch(
        self,
        kernel,
        pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
        *,
        counter: Optional[OpCounter] = None,
    ) -> list:
        """Raw convolved mass vectors, one per operand pair."""
        raws = convolve_batch_raws(kernel, pairs)
        if counter is not None:
            counter.merge(OpCounter(convolutions=len(raws)))
        return raws

    def run_max_batch(
        self,
        groups: Sequence,
        *,
        counter: Optional[OpCounter] = None,
    ) -> list:
        """``(lo_offset, raw masses)`` per operand group."""
        outs = max_batch_raws(groups)
        if counter is not None:
            counter.merge(
                OpCounter(max_ops=sum(len(g) - 1 for g in groups))
            )
        return outs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


#: Shared serial plan — stateless, so one instance serves everyone.
SERIAL_EXECUTOR = SerialExecutor()
