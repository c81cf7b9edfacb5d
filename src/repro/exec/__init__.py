"""The execution seam the level-batched timing engines run through.

The level-batched scheduler turns SSTA propagation into a sequence of
*batches* — all of a topological level's fan-in ADD pairs, then all of
its MAX reductions.  The kernel layer (``repro.dist.ops``) owns cache
resolution, dedupe, result construction and stores; the raw compute
step of each batch goes through :class:`SerialExecutor`, which runs it
in-process through exactly the helpers the inline path uses.  The
engines pass :data:`SERIAL_EXECUTOR`; keeping the compute step behind
one named method per batch shape gives profilers and tracers a single
place to attribute kernel time.
"""

from .executor import SERIAL_EXECUTOR, SerialExecutor

__all__ = ["SerialExecutor", "SERIAL_EXECUTOR"]
