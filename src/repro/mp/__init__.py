"""Process launcher for the ``world="processes"`` execution world.

:func:`repro.simmpi.engine.run_spmd` supervises both worlds; this
package is what a process boundary adds to it: forked workers
(:class:`~repro.mp.engine.ProcessLauncher`), the shared-memory and
pickle transports (:mod:`repro.mp.transport`, :mod:`repro.mp.shm`) and
the :class:`~repro.mp.bridge.DriverCallback` bridge back to the driver.
Ranks run the same :class:`~repro.simmpi.comm.SimComm` on the same
per-rank world as in the thread world — bit-identical products, real
multicore speedup.
"""

from .bridge import DriverCallback, set_runtime
from .engine import ProcessLauncher
from .shm import leaked_segments, sweep_segments
from .transport import AUTO_THRESHOLD, TRANSPORTS, get_transport

__all__ = [
    "AUTO_THRESHOLD",
    "TRANSPORTS",
    "DriverCallback",
    "ProcessLauncher",
    "get_transport",
    "leaked_segments",
    "set_runtime",
    "sweep_segments",
]
