"""Simulated MPI runtime.

The paper runs on a Cray XC40 with up to 262,144 cores; this environment
has neither MPI nor that machine.  Per the reproduction's substitution
rule, :mod:`repro.simmpi` provides a deterministic SPMD runtime with
mpi4py-like semantics:

* :func:`run_spmd` is the one SPMD runtime: a supervisor that starts
  ``p`` ranks — as threads here, or as forked processes through
  :mod:`repro.mp` — each executing the same function with its own
  :class:`SimComm` on its own per-rank world;
* :class:`SimComm` supports ``barrier`` / ``bcast`` / ``allreduce`` /
  ``allgather`` / ``gather`` / ``scatter`` / ``alltoall`` / ``alltoallv``
  / ``split`` with MPI collective semantics, plus tag-matched
  ``send``/``recv``/``isend``/``irecv`` point-to-point;
* every collective is **metered**: a :class:`CommTracker` records payload
  bytes, message counts and communicator sizes per named algorithm step,
  which the α–β machine model turns into projected times at paper scale.

All data movement is real (payloads actually flow between the ranks'
inboxes — by reference between threads, through shared memory or
pickles between processes), so algorithm correctness and communication
*volumes* are exact; only wall-clock speed differs from real MPI.

For resilience testing the runtime also carries a deterministic fault
layer (:mod:`repro.simmpi.faults`): a seeded :class:`FaultPlan` drives a
:class:`FaultInjector` hooked into every communicator operation, and
per-message checksums (:mod:`repro.simmpi.serialization`) catch injected
in-flight corruption.  Every blocking wait is supervised by the
supervisor's hang watchdog (a wait-for graph over the ranks' shipped wait
records), and the ULFM-style membership layer
(:mod:`repro.simmpi.membership`) lets ``run_spmd(..., heal=...)`` repair
rank crashes online.
"""

from .comm import SimComm
from .engine import run_spmd
from .faults import FaultEvent, FaultInjector, FaultPlan, FaultSpec
from .membership import HealDecision
from .serialization import payload_checksum, payload_nbytes
from .tracker import CommEvent, CommTracker

__all__ = [
    "SimComm",
    "run_spmd",
    "HealDecision",
    "payload_nbytes",
    "payload_checksum",
    "CommTracker",
    "CommEvent",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "FaultEvent",
]
