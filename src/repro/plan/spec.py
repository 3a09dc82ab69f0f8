"""The reified execution plan: :class:`ExecSpec` and :class:`ExecPlan`.

Before this module the library's run configuration lived as ~25 loose
keyword arguments copy-pasted across ``batched_summa3d``, its ``_rows``
twin, ``summa2d/3d``, ``DistContext``, the CLI and ``repro.serve`` —
a call-site convention that had already drifted once.  Here the
configuration becomes a *value*:

* :class:`ExecSpec` — the frozen record of every run knob (kernel /
  suite / semiring, comm backend, overlap, world/transport, batching,
  budgets + enforcement, resilience, spill/checkpoint, replanning).
  ``ExecSpec.from_kwargs`` is the **single** legacy-kwargs → spec
  conversion point every driver shares, and ``to_dict`` / ``from_dict``
  round-trip the spec through JSON (unknown keys ride along in
  ``extra`` for forward compatibility — a newer writer's spec still
  loads, and re-serialises, under an older reader).

* :class:`ExecPlan` — a *resolved* spec: the chosen ``(layers,
  batches, backend)`` triple plus the model's predicted makespan and
  Table III memory estimate and the provenance of how the choice was
  made (explicit / auto-tuned / mid-run replan, with the measurements
  that drove it).  ``repro.summa.auto_config`` returns one, the serving
  plan cache stores them, ``run_plan`` executes them, and every
  :class:`~repro.summa.result.SummaResult` records the final resolved
  plan verbatim in ``info["plan"]``.

Runtime-only arguments — callables and operand-sized objects that have
no serialised form (``mask``, ``sample``, ``postprocess``, ``on_batch``,
``tracker``, ``faults``) — deliberately stay *out* of the spec; the
drivers accept them next to ``plan=``.

The ``suite`` / ``semiring`` / ``kernel`` / ``comm_backend`` fields hold
either a registry name (the normal, serialisable case) or a live
instance passed by an advanced caller; ``to_dict`` normalises instances
to their registry ``name``, so persisted plans are always plain data.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace

from ..errors import DistributionError, PlannerError, ShapeError
from ..simmpi.comm import DEFAULT_TIMEOUT
from ..sparse.matrix import BYTES_PER_NONZERO

#: serialisation format version of ``ExecSpec.to_dict`` / ``ExecPlan.to_dict``.
SPEC_VERSION = 1

#: supported settings of the ``replan=`` knob.
REPLAN_MODES = ("off", "auto")


def _registry_name(value):
    """Normalise a registry object (suite/semiring/kernel/backend) to its
    name; strings pass through."""
    if isinstance(value, str) or value is None:
        return value
    name = getattr(value, "name", None)
    if name is None and isinstance(value, type):
        name = getattr(value, "name", value.__name__)
    return str(name) if name is not None else str(value)


@dataclass(frozen=True)
class ExecSpec:
    """Every knob of one multiplication, as one frozen, serialisable value.

    Field semantics are exactly those of the same-named
    :func:`~repro.summa.batched_summa3d` keywords (which are now derived
    from this record); the replanning knobs are new:

    ``replan``
        ``"off"`` (default) or ``"auto"`` — enable the mid-run
        :class:`~repro.plan.replan.Replanner` at batch boundaries.
    ``replan_threshold``
        Hysteresis: an amended plan must predict at least this relative
        makespan gain over staying the course before it is adopted.
    ``replan_min_batches``
        Hysteresis: number of batches that must have been observed
        (measured) under the current plan before any amendment fires.
    ``max_replans``
        Hard bound on mid-run amendments per run (termination guarantee).
    ``replan_force``
        Deterministic testing/demo hook: ``((batch, {field: value}),
        ...)`` amendments applied unconditionally at the named batch
        boundaries, bypassing measurement.  Serialises like everything
        else.
    """

    nprocs: int = 4
    layers: int = 1
    batches: int | None = None
    memory_budget: int | None = None
    memory_budget_per_rank: int | None = None
    enforce: str = "off"
    bytes_per_nonzero: int = BYTES_PER_NONZERO
    suite: object = "esc"
    semiring: object = "plus_times"
    kernel: object = "spgemm"
    mask_complement: bool = False
    keep_output: bool = True
    batch_scheme: str = "block-cyclic"
    merge_policy: str = "deferred"
    comm_backend: object = "dense"
    overlap: str = "off"
    spill_dir: str | None = None
    timeout: float = DEFAULT_TIMEOUT
    checksums: bool | None = None
    max_retries: int | None = 3
    checkpoint_dir: str | None = None
    resume: bool = False
    checkpoint_keep_last: int | None = None
    heal: str | None = None
    world_spares: int = 0
    world: str = "threads"
    transport: str = "auto"
    replan: str = "off"
    replan_threshold: float = 0.15
    replan_min_batches: int = 1
    max_replans: int = 1
    replan_force: tuple = ()
    #: unknown keys from a newer writer's ``to_dict`` — preserved verbatim
    #: so round-tripping a forward-compatible dict is lossless.
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_kwargs(cls, **knobs) -> "ExecSpec":
        """The single legacy-kwargs → spec conversion point.

        Every driver's ``**knobs`` surface funnels through here, so the
        accepted knob set *is* the field set of this class — the two can
        never drift apart again.  Unknown knobs raise ``TypeError`` with
        the offending names, exactly like a misspelled keyword argument.
        """
        unknown = set(knobs) - set(SPEC_FIELDS)
        if unknown:
            raise TypeError(
                "unknown execution knob(s) "
                f"{', '.join(sorted(repr(k) for k in unknown))}; "
                "expected fields of repro.plan.ExecSpec"
            )
        for key in ("spill_dir", "checkpoint_dir"):
            if knobs.get(key) is not None:
                knobs[key] = os.fspath(knobs[key])
        if knobs.get("replan_force"):
            knobs["replan_force"] = _canon_force(knobs["replan_force"])
        return cls(**knobs)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def resolved_budget(self) -> tuple[int | None, int | None]:
        """``(aggregate, per_rank)`` through the library's single
        aggregate ↔ per-rank unit conversion point
        (:func:`repro.mem.resolve_budget`)."""
        from ..mem import resolve_budget

        return resolve_budget(
            self.memory_budget, self.memory_budget_per_rank, self.nprocs
        )

    def validate(self) -> "ExecSpec":
        """Check the knob combination is runnable; returns ``self``.

        Raises the same exception types (and messages) the drivers
        historically raised, so existing callers' error handling holds.
        Every registry-valued knob (kernel, suite, semiring, comm
        backend, batch scheme, merge policy, world, transport) resolves
        through the registry the SPMD core uses, so a bad name fails here,
        once, before any rank starts.
        """
        from ..comm.backend import get_backend
        from ..grid.distribution import BATCH_SCHEMES
        from ..kernels import get_kernel
        from ..mem import ENFORCE_MODES
        from ..mp.transport import get_transport
        from ..resilience import HEAL_MODES
        from ..simmpi.engine import WORLDS
        from ..sparse.semiring import get_semiring
        from ..sparse.spgemm.suite import get_suite
        from ..summa.core import MERGE_POLICIES
        from ..summa.exec import OVERLAP_MODES

        get_kernel(self.kernel)
        get_suite(self.suite)
        get_semiring(self.semiring)
        if self.comm_backend != "auto":
            get_backend(self.comm_backend)
        if self.batch_scheme not in BATCH_SCHEMES:
            raise DistributionError(
                f"unknown batch scheme {self.batch_scheme!r}; "
                f"available: {BATCH_SCHEMES}"
            )
        if self.merge_policy not in MERGE_POLICIES:
            raise ValueError(
                f"unknown merge policy {self.merge_policy!r}; "
                "expected 'deferred' or 'incremental'"
            )
        if self.world not in WORLDS:
            raise ValueError(
                f"unknown world {self.world!r}; expected one of {WORLDS}"
            )
        get_transport(self.transport)
        if self.batches is not None and self.batches < 1:
            raise ShapeError(f"batches must be >= 1, got {self.batches}")
        if self.overlap not in OVERLAP_MODES:
            raise ValueError(
                f"unknown overlap mode {self.overlap!r}; "
                f"expected one of {OVERLAP_MODES}"
            )
        if self.enforce not in ENFORCE_MODES:
            raise ValueError(
                f"unknown enforce mode {self.enforce!r}; "
                f"expected one of {ENFORCE_MODES}"
            )
        _agg, budget_per_rank = self.resolved_budget()
        if self.enforce != "off" and budget_per_rank is None:
            raise ValueError(
                f'enforce="{self.enforce}" needs a budget: pass '
                "memory_budget= (aggregate) or memory_budget_per_rank="
            )
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir=")
        if self.heal is not None:
            if self.heal not in HEAL_MODES:
                raise ValueError(
                    f"unknown heal mode {self.heal!r}; "
                    f"expected one of {HEAL_MODES}"
                )
            if self.checkpoint_dir is None:
                raise ValueError(
                    "heal= requires checkpoint_dir=: the re-entry point of "
                    "an online heal is the last durably checkpointed batch"
                )
            if self.heal == "spare" and self.world_spares < 1:
                raise ValueError('heal="spare" needs world_spares >= 1')
        if self.world_spares < 0:
            raise ValueError(
                f"world_spares must be >= 0, got {self.world_spares}"
            )
        if self.replan not in REPLAN_MODES:
            raise ValueError(
                f"unknown replan mode {self.replan!r}; "
                f"expected one of {REPLAN_MODES}"
            )
        if self.replan != "off" and self.heal is not None:
            raise ValueError(
                "replan= cannot be combined with heal=: a mid-run "
                "amendment restarts through the re-batch path, which "
                "conflicts with the heal machinery's re-entry protocol"
            )
        if not 0.0 <= self.replan_threshold < 1.0:
            raise ValueError(
                "replan_threshold must be in [0, 1), got "
                f"{self.replan_threshold}"
            )
        if self.replan_min_batches < 1:
            raise ValueError(
                f"replan_min_batches must be >= 1, got {self.replan_min_batches}"
            )
        if self.max_replans < 0:
            raise ValueError(
                f"max_replans must be >= 0, got {self.max_replans}"
            )
        return self

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe): named fields plus preserved
        unknown keys, with registry objects normalised to their names."""
        d = {"spec_version": SPEC_VERSION}
        for name in SPEC_FIELDS:
            value = getattr(self, name)
            if name in ("suite", "semiring", "kernel", "comm_backend"):
                value = _registry_name(value)
            elif name == "replan_force":
                value = [[int(b), dict(a)] for b, a in value]
            d[name] = value
        d.update(self.extra)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExecSpec":
        """Inverse of :meth:`to_dict`; unknown keys land in ``extra``."""
        if not isinstance(d, dict):
            raise TypeError(f"ExecSpec.from_dict needs a dict, got {type(d)}")
        known = {}
        extra = {}
        for key, value in d.items():
            if key == "spec_version":
                continue
            if key in SPEC_FIELDS:
                known[key] = value
            else:
                extra[key] = value
        if "replan_force" in known:
            known["replan_force"] = _canon_force(known["replan_force"] or ())
        return cls(**known, extra=extra)

    def amended(self, **changes) -> "ExecSpec":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)


#: the knob names every driver surface is derived from (``extra`` is the
#: forward-compat carrier, not a knob).
SPEC_FIELDS = tuple(
    f.name for f in fields(ExecSpec) if f.name != "extra"
)


def _canon_force(force) -> tuple:
    """Canonicalise a ``replan_force`` value to ``((batch, {..}), ...)``."""
    out = []
    for item in force:
        batch, amend = item
        out.append((int(batch), dict(amend)))
    return tuple(out)


@dataclass(frozen=True)
class ExecPlan:
    """A resolved :class:`ExecSpec`: the chosen configuration plus the
    model's predictions and the provenance of the choice.

    ``layers``, ``batches``, ``predicted_seconds``, ``candidates``,
    ``backend`` and ``predicted_memory`` are the auto-tuner's choice and
    scores, in this positional order.

    ``provenance`` records *how* the plan was chosen — ``{"mode":
    "explicit" | "auto" | "replan", ...}`` with mode-specific detail
    (the scoring basis for ``auto``, the measurements and amendment for
    ``replan``).  ``revision`` counts mid-run amendments: an original
    plan is revision 0 and every adopted replan bumps it by one.
    """

    layers: int = 1
    batches: int | None = None
    predicted_seconds: float | None = None
    candidates: tuple = ()
    backend: str = "dense"
    predicted_memory: dict | None = None
    spec: ExecSpec | None = None
    provenance: dict = field(default_factory=dict)
    revision: int = 0
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #

    @classmethod
    def executed(cls, spec: ExecSpec, source: "ExecPlan | None" = None, *,
                 batches: int, backend: str, mode: str,
                 replans=()) -> "ExecPlan":
        """The record of what a finished run executed — the single
        constructor of every result's ``info["plan"]``.

        ``spec`` is the executed spec; the realised ``batches`` and
        ``backend`` are pinned into it.  The predictions and provenance
        of ``source`` (the plan the caller passed, if any) carry over,
        with ``mode`` (``"explicit"`` or ``"resident"``) filled in when
        the source recorded none.  Mid-run ``replans`` are appended to the
        provenance, set its mode to ``"replan"`` and each bump the
        revision.
        """
        prov = dict(source.provenance) if source is not None else {}
        prov.setdefault("mode", mode)
        if replans:
            prov["replans"] = list(prov.get("replans", ())) + list(replans)
            prov["mode"] = "replan"
        return cls(
            layers=spec.layers,
            batches=int(batches),
            predicted_seconds=(
                source.predicted_seconds if source is not None else None
            ),
            candidates=source.candidates if source is not None else (),
            backend=backend,
            predicted_memory=(
                source.predicted_memory if source is not None else None
            ),
            spec=spec.amended(batches=int(batches), comm_backend=backend),
            provenance=prov,
            revision=(
                (source.revision if source is not None else 0) + len(replans)
            ),
        )

    def with_spec(self, **changes) -> "ExecPlan":
        """A copy whose embedded spec has ``changes`` applied — the hook
        runtime layers (the serving pool, the CLI) use to graft their
        slot-specific knobs (world, transport, timeout, resilience) onto
        a cached plan without disturbing the chosen configuration."""
        base = self.spec if self.spec is not None else ExecSpec()
        return replace(self, spec=base.amended(**changes))

    def amend(self, *, reason: str, measurements: dict | None = None,
              **changes) -> "ExecPlan":
        """The replanning transition: a new revision with ``changes``
        applied to the resolved choice (``batches=`` / ``backend=``) and
        the decision recorded in ``provenance``."""
        resolved = {
            k: changes.pop(k)
            for k in ("layers", "batches", "backend")
            if k in changes
        }
        if changes:
            raise PlannerError(
                f"ExecPlan.amend only changes the resolved choice "
                f"(layers/batches/backend), not {sorted(changes)}"
            )
        prov = dict(self.provenance)
        prov.setdefault("replans", [])
        prov["replans"] = list(prov["replans"]) + [{
            "reason": reason,
            "from": {"batches": self.batches, "backend": self.backend},
            "to": {
                "batches": resolved.get("batches", self.batches),
                "backend": resolved.get("backend", self.backend),
            },
            "measurements": dict(measurements or {}),
        }]
        prov["mode"] = "replan"
        spec = self.spec
        if spec is not None:
            spec = spec.amended(
                batches=resolved.get("batches", self.batches),
                comm_backend=resolved.get("backend", self.backend),
            )
        return replace(
            self, spec=spec, provenance=prov, revision=self.revision + 1,
            **resolved,
        )

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        d = {
            "spec_version": SPEC_VERSION,
            "layers": self.layers,
            "batches": self.batches,
            "predicted_seconds": self.predicted_seconds,
            "candidates": [list(c) for c in self.candidates],
            "backend": _registry_name(self.backend),
            "predicted_memory": self.predicted_memory,
            "spec": None if self.spec is None else self.spec.to_dict(),
            "provenance": dict(self.provenance),
            "revision": self.revision,
        }
        d.update(self.extra)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExecPlan":
        if not isinstance(d, dict):
            raise TypeError(f"ExecPlan.from_dict needs a dict, got {type(d)}")
        known_names = {
            "layers", "batches", "predicted_seconds", "candidates",
            "backend", "predicted_memory", "spec", "provenance", "revision",
        }
        known = {}
        extra = {}
        for key, value in d.items():
            if key == "spec_version":
                continue
            if key in known_names:
                known[key] = value
            else:
                extra[key] = value
        if known.get("candidates"):
            known["candidates"] = tuple(
                tuple(c) for c in known["candidates"]
            )
        else:
            known["candidates"] = ()
        if known.get("spec") is not None:
            known["spec"] = ExecSpec.from_dict(known["spec"])
        known["provenance"] = dict(known.get("provenance") or {})
        return cls(**known, extra=extra)
