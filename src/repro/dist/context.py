"""Distributed-matrix context: persistent tiles, layout conversion,
handle-to-handle multiplication.

Layouts (paper Fig. 1):

* ``"A"`` — rows split into ``pr`` blocks; columns into ``pc``
  super-blocks, each sliced across the ``l`` layers (tall tiles);
* ``"B"`` — rows into ``pr`` super-blocks sliced across layers; columns
  into ``pc`` blocks (wide tiles);
* ``"C"`` — the product's native layout: like ``"A"`` but with column
  boundaries induced by the batch blocks, which coincide with standard
  ``"A"`` boundaries only when the arithmetic happens to nest evenly.
  A ``"C"`` handle can be gathered or redistributed, but must be
  converted (one metered alltoall) before serving as a multiply operand.

A product computed by BatchedSUMMA3D lands in ``"C"``/``"A"`` layout (the
paper distributes C like A), so iterated squaring — HipMCL's access
pattern — pays at most two redistributions per iteration, to refresh the
operands.  Redistribution is a real alltoall over the simulated runtime,
metered under the ``"Redistribute"`` step label.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import DistributionError, ShapeError
from ..grid.distribution import (
    a_tile_range,
    b_tile_range,
    gather_dense_tiles,
    gather_tiles,
)
from ..grid.grid3d import ProcGrid3D
from ..mem import MemoryLedger
from ..plan.spec import ExecPlan, ExecSpec, _registry_name
from ..simmpi.comm import DEFAULT_TIMEOUT, SimComm
from ..simmpi.engine import run_spmd
from ..simmpi.tracker import CommTracker
from ..sparse.matrix import SparseMatrix
from ..sparse.ops import col_concat, submatrix
from ..summa.core import TileSource, spmd_batched_summa3d
from ..summa.result import SummaResult
from ..utils.timing import StepTimes

_STANDARD_LAYOUTS = {"A": a_tile_range, "B": b_tile_range}


def _standard_ranges(layout: str, grid: ProcGrid3D, nrows: int, ncols: int):
    fn = _STANDARD_LAYOUTS[layout]
    return [
        fn(grid, nrows, ncols, *grid.coords(rank))
        for rank in range(grid.nprocs)
    ]


class DistMatrixHandle:
    """A matrix resident tile-per-rank inside a :class:`DistContext`.

    ``layout`` is ``"A"`` / ``"B"`` (standard, usable as the corresponding
    multiply operand) or ``"C"`` (product-native; redistribute first).
    """

    __slots__ = ("context", "key", "nrows", "ncols", "layout", "ranges")

    def __init__(self, context: "DistContext", key: int, nrows: int,
                 ncols: int, layout: str, ranges) -> None:
        self.context = context
        self.key = key
        self.nrows = nrows
        self.ncols = ncols
        self.layout = layout
        self.ranges = list(ranges)  # per-rank (r0, r1, c0, c1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return sum(t.nnz for t in self.context._tiles[self.key])

    def tile(self, rank: int) -> SparseMatrix:
        return self.context._tiles[self.key][rank]

    def to_global(self) -> SparseMatrix:
        return self.context.gather(self)

    def __repr__(self) -> str:
        return (
            f"DistMatrixHandle({self.nrows}x{self.ncols}, layout={self.layout!r}, "
            f"nnz={self.nnz}, grid={self.context.grid!r})"
        )


class DistContext:
    """Owner of a process grid and the matrices distributed on it.

    >>> ctx = DistContext(nprocs=4, layers=1)
    >>> ha = ctx.distribute(A, layout="A")
    >>> hb = ctx.distribute(A, layout="B")
    >>> hc, result = ctx.multiply(ha, hb)      # C = A @ A, stays distributed
    >>> hb2 = ctx.redistribute(hc, "B")        # feed it back as B
    >>> hc2, _ = ctx.multiply(ha, hb2)         # A @ (A @ A)
    """

    def __init__(self, nprocs: int = 4, layers: int = 1,
                 tracker: CommTracker | None = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 world: str = "threads",
                 transport: str = "auto") -> None:
        self.grid = ProcGrid3D(nprocs, layers)
        self.tracker = tracker if tracker is not None else CommTracker()
        self.timeout = timeout
        #: execution world for every SPMD region this context launches
        #: (redistribute / transpose / multiply): "threads" or
        #: "processes"; transport applies to the process world only.
        self.world = world
        self.transport = transport
        self._tiles: dict[int, list[SparseMatrix]] = {}
        self._next_key = itertools.count()
        #: set by :meth:`close`; a closed context refuses every operation
        self.closed = False
        #: process-world run ids this context launched — :meth:`close`
        #: re-sweeps them all as defense in depth (the engine sweeps at
        #: the end of each run, but a resident pool cannot afford to
        #: trust that every historical exit path did)
        self._run_ids: set[str] = set()
        #: ``world_info`` of the most recent SPMD region (diagnostics)
        self.last_world_info: dict = {}

    # ------------------------------------------------------------------ #
    # lifecycle: a DistContext is reusable across jobs and must release
    # everything it ever touched on exit, raised-through exceptions
    # included — the resident-pool contract
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "DistContext":
        self._ensure_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> int:
        """Release every resident tile and sweep all `/dev/shm` segments
        from every process-world run this context launched.  Idempotent;
        returns the number of segments the final sweep collected (0 when
        the engine's own per-run teardown already got them all — the
        healthy case)."""
        if self.closed:
            return 0
        self.closed = True
        self._tiles.clear()
        swept = 0
        if self.world == "processes":
            from ..mp.shm import sweep_segments

            for run_id in sorted(self._run_ids):
                swept += sweep_segments(run_id)
        self._run_ids.clear()
        return swept

    def _ensure_open(self) -> None:
        if self.closed:
            raise DistributionError(
                "this DistContext is closed; create a new one "
                "(resident grids are re-forked, never resurrected)"
            )

    def _run_spmd(self, fn, *args, **kwargs):
        """Every SPMD launch goes through here: the region's process-world
        run id is recorded *even when the run raises*, so :meth:`close`
        can re-sweep it later."""
        self._ensure_open()
        world_info: dict = {}
        kwargs.setdefault("tracker", self.tracker)
        kwargs.setdefault("timeout", self.timeout)
        kwargs.setdefault("world", self.world)
        kwargs.setdefault("transport", self.transport)
        try:
            return run_spmd(
                self.grid.nprocs, fn, *args, world_info=world_info, **kwargs
            )
        finally:
            run_id = world_info.get("run_id")
            if run_id:
                self._run_ids.add(run_id)
            self.last_world_info = world_info

    # ------------------------------------------------------------------ #
    # handle management
    # ------------------------------------------------------------------ #

    def distribute(self, matrix: SparseMatrix, layout: str = "A") -> DistMatrixHandle:
        """Cut a global matrix into this grid's tiles (simulating data that
        arrives already distributed; no communication is metered)."""
        self._ensure_open()
        if layout not in _STANDARD_LAYOUTS:
            raise DistributionError(
                f"unknown layout {layout!r}; expected 'A' or 'B'"
            )
        ranges = _standard_ranges(layout, self.grid, matrix.nrows, matrix.ncols)
        tiles = [submatrix(matrix, *rng) for rng in ranges]
        return self._register(tiles, matrix.nrows, matrix.ncols, layout, ranges)

    def gather(self, handle: DistMatrixHandle) -> SparseMatrix:
        """Assemble a handle's tiles into a global matrix."""
        self._check(handle)
        pieces = [
            (rng[0], rng[2], tile)
            for rng, tile in zip(handle.ranges, self._tiles[handle.key])
        ]
        return gather_tiles(handle.nrows, handle.ncols, pieces)

    def free(self, handle: DistMatrixHandle) -> None:
        """Release a handle's tiles."""
        self._tiles.pop(handle.key, None)

    def memory_bytes(self) -> int:
        """Total bytes of all resident tiles (r = 24 B/nonzero accounting)."""
        return sum(t.nbytes for tiles in self._tiles.values() for t in tiles)

    # ------------------------------------------------------------------ #
    # layout conversion
    # ------------------------------------------------------------------ #

    def redistribute(self, handle: DistMatrixHandle, layout: str) -> DistMatrixHandle:
        """Convert a handle to a standard layout with one metered alltoall.

        Each rank intersects its tile with every target rank's range, sends
        the pieces personalised, and assembles what it receives — the
        standard redistribution kernel of distributed sparse libraries.
        Works from any source layout (including product-native ``"C"``).
        """
        self._check(handle)
        if layout not in _STANDARD_LAYOUTS:
            raise DistributionError(
                f"unknown target layout {layout!r}; expected 'A' or 'B'"
            )
        if layout == handle.layout:
            return handle
        src_ranges = handle.ranges
        dst_ranges = _standard_ranges(
            layout, self.grid, handle.nrows, handle.ncols
        )
        tiles = self._tiles[handle.key]

        def spmd(comm: SimComm):
            rank = comm.rank
            my_tile = tiles[rank]
            sr0, _sr1, sc0, _sc1 = src_ranges[rank]
            sendlist = []
            for dest in range(comm.size):
                dr0, dr1, dc0, dc1 = dst_ranges[dest]
                # overlap of my source tile with dest's target range,
                # in my tile's local coordinates
                lo_r = max(dr0 - sr0, 0)
                hi_r = min(dr1 - sr0, my_tile.nrows)
                lo_c = max(dc0 - sc0, 0)
                hi_c = min(dc1 - sc0, my_tile.ncols)
                if lo_r < hi_r and lo_c < hi_c:
                    piece = submatrix(my_tile, lo_r, hi_r, lo_c, hi_c)
                    sendlist.append((sr0 + lo_r, sc0 + lo_c, piece))
                else:
                    sendlist.append(None)
            with comm.step("Redistribute"):
                received = comm.alltoall(sendlist)
            dr0, dr1, dc0, dc1 = dst_ranges[rank]
            pieces = [
                (r0 - dr0, c0 - dc0, piece)
                for item in received
                if item is not None
                for (r0, c0, piece) in [item]
            ]
            return gather_tiles(dr1 - dr0, dc1 - dc0, pieces)

        new_tiles = self._run_spmd(spmd)
        return self._register(
            new_tiles, handle.nrows, handle.ncols, layout, dst_ranges
        )

    def transpose(self, handle: DistMatrixHandle) -> DistMatrixHandle:
        """Distributed transpose: an ``"A"``-layout handle of ``M`` becomes
        a ``"B"``-layout handle of ``Mᵀ`` (and vice versa) with one
        pairwise tile exchange.

        The layouts are mirror images (Fig. 1): the A-tile of ``M`` at
        grid position ``(i, j, k)`` is exactly the transpose of the B-tile
        of ``Mᵀ`` at ``(j, i, k)``, so each rank transposes locally and
        swaps with its grid-mirror — the communication pattern CombBLAS
        uses for ``AAᵀ`` workloads.  Metered under ``"Transpose"``.
        """
        self._check(handle)
        if handle.layout not in ("A", "B"):
            raise DistributionError(
                f"transpose needs a standard layout, got {handle.layout!r} "
                "(redistribute first)"
            )
        grid = self.grid
        tiles = self._tiles[handle.key]
        target_layout = "B" if handle.layout == "A" else "A"
        dst_ranges = _standard_ranges(
            target_layout, grid, handle.ncols, handle.nrows
        )

        def spmd(comm: SimComm):
            from ..sparse.ops import transpose as local_transpose

            i, j, k = grid.coords(comm.rank)
            mirror = grid.rank_of(j, i, k)
            mine = local_transpose(tiles[comm.rank])
            with comm.step("Transpose"):
                if mirror == comm.rank:
                    received = mine
                else:
                    comm.send(mine, dest=mirror, tag=9)
                    received = comm.recv(source=mirror, tag=9)
            return received

        new_tiles = self._run_spmd(spmd)
        return self._register(
            new_tiles, handle.ncols, handle.nrows, target_layout, dst_ranges
        )

    # ------------------------------------------------------------------ #
    # multiplication
    # ------------------------------------------------------------------ #

    def multiply(
        self,
        ha: DistMatrixHandle,
        hb: DistMatrixHandle,
        *,
        plan=None,
        batches: int | None = 1,
        memory_budget: int | None = None,
        suite="esc",
        semiring="plus_times",
        kernel="spgemm",
        mask: SparseMatrix | None = None,
        mask_complement: bool = False,
        postprocess=None,
        faults=None,
        checksums: bool | None = None,
        max_retries: int | None = 3,
    ) -> tuple[DistMatrixHandle, SummaResult]:
        """``C = A @ B`` between resident handles; C stays distributed.

        ``ha`` must be standard ``"A"``-layout and ``hb`` standard
        ``"B"``-layout (use :meth:`redistribute` to convert — including
        from a previous product's ``"C"`` layout).  ``postprocess`` is the
        per-batch distributed hook of
        :func:`~repro.summa.core.spmd_batched_summa3d` (HipMCL-style
        pruning on resident matrices).  Returns
        ``(handle, result)``: the handle is ``"A"`` when the batch
        boundaries happen to nest into the standard slices, else ``"C"``;
        either way it gathers and redistributes normally.
        ``result.matrix`` is ``None`` — call ``handle.to_global()`` if the
        assembled product is wanted.

        ``faults`` / ``checksums`` / ``max_retries`` run the multiplication
        under the same deterministic fault injection, envelope checksums
        and bounded retry as :func:`~repro.summa.batched.batched_summa3d`,
        in whichever execution world the context was built with — under
        ``world="processes"`` injected crashes kill real worker processes
        and retries sleep their (bounded, jittered) backoff for real;
        every blocking rendezvous is watched by the wait-for-graph hang
        watchdog either way, so a wedged resident-matrix pipeline raises a
        classified :class:`~repro.errors.HangError` instead of hanging.

        ``kernel`` may be ``"spgemm"`` (default) or ``"masked_spgemm"``
        (with a *global* ``mask=`` pattern, applied inside the local
        multiply; ``mask_complement=True`` keeps the unmasked positions).
        Dense-output kernels don't fit resident sparse handles — use
        :meth:`spmm` for ``A @ X`` with dense ``X``.

        ``plan=`` accepts an :class:`~repro.plan.ExecSpec` /
        :class:`~repro.plan.ExecPlan` instead of the loose knobs (same
        funnel as :func:`~repro.summa.run_plan`); the context's own grid,
        world and timeout override the plan's slot-level fields.  Either
        way the resolved plan is recorded in ``result.info["plan"]``.
        """
        from ..kernels import MaskedSpgemmKernel, get_kernel

        spec, plan_src = self._resolve_spec(
            plan,
            batches=batches,
            memory_budget=memory_budget,
            suite=suite,
            semiring=semiring,
            kernel=kernel,
            mask_complement=mask_complement,
            checksums=checksums,
            max_retries=max_retries,
        )
        batches = spec.batches
        memory_budget, _per_rank = spec.resolved_budget()
        suite = spec.suite
        semiring = spec.semiring
        kernel = spec.kernel
        mask_complement = spec.mask_complement
        checksums = spec.checksums
        max_retries = spec.max_retries

        kern = get_kernel(kernel)
        if kern.name not in ("spgemm", "masked_spgemm"):
            raise DistributionError(
                f"resident multiply supports sparse-output SpGEMM kernels "
                f"(got {kern.name!r}); use DistContext.spmm for dense output"
            )
        aux = None
        if kern.name == "masked_spgemm":
            if mask is None:
                raise DistributionError(
                    'kernel="masked_spgemm" needs mask= (a global sparse '
                    "pattern shaped like the product)"
                )
            if isinstance(kernel, str) and mask_complement:
                kern = MaskedSpgemmKernel(complement=True)
            aux = mask
        elif mask is not None:
            raise DistributionError(
                'mask= requires kernel="masked_spgemm" on resident handles'
            )
        self._check(ha)
        self._check(hb)
        if ha.layout != "A":
            raise DistributionError(
                "left operand must have standard layout 'A' "
                f"(got {ha.layout!r}; redistribute first)"
            )
        if hb.layout != "B":
            raise DistributionError(
                "right operand must have standard layout 'B' "
                f"(got {hb.layout!r}; redistribute first)"
            )
        if ha.ncols != hb.nrows:
            raise ShapeError(
                f"cannot multiply {ha.nrows}x{ha.ncols} by {hb.nrows}x{hb.ncols}"
            )
        a_src = TileSource(ha.nrows, ha.ncols, lambda r: self._tiles[ha.key][r])
        b_src = TileSource(hb.nrows, hb.ncols, lambda r: self._tiles[hb.key][r])
        per_rank = self._run_spmd(
            spmd_batched_summa3d,
            a_src,
            b_src,
            self.grid,
            batches=batches,
            memory_budget=memory_budget,
            suite=suite,
            semiring=semiring,
            kernel=kern,
            aux=aux,
            keep_pieces=True,
            postprocess=postprocess,
            max_retries=max_retries,
            faults=faults,
            checksums=checksums,
        )
        # Each rank's batch pieces are contiguous in global column space
        # (block-cyclic blocks k*b .. (k+1)*b - 1); concatenate in global
        # order and record the realised ranges.
        new_tiles = []
        ranges = []
        for rank, r in enumerate(per_rank):
            pieces = sorted(r["pieces"], key=lambda p: p[2])  # by c0
            tile = col_concat([p[3] for p in pieces])
            r0 = pieces[0][1]
            c0 = pieces[0][2]
            new_tiles.append(tile)
            ranges.append((r0, r0 + tile.nrows, c0, c0 + tile.ncols))
        standard = _standard_ranges("A", self.grid, ha.nrows, hb.ncols)
        layout = "A" if ranges == standard else "C"
        handle = self._register(new_tiles, ha.nrows, hb.ncols, layout, ranges)
        result = self._result(per_rank, spec, plan_src)
        return handle, result

    def spmm(
        self,
        ha: DistMatrixHandle,
        x,
        *,
        plan=None,
        batches: int | None = 1,
        memory_budget: int | None = None,
        semiring="plus_times",
        comm_backend="dense",
        overlap: str = "off",
        max_retries: int | None = 3,
    ) -> tuple[np.ndarray, SummaResult]:
        """``Y = A @ X`` with a resident sparse ``A`` and dense feature
        panel ``X`` — the GNN-propagation primitive.

        ``ha`` must be a standard ``"A"``-layout handle; ``x`` is a global
        dense ``(ha.ncols, f)`` array (feature panels are small relative
        to the matrix, so they travel to the ranks whole and each rank
        slices its block — dense panels ride collectives on either
        backend).  Returns ``(y, result)`` with ``y`` the assembled dense
        ``(ha.nrows, f)`` product; the panel is *not* registered as a
        handle (handles hold sparse tiles).
        """
        from ..kernels import SpmmKernel

        spec, plan_src = self._resolve_spec(
            plan,
            batches=batches,
            memory_budget=memory_budget,
            semiring=semiring,
            kernel="spmm",
            comm_backend=comm_backend,
            overlap=overlap,
            max_retries=max_retries,
        )
        batches = spec.batches
        memory_budget, _per_rank = spec.resolved_budget()
        semiring = spec.semiring
        comm_backend = spec.comm_backend
        overlap = spec.overlap
        max_retries = spec.max_retries

        self._check(ha)
        if ha.layout != "A":
            raise DistributionError(
                "spmm needs a standard 'A'-layout left operand "
                f"(got {ha.layout!r}; redistribute first)"
            )
        x = np.ascontiguousarray(x)
        if x.ndim != 2 or x.shape[0] != ha.ncols:
            raise ShapeError(
                f"feature panel shape {x.shape} does not match "
                f"A with {ha.ncols} columns"
            )
        a_src = TileSource(ha.nrows, ha.ncols, lambda r: self._tiles[ha.key][r])
        per_rank = self._run_spmd(
            spmd_batched_summa3d,
            a_src,
            x,
            self.grid,
            batches=batches,
            memory_budget=memory_budget,
            semiring=semiring,
            kernel=SpmmKernel(),
            comm_backend=comm_backend,
            overlap=overlap,
            keep_pieces=True,
            max_retries=max_retries,
        )
        pieces = [
            (r0, c0, tile)
            for r in per_rank
            for (_batch, r0, c0, tile) in r["pieces"]
        ]
        y = gather_dense_tiles(ha.nrows, x.shape[1], pieces)
        result = self._result(per_rank, spec, plan_src)
        return y, result

    # ------------------------------------------------------------------ #
    # plan plumbing: one shared builder for both resident entry points
    # ------------------------------------------------------------------ #

    def _resolve_spec(self, plan, **knobs):
        """Resolve ``plan=`` or loose knobs to the spec a resident run
        executes — the same funnel :func:`~repro.summa.run_plan` uses,
        with the context's grid/world/timeout overriding the slot-level
        fields either way, validated before any rank starts."""
        from ..summa.batched import _plan_to_spec

        plan_src = None
        if plan is not None:
            spec, plan_src = _plan_to_spec(plan)
        else:
            spec = ExecSpec.from_kwargs(**knobs)
        spec = spec.amended(
            nprocs=self.grid.nprocs,
            layers=self.grid.layers,
            timeout=self.timeout,
            world=self.world,
            transport=self.transport,
        ).validate()
        return spec, plan_src

    def _result(self, per_rank, spec, plan_src) -> SummaResult:
        """The :class:`SummaResult` of a resident run: per-rank memory
        reports merged into one block, and the executed plan recorded in
        ``info["plan"]`` (provenance mode ``"resident"`` unless the
        originating plan carried one)."""
        ran_batches = per_rank[0]["batches"]
        info = dict(per_rank[0]["info"], resident=True)
        info["memory"] = MemoryLedger.merge_reports(
            [r["info"]["memory"] for r in per_rank]
        )
        info["plan"] = ExecPlan.executed(
            spec, plan_src,
            batches=ran_batches,
            backend=info.get(
                "comm_backend", _registry_name(spec.comm_backend)
            ),
            mode="resident",
        ).to_dict()
        return SummaResult(
            matrix=None,
            grid=self.grid,
            batches=ran_batches,
            step_times=StepTimes.critical_path(r["times"] for r in per_rank),
            per_rank_times=[r["times"] for r in per_rank],
            tracker=self.tracker,
            max_local_bytes=max(r["max_local_bytes"] for r in per_rank),
            info=info,
        )

    def _register(self, tiles, nrows, ncols, layout, ranges) -> DistMatrixHandle:
        key = next(self._next_key)
        self._tiles[key] = list(tiles)
        return DistMatrixHandle(self, key, nrows, ncols, layout, ranges)

    def _check(self, handle: DistMatrixHandle) -> None:
        self._ensure_open()
        if handle.context is not self or handle.key not in self._tiles:
            raise DistributionError(
                "handle does not belong to this context (or was freed)"
            )
