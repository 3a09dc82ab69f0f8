"""Tests for the persistent distributed-matrix context."""

import numpy as np
import pytest

from repro.dist import DistContext
from repro.errors import DistributionError, ShapeError
from repro.plan import ExecSpec
from repro.plan.spec import SPEC_FIELDS
from repro.sparse import multiply, random_sparse
from repro.sparse.semiring import MIN_PLUS
from repro.summa import run_plan


@pytest.fixture(scope="module")
def matrix():
    return random_sparse(40, 40, nnz=420, seed=141)


@pytest.fixture
def ctx():
    return DistContext(nprocs=4, layers=1)


class TestHandles:
    def test_distribute_gather_roundtrip_a(self, ctx, matrix):
        h = ctx.distribute(matrix, "A")
        assert h.to_global().allclose(matrix)
        assert h.layout == "A"
        assert h.shape == (40, 40)

    def test_distribute_gather_roundtrip_b(self, ctx, matrix):
        h = ctx.distribute(matrix, "B")
        assert h.to_global().allclose(matrix)

    def test_nnz_sums_tiles(self, ctx, matrix):
        h = ctx.distribute(matrix)
        assert h.nnz == matrix.nnz

    def test_rectangular(self, ctx):
        m = random_sparse(30, 50, nnz=200, seed=142)
        for layout in ("A", "B"):
            assert ctx.distribute(m, layout).to_global().allclose(m)

    def test_unknown_layout(self, ctx, matrix):
        with pytest.raises(DistributionError):
            ctx.distribute(matrix, "Z")

    def test_free_invalidates(self, ctx, matrix):
        h = ctx.distribute(matrix)
        ctx.free(h)
        with pytest.raises(DistributionError):
            ctx.gather(h)

    def test_foreign_handle_rejected(self, ctx, matrix):
        other = DistContext(nprocs=4)
        h = other.distribute(matrix)
        with pytest.raises(DistributionError):
            ctx.gather(h)

    def test_memory_accounting(self, ctx, matrix):
        before = ctx.memory_bytes()
        ctx.distribute(matrix)
        assert ctx.memory_bytes() == before + matrix.nnz * 24

    def test_repr(self, ctx, matrix):
        assert "layout='A'" in repr(ctx.distribute(matrix))


class TestRedistribute:
    @pytest.mark.parametrize("nprocs,layers", [(4, 1), (8, 2), (16, 4)])
    def test_a_to_b_roundtrip(self, matrix, nprocs, layers):
        ctx = DistContext(nprocs=nprocs, layers=layers)
        ha = ctx.distribute(matrix, "A")
        hb = ctx.redistribute(ha, "B")
        assert hb.layout == "B"
        assert hb.to_global().allclose(matrix)
        back = ctx.redistribute(hb, "A")
        assert back.to_global().allclose(matrix)

    def test_same_layout_is_identity(self, ctx, matrix):
        h = ctx.distribute(matrix, "A")
        assert ctx.redistribute(h, "A") is h

    def test_redistribution_metered(self, matrix):
        ctx = DistContext(nprocs=4)
        h = ctx.distribute(matrix, "A")
        ctx.redistribute(h, "B")
        assert ctx.tracker.total_bytes("Redistribute") > 0

    def test_preserves_nnz(self, ctx, matrix):
        h = ctx.distribute(matrix, "A")
        assert ctx.redistribute(h, "B").nnz == matrix.nnz


class TestMultiply:
    @pytest.mark.parametrize("nprocs,layers", [(4, 1), (8, 2), (16, 4)])
    @pytest.mark.parametrize("batches", [1, 3])
    def test_matches_local(self, matrix, nprocs, layers, batches):
        ctx = DistContext(nprocs=nprocs, layers=layers)
        ha = ctx.distribute(matrix, "A")
        hb = ctx.distribute(matrix, "B")
        hc, result = ctx.multiply(ha, hb, batches=batches)
        assert hc.to_global().allclose(multiply(matrix, matrix))
        assert result.batches == batches
        assert result.matrix is None

    def test_chained_squaring(self, matrix):
        """The HipMCL pattern: square, redistribute, square again —
        no global matrix ever re-distributed from scratch."""
        ctx = DistContext(nprocs=4)
        ha = ctx.distribute(matrix, "A")
        hb = ctx.distribute(matrix, "B")
        hc, _ = ctx.multiply(ha, hb, batches=2)
        hc_b = ctx.redistribute(hc, "B")
        hc2, _ = ctx.multiply(ha, hc_b, batches=2)
        expected = multiply(matrix, multiply(matrix, matrix))
        assert hc2.to_global().allclose(expected)

    def test_layout_enforced(self, ctx, matrix):
        ha = ctx.distribute(matrix, "A")
        hb = ctx.distribute(matrix, "B")
        with pytest.raises(DistributionError):
            ctx.multiply(hb, hb)
        with pytest.raises(DistributionError):
            ctx.multiply(ha, ha)

    def test_shape_mismatch(self, ctx):
        a = ctx.distribute(random_sparse(10, 12, nnz=20, seed=143), "A")
        b = ctx.distribute(random_sparse(9, 10, nnz=20, seed=144), "B")
        with pytest.raises(ShapeError):
            ctx.multiply(a, b)

    def test_memory_budget_batching(self, matrix):
        ctx = DistContext(nprocs=4)
        ha = ctx.distribute(matrix, "A")
        hb = ctx.distribute(matrix, "B")
        budget = 8 * matrix.nnz * 24
        hc, result = ctx.multiply(ha, hb, batches=None, memory_budget=budget)
        assert result.batches >= 1
        assert hc.to_global().allclose(multiply(matrix, matrix))

    def test_semiring(self, ctx, matrix):
        ha = ctx.distribute(matrix, "A")
        hb = ctx.distribute(matrix, "B")
        hc, _ = ctx.multiply(ha, hb, semiring=MIN_PLUS)
        assert hc.to_global().allclose(multiply(matrix, matrix, semiring=MIN_PLUS))

    def test_rectangular_chain(self, ctx):
        a = random_sparse(24, 30, nnz=150, seed=145)
        b = random_sparse(30, 18, nnz=140, seed=146)
        ha = ctx.distribute(a, "A")
        hb = ctx.distribute(b, "B")
        hc, _ = ctx.multiply(ha, hb)
        assert hc.shape == (24, 18)
        assert hc.to_global().allclose(multiply(a, b))


class TestResidentValidation:
    """A bad configuration fails in the shared launcher, classified,
    before the resident grid runs any SPMD region."""

    @pytest.fixture
    def no_spmd(self, ctx, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an SPMD region started")

        monkeypatch.setattr(ctx, "_run_spmd", refuse)
        return ctx

    def test_multiply_rejects_zero_batches(self, no_spmd, matrix):
        ha = no_spmd.distribute(matrix, "A")
        hb = no_spmd.distribute(matrix, "B")
        with pytest.raises(ShapeError, match="batches must be >= 1"):
            no_spmd.multiply(ha, hb, batches=0)

    def test_spmm_rejects_zero_batches(self, no_spmd, matrix):
        ha = no_spmd.distribute(matrix, "A")
        x = np.ones((matrix.ncols, 3))
        with pytest.raises(ShapeError, match="batches must be >= 1"):
            no_spmd.spmm(ha, x, batches=0)

    def test_unknown_registry_name_fails_fast(self, no_spmd, matrix):
        ha = no_spmd.distribute(matrix, "A")
        hb = no_spmd.distribute(matrix, "B")
        with pytest.raises(ValueError, match="unknown kernel suite"):
            no_spmd.multiply(ha, hb, suite="bogus")
        with pytest.raises(ValueError, match="unknown semiring"):
            no_spmd.spmm(ha, np.ones((matrix.ncols, 2)), semiring="bogus")


class TestResidentPostprocess:
    def test_pruning_inside_resident_multiply(self, matrix):
        """HipMCL's access pattern on resident matrices: prune each batch
        of the product inside the multiply."""
        from repro.sparse.ops import prune_topk_per_column

        ctx = DistContext(nprocs=4)
        ha = ctx.distribute(matrix, "A")
        hb = ctx.distribute(matrix, "B")

        def prune(batch, c0, c1, block):
            return prune_topk_per_column(block, 5)

        hc, _ = ctx.multiply(ha, hb, batches=2, postprocess=prune)
        pruned = hc.to_global()
        expected = prune_topk_per_column(multiply(matrix, matrix), 5)
        assert pruned.allclose(expected)

    def test_resident_squaring_chain_with_pruning(self, matrix):
        from repro.sparse.ops import prune_topk_per_column

        def prune(batch, c0, c1, block):
            return prune_topk_per_column(block, 8)

        ctx = DistContext(nprocs=4)
        ha = ctx.distribute(matrix, "A")
        hb = ctx.distribute(matrix, "B")
        hc, _ = ctx.multiply(ha, hb, batches=2, postprocess=prune)
        hc2, _ = ctx.multiply(
            ctx.redistribute(hc, "A"), ctx.redistribute(hc, "B"),
            batches=2, postprocess=prune,
        )
        m1 = prune_topk_per_column(multiply(matrix, matrix), 8)
        m2 = prune_topk_per_column(multiply(m1, m1), 8)
        assert hc2.to_global().allclose(m2)


class TestDistributedTranspose:
    @pytest.mark.parametrize("nprocs,layers", [(4, 1), (16, 4)])
    def test_a_handle_becomes_bt(self, nprocs, layers):
        from repro.sparse import transpose

        a = random_sparse(36, 28, nnz=250, seed=351)
        ctx = DistContext(nprocs=nprocs, layers=layers)
        ha = ctx.distribute(a, "A")
        ht = ctx.transpose(ha)
        assert ht.layout == "B"
        assert ht.shape == (28, 36)
        assert ht.to_global().allclose(transpose(a))

    def test_b_handle_becomes_at(self):
        from repro.sparse import transpose

        a = random_sparse(30, 30, nnz=200, seed=352)
        ctx = DistContext(nprocs=4)
        hb = ctx.distribute(a, "B")
        ht = ctx.transpose(hb)
        assert ht.layout == "A"
        assert ht.to_global().allclose(transpose(a))

    def test_resident_aat(self):
        """The BELLA workload on resident matrices: A @ Aᵀ without ever
        assembling either operand globally."""
        from repro.sparse import multiply, transpose

        a = random_sparse(32, 48, nnz=300, seed=353)
        ctx = DistContext(nprocs=4)
        ha = ctx.distribute(a, "A")
        hat = ctx.transpose(ha)      # Aᵀ in B layout: ready to multiply
        hc, _ = ctx.multiply(ha, hat, batches=2)
        assert hc.to_global().allclose(multiply(a, transpose(a)))

    def test_transpose_metered(self):
        a = random_sparse(24, 24, nnz=120, seed=354)
        ctx = DistContext(nprocs=4)
        ctx.transpose(ctx.distribute(a, "A"))
        assert ctx.tracker.total_bytes("Transpose") > 0

    def test_double_transpose_roundtrip(self):
        a = random_sparse(26, 22, nnz=150, seed=355)
        ctx = DistContext(nprocs=4)
        h = ctx.distribute(a, "A")
        back = ctx.transpose(ctx.transpose(h))
        assert back.layout == "A"
        assert back.to_global().allclose(a)

    def test_rejects_product_layout(self):
        a = random_sparse(20, 20, nnz=100, seed=356)
        ctx = DistContext(nprocs=4)
        ha = ctx.distribute(a, "A")
        hb = ctx.distribute(a, "B")
        hc, _ = ctx.multiply(ha, hb, batches=3)
        if hc.layout == "C":
            with pytest.raises(DistributionError):
                ctx.transpose(hc)


class TestLifecycle:
    """Satellite (ISSUE 9): DistContext as a reusable, resource-safe
    context manager — close() always sweeps and is idempotent, closed
    contexts refuse work with a typed error, and the exception path
    cleans up too."""

    def test_context_manager_reuse_within_block(self, matrix):
        with DistContext(nprocs=4) as ctx:
            for _ in range(2):
                ha = ctx.distribute(matrix, "A")
                hb = ctx.distribute(matrix, "B")
                hc, _ = ctx.multiply(ha, hb, batches=2)
                assert hc.to_global().allclose(multiply(matrix, matrix))
                for h in (ha, hb, hc):
                    ctx.free(h)
            assert ctx.memory_bytes() == 0
        assert ctx.closed

    def test_closed_context_refuses_work(self, matrix):
        ctx = DistContext(nprocs=4)
        ctx.distribute(matrix, "A")
        ctx.close()
        with pytest.raises(DistributionError, match="closed"):
            ctx.distribute(matrix, "A")

    def test_close_is_idempotent_and_frees_tiles(self, matrix):
        ctx = DistContext(nprocs=4)
        ctx.distribute(matrix, "A")
        assert ctx.memory_bytes() > 0
        ctx.close()
        assert ctx.memory_bytes() == 0
        ctx.close()  # second close is a no-op
        assert ctx.closed

    def test_exception_path_still_closes(self, matrix):
        ctx = DistContext(nprocs=4)
        with pytest.raises(RuntimeError, match="boom"):
            with ctx:
                ctx.distribute(matrix, "A")
                raise RuntimeError("boom")
        assert ctx.closed
        assert ctx.memory_bytes() == 0

    def test_handle_operations_fail_after_close(self, matrix):
        ctx = DistContext(nprocs=4)
        h = ctx.distribute(matrix, "A")
        ctx.close()
        with pytest.raises(DistributionError):
            ctx.transpose(h)

    def test_process_world_close_sweeps_shm(self, matrix):
        """In the process world every run's shm segments are gone after
        close() — the serving pool relies on this for slot hygiene."""
        import glob

        def shm_names():
            return {
                n for n in map(
                    lambda p: p.rsplit("/", 1)[-1],
                    glob.glob("/dev/shm/repro_*"),
                )
            }

        before = shm_names()
        ctx = DistContext(nprocs=4, world="processes", timeout=60.0)
        try:
            ha = ctx.distribute(matrix, "A")
            hb = ctx.distribute(matrix, "B")
            hc, _ = ctx.multiply(ha, hb, batches=2)
            assert hc.to_global().allclose(multiply(matrix, matrix))
        finally:
            ctx.close()
        assert shm_names() <= before
        assert ctx.last_world_info.get("world") == "processes"



def _shows(key, value):
    return lambda result, handle, fence: result.info[key] == value


def _block_ranges_change(result, handle, fence):
    base, _ = fence.ctx.multiply(fence.ha, fence.hb, batches=3)
    return result.info["batch_scheme"] == "block" and handle.ranges != base.ranges


def _complement_excludes_mask(result, handle, fence):
    kept, _ = fence.ctx.multiply(
        fence.ha, fence.hb, kernel="masked_spgemm", mask=fence.mask
    )
    full, _ = fence.ctx.multiply(fence.ha, fence.hb)
    return handle.nnz + kept.nnz == full.nnz


def _replan_forced(result, handle, fence):
    replans = result.info["resilience"]["replans"]
    return result.batches == 4 and replans[0]["to"]["batches"] == 4


#: every ExecSpec field, classified for resident runs: a non-default
#: valid value either runs and shows it ran (``(knobs, check)``; the
#: string ``"mask"`` stands for the fence's mask), or is refused before
#: any SPMD region starts (``(REJECT, knobs)``, with companion knobs).
REJECT = object()
FENCE = {
    "nprocs": (REJECT, {"nprocs": 16}),
    "layers": (REJECT, {"layers": 4}),
    "batches": ({"batches": 3}, lambda r, h, f: r.batches == 3),
    "memory_budget": (
        {"memory_budget": 8 * 420 * 24}, lambda r, h, f: "symbolic" in r.info,
    ),
    "memory_budget_per_rank": ({"memory_budget_per_rank": 10**7}, None),
    "enforce": (
        {"enforce": "warn", "memory_budget_per_rank": 10**7},
        lambda r, h, f: r.info["memory"]["enforce"] == "warn",
    ),
    "bytes_per_nonzero": ({"bytes_per_nonzero": 16}, None),
    "suite": ({"suite": "sorted-heap"}, _shows("suite", "sorted-heap")),
    "semiring": ({"semiring": "min_plus"}, _shows("semiring", "min_plus")),
    "kernel": (
        {"kernel": "masked_spgemm", "mask": "mask"},
        _shows("kernel", "masked_spgemm"),
    ),
    "mask_complement": (
        {"mask_complement": True, "kernel": "masked_spgemm", "mask": "mask"},
        _complement_excludes_mask,
    ),
    "keep_output": (REJECT, {"keep_output": False}),
    "batch_scheme": (
        {"batch_scheme": "block", "batches": 3}, _block_ranges_change,
    ),
    "merge_policy": (
        {"merge_policy": "incremental"}, _shows("merge_policy", "incremental"),
    ),
    "comm_backend": ({"comm_backend": "sparse"}, _shows("comm_backend", "sparse")),
    "overlap": ({"overlap": "depth1"}, _shows("overlap", "depth1")),
    "spill_dir": (REJECT, {"spill_dir": "fence-spill"}),
    "timeout": (REJECT, {"timeout": 30.0}),
    "checksums": ({"checksums": True}, None),
    "max_retries": ({"max_retries": 0}, None),
    "checkpoint_dir": (REJECT, {"checkpoint_dir": "fence-ckpt"}),
    "resume": (REJECT, {"resume": True, "checkpoint_dir": "fence-ckpt"}),
    "checkpoint_keep_last": ({"checkpoint_keep_last": 2}, None),
    "heal": (REJECT, {"heal": "shrink", "checkpoint_dir": "fence-ckpt"}),
    "world_spares": ({"world_spares": 1}, None),
    "world": (REJECT, {"world": "processes"}),
    "transport": (REJECT, {"transport": "shm"}),
    "replan": ({"replan": "auto", "batches": 2}, None),
    "replan_threshold": ({"replan_threshold": 0.5}, None),
    "replan_min_batches": ({"replan_min_batches": 2}, None),
    "max_replans": ({"max_replans": 2}, None),
    "replan_force": (
        {"replan_force": ((0, {"batches": 4}),), "batches": 2},
        _replan_forced,
    ),
}

#: the spmm subset: the four knobs the resident copy used to drop, and
#: every refusal (plus the pinned kernel).
SPMM_RUNS = ("batch_scheme", "merge_policy", "comm_backend", "overlap")
SPMM_REJECTS = tuple(
    name for name, (knobs, _) in FENCE.items() if knobs is REJECT
) + ("kernel",)


def _refuse_spmd(monkeypatch, ctx):
    def refuse(*args, **kwargs):
        raise AssertionError("an SPMD region started")

    monkeypatch.setattr(ctx, "_run_spmd", refuse)


class TestResidentKnobFence:
    """Every spec field passed to a resident entry point either runs and
    shows it ran, or is refused, classified, before ``_run_spmd``."""

    @pytest.fixture
    def fence(self, matrix, tmp_path, monkeypatch):
        from types import SimpleNamespace

        monkeypatch.chdir(tmp_path)  # refused paths must never be created
        ctx = DistContext(nprocs=8, layers=2)
        return SimpleNamespace(
            ctx=ctx, ha=ctx.distribute(matrix, "A"),
            hb=ctx.distribute(matrix, "B"),
            mask=random_sparse(40, 40, nnz=500, seed=147),
        )

    @pytest.mark.parametrize("field", SPEC_FIELDS)
    def test_multiply(self, fence, monkeypatch, field):
        knobs, check = FENCE[field]
        if knobs is REJECT:
            _refuse_spmd(monkeypatch, fence.ctx)
            with pytest.raises(DistributionError, match=field):
                fence.ctx.multiply(fence.ha, fence.hb, **check)
            return
        knobs = dict(knobs)
        if knobs.get("mask") == "mask":
            knobs["mask"] = fence.mask
        hc, result = fence.ctx.multiply(fence.ha, fence.hb, **knobs)
        # the executed plan records what ran, for every knob that runs
        want = ExecSpec.from_kwargs(**{field: knobs[field]}).to_dict()[field]
        assert result.info["plan"]["spec"][field] == want
        assert check is None or check(result, hc, fence)

    @pytest.mark.parametrize("field", SPMM_RUNS + SPMM_REJECTS)
    def test_spmm(self, fence, monkeypatch, field):
        x = np.arange(40 * 3, dtype=float).reshape(40, 3)
        if field in SPMM_REJECTS:
            knobs = {"kernel": "spgemm"} if field == "kernel" else FENCE[field][1]
            _refuse_spmd(monkeypatch, fence.ctx)
            with pytest.raises(DistributionError, match=field):
                fence.ctx.spmm(fence.ha, x, **knobs)
            return
        knobs = FENCE[field][0]
        y, result = fence.ctx.spmm(fence.ha, x, **knobs)
        assert result.info[field] == knobs[field]
        assert result.matrix is y
        assert np.allclose(y, fence.ctx.gather(fence.ha).to_dense() @ x)

    def test_plan_path_runs_what_it_records(self, fence):
        _, result = fence.ctx.multiply(
            fence.ha, fence.hb,
            plan=ExecSpec(overlap="depth1", comm_backend="sparse"),
        )
        assert result.info["overlap"] == "depth1"
        assert result.info["comm_backend"] == "sparse"
        assert result.info["plan"]["spec"]["overlap"] == "depth1"
        # the context's grid overrides the plan's slot-level fields
        assert result.info["plan"]["spec"]["nprocs"] == 8

    def test_auto_backend_needs_operand_statistics(self, fence, monkeypatch):
        y, result = fence.ctx.spmm(fence.ha, np.ones((40, 2)), comm_backend="auto")
        assert result.info["comm_backend"] == "dense"
        _refuse_spmd(monkeypatch, fence.ctx)
        with pytest.raises(DistributionError, match="comm_backend='auto'"):
            fence.ctx.multiply(fence.ha, fence.hb, comm_backend="auto")

    def test_masked_kernel_needs_a_mask(self, fence, monkeypatch):
        _refuse_spmd(monkeypatch, fence.ctx)
        with pytest.raises(DistributionError, match="without mask="):
            fence.ctx.multiply(fence.ha, fence.hb, kernel="masked_spgemm")

    def test_block_scheme_product_redistributes(self, fence, matrix):
        """Under batch_scheme="block" a layered rank's pieces interleave
        with its fiber peer's; the "C" handle still gathers and feeds the
        next multiply after redistribution."""
        ctx = fence.ctx
        hc, _ = ctx.multiply(fence.ha, fence.hb, batches=3, batch_scheme="block")
        assert hc.layout == "C"
        square = multiply(matrix, matrix)
        assert hc.to_global().allclose(square)
        hc_b = ctx.redistribute(hc, "B")
        assert hc_b.to_global().allclose(square)
        hc2, _ = ctx.multiply(fence.ha, hc_b)
        assert hc2.to_global().allclose(multiply(matrix, square))


class TestResidentParity:
    """Resident multiplication is run_plan on the tiles in place: products,
    metered bytes and memory high-water marks are bit-identical to
    run_plan on the global operands, in both worlds."""

    @pytest.mark.parametrize("world", ["threads", "processes"])
    @pytest.mark.parametrize(
        "nprocs,layers,batches", [(4, 1, 1), (4, 1, 3), (8, 2, 2), (16, 4, 2)]
    )
    def test_matches_run_plan(self, matrix, world, nprocs, layers, batches):
        ref = run_plan(matrix, matrix, ExecSpec(
            nprocs=nprocs, layers=layers, batches=batches, world=world,
            timeout=60.0,
        ))
        with DistContext(nprocs, layers, world=world, timeout=60.0) as ctx:
            ha = ctx.distribute(matrix, "A")
            hb = ctx.distribute(matrix, "B")
            hc, result = ctx.multiply(ha, hb, batches=batches)
            got = hc.to_global()
        for name in ("indptr", "rowidx", "values"):
            assert np.array_equal(getattr(got, name), getattr(ref.matrix, name))
        assert result.tracker.by_step() == ref.tracker.by_step()
        assert result.tracker.total_bytes() == ref.tracker.total_bytes()
        assert result.max_local_bytes == ref.max_local_bytes
        assert set(result.info) == set(ref.info) | {"resident"}
        assert result.info["plan"]["provenance"]["mode"] == "resident"


class TestResidentResilience:
    def test_fault_strings_accepted(self, ctx, matrix):
        ha = ctx.distribute(matrix, "A")
        hb = ctx.distribute(matrix, "B")
        hc, result = ctx.multiply(
            ha, hb, faults=["transient:rank=1,op=bcast,nth=1"]
        )
        assert hc.to_global().allclose(multiply(matrix, matrix))
        stats = result.info["fault_stats"]
        assert stats["fired"] == 1 and stats["retries"] == 1
        assert result.info["resilience"]["max_retries"] == 3

    def test_strict_budget_rebatches(self):
        """enforce="strict" reaches the ranks, and memory pressure re-batches
        the resident run through the launcher's re-entry path."""
        a = random_sparse(96, 96, nnz=900, seed=7)
        ctx = DistContext(nprocs=4)
        ha = ctx.distribute(a, "A")
        hb = ctx.distribute(a, "B")
        _, one = ctx.multiply(ha, hb, batches=1)
        direct2, two = ctx.multiply(ha, hb, batches=2)
        assert two.max_local_bytes < one.max_local_bytes
        budget = (one.max_local_bytes + two.max_local_bytes) // 2
        hc, result = ctx.multiply(
            ha, hb, batches=1, memory_budget_per_rank=budget, enforce="strict",
        )
        assert result.batches == 2
        assert result.info["resilience"]["rebatched"] == [{"from": 1, "to": 2}]
        assert result.max_local_bytes <= budget
        got, want = hc.to_global(), direct2.to_global()
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.rowidx, want.rowidx)
