"""ExecSpec / ExecPlan: serialisation round-trips, forward compatibility,
the single-conversion-point contract, and the amendment transition."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CommError, DistributionError, PlannerError, ShapeError
from repro.plan import ExecPlan, ExecSpec
from repro.plan.spec import SPEC_FIELDS

# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #

# every knob with a pool of realistic values; the round-trip property
# samples an arbitrary subset, so any field combination is exercised.
_KNOBS = {
    "nprocs": st.sampled_from([1, 2, 4, 8, 16]),
    "layers": st.sampled_from([1, 2, 4]),
    "batches": st.none() | st.integers(1, 32),
    "memory_budget": st.none() | st.integers(1 << 10, 1 << 30),
    "memory_budget_per_rank": st.none() | st.integers(1 << 10, 1 << 24),
    "enforce": st.sampled_from(["off", "warn", "strict"]),
    "bytes_per_nonzero": st.sampled_from([16, 20, 32]),
    "suite": st.sampled_from(["esc", "heap", "hybrid"]),
    "semiring": st.sampled_from(["plus_times", "min_plus"]),
    "kernel": st.sampled_from(["spgemm", "spmm", "masked_spgemm"]),
    "mask_complement": st.booleans(),
    "keep_output": st.booleans(),
    "batch_scheme": st.sampled_from(["block-cyclic", "contiguous"]),
    "merge_policy": st.sampled_from(["deferred", "eager"]),
    "comm_backend": st.sampled_from(["dense", "sparse"]),
    "overlap": st.sampled_from(["off", "depth1"]),
    "spill_dir": st.none() | st.just("/tmp/spill"),
    "timeout": st.sampled_from([5.0, 30.0, 120.0]),
    "checksums": st.none() | st.booleans(),
    "max_retries": st.none() | st.integers(0, 5),
    "checkpoint_dir": st.none() | st.just("/tmp/ckpt"),
    "resume": st.booleans(),
    "checkpoint_keep_last": st.none() | st.integers(1, 4),
    "heal": st.none() | st.sampled_from(["shrink", "spare"]),
    "world_spares": st.integers(0, 2),
    "world": st.sampled_from(["threads", "processes"]),
    "transport": st.sampled_from(["auto", "pickle", "shm"]),
    "replan": st.sampled_from(["off", "auto"]),
    "replan_threshold": st.sampled_from([0.0, 0.15, 0.5]),
    "replan_min_batches": st.integers(1, 4),
    "max_replans": st.integers(0, 3),
    "replan_force": st.sampled_from(
        [(), ((1, {"batches": 2}),), ((0, {"comm_backend": "sparse"}),)]
    ),
}
assert set(_KNOBS) == set(SPEC_FIELDS), (
    "knob strategy drifted from ExecSpec fields: "
    f"{set(_KNOBS) ^ set(SPEC_FIELDS)}"
)

knob_dicts = st.fixed_dictionaries({}, optional=_KNOBS)

# unknown keys a future writer might add; values restricted to JSON-safe
# scalars (that is all a manifest would carry).
future_keys = st.dictionaries(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=3, max_size=12
    ).filter(lambda k: k not in SPEC_FIELDS and k != "spec_version"),
    st.none() | st.booleans() | st.integers(-10, 10) | st.text(max_size=8),
    max_size=3,
)


# ---------------------------------------------------------------------- #
# ExecSpec round-trip (satellite 2)
# ---------------------------------------------------------------------- #

class TestExecSpecRoundTrip:
    @given(knobs=knob_dicts)
    def test_to_dict_from_dict_identity(self, knobs):
        spec = ExecSpec.from_kwargs(**knobs)
        assert ExecSpec.from_dict(spec.to_dict()) == spec

    @given(knobs=knob_dicts)
    def test_dict_form_is_stable(self, knobs):
        d = ExecSpec.from_kwargs(**knobs).to_dict()
        assert ExecSpec.from_dict(d).to_dict() == d

    @given(knobs=knob_dicts, future=future_keys)
    def test_unknown_keys_survive_round_trip(self, knobs, future):
        # a newer writer's dict (extra keys) must load under this reader
        # and re-serialise losslessly — checkpoint manifests rely on it.
        d = ExecSpec.from_kwargs(**knobs).to_dict()
        d.update(future)
        spec = ExecSpec.from_dict(d)
        assert spec.extra == future
        again = spec.to_dict()
        for key, value in future.items():
            assert again[key] == value
        assert ExecSpec.from_dict(again) == spec

    def test_registry_objects_normalise_to_names(self):
        from repro.kernels import get_kernel

        spec = ExecSpec.from_kwargs(kernel=get_kernel("spgemm"))
        assert spec.to_dict()["kernel"] == "spgemm"

    def test_replan_force_canonicalised(self):
        spec = ExecSpec.from_kwargs(replan_force=[[1, {"batches": 2}]])
        assert spec.replan_force == ((1, {"batches": 2}),)
        assert ExecSpec.from_dict(spec.to_dict()) == spec


class TestExecSpecConversionPoint:
    def test_unknown_knob_raises_with_name(self):
        with pytest.raises(TypeError, match="definitely_not_a_knob"):
            ExecSpec.from_kwargs(definitely_not_a_knob=1)

    def test_all_spec_fields_accepted(self):
        defaults = {f: getattr(ExecSpec(), f) for f in SPEC_FIELDS}
        assert ExecSpec.from_kwargs(**defaults) == ExecSpec()

    def test_validate_rejects_bad_batches(self):
        with pytest.raises(ShapeError, match="batches"):
            ExecSpec.from_kwargs(batches=0).validate()

    def test_validate_rejects_bad_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            ExecSpec.from_kwargs(overlap="sometimes").validate()

    def test_validate_rejects_bad_replan_mode(self):
        with pytest.raises(ValueError, match="replan"):
            ExecSpec.from_kwargs(replan="maybe").validate()

    def test_validate_rejects_replan_with_heal(self):
        spec = ExecSpec.from_kwargs(
            replan="auto", heal="shrink", checkpoint_dir="/tmp/ckpt"
        )
        with pytest.raises(ValueError, match="heal"):
            spec.validate()

    def test_validate_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="replan_threshold"):
            ExecSpec.from_kwargs(replan_threshold=1.0).validate()


#: one unknown value per registry-valued knob, with the classified error
#: its resolver raises (the same one the per-rank check raises)
_BAD_REGISTRY_KNOBS = [
    ("kernel", "bogus", DistributionError, "unknown local kernel"),
    ("suite", "bogus", ValueError, "unknown kernel suite"),
    ("semiring", "bogus", ValueError, "unknown semiring"),
    ("comm_backend", "nope", CommError, "unknown communication backend"),
    ("batch_scheme", "bogus", DistributionError, "unknown batch scheme"),
    ("merge_policy", "bogus", ValueError, "unknown merge policy"),
    ("transport", "bogus", ValueError, "unknown transport"),
]


class TestRegistryKnobsFailFast:
    @pytest.mark.parametrize("knob, value, exc, message", _BAD_REGISTRY_KNOBS)
    def test_validate_resolves_every_registry_knob(
        self, knob, value, exc, message
    ):
        with pytest.raises(exc, match=message):
            ExecSpec.from_kwargs(**{knob: value}).validate()

    def test_validate_rejects_unknown_world(self):
        with pytest.raises(ValueError, match="unknown world"):
            ExecSpec.from_kwargs(world="cluster").validate()

    def test_auto_backend_and_registry_instances_pass(self):
        from repro.comm import DenseCollective
        from repro.sparse.semiring import MIN_PLUS

        ExecSpec.from_kwargs(comm_backend="auto").validate()
        ExecSpec.from_kwargs(
            comm_backend=DenseCollective(), semiring=MIN_PLUS
        ).validate()

    @pytest.mark.parametrize("world", ["threads", "processes"])
    @pytest.mark.parametrize("knob, value, exc, message", _BAD_REGISTRY_KNOBS)
    def test_driver_fails_before_any_rank_starts(
        self, monkeypatch, world, knob, value, exc, message
    ):
        import repro.simmpi.engine
        import repro.summa.batched
        from repro.sparse import random_sparse
        from repro.summa import batched_summa3d

        def no_ranks(*args, **kwargs):
            raise AssertionError("an SPMD region started")

        monkeypatch.setattr(repro.summa.batched, "run_spmd", no_ranks)
        monkeypatch.setattr(repro.simmpi.engine, "run_spmd", no_ranks)
        a = random_sparse(16, 16, nnz=40, seed=1)
        with pytest.raises(exc, match=message):
            batched_summa3d(a, a, nprocs=4, layers=1, world=world,
                            **{knob: value})


# ---------------------------------------------------------------------- #
# ExecPlan
# ---------------------------------------------------------------------- #

class TestExecPlanRoundTrip:
    @given(knobs=knob_dicts, future=future_keys)
    def test_round_trip_with_embedded_spec(self, knobs, future):
        plan = ExecPlan(
            layers=4,
            batches=8,
            predicted_seconds=1.25,
            candidates=((1, 2.0), (4, 1.25)),
            backend="sparse",
            predicted_memory={"per_rank": 1024},
            spec=ExecSpec.from_kwargs(**knobs),
            provenance={"mode": "auto", "machine": "cori-knl"},
            revision=1,
        )
        d = plan.to_dict()
        d.update(future)
        back = ExecPlan.from_dict(d)
        assert back.spec == plan.spec
        assert back.extra == future
        assert back.to_dict() == d

    def test_round_trip_without_spec(self):
        plan = ExecPlan(layers=2, batches=4, backend="dense")
        assert ExecPlan.from_dict(plan.to_dict()) == plan


class TestExecPlanAmend:
    def test_amend_records_provenance_and_revision(self):
        plan = ExecPlan(
            layers=2, batches=8, backend="dense",
            spec=ExecSpec.from_kwargs(batches=8),
        )
        amended = plan.amend(
            reason="fixed-cost-dominated",
            measurements={"t_fixed": 1.0},
            batches=4,
        )
        assert amended.batches == 4
        assert amended.revision == 1
        assert amended.spec.batches == 4
        assert amended.provenance["mode"] == "replan"
        (event,) = amended.provenance["replans"]
        assert event["reason"] == "fixed-cost-dominated"
        assert event["from"]["batches"] == 8
        assert event["to"]["batches"] == 4

    def test_amend_rejects_non_resolved_fields(self):
        with pytest.raises(PlannerError, match="memory_budget"):
            ExecPlan().amend(reason="x", memory_budget=1)

    def test_with_spec_grafts_runtime_knobs(self):
        plan = ExecPlan(batches=4, spec=ExecSpec.from_kwargs(batches=4))
        run = plan.with_spec(world="processes", timeout=9.0)
        assert run.spec.world == "processes"
        assert run.spec.timeout == 9.0
        assert run.spec.batches == 4      # chosen configuration untouched
        assert run.batches == 4
