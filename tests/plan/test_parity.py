"""Driver-surface parity: ``batched_summa3d`` and ``batched_summa3d_rows``
must expose the identical signature, and every knob either driver accepts
must be an :class:`~repro.plan.ExecSpec` field.  ``summa2d`` (Alg. 1) and
``summa3d`` (Alg. 2) are ``batched_summa3d`` with ``layers``/``batches``
pinned: same knob surface, same errors, bit-identical runs.

This is the regression fence for the historical kwarg drift between the
drivers: all of them funnel ``**knobs`` through ``ExecSpec.from_kwargs``
(the single conversion point), so this module fails the moment any
surface diverges again.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.plan.spec import SPEC_FIELDS, ExecSpec
from repro.simmpi import CommTracker
from repro.sparse import random_sparse
from repro.summa import (
    batched_summa3d,
    batched_summa3d_rows,
    run_plan,
    summa2d,
    summa3d,
)


def _tiny():
    a = random_sparse(8, 8, nnz=20, seed=11)
    b = random_sparse(8, 8, nnz=20, seed=12)
    return a, b


class TestSignatureParity:
    def test_signatures_identical(self):
        assert (
            inspect.signature(batched_summa3d)
            == inspect.signature(batched_summa3d_rows)
        )

    def test_knobs_are_exactly_spec_fields(self):
        # the **knobs surface is the spec's field set, nothing else:
        # every field constructs, every non-field raises.
        defaults = {f: getattr(ExecSpec(), f) for f in SPEC_FIELDS}
        assert ExecSpec.from_kwargs(**defaults) == ExecSpec()

    def test_runtime_only_args_stay_out_of_spec(self):
        # mask/sample/postprocess/on_batch/tracker/faults are explicit
        # parameters (runtime objects), never spec knobs.
        sig = inspect.signature(batched_summa3d)
        for name in ("mask", "sample", "postprocess", "on_batch",
                     "tracker", "faults", "plan"):
            assert name in sig.parameters
            assert name not in SPEC_FIELDS


class TestUnknownKnobParity:
    def test_both_drivers_reject_unknown_knob_identically(self):
        a, b = _tiny()
        errors = []
        for driver in (batched_summa3d, batched_summa3d_rows):
            with pytest.raises(TypeError, match="no_such_knob") as exc:
                driver(a, b, 4, not_a_knob=1, no_such_knob=2)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_plan_and_loose_knobs_are_mutually_exclusive(self):
        a, b = _tiny()
        spec = ExecSpec.from_kwargs(nprocs=4)
        for driver in (batched_summa3d, batched_summa3d_rows):
            with pytest.raises(TypeError, match="batches"):
                driver(a, b, plan=spec, batches=2)


class TestPlanEntryPoints:
    def test_wrapper_and_run_plan_agree(self):
        a, b = _tiny()
        via_kwargs = batched_summa3d(a, b, 4, batches=2)
        spec = ExecSpec.from_kwargs(nprocs=4, batches=2)
        via_plan = run_plan(a, b, spec)
        via_dict = run_plan(a, b, spec.to_dict())
        for r in (via_plan, via_dict):
            assert r.matrix.allclose(via_kwargs.matrix)
            assert r.info["plan"]["batches"] == 2

    def test_rows_driver_accepts_plan(self):
        a, b = _tiny()
        spec = ExecSpec.from_kwargs(nprocs=4, batches=2)
        r = batched_summa3d_rows(a, b, plan=spec)
        assert r.info["batch_axis"] == "rows"
        assert r.matrix.allclose(batched_summa3d(a, b, 4, batches=2).matrix)


#: the derived drivers next to the batched call each one must equal
DERIVED = {
    "summa2d": (
        lambda a, b, **kw: summa2d(a, b, 4, **kw),
        lambda a, b, **kw: batched_summa3d(a, b, 4, 1, batches=1, **kw),
    ),
    "summa3d": (
        lambda a, b, **kw: summa3d(a, b, 8, 2, **kw),
        lambda a, b, **kw: batched_summa3d(a, b, 8, 2, batches=1, **kw),
    ),
}


class TestDerivedDrivers:
    @pytest.mark.parametrize("driver", [summa2d, summa3d])
    def test_unknown_knob_raises_like_batched(self, driver):
        a, b = _tiny()
        with pytest.raises(TypeError) as batched_exc:
            batched_summa3d(a, b, 4, not_a_knob=1, no_such_knob=2)
        with pytest.raises(TypeError) as derived_exc:
            driver(a, b, 4, not_a_knob=1, no_such_knob=2)
        assert str(derived_exc.value) == str(batched_exc.value)

    @pytest.mark.parametrize("driver, knob, value", [
        (summa2d, "batches", 2),
        (summa2d, "layers", 4),
        (summa2d, "plan", ExecSpec()),
        (summa3d, "batches", 2),
        (summa3d, "plan", ExecSpec()),
    ])
    def test_pinned_knob_raises_naming_it(self, driver, knob, value):
        a, b = _tiny()
        with pytest.raises(TypeError, match=f"does not accept {knob}="):
            driver(a, b, **{knob: value})

    def test_every_spec_knob_but_the_pinned_ones_is_accepted(self):
        # the derived drivers take the batched driver's whole surface:
        # every spec field at its default, plus the runtime-only hooks
        a, b = _tiny()
        defaults = {f: getattr(ExecSpec(), f) for f in SPEC_FIELDS}
        for name in ("nprocs", "layers", "batches"):
            defaults.pop(name)
        tracker = CommTracker()
        r = summa2d(a, b, 4, tracker=tracker, mask=None, **defaults)
        assert r.batches == 1 and r.grid.layers == 1
        assert tracker.total_bytes() > 0

    @pytest.mark.parametrize("world", ["threads", "processes"])
    @pytest.mark.parametrize("name", sorted(DERIVED))
    def test_bit_identical_to_batched_call(self, name, world):
        a = random_sparse(24, 24, nnz=90, seed=21)
        b = random_sparse(24, 24, nnz=90, seed=22)
        derived, batched = DERIVED[name]
        results = []
        for run in (derived, batched):
            tracker = CommTracker()
            r = run(a, b, world=world, tracker=tracker)
            results.append((r, tracker.total_bytes()))
        (r1, bytes1), (r2, bytes2) = results
        for field in ("indptr", "rowidx", "values"):
            assert np.array_equal(
                getattr(r1.matrix, field), getattr(r2.matrix, field)
            )
        assert bytes1 == bytes2
        assert r1.info["plan"] == r2.info["plan"]
