"""Tests for utility modules (rng, timing)."""

import numpy as np
import pytest

from repro.utils import (
    StepTimes,
    Timer,
    as_rng,
    spawn_rngs,
)


class TestRng:
    def test_as_rng_from_int(self):
        a, b = as_rng(5), as_rng(5)
        assert a.random() == b.random()

    def test_as_rng_passthrough(self):
        g = np.random.default_rng(1)
        assert as_rng(g) is g

    def test_as_rng_none(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_spawn_independent_streams(self):
        rngs = spawn_rngs(7, 4)
        draws = [r.random() for r in rngs]
        assert len(set(draws)) == 4

    def test_spawn_deterministic(self):
        a = [r.random() for r in spawn_rngs(7, 3)]
        b = [r.random() for r in spawn_rngs(7, 3)]
        assert a == b

    def test_spawn_negative(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            sum(range(1000))
        assert t.elapsed >= 0.0


class TestStepTimes:
    def test_add_accumulates(self):
        st = StepTimes()
        st.add("x", 1.0)
        st.add("x", 2.0)
        assert st.get("x") == 3.0
        assert st.get("missing") == 0.0

    def test_total(self):
        st = StepTimes({"a": 1.0, "b": 2.5})
        assert st.total() == 3.5

    def test_addition(self):
        a = StepTimes({"x": 1.0})
        b = StepTimes({"x": 2.0, "y": 3.0})
        c = a + b
        assert c.get("x") == 3.0 and c.get("y") == 3.0
        assert a.get("x") == 1.0  # inputs untouched

    def test_division(self):
        st = StepTimes({"x": 4.0}) / 2
        assert st.get("x") == 2.0
        with pytest.raises(ZeroDivisionError):
            StepTimes() / 0

    def test_critical_path(self):
        ranks = [StepTimes({"x": 1.0, "y": 5.0}), StepTimes({"x": 3.0})]
        cp = StepTimes.critical_path(ranks)
        assert cp.get("x") == 3.0 and cp.get("y") == 5.0

    def test_format_table(self):
        out = StepTimes({"step": 1.0}).format_table("title")
        assert "title" in out and "TOTAL" in out
