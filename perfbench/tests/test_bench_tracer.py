import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracer as tracing  # noqa: E402
from tracer import Span  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([], 0, 10) == 0.0
    assert tracing.covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5.0
    assert tracing.covered_length([(-2, 1), (9, 12)], 0, 10) == 2.0
    assert tracing.covered_length([(1, 9), (2, 3)], 0, 10) == 8.0


def test_self_times_subtract_nested_children_and_aggregates():
    spans = [
        Span(0, "outer", "schur", 0.0, 10.0, None, 7, {"ring": 0.5}),
        Span(1, "mid", "hecke", 1.0, 4.0, 0, 7, {"ring": 1.0}),
        Span(2, "leaf", "linalg", 2.0, 3.0, 1, 7, {}),
        Span(3, "after", "linalg", 5.0, 9.0, 0, 7, {}),
    ]
    got = tracing.self_times(spans, {"symgrp": 0.25})
    assert got == pytest.approx({"schur": 2.5, "hecke": 1.0, "linalg": 5.0,
                                 "ring": 1.5, "symgrp": 0.25})
    # without loose time, self times partition the outermost span
    assert sum(tracing.self_times(spans).values()) == pytest.approx(10.0)


def test_wrapped_calls_give_spans_at_layer_boundaries_only():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def ring_op():
        clock.tick(3.0)

    def hecke_inner():
        clock.tick(1.0)

    def hecke_op():
        clock.tick(2.0)
        ring()
        inner()

    def schur_op():
        clock.tick(1.0)
        hecke()
        clock.tick(1.0)

    ring = tr.wrap("ring", "op", ring_op)
    inner = tr.wrap("hecke", "inner", hecke_inner)
    hecke = tr.wrap("hecke", "op", hecke_op)
    schur = tr.wrap("schur", "op", schur_op)
    tr.run_job(4, "job", schur)

    assert [(s.name, s.layer, s.job) for s in tr.spans] == [
        ("op", "hecke", 4), ("op", "schur", 4), ("job", "bench", 4)]
    hecke_span, schur_span, job_span = tr.spans
    assert hecke_span.parent == schur_span.id and schur_span.parent == job_span.id
    assert hecke_span.agg == {"ring": 3.0}
    assert tr.self_times() == pytest.approx(
        {"bench": 0.0, "schur": 2.0, "hecke": 3.0, "ring": 3.0})
    assert tr.calls["hecke.inner"] == 1 and tr.calls["ring.op"] == 1
    assert tr.job is None


def test_nested_calls_in_an_aggregated_layer_are_timed_once():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def add():
        clock.tick(1.0)

    def mul():
        clock.tick(1.0)
        wadd()
        wadd()

    wadd = tr.wrap("ring", "add", add)
    wmul = tr.wrap("ring", "mul", mul)
    tr.run_job(0, "job", wmul)
    assert tr.spans[0].agg == {"ring": 3.0}
    assert tr.calls["ring.add"] == 2 and tr.calls["ring.mul"] == 1


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def boom():
        clock.tick(1.0)
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.run_job(0, "job", tr.wrap("linalg", "boom", boom))
    assert [s.layer for s in tr.spans] == ["linalg", "bench"]
    assert len(tr._stack) == 1


def _fake_package():
    mods = {name: types.ModuleType(f"fake.{name}") for name in tracing.LAYERS}

    def young():
        return [1, 2, 3]

    young.__module__ = "fake.symgrp"
    mods["symgrp"].__all__ = ["young_subgroup"]
    mods["symgrp"].young_subgroup = young

    class Ctx:
        def __init__(self):
            self.n = 1

        def work(self):
            return mods["hecke"].young_subgroup()

        def _private(self):
            return 0

    mods["hecke"].__all__ = ["Ctx"]
    mods["hecke"].Ctx = Ctx
    # the name bound by `from .symgrp import young_subgroup`
    mods["hecke"].young_subgroup = young
    for name, mod in mods.items():
        if not hasattr(mod, "__all__"):
            mod.__all__ = []
    pkg = types.ModuleType("fake")
    for name, mod in mods.items():
        setattr(pkg, name, mod)
    return pkg, young, Ctx


def test_install_rebinds_imported_names_and_uninstall_restores():
    pkg, young, Ctx = _fake_package()
    original_work = Ctx.work
    tr = tracing.Tracer()
    tr.install(pkg)
    assert pkg.hecke.young_subgroup is pkg.symgrp.young_subgroup
    assert pkg.symgrp.young_subgroup is not young
    assert Ctx._private.__name__ == "_private"
    tr.run_job(0, "job", lambda: Ctx().work())
    assert tr.calls["hecke.Ctx.work"] == 1
    assert tr.calls["hecke.Ctx.__init__"] == 1
    assert tr.calls["symgrp.young_subgroup"] == 1
    assert tr.counts["symgrp.young_subgroup_elems"] == 3
    tr.uninstall()
    assert pkg.symgrp.young_subgroup is young
    assert pkg.hecke.young_subgroup is young
    assert Ctx.work is original_work
