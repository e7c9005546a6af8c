"""Self-time subtraction over nested spans, and wrappers that restore originals."""

import types

import pytest

from repro.telemetry.clock import FakeClock
from repro.telemetry.spans import SpanRecord, Tracer
from tracing import Patches, defining_class, self_times, subtree, summarize, wrap


def span(span_id, name, parent_id, start, end):
    return SpanRecord(name, span_id, parent_id, 0, start, end)


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        span(1, "run", None, 0.0, 10.0),
        span(2, "client", 1, 1.0, 6.0),
        span(3, "loss", 2, 2.0, 3.0),
        span(4, "loss", 2, 4.0, 5.5),
        span(5, "evaluate", 1, 7.0, 9.0),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 3.0, 2: 2.5, 3: 1.0, 4: 1.5, 5: 2.0}
    # Self times of a tree partition the root's duration.
    assert sum(selfs.values()) == pytest.approx(spans[0].duration)


def test_subtree_keeps_only_descendants():
    spans = [
        span(2, "step", 1, 1.0, 2.0),
        span(1, "run", None, 0.0, 4.0),
        span(3, "build", None, 5.0, 6.0),
        span(4, "inner", 3, 5.0, 5.5),
    ]
    assert [s.span_id for s in subtree(spans, spans[1])] == [1, 2]


def test_summarize_groups_by_name():
    spans = [
        span(1, "run", None, 0.0, 4.0),
        span(2, "step", 1, 0.0, 1.0),
        span(3, "step", 1, 2.0, 3.5),
    ]
    rows = summarize(spans)
    assert rows["step"].calls == 2
    assert rows["step"].durations == [1.0, 1.5]
    assert rows["step"].self_seconds == pytest.approx(2.5)
    assert rows["run"].self_seconds == pytest.approx(1.5)


def test_wrapped_calls_record_nesting_on_the_program_tracer():
    clock = FakeClock()

    class Engine:
        def run(self):
            clock.advance(1.0)
            self.step()
            clock.advance(1.0)
            return "done"

        def step(self):
            clock.advance(2.0)

    tracer = Tracer(clock=clock)
    with Patches() as patches:
        wrap(tracer, patches, Engine, "run", "engine.run")
        wrap(tracer, patches, Engine, "step", "engine.step")
        assert Engine().run() == "done"
    step, run = tracer.finished  # finished innermost first
    assert (run.name, run.parent_id, run.duration) == ("engine.run", None, 4.0)
    assert (step.name, step.parent_id, step.duration) == ("engine.step", run.span_id, 2.0)
    assert subtree(tracer.finished, run) == [run, step]
    assert self_times(tracer.finished) == {run.span_id: 2.0, step.span_id: 2.0}


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock())

    class Engine:
        def run(self):
            raise KeyError("boom")

    with Patches() as patches:
        wrap(tracer, patches, Engine, "run", "engine.run")
        with pytest.raises(KeyError):
            Engine().run()
    assert tracer.finished[0].attributes == {"error": "KeyError"}
    assert tracer.depth == 0


def test_span_attributes_come_from_the_call():
    tracer = Tracer(clock=FakeClock())

    class Executor:
        def run_cohort(self, jobs):
            return len(jobs)

    with Patches() as patches:
        wrap(
            tracer, patches, Executor, "run_cohort", "cohort",
            attrs=lambda self, jobs: {"jobs": len(jobs)},
        )
        assert Executor().run_cohort([1, 2, 3]) == 3
    assert tracer.finished[0].attributes == {"jobs": 3}


def test_wrappers_restore_class_overrides_and_inherited_methods():
    class Base:
        def active(self):
            return "base"

    class Child(Base):
        def direction(self):
            return "child"

    original_active = Base.__dict__["active"]
    original_direction = Child.__dict__["direction"]
    tracer = Tracer(clock=FakeClock())
    patches = Patches()
    wrap(tracer, patches, Child, "active", "inherited")  # inherited: restore must delete it
    wrap(tracer, patches, Child, "direction", "own")
    assert Child().active() == "base"
    assert Child().direction() == "child"
    assert "active" in vars(Child)
    patches.restore()
    assert "active" not in vars(Child)
    assert Base.__dict__["active"] is original_active
    assert Child.__dict__["direction"] is original_direction
    assert [s.name for s in tracer.finished] == ["inherited", "own"]


def test_wrapping_where_defined_keeps_identity_checks():
    class Base:
        def active(self):
            return 1

    class Child(Base):
        pass

    owner = defining_class(Child, "active")
    assert owner is Base
    with Patches() as patches:
        wrap(Tracer(clock=FakeClock()), patches, owner, "active", "active")
        assert Child.active is Base.active  # what an engine's fast-path check tests
    with pytest.raises(AttributeError):
        defining_class(Child, "missing")


def test_module_level_names_are_wrapped_and_restored():
    module = types.ModuleType("fake_engine")

    def evaluate(x):
        return x + 1

    module.evaluate = evaluate
    tracer = Tracer(clock=FakeClock())
    with Patches() as patches:
        wrap(tracer, patches, module, "evaluate", "evaluate")
        assert module.evaluate(1) == 2
        assert module.evaluate is not evaluate
    assert module.evaluate is evaluate
    assert len(tracer.finished) == 1


def test_shared_patches_restore_stacked_wrappers_in_reverse():
    module = types.ModuleType("fake_checkpoint")

    def save():
        return "saved"

    module.save = save
    with Patches() as patches:
        wrap(Tracer(clock=FakeClock()), patches, module, "save", "checkpoint.save")
        inner = module.save
        patches.replace(module, "save", lambda: "probe:" + inner())
        assert module.save() == "probe:saved"
    assert module.save is save
