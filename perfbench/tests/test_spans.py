import pytest

from perfbench.layers import RECONCILE_TOLERANCE, reconcile, reconciles
from perfbench.spans import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class Engine:
    def __init__(self, clock):
        self.clock = clock

    def run(self, program):
        self.clock.advance(1.0)          # collect/deliver
        program.on_round()
        program.on_round()
        self.clock.advance(0.5)


class Program:
    def __init__(self, clock):
        self.clock = clock

    def on_round(self):
        self.clock.advance(0.25)


class SubProgram(Program):
    pass


def _traced_batch(glue=0.0):
    """One traced batch; ``glue`` seconds pass in no wrapped layer."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.wrap(Engine, "run", "engine.run", record=True)
    tracer.wrap(Program, "on_round", "program")
    tracer.run = "batch"
    start = clock()
    with tracer.span("batch"):
        clock.advance(glue)
        tracer.tag = "p/host"
        Engine(clock).run(SubProgram(clock))
    wall = clock() - start
    tracer.uninstall()
    return tracer, wall


def test_self_times_split_the_wrapped_calls():
    tracer, wall = _traced_batch()
    assert wall == pytest.approx(2.0)
    assert tracer.total("engine.run", "batch") == pytest.approx(2.0)
    assert tracer.self_time("engine.run", "batch") == pytest.approx(1.5)
    assert tracer.total("program", "batch") == pytest.approx(0.5)
    assert tracer.calls("program", "batch") == 2
    assert tracer.self_time("program", "batch", "p/") == pytest.approx(0.5)


def test_layers_that_cover_the_wall_time_reconcile():
    tracer, wall = _traced_batch(glue=0.001)
    result = reconcile(tracer, "batch", "batch", wall)
    assert result["trace.wall_s"] == pytest.approx(2.001)
    assert result["trace.unattributed_s"] == pytest.approx(0.001)
    assert result["trace.reconcile_err"] < RECONCILE_TOLERANCE
    assert reconciles(result)


def test_a_slow_call_no_wrapper_covers_fails_the_reconciliation():
    tracer, wall = _traced_batch(glue=0.5)
    result = reconcile(tracer, "batch", "batch", wall)
    assert result["trace.unattributed_s"] == pytest.approx(0.5)
    assert result["trace.reconcile_err"] == pytest.approx(0.2)
    assert not reconciles(result)


def test_records_keep_parents_and_run_ids():
    tracer, _ = _traced_batch()
    by_name = {r[1]: r for r in tracer.records}
    assert set(by_name) == {"batch", "engine.run"}  # leaves aggregate only
    engine = by_name["engine.run"]
    assert engine[6] == by_name["batch"][0]
    assert engine[3] == "batch"
    assert engine[2] == "p/host"


def test_uninstall_restores_own_and_inherited_methods():
    original = Program.__dict__["on_round"]
    tracer = Tracer()
    tracer.wrap(Program, "on_round", "program")
    tracer.wrap(SubProgram, "on_round", "program")
    assert "on_round" in vars(SubProgram)
    tracer.uninstall()
    assert Program.__dict__["on_round"] is original
    assert "on_round" not in vars(SubProgram)


def test_span_closes_on_exception():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise RuntimeError("x")

    holder = type("Holder", (), {"boom": staticmethod(boom)})
    tracer.wrap(holder, "boom", "boom")
    with pytest.raises(RuntimeError):
        holder.boom()
    assert tracer.total("boom") == pytest.approx(1.0)
    assert not tracer._stack
