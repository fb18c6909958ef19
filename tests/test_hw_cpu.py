"""The simulated CPU: charging, priorities, accounting."""

import pytest

from repro.hw.cpu import CPU, Priority
from repro.hw.platforms import DECSTATION_5000_200
from repro.sim import Timeout
from repro.stack.context import ExecutionContext


def make_cpu(sim):
    return CPU(sim, DECSTATION_5000_200)


def context(sim, cpu, priority=Priority.APPLICATION):
    return ExecutionContext(sim, cpu, priority=priority)


def test_charge_advances_clock(sim):
    cpu = make_cpu(sim)
    ctx = context(sim, cpu)

    def worker():
        yield ctx.charge("work", 100.0)
        return sim.now

    assert sim.run_process(worker()) == 100.0
    assert cpu.busy_time == 100.0
    assert cpu.charge_count == 1


def test_zero_cost_is_free(sim):
    cpu = make_cpu(sim)
    ctx = context(sim, cpu)

    def worker():
        yield ctx.charge("work", 0.0)
        return sim.now

    assert sim.run_process(worker()) == 0.0
    assert cpu.charge_count == 0


def test_negative_cost_raises(sim):
    cpu = make_cpu(sim)
    ctx = context(sim, cpu)

    def worker():
        yield ctx.charge("work", -1.0)

    proc = sim.spawn(worker())
    sim.run()
    assert not proc.ok
    assert isinstance(proc.value, ValueError)


def test_charges_serialize(sim):
    cpu = make_cpu(sim)
    ctx = context(sim, cpu)
    finishes = []

    def worker(name):
        yield ctx.charge("work", 50.0)
        finishes.append((name, sim.now))

    sim.spawn(worker("a"))
    sim.spawn(worker("b"))
    sim.run()
    assert finishes == [("a", 50.0), ("b", 100.0)]


def test_priority_wins_at_release_point(sim):
    cpu = make_cpu(sim)
    app_ctx = context(sim, cpu, Priority.APPLICATION)
    intr_ctx = context(sim, cpu, Priority.INTERRUPT)
    order = []

    def app():
        yield app_ctx.charge("work", 10.0)
        order.append("app1")
        yield app_ctx.charge("work", 10.0)
        order.append("app2")

    def interrupt_handler():
        yield Timeout(1.0)  # arrives while the app's first charge runs
        yield intr_ctx.charge("work", 5.0)
        order.append("intr")

    sim.spawn(app())
    sim.spawn(interrupt_handler())
    sim.run()
    assert order == ["app1", "intr", "app2"]


def test_utilization(sim):
    cpu = make_cpu(sim)
    ctx = context(sim, cpu)

    def worker():
        yield ctx.charge("work", 25.0)
        yield Timeout(75.0)

    sim.run_process(worker())
    assert cpu.utilization() == pytest.approx(0.25)
