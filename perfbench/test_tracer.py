"""Tests of the benchmark tracer: python3 -m pytest perfbench/test_tracer.py"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


class FakeClock:
    """Advances by a fixed step on every read, so timings are exact."""

    def __init__(self, step: int = 10):
        self.now = 0
        self.step = step

    def __call__(self) -> int:
        self.now += self.step
        return self.now


class Cost:
    def price(self, n: int) -> int:
        return n


class Replica:
    """Fake owner: each step calls the shared cost model twice."""

    def __init__(self, cost: Cost):
        self.cost = cost

    def step(self) -> int:
        return self.cost.price(1) + self.cost.price(2)


class Router:
    def __init__(self, replicas):
        self.replicas = replicas

    def run(self) -> int:
        return sum(r.step() for r in self.replicas)


def _traced_fleet(replicas: int = 3):
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    cost = Cost()
    router = Router([Replica(cost) for _ in range(replicas)])
    tracer.wrap(router, "run", "router")
    for replica in router.replicas:
        tracer.wrap(replica, "step", "step")
        tracer.wrap(replica.cost, "price", "price")
    return tracer, router


def test_shared_object_is_wrapped_once():
    tracer, router = _traced_fleet(replicas=3)
    assert router.run() == 9
    # Three steps, each pricing twice: six calls, not 3 x 6 nested ones.
    assert tracer.total("price", "calls") == 6
    assert tracer.total("step", "calls") == 3
    assert tracer.total("router", "calls") == 1


def test_self_time_arithmetic_on_nested_fake():
    tracer, router = _traced_fleet(replicas=2)
    router.run()
    # Every clock read advances 10 ns.  A price span reads the clock at
    # its start and end: 10 ns, no children.
    assert tracer.total("price", "busy_s") == pytest.approx(4 * 10e-9)
    assert tracer.total("price", "self_s") == pytest.approx(4 * 10e-9)
    # A step span encloses two price spans (4 reads) between its own two
    # reads: duration 50 ns, of which 30 ns is its own.
    assert tracer.total("step", "busy_s") == pytest.approx(2 * 50e-9)
    assert tracer.total("step", "self_s") == pytest.approx(2 * 30e-9)
    # The router encloses two steps (12 reads): 130 ns, 30 ns its own.
    assert tracer.total("router", "busy_s") == pytest.approx(130e-9)
    assert tracer.total("router", "self_s") == pytest.approx(30e-9)
    # Self times add up exactly to the root's duration.
    assert tracer.root_ns() == 130
    assert tracer.check() == []


def test_restore_removes_wrappers():
    tracer, router = _traced_fleet(replicas=2)
    tracer.restore()
    router.run()
    assert tracer.total("price", "calls") == 0
    assert "step" not in vars(router.replicas[0])
    assert tracer.wrap(router, "run", "router")


def test_generator_spans_close_before_each_item():
    class Data:
        def batches(self, n):
            yield from range(n)

    clock = FakeClock()
    tracer = Tracer(clock=clock)
    data = Data()
    tracer.wrap_generator(data, "batches", "data")
    with tracer.span("train"):
        for _ in data.batches(3):
            clock()   # consumer work between items: not the producer's
    # Three items plus the final StopIteration: four spans of 10 ns.
    assert tracer.total("data", "calls") == 4
    assert tracer.total("data", "busy_s") == pytest.approx(40e-9)
    assert tracer.check() == []


def test_work_tally_and_open_span_check():
    tracer = Tracer(clock=FakeClock())
    cost = Cost()
    tracer.wrap(cost, "price", "price", work=lambda n: n)
    cost.price(3)
    cost.price(4)
    assert tracer.total("price", "work") == 7
    span = tracer.span("open")
    span.__enter__()
    assert "1 spans left open" in tracer.check()
