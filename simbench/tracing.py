"""Spans and counters recorded from outside the simulator.

Nothing under ``src/`` knows about this module.  The benchmark wraps
the public entry point of each layer at run time (a class attribute or
a module global) with :meth:`Tracer.wrap`; the wrapper keeps a stack of
open spans and accumulates, per layer name, its *self time* (the span's
duration minus the time its child spans cover) and its call count.
Spans are folded as they close, so memory stays flat no matter how many
million TCU ticks a run makes.

:class:`RunMeter` is always on, traced or not: it times every
``Machine.run`` and ``FunctionalSimulator.run`` and sums what each run
simulated, which is what the end-to-end rates are made of.

:func:`kernel_times` times a fixed pure-Python kernel, which is how a
repeat measures the speed of the host it ran on.

This module imports nothing from the toolchain, so its unit tests run
without it.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from typing import Callable, Dict, List, Optional


class Tracer:
    """Self time and call counts per layer name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: one ``[child_seconds]`` cell per open span
        self._stack: List[List[float]] = []
        #: layer name -> ``[self_seconds, calls]``, shared by its wrappers
        self._totals: Dict[str, list] = {}

    @property
    def self_s(self) -> Dict[str, float]:
        return {name: cell[0] for name, cell in self._totals.items()}

    @property
    def calls(self) -> Dict[str, int]:
        return {name: cell[1] for name, cell in self._totals.items()}

    def wrap(self, fn: Callable, name: str) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``."""
        clock = self.clock
        stack = self._stack
        totals = self._totals.setdefault(name, [0.0, 0])

        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                totals[0] += elapsed - cell[0]
                totals[1] += 1
                if stack:
                    stack[-1][0] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a method or a module global) by its
        traced wrapper.  Only an attribute ``owner`` defines itself is
        patched, so an inherited method is not wrapped twice."""
        setattr(owner, attr, self.wrap(vars(owner)[attr], name))

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self.wrap(fn, name)(*args, **kwargs)


class RunMeter:
    """Host time inside every simulator ``run()`` and what it simulated.

    ``first_run_at`` is the clock reading when the first simulated
    instruction was about to execute, which closes the set-up interval.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.first_run_at: Optional[float] = None
        self.cycle_s = 0.0
        self.cycles = 0
        self.instructions = 0
        self.events = 0
        self.tcu_issued = 0
        #: the cycle runs' ``result.stats`` counters, summed
        self.counters: Counter = Counter()
        self.functional_s = 0.0
        self.functional_instructions = 0

    def _started(self) -> float:
        now = self.clock()
        if self.first_run_at is None:
            self.first_run_at = now
        return now

    def wrap_cycle(self, run: Callable) -> Callable:
        """Wrap ``Machine.run``."""
        def metered(machine, *args, **kwargs):
            start = self._started()
            result = run(machine, *args, **kwargs)
            self.cycle_s += self.clock() - start
            self.cycles += result.cycles
            self.instructions += result.instructions
            self.events += machine.scheduler.events_processed
            self.tcu_issued += sum(t.instructions_issued
                                   for t in machine.tcus)
            self.counters.update(result.stats.counters)
            return result
        return metered

    def wrap_functional(self, run: Callable) -> Callable:
        """Wrap ``FunctionalSimulator.run``."""
        def metered(sim, *args, **kwargs):
            start = self._started()
            result = run(sim, *args, **kwargs)
            self.functional_s += self.clock() - start
            self.functional_instructions += result.instructions
            return result
        return metered

    def model(self) -> tuple:
        """The simulated totals so far: ``(cycles, instructions)``."""
        return self.cycles, self.instructions


def calibrate_wrapper_ns(calls: int = 100_000, repeats: int = 5) -> float:
    """Median extra host nanoseconds one traced call costs over a plain
    call, measured on an empty method."""

    class Empty:
        def noop(self):
            pass

    tracer = Tracer()
    plain = Empty().noop
    traced = tracer.wrap(Empty.noop, "calibrate").__get__(Empty())
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            plain()
        plain_s = clock() - start
        start = clock()
        for _ in range(calls):
            traced()
        traced_s = clock() - start
        costs.append((traced_s - plain_s) / calls * 1e9)
    return statistics.median(costs)


#: the kernel's median time on the development host (a 2-vCPU Xeon VM,
#: CPython 3.11) in its usual state; host times are scaled to this speed
REFERENCE_KERNEL_S = 0.05


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def step(self, k: int) -> int:
        return (self.value * 31 + k) & 0xFFFF


def _kernel(n: int = 100_000) -> int:
    """Attribute access, method calls, dict and list traffic and small
    integer arithmetic: the operations the simulator's hot loops are
    made of, in code that no change to the toolchain can speed up."""
    cells = [_Cell(i) for i in range(64)]
    table: Dict[int, int] = {}
    acc = 0
    for k in range(n):
        cell = cells[k & 63]
        value = cell.step(k)
        table[value & 255] = table.get(value & 255, 0) + 1
        if value > acc & 0xFFFF:
            acc += value
        else:
            acc ^= k
        cell.value = value
    return acc


def kernel_times(repeats: int = 3) -> List[float]:
    """Host seconds of ``repeats`` runs of the fixed kernel."""
    clock = time.perf_counter
    times = []
    for _ in range(repeats):
        start = clock()
        _kernel()
        times.append(clock() - start)
    return times
