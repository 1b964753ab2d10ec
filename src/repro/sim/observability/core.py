"""The :class:`Observability` facade wired into one machine.

One object bundles the three cooperating pieces -- span tracing
(:class:`~repro.sim.observability.events.EventStream`), the metrics
registry (:class:`~repro.sim.observability.metrics.MetricsRegistry`) and
the cycle profiler
(:class:`~repro.sim.observability.profiler.CycleProfiler`) -- behind the
single ``machine.obs`` attribute the instrumentation points check.  Any
piece may be ``None``; a machine with ``obs is None`` pays one attribute
test per hook site and nothing else, which is what keeps the
all-observability-off overhead within noise of the uninstrumented
simulator.

Text :class:`~repro.sim.trace.Trace` objects register here as renderers:
they receive the same hook stream the structured events are built from
and translate it to the paper's Section III-E text records.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.observability.events import EventStream
from repro.sim.observability.metrics import MetricsRegistry
from repro.sim.observability.profiler import CycleProfiler


class Observability:
    """Events + metrics + profiler attached to one Machine."""

    def __init__(self, events: Optional[EventStream] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 profiler: Optional[CycleProfiler] = None,
                 accounting=None, lifecycle=None):
        self.events = events
        self.metrics = metrics
        self.profiler = profiler
        #: :class:`~repro.sim.observability.lifecycle.CycleAccountant`
        #: fed by the issue/stall hooks below
        self.accounting = accounting
        #: :class:`~repro.sim.observability.lifecycle.FlightRecorder`;
        #: ``attach`` publishes it as ``machine.lifecycle`` so component
        #: hook sites pay one attribute test, same as ``machine.obs``
        self.lifecycle = lifecycle
        self.traces: List = []  # text renderers (Trace instances)
        #: the live :class:`~repro.sim.observability.telemetry.
        #: TelemetrySampler`, when one is armed (set by its ``attach``)
        self.telemetry = None
        self.machine = None
        self._period = 1
        #: spawn_index -> begin time of the in-flight region
        self._spawn_begin = {}

    def attach(self, machine) -> None:
        """Bind to a machine (called from ``Machine.__init__``)."""
        self.machine = machine
        self._period = machine.config.cluster_period
        if self.lifecycle is not None:
            self.lifecycle.attach(machine)
        if self.accounting is not None:
            self.accounting.attach(machine)

    def attach_trace(self, trace) -> None:
        self.traces.append(trace)

    # -- processor hooks -----------------------------------------------------

    def instruction_issued(self, proc, ins) -> None:
        """An instruction occupied a processor's issue slot this cycle."""
        profiler = self.profiler
        if profiler is not None:
            profiler.on_issue(ins.index)
        accounting = self.accounting
        if accounting is not None:
            accounting.on_issue(proc)
        for trace in self.traces:
            trace.on_issue(proc, ins)
        events = self.events
        if events is not None and events.instructions:
            track = ("master" if proc.tcu_id < 0
                     else "tcu%04d" % proc.tcu_id)
            events.instant(ins.op, "instr", proc.machine.scheduler.now,
                           track, args={"index": ins.index,
                                        "src_line": ins.src_line})

    def processor_stalled(self, proc, cause: str, n: int = 1) -> None:
        """``n`` issue slots were wasted; ``proc.core.pc`` is the blocked
        instruction (the profiler charges the cycles to it).  ``n > 1``
        settles a sleeping TCU's skipped edges (``TCU.settle``)."""
        profiler = self.profiler
        if profiler is not None:
            profiler.on_stall(proc.core.pc, cause, n)
        accounting = self.accounting
        if accounting is not None:
            accounting.on_stall(proc, cause, n)

    # -- package life cycle (TCU issue -> ICN -> cache -> DRAM -> reply) -----

    def icn_sent(self, pkg, now: int, arrival: int) -> None:
        events = self.events
        if events is not None:
            events.complete(pkg.kind, "icn", now, arrival - now, "icn.send",
                            args={"seq": pkg.seq, "tcu": pkg.tcu_id,
                                  "module": pkg.module,
                                  "addr": pkg.addr})

    def icn_returned(self, pkg, now: int, arrival: int) -> None:
        events = self.events
        if events is not None:
            events.complete(pkg.kind, "icn", now, arrival - now,
                            "icn.return",
                            args={"seq": pkg.seq, "tcu": pkg.tcu_id,
                                  "module": pkg.module})

    def icn_occupancy(self, in_flight_send: int, in_flight_return: int) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.set_gauge("icn.in_flight_send", in_flight_send)
            metrics.set_gauge("icn.in_flight_return", in_flight_return)

    def cache_access(self, module, pkg, now: int, outcome: str) -> None:
        """A cache module dequeued one request (hit | miss | mshr)."""
        events = self.events
        if events is not None:
            dur = (module.hit_latency * module.domain.period
                   if outcome == "hit" else 0)
            events.complete(f"{pkg.kind}:{outcome}", "cache", now, dur,
                            "cache%02d" % module.module_id,
                            args={"seq": pkg.seq, "addr": pkg.addr,
                                  "tcu": pkg.tcu_id})
        metrics = self.metrics
        if metrics is not None:
            prefix = "cache.m%02d" % module.module_id
            metrics.set_gauge(prefix + ".in_queue", len(module.in_queue))
            metrics.set_gauge(prefix + ".out_queue", len(module.out_queue))

    def dram_access(self, port, line: int, now: int, ready: int,
                    writeback: bool) -> None:
        events = self.events
        if events is not None:
            if writeback:
                events.instant("writeback", "dram", now,
                               "dram%d" % port.port_id,
                               args={"line": line})
            else:
                events.complete("read", "dram", now, ready - now,
                                "dram%d" % port.port_id,
                                args={"line": line})
        metrics = self.metrics
        if metrics is not None:
            prefix = "dram.p%d" % port.port_id
            metrics.set_gauge(prefix + ".queued", len(port.queue))
            metrics.set_gauge(prefix + ".in_flight", len(port._in_flight))

    def package_replied(self, pkg, now: int) -> None:
        """A response reached its TCU: close the memory-request span."""
        metrics = self.metrics
        if metrics is not None:
            latency_cycles = (now - pkg.issue_time) // self._period
            metrics.histogram("mem.latency.all").observe(latency_cycles)
            if pkg.module >= 0:
                metrics.histogram(
                    "mem.latency.m%02d" % pkg.module).observe(latency_cycles)
        for trace in self.traces:
            trace.on_response(self.machine, pkg, now)
        events = self.events
        if events is not None:
            track = ("master" if pkg.tcu_id < 0 else "tcu%04d" % pkg.tcu_id)
            events.complete(pkg.kind + ".reply", "mem", pkg.issue_time,
                            now - pkg.issue_time, track,
                            args={"seq": pkg.seq, "addr": pkg.addr,
                                  "module": pkg.module,
                                  "latency_ps": now - pkg.issue_time})

    # -- spawn regions -------------------------------------------------------

    def spawn_began(self, region, now: int, n_threads: int) -> None:
        self._spawn_begin[region.spawn_index] = now
        events = self.events
        if events is not None:
            src_line = \
                self.machine.program.instructions[region.spawn_index].src_line
            events.begin(f"spawn@line{src_line or region.spawn_index}",
                         "spawn", now, "spawn",
                         args={"spawn_index": region.spawn_index,
                               "threads": n_threads})

    def spawn_ended(self, region, now: int) -> None:
        began = self._spawn_begin.pop(region.spawn_index, None)
        events = self.events
        src_line = \
            self.machine.program.instructions[region.spawn_index].src_line
        if events is not None:
            events.end(f"spawn@line{src_line or region.spawn_index}",
                       "spawn", now, "spawn")
        metrics = self.metrics
        if metrics is not None and began is not None:
            metrics.spawn_rollup(region.spawn_index, src_line,
                                 (now - began) // self._period)

    # -- diagnostics ---------------------------------------------------------

    def recent_events(self):
        """Ring-buffered tail of the event stream (diagnostic dumps)."""
        if self.events is None:
            return []
        return [event.to_dict() for event in self.events.recent]

    def gauge_values(self):
        if self.metrics is None:
            return {}
        return {name: gauge.value
                for name, gauge in sorted(self.metrics.gauges.items())}

    def last_telemetry(self):
        """The most recent telemetry frame, or ``None`` (diagnostic
        dumps embed it so post-mortems show progress at death)."""
        telemetry = getattr(self, "telemetry", None)
        if telemetry is None:
            return None
        return telemetry.last_frame
