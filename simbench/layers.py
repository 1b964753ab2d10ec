"""Where the traced run puts its spans: one entry point per layer.

Every entry is patched where its caller looks it up at call time:
compiler phases as globals of ``repro.xmtc.compiler``, decode as a
global of the two simulator modules, component ``tick`` methods on the
class.  Class patches must happen before any ``Machine`` is built,
because ``ClockDomain.add`` and ``Cluster`` bind ``tick`` at
construction.
"""

from __future__ import annotations

from collections import Counter

from tracing import RunMeter, Tracer

#: compiler-module global -> layer
COMPILER_PHASES = {
    "serialize_nested_spawns": "xmtc.outline",
    "cluster_spawns": "xmtc.outline",
    "outline_spawns": "xmtc.outline",
    "analyze": "xmtc.semantic",
    "lower": "xmtc.lower",
    "optimize_unit": "xmtc.optimize",
    "generate": "xmtc.codegen",
    "run_postpass": "xmtc.postpass",
}

#: Observability / FlightRecorder methods the simulator calls per event
OBS_HOOKS = ("instruction_issued", "processor_stalled", "icn_sent",
             "icn_returned", "icn_occupancy", "cache_access", "dram_access",
             "package_replied", "spawn_began", "spawn_ended")
RECORDER_HOOKS = ("send_enqueued", "icn_injected", "cache_enqueued",
                  "cache_dequeued", "dram_accepted", "dram_filled",
                  "response_enqueued", "icn_returned", "replied")


def install_meter(meter: RunMeter) -> None:
    """Put the always-on run meter around both simulators' ``run``."""
    from repro.sim.functional import FunctionalSimulator
    from repro.sim.machine import Machine

    Machine.run = meter.wrap_cycle(Machine.run)
    FunctionalSimulator.run = meter.wrap_functional(FunctionalSimulator.run)


def install_layers(tracer: Tracer) -> Counter:
    """Wrap every layer's entry point; returns a counter that the
    assembler wrap fills with ``isa.instructions``."""
    from repro.sim import dram, functional, icn, machine
    from repro.sim.cluster import Cluster
    from repro.sim.engine import Scheduler
    from repro.sim.mtcu import MasterTCU
    from repro.sim.observability.core import Observability
    from repro.sim.observability.lifecycle import FlightRecorder
    from repro.sim.psunit import PrefixSumUnit
    from repro.sim.spawn_unit import SpawnUnit
    from repro.sim.tcu import TCU
    from repro.xmtc import compiler, parser
    from repro.xmtc.analysis import linter

    tracer.patch(parser, "parse", "xmtc.parse")
    for attr, layer in COMPILER_PHASES.items():
        tracer.patch(compiler, attr, layer)
    tracer.patch(linter, "lint_source", "xmtc.lint")

    counts: Counter = Counter()
    assemble = compiler.assemble

    def counted_assemble(*args, **kwargs):
        program = assemble(*args, **kwargs)
        counts["isa.instructions"] += len(program.instructions)
        return program

    compiler.assemble = tracer.wrap(counted_assemble, "isa.assemble")
    tracer.patch(machine, "decode_program", "isa.decode")
    tracer.patch(functional, "decode_program", "isa.decode")

    tracer.patch(machine.Machine, "__init__", "machine.init")
    tracer.patch(functional.FunctionalSimulator, "run", "functional.run")
    tracer.patch(Scheduler, "run", "engine")
    ticks = [(TCU, "tcu"), (Cluster, "cluster"), (MasterTCU, "mtcu"),
             (SpawnUnit, "spawn_unit"), (PrefixSumUnit, "psunit"),
             (machine.CacheBank, "cache")]
    ticks += [(cls, "icn") for cls in (icn.Interconnect, icn.AsyncInterconnect,
                                       icn.CrossbarInterconnect,
                                       icn.RingInterconnect)]
    ticks += [(cls, "dram") for cls in (dram.DRAMPort, dram.BankedDRAMPort)]
    for cls, layer in ticks:
        if "tick" in vars(cls):
            tracer.patch(cls, "tick", layer)
    for hook in OBS_HOOKS:
        tracer.patch(Observability, hook, "observability.hook")
    for hook in RECORDER_HOOKS:
        tracer.patch(FlightRecorder, hook, "observability.hook")
    return counts
