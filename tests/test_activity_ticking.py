"""Activity-driven ticking of the parallel clock domain.

A TCU whose next tick is a stall that only a delivery can end (parked,
draining, waiting on a load, a store acknowledgement, a scoreboard
register or a fence) leaves its cluster's tick list, and the ICN visits
only ports that hold packages.  Skipped stall cycles are charged in bulk
when the TCU is settled, so the contract is strict bit-identity with the
tick-everything simulator:

* **Golden model outputs** -- ``Stats`` counters, the ``xmt-prof/1``
  profile and the ``xmt-accounting/1`` export of small ``bfs`` and
  ``list_ranking`` runs on every fabric backend, with the flight
  recorder off and on, match files captured from the tick-everything
  simulator byte for byte (``tests/golden/activity_ticking.json``).
* **Mid-run readers** -- ``ActivityRecorder`` series and telemetry
  frames sampled while TCUs sleep match the golden series.
* **Checkpoints** -- a machine saved with TCUs asleep mid-spawn
  restores and finishes with the uninterrupted run's counters.
* **Sleeping means not ticked** -- a sleeping TCU's ``tick`` is never
  called.

Regenerate the golden file (only when the model is *meant* to change)
with ``PYTHONPATH=src python tests/test_activity_ticking.py --write``.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import pytest

from repro.sim import checkpoint as CP
from repro.sim.config import fpga64, tiny
from repro.sim.icn import Interconnect
from repro.sim.machine import Machine
from repro.sim.observability import (
    CycleAccountant,
    CycleProfiler,
    FlightRecorder,
    Observability,
    export_accounting,
)
from repro.sim.observability.telemetry import TelemetrySampler
from repro.sim.plugins import ActivityRecorder
from repro.sim.resilience.diagnostics import collect
from repro.sim.tcu import TCU
from repro.workloads import programs as W
from repro.xmtc.compiler import compile_source

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "activity_ticking.json")

PROGRAMS = {
    "bfs": lambda: W.bfs(48),
    "list_ranking": lambda: W.list_ranking(32),
}

#: every fabric backend at least once, plus the non-blocking-load
#: (scoreboard wait) core and the 8-TCU clusters of the benchmark config
CONFIGS = {
    "tiny": lambda: tiny(),
    "mot-async": lambda: tiny(icn_backend="mot-async"),
    "crossbar": lambda: tiny(icn_backend="crossbar"),
    "ring": lambda: tiny(icn_backend="ring"),
    "banked": lambda: tiny(dram_backend="banked"),
    "interleaved": lambda: tiny(cache_layout="interleaved"),
    "nonblocking": lambda: tiny(tcu_blocking_loads=False),
    "fpga64": lambda: fpga64(),
}

#: plain = no observability; obs = profiler + accounting; recorder =
#: profiler + accounting + flight recorder (mem.<layer> split)
MODES = ("plain", "obs", "recorder")

#: telemetry frame fields that depend on host time
_WALL_KEYS = ("wall_seconds", "eta_seconds")


def _program(name):
    source, inputs, _ = PROGRAMS[name]()
    program = compile_source(source)
    for key, values in inputs.items():
        program.write_global(key, values)
    return program, source


def _machine(program_name, config_name, mode, plugins=()):
    program, source = _program(program_name)
    obs = None
    if mode != "plain":
        obs = Observability(
            profiler=CycleProfiler(program, source=source),
            accounting=CycleAccountant(),
            lifecycle=FlightRecorder() if mode == "recorder" else None)
    return Machine(program, CONFIGS[config_name](), plugins=plugins,
                   observability=obs)


def capture(program_name, config_name, mode):
    """The model outputs one run produces, as a JSON-ready dict."""
    machine = _machine(program_name, config_name, mode)
    result = machine.run(max_cycles=2_000_000)
    out = {"cycles": result.cycles,
           "stats": dict(sorted(result.stats.counters.items()))}
    obs = machine.obs
    if obs is not None:
        out["profile"] = obs.profiler.to_data()
        del out["profile"]["source"]  # an input, echoed back
        out["accounting"] = export_accounting(machine, obs.accounting,
                                              cycles=result.cycles)
    return out


class _ListSink:
    def __init__(self):
        self.frames = []

    def write_line(self, line):
        frame = json.loads(line)
        for key in _WALL_KEYS:
            frame.pop(key, None)
        interval = frame.get("interval") or {}
        interval.pop("wall_seconds", None)
        interval.pop("cycles_per_host_s", None)
        self.frames.append(frame)

    def close(self):
        pass


def capture_series(program_name="bfs", config_name="fpga64"):
    """Counter series and telemetry frames sampled mid-run, with the
    recorder on (frames then carry per-layer ``hops``)."""
    recorder = ActivityRecorder(interval_cycles=97)
    machine = _machine(program_name, config_name, "recorder",
                       plugins=(recorder,))
    sink = _ListSink()
    telemetry = TelemetrySampler(every_cycles=89, sinks=[sink])
    telemetry.attach(machine)
    telemetry.arm()
    machine.run(max_cycles=2_000_000)
    telemetry.finish()
    series = [[t, dict(sorted(snap.items()))]
              for t, snap in zip(recorder.series.times,
                                 recorder.series.snapshots)]
    return {"activity": series, "telemetry": sink.frames}


def capture_all():
    golden = {}
    for program_name in PROGRAMS:
        for config_name in CONFIGS:
            for mode in MODES:
                key = f"{program_name}/{config_name}/{mode}"
                golden[key] = capture(program_name, config_name, mode)
    golden["series"] = capture_series()
    return golden


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# -- tests -------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("program_name", sorted(PROGRAMS))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("mode", MODES)
def test_model_outputs_match_golden(program_name, config_name, mode):
    key = f"{program_name}/{config_name}/{mode}"
    assert (_canonical(capture(program_name, config_name, mode))
            == _canonical(_golden()[key])), key


def test_mid_run_series_match_golden():
    fresh = capture_series()
    golden = _golden()["series"]
    assert _canonical(fresh["activity"]) == _canonical(golden["activity"])
    assert _canonical(fresh["telemetry"]) == _canonical(golden["telemetry"])


def _sleepers(machine):
    return [tcu for tcu in machine.tcus
            if tcu.asleep and tcu.park_state == TCU.RUNNING]


def test_checkpoint_round_trip_with_tcus_asleep():
    """Saved mid-spawn with TCUs asleep on memory: both the restored
    machine and the original (observability still attached) finish
    with the golden counters, profile and accounting."""
    machine = _machine("bfs", "fpga64", "recorder")
    payload = CP.run_with_checkpoint(machine, checkpoint_cycle=400)
    assert payload is not None and machine.parallel_active
    assert _sleepers(machine), "no TCU asleep at the checkpoint"
    golden = _golden()["bfs/fpga64/recorder"]

    restored = CP.load_bytes(payload)
    assert _sleepers(restored)
    result = restored.run(max_cycles=2_000_000)
    assert result.cycles == golden["cycles"]
    assert dict(sorted(result.stats.counters.items())) == golden["stats"]

    result = machine.run(max_cycles=2_000_000)
    obs = machine.obs
    profile = obs.profiler.to_data()
    del profile["source"]
    assert dict(sorted(result.stats.counters.items())) == golden["stats"]
    assert _canonical(profile) == _canonical(golden["profile"])
    assert (_canonical(export_accounting(machine, obs.accounting,
                                         cycles=result.cycles))
            == _canonical(golden["accounting"]))


def test_sleeping_tcus_are_not_ticked(monkeypatch):
    calls = []
    tick = TCU.tick

    def checked_tick(self, cycle):
        assert not self.asleep, f"TCU {self.tcu_id} ticked while asleep"
        calls.append(self.tcu_id)
        tick(self, cycle)

    # patched on the class before the machine binds its tick lists
    monkeypatch.setattr(TCU, "tick", checked_tick)
    machine = _machine("bfs", "fpga64", "plain")
    result = machine.run(max_cycles=2_000_000)
    golden = _golden()["bfs/fpga64/plain"]
    assert result.cycles == golden["cycles"]
    edges = sum(cluster.edges for cluster in machine.clusters)
    every_edge = edges * machine.config.tcus_per_cluster
    issued = sum(tcu.instructions_issued for tcu in machine.tcus)
    # ticking everything would call tick on every TCU at every edge
    assert issued <= len(calls) < every_edge // 2


def test_icn_visits_exactly_the_ports_holding_packages(monkeypatch):
    tick = Interconnect.tick
    visits = []

    def checked_tick(self, cycle):
        machine = self.machine
        held = [i for i, port in enumerate(machine.send_ports) if len(port)]
        assert self._sending == held
        held = [i for i, module in enumerate(machine.cache_modules)
                if len(module.out_queue)]
        assert self._returning == held
        visits.append(len(self._sending) + len(self._returning))
        tick(self, cycle)

    monkeypatch.setattr(Interconnect, "tick", checked_tick)
    machine = _machine("list_ranking", "fpga64", "plain")
    result = machine.run(max_cycles=2_000_000)
    assert result.cycles == _golden()["list_ranking/fpga64/plain"]["cycles"]
    ports = len(machine.send_ports) + len(machine.cache_modules)
    assert max(visits) > 0
    assert sum(visits) < len(visits) * ports // 2


def test_diagnostic_dump_reports_sleepers_and_port_occupancy():
    machine = _machine("bfs", "fpga64", "plain")
    machine.run(max_cycles=400, allow_timeout=True)
    dump = collect(machine, "probe")
    tcus = [p for p in dump.processors if p["kind"] == "tcu"]
    assert all("asleep" in p and "stall" in p for p in tcus)
    sleepers = [p for p in tcus if p["asleep"] and p["state"] == "running"]
    assert sleepers and all(p["stall"] in ("memory", "store_ack", "fence")
                            for p in sleepers)
    pending = (sum(len(port) for port in machine.send_ports)
               + sum(len(m.out_queue) for m in machine.cache_modules))
    assert dump.icn["icn_pending"] == pending
    assert "asleep=True" in dump.format()


def _write_golden(golden) -> None:
    """One case per line: small diffs when a case moves."""
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(key)}: {_canonical(value)}"
                            for key, value in sorted(golden.items())))
        fh.write("\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_activity_ticking.py --write")
    _write_golden(capture_all())
