"""End-to-end observability for the cycle-accurate simulator.

Five cooperating pieces:

- :mod:`~repro.sim.observability.events` -- structured span tracing of
  the package life cycle and spawn regions, exportable as JSON Lines
  (optionally streamed incrementally in bounded memory) or Chrome
  trace-event format (Perfetto-loadable);
- :mod:`~repro.sim.observability.metrics` -- counters, queue-occupancy
  gauges and memory-latency histograms with a JSON export;
- :mod:`~repro.sim.observability.profiler` -- per-instruction cycle and
  stall attribution folded into a per-XMTC-source-line hotspot report;
- :mod:`~repro.sim.observability.lifecycle` -- the request flight
  recorder (per-hop timestamps and queue depths for every memory
  ``Package``, ``xmt-lifecycle/1``) and top-down cycle accounting
  (every TCU cycle attributed to one stall category,
  ``xmt-accounting/1``);
- :mod:`~repro.sim.observability.explain` -- ``xmt-explain`` reports:
  the top-down tree, hop latency distributions, contention hot spots,
  and the two-run layer-attribution diff;
- :mod:`~repro.sim.observability.ledger` -- versioned run manifests
  (``xmtsim-run/1``) bundled with the other run artifacts in a
  content-addressed run ledger (``xmtsim --ledger``); its
  ``ARTIFACTS`` table writes, loads and schema-checks every artifact;
- :mod:`~repro.sim.observability.compare` -- differential layer over
  the ledger: metric/profile/spawn deltas, sweep tables and the
  ``xmt-compare check`` perf-regression gate;
- :mod:`~repro.sim.observability.telemetry` /
  :mod:`~repro.sim.observability.aggregate` -- live progress frames
  from a running simulation (JSONL sinks, Unix-socket publisher) and
  the ``xmt-top`` / ``xmt-campaign report`` views over the streams.

The first three attach to a live machine behind one ``machine.obs``
facade (:class:`Observability`); the last two operate on the exported
artifacts.
"""

from repro.sim.observability.compare import (
    GateFailure,
    RunComparison,
    check_regressions,
    compare_runs,
    diff_profiles,
    diff_spawn_regions,
    flatten_metrics,
    render_sweep_table,
)
from repro.sim.observability.aggregate import (
    TopSummary,
    aggregate_campaign,
    fold_stream,
    render_campaign_report,
    render_top,
)
from repro.sim.observability.core import Observability
from repro.sim.observability.events import EventStream, SpanEvent
from repro.sim.observability.explain import (
    AccountingDelta,
    build_explain,
    diff_accounting,
    explain_diff,
    render_explain,
    responsible_layer,
)
from repro.sim.observability.ledger import (
    ARTIFACTS,
    Ledger,
    RunArtifacts,
    RunRecord,
    SchemaError,
    build_manifest,
    export_payloads,
    instrumented_run,
    load_artifact,
    load_run,
    write_json,
    write_run_dir,
)
from repro.sim.observability.lifecycle import (
    CycleAccountant,
    FlightRecorder,
    export_accounting,
    hop_percentiles,
    read_lifecycle_stream,
)
from repro.sim.observability.metrics import (
    Gauge,
    Histogram,
    MetricsRegistry,
    export_metrics,
    write_metrics,
)
from repro.sim.observability.profiler import CycleProfiler, render_profile
from repro.sim.observability.telemetry import (
    JsonlSink,
    SocketPublisher,
    TelemetrySampler,
    read_frames,
    read_stream,
)

__all__ = [
    "Observability",
    "EventStream",
    "SpanEvent",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "export_metrics",
    "write_metrics",
    "CycleProfiler",
    "render_profile",
    "ARTIFACTS",
    "Ledger",
    "RunArtifacts",
    "RunRecord",
    "build_manifest",
    "export_payloads",
    "instrumented_run",
    "load_artifact",
    "load_run",
    "write_json",
    "write_run_dir",
    "GateFailure",
    "RunComparison",
    "SchemaError",
    "check_regressions",
    "compare_runs",
    "diff_profiles",
    "diff_spawn_regions",
    "flatten_metrics",
    "render_sweep_table",
    "TelemetrySampler",
    "JsonlSink",
    "SocketPublisher",
    "read_stream",
    "read_frames",
    "TopSummary",
    "fold_stream",
    "render_top",
    "aggregate_campaign",
    "render_campaign_report",
    "FlightRecorder",
    "CycleAccountant",
    "export_accounting",
    "read_lifecycle_stream",
    "hop_percentiles",
    "AccountingDelta",
    "diff_accounting",
    "responsible_layer",
    "build_explain",
    "explain_diff",
    "render_explain",
]
