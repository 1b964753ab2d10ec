"""Shared static-analysis layer for the XMTC compiler and linters.

The optimizer passes of Section IV-C all need to reason about what a
spawn body may read and write: read-only-cache routing must prove a
global is never written in parallel code, non-blocking-store conversion
must know which functions only ever execute on TCUs, and the register
allocator needs the exact live-in set of every spawn region (the
broadcast set of Section IV-D).  Instead of each pass re-deriving those
facts with private ad-hoc scans, this package provides one reusable
framework:

- :mod:`repro.xmtc.analysis.cfg` -- basic blocks over the flat IR
  (the canonical home of ``split_blocks``; the optimizer's ``cfg``
  module re-exports it for compatibility);
- :mod:`repro.xmtc.analysis.dataflow` -- a generic worklist solver plus
  the standard problems built on it: liveness (precise spawn-region
  live-ins) and reaching definitions;
- :mod:`repro.xmtc.analysis.summaries` -- per-function side-effect
  summaries (read/written alias classes, prefix-sum usage, unknown
  pointer traffic) propagated through the call graph, with a
  serial/parallel context split;
- :mod:`repro.xmtc.analysis.classify` -- value classification inside
  spawn bodies (uniform / ``$``-derived / prefix-sum-derived / loaded)
  and ``$``-guard facts, the substrate of the race detector;
- :mod:`repro.xmtc.analysis.diagnostics` -- structured diagnostics
  (severity, check id, source line, fix hint) with text and JSON
  rendering and ``xmtc-lint: allow(...)`` suppression comments;
- :mod:`repro.xmtc.analysis.races` -- the spawn-region race detector;
- :mod:`repro.xmtc.analysis.memmodel` -- the memory-model linter
  (unfenced prefix-sums, non-blocking stores read back before a fence,
  unsafe ``lwro`` routing);
- :mod:`repro.xmtc.analysis.linter` -- the ``xmtc-lint`` entry point
  glue: compile, run every checker, apply suppressions.
"""

from repro.xmtc.analysis.cfg import Block, split_blocks
from repro.xmtc.analysis.classify import BodyInfo
from repro.xmtc.analysis.dataflow import (
    liveness,
    reaching_definitions,
    region_live_in,
    spawn_live_ins,
)
from repro.xmtc.analysis.diagnostics import Diagnostic, has_errors
from repro.xmtc.analysis.linter import lint_dynamic, lint_source
from repro.xmtc.analysis.memmodel import check_memory_model
from repro.xmtc.analysis.races import check_races
from repro.xmtc.analysis.summaries import UnitSummaries, compute_summaries

__all__ = [
    "Block",
    "split_blocks",
    "BodyInfo",
    "liveness",
    "reaching_definitions",
    "region_live_in",
    "spawn_live_ins",
    "Diagnostic",
    "has_errors",
    "lint_source",
    "lint_dynamic",
    "check_races",
    "check_memory_model",
    "UnitSummaries",
    "compute_summaries",
]
