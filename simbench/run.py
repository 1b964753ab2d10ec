"""XMT toolchain benchmark: simulator and fuzzer throughput.

    python3 simbench/run.py --workload graph --seed 1 --seconds 20 --trace 0
    python3 simbench/run.py --workload all            # every workload

Runs repeats of one workload, each in a fresh child process and one at
a time, for about ``--seconds`` host seconds (at least two repeats),
checks every result, and prints each metric by name and unit as the
median with its quartiles over the repeats.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` alternates untraced and traced repeats and reports the per-layer
metrics of the traced ones.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: bytecode caches and run inputs; nothing is written outside the checkout
CACHE = ROOT / ".simbench_cache"
sys.path.insert(0, str(BENCH_DIR))

from child import layer_metric  # noqa: E402
from summary import OpTally, check_models, quartiles  # noqa: E402
from tracing import REFERENCE_KERNEL_S, calibrate_wrapper_ns  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: (name, unit) of the end-to-end metrics, in report order
END_TO_END = [
    ("sim_cycles_per_s", "1/s"),
    ("sim_instr_per_s", "1/s"),
    ("func_instr_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: the spans a traced repeat records: the entry points layers.py wraps
#: and the benchmark's own ``observability.explain``
TRACED_LAYERS = ["tcu", "cluster", "engine", "mtcu", "icn", "cache", "dram",
                 "spawn_unit", "psunit", "observability.hook",
                 "observability.explain", "xmtc.parse", "xmtc.semantic",
                 "xmtc.outline", "xmtc.lower", "xmtc.optimize",
                 "xmtc.codegen", "xmtc.postpass", "xmtc.lint",
                 "isa.assemble", "isa.decode", "machine.init",
                 "functional.run"]
_LAYER_TIMES = [layer_metric(layer, "s") for layer in TRACED_LAYERS]
_LAYER_CALLS = [layer_metric(layer, "calls") for layer in TRACED_LAYERS]
_LAYER_COUNTS = ["tcu.ticks", "tcu.issued", "tcu.stall.memory",
                 "tcu.stall.fu", "tcu.stall.drain", "tcu.stall.fence",
                 "tcu.stall.send_queue", "cluster.mdu_ops", "cluster.fpu_ops",
                 "engine.events", "master_cache.hit", "master_cache.miss",
                 "icn.send", "icn.return", "cache.hit", "cache.miss",
                 "cache.mshr_merge", "dram.read", "dram.write",
                 "isa.instructions", "functional.instructions",
                 "fuzz.tp", "fuzz.tn", "fuzz.fp", "fuzz.fn", "fuzz.bug",
                 "model.cycles", "model.instructions"]
#: (name, unit) of the per-layer metrics of the traced run
PER_LAYER = ([(name, "s") for name in _LAYER_TIMES]
             + [(name, "count") for name in _LAYER_COUNTS + _LAYER_CALLS]
             + [("tcu.issue_ratio", "ratio"), ("cache.hit_ratio", "ratio"),
                ("fuzz.seed_ms.p50", "ms"), ("fuzz.seed_ms.p90", "ms"),
                ("trace.overhead", "ratio"), ("trace.wrapper_ns", "ns")])

#: a child that runs longer than this is killed and its ops fail
CHILD_TIMEOUT_S = 170
#: no repeat starts that would likely end the run after this
RUN_LIMIT_S = 150
MIN_REPEATS = 2


class Run:
    """The repeats of one workload and the tally of their operations."""

    def __init__(self, inputs: Path):
        self.inputs = inputs
        self.tally = OpTally()
        #: op name -> [cycles, instructions] every repeat must reproduce
        self.models: Dict[str, list] = {}
        self.records: List[dict] = []
        self.traced: List[dict] = []

    def repeat(self, workload: str, traced: bool) -> Optional[dict]:
        """Run one repeat in a fresh child; tally and check its ops."""
        cmd = [sys.executable, str(BENCH_DIR / "child.py"),
               "--workload", workload, "--inputs", str(self.inputs)]
        if traced:
            cmd.append("--trace")
        label = f"{workload}{' traced' if traced else ''} repeat"
        try:
            proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            record = json.loads(proc.stdout.splitlines()[-1])
        except subprocess.TimeoutExpired:
            return self._lost(workload, f"{label} timed out")
        except (IndexError, ValueError):
            return self._lost(workload, f"{label} exited {proc.returncode}: "
                                        f"{proc.stderr[-400:]}")
        for op in record["ops"]:
            self.tally.record(op["ok"], f"{label}: {op['reason']}")
        check_models(self.tally, self.models, record["ops"], label)
        return record

    def _lost(self, workload: str, reason: str) -> None:
        """A repeat that printed no record fails all of its ops."""
        for _ in range(WORKLOADS[workload].ops):
            self.tally.record(False, reason)


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # children import from a warm bytecode cache, as users' tools do
    env["PYTHONPYCACHEPREFIX"] = str(CACHE / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _import_toolchain() -> None:
    """Import every module a workload uses, the way the children will.
    This fills the bytecode cache before any child is measured (users do
    not compile bytecode on every run either) and lets this process
    make the inputs."""
    sys.pycache_prefix = str(CACHE / "pycache")
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(ROOT / "src"))
    for workload in WORKLOADS.values():
        for module in workload.imports:
            importlib.import_module(module)


def _write_inputs(workload: str, seed: int) -> Path:
    """Make the run's inputs from the seed, once, for every child."""
    CACHE.mkdir(exist_ok=True)
    path = CACHE / f"inputs-{workload}-{seed}.json"
    with open(path, "w") as fh:
        json.dump(WORKLOADS[workload].generate(seed), fh,
                  default=dataclasses.asdict)
    return path


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> Run:
    started = time.perf_counter()
    run = Run(_write_inputs(workload, seed))
    reference = WORKLOADS[workload].reference
    if reference is not None:
        # its model becomes the one every repeat here must reproduce
        run.repeat(reference, traced=False)
    slowest = 0.0
    while True:
        began = time.perf_counter()
        record = run.repeat(workload, traced=False)
        if record is not None:
            run.records.append(record)
        if trace:
            record = run.repeat(workload, traced=True)
            if record is not None:
                run.traced.append(record)
        now = time.perf_counter()
        slowest = max(slowest, now - began)
        elapsed = now - started
        repeats = len(run.traced if trace else run.records)
        if elapsed + slowest > RUN_LIMIT_S:
            break
        if repeats >= (1 if trace else MIN_REPEATS) and elapsed >= seconds:
            break
    return run


def _median_quartiles(values: List[float]):
    return quartiles(values) if values else (0.0, 0.0, 0.0)


def host_scale(records: List[dict]) -> float:
    """Reference seconds per host second during the run: the mean, over
    every kernel time the repeats took around their work, of the
    reference kernel time over that kernel time.  The host flips
    between a fast and a slow state within seconds and drifts over
    minutes, so the mean (not the median) of the samples is what
    estimates the mix of states the run saw."""
    return statistics.mean(REFERENCE_KERNEL_S / t
                           for r in records for t in r["kernel_s"])


def reference_s(record: dict, kind: str, scale: float) -> float:
    """Host seconds of a repeat's ``kind`` simulator runs in reference
    seconds: the runs scaled by their own host samples, plus the rest
    scaled by ``scale``."""
    rest = record[f"{kind}_s"] - record[f"{kind}_bracketed_s"]
    return record[f"{kind}_ref_s"] + rest * scale


def end_to_end(records: List[dict], scale: float) -> Dict[str, List[float]]:
    """Per-repeat values of every end-to-end metric, host times scaled
    by ``scale`` (simulator runs by :func:`reference_s`).  A repeat
    whose ops all failed before simulating has no rates; its ops are
    already counted as failed."""
    series: Dict[str, List[float]] = {name: [] for name, _ in END_TO_END}
    for r in records:
        if not (r["cycle_s"] and r["functional_s"]):
            continue
        cycle_s = reference_s(r, "cycle", scale)
        series["sim_cycles_per_s"].append(r["cycles"] / cycle_s)
        series["sim_instr_per_s"].append(r["instructions"] / cycle_s)
        functional_s = reference_s(r, "functional", scale)
        series["func_instr_per_s"].append(
            r["functional_instructions"] / functional_s)
        series["ops_per_s"].append(len(r["ops"]) / (r["op_s"] * scale))
        series["wall_s"].append(r["wall_s"] * scale)
        series["setup_s"].append(r["setup_s"] * scale)
        series["peak_rss_mb"].append(r["peak_rss_mb"])
    return series


def per_layer(run: Run) -> Dict[str, List[float]]:
    """Per-repeat values of every per-layer metric of a traced run."""
    series: Dict[str, List[float]] = {name: [] for name, _ in PER_LAYER}
    for r in run.traced:
        for name in (_LAYER_TIMES + _LAYER_COUNTS + _LAYER_CALLS
                     + ["tcu.issue_ratio", "cache.hit_ratio"]):
            series[name].append(r["layers"].get(name, 0))
    # per-seed latency is a user-visible time: take it untraced
    seed_ms = sorted(ms for r in run.records
                     for ms in r.get("fuzz", {}).get("seed_ms", []))
    for name, q in (("fuzz.seed_ms.p50", 0.5), ("fuzz.seed_ms.p90", 0.9)):
        series[name].append(seed_ms[int(q * (len(seed_ms) - 1))]
                            if seed_ms else 0)
    if run.records and run.traced:
        untraced = quartiles([r["wall_s"] for r in run.records])[1]
        traced = quartiles([r["wall_s"] for r in run.traced])[1]
        series["trace.overhead"].append(traced / untraced)
    series["trace.wrapper_ns"].append(calibrate_wrapper_ns())
    return series


def report(workload: str, run: Run, series: Dict[str, List[float]],
           units: List[tuple]) -> Dict[str, dict]:
    """Print one line per metric; return the JSON ``metrics`` object."""
    n = len(run.traced) if units is PER_LAYER else len(run.records)
    print(f"== {workload}: {n} repeat(s), {run.tally.attempted} ops "
          f"attempted, {run.tally.failed} failed")
    for reason in run.tally.reasons:
        print(f"   FAILED {reason}")
    metrics = {}
    for name, unit in units:
        q1, median, q3 = _median_quartiles(series[name])
        print(f"   {name:<26} {median:>14.6g} {unit:<6} "
              f"[q1 {q1:.6g}, q3 {q3:.6g}]")
        metrics[name] = {"value": median, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="XMT toolchain benchmark (see simbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"simbench: no toolchain sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    _import_toolchain()

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += run.tally.attempted
        failed += run.tally.failed
        if not (run.traced if args.trace else run.records):
            print(f"simbench: every {name} repeat failed", file=sys.stderr)
            return 1
        if args.trace:
            found = report(name, run, per_layer(run), PER_LAYER)
        else:
            scale = host_scale(run.records)
            print(f"   host times x {scale:.4f} (reference kernel "
                  f"{REFERENCE_KERNEL_S} s)")
            found = report(name, run, end_to_end(run.records, scale),
                           END_TO_END)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
