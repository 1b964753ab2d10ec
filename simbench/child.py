"""One repeat of one workload, in a fresh process.

    python3 simbench/child.py --workload graph --inputs FILE [--trace]

``FILE`` holds the inputs ``run.py`` made from the seed.  Prints one
JSON record on its last stdout line.  The clock starts before the
toolchain is imported, so ``setup_s`` and ``wall_s`` include the import
a user of ``xmtsim`` or ``xmtc-fuzz`` pays on every run.
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time

from layers import install_layers, install_meter
from tracing import RunMeter, Tracer, kernel_times
from workloads import WORKLOADS, Context


def layer_metric(layer: str, kind: str) -> str:
    """The per-layer metric of a traced layer's self time (``kind``
    ``"s"``) or call count (``"calls"``): ``tcu.self_s``,
    ``tcu.calls``, ``xmtc.parse_s``, ``xmtc.parse_calls``."""
    if "." in layer:
        return f"{layer}_{kind}"
    return f"{layer}.{'self_s' if kind == 's' else kind}"


#: ``result.stats`` counters reported as per-layer counts
COUNTERS = ("tcu.stall.memory", "tcu.stall.fu", "tcu.stall.drain",
            "tcu.stall.fence", "tcu.stall.send_queue", "cluster.mdu_ops",
            "cluster.fpu_ops", "master_cache.hit", "master_cache.miss",
            "icn.send", "icn.return", "cache.hit", "cache.miss",
            "cache.mshr_merge", "dram.read", "dram.write")


def layer_metrics(tracer: Tracer, meter: RunMeter, isa_counts,
                  extra: dict) -> dict:
    """The traced repeat's per-layer numbers."""
    out = {layer_metric(layer, "s"): seconds
           for layer, seconds in tracer.self_s.items()}
    out.update((layer_metric(layer, "calls"), calls)
               for layer, calls in tracer.calls.items())
    for key in COUNTERS:
        out[key] = meter.counters.get(key, 0)
    ticks = tracer.calls.get("tcu", 0)
    out["tcu.ticks"] = ticks
    out["tcu.issued"] = meter.tcu_issued
    out["tcu.issue_ratio"] = meter.tcu_issued / ticks if ticks else 0.0
    accesses = out["cache.hit"] + out["cache.miss"]
    out["cache.hit_ratio"] = out["cache.hit"] / accesses if accesses else 0.0
    out["engine.events"] = meter.events
    out["isa.instructions"] = isa_counts["isa.instructions"]
    out["functional.instructions"] = meter.functional_instructions
    out["model.cycles"], out["model.instructions"] = meter.model()
    for verdict, count in extra.get("fuzz", {}).get("verdicts", {}).items():
        out[f"fuzz.{verdict}"] = count
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    # one CPU for the whole repeat, so the kernel times its host
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(args.inputs) as fh:
        inputs = json.load(fh)
    clock = time.perf_counter

    kernel = kernel_times()
    started = clock()
    for module in workload.imports:
        importlib.import_module(module)
    imported = clock()

    meter = RunMeter(clock)
    tracer = isa_counts = None
    if args.trace:
        tracer = Tracer(clock)
        isa_counts = install_layers(tracer)
    install_meter(meter)

    ctx = Context(meter, tracer)
    ops = workload.run(inputs, ctx)
    finished = clock()

    kernel += ctx.host_samples + kernel_times()
    first_run = meter.first_run_at or finished
    record = {
        "workload": args.workload,
        "traced": args.trace,
        "ops": ops,
        "wall_s": finished - started - ctx.sampling_s,
        "setup_s": first_run - started - ctx.setup_sampling_s,
        "op_s": finished - imported - ctx.sampling_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "cycle_s": meter.cycle_s,
        "cycles": meter.cycles,
        "instructions": meter.instructions,
        "functional_s": meter.functional_s,
        "functional_instructions": meter.functional_instructions,
        # 0 on fuzz, whose runs happen inside run_seed
        "functional_bracketed_s": ctx.bracketed_s["functional"],
        "functional_ref_s": ctx.ref_s["functional"],
        "cycle_bracketed_s": ctx.bracketed_s["cycle"],
        "cycle_ref_s": ctx.ref_s["cycle"],
        # host speed before, during and after this repeat's work
        "kernel_s": kernel,
    }
    record.update(ctx.extra)
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, meter, isa_counts,
                                         ctx.extra)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
