"""The benchmark's workloads: inputs made from the seed, the runs, and
the check of every result.

``run.py`` makes a run's inputs from the seed once, in the parent
process, and hands them to every child as JSON, so no measured child
pays for input generation.  Toolchain imports stay inside the
functions, so importing this module costs nothing.
"""

from __future__ import annotations

import functools
import io
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from tracing import REFERENCE_KERNEL_S, kernel_times

#: bfs vertices: the CSR (n + 1 row pointers, 2 x n x 2 column indices)
#: is 17,001 words = 68 KB, more than fpga64's 64 KB shared cache
BFS_VERTICES = 3400
LIST_NODES = 256
#: Table I compute sizes (serial iterations raised from 1500 so the
#: Master-only part is not lost next to the parallel one)
COMPUTE_THREADS = 512
PARALLEL_ITERATIONS = 40
SERIAL_ITERATIONS = 2000
FUZZ_SEEDS_PER_REPEAT = 128


@dataclass
class ProgramSpec:
    """One XMTC program with its inputs and the globals it must produce."""

    name: str
    source: str
    inputs: Dict[str, list]
    expected: Dict[str, list]


#: fuzz seeds between two host-speed samples
SEEDS_PER_HOST_SAMPLE = 16
#: functional runs per program on a cycle workload.  One run of the
#: graph programs is only ~0.4 host seconds, shorter than the host's
#: speed swings, so three of them are summed.
FUNCTIONAL_RUNS = 3
#: the host's speed swings last about a second.  A simulator run no
#: longer than this is scaled by the host samples just before and just
#: after it; a longer one spans swings that two samples miss, so it is
#: scaled by the mean over the whole run, like every other host time.
BRACKETED_MAX_S = 1.0


class Context:
    """What a workload run may use: the run meter, the host-speed
    sampler and, in the traced run, the tracer for the benchmark-side
    spans."""

    def __init__(self, meter, tracer=None):
        self.meter = meter
        self.tracer = tracer
        self.extra: dict = {}
        #: kernel times taken between runs, and the host seconds they took
        self.host_samples: List[float] = []
        self.sampling_s = 0.0
        #: the part of ``sampling_s`` taken before the first simulator
        #: run, which falls inside set-up
        self.setup_sampling_s = 0.0
        #: run kind -> host seconds of its runs scaled by their own
        #: samples, and those seconds in reference seconds
        self.bracketed_s = {"functional": 0.0, "cycle": 0.0}
        self.ref_s = {"functional": 0.0, "cycle": 0.0}

    def sample_host(self) -> float:
        """Time the host-speed kernel once between two runs and return
        that time; the caller excludes ``sampling_s`` from every span
        that covers it."""
        start = time.perf_counter()
        (kernel,) = kernel_times(1)
        self.host_samples.append(kernel)
        spent = time.perf_counter() - start
        self.sampling_s += spent
        if self.meter.first_run_at is None:
            self.setup_sampling_s += spent
        return kernel

    def run_bracketed(self, sim, kind: str):
        """``sim.run()``, then a host sample.  A ``kind`` (``"cycle"``
        or ``"functional"``) run no longer than ``BRACKETED_MAX_S`` is
        scaled to reference seconds by the mean host speed of the last
        sample before it (the caller takes one before the first run)
        and the one after it."""
        before = self.host_samples[-1]
        field = f"{kind}_s"
        spent = getattr(self.meter, field)
        result = sim.run()
        after = self.sample_host()
        span = getattr(self.meter, field) - spent
        if span <= BRACKETED_MAX_S:
            speed = (REFERENCE_KERNEL_S / before
                     + REFERENCE_KERNEL_S / after) / 2
            self.bracketed_s[kind] += span
            self.ref_s[kind] += span * speed
        return result

    def call(self, layer: str, fn: Callable, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(layer, fn, *args)


def op_record(name: str, ok: bool, reason: str = "",
              model: Sequence[int] = (0, 0)) -> dict:
    return {"name": name, "ok": ok, "reason": reason, "model": list(model)}


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# --------------------------------------------------------------- inputs

def wrap32(value: int) -> int:
    """Two's-complement 32-bit wraparound, as XMTC ``int`` arithmetic."""
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & 0x80000000 else value


def compute_reference(a: int, iterations: int) -> int:
    """The loop body of the Table I compute microbenchmarks in Python."""
    b = 17
    for k in range(iterations):
        a = wrap32((a << 1) + b)
        b = b ^ (a >> 3)
        a = wrap32(a + b + k)
    return a


def graph_programs(seed: int) -> List[ProgramSpec]:
    from repro.workloads import programs as W

    bfs_source, bfs_inputs, levels = W.bfs(BFS_VERTICES, avg_degree=4.0,
                                           seed=seed)
    lr_source, lr_inputs, ranks = W.list_ranking(LIST_NODES, seed=seed)
    return [ProgramSpec("bfs", bfs_source, bfs_inputs, {"level": levels}),
            ProgramSpec("list_ranking", lr_source, lr_inputs, {"R0": ranks})]


def compute_programs(seed: int) -> List[ProgramSpec]:
    """The Table I compute microbenchmarks.  They read no inputs, so
    ``seed`` changes nothing and every run does the same work; a size
    that varied with the seed would spread ``wall_s`` across seeds."""
    from repro.workloads import microbench as MB

    par_source, par_inputs = MB.parallel_compute(COMPUTE_THREADS,
                                                 PARALLEL_ITERATIONS)
    ser_source, ser_inputs = MB.serial_compute(SERIAL_ITERATIONS)
    return [
        ProgramSpec("parallel_compute", par_source, par_inputs,
                    {"RESULT": [compute_reference(t + 1, PARALLEL_ITERATIONS)
                                for t in range(COMPUTE_THREADS)]}),
        ProgramSpec("serial_compute", ser_source, ser_inputs,
                    {"RESULT": [compute_reference(1, SERIAL_ITERATIONS)]}),
    ]


def fuzz_seeds(seed: int) -> List[int]:
    start = seed * FUZZ_SEEDS_PER_REPEAT
    return list(range(start, start + FUZZ_SEEDS_PER_REPEAT))


# --------------------------------------------------------------- runs

def _observability(program, source: str):
    """The set ``xmtsim --explain --profile --metrics-out`` arms."""
    from repro.sim.observability import (CycleAccountant, CycleProfiler,
                                         FlightRecorder, MetricsRegistry,
                                         Observability)

    return Observability(metrics=MetricsRegistry(),
                         profiler=CycleProfiler(program, source=source),
                         accounting=CycleAccountant(),
                         lifecycle=FlightRecorder(sample_every=1))


def _explain(machine, obs) -> List[str]:
    """Render what ``xmtsim --explain --profile --metrics-out`` prints
    and return the ``xmt-explain --assert-exact`` violations."""
    from repro.sim.observability import (build_explain, export_accounting,
                                         export_metrics, render_explain,
                                         render_profile, write_metrics)
    from repro.toolchain.explain_cli import _check_exact

    write_metrics(machine, io.StringIO())
    render_profile(obs.profiler.to_data())
    accounting = export_accounting(machine, obs.accounting)
    obs.lifecycle.close()
    render_explain(build_explain(accounting,
                                 lifecycle=obs.lifecycle.to_data(),
                                 metrics=export_metrics(machine)))
    return _check_exact({"accounting": accounting, "manifest": None})


def _run_program(spec: ProgramSpec, program, functional, machine, obs,
                 ctx: Context) -> dict:
    from repro.sim.functional import FunctionalSimulator

    ctx.sample_host()
    # the first simulator was built in set-up; the others are built
    # here, after set-up has ended
    fresults = [ctx.run_bracketed(functional, "functional")]
    fresults += [ctx.run_bracketed(FunctionalSimulator(program),
                                   "functional")
                 for _ in range(FUNCTIONAL_RUNS - 1)]
    cres = ctx.run_bracketed(machine, "cycle")
    model = (cres.cycles, cres.instructions)
    problems = []
    for name, want in spec.expected.items():
        cycle_values = program.read_global(name, cres.memory, count=len(want))
        if cycle_values != want:
            problems.append(f"cycle-mode {name} differs from the reference")
        if any(program.read_global(name, fres.memory, count=len(want))
               != cycle_values for fres in fresults):
            problems.append(f"functional {name} differs from cycle mode")
    if any(fres.output != cres.output for fres in fresults):
        problems.append("functional output differs from cycle mode")
    if obs is not None:
        problems += ctx.call("observability.explain", _explain, machine, obs)
    return op_record(spec.name, not problems, "; ".join(problems), model)


def run_cycle_programs(specs: List[dict], ctx: Context,
                       explain: bool = False) -> List[dict]:
    """Set up every program (compile, assemble, decode, construct both
    simulators), then run each ``FUNCTIONAL_RUNS`` times in functional
    mode and once in cycle mode on ``fpga64`` and check the results.  ``specs`` are
    :class:`ProgramSpec` fields, as decoded from JSON."""
    from repro.sim.config import fpga64
    from repro.sim.functional import FunctionalSimulator
    from repro.sim.machine import Machine
    from repro.xmtc.compiler import compile_source

    ops: List[dict] = []
    prepared = []
    for spec in (ProgramSpec(**fields) for fields in specs):
        try:
            program = compile_source(spec.source)
            for name, values in spec.inputs.items():
                program.write_global(name, values)
            functional = FunctionalSimulator(program)
            obs = _observability(program, spec.source) if explain else None
            machine = Machine(program, fpga64(), observability=obs)
        except Exception as exc:  # a failed op is counted, not raised
            ops.append(op_record(spec.name, False,
                                 f"set-up: {_failure(exc)}"))
            continue
        prepared.append((spec, program, functional, machine, obs))
    for spec, program, functional, machine, obs in prepared:
        try:
            ops.append(_run_program(spec, program, functional, machine, obs,
                                    ctx))
        except Exception as exc:
            ops.append(op_record(spec.name, False, _failure(exc)))
    return ops


def run_fuzz(seeds: List[int], ctx: Context) -> List[dict]:
    """``xmtc-fuzz`` over ``seeds``: lint, compile, sanitized functional
    run and a cycle run on ``tiny`` per seed.  Only ``tp`` and ``tn``
    verdicts pass."""
    from repro.xmtc.fuzz.harness import run_seed

    ops = []
    verdicts: Counter = Counter()
    seed_ms = []
    clock = time.perf_counter
    for index, seed in enumerate(seeds):
        if index and index % SEEDS_PER_HOST_SAMPLE == 0:
            ctx.sample_host()
        before = ctx.meter.model()
        start = clock()
        outcome = run_seed(seed)
        seed_ms.append((clock() - start) * 1e3)
        after = ctx.meter.model()
        verdicts[outcome.verdict] += 1
        ok = outcome.verdict in ("tp", "tn")
        ops.append(op_record(
            f"seed{seed}", ok,
            "" if ok else f"seed {seed}: {outcome.verdict} {outcome.error}",
            (after[0] - before[0], after[1] - before[1])))
    ctx.extra["fuzz"] = {"verdicts": dict(verdicts), "seed_ms": seed_ms}
    return ops


@dataclass
class Workload:
    #: toolchain modules a user of this workload's tool imports
    imports: Sequence[str]
    #: seed -> inputs that ``json.dump(..., default=asdict)`` encodes
    generate: Callable[[int], object]
    #: (inputs, context) -> op records
    run: Callable[[object, Context], List[dict]]
    #: operations one repeat attempts
    ops: int
    #: workload whose repeat must simulate the same model, if any
    reference: Optional[str] = None


_CYCLE_IMPORTS = ("repro.xmtc.compiler", "repro.sim.machine",
                  "repro.sim.functional")

#: the named workloads; README.md and BENCHMARK.json say why each exists
WORKLOADS: Dict[str, Workload] = {
    "graph": Workload(
        _CYCLE_IMPORTS, graph_programs,
        run_cycle_programs, 2),
    "compute": Workload(
        _CYCLE_IMPORTS, compute_programs,
        run_cycle_programs, 2),
    "fuzz": Workload(
        ("repro.xmtc.fuzz.harness", "repro.xmtc.analysis.linter",
         "repro.sim.plugins") + _CYCLE_IMPORTS,
        fuzz_seeds, run_fuzz, FUZZ_SEEDS_PER_REPEAT),
    "graph-explain": Workload(
        _CYCLE_IMPORTS + ("repro.sim.observability",
                          "repro.toolchain.explain_cli"),
        graph_programs,
        functools.partial(run_cycle_programs, explain=True), 2,
        reference="graph"),
}
