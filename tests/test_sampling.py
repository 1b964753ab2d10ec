"""Phase-sampling tests (Section III-F extension)."""

import time

import pytest

from repro.isa.decode import OP_SPAWN
from repro.sim.config import tiny
from repro.sim.functional import FunctionalSimulator, Memory
from repro.sim.machine import Simulator
from repro.sim.sampling import PhaseSampler, SampledSimulator
from repro.xmtc.compiler import compile_source

#: a spawn-loop program: many executions of the same spawn site
LOOPY = """
int A[64];
int rounds = 0;
int main() {
    for (int r = 0; r < 40; r++) {
        spawn(0, 63) { A[$] = A[$] + 1; }
        rounds++;
    }
    return 0;
}
"""


def reference():
    program = compile_source(LOOPY)
    return Simulator(program, tiny()).run(max_cycles=10_000_000)


def sampled(warmup=3, resample_every=100):
    program = compile_source(LOOPY)
    sampler = PhaseSampler(warmup=warmup, resample_every=resample_every)
    sim = SampledSimulator(program, tiny(), sampler=sampler)
    return sim.run(max_cycles=10_000_000), sampler


class TestPhaseSampling:
    def test_architectural_state_exact(self):
        ref = reference()
        got, sampler = sampled()
        assert got.read_global("A") == ref.read_global("A") == [40] * 64
        assert got.read_global("rounds") == 40

    def test_sites_are_fast_forwarded(self):
        got, sampler = sampled(warmup=3, resample_every=100)
        site = next(iter(sampler.sites.values()))
        assert site.executions == 40
        assert site.sampled_runs == 3
        assert site.skipped == 37
        assert got.stats.get("spawn.fast_forwarded") == 37
        assert got.stats.get("spawn.count") == 3

    def test_cycle_estimate_close_to_reference(self):
        """The point of the feature: estimated cycles track reality."""
        ref = reference()
        got, _ = sampled()
        error = abs(got.cycles - ref.cycles) / ref.cycles
        assert error < 0.15, f"estimate off by {error * 100:.1f}%"

    def test_resampling_happens(self):
        got, sampler = sampled(warmup=1, resample_every=10)
        site = next(iter(sampler.sites.values()))
        assert site.sampled_runs > 1

    def test_instruction_counts_include_fast_forwarded_work(self):
        ref = reference()
        got, _ = sampled()
        # fast-forwarded regions execute functionally: their loads and
        # stores are still counted (dispatch-loop overheads differ)
        assert got.stats.get("instructions.lw") >= \
            0.9 * ref.stats.get("instructions.lw")

    def test_fast_forwarded_counts_are_exact(self):
        """Across each fast-forwarded spawn, the ``instructions.*``
        deltas in the machine's stats are exactly the region's own
        per-mnemonic counts (plus the ``spawn`` itself), and they sum to
        the region's instruction count."""
        program = compile_source(LOOPY)
        sim = SampledSimulator(program, tiny(),
                               sampler=PhaseSampler(warmup=3,
                                                    resample_every=100))
        machine = sim.machine
        executor = machine.sampler_exec
        regions = []

        def spy_region(region, low, high, master_regs):
            # the reference: a fresh executor on a copy of the same state
            fresh = FunctionalSimulator.attached(
                program, Memory(machine.memory.words),
                list(machine.global_regs), [])
            want = fresh.run_spawn_region(region, low, high, master_regs)
            got = real_region(region, low, high, master_regs)
            regions.append((got, want, dict(fresh.instruction_counts)))
            return got

        real_region = executor.run_spawn_region
        executor.run_spawn_region = spy_region

        deltas = []
        master = machine.master
        real_spawn = master._handlers[OP_SPAWN]

        def spy_spawn(now, u):
            stats = machine.stats
            skipped = stats.get("spawn.fast_forwarded")
            before = stats.group("instructions")
            real_spawn(now, u)
            if stats.get("spawn.fast_forwarded") == skipped:
                return  # drained, or measured on the TCUs
            after = stats.group("instructions")
            deltas.append({op: n - before.get(op, 0)
                           for op, n in after.items()
                           if n != before.get(op, 0)})

        master._handlers[OP_SPAWN] = spy_spawn
        result = sim.run(max_cycles=10_000_000)
        assert result.read_global("A") == [40] * 64
        assert len(regions) == len(deltas) == 37
        for delta, (got, want, counts) in zip(deltas, regions):
            assert got == want == sum(counts.values()) > 64
            counts["spawn"] = counts.get("spawn", 0) + 1
            assert delta == counts

    def test_heterogeneous_sites_tracked_separately(self):
        src = """
int A[64];
int B[256];
int main() {
    for (int r = 0; r < 12; r++) {
        spawn(0, 63) { A[$] = A[$] + 1; }
        spawn(0, 255) { B[$] = B[$] + 2; }
    }
    return 0;
}
"""
        program = compile_source(src)
        sampler = PhaseSampler(warmup=2, resample_every=100)
        sim = SampledSimulator(program, tiny(), sampler=sampler)
        res = sim.run(max_cycles=20_000_000)
        assert res.read_global("A") == [12] * 64
        assert res.read_global("B") == [24] * 256
        assert len(sampler.sites) == 2
        # the big site must have learned a bigger estimate than the
        # small one (scaled by thread count at estimate time)
        report = sampler.report()
        assert "2 sampled" in report

    def test_report_text(self):
        _, sampler = sampled()
        text = sampler.report()
        assert "fast-forwarded" in text

    def test_output_preserved(self):
        src = """
int main() {
    for (int r = 0; r < 6; r++) {
        spawn(0, 3) { if ($ == 0) printf("r"); }
    }
    printf("\\n");
    return 0;
}
"""
        program = compile_source(src)
        sim = SampledSimulator(program, tiny(),
                               sampler=PhaseSampler(warmup=1))
        res = sim.run(max_cycles=10_000_000)
        assert res.output == "r" * 6 + "\n"
