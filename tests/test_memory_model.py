"""XMTC memory-model tests (paper Section IV-A, Figs. 6 and 7).

The model relaxes ordering except (rule 1) same-source same-destination
operations and (rule 2) partial ordering around prefix-sums.  We check
both rules at the assembly level (precise control) and at the XMTC level
(compiler fences included).
"""

import pytest

from conftest import (opts, run_asm_cycle, run_xmtc_cycle,
                      run_xmtc_functional)
from repro.sim.config import fpga64, tiny
from repro.workloads import programs as W


class TestRule1SameSourceSameDestination:
    def test_store_then_load_same_address_parallel(self):
        """A TCU's own store must be visible to its own later load even
        with non-blocking stores in flight."""
        prog, res = run_asm_cycle("""
            .data
        A:  .space 256
        OK: .word 1
            .text
        main:
            li   $t0, 0
            li   $t1, 63
            spawn $t0, $t1
        vt:
            getvt $k0
            chkid $k0
            la   $t2, A
            slli $t3, $k0, 2
            add  $t2, $t2, $t3
            addi $t4, $k0, 7
            swnb $t4, 0($t2)
            lw   $t5, 0($t2)
            bne  $t5, $t4, bad
            j    vt
        bad:
            la   $t6, OK
            li   $t7, 0
            swnb $t7, 0($t6)
            j    vt
            join
            halt
        """)
        assert res.read_global("OK") == 1

    def test_master_store_forwarding(self):
        """Master stores forward to master loads (write-through + eager
        commit)."""
        prog, res = run_asm_cycle("""
            .data
        v:  .word 1
        r:  .word 0
            .text
        main:
            la   $t0, v
            lw   $t1, 0($t0)
            addi $t1, $t1, 41
            sw   $t1, 0($t0)
            lw   $t2, 0($t0)
            la   $t3, r
            sw   $t2, 0($t3)
            halt
        """)
        assert res.read_global("r") == 42


class TestMasterSameAddressOrder:
    """Serial code has one writer, the Master: its loads and stores to
    one address keep program order (RAW, WAR, WAW) on every config,
    and the cycle model agrees with the functional spec."""

    PATTERNS = {
        "raw": ("a[1] = 7; t = a[1];", 7),
        "war": ("t = a[1]; a[1] = 7;", 0),
        "waw": ("a[1] = 5; a[1] = 7; t = a[1];", 7),
        "psm_raw": ("a[1] = 7; t = 5; psm(t, a[1]);", 7),
        "psm_war": ("t = 5; psm(t, a[1]); a[1] = 7;", 0),
    }

    @pytest.mark.parametrize("config", [tiny, fpga64],
                             ids=["tiny", "fpga64"])
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_xmtc_pattern(self, config, pattern):
        body, expected = self.PATTERNS[pattern]
        src = ("int a[4];\nint main() {\n    int t;\n    "
               f"{body}\n    printf(\"%d\", t);\n    return 0;\n}}\n")
        _, spec = run_xmtc_functional(src)
        _, res = run_xmtc_cycle(src, config=config())
        assert spec.output == res.output == str(expected)
        assert spec.memory == res.memory

    @pytest.mark.parametrize("config", [tiny, fpga64],
                             ids=["tiny", "fpga64"])
    def test_younger_store_does_not_overtake_missing_load(self, config):
        prog, res = run_asm_cycle("""
            .data
        a:  .word 0
        r:  .word 5
            .text
        main:
            la   $t0, a
            li   $t1, 7
            lw   $t2, 0($t0)
            sw   $t1, 0($t0)
            la   $t3, r
            sw   $t2, 0($t3)
            halt
        """, config=config())
        assert res.read_global("r") == 0
        assert res.read_global("a") == 7

    @pytest.mark.parametrize("config", [tiny, fpga64],
                             ids=["tiny", "fpga64"])
    def test_younger_store_does_not_overtake_psm(self, config):
        prog, res = run_asm_cycle("""
            .data
        a:  .word 0
        r:  .word 9
            .text
        main:
            la   $t0, a
            li   $t1, 5
            psm  $t1, 0($t0)
            li   $t2, 100
            sw   $t2, 0($t0)
            la   $t3, r
            sw   $t1, 0($t3)
            halt
        """, config=config())
        assert res.read_global("r") == 0
        assert res.read_global("a") == 100


class TestRule2PrefixSumOrdering:
    @pytest.mark.parametrize("seed_cfg", [
        dict(),
        dict(icn_width_per_cluster=2),
        dict(dram_latency=2),
        dict(cache_hit_latency=6),
        dict(n_cache_modules=1),
    ])
    def test_fig7_invariant(self, seed_cfg):
        """Fig. 7: if Thread B's psm observed y==1 then it must also
        observe x==1, across several machine timings."""
        source, _, _ = W.litmus_psm_ordered()
        _, res = run_xmtc_cycle(source, config=tiny(**seed_cfg))
        seen_x = res.read_global("seen_x")
        seen_y = res.read_global("seen_y")
        assert (seen_x, seen_y) != (0, 1), \
            f"memory model violated: x={seen_x} y={seen_y}"

    def test_fig6_outcomes_legal(self):
        """Fig. 6: without synchronization any of the documented
        outcomes may appear -- but the writes must eventually land."""
        source, _, _ = W.litmus_relaxed()
        _, res = run_xmtc_cycle(source)
        seen_x = res.read_global("seen_x")
        seen_y = res.read_global("seen_y")
        assert seen_x in (0, 1) and seen_y in (0, 1)
        # after the join, both writes are globally visible
        assert res.read_global("x") == 1
        assert res.read_global("y") == 1

    def test_fences_emitted_before_prefix_sums(self):
        from repro.xmtc.compiler import compile_to_asm

        source, _, _ = W.litmus_psm_ordered()
        asm = compile_to_asm(source).asm_text
        lines = [l.strip() for l in asm.splitlines()]
        for i, line in enumerate(lines):
            if line.startswith("psm"):
                prior = [l for l in lines[:i] if l and not l.endswith(":")]
                assert prior[-1].startswith("fence"), \
                    f"psm at line {i} not preceded by fence"

    def test_fences_can_be_disabled_for_ablation(self):
        from repro.xmtc.compiler import compile_to_asm

        source, _, _ = W.litmus_psm_ordered()
        asm = compile_to_asm(source, opts(memory_fences=False)).asm_text
        assert "fence" not in asm


class TestSpawnBoundaryOrdering:
    def test_writes_before_spawn_visible_to_threads(self):
        prog, res = run_asm_cycle("""
            .data
        v:  .word 0
        out: .space 16
            .text
        main:
            la   $t0, v
            li   $t1, 99
            sw   $t1, 0($t0)
            li   $t2, 0
            li   $t3, 3
            spawn $t2, $t3
        vt:
            getvt $k0
            chkid $k0
            la   $t4, v
            lw   $t5, 0($t4)
            la   $t6, out
            slli $t7, $k0, 2
            add  $t6, $t6, $t7
            sw   $t5, 0($t6)
            j    vt
            join
            halt
        """)
        assert res.read_global("out") == [99] * 4

    def test_thread_writes_visible_after_join(self):
        prog, res = run_asm_cycle("""
            .data
        A:  .space 32
        s:  .word 0
            .text
        main:
            li   $t0, 0
            li   $t1, 7
            spawn $t0, $t1
        vt:
            getvt $k0
            chkid $k0
            la   $t2, A
            slli $t3, $k0, 2
            add  $t2, $t2, $t3
            li   $t4, 5
            swnb $t4, 0($t2)
            j    vt
            join
            # master sums after join; must see all 8 writes
            la   $t0, A
            li   $t1, 0
            li   $t2, 0
        loop:
            lw   $t3, 0($t0)
            add  $t2, $t2, $t3
            addi $t0, $t0, 4
            addi $t1, $t1, 1
            slti $at, $t1, 8
            bnez $at, loop
            la   $t4, s
            sw   $t2, 0($t4)
            halt
        """)
        assert res.read_global("s") == 40


class TestPrefetchStaleness:
    def test_fence_flushes_prefetch_buffer(self):
        """Fig. 7 discussion: a value prefetched before the sync point
        must not satisfy a later load.  Thread 1 prefetches x, then
        syncs via psm on y, then loads x: it must see thread 0's write
        if the psm said so."""
        prog, res = run_xmtc_cycle("""
volatile int x = 0;
volatile int y = 0;
int bad = 0;
int main() {
    spawn(0, 1) {
        if ($ == 0) {
            x = 1;
            int t = 1;
            psm(t, y);
        }
        if ($ == 1) {
            int t = 0;
            psm(t, y);
            if (t == 1) {
                if (x == 0) bad = 1;
            }
        }
    }
    printf("bad=%d\\n", bad);
    return 0;
}
""")
        assert res.read_global("bad") == 0

    def test_own_store_updates_prefetch_buffer(self):
        """pref A[i]; store A[i]; load A[i] must see the new value."""
        prog, res = run_asm_cycle("""
            .data
        A:  .space 64
        bad: .word 0
            .text
        main:
            li   $t0, 0
            li   $t1, 7
            spawn $t0, $t1
        vt:
            getvt $k0
            chkid $k0
            la   $t2, A
            slli $t3, $k0, 2
            add  $t2, $t2, $t3
            pref 0($t2)
            addi $t4, $k0, 3
            swnb $t4, 0($t2)
            lw   $t5, 0($t2)
            beq  $t5, $t4, good
            la   $t6, bad
            li   $t7, 1
            swnb $t7, 0($t6)
        good:
            j    vt
            join
            halt
        """)
        assert res.read_global("bad") == 0


class TestFig6PrefetchAnomaly:
    """The paper's remark: without a prefix-sum read of y, prefetching
    can cause x to be read *before* y -- the (0,1) anomaly -- and the
    fence (what the compiler emits before prefix-sums) prevents it."""

    def _seen_x(self, with_fence):
        from repro.isa.assembler import assemble
        from repro.sim.machine import Simulator

        prog = assemble(W.litmus_prefetch_staleness(with_fence))
        res = Simulator(prog, tiny()).run(max_cycles=500_000)
        return res.read_global("seen_x")

    def test_stale_prefetch_reorders_reads(self):
        assert self._seen_x(with_fence=False) == 0

    def test_fence_flush_restores_order(self):
        assert self._seen_x(with_fence=True) == 1


class TestDelaySkewedOutcomes:
    def test_relaxed_model_exhibits_multiple_outcomes(self):
        outcomes = set()
        for da, db in [(0, 0), (120, 0), (0, 120)]:
            src, _, _ = W.litmus_relaxed(da, db)
            _, res = run_xmtc_cycle(src)
            outcomes.add((res.read_global("seen_x"),
                          res.read_global("seen_y")))
        assert len(outcomes) >= 2, "the relaxed model should be visible"
        assert outcomes <= {(0, 0), (1, 0), (1, 1)}

    def test_ordered_model_never_forbidden_under_skew(self):
        for da, db in [(0, 0), (120, 0), (0, 120), (40, 40)]:
            src, _, _ = W.litmus_psm_ordered(da, db)
            _, res = run_xmtc_cycle(src)
            pair = (res.read_global("seen_x"), res.read_global("seen_y"))
            assert pair != (0, 1), f"violation at skew ({da},{db})"


class TestVolatile:
    def test_volatile_loads_not_cse_d(self):
        """Two volatile reads must produce two loads in the assembly."""
        from repro.xmtc.compiler import compile_to_asm

        asm = compile_to_asm("""
volatile int flag = 0;
int r = 0;
int main() {
    int a = flag;
    int b = flag;
    r = a + b;
    return 0;
}
""").asm_text
        loads = [l for l in asm.splitlines() if l.strip().startswith("lw")]
        assert len(loads) >= 2

    def test_nonvolatile_loads_are_cse_d(self):
        from repro.xmtc.compiler import compile_to_asm

        asm = compile_to_asm("""
int flag = 0;
int r = 0;
int main() {
    int a = flag;
    int b = flag;
    r = a + b;
    return 0;
}
""").asm_text
        loads = [l for l in asm.splitlines() if l.strip().startswith("lw")]
        assert len(loads) == 1
