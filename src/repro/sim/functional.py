"""The functional model and the fast functional simulation mode.

Section III-A: "The functional model contains the operational definition
of the instructions, as well as the state of the registers and the
memory."  Both simulation modes share this state; the *functional mode*
"serializes the parallel sections of code ... it is orders of magnitude
faster than the cycle-accurate mode and can be used as a fast, limited
debugging tool for XMTC programs" -- but, as the paper notes, it cannot
reveal concurrency bugs, because each spawn block executes its virtual
threads one after the other on a single execution context.

Execution runs over the pre-decoded micro-op form of the program
(:mod:`repro.isa.decode`): each instruction is decoded exactly once at
load time into a :class:`~repro.isa.decode.MicroOp` carrying its integer
opcode, pre-resolved registers and operational definition.  The main
loops run a register-only op's decode-time kernel (``uop.ex``) -- the
same closure the cycle-accurate processors run at issue -- and dispatch
every other op through the flat :data:`HANDLERS` table, indexed by the
same opcode space.  The two modes therefore cannot diverge on
instruction semantics or register write-back, only on timing.

The optional *race sanitizer* (:class:`repro.sim.plugins.RaceSanitizer`,
passed as ``sanitizer=``) closes part of that gap: it records, per spawn
region and per address, which virtual-thread ids loaded, stored and
``psm``-ed each word, and reports the conflicts whose outcome would
depend on thread interleaving on the real machine -- even though the
serialized run itself produces one deterministic answer.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.isa.decode import (
    MicroOp,
    N_OPCODES,
    OP_ALU,
    OP_ALU_IMM,
    OP_ALU_SHARED,
    OP_BRANCH,
    OP_CHKID,
    OP_FENCE,
    OP_GETG,
    OP_GETTCU,
    OP_GETVT,
    OP_HALT,
    OP_JAL,
    OP_JOIN,
    OP_JR,
    OP_JUMP,
    OP_LI,
    OP_LOAD,
    OP_LOAD_RO,
    OP_NOP,
    OP_PREFETCH,
    OP_PRINT,
    OP_PS,
    OP_PSM,
    OP_SETG,
    OP_SPAWN,
    OP_STORE,
    OP_STORE_NB,
    OP_UNARY,
    OP_UNARY_SHARED,
    decode_program,
)
from repro.isa.program import Program
from repro.isa.registers import NUM_GLOBAL_REGS, NUM_REGS, REG_SP, REG_ZERO
from repro.isa.semantics import (
    TrapError,
    check_word_addr,
    format_print,
    to_signed,
)

#: Default top-of-stack for the Master TCU's serial stack.
DEFAULT_STACK_TOP = 0x00800000


class Memory:
    """Sparse word-addressed shared memory (raw 32-bit patterns)."""

    __slots__ = ("words",)

    def __init__(self, image: Optional[Dict[int, int]] = None):
        self.words: Dict[int, int] = dict(image) if image else {}

    def load(self, addr: int) -> int:
        return self.words.get(check_word_addr(addr), 0)

    def store(self, addr: int, value: int) -> None:
        self.words[check_word_addr(addr)] = value & 0xFFFFFFFF

    def psm(self, addr: int, amount: int) -> int:
        """Atomic prefix-sum-to-memory; returns the old value."""
        addr = check_word_addr(addr)
        old = self.words.get(addr, 0)
        self.words[addr] = (old + amount) & 0xFFFFFFFF
        return old


class CoreState:
    """Register file + program counter of one execution context.

    The register file is a fixed-size list indexed by the pre-resolved
    register numbers on each micro-op.  ``$zero`` is hard-wired: every
    architectural write -- :meth:`write`, a register kernel, a handler
    -- discards stores to register 0, so ``regs[0]`` is invariantly 0
    and reads need no special case.
    """

    __slots__ = ("regs", "pc")

    def __init__(self, pc: int = 0):
        self.regs: List[int] = [0] * NUM_REGS
        self.pc = pc

    def write(self, r: int, value: int) -> None:
        if r != REG_ZERO:
            self.regs[r] = value & 0xFFFFFFFF


@dataclass
class FunctionalResult:
    """Outcome of a functional-mode run."""

    output: str
    instructions: int
    memory: Dict[int, int]
    global_regs: List[int]
    #: per-mnemonic instruction counts (the paper's instruction counters)
    instruction_counts: Dict[str, int] = field(default_factory=dict)

    def read_global(self, program: Program, name: str, **kw):
        return program.read_global(name, self.memory, **kw)


class SimulationError(Exception):
    """Raised when the simulated program traps or misbehaves."""


# -- the functional dispatch table ---------------------------------------------
#
# Register-only ops run their decode-time kernel (``MicroOp.ex``) and
# never reach this table.  Every other op has one handler here, indexed
# by ``MicroOp.code``: ``handler(sim, regs, u, pc) -> next pc``.  Control
# opcodes (spawn/join/getvt/chkid/gettcu/halt) are context-dependent and
# are intercepted by the main loops before dispatch; their entries, like
# the kernel opcodes' entries, trap, so reaching one through the table
# is a loud bug, never a silent skip.

def _h_load(sim, regs, u: MicroOp, pc: int) -> int:
    addr = (regs[u.rs] + u.imm) & 0xFFFFFFFF
    if sim.sanitizer is not None:
        sim.sanitizer.on_load(addr, u.ins)
    value = sim.memory.load(addr)
    if u.rd != REG_ZERO:
        regs[u.rd] = value & 0xFFFFFFFF
    return pc + 1


def _h_store(sim, regs, u: MicroOp, pc: int) -> int:
    addr = (regs[u.rs] + u.imm) & 0xFFFFFFFF
    if sim.sanitizer is not None:
        sim.sanitizer.on_store(addr, u.ins)
    sim.memory.store(addr, regs[u.rt])
    return pc + 1


def _h_psm(sim, regs, u: MicroOp, pc: int) -> int:
    addr = (regs[u.rs] + u.imm) & 0xFFFFFFFF
    if sim.sanitizer is not None:
        sim.sanitizer.on_psm(addr, u.ins)
    old = sim.memory.psm(addr, to_signed(regs[u.rd]))
    if u.rd != REG_ZERO:
        regs[u.rd] = old & 0xFFFFFFFF
    return pc + 1


def _h_next(sim, regs, u: MicroOp, pc: int) -> int:
    # prefetch is a timing hint and fence ordering is trivially
    # satisfied: both only advance in functional mode
    return pc + 1


def _h_ps(sim, regs, u: MicroOp, pc: int) -> int:
    old = sim.global_regs[u.imm]
    sim.global_regs[u.imm] = (old + regs[u.rd]) & 0xFFFFFFFF
    if u.rd != REG_ZERO:
        regs[u.rd] = old & 0xFFFFFFFF
    return pc + 1


def _h_getg(sim, regs, u: MicroOp, pc: int) -> int:
    if u.rd != REG_ZERO:
        regs[u.rd] = sim.global_regs[u.imm] & 0xFFFFFFFF
    return pc + 1


def _h_setg(sim, regs, u: MicroOp, pc: int) -> int:
    sim.global_regs[u.imm] = regs[u.rd]
    return pc + 1


def _h_print(sim, regs, u: MicroOp, pc: int) -> int:
    fmt = sim.program.strings[u.imm]
    sim.output.append(format_print(fmt, [regs[r] for r in u.reads]))
    return pc + 1


def _make_trap(what: str):
    def handler(sim, regs, u: MicroOp, pc: int) -> int:
        raise TrapError(f"{what} dispatched through the functional table")
    return handler


HANDLERS: List[Callable] = [None] * N_OPCODES
for _code in (OP_ALU, OP_ALU_SHARED, OP_ALU_IMM, OP_LI, OP_UNARY,
              OP_UNARY_SHARED, OP_BRANCH, OP_JUMP, OP_JAL, OP_JR, OP_NOP):
    HANDLERS[_code] = _make_trap("register kernel op")
HANDLERS[OP_LOAD] = _h_load
HANDLERS[OP_LOAD_RO] = _h_load      # lwro: same value, different cache path
HANDLERS[OP_STORE] = _h_store
HANDLERS[OP_STORE_NB] = _h_store
HANDLERS[OP_PSM] = _h_psm
HANDLERS[OP_PREFETCH] = _h_next
HANDLERS[OP_PS] = _h_ps
HANDLERS[OP_GETG] = _h_getg
HANDLERS[OP_SETG] = _h_setg
HANDLERS[OP_FENCE] = _h_next
HANDLERS[OP_PRINT] = _h_print
HANDLERS[OP_GETVT] = _make_trap("getvt")
HANDLERS[OP_GETTCU] = _make_trap("gettcu")
HANDLERS[OP_CHKID] = _make_trap("chkid")
HANDLERS[OP_SPAWN] = _make_trap("spawn")
HANDLERS[OP_JOIN] = _make_trap("join")
HANDLERS[OP_HALT] = _make_trap("halt")

# every opcode must have a handler; a new opcode without one fails the
# import, not the first program that happens to use it
assert all(h is not None for h in HANDLERS), "functional HANDLERS incomplete"


class FunctionalSimulator:
    """Executes a :class:`Program` in fast functional mode."""

    def __init__(self, program: Program, stack_top: int = DEFAULT_STACK_TOP,
                 max_instructions: Optional[int] = None, sanitizer=None):
        self._init_state(program, Memory(program.data_image),
                         [0] * NUM_GLOBAL_REGS, [], max_instructions)
        #: optional dynamic race sanitizer (duck-typed like
        #: :class:`repro.sim.plugins.RaceSanitizer`): notified of spawn
        #: region boundaries, granted thread ids and memory traffic
        self.sanitizer = sanitizer
        for index, value in program.greg_init.items():
            self.global_regs[index] = value
        self.master.write(REG_SP, stack_top)

    @classmethod
    def attached(cls, program: Program, memory: Memory, global_regs: List[int],
                 output: List[str], max_instructions: Optional[int] = None
                 ) -> "FunctionalSimulator":
        """Build a functional executor sharing another machine's state.

        Used by phase sampling (Section III-F): the cycle-accurate
        machine hands its live memory / global registers / output list
        to a functional executor to fast-forward a parallel section.
        The decode cache is shared too -- both modes read the same
        micro-ops.
        """
        sim = cls.__new__(cls)
        sim._init_state(program, memory, global_regs, output,
                        max_instructions)
        sim.sanitizer = None
        return sim

    def _init_state(self, program: Program, memory: Memory,
                    global_regs: List[int], output: List[str],
                    max_instructions: Optional[int]) -> None:
        self.program = program
        self.decoded = decode_program(program)
        self.memory = memory
        self.global_regs = global_regs
        self.master = CoreState(pc=program.entry)
        self.output = output
        self.instructions_executed = 0
        self.instruction_counts: Dict[str, int] = {}
        #: executions per text index since the last fold into
        #: ``instruction_counts`` (one list increment per instruction)
        self._pc_counts: List[int] = [0] * len(self.decoded.uops)
        self.max_instructions = max_instructions
        self._halted = False

    def run_spawn_region(self, region, low: int, high: int,
                         master_regs: List[int]) -> int:
        """Execute one spawn region functionally (serialized); adds its
        per-mnemonic counts to ``instruction_counts`` and returns the
        number of instructions the region executed."""
        before = self.instructions_executed
        self._run_spawn_serialized(master_regs, region, low, high)
        self._fold_counts()
        return self.instructions_executed - before

    # -- public API -----------------------------------------------------------

    def run(self) -> FunctionalResult:
        """Run to ``halt``; returns the collected result."""
        self._exec_serial(self.master)
        self._fold_counts()
        if not self._halted:
            raise SimulationError("program ended without executing halt")
        return FunctionalResult(
            output="".join(self.output),
            instructions=self.instructions_executed,
            memory=self.memory.words,
            global_regs=list(self.global_regs),
            instruction_counts=dict(self.instruction_counts),
        )

    # -- execution ---------------------------------------------------------------

    def _fold_counts(self) -> None:
        """Move the per-pc execution counts into the per-mnemonic
        ``instruction_counts`` and zero them."""
        counts = self.instruction_counts
        uops = self.decoded.uops
        pc_counts = self._pc_counts
        for pc, n in enumerate(pc_counts):
            if n:
                op = uops[pc].op
                counts[op] = counts.get(op, 0) + n
                pc_counts[pc] = 0

    def _limit(self) -> int:
        limit = self.max_instructions
        return sys.maxsize if limit is None else limit

    def _over_budget(self) -> "SimulationError":
        return SimulationError(
            f"instruction budget exceeded ({self.max_instructions}); "
            "likely an infinite loop")

    def _trap(self, u, message: str) -> "SimulationError":
        return SimulationError(
            f"trap at text index {u.index} (asm line {u.line}, {u.op}): {message}")

    # Both main loops keep the pc and the executed count in locals and
    # write them back on every exit.  Each step counts the instruction
    # (per pc), checks the budget exactly, then runs the register kernel
    # or dispatches through HANDLERS; only the control group (opcodes
    # >= OP_GETVT) is handled inline.

    def _exec_serial(self, core: CoreState) -> None:
        """Serial execution on the Master until halt; spawns serialize."""
        program = self.program
        uops = self.decoded.uops
        n = len(uops)
        handlers = HANDLERS
        pc_counts = self._pc_counts
        limit = self._limit()
        executed = self.instructions_executed
        regs = core.regs
        pc = core.pc
        u = None
        try:
            while True:
                if not 0 <= pc < n:
                    raise SimulationError(f"PC out of range: {pc}")
                u = uops[pc]
                pc_counts[pc] += 1
                executed += 1
                if executed > limit:
                    raise self._over_budget()
                ex = u.ex
                if ex is not None:
                    pc = ex(regs, pc)
                    continue
                code = u.code
                if code < OP_GETVT:  # the common, mode-independent group
                    pc = handlers[code](self, regs, u, pc)
                    continue
                if code == OP_SPAWN:
                    low = to_signed(regs[u.rs])
                    high = to_signed(regs[u.rt])
                    region = program.region_for_spawn(pc)
                    self.instructions_executed = executed
                    try:
                        self._run_spawn_serialized(regs, region, low, high)
                    finally:
                        executed = self.instructions_executed
                    pc = region.join_index + 1
                    continue
                if code == OP_HALT:
                    self._halted = True
                    return
                if code == OP_JOIN:
                    raise self._trap(u, "join reached in serial flow "
                                        "(fell through into a spawn region?)")
                # getvt / chkid / gettcu
                raise self._trap(u, f"{u.op} outside a spawn region")
        except TrapError as exc:
            raise self._trap(u, str(exc)) from None
        finally:
            core.pc = pc
            self.instructions_executed = executed

    def _run_spawn_serialized(self, master_regs: List[int], region,
                              low: int, high: int) -> None:
        """Serialize a spawn block: one context runs all virtual threads.

        The context starts from a broadcast copy of the master register
        file (the paper's "broadcast all live Master TCU registers"),
        then executes the region's getvt/chkid dispatch loop with the
        thread counter granting IDs ``low..high`` in order.
        """
        regs = list(master_regs)
        counter = low
        uops = self.decoded.uops
        n = len(uops)
        handlers = HANDLERS
        pc_counts = self._pc_counts
        limit = self._limit()
        executed = self.instructions_executed
        parallel_calls = self.program.parallel_calls
        region_start = region.start
        region_join = region.join_index
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.region_begin(region)
        pc = region_start
        u = None
        try:
            while True:
                if not region_start <= pc < region_join:
                    if pc == region_join:
                        raise SimulationError(
                            "TCU flowed into join without a chkid park "
                            f"(text index {pc})")
                    if not parallel_calls:
                        # The XMT hardware cannot execute instructions
                        # that were not broadcast -- exactly the Fig. 9
                        # basic-block layout hazard the compiler
                        # post-pass must prevent.
                        raise SimulationError(
                            "control left the spawn region to text index "
                            f"{pc} (basic-block layout bug? see paper "
                            "Fig. 9)")
                    if not 0 <= pc < n:
                        raise SimulationError(f"TCU PC out of range: {pc}")
                u = uops[pc]
                pc_counts[pc] += 1
                executed += 1
                if executed > limit:
                    raise self._over_budget()
                ex = u.ex
                if ex is not None:
                    pc = ex(regs, pc)
                    continue
                code = u.code
                if code < OP_GETVT:
                    pc = handlers[code](self, regs, u, pc)
                    continue
                if code == OP_GETVT:
                    if u.rd != REG_ZERO:
                        regs[u.rd] = counter & 0xFFFFFFFF
                    if sanitizer is not None:
                        sanitizer.set_thread(counter)
                    counter += 1
                    pc += 1
                    continue
                if code == OP_CHKID:
                    if to_signed(regs[u.rs]) > high:
                        if sanitizer is not None:
                            sanitizer.region_end()
                        return  # all virtual threads done; hardware joins
                    pc += 1
                    continue
                if code == OP_GETTCU:
                    if u.rd != REG_ZERO:
                        regs[u.rd] = 0  # one serialized context
                    pc += 1
                    continue
                # spawn / halt / join
                raise self._trap(u, f"{u.op} inside a spawn region")
        except TrapError as exc:
            raise self._trap(u, str(exc)) from None
        finally:
            self.instructions_executed = executed
