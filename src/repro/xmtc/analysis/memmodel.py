"""Memory-model linter (the ``mm.*`` checks).

The XMT memory model promises same-TCU same-address ordering for
non-blocking stores and cross-thread ordering only around prefix-sums,
where the compiler-inserted fence drains the pending stores.  Three
checks enforce the contract:

- ``mm.unfenced-ps`` (**error**): a ``ps``/``psm`` in a spawn region
  with earlier non-blocking stores is not immediately preceded by a
  fence.  The optimizer always inserts these fences; the check fires
  when fence insertion was disabled (``--no-fences``), i.e. it verifies
  the ablation knob is understood to be unsafe.
- ``mm.nb-read`` (**warning**): a load reads an alias class that was
  non-blocking-stored earlier in the same region with no fence in
  between.  Exempt when the load provably reads the thread's *own*
  freshly stored slice, which the hardware's static routing keeps
  ordered (memory-model rule 1): with known affine address forms that
  means store and load forms are *equal* (same per-thread cell);
  without forms it falls back to "both pure ``$``-arithmetic".
- ``mm.unsafe-lwro`` (**error**): a load routed through the cluster
  read-only cache targets an alias class that parallel code may write.
  The RO caches are only invalidated at spawn/join boundaries, so such
  a load can return stale data.  This validates the ``--ro-cache``
  optimizer pass output.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.xmtc import ir as IR
from repro.xmtc.analysis.classify import VAR_DOLLAR, BodyInfo
from repro.xmtc.analysis.diagnostics import Diagnostic
from repro.xmtc.analysis.summaries import UnitSummaries


def check_memory_model(unit: IR.IRUnit, summaries: UnitSummaries,
                       source_file: str = "<source>") -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    written_parallel = summaries.written_origins_parallel()
    unknown_parallel = summaries.unknown_parallel_store() is not None
    for func in unit.functions:
        for ins in IR.walk_instrs(func.body, include_spawn_bodies=False):
            if isinstance(ins, IR.SpawnIR):
                diags.extend(_check_region(ins, func.name, source_file))
        # unsafe-lwro applies to every readonly load, serial or parallel
        for ins in IR.walk_instrs(func.body):
            if (isinstance(ins, IR.Load) and ins.readonly
                    and (unknown_parallel
                         or ins.origin is None
                         or ins.origin in written_parallel)):
                target = ("the read-only cache load target"
                          if ins.origin is None
                          else f"'{ins.origin.partition(':')[2]}'")
                diags.append(Diagnostic(
                    check="mm.unsafe-lwro", severity="error",
                    message=(f"read-only-cache load of {target} but "
                             f"parallel code may write it; the RO cache "
                             f"is only invalidated at spawn/join"),
                    line=ins.line, function=func.name,
                    source_file=source_file,
                    hint="drop the lwro routing for this object or stop "
                         "writing it from spawn bodies"))
    return diags


def _check_region(spawn: IR.SpawnIR, func_name: str,
                  source_file: str) -> List[Diagnostic]:
    info = BodyInfo(spawn)
    diags: List[Diagnostic] = []
    body = spawn.body
    # alias class -> (store line, private flag, affine form, mixed forms)
    nb_stores: Dict[str, Tuple] = {}
    nb_seen = False
    prev_real = None
    for pos, ins in enumerate(body):
        if isinstance(ins, IR.FenceIR):
            nb_stores.clear()
            nb_seen = False
        elif isinstance(ins, IR.Store) and ins.nonblocking:
            nb_seen = True
            if ins.origin is not None:
                priv = info.is_private_addr(ins.addr)
                form = info.affine_of(ins.addr)
                prior = nb_stores.get(ins.origin)
                if prior is None:
                    nb_stores[ins.origin] = (ins.line, priv, form, False)
                else:
                    nb_stores[ins.origin] = (
                        ins.line, priv and prior[1], form,
                        prior[3] or form != prior[2])
        elif isinstance(ins, IR.Load) and ins.origin in nb_stores:
            store_line, store_priv, store_form, mixed = nb_stores[ins.origin]
            load_form = info.affine_of(ins.addr)
            if mixed:
                own_slice = False
            elif store_form is not None and load_form is not None:
                # provably the thread's own just-written cell
                own_slice = (store_form == load_form
                             and store_form.coeff(VAR_DOLLAR) != 0)
            else:
                own_slice = store_priv and info.is_private_addr(ins.addr)
            if not own_slice:
                name = ins.origin.partition(":")[2]
                diags.append(Diagnostic(
                    check="mm.nb-read", severity="warning",
                    message=(f"'{name}' is read at line {ins.line} after a "
                             f"non-blocking store at line {store_line} with "
                             f"no fence in between; the value may be stale"),
                    line=ins.line, function=func_name,
                    source_file=source_file,
                    hint="read it after the join, or coordinate the "
                         "handoff with ps/psm (the compiler fences those)"))
                del nb_stores[ins.origin]
        elif (isinstance(ins, IR.PsmIR)
              or (isinstance(ins, IR.PsIR) and ins.mode == "ps")):
            if nb_seen and not isinstance(prev_real, IR.FenceIR):
                op = "psm" if isinstance(ins, IR.PsmIR) else "ps"
                diags.append(Diagnostic(
                    check="mm.unfenced-ps", severity="error",
                    message=(f"{op} executes with non-blocking stores "
                             f"pending and no fence directly before it; "
                             f"threads ordering on this prefix-sum may "
                             f"observe stale memory"),
                    line=ins.line, function=func_name,
                    source_file=source_file,
                    hint="re-enable compiler fences (drop --no-fences)"))
        if not isinstance(ins, IR.Label):
            prev_real = ins
    return diags
