"""Folding the per-repeat records of one run into its result.

Pure functions over plain data, so the unit tests need no toolchain.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class OpTally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)

    def fail_attempted(self, reason: str) -> None:
        """Turn one already-counted success into a failure."""
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def check_models(tally: OpTally, reference: Dict[str, list],
                 ops: Iterable[dict], label: str) -> None:
    """Determinism check: every op of one repeat must have simulated
    exactly the ``[cycles, instructions]`` the reference recorded for
    the op of the same name.  A mismatch fails that op.  Ops the
    reference has not seen join it."""
    for op in ops:
        model = op["model"]
        if not op["ok"]:
            continue
        want = reference.setdefault(op["name"], model)
        if want != model:
            tally.fail_attempted(
                f"{label}: {op['name']} simulated {model}, "
                f"reference {want}")

