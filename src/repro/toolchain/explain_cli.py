"""``xmt-explain``: bottleneck reports over recorded runs.

    xmt-explain report RUN [--format text|markdown|json] [--top N]
                [--out FILE] [--assert-exact]
    xmt-explain diff RUN_A RUN_B [--ledger DIR] [--format ...]

``RUN`` is a ledger run directory, a ``manifest.json`` path, a bare
``accounting.json`` export (from ``xmtsim --accounting-out``), or --
with ``--ledger DIR`` -- a run id prefix.  ``report`` renders one run's
top-down cycle tree, per-hop latency distributions and contention hot
spots; ``diff`` renders the layer-attribution table between two runs
and names the layer responsible for a cycle regression.

``--assert-exact`` is the CI contract: exit nonzero unless the
accounting is exhaustive and exclusive -- every per-TCU cycle
attributed to exactly one category, the category total equal to
``cycles x n_processors``, and (when a manifest is present) the
accounted cycle count equal to the manifest's run cycle count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro.sim.observability.explain import (
    build_explain,
    explain_diff,
    render_explain,
)
from repro.sim.observability.ledger import (
    MANIFEST_FILE,
    Ledger,
    load_artifact,
    load_run,
)


def _load_bundle(token: str, ledger_dir: Optional[str]) -> Dict[str, Any]:
    """Resolve one run operand into ``{"accounting", "lifecycle",
    "metrics", "manifest"}`` (accounting required, the rest optional)."""
    if os.path.isfile(token) and not token.endswith(MANIFEST_FILE):
        return {"accounting": load_artifact(token, "accounting"),
                "lifecycle": None, "metrics": None, "manifest": None}
    if os.path.exists(token):
        record = load_run(token)
    elif ledger_dir is not None:
        record = Ledger(ledger_dir).load(token)
    else:
        raise ValueError(f"{token!r} is not a path; pass --ledger DIR "
                         f"to resolve run ids")
    accounting = record.artifact("accounting")
    if accounting is None:
        raise ValueError(
            f"{token}: run has no accounting.json -- record it with "
            f"'xmtsim --accounting-out --ledger' or "
            f"'xmt-compare check --recorder --ledger'")
    return {"accounting": accounting,
            "lifecycle": record.artifact("lifecycle"),
            "metrics": record.artifact("metrics"),
            "manifest": record.manifest}


def _check_exact(bundle: Dict[str, Any]) -> List[str]:
    """The ``--assert-exact`` invariants; returns failure messages."""
    acct = bundle["accounting"]
    problems: List[str] = []
    if not acct.get("exact"):
        problems.append("accounting marked inexact by the exporter")
    flat_total = sum(acct["machine"]["flat"].values())
    if flat_total != acct["total_cycles"]:
        problems.append(
            f"category cycles sum to {flat_total}, expected "
            f"total_cycles {acct['total_cycles']}")
    expected = acct["cycles"] * acct["n_processors"]
    if acct["total_cycles"] != expected:
        problems.append(
            f"total_cycles {acct['total_cycles']} != cycles x "
            f"n_processors ({acct['cycles']} x {acct['n_processors']} "
            f"= {expected})")
    manifest = bundle.get("manifest")
    if manifest is not None and manifest.get("cycles") != acct["cycles"]:
        problems.append(
            f"accounted cycles {acct['cycles']} != manifest cycles "
            f"{manifest.get('cycles')}")
    return problems


def xmt_explain_main(argv: Optional[List[str]] = None) -> int:
    """Exit codes: 0 = ok, 1 = --assert-exact violated, 2 = bad input."""
    parser = argparse.ArgumentParser(
        prog="xmt-explain",
        description="top-down bottleneck reports over recorded runs: "
                    "cycle accounting tree, hop latency histograms, "
                    "contention hot spots, and two-run layer attribution")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--ledger", default=None, metavar="DIR",
                       help="resolve run-id operands in this ledger")
        p.add_argument("--format", default="text",
                       choices=("text", "markdown", "json"),
                       help="report format")
        p.add_argument("--top", type=int, default=8, metavar="N",
                       help="rows per report section (default 8)")
        p.add_argument("--out", default=None, metavar="FILE",
                       help="also write the report to FILE")

    p_report = sub.add_parser(
        "report", help="explain one run: top-down tree, hop latencies, "
                       "contention")
    p_report.add_argument("run", help="run dir, manifest.json, "
                                      "accounting.json, or run id")
    p_report.add_argument("--assert-exact", action="store_true",
                          help="CI gate: fail unless every processor "
                               "cycle is attributed exactly once and "
                               "totals match the run cycle count")
    add_common(p_report)

    p_diff = sub.add_parser(
        "diff", help="diff two runs: layer-attribution table and the "
                     "layer responsible for a regression")
    p_diff.add_argument("run_a", help="baseline run (see report)")
    p_diff.add_argument("run_b", help="fresh run (see report)")
    add_common(p_diff)

    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            bundle = _load_bundle(args.run, args.ledger)
            report = build_explain(bundle["accounting"],
                                   lifecycle=bundle["lifecycle"],
                                   metrics=bundle["metrics"],
                                   manifest=bundle["manifest"],
                                   top=args.top)
        else:
            bundle_a = _load_bundle(args.run_a, args.ledger)
            bundle_b = _load_bundle(args.run_b, args.ledger)
            report = explain_diff(bundle_a, bundle_b, top=args.top)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        message = (exc.args[0] if isinstance(exc, (KeyError, ValueError))
                   and exc.args else exc)
        print(f"xmt-explain: error: {message}", file=sys.stderr)
        return 2

    text = render_explain(report, args.format, top=args.top)
    print(text)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"xmt-explain: {exc}", file=sys.stderr)
            return 2

    if args.command == "report" and args.assert_exact:
        problems = _check_exact(bundle)
        if problems:
            for problem in problems:
                print(f"xmt-explain: INEXACT: {problem}", file=sys.stderr)
            return 1
        acct = bundle["accounting"]
        print(f"xmt-explain: exact: {acct['total_cycles']} attributed "
              f"cycles == {acct['cycles']} cycles x "
              f"{acct['n_processors']} processors", file=sys.stderr)
    return 0

