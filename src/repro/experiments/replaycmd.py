"""The ``repro-experiments replay`` subcommand — verify and bisect runs.

Builds on :mod:`repro.replay`: every simulated point can record its
*order log* — the sequence of nondeterminism-relevant decisions (event
drain order, message match/delivery order, fault-injector draws) — and
a later run of the same point can be *verified* against that log,
failing loudly at the first divergent decision instead of silently
producing different numbers.

* ``replay verify LOG`` — re-run the point a recorded ``.order`` file
  describes (the log's metadata carries the point's canonical JSON)
  and check every decision against the recording.  Exit 0 when the run
  is bit-identical, 1 with a first-divergence report otherwise.
* ``replay bisect`` — delta-debug a failing fault plan: re-run one
  (app, policy/instrument, CPUs) point under subsets of the plan's
  specs (classic ddmin) until a 1-minimal interesting sub-plan
  remains.  ``--mode effect`` (default) keeps specs that change the
  payload versus the fault-free baseline; ``--mode fail`` keeps specs
  that break the run outright; ``--mode diverge`` keeps specs that
  perturb the partial order of a clean recording (``--against LOG``).

Both commands are deterministic: the same inputs always reproduce the
same verdict, the same minimal subset and the same test count.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from ..replay.orderlog import OrderLog
from ..runner.collect import ReplayCollector
from ..runner.point import SweepPoint
from ..runner.worker import execute_point
from .cli import _load_fault_plan, _point, _print_divergence

__all__ = ["verify", "bisect"]


def verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``repro-experiments replay verify`` — replay a recorded order log.

    The run's status is the verdict: a failed run is reported on
    stdout (or in the JSON document), not as an error line."""
    try:
        log = OrderLog.load(args.log)
    except (OSError, ValueError) as exc:
        print(f"repro-experiments replay: {args.log}: {exc}",
              file=sys.stderr)
        return 1
    point_doc = log.meta.get("point")
    if not point_doc:
        print(f"repro-experiments replay: {args.log}: log metadata carries "
              "no point description; cannot rebuild the run",
              file=sys.stderr)
        return 1
    point = SweepPoint.from_canonical(point_doc)

    envelope = execute_point(
        point, timeout=args.timeout,
        collectors=[ReplayCollector({point.label: log.to_b64()})])
    verified = envelope["status"] == "ok"
    if args.json:
        doc = {
            "log": args.log,
            "point": point.canonical(),
            "decisions": len(log),
            "status": envelope["status"],
            "verified": verified,
        }
        if envelope.get("divergence"):
            doc["divergence"] = envelope["divergence"]
        print(json.dumps(doc, indent=2))
        return 0 if verified else 1
    if verified:
        print(f"replay verify: {point.label}: OK "
              f"({len(log)} decision(s) bit-identical)")
        return 0
    print(f"replay verify: {point.label}: {envelope['status'].upper()}")
    if envelope.get("divergence"):
        _print_divergence(envelope["divergence"])
    elif envelope.get("error"):
        print(f"  {envelope['error'].strip().splitlines()[-1]}")
    return 1


def bisect(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``repro-experiments replay bisect`` — minimize a fault plan."""
    from ..replay import bisect_plan

    point = _point(args, parser)
    plan = _load_fault_plan(args, parser)
    if plan is None:
        parser.error("replay bisect needs a plan: --faults FILE or --plan NAME")
    if not len(plan):
        parser.error("the plan is empty; nothing to bisect")
    against: Optional[OrderLog] = None
    if args.mode == "diverge":
        if not args.against:
            parser.error("--mode diverge needs --against LOG (a clean "
                         "recording of the fault-free point)")
        try:
            against = OrderLog.load(args.against)
        except (OSError, ValueError) as exc:
            parser.error(f"--against {args.against}: {exc}")
    elif args.against:
        parser.error("--against only applies to --mode diverge")

    try:
        result = bisect_plan(point, plan, mode=args.mode, against=against,
                             timeout=args.timeout)
    except ValueError as exc:
        print(f"repro-experiments replay bisect: {exc}", file=sys.stderr)
        return 1

    if args.json:
        doc = {"point": point.canonical(), "mode": args.mode,
               **result.to_dict()}
        print(json.dumps(doc, indent=2))
        return 0
    print(f"replay bisect: {point.label} under mode={args.mode}")
    print(f"  {result.original_size} spec(s) -> {len(result.minimal)} "
          f"(1-minimal) in {result.tests} deterministic test run(s)")
    for i, spec in enumerate(result.minimal.specs):
        print(f"  [{i}] {json.dumps(spec.to_dict(), sort_keys=True)}")
    return 0
