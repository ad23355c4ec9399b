#!/usr/bin/env python3
"""Gate a campaign profile JSONL on the wall-clock share of named events.

Reads the canonical profile emitted by `sdcm_sweep --profile`
(DESIGN.md section 13.4), sums `total_ns` of the named events for one
model, divides by that model's `loop_ns`, and fails if the share
exceeds the bound.  This is the per-PR tripwire for the interest-scoped
multicast win (DESIGN.md section 14): the two FRODO delivery sites that
used to be 85% of the 10^4-User churn run loop must stay a small slice
of it.  CI's profile job profiles that campaign afresh on every run and
gates the result here.

Usage:
  profile_gate.py PROFILE.jsonl --model FRODO-3party \
      --events frodo.node_announce,frodo.multicast_search \
      --max-share 0.40
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(
        description="fail when named events exceed a share of loop wall time")
    parser.add_argument("profile", help="campaign profile JSONL")
    parser.add_argument("--model", required=True,
                        help="model whose run loop is the denominator")
    parser.add_argument("--events", required=True,
                        help="comma-separated profiler event names")
    parser.add_argument("--max-share", type=float, required=True,
                        help="maximum allowed sum(total_ns)/loop_ns")
    args = parser.parse_args()

    events = [name for name in args.events.split(",") if name]
    loop_ns = None
    totals = {}
    with open(args.profile, "r", encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            if row.get("model") != args.model:
                continue
            if "loop_ns" in row and "event" not in row:
                loop_ns = row["loop_ns"]
            elif row.get("event") in events:
                totals[row["event"]] = row["total_ns"]

    if loop_ns is None:
        print(f"profile_gate: no model line for {args.model!r} in "
              f"{args.profile}", file=sys.stderr)
        return 1
    if loop_ns <= 0:
        print(f"profile_gate: {args.model} loop_ns={loop_ns} is not "
              "positive", file=sys.stderr)
        return 1

    attributed = sum(totals.get(name, 0) for name in events)
    share = attributed / loop_ns
    for name in events:
        event_ns = totals.get(name, 0)
        print(f"  {name}: {event_ns} ns ({event_ns / loop_ns:.1%} of loop)")
    print(f"profile_gate: {args.model} share({','.join(events)}) = "
          f"{share:.4f} (bound {args.max_share})")
    if share > args.max_share:
        print("profile_gate: FAIL — share exceeds bound; the multicast "
              "delivery path has regressed", file=sys.stderr)
        return 1
    print("profile_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
