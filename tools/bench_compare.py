#!/usr/bin/env python3
"""Compare two sets of bench JSON snapshots and fail on a regression.

Usage:
    bench_compare.py BASELINE.json[,BASELINE2.json...] \
        CURRENT.json[,CURRENT2.json...] \
        [--key indexed_queue.events_per_sec]... \
        [--key-if-present sim_loop.events_per_sec]... [--max-regression 0.02]

Every file is a bench snapshot with the same shape (BENCH_sim_kernel.json,
BENCH_workloads.json, ...). Each side may list several snapshots of
repeated runs, comma-separated; a side's value for a key is then its best
(highest) across them. A slowdown from the host - a noisy neighbour, a
frequency dip - hits some runs and spares others, while a slowdown from
the code hits every run, the fastest included; so best-of-N compares the
code, where one run per side compares the host. Alternate the two sides'
runs so that a slow stretch of the host touches both.
--key may repeat: every named metric is
compared and the gate fails if ANY of them regresses past the tolerance.
With no --key the gate defaults to the indexed event queue's
events-per-second, the repo's headline kernel throughput.
--key-if-present behaves like --key but skips (with a notice) any metric
absent from a snapshot on either side - for gating metrics the baseline
commit did not emit yet, without breaking the first CI run that
introduces them. A regression is
(baseline - current) / baseline; the script exits non-zero when it
exceeds --max-regression. Improvements always pass.

Meant to run on one machine within one CI job (baseline built from the
parent commit, current from the candidate), so the comparison is
machine-relative; absolute numbers are never compared across hosts.
"""

import argparse
import json
import sys


def lookup(doc, dotted_key):
    node = doc
    for part in dotted_key.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(dotted_key)
        node = node[part]
    return float(node)


def best(docs, dotted_key):
    """The highest value of `dotted_key` across snapshots; KeyError if
    any snapshot lacks it."""
    return max(lookup(doc, dotted_key) for doc in docs)


def load_all(paths):
    docs = []
    for path in paths.split(","):
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    return docs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--key", action="append",
                        help="dotted path of a metric (higher = better); "
                             "repeatable, all named keys must hold")
    parser.add_argument("--key-if-present", action="append", dest="key_if_present",
                        help="like --key, but skipped with a notice when the "
                             "metric is missing from either snapshot")
    parser.add_argument("--max-regression", type=float, default=0.02,
                        help="fraction of baseline allowed to regress")
    args = parser.parse_args()
    keys = args.key or ["indexed_queue.events_per_sec"]

    baseline_docs = load_all(args.baseline)
    current_docs = load_all(args.current)
    runs = f"best of {len(baseline_docs)} vs {len(current_docs)} runs"

    for key in args.key_if_present or []:
        try:
            best(baseline_docs, key)
            best(current_docs, key)
        except KeyError as missing:
            print(f"bench_compare: skipping {key} "
                  f"(key {missing} absent from a snapshot)")
            continue
        keys.append(key)

    failed = []
    for key in keys:
        try:
            baseline = best(baseline_docs, key)
            current = best(current_docs, key)
        except KeyError as missing:
            print(f"bench_compare: key {missing} not found", file=sys.stderr)
            return 2
        if baseline <= 0:
            print(f"bench_compare: baseline {key} is {baseline}, "
                  "cannot compare", file=sys.stderr)
            return 2

        regression = (baseline - current) / baseline
        print(f"{key}: baseline {baseline:.4g}, current {current:.4g}, "
              f"delta {-regression:+.2%} "
              f"(tolerance -{args.max_regression:.0%}, {runs})")
        if regression > args.max_regression:
            failed.append((key, regression))

    if failed:
        for key, regression in failed:
            print(f"bench_compare: FAIL - {key} regressed {regression:.2%}, "
                  f"exceeds {args.max_regression:.0%}", file=sys.stderr)
        return 1
    print("bench_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
