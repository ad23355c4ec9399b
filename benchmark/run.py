#!/usr/bin/env python3
"""The sdcm benchmark: one command that builds, runs, checks and reports.

  python3 benchmark/run.py --workload NAME [--seed N] [--seconds S]
                           [--trace 0|1]
      Runs one workload (BENCHMARK.json names them) and prints every
      metric by name and unit; the last stdout line is the result JSON
      {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
      end-to-end metrics from the timed passes, --trace 1 the per-layer
      metrics from a plain pass, the layer probes and a profiled pass.

  python3 benchmark/run.py suite [--invocations I] [--traced] [--out FILE]
      Every workload, each in its own process, interleaved (w1 w2 w3 w4
      w1 ...) three times per invocation, repetition r using seed
      20060425 + r and BENCHMARK.json's run_seconds. Each end-to-end
      metric is reported as the median of its three values with min and
      max. --traced adds one per-layer run per workload. Writes one
      result JSON (default build-bench/out/result.json).

  python3 benchmark/run.py compare A.json[:I] B.json[:I]
      Compares invocation I (default: the last) of two suite results,
      one row per (metric, workload), applying each metric's direction
      and bound from BENCHMARK.json. Exits 1 if any pair got worse.

Run from anywhere; paths resolve against the checkout holding this file.
sdcm_bench is built from source into build-bench (Release) and
build-bench-profile (Release, -DSDCM_PROFILE=ON) on first use.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = {"build-bench": [], "build-bench-profile": ["-DSDCM_PROFILE=ON"]}
OUT = ROOT / "build-bench" / "out"
DEFAULT_SEED = 20060425
REPEATS = 3
# An sdcm_bench process may run this long past --seconds (the warm-up
# passes, the last timed pass, the layer probes) before it is killed.
SLACK_S = 75

# Profiler sites name their module first ("frodo.update_request",
# "timer.upnp.renew"); these heads belong to another module.
MODULE_ALIASES = {"tcp": "net", "workload": "experiment",
                  "(unattributed)": "sim"}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1), or None unless at least ten
    samples lie beyond it."""
    n = len(values)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < 10:
        return None
    return sorted(values)[rank - 1]


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles, n=4); None below two values."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else None


def summarize(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "iqr_share": iqr_share(values),
            "values": values}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def timed_metrics(run, passes):
    """End-to-end metrics of one sdcm_bench --mode=timed output: its summary
    and its per-pass lines. Throughput and run time are those of the
    fastest pass: the host slows every vCPU by up to 30% for tens of
    seconds at a time, and the fastest pass is the one such a slowdown
    touched least. Set-up time is the median over every pass's samples."""
    best = max(passes, key=lambda p: p["runs"] / p["wall_ns"])
    setups = [s for p in passes for s in p["setup_ns"]]
    return {
        "runs_per_s": best["runs"] / (best["wall_ns"] / 1e9),
        "run_ms_p50": statistics.median(best["run_wall_ns"]) / 1e6,
        "setup_s": statistics.median(setups) / 1e9,
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
    }


def timed_info(run, passes):
    """What the timed passes saw besides the metrics, for the report."""
    walls = [w for p in passes for w in p["run_wall_ns"]]
    p99 = percentile(walls, 0.99)
    return {"passes": len(passes), "runs": len(walls),
            "run_ms_p99": None if p99 is None else p99 / 1e6,
            "setup_samples": sum(len(p["setup_ns"]) for p in passes),
            "oracle_violations": run["violations"]}


def module_of(site):
    if site.startswith("timer."):
        site = site[len("timer."):]
    head = site.split(".", 1)[0]
    return MODULE_ALIASES.get(head, head)


def read_profile(path):
    """Per-module (ns, events) and per-phase ns, summed over models."""
    modules = defaultdict(lambda: [0, 0])
    phases = defaultdict(int)
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if "event" in row:
                entry = modules[module_of(row["event"])]
                entry[0] += row["total_ns"]
                entry[1] += row["count"]
            elif "phase" in row:
                phases[row["phase"]] += row["total_ns"]
    return modules, phases


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(plain, traced, modules, phases, module_names):
    """Per-layer metrics from the plain pass (plus probes), the traced
    pass and its profile. Returns (metrics, loop share sum)."""
    k, p = plain["kernel"], plain["probes"]
    runs = plain["runs"]
    run_loop = phases.get("phase.run_loop", 0)
    m = {
        "sim.loop_ns_per_event": statistics.median(p["sim_loop_ns_per_event"]),
        "sim.events_per_run": k["events_fired"] / runs,
        "sim.cancelled_per_run": k["events_cancelled"] / runs,
        "sim.peak_heap": k["peak_heap_size"],
        "sim.callback_heap_allocs_per_run": k["callback_heap_allocs"] / runs,
        "sim.events_per_s": k["events_fired"] / (plain["run_wall_ns_total"]
                                                 / 1e9),
        "net.fanout_ns_per_dest": statistics.median(p["fanout_ns_per_dest"]),
        "net.skipped_per_copy": ratio(k["udp_deliveries_skipped"],
                                      k["udp_sent"]),
        "net.udp_sent_per_run": k["udp_sent"] / runs,
        "net.tcp_sent_per_run": k["tcp_sent"] / runs,
        "net.drops_per_run": k["messages_dropped"] / runs,
        "experiment.pool_idle_share": 1 - plain["run_wall_ns_total"] / (
            plain["wall_ns"] * plain["threads"]),
        "check.overhead_us_per_run": (
            p["check_checked_run_wall_ns"] / p["check_checked_runs"]
            - p["check_plain_run_wall_ns"] / p["check_plain_runs"]) / 1e3,
        "check.oracle_check_us": ratio(phases.get("phase.oracle_check", 0),
                                       traced["runs"]) / 1e3,
        "obs.trace_records_per_run": k["trace_records"] / runs,
        "obs.jsonl_ns_per_record": p["jsonl_ns"] / p["jsonl_records"],
        "obs.trace_bytes_per_record": p["jsonl_bytes"] / p["jsonl_records"],
        "obs.trace_overhead": (traced["run_wall_ns_total"] / traced["runs"])
        / (plain["run_wall_ns_total"] / runs),
    }
    for phase in ("topology_build", "failure_plan", "workload_plan",
                  "extract", "sink_flush"):
        m[f"experiment.{phase}_us"] = ratio(
            phases.get(f"phase.{phase}", 0), traced["runs"]) / 1e3
    for name in set(module_names) | set(modules):
        ns, events = modules.get(name, (0, 0))
        m[f"{name}.loop_share"] = ratio(ns, run_loop)
        m[f"{name}.ns_per_event"] = ratio(ns, events)
    share_sum = ratio(sum(ns for ns, _ in modules.values()), run_loop)
    return m, share_sum


# ---------------------------------------------------------------------------
# Building and running sdcm_bench
# ---------------------------------------------------------------------------

def build():
    """Builds both sdcm_bench trees (a no-op when up to date); returns
    {tree: binary}. Build chatter goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    binaries = {}
    for tree, flags in TREES.items():
        env = dict(os.environ, TMPDIR=str(ROOT / tree / "tmp"))
        os.makedirs(env["TMPDIR"], exist_ok=True)
        if not (ROOT / tree / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", "benchmark", "-B", tree,
                            "-DCMAKE_BUILD_TYPE=Release", *flags],
                           cwd=ROOT, env=env, stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", tree, "--target", "sdcm_bench",
                        "-j", jobs],
                       cwd=ROOT, env=env, stdout=sys.stderr, check=True)
        binaries[tree] = ROOT / tree / "sdcm_bench"
    return binaries


def drive(binary, workload, mode, seed, *extra, seconds=0):
    """Runs sdcm_bench once; returns its JSON lines (the summary last).
    `seconds` is passed on in timed mode only."""
    cmd = [str(binary), f"--workload={workload}", f"--mode={mode}",
           f"--seed={seed}", *extra]
    if mode == "timed":
        cmd.append(f"--seconds={seconds}")
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + SLACK_S, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def run_workload(binaries, bench, workload, seed, seconds, trace):
    """One workload run: (result line dict, report info dict)."""
    if trace:
        plain, = drive(binaries["build-bench"], workload, "layers", seed)
        OUT.mkdir(parents=True, exist_ok=True)
        profile = OUT / f"profile_{workload}.jsonl"
        traced, = drive(binaries["build-bench-profile"], workload, "traced",
                        seed, f"--profile-out={profile}")
        specs = bench["per_layer"]
        module_names = [s["name"].split(".")[0] for s in specs
                        if s["name"].endswith(".loop_share")]
        modules, phases = read_profile(profile)
        values, share_sum = layer_metrics(plain, traced, modules, phases,
                                          module_names)
        runs = [plain, traced]
        info = {"profile": str(profile.relative_to(ROOT)),
                "loop_share_sum": share_sum}
        shares_ok = abs(share_sum - 1) <= 0.01
    else:
        *passes, run = drive(binaries["build-bench"], workload, "timed", seed,
                             seconds=seconds)
        specs = bench["end_to_end"]
        values = timed_metrics(run, passes)
        runs = [run]
        info = timed_info(run, passes)
        shares_ok = True
    info["build"] = runs[-1]["build"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}
    result = {"correct": failed == 0 and attempted > 0 and shares_ok,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info


def print_report(workload, result, info):
    print(f"== {workload}: {result['attempted']} runs attempted, "
          f"{result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    for key, value in info.items():
        print(f"  ({key}: {value})")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_run(args):
    bench = load_benchmark()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        sys.exit(f"unknown workload {args.workload!r}")
    binaries = build()
    result, info = run_workload(binaries, bench, args.workload, args.seed,
                                args.seconds, args.trace)
    print_report(args.workload, result, info)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def cmd_suite(args):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    binaries = build()
    correct = True
    invocations = []
    for i in range(args.invocations):
        samples = {name: defaultdict(list) for name in names}
        units = {}
        infos = {name: [] for name in names}
        for r in range(REPEATS):
            for name in names:
                result, info = run_workload(binaries, bench, name,
                                            DEFAULT_SEED + r, seconds, 0)
                print_report(f"{name} (invocation {i}, repeat {r})", result,
                             info)
                correct &= result["correct"]
                for metric, entry in result["metrics"].items():
                    samples[name][metric].append(entry["value"])
                    units[metric] = entry["unit"]
                infos[name].append(info)
        invocations.append({
            name: {"metrics": {m: dict(summarize(v), unit=units[m])
                               for m, v in samples[name].items()},
                   "runs": infos[name]}
            for name in names})
    per_layer = {}
    if args.traced:
        for name in names:
            result, info = run_workload(binaries, bench, name, DEFAULT_SEED,
                                        seconds, 1)
            print_report(f"{name} (traced)", result, info)
            correct &= result["correct"]
            per_layer[name] = {"metrics": result["metrics"], "info": info}
    out = {"seed": DEFAULT_SEED, "seconds": seconds, "repeats": REPEATS,
           "correct": correct, "invocations": invocations,
           "per_layer": per_layer}
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if correct else 1


def verdict(a, b, better, bound):
    """Compares the change's summary b against the parent's a."""
    def spread(s):
        return (s["max"] - s["min"]) / s["median"] if s["median"] else 0.0

    sign = 1 if better == "lower" else -1
    if spread(a) > bound or spread(b) > bound:
        beats = (max(b["values"]) < min(a["values"]) if better == "lower"
                 else min(b["values"]) > max(a["values"]))
        return "better" if beats else "unresolved"
    change = sign * (b["median"] - a["median"]) / a["median"]
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def load_invocation(arg):
    path, _, index = arg.rpartition(":")
    if not (path and index.lstrip("-").isdigit()):
        path, index = arg, "-1"
    with open(path) as f:
        return json.load(f)["invocations"][int(index)]


def cmd_compare(args):
    bench = load_benchmark()
    a, b = load_invocation(args.a), load_invocation(args.b)
    worse = 0
    print(f"{'metric':<14} {'workload':<20} {'A median':>12} {'B median':>12}"
          f" {'change':>8} {'bound':>6}  verdict")
    for spec in bench["end_to_end"]:
        for w in bench["workloads"]:
            sa = a[w["name"]]["metrics"][spec["name"]]
            sb = b[w["name"]]["metrics"][spec["name"]]
            v = verdict(sa, sb, spec["better"], spec["bound"])
            worse += v == "worse"
            change = (sb["median"] - sa["median"]) / sa["median"]
            print(f"{spec['name']:<14} {w['name']:<20} {sa['median']:>12.6g}"
                  f" {sb['median']:>12.6g} {change:>+8.1%}"
                  f" {spec['bound']:>6.0%}  {v}")
    return 1 if worse else 0


def main(argv):
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        return cmd_compare(p.parse_args(argv[1:]))
    if argv[:1] == ["suite"]:
        p = argparse.ArgumentParser(prog="run.py suite")
        p.add_argument("--invocations", type=int, default=1)
        p.add_argument("--traced", action="store_true")
        p.add_argument("--out", default=str(OUT / "result.json"))
        return cmd_suite(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int,
                   default=load_benchmark()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: {e}")
