#!/usr/bin/env python3
"""The repository benchmark: builds msn_perfbench from source, runs one
workload, checks every output against perfbench/reference.json, prints a
table of the metrics and, as the last line, one JSON result object.

    python3 perfbench/run.py --workload msri_table4|serve_mixed|closure|all \\
        --seed N --seconds S --trace 0|1

Run it from the repository root.  The build goes to $CARGO_TARGET_DIR
(default .bench_build).  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones.  `--write-reference` recomputes the
reference digests from the current code (do this only when a change is
meant to alter results).  perfbench/METRICS.md describes the workloads
and every metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
BINARY_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds msn_perfbench; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "msn_perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "msn_perfbench")


def run_binary(binary, args, workdir):
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run([binary] + args + ["--workdir", workdir],
                              stdout=subprocess.PIPE, check=True,
                              timeout=BINARY_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def fmt(value):
    return "%.6g" % value


def print_timing(name, unit, scale, t):
    print("  %-26s %12s %-4s n=%d" % (name + "_p50", fmt(t["p50"] * scale),
                                      unit, t["n"]))
    print("  %-26s %12s %-4s n=%d (%d beyond)" % (
        name + "_p%s" % t["tail_level"], fmt(t["tail"] * scale), unit,
        t["n"], t["beyond"]))


def print_end_to_end(workload, raw, e2e, primary, secondary):
    """The table with the workload's own metric names."""
    v = {name: value for name, (value, _) in e2e.items()}
    s = raw["samples"]
    print("  %-26s %12s ms   times below scaled to a %g ms probe"
          % ("probe_ms_p50", fmt(statistics.median(metrics.probe_times(s))),
             metrics.PROBE_REF_MS))
    print("  %-26s %12s s" % ("setup_s", fmt(v["setup_s"])))
    print("  %-26s %12s MB" % ("peak_rss_mb", fmt(v["peak_rss_mb"])))
    if workload == "msri_table4":
        print("  %-26s %12s 1/s" % ("msri_nets_per_s", fmt(v["ops_per_s"])))
        print_timing("msri_net_ms", "ms", 1, primary)
        print("  %-26s %12s 1/s" % ("sizing_nets_per_s",
                                    fmt(metrics.rate_per_s(
                                        metrics.scaled(s, "sizing_ms")))))
        print_timing("sizing_net_ms", "ms", 1, secondary)
    elif workload == "serve_mixed":
        print("  %-26s %12s 1/s" % ("serve_req_per_s", fmt(v["ops_per_s"])))
        print_timing("serve_hit_us", "us", 1e3, primary)
        hits_ms = [us / 1e3 for us in metrics.scaled(s, "hit_us")]
        print("  %-26s %12s us   n=%d (%d beyond; printed only)" % (
            "serve_hit_us_p99", fmt(metrics.percentile(hits_ms, 99) * 1e3),
            len(hits_ms), metrics.samples_beyond(len(hits_ms), 99)))
        print_timing("serve_miss_ms", "ms", 1, secondary)
        misses = [k for k, h in zip(s["kind"], s["hit"]) if not h]
        share = metrics.ratio(sum(1 for k in misses if k == 1), len(misses))
        print("  %-26s %12s      of %d misses" % ("near_dup_miss_share",
                                                  fmt(share), len(misses)))
    else:
        print("  %-26s %12s 1/s" % ("closure_runs_per_s", fmt(v["ops_per_s"])))
        print_timing("closure_warm_s", "s", 1e-3, primary)
        print_timing("closure_cold_s", "s", 1e-3, secondary)
        print("  %-26s %12d" % ("closure_jobs", raw["values"]["jobs"]))


def run_workload(binary, workload, seed, seconds, trace, build_dir, reference):
    workdir = os.path.join(build_dir, "work", "%s-%d" % (workload, os.getpid()))
    raw = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace",
                              str(trace)], workdir)
    attempted, failed, messages = metrics.gate(raw, reference[workload])
    print("%s (seed %d, trace %d)" % (workload, seed, trace))
    if trace:
        result = metrics.per_layer(workload, raw)
        for name, (value, unit) in result.items():
            print("  %-30s %14s %s" % (name, fmt(value), unit))
        if workload == "closure":
            print("  %-30s %14d (configured)" % ("batch.jobs",
                                                raw["values"]["jobs"]))
    else:
        result, primary, secondary = metrics.end_to_end(workload, raw)
        print_end_to_end(workload, raw, result, primary, secondary)
    print("  %-26s %12s      %d failed of %d" % (
        "error_rate", fmt(metrics.error_rate(attempted, failed)), failed,
        attempted))
    for message in messages[:10]:
        print("  FAILED: " + message)
    return attempted, failed, result


def write_reference(binary, build_dir):
    reference = {}
    for workload in metrics.WORKLOADS:
        log("computing reference digests for " + workload)
        workdir = os.path.join(build_dir, "work", "reference-" + workload)
        raw = run_binary(binary, ["--reference", workload], workdir)
        if raw["errors"]:
            raise SystemExit("reference run failed: %s" % raw["errors"][:5])
        reference[workload] = raw["digests"]
    with open(REFERENCE, "w") as out:
        json.dump(reference, out, indent=1, sort_keys=True)
        out.write("\n")
    log("wrote " + REFERENCE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=metrics.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    if args.write_reference:
        write_reference(binary, build_dir)
        return 0

    with open(REFERENCE) as f:
        reference = json.load(f)
    workloads = (metrics.WORKLOADS if args.workload == "all"
                 else (args.workload,))
    attempted = failed = 0
    combined = {}
    try:
        for workload in workloads:
            a, f, result = run_workload(binary, workload, args.seed,
                                        args.seconds, args.trace, build_dir,
                                        reference)
            attempted += a
            failed += f
            prefix = "" if len(workloads) == 1 else workload + "."
            for name, (value, unit) in result.items():
                combined[prefix + name] = {"value": value, "unit": unit}
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("perfbench: run failed: %r" % e)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
