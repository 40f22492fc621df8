#!/usr/bin/env python3
"""Validates msn-run-stats-v1 / msn-bench-stats-v1 / msn-batch-stats-v1 /
msn-service-stats-v2 / msn-sta-stats-v1 JSON files.

Usage:
    check_stats_schema.py STATS.json [STATS.json ...]

Exit code 0 when every file conforms, 1 otherwise (first problem printed
to stderr).  Pure stdlib; the schemas are documented in
docs/OBSERVABILITY.md (run/bench/service) and docs/RUNTIME.md (batch).
"""
import json
import numbers
import sys

RUN_SCHEMA = "msn-run-stats-v1"
BENCH_SCHEMA = "msn-bench-stats-v1"
MERGED_BENCH_SCHEMA = "msn-bench-stats-v1-merged"
BATCH_SCHEMA = "msn-batch-stats-v1"
SERVICE_SCHEMA = "msn-service-stats-v2"
STA_SCHEMA = "msn-sta-stats-v1"

# The service stats document's fixed integer fields
# (docs/OBSERVABILITY.md; emitted by src/service/server.cc).
REQUIRED_SERVICE_CACHE = (
    "shards", "entries", "bytes", "max_entries", "max_bytes",
    "hits", "misses", "evictions", "insertions", "collisions", "flushes",
    "segment_enabled", "segment_bytes", "segment_live_bytes",
    "segment_dead_bytes", "segment_appends", "segment_append_errors",
    "segment_replayed", "segment_skipped", "segment_truncations",
    "segment_header_resets", "segment_compactions",
)
REQUIRED_SERVICE_REQUESTS = (
    "received", "ok", "errors", "timeouts",
    "shed_queue", "shed_cost", "shed_connections", "cancelled",
    "dp_runs",
)
# Per-outcome latency classes of the v2 `latency` object, and the fields
# each class object must carry (docs/OBSERVABILITY.md).
SERVICE_LATENCY_CLASSES = ("hit", "miss", "cancelled", "shed", "error")
SERVICE_LATENCY_FIELDS = ("count", "window_count", "mean_us",
                          "p50_us", "p95_us", "p99_us", "buckets")

# Batch aggregate instruments the runtime engine always records.
REQUIRED_BATCH_HISTOGRAMS = (
    "batch.net_wall_ms",
    "batch.queue_wait_ms",
    "batch.pool_occupancy",
)
REQUIRED_BATCH_VALUES = ("batch.nets", "batch.errors", "batch.jobs")

# Every phase timer an `msn_cli optimize --stats` run must carry.
REQUIRED_MSRI_TIMERS = (
    "msri.leaf",
    "msri.augment",
    "msri.join",
    "msri.repeater",
    "msri.root",
    "msri.total",
)
TIMER_FIELDS = ("calls", "total_ms", "mean_us")
HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "mean", "buckets")


class SchemaError(Exception):
    pass


def _number(value, where):
    # JSON null encodes a non-finite double (see stats.cc JsonNumber).
    if value is not None and not isinstance(value, numbers.Real):
        raise SchemaError(f"{where}: expected number or null, got {value!r}")


def _check_run(doc, where="run"):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: not a JSON object")
    if doc.get("schema") != RUN_SCHEMA:
        raise SchemaError(f"{where}: schema is {doc.get('schema')!r},"
                          f" wanted {RUN_SCHEMA!r}")
    for section in ("labels", "values", "counters", "timers", "histograms"):
        if not isinstance(doc.get(section), dict):
            raise SchemaError(f"{where}: missing object section {section!r}")
    for name, v in doc["labels"].items():
        if not isinstance(v, str):
            raise SchemaError(f"{where}: label {name!r} is not a string")
    for name, v in doc["values"].items():
        _number(v, f"{where}: value {name!r}")
    for name, v in doc["counters"].items():
        if not isinstance(v, int) or v < 0:
            raise SchemaError(f"{where}: counter {name!r} is not a"
                              " non-negative integer")
    for name, t in doc["timers"].items():
        if not isinstance(t, dict) or set(t) != set(TIMER_FIELDS):
            raise SchemaError(f"{where}: timer {name!r} must have exactly"
                              f" fields {TIMER_FIELDS}")
        if not isinstance(t["calls"], int) or t["calls"] < 0:
            raise SchemaError(f"{where}: timer {name!r} calls invalid")
        _number(t["total_ms"], f"{where}: timer {name!r} total_ms")
        _number(t["mean_us"], f"{where}: timer {name!r} mean_us")
    # Structural invariants of the DP pruning counters, checked whenever a
    # registry carries them (optimize runs, batch aggregates, bench
    # trajectories).  Predictive skips are tests the (cost, cap) sort
    # decided without running — each has a mirror test that did run, so
    # skips can never exceed comparisons; region tests are the comparisons
    # that passed the scalar prefilter; a prune (full or partial) needs a
    # region test; early-join prunes drop a subset of the visited
    # cross-product pairs.
    counters = doc["counters"]
    pruned = None
    if "mfs.region_tests" in counters:
        pruned = (counters.get("mfs.pruned_full", 0)
                  + counters.get("mfs.pruned_partial", 0))
    for small, small_value, big in (
            ("mfs.predictive_skipped", counters.get("mfs.predictive_skipped"),
             "mfs.comparisons"),
            ("mfs.region_tests", counters.get("mfs.region_tests"),
             "mfs.comparisons"),
            ("mfs.pruned_full + mfs.pruned_partial", pruned,
             "mfs.region_tests"),
            ("msri.join_pruned_early", counters.get("msri.join_pruned_early"),
             "msri.join_candidates")):
        if small_value is not None and small_value > counters.get(big, 0):
            raise SchemaError(f"{where}: counter {small!r}"
                              f" ({small_value}) exceeds {big!r}"
                              f" ({counters.get(big, 0)})")
    # Every MFS call is both timed (the mfs.time phase) and counted
    # (MsriStats), also on cancelled runs and merged worker registries.
    mfs_time = doc["timers"].get("mfs.time")
    if mfs_time is not None and "mfs.calls" in counters:
        if mfs_time["calls"] != counters["mfs.calls"]:
            raise SchemaError(f"{where}: timer 'mfs.time' calls"
                              f" ({mfs_time['calls']}) differ from counter"
                              f" 'mfs.calls' ({counters['mfs.calls']})")
    for name, h in doc["histograms"].items():
        if not isinstance(h, dict) or set(h) != set(HISTOGRAM_FIELDS):
            raise SchemaError(f"{where}: histogram {name!r} must have exactly"
                              f" fields {HISTOGRAM_FIELDS}")
        for field in ("sum", "min", "max", "mean"):
            _number(h[field], f"{where}: histogram {name!r} {field}")
        if not isinstance(h["count"], int) or h["count"] < 0:
            raise SchemaError(f"{where}: histogram {name!r} count invalid")
        for pair in h["buckets"]:
            if (not isinstance(pair, list) or len(pair) != 2
                    or not isinstance(pair[1], int)):
                raise SchemaError(f"{where}: histogram {name!r} buckets must"
                                  " be [bound, count] pairs")


def _check_optimize_run(doc, where):
    """Extra requirements for msn_cli optimize output (full pipeline)."""
    _check_run(doc, where)
    timers = doc["timers"]
    # Driver sizing alone inserts no repeaters: its msri.repeater timer is
    # registered but never fires.  Repeater and joint runs must fire it.
    inserts_repeaters = (doc["labels"].get("mode", "repeaters")
                         in ("repeaters", "joint"))
    for name in REQUIRED_MSRI_TIMERS:
        if name not in timers:
            raise SchemaError(f"{where}: missing DP phase timer {name!r}")
        if name == "msri.repeater" and not inserts_repeaters:
            continue
        if timers[name]["calls"] < 1:
            raise SchemaError(f"{where}: phase timer {name!r} never fired")
    if "mfs.prune_rate" not in doc["values"]:
        raise SchemaError(f"{where}: missing value 'mfs.prune_rate'")
    for name in ("mfs.candidates_in", "mfs.candidates_out",
                 "mfs.region_tests"):
        if name not in doc["counters"]:
            raise SchemaError(f"{where}: missing counter {name!r}")
    segments = [name for name in doc["histograms"]
                if name.startswith("pwl.") and name.endswith(".segments")]
    if not segments:
        raise SchemaError(f"{where}: no pwl.*.segments histograms")


def _check_bench(doc, where):
    """msn-bench-stats-v1: bench name plus a list of run registries.
    Returns the run count so merged-doc callers can total it."""
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        raise SchemaError(f"{where}: bench trajectory missing 'bench'")
    runs = doc.get("runs")
    if not isinstance(runs, list):
        raise SchemaError(f"{where}: bench trajectory missing 'runs' list")
    for i, run in enumerate(runs):
        _check_run(run, f"{where} runs[{i}]")
    return len(runs)


def _check_batch(doc, path):
    """msn-batch-stats-v1: batch header, per-net entries, aggregate."""
    if not isinstance(doc.get("jobs"), int) or doc["jobs"] < 1:
        raise SchemaError(f"{path}: batch 'jobs' must be a positive int")
    nets = doc.get("nets")
    if not isinstance(nets, list):
        raise SchemaError(f"{path}: batch missing 'nets' list")
    for i, net in enumerate(nets):
        where = f"{path} nets[{i}]"
        if not isinstance(net, dict):
            raise SchemaError(f"{where}: not a JSON object")
        if not isinstance(net.get("name"), str) or not net["name"]:
            raise SchemaError(f"{where}: missing 'name'")
        if not isinstance(net.get("ok"), bool):
            raise SchemaError(f"{where}: missing boolean 'ok'")
        if not net["ok"] and not isinstance(net.get("error"), str):
            raise SchemaError(f"{where}: failed net missing 'error'")
        for field in ("wall_ms", "queue_wait_ms"):
            _number(net.get(field), f"{where}: {field}")
        if not isinstance(net.get("pool_occupancy"), int):
            raise SchemaError(f"{where}: missing int 'pool_occupancy'")
        if net["ok"] and not isinstance(net.get("pareto_points"), int):
            raise SchemaError(f"{where}: ok net missing 'pareto_points'")
        if "stats" in net:
            _check_run(net["stats"], f"{where} stats")
    agg = doc.get("aggregate")
    _check_run(agg, f"{path} aggregate")
    for name in REQUIRED_BATCH_HISTOGRAMS:
        if name not in agg["histograms"]:
            raise SchemaError(f"{path}: aggregate missing histogram"
                              f" {name!r}")
    for name in REQUIRED_BATCH_VALUES:
        if name not in agg["values"]:
            raise SchemaError(f"{path}: aggregate missing value {name!r}")
    return f"{path}: ok ({BATCH_SCHEMA}, {len(nets)} nets)"


def _check_latency(latency, req, path):
    """The v2 `latency` object: per-class sliding-window histograms.

    Checks structural shape, quantile monotonicity (p50 <= p95 <= p99,
    all non-negative), window counts bounded by cumulative counts, and
    the class counts against the request counters they mirror (classes
    record strictly after their counter increments, so a live snapshot
    may lag but never lead).
    """
    if not isinstance(latency, dict):
        raise SchemaError(f"{path}: missing object section 'latency'")
    if set(latency) != set(SERVICE_LATENCY_CLASSES):
        raise SchemaError(f"{path}: latency classes must be exactly"
                          f" {SERVICE_LATENCY_CLASSES}, got"
                          f" {tuple(sorted(latency))}")
    for cls, h in latency.items():
        where = f"{path}: latency.{cls}"
        if not isinstance(h, dict) or set(h) != set(SERVICE_LATENCY_FIELDS):
            raise SchemaError(f"{where} must have exactly fields"
                              f" {SERVICE_LATENCY_FIELDS}")
        for field in ("count", "window_count"):
            if not isinstance(h[field], int) or h[field] < 0:
                raise SchemaError(f"{where}.{field} must be a non-negative"
                                  " integer")
        if h["window_count"] > h["count"]:
            raise SchemaError(f"{where}: window_count {h['window_count']}"
                              f" exceeds cumulative count {h['count']}")
        for field in ("mean_us", "p50_us", "p95_us", "p99_us"):
            _number(h[field], f"{where}.{field}")
            if h[field] is None:
                raise SchemaError(f"{where}.{field} is non-finite")
            if h[field] < 0:
                raise SchemaError(f"{where}.{field} is negative")
        if not (h["p50_us"] <= h["p95_us"] <= h["p99_us"]):
            raise SchemaError(f"{where}: quantiles not monotone"
                              f" (p50 {h['p50_us']}, p95 {h['p95_us']},"
                              f" p99 {h['p99_us']})")
        if h["count"] > 0 and h["p99_us"] <= 0:
            raise SchemaError(f"{where}: nonzero count with zero p99")
        bucket_total = 0
        for pair in h["buckets"]:
            if (not isinstance(pair, list) or len(pair) != 2
                    or not isinstance(pair[1], int) or pair[1] < 0):
                raise SchemaError(f"{where}.buckets must be [bound, count]"
                                  " pairs")
            bucket_total += pair[1]
        if bucket_total != h["count"]:
            raise SchemaError(f"{where}: bucket counts sum to {bucket_total}"
                              f" but count is {h['count']}")
    # Class counts against the counters they mirror.
    checks = (
        ("hit+miss", latency["hit"]["count"] + latency["miss"]["count"],
         req["ok"]),
        ("cancelled", latency["cancelled"]["count"], req["cancelled"]),
        ("shed", latency["shed"]["count"],
         req["shed_queue"] + req["shed_cost"]),
        ("error", latency["error"]["count"],
         req["errors"] + req["timeouts"]),
    )
    for name, recorded, counter in checks:
        if recorded > counter:
            raise SchemaError(f"{path}: latency class {name} recorded"
                              f" {recorded} > counter {counter}")


def _check_service(doc, path):
    """msn-service-stats-v2: jobs, cache + request counters, latency
    histograms, registry."""
    if not isinstance(doc.get("jobs"), int) or doc["jobs"] < 1:
        raise SchemaError(f"{path}: service 'jobs' must be a positive int")
    for section, required in (("cache", REQUIRED_SERVICE_CACHE),
                              ("requests", REQUIRED_SERVICE_REQUESTS)):
        obj = doc.get(section)
        if not isinstance(obj, dict):
            raise SchemaError(f"{path}: missing object section {section!r}")
        for name in required:
            v = obj.get(name)
            if not isinstance(v, int) or v < 0:
                raise SchemaError(f"{path}: {section}.{name} must be a"
                                  " non-negative integer")
    cache = doc["cache"]
    if cache["entries"] > cache["max_entries"]:
        raise SchemaError(f"{path}: cache over entry budget"
                          f" ({cache['entries']} > {cache['max_entries']})")
    if cache["segment_enabled"] not in (0, 1):
        raise SchemaError(f"{path}: cache.segment_enabled must be 0 or 1")
    if cache["segment_enabled"]:
        # live + dead never exceed the file (the header is neither).
        if (cache["segment_live_bytes"] + cache["segment_dead_bytes"]
                > cache["segment_bytes"]):
            raise SchemaError(
                f"{path}: segment byte accounting inconsistent"
                f" (live {cache['segment_live_bytes']} + dead"
                f" {cache['segment_dead_bytes']} >"
                f" {cache['segment_bytes']})")
    else:
        for name in REQUIRED_SERVICE_CACHE:
            if name.startswith("segment_") and cache[name] != 0:
                raise SchemaError(f"{path}: cache.{name} nonzero while"
                                  " persistence is disabled")
    # Request lifecycle accounting (docs/SERVICE.md): every received
    # request resolves at most one way.  shed_connections is excluded —
    # a refused connection never contributes a received request line.
    req = doc["requests"]
    resolved = (req["ok"] + req["errors"] + req["timeouts"] +
                req["shed_queue"] + req["shed_cost"] + req["cancelled"])
    if resolved > req["received"]:
        raise SchemaError(
            f"{path}: request accounting inconsistent ({resolved}"
            f" resolved > {req['received']} received)")
    if req["dp_runs"] > req["received"]:
        raise SchemaError(
            f"{path}: dp_runs {req['dp_runs']} exceeds received"
            f" {req['received']}")
    _check_latency(doc.get("latency"), req, path)
    _check_run(doc.get("registry"), f"{path} registry")
    return (f"{path}: ok ({SERVICE_SCHEMA},"
            f" {doc['requests']['received']} requests)")


# Per-iteration counters of the closure stats document
# (docs/STA.md; emitted by src/sta/closure.cc WriteClosureStatsJson).
STA_ITERATION_COUNTERS = (
    "failing_endpoints", "failing_nets", "nets_examined",
    "nets_optimized", "cache_hits", "cache_misses", "dp_runs",
)
STA_CACHE_FIELDS = ("hits", "misses", "insertions", "evictions",
                    "collisions", "entries", "bytes")


def _check_sta(doc, path):
    """msn-sta-stats-v1: closure iterations, cache totals, slack
    histogram, registry.

    Beyond shape, this asserts the closure loop's contracts: the
    per-iteration worst slack is monotone non-decreasing (the loop only
    ever lowers net delays), DP runs are bounded by cache misses (every
    DP run was a miss first), the document totals equal the per-iteration
    sums, the cache object's hit/miss counters mirror them (lookups
    happen nowhere else), and the slack histogram partitions every
    endpoint exactly once under strictly increasing bucket bounds.
    """
    for name in ("nets", "endpoints"):
        if not isinstance(doc.get(name), int) or doc[name] < 0:
            raise SchemaError(f"{path}: {name!r} must be a non-negative int")
    for name in ("jobs", "max_iters"):
        if not isinstance(doc.get(name), int) or doc[name] < 1:
            raise SchemaError(f"{path}: {name!r} must be a positive int")
    if not isinstance(doc.get("design"), str):
        raise SchemaError(f"{path}: missing string 'design'")
    for name in ("converged", "timing_met"):
        if not isinstance(doc.get(name), bool):
            raise SchemaError(f"{path}: missing boolean {name!r}")
    _number(doc.get("final_worst_slack_ps"), f"{path}: final_worst_slack_ps")

    iterations = doc.get("iterations")
    if not isinstance(iterations, list) or not iterations:
        raise SchemaError(f"{path}: 'iterations' must be a non-empty list")
    if len(iterations) > doc["max_iters"]:
        raise SchemaError(f"{path}: {len(iterations)} iterations recorded"
                          f" with max_iters {doc['max_iters']}")
    prev_slack = None
    sums = dict.fromkeys(("cache_hits", "cache_misses", "dp_runs"), 0)
    for i, it in enumerate(iterations):
        where = f"{path} iterations[{i}]"
        if not isinstance(it, dict):
            raise SchemaError(f"{where}: not a JSON object")
        _number(it.get("worst_slack_ps"), f"{where}: worst_slack_ps")
        for name in STA_ITERATION_COUNTERS:
            if not isinstance(it.get(name), int) or it[name] < 0:
                raise SchemaError(f"{where}: {name!r} must be a"
                                  " non-negative integer")
        if it["dp_runs"] > it["cache_misses"]:
            raise SchemaError(f"{where}: dp_runs {it['dp_runs']} exceeds"
                              f" cache_misses {it['cache_misses']}")
        if it["nets_optimized"] > it["nets_examined"]:
            raise SchemaError(f"{where}: nets_optimized exceeds"
                              " nets_examined")
        if it["nets_examined"] > doc["nets"]:
            raise SchemaError(f"{where}: nets_examined exceeds design"
                              f" net count {doc['nets']}")
        if it["failing_endpoints"] > doc["endpoints"]:
            raise SchemaError(f"{where}: failing_endpoints exceeds"
                              f" endpoint count {doc['endpoints']}")
        for name in sums:
            sums[name] += it[name]
        slack = it["worst_slack_ps"]
        if slack is not None and prev_slack is not None:
            if slack < prev_slack:
                raise SchemaError(
                    f"{where}: worst slack regressed"
                    f" ({prev_slack} -> {slack}); the closure loop only"
                    " ever lowers net delays")
        if slack is not None:
            prev_slack = slack
    for name, total_name in (("cache_hits", "total_cache_hits"),
                             ("cache_misses", "total_cache_misses"),
                             ("dp_runs", "total_dp_runs")):
        total = doc.get(total_name)
        if not isinstance(total, int) or total != sums[name]:
            raise SchemaError(f"{path}: {total_name} is {total!r} but the"
                              f" iterations sum to {sums[name]}")

    cache = doc.get("cache")
    if not isinstance(cache, dict):
        raise SchemaError(f"{path}: missing object section 'cache'")
    for name in STA_CACHE_FIELDS:
        if not isinstance(cache.get(name), int) or cache[name] < 0:
            raise SchemaError(f"{path}: cache.{name} must be a"
                              " non-negative integer")
    for name in ("hits", "misses"):
        if cache[name] != sums[f"cache_{name}"]:
            raise SchemaError(f"{path}: cache.{name} {cache[name]} does not"
                              f" mirror the iteration total"
                              f" {sums[f'cache_{name}']}")

    hist = doc.get("slack_histogram")
    if not isinstance(hist, list):
        raise SchemaError(f"{path}: missing list 'slack_histogram'")
    if not hist and doc["endpoints"] > 0:
        raise SchemaError(f"{path}: empty slack_histogram with"
                          f" {doc['endpoints']} endpoints")
    prev_bound = None
    total = 0
    for pair in hist:
        if (not isinstance(pair, list) or len(pair) != 2
                or not isinstance(pair[1], int) or pair[1] < 0):
            raise SchemaError(f"{path}: slack_histogram must be"
                              " [bound, count] pairs")
        _number(pair[0], f"{path}: slack_histogram bound")
        if pair[0] is None:
            raise SchemaError(f"{path}: non-finite slack_histogram bound")
        if prev_bound is not None and pair[0] <= prev_bound:
            raise SchemaError(f"{path}: slack_histogram bounds not strictly"
                              f" increasing ({prev_bound} -> {pair[0]})")
        prev_bound = pair[0]
        total += pair[1]
    if total != doc["endpoints"]:
        raise SchemaError(f"{path}: slack_histogram counts sum to {total}"
                          f" but the design has {doc['endpoints']}"
                          " endpoints")

    _check_run(doc.get("registry"), f"{path} registry")
    return (f"{path}: ok ({STA_SCHEMA}, {len(iterations)} iterations,"
            f" {doc['nets']} nets)")


def check_file(path, strict_optimize=False):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, dict) and doc.get("schema") == BATCH_SCHEMA:
        return _check_batch(doc, path)
    if isinstance(doc, dict) and doc.get("schema") == SERVICE_SCHEMA:
        return _check_service(doc, path)
    if isinstance(doc, dict) and doc.get("schema") == STA_SCHEMA:
        return _check_sta(doc, path)
    if isinstance(doc, dict) and doc.get("schema") == BENCH_SCHEMA:
        n = _check_bench(doc, path)
        return f"{path}: ok ({BENCH_SCHEMA}, {n} runs)"
    if isinstance(doc, dict) and doc.get("schema") == MERGED_BENCH_SCHEMA:
        benches = doc.get("benches")
        if not isinstance(benches, list) or not benches:
            raise SchemaError(f"{path}: merged doc missing 'benches' list")
        total = 0
        for i, bench in enumerate(benches):
            if not isinstance(bench, dict) \
                    or bench.get("schema") != BENCH_SCHEMA:
                raise SchemaError(f"{path} benches[{i}]: schema is"
                                  f" {bench.get('schema')!r},"
                                  f" wanted {BENCH_SCHEMA!r}")
            total += _check_bench(bench, f"{path} benches[{i}]")
        return (f"{path}: ok ({MERGED_BENCH_SCHEMA},"
                f" {len(benches)} benches, {total} runs)")
    if strict_optimize:
        _check_optimize_run(doc, path)
    else:
        _check_run(doc, path)
    return f"{path}: ok ({RUN_SCHEMA})"


def main(argv):
    strict = "--optimize" in argv
    paths = [a for a in argv[1:] if a != "--optimize"]
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    for path in paths:
        try:
            print(check_file(path, strict_optimize=strict))
        except (OSError, json.JSONDecodeError, SchemaError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
