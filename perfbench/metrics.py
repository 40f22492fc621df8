"""Statistics, correctness gates and metric derivation for perfbench.

Everything here is a pure function of what msn_perfbench measured (its
JSON report) and of the committed reference digests, so it is unit-tested
on its own (perfbench/test_metrics.py).  perfbench/METRICS.md defines
each metric.
"""

import math
import statistics

# Times are reported at the speed of a host on which the probe
# (ProbeKernels in src/bench_common.cc, both kernels) takes this long: an
# operation's raw time x PROBE_REF_MS / the median time of the probes
# within PROBE_WINDOW probes of the one taken just before it.  The host's
# speed drifts within a run as well as between runs (METRICS.md).
PROBE_REF_MS = 9.0
PROBE_WINDOW = 5

# The tail percentile each workload reports for each operation class, with
# at least MIN_BEYOND samples above it at the sample counts a default run
# collects where a run holds that many (METRICS.md says why each level):
# msri_table4's p75 falls mid-cluster among its ten nets; closure's 20-22
# cold runs leave ten beyond only the median, and their p75 is far
# steadier than their maximum.
MIN_BEYOND = 10
TAIL_LEVELS = {
    ("msri_table4", "primary"): 75,
    ("msri_table4", "secondary"): 75,
    ("serve_mixed", "primary"): 90,
    ("serve_mixed", "secondary"): 90,
    ("closure", "primary"): 80,
    ("closure", "secondary"): 75,
}

WORKLOADS = ("msri_table4", "serve_mixed", "closure")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("primary_p50_ms", "ms"),
    ("primary_tail_ms", "ms"),
    ("secondary_p50_ms", "ms"),
    ("secondary_tail_ms", "ms"),
)


def percentile(values, level):
    """Nearest-rank percentile: the smallest sample with at least `level`
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < level <= 100:
        raise ValueError("percentile level must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(level / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count, level):
    """How many of `count` samples lie above the nearest-rank `level`."""
    return count - max(math.ceil(level / 100.0 * count), 1)


def timing(values, tail_level, inputs=None):
    """Median and tail of one operation class.

    With `inputs` (the input each sample ran on), the median is taken over
    inputs of each input's median sample, so a fixed set of inputs
    repeated in passes gives a median that does not sit on the edge
    between two inputs' clusters.  Returns {"p50", "tail", "tail_level",
    "n", "beyond"}; `beyond` is the number of samples above the tail."""
    if not values:
        raise ValueError("no samples")
    tail = percentile(values, tail_level)
    beyond = samples_beyond(len(values), tail_level)
    if inputs is None:
        median = statistics.median(values)
    else:
        by_input = {}
        for value, key in zip(values, inputs, strict=True):
            by_input.setdefault(key, []).append(value)
        median = statistics.median(statistics.median(v)
                                   for v in by_input.values())
    return {"p50": median, "tail": tail, "tail_level": tail_level,
            "n": len(values), "beyond": beyond}


def rate_per_s(values_ms):
    """Operations per second of busy time, from per-operation ms."""
    total = sum(values_ms)
    if total <= 0:
        raise ValueError("no measured time")
    return len(values_ms) / (total / 1e3)


def digest_mismatches(observed, reference):
    """{key: message} for each observed key whose digest is absent from,
    or differs from, the committed reference."""
    problems = {}
    for key in sorted(observed):
        want = reference.get(key)
        if want is None:
            problems[key] = "%s: no reference digest" % key
        elif want != observed[key]:
            problems[key] = ("%s: digest %s, reference %s"
                             % (key, observed[key], want))
    return problems


def gate(raw, reference):
    """(attempted, failed, messages) for one run.  Failed operations are
    the program's own check failures plus every operation whose output
    digest disagrees with the reference."""
    attempted = int(raw["attempted"])
    mismatched = digest_mismatches(raw["digests"], reference)
    uses = raw.get("digest_uses", {})
    failed = len(raw["errors"]) + sum(uses.get(key, 1) for key in mismatched)
    messages = list(raw["errors"]) + list(mismatched.values())
    return attempted, min(failed, attempted), messages


def error_rate(attempted, failed):
    if attempted < 1:
        raise ValueError("nothing attempted")
    return failed / attempted


# -- End-to-end metrics -----------------------------------------------------

def probe_times(samples, prefix=""):
    """Both kernels' time of each probe in the `prefix` series."""
    return [m + t for m, t in zip(samples.get(prefix + "probe_mem_ms", []),
                                  samples.get(prefix + "probe_text_ms", []))]


def speed_factor(samples, prefix=""):
    """PROBE_REF_MS / the median probe time of the `prefix` series:
    multiply a time by it to express it at the reference host speed."""
    probes = probe_times(samples, prefix)
    if not probes:
        raise ValueError("no probe samples")
    return PROBE_REF_MS / statistics.median(probes)


def scaled(samples, name):
    """The samples of `name` at the reference host speed.  `name`.probe
    holds, per sample, the index of the probe taken just before it; each
    sample is scaled by the median of the probes within PROBE_WINDOW of
    that one."""
    probes = probe_times(samples)
    out = []
    for value, at in zip(samples.get(name, []),
                         samples.get(name + ".probe", []), strict=True):
        at = int(at)
        window = probes[max(at - PROBE_WINDOW, 0):at + PROBE_WINDOW + 1]
        if not window:
            raise ValueError("%s: no probe %d" % (name, at))
        out.append(value * PROBE_REF_MS / statistics.median(window))
    return out


def operations(workload, samples):
    """(ops_per_s, primary ms samples, secondary ms samples) of a run, at
    the reference host speed, except closure's cold runs: the probe
    measures the core of the thread that took it, and a cold run's DP
    runs on three threads, so its time is raw."""
    s = lambda name: scaled(samples, name)
    if workload == "msri_table4":
        return (rate_per_s(s("repeater_ms")), s("repeater_ms"),
                s("sizing_ms"))
    if workload == "serve_mixed":
        hits_ms = [us / 1e3 for us in s("hit_us")]
        return rate_per_s(s("request_ms")), hits_ms, s("miss_ms")
    if workload == "closure":
        cold = samples.get("cold_ms", [])
        return rate_per_s(s("warm_ms") + cold), s("warm_ms"), cold
    raise ValueError("unknown workload %r" % workload)


def end_to_end(workload, raw):
    """{name: (value, unit)} plus the two timing summaries for printing,
    all at the reference host speed."""
    samples = raw["samples"]
    ops, primary, secondary = operations(workload, samples)
    # msri_table4 repeats ten fixed nets; the others' inputs vary.
    nets = workload == "msri_table4"
    p = timing(primary, TAIL_LEVELS[(workload, "primary")],
               samples["repeater_ms.net"] if nets else None)
    q = timing(secondary, TAIL_LEVELS[(workload, "secondary")],
               samples["sizing_ms.net"] if nets else None)
    values = {
        "setup_s": (statistics.median(raw["setup_s"])
                    * speed_factor(samples, "setup.")),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ops_per_s": ops,
        "primary_p50_ms": p["p50"],
        "primary_tail_ms": p["tail"],
        "secondary_p50_ms": q["p50"],
        "secondary_tail_ms": q["tail"],
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}, p, q


# -- Per-layer metrics ------------------------------------------------------

def p50(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def _counter(reg, name):
    return float(reg.get("counters", {}).get(name, 0))


def _timer_ms(reg, name):
    return float(reg.get("timers", {}).get(name, {}).get("total_ms", 0.0))


def _hist_max(reg, name):
    return float(reg.get("histograms", {}).get(name, {}).get("max", 0.0))


def core_layer(reg):
    """Core (MFS / join / PWL) metrics of a msn-run-stats-v1 registry:
    counts are totals over the registry's DP runs, times are ms per run."""
    runs = float(reg.get("timers", {}).get("msri.total", {}).get("calls", 0))
    per_run = lambda ms: ratio(ms, runs)
    comparisons = _counter(reg, "mfs.comparisons")
    skipped = _counter(reg, "mfs.predictive_skipped")
    prunes = _counter(reg, "mfs.pruned_full") + _counter(reg,
                                                         "mfs.pruned_partial")
    pwl = [v.get("max", 0.0) for k, v in reg.get("histograms", {}).items()
           if k.startswith("pwl.") and k.endswith(".segments")]
    return {
        "mfs.ms": per_run(_timer_ms(reg, "mfs.time")),
        "mfs.share": ratio(_timer_ms(reg, "mfs.time"),
                           _timer_ms(reg, "msri.total")),
        "mfs.calls": _counter(reg, "mfs.calls"),
        "mfs.comparisons": comparisons,
        "mfs.predictive_skipped": skipped,
        "mfs.candidates_in": _counter(reg, "mfs.candidates_in"),
        "mfs.candidates_out": _counter(reg, "mfs.candidates_out"),
        "mfs.pruned_full": _counter(reg, "mfs.pruned_full"),
        "mfs.pruned_partial": _counter(reg, "mfs.pruned_partial"),
        "mfs.prune_yield": ratio(prunes, comparisons - skipped),
        "msri.net_ms": per_run(_timer_ms(reg, "msri.total")),
        "msri.join_ms": per_run(_timer_ms(reg, "msri.join")),
        "msri.augment_ms": per_run(_timer_ms(reg, "msri.augment")),
        "msri.repeater_ms": per_run(_timer_ms(reg, "msri.repeater")),
        "msri.leaf_ms": per_run(_timer_ms(reg, "msri.leaf")),
        "msri.root_ms": per_run(_timer_ms(reg, "msri.root")),
        "msri.solutions_generated": _counter(reg, "msri.solutions_generated"),
        "msri.join_candidates": _counter(reg, "msri.join_candidates"),
        "msri.join_pruned_early": _counter(reg, "msri.join_pruned_early"),
        "msri.join_early_reject_ratio": ratio(
            _counter(reg, "msri.join_pruned_early"),
            _counter(reg, "msri.join_candidates")),
        "msri.max_set_size": _hist_max(reg, "msri.set_size"),
        "pwl.max_segments": max(pwl) if pwl else 0.0,
    }


PER_LAYER = (
    # core
    ("mfs.ms", "ms"), ("mfs.share", "ratio"), ("mfs.calls", "count"),
    ("mfs.comparisons", "count"), ("mfs.predictive_skipped", "count"),
    ("mfs.candidates_in", "count"), ("mfs.candidates_out", "count"),
    ("mfs.pruned_full", "count"), ("mfs.pruned_partial", "count"),
    ("mfs.prune_yield", "ratio"),
    ("msri.net_ms", "ms"), ("msri.join_ms", "ms"), ("msri.augment_ms", "ms"),
    ("msri.repeater_ms", "ms"), ("msri.leaf_ms", "ms"),
    ("msri.root_ms", "ms"), ("msri.solutions_generated", "count"),
    ("msri.join_candidates", "count"), ("msri.join_pruned_early", "count"),
    ("msri.join_early_reject_ratio", "ratio"),
    ("msri.max_set_size", "count"), ("pwl.max_segments", "count"),
    ("ard.verify_us_p50", "us"), ("msri.summarize_us_p50", "us"),
    ("sizing.mfs.ms", "ms"), ("sizing.mfs.comparisons", "count"),
    ("sizing.solutions_generated", "count"), ("sizing.net_ms", "ms"),
    # io and service
    ("io.read_net_us_p50", "us"), ("io.read_net_mb_per_s", "MB/s"),
    ("canonical.us_p50", "us"), ("cache.lookup_us_p50", "us"),
    ("cache.insert_us_p50", "us"), ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"), ("server.overhead_us_p50", "us"),
    ("serve.dp_ms_p50", "ms"),
    # service.persist
    ("persist.replay_ms", "ms"), ("persist.replayed_records", "count"),
    ("persist.appends", "count"),
    # runtime
    ("batch.net_wall_ms_p50", "ms"),
    ("batch.net_wall_ms_max", "ms"), ("batch.queue_wait_ms_p50", "ms"),
    ("batch.pool_occupancy_max", "count"),
    ("batch.critical_path_ratio", "ratio"),
    # sta
    ("sta.load_design_ms", "ms"), ("sta.timing_graph_ms", "ms"),
    ("sta.iterations", "count"), ("sta.dp_runs", "count"),
    ("sta.cache_hits", "count"),
    # obs
    ("trace.overhead_ratio", "ratio"),
)


def _msri_layers(raw):
    s, docs = raw["samples"], raw["documents"]
    out = core_layer(docs["repeater_registry"])
    sizing = core_layer(docs["sizing_registry"])
    out.update({
        "ard.verify_us_p50": p50(s.get("ard_verify_us", [])),
        "msri.summarize_us_p50": p50(s.get("summarize_us", [])),
        "sizing.mfs.ms": sizing["mfs.ms"],
        "sizing.mfs.comparisons": sizing["mfs.comparisons"],
        "sizing.solutions_generated": sizing["msri.solutions_generated"],
        "sizing.net_ms": sizing["msri.net_ms"],
        "trace.overhead_ratio": ratio(
            sum(s["repeater_ms"]) + sum(s["sizing_ms"]),
            sum(s["untraced.repeater_ms"]) + sum(s["untraced.sizing_ms"])),
    })
    return out


def _serve_layers(raw):
    s = raw["samples"]
    stats = raw["documents"]["server_stats"]
    out = core_layer(stats["registry"])
    hits = s["hit"]
    misses = [i for i, h in enumerate(hits) if not h]
    parse = s["span.parse_us"]
    # Per hit: the untraced twin request's HandleLine time minus the traced
    # request's parse, canonicalize and lookup spans.
    overhead = [s["untraced.request_ms"][i] * 1e3 - parse[i]
                - s["span.canonicalize_us"][i] - s["span.lookup_us"][i]
                for i, h in enumerate(hits) if h]
    out.update({
        "io.read_net_us_p50": p50(parse),
        "io.read_net_mb_per_s": ratio(sum(s["net_bytes"]) / 1e6,
                                      sum(parse) / 1e6),
        "canonical.us_p50": p50(s["span.canonicalize_us"]),
        "cache.lookup_us_p50": p50(s["span.lookup_us"]),
        "cache.insert_us_p50": p50([s["span.insert_us"][i] for i in misses]),
        "cache.hit_ratio": ratio(sum(hits), len(hits)),
        "cache.evictions": float(stats["cache"]["evictions"]),
        "server.overhead_us_p50": p50(overhead),
        "serve.dp_ms_p50": p50([s["span.dp_us"][i] / 1e3 for i in misses]),
        "trace.overhead_ratio": ratio(sum(s["request_ms"]),
                                      sum(s["untraced.request_ms"])),
    })
    return out


def _closure_layers(raw):
    s, v, docs = raw["samples"], raw["values"], raw["documents"]
    cold, warm = docs["cold_registry"], docs["warm_registry"]
    out = core_layer(cold)
    wall = s["batch.net_wall_ms"]
    out.update({
        "io.read_net_us_p50": p50(s["read_net_us"]),
        "io.read_net_mb_per_s": ratio(sum(s["net_bytes"]) / 1e6,
                                      sum(s["read_net_us"]) / 1e6),
        "canonical.us_p50": p50(s["canonical_us"]),
        "cache.lookup_us_p50": p50(s["lookup_us"]),
        "cache.insert_us_p50": p50(s.get("insert_us", [])),
        "cache.hit_ratio": ratio(_counter(warm, "service.cache.hits"),
                                 _counter(warm, "service.cache.hits")
                                 + _counter(warm, "service.cache.misses")),
        "cache.evictions": _counter(warm, "service.cache.evictions"),
        "persist.replay_ms": v["persist.replay_ms"],
        "persist.replayed_records": _counter(warm, "service.segment.replayed"),
        "persist.appends": _counter(cold, "service.segment.appends"),
        "batch.net_wall_ms_p50": p50(wall),
        "batch.net_wall_ms_max": max(wall) if wall else 0.0,
        "batch.queue_wait_ms_p50": p50(s["batch.queue_wait_ms"]),
        "batch.pool_occupancy_max": max(
            s["batch.pool_occupancy"] + [_hist_max(cold,
                                                   "batch.pool_occupancy")]),
        "batch.critical_path_ratio": ratio(max(wall) if wall else 0.0,
                                           v["batch.wall_ms"]),
        "sta.load_design_ms": p50(s["load_design_ms"]),
        "sta.timing_graph_ms": p50(s["timing_graph_ms"]),
        "sta.iterations": _counter(cold, "sta.iterations"),
        "sta.dp_runs": _counter(cold, "sta.dp_runs"),
        "sta.cache_hits": _counter(warm, "sta.cache_hits"),
        "trace.overhead_ratio": ratio(
            sum(s["cold_ms"]) + sum(s["warm_ms"]),
            sum(s["untraced.cold_ms"]) + sum(s["untraced.warm_ms"])),
    })
    return out


def per_layer(workload, raw):
    """{name: (value, unit)} for every PER_LAYER metric; a layer the
    workload makes no call into reads 0."""
    derive = {"msri_table4": _msri_layers, "serve_mixed": _serve_layers,
              "closure": _closure_layers}[workload]
    values = derive(raw)
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER}
