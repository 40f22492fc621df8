#!/usr/bin/env python3
"""Smoke-test `msn_cli serve` end to end over stdin/stdout.

Drives server processes through the full protocol and asserts the
service contracts from docs/SERVICE.md:

  * the same net submitted twice returns byte-identical response lines,
    with the second answered from the cache (cache hits >= 1) and no DP
    re-execution (requests.dp_runs == 1, registry msri.total calls == 1);
  * malformed JSON and unknown ops are contained as {"ok":false,...}
    responses, not crashes;
  * an already-expired deadline yields a structured timeout;
  * flush empties the cache, so a re-submit runs the DP again;
  * shutdown stops the loop with exit code 0;
  * with --cache-dir, a server KILLED without shutdown warms its
    successor from the on-disk segment: the same requests are answered
    byte-identically as cache hits, with zero DP runs;
  * a corrupted segment (bit flip + truncated tail) is recovered from
    cleanly — damaged records are recomputed, never served wrong;
  * with --trace-dir, every sampled optimize writes a Chrome trace-event
    JSON file named after the trace_id echoed in its response line, the
    file validates under trace_view.py --check, and the span tree nests
    server.request -> cache/DP spans down to the msri phases, with
    server.respond (response serialization) directly under
    server.request.

Responses carry a per-request trace_id, unique by design, so identity
checks compare lines with the trace_id stripped (strip_trace).

Usage: serve_smoke.py /path/to/msn_cli [--jobs N]
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile


sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_stats_schema  # noqa: E402  (sibling module)
import serve_stress  # noqa: E402  (sibling module: TCP client/server)
import trace_view  # noqa: E402  (sibling module: trace validation)


def fail(msg):
    print("serve_smoke: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def strip_trace(line_or_doc):
    """Canonical JSON with the (unique-per-request) trace_id removed."""
    doc = (json.loads(line_or_doc) if isinstance(line_or_doc, str)
           else dict(line_or_doc))
    doc.pop("trace_id", None)
    return json.dumps(doc, sort_keys=True)


def stats_doc(lines, rid):
    """Parses the stats response `rid` and schema-checks it."""
    doc = json.loads(by_id(lines, rid)[0])
    try:
        check_stats_schema._check_service(doc, "serve_smoke")
    except check_stats_schema.SchemaError as e:
        fail("stats schema violation: %s" % e)
    return doc


def gen_net(cli, seed):
    fd, net_path = tempfile.mkstemp(suffix=".msn")
    os.close(fd)
    try:
        gen = subprocess.run(
            [cli, "gen", "--terminals", "5", "--seed", str(seed),
             "-o", net_path],
            capture_output=True, text=True, timeout=120)
        if gen.returncode != 0:
            fail("gen exited %d: %s" % (gen.returncode, gen.stderr))
        with open(net_path) as f:
            return f.read()
    finally:
        os.unlink(net_path)


def run_server(cli, jobs, requests, extra_flags=(), kill_after=None):
    """Feeds `requests` line by line; returns the response lines.

    With `kill_after` set, SIGKILLs the server after that many responses
    (no shutdown op, simulating a crash); otherwise waits for a clean
    exit and checks the exit code.
    """
    proc = subprocess.Popen(
        [cli, "serve", "--jobs", jobs, "--cache-entries", "64"] +
        list(extra_flags),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    lines = []
    try:
        for req in requests:
            proc.stdin.write(req + "\n")
            proc.stdin.flush()
        want = kill_after if kill_after is not None else len(requests)
        for _ in range(want):
            line = proc.stdout.readline()
            if not line:
                fail("server closed stdout after %d responses: %s"
                     % (len(lines), proc.stderr.read()))
            lines.append(line.rstrip("\n"))
    finally:
        if kill_after is not None:
            proc.kill()
            proc.wait()
        else:
            proc.stdin.close()
            err = proc.stderr.read()
            if proc.wait() != 0:
                fail("serve exited %d: %s" % (proc.returncode, err))
    return lines


def by_id(lines, rid):
    return [l for l in lines if json.loads(l).get("id") == rid]


def scenario_protocol(cli, jobs):
    """The original protocol walk: caching, containment, flush."""
    net = gen_net(cli, seed=11)
    opt = {"op": "optimize", "id": "r", "net": net, "spec_ps": 1000.0}
    requests = [
        json.dumps(opt),
        json.dumps(opt),
        json.dumps({"op": "stats", "id": "s1"}),
        "this is not json",
        json.dumps({"op": "frobnicate", "id": "u"}),
        json.dumps({"op": "optimize", "id": "t", "net": net,
                    "deadline_ms": 0}),
        json.dumps({"op": "flush", "id": "f"}),
        json.dumps(opt),
        json.dumps({"op": "stats", "id": "s2"}),
        json.dumps({"op": "shutdown", "id": "x"}),
    ]
    lines = run_server(cli, jobs, requests)
    if len(lines) != len(requests):
        fail("expected %d response lines, got %d" %
             (len(requests), len(lines)))

    # Identical duplicate (modulo trace_id) answered from cache, DP ran
    # once.  trace_id itself must be present and fresh per request.
    dup = by_id(lines, "r")[:2]
    if len(dup) != 2 or strip_trace(dup[0]) != strip_trace(dup[1]):
        fail("duplicate optimize responses differ beyond trace_id")
    tids = [json.loads(l).get("trace_id") for l in dup]
    if not all(isinstance(t, str) and len(t) == 16 for t in tids):
        fail("responses missing a 16-hex trace_id: %r" % tids)
    if tids[0] == tids[1]:
        fail("duplicate requests reused trace_id %s" % tids[0])
    if not json.loads(dup[0])["ok"]:
        fail("optimize failed: %s" % dup[0])
    s1 = stats_doc(lines, "s1")
    if s1["cache"]["hits"] < 1:
        fail("second identical request did not hit the cache: %s"
             % s1["cache"])
    if s1["requests"]["dp_runs"] != 1:
        fail("expected exactly 1 DP run, got %d"
             % s1["requests"]["dp_runs"])
    if s1["registry"]["timers"]["msri.total"]["calls"] != 1:
        fail("registry reports %d msri.total calls, expected 1"
             % s1["registry"]["timers"]["msri.total"]["calls"])
    if s1["cache"]["segment_enabled"] != 0:
        fail("persistence reported enabled without --cache-dir")

    # Containment.
    bad = json.loads(lines[3])
    if bad.get("ok") or "error" not in bad:
        fail("malformed JSON was not contained: %s" % lines[3])
    unk = json.loads(by_id(lines, "u")[0])
    if unk.get("ok") or "unknown op" not in unk["error"]:
        fail("unknown op was not contained: %s" % unk)

    # Structured timeout for an already-expired deadline.
    tmo = json.loads(by_id(lines, "t")[0])
    if tmo.get("ok") or not tmo.get("timeout"):
        fail("deadline_ms=0 did not produce a structured timeout: %s"
             % tmo)

    # Flush forces a second DP run for the re-submitted net.
    s2 = stats_doc(lines, "s2")
    if s2["requests"]["dp_runs"] != 2:
        fail("expected 2 DP runs after flush + resubmit, got %d"
             % s2["requests"]["dp_runs"])
    if s2["cache"]["flushes"] != 1:
        fail("expected 1 flush, got %d" % s2["cache"]["flushes"])
    third = by_id(lines, "r")[2]
    if strip_trace(third) != strip_trace(dup[0]):
        fail("post-flush recompute changed the response payload")
    if s2.get("schema") != "msn-service-stats-v2":
        fail("stats schema is %r" % s2.get("schema"))
    print("serve_smoke: protocol OK (%d responses, hits=%d, dp_runs=%d)"
          % (len(lines), s2["cache"]["hits"], s2["requests"]["dp_runs"]))
    return dup[0]


def persist_requests(nets):
    reqs = [json.dumps({"op": "optimize", "id": "n%d" % i, "net": net,
                        "spec_ps": 1000.0})
            for i, net in enumerate(nets)]
    return reqs + [json.dumps({"op": "stats", "id": "s"})]


def scenario_restart(cli, jobs):
    """Kill a --cache-dir server; its successor must warm from disk."""
    nets = [gen_net(cli, seed=21), gen_net(cli, seed=22)]
    requests = persist_requests(nets)
    cache_dir = tempfile.mkdtemp(prefix="msn_serve_smoke_")
    try:
        flags = ["--cache-dir", cache_dir]
        # First life: populate the cache, confirm the appends settled
        # (the stats op syncs the segment), then die without shutdown.
        first = run_server(cli, jobs, requests, flags,
                           kill_after=len(requests))
        s1 = stats_doc(first, "s")
        if s1["cache"]["segment_enabled"] != 1:
            fail("persistence not enabled under --cache-dir")
        if s1["cache"]["segment_appends"] != len(nets):
            fail("expected %d segment appends, got %d"
                 % (len(nets), s1["cache"]["segment_appends"]))
        if not os.path.exists(os.path.join(cache_dir, "cache.msnseg")):
            fail("no segment file in --cache-dir")

        # Second life: same requests must be cache hits with the exact
        # same bytes, and the DP must never run.
        second = run_server(
            cli, jobs, requests +
            [json.dumps({"op": "shutdown", "id": "x"})], flags)
        s2 = stats_doc(second, "s")
        if s2["cache"]["segment_replayed"] != len(nets):
            fail("expected %d replayed records, got %d"
                 % (len(nets), s2["cache"]["segment_replayed"]))
        if s2["requests"]["dp_runs"] != 0:
            fail("restarted server re-ran the DP %d time(s)"
                 % s2["requests"]["dp_runs"])
        if s2["cache"]["hits"] < len(nets):
            fail("restarted server missed the warmed cache: %s"
                 % s2["cache"])
        for i in range(len(nets)):
            a, b = by_id(first, "n%d" % i)[0], by_id(second, "n%d" % i)[0]
            if strip_trace(a) != strip_trace(b):
                fail("warmed response for net %d differs from the"
                     " original" % i)
        print("serve_smoke: restart OK (replayed=%d, hits=%d, dp_runs=0)"
              % (s2["cache"]["segment_replayed"], s2["cache"]["hits"]))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def scenario_corrupt(cli, jobs):
    """Bit-flip + truncate the segment; recovery must stay correct."""
    nets = [gen_net(cli, seed=31), gen_net(cli, seed=32),
            gen_net(cli, seed=33)]
    requests = persist_requests(nets)
    cache_dir = tempfile.mkdtemp(prefix="msn_serve_smoke_")
    try:
        flags = ["--cache-dir", cache_dir]
        first = run_server(cli, jobs, requests, flags,
                           kill_after=len(requests))
        seg_path = os.path.join(cache_dir, "cache.msnseg")
        with open(seg_path, "rb") as f:
            blob = bytearray(f.read())
        # Flip one bit a third of the way in (mid-record damage) and cut
        # the last 7 bytes (a crash mid-append).
        blob[len(blob) // 3] ^= 0x04
        blob = blob[:-7]
        with open(seg_path, "wb") as f:
            f.write(bytes(blob))

        second = run_server(
            cli, jobs, requests +
            [json.dumps({"op": "shutdown", "id": "x"})], flags)
        s2 = stats_doc(second, "s")
        damage = (s2["cache"]["segment_skipped"] +
                  s2["cache"]["segment_truncations"])
        if damage < 1:
            fail("corruption went unnoticed: %s" % s2["cache"])
        if s2["cache"]["segment_replayed"] >= len(nets):
            fail("replayed %d records from a damaged segment of %d"
                 % (s2["cache"]["segment_replayed"], len(nets)))
        # Every response — warmed or recomputed — must match the
        # original bytes exactly.
        for i in range(len(nets)):
            a, b = by_id(first, "n%d" % i)[0], by_id(second, "n%d" % i)[0]
            if strip_trace(a) != strip_trace(b):
                fail("post-corruption response for net %d differs" % i)
            if not json.loads(b)["ok"]:
                fail("post-corruption optimize failed: %s" % b)
        print("serve_smoke: corrupt-recovery OK (replayed=%d, skipped=%d,"
              " truncations=%d)"
              % (s2["cache"]["segment_replayed"],
                 s2["cache"]["segment_skipped"],
                 s2["cache"]["segment_truncations"]))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def scenario_trace(cli, jobs):
    """--trace-dir: every sampled optimize writes a validating trace."""
    nets = [gen_net(cli, seed=71), gen_net(cli, seed=72)]
    requests = [
        json.dumps({"op": "optimize", "id": "a", "net": nets[0]}),
        json.dumps({"op": "optimize", "id": "b", "net": nets[1]}),
        json.dumps({"op": "optimize", "id": "a2", "net": nets[0]}),
        json.dumps({"op": "shutdown", "id": "x"}),
    ]
    trace_dir = tempfile.mkdtemp(prefix="msn_serve_trace_")
    try:
        lines = run_server(cli, jobs, requests, ["--trace-dir", trace_dir])
        docs = {json.loads(l)["id"]: json.loads(l) for l in lines}
        for rid in ("a", "b", "a2"):
            doc = docs[rid]
            if not doc.get("ok"):
                fail("traced optimize %s failed: %r" % (rid, doc))
            # The trace_id echoed to the client names the trace file.
            path = os.path.join(trace_dir,
                                "trace-%s.json" % doc["trace_id"])
            if not os.path.exists(path):
                fail("no trace file for %s (trace_id %s)"
                     % (rid, doc["trace_id"]))
            try:
                _, events = trace_view.load_trace(path)
            except trace_view.TraceError as e:
                fail("trace for %s is malformed: %s" % (rid, e))
            names = {ev["name"] for ev in events}
            spans = {ev["args"]["span_id"]: ev for ev in events}
            for want in ("server.request", "server.parse_net",
                         "cache.lookup", "server.respond"):
                if want not in names:
                    fail("trace %s missing %s span (got %s)"
                         % (rid, want, sorted(names)))
            # Response serialization is its own span on hits and misses.
            respond = next(ev for ev in events
                           if ev["name"] == "server.respond")
            if (spans[respond["args"]["parent_id"]]["name"]
                    != "server.request"):
                fail("server.respond parent is %r, wanted server.request"
                     % spans[respond["args"]["parent_id"]]["name"])
            if rid == "a2":
                if "dp.run" in names:
                    fail("cache-hit request a2 has a dp.run span")
                continue
            # Cache misses show the full nesting: server.request ->
            # dp.run -> msri.total -> per-phase spans.
            for want in ("dp.run", "msri.total", "msri.leaf",
                         "msri.root"):
                if want not in names:
                    fail("cache-miss trace %s missing %s span (got %s)"
                         % (rid, want, sorted(names)))
            dp = next(ev for ev in events if ev["name"] == "dp.run")
            if spans[dp["args"]["parent_id"]]["name"] != "server.request":
                fail("dp.run parent is %r, wanted server.request"
                     % spans[dp["args"]["parent_id"]]["name"])
            total = next(ev for ev in events
                         if ev["name"] == "msri.total")
            if spans[total["args"]["parent_id"]]["name"] != "dp.run":
                fail("msri.total parent is %r, wanted dp.run"
                     % spans[total["args"]["parent_id"]]["name"])
        # The directory as a whole passes the CI validator.
        if trace_view.main(["trace_view.py", trace_dir, "--check",
                            "--min-traces", "3"]) != 0:
            fail("trace_view --check rejected the trace directory")

        # --trace-sample N keeps every Nth optimize: 4 requests at
        # sample 2 leave exactly 2 trace files.
        sample_dir = tempfile.mkdtemp(prefix="msn_serve_trace_")
        try:
            sampled = [json.dumps({"op": "optimize", "id": "s%d" % i,
                                   "net": nets[i % 2]})
                       for i in range(4)]
            sampled.append(json.dumps({"op": "shutdown", "id": "x"}))
            run_server(cli, jobs, sampled,
                       ["--trace-dir", sample_dir, "--trace-sample", "2"])
            n_files = len(trace_view.trace_files(sample_dir))
            if n_files != 2:
                fail("--trace-sample 2 wrote %d traces for 4 requests"
                     % n_files)
        finally:
            shutil.rmtree(sample_dir, ignore_errors=True)
        print("serve_smoke: trace OK (3 traces validated, sampling"
              " honored)")
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)


def scenario_concurrent(cli, jobs):
    """TCP front under mixed parallel clients (docs/SERVICE.md
    "Concurrency & request lifecycle"): N well-behaved clients submit
    the same net at once (byte-identical answers, one DP run), a
    slow-loris trickles its request without stalling anyone, and a
    mid-response disconnector vanishes after submitting — the server
    keeps serving and still shuts down cleanly with exit code 0.
    """
    import threading

    net = gen_net(cli, seed=51)
    own_nets = [gen_net(cli, seed=60 + c) for c in range(4)]
    server = serve_stress.TcpServer(cli, jobs)
    try:
        payloads = [None] * len(own_nets)

        def normal(c):
            def run():
                with serve_stress.Client(server.port) as conn:
                    conn.send({"op": "optimize", "id": "shared",
                               "net": net})
                    conn.send({"op": "optimize", "id": "own",
                               "net": own_nets[c]})
                    for _ in range(2):
                        resp = conn.recv()
                        if not resp.get("ok"):
                            fail("concurrent optimize failed: %r" % resp)
                        if resp["id"] == "shared":
                            payloads[c] = strip_trace(resp)
            return run

        def loris():
            with serve_stress.Client(server.port) as conn:
                conn.send_slowly({"op": "optimize", "id": "loris",
                                  "net": net})
                if not conn.recv().get("ok"):
                    fail("slow-loris request failed")

        def disconnector():
            conn = serve_stress.Client(server.port)
            conn.send({"op": "optimize", "id": "ghost", "net": net})
            conn.close()  # never reads its response

        threads = [threading.Thread(target=f) for f in
                   [normal(c) for c in range(len(own_nets))] +
                   [loris, disconnector]]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        if any(p is None for p in payloads):
            fail("a concurrent client is missing its shared response")
        if len(set(payloads)) != 1:
            fail("shared net answered %d distinct payloads across"
                 " connections" % len(set(payloads)))

        with serve_stress.Client(server.port) as conn:
            conn.send({"op": "stats", "id": "s"})
            doc = conn.recv()
        try:
            check_stats_schema._check_service(doc, "serve_smoke tcp")
        except check_stats_schema.SchemaError as e:
            fail("tcp stats schema violation: %s" % e)
        if doc["requests"]["dp_runs"] > 1 + len(own_nets):
            fail("coalescing failed under concurrency: %d DP runs for"
                 " %d distinct nets"
                 % (doc["requests"]["dp_runs"], 1 + len(own_nets)))

        code = server.shutdown()
        if code != 0:
            fail("tcp server exited %d after shutdown" % code)
        print("serve_smoke: concurrent OK (%d clients, dp_runs=%d)"
              % (len(own_nets) + 2, doc["requests"]["dp_runs"]))
    finally:
        if server.proc.poll() is None:
            server.kill()


def main():
    if len(sys.argv) < 2:
        fail("usage: serve_smoke.py /path/to/msn_cli [--jobs N]")
    cli = sys.argv[1]
    jobs = "2"
    if "--jobs" in sys.argv:
        jobs = sys.argv[sys.argv.index("--jobs") + 1]
    scenario_protocol(cli, jobs)
    scenario_restart(cli, jobs)
    scenario_corrupt(cli, jobs)
    scenario_trace(cli, jobs)
    scenario_concurrent(cli, jobs)
    print("serve_smoke: OK")


if __name__ == "__main__":
    main()
