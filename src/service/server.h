// Long-running optimization service: a request/response engine layered
// on the runtime thread pool with a canonical-fingerprint solution cache
// (docs/SERVICE.md).
//
// Protocol: line-delimited JSON, one request per line, one response per
// line.  Ops:
//   {"op":"optimize","id":"r1","net":"<.msn text>","mode":"repeaters",
//    "spec_ps":950,"deadline_ms":50}
//   {"op":"stats"}     -> msn-service-stats-v2 document
//   {"op":"flush"}     -> drops every cache entry (and, with
//                         persistence on, durably truncates the segment)
//   {"op":"shutdown"}  -> drains in-flight work and stops the loop
//   {"cmd":"stats"}    -> the same stats document, live: answered
//                         immediately, no in-flight drain barrier and no
//                         segment sync, so a storm can be observed
//                         mid-flight (segment_* counters may lag the
//                         write-behind thread)
//
// Contracts:
//   * Error containment: a malformed line, unknown op, bad net, or
//     throwing DP yields a structured {"ok":false,"error":...} response;
//     nothing kills the loop.
//   * Determinism per request: the optimize response payload is a pure
//     function of the request except for the `trace_id` field (a fresh
//     request-unique id on every line; no other timing or cache-state
//     markers), so an identical request answered from cache is
//     byte-identical to the first answer once `trace_id` is stripped.
//     Whether it WAS cached is visible only through the stats op (hit
//     counters, DP invocation counters).
//   * Observability: every response line carries a `trace_id` (16 hex
//     chars) so client logs join server-side traces.  With tracing on
//     (ServerOptions::trace_dir), sampled optimize requests write a
//     Chrome trace-event JSON file (`trace-<id>.json`) of nested
//     server -> cache -> DP-phase spans; per-outcome sliding-window
//     latency histograms feed the stats document's `latency` object.
//   * Ordering: optimize requests fan out onto the pool and respond as
//     they complete (match responses by id); stats/flush/shutdown are
//     barriers — they drain that connection's in-flight optimizes first,
//     so their answers are deterministic.
//   * Concurrency: ServeTcp serves up to `max_connections` connections
//     at once, each on its own thread over this one shared Server (one
//     pool, one cache, one stats registry).  A connection beyond the
//     bound is answered with a single `overloaded` line and closed.  A
//     shutdown op stops the accept loop and drains every connection:
//     their in-flight requests are cancelled (answered `cancelled`),
//     their streams close, and every serve thread is joined before
//     ServeTcp returns — no leaked threads or fds.
//   * Request lifecycle: a request line is *received*, then either
//     *shed* (queue depth or estimated cost over budget -> `overloaded`
//     response, nothing runs), *admitted* to the pool, and finally
//     either *served* (ok / error / pre-start timeout) or *cancelled*
//     mid-flight (deadline expiry or its connection going away).
//   * Deadlines: a request whose deadline passes before it starts is
//     answered {"ok":false,"timeout":true,...} without running.  Once
//     started, the DP polls a cancellation token: a deadline expiring
//     mid-run (or the client disconnecting) abandons the run in bounded
//     time with {"ok":false,"cancelled":true,...}.  Other in-flight
//     requests are untouched either way.
#ifndef MSN_SERVICE_SERVER_H
#define MSN_SERVICE_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "common/cancel.h"
#include "obs/latency.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "service/cache.h"
#include "service/fdbuf.h"
#include "service/persist.h"
#include "tech/tech.h"

namespace msn::service {

/// Classifies an `accept(2)` errno: transient failures (EMFILE and
/// friends — the process or system ran out of a resource that pressure
/// relief will return) deserve a backoff-and-retry; anything else is a
/// programming or socket-layer error the loop must surface.
bool TransientAcceptError(int err);

/// Exponential accept backoff: 2ms doubling per consecutive failure,
/// capped at 100ms, so a stuck EMFILE condition costs retries per
/// second, not a spinning core.  Zero failures -> zero delay.
std::chrono::milliseconds AcceptBackoffDelay(std::size_t consecutive_failures);

struct ServerOptions {
  /// Pool threads serving optimize requests (>= 1).
  std::size_t jobs = 1;
  CacheConfig cache;
  /// On-disk cache persistence; `persist.dir` empty keeps the cache
  /// memory-only (docs/SERVICE.md "Persistence & recovery").
  PersistConfig persist;
  /// Applied to optimize requests that carry no deadline_ms of their
  /// own; <= 0 means no deadline.
  double default_deadline_ms = 0.0;
  /// Concurrent TCP connections served at once; a connection arriving
  /// beyond the bound receives one `overloaded` line and is closed.
  std::size_t max_connections = 32;
  /// Load shedding by backlog: optimize requests received while this
  /// many are already admitted-but-unfinished are answered `overloaded`
  /// without running.  0 disables the gate.
  std::size_t max_queue_depth = 1024;
  /// Load shedding by predicted cost: once the cost model is calibrated
  /// (see Server::CostModel), a cache-missing request whose estimated
  /// `msri.solutions_generated` exceeds this is answered `overloaded`
  /// instead of burning pool time.  Cache hits are always served.
  /// 0 disables the gate.
  double max_estimated_solutions = 0.0;
  /// Injectable accept(2) for fault testing (src/service/fdbuf.h
  /// discipline); null uses the real ::accept.
  FdAcceptFn accept_fn = nullptr;
  /// Request-scoped tracing (docs/OBSERVABILITY.md "Tracing"): when
  /// non-empty, sampled optimize requests record nested spans and write
  /// one Chrome trace-event JSON file (`trace-<trace_id>.json`) into
  /// this directory.  The directory must exist.  Empty (the default)
  /// disables tracing — the hot path then costs one null-pointer
  /// compare per would-be span.
  std::string trace_dir;
  /// Sampling knob: trace 1 in N optimize requests (1 = every request).
  /// Keeps tracing safe under storm load; non-sampled requests still
  /// carry a `trace_id` in their response line.
  std::size_t trace_sample = 1;
};

class Server {
 public:
  Server(const Technology& tech, const ServerOptions& options);

  /// Processes one request line synchronously and returns the response
  /// line (without trailing newline).  Never throws on bad input — the
  /// response carries the error.  Deadlines and the queue-depth gate do
  /// not apply on this path (there is no queue to wait in; the serve
  /// loop enforces both), but the per-request cost gate does.  Safe to
  /// call from many threads at once.
  std::string HandleLine(const std::string& line);

  /// The serve loop: reads request lines from `in` until EOF or a
  /// shutdown op, writing one response line per request to `out`
  /// (completion order; match by id).  Returns true when stopped by
  /// shutdown, false on EOF.  EOF drains in-flight requests to
  /// completion (stdin pipelines must not lose answers); the TCP path
  /// layers disconnect-cancellation on top via ServeTcp.
  bool Serve(std::istream& in, std::ostream& out);

  /// The TCP front: accepts loopback connections on `port` (0 lets the
  /// kernel pick; the choice is logged to `log` and readable via
  /// BoundPort), serving up to `max_connections` concurrently, one
  /// thread per connection over this shared Server.  Transient accept
  /// failures back off exponentially (AcceptBackoffDelay); fatal ones
  /// return 1.  Returns 0 after a shutdown op drains every connection.
  int ServeTcp(std::uint16_t port, std::ostream& log);

  /// The listening port once ServeTcp has bound it (0 before that).
  /// Readable from other threads — tests use it instead of log parsing.
  std::uint16_t BoundPort() const {
    return bound_port_.load(std::memory_order_acquire);
  }

  /// The msn-service-stats-v2 document: service counters, cache
  /// snapshot, per-outcome latency histograms, and the merged
  /// per-request DP registry.
  void WriteStatsJson(std::ostream& os) const;

  const SolutionCache& Cache() const { return cache_.Memory(); }
  const PersistentCache& Persistence() const { return cache_; }

 private:
  struct RequestCounters {
    std::uint64_t received = 0;
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t shed_queue = 0;        ///< Overloaded: backlog bound.
    std::uint64_t shed_cost = 0;         ///< Overloaded: cost estimate.
    std::uint64_t shed_connections = 0;  ///< Connections turned away.
    std::uint64_t cancelled = 0;         ///< Abandoned mid-flight.
    std::uint64_t dp_runs = 0;
  };

  /// Predicts a request's DP cost from its node count before running
  /// it.  Li & Shi's O(bn^2) bound (PAPERS.md) makes solutions/node^2 a
  /// stable per-workload ratio; the model keeps a running mean of that
  /// ratio over every outcome it sees — fresh DP runs and cache hits
  /// alike, so a warm restart (persisted summaries carry their
  /// solutions_generated) recalibrates without re-running anything.
  /// Uncalibrated (no samples) it estimates 0, i.e. sheds nothing.
  class CostModel {
   public:
    void Observe(std::size_t nodes, std::uint64_t solutions);
    double Estimate(std::size_t nodes) const;

   private:
    mutable std::mutex mu_;
    double ratio_sum_ = 0.0;
    std::uint64_t samples_ = 0;
  };

  /// Per-outcome latency classes of the stats document's `latency`
  /// object.  `hit` is an ok answer served without running the DP on
  /// this thread (cache hits and coalesced waiters); `miss` paid for
  /// its own DP run; `shed` covers both admission gates; `error`
  /// covers errors and timeouts.
  enum LatencyClass : std::size_t {
    kLatencyHit = 0,
    kLatencyMiss,
    kLatencyCancelled,
    kLatencyShed,
    kLatencyError,
    kNumLatencyClasses,
  };

  /// Cancellation scope of one optimize request: the merged token the
  /// DP polls, plus the connection source for post-hoc wording (was it
  /// the deadline or the peer going away?), plus the request's trace
  /// identity and receive time for tracing/latency accounting.
  struct RequestContext {
    CancellationToken cancel;
    const CancellationSource* conn = nullptr;
    std::uint64_t trace_id = 0;
    /// Sampled for span recording and trace-file export.
    bool traced = false;
    /// When the request line was read; default (epoch) means "now".
    std::chrono::steady_clock::time_point received_at{};
  };

  std::string Dispatch(const std::string& line, bool* shutdown,
                       std::uint64_t trace_id = 0);
  /// The `{"cmd":...}` control verbs (currently just "stats").
  std::string HandleCommand(const std::string& cmd,
                            const std::string& prefix);
  /// Outcome accounting + tracing wrapper around RunOptimize.
  std::string HandleOptimize(const class JsonValue& request,
                             const std::string& prefix,
                             const RequestContext& rctx);
  std::string RunOptimize(const class JsonValue& request,
                          const std::string& prefix,
                          const RequestContext& rctx, obs::Trace* trace,
                          LatencyClass* outcome);
  /// True when this optimize request should record and export a trace.
  bool SampleTrace();
  void ExportTrace(const obs::Trace& trace);
  /// Records one finished request into `latency_[cls]`, measured from
  /// `received_at` (or from now when unset) to now.
  void RecordLatency(LatencyClass cls,
                     std::chrono::steady_clock::time_point received_at);
  std::string ErrorResponse(const std::string& id_field,
                            const std::string& message, bool timeout);
  std::string OverloadedResponse(const std::string& id_field,
                                 const std::string& message, bool cost_shed);
  std::string CancelledResponse(const std::string& id_field,
                                const std::string& message);
  /// Serve with an optional connection cancel scope: when `conn_cancel`
  /// is set (the TCP path), client EOF or a write failure cancels that
  /// connection's in-flight requests before the drain barrier.
  bool ServeLoop(std::istream& in, std::ostream& out,
                 CancellationSource* conn_cancel);

  const Technology tech_;
  const ServerOptions options_;
  PersistentCache cache_;
  runtime::ThreadPool pool_;

  mutable std::mutex stats_mu_;
  obs::RunStats aggregate_;  ///< Merged per-request DP registries.
  RequestCounters counters_;
  /// Per-outcome latency histograms (guarded by stats_mu_, like the
  /// counters whose classes they mirror; counters increment before the
  /// latency record, so class counts never exceed their counters in
  /// any snapshot).
  obs::LatencyHistogram latency_[kNumLatencyClasses];
  /// Optimize requests seen by the trace sampler (1-in-N gate).
  std::atomic<std::uint64_t> trace_seq_{0};

  CostModel cost_model_;
  std::atomic<std::uint16_t> bound_port_{0};
  /// Admitted-but-unfinished optimize requests across all connections
  /// (the load-shedding backlog gauge).
  std::atomic<std::size_t> queue_depth_{0};

  /// In-flight miss coalescing: identical concurrent requests wait for
  /// the first one's insert instead of running the DP in parallel, so
  /// "submit the same net twice" runs the DP exactly once at any --jobs
  /// — including across connections.  Waiters poll their own cancel
  /// token; an owner whose run is cancelled wakes them to elect a new
  /// owner.
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  std::set<std::pair<std::uint64_t, std::uint64_t>> inflight_;
  /// DP runs whose result is in the cache and whose key has left
  /// `inflight_`; bumped under `inflight_mu_` after the insert.  A miss
  /// that finds its key not in flight claims the DP only if no run
  /// finished since its lookup (else that run's insert may be its hit).
  std::atomic<std::uint64_t> inflight_done_{0};
};

}  // namespace msn::service

#endif  // MSN_SERVICE_SERVER_H
