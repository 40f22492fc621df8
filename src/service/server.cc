#include "service/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <istream>
#include <list>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <fstream>

#include "common/check.h"
#include "core/msri.h"
#include "io/netfile.h"
#include "service/fdbuf.h"
#include "service/json.h"

namespace msn::service {
namespace {

/// Renders one frontier point as a [cost, ard_ps, num_repeaters] triple,
/// or no point as null.
void AppendPoint(std::string* out, const TradeoffSummary* p) {
  if (p == nullptr) {
    out->append("null");
    return;
  }
  out->append("[")
      .append(obs::JsonNumber(p->cost))
      .append(",")
      .append(obs::JsonNumber(p->ard_ps))
      .append(",")
      .append(std::to_string(p->num_repeaters))
      .append("]");
}

/// The optional leading `"id":<json>,` fragment echoed into every
/// response.  String and number ids are supported; anything else (or no
/// id at all) yields an empty fragment.
std::string IdField(const JsonValue& request) {
  const JsonValue* id = request.Find("id");
  if (id == nullptr) return "";
  if (id->IsString()) {
    return "\"id\":\"" + obs::JsonEscape(id->AsString()) + "\",";
  }
  if (id->IsNumber()) {
    return "\"id\":" + obs::JsonNumber(id->AsNumber()) + ",";
  }
  return "";
}

/// The `"trace_id":"<16 hex>",` fragment every response line carries.
std::string TraceIdField(std::uint64_t trace_id) {
  return "\"trace_id\":\"" + obs::TraceIdHex(trace_id) + "\",";
}

/// TCP writes go through send(MSG_NOSIGNAL) so a response landing on a
/// connection the client already closed yields EPIPE (a failed write the
/// serve loop turns into cancellation) instead of a process-killing
/// SIGPIPE.
ssize_t SendNoSignal(int fd, const void* buf, std::size_t n) {
  return ::send(fd, buf, n, MSG_NOSIGNAL);
}

}  // namespace

bool TransientAcceptError(int err) {
  if (err == EWOULDBLOCK) return true;
  switch (err) {
    case EAGAIN:         // listener briefly out of completed connections
    case EMFILE:         // process fd table full
    case ENFILE:         // system fd table full
    case ECONNABORTED:   // peer gave up while queued — not our failure
    case ENOBUFS:
    case ENOMEM:
    case EPROTO:         // protocol hiccup on the aborted connection
    case EPERM:          // firewall rejected the peer
      return true;
    default:
      return false;
  }
}

std::chrono::milliseconds AcceptBackoffDelay(
    std::size_t consecutive_failures) {
  if (consecutive_failures == 0) return std::chrono::milliseconds(0);
  const std::size_t shift = std::min<std::size_t>(consecutive_failures - 1, 6);
  return std::chrono::milliseconds(
      std::min<std::int64_t>(std::int64_t{2} << shift, 100));
}

void Server::CostModel::Observe(std::size_t nodes, std::uint64_t solutions) {
  if (nodes == 0) return;
  const double ratio = static_cast<double>(solutions) /
                       (static_cast<double>(nodes) * static_cast<double>(nodes));
  const std::lock_guard<std::mutex> lock(mu_);
  ratio_sum_ += ratio;
  ++samples_;
}

double Server::CostModel::Estimate(std::size_t nodes) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (samples_ == 0) return 0.0;
  return (ratio_sum_ / static_cast<double>(samples_)) *
         (static_cast<double>(nodes) * static_cast<double>(nodes));
}

Server::Server(const Technology& tech, const ServerOptions& options)
    : tech_(tech),
      options_(options),
      cache_(options.cache, options.persist),
      pool_(std::max<std::size_t>(1, options.jobs)) {
  tech_.Validate();
}

std::string Server::ErrorResponse(const std::string& id_field,
                                  const std::string& message,
                                  bool timeout) {
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    if (timeout) {
      ++counters_.timeouts;
    } else {
      ++counters_.errors;
    }
  }
  std::string out = "{" + id_field + "\"ok\":false";
  if (timeout) out += ",\"timeout\":true";
  out += ",\"error\":\"" + obs::JsonEscape(message) + "\"}";
  return out;
}

std::string Server::OverloadedResponse(const std::string& id_field,
                                       const std::string& message,
                                       bool cost_shed) {
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    if (cost_shed) {
      ++counters_.shed_cost;
    } else {
      ++counters_.shed_queue;
    }
  }
  return "{" + id_field + "\"ok\":false,\"overloaded\":true,\"error\":\"" +
         obs::JsonEscape(message) + "\"}";
}

std::string Server::CancelledResponse(const std::string& id_field,
                                      const std::string& message) {
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.cancelled;
  }
  return "{" + id_field + "\"ok\":false,\"cancelled\":true,\"error\":\"" +
         obs::JsonEscape(message) + "\"}";
}

bool Server::SampleTrace() {
  if (options_.trace_dir.empty()) return false;
  const std::uint64_t n =
      std::max<std::uint64_t>(1, options_.trace_sample);
  return trace_seq_.fetch_add(1, std::memory_order_relaxed) % n == 0;
}

void Server::ExportTrace(const obs::Trace& trace) {
  const std::string path =
      options_.trace_dir + "/trace-" + trace.TraceIdString() + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) return;  // Tracing is best-effort; never fails a request.
  trace.WriteChromeTrace(out);
  out << '\n';
}

void Server::RecordLatency(
    LatencyClass cls, std::chrono::steady_clock::time_point received_at) {
  const auto now = std::chrono::steady_clock::now();
  if (received_at == std::chrono::steady_clock::time_point{}) {
    received_at = now;
  }
  const double us =
      std::chrono::duration<double, std::micro>(now - received_at).count();
  const std::lock_guard<std::mutex> lock(stats_mu_);
  latency_[cls].Record(us, now);
}

std::string Server::HandleOptimize(const JsonValue& request,
                                   const std::string& prefix,
                                   const RequestContext& rctx) {
  // Sampled requests record spans into a request-owned, thread-confined
  // buffer (the DP runs inline on this thread; parallel workers trace
  // nothing) and export it after the response is built.  Non-sampled
  // requests carry a null trace: every span site costs one pointer
  // compare, per the obs zero-overhead contract.
  std::optional<obs::Trace> trace_storage;
  if (rctx.traced) trace_storage.emplace(rctx.trace_id);
  obs::Trace* trace =
      trace_storage.has_value() ? &*trace_storage : nullptr;
  if (trace != nullptr &&
      rctx.received_at != std::chrono::steady_clock::time_point{}) {
    trace->RecordSpan("server.queue", rctx.received_at,
                      std::chrono::steady_clock::now());
  }
  LatencyClass outcome = kLatencyError;
  std::string response;
  {
    const obs::ScopedSpan span(trace, "server.request");
    response = RunOptimize(request, prefix, rctx, trace, &outcome);
  }
  RecordLatency(outcome, rctx.received_at);
  if (trace != nullptr) ExportTrace(*trace);
  return response;
}

std::string Server::RunOptimize(const JsonValue& request,
                                const std::string& id_field,
                                const RequestContext& rctx,
                                obs::Trace* trace, LatencyClass* outcome) {
  *outcome = kLatencyError;
  try {
    const JsonValue* net = request.Find("net");
    if (net == nullptr || !net->IsString()) {
      return ErrorResponse(id_field, "optimize requires a string 'net'",
                           false);
    }
    const RcTree tree = [&] {
      const obs::ScopedSpan parse_span(trace, "server.parse_net");
      return ReadNet(net->AsString());
    }();

    // Mode resolution mirrors `msn_cli optimize --mode`.
    std::string mode = "repeaters";
    if (const JsonValue* m = request.Find("mode"); m != nullptr) {
      if (!m->IsString()) {
        return ErrorResponse(id_field, "'mode' must be a string", false);
      }
      mode = m->AsString();
    }
    MsriOptions opt;
    if (mode == "sizing" || mode == "joint") {
      opt.size_drivers = true;
      opt.sizing_library = DriverSizingLibrary(tech_, {1.0, 2.0, 3.0, 4.0});
      opt.insert_repeaters = mode == "joint";
    } else if (mode != "repeaters") {
      return ErrorResponse(id_field, "unknown mode '" + mode + "'", false);
    }

    std::optional<double> spec;
    if (const JsonValue* s = request.Find("spec_ps"); s != nullptr) {
      if (!s->IsNumber()) {
        return ErrorResponse(id_field, "'spec_ps' must be a number", false);
      }
      spec = s->AsNumber();
    }

    const CanonicalRequest canon = [&] {
      const obs::ScopedSpan canon_span(trace, "server.canonicalize");
      return Canonicalize(tree, tech_, opt);
    }();
    const std::pair<std::uint64_t, std::uint64_t> key{canon.fingerprint.hi,
                                                      canon.fingerprint.lo};
    std::optional<MsriSummary> summary;
    bool ran_dp = false;
    for (;;) {
      const std::uint64_t done_before =
          inflight_done_.load(std::memory_order_acquire);
      {
        const obs::ScopedSpan lookup_span(trace, "cache.lookup");
        summary = cache_.Lookup(canon);
      }
      if (summary.has_value()) {
        // A hit is free to serve but still a calibration point: warmed
        // summaries carry the solutions_generated of the run that
        // produced them, so a restarted server regains its cost model
        // without re-running anything.
        cost_model_.Observe(tree.NumNodes(), summary->solutions_generated);
        break;
      }
      {
        std::unique_lock<std::mutex> lock(inflight_mu_);
        if (inflight_.count(key) > 0) {
          // An identical request is mid-DP on another thread: coalesce —
          // wait for its insert, then retry the lookup.  The owner never
          // waits, so every waiter is blocked on running work and this
          // cannot deadlock.  The wait is bounded so a waiter notices
          // its own cancellation (deadline, disconnect) even while the
          // owner keeps running for someone else.
          {
            const obs::ScopedSpan wait_span(trace, "cache.coalesce.wait");
            inflight_cv_.wait_for(lock, std::chrono::milliseconds(20));
          }
          lock.unlock();
          rctx.cancel.Check();
          continue;
        }
        // An identical request may have finished between the lookup and
        // this lock (its insert precedes its erase): look again.
        if (inflight_done_.load(std::memory_order_relaxed) != done_before) {
          continue;
        }
        // This thread will run the DP.  Shed first: once the cost model
        // is calibrated, a miss whose predicted work exceeds the budget
        // is refused before it touches the pool.  Hits never shed.
        if (options_.max_estimated_solutions > 0.0) {
          const obs::ScopedSpan gate_span(trace, "server.admission");
          const double est = cost_model_.Estimate(tree.NumNodes());
          if (est > options_.max_estimated_solutions) {
            std::ostringstream msg;
            msg << "estimated cost " << static_cast<std::uint64_t>(est)
                << " solutions exceeds budget "
                << static_cast<std::uint64_t>(
                       options_.max_estimated_solutions);
            *outcome = kLatencyShed;
            return OverloadedResponse(id_field, msg.str(), true);
          }
        }
        inflight_.insert(key);
      }
      try {
        // Thread-confined per-request registry, merged under the stats
        // mutex after the DP — the obs single-threaded contract holds.
        obs::RunStats run;
        obs::StatsSink sink(&run);
        opt.stats = &sink;
        opt.trace = trace;
        opt.cancel = rctx.cancel;
        try {
          const obs::ScopedSpan dp_span(trace, "dp.run");
          const MsriResult result = RunMsri(tree, tech_, opt);
          summary = Summarize(result);
        } catch (const CancelledError&) {
          // The phase timers recorded up to the abandon point are valid
          // work done; merge them exactly once.  No dp_runs increment —
          // that counter means "completed DP executions".
          const std::lock_guard<std::mutex> lock(stats_mu_);
          aggregate_.MergeFrom(run);
          throw;
        }
        {
          const obs::ScopedSpan insert_span(trace, "cache.insert");
          cache_.Insert(canon, *summary);
        }
        cost_model_.Observe(tree.NumNodes(), summary->solutions_generated);
        ran_dp = true;
        const std::lock_guard<std::mutex> lock(stats_mu_);
        aggregate_.MergeFrom(run);
        ++counters_.dp_runs;
      } catch (...) {
        const std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_.erase(key);
        inflight_cv_.notify_all();
        throw;
      }
      {
        const std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_.erase(key);
        inflight_done_.fetch_add(1, std::memory_order_release);
        inflight_cv_.notify_all();
      }
      break;
    }

    // The payload is a pure function of the request: no timing, no
    // hit/miss marker — a cached answer is byte-identical to the first.
    std::string response;
    {
      const obs::ScopedSpan respond_span(trace, "server.respond");
      response.append("{")
          .append(id_field)
          .append("\"ok\":true,\"fingerprint\":\"")
          .append(canon.fingerprint.Hex())
          .append("\",\"pareto_points\":")
          .append(std::to_string(summary->pareto.size()))
          .append(",\"pareto\":[");
      for (std::size_t i = 0; i < summary->pareto.size(); ++i) {
        if (i > 0) response.append(",");
        AppendPoint(&response, &summary->pareto[i]);
      }
      response.append("],\"min_cost\":");
      AppendPoint(&response, summary->MinCost());
      response.append(",\"min_ard\":");
      AppendPoint(&response, summary->MinArd());
      if (spec.has_value()) {
        response.append(",\"spec_ps\":")
            .append(obs::JsonNumber(*spec))
            .append(",\"pick\":");
        AppendPoint(&response, summary->MinCostFeasible(*spec));
      }
      response.append("}");
    }
    {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.ok;
    }
    *outcome = ran_dp ? kLatencyMiss : kLatencyHit;
    return response;
  } catch (const CancelledError&) {
    const bool conn_gone =
        rctx.conn != nullptr && rctx.conn->CancelRequested();
    *outcome = kLatencyCancelled;
    return CancelledResponse(id_field, conn_gone
                                           ? "cancelled: connection closed"
                                           : "cancelled: deadline exceeded"
                                             " mid-run");
  } catch (const std::exception& e) {
    // Containment: a malformed net or throwing DP answers this request
    // only; the loop and every other in-flight request are unaffected.
    return ErrorResponse(id_field, e.what(), false);
  }
}

std::string Server::HandleCommand(const std::string& cmd,
                                  const std::string& prefix) {
  if (cmd == "stats") {
    // Live snapshot: no in-flight drain, no segment sync — the answer
    // reflects the server mid-flight.  The lifecycle inequality still
    // holds at any instant (`received` increments before any resolution
    // counter, and latency class counts lag their counters), so
    // mid-storm snapshots are schema-valid; segment_* counters may lag
    // the write-behind thread.
    std::ostringstream os;
    WriteStatsJson(os);
    {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.ok;
    }
    return "{" + prefix + os.str().substr(1);
  }
  return ErrorResponse(prefix, "unknown cmd '" + cmd + "'", false);
}

std::string Server::Dispatch(const std::string& line, bool* shutdown,
                             std::uint64_t trace_id) {
  if (trace_id == 0) trace_id = obs::NewTraceId();
  const std::string trace_field = TraceIdField(trace_id);
  JsonValue request;
  std::string id_field;
  try {
    request = JsonValue::Parse(line);
    id_field = IdField(request) + trace_field;
  } catch (const std::exception& e) {
    return ErrorResponse(trace_field, e.what(), false);
  }
  const JsonValue* op = request.Find("op");
  if (op == nullptr || !op->IsString()) {
    if (const JsonValue* cmd = request.Find("cmd");
        op == nullptr && cmd != nullptr && cmd->IsString()) {
      return HandleCommand(cmd->AsString(), id_field);
    }
    return ErrorResponse(id_field, "request requires a string 'op'", false);
  }
  const std::string& name = op->AsString();
  if (name == "optimize") {
    RequestContext rctx;
    rctx.trace_id = trace_id;
    rctx.traced = SampleTrace();
    rctx.received_at = std::chrono::steady_clock::now();
    return HandleOptimize(request, id_field, rctx);
  }
  if (name == "stats") {
    // Settle the write-behind segment first so segment_* counters (and
    // the on-disk state they describe) reflect every prior insert.
    cache_.Sync();
    std::ostringstream os;
    WriteStatsJson(os);
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.ok;
    return "{" + id_field + os.str().substr(1);
  }
  if (name == "flush") {
    cache_.Flush();
    {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.ok;
    }
    return "{" + id_field + "\"ok\":true,\"flushed\":true}";
  }
  if (name == "shutdown") {
    if (shutdown != nullptr) *shutdown = true;
    {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.ok;
    }
    return "{" + id_field + "\"ok\":true,\"shutdown\":true}";
  }
  return ErrorResponse(id_field, "unknown op '" + name + "'", false);
}

std::string Server::HandleLine(const std::string& line) {
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.received;
  }
  bool shutdown = false;
  return Dispatch(line, &shutdown);
}

bool Server::Serve(std::istream& in, std::ostream& out) {
  return ServeLoop(in, out, /*conn_cancel=*/nullptr);
}

bool Server::ServeLoop(std::istream& in, std::ostream& out,
                       CancellationSource* conn_cancel) {
  std::mutex out_mu;
  const auto write_line = [&out, &out_mu, conn_cancel](
                              const std::string& line) {
    const std::lock_guard<std::mutex> lock(out_mu);
    out << line << '\n';
    out.flush();
    // A dead peer cannot receive further answers; stop computing them.
    if (!out.good() && conn_cancel != nullptr) conn_cancel->Cancel();
  };
  const CancellationToken conn_token =
      conn_cancel != nullptr ? conn_cancel->Token() : CancellationToken();

  runtime::TaskGroup group(&pool_);
  bool shutdown = false;
  std::string line;
  while (!shutdown && std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    {
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.received;
    }
    const auto received_at = std::chrono::steady_clock::now();
    const std::uint64_t trace_id = obs::NewTraceId();
    const std::string trace_field = TraceIdField(trace_id);
    JsonValue request;
    std::string id_field;
    try {
      request = JsonValue::Parse(line);
      id_field = IdField(request) + trace_field;
    } catch (const std::exception& e) {
      write_line(ErrorResponse(trace_field, e.what(), false));
      continue;
    }
    const JsonValue* op = request.Find("op");
    if (op == nullptr || !op->IsString()) {
      if (const JsonValue* cmd = request.Find("cmd");
          op == nullptr && cmd != nullptr && cmd->IsString()) {
        // Control verbs answer inline, before the barrier below — that
        // is the point: a live stats snapshot mid-storm.
        write_line(HandleCommand(cmd->AsString(), id_field));
        continue;
      }
      write_line(
          ErrorResponse(id_field, "request requires a string 'op'", false));
      continue;
    }
    if (op->AsString() == "optimize") {
      // Per-request deadline: an explicit deadline_ms wins, else the
      // server default; absent/<=0 with no explicit field means none.
      bool has_deadline = options_.default_deadline_ms > 0.0;
      double deadline_ms = options_.default_deadline_ms;
      if (const JsonValue* d = request.Find("deadline_ms"); d != nullptr) {
        if (!d->IsNumber() || d->AsNumber() < 0.0) {
          write_line(ErrorResponse(
              id_field, "'deadline_ms' must be a non-negative number",
              false));
          continue;
        }
        has_deadline = true;
        deadline_ms = d->AsNumber();
      }
      // Backlog gate: refuse work the pool is already drowning in.
      if (options_.max_queue_depth > 0 &&
          queue_depth_.load(std::memory_order_relaxed) >=
              options_.max_queue_depth) {
        write_line(OverloadedResponse(
            id_field, "queue depth limit reached", /*cost_shed=*/false));
        RecordLatency(kLatencyShed, received_at);
        continue;
      }
      queue_depth_.fetch_add(1, std::memory_order_relaxed);

      RequestContext rctx;
      rctx.conn = conn_cancel;
      rctx.trace_id = trace_id;
      rctx.traced = SampleTrace();
      rctx.received_at = received_at;
      std::chrono::steady_clock::time_point deadline;
      if (has_deadline) {
        deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(deadline_ms));
        // The deadline token: its source lives only long enough to mint
        // the token (the shared state persists; nobody Cancel()s a
        // deadline explicitly).
        rctx.cancel = CancellationToken::Merged(
            conn_token, CancellationSource(deadline).Token());
      } else {
        rctx.cancel = conn_token;
      }

      auto run = [this, write_line, request = std::move(request), id_field,
                  rctx] {
        write_line(HandleOptimize(request, id_field, rctx));
        queue_depth_.fetch_sub(1, std::memory_order_relaxed);
      };
      if (has_deadline) {
        group.Run(std::move(run), deadline,
                  [this, write_line, id_field, received_at] {
                    write_line(ErrorResponse(
                        id_field, "deadline exceeded before start", true));
                    RecordLatency(kLatencyError, received_at);
                    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
                  });
      } else {
        group.Run(std::move(run));
      }
      continue;
    }
    // stats / flush / shutdown / unknown are barriers: drain in-flight
    // optimizes so their answers reflect a settled state.
    group.Wait();
    write_line(Dispatch(line, &shutdown, trace_id));
  }
  // A TCP client that vanished (EOF without shutdown, or a failed
  // write) has no use for in-flight answers: cancel them so the drain
  // barrier below is bounded by cancellation latency, not DP runtime.
  // The stdin path (conn_cancel == nullptr) always drains to completion
  // — a pipeline must not lose responses.
  if (!shutdown && conn_cancel != nullptr) conn_cancel->Cancel();
  group.Wait();
  return shutdown;
}

int Server::ServeTcp(std::uint16_t port, std::ostream& log) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    log << "service: socket: " << std::strerror(errno) << '\n';
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 64) != 0) {
    log << "service: bind/listen 127.0.0.1:" << port << ": "
        << std::strerror(errno) << '\n';
    ::close(listener);
    return 1;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  bound_port_.store(ntohs(bound.sin_port), std::memory_order_release);
  log << "service: listening on 127.0.0.1:" << ntohs(bound.sin_port)
      << '\n';
  log.flush();

  // One serve thread per live connection over this shared Server.  The
  // serve thread half-closes its write side when done and flags `done`;
  // only this (accept) thread closes connection fds — after joining —
  // so a fd is never closed while another thread might still use it.
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::list<Connection> connections;
  std::atomic<bool> shutdown_requested{false};
  std::atomic<std::size_t> live{0};

  const auto reap_finished = [&connections] {
    for (auto it = connections.begin(); it != connections.end();) {
      if (it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        ::close(it->fd);
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  };

  int rc = -1;
  std::size_t accept_failures = 0;
  while (rc < 0) {
    const int conn = options_.accept_fn != nullptr
                         ? options_.accept_fn(listener)
                         : ::accept(listener, nullptr, nullptr);
    if (shutdown_requested.load(std::memory_order_acquire)) {
      // A serve thread saw the shutdown op and woke us by shutting the
      // listener down.  In the tiny window where a connection still got
      // through, it arrived after shutdown: close it unserved.
      if (conn >= 0) ::close(conn);
      rc = 0;
      break;
    }
    if (conn < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      if (TransientAcceptError(err)) {
        // Resource pressure (EMFILE et al.): retry with exponential
        // backoff instead of spinning hot — finishing connections are
        // what frees the resource, so yield to them.
        ++accept_failures;
        log << "service: accept: " << std::strerror(err)
            << " (transient; backing off)\n";
        log.flush();
        std::this_thread::sleep_for(AcceptBackoffDelay(accept_failures));
        reap_finished();
        continue;
      }
      log << "service: accept: " << std::strerror(err) << '\n';
      rc = 1;
      break;
    }
    accept_failures = 0;
    reap_finished();
    if (live.load(std::memory_order_acquire) >= options_.max_connections) {
      // At capacity: one structured refusal, then close.  The client
      // sees `overloaded` rather than an unexplained hangup.
      {
        const std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.shed_connections;
      }
      const std::string refusal =
          "{\"ok\":false,\"overloaded\":true,"
          "\"error\":\"server at connection capacity\"}\n";
      WriteFully(conn, refusal.data(), refusal.size(), &SendNoSignal);
      ::close(conn);
      continue;
    }
    live.fetch_add(1, std::memory_order_acq_rel);
    connections.emplace_back();
    Connection& slot = connections.back();
    slot.fd = conn;
    slot.done = std::make_shared<std::atomic<bool>>(false);
    slot.thread = std::thread([this, conn, listener, done = slot.done,
                               &shutdown_requested, &live] {
      FdStreamBuf buf(conn, /*read_fn=*/nullptr, &SendNoSignal);
      std::istream conn_in(&buf);
      std::ostream conn_out(&buf);
      CancellationSource conn_cancel;
      const bool shutdown = ServeLoop(conn_in, conn_out, &conn_cancel);
      conn_out.flush();
      // Half-close: the client gets EOF after its last response while
      // the fd itself stays valid until the accept thread reaps it.
      ::shutdown(conn, SHUT_WR);
      if (shutdown) {
        shutdown_requested.store(true, std::memory_order_release);
        // Wake the accept thread out of its blocking accept.
        ::shutdown(listener, SHUT_RDWR);
      }
      live.fetch_sub(1, std::memory_order_acq_rel);
      done->store(true, std::memory_order_release);
    });
  }

  // Drain: stop feeding the still-live connections (SHUT_RD EOFs their
  // next read; their ServeLoops cancel in-flight work, answer, and
  // exit), then join every serve thread and close every fd.  Nothing
  // leaks on either exit path.
  for (Connection& c : connections) {
    if (!c.done->load(std::memory_order_acquire)) {
      ::shutdown(c.fd, SHUT_RD);
    }
  }
  for (Connection& c : connections) {
    c.thread.join();
    ::close(c.fd);
  }
  connections.clear();
  ::close(listener);
  return rc;
}

void Server::WriteStatsJson(std::ostream& os) const {
  static constexpr const char* kClassNames[kNumLatencyClasses] = {
      "hit", "miss", "cancelled", "shed", "error"};
  obs::RunStats registry;
  RequestCounters counters;
  std::ostringstream latency;
  {
    // The latency classes are read in the same critical section as the
    // counters they mirror: a request bumps its counter before it records
    // its latency, so one snapshot never shows a class above its counter.
    // The quantiles are evaluated at one shared `now`, so the classes are
    // mutually consistent.
    const auto now = std::chrono::steady_clock::now();
    const std::lock_guard<std::mutex> lock(stats_mu_);
    registry.MergeFrom(aggregate_);
    counters = counters_;
    for (std::size_t i = 0; i < kNumLatencyClasses; ++i) {
      if (i > 0) latency << ',';
      latency << '"' << kClassNames[i] << "\":";
      latency_[i].WriteJson(latency, now);
    }
  }
  cache_.ExportStats(&registry);
  const CacheStats cache = cache_.Snapshot();
  const SegmentStats segment = cache_.Segment();
  os << "{\"schema\":\"msn-service-stats-v2\",\"jobs\":"
     << pool_.NumThreads() << ",\"cache\":{\"shards\":"
     << cache_.NumShards() << ",\"entries\":" << cache.entries
     << ",\"bytes\":" << cache.bytes << ",\"max_entries\":"
     << cache_.Config().max_entries << ",\"max_bytes\":"
     << cache_.Config().max_bytes << ",\"hits\":" << cache.hits
     << ",\"misses\":" << cache.misses << ",\"evictions\":"
     << cache.evictions << ",\"insertions\":" << cache.insertions
     << ",\"collisions\":" << cache.collisions << ",\"flushes\":"
     << cache.flushes << ",\"segment_enabled\":"
     << (segment.enabled ? 1 : 0) << ",\"segment_bytes\":"
     << segment.file_bytes << ",\"segment_live_bytes\":"
     << segment.live_bytes << ",\"segment_dead_bytes\":"
     << segment.dead_bytes << ",\"segment_appends\":" << segment.appends
     << ",\"segment_append_errors\":" << segment.append_errors
     << ",\"segment_replayed\":" << segment.replayed
     << ",\"segment_skipped\":" << segment.skipped
     << ",\"segment_truncations\":" << segment.truncations
     << ",\"segment_header_resets\":" << segment.header_resets
     << ",\"segment_compactions\":" << segment.compactions
     << "},\"requests\":{\"received\":"
     << counters.received << ",\"ok\":" << counters.ok << ",\"errors\":"
     << counters.errors << ",\"timeouts\":" << counters.timeouts
     << ",\"shed_queue\":" << counters.shed_queue
     << ",\"shed_cost\":" << counters.shed_cost
     << ",\"shed_connections\":" << counters.shed_connections
     << ",\"cancelled\":" << counters.cancelled
     << ",\"dp_runs\":" << counters.dp_runs << "},\"latency\":{"
     << latency.str() << "},\"registry\":" << registry.JsonString() << '}';
}

}  // namespace msn::service
