// Concurrency and fault harness for the optimization service
// (docs/SERVICE.md "Concurrency & request lifecycle").  Runs in the CI
// TSan leg: the assertions here are half the point, the data-race-free
// execution under load is the other half.
//
// Covered contracts:
//   * cooperative cancellation (src/common/cancel.h): token semantics,
//     pre-start / mid-merge / post-completion firing against RunMsri,
//     partial-stats merge without double counting;
//   * a deadline expiring mid-DP answers `cancelled` in bounded time
//     (deliberately oversized net) instead of running to completion;
//   * per-connection TCP serving: >= 8 concurrent clients with mixed
//     normal / duplicate / malformed / deadline / mid-request-disconnect
//     traffic — every request on a surviving connection gets exactly one
//     parseable response, duplicates are byte-identical across
//     connections, and no fd leaks across a full server lifecycle;
//   * bounded connection count (structured `overloaded` refusal) and
//     load shedding by queue depth and by calibrated cost estimate;
//   * accept-loop fault handling: transient errno (EMFILE et al.) backs
//     off instead of spinning or dying, fatal errno stops the loop —
//     driven through the injectable accept fn (src/service/fdbuf.h).
#include "service/server.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "core/msri.h"
#include "io/netfile.h"
#include "netgen/netgen.h"
#include "obs/stats.h"
#include "rctree/rctree.h"
#include "service/fdbuf.h"
#include "service/json.h"
#include "tech/tech.h"
#include "test_util.h"

namespace msn {
namespace {

using service::AcceptBackoffDelay;
using service::JsonValue;
using service::Server;
using service::ServerOptions;
using service::TransientAcceptError;
using testing::SmallTech;

RcTree ExperimentNet(std::uint64_t seed, std::size_t terminals = 5) {
  NetConfig cfg;
  cfg.seed = seed;
  cfg.num_terminals = terminals;
  return BuildExperimentNet(cfg, SmallTech());
}

std::string NetText(const RcTree& tree) {
  std::ostringstream os;
  WriteNet(os, tree);
  return os.str();
}

std::string OptimizeLine(const std::string& id, const std::string& net,
                         double deadline_ms = -1.0) {
  std::ostringstream os;
  os << "{\"op\":\"optimize\",\"id\":\"" << id << "\",\"net\":\""
     << obs::JsonEscape(net) << "\"";
  if (deadline_ms >= 0.0) os << ",\"deadline_ms\":" << deadline_ms;
  os << "}";
  return os.str();
}

/// A net whose DP takes several seconds at full tilt — orders of
/// magnitude past any deadline used here, so "the DP was abandoned" and
/// "the DP ran to completion" are unmistakably different wall times.
/// Removes the per-request `"trace_id":"<16 hex>",` fragment so response
/// lines can be byte-compared (the id is unique per request by design).
std::string StripTraceId(std::string line) {
  const std::string key = "\"trace_id\":\"";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return line;
  line.erase(at, key.size() + 18);
  return line;
}

std::string OversizedNet() {
  static const std::string net = NetText(ExperimentNet(99, 44));
  return net;
}

double StatsNumber(const JsonValue& stats, const char* section,
                   const char* field) {
  return stats.Find(section)->Find(field)->AsNumber();
}

JsonValue ServerStats(Server& server) {
  std::ostringstream os;
  server.WriteStatsJson(os);
  return JsonValue::Parse(os.str());
}

std::size_t OpenFdCount() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

// ---------------------------------------------------------------------
// TCP harness: ServeTcp on its own thread, line-based clients.

struct TcpServer {
  Server server;
  std::thread thread;
  std::ostringstream log;
  int rc = -1;

  TcpServer(const Technology& tech, const ServerOptions& options)
      : server(tech, options) {
    thread = std::thread([this] { rc = server.ServeTcp(0, log); });
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server.BoundPort() == 0) {
      if (std::chrono::steady_clock::now() >= give_up) {
        ADD_FAILURE() << "server never bound: " << log.str();
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ~TcpServer() {
    if (thread.joinable()) thread.join();
  }

  /// Blocks until ServeTcp returned (a shutdown op must be in flight).
  int Join() {
    thread.join();
    return rc;
  }
};

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Line-oriented client over one TCP connection; the same FdStreamBuf
/// the server uses, pointed the other way.
class TcpClient {
 public:
  explicit TcpClient(std::uint16_t port)
      : fd_(ConnectLoopback(port)), buf_(fd_), in_(&buf_), out_(&buf_) {}
  ~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connected() const { return fd_ >= 0; }

  void Send(const std::string& line) {
    out_ << line << '\n';
    out_.flush();
  }

  bool Recv(std::string* line) {
    return static_cast<bool>(std::getline(in_, *line));
  }

  /// Simulates a client dying mid-request: hard close, nothing read.
  void CloseAbruptly() {
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
  service::FdStreamBuf buf_;
  std::istream in_;
  std::ostream out_;
};

// ---------------------------------------------------------------------
// Cancellation token semantics.

TEST(Cancellation, TokenObservesSourceAndDeadline) {
  const CancellationToken never;
  EXPECT_FALSE(never.Valid());
  EXPECT_FALSE(never.Cancelled());
  never.Check();  // must not throw

  CancellationSource source;
  const CancellationToken token = source.Token();
  EXPECT_TRUE(token.Valid());
  EXPECT_FALSE(token.Cancelled());
  source.Cancel();
  EXPECT_TRUE(token.Cancelled());
  EXPECT_THROW(token.Check(), CancelledError);

  const CancellationSource expired(std::chrono::steady_clock::now() -
                                   std::chrono::milliseconds(1));
  EXPECT_TRUE(expired.Token().Cancelled());
  EXPECT_FALSE(expired.CancelRequested());  // clock, not explicit
  const CancellationSource future(std::chrono::steady_clock::now() +
                                  std::chrono::hours(1));
  EXPECT_FALSE(future.Token().Cancelled());

  // A merged token fires when either constituent fires.
  CancellationSource a;
  const CancellationSource b;
  const CancellationToken merged =
      CancellationToken::Merged(a.Token(), b.Token());
  EXPECT_FALSE(merged.Cancelled());
  a.Cancel();
  EXPECT_TRUE(merged.Cancelled());
  EXPECT_FALSE(b.Token().Cancelled());
}

TEST(Cancellation, PreCancelledTokenAbortsBeforeAnyWork) {
  const Technology tech = SmallTech();
  const RcTree tree = ExperimentNet(1, 6);
  CancellationSource source;
  source.Cancel();
  MsriOptions opt;
  opt.cancel = source.Token();
  std::size_t observed = 0;
  opt.set_observer = [&observed](NodeId, const SolutionSet&) {
    ++observed;
  };
  EXPECT_THROW(RunMsri(tree, tech, opt), CancelledError);
  // The very first Solve() poll fired: no node was ever completed.
  EXPECT_EQ(observed, 0u);
}

TEST(Cancellation, MidRunCancelLeavesValidPartialStats) {
  const Technology tech = SmallTech();
  const RcTree tree = ExperimentNet(2, 8);
  obs::RunStats run;
  obs::StatsSink sink(&run);
  CancellationSource source;
  MsriOptions opt;
  opt.stats = &sink;
  opt.cancel = source.Token();
  // Deterministic mid-run trigger: the observer fires as the second
  // node's set completes (set_observer also forces a serial DP), so the
  // next Solve() poll cancels with real partial work behind it.
  std::size_t observed = 0;
  opt.set_observer = [&observed, &source](NodeId, const SolutionSet&) {
    if (++observed == 2) source.Cancel();
  };
  EXPECT_THROW(RunMsri(tree, tech, opt), CancelledError);
  EXPECT_EQ(observed, 2u);  // nothing completed after the cancel

  // The partially recorded registry is schema-valid and consistent: the
  // phase timers that ran were recorded on unwind, exactly once.
  const JsonValue doc = JsonValue::Parse(run.JsonString());
  const JsonValue& timers = *doc.Find("timers");
  EXPECT_DOUBLE_EQ(timers.Find("msri.total")->Find("calls")->AsNumber(),
                   1.0);
  EXPECT_GE(timers.Find("msri.leaf")->Find("calls")->AsNumber(), 1.0);
  // The counters of the work done reach the registry on unwind too, and
  // every MFS call that was timed was also counted.
  const JsonValue& counters = *doc.Find("counters");
  ASSERT_NE(counters.Find("msri.solutions_generated"), nullptr);
  ASSERT_NE(counters.Find("mfs.calls"), nullptr);
  EXPECT_GT(counters.Find("msri.solutions_generated")->AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(timers.Find("mfs.time")->Find("calls")->AsNumber(),
                   counters.Find("mfs.calls")->AsNumber());
}

TEST(Cancellation, CancelAfterCompletionHasNoEffect) {
  const Technology tech = SmallTech();
  const RcTree tree = ExperimentNet(3, 6);
  CancellationSource source;
  MsriOptions opt;
  opt.cancel = source.Token();
  const MsriResult result = RunMsri(tree, tech, opt);
  source.Cancel();  // too late by design: the result is already ours
  EXPECT_GE(result.Pareto().size(), 1u);
  EXPECT_GT(result.Stats().solutions_generated, 0u);
}

// ---------------------------------------------------------------------
// Mid-DP deadline cancellation through the server (acceptance: bounded
// time on an oversized net, partial stats merged exactly once).

TEST(ServerCancellation, DeadlineExpiringMidDpAnswersCancelledInBoundedTime) {
  const Technology tech = SmallTech();
  ServerOptions options;
  options.jobs = 1;
  Server server(tech, options);
  std::istringstream in(OptimizeLine("big", OversizedNet(), 200.0) + "\n" +
                        "{\"op\":\"shutdown\",\"id\":\"x\"}\n");
  std::ostringstream out;
  const auto started = std::chrono::steady_clock::now();
  EXPECT_TRUE(server.Serve(in, out));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();
  // Full-tilt this DP takes several seconds even in a release build; a
  // cancelled run must come back shortly after the 200ms deadline.  The
  // bound is generous for sanitizer builds yet far below the full run.
  EXPECT_LT(elapsed_ms, 4000.0);

  bool saw_cancelled = false;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) {
    if (line.find("\"id\":\"big\"") == std::string::npos) continue;
    saw_cancelled = true;
    const JsonValue v = JsonValue::Parse(line);
    EXPECT_FALSE(v.Find("ok")->AsBool()) << line;
    EXPECT_TRUE(v.Find("cancelled")->AsBool()) << line;
    EXPECT_NE(v.Find("error")->AsString().find("deadline exceeded"),
              std::string::npos)
        << line;
  }
  EXPECT_TRUE(saw_cancelled);

  const JsonValue stats = ServerStats(server);
  EXPECT_DOUBLE_EQ(StatsNumber(stats, "requests", "cancelled"), 1.0);
  EXPECT_DOUBLE_EQ(StatsNumber(stats, "requests", "dp_runs"), 0.0);
  EXPECT_DOUBLE_EQ(StatsNumber(stats, "requests", "timeouts"), 0.0);
}

TEST(ServerCancellation, PartialStatsMergeExactlyOnceAcrossCancelAndRerun) {
  const Technology tech = SmallTech();
  ServerOptions options;
  options.jobs = 1;
  Server server(tech, options);
  // The DP on this net takes ~200 ms in an optimized build (more under
  // Debug or sanitizers), so a 20 ms deadline fires mid-run with a wide
  // margin either way: the request's parse takes well under a
  // millisecond, and the DP would have to get ten times faster to finish
  // first.  The uncancelled rerun still completes in test time.  The
  // stats op between the two is a drain barrier: it forces "cut" to
  // resolve (cancelled, as the sole DP owner) before "full" is even
  // read, so "full" re-runs the DP instead of coalescing with it.
  const std::string net = NetText(ExperimentNet(98, 26));
  std::istringstream in(OptimizeLine("cut", net, 20.0) + "\n" +
                        "{\"op\":\"stats\"}\n" +
                        OptimizeLine("full", net) + "\n" +
                        "{\"op\":\"shutdown\"}\n");
  std::ostringstream out;
  EXPECT_TRUE(server.Serve(in, out));

  bool saw_cut = false;
  bool saw_full = false;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) {
    const JsonValue v = JsonValue::Parse(line);
    if (line.find("\"id\":\"cut\"") != std::string::npos) {
      saw_cut = true;
      ASSERT_NE(v.Find("cancelled"), nullptr) << line;
      EXPECT_TRUE(v.Find("cancelled")->AsBool()) << line;
    }
    if (line.find("\"id\":\"full\"") != std::string::npos) {
      saw_full = true;
      ASSERT_NE(v.Find("ok"), nullptr) << line;
      EXPECT_TRUE(v.Find("ok")->AsBool()) << line;
    }
  }
  EXPECT_TRUE(saw_cut);
  EXPECT_TRUE(saw_full);

  // One cancelled attempt + one completed run: the registry saw exactly
  // two msri.total invocations (the partial one merged once, not zero
  // times, not twice) while dp_runs counts only the completed one.
  const JsonValue stats = ServerStats(server);
  EXPECT_DOUBLE_EQ(StatsNumber(stats, "requests", "cancelled"), 1.0);
  EXPECT_DOUBLE_EQ(StatsNumber(stats, "requests", "dp_runs"), 1.0);
  EXPECT_DOUBLE_EQ(stats.Find("registry")
                       ->Find("timers")
                       ->Find("msri.total")
                       ->Find("calls")
                       ->AsNumber(),
                   2.0);
}

// ---------------------------------------------------------------------
// Accept-loop fault handling (injectable accept fn).

struct EmfileThenServe {
  static std::atomic<int> calls;
  static int conn_fd;

  static int Accept(int listener_fd) {
    const int n = calls.fetch_add(1);
    if (n < 3) {
      errno = EMFILE;
      return -1;
    }
    if (n == 3) return conn_fd;
    // From here on behave like the real thing: block until the serve
    // thread processes the shutdown op and shuts the listener down.
    return ::accept(listener_fd, nullptr, nullptr);
  }
};
std::atomic<int> EmfileThenServe::calls{0};
int EmfileThenServe::conn_fd = -1;

TEST(AcceptBackoff, ClassifiesTransientAndFatalErrnos) {
  EXPECT_TRUE(TransientAcceptError(EMFILE));
  EXPECT_TRUE(TransientAcceptError(ENFILE));
  EXPECT_TRUE(TransientAcceptError(EAGAIN));
  EXPECT_TRUE(TransientAcceptError(ECONNABORTED));
  EXPECT_TRUE(TransientAcceptError(ENOBUFS));
  EXPECT_FALSE(TransientAcceptError(EBADF));
  EXPECT_FALSE(TransientAcceptError(EINVAL));
  EXPECT_FALSE(TransientAcceptError(ENOTSOCK));

  using std::chrono::milliseconds;
  EXPECT_EQ(AcceptBackoffDelay(0), milliseconds(0));
  EXPECT_EQ(AcceptBackoffDelay(1), milliseconds(2));
  EXPECT_EQ(AcceptBackoffDelay(2), milliseconds(4));
  EXPECT_EQ(AcceptBackoffDelay(3), milliseconds(8));
  // Capped, never runaway: a week of failures still polls.
  EXPECT_EQ(AcceptBackoffDelay(50), milliseconds(100));
  EXPECT_EQ(AcceptBackoffDelay(1'000'000), milliseconds(100));
}

TEST(AcceptBackoff, TransientAcceptFailureBacksOffThenServes) {
  const Technology tech = SmallTech();
  int pair[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  // Preload the "connection" with a shutdown request; the response
  // arrives on the same socketpair after the backoff storm clears.
  const std::string request = "{\"op\":\"shutdown\",\"id\":\"bye\"}\n";
  ASSERT_TRUE(service::WriteFully(pair[1], request.data(), request.size()));

  EmfileThenServe::calls.store(0);
  EmfileThenServe::conn_fd = pair[0];
  ServerOptions options;
  options.accept_fn = &EmfileThenServe::Accept;
  Server server(tech, options);
  std::ostringstream log;
  const auto started = std::chrono::steady_clock::now();
  EXPECT_EQ(server.ServeTcp(0, log), 0);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();

  // Three transient failures, one served connection, one final accept
  // woken by the shutdown — no spin (call 5 would mean a retry storm).
  EXPECT_EQ(EmfileThenServe::calls.load(), 5);
  // The exponential schedule (2+4+8 ms) actually elapsed.
  EXPECT_GE(elapsed_ms, 12.0);
  EXPECT_NE(log.str().find("backing off"), std::string::npos) << log.str();

  service::FdStreamBuf buf(pair[1]);
  std::istream in(&buf);
  std::string response;
  ASSERT_TRUE(std::getline(in, response));
  const JsonValue v = JsonValue::Parse(response);
  EXPECT_TRUE(v.Find("ok")->AsBool()) << response;
  EXPECT_TRUE(v.Find("shutdown")->AsBool()) << response;
  ::close(pair[1]);  // pair[0] was closed by ServeTcp's reaper
}

struct AlwaysFatalAccept {
  static std::atomic<int> calls;
  static int Accept(int) {
    calls.fetch_add(1);
    errno = EBADF;
    return -1;
  }
};
std::atomic<int> AlwaysFatalAccept::calls{0};

TEST(AcceptBackoff, FatalAcceptErrnoStopsTheLoopOnce) {
  const Technology tech = SmallTech();
  AlwaysFatalAccept::calls.store(0);
  ServerOptions options;
  options.accept_fn = &AlwaysFatalAccept::Accept;
  Server server(tech, options);
  std::ostringstream log;
  EXPECT_EQ(server.ServeTcp(0, log), 1);
  EXPECT_EQ(AlwaysFatalAccept::calls.load(), 1);  // no retry, no spin
  EXPECT_NE(log.str().find("accept"), std::string::npos);
}

// ---------------------------------------------------------------------
// Concurrent TCP serving under mixed, partly hostile traffic.

TEST(ServerConcurrency, MixedParallelClientsEachGetExactlyOneResponse) {
  const Technology tech = SmallTech();
  const std::size_t fds_before = OpenFdCount();
  {
    ServerOptions options;
    options.jobs = 4;
    TcpServer tcp(tech, options);
    const std::uint16_t port = tcp.server.BoundPort();

    // One net shared by every well-behaved client (the cross-connection
    // duplicate), one distinct net per client.
    const std::string shared_net = NetText(ExperimentNet(50, 6));
    constexpr std::size_t kNormal = 5;
    std::vector<std::string> shared_responses(kNormal);
    std::vector<std::vector<std::string>> own_responses(kNormal);
    std::vector<std::thread> clients;

    // Clients 0..4: normal traffic — the shared duplicate plus a
    // distinct net, two responses expected, both parseable.
    for (std::size_t c = 0; c < kNormal; ++c) {
      clients.emplace_back([c, port, &shared_net, &shared_responses,
                            &own_responses] {
        TcpClient client(port);
        ASSERT_TRUE(client.Connected());
        const std::string own =
            NetText(ExperimentNet(60 + static_cast<std::uint64_t>(c), 5));
        client.Send(OptimizeLine("shared", shared_net));
        client.Send(OptimizeLine("own", own));
        std::string first;
        std::string second;
        ASSERT_TRUE(client.Recv(&first));
        ASSERT_TRUE(client.Recv(&second));
        for (const std::string* line : {&first, &second}) {
          const JsonValue v = JsonValue::Parse(*line);
          EXPECT_TRUE(v.Find("ok")->AsBool()) << *line;
        }
        // Responses come in completion order; match by id.
        if (first.find("\"id\":\"shared\"") != std::string::npos) {
          shared_responses[c] = first;
          own_responses[c].push_back(second);
        } else {
          shared_responses[c] = second;
          own_responses[c].push_back(first);
        }
      });
    }
    // Client 5: malformed line then a valid request — containment per
    // connection, the garbage answers with an error, the net with ok.
    clients.emplace_back([port] {
      TcpClient client(port);
      ASSERT_TRUE(client.Connected());
      client.Send("this is not json");
      client.Send(OptimizeLine("after", NetText(ExperimentNet(70, 5))));
      std::string bad;
      std::string good;
      ASSERT_TRUE(client.Recv(&bad));
      ASSERT_TRUE(client.Recv(&good));
      EXPECT_FALSE(JsonValue::Parse(bad).Find("ok")->AsBool()) << bad;
      EXPECT_TRUE(JsonValue::Parse(good).Find("ok")->AsBool()) << good;
    });
    // Client 6: oversized net with a tight deadline — answered either
    // `cancelled` (started, then killed mid-run) or `timeout` (expired
    // while queued behind the others); both are exactly-one structured
    // responses, never a hang and never a full multi-second run.
    clients.emplace_back([port] {
      TcpClient client(port);
      ASSERT_TRUE(client.Connected());
      client.Send(OptimizeLine("doomed", OversizedNet(), 150.0));
      std::string line;
      ASSERT_TRUE(client.Recv(&line));
      const JsonValue v = JsonValue::Parse(line);
      EXPECT_FALSE(v.Find("ok")->AsBool()) << line;
      const JsonValue* cancelled = v.Find("cancelled");
      const JsonValue* timeout = v.Find("timeout");
      EXPECT_TRUE((cancelled != nullptr && cancelled->AsBool()) ||
                  (timeout != nullptr && timeout->AsBool()))
          << line;
    });
    // Clients 7..8: mid-request disconnectors — submit expensive work,
    // vanish without reading.  The server must cancel their DPs, not
    // wedge a worker or crash writing to the dead socket.
    for (int c = 0; c < 2; ++c) {
      clients.emplace_back([c, port] {
        TcpClient client(port);
        ASSERT_TRUE(client.Connected());
        client.Send(OptimizeLine("ghost" + std::to_string(c),
                                 OversizedNet()));
        client.CloseAbruptly();
      });
    }
    for (std::thread& t : clients) t.join();

    // Duplicates answered byte-identically across connections.
    for (std::size_t c = 1; c < kNormal; ++c) {
      EXPECT_EQ(StripTraceId(shared_responses[0]),
                StripTraceId(shared_responses[c]))
          << "client " << c;
    }
    EXPECT_TRUE(
        JsonValue::Parse(shared_responses[0]).Find("ok")->AsBool());

    // Control connection: stats must be coherent mid-life, then a clean
    // shutdown that drains every serve thread.
    TcpClient control(port);
    ASSERT_TRUE(control.Connected());
    control.Send("{\"op\":\"stats\",\"id\":\"s\"}");
    std::string stats_line;
    ASSERT_TRUE(control.Recv(&stats_line));
    const JsonValue stats = JsonValue::Parse(stats_line);
    EXPECT_EQ(stats.Find("schema")->AsString(), "msn-service-stats-v2");
    const double received = StatsNumber(stats, "requests", "received");
    const double resolved = StatsNumber(stats, "requests", "ok") +
                            StatsNumber(stats, "requests", "errors") +
                            StatsNumber(stats, "requests", "timeouts") +
                            StatsNumber(stats, "requests", "shed_queue") +
                            StatsNumber(stats, "requests", "shed_cost") +
                            StatsNumber(stats, "requests", "cancelled");
    EXPECT_LE(resolved, received);
    control.Send("{\"op\":\"shutdown\",\"id\":\"x\"}");
    std::string bye;
    ASSERT_TRUE(control.Recv(&bye));
    EXPECT_TRUE(JsonValue::Parse(bye).Find("shutdown")->AsBool()) << bye;
    EXPECT_EQ(tcp.Join(), 0);
  }
  // Every connection fd, listener, and serve thread was reclaimed.
  EXPECT_EQ(OpenFdCount(), fds_before);
}

TEST(ServerConcurrency, DisconnectMidRequestCancelsTheInFlightDp) {
  const Technology tech = SmallTech();
  ServerOptions options;
  options.jobs = 2;
  TcpServer tcp(tech, options);
  {
    TcpClient ghost(tcp.server.BoundPort());
    ASSERT_TRUE(ghost.Connected());
    ghost.Send(OptimizeLine("ghost", OversizedNet()));
    // Give the request a moment to reach the DP, then vanish.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ghost.CloseAbruptly();
  }
  // The disconnect must cancel the run long before it could finish.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    const JsonValue stats = ServerStats(tcp.server);
    if (StatsNumber(stats, "requests", "cancelled") >= 1.0) break;
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "disconnect never cancelled the in-flight DP";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  TcpClient control(tcp.server.BoundPort());
  ASSERT_TRUE(control.Connected());
  control.Send("{\"op\":\"shutdown\"}");
  std::string bye;
  EXPECT_TRUE(control.Recv(&bye));
  EXPECT_EQ(tcp.Join(), 0);
}

TEST(ServerConcurrency, ConnectionCapacityRefusalIsStructured) {
  const Technology tech = SmallTech();
  ServerOptions options;
  options.max_connections = 1;
  TcpServer tcp(tech, options);
  TcpClient holder(tcp.server.BoundPort());
  ASSERT_TRUE(holder.Connected());
  holder.Send(OptimizeLine("hold", NetText(ExperimentNet(80, 5))));
  std::string held;
  ASSERT_TRUE(holder.Recv(&held));  // the serve thread is committed now
  EXPECT_TRUE(JsonValue::Parse(held).Find("ok")->AsBool());

  TcpClient refused(tcp.server.BoundPort());
  ASSERT_TRUE(refused.Connected());
  std::string line;
  ASSERT_TRUE(refused.Recv(&line));
  const JsonValue v = JsonValue::Parse(line);
  EXPECT_FALSE(v.Find("ok")->AsBool()) << line;
  EXPECT_TRUE(v.Find("overloaded")->AsBool()) << line;
  // ...and nothing more: the refused connection is closed.
  EXPECT_FALSE(refused.Recv(&line));

  holder.Send("{\"op\":\"shutdown\"}");
  std::string bye;
  EXPECT_TRUE(holder.Recv(&bye));
  EXPECT_EQ(tcp.Join(), 0);
  const JsonValue stats = ServerStats(tcp.server);
  EXPECT_DOUBLE_EQ(StatsNumber(stats, "requests", "shed_connections"),
                   1.0);
}

// ---------------------------------------------------------------------
// Live stats under storm: the non-draining `{"cmd":"stats"}` verb must
// return consistent snapshots while optimizes are in flight.  Runs in
// the TSan leg — the race-free execution is half the assertion.

TEST(ServerConcurrency, LiveStatsSnapshotsStayConsistentMidStorm) {
  const Technology tech = SmallTech();
  ServerOptions options;
  options.jobs = 4;
  Server server(tech, options);

  constexpr std::size_t kClients = 4;
  constexpr int kPerClient = 5;
  std::vector<std::string> nets;
  for (std::uint64_t n = 0; n < 3; ++n) {
    nets.push_back(NetText(ExperimentNet(90 + n, 5)));
  }

  std::atomic<bool> storm_done{false};
  std::atomic<int> snapshots{0};
  std::thread poller([&server, &storm_done, &snapshots] {
    do {
      const std::string line =
          server.HandleLine("{\"cmd\":\"stats\",\"id\":\"live\"}");
      const JsonValue doc = JsonValue::Parse(line);
      EXPECT_EQ(doc.Find("schema")->AsString(), "msn-service-stats-v2")
          << line;
      const double received = StatsNumber(doc, "requests", "received");
      const double resolved = StatsNumber(doc, "requests", "ok") +
                              StatsNumber(doc, "requests", "errors") +
                              StatsNumber(doc, "requests", "timeouts") +
                              StatsNumber(doc, "requests", "shed_queue") +
                              StatsNumber(doc, "requests", "shed_cost") +
                              StatsNumber(doc, "requests", "cancelled");
      EXPECT_LE(resolved, received) << line;
      const JsonValue* latency = doc.Find("latency");
      if (latency == nullptr) {
        ADD_FAILURE() << "live stats lost the latency object: " << line;
        break;
      }
      // Latency classes record strictly after their lifecycle counter,
      // so class counts never exceed the counter in any snapshot.
      const double hit = latency->Find("hit")->Find("count")->AsNumber();
      const double miss =
          latency->Find("miss")->Find("count")->AsNumber();
      EXPECT_LE(hit + miss, StatsNumber(doc, "requests", "ok")) << line;
      EXPECT_LE(latency->Find("cancelled")->Find("count")->AsNumber(),
                StatsNumber(doc, "requests", "cancelled"))
          << line;
      for (const char* cls :
           {"hit", "miss", "cancelled", "shed", "error"}) {
        const JsonValue* h = latency->Find(cls);
        if (h == nullptr) {
          ADD_FAILURE() << "latency class missing: " << cls;
          continue;
        }
        EXPECT_LE(h->Find("window_count")->AsNumber(),
                  h->Find("count")->AsNumber())
            << cls;
      }
      snapshots.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } while (!storm_done.load(std::memory_order_relaxed));
  });

  std::vector<std::thread> storm;
  for (std::size_t c = 0; c < kClients; ++c) {
    storm.emplace_back([&server, &nets, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const std::string id = std::string("c")
                                   .append(std::to_string(c))
                                   .append("-")
                                   .append(std::to_string(i));
        const std::string resp = server.HandleLine(OptimizeLine(
            id, nets[static_cast<std::size_t>(i) % nets.size()]));
        EXPECT_TRUE(JsonValue::Parse(resp).Find("ok")->AsBool()) << resp;
      }
    });
  }
  for (std::thread& t : storm) t.join();
  storm_done.store(true, std::memory_order_relaxed);
  poller.join();
  EXPECT_GE(snapshots.load(), 1);

  // Settled: every optimize resolved ok and was classified exactly once
  // as a hit (served without its own DP) or a miss (ran the DP).
  const JsonValue final_doc =
      JsonValue::Parse(server.HandleLine("{\"cmd\":\"stats\"}"));
  const JsonValue* latency = final_doc.Find("latency");
  ASSERT_NE(latency, nullptr);
  const double hit = latency->Find("hit")->Find("count")->AsNumber();
  const double miss = latency->Find("miss")->Find("count")->AsNumber();
  EXPECT_EQ(hit + miss, static_cast<double>(kClients * kPerClient));
  EXPECT_GE(miss, 1.0);

  // Every response line carries a trace_id for client-side correlation.
  const std::string one = server.HandleLine(OptimizeLine("last", nets[0]));
  EXPECT_NE(one.find("\"trace_id\":\""), std::string::npos) << one;
}

// ---------------------------------------------------------------------
// Load shedding.

TEST(ServerShedding, QueueDepthGateAnswersOverloaded) {
  const Technology tech = SmallTech();
  ServerOptions options;
  options.jobs = 1;
  options.max_queue_depth = 1;
  Server server(tech, options);
  // The first request occupies the single admitted slot for hundreds of
  // milliseconds; the next two arrive (microseconds later) while it is
  // still in flight and must be shed, not queued.
  std::istringstream in(OptimizeLine("slow", NetText(ExperimentNet(97, 18))) +
                        "\n" +
                        OptimizeLine("shed1", NetText(ExperimentNet(81, 5))) +
                        "\n" +
                        OptimizeLine("shed2", NetText(ExperimentNet(82, 5))) +
                        "\n{\"op\":\"shutdown\"}\n");
  std::ostringstream out;
  EXPECT_TRUE(server.Serve(in, out));

  int ok = 0;
  int overloaded = 0;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) {
    const JsonValue v = JsonValue::Parse(line);
    if (line.find("\"id\":\"slow\"") != std::string::npos) {
      EXPECT_TRUE(v.Find("ok")->AsBool()) << line;
      ++ok;
    }
    if (line.find("\"id\":\"shed") != std::string::npos) {
      EXPECT_FALSE(v.Find("ok")->AsBool()) << line;
      EXPECT_TRUE(v.Find("overloaded")->AsBool()) << line;
      ++overloaded;
    }
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(overloaded, 2);
  const JsonValue stats = ServerStats(server);
  EXPECT_DOUBLE_EQ(StatsNumber(stats, "requests", "shed_queue"), 2.0);
  EXPECT_DOUBLE_EQ(StatsNumber(stats, "requests", "dp_runs"), 1.0);
}

TEST(ServerShedding, CostGateShedsCalibratedMissesButServesHits) {
  const Technology tech = SmallTech();
  ServerOptions options;
  options.max_estimated_solutions = 1.0;  // any calibrated miss sheds
  Server server(tech, options);
  const std::string small = OptimizeLine("small", NetText(ExperimentNet(83, 5)));

  // Uncalibrated model estimates 0: the first request runs and becomes
  // the calibration sample.
  const JsonValue first = JsonValue::Parse(server.HandleLine(small));
  EXPECT_TRUE(first.Find("ok")->AsBool());

  // A different net misses the cache and the (now calibrated) estimate
  // dwarfs the 1-solution budget: shed with a structured refusal.
  const JsonValue shed = JsonValue::Parse(server.HandleLine(
      OptimizeLine("shed", NetText(ExperimentNet(84, 5)))));
  EXPECT_FALSE(shed.Find("ok")->AsBool());
  EXPECT_TRUE(shed.Find("overloaded")->AsBool());
  EXPECT_NE(shed.Find("error")->AsString().find("estimated cost"),
            std::string::npos);

  // The original request is a cache hit: hits are always served, even
  // with the gate this tight.
  const JsonValue again = JsonValue::Parse(server.HandleLine(small));
  EXPECT_TRUE(again.Find("ok")->AsBool());

  const JsonValue stats = ServerStats(server);
  EXPECT_DOUBLE_EQ(StatsNumber(stats, "requests", "shed_cost"), 1.0);
  EXPECT_DOUBLE_EQ(StatsNumber(stats, "requests", "dp_runs"), 1.0);
}

}  // namespace
}  // namespace msn
