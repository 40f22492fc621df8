// serve_mixed: one closed-loop client calling an in-process Server
// (jobs = 1, memory-only cache) through HandleLine.
//
// The run is a sequence of epochs.  Each epoch flushes the cache, warms
// a hot set of 10-pin nets (untimed), then sends kEpochRequests requests
// in a seeded order: 90% repeat the hot set (cache hits), 5% are
// near-duplicates of a hot net (one terminal arrival time or one wire
// length perturbed) and 5% are first-seen nets (see Planner).  Every
// variant's request line is fixed, so each has one committed response
// digest; a quarter of them carry spec_ps.
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "io/netfile.h"
#include "netgen/netgen.h"
#include "obs/stats.h"
#include "service/json.h"
#include "service/server.h"
#include "tech/tech.h"

namespace msn::perfbench {
namespace {

constexpr std::size_t kTerminals = 10;
constexpr std::size_t kHotPool = 24;
constexpr std::size_t kHotSet = 8;
constexpr std::size_t kNearDupsPerHot = 16;
constexpr std::size_t kFreshPool = 256;
constexpr std::size_t kEpochRequests = 400;
constexpr std::size_t kEpochNearDups = 20;
constexpr std::size_t kEpochFresh = 20;
/// Traced runs replay this many epochs untraced and then traced.
constexpr std::size_t kTracedEpochs = 2;

constexpr std::uint64_t kHotSeedBase = 100;
constexpr std::uint64_t kFreshSeedBase = 1000;

std::string NetText(std::uint64_t seed, const Technology& tech) {
  NetConfig cfg;
  cfg.seed = seed;
  cfg.num_terminals = kTerminals;
  std::ostringstream os;
  WriteNet(os, BuildExperimentNet(cfg, tech));
  return os.str();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> Fields(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  for (std::string f; is >> f;) out.push_back(f);
  return out;
}

std::string JoinFields(const std::vector<std::string>& fields) {
  std::string out;
  for (const std::string& f : fields) {
    if (!out.empty()) out += ' ';
    out += f;
  }
  return out;
}

/// Near-duplicate `k` of a hot net: even k add an arrival time to one
/// terminal, odd k lengthen one non-zero-length wire by 7%.
std::string Perturb(const std::string& text, std::size_t k) {
  std::vector<std::string> lines = SplitLines(text);
  std::vector<std::size_t> terminals, edges;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::vector<std::string> f = Fields(lines[i]);
    if (f.empty()) continue;
    if (f[0] == "terminal") terminals.push_back(i);
    if (f[0] == "edge" && std::stod(f[3]) > 0.0) edges.push_back(i);
  }
  const std::size_t step = k / 2;
  if (k % 2 == 0) {
    std::vector<std::string> f =
        Fields(lines[terminals[step % terminals.size()]]);
    f[2] = std::to_string(15 + 5 * step);
    lines[terminals[step % terminals.size()]] = JoinFields(f);
  } else {
    const std::size_t at = edges[(7 * step + 3) % edges.size()];
    std::vector<std::string> f = Fields(lines[at]);
    std::ostringstream len;
    len.precision(17);
    len << std::stod(f[3]) * 1.07;
    f[3] = len.str();
    lines[at] = JoinFields(f);
  }
  std::string out;
  for (const std::string& line : lines) out += line + '\n';
  return out;
}

std::string RequestLine(const std::string& key, const std::string& net) {
  std::string line = "{\"op\":\"optimize\",\"net\":\"" +
                     obs::JsonEscape(net) + "\",\"mode\":\"repeaters\"";
  const std::uint64_t h = MixSeed(0, Fnv64(key));
  if (h % 4 == 0) {
    line += ",\"spec_ps\":" + std::to_string(1100 + 200 * ((h >> 8) % 4));
  }
  return line + "}";
}

enum Kind { kHot = 0, kNearDup = 1, kFresh = 2 };

struct Variant {
  std::string key;
  std::string line;
  std::size_t net_bytes = 0;
};

/// Every request line the workload can send.
struct Pools {
  std::vector<Variant> hot;                   // [kHotPool]
  std::vector<std::vector<Variant>> near;     // [kHotPool][kNearDupsPerHot]
  std::vector<Variant> fresh;                 // [kFreshPool]
};

Variant MakeVariant(const std::string& key, const std::string& net) {
  return Variant{key, RequestLine(key, net), net.size()};
}

Pools BuildPools(const Technology& tech) {
  Pools p;
  for (std::size_t i = 0; i < kHotPool; ++i) {
    const std::string net = NetText(kHotSeedBase + i, tech);
    const std::string key = "h" + std::to_string(i);
    p.hot.push_back(MakeVariant(key, net));
    p.near.emplace_back();
    for (std::size_t k = 0; k < kNearDupsPerHot; ++k) {
      p.near.back().push_back(
          MakeVariant(key + "p" + std::to_string(k), Perturb(net, k)));
    }
  }
  for (std::size_t j = 0; j < kFreshPool; ++j) {
    p.fresh.push_back(
        MakeVariant("f" + std::to_string(j),
                    NetText(kFreshSeedBase + j, tech)));
  }
  return p;
}

struct Planned {
  const Variant* variant;
  Kind kind;
};

struct EpochPlan {
  std::vector<const Variant*> warm;
  std::vector<Planned> requests;
};

/// Deals epochs so that a run covers the pools evenly: the hot pool is
/// split into kHotPool / kHotSet groups that epochs take in turn, and each
/// group's near-duplicates and the first-seen nets are consumed in seeded
/// orders, wrapping around.  Two planners with one seed deal the same
/// epochs.
class Planner {
 public:
  Planner(const Pools& pools, std::uint64_t seed)
      : pools_(pools), rng_(MixSeed(seed, 1)) {
    std::vector<std::size_t> hot(kHotPool);
    for (std::size_t i = 0; i < kHotPool; ++i) hot[i] = i;
    rng_.Shuffle(&hot);
    for (std::size_t g = 0; g < kHotPool / kHotSet; ++g) {
      Group group;
      group.hot.assign(hot.begin() + static_cast<std::ptrdiff_t>(g * kHotSet),
                       hot.begin() +
                           static_cast<std::ptrdiff_t>((g + 1) * kHotSet));
      for (const std::size_t h : group.hot) {
        for (const Variant& v : pools_.near[h]) group.near.push_back(&v);
      }
      rng_.Shuffle(&group.near);
      groups_.push_back(std::move(group));
    }
    for (const Variant& v : pools_.fresh) fresh_.push_back(&v);
    rng_.Shuffle(&fresh_);
  }

  EpochPlan Next() {
    Group& group = groups_[epoch_++ % groups_.size()];
    EpochPlan plan;
    for (const std::size_t h : group.hot) plan.warm.push_back(&pools_.hot[h]);
    for (std::size_t i = 0; i < kEpochNearDups; ++i) {
      plan.requests.push_back(
          {group.near[group.next++ % group.near.size()], kNearDup});
    }
    for (std::size_t i = 0; i < kEpochFresh; ++i) {
      plan.requests.push_back({fresh_[next_fresh_++ % fresh_.size()], kFresh});
    }
    for (std::size_t i = 0; plan.requests.size() < kEpochRequests; ++i) {
      plan.requests.push_back({plan.warm[i % kHotSet], kHot});
    }
    rng_.Shuffle(&plan.requests);
    return plan;
  }

 private:
  struct Group {
    std::vector<std::size_t> hot;
    std::vector<const Variant*> near;
    std::size_t next = 0;
  };
  const Pools& pools_;
  Rng rng_;
  std::vector<Group> groups_;
  std::vector<const Variant*> fresh_;
  std::size_t next_fresh_ = 0;
  std::size_t epoch_ = 0;
};

std::string TraceId(const std::string& response) {
  static const std::string kField = "\"trace_id\":\"";
  const std::size_t at = response.find(kField);
  if (at == std::string::npos) return "";
  return response.substr(at + kField.size(), 16);
}

/// Checks one response: ok, and (trace_id stripped) identical to the
/// first answer for the same request.
void CheckResponse(const Variant& v, const std::string& response,
                   Report* report) {
  std::string stripped = response;
  const std::string id = TraceId(response);
  const std::string field = "\"trace_id\":\"" + id + "\",";
  if (id.size() == 16) {
    stripped.erase(stripped.find(field), field.size());
  }
  if (stripped.rfind("{\"ok\":true,", 0) != 0) {
    report->Fail(v.key + ": " + stripped.substr(0, 200));
    return;
  }
  report->CheckDigest(v.key, Digest(stripped));
}

/// Span durations (us) of one exported request trace, summed by name.
std::map<std::string, double> ReadSpans(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::map<std::string, double> spans;
  const service::JsonValue doc = service::JsonValue::Parse(buf.str());
  for (const service::JsonValue& e : doc.Find("traceEvents")->AsArray()) {
    spans[e.Find("name")->AsString()] += e.Find("dur")->AsNumber();
  }
  return spans;
}

struct Session {
  std::unique_ptr<service::Server> server;
  std::string trace_dir;  ///< Empty: untraced.
};

std::unique_ptr<service::Server> MakeServer(const Technology& tech,
                                            const std::string& trace_dir) {
  service::ServerOptions opt;
  opt.jobs = 1;
  opt.trace_dir = trace_dir;
  return std::make_unique<service::Server>(tech, opt);
}

/// Runs one epoch; samples go under `prefix`.  With a trace directory,
/// each request's exported spans are read back as per-layer samples.
void RunEpoch(const Session& s, const EpochPlan& plan,
              const std::string& prefix,
              Report* report) {
  service::Server& server = *s.server;
  if (server.HandleLine("{\"op\":\"flush\"}").find("\"flushed\":true") ==
      std::string::npos) {
    report->Fail("flush refused");
  }
  for (const Variant* v : plan.warm) {
    ++report->attempted;
    CheckResponse(*v, server.HandleLine(v->line), report);
  }
  // Probes go after the warm-up, whose DP runs have evicted the caches
  // anyway, and before every fourth miss, spread through the epoch: the
  // caches they evict would make the next hit slow, while a miss's DP
  // refills its own.
  Probe(report, prefix);
  std::size_t first_seen = 0;
  for (const Planned& p : plan.requests) {
    if (p.kind != kHot && first_seen++ % 4 == 0) Probe(report, prefix);
    const std::uint64_t misses_before = server.Cache().Snapshot().misses;
    ++report->attempted;
    const auto start = Clock::now();
    const std::string response = server.HandleLine(p.variant->line);
    const double ms = MsSince(start);
    const bool miss = server.Cache().Snapshot().misses > misses_before;
    CheckResponse(*p.variant, response, report);
    report->AddTimed(prefix, "request_ms", ms);
    report->Add(prefix + "hit", miss ? 0.0 : 1.0);
    report->Add(prefix + "kind", static_cast<double>(p.kind));
    report->AddTimed(prefix, miss ? "miss_ms" : "hit_us", miss ? ms : ms * 1e3);
    if (s.trace_dir.empty()) continue;
    const std::string path =
        s.trace_dir + "/trace-" + TraceId(response) + ".json";
    const std::map<std::string, double> spans = ReadSpans(path);
    std::filesystem::remove(path);
    const auto span = [&](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second;
    };
    report->Add("span.parse_us", span("server.parse_net"));
    report->Add("span.canonicalize_us", span("server.canonicalize"));
    report->Add("span.lookup_us", span("cache.lookup"));
    report->Add("span.insert_us", span("cache.insert"));
    report->Add("span.dp_us", span("dp.run"));
    report->Add("net_bytes", static_cast<double>(p.variant->net_bytes));
  }
}

}  // namespace

Report RunServeMixed(const RunConfig& config) {
  Report report;
  struct Setup {
    Technology tech;
    Pools pools;
    Session session;
  };
  const Setup setup = TimedSetup(&report, [] {
    Setup s{DefaultTechnology(), {}, {}};
    s.pools = BuildPools(s.tech);
    s.session.server = MakeServer(s.tech, "");
    return s;
  });
  if (!config.trace) {
    Planner planner(setup.pools, config.seed);
    const auto start = Clock::now();
    do {
      RunEpoch(setup.session, planner.Next(), "", &report);
    } while (MsSince(start) < config.seconds * 1e3);
    return report;
  }
  Planner untraced_plan(setup.pools, config.seed);
  for (std::size_t e = 0; e < kTracedEpochs; ++e) {
    RunEpoch(setup.session, untraced_plan.Next(), "untraced.", &report);
  }
  Session traced;
  traced.trace_dir = config.workdir + "/serve-traces";
  std::filesystem::remove_all(traced.trace_dir);
  std::filesystem::create_directories(traced.trace_dir);
  traced.server = MakeServer(setup.tech, traced.trace_dir);
  Planner traced_plan(setup.pools, config.seed);
  for (std::size_t e = 0; e < kTracedEpochs; ++e) {
    RunEpoch(traced, traced_plan.Next(), "", &report);
  }
  report.documents["server_stats"] =
      traced.server->HandleLine("{\"op\":\"stats\"}");
  traced.server.reset();
  std::filesystem::remove_all(traced.trace_dir);
  return report;
}

Report ServeReference() {
  Report report;
  const Technology tech = DefaultTechnology();
  const Pools pools = BuildPools(tech);
  const std::unique_ptr<service::Server> server = MakeServer(tech, "");
  const auto answer = [&](const Variant& v) {
    ++report.attempted;
    CheckResponse(v, server->HandleLine(v.line), &report);
  };
  for (std::size_t i = 0; i < kHotPool; ++i) {
    answer(pools.hot[i]);
    for (const Variant& v : pools.near[i]) answer(v);
  }
  for (const Variant& v : pools.fresh) answer(v);
  return report;
}

}  // namespace msn::perfbench
