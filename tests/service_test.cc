// The src/service optimization service (docs/SERVICE.md): canonical
// fingerprint stability / order-independence / sensitivity, sharded-LRU
// cache budgets and collision-checked equality, concurrent mixed
// hit/miss traffic (this suite is part of the TSan gate), and the
// request/response server contracts — byte-identical duplicate answers,
// error containment, structured deadline timeouts, flush semantics.
#include "service/cache.h"
#include "service/canonical.h"
#include "service/json.h"
#include "service/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/msri.h"
#include "io/netfile.h"
#include "netgen/netgen.h"
#include "rctree/rctree.h"
#include "tech/tech.h"
#include "test_util.h"

namespace msn {
namespace {

using service::CacheConfig;
using service::CacheStats;
using service::CanonicalRequest;
using service::Canonicalize;
using service::Fingerprint;
using service::HashBytes;
using service::JsonValue;
using service::Server;
using service::ServerOptions;
using service::SolutionCache;
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

/// Removes the per-request `"trace_id":"<16 hex>",` fragment so response
/// lines can be byte-compared: the payload is deterministic, the trace id
/// is unique per request by design.
std::string StripTraceId(std::string line) {
  const std::string key = "\"trace_id\":\"";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return line;
  // 16 hex chars + closing quote + comma.
  line.erase(at, key.size() + 18);
  return line;
}

std::string OptimizeLine(const std::string& id, const std::string& net) {
  std::ostringstream os;
  os << "{\"op\":\"optimize\",\"id\":\"" << id << "\",\"net\":\""
     << obs::JsonEscape(net) << "\"}";
  return os.str();
}

/// A star: root terminal -- center Steiner -- two leaf terminals with
/// distinct arrivals.  `swap_leaves` flips the construction order of the
/// leaves (different node ids, different adjacency order — electrically
/// the same net).
RcTree StarNet(const Technology& tech, bool swap_leaves) {
  RcTree tree(tech.wire);
  TerminalParams root = DefaultTerminal(tech);
  root.arrival_ps = 10.0;
  TerminalParams leaf_b = DefaultTerminal(tech);
  leaf_b.arrival_ps = 20.0;
  leaf_b.is_source = false;
  TerminalParams leaf_c = DefaultTerminal(tech);
  leaf_c.arrival_ps = 30.0;
  leaf_c.is_source = false;

  const NodeId r = tree.AddTerminal(root, {0, 0});
  const NodeId center = tree.AddNode(NodeKind::kSteiner, {500, 0});
  if (swap_leaves) {
    const NodeId c = tree.AddTerminal(leaf_c, {1000, -400});
    const NodeId b = tree.AddTerminal(leaf_b, {1000, 400});
    tree.AddEdge(center, c, 700.0);
    tree.AddEdge(r, center, 500.0);
    tree.AddEdge(b, center, 600.0);
  } else {
    const NodeId b = tree.AddTerminal(leaf_b, {1000, 400});
    const NodeId c = tree.AddTerminal(leaf_c, {1000, -400});
    tree.AddEdge(r, center, 500.0);
    tree.AddEdge(center, b, 600.0);
    tree.AddEdge(center, c, 700.0);
  }
  tree.Validate();
  return tree;
}

/// A hand-forged request with a chosen fingerprint (collision tests).
CanonicalRequest Forged(const Fingerprint& fp, const std::string& text) {
  CanonicalRequest request;
  request.fingerprint = fp;
  request.text = text;
  return request;
}

// ---------------------------------------------------------------------
// Canonical fingerprints.

TEST(Canonical, StableAcrossIdenticalRequests) {
  const Technology tech = SmallTech();
  const RcTree tree = ExperimentNet(3);
  const MsriOptions opt;
  const CanonicalRequest a = Canonicalize(tree, tech, opt);
  const CanonicalRequest b = Canonicalize(tree, tech, opt);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.fingerprint.Hex(), b.fingerprint.Hex());
  EXPECT_EQ(a.fingerprint.Hex().size(), 32u);
  // Different nets fingerprint differently.
  const CanonicalRequest c = Canonicalize(ExperimentNet(4), tech, opt);
  EXPECT_FALSE(a.fingerprint == c.fingerprint);
}

TEST(Canonical, ConstructionOrderIndependent) {
  const Technology tech = SmallTech();
  const MsriOptions opt;
  const CanonicalRequest a = Canonicalize(StarNet(tech, false), tech, opt);
  const CanonicalRequest b = Canonicalize(StarNet(tech, true), tech, opt);
  EXPECT_EQ(a.text, b.text);
  EXPECT_TRUE(a.fingerprint == b.fingerprint);
}

TEST(Canonical, LibraryOrderIndependent) {
  Technology tech = testing::TwoRepeaterTech();
  const RcTree tree = ExperimentNet(5);
  MsriOptions opt;
  opt.size_drivers = true;
  opt.sizing_library = DriverSizingLibrary(tech, {1.0, 2.0});
  const CanonicalRequest a = Canonicalize(tree, tech, opt);

  std::reverse(tech.repeaters.begin(), tech.repeaters.end());
  std::reverse(opt.sizing_library.begin(), opt.sizing_library.end());
  const CanonicalRequest b = Canonicalize(tree, tech, opt);
  EXPECT_EQ(a.text, b.text);
  EXPECT_TRUE(a.fingerprint == b.fingerprint);
}

TEST(Canonical, SensitiveToResultAffectingChanges) {
  const Technology tech = SmallTech();
  const RcTree base = ExperimentNet(6);
  const MsriOptions opt;
  const CanonicalRequest a = Canonicalize(base, tech, opt);

  RcTree perturbed = base;
  perturbed.MutableTerminal(1).arrival_ps += 1.0;
  EXPECT_FALSE(a.fingerprint ==
               Canonicalize(perturbed, tech, opt).fingerprint);

  Technology slower = tech;
  slower.repeaters[0].cost += 0.5;
  EXPECT_FALSE(a.fingerprint ==
               Canonicalize(base, slower, opt).fingerprint);

  MsriOptions no_rep = opt;
  no_rep.insert_repeaters = false;
  EXPECT_FALSE(a.fingerprint ==
               Canonicalize(base, tech, no_rep).fingerprint);

  MsriOptions eps = opt;
  eps.mfs.eps *= 2.0;
  EXPECT_FALSE(a.fingerprint ==
               Canonicalize(base, tech, eps).fingerprint);
}

TEST(Canonical, IgnoresNonSemanticOptions) {
  const Technology tech = SmallTech();
  const RcTree tree = ExperimentNet(7);
  const MsriOptions plain;
  obs::RunStats run;
  obs::StatsSink sink(&run);
  MsriOptions hooked;
  hooked.stats = &sink;
  // A cancellation token is an execution concern, not a problem input:
  // cancellable and plain runs must share a cache fingerprint.
  CancellationSource source;
  hooked.cancel = source.Token();
  EXPECT_TRUE(Canonicalize(tree, tech, plain).fingerprint ==
              Canonicalize(tree, tech, hooked).fingerprint);
}

TEST(Canonical, NegativeZeroAndNanFold) {
  const Technology tech = SmallTech();
  RcTree a = StarNet(tech, false);
  RcTree b = StarNet(tech, false);
  a.MutableTerminal(1).downstream_ps = 0.0;
  b.MutableTerminal(1).downstream_ps = -0.0;
  const MsriOptions opt;
  EXPECT_TRUE(Canonicalize(a, tech, opt).fingerprint ==
              Canonicalize(b, tech, opt).fingerprint);
}

// ---------------------------------------------------------------------
// JSON parser.

TEST(Json, ParsesTheProtocolSubset) {
  const JsonValue v = JsonValue::Parse(
      "{\"op\":\"optimize\",\"id\":7,\"spec\":-1.5e2,\"flag\":true,"
      "\"none\":null,\"arr\":[1,\"two\\n\",{}]}");
  ASSERT_TRUE(v.IsObject());
  EXPECT_EQ(v.Find("op")->AsString(), "optimize");
  EXPECT_DOUBLE_EQ(v.Find("id")->AsNumber(), 7.0);
  EXPECT_DOUBLE_EQ(v.Find("spec")->AsNumber(), -150.0);
  EXPECT_TRUE(v.Find("flag")->AsBool());
  EXPECT_TRUE(v.Find("none")->IsNull());
  ASSERT_TRUE(v.Find("arr")->IsArray());
  EXPECT_EQ(v.Find("arr")->AsArray()[1].AsString(), "two\n");
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::Parse(""), CheckError);
  EXPECT_THROW(JsonValue::Parse("{\"a\":}"), CheckError);
  EXPECT_THROW(JsonValue::Parse("[1,2"), CheckError);
  EXPECT_THROW(JsonValue::Parse("{} trailing"), CheckError);
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  EXPECT_THROW(JsonValue::Parse(deep), CheckError);
}

// ---------------------------------------------------------------------
// Sharded LRU cache.

MsriSummary TinySummary(double cost) {
  MsriSummary s;
  s.pareto.push_back({cost, 100.0 - cost, 1});
  return s;
}

TEST(SolutionCache, LruEvictsLeastRecentlyUsed) {
  CacheConfig cfg;
  cfg.shards = 1;
  cfg.max_entries = 3;
  SolutionCache cache(cfg);
  const auto req = [](char tag) {
    const std::string text(1, tag);
    return Forged(HashBytes(text), text);
  };
  cache.Insert(req('a'), TinySummary(1));
  cache.Insert(req('b'), TinySummary(2));
  cache.Insert(req('c'), TinySummary(3));
  ASSERT_TRUE(cache.Lookup(req('a')).has_value());  // refresh 'a'
  cache.Insert(req('d'), TinySummary(4));           // evicts 'b'
  EXPECT_TRUE(cache.Lookup(req('a')).has_value());
  EXPECT_FALSE(cache.Lookup(req('b')).has_value());
  EXPECT_TRUE(cache.Lookup(req('c')).has_value());
  EXPECT_TRUE(cache.Lookup(req('d')).has_value());
  const CacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions, 4u);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(SolutionCache, ByteBudgetEvictsButKeepsNewest) {
  CacheConfig cfg;
  cfg.shards = 1;
  cfg.max_entries = 100;
  cfg.max_bytes = 600;  // each ~1KB entry alone busts the budget
  SolutionCache cache(cfg);
  const std::string big_a(1000, 'a');
  const std::string big_b(1000, 'b');
  cache.Insert(Forged(HashBytes(big_a), big_a), TinySummary(1));
  EXPECT_EQ(cache.Snapshot().entries, 1u);  // oversized newest survives
  cache.Insert(Forged(HashBytes(big_b), big_b), TinySummary(2));
  const CacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_FALSE(cache.Lookup(Forged(HashBytes(big_a), big_a)).has_value());
  EXPECT_TRUE(cache.Lookup(Forged(HashBytes(big_b), big_b)).has_value());
}

TEST(SolutionCache, CollisionCheckedEqualityNeverServesWrongEntry) {
  SolutionCache cache(CacheConfig{});
  const Fingerprint fp = HashBytes("whatever");
  const CanonicalRequest a = Forged(fp, "request A");
  const CanonicalRequest b = Forged(fp, "request B");  // forged collision
  cache.Insert(a, TinySummary(1));
  EXPECT_FALSE(cache.Lookup(b).has_value());
  EXPECT_GE(cache.Snapshot().collisions, 1u);
  ASSERT_TRUE(cache.Lookup(a).has_value());
  EXPECT_DOUBLE_EQ(cache.Lookup(a)->pareto[0].cost, 1.0);
  cache.Insert(b, TinySummary(2));  // takeover: latest wins
  EXPECT_FALSE(cache.Lookup(a).has_value());
  ASSERT_TRUE(cache.Lookup(b).has_value());
  EXPECT_DOUBLE_EQ(cache.Lookup(b)->pareto[0].cost, 2.0);
}

TEST(SolutionCache, FlushDropsEntriesKeepsCounters) {
  SolutionCache cache(CacheConfig{});
  const CanonicalRequest a = Forged(HashBytes("x"), "x");
  cache.Insert(a, TinySummary(1));
  ASSERT_TRUE(cache.Lookup(a).has_value());
  cache.Flush();
  EXPECT_FALSE(cache.Lookup(a).has_value());
  const CacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.flushes, 1u);
  EXPECT_EQ(stats.hits, 1u);  // pre-flush hit survives
}

TEST(SolutionCache, IndexKeyCollisionTakeoverBetweenDistinctFingerprints) {
  // Two DIFFERENT full fingerprints engineered onto one 64-bit index
  // key: hi ^ (lo * K) collides when hi absorbs the multiplier.
  constexpr std::uint64_t kMult = 0x9e3779b97f4a7c15ull;
  const Fingerprint fp_a{7, 0};
  const Fingerprint fp_b{7 ^ kMult, 1};
  ASSERT_NE(fp_a.hi, fp_b.hi);
  CacheConfig cfg;
  cfg.shards = 1;  // both fingerprints must land in the same shard
  SolutionCache cache(cfg);
  const CanonicalRequest a = Forged(fp_a, "net A");
  const CanonicalRequest b = Forged(fp_b, "net B");
  cache.Insert(a, TinySummary(1));
  ASSERT_TRUE(cache.Lookup(a).has_value());
  // The colliding lookup is a counted collision, never a wrong answer.
  EXPECT_FALSE(cache.Lookup(b).has_value());
  EXPECT_EQ(cache.Snapshot().collisions, 1u);
  // Inserting the collider takes the slot over: latest wins, and the
  // displaced entry degrades to a miss (it was unservable anyway).
  cache.Insert(b, TinySummary(2));
  EXPECT_EQ(cache.Snapshot().collisions, 2u);
  EXPECT_FALSE(cache.Lookup(a).has_value());
  ASSERT_TRUE(cache.Lookup(b).has_value());
  EXPECT_DOUBLE_EQ(cache.Lookup(b)->pareto[0].cost, 2.0);
  // The shard's byte accounting followed the takeover (no leak): one
  // entry's worth, not two.
  EXPECT_EQ(cache.Snapshot().entries, 1u);
}

TEST(SolutionCache, EveryFlushCountsAndCountersSurvive) {
  SolutionCache cache(CacheConfig{});
  const CanonicalRequest a = Forged(HashBytes("y"), "y");
  cache.Insert(a, TinySummary(1));
  ASSERT_TRUE(cache.Lookup(a).has_value());
  cache.Flush();
  cache.Flush();  // flushing an already-empty cache still counts
  const CacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.flushes, 2u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  // Traffic counters are NOT reset by Flush — they describe the cache's
  // whole lifetime, and the stats op depends on that.
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.hits, 1u);
  // Re-inserting after a flush works normally.
  cache.Insert(a, TinySummary(2));
  ASSERT_TRUE(cache.Lookup(a).has_value());
  EXPECT_EQ(cache.Snapshot().insertions, 2u);
}

TEST(SolutionCache, HugeShardCountIsClampedNotLoopedOn) {
  // Regression: shards near SIZE_MAX used to drive the power-of-two
  // round-up into an overflow loop; now it clamps.
  CacheConfig cfg;
  cfg.shards = std::numeric_limits<std::size_t>::max();
  cfg.max_entries = 8;
  SolutionCache cache(cfg);
  EXPECT_LE(cache.NumShards(), 8u);
  const CanonicalRequest a = Forged(HashBytes("z"), "z");
  cache.Insert(a, TinySummary(1));
  EXPECT_TRUE(cache.Lookup(a).has_value());
}

TEST(SolutionCache, TinyByteBudgetCollapsesShardsInsteadOfDegenerating) {
  // Regression: max_bytes < shards used to split the byte budget into
  // ~1-byte slices, silently evicting everything but one entry per
  // shard.  The constructor now collapses the stripe count first.
  CacheConfig cfg;
  cfg.shards = 8;
  cfg.max_bytes = 6;  // fewer bytes than shards
  SolutionCache cache(cfg);
  EXPECT_EQ(cache.NumShards(), 1u);
  EXPECT_EQ(cache.Config().shards, 1u);
  // The keep-newest rule applies to the single shard as documented.
  const CanonicalRequest a = Forged(HashBytes("p"), "p");
  cache.Insert(a, TinySummary(1));
  EXPECT_TRUE(cache.Lookup(a).has_value());
  EXPECT_EQ(cache.Snapshot().entries, 1u);
}

TEST(SolutionCache, ZeroBudgetsAreRejectedUpFront) {
  CacheConfig no_entries;
  no_entries.max_entries = 0;
  EXPECT_THROW(SolutionCache{no_entries}, CheckError);
  CacheConfig no_bytes;
  no_bytes.max_bytes = 0;
  EXPECT_THROW(SolutionCache{no_bytes}, CheckError);
}

TEST(SolutionCache, ConcurrentMixedHitMissTraffic) {
  CacheConfig cfg;
  cfg.shards = 4;
  cfg.max_entries = 64;
  SolutionCache cache(cfg);
  constexpr int kThreads = 8;
  constexpr int kOps = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string text =
            "key-" + std::to_string((t * 7 + i * 13) % 16);
        const CanonicalRequest req = Forged(HashBytes(text), text);
        if (!cache.Lookup(req).has_value()) {
          cache.Insert(req, TinySummary(static_cast<double>(i % 5)));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const CacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_LE(stats.entries, 16u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.insertions, 16u);
}

// ---------------------------------------------------------------------
// MsriSummary.

TEST(MsriSummary, SummarizeMirrorsResultSelectors) {
  const Technology tech = SmallTech();
  const RcTree tree = ExperimentNet(8);
  const MsriResult result = RunMsri(tree, tech, MsriOptions{});
  const MsriSummary summary = Summarize(result);
  ASSERT_EQ(summary.pareto.size(), result.Pareto().size());
  ASSERT_FALSE(summary.pareto.empty());
  EXPECT_DOUBLE_EQ(summary.MinCost()->cost, result.MinCost()->cost);
  EXPECT_DOUBLE_EQ(summary.MinArd()->ard_ps, result.MinArd()->ard_ps);
  const double spec = summary.MinArd()->ard_ps + 1.0;
  ASSERT_NE(summary.MinCostFeasible(spec), nullptr);
  EXPECT_DOUBLE_EQ(summary.MinCostFeasible(spec)->cost,
                   result.MinCostFeasible(spec)->cost);
  EXPECT_EQ(summary.MinCostFeasible(
                std::numeric_limits<double>::quiet_NaN()),
            nullptr);
  EXPECT_EQ(summary.MinCostFeasible(summary.MinArd()->ard_ps - 1.0),
            nullptr);
  EXPECT_GT(summary.ApproxBytes(), sizeof(MsriSummary));
}

// ---------------------------------------------------------------------
// Server.

TEST(Server, DuplicateRequestIsByteIdenticalAndServedFromCache) {
  const Technology tech = SmallTech();
  Server server(tech, ServerOptions{});
  const std::string line = OptimizeLine("q", NetText(ExperimentNet(9)));
  const std::string first = server.HandleLine(line);
  const std::string second = server.HandleLine(line);
  EXPECT_NE(first, second);  // trace ids differ per request
  EXPECT_EQ(StripTraceId(first), StripTraceId(second));
  const JsonValue response = JsonValue::Parse(first);
  EXPECT_TRUE(response.Find("ok")->AsBool());
  EXPECT_EQ(response.Find("fingerprint")->AsString().size(), 32u);
  EXPECT_GE(response.Find("pareto")->AsArray().size(), 1u);

  EXPECT_EQ(server.Cache().Snapshot().hits, 1u);
  std::ostringstream stats_os;
  server.WriteStatsJson(stats_os);
  const JsonValue stats = JsonValue::Parse(stats_os.str());
  EXPECT_EQ(stats.Find("schema")->AsString(), "msn-service-stats-v2");
  // One DP execution for two requests — both by the service counter and
  // by the merged registry's msri.total invocation count.
  EXPECT_DOUBLE_EQ(stats.Find("requests")->Find("dp_runs")->AsNumber(),
                   1.0);
  EXPECT_DOUBLE_EQ(stats.Find("cache")->Find("hits")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(stats.Find("registry")
                       ->Find("timers")
                       ->Find("msri.total")
                       ->Find("calls")
                       ->AsNumber(),
                   1.0);
}

TEST(Server, ContainsBadInputWithoutDying) {
  const Technology tech = SmallTech();
  Server server(tech, ServerOptions{});
  for (const std::string& line : {
           std::string("not json at all"),
           std::string("{\"id\":\"x\"}"),
           std::string("{\"op\":\"frobnicate\"}"),
           std::string("{\"op\":\"optimize\",\"net\":\"garbage\"}"),
           std::string("{\"op\":\"optimize\"}"),
       }) {
    const JsonValue response = JsonValue::Parse(server.HandleLine(line));
    EXPECT_FALSE(response.Find("ok")->AsBool()) << line;
    EXPECT_NE(response.Find("error"), nullptr) << line;
  }
  // The loop is still alive and serving.
  const JsonValue ok = JsonValue::Parse(
      server.HandleLine(OptimizeLine("ok", NetText(ExperimentNet(10)))));
  EXPECT_TRUE(ok.Find("ok")->AsBool());
  std::ostringstream stats_os;
  server.WriteStatsJson(stats_os);
  const JsonValue stats = JsonValue::Parse(stats_os.str());
  EXPECT_DOUBLE_EQ(stats.Find("requests")->Find("errors")->AsNumber(),
                   5.0);
  EXPECT_DOUBLE_EQ(stats.Find("requests")->Find("ok")->AsNumber(), 1.0);
}

TEST(Server, SpecPickMatchesMinCostFeasible) {
  const Technology tech = SmallTech();
  Server server(tech, ServerOptions{});
  const std::string net = NetText(ExperimentNet(11));
  const std::string loose = server.HandleLine(
      "{\"op\":\"optimize\",\"net\":\"" + obs::JsonEscape(net) +
      "\",\"spec_ps\":1e12}");
  const JsonValue v = JsonValue::Parse(loose);
  ASSERT_TRUE(v.Find("pick")->IsArray());
  // A spec met by every point picks the cheapest one.
  EXPECT_DOUBLE_EQ(v.Find("pick")->AsArray()[0].AsNumber(),
                   v.Find("min_cost")->AsArray()[0].AsNumber());
  const std::string tight = server.HandleLine(
      "{\"op\":\"optimize\",\"net\":\"" + obs::JsonEscape(net) +
      "\",\"spec_ps\":0.001}");
  EXPECT_TRUE(JsonValue::Parse(tight).Find("pick")->IsNull());
}

TEST(Server, ServeMixedTrafficConcurrently) {
  const Technology tech = SmallTech();
  ServerOptions options;
  options.jobs = 4;
  Server server(tech, options);

  constexpr int kNets = 3;
  constexpr int kDup = 3;
  std::ostringstream in_os;
  for (int d = 0; d < kDup; ++d) {
    for (int n = 0; n < kNets; ++n) {
      in_os << OptimizeLine(
                   std::string("n").append(std::to_string(n)),
                   NetText(ExperimentNet(
                       static_cast<std::uint64_t>(20 + n))))
            << '\n';
    }
  }
  in_os << "{\"op\":\"stats\",\"id\":\"s\"}\n"
        << "{\"op\":\"shutdown\",\"id\":\"x\"}\n";
  std::istringstream in(in_os.str());
  std::ostringstream out;
  EXPECT_TRUE(server.Serve(in, out));

  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), kNets * kDup + 2u);

  // Every duplicate of a net answered byte-identically, regardless of
  // scheduling; each distinct net ran the DP exactly once.
  for (int n = 0; n < kNets; ++n) {
    const std::string tag = "\"id\":\"n" + std::to_string(n) + "\"";
    std::vector<std::string> group;
    for (const std::string& line : lines) {
      if (line.find(tag) != std::string::npos) group.push_back(line);
    }
    ASSERT_EQ(group.size(), static_cast<std::size_t>(kDup)) << tag;
    EXPECT_EQ(StripTraceId(group[0]), StripTraceId(group[1]));
    EXPECT_EQ(StripTraceId(group[0]), StripTraceId(group[2]));
    EXPECT_TRUE(JsonValue::Parse(group[0]).Find("ok")->AsBool());
  }
  for (const std::string& line : lines) {
    if (line.find("\"id\":\"s\"") == std::string::npos) continue;
    const JsonValue stats = JsonValue::Parse(line);
    EXPECT_DOUBLE_EQ(
        stats.Find("requests")->Find("dp_runs")->AsNumber(), kNets);
    EXPECT_DOUBLE_EQ(stats.Find("cache")->Find("hits")->AsNumber(),
                     kNets * (kDup - 1));
  }
}

TEST(Server, ExpiredDeadlineTimesOutWithoutDisturbingOthers) {
  const Technology tech = SmallTech();
  ServerOptions options;
  options.jobs = 2;
  Server server(tech, options);
  const std::string net = NetText(ExperimentNet(30));
  std::istringstream in(
      OptimizeLine("live", net) + "\n" +
      "{\"op\":\"optimize\",\"id\":\"dead\",\"net\":\"" +
      obs::JsonEscape(net) + "\",\"deadline_ms\":0}\n" +
      "{\"op\":\"stats\",\"id\":\"s\"}\n{\"op\":\"shutdown\"}\n");
  std::ostringstream out;
  EXPECT_TRUE(server.Serve(in, out));
  bool saw_live = false;
  bool saw_dead = false;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) {
    if (line.find("\"id\":\"live\"") != std::string::npos) {
      saw_live = true;
      EXPECT_TRUE(JsonValue::Parse(line).Find("ok")->AsBool()) << line;
    }
    if (line.find("\"id\":\"dead\"") != std::string::npos) {
      saw_dead = true;
      const JsonValue v = JsonValue::Parse(line);
      EXPECT_FALSE(v.Find("ok")->AsBool());
      EXPECT_TRUE(v.Find("timeout")->AsBool());
    }
    if (line.find("\"id\":\"s\"") != std::string::npos) {
      const JsonValue stats = JsonValue::Parse(line);
      EXPECT_DOUBLE_EQ(
          stats.Find("requests")->Find("timeouts")->AsNumber(), 1.0);
    }
  }
  EXPECT_TRUE(saw_live);
  EXPECT_TRUE(saw_dead);
}

TEST(Server, CoalescesConcurrentDuplicatesIntoOneDpRun) {
  // The coalescing property under real concurrency: N threads (standing
  // in for N connections — HandleLine is the same shared entry the
  // per-connection serve threads use) submit the identical request at
  // once.  Exactly one DP may run; every caller must get byte-identical
  // bytes, whether it was the owner, a coalesced waiter, or a late
  // cache hit.
  const Technology tech = SmallTech();
  ServerOptions options;
  options.jobs = 4;
  Server server(tech, options);
  const std::string line = OptimizeLine("c", NetText(ExperimentNet(40, 6)));

  constexpr std::size_t kClients = 8;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back(
        [&server, &responses, &line, i] {
          responses[i] = server.HandleLine(line);
        });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_TRUE(JsonValue::Parse(responses[0]).Find("ok")->AsBool())
      << responses[0];
  for (std::size_t i = 1; i < kClients; ++i) {
    EXPECT_EQ(StripTraceId(responses[0]), StripTraceId(responses[i]))
        << "client " << i;
  }
  std::ostringstream stats_os;
  server.WriteStatsJson(stats_os);
  const JsonValue stats = JsonValue::Parse(stats_os.str());
  EXPECT_DOUBLE_EQ(stats.Find("requests")->Find("dp_runs")->AsNumber(),
                   1.0);
  EXPECT_DOUBLE_EQ(stats.Find("registry")
                       ->Find("timers")
                       ->Find("msri.total")
                       ->Find("calls")
                       ->AsNumber(),
                   1.0);
}

TEST(Server, FlushForcesRecomputeWithIdenticalBytes) {
  const Technology tech = SmallTech();
  Server server(tech, ServerOptions{});
  const std::string line = OptimizeLine("f", NetText(ExperimentNet(31)));
  const std::string first = server.HandleLine(line);
  const JsonValue flushed =
      JsonValue::Parse(server.HandleLine("{\"op\":\"flush\"}"));
  EXPECT_TRUE(flushed.Find("ok")->AsBool());
  const std::string third = server.HandleLine(line);
  // recompute must reproduce the bytes (modulo the per-request trace id)
  EXPECT_EQ(StripTraceId(first), StripTraceId(third));
  std::ostringstream stats_os;
  server.WriteStatsJson(stats_os);
  const JsonValue stats = JsonValue::Parse(stats_os.str());
  EXPECT_DOUBLE_EQ(stats.Find("requests")->Find("dp_runs")->AsNumber(),
                   2.0);
  EXPECT_DOUBLE_EQ(stats.Find("cache")->Find("flushes")->AsNumber(), 1.0);
}

}  // namespace
}  // namespace msn
