// closure: timing closure on a generated 400-net design (4-12 terminals,
// required_factor 0.75).  Each round loads one design and runs
// CloseTiming at jobs = 2 against an empty cache_dir (the cold run, DP
// bound, fanned out by the runtime batch engine), then reruns it
// kWarmReruns times against the now-filled cache_dir (the warm runs: no
// DP, bound by design load, parse, canonicalize, segment replay and
// timing-graph propagation).
//
// Every round runs the same design, generator seed 1, whatever the
// benchmark seed: per-design cold time is heavy-tailed (0.3 s to 4.9 s
// over generator seeds 1..64), so seed-drawn designs would move the
// closure metrics by more than their bounds (perfbench/METRICS.md).
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "io/netfile.h"
#include "netgen/design_gen.h"
#include "runtime/batch.h"
#include "service/cache.h"
#include "service/canonical.h"
#include "service/persist.h"
#include "sta/closure.h"
#include "sta/design.h"
#include "sta/timing_graph.h"
#include "tech/tech.h"

namespace msn::perfbench {
namespace {

constexpr std::uint64_t kDesignSeed = 1;
constexpr std::size_t kWarmReruns = 4;
constexpr std::size_t kJobs = 2;

DesignConfig Config() {
  DesignConfig cfg;
  cfg.seed = kDesignSeed;
  cfg.num_nets = 400;
  cfg.terminals_min = 4;
  cfg.terminals_max = 12;
  cfg.required_factor = 0.75;
  return cfg;
}

/// Generates the design, writes it under `dir` (over an earlier copy, if
/// any) and returns the `.msd` path.
std::string WriteDesign(const Technology& tech, const std::string& dir) {
  return WriteDesignFiles(GenerateDesign(Config(), tech), dir);
}

/// WriteClosureReport output without the iteration table's cache columns
/// (hits, misses, dp_runs), which differ between a cold and a warm run by
/// design; everything else must be byte-identical.
std::string WithoutCacheColumns(const std::string& report) {
  std::istringstream is(report);
  std::string out;
  bool in_table = false;
  for (std::string line; std::getline(is, line);) {
    if (line.rfind("iter ", 0) == 0) {
      in_table = true;
    } else if (line.empty()) {
      in_table = false;
    }
    if (in_table) {
      for (int i = 0; i < 3; ++i) {
        const std::size_t cut =
            line.find_last_of(' ', line.find_last_not_of(' '));
        line.resize(cut == std::string::npos ? 0 : cut);
      }
      line.resize(line.find_last_not_of(' ') + 1);
    }
    out += line + '\n';
  }
  return out;
}

sta::ClosureOptions Options(const std::string& cache_dir) {
  sta::ClosureOptions opt;
  opt.jobs = kJobs;
  opt.cache_dir = cache_dir;
  return opt;
}

std::uint64_t CounterOr0(const obs::RunStats& reg, const std::string& name) {
  const auto it = reg.Counters().find(name);
  return it == reg.Counters().end() ? 0 : it->second.Value();
}

struct ClosureRun {
  sta::Design design;
  sta::ClosureResult result;
  std::string report;
  double load_ms = 0.0;
  double total_ms = 0.0;
};

/// LoadDesign + CloseTiming, timed together as a user runs them.
ClosureRun RunClosureOnce(const std::string& msd, const Technology& tech,
                          const std::string& cache_dir) {
  ClosureRun run;
  const auto start = Clock::now();
  run.design = sta::LoadDesign(msd);
  run.load_ms = MsSince(start);
  run.result = sta::CloseTiming(run.design, tech, Options(cache_dir));
  run.total_ms = MsSince(start);
  std::ostringstream os;
  sta::WriteClosureReport(os, run.result);
  run.report = os.str();
  return run;
}

/// Per-layer calls made after a traced round: each module's public
/// entry point timed on the round's design and filled cache.
void MeasureLayers(const ClosureRun& cold, const Technology& tech,
                   const std::string& msd, const std::string& cache_dir,
                   Report* report) {
  const sta::Design& design = cold.design;
  for (int i = 0; i < 5; ++i) {
    const auto start = Clock::now();
    sta::TimingGraph graph(design);
    graph.Propagate();
    report->Add("timing_graph_ms", MsSince(start));
  }
  const std::filesystem::path base = std::filesystem::path(msd).parent_path();
  const MsriOptions base_options;
  std::vector<service::CanonicalRequest> canon;
  for (const sta::DesignNet& net : design.nets) {
    std::ifstream in(base / net.msn_path);
    std::stringstream text;
    text << in.rdbuf();
    std::istringstream is(text.str());
    auto start = Clock::now();
    const RcTree tree = ReadNet(is);
    report->Add("read_net_us", MsSince(start) * 1e3);
    report->Add("net_bytes", static_cast<double>(text.str().size()));
    start = Clock::now();
    canon.push_back(service::Canonicalize(tree, tech, base_options));
    report->Add("canonical_us", MsSince(start) * 1e3);
  }

  service::PersistConfig persist;
  persist.dir = cache_dir;
  service::SolutionCache fresh{service::CacheConfig{}};
  {
    const auto start = Clock::now();
    service::PersistentCache replayed(service::CacheConfig{}, persist);
    report->values["persist.replay_ms"] = MsSince(start);
    for (const service::CanonicalRequest& c : canon) {
      const auto t = Clock::now();
      const std::optional<MsriSummary> hit = replayed.Lookup(c);
      report->Add("lookup_us", MsSince(t) * 1e3);
      if (!hit.has_value()) continue;
      const auto u = Clock::now();
      fresh.Insert(c, *hit);
      report->Add("insert_us", MsSince(u) * 1e3);
    }
  }

  // The cold run's DP batch again, on its own: the nets it optimized
  // (every failing net of the first iteration), at the same jobs.
  std::vector<runtime::BatchJob> jobs;
  for (std::size_t n = 0; n < design.nets.size(); ++n) {
    const sta::NetClosure& nc = cold.result.nets[n];
    if (std::isfinite(nc.spec_ps) || !nc.error.empty()) {
      jobs.push_back({design.nets[n].name, *design.nets[n].tree, base_options});
    }
  }
  runtime::BatchOptions bopts;
  bopts.jobs = kJobs;
  bopts.collect_stats = true;
  const auto start = Clock::now();
  const runtime::BatchResult batch =
      runtime::OptimizeBatch(std::move(jobs), tech, bopts);
  report->values["batch.wall_ms"] = MsSince(start);
  report->values["batch.jobs"] = static_cast<double>(batch.jobs);
  for (const runtime::NetOutcome& out : batch.nets) {
    report->Add("batch.net_wall_ms", out.wall_ms);
    report->Add("batch.queue_wait_ms", out.queue_wait_ms);
    report->Add("batch.pool_occupancy",
                static_cast<double>(out.pool_occupancy));
  }
}

/// One cold run and kWarmReruns warm runs of the design at `msd`.
void RunRound(const std::string& msd, const Technology& tech,
              const std::string& workdir, const std::string& prefix,
              bool trace, Report* report) {
  const std::string cache_dir = workdir + "/cache";
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);
  const std::string key = "d" + std::to_string(kDesignSeed);

  Probe(report, prefix);
  ++report->attempted;
  const ClosureRun cold = RunClosureOnce(msd, tech, cache_dir);
  // Not AddTimed: the probe measures the core this thread runs on, and
  // the cold run's DP runs on three.
  report->Add(prefix + "cold_ms", cold.total_ms);
  report->Add(prefix + "load_design_ms", cold.load_ms);
  report->CheckDigest(key, Digest(cold.report));
  const std::string cold_results = WithoutCacheColumns(cold.report);
  if (CounterOr0(cold.result.registry, "sta.dp_runs") == 0) {
    report->Fail(key + ": the cold run ran no DP");
  }
  for (std::size_t w = 0; w < kWarmReruns; ++w) {
    Probe(report, prefix);
    ++report->attempted;
    const ClosureRun warm = RunClosureOnce(msd, tech, cache_dir);
    report->AddTimed(prefix, "warm_ms", warm.total_ms);
    report->Add(prefix + "load_design_ms", warm.load_ms);
    if (WithoutCacheColumns(warm.report) != cold_results) {
      report->Fail(key + ": warm report differs from the cold report");
    }
    const std::uint64_t misses =
        CounterOr0(warm.result.registry, "sta.cache_misses");
    if (misses != 0) {
      report->Fail(key + ": warm run missed the cache " +
                   std::to_string(misses) + " times");
    }
    const std::uint64_t dp = CounterOr0(warm.result.registry, "sta.dp_runs");
    if (dp != 0) {
      report->Fail(key + ": warm run made " + std::to_string(dp) +
                   " DP runs");
    }
    if (trace && w == 0) {
      report->documents["warm_registry"] = warm.result.registry.JsonString();
    }
  }
  if (trace) {
    report->documents["cold_registry"] = cold.result.registry.JsonString();
    MeasureLayers(cold, tech, msd, cache_dir, report);
  }
}

}  // namespace

Report RunClosure(const RunConfig& config) {
  Report report;
  const Technology tech = DefaultTechnology();
  const std::string dir = config.workdir + "/closure";
  std::filesystem::remove_all(dir);
  const std::string msd = TimedSetup(
      &report, [&] { return WriteDesign(tech, dir + "/design"); });
  report.values["jobs"] = static_cast<double>(kJobs);
  if (!config.trace) {
    const auto start = Clock::now();
    do {
      RunRound(msd, tech, dir, "", false, &report);
    } while (MsSince(start) < config.seconds * 1e3);
  } else {
    // Closure instruments every run (its registry is always on), so the
    // traced round differs from the untraced one only by the per-layer
    // calls made after its timed runs.
    RunRound(msd, tech, dir, "untraced.", false, &report);
    RunRound(msd, tech, dir, "", true, &report);
  }
  std::filesystem::remove_all(dir);
  return report;
}

Report ClosureReference(const std::string& workdir) {
  Report report;
  const Technology tech = DefaultTechnology();
  const std::string dir = workdir + "/closure";
  std::filesystem::remove_all(dir);
  RunRound(WriteDesign(tech, dir + "/design"), tech, dir, "", false, &report);
  std::filesystem::remove_all(dir);
  return report;
}

}  // namespace msn::perfbench
