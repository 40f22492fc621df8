// msri_table4: serial RunMsri, no cache, on the paper's Table-IV nets
// (20 random pins on a 1 cm grid, insertion points <= 800 um apart), in
// repeater-insertion mode and in 1X-4X driver-sizing mode.
//
// The nets are Table IV's: seeds 1..kNets, as bench_table4 runs them.  The
// set is fixed and the benchmark seed only orders each pass, because
// per-net DP cost is heavy-tailed (28 ms to 4.9 s over seeds 1..120), so
// a seed-chosen subset that fits a run would move nets/s by more than
// the metric's bound (perfbench/METRICS.md).
#include <cmath>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/ard.h"
#include "core/msri.h"
#include "netgen/netgen.h"
#include "obs/stats.h"
#include "tech/tech.h"

namespace msn::perfbench {
namespace {

constexpr std::uint64_t kNets = 10;
constexpr std::size_t kTerminals = 20;

RcTree BuildNet(std::uint64_t seed, const Technology& tech) {
  NetConfig cfg;
  cfg.seed = seed;
  cfg.num_terminals = kTerminals;
  cfg.insertion_spacing_um = 800.0;
  return BuildExperimentNet(cfg, tech);
}

MsriOptions SizingOptions(const Technology& tech) {
  MsriOptions opt;
  opt.insert_repeaters = false;
  opt.size_drivers = true;
  opt.sizing_library = DriverSizingLibrary(tech, {1.0, 2.0, 3.0, 4.0});
  return opt;
}

/// The frontier as the service renders it: (cost, ard_ps, repeaters).
std::string FrontierText(const MsriSummary& summary) {
  std::ostringstream os;
  for (const TradeoffSummary& p : summary.pareto) {
    os << obs::JsonNumber(p.cost) << ',' << obs::JsonNumber(p.ard_ps) << ','
       << p.num_repeaters << ';';
  }
  return os.str();
}

struct Inputs {
  Technology tech;
  MsriOptions sizing;
  std::vector<RcTree> trees;
};

Inputs BuildInputs() {
  Inputs in{DefaultTechnology(), {}, {}};
  in.sizing = SizingOptions(in.tech);
  for (std::uint64_t seed = 1; seed <= kNets; ++seed) {
    in.trees.push_back(BuildNet(seed, in.tech));
  }
  return in;
}

/// Per-mode registries filled by a traced pass.
struct Registries {
  obs::RunStats repeater;
  obs::RunStats sizing;
};

/// One DP run on net seed i + 1: timed, then checked (digest + ComputeArd
/// on MinArd).
void RunOne(const Inputs& in, std::size_t i, bool sizing,
            const std::string& prefix, Report* report, obs::RunStats* trace) {
  MsriOptions opt = sizing ? in.sizing : MsriOptions{};
  std::optional<obs::StatsSink> sink;
  if (trace != nullptr) {
    sink.emplace(trace);
    opt.stats = &*sink;
  }
  const RcTree& tree = in.trees[i];
  const std::string sample = sizing ? "sizing_ms" : "repeater_ms";
  Probe(report, prefix);
  ++report->attempted;
  const auto start = Clock::now();
  const MsriResult result = RunMsri(tree, in.tech, opt);
  report->AddTimed(prefix, sample, MsSince(start));
  report->Add(prefix + sample + ".net", static_cast<double>(i + 1));

  const auto sum_start = Clock::now();
  const MsriSummary summary = Summarize(result);
  report->Add("summarize_us", MsSince(sum_start) * 1e3);
  const std::string key = (sizing ? "s" : "r") + std::to_string(i + 1);
  report->CheckDigest(key, Digest(FrontierText(summary)));

  const TradeoffPoint* best = result.MinArd();
  if (best == nullptr) {
    report->Fail(key + ": empty frontier");
    return;
  }
  const auto ard_start = Clock::now();
  const double ard =
      ComputeArd(tree, best->repeaters, best->drivers, in.tech).ard_ps;
  report->Add("ard_verify_us", MsSince(ard_start) * 1e3);
  if (!(std::fabs(ard - best->ard_ps) <= 1e-6 * std::max(1.0, ard))) {
    std::ostringstream msg;
    msg << key << ": MinArd reports " << best->ard_ps
        << " ps but ComputeArd gives " << ard << " ps";
    report->Fail(msg.str());
  }
}

/// Every net in both modes, in a seeded order; returns the pass wall
/// time in ms.
double RunPass(const Inputs& in, Rng* order, const std::string& prefix,
               Report* report, Registries* regs) {
  std::vector<std::size_t> nets(in.trees.size());
  for (std::size_t i = 0; i < nets.size(); ++i) nets[i] = i;
  order->Shuffle(&nets);
  const auto start = Clock::now();
  for (const std::size_t i : nets) {
    RunOne(in, i, false, prefix, report,
           regs != nullptr ? &regs->repeater : nullptr);
    RunOne(in, i, true, prefix, report,
           regs != nullptr ? &regs->sizing : nullptr);
  }
  return MsSince(start);
}

}  // namespace

Report RunMsriTable4(const RunConfig& config) {
  Report report;
  const Inputs in = TimedSetup(&report, BuildInputs);
  Rng order(MixSeed(config.seed, 2));
  if (!config.trace) {
    const auto start = Clock::now();
    do {
      RunPass(in, &order, "", &report, nullptr);
    } while (MsSince(start) < config.seconds * 1e3);
    return report;
  }
  // Traced run: two passes untraced, then two with a StatsSink on every
  // DP, so the sink's cost shows as trace.overhead_ratio.
  for (int pass = 0; pass < 2; ++pass) {
    RunPass(in, &order, "untraced.", &report, nullptr);
  }
  Registries regs;
  for (int pass = 0; pass < 2; ++pass) {
    RunPass(in, &order, "", &report, &regs);
  }
  report.documents["repeater_registry"] = regs.repeater.JsonString();
  report.documents["sizing_registry"] = regs.sizing.JsonString();
  return report;
}

Report MsriReference() {
  Report report;
  const Inputs in = BuildInputs();
  Rng order(1);
  RunPass(in, &order, "", &report, nullptr);
  return report;
}

}  // namespace msn::perfbench
