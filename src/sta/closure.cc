#include "sta/closure.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "common/check.h"
#include "core/ard.h"
#include "runtime/batch.h"
#include "service/persist.h"

namespace msn::sta {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string FmtPs(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << v;
  return os.str();
}

}  // namespace

ClosureResult CloseTiming(const Design& design, const Technology& tech,
                          const ClosureOptions& options) {
  MSN_CHECK_MSG(options.jobs >= 1, "jobs must be >= 1");
  MSN_CHECK_MSG(options.max_iters >= 1, "max_iters must be >= 1");
  MSN_CHECK_MSG(options.base.stats == nullptr &&
                    options.base.trace == nullptr &&
                    !options.base.set_observer,
                "closure owns instrumentation; base options must not "
                "carry stats/trace/set_observer hooks");

  ClosureResult result;
  result.jobs = options.jobs;
  result.max_iters = options.max_iters;

  TimingGraph graph(design);

  // Initial delay annotation: each net's unoptimized ARD.
  result.nets.resize(design.nets.size());
  for (std::size_t n = 0; n < design.nets.size(); ++n) {
    const double ard = ComputeArd(*design.nets[n].tree, tech).ard_ps;
    result.nets[n].name = design.nets[n].name;
    result.nets[n].initial_delay_ps = ard;
    result.nets[n].spec_ps = kInf;
    graph.SetNetDelayPs(n, ard);
  }

  // One canonical request per net, computed once: the DP input never
  // changes across iterations (the derived spec only selects a frontier
  // point), so repeated iterations and repeat processes share
  // fingerprints.
  std::vector<service::CanonicalRequest> canon;
  canon.reserve(design.nets.size());
  for (const DesignNet& net : design.nets) {
    canon.push_back(service::Canonicalize(*net.tree, tech, options.base));
  }

  service::PersistConfig persist;
  persist.dir = options.cache_dir;
  service::PersistentCache cache(options.cache, persist);

  std::vector<bool> errored(design.nets.size(), false);
  std::size_t effective_k = options.nets_per_iter;

  for (std::size_t iter = 0; iter < options.max_iters; ++iter) {
    options.base.cancel.Check();
    graph.Propagate();

    IterationStats it;
    it.worst_slack_ps = graph.WorstSlackPs();
    for (const EndpointSlack& s : graph.EndpointSlacks()) {
      if (s.slack_ps < 0.0) ++it.failing_endpoints;
    }
    // Failing nets, most critical first (selectable = not errored).
    struct Ranked {
      double slack;
      std::size_t net;
    };
    std::vector<Ranked> selectable;
    for (std::size_t n = 0; n < design.nets.size(); ++n) {
      const double slack = graph.NetWorstSlackPs(n);
      if (slack >= 0.0) continue;
      ++it.failing_nets;
      if (!errored[n]) selectable.push_back(Ranked{slack, n});
    }

    if (it.worst_slack_ps >= 0.0) {
      result.timing_met = true;
      result.converged = true;
      result.iterations.push_back(it);
      break;
    }
    if (selectable.empty()) {
      // Endpoints still fail but no net can improve (all clean or all
      // errored): nothing more to do.
      result.converged = true;
      result.iterations.push_back(it);
      break;
    }

    std::sort(selectable.begin(), selectable.end(),
              [](const Ranked& a, const Ranked& b) {
                if (a.slack != b.slack) return a.slack < b.slack;
                return a.net < b.net;
              });
    const std::size_t k =
        effective_k == 0 ? selectable.size()
                         : std::min(effective_k, selectable.size());
    std::vector<std::size_t> selected;
    selected.reserve(k);
    for (std::size_t i = 0; i < k; ++i) selected.push_back(selectable[i].net);
    // Cache traffic and delay updates run on this thread in net-index
    // order — the determinism contract.
    std::sort(selected.begin(), selected.end());
    it.nets_examined = selected.size();

    // Resolve each selected net's frontier: warm lookup or batch DP.
    std::map<std::size_t, MsriSummary> frontier;
    std::vector<std::size_t> misses;
    for (const std::size_t n : selected) {
      if (auto warm = cache.Lookup(canon[n])) {
        frontier.emplace(n, std::move(*warm));
        ++it.cache_hits;
      } else {
        ++it.cache_misses;
        misses.push_back(n);
      }
    }
    if (!misses.empty()) {
      std::vector<runtime::BatchJob> jobs;
      jobs.reserve(misses.size());
      for (const std::size_t n : misses) {
        jobs.push_back(runtime::BatchJob{design.nets[n].name,
                                         *design.nets[n].tree,
                                         options.base});
      }
      runtime::BatchOptions bopts;
      bopts.jobs = options.jobs;
      bopts.collect_stats = true;
      runtime::BatchResult batch =
          runtime::OptimizeBatch(std::move(jobs), tech, bopts);
      it.dp_runs = misses.size();
      result.registry.MergeFrom(batch.aggregate);
      for (std::size_t i = 0; i < misses.size(); ++i) {
        const std::size_t n = misses[i];
        if (batch.nets[i].ok) {
          MsriSummary summary = Summarize(batch.nets[i].result);
          cache.Insert(canon[n], summary);
          frontier.emplace(n, std::move(summary));
        } else {
          errored[n] = true;
          result.nets[n].error = batch.nets[i].error;
        }
      }
    }

    // Pick a frontier point per net and lower its delay annotation.
    // Monotone by construction: new = min(old, pick.ard).
    for (const std::size_t n : selected) {
      const auto found = frontier.find(n);
      if (found == frontier.end()) continue;  // Contained DP failure.
      const MsriSummary& summary = found->second;
      const double spec = graph.NetSpecPs(n);
      const TradeoffSummary* pick = summary.MinCostFeasible(spec);
      if (pick == nullptr) pick = summary.MinArd();
      if (pick == nullptr) {
        errored[n] = true;
        result.nets[n].error = "empty tradeoff frontier";
        continue;
      }
      result.nets[n].spec_ps = spec;
      if (pick->ard_ps < graph.NetDelayPs(n)) {
        graph.SetNetDelayPs(n, pick->ard_ps);
        result.nets[n].optimized = true;
        ++it.nets_optimized;
      }
    }

    result.iterations.push_back(it);
    if (it.nets_optimized == 0) {
      if (k >= selectable.size()) {
        // Every failing net was examined and none improved: the loop
        // has extracted everything the frontiers offer.
        result.converged = true;
        break;
      }
      // Widen the window before giving up on the remaining nets.
      effective_k *= 2;
    }
  }

  graph.Propagate();
  result.final_worst_slack_ps = graph.WorstSlackPs();
  result.endpoint_slacks = graph.EndpointSlacks();
  for (std::size_t n = 0; n < design.nets.size(); ++n) {
    result.nets[n].final_delay_ps = graph.NetDelayPs(n);
    result.nets[n].slack_ps = graph.NetWorstSlackPs(n);
  }

  cache.Sync();
  result.cache = cache.Snapshot();
  cache.ExportStats(&result.registry);

  obs::RunStats& reg = result.registry;
  std::uint64_t hits = 0, misses = 0, dp_runs = 0, optimized = 0;
  for (const IterationStats& it : result.iterations) {
    hits += it.cache_hits;
    misses += it.cache_misses;
    dp_runs += it.dp_runs;
    optimized += it.nets_optimized;
  }
  reg.GetCounter("sta.iterations").Add(result.iterations.size());
  reg.GetCounter("sta.cache_hits").Add(hits);
  reg.GetCounter("sta.cache_misses").Add(misses);
  reg.GetCounter("sta.dp_runs").Add(dp_runs);
  reg.GetCounter("sta.nets_optimized").Add(optimized);
  reg.SetValue("sta.final_worst_slack_ps", result.final_worst_slack_ps);
  reg.SetValue("sta.converged", result.converged ? 1.0 : 0.0);
  reg.SetValue("sta.timing_met", result.timing_met ? 1.0 : 0.0);
  return result;
}

void WriteClosureReport(std::ostream& os, const ClosureResult& result) {
  std::size_t endpoints = result.endpoint_slacks.size();
  os << "timing closure: " << result.nets.size() << " nets, " << endpoints
     << " endpoints, " << result.iterations.size() << " iterations (cap "
     << result.max_iters << ")\n\n";

  os << std::setw(4) << "iter" << std::setw(16) << "worst_slack_ps"
     << std::setw(12) << "failing_ep" << std::setw(14) << "failing_nets"
     << std::setw(10) << "examined" << std::setw(10) << "optimized"
     << std::setw(8) << "hits" << std::setw(8) << "misses" << std::setw(9)
     << "dp_runs" << '\n';
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const IterationStats& it = result.iterations[i];
    os << std::setw(4) << i << std::setw(16) << FmtPs(it.worst_slack_ps)
       << std::setw(12) << it.failing_endpoints << std::setw(14)
       << it.failing_nets << std::setw(10) << it.nets_examined
       << std::setw(10) << it.nets_optimized << std::setw(8)
       << it.cache_hits << std::setw(8) << it.cache_misses << std::setw(9)
       << it.dp_runs << '\n';
  }
  os << "\nconverged: " << (result.converged ? "yes" : "no")
     << "  timing met: " << (result.timing_met ? "yes" : "no")
     << "  final worst slack: " << FmtPs(result.final_worst_slack_ps)
     << " ps\n\n";

  os << "endpoints:\n";
  os << std::setw(20) << "endpoint" << std::setw(14) << "arrival_ps"
     << std::setw(14) << "required_ps" << std::setw(14) << "slack_ps"
     << '\n';
  for (const EndpointSlack& s : result.endpoint_slacks) {
    os << std::setw(20) << s.name << std::setw(14) << FmtPs(s.arrival_ps)
       << std::setw(14) << FmtPs(s.required_ps) << std::setw(14)
       << FmtPs(s.slack_ps) << '\n';
  }

  os << "\nnets:\n";
  os << std::setw(20) << "net" << std::setw(14) << "initial_ps"
     << std::setw(14) << "final_ps" << std::setw(14) << "spec_ps"
     << std::setw(14) << "slack_ps" << "  note\n";
  for (const NetClosure& n : result.nets) {
    os << std::setw(20) << n.name << std::setw(14)
       << FmtPs(n.initial_delay_ps) << std::setw(14)
       << FmtPs(n.final_delay_ps) << std::setw(14) << FmtPs(n.spec_ps)
       << std::setw(14) << FmtPs(n.slack_ps) << "  ";
    if (!n.error.empty()) {
      os << "error: " << n.error;
    } else if (n.optimized) {
      os << "optimized";
    } else {
      os << "-";
    }
    os << '\n';
  }
}

void WriteClosureStatsJson(std::ostream& os, const ClosureResult& result,
                           const std::string& design_label) {
  using obs::JsonEscape;
  using obs::JsonNumber;

  std::uint64_t hits = 0, misses = 0, dp_runs = 0;
  for (const IterationStats& it : result.iterations) {
    hits += it.cache_hits;
    misses += it.cache_misses;
    dp_runs += it.dp_runs;
  }

  os << "{\"schema\":\"msn-sta-stats-v1\"";
  os << ",\"design\":\"" << JsonEscape(design_label) << '"';
  os << ",\"jobs\":" << result.jobs;
  os << ",\"nets\":" << result.nets.size();
  os << ",\"endpoints\":" << result.endpoint_slacks.size();
  os << ",\"max_iters\":" << result.max_iters;
  os << ",\"iterations\":[";
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const IterationStats& it = result.iterations[i];
    if (i != 0) os << ',';
    os << "{\"worst_slack_ps\":" << JsonNumber(it.worst_slack_ps)
       << ",\"failing_endpoints\":" << it.failing_endpoints
       << ",\"failing_nets\":" << it.failing_nets
       << ",\"nets_examined\":" << it.nets_examined
       << ",\"nets_optimized\":" << it.nets_optimized
       << ",\"cache_hits\":" << it.cache_hits
       << ",\"cache_misses\":" << it.cache_misses
       << ",\"dp_runs\":" << it.dp_runs << '}';
  }
  os << ']';
  os << ",\"converged\":" << (result.converged ? "true" : "false");
  os << ",\"timing_met\":" << (result.timing_met ? "true" : "false");
  os << ",\"final_worst_slack_ps\":"
     << JsonNumber(result.final_worst_slack_ps);
  os << ",\"total_cache_hits\":" << hits;
  os << ",\"total_cache_misses\":" << misses;
  os << ",\"total_dp_runs\":" << dp_runs;
  os << ",\"cache\":{\"hits\":" << result.cache.hits
     << ",\"misses\":" << result.cache.misses
     << ",\"insertions\":" << result.cache.insertions
     << ",\"evictions\":" << result.cache.evictions
     << ",\"collisions\":" << result.cache.collisions
     << ",\"entries\":" << result.cache.entries
     << ",\"bytes\":" << result.cache.bytes << '}';

  // Final endpoint slack histogram: fixed equal-width buckets spanning
  // the finite slacks ([bound, count] pairs, bounds strictly increasing,
  // counts summing to the endpoint total; +inf slacks clamp into the
  // last bucket).
  os << ",\"slack_histogram\":[";
  if (!result.endpoint_slacks.empty()) {
    double lo = kInf, hi = -kInf;
    for (const EndpointSlack& s : result.endpoint_slacks) {
      if (!std::isfinite(s.slack_ps)) continue;
      lo = std::min(lo, s.slack_ps);
      hi = std::max(hi, s.slack_ps);
    }
    if (lo == kInf) {  // No finite slack at all.
      lo = 0.0;
      hi = 1.0;
    }
    lo = std::floor(lo);
    hi = std::ceil(hi);
    if (hi <= lo) hi = lo + 1.0;
    constexpr std::size_t kBuckets = 8;
    const double width = (hi - lo) / static_cast<double>(kBuckets);
    std::uint64_t counts[kBuckets] = {};
    for (const EndpointSlack& s : result.endpoint_slacks) {
      std::size_t b = kBuckets - 1;
      if (std::isfinite(s.slack_ps)) {
        const double raw = std::floor((s.slack_ps - lo) / width);
        if (raw < 0.0) {
          b = 0;
        } else if (raw < static_cast<double>(kBuckets)) {
          b = static_cast<std::size_t>(raw);
        }
      }
      ++counts[b];
    }
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (b != 0) os << ',';
      os << '[' << JsonNumber(lo + width * static_cast<double>(b + 1))
         << ',' << counts[b] << ']';
    }
  }
  os << ']';
  os << ",\"registry\":" << result.registry.JsonString();
  os << "}\n";
}

}  // namespace msn::sta
