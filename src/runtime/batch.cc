#include "runtime/batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "io/netfile.h"
#include "io/table.h"
#include "runtime/thread_pool.h"

namespace msn::runtime {
namespace {

/// One unit of the shared batch loop: either an in-memory tree or a path
/// parsed inside the task (so parse failures are contained per net).
struct PreparedJob {
  std::string name;
  const RcTree* tree = nullptr;
  const std::string* path = nullptr;
  const MsriOptions* options = nullptr;
};

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

BatchResult RunBatch(const std::vector<PreparedJob>& prepared,
                     const Technology& tech, const BatchOptions& options) {
  BatchResult batch;
  batch.jobs = std::max<std::size_t>(1, options.jobs);
  batch.nets.resize(prepared.size());

  ThreadPool pool(batch.jobs);
  // Occupancy telemetry only; results never depend on it.
  std::atomic<std::size_t> running{0};
  {
    TaskGroup group(&pool);
    for (std::size_t i = 0; i < prepared.size(); ++i) {
      const auto submitted = std::chrono::steady_clock::now();
      group.Run([&batch, &prepared, &tech, &options, &running, i, submitted] {
        const PreparedJob& job = prepared[i];
        NetOutcome& out = batch.nets[i];
        out.name = job.name;
        const auto started = std::chrono::steady_clock::now();
        out.queue_wait_ms = MsBetween(submitted, started);
        out.pool_occupancy = running.fetch_add(1) + 1;

        // The sink lives in the outcome slot: thread-confined until the
        // group barrier, merged into the aggregate afterwards.
        std::optional<obs::StatsSink> sink;
        MsriOptions opt = *job.options;
        if (options.collect_stats) {
          sink.emplace(&out.stats);
          opt.stats = &*sink;
          out.stats.SetLabel("net", out.name);
        }
        try {
          if (job.path != nullptr) {
            std::ifstream in(*job.path);
            MSN_CHECK_MSG(in.good(), "cannot open '" << *job.path << "'");
            const RcTree tree = ReadNet(in);
            out.result = RunMsri(tree, tech, opt);
          } else {
            out.result = RunMsri(*job.tree, tech, opt);
          }
          out.ok = true;
        } catch (const std::exception& e) {
          // Containment: this net reports a structured error, the rest
          // of the batch is unaffected.
          out.error = e.what();
        }
        out.wall_ms = MsBetween(started, std::chrono::steady_clock::now());
        running.fetch_sub(1);
      });
    }
    group.Wait();
  }

  for (std::size_t i = 0; i < batch.nets.size(); ++i) {
    const NetOutcome& out = batch.nets[i];
    if (!out.ok) batch.errors.push_back({i, out.name, out.error});
  }

  // Aggregate registry: merged per-net instruments plus batch-level
  // scheduling telemetry.  Post-barrier, single-threaded.
  obs::RunStats& agg = batch.aggregate;
  obs::Histogram& wall = agg.GetHistogram("batch.net_wall_ms");
  obs::Histogram& wait = agg.GetHistogram("batch.queue_wait_ms");
  obs::Histogram& occupancy = agg.GetHistogram("batch.pool_occupancy");
  for (const NetOutcome& out : batch.nets) {
    wall.Record(out.wall_ms);
    wait.Record(out.queue_wait_ms);
    occupancy.Record(static_cast<double>(out.pool_occupancy));
    if (options.collect_stats) agg.MergeFrom(out.stats);
  }
  agg.SetValue("batch.nets", static_cast<double>(batch.nets.size()));
  agg.SetValue("batch.errors", static_cast<double>(batch.errors.size()));
  agg.SetValue("batch.jobs", static_cast<double>(batch.jobs));
  return batch;
}

void CheckJobOptions(const MsriOptions& options) {
  MSN_CHECK_MSG(options.stats == nullptr,
                "batch jobs must not carry a stats sink — the batch "
                "engine owns per-net sinks (BatchOptions::collect_stats)");
  MSN_CHECK_MSG(options.trace == nullptr,
                "batch jobs must not carry a trace (an obs::Trace belongs "
                "to one thread; nets run on pool threads)");
  MSN_CHECK_MSG(!options.set_observer,
                "batch jobs must not carry a set_observer (the callback "
                "would run on pool threads)");
}

/// Fixed-precision number for the deterministic report.
std::string Num(double v, int precision = 1) {
  return TablePrinter::Num(v, precision);
}

}  // namespace

BatchResult OptimizeBatch(std::vector<BatchJob> jobs,
                          const Technology& tech,
                          const BatchOptions& options) {
  std::vector<PreparedJob> prepared;
  prepared.reserve(jobs.size());
  for (const BatchJob& job : jobs) {
    CheckJobOptions(job.options);
    prepared.push_back({job.name, &job.tree, nullptr, &job.options});
  }
  return RunBatch(prepared, tech, options);
}

BatchResult OptimizeBatchFiles(const std::vector<std::string>& paths,
                               const Technology& tech,
                               const MsriOptions& base_options,
                               const BatchOptions& options) {
  CheckJobOptions(base_options);
  std::vector<PreparedJob> prepared;
  prepared.reserve(paths.size());
  for (const std::string& path : paths) {
    prepared.push_back({path, nullptr, &path, &base_options});
  }
  return RunBatch(prepared, tech, options);
}

std::vector<std::string> CollectNetPaths(
    const std::string& dir_or_manifest) {
  namespace fs = std::filesystem;
  const fs::path input(dir_or_manifest);
  std::vector<std::string> paths;
  if (fs::is_directory(input)) {
    for (const fs::directory_entry& entry : fs::directory_iterator(input)) {
      if (entry.is_regular_file() && entry.path().extension() == ".msn") {
        paths.push_back(entry.path().string());
      }
    }
    // Directory iteration order is unspecified; the batch order (and so
    // the report) must not depend on it.
    std::sort(paths.begin(), paths.end());
  } else if (fs::is_regular_file(input)) {
    std::ifstream in(input);
    // User-input errors throw CheckError with a bare message (no
    // MSN_CHECK expression/location decoration) — the CLI surfaces
    // these verbatim.
    if (!in.good()) {
      throw CheckError("cannot open manifest '" + dir_or_manifest + "'");
    }
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos || line[start] == '#') continue;
      const std::size_t end = line.find_last_not_of(" \t\r");
      const fs::path entry(line.substr(start, end - start + 1));
      // Relative entries resolve against the manifest's directory so a
      // manifest works from any cwd.
      paths.push_back(entry.is_absolute()
                          ? entry.string()
                          : (input.parent_path() / entry).string());
    }
  } else {
    throw CheckError("batch input '" + dir_or_manifest +
                     "' is neither a directory nor a manifest file");
  }
  if (paths.empty()) {
    throw CheckError("batch input '" + dir_or_manifest +
                     "' yields no .msn nets");
  }
  return paths;
}

void WriteBatchReport(std::ostream& os, const BatchResult& batch,
                      std::optional<double> spec_ps) {
  // Determinism contract: input order only, fixed-precision numbers, no
  // wall times, no thread counts (tests byte-compare across --jobs).
  for (const NetOutcome& out : batch.nets) {
    if (!out.ok) {
      os << "net " << out.name << ": error: " << out.error << '\n';
      continue;
    }
    const std::vector<TradeoffPoint>& pareto = out.result.Pareto();
    os << "net " << out.name << ": " << pareto.size() << " pareto points";
    if (const TradeoffPoint* p = out.result.MinCost()) {
      os << ", min-cost " << Num(p->cost) << " / " << Num(p->ard_ps)
         << " ps";
    }
    if (const TradeoffPoint* p = out.result.MinArd()) {
      os << ", min-ARD " << Num(p->cost) << " / " << Num(p->ard_ps)
         << " ps";
    }
    if (spec_ps.has_value()) {
      if (const TradeoffPoint* p = out.result.MinCostFeasible(*spec_ps)) {
        os << ", pick(spec " << Num(*spec_ps) << " ps) " << Num(p->cost)
           << " / " << Num(p->ard_ps) << " ps, " << p->num_repeaters
           << " repeaters";
      } else {
        os << ", spec " << Num(*spec_ps) << " ps unachievable";
      }
    }
    os << '\n';
  }
  os << "batch: " << batch.nets.size() << " nets, "
     << batch.errors.size() << " errors\n";
}

void WriteBatchStatsJson(std::ostream& os, const BatchResult& batch) {
  os << "{\"schema\":\"msn-batch-stats-v1\",\"jobs\":" << batch.jobs
     << ",\"nets\":[";
  for (std::size_t i = 0; i < batch.nets.size(); ++i) {
    const NetOutcome& out = batch.nets[i];
    if (i > 0) os << ',';
    os << "{\"name\":\"" << obs::JsonEscape(out.name) << '"';
    if (!out.error.empty()) {
      os << ",\"error\":\"" << obs::JsonEscape(out.error) << '"';
    }
    os << ",\"ok\":" << (out.ok ? "true" : "false")
       << ",\"wall_ms\":" << out.wall_ms
       << ",\"queue_wait_ms\":" << out.queue_wait_ms
       << ",\"pool_occupancy\":" << out.pool_occupancy;
    if (out.ok) {
      os << ",\"pareto_points\":" << out.result.Pareto().size();
    }
    if (!out.stats.Empty()) {
      os << ",\"stats\":" << out.stats.JsonString();
    }
    os << '}';
  }
  os << "],\"aggregate\":" << batch.aggregate.JsonString() << "}\n";
}

}  // namespace msn::runtime
