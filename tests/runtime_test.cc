// The msn::runtime batch engine (docs/RUNTIME.md): thread-pool and
// task-group semantics, batch determinism across thread counts (the
// byte-identical report contract), per-net error containment, and the
// degenerate-spec handling of MsriResult::MinCostFeasible.  This suite is the TSan gate for the
// thread pool (CI runs it under -DMSN_SANITIZE=thread).
#include "runtime/batch.h"
#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/check.h"
#include "common/numeric.h"
#include "core/msri.h"
#include "io/netfile.h"
#include "netgen/netgen.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "test_util.h"

namespace msn {
namespace {

namespace fs = std::filesystem;
using runtime::BatchJob;
using runtime::BatchOptions;
using runtime::BatchResult;
using runtime::OptimizeBatch;
using runtime::TaskGroup;
using runtime::ThreadPool;
using testing::SmallTech;

RcTree ExperimentNet(std::uint64_t seed, std::size_t terminals = 8) {
  NetConfig cfg;
  cfg.seed = seed;
  cfg.num_terminals = terminals;
  return BuildExperimentNet(cfg, SmallTech());
}

/// A scratch directory removed on scope exit.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("msn_runtime_test_" + tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

void WriteNetFile(const fs::path& path, const RcTree& tree) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good());
  WriteNet(out, tree);
}

// ---------------------------------------------------------------------
// ThreadPool / TaskGroup.

TEST(ThreadPool, AsyncDeliversResultsAndExceptions) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.NumThreads(), 4u);
  auto ok = pool.Async([] { return 6 * 7; });
  auto bad = pool.Async(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(ok.get(), 42);
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(TaskGroup, RunsEveryTaskWithMoreTasksThanThreads) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  TaskGroup group(&pool);
  for (int i = 1; i <= 100; ++i) {
    group.Run([&sum, i] { sum.fetch_add(i); });
  }
  group.Wait();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(TaskGroup, NullPoolRunsInlineOnWait) {
  std::atomic<int> count{0};
  TaskGroup group(nullptr);
  for (int i = 0; i < 10; ++i) group.Run([&count] { ++count; });
  EXPECT_EQ(count.load(), 0);  // Nothing runs before Wait.
  group.Wait();
  EXPECT_EQ(count.load(), 10);
}

TEST(TaskGroup, WaitRethrowsFirstExceptionAfterAllTasksRan) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 20; ++i) {
    group.Run([&ran, i] {
      ++ran;
      if (i % 5 == 0) throw std::runtime_error("task failed");
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 20);  // A throwing task never cancels siblings.
}

TEST(TaskGroup, NestedGroupsOnOneSaturatedPoolDoNotDeadlock) {
  // Every worker fans out a nested group onto the same 2-thread pool;
  // Wait() helping is what keeps this from deadlocking.
  ThreadPool pool(2);
  std::atomic<int> leaf_count{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 8; ++i) {
    outer.Run([&pool, &leaf_count] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 8; ++j) {
        inner.Run([&leaf_count] { ++leaf_count; });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(leaf_count.load(), 64);
}

TEST(TaskGroup, DeadlineBoundsAdmissionNotCompletion) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::atomic<int> expired{0};
  TaskGroup group(&pool);
  const auto now = std::chrono::steady_clock::now();
  for (int i = 0; i < 8; ++i) {
    // A far-future deadline admits the task; an already-passed one runs
    // on_expired in its place.  Both count toward Wait().
    group.Run([&ran] { ++ran; }, now + std::chrono::hours(1),
              [&expired] { ++expired; });
    group.Run([&ran] { ++ran; }, now - std::chrono::milliseconds(1),
              [&expired] { ++expired; });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(expired.load(), 8);
}

// ---------------------------------------------------------------------
// Batch determinism and containment.

std::vector<BatchJob> MakeJobs(std::size_t count) {
  std::vector<BatchJob> jobs;
  for (std::uint64_t seed = 1; seed <= count; ++seed) {
    jobs.push_back(BatchJob{"net" + std::to_string(seed),
                            ExperimentNet(seed), MsriOptions{}});
  }
  return jobs;
}

std::string Report(const BatchResult& batch, double spec_ps) {
  std::ostringstream os;
  runtime::WriteBatchReport(os, batch, spec_ps);
  return os.str();
}

TEST(Batch, ReportIsByteIdenticalAcrossJobCounts) {
  const Technology tech = SmallTech();
  BatchOptions one;
  one.jobs = 1;
  BatchOptions eight;
  eight.jobs = 8;
  const BatchResult r1 = OptimizeBatch(MakeJobs(6), tech, one);
  const BatchResult r8 = OptimizeBatch(MakeJobs(6), tech, eight);
  EXPECT_EQ(Report(r1, 950.0), Report(r8, 950.0));

  // Beyond the rendered report: the Pareto frontiers themselves are
  // bit-identical, point by point.
  ASSERT_EQ(r1.nets.size(), r8.nets.size());
  for (std::size_t i = 0; i < r1.nets.size(); ++i) {
    const auto& p1 = r1.nets[i].result.Pareto();
    const auto& p8 = r8.nets[i].result.Pareto();
    ASSERT_EQ(p1.size(), p8.size());
    for (std::size_t k = 0; k < p1.size(); ++k) {
      EXPECT_EQ(p1[k].cost, p8[k].cost);
      EXPECT_EQ(p1[k].ard_ps, p8[k].ard_ps);
      EXPECT_EQ(p1[k].num_repeaters, p8[k].num_repeaters);
    }
  }
}

TEST(Batch, MoreJobsThanNetsAndMoreNetsThanJobs) {
  const Technology tech = SmallTech();
  BatchOptions opt;
  opt.jobs = 16;  // Stress: far more workers than the 3 nets.
  const BatchResult wide = OptimizeBatch(MakeJobs(3), tech, opt);
  EXPECT_TRUE(wide.AllOk());
  EXPECT_EQ(wide.nets.size(), 3u);

  opt.jobs = 2;
  const BatchResult narrow = OptimizeBatch(MakeJobs(9), tech, opt);
  EXPECT_TRUE(narrow.AllOk());
  EXPECT_EQ(narrow.nets.size(), 9u);
  for (const auto& net : narrow.nets) {
    EXPECT_TRUE(net.ok) << net.error;
    EXPECT_FALSE(net.result.Pareto().empty());
  }
}

TEST(Batch, MalformedNetIsContainedAndOthersSurvive) {
  ScratchDir dir("contain");
  WriteNetFile(dir.path / "a.msn", ExperimentNet(1));
  {
    std::ofstream bad(dir.path / "b.msn");
    bad << "msn-net 1\nnode 0 terminal\nend\n";  // Truncated node line.
  }
  WriteNetFile(dir.path / "c.msn", ExperimentNet(2));

  BatchOptions opt;
  opt.jobs = 4;
  const BatchResult batch = runtime::OptimizeBatchFiles(
      runtime::CollectNetPaths(dir.path.string()), SmallTech(),
      MsriOptions{}, opt);
  ASSERT_EQ(batch.nets.size(), 3u);
  EXPECT_TRUE(batch.nets[0].ok);
  EXPECT_FALSE(batch.nets[1].ok);
  EXPECT_NE(batch.nets[1].error.find("line 2"), std::string::npos)
      << batch.nets[1].error;
  EXPECT_TRUE(batch.nets[2].ok);
  ASSERT_EQ(batch.errors.size(), 1u);
  EXPECT_EQ(batch.errors[0].index, 1u);
}

TEST(Batch, CollectNetPathsDirectorySortedAndManifestResolved) {
  ScratchDir dir("paths");
  WriteNetFile(dir.path / "b.msn", ExperimentNet(1));
  WriteNetFile(dir.path / "a.msn", ExperimentNet(2));
  std::ofstream(dir.path / "notes.txt") << "ignored\n";
  const auto from_dir = runtime::CollectNetPaths(dir.path.string());
  ASSERT_EQ(from_dir.size(), 2u);
  EXPECT_EQ(fs::path(from_dir[0]).filename(), "a.msn");
  EXPECT_EQ(fs::path(from_dir[1]).filename(), "b.msn");

  {
    std::ofstream manifest(dir.path / "batch.list");
    manifest << "# comment\n\n  b.msn  \na.msn\n";
  }
  const auto from_manifest =
      runtime::CollectNetPaths((dir.path / "batch.list").string());
  ASSERT_EQ(from_manifest.size(), 2u);  // Manifest order, not sorted.
  EXPECT_EQ(fs::path(from_manifest[0]).filename(), "b.msn");
  EXPECT_TRUE(fs::exists(from_manifest[0]));

  EXPECT_THROW(runtime::CollectNetPaths(
                   (dir.path / "missing").string()),
               CheckError);
}

TEST(Batch, EmptyManifestIsAnExplicitError) {
  ScratchDir dir("empty_manifest");
  std::ofstream(dir.path / "empty.list") << "# nothing here\n\n";
  EXPECT_THROW(
      runtime::CollectNetPaths((dir.path / "empty.list").string()),
      CheckError);
  // An explicitly empty path vector, by contrast, is a no-op batch.
  const BatchResult batch = runtime::OptimizeBatchFiles(
      {}, SmallTech(), MsriOptions{}, BatchOptions{});
  EXPECT_TRUE(batch.AllOk());
  EXPECT_TRUE(batch.nets.empty());
}

TEST(Batch, DuplicateManifestPathsOptimizeIndependentlyInOrder) {
  ScratchDir dir("dup_paths");
  WriteNetFile(dir.path / "a.msn", ExperimentNet(3));
  std::ofstream(dir.path / "dup.list") << "a.msn\na.msn\na.msn\n";
  const auto paths =
      runtime::CollectNetPaths((dir.path / "dup.list").string());
  ASSERT_EQ(paths.size(), 3u);  // Duplicates preserved, not deduped.
  BatchOptions opt;
  opt.jobs = 3;
  const BatchResult batch = runtime::OptimizeBatchFiles(
      paths, SmallTech(), MsriOptions{}, opt);
  ASSERT_EQ(batch.nets.size(), 3u);
  for (const runtime::NetOutcome& net : batch.nets) {
    EXPECT_TRUE(net.ok);
    EXPECT_EQ(net.name, batch.nets[0].name);
    ASSERT_FALSE(net.result.Pareto().empty());
    EXPECT_DOUBLE_EQ(net.result.MinArd()->ard_ps,
                     batch.nets[0].result.MinArd()->ard_ps);
  }
}

TEST(Batch, MissingFileIsContainedAtItsIndex) {
  ScratchDir dir("missing_file");
  WriteNetFile(dir.path / "a.msn", ExperimentNet(4));
  const std::string good = (dir.path / "a.msn").string();
  const std::string gone = (dir.path / "nope.msn").string();
  BatchOptions opt;
  opt.jobs = 2;
  const BatchResult batch = runtime::OptimizeBatchFiles(
      {good, gone, good}, SmallTech(), MsriOptions{}, opt);
  ASSERT_EQ(batch.nets.size(), 3u);  // Input order preserved.
  EXPECT_TRUE(batch.nets[0].ok);
  EXPECT_FALSE(batch.nets[1].ok);
  EXPECT_FALSE(batch.nets[1].error.empty());
  EXPECT_TRUE(batch.nets[2].ok);
  ASSERT_EQ(batch.errors.size(), 1u);
  EXPECT_EQ(batch.errors[0].index, 1u);
  EXPECT_EQ(batch.errors[0].name, gone);
}

TEST(Batch, AggregateStatsMergePerNetRegistries) {
  const Technology tech = SmallTech();
  BatchOptions opt;
  opt.jobs = 4;
  opt.collect_stats = true;
  const BatchResult batch = OptimizeBatch(MakeJobs(4), tech, opt);

  std::uint64_t per_net_solutions = 0;
  for (const auto& net : batch.nets) {
    per_net_solutions +=
        net.stats.Counters().at("msri.solutions_generated").Value();
  }
  EXPECT_GT(per_net_solutions, 0u);
  EXPECT_EQ(batch.aggregate.Counters()
                .at("msri.solutions_generated")
                .Value(),
            per_net_solutions);
  EXPECT_EQ(batch.aggregate.Histograms().at("batch.net_wall_ms").Count(),
            4u);
  EXPECT_EQ(
      batch.aggregate.Histograms().at("batch.pool_occupancy").Count(),
      4u);
  EXPECT_DOUBLE_EQ(batch.aggregate.Values().at("batch.nets"), 4.0);

  // The batch JSON document round-trips through the renderer.
  std::ostringstream os;
  runtime::WriteBatchStatsJson(os, batch);
  EXPECT_NE(os.str().find("\"schema\":\"msn-batch-stats-v1\""),
            std::string::npos);
}

TEST(Batch, RejectsJobsCarryingObservabilityHooks) {
  // Each hook is confined to one thread, but nets run on pool threads.
  obs::RunStats stats;
  obs::StatsSink sink(&stats);
  obs::Trace trace(obs::NewTraceId());
  const std::vector<std::function<void(MsriOptions&)>> hooks = {
      [&sink](MsriOptions& o) { o.stats = &sink; },
      [&trace](MsriOptions& o) { o.trace = &trace; },
      [](MsriOptions& o) {
        o.set_observer = [](NodeId, const SolutionSet&) {};
      },
  };
  for (const auto& hook : hooks) {
    std::vector<BatchJob> jobs = MakeJobs(1);
    hook(jobs[0].options);
    EXPECT_THROW(OptimizeBatch(std::move(jobs), SmallTech(), BatchOptions{}),
                 CheckError);
  }
  EXPECT_TRUE(trace.Spans().empty());
}

TEST(Batch, CancelledNetsAreContainedErrorEntries) {
  // A token that fired before the batch starts cancels every net that
  // carries it — each as a per-net "cancelled" error entry, exactly like
  // any other contained failure — while untokened nets still optimize.
  CancellationSource source;
  source.Cancel();
  std::vector<BatchJob> jobs = MakeJobs(3);
  jobs[0].options.cancel = source.Token();
  jobs[2].options.cancel = source.Token();
  BatchOptions options;
  options.jobs = 2;
  const BatchResult batch =
      OptimizeBatch(std::move(jobs), SmallTech(), options);
  ASSERT_EQ(batch.nets.size(), 3u);
  ASSERT_EQ(batch.errors.size(), 2u);
  EXPECT_FALSE(batch.nets[0].ok);
  EXPECT_NE(batch.nets[0].error.find("cancelled"), std::string::npos);
  EXPECT_TRUE(batch.nets[1].ok);
  EXPECT_GE(batch.nets[1].result.Pareto().size(), 1u);
  EXPECT_FALSE(batch.nets[2].ok);
}

// ---------------------------------------------------------------------
// Degenerate ARD specs (explicit NaN/negative handling).

TEST(MinCostFeasible, DegenerateSpecsAreExplicit) {
  const Technology tech = SmallTech();
  const MsriResult result =
      RunMsri(ExperimentNet(1), tech, MsriOptions{});
  ASSERT_FALSE(result.Pareto().empty());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(result.MinCostFeasible(nan), nullptr);
  EXPECT_EQ(result.MinCostFeasible(-kInf), nullptr);
  EXPECT_EQ(result.MinCostFeasible(-100.0), nullptr);
  // +inf admits everything: the cheapest point wins.
  EXPECT_EQ(result.MinCostFeasible(kInf), result.MinCost());
  // And a generous finite spec behaves identically.
  EXPECT_EQ(result.MinCostFeasible(1e12), result.MinCost());
}

}  // namespace
}  // namespace msn
