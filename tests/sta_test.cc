// The msn::sta subsystem (docs/STA.md): `.msd` parsing with
// line-numbered diagnostics, design validation, timing-graph
// propagation and spec derivation, the generator's determinism, and the
// closure loop's contracts — monotone worst slack, byte-identical
// reports at any thread count, and cache reuse across iterations and
// runs.  Labeled for the TSan CI leg: the closure loop drives the batch
// engine's thread pool.
#include "sta/closure.h"
#include "sta/design.h"
#include "sta/timing_graph.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/cancel.h"
#include "common/check.h"
#include "core/ard.h"
#include "io/netfile.h"
#include "obs/stats.h"
#include "netgen/design_gen.h"
#include "test_util.h"

namespace msn::sta {
namespace {

namespace fs = std::filesystem;
using msn::testing::SmallTech;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A scratch directory removed on scope exit.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("msn_sta_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

/// A directional two-terminal net: terminal 0 drives, terminal 1
/// receives.
RcTree LineNet(const Technology& tech) {
  RcTree tree = msn::testing::TwoPinLine(tech, 1000.0, 1);
  tree.MutableTerminal(0).is_sink = false;
  tree.MutableTerminal(1).is_source = false;
  return tree;
}

Design ParseDesign(const std::string& text) {
  std::istringstream in(text);
  return ReadDesign(in);
}

std::string Render(const Design& design) {
  std::ostringstream out;
  WriteDesign(out, design);
  return out.str();
}

// ---------------------------------------------------------------------
// `.msd` parsing.

TEST(DesignFormat, GoldenRoundTripIsByteIdentical) {
  const std::string text =
      "msn-design 1\n"
      "input a 10.5\n"
      "output z 500\n"
      "component u0\n"
      "pin u0 i0 in\n"
      "pin u0 t inout\n"
      "pin u0 o out\n"
      "arc u0 i0 o 25.25\n"
      "arc u0 i0 t 12\n"
      "net n0 net_0000.msn a u0.i0\n"
      "net n1 net_0001.msn u0.o z\n"
      "end\n";
  const Design design = ParseDesign(text);
  EXPECT_EQ(design.ports.size(), 2u);
  EXPECT_EQ(design.components.size(), 1u);
  EXPECT_EQ(design.nets.size(), 2u);
  EXPECT_EQ(design.FindComponent("u0"), 0u);
  EXPECT_EQ(design.components[0].FindPin("t"), 1u);
  EXPECT_EQ(design.EndpointName(design.nets[0].endpoints[1]), "u0.i0");

  const std::string once = Render(design);
  const std::string twice = Render(ParseDesign(once));
  EXPECT_EQ(once, twice);
  // Comments and blank lines do not survive, but the content does.
  const Design commented =
      ParseDesign("# header comment\n\n" + text + "# trailing\n");
  EXPECT_EQ(Render(commented), once);
}

TEST(DesignFormat, MissingNetReferenceNamesTheLine) {
  const std::string text =
      "msn-design 1\n"
      "input a 0\n"
      "component u0\n"
      "pin u0 i0 in\n"
      "net n0 net.msn a u0.i9\n"
      "end\n";
  try {
    ParseDesign(text);
    FAIL() << "unresolved endpoint accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.Line(), 5u);
    EXPECT_NE(std::string(e.what()).find("u0.i9"), std::string::npos);
  }
  // Unknown port / component references likewise carry the line.
  try {
    ParseDesign(
        "msn-design 1\ninput a 0\nnet n0 f.msn a nowhere\nend\n");
    FAIL() << "unresolved port accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.Line(), 3u);
  }
}

TEST(DesignFormat, MalformedRecordsCarryLineNumbers) {
  const struct {
    const char* text;
    std::size_t line;
  } kCases[] = {
      {"msn-design 2\n", 1},                            // Bad version.
      {"component u0\n", 1},                            // No header.
      {"msn-design 1\nbogus x\nend\n", 2},              // Unknown tag.
      {"msn-design 1\ncomponent u0\ncomponent u0\nend\n", 3},
      {"msn-design 1\npin u0 a in\nend\n", 2},          // Unknown comp.
      {"msn-design 1\ncomponent u0\npin u0 a sideways\nend\n", 3},
      {"msn-design 1\ncomponent u0\npin u0 a.b in\nend\n", 3},
      {"msn-design 1\ncomponent u0\npin u0 a in\n"
       "arc u0 a a 5\nend\n",
       4},                                              // Self arc.
      {"msn-design 1\ncomponent u0\npin u0 a in\npin u0 o out\n"
       "arc u0 a o -3\nend\n",
       5},                                              // Negative delay.
      {"msn-design 1\ninput a 0\nnet n0 f.msn a\nend\n", 3},  // 1 endpoint.
      {"msn-design 1\ninput a 0\ninput a 1\nend\n", 3},  // Duplicate port.
  };
  for (const auto& c : kCases) {
    try {
      ParseDesign(c.text);
      FAIL() << "accepted: " << c.text;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.Line(), c.line) << c.text;
    }
  }
  // A missing `end` is a whole-file problem: line 0.
  try {
    ParseDesign("msn-design 1\ninput a 0\n");
    FAIL() << "missing end accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.Line(), 0u);
  }
}

TEST(DesignFormat, ReaderErrorsPinned) {
  const struct {
    const char* text;
    std::size_t line;
    const char* what;
  } kCases[] = {
      {"msn-design 2\n", 1, "line 1: unsupported msn-design version"},
      {"component u0\n", 1, "line 1: missing 'msn-design 1' header"},
      {"msn-design 1\ncomponent\nend\n", 2,
       "line 2: malformed component record"},
      {"msn-design 1\ncomponent u0\npin u0 a\nend\n", 3,
       "line 3: malformed pin record"},
      {"msn-design 1\npin u0 a in\nend\n", 2,
       "line 2: pin references unknown component 'u0'"},
      {"msn-design 1\ncomponent u0\npin u0 a sideways\nend\n", 3,
       "line 3: unknown pin direction 'sideways'"},
      {"msn-design 1\ncomponent u0\narc u0 a b\nend\n", 3,
       "line 3: malformed arc record"},
      {"msn-design 1\ncomponent u0\narc u0 a b x\nend\n", 3,
       "line 3: malformed arc record"},
      {"msn-design 1\narc u9 a b 1\nend\n", 2,
       "line 2: arc references unknown component 'u9'"},
      {"msn-design 1\ninput a\nend\n", 2, "line 2: malformed input record"},
      {"msn-design 1\n\noutput z 1e400\nend\n", 3,
       "line 3: malformed output record"},
      {"msn-design 1\nnet n0 # f.msn a b\nend\n", 2,
       "line 2: malformed net record"},
      {"msn-design 1\r\nbogus x\r\nend\r\n", 2,
       "line 2: unknown record 'bogus'"},
      {"msn-design 1\ninput a 0\n", 0, "missing 'end' record"},
  };
  for (const auto& c : kCases) {
    try {
      ParseDesign(c.text);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.Line(), c.line) << c.text;
      EXPECT_EQ(std::string(e.what()), c.what) << c.text;
    }
  }
}

TEST(DesignFormat, DanglingPinFailsValidationAtItsLine) {
  Design design = ParseDesign(
      "msn-design 1\n"
      "input a 0\n"
      "output z 100\n"
      "component u0\n"
      "pin u0 i0 in\n"
      "pin u0 i1 in\n"  // Line 6: on no net.
      "pin u0 o out\n"
      "arc u0 i0 o 10\n"
      "arc u0 i1 o 10\n"
      "net n0 a.msn a u0.i0\n"
      "net n1 b.msn u0.o z\n"
      "end\n");
  const Technology tech = SmallTech();
  design.nets[0].tree = LineNet(tech);
  design.nets[1].tree = LineNet(tech);
  try {
    design.Validate();
    FAIL() << "dangling pin accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.Line(), 6u);
    EXPECT_NE(std::string(e.what()).find("dangling"), std::string::npos);
  }
}

TEST(DesignFormat, MissingNetFileFailsAtTheNetLine) {
  ScratchDir dir("missing_msn");
  {
    std::ofstream out(dir.path / "design.msd");
    out << "msn-design 1\n"
           "input a 0\n"
           "output z 100\n"
           "net n0 does_not_exist.msn a z\n"
           "end\n";
  }
  try {
    LoadDesign((dir.path / "design.msd").string());
    FAIL() << "missing .msn accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.Line(), 4u);
    EXPECT_NE(std::string(e.what()).find("does_not_exist.msn"),
              std::string::npos);
  }
}

TEST(DesignFormat, CombinationalCycleIsALineNumberedError) {
  // u0.o -> n0 -> u1.i -> u1.o -> n1 -> u0.i -> u0.o: a combinational
  // loop through two components, written through the full file path so
  // the diagnostic reflects what the user typed.
  ScratchDir dir("cycle");
  const Technology tech = SmallTech();
  for (const char* name : {"n0.msn", "n1.msn"}) {
    std::ofstream out(dir.path / name);
    WriteNet(out, LineNet(tech));
  }
  {
    std::ofstream out(dir.path / "design.msd");
    out << "msn-design 1\n"
           "component u0\n"
           "pin u0 i in\n"
           "pin u0 o out\n"
           "arc u0 i o 5\n"
           "component u1\n"
           "pin u1 i in\n"
           "pin u1 o out\n"
           "arc u1 i o 5\n"
           "net n0 n0.msn u0.o u1.i\n"   // Line 10.
           "net n1 n1.msn u1.o u0.i\n"   // Line 11.
           "end\n";
  }
  const Design design = LoadDesign((dir.path / "design.msd").string());
  try {
    TimingGraph graph(design);
    FAIL() << "cycle accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("combinational cycle"),
              std::string::npos);
    EXPECT_TRUE(e.Line() == 10u || e.Line() == 11u || e.Line() == 5u ||
                e.Line() == 9u)
        << "unexpected line " << e.Line();
  }
}

// ---------------------------------------------------------------------
// Timing propagation and spec derivation.

/// input a --n0--> u.i --arc 25--> u.o --n1--> output z.
Design ChainDesign(const Technology& tech, double arrival = 10.0,
                   double required = 500.0) {
  Design d;
  d.AddInputPort("a", arrival);
  d.AddOutputPort("z", required);
  const std::size_t u = d.AddComponent("u");
  d.AddPin(u, "i", PinDir::kIn);
  d.AddPin(u, "o", PinDir::kOut);
  d.AddArc(u, "i", "o", 25.0);
  d.AddNet("n0", "n0.msn", {"a", "u.i"});
  d.AddNet("n1", "n1.msn", {"u.o", "z"});
  d.nets[0].tree = LineNet(tech);
  d.nets[1].tree = LineNet(tech);
  d.Validate();
  return d;
}

TEST(TimingGraph, PropagatesArrivalsAndRequireds) {
  const Technology tech = SmallTech();
  const Design d = ChainDesign(tech);
  TimingGraph g(d);
  ASSERT_EQ(g.NumNets(), 2u);
  g.SetNetDelayPs(0, 100.0);
  g.SetNetDelayPs(1, 50.0);
  g.Propagate();

  const std::vector<EndpointSlack> slacks = g.EndpointSlacks();
  ASSERT_EQ(slacks.size(), 1u);
  EXPECT_EQ(slacks[0].name, "z");
  EXPECT_DOUBLE_EQ(slacks[0].arrival_ps, 10.0 + 100.0 + 25.0 + 50.0);
  EXPECT_DOUBLE_EQ(slacks[0].required_ps, 500.0);
  EXPECT_DOUBLE_EQ(slacks[0].slack_ps, 315.0);
  EXPECT_DOUBLE_EQ(g.WorstSlackPs(), 315.0);

  // Specs: required downstream minus arrival upstream of each net.
  EXPECT_DOUBLE_EQ(g.NetSpecPs(0), (500.0 - 50.0 - 25.0) - 10.0);
  EXPECT_DOUBLE_EQ(g.NetSpecPs(1), 500.0 - (10.0 + 100.0 + 25.0));
  EXPECT_DOUBLE_EQ(g.NetWorstSlackPs(0), 415.0 - 100.0);
  EXPECT_DOUBLE_EQ(g.NetWorstSlackPs(1), 365.0 - 50.0);
}

TEST(TimingGraph, SpecIsIndependentOfTheNetsOwnDelay) {
  const Technology tech = SmallTech();
  const Design d = ChainDesign(tech);
  TimingGraph g(d);
  g.SetNetDelayPs(0, 100.0);
  g.SetNetDelayPs(1, 50.0);
  g.Propagate();
  const double spec0 = g.NetSpecPs(0);
  g.SetNetDelayPs(0, 9999.0);
  g.Propagate();
  // Arrival upstream and required downstream of n0 are unchanged.
  EXPECT_DOUBLE_EQ(g.NetSpecPs(0), spec0);
  // Its slack reflects the new delay, and the endpoint went negative.
  EXPECT_DOUBLE_EQ(g.NetWorstSlackPs(0), spec0 - 9999.0);
  EXPECT_LT(g.WorstSlackPs(), 0.0);
}

TEST(TimingGraph, MultiSourceNetSpecUsesTheLatestDriver) {
  const Technology tech = SmallTech();
  Design d;
  d.AddInputPort("a", 10.0);
  d.AddInputPort("b", 40.0);
  d.AddOutputPort("z", 500.0);
  const std::size_t u = d.AddComponent("u");
  d.AddPin(u, "i", PinDir::kIn);
  d.AddPin(u, "o", PinDir::kOut);
  d.AddArc(u, "i", "o", 25.0);
  d.AddNet("bus", "bus.msn", {"a", "b", "u.i"});
  d.AddNet("n1", "n1.msn", {"u.o", "z"});
  RcTree bus = msn::testing::TwoPinLine(tech, 1000.0, 1);
  bus.MutableTerminal(0).is_sink = false;
  bus.MutableTerminal(1).is_sink = false;  // Both ports drive the bus.
  {  // Third terminal: the sink.
    TerminalParams sink = DefaultTerminal(tech);
    sink.is_source = false;
    const NodeId node = bus.AddTerminal(sink, {500, 500});
    bus.AddEdge(bus.TerminalNode(0), node, 700.0);
  }
  d.nets[0].tree = std::move(bus);
  d.nets[1].tree = LineNet(tech);
  d.Validate();

  TimingGraph g(d);
  g.SetNetDelayPs(0, 100.0);
  g.SetNetDelayPs(1, 50.0);
  g.Propagate();
  // Arrival at u.i is driven by the later source b.
  const std::vector<EndpointSlack> slacks = g.EndpointSlacks();
  EXPECT_DOUBLE_EQ(slacks[0].arrival_ps, 40.0 + 100.0 + 25.0 + 50.0);
  // The spec is limited by the latest driver: req(sink) - arr(b).
  EXPECT_DOUBLE_EQ(g.NetSpecPs(0), (500.0 - 50.0 - 25.0) - 40.0);
}

TEST(TimingGraph, InOutPinSplitsIntoDriveAndReceiveNodes) {
  // A transceiver pin that receives one net and drives another must not
  // read as a self-loop: u.t receives n0 and (via the arc i -> t)
  // drives n1.
  const Technology tech = SmallTech();
  Design d;
  d.AddInputPort("a", 5.0);
  d.AddInputPort("b", 7.0);
  d.AddOutputPort("z", 400.0);
  const std::size_t u = d.AddComponent("u");
  d.AddPin(u, "i", PinDir::kIn);
  d.AddPin(u, "t", PinDir::kInOut);
  d.AddPin(u, "o", PinDir::kOut);
  d.AddArc(u, "i", "t", 11.0);  // Drives n1 through t.
  d.AddArc(u, "t", "o", 13.0);  // Forwards what t receives from n0.
  d.AddNet("n0", "n0.msn", {"a", "u.t"});  // t receives.
  d.AddNet("n1", "n1.msn", {"u.t", "z"});  // t drives.
  d.AddNet("n2", "n2.msn", {"b", "u.i"});
  d.AddNet("n3", "n3.msn", {"u.o", "z"});
  for (std::size_t n = 0; n < d.nets.size(); ++n) {
    d.nets[n].tree = LineNet(tech);
  }
  d.Validate();

  TimingGraph g(d);  // Must not throw: no false cycle through t.
  for (std::size_t n = 0; n < 4; ++n) {
    g.SetNetDelayPs(n, 10.0 * static_cast<double>(n + 1));
  }
  g.Propagate();
  // Through the drive half: b -> n2(30) -> i -> arc(11) -> t -> n1(20).
  // Through the receive half: a -> n0(10) -> t -> arc(13) -> o -> n3(40).
  const double via_drive = 7.0 + 30.0 + 11.0 + 20.0;
  const double via_receive = 5.0 + 10.0 + 13.0 + 40.0;
  const std::vector<EndpointSlack> slacks = g.EndpointSlacks();
  ASSERT_EQ(slacks.size(), 1u);
  EXPECT_DOUBLE_EQ(slacks[0].arrival_ps,
                   std::max(via_drive, via_receive));
}

TEST(TimingGraph, UnconstrainedNetHasInfiniteSpec) {
  const Technology tech = SmallTech();
  Design d;
  d.AddInputPort("a", 0.0);
  const std::size_t u = d.AddComponent("u");
  d.AddPin(u, "i", PinDir::kIn);
  d.AddPin(u, "o", PinDir::kOut);
  d.AddArc(u, "i", "o", 5.0);
  d.AddNet("n0", "n0.msn", {"a", "u.i"});
  d.nets[0].tree = LineNet(tech);
  d.Validate();
  TimingGraph g(d);
  g.SetNetDelayPs(0, 50.0);
  g.Propagate();
  // No output port anywhere downstream: no finite required.
  EXPECT_EQ(g.NetSpecPs(0), kInf);
  EXPECT_EQ(g.WorstSlackPs(), kInf);  // No endpoints at all.
}

// ---------------------------------------------------------------------
// Generator.

DesignConfig SmallDesignConfig(std::size_t nets, std::uint64_t seed,
                               double required_factor = 0.7) {
  DesignConfig cfg;
  cfg.seed = seed;
  cfg.num_nets = nets;
  cfg.net.grid_um = 3000;
  cfg.net.insertion_spacing_um = 1500.0;
  cfg.required_factor = required_factor;
  return cfg;
}

TEST(DesignGen, SameSeedIsByteIdentical) {
  const Technology tech = SmallTech();
  const DesignConfig cfg = SmallDesignConfig(10, 42);
  const std::string a = Render(GenerateDesign(cfg, tech));
  const std::string b = Render(GenerateDesign(cfg, tech));
  EXPECT_EQ(a, b);
  DesignConfig other = cfg;
  other.seed = 43;
  EXPECT_NE(Render(GenerateDesign(other, tech)), a);
}

TEST(DesignGen, WrittenFilesReloadAndRevalidate) {
  ScratchDir dir("gen_files");
  const Technology tech = SmallTech();
  const Design design = GenerateDesign(SmallDesignConfig(6, 3), tech);
  const std::string msd =
      WriteDesignFiles(design, dir.path.string(), "design");
  const Design reloaded = LoadDesign(msd);  // Parses + loads + validates.
  EXPECT_EQ(Render(reloaded), Render(design));
  ASSERT_EQ(reloaded.nets.size(), design.nets.size());
  for (std::size_t n = 0; n < reloaded.nets.size(); ++n) {
    EXPECT_EQ(reloaded.nets[n].tree->NumTerminals(),
              design.nets[n].tree->NumTerminals());
  }
  // Writing the same design twice produces byte-identical files.
  ScratchDir dir2("gen_files2");
  WriteDesignFiles(design, dir2.path.string(), "design");
  std::ifstream f1(dir.path / "net_0000.msn"), f2(dir2.path / "net_0000.msn");
  std::stringstream s1, s2;
  s1 << f1.rdbuf();
  s2 << f2.rdbuf();
  EXPECT_EQ(s1.str(), s2.str());
}

TEST(DesignGen, TightRequiredFactorFailsTimingInitially) {
  const Technology tech = SmallTech();
  const Design design = GenerateDesign(SmallDesignConfig(8, 5, 0.5), tech);
  TimingGraph g(design);
  for (std::size_t n = 0; n < design.nets.size(); ++n) {
    g.SetNetDelayPs(n, ComputeArd(*design.nets[n].tree, tech).ard_ps);
  }
  g.Propagate();
  EXPECT_LT(g.WorstSlackPs(), 0.0);
}

// ---------------------------------------------------------------------
// Closure loop.

TEST(Closure, ConvergesWithMonotoneWorstSlack) {
  const Technology tech = SmallTech();
  const Design design = GenerateDesign(SmallDesignConfig(12, 9, 0.6), tech);
  ClosureOptions opt;
  opt.jobs = 2;
  opt.max_iters = 10;
  const ClosureResult result = CloseTiming(design, tech, opt);
  ASSERT_GE(result.iterations.size(), 1u);
  EXPECT_TRUE(result.converged);
  for (std::size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_GE(result.iterations[i].worst_slack_ps,
              result.iterations[i - 1].worst_slack_ps)
        << "worst slack regressed at iteration " << i;
  }
  EXPECT_GE(result.final_worst_slack_ps,
            result.iterations.back().worst_slack_ps);
  for (const NetClosure& n : result.nets) EXPECT_TRUE(n.error.empty());
  // Optimized nets only ever got faster.
  for (const NetClosure& n : result.nets) {
    EXPECT_LE(n.final_delay_ps, n.initial_delay_ps);
  }
}

TEST(Closure, HundredNetDesignIsDeterministicAcrossJobsAndCachesWarm) {
  const Technology tech = SmallTech();
  const Design design =
      GenerateDesign(SmallDesignConfig(100, 17, 0.55), tech);
  ASSERT_GE(design.nets.size(), 100u);

  ScratchDir dir("closure_cache");
  ClosureOptions opt;
  opt.jobs = 1;
  opt.max_iters = 12;
  opt.cache_dir = (dir.path / "cache").string();
  const ClosureResult r1 = CloseTiming(design, tech, opt);

  EXPECT_TRUE(r1.converged);
  for (std::size_t i = 1; i < r1.iterations.size(); ++i) {
    EXPECT_GE(r1.iterations[i].worst_slack_ps,
              r1.iterations[i - 1].worst_slack_ps);
  }

  // Byte-identical report at --jobs 8 (fresh in-memory cache so the
  // hit/miss columns match the jobs-1 run).
  ClosureOptions opt8 = opt;
  opt8.jobs = 8;
  opt8.cache_dir.clear();
  ClosureOptions opt1 = opt;
  opt1.cache_dir.clear();
  const ClosureResult r8 = CloseTiming(design, tech, opt8);
  const ClosureResult r1mem = CloseTiming(design, tech, opt1);
  std::ostringstream rep1, rep8;
  WriteClosureReport(rep1, r1mem);
  WriteClosureReport(rep8, r8);
  EXPECT_EQ(rep1.str(), rep8.str());

  // Iterations past the first re-resolve re-selected nets from the
  // cache: nonzero hits within a single cold run.
  std::uint64_t hits1 = 0, misses1 = 0;
  for (const IterationStats& it : r1.iterations) {
    hits1 += it.cache_hits;
    misses1 += it.cache_misses;
  }
  EXPECT_GT(misses1, 0u);
  if (r1.iterations.size() > 1 &&
      r1.iterations[1].nets_examined > 0) {
    EXPECT_GT(hits1, 0u);
  }

  // A second run against the persisted cache is pure hits: zero misses,
  // zero DP runs.
  const ClosureResult r2 = CloseTiming(design, tech, opt);
  std::uint64_t hits2 = 0, misses2 = 0, dp2 = 0;
  for (const IterationStats& it : r2.iterations) {
    hits2 += it.cache_hits;
    misses2 += it.cache_misses;
    dp2 += it.dp_runs;
  }
  EXPECT_GT(hits2, 0u);
  EXPECT_EQ(misses2, 0u);
  EXPECT_EQ(dp2, 0u);
  // And it reaches the same answer.
  EXPECT_DOUBLE_EQ(r2.final_worst_slack_ps, r1.final_worst_slack_ps);

  // The stats document carries the schema, totals, and histogram.
  std::ostringstream json;
  WriteClosureStatsJson(json, r2, "design");
  EXPECT_NE(json.str().find("\"schema\":\"msn-sta-stats-v1\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"slack_histogram\":[["), std::string::npos);
  EXPECT_NE(json.str().find("\"registry\":{"), std::string::npos);
}

TEST(Closure, MeetsTimingWhenRequirementsAreLoose) {
  const Technology tech = SmallTech();
  // required_factor > 1: the unoptimized design already meets timing.
  const Design design = GenerateDesign(SmallDesignConfig(6, 21, 1.5), tech);
  ClosureOptions opt;
  const ClosureResult result = CloseTiming(design, tech, opt);
  EXPECT_TRUE(result.timing_met);
  EXPECT_TRUE(result.converged);
  ASSERT_EQ(result.iterations.size(), 1u);
  EXPECT_EQ(result.iterations[0].dp_runs, 0u);
  EXPECT_GE(result.final_worst_slack_ps, 0.0);
}

TEST(Closure, HonorsCancellation) {
  const Technology tech = SmallTech();
  const Design design = GenerateDesign(SmallDesignConfig(6, 2, 0.6), tech);
  CancellationSource source;
  source.Cancel();
  ClosureOptions opt;
  opt.base.cancel = source.Token();
  EXPECT_THROW(CloseTiming(design, tech, opt), CancelledError);
}

TEST(Closure, RejectsInstrumentedBaseOptions) {
  const Technology tech = SmallTech();
  const Design design = GenerateDesign(SmallDesignConfig(3, 2, 0.8), tech);
  obs::RunStats stats;
  obs::StatsSink sink(&stats);
  ClosureOptions opt;
  opt.base.stats = &sink;
  EXPECT_THROW(CloseTiming(design, tech, opt), CheckError);
  ClosureOptions zero_jobs;
  zero_jobs.jobs = 0;
  EXPECT_THROW(CloseTiming(design, tech, zero_jobs), CheckError);
}

}  // namespace
}  // namespace msn::sta
