#include "io/netfile.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/check.h"
#include "core/ard.h"
#include "core/msri.h"
#include "netgen/netgen.h"
#include "test_util.h"

namespace msn {
namespace {

TEST(NetFile, RoundTripPreservesStructure) {
  const Technology tech = DefaultTechnology();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    NetConfig cfg;
    cfg.seed = seed;
    cfg.num_terminals = 7;
    const RcTree tree = BuildExperimentNet(cfg, tech);
    const RcTree copy = RoundTripNet(tree);
    ASSERT_EQ(copy.NumNodes(), tree.NumNodes());
    ASSERT_EQ(copy.NumEdges(), tree.NumEdges());
    ASSERT_EQ(copy.NumTerminals(), tree.NumTerminals());
    ASSERT_EQ(copy.InsertionPoints().size(),
              tree.InsertionPoints().size());
    for (NodeId v = 0; v < tree.NumNodes(); ++v) {
      EXPECT_EQ(copy.Node(v).kind, tree.Node(v).kind);
      EXPECT_EQ(copy.Node(v).pos, tree.Node(v).pos);
      EXPECT_EQ(copy.Node(v).terminal_index, tree.Node(v).terminal_index);
    }
    for (std::size_t e = 0; e < tree.NumEdges(); ++e) {
      EXPECT_EQ(copy.Edge(e).a, tree.Edge(e).a);
      EXPECT_EQ(copy.Edge(e).b, tree.Edge(e).b);
      EXPECT_DOUBLE_EQ(copy.Edge(e).length_um, tree.Edge(e).length_um);
    }
  }
}

TEST(NetFile, RoundTripPreservesTiming) {
  const Technology tech = DefaultTechnology();
  NetConfig cfg;
  cfg.seed = 11;
  cfg.num_terminals = 8;
  RcTree tree = BuildExperimentNet(cfg, tech);
  tree.MutableTerminal(2).arrival_ps = 123.0;
  tree.MutableTerminal(5).is_source = false;
  const RcTree copy = RoundTripNet(tree);
  // Electrically identical nets yield bit-comparable ARD.
  EXPECT_NEAR(ComputeArd(copy, tech).ard_ps, ComputeArd(tree, tech).ard_ps,
              1e-9);
  EXPECT_DOUBLE_EQ(copy.Terminal(2).arrival_ps, 123.0);
  EXPECT_FALSE(copy.Terminal(5).is_source);
}

TEST(NetFile, SolutionRoundTrip) {
  const Technology tech = DefaultTechnology();
  NetConfig cfg;
  cfg.seed = 4;
  cfg.num_terminals = 6;
  const RcTree tree = BuildExperimentNet(cfg, tech);

  MsriOptions opt;
  opt.size_drivers = true;
  opt.sizing_library = DriverSizingLibrary(tech, {1.0, 2.0});
  const MsriResult result = RunMsri(tree, tech, opt);
  const TradeoffPoint* best = result.MinArd();
  ASSERT_NE(best, nullptr);

  std::stringstream ss;
  WriteSolution(ss, tree, *best);
  const SolutionFile sol = ReadSolution(ss, tree);

  const double orig =
      ComputeArd(tree, best->repeaters, best->drivers, tech).ard_ps;
  const double loaded =
      ComputeArd(tree, sol.repeaters, sol.drivers, tech).ard_ps;
  EXPECT_NEAR(loaded, orig, 1e-9);
  EXPECT_EQ(sol.repeaters.CountPlaced(), best->num_repeaters);
}

TEST(NetFile, WireWidthsRoundTrip) {
  const Technology tech = testing::SmallTech();
  const RcTree tree = testing::TwoPinLine(tech, 4000.0, 3);
  TradeoffPoint p{0.0,
                  0.0,
                  RepeaterAssignment(tree.NumNodes()),
                  DriverAssignment(tree.NumTerminals()),
                  0,
                  std::vector<double>(tree.NumEdges(), 1.0)};
  p.wire_widths[1] = 2.0;
  p.wire_widths[3] = 3.0;
  std::stringstream ss;
  WriteSolution(ss, tree, p);
  const SolutionFile sol = ReadSolution(ss, tree);
  ASSERT_EQ(sol.wire_widths.size(), tree.NumEdges());
  EXPECT_DOUBLE_EQ(sol.wire_widths[0], 1.0);
  EXPECT_DOUBLE_EQ(sol.wire_widths[1], 2.0);
  EXPECT_DOUBLE_EQ(sol.wire_widths[3], 3.0);
}

TEST(NetFile, CommentsAndBlankLinesIgnored) {
  std::stringstream ss;
  ss << "# a tiny two-pin net\n"
     << "msn-net 1\n\n"
     << "wire 0.04 0.000118  # ohm/um, pF/um\n"
     << "node 0 terminal 0 0\n"
     << "node 1 terminal 1000 0\n"
     << "terminal 0 0 0 1 1 0.05 180 36.4 20 72.4 2\n"
     << "terminal 1 0 0 1 1 0.05 180 36.4 20 72.4 2\n"
     << "edge 0 1 1000\n"
     << "end\n";
  const RcTree tree = ReadNet(ss);
  EXPECT_EQ(tree.NumTerminals(), 2u);
  EXPECT_DOUBLE_EQ(tree.Terminal(0).driver.driver_res, 180.0);
}

/// One malformed input and the exact diagnostic it must produce.
struct ParseCase {
  std::string text;
  std::size_t line;
  std::string what;
};

TEST(NetFile, MalformedInputsRejectedWithLineNumbers) {
  const std::string kHead = "msn-net 1\nwire 0.04 0.0001\n";
  const std::string kTerm = " 0 0 1 1 0.05 180 36.4 20 72.4 2\n";
  const std::string kPair = "node 0 terminal 0 0\nnode 1 terminal 9 0\n";
  const ParseCase cases[] = {
      {"node 0 terminal 0 0\n", 1, "line 1: missing 'msn-net 1' header"},
      {"msn-net 2\nend\n", 1, "line 1: unsupported msn-net version"},
      {"msn-net\nend\n", 1, "line 1: unsupported msn-net version"},
      {kHead + "end\n", 0, "net has no nodes"},
      {kHead + "node 0 bogus 0 0\nend\n", 3,
       "line 3: unknown node kind 'bogus'"},
      {kHead + "node 0 steiner 0 0\nnode 0 steiner 1 1\nend\n", 4,
       "line 4: duplicate node 0"},
      {kHead + "node 0 steiner 0 0\nnode 2 steiner 1 1\nend\n", 0,
       "node ids must be dense; missing node 1"},
      {kHead + "node 0 terminal 0 0\nend\n", 0,
       "terminal node 0 has no terminal record"},
      {"msn-net 1\nwire 0.04\nend\n", 2, "line 2: malformed wire record"},
      {kHead + "node 0 terminal 0\nend\n", 3,
       "line 3: malformed node record"},
      {kHead + "node 0 steiner 1.5 0\nend\n", 3,
       "line 3: malformed node record"},
      {kHead + kPair + "terminal 0 0 0 1 1\nend\n", 5,
       "line 5: malformed terminal record"},
      {kHead + kPair + "terminal 0" + kTerm + "terminal 0" + kTerm +
           "end\n",
       6, "line 6: duplicate terminal at node 0"},
      {kHead + kPair + "edge 0 1\nend\n", 5,
       "line 5: malformed edge record"},
      {kHead + kPair + "edge 0 1 inf\nend\n", 5,
       "line 5: malformed edge record"},
      {kHead + "bogus 1 2\nend\n", 3, "line 3: unknown record 'bogus'"},
      {kHead + kPair + "\n# no end\n", 0, "missing 'end' record"},
      {"msn-net 1\nnode 0 steiner 0 0\nend\n", 0, "missing wire record"},
      {kHead + "node 0 steiner 0 0\nterminal 0" + kTerm + "end\n", 0,
       "terminal record for a non-terminal node"},
      {kHead + "node 0 steiner 0 0\nterminal 7" + kTerm + "end\n", 0,
       "terminal record for a non-terminal node"},
      {kHead + "node -1 steiner 0 0\nend\n", 0,
       "node ids must be dense; missing node 0"},
      {kHead + "node -1 steiner 0 0\nnode 18446744073709551615 steiner 0 0\n"
               "end\n",
       4, "line 4: duplicate node 18446744073709551615"},
  };
  for (const ParseCase& c : cases) {
    std::stringstream ss(c.text);
    try {
      ReadNet(ss);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.Line(), c.line) << c.text;
      EXPECT_EQ(std::string(e.what()), c.what) << c.text;
    }
  }
}

TEST(NetFile, SolutionParseErrorsPinned) {
  const Technology tech = testing::SmallTech();
  const RcTree tree = testing::TwoPinLine(tech, 1000.0, 1);  // Node 2: IP.
  const ParseCase cases[] = {
      {"repeater 2 0\n", 1, "line 1: malformed repeater record"},
      {"\nrepeater 0 0 1\n", 2,
       "line 2: repeater must sit on an insertion point"},
      {"repeater 9 0 1\n", 1,
       "line 1: repeater must sit on an insertion point"},
      {"driver 0 2 20 180 36.4 0.05 72.4\n", 1,
       "line 1: malformed driver record"},
      {"driver 7 2 20 180 36.4 0.05 72.4 x\n", 1,
       "line 1: terminal out of range"},
      {"width 1\n", 1, "line 1: malformed width record"},
      {"# widths\nwidth 99 2.0\n", 2, "line 2: edge index out of range"},
      {"repeater 2 0 1\nbogus\n", 2, "line 2: unknown record 'bogus'"},
  };
  for (const ParseCase& c : cases) {
    std::stringstream ss(c.text);
    try {
      ReadSolution(ss, tree);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.Line(), c.line) << c.text;
      EXPECT_EQ(std::string(e.what()), c.what) << c.text;
    }
  }
}

TEST(NetFile, SolutionRejectsBadTargets) {
  const Technology tech = testing::SmallTech();
  const RcTree tree = testing::TwoPinLine(tech, 1000.0, 1);
  {
    std::stringstream ss("repeater 0 0 1\n");  // Node 0 is a terminal.
    EXPECT_THROW(ReadSolution(ss, tree), CheckError);
  }
  {
    std::stringstream ss("width 99 2.0\n");
    EXPECT_THROW(ReadSolution(ss, tree), CheckError);
  }
  {
    std::stringstream ss("driver 7 2 20 180 36.4 0.05 72.4 x\n");
    EXPECT_THROW(ReadSolution(ss, tree), CheckError);
  }
}

}  // namespace
}  // namespace msn
