// Differential test of the .msn reader against the line-by-line
// std::istringstream reader it replaced (kept here, test-local, as the
// reference), plus the canonical fingerprints recorded from that reader's
// build: parsing and canonicalization must not change what any input
// means.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/msri.h"
#include "io/netfile.h"
#include "netgen/netgen.h"
#include "service/canonical.h"
#include "tech/tech.h"

namespace msn {
namespace {

// ---------------------------------------------------------------------
// Reference: the stream reader, verbatim apart from its name and with
// FailAt spelled out as `throw ParseError`.

NodeKind RefParseKind(const std::string& token, std::size_t line) {
  if (token == "terminal") return NodeKind::kTerminal;
  if (token == "steiner") return NodeKind::kSteiner;
  if (token == "insertion") return NodeKind::kInsertion;
  throw ParseError(line, "unknown node kind '" + token + "'");
}

RcTree ReferenceReadNet(std::istream& is) {
  struct NodeRecord {
    NodeKind kind;
    Point pos;
  };
  struct EdgeRecord {
    NodeId a, b;
    double length;
  };

  std::optional<WireParams> wire;
  std::map<NodeId, NodeRecord> nodes;
  std::map<NodeId, TerminalParams> terminals;
  std::vector<EdgeRecord> edges;
  bool saw_header = false;
  bool saw_end = false;

  std::string line;
  std::size_t line_no = 0;
  while (!saw_end && std::getline(is, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) continue;  // Blank or comment-only.

    if (tag == "msn-net") {
      int version = 0;
      if (!(ls >> version) || version != 1) {
        throw ParseError(line_no, "unsupported msn-net version");
      }
      saw_header = true;
      continue;
    }
    if (!saw_header) throw ParseError(line_no, "missing 'msn-net 1' header");
    if (tag == "wire") {
      WireParams w;
      if (!(ls >> w.res_per_um >> w.cap_per_um)) {
        throw ParseError(line_no, "malformed wire record");
      }
      wire = w;
    } else if (tag == "node") {
      NodeId id;
      std::string kind;
      NodeRecord rec;
      if (!(ls >> id >> kind >> rec.pos.x >> rec.pos.y)) {
        throw ParseError(line_no, "malformed node record");
      }
      rec.kind = RefParseKind(kind, line_no);
      if (!nodes.emplace(id, rec).second) {
        throw ParseError(line_no, "duplicate node " + std::to_string(id));
      }
    } else if (tag == "terminal") {
      NodeId id;
      TerminalParams p;
      int is_source = 1, is_sink = 1;
      if (!(ls >> id >> p.arrival_ps >> p.downstream_ps >> is_source >>
            is_sink >> p.driver.pin_cap >> p.driver.driver_res >>
            p.driver.driver_intrinsic_ps >> p.driver.arrival_extra_ps >>
            p.driver.downstream_extra_ps >> p.driver.cost)) {
        throw ParseError(line_no, "malformed terminal record");
      }
      p.is_source = is_source != 0;
      p.is_sink = is_sink != 0;
      p.driver.name = "from-file";
      if (!terminals.emplace(id, p).second) {
        throw ParseError(line_no,
                         "duplicate terminal at node " + std::to_string(id));
      }
    } else if (tag == "edge") {
      EdgeRecord e;
      if (!(ls >> e.a >> e.b >> e.length)) {
        throw ParseError(line_no, "malformed edge record");
      }
      edges.push_back(e);
    } else if (tag == "end") {
      saw_end = true;
    } else {
      throw ParseError(line_no, "unknown record '" + tag + "'");
    }
  }
  if (!saw_end) throw ParseError(0, "missing 'end' record");
  if (!wire.has_value()) throw ParseError(0, "missing wire record");
  if (nodes.empty()) throw ParseError(0, "net has no nodes");

  NodeId expected = 0;
  for (const auto& [id, rec] : nodes) {
    if (id != expected) {
      throw ParseError(0, "node ids must be dense; missing node " +
                              std::to_string(expected));
    }
    ++expected;
  }

  RcTree tree(*wire);
  for (const auto& [id, rec] : nodes) {
    if (rec.kind == NodeKind::kTerminal) {
      const auto it = terminals.find(id);
      if (it == terminals.end()) {
        throw ParseError(0, "terminal node " + std::to_string(id) +
                                " has no terminal record");
      }
      tree.AddTerminal(it->second, rec.pos);
    } else {
      tree.AddNode(rec.kind, rec.pos);
    }
  }
  if (terminals.size() != tree.NumTerminals()) {
    throw ParseError(0, "terminal record for a non-terminal node");
  }
  for (const EdgeRecord& e : edges) {
    tree.AddEdge(e.a, e.b, e.length);
  }
  tree.Validate();
  return tree;
}

// ---------------------------------------------------------------------

/// Everything observable about one parse: the error, or the tree's
/// serialization and canonical text.
struct Outcome {
  std::string error;  ///< "parse@<line>: what" or "check: what"; empty if ok.
  std::string net;
  std::string canonical;
  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return os << (o.error.empty() ? o.net : o.error);
}

template <typename Reader>
Outcome Parse(const std::string& text, Reader read) {
  Outcome out;
  try {
    std::istringstream is(text);
    const RcTree tree = read(is);
    std::ostringstream os;
    WriteNet(os, tree);
    out.net = os.str();
    if (tree.NumTerminals() > 0) {
      out.canonical =
          service::Canonicalize(tree, DefaultTechnology(), MsriOptions{})
              .text;
    }
  } catch (const ParseError& e) {
    out.error = "parse@" + std::to_string(e.Line()) + ": " + e.what();
  } catch (const CheckError& e) {
    out.error = std::string("check: ") + e.what();
  }
  return out;
}

Outcome ParseNew(const std::string& text) {
  return Parse(text, [](std::istream& is) { return ReadNet(is); });
}

Outcome ParseRef(const std::string& text) {
  return Parse(text, [](std::istream& is) { return ReferenceReadNet(is); });
}

/// Parses through the stream overload.
RcTree ReadText(const std::string& text) {
  std::istringstream is(text);
  return ReadNet(is);
}

std::string NetText(std::uint64_t seed, std::size_t terminals) {
  NetConfig cfg;
  cfg.seed = seed;
  cfg.num_terminals = terminals;
  std::ostringstream os;
  WriteNet(os, BuildExperimentNet(cfg, DefaultTechnology()));
  return os.str();
}

/// Tokens on which the two readers could plausibly part ways.
const char* const kTokens[] = {
    "+5",    "1e-400", "-1e-400", "1e-310", "5.0x", "0x10", ".5",  "5.",
    "-.5",   "inf",    "nan",     "1e400",  "-1",   "+0",   "-0",  "1e",
    "1e+",   "1e5e3",  "+-1",     "1.5",    "007",  ".",    "-",   "+",
    "2147483648",     "-2147483649",      "18446744073709551615",
    "18446744073709551616",   "4.9e-324", "1e-99999999999999999999",
    "0.0000000000000000000000000000000000000000000000000000000000001e-300",
    "#",     "steiner", "terminal", "insertion", "end", "node", "edge",
    "wire",  "msn-net", "2",     "0",      "1",     "x",    "\t",  "\r"};

const char kChars[] = "0123456789+-.eEx# \t\r\n";

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::string Join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// Applies one random edit: a character, a token or a whole line.
std::string Mutate(const std::string& text, Rng& rng) {
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  std::string s = text;
  const std::vector<std::string> lines = Lines(s);
  if (lines.empty()) return s + kTokens[pick(std::size(kTokens))];
  switch (pick(7)) {
    case 0:  // Replace, insert or delete one character.
      if (!s.empty()) s[pick(s.size())] = kChars[pick(sizeof kChars - 1)];
      return s;
    case 1:
      s.insert(pick(s.size() + 1), 1, kChars[pick(sizeof kChars - 1)]);
      return s;
    case 2:
      if (!s.empty()) s.erase(pick(s.size()), 1);
      return s;
    case 3: {  // Replace one whitespace-separated token.
      std::vector<std::pair<std::size_t, std::size_t>> spans;
      for (std::size_t i = 0; i < s.size();) {
        if (std::isspace(static_cast<unsigned char>(s[i]))) {
          ++i;
          continue;
        }
        const std::size_t start = i;
        while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
          ++i;
        }
        spans.emplace_back(start, i - start);
      }
      if (spans.empty()) return s;
      const auto [start, len] = spans[pick(spans.size())];
      s.replace(start, len, kTokens[pick(std::size(kTokens))]);
      return s;
    }
    case 4: {  // Delete, duplicate or swap lines.
      std::vector<std::string> edited = lines;
      const std::size_t i = pick(edited.size());
      const std::size_t j = pick(edited.size());
      switch (pick(3)) {
        case 0:
          edited.erase(edited.begin() + static_cast<long>(i));
          break;
        case 1:
          edited.insert(edited.begin() + static_cast<long>(i), lines[j]);
          break;
        default:
          std::swap(edited[i], edited[j]);
      }
      return Join(edited);
    }
    case 5:  // Truncate.
      s.resize(pick(s.size() + 1));
      return s;
    default: {  // Append a field to one line.
      std::vector<std::string> edited = lines;
      edited[pick(edited.size())] +=
          std::string(" ") + kTokens[pick(std::size(kTokens))];
      return Join(edited);
    }
  }
}

TEST(NetFileDiff, MutatedNetsMatchStreamReader) {
  Rng rng(20240917);
  std::size_t accepted = 0, rejected = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::string base = NetText(seed, 3 + seed);
    ASSERT_EQ(ParseNew(base), ParseRef(base));
    for (int k = 0; k < 400; ++k) {
      std::string text = base;
      const std::int64_t edits = rng.UniformInt(1, 3);
      for (std::int64_t e = 0; e < edits; ++e) text = Mutate(text, rng);
      const Outcome got = ParseNew(text);
      ASSERT_EQ(got, ParseRef(text)) << "input:\n" << text;
      ++(got.error.empty() ? accepted : rejected);
    }
  }
  // The mutations must exercise both outcomes, not just reject everything.
  EXPECT_GT(accepted, 200u);
  EXPECT_GT(rejected, 200u);
}

/// A two-terminal, one-Steiner net whose first edge length is `length`.
std::string SmallNet(const std::string& length) {
  return "msn-net 1\n"
         "wire 0.04 0.0001\n"
         "node 0 terminal 0 0\n"
         "node 1 steiner 5 0\n"
         "node 2 terminal 9 0\n"
         "terminal 0 0 0 1 1 0.05 180 36.4 20 72.4 2\n"
         "terminal 2 0 0 1 1 0.05 180 36.4 20 72.4 2\n"
         "edge 0 1 " + length + "\n"
         "edge 1 2 7\n"
         "end\n";
}

TEST(NetFileDiff, StreamNumberSemanticsKept) {
  const struct {
    const char* length;
    double value;
  } kAccepted[] = {
      {"+5", 5.0},      {"1e-400", 0.0}, {"5.0x", 5.0}, {"5 7 8", 5.0},
      {"0x10", 0.0},    {".5", 0.5},     {"5.", 5.0},   {"+0", 0.0},
      {"1e5e3", 1e5},
  };
  for (const auto& c : kAccepted) {
    const std::string text = SmallNet(c.length);
    ASSERT_EQ(ParseNew(text), ParseRef(text)) << c.length;
    const RcTree tree = ReadText(text);
    EXPECT_EQ(tree.Edge(0).length_um, c.value) << c.length;
    EXPECT_FALSE(std::signbit(tree.Edge(0).length_um)) << c.length;
  }
  {
    const RcTree tree = ReadText(SmallNet("1e-310"));
    EXPECT_EQ(tree.Edge(0).length_um, 1e-310);
    EXPECT_EQ(std::fpclassify(tree.Edge(0).length_um), FP_SUBNORMAL);
  }
  for (const char* bad : {"inf", "1e400", "nan", "1e", "1e+", "+-1", "-"}) {
    const std::string text = SmallNet(bad);
    EXPECT_EQ(ParseNew(text), ParseRef(text)) << bad;
    EXPECT_EQ(ParseNew(text).error, "parse@8: line 8: malformed edge record")
        << bad;
  }
  // Integer fields: '+' is accepted, '-' wraps an unsigned id.
  std::string text = SmallNet("5");
  text.replace(text.find("node 0"), 6, "node +0");
  EXPECT_EQ(ParseNew(text), ParseRef(text));
  EXPECT_TRUE(ParseNew(text).error.empty());
  const std::string wrapped =
      "msn-net 1\nwire 0.04 0.0001\nnode -1 steiner 0 0\nend\n";
  EXPECT_EQ(ParseNew(wrapped), ParseRef(wrapped));
  EXPECT_EQ(ParseNew(wrapped).error,
            "parse@0: node ids must be dense; missing node 0");
}

TEST(NetFileDiff, LineAndCommentLayoutKept) {
  const std::string base = NetText(3, 5);
  const Outcome expected = ParseRef(base);
  ASSERT_TRUE(expected.error.empty()) << expected;

  std::string crlf, tabs;
  for (const char c : base) {
    if (c == '\n') crlf += '\r';
    crlf += c;
    tabs += c == ' ' ? '\t' : c;
  }
  std::string comments;
  for (const std::string& line : Lines(base)) {
    comments += line + "  # trailing note 1 2 3\n# whole-line comment\n\n";
  }
  const std::string no_final_newline = base.substr(0, base.size() - 1);
  const std::string after_end = base + "garbage that is never read\n";
  for (const std::string& text :
       {crlf, tabs, comments, no_final_newline, after_end}) {
    EXPECT_EQ(ParseNew(text), expected) << text;
    EXPECT_EQ(ParseRef(text), expected) << text;
  }
}

TEST(NetFileDiff, FingerprintsMatchRecordedValues) {
  // Fingerprint::Hex() recorded from the stream reader's build; a cache
  // directory written then must keep serving hits.
  const Technology tech = DefaultTechnology();
  MsriOptions repeaters;
  MsriOptions sizing;
  sizing.size_drivers = true;
  sizing.insert_repeaters = false;
  sizing.sizing_library = DriverSizingLibrary(tech, {1.0, 2.0, 3.0, 4.0});
  MsriOptions joint = sizing;
  joint.insert_repeaters = true;
  const struct {
    std::uint64_t seed;
    std::size_t terminals;
    const MsriOptions* options;
    const char* hex;
  } kPins[] = {
      {1, 6, &repeaters, "6068eba076577faa75ad8c0c0c6ed61c"},
      {2, 10, &repeaters, "91f004bd81dfd4090fe24bd8f1253f64"},
      {1, 6, &sizing, "d24844c05c94bbc63a34e6b7efdc0d2a"},
      {2, 10, &sizing, "bb1288b3a4e68c351fce2e8b250ddb17"},
      {1, 6, &joint, "d31de26219e9a1232ed4f9515d890492"},
      {2, 10, &joint, "a2011ca2190d15abcfedb7e0e95312b7"},
  };
  for (const auto& pin : kPins) {
    const RcTree tree = ReadText(NetText(pin.seed, pin.terminals));
    EXPECT_EQ(service::Canonicalize(tree, tech, *pin.options).fingerprint.Hex(),
              pin.hex)
        << "seed " << pin.seed << " terminals " << pin.terminals;
  }
}

}  // namespace
}  // namespace msn
