#include "io/netfile.h"

#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "io/scan.h"

namespace msn {

ParseError::ParseError(std::size_t line, const std::string& message)
    : CheckError(line == 0
                     ? message
                     : "line " + std::to_string(line) + ": " + message),
      line_(line) {}

namespace {

/// Throws ParseError for malformed input at `line` (0 = whole file).
[[noreturn]] void FailAt(std::size_t line, const std::string& message) {
  throw ParseError(line, message);
}

const char* KindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kTerminal: return "terminal";
    case NodeKind::kSteiner: return "steiner";
    case NodeKind::kInsertion: return "insertion";
  }
  return "?";
}

NodeKind ParseKind(std::string_view token, std::size_t line) {
  if (token == "terminal") return NodeKind::kTerminal;
  if (token == "steiner") return NodeKind::kSteiner;
  if (token == "insertion") return NodeKind::kInsertion;
  FailAt(line, "unknown node kind '" + std::string(token) + "'");
}

/// Records keyed by id, for ids that a well-formed file numbers densely
/// from 0.  Ids below the dense limit index a vector; larger ones, which
/// only a malformed file holds, go to a map, so a stray huge id costs no
/// memory.
template <typename T>
class IdTable {
 public:
  explicit IdTable(std::size_t dense_limit) : dense_limit_(dense_limit) {}

  /// False if `id` is already present.
  bool Insert(std::size_t id, T value) {
    if (id >= dense_limit_) {
      return sparse_.emplace(id, std::move(value)).second;
    }
    if (id >= dense_.size()) dense_.resize(id + 1);
    if (dense_[id].has_value()) return false;
    dense_[id] = std::move(value);
    ++dense_count_;
    return true;
  }

  const T* Find(std::size_t id) const {
    if (id < dense_.size()) return dense_[id] ? &*dense_[id] : nullptr;
    const auto it = sparse_.find(id);
    return it == sparse_.end() ? nullptr : &it->second;
  }

  std::size_t Size() const { return dense_count_ + sparse_.size(); }

  /// The smallest id not present.
  std::size_t FirstMissing() const {
    std::size_t id = 0;
    while (id < dense_.size() && dense_[id].has_value()) ++id;
    while (sparse_.count(id) != 0) ++id;
    return id;
  }

 private:
  std::size_t dense_limit_;
  std::size_t dense_count_ = 0;
  std::vector<std::optional<T>> dense_;
  std::map<std::size_t, T> sparse_;
};

}  // namespace

void WriteNet(std::ostream& os, const RcTree& tree) {
  // Full round-trip precision: re-reading must reproduce the same doubles.
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "msn-net 1\n";
  os << "wire " << tree.Wire().res_per_um << ' ' << tree.Wire().cap_per_um
     << '\n';
  for (NodeId v = 0; v < tree.NumNodes(); ++v) {
    const RcNode& n = tree.Node(v);
    os << "node " << v << ' ' << KindName(n.kind) << ' ' << n.pos.x << ' '
       << n.pos.y << '\n';
  }
  for (std::size_t t = 0; t < tree.NumTerminals(); ++t) {
    const TerminalParams& p = tree.Terminal(t);
    os << "terminal " << tree.TerminalNode(t) << ' ' << p.arrival_ps << ' '
       << p.downstream_ps << ' ' << (p.is_source ? 1 : 0) << ' '
       << (p.is_sink ? 1 : 0) << ' ' << p.driver.pin_cap << ' '
       << p.driver.driver_res << ' ' << p.driver.driver_intrinsic_ps << ' '
       << p.driver.arrival_extra_ps << ' ' << p.driver.downstream_extra_ps
       << ' ' << p.driver.cost << '\n';
  }
  for (const RcEdge& e : tree.Edges()) {
    os << "edge " << e.a << ' ' << e.b << ' ' << e.length_um << '\n';
  }
  os << "end\n";
  os.precision(old_precision);
}

RcTree ReadNet(std::string_view text) {
  struct NodeRecord {
    NodeKind kind;
    Point pos;
  };
  struct EdgeRecord {
    NodeId a, b;
    double length;
  };

  // Every node or terminal record is longer than 16 bytes, so no id of a
  // well-formed file reaches the dense limit.
  const std::size_t dense_limit = text.size() / 16 + 1;
  std::optional<WireParams> wire;
  IdTable<NodeRecord> nodes(dense_limit);
  IdTable<TerminalParams> terminals(dense_limit);
  std::vector<EdgeRecord> edges;
  bool saw_header = false;
  bool saw_end = false;

  LineScanner in(text);
  std::string_view tag;
  while (!saw_end && in.NextRecord(&tag)) {
    const std::size_t line_no = in.LineNo();
    if (tag == "msn-net") {
      int version = 0;
      if (!in.Read(&version) || version != 1) {
        FailAt(line_no, "unsupported msn-net version");
      }
      saw_header = true;
      continue;
    }
    if (!saw_header) FailAt(line_no, "missing 'msn-net 1' header");
    if (tag == "wire") {
      WireParams w;
      if (!in.Read(&w.res_per_um, &w.cap_per_um)) {
        FailAt(line_no, "malformed wire record");
      }
      wire = w;
    } else if (tag == "node") {
      NodeId id;
      std::string_view kind;
      NodeRecord rec;
      if (!in.Read(&id, &kind, &rec.pos.x, &rec.pos.y)) {
        FailAt(line_no, "malformed node record");
      }
      rec.kind = ParseKind(kind, line_no);
      if (!nodes.Insert(id, rec)) {
        FailAt(line_no, "duplicate node " + std::to_string(id));
      }
    } else if (tag == "terminal") {
      NodeId id;
      TerminalParams p;
      int is_source = 1, is_sink = 1;
      if (!in.Read(&id, &p.arrival_ps, &p.downstream_ps, &is_source,
                   &is_sink, &p.driver.pin_cap, &p.driver.driver_res,
                   &p.driver.driver_intrinsic_ps, &p.driver.arrival_extra_ps,
                   &p.driver.downstream_extra_ps, &p.driver.cost)) {
        FailAt(line_no, "malformed terminal record");
      }
      p.is_source = is_source != 0;
      p.is_sink = is_sink != 0;
      p.driver.name = "from-file";
      if (!terminals.Insert(id, std::move(p))) {
        FailAt(line_no, "duplicate terminal at node " + std::to_string(id));
      }
    } else if (tag == "edge") {
      EdgeRecord e;
      if (!in.Read(&e.a, &e.b, &e.length)) {
        FailAt(line_no, "malformed edge record");
      }
      edges.push_back(e);
    } else if (tag == "end") {
      saw_end = true;
    } else {
      FailAt(line_no, "unknown record '" + std::string(tag) + "'");
    }
  }
  if (!saw_end) FailAt(0, "missing 'end' record");
  if (!wire.has_value()) FailAt(0, "missing wire record");
  if (nodes.Size() == 0) FailAt(0, "net has no nodes");
  // Ids must be dense 0..n-1.
  if (const std::size_t missing = nodes.FirstMissing();
      missing != nodes.Size()) {
    FailAt(0, "node ids must be dense; missing node " +
                  std::to_string(missing));
  }

  RcTree tree(*wire);
  for (NodeId id = 0; id < nodes.Size(); ++id) {
    const NodeRecord& rec = *nodes.Find(id);
    if (rec.kind == NodeKind::kTerminal) {
      const TerminalParams* params = terminals.Find(id);
      if (params == nullptr) {
        FailAt(0, "terminal node " + std::to_string(id) +
                      " has no terminal record");
      }
      tree.AddTerminal(*params, rec.pos);
    } else {
      tree.AddNode(rec.kind, rec.pos);
    }
  }
  if (terminals.Size() != tree.NumTerminals()) {
    FailAt(0, "terminal record for a non-terminal node");
  }
  for (const EdgeRecord& e : edges) {
    tree.AddEdge(e.a, e.b, e.length);
  }
  tree.Validate();
  return tree;
}

RcTree ReadNet(std::istream& is) { return ReadNet(ReadAll(is)); }

void WriteSolution(std::ostream& os, const RcTree& tree,
                   const TradeoffPoint& point) {
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  for (NodeId v = 0; v < tree.NumNodes(); ++v) {
    if (!point.repeaters.Has(v)) continue;
    const PlacedRepeater& r = *point.repeaters.At(v);
    os << "repeater " << v << ' ' << r.repeater_index << ' '
       << r.a_side_neighbor << '\n';
  }
  for (std::size_t t = 0; t < point.drivers.NumTerminals(); ++t) {
    if (!point.drivers.At(t)) continue;
    const TerminalOption& o = *point.drivers.At(t);
    os << "driver " << t << ' ' << o.cost << ' ' << o.arrival_extra_ps
       << ' ' << o.driver_res << ' ' << o.driver_intrinsic_ps << ' '
       << o.pin_cap << ' ' << o.downstream_extra_ps << ' '
       << (o.name.empty() ? "unnamed" : o.name) << '\n';
  }
  for (std::size_t e = 0; e < point.wire_widths.size(); ++e) {
    if (point.wire_widths[e] == 1.0) continue;
    os << "width " << e << ' ' << point.wire_widths[e] << '\n';
  }
  os.precision(old_precision);
}

SolutionFile ReadSolution(std::istream& is, const RcTree& tree) {
  SolutionFile sol(tree);
  const std::string text = ReadAll(is);
  LineScanner in(text);
  std::string_view tag;
  while (in.NextRecord(&tag)) {
    const std::size_t line_no = in.LineNo();
    if (tag == "repeater") {
      NodeId v, a_side;
      std::size_t index;
      if (!in.Read(&v, &index, &a_side)) {
        FailAt(line_no, "malformed repeater record");
      }
      if (v >= tree.NumNodes() ||
          tree.Node(v).kind != NodeKind::kInsertion) {
        FailAt(line_no, "repeater must sit on an insertion point");
      }
      sol.repeaters.Place(v, PlacedRepeater{index, a_side});
    } else if (tag == "driver") {
      std::size_t t;
      TerminalOption o;
      if (!in.Read(&t, &o.cost, &o.arrival_extra_ps, &o.driver_res,
                   &o.driver_intrinsic_ps, &o.pin_cap,
                   &o.downstream_extra_ps, &o.name)) {
        FailAt(line_no, "malformed driver record");
      }
      if (t >= tree.NumTerminals()) {
        FailAt(line_no, "terminal out of range");
      }
      sol.drivers.Choose(t, std::move(o));
    } else if (tag == "width") {
      std::size_t e;
      double w;
      if (!in.Read(&e, &w)) {
        FailAt(line_no, "malformed width record");
      }
      if (e >= tree.NumEdges()) {
        FailAt(line_no, "edge index out of range");
      }
      if (sol.wire_widths.empty()) {
        sol.wire_widths.assign(tree.NumEdges(), 1.0);
      }
      sol.wire_widths[e] = w;
    } else {
      FailAt(line_no, "unknown record '" + std::string(tag) + "'");
    }
  }
  return sol;
}

RcTree RoundTripNet(const RcTree& tree) {
  std::ostringstream os;
  WriteNet(os, tree);
  return ReadNet(os.str());
}

}  // namespace msn
