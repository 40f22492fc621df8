#include "service/canonical.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/check.h"

namespace msn::service {
namespace {

/// Exact, locale-free double encoding: the IEEE-754 bit pattern in hex.
/// -0.0 folds into +0.0 and every NaN into one canonical pattern so
/// numerically indistinguishable requests fingerprint identically.
void AppendDouble(std::string* out, double v) {
  if (v == 0.0) v = 0.0;  // +0.0 == -0.0 compares true; store +0.0 bits.
  std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  if (std::isnan(v)) bits = 0x7ff8000000000000ull;
  static const char kHex[] = "0123456789abcdef";
  char digits[16];
  for (int i = 15; i >= 0; --i, bits >>= 4) digits[i] = kHex[bits & 0xF];
  out->append(digits, sizeof digits);
}

void AppendSize(std::string* out, std::size_t v) {
  out->append(std::to_string(v));
}

void AppendBool(std::string* out, bool v) { out->push_back(v ? '1' : '0'); }

/// TerminalOption electricals; the name is display-only and excluded.
void AppendOption(std::string* out, const TerminalOption& opt) {
  out->push_back('o');
  AppendDouble(out, opt.cost);
  AppendDouble(out, opt.arrival_extra_ps);
  AppendDouble(out, opt.driver_res);
  AppendDouble(out, opt.driver_intrinsic_ps);
  AppendDouble(out, opt.pin_cap);
  AppendDouble(out, opt.downstream_extra_ps);
}

std::string RepeaterPayload(const Repeater& r) {
  std::string out = "r";
  AppendDouble(&out, r.intrinsic_ab);
  AppendDouble(&out, r.res_ab);
  AppendDouble(&out, r.intrinsic_ba);
  AppendDouble(&out, r.res_ba);
  AppendDouble(&out, r.cap_a);
  AppendDouble(&out, r.cap_b);
  AppendDouble(&out, r.cost);
  AppendBool(&out, r.inverting);
  return out;
}

std::string OptionPayload(const TerminalOption& opt) {
  std::string out;
  AppendOption(&out, opt);
  return out;
}

/// Appends the node payload: kind plus, for terminals, the full
/// electrical identity.  Plane coordinates are rendering-only and
/// excluded.
void AppendNodePayload(std::string* out, const RcTree& tree, NodeId v) {
  const RcNode& node = tree.Node(v);
  switch (node.kind) {
    case NodeKind::kSteiner:
      out->push_back('S');
      return;
    case NodeKind::kInsertion:
      out->push_back('I');
      return;
    case NodeKind::kTerminal: {
      const TerminalParams& t = tree.Terminal(node.terminal_index);
      out->push_back('T');
      AppendDouble(out, t.arrival_ps);
      AppendDouble(out, t.downstream_ps);
      AppendBool(out, t.is_source);
      AppendBool(out, t.is_sink);
      AppendOption(out, t.driver);
      return;
    }
  }
  out->push_back('?');  // Unreachable; kinds are exhaustive.
}

/// Canonical encoding of the tree rooted at `root`, appended to `out`:
/// iterative reverse-BFS post-order (insertion-point chains make
/// recursion depth unbounded), children folded as a sorted multiset of
/// (edge payload + child encoding) so adjacency order and edge
/// declaration order vanish.  Each subtree is encoded once, edge prefix
/// included, into a string reserved up front; its parent sorts child ids
/// by those strings and appends them.
void AppendRootedTree(std::string* out, const RcTree& tree, NodeId root) {
  const std::size_t n = tree.NumNodes();
  std::vector<NodeId> parent(n, kNoNode);
  std::vector<std::size_t> parent_edge(n, static_cast<std::size_t>(-1));
  std::vector<NodeId> order;
  order.reserve(n);
  order.push_back(root);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId v = order[head];
    for (const std::size_t e : tree.AdjacentEdges(v)) {
      const RcEdge& edge = tree.Edge(e);
      const NodeId w = edge.a == v ? edge.b : edge.a;
      if (w == parent[v] || w == root || parent[w] != kNoNode) {
        continue;  // The only visited neighbor of a tree node.
      }
      parent[w] = v;
      parent_edge[w] = e;
      order.push_back(w);
    }
  }
  MSN_CHECK_MSG(order.size() == n,
                "canonicalize: tree is disconnected from the root");

  // 'E' and three doubles, then the largest node payload (a terminal)
  // and the parentheses.
  constexpr std::size_t kMaxOwnBytes = (1 + 3 * 16) + (1 + 2 * 16 + 2) +
                                       (1 + 6 * 16) + 2;
  std::vector<std::string> enc(n);
  std::vector<NodeId> kids;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    kids.clear();
    std::size_t size = kMaxOwnBytes;
    for (const std::size_t e : tree.AdjacentEdges(v)) {
      const RcEdge& edge = tree.Edge(e);
      const NodeId w = edge.a == v ? edge.b : edge.a;
      if (parent_edge[w] != e) continue;  // `e` leads to v's parent.
      kids.push_back(w);
      size += enc[w].size();
    }
    std::sort(kids.begin(), kids.end(),
              [&enc](NodeId a, NodeId b) { return enc[a] < enc[b]; });
    std::string* s = v == root ? out : &enc[v];
    s->reserve(s->size() + size);
    if (v != root) {
      const RcEdge& edge = tree.Edge(parent_edge[v]);
      s->push_back('E');
      AppendDouble(s, edge.length_um);
      AppendDouble(s, edge.res);
      AppendDouble(s, edge.cap);
    }
    AppendNodePayload(s, tree, v);
    s->push_back('(');
    for (const NodeId w : kids) {
      s->append(enc[w]);
      std::string().swap(enc[w]);  // Each encoding is used once.
    }
    s->push_back(')');
  }
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::string Fingerprint::Hex() const {
  static const char kHexDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (const std::uint64_t half : {hi, lo}) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(kHexDigits[(half >> shift) & 0xF]);
    }
  }
  return out;
}

Fingerprint HashBytes(const std::string& bytes) {
  // Two independently seeded FNV-1a streams, hashed in one pass,
  // finalized through splitmix64 and entangled with the length;
  // collisions are survivable (the cache compares canonical text on
  // hit) but should stay vanishingly rare.
  std::uint64_t a = 0xcbf29ce484222325ull;
  std::uint64_t b = 0x84222325cbf29ce4ull;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    a = (a ^ byte) * 0x100000001b3ull;
    b = (b ^ byte) * 0x100000001b3ull;
  }
  Fingerprint fp;
  fp.hi = SplitMix64(a ^ SplitMix64(bytes.size()));
  fp.lo = SplitMix64(b + 0x9e3779b97f4a7c15ull * (bytes.size() + 1));
  return fp;
}

CanonicalRequest Canonicalize(const RcTree& tree, const Technology& tech,
                              const MsriOptions& options) {
  tree.Validate();
  const NodeId root =
      options.root == kNoNode ? tree.TerminalNode(0) : options.root;

  std::string text = "msn-canonical-v1|net:";
  AppendRootedTree(&text, tree, root);

  // Tree-level wire parameters (insertion-point subdivision derives
  // parasitics from them; edges already carry resolved values, but the
  // pair is part of the request's electrical identity).
  text += "|wire:";
  AppendDouble(&text, tree.Wire().res_per_um);
  AppendDouble(&text, tree.Wire().cap_per_um);

  // Technology: wire, stage loading, and the repeater library as a
  // sorted multiset (library order must not affect the fingerprint; it
  // cannot affect the frontier).
  text += "|tech:";
  AppendDouble(&text, tech.wire.res_per_um);
  AppendDouble(&text, tech.wire.cap_per_um);
  AppendDouble(&text, tech.prev_stage_res);
  AppendDouble(&text, tech.next_stage_cap);
  if (options.insert_repeaters) {
    std::vector<std::string> reps;
    reps.reserve(tech.repeaters.size());
    for (const Repeater& r : tech.repeaters) {
      reps.push_back(RepeaterPayload(r));
    }
    std::sort(reps.begin(), reps.end());
    for (const std::string& r : reps) text += r;
  }

  // Every MsriOptions field that can change the frontier.  Excluded by
  // design: stats / trace / set_observer / cancel (observability and
  // cancellation hooks, which never change a result), mfs.base_case
  // (recursion cutover, performance-only), and root (already encoded by
  // rooting the traversal at it).
  text += "|opt:";
  AppendBool(&text, options.insert_repeaters);
  AppendBool(&text, options.size_drivers);
  if (options.size_drivers) {
    std::vector<std::string> lib;
    lib.reserve(options.sizing_library.size());
    for (const TerminalOption& o : options.sizing_library) {
      lib.push_back(OptionPayload(o));
    }
    std::sort(lib.begin(), lib.end());
    for (const std::string& o : lib) text += o;
  }
  AppendBool(&text, options.size_wires);
  if (options.size_wires) {
    std::vector<double> widths = options.wire_width_choices;
    std::sort(widths.begin(), widths.end());
    for (const double w : widths) AppendDouble(&text, w);
    AppendDouble(&text, options.wire_area_cost_per_um);
    AppendDouble(&text, options.wire_cost_quantum);
  }
  AppendDouble(&text, options.max_stage_length_um);
  text += "|mfs:";
  AppendSize(&text, static_cast<std::size_t>(options.mfs.mode));
  AppendDouble(&text, options.mfs.eps);
  AppendDouble(&text, options.mfs.cost_eps);
  AppendDouble(&text, options.mfs.cap_eps);
  AppendDouble(&text, options.mfs.delay_eps);

  CanonicalRequest request;
  request.text = std::move(text);
  request.fingerprint = HashBytes(request.text);
  return request;
}

}  // namespace msn::service
