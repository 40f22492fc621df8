#include "core/msri.h"

#include <algorithm>

#include "common/check.h"
#include "common/numeric.h"
#include "core/pareto.h"
#include "obs/trace.h"
#include "rctree/rooted.h"

namespace msn {
namespace {

/// Shared DP context.
struct Context {
  const RcTree& tree;
  const RootedTree& rooted;
  const Technology& tech;
  const MsriOptions& options;
  MsriStats* stats;
  /// Observability sink; null disables all recording (see MsriOptions).
  obs::StatsSink* sink;
  /// Request-scoped trace; null disables span recording (see
  /// MsriOptions::trace).
  obs::Trace* trace = nullptr;
  /// Upper bound on any reachable external capacitance: the whole net's
  /// capacitance (wires at maximum width, fattest pins, every insertion
  /// point buffered with the fattest repeater side).  Solutions only need
  /// to be characterized on [0, x_max]; clipping the validity domains
  /// there lets dominance kill solutions that would only win at
  /// unreachable loads — essential for wire sizing, where wide variants
  /// otherwise survive forever on large-x slivers.
  double x_max = kInf;

  void Record(const SolutionSet& set) {
    stats->max_set_size = std::max(stats->max_set_size, set.size());
    for (const SolutionPtr& s : set) {
      stats->max_pwl_segments =
          std::max({stats->max_pwl_segments, s->arr.NumSegments(),
                    s->diam.NumSegments()});
    }
    if (sink != nullptr) {
      sink->msri_set_size->Record(static_cast<double>(set.size()));
    }
  }

  /// Opens a DP phase: the sink's `timer` and the span `name`.
  obs::ScopedPhase Phase(obs::Timer* obs::StatsSink::* timer,
                         const char* name) const {
    return obs::ScopedPhase(sink != nullptr ? sink->*timer : nullptr, trace,
                            name);
  }

  /// MFS pruning (Def. 4.3) as a phase of its own: the `mfs.time` timer,
  /// an `mfs` span, and the call's counts into this context's MsriStats.
  /// The first `minimal_prefix` entries are an earlier Mfs output, whose
  /// pairs need no retest (ComputeMfs).
  SolutionSet Mfs(SolutionSet set, std::size_t minimal_prefix = 0) {
    const auto phase = Phase(&obs::StatsSink::mfs_time, "mfs");
    return ComputeMfs(std::move(set), options.mfs, &stats->mfs,
                      minimal_prefix);
  }
};

/// A terminal's driver realizations (Figs. 6, 9): the sizing library, or
/// just its own driver (detail = kNoDetail marks the default).
std::vector<std::pair<std::size_t, const TerminalOption*>> DriverChoices(
    const MsriOptions& options, const TerminalParams& params) {
  std::vector<std::pair<std::size_t, const TerminalOption*>> choices;
  if (options.size_drivers) {
    for (std::size_t i = 0; i < options.sizing_library.size(); ++i) {
      choices.emplace_back(i, &options.sizing_library[i]);
    }
  } else {
    choices.emplace_back(MsriSolution::kNoDetail, &params.driver);
  }
  return choices;
}

/// Fig. 6: one solution per driver option of the terminal at leaf `v`.
SolutionSet LeafSolutions(Context& ctx, NodeId v) {
  const auto phase = ctx.Phase(&obs::StatsSink::msri_leaf, "msri.leaf");
  const TerminalParams& params =
      ctx.tree.Terminal(ctx.tree.Node(v).terminal_index);
  SolutionSet set;
  for (const auto& [detail, opt] : DriverChoices(ctx.options, params)) {
    const EffectiveTerminal eff = ResolveTerminal(params, *opt);
    auto s = std::make_shared<MsriSolution>();
    s->cost = opt->cost;
    s->cap = eff.pin_cap;
    s->sink_delay = eff.is_sink ? eff.downstream_ps : -kInf;
    if (eff.is_source) {
      // The driver's resistance sees its own pin capacitance plus all of
      // c_E (DESIGN.md §4 load convention).
      s->arr = Pwl::Line(eff.arrival_ps + eff.driver_intrinsic_ps +
                             eff.driver_res * eff.pin_cap,
                         eff.driver_res);
    }
    s->valid = IntervalSet(0.0, ctx.x_max);
    s->kind = MsriSolution::Kind::kLeaf;
    s->node = v;
    s->detail = detail;
    set.push_back(std::move(s));
    ++ctx.stats->solutions_generated;
  }
  return set;
}

/// Fig. 10: extend every solution by the wire (Parent(v), v).  With wire
/// sizing, every width choice of the segment is a separate solution
/// (resistance /w, capacitance ·w, extra area cost — the paper's
/// conclusions' extension after [15],[20]).
SolutionSet Augment(Context& ctx, NodeId v, const SolutionSet& below) {
  const auto phase = ctx.Phase(&obs::StatsSink::msri_augment, "msri.augment");
  const double base_re = ctx.rooted.ParentRes(v);
  const double base_ce = ctx.rooted.ParentCap(v);
  const double len = ctx.rooted.ParentLengthUm(v);

  std::vector<std::pair<std::size_t, double>> widths;
  if (ctx.options.size_wires) {
    for (std::size_t i = 0; i < ctx.options.wire_width_choices.size(); ++i) {
      widths.emplace_back(i, ctx.options.wire_width_choices[i]);
    }
  } else {
    widths.emplace_back(MsriSolution::kNoDetail, 1.0);
  }

  SolutionSet out;
  out.reserve(below.size() * widths.size());
  for (const SolutionPtr& s : below) {
    ctx.options.cancel.Check();
    for (const auto& [detail, w] : widths) {
      const double re = base_re / w;
      const double ce = base_ce * w;
      auto a = std::make_shared<MsriSolution>();
      a->cost = s->cost + WireAreaCost(ctx.options.wire_area_cost_per_um,
                                       len, w, ctx.options.wire_cost_quantum);
      a->cap = s->cap + ce;
      a->sink_delay = re * (ce / 2.0 + s->cap) + s->sink_delay;
      a->arr = s->arr.Shifted(ce);
      a->arr.AddScalar(re * ce / 2.0);
      a->arr.AddSlope(re);
      a->diam = s->diam.Shifted(ce);
      a->valid = s->valid.Shift(-ce);
      // Slew bookkeeping only when the constraint is live: the extra
      // dominance dimensions would otherwise weaken pruning for nothing.
      if (ctx.options.max_stage_length_um > 0.0) {
        a->stage_span_um = s->stage_span_um + len;
        a->stage_diam_um = s->stage_diam_um;
        // Even a repeater directly above cannot close this region within
        // the bound anymore: discard.
        if (std::max(a->stage_span_um, a->stage_diam_um) >
            ctx.options.max_stage_length_um) {
          ++ctx.stats->solutions_generated;
          continue;
        }
      }
      a->parity = s->parity;
      a->kind = MsriSolution::Kind::kAugment;
      a->node = v;
      a->detail = detail;
      a->pred1 = s;
      if (!a->valid.Empty()) out.push_back(std::move(a));
      ++ctx.stats->solutions_generated;
    }
  }
  return out;
}

/// Fig. 7: merge the solution sets of two sibling subtrees at a branch,
/// and prune the result.  The raw product can dwarf its own Pareto
/// frontier (wire sizing especially), so the product is pruned in bounded
/// chunks instead of being materialized whole — early pruning is sound
/// (dominance is monotone) and keeps peak memory proportional to the
/// survivors.  Each prune passes the previous one's survivors on as an
/// already-minimal prefix, so no pair of them is tested twice.
SolutionSet JoinSets(Context& ctx, NodeId v, const SolutionSet& s1set,
                     const SolutionSet& s2set) {
  const auto phase = ctx.Phase(&obs::StatsSink::msri_join, "msri.join");
  std::size_t prune_at =
      std::max<std::size_t>(4096, 4 * (s1set.size() + s2set.size()));
  SolutionSet out;
  std::size_t minimal = 0;  // out[0, minimal) is the last prune's output
  for (const SolutionPtr& s1 : s1set) {
    // The merge is the DP's quadratic kernel, so this is the check that
    // bounds cancellation latency on big nets (one s2 sweep at most).
    ctx.options.cancel.Check();
    for (const SolutionPtr& s2 : s2set) {
      ++ctx.stats->join_candidates;
      // Terminals across the two subtrees would pair with odd polarity;
      // no repeater above the join can fix that, so drop immediately.
      if (s1->parity != s2->parity) {
        ++ctx.stats->join_pruned_early;
        continue;
      }
      // Bounding-range reject: both shifted validity sets live inside
      // [max(0, lo - cap), hi - cap).  If those ranges miss each other (or
      // clip away entirely), the full Shift/Intersect below — two interval
      // vectors plus a merge — is guaranteed to come back empty, so skip
      // it.  Same pair outcome and the same solutions_generated bump the
      // materialized empty intersection would have produced.
      const double a_hi = s1->valid.Intervals().back().hi - s2->cap;
      const double b_hi = s2->valid.Intervals().back().hi - s1->cap;
      const double a_lo =
          std::max(0.0, s1->valid.Intervals().front().lo - s2->cap);
      const double b_lo =
          std::max(0.0, s2->valid.Intervals().front().lo - s1->cap);
      if (a_hi <= a_lo || b_hi <= b_lo || a_hi <= b_lo || b_hi <= a_lo) {
        ++ctx.stats->solutions_generated;
        ++ctx.stats->join_pruned_early;
        continue;
      }
      IntervalSet valid =
          s1->valid.Shift(-s2->cap).Intersect(s2->valid.Shift(-s1->cap));
      ++ctx.stats->solutions_generated;
      if (valid.Empty()) {
        ++ctx.stats->join_pruned_early;
        continue;
      }
      // Stage-length feasibility needs only the predecessors' scalars, so
      // test it before the expensive PWL max/cross-term construction.
      double stage_span = 0.0;
      double stage_diam = 0.0;
      if (ctx.options.max_stage_length_um > 0.0) {
        stage_span = std::max(s1->stage_span_um, s2->stage_span_um);
        stage_diam = std::max({s1->stage_diam_um, s2->stage_diam_um,
                               s1->stage_span_um + s2->stage_span_um});
        if (std::max(stage_span, stage_diam) >
            ctx.options.max_stage_length_um) {
          ++ctx.stats->join_pruned_early;
          continue;
        }
      }

      auto j = std::make_shared<MsriSolution>();
      j->cost = s1->cost + s2->cost;
      j->cap = s1->cap + s2->cap;
      j->sink_delay = std::max(s1->sink_delay, s2->sink_delay);
      // Sources in T1 see the sibling's capacitance as part of their
      // external world, and vice versa.
      const Pwl arr1 = s1->arr.Shifted(s2->cap);
      const Pwl arr2 = s2->arr.Shifted(s1->cap);
      j->arr = Pwl::Max(arr1, arr2);
      // Internal diameter: each side's internal pairs, plus the new cross
      // pairs source-in-T1 -> sink-in-T2 and symmetrically.
      Pwl diam = Pwl::Max(s1->diam.Shifted(s2->cap),
                          s2->diam.Shifted(s1->cap));
      if (!arr1.IsNegInf() && s2->sink_delay != -kInf) {
        Pwl cross = arr1;
        cross.AddScalar(s2->sink_delay);
        diam = Pwl::Max(diam, cross);
      }
      if (!arr2.IsNegInf() && s1->sink_delay != -kInf) {
        Pwl cross = arr2;
        cross.AddScalar(s1->sink_delay);
        diam = Pwl::Max(diam, cross);
      }
      j->diam = std::move(diam);
      j->valid = std::move(valid);
      j->stage_span_um = stage_span;
      j->stage_diam_um = stage_diam;
      j->parity = s1->parity;
      j->kind = MsriSolution::Kind::kJoin;
      j->node = v;
      j->pred1 = s1;
      j->pred2 = s2;
      out.push_back(std::move(j));
      if (out.size() >= prune_at) {
        out = ctx.Mfs(std::move(out), minimal);
        minimal = out.size();
        // Double the threshold relative to the survivors so a poorly
        // pruning set cannot trigger quadratic re-pruning.
        prune_at = std::max(prune_at, 2 * out.size());
      }
    }
  }
  return ctx.Mfs(std::move(out), minimal);
}

/// Fig. 8: at insertion point `v`, optionally cap each unbuffered solution
/// with every library repeater in both orientations.  The unbuffered
/// solutions remain candidates (insertion is optional).
SolutionSet RepeaterSolutions(Context& ctx, NodeId v, SolutionSet set) {
  if (!ctx.options.insert_repeaters) return set;
  const auto phase = ctx.Phase(&obs::StatsSink::msri_repeater, "msri.repeater");
  SolutionSet buffered;
  for (const SolutionPtr& s : set) {
    ctx.options.cancel.Check();
    for (std::size_t ri = 0; ri < ctx.tech.repeaters.size(); ++ri) {
      const Repeater& r = ctx.tech.repeaters[ri];
      for (const RepeaterOrientation o :
           {RepeaterOrientation::kASideUp, RepeaterOrientation::kBSideUp}) {
        if (o == RepeaterOrientation::kBSideUp && r.Symmetric()) break;
        ++ctx.stats->solutions_generated;
        const double c_down = r.CapDown(o);
        // The subtree below now sees exactly the repeater's down-side
        // input capacitance as its whole external world.
        if (!s->valid.Contains(c_down)) continue;

        auto b = std::make_shared<MsriSolution>();
        b->cost = s->cost + r.cost;
        b->cap = r.CapUp(o);
        b->sink_delay =
            r.IntrinsicDown(o) + r.ResDown(o) * s->cap + s->sink_delay;
        const double arr_in = s->arr.Eval(c_down);
        if (arr_in != -kInf) {
          b->arr = Pwl::Line(arr_in + r.IntrinsicUp(o), r.ResUp(o));
        }
        const double diam_in = s->diam.Eval(c_down);
        if (diam_in != -kInf) b->diam = Pwl::Constant(diam_in);
        b->valid = IntervalSet(0.0, ctx.x_max);
        b->stage_span_um = 0.0;
        b->stage_diam_um = 0.0;
        b->parity = r.inverting ? 1 - s->parity : s->parity;
        b->kind = MsriSolution::Kind::kRepeater;
        b->node = v;
        b->detail = ri;
        b->orientation = o;
        b->pred1 = s;
        buffered.push_back(std::move(b));
      }
    }
  }
  set.insert(set.end(), buffered.begin(), buffered.end());
  return set;
}

/// The pruned solution set of the subtree rooted at `v`: the recursive
/// driver of the bottom-up pass.
SolutionSet Solve(Context& ctx, NodeId v);

/// Solve each child subtree, augment it through its parent edge, prune,
/// and fold the children's sets with JoinSets (Fig. 7).  Pruning the
/// augmented set before the join keeps the pairwise product small —
/// essential once wire sizing multiplies each set by the number of width
/// choices.
SolutionSet CombineChildren(Context& ctx, NodeId v) {
  SolutionSet acc;
  bool first = true;
  for (const NodeId c : ctx.rooted.Children(v)) {
    SolutionSet augmented = ctx.Mfs(Augment(ctx, c, Solve(ctx, c)));
    if (first) {
      acc = std::move(augmented);
      first = false;
    } else {
      acc = JoinSets(ctx, v, acc, augmented);
    }
  }
  return acc;
}

SolutionSet Solve(Context& ctx, NodeId v) {
  ctx.options.cancel.Check();
  const RcNode& node = ctx.tree.Node(v);
  SolutionSet set;
  // CombineChildren's output is already pruned and RepeaterSolutions only
  // appends, so this prune tests just the pairs with a buffered solution
  // in them (none at a Steiner node or without repeater insertion, where
  // it only re-sorts).
  std::size_t minimal = 0;
  if (ctx.rooted.IsLeaf(v)) {
    MSN_CHECK_MSG(node.kind == NodeKind::kTerminal,
                  "non-terminal leaf node " << v << " in MSRI traversal");
    set = LeafSolutions(ctx, v);
  } else {
    set = CombineChildren(ctx, v);
    minimal = set.size();
    if (node.kind == NodeKind::kInsertion) {
      set = RepeaterSolutions(ctx, v, std::move(set));
    }
  }
  set = ctx.Mfs(std::move(set), minimal);
  ctx.Record(set);
  if (ctx.options.set_observer) ctx.options.set_observer(v, set);
  return set;
}

/// A closed solution at the root, pre-materialization.
struct RootCandidate {
  double cost = 0.0;
  double ard = 0.0;
  SolutionPtr below;
  std::size_t root_detail = MsriSolution::kNoDetail;
};

/// Fig. 9: close the recursion at the root terminal.
std::vector<RootCandidate> RootSolutions(Context& ctx, NodeId root,
                                         const SolutionSet& below) {
  const auto phase = ctx.Phase(&obs::StatsSink::msri_root, "msri.root");
  const RcNode& node = ctx.tree.Node(root);
  MSN_CHECK_MSG(node.kind == NodeKind::kTerminal,
                "MSRI must be rooted at a terminal (paper Section IV)");
  const TerminalParams& params = ctx.tree.Terminal(node.terminal_index);

  std::vector<RootCandidate> out;
  for (const auto& [detail, opt] : DriverChoices(ctx.options, params)) {
    const EffectiveTerminal eff = ResolveTerminal(params, *opt);
    for (const SolutionPtr& s : below) {
      // Terminals below must deliver/receive true polarity at the root.
      if (s->parity != 0) continue;
      // The root closes the top unbuffered region.
      if (ctx.options.max_stage_length_um > 0.0 &&
          std::max(s->stage_span_um, s->stage_diam_um) >
              ctx.options.max_stage_length_um) {
        continue;
      }
      // The subtree's whole external world is the root's pin.
      if (!s->valid.Contains(eff.pin_cap)) continue;
      double ard = s->diam.Eval(eff.pin_cap);
      if (eff.is_sink) {
        const double via_root_sink = s->arr.Eval(eff.pin_cap) +
                                     eff.downstream_ps;
        ard = std::max(ard, via_root_sink);
      }
      if (eff.is_source && s->sink_delay != -kInf) {
        const double via_root_source =
            eff.arrival_ps + eff.driver_intrinsic_ps +
            eff.driver_res * (eff.pin_cap + s->cap) + s->sink_delay;
        ard = std::max(ard, via_root_source);
      }
      out.push_back(RootCandidate{s->cost + opt->cost, ard, s, detail});
    }
  }
  return out;
}

/// Walks provenance links and materializes the assignment.
TradeoffPoint Materialize(Context& ctx, const RootCandidate& cand) {
  TradeoffPoint p{cand.cost,
                  cand.ard,
                  RepeaterAssignment(ctx.tree.NumNodes()),
                  DriverAssignment(ctx.tree.NumTerminals()),
                  0,
                  {}};
  if (ctx.options.size_wires) {
    p.wire_widths.assign(ctx.tree.NumEdges(), 1.0);
  }
  const NodeId root = ctx.rooted.Root();
  if (cand.root_detail != MsriSolution::kNoDetail) {
    p.drivers.Choose(ctx.tree.Node(root).terminal_index,
                     ctx.options.sizing_library[cand.root_detail]);
  }
  std::vector<const MsriSolution*> stack{cand.below.get()};
  while (!stack.empty()) {
    const MsriSolution* s = stack.back();
    stack.pop_back();
    switch (s->kind) {
      case MsriSolution::Kind::kLeaf:
        if (s->detail != MsriSolution::kNoDetail) {
          p.drivers.Choose(ctx.tree.Node(s->node).terminal_index,
                           ctx.options.sizing_library[s->detail]);
        }
        break;
      case MsriSolution::Kind::kRepeater: {
        const NodeId a_side =
            s->orientation == RepeaterOrientation::kASideUp
                ? ctx.rooted.Parent(s->node)
                : ctx.rooted.Children(s->node)[0];
        p.repeaters.Place(s->node, PlacedRepeater{s->detail, a_side});
        ++p.num_repeaters;
        break;
      }
      case MsriSolution::Kind::kAugment:
        if (s->detail != MsriSolution::kNoDetail) {
          p.wire_widths[ctx.rooted.ParentEdgeIndex(s->node)] =
              ctx.options.wire_width_choices[s->detail];
        }
        break;
      case MsriSolution::Kind::kJoin:
        break;
    }
    if (s->pred1) stack.push_back(s->pred1.get());
    if (s->pred2) stack.push_back(s->pred2.get());
  }
  return p;
}

/// The only way the DP's counters (all in MsriStats) reach a registry,
/// under their published names (docs/OBSERVABILITY.md).
void AddCounters(const MsriStats& stats, obs::RunStats& reg) {
  reg.GetCounter("msri.solutions_generated").Add(stats.solutions_generated);
  reg.GetCounter("msri.join_candidates").Add(stats.join_candidates);
  reg.GetCounter("msri.join_pruned_early").Add(stats.join_pruned_early);
  const MfsStats& mfs = stats.mfs;
  reg.GetCounter("mfs.calls").Add(mfs.calls);
  reg.GetCounter("mfs.candidates_in").Add(mfs.candidates_in);
  reg.GetCounter("mfs.candidates_out").Add(mfs.candidates_out);
  reg.GetCounter("mfs.comparisons").Add(mfs.comparisons);
  reg.GetCounter("mfs.predictive_skipped").Add(mfs.predictive_skipped);
  reg.GetCounter("mfs.region_tests").Add(mfs.region_tests);
  reg.GetCounter("mfs.pruned_full").Add(mfs.pruned);
  reg.GetCounter("mfs.pruned_partial").Add(mfs.pruned_partial);
}

/// MinCostFeasible of MsriResult and MsriSummary alike, so a cached
/// summary answers spec queries exactly like the result it condensed.
template <typename Point>
const Point* FirstFeasible(const std::vector<Point>& pareto,
                           double spec_ps) {
  // A NaN spec is "no spec" — reject it explicitly instead of relying on
  // NaN comparisons all being false (which happens to give the same
  // answer today but is fragile under refactoring; the batch report
  // paths depend on this being deterministic).  -inf must also be
  // explicit: ApproxEq's relative tolerance is eps*max(|a|,|b|), which is
  // infinite at an infinite spec, so LessOrApprox(ard, -inf) would
  // spuriously hold.  Negative finite specs fall out naturally: ARD is
  // non-negative, so no point is feasible.
  if (std::isnan(spec_ps) || spec_ps == -kInf) return nullptr;
  for (const Point& p : pareto) {
    if (LessOrApprox(p.ard_ps, spec_ps)) return &p;
  }
  return nullptr;
}

}  // namespace

const TradeoffPoint* MsriResult::MinCostFeasible(double spec_ps) const {
  return FirstFeasible(pareto_, spec_ps);
}

const TradeoffPoint* MsriResult::MinArd() const {
  return pareto_.empty() ? nullptr : &pareto_.back();
}

const TradeoffPoint* MsriResult::MinCost() const {
  return pareto_.empty() ? nullptr : &pareto_.front();
}

const TradeoffSummary* MsriSummary::MinCostFeasible(double spec_ps) const {
  return FirstFeasible(pareto, spec_ps);
}

const TradeoffSummary* MsriSummary::MinArd() const {
  return pareto.empty() ? nullptr : &pareto.back();
}

const TradeoffSummary* MsriSummary::MinCost() const {
  return pareto.empty() ? nullptr : &pareto.front();
}

std::size_t MsriSummary::ApproxBytes() const {
  return sizeof(MsriSummary) + pareto.capacity() * sizeof(TradeoffSummary);
}

MsriSummary Summarize(const MsriResult& result) {
  MsriSummary summary;
  summary.pareto.reserve(result.Pareto().size());
  for (const TradeoffPoint& p : result.Pareto()) {
    summary.pareto.push_back({p.cost, p.ard_ps, p.num_repeaters});
  }
  summary.solutions_generated = result.Stats().solutions_generated;
  summary.max_set_size = result.Stats().max_set_size;
  return summary;
}

MsriResult RunMsri(const RcTree& tree, const Technology& tech,
                   const MsriOptions& options) {
  tree.Validate();
  tech.Validate();
  MSN_CHECK_MSG(tree.NumTerminals() >= 2,
                "repeater insertion needs at least two terminals");
  MSN_CHECK_MSG(!options.size_drivers || !options.sizing_library.empty(),
                "size_drivers set but sizing_library is empty");
  MSN_CHECK_MSG(!options.insert_repeaters || !tech.repeaters.empty(),
                "insert_repeaters set but the repeater library is empty");
  if (options.size_wires) {
    MSN_CHECK_MSG(!options.wire_width_choices.empty(),
                  "size_wires set but wire_width_choices is empty");
    bool has_min = false;
    for (const double w : options.wire_width_choices) {
      MSN_CHECK_MSG(w >= 1.0, "wire width factor " << w
                                  << " is below minimum width");
      if (w == 1.0) has_min = true;
    }
    MSN_CHECK_MSG(has_min,
                  "wire_width_choices must include the minimum width 1.0");
    MSN_CHECK_MSG(options.wire_area_cost_per_um >= 0.0,
                  "negative wire area cost");
  }

  const NodeId root =
      options.root == kNoNode ? tree.TerminalNode(0) : options.root;
  const RootedTree rooted(tree, root);

  // Conservative bound on any external capacitance a subsolution can see.
  double max_width = 1.0;
  if (options.size_wires) {
    for (const double w : options.wire_width_choices) {
      max_width = std::max(max_width, w);
    }
  }
  double x_max = 0.0;
  for (const RcEdge& e : tree.Edges()) x_max += e.cap * max_width;
  for (std::size_t t = 0; t < tree.NumTerminals(); ++t) {
    double pin = tree.Terminal(t).driver.pin_cap;
    if (options.size_drivers) {
      for (const TerminalOption& opt : options.sizing_library) {
        pin = std::max(pin, opt.pin_cap);
      }
    }
    x_max += pin;
  }
  if (options.insert_repeaters) {
    double max_side = 0.0;
    for (const Repeater& r : tech.repeaters) {
      max_side = std::max({max_side, r.cap_a, r.cap_b});
    }
    x_max += max_side * static_cast<double>(tree.InsertionPoints().size());
  }
  x_max *= 1.0 + 1e-9;  // Guard the boundary against rounding.

  MsriResult result;
  Context ctx{tree,          rooted,         tech,
              options,       &result.stats_, options.stats,
              options.trace, x_max};

  try {
    // While the DP runs, the PWL primitives report breakpoint counts to
    // this run's sink (no-op scope when instrumentation is off).
    const obs::PwlStatsScope pwl_scope(ctx.sink);
    const auto total = ctx.Phase(&obs::StatsSink::msri_total, "msri.total");
    const SolutionSet below = CombineChildren(ctx, root);
    const std::vector<RootCandidate> pareto = ParetoByCostDelay(
        RootSolutions(ctx, root, below),
        [](const RootCandidate& c) { return c.cost; },
        [](const RootCandidate& c) { return c.ard; });
    result.pareto_.reserve(pareto.size());
    for (const RootCandidate& c : pareto) {
      result.pareto_.push_back(Materialize(ctx, c));
    }
  } catch (...) {
    // A cancelled run's counters count work done, like the phase timers
    // recorded on unwind; the values below are results, so they are not.
    if (ctx.sink != nullptr) AddCounters(result.stats_, ctx.sink->Registry());
    throw;
  }
  if (ctx.sink != nullptr) {
    obs::RunStats& reg = ctx.sink->Registry();
    AddCounters(result.stats_, reg);
    reg.SetValue("msri.pareto_points",
                 static_cast<double>(result.pareto_.size()));
    reg.SetValue("msri.max_set_size",
                 static_cast<double>(result.stats_.max_set_size));
    reg.SetValue("msri.max_pwl_segments",
                 static_cast<double>(result.stats_.max_pwl_segments));
    const MfsStats& mfs = result.stats_.mfs;
    reg.SetValue("mfs.prune_rate",
                 mfs.candidates_in == 0
                     ? 0.0
                     : 1.0 - static_cast<double>(mfs.candidates_out) /
                                 static_cast<double>(mfs.candidates_in));
  }
  return result;
}

}  // namespace msn
