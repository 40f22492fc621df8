// Optimal repeater insertion for multisource nets — the paper's primary
// contribution (Problem 2.1, Section IV, Figs. 5–10).
//
// Given a routing topology with degree-2 insertion points, a repeater
// library, and terminal parameters, RunMsri performs bottom-up dynamic
// programming over the tree re-oriented at a root terminal.  Each subtree
// maintains a minimal functional subset of solutions characterized by
// (cost, cap, sink_delay, arr(c_E), diam(c_E)) — see src/core/solution.h.
// The subroutines map one-to-one to the paper's figures:
//
//   LeafSolutions     (Fig. 6)  — one solution per terminal driver option;
//   Augment           (Fig. 10) — extend a subtree by the wire to its
//                                 parent (shift + add-slope + add-scalar);
//   JoinSets          (Fig. 7)  — merge sibling subtrees at a branch;
//   RepeaterSolutions (Fig. 8)  — optionally place each library repeater,
//                                 in both orientations, at an insertion
//                                 point (decouples: arr becomes a fresh
//                                 line, diam becomes a constant);
//   RootSolutions     (Fig. 9)  — close the recursion at the root terminal
//                                 and emit (cost, ARD) tradeoff points.
//
// The result is the full cost-versus-ARD Pareto frontier with materialized
// assignments; MinCostFeasible answers the paper's "min cost subject to
// ARD <= spec" formulation, and setting spec = MinArd() recovers the
// cost-oblivious minimum-diameter solution.
//
// Theorem 4.1 (optimality) is exercised against an exhaustive enumerator
// in tests/msri_optimality_test.cc.
#ifndef MSN_CORE_MSRI_H
#define MSN_CORE_MSRI_H

#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

#include "common/cancel.h"
#include "core/mfs.h"
#include "core/solution.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "rctree/assignment.h"
#include "rctree/rctree.h"
#include "tech/tech.h"

namespace msn {

struct MsriOptions {
  /// Consider placing library repeaters at insertion points.
  bool insert_repeaters = true;
  /// Consider re-sizing terminal drivers from `sizing_library`.
  bool size_drivers = false;
  /// Driver/receiver realizations offered to every terminal when
  /// size_drivers is set (see DriverSizingLibrary()).
  std::vector<TerminalOption> sizing_library;
  /// Simultaneous discrete wire sizing (paper conclusions, after
  /// [15],[20]): every wire segment independently picks a width factor
  /// from `wire_width_choices` (resistance divides by the factor,
  /// capacitance multiplies), paying `wire_area_cost_per_um` × length ×
  /// (factor - 1) of extra cost.  Factors must be >= 1 and include the
  /// minimum width 1.0 (checked).
  bool size_wires = false;
  std::vector<double> wire_width_choices = {1.0, 2.0};
  double wire_area_cost_per_um = 0.0005;
  /// Slew control: when positive, every unbuffered stage (a maximal
  /// region not cut by repeaters) must have wire diameter at most this
  /// many µm — the standard practical proxy for bounding transition
  /// times ([15]'s slew-aware models motivate it; see
  /// elmore/moments.h::SlewEstimate for the physical link).  Solutions
  /// that can no longer be closed within the bound are discarded.
  double max_stage_length_um = 0.0;
  /// Wire-area cost increments are rounded to multiples of this quantum.
  /// Without it nearly every width combination has a distinct cost and
  /// dominance pruning collapses (the classic wire-sizing blowup the
  /// paper's pseudopolynomial remark alludes to); with it the DP is exact
  /// for the quantized objective.  0 disables rounding.
  double wire_cost_quantum = 0.05;
  /// Root node; kNoNode roots at terminal 0's node.  Rooting at a terminal
  /// is required (paper Section IV).
  NodeId root = kNoNode;
  MfsOptions mfs;
  /// Observability sink (see src/obs/stats.h and docs/OBSERVABILITY.md):
  /// when non-null, the DP records per-phase wall time and invocation
  /// counts (Figs. 6-10, MFS), per-node set sizes and PWL breakpoint
  /// growth into the sink's registry, plus the MsriStats counters once
  /// when RunMsri returns or unwinds.  Null disables it at zero cost.
  obs::StatsSink* stats = nullptr;
  /// Request-scoped tracing (src/obs/trace.h): when non-null, the DP
  /// opens one span per phase invocation with the phase timer, so a
  /// per-request trace attributes DP time to LeafSolutions / Augment /
  /// JoinSets / RepeaterSolutions / RootSolutions / MFS.  Confined to the
  /// calling thread, like the DP itself.  Null (the default) costs one
  /// pointer compare per phase.  Non-semantic: excluded from
  /// service::Canonicalize like `cancel`.
  obs::Trace* trace = nullptr;
  /// Debug/teaching hook: invoked with every node's finalized solution
  /// set as the bottom-up pass completes it (after MFS pruning).
  std::function<void(NodeId, const SolutionSet&)> set_observer;
  /// Cooperative cancellation (src/common/cancel.h): the DP polls this
  /// token at node granularity and inside the expensive per-solution
  /// loops (JoinSets' merge above all), so an expired deadline or a
  /// disconnected client abandons the run in bounded time.  On firing,
  /// RunMsri throws CancelledError; any partial work is discarded but
  /// stats recorded so far remain valid (monotonic counters, no
  /// double counting).  The default token never fires.  Non-semantic:
  /// excluded from service::Canonicalize, so cancellable and
  /// non-cancellable runs share a cache fingerprint.
  CancellationToken cancel;
};

/// One point of the cost-vs-ARD tradeoff suite, with its realization.
struct TradeoffPoint {
  double cost = 0.0;
  double ard_ps = 0.0;
  RepeaterAssignment repeaters;
  DriverAssignment drivers;
  std::size_t num_repeaters = 0;
  /// Width factor per edge (indexed like RcTree::Edges()); empty unless
  /// the run sized wires.  Verify with RcTree::WithWireWidths.
  std::vector<double> wire_widths;
};

struct MsriStats {
  std::size_t solutions_generated = 0;
  /// (s1, s2) pairs the JoinSets cross product visited.
  std::size_t join_candidates = 0;
  /// Pairs discarded before their PWL curves were materialized: parity
  /// mismatch, provably-empty validity overlap (bounding-range reject),
  /// empty validity intersection, or stage-length violation.  Always
  /// <= join_candidates.
  std::size_t join_pruned_early = 0;
  std::size_t max_set_size = 0;       ///< Largest per-node set after MFS.
  std::size_t max_pwl_segments = 0;   ///< Largest PWL encountered.
  MfsStats mfs;
};

/// One Pareto point condensed to its scalar coordinates — the part of a
/// TradeoffPoint that survives summarization (no materialized
/// assignments).
struct TradeoffSummary {
  double cost = 0.0;
  double ard_ps = 0.0;
  std::size_t num_repeaters = 0;

  bool operator==(const TradeoffSummary&) const = default;
};

/// Value-type condensation of a completed MsriResult: the cost-vs-ARD
/// frontier without the per-point repeater/driver/width assignments.
/// This is what the optimization service caches and serves — small,
/// copyable, and sufficient to answer every frontier query
/// (MinCostFeasible / MinArd / MinCost mirror MsriResult exactly, so a
/// cached answer is indistinguishable from a fresh one).
struct MsriSummary {
  /// Sorted by increasing cost (ARD strictly decreasing), like
  /// MsriResult::Pareto().
  std::vector<TradeoffSummary> pareto;
  std::size_t solutions_generated = 0;
  std::size_t max_set_size = 0;

  const TradeoffSummary* MinCostFeasible(double spec_ps) const;
  const TradeoffSummary* MinArd() const;
  const TradeoffSummary* MinCost() const;

  /// Rough heap footprint, used for cache byte budgeting.
  std::size_t ApproxBytes() const;

  bool operator==(const MsriSummary&) const = default;
};

class MsriResult {
 public:
  /// Pareto frontier, sorted by increasing cost (ARD strictly decreasing).
  const std::vector<TradeoffPoint>& Pareto() const { return pareto_; }

  /// Cheapest point with ARD <= spec_ps; nullptr if the spec is
  /// unachievable.  Degenerate specs are handled explicitly rather than
  /// through comparison fallthrough: a NaN spec is no spec at all and
  /// returns nullptr; -inf likewise; a negative finite spec is simply
  /// unachievable (ARD is non-negative) and returns nullptr; +inf is
  /// achievable by every point and returns MinCost().
  const TradeoffPoint* MinCostFeasible(double spec_ps) const;

  /// The minimum-ARD point (cost-oblivious optimum); nullptr if empty.
  const TradeoffPoint* MinArd() const;

  /// The cheapest point (typically the no-repeater solution).
  const TradeoffPoint* MinCost() const;

  const MsriStats& Stats() const { return stats_; }

 private:
  friend MsriResult RunMsri(const RcTree&, const Technology&,
                            const MsriOptions&);
  std::vector<TradeoffPoint> pareto_;
  MsriStats stats_;
};

/// Cost charged for driving a wire of `length_um` at width factor `w`
/// (extra metal over minimum width), rounded to `quantum` when positive.
/// Shared by the DP and the exhaustive baseline so both optimize the same
/// objective.
inline double WireAreaCost(double rate_per_um, double length_um, double w,
                           double quantum) {
  const double raw = rate_per_um * length_um * (w - 1.0);
  if (quantum <= 0.0) return raw;
  return std::round(raw / quantum) * quantum;
}

/// Runs the optimal repeater insertion / driver sizing DP.
MsriResult RunMsri(const RcTree& tree, const Technology& tech,
                   const MsriOptions& options = {});

/// Condenses a completed result into its cacheable summary.
MsriSummary Summarize(const MsriResult& result);

}  // namespace msn

#endif  // MSN_CORE_MSRI_H
