// Minimal functional subset (MFS) pruning — paper Definition 4.3, Fig. 4.
//
// A solution s2 is dominated at external capacitance x by s1 when s1 is no
// worse in all five dimensions: cost, cap, sink_delay (scalars) and
// arr(x), diam(x) (functions).  Because every upward DP combination is
// monotone non-decreasing in all five coordinates, s2 can be discarded on
// exactly the x-region where some valid s1 dominates it; `valid` interval
// sets record the surviving region per solution.
//
// ComputeMfs supports three modes for the ablation study
// (bench_mfs_ablation):
//   kOff           — no pruning (exponential growth; small nets only);
//   kQuadratic     — all-pairs pruning;
//   kDivideConquer — Fig. 4: split, recurse, cross-prune the survivors,
//                    targeting fewer pairwise comparisons in practice with
//                    the same O(n²) worst case.
#ifndef MSN_CORE_MFS_H
#define MSN_CORE_MFS_H

#include <cstddef>

#include "core/solution.h"

namespace msn {

struct MfsOptions {
  enum class Mode { kOff, kQuadratic, kDivideConquer };
  Mode mode = Mode::kDivideConquer;
  /// Dominance slack: s1 may be up to eps worse per dimension and still
  /// prune (bounds the suboptimality of the surviving set by O(eps)).
  /// The default keeps the DP exact to numerical noise.
  double eps = 1e-9;
  /// Per-dimension slacks for *approximate* pruning.  Raising these above
  /// `eps` trades bounded suboptimality (roughly the slack times the tree
  /// depth) for much smaller solution sets — the practical escape from
  /// the pseudopolynomial blowup the paper's Section V notes, needed when
  /// wire sizing multiplies the per-node state space.  Values <= 0 fall
  /// back to `eps`.
  double cost_eps = 0.0;
  double cap_eps = 0.0;    ///< pF.
  double delay_eps = 0.0;  ///< ps; applies to sink_delay, arr and diam.
  /// Divide-and-conquer recursion switches to all-pairs below this size.
  /// Values below 1 act as 1.
  std::size_t base_case = 8;

  double CostEps() const { return cost_eps > 0.0 ? cost_eps : eps; }
  double CapEps() const { return cap_eps > 0.0 ? cap_eps : eps; }
  double DelayEps() const { return delay_eps > 0.0 ? delay_eps : eps; }

  /// A preset that keeps wire-sizing runs tractable on paper-scale nets
  /// (10 fF / 2 ps / 0.1-cost granularity; the accumulated slack is a few
  /// percent of the total delay at the paper's tree depths).
  static MfsOptions Approximate() {
    MfsOptions o;
    o.cost_eps = 0.1;
    o.cap_eps = 0.01;
    o.delay_eps = 2.0;
    return o;
  }
};

/// Statistics of one ComputeMfs call (accumulated across a DP run).
struct MfsStats {
  std::size_t calls = 0;           ///< ComputeMfs invocations.
  std::size_t candidates_in = 0;   ///< Solutions entering the pruner.
  std::size_t candidates_out = 0;  ///< Survivors after pruning.
  /// Pairwise dominance tests of the index-order Fig. 4 schedule, over
  /// the pairs not exempt by the already-minimal prefix (a pair of two
  /// prefix entries is neither tested nor counted).  The
  /// divide-and-conquer cross step does not enumerate the tests its
  /// (parity, cap) order proves fail without side effects; it counts them
  /// in bulk, so this equals the count of enumerating every such pair.
  std::size_t comparisons = 0;
  /// Dominance tests decided by the (cost, cap) sort invariant alone —
  /// the would-be dominator out-costs the victim beyond eps — and
  /// therefore skipped without running.  Always <= comparisons: each
  /// skipped (i, j) has its mirror test (j, i) performed while both
  /// entries were still alive, and at most one orientation of a pair can
  /// ever be skipped.
  std::size_t predictive_skipped = 0;
  /// Dominance tests that passed the scalar prefilter and reached the
  /// region computation.  It intersects the two valid sets first and
  /// stops at the first empty factor, so some region tests end before any
  /// PWL sweep and others after the arr sweep alone.  pruned +
  /// pruned_partial <= region_tests <= comparisons: every prune needs a
  /// non-empty region, and every region test is one of the counted
  /// comparisons.
  std::size_t region_tests = 0;
  std::size_t pruned = 0;       ///< Solutions fully invalidated.
  /// Tests that shrank the victim's valid region without emptying it (a
  /// dominance region that misses the victim's valid region counts
  /// nowhere).
  std::size_t pruned_partial = 0;

  /// Field-wise sum; every field is a count, so accumulation is
  /// order-insensitive.
  MfsStats& operator+=(const MfsStats& other);
};

/// Prunes `set` to (a superset of) its minimal functional subset.
/// Solutions whose valid region empties are removed; others may come back
/// with a reduced `valid`.  Order of survivors: sorted by (cost, cap).
/// The call's counts are added into `stats` when given.
///
/// The first `minimal_prefix` entries must be the unchanged output of an
/// earlier ComputeMfs call with the same options (in any order).  No two
/// of them can prune each other again, so their pairs are never tested:
/// the result is identical to that of `minimal_prefix = 0`, survivors,
/// order and valid regions alike, at a fraction of the tests.
SolutionSet ComputeMfs(SolutionSet set, const MfsOptions& options,
                       MfsStats* stats = nullptr,
                       std::size_t minimal_prefix = 0);

/// The scalar coordinates of a solution that the dominance test compares
/// before it touches any PWL: parity, cost, cap, the two stage lengths and
/// sink_delay.  ComputeMfs keeps one row per candidate in a flat array so
/// that most dominance tests are decided without dereferencing a solution.
struct MfsRow {
  double cost = 0.0;
  double cap = 0.0;
  double stage_span_um = 0.0;
  double stage_diam_um = 0.0;
  double sink_delay = 0.0;
  int parity = 0;

  static MfsRow Of(const MsriSolution& s) {
    return {s.cost, s.cap, s.stage_span_um, s.stage_diam_um, s.sink_delay,
            s.parity};
  }
};

/// The scalar half of PruneByDominance: false exactly when the scalars
/// alone rule out `dominator` pruning any part of `victim` (different
/// parity, or `dominator` worse beyond the slack in some scalar).  When
/// this returns false, PruneByDominance returns false and leaves the
/// victim untouched (given a non-empty victim valid region).
bool RowMayDominate(const MfsRow& dominator, const MfsRow& victim,
                    const MfsOptions& options);

/// Single dominance test: shrinks victim->valid by the region where
/// `dominator` (on its own valid region) is no worse in all five
/// dimensions (up to the per-dimension slacks).  Returns true if the
/// victim became fully invalid; partial-domain prunes are counted into
/// `stats` when given.
bool PruneByDominance(const MsriSolution& dominator, MsriSolution& victim,
                      const MfsOptions& options, MfsStats* stats = nullptr);

}  // namespace msn

#endif  // MSN_CORE_MFS_H
