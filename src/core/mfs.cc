#include "core/mfs.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/numeric.h"

namespace msn {
namespace {

bool CostCapLess(const MsriSolution& a, const MsriSolution& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  return a.cap < b.cap;
}

void SortByCostCap(SolutionSet& set) {
  std::sort(set.begin(), set.end(),
            [](const SolutionPtr& a, const SolutionPtr& b) {
              return CostCapLess(*a, *b);
            });
}

/// Drops the candidates with no valid region and sorts the rest by
/// (cost, cap), returning each one's "already minimal" bit (its input
/// index was below `minimal_prefix`) in the sorted order.  The bit rides
/// through the filter and the sort in a {solution, bit} record: std::sort
/// decides its moves from the comparator alone, so the records land in
/// exactly the permutation SortByCostCap gives the bare pointers, and the
/// order of tied entries does not depend on the prefix.
std::vector<std::uint8_t> FilterAndSort(SolutionSet& set,
                                        std::size_t minimal_prefix) {
  struct Entry {
    SolutionPtr s;
    std::uint8_t minimal;
  };
  std::vector<Entry> entries;
  entries.reserve(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (set[i] && !set[i]->valid.Empty()) {
      entries.push_back({std::move(set[i]), i < minimal_prefix});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return CostCapLess(*a.s, *b.s);
            });
  set.clear();
  std::vector<std::uint8_t> minimal;
  minimal.reserve(entries.size());
  for (Entry& e : entries) {
    set.push_back(std::move(e.s));
    minimal.push_back(e.minimal);
  }
  return minimal;
}

/// The per-dimension slacks of one ComputeMfs call, read once.
struct Slack {
  explicit Slack(const MfsOptions& options)
      : cost(options.CostEps()),
        cap(options.CapEps()),
        delay(options.DelayEps()) {}
  double cost;
  double cap;
  double delay;
};

/// MayDominate's last three conjuncts: `d` is no worse, up to the slacks,
/// than a victim with these stage lengths and sink delay.  Each conjunct
/// compares d's value with fl(victim's + slack), and rounding is monotone,
/// so passing against a victim implies passing against any upper bound of
/// the victim's values: failing against block maxima fails the whole block.
bool StagesMayDominate(const MfsRow& d, double stage_span_um,
                       double stage_diam_um, double sink_delay,
                       const Slack& slack) {
  return d.stage_span_um <= stage_span_um + 1e-6 &&
         d.stage_diam_um <= stage_diam_um + 1e-6 &&
         d.sink_delay <= sink_delay + slack.delay;
}

/// RowMayDominate's test, with the slacks read once per call.  Parity
/// classes are incomparable: a later inverter turns one into the feasible
/// class and the other into the infeasible one.  The other scalars are
/// each monotone, so any one of them worse beyond its slack rules the
/// dominator out.
bool MayDominate(const MfsRow& d, const MfsRow& v, const Slack& slack) {
  return d.parity == v.parity && d.cost <= v.cost + slack.cost &&
         d.cap <= v.cap + slack.cap &&
         StagesMayDominate(d, v.stage_span_um, v.stage_diam_um,
                           v.sink_delay, slack);
}

/// The PWL half of PruneByDominance, for a pair whose scalars already
/// passed MayDominate.  The dominance region is the intersection of four
/// sets: both valid regions and the arr and diam regions.  Intersection
/// is exact and commutative (each piece is the max of the lower and the
/// min of the upper endpoints), so the order below builds the same
/// intervals as any other; it starts from the cheap valid window and
/// stops at the first empty factor, often before any PWL sweep.
bool PruneRegion(const MsriSolution& dominator, MsriSolution& victim,
                 double delay_eps, MfsStats* stats) {
  if (dominator.valid.Empty()) return false;
  if (stats) ++stats->region_tests;
  // Clipping the region to the victim's valid set leaves the difference
  // below unchanged and makes "non-empty" mean "valid shrinks".
  IntervalSet region = dominator.valid.Intersect(victim.valid);
  if (region.Empty()) return false;
  region = dominator.arr.RegionLessEqual(victim.arr, delay_eps)
               .Intersect(region);
  if (region.Empty()) return false;
  region = region.Intersect(
      dominator.diam.RegionLessEqual(victim.diam, delay_eps));
  if (region.Empty()) return false;
  victim.valid = victim.valid.Subtract(region);
  if (!victim.valid.Empty()) {
    if (stats) ++stats->pruned_partial;
    return false;
  }
  return true;
}

/// The pruning state of one ComputeMfs call over a (cost, cap)-sorted set:
/// a scalar row and an "already minimal" bit per entry, a live mask, and
/// the call's counters.  Pruning clears live bits only; Compact drops the
/// dead entries at the end, so the divide-and-conquer recursion works on
/// index ranges of one array.
///
/// Every live entry has a non-empty valid region (ComputeMfs drops empty
/// ones up front and an entry dies as soon as its region empties), so a
/// pair rejected by MayDominate is exactly a pair PruneByDominance would
/// reject without side effects; only the survivors dereference their
/// solutions.
///
/// A pair of two minimal entries is exempt (the others are fresh): it is
/// never tested nor counted.  Both came out of one earlier ComputeMfs call
/// with these options, which ran both of its tests, ruled them out on the
/// scalars or (by this same argument) exempted them.  Valid regions have
/// only shrunk since, so today's dominance region lies inside the one
/// already subtracted from the victim, and subtracting it again would
/// return the same intervals.
class Pruner {
 public:
  Pruner(SolutionSet& set, std::vector<std::uint8_t> minimal,
         const MfsOptions& options, MfsStats& stats)
      : set_(set),
        // A one-entry range cannot be split: its midpoint is its start.
        base_case_(std::max<std::size_t>(options.base_case, 1)),
        slack_(options),
        stats_(stats),
        minimal_(std::move(minimal)),
        live_(set.size(), 1) {
    rows_.reserve(set.size());
    fresh_before_.reserve(set.size() + 1);
    fresh_before_.push_back(0);
    for (std::size_t i = 0; i < set.size(); ++i) {
      rows_.push_back(MfsRow::Of(*set[i]));
      fresh_before_.push_back(fresh_before_.back() + (minimal_[i] ? 0 : 1));
    }
  }

  /// Fig. 4: split, recurse, cross-prune the survivors.  Every entry of
  /// [begin, end) is still live on entry, so the split sizes match a
  /// recursion over compacted copies.
  void Recurse(std::size_t begin, std::size_t end) {
    if (AllMinimal(begin, end)) return;
    if (end - begin <= base_case_) {
      Pairwise(begin, end);
      return;
    }
    const std::size_t mid = begin + (end - begin) / 2;
    Recurse(begin, mid);
    Recurse(mid, end);
    Cross(begin, mid, end);
  }

  /// All-pairs pruning over [begin, end).  The row test rejects a
  /// dominator i against any victim j with cost[j] < cost[i] - eps before
  /// any side effect; the sort makes those victims a prefix of each row,
  /// skipped wholesale without running the test (predictive pruning — the
  /// skip is decided from the sort invariant, not from the comparison
  /// itself).
  void Pairwise(std::size_t begin, std::size_t end) {
    if (AllMinimal(begin, end)) return;
    std::size_t lo = begin;  // first j that row i could possibly prune
    // Live entries below lo, and the fresh ones among them: the tests the
    // unsorted all-pairs loop would have run and lost on the cost check.
    // No row prunes below its lo, so an entry's bit is final once lo has
    // passed it.
    std::size_t live_below = 0;
    std::size_t fresh_below = 0;
    for (std::size_t i = begin; i < end; ++i) {
      while (lo < end && rows_[lo].cost < rows_[i].cost - slack_.cost) {
        live_below += live_[lo];
        if (live_[lo] && !minimal_[lo]) ++fresh_below;
        ++lo;
      }
      if (!live_[i]) continue;
      const bool mi = minimal_[i];
      stats_.predictive_skipped += mi ? fresh_below : live_below;
      for (std::size_t j = lo; j < end; ++j) {
        if (i == j || !live_[j] || (mi && minimal_[j])) continue;
        ++stats_.comparisons;
        if (Prunes(i, j)) Kill(j);
      }
    }
  }

  /// Cross-prunes [begin, mid) against [mid, end), in both directions.
  ///
  /// Every left cost <= every right cost (the recursion splits a
  /// (cost, cap)-sorted set and never reorders), so a right entry can
  /// undercut l on cost only inside l's eps band [mid, band_end); there
  /// both orientations are tested in index order.  Beyond the band only
  /// the forward test (l, r) can prune, and such a test writes only its
  /// victim r and reads only l, which nothing changes after its band: the
  /// tests commute.  They are therefore run in cap order within l's
  /// parity, stopping at the first victim whose cap rules l out; a
  /// minimal l walks the fresh victims only.  The pairs never enumerated
  /// fail MayDominate's parity or cap conjunct without side effects; they
  /// are added to the counters in bulk, so every count equals that of the
  /// all-pairs index-order loop over the non-exempt pairs.
  ///
  /// The walk ends at the first victim whose cap rules l out, found by
  /// binary search.  Within it, a block of kBlock consecutive victims whose
  /// stage-length or sink-delay maxima l exceeds beyond the slack holds no
  /// victim l can prune (StagesMayDominate); it is skipped unvisited.
  void Cross(std::size_t begin, std::size_t mid, std::size_t end) {
    by_cap_.clear();
    for (std::size_t r = mid; r < end; ++r) {
      if (live_[r]) by_cap_.push_back(r);
    }
    std::sort(by_cap_.begin(), by_cap_.end(),
              [this](std::size_t a, std::size_t b) {
                if (rows_[a].parity != rows_[b].parity) {
                  return rows_[a].parity < rows_[b].parity;
                }
                return rows_[a].cap > rows_[b].cap;
              });
    fresh_by_cap_.clear();
    for (const std::size_t r : by_cap_) {
      if (!minimal_[r]) fresh_by_cap_.push_back(r);
    }
    BuildBlocks(by_cap_, by_cap_blocks_);
    BuildBlocks(fresh_by_cap_, fresh_blocks_);
    std::size_t live_right = by_cap_.size();
    std::size_t fresh_right = fresh_by_cap_.size();
    auto kill_right = [&](std::size_t r) {
      Kill(r);
      --live_right;
      if (!minimal_[r]) --fresh_right;
    };
    std::size_t band_end = mid;  // non-decreasing in l, as cost[l] is
    for (std::size_t l = begin; l < mid; ++l) {
      if (!live_[l]) continue;
      const MfsRow& dl = rows_[l];
      const bool ml = minimal_[l];
      while (band_end < end &&
             !(rows_[band_end].cost > dl.cost + slack_.cost)) {
        ++band_end;
      }
      std::size_t live_band = 0;  // non-exempt survivors of the band
      for (std::size_t r = mid; r < band_end; ++r) {
        // Pruned slots may precede live ones; exempt pairs are skipped.
        if (!live_[r] || (ml && minimal_[r])) continue;
        ++stats_.comparisons;
        if (Prunes(l, r)) {
          kill_right(r);
          continue;
        }
        ++live_band;
        ++stats_.comparisons;
        if (Prunes(r, l)) {
          Kill(l);
          break;  // l is gone; its row is done
        }
      }
      if (!live_[l]) continue;

      // Beyond the band: one forward test per live non-exempt victim, each
      // reverse test decided by the sort invariant (predictive skip)
      // unless the forward test pruned the victim.
      const std::vector<std::size_t>& victims = ml ? fresh_by_cap_ : by_cap_;
      const std::vector<BlockMax>& blocks =
          ml ? fresh_blocks_ : by_cap_blocks_;
      const std::size_t beyond = (ml ? fresh_right : live_right) - live_band;
      stats_.comparisons += beyond;
      std::size_t pruned_beyond = 0;
      const auto first = std::partition_point(
          victims.begin(), victims.end(),
          [&](std::size_t r) { return rows_[r].parity < dl.parity; });
      const auto last =
          std::partition_point(first, victims.end(), [&](std::size_t r) {
            return rows_[r].parity == dl.parity &&
                   dl.cap <= rows_[r].cap + slack_.cap;
          });
      const auto walk_end = static_cast<std::size_t>(last - victims.begin());
      for (auto k = static_cast<std::size_t>(first - victims.begin());
           k < walk_end;) {
        const BlockMax& block = blocks[k / kBlock];
        const std::size_t block_end =
            std::min(walk_end, (k / kBlock + 1) * kBlock);
        if (!StagesMayDominate(dl, block.stage_span_um, block.stage_diam_um,
                               block.sink_delay, slack_)) {
          k = block_end;
          continue;
        }
        for (; k < block_end; ++k) {
          const std::size_t r = victims[k];
          if (r < band_end || !live_[r]) continue;
          if (Prunes(l, r)) {
            kill_right(r);
            ++pruned_beyond;
          }
        }
      }
      stats_.predictive_skipped += beyond - pruned_beyond;
    }
  }

  /// Removes the dead entries from the set, keeping the survivors' order.
  void Compact() {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < set_.size(); ++i) {
      if (live_[i]) set_[kept++] = std::move(set_[i]);
    }
    set_.resize(kept);
  }

 private:
  /// Maxima of the scalars the cap walk leaves open, over one block of
  /// kBlock consecutive entries of a cap list.  -kInf (the identity of
  /// max) keeps a block of -inf sink delays at -inf.
  struct BlockMax {
    double stage_span_um = -kInf;
    double stage_diam_um = -kInf;
    double sink_delay = -kInf;
  };
  static constexpr std::size_t kBlock = 16;

  void BuildBlocks(const std::vector<std::size_t>& list,
                   std::vector<BlockMax>& blocks) const {
    blocks.assign((list.size() + kBlock - 1) / kBlock, BlockMax{});
    for (std::size_t k = 0; k < list.size(); ++k) {
      const MfsRow& row = rows_[list[k]];
      BlockMax& block = blocks[k / kBlock];
      block.stage_span_um = std::max(block.stage_span_um, row.stage_span_um);
      block.stage_diam_um = std::max(block.stage_diam_um, row.stage_diam_um);
      block.sink_delay = std::max(block.sink_delay, row.sink_delay);
    }
  }

  /// True when every pair inside [begin, end) is exempt.
  bool AllMinimal(std::size_t begin, std::size_t end) const {
    return fresh_before_[end] == fresh_before_[begin];
  }

  bool Prunes(std::size_t d, std::size_t v) {
    return MayDominate(rows_[d], rows_[v], slack_) &&
           PruneRegion(*set_[d], *set_[v], slack_.delay, &stats_);
  }

  void Kill(std::size_t i) {
    ++stats_.pruned;
    live_[i] = 0;
  }

  SolutionSet& set_;
  const std::size_t base_case_;
  const Slack slack_;
  MfsStats& stats_;
  std::vector<MfsRow> rows_;
  const std::vector<std::uint8_t> minimal_;
  std::vector<std::size_t> fresh_before_;  // fresh entries in [0, i)
  std::vector<std::uint8_t> live_;
  // Cross scratch: live right entries by (parity, -cap), and the fresh
  // ones among them in the same order, each with its block maxima.
  std::vector<std::size_t> by_cap_;
  std::vector<std::size_t> fresh_by_cap_;
  std::vector<BlockMax> by_cap_blocks_;
  std::vector<BlockMax> fresh_blocks_;
};

}  // namespace

MfsStats& MfsStats::operator+=(const MfsStats& other) {
  calls += other.calls;
  candidates_in += other.candidates_in;
  candidates_out += other.candidates_out;
  comparisons += other.comparisons;
  predictive_skipped += other.predictive_skipped;
  region_tests += other.region_tests;
  pruned += other.pruned;
  pruned_partial += other.pruned_partial;
  return *this;
}

bool RowMayDominate(const MfsRow& dominator, const MfsRow& victim,
                    const MfsOptions& options) {
  return MayDominate(dominator, victim, Slack(options));
}

bool PruneByDominance(const MsriSolution& dominator, MsriSolution& victim,
                      const MfsOptions& options, MfsStats* stats) {
  if (victim.valid.Empty()) return true;
  if (&dominator == &victim) return false;
  if (!RowMayDominate(MfsRow::Of(dominator), MfsRow::Of(victim), options)) {
    return false;
  }
  return PruneRegion(dominator, victim, options.DelayEps(), stats);
}

SolutionSet ComputeMfs(SolutionSet set, const MfsOptions& options,
                       MfsStats* stats, std::size_t minimal_prefix) {
  MfsStats call;
  call.calls = 1;
  call.candidates_in = set.size();

  // Sorting by (cost, cap) first puts likely dominators early, making
  // the divide-and-conquer discard suboptimal solutions deep in the
  // recursion (the paper's Section V implementation note).
  std::vector<std::uint8_t> minimal = FilterAndSort(set, minimal_prefix);
  if (options.mode != MfsOptions::Mode::kOff && set.size() >= 2) {
    Pruner pruner(set, std::move(minimal), options, call);
    if (options.mode == MfsOptions::Mode::kQuadratic) {
      pruner.Pairwise(0, set.size());
    } else {
      pruner.Recurse(0, set.size());
    }
    pruner.Compact();
    // Re-sorted even when every pair was exempt: std::sort is not stable,
    // and callers see the order of tied entries (it reaches the
    // materialized assignments).
    SortByCostCap(set);
  }
  call.candidates_out = set.size();

  if (stats) *stats += call;
  return set;
}

}  // namespace msn
