#include "core/mfs.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace msn {
namespace {

void SortByCostCap(SolutionSet& set) {
  std::sort(set.begin(), set.end(),
            [](const SolutionPtr& a, const SolutionPtr& b) {
              if (a->cost != b->cost) return a->cost < b->cost;
              return a->cap < b->cap;
            });
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

/// RowMayDominate's test, with the slacks read once per call.  Parity
/// classes are incomparable: a later inverter turns one into the feasible
/// class and the other into the infeasible one.  The other scalars are
/// each monotone, so any one of them worse beyond its slack rules the
/// dominator out.
bool MayDominate(const MfsRow& d, const MfsRow& v, const Slack& slack) {
  return d.parity == v.parity && d.cost <= v.cost + slack.cost &&
         d.cap <= v.cap + slack.cap &&
         d.stage_span_um <= v.stage_span_um + 1e-6 &&
         d.stage_diam_um <= v.stage_diam_um + 1e-6 &&
         d.sink_delay <= v.sink_delay + slack.delay;
}

/// The PWL half of PruneByDominance, for a pair whose scalars already
/// passed MayDominate.
bool PruneRegion(const MsriSolution& dominator, MsriSolution& victim,
                 double delay_eps, MfsStats* stats) {
  if (dominator.valid.Empty()) return false;
  if (stats) ++stats->region_tests;
  IntervalSet region = dominator.arr.RegionLessEqual(victim.arr, delay_eps);
  // An empty arr region empties the intersection; skip the diam sweep.
  if (region.Empty()) return false;
  region = region.Intersect(dominator.diam.RegionLessEqual(victim.diam,
                                                           delay_eps))
               .Intersect(dominator.valid);
  if (region.Empty()) return false;
  victim.valid = victim.valid.Subtract(region);
  if (!victim.valid.Empty()) {
    if (stats) ++stats->pruned_partial;
    return false;
  }
  return true;
}

/// The pruning state of one ComputeMfs call over a (cost, cap)-sorted set:
/// a scalar row per entry, a live mask, and the call's counters.  Pruning
/// clears live bits only; Compact drops the dead entries at the end, so
/// the divide-and-conquer recursion works on index ranges of one array.
///
/// Every live entry has a non-empty valid region (ComputeMfs drops empty
/// ones up front and an entry dies as soon as its region empties), so a
/// pair rejected by MayDominate is exactly a pair PruneByDominance would
/// reject without side effects; only the survivors dereference their
/// solutions.
class Pruner {
 public:
  Pruner(SolutionSet& set, const MfsOptions& options, MfsStats& stats)
      : set_(set),
        base_case_(options.base_case),
        slack_(options),
        stats_(stats),
        live_(set.size(), 1) {
    rows_.reserve(set.size());
    for (const SolutionPtr& s : set) rows_.push_back(MfsRow::Of(*s));
  }

  /// Fig. 4: split, recurse, cross-prune the survivors.  Every entry of
  /// [begin, end) is still live on entry, so the split sizes match a
  /// recursion over compacted copies.
  void Recurse(std::size_t begin, std::size_t end) {
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
    std::size_t lo = begin;  // first j that row i could possibly prune
    // Live entries below lo: the tests the unsorted all-pairs loop would
    // have run and lost on the cost check.  No row prunes below its lo,
    // so an entry's bit is final once lo has passed it.
    std::size_t live_below = 0;
    for (std::size_t i = begin; i < end; ++i) {
      while (lo < end && rows_[lo].cost < rows_[i].cost - slack_.cost) {
        live_below += live_[lo];
        ++lo;
      }
      if (!live_[i]) continue;
      stats_.predictive_skipped += live_below;
      for (std::size_t j = lo; j < end; ++j) {
        if (i == j || !live_[j]) continue;
        ++stats_.comparisons;
        if (Prunes(i, j)) {
          ++stats_.pruned;
          live_[j] = 0;
        }
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
  /// parity, stopping at the first victim whose cap rules l out.  The
  /// pairs never enumerated fail MayDominate's parity or cap conjunct
  /// without side effects; they are added to the counters in bulk, so
  /// every count equals that of the all-pairs index-order loop.
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
    std::size_t live_right = by_cap_.size();
    std::size_t band_end = mid;  // non-decreasing in l, as cost[l] is
    for (std::size_t l = begin; l < mid; ++l) {
      if (!live_[l]) continue;
      const MfsRow& dl = rows_[l];
      while (band_end < end &&
             !(rows_[band_end].cost > dl.cost + slack_.cost)) {
        ++band_end;
      }
      std::size_t live_band = 0;
      for (std::size_t r = mid; r < band_end; ++r) {
        if (!live_[r]) continue;  // already pruned; later slots may be live
        ++stats_.comparisons;
        if (Prunes(l, r)) {
          ++stats_.pruned;
          live_[r] = 0;
          --live_right;
          continue;
        }
        ++live_band;
        ++stats_.comparisons;
        if (Prunes(r, l)) {
          ++stats_.pruned;
          live_[l] = 0;
          break;  // l is gone; its row is done
        }
      }
      if (!live_[l]) continue;

      // Beyond the band: one forward test per live victim, each reverse
      // test decided by the sort invariant (predictive skip) unless the
      // forward test pruned the victim.
      const std::size_t beyond = live_right - live_band;
      stats_.comparisons += beyond;
      std::size_t pruned_beyond = 0;
      auto it = std::partition_point(
          by_cap_.begin(), by_cap_.end(),
          [&](std::size_t r) { return rows_[r].parity < dl.parity; });
      for (; it != by_cap_.end() && rows_[*it].parity == dl.parity &&
             dl.cap <= rows_[*it].cap + slack_.cap;
           ++it) {
        const std::size_t r = *it;
        if (r < band_end || !live_[r]) continue;
        if (Prunes(l, r)) {
          ++stats_.pruned;
          live_[r] = 0;
          --live_right;
          ++pruned_beyond;
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
  bool Prunes(std::size_t d, std::size_t v) {
    return MayDominate(rows_[d], rows_[v], slack_) &&
           PruneRegion(*set_[d], *set_[v], slack_.delay, &stats_);
  }

  SolutionSet& set_;
  const std::size_t base_case_;
  const Slack slack_;
  MfsStats& stats_;
  std::vector<MfsRow> rows_;
  std::vector<std::uint8_t> live_;
  std::vector<std::size_t> by_cap_;  // Cross scratch: by (parity, -cap)
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
                       MfsStats* stats) {
  MfsStats call;
  call.calls = 1;
  call.candidates_in = set.size();

  std::erase_if(set,
                [](const SolutionPtr& s) { return !s || s->valid.Empty(); });
  // Sorting by (cost, cap) first puts likely dominators early, making
  // the divide-and-conquer discard suboptimal solutions deep in the
  // recursion (the paper's Section V implementation note).
  SortByCostCap(set);
  if (options.mode != MfsOptions::Mode::kOff && set.size() >= 2) {
    Pruner pruner(set, options, call);
    if (options.mode == MfsOptions::Mode::kQuadratic) {
      pruner.Pairwise(0, set.size());
    } else {
      pruner.Recurse(0, set.size());
    }
    pruner.Compact();
    SortByCostCap(set);
  }
  call.candidates_out = set.size();

  if (stats) *stats += call;
  return set;
}

}  // namespace msn
