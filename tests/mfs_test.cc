#include "core/mfs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/msri.h"
#include "netgen/netgen.h"

namespace msn {
namespace {

SolutionPtr Make(double cost, double cap, double delay, Pwl arr, Pwl diam) {
  auto s = std::make_shared<MsriSolution>();
  s->cost = cost;
  s->cap = cap;
  s->sink_delay = delay;
  s->arr = std::move(arr);
  s->diam = std::move(diam);
  return s;
}

MfsOptions Quadratic() {
  MfsOptions o;
  o.mode = MfsOptions::Mode::kQuadratic;
  return o;
}

TEST(Mfs, FullyDominatedSolutionRemoved) {
  SolutionSet set;
  set.push_back(Make(1.0, 1.0, 10.0, Pwl::Line(5.0, 1.0), Pwl::NegInf()));
  set.push_back(Make(2.0, 2.0, 20.0, Pwl::Line(9.0, 2.0), Pwl::NegInf()));
  const SolutionSet out = ComputeMfs(set, Quadratic());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0]->cost, 1.0);
}

TEST(Mfs, IncomparableScalarsBothSurvive) {
  SolutionSet set;
  set.push_back(Make(1.0, 5.0, 10.0, Pwl::Constant(0.0), Pwl::NegInf()));
  set.push_back(Make(5.0, 1.0, 10.0, Pwl::Constant(0.0), Pwl::NegInf()));
  EXPECT_EQ(ComputeMfs(set, Quadratic()).size(), 2u);
}

TEST(Mfs, PartialDomainPruning) {
  // s1 cheaper scalars; arr functions cross at x = 5: s1 wins for x > 5.
  SolutionSet set;
  set.push_back(Make(1.0, 1.0, 0.0, Pwl::Constant(10.0), Pwl::NegInf()));
  set.push_back(Make(1.0, 1.0, 0.0, Pwl::Line(0.0, 2.0), Pwl::NegInf()));
  const SolutionSet out = ComputeMfs(set, Quadratic());
  ASSERT_EQ(out.size(), 2u);
  // The constant one survives only where it's at most the line (x >= 5
  // minus eps effects), the line only where it's at most the constant.
  for (const SolutionPtr& s : out) {
    EXPECT_FALSE(s->valid.Empty());
    EXPECT_FALSE(s->valid == IntervalSet::NonNegativeReals());
  }
}

TEST(Mfs, IdenticalSolutionsKeepExactlyOne) {
  SolutionSet set;
  for (int i = 0; i < 4; ++i) {
    set.push_back(
        Make(3.0, 2.0, 7.0, Pwl::Line(1.0, 1.0), Pwl::Constant(5.0)));
  }
  EXPECT_EQ(ComputeMfs(set, Quadratic()).size(), 1u);
}

TEST(Mfs, OffModeKeepsEverything) {
  SolutionSet set;
  set.push_back(Make(1.0, 1.0, 1.0, Pwl::Constant(1.0), Pwl::NegInf()));
  set.push_back(Make(9.0, 9.0, 9.0, Pwl::Constant(9.0), Pwl::NegInf()));
  MfsOptions off;
  off.mode = MfsOptions::Mode::kOff;
  EXPECT_EQ(ComputeMfs(set, off).size(), 2u);
}

TEST(Mfs, BottomArrDominatesNothingButIsDominated) {
  // A sink-only solution (arr = -inf) is dominated by an identical
  // solution that also has -inf arr, but a source solution never prunes
  // a cheaper sink-only one.
  SolutionSet set;
  set.push_back(Make(1.0, 1.0, 5.0, Pwl::NegInf(), Pwl::NegInf()));
  set.push_back(Make(2.0, 1.0, 5.0, Pwl::Constant(3.0), Pwl::NegInf()));
  const SolutionSet out = ComputeMfs(set, Quadratic());
  // The -inf-arr solution dominates the other on every axis (cost lower,
  // arr -inf <= 3): only it survives.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0]->cost, 1.0);
}

TEST(Mfs, RespectsDominatorValidRegion) {
  // The dominator is only valid on [0, 2): it must not prune beyond.
  SolutionSet set;
  auto dom = Make(1.0, 1.0, 0.0, Pwl::Constant(0.0), Pwl::NegInf());
  dom->valid = IntervalSet(0.0, 2.0);
  auto victim = Make(2.0, 2.0, 0.0, Pwl::Constant(1.0), Pwl::NegInf());
  set.push_back(dom);
  set.push_back(victim);
  const SolutionSet out = ComputeMfs(set, Quadratic());
  ASSERT_EQ(out.size(), 2u);
  const SolutionPtr& v = out[0]->cost == 2.0 ? out[0] : out[1];
  EXPECT_FALSE(v->valid.Contains(1.0));
  EXPECT_TRUE(v->valid.Contains(2.0));
  EXPECT_TRUE(v->valid.Contains(100.0));
}

TEST(Mfs, DiamDimensionBlocksPruning) {
  // Better cost/cap/arr but worse diam somewhere: no full prune there.
  SolutionSet set;
  set.push_back(Make(1.0, 1.0, 0.0, Pwl::Constant(0.0),
                     Pwl::Line(0.0, 3.0)));
  set.push_back(Make(2.0, 2.0, 0.0, Pwl::Constant(1.0),
                     Pwl::Constant(10.0)));
  const SolutionSet out = ComputeMfs(set, Quadratic());
  ASSERT_EQ(out.size(), 2u);
  // Victim (cost 2) survives exactly where dominator's diam exceeds 10,
  // i.e. x > 10/3.
  const SolutionPtr& v = out[0]->cost == 2.0 ? out[0] : out[1];
  EXPECT_FALSE(v->valid.Contains(3.0));
  EXPECT_TRUE(v->valid.Contains(4.0));
}

TEST(Mfs, RegionMissingVictimValidIsNoPartialPrune) {
  // The dominator is no worse only for x >= 5 (10 <= 2x), but the victim
  // is valid on [0, 2) alone: the region is non-empty, yet nothing shrinks
  // and nothing may be counted.
  const SolutionPtr dom =
      Make(1.0, 1.0, 0.0, Pwl::Constant(10.0), Pwl::NegInf());
  const SolutionPtr victim =
      Make(1.0, 1.0, 0.0, Pwl::Line(0.0, 2.0), Pwl::NegInf());
  victim->valid = IntervalSet(0.0, 2.0);
  MfsStats stats;
  EXPECT_FALSE(PruneByDominance(*dom, *victim, MfsOptions(), &stats));
  EXPECT_EQ(victim->valid, IntervalSet(0.0, 2.0));
  EXPECT_EQ(stats.region_tests, 1u);
  EXPECT_EQ(stats.pruned_partial, 0u);

  // Once the victim's valid reaches into the region, it is a partial prune.
  victim->valid = IntervalSet(0.0, 8.0);
  EXPECT_FALSE(PruneByDominance(*dom, *victim, MfsOptions(), &stats));
  EXPECT_FALSE(victim->valid.Contains(6.0));
  EXPECT_TRUE(victim->valid.Contains(1.0));
  EXPECT_EQ(stats.pruned_partial, 1u);
}

/// The dominance test with its region built arr first: both PWL sweeps,
/// then the two valid sets.  A reference for PruneByDominance, which
/// starts from the valid window; intersection does not depend on order,
/// so the two must agree in result, region and counters.
bool ArrFirstPruneByDominance(const MsriSolution& dominator,
                              MsriSolution& victim, const MfsOptions& options,
                              MfsStats& stats) {
  if (victim.valid.Empty()) return true;
  if (!RowMayDominate(MfsRow::Of(dominator), MfsRow::Of(victim), options)) {
    return false;
  }
  if (dominator.valid.Empty()) return false;
  ++stats.region_tests;
  const double eps = options.DelayEps();
  IntervalSet region = dominator.arr.RegionLessEqual(victim.arr, eps);
  if (region.Empty()) return false;
  region = region.Intersect(dominator.diam.RegionLessEqual(victim.diam, eps))
               .Intersect(dominator.valid)
               .Intersect(victim.valid);
  if (region.Empty()) return false;
  victim.valid = victim.valid.Subtract(region);
  if (!victim.valid.Empty()) {
    ++stats.pruned_partial;
    return false;
  }
  return true;
}

/// The valid-window-first region test decides every pair as the arr-first
/// order did.  Pairs share their scalars, so nearly all reach the region
/// test; valid sets of one to four intervals (past IntervalSet::kInline),
/// often disjoint, and bottom arr or diam curves cover every early exit.
TEST(MfsRegion, WindowFirstMatchesArrFirstOrder) {
  Rng rng(20261021);
  auto pick = [&rng](std::initializer_list<double> values) {
    const auto k = rng.UniformInt(0, static_cast<int>(values.size()) - 1);
    return *(values.begin() + k);
  };
  auto random_valid = [&] {
    std::vector<Interval> pieces;
    const auto count = rng.UniformInt(1, 4);
    for (int k = 0; k < count; ++k) {
      const double lo = pick({0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0});
      pieces.push_back({lo, lo + pick({0.25, 0.5, 1.0, 4.0, kInf})});
    }
    return IntervalSet(pieces);
  };
  auto random_pwl = [&](double bottom_chance) {
    if (rng.Chance(bottom_chance)) return Pwl::NegInf();
    Pwl f = Pwl::Line(pick({0.0, 10.0, 20.0, 40.0}), pick({0.0, 2.0, 5.0}));
    if (rng.Chance(0.4)) {
      f = Pwl::Max(f, Pwl::Line(pick({5.0, 15.0, 30.0}),
                                pick({4.0, 10.0, 20.0})));
    }
    return f;
  };
  auto random_solution = [&] {
    SolutionPtr s = Make(1.0, 1.0, pick({-kInf, 10.0}), random_pwl(0.15),
                         random_pwl(0.3));
    s->valid = random_valid();
    return s;
  };
  const MfsOptions options;
  MfsStats got;
  MfsStats want;
  std::size_t disjoint = 0;
  std::size_t spilled = 0;
  std::size_t bottom = 0;
  std::size_t full = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const SolutionPtr d = random_solution();
    const SolutionPtr v = random_solution();
    MsriSolution v_ref = *v;
    if (d->valid.Intersect(v->valid).Empty()) ++disjoint;
    if (d->valid.Size() > IntervalSet::kInline ||
        v->valid.Size() > IntervalSet::kInline) {
      ++spilled;
    }
    if (d->arr.IsNegInf() || v->arr.IsNegInf() || d->diam.IsNegInf() ||
        v->diam.IsNegInf()) {
      ++bottom;
    }
    const bool pruned = PruneByDominance(*d, *v, options, &got);
    ASSERT_EQ(pruned, ArrFirstPruneByDominance(*d, v_ref, options, want))
        << "trial " << trial;
    ASSERT_EQ(v->valid, v_ref.valid) << "trial " << trial;
    ASSERT_EQ(got.region_tests, want.region_tests) << "trial " << trial;
    ASSERT_EQ(got.pruned_partial, want.pruned_partial) << "trial " << trial;
    if (pruned) ++full;
  }
  // Every outcome must be well represented for the match to mean much.
  EXPECT_GT(disjoint, 2000u);
  EXPECT_GT(spilled, 2000u);
  EXPECT_GT(bottom, 2000u);
  EXPECT_GT(full, 500u);
  EXPECT_GT(got.pruned_partial, 500u);
  EXPECT_GT(got.region_tests, 10000u);
}

TEST(Mfs, CrossPruneSkipsNulledSlotsRegression) {
  // Regression for the divide-and-conquer cross-prune early-exit: with
  // base_case = 2 the set {c1/p5, c2/p1, c3/p6, c4/p2} (cost/cap, all
  // other dimensions identical) splits into left {c1, c2} and right
  // {c3, c4}, neither half prunes internally, and the cross pass goes:
  //   c1 prunes c3 (cheaper, smaller cap)  -> right slot 0 nulled;
  //   c2 must then prune c4 — but the old scan hit the nulled slot 0
  //   first and aborted c2's whole row, so the dominated c4 survived.
  auto build = [] {
    SolutionSet set;
    set.push_back(Make(1.0, 5.0, 0.0, Pwl::Constant(1.0), Pwl::NegInf()));
    set.push_back(Make(2.0, 1.0, 0.0, Pwl::Constant(1.0), Pwl::NegInf()));
    set.push_back(Make(3.0, 6.0, 0.0, Pwl::Constant(1.0), Pwl::NegInf()));
    set.push_back(Make(4.0, 2.0, 0.0, Pwl::Constant(1.0), Pwl::NegInf()));
    return set;
  };
  MfsOptions dc;
  dc.mode = MfsOptions::Mode::kDivideConquer;
  dc.base_case = 2;
  const SolutionSet pruned = ComputeMfs(build(), dc);
  ASSERT_EQ(pruned.size(), 2u);
  EXPECT_DOUBLE_EQ(pruned[0]->cost, 1.0);
  EXPECT_DOUBLE_EQ(pruned[1]->cost, 2.0);
  // The quadratic mode agrees.
  EXPECT_EQ(ComputeMfs(build(), Quadratic()).size(), 2u);
}

/// Asserts Definition 4.3 minimality: at no sampled external capacitance
/// is one survivor strictly better than another (beyond `margin`) in all
/// five dimensions while both claim validity there.  A violation means a
/// dominance test was skipped that should have run.
void ExpectMinimal(const SolutionSet& set, const std::vector<double>& xs,
                   double margin) {
  for (const SolutionPtr& a : set) {
    for (const SolutionPtr& b : set) {
      if (a == b) continue;
      for (const double x : xs) {
        if (!a->valid.Contains(x) || !b->valid.Contains(x)) continue;
        const bool strictly_dominated =
            a->cost <= b->cost - margin && a->cap <= b->cap - margin &&
            a->sink_delay <= b->sink_delay - margin &&
            a->arr.Eval(x) <= b->arr.Eval(x) - margin &&
            a->diam.Eval(x) <= b->diam.Eval(x) - margin;
        EXPECT_FALSE(strictly_dominated)
            << "survivor with cost " << b->cost
            << " is strictly dominated at x = " << x << " by cost "
            << a->cost;
      }
    }
  }
}

SolutionSet RandomSet(Rng& rng, int n) {
  SolutionSet set;
  for (int i = 0; i < n; ++i) {
    set.push_back(Make(rng.UniformReal(0.0, 4.0), rng.UniformReal(0.0, 2.0),
                       rng.UniformReal(0.0, 100.0),
                       Pwl::Line(rng.UniformReal(0.0, 200.0),
                                 rng.UniformReal(0.0, 30.0)),
                       Pwl::Line(rng.UniformReal(0.0, 300.0),
                                 rng.UniformReal(0.0, 30.0))));
  }
  return set;
}

class MfsMinimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MfsMinimality, NoSurvivorDominatedAtSampledLoads) {
  Rng rng(GetParam());
  const SolutionSet set = RandomSet(rng, 48);
  std::vector<double> xs = {0.0, 0.25, 1.0, 3.0, 10.0, 40.0};
  for (int i = 0; i < 24; ++i) xs.push_back(rng.UniformReal(0.0, 60.0));

  for (const MfsOptions::Mode mode :
       {MfsOptions::Mode::kQuadratic, MfsOptions::Mode::kDivideConquer}) {
    SolutionSet copy;
    for (const SolutionPtr& s : set) {
      copy.push_back(std::make_shared<MsriSolution>(*s));
    }
    MfsOptions options;
    options.mode = mode;
    MfsStats stats;
    const SolutionSet out = ComputeMfs(std::move(copy), options, &stats);
    ExpectMinimal(out, xs, 1e-6);
    // The predictive skip only ever avoids tests the sort already
    // decided; its mirror-pair bound must hold structurally.
    EXPECT_LE(stats.predictive_skipped, stats.comparisons);
    EXPECT_GT(stats.predictive_skipped, 0u);
  }
}

/// PairwisePrune (kQuadratic) and MfsRecurse (kDivideConquer) must agree:
/// identical pointwise-achievable frontier at sampled loads, each mode's
/// survivors covered by the other's, and both minimal.
TEST_P(MfsMinimality, PairwiseAndRecurseEquivalent) {
  Rng rng(GetParam() + 1000);
  const SolutionSet set = RandomSet(rng, 40);
  SolutionSet s1;
  SolutionSet s2;
  for (const SolutionPtr& s : set) {
    s1.push_back(std::make_shared<MsriSolution>(*s));
    s2.push_back(std::make_shared<MsriSolution>(*s));
  }
  MfsOptions quad = Quadratic();
  MfsOptions dc;
  dc.mode = MfsOptions::Mode::kDivideConquer;
  dc.base_case = 4;  // Deep recursion: many cross-prune passes.
  const SolutionSet a = ComputeMfs(std::move(s1), quad);
  const SolutionSet b = ComputeMfs(std::move(s2), dc);

  std::vector<double> xs;
  for (int i = 0; i < 32; ++i) xs.push_back(rng.UniformReal(0.0, 60.0));
  ExpectMinimal(a, xs, 1e-6);
  ExpectMinimal(b, xs, 1e-6);
  auto covered = [](const SolutionSet& by, const MsriSolution& s, double x) {
    for (const SolutionPtr& k : by) {
      if (!k->valid.Contains(x)) continue;
      if (k->cost <= s.cost + 1e-6 && k->cap <= s.cap + 1e-6 &&
          k->sink_delay <= s.sink_delay + 1e-6 &&
          k->arr.Eval(x) <= s.arr.Eval(x) + 1e-6 &&
          k->diam.Eval(x) <= s.diam.Eval(x) + 1e-6) {
        return true;
      }
    }
    return false;
  };
  for (const double x : xs) {
    for (const SolutionPtr& s : a) {
      if (s->valid.Contains(x)) {
        EXPECT_TRUE(covered(b, *s, x)) << "x=" << x;
      }
    }
    for (const SolutionPtr& s : b) {
      if (s->valid.Contains(x)) {
        EXPECT_TRUE(covered(a, *s, x)) << "x=" << x;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MfsMinimality,
                         ::testing::Range<std::uint64_t>(1, 16));

/// Divide-and-conquer agrees with quadratic pruning on the surviving
/// frontier (same minimal cover, possibly different tie-breaks — we check
/// coverage: for sampled x, the best achievable 5-tuple is preserved).
class MfsModeAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MfsModeAgreement, SameCoverage) {
  Rng rng(GetParam());
  SolutionSet set;
  const int n = 40;
  for (int i = 0; i < n; ++i) {
    set.push_back(Make(rng.UniformReal(0.0, 4.0), rng.UniformReal(0.0, 2.0),
                       rng.UniformReal(0.0, 100.0),
                       Pwl::Line(rng.UniformReal(0.0, 200.0),
                                 rng.UniformReal(0.0, 30.0)),
                       Pwl::Line(rng.UniformReal(0.0, 300.0),
                                 rng.UniformReal(0.0, 30.0))));
  }
  // Deep-copy for the second mode (ComputeMfs mutates valid regions).
  SolutionSet set2;
  for (const SolutionPtr& s : set) {
    set2.push_back(std::make_shared<MsriSolution>(*s));
  }

  MfsOptions quad = Quadratic();
  MfsOptions dc;
  dc.mode = MfsOptions::Mode::kDivideConquer;
  const SolutionSet a = ComputeMfs(set, quad);
  const SolutionSet b = ComputeMfs(set2, dc);

  // For sampled x, every solution valid at x in one survivor set must be
  // matched (in all 5 dims, up to eps) by some valid solution in the other.
  auto covered = [](const SolutionSet& by, const MsriSolution& s,
                    double x) {
    for (const SolutionPtr& k : by) {
      if (!k->valid.Contains(x)) continue;
      if (k->cost <= s.cost + 1e-6 && k->cap <= s.cap + 1e-6 &&
          k->sink_delay <= s.sink_delay + 1e-6 &&
          k->arr.Eval(x) <= s.arr.Eval(x) + 1e-6 &&
          k->diam.Eval(x) <= s.diam.Eval(x) + 1e-6) {
        return true;
      }
    }
    return false;
  };
  for (double x : {0.0, 0.5, 1.0, 2.0, 5.0, 20.0}) {
    for (const SolutionPtr& s : a) {
      if (s->valid.Contains(x)) {
        EXPECT_TRUE(covered(b, *s, x)) << "x=" << x;
      }
    }
    for (const SolutionPtr& s : b) {
      if (s->valid.Contains(x)) {
        EXPECT_TRUE(covered(a, *s, x)) << "x=" << x;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MfsModeAgreement,
                         ::testing::Range<std::uint64_t>(1, 11));

/// The scalar row prefilter must be sound: whenever RowMayDominate rejects
/// a pair, PruneByDominance returns false and leaves the victim's valid
/// region untouched.  Coordinates are drawn from a few discrete values so
/// that ties and near-ties within the slacks are common.
TEST(MfsPrefilter, RejectImpliesNoPruneAndNoSideEffect) {
  Rng rng(20250917);
  auto pick = [&rng](std::initializer_list<double> values) {
    const auto k = rng.UniformInt(0, static_cast<int>(values.size()) - 1);
    return *(values.begin() + k);
  };
  auto random_solution = [&] {
    SolutionPtr s = Make(pick({1.0, 1.0 + 5e-10, 2.0, 3.0}),
                         pick({0.1, 0.1 + 5e-10, 0.2, 0.3}),
                         pick({-kInf, 10.0, 10.0 + 5e-10, 20.0}),
                         Pwl::Line(pick({5.0, 50.0, 100.0}),
                                   pick({0.0, 10.0, 30.0})),
                         pick({0.0, 1.0}) == 0.0
                             ? Pwl::NegInf()
                             : Pwl::Line(pick({5.0, 80.0}),
                                         pick({0.0, 20.0})));
    s->stage_span_um = pick({0.0, 100.0, 100.0 + 5e-7, 200.0});
    s->stage_diam_um = pick({0.0, 300.0, 300.0 + 5e-7, 400.0});
    s->parity = static_cast<int>(pick({0.0, 1.0}));
    const double lo = pick({0.0, 0.5});
    s->valid = IntervalSet(lo, pick({2.0, kInf}));
    return s;
  };
  const MfsOptions options;
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const SolutionPtr d = random_solution();
    const SolutionPtr v = random_solution();
    if (RowMayDominate(MfsRow::Of(*d), MfsRow::Of(*v), options)) {
      ++accepted;
      continue;
    }
    ++rejected;
    const IntervalSet before = v->valid;
    MfsStats stats;
    EXPECT_FALSE(PruneByDominance(*d, *v, options, &stats));
    EXPECT_EQ(v->valid, before);
    EXPECT_EQ(stats.region_tests, 0u);
    EXPECT_EQ(stats.pruned_partial, 0u);
  }
  // Both outcomes must be well represented for the property to mean much.
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(accepted, 1000u);
}

/// The divide-and-conquer schedule of paper Fig. 4 with every pair
/// enumerated in index order, built on the public single-pair test: an
/// all-pairs base case with the cost two-pointer, and a cross step that
/// tests each left dominator against every live right victim, plus the
/// reverse test inside the dominator's cost band.  ComputeMfs may skip
/// enumerating pairs the (cost, cap) order rules out, but must prune the
/// same pairs with the same outcome and count the same tests.
class ReferenceSchedule {
 public:
  ReferenceSchedule(SolutionSet& set, const MfsOptions& options,
                    MfsStats& stats)
      : set_(set), options_(options), stats_(stats), live_(set.size(), 1) {}

  void Recurse(std::size_t begin, std::size_t end) {
    if (end - begin <= options_.base_case) {
      Pairwise(begin, end);
      return;
    }
    const std::size_t mid = begin + (end - begin) / 2;
    Recurse(begin, mid);
    Recurse(mid, end);
    Cross(begin, mid, end);
  }

  void Pairwise(std::size_t begin, std::size_t end) {
    std::size_t lo = begin;
    std::size_t live_below = 0;
    for (std::size_t i = begin; i < end; ++i) {
      while (lo < end && Cost(lo) < Cost(i) - options_.CostEps()) {
        live_below += live_[lo];
        ++lo;
      }
      if (!live_[i]) continue;
      stats_.predictive_skipped += live_below;
      for (std::size_t j = lo; j < end; ++j) {
        if (i == j || !live_[j]) continue;
        ++stats_.comparisons;
        if (Prunes(i, j)) Kill(j);
      }
    }
  }

  void Cross(std::size_t begin, std::size_t mid, std::size_t end) {
    for (std::size_t l = begin; l < mid; ++l) {
      if (!live_[l]) continue;
      for (std::size_t r = mid; r < end; ++r) {
        if (!live_[r]) continue;
        ++stats_.comparisons;
        if (Prunes(l, r)) {
          Kill(r);
          continue;
        }
        if (Cost(r) > Cost(l) + options_.CostEps()) {
          ++stats_.predictive_skipped;
          continue;
        }
        ++stats_.comparisons;
        if (Prunes(r, l)) {
          Kill(l);
          break;
        }
      }
    }
  }

  void Compact() {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < set_.size(); ++i) {
      if (live_[i]) set_[kept++] = std::move(set_[i]);
    }
    set_.resize(kept);
  }

 private:
  double Cost(std::size_t i) const { return set_[i]->cost; }
  bool Prunes(std::size_t d, std::size_t v) {
    return PruneByDominance(*set_[d], *set_[v], options_, &stats_);
  }
  void Kill(std::size_t i) {
    ++stats_.pruned;
    live_[i] = 0;
  }

  SolutionSet& set_;
  const MfsOptions& options_;
  MfsStats& stats_;
  std::vector<std::uint8_t> live_;
};

void SortByCostCap(SolutionSet& set) {
  std::sort(set.begin(), set.end(),
            [](const SolutionPtr& a, const SolutionPtr& b) {
              if (a->cost != b->cost) return a->cost < b->cost;
              return a->cap < b->cap;
            });
}

SolutionSet ReferenceMfs(SolutionSet set, const MfsOptions& options,
                         MfsStats& stats) {
  stats.calls = 1;
  stats.candidates_in = set.size();
  std::erase_if(set, [](const SolutionPtr& s) { return s->valid.Empty(); });
  SortByCostCap(set);
  if (set.size() >= 2) {
    ReferenceSchedule schedule(set, options, stats);
    schedule.Recurse(0, set.size());
    schedule.Compact();
    SortByCostCap(set);
  }
  stats.candidates_out = set.size();
  return set;
}

/// A random candidate set shaped to stress the cross step: costs on a
/// coarse grid (ties) plus offsets of half, exactly and just beyond the
/// cost slack (multi-entry cost bands and their edges), caps from a few
/// values with the same offsets around the cap slack, both parities, and
/// a few PWL shapes so that partial prunes are common.  Some arrivals are
/// bottom, and a per-set share of the sink delays is -inf (none, some or
/// most), so that whole blocks of a cap walk can have a -inf maximum; in
/// half of the sets the sink delay follows the cap value, so that blocks
/// of neighbouring caps share a delay level a dominator may exceed.
SolutionSet RandomScheduleSet(Rng& rng, const MfsOptions& options,
                              std::size_t n) {
  auto pick = [&rng](std::initializer_list<double> values) {
    const auto k = rng.UniformInt(0, static_cast<int>(values.size()) - 1);
    return *(values.begin() + k);
  };
  auto near = [&](double base, double eps) {
    switch (rng.UniformInt(0, 4)) {
      case 0:
        return base + eps / 2.0;
      case 1:
        return base + eps;
      case 2:
        return std::nextafter(base + eps, kInf);
      default:
        return base;
    }
  };
  // A few cap values per set, so caps tie; the last is one where
  // (cap + eps) - eps rounds above cap, found just below a binade edge.
  // There the dominance test's "d.cap <= v.cap + eps" and the rearranged
  // "d.cap - eps <= v.cap" disagree for d.cap = v.cap + eps.
  constexpr int kCapBases = 4;
  const double cap_eps = options.CapEps();
  double cap_bases[kCapBases];
  for (int k = 0; k + 1 < kCapBases; ++k) {
    cap_bases[k] = rng.UniformReal(0.05, 0.45);
  }
  double& fragile = cap_bases[kCapBases - 1];
  do {
    fragile = 0.125 - rng.UniformReal(0.0, 2.0 * cap_eps);
  } while (!((fragile + cap_eps) - cap_eps > fragile));

  const double neg_inf_delay_share = pick({0.0, 0.25, 0.9});
  const bool delay_follows_cap = rng.Chance(0.5);

  SolutionSet set;
  for (std::size_t i = 0; i < n; ++i) {
    const double cost =
        near(0.5 * static_cast<double>(rng.UniformInt(0, 15)),
             options.CostEps());
    const auto cap_base = rng.UniformInt(0, kCapBases - 1);
    const double cap =
        near(cap_bases[static_cast<std::size_t>(cap_base)], options.CapEps());
    Pwl arr = Pwl::Line(pick({0.0, 10.0, 20.0, 40.0}), pick({0.0, 5.0, 20.0}));
    if (rng.Chance(0.3)) {
      arr = Pwl::Max(arr, Pwl::Line(pick({15.0, 30.0}), pick({2.0, 10.0})));
    } else if (rng.Chance(0.1)) {
      arr = Pwl::NegInf();
    }
    const auto delay_level =
        delay_follows_cap ? cap_base : rng.UniformInt(0, 3);
    const double delay =
        rng.Chance(neg_inf_delay_share)
            ? -kInf
            : near(10.0 * static_cast<double>(delay_level),
                   options.DelayEps());
    SolutionPtr s = Make(
        cost, cap, delay, std::move(arr),
        rng.Chance(0.5) ? Pwl::NegInf()
                        : Pwl::Line(pick({0.0, 25.0}), pick({1.0, 8.0})));
    s->stage_span_um = pick({0.0, 0.0, 100.0, 200.0});
    s->stage_diam_um = pick({0.0, 0.0, 300.0});
    s->parity = static_cast<int>(rng.UniformInt(0, 1));
    s->valid = IntervalSet(pick({0.0, 0.0, 0.5, 1.0}), pick({2.0, 5.0, kInf}));
    set.push_back(std::move(s));
  }
  return set;
}

SolutionSet DeepCopy(const SolutionSet& set) {
  SolutionSet copy;
  for (const SolutionPtr& s : set) {
    copy.push_back(std::make_shared<MsriSolution>(*s));
  }
  return copy;
}

/// Input positions of `survivors`, in their output order.
std::vector<std::size_t> Positions(const SolutionSet& input,
                                   const SolutionSet& survivors) {
  std::vector<std::size_t> out;
  for (const SolutionPtr& s : survivors) {
    out.push_back(static_cast<std::size_t>(
        std::find(input.begin(), input.end(), s) - input.begin()));
  }
  return out;
}

void ExpectSameStats(const MfsStats& a, const MfsStats& b) {
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.candidates_in, b.candidates_in);
  EXPECT_EQ(a.candidates_out, b.candidates_out);
  EXPECT_EQ(a.comparisons, b.comparisons);
  EXPECT_EQ(a.predictive_skipped, b.predictive_skipped);
  EXPECT_EQ(a.region_tests, b.region_tests);
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.pruned_partial, b.pruned_partial);
}

/// Divide-and-conquer ComputeMfs follows the index-order Fig. 4 schedule
/// exactly: same survivors in the same order, same valid regions, and
/// every counter equal, under the exact and the approximate slacks and
/// at two recursion depths.  Sets of up to 600 entries make the top cross
/// steps' cap walks span several blocks of one parity and end inside a
/// partial block.
TEST(MfsSchedule, DivideConquerMatchesIndexOrderReference) {
  MfsOptions exact;
  MfsOptions approximate = MfsOptions::Approximate();
  MfsOptions deep;
  deep.base_case = 2;
  Rng rng(20261017);
  MfsStats total;
  for (const MfsOptions& options : {exact, approximate, deep}) {
    for (int trial = 0; trial < 60; ++trial) {
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " cost_eps "
                                        << options.CostEps() << " base_case "
                                        << options.base_case);
      const auto n = static_cast<std::size_t>(rng.UniformInt(2, 600));
      const SolutionSet input = RandomScheduleSet(rng, options, n);
      const SolutionSet copy = DeepCopy(input);

      MfsStats got;
      const SolutionSet out = ComputeMfs(input, options, &got);
      MfsStats want;
      const SolutionSet ref = ReferenceMfs(copy, options, want);

      ExpectSameStats(got, want);
      ASSERT_EQ(Positions(input, out), Positions(copy, ref));
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i]->valid, ref[i]->valid) << "survivor " << i;
      }
      total += got;
    }
  }
  // Every kind of decision must be well represented.
  EXPECT_GT(total.pruned, 1000u);
  EXPECT_GT(total.pruned_partial, 1000u);
  EXPECT_GT(total.predictive_skipped, 10000u);
  EXPECT_GT(total.region_tests, 10000u);
}

/// A base_case below 1 acts as 1: a one-entry range cannot be split, so
/// 0 used to recurse forever on it (a three-solution set crashed).
TEST(MfsSchedule, BaseCaseZeroActsAsOne) {
  MfsOptions zero;
  zero.base_case = 0;
  MfsOptions one;
  one.base_case = 1;
  Rng rng(20261022);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    const auto n =
        trial == 0 ? 3 : static_cast<std::size_t>(rng.UniformInt(1, 160));
    const SolutionSet input = RandomScheduleSet(rng, one, n);
    const SolutionSet copy = DeepCopy(input);

    MfsStats got;
    const SolutionSet out = ComputeMfs(input, zero, &got);
    MfsStats want;
    const SolutionSet ref = ComputeMfs(copy, one, &want);

    ExpectSameStats(got, want);
    ASSERT_EQ(Positions(input, out), Positions(copy, ref));
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i]->valid, ref[i]->valid) << "survivor " << i;
    }
  }
}

/// The options the already-minimal prefix must be exact under: the exact
/// and the approximate slacks, a deep recursion, and all-pairs pruning.
std::vector<MfsOptions> PrefixOptions() {
  MfsOptions deep;
  deep.base_case = 2;
  MfsOptions quadratic = Quadratic();
  return {MfsOptions(), MfsOptions::Approximate(), deep, quadratic};
}

/// An already-minimal prefix changes the schedule, never the result: with
/// A = ComputeMfs(A0), pruning A ++ B with |A| exempt must return the
/// survivors, order and valid regions of pruning it with prefix 0, and
/// make the same prunes, full and partial, with no more tests.  A is
/// shuffled first, as the prefix may come in any order.
TEST(MfsPrefix, MinimalPrefixMatchesFullPrune) {
  Rng rng(20261019);
  std::size_t saved = 0;
  MfsStats total;
  for (const MfsOptions& options : PrefixOptions()) {
    for (int trial = 0; trial < 60; ++trial) {
      SCOPED_TRACE(::testing::Message()
                   << "trial " << trial << " cost_eps " << options.CostEps()
                   << " base_case " << options.base_case << " mode "
                   << static_cast<int>(options.mode));
      SolutionSet a = ComputeMfs(
          RandomScheduleSet(
              rng, options, static_cast<std::size_t>(rng.UniformInt(0, 120))),
          options);
      std::shuffle(a.begin(), a.end(), rng.Engine());
      const SolutionSet b = RandomScheduleSet(
          rng, options, static_cast<std::size_t>(rng.UniformInt(0, 80)));
      SolutionSet input = a;
      input.insert(input.end(), b.begin(), b.end());
      const SolutionSet copy = DeepCopy(input);

      MfsStats got;
      const SolutionSet out = ComputeMfs(input, options, &got, a.size());
      MfsStats want;
      const SolutionSet ref = ComputeMfs(copy, options, &want);

      ASSERT_EQ(Positions(input, out), Positions(copy, ref));
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i]->valid, ref[i]->valid) << "survivor " << i;
      }
      EXPECT_EQ(got.candidates_in, want.candidates_in);
      EXPECT_EQ(got.candidates_out, want.candidates_out);
      EXPECT_EQ(got.pruned, want.pruned);
      EXPECT_EQ(got.pruned_partial, want.pruned_partial);
      EXPECT_LE(got.comparisons, want.comparisons);
      EXPECT_LE(got.predictive_skipped, got.comparisons);
      EXPECT_LE(got.region_tests, want.region_tests);
      saved += want.comparisons - got.comparisons;
      total += got;
    }
  }
  // The sets must exercise real pruning, and the prefix must save tests.
  EXPECT_GT(total.pruned, 1000u);
  EXPECT_GT(total.pruned_partial, 1000u);
  EXPECT_GT(saved, 10000u);
}

/// The lemma the prefix rests on: pruning an MFS output again, with no
/// exemption, shrinks no valid region and removes nothing.
TEST(MfsPrefix, RepruningAnMfsOutputIsANoOp) {
  Rng rng(20261020);
  MfsStats again;
  for (const MfsOptions& options : PrefixOptions()) {
    for (int trial = 0; trial < 60; ++trial) {
      SCOPED_TRACE(::testing::Message()
                   << "trial " << trial << " cost_eps " << options.CostEps()
                   << " base_case " << options.base_case << " mode "
                   << static_cast<int>(options.mode));
      const SolutionSet once = ComputeMfs(
          RandomScheduleSet(
              rng, options, static_cast<std::size_t>(rng.UniformInt(2, 160))),
          options);
      std::vector<IntervalSet> valid;
      for (const SolutionPtr& s : once) valid.push_back(s->valid);

      MfsStats stats;
      const SolutionSet twice = ComputeMfs(once, options, &stats);
      EXPECT_EQ(stats.pruned, 0u);
      EXPECT_EQ(stats.pruned_partial, 0u);
      ASSERT_EQ(twice.size(), once.size());
      for (std::size_t i = 0; i < once.size(); ++i) {
        EXPECT_EQ(once[i]->valid, valid[i]) << "survivor " << i;
      }
      again += stats;
    }
  }
  // The second pass does run tests, so the zero prune counts mean much.
  EXPECT_GT(again.region_tests, 10000u);
}

/// Counter regression: MFS on fixed 10-pin nets must perform exactly the
/// dominance tests, predictive skips, region tests and prunes of the
/// index-order Fig. 4 schedule, which exempts the pairs inside each
/// call's already-minimal prefix (the last join prune's survivors, and
/// the pruned children set that Solve re-prunes with the repeater
/// solutions).  pruned_partial counts only tests that shrank a valid
/// region.  Identical region tests mean the same pairs reach the PWL
/// test; any change here means the pruning visits pairs in a different
/// order or decides them differently.  pruned, candidates_in and
/// candidates_out are the DP's own, unchanged since the pointer-chasing
/// loop.
TEST(MfsPinnedCounters, TenPinNetsMatchRecordedValues) {
  struct Pinned {
    std::uint64_t seed;
    MfsOptions::Mode mode;
    std::size_t comparisons;
    std::size_t predictive_skipped;
    std::size_t region_tests;
    std::size_t pruned;
    std::size_t pruned_partial;
    std::size_t candidates_in;
    std::size_t candidates_out;
  };
  using enum MfsOptions::Mode;
  // Seed 4 adds a stage-length bound (both stage scalars in play); seed 5
  // uses the approximate slacks.
  const Pinned kPinned[] = {
      {1, kDivideConquer, 195164, 105836, 21108, 5067, 5480, 7830, 2763},
      {1, kQuadratic, 634189, 106448, 44972, 5067, 9739, 7830, 2763},
      {2, kDivideConquer, 823754, 576916, 25814, 2528, 1421, 8813, 6285},
      {2, kQuadratic, 1279471, 581655, 28738, 2528, 1386, 8813, 6285},
      {3, kDivideConquer, 417405, 265399, 28254, 2887, 3402, 6974, 4087},
      {3, kQuadratic, 718156, 259757, 45607, 2887, 7404, 6974, 4087},
      {4, kDivideConquer, 3644, 2241, 421, 56, 11, 603, 547},
      {4, kQuadratic, 3721, 2223, 417, 56, 10, 603, 547},
      {5, kDivideConquer, 651485, 466575, 20499, 2493, 830, 9223, 6730},
      {5, kQuadratic, 1069741, 500644, 27679, 2498, 1004, 9260, 6762},
  };
  const Technology tech = DefaultTechnology();
  for (const Pinned& p : kPinned) {
    SCOPED_TRACE(::testing::Message() << "seed " << p.seed << " mode "
                                      << static_cast<int>(p.mode));
    NetConfig config;
    config.seed = p.seed;
    config.num_terminals = 10;
    const RcTree tree = BuildExperimentNet(config, tech);
    MsriOptions options;
    if (p.seed == 4) options.max_stage_length_um = 2500.0;
    if (p.seed == 5) options.mfs = MfsOptions::Approximate();
    options.mfs.mode = p.mode;
    const MfsStats s = RunMsri(tree, tech, options).Stats().mfs;
    EXPECT_EQ(s.comparisons, p.comparisons);
    EXPECT_EQ(s.predictive_skipped, p.predictive_skipped);
    EXPECT_EQ(s.region_tests, p.region_tests);
    EXPECT_EQ(s.pruned, p.pruned);
    EXPECT_EQ(s.pruned_partial, p.pruned_partial);
    EXPECT_EQ(s.candidates_in, p.candidates_in);
    EXPECT_EQ(s.candidates_out, p.candidates_out);
    EXPECT_LE(s.pruned + s.pruned_partial, s.region_tests);
    EXPECT_LT(s.region_tests, s.comparisons);
  }
}

}  // namespace
}  // namespace msn
