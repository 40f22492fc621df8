#include "common/interval_set.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/check.h"
#include "common/numeric.h"

namespace msn {
namespace {

TEST(Interval, EmptyAndLength) {
  EXPECT_TRUE((Interval{2.0, 2.0}).Empty());
  EXPECT_TRUE((Interval{3.0, 1.0}).Empty());
  EXPECT_FALSE((Interval{1.0, 3.0}).Empty());
  EXPECT_DOUBLE_EQ((Interval{1.0, 3.0}).Length(), 2.0);
  EXPECT_DOUBLE_EQ((Interval{3.0, 1.0}).Length(), 0.0);
}

TEST(Interval, ContainsHalfOpen) {
  const Interval i{1.0, 2.0};
  EXPECT_TRUE(i.Contains(1.0));
  EXPECT_TRUE(i.Contains(1.5));
  EXPECT_FALSE(i.Contains(2.0));
  EXPECT_FALSE(i.Contains(0.99));
}

TEST(IntervalSet, DefaultIsEmpty) {
  IntervalSet s;
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Size(), 0u);
  EXPECT_FALSE(s.Contains(0.0));
  EXPECT_DOUBLE_EQ(s.TotalLength(), 0.0);
}

TEST(IntervalSet, SingletonConstructor) {
  IntervalSet s(1.0, 4.0);
  EXPECT_EQ(s.Size(), 1u);
  EXPECT_TRUE(s.Contains(1.0));
  EXPECT_TRUE(s.Contains(3.999));
  EXPECT_FALSE(s.Contains(4.0));
  EXPECT_DOUBLE_EQ(s.TotalLength(), 3.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
}

TEST(IntervalSet, EmptyIntervalYieldsEmptySet) {
  EXPECT_TRUE(IntervalSet(2.0, 2.0).Empty());
  EXPECT_TRUE(IntervalSet(5.0, 2.0).Empty());
}

TEST(IntervalSet, CanonicalizationMergesOverlaps) {
  IntervalSet s(std::vector<Interval>{
      Interval{0.0, 2.0}, Interval{1.0, 3.0}, Interval{5.0, 6.0}});
  EXPECT_EQ(s.Size(), 2u);
  EXPECT_EQ(s, IntervalSet(std::vector<Interval>{Interval{0.0, 3.0}, Interval{5.0, 6.0}}));
}

TEST(IntervalSet, CanonicalizationMergesAdjacent) {
  IntervalSet s(std::vector<Interval>{Interval{0.0, 1.0}, Interval{1.0, 2.0}});
  EXPECT_EQ(s.Size(), 1u);
  EXPECT_TRUE(s.Contains(1.0));
}

TEST(IntervalSet, NonNegativeRealsIsUnbounded) {
  const IntervalSet s = IntervalSet::NonNegativeReals();
  EXPECT_TRUE(s.Contains(0.0));
  EXPECT_TRUE(s.Contains(1e18));
  EXPECT_FALSE(s.Contains(-0.001));
  EXPECT_TRUE(std::isinf(s.TotalLength()));
}

TEST(IntervalSet, UnionDisjointAndOverlapping) {
  const IntervalSet a(0.0, 2.0);
  const IntervalSet b(5.0, 7.0);
  EXPECT_EQ(a.Union(b).Size(), 2u);
  const IntervalSet c(1.0, 6.0);
  EXPECT_EQ(a.Union(b).Union(c), IntervalSet(0.0, 7.0));
}

TEST(IntervalSet, IntersectBasic) {
  const IntervalSet a(
      std::vector<Interval>{Interval{0.0, 4.0}, Interval{6.0, 9.0}});
  const IntervalSet b(std::vector<Interval>{Interval{2.0, 7.0}});
  EXPECT_EQ(a.Intersect(b),
            IntervalSet(std::vector<Interval>{Interval{2.0, 4.0}, Interval{6.0, 7.0}}));
  EXPECT_EQ(b.Intersect(a), a.Intersect(b));
}

TEST(IntervalSet, IntersectWithEmpty) {
  EXPECT_TRUE(IntervalSet(0.0, 5.0).Intersect(IntervalSet()).Empty());
  EXPECT_TRUE(IntervalSet().Intersect(IntervalSet(0.0, 5.0)).Empty());
}

TEST(IntervalSet, IntersectUnbounded) {
  const IntervalSet all = IntervalSet::NonNegativeReals();
  const IntervalSet a(3.0, 8.0);
  EXPECT_EQ(all.Intersect(a), a);
}

TEST(IntervalSet, SubtractMiddle) {
  const IntervalSet a(0.0, 10.0);
  const IntervalSet hole(3.0, 4.0);
  const IntervalSet d = a.Subtract(hole);
  EXPECT_EQ(d, IntervalSet(std::vector<Interval>{Interval{0.0, 3.0}, Interval{4.0, 10.0}}));
}

TEST(IntervalSet, SubtractEverything) {
  EXPECT_TRUE(IntervalSet(1.0, 2.0)
                  .Subtract(IntervalSet::NonNegativeReals())
                  .Empty());
}

TEST(IntervalSet, SubtractNothing) {
  const IntervalSet a(1.0, 2.0);
  EXPECT_EQ(a.Subtract(IntervalSet()), a);
  EXPECT_EQ(a.Subtract(IntervalSet(5.0, 9.0)), a);
}

TEST(IntervalSet, SubtractMultipleHoles) {
  const IntervalSet a(0.0, 10.0);
  const IntervalSet holes(std::vector<Interval>{
      Interval{1.0, 2.0}, Interval{4.0, 5.0}, Interval{9.0, 20.0}});
  const IntervalSet d = a.Subtract(holes);
  EXPECT_EQ(d, IntervalSet(std::vector<Interval>{Interval{0.0, 1.0}, Interval{2.0, 4.0},
                             Interval{5.0, 9.0}}));
}

TEST(IntervalSet, SubtractFromUnbounded) {
  const IntervalSet all = IntervalSet::NonNegativeReals();
  const IntervalSet d = all.Subtract(IntervalSet(2.0, 3.0));
  EXPECT_TRUE(d.Contains(0.0));
  EXPECT_FALSE(d.Contains(2.5));
  EXPECT_TRUE(d.Contains(3.0));
  EXPECT_TRUE(d.Contains(1e12));
}

TEST(IntervalSet, ShiftPositive) {
  const IntervalSet a(1.0, 3.0);
  EXPECT_EQ(a.Shift(2.0), IntervalSet(3.0, 5.0));
}

TEST(IntervalSet, ShiftNegativeClipsAtZero) {
  const IntervalSet a(1.0, 3.0);
  EXPECT_EQ(a.Shift(-2.0), IntervalSet(0.0, 1.0));
  EXPECT_TRUE(a.Shift(-3.0).Empty());
}

TEST(IntervalSet, ShiftUnboundedStaysUnbounded) {
  const IntervalSet all = IntervalSet::NonNegativeReals();
  const IntervalSet s = all.Shift(-5.0);
  EXPECT_TRUE(s.Contains(0.0));
  EXPECT_TRUE(s.Contains(1e15));
}

TEST(IntervalSet, MinOfEmptyThrows) {
  EXPECT_THROW(IntervalSet().Min(), CheckError);
}

TEST(IntervalSet, ContainsBinarySearchManyIntervals) {
  std::vector<Interval> iv;
  for (int i = 0; i < 100; ++i) {
    iv.push_back({static_cast<double>(2 * i),
                  static_cast<double>(2 * i + 1)});
  }
  const IntervalSet s(std::move(iv));
  EXPECT_EQ(s.Size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(s.Contains(2.0 * i + 0.5));
    EXPECT_FALSE(s.Contains(2.0 * i + 1.5));
  }
}

// --- Inline storage: the first IntervalSet::kInline intervals live in the
// object, larger sets spill to the heap.  Value semantics must not depend
// on which side of that boundary either operand sits.

/// {[0, 1), [2, 3), ..., [2n-2, 2n-1)}.
IntervalSet Comb(int n) {
  std::vector<Interval> iv;
  for (int i = 0; i < n; ++i) {
    iv.push_back({2.0 * i, 2.0 * i + 1.0});
  }
  return IntervalSet(iv);
}

std::vector<Interval> Contents(const IntervalSet& s) {
  return {s.Intervals().begin(), s.Intervals().end()};
}

TEST(IntervalSetStorage, CombSizesStraddleTheInlineCapacity) {
  ASSERT_EQ(IntervalSet::kInline, 2u);
  for (int n = 0; n <= 5; ++n) {
    const IntervalSet s = Comb(n);
    ASSERT_EQ(s.Size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(s.Intervals()[static_cast<std::size_t>(i)],
                (Interval{2.0 * i, 2.0 * i + 1.0}));
    }
  }
}

TEST(IntervalSetStorage, CopyAcrossInlineHeapBoundary) {
  for (int from = 0; from <= 4; ++from) {
    for (int to = 0; to <= 4; ++to) {
      const IntervalSet source = Comb(from);
      const IntervalSet copy(source);
      EXPECT_EQ(copy, source);
      IntervalSet target = Comb(to);
      target = source;
      EXPECT_EQ(target, source) << from << " <- " << to;
      EXPECT_EQ(Contents(target), Contents(Comb(from)));
      // The source is untouched and independent of its copies.
      target.Add(100.0, 101.0);
      EXPECT_EQ(source, Comb(from));
    }
  }
}

TEST(IntervalSetStorage, MoveAcrossInlineHeapBoundary) {
  for (int from = 0; from <= 4; ++from) {
    for (int to = 0; to <= 4; ++to) {
      IntervalSet source = Comb(from);
      IntervalSet moved(std::move(source));
      EXPECT_EQ(moved, Comb(from));
      EXPECT_TRUE(source.Empty());

      IntervalSet target = Comb(to);
      target = std::move(moved);
      EXPECT_EQ(target, Comb(from)) << from << " <- " << to;
      EXPECT_TRUE(moved.Empty());

      // Moved-from sets are reusable.
      moved.Add(7.0, 8.0);
      EXPECT_EQ(moved, IntervalSet(7.0, 8.0));
      moved = Comb(3);
      EXPECT_EQ(moved, Comb(3));
    }
  }
}

TEST(IntervalSetStorage, SelfAssignmentKeepsContents) {
  for (int n = 0; n <= 4; ++n) {
    IntervalSet s = Comb(n);
    IntervalSet& alias = s;
    s = alias;
    EXPECT_EQ(s, Comb(n));
    s = std::move(alias);
    EXPECT_EQ(s, Comb(n));
  }
}

TEST(IntervalSetStorage, InlineEqualsSpilledWithSameContent) {
  // Three overlapping inputs spill to the heap, then merge to one interval.
  const IntervalSet spilled(std::vector<Interval>{
      Interval{0.0, 2.0}, Interval{1.0, 3.0}, Interval{2.5, 4.0}});
  const IntervalSet inline_set(0.0, 4.0);
  EXPECT_EQ(spilled, inline_set);
  EXPECT_EQ(inline_set, spilled);
  EXPECT_EQ(Contents(spilled), (std::vector<Interval>{{0.0, 4.0}}));
  // A union that collapses a spilled comb also compares equal.
  const IntervalSet collapsed = Comb(4).Union(IntervalSet(0.0, 7.0));
  EXPECT_EQ(collapsed, IntervalSet(0.0, 7.0));
  EXPECT_NE(collapsed, IntervalSet(0.0, 6.0));
  // Copies of a collapsed spilled set stay equal in both directions.
  IntervalSet copy = Comb(1);
  copy = collapsed;
  EXPECT_EQ(copy, collapsed);
}

TEST(IntervalSetStorage, UnionBeyondInlineCapacity) {
  const IntervalSet odd = Comb(2);                       // [0,1) [2,3)
  const IntervalSet even = Comb(2).Shift(10.0);          // [10,11) [12,13)
  const IntervalSet u = odd.Union(even).Union(IntervalSet(5.0, 6.0));
  EXPECT_EQ(Contents(u), (std::vector<Interval>{
                             {0.0, 1.0}, {2.0, 3.0}, {5.0, 6.0},
                             {10.0, 11.0}, {12.0, 13.0}}));
  EXPECT_EQ(u.Union(u), u);
  EXPECT_EQ(IntervalSet().Union(u), u);
}

TEST(IntervalSetStorage, SubtractBeyondInlineCapacity) {
  // Punching four holes into one interval leaves five pieces.
  const IntervalSet holes = Comb(5).Shift(1.0).Subtract(IntervalSet(9.0, 11.0));
  ASSERT_EQ(Contents(holes), (std::vector<Interval>{
                                 {1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0},
                                 {7.0, 8.0}}));
  const IntervalSet d = IntervalSet(0.0, 10.0).Subtract(holes);
  EXPECT_EQ(Contents(d), (std::vector<Interval>{
                             {0.0, 1.0}, {2.0, 3.0}, {4.0, 5.0},
                             {6.0, 7.0}, {8.0, 10.0}}));
  EXPECT_TRUE(d.Subtract(d).Empty());
  EXPECT_EQ(d.Subtract(IntervalSet()), d);
}

TEST(IntervalSetStorage, ShiftBeyondInlineCapacity) {
  const IntervalSet s = Comb(4).Shift(-1.5);
  // [0,1) clips away entirely, [2,3) becomes [0.5, 1.5), and so on.
  EXPECT_EQ(Contents(s), (std::vector<Interval>{
                             {0.5, 1.5}, {2.5, 3.5}, {4.5, 5.5}}));
  EXPECT_EQ(Contents(Comb(4).Shift(3.0)),
            (std::vector<Interval>{
                {3.0, 4.0}, {5.0, 6.0}, {7.0, 8.0}, {9.0, 10.0}}));
}

TEST(IntervalSetStorage, IntersectBeyondInlineCapacity) {
  const IntervalSet i = Comb(4).Intersect(IntervalSet(0.5, 6.5));
  EXPECT_EQ(Contents(i), (std::vector<Interval>{
                             {0.5, 1.0}, {2.0, 3.0}, {4.0, 5.0},
                             {6.0, 6.5}}));
}

TEST(IntervalSetStorage, AddInOrderMergesAndAppends) {
  IntervalSet s;
  s.Add(0.0, 1.0);
  s.Add(1.0, 2.0);   // adjacent: merges
  s.Add(1.5, 1.75);  // contained: no-op
  s.Add(3.0, 3.0);   // empty: no-op
  s.Add(4.0, 5.0);
  s.Add(6.0, kInf);
  EXPECT_EQ(Contents(s), (std::vector<Interval>{
                             {0.0, 2.0}, {4.0, 5.0}, {6.0, kInf}}));
}

TEST(IntervalSetStorage, AddOutOfOrderMatchesBulkConstruction) {
  const std::vector<Interval> iv = {
      {8.0, 9.0}, {0.0, 1.0}, {4.0, 6.0}, {0.5, 2.0}, {5.0, 7.0}};
  IntervalSet added;
  for (const Interval& i : iv) added.Add(i.lo, i.hi);
  EXPECT_EQ(added, IntervalSet(iv));
  EXPECT_EQ(Contents(added), (std::vector<Interval>{
                                 {0.0, 2.0}, {4.0, 7.0}, {8.0, 9.0}}));
}

}  // namespace
}  // namespace msn
