// IntervalSet: a finite union of disjoint half-open real intervals [lo, hi).
//
// Used by the MFS pruner (src/core/mfs.*) to track the region of the
// external-capacitance axis on which a dynamic-programming solution is still
// potentially optimal.  Intervals may extend to +infinity on the right.
//
// The representation is a sorted array of non-overlapping, non-adjacent
// intervals; all operations restore that canonical form.  Validity regions
// almost always hold one or two intervals, and the MFS dominance test builds
// and discards several sets per call, so the first kInline intervals live
// inside the object and only larger sets spill to the heap.
#ifndef MSN_COMMON_INTERVAL_SET_H
#define MSN_COMMON_INTERVAL_SET_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>

namespace msn {

/// Half-open interval [lo, hi); hi may be +infinity.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  bool Empty() const { return !(lo < hi); }
  double Length() const { return Empty() ? 0.0 : hi - lo; }
  bool Contains(double x) const { return lo <= x && x < hi; }

  friend bool operator==(const Interval&, const Interval&) = default;
};

/// A canonical union of disjoint intervals supporting the set algebra the
/// MFS pruner needs: union, intersection, difference, shift and queries.
class IntervalSet {
 public:
  /// Intervals stored without a heap allocation.
  static constexpr std::size_t kInline = 2;

  /// The empty set.
  IntervalSet() = default;

  /// Singleton set {[lo, hi)}; an empty interval yields the empty set.
  IntervalSet(double lo, double hi);

  /// Builds from arbitrary (possibly overlapping, unsorted) intervals.
  explicit IntervalSet(std::span<const Interval> intervals);

  IntervalSet(const IntervalSet& other);
  IntervalSet& operator=(const IntervalSet& other);
  /// Moves leave `other` empty.
  IntervalSet(IntervalSet&& other) noexcept;
  IntervalSet& operator=(IntervalSet&& other) noexcept;

  /// The whole domain used by MFS: [0, +inf).
  static IntervalSet NonNegativeReals();

  bool Empty() const { return size_ == 0; }
  std::size_t Size() const { return size_; }
  std::span<const Interval> Intervals() const { return {Data(), size_}; }

  bool Contains(double x) const;

  /// Total measure; +inf if any interval is unbounded.
  double TotalLength() const;

  /// Smallest point of the set (undefined on empty set — checked).
  double Min() const;

  /// Adds [lo, hi) in place (an empty interval is a no-op).  Adding in
  /// non-decreasing `lo` order costs O(1) per call, which is how sweeps
  /// such as Pwl::RegionLessEqual build their result.
  void Add(double lo, double hi);

  IntervalSet Union(const IntervalSet& other) const;
  IntervalSet Intersect(const IntervalSet& other) const;
  /// Set difference: *this minus `other`.
  IntervalSet Subtract(const IntervalSet& other) const;

  /// Translates every interval by `delta` (negative deltas allowed); the
  /// result is clipped to [clip_lo, +inf).  MFS uses delta = -cap_shift with
  /// clip_lo = 0 when re-expressing a child's validity domain in the
  /// parent's external-capacitance coordinate.
  IntervalSet Shift(double delta, double clip_lo = 0.0) const;

  friend bool operator==(const IntervalSet& a, const IntervalSet& b);

 private:
  Interval* Data() { return heap_ ? heap_.get() : inline_; }
  const Interval* Data() const { return heap_ ? heap_.get() : inline_; }
  /// Grows capacity to at least `n`, keeping the contents.
  void Reserve(std::size_t n);
  /// Appends without restoring canonical form.
  void PushBack(Interval i);
  void Canonicalize();

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInline;
  Interval inline_[kInline];
  std::unique_ptr<Interval[]> heap_;  ///< Set once size exceeds kInline.
};

std::ostream& operator<<(std::ostream& os, const IntervalSet& s);

}  // namespace msn

#endif  // MSN_COMMON_INTERVAL_SET_H
