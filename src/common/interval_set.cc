#include "common/interval_set.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <ostream>
#include <utility>

#include "common/check.h"
#include "common/numeric.h"

namespace msn {

IntervalSet::IntervalSet(double lo, double hi) {
  if (lo < hi) PushBack({lo, hi});
}

IntervalSet::IntervalSet(std::span<const Interval> intervals) {
  Reserve(intervals.size());
  std::copy(intervals.begin(), intervals.end(), Data());
  size_ = static_cast<std::uint32_t>(intervals.size());
  Canonicalize();
}

IntervalSet::IntervalSet(const IntervalSet& other) {
  Reserve(other.size_);
  std::copy_n(other.Data(), other.size_, Data());
  size_ = other.size_;
}

IntervalSet::IntervalSet(IntervalSet&& other) noexcept {
  *this = std::move(other);
}

IntervalSet& IntervalSet::operator=(const IntervalSet& other) {
  if (this != &other) {
    size_ = 0;
    Reserve(other.size_);
    std::copy_n(other.Data(), other.size_, Data());
    size_ = other.size_;
  }
  return *this;
}

IntervalSet& IntervalSet::operator=(IntervalSet&& other) noexcept {
  if (this != &other) {
    if (other.heap_) {
      heap_ = std::move(other.heap_);
      capacity_ = other.capacity_;
    } else {
      heap_.reset();
      capacity_ = kInline;
      std::copy_n(other.inline_, other.size_, inline_);
    }
    size_ = other.size_;
    other.size_ = 0;
    other.capacity_ = kInline;
  }
  return *this;
}

IntervalSet IntervalSet::NonNegativeReals() { return IntervalSet(0.0, kInf); }

void IntervalSet::Reserve(std::size_t n) {
  if (n <= capacity_) return;
  const std::size_t capacity = std::max<std::size_t>(n, 2 * capacity_);
  auto grown = std::make_unique<Interval[]>(capacity);
  std::copy_n(Data(), size_, grown.get());
  heap_ = std::move(grown);
  capacity_ = static_cast<std::uint32_t>(capacity);
}

void IntervalSet::PushBack(Interval i) {
  Reserve(std::size_t{size_} + 1);
  Data()[size_++] = i;
}

void IntervalSet::Canonicalize() {
  Interval* const first = Data();
  Interval* const last = std::remove_if(
      first, first + size_, [](const Interval& i) { return i.Empty(); });
  std::sort(first, last,
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  // Merge in place: the write cursor never passes the read cursor.
  std::uint32_t kept = 0;
  for (const Interval* i = first; i != last; ++i) {
    if (kept > 0 && i->lo <= first[kept - 1].hi) {
      first[kept - 1].hi = std::max(first[kept - 1].hi, i->hi);
    } else {
      first[kept++] = *i;
    }
  }
  size_ = kept;
}

bool IntervalSet::Contains(double x) const {
  // Binary search for the first interval with lo > x, then check its
  // predecessor.
  const Interval* const first = Data();
  const Interval* it = std::upper_bound(
      first, first + size_, x,
      [](double v, const Interval& i) { return v < i.lo; });
  if (it == first) return false;
  return std::prev(it)->Contains(x);
}

double IntervalSet::TotalLength() const {
  double total = 0.0;
  for (const Interval& i : Intervals()) total += i.Length();
  return total;
}

double IntervalSet::Min() const {
  MSN_CHECK_MSG(!Empty(), "Min() of empty IntervalSet");
  return Data()[0].lo;
}

void IntervalSet::Add(double lo, double hi) {
  if (!(lo < hi)) return;
  if (size_ > 0) {
    Interval& back = Data()[size_ - 1];
    if (lo < back.lo) {
      PushBack({lo, hi});
      Canonicalize();
      return;
    }
    if (lo <= back.hi) {
      back.hi = std::max(back.hi, hi);
      return;
    }
  }
  PushBack({lo, hi});
}

IntervalSet IntervalSet::Union(const IntervalSet& other) const {
  IntervalSet result = *this;
  result.Reserve(std::size_t{size_} + other.size_);
  for (const Interval& i : other.Intervals()) result.PushBack(i);
  result.Canonicalize();
  return result;
}

IntervalSet IntervalSet::Intersect(const IntervalSet& other) const {
  // The output is already disjoint and sorted.
  IntervalSet result;
  const Interval* a = Data();
  const Interval* const a_end = a + size_;
  const Interval* b = other.Data();
  const Interval* const b_end = b + other.size_;
  while (a != a_end && b != b_end) {
    const double lo = std::max(a->lo, b->lo);
    const double hi = std::min(a->hi, b->hi);
    if (lo < hi) result.PushBack({lo, hi});
    // Advance whichever interval ends first.
    if (a->hi < b->hi) {
      ++a;
    } else {
      ++b;
    }
  }
  return result;
}

IntervalSet IntervalSet::Subtract(const IntervalSet& other) const {
  IntervalSet result;
  const Interval* b = other.Data();
  const Interval* const b_end = b + other.size_;
  for (Interval rem : Intervals()) {
    while (!rem.Empty()) {
      // Skip subtrahend intervals entirely to the left of `rem`.
      while (b != b_end && b->hi <= rem.lo) ++b;
      if (b == b_end || b->lo >= rem.hi) {
        result.PushBack(rem);
        break;
      }
      if (b->lo > rem.lo) result.PushBack({rem.lo, b->lo});
      rem.lo = b->hi;  // Continue with the part right of the subtrahend.
    }
  }
  return result;
}

IntervalSet IntervalSet::Shift(double delta, double clip_lo) const {
  IntervalSet result;
  result.Reserve(size_);
  for (const Interval& i : Intervals()) {
    const double lo = std::max(i.lo + delta, clip_lo);
    const double hi = std::isinf(i.hi) ? i.hi : i.hi + delta;
    if (lo < hi) result.PushBack({lo, hi});
  }
  return result;
}

bool operator==(const IntervalSet& a, const IntervalSet& b) {
  const std::span<const Interval> x = a.Intervals();
  const std::span<const Interval> y = b.Intervals();
  return std::equal(x.begin(), x.end(), y.begin(), y.end());
}

std::ostream& operator<<(std::ostream& os, const IntervalSet& s) {
  os << '{';
  bool first = true;
  for (const Interval& i : s.Intervals()) {
    if (!first) os << ", ";
    first = false;
    os << '[' << i.lo << ", " << i.hi << ')';
  }
  return os << '}';
}

}  // namespace msn
