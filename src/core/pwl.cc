#include "core/pwl.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <vector>

#include "common/check.h"
#include "obs/stats.h"

namespace msn {
namespace {

/// Relative tolerance for merging segments whose parameters (or widths)
/// differ only by accumulated rounding noise.  Deliberately far tighter
/// than kEps (1e-9, the dominance slack): merging is a representation
/// choice, not an approximation, so it must stay well below anything the
/// DP's comparisons can see.  Doubles carry ~2.2e-16 of relative error
/// per operation; 1e-12 absorbs thousands of accumulated ulps while
/// staying three orders of magnitude below the decision epsilons.
constexpr double kMergeEps = 1e-12;

bool MergeEq(double a, double b) {
  return std::fabs(a - b) <=
         kMergeEps * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Appends a segment, merging noise: parameters equal to the previous
/// segment's within kMergeEps extend it, and a breakpoint epsilon-close
/// to the previous one collapses the near-zero-width sliver the previous
/// segment would have been (the new parameters win, the earlier x_lo is
/// kept — so the leading x_lo == 0 invariant is preserved).  Slivers
/// arise when two inputs carry breakpoints that drifted apart by
/// rounding; merging them exactly (the old std::unique behaviour) let
/// segment counts inflate through the whole DP.
void AppendTo(PwlStore& out, double x_lo, double intercept, double slope) {
  if (!out.Empty()) {
    const std::size_t last = out.Size() - 1;
    if (MergeEq(out.Intercept()[last], intercept) &&
        MergeEq(out.Slope()[last], slope)) {
      return;  // Extends the previous segment; nothing to add.
    }
    if (MergeEq(out.XLo()[last], x_lo)) {
      out.ReplaceBackParams(intercept, slope);
      return;
    }
  }
  out.Append(x_lo, intercept, slope);
}

}  // namespace

Pwl Pwl::Constant(double v) { return Line(v, 0.0); }

Pwl Pwl::Line(double intercept, double slope) {
  Pwl f;
  f.store_.Append(0.0, intercept, slope);
  return f;
}

std::size_t Pwl::SegmentIndexAt(double x) const {
  MSN_DCHECK(!store_.Empty());
  // Last segment whose x_lo <= x; only the x column is touched.
  const double* first = store_.XLo();
  const double* last = first + store_.Size();
  const double* it = std::upper_bound(first, last, x);
  MSN_DCHECK(it != first);
  return static_cast<std::size_t>(it - first) - 1;
}

double Pwl::Eval(double x) const {
  MSN_CHECK_MSG(x >= 0.0, "Pwl evaluated at negative x = " << x);
  if (store_.Empty()) return -kInf;
  const std::size_t i = SegmentIndexAt(x);
  return store_.Intercept()[i] + store_.Slope()[i] * x;
}

Pwl& Pwl::AddScalar(double s) {
  double* b = store_.MutableIntercept();
  const std::size_t n = store_.Size();
  for (std::size_t i = 0; i < n; ++i) b[i] += s;
  obs::RecordPwl(obs::PwlPrimitive::kAddScalar, n);
  return *this;
}

Pwl& Pwl::AddSlope(double m) {
  double* s = store_.MutableSlope();
  const std::size_t n = store_.Size();
  for (std::size_t i = 0; i < n; ++i) s[i] += m;
  obs::RecordPwl(obs::PwlPrimitive::kAddSlope, n);
  return *this;
}

Pwl Pwl::Shifted(double delta) const {
  MSN_CHECK_MSG(delta >= 0.0, "Pwl shift by negative delta = " << delta);
  if (store_.Empty() || delta == 0.0) {
    obs::RecordPwl(obs::PwlPrimitive::kShift, store_.Size());
    return *this;
  }
  const std::size_t n = store_.Size();
  const double* x = store_.XLo();
  const double* b = store_.Intercept();
  const double* m = store_.Slope();
  Pwl out;
  out.store_.Reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x_hi = i + 1 < n ? x[i + 1] : kInf;
    if (x_hi <= delta) continue;  // Entirely left of the new origin.
    // g(x) = f(x + delta) = (intercept + slope*delta) + slope*x.
    AppendTo(out.store_, std::max(0.0, x[i] - delta), b[i] + m[i] * delta,
             m[i]);
  }
  MSN_DCHECK(!out.store_.Empty() && out.store_.XLo()[0] == 0.0);
  obs::RecordPwl(obs::PwlPrimitive::kShift, out.store_.Size());
  return out;
}

Pwl Pwl::Max(const Pwl& f, const Pwl& g) {
  if (f.IsNegInf()) {
    obs::RecordPwl(obs::PwlPrimitive::kMax, g.NumSegments());
    return g;
  }
  if (g.IsNegInf()) {
    obs::RecordPwl(obs::PwlPrimitive::kMax, f.NumSegments());
    return f;
  }

  const std::size_t nf = f.store_.Size();
  const std::size_t ng = g.store_.Size();
  const double* fx = f.store_.XLo();
  const double* fb = f.store_.Intercept();
  const double* fm = f.store_.Slope();
  const double* gx = g.store_.XLo();
  const double* gb = g.store_.Intercept();
  const double* gm = g.store_.Slope();

  Pwl out;
  out.store_.Reserve(nf + ng + 2);

  // Two-pointer sweep over the union of breakpoints: [a, b) is always an
  // interval on which both inputs are single lines (i and j index the
  // covering segments).  Both functions start at x_lo == 0.
  std::size_t i = 0;
  std::size_t j = 0;
  double a = 0.0;
  for (;;) {
    const double next_f = i + 1 < nf ? fx[i + 1] : kInf;
    const double next_g = j + 1 < ng ? gx[j + 1] : kInf;
    const double b = std::min(next_f, next_g);

    const double di = fb[i] - gb[j];
    const double ds = fm[i] - gm[j];
    // d(x) = di + ds*x is f - g on [a, b).
    double xc = kInf;
    if (ds != 0.0) xc = -di / ds;

    const auto append_winner_at = [&](double x0, double x1, double from) {
      // Decide by the value at the midpoint (or at x0 + 1 when unbounded).
      const double mid = std::isinf(x1) ? x0 + 1.0 : (x0 + x1) / 2.0;
      if (di + ds * mid >= 0.0) {
        AppendTo(out.store_, from, fb[i], fm[i]);
      } else {
        AppendTo(out.store_, from, gb[j], gm[j]);
      }
    };

    if (xc > a && xc < b) {
      append_winner_at(a, xc, a);
      append_winner_at(xc, b, xc);
    } else {
      append_winner_at(a, b, a);
    }

    if (std::isinf(b)) break;
    a = b;
    if (next_f == b) ++i;
    if (next_g == b) ++j;
  }
  obs::RecordPwl(obs::PwlPrimitive::kMax, out.store_.Size());
  return out;
}

IntervalSet Pwl::RegionLessEqual(const Pwl& g, double eps) const {
  if (IsNegInf()) return IntervalSet::NonNegativeReals();
  if (g.IsNegInf()) return IntervalSet();

  const std::size_t nf = store_.Size();
  const std::size_t ng = g.store_.Size();
  const double* fx = store_.XLo();
  const double* fb = store_.Intercept();
  const double* fm = store_.Slope();
  const double* gx = g.store_.XLo();
  const double* gb = g.store_.Intercept();
  const double* gm = g.store_.Slope();

  IntervalSet where;
  // Same two-pointer sweep as Max; the region endpoints must stay exactly
  // the crossover coordinates dominance pruning computed before the SoA
  // rework, so no merge epsilon is applied here.  Each piece lies inside
  // its own sweep window, so pieces arrive in increasing order and Add
  // appends (or merges with the previous piece) without re-sorting.
  std::size_t i = 0;
  std::size_t j = 0;
  double a = 0.0;
  for (;;) {
    const double next_f = i + 1 < nf ? fx[i + 1] : kInf;
    const double next_g = j + 1 < ng ? gx[j + 1] : kInf;
    const double b = std::min(next_f, next_g);

    // Condition: (f - g - eps)(x) = di + ds*x <= 0 on [a, b).
    const double di = fb[i] - gb[j] - eps;
    const double ds = fm[i] - gm[j];
    if (ds == 0.0) {
      if (di <= 0.0) where.Add(a, b);
    } else {
      const double xc = -di / ds;
      if (ds > 0.0) {
        // Satisfied for x <= xc.
        const double hi = std::min(b, xc);
        where.Add(a, hi);
      } else {
        // Satisfied for x >= xc.
        const double lo = std::max(a, xc);
        where.Add(lo, b);
      }
    }

    if (std::isinf(b)) break;
    a = b;
    if (next_f == b) ++i;
    if (next_g == b) ++j;
  }
  return where;
}

void Pwl::Simplify(double eps) {
  if (store_.Size() < 2) return;
  const std::size_t n = store_.Size();
  const double* x = store_.XLo();
  const double* b = store_.Intercept();
  const double* m = store_.Slope();
  PwlStore out;
  out.Reserve(n);
  out.Append(x[0], b[0], m[0]);
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t last = out.Size() - 1;
    if (ApproxEq(out.Intercept()[last], b[i], eps) &&
        ApproxEq(out.Slope()[last], m[i], eps)) {
      continue;
    }
    out.Append(x[i], b[i], m[i]);
  }
  store_ = std::move(out);
}

bool Pwl::IsConvexNonDecreasing(double eps) const {
  const std::size_t n = store_.Size();
  const double* x = store_.XLo();
  const double* b = store_.Intercept();
  const double* m = store_.Slope();
  for (std::size_t i = 0; i < n; ++i) {
    if (m[i] < -eps) return false;
    if (i == 0) continue;
    // Convexity: slopes non-decreasing.
    if (m[i] < m[i - 1] - eps) return false;
    // Continuity at the breakpoint.
    if (!ApproxEq(b[i] + m[i] * x[i], b[i - 1] + m[i - 1] * x[i],
                  std::max(eps, eps * std::fabs(x[i])))) {
      return false;
    }
  }
  return true;
}

bool Pwl::ApproxEqual(const Pwl& f, const Pwl& g, double eps) {
  if (f.IsNegInf() || g.IsNegInf()) return f.IsNegInf() == g.IsNegInf();
  std::vector<double> xs;
  xs.reserve(f.NumSegments() + g.NumSegments());
  xs.insert(xs.end(), f.store_.XLo(), f.store_.XLo() + f.store_.Size());
  xs.insert(xs.end(), g.store_.XLo(), g.store_.XLo() + g.store_.Size());
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  for (std::size_t k = 0; k < xs.size(); ++k) {
    const double a = xs[k];
    const double b = k + 1 < xs.size() ? xs[k + 1] : a + 2.0;
    const double mid = (a + b) / 2.0;
    if (!ApproxEq(f.Eval(a), g.Eval(a), eps)) return false;
    if (!ApproxEq(f.Eval(mid), g.Eval(mid), eps)) return false;
  }
  // Tail behaviour: slopes of the last segments must agree.
  return ApproxEq(f.store_.Slope()[f.store_.Size() - 1],
                  g.store_.Slope()[g.store_.Size() - 1], eps);
}

std::ostream& operator<<(std::ostream& os, const Pwl& f) {
  if (f.IsNegInf()) return os << "{-inf}";
  os << '{';
  const Pwl::SegmentView segs = f.Segments();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (i) os << ", ";
    const PwlSegment s = segs[i];
    os << "x>=" << s.x_lo << ": " << s.intercept << '+' << s.slope << "x";
  }
  return os << '}';
}

}  // namespace msn
