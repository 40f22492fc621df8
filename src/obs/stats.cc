#include "obs/stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace msn::obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream hex;
          hex << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(static_cast<unsigned char>(c));
          out += hex.str();
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  // printf("%.15g") text, as `ostream << setprecision(15)` writes it,
  // without constructing a stream per number.
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 15);
  return std::string(buf, r.ptr);
}

std::string JsonBucketBound(double v) {
  // 2^63 is the largest bucket bound and is exactly representable both as
  // a double and as a uint64_t, so the integral fast path covers every
  // power-of-two bound the histograms emit.
  if (std::isfinite(v) && v >= 0.0 && v <= 9223372036854775808.0 &&
      v == std::floor(v)) {
    std::ostringstream os;
    os << static_cast<std::uint64_t>(v);
    return os.str();
  }
  return JsonNumber(v);
}

namespace {

void JsonHistogram(std::ostream& os, const Histogram& h) {
  os << "{\"count\":" << h.Count() << ",\"sum\":" << JsonNumber(h.Sum())
     << ",\"min\":" << JsonNumber(h.Min()) << ",\"max\":"
     << JsonNumber(h.Max()) << ",\"mean\":" << JsonNumber(h.Mean())
     << ",\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    if (h.BucketCount(i) == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '[' << JsonBucketBound(h.BucketBound(i)) << ',' << h.BucketCount(i)
       << ']';
  }
  os << "]}";
}

/// Writes `{"k":render(v),...}` for a name-sorted map.
template <typename Map, typename Fn>
void JsonObject(std::ostream& os, const Map& map, Fn&& render) {
  os << '{';
  bool first = true;
  for (const auto& [name, entry] : map) {
    if (!first) os << ',';
    first = false;
    os << '"' << JsonEscape(name) << "\":";
    render(entry);
  }
  os << '}';
}

}  // namespace

void Histogram::Record(double v) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  std::size_t bucket = 0;
  // Bucket 0 holds v <= 1; bucket i holds (2^(i-1), 2^i].
  while (bucket + 1 < kNumBuckets &&
         v > static_cast<double>(std::uint64_t{1} << bucket)) {
    ++bucket;
  }
  ++buckets_[bucket];
}

void Histogram::MergeFrom(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

double Histogram::BucketBound(std::size_t i) const {
  return static_cast<double>(std::uint64_t{1} << std::min<std::size_t>(
             i, 63));
}

void RunStats::MergeFrom(const RunStats& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].MergeFrom(c);
  }
  for (const auto& [name, t] : other.timers_) timers_[name].MergeFrom(t);
  for (const auto& [name, h] : other.histograms_) {
    histograms_[name].MergeFrom(h);
  }
}

void RunStats::RenderText(std::ostream& os) const {
  for (const auto& [key, value] : labels_) {
    os << "label   " << key << " = " << value << '\n';
  }
  for (const auto& [name, t] : timers_) {
    os << "timer   " << name << ": " << t.Calls() << " calls, "
       << JsonNumber(t.TotalMs()) << " ms total, " << JsonNumber(t.MeanUs())
       << " us/call\n";
  }
  for (const auto& [name, c] : counters_) {
    os << "counter " << name << " = " << c.Value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << "hist    " << name << ": count " << h.Count() << ", min "
       << JsonNumber(h.Min()) << ", mean " << JsonNumber(h.Mean())
       << ", max " << JsonNumber(h.Max()) << ", sum " << JsonNumber(h.Sum())
       << '\n';
  }
  for (const auto& [key, v] : values_) {
    os << "value   " << key << " = " << JsonNumber(v) << '\n';
  }
}

void RunStats::RenderJson(std::ostream& os) const {
  os << "{\"schema\":\"" << kSchema << "\",";
  os << "\"labels\":";
  JsonObject(os, labels_, [&os](const std::string& v) {
    os << '"' << JsonEscape(v) << '"';
  });
  os << ",\"values\":";
  JsonObject(os, values_, [&os](double v) { os << JsonNumber(v); });
  os << ",\"counters\":";
  JsonObject(os, counters_, [&os](const Counter& c) { os << c.Value(); });
  os << ",\"timers\":";
  JsonObject(os, timers_, [&os](const Timer& t) {
    os << "{\"calls\":" << t.Calls() << ",\"total_ms\":"
       << JsonNumber(t.TotalMs()) << ",\"mean_us\":" << JsonNumber(t.MeanUs())
       << '}';
  });
  os << ",\"histograms\":";
  JsonObject(os, histograms_, [&os](const Histogram& h) {
    JsonHistogram(os, h);
  });
  os << '}';
}

std::string RunStats::JsonString() const {
  std::ostringstream os;
  RenderJson(os);
  return os.str();
}

const char* PwlPrimitiveName(PwlPrimitive p) {
  switch (p) {
    case PwlPrimitive::kMax: return "max";
    case PwlPrimitive::kAddScalar: return "add_scalar";
    case PwlPrimitive::kAddSlope: return "add_slope";
    case PwlPrimitive::kShift: return "shift";
  }
  return "?";
}

StatsSink::StatsSink(RunStats* registry) : registry_(registry) {
  msri_leaf = &registry->GetTimer("msri.leaf");
  msri_augment = &registry->GetTimer("msri.augment");
  msri_join = &registry->GetTimer("msri.join");
  msri_repeater = &registry->GetTimer("msri.repeater");
  msri_root = &registry->GetTimer("msri.root");
  msri_total = &registry->GetTimer("msri.total");
  msri_set_size = &registry->GetHistogram("msri.set_size");
  mfs_time = &registry->GetTimer("mfs.time");

  ard_total = &registry->GetTimer("ard.total");
  ard_rooting = &registry->GetTimer("ard.rooting");
  ard_caps = &registry->GetTimer("ard.caps");
  ard_combine = &registry->GetTimer("ard.combine");

  for (std::size_t i = 0; i < kNumPwlPrimitives; ++i) {
    pwl_segments[i] = &registry->GetHistogram(
        std::string("pwl.") +
        PwlPrimitiveName(static_cast<PwlPrimitive>(static_cast<int>(i))) +
        ".segments");
  }
}

namespace detail {
thread_local PwlRecorders* t_pwl_recorders = nullptr;
}  // namespace detail

PwlStatsScope::PwlStatsScope(StatsSink* sink) {
  if (sink == nullptr) return;
  for (std::size_t i = 0; i < kNumPwlPrimitives; ++i) {
    recorders_.segments[i] = sink->pwl_segments[i];
  }
  previous_ = detail::t_pwl_recorders;
  detail::t_pwl_recorders = &recorders_;
  installed_ = true;
}

PwlStatsScope::~PwlStatsScope() {
  if (installed_) detail::t_pwl_recorders = previous_;
}

}  // namespace msn::obs
