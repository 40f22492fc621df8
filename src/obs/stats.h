// Lightweight run instrumentation: monotonic counters, scoped wall-clock
// timers, value histograms, and the RunStats registry that renders them as
// human-readable text or a stable JSON document (schema "msn-run-stats-v1",
// documented in docs/OBSERVABILITY.md).
//
// Design goals, in order:
//   1. Zero overhead when disabled.  Every producer holds a StatsSink* that
//      may be null; recording through a null sink is exactly one pointer
//      compare.  ScopedTimer does not even read the clock when its Timer*
//      is null.
//   2. Pre-resolved hot-path handles.  StatsSink registers the pipeline's
//      instruments once at construction, so the DP inner loops never touch
//      the registry's string map.
//   3. Stable, diffable output.  The registry is name-sorted; JSON keys and
//      units never change meaning within a schema version, so BENCH_*.json
//      trajectories stay comparable across PRs.
//
// Everything here is single-threaded by design; nothing is atomic.  The
// parallel batch engine (src/runtime) keeps that contract by giving every
// net its own thread-confined RunStats/StatsSink and folding them into one
// registry *after* the join barrier via RunStats::MergeFrom — never by
// sharing a sink across threads.  Instrument pointers handed out by
// RunStats stay valid for the registry's lifetime (node-based map
// storage).
#ifndef MSN_OBS_STATS_H
#define MSN_OBS_STATS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace msn::obs {

/// JSON string escaping shared by every JSON emitter in the tree
/// (RunStats, the batch report, the service responses): control
/// characters, quotes, backslashes.
std::string JsonEscape(const std::string& s);

/// JSON number: fixed-precision round-trip decimal; non-finite becomes
/// null (JSON has no inf/nan).
std::string JsonNumber(double v);

/// JSON number for histogram bucket bounds: exact non-negative integral
/// values up to 2^63 render as plain integers (so every power-of-two
/// bound round-trips exactly and adjacent log buckets can never collide
/// under fixed-precision printing); everything else falls back to
/// JsonNumber.
std::string JsonBucketBound(double v);

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t Value() const { return value_; }
  void MergeFrom(const Counter& other) { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Accumulated wall time plus invocation count.  Fed by ScopedTimer.
class Timer {
 public:
  void Record(std::uint64_t ns) {
    total_ns_ += ns;
    ++calls_;
  }
  std::uint64_t Calls() const { return calls_; }
  std::uint64_t TotalNs() const { return total_ns_; }
  double TotalMs() const { return static_cast<double>(total_ns_) * 1e-6; }
  double MeanUs() const {
    return calls_ == 0 ? 0.0
                       : static_cast<double>(total_ns_) * 1e-3 /
                             static_cast<double>(calls_);
  }
  void MergeFrom(const Timer& other) {
    total_ns_ += other.total_ns_;
    calls_ += other.calls_;
  }

 private:
  std::uint64_t total_ns_ = 0;
  std::uint64_t calls_ = 0;
};

/// RAII wall-clock span recorded into a Timer on destruction.  A null
/// timer disables the span entirely — no clock read on either end.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer* timer) : timer_(timer) {
    if (timer_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (timer_ != nullptr) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_);
      timer_->Record(static_cast<std::uint64_t>(ns.count()));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_;
};

/// Histogram of non-negative values: count/sum/min/max plus power-of-two
/// magnitude buckets (bucket i counts values in (2^(i-1), 2^i]; bucket 0
/// counts values <= 1).  Sized for the set/segment cardinalities the DP
/// produces; values beyond 2^63 clamp into the last bucket.
class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = 64;

  void Record(double v);
  void MergeFrom(const Histogram& other);

  std::uint64_t Count() const { return count_; }
  double Sum() const { return sum_; }
  double Min() const { return count_ == 0 ? 0.0 : min_; }
  double Max() const { return count_ == 0 ? 0.0 : max_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Bucket upper bound (inclusive) and count of the i-th bucket.
  double BucketBound(std::size_t i) const;
  std::uint64_t BucketCount(std::size_t i) const { return buckets_[i]; }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t buckets_[kNumBuckets] = {};
};

/// Name-keyed registry of every instrument of one run, plus free-form
/// string labels (context: net, mode, ...) and scalar values (results:
/// pareto points, prune rate, ...).  Renders to text and JSON.
class RunStats {
 public:
  /// The JSON document's "schema" field for this layout.
  static constexpr const char* kSchema = "msn-run-stats-v1";

  /// Returns the instrument registered under `name`, creating it on first
  /// use.  Pointers stay valid for the registry's lifetime.
  Counter& GetCounter(const std::string& name) { return counters_[name]; }
  Timer& GetTimer(const std::string& name) { return timers_[name]; }
  Histogram& GetHistogram(const std::string& name) {
    return histograms_[name];
  }

  void SetLabel(const std::string& key, std::string value) {
    labels_[key] = std::move(value);
  }
  void SetValue(const std::string& key, double value) {
    values_[key] = value;
  }

  bool Empty() const {
    return counters_.empty() && timers_.empty() && histograms_.empty() &&
           labels_.empty() && values_.empty();
  }

  const std::map<std::string, Counter>& Counters() const { return counters_; }
  const std::map<std::string, Timer>& Timers() const { return timers_; }
  const std::map<std::string, Histogram>& Histograms() const {
    return histograms_;
  }
  const std::map<std::string, std::string>& Labels() const { return labels_; }
  const std::map<std::string, double>& Values() const { return values_; }

  /// Folds `other`'s counters, timers, and histograms into this registry
  /// (same-named instruments accumulate; new names are created).  Labels
  /// and values are per-run context/results with no meaningful sum and
  /// are left untouched.  The batch engine uses this to aggregate
  /// thread-confined per-net registries after its join barrier.
  void MergeFrom(const RunStats& other);

  /// Plain-text summary (one instrument per line, name-sorted).
  void RenderText(std::ostream& os) const;

  /// The stable JSON document (schema kSchema); see docs/OBSERVABILITY.md.
  void RenderJson(std::ostream& os) const;
  std::string JsonString() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Timer> timers_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::string> labels_;
  std::map<std::string, double> values_;
};

/// The PWL primitives of eq. (3) whose breakpoint growth we track.
enum class PwlPrimitive : int { kMax = 0, kAddScalar, kAddSlope, kShift };
inline constexpr std::size_t kNumPwlPrimitives = 4;
const char* PwlPrimitiveName(PwlPrimitive p);

/// Write-side handle the pipeline records into: pre-registers the standard
/// instrument schema in a RunStats so hot-path recording never performs a
/// registry lookup.  Producers take a nullable StatsSink* ("disabled" =
/// null) — see MsriOptions::stats and ComputeArd's sink parameter.
class StatsSink {
 public:
  explicit StatsSink(RunStats* registry);

  RunStats& Registry() { return *registry_; }
  const RunStats& Registry() const { return *registry_; }

  // MSRI phase timers (Figs. 6-10): wall time and invocation counts.
  // JoinSets includes its in-loop chunked MFS pruning (inclusive time).
  // No counters: RunMsri adds its MsriStats to the registry on exit.
  Timer* msri_leaf;
  Timer* msri_augment;
  Timer* msri_join;
  Timer* msri_repeater;
  Timer* msri_root;
  Timer* msri_total;
  Histogram* msri_set_size;    ///< Per-node set sizes after MFS pruning.
  Timer* mfs_time;             ///< Every MFS pruning call (Def. 4.3).

  // ARD (Section III): the three passes of the linear-time algorithm.
  Timer* ard_total;
  Timer* ard_rooting;
  Timer* ard_caps;
  Timer* ard_combine;

  // PWL breakpoint growth per primitive: one histogram of the result's
  // segment count per invocation, indexed by PwlPrimitive.
  Histogram* pwl_segments[kNumPwlPrimitives];

 private:
  RunStats* registry_;
};

namespace detail {
/// Per-thread recorder the Pwl primitives consult; null when disabled.
/// Installed by PwlStatsScope for the duration of an instrumented run —
/// Pwl is a value type used deep inside the DP, so threading a sink
/// through every call site would contaminate the whole call graph.
struct PwlRecorders {
  Histogram* segments[kNumPwlPrimitives] = {};
};
extern thread_local PwlRecorders* t_pwl_recorders;
}  // namespace detail

/// Hot-path hook called by the Pwl primitives with the result's segment
/// count; one thread-local load and compare when disabled.
inline void RecordPwl(PwlPrimitive p, std::size_t segments_out) {
  detail::PwlRecorders* r = detail::t_pwl_recorders;
  if (r == nullptr) return;
  r->segments[static_cast<int>(p)]->Record(
      static_cast<double>(segments_out));
}

/// Installs `sink`'s PWL histograms as this thread's recorders for the
/// scope's lifetime; restores the previous recorders on exit.  A null sink
/// installs nothing (an enclosing scope, if any, keeps recording).
class PwlStatsScope {
 public:
  explicit PwlStatsScope(StatsSink* sink);
  ~PwlStatsScope();
  PwlStatsScope(const PwlStatsScope&) = delete;
  PwlStatsScope& operator=(const PwlStatsScope&) = delete;

 private:
  detail::PwlRecorders recorders_;
  detail::PwlRecorders* previous_ = nullptr;
  bool installed_ = false;
};

}  // namespace msn::obs

#endif  // MSN_OBS_STATS_H
