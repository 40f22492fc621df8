// Shared pieces of the repository benchmark: the seeded RNG every input
// is drawn from, timing helpers, the host-speed probe process, the output
// digest, and the Report each workload fills in.  perfbench/run.py turns
// a Report into metrics, compares its digests with
// perfbench/reference.json and prints the result line.
#ifndef MSN_PERFBENCH_BENCH_COMMON_H
#define MSN_PERFBENCH_BENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace msn::perfbench {

/// splitmix64: the benchmark's own generator, so the inputs a seed
/// selects do not depend on a standard library's distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform integer in [0, n); n must be positive.
  std::size_t Below(std::size_t n) {
    return static_cast<std::size_t>(Next() % n);
  }
  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from a run seed and a stream tag.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t tag);

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// 64-bit FNV-1a of `bytes`.
std::uint64_t Fnv64(const std::string& bytes);

/// Fnv64 as 16 hex digits: the digest committed in
/// perfbench/reference.json.
std::string Digest(const std::string& bytes);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// The command line a workload runs under.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (files written by closure
  /// and by traced serving).
  std::string workdir;
};

/// What one workload run measured.  Times are in the unit their name
/// ends in.
struct Report {
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  /// Output digest per input key (first occurrence; later occurrences
  /// are checked against it here), and how many operations produced it.
  std::map<std::string, std::string> digests;
  std::map<std::string, std::uint64_t> digest_uses;
  /// Raw JSON documents the program produced (stats registries), passed
  /// through for run.py to read.
  std::map<std::string, std::string> documents;
  std::uint64_t attempted = 0;
  std::vector<std::string> errors;

  /// Records `digest` for `key`, or checks it against the one recorded
  /// by an earlier operation on the same input.
  void CheckDigest(const std::string& key, const std::string& digest);
  void Fail(const std::string& message);
  void Add(const std::string& name, double v) { samples[name].push_back(v); }
  /// Adds an operation's time `v` to `prefix``name`, and to
  /// `prefix``name`.probe the index of the latest `prefix` probe, so that
  /// run.py can scale it by the probes taken around it.
  void AddTimed(const std::string& prefix, const std::string& name, double v);
  void WriteJson(std::ostream& os) const;
};

/// Forks the probe process: a child that runs a fixed, benchmark-owned
/// probe (two kernels, about 9 ms together on a 4-core Xeon VM) on
/// request.  It has its own heap and its memory is not this process's
/// peak RSS.  Call before any thread exists; StopProbeProcess ends it and
/// waits for it.
void StartProbeProcess();
void StopProbeProcess();

/// Has the probe process time its two kernels on the CPU this thread runs
/// on, while the thread waits, into `prefix`probe_mem_ms and
/// `prefix`probe_text_ms.  Runs call it
/// between operations; run.py scales each operation's time by the median
/// of the probes around it to take out the host's speed drift
/// (perfbench/METRICS.md).
void Probe(Report* report, const std::string& prefix = "");

/// Set-ups a run times after one untimed, cold first set-up.
constexpr int kSetupRepeats = 9;

/// Runs `setup` once untimed (a fresh process's first set-up pays its page
/// faults), then kSetupRepeats times, each after a probe into
/// setup.probe_*_ms, recording each duration into report->setup_s; the
/// last result is returned.  run.py scales setup_s by the set-up's own
/// probes, since the host's speed during set-up can differ from its speed
/// during the measured operations.
template <typename Fn>
auto TimedSetup(Report* report, Fn&& setup) {
  (void)setup();
  for (int i = 1; i < kSetupRepeats; ++i) {
    Probe(report, "setup.");
    const auto start = Clock::now();
    (void)setup();
    report->setup_s.push_back(MsSince(start) / 1e3);
  }
  Probe(report, "setup.");
  const auto start = Clock::now();
  auto result = setup();
  report->setup_s.push_back(MsSince(start) / 1e3);
  return result;
}

/// Reference mode: computes every digest of the workload's whole input
/// pool without timing, for perfbench/reference.json.
Report MsriReference();
Report ServeReference();
Report ClosureReference(const std::string& workdir);

Report RunMsriTable4(const RunConfig& config);
Report RunServeMixed(const RunConfig& config);
Report RunClosure(const RunConfig& config);

}  // namespace msn::perfbench

#endif  // MSN_PERFBENCH_BENCH_COMMON_H
