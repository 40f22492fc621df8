#include "bench_common.h"

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/stats.h"

namespace msn::perfbench {

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t tag) {
  Rng rng(seed * 0x100000001b3ull ^ tag);
  return rng.Next();
}

std::uint64_t Fnv64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Digest(const std::string& bytes) {
  const std::uint64_t h = Fnv64(bytes);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

namespace {

/// Both probe kernels once: {memory kernel ms, text kernel ms}.  Two
/// kernels, shaped like the program's two kinds of hot code: a random walk
/// over 8 MB plus a 128 KB sort (the DP's memory-bound work), and number
/// formatting, stream parsing and small string-keyed map inserts (the
/// request path's text handling).
std::array<double, 2> ProbeKernels() {
  constexpr std::size_t kChase = std::size_t{1} << 21;
  // Sattolo's shuffle: one random cycle through all kChase slots.
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> cycle(kChase);
    for (std::size_t i = 0; i < kChase; ++i) {
      cycle[i] = static_cast<std::uint32_t>(i);
    }
    Rng rng(7);
    for (std::size_t i = kChase - 1; i > 0; --i) {
      std::swap(cycle[i], cycle[rng.Below(i)]);
    }
    return cycle;
  }();
  static std::vector<std::uint64_t> keys(std::size_t{1} << 14);

  std::array<double, 2> ms{};
  auto start = Clock::now();
  std::uint32_t at = 0;
  for (int i = 0; i < 8000; ++i) at = next[at];
  Rng rng(at);
  for (std::uint64_t& k : keys) k = rng.Next();
  std::sort(keys.begin(), keys.end());
  ms[0] = MsSince(start);

  start = Clock::now();
  double sum = static_cast<double>(keys[at % keys.size()] % 1000);
  std::ostringstream os;
  os.precision(17);
  for (int i = 0; i < 4000; ++i) {
    os << static_cast<double>(rng.Next() % 100000) * 0.37 << ' ';
  }
  std::istringstream is(os.str());
  for (double v; is >> v;) sum += v;
  std::map<std::string, double> m;
  for (int i = 0; i < 600; ++i) {
    m["k" + std::to_string(rng.Next() % 1000)] = sum;
  }
  volatile double sink = sum + static_cast<double>(m.size());
  (void)sink;
  ms[1] = MsSince(start);
  return ms;
}

/// The probe process's side: one timed probe per request, until the
/// request pipe closes.  A request names the CPU the program was running
/// on, and the probe runs there: the program waits meanwhile and resumes
/// on that CPU, as if it had run the probe itself.  Each probe first runs
/// the kernels untimed, so the timed pass finds its own data in cache
/// whatever the program did since.
[[noreturn]] void ServeProbes(int requests, int answers) {
  try {
    for (int cpu; read(requests, &cpu, sizeof cpu) == sizeof cpu;) {
      if (cpu >= 0 && cpu < CPU_SETSIZE) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(static_cast<std::size_t>(cpu), &set);
        (void)sched_setaffinity(0, sizeof set, &set);
      }
      (void)ProbeKernels();
      const std::array<double, 2> ms = ProbeKernels();
      if (write(answers, ms.data(), sizeof ms) != sizeof ms) break;
    }
  } catch (...) {
    _exit(1);
  }
  _exit(0);
}

struct ProbeProcess {
  pid_t pid = -1;
  int requests = -1;  ///< Write end: one CPU number asks for one probe.
  int answers = -1;   ///< Read end: two doubles per probe.
};
ProbeProcess g_probe;

}  // namespace

void StartProbeProcess() {
  int requests[2];
  int answers[2];
  if (pipe(requests) != 0 || pipe(answers) != 0) {
    throw std::runtime_error("probe: pipe failed");
  }
  // A dead probe process must fail Probe, not kill this process.
  std::signal(SIGPIPE, SIG_IGN);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("probe: fork failed");
  if (pid == 0) {
    close(requests[1]);
    close(answers[0]);
    // Keep stdout, the benchmark's result pipe, open only in the parent.
    const int null = open("/dev/null", O_WRONLY);
    if (null >= 0) dup2(null, STDOUT_FILENO);
    ServeProbes(requests[0], answers[1]);
  }
  close(requests[0]);
  close(answers[1]);
  g_probe = {pid, requests[1], answers[0]};
}

void StopProbeProcess() {
  if (g_probe.pid < 0) return;
  close(g_probe.requests);
  close(g_probe.answers);
  waitpid(g_probe.pid, nullptr, 0);
  g_probe = {};
}

void Probe(Report* report, const std::string& prefix) {
  const int cpu = sched_getcpu();
  std::array<double, 2> ms{};
  auto* bytes = reinterpret_cast<char*>(ms.data());
  std::size_t got = 0;
  if (g_probe.pid >= 0 &&
      write(g_probe.requests, &cpu, sizeof cpu) == sizeof cpu) {
    while (got < sizeof ms) {
      const ssize_t n = read(g_probe.answers, bytes + got, sizeof ms - got);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
  }
  if (got != sizeof ms) throw std::runtime_error("probe: no answer");
  report->Add(prefix + "probe_mem_ms", ms[0]);
  report->Add(prefix + "probe_text_ms", ms[1]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB.
}

void Report::CheckDigest(const std::string& key, const std::string& digest) {
  ++digest_uses[key];
  const auto [it, inserted] = digests.emplace(key, digest);
  if (!inserted && it->second != digest) {
    Fail(key + ": output " + digest + " differs from the first answer " +
         it->second);
  }
}

void Report::AddTimed(const std::string& prefix, const std::string& name,
                      double v) {
  const auto probes = samples.find(prefix + "probe_mem_ms");
  if (probes == samples.end() || probes->second.empty()) {
    throw std::logic_error("perfbench: " + name + " timed before a probe");
  }
  Add(prefix + name, v);
  Add(prefix + name + ".probe",
      static_cast<double>(probes->second.size() - 1));
}

void Report::Fail(const std::string& message) { errors.push_back(message); }

namespace {

void WriteNumber(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

}  // namespace

void Report::WriteJson(std::ostream& os) const {
  os << std::setprecision(17);
  os << "{\"attempted\":" << attempted << ",\"peak_rss_mb\":";
  WriteNumber(os, PeakRssMb());
  os << ",\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    if (i > 0) os << ',';
    WriteNumber(os, setup_s[i]);
  }
  os << "],\"samples\":{";
  bool first = true;
  for (const auto& [name, values_of] : samples) {
    if (!first) os << ',';
    first = false;
    os << '"' << obs::JsonEscape(name) << "\":[";
    for (std::size_t i = 0; i < values_of.size(); ++i) {
      if (i > 0) os << ',';
      WriteNumber(os, values_of[i]);
    }
    os << ']';
  }
  os << "},\"values\":{";
  first = true;
  for (const auto& [name, v] : values) {
    if (!first) os << ',';
    first = false;
    os << '"' << obs::JsonEscape(name) << "\":";
    WriteNumber(os, v);
  }
  os << "},\"digests\":{";
  first = true;
  for (const auto& [key, digest] : digests) {
    if (!first) os << ',';
    first = false;
    os << '"' << obs::JsonEscape(key) << "\":\"" << digest << '"';
  }
  os << "},\"digest_uses\":{";
  first = true;
  for (const auto& [key, uses] : digest_uses) {
    if (!first) os << ',';
    first = false;
    os << '"' << obs::JsonEscape(key) << "\":" << uses;
  }
  os << "},\"documents\":{";
  first = true;
  for (const auto& [name, doc] : documents) {
    if (!first) os << ',';
    first = false;
    os << '"' << obs::JsonEscape(name) << "\":" << doc;
  }
  os << "},\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << obs::JsonEscape(errors[i]) << '"';
  }
  os << "]}\n";
}

}  // namespace msn::perfbench
