// msn_perfbench: runs one benchmark workload and writes what it measured
// as one JSON document on stdout.  perfbench/run.py builds and drives it;
// see perfbench/METRICS.md.
//
//   msn_perfbench --workload msri_table4|serve_mixed|closure --seed N
//                 --seconds S --trace 0|1 --workdir DIR
//   msn_perfbench --reference msri_table4|serve_mixed|closure --workdir DIR
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench_common.h"

namespace {

using msn::perfbench::Report;
using msn::perfbench::RunConfig;

int Usage() {
  std::cerr << "usage: msn_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n"
               "       msn_perfbench --reference W --workdir DIR\n";
  return 2;
}

/// Ends the probe process however main returns.
struct ProbeProcessGuard {
  ~ProbeProcessGuard() { msn::perfbench::StopProbeProcess(); }
};

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  if (argc % 2 == 0 || !flags.count("--workdir")) return Usage();
  try {
    // Before anything else, so the child is forked from a small,
    // single-threaded process.
    msn::perfbench::StartProbeProcess();
    const ProbeProcessGuard guard;
    Report report;
    if (flags.count("--reference")) {
      const std::string& w = flags["--reference"];
      if (w == "msri_table4") {
        report = msn::perfbench::MsriReference();
      } else if (w == "serve_mixed") {
        report = msn::perfbench::ServeReference();
      } else if (w == "closure") {
        report = msn::perfbench::ClosureReference(flags["--workdir"]);
      } else {
        return Usage();
      }
    } else {
      if (!flags.count("--workload") || !flags.count("--seed") ||
          !flags.count("--seconds") || !flags.count("--trace")) {
        return Usage();
      }
      RunConfig config;
      config.seed = std::stoull(flags["--seed"]);
      config.seconds = std::stod(flags["--seconds"]);
      config.trace = flags["--trace"] == "1";
      config.workdir = flags["--workdir"];
      const std::string& w = flags["--workload"];
      if (w == "msri_table4") {
        report = msn::perfbench::RunMsriTable4(config);
      } else if (w == "serve_mixed") {
        report = msn::perfbench::RunServeMixed(config);
      } else if (w == "closure") {
        report = msn::perfbench::RunClosure(config);
      } else {
        return Usage();
      }
    }
    report.WriteJson(std::cout);
  } catch (const std::exception& e) {
    std::cerr << "msn_perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
