// msn_cli — command-line driver for the multisource-net optimizer.
//
//   msn_cli gen --terminals N [--seed S] [--grid UM] [--spacing UM] -o F
//       Generate a random experiment net and write it as .msn.
//   msn_cli ard NET.msn [SOLUTION.msn]
//       Report the augmented RC-diameter (optionally of a saved solution).
//   msn_cli optimize NET.msn [--spec PS] [--mode repeaters|sizing|joint]
//           [--stats[=FILE.json]] [-o SOLUTION.msn]
//       Run the MSRI DP; print the tradeoff suite and the chosen point
//       (min-cost meeting --spec, else the min-ARD point).  --stats prints
//       the instrumentation tables; --stats=FILE.json writes the
//       machine-readable run report (docs/OBSERVABILITY.md).
//   msn_cli optimize-batch DIR|MANIFEST [--jobs N] [--spec PS]
//           [--mode repeaters|sizing|joint] [--stats=FILE.json]
//       Optimize every .msn net of a directory (sorted) or manifest (one
//       path per line, # comments) on N pool threads with per-net error
//       containment.  The report on stdout is byte-identical at any
//       --jobs; --stats writes the msn-batch-stats-v1 aggregate document
//       (docs/RUNTIME.md).
//   msn_cli render NET.msn [SOLUTION.msn]
//       ASCII sketch of the net (with repeater markers if given).
//   msn_cli gen-design --nets N [--seed S] [--terminals-min A]
//           [--terminals-max B] [--grid UM] [--required-factor F]
//           [--multi-source F] -o DIR
//       Generate a seeded multi-net design: DIR/design.msd plus one .msn
//       per net (docs/STA.md).  Byte-identical for the same seed.
//   msn_cli close-timing DESIGN.msd [--jobs N] [--max-iters K]
//           [--nets-per-iter M] [--cache-dir DIR] [--stats=FILE.json]
//       Static-timing closure: propagate arrivals/requireds, derive
//       per-net ARD specs from slack, optimize critical nets through the
//       batch engine (frontiers cached by canonical fingerprint;
//       --cache-dir persists them across runs), iterate to convergence.
//       The report on stdout is byte-identical at any --jobs; --stats
//       writes the msn-sta-stats-v1 document (docs/STA.md).
//   msn_cli serve [--jobs N] [--cache-entries K] [--cache-bytes B]
//           [--cache-shards S] [--cache-dir DIR] [--deadline-ms D]
//           [--port P] [--max-connections C] [--max-queue Q] [--max-cost E]
//           [--trace-dir DIR] [--trace-sample N]
//       Long-running optimization service: line-delimited JSON requests on
//       stdin (or a loopback TCP port with --port, serving up to
//       --max-connections clients concurrently), responses on stdout,
//       answers cached by canonical net fingerprint (docs/SERVICE.md).
//       --cache-dir persists the cache to DIR/cache.msnseg and warms it
//       back on restart (crash-safe; docs/SERVICE.md).  --max-queue and
//       --max-cost shed excess load with structured `overloaded`
//       responses; expired deadlines cancel in-flight DP runs.
//       --trace-dir writes one Chrome trace-event JSON file per sampled
//       optimize request (load in Perfetto; summarize with
//       tools/trace_view.py); --trace-sample N traces 1 in N requests
//       (docs/OBSERVABILITY.md "Tracing").
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "core/ard.h"
#include "core/msri.h"
#include "io/netfile.h"
#include "io/report.h"
#include "io/table.h"
#include "netgen/design_gen.h"
#include "netgen/netgen.h"
#include "obs/stats.h"
#include "runtime/batch.h"
#include "service/server.h"
#include "sta/closure.h"
#include "sta/design.h"
#include "tech/tech.h"

namespace {

using namespace msn;

/// User-facing command-line mistakes: reported as a one-line `error: ...`
/// with exit code 1, without the MSN_CHECK internals prefix.
struct CliError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Malformed invocations (unknown flag, missing value): reported as a
/// one-line `error: ...` followed by the usage text, exit code 2 — so
/// scripts can tell "you called me wrong" (2) from "the run failed" (1).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void Usage() {
  std::cerr <<
      "usage:\n"
      "  msn_cli gen --terminals N [--seed S] [--grid UM] [--spacing UM]"
      " -o FILE\n"
      "  msn_cli ard NET.msn [SOLUTION.msn]\n"
      "  msn_cli optimize NET.msn [--spec PS]"
      " [--mode repeaters|sizing|joint] [--stats[=FILE.json]]"
      " [-o SOLUTION.msn]\n"
      "  msn_cli optimize-batch DIR|MANIFEST [--jobs N] [--spec PS]"
      " [--mode repeaters|sizing|joint] [--stats=FILE.json]\n"
      "  msn_cli render NET.msn [SOLUTION.msn]\n"
      "  msn_cli gen-design --nets N [--seed S] [--terminals-min A]"
      " [--terminals-max B] [--grid UM] [--required-factor F]"
      " [--multi-source F] -o DIR\n"
      "  msn_cli close-timing DESIGN.msd [--jobs N] [--max-iters K]"
      " [--nets-per-iter M] [--cache-dir DIR] [--stats=FILE.json]\n"
      "  msn_cli serve [--jobs N] [--cache-entries K] [--cache-bytes B]"
      " [--cache-shards S] [--cache-dir DIR] [--deadline-ms D]"
      " [--port P] [--max-connections C] [--max-queue Q]"
      " [--max-cost E] [--trace-dir DIR] [--trace-sample N]\n";
  std::exit(2);
}

/// Accepts `--flag VALUE`, `--flag=VALUE`, and the value-less `--stats`.
/// A flag outside `allowed` is a UsageError: every command declares its
/// flag set, so typos fail loudly (usage + exit 2) instead of being
/// silently ignored.
std::map<std::string, std::string> ParseFlags(
    int argc, char** argv, int first, std::vector<std::string>* pos,
    std::initializer_list<const char*> allowed) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 || arg == "-o") {
      const std::size_t eq = arg.find('=');
      const std::string name =
          eq == std::string::npos ? arg : arg.substr(0, eq);
      if (std::find(allowed.begin(), allowed.end(), name) ==
          allowed.end()) {
        throw UsageError("unknown flag '" + name + "' for " +
                         std::string(argv[1]));
      }
      if (eq != std::string::npos) {
        flags[name] = arg.substr(eq + 1);
      } else if (arg == "--stats") {
        flags[arg] = "";  // Value-less flag.
      } else {
        if (i + 1 >= argc) {
          throw UsageError("flag " + arg + " needs a value");
        }
        flags[arg] = argv[++i];
      }
    } else {
      pos->push_back(arg);
    }
  }
  return flags;
}

/// std::stod & friends with a one-line diagnostic instead of a raw
/// std::invalid_argument escaping to the top.
double NumericFlag(const std::map<std::string, std::string>& flags,
                   const std::string& name) {
  const std::string& text = flags.at(name);
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw CliError("flag " + name + " expects a number, got '" + text + "'");
  }
}

RcTree LoadNet(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw CliError("cannot open '" + path + "'");
  try {
    return ReadNet(in);
  } catch (const ParseError& e) {
    // One line, with the offending line number from io/netfile.
    throw CliError(path + ": " + e.what());
  }
}

SolutionFile LoadSolution(const std::string& path, const RcTree& tree) {
  std::ifstream in(path);
  if (!in.good()) throw CliError("cannot open '" + path + "'");
  // Skip the net section if the file carries one.
  std::string line;
  const auto start = in.tellg();
  bool has_net = false;
  if (std::getline(in, line) && line.rfind("msn-net", 0) == 0) {
    has_net = true;
    while (std::getline(in, line) && line != "end") {
    }
  }
  if (!has_net) in.seekg(start);
  try {
    return ReadSolution(in, tree);
  } catch (const ParseError& e) {
    throw CliError(path + ": " + e.what());
  }
}

int CmdGen(int argc, char** argv) {
  std::vector<std::string> pos;
  const auto flags =
      ParseFlags(argc, argv, 2, &pos,
                 {"--terminals", "--seed", "--grid", "--spacing", "-o"});
  MSN_CHECK_MSG(flags.count("--terminals") && flags.count("-o"),
                "gen requires --terminals and -o");
  NetConfig cfg;
  cfg.num_terminals =
      static_cast<std::size_t>(NumericFlag(flags, "--terminals"));
  if (flags.count("--seed")) {
    cfg.seed = static_cast<std::uint64_t>(NumericFlag(flags, "--seed"));
  }
  if (flags.count("--grid")) {
    cfg.grid_um = static_cast<std::int64_t>(NumericFlag(flags, "--grid"));
  }
  if (flags.count("--spacing")) {
    cfg.insertion_spacing_um = NumericFlag(flags, "--spacing");
  }
  const Technology tech = DefaultTechnology();
  const RcTree tree = BuildExperimentNet(cfg, tech);
  std::ofstream out(flags.at("-o"));
  MSN_CHECK_MSG(out.good(), "cannot write '" << flags.at("-o") << "'");
  WriteNet(out, tree);
  DescribeNet(std::cout, tree);
  std::cout << "wrote " << flags.at("-o") << '\n';
  return 0;
}

int CmdArd(int argc, char** argv) {
  std::vector<std::string> pos;
  ParseFlags(argc, argv, 2, &pos, {});
  MSN_CHECK_MSG(!pos.empty(), "ard requires a net file");
  const RcTree tree = LoadNet(pos[0]);
  const Technology tech = DefaultTechnology();
  DescribeNet(std::cout, tree);

  RepeaterAssignment repeaters(tree.NumNodes());
  DriverAssignment drivers(tree.NumTerminals());
  RcTree evaluated = tree;
  if (pos.size() > 1) {
    SolutionFile sol = LoadSolution(pos[1], tree);
    repeaters = sol.repeaters;
    drivers = std::move(sol.drivers);
    if (!sol.wire_widths.empty()) {
      evaluated = tree.WithWireWidths(sol.wire_widths);
    }
  }
  const ArdResult ard = ComputeArd(evaluated, repeaters, drivers, tech);
  std::cout << "ARD: " << ard.ard_ps << " ps";
  if (ard.HasPair()) {
    std::cout << "  (critical: terminal " << ard.critical_source << " -> "
              << ard.critical_sink << ')';
  }
  std::cout << '\n';
  return 0;
}

/// The shared --mode handling of optimize / optimize-batch.
MsriOptions ModeOptions(const std::map<std::string, std::string>& flags,
                        const Technology& tech, std::string* mode_out) {
  MsriOptions opt;
  const std::string mode =
      flags.count("--mode") ? flags.at("--mode") : "repeaters";
  if (mode == "sizing" || mode == "joint") {
    opt.size_drivers = true;
    opt.sizing_library = DriverSizingLibrary(tech, {1.0, 2.0, 3.0, 4.0});
    opt.insert_repeaters = mode == "joint";
  } else if (mode != "repeaters") {
    throw CliError("unknown --mode '" + mode + "'");
  }
  *mode_out = mode;
  return opt;
}

int CmdOptimize(int argc, char** argv) {
  std::vector<std::string> pos;
  const auto flags = ParseFlags(argc, argv, 2, &pos,
                                {"--spec", "--mode", "--stats", "-o"});
  MSN_CHECK_MSG(!pos.empty(), "optimize requires a net file");
  const RcTree tree = LoadNet(pos[0]);
  const Technology tech = DefaultTechnology();

  std::string mode;
  MsriOptions opt = ModeOptions(flags, tech, &mode);

  // --stats attaches the observability sink to every engine this command
  // runs; the bare form prints tables, --stats=FILE.json writes the
  // machine-readable report (docs/OBSERVABILITY.md).
  obs::RunStats run_stats;
  std::optional<obs::StatsSink> sink;
  if (flags.count("--stats")) {
    sink.emplace(&run_stats);
    opt.stats = &*sink;
    run_stats.SetLabel("tool", "msn_cli optimize");
    run_stats.SetLabel("net", pos[0]);
    run_stats.SetLabel("mode", mode);
    run_stats.SetValue("net.terminals",
                       static_cast<double>(tree.NumTerminals()));
    run_stats.SetValue("net.insertion_points",
                       static_cast<double>(tree.InsertionPoints().size()));
  }
  obs::StatsSink* sink_ptr = sink ? &*sink : nullptr;

  DescribeNet(std::cout, tree);
  const double base = ComputeArd(tree, tech, sink_ptr).ard_ps;
  const MsriResult result = RunMsri(tree, tech, opt);

  TablePrinter t({"cost", "#rep", "ARD (ps)", "vs base"});
  for (const TradeoffPoint& p : result.Pareto()) {
    t.AddRow({TablePrinter::Num(p.cost, 1), std::to_string(p.num_repeaters),
              TablePrinter::Num(p.ard_ps, 1),
              TablePrinter::Num(p.ard_ps / base, 2)});
  }
  t.Print(std::cout);

  const TradeoffPoint* pick =
      flags.count("--spec")
          ? result.MinCostFeasible(NumericFlag(flags, "--spec"))
          : result.MinArd();
  if (pick == nullptr) {
    std::cout << "spec " << flags.at("--spec")
              << " ps is unachievable (best " << result.MinArd()->ard_ps
              << " ps)\n";
    return 1;
  }
  const ArdResult ard = ComputeArd(tree, pick->repeaters, pick->drivers,
                                   tech, kNoNode, sink_ptr);
  std::cout << '\n';
  DescribeSolution(std::cout, tree, tech, *pick, ard);
  if (flags.count("-o")) {
    std::ofstream out(flags.at("-o"));
    MSN_CHECK_MSG(out.good(), "cannot write '" << flags.at("-o") << "'");
    WriteNet(out, tree);
    WriteSolution(out, tree, *pick);
    std::cout << "wrote " << flags.at("-o") << '\n';
  }
  if (sink) {
    run_stats.SetValue("result.base_ard_ps", base);
    run_stats.SetValue("result.picked_ard_ps", pick->ard_ps);
    run_stats.SetValue("result.picked_cost", pick->cost);
    run_stats.SetValue("result.picked_repeaters",
                       static_cast<double>(pick->num_repeaters));
    const std::string& stats_path = flags.at("--stats");
    if (stats_path.empty()) {
      std::cout << '\n';
      DescribeStats(std::cout, run_stats);
    } else {
      std::ofstream out(stats_path);
      if (!out.good()) {
        throw CliError("cannot write '" + stats_path + "'");
      }
      run_stats.RenderJson(out);
      out << '\n';
      std::cout << "wrote " << stats_path << '\n';
    }
  }
  return 0;
}

int CmdOptimizeBatch(int argc, char** argv) {
  std::vector<std::string> pos;
  const auto flags = ParseFlags(argc, argv, 2, &pos,
                                {"--jobs", "--spec", "--mode", "--stats"});
  MSN_CHECK_MSG(!pos.empty(),
                "optimize-batch requires a directory or manifest");
  const Technology tech = DefaultTechnology();

  std::string mode;
  const MsriOptions base = ModeOptions(flags, tech, &mode);

  runtime::BatchOptions batch_opt;
  if (flags.count("--jobs")) {
    const double jobs = NumericFlag(flags, "--jobs");
    if (jobs < 1) throw CliError("--jobs must be at least 1");
    batch_opt.jobs = static_cast<std::size_t>(jobs);
  }
  const bool want_stats = flags.count("--stats") > 0;
  if (want_stats && flags.at("--stats").empty()) {
    throw CliError("optimize-batch --stats requires =FILE.json");
  }
  batch_opt.collect_stats = want_stats;

  std::vector<std::string> paths;
  try {
    paths = runtime::CollectNetPaths(pos[0]);
  } catch (const CheckError& e) {
    throw CliError(e.what());
  }

  const runtime::BatchResult batch =
      runtime::OptimizeBatchFiles(paths, tech, base, batch_opt);

  std::optional<double> spec;
  if (flags.count("--spec")) spec = NumericFlag(flags, "--spec");
  // The report is the determinism contract: byte-identical at any
  // --jobs (tests/runtime_test.cc and the CI matrix byte-compare it).
  runtime::WriteBatchReport(std::cout, batch, spec);

  if (want_stats) {
    const std::string& stats_path = flags.at("--stats");
    std::ofstream out(stats_path);
    if (!out.good()) throw CliError("cannot write '" + stats_path + "'");
    runtime::WriteBatchStatsJson(out, batch);
    // stderr, not stdout: stdout carries only the deterministic report,
    // so it stays byte-comparable across invocations with/without stats.
    std::cerr << "wrote " << stats_path << '\n';
  }
  return batch.AllOk() ? 0 : 1;
}

int CmdRender(int argc, char** argv) {
  std::vector<std::string> pos;
  ParseFlags(argc, argv, 2, &pos, {});
  MSN_CHECK_MSG(!pos.empty(), "render requires a net file");
  const RcTree tree = LoadNet(pos[0]);
  RepeaterAssignment repeaters(tree.NumNodes());
  if (pos.size() > 1) {
    repeaters = LoadSolution(pos[1], tree).repeaters;
  }
  DescribeNet(std::cout, tree);
  std::cout << RenderAscii(tree, repeaters, 72, 30);
  return 0;
}

int CmdGenDesign(int argc, char** argv) {
  std::vector<std::string> pos;
  const auto flags =
      ParseFlags(argc, argv, 2, &pos,
                 {"--nets", "--seed", "--terminals-min", "--terminals-max",
                  "--grid", "--required-factor", "--multi-source", "-o"});
  if (!pos.empty()) {
    throw UsageError("gen-design takes no positional arguments");
  }
  MSN_CHECK_MSG(flags.count("--nets") && flags.count("-o"),
                "gen-design requires --nets and -o");
  DesignConfig cfg;
  const double nets = NumericFlag(flags, "--nets");
  if (nets < 1) throw CliError("--nets must be at least 1");
  cfg.num_nets = static_cast<std::size_t>(nets);
  if (flags.count("--seed")) {
    cfg.seed = static_cast<std::uint64_t>(NumericFlag(flags, "--seed"));
  }
  if (flags.count("--terminals-min")) {
    const double n = NumericFlag(flags, "--terminals-min");
    if (n < 2) throw CliError("--terminals-min must be at least 2");
    cfg.terminals_min = static_cast<std::size_t>(n);
  }
  if (flags.count("--terminals-max")) {
    cfg.terminals_max = static_cast<std::size_t>(
        NumericFlag(flags, "--terminals-max"));
    if (cfg.terminals_max < cfg.terminals_min) {
      throw CliError("--terminals-max must be >= --terminals-min");
    }
  }
  if (flags.count("--grid")) {
    cfg.net.grid_um =
        static_cast<std::int64_t>(NumericFlag(flags, "--grid"));
  }
  if (flags.count("--required-factor")) {
    const double f = NumericFlag(flags, "--required-factor");
    if (f <= 0) throw CliError("--required-factor must be positive");
    cfg.required_factor = f;
  }
  if (flags.count("--multi-source")) {
    const double f = NumericFlag(flags, "--multi-source");
    if (f < 0 || f > 1) throw CliError("--multi-source must be in [0, 1]");
    cfg.multi_source_fraction = f;
  }
  const Technology tech = DefaultTechnology();
  const sta::Design design = GenerateDesign(cfg, tech);
  const std::string msd = WriteDesignFiles(design, flags.at("-o"));
  std::size_t endpoints = 0;
  for (const sta::DesignPort& p : design.ports) {
    if (!p.is_input) ++endpoints;
  }
  std::cout << "wrote " << msd << ": " << design.nets.size() << " nets, "
            << design.components.size() << " components, " << endpoints
            << " endpoints\n";
  return 0;
}

int CmdCloseTiming(int argc, char** argv) {
  std::vector<std::string> pos;
  const auto flags =
      ParseFlags(argc, argv, 2, &pos,
                 {"--jobs", "--max-iters", "--nets-per-iter",
                  "--cache-dir", "--stats"});
  MSN_CHECK_MSG(pos.size() == 1, "close-timing requires a .msd design");

  sta::ClosureOptions opt;
  if (flags.count("--jobs")) {
    const double jobs = NumericFlag(flags, "--jobs");
    if (jobs < 1) throw CliError("--jobs must be at least 1");
    opt.jobs = static_cast<std::size_t>(jobs);
  }
  if (flags.count("--max-iters")) {
    const double n = NumericFlag(flags, "--max-iters");
    if (n < 1) throw CliError("--max-iters must be at least 1");
    opt.max_iters = static_cast<std::size_t>(n);
  }
  if (flags.count("--nets-per-iter")) {
    const double n = NumericFlag(flags, "--nets-per-iter");
    if (n < 0) throw CliError("--nets-per-iter must be non-negative");
    opt.nets_per_iter = static_cast<std::size_t>(n);
  }
  if (flags.count("--cache-dir")) {
    const std::string& dir = flags.at("--cache-dir");
    if (dir.empty()) throw CliError("--cache-dir needs a directory");
    opt.cache_dir = dir;
  }
  const bool want_stats = flags.count("--stats") > 0;
  if (want_stats && flags.at("--stats").empty()) {
    throw CliError("close-timing --stats requires =FILE.json");
  }

  const Technology tech = DefaultTechnology();
  sta::Design design;
  try {
    design = sta::LoadDesign(pos[0]);
  } catch (const ParseError& e) {
    throw CliError(pos[0] + ": " + e.what());
  }

  const sta::ClosureResult result = sta::CloseTiming(design, tech, opt);
  // The report is the determinism contract: byte-identical at any
  // --jobs (tests/sta_test.cc and the CI smoke step byte-compare it).
  sta::WriteClosureReport(std::cout, result);

  if (want_stats) {
    const std::string& stats_path = flags.at("--stats");
    std::ofstream out(stats_path);
    if (!out.good()) throw CliError("cannot write '" + stats_path + "'");
    sta::WriteClosureStatsJson(out, result, pos[0]);
    // stderr, not stdout: stdout stays byte-comparable across runs.
    std::cerr << "wrote " << stats_path << '\n';
  }
  for (const sta::NetClosure& n : result.nets) {
    if (!n.error.empty()) return 1;  // Contained per-net DP failure.
  }
  return 0;
}

int CmdServe(int argc, char** argv) {
  std::vector<std::string> pos;
  const auto flags =
      ParseFlags(argc, argv, 2, &pos,
                 {"--jobs", "--cache-entries", "--cache-bytes",
                  "--cache-shards", "--cache-dir", "--deadline-ms",
                  "--port", "--max-connections", "--max-queue",
                  "--max-cost", "--trace-dir", "--trace-sample"});
  if (!pos.empty()) {
    throw UsageError("serve takes no positional arguments");
  }
  service::ServerOptions opt;
  if (flags.count("--jobs")) {
    const double jobs = NumericFlag(flags, "--jobs");
    if (jobs < 1) throw CliError("--jobs must be at least 1");
    opt.jobs = static_cast<std::size_t>(jobs);
  }
  if (flags.count("--cache-entries")) {
    const double n = NumericFlag(flags, "--cache-entries");
    if (n < 1) throw CliError("--cache-entries must be at least 1");
    opt.cache.max_entries = static_cast<std::size_t>(n);
  }
  if (flags.count("--cache-bytes")) {
    const double n = NumericFlag(flags, "--cache-bytes");
    if (n < 1) throw CliError("--cache-bytes must be at least 1");
    opt.cache.max_bytes = static_cast<std::size_t>(n);
  }
  if (flags.count("--cache-shards")) {
    const double n = NumericFlag(flags, "--cache-shards");
    if (n < 1) throw CliError("--cache-shards must be at least 1");
    opt.cache.shards = static_cast<std::size_t>(n);
  }
  if (flags.count("--cache-dir")) {
    const std::string& dir = flags.at("--cache-dir");
    if (dir.empty()) throw CliError("--cache-dir needs a directory");
    opt.persist.dir = dir;
  }
  if (flags.count("--deadline-ms")) {
    const double d = NumericFlag(flags, "--deadline-ms");
    if (d < 0) throw CliError("--deadline-ms must be non-negative");
    opt.default_deadline_ms = d;
  }
  if (flags.count("--max-connections")) {
    const double n = NumericFlag(flags, "--max-connections");
    if (n < 1) throw CliError("--max-connections must be at least 1");
    opt.max_connections = static_cast<std::size_t>(n);
  }
  if (flags.count("--max-queue")) {
    const double n = NumericFlag(flags, "--max-queue");
    if (n < 0) throw CliError("--max-queue must be non-negative");
    opt.max_queue_depth = static_cast<std::size_t>(n);
  }
  if (flags.count("--max-cost")) {
    const double n = NumericFlag(flags, "--max-cost");
    if (n < 0) throw CliError("--max-cost must be non-negative");
    opt.max_estimated_solutions = n;
  }
  if (flags.count("--trace-dir")) {
    const std::string& dir = flags.at("--trace-dir");
    if (dir.empty()) throw CliError("--trace-dir needs a directory");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      throw CliError("--trace-dir " + dir + ": " + ec.message());
    }
    opt.trace_dir = dir;
  }
  if (flags.count("--trace-sample")) {
    const double n = NumericFlag(flags, "--trace-sample");
    if (n < 1) throw CliError("--trace-sample must be at least 1");
    opt.trace_sample = static_cast<std::size_t>(n);
  }
  const Technology tech = DefaultTechnology();
  service::Server server(tech, opt);
  if (flags.count("--port")) {
    const double port = NumericFlag(flags, "--port");
    if (port < 0 || port > 65535) {
      throw CliError("--port must be in [0, 65535]");
    }
    return server.ServeTcp(static_cast<std::uint16_t>(port), std::cerr);
  }
  server.Serve(std::cin, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") return CmdGen(argc, argv);
    if (cmd == "ard") return CmdArd(argc, argv);
    if (cmd == "optimize") return CmdOptimize(argc, argv);
    if (cmd == "optimize-batch") return CmdOptimizeBatch(argc, argv);
    if (cmd == "render") return CmdRender(argc, argv);
    if (cmd == "gen-design") return CmdGenDesign(argc, argv);
    if (cmd == "close-timing") return CmdCloseTiming(argc, argv);
    if (cmd == "serve") return CmdServe(argc, argv);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << '\n';
    Usage();
  } catch (const CliError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  } catch (const msn::ParseError& e) {
    // Malformed .msn reaching here bypassed LoadNet's wrapping (e.g. a
    // solution file); still one line, with the line number.
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  } catch (const msn::CheckError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    // Anything else (bad_alloc, stream failures, ...): never a raw abort.
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  Usage();
}
