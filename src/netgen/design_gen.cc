#include "netgen/design_gen.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/ard.h"
#include "io/netfile.h"
#include "sta/timing_graph.h"

namespace msn {

namespace {

/// `prefix` followed by the decimal `n`.  Built by appending: GCC 12 at
/// -O3 reports a false -Wrestrict on `"literal" + std::string&&`.
std::string Numbered(const char* prefix, std::size_t n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

std::string NetFileName(std::size_t index) {
  std::ostringstream os;
  os << "net_" << std::setw(4) << std::setfill('0') << index << ".msn";
  return os.str();
}

/// A point that can drive a net: a primary input or an out pin of an
/// already created component (always strictly earlier in creation
/// order, which is what keeps the design acyclic).
struct DrivePoint {
  bool is_port = false;
  std::size_t port = sta::kNoIndex;
  std::size_t component = sta::kNoIndex;
  std::string token;  ///< Endpoint token for Design::AddNet.
};

}  // namespace

sta::Design GenerateDesign(const DesignConfig& config,
                           const Technology& tech) {
  MSN_CHECK_MSG(config.num_nets >= 1, "num_nets must be >= 1");
  MSN_CHECK_MSG(config.required_factor > 0.0,
                "required_factor must be positive");
  const std::size_t tmin = std::max<std::size_t>(config.terminals_min, 2);
  const std::size_t tmax = std::max(config.terminals_max, tmin);

  Rng rng(config.seed);
  sta::Design design;
  std::vector<DrivePoint> drivers;  ///< Everything that can source a net.
  std::size_t num_inputs = 0, num_outputs = 0;

  for (std::size_t n = 0; n < config.num_nets; ++n) {
    const std::size_t terminals = static_cast<std::size_t>(
        rng.UniformInt(static_cast<std::int64_t>(tmin),
                       static_cast<std::int64_t>(tmax)));
    // Two sources only when a second distinct drive point is available
    // (at most one fresh primary input joins per net, so the second
    // must be an existing driver).
    std::size_t sources = 1;
    if (terminals >= 3 && !drivers.empty() &&
        rng.Chance(config.multi_source_fraction)) {
      sources = 2;
    }
    const std::size_t sinks = terminals - sources;

    // --- Source endpoints: reuse an existing driver or mint a primary
    // input.  The first net has no existing drivers, so it always gets
    // a fresh input.
    std::vector<std::string> tokens;
    std::vector<std::size_t> picked;  ///< Indices into `drivers` reused.
    for (std::size_t s = 0; s < sources; ++s) {
      const bool reuse =
          !drivers.empty() && (s == 1 || rng.Chance(0.6));
      if (reuse) {
        // Second source must differ from the first.
        std::size_t d = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(drivers.size()) - 1));
        if (s == 1 && !picked.empty() && d == picked[0]) {
          d = (d + 1) % drivers.size();
          if (d == picked[0]) {
            // Only one driver exists; fall back to a fresh input.
            const std::string name = Numbered("pi", num_inputs++);
            design.AddInputPort(
                name, rng.UniformReal(0.0, config.arrival_max_ps));
            tokens.push_back(name);
            continue;
          }
        }
        picked.push_back(d);
        tokens.push_back(drivers[d].token);
      } else {
        const std::string name = Numbered("pi", num_inputs++);
        design.AddInputPort(name,
                            rng.UniformReal(0.0, config.arrival_max_ps));
        tokens.push_back(name);
      }
    }

    // --- Sink endpoints: a fresh component takes most of them; the
    // last one may instead be a fresh primary output (always for the
    // final net, so the design has at least one endpoint).
    const bool want_output =
        n + 1 == config.num_nets ||
        (sinks >= 2 && rng.Chance(config.output_fraction));
    const std::size_t comp_sinks = want_output ? sinks - 1 : sinks;
    std::size_t comp = sta::kNoIndex;
    if (comp_sinks > 0) {
      const std::string cname = Numbered("u", n);
      comp = design.AddComponent(cname);
      design.AddPin(comp, "o", sta::PinDir::kOut);
      for (std::size_t i = 0; i < comp_sinks; ++i) {
        const std::string pname = Numbered("i", i);
        design.AddPin(comp, pname, sta::PinDir::kIn);
        design.AddArc(comp, pname, "o",
                      rng.UniformReal(config.arc_delay_min_ps,
                                      config.arc_delay_max_ps));
        tokens.push_back(cname + "." + pname);
      }
      DrivePoint d;
      d.component = comp;
      d.token = cname + ".o";
      drivers.push_back(std::move(d));
    }
    if (want_output) {
      const std::string name = Numbered("po", num_outputs++);
      design.AddOutputPort(name, 0.0);  // Required set after timing.
      tokens.push_back(name);
    }

    // --- Topology: an experiment net re-roled so terminals
    // [0, sources) drive and the rest receive, matching the endpoint
    // token order above.
    NetConfig ncfg = config.net;
    ncfg.seed = config.seed * 0x9e3779b97f4a7c15ull + n + 1;
    ncfg.num_terminals = terminals;
    RcTree tree = BuildExperimentNet(ncfg, tech);
    for (std::size_t t = 0; t < terminals; ++t) {
      TerminalParams& p = tree.MutableTerminal(t);
      p.is_source = t < sources;
      p.is_sink = t >= sources;
    }
    const std::size_t net = design.AddNet(
        Numbered("n", n), NetFileName(n), tokens);
    design.nets[net].tree = std::move(tree);
  }

  // The final net always mints an output port, so every design has at
  // least one constrained endpoint.
  MSN_CHECK_MSG(num_outputs >= 1, "generated design has no output port");

  // --- Derive output required times from the design's own unoptimized
  // arrivals, scaled by required_factor.
  design.Validate();
  sta::TimingGraph graph(design);
  for (std::size_t n = 0; n < design.nets.size(); ++n) {
    graph.SetNetDelayPs(
        n, ComputeArd(*design.nets[n].tree, tech).ard_ps);
  }
  graph.Propagate();
  const std::vector<sta::EndpointSlack> slacks = graph.EndpointSlacks();
  std::size_t e = 0;
  for (sta::DesignPort& port : design.ports) {
    if (port.is_input) continue;
    const double arrival = slacks[e++].arrival_ps;
    port.time_ps = std::isfinite(arrival)
                       ? config.required_factor * arrival
                       : 0.0;
  }
  return design;
}

std::string WriteDesignFiles(const sta::Design& design,
                             const std::string& dir,
                             const std::string& name) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  for (const sta::DesignNet& net : design.nets) {
    MSN_CHECK_MSG(net.tree.has_value(),
                  "net '" << net.name << "' has no loaded topology");
    std::ofstream out(fs::path(dir) / net.msn_path);
    MSN_CHECK_MSG(out.good(), "cannot write '" << net.msn_path << "'");
    WriteNet(out, *net.tree);
  }
  const fs::path msd = fs::path(dir) / (name + ".msd");
  std::ofstream out(msd);
  MSN_CHECK_MSG(out.good(), "cannot write '" << msd.string() << "'");
  sta::WriteDesign(out, design);
  return msd.string();
}

}  // namespace msn
