#include "sta/design.h"

#include <filesystem>
#include <fstream>
#include <limits>
#include <string_view>

#include "common/check.h"
#include "io/scan.h"

namespace msn::sta {

namespace {

[[noreturn]] void FailAt(std::size_t line, const std::string& message) {
  throw ParseError(line, message);
}

const char* DirName(PinDir dir) {
  switch (dir) {
    case PinDir::kIn: return "in";
    case PinDir::kOut: return "out";
    case PinDir::kInOut: return "inout";
  }
  return "?";
}

PinDir ParseDir(std::string_view token, std::size_t line) {
  if (token == "in") return PinDir::kIn;
  if (token == "out") return PinDir::kOut;
  if (token == "inout") return PinDir::kInOut;
  FailAt(line, "unknown pin direction '" + std::string(token) + "'");
}

/// Names become endpoint tokens, so they must be non-empty and '.'-free
/// (a dot would make `component.pin` ambiguous).
void CheckName(const std::string& name, const char* what,
               std::size_t line) {
  if (name.empty()) FailAt(line, std::string(what) + " name is empty");
  if (name.find('.') != std::string::npos) {
    FailAt(line, std::string(what) + " name '" + name +
                     "' must not contain '.'");
  }
}

}  // namespace

std::size_t DesignComponent::FindPin(const std::string& pin_name) const {
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i].name == pin_name) return i;
  }
  return kNoIndex;
}

std::size_t Design::AddComponent(const std::string& name,
                                 std::size_t line) {
  CheckName(name, "component", line);
  if (port_index_.count(name) != 0) {
    FailAt(line, "component '" + name + "' clashes with a port name");
  }
  if (!component_index_.emplace(name, components.size()).second) {
    FailAt(line, "duplicate component '" + name + "'");
  }
  components.push_back(DesignComponent{name, {}, {}, line});
  return components.size() - 1;
}

std::size_t Design::AddPin(std::size_t component, const std::string& name,
                           PinDir dir, std::size_t line) {
  MSN_CHECK(component < components.size());
  CheckName(name, "pin", line);
  DesignComponent& c = components[component];
  if (c.FindPin(name) != kNoIndex) {
    FailAt(line, "duplicate pin '" + c.name + "." + name + "'");
  }
  c.pins.push_back(DesignPin{name, dir, line});
  return c.pins.size() - 1;
}

void Design::AddArc(std::size_t component, const std::string& from,
                    const std::string& to, double delay_ps,
                    std::size_t line) {
  MSN_CHECK(component < components.size());
  DesignComponent& c = components[component];
  const std::size_t f = c.FindPin(from);
  const std::size_t t = c.FindPin(to);
  if (f == kNoIndex) {
    FailAt(line, "arc references unknown pin '" + c.name + "." + from + "'");
  }
  if (t == kNoIndex) {
    FailAt(line, "arc references unknown pin '" + c.name + "." + to + "'");
  }
  if (f == t) FailAt(line, "arc from a pin to itself");
  if (c.pins[f].dir == PinDir::kOut) {
    FailAt(line, "arc must start at an in or inout pin, not '" + c.name +
                     "." + from + "'");
  }
  if (c.pins[t].dir == PinDir::kIn) {
    FailAt(line, "arc must end at an out or inout pin, not '" + c.name +
                     "." + to + "'");
  }
  if (!(delay_ps >= 0.0)) {
    FailAt(line, "arc delay must be non-negative");
  }
  c.arcs.push_back(DesignArc{f, t, delay_ps, line});
}

std::size_t Design::AddInputPort(const std::string& name,
                                 double arrival_ps, std::size_t line) {
  CheckName(name, "port", line);
  if (component_index_.count(name) != 0) {
    FailAt(line, "port '" + name + "' clashes with a component name");
  }
  if (!port_index_.emplace(name, ports.size()).second) {
    FailAt(line, "duplicate port '" + name + "'");
  }
  ports.push_back(DesignPort{name, true, arrival_ps, line});
  return ports.size() - 1;
}

std::size_t Design::AddOutputPort(const std::string& name,
                                  double required_ps, std::size_t line) {
  const std::size_t index = AddInputPort(name, required_ps, line);
  ports[index].is_input = false;
  return index;
}

std::size_t Design::AddNet(const std::string& name,
                           const std::string& msn_path,
                           const std::vector<std::string>& endpoint_tokens,
                           std::size_t line) {
  CheckName(name, "net", line);
  if (msn_path.empty()) FailAt(line, "net '" + name + "' has no .msn path");
  if (endpoint_tokens.size() < 2) {
    FailAt(line, "net '" + name + "' needs at least two endpoints");
  }
  if (!net_index_.emplace(name, nets.size()).second) {
    FailAt(line, "duplicate net '" + name + "'");
  }
  DesignNet net;
  net.name = name;
  net.msn_path = msn_path;
  net.line = line;
  for (const std::string& token : endpoint_tokens) {
    const Endpoint e = ResolveEndpoint(token, line);
    for (const Endpoint& seen : net.endpoints) {
      if (seen == e) {
        FailAt(line, "net '" + name + "' lists endpoint '" + token +
                         "' twice");
      }
    }
    net.endpoints.push_back(e);
  }
  nets.push_back(std::move(net));
  return nets.size() - 1;
}

std::size_t Design::FindComponent(const std::string& name) const {
  const auto it = component_index_.find(name);
  return it == component_index_.end() ? kNoIndex : it->second;
}

std::size_t Design::FindPort(const std::string& name) const {
  const auto it = port_index_.find(name);
  return it == port_index_.end() ? kNoIndex : it->second;
}

Endpoint Design::ResolveEndpoint(const std::string& token,
                                 std::size_t line) const {
  const std::size_t dot = token.find('.');
  if (dot == std::string::npos) {
    const std::size_t port = FindPort(token);
    if (port == kNoIndex) {
      FailAt(line, "endpoint references unknown port '" + token + "'");
    }
    return Endpoint{kNoIndex, port};
  }
  const std::string comp_name = token.substr(0, dot);
  const std::string pin_name = token.substr(dot + 1);
  const std::size_t comp = FindComponent(comp_name);
  if (comp == kNoIndex) {
    FailAt(line,
           "endpoint references unknown component '" + comp_name + "'");
  }
  const std::size_t pin = components[comp].FindPin(pin_name);
  if (pin == kNoIndex) {
    FailAt(line, "endpoint references unknown pin '" + token + "'");
  }
  return Endpoint{comp, pin};
}

std::string Design::EndpointName(const Endpoint& e) const {
  if (e.IsPort()) return ports[e.pin].name;
  return components[e.component].name + "." +
         components[e.component].pins[e.pin].name;
}

void Design::Validate() const {
  // Per-pin net usage: how many nets use the pin as a sink / source
  // endpoint (indexed by component, then pin).
  struct PinUse {
    std::size_t as_sink = 0;
    std::size_t as_source = 0;
  };
  std::vector<std::vector<PinUse>> use(components.size());
  for (std::size_t c = 0; c < components.size(); ++c) {
    use[c].resize(components[c].pins.size());
  }

  for (const DesignNet& net : nets) {
    MSN_CHECK_MSG(net.tree.has_value(),
                  "net '" << net.name << "' has no loaded topology");
    const RcTree& tree = *net.tree;
    std::size_t sources = 0, sinks = 0;
    for (std::size_t t = 0; t < tree.NumTerminals(); ++t) {
      const TerminalParams& p = tree.Terminal(t);
      if (p.is_source) ++sources;
      if (p.is_sink) ++sinks;
      const Endpoint& e = net.endpoints[t];
      if (e.IsPort()) continue;
      if (p.is_source) ++use[e.component][e.pin].as_source;
      if (p.is_sink) ++use[e.component][e.pin].as_sink;
    }
    if (sources == 0) {
      FailAt(net.line, "net '" + net.name + "' has no source terminal");
    }
    if (sinks == 0) {
      FailAt(net.line, "net '" + net.name + "' has no sink terminal");
    }
  }

  for (std::size_t c = 0; c < components.size(); ++c) {
    const DesignComponent& comp = components[c];
    // Which pins source an arc / are targeted by an arc.
    std::vector<bool> arc_into(comp.pins.size(), false);
    std::vector<bool> arc_from(comp.pins.size(), false);
    for (const DesignArc& arc : comp.arcs) {
      arc_from[arc.from_pin] = true;
      arc_into[arc.to_pin] = true;
    }
    for (std::size_t p = 0; p < comp.pins.size(); ++p) {
      const DesignPin& pin = comp.pins[p];
      const std::string full = comp.name + "." + pin.name;
      const PinUse& u = use[c][p];
      switch (pin.dir) {
        case PinDir::kIn:
          // An input pin with no net has an undefined arrival; one on
          // several nets has several drivers.
          if (u.as_sink == 0) {
            FailAt(pin.line, "dangling input pin '" + full +
                                 "' (driven by no net)");
          }
          if (u.as_sink > 1) {
            FailAt(pin.line,
                   "input pin '" + full + "' is driven by several nets");
          }
          break;
        case PinDir::kOut:
          // An output pin needs a delay arc to define its arrival; it
          // may fan out to any number of nets (or none).
          if (!arc_into[p]) {
            FailAt(pin.line,
                   "output pin '" + full + "' is driven by no arc");
          }
          break;
        case PinDir::kInOut:
          if (u.as_sink + u.as_source == 0) {
            FailAt(pin.line,
                   "dangling inout pin '" + full + "' (on no net)");
          }
          if (u.as_sink > 1) {
            FailAt(pin.line,
                   "inout pin '" + full + "' is driven by several nets");
          }
          // Driving the net requires an internal path onto the pin;
          // forwarding off the net requires the pin to receive.
          if (u.as_source > 0 && !arc_into[p]) {
            FailAt(pin.line, "inout pin '" + full +
                                 "' drives a net but no arc reaches it");
          }
          if (arc_from[p] && u.as_sink == 0) {
            FailAt(pin.line, "inout pin '" + full +
                                 "' feeds an arc but receives no net");
          }
          break;
      }
    }
  }
}

Design ReadDesign(std::istream& is) {
  Design design;
  bool saw_header = false;
  bool saw_end = false;

  const std::string text = ReadAll(is);
  LineScanner in(text);
  std::string_view tag;
  while (!saw_end && in.NextRecord(&tag)) {
    const std::size_t line_no = in.LineNo();
    if (tag == "msn-design") {
      int version = 0;
      if (!in.Read(&version) || version != 1) {
        FailAt(line_no, "unsupported msn-design version");
      }
      saw_header = true;
      continue;
    }
    if (!saw_header) FailAt(line_no, "missing 'msn-design 1' header");
    if (tag == "component") {
      std::string name;
      if (!in.Read(&name)) FailAt(line_no, "malformed component record");
      design.AddComponent(name, line_no);
    } else if (tag == "pin") {
      std::string comp_name, pin_name;
      std::string_view dir;
      if (!in.Read(&comp_name, &pin_name, &dir)) {
        FailAt(line_no, "malformed pin record");
      }
      const std::size_t comp = design.FindComponent(comp_name);
      if (comp == kNoIndex) {
        FailAt(line_no, "pin references unknown component '" + comp_name +
                            "'");
      }
      design.AddPin(comp, pin_name, ParseDir(dir, line_no), line_no);
    } else if (tag == "arc") {
      std::string comp_name, from, to;
      double delay = 0.0;
      if (!in.Read(&comp_name, &from, &to, &delay)) {
        FailAt(line_no, "malformed arc record");
      }
      const std::size_t comp = design.FindComponent(comp_name);
      if (comp == kNoIndex) {
        FailAt(line_no, "arc references unknown component '" + comp_name +
                            "'");
      }
      design.AddArc(comp, from, to, delay, line_no);
    } else if (tag == "input" || tag == "output") {
      std::string name;
      double time_ps = 0.0;
      if (!in.Read(&name, &time_ps)) {
        FailAt(line_no, "malformed " + std::string(tag) + " record");
      }
      if (tag == "input") {
        design.AddInputPort(name, time_ps, line_no);
      } else {
        design.AddOutputPort(name, time_ps, line_no);
      }
    } else if (tag == "net") {
      std::string name, path;
      if (!in.Read(&name, &path)) FailAt(line_no, "malformed net record");
      std::vector<std::string> endpoints;
      std::string token;
      while (in.Read(&token)) endpoints.push_back(token);
      design.AddNet(name, path, endpoints, line_no);
    } else if (tag == "end") {
      saw_end = true;
    } else {
      FailAt(line_no, "unknown record '" + std::string(tag) + "'");
    }
  }
  if (!saw_end) FailAt(0, "missing 'end' record");
  return design;
}

void LoadDesignNets(Design* design, const std::string& base_dir) {
  namespace fs = std::filesystem;
  for (DesignNet& net : design->nets) {
    fs::path path(net.msn_path);
    if (path.is_relative() && !base_dir.empty()) {
      path = fs::path(base_dir) / path;
    }
    std::ifstream in(path);
    if (!in.good()) {
      FailAt(net.line, "net '" + net.name + "' references missing file '" +
                           path.string() + "'");
    }
    RcTree tree(WireParams{});
    try {
      tree = ReadNet(in);
    } catch (const ParseError& e) {
      FailAt(net.line, "net '" + net.name + "' (" + path.string() +
                           "): " + e.what());
    }
    if (tree.NumTerminals() != net.endpoints.size()) {
      FailAt(net.line, "net '" + net.name + "' lists " +
                           std::to_string(net.endpoints.size()) +
                           " endpoints but its topology has " +
                           std::to_string(tree.NumTerminals()) +
                           " terminals");
    }
    for (std::size_t t = 0; t < tree.NumTerminals(); ++t) {
      const TerminalParams& p = tree.Terminal(t);
      const Endpoint& e = net.endpoints[t];
      const std::string where = design->EndpointName(e);
      bool source_capable, sink_capable;
      if (e.IsPort()) {
        source_capable = design->ports[e.pin].is_input;
        sink_capable = !design->ports[e.pin].is_input;
      } else {
        const PinDir dir = design->components[e.component].pins[e.pin].dir;
        source_capable = dir != PinDir::kIn;
        sink_capable = dir != PinDir::kOut;
      }
      if (p.is_source && !source_capable) {
        FailAt(net.line, "net '" + net.name + "' terminal " +
                             std::to_string(t) +
                             " is a source but endpoint '" + where +
                             "' cannot drive");
      }
      if (p.is_sink && !sink_capable) {
        FailAt(net.line, "net '" + net.name + "' terminal " +
                             std::to_string(t) +
                             " is a sink but endpoint '" + where +
                             "' cannot receive");
      }
    }
    net.tree = std::move(tree);
  }
}

Design LoadDesign(const std::string& path) {
  std::ifstream in(path);
  MSN_CHECK_MSG(in.good(), "cannot open '" << path << "'");
  Design design = ReadDesign(in);
  LoadDesignNets(&design, std::filesystem::path(path).parent_path());
  design.Validate();
  return design;
}

void WriteDesign(std::ostream& os, const Design& design) {
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "msn-design 1\n";
  for (const DesignPort& port : design.ports) {
    os << (port.is_input ? "input " : "output ") << port.name << ' '
       << port.time_ps << '\n';
  }
  for (const DesignComponent& comp : design.components) {
    os << "component " << comp.name << '\n';
    for (const DesignPin& pin : comp.pins) {
      os << "pin " << comp.name << ' ' << pin.name << ' '
         << DirName(pin.dir) << '\n';
    }
    for (const DesignArc& arc : comp.arcs) {
      os << "arc " << comp.name << ' ' << comp.pins[arc.from_pin].name
         << ' ' << comp.pins[arc.to_pin].name << ' ' << arc.delay_ps
         << '\n';
    }
  }
  for (const DesignNet& net : design.nets) {
    os << "net " << net.name << ' ' << net.msn_path;
    for (const Endpoint& e : net.endpoints) {
      os << ' ' << design.EndpointName(e);
    }
    os << '\n';
  }
  os << "end\n";
  os.precision(old_precision);
}

}  // namespace msn::sta
