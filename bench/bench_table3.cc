// Reproduces paper Table III: the fastest driver-sizing and fastest
// repeater-insertion solutions for six sample topologies (three 10-pin,
// three 20-pin), with diameter in ps and cost in equivalent 1X buffers.
#include <iostream>

#include "bench_util.h"
#include "io/table.h"

int main() {
  using msn::TablePrinter;
  const msn::Technology tech = msn::DefaultTechnology();

  std::cout << "=== Table III: fastest sizing vs fastest repeater"
               " insertion, six sample topologies ===\n\n";

  TablePrinter t({"topology", "|net|", "DS diam (ps)", "DS cost",
                  "RI diam (ps)", "RI cost", "RI #rep"});

  int id = 1;
  for (const std::size_t n : {std::size_t{10}, std::size_t{20}}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      msn::NetConfig cfg;
      cfg.seed = seed;
      cfg.num_terminals = n;
      const msn::RcTree tree = msn::BuildExperimentNet(cfg, tech);

      const msn::MsriResult sized =
          msn::RunMsri(tree, tech, msn::bench::SizingOptions(tech));
      const msn::MsriResult rep = msn::RunMsri(tree, tech);
      const msn::TradeoffPoint* ds = sized.MinArd();
      const msn::TradeoffPoint* ri = rep.MinArd();

      t.AddRow({std::string("T").append(std::to_string(id++)),
                std::to_string(n),
                TablePrinter::Num(ds->ard_ps, 1),
                TablePrinter::Num(ds->cost, 0),
                TablePrinter::Num(ri->ard_ps, 1),
                TablePrinter::Num(ri->cost, 0),
                std::to_string(ri->num_repeaters)});
    }
  }
  t.Print(std::cout);
  std::cout << "\npaper's shape: for every topology the repeater-insertion"
               " optimum is faster than the sizing optimum.\n";
  return 0;
}
