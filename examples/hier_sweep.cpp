// Hierarchical macro-model flow at toy scale: characterize a small
// block into a port-level macro-model, stitch several copies with one
// expanded flat, sweep noise scenarios over the stitched design, and
// lower a bump annotated inside an abstracted copy onto its interface.
//
//   $ ./hier_sweep

#include <iostream>

#include "charlib/characterize.hpp"
#include "netlist/generators.hpp"
#include "sta/hiergraph.hpp"
#include "sta/macromodel.hpp"
#include "sta/sweep.hpp"
#include "util/units.hpp"

namespace cl = waveletic::charlib;
namespace nl = waveletic::netlist;
namespace st = waveletic::sta;
namespace wu = waveletic::util;
namespace wv = waveletic::wave;

namespace {

void constrain(st::StaEngine& sta, const nl::Netlist& top) {
  int i = 0;
  for (const auto& port : top.ports()) {
    if (port.direction == nl::PortDirection::kInput) {
      sta.set_input(port.name, 0.01e-9 * i, (80 + 10 * (i % 5)) * 1e-12);
      ++i;
    } else {
      sta.set_output_load(port.name, 5e-15);
      sta.set_required(port.name, 2.5e-9);
    }
  }
}

}  // namespace

int main() {
  const auto lib = cl::build_vcl013_library_fast();

  // 1. The block: a small random DAG standing in for a reused layout
  //    macro (a carved instance set works the same — see carve_block).
  const nl::Netlist block = nl::make_random_dag(11, 4, 6, 5);
  std::cout << "block: " << block.instances().size() << " instances, "
            << block.ports().size() << " ports\n";

  // 2. Characterize it once into port-to-port NLDM tables + noise
  //    transfers.
  const st::BlockModel model = st::extract_block_model(block, lib);
  std::cout << "macro-model: " << model.arcs.size() << " interface arcs, "
            << model.transfers.size() << " noise transfers\n";

  // 3. Stitch 6 copies — copy 0 stays gate-level, the rest become one
  //    macro instance each.
  nl::StitchOptions sopt;
  sopt.copies = 6;
  sopt.expanded = 0;
  auto hier = st::HierDesign::build(block, lib, model, sopt);
  std::cout << "stitched: " << hier.stitched_vertex_count()
            << " flat-equivalent vertices held as "
            << "hierarchical graph of " << sopt.copies << " copies\n";

  // 4. Constrain and analyze exactly like a flat engine.
  constrain(hier.engine(), hier.netlist());
  hier.engine().run();
  std::cout << "hier vertices after prepare: " << hier.hier_vertex_count()
            << ", clean WNS " << wu::format_ps(hier.engine().worst_slack())
            << "\n";

  // 5. Sweep aggressor scenarios on a net inside the expanded copy
  //    (abstracted copies are single macro instances — skip them).
  const nl::Instance* victim = nullptr;
  for (const auto& cand : hier.netlist().instances()) {
    if (cand.name.rfind("u0/", 0) == 0 && cand.pins.count("A") != 0)
      victim = &cand;
  }
  const auto& inst = *victim;
  const auto& vt = hier.engine().timing(inst.name + "/A", st::RiseFall::kFall);
  st::SweepSpec spec;
  for (int i = 0; i < 8; ++i) {
    spec.scenarios.push_back(st::make_aggressor_scenario(
        inst.pins.at("A"), vt.arrival, vt.slew, lib.nom_voltage,
        wv::Polarity::kFalling, i * 60e-12, 0.25 + 0.05 * (i % 3)));
  }
  const auto result = hier.sweep(spec);
  const auto worst = result.worst_point();
  std::cout << "swept " << spec.scenarios.size() << " scenarios, worst '"
            << spec.scenarios[worst.scenario].name << "' slack "
            << wu::format_ps(worst.slack) << "\n";

  // 6. A bump inside an *abstracted* copy has no vertex to land on:
  //    lower it onto the copy's interface by first-order sensitivity.
  const std::string inner = hier.model().transfers.front().net;
  const auto lowered = hier.lower_interior_bump(1, inner, 0.3);
  std::cout << "lowered a 0.3 V bump on u1-interior net '" << inner
            << "' onto " << lowered.entries.size()
            << " interface net(s)\n";
  return 0;
}
