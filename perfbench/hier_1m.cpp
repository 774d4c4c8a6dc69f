// hier_1m: extract the 960-gate grid block once, then stitch, build,
// constrain and sweep its 444-copy design — 1,001,664 flat-equivalent
// vertices held as ~16k hierarchical ones, one copy kept gate-level.
// Only macromodel extraction and the hierarchical graph do work here;
// the flat design is never built.

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "common.hpp"
#include "netlist/generators.hpp"
#include "sta/hiergraph.hpp"
#include "sta/macromodel.hpp"
#include "sta/sweep.hpp"

namespace perfbench {
namespace {

namespace nl = wl::netlist;
namespace st = wl::sta;

constexpr double kRequired = 4e-9;
constexpr size_t kTargetFlatVertices = 1'000'000;
constexpr int kScenarios = 12;

/// `width` parallel chains of `layers` gates with nearest-neighbour
/// reconvergence and every interior net consumed, so the interface stays
/// `width` inputs + `width` outputs however deep the block grows (960
/// gates behind 16 ports at 8 × 120).
nl::Netlist make_grid_block(int width, int layers) {
  const Scope span("netlist.generate");
  nl::Netlist block;
  block.name = "grid";
  std::vector<std::string> prev;
  for (int i = 0; i < width; ++i) {
    prev.push_back("a" + std::to_string(i));
    block.add_port(prev.back(), nl::PortDirection::kInput);
  }
  int gate = 0;
  for (int l = 0; l < layers; ++l) {
    std::vector<std::string> next;
    for (int g = 0; g < width; ++g) {
      const auto w = static_cast<size_t>(width);
      const auto ug = static_cast<size_t>(g);
      nl::Instance inst;
      // Appends, not operator+: GCC 12 misreports -Wrestrict on the latter.
      inst.name = "g";
      inst.name += std::to_string(gate++);
      next.emplace_back("n");
      next.back() += std::to_string(l) + "_" + std::to_string(g);
      switch ((l + g) % 3) {
        case 0:
          inst.cell = "INVX1";
          inst.pins = {{"A", prev[ug]}, {"Y", next.back()}};
          break;
        case 1:
          inst.cell = "INVX4";
          inst.pins = {{"A", prev[ug]}, {"Y", next.back()}};
          break;
        default:
          inst.cell = "NAND2X1";
          inst.pins = {{"A", prev[ug]}, {"B", prev[(ug + 1) % w]},
                       {"Y", next.back()}};
          break;
      }
      block.add_instance(std::move(inst));
    }
    prev = std::move(next);
  }
  for (const auto& net : prev) block.add_port(net, nl::PortDirection::kOutput);
  block.validate();
  return block;
}

struct Design {
  wl::liberty::Library lib;
  nl::Netlist block;
  st::BlockModel model;
};

std::unique_ptr<Design> set_up(int threads) {
  auto d = std::make_unique<Design>();
  d->lib = build_library();
  d->block = make_grid_block(8, 120);
  st::BlockModelOptions mopt;
  mopt.threads = threads;
  const Scope span("macromodel.extract");
  d->model = st::extract_block_model(d->block, d->lib, mopt);
  return d;
}

/// Single-net aggressor scenarios on nets of the expanded copy u0 — the
/// same nets exist in every stitch of the block, flat or hierarchical.
/// Victims are the last u0 gates (small cones); the seed jitters each
/// bump's alignment and strength.
std::vector<st::NoiseScenario> make_scenarios(const st::StaEngine& clean,
                                              const nl::Netlist& top,
                                              double vdd, uint64_t seed) {
  struct Victim {
    std::string net;
    double arrival;
    double slew;
  };
  std::vector<Victim> victims;
  const auto& instances = top.instances();
  for (size_t i = instances.size(); i > 0 && victims.size() < kScenarios; --i) {
    const auto& inst = instances[i - 1];
    if (inst.name.rfind("u0/", 0) != 0) continue;
    const auto pin = inst.pins.find("A");
    if (pin == inst.pins.end()) continue;
    const auto& t = clean.timing(inst.name + "/A", st::RiseFall::kFall);
    if (!t.valid || t.slew <= 0.0) continue;
    victims.push_back({pin->second, t.arrival, t.slew});
  }
  Rng rng(seed ^ 0x41e41eull);
  std::vector<st::NoiseScenario> out;
  for (int i = 0; i < kScenarios && !victims.empty(); ++i) {
    const auto& v = victims[static_cast<size_t>(i) % victims.size()];
    out.push_back(st::make_aggressor_scenario(
        v.net, v.arrival, v.slew, vdd, wl::wave::Polarity::kFalling,
        (i % 8) * 120e-12 + (rng.uniform() - 0.5) * 20e-12,
        0.25 + 0.05 * (i % 4) + 0.02 * rng.uniform()));
  }
  return out;
}

/// Every u0 vertex of `hier` bitwise equal (arrival, slew, required,
/// valid) to the same vertex of `flat`; returns the number compared, 0
/// on any mismatch.
size_t compare_u0(const st::StaEngine& hier, const st::StaEngine& flat) {
  const auto same = [](double x, double y) {
    return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
  };
  size_t compared = 0;
  for (size_t v = 0; v < hier.vertex_count(); ++v) {
    const std::string& name = hier.vertex_name(v);
    if (name.rfind("u0/", 0) != 0) continue;
    for (const auto rf : {st::RiseFall::kRise, st::RiseFall::kFall}) {
      const auto& a = hier.timing(name, rf);
      const auto& b = flat.timing(name, rf);
      if (a.valid != b.valid || !same(a.arrival, b.arrival) ||
          !same(a.slew, b.slew) || !same(a.required, b.required)) {
        return 0;
      }
    }
    ++compared;
  }
  return compared;
}

}  // namespace

void run_hier_1m(const Options& opt, Result& result) {
  auto d = repeat_setup(result, [&] { return set_up(opt.threads); });

  // The 1M design: enough copies for ≥ 1M flat-equivalent vertices.
  nl::StitchOptions small;
  small.copies = 2;
  small.topology = nl::StitchTopology::kParallel;
  small.expanded = 0;
  nl::StitchOptions big = small;
  big.copies = 1;
  const size_t per_copy = nl::stitched_flat_vertex_count(d->block, big);
  big.copies = (kTargetFlatVertices + per_copy - 1) / per_copy;
  while (nl::stitched_flat_vertex_count(d->block, big) < kTargetFlatVertices) {
    ++big.copies;
  }
  std::printf("block: %zu gates, %zu ports -> %zu macro arcs\n",
              d->block.instances().size(), d->block.ports().size(),
              d->model.arcs.size());

  // Scenarios from a clean run of the small stitch (u0 timing does not
  // depend on the copy count under kParallel).
  st::SweepSpec spec;
  {
    auto ref = st::HierDesign::build(d->block, d->lib, d->model, small);
    constrain(ref.engine(), ref.netlist(), kRequired);
    ref.engine().run();
    spec.scenarios = make_scenarios(ref.engine(), ref.netlist(),
                                    d->lib.nom_voltage, opt.seed);
  }
  spec.threads = opt.threads;
  spec.endpoint_only = true;

  std::unique_ptr<st::HierDesign> last;
  double first_worst = std::numeric_limits<double>::quiet_NaN();
  size_t flat_vertices = 0;
  const auto build_and_sweep = [&] {
    last.reset();
    const auto t0 = Clock::now();
    {
      const Scope span("hiergraph.build");
      last = std::make_unique<st::HierDesign>(
          st::HierDesign::build(d->block, d->lib, d->model, big));
      constrain(last->engine(), last->netlist(), kRequired);
    }
    double worst = std::numeric_limits<double>::infinity();
    {
      const Scope span("hiergraph.sweep");
      const auto r = last->sweep(spec);
      for (size_t p = 0; p < r.size(); ++p) {
        worst = std::min(worst, r.worst_slack(p));
      }
    }
    const double t = since(t0);
    flat_vertices = last->stitched_vertex_count();
    // Every build of the same inputs must time identically.
    if (std::isnan(first_worst)) first_worst = worst;
    result.check(std::bit_cast<uint64_t>(worst) ==
                     std::bit_cast<uint64_t>(first_worst) &&
                 flat_vertices >= kTargetFlatVertices);
    return t;
  };
  const auto samples = measure(opt, result, 3, build_and_sweep);
  double total = 0.0;
  for (const double t : samples) total += t;
  const auto s = summarize(samples);
  result.set("throughput_per_s", static_cast<double>(samples.size()) / total);
  result.set("op_p50_ms", s.median * 1e3);
  std::printf("%zu copies = %zu flat-equivalent vertices held as %zu "
              "hierarchical vertices, %zu scenarios\n",
              big.copies, flat_vertices, last->hier_vertex_count(),
              spec.scenarios.size());
  std::printf("hier_build_sweep_s: %s (worst slack %.6g s)\n",
              describe(s, 1.0, "s").c_str(), first_worst);

  // The expanded copy against the same copy of a small all-flat stitch.
  result.checks_ran = true;
  last->engine().set_threads(opt.threads);
  last->engine().run();
  const nl::Netlist flat_top = nl::stitch_blocks_flat(d->block, small);
  st::StaEngine flat(flat_top, d->lib);
  constrain(flat, flat_top, kRequired);
  flat.set_threads(opt.threads);
  flat.run();
  const size_t compared = compare_u0(last->engine(), flat);
  result.check(compared > 0);
  std::printf("expanded copy u0 bitwise equal to a %zu-copy flat stitch: %s "
              "(%zu vertices)\n",
              small.copies, compared > 0 ? "yes" : "NO", compared);
  if (!opt.trace) return;

  result.set("hiergraph.build_s", span_median("hiergraph.build"));
  result.set("hiergraph.sweep_s", span_median("hiergraph.sweep"));
  result.set("hiergraph.vertices",
             static_cast<double>(last->hier_vertex_count()));
  // The engine layer of the hierarchical graph, built once more.
  std::unique_ptr<st::StaEngine> eng;
  {
    const Scope span("engine.construct");
    eng = std::make_unique<st::StaEngine>(last->netlist(), last->library());
  }
  constrain(*eng, last->netlist(), kRequired);
  eng->set_threads(opt.threads);
  {
    const Scope span("engine.prepare");
    eng->prepare();
  }
  {
    const Scope span("engine.baseline");
    eng->run();
  }
  result.set("engine.construct_s", span_median("engine.construct"));
  result.set("engine.prepare_s", span_median("engine.prepare"));
  result.set("engine.baseline_s", span_median("engine.baseline"));
}

}  // namespace perfbench
