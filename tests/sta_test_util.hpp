#pragma once

/// \file sta_test_util.hpp
/// Shared STA test scaffolding: the once-per-process VCL013 library,
/// netlist constraint helpers, aggressor scenario builders, random
/// engine fixtures, and the bitwise TimingState comparator with
/// first-divergence diagnostics.  test_sta_parallel, test_sta_sweep,
/// test_sta_delta and test_kernels all build on this instead of
/// copy-pasting their own builders.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "charlib/characterize.hpp"
#include "liberty/library.hpp"
#include "netlist/generators.hpp"
#include "netlist/netlist.hpp"
#include "sta/engine.hpp"
#include "sta/sweep.hpp"
#include "wave/ramp.hpp"

namespace waveletic::statest {

/// The VCL013 library, characterized once and shared by every suite in
/// the process (characterization is the slow part of these tests).
inline const liberty::Library& vcl013() {
  static const liberty::Library library =
      charlib::build_vcl013_library_fast();
  return library;
}

/// Standard constraints for make_chain_tree(width) netlists: staggered
/// input arrivals/slews, an output load and a required time on y.
inline void constrain_chain_tree(sta::StaEngine& sta, int width) {
  for (int i = 0; i < width; ++i) {
    sta.set_input("a" + std::to_string(i), 0.01e-9 * i,
                  (80 + 7 * i) * 1e-12);
  }
  sta.set_output_load("y", 6e-15);
  sta.set_required("y", 2e-9);
}

/// Generic constraints for any netlist (used by the random-DAG
/// fixtures): every input port gets staggered arrival/slew, every
/// output port gets a load and a required time.
inline void constrain_ports(sta::StaEngine& sta,
                            const netlist::Netlist& nl) {
  int i = 0;
  int o = 0;
  for (const auto& port : nl.ports()) {
    if (port.direction == netlist::PortDirection::kInput) {
      sta.set_input(port.name, 0.008e-9 * i, (75 + 9 * (i % 13)) * 1e-12);
      ++i;
    } else {
      sta.set_output_load(port.name, (4 + (o % 3)) * 1e-15);
      sta.set_required(port.name, 2.5e-9);
      ++o;
    }
  }
}

/// Aggressor-bump scenario on chain `chain` of a chain-tree netlist,
/// parameterized by alignment/strength (needs the clean run's victim
/// ramp).
inline sta::NoiseScenario chain_bump_scenario(const sta::StaEngine& clean,
                                              int chain, double alignment,
                                              double strength) {
  const std::string net = "c" + std::to_string(chain) + "_1";
  const auto& t = clean.timing("inv" + std::to_string(chain) + "_2/A",
                               sta::RiseFall::kFall);
  return sta::make_aggressor_scenario(net, t.arrival, t.slew,
                                      vcl013().nom_voltage,
                                      wave::Polarity::kFalling, alignment,
                                      strength);
}

/// A netlist + engine pair (the engine references the netlist, so both
/// live together).  Movable via unique_ptr members.
struct EngineFixture {
  std::unique_ptr<netlist::Netlist> netlist;
  std::unique_ptr<sta::StaEngine> sta;
};

/// Builds a constrained engine over a seed-deterministic random DAG —
/// the randomized-netlist entry point the determinism suites sweep.
inline EngineFixture random_engine(uint64_t seed, int inputs = 6,
                                   int layers = 5, int layer_width = 7) {
  EngineFixture f;
  f.netlist = std::make_unique<netlist::Netlist>(
      netlist::make_random_dag(seed, inputs, layers, layer_width));
  f.sta = std::make_unique<sta::StaEngine>(*f.netlist, vcl013());
  constrain_ports(*f.sta, *f.netlist);
  return f;
}

/// Scenarios for a random-DAG fixture: aggressor bumps on the first
/// few gate output nets that actually have a falling victim transition
/// at their sinks (derived from a clean run of `fixture`).
inline std::vector<sta::NoiseScenario> random_scenarios(
    const EngineFixture& fixture, int count) {
  sta::StaEngine clean(*fixture.netlist, vcl013());
  constrain_ports(clean, *fixture.netlist);
  clean.run();
  std::vector<sta::NoiseScenario> out;
  int variant = 0;
  while (static_cast<int>(out.size()) < count) {
    for (const auto& inst : fixture.netlist->instances()) {
      if (static_cast<int>(out.size()) >= count) break;
      const auto& net = inst.pins.at("A");
      const auto& t = clean.timing(inst.name + "/A", sta::RiseFall::kFall);
      if (!t.valid || t.slew <= 0.0) continue;
      out.push_back(sta::make_aggressor_scenario(
          net, t.arrival, t.slew, vcl013().nom_voltage,
          wave::Polarity::kFalling, (variant % 5 - 2) * 12e-12,
          0.25 + 0.05 * (variant % 4)));
      ++variant;
    }
    ++variant;  // next lap perturbs alignment/strength
  }
  return out;
}

/// Bitwise comparison of two full timing states.  On divergence the
/// failure message pinpoints the FIRST diverging (vertex, transition,
/// field) — with the vertex name when an engine is supplied — plus the
/// exact bit patterns and the total divergent-field count.
inline ::testing::AssertionResult states_bitwise_equal(
    const sta::TimingState& a, const sta::TimingState& b,
    const sta::StaEngine* sta = nullptr) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "state sizes differ: " << a.size() << " vs " << b.size();
  }
  auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  std::string first;
  size_t divergent = 0;
  for (size_t v = 0; v < a.size(); ++v) {
    for (int rf = 0; rf < 2; ++rf) {
      const auto& ta = a[v].timing[rf];
      const auto& tb = b[v].timing[rf];
      struct Field {
        const char* name;
        double x, y;
      };
      const Field fields[] = {{"arrival", ta.arrival, tb.arrival},
                              {"slew", ta.slew, tb.slew},
                              {"required", ta.required, tb.required}};
      const bool valid_diff = ta.valid != tb.valid;
      if (valid_diff) ++divergent;
      for (const auto& f : fields) {
        if (bits(f.x) != bits(f.y)) ++divergent;
      }
      if (first.empty() &&
          (valid_diff || bits(ta.arrival) != bits(tb.arrival) ||
           bits(ta.slew) != bits(tb.slew) ||
           bits(ta.required) != bits(tb.required))) {
        std::ostringstream os;
        os << "first divergence at vertex " << v;
        if (sta != nullptr && v < sta->vertex_count()) {
          os << " [" << sta->vertex_name(v) << "]";
        }
        os << " (" << sta::to_string(static_cast<sta::RiseFall>(rf)) << ")";
        if (valid_diff) {
          os << " valid: " << ta.valid << " vs " << tb.valid;
        }
        for (const auto& f : fields) {
          if (bits(f.x) != bits(f.y)) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          " %s: %.17g (0x%016" PRIx64
                          ") vs %.17g (0x%016" PRIx64 ")",
                          f.name, f.x, bits(f.x), f.y, bits(f.y));
            os << buf;
            break;  // first diverging field only
          }
        }
        first = os.str();
      }
    }
  }
  if (divergent == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << first << "; " << divergent << " divergent field(s) total over "
         << a.size() << " vertices";
}

}  // namespace waveletic::statest
