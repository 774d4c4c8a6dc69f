// Golden end-to-end regression oracle: a committed reference library
// (tests/golden/golden.lib), netlist (golden.v) and scenario set, with
// expected slacks / arrivals / waveform crossings compared at
// TOLERANCE ZERO (%.17g round-trips doubles exactly).  Future refactors
// (SIMD, pruning, scheduling changes) must reproduce these bits.
//
// Why this is portable: the library is *parsed*, never re-characterized
// (characterization runs std::pow, which is not correctly rounded and
// varies across libm versions); the scenario bumps below use a rational
// polynomial instead of a Gaussian; and the whole propagation path —
// NLDM interpolation, ramp algebra, the Γeff fits (LSQ/Gauss–Newton) —
// is +,−,×,÷,sqrt only, all IEEE correctly-rounded, with FMA
// contraction disabled build-wide (-ffp-contract=off in CMakeLists).
//
// Refresh after an INTENDED numeric change:
//   WAVELETIC_UPDATE_GOLDEN=1 ./build/test_golden
// regenerates golden.lib (re-characterized), golden.v and expected.txt;
// commit the diff alongside the change that caused it.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "charlib/characterize.hpp"
#include "interconnect/coupled.hpp"
#include "liberty/parser.hpp"
#include "liberty/writer.hpp"
#include "netlist/verilog.hpp"
#include "sta/engine.hpp"
#include "sta/sweep.hpp"
#include "sta_test_util.hpp"
#include "wave/ramp.hpp"
#include "wave/waveform.hpp"

namespace ic = waveletic::interconnect;
namespace lb = waveletic::liberty;
namespace nl = waveletic::netlist;
namespace st = waveletic::sta;
namespace tu = waveletic::statest;
namespace wv = waveletic::wave;

namespace {

std::string golden_dir() {
  return std::string(WAVELETIC_TEST_DIR) + "/golden";
}

bool update_mode() {
  const char* e = std::getenv("WAVELETIC_UPDATE_GOLDEN");
  return e != nullptr && *e != '\0' && *e != '0';
}

/// The reference netlist: two reconvergent output cones over the fast
/// VCL013 cell subset.  This string is the source of truth; update mode
/// writes it to golden.v, normal mode parses the committed file.
constexpr const char* kGoldenVerilog = R"(module golden (a, b, c, y, z);
  input a, b, c;
  output y, z;
  wire n1, n2, n3, n4, n5, n6;
  INVX1   u1 (.A(a),  .Y(n1));
  INVX4   u2 (.A(b),  .Y(n2));
  NAND2X1 u3 (.A(n1), .B(n2), .Y(n3));
  INVX1   u4 (.A(c),  .Y(n4));
  NAND2X1 u5 (.A(n3), .B(n4), .Y(n5));
  INVX4   u6 (.A(n5), .Y(y));
  NAND2X1 u7 (.A(n3), .B(n5), .Y(n6));
  INVX1   u8 (.A(n6), .Y(z));
endmodule
)";

void constrain(st::StaEngine& sta) {
  sta.set_input("a", 0.00e-9, 90e-12);
  sta.set_input("b", 0.02e-9, 120e-12);
  sta.set_input("c", 0.05e-9, 75e-12);
  sta.set_output_load("y", 5e-15);
  sta.set_output_load("z", 8e-15);
  sta.set_required("y", 1.5e-9);
  sta.set_required("z", 1.6e-9);
}

/// Aggressor scenario with a RATIONAL bump (1/(1+x²)² instead of a
/// Gaussian): bit-for-bit reproducible on any libm.
st::NoiseScenario rational_bump_scenario(const std::string& net,
                                         double victim_arrival,
                                         double victim_slew, double vdd,
                                         double alignment, double strength) {
  const auto ramp =
      wv::Ramp::from_arrival_slew(victim_arrival, victim_slew, vdd);
  const auto clean = ramp.denormalized(wv::Polarity::kFalling, 256);
  std::vector<double> t(clean.times().begin(), clean.times().end());
  std::vector<double> v(clean.values().begin(), clean.values().end());
  const double center = victim_arrival + alignment;
  const double sigma = 0.5 * victim_slew;
  for (size_t i = 0; i < t.size(); ++i) {
    const double x = (t[i] - center) / sigma;
    const double d = 1.0 + x * x;
    v[i] += strength / (d * d);  // pushes against the falling edge
  }
  st::NoiseScenario s;
  std::ostringstream name;
  name << net << "@rat," << alignment * 1e12 << "ps," << strength << "V";
  s.name = name.str();
  s.annotate(net, wv::Waveform(std::move(t), std::move(v)),
             wv::Polarity::kFalling);
  return s;
}

/// Everything the oracle pins, as ordered (key, value) pairs.
struct Record {
  std::vector<std::pair<std::string, double>> kv;
  void add(const std::string& key, double value) {
    kv.emplace_back(key, value);
  }
};

Record compute(const lb::Library& lib, const nl::Netlist& net) {
  Record rec;
  // Clean single run first (also supplies the victim ramp for bumps).
  st::StaEngine clean(net, lib);
  constrain(clean);
  clean.set_threads(1);
  clean.run();
  rec.add("clean.worst_slack", clean.worst_slack());
  const auto& victim = clean.timing("u5/A", st::RiseFall::kFall);
  rec.add("clean.u5A.fall.arrival", victim.arrival);
  rec.add("clean.u5A.fall.slew", victim.slew);

  // 2 corners × 4 rational-bump scenarios on net n3.
  st::SweepSpec spec;
  st::Corner slow;
  slow.name = "slow";
  slow.cell_delay_scale = 1.15;
  slow.cell_slew_scale = 1.10;
  slow.wire_delay_scale = 1.20;
  spec.corners = {st::Corner{}, slow};
  const double align[4] = {-30e-12, -10e-12, 10e-12, 30e-12};
  const double strength[4] = {0.30, 0.40, 0.45, 0.55};
  for (int i = 0; i < 4; ++i) {
    spec.scenarios.push_back(rational_bump_scenario(
        "n3", victim.arrival, victim.slew, lib.nom_voltage, align[i],
        strength[i]));
  }
  spec.threads = 2;

  // Waveform crossings of each annotation (pins the wave kernels too).
  for (size_t s = 0; s < spec.scenarios.size(); ++s) {
    const auto& w = spec.scenarios[s].entries.front().annotation.waveform;
    const double mid = 0.5 * lib.nom_voltage;
    const auto crossings = w.crossings(mid);
    std::ostringstream k;
    k << "scenario" << s;
    rec.add(k.str() + ".crossing_count",
            static_cast<double>(crossings.size()));
    if (!crossings.empty()) {
      rec.add(k.str() + ".first_crossing", crossings.front());
      rec.add(k.str() + ".last_crossing", crossings.back());
    }
  }

  // The 2-thread sweep must agree bitwise with a 1-thread one; record
  // the 2-thread one.
  st::StaEngine sta(net, lib);
  constrain(sta);
  const auto result = sta.sweep(spec);
  spec.threads = 1;
  const auto oracle = sta.sweep(spec);
  for (size_t p = 0; p < result.size(); ++p) {
    EXPECT_TRUE(tu::states_bitwise_equal(oracle.state(p), result.state(p),
                                         &sta))
        << "2-thread vs 1-thread divergence at point " << p;
  }

  for (size_t c = 0; c < result.num_corners(); ++c) {
    for (size_t s = 0; s < result.num_scenarios(); ++s) {
      const size_t p = result.point(c, s);
      std::ostringstream k;
      k << "c" << c << ".s" << s;
      rec.add(k.str() + ".worst_slack", result.worst_slack(p));
      for (const char* out : {"y", "z"}) {
        for (int rf = 0; rf < 2; ++rf) {
          const auto r = static_cast<st::RiseFall>(rf);
          const auto& t = result.timing(p, out, r);
          std::ostringstream kk;
          kk << k.str() << "." << out << "." << st::to_string(r);
          rec.add(kk.str() + ".arrival", t.arrival);
          rec.add(kk.str() + ".slew", t.slew);
        }
      }
      const auto ce = result.critical_endpoint(p);
      rec.add(k.str() + ".critical_endpoint",
              static_cast<double>(ce.endpoint));
    }
  }
  return rec;
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_expected(const std::string& path, const Record& rec) {
  std::ofstream os(path);
  ASSERT_TRUE(os.good()) << "cannot write " << path;
  os << "# golden expected values — regenerate with "
        "WAVELETIC_UPDATE_GOLDEN=1 ./build/test_golden\n";
  for (const auto& [key, value] : rec.kv) {
    os << key << ' ' << format_value(value) << '\n';
  }
}

std::map<std::string, std::string> read_expected(const std::string& path) {
  std::ifstream is(path);
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    out.emplace(line.substr(0, space), line.substr(space + 1));
  }
  return out;
}

}  // namespace

TEST(Golden, EndToEndRegressionToleranceZero) {
  const std::string dir = golden_dir();
  if (update_mode()) {
    // Regenerate all three artifacts: the characterized library (the
    // only non-portable step — that is WHY it is committed), the
    // netlist, and the expected values.
    const lb::Library lib = tu::vcl013();
    lb::write_liberty_file(dir + "/golden.lib", lib);
    {
      std::ofstream os(dir + "/golden.v");
      ASSERT_TRUE(os.good());
      os << kGoldenVerilog;
    }
    const auto relib = lb::parse_liberty_file(dir + "/golden.lib");
    const auto net = nl::parse_verilog_file(dir + "/golden.v");
    Record rec = compute(relib, net);
    write_expected(dir + "/expected.txt", rec);
    GTEST_SKIP() << "golden artifacts regenerated in " << dir
                 << " — commit them";
  }

  const lb::Library lib = lb::parse_liberty_file(dir + "/golden.lib");
  const auto net = nl::parse_verilog_file(dir + "/golden.v");
  const Record rec = compute(lib, net);
  const auto expected = read_expected(dir + "/expected.txt");
  ASSERT_FALSE(expected.empty())
      << "missing/empty " << dir << "/expected.txt — run with "
      << "WAVELETIC_UPDATE_GOLDEN=1 to generate";
  ASSERT_EQ(rec.kv.size(), expected.size())
      << "value-set shape changed — regenerate the golden file";
  for (const auto& [key, value] : rec.kv) {
    const auto it = expected.find(key);
    ASSERT_NE(it, expected.end()) << "expected.txt lacks key " << key;
    // Tolerance zero: the %.17g strings must match exactly.
    EXPECT_EQ(format_value(value), it->second) << "key " << key;
  }
}

TEST(Golden, CoupledBumpShapeToleranceZero) {
  // The coupled-line bump synthesis is +,−,×,÷ only (linear RC ladder,
  // PWL ramp source, LU transient, linear resampling) — no libm — so
  // every sample is pinnable at tolerance zero like the main oracle.
  const std::string dir = golden_dir();
  Record rec;
  const auto pin = [&rec](const std::string& prefix,
                          const wv::Waveform& shape) {
    rec.add(prefix + ".samples", static_cast<double>(shape.size()));
    for (size_t i = 0; i < shape.size(); ++i) {
      std::ostringstream k;
      k << prefix << "." << i;
      rec.add(k.str() + ".t", shape.time(i));
      rec.add(k.str() + ".v", shape.value(i));
    }
  };
  // The default Figure 1 testbench …
  pin("default", ic::coupled_bump_shape(ic::CoupledLinePair{}));
  // … and a detuned variant (stronger coupling, weaker holding driver,
  // slower ramp, coarser sampling) so the parameter plumbing is pinned
  // too, not just one operating point.
  {
    ic::CoupledLinePair pair;
    pair.cm_total = 180e-15;
    pair.drive_resistance = 90.0;
    pair.hold_resistance = 200.0;
    pair.load_cap = 3e-15;
    ic::CoupledBumpOptions opts;
    opts.transition = 50e-12;
    opts.steps = 128;
    opts.samples = 33;
    pin("detuned", ic::coupled_bump_shape(pair, opts));
  }

  const std::string path = dir + "/coupled_bump.txt";
  if (update_mode()) {
    write_expected(path, rec);
    GTEST_SKIP() << "coupled-bump golden regenerated at " << path
                 << " — commit it";
  }
  const auto expected = read_expected(path);
  ASSERT_FALSE(expected.empty())
      << "missing/empty " << path << " — run with "
      << "WAVELETIC_UPDATE_GOLDEN=1 to generate";
  ASSERT_EQ(rec.kv.size(), expected.size())
      << "value-set shape changed — regenerate the golden file";
  for (const auto& [key, value] : rec.kv) {
    const auto it = expected.find(key);
    ASSERT_NE(it, expected.end()) << "coupled_bump.txt lacks key " << key;
    EXPECT_EQ(format_value(value), it->second) << "key " << key;
  }
}
