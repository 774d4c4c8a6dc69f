// §4.2 run-time comparison: per-gate cost of computing Γeff for each
// technique on a representative noisy waveform (P = 35), plus the
// P-dependence of SGDP.  The paper reports ~40 us for P1/P2/LSF3/E4 and
// ~65 us for WLS5/SGDP on a Sun Blade 1000; on modern hardware the
// absolute numbers shrink by orders of magnitude but the *ratios*
// (sensitivity-based methods cost more, roughly linearly in P) are the
// reproducible shape.
//
// Production-scale additions: full-netlist run() cost, and a
// 64-noise-scenario sweep run the naive way (sequential loop of engine
// runs) vs. batched (StaEngine::sweep: one task per point, shared Γeff
// memo).  After the google-benchmark tables, a summary section
// prints the measured speedups and verifies looped and batched sweeps
// produce identical timing results.

#include <benchmark/benchmark.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <sstream>
#include <vector>

#include "charlib/characterize.hpp"
#include "core/method.hpp"
#include "core/point_based.hpp"
#include "core/sgdp.hpp"
#include "interconnect/coupled.hpp"
#include "netlist/generators.hpp"
#include "noise/scenario.hpp"
#include "sta/edits.hpp"
#include "sta/engine.hpp"
#include "sta/hiergraph.hpp"
#include "sta/macromodel.hpp"
#include "sta/scengen.hpp"
#include "sta/service.hpp"
#include "sta/sweep.hpp"
#include "util/thread_pool.hpp"
#include "wave/kernels.hpp"
#include "wave/lanes.hpp"

// ---------------------------------------------------------------------------
// Global allocation counting hook (this binary only): makes "zero
// hot-path allocations" an asserted number instead of a claim.  Every
// operator-new in the process bumps the counter; sections snapshot it
// around the code under test.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_heap_allocations{0};

uint64_t heap_allocations() noexcept {
  return g_heap_allocations.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cl = waveletic::charlib;
namespace co = waveletic::core;
namespace ic = waveletic::interconnect;
namespace nl = waveletic::netlist;
namespace no = waveletic::noise;
namespace st = waveletic::sta;
namespace wu = waveletic::util;
namespace wv = waveletic::wave;

namespace {

/// One representative noise case, simulated once and shared by all
/// benchmarks (the fits are what we time, not the golden simulator).
struct Fixture {
  waveletic::charlib::Pdk pdk;
  std::unique_ptr<no::NoiseRunner> runner;
  no::CaseWaveforms cw;

  Fixture() {
    auto spec = no::TestbenchSpec::config1();
    spec.victim_t50 = 1.5e-9;
    no::RunnerOptions opt;
    opt.dt = 2e-12;
    runner = std::make_unique<no::NoiseRunner>(pdk, spec, opt);
    cw = runner->run_case(40e-12);
  }

  [[nodiscard]] co::MethodInput input(int samples) const {
    co::MethodInput mi;
    mi.noisy_in = &cw.noisy_in;
    mi.noiseless_in = &runner->noiseless_in();
    mi.noiseless_out = &runner->noiseless_out();
    mi.in_polarity = cw.in_polarity;
    mi.out_polarity = cw.out_polarity;
    mi.vdd = pdk.vdd;
    mi.samples = samples;
    return mi;
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

void run_method(benchmark::State& state, const char* name) {
  const auto method = co::make_method(name);
  const auto mi = fixture().input(35);
  for (auto _ : state) {
    auto fit = method->fit(mi);
    benchmark::DoNotOptimize(fit);
  }
}

}  // namespace

BENCHMARK_CAPTURE(run_method, P1, "P1")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(run_method, P2, "P2")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(run_method, LSF3, "LSF3")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(run_method, E4, "E4")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(run_method, WLS5, "WLS5")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(run_method, SGDP, "SGDP")->Unit(benchmark::kMicrosecond);

/// SGDP cost scaling with the number of sampling points P (§4.2: "the
/// SGDP run-time can be reduced by using smaller P values").
static void sgdp_p_scaling(benchmark::State& state) {
  const co::SgdpMethod method;
  const auto mi = fixture().input(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto fit = method.fit(mi);
    benchmark::DoNotOptimize(fit);
  }
}
BENCHMARK(sgdp_p_scaling)
    ->Arg(5)
    ->Arg(15)
    ->Arg(35)
    ->Arg(75)
    ->Arg(155)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Waveform-kernel microbenchmarks: batched merge-scan sampling vs the
// per-point binary-search pattern it replaced (the acceptance shape:
// a 64-point grid over a 512-sample waveform).
// ---------------------------------------------------------------------------

namespace {

struct KernelFixture {
  static constexpr size_t kWaveSamples = 512;
  static constexpr size_t kGridPoints = 64;
  /// Different fits sample different arrival windows, so the benchmark
  /// cycles through many grids — a single fixed grid would let the
  /// branch predictor memorize the binary-search paths and flatter the
  /// scalar baseline.
  static constexpr size_t kNumGrids = 128;
  wv::Waveform wave;
  std::vector<std::vector<double>> grids;

  KernelFixture() {
    // A noisy transition: saturated ramp plus a glitch and ripple.
    std::vector<double> t(kWaveSamples), v(kWaveSamples);
    for (size_t i = 0; i < kWaveSamples; ++i) {
      const double x = static_cast<double>(i) / (kWaveSamples - 1);
      t[i] = x * 1e-9;
      const double ramp = std::clamp((x - 0.3) / 0.3, 0.0, 1.0) * 1.2;
      const double dip =
          -0.4 * std::exp(-std::pow((x - 0.55) / 0.04, 2.0));
      v[i] = ramp + dip + 0.02 * std::sin(60.0 * x);
    }
    wave = wv::Waveform(std::move(t), std::move(v));
    // Uniform grids over varying sub-windows (the sample_times shape),
    // deterministic LCG placement.
    uint64_t seed = 0x9e3779b97f4a7c15ull;
    auto next = [&seed] {
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<double>(seed >> 11) /
             static_cast<double>(1ull << 53);
    };
    grids.resize(kNumGrids);
    for (auto& grid : grids) {
      const double lo = next() * 0.5e-9;
      const double hi = lo + 0.2e-9 + next() * (1.0e-9 - lo - 0.2e-9);
      grid.resize(kGridPoints);
      for (size_t i = 0; i < kGridPoints; ++i) {
        grid[i] = lo + (hi - lo) * static_cast<double>(i) /
                           (kGridPoints - 1);
      }
    }
  }
};

const KernelFixture& kernel_fixture() {
  static const KernelFixture f;
  return f;
}

void kernel_sample_scalar(benchmark::State& state) {
  const auto& f = kernel_fixture();
  std::vector<double> out(KernelFixture::kGridPoints);
  size_t g = 0;
  for (auto _ : state) {
    const auto& grid = f.grids[g];
    g = (g + 1) % f.grids.size();
    for (size_t i = 0; i < grid.size(); ++i) {
      out[i] = f.wave.at(grid[i]);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(KernelFixture::kGridPoints));
}

void kernel_sample_batched(benchmark::State& state) {
  const auto& f = kernel_fixture();
  std::vector<double> out(KernelFixture::kGridPoints);
  size_t g = 0;
  for (auto _ : state) {
    const auto& grid = f.grids[g];
    g = (g + 1) % f.grids.size();
    wv::sample_into(f.wave, grid, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(KernelFixture::kGridPoints));
}

void kernel_combine_scalar(benchmark::State& state) {
  const auto& f = kernel_fixture();
  const auto other = f.wave.shifted(13e-12);
  for (auto _ : state) {
    auto c = wv::combine(f.wave, 0.7, other, 0.3);
    benchmark::DoNotOptimize(c);
  }
}

void kernel_combine_batched(benchmark::State& state) {
  const auto& f = kernel_fixture();
  const auto other = f.wave.shifted(13e-12);
  wv::Workspace ws;
  for (auto _ : state) {
    const auto scope = ws.scope();
    auto c = wv::combine_into(f.wave, 0.7, other, 0.3, ws);
    benchmark::DoNotOptimize(c);
  }
}

}  // namespace

BENCHMARK(kernel_sample_scalar)->Unit(benchmark::kNanosecond);
BENCHMARK(kernel_sample_batched)->Unit(benchmark::kNanosecond);
BENCHMARK(kernel_combine_scalar)->Unit(benchmark::kMicrosecond);
BENCHMARK(kernel_combine_batched)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Full-netlist propagation: serial run() + batched scenario sweeps
// ---------------------------------------------------------------------------

namespace {

struct StaFixture {
  static constexpr int kWidth = 48;
  waveletic::liberty::Library lib;
  nl::Netlist netlist;

  StaFixture() : lib(cl::build_vcl013_library_fast()),
                 netlist(nl::make_chain_tree(kWidth)) {}

  void constrain(st::StaEngine& sta) const {
    for (int i = 0; i < kWidth; ++i) {
      sta.set_input("a" + std::to_string(i), 0.005e-9 * i,
                    (80 + 5 * (i % 11)) * 1e-12);
    }
    sta.set_output_load("y", 6e-15);
    sta.set_required("y", 3e-9);
  }

  /// Scenario grid: aggressor alignment × strength on several victim
  /// nets, built from the clean victim ramps (same parameterization as
  /// the golden noise::NoiseRunner sweep).
  [[nodiscard]] std::vector<st::NoiseScenario> scenarios(int count) const {
    st::StaEngine clean(netlist, lib);
    constrain(clean);
    clean.run();
    std::vector<st::NoiseScenario> out;
    int i = 0;
    while (static_cast<int>(out.size()) < count) {
      const int chain = i % 8;
      const int align_step = (i / 8) % 4;
      const int strength_step = (i / 32) % 4;
      const auto& t = clean.timing("inv" + std::to_string(chain) + "_2/A",
                                   st::RiseFall::kFall);
      out.push_back(st::make_aggressor_scenario(
          "c" + std::to_string(chain) + "_1", t.arrival, t.slew,
          lib.nom_voltage, wv::Polarity::kFalling,
          (align_step - 2) * 15e-12, 0.2 + 0.15 * strength_step));
      ++i;
    }
    return out;
  }
};

const StaFixture& sta_fixture() {
  static const StaFixture f;
  return f;
}

/// Full engine run (forward + backward): one serial level walk.
void sta_run(benchmark::State& state) {
  const auto& f = sta_fixture();
  st::StaEngine sta(f.netlist, f.lib);
  f.constrain(sta);
  for (auto _ : state) {
    sta.run();
    benchmark::DoNotOptimize(sta.worst_slack());
  }
}

/// Naive scenario sweep: sequential loop of single-threaded runs.
/// Annotations are cleared between scenarios so every looped run
/// evaluates exactly one scenario — the same workload the batch does.
void sta_sweep_looped(benchmark::State& state) {
  const auto& f = sta_fixture();
  const auto scenarios = f.scenarios(static_cast<int>(state.range(0)));
  st::StaEngine sta(f.netlist, f.lib);
  f.constrain(sta);
  for (auto _ : state) {
    double acc = 0.0;
    for (const auto& sc : scenarios) {
      sta.clear_noisy_nets();
      for (const auto& e : sc.entries) {
        sta.annotate_noisy_net(e.net, e.annotation.waveform,
                               e.annotation.polarity);
      }
      sta.run();
      acc += sta.worst_slack();
    }
    benchmark::DoNotOptimize(acc);
  }
}

/// Batched sweep: one StaEngine::sweep, shared Γeff memo.  Construction
/// and scenario loading happen outside the timed loop; every sweep
/// builds a fresh memo, so every iteration is a cold sweep.
void sta_sweep_batched(benchmark::State& state) {
  const auto& f = sta_fixture();
  st::StaEngine sta(f.netlist, f.lib);
  f.constrain(sta);
  st::SweepSpec spec;
  spec.scenarios = f.scenarios(static_cast<int>(state.range(0)));
  spec.threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    const auto result = sta.sweep(spec);
    double acc = 0.0;
    for (size_t i = 0; i < result.size(); ++i) acc += result.worst_slack(i);
    benchmark::DoNotOptimize(acc);
  }
}

// ---------------------------------------------------------------------------
// Sparse-scenario sweep on a ~10k-vertex netlist: the baseline+delta
// workload — 64 scenarios, each annotating ≤ 2 nets, so every cone
// covers a tiny slice of the graph and full re-propagation wastes
// almost the whole walk.
// ---------------------------------------------------------------------------

struct SparseFixture {
  waveletic::liberty::Library lib;
  nl::Netlist netlist;

  SparseFixture()
      : lib(cl::build_vcl013_library_fast()),
        netlist(nl::make_random_dag(2026, 24, 50, 80)) {}

  void constrain(st::StaEngine& sta) const {
    int i = 0;
    int o = 0;
    for (const auto& port : netlist.ports()) {
      if (port.direction == nl::PortDirection::kInput) {
        sta.set_input(port.name, 0.008e-9 * i, (75 + 9 * (i % 13)) * 1e-12);
        ++i;
      } else {
        sta.set_output_load(port.name, (4 + (o % 3)) * 1e-15);
        sta.set_required(port.name, 4e-9);
        ++o;
      }
    }
  }

  /// `count` scenarios, alternating one and two annotated victim nets,
  /// aggressor alignment cycling from dead-on to far-late.
  [[nodiscard]] std::vector<st::NoiseScenario> scenarios(int count) const {
    st::StaEngine clean(netlist, lib);
    constrain(clean);
    clean.set_threads(
        static_cast<int>(wu::ThreadPool::hardware_threads()));
    clean.run();
    struct Victim {
      std::string net;
      double arrival;
      double slew;
    };
    // Walk instances from the END: the generator appends layer by
    // layer, so late instances sit near the outputs and their fanout
    // cones are small — the realistic crosstalk-victim shape (an early-
    // layer victim's cone covers most of a deep DAG, which is full
    // re-propagation territory, not the sparse workload).
    std::vector<Victim> victims;
    const auto& instances = netlist.instances();
    for (size_t i = instances.size(); i > 0; --i) {
      const auto& inst = instances[i - 1];
      const auto& t = clean.timing(inst.name + "/A", st::RiseFall::kFall);
      if (!t.valid || t.slew <= 0.0) continue;
      victims.push_back({inst.pins.at("A"), t.arrival, t.slew});
      if (victims.size() >= 4 * static_cast<size_t>(count)) break;
    }
    // A few aggressors sit right on the clean critical path (dead-on
    // alignment: these decide the worst slack), the rest are the
    // long tail of far-offset / off-path bumps a sign-off sweep grinds
    // through — prune=safe's prey.
    std::vector<Victim> critical;
    for (const auto& step : clean.worst_path()) {
      const auto slash = step.pin.find('/');
      if (slash == std::string::npos) continue;
      const auto* inst = netlist.find_instance(step.pin.substr(0, slash));
      const auto& t = clean.timing(step.pin, st::RiseFall::kFall);
      if (!t.valid || t.slew <= 0.0) continue;
      critical.push_back(
          {inst->pins.at(step.pin.substr(slash + 1)), t.arrival, t.slew});
    }
    std::vector<st::NoiseScenario> out;
    size_t v = 0;
    for (int i = 0; i < count; ++i) {
      const bool on_path = i < 4 && !critical.empty();
      const int nets = on_path ? 1 : 1 + (i % 2);  // ≤ 2 nets each
      st::NoiseScenario sc;
      for (int n = 0; n < nets; ++n) {
        const auto& vic = on_path
                              ? critical[static_cast<size_t>(i) %
                                         critical.size()]
                              : victims[v++ % victims.size()];
        auto one = st::make_aggressor_scenario(
            vic.net, vic.arrival, vic.slew, lib.nom_voltage,
            wv::Polarity::kFalling, on_path ? 0.0 : (i % 8) * 120e-12,
            on_path ? 0.45 : 0.25 + 0.05 * (i % 4));
        if (sc.name.empty()) sc.name = one.name;
        sc.annotate(vic.net, one.entries[0].annotation.waveform,
                    one.entries[0].annotation.polarity);
      }
      out.push_back(std::move(sc));
    }
    return out;
  }
};

const SparseFixture& sparse_fixture() {
  static const SparseFixture f;
  return f;
}

// ---------------------------------------------------------------------------
// Dense-cone lane workload: a deep ~900-vertex random DAG where each
// chosen victim drives a cone covering ≥ 10% of the graph.  64
// scenarios = the 4 largest-cone victims × 16 alignment/strength
// variants, so plan dedup collapses the sweep onto 4 cones and the
// lane grouper packs 16 full 4-wide blocks — the workload the SoA
// walker exists for.  (Sparse tiny-cone sweeps are baseline-copy
// dominated and gain little from lanes; that regime is measured by the
// sparse A/B above.)
// ---------------------------------------------------------------------------

struct DenseLaneFixture {
  waveletic::liberty::Library lib;
  nl::Netlist netlist;

  DenseLaneFixture()
      : lib(cl::build_vcl013_library_fast()),
        netlist(nl::make_random_dag(2026, 14, 14, 22)) {}

  void constrain(st::StaEngine& sta) const {
    int i = 0;
    int o = 0;
    for (const auto& port : netlist.ports()) {
      if (port.direction == nl::PortDirection::kInput) {
        sta.set_input(port.name, 0.008e-9 * i, (75 + 9 * (i % 13)) * 1e-12);
        ++i;
      } else {
        sta.set_output_load(port.name, (4 + (o % 3)) * 1e-15);
        sta.set_required(port.name, 4e-9);
        ++o;
      }
    }
  }

  /// `count` scenarios cycling over the 4 largest-cone victims, each
  /// with 16 distinct (alignment × strength) aggressor variants.
  [[nodiscard]] std::vector<st::NoiseScenario> scenarios(int count) const {
    st::StaEngine clean(netlist, lib);
    constrain(clean);
    clean.run();
    struct Victim {
      std::string net;
      double arrival;
      double slew;
      size_t cone;
    };
    std::vector<Victim> victims;
    for (const auto& inst : netlist.instances()) {
      const auto& t = clean.timing(inst.name + "/A", st::RiseFall::kFall);
      if (!t.valid || t.slew <= 0.0) continue;
      auto sc = st::make_aggressor_scenario(
          inst.pins.at("A"), t.arrival, t.slew, lib.nom_voltage,
          wv::Polarity::kFalling, 0.0, 0.3);
      const size_t cone = clean.delta_plan(sc).forward.size();
      if (cone * 10 < clean.vertex_count()) continue;  // dense cones only
      victims.push_back({inst.pins.at("A"), t.arrival, t.slew, cone});
    }
    std::sort(victims.begin(), victims.end(),
              [](const Victim& a, const Victim& b) { return a.cone > b.cone; });
    if (victims.size() > 4) victims.resize(4);
    std::vector<st::NoiseScenario> out;
    out.reserve(static_cast<size_t>(count));
    for (int k = 0; k < count; ++k) {
      const auto& v = victims[static_cast<size_t>(k) % victims.size()];
      const int variant =
          (k / static_cast<int>(victims.size())) % 16;
      out.push_back(st::make_aggressor_scenario(
          v.net, v.arrival, v.slew, lib.nom_voltage, wv::Polarity::kFalling,
          ((variant % 4) - 2) * 15e-12, 0.15 + 0.05 * (variant / 4)));
    }
    return out;
  }
};

const DenseLaneFixture& dense_lane_fixture() {
  static const DenseLaneFixture f;
  return f;
}

/// One sparse sweep per iteration, delta on/off.
void sta_sweep_sparse(benchmark::State& state, bool delta) {
  const auto& f = sparse_fixture();
  const auto scenarios = f.scenarios(static_cast<int>(state.range(0)));
  st::StaEngine sta(f.netlist, f.lib);
  f.constrain(sta);
  st::SweepSpec spec;
  spec.scenarios = scenarios;
  spec.threads = static_cast<int>(state.range(1));
  spec.delta = delta;
  for (auto _ : state) {
    auto result = sta.sweep(spec);
    double acc = 0.0;
    for (size_t i = 0; i < result.size(); ++i) acc += result.worst_slack(i);
    benchmark::DoNotOptimize(acc);
  }
}

void sta_sweep_sparse_delta(benchmark::State& state) {
  sta_sweep_sparse(state, true);
}

void sta_sweep_sparse_full(benchmark::State& state) {
  sta_sweep_sparse(state, false);
}

// ---------------------------------------------------------------------------
// Generated sweep: a lazy ScenarioSpace (coupling pairs × alignment ×
// strength grid) streamed through the baseline+delta+prune pipeline in
// bounded chunks.  The alignment grid is deliberately wide so the
// window filter, not propagation, absorbs most of the candidate volume
// — the sign-off shape, where points/sec is dominated by how cheaply
// infeasible candidates die.
// ---------------------------------------------------------------------------

struct GenFixture {
  waveletic::liberty::Library lib;
  nl::Netlist netlist;

  GenFixture()
      : lib(cl::build_vcl013_library_fast()),
        netlist(nl::make_random_dag(2026, 12, 8, 12)) {}

  void constrain(st::StaEngine& sta) const {
    int i = 0;
    int o = 0;
    for (const auto& port : netlist.ports()) {
      if (port.direction == nl::PortDirection::kInput) {
        sta.set_input(port.name, 0.008e-9 * i, (75 + 9 * (i % 13)) * 1e-12);
        ++i;
      } else {
        sta.set_output_load(port.name, (4 + (o % 3)) * 1e-15);
        sta.set_required(port.name, 2.5e-9);
        ++o;
      }
    }
  }

  /// Space seeded from the clean engine's corner-baseline windows:
  /// ordinal-adjacency coupling candidates × 81 alignments × 8
  /// strengths (the generated_sweep example's grid).
  [[nodiscard]] st::ScenarioSpace space(
      const st::StaEngine& sta, const st::DrivesPredicate& drives) const {
    const auto candidates = ic::infer_coupling_candidates(netlist);
    auto sp = st::make_scenario_space(sta, netlist, candidates, drives,
                                      /*alignments=*/{}, /*strengths=*/{});
    for (int a = -40; a <= 40; ++a) sp.alignments.push_back(a * 50e-12);
    for (int s = 1; s <= 8; ++s) sp.strengths.push_back(0.05 * s);
    return sp;
  }
};

const GenFixture& gen_fixture() {
  static const GenFixture f;
  return f;
}

/// One full generated sweep per iteration: lazy generation, window +
/// correlation feasibility filtering, chunked baseline+delta+prune
/// evaluation.  items/sec is candidates (generated points) per second.
void sta_sweep_generated(benchmark::State& state) {
  const auto& f = gen_fixture();
  st::StaEngine sta(f.netlist, f.lib);
  f.constrain(sta);
  sta.run();
  const auto drives = st::make_drives_predicate(f.lib);
  const auto space = f.space(sta, drives);
  const st::StructuralCorrelationRule correlation(f.netlist, drives);
  for (auto _ : state) {
    st::GeneratedSweepSpec spec;
    spec.space = space;
    spec.correlation = &correlation;
    spec.prune = st::PruneMode::kSafe;
    spec.gen_chunk = static_cast<size_t>(state.range(0));
    spec.keep_point_records = false;
    auto result = sta.sweep(spec);
    benchmark::DoNotOptimize(result.worst_slack());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(space.size()));
}

}  // namespace

BENCHMARK(sta_run)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(sta_sweep_looped)
    ->Arg(64)
    ->ArgName("scenarios")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(sta_sweep_batched)
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4})
    ->ArgNames({"scenarios", "threads"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(sta_sweep_sparse_delta)
    ->Args({64, 4})
    ->ArgNames({"scenarios", "threads"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(sta_sweep_sparse_full)
    ->Args({64, 4})
    ->ArgNames({"scenarios", "threads"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(sta_sweep_generated)
    ->Arg(512)
    ->Arg(2048)
    ->ArgName("gen_chunk")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Summary: measured speedups + result-identity check
// ---------------------------------------------------------------------------

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct SweepFigures {
  double scenarios_per_sec = 0.0;
  double speedup_vs_looped = 0.0;
  double lane_scenarios_per_sec = 0.0;
  double lane_speedup_vs_scalar = 0.0;
  bool bitwise = false;
};

SweepFigures report_sweep_speedups() {
  const auto& f = sta_fixture();
  const int kScenarios = 64;
  const auto scenarios = f.scenarios(kScenarios);
  const size_t hw = wu::ThreadPool::hardware_threads();

  // Sequential loop baseline (also collects reference results).
  std::vector<double> looped_slack;
  st::StaEngine looped(f.netlist, f.lib);
  f.constrain(looped);
  const double t_looped = wall_seconds([&] {
    for (const auto& sc : scenarios) {
      looped.clear_noisy_nets();
      for (const auto& e : sc.entries) {
        looped.annotate_noisy_net(e.net, e.annotation.waveform,
                                  e.annotation.polarity);
      }
      looped.run();
      looped_slack.push_back(looped.worst_slack());
    }
  });

  // Batched at 1 thread (cache + single-pass effect) and at the
  // hardware thread count (adds the parallel fan-out).
  waveletic::sta::GammaCache::Stats statsN{};
  auto run_batched = [&](int threads, std::vector<double>& slack,
                         waveletic::sta::GammaCache::Stats& stats) {
    st::StaEngine sta(f.netlist, f.lib);
    f.constrain(sta);
    st::SweepSpec spec;
    spec.scenarios = scenarios;
    spec.threads = threads;
    st::SweepResult batch;
    const double t = wall_seconds([&] { batch = sta.sweep(spec); });
    for (size_t i = 0; i < batch.size(); ++i) {
      slack.push_back(batch.worst_slack(i));
    }
    stats = batch.cache_stats();
    return t;
  };
  std::vector<double> batched1_slack, batchedN_slack;
  waveletic::sta::GammaCache::Stats stats1{};
  const double t_batched1 = run_batched(1, batched1_slack, stats1);
  const double t_batchedN =
      run_batched(static_cast<int>(hw), batchedN_slack, statsN);

  // Endpoint-only result storage at sweep scale: 10k points (50
  // distinct bumps cycled — the Γeff memo absorbs the repeats), chunked
  // evaluation, per-point memory vs full mode.
  const int kEndpointPoints = 10000;
  double t_endpoint = 0.0;
  size_t endpoint_bytes = 0;
  size_t full_bytes = 0;
  double endpoint_worst = 0.0;
  bool endpoint_matches_full = true;
  {
    const auto distinct = f.scenarios(50);
    st::SweepSpec spec;
    spec.scenarios.reserve(kEndpointPoints);
    for (int i = 0; i < kEndpointPoints; ++i) {
      spec.scenarios.push_back(distinct[static_cast<size_t>(i) % 50]);
    }
    spec.threads = static_cast<int>(hw);
    spec.endpoint_only = true;
    st::StaEngine sta(f.netlist, f.lib);
    f.constrain(sta);
    st::SweepResult result;
    t_endpoint = wall_seconds([&] { result = sta.sweep(spec); });
    endpoint_bytes = result.result_bytes_per_point();
    endpoint_worst = result.worst_point().slack;
    // Full-mode bytes/point are per-point constant; measure on a small
    // full-state sweep of the same engine.
    st::SweepSpec small;
    small.scenarios.assign(spec.scenarios.begin(),
                           spec.scenarios.begin() + 8);
    small.threads = static_cast<int>(hw);
    const auto full = sta.sweep(small);
    full_bytes = full.result_bytes_per_point();
    // Cross-check: the stored endpoint summaries match full mode
    // bitwise (folded into the reported bitwise_identical flag).
    for (size_t i = 0; i < full.size(); ++i) {
      endpoint_matches_full = endpoint_matches_full &&
                              result.worst_slack(i) == full.worst_slack(i);
    }
    if (!endpoint_matches_full) {
      std::printf("ENDPOINT-ONLY MISMATCH — BUG\n");
    }
  }

  // Sparse-scenario baseline+delta A/B on the ~10k-vertex random DAG:
  // 64 scenarios, ≤ 2 annotated nets each, so full re-propagation
  // walks the whole graph per point while delta touches only the tiny
  // cones.  Best-of-3 interleaved; per-point worst slacks must match
  // bitwise and prune=safe must keep the exact worst point.
  const int kSparse = 64;
  double t_sparse_full = std::numeric_limits<double>::infinity();
  double t_sparse_delta = std::numeric_limits<double>::infinity();
  double t_sparse_pruned = std::numeric_limits<double>::infinity();
  size_t sparse_vertices = 0;
  waveletic::sta::PruneStats sparse_stats{};
  bool sparse_identical = true;
  {
    const auto& sf = sparse_fixture();
    const auto sparse_scens = sf.scenarios(kSparse);
    st::StaEngine sta(sf.netlist, sf.lib);
    sf.constrain(sta);
    sparse_vertices = sta.vertex_count();
    st::SweepSpec spec;
    spec.scenarios = sparse_scens;
    spec.threads = static_cast<int>(hw);
    st::SweepResult r_full, r_delta, r_pruned;
    for (int rep = 0; rep < 3; ++rep) {
      spec.delta = false;
      spec.prune = st::PruneMode::kOff;
      t_sparse_full = std::min(
          t_sparse_full, wall_seconds([&] { r_full = sta.sweep(spec); }));
      spec.delta = true;
      t_sparse_delta = std::min(
          t_sparse_delta, wall_seconds([&] { r_delta = sta.sweep(spec); }));
      spec.prune = st::PruneMode::kSafe;
      t_sparse_pruned = std::min(
          t_sparse_pruned, wall_seconds([&] { r_pruned = sta.sweep(spec); }));
      spec.prune = st::PruneMode::kOff;
    }
    for (size_t p = 0; p < r_full.size(); ++p) {
      sparse_identical =
          sparse_identical && r_full.worst_slack(p) == r_delta.worst_slack(p);
    }
    const auto wp_full = r_full.worst_point();
    const auto wp_pruned = r_pruned.worst_point();
    sparse_identical = sparse_identical && wp_full.point == wp_pruned.point &&
                       wp_full.slack == wp_pruned.slack;
    sparse_stats = r_pruned.prune_stats();
    if (!sparse_identical) std::printf("SPARSE DELTA MISMATCH — BUG\n");
  }
  const double sparse_delta_speedup = t_sparse_full / t_sparse_delta;
  const double sparse_pruned_fraction =
      static_cast<double>(sparse_stats.pruned) /
      static_cast<double>(std::max<size_t>(sparse_stats.points, 1));

  // Generated sweep: lazy ScenarioSpace → window/correlation funnel →
  // chunked baseline+delta+prune.  Cross-checked bitwise against eager
  // enumeration: drain the same generator up front, push every
  // feasibility survivor through sweep(SweepSpec), compare worst points.
  double t_generated = std::numeric_limits<double>::infinity();
  st::GenStats gen_funnel{};
  uint64_t gen_space_size = 0;
  bool gen_identical = true;
  {
    const auto& gf = gen_fixture();
    st::StaEngine sta(gf.netlist, gf.lib);
    gf.constrain(sta);
    sta.run();
    const auto drives = st::make_drives_predicate(gf.lib);
    const auto space = gf.space(sta, drives);
    gen_space_size = space.size();
    const st::StructuralCorrelationRule correlation(gf.netlist, drives);
    st::GeneratedSweepSpec spec;
    spec.space = space;
    spec.correlation = &correlation;
    spec.threads = static_cast<int>(hw);
    spec.prune = st::PruneMode::kSafe;
    spec.gen_chunk = 1024;
    spec.keep_point_records = false;
    st::GeneratedSweepResult generated;
    for (int rep = 0; rep < 3; ++rep) {
      t_generated = std::min(
          t_generated, wall_seconds([&] { generated = sta.sweep(spec); }));
    }
    gen_funnel = generated.gen_stats();

    st::SweepSpec eager;
    eager.threads = static_cast<int>(hw);
    eager.endpoint_only = true;
    eager.prune = st::PruneMode::kSafe;
    st::ScenarioGenerator drain(space, &correlation);
    while (const auto c = drain.next()) {
      eager.scenarios.push_back(drain.materialize(*c));
    }
    const auto reference = sta.sweep(eager);
    const auto& wp_gen = generated.worst_point();
    const auto wp_ref = reference.worst_point();
    gen_identical = generated.worst_slack() == wp_ref.slack &&
                    wp_gen.corner == wp_ref.corner &&
                    wp_gen.scenario_name ==
                        reference.scenario_name(wp_ref.scenario);
    if (!gen_identical) std::printf("GENERATED SWEEP MISMATCH — BUG\n");
  }
  const auto gen_fraction = [&](uint64_t n) {
    return static_cast<double>(n) /
           static_cast<double>(std::max<uint64_t>(gen_funnel.generated, 1));
  };
  const double gen_points_per_sec =
      static_cast<double>(gen_funnel.generated) / t_generated;

  // Compound-aggressor generated sweep: the same fixture with
  // max_aggressors = 2 and coupled-line bump shapes.  Pair events
  // multiply the candidate volume, so nearly all of the extra space
  // must die in the index-level filters (window + correlation lift +
  // set veto) before any waveform exists — the warn gate holds the
  // pre-waveform kill fraction above 50%.  Cross-checked bitwise
  // against eager enumeration like the single-aggressor run.
  double t_compound = std::numeric_limits<double>::infinity();
  st::GenStats compound_funnel{};
  uint64_t compound_space_size = 0;
  uint64_t compound_events = 0;
  bool compound_identical = true;
  {
    const auto& gf = gen_fixture();
    st::StaEngine sta(gf.netlist, gf.lib);
    gf.constrain(sta);
    sta.run();
    const auto drives = st::make_drives_predicate(gf.lib);
    auto space = gf.space(sta, drives);
    space.max_aggressors = 2;
    space.bump_shape = st::BumpShape::kCoupledLine;
    compound_space_size = space.size();
    compound_events = space.num_events();
    const st::StructuralCorrelationRule correlation(gf.netlist, drives);
    st::GeneratedSweepSpec spec;
    spec.space = space;
    spec.correlation = &correlation;
    spec.threads = static_cast<int>(hw);
    spec.prune = st::PruneMode::kSafe;
    spec.gen_chunk = 1024;
    spec.keep_point_records = false;
    st::GeneratedSweepResult compound;
    for (int rep = 0; rep < 2; ++rep) {
      t_compound = std::min(t_compound,
                            wall_seconds([&] { compound = sta.sweep(spec); }));
    }
    compound_funnel = compound.gen_stats();

    st::SweepSpec eager;
    eager.threads = static_cast<int>(hw);
    eager.endpoint_only = true;
    eager.prune = st::PruneMode::kSafe;
    st::ScenarioGenerator drain(space, &correlation);
    while (const auto c = drain.next()) {
      eager.scenarios.push_back(drain.materialize(*c));
    }
    const auto reference = sta.sweep(eager);
    const auto& wp_gen = compound.worst_point();
    const auto wp_ref = reference.worst_point();
    compound_identical = compound.worst_slack() == wp_ref.slack &&
                         wp_gen.corner == wp_ref.corner &&
                         wp_gen.scenario_name ==
                             reference.scenario_name(wp_ref.scenario);
    if (!compound_identical) std::printf("COMPOUND SWEEP MISMATCH — BUG\n");
  }
  const auto compound_fraction = [&](uint64_t n) {
    return static_cast<double>(n) / static_cast<double>(std::max<uint64_t>(
                                        compound_funnel.generated, 1));
  };
  const double compound_points_per_sec =
      static_cast<double>(compound_funnel.generated) / t_compound;
  const double compound_prewave_killed = compound_fraction(
      compound_funnel.window_killed + compound_funnel.correlation_killed +
      compound_funnel.set_killed);

  // SIMD lane A/B on the dense 64-scenario delta sweep (the dense-cone
  // random-DAG fixture: 4 victims × 16 variants, every cone ≥ 10% of
  // the ~900-vertex graph).  lanes=1 pins the scalar per-point path,
  // lanes=0 auto-selects the widest compiled width (4 on AVX2 builds,
  // where the two runs must match bitwise per point — the lane
  // determinism contract).  Best-of-5 interleaved.  Measured under two
  // noise methods: P1 (propagation-bound — the graph walk the lane
  // layer vectorizes) is the headline; SGDP (the default) also runs
  // its scalar per-lane Newton Γeff fits, which bound its lane gain
  // near ~1.3× by Amdahl, and is reported alongside.  On scalar-only
  // builds/CPUs both runs take the same path and the speedup is ~1.0.
  const int lane_width = wv::active_lane_width();
  const int kLaneScenarios = 64;
  size_t lane_vertices = 0;
  double t_lane_scalar = std::numeric_limits<double>::infinity();
  double t_lane_wide = std::numeric_limits<double>::infinity();
  double t_lane_sgdp_scalar = std::numeric_limits<double>::infinity();
  double t_lane_sgdp_wide = std::numeric_limits<double>::infinity();
  bool lane_identical = true;
  {
    static waveletic::core::P1Method p1;
    const auto& df = dense_lane_fixture();
    const auto dense_scenarios = df.scenarios(kLaneScenarios);
    st::StaEngine sta(df.netlist, df.lib);
    df.constrain(sta);
    lane_vertices = sta.vertex_count();
    st::SweepSpec spec;
    spec.scenarios = dense_scenarios;
    spec.threads = static_cast<int>(hw);
    spec.delta = true;
    st::SweepResult r_scalar, r_wide, r_sgdp_scalar, r_sgdp_wide;
    for (int rep = 0; rep < 5; ++rep) {
      spec.method = &p1;
      spec.lanes = 1;
      t_lane_scalar = std::min(
          t_lane_scalar, wall_seconds([&] { r_scalar = sta.sweep(spec); }));
      spec.lanes = 0;
      t_lane_wide = std::min(
          t_lane_wide, wall_seconds([&] { r_wide = sta.sweep(spec); }));
      spec.method = nullptr;  // engine default (SGDP)
      spec.lanes = 1;
      t_lane_sgdp_scalar =
          std::min(t_lane_sgdp_scalar,
                   wall_seconds([&] { r_sgdp_scalar = sta.sweep(spec); }));
      spec.lanes = 0;
      t_lane_sgdp_wide =
          std::min(t_lane_sgdp_wide,
                   wall_seconds([&] { r_sgdp_wide = sta.sweep(spec); }));
    }
    // Delta cross-check on this fixture: full re-propagation must agree
    // exactly with the baseline+delta path the lane A/B runs on.
    spec.method = &p1;
    spec.delta = false;
    spec.lanes = 1;
    const auto r_full = sta.sweep(spec);
    for (size_t p = 0; p < r_scalar.size(); ++p) {
      lane_identical = lane_identical &&
                       std::bit_cast<uint64_t>(r_scalar.worst_slack(p)) ==
                           std::bit_cast<uint64_t>(r_wide.worst_slack(p)) &&
                       std::bit_cast<uint64_t>(r_sgdp_scalar.worst_slack(p)) ==
                           std::bit_cast<uint64_t>(r_sgdp_wide.worst_slack(p)) &&
                       r_scalar.worst_slack(p) == r_full.worst_slack(p);
    }
    if (!lane_identical) std::printf("LANE SWEEP MISMATCH — BUG\n");
  }
  const double lane_speedup = t_lane_scalar / t_lane_wide;
  const double lane_sgdp_speedup = t_lane_sgdp_scalar / t_lane_sgdp_wide;

  bool identical = endpoint_matches_full && sparse_identical &&
                   gen_identical && compound_identical && lane_identical;
  for (int i = 0; i < kScenarios; ++i) {
    identical = identical && looped_slack[i] == batched1_slack[i] &&
                looped_slack[i] == batchedN_slack[i];
  }

  std::printf("\n-- scenario-sweep speedup summary (%d scenarios, %zu "
              "hardware threads) --\n",
              kScenarios, hw);
  std::printf("looped sweep, 1 thread:          %8.1f ms\n", t_looped * 1e3);
  std::printf("batched sweep, 1 thread:         %8.1f ms  (%.2fx vs looped)\n",
              t_batched1 * 1e3, t_looped / t_batched1);
  std::printf("batched sweep, %2zu threads:       %8.1f ms  (%.2fx vs "
              "looped)\n",
              hw, t_batchedN * 1e3, t_looped / t_batchedN);
  std::printf("endpoint-only 10k-point sweep:   %8.1f ms  (%.1f points/sec)\n",
              t_endpoint * 1e3, kEndpointPoints / t_endpoint);
  std::printf("sparse sweep (%zu vertices, %d scenarios, <=2 nets each):\n",
              sparse_vertices, kSparse);
  std::printf("  full re-propagation:           %8.1f ms  (%.1f "
              "scenarios/sec)\n",
              t_sparse_full * 1e3, kSparse / t_sparse_full);
  std::printf("  baseline + delta:              %8.1f ms  (%.1f "
              "scenarios/sec, %.2fx vs full)%s\n",
              t_sparse_delta * 1e3, kSparse / t_sparse_delta,
              sparse_delta_speedup,
              sparse_delta_speedup >= 2.0 ? "" : "  [below 2x target]");
  std::printf("  delta + prune=safe:            %8.1f ms  (%.1f "
              "scenarios/sec, %.0f%% pruned, dirty cone %.1f%%)\n",
              t_sparse_pruned * 1e3, kSparse / t_sparse_pruned,
              sparse_pruned_fraction * 100.0,
              sparse_stats.dirty_vertex_fraction * 100.0);
  std::printf("generated sweep (%llu-candidate lazy space, chunk 1024):\n",
              static_cast<unsigned long long>(gen_space_size));
  std::printf("  %8.1f ms  (%.0f points/sec; window_killed %.1f%%, "
              "correlation_killed %.1f%%, prune_killed %.1f%%, reused "
              "%.1f%%, evaluated %.1f%%)\n",
              t_generated * 1e3, gen_points_per_sec,
              gen_fraction(gen_funnel.window_killed) * 100.0,
              gen_fraction(gen_funnel.correlation_killed) * 100.0,
              gen_fraction(gen_funnel.prune_killed) * 100.0,
              gen_fraction(gen_funnel.reused) * 100.0,
              gen_fraction(gen_funnel.evaluated) * 100.0);
  std::printf("compound generated sweep (k<=2, coupled-line bumps, %llu "
              "events, %llu candidates, chunk 1024):\n",
              static_cast<unsigned long long>(compound_events),
              static_cast<unsigned long long>(compound_space_size));
  std::printf("  %8.1f ms  (%.0f points/sec; window_killed %.1f%%, "
              "correlation_killed %.1f%%, set_killed %.1f%%, prune_killed "
              "%.1f%%, reused %.1f%%, evaluated %.1f%%)%s\n",
              t_compound * 1e3, compound_points_per_sec,
              compound_fraction(compound_funnel.window_killed) * 100.0,
              compound_fraction(compound_funnel.correlation_killed) * 100.0,
              compound_fraction(compound_funnel.set_killed) * 100.0,
              compound_fraction(compound_funnel.prune_killed) * 100.0,
              compound_fraction(compound_funnel.reused) * 100.0,
              compound_fraction(compound_funnel.evaluated) * 100.0,
              compound_prewave_killed >= 0.5
                  ? ""
                  : "  [pre-waveform kills below 50% target]");
  std::printf("lane-parallel delta sweep (dense-cone fixture: %zu vertices, "
              "%d scenarios on 4 cones, width %d):\n",
              lane_vertices, kLaneScenarios, lane_width);
  std::printf("  P1    lanes=1 (scalar oracle): %8.1f ms  (%.1f "
              "scenarios/sec)\n",
              t_lane_scalar * 1e3, kLaneScenarios / t_lane_scalar);
  std::printf("  P1    lanes=auto:              %8.1f ms  (%.1f "
              "scenarios/sec, %.2fx vs scalar)%s\n",
              t_lane_wide * 1e3, kLaneScenarios / t_lane_wide, lane_speedup,
              lane_width < 4 || lane_speedup >= 1.5
                  ? ""
                  : "  [below 1.5x target]");
  std::printf("  SGDP  lanes=1 -> lanes=auto:   %8.1f ms -> %.1f ms  (%.2fx; "
              "scalar Geff fits bound this near ~1.3x)\n",
              t_lane_sgdp_scalar * 1e3, t_lane_sgdp_wide * 1e3,
              lane_sgdp_speedup);
  std::printf("result memory per point: full %zu B -> endpoint-only %zu B "
              "(%.1fx reduction)%s  [worst slack %.4g]\n",
              full_bytes, endpoint_bytes,
              static_cast<double>(full_bytes) /
                  static_cast<double>(endpoint_bytes),
              full_bytes >= 10 * endpoint_bytes ? "" : "  [below 10x target]",
              endpoint_worst);
  std::printf("timing results identical across looped/batched/endpoint-"
              "only/delta/lanes: %s\n",
              identical ? "yes" : "NO — BUG");

  // Machine-readable summary for CI trend tracking.
  const char* json_path = "BENCH_sweep.json";
  if (FILE* f_json = std::fopen(json_path, "w")) {
    const uint64_t lookups = statsN.hits + statsN.misses;
    const double hit_rate =
        lookups == 0 ? 0.0
                     : static_cast<double>(statsN.hits) /
                           static_cast<double>(lookups);
    std::fprintf(f_json,
                 "{\n"
                 "  \"scenarios\": %d,\n"
                 "  \"threads\": %zu,\n"
                 "  \"looped_ms\": %.3f,\n"
                 "  \"batched_1t_ms\": %.3f,\n"
                 "  \"batched_ms\": %.3f,\n"
                 "  \"scenarios_per_sec\": %.1f,\n"
                 "  \"speedup_vs_looped\": %.2f,\n"
                 "  \"endpoint_points\": %d,\n"
                 "  \"endpoint_points_per_sec\": %.1f,\n"
                 "  \"endpoint_bytes_per_point\": %zu,\n"
                 "  \"full_bytes_per_point\": %zu,\n"
                 "  \"endpoint_memory_reduction\": %.1f,\n"
                 "  \"sparse_vertices\": %zu,\n"
                 "  \"sparse_scenarios\": %d,\n"
                 "  \"sparse_full_scenarios_per_sec\": %.1f,\n"
                 "  \"sparse_delta_scenarios_per_sec\": %.1f,\n"
                 "  \"sparse_delta_speedup\": %.2f,\n"
                 "  \"sparse_pruned_scenarios_per_sec\": %.1f,\n"
                 "  \"sparse_prune_evaluated\": %zu,\n"
                 "  \"sparse_prune_pruned\": %zu,\n"
                 "  \"sparse_pruned_fraction\": %.4f,\n"
                 "  \"sparse_dirty_vertex_fraction\": %.4f,\n"
                 "  \"sparse_bound_mean_gap_ps\": %.2f,\n"
                 "  \"sparse_bitwise_identical\": %s,\n"
                 "  \"gen_candidates\": %llu,\n"
                 "  \"gen_points\": %llu,\n"
                 "  \"gen_points_per_sec\": %.1f,\n"
                 "  \"gen_window_killed_fraction\": %.4f,\n"
                 "  \"gen_correlation_killed_fraction\": %.4f,\n"
                 "  \"gen_prune_killed_fraction\": %.4f,\n"
                 "  \"gen_reused_fraction\": %.4f,\n"
                 "  \"gen_evaluated_fraction\": %.4f,\n"
                 "  \"gen_chunks\": %llu,\n"
                 "  \"gen_peak_resident_scenarios\": %llu,\n"
                 "  \"gen_bitwise_identical\": %s,\n"
                 "  \"gen_compound_bump_shape\": \"%s\",\n"
                 "  \"gen_compound_events\": %llu,\n"
                 "  \"gen_compound_candidates\": %llu,\n"
                 "  \"gen_compound_points\": %llu,\n"
                 "  \"gen_compound_points_per_sec\": %.1f,\n"
                 "  \"gen_compound_window_killed_fraction\": %.4f,\n"
                 "  \"gen_compound_correlation_killed_fraction\": %.4f,\n"
                 "  \"gen_compound_set_killed_fraction\": %.4f,\n"
                 "  \"gen_compound_prewaveform_killed_fraction\": %.4f,\n"
                 "  \"gen_compound_prune_killed_fraction\": %.4f,\n"
                 "  \"gen_compound_reused_fraction\": %.4f,\n"
                 "  \"gen_compound_evaluated_fraction\": %.4f,\n"
                 "  \"gen_compound_chunks\": %llu,\n"
                 "  \"gen_compound_peak_resident_scenarios\": %llu,\n"
                 "  \"gen_compound_bitwise_identical\": %s,\n"
                 "  \"lane_width\": %d,\n"
                 "  \"lane_dense_vertices\": %zu,\n"
                 "  \"lane_scalar_scenarios_per_sec\": %.1f,\n"
                 "  \"lane_scenarios_per_sec\": %.1f,\n"
                 "  \"lane_speedup_vs_scalar\": %.2f,\n"
                 "  \"lane_sgdp_speedup_vs_scalar\": %.2f,\n"
                 "  \"lane_bitwise_identical\": %s,\n"
                 "  \"cache_hits\": %llu,\n"
                 "  \"cache_misses\": %llu,\n"
                 "  \"cache_hit_rate\": %.4f,\n"
                 "  \"bitwise_identical\": %s\n"
                 "}\n",
                 kScenarios, hw, t_looped * 1e3, t_batched1 * 1e3,
                 t_batchedN * 1e3, kScenarios / t_batchedN,
                 t_looped / t_batchedN, kEndpointPoints, kEndpointPoints / t_endpoint,
                 endpoint_bytes, full_bytes,
                 static_cast<double>(full_bytes) /
                     static_cast<double>(endpoint_bytes),
                 sparse_vertices, kSparse, kSparse / t_sparse_full,
                 kSparse / t_sparse_delta, sparse_delta_speedup,
                 kSparse / t_sparse_pruned, sparse_stats.evaluated,
                 sparse_stats.pruned, sparse_pruned_fraction,
                 sparse_stats.dirty_vertex_fraction,
                 sparse_stats.mean_bound_gap * 1e12,
                 sparse_identical ? "true" : "false",
                 static_cast<unsigned long long>(gen_space_size),
                 static_cast<unsigned long long>(gen_funnel.generated),
                 gen_points_per_sec, gen_fraction(gen_funnel.window_killed),
                 gen_fraction(gen_funnel.correlation_killed),
                 gen_fraction(gen_funnel.prune_killed),
                 gen_fraction(gen_funnel.reused),
                 gen_fraction(gen_funnel.evaluated),
                 static_cast<unsigned long long>(gen_funnel.chunks),
                 static_cast<unsigned long long>(
                     gen_funnel.peak_resident_scenarios),
                 gen_identical ? "true" : "false",
                 st::to_string(st::BumpShape::kCoupledLine),
                 static_cast<unsigned long long>(compound_events),
                 static_cast<unsigned long long>(compound_space_size),
                 static_cast<unsigned long long>(compound_funnel.generated),
                 compound_points_per_sec,
                 compound_fraction(compound_funnel.window_killed),
                 compound_fraction(compound_funnel.correlation_killed),
                 compound_fraction(compound_funnel.set_killed),
                 compound_prewave_killed,
                 compound_fraction(compound_funnel.prune_killed),
                 compound_fraction(compound_funnel.reused),
                 compound_fraction(compound_funnel.evaluated),
                 static_cast<unsigned long long>(compound_funnel.chunks),
                 static_cast<unsigned long long>(
                     compound_funnel.peak_resident_scenarios),
                 compound_identical ? "true" : "false", lane_width,
                 lane_vertices,
                 kLaneScenarios / t_lane_scalar, kLaneScenarios / t_lane_wide,
                 lane_speedup, lane_sgdp_speedup,
                 lane_identical ? "true" : "false",
                 static_cast<unsigned long long>(statsN.hits),
                 static_cast<unsigned long long>(statsN.misses), hit_rate,
                 identical ? "true" : "false");
    std::fclose(f_json);
    std::printf("wrote %s\n", json_path);
  }
  SweepFigures figures;
  figures.scenarios_per_sec = kScenarios / t_batchedN;
  figures.speedup_vs_looped = t_looped / t_batchedN;
  figures.lane_scenarios_per_sec = kLaneScenarios / t_lane_wide;
  figures.lane_speedup_vs_scalar = lane_speedup;
  figures.bitwise = identical;
  return figures;
}

// ---------------------------------------------------------------------------
// Kernel summary: measured ns/sample of batched vs scalar sampling,
// heap allocations per Γeff fit and per full propagation (legacy vs
// workspace paths), emitted as BENCH_kernels.json for CI tracking.
// ---------------------------------------------------------------------------

void report_kernel_summary(const SweepFigures& sweep) {
  const auto& kf = kernel_fixture();
  const size_t grid_n = KernelFixture::kGridPoints;
  std::vector<double> out(grid_n);
  double sink = 0.0;
  const int kReps = 200000;
  const double t_scalar = wall_seconds([&] {
    for (int r = 0; r < kReps; ++r) {
      const auto& grid = kf.grids[static_cast<size_t>(r) % kf.grids.size()];
      for (size_t i = 0; i < grid_n; ++i) out[i] = kf.wave.at(grid[i]);
      sink += out[grid_n / 2];
    }
  });
  const double t_batched = wall_seconds([&] {
    for (int r = 0; r < kReps; ++r) {
      const auto& grid = kf.grids[static_cast<size_t>(r) % kf.grids.size()];
      wv::sample_into(kf.wave, grid, out);
      sink += out[grid_n / 2];
    }
  });
  const double scalar_ns =
      t_scalar * 1e9 / (static_cast<double>(kReps) * grid_n);
  const double batched_ns =
      t_batched * 1e9 / (static_cast<double>(kReps) * grid_n);
  const double sample_speedup = scalar_ns / batched_ns;

  // Lane-layer A/B: each batched kernel pinned to the W=1 scalar oracle
  // vs the widest compiled width via LaneWidthGuard, preceded by an
  // untimed pass that cross-checks the two outputs bitwise.  On
  // scalar-only builds/CPUs the "w4" column re-runs W=1, so the JSON
  // keys stay comparable and the speedups report ~1.0.
  const bool lane_avx2 = wv::lane_width_available(4);
  const int lane_width = lane_avx2 ? 4 : 1;
  bool lane_bitwise = true;
  auto bits_equal = [](std::span<const double> a, std::span<const double> b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
        return false;
      }
    }
    return true;
  };
  const int kLaneReps = 100000;

  // sample_into: the 64-point grids over the 512-sample noisy wave.
  std::vector<double> lane_a(grid_n), lane_b(grid_n);
  for (const auto& grid : kf.grids) {
    {
      wv::LaneWidthGuard g(1);
      wv::sample_into(kf.wave, grid, lane_a);
    }
    {
      wv::LaneWidthGuard g(lane_width);
      wv::sample_into(kf.wave, grid, lane_b);
    }
    lane_bitwise = lane_bitwise && bits_equal(lane_a, lane_b);
  }
  auto time_sample = [&](int w) {
    wv::LaneWidthGuard guard(w);
    return wall_seconds([&] {
      for (int r = 0; r < kLaneReps; ++r) {
        const auto& grid =
            kf.grids[static_cast<size_t>(r) % kf.grids.size()];
        wv::sample_into(kf.wave, grid, lane_a);
        sink += lane_a[grid_n / 2];
      }
    });
  };
  const double lane_sample_w1_ns =
      time_sample(1) * 1e9 / (static_cast<double>(kLaneReps) * grid_n);
  const double lane_sample_w4_ns =
      time_sample(lane_width) * 1e9 /
      (static_cast<double>(kLaneReps) * grid_n);

  // resample_into: uniform 64-point windows cycled over the grid spans.
  std::vector<double> rs_t(grid_n), rs_v(grid_n);
  std::vector<double> rs_t2(grid_n), rs_v2(grid_n);
  for (const auto& grid : kf.grids) {
    {
      wv::LaneWidthGuard g(1);
      wv::resample_into(kf.wave, grid.front(), grid.back(), rs_t, rs_v);
    }
    {
      wv::LaneWidthGuard g(lane_width);
      wv::resample_into(kf.wave, grid.front(), grid.back(), rs_t2, rs_v2);
    }
    lane_bitwise = lane_bitwise && bits_equal(rs_t, rs_t2) &&
                   bits_equal(rs_v, rs_v2);
  }
  auto time_resample = [&](int w) {
    wv::LaneWidthGuard guard(w);
    return wall_seconds([&] {
      for (int r = 0; r < kLaneReps; ++r) {
        const auto& grid =
            kf.grids[static_cast<size_t>(r) % kf.grids.size()];
        wv::resample_into(kf.wave, grid.front(), grid.back(), rs_t, rs_v);
        sink += rs_v[grid_n / 2];
      }
    });
  };
  const double lane_resample_w1_ns =
      time_resample(1) * 1e9 / (static_cast<double>(kLaneReps) * grid_n);
  const double lane_resample_w4_ns =
      time_resample(lane_width) * 1e9 /
      (static_cast<double>(kLaneReps) * grid_n);

  // combine_into: union-grid pointwise combination (the Γeff inner
  // loop's shape); ns per merged output sample.
  const auto lane_other = kf.wave.shifted(13e-12);
  wv::Workspace lane_ws;
  size_t combine_n = 0;
  {
    const auto scope = lane_ws.scope();
    std::vector<double> c_t, c_v;
    {
      wv::LaneWidthGuard g(1);
      const auto c = wv::combine_into(kf.wave, 0.7, lane_other, 0.3, lane_ws);
      combine_n = c.size();
      c_t.assign(c.time.begin(), c.time.end());
      c_v.assign(c.value.begin(), c.value.end());
    }
    {
      wv::LaneWidthGuard g(lane_width);
      const auto c = wv::combine_into(kf.wave, 0.7, lane_other, 0.3, lane_ws);
      lane_bitwise = lane_bitwise && bits_equal(c_t, c.time) &&
                     bits_equal(c_v, c.value);
    }
  }
  const int kCombineReps = 20000;
  auto time_combine = [&](int w) {
    wv::LaneWidthGuard guard(w);
    return wall_seconds([&] {
      for (int r = 0; r < kCombineReps; ++r) {
        const auto scope = lane_ws.scope();
        const auto c =
            wv::combine_into(kf.wave, 0.7, lane_other, 0.3, lane_ws);
        sink += c.value[c.size() / 2];
      }
    });
  };
  const double lane_combine_w1_ns =
      time_combine(1) * 1e9 /
      (static_cast<double>(kCombineReps) * combine_n);
  const double lane_combine_w4_ns =
      time_combine(lane_width) * 1e9 /
      (static_cast<double>(kCombineReps) * combine_n);

  // Crossing scans: first/last/count over a ladder of levels, several
  // of them planted exactly on sample values; ns per wave sample
  // scanned per level.
  std::vector<double> lane_levels;
  for (int i = 0; i <= 15; ++i) {
    lane_levels.push_back(-0.3 + 1.5 * i / 15.0);
  }
  for (size_t i = 0; i < 4; ++i) {
    lane_levels.push_back(kf.wave.values()[37 * (i + 1)]);
  }
  for (const double level : lane_levels) {
    std::optional<double> f1, l1, f2, l2;
    size_t n1 = 0, n2 = 0;
    {
      wv::LaneWidthGuard g(1);
      f1 = wv::first_crossing(kf.wave, level);
      l1 = wv::last_crossing(kf.wave, level);
      n1 = wv::crossing_count(kf.wave, level);
    }
    {
      wv::LaneWidthGuard g(lane_width);
      f2 = wv::first_crossing(kf.wave, level);
      l2 = wv::last_crossing(kf.wave, level);
      n2 = wv::crossing_count(kf.wave, level);
    }
    lane_bitwise =
        lane_bitwise && n1 == n2 && f1.has_value() == f2.has_value() &&
        l1.has_value() == l2.has_value() &&
        (!f1 || std::bit_cast<uint64_t>(*f1) == std::bit_cast<uint64_t>(*f2)) &&
        (!l1 || std::bit_cast<uint64_t>(*l1) == std::bit_cast<uint64_t>(*l2));
  }
  const int kCrossReps = 4000;
  auto time_crossings = [&](int w) {
    wv::LaneWidthGuard guard(w);
    return wall_seconds([&] {
      for (int r = 0; r < kCrossReps; ++r) {
        for (const double level : lane_levels) {
          const auto first = wv::first_crossing(kf.wave, level);
          sink += first.value_or(0.0) +
                  static_cast<double>(wv::crossing_count(kf.wave, level));
        }
      }
    });
  };
  const double cross_points = static_cast<double>(kCrossReps) *
                              static_cast<double>(lane_levels.size()) *
                              static_cast<double>(kf.wave.size());
  const double lane_crossings_w1_ns = time_crossings(1) * 1e9 / cross_points;
  const double lane_crossings_w4_ns =
      time_crossings(lane_width) * 1e9 / cross_points;
  if (!lane_bitwise) std::printf("LANE KERNEL MISMATCH — BUG\n");

  // Heap allocations per Γeff fit: the legacy allocating path vs a
  // warmed per-worker workspace (the paper's P = 35, SGDP).
  const auto method = co::make_method("SGDP");
  auto allocs_per_fit = [&](wv::Workspace* ws, int n) {
    auto mi = fixture().input(35);
    mi.workspace = ws;
    auto warm = method->fit(mi);  // warm slabs + one-time lazies
    benchmark::DoNotOptimize(warm);
    const uint64_t before = heap_allocations();
    for (int i = 0; i < n; ++i) {
      auto fit = method->fit(mi);
      benchmark::DoNotOptimize(fit);
    }
    return static_cast<double>(heap_allocations() - before) / n;
  };
  wv::Workspace fit_ws;
  const double fit_allocs_legacy = allocs_per_fit(nullptr, 50);
  const double fit_allocs_ws = allocs_per_fit(&fit_ws, 50);

  // Heap allocations per full propagation (prepared engine, one noisy
  // net, serial reentrant evaluate — the sweep inner loop).  With a
  // warmed workspace this must be exactly zero.
  const auto& f = sta_fixture();
  st::StaEngine sta(f.netlist, f.lib);
  f.constrain(sta);
  const auto scenarios = f.scenarios(1);
  for (const auto& e : scenarios[0].entries) {
    sta.annotate_noisy_net(e.net, e.annotation.waveform,
                           e.annotation.polarity);
  }
  sta.prepare();
  const auto table = sta.compile_edge_annotations();
  st::StaEngine::EvalContext ctx;
  ctx.edge_noise = table.data();
  ctx.method = &sta.noise_method();
  st::TimingState state;
  auto allocs_per_propagate = [&](wv::Workspace* ws, int n) {
    ctx.workspace = ws;
    sta.evaluate(state, ctx);  // warm slabs + state capacity
    const uint64_t before = heap_allocations();
    for (int i = 0; i < n; ++i) sta.evaluate(state, ctx);
    return static_cast<double>(heap_allocations() - before) / n;
  };
  wv::Workspace prop_ws;
  const double prop_allocs_legacy = allocs_per_propagate(nullptr, 20);
  const double prop_allocs_ws = allocs_per_propagate(&prop_ws, 20);

  std::printf("\n-- waveform-kernel summary (%zu-point grid over %zu-sample "
              "waveform) --\n",
              grid_n, kf.wave.size());
  std::printf("sample scalar at():    %7.2f ns/point\n", scalar_ns);
  std::printf("sample_into (batched): %7.2f ns/point  (%.2fx)%s\n",
              batched_ns, sample_speedup,
              sample_speedup >= 3.0 ? "" : "  [below 3x target]");
  std::printf("lane kernels, W=1 vs W=%d (ns/point, bitwise %s):\n",
              lane_width, lane_bitwise ? "identical" : "MISMATCH — BUG");
  std::printf("  sample_into:    %6.2f -> %6.2f  (%.2fx)\n",
              lane_sample_w1_ns, lane_sample_w4_ns,
              lane_sample_w1_ns / lane_sample_w4_ns);
  std::printf("  resample_into:  %6.2f -> %6.2f  (%.2fx)\n",
              lane_resample_w1_ns, lane_resample_w4_ns,
              lane_resample_w1_ns / lane_resample_w4_ns);
  std::printf("  combine_into:   %6.2f -> %6.2f  (%.2fx)\n",
              lane_combine_w1_ns, lane_combine_w4_ns,
              lane_combine_w1_ns / lane_combine_w4_ns);
  std::printf("  crossing scans: %6.2f -> %6.2f  (%.2fx)\n",
              lane_crossings_w1_ns, lane_crossings_w4_ns,
              lane_crossings_w1_ns / lane_crossings_w4_ns);
  std::printf("allocations per SGDP fit:   legacy %6.1f  workspace %6.1f\n",
              fit_allocs_legacy, fit_allocs_ws);
  std::printf("allocations per propagate:  legacy %6.1f  workspace %6.1f%s\n",
              prop_allocs_legacy, prop_allocs_ws,
              prop_allocs_ws == 0.0 ? "  (zero hot-path allocations)"
                                    : "  [expected 0 — BUG]");
  if (sink == 12345.6789) std::printf("%f\n", sink);  // defeat DCE

  const char* json_path = "BENCH_kernels.json";
  if (FILE* f_json = std::fopen(json_path, "w")) {
    std::fprintf(f_json,
                 "{\n"
                 "  \"grid_points\": %zu,\n"
                 "  \"wave_samples\": %zu,\n"
                 "  \"hardware_threads\": %zu,\n"
                 "  \"sample_scalar_ns_per_point\": %.3f,\n"
                 "  \"sample_batched_ns_per_point\": %.3f,\n"
                 "  \"sample_into_speedup\": %.2f,\n"
                 "  \"lane_width\": %d,\n"
                 "  \"lane_sample_w1_ns_per_point\": %.3f,\n"
                 "  \"lane_sample_w4_ns_per_point\": %.3f,\n"
                 "  \"lane_sample_speedup\": %.2f,\n"
                 "  \"lane_resample_w1_ns_per_point\": %.3f,\n"
                 "  \"lane_resample_w4_ns_per_point\": %.3f,\n"
                 "  \"lane_resample_speedup\": %.2f,\n"
                 "  \"lane_combine_w1_ns_per_point\": %.3f,\n"
                 "  \"lane_combine_w4_ns_per_point\": %.3f,\n"
                 "  \"lane_combine_speedup\": %.2f,\n"
                 "  \"lane_crossings_w1_ns_per_point\": %.3f,\n"
                 "  \"lane_crossings_w4_ns_per_point\": %.3f,\n"
                 "  \"lane_crossings_speedup\": %.2f,\n"
                 "  \"lane_kernels_bitwise_identical\": %s,\n"
                 "  \"fit_allocs_legacy\": %.1f,\n"
                 "  \"fit_allocs_workspace\": %.1f,\n"
                 "  \"propagate_allocs_legacy\": %.1f,\n"
                 "  \"propagate_allocs_workspace\": %.1f,\n"
                 "  \"sweep_scenarios_per_sec\": %.1f,\n"
                 "  \"sweep_speedup_vs_looped\": %.2f,\n"

                 "  \"sweep_lane_scenarios_per_sec\": %.1f,\n"
                 "  \"sweep_lane_speedup_vs_scalar\": %.2f,\n"
                 "  \"bitwise_identical\": %s\n"
                 "}\n",
                 grid_n, kf.wave.size(),
                 wu::ThreadPool::hardware_threads(), scalar_ns, batched_ns,
                 sample_speedup, lane_width, lane_sample_w1_ns,
                 lane_sample_w4_ns, lane_sample_w1_ns / lane_sample_w4_ns,
                 lane_resample_w1_ns, lane_resample_w4_ns,
                 lane_resample_w1_ns / lane_resample_w4_ns,
                 lane_combine_w1_ns, lane_combine_w4_ns,
                 lane_combine_w1_ns / lane_combine_w4_ns,
                 lane_crossings_w1_ns, lane_crossings_w4_ns,
                 lane_crossings_w1_ns / lane_crossings_w4_ns,
                 lane_bitwise ? "true" : "false", fit_allocs_legacy,
                 fit_allocs_ws, prop_allocs_legacy, prop_allocs_ws,
                 sweep.scenarios_per_sec, sweep.speedup_vs_looped,
                 sweep.lane_scenarios_per_sec,
                 sweep.lane_speedup_vs_scalar,
                 (sweep.bitwise && lane_bitwise) ? "true" : "false");
    std::fclose(f_json);
    std::printf("wrote %s\n", json_path);
  }
}

// ---------------------------------------------------------------------------
// Incremental STA service: the ECO loop on the ~10k-vertex random DAG —
// 256 single-net parasitic edits (the fork path: no structural rebuild)
// with interleaved worst-slack queries, against the from-scratch
// re-prepare each edit would otherwise cost.  The final snapshot is
// cross-checked bitwise against a clean engine that replays every edit.
// ---------------------------------------------------------------------------

void report_service_summary() {
  const auto& sf = sparse_fixture();
  const size_t hw = wu::ThreadPool::hardware_threads();
  const int kEdits = 256;
  const int kQueriesPerEdit = 8;

  st::Corner slow;
  slow.name = "slow";
  slow.cell_delay_scale = 1.12;
  slow.cell_slew_scale = 1.08;
  slow.wire_delay_scale = 1.25;
  const std::vector<st::Corner> corners = {st::Corner{}, slow};

  // The SparseFixture constraints expressed as the service's first
  // EditBatch (services start from an unconstrained netlist).
  st::EditBatch constraints;
  {
    int i = 0;
    int o = 0;
    for (const auto& port : sf.netlist.ports()) {
      if (port.direction == nl::PortDirection::kInput) {
        constraints.set_input_arrival(port.name, 0.008e-9 * i,
                                      (75 + 9 * (i % 13)) * 1e-12);
        ++i;
      } else {
        constraints.set_output_load(port.name, (4 + (o % 3)) * 1e-15);
        constraints.set_required(port.name, 4e-9);
        ++o;
      }
    }
  }

  // ECO edit k: bump the parasitics of one late-layer net (small dirty
  // cone — the realistic single-net ECO shape).
  const auto& instances = sf.netlist.instances();
  const size_t window = std::min<size_t>(instances.size(), 2000);
  auto eco_edit = [&](int k) {
    const auto& inst =
        instances[instances.size() - 1 -
                  static_cast<size_t>((7 * k) % static_cast<int>(window))];
    st::EditBatch b;
    b.set_net_parasitics(inst.pins.at("Y"), (1.0 + k % 5) * 1e-15,
                         (k % 3) * 2e-12);
    return b;
  };

  st::ServiceConfig cfg;
  cfg.corners = corners;
  cfg.threads = static_cast<int>(hw);
  st::StaService service(sf.netlist, sf.lib, cfg);
  service.apply(constraints);

  // The timed ECO loop: each edit publishes a snapshot, then a burst of
  // worst-slack queries lands on the new head (the read side is a
  // snapshot pin + precomputed lookup — it must be orders of magnitude
  // cheaper than an edit).
  double t_edits = 0.0;
  double t_queries = 0.0;
  double slack_acc = 0.0;
  for (int k = 0; k < kEdits; ++k) {
    t_edits += wall_seconds([&] { service.apply(eco_edit(k)); });
    t_queries += wall_seconds([&] {
      for (int q = 0; q < kQueriesPerEdit; ++q) {
        slack_acc += service.worst_slack(static_cast<size_t>(q) %
                                         corners.size());
      }
    });
  }
  benchmark::DoNotOptimize(slack_acc);
  const auto stats = service.stats();
  const double edits_per_sec = kEdits / t_edits;
  const double queries_per_sec = (kEdits * kQueriesPerEdit) / t_queries;

  // From-scratch baseline: what one edit costs without the service —
  // fresh engine, all constraints + edits so far, prepare(), full
  // evaluation of both corners (the same work evaluate_snapshot does,
  // minus the delta).
  const int kReprep = 8;
  double t_reprep = 0.0;
  for (int j = 0; j < kReprep; ++j) {
    t_reprep += wall_seconds([&] {
      st::StaEngine eng(sf.netlist, sf.lib);
      sf.constrain(eng);
      for (int k = 0; k <= j; ++k) {
        const auto e = std::get<st::SetNetParasitics>(eco_edit(k).edits()[0]);
        eng.set_net_parasitics(e.net, e.cap, e.delay);
      }
      eng.prepare();
      const auto table = eng.compile_edge_annotations();
      st::TimingState state;
      double acc = 0.0;
      for (const auto& corner : corners) {
        st::StaEngine::EvalContext ctx;
        ctx.edge_noise = table.data();
        ctx.corner = &corner;
        ctx.corner_key = corner.key();
        ctx.method = &eng.noise_method();
        eng.evaluate(state, ctx);
        acc += eng.worst_slack_in(state);
      }
      benchmark::DoNotOptimize(acc);
    });
  }
  const double reprep_per_edit = t_reprep / kReprep;
  const double edit_speedup = reprep_per_edit / (t_edits / kEdits);

  // Bitwise check: the final published snapshot vs a clean engine that
  // replays the whole edit history (last-write-wins) from scratch.
  bool bitwise = true;
  {
    st::StaEngine eng(sf.netlist, sf.lib);
    sf.constrain(eng);
    for (int k = 0; k < kEdits; ++k) {
      const auto e = std::get<st::SetNetParasitics>(eco_edit(k).edits()[0]);
      eng.set_net_parasitics(e.net, e.cap, e.delay);
    }
    eng.prepare();
    const auto table = eng.compile_edge_annotations();
    const auto snap = service.snapshot();
    for (size_t c = 0; c < corners.size(); ++c) {
      st::StaEngine::EvalContext ctx;
      ctx.edge_noise = table.data();
      ctx.corner = &corners[c];
      ctx.corner_key = corners[c].key();
      ctx.method = &eng.noise_method();
      st::TimingState state;
      eng.evaluate(state, ctx);
      const auto& got = snap->baseline(c);
      if (state.size() != got.size()) {
        bitwise = false;
        break;
      }
      for (size_t v = 0; v < state.size(); ++v) {
        for (int rf = 0; rf < 2; ++rf) {
          const auto& a = state[v].timing[rf];
          const auto& b = got[v].timing[rf];
          bitwise = bitwise && a.valid == b.valid &&
                    std::bit_cast<uint64_t>(a.arrival) ==
                        std::bit_cast<uint64_t>(b.arrival) &&
                    std::bit_cast<uint64_t>(a.slew) ==
                        std::bit_cast<uint64_t>(b.slew) &&
                    std::bit_cast<uint64_t>(a.required) ==
                        std::bit_cast<uint64_t>(b.required);
        }
      }
    }
    if (!bitwise) std::printf("SERVICE SNAPSHOT MISMATCH — BUG\n");
  }

  std::printf("\n-- incremental service summary (%zu-vertex DAG, %d edits, "
              "%d corners, %zu threads) --\n",
              service.snapshot()->engine().vertex_count(), kEdits,
              static_cast<int>(corners.size()), hw);
  std::printf("edit -> publish:        %8.2f ms/edit  (%.1f edits/sec)\n",
              (t_edits / kEdits) * 1e3, edits_per_sec);
  std::printf("worst-slack query:      %8.3f us/query (%.0f queries/sec)\n",
              (t_queries / (kEdits * kQueriesPerEdit)) * 1e6,
              queries_per_sec);
  std::printf("from-scratch re-prepare: %7.2f ms/edit  (%.2fx speedup via "
              "service)%s\n",
              reprep_per_edit * 1e3, edit_speedup,
              edit_speedup >= 5.0 ? "" : "  [below 5x target]");
  std::printf("%s", st::format_service_stats(stats).c_str());
  std::printf("final snapshot bitwise identical to full re-prepare: %s\n",
              bitwise ? "yes" : "NO — BUG");

  const char* json_path = "BENCH_service.json";
  if (FILE* f_json = std::fopen(json_path, "w")) {
    std::fprintf(f_json,
                 "{\n"
                 "  \"vertices\": %zu,\n"
                 "  \"edits\": %d,\n"
                 "  \"corners\": %zu,\n"
                 "  \"threads\": %zu,\n"
                 "  \"edits_per_sec\": %.1f,\n"
                 "  \"queries_per_sec\": %.0f,\n"
                 "  \"edit_ms\": %.3f,\n"
                 "  \"query_us\": %.3f,\n"
                 "  \"reprepare_ms\": %.3f,\n"
                 "  \"edit_vs_reprepare_speedup\": %.2f,\n"
                 "  \"mean_dirty_cone_fraction\": %.4f,\n"
                 "  \"mean_publish_latency_ms\": %.3f,\n"
                 "  \"snapshots_published\": %llu,\n"
                 "  \"structural_rebuilds\": %llu,\n"
                 "  \"queries_served\": %llu,\n"
                 "  \"bitwise_identical\": %s\n"
                 "}\n",
                 service.snapshot()->engine().vertex_count(), kEdits,
                 corners.size(), hw, edits_per_sec, queries_per_sec,
                 (t_edits / kEdits) * 1e3,
                 (t_queries / (kEdits * kQueriesPerEdit)) * 1e6,
                 reprep_per_edit * 1e3, edit_speedup,
                 stats.mean_dirty_cone_fraction,
                 stats.mean_publish_latency * 1e3,
                 static_cast<unsigned long long>(stats.snapshots_published),
                 static_cast<unsigned long long>(stats.structural_rebuilds),
                 static_cast<unsigned long long>(stats.queries_served),
                 bitwise ? "true" : "false");
    std::fclose(f_json);
    std::printf("wrote %s\n", json_path);
  }
}

// ---------------------------------------------------------------------------
// Hierarchical macro-model summary: characterize one block, stitch a
// >= 1M flat-equivalent-vertex design and sweep it end-to-end on this
// machine, measure the hier-vs-flat prepare+sweep speedup at a copy
// count where the flat oracle is still feasible, and verify the
// expanded copy stays bitwise identical to flat.  Writes BENCH_hier.json
// (diffed warn-only against bench/BENCH_hier.baseline.json in CI).
// ---------------------------------------------------------------------------

/// Peak resident set (VmHWM) of this process, in bytes; 0 when
/// /proc/self/status is unavailable.
size_t peak_rss_bytes() {
  size_t kb = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %zu", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return kb * 1024;
}

/// SparseFixture::constrain's pattern applied to a stitched top: both
/// stitchers emit ports in identical order, so the counter-derived
/// constraints land on the same port names in the flat and hierarchical
/// designs.
void constrain_stitched(st::StaEngine& sta, const nl::Netlist& top) {
  int i = 0;
  int o = 0;
  for (const auto& port : top.ports()) {
    if (port.direction == nl::PortDirection::kInput) {
      sta.set_input(port.name, 0.008e-9 * i, (75 + 9 * (i % 13)) * 1e-12);
      ++i;
    } else {
      sta.set_output_load(port.name, (4 + (o % 3)) * 1e-15);
      sta.set_required(port.name, 4e-9);
      ++o;
    }
  }
}

/// `count` single-net aggressor scenarios on nets inside the expanded
/// copy ("u0/...") — the same nets exist in the flat oracle, so one
/// scenario set drives both sides of the comparison.
std::vector<st::NoiseScenario> stitched_scenarios(const st::StaEngine& clean,
                                                  const nl::Netlist& top,
                                                  double vdd, int count) {
  struct Victim {
    std::string net;
    double arrival;
    double slew;
  };
  std::vector<Victim> victims;
  const auto& instances = top.instances();
  for (size_t i = instances.size(); i > 0; --i) {
    const auto& inst = instances[i - 1];
    if (inst.name.rfind("u0/", 0) != 0) continue;
    const auto pin = inst.pins.find("A");
    if (pin == inst.pins.end()) continue;
    const auto& t = clean.timing(inst.name + "/A", st::RiseFall::kFall);
    if (!t.valid || t.slew <= 0.0) continue;
    victims.push_back({pin->second, t.arrival, t.slew});
    if (victims.size() >= static_cast<size_t>(count)) break;
  }
  std::vector<st::NoiseScenario> out;
  for (int i = 0; i < count && !victims.empty(); ++i) {
    const auto& vic = victims[static_cast<size_t>(i) % victims.size()];
    out.push_back(st::make_aggressor_scenario(
        vic.net, vic.arrival, vic.slew, vdd, wv::Polarity::kFalling,
        (i % 8) * 120e-12, 0.25 + 0.05 * (i % 4)));
  }
  return out;
}

void report_hier_summary() {
  const auto& lib = sparse_fixture().lib;
  const size_t hw = wu::ThreadPool::hardware_threads();

  // Deep, narrow block: 960 gates behind a 16-port interface, so
  // abstracting a copy erases ~2.2k interior vertices per 16 kept.
  const nl::Netlist block = nl::make_grid_block(8, 120);

  st::BlockModel model;
  const double t_extract = wall_seconds([&] {
    st::BlockModelOptions mopt;
    mopt.threads = static_cast<int>(hw);
    model = st::extract_block_model(block, lib, mopt);
  });

  // -- flat-feasible comparison point: the flat oracle still fits. ----
  nl::StitchOptions small;
  small.copies = 32;
  small.expanded = 0;

  auto hier_ref = st::HierDesign::build(block, lib, model, small);
  constrain_stitched(hier_ref.engine(), hier_ref.netlist());
  hier_ref.engine().set_threads(static_cast<int>(hw));
  hier_ref.engine().run();

  const nl::Netlist flat_top = nl::stitch_blocks_flat(block, small);
  size_t compare_flat_vertices = 0;
  bool bitwise = true;
  size_t compared = 0;
  {
    st::StaEngine flat_ref(flat_top, lib);
    constrain_stitched(flat_ref, flat_top);
    flat_ref.set_threads(static_cast<int>(hw));
    flat_ref.run();
    compare_flat_vertices = flat_ref.vertex_count();
    const auto& heng = hier_ref.engine();
    for (size_t v = 0; v < heng.vertex_count(); ++v) {
      const std::string& name = heng.vertex_name(v);
      if (name.rfind("u0/", 0) != 0) continue;
      for (const auto rf : {st::RiseFall::kRise, st::RiseFall::kFall}) {
        const auto& a = heng.timing(name, rf);
        const auto& b = flat_ref.timing(name, rf);
        bitwise = bitwise && a.valid == b.valid &&
                  std::bit_cast<uint64_t>(a.arrival) ==
                      std::bit_cast<uint64_t>(b.arrival) &&
                  std::bit_cast<uint64_t>(a.slew) ==
                      std::bit_cast<uint64_t>(b.slew);
      }
      ++compared;
    }
  }

  const auto scenarios = stitched_scenarios(
      hier_ref.engine(), hier_ref.netlist(), lib.nom_voltage, 12);

  st::SweepSpec spec;
  spec.scenarios = scenarios;
  spec.threads = static_cast<int>(hw);
  spec.endpoint_only = true;

  const auto sweep_worst = [&](st::SweepResult r) {
    double w = std::numeric_limits<double>::infinity();
    for (size_t p = 0; p < scenarios.size(); ++p) {
      const double s = r.worst_slack(p);
      if (s < w) w = s;
    }
    return w;
  };

  // Both sides timed cold, construction through sweep: what a user
  // pays per analyzed design once the block model exists (extraction
  // amortizes over every copy and every re-analysis).
  double flat_worst = 0.0;
  const double t_flat = wall_seconds([&] {
    st::StaEngine eng(flat_top, lib);
    constrain_stitched(eng, flat_top);
    flat_worst = sweep_worst(eng.sweep(spec));
  });
  double hier_worst = 0.0;
  const double t_hier = wall_seconds([&] {
    auto h = st::HierDesign::build(block, lib, model, small);
    constrain_stitched(h.engine(), h.netlist());
    hier_worst = sweep_worst(h.sweep(spec));
  });
  const double speedup = t_hier > 0.0 ? t_flat / t_hier : 0.0;

  // -- 1M headline: never materialize the flat design. ----------------
  nl::StitchOptions big = small;
  {
    nl::StitchOptions one = small;
    one.copies = 1;
    const size_t per_copy = nl::stitched_flat_vertex_count(block, one);
    big.copies =
        per_copy != 0 ? (1'000'000 + per_copy - 1) / per_copy : 400;
    while (nl::stitched_flat_vertex_count(block, big) < 1'000'000)
      ++big.copies;
  }
  size_t big_flat_vertices = 0;
  size_t big_hier_vertices = 0;
  double big_worst = 0.0;
  const double t_big = wall_seconds([&] {
    auto h = st::HierDesign::build(block, lib, model, big);
    constrain_stitched(h.engine(), h.netlist());
    big_flat_vertices = h.stitched_vertex_count();
    big_worst = sweep_worst(h.sweep(spec));
    big_hier_vertices = h.hier_vertex_count();
  });
  const size_t rss = peak_rss_bytes();

  std::printf("\n-- hierarchical macro-model summary (%zu threads) --\n", hw);
  std::printf("block: %zu instances, %zu ports -> %zu macro arcs, "
              "extract %.1f ms\n",
              block.instances().size(), block.ports().size(),
              model.arcs.size(), t_extract * 1e3);
  std::printf("flat-feasible point (%zu copies, %zu flat vs %zu hier "
              "vertices, %zu scenarios):\n",
              small.copies, compare_flat_vertices,
              hier_ref.hier_vertex_count(), scenarios.size());
  std::printf("  flat  construct+sweep: %8.1f ms (worst slack %.4f ns)\n",
              t_flat * 1e3, flat_worst * 1e9);
  std::printf("  hier  construct+sweep: %8.1f ms (worst slack %.4f ns, "
              "%.1fx speedup)%s\n",
              t_hier * 1e3, hier_worst * 1e9, speedup,
              speedup >= 10.0 ? "" : "  [below 10x target]");
  std::printf("expanded copy bitwise identical to flat: %s (%zu vertices)\n",
              bitwise ? "yes" : "NO — BUG", compared);
  std::printf("1M headline: %zu copies = %zu flat-equivalent vertices held "
              "as %zu hierarchical vertices\n",
              big.copies, big_flat_vertices, big_hier_vertices);
  std::printf("  construct+sweep end-to-end: %8.1f ms (worst slack "
              "%.4f ns)\n",
              t_big * 1e3, big_worst * 1e9);
  std::printf("  peak RSS: %.1f MB\n", static_cast<double>(rss) / 1e6);

  const char* json_path = "BENCH_hier.json";
  if (FILE* f_json = std::fopen(json_path, "w")) {
    std::fprintf(f_json,
                 "{\n"
                 "  \"hardware_threads\": %zu,\n"
                 "  \"block_instances\": %zu,\n"
                 "  \"block_ports\": %zu,\n"
                 "  \"macro_arcs\": %zu,\n"
                 "  \"extract_ms_per_block\": %.3f,\n"
                 "  \"compare_copies\": %zu,\n"
                 "  \"compare_flat_vertices\": %zu,\n"
                 "  \"compare_hier_vertices\": %zu,\n"
                 "  \"flat_sweep_ms\": %.3f,\n"
                 "  \"hier_sweep_ms\": %.3f,\n"
                 "  \"hier_vs_flat_speedup\": %.2f,\n"
                 "  \"stitched_copies\": %zu,\n"
                 "  \"stitched_vertices\": %zu,\n"
                 "  \"hier_vertices\": %zu,\n"
                 "  \"stitched_sweep_ms\": %.3f,\n"
                 "  \"peak_rss_mb\": %.1f,\n"
                 "  \"bitwise_identical\": %s\n"
                 "}\n",
                 hw, block.instances().size(), block.ports().size(),
                 model.arcs.size(), t_extract * 1e3, small.copies,
                 compare_flat_vertices, hier_ref.hier_vertex_count(),
                 t_flat * 1e3, t_hier * 1e3, speedup, big.copies,
                 big_flat_vertices, big_hier_vertices, t_big * 1e3,
                 static_cast<double>(rss) / 1e6,
                 bitwise ? "true" : "false");
    std::fclose(f_json);
    std::printf("wrote %s\n", json_path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const auto sweep_figures = report_sweep_speedups();
  report_kernel_summary(sweep_figures);
  report_service_summary();
  report_hier_summary();
  return 0;
}
