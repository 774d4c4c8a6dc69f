// dense_sweep: 1024 single-aggressor scenarios × {nominal, slow} on the
// ~11.5k-vertex random DAG, victims picked for large fanout cones.  The
// sweep runs baseline + delta with lanes=auto and a shared Γeff cache,
// so the time goes to the paper's propagation path: Γeff fits at the
// victims' sinks, the lane walk over the cones, and the scheduler.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>

#include "common.hpp"
#include "sta/sweep.hpp"
#include "wave/kernels.hpp"
#include "wave/lanes.hpp"

namespace perfbench {
namespace {

namespace nl = wl::netlist;
namespace st = wl::sta;

/// The design is fixed (the ~11.5k-vertex DAG of the sweep fixtures);
/// the run seed drives the scenarios.  Seeding the DAG itself moves the
/// victims' cone sizes, and with them the sweep time, by ±12%.
constexpr uint64_t kDagSeed = 2026;
constexpr int kInputs = 24;
constexpr int kLayers = 50;
constexpr int kWidth = 80;
constexpr size_t kVictims = 32;
constexpr size_t kVariants = 32;
constexpr double kRequired = 4e-9;

/// Library + netlist + prepared, baselined engine.  Heap-held: the
/// engine points into the library and netlist beside it.
struct Design {
  wl::liberty::Library lib;
  nl::Netlist netlist;
  std::unique_ptr<st::StaEngine> sta;
};

std::unique_ptr<Design> set_up(uint64_t seed, int width, int threads) {
  auto d = std::make_unique<Design>();
  d->lib = build_library();
  d->netlist = random_dag(seed, kInputs, kLayers, width);
  {
    const Scope span("engine.construct");
    d->sta = std::make_unique<st::StaEngine>(d->netlist, d->lib);
  }
  constrain(*d->sta, d->netlist, kRequired);
  d->sta->set_threads(threads);
  {
    const Scope span("engine.prepare");
    d->sta->prepare();
  }
  {
    const Scope span("engine.baseline");
    d->sta->run();
  }
  return d;
}

/// The 32 victims with the largest fanout cones (each ≥ 10% of the
/// graph), 32 seed-jittered alignment × strength variants each,
/// victim-major so every 64-point evaluation wave holds 2 victims × 32
/// variants (full lane blocks).
std::vector<st::NoiseScenario> make_scenarios(const Design& d, uint64_t seed) {
  const auto& sta = *d.sta;
  struct Victim {
    std::string net;
    double arrival;
    double slew;
    size_t cone;
  };
  std::vector<Victim> victims;
  std::set<std::string> seen;
  for (const auto& inst : d.netlist.instances()) {
    const auto& t = sta.timing(inst.name + "/A", st::RiseFall::kFall);
    const std::string& net = inst.pins.at("A");
    if (!t.valid || t.slew <= 0.0 || !seen.insert(net).second) continue;
    const auto probe = st::make_aggressor_scenario(
        net, t.arrival, t.slew, d.lib.nom_voltage, wl::wave::Polarity::kFalling,
        0.0, 0.3);
    const size_t cone = sta.delta_plan(probe).forward.size();
    if (cone * 10 < sta.vertex_count()) continue;
    victims.push_back({net, t.arrival, t.slew, cone});
  }
  std::stable_sort(victims.begin(), victims.end(),
                   [](const Victim& a, const Victim& b) {
                     return a.cone > b.cone;
                   });
  if (victims.size() < kVictims) {
    throw std::runtime_error("dense_sweep: only " +
                             std::to_string(victims.size()) +
                             " dense-cone victims");
  }
  victims.resize(kVictims);
  size_t cone_sum = 0;
  for (const auto& v : victims) cone_sum += v.cone;
  std::printf("victims: %zu, mean cone %.1f%% of the graph\n", victims.size(),
              100.0 * static_cast<double>(cone_sum) /
                  static_cast<double>(victims.size() * sta.vertex_count()));
  Rng rng(seed ^ 0xd5e5e5e5ull);
  std::vector<st::NoiseScenario> out;
  for (const auto& v : victims) {
    for (size_t k = 0; k < kVariants; ++k) {
      const double align = (static_cast<double>(k % 8) - 4.0) * 8e-12 +
                           (rng.uniform() - 0.5) * 4e-12;
      const double strength =
          0.15 + 0.05 * static_cast<double>(k / 8) + 0.02 * rng.uniform();
      out.push_back(st::make_aggressor_scenario(
          v.net, v.arrival, v.slew, d.lib.nom_voltage,
          wl::wave::Polarity::kFalling, align, strength));
    }
  }
  return out;
}

/// Per-point worst slack plus every endpoint arrival, as raw bits.
std::vector<uint64_t> fingerprint(const st::SweepResult& r) {
  std::vector<uint64_t> bits;
  bits.reserve(r.size() * (1 + 2 * r.num_endpoints()));
  for (size_t p = 0; p < r.size(); ++p) {
    bits.push_back(std::bit_cast<uint64_t>(r.worst_slack(p)));
    for (size_t e = 0; e < r.num_endpoints(); ++e) {
      for (const auto rf : {st::RiseFall::kRise, st::RiseFall::kFall}) {
        bits.push_back(std::bit_cast<uint64_t>(r.endpoint_arrival(p, e, rf)));
      }
    }
  }
  return bits;
}

double hit_rate(const st::GammaCache::Stats& s) {
  const auto lookups = s.hits + s.misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(s.hits) /
                            static_cast<double>(lookups);
}

/// Lane blocks the sweep forms: its endpoint-only waves are 64
/// consecutive corner-major points, grouped by group_lane_blocks().
void lane_figures(const st::StaEngine& sta, const st::SweepSpec& spec,
                  Result& result) {
  const int width = wl::wave::active_lane_width();
  const size_t n_s = spec.scenarios.size();
  const size_t n_points = spec.corners.size() * n_s;
  // Plans deduplicated by annotated net, as the sweep does.
  std::map<std::string, size_t> plan_of_net;
  std::vector<st::StaEngine::DeltaPlan> plans;
  std::vector<size_t> plan_of(n_s);
  {
    const Scope span("sweep.plan");
    for (size_t s = 0; s < n_s; ++s) {
      const auto& net = spec.scenarios[s].entries.front().net;
      const auto [it, fresh] = plan_of_net.try_emplace(net, plans.size());
      if (fresh) plans.push_back(sta.delta_plan(spec.scenarios[s]));
      plan_of[s] = it->second;
    }
  }
  result.set("sweep.plan_s", span_median("sweep.plan"));
  std::vector<st::TimingState> baselines(spec.corners.size());
  size_t blocks = 0;
  const size_t wave = 64;
  for (size_t first = 0; first < n_points; first += wave) {
    const size_t n = std::min(wave, n_points - first);
    std::vector<st::StaEngine::EvalContext> ctx(n);
    std::vector<const st::TimingState*> base(n);
    std::vector<const st::StaEngine::DeltaPlan*> plan(n);
    for (size_t i = 0; i < n; ++i) {
      const size_t p = first + i;
      ctx[i].corner = &spec.corners[p / n_s];
      ctx[i].method = &sta.noise_method();
      base[i] = &baselines[p / n_s];
      plan[i] = &plans[plan_of[p % n_s]];
    }
    blocks += sta.group_lane_blocks(ctx, base, plan, width).size();
  }
  result.set("lanes.blocks", static_cast<double>(blocks));
  result.set("lanes.fill_frac",
             static_cast<double>(n_points) /
                 static_cast<double>(blocks * static_cast<size_t>(width)));
  std::printf("lanes: width %d, %zu blocks for %zu points\n", width, blocks,
              n_points);
}

/// ns per sampled point of the batched waveform kernel on the sweep's
/// own annotation waveforms, at the paper's P = 35.
double sample_ns_per_point(const std::vector<st::NoiseScenario>& scenarios) {
  std::vector<double> grid(35);
  std::vector<double> out(35);
  size_t points = 0;
  const auto t0 = Clock::now();
  while (since(t0) < 0.2) {
    for (const auto& sc : scenarios) {
      const auto& w = sc.entries.front().annotation.waveform;
      wl::wave::sample_times_into(w.t_begin(), w.t_end(), grid);
      wl::wave::sample_into(w, grid, out);
      points += grid.size();
    }
  }
  return since(t0) * 1e9 / static_cast<double>(points);
}

/// construct / prepare / baseline at V, 2V and 4V (the DAG widened 1×,
/// 2×, 4×): the per-doubling growth of each stage, flagged above 2.5×.
void scaling_probe(uint64_t seed, int threads, Result& result) {
  const char* stages[] = {"engine.construct", "engine.prepare",
                          "engine.baseline"};
  const char* metrics[] = {"scaling.construct_ratio", "scaling.prepare_ratio",
                           "scaling.baseline_ratio"};
  double t[3][3] = {};
  size_t vertices[3] = {};
  for (int k = 0; k < 3; ++k) {
    const auto d = set_up(seed, kWidth << k, threads);
    vertices[k] = d->sta->vertex_count();
    for (int s = 0; s < 3; ++s) {
      t[s][k] = Tracer::get().durations(stages[s]).back();
    }
  }
  int flagged = 0;
  std::printf("-- V-scaling probe (advisory: flags growth > 2.5x per "
              "doubling) --\n");
  for (int s = 0; s < 3; ++s) {
    const double ratio = std::sqrt(t[s][2] / t[s][0]);
    const bool flag = ratio > 2.5;
    flagged += flag ? 1 : 0;
    result.set(metrics[s], ratio);
    std::printf("  %-16s %zu/%zu/%zu vertices: %.4f / %.4f / %.4f s, %.2fx per "
                "doubling%s\n",
                stages[s], vertices[0], vertices[1], vertices[2], t[s][0],
                t[s][1], t[s][2], ratio, flag ? "  [superlinear]" : "");
  }
  result.set("scaling.flagged", flagged);
}

}  // namespace

void run_dense_sweep(const Options& opt, Result& result) {
  auto d = repeat_setup(
      result, [&] { return set_up(kDagSeed, kWidth, opt.threads); });
  auto& sta = *d->sta;
  std::printf("design: %zu vertices\n", sta.vertex_count());

  const auto t_inputs = Clock::now();
  st::SweepSpec spec;
  spec.scenarios = make_scenarios(*d, opt.seed);
  spec.corners = two_corners();
  spec.threads = opt.threads;
  spec.endpoint_only = true;
  spec.delta = true;
  spec.lanes = 0;
  spec.share_gamma_cache = true;
  const size_t points = spec.scenarios.size() * spec.corners.size();

  // The oracle: scalar lanes, full propagation per point.
  st::SweepSpec oracle_spec = spec;
  oracle_spec.lanes = 1;
  oracle_spec.delta = false;
  const auto t_oracle = Clock::now();
  const auto oracle = fingerprint(sta.sweep(oracle_spec));
  result.checks_ran = true;
  std::printf("inputs %.2f s, oracle sweep %.2f s\n",
              std::chrono::duration<double>(t_oracle - t_inputs).count(),
              since(t_oracle));

  st::SweepResult last;
  const auto sweep_once = [&] {
    const auto t0 = Clock::now();
    {
      const Scope span("sweep");
      last = sta.sweep(spec);
    }
    const double t = since(t0);
    result.check(fingerprint(last) == oracle);
    return t;
  };
  sweep_once();  // warm-up: worker arenas and lazy schedules

  FitTiming fits(sta);
  const auto samples = measure(opt, result, 3, sweep_once,
                               [&](bool on) { fits.toggle(on); });
  double total = 0.0;
  for (const double t : samples) total += t;
  const auto s = summarize(samples);
  result.set("throughput_per_s",
             static_cast<double>(points * samples.size()) / total);
  result.set("op_p50_ms", s.median * 1e3);
  std::printf("sweep of %zu points (%zu scenarios x %zu corners): %s\n", points,
              spec.scenarios.size(), spec.corners.size(),
              describe(s, 1e3, "ms").c_str());
  std::printf("sweep_points_per_s: %.6g 1/s over %zu sweeps\n",
              static_cast<double>(points * samples.size()) / total,
              samples.size());
  if (!opt.trace) return;

  fits.report(result, samples.size());
  result.set("sweep.dirty_vertex_frac",
             last.prune_stats().dirty_vertex_fraction);
  result.set("gamma_cache.hit_rate", hit_rate(last.cache_stats()));
  lane_figures(sta, spec, result);
  result.set("wave.sample_ns_per_point", sample_ns_per_point(spec.scenarios));

  // 1-thread vs N-thread: the batched sweep and a single run(), both
  // without the fit decorator.
  st::SweepSpec serial = spec;
  serial.threads = 1;
  auto t0 = Clock::now();
  const auto serial_result = sta.sweep(serial);
  const double t_serial = since(t0);
  t0 = Clock::now();
  const auto parallel_result = sta.sweep(spec);
  const double t_parallel = since(t0);
  result.check(fingerprint(serial_result) == oracle);
  result.check(fingerprint(parallel_result) == oracle);
  result.set("gamma_cache.hit_rate_1t", hit_rate(serial_result.cache_stats()));
  result.set("sweep.speedup_1_to_n", t_serial / t_parallel);
  std::vector<double> run1, runN;
  for (int rep = 0; rep < 3; ++rep) {
    for (const int threads : {1, opt.threads}) {
      sta.set_threads(threads);
      const auto r0 = Clock::now();
      sta.run();
      (threads == 1 ? run1 : runN).push_back(since(r0));
    }
  }
  result.set("engine.run_speedup_1_to_n", median(run1) / median(runN));
  std::printf("1 -> %d threads: sweep %.4f -> %.4f s (%.2fx), run() %.4f -> "
              "%.4f s (%.2fx)\n",
              opt.threads, t_serial, t_parallel, t_serial / t_parallel,
              median(run1), median(runN), median(run1) / median(runN));

  d.reset();  // the probe builds its own designs
  scaling_probe(kDagSeed, opt.threads, result);
}

}  // namespace perfbench
