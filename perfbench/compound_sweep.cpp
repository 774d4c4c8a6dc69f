// compound_sweep: the k ≤ 2 coupled-line generated space (~20M
// candidates) on the 289-vertex random DAG, streamed through the
// generated sweep with prune=safe.  Nearly every candidate dies in the
// window filter, so the scenario generator, the coupled-bump cache and
// pruning do the work; propagation and construction do little.

#include <bit>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "interconnect/coupled.hpp"
#include "sta/scengen.hpp"
#include "sta/sweep.hpp"

namespace perfbench {
namespace {

namespace nl = wl::netlist;
namespace st = wl::sta;

/// The input is fixed: the 289-vertex DAG and 20.2M-candidate space of
/// the generated-sweep fixtures, whatever the run seed.  Any seeded
/// change of the DAG or the grids moves how many survivors pruning lets
/// through (16k to 39k evaluated, 30% of the sweep time) or makes some
/// compound bump keep its victim from ever crossing 50%, which SGDP
/// rejects.
constexpr uint64_t kDagSeed = 2026;
constexpr double kRequired = 2.5e-9;
/// Survivors per eager-reference sweep (bounds its resident scenarios).
constexpr size_t kEagerChunk = 4096;

struct Design {
  wl::liberty::Library lib;
  nl::Netlist netlist;
  std::unique_ptr<st::StaEngine> sta;
  std::unique_ptr<st::StructuralCorrelationRule> correlation;
  st::ScenarioSpace space;
};

std::unique_ptr<Design> set_up(int threads) {
  auto d = std::make_unique<Design>();
  d->lib = build_library();
  d->netlist = random_dag(kDagSeed, 12, 8, 12);
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
  const Scope span("scengen.space");
  const auto drives = st::make_drives_predicate(d->lib);
  const auto candidates =
      wl::interconnect::infer_coupling_candidates(d->netlist);
  d->space = st::make_scenario_space(*d->sta, d->netlist, candidates, drives,
                                     /*alignments=*/{}, /*strengths=*/{});
  // 81 alignments × 8 strengths over every pair and pair of pairs.
  for (int a = -40; a <= 40; ++a) d->space.alignments.push_back(a * 50e-12);
  for (int s = 1; s <= 8; ++s) d->space.strengths.push_back(0.05 * s);
  d->space.max_aggressors = 2;
  d->space.bump_shape = st::BumpShape::kCoupledLine;
  d->correlation =
      std::make_unique<st::StructuralCorrelationRule>(d->netlist, drives);
  return d;
}

struct Worst {
  double slack = std::numeric_limits<double>::infinity();
  std::string scenario;
};

/// The eager reference: drain the same generator, push every feasible
/// scenario through sweep(SweepSpec) without pruning, keep the first
/// minimum in stream order.  Chunked so resident scenarios stay bounded.
Worst eager_worst(st::StaEngine& sta, const Design& d, int threads) {
  st::ScenarioGenerator gen(d.space, d.correlation.get());
  st::SweepSpec spec;
  spec.threads = threads;
  spec.endpoint_only = true;
  Worst worst;
  for (;;) {
    spec.scenarios.clear();
    while (spec.scenarios.size() < kEagerChunk) {
      const auto c = gen.next();
      if (!c) break;
      spec.scenarios.push_back(gen.materialize(*c));
    }
    if (spec.scenarios.empty()) break;
    const auto r = sta.sweep(spec);
    const auto wp = r.worst_point();
    if (wp.slack < worst.slack) {
      worst = {wp.slack, r.scenario_name(wp.scenario)};
    }
  }
  return worst;
}

double frac(uint64_t n, uint64_t of) {
  return of == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(of);
}

}  // namespace

void run_compound_sweep(const Options& opt, Result& result) {
  auto d = repeat_setup(result, [&] { return set_up(opt.threads); });
  auto& sta = *d->sta;
  const uint64_t candidates = d->space.size();
  std::printf("design: %zu vertices, %zu coupling pairs, %llu events, %llu "
              "candidates\n",
              sta.vertex_count(), d->space.pairs.size(),
              static_cast<unsigned long long>(d->space.num_events()),
              static_cast<unsigned long long>(candidates));

  const auto t_ref = Clock::now();
  const Worst reference = eager_worst(sta, *d, opt.threads);
  std::printf("eager reference: worst slack %.6g s at %s (%.2f s)\n",
              reference.slack, reference.scenario.c_str(), since(t_ref));
  result.checks_ran = true;

  st::GeneratedSweepSpec spec;
  spec.space = d->space;
  spec.correlation = d->correlation.get();
  spec.threads = opt.threads;
  spec.prune = st::PruneMode::kSafe;
  spec.gen_chunk = 1024;
  spec.keep_point_records = false;

  st::GeneratedSweepResult last;
  const auto sweep_once = [&] {
    const auto t0 = Clock::now();
    {
      const Scope span("sweep.generated");
      last = sta.sweep(spec);
    }
    const double t = since(t0);
    const auto& g = last.gen_stats();
    const auto& wp = last.worst_point();
    result.check(g.check() && g.generated == candidates &&
                 std::bit_cast<uint64_t>(wp.slack) ==
                     std::bit_cast<uint64_t>(reference.slack) &&
                 wp.scenario_name == reference.scenario);
    return t;
  };

  FitTiming fits(sta);
  const auto samples = measure(opt, result, 2, sweep_once,
                               [&](bool on) { fits.toggle(on); });
  double total = 0.0;
  for (const double t : samples) total += t;
  const auto s = summarize(samples);
  result.set("throughput_per_s",
             static_cast<double>(candidates * samples.size()) / total);
  result.set("op_p50_ms", s.median * 1e3);
  std::printf("generated sweep of %llu candidates: %s\n",
              static_cast<unsigned long long>(candidates),
              describe(s, 1e3, "ms").c_str());
  std::printf("candidates_per_s: %.6g 1/s over %zu sweeps\n",
              static_cast<double>(candidates * samples.size()) / total,
              samples.size());
  std::printf("%s", last.funnel_report().c_str());
  if (!opt.trace) return;

  const auto& g = last.gen_stats();
  const uint64_t survivors = g.prune_killed + g.reused + g.evaluated;
  result.set("scengen.window_kill_frac", frac(g.window_killed, g.generated));
  result.set("scengen.corr_kill_frac",
             frac(g.correlation_killed + g.set_killed, g.generated));
  result.set("scengen.evaluated", static_cast<double>(g.evaluated));
  result.set("sweep.pruned_frac", frac(g.prune_killed, survivors));
  result.set("sweep.dirty_vertex_frac",
             last.prune_stats().dirty_vertex_fraction);
  result.set("bump_cache.hit_rate",
             frac(g.bump_cache_hits, g.bump_cache_hits + g.bump_cache_misses));
  fits.report(result, samples.size());
  // The filter funnel alone: drain the generator without materializing.
  uint64_t feasible = 0;
  {
    const Scope span("scengen.drain");
    st::ScenarioGenerator gen(d->space, d->correlation.get());
    while (gen.next()) ++feasible;
  }
  result.set("scengen.drain_s", span_median("scengen.drain"));
  std::printf("generator drain: %llu feasible of %llu in %.4f s\n",
              static_cast<unsigned long long>(feasible),
              static_cast<unsigned long long>(candidates),
              span_median("scengen.drain"));
}

}  // namespace perfbench
