// Parallel + batched STA propagation: bitwise determinism of run() and
// of the one-task-per-point evaluate_points() scheduler across thread
// counts, bitwise equivalence of scenario sweeps vs. sequential looped
// runs, and Γeff-memo hit accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "netlist/generators.hpp"
#include "sta/engine.hpp"
#include "sta/gamma_cache.hpp"
#include "sta/sweep.hpp"
#include "sta_test_util.hpp"
#include "util/thread_pool.hpp"
#include "wave/ramp.hpp"

namespace lb = waveletic::liberty;
namespace nl = waveletic::netlist;
namespace st = waveletic::sta;
namespace tu = waveletic::statest;
namespace wu = waveletic::util;
namespace wv = waveletic::wave;

namespace {

// Shared scaffolding lives in sta_test_util.hpp.
const lb::Library& lib() { return tu::vcl013(); }

nl::Netlist wide_netlist(int width) { return nl::make_chain_tree(width); }

void constrain(st::StaEngine& sta, int width) {
  tu::constrain_chain_tree(sta, width);
}

void expect_states_identical(const st::StaEngine& sta,
                             const st::TimingState& a,
                             const st::TimingState& b) {
  EXPECT_TRUE(tu::states_bitwise_equal(a, b, &sta));
}

st::NoiseScenario bump_scenario(const st::StaEngine& clean, int chain,
                                double alignment, double strength) {
  return tu::chain_bump_scenario(clean, chain, alignment, strength);
}

}  // namespace

TEST(StaParallel, LevelsCoverAllVerticesOnce) {
  const auto net = wide_netlist(8);
  st::StaEngine sta(net, lib());
  size_t total = 0;
  for (const auto& level : sta.levels()) total += level.size();
  EXPECT_EQ(total, sta.vertex_count());
  EXPECT_GT(sta.levels().size(), 3u);  // chains are at least 3 gates deep
}

TEST(StaParallel, MultiThreadBitwiseIdenticalToSingleThread) {
  const int width = 12;
  const auto net = wide_netlist(width);

  st::StaEngine sta1(net, lib());
  constrain(sta1, width);
  sta1.set_threads(1);
  sta1.run();

  for (const int threads : {2, 4, 8}) {
    st::StaEngine stan(net, lib());
    constrain(stan, width);
    // A noisy annotation makes the parallel path exercise Γeff too.
    const auto& n0 = sta1.timing("inv0_2/A", st::RiseFall::kFall);
    const auto ramp =
        wv::Ramp::from_arrival_slew(n0.arrival, n0.slew, lib().nom_voltage);
    stan.annotate_noisy_net("c0_1",
                            ramp.denormalized(wv::Polarity::kFalling, 256),
                            wv::Polarity::kFalling);
    st::StaEngine sta1n(net, lib());
    constrain(sta1n, width);
    sta1n.annotate_noisy_net("c0_1",
                             ramp.denormalized(wv::Polarity::kFalling, 256),
                             wv::Polarity::kFalling);
    sta1n.set_threads(1);
    sta1n.run();
    stan.set_threads(threads);
    stan.run();

    for (int rf = 0; rf < 2; ++rf) {
      const auto r = static_cast<st::RiseFall>(rf);
      EXPECT_EQ(sta1n.timing("y", r).arrival, stan.timing("y", r).arrival)
          << "threads=" << threads;
      EXPECT_EQ(sta1n.timing("y", r).slew, stan.timing("y", r).slew);
      EXPECT_EQ(sta1n.timing("y", r).required, stan.timing("y", r).required);
    }
    EXPECT_EQ(sta1n.worst_slack(), stan.worst_slack());
  }
}

TEST(StaParallel, EvaluatePointsMatchesSerialEvaluateLoop) {
  const int width = 6;
  const auto net = wide_netlist(width);
  st::StaEngine clean(net, lib());
  constrain(clean, width);
  clean.run();

  // Engine-level noise on chain 0, per-point scenario noise on chains
  // 1..3 and two corners: points differ in their Γeff fits and derates.
  st::StaEngine sta(net, lib());
  constrain(sta, width);
  const auto engine_noise = bump_scenario(clean, 0, 5e-12, 0.4);
  const auto& ann = engine_noise.entries.front().annotation;
  sta.annotate_noisy_net(engine_noise.entries.front().net, ann.waveform,
                         ann.polarity);
  std::vector<st::NoiseScenario> scenarios;
  for (int chain = 1; chain <= 3; ++chain) {
    scenarios.push_back(
        bump_scenario(clean, chain, (chain - 2) * 15e-12, 0.45));
  }
  const std::vector<st::Corner> corners = {
      st::Corner{}, st::Corner{"slow", 1.08, 1.04, 1.2}};
  sta.prepare();
  std::vector<std::vector<const st::NoiseAnnotation*>> tables;
  for (const auto& sc : scenarios) {
    tables.push_back(sta.compile_edge_annotations(&sc));
  }

  // Fewer, as many and more points than pool workers.
  for (const size_t n_points : {size_t{1}, size_t{3}, size_t{9}}) {
    std::vector<st::StaEngine::EvalContext> contexts(n_points);
    for (size_t p = 0; p < n_points; ++p) {
      const auto& corner = corners[p % corners.size()];
      contexts[p].edge_noise = tables[p % tables.size()].data();
      contexts[p].corner = &corner;
      contexts[p].corner_key = corner.key();
      contexts[p].method = &sta.noise_method();
    }
    // Oracle: a loop of serial evaluate() calls, no workspace, no cache.
    std::vector<st::TimingState> expect(n_points);
    for (size_t p = 0; p < n_points; ++p) {
      sta.evaluate(expect[p], contexts[p]);
    }
    for (const int threads : {1, 2, 4}) {
      wu::ThreadPool pool(threads);
      std::vector<wv::Workspace> workspaces(pool.size());
      st::GammaCache cache;
      auto cached = contexts;
      for (auto& ctx : cached) ctx.cache = &cache;
      std::vector<st::TimingState> got(n_points);
      sta.evaluate_points(got, cached, &pool, workspaces);
      for (size_t p = 0; p < n_points; ++p) {
        EXPECT_TRUE(tu::states_bitwise_equal(expect[p], got[p], &sta))
            << n_points << " points, " << threads << " threads, point " << p;
      }
    }
  }
}

TEST(StaParallel, RunAtFourThreadsEqualsEvaluateAtEveryVertex) {
  const int width = 8;
  const auto net = wide_netlist(width);
  st::StaEngine clean(net, lib());
  constrain(clean, width);
  clean.run();

  st::StaEngine sta(net, lib());
  constrain(sta, width);
  const auto noise = bump_scenario(clean, 2, 0.0, 0.5);
  const auto& ann = noise.entries.front().annotation;
  sta.annotate_noisy_net(noise.entries.front().net, ann.waveform,
                         ann.polarity);
  const st::Corner slow{"slow", 1.08, 1.04, 1.2};
  sta.set_corner(slow);
  sta.set_threads(4);
  sta.run();

  const auto table = sta.compile_edge_annotations();
  st::StaEngine::EvalContext ctx;
  ctx.edge_noise = table.data();
  ctx.corner = &slow;
  ctx.corner_key = slow.key();
  ctx.method = &sta.noise_method();
  st::TimingState expect;
  sta.evaluate(expect, ctx);

  // run()'s state, read back vertex by vertex through timing().
  st::TimingState got(sta.vertex_count());
  for (size_t v = 0; v < sta.vertex_count(); ++v) {
    const auto pin = sta.pin(sta.vertex_name(v));
    for (int rf = 0; rf < 2; ++rf) {
      got[v].timing[rf] = sta.timing(pin, static_cast<st::RiseFall>(rf));
    }
  }
  EXPECT_TRUE(tu::states_bitwise_equal(expect, got, &sta));
}

TEST(StaParallel, BatchedBitwiseIdenticalToLoopedRuns) {
  const int width = 6;
  const auto net = wide_netlist(width);

  // Clean run provides the victim ramps the scenarios perturb.
  st::StaEngine clean(net, lib());
  constrain(clean, width);
  clean.run();

  // 24 scenarios: aggressor alignment × strength grid on two nets.
  std::vector<st::NoiseScenario> scenarios;
  for (int chain : {0, 3}) {
    for (int a = 0; a < 4; ++a) {
      for (int s = 0; s < 3; ++s) {
        scenarios.push_back(bump_scenario(clean, chain,
                                          (a - 2) * 20e-12,
                                          0.25 + 0.2 * s));
      }
    }
  }

  // Looped baseline: one engine, re-annotated and re-run per scenario,
  // single-threaded, no cache.
  std::vector<double> looped_arrival, looped_slack;
  for (const auto& sc : scenarios) {
    st::StaEngine sta(net, lib());
    constrain(sta, width);
    for (const auto& e : sc.entries) {
      sta.annotate_noisy_net(e.net, e.annotation.waveform,
                             e.annotation.polarity);
    }
    sta.run();
    looped_arrival.push_back(sta.timing("y", st::RiseFall::kFall).arrival);
    looped_slack.push_back(sta.worst_slack());
  }

  // Batched: one sweep, 4 threads, shared Γeff cache.
  st::StaEngine sta(net, lib());
  constrain(sta, width);
  st::SweepSpec spec;
  spec.scenarios = scenarios;
  spec.threads = 4;
  const auto batch = sta.sweep(spec);

  for (size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(batch.timing(i, "y", st::RiseFall::kFall).arrival,
              looped_arrival[i])
        << "scenario " << i << " (" << batch.scenario_name(i) << ")";
    EXPECT_EQ(batch.worst_slack(i), looped_slack[i]) << "scenario " << i;
  }
}

TEST(StaParallel, GammaCacheCountsHitsForRepeatedScenarios) {
  const int width = 4;
  const auto net = wide_netlist(width);
  st::StaEngine clean(net, lib());
  constrain(clean, width);
  clean.run();

  // The same annotation repeated across all scenarios: the fit must be
  // computed once per (edge, rf) and hit thereafter.
  const auto sc = bump_scenario(clean, 0, 10e-12, 0.4);
  const int copies = 16;
  st::StaEngine sta(net, lib());
  constrain(sta, width);
  st::SweepSpec spec;
  spec.scenarios.assign(copies, sc);
  spec.threads = 2;
  const auto batch = sta.sweep(spec);

  const auto stats = batch.cache_stats();
  // One noisy sink, one matching transition → exactly one lookup per
  // scenario, deterministically.
  EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(copies));
  // There is one distinct key; concurrent first lookups may each miss
  // before the first insert lands, so allow up to `threads` misses.
  EXPECT_GE(stats.misses, 1u);
  EXPECT_LE(stats.misses, 2u);
  EXPECT_GE(stats.hits, static_cast<uint64_t>(copies) - 2);

  // And hits do not change results: scenario 0 == scenario N-1 bitwise.
  expect_states_identical(sta, batch.state(0), batch.state(copies - 1));
}

TEST(StaParallel, CacheOffMatchesCacheOnBitwise) {
  const int width = 4;
  const auto net = wide_netlist(width);
  st::StaEngine clean(net, lib());
  constrain(clean, width);
  clean.run();

  std::vector<st::NoiseScenario> scenarios;
  for (int a = 0; a < 4; ++a) {
    scenarios.push_back(bump_scenario(clean, 1, a * 15e-12, 0.5));
  }

  st::StaEngine sta_on(net, lib());
  constrain(sta_on, width);
  st::SweepSpec on;
  on.scenarios = scenarios;
  on.threads = 2;
  on.share_gamma_cache = true;
  const auto batch_on = sta_on.sweep(on);

  st::StaEngine sta_off(net, lib());
  constrain(sta_off, width);
  st::SweepSpec off = on;
  off.threads = 1;
  off.share_gamma_cache = false;
  const auto batch_off = sta_off.sweep(off);

  EXPECT_EQ(batch_off.cache_stats().hits + batch_off.cache_stats().misses,
            0u);
  for (size_t i = 0; i < scenarios.size(); ++i) {
    expect_states_identical(sta_on, batch_on.state(i), batch_off.state(i));
  }
}

TEST(StaParallel, EngineAnnotationsOverlayIntoSweepScenarios) {
  const int width = 4;
  const auto net = wide_netlist(width);
  st::StaEngine clean(net, lib());
  constrain(clean, width);
  clean.run();

  const auto sc0 = bump_scenario(clean, 0, 10e-12, 0.5);
  const auto sc1 = bump_scenario(clean, 1, -15e-12, 0.4);

  // Engine-level annotation on chain 1, scenario annotation on chain 0:
  // the sweep must apply BOTH (engine annotations overlay into every
  // scenario; the scenario wins only on nets both touch).
  st::StaEngine sta(net, lib());
  constrain(sta, width);
  const auto& ann1 = sc1.entries.front().annotation;
  sta.annotate_noisy_net(sc1.entries.front().net, ann1.waveform,
                         ann1.polarity);
  st::SweepSpec spec;
  spec.scenarios = {sc0};
  const auto batch = sta.sweep(spec);

  // Reference: one engine run with both annotations applied.
  st::StaEngine both(net, lib());
  constrain(both, width);
  both.annotate_noisy_net(sc1.entries.front().net, ann1.waveform,
                          ann1.polarity);
  const auto& ann0 = sc0.entries.front().annotation;
  both.annotate_noisy_net(sc0.entries.front().net, ann0.waveform,
                          ann0.polarity);
  both.run();

  EXPECT_EQ(batch.timing(0, "y", st::RiseFall::kFall).arrival,
            both.timing("y", st::RiseFall::kFall).arrival);
  EXPECT_EQ(batch.worst_slack(0), both.worst_slack());

  // clear_noisy_nets drops the engine-level annotation: the next run
  // matches the clean analysis again.
  both.clear_noisy_nets();
  both.run();
  EXPECT_EQ(both.timing("y", st::RiseFall::kFall).arrival,
            clean.timing("y", st::RiseFall::kFall).arrival);
}
