// Lane layer bitwise property suite: every Lane<W> kernel against the
// W=1 scalar oracle on randomized waveforms (unaligned tails, exact
// grid hits, clamp edges, crossing touches), the lane-block sweep
// against the scalar sweep bitwise at 1/2/4 threads on random
// netlists (same-plan groups, union-merged near-miss groups, multiple
// corners), the endpoint-only lane sweep's summaries against a
// full-state sweep, the direct evaluate_points_delta_lanes A/B (states
// and endpoint-rows modes), and the knob/override error paths.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "netlist/generators.hpp"
#include "sta/engine.hpp"
#include "sta/sweep.hpp"
#include "sta_test_util.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "wave/kernels.hpp"
#include "wave/lanes.hpp"
#include "wave/waveform.hpp"

namespace st = waveletic::sta;
namespace tu = waveletic::statest;
namespace wu = waveletic::util;
namespace wv = waveletic::wave;

namespace {

bool avx2() { return wv::lane_width_available(4); }

::testing::AssertionResult BitEq(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << a << " != " << b << " (bitwise)";
}

/// Every field of two VertexTimings, bitwise.
::testing::AssertionResult RowBitEq(const st::VertexTiming& a,
                                    const st::VertexTiming& b) {
  for (int rf = 0; rf < 2; ++rf) {
    const auto& ta = a.timing[rf];
    const auto& tb = b.timing[rf];
    if (!BitEq(ta.arrival, tb.arrival) || !BitEq(ta.slew, tb.slew) ||
        !BitEq(ta.required, tb.required) || ta.valid != tb.valid ||
        a.critical_pred[rf] != b.critical_pred[rf] ||
        a.critical_pred_rf[rf] != b.critical_pred_rf[rf]) {
      return ::testing::AssertionFailure()
             << "rows differ at " << st::to_string(static_cast<st::RiseFall>(
                                         rf));
    }
  }
  return ::testing::AssertionSuccess();
}

wv::Waveform random_waveform(std::mt19937_64& rng, size_t n) {
  std::uniform_real_distribution<double> step(1e-13, 5e-12);
  std::uniform_real_distribution<double> volt(-0.3, 1.5);
  std::vector<double> t(n), v(n);
  double acc = -1e-9;
  for (size_t i = 0; i < n; ++i) {
    acc += step(rng);
    t[i] = acc;
    v[i] = volt(rng);
  }
  return wv::Waveform(std::move(t), std::move(v));
}

/// Non-decreasing query grid spanning past both record ends (clamp
/// regions) with exact sample hits planted (the tie-break corners).
std::vector<double> random_sorted_grid(std::mt19937_64& rng,
                                       const wv::Waveform& w, size_t m) {
  const double span = w.t_end() - w.t_begin();
  std::uniform_real_distribution<double> u(w.t_begin() - 0.3 * span,
                                           w.t_end() + 0.3 * span);
  std::vector<double> ts(m);
  for (auto& x : ts) x = u(rng);
  if (m >= 4) {
    ts[0] = w.t_begin();
    ts[1] = w.t_end();
    ts[2] = w.time(w.size() / 2);
    ts[3] = w.time((w.size() * 3) / 4);
  }
  std::sort(ts.begin(), ts.end());
  return ts;
}

}  // namespace

// ---------------------------------------------------------------------------
// Kernel-level W=4 vs W=1 bitwise identity (forced-width A/B)
// ---------------------------------------------------------------------------

TEST(Lanes, DispatchReportsConsistentWidths) {
  EXPECT_TRUE(wv::lane_width_available(1));
  EXPECT_TRUE(wv::active_lane_width() == 1 || wv::active_lane_width() == 4);
  if (wv::compiled_lane_width() == 1) EXPECT_FALSE(avx2());
  {
    wv::LaneWidthGuard g(1);
    EXPECT_EQ(wv::active_lane_width(), 1);
  }
  if (avx2()) {
    wv::LaneWidthGuard g(4);
    EXPECT_EQ(wv::active_lane_width(), 4);
  }
  EXPECT_THROW(wv::force_lane_width(3), wu::Error);
  EXPECT_THROW(wv::force_lane_width(-1), wu::Error);
  if (!avx2()) EXPECT_THROW(wv::force_lane_width(4), wu::Error);
}

TEST(Lanes, SampleIntoW4MatchesW1Bitwise) {
  if (!avx2()) GTEST_SKIP() << "AVX2 unavailable";
  std::mt19937_64 rng(101);
  for (int round = 0; round < 60; ++round) {
    // Lengths off the vector width on purpose: unaligned tails.
    const size_t n = 1 + static_cast<size_t>(rng() % 97);
    const size_t m = 1 + static_cast<size_t>(rng() % 131);
    const auto w = random_waveform(rng, n);
    const auto ts = random_sorted_grid(rng, w, m);
    std::vector<double> scalar(m), lanes(m);
    {
      wv::LaneWidthGuard g(1);
      wv::sample_into(w, ts, scalar);
    }
    {
      wv::LaneWidthGuard g(4);
      wv::sample_into(w, ts, lanes);
    }
    for (size_t k = 0; k < m; ++k) {
      ASSERT_TRUE(BitEq(scalar[k], lanes[k]))
          << "round " << round << " query " << k;
    }
  }
}

TEST(Lanes, ResampleIntoW4MatchesW1Bitwise) {
  if (!avx2()) GTEST_SKIP() << "AVX2 unavailable";
  std::mt19937_64 rng(103);
  for (int round = 0; round < 30; ++round) {
    const auto w = random_waveform(rng, 2 + rng() % 120);
    const size_t m = 2 + rng() % 90;
    const double span = w.t_end() - w.t_begin();
    const double t0 = w.t_begin() - 0.15 * span;
    const double t1 = w.t_end() + 0.2 * span;
    std::vector<double> t1v(m), v1v(m), t4v(m), v4v(m);
    {
      wv::LaneWidthGuard g(1);
      wv::resample_into(w, t0, t1, t1v, v1v);
    }
    {
      wv::LaneWidthGuard g(4);
      wv::resample_into(w, t0, t1, t4v, v4v);
    }
    for (size_t k = 0; k < m; ++k) {
      ASSERT_TRUE(BitEq(t1v[k], t4v[k])) << "time " << k;
      ASSERT_TRUE(BitEq(v1v[k], v4v[k])) << "value " << k;
    }
  }
}

TEST(Lanes, FlipAndCombineW4MatchW1Bitwise) {
  if (!avx2()) GTEST_SKIP() << "AVX2 unavailable";
  std::mt19937_64 rng(107);
  for (int round = 0; round < 30; ++round) {
    const auto a = random_waveform(rng, 1 + rng() % 77);
    const auto b = random_waveform(rng, 1 + rng() % 77);
    std::vector<double> f1(a.size()), f4(a.size());
    {
      wv::LaneWidthGuard g(1);
      wv::flip_into(a, 1.2, f1);
    }
    {
      wv::LaneWidthGuard g(4);
      wv::flip_into(a, 1.2, f4);
    }
    for (size_t k = 0; k < a.size(); ++k) {
      ASSERT_TRUE(BitEq(f1[k], f4[k])) << "flip " << k;
    }
    wv::Workspace ws1, ws4;
    std::vector<double> c1, c4;
    {
      wv::LaneWidthGuard g(1);
      const auto scope = ws1.scope();
      const auto r = wv::combine_into(a, 0.7, b, -1.3, ws1);
      c1.assign(r.value.begin(), r.value.end());
    }
    {
      wv::LaneWidthGuard g(4);
      const auto scope = ws4.scope();
      const auto r = wv::combine_into(a, 0.7, b, -1.3, ws4);
      c4.assign(r.value.begin(), r.value.end());
    }
    ASSERT_EQ(c1.size(), c4.size());
    for (size_t k = 0; k < c1.size(); ++k) {
      ASSERT_TRUE(BitEq(c1[k], c4[k])) << "combine " << k;
    }
  }
}

TEST(Lanes, CrossingScansW4MatchW1Bitwise) {
  if (!avx2()) GTEST_SKIP() << "AVX2 unavailable";
  std::mt19937_64 rng(109);
  for (int round = 0; round < 60; ++round) {
    const auto w = random_waveform(rng, 1 + rng() % 90);
    // Levels include exact sample values — the touch/dedup corners the
    // vector fast-skip must not disturb.
    std::vector<double> levels = {0.5, -0.31, 1.5, w.value(0),
                                  w.value(w.size() / 2),
                                  w.value(w.size() - 1)};
    for (const double level : levels) {
      std::optional<double> fc1, fc4, lc1, lc4;
      size_t n1 = 0, n4 = 0;
      std::vector<double> all1, all4;
      wv::Workspace ws;
      {
        wv::LaneWidthGuard g(1);
        fc1 = wv::first_crossing(w, level);
        lc1 = wv::last_crossing(w, level);
        n1 = wv::crossing_count(w, level);
        const auto scope = ws.scope();
        const auto s = wv::crossings_into(w, level, ws);
        all1.assign(s.begin(), s.end());
      }
      {
        wv::LaneWidthGuard g(4);
        fc4 = wv::first_crossing(w, level);
        lc4 = wv::last_crossing(w, level);
        n4 = wv::crossing_count(w, level);
        const auto scope = ws.scope();
        const auto s = wv::crossings_into(w, level, ws);
        all4.assign(s.begin(), s.end());
      }
      ASSERT_EQ(fc1.has_value(), fc4.has_value()) << "level " << level;
      if (fc1) ASSERT_TRUE(BitEq(*fc1, *fc4));
      ASSERT_EQ(lc1.has_value(), lc4.has_value());
      if (lc1) ASSERT_TRUE(BitEq(*lc1, *lc4));
      ASSERT_EQ(n1, n4);
      ASSERT_EQ(all1.size(), all4.size());
      for (size_t k = 0; k < all1.size(); ++k) {
        ASSERT_TRUE(BitEq(all1[k], all4[k])) << "crossing " << k;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lane-block sweep vs scalar sweep, bitwise, across thread counts
// ---------------------------------------------------------------------------

namespace {

/// Scenario mix that exercises every grouping shape: 8 variants on the
/// SAME nets (identical plan content, distinct objects → same-plan
/// buckets) plus near-miss singles (distinct cones → union merging).
std::vector<st::NoiseScenario> grouping_scenarios(
    const tu::EngineFixture& f) {
  auto scenarios = tu::random_scenarios(f, 12);
  for (size_t i = 0; i < scenarios.size(); ++i) {
    scenarios[i].name = "s" + std::to_string(i);
  }
  return scenarios;
}

void expect_sweeps_bitwise_equal(st::SweepResult& a, st::SweepResult& b,
                                 const st::StaEngine& sta) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    EXPECT_TRUE(tu::states_bitwise_equal(a.state(p), b.state(p), &sta))
        << "point " << p;
    EXPECT_TRUE(BitEq(a.worst_slack(p), b.worst_slack(p))) << "point " << p;
  }
}

}  // namespace

TEST(Lanes, SweepLaneBlocksMatchScalarSweepBitwise) {
  for (const uint64_t seed : {3u, 17u}) {
    auto f = tu::random_engine(seed);
    st::Corner slow;
    slow.name = "slow";
    slow.cell_delay_scale = 1.08;
    slow.cell_slew_scale = 1.05;
    slow.wire_delay_scale = 1.15;

    st::SweepSpec scalar_spec;
    scalar_spec.scenarios = grouping_scenarios(f);
    scalar_spec.corners = {st::Corner{}, slow};
    scalar_spec.threads = 1;
    scalar_spec.lanes = 1;  // the scalar per-point oracle
    auto ref = f.sta->sweep(scalar_spec);

    for (const int threads : {1, 2, 4}) {
      for (const int lanes : {0, 1, 4}) {
        if (lanes == 4 && !avx2()) continue;
        st::SweepSpec spec = scalar_spec;
        spec.threads = threads;
        spec.lanes = lanes;
        auto got = f.sta->sweep(spec);
        SCOPED_TRACE("seed=" + std::to_string(seed) + " threads=" +
                     std::to_string(threads) + " lanes=" +
                     std::to_string(lanes));
        expect_sweeps_bitwise_equal(ref, got, *f.sta);
      }
    }
  }
}

namespace {

/// Every endpoint-summary field of `got` against a full-state `ref`,
/// bitwise: worst slack, critical endpoint (endpoint, rf, slack) and
/// the arrival of every endpoint × transition.  Points `got` pruned are
/// skipped (their accessors throw by contract).
void expect_summaries_bitwise_equal(const st::SweepResult& ref,
                                    const st::SweepResult& got) {
  ASSERT_EQ(ref.size(), got.size());
  ASSERT_EQ(ref.num_endpoints(), got.num_endpoints());
  for (size_t p = 0; p < ref.size(); ++p) {
    if (got.pruned(p)) continue;
    EXPECT_TRUE(BitEq(ref.worst_slack(p), got.worst_slack(p)))
        << "point " << p;
    const auto a = ref.critical_endpoint(p);
    const auto b = got.critical_endpoint(p);
    EXPECT_EQ(a.endpoint, b.endpoint) << "point " << p;
    EXPECT_EQ(a.rf, b.rf) << "point " << p;
    EXPECT_TRUE(BitEq(a.slack, b.slack)) << "point " << p;
    for (size_t e = 0; e < ref.num_endpoints(); ++e) {
      for (const auto rf : {st::RiseFall::kRise, st::RiseFall::kFall}) {
        EXPECT_TRUE(BitEq(ref.endpoint_arrival(p, e, rf),
                          got.endpoint_arrival(p, e, rf)))
            << "point " << p << " endpoint " << e << " "
            << st::to_string(rf);
      }
    }
  }
  EXPECT_EQ(ref.worst_point().point, got.worst_point().point);
  EXPECT_TRUE(BitEq(ref.worst_point().slack, got.worst_point().slack));
}

/// Lane-block shapes an unpruned endpoint-only sweep forms: its waves
/// are `chunk` consecutive corner-major points, each grouped by
/// group_lane_blocks() over (corner baseline, corner, plan content).
struct BlockShapes {
  size_t singletons = 0;
  size_t unions = 0;  ///< sub-width leftovers merged under a union plan
};
BlockShapes sweep_block_shapes(const st::StaEngine& sta,
                               const std::vector<st::NoiseScenario>& scenarios,
                               size_t n_corners, size_t chunk, int width) {
  std::vector<st::StaEngine::DeltaPlan> plans;
  for (const auto& sc : scenarios) plans.push_back(sta.delta_plan(sc));
  std::vector<st::TimingState> baselines(n_corners);
  std::vector<st::Corner> corners(n_corners);
  const size_t n_points = n_corners * scenarios.size();
  BlockShapes shapes;
  for (size_t base = 0; base < n_points; base += chunk) {
    const size_t n = std::min(chunk, n_points - base);
    std::vector<st::StaEngine::EvalContext> contexts(n);
    std::vector<const st::TimingState*> base_ptrs(n);
    std::vector<const st::StaEngine::DeltaPlan*> plan_ptrs(n);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = (base + i) / scenarios.size();
      contexts[i].corner = &corners[c];
      base_ptrs[i] = &baselines[c];
      plan_ptrs[i] = &plans[(base + i) % scenarios.size()];
    }
    for (const auto& b :
         sta.group_lane_blocks(contexts, base_ptrs, plan_ptrs, width)) {
      shapes.singletons += b.points.size() == 1 ? 1 : 0;
      shapes.unions += b.owned_plan != nullptr ? 1 : 0;
    }
  }
  return shapes;
}

}  // namespace

TEST(Lanes, EndpointOnlyLaneSweepMatchesScalar) {
  auto f = tu::random_engine(23);
  st::Corner slow;
  slow.name = "slow";
  slow.cell_delay_scale = 1.08;
  slow.cell_slew_scale = 1.05;
  slow.wire_delay_scale = 1.15;

  st::SweepSpec ref_spec;
  ref_spec.scenarios = grouping_scenarios(f);
  // A point whose cone misses every endpoint: the empty scenario (its
  // plan is empty, so every endpoint row is the corner baseline's).
  ref_spec.scenarios.push_back(st::NoiseScenario{});
  ref_spec.scenarios.back().name = "clean";
  ASSERT_TRUE(f.sta->delta_plan(ref_spec.scenarios.back()).endpoints.empty());
  ref_spec.corners = {st::Corner{}, slow};
  ref_spec.threads = 2;
  ref_spec.lanes = 1;  // full-state scalar reference
  const auto ref = f.sta->sweep(ref_spec);

  // endpoint_chunk 1 makes every lane block a singleton (the width-4
  // scalar branch), 3 forces several waves of merged leftovers, 0 runs
  // one wave of mixed blocks.
  const int lanes = avx2() ? 4 : 0;
  for (const auto prune : {st::PruneMode::kOff, st::PruneMode::kSafe}) {
    for (const size_t chunk : {size_t{1}, size_t{3}, size_t{0}}) {
      st::SweepSpec spec = ref_spec;
      spec.endpoint_only = true;
      spec.prune = prune;
      spec.endpoint_chunk = chunk;
      spec.lanes = lanes;
      const auto got = f.sta->sweep(spec);
      SCOPED_TRACE("prune=" + std::string(st::to_string(prune)) +
                   " chunk=" + std::to_string(chunk));
      expect_summaries_bitwise_equal(ref, got);
      if (prune == st::PruneMode::kSafe) {
        // The clean point at both corners is reused from the baseline.
        EXPECT_GE(got.prune_stats().reused, 2u);
      }
    }
  }
  if (avx2()) {
    // The unpruned waves above really form the shapes they stand for.
    const auto& sc = ref_spec.scenarios;
    EXPECT_EQ(sweep_block_shapes(*f.sta, sc, 2, 1, 4).singletons,
              2 * sc.size());
    EXPECT_GT(sweep_block_shapes(*f.sta, sc, 2, 3, 4).unions, 0u);
    EXPECT_GT(sweep_block_shapes(*f.sta, sc, 2, 64, 4).unions, 0u);
  }
}

TEST(Lanes, PrunedLaneSweepStaysExact) {
  auto f = tu::random_engine(29);
  st::SweepSpec spec;
  spec.scenarios = grouping_scenarios(f);
  spec.threads = 2;
  spec.endpoint_only = true;
  spec.prune = st::PruneMode::kSafe;
  spec.lanes = 1;
  auto ref = f.sta->sweep(spec);
  spec.lanes = avx2() ? 4 : 0;
  auto got = f.sta->sweep(spec);
  EXPECT_EQ(ref.worst_point().point, got.worst_point().point);
  EXPECT_TRUE(BitEq(ref.worst_point().slack, got.worst_point().slack));
}

// ---------------------------------------------------------------------------
// Direct evaluate_points_delta_lanes A/B (covers the W=1 walker on
// every build, the W=4 walker on AVX2)
// ---------------------------------------------------------------------------

TEST(Lanes, EvaluatePointsDeltaLanesMatchesScalarDirect) {
  auto f = tu::random_engine(41);
  auto& sta = *f.sta;
  sta.prepare();
  const auto scenarios = grouping_scenarios(f);

  // One baseline under the engine-level (empty) annotation table.
  const auto base_table = sta.compile_edge_annotations(nullptr);
  std::vector<st::TimingState> baseline(1);
  {
    std::vector<st::StaEngine::EvalContext> bctx(1);
    bctx[0].edge_noise = base_table.data();
    bctx[0].method = &sta.noise_method();
    sta.evaluate_points(baseline, bctx);
  }

  std::vector<std::vector<const st::NoiseAnnotation*>> tables;
  std::vector<st::StaEngine::DeltaPlan> plans;
  tables.reserve(scenarios.size());
  plans.reserve(scenarios.size());
  for (const auto& sc : scenarios) {
    tables.push_back(sta.compile_edge_annotations(&sc));
    plans.push_back(sta.delta_plan(sc));
  }
  const size_t n = scenarios.size();
  std::vector<st::StaEngine::EvalContext> contexts(n);
  std::vector<const st::TimingState*> baselines(n, &baseline[0]);
  std::vector<const st::StaEngine::DeltaPlan*> plan_ptrs(n);
  for (size_t p = 0; p < n; ++p) {
    contexts[p].edge_noise = tables[p].data();
    contexts[p].method = &sta.noise_method();
    plan_ptrs[p] = &plans[p];
  }

  std::vector<st::TimingState> ref(n), got(n);
  sta.evaluate_points_delta(ref, contexts, baselines, plan_ptrs);
  // W=1 block walker (every build): singleton blocks through the SoA
  // path, bitwise identical to the scalar fold by construction.
  sta.evaluate_points_delta_lanes(got, contexts, baselines, plan_ptrs, 1);
  for (size_t p = 0; p < n; ++p) {
    EXPECT_TRUE(tu::states_bitwise_equal(ref[p], got[p], &sta))
        << "W=1 point " << p;
  }

  // Endpoint-rows mode: each point's E rows must equal the states-mode
  // result at the endpoint vertices, every field bitwise.
  const size_t n_endpoints = sta.endpoint_ports().size();
  ASSERT_GT(n_endpoints, 0u);
  std::vector<size_t> endpoint_vertex(n_endpoints);
  for (size_t e = 0; e < n_endpoints; ++e) {
    const auto& port = f.netlist->ports()[static_cast<size_t>(
        sta.endpoint_ports()[e])];
    endpoint_vertex[e] = static_cast<size_t>(sta.pin(port.name).index);
  }
  const auto expect_rows = [&](const std::vector<st::VertexTiming>& rows,
                               size_t first, size_t count,
                               const std::string& what) {
    ASSERT_EQ(rows.size(), count * n_endpoints);
    for (size_t i = 0; i < count; ++i) {
      for (size_t e = 0; e < n_endpoints; ++e) {
        EXPECT_TRUE(RowBitEq(ref[first + i][endpoint_vertex[e]],
                             rows[i * n_endpoints + e]))
            << what << " point " << first + i << " endpoint " << e;
      }
    }
  };
  std::vector<st::VertexTiming> rows(n * n_endpoints);
  sta.evaluate_points_delta_lanes(rows, contexts, baselines, plan_ptrs, 1);
  expect_rows(rows, 0, n, "rows W=1");

  if (avx2()) {
    std::vector<st::TimingState> wide(n);
    for (const int threads : {0, 2}) {
      std::unique_ptr<wu::ThreadPool> pool;
      std::vector<wv::Workspace> wss;
      if (threads > 0) {
        pool = std::make_unique<wu::ThreadPool>(threads);
        wss.resize(static_cast<size_t>(threads));
      }
      const std::span<wv::Workspace> ws_span(wss.data(), wss.size());
      sta.evaluate_points_delta_lanes(wide, contexts, baselines, plan_ptrs,
                                      4, pool.get(), ws_span);
      for (size_t p = 0; p < n; ++p) {
        EXPECT_TRUE(tu::states_bitwise_equal(ref[p], wide[p], &sta))
            << "W=4 threads=" << threads << " point " << p;
      }
      std::vector<st::VertexTiming> wide_rows(n * n_endpoints);
      sta.evaluate_points_delta_lanes(wide_rows, contexts, baselines,
                                      plan_ptrs, 4, pool.get(), ws_span);
      expect_rows(wide_rows, 0, n,
                  "rows W=4 threads=" + std::to_string(threads));
      // One point per call: a singleton block, which takes the scalar
      // branch into the worker's scratch state.
      for (size_t p = 0; p < n; ++p) {
        std::vector<st::VertexTiming> single(n_endpoints);
        sta.evaluate_points_delta_lanes(
            single, std::span(contexts).subspan(p, 1),
            std::span(baselines).subspan(p, 1),
            std::span(plan_ptrs).subspan(p, 1), 4, pool.get(), ws_span);
        expect_rows(single, p, 1,
                    "singleton W=4 threads=" + std::to_string(threads));
      }
    }
  }
  // A row buffer of the wrong size is rejected up front.
  std::vector<st::VertexTiming> short_rows(n * n_endpoints - 1);
  EXPECT_THROW(sta.evaluate_points_delta_lanes(short_rows, contexts,
                                               baselines, plan_ptrs, 1),
               wu::Error);
}

TEST(Lanes, GroupingIsContentBasedAndBounded) {
  auto f = tu::random_engine(43);
  auto& sta = *f.sta;
  sta.prepare();
  const auto scenarios = grouping_scenarios(f);
  const auto base_table = sta.compile_edge_annotations(nullptr);
  std::vector<st::TimingState> baseline(1);
  {
    std::vector<st::StaEngine::EvalContext> bctx(1);
    bctx[0].edge_noise = base_table.data();
    bctx[0].method = &sta.noise_method();
    sta.evaluate_points(baseline, bctx);
  }
  std::vector<st::StaEngine::DeltaPlan> plans;
  for (const auto& sc : scenarios) plans.push_back(sta.delta_plan(sc));
  const size_t n = scenarios.size();
  std::vector<st::StaEngine::EvalContext> contexts(n);
  std::vector<const st::TimingState*> baselines(n, &baseline[0]);
  std::vector<const st::StaEngine::DeltaPlan*> plan_ptrs(n);
  for (size_t p = 0; p < n; ++p) plan_ptrs[p] = &plans[p];

  const auto blocks = sta.group_lane_blocks(contexts, baselines, plan_ptrs, 4);
  size_t covered = 0;
  std::vector<int> seen(n, 0);
  for (const auto& b : blocks) {
    ASSERT_GE(b.points.size(), 1u);
    ASSERT_LE(b.points.size(), 4u);
    ASSERT_NE(b.plan, nullptr);
    for (const uint32_t p : b.points) {
      ASSERT_LT(p, n);
      ++seen[p];
      ++covered;
      // Every lane's own cone must be inside the block's plan (union
      // plans are cone-supersets).
      for (const int v : plans[p].forward) {
        EXPECT_TRUE(std::find(b.plan->forward.begin(), b.plan->forward.end(),
                              v) != b.plan->forward.end());
      }
    }
  }
  EXPECT_EQ(covered, n);  // exact partition of the point set
  for (size_t p = 0; p < n; ++p) EXPECT_EQ(seen[p], 1);
  // random_scenarios lays variants over the same nets repeatedly, so
  // with 12 scenarios there must be at least one multi-lane block.
  bool any_multi = false;
  for (const auto& b : blocks) any_multi |= b.points.size() > 1;
  EXPECT_TRUE(any_multi);
}

// ---------------------------------------------------------------------------
// Knob validation + forwarding
// ---------------------------------------------------------------------------

TEST(Lanes, SweepRejectsBadLaneWidths) {
  auto f = tu::random_engine(47);
  st::SweepSpec spec;
  spec.lanes = 2;
  EXPECT_THROW((void)f.sta->sweep(spec), wu::Error);
  spec.lanes = -4;
  EXPECT_THROW((void)f.sta->sweep(spec), wu::Error);
  if (!avx2()) {
    spec.lanes = 4;
    EXPECT_THROW((void)f.sta->sweep(spec), wu::Error);
  }
}

TEST(Lanes, SweepLanesKnobAutoMatchesScalar) {
  auto f = tu::random_engine(53);
  st::SweepSpec scalar_spec;
  scalar_spec.scenarios = grouping_scenarios(f);
  scalar_spec.threads = 1;
  scalar_spec.lanes = 1;
  st::SweepSpec lane_spec = scalar_spec;
  lane_spec.threads = 2;
  lane_spec.lanes = 0;  // auto: AVX2 → 4, else scalar
  const auto scalar_batch = f.sta->sweep(scalar_spec);
  const auto lane_batch = f.sta->sweep(lane_spec);
  for (size_t i = 0; i < scalar_spec.scenarios.size(); ++i) {
    EXPECT_TRUE(BitEq(scalar_batch.worst_slack(i), lane_batch.worst_slack(i)))
        << "scenario " << i;
  }
}
