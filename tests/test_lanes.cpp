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
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "netlist/generators.hpp"
#include "sta/engine.hpp"
#include "sta/hiergraph.hpp"
#include "sta/macromodel.hpp"
#include "sta/sweep.hpp"
#include "sta_test_util.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "wave/kernels.hpp"
#include "wave/lanes.hpp"
#include "wave/waveform.hpp"

namespace st = waveletic::sta;
namespace tu = waveletic::statest;
namespace wn = waveletic::netlist;
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

// ---------------------------------------------------------------------------
// Value-change cut-off of the lane walker: bitwise against the scalar
// evaluate_delta() and full evaluate() (the delta = false oracle)
// ---------------------------------------------------------------------------

namespace {

/// A hand-built design whose noise cones behave in known ways:
///  - n1 (g1/Y) drives the early A input of NAND g2, whose B input comes
///    from the late input b through three inverters: a small bump on n1
///    moves g2/A but not g2/Y, so the cone dies mid-way;
///  - n2 (g2/Y) reaches the endpoint y through g3;
///  - n6 (g7/Y) reaches the endpoint z through g8.  The engine itself
///    annotates n6 with its quiet (bump-free) waveform, so a bump far
///    past the transition leaves the annotation bitwise unchanged and
///    the cone dies at its root.
struct CutoffDesign {
  std::unique_ptr<wn::Netlist> netlist;
  std::unique_ptr<st::StaEngine> sta;
  /// Clean (unannotated) falling-transition timing at each victim sink.
  std::map<std::string, st::PinTiming> victim;
};

CutoffDesign cutoff_design() {
  CutoffDesign d;
  d.netlist = std::make_unique<wn::Netlist>();
  auto& nl = *d.netlist;
  nl.name = "cutoff";
  for (const char* in : {"a", "b", "c"}) {
    nl.add_port(in, wn::PortDirection::kInput);
  }
  for (const char* out : {"y", "z"}) {
    nl.add_port(out, wn::PortDirection::kOutput);
  }
  const auto gate = [&nl](const char* name, const char* cell,
                          std::map<std::string, std::string> pins) {
    wn::Instance inst;
    inst.name = name;
    inst.cell = cell;
    inst.pins = std::move(pins);
    nl.add_instance(std::move(inst));
  };
  gate("g1", "INVX1", {{"A", "a"}, {"Y", "n1"}});
  gate("g4", "INVX1", {{"A", "b"}, {"Y", "n3"}});
  gate("g5", "INVX1", {{"A", "n3"}, {"Y", "n4"}});
  gate("g6", "INVX1", {{"A", "n4"}, {"Y", "n5"}});
  gate("g2", "NAND2X1", {{"A", "n1"}, {"B", "n5"}, {"Y", "n2"}});
  gate("g3", "INVX1", {{"A", "n2"}, {"Y", "y"}});
  gate("g7", "INVX1", {{"A", "c"}, {"Y", "n6"}});
  gate("g8", "INVX4", {{"A", "n6"}, {"Y", "z"}});
  nl.validate();
  const auto constrain = [](st::StaEngine& sta) {
    sta.set_input("a", 0.0, 80e-12);
    sta.set_input("b", 400e-12, 80e-12);
    sta.set_input("c", 10e-12, 90e-12);
    for (const char* out : {"y", "z"}) {
      sta.set_output_load(out, 5e-15);
      sta.set_required(out, 2e-9);
    }
  };
  {
    st::StaEngine clean(nl, tu::vcl013());
    constrain(clean);
    clean.run();
    for (const char* pin : {"g2/A", "g3/A", "g8/A"}) {
      d.victim[pin] = clean.timing(pin, st::RiseFall::kFall);
    }
  }
  d.sta = std::make_unique<st::StaEngine>(nl, tu::vcl013());
  constrain(*d.sta);
  return d;
}

/// Aggressor bump on the net driving `sink`, against its clean ramp.
st::NoiseScenario cutoff_bump(const CutoffDesign& d, const std::string& net,
                              const std::string& sink, double alignment,
                              double strength) {
  const auto& t = d.victim.at(sink);
  auto sc = st::make_aggressor_scenario(net, t.arrival, t.slew,
                                        tu::vcl013().nom_voltage,
                                        wv::Polarity::kFalling, alignment,
                                        strength);
  sc.name = net + "/" + std::to_string(alignment) + "/" +
            std::to_string(strength);
  return sc;
}

/// Installs the engine-level quiet annotation on n6 (the clean ramp,
/// strength 0) and returns it.
const st::NoiseAnnotation& annotate_quiet_n6(CutoffDesign& d) {
  const auto quiet = cutoff_bump(d, "n6", "g8/A", 0.0, 0.0);
  d.sta->annotate_noisy_net("n6", quiet.entries[0].annotation.waveform,
                            wv::Polarity::kFalling);
  return *d.sta->noisy_net("n6");
}

/// A bump 1 us past the transition: exactly zero on every sample.
constexpr double kFarAlignment = 1e-6;

/// Vertices whose arrival-side fields differ from the baseline, bitwise.
std::vector<std::string> changed_vertices(const st::StaEngine& sta,
                                          const st::TimingState& state,
                                          const st::TimingState& baseline) {
  std::vector<std::string> out;
  for (size_t v = 0; v < sta.vertex_count(); ++v) {
    st::VertexTiming a = state[v];
    st::VertexTiming b = baseline[v];
    for (int rf = 0; rf < 2; ++rf) a.timing[rf].required = 0.0;
    for (int rf = 0; rf < 2; ++rf) b.timing[rf].required = 0.0;
    if (!RowBitEq(a, b)) out.push_back(sta.vertex_name(v));
  }
  return out;
}

/// Every field of every vertex of two states, bitwise.
::testing::AssertionResult StateRowsBitEq(const st::StaEngine& sta,
                                          const st::TimingState& a,
                                          const st::TimingState& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "state sizes differ";
  }
  for (size_t v = 0; v < a.size(); ++v) {
    auto eq = RowBitEq(a[v], b[v]);
    if (!eq) return eq << " at " << sta.vertex_name(v);
  }
  return ::testing::AssertionSuccess();
}

/// One baseline + per-scenario tables and plans under a corner, laid
/// out for the direct evaluate_points_delta* calls.  The corner and the
/// baseline live on the heap: the contexts point at them.
struct DirectPoints {
  std::unique_ptr<const st::Corner> corner;
  std::vector<const st::NoiseAnnotation*> base_table;
  std::unique_ptr<st::TimingState> baseline;
  std::vector<std::vector<const st::NoiseAnnotation*>> tables;
  std::vector<st::StaEngine::DeltaPlan> plans;
  std::vector<st::StaEngine::EvalContext> contexts;
  std::vector<const st::TimingState*> baselines;
  std::vector<const st::StaEngine::DeltaPlan*> plan_ptrs;
};

DirectPoints direct_points(st::StaEngine& sta,
                           const std::vector<st::NoiseScenario>& scenarios,
                           const st::Corner& corner) {
  sta.prepare();
  DirectPoints d;
  d.corner = std::make_unique<const st::Corner>(corner);
  d.base_table = sta.compile_edge_annotations(nullptr);
  st::StaEngine::EvalContext base;
  base.edge_noise = d.base_table.data();
  base.corner = d.corner.get();
  base.corner_key = corner.key();
  base.method = &sta.noise_method();
  d.baseline = std::make_unique<st::TimingState>();
  sta.evaluate(*d.baseline, base);
  const size_t n = scenarios.size();
  d.tables.reserve(n);
  d.plans.reserve(n);
  for (const auto& sc : scenarios) {
    d.tables.push_back(sta.compile_edge_annotations(&sc));
    d.plans.push_back(sta.delta_plan(sc));
  }
  d.contexts.assign(n, base);
  d.baselines.assign(n, d.baseline.get());
  for (size_t p = 0; p < n; ++p) {
    d.contexts[p].edge_noise = d.tables[p].data();
    d.plan_ptrs.push_back(&d.plans[p]);
  }
  return d;
}

/// The W=1 walker (every build) and the W=4 walker (AVX2), in states and
/// endpoint-rows mode, against full evaluate() and scalar
/// evaluate_delta(), every field of every vertex / endpoint bitwise.
void expect_walkers_match_oracles(CutoffDesign& design,
                                  const std::vector<st::NoiseScenario>& sc,
                                  const st::Corner& corner) {
  st::StaEngine& sta = *design.sta;
  auto d = direct_points(sta, sc, corner);
  const size_t n = sc.size();
  std::vector<st::TimingState> full(n), scalar(n);
  for (size_t p = 0; p < n; ++p) sta.evaluate(full[p], d.contexts[p]);
  sta.evaluate_points_delta(scalar, d.contexts, d.baselines, d.plan_ptrs);
  for (size_t p = 0; p < n; ++p) {
    ASSERT_TRUE(StateRowsBitEq(sta, full[p], scalar[p])) << "scalar " << p;
  }
  const size_t n_endpoints = sta.endpoint_ports().size();
  std::vector<size_t> endpoint_vertex;
  for (const int32_t port : sta.endpoint_ports()) {
    const auto& name = design.netlist->ports()[static_cast<size_t>(port)].name;
    endpoint_vertex.push_back(static_cast<size_t>(sta.pin(name).index));
  }
  for (const int width : {1, 4}) {
    if (width == 4 && !avx2()) continue;
    SCOPED_TRACE("W=" + std::to_string(width));
    std::vector<st::TimingState> states(n);
    sta.evaluate_points_delta_lanes(states, d.contexts, d.baselines,
                                    d.plan_ptrs, width);
    std::vector<st::VertexTiming> rows(n * n_endpoints);
    sta.evaluate_points_delta_lanes(rows, d.contexts, d.baselines,
                                    d.plan_ptrs, width);
    for (size_t p = 0; p < n; ++p) {
      EXPECT_TRUE(StateRowsBitEq(sta, full[p], states[p])) << "point " << p;
      for (size_t e = 0; e < n_endpoints; ++e) {
        EXPECT_TRUE(RowBitEq(full[p][endpoint_vertex[e]],
                             rows[p * n_endpoints + e]))
            << "point " << p << " endpoint " << e;
      }
    }
  }
}

st::Corner slow_corner() {
  st::Corner slow;
  slow.name = "slow";
  slow.cell_delay_scale = 1.08;
  slow.cell_slew_scale = 1.05;
  slow.wire_delay_scale = 1.15;
  return slow;
}

}  // namespace

TEST(LaneCutoff, FixtureConesDieWhereDesigned) {
  auto d = cutoff_design();
  const auto& quiet = annotate_quiet_n6(d);
  const auto far = cutoff_bump(d, "n6", "g8/A", kFarAlignment, 0.3);
  // The far bump is exactly zero on every sample: same waveform, same
  // memo key as the engine's quiet annotation.
  EXPECT_EQ(far.entries[0].annotation.key, quiet.key);
  const std::vector<st::NoiseScenario> sc = {
      far, cutoff_bump(d, "n1", "g2/A", 0.0, 0.2),
      cutoff_bump(d, "n2", "g3/A", 0.0, 0.3)};
  auto pts = direct_points(*d.sta, sc, st::Corner{});
  std::vector<st::TimingState> full(sc.size());
  for (size_t p = 0; p < sc.size(); ++p) {
    d.sta->evaluate(full[p], pts.contexts[p]);
  }
  // Dies at its root: nothing changes although the cone is 3 vertices.
  EXPECT_EQ(pts.plans[0].forward.size(), 3u);
  EXPECT_TRUE(changed_vertices(*d.sta, full[0], *pts.baseline).empty());
  // Dies mid-way: only the noisy NAND input moves.
  EXPECT_EQ(pts.plans[1].forward.size(), 5u);
  EXPECT_EQ(changed_vertices(*d.sta, full[1], *pts.baseline),
            std::vector<std::string>{"g2/A"});
  // Reaches the endpoint y.
  const auto reach = changed_vertices(*d.sta, full[2], *pts.baseline);
  EXPECT_NE(std::find(reach.begin(), reach.end(), "y"), reach.end());
}

TEST(LaneCutoff, WalkersMatchScalarAndFullEvaluation) {
  auto d = cutoff_design();
  (void)annotate_quiet_n6(d);
  const auto far = cutoff_bump(d, "n6", "g8/A", kFarAlignment, 0.3);
  const auto mid = cutoff_bump(d, "n1", "g2/A", 0.0, 0.2);
  const auto reach = cutoff_bump(d, "n2", "g3/A", 0.0, 0.3);
  const auto reach_z = cutoff_bump(d, "n6", "g8/A", 5e-12, 0.35);
  const std::vector<std::vector<st::NoiseScenario>> cases = {
      {far},
      {mid},
      {reach},
      // Four distinct cones: one union-merged block whose lanes change
      // different vertex sets (none, g2/A, the y path, the z path).
      {far, mid, reach, reach_z},
      // Three variants of one cone: a 3-real-lane padded block.
      {reach, cutoff_bump(d, "n2", "g3/A", 10e-12, 0.25),
       cutoff_bump(d, "n2", "g3/A", -5e-12, 0.4)},
  };
  if (avx2()) {
    // The groupings above are the block shapes they stand for.
    auto u = direct_points(*d.sta, cases[3], st::Corner{});
    const auto blocks =
        d.sta->group_lane_blocks(u.contexts, u.baselines, u.plan_ptrs, 4);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].points.size(), 4u);
    EXPECT_NE(blocks[0].owned_plan, nullptr);
    auto padded = direct_points(*d.sta, cases[4], st::Corner{});
    const auto pb = d.sta->group_lane_blocks(
        padded.contexts, padded.baselines, padded.plan_ptrs, 4);
    ASSERT_EQ(pb.size(), 1u);
    EXPECT_EQ(pb[0].points.size(), 3u);
  }
  for (const auto& corner : {st::Corner{}, slow_corner()}) {
    for (size_t c = 0; c < cases.size(); ++c) {
      SCOPED_TRACE("corner=" + corner.name + " case " + std::to_string(c));
      expect_walkers_match_oracles(d, cases[c], corner);
    }
  }
}

TEST(LaneCutoff, SweepsMatchDeltaFalseAndReportFoldedWork) {
  auto d = cutoff_design();
  (void)annotate_quiet_n6(d);
  const double V = static_cast<double>(d.sta->vertex_count());
  const auto variants = [&d](const char* net, const char* sink,
                             double alignment) {
    std::vector<st::NoiseScenario> out;
    for (const double strength : {0.12, 0.16, 0.2, 0.24}) {
      out.push_back(cutoff_bump(d, net, sink, alignment, strength));
    }
    return out;
  };
  struct Case {
    const char* what;
    std::vector<st::NoiseScenario> scenarios;
    double folded_per_point;  ///< lane-walk folds per point (AVX2)
  };
  const std::vector<Case> cases = {
      {"dies at its root", variants("n6", "g8/A", kFarAlignment), 1.0},
      {"dies mid-way", variants("n1", "g2/A", 0.0), 2.0},
      {"reaches y", variants("n2", "g3/A", 0.0), -1.0},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    st::SweepSpec oracle;
    oracle.scenarios = c.scenarios;
    oracle.corners = {st::Corner{}, slow_corner()};
    oracle.threads = 2;
    oracle.delta = false;
    oracle.lanes = 1;
    const auto ref = d.sta->sweep(oracle);
    EXPECT_EQ(ref.prune_stats().folded_vertex_fraction, 1.0);

    // States mode keeps its backward fold: every field of every vertex,
    // required times included, equals the delta = false oracle.
    st::SweepSpec states = oracle;
    states.delta = true;
    states.lanes = 0;
    const auto got_states = d.sta->sweep(states);
    for (size_t p = 0; p < ref.size(); ++p) {
      EXPECT_TRUE(StateRowsBitEq(*d.sta, ref.state(p), got_states.state(p)))
          << "point " << p;
    }

    st::SweepSpec rows = states;
    rows.endpoint_only = true;
    const auto got = d.sta->sweep(rows);
    expect_summaries_bitwise_equal(ref, got);
    const auto& ps = got.prune_stats();
    EXPECT_LE(ps.folded_vertex_fraction, ps.dirty_vertex_fraction + 1e-12);
    if (avx2()) {
      // One four-lane block per corner; the walk folds only what the
      // noise reaches.
      if (c.folded_per_point > 0.0) {
        EXPECT_LT(ps.folded_vertex_fraction, ps.dirty_vertex_fraction);
        EXPECT_NEAR(ps.folded_vertex_fraction * V, c.folded_per_point,
                    1e-9);
      }
      EXPECT_EQ(got_states.prune_stats().folded_vertex_fraction,
                ps.folded_vertex_fraction);
    } else {
      // The scalar delta path folds every cone in full.
      EXPECT_NEAR(ps.folded_vertex_fraction, ps.dirty_vertex_fraction,
                  1e-12);
    }
  }
}

TEST(LaneCutoff, EndpointsDriveNothingOnEveryGenerator) {
  // The endpoint-rows walk skips required times because no endpoint
  // drives an edge; engine construction asserts it, so every in-repo
  // generator must build.
  const auto check = [](const wn::Netlist& nl, const char* what) {
    std::unique_ptr<st::StaEngine> sta;
    EXPECT_NO_THROW(sta = std::make_unique<st::StaEngine>(nl, tu::vcl013()))
        << what;
    if (sta != nullptr) {
      EXPECT_FALSE(sta->endpoint_ports().empty()) << what;
    }
  };
  check(wn::make_random_dag(2026, 24, 50, 80), "dense DAG");
  check(wn::make_random_dag(7, 6, 5, 7), "random DAG");
  check(wn::make_chain_tree(6), "chain tree");
  const auto grid = wn::make_grid_block(8, 12);
  check(grid, "grid block");
  for (const auto topology :
       {wn::StitchTopology::kParallel, wn::StitchTopology::kChain}) {
    wn::StitchOptions opt;
    opt.copies = 3;
    opt.topology = topology;
    check(wn::stitch_blocks_flat(grid, opt), "flat stitch");
  }
  const auto block = wn::make_random_dag(13, 4, 4, 5);
  const auto model = st::extract_block_model(block, tu::vcl013());
  wn::StitchOptions opt;
  opt.copies = 3;
  const auto hier = st::HierDesign::build(block, tu::vcl013(), model, opt);
  EXPECT_FALSE(hier.engine().endpoint_ports().empty()) << "hier stitch";

  // The one way to break it: an output port named like an instance
  // input pin shares that pin's vertex, which drives the cell arc.
  wn::Netlist clash;
  clash.add_port("a", wn::PortDirection::kInput);
  clash.add_port("u1/A", wn::PortDirection::kOutput);
  clash.add_instance({"u0", "INVX1", {{"A", "a"}, {"Y", "u1/A"}}});
  clash.add_instance({"u1", "INVX1", {{"A", "n"}, {"Y", "y"}}});
  try {
    st::StaEngine bad(clash, tu::vcl013());
    ADD_FAILURE() << "an output port driving an edge was accepted";
  } catch (const wu::Error& e) {
    EXPECT_NE(std::string(e.what()).find("output port u1/A drives an edge"),
              std::string::npos)
        << e.what();
  }
}
