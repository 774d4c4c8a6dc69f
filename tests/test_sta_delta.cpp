// Baseline + delta scenario propagation and slack-bound pruning:
// dirty-cone plan structure (engine graph vs netlist-level fanout
// query), delta-vs-full bitwise identity on randomized netlists at
// 1/2/4 threads with scenarios touching one/few/all nets and
// engine-level annotation overlays, endpoint-only agreement, prune=safe
// exactness (worst_slack/worst_point/critical_endpoint never change),
// bound validity, and pruned/reused accessor errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "netlist/generators.hpp"
#include "netlist/netlist.hpp"
#include "sta/engine.hpp"
#include "sta/sweep.hpp"
#include "sta_test_util.hpp"
#include "util/error.hpp"

namespace lb = waveletic::liberty;
namespace nl = waveletic::netlist;
namespace st = waveletic::sta;
namespace tu = waveletic::statest;
namespace wu = waveletic::util;
namespace wv = waveletic::wave;

namespace {

/// One scenario annotating EVERY instance input net that has a valid
/// falling victim transition — the cone-covers-everything stress shape.
st::NoiseScenario all_nets_scenario(const tu::EngineFixture& f) {
  st::StaEngine clean(*f.netlist, tu::vcl013());
  tu::constrain_ports(clean, *f.netlist);
  clean.run();
  st::NoiseScenario s;
  s.name = "all-nets";
  for (const auto& inst : f.netlist->instances()) {
    const auto& net = inst.pins.at("A");
    const auto& t = clean.timing(inst.name + "/A", st::RiseFall::kFall);
    if (!t.valid || t.slew <= 0.0) continue;
    auto one = st::make_aggressor_scenario(net, t.arrival, t.slew,
                                           tu::vcl013().nom_voltage,
                                           wv::Polarity::kFalling, 5e-12, 0.3);
    s.annotate(net, one.entries[0].annotation.waveform,
               one.entries[0].annotation.polarity);
  }
  return s;
}

std::vector<st::Corner> two_corners() {
  st::Corner slow;
  slow.name = "slow";
  slow.cell_delay_scale = 1.10;
  slow.cell_slew_scale = 1.06;
  slow.wire_delay_scale = 1.20;
  return {st::Corner{}, slow};
}

/// The one/few(overlapping)/all-nets scenario mix every delta suite
/// sweeps.
std::vector<st::NoiseScenario> mixed_scenarios(const tu::EngineFixture& f) {
  auto scenarios = tu::random_scenarios(f, 4);  // one net each
  st::NoiseScenario merged;                     // few nets, overlapping cones
  merged.name = "merged";
  for (int i = 0; i < 3; ++i) {
    for (const auto& e : scenarios[static_cast<size_t>(i)].entries) {
      merged.annotate(e.net, e.annotation.waveform, e.annotation.polarity);
    }
  }
  scenarios.push_back(std::move(merged));
  scenarios.push_back(all_nets_scenario(f));
  return scenarios;
}

}  // namespace

TEST(StaDelta, DeltaPlanMatchesNetlistFanoutCone) {
  const auto net = nl::make_chain_tree(4);
  st::StaEngine sta(net, tu::vcl013());
  tu::constrain_chain_tree(sta, 4);

  const auto bump = st::make_aggressor_scenario(
      "c0_1", 0.2e-9, 80e-12, tu::vcl013().nom_voltage,
      wv::Polarity::kFalling, 0.0, 0.4);

  const auto plan = sta.delta_plan(bump);
  ASSERT_EQ(plan.num_vertices, sta.vertex_count());
  ASSERT_FALSE(plan.forward.empty());

  auto contains = [](const std::vector<int>& v, int x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };
  // The victim chain and the fold tree are dirty; sibling chains are not.
  EXPECT_TRUE(contains(plan.forward, sta.pin("inv0_2/A").index));
  EXPECT_TRUE(contains(plan.forward, sta.pin("y").index));
  EXPECT_FALSE(contains(plan.forward, sta.pin("inv1_1/A").index));
  EXPECT_FALSE(contains(plan.forward, sta.pin("inv1_1/Y").index));
  // forward ⊆ backward (required times recompute over the fanin
  // closure of the cone), and both are level-sorted.
  for (const int v : plan.forward) EXPECT_TRUE(contains(plan.backward, v));
  for (size_t i = 1; i < plan.forward.size(); ++i) {
    EXPECT_LE(sta.vertex_levels()[static_cast<size_t>(plan.forward[i - 1])],
              sta.vertex_levels()[static_cast<size_t>(plan.forward[i])]);
  }
  for (size_t i = 1; i < plan.backward.size(); ++i) {
    EXPECT_GE(sta.vertex_levels()[static_cast<size_t>(plan.backward[i - 1])],
              sta.vertex_levels()[static_cast<size_t>(plan.backward[i])]);
  }
  // The single endpoint y lies in the cone.
  ASSERT_EQ(plan.endpoints.size(), 1u);
  EXPECT_EQ(plan.endpoints[0], 0);

  // Netlist-layer counterpart: the net-level transitive fanout under a
  // liberty-driven direction predicate covers every dirty instance
  // input pin's net.
  const auto& lib = tu::vcl013();
  const int seed_ord = net.net_ordinal("c0_1");
  const std::vector<int> seeds = {seed_ord};
  const auto cone_nets = net.transitive_fanout_nets(
      seeds, [&](const nl::Instance& inst, const std::string& pin) {
        return lib.find_cell(inst.cell)->find_pin(pin)->direction ==
               lb::PinDirection::kOutput;
      });
  EXPECT_TRUE(std::binary_search(cone_nets.begin(), cone_nets.end(),
                                 seed_ord));  // seeds included
  EXPECT_TRUE(std::binary_search(cone_nets.begin(), cone_nets.end(),
                                 net.net_ordinal("c0_2")));
  EXPECT_TRUE(std::binary_search(cone_nets.begin(), cone_nets.end(),
                                 net.net_ordinal("y")));
  EXPECT_FALSE(std::binary_search(cone_nets.begin(), cone_nets.end(),
                                  net.net_ordinal("c1_1")));
  EXPECT_FALSE(std::binary_search(cone_nets.begin(), cone_nets.end(),
                                  net.net_ordinal("a0")));
  for (const int v : plan.forward) {
    const std::string& name = sta.vertex_name(static_cast<size_t>(v));
    const auto slash = name.find('/');
    const std::string nname =
        slash == std::string::npos
            ? name
            : net.find_instance(name.substr(0, slash))
                  ->pins.at(name.substr(slash + 1));
    EXPECT_TRUE(std::binary_search(cone_nets.begin(), cone_nets.end(),
                                   net.net_ordinal(nname)))
        << "dirty vertex " << name << " on net " << nname
        << " outside the netlist-level cone";
  }

  // A clean scenario has an empty plan: its point IS the baseline.
  EXPECT_TRUE(sta.delta_plan(st::NoiseScenario{}).forward.empty());
  // Unknown nets are rejected naming the scenario.
  st::NoiseScenario bad = bump;
  bad.entries[0].net = "no_such_net";
  EXPECT_THROW((void)sta.delta_plan(bad), wu::Error);
}

TEST(StaDelta, DeltaBitwiseIdenticalToFullAcrossThreads) {
  for (const uint64_t seed : {3ull, 11ull}) {
    const auto f = tu::random_engine(seed);
    st::SweepSpec spec;
    spec.corners = two_corners();
    spec.scenarios = mixed_scenarios(f);
    spec.threads = 1;
    spec.delta = false;  // full-graph-per-point oracle
    const auto oracle = f.sta->sweep(spec);

    for (const int threads : {1, 2, 4}) {
      spec.delta = true;
      spec.threads = threads;
      const auto delta = f.sta->sweep(spec);
      ASSERT_EQ(delta.size(), oracle.size());
      for (size_t p = 0; p < delta.size(); ++p) {
        EXPECT_TRUE(tu::states_bitwise_equal(oracle.state(p), delta.state(p),
                                             f.sta.get()))
            << "seed " << seed << " threads " << threads << " point " << p;
      }
      // Repeated delta runs are bitwise stable too.
      const auto again = f.sta->sweep(spec);
      for (size_t p = 0; p < delta.size(); ++p) {
        EXPECT_TRUE(tu::states_bitwise_equal(delta.state(p), again.state(p),
                                             f.sta.get()))
            << "repeat, seed " << seed << " threads " << threads;
      }
    }
  }
}

TEST(StaDelta, EngineLevelOverlayStaysBitwiseIdentical) {
  const auto f = tu::random_engine(7);
  const auto scenarios = tu::random_scenarios(f, 3);

  // Engine-level annotation on the net scenario 0 also touches: the
  // baseline carries it for every scenario, and scenario 0's own
  // annotation must win on the shared net (overlay semantics).
  const auto& e0 = scenarios[0].entries[0];
  auto engine_wave = e0.annotation.waveform.shifted(7e-12);
  f.sta->annotate_noisy_net(e0.net, engine_wave, e0.annotation.polarity);

  st::SweepSpec spec;
  spec.scenarios = scenarios;
  spec.threads = 2;
  spec.delta = false;
  const auto full = f.sta->sweep(spec);
  spec.delta = true;
  const auto delta = f.sta->sweep(spec);
  for (size_t p = 0; p < full.size(); ++p) {
    EXPECT_TRUE(
        tu::states_bitwise_equal(full.state(p), delta.state(p), f.sta.get()))
        << "point " << p;
  }
  f.sta->clear_noisy_nets();
}

TEST(StaDelta, EndpointOnlyDeltaAgreesWithFullBitwise) {
  const auto f = tu::random_engine(13);
  st::SweepSpec spec;
  spec.corners = two_corners();
  spec.scenarios = tu::random_scenarios(f, 5);
  spec.threads = 2;
  spec.delta = false;
  const auto full = f.sta->sweep(spec);

  spec.delta = true;
  spec.endpoint_only = true;
  spec.endpoint_chunk = 3;  // force several chunks
  const auto summary = f.sta->sweep(spec);
  ASSERT_EQ(summary.size(), full.size());
  for (size_t p = 0; p < full.size(); ++p) {
    EXPECT_EQ(summary.worst_slack(p), full.worst_slack(p)) << "point " << p;
    const auto cs = summary.critical_endpoint(p);
    const auto cf = full.critical_endpoint(p);
    EXPECT_EQ(cs.endpoint, cf.endpoint);
    EXPECT_EQ(cs.rf, cf.rf);
    EXPECT_EQ(cs.slack, cf.slack);
    for (size_t e = 0; e < summary.num_endpoints(); ++e) {
      for (int rf = 0; rf < 2; ++rf) {
        EXPECT_EQ(
            summary.endpoint_arrival(p, e, static_cast<st::RiseFall>(rf)),
            full.endpoint_arrival(p, e, static_cast<st::RiseFall>(rf)));
      }
    }
  }
  const auto stats = summary.prune_stats();
  EXPECT_EQ(stats.points, summary.size());
  EXPECT_EQ(stats.evaluated, summary.size());
  EXPECT_GT(stats.dirty_vertex_fraction, 0.0);
  EXPECT_LT(stats.dirty_vertex_fraction, 1.0);
}

TEST(StaDelta, PruneSafeNeverChangesTheExactAnswers) {
  for (const uint64_t seed : {5ull, 17ull}) {
    const auto f = tu::random_engine(seed, 8, 5, 9);
    // Mix critical (aligned, strong) and harmless (far, weak) bumps so
    // pruning has something to skip.
    st::StaEngine clean(*f.netlist, tu::vcl013());
    tu::constrain_ports(clean, *f.netlist);
    clean.run();
    std::vector<st::NoiseScenario> scenarios = tu::random_scenarios(f, 6);
    for (int i = 0; i < 12; ++i) {
      const auto& inst =
          f.netlist->instances()[static_cast<size_t>(i) %
                                 f.netlist->instances().size()];
      const auto& t = clean.timing(inst.name + "/A", st::RiseFall::kFall);
      if (!t.valid || t.slew <= 0.0) continue;
      scenarios.push_back(st::make_aggressor_scenario(
          inst.pins.at("A"), t.arrival, t.slew, tu::vcl013().nom_voltage,
          wv::Polarity::kFalling, 1.5e-9 + 10e-12 * i, 1e-7));
    }

    st::SweepSpec spec;
    spec.corners = two_corners();
    spec.scenarios = scenarios;
    spec.threads = 2;
    const auto exact = f.sta->sweep(spec);  // prune off, delta on

    for (const bool delta : {true, false}) {
      spec.delta = delta;
      spec.prune = st::PruneMode::kSafe;
      const auto pruned = f.sta->sweep(spec);
      spec.prune = st::PruneMode::kOff;

      // The sweep-level answers are exact and bitwise unchanged.
      const auto wp_exact = exact.worst_point();
      const auto wp_pruned = pruned.worst_point();
      EXPECT_EQ(wp_pruned.point, wp_exact.point) << "seed " << seed;
      EXPECT_EQ(wp_pruned.slack, wp_exact.slack);
      const auto ce_exact = exact.critical_endpoint(wp_exact.point);
      const auto ce_pruned = pruned.critical_endpoint(wp_pruned.point);
      EXPECT_EQ(ce_pruned.endpoint, ce_exact.endpoint);
      EXPECT_EQ(ce_pruned.slack, ce_exact.slack);

      const auto stats = pruned.prune_stats();
      EXPECT_EQ(stats.points, pruned.size());
      EXPECT_EQ(stats.evaluated + stats.pruned + stats.reused, stats.points);
      for (size_t p = 0; p < pruned.size(); ++p) {
        // Every bound is a TRUE lower bound on the exact worst slack —
        // the safety invariant pruning rests on.
        EXPECT_LE(pruned.worst_slack_bound(p), exact.worst_slack(p))
            << "seed " << seed << " point " << p << " delta " << delta;
        if (!pruned.pruned(p)) {
          EXPECT_EQ(pruned.worst_slack(p), exact.worst_slack(p))
              << "seed " << seed << " point " << p;
        } else {
          // A pruned point must be strictly beaten by the worst point.
          EXPECT_GT(pruned.worst_slack_bound(p), wp_exact.slack);
        }
      }
      if (stats.evaluated > 0) EXPECT_GE(stats.min_bound_gap, 0.0);
    }
  }
}

TEST(StaDelta, PrunedPointAccessorsThrowNamingFieldAndAlternatives) {
  const int width = 4;
  const auto net = nl::make_chain_tree(width);
  st::StaEngine clean(net, tu::vcl013());
  tu::constrain_chain_tree(clean, width);
  clean.run();

  // One genuinely critical scenario — a strong bump on the critical
  // chain (a3 arrives last, so chain 3 carries the worst path) — plus
  // enough harmless ones (bumps far past the transition, too weak to
  // perturb any crossing: their push-out bound is ~zero) that the
  // sorted tail overflows the first pruning wave.
  st::SweepSpec spec;
  spec.scenarios.push_back(tu::chain_bump_scenario(clean, 3, 0.0, 0.6));
  const auto& t = clean.timing("inv0_2/A", st::RiseFall::kFall);
  for (int i = 0; i < 11; ++i) {
    spec.scenarios.push_back(st::make_aggressor_scenario(
        "c0_1", t.arrival, t.slew, tu::vcl013().nom_voltage,
        wv::Polarity::kFalling, 2e-9 + 5e-12 * i, 1e-7));
  }
  spec.threads = 1;
  spec.prune = st::PruneMode::kSafe;

  st::StaEngine sta(net, tu::vcl013());
  tu::constrain_chain_tree(sta, width);
  const auto r = sta.sweep(spec);
  ASSERT_EQ(r.prune_mode(), st::PruneMode::kSafe);
  const auto stats = r.prune_stats();
  // Wave 1 (8 points at 1 thread) evaluates the strong scenario plus
  // the first harmless ones; the rest are provably unbeatable.
  EXPECT_EQ(stats.evaluated, 8u);
  EXPECT_EQ(stats.pruned, 4u);
  EXPECT_GE(stats.mean_bound_gap, 0.0);

  // The strong scenario is never pruned and carries the worst point.
  EXPECT_FALSE(r.pruned(0));
  EXPECT_EQ(r.worst_point().point, 0u);

  size_t pruned_point = r.size();
  for (size_t p = 0; p < r.size(); ++p) {
    if (r.pruned(p)) pruned_point = p;
  }
  ASSERT_LT(pruned_point, r.size());
  // Pruned accessor errors name the disabling SweepSpec field and the
  // accessors that DO work — same shape as the endpoint-only errors.
  auto expect_prune_error = [](auto&& fn) {
    try {
      fn();
      FAIL() << "expected util::Error";
    } catch (const wu::Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("SweepSpec::prune"), std::string::npos) << msg;
      EXPECT_NE(msg.find("worst_slack_bound"), std::string::npos) << msg;
    }
  };
  expect_prune_error([&] { (void)r.worst_slack(pruned_point); });
  expect_prune_error([&] { (void)r.state(pruned_point); });
  expect_prune_error([&] { (void)r.critical_endpoint(pruned_point); });
  expect_prune_error([&] { (void)r.endpoint_arrival(pruned_point, 0,
                                                    st::RiseFall::kFall); });
  // The bound itself is always available...
  EXPECT_TRUE(std::isfinite(r.worst_slack_bound(pruned_point)));
  // ...but only when pruning actually ran.
  spec.prune = st::PruneMode::kOff;
  const auto off = sta.sweep(spec);
  try {
    (void)off.worst_slack_bound(0);
    FAIL() << "expected util::Error";
  } catch (const wu::Error& e) {
    EXPECT_NE(std::string(e.what()).find("PruneMode::kSafe"),
              std::string::npos);
  }
}

TEST(StaDelta, ConeWithoutEndpointsIsReusedExactlyFromBaseline) {
  // u2 drives a dangling net: annotating it perturbs nothing any
  // endpoint can see, so under pruning the point is recorded exactly
  // from the baseline without propagation.
  nl::Netlist net;
  net.add_port("a", nl::PortDirection::kInput);
  net.add_port("y", nl::PortDirection::kOutput);
  net.add_instance({"u1", "INVX1", {{"A", "a"}, {"Y", "y"}}});
  net.add_instance({"u2", "INVX1", {{"A", "a"}, {"Y", "dead"}}});

  st::StaEngine sta(net, tu::vcl013());
  sta.set_input("a", 0.05e-9, 80e-12);
  sta.set_output_load("y", 5e-15);
  sta.set_required("y", 1e-9);
  sta.run();
  const double base_ws = sta.worst_slack();

  st::SweepSpec spec;
  spec.scenarios.push_back(st::make_aggressor_scenario(
      "dead", 0.1e-9, 80e-12, tu::vcl013().nom_voltage,
      wv::Polarity::kFalling, 0.0, 0.4));
  spec.prune = st::PruneMode::kSafe;
  spec.endpoint_only = true;  // reuse applies to summary-only results
  const auto r = sta.sweep(spec);
  ASSERT_EQ(r.size(), 1u);
  const auto stats = r.prune_stats();
  EXPECT_EQ(stats.reused, 1u);
  EXPECT_EQ(stats.evaluated, 0u);
  EXPECT_EQ(stats.pruned, 0u);
  EXPECT_EQ(r.worst_slack(0), base_ws);  // exact, bitwise
  EXPECT_FALSE(r.pruned(0));
  EXPECT_EQ(r.worst_point().slack, base_ws);
  EXPECT_THROW((void)r.state(0), wu::Error);  // endpoint-only result

  // A full-state pruned sweep must NOT reuse: the point is either
  // materialized or pruned, so worst_point() always has a full state.
  spec.endpoint_only = false;
  const auto full_pruned = sta.sweep(spec);
  EXPECT_EQ(full_pruned.prune_stats().reused, 0u);
  const auto wp = full_pruned.worst_point();
  EXPECT_EQ(wp.slack, base_ws);
  EXPECT_NO_THROW((void)full_pruned.critical_path(wp.point));

  // With pruning off the point IS fully materialized (cone is empty, so
  // the state equals a full clean propagation bitwise).
  spec.prune = st::PruneMode::kOff;
  const auto full = sta.sweep(spec);
  st::SweepSpec clean_spec;
  clean_spec.delta = false;  // independent full-propagation oracle
  const auto clean = sta.sweep(clean_spec);
  EXPECT_TRUE(tu::states_bitwise_equal(clean.state(0), full.state(0), &sta));
}

