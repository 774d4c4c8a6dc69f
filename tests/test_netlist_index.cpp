// Netlist lookup indexes (name → port / instance, the net → pin
// incidence, degrees, drivers, fanout cones) checked against brute-force
// scans of the public ports/nets/instances tables — on generated DAGs,
// stitched hierarchical designs, after retype/reroute edits and on
// copies.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "netlist/generators.hpp"
#include "netlist/netlist.hpp"
#include "util/error.hpp"

namespace nl = waveletic::netlist;
namespace wu = waveletic::util;

namespace {

/// Output pins of every design here: gate outputs are "Y"; a stitched
/// macro's outputs are the block's output ports, named "n<layer>_<k>".
bool drives(const nl::Instance&, const std::string& pin) {
  return pin == "Y" || pin[0] == 'n';
}

const nl::Port* brute_port(const nl::Netlist& n, const std::string& name) {
  for (const auto& p : n.ports()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const nl::Instance* brute_instance(const nl::Netlist& n,
                                   const std::string& name) {
  for (const auto& inst : n.instances()) {
    if (inst.name == name) return &inst;
  }
  return nullptr;
}

std::vector<std::pair<const nl::Instance*, std::string>> brute_pins(
    const nl::Netlist& n, const std::string& net) {
  std::vector<std::pair<const nl::Instance*, std::string>> out;
  for (const auto& inst : n.instances()) {
    for (const auto& [pin, pin_net] : inst.pins) {
      if (pin_net == net) out.emplace_back(&inst, pin);
    }
  }
  return out;
}

const nl::Instance* brute_driver(const nl::Netlist& n,
                                 const std::string& net) {
  for (const auto& [inst, pin] : brute_pins(n, net)) {
    if (drives(*inst, pin)) return inst;
  }
  return nullptr;
}

/// Fixed-point closure over all instances, the definition
/// transitive_fanout_nets() documents.
std::vector<int> brute_fanout(const nl::Netlist& n, int seed) {
  std::vector<char> reached(n.nets().size(), 0);
  reached[static_cast<size_t>(seed)] = 1;
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& inst : n.instances()) {
      bool hit = false;
      for (const auto& [pin, net] : inst.pins) {
        hit |= !drives(inst, pin) &&
               reached[static_cast<size_t>(n.net_ordinal(net))] != 0;
      }
      if (!hit) continue;
      for (const auto& [pin, net] : inst.pins) {
        auto& r = reached[static_cast<size_t>(n.net_ordinal(net))];
        if (drives(inst, pin) && !r) r = grew = true;
      }
    }
  }
  std::vector<int> out;
  for (size_t i = 0; i < reached.size(); ++i) {
    if (reached[i]) out.push_back(static_cast<int>(i));
  }
  return out;
}

/// Every indexed lookup of `n` equals its brute-force scan.
void expect_indexes_match(const nl::Netlist& n) {
  for (const auto& p : n.ports()) {
    EXPECT_EQ(n.find_port(p.name), brute_port(n, p.name)) << p.name;
  }
  for (const auto& inst : n.instances()) {
    EXPECT_EQ(n.find_instance(inst.name), brute_instance(n, inst.name))
        << inst.name;
  }
  EXPECT_EQ(n.find_port("no/such/port"), nullptr);
  EXPECT_EQ(n.find_instance("no/such/instance"), nullptr);
  EXPECT_EQ(n.port_ordinal("no/such/port"), -1);

  // Pin ordinals: instance i owns [first_pin(i), first_pin(i + 1)).
  for (size_t i = 0; i < n.instances().size(); ++i) {
    const auto& inst = n.instances()[i];
    ASSERT_EQ(n.first_pin(i + 1) - n.first_pin(i),
              static_cast<int32_t>(inst.pins.size()));
    int32_t p = n.first_pin(i);
    for (const auto& [pin, net] : inst.pins) {
      EXPECT_EQ(n.pin_instance(p), static_cast<int32_t>(i));
      EXPECT_EQ(&n.pin_owner(p), &inst);
      EXPECT_EQ(n.pin_name(p), pin);
      EXPECT_EQ(n.pin_net(p), n.net_ordinal(net));
      ++p;
    }
  }

  for (size_t ord = 0; ord < n.nets().size(); ++ord) {
    const std::string& net = n.nets()[ord];
    const int o = static_cast<int>(ord);
    const auto want = brute_pins(n, net);
    const auto got = n.pins_on_net(net);
    ASSERT_EQ(got.size(), want.size()) << net;
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].instance, want[k].first) << net;
      EXPECT_EQ(got[k].pin, want[k].second) << net;
    }
    size_t walked = 0;
    for (const int32_t p : n.net_pins(o)) {
      ASSERT_LT(walked, want.size()) << net;
      EXPECT_EQ(&n.pin_owner(p), want[walked].first) << net;
      EXPECT_EQ(n.pin_name(p), want[walked].second) << net;
      ++walked;
    }
    EXPECT_EQ(walked, want.size()) << net;
    const nl::Port* port = brute_port(n, net);
    EXPECT_EQ(n.port_of_net(o),
              port ? static_cast<int>(port - n.ports().data()) : -1);
    EXPECT_EQ(n.net_degree(o),
              static_cast<int>(want.size()) + (port != nullptr ? 1 : 0))
        << net;
    EXPECT_EQ(n.net_degree(net), n.net_degree(o));
    EXPECT_EQ(n.driver_of(o, drives), brute_driver(n, net)) << net;
  }
  const int n_nets = static_cast<int>(n.nets().size());
  EXPECT_FALSE(n.net_pins(-1).begin() != n.net_pins(-1).end());
  EXPECT_FALSE(n.net_pins(n_nets).begin() != n.net_pins(n_nets).end());
  EXPECT_EQ(n.driver_of(n_nets, drives), nullptr);
  EXPECT_EQ(n.port_of_net(n_nets), -1);
}

/// Fanout cones of a spread of seeds match the brute-force closure.
void expect_fanout_matches(const nl::Netlist& n) {
  const size_t step = std::max<size_t>(1, n.nets().size() / 23);
  for (size_t ord = 0; ord < n.nets().size(); ord += step) {
    const int seed = static_cast<int>(ord);
    EXPECT_EQ(n.transitive_fanout_nets({&seed, 1}, drives),
              brute_fanout(n, seed))
        << n.nets()[ord];
  }
}

nl::Netlist stitched(nl::StitchTopology topology, int expanded) {
  nl::StitchOptions opt;
  opt.copies = 5;
  opt.topology = topology;
  opt.expanded = expanded;
  return nl::stitch_blocks(nl::make_random_dag(3, 4, 5, 6), opt);
}

}  // namespace

TEST(NetlistIndex, RandomDagMatchesBruteForce) {
  for (const uint64_t seed : {1u, 7u, 2026u}) {
    const auto n = nl::make_random_dag(seed, 6, 12, 9);
    expect_indexes_match(n);
    expect_fanout_matches(n);
  }
}

TEST(NetlistIndex, StitchedDesignsMatchBruteForce) {
  for (const auto topology :
       {nl::StitchTopology::kParallel, nl::StitchTopology::kChain}) {
    for (const int expanded : {0, 2, -1}) {
      const auto n = stitched(topology, expanded);
      expect_indexes_match(n);
      expect_fanout_matches(n);
    }
  }
  nl::StitchOptions opt;
  opt.copies = 3;
  opt.topology = nl::StitchTopology::kChain;
  const auto flat = nl::stitch_blocks_flat(nl::make_random_dag(5, 3, 4, 5),
                                           opt);
  expect_indexes_match(flat);
  expect_fanout_matches(flat);
}

TEST(NetlistIndex, EditsKeepIndexesCurrent) {
  auto n = nl::make_random_dag(11, 5, 8, 7);
  const auto& inst = n.instances();
  n.retype_instance(inst[3].name, "INVX4");
  EXPECT_EQ(n.find_instance(inst[3].name)->cell, "INVX4");
  // Move sinks between existing nets, onto a fresh net, onto the net's
  // head and tail positions, and back again.
  const std::string first_net = inst.front().pins.at("Y");
  const std::string last_net = inst.back().pins.at("Y");
  n.reroute_pin(inst[20].name, "A", first_net);
  n.reroute_pin(inst[0].name, "A", last_net);
  n.reroute_pin(inst[30].name, "A", "eco_fresh");
  n.reroute_pin(inst[31].name, "A", "eco_fresh");
  n.reroute_pin(inst[25].name, "A", "eco_fresh");
  expect_indexes_match(n);
  expect_fanout_matches(n);
  n.reroute_pin(inst[30].name, "A", inst[29].pins.at("Y"));
  n.reroute_pin(inst[25].name, "A", inst[24].pins.at("Y"));
  n.reroute_pin(inst[31].name, "A", inst[24].pins.at("Y"));
  EXPECT_EQ(n.net_degree("eco_fresh"), 0);
  expect_indexes_match(n);
  expect_fanout_matches(n);
}

TEST(NetlistIndex, CopiesCarryTheirOwnIndexes) {
  const auto original = stitched(nl::StitchTopology::kChain, 1);
  nl::Netlist copy = original;
  expect_indexes_match(copy);
  // Lookups on the copy point into the copy, not the original.
  const auto& name = original.instances()[2].name;
  EXPECT_EQ(copy.find_instance(name), &copy.instances()[2]);
  EXPECT_EQ(original.find_instance(name), &original.instances()[2]);
  // Editing the copy leaves the original's indexes untouched.
  const auto* victim = &copy.instances()[4];
  const std::string pin = victim->pins.begin()->first;
  copy.reroute_pin(victim->name, pin, "copy_only");
  copy.add_instance({"extra", "INVX1", {{"A", "copy_only"}, {"Y", "z"}}});
  expect_indexes_match(copy);
  expect_indexes_match(original);
  EXPECT_FALSE(original.has_net("copy_only"));
  EXPECT_EQ(original.find_instance("extra"), nullptr);
  nl::Netlist moved = std::move(copy);
  expect_indexes_match(moved);
}

TEST(NetlistIndex, DuplicatesAndUnknownsThrowTheSameText) {
  nl::Netlist n;
  n.add_port("a", nl::PortDirection::kInput);
  n.add_instance({"u1", "INVX1", {{"A", "a"}, {"Y", "y"}}});
  const auto message = [](auto&& f) {
    try {
      f();
    } catch (const wu::Error& e) {
      return std::string(e.what());
    }
    return std::string("<no throw>");
  };
  EXPECT_EQ(message([&] { n.add_port("a", nl::PortDirection::kOutput); }),
            "duplicate port a");
  EXPECT_EQ(message([&] {
              n.add_instance({"u1", "INVX1", {{"A", "a"}, {"Y", "z"}}});
            }),
            "duplicate instance u1");
  EXPECT_EQ(message([&] { n.retype_instance("u9", "INVX4"); }),
            "retype_instance: unknown instance 'u9' in netlist 'top'");
  EXPECT_EQ(message([&] { n.reroute_pin("u9", "A", "y"); }),
            "reroute_pin: unknown instance 'u9' in netlist 'top'");
  EXPECT_EQ(message([&] { n.reroute_pin("u1", "B", "y"); }),
            "reroute_pin: instance 'u1' has no pin 'B'");
  // A rejected duplicate leaves the indexes as they were.
  EXPECT_FALSE(n.has_net("z"));
  expect_indexes_match(n);
}
