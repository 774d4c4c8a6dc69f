#pragma once

/// \file netlist.hpp
/// Gate-level netlist: cell instances wired by nets, with primary
/// input/output ports.  This is the structure the mini-STA engine
/// levelizes; it is deliberately library-agnostic (cells are referenced
/// by name and resolved against a liberty::Library at analysis time).

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "util/ordinal_index.hpp"

namespace waveletic::netlist {

struct Instance {
  std::string name;
  std::string cell;                         ///< library cell name
  std::map<std::string, std::string> pins;  ///< pin name -> net name
};

enum class PortDirection { kInput, kOutput };

struct Port {
  std::string name;  ///< also the net it connects to
  PortDirection direction = PortDirection::kInput;
};

class Netlist {
 public:
  std::string name = "top";

  void add_port(std::string port_name, PortDirection direction);
  void add_net(std::string net_name);
  /// Adds an instance; creates referenced nets that don't exist yet.
  void add_instance(Instance inst);

  // -- incremental edits (the ECO-service write path) ----------------------
  // Ordinal-stability contract: edits never remove or reorder nets,
  // ports, or instances — reroute_pin() may only APPEND a new net — so
  // every ordinal minted before an edit (net_ordinal(), NetId/PortId
  // handles, per-net table indices) stays valid afterwards.

  /// Replaces the library cell of an existing instance (resize/retype).
  /// Pin connections are untouched, so the pin-name set must be
  /// compatible with the new cell — checked at analysis time (and up
  /// front by sta::validate_edits()).  Throws util::Error for an
  /// unknown instance.
  void retype_instance(const std::string& instance_name,
                       std::string new_cell);
  /// Moves one pin of an instance onto `new_net`, creating the net if
  /// absent (appended after all existing nets, keeping every existing
  /// ordinal stable).  Net degrees are maintained incrementally.
  /// Throws util::Error for an unknown instance or pin.
  void reroute_pin(const std::string& instance_name, const std::string& pin,
                   const std::string& new_net);

  [[nodiscard]] const std::vector<Port>& ports() const noexcept {
    return ports_;
  }
  [[nodiscard]] const std::vector<std::string>& nets() const noexcept {
    return nets_;
  }
  [[nodiscard]] const std::vector<Instance>& instances() const noexcept {
    return instances_;
  }

  [[nodiscard]] bool has_net(const std::string& net_name) const noexcept;
  /// Ordinal of `net_name` in nets() (stable for the netlist's
  /// lifetime), or -1 when absent.  O(1); this is what NetId handles
  /// index.
  [[nodiscard]] int net_ordinal(const std::string& net_name) const noexcept;
  /// Number of connections on a net (instance pins + ports, driver
  /// included), maintained incrementally — O(1).  A net of degree
  /// ≤ k+1 drives at most k sinks.
  [[nodiscard]] int net_degree(int net_ordinal) const noexcept;
  [[nodiscard]] int net_degree(const std::string& net_name) const noexcept;
  /// Ordinal of the port named `port_name` in ports(), or -1.  O(1):
  /// a port is a net, so this is net_ordinal() plus a per-net table.
  [[nodiscard]] int port_ordinal(const std::string& port_name) const noexcept;
  /// Ordinal of the port on net `net_ordinal`, or -1 — O(1).
  [[nodiscard]] int port_of_net(int net_ordinal) const noexcept;
  /// The port named `port_name`, or null.  O(1).
  [[nodiscard]] const Port* find_port(
      const std::string& port_name) const noexcept;
  /// The instance named `inst_name`, or null.  O(1) expected.
  [[nodiscard]] const Instance* find_instance(
      const std::string& inst_name) const noexcept;

  // -- net → pin incidence -------------------------------------------------
  // Instance pins are numbered densely ("pin ordinals") in instance
  // order, then pin-map order: instance i owns the pins
  // [first_pin(i), first_pin(i + 1)).  Every net threads its pins in
  // ascending pin ordinal, which is exactly the (instance, pin-map)
  // order each per-net fold of the STA engine relies on.  The index is
  // kept current by every add and edit and stores ordinals only, so a
  // copied netlist carries a valid index.

  [[nodiscard]] int32_t first_pin(size_t instance_ordinal) const noexcept {
    return first_pin_[instance_ordinal];
  }
  [[nodiscard]] int32_t pin_instance(int32_t pin) const noexcept {
    return pin_instance_[static_cast<size_t>(pin)];
  }
  /// The instance owning pin `pin`.
  [[nodiscard]] const Instance& pin_owner(int32_t pin) const noexcept {
    return instances_[static_cast<size_t>(pin_instance(pin))];
  }
  [[nodiscard]] int32_t pin_net(int32_t pin) const noexcept {
    return pin_net_[static_cast<size_t>(pin)];
  }
  /// Pin ordinal of the connected pin `pin_name` of an instance, or -1
  /// when it is not connected — O(pins of that instance).
  [[nodiscard]] int32_t pin_ordinal(size_t instance_ordinal,
                                    const std::string& pin_name) const;
  /// Name of pin `pin` within its instance — O(pins of that instance).
  [[nodiscard]] const std::string& pin_name(int32_t pin) const;

  /// Forward range over the pin ordinals on one net (see net_pins()).
  struct NetPins {
    struct iterator {
      const int32_t* next;
      int32_t pin;
      int32_t operator*() const noexcept { return pin; }
      iterator& operator++() noexcept {
        pin = next[pin];
        return *this;
      }
      bool operator!=(const iterator& o) const noexcept {
        return pin != o.pin;
      }
    };
    const int32_t* next;
    int32_t head;
    [[nodiscard]] iterator begin() const noexcept { return {next, head}; }
    [[nodiscard]] iterator end() const noexcept { return {next, -1}; }
  };
  /// The instance pins on a net in (instance, pin-map) order; empty for
  /// an out-of-range ordinal.  O(1) to create, O(degree) to walk.
  [[nodiscard]] NetPins net_pins(int net_ordinal) const noexcept;

  /// Instances whose given pin connects to `net_name`, in net_pins()
  /// order.  O(degree).
  struct PinRef {
    const Instance* instance;
    std::string pin;
  };
  [[nodiscard]] std::vector<PinRef> pins_on_net(
      const std::string& net_name) const;

  /// Structural checks used before timing analysis:
  ///  - every instance pin connects to a declared net,
  ///  - port names are unique and map to nets.
  /// Throws util::Error on violations.
  void validate() const;

  /// Structural partition of the netlist: weakly-connected components
  /// over (instance, net) incidence.  `net_component[ordinal]` is the
  /// component id of each net (dense, 0-based, numbered by first net
  /// ordinal); nets of different components can never influence each
  /// other.  Computed on demand — O(nets + pins).
  struct Components {
    std::vector<int> net_component;
    int count = 0;
  };
  [[nodiscard]] Components connected_components() const;

  /// True when the net crosses the top-level interface (it is a port
  /// net) — an "interface net" for hierarchical composition.
  [[nodiscard]] bool is_interface_net(
      const std::string& net_name) const noexcept {
    return find_port(net_name) != nullptr;
  }

  /// Transitive fanout of the `seeds` net ordinals: every net reachable
  /// downstream through instances, seeds included, sorted ascending.
  /// The netlist is library-agnostic and cannot know pin directions, so
  /// `drives` decides which instance pins are outputs: an instance is
  /// reached when a non-driving pin of it touches a reached net, and
  /// its driving pins' nets then join the set.  This is the net-level
  /// fanout cone of the paper's central observation — a noise bump on a
  /// net perturbs timing only through these nets — and the netlist-
  /// layer counterpart of the vertex cone StaEngine::delta_plan()
  /// re-propagates.  O(nets + pins the cone touches) per call, through
  /// the net → pin incidence; ignores seed ordinals that are out of
  /// range.
  [[nodiscard]] std::vector<int> transitive_fanout_nets(
      std::span<const int> seeds,
      const std::function<bool(const Instance&, const std::string& pin)>&
          drives) const;

  /// The instance driving the net (its first instance in instance order
  /// with a driving pin on it, by the same `drives` oracle as
  /// transitive_fanout_nets), or null when the net is driven by a port
  /// or undriven.  Two nets sharing a driver are complementary outputs
  /// of one cell — the correlation screen's same-driver rule.
  /// O(degree) per call.
  [[nodiscard]] const Instance* driver_of(
      int net_ordinal,
      const std::function<bool(const Instance&, const std::string& pin)>&
          drives) const;

 private:
  std::vector<Port> ports_;
  std::vector<std::string> nets_;
  std::vector<Instance> instances_;
  std::vector<int> net_degree_;  ///< connection count per net ordinal
  util::OrdinalIndex net_index_;       ///< net name → net ordinal
  util::OrdinalIndex instance_index_;  ///< instance name → ordinal
  std::vector<int32_t> port_of_net_;   ///< net → port ordinal, -1 if none
  // The net → pin incidence (see net_pins()): per-instance pin ranges,
  // per-pin owner and net, and per net a singly linked list of its pin
  // ordinals threaded through next_pin_ in ascending order.
  std::vector<int32_t> first_pin_{0};    ///< instance → first pin; +1 end
  std::vector<int32_t> pin_instance_;    ///< pin → instance ordinal
  std::vector<int32_t> pin_net_;         ///< pin → net ordinal
  std::vector<int32_t> next_pin_;        ///< pin → next pin on its net
  std::vector<int32_t> net_first_pin_;   ///< net → first pin, -1 if none
  std::vector<int32_t> net_last_pin_;    ///< net → last pin, -1 if none

  [[nodiscard]] int32_t instance_ordinal(
      const std::string& inst_name) const noexcept;
  void link_pin(int32_t pin, int32_t net);
  void unlink_pin(int32_t pin, int32_t net);
};

}  // namespace waveletic::netlist
