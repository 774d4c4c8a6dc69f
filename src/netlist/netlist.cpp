#include "netlist/netlist.hpp"

#include <algorithm>
#include <iterator>

#include "util/error.hpp"

namespace waveletic::netlist {

void Netlist::add_port(std::string port_name, PortDirection direction) {
  util::require(find_port(port_name) == nullptr, "duplicate port ",
                port_name);
  add_net(port_name);
  const auto ord = static_cast<size_t>(net_ordinal(port_name));
  ++net_degree_[ord];
  port_of_net_[ord] = static_cast<int32_t>(ports_.size());
  ports_.push_back({std::move(port_name), direction});
}

void Netlist::add_net(std::string net_name) {
  if (has_net(net_name)) return;
  const auto ord = static_cast<int32_t>(nets_.size());
  nets_.push_back(std::move(net_name));
  net_index_.insert(ord, [this](int32_t i) -> const std::string& {
    return nets_[static_cast<size_t>(i)];
  });
  net_degree_.push_back(0);
  port_of_net_.push_back(-1);
  net_first_pin_.push_back(-1);
  net_last_pin_.push_back(-1);
}

void Netlist::add_instance(Instance inst) {
  util::require(find_instance(inst.name) == nullptr, "duplicate instance ",
                inst.name);
  const auto ord = static_cast<int32_t>(instances_.size());
  for (const auto& [pin, net] : inst.pins) {
    add_net(net);
    const int32_t net_ord = net_ordinal(net);
    ++net_degree_[static_cast<size_t>(net_ord)];
    const auto p = static_cast<int32_t>(pin_net_.size());
    pin_instance_.push_back(ord);
    pin_net_.push_back(net_ord);
    next_pin_.push_back(-1);
    // Pin ordinals only grow here, so appending keeps each list sorted.
    auto& last = net_last_pin_[static_cast<size_t>(net_ord)];
    if (last < 0) {
      net_first_pin_[static_cast<size_t>(net_ord)] = p;
    } else {
      next_pin_[static_cast<size_t>(last)] = p;
    }
    last = p;
  }
  first_pin_.push_back(static_cast<int32_t>(pin_net_.size()));
  instances_.push_back(std::move(inst));
  instance_index_.insert(ord, [this](int32_t i) -> const std::string& {
    return instances_[static_cast<size_t>(i)].name;
  });
}

void Netlist::retype_instance(const std::string& instance_name,
                              std::string new_cell) {
  const int32_t ord = instance_ordinal(instance_name);
  util::require(ord >= 0, "retype_instance: unknown instance '",
                instance_name, "' in netlist '", name, "'");
  instances_[static_cast<size_t>(ord)].cell = std::move(new_cell);
}

void Netlist::reroute_pin(const std::string& instance_name,
                          const std::string& pin,
                          const std::string& new_net) {
  const int32_t ord = instance_ordinal(instance_name);
  util::require(ord >= 0, "reroute_pin: unknown instance '", instance_name,
                "' in netlist '", name, "'");
  Instance& target = instances_[static_cast<size_t>(ord)];
  const auto it = target.pins.find(pin);
  util::require(it != target.pins.end(), "reroute_pin: instance '",
                instance_name, "' has no pin '", pin, "'");
  if (it->second == new_net) return;
  add_net(new_net);  // no-op when present; appends otherwise
  const int32_t p = pin_ordinal(static_cast<size_t>(ord), pin);
  const int32_t old_ord = pin_net_[static_cast<size_t>(p)];
  const int32_t new_ord = net_ordinal(new_net);
  --net_degree_[static_cast<size_t>(old_ord)];
  ++net_degree_[static_cast<size_t>(new_ord)];
  unlink_pin(p, old_ord);
  link_pin(p, new_ord);
  pin_net_[static_cast<size_t>(p)] = new_ord;
  it->second = new_net;
}

void Netlist::unlink_pin(int32_t pin, int32_t net) {
  int32_t prev = -1;
  int32_t cur = net_first_pin_[static_cast<size_t>(net)];
  while (cur != pin) {
    prev = cur;
    cur = next_pin_[static_cast<size_t>(cur)];
  }
  const int32_t next = next_pin_[static_cast<size_t>(pin)];
  if (prev < 0) {
    net_first_pin_[static_cast<size_t>(net)] = next;
  } else {
    next_pin_[static_cast<size_t>(prev)] = next;
  }
  if (next < 0) net_last_pin_[static_cast<size_t>(net)] = prev;
  next_pin_[static_cast<size_t>(pin)] = -1;
}

void Netlist::link_pin(int32_t pin, int32_t net) {
  // Insert before the first larger ordinal: lists stay ascending.
  int32_t prev = -1;
  int32_t cur = net_first_pin_[static_cast<size_t>(net)];
  while (cur >= 0 && cur < pin) {
    prev = cur;
    cur = next_pin_[static_cast<size_t>(cur)];
  }
  next_pin_[static_cast<size_t>(pin)] = cur;
  if (prev < 0) {
    net_first_pin_[static_cast<size_t>(net)] = pin;
  } else {
    next_pin_[static_cast<size_t>(prev)] = pin;
  }
  if (cur < 0) net_last_pin_[static_cast<size_t>(net)] = pin;
}

bool Netlist::has_net(const std::string& net_name) const noexcept {
  return net_ordinal(net_name) >= 0;
}

int Netlist::net_ordinal(const std::string& net_name) const noexcept {
  return net_index_.find(net_name, [this](int32_t i) -> const std::string& {
    return nets_[static_cast<size_t>(i)];
  });
}

int Netlist::net_degree(int net_ordinal) const noexcept {
  return net_ordinal >= 0 &&
                 static_cast<size_t>(net_ordinal) < net_degree_.size()
             ? net_degree_[static_cast<size_t>(net_ordinal)]
             : 0;
}

int Netlist::net_degree(const std::string& net_name) const noexcept {
  return net_degree(net_ordinal(net_name));
}

int Netlist::port_ordinal(const std::string& port_name) const noexcept {
  return port_of_net(net_ordinal(port_name));
}

int Netlist::port_of_net(int net_ordinal) const noexcept {
  return net_ordinal >= 0 &&
                 static_cast<size_t>(net_ordinal) < port_of_net_.size()
             ? port_of_net_[static_cast<size_t>(net_ordinal)]
             : -1;
}

const Port* Netlist::find_port(const std::string& port_name) const noexcept {
  const int p = port_ordinal(port_name);
  return p < 0 ? nullptr : &ports_[static_cast<size_t>(p)];
}

int32_t Netlist::instance_ordinal(
    const std::string& inst_name) const noexcept {
  return instance_index_.find(inst_name,
                              [this](int32_t i) -> const std::string& {
                                return instances_[static_cast<size_t>(i)].name;
                              });
}

const Instance* Netlist::find_instance(
    const std::string& inst_name) const noexcept {
  const int32_t ord = instance_ordinal(inst_name);
  return ord < 0 ? nullptr : &instances_[static_cast<size_t>(ord)];
}

int32_t Netlist::pin_ordinal(size_t instance_ordinal,
                             const std::string& pin_name) const {
  const auto& pins = instances_[instance_ordinal].pins;
  const auto it = pins.find(pin_name);
  return it == pins.end() ? -1
                          : first_pin_[instance_ordinal] +
                                static_cast<int32_t>(
                                    std::distance(pins.begin(), it));
}

const std::string& Netlist::pin_name(int32_t pin) const {
  const auto inst = static_cast<size_t>(pin_instance(pin));
  return std::next(instances_[inst].pins.begin(), pin - first_pin_[inst])
      ->first;
}

Netlist::NetPins Netlist::net_pins(int net_ordinal) const noexcept {
  const bool in_range = net_ordinal >= 0 &&
                        static_cast<size_t>(net_ordinal) < nets_.size();
  return {next_pin_.data(),
          in_range ? net_first_pin_[static_cast<size_t>(net_ordinal)] : -1};
}

std::vector<Netlist::PinRef> Netlist::pins_on_net(
    const std::string& net_name) const {
  std::vector<PinRef> out;
  for (const int32_t p : net_pins(net_ordinal(net_name))) {
    out.push_back({&pin_owner(p), pin_name(p)});
  }
  return out;
}

Netlist::Components Netlist::connected_components() const {
  // Union-find over net ordinals; every instance unites the nets its
  // pins touch, walked in pin-ordinal order (deterministic).
  std::vector<int> parent(nets_.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
  auto find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (size_t i = 0; i < instances_.size(); ++i) {
    const int32_t first = first_pin_[i];
    for (int32_t p = first + 1; p < first_pin_[i + 1]; ++p) {
      parent[static_cast<size_t>(find(pin_net(p)))] = find(pin_net(first));
    }
  }
  Components out;
  out.net_component.assign(nets_.size(), -1);
  for (size_t i = 0; i < nets_.size(); ++i) {
    const auto root = static_cast<size_t>(find(static_cast<int>(i)));
    if (out.net_component[root] < 0) out.net_component[root] = out.count++;
    out.net_component[i] = out.net_component[root];
  }
  return out;
}

std::vector<int> Netlist::transitive_fanout_nets(
    std::span<const int> seeds,
    const std::function<bool(const Instance&, const std::string& pin)>&
        drives) const {
  // Depth-first closure over the net → pin incidence: a reached net's
  // non-driving pins reach their instances, whose driving pins' nets
  // join the set.  Only the cone's pins are visited.
  std::vector<char> reached(nets_.size(), 0);
  std::vector<int> stack;
  std::vector<int> out;
  auto reach = [&](int net) {
    if (reached[static_cast<size_t>(net)]) return;
    reached[static_cast<size_t>(net)] = 1;
    stack.push_back(net);
    out.push_back(net);
  };
  for (const int seed : seeds) {
    if (seed >= 0 && static_cast<size_t>(seed) < nets_.size()) reach(seed);
  }
  while (!stack.empty()) {
    const int net = stack.back();
    stack.pop_back();
    for (const int32_t p : net_pins(net)) {
      const auto i = static_cast<size_t>(pin_instance(p));
      const Instance& inst = instances_[i];
      if (drives(inst, pin_name(p))) continue;
      int32_t q = first_pin_[i];
      for (const auto& [pin, pin_net_name] : inst.pins) {
        if (drives(inst, pin)) reach(pin_net(q));
        ++q;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

const Instance* Netlist::driver_of(
    int net_ordinal,
    const std::function<bool(const Instance&, const std::string& pin)>&
        drives) const {
  for (const int32_t p : net_pins(net_ordinal)) {
    const Instance& inst = pin_owner(p);
    if (drives(inst, pin_name(p))) return &inst;
  }
  return nullptr;
}

void Netlist::validate() const {
  for (const auto& inst : instances_) {
    util::require(!inst.pins.empty(), "instance ", inst.name,
                  " has no connections");
    for (const auto& [pin, net] : inst.pins) {
      util::require(has_net(net), "instance ", inst.name, " pin ", pin,
                    " references unknown net ", net);
    }
  }
  for (const auto& port : ports_) {
    util::require(has_net(port.name), "port ", port.name, " has no net");
  }
}

}  // namespace waveletic::netlist
