#include "sta/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <sstream>

#include "core/sgdp.hpp"
#include "sta/gamma_cache.hpp"
#include "sta/sweep.hpp"
#include "sta/task_runner.hpp"
#include "util/units.hpp"
#include "wave/ramp.hpp"

namespace waveletic::sta {
namespace {

wave::Polarity to_polarity(RiseFall rf) noexcept {
  return rf == RiseFall::kRise ? wave::Polarity::kRising
                               : wave::Polarity::kFalling;
}

/// Engine tags start at 1 so a zero-initialized handle never matches.
uint32_t next_graph_tag() noexcept {
  static std::atomic<uint32_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Levenshtein distance with a band cut-off: distances above `cap` all
/// report cap + 1.  Only runs on the error path.
size_t edit_distance(const std::string& a, const std::string& b,
                     size_t cap) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n > m + cap || m > n + cap) return cap + 1;
  std::vector<size_t> row(m + 1);
  for (size_t j = 0; j <= m; ++j) row[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    size_t prev = row[0];
    row[0] = i;
    size_t best = row[0];
    for (size_t j = 1; j <= m; ++j) {
      const size_t subst = prev + (a[i - 1] == b[j - 1] ? 0 : 1);
      prev = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
      best = std::min(best, row[j]);
    }
    if (best > cap) return cap + 1;
  }
  return row[m];
}

/// Up to three names nearest to `name` by edit distance (ties broken by
/// the order of `candidates`, which callers pass sorted).
std::vector<std::string> nearest_names(
    const std::string& name, const std::vector<std::string>& candidates) {
  constexpr size_t kCap = 6;
  std::vector<std::pair<size_t, const std::string*>> scored;
  for (const auto& c : candidates) {
    const size_t d = edit_distance(name, c, kCap);
    if (d <= kCap) scored.push_back({d, &c});
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<std::string> out;
  for (size_t i = 0; i < scored.size() && i < 3; ++i) {
    out.push_back(*scored[i].second);
  }
  return out;
}

void append_suggestions(std::ostringstream& os,
                        const std::vector<std::string>& suggestions) {
  if (suggestions.empty()) return;
  os << " (nearest: ";
  for (size_t i = 0; i < suggestions.size(); ++i) {
    if (i) os << ", ";
    os << suggestions[i];
  }
  os << ')';
}

/// One task per point on the shared runner, with ctx = contexts[p]
/// pointed at the running worker's arena when `worker_workspaces` is
/// non-empty.
template <typename Eval>
void run_points(const char* caller,
                std::span<const StaEngine::EvalContext> contexts,
                util::ThreadPool* pool,
                std::span<wave::Workspace> worker_workspaces,
                const Eval& eval) {
  detail::run_tasks(caller, contexts.size(), pool, worker_workspaces,
                    [&](size_t, size_t p, wave::Workspace* ws) {
                      StaEngine::EvalContext task_ctx = contexts[p];
                      if (ws != nullptr) task_ctx.workspace = ws;
                      eval(p, task_ctx);
                    });
}

}  // namespace

const char* to_string(RiseFall rf) noexcept {
  return rf == RiseFall::kRise ? "rise" : "fall";
}

StaEngine::StaEngine(const netlist::Netlist& nl, const liberty::Library& lib)
    : netlist_(&nl), library_(&lib), graph_(make_graph(nl, lib)),
      graph_tag_(graph_->tag) {
  noise_method_ = std::make_unique<core::SgdpMethod>();
  const size_t n_nets = nl.nets().size();
  input_constraints_.assign(ports_.size(), {});
  required_.assign(ports_.size(), std::numeric_limits<double>::infinity());
  output_loads_.assign(ports_.size(), 0.0);
  net_parasitics_.assign(n_nets, {0.0, 0.0});
  net_loads_.assign(n_nets, 0.0);
  // Sized once; pointers into net_annotations_ slots stay stable.
  net_annotations_.assign(n_nets, std::nullopt);
}

StaEngine::StaEngine(const StaEngine& other, ForkTag)
    : netlist_(other.netlist_),
      library_(other.library_),
      graph_(other.graph_),
      graph_tag_(other.graph_tag_),
      input_constraints_(other.input_constraints_),
      required_(other.required_),
      output_loads_(other.output_loads_),
      net_parasitics_(other.net_parasitics_),
      net_loads_(other.net_loads_),
      net_annotations_(other.net_annotations_),
      noisy_net_count_(other.noisy_net_count_),
      corner_(other.corner_),
      noise_method_(other.noise_method_->clone()),
      threads_(other.threads_) {}

std::unique_ptr<StaEngine> StaEngine::fork() const {
  return std::unique_ptr<StaEngine>(new StaEngine(*this, ForkTag{}));
}

void StaEngine::copy_config_from(const StaEngine& other) {
  // The edited netlist may only APPEND nets (Netlist::reroute_pin's
  // ordinal-stability contract), so `other`'s net order must be a
  // prefix of ours; appended nets start with default config below.
  const auto& nets = netlist_->nets();
  const auto& other_nets = other.netlist_->nets();
  util::require(other_nets.size() <= nets.size() &&
                    std::equal(other_nets.begin(), other_nets.end(),
                               nets.begin()),
                "copy_config_from: net orders differ — the edited netlist "
                "must keep the ordinal-stability contract (nets may only "
                "be appended)");
  util::require(ports_.size() == other.ports_.size(),
                "copy_config_from: port counts differ (", ports_.size(),
                " vs ", other.ports_.size(), ")");
  for (size_t p = 0; p < ports_.size(); ++p) {
    util::require(ports_[p].name == other.ports_[p].name,
                  "copy_config_from: port order differs at ordinal ", p, " (",
                  ports_[p].name, " vs ", other.ports_[p].name, ")");
  }
  // Every port table is keyed by the shared port ordinal.
  input_constraints_ = other.input_constraints_;
  required_ = other.required_;
  output_loads_ = other.output_loads_;
  net_parasitics_ = other.net_parasitics_;
  net_annotations_ = other.net_annotations_;
  net_parasitics_.resize(nets.size(), {0.0, 0.0});
  net_annotations_.resize(nets.size());
  noisy_net_count_ = other.noisy_net_count_;
  corner_ = other.corner_;
  noise_method_ = other.noise_method_->clone();
  threads_ = other.threads_;
  analyzed_ = false;
}

StaEngine::~StaEngine() = default;

util::Error StaEngine::unknown_vertex_error(const std::string& name) const {
  std::ostringstream os;
  os << "unknown pin/port: " << name;
  std::vector<std::string> names = vertex_names_;
  std::sort(names.begin(), names.end());
  append_suggestions(os, nearest_names(name, names));
  return util::Error(os.str());
}

int StaEngine::vertex_of(const std::string& name) const noexcept {
  return vertex_index_.find(name, [this](int32_t v) -> const std::string& {
    return vertex_names_[static_cast<size_t>(v)];
  });
}

int StaEngine::find_vertex(const std::string& name) const {
  const int v = vertex_of(name);
  if (v < 0) throw unknown_vertex_error(name);
  return v;
}

PinId StaEngine::pin(const std::string& name) const {
  return PinId{find_vertex(name), graph_tag_};
}

PinId StaEngine::find_pin(const std::string& name) const noexcept {
  const int v = vertex_of(name);
  return v < 0 ? PinId{} : PinId{v, graph_tag_};
}

NetId StaEngine::net(const std::string& name) const {
  const int ord = netlist_->net_ordinal(name);
  if (ord < 0) {
    std::ostringstream os;
    os << "unknown net: " << name;
    std::vector<std::string> nets = netlist_->nets();
    std::sort(nets.begin(), nets.end());
    append_suggestions(os, nearest_names(name, nets));
    throw util::Error(os.str());
  }
  return NetId{ord, graph_tag_};
}

PortId StaEngine::port(const std::string& name) const {
  // Graph ports mirror the netlist's port order one for one.
  const int p = netlist_->port_ordinal(name);
  if (p >= 0) return PortId{p, graph_tag_};
  std::ostringstream os;
  os << "unknown port: " << name << " (ports:";
  for (const auto& p : ports_) os << ' ' << p.name;
  os << ')';
  throw util::Error(os.str());
}

const std::string& StaEngine::name(PinId pin) const {
  return vertex_names_[static_cast<size_t>(check(pin))];
}

const std::string& StaEngine::name(NetId net) const {
  return netlist_->nets()[static_cast<size_t>(check(net))];
}

const std::string& StaEngine::name(PortId port) const {
  return ports_[static_cast<size_t>(check(port))].name;
}

int StaEngine::check(PinId pin) const {
  util::require(pin.graph == graph_tag_ && pin.index >= 0 &&
                    static_cast<size_t>(pin.index) < vertex_names_.size(),
                "invalid PinId (index ", pin.index, ", graph ", pin.graph,
                "): not minted by this engine — resolve it via pin()");
  return pin.index;
}

int StaEngine::check(NetId net) const {
  util::require(net.graph == graph_tag_ && net.index >= 0 &&
                    static_cast<size_t>(net.index) < net_annotations_.size(),
                "invalid NetId (index ", net.index, ", graph ", net.graph,
                "): not minted by this engine — resolve it via net()");
  return net.index;
}

int StaEngine::check(PortId port) const {
  util::require(port.graph == graph_tag_ && port.index >= 0 &&
                    static_cast<size_t>(port.index) < ports_.size(),
                "invalid PortId (index ", port.index, ", graph ", port.graph,
                "): not minted by this engine — resolve it via port()");
  return port.index;
}

std::shared_ptr<const StaEngine::Graph> StaEngine::make_graph(
    const netlist::Netlist& nl, const liberty::Library& lib) {
  nl.validate();
  auto graph = std::make_shared<Graph>();
  Graph& g = *graph;
  g.tag = next_graph_tag();
  // Vertex interning: declaration-driven order (ports first, then
  // instance pins in instance / pin-map order) — stable under retype
  // and reroute edits, which is what lets the service carry timing
  // baselines across a structural rebuild by direct index.
  const auto vertex_name = [&g](int32_t v) -> const std::string& {
    return g.vertex_names[static_cast<size_t>(v)];
  };
  auto vertex = [&g, &vertex_name](std::string name) {
    const int32_t found = g.vertex_index.find(name, vertex_name);
    if (found >= 0) return static_cast<int>(found);
    const auto id = static_cast<int32_t>(g.vertex_names.size());
    g.vertex_names.push_back(std::move(name));
    g.vertex_index.insert(id, vertex_name);
    return static_cast<int>(id);
  };
  // Vertices + port records for ports.
  for (const auto& port : nl.ports()) {
    const int v = vertex(port.name);
    // The port constraint tables rely on this: port ordinal == vertex.
    util::require(static_cast<size_t>(v) == g.ports.size(), "port ",
                  port.name, " is declared twice");
    g.ports.push_back({port.name, v, port.direction});
  }
  // Vertices + cell arc edges for instances.  Each instance pin is
  // interned exactly once, here; its vertex id and liberty pin are kept
  // by pin ordinal (Netlist::first_pin) for the net pass below.
  const auto& instances = nl.instances();
  const auto n_pins = static_cast<size_t>(nl.first_pin(instances.size()));
  std::vector<int> pin_vertex(n_pins);
  std::vector<const liberty::Pin*> pin_lib(n_pins);
  std::vector<const liberty::Cell*> inst_cell(instances.size());
  for (size_t i = 0; i < instances.size(); ++i) {
    const auto& inst = instances[i];
    const liberty::Cell* cell = lib.find_cell(inst.cell);
    util::require(cell != nullptr, "instance ", inst.name,
                  " references unknown cell ", inst.cell);
    inst_cell[i] = cell;
    auto p = static_cast<size_t>(nl.first_pin(i));
    for (const auto& [pin_name, net] : inst.pins) {
      const liberty::Pin* pin = cell->find_pin(pin_name);
      util::require(pin != nullptr, "instance ", inst.name,
                    ": cell ", inst.cell, " has no pin ", pin_name);
      pin_lib[p] = pin;
      pin_vertex[p++] = vertex(inst.name + "/" + pin_name);
    }
    // One edge per (input pin -> output pin) timing arc.
    for (const auto& pin : cell->pins) {
      if (pin.direction != liberty::PinDirection::kOutput) continue;
      const int32_t out_pin = nl.pin_ordinal(i, pin.name);
      if (out_pin < 0) continue;
      for (const auto& arc : pin.arcs) {
        const int32_t in_pin = nl.pin_ordinal(i, arc.related_pin);
        if (in_pin < 0) continue;
        CellArcEdge e;
        e.from = pin_vertex[static_cast<size_t>(in_pin)];
        e.to = pin_vertex[static_cast<size_t>(out_pin)];
        e.arc = &arc;
        e.out_net = nl.pin_net(out_pin);
        g.cell_edges.push_back(e);
      }
    }
  }
  const size_t n_nets = nl.nets().size();
  // Net edges: driver -> every sink, one walk of the net → pin
  // incidence (pins in instance, then pin-map order).
  struct Sink {
    int v;
    const liberty::Pin* pin;
    const liberty::Cell* cell;
    int32_t out_net;  // net driven by the sink gate's output pin
  };
  std::vector<int> drivers;
  std::vector<Sink> sinks;
  for (size_t n = 0; n < n_nets; ++n) {
    const auto net_ord = static_cast<int32_t>(n);
    drivers.clear();
    sinks.clear();
    // Driver: an input port on this net, or an instance output.
    const int port = nl.port_of_net(net_ord);
    const PortRec* port_rec =
        port < 0 ? nullptr : &g.ports[static_cast<size_t>(port)];
    if (port_rec && port_rec->direction == netlist::PortDirection::kInput) {
      drivers.push_back(port_rec->vertex);
    }
    for (const int32_t p : nl.net_pins(net_ord)) {
      const liberty::Pin* pin = pin_lib[static_cast<size_t>(p)];
      const int v = pin_vertex[static_cast<size_t>(p)];
      if (pin->direction == liberty::PinDirection::kOutput) {
        drivers.push_back(v);
      } else {
        const auto i = static_cast<size_t>(nl.pin_instance(p));
        const int32_t out_pin =
            nl.pin_ordinal(i, inst_cell[i]->output_pin().name);
        sinks.push_back({v, pin, inst_cell[i],
                         out_pin < 0 ? -1 : nl.pin_net(out_pin)});
      }
    }
    if (port_rec && port_rec->direction == netlist::PortDirection::kOutput) {
      sinks.push_back({port_rec->vertex, nullptr, nullptr, -1});
    }
    util::require(drivers.size() <= 1, "net ", nl.nets()[n], " has ",
                  drivers.size(), " drivers");
    if (drivers.empty()) continue;  // undriven net: stays unconstrained
    for (const auto& sink : sinks) {
      NetEdge e;
      e.from = drivers[0];
      e.to = sink.v;
      e.net = net_ord;
      e.sink_pin = sink.pin;
      e.sink_cell = sink.cell;
      e.sink_out_net = sink.out_net;
      g.net_edges.push_back(e);
    }
  }
  // Per-net edge tables, each row in ascending edge index.
  g.arcs_of_net = Rows<uint32_t>::build(n_nets, [&g](const auto& put) {
    for (size_t i = 0; i < g.cell_edges.size(); ++i) {
      const int32_t net = g.cell_edges[i].out_net;
      if (net >= 0) put(net, static_cast<uint32_t>(i));
    }
  });
  g.edges_of_net = Rows<uint32_t>::build(n_nets, [&g](const auto& put) {
    for (size_t i = 0; i < g.net_edges.size(); ++i) {
      put(g.net_edges[i].net, static_cast<uint32_t>(i));
    }
  });
  g.sink_load_edges_of_net =
      Rows<uint32_t>::build(n_nets, [&g](const auto& put) {
        for (size_t i = 0; i < g.net_edges.size(); ++i) {
          const int32_t net = g.net_edges[i].sink_out_net;
          if (net >= 0) put(net, static_cast<uint32_t>(i));
        }
      });
  // Adjacency in deterministic construction order: cell edges first,
  // then net edges, each by ascending edge index.  Every per-vertex
  // fold during propagation walks these lists in this fixed order,
  // which is what makes results independent of the thread count.
  const size_t n = g.vertex_names.size();
  const auto adjacency = [&g, n](auto end_of) {
    return Rows<EdgeRef>::build(n, [&g, &end_of](const auto& put) {
      for (size_t i = 0; i < g.cell_edges.size(); ++i) {
        put(end_of(g.cell_edges[i]), EdgeRef{true, static_cast<uint32_t>(i)});
      }
      for (size_t i = 0; i < g.net_edges.size(); ++i) {
        put(end_of(g.net_edges[i]), EdgeRef{false, static_cast<uint32_t>(i)});
      }
    });
  };
  g.out_edges = adjacency([](const auto& e) { return e.from; });
  g.in_edges = adjacency([](const auto& e) { return e.to; });
  levelize(g);
  for (size_t p = 0; p < g.ports.size(); ++p) {
    if (g.ports[p].direction == netlist::PortDirection::kOutput) {
      g.endpoint_ports.push_back(static_cast<int32_t>(p));
      // Net edges start at drivers and cell edges at instance pins, so
      // an endpoint drives nothing and its required time is its
      // constraint in every scenario; the endpoint-rows lane walk relies
      // on that.
      const auto v = static_cast<size_t>(g.ports[p].vertex);
      util::require(g.out_edges[v].empty(), "output port ",
                    g.ports[p].name, " drives an edge");
    }
  }
  return graph;
}

void StaEngine::levelize(Graph& g) {
  // Kahn topological sort; level(v) = 1 + max over predecessors.  The
  // levels are stored on the graph and reused by every evaluation.
  const size_t n = g.vertex_names.size();
  std::vector<int> indegree(n, 0);
  for (size_t v = 0; v < n; ++v) {
    indegree[v] = static_cast<int>(g.in_edges[v].size());
  }
  std::vector<int> level(n, 0);
  std::vector<int> ready;
  for (size_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) ready.push_back(static_cast<int>(v));
  }
  size_t visited = 0;
  int max_level = 0;
  while (!ready.empty()) {
    const int v = ready.back();
    ready.pop_back();
    ++visited;
    for (const auto& [is_cell, idx] : g.out_edges[static_cast<size_t>(v)]) {
      const int to = is_cell ? g.cell_edges[idx].to : g.net_edges[idx].to;
      level[static_cast<size_t>(to)] =
          std::max(level[static_cast<size_t>(to)], level[static_cast<size_t>(v)] + 1);
      max_level = std::max(max_level, level[static_cast<size_t>(to)]);
      if (--indegree[static_cast<size_t>(to)] == 0) ready.push_back(to);
    }
  }
  util::require(visited == n,
                "timing graph has a combinational cycle (", n - visited,
                " vertices unresolved)");
  g.levels.assign(static_cast<size_t>(max_level) + 1, {});
  for (size_t v = 0; v < n; ++v) {
    g.levels[static_cast<size_t>(level[v])].push_back(static_cast<int>(v));
  }
  g.vertex_level = std::move(level);
}

void StaEngine::compute_loads() {
  // Load on each net = sink pin caps + annotated wire cap + port load.
  // One pass over instance pins instead of pins_on_net() per net: each
  // input pin adds its cap to its net, in the SAME (instance, pin)
  // visit order the per-net walk produces, so the per-net sums fold in
  // the identical order and stay bitwise equal — the contract
  // recompute_net_loads() relies on for single-net refreshes.  Net
  // ordinals were resolved onto the edges at construction, so this —
  // the per-prepare() path — does no name parsing and no linear
  // instance searches (prepare() used to be quadratic in the netlist
  // size and dominated sweeps over 10k-vertex graphs).
  const auto& nets = netlist_->nets();
  std::vector<double> net_load(nets.size(), 0.0);
  for (const auto& inst : netlist_->instances()) {
    const liberty::Cell* cell = library_->find_cell(inst.cell);
    for (const auto& [pin_name, net] : inst.pins) {
      const liberty::Pin* pin = cell->find_pin(pin_name);
      if (pin->direction == liberty::PinDirection::kInput) {
        net_load[static_cast<size_t>(netlist_->net_ordinal(net))] +=
            pin->capacitance;
      }
    }
  }
  for (size_t i = 0; i < nets.size(); ++i) {
    net_load[i] += net_parasitics_[i].first;
  }
  for (size_t p = 0; p < ports_.size(); ++p) {
    if (ports_[p].direction != netlist::PortDirection::kOutput) continue;
    const int ord = netlist_->net_ordinal(ports_[p].name);
    if (ord >= 0) net_load[static_cast<size_t>(ord)] += output_loads_[p];
  }
  net_loads_ = std::move(net_load);
}

void StaEngine::recompute_net_loads(std::span<const int32_t> nets) {
  const size_t n_nets = netlist_->nets().size();
  for (const int32_t ord : nets) {
    util::require(ord >= 0 && static_cast<size_t>(ord) < n_nets,
                  "recompute_net_loads: net ordinal ", ord,
                  " out of range (", n_nets, " nets)");
    // Fold in the exact compute_loads() order — sink pin caps in
    // (instance, pin-map) order, then parasitic cap, then port load —
    // so the per-net sum is bitwise identical to a full prepare().
    // O(degree): the net → pin incidence lists exactly this net's pins.
    double load = 0.0;
    for (const int32_t p : netlist_->net_pins(ord)) {
      const liberty::Cell* cell =
          library_->find_cell(netlist_->pin_owner(p).cell);
      const liberty::Pin* pin = cell->find_pin(netlist_->pin_name(p));
      if (pin->direction == liberty::PinDirection::kInput) {
        load += pin->capacitance;
      }
    }
    load += net_parasitics_[static_cast<size_t>(ord)].first;
    const int port = netlist_->port_of_net(ord);
    if (port >= 0 && ports_[static_cast<size_t>(port)].direction ==
                         netlist::PortDirection::kOutput) {
      load += output_loads_[static_cast<size_t>(port)];
    }
    net_loads_[static_cast<size_t>(ord)] = load;
  }
}

void StaEngine::set_input(PortId port, double arrival, double slew) {
  set_input(port, RiseFall::kRise, arrival, slew);
  set_input(port, RiseFall::kFall, arrival, slew);
}

void StaEngine::set_input(const std::string& port, double arrival,
                          double slew) {
  set_input(this->port(port), arrival, slew);
}

void StaEngine::set_input(PortId port, RiseFall rf, double arrival,
                          double slew) {
  const auto& p = ports_[static_cast<size_t>(check(port))];
  util::require(p.direction == netlist::PortDirection::kInput,
                "set_input: ", p.name, " is not an input port");
  util::require(slew > 0.0, "set_input: non-positive slew");
  auto& c = input_constraints_[static_cast<size_t>(p.vertex)]
                                [static_cast<size_t>(rf)];
  c.arrival = arrival;
  c.slew = slew;
  c.set = true;
  analyzed_ = false;
}

void StaEngine::set_input(const std::string& port, RiseFall rf,
                          double arrival, double slew) {
  set_input(this->port(port), rf, arrival, slew);
}

void StaEngine::set_output_load(PortId port, double cap) {
  const size_t i = static_cast<size_t>(check(port));
  util::require(ports_[i].direction == netlist::PortDirection::kOutput,
                "set_output_load: ", ports_[i].name,
                " is not an output port");
  output_loads_[i] = cap;
  analyzed_ = false;
}

void StaEngine::set_output_load(const std::string& port, double cap) {
  set_output_load(this->port(port), cap);
}

void StaEngine::set_required(PortId port, double time) {
  const auto& p = ports_[static_cast<size_t>(check(port))];
  util::require(p.direction == netlist::PortDirection::kOutput,
                "set_required: ", p.name, " is not an output port");
  required_[static_cast<size_t>(p.vertex)] = time;
  analyzed_ = false;
}

void StaEngine::set_required(const std::string& port, double time) {
  set_required(this->port(port), time);
}

void StaEngine::set_net_parasitics(NetId net, double cap, double delay) {
  net_parasitics_[static_cast<size_t>(check(net))] = {cap, delay};
  analyzed_ = false;
}

void StaEngine::set_net_parasitics(const std::string& net, double cap,
                                   double delay) {
  util::require(netlist_->has_net(net), "set_net_parasitics: unknown net ",
                net);
  set_net_parasitics(this->net(net), cap, delay);
}

void StaEngine::set_corner(Corner corner) {
  corner_ = std::move(corner);
  analyzed_ = false;
}

void StaEngine::clear_corner() {
  corner_.reset();
  analyzed_ = false;
}

void StaEngine::set_noise_method(
    std::unique_ptr<core::EquivalentWaveformMethod> m) {
  util::require(m != nullptr, "null noise method");
  noise_method_ = std::move(m);
  analyzed_ = false;
}

void StaEngine::annotate_noisy_net(NetId net, wave::Waveform waveform,
                                   wave::Polarity polarity) {
  const size_t i = static_cast<size_t>(check(net));
  const uint64_t key = noise_waveform_key(waveform, polarity);
  if (!net_annotations_[i].has_value()) ++noisy_net_count_;
  net_annotations_[i] = NoiseAnnotation{std::move(waveform), polarity, key};
  analyzed_ = false;
}

void StaEngine::annotate_noisy_net(const std::string& net,
                                   wave::Waveform waveform,
                                   wave::Polarity polarity) {
  util::require(netlist_->has_net(net), "annotate_noisy_net: unknown net ",
                net);
  annotate_noisy_net(this->net(net), std::move(waveform), polarity);
}

void StaEngine::clear_noisy_net(NetId net) {
  const size_t i = static_cast<size_t>(check(net));
  if (net_annotations_[i].has_value()) --noisy_net_count_;
  net_annotations_[i].reset();
  analyzed_ = false;
}

void StaEngine::clear_noisy_net(const std::string& net) {
  util::require(netlist_->has_net(net), "clear_noisy_net: unknown net ", net);
  clear_noisy_net(this->net(net));
}

void StaEngine::clear_noisy_nets() {
  std::fill(net_annotations_.begin(), net_annotations_.end(), std::nullopt);
  noisy_net_count_ = 0;
  analyzed_ = false;
}

const NoiseAnnotation* StaEngine::noisy_net(NetId net) const {
  const auto& slot = net_annotations_[static_cast<size_t>(check(net))];
  return slot.has_value() ? &*slot : nullptr;
}

const NoiseAnnotation* StaEngine::noisy_net(const std::string& net) const {
  return noisy_net(this->net(net));
}

std::vector<const NoiseAnnotation*> StaEngine::compile_edge_annotations(
    const NoiseScenario* overlay) const {
  std::vector<const NoiseAnnotation*> table(net_edges_.size(), nullptr);
  if (noisy_net_count_ > 0) {
    for (size_t i = 0; i < net_annotations_.size(); ++i) {
      if (!net_annotations_[i].has_value()) continue;
      for (const uint32_t e : edges_of_net_[i]) {
        table[e] = &*net_annotations_[i];
      }
    }
  }
  if (overlay != nullptr) {
    for (const auto& entry : overlay->entries) {
      const int ord = netlist_->net_ordinal(entry.net);
      util::require(ord >= 0, "scenario ", overlay->name,
                    " annotates unknown net ", entry.net);
      for (const uint32_t e : edges_of_net_[static_cast<size_t>(ord)]) {
        table[e] = &entry.annotation;
      }
    }
  }
  return table;
}

void StaEngine::set_threads(int threads) { threads_ = threads; }

void StaEngine::prepare() { compute_loads(); }

void StaEngine::init_state(TimingState& state) const {
  state.reset(vertex_names_.size());
  for (size_t v = 0; v < ports_.size(); ++v) {
    apply_port_constraints(state[v], v);
  }
}

void StaEngine::apply_port_constraints(VertexTiming& vt, size_t port) const {
  for (size_t rf = 0; rf < 2; ++rf) {
    const InputConstraint& c = input_constraints_[port][rf];
    if (!c.set) continue;
    auto& t = vt.timing[rf];
    t.arrival = c.arrival;
    t.slew = c.slew;
    t.valid = true;
  }
  vt.timing[0].required = required_[port];
  vt.timing[1].required = required_[port];
}

void StaEngine::relax(TimingState& state, int to, RiseFall to_rf,
                      double arrival, double slew, int from,
                      RiseFall from_rf) {
  auto& vt = state[static_cast<size_t>(to)];
  auto& t = vt.timing[static_cast<size_t>(to_rf)];
  if (!t.valid || arrival > t.arrival) {
    t.arrival = arrival;
    t.slew = slew;
    t.valid = true;
    vt.critical_pred[static_cast<size_t>(to_rf)] = from;
    vt.critical_pred_rf[static_cast<size_t>(to_rf)] = from_rf;
  }
}

void StaEngine::propagate_cell_edge(const CellArcEdge& e, TimingState& state,
                                    const EvalContext& ctx) const {
  // x * 1.0 is bitwise x, so the nominal corner (or no corner at all)
  // reproduces un-derated results exactly.
  const double delay_scale =
      ctx.corner != nullptr ? ctx.corner->cell_delay_scale : 1.0;
  const double slew_scale =
      ctx.corner != nullptr ? ctx.corner->cell_slew_scale : 1.0;
  const auto& from = state[static_cast<size_t>(e.from)];
  const double load = net_loads_[static_cast<size_t>(e.out_net)];
  for (int rf_i = 0; rf_i < 2; ++rf_i) {
    const auto& in = from.timing[rf_i];
    if (!in.valid) continue;
    const auto in_rf = static_cast<RiseFall>(rf_i);

    RiseFall out_rfs[2];
    int out_count = 0;
    switch (e.arc->sense) {
      case liberty::TimingSense::kPositiveUnate:
        out_rfs[out_count++] = in_rf;
        break;
      case liberty::TimingSense::kNegativeUnate:
        out_rfs[out_count++] = flip(in_rf);
        break;
      case liberty::TimingSense::kNonUnate:
        out_rfs[out_count++] = RiseFall::kRise;
        out_rfs[out_count++] = RiseFall::kFall;
        break;
    }
    for (int i = 0; i < out_count; ++i) {
      const auto out_rf = out_rfs[i];
      const auto lookup = (out_rf == RiseFall::kRise)
                              ? e.arc->rise(in.slew, load)
                              : e.arc->fall(in.slew, load);
      relax(state, e.to, out_rf, in.arrival + lookup.delay * delay_scale,
            lookup.out_slew * slew_scale, e.from, in_rf);
    }
  }
}

void StaEngine::noisy_fit(const NetEdge& e, size_t edge_index,
                          const NoiseAnnotation* noisy, int rf_i,
                          const EvalContext& ctx, double& arrival,
                          double& slew) const {
  // The full noisy-sink gate: annotation present, sink is a gate input
  // whose transition matches the annotated polarity, and the sink gate
  // has an arc from this pin.  Shared verbatim by the scalar path
  // (propagate_net_edge) and the lane-block path (evaluate_delta_block)
  // so "lane == scalar" at noisy edges is structural.
  if (noisy == nullptr || e.sink_pin == nullptr) return;
  const auto rf = static_cast<RiseFall>(rf_i);
  if (to_polarity(rf) != noisy->polarity) return;
  const auto* arc = e.sink_cell->output_pin().find_arc(e.sink_pin->name);
  if (arc == nullptr) return;
  const double delay_scale =
      ctx.corner != nullptr ? ctx.corner->cell_delay_scale : 1.0;
  const double slew_scale =
      ctx.corner != nullptr ? ctx.corner->cell_slew_scale : 1.0;
  const double sink_load =
      e.sink_out_net >= 0 ? net_loads_[static_cast<size_t>(e.sink_out_net)]
                          : 0.0;
  // The fit is a pure function of (annotation, clean ramp, arc,
  // load, corner); memoize it per exact key when a cache is
  // supplied.  Arc identity and load bits are part of the key so
  // one cache stays exact across copy-on-write snapshots whose
  // loads or graphs differ.
  GammaCache::Key key;
  key.noise_key = noisy->key;
  key.method_id = reinterpret_cast<uintptr_t>(ctx.method);
  key.arc_id = reinterpret_cast<uintptr_t>(arc);
  key.edge = static_cast<uint32_t>(edge_index);
  key.rf = static_cast<uint32_t>(rf_i);
  key.arrival_bits = std::bit_cast<uint64_t>(arrival);
  key.slew_bits = std::bit_cast<uint64_t>(slew);
  key.load_bits = std::bit_cast<uint64_t>(sink_load);
  key.corner_key = ctx.corner_key;
  std::optional<GammaCache::Value> cached;
  if (ctx.cache != nullptr) cached = ctx.cache->lookup(key);
  if (cached.has_value()) {
    arrival = cached->arrival;
    slew = cached->slew;
  } else {
    // The equivalent-waveform flow of the paper: replace the ramp
    // at this gate input by Γeff fitted against the annotated
    // noisy waveform, using a noiseless response synthesized from
    // NLDM (derated the same way as the real propagation).
    const auto pol = noisy->polarity;
    const double vdd = library_->nom_voltage;
    const auto clean_ramp = wave::Ramp::from_arrival_slew(arrival, slew, vdd);

    const auto out_pol =
        arc->sense == liberty::TimingSense::kNegativeUnate ? flip(pol) : pol;
    const auto lk = (out_pol == wave::Polarity::kRising)
                        ? arc->rise(slew, sink_load)
                        : arc->fall(slew, sink_load);
    const auto out_ramp = wave::Ramp::from_arrival_slew(
        arrival + lk.delay * delay_scale, lk.out_slew * slew_scale, vdd);

    core::MethodInput mi;
    mi.noisy_in = &noisy->waveform;
    mi.in_polarity = pol;
    mi.out_polarity = out_pol;
    mi.vdd = vdd;
    // The noiseless pair is synthesized into the worker's arena (zero
    // heap traffic once warm), or into a local one when the caller
    // supplied none — the fallback core::MethodInput::scratch() uses.
    wave::Workspace local;
    wave::Workspace& ws = ctx.workspace != nullptr ? *ctx.workspace : local;
    mi.workspace = &ws;
    const wave::Workspace::Scope ws_scope(ws);
    constexpr size_t kCleanSamples = 192;
    const auto t_in = ws.alloc(kCleanSamples);
    const auto v_in = ws.alloc(kCleanSamples);
    clean_ramp.denormalized_into(pol, t_in, v_in);
    mi.noiseless_in_view = wave::WaveView(t_in, v_in);
    const auto t_out = ws.alloc(kCleanSamples);
    const auto v_out = ws.alloc(kCleanSamples);
    out_ramp.denormalized_into(out_pol, t_out, v_out);
    mi.noiseless_out_view = wave::WaveView(t_out, v_out);
    const auto fit = ctx.method->fit(mi);
    arrival = fit.ramp.t50();
    slew = fit.ramp.slew();
    if (ctx.cache != nullptr) {
      ctx.cache->insert(key, GammaCache::Value{arrival, slew});
    }
  }
}

void StaEngine::propagate_net_edge(size_t edge_index, TimingState& state,
                                   const EvalContext& ctx) const {
  const auto& e = net_edges_[edge_index];
  const auto& from = state[static_cast<size_t>(e.from)];
  // Annotation resolution is a single indexed load from the table
  // compiled by compile_edge_annotations() — no map lookups here.
  const NoiseAnnotation* noisy =
      ctx.edge_noise != nullptr ? ctx.edge_noise[edge_index] : nullptr;
  const double wire_scale =
      ctx.corner != nullptr ? ctx.corner->wire_delay_scale : 1.0;
  const double wire_delay = net_parasitics_[static_cast<size_t>(e.net)].second;

  for (int rf_i = 0; rf_i < 2; ++rf_i) {
    const auto& drv = from.timing[rf_i];
    if (!drv.valid) continue;
    const auto rf = static_cast<RiseFall>(rf_i);
    double arrival = drv.arrival + wire_delay * wire_scale;
    double slew = drv.slew;
    noisy_fit(e, edge_index, noisy, rf_i, ctx, arrival, slew);
    relax(state, e.to, rf, arrival, slew, e.from, rf);
  }
}

void StaEngine::forward_vertex(int v, TimingState& state,
                               const EvalContext& ctx) const {
  for (const auto& [is_cell, idx] : in_edges_[static_cast<size_t>(v)]) {
    if (is_cell) {
      propagate_cell_edge(cell_edges_[idx], state, ctx);
    } else {
      propagate_net_edge(idx, state, ctx);
    }
  }
}

void StaEngine::backward_vertex(int v, TimingState& state) const {
  // The edge delay actually used by the forward pass is recovered from
  // the endpoint arrivals of the transitions it connected.
  auto& vf = state[static_cast<size_t>(v)];
  for (const auto& [is_cell, idx] : out_edges_[static_cast<size_t>(v)]) {
    const int to = is_cell ? cell_edges_[idx].to : net_edges_[idx].to;
    const auto& vt = state[static_cast<size_t>(to)];
    for (int to_rf = 0; to_rf < 2; ++to_rf) {
      const auto& tt = vt.timing[to_rf];
      if (!tt.valid || !std::isfinite(tt.required)) continue;
      // Which source transition fed this sink transition?
      if (vt.critical_pred[to_rf] != v) continue;
      const int from_rf = static_cast<int>(vt.critical_pred_rf[to_rf]);
      auto& ft = vf.timing[from_rf];
      if (!ft.valid) continue;
      const double edge_delay = tt.arrival - ft.arrival;
      ft.required = std::min(ft.required, tt.required - edge_delay);
    }
  }
}

void StaEngine::evaluate(TimingState& state, const EvalContext& ctx) const {
  util::require(ctx.method != nullptr, "evaluate: null noise method");
  init_state(state);
  for (const auto& level : levels_) {
    for (const int v : level) forward_vertex(v, state, ctx);
  }
  for (auto it = levels_.rbegin(); it != levels_.rend(); ++it) {
    for (const int v : *it) backward_vertex(v, state);
  }
}

void StaEngine::evaluate_points(
    std::span<TimingState> states, std::span<const EvalContext> contexts,
    util::ThreadPool* pool,
    std::span<wave::Workspace> worker_workspaces) const {
  util::require(states.size() == contexts.size(),
                "evaluate_points: ", states.size(), " states vs ",
                contexts.size(), " contexts");
  // Allocate every state here, on the caller: storage a worker allocates
  // lands in that thread's malloc arena, which makes the process's peak
  // memory depend on which worker ran which point.  evaluate() then
  // refills the state in place.
  for (auto& state : states) state.reserve(vertex_names_.size());
  run_points("evaluate_points", contexts, pool, worker_workspaces,
             [&](size_t p, const EvalContext& ctx) {
               evaluate(states[p], ctx);
             });
}

StaEngine::DeltaPlan StaEngine::finish_plan(std::vector<char>& dirty,
                                            std::vector<char>& back) const {
  const size_t n = vertex_names_.size();
  DeltaPlan plan;
  plan.num_vertices = n;

  // Forward closure over out-edges: the transitive fanout cone.
  std::vector<int> stack;
  for (size_t v = 0; v < n; ++v) {
    if (dirty[v]) stack.push_back(static_cast<int>(v));
  }
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (const auto& [is_cell, idx] : out_edges_[static_cast<size_t>(v)]) {
      const int to = is_cell ? cell_edges_[idx].to : net_edges_[idx].to;
      if (!dirty[static_cast<size_t>(to)]) {
        dirty[static_cast<size_t>(to)] = 1;
        stack.push_back(to);
      }
    }
  }
  // Backward closure: required times depend on downstream arrivals, so
  // every vertex with a path INTO the cone (or into an extra backward
  // seed, e.g. a required-edited endpoint) must re-fold its required.
  for (size_t v = 0; v < n; ++v) {
    if (dirty[v] && !back[v]) back[v] = 1;
  }
  for (size_t v = 0; v < n; ++v) {
    if (back[v]) stack.push_back(static_cast<int>(v));
  }
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (const auto& [is_cell, idx] : in_edges_[static_cast<size_t>(v)]) {
      const int from = is_cell ? cell_edges_[idx].from : net_edges_[idx].from;
      if (!back[static_cast<size_t>(from)]) {
        back[static_cast<size_t>(from)] = 1;
        stack.push_back(from);
      }
    }
  }

  for (size_t v = 0; v < n; ++v) {
    if (dirty[v]) plan.forward.push_back(static_cast<int>(v));
    if (back[v]) plan.backward.push_back(static_cast<int>(v));
  }
  // The collection loops above run in ascending vertex id — keep that
  // order for the materialization walklists before re-sorting the
  // propagation ones by level.
  plan.forward_ids = plan.forward;
  plan.backward_ids = plan.backward;
  // Order worklists as (level, vertex) forwards and (-level, vertex)
  // backwards.  The lists are built in ascending vertex id, so a
  // stable counting sort over the level key produces exactly what
  // std::stable_sort with a level comparator did — in O(cone + levels)
  // instead of O(cone log cone), with no merge buffer allocation.
  // Plan construction showed up beside evaluation itself in sweep
  // profiles, so this path is deliberately allocation-lean.
  const auto by_level = [this](std::vector<int>& list, bool descending) {
    if (list.size() < 2) return;
    int lo = vertex_level_[static_cast<size_t>(list[0])];
    int hi = lo;
    for (const int v : list) {
      const int l = vertex_level_[static_cast<size_t>(v)];
      lo = std::min(lo, l);
      hi = std::max(hi, l);
    }
    const size_t n_levels = static_cast<size_t>(hi - lo) + 1;
    std::vector<int> counts(n_levels + 1, 0);
    const auto key = [&](int v) {
      const int l = vertex_level_[static_cast<size_t>(v)];
      return static_cast<size_t>(descending ? hi - l : l - lo);
    };
    for (const int v : list) ++counts[key(v) + 1];
    for (size_t k = 1; k < counts.size(); ++k) counts[k] += counts[k - 1];
    std::vector<int> sorted(list.size());
    for (const int v : list) sorted[static_cast<size_t>(counts[key(v)]++)] = v;
    list = std::move(sorted);
  };
  by_level(plan.forward, /*descending=*/false);
  by_level(plan.backward, /*descending=*/true);

  for (size_t e = 0; e < endpoint_ports_.size(); ++e) {
    if (dirty[static_cast<size_t>(endpoint_vertex(e))]) {
      plan.endpoints.push_back(static_cast<int32_t>(e));
    }
  }
  return plan;
}

StaEngine::DeltaPlan StaEngine::delta_plan(
    const NoiseScenario& scenario) const {
  const size_t n = vertex_names_.size();
  // Seeds: the sink vertex of every net edge of every annotated net —
  // the only places where the compiled edge-annotation table of this
  // scenario can differ from the engine-level base table.
  std::vector<char> dirty(n, 0);
  std::vector<char> back(n, 0);
  for (const auto& entry : scenario.entries) {
    const int ord = netlist_->net_ordinal(entry.net);
    util::require(ord >= 0, "delta_plan: scenario ", scenario.name,
                  " annotates unknown net ", entry.net);
    for (const uint32_t e : edges_of_net_[static_cast<size_t>(ord)]) {
      dirty[static_cast<size_t>(net_edges_[e].to)] = 1;
    }
  }
  return finish_plan(dirty, back);
}

StaEngine::DeltaPlan StaEngine::delta_plan(const EditSeeds& seeds) const {
  const size_t n = vertex_names_.size();
  const size_t n_nets = netlist_->nets().size();
  std::vector<char> dirty(n, 0);
  std::vector<char> back(n, 0);
  const auto check_net = [&](int32_t ord, const char* what) {
    util::require(ord >= 0 && static_cast<size_t>(ord) < n_nets,
                  "delta_plan: ", what, " net ordinal ", ord,
                  " out of range (", n_nets, " nets)");
  };
  // A load change re-times every cell arc driving the net AND every
  // noisy-edge Γeff synthesis that reads the net's load at its sink.
  for (const int32_t ord : seeds.load_nets) {
    check_net(ord, "load-edit");
    for (const uint32_t e : graph_->arcs_of_net[static_cast<size_t>(ord)]) {
      dirty[static_cast<size_t>(cell_edges_[e].to)] = 1;
    }
    for (const uint32_t e :
         graph_->sink_load_edges_of_net[static_cast<size_t>(ord)]) {
      dirty[static_cast<size_t>(net_edges_[e].to)] = 1;
    }
  }
  // Wire-delay and annotation changes surface at the net's sinks.
  for (const int32_t ord : seeds.delay_nets) {
    check_net(ord, "delay-edit");
    for (const uint32_t e : edges_of_net_[static_cast<size_t>(ord)]) {
      dirty[static_cast<size_t>(net_edges_[e].to)] = 1;
    }
  }
  for (const int32_t ord : seeds.noise_nets) {
    check_net(ord, "noise-edit");
    for (const uint32_t e : edges_of_net_[static_cast<size_t>(ord)]) {
      dirty[static_cast<size_t>(net_edges_[e].to)] = 1;
    }
  }
  for (const int32_t p : seeds.arrival_ports) {
    util::require(p >= 0 && static_cast<size_t>(p) < ports_.size(),
                  "delta_plan: arrival-edit port ordinal ", p,
                  " out of range (", ports_.size(), " ports)");
    const auto& rec = ports_[static_cast<size_t>(p)];
    util::require(rec.direction == netlist::PortDirection::kInput,
                  "delta_plan: arrival-edit port ", rec.name,
                  " is not an input port");
    dirty[static_cast<size_t>(rec.vertex)] = 1;
  }
  // Required-time edits change no arrival: the port vertex joins only
  // the backward closure (and the endpoint list, below).
  for (const int32_t p : seeds.required_ports) {
    util::require(p >= 0 && static_cast<size_t>(p) < ports_.size(),
                  "delta_plan: required-edit port ordinal ", p,
                  " out of range (", ports_.size(), " ports)");
    const auto& rec = ports_[static_cast<size_t>(p)];
    util::require(rec.direction == netlist::PortDirection::kOutput,
                  "delta_plan: required-edit port ", rec.name,
                  " is not an output port");
    back[static_cast<size_t>(rec.vertex)] = 1;
  }
  for (const int v : seeds.vertices) {
    util::require(v >= 0 && static_cast<size_t>(v) < n,
                  "delta_plan: seed vertex ", v, " out of range (", n,
                  " vertices)");
    dirty[static_cast<size_t>(v)] = 1;
  }
  DeltaPlan plan = finish_plan(dirty, back);
  // finish_plan lists endpoints whose ARRIVAL can move; required-time
  // edits move slack without touching arrivals, so add their ports.
  if (!seeds.required_ports.empty()) {
    for (const int32_t p : seeds.required_ports) {
      for (size_t e = 0; e < endpoint_ports_.size(); ++e) {
        if (endpoint_ports_[e] == p) {
          plan.endpoints.push_back(static_cast<int32_t>(e));
          break;
        }
      }
    }
    std::sort(plan.endpoints.begin(), plan.endpoints.end());
    plan.endpoints.erase(
        std::unique(plan.endpoints.begin(), plan.endpoints.end()),
        plan.endpoints.end());
  }
  return plan;
}

void StaEngine::reset_vertex(TimingState& state, int v) const {
  auto& vt = state[static_cast<size_t>(v)];
  vt = VertexTiming{};
  if (static_cast<size_t>(v) < ports_.size()) {
    apply_port_constraints(vt, static_cast<size_t>(v));
  }
}

void StaEngine::reset_required(TimingState& state, int v) const {
  auto& vt = state[static_cast<size_t>(v)];
  vt.timing[0].required = required_of(v);
  vt.timing[1].required = required_of(v);
}

void StaEngine::evaluate_delta(TimingState& state,
                               const TimingState& baseline,
                               const DeltaPlan& plan,
                               const EvalContext& ctx) const {
  util::require(ctx.method != nullptr, "evaluate_delta: null noise method");
  util::require(baseline.size() == vertex_names_.size(),
                "evaluate_delta: baseline size ", baseline.size(),
                " does not match this engine (", vertex_names_.size(),
                " vertices)");
  util::require(plan.num_vertices == vertex_names_.size(),
                "evaluate_delta: plan was computed for ", plan.num_vertices,
                " vertices, engine has ", vertex_names_.size());
  state = baseline;
  // Every dirty vertex is reset to its initial constraints BEFORE any
  // is folded: relax() is a max, so folding on top of the stale
  // baseline value would be wrong whenever the scenario speeds an
  // arrival up (and would corrupt critical_pred links either way).
  for (const int v : plan.forward) reset_vertex(state, v);
  for (const int v : plan.forward) forward_vertex(v, state, ctx);
  for (const int v : plan.backward) reset_required(state, v);
  for (const int v : plan.backward) backward_vertex(v, state);
}

void StaEngine::evaluate_points_delta(
    std::span<TimingState> states, std::span<const EvalContext> contexts,
    std::span<const TimingState* const> baselines,
    std::span<const DeltaPlan* const> plans, util::ThreadPool* pool,
    std::span<wave::Workspace> worker_workspaces) const {
  util::require(states.size() == contexts.size() &&
                    states.size() == baselines.size() &&
                    states.size() == plans.size(),
                "evaluate_points_delta: ", states.size(), " states vs ",
                contexts.size(), " contexts vs ", baselines.size(),
                " baselines vs ", plans.size(), " plans");
  run_points("evaluate_points_delta", contexts, pool, worker_workspaces,
             [&](size_t p, const EvalContext& ctx) {
               evaluate_delta(states[p], *baselines[p], *plans[p], ctx);
             });
}

void StaEngine::run() {
  prepare();
  const auto edge_noise = compile_edge_annotations();
  EvalContext ctx;
  ctx.edge_noise = edge_noise.data();
  ctx.corner = corner_ ? &*corner_ : nullptr;
  ctx.corner_key = corner_ ? corner_->key() : 0;
  ctx.method = noise_method_.get();
  // One point, one serial walk.  The arena is retained across runs: the
  // first run warms its slabs, every later run is allocation-free.
  if (workspaces_.empty()) workspaces_.resize(1);
  ctx.workspace = &workspaces_[0];
  evaluate(state_, ctx);
  analyzed_ = true;
}

const PinTiming& StaEngine::timing_in(const TimingState& state, PinId pin,
                                      RiseFall rf) const {
  util::require(state.size() == vertex_names_.size(),
                "timing_in: state size does not match this engine "
                "(init_state/evaluate it first)");
  return state[static_cast<size_t>(check(pin))]
      .timing[static_cast<size_t>(rf)];
}

const PinTiming& StaEngine::timing_in(const TimingState& state,
                                      const std::string& pin,
                                      RiseFall rf) const {
  return timing_in(state, this->pin(pin), rf);
}

double StaEngine::worst_slack_in(const TimingState& state) const {
  return summarize_endpoints(state).worst_slack;
}

const PinTiming& StaEngine::timing(PinId pin, RiseFall rf) const {
  util::require(analyzed_, "run() the analysis first");
  return timing_in(state_, pin, rf);
}

const PinTiming& StaEngine::timing(const std::string& pin,
                                   RiseFall rf) const {
  util::require(analyzed_, "run() the analysis first");
  return timing_in(state_, pin, rf);
}

double StaEngine::worst_slack() const {
  util::require(analyzed_, "run() the analysis first");
  return worst_slack_in(state_);
}

StaEngine::WorstEndpoint StaEngine::worst_endpoint_in(
    const TimingState& state) const {
  return summarize_endpoints(state).critical;
}

template <typename RowOf>
StaEngine::EndpointSummary StaEngine::summarize_rows(
    size_t n_endpoints, const RowOf& row_of, std::span<double> arrivals) {
  // Endpoint: worst slack when constrained, else latest arrival.
  EndpointSummary sum;
  WorstEndpoint& best = sum.critical;
  double best_metric = std::numeric_limits<double>::infinity();
  bool use_slack = false;
  for (size_t e = 0; e < n_endpoints; ++e) {
    const VertexTiming& v = row_of(e);
    for (int rf = 0; rf < 2; ++rf) {
      const auto& t = v.timing[rf];
      if (!arrivals.empty()) {
        arrivals[e * 2 + static_cast<size_t>(rf)] = t.arrival;
      }
      if (!t.valid) continue;
      const bool constrained = std::isfinite(t.required);
      const double metric = constrained ? t.slack() : -t.arrival;
      if (constrained && !use_slack) {
        use_slack = true;
        best_metric = std::numeric_limits<double>::infinity();
      }
      if (constrained == use_slack && metric < best_metric) {
        best_metric = metric;
        best.endpoint = static_cast<int32_t>(e);
        best.rf = static_cast<RiseFall>(rf);
        best.constrained = constrained;
        best.slack = t.slack();
        best.arrival = t.arrival;
      }
    }
  }
  // The minimum over constrained slacks, first in endpoint order on
  // ties: exactly a running std::min over them.
  if (use_slack) sum.worst_slack = best_metric;
  return sum;
}

StaEngine::EndpointSummary StaEngine::summarize_endpoints(
    const TimingState& state, std::span<double> arrivals) const {
  util::require(state.size() == vertex_names_.size(),
                "endpoint summary: state size does not match this engine "
                "(init_state/evaluate it first)");
  return summarize_rows(
      endpoint_ports_.size(),
      [&](size_t e) -> const VertexTiming& {
        return state[static_cast<size_t>(endpoint_vertex(e))];
      },
      arrivals);
}

StaEngine::EndpointSummary StaEngine::summarize_endpoints(
    std::span<const VertexTiming> rows, std::span<double> arrivals) const {
  util::require(rows.size() == endpoint_ports_.size(),
                "endpoint summary: ", rows.size(), " rows for ",
                endpoint_ports_.size(), " endpoints");
  return summarize_rows(
      rows.size(), [&](size_t e) -> const VertexTiming& { return rows[e]; },
      arrivals);
}

std::vector<PathStep> StaEngine::worst_path_in(
    const TimingState& state) const {
  const WorstEndpoint we = worst_endpoint_in(state);
  std::vector<PathStep> path;
  int v =
      we.endpoint >= 0 ? endpoint_vertex(static_cast<size_t>(we.endpoint)) : -1;
  int rf = static_cast<int>(we.rf);
  while (v >= 0) {
    const auto& vert = state[static_cast<size_t>(v)];
    path.push_back({vertex_names_[static_cast<size_t>(v)],
                    static_cast<RiseFall>(rf), vert.timing[rf].arrival});
    const int pred = vert.critical_pred[rf];
    rf = static_cast<int>(vert.critical_pred_rf[rf]);
    v = pred;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<PathStep> StaEngine::worst_path() const {
  util::require(analyzed_, "run() the analysis first");
  return worst_path_in(state_);
}

std::string StaEngine::report() const {
  util::require(analyzed_, "run() the analysis first");
  std::ostringstream os;
  os << "STA report for " << netlist_->name << " ("
     << netlist_->instances().size() << " instances, "
     << vertex_names_.size() << " pins)\n";
  for (const auto& port : ports_) {
    if (port.direction != netlist::PortDirection::kOutput) continue;
    const auto& v = state_[static_cast<size_t>(port.vertex)];
    for (int rf = 0; rf < 2; ++rf) {
      const auto& t = v.timing[rf];
      if (!t.valid) continue;
      os << "  " << port.name << " (" << to_string(static_cast<RiseFall>(rf))
         << "): arrival " << util::format_ps(t.arrival) << " ps, slew "
         << util::format_ps(t.slew) << " ps";
      if (std::isfinite(t.required)) {
        os << ", slack " << util::format_ps(t.slack()) << " ps";
      }
      os << '\n';
    }
  }
  os << "critical path:";
  for (const auto& step : worst_path()) {
    os << ' ' << step.pin << '(' << to_string(step.rf) << ')';
  }
  os << '\n';
  return os.str();
}

}  // namespace waveletic::sta
