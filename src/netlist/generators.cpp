#include "netlist/generators.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "netlist/verilog.hpp"
#include "util/error.hpp"

namespace waveletic::netlist {

Netlist make_chain_tree(int width) {
  util::require(width >= 1, "make_chain_tree: width must be >= 1");
  std::ostringstream os;
  os << "module wide (";
  for (int i = 0; i < width; ++i) os << "a" << i << ", ";
  os << "y);\n";
  for (int i = 0; i < width; ++i) os << "  input a" << i << ";\n";
  os << "  output y;\n";
  for (int i = 0; i < width; ++i) {
    os << "  wire c" << i << "_1, c" << i << "_2, c" << i << "_3;\n";
    os << "  INVX1 inv" << i << "_1 (.A(a" << i << "), .Y(c" << i << "_1));\n";
    os << "  INVX1 inv" << i << "_2 (.A(c" << i << "_1), .Y(c" << i
       << "_2));\n";
    os << "  INVX4 inv" << i << "_3 (.A(c" << i << "_2), .Y(c" << i
       << "_3));\n";
  }
  // Fold pairs with NAND2s until one signal remains; an odd chain
  // passes through an inverter so every stage narrows.
  int stage = 0;
  int count = width;
  std::string prefix = "c";
  std::string suffix = "_3";
  if (width == 1) {
    os << "  INVX1 pass0 (.A(c0_3), .Y(y));\n";
  }
  while (count > 1) {
    const int next = (count + 1) / 2;
    for (int i = 0; i < count / 2; ++i) {
      const std::string out =
          count == 2 ? std::string("y")
                     : "f" + std::to_string(stage) + "_" + std::to_string(i);
      if (out != "y") os << "  wire " << out << ";\n";
      os << "  NAND2X1 nd" << stage << "_" << i << " (.A(" << prefix << 2 * i
         << suffix << "), .B(" << prefix << 2 * i + 1 << suffix << "), .Y("
         << out << "));\n";
    }
    if (count % 2 == 1) {
      const std::string out =
          "f" + std::to_string(stage) + "_" + std::to_string(count / 2);
      os << "  wire " << out << ";\n";
      os << "  INVX1 pass" << stage << " (.A(" << prefix << count - 1
         << suffix << "), .Y(" << out << "));\n";
    }
    prefix = "f" + std::to_string(stage) + "_";
    suffix = "";
    count = next;
    ++stage;
  }
  os << "endmodule\n";
  return parse_verilog(os.str());
}

namespace {

/// Minimal SplitMix64 — platform-independent, unlike the standard
/// distributions (libstdc++ and libc++ produce different streams).
struct Rng {
  uint64_t state;
  uint64_t next() {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  size_t below(size_t n) { return static_cast<size_t>(next() % n); }
};

}  // namespace

Netlist make_grid_block(int layer_width, int layers) {
  util::require(layer_width >= 2 && layers >= 1,
                "make_grid_block: need layer_width >= 2 and layers >= 1");
  Netlist block;
  block.name = "grid";
  const auto w = static_cast<size_t>(layer_width);
  std::vector<std::string> prev;
  for (size_t i = 0; i < w; ++i) {
    prev.push_back("a" + std::to_string(i));
    block.add_port(prev.back(), PortDirection::kInput);
  }
  int gate_id = 0;
  for (int l = 0; l < layers; ++l) {
    std::vector<std::string> next;
    for (size_t g = 0; g < w; ++g) {
      std::string out = "n" + std::to_string(l) + "_" + std::to_string(g);
      Instance inst;
      inst.name = "g" + std::to_string(gate_id++);
      switch ((static_cast<size_t>(l) + g) % 3) {
        case 0:
          inst.cell = "INVX1";
          inst.pins = {{"A", prev[g]}, {"Y", out}};
          break;
        case 1:
          inst.cell = "INVX4";
          inst.pins = {{"A", prev[g]}, {"Y", out}};
          break;
        default:
          inst.cell = "NAND2X1";
          inst.pins = {{"A", prev[g]}, {"B", prev[(g + 1) % w]}, {"Y", out}};
          break;
      }
      block.add_instance(std::move(inst));
      next.push_back(std::move(out));
    }
    prev = std::move(next);
  }
  for (const auto& net : prev) block.add_port(net, PortDirection::kOutput);
  block.validate();
  return block;
}

Netlist make_random_dag(uint64_t seed, int inputs, int layers,
                        int layer_width) {
  util::require(inputs >= 1 && layers >= 1 && layer_width >= 1,
                "make_random_dag: inputs/layers/layer_width must be >= 1");
  Rng rng{seed * 0x2545f4914f6cdd1dull + 1};
  Netlist nl;
  nl.name = "rand" + std::to_string(seed);

  std::vector<std::string> signals;
  for (int i = 0; i < inputs; ++i) {
    const std::string name = "a" + std::to_string(i);
    nl.add_port(name, PortDirection::kInput);
    signals.push_back(name);
  }
  std::vector<bool> consumed(signals.size(), false);

  // The fast-characterized VCL013 subset every suite shares.
  static const char* kCells[] = {"INVX1", "INVX4", "NAND2X1"};
  int gate_id = 0;
  for (int l = 0; l < layers; ++l) {
    const size_t layer_base = signals.size();
    for (int g = 0; g < layer_width; ++g) {
      const char* cell = kCells[rng.below(3)];
      // NAND2X1 is the only two-input cell in the set.
      const bool two_inputs = cell[0] == 'N';
      // Bias sources towards the most recent signals so the DAG gets
      // deep; unconsumed primary inputs are drained first so every
      // input reaches a gate.
      auto pick = [&]() -> size_t {
        for (size_t i = 0; i < consumed.size() &&
                           i < static_cast<size_t>(inputs);
             ++i) {
          if (!consumed[i]) return i;
        }
        const size_t pool = layer_base;
        const size_t window =
            rng.below(2) == 0 ? pool : std::min<size_t>(pool, 8);
        return pool - 1 - rng.below(window);
      };
      const std::string out =
          "n" + std::to_string(l) + "_" + std::to_string(g);
      Instance inst;
      inst.name = "g" + std::to_string(gate_id++);
      inst.cell = cell;
      const size_t s0 = pick();
      consumed[s0] = true;
      if (two_inputs) {
        size_t s1 = pick();
        if (s1 == s0) s1 = layer_base - 1 - rng.below(layer_base);
        consumed[s1] = true;
        inst.pins = {{"A", signals[s0]}, {"B", signals[s1]}, {"Y", out}};
      } else {
        inst.pins = {{"A", signals[s0]}, {"Y", out}};
      }
      nl.add_instance(std::move(inst));
      signals.push_back(out);
      consumed.push_back(false);
    }
  }
  // Everything nothing consumed becomes an observable output port.
  for (size_t i = static_cast<size_t>(inputs); i < signals.size(); ++i) {
    if (!consumed[i]) nl.add_port(signals[i], PortDirection::kOutput);
  }
  nl.validate();
  return nl;
}

namespace {

/// Block port names split by direction, in block port order.
void split_ports(const Netlist& block, std::vector<std::string>& in_ports,
                 std::vector<std::string>& out_ports) {
  for (const auto& p : block.ports()) {
    (p.direction == PortDirection::kInput ? in_ports : out_ports)
        .push_back(p.name);
  }
  util::require(!in_ports.empty() && !out_ports.empty(),
                "stitch_blocks: block needs input and output ports");
}

/// Shared tiler: `all_flat` expands every copy (the oracle), otherwise
/// only options.expanded is expanded and the rest become one macro
/// instance each.
Netlist stitch_impl(const Netlist& block, const StitchOptions& options,
                    bool all_flat) {
  util::require(options.copies >= 1, "stitch_blocks: copies must be >= 1");
  std::vector<std::string> in_ports, out_ports;
  split_ports(block, in_ports, out_ports);

  const bool chain = options.topology == StitchTopology::kChain;
  Netlist top;
  top.name = block.name + "_x" + std::to_string(options.copies);

  for (size_t k = 0; k < options.copies; ++k) {
    const std::string prefix = "u" + std::to_string(k) + "/";
    std::map<std::string, std::string> port_net;
    for (size_t i = 0; i < in_ports.size(); ++i) {
      if (chain && k > 0) {
        // Driven round-robin by the previous copy's outputs.
        port_net[in_ports[i]] = "u" + std::to_string(k - 1) + "/" +
                                out_ports[i % out_ports.size()];
      } else {
        const std::string net = prefix + in_ports[i];
        top.add_port(net, PortDirection::kInput);
        port_net[in_ports[i]] = net;
      }
    }
    std::vector<bool> consumed_next(out_ports.size(), false);
    if (chain && k + 1 < options.copies) {
      for (size_t i = 0; i < in_ports.size(); ++i) {
        consumed_next[i % out_ports.size()] = true;
      }
    }
    for (size_t q = 0; q < out_ports.size(); ++q) {
      const std::string net = prefix + out_ports[q];
      if (!chain || k + 1 == options.copies || !consumed_next[q]) {
        top.add_port(net, PortDirection::kOutput);
      }
      port_net[out_ports[q]] = net;
    }

    const bool expand =
        all_flat ||
        (options.expanded >= 0 && static_cast<size_t>(options.expanded) == k);
    if (expand) {
      for (const auto& inst : block.instances()) {
        Instance copy;
        copy.name = prefix + inst.name;
        copy.cell = inst.cell;
        for (const auto& [pin, net] : inst.pins) {
          const auto it = port_net.find(net);
          copy.pins[pin] = it != port_net.end() ? it->second : prefix + net;
        }
        top.add_instance(std::move(copy));
      }
    } else {
      // ".blk" keeps the macro's pin vertices ("u<k>.blk/<port>")
      // disjoint from the port/net namespace ("u<k>/<port>"): the STA
      // graph interns vertices by name, and a macro pin sharing its
      // port's name would alias the port vertex into a self-loop.
      Instance macro;
      macro.name = "u" + std::to_string(k) + ".blk";
      macro.cell = options.block_cell;
      for (const auto& [port, net] : port_net) macro.pins[port] = net;
      top.add_instance(std::move(macro));
    }
  }
  top.validate();
  return top;
}

}  // namespace

Netlist stitch_blocks(const Netlist& block, const StitchOptions& options) {
  return stitch_impl(block, options, /*all_flat=*/false);
}

Netlist stitch_blocks_flat(const Netlist& block, const StitchOptions& options) {
  return stitch_impl(block, options, /*all_flat=*/true);
}

size_t stitched_flat_vertex_count(const Netlist& block,
                                  const StitchOptions& options) {
  std::vector<std::string> in_ports, out_ports;
  split_ports(block, in_ports, out_ports);
  size_t pins_per_copy = 0;
  for (const auto& inst : block.instances()) pins_per_copy += inst.pins.size();

  size_t top_ports = 0;
  if (options.topology == StitchTopology::kParallel) {
    top_ports = options.copies * (in_ports.size() + out_ports.size());
  } else {
    // Copy-0 inputs, every copy's unconsumed outputs, last copy's all.
    std::vector<bool> consumed_next(out_ports.size(), false);
    for (size_t i = 0; i < in_ports.size(); ++i) {
      consumed_next[i % out_ports.size()] = true;
    }
    size_t exported = 0;
    for (const bool c : consumed_next) exported += c ? 0 : 1;
    top_ports = in_ports.size() + out_ports.size() +  // copy 0 in + last out
                (options.copies - 1) * exported;
  }
  return top_ports + options.copies * pins_per_copy;
}

}  // namespace waveletic::netlist
