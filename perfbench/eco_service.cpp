// eco_service: one closed-loop client on the incremental STA service over
// the ~11.5k-vertex random DAG with two corners and no noise.  Each step
// publishes one edit — a single-net set_net_parasitics (the config-fork
// path), or every 100th step a retype_cell (the graph-rebuild path) —
// then reads the worst slack 16 times.  Writes and reads both use the
// service layer; Γeff fitting and scenario generation do no work.

#include <bit>
#include <cstdio>
#include <memory>
#include <variant>

#include "common.hpp"
#include "sta/edits.hpp"
#include "sta/service.hpp"

namespace perfbench {
namespace {

namespace nl = wl::netlist;
namespace st = wl::sta;

/// The design is fixed (the DAG of dense_sweep); the run seed picks the
/// edited nets and instances and the edit values.
constexpr uint64_t kDagSeed = 2026;
constexpr double kRequired = 4e-9;
constexpr size_t kRebuildEvery = 100;
constexpr int kReads = 16;
/// Edits per run at least: ≥ 1000 config edits put ≥ 10 samples beyond
/// their p99.
constexpr size_t kMinEdits = 1100;
/// Edits land on the last instances of the DAG (small, realistic ECO
/// cones near the outputs).
constexpr size_t kEditWindow = 2000;

/// The first publish: the port constraints of every workload as
/// configuration edits (a service starts unconstrained).
st::EditBatch constraint_batch(const nl::Netlist& netlist) {
  st::EditBatch b;
  int i = 0;
  int o = 0;
  for (const auto& port : netlist.ports()) {
    if (port.direction == nl::PortDirection::kInput) {
      b.set_input_arrival(port.name, 0.008e-9 * i, (75 + 9 * (i % 13)) * 1e-12);
      ++i;
    } else {
      b.set_output_load(port.name, (4 + (o % 3)) * 1e-15);
      b.set_required(port.name, kRequired);
      ++o;
    }
  }
  return b;
}

struct Design {
  wl::liberty::Library lib;
  nl::Netlist netlist;
  std::unique_ptr<st::StaService> service;
};

std::unique_ptr<Design> set_up(int threads) {
  auto d = std::make_unique<Design>();
  d->lib = build_library();
  d->netlist = random_dag(kDagSeed, 24, 50, 80);
  st::ServiceConfig cfg;
  cfg.corners = two_corners();
  cfg.threads = threads;
  {
    const Scope span("service.construct");
    d->service = std::make_unique<st::StaService>(d->netlist, d->lib, cfg);
  }
  const Scope span("service.apply");
  d->service->apply(constraint_batch(d->netlist));
  return d;
}

/// The edit stream: seed-drawn nets, instances and values.
class EditStream {
 public:
  EditStream(const nl::Netlist& netlist, uint64_t seed)
      : rng_(seed ^ 0xec0ec0ull) {
    const auto& inst = netlist.instances();
    const size_t first =
        inst.size() > kEditWindow ? inst.size() - kEditWindow : 0;
    for (size_t i = first; i < inst.size(); ++i) {
      nets_.push_back(inst[i].pins.at("Y"));
      if (inst[i].cell.rfind("INVX", 0) == 0) {
        inverters_.push_back(inst[i].name);
      }
    }
  }

  /// Edit `k`: a retype every kRebuildEvery-th step, else parasitics.
  /// `current` is the netlist the edit applies to (for retype targets).
  st::EditBatch next(size_t k, const nl::Netlist& current) {
    st::EditBatch b;
    if (k % kRebuildEvery == kRebuildEvery - 1) {
      const auto& name = inverters_[rng_.next() % inverters_.size()];
      const auto* inst = current.find_instance(name);
      b.retype_cell(name, inst->cell == "INVX1" ? "INVX4" : "INVX1");
    } else {
      b.set_net_parasitics(nets_[rng_.next() % nets_.size()],
                           (1.0 + 4.0 * rng_.uniform()) * 1e-15,
                           4e-12 * rng_.uniform());
    }
    return b;
  }

 private:
  Rng rng_;
  std::vector<std::string> nets_;
  std::vector<std::string> inverters_;
};

/// Bitwise equality of two timing states over every vertex and both
/// transitions (arrival, slew, required, valid).
bool bitwise_equal(const st::TimingState& a, const st::TimingState& b) {
  if (a.size() != b.size()) return false;
  const auto same = [](double x, double y) {
    return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
  };
  for (size_t v = 0; v < a.size(); ++v) {
    for (int rf = 0; rf < 2; ++rf) {
      const auto& x = a[v].timing[rf];
      const auto& y = b[v].timing[rf];
      if (x.valid != y.valid || !same(x.arrival, y.arrival) ||
          !same(x.slew, y.slew) || !same(x.required, y.required)) {
        return false;
      }
    }
  }
  return true;
}

/// From-scratch re-prepare replaying the edit history: structural edits
/// on a netlist copy, then a fresh engine with every configuration edit
/// in order (last write wins), evaluated per corner and compared
/// bitwise with the service's final snapshot.
bool replay_matches(const Design& d, const std::vector<st::EditBatch>& history,
                    const st::PreparedSnapshot& snap) {
  nl::Netlist netlist = d.netlist;
  for (const auto& batch : history) {
    for (const auto& edit : batch.edits()) {
      if (const auto* r = std::get_if<st::RetypeCell>(&edit)) {
        netlist.retype_instance(r->instance, r->new_cell);
      }
    }
  }
  st::StaEngine eng(netlist, d.lib);
  for (const auto& batch : history) {
    for (const auto& edit : batch.edits()) {
      if (const auto* e = std::get_if<st::SetInputArrival>(&edit)) {
        eng.set_input(e->port, e->arrival, e->slew);
      } else if (const auto* e = std::get_if<st::SetOutputLoad>(&edit)) {
        eng.set_output_load(e->port, e->cap);
      } else if (const auto* e = std::get_if<st::SetRequired>(&edit)) {
        eng.set_required(e->port, e->required);
      } else if (const auto* e = std::get_if<st::SetNetParasitics>(&edit)) {
        eng.set_net_parasitics(e->net, e->cap, e->delay);
      }
    }
  }
  eng.prepare();
  const auto table = eng.compile_edge_annotations();
  for (size_t c = 0; c < snap.corners().size(); ++c) {
    st::StaEngine::EvalContext ctx;
    ctx.edge_noise = table.data();
    ctx.corner = &snap.corners()[c];
    ctx.corner_key = snap.corners()[c].key();
    ctx.method = &eng.noise_method();
    st::TimingState state;
    eng.evaluate(state, ctx);
    if (!bitwise_equal(state, snap.baseline(c))) return false;
  }
  return true;
}

}  // namespace

void run_eco_service(const Options& opt, Result& result) {
  auto d = repeat_setup(result, [&] { return set_up(opt.threads); });
  auto& service = *d->service;
  std::printf("design: %zu vertices, 2 corners\n",
              service.snapshot()->engine().vertex_count());

  std::vector<st::EditBatch> history = {constraint_batch(d->netlist)};
  EditStream stream(d->netlist, opt.seed);
  std::vector<double> config_ms, rebuild_ms, read_s;
  const auto step = [&] {
    // A traced run keeps the figures of its traced half only.
    const bool keep = !opt.trace || Tracer::get().enabled();
    const size_t k = history.size() - 1;
    auto batch = stream.next(k, service.snapshot()->netlist());
    const bool structural = batch.structural();
    double t_apply = 0.0;
    try {
      const auto t0 = Clock::now();
      {
        const Scope span("service.apply");
        service.apply(batch);
      }
      t_apply = since(t0);
      history.push_back(std::move(batch));
      result.check(true);
      if (keep) (structural ? rebuild_ms : config_ms).push_back(t_apply * 1e3);
    } catch (const std::exception& e) {
      std::printf("edit %zu failed: %s\n", k, e.what());
      result.check(false);
    }
    const auto t1 = Clock::now();
    {
      const Scope span("service.read");
      for (int q = 0; q < kReads; ++q) (void)service.worst_slack(q % 2);
    }
    const double t_read = since(t1);
    if (keep) read_s.push_back(t_read);
    return t_apply + t_read;
  };
  const auto samples = measure(opt, result, kMinEdits, step);
  double total = 0.0;
  for (const double t : samples) total += t;
  double read_total = 0.0;
  for (const double t : read_s) read_total += t;
  const auto edit = summarize(config_ms);
  const auto rebuild = summarize(rebuild_ms);
  const double queries_per_s =
      static_cast<double>(read_s.size() * kReads) / read_total;
  result.set("throughput_per_s", static_cast<double>(samples.size()) / total);
  result.set("op_p50_ms", edit.median);
  std::printf("edits_per_s: %.6g 1/s over %zu edits (closed loop, 1 client)\n",
              static_cast<double>(samples.size()) / total, samples.size());
  std::printf("edit (set_net_parasitics) latency: %s\n",
              describe(edit, 1.0, "ms").c_str());
  std::printf("rebuild (retype_cell) latency: %s\n",
              describe(rebuild, 1.0, "ms").c_str());
  std::printf("queries_per_s: %.6g 1/s (%d worst-slack reads per publish)\n",
              queries_per_s, kReads);

  // The final snapshot against a from-scratch replay of every edit.
  result.checks_ran = true;
  const auto snap = service.snapshot();
  const bool same = replay_matches(*d, history, *snap);
  result.check(same);
  std::printf("final snapshot (version %llu) bitwise equal to a from-scratch "
              "replay: %s\n",
              static_cast<unsigned long long>(snap->version()),
              same ? "yes" : "NO");
  if (!opt.trace) return;

  const auto stats = service.stats();
  result.set("service.apply_ms", span_median("service.apply") * 1e3);
  result.set("service.edit_p99_ms", edit.tail);
  result.set("service.rebuild_p50_ms", rebuild.median);
  result.set("service.dirty_cone_frac", stats.mean_dirty_cone_fraction);
  result.set("service.rebuilds",
             static_cast<double>(stats.structural_rebuilds));
  result.set("service.query_ns",
             read_total * 1e9 / static_cast<double>(read_s.size() * kReads));
  // The engine layer under the service, timed on the same design.
  {
    std::unique_ptr<st::StaEngine> eng;
    {
      const Scope span("engine.construct");
      eng = std::make_unique<st::StaEngine>(d->netlist, d->lib);
    }
    constrain(*eng, d->netlist, kRequired);
    eng->set_threads(opt.threads);
    {
      const Scope span("engine.prepare");
      eng->prepare();
    }
    const Scope span("engine.baseline");
    eng->run();
  }
  result.set("engine.construct_s", span_median("engine.construct"));
  result.set("engine.prepare_s", span_median("engine.prepare"));
  result.set("engine.baseline_s", span_median("engine.baseline"));
}

}  // namespace perfbench
