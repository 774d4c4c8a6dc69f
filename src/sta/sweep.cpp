#include "sta/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <sstream>

#include "noise/scenario.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "wave/lanes.hpp"
#include "wave/ramp.hpp"

namespace waveletic::sta {

const char* to_string(PruneMode mode) noexcept {
  return mode == PruneMode::kSafe ? "safe" : "off";
}

std::string format_prune_stats(const PruneStats& stats) {
  std::ostringstream os;
  os << "prune_stats: points=" << stats.points
     << " evaluated=" << stats.evaluated << " reused=" << stats.reused
     << " pruned=" << stats.pruned << "\n"
     << "  dirty_vertex_fraction=" << stats.dirty_vertex_fraction
     << " folded_vertex_fraction=" << stats.folded_vertex_fraction << "\n"
     << "  mean_bound_gap=" << stats.mean_bound_gap
     << " min_bound_gap=" << stats.min_bound_gap;
  return os.str();
}

void NoiseScenario::annotate(const std::string& net, wave::Waveform waveform,
                             wave::Polarity polarity) {
  const uint64_t key = noise_waveform_key(waveform, polarity);
  for (auto& e : entries) {
    if (e.net == net) {
      e.annotation = NoiseAnnotation{std::move(waveform), polarity, key};
      return;
    }
  }
  entries.push_back(
      {net, NoiseAnnotation{std::move(waveform), polarity, key}});
}

const NoiseAnnotation* NoiseScenario::find(
    const std::string& net) const noexcept {
  for (const auto& e : entries) {
    if (e.net == net) return &e.annotation;
  }
  return nullptr;
}

NoiseScenario make_aggressor_scenario(const std::string& net,
                                      double victim_arrival,
                                      double victim_slew, double vdd,
                                      wave::Polarity polarity,
                                      double alignment, double strength,
                                      size_t samples) {
  util::require(victim_slew > 0.0,
                "make_aggressor_scenario: non-positive victim slew");
  util::require(samples >= 8, "make_aggressor_scenario: too few samples");
  const auto ramp =
      wave::Ramp::from_arrival_slew(victim_arrival, victim_slew, vdd);
  const auto clean = ramp.denormalized(polarity, samples);
  std::vector<double> t(clean.times().begin(), clean.times().end());
  std::vector<double> v(clean.values().begin(), clean.values().end());
  // Gaussian coupling bump centred `alignment` after the victim 50%
  // crossing, width tied to the victim transition.  A bump that pushes
  // against the transition direction delays the final crossing — the
  // worst-case aggressor of the paper's Figure 1 testbench.
  const double center = victim_arrival + alignment;
  const double sigma = 0.5 * victim_slew;
  const double sign = polarity == wave::Polarity::kFalling ? 1.0 : -1.0;
  for (size_t i = 0; i < t.size(); ++i) {
    v[i] += sign * strength *
            std::exp(-std::pow((t[i] - center) / sigma, 2.0));
  }
  NoiseScenario s;
  std::ostringstream name;
  name << net << "@align=" << alignment * 1e12
       << "ps,strength=" << strength << "V";
  s.name = name.str();
  s.annotate(net, wave::Waveform(std::move(t), std::move(v)), polarity);
  return s;
}

NoiseScenario scenario_from_case(const std::string& net,
                                 const noise::CaseWaveforms& case_waveforms) {
  NoiseScenario s;
  std::ostringstream name;
  name << net << "@offset=" << case_waveforms.aggressor_offset * 1e12
       << "ps";
  s.name = name.str();
  s.annotate(net, case_waveforms.noisy_in, case_waveforms.in_polarity);
  return s;
}

// ---------------------------------------------------------------------------
// SweepResult
// ---------------------------------------------------------------------------

size_t SweepResult::point(size_t corner, size_t scenario) const {
  util::require(corner < num_corners(), "SweepResult: corner ", corner,
                " out of range (", num_corners(), " corners)");
  util::require(scenario < num_scenarios(), "SweepResult: scenario ",
                scenario, " out of range (", num_scenarios(), " scenarios)");
  return corner * num_scenarios() + scenario;
}

void SweepResult::throw_unavailable(const char* accessor,
                                    const char* disabling_field,
                                    const char* explanation,
                                    const char* alternatives) const {
  // The one error shape of the "accessor unavailable" family: name the
  // accessor, the disabling SweepSpec field, what happened, and the
  // accessors that DO work — identical structure for endpoint-only and
  // pruned results.
  std::ostringstream os;
  os << "SweepResult::" << accessor << ": unavailable under SweepSpec::"
     << disabling_field << " — " << explanation << ".  Use " << alternatives
     << ", or re-run the sweep with " << disabling_field << " disabled";
  throw util::Error(os.str());
}

void SweepResult::require_full_state(const char* accessor) const {
  if (endpoint_only_) {
    throw_unavailable(accessor, "endpoint_only",
                      "this is an endpoint-only result; full TimingStates "
                      "were not kept",
                      "worst_slack()/worst_point()/critical_endpoint()/"
                      "endpoint_arrival()");
  }
}

void SweepResult::require_not_pruned(const char* accessor,
                                     size_t point) const {
  if (status(point) == PointStatus::kPruned) {
    throw_unavailable(accessor, "prune",
                      "this point was pruned: its slack bound proved it "
                      "cannot set the sweep's worst slack, so no timing was "
                      "computed for it",
                      "worst_slack_bound(point)/worst_point()/prune_stats()");
  }
}

const StaEngine& SweepResult::live_engine(const char* accessor) const {
  util::require(engine_ != nullptr, "SweepResult: empty result");
  util::require(!engine_liveness_.expired(), "SweepResult::", accessor,
                ": the engine this result points into has been destroyed — "
                "a SweepResult must not outlive its engine (service queries "
                "co-own their snapshot instead; see sta/service.hpp)");
  return *engine_;
}

const TimingState& SweepResult::state(size_t point) const {
  (void)live_engine("state");
  require_full_state("state");
  util::require(point < states_.size(), "SweepResult: point ", point,
                " out of range (", states_.size(), " points)");
  require_not_pruned("state", point);
  // Summary-only points exist only in endpoint-only results, which
  // require_full_state already rejected — every surviving point here
  // carries a full TimingState.
  return states_[point];
}

TimingView SweepResult::view(size_t point) const {
  const TimingState& s = state(point);  // validates
  return TimingView(engine_, engine_liveness_, &s,
                    &corners_[point / num_scenarios()],
                    &scenario_names_[point % num_scenarios()]);
}

TimingView SweepResult::view(size_t corner, size_t scenario) const {
  return view(point(corner, scenario));
}

double SweepResult::worst_slack(size_t point) const {
  util::require(point < size(), "SweepResult: point ", point,
                " out of range (", size(), " points)");
  require_not_pruned("worst_slack", point);
  if (status(point) == PointStatus::kSummary) return worst_slacks_[point];
  return live_engine("worst_slack").worst_slack_in(states_[point]);
}

bool SweepResult::pruned(size_t point) const {
  util::require(point < size(), "SweepResult: point ", point,
                " out of range (", size(), " points)");
  return status(point) == PointStatus::kPruned;
}

double SweepResult::worst_slack_bound(size_t point) const {
  util::require(point < size(), "SweepResult: point ", point,
                " out of range (", size(), " points)");
  util::require(prune_ != PruneMode::kOff,
                "SweepResult::worst_slack_bound: the sweep ran with "
                "SweepSpec::prune == PruneMode::kOff, so slack bounds were "
                "not computed.  Use worst_slack(point), or re-run the sweep "
                "with prune = PruneMode::kSafe");
  return bounds_[point];
}

const std::string& SweepResult::endpoint_name(size_t endpoint) const {
  util::require(endpoint < endpoint_names_.size(), "SweepResult: endpoint ",
                endpoint, " out of range (", endpoint_names_.size(),
                " endpoints)");
  return endpoint_names_[endpoint];
}

double SweepResult::endpoint_arrival(size_t point, size_t endpoint,
                                     RiseFall rf) const {
  util::require(point < size(), "SweepResult: point ", point,
                " out of range (", size(), " points)");
  util::require(endpoint < endpoint_names_.size(), "SweepResult: endpoint ",
                endpoint, " out of range (", endpoint_names_.size(),
                " endpoints)");
  require_not_pruned("endpoint_arrival", point);
  if (status(point) == PointStatus::kSummary) {
    return endpoint_arrivals_[(point * endpoint_names_.size() + endpoint) * 2 +
                              static_cast<size_t>(rf)];
  }
  const StaEngine& eng = live_engine("endpoint_arrival");
  return eng.timing_in(states_[point], eng.pin(endpoint_names_[endpoint]), rf)
      .arrival;
}

SweepResult::CriticalEndpoint SweepResult::critical_endpoint(
    size_t point) const {
  util::require(point < size(), "SweepResult: point ", point,
                " out of range (", size(), " points)");
  require_not_pruned("critical_endpoint", point);
  if (status(point) == PointStatus::kSummary) return critical_[point];
  const auto we = live_engine("critical_endpoint").worst_endpoint_in(
      states_[point]);
  return CriticalEndpoint{we.endpoint, we.rf, we.slack};
}

size_t SweepResult::result_bytes_per_point() const noexcept {
  if (endpoint_only_) {
    return sizeof(double)                               // worst slack
           + sizeof(CriticalEndpoint)                   // critical endpoint
           + endpoint_names_.size() * 2 * sizeof(double);  // arrivals
  }
  for (const auto& s : states_) {  // first materialized point (pruned
    if (s.size() != 0) return s.size() * sizeof(VertexTiming);  // ones
  }                                                             // are empty)
  return 0;
}

const PinTiming& SweepResult::timing(size_t point, PinId pin,
                                     RiseFall rf) const {
  return live_engine("timing").timing_in(state(point), pin, rf);
}

const PinTiming& SweepResult::timing(size_t point, const std::string& pin,
                                     RiseFall rf) const {
  return live_engine("timing").timing_in(state(point), pin, rf);
}

std::vector<PathStep> SweepResult::critical_path(size_t point) const {
  return live_engine("critical_path").worst_path_in(state(point));
}

SweepResult::WorstPoint SweepResult::worst_point() const {
  util::require(size() > 0, "SweepResult: empty result");
  // Pruned points are skipped: their true worst slack is strictly above
  // the worst of the surviving points (that is what made them
  // prunable), so the argmin — including its first-in-index tie-break —
  // is identical to an unpruned sweep's.
  WorstPoint best;
  bool found = false;
  for (size_t p = 0; p < size(); ++p) {
    if (status(p) == PointStatus::kPruned) continue;
    const double slack = worst_slack(p);
    if (!found || slack < best.slack) {
      best.point = p;
      best.slack = slack;
      found = true;
    }
  }
  util::require(found, "SweepResult: every point was pruned");
  best.corner = best.point / num_scenarios();
  best.scenario = best.point % num_scenarios();
  return best;
}

const Corner& SweepResult::corner(size_t i) const {
  util::require(i < corners_.size(), "SweepResult: corner ", i,
                " out of range");
  return corners_[i];
}

const std::string& SweepResult::scenario_name(size_t i) const {
  util::require(i < scenario_names_.size(), "SweepResult: scenario ", i,
                " out of range");
  return scenario_names_[i];
}

GammaCache::Stats SweepResult::cache_stats() const noexcept {
  return cache_ != nullptr ? cache_->stats() : GammaCache::Stats{};
}

// ---------------------------------------------------------------------------
// TimingView
// ---------------------------------------------------------------------------

const StaEngine& TimingView::live_engine() const {
  util::require(!liveness_.expired(),
                "TimingView: the engine this view points into has been "
                "destroyed — views must not outlive their engine (service "
                "queries co-own their snapshot instead; see sta/service.hpp)");
  return *engine_;
}

const PinTiming& TimingView::timing(PinId pin, RiseFall rf) const {
  return live_engine().timing_in(*state_, pin, rf);
}

const PinTiming& TimingView::timing(const std::string& pin,
                                    RiseFall rf) const {
  return live_engine().timing_in(*state_, pin, rf);
}

double TimingView::worst_slack() const {
  return live_engine().worst_slack_in(*state_);
}

std::vector<PathStep> TimingView::critical_path() const {
  return live_engine().worst_path_in(*state_);
}

// ---------------------------------------------------------------------------
// StaEngine::sweep — baseline + delta propagation over corners × scenarios
// ---------------------------------------------------------------------------

SweepResult StaEngine::sweep(const SweepSpec& spec) {
  prepare();

  // Resolve the lane-width knob up front so a bad value fails fast.
  util::require(spec.lanes == 0 || spec.lanes == 1 || spec.lanes == 4,
                "sweep: lanes must be 0 (auto), 1, or 4, got ", spec.lanes);
  if (spec.lanes > 1) {
    util::require(wave::lane_width_available(spec.lanes),
                  "sweep: lane width ", spec.lanes,
                  " not available on this build/CPU");
  }
  const int lanes = spec.lanes != 0 ? spec.lanes : wave::active_lane_width();

  SweepResult r;
  r.engine_ = this;
  r.engine_liveness_ = liveness();
  if (spec.corners.empty()) {
    r.corners_.push_back(corner_ ? *corner_ : Corner{});
  } else {
    r.corners_ = spec.corners;
  }

  static const NoiseScenario kCleanScenario{};
  std::vector<const NoiseScenario*> scenarios;
  if (spec.scenarios.empty()) {
    scenarios.push_back(&kCleanScenario);
    r.scenario_names_.push_back("clean");
  } else {
    scenarios.reserve(spec.scenarios.size());
    for (const auto& sc : spec.scenarios) {
      scenarios.push_back(&sc);
      r.scenario_names_.push_back(sc.name);
    }
  }

  const size_t n_corners = r.corners_.size();
  const size_t n_scenarios = scenarios.size();
  const size_t n_points = n_corners * n_scenarios;

  // Compile each scenario's effective annotations (engine base overlaid
  // by the scenario) into a dense per-net-edge pointer table, shared by
  // every corner of that scenario.  This is the only place annotations
  // are *searched*; propagation just indexes.
  std::vector<std::vector<const NoiseAnnotation*>> tables(n_scenarios);
  for (size_t s = 0; s < n_scenarios; ++s) {
    tables[s] = compile_edge_annotations(scenarios[s]);
  }

  if (spec.share_gamma_cache) r.cache_ = std::make_unique<GammaCache>();
  const core::EquivalentWaveformMethod* method =
      spec.method != nullptr ? spec.method : noise_method_.get();

  std::vector<EvalContext> contexts(n_points);
  for (size_t c = 0; c < n_corners; ++c) {
    const uint64_t corner_key = r.corners_[c].key();
    for (size_t s = 0; s < n_scenarios; ++s) {
      const size_t p = c * n_scenarios + s;
      contexts[p].edge_noise = tables[s].data();
      contexts[p].corner = &r.corners_[c];
      contexts[p].corner_key = corner_key;
      contexts[p].method = method;
      contexts[p].cache = r.cache_.get();
    }
  }

  const size_t want = spec.threads <= 0
                          ? util::ThreadPool::hardware_threads()
                          : static_cast<size_t>(spec.threads);
  std::unique_ptr<util::ThreadPool> owned_pool;
  util::ThreadPool* pool = spec.pool;
  if (pool == nullptr) {
    owned_pool = std::make_unique<util::ThreadPool>(static_cast<int>(want));
    pool = owned_pool.get();
  }

  // One scratch arena per pool worker: Γeff fits draw their sampling
  // buffers from the running worker's arena, so after the slabs warm up
  // the whole sweep propagates without touching the heap.  Arenas are
  // pure scratch — results are bitwise independent of which worker
  // evaluates which point.
  if (workspaces_.size() < pool->size()) {
    workspaces_.resize(pool->size());
  }
  std::span<wave::Workspace> wss(workspaces_.data(), pool->size());

  // Endpoint axis metadata (both modes).
  r.endpoint_names_.reserve(endpoint_ports_.size());
  for (const int32_t p : endpoint_ports_) {
    r.endpoint_names_.push_back(ports_[static_cast<size_t>(p)].name);
  }
  const size_t n_endpoints = r.endpoint_names_.size();

  const bool prune = spec.prune == PruneMode::kSafe;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  r.endpoint_only_ = spec.endpoint_only;
  r.prune_ = spec.prune;
  r.prune_stats_.points = n_points;

  // Writes one point's endpoint summary and returns its worst slack.
  // Full states, reused baselines and lane-walk endpoint rows all go
  // through the engine's one summary routine, so every mode agrees
  // bitwise with the full-state accessors.
  auto summarize = [&](size_t p, const auto& rows) {
    const EndpointSummary sum = summarize_endpoints(
        rows, std::span<double>(
                  r.endpoint_arrivals_.data() + p * n_endpoints * 2,
                  n_endpoints * 2));
    r.worst_slacks_[p] = sum.worst_slack;
    r.critical_[p] = SweepResult::CriticalEndpoint{
        sum.critical.endpoint, sum.critical.rf, sum.critical.slack};
    return sum.worst_slack;
  };

  if (!spec.delta && !prune) {
    // Full evaluate() per point (SweepSpec::delta == false): the oracle
    // the delta path is tested against.  It folds every vertex.
    r.prune_stats_.evaluated = n_points;
    r.prune_stats_.folded_vertex_fraction = 1.0;
    if (!spec.endpoint_only) {
      // Full mode: every point keeps its TimingState, all evaluated in
      // one evaluate_points() call.
      r.states_.assign(n_points, TimingState{});
      r.status_.assign(n_points, SweepResult::PointStatus::kFull);
      evaluate_points(r.states_, contexts, pool, wss);
      return r;
    }
    // Endpoint-only mode: evaluate points in bounded chunks, summarize
    // each state, then reuse the states for the next chunk.
    r.status_.assign(n_points, SweepResult::PointStatus::kSummary);
    r.worst_slacks_.resize(n_points);
    r.critical_.resize(n_points);
    r.endpoint_arrivals_.resize(n_points * n_endpoints * 2);
    const size_t chunk = spec.endpoint_chunk != 0
                             ? spec.endpoint_chunk
                             : std::max<size_t>(4 * pool->size(), 64);
    std::vector<TimingState> states(std::min(chunk, n_points));
    for (size_t base = 0; base < n_points; base += chunk) {
      const size_t n = std::min(chunk, n_points - base);
      evaluate_points(std::span<TimingState>(states.data(), n),
                      std::span<const EvalContext>(contexts.data() + base, n),
                      pool, wss);
      for (size_t i = 0; i < n; ++i) summarize(base + i, states[i]);
    }
    return r;
  }

  // -------------------------------------------------------------------------
  // Baseline + delta evaluation (and/or slack-bound pruning).
  //
  // One nominal TimingState per corner under the engine-level
  // annotation table; every scenario point is then derived from its
  // corner baseline by re-propagating only the transitive fanout cone
  // of the scenario's annotated nets — bitwise identical to full
  // propagation.  Under prune == kSafe, points are additionally ordered
  // by a conservative slack lower bound and early-outed once the bound
  // proves they cannot beat the worst slack seen so far.
  // -------------------------------------------------------------------------

  std::vector<TimingState> owned_baselines;
  if (spec.corner_baselines != nullptr) {
    util::require(spec.corner_baselines->size() == n_corners,
                  "sweep: corner_baselines has ",
                  spec.corner_baselines->size(), " states for ", n_corners,
                  " corners");
    for (const auto& b : *spec.corner_baselines) {
      util::require(b.size() == vertex_count(),
                    "sweep: corner_baselines state has ", b.size(),
                    " vertices, engine has ", vertex_count(),
                    " (baseline from another engine?)");
    }
  } else {
    const auto base_table = compile_edge_annotations(nullptr);
    owned_baselines.resize(n_corners);
    std::vector<EvalContext> base_ctx(n_corners);
    for (size_t c = 0; c < n_corners; ++c) {
      base_ctx[c].edge_noise = base_table.data();
      base_ctx[c].corner = &r.corners_[c];
      base_ctx[c].corner_key = r.corners_[c].key();
      base_ctx[c].method = method;
      base_ctx[c].cache = r.cache_.get();
    }
    evaluate_points(owned_baselines, base_ctx, pool, wss);
  }
  const std::vector<TimingState>& baselines =
      spec.corner_baselines != nullptr ? *spec.corner_baselines
                                       : owned_baselines;

  // Per-scenario dirty-cone plans, shared by every corner of a
  // scenario (the cone depends only on the annotated nets).  Scenarios
  // that annotate the same net set — the common shape from scenario
  // generators, which emit many height/offset variants per victim —
  // share one plan: the cone is a pure function of the annotated nets,
  // and plan construction is expensive enough to rival evaluation on
  // small-cone sweeps.  plan_of[s] maps a scenario to its unique plan.
  std::vector<DeltaPlan> plans;
  std::vector<size_t> plan_of(n_scenarios);
  {
    std::map<std::vector<int>, size_t> plan_index;
    std::vector<int> key;
    double cone_frac = 0.0;
    for (size_t s = 0; s < n_scenarios; ++s) {
      key.clear();
      for (const auto& entry : scenarios[s]->entries) {
        key.push_back(netlist_->net_ordinal(entry.net));
      }
      std::sort(key.begin(), key.end());
      key.erase(std::unique(key.begin(), key.end()), key.end());
      const auto [it, fresh] = plan_index.try_emplace(key, plans.size());
      if (fresh) plans.push_back(delta_plan(*scenarios[s]));
      plan_of[s] = it->second;
      cone_frac += static_cast<double>(plans[plan_of[s]].forward.size()) /
                   static_cast<double>(std::max<size_t>(vertex_count(), 1));
    }
    r.prune_stats_.dirty_vertex_fraction =
        cone_frac / static_cast<double>(n_scenarios);
  }

  // Result storage.
  r.status_.assign(n_points, spec.endpoint_only
                                 ? SweepResult::PointStatus::kSummary
                                 : SweepResult::PointStatus::kFull);
  if (spec.endpoint_only) {
    // Summary storage is an endpoint-only concern: full-state results
    // answer every accessor from their TimingStates (pruning only
    // needs bounds_, allocated below).
    r.worst_slacks_.assign(n_points, kInf);
    r.critical_.assign(n_points, {});
    r.endpoint_arrivals_.assign(n_points * n_endpoints * 2, -kInf);
  }
  if (!spec.endpoint_only) r.states_.assign(n_points, TimingState{});

  // Evaluation order: ascending points, or — under pruning — points
  // sorted most-critical-first by their slack lower bound, with
  // cone-misses-every-endpoint points recorded exactly from the
  // baseline up front.
  std::vector<size_t> order;
  order.reserve(n_points);
  // A streaming caller (scengen's generated sweep) seeds the running
  // worst slack with the worst seen in earlier chunks; admission is
  // strictly `bound > worst_seen`, so a seed that is itself an attained
  // slack never prunes the global argmin or its ties.
  double worst_seen = prune ? spec.prune_seed_slack : kInf;
  if (prune) {
    r.bounds_.assign(n_points, -kInf);
    // Per-corner baseline endpoint summaries feed bounds and reuse.
    std::vector<double> base_ws(n_corners);
    std::vector<double> base_ep_slack(n_corners * n_endpoints, kInf);
    for (size_t c = 0; c < n_corners; ++c) {
      base_ws[c] = worst_slack_in(baselines[c]);
      for (size_t e = 0; e < n_endpoints; ++e) {
        const int v = endpoint_vertex(e);
        double best = kInf;
        for (size_t rf = 0; rf < 2; ++rf) {
          const auto& t = baselines[c][static_cast<size_t>(v)].timing[rf];
          if (t.valid && std::isfinite(t.required)) {
            best = std::min(best, t.slack());
          }
        }
        base_ep_slack[c * n_endpoints + e] = best;
      }
    }
    // Conservative per-(corner, scenario) push-out bound: how much
    // later any arrival inside the cone can get versus the corner
    // baseline, from the annotation magnitudes.  At every annotated net
    // edge the equivalent-waveform fit replaces the baseline (arrival,
    // slew) with values inside the noisy waveform's envelope, so the
    // arrival push-out is bounded by (last 50%-crossing − baseline
    // arrival) and the slew degradation by (10–90% envelope span −
    // baseline slew); the ×3 margin covers fit overshoot and
    // slew-degradation amplification through downstream NLDM stages —
    // an engineering margin (validated against prune-off sweeps in
    // tests, monitored by PruneStats::min_bound_gap), not a formal
    // proof: a library with delay-vs-slew table slopes compounding
    // past the margin could in principle defeat it.
    // Per net the worst edge bounds any single path (a path crosses one
    // edge of a net); annotated nets sum, so overlapping cones compose.
    // A bump that never comes near the victim transition contributes ~0
    // — exactly the paper's observation that aggressor alignment
    // decides whether a bump matters at all.
    const double vdd = library_->nom_voltage;
    auto push_out_bound = [&](const NoiseScenario& scenario,
                              const TimingState& baseline,
                              const Corner& corner) {
      double total = 0.0;
      for (const auto& entry : scenario.entries) {
        const auto& w = entry.annotation.waveform;
        if (w.size() == 0) continue;
        const double t_begin = w.times().front();
        const double t_end = w.times().back();
        const auto last50 = w.last_crossing(0.5 * vdd);
        const bool falling =
            entry.annotation.polarity == wave::Polarity::kFalling;
        const auto span_from =
            w.first_crossing((falling ? 0.9 : 0.1) * vdd);
        const auto span_to = w.last_crossing((falling ? 0.1 : 0.9) * vdd);
        const double span =
            span_from.has_value() && span_to.has_value()
                ? std::max(0.0, *span_to - *span_from)
                : t_end - t_begin;  // never crosses: whole record
        const size_t rf = falling ? static_cast<size_t>(RiseFall::kFall)
                                  : static_cast<size_t>(RiseFall::kRise);
        const int ord = netlist_->net_ordinal(entry.net);
        double worst_edge = 0.0;
        for (const uint32_t ei : edges_of_net_[static_cast<size_t>(ord)]) {
          const auto& e = net_edges_[ei];
          if (e.sink_pin == nullptr) continue;  // ports take no Γeff fit
          const auto& drv = baseline[static_cast<size_t>(e.from)].timing[rf];
          if (!drv.valid) continue;
          const double arr =
              drv.arrival +
              net_parasitics_[static_cast<size_t>(e.net)].second *
                  corner.wire_delay_scale;
          const double d_arrival =
              std::max(0.0, (last50.has_value() ? *last50 : t_end) - arr);
          const double d_slew = std::max(0.0, span - drv.slew);
          worst_edge = std::max(worst_edge, 3.0 * (d_arrival + d_slew));
        }
        total += worst_edge;
      }
      return total;
    };
    std::vector<double> push_out(n_points);
    for (size_t c = 0; c < n_corners; ++c) {
      for (size_t s = 0; s < n_scenarios; ++s) {
        push_out[c * n_scenarios + s] =
            push_out_bound(*scenarios[s], baselines[c], r.corners_[c]);
      }
    }
    for (size_t c = 0; c < n_corners; ++c) {
      for (size_t s = 0; s < n_scenarios; ++s) {
        const size_t p = c * n_scenarios + s;
        if (plans[plan_of[s]].endpoints.empty() && spec.endpoint_only) {
          // The cone misses every endpoint, so every endpoint summary
          // of this point IS the corner baseline's — recorded exactly,
          // no propagation (the hierarchical-reuse fast path).  Only in
          // endpoint-only mode: a full-state result must materialize
          // the point (in-cone internal vertices DO differ from the
          // baseline), so there it takes the normal route — its bound
          // equals its exact worst slack, so it still prunes whenever
          // it cannot matter.
          r.status_[p] = SweepResult::PointStatus::kSummary;
          summarize(p, baselines[c]);
          r.bounds_[p] = base_ws[c];  // exact, not just a bound
          worst_seen = std::min(worst_seen, base_ws[c]);
          ++r.prune_stats_.reused;
          continue;
        }
        // Lower bound on the point's worst slack: endpoints outside the
        // cone keep their exact baseline slack; endpoints inside it can
        // degrade by at most the scenario's push-out bound.
        double in_min = kInf;
        double out_min = kInf;
        size_t k = 0;
        for (size_t e = 0; e < n_endpoints; ++e) {
          const bool inside = k < plans[plan_of[s]].endpoints.size() &&
                              plans[plan_of[s]].endpoints[k] ==
                                  static_cast<int32_t>(e);
          if (inside) {
            ++k;
            in_min = std::min(in_min, base_ep_slack[c * n_endpoints + e]);
          } else {
            out_min = std::min(out_min, base_ep_slack[c * n_endpoints + e]);
          }
        }
        r.bounds_[p] = std::min(out_min, in_min - push_out[p]);
        order.push_back(p);
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return r.bounds_[a] < r.bounds_[b];
    });
  } else {
    for (size_t p = 0; p < n_points; ++p) order.push_back(p);
  }

  // Wave size: everything at once in full mode, the endpoint chunk in
  // endpoint-only mode — but small waves under pruning, so the
  // worst-seen slack tightens between waves and the tail can early-out.
  size_t chunk = spec.endpoint_only
                     ? (spec.endpoint_chunk != 0
                            ? spec.endpoint_chunk
                            : std::max<size_t>(4 * pool->size(), 64))
                     : n_points;
  if (prune) chunk = std::min(chunk, std::max<size_t>(2 * pool->size(), 8));
  chunk = std::max<size_t>(chunk, 1);

  // Endpoint-only lane sweeps keep no per-point state: each lane-block
  // task builds a point's E endpoint rows in its worker's scratch and
  // summarizes them there, into the point's own result slots.  Every
  // other path materializes full states in wave_buf and summarizes on
  // the caller (the scalar and delta = false paths stay the oracles).
  const bool rows_only = spec.endpoint_only && spec.delta && lanes > 1;
  std::vector<TimingState> wave_buf;
  std::vector<EvalContext> wave_ctx;
  std::vector<const TimingState*> wave_base;
  std::vector<const StaEngine::DeltaPlan*> wave_plans;
  std::vector<size_t> wave_points;
  const std::function<void(uint32_t, std::span<const VertexTiming>)>
      summarize_in_worker =
          [&](uint32_t i, std::span<const VertexTiming> rows) {
            (void)summarize(wave_points[i], rows);
          };
  double gap_sum = 0.0;
  double gap_min = kInf;
  // Σ over evaluated points of forward vertices folded for them.
  uint64_t folded = 0;

  size_t next = 0;
  while (next < order.size()) {
    // Admit the next wave.  Bounds are sorted ascending and worst_seen
    // only decreases, so the first unbeatable point prunes the whole
    // tail.
    wave_points.clear();
    while (next < order.size() && wave_points.size() < chunk) {
      const size_t p = order[next];
      if (prune && r.bounds_[p] > worst_seen) break;
      wave_points.push_back(p);
      ++next;
    }
    if (wave_points.empty()) break;
    const size_t n = wave_points.size();
    wave_ctx.assign(n, EvalContext{});
    wave_base.assign(n, nullptr);
    wave_plans.assign(n, nullptr);
    for (size_t i = 0; i < n; ++i) {
      const size_t p = wave_points[i];
      wave_ctx[i] = contexts[p];
      wave_base[i] = &baselines[p / n_scenarios];
      wave_plans[i] = &plans[plan_of[p % n_scenarios]];
    }
    if (rows_only) {
      // Lane-parallel: compatible points of the wave share one SoA
      // graph walk, and each point's endpoint rows — bitwise the rows
      // the full states of the branches below hold — are summarized by
      // the task that produced them.
      folded += run_lane_blocks({{}, &summarize_in_worker}, wave_ctx,
                                wave_base, wave_plans, lanes, pool, wss);
    } else {
      if (wave_buf.size() < n) wave_buf.resize(n);
      const std::span<TimingState> states(wave_buf.data(), n);
      if (spec.delta && lanes > 1) {
        folded += run_lane_blocks({states}, wave_ctx, wave_base, wave_plans,
                                  lanes, pool, wss);
      } else if (spec.delta) {
        evaluate_points_delta(states, wave_ctx, wave_base, wave_plans, pool,
                              wss);
        for (const DeltaPlan* plan : wave_plans) {
          folded += plan->forward.size();
        }
      } else {
        evaluate_points(states, wave_ctx, pool, wss);
        folded += n * vertex_count();
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t p = wave_points[i];
      double ws;
      if (rows_only) {
        ws = r.worst_slacks_[p];
      } else if (spec.endpoint_only) {
        ws = summarize(p, wave_buf[i]);
      } else {
        ws = worst_slack_in(wave_buf[i]);
        r.states_[p] = std::move(wave_buf[i]);
        wave_buf[i] = TimingState{};
      }
      worst_seen = std::min(worst_seen, ws);
      if (prune) {
        const double gap = ws - r.bounds_[p];
        gap_sum += gap;
        gap_min = std::min(gap_min, gap);
      }
      ++r.prune_stats_.evaluated;
    }
  }
  // Everything not admitted is pruned: its bound proved it cannot beat
  // the final worst slack.
  for (; next < order.size(); ++next) {
    r.status_[order[next]] = SweepResult::PointStatus::kPruned;
    ++r.prune_stats_.pruned;
  }
  if (r.prune_stats_.evaluated > 0 && prune) {
    r.prune_stats_.mean_bound_gap =
        gap_sum / static_cast<double>(r.prune_stats_.evaluated);
    r.prune_stats_.min_bound_gap = gap_min;
  }
  if (r.prune_stats_.evaluated > 0) {
    r.prune_stats_.folded_vertex_fraction =
        static_cast<double>(folded) /
        (static_cast<double>(r.prune_stats_.evaluated) *
         static_cast<double>(std::max<size_t>(vertex_count(), 1)));
  }
  return r;
}

}  // namespace waveletic::sta
