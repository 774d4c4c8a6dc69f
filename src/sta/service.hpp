#pragma once

/// \file service.hpp
/// Incremental STA service: copy-on-write timing snapshots, netlist-
/// edit deltas, and a concurrent query surface.
///
/// StaService turns the batch engine into a long-running service.  It
/// owns an immutable, refcounted PreparedSnapshot — netlist + prepared
/// StaEngine (levels, compiled tables) + one baseline
/// TimingState per corner — and serves read-only queries against it
/// through the engine's const-reentrant evaluation path.  Readers pin
/// the current snapshot with a shared_ptr (RCU-style): queries never
/// block edits, and edits never invalidate an in-flight query, because
/// a pinned snapshot stays alive until its last reader drops it.
///
/// Writes arrive as an EditBatch (sta/edits.hpp) and follow the
/// copy-on-write discipline end to end:
///
///  - configuration edits fork the engine (StaEngine::fork() — the
///    immutable graph is SHARED, only config tables copy), apply the
///    setters, recompute only the dirty nets' loads, and re-time only
///    the dirty cone (StaEngine::delta_plan(EditSeeds) +
///    evaluate_points_delta against the previous snapshot's baselines);
///  - structural edits (retype/reroute) copy the netlist, apply it
///    under the ordinal-stability contract, rebuild the graph, carry
///    the previous configuration across (copy_config_from), and still
///    re-time only the edit's cone — vertex order is preserved by
///    construction, so the old baselines remain valid delta bases.
///
/// The next snapshot is then published by swapping one shared_ptr under
/// a short mutex; apply() calls are serialized by a writer mutex.
/// Bitwise contract: every published snapshot's baselines are bitwise
/// identical to a from-scratch StaEngine + prepare() + evaluate() on
/// the edited netlist with the same configuration, at any thread count
/// (tests/test_sta_service.cpp holds this per edit class and for mixed
/// batches).
///
/// Observability: ServiceStats counts queries, publishes, mean dirty-
/// cone fraction and edit→publish latency (printed by bench_runtime's
/// service scenario).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "sta/edits.hpp"
#include "sta/engine.hpp"
#include "sta/gamma_cache.hpp"
#include "sta/sweep.hpp"

namespace waveletic::util {
class ThreadPool;
}

namespace waveletic::sta {

/// Construction-time options of an StaService.
struct ServiceConfig {
  /// Corners every snapshot keeps a baseline TimingState for; must be
  /// non-empty (the default is the single nominal corner).
  std::vector<Corner> corners = {Corner{}};
  /// Worker threads of the writer path (baseline re-timing); ≤ 0
  /// selects the hardware concurrency, 1 runs serial.  Query
  /// concurrency is caller-side: any number of threads may query
  /// simultaneously regardless of this setting.
  int threads = 1;
  /// Share one Γeff memo cache across snapshots and queries (keys
  /// cover exact waveform/ramp bits + corner, so sharing is safe even
  /// across edits).
  bool share_gamma_cache = true;
};

/// Counters of one service's lifetime (StaService::stats()).  Means are
/// over published edit batches; latencies are wall-clock seconds from
/// apply() entry to snapshot publish.
struct ServiceStats {
  uint64_t queries_served = 0;        ///< reads answered (all kinds)
  uint64_t snapshots_published = 0;   ///< apply() publishes (initial excluded)
  uint64_t edits_applied = 0;         ///< total edits across batches
  uint64_t structural_rebuilds = 0;   ///< publishes that rebuilt the graph
  double mean_dirty_cone_fraction = 0.0;  ///< mean |forward| / vertices
  double last_dirty_cone_fraction = 0.0;  ///< fraction of the last publish
  double mean_publish_latency = 0.0;      ///< mean edit→publish latency [s]
  double last_publish_latency = 0.0;      ///< latency of the last publish [s]
};

/// Multi-line human-readable rendering of ServiceStats (bench/report
/// output).
[[nodiscard]] std::string format_service_stats(const ServiceStats& stats);

/// One immutable published state of the service: the netlist, a
/// prepared engine over it, and one evaluated baseline TimingState per
/// corner (plus precomputed worst-slack summaries).  Snapshots are
/// refcounted and never mutate after publish — readers hold them
/// through shared_ptr for as long as they like; a snapshot (and the
/// engine state any result points into) stays alive until its last
/// owner drops it.
class PreparedSnapshot {
 public:
  /// Monotonic publish version (1 = the service's initial snapshot).
  [[nodiscard]] uint64_t version() const noexcept { return version_; }
  /// The netlist this snapshot analyzed (shared, immutable).
  [[nodiscard]] const netlist::Netlist& netlist() const noexcept {
    return *netlist_;
  }
  /// The prepared engine — const access only; safe for concurrent
  /// evaluate()/timing_in() from any number of threads.
  [[nodiscard]] const StaEngine& engine() const noexcept { return *engine_; }
  /// The corner axis (ServiceConfig::corners, in order).
  [[nodiscard]] const std::vector<Corner>& corners() const noexcept {
    return corners_;
  }
  /// The evaluated baseline state of corner `corner` (throws on an
  /// out-of-range index).
  [[nodiscard]] const TimingState& baseline(size_t corner) const;
  /// Worst slack over endpoints of corner `corner` (precomputed).
  [[nodiscard]] double worst_slack(size_t corner) const;
  /// Critical endpoint summary of corner `corner` (precomputed).
  [[nodiscard]] const StaEngine::WorstEndpoint& worst_endpoint(
      size_t corner) const;

 private:
  friend class StaService;
  PreparedSnapshot() = default;

  uint64_t version_ = 0;
  std::shared_ptr<const netlist::Netlist> netlist_;
  std::unique_ptr<StaEngine> engine_;
  std::vector<Corner> corners_;
  std::vector<TimingState> baselines_;
  std::vector<double> worst_slacks_;
  std::vector<StaEngine::WorstEndpoint> worst_endpoints_;
};

/// Result of a scenario query: the evaluated TimingState plus a shared
/// owner of the snapshot it was computed on, so the result can never
/// outlive the engine state its accessors read (unlike a raw
/// SweepResult, which throws via its liveness token instead).
class ScenarioTiming {
 public:
  /// Timing of a pin/port under the scenario.
  [[nodiscard]] const PinTiming& timing(const std::string& pin,
                                        RiseFall rf) const;
  /// Worst slack over endpoints under the scenario.
  [[nodiscard]] double worst_slack() const;
  /// Critical endpoint summary under the scenario.
  [[nodiscard]] StaEngine::WorstEndpoint worst_endpoint() const;
  /// Critical path under the scenario, source first.
  [[nodiscard]] std::vector<PathStep> critical_path() const;
  /// The snapshot the query pinned (co-owned by this result).
  [[nodiscard]] const std::shared_ptr<const PreparedSnapshot>& snapshot()
      const noexcept {
    return snapshot_;
  }
  /// Corner ordinal the query evaluated against.
  [[nodiscard]] size_t corner() const noexcept { return corner_; }

 private:
  friend class StaService;
  std::shared_ptr<const PreparedSnapshot> snapshot_;
  size_t corner_ = 0;
  TimingState state_;
};

/// Publish summary returned by StaService::apply().
struct PublishReport {
  uint64_t version = 0;        ///< version of the published snapshot
  bool structural = false;     ///< took the graph-rebuild path
  size_t edits = 0;            ///< edits in the batch
  size_t dirty_vertices = 0;   ///< |forward| of the delta plan
  double dirty_cone_fraction = 0.0;  ///< dirty_vertices / vertex_count
  double publish_latency = 0.0;      ///< apply() → publish wall time [s]
};

/// The incremental STA service (see the file comment for the model).
/// Thread-safety: every query member and snapshot() are safe to call
/// from any number of threads concurrently with each other AND with
/// apply(); apply() itself is internally serialized.  The library must
/// outlive the service and all snapshots obtained from it.
class StaService {
 public:
  /// Builds the initial snapshot (version 1) from a copy of `netlist`
  /// analyzed against `library`.  The netlist starts unconstrained —
  /// constraints arrive as EditBatch configuration edits.
  StaService(netlist::Netlist netlist, const liberty::Library& library,
             ServiceConfig config = {});
  /// Out of line (ThreadPool is forward-declared).  Pinned snapshots
  /// and ScenarioTiming results remain valid after destruction — they
  /// co-own everything they read.
  ~StaService();

  StaService(const StaService&) = delete;
  StaService& operator=(const StaService&) = delete;

  /// Pins the current snapshot.  O(1); never blocks on a writer beyond
  /// the one shared_ptr swap.
  [[nodiscard]] std::shared_ptr<const PreparedSnapshot> snapshot() const;

  /// Validates `batch` against the current snapshot, applies it
  /// copy-on-write, re-times the dirty cone, and publishes the next
  /// snapshot.  Throws util::Error (naming the edit index and handle)
  /// without publishing anything when validation fails.  An empty
  /// batch publishes nothing and returns the current version.
  PublishReport apply(const EditBatch& batch);

  /// Worst slack over endpoints at corner `corner` of the current
  /// snapshot.
  [[nodiscard]] double worst_slack(size_t corner = 0) const;
  /// Critical endpoint summary at corner `corner`.
  [[nodiscard]] StaEngine::WorstEndpoint worst_endpoint(
      size_t corner = 0) const;
  /// Baseline timing of a pin/port at corner `corner` (by value: the
  /// snapshot is released when the call returns).
  [[nodiscard]] PinTiming timing(const std::string& pin, RiseFall rf,
                                 size_t corner = 0) const;
  /// Critical path at corner `corner`, source first.
  [[nodiscard]] std::vector<PathStep> critical_path(size_t corner = 0) const;
  /// Evaluates a noise scenario as a dirty-cone delta against the
  /// pinned snapshot's corner baseline; the result co-owns the
  /// snapshot.  Safe from any number of threads concurrently.
  [[nodiscard]] ScenarioTiming query(const NoiseScenario& scenario,
                                     size_t corner = 0) const;

  /// A consistent copy of the lifetime counters.
  [[nodiscard]] ServiceStats stats() const;

 private:
  /// Evaluates per-corner baselines + summaries into `snap`; delta
  /// against `previous` when given (plan = the edit cone), full
  /// evaluation otherwise.
  void evaluate_snapshot(PreparedSnapshot& snap,
                         const PreparedSnapshot* previous,
                         const StaEngine::DeltaPlan* plan);
  void count_query() const noexcept { ++queries_served_; }

  const liberty::Library* library_;
  ServiceConfig config_;
  std::shared_ptr<GammaCache> cache_;  ///< shared Γeff memo (optional)

  /// Writer-path resources, used only under writer_mutex_.
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<wave::Workspace> workspaces_;
  std::mutex writer_mutex_;

  /// The published head; head_mutex_ guards only the shared_ptr swap.
  mutable std::mutex head_mutex_;
  std::shared_ptr<const PreparedSnapshot> head_;

  /// Stats: query counter is atomic (hot, reader-side); the publish
  /// aggregates are writer-side under stats_mutex_.
  mutable std::atomic<uint64_t> queries_served_{0};
  mutable std::mutex stats_mutex_;
  uint64_t snapshots_published_ = 0;
  uint64_t edits_applied_ = 0;
  uint64_t structural_rebuilds_ = 0;
  double dirty_fraction_sum_ = 0.0;
  double last_dirty_fraction_ = 0.0;
  double publish_latency_sum_ = 0.0;
  double last_publish_latency_ = 0.0;
};

}  // namespace waveletic::sta
