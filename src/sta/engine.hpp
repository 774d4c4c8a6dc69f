#pragma once

/// \file engine.hpp
/// Mini static-timing-analysis engine.
///
/// Vertices are pins ("u1/A", "u1/Y") and top-level ports ("a");
/// edges are cell timing arcs (NLDM delay/slew lookup, rise/fall aware,
/// unateness respected) and net arcs (driver → sinks, optional lumped
/// parasitic delay).  Forward propagation computes worst arrival and
/// slew per (vertex, transition); backward propagation computes
/// required times and slack; the critical path is recovered from
/// predecessor links.
///
/// Crosstalk integration (the paper's use case): a net may be annotated
/// with a *noisy waveform*.  At each gate input on that net the engine
/// replaces the propagated ramp with Γeff computed by a pluggable
/// equivalent-waveform technique (default SGDP), exactly the flow the
/// paper proposes for commercial STA.  The noiseless input ramp is the
/// propagated (arrival, slew); the noiseless output is synthesized from
/// the receiving gate's NLDM response, so no extra library
/// characterization is needed — the paper's compatibility claim.
///
/// Propagation is *levelized*: topological levels are computed once at
/// construction and stored on the graph.  Every vertex depends only on
/// strictly lower levels and folds its incoming edges in a fixed order,
/// so a full evaluation is one serial walk over the levels.  The timing
/// state lives in a separate TimingState object, so a prepared engine
/// can evaluate many (noise scenario × corner) points concurrently —
/// one task per point — through the const, reentrant evaluate() path
/// (see sweep.hpp); results are bitwise identical at any thread count.
///
/// Handle-based API: names are resolved ONCE to PinId / NetId / PortId
/// handles (pin(), net(), port()), and the primary overloads of every
/// constraint setter and result accessor take handles — they index
/// dense arrays, no string hashing anywhere on a resolved path.  The
/// string overloads are thin resolve-then-forward wrappers.  Noise
/// annotations live in a dense NetId-indexed table that prepare-time
/// compilation (compile_edge_annotations()) turns into a per-net-edge
/// pointer array, so propagate_net_edge() performs ZERO map lookups.

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/method.hpp"
#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "sta/ids.hpp"
#include "util/error.hpp"
#include "util/ordinal_index.hpp"
#include "wave/kernels.hpp"
#include "wave/waveform.hpp"

namespace waveletic::util {
class ThreadPool;
}

namespace waveletic::sta {

class GammaCache;
struct NoiseScenario;        // sweep.hpp
struct SweepSpec;            // sweep.hpp
class SweepResult;           // sweep.hpp
struct GeneratedSweepSpec;   // scengen.hpp
class GeneratedSweepResult;  // scengen.hpp

enum class RiseFall { kRise = 0, kFall = 1 };

[[nodiscard]] constexpr RiseFall flip(RiseFall rf) noexcept {
  return rf == RiseFall::kRise ? RiseFall::kFall : RiseFall::kRise;
}
[[nodiscard]] const char* to_string(RiseFall rf) noexcept;

/// Timing state of one (vertex, transition).
struct PinTiming {
  double arrival = -std::numeric_limits<double>::infinity();
  double slew = 0.0;
  double required = std::numeric_limits<double>::infinity();
  bool valid = false;  ///< reachable from a constrained input

  [[nodiscard]] double slack() const noexcept { return required - arrival; }
};

struct PathStep {
  std::string pin;
  RiseFall rf = RiseFall::kRise;
  double arrival = 0.0;
};

/// A noisy-waveform annotation on a net; `key` is a content hash used
/// to memoize Γeff fits (annotations with equal keys must be equal).
struct NoiseAnnotation {
  wave::Waveform waveform;
  wave::Polarity polarity = wave::Polarity::kFalling;
  uint64_t key = 0;
};

/// Per-vertex derived timing (both transitions + critical-path links).
struct VertexTiming {
  PinTiming timing[2];  // indexed by RiseFall
  int critical_pred[2] = {-1, -1};
  RiseFall critical_pred_rf[2] = {RiseFall::kRise, RiseFall::kRise};
};

/// The complete timing state of one analysis (one sweep point).
/// Separate from the engine so N points can be evaluated over the
/// same prepared graph concurrently, each with its own state.
class TimingState {
 public:
  TimingState() = default;
  explicit TimingState(size_t vertices) : v_(vertices) {}

  [[nodiscard]] size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] VertexTiming& operator[](size_t i) noexcept { return v_[i]; }
  [[nodiscard]] const VertexTiming& operator[](size_t i) const noexcept {
    return v_[i];
  }
  void reset(size_t vertices) { v_.assign(vertices, VertexTiming{}); }
  /// Allocates room for `vertices` without changing the contents, so a
  /// later reset() or copy into this state does not touch the heap.
  void reserve(size_t vertices) { v_.reserve(vertices); }

 private:
  std::vector<VertexTiming> v_;
};

class StaEngine {
 public:
  /// Both netlist and library must outlive the engine, and the netlist
  /// must not be modified afterwards (handles index its net/port order).
  StaEngine(const netlist::Netlist& nl, const liberty::Library& lib);
  ~StaEngine();

  // -- handle resolution ---------------------------------------------------
  // Resolve once, then run dense.  All three throw util::Error for
  // unknown names, naming the offending string and the nearest known
  // names.  A handle is only valid on the engine that minted it;
  // passing a stale/foreign/default handle to any accessor throws.

  /// Handle to a pin ("u1/A") or port ("y") vertex.
  [[nodiscard]] PinId pin(const std::string& name) const;
  /// Non-throwing pin lookup: the handle, or an invalid PinId
  /// (!valid()) when the name is unknown.  For probing callers (e.g.
  /// the scenario-space builder walking nets whose pins may not all be
  /// timing vertices); prefer pin() where absence is a bug.
  [[nodiscard]] PinId find_pin(const std::string& name) const noexcept;
  /// Handle to a net.
  [[nodiscard]] NetId net(const std::string& name) const;
  /// Handle to a top-level port.
  [[nodiscard]] PortId port(const std::string& name) const;

  [[nodiscard]] const std::string& name(PinId pin) const;
  [[nodiscard]] const std::string& name(NetId net) const;
  [[nodiscard]] const std::string& name(PortId port) const;

  /// The liberty library the engine analyzes against (the constructor
  /// argument; outlives the engine by contract).
  [[nodiscard]] const liberty::Library& library() const noexcept {
    return *library_;
  }

  // -- constraints -------------------------------------------------------
  /// Arrival + slew applied to both transitions of an input port.
  void set_input(PortId port, double arrival, double slew);
  void set_input(PortId port, RiseFall rf, double arrival, double slew);
  void set_input(const std::string& port, double arrival, double slew);
  void set_input(const std::string& port, RiseFall rf, double arrival,
                 double slew);
  /// Extra load on an output port [F].
  void set_output_load(PortId port, double cap);
  void set_output_load(const std::string& port, double cap);
  /// Required (latest allowed) arrival at an output port.
  void set_required(PortId port, double time);
  void set_required(const std::string& port, double time);
  /// Lumped net parasitics: extra capacitive load on the driver and a
  /// wire delay added to every sink arrival (e.g. the Elmore delay from
  /// interconnect::RcTree).
  void set_net_parasitics(NetId net, double cap, double delay);
  void set_net_parasitics(const std::string& net, double cap, double delay);

  /// Engine-level corner (derate) applied by run(); sweep() points
  /// override it.  Default: nominal (no derate).
  void set_corner(Corner corner);
  void clear_corner();
  [[nodiscard]] const Corner* corner() const noexcept {
    return corner_ ? &*corner_ : nullptr;
  }

  // -- crosstalk hooks ----------------------------------------------------
  /// Technique used at noisy nets (defaults to SGDP).
  void set_noise_method(std::unique_ptr<core::EquivalentWaveformMethod> m);
  [[nodiscard]] const core::EquivalentWaveformMethod& noise_method()
      const noexcept {
    return *noise_method_;
  }
  /// Annotates a net with the noisy waveform observed at its sinks for
  /// the transition of the given polarity.  Stored in a dense
  /// NetId-indexed table (one slot per net).
  void annotate_noisy_net(NetId net, wave::Waveform waveform,
                          wave::Polarity polarity);
  void annotate_noisy_net(const std::string& net, wave::Waveform waveform,
                          wave::Polarity polarity);
  /// Removes the annotation on one net (no-op when the net is clean) —
  /// the ECO-service counterpart of annotate_noisy_net().
  void clear_noisy_net(NetId net);
  void clear_noisy_net(const std::string& net);
  /// Removes all noisy-net annotations (scenario loops re-annotate).
  void clear_noisy_nets();
  /// The annotation on `net`, or null when the net is clean.
  [[nodiscard]] const NoiseAnnotation* noisy_net(NetId net) const;
  [[nodiscard]] const NoiseAnnotation* noisy_net(const std::string& net) const;
  [[nodiscard]] size_t noisy_net_count() const noexcept {
    return noisy_net_count_;
  }

  // -- analysis ------------------------------------------------------------
  /// Records a thread count and copies it to forks.  It changes no
  /// schedule: run() evaluates its single point serially (a serial
  /// level walk beats every threaded schedule of one point), and
  /// sweeps take their thread count from SweepSpec::threads.
  void set_threads(int threads);

  /// Runs forward (arrival) and backward (required) propagation under
  /// the engine-level annotations and corner.
  void run();

  /// Sweeps the cross product of spec.corners × spec.scenarios over
  /// this engine (defined in sweep.cpp; include sweep.hpp for
  /// SweepSpec/SweepResult).
  [[nodiscard]] SweepResult sweep(const SweepSpec& spec);

  /// Streams a lazily generated scenario space (feasibility-filtered
  /// cross product of coupling pairs × alignments × strengths) through
  /// the sweep pipeline in bounded chunks — endpoint-only storage, one
  /// chunk of scenarios resident at a time (defined in scengen.cpp;
  /// include scengen.hpp for GeneratedSweepSpec/GeneratedSweepResult).
  [[nodiscard]] GeneratedSweepResult sweep(const GeneratedSweepSpec& spec);

  /// Timing of a pin/port.  Handle overload is the primary; the string
  /// overload resolves and forwards.  Throws for unknown names or
  /// foreign handles, or when run() has not been called.
  [[nodiscard]] const PinTiming& timing(PinId pin, RiseFall rf) const;
  [[nodiscard]] const PinTiming& timing(const std::string& pin,
                                        RiseFall rf) const;
  /// Worst slack over output ports (the analysis must have run).
  [[nodiscard]] double worst_slack() const;
  /// Critical path: backtracked predecessor chain of the worst-slack
  /// endpoint, source first.
  [[nodiscard]] std::vector<PathStep> worst_path() const;
  /// Multi-line human-readable summary.
  [[nodiscard]] std::string report() const;

  /// Number of graph vertices (pins + ports); for tests.
  [[nodiscard]] size_t vertex_count() const noexcept {
    return vertex_names_.size();
  }
  /// Name of vertex `v` (diagnostics; 0 ≤ v < vertex_count()).
  [[nodiscard]] const std::string& vertex_name(size_t v) const {
    return vertex_names_.at(v);
  }
  /// Number of net arcs in the prepared graph (the length of a compiled
  /// per-edge annotation table).
  [[nodiscard]] size_t net_edge_count() const noexcept {
    return net_edges_.size();
  }

  // -- reentrant point-evaluation path -------------------------------------
  // A prepared engine is immutable during evaluation, so many sweep
  // points can be evaluated concurrently over the same graph, each with
  // its own TimingState.  run() is implemented on top of this path;
  // sweep() drives it for corners × scenarios.

  /// Inputs of one evaluation.  `edge_noise` is a compiled per-net-edge
  /// annotation pointer array (compile_edge_annotations(); null = no
  /// noise anywhere) — propagation indexes it, it never searches;
  /// `corner` is the derate point (null = nominal) and `corner_key` its
  /// Corner::key() (0 when null), folded into Γeff memo keys; `method`
  /// is the Γeff technique (must be reentrant — all built-in techniques
  /// are); `cache` optionally memoizes Γeff fits across points/threads;
  /// `workspace` is the scratch arena of the worker running this
  /// evaluation — Γeff fits draw their sampling buffers from it, so a
  /// warmed workspace makes the propagation hot path allocation-free.
  /// MUST be owned by exactly one worker (run()/sweep() keep one per
  /// ThreadPool worker and patch it per task); null makes each fit use
  /// a local arena.  Results are bitwise identical either way.
  struct EvalContext {
    const NoiseAnnotation* const* edge_noise = nullptr;
    const Corner* corner = nullptr;
    uint64_t corner_key = 0;
    const core::EquivalentWaveformMethod* method = nullptr;
    GammaCache* cache = nullptr;
    wave::Workspace* workspace = nullptr;
  };

  /// Compiles the effective annotation of every net edge into a dense
  /// pointer array of net_edge_count() entries: the engine-level table,
  /// overlaid by `overlay`'s entries when given (the scenario wins on
  /// nets both annotate).  The returned pointers alias the engine's
  /// table and the overlay scenario — both must outlive the evaluation.
  [[nodiscard]] std::vector<const NoiseAnnotation*> compile_edge_annotations(
      const NoiseScenario* overlay = nullptr) const;

  /// Recomputes edge loads from the current constraints and makes the
  /// engine ready for const evaluation.  run() and sweep() call this.
  void prepare();

  /// Topological levels, computed once at construction: levels()[0] are
  /// sources; every vertex depends only on strictly lower levels.
  [[nodiscard]] const std::vector<std::vector<int>>& levels() const noexcept {
    return levels_;
  }
  /// Topological level of each vertex (levels() flattened per vertex).
  [[nodiscard]] const std::vector<int>& vertex_levels() const noexcept {
    return vertex_level_;
  }

  /// Resets `state` and applies the input/required constraints.
  void init_state(TimingState& state) const;
  /// Folds all incoming edges of vertex `v` (fixed order → deterministic).
  /// Requires every lower-level vertex of `state` to be final.
  void forward_vertex(int v, TimingState& state, const EvalContext& ctx) const;
  /// Propagates required times backwards through the outgoing edges of
  /// `v`.  Requires every higher-level vertex of `state` to be final.
  void backward_vertex(int v, TimingState& state) const;
  /// The one full evaluation: init_state(), then a serial forward
  /// walk over levels() and a backward walk in reverse, under `ctx`
  /// (its workspace included).  prepare() must have run.
  void evaluate(TimingState& state, const EvalContext& ctx) const;

  /// Evaluates many points over the same prepared graph: contexts[p]
  /// describes point p and states[p] receives its evaluate() result.
  /// Points are independent, so each is one task on the pool
  /// (ThreadPool::run_graph) — the scheduler evaluate_points_delta()
  /// uses too.  When `worker_workspaces` is non-empty (it must then
  /// hold at least pool->size() arenas, or 1 without a pool), every
  /// task runs with ctx.workspace pointed at its worker's arena.  The
  /// states' storage is allocated on the calling thread before any task
  /// runs, so peak memory does not depend on which worker ran which
  /// point.
  /// Bitwise identical to a loop of serial evaluate() calls.
  void evaluate_points(
      std::span<TimingState> states, std::span<const EvalContext> contexts,
      util::ThreadPool* pool = nullptr,
      std::span<wave::Workspace> worker_workspaces = {}) const;

  // -- baseline + delta propagation ----------------------------------------
  // The paper's central observation: a noise bump perturbs timing only
  // through the fanout cone of the victim net.  A sweep therefore
  // computes ONE nominal TimingState per corner and derives each
  // scenario point from it, re-propagating only the scenario's dirty
  // cone — bitwise identical to full propagation, because every dirty
  // vertex still folds its fixed-order in-edges exactly once and every
  // clean vertex keeps a value that full propagation would reproduce.

  /// The per-scenario dirty sets of baseline + delta propagation,
  /// computed once on the graph layer and shared by every corner of the
  /// scenario (the cone is a pure function of the annotated nets).
  struct DeltaPlan {
    /// Dirty vertices — the transitive fanout cone of the scenario's
    /// annotated nets (sink vertices of their net edges, closed over
    /// out-edges) — sorted by (topological level, vertex): a valid
    /// serial forward-propagation order.  evaluate_delta() folds all
    /// of it; for the lane walker it is the structural bound, not the
    /// work (see evaluate_delta_block).
    std::vector<int> forward;
    /// Required-time recompute set: the transitive fanin closure of
    /// `forward` (which it includes), sorted by (descending level,
    /// vertex): a valid serial backward-propagation order.  Arrivals
    /// change only inside the cone, but required times bleed upstream
    /// of it.
    std::vector<int> backward;
    /// Endpoint ordinals (indices into endpoint_ports()) whose vertex
    /// is dirty: the only endpoints whose timing can differ from the
    /// corner baseline.  Empty means every endpoint summary of the
    /// scenario equals the baseline exactly.
    std::vector<int32_t> endpoints;
    /// `forward` in ascending vertex-id order.  Result materialization
    /// iterates this instead of the level order: writes into the output
    /// TimingState then stream in address order, which measurably beats
    /// level-order scatter on lane-block sweeps.  Same members, only
    /// the iteration order differs — folding still uses `forward`.
    std::vector<int> forward_ids;
    /// `backward` in ascending vertex-id order (see `forward_ids`).
    std::vector<int> backward_ids;
    /// Graph size the plan was computed for (validation).
    size_t num_vertices = 0;
  };
  /// Computes the dirty-cone plan of `scenario`.  Throws util::Error
  /// when the scenario annotates an unknown net (naming scenario and
  /// net).  A scenario with no entries yields an empty plan: its point
  /// IS the baseline.
  [[nodiscard]] DeltaPlan delta_plan(const NoiseScenario& scenario) const;

  /// Generalized dirty-seed description of a constraint/netlist edit
  /// batch — the edit-class → dirty-cone mapping of the incremental
  /// service (see docs/SERVICE_GUIDE.md).  All ordinals index this
  /// engine's net/port orders; delta_plan(EditSeeds) validates them.
  struct EditSeeds {
    /// Nets whose capacitive load changed (output-load retarget,
    /// parasitic cap edit, sink pin-cap change): dirties every cell
    /// arc driving the net plus every noisy-sink synthesis reading it.
    std::vector<int32_t> load_nets;
    /// Nets whose wire delay changed (parasitic delay edit): dirties
    /// the net's sink vertices.
    std::vector<int32_t> delay_nets;
    /// Nets whose noise annotation changed (annotate or clear):
    /// dirties the net's sink vertices — the scenario-delta rule.
    std::vector<int32_t> noise_nets;
    /// Input-port ordinals whose arrival/slew constraint changed:
    /// dirties the port vertex (and thus its fanout cone).
    std::vector<int32_t> arrival_ports;
    /// Output-port ordinals whose required time changed: joins the
    /// backward (required-recompute) closure and the endpoint list
    /// without dirtying any arrival.
    std::vector<int32_t> required_ports;
    /// Extra forward-dirty vertices (structural edits: every pin of a
    /// retyped instance, a rerouted sink).
    std::vector<int> vertices;
  };
  /// Computes the dirty-cone plan of an edit batch: forward = fanout
  /// closure of every arrival-affecting seed; backward = fanin closure
  /// of the forward set ∪ the required-edit port vertices.  Bitwise
  /// contract: evaluate_delta() of the plan against a pre-edit
  /// baseline equals a from-scratch evaluate() under the post-edit
  /// configuration.  Throws util::Error on out-of-range ordinals or
  /// direction-mismatched ports.
  [[nodiscard]] DeltaPlan delta_plan(const EditSeeds& seeds) const;

  // -- copy-on-write forking (the incremental-service substrate) -----------
  /// A configuration-level copy sharing this engine's immutable graph:
  /// O(config tables) instead of O(V + E), with handles minted by
  /// either engine interchangeable (same graph tag).  The fork copies
  /// constraints, parasitics, annotations, loads, corner and thread
  /// count, clones the noise method, and starts unanalyzed with its
  /// own empty state/workspaces.
  [[nodiscard]] std::unique_ptr<StaEngine> fork() const;
  /// Copies `other`'s configuration (constraints, loads, parasitics,
  /// annotations, corner, method, threads) onto this engine across a
  /// REBUILD — `other` may be prepared on a different Graph as long as
  /// `other`'s net order is a prefix of this engine's (edits may only
  /// append nets — the service's ordinal-stability contract) and the
  /// port orders are identical.  Appended nets get default parasitics
  /// and no annotation; vertex-keyed constraints are remapped through
  /// port ordinals.  Throws when the net/port axes differ.
  void copy_config_from(const StaEngine& other);
  /// Recomputes net_loads_ for just `nets` (ordinals), folding each
  /// net's sink pin caps + parasitic cap + port load in the exact
  /// order compute_loads() uses — bitwise identical to a full
  /// prepare() for every net in the list.  prepare() must have run
  /// (on this engine or the engine it was forked from).
  void recompute_net_loads(std::span<const int32_t> nets);
  /// Liveness token released at destruction; SweepResult/TimingView
  /// watch it through weak_ptr and throw instead of dangling.
  [[nodiscard]] std::shared_ptr<const void> liveness() const noexcept {
    return liveness_;
  }

  /// Derives one scenario point from a corner baseline: copies
  /// `baseline` into `state`, resets the plan's dirty vertices to their
  /// initial constraints, folds them in level order under `ctx` (whose
  /// edge_noise table must be the scenario overlay the plan was
  /// computed for), then resets and re-folds required times over the
  /// plan's backward set.  Bitwise identical to evaluate() with the
  /// same context: clean vertices keep baseline values, which full
  /// propagation would reproduce, and dirty vertices fold the same
  /// fixed-order in-edges against them.
  void evaluate_delta(TimingState& state, const TimingState& baseline,
                      const DeltaPlan& plan, const EvalContext& ctx) const;

  /// Evaluates many scenario points as deltas against per-point corner
  /// baselines: point p copies *baselines[p] and re-propagates
  /// *plans[p] under contexts[p].  Scheduled like evaluate_points() —
  /// one task per point, and the shared ready stack load-balances the
  /// unbalanced dirty worklists.  Results are bitwise identical to
  /// evaluate_points() with the same contexts at any thread count.
  void evaluate_points_delta(
      std::span<TimingState> states, std::span<const EvalContext> contexts,
      std::span<const TimingState* const> baselines,
      std::span<const DeltaPlan* const> plans, util::ThreadPool* pool = nullptr,
      std::span<wave::Workspace> worker_workspaces = {}) const;

  // -- SIMD lane-parallel delta propagation --------------------------------
  // A sweep funnels many near-identical scenarios through the same
  // cone; the lane layer walks the levelized cone ONCE per group of up
  // to wave::Lane<W>::width compatible points, carrying each point's
  // arrival/slew/required in adjacent SIMD lanes of a
  // structure-of-arrays state.  Every lane keeps its own scalar fold
  // order (vertical SIMD only — no cross-lane reduction, no FMA), so
  // lane results are bitwise identical to the scalar path per point.

  /// One lane-group of an evaluate_points_delta_lanes() call: up to
  /// `width` compatible points (same baseline, same corner, plan
  /// content equal or merged into a cone-superset union plan) walked
  /// together through one SoA lane state.
  struct LaneBlock {
    /// Indices into the call's point spans, grouped in first-seen
    /// order; size 1..width.
    std::vector<uint32_t> points;
    /// The plan every lane of the block is propagated over: the
    /// points' shared plan, or the (level, vertex)-merged union of
    /// their plans.  Union propagation is exact: re-folding a vertex
    /// outside a lane's own cone reproduces its baseline value bitwise
    /// (same inputs, same fixed fold order).
    const DeltaPlan* plan = nullptr;
    /// Owns `plan` when it is a merged union (null when `plan` aliases
    /// a caller plan).
    std::shared_ptr<const DeltaPlan> owned_plan;
  };

  /// Groups compatible points into lane blocks of at most `width`
  /// lanes: points qualify for the same block when they share a
  /// baseline pointer and corner/method/cache identity, and their
  /// plans have equal content (edge-noise tables may differ — noisy
  /// edges are handled per lane).  Sub-width leftovers sharing a
  /// (baseline, corner) are merged under a union plan; blocks of one
  /// point fall back to scalar evaluate_delta() in the runner.
  /// Deterministic: block membership is a pure function of the inputs
  /// in first-seen order (and results never depend on grouping).
  [[nodiscard]] std::vector<LaneBlock> group_lane_blocks(
      std::span<const EvalContext> contexts,
      std::span<const TimingState* const> baselines,
      std::span<const DeltaPlan* const> plans, int width) const;

  /// Lane-parallel evaluate_points_delta(): same inputs, same results,
  /// bit for bit, for points that differ from their baseline only
  /// through their contexts' net annotations — a scenario table
  /// (compile_edge_annotations() of a scenario) over a baseline
  /// evaluated under the engine-level table, the same corner and the
  /// same configuration, as sweeps build them.  The walker folds only
  /// cone vertices with a changed fan-in or an annotated net in-edge,
  /// so configuration edits (the service's edit seeds) must take
  /// evaluate_points_delta() instead.  `lanes` must be 1 or 4; 1 runs
  /// the W=1 oracle instantiation of the block walker (available on
  /// every build), 4 requires AVX2 (wave::lane_width_available(4)) and
  /// throws util::Error otherwise.  Blocks run as independent pool tasks on
  /// the shared point scheduler, into states allocated on the calling
  /// thread as in evaluate_points(); the W=1 instantiation of the block
  /// walker is the oracle the W=4 path must match bitwise (asserted by
  /// tests/test_lanes.cpp and the bench `bitwise_identical` flag).
  void evaluate_points_delta_lanes(
      std::span<TimingState> states, std::span<const EvalContext> contexts,
      std::span<const TimingState* const> baselines,
      std::span<const DeltaPlan* const> plans, int lanes,
      util::ThreadPool* pool = nullptr,
      std::span<wave::Workspace> worker_workspaces = {}) const;
  /// Endpoint-rows mode of the lane runner: writes only each point's
  /// endpoint rows, endpoint_rows[p * E + e] for E = endpoint_ports()
  /// .size() — bitwise the VertexTiming that the states overload leaves
  /// at endpoint e's vertex.  No per-point TimingState exists: the
  /// walker builds a point's rows in its worker's scratch, from its
  /// lanes where the endpoint changed and from the point's baseline
  /// otherwise (a width-4 singleton block evaluates into one scratch
  /// state per worker and copies its E rows out), and this overload
  /// copies them into `endpoint_rows`.  Endpoint-only sweeps take the
  /// same rows from the same scratch and summarize them in place.
  void evaluate_points_delta_lanes(
      std::span<VertexTiming> endpoint_rows,
      std::span<const EvalContext> contexts,
      std::span<const TimingState* const> baselines,
      std::span<const DeltaPlan* const> plans, int lanes,
      util::ThreadPool* pool = nullptr,
      std::span<wave::Workspace> worker_workspaces = {}) const;

  /// Result accessors against an external state (sweep/batch results).
  [[nodiscard]] const PinTiming& timing_in(const TimingState& state,
                                           PinId pin, RiseFall rf) const;
  [[nodiscard]] const PinTiming& timing_in(const TimingState& state,
                                           const std::string& pin,
                                           RiseFall rf) const;
  [[nodiscard]] double worst_slack_in(const TimingState& state) const;
  [[nodiscard]] std::vector<PathStep> worst_path_in(
      const TimingState& state) const;

  // -- endpoints -----------------------------------------------------------
  /// Output-port ordinals in port order: the endpoint axis that
  /// endpoint-only sweep results summarize over.
  [[nodiscard]] const std::vector<int32_t>& endpoint_ports() const noexcept {
    return endpoint_ports_;
  }

  /// The critical endpoint of a state: worst slack over constrained
  /// output-port transitions, or (when nothing is constrained) the
  /// latest arrival.  `endpoint` indexes endpoint_ports(); -1 when no
  /// endpoint transition is valid.  Deterministic: ties keep the first
  /// endpoint in port order.  worst_path_in() backtracks from exactly
  /// this endpoint.
  struct WorstEndpoint {
    int32_t endpoint = -1;
    RiseFall rf = RiseFall::kRise;
    bool constrained = false;
    double slack = std::numeric_limits<double>::infinity();
    double arrival = -std::numeric_limits<double>::infinity();
  };
  [[nodiscard]] WorstEndpoint worst_endpoint_in(
      const TimingState& state) const;

 private:
  /// {worst slack, critical endpoint} of one point — what
  /// worst_slack_in() and worst_endpoint_in() return.
  struct EndpointSummary {
    /// Worst slack over constrained endpoint transitions (+inf: none).
    double worst_slack = std::numeric_limits<double>::infinity();
    WorstEndpoint critical;
  };
  /// The one endpoint-summary routine: folds row_of(e), the VertexTiming
  /// of endpoint e, over every endpoint in port order, and writes
  /// arrivals[e * 2 + rf] when `arrivals` is non-empty.  Full states,
  /// reused baselines and lane-walk endpoint rows all summarize through
  /// it (the two summarize_endpoints() overloads), so their summaries
  /// agree by construction.
  template <typename RowOf>
  [[nodiscard]] static EndpointSummary summarize_rows(
      size_t n_endpoints, const RowOf& row_of, std::span<double> arrivals);
  /// Summary of a full state's endpoint rows.
  [[nodiscard]] EndpointSummary summarize_endpoints(
      const TimingState& state, std::span<double> arrivals = {}) const;
  /// Summary of endpoint rows as the rows overload of
  /// evaluate_points_delta_lanes() writes them (one point's E rows).
  [[nodiscard]] EndpointSummary summarize_endpoints(
      std::span<const VertexTiming> rows,
      std::span<double> arrivals = {}) const;
  /// Vertex of endpoint `e` (an index into endpoint_ports()).
  [[nodiscard]] int endpoint_vertex(size_t e) const noexcept {
    return ports_[static_cast<size_t>(endpoint_ports_[e])].vertex;
  }

  // Edges carry structure only; per-net loads and wire delays live in
  // the engine's mutable tables (net_loads_, net_parasitics_) so forks
  // can share one immutable Graph while editing loads independently.
  struct CellArcEdge {
    int from = -1;  // instance input pin vertex
    int to = -1;    // instance output pin vertex
    const liberty::TimingArc* arc = nullptr;
    int32_t out_net = -1;  // net the arc's output pin drives (ordinal)
  };

  struct NetEdge {
    int from = -1;
    int to = -1;
    int32_t net = -1;  // net ordinal (NetId::index)
    const liberty::Pin* sink_pin = nullptr;   // liberty pin at the sink
    const liberty::Cell* sink_cell = nullptr;
    int32_t sink_out_net = -1;  // net the sink gate's output drives
  };

  /// One rise/fall input constraint of an input port.
  struct InputConstraint {
    double arrival = 0.0;
    double slew = 0.0;
    bool set = false;
  };

  /// A top-level port, with its vertex resolved once at construction.
  struct PortRec {
    std::string name;
    int vertex = -1;
    netlist::PortDirection direction = netlist::PortDirection::kInput;
  };

  /// A table of rows in compressed (CSR) form: row r holds
  /// entries[offsets[r] .. offsets[r + 1]).  One allocation per table
  /// instead of one per vertex or net.
  template <typename T>
  struct Rows {
    std::vector<uint32_t> offsets{0};
    std::vector<T> entries;
    [[nodiscard]] std::span<const T> operator[](size_t r) const noexcept {
      return {entries.data() + offsets[r], entries.data() + offsets[r + 1]};
    }
    /// Builds the table from `emit(put)`, which must call put(row,
    /// value) for every entry, the same way both times it is called;
    /// each row keeps its entries in emit order.
    template <typename Emit>
    [[nodiscard]] static Rows build(size_t n_rows, const Emit& emit) {
      Rows rows;
      rows.offsets.assign(n_rows + 1, 0);
      emit([&rows](auto row, const T&) {
        ++rows.offsets[static_cast<size_t>(row) + 1];
      });
      for (size_t r = 0; r < n_rows; ++r) {
        rows.offsets[r + 1] += rows.offsets[r];
      }
      rows.entries.resize(rows.offsets[n_rows]);
      std::vector<uint32_t> fill(rows.offsets.begin(), rows.offsets.end() - 1);
      emit([&rows, &fill](auto row, const T& value) {
        rows.entries[fill[static_cast<size_t>(row)]++] = value;
      });
      return rows;
    }
  };
  /// (is cell edge, edge index) — an adjacency entry.
  using EdgeRef = std::pair<bool, uint32_t>;

  /// The immutable structure layer: everything derived purely from
  /// (netlist, library) topology.  Built once by make_graph() and held
  /// through shared_ptr<const Graph>; engine forks share ONE Graph, so
  /// a copy-on-write snapshot costs O(config tables), not O(V + E).
  /// Handles minted by any fork are interchangeable — they all carry
  /// the same tag and index the same vertex/net/port orders.
  struct Graph {
    uint32_t tag = 0;  ///< handle tag shared by every fork
    std::vector<std::string> vertex_names;
    util::OrdinalIndex vertex_index;  ///< vertex name → vertex id
    std::vector<PortRec> ports;
    std::vector<CellArcEdge> cell_edges;
    std::vector<NetEdge> net_edges;
    Rows<uint32_t> edges_of_net;  ///< net ordinal → its net edges
    /// Net ordinal → cell arcs driving it (an arc's delay reads its
    /// output net's load): the load-edit dirty-seed table.
    Rows<uint32_t> arcs_of_net;
    /// Net ordinal → net edges whose SINK gate drives it (noisy-edge
    /// Γeff synthesis reads that output load at the sink).
    Rows<uint32_t> sink_load_edges_of_net;
    Rows<EdgeRef> in_edges;
    Rows<EdgeRef> out_edges;
    std::vector<std::vector<int>> levels;
    std::vector<int> vertex_level;
    std::vector<int32_t> endpoint_ports;
  };
  /// Builds the structure layer (validate + vertices + edges + levels)
  /// — the expensive part of construction that forks skip.
  [[nodiscard]] static std::shared_ptr<const Graph> make_graph(
      const netlist::Netlist& nl, const liberty::Library& lib);
  static void levelize(Graph& g);
  struct ForkTag {};
  StaEngine(const StaEngine& other, ForkTag);

  /// Vertex id of a pin/port name, or -1 — O(1) expected.
  [[nodiscard]] int vertex_of(const std::string& name) const noexcept;
  [[nodiscard]] int find_vertex(const std::string& name) const;
  /// Index checks behind every handle accessor; throw on foreign/stale
  /// handles and return the dense index.
  [[nodiscard]] int check(PinId pin) const;
  [[nodiscard]] int check(NetId net) const;
  [[nodiscard]] int check(PortId port) const;
  [[nodiscard]] util::Error unknown_vertex_error(
      const std::string& name) const;
  void compute_loads();
  /// Shared closure step of both delta_plan overloads: `dirty` holds
  /// the forward seeds, `back` extra backward-only seeds; both are
  /// closed (fanout / fanin) and turned into sorted worklists.
  [[nodiscard]] DeltaPlan finish_plan(std::vector<char>& dirty,
                                      std::vector<char>& back) const;
  /// init_state() for a single vertex: default timing plus the input /
  /// required constraints of `v` (delta propagation resets dirty
  /// vertices through this so they match a fresh init_state bitwise).
  void reset_vertex(TimingState& state, int v) const;
  /// Resets only the required times of `v` (the backward-delta reset).
  void reset_required(TimingState& state, int v) const;
  /// Writes the input and required constraints of port ordinal `port`
  /// (== its vertex) into `vt`; unconstrained fields are left alone.
  void apply_port_constraints(VertexTiming& vt, size_t port) const;
  /// The required-time constraint of vertex `v` (+inf: none).
  [[nodiscard]] double required_of(int v) const noexcept {
    return static_cast<size_t>(v) < required_.size()
               ? required_[static_cast<size_t>(v)]
               : std::numeric_limits<double>::infinity();
  }
  void propagate_cell_edge(const CellArcEdge& e, TimingState& state,
                           const EvalContext& ctx) const;
  void propagate_net_edge(size_t edge_index, TimingState& state,
                          const EvalContext& ctx) const;
  /// The Γeff replacement step at a noisy net sink: gates on
  /// (annotation, sink pin, polarity, arc) exactly like the historical
  /// inline block, then rewrites (arrival, slew) via cache or fit.
  /// Shared verbatim by propagate_net_edge() and the lane-block path,
  /// which is what makes "lane == scalar" at noisy edges structural.
  void noisy_fit(const NetEdge& e, size_t edge_index,
                 const NoiseAnnotation* noisy, int rf_i,
                 const EvalContext& ctx, double& arrival, double& slew) const;
  static void relax(TimingState& state, int to, RiseFall to_rf, double arrival,
                    double slew, int from, RiseFall from_rf);

  /// Per-worker scratch of the lane-block walker: epoch-stamped
  /// vertex stamps and slots plus the SoA lane arrays (defined in
  /// engine_lanes_impl.hpp; sized O(V) once, reused across blocks).
  struct LaneScratch;
  /// Where the lane runner writes its points: full `states` (one per
  /// point), or — when `states` is empty — each point's E endpoint
  /// rows, built in the running worker's scratch and handed to
  /// `on_rows` as (point, rows).  Calls for distinct points may run
  /// concurrently; the rows are valid only during the call.
  struct LaneOutput {
    std::span<TimingState> states;
    const std::function<void(uint32_t, std::span<const VertexTiming>)>*
        on_rows = nullptr;
  };
  /// The body of both evaluate_points_delta_lanes() overloads (the
  /// sweep calls it directly).  Returns Σ over the points of the
  /// forward vertices folded for them (the changed-work statistic,
  /// counted per worker and merged here).
  uint64_t run_lane_blocks(LaneOutput out,
                           std::span<const EvalContext> contexts,
                           std::span<const TimingState* const> baselines,
                           std::span<const DeltaPlan* const> plans,
                           int lanes, util::ThreadPool* pool,
                           std::span<wave::Workspace> worker_workspaces) const;
  /// Walks one lane block with W lanes in flight: a value-change-bounded
  /// forward pass over `block.plan->forward` (which bounds the work but
  /// is not the work: only vertices with a changed fan-in source or an
  /// annotated net in-edge in a real lane are reset and folded, and a
  /// folded vertex is stamped changed only when some real lane differs
  /// from the baseline bitwise), then — in states mode only — the reset
  /// and fold of required times over `block.plan->backward`.  It writes each real lane's results
  /// into `out`: in states mode a baseline copy overwritten at changed
  /// and required-time vertices, in endpoint-rows mode only the E
  /// endpoint rows, taken from the lanes where the endpoint changed and
  /// from the baseline otherwise.  Instantiated at W=1
  /// (engine_lanes.cpp — the oracle/fallback) and W=4
  /// (engine_lanes_avx2.cpp, compiled with -mavx2).
  template <int W>
  void evaluate_delta_block(const LaneBlock& block, LaneOutput out,
                            std::span<const EvalContext> contexts,
                            std::span<const TimingState* const> baselines,
                            wave::Workspace* workspace,
                            LaneScratch& scratch) const;

  const netlist::Netlist* netlist_;
  const liberty::Library* library_;
  /// The shared immutable structure layer; initialized first so the
  /// read aliases below may bind to it in their default initializers.
  std::shared_ptr<const Graph> graph_;
  uint32_t graph_tag_ = 0;  ///< == graph_->tag; carried by handles
  // Read aliases into *graph_, preserving the names the propagation
  // and accessor code has always used.  References make the engine
  // non-assignable, which is fine: engines live behind unique_ptr.
  const std::vector<std::string>& vertex_names_ = graph_->vertex_names;
  const util::OrdinalIndex& vertex_index_ = graph_->vertex_index;
  const std::vector<PortRec>& ports_ = graph_->ports;
  const std::vector<CellArcEdge>& cell_edges_ = graph_->cell_edges;
  const std::vector<NetEdge>& net_edges_ = graph_->net_edges;
  const Rows<uint32_t>& edges_of_net_ = graph_->edges_of_net;
  const Rows<EdgeRef>& in_edges_ = graph_->in_edges;
  const Rows<EdgeRef>& out_edges_ = graph_->out_edges;
  const std::vector<std::vector<int>>& levels_ = graph_->levels;
  const std::vector<int>& vertex_level_ = graph_->vertex_level;
  const std::vector<int32_t>& endpoint_ports_ = graph_->endpoint_ports;

  // Port constraint tables, by port ordinal — which is also the port's
  // vertex id (make_graph interns ports first), so propagation indexes
  // them directly with the vertex of any v < ports_.size().
  std::vector<std::array<InputConstraint, 2>> input_constraints_;
  std::vector<double> required_;      ///< by port ordinal (+inf = none)
  std::vector<double> output_loads_;  ///< by port ordinal (0 = none)
  /// Dense per-net tables indexed by NetId::index.
  std::vector<std::pair<double, double>> net_parasitics_;  ///< (cap, delay)
  /// Per-net capacitive load (sink pin caps + parasitic cap + port
  /// load), filled by prepare() / recompute_net_loads() and read by
  /// propagation.
  std::vector<double> net_loads_;
  std::vector<std::optional<NoiseAnnotation>> net_annotations_;
  size_t noisy_net_count_ = 0;
  std::optional<Corner> corner_;
  std::unique_ptr<core::EquivalentWaveformMethod> noise_method_;
  /// Liveness token: results that point into this engine hold a
  /// weak_ptr to it and throw instead of dangling after destruction.
  std::shared_ptr<const char> liveness_ = std::make_shared<const char>('e');

  TimingState state_;  ///< default state written by run()
  int threads_ = 1;  ///< set_threads(); schedules nothing (see there)
  /// Per-ThreadPool-worker scratch arenas reused across run()/sweep()
  /// calls; slabs warm up once and every later propagation is
  /// allocation-free.  workspaces_[w] belongs to pool worker w; run()
  /// uses workspaces_[0].
  std::vector<wave::Workspace> workspaces_;
  bool analyzed_ = false;
};

}  // namespace waveletic::sta
