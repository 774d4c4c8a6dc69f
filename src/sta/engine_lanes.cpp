// Lane-block grouping and the lane-parallel delta runner.  This TU is
// compiled at the baseline ISA: it instantiates the W=1 oracle of the
// block walker and dispatches to the W=4 instantiation (built in
// engine_lanes_avx2.cpp with -mavx2) without ever expanding it here.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "sta/engine_lanes_impl.hpp"
#include "sta/task_runner.hpp"

namespace waveletic::sta {

namespace {

// FNV-1a over a plan's worklists — a content fingerprint, so sweep
// points that rebuilt identical plans as distinct objects (e.g. the
// same net annotated with different noise amplitudes) still land in
// one lane block.  Collisions are resolved by exact comparison.
uint64_t plan_content_hash(const StaEngine::DeltaPlan& p) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  mix(p.forward.size());
  for (const int v : p.forward) mix(static_cast<uint64_t>(v));
  mix(p.backward.size());
  for (const int v : p.backward) mix(static_cast<uint64_t>(v));
  return h;
}

bool plan_content_equal(const StaEngine::DeltaPlan& a,
                        const StaEngine::DeltaPlan& b) {
  return &a == &b || (a.forward == b.forward && a.backward == b.backward);
}

uint64_t mix_ptr(uint64_t h, const void* p) {
  h ^= reinterpret_cast<uintptr_t>(p);
  h *= 1099511628211ull;
  return h;
}

}  // namespace

std::vector<StaEngine::LaneBlock> StaEngine::group_lane_blocks(
    std::span<const EvalContext> contexts,
    std::span<const TimingState* const> baselines,
    std::span<const DeltaPlan* const> plans, int width) const {
  util::require(width >= 1, "group_lane_blocks: width must be >= 1, got ",
                width);
  util::require(contexts.size() == baselines.size() &&
                    contexts.size() == plans.size(),
                "group_lane_blocks: ", contexts.size(), " contexts vs ",
                baselines.size(), " baselines vs ", plans.size(), " plans");
  const size_t n = contexts.size();
  const size_t uwidth = static_cast<size_t>(width);

  // 1. Bucket points by (baseline, corner, plan content) in first-seen
  //    order.  Method/cache/edge_noise may differ per lane: the walker
  //    reads them from each lane's own context.
  struct Bucket {
    const TimingState* baseline;
    const Corner* corner;
    const DeltaPlan* plan;
    std::vector<uint32_t> points;
  };
  std::vector<Bucket> buckets;
  std::unordered_multimap<uint64_t, size_t> by_hash;
  by_hash.reserve(n);
  // Sweeps dedupe plans by annotated-net set, so points overwhelmingly
  // share plan *pointers*; hash each distinct pointer once instead of
  // re-hashing ~cone-sized int lists per point.
  std::unordered_map<const DeltaPlan*, uint64_t> plan_hash;
  plan_hash.reserve(n);
  for (size_t p = 0; p < n; ++p) {
    util::require(baselines[p] != nullptr && plans[p] != nullptr,
                  "group_lane_blocks: null baseline/plan at point ", p);
    auto [hit, fresh_hash] = plan_hash.try_emplace(plans[p], 0);
    if (fresh_hash) hit->second = plan_content_hash(*plans[p]);
    uint64_t h = hit->second;
    h = mix_ptr(h, baselines[p]);
    h = mix_ptr(h, contexts[p].corner);
    size_t found = buckets.size();
    const auto range = by_hash.equal_range(h);
    for (auto it = range.first; it != range.second; ++it) {
      const Bucket& b = buckets[it->second];
      if (b.baseline == baselines[p] && b.corner == contexts[p].corner &&
          (b.plan == plans[p] || plan_content_equal(*b.plan, *plans[p]))) {
        found = it->second;
        break;
      }
    }
    if (found == buckets.size()) {
      buckets.push_back(
          {baselines[p], contexts[p].corner, plans[p], {}});
      by_hash.emplace(h, found);
    }
    buckets[found].points.push_back(static_cast<uint32_t>(p));
  }

  // 2. Chunk each bucket into full-width blocks; collect the sub-width
  //    tails for cross-bucket merging.
  std::vector<LaneBlock> blocks;
  struct Leftover {
    const TimingState* baseline;
    const Corner* corner;
    const DeltaPlan* plan;
    std::vector<uint32_t> points;
  };
  std::vector<Leftover> leftovers;
  for (const Bucket& b : buckets) {
    size_t i = 0;
    for (; i + uwidth <= b.points.size(); i += uwidth) {
      LaneBlock blk;
      blk.points.assign(b.points.begin() + static_cast<ptrdiff_t>(i),
                        b.points.begin() + static_cast<ptrdiff_t>(i + uwidth));
      blk.plan = b.plan;
      blocks.push_back(std::move(blk));
    }
    if (i < b.points.size()) {
      leftovers.push_back({b.baseline, b.corner, b.plan,
                           {b.points.begin() + static_cast<ptrdiff_t>(i),
                            b.points.end()}});
    }
  }

  // 3. Merge sub-width tails that share (baseline, corner) under a
  //    union plan — propagating a lane over a cone-superset is exact
  //    (re-folding a clean vertex reproduces its baseline bitwise), so
  //    near-miss scenarios still share one graph walk.  Greedy in
  //    first-seen order for determinism.
  const auto fwd_less = [this](int a, int b) {
    const int la = vertex_level_[static_cast<size_t>(a)];
    const int lb = vertex_level_[static_cast<size_t>(b)];
    return la != lb ? la < lb : a < b;
  };
  const auto bwd_less = [this](int a, int b) {
    const int la = vertex_level_[static_cast<size_t>(a)];
    const int lb = vertex_level_[static_cast<size_t>(b)];
    return la != lb ? la > lb : a < b;
  };
  const auto merge_sorted = [](const std::vector<int>& a,
                               const std::vector<int>& b, auto less) {
    std::vector<int> out;
    out.reserve(a.size() + b.size());
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(out), less);
    return out;
  };
  std::vector<size_t> used(leftovers.size(), 0);
  for (size_t i = 0; i < leftovers.size(); ++i) {
    if (used[i]) continue;
    used[i] = 1;
    LaneBlock blk;
    blk.points = leftovers[i].points;
    blk.plan = leftovers[i].plan;
    std::shared_ptr<DeltaPlan> merged;
    for (size_t j = i + 1;
         j < leftovers.size() && blk.points.size() < uwidth; ++j) {
      if (used[j] || leftovers[j].baseline != leftovers[i].baseline ||
          leftovers[j].corner != leftovers[i].corner ||
          blk.points.size() + leftovers[j].points.size() > uwidth) {
        continue;
      }
      used[j] = 1;
      if (merged == nullptr) {
        merged = std::make_shared<DeltaPlan>();
        merged->forward = blk.plan->forward;
        merged->backward = blk.plan->backward;
        merged->num_vertices = blk.plan->num_vertices;
      }
      merged->forward =
          merge_sorted(merged->forward, leftovers[j].plan->forward, fwd_less);
      merged->backward =
          merge_sorted(merged->backward, leftovers[j].plan->backward,
                       bwd_less);
      blk.points.insert(blk.points.end(), leftovers[j].points.begin(),
                        leftovers[j].points.end());
    }
    if (merged != nullptr) {
      blk.plan = merged.get();
      blk.owned_plan = std::move(merged);
    }
    blocks.push_back(std::move(blk));
  }
  return blocks;
}

void StaEngine::evaluate_points_delta_lanes(
    std::span<TimingState> states, std::span<const EvalContext> contexts,
    std::span<const TimingState* const> baselines,
    std::span<const DeltaPlan* const> plans, int lanes,
    util::ThreadPool* pool, std::span<wave::Workspace> worker_workspaces)
    const {
  util::require(states.size() == contexts.size(),
                "evaluate_points_delta_lanes: ", states.size(),
                " states vs ", contexts.size(), " contexts");
  (void)run_lane_blocks({states}, contexts, baselines, plans, lanes, pool,
                        worker_workspaces);
}

void StaEngine::evaluate_points_delta_lanes(
    std::span<VertexTiming> endpoint_rows,
    std::span<const EvalContext> contexts,
    std::span<const TimingState* const> baselines,
    std::span<const DeltaPlan* const> plans, int lanes,
    util::ThreadPool* pool, std::span<wave::Workspace> worker_workspaces)
    const {
  util::require(endpoint_rows.size() == contexts.size() *
                                            endpoint_ports_.size(),
                "evaluate_points_delta_lanes: ", endpoint_rows.size(),
                " endpoint rows for ", contexts.size(), " points x ",
                endpoint_ports_.size(), " endpoints");
  const size_t n_endpoints = endpoint_ports_.size();
  const std::function<void(uint32_t, std::span<const VertexTiming>)>
      copy_rows = [&](uint32_t p, std::span<const VertexTiming> rows) {
        std::copy(rows.begin(), rows.end(),
                  endpoint_rows.begin() +
                      static_cast<ptrdiff_t>(p * n_endpoints));
      };
  (void)run_lane_blocks({{}, &copy_rows}, contexts, baselines, plans, lanes,
                        pool, worker_workspaces);
}

uint64_t StaEngine::run_lane_blocks(
    LaneOutput out, std::span<const EvalContext> contexts,
    std::span<const TimingState* const> baselines,
    std::span<const DeltaPlan* const> plans, int lanes,
    util::ThreadPool* pool, std::span<wave::Workspace> worker_workspaces)
    const {
  constexpr const char* kCaller = "evaluate_points_delta_lanes";
  util::require(contexts.size() == baselines.size() &&
                    contexts.size() == plans.size(),
                kCaller, ": ", contexts.size(), " contexts vs ",
                baselines.size(), " baselines vs ", plans.size(), " plans");
  util::require(lanes == 1 || lanes == 4, kCaller,
                ": lanes must be 1 or 4, got ", lanes);
  util::require(wave::lane_width_available(lanes), kCaller, ": lane width ",
                lanes, " not available on this build/CPU");
  if (contexts.empty()) return 0;
  util::require(!out.states.empty() || out.on_rows != nullptr, kCaller,
                ": endpoint-rows mode needs a row callback");

  const auto blocks = group_lane_blocks(contexts, baselines, plans, lanes);
  const size_t pool_workers =
      pool != nullptr && pool->size() > 1 ? pool->size() : 1;
  std::vector<LaneScratch> scratch(pool_workers);
  const size_t n_endpoints = endpoint_ports_.size();
  if (out.states.empty()) {
    for (auto& s : scratch) s.rows.resize(n_endpoints);
  } else {
    // Allocated here, on the caller, for the reason evaluate_points()
    // gives: a wave of a few blocks on many workers otherwise spreads its
    // states over the workers' malloc arenas differently from run to run.
    for (auto& state : out.states) state.reserve(vertex_names_.size());
  }
  detail::run_tasks(
      kCaller, blocks.size(), pool, worker_workspaces,
      [&](size_t worker, size_t bi, wave::Workspace* ws) {
        const LaneBlock& blk = blocks[bi];
        if (lanes == 4 && blk.points.size() > 1) {
#if defined(WAVELETIC_HAVE_AVX2)
          evaluate_delta_block<4>(blk, out, contexts, baselines, ws,
                                  scratch[worker]);
#endif
          return;
        }
        if (lanes == 1) {
          // W=1 runs every (singleton) block through the walker — the
          // oracle instantiation, exercised on every build.
          evaluate_delta_block<1>(blk, out, contexts, baselines, ws,
                                  scratch[worker]);
          return;
        }
        // Width-4 singleton: the scalar per-point path is cheaper than a
        // 3/4-padded lane walk and bitwise identical by contract.  In
        // endpoint-rows mode it evaluates into the worker's scratch
        // state and copies the endpoint rows out.
        const uint32_t p = blk.points[0];
        EvalContext task_ctx = contexts[p];
        if (ws != nullptr) task_ctx.workspace = ws;
        if (!out.states.empty()) {
          evaluate_delta(out.states[p], *baselines[p], *plans[p], task_ctx);
          scratch[worker].folded += plans[p]->forward.size();
          return;
        }
        LaneScratch& s = scratch[worker];
        evaluate_delta(s.point, *baselines[p], *plans[p], task_ctx);
        s.folded += plans[p]->forward.size();
        for (size_t e = 0; e < n_endpoints; ++e) {
          s.rows[e] = s.point[static_cast<size_t>(endpoint_vertex(e))];
        }
        (*out.on_rows)(p, s.rows);
      });
  uint64_t folded = 0;
  for (const auto& s : scratch) folded += s.folded;
  return folded;
}

// The oracle instantiation: structurally the scalar fold, one point per
// "vector".  The W=4 instantiation must match it bitwise.
template void StaEngine::evaluate_delta_block<1>(
    const LaneBlock& block, LaneOutput out,
    std::span<const EvalContext> contexts,
    std::span<const TimingState* const> baselines, wave::Workspace* workspace,
    LaneScratch& s) const;

}  // namespace waveletic::sta
