#pragma once

// INTERNAL header — the one cross-point scheduler of the engine, shared
// by evaluate_points() / evaluate_points_delta() (engine.cpp, one task
// per point) and the lane runner (engine_lanes.cpp, one task per lane
// block).  Include "sta/engine.hpp" instead.

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "wave/kernels.hpp"

namespace waveletic::sta::detail {

/// Runs task(worker, t, workspace) for every t in [0, n_tasks), one
/// ThreadPool::run_graph task each, with `workspace` the running
/// worker's arena (null when `worker_workspaces` is empty; otherwise it
/// must hold at least one arena per pool worker).  Serial on the caller
/// without a multi-worker pool.  Tasks must write disjoint results.
template <typename Task>
void run_tasks(const char* caller, size_t n_tasks, util::ThreadPool* pool,
               std::span<wave::Workspace> worker_workspaces,
               const Task& task) {
  if (n_tasks == 0) return;
  const size_t pool_workers =
      pool != nullptr && pool->size() > 1 ? pool->size() : 1;
  util::require(worker_workspaces.empty() ||
                    worker_workspaces.size() >= pool_workers,
                caller, ": need one workspace per pool worker (",
                worker_workspaces.size(), " < ", pool_workers, ")");
  auto body = [&](size_t worker, size_t t) {
    task(worker, t,
         worker_workspaces.empty() ? nullptr : &worker_workspaces[worker]);
  };
  if (pool_workers > 1) {
    // One dependency-free task per item, tiled over the trivial
    // single-task DAG: the shared ready stack of run_graph dynamically
    // load-balances unequal work.  A single task goes this way too:
    // waking the workers now lets them share the caller's next tasks
    // (a sweep's first wave after its baseline) evenly.
    static const uint32_t kZeroIndegree[1] = {0};
    static const std::vector<uint32_t> kNoSuccessors[1] = {{}};
    pool->run_graph({kZeroIndegree, kNoSuccessors, n_tasks}, body);
  } else {
    for (size_t t = 0; t < n_tasks; ++t) body(0, t);
  }
}

}  // namespace waveletic::sta::detail
