#pragma once

/// \file thread_pool.hpp
/// Small fixed-size thread pool with a dependency-ordered run_graph for
/// unbalanced task DAGs.
///
/// run_graph executes a task DAG (tasks become ready when their
/// dependencies complete; every worker pulls from one shared ready
/// stack).  The *schedule* here is timing-dependent — which is fine for
/// callers whose tasks write disjoint state and read only completed
/// dependencies: every task sees the same inputs regardless of
/// interleaving, so results stay bitwise-deterministic even though the
/// execution order is not.  The STA sweep runs one task per point on
/// it, so points with unequal dirty cones still keep every worker busy.
///
/// A pool of size 1 runs everything inline on the calling thread and
/// spawns no workers at all.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace waveletic::util {

class ThreadPool {
 public:
  /// `threads` ≤ 0 selects hardware_threads().  Size is clamped to ≥ 1.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] size_t size() const noexcept { return size_; }

  /// A task DAG: `tiles` independent copies of one dependency
  /// structure.  Task ids are tile * tile_size + local; dependencies
  /// never cross tiles.  The spans must outlive the run_graph call.
  struct TaskGraph {
    /// Per local task: number of unfinished dependencies at start.
    std::span<const uint32_t> indegree;
    /// Per local task: local ids unlocked when it completes.
    std::span<const std::vector<uint32_t>> successors;
    /// Number of independent copies (e.g. sweep points).
    size_t tiles = 1;

    [[nodiscard]] size_t tile_size() const noexcept {
      return indegree.size();
    }
    [[nodiscard]] size_t total() const noexcept {
      return indegree.size() * tiles;
    }
  };

  /// Runs body(worker, task) for every task of `graph`, each after all
  /// of its dependencies have completed; returns when all tasks have
  /// run.  Workers (the caller is worker 0) pull ready tasks from a
  /// shared stack, so unbalanced tasks keep every thread busy.  The
  /// first exception cancels the not-yet-started remainder (their
  /// bodies are skipped) and is rethrown on the calling thread.
  /// Throws if the graph never drains (a dependency cycle).
  /// Reentrant calls from inside a body are not supported.
  void run_graph(const TaskGraph& graph,
                 const std::function<void(size_t, size_t)>& body);

  /// std::thread::hardware_concurrency with a sane floor of 1.
  [[nodiscard]] static size_t hardware_threads() noexcept;

 private:
  /// Shared state of one run_graph execution.
  struct GraphRun {
    const TaskGraph* graph = nullptr;
    const std::function<void(size_t, size_t)>* body = nullptr;
    std::vector<uint32_t> pending;  ///< remaining deps per task
    std::vector<uint32_t> ready;    ///< LIFO stack of runnable tasks
    size_t completed = 0;
    size_t in_flight = 0;           ///< tasks popped but not completed
    std::atomic<bool> cancelled{false};
    std::mutex mutex;
    std::condition_variable cv;
  };

  void worker_loop(size_t worker_index);
  void graph_worker(size_t worker_index, GraphRun& run) noexcept;
  /// Runs graph_worker(w, run) on every worker w (the caller is worker
  /// 0), waits for all, and rethrows the first task exception.
  void dispatch(GraphRun& run);

  size_t size_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  GraphRun* run_ = nullptr;  ///< the run_graph call being dispatched
  uint64_t generation_ = 0;   ///< bumped per dispatch to wake workers
  size_t pending_ = 0;        ///< helper workers not yet finished
  bool shutdown_ = false;
  std::exception_ptr first_error_;
};

}  // namespace waveletic::util
