#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace waveletic::util {

size_t ThreadPool::hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

ThreadPool::ThreadPool(int threads) {
  size_ = threads <= 0 ? hardware_threads()
                       : static_cast<size_t>(threads);
  size_ = std::max<size_t>(size_, 1);
  // Worker 0 is the calling thread; only size_-1 helpers are spawned.
  workers_.reserve(size_ - 1);
  for (size_t i = 1; i < size_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(size_t worker_index) {
  uint64_t seen_generation = 0;
  for (;;) {
    GraphRun* run = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      run = run_;
    }
    graph_worker(worker_index, *run);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::graph_worker(size_t worker_index, GraphRun& run) noexcept {
  const TaskGraph& g = *run.graph;
  const size_t tile_size = g.tile_size();
  const size_t total = g.total();
  std::unique_lock<std::mutex> lock(run.mutex);
  for (;;) {
    if (run.completed == total) return;
    if (run.ready.empty()) {
      // Remaining tasks are blocked on tasks other workers are
      // executing; wait for a completion to unlock some.  If nothing is
      // in flight either, the graph has a dependency cycle — bail out
      // and let run_graph report completed < total.
      if (run.in_flight == 0) {
        run.cv.notify_all();
        return;
      }
      run.cv.wait(lock, [&] {
        return run.completed == total || !run.ready.empty() ||
               run.in_flight == 0;
      });
      continue;
    }
    const uint32_t task = run.ready.back();
    run.ready.pop_back();
    ++run.in_flight;
    lock.unlock();
    if (!run.cancelled.load(std::memory_order_relaxed)) {
      try {
        (*run.body)(worker_index, task);
      } catch (...) {
        run.cancelled.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> elock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    lock.lock();
    ++run.completed;
    --run.in_flight;
    const size_t tile_base = (task / tile_size) * tile_size;
    size_t unlocked = 0;
    for (const uint32_t succ : g.successors[task % tile_size]) {
      if (--run.pending[tile_base + succ] == 0) {
        run.ready.push_back(static_cast<uint32_t>(tile_base + succ));
        ++unlocked;
      }
    }
    if (run.completed == total) {
      run.cv.notify_all();
    } else if (unlocked > 1) {
      run.cv.notify_all();
    } else if (unlocked == 1) {
      run.cv.notify_one();
    }
  }
}

void ThreadPool::run_graph(const TaskGraph& graph,
                           const std::function<void(size_t, size_t)>& body) {
  const size_t total = graph.total();
  if (total == 0) return;
  GraphRun run;
  run.graph = &graph;
  run.body = &body;
  run.pending.resize(total);
  const size_t tile_size = graph.tile_size();
  for (size_t tile = 0; tile < graph.tiles; ++tile) {
    for (size_t t = 0; t < tile_size; ++t) {
      run.pending[tile * tile_size + t] = graph.indegree[t];
      if (graph.indegree[t] == 0) {
        run.ready.push_back(static_cast<uint32_t>(tile * tile_size + t));
      }
    }
  }
  require(!run.ready.empty(), "run_graph: no root tasks (dependency cycle)");
  dispatch(run);
  require(run.completed == total,
          "run_graph: task graph stalled with ", total - run.completed,
          " tasks blocked (dependency cycle)");
}

void ThreadPool::dispatch(GraphRun& run) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    run_ = &run;
    first_error_ = nullptr;
    pending_ = size_ - 1;  // helper workers; worker 0 runs here
    ++generation_;
  }
  start_cv_.notify_all();
  graph_worker(0, run);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    if (first_error_) {
      auto err = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(err);
    }
  }
}

}  // namespace waveletic::util
