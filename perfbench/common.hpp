#pragma once

/// \file common.hpp
/// Shared pieces of the repository benchmark: run options, the result
/// record every workload fills, the span tracer of traced runs, the
/// timing decorator around the Γeff technique, sample statistics, and
/// the input generators the workloads share.
///
/// Spans come from the benchmark's own code, around the public library
/// calls it makes (StaEngine, sweep(), ScenarioGenerator,
/// StaService::apply, extract_block_model, HierDesign::build); the
/// library itself is not instrumented.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/method.hpp"
#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "sta/engine.hpp"

namespace perfbench {

namespace wl = waveletic;

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
[[nodiscard]] inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured loop
  bool trace = false;     ///< traced run: per-layer metrics only
  int threads = 4;        ///< worker threads of every parallel call
  std::string trace_out;  ///< where a traced run writes its spans
};

/// Everything one run reports.  Human-readable lines go to stdout as
/// they are produced; metrics end up in the final JSON line.
struct Result {
  uint64_t attempted = 0;  ///< operations run (timed ops + checks)
  uint64_t failed = 0;     ///< operations that threw or failed a check
  bool checks_ran = false;
  /// Metric name → value; units live in the metric table (main.cpp).
  std::map<std::string, double> metrics;

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Counts one checked operation.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Summary statistics of a latency sample.
struct Summary {
  size_t n = 0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  /// Highest of p99.9/p99/p95/p90/p75 with ≥ 10 samples beyond it (0
  /// when n < 40).
  double tail_pct = 0.0;
  double tail = 0.0;
};
[[nodiscard]] Summary summarize(std::vector<double> samples);
[[nodiscard]] double median(std::vector<double> samples);
/// "median X unit, p<q> Y unit, range [a, b] (n=…)" for the report.
[[nodiscard]] std::string describe(const Summary& s, double scale,
                                   const char* unit);

/// Peak resident set size of this process (VmHWM) [MB].
[[nodiscard]] double peak_rss_mb();

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// In-memory span recorder of a traced run.  Spans are opened and
/// closed by the benchmark's main thread only (worker-thread work is
/// counted by atomics, see TimedMethod).  Disabled, every call is a
/// branch on one bool.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
    int parent = -1;     ///< index of the enclosing span, -1 at top
  };

  static Tracer& get();
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open one; returns its index.
  int open(const char* name);
  void close(int index);

  /// Durations [s] of every closed span called `name`, in order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Per span name: count, total and self time (duration minus the
  /// part covered by child spans) [s].
  struct Totals {
    size_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Writes every span as JSON lines to `path`.
  void write(const std::string& path) const;

 private:
  Tracer() : t0_(Clock::now()) {}
  bool enabled_ = false;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: no-op when tracing is off.
class Scope {
 public:
  explicit Scope(const char* name)
      : index_(Tracer::get().enabled() ? Tracer::get().open(name) : -1) {}
  ~Scope() {
    if (index_ >= 0) Tracer::get().close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_;
};

/// Median duration [s] of the spans called `name` (0 when none).
[[nodiscard]] double span_median(const std::string& name);

/// The measured loop of a workload.  Calls `op` — which returns the
/// duration of its own timed region [s] and runs its checks outside
/// that region — until `opt.seconds` of wall time have passed and at
/// least `min_ops` calls were made.  An untraced run sets peak_rss_mb
/// to the peak over the loop alone.  A traced run spends the first half
/// untraced and the second half traced (`toggle(true)` switches on any
/// extra instrumentation, `toggle(false)` off again), sets
/// trace.overhead_frac from the two medians, and returns the traced
/// half's samples.
[[nodiscard]] std::vector<double> measure(
    const Options& opt, Result& result, size_t min_ops,
    const std::function<double()>& op,
    const std::function<void(bool)>& toggle = {});

/// Γeff-technique decorator installed through set_noise_method() in
/// traced runs: forwards every fit to the wrapped technique and counts
/// fits and their wall time.  Reentrant like the technique it wraps;
/// clones share the counters.
class TimedMethod final : public wl::core::EquivalentWaveformMethod {
 public:
  struct Counters {
    std::atomic<uint64_t> fits{0};
    std::atomic<uint64_t> ns{0};
  };
  TimedMethod(std::unique_ptr<wl::core::EquivalentWaveformMethod> inner,
              std::shared_ptr<Counters> counters)
      : inner_(std::move(inner)), counters_(std::move(counters)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] wl::core::Fit fit(
      const wl::core::MethodInput& input) const override;
  [[nodiscard]] bool needs_noiseless() const noexcept override {
    return inner_->needs_noiseless();
  }
  [[nodiscard]] std::unique_ptr<wl::core::EquivalentWaveformMethod> clone()
      const override {
    return std::make_unique<TimedMethod>(inner_->clone(), counters_);
  }

 private:
  std::unique_ptr<wl::core::EquivalentWaveformMethod> inner_;
  std::shared_ptr<Counters> counters_;
};

/// Γeff fit timing of traced runs: toggle(true) installs a TimedMethod
/// around the engine's technique, toggle(false) restores the plain one.
class FitTiming {
 public:
  explicit FitTiming(wl::sta::StaEngine& sta)
      : sta_(sta), plain_(sta.noise_method().clone()) {}
  void toggle(bool on);
  /// Sets core.fits (fits per operation) and core.fit_us.
  void report(Result& result, size_t ops) const;

 private:
  wl::sta::StaEngine& sta_;
  std::unique_ptr<wl::core::EquivalentWaveformMethod> plain_;
  std::shared_ptr<TimedMethod::Counters> counters_ =
      std::make_shared<TimedMethod::Counters>();
};

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

/// Sets setup_s to the median of `times`, prints them, and sets the
/// per-layer set-up metrics (<span>_s) of every set-up span recorded so
/// far.
void record_setup(Result& result, const std::vector<double>& times);

/// Calls `set_up` kSetups times, each result replacing the previous one
/// (so one design is alive at a time), records the timings, and returns
/// the last design.
template <class SetUp>
auto repeat_setup(Result& result, SetUp&& set_up) {
  decltype(set_up()) design;
  std::vector<double> times;
  for (int i = 0; i < kSetups; ++i) {
    design.reset();
    const auto t0 = Clock::now();
    design = set_up();
    times.push_back(since(t0));
  }
  record_setup(result, times);
  return design;
}

// ---------------------------------------------------------------------------
// Shared inputs
// ---------------------------------------------------------------------------

/// SplitMix64 stream: every seed-derived input draws from one of these.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next();
  /// Uniform in [0, 1).
  double uniform();

 private:
  uint64_t s_;
};

/// The VCL013 fast library (span "charlib.build").
[[nodiscard]] wl::liberty::Library build_library();

/// make_random_dag (span "netlist.generate").
[[nodiscard]] wl::netlist::Netlist random_dag(uint64_t seed, int inputs,
                                              int layers, int width);

/// The port constraints every workload applies: inputs staggered by
/// ordinal, small output loads, one required time on every output.
void constrain(wl::sta::StaEngine& sta, const wl::netlist::Netlist& nl,
               double required);

/// Nominal + slow corners (the derates of the service examples).
[[nodiscard]] std::vector<wl::sta::Corner> two_corners();

// ---------------------------------------------------------------------------
// Workloads: each fills `result` with its metrics and check counts.
// ---------------------------------------------------------------------------

void run_dense_sweep(const Options& opt, Result& result);
void run_compound_sweep(const Options& opt, Result& result);
void run_eco_service(const Options& opt, Result& result);
void run_hier_1m(const Options& opt, Result& result);

}  // namespace perfbench
