// Repository benchmark binary: runs one named workload at a given
// seed, thread count and measuring time, prints a human-readable report,
// and ends with one JSON line {correct, attempted, failed, metrics}.
//
//   perfbench --workload dense_sweep --seed 7 --seconds 10 --trace 0
//             [--threads 4] [--trace-out spans.jsonl]
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate
// traced run that reports the per-layer metrics instead (spans around
// every public library call, plus the tracing overhead).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <string>

#include "common.hpp"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported by untraced runs, by every workload (see README.md for what
// each means per workload).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"op_p50_ms", "ms"},
};

// Reported by traced runs.  A layer a workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"charlib.build_s", "s"},
    {"netlist.generate_s", "s"},
    {"engine.construct_s", "s"},
    {"engine.prepare_s", "s"},
    {"engine.baseline_s", "s"},
    {"engine.run_speedup_1_to_n", "x"},
    {"sweep.plan_s", "s"},
    {"sweep.dirty_vertex_frac", "frac"},
    {"sweep.speedup_1_to_n", "x"},
    {"sweep.pruned_frac", "frac"},
    {"lanes.blocks", "count"},
    {"lanes.fill_frac", "frac"},
    {"core.fits", "count"},
    {"core.fit_us", "us"},
    {"gamma_cache.hit_rate", "frac"},
    {"gamma_cache.hit_rate_1t", "frac"},
    {"wave.sample_ns_per_point", "ns"},
    {"scengen.drain_s", "s"},
    {"scengen.window_kill_frac", "frac"},
    {"scengen.corr_kill_frac", "frac"},
    {"scengen.evaluated", "count"},
    {"bump_cache.hit_rate", "frac"},
    {"service.apply_ms", "ms"},
    {"service.edit_p99_ms", "ms"},
    {"service.rebuild_p50_ms", "ms"},
    {"service.dirty_cone_frac", "frac"},
    {"service.rebuilds", "count"},
    {"service.query_ns", "ns"},
    {"macromodel.extract_s", "s"},
    {"hiergraph.build_s", "s"},
    {"hiergraph.sweep_s", "s"},
    {"hiergraph.vertices", "count"},
    {"scaling.construct_ratio", "x"},
    {"scaling.prepare_ratio", "x"},
    {"scaling.baseline_ratio", "x"},
    {"scaling.flagged", "count"},
    {"trace.overhead_frac", "frac"},
    {"run.threads", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{dense_sweep|compound_sweep|eco_service|hier_1m} --seed N "
               "--seconds S --trace {0|1} [--threads T] [--trace-out PATH]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--threads") {
      opt.threads = std::atoi(value);
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (opt.threads < 1) usage("--threads must be at least 1");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse(argc, argv);
  if (opt.trace) perfbench::Tracer::get().set_enabled(true);
  std::printf("workload %s, seed %llu, %d threads, %.3g s measured, %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.threads, opt.seconds, opt.trace ? "traced" : "untraced");

  perfbench::Result result;
  try {
    if (opt.workload == "dense_sweep") {
      perfbench::run_dense_sweep(opt, result);
    } else if (opt.workload == "compound_sweep") {
      perfbench::run_compound_sweep(opt, result);
    } else if (opt.workload == "eco_service") {
      perfbench::run_eco_service(opt, result);
    } else if (opt.workload == "hier_1m") {
      perfbench::run_hier_1m(opt, result);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  auto& tracer = perfbench::Tracer::get();
  if (opt.trace) {
    result.set("run.threads", opt.threads);
    std::printf("-- span self time (name: count, total s, self s) --\n");
    for (const auto& [name, t] : tracer.totals()) {
      std::printf("  %-24s %6zu %10.4f %10.4f\n", name.c_str(), t.count,
                  t.total, t.self);
    }
    if (!opt.trace_out.empty()) {
      tracer.write(opt.trace_out);
      std::printf("spans written to %s\n", opt.trace_out.c_str());
    }
  }

  std::printf("attempted %llu, failed %llu, failed_frac %.6g\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.attempted == 0
                  ? 1.0
                  : static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted));

  std::printf("-- %s metrics --\n", opt.trace ? "per-layer" : "end-to-end");
  std::string json = "{\"metrics\": {";
  bool first = true;
  for (const auto& def : opt.trace ? std::span<const MetricDef>(kPerLayer)
                                   : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = result.metrics.find(def.name);
    if (it == result.metrics.end() && !opt.trace) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                   opt.workload.c_str(), def.name);
      return 1;
    }
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s measured a non-finite %s\n",
                   opt.workload.c_str(), def.name);
      return 1;
    }
    std::printf("  %-28s %.6g %s\n", def.name, value, def.unit);
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", def.name, value, def.unit);
    json += buf;
    first = false;
  }
  const bool correct =
      result.checks_ran && result.failed == 0 && result.attempted > 0;
  char tail[160];
  std::snprintf(tail, sizeof tail,
                "}, \"correct\": %s, \"attempted\": %llu, \"failed\": %llu}",
                correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
  json += tail;
  std::printf("%s\n", json.c_str());
  return 0;
}
