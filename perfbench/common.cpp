#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "charlib/characterize.hpp"
#include "netlist/generators.hpp"

namespace perfbench {

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    // Nearest-rank percentile.
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
  };
  s.min = samples.front();
  s.max = samples.back();
  s.median = median(samples);
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const double beyond =
        static_cast<double>(samples.size()) * (1.0 - pct / 100.0);
    if (beyond >= 10.0) {
      s.tail_pct = pct;
      s.tail = at(pct / 100.0);
      break;
    }
  }
  return s;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::string describe(const Summary& s, double scale, const char* unit) {
  char tail[64] = "no tail: < 40 samples";
  if (s.tail_pct > 0.0) {
    std::snprintf(tail, sizeof tail, "p%g %.4g %s", s.tail_pct, s.tail * scale,
                  unit);
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "median %.4g %s, %s, range [%.4g, %.4g] (n=%zu)",
                s.median * scale, unit, tail, s.min * scale, s.max * scale,
                s.n);
  return buf;
}

double peak_rss_mb() {
  size_t kb = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %zu", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return static_cast<double>(kb) / 1024.0;
}

namespace {

/// Restarts the VmHWM high-water mark at the current RSS (Linux
/// /proc/self/clear_refs), so the next peak_rss_mb() covers only what
/// ran since — the measured loop, not the references checked before it.
void reset_peak_rss() {
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.start = since(t0_);
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int index) {
  spans_[static_cast<size_t>(index)].end = since(t0_);
  // Spans are strictly nested (RAII), so the closing one is innermost.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name && s.end >= s.start) out.push_back(s.end - s.start);
  }
  return out;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& t = out[spans_[i].name];
    const double d = spans_[i].end - spans_[i].start;
    ++t.count;
    t.total += d;
    t.self += d - child[i];
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& s : spans_) {
    char buf[64];
    out << "{\"name\": \"" << s.name << "\", ";
    std::snprintf(buf, sizeof buf, "\"start\": %.9f, \"end\": %.9f, ", s.start,
                  s.end);
    out << buf << "\"parent\": " << s.parent << "}\n";
  }
}

double span_median(const std::string& name) {
  return median(Tracer::get().durations(name));
}

std::vector<double> measure(const Options& opt, Result& result,
                            size_t min_ops, const std::function<double()>& op,
                            const std::function<void(bool)>& toggle) {
  const auto loop = [&](double seconds) {
    std::vector<double> samples;
    const auto t0 = Clock::now();
    while (samples.size() < min_ops || since(t0) < seconds) {
      samples.push_back(op());
    }
    return samples;
  };
  if (!opt.trace) {
    reset_peak_rss();
    auto samples = loop(opt.seconds);
    result.set("peak_rss_mb", peak_rss_mb());
    return samples;
  }
  auto& tracer = Tracer::get();
  tracer.set_enabled(false);
  const auto plain = loop(0.5 * opt.seconds);
  tracer.set_enabled(true);
  if (toggle) toggle(true);
  auto traced = loop(0.5 * opt.seconds);
  if (toggle) toggle(false);
  result.set("trace.overhead_frac", median(traced) / median(plain) - 1.0);
  return traced;
}

wl::core::Fit TimedMethod::fit(const wl::core::MethodInput& input) const {
  const auto t0 = Clock::now();
  auto fit = inner_->fit(input);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count();
  counters_->fits.fetch_add(1, std::memory_order_relaxed);
  counters_->ns.fetch_add(static_cast<uint64_t>(ns),
                          std::memory_order_relaxed);
  return fit;
}

void FitTiming::toggle(bool on) {
  if (on) {
    sta_.set_noise_method(
        std::make_unique<TimedMethod>(plain_->clone(), counters_));
  } else {
    sta_.set_noise_method(plain_->clone());
  }
}

void FitTiming::report(Result& result, size_t ops) const {
  const auto fits = counters_->fits.load();
  result.set("core.fits", static_cast<double>(fits) / static_cast<double>(ops));
  result.set("core.fit_us",
             fits == 0 ? 0.0
                       : static_cast<double>(counters_->ns.load()) * 1e-3 /
                             static_cast<double>(fits));
}

void record_setup(Result& result, const std::vector<double>& times) {
  result.set("setup_s", median(times));
  std::printf("setup: %s\n", describe(summarize(times), 1.0, "s").c_str());
  for (const char* span : {"charlib.build", "netlist.generate",
                           "engine.construct", "engine.prepare",
                           "engine.baseline", "macromodel.extract"}) {
    if (!Tracer::get().durations(span).empty()) {
      result.set(std::string(span) + "_s", span_median(span));
    }
  }
}

// ---------------------------------------------------------------------------
// Shared inputs
// ---------------------------------------------------------------------------

uint64_t Rng::next() {
  uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) / static_cast<double>(1ull << 53);
}

wl::liberty::Library build_library() {
  const Scope span("charlib.build");
  return wl::charlib::build_vcl013_library_fast();
}

wl::netlist::Netlist random_dag(uint64_t seed, int inputs, int layers,
                                int width) {
  const Scope span("netlist.generate");
  return wl::netlist::make_random_dag(seed, inputs, layers, width);
}

void constrain(wl::sta::StaEngine& sta, const wl::netlist::Netlist& nl,
               double required) {
  int i = 0;
  int o = 0;
  for (const auto& port : nl.ports()) {
    if (port.direction == wl::netlist::PortDirection::kInput) {
      sta.set_input(port.name, 0.008e-9 * i, (75 + 9 * (i % 13)) * 1e-12);
      ++i;
    } else {
      sta.set_output_load(port.name, (4 + (o % 3)) * 1e-15);
      sta.set_required(port.name, required);
      ++o;
    }
  }
}

std::vector<wl::sta::Corner> two_corners() {
  wl::sta::Corner slow;
  slow.name = "slow";
  slow.cell_delay_scale = 1.12;
  slow.cell_slew_scale = 1.08;
  slow.wire_delay_scale = 1.25;
  return {wl::sta::Corner{}, slow};
}

}  // namespace perfbench
