#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "nanocost/obs/stats.hpp"

namespace bench {

namespace obs = nanocost::obs;

std::uint64_t Rng::next() noexcept {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::unit() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

double Rng::log_uniform(double lo, double hi) noexcept {
  return std::exp(uniform(std::log(lo), std::log(hi)));
}

std::uint64_t Rng::below(std::uint64_t n) noexcept { return n ? next() % n : 0; }

double Rng::exponential(double mean) noexcept { return -mean * std::log1p(-unit()); }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) noexcept {
  Rng r(seed ^ (a * 0xD1B54A32D192ED03ULL) ^ (b * 0x8CB92BA72F3D8DD7ULL));
  r.next();
  return r.next();
}

double now_s() noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q * static_cast<double>(v.size())), 1.0,
                 static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void KindLatency::absorb(const KindLatency& other) {
  ms.insert(ms.end(), other.ms.begin(), other.ms.end());
  ok += other.ok;
  failed += other.failed;
}

// ---- report ---------------------------------------------------------------

void Report::note(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
  std::fflush(stdout);
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    // JSON has no infinity: a percentile that only failed operations
    // reach is reported as a huge, clearly-missed value.
    value = 1e12;
  }
  metrics_.push_back({name, {value, unit}});
  note("  %-32s %.6g %s", name.c_str(), value, unit.c_str());
}

void Report::phase(const PhaseCount& p) {
  note("phase %-10s attempted=%llu ok=%llu failed=%llu", p.name.c_str(),
       static_cast<unsigned long long>(p.attempted), static_cast<unsigned long long>(p.ok),
       static_cast<unsigned long long>(p.failed));
}

void Report::fail_check(const std::string& why) {
  correct_ = false;
  note("CHECK FAILED: %s", why.c_str());
}

void Report::print_json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].second.first);
    out += "\"" + metrics_[i].first + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics_[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double time_setups(int reps, const std::function<void()>& teardown,
                   const std::function<void()>& setup_once) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    teardown();
    const double t0 = now_s();
    setup_once();
    times.push_back(now_s() - t0);
  }
  return median(times);
}

void report_end_to_end(Report& report, const Window& w, double setup_s, double light_tail_q,
                       double heavy_tail_q, const char* light_name, const char* heavy_name) {
  report.note("end-to-end (untraced window %.3f s, light=%s n=%zu, heavy=%s n=%zu; tails: "
              "light p%.0f, heavy p%.0f)",
              w.wall_s, light_name, w.light.ms.size(), heavy_name, w.heavy.ms.size(),
              light_tail_q * 100, heavy_tail_q * 100);
  report.metric("setup_s", setup_s, "s");
  report.metric("ok_per_s", w.ok_per_s(), "1/s");
  report.metric("light_p50_ms", percentile(w.light.ms, 0.5), "ms");
  report.metric("light_tail_ms", percentile(w.light.ms, light_tail_q), "ms");
  report.metric("heavy_p50_ms", percentile(w.heavy.ms, 0.5), "ms");
  report.metric("heavy_tail_ms", percentile(w.heavy.ms, heavy_tail_q), "ms");
  report.metric("cpu_ms_per_op", ratio(w.cpu_s * 1e3, static_cast<double>(w.ok())), "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

// ---- traces and scrapes -----------------------------------------------------

std::map<std::string, SpanTotals> read_trace(const std::string& path) {
  struct Event {
    std::string name;
    int tid = 0;
    double ts = 0.0;
    double dur = 0.0;
    double child = 0.0;
  };
  std::vector<Event> events;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t n0 = line.find("{\"name\": \"");
    if (n0 == std::string::npos) continue;
    const std::size_t name_begin = n0 + 10;
    const std::size_t name_end = line.find('"', name_begin);
    const std::size_t tid_at = line.find("\"tid\": ");
    const std::size_t ts_at = line.find("\"ts\": ");
    const std::size_t dur_at = line.find("\"dur\": ");
    if (name_end == std::string::npos || tid_at == std::string::npos ||
        ts_at == std::string::npos || dur_at == std::string::npos) {
      continue;
    }
    Event e;
    e.name = line.substr(name_begin, name_end - name_begin);
    e.tid = std::atoi(line.c_str() + tid_at + 7);
    e.ts = std::strtod(line.c_str() + ts_at + 6, nullptr);
    e.dur = std::strtod(line.c_str() + dur_at + 7, nullptr);
    events.push_back(std::move(e));
  }
  // Per thread, in start order with enclosing spans first, a stack of
  // open spans gives each span its direct parent.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  std::vector<std::size_t> stack;
  int tid = -1;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].tid != tid) {
      stack.clear();
      tid = events[i].tid;
    }
    while (!stack.empty() &&
           events[stack.back()].ts + events[stack.back()].dur <= events[i].ts + 1e-3) {
      stack.pop_back();
    }
    if (!stack.empty()) events[stack.back()].child += events[i].dur;
    stack.push_back(i);
  }
  std::map<std::string, SpanTotals> totals;
  for (const Event& e : events) {
    SpanTotals& t = totals[e.name];
    ++t.count;
    t.total_us += e.dur;
    t.self_us += std::max(0.0, e.dur - e.child);
  }
  return totals;
}

Scrape::Scrape(const obs::MetricsSnapshot& before, const obs::MetricsSnapshot& after)
    : delta_(obs::delta_stats(after, before)) {}

double Scrape::counter(const std::string& name) const {
  for (const auto& [n, v] : delta_.counters) {
    if (n == name) return static_cast<double>(v);
  }
  return 0.0;
}

const obs::HistogramSnapshot* Scrape::histogram(const std::string& name) const {
  for (const auto& h : delta_.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

double Scrape::hist_count(const std::string& name) const {
  const obs::HistogramSnapshot* h = histogram(name);
  return h ? static_cast<double>(h->count) : 0.0;
}

double Scrape::hist_mean(const std::string& name) const {
  const obs::HistogramSnapshot* h = histogram(name);
  return h && h->count ? static_cast<double>(h->sum) / static_cast<double>(h->count) : 0.0;
}

double Scrape::hist_quantile(const std::string& name, double q) const {
  const obs::HistogramSnapshot* h = histogram(name);
  return h && h->count ? obs::histogram_quantile(*h, q) : 0.0;
}

void report_layers(Report& report, const Layers& l, const Scrape& s,
                   const std::map<std::string, SpanTotals>& spans, const Window& untraced,
                   const Window& traced, double usable_cores) {
  const auto span_self = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.mean_self_us();
  };
  const double hits = s.counter("cache.hits");
  const double misses = s.counter("cache.misses");
  report.note("per-layer (traced window %.3f s, %.0f ok ops; bases in parentheses)",
              traced.wall_s, l.ok_ops);
  report.note("  cache lookups=%.0f hits=%.0f misses=%.0f insert_bytes=%.0f", hits + misses,
              hits, misses, s.counter("cache.insert_bytes"));
  report.note("  exec chunks=%.0f batches=%.0f; cpu %.3f s / wall %.3f s (untraced)",
              s.counter("exec.chunks"), s.counter("exec.batches"), untraced.cpu_s,
              untraced.wall_s);
  report.metric("serve.server_us_p50", l.server_us_p50, "us");
  report.metric("serve.outside_us_p50", l.outside_us_p50, "us");
  report.metric("serve.client_encode_us", l.encode_us, "us");
  report.metric("serve.client_decode_us", l.decode_us, "us");
  report.metric("serve.coalesced_share", l.coalesced_share, "share");
  report.metric("serve.bytes_per_req", l.bytes_per_req, "B");
  report.metric("serve.inflight_max", l.inflight_max, "count");
  report.metric("cache.hit_share", ratio(hits, hits + misses), "share");
  report.metric("cache.lookup_us", span_self("cache.lookup"), "us");
  report.metric("cache.insert_bytes_per_miss", ratio(s.counter("cache.insert_bytes"), misses),
                "B");
  report.metric("core.eq4_us", l.eq4_us, "us");
  report.metric("core.risk_us", l.risk_us, "us");
  report.metric("exec.chunks_per_op", ratio(s.counter("exec.chunks"), l.ok_ops), "count");
  report.metric("exec.batches_per_op", ratio(s.counter("exec.batches"), l.ok_ops), "count");
  report.metric("exec.effective_parallelism", ratio(untraced.cpu_s, untraced.wall_s), "cores");
  report.metric("exec.chunk_us", span_self("exec.chunk"), "us");
  report.metric("exec.usable_cores", usable_cores, "cores");
  report.metric("fabsim.wafers_per_op", l.wafers_per_op, "count");
  report.metric("fabsim.lot_us", l.lot_us, "us");
  report.metric("robust.artifact_hit_share", l.artifact_hit_share, "share");
  report.metric("robust.checkpoint_us", span_self("robust.checkpoint"), "us");
  report.metric("robust.checkpoint_bytes_per_op", l.checkpoint_bytes_per_op, "B");
  report.metric("robust.artifact_stores_per_op", l.artifact_stores_per_op, "count");
  report.metric("robust.tier_fresh_us", l.tier_fresh_us, "us");
  report.metric("robust.tier_replay_us", l.tier_replay_us, "us");
  report.metric("robust.wave_ms_p50", l.wave_ms_p50, "ms");
  report.metric("robust.queue_depth_max", l.queue_depth_max, "count");
  report.metric("robust.shed_share", l.shed_share, "share");
  const auto anneal = spans.find("place.anneal");
  const double moves = s.counter("place.moves_tried");
  report.metric("place.anneal_us", l.anneal_us, "us");
  report.metric("place.ns_per_move",
                ratio(anneal == spans.end() ? 0.0 : anneal->second.total_us * 1e3, moves), "ns");
  report.metric("place.accept_share", ratio(s.counter("place.moves_accepted"), moves), "share");
  report.metric("route.route_us", l.route_us, "us");
  report.metric("timing.analyze_us", l.analyze_us, "us");
  report.metric("bench.fail_share",
                ratio(static_cast<double>(traced.failed()), static_cast<double>(traced.attempted())),
                "share");
  report.metric("obs.trace_overhead_share", 1.0 - ratio(traced.ok_per_s(), untraced.ok_per_s()),
                "share");
}

// ---- usable-core probe ------------------------------------------------------

namespace {

double spin_wall_s(int threads, std::int64_t iterations) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  std::vector<double> sink(static_cast<std::size_t>(threads), 0.0);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      double x = 0.0;
      for (std::int64_t k = 0; k < iterations; ++k) x += std::sqrt(static_cast<double>(k) + x);
      sink[static_cast<std::size_t>(t)] = x;
    });
  }
  while (ready.load() < threads) {
  }
  const double t0 = now_s();
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool) th.join();
  return now_s() - t0;
}

}  // namespace

double usable_core_probe(int threads) {
  constexpr std::int64_t kIterations = 16'000'000;
  const double one = spin_wall_s(1, kIterations);
  const double many = spin_wall_s(threads, kIterations);
  return many > 0.0 ? threads * one / many : 0.0;
}

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

}  // namespace bench
