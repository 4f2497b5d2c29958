// Shared plumbing of the nanocost benchmark program: arguments, seeded
// input streams, clocks, percentiles, the result report, the trace
// reader, and the usable-core probe.  Workloads live in served.cpp
// (serve_hot / serve_cold / serve_campaign) and pd_flow.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "nanocost/obs/metrics.hpp"

namespace bench {

struct Args final {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch root for sockets, artifact tiers and trace files; a
  /// per-process subdirectory is created under it and removed at exit.
  std::string workdir = ".bench_build/run";
};

/// SplitMix64 stream: every generated input derives from the run seed.
class Rng final {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept;
  /// Uniform in [0, 1).
  double unit() noexcept;
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * unit(); }
  double log_uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) noexcept;
  /// Exponential with the given mean.
  double exponential(double mean) noexcept;

 private:
  std::uint64_t state_;
};

/// Stable 64-bit mix of a seed with stream identifiers.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) noexcept;

double now_s() noexcept;   ///< steady clock, seconds
double cpu_s() noexcept;   ///< process user+system CPU, seconds (getrusage)
double peak_rss_mb() noexcept;

/// Nearest-rank percentile (q in [0,1]) of `v`.  Failed operations are
/// recorded as +infinity, so they miss every percentile they reach.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Every workload runs its own traffic this long between set-up and the
/// timed window, so the result cache, the artifact tier and the kernel's
/// file-system caches are in their steady state when timing starts.
inline constexpr double kWarmupSeconds = 2.0;

/// Latency samples of one operation kind within one timed window.
struct KindLatency final {
  std::vector<double> ms;  ///< one entry per attempt; kMissed when it failed
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  void record_ok(double latency_ms) {
    ms.push_back(latency_ms);
    ++ok;
  }
  void record_failed() {
    ms.push_back(kMissed);
    ++failed;
  }
  void absorb(const KindLatency& other);
};

/// Attempted / ok / failed for one phase of a workload.
struct PhaseCount final {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
};

/// The end-to-end figures of one timed window, common to every workload.
struct Window final {
  KindLatency light;  ///< cheaper operation kind of the workload
  KindLatency heavy;  ///< costlier operation kind of the workload
  double wall_s = 0.0;
  double cpu_s = 0.0;
  [[nodiscard]] std::uint64_t ok() const { return light.ok + heavy.ok; }
  [[nodiscard]] std::uint64_t failed() const { return light.failed + heavy.failed; }
  [[nodiscard]] std::uint64_t attempted() const { return ok() + failed(); }
  [[nodiscard]] double ok_per_s() const { return wall_s > 0 ? ok() / wall_s : 0.0; }
};

/// Collects metrics and notes; prints the human-readable lines as they
/// come and the final JSON object as the last line of stdout.
class Report final {
 public:
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  void metric(const std::string& name, double value, const std::string& unit);
  void phase(const PhaseCount& p);
  void fail_check(const std::string& why);
  [[nodiscard]] bool correct() const noexcept { return correct_; }
  void set_totals(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  void print_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Median of `reps` timed calls of `setup_once`, in seconds.  Each call
/// builds the workload's whole environment after an untimed `teardown`
/// of the previous one; the caller keeps the last.
double time_setups(int reps, const std::function<void()>& teardown,
                   const std::function<void()>& setup_once);

/// The end-to-end metrics every workload reports, from its untraced
/// window.  `light_tail_q` / `heavy_tail_q` are the tail percentiles the
/// workload's sample counts support (0.99 or 0.90).
void report_end_to_end(Report& report, const Window& w, double setup_s,
                       double light_tail_q, double heavy_tail_q, const char* light_name,
                       const char* heavy_name);

// ---- traces and scraped metrics ------------------------------------------

/// Per-span-name totals of one Chrome trace written by obs::stop_trace.
/// Self time is the span's duration minus the time its direct children
/// on the same thread cover.
struct SpanTotals final {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  [[nodiscard]] double mean_us() const { return count ? total_us / count : 0.0; }
  [[nodiscard]] double mean_self_us() const { return count ? self_us / count : 0.0; }
};
std::map<std::string, SpanTotals> read_trace(const std::string& path);

/// Counters and histograms changed over one window (obs::delta_stats).
class Scrape final {
 public:
  Scrape(const nanocost::obs::MetricsSnapshot& before,
         const nanocost::obs::MetricsSnapshot& after);
  [[nodiscard]] double counter(const std::string& name) const;
  [[nodiscard]] const nanocost::obs::HistogramSnapshot* histogram(const std::string& name) const;
  [[nodiscard]] double hist_count(const std::string& name) const;
  [[nodiscard]] double hist_mean(const std::string& name) const;
  [[nodiscard]] double hist_quantile(const std::string& name, double q) const;

 private:
  nanocost::obs::MetricsSnapshot delta_;
};

/// a / b, or 0 when b is 0 (a layer the workload does not exercise).
inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Per-layer figures a workload measures itself (timed direct calls,
/// client-side samples); the rest come from the scrape and the trace.
/// Layers a workload does not exercise stay 0.
struct Layers final {
  double ok_ops = 0;
  double server_us_p50 = 0, outside_us_p50 = 0, encode_us = 0, decode_us = 0;
  double coalesced_share = 0, bytes_per_req = 0, inflight_max = 0;
  double eq4_us = 0, risk_us = 0, lot_us = 0;
  double wafers_per_op = 0, artifact_hit_share = 0;
  double checkpoint_bytes_per_op = 0, artifact_stores_per_op = 0, wave_ms_p50 = 0;
  double queue_depth_max = 0, shed_share = 0;
  double anneal_us = 0, route_us = 0, analyze_us = 0;
  double tier_fresh_us = 0, tier_replay_us = 0;
};

/// Prints every per-layer metric of the traced run.
void report_layers(Report& report, const Layers& l, const Scrape& s,
                   const std::map<std::string, SpanTotals>& spans, const Window& untraced,
                   const Window& traced, double usable_cores);

/// Runs `threads` raw std::thread spins of fixed work and compares their
/// wall time with one spin alone: usable cores = threads * t1 / tN.
double usable_core_probe(int threads);

/// Restricts the calling thread -- and every thread it creates later --
/// to the highest-numbered CPU it may run on; returns that CPU (-1 when
/// the affinity call fails and the run stays unpinned).
int pin_to_one_cpu();

// ---- workloads ------------------------------------------------------------

int run_served(const Args& args, const std::string& dir, Report& report, double usable_cores);
int run_pd_flow(const Args& args, const std::string& dir, Report& report, double usable_cores);

}  // namespace bench
