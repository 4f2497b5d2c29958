#include "nanocost/obs/stats.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "nanocost/bytes/codec.hpp"

namespace nanocost::obs {

namespace {

constexpr std::uint8_t kTagCounter = 0x01;
constexpr std::uint8_t kTagGauge = 0x02;
constexpr std::uint8_t kTagHistogram = 0x03;
constexpr std::string_view kContext = "NCSTAT01 blob";

}  // namespace

std::vector<std::uint8_t> encode_stats(const MetricsSnapshot& snap) {
  bytes::ByteWriter w;
  w.magic(kStatMagic);
  w.u32(kStatVersion);
  w.u64(snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    w.u8(kTagCounter);
    w.str(name);
    w.u64(value);
  }
  w.u64(snap.gauges.size());
  for (const auto& [name, value] : snap.gauges) {
    w.u8(kTagGauge);
    w.str(name);
    w.f64(value);
  }
  w.u64(snap.histograms.size());
  for (const HistogramSnapshot& h : snap.histograms) {
    if (h.buckets.size() != h.bounds.size() + 1) {
      throw StatError("NCSTAT01 cannot encode histogram '" + h.name + "': " +
                      std::to_string(h.buckets.size()) + " buckets for " +
                      std::to_string(h.bounds.size()) + " bounds");
    }
    w.u8(kTagHistogram);
    w.str(h.name);
    w.u64(h.bounds.size());
    for (const std::uint64_t b : h.bounds) w.u64(b);
    for (const std::uint64_t b : h.buckets) w.u64(b);
    w.u64(h.count);
    w.u64(h.sum);
    w.u64(h.min);
    w.u64(h.max);
  }
  w.seal(sizeof(kStatMagic));
  return w.take();
}

MetricsSnapshot decode_stats(const std::vector<std::uint8_t>& blob) {
  bytes::ByteReader<StatError> r =
      bytes::open_envelope<StatError>(blob, kStatMagic, kContext);
  r.version(kStatVersion);

  const auto expect_tag = [&r](std::uint8_t want, const char* entry) {
    const std::uint8_t tag = r.u8(entry);
    if (tag != want) r.fail(std::string(entry) + " has wrong field tag " + std::to_string(tag));
  };

  MetricsSnapshot snap;
  // Smallest possible counter/gauge entry: tag + name length + value.
  const std::size_t n_counters = r.count(r.u64("counter count"), 1 + 8 + 8, "counter count");
  for (std::size_t i = 0; i < n_counters; ++i) {
    expect_tag(kTagCounter, "counter entry");
    std::string name = r.str("counter name", kMaxStatNameBytes);
    const std::uint64_t value = r.u64("counter value");
    snap.counters.emplace_back(std::move(name), value);
  }

  const std::size_t n_gauges = r.count(r.u64("gauge count"), 1 + 8 + 8, "gauge count");
  for (std::size_t i = 0; i < n_gauges; ++i) {
    expect_tag(kTagGauge, "gauge entry");
    std::string name = r.str("gauge name", kMaxStatNameBytes);
    const double value = r.f64("gauge value");
    snap.gauges.emplace_back(std::move(name), value);
  }

  // tag + name length + bound count + one bucket + count/sum/min/max.
  const std::size_t n_histograms =
      r.count(r.u64("histogram count"), 1 + 8 + 8 + 8 + 32, "histogram count");
  for (std::size_t i = 0; i < n_histograms; ++i) {
    expect_tag(kTagHistogram, "histogram entry");
    HistogramSnapshot h;
    h.name = r.str("histogram name", kMaxStatNameBytes);
    const std::uint64_t n_bounds = r.u64("histogram bound count");
    if (n_bounds > kMaxStatBounds) {
      r.fail("histogram '" + h.name + "' declares " + std::to_string(n_bounds) +
             " bounds (cap " + std::to_string(kMaxStatBounds) + ")");
    }
    // Each bound brings a bucket: 16 bytes per bound at least.
    const std::size_t n = r.count(n_bounds, 2 * 8, "histogram bound count");
    h.bounds.reserve(n);
    for (std::size_t b = 0; b < n; ++b) {
      h.bounds.push_back(r.u64("histogram bound"));
      if (b > 0 && h.bounds[b] <= h.bounds[b - 1]) {
        r.fail("histogram '" + h.name + "' bounds are not strictly ascending");
      }
    }
    h.buckets.reserve(n + 1);
    for (std::size_t b = 0; b <= n; ++b) h.buckets.push_back(r.u64("histogram bucket"));
    h.count = r.u64("histogram count");
    h.sum = r.u64("histogram sum");
    h.min = r.u64("histogram min");
    h.max = r.u64("histogram max");
    snap.histograms.push_back(std::move(h));
  }
  r.expect_end();
  return snap;
}

double histogram_quantile(const HistogramSnapshot& h, double q) noexcept {
  if (h.count == 0 || h.buckets.size() != h.bounds.size() + 1) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank in [1, count]: the k-th smallest sample the quantile names.
  const double target = std::max(1.0, q * static_cast<double>(h.count));
  double cum = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const double n = static_cast<double>(h.buckets[i]);
    if (n == 0.0) continue;
    if (cum + n < target) {
      cum += n;
      continue;
    }
    // The target rank lands in bucket i.
    if (i == h.bounds.size()) break;  // overflow bucket: the exact max is best
    const double lower = i == 0 ? 0.0 : static_cast<double>(h.bounds[i - 1]);
    const double upper = static_cast<double>(h.bounds[i]);
    const double v = lower + (upper - lower) * (target - cum) / n;
    // min/max are tracked exactly, so they tighten the first/last
    // buckets' edges for free.
    return std::clamp(v, static_cast<double>(h.min), static_cast<double>(h.max));
  }
  return static_cast<double>(h.max);
}

HistogramQuantiles histogram_quantiles(const HistogramSnapshot& h) noexcept {
  HistogramQuantiles out;
  out.p50 = histogram_quantile(h, 0.50);
  out.p90 = histogram_quantile(h, 0.90);
  out.p99 = histogram_quantile(h, 0.99);
  return out;
}

MetricsSnapshot delta_stats(const MetricsSnapshot& newer, const MetricsSnapshot& older) {
  MetricsSnapshot out;

  std::map<std::string, std::uint64_t> old_counters(older.counters.begin(),
                                                    older.counters.end());
  out.counters.reserve(newer.counters.size());
  for (const auto& [name, value] : newer.counters) {
    const auto it = old_counters.find(name);
    const std::uint64_t base = it != old_counters.end() ? it->second : 0;
    // A counter that shrank means the process restarted between
    // scrapes; the newer value is itself the delta since that restart.
    out.counters.emplace_back(name, value >= base ? value - base : value);
  }

  out.gauges = newer.gauges;  // levels: the newest reading is the answer

  std::map<std::string, const HistogramSnapshot*> old_hists;
  for (const HistogramSnapshot& h : older.histograms) old_hists.emplace(h.name, &h);
  out.histograms.reserve(newer.histograms.size());
  for (const HistogramSnapshot& h : newer.histograms) {
    HistogramSnapshot d = h;
    const auto it = old_hists.find(h.name);
    if (it != old_hists.end()) {
      const HistogramSnapshot& o = *it->second;
      const bool comparable = o.bounds == h.bounds && o.buckets.size() == h.buckets.size() &&
                              o.count <= h.count && o.sum <= h.sum;
      if (comparable) {
        bool monotone = true;
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
          if (h.buckets[i] < o.buckets[i]) {
            monotone = false;
            break;
          }
        }
        if (monotone) {
          for (std::size_t i = 0; i < h.buckets.size(); ++i) d.buckets[i] -= o.buckets[i];
          d.count -= o.count;
          d.sum -= o.sum;
          // min/max stay lifetime extremes: the registry cannot window
          // them, and a delta must not invent tighter ones.
        }
      }
    }
    out.histograms.push_back(std::move(d));
  }
  return out;
}

}  // namespace nanocost::obs
