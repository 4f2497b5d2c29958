#include "nanocost/regularity/extractor.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "nanocost/bytes/codec.hpp"

namespace nanocost::regularity {

using layout::Coord;
using layout::Rect;

namespace {

// FNV-1a seeded with this constant (not the standard offset basis); the
// seed is kept so pattern hashes are unchanged.
constexpr std::uint64_t kRectHashSeed = 1469598103934665603ULL;

void hash_value(std::uint64_t& h, std::int64_t v) {
  h = bytes::fnv1a(bytes::to_le(static_cast<std::uint64_t>(v)), h);
}

std::uint64_t hash_rects(std::vector<Rect>& rects) {
  std::sort(rects.begin(), rects.end(), [](const Rect& a, const Rect& b) {
    return std::tie(a.layer, a.x0, a.y0, a.x1, a.y1) <
           std::tie(b.layer, b.x0, b.y0, b.x1, b.y1);
  });
  std::uint64_t h = kRectHashSeed;
  for (const Rect& r : rects) {
    hash_value(h, static_cast<std::int64_t>(r.layer));
    hash_value(h, r.x0);
    hash_value(h, r.y0);
    hash_value(h, r.x1);
    hash_value(h, r.y1);
  }
  return h;
}

/// Maps a window-relative rect under one of the eight orientations of
/// the square window [0,w]^2 back onto [0,w]^2.
Rect orient_in_window(const Rect& r, layout::Orientation o, Coord w) {
  layout::Transform t;
  t.orientation = o;
  Rect out = t.apply(r);
  // Post-orientation offset that returns the window to [0,w]^2.
  static constexpr int kOffsets[layout::kOrientationCount][2] = {
      {0, 0},  // R0
      {1, 0},  // R90
      {1, 1},  // R180
      {0, 1},  // R270
      {0, 1},  // MX
      {1, 0},  // MY
      {0, 0},  // MXR90
      {1, 1},  // MYR90
  };
  const auto idx = static_cast<int>(o);
  return out.translated(kOffsets[idx][0] * w, kOffsets[idx][1] * w);
}

std::uint64_t fingerprint_window(const std::vector<Rect>& rel_rects, Coord window,
                                 bool orientation_invariant) {
  std::vector<Rect> scratch = rel_rects;
  if (!orientation_invariant) {
    return hash_rects(scratch);
  }
  std::uint64_t best = ~0ULL;
  for (int o = 0; o < layout::kOrientationCount; ++o) {
    scratch.clear();
    for (const Rect& r : rel_rects) {
      scratch.push_back(orient_in_window(r, static_cast<layout::Orientation>(o), window));
    }
    best = std::min(best, hash_rects(scratch));
  }
  return best;
}

}  // namespace

double RegularityReport::regularity_index() const noexcept {
  if (total_windows <= 0) return 0.0;
  return 1.0 - static_cast<double>(unique_patterns) / static_cast<double>(total_windows);
}

double RegularityReport::top_k_coverage(std::int64_t k) const noexcept {
  if (total_windows <= 0 || k <= 0) return 0.0;
  std::int64_t covered = 0;
  for (std::size_t i = 0; i < census.size() && static_cast<std::int64_t>(i) < k; ++i) {
    covered += census[i].occurrences;
  }
  return static_cast<double>(covered) / static_cast<double>(total_windows);
}

double RegularityReport::pattern_entropy_bits() const noexcept {
  if (total_windows <= 0) return 0.0;
  double h = 0.0;
  const double n = static_cast<double>(total_windows);
  for (const PatternClass& pc : census) {
    const double p = static_cast<double>(pc.occurrences) / n;
    if (p > 0.0) h -= p * std::log2(p);
  }
  return h;
}

RegularityReport extract_patterns(const std::vector<Rect>& rects, const ExtractorParams& params) {
  if (params.window <= 0) {
    throw std::invalid_argument("extractor window must be positive");
  }
  RegularityReport report;
  if (rects.empty()) return report;

  Coord min_x = rects[0].x0, min_y = rects[0].y0;
  Coord max_x = rects[0].x1, max_y = rects[0].y1;
  for (const Rect& r : rects) {
    min_x = std::min(min_x, r.x0);
    min_y = std::min(min_y, r.y0);
    max_x = std::max(max_x, r.x1);
    max_y = std::max(max_y, r.y1);
  }
  const Coord w = params.window;
  const std::int64_t nx = (max_x - min_x + w - 1) / w;
  const std::int64_t ny = (max_y - min_y + w - 1) / w;

  // Distribute clipped, window-relative rectangles into windows.
  std::unordered_map<std::int64_t, std::vector<Rect>> windows;
  for (const Rect& r : rects) {
    const std::int64_t wx0 = (r.x0 - min_x) / w;
    const std::int64_t wx1 = (r.x1 - 1 - min_x) / w;
    const std::int64_t wy0 = (r.y0 - min_y) / w;
    const std::int64_t wy1 = (r.y1 - 1 - min_y) / w;
    for (std::int64_t wy = wy0; wy <= wy1; ++wy) {
      for (std::int64_t wx = wx0; wx <= wx1; ++wx) {
        const Coord ox = min_x + wx * w;
        const Coord oy = min_y + wy * w;
        const Rect window_box{r.layer, ox, oy, ox + w, oy + w};
        Rect clipped = r.intersection(window_box);
        clipped = clipped.translated(-ox, -oy);
        windows[wy * nx + wx].push_back(clipped);
      }
    }
  }

  // Fingerprint census.
  std::unordered_map<std::uint64_t, PatternClass> census;
  for (auto& [key, rel_rects] : windows) {
    (void)key;
    const std::uint64_t fp =
        fingerprint_window(rel_rects, w, params.orientation_invariant);
    PatternClass& pc = census[fp];
    pc.fingerprint = fp;
    pc.occurrences += 1;
    pc.rect_count = static_cast<std::int32_t>(rel_rects.size());
  }

  const std::int64_t occupied = static_cast<std::int64_t>(windows.size());
  report.empty_windows = nx * ny - occupied;
  report.total_windows = params.ignore_empty_windows ? occupied : nx * ny;
  if (!params.ignore_empty_windows && report.empty_windows > 0) {
    PatternClass empty;
    empty.fingerprint = 0;
    empty.occurrences = report.empty_windows;
    empty.rect_count = 0;
    census[0] = empty;
  }
  report.unique_patterns = static_cast<std::int64_t>(census.size());
  report.census.reserve(census.size());
  for (const auto& [fp, pc] : census) {
    (void)fp;
    report.census.push_back(pc);
  }
  std::sort(report.census.begin(), report.census.end(),
            [](const PatternClass& a, const PatternClass& b) {
              if (a.occurrences != b.occurrences) return a.occurrences > b.occurrences;
              return a.fingerprint < b.fingerprint;
            });
  return report;
}

RegularityReport extract_patterns(const layout::Cell& top, const ExtractorParams& params) {
  std::vector<Rect> rects;
  rects.reserve(static_cast<std::size_t>(top.flat_rect_count()));
  layout::for_each_flat_rect(top, layout::Transform{},
                             [&](const Rect& r) { rects.push_back(r); });
  return extract_patterns(rects, params);
}

}  // namespace nanocost::regularity
