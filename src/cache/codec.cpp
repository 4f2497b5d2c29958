#include "nanocost/cache/codec.hpp"

#include "nanocost/bytes/codec.hpp"

namespace nanocost::cache {

namespace {

using ByteReader = bytes::ByteReader<>;
using Bytes = std::vector<std::uint8_t>;
using bytes::ByteWriter;
using bytes::RecordOf;

constexpr std::string_view kContext = "cache blob";

/// Largest placement grid a cached multistart result may declare: a
/// 2048 x 2048 grid, far past the few-thousand-gate netlists the flow
/// places, and a 16 MiB site table at most.
constexpr std::int64_t kMaxPlacementSites = std::int64_t{1} << 22;

// ---- Field lists (bytes/codec.hpp) -------------------------------------
// One per cached result, fields in struct declaration order; a vector is
// a seq of its elements, counted against their encoded size before
// anything is allocated.

template <class IO, RecordOf<core::RiskResult> R>
void fields(IO& io, R& r) {
  io.f64("mean", r.mean);
  io.f64("stddev", r.stddev);
  io.f64("p10", r.p10);
  io.f64("p50", r.p50);
  io.f64("p90", r.p90);
  io.f64("prob_over_budget", r.prob_over_budget);
}

template <class IO, RecordOf<core::RobustOptimum> R>
void fields(IO& io, R& r) {
  io.f64("s_d", r.s_d);
  io.f64("quantile_cost", r.quantile_cost);
}

template <class IO, RecordOf<core::SweepPoint> R>
void fields(IO& io, R& p) {
  io.f64("s_d", p.s_d);
  io.f64("manufacturing", p.breakdown.manufacturing);
  io.f64("design", p.breakdown.design);
  io.f64("total", p.breakdown.total);
  io.f64("cd_sq", p.breakdown.cd_sq);
  io.f64("design_nre", p.breakdown.design_nre);
  io.f64("per_die", p.breakdown.per_die);
}

template <class IO, RecordOf<std::vector<core::SweepPoint>> R>
void fields(IO& io, R& points) {
  io.seq("sweep point count", points, 56, [&](auto& p) { fields(io, p); });
}

template <class IO, RecordOf<regularity::WindowSweepPoint> R>
void fields(IO& io, R& p) {
  io.i64("window", p.window);
  io.i64("total_windows", p.total_windows);
  io.i64("unique_patterns", p.unique_patterns);
  io.f64("regularity_index", p.regularity_index);
}

template <class IO, RecordOf<std::vector<regularity::WindowSweepPoint>> R>
void fields(IO& io, R& points) {
  io.seq("window sweep point count", points, 32, [&](auto& p) { fields(io, p); });
}

template <class IO, RecordOf<fabsim::LotResult> R>
void fields(IO& io, R& lot) {
  io.seq("wafer count", lot.wafers, 32, [&](auto& w) { fields(io, w); });
  io.i64("total_dies", lot.total_dies);
  io.i64("good_dies", lot.good_dies);
  io.seq("histogram length", lot.fault_histogram, 8, [&](auto& n) { io.i64("dies", n); });
}

/// A multistart result after its placement: the list its hand-written
/// encoder and decoder share (the decoder caps the grid before it
/// builds the placement).
template <class IO, RecordOf<place::MultistartResult> R>
void tail_fields(IO& io, R& r) {
  io.f64("initial_hpwl", r.best.initial_hpwl);
  io.f64("final_hpwl", r.best.final_hpwl);
  io.i64("moves_tried", r.best.moves_tried);
  io.i64("moves_accepted", r.best.moves_accepted);
  io.i32("best_start", r.best_start);
  io.i32("starts", r.starts);
  io.seq("start hpwl count", r.start_hpwls, 8, [&](auto& h) { io.f64("start hpwl", h); });
}

template <class R>
Bytes encode_record(const R& r) {
  ByteWriter w;
  fields(w, r);
  return w.take();
}

template <class R>
R decode_record(const Bytes& blob) {
  ByteReader in(blob, kContext);
  R r;
  fields(in, r);
  in.expect_end();
  return r;
}

}  // namespace

Bytes encode(const core::RiskResult& r) { return encode_record(r); }
Bytes encode(const core::RobustOptimum& r) { return encode_record(r); }
Bytes encode(const std::vector<core::SweepPoint>& r) { return encode_record(r); }
Bytes encode(const std::vector<regularity::WindowSweepPoint>& r) { return encode_record(r); }
Bytes encode(const fabsim::LotResult& r) { return encode_record(r); }

core::RiskResult decode_risk_result(const Bytes& blob) {
  return decode_record<core::RiskResult>(blob);
}

core::RobustOptimum decode_robust_optimum(const Bytes& blob) {
  return decode_record<core::RobustOptimum>(blob);
}

std::vector<core::SweepPoint> decode_sweep_points(const Bytes& blob) {
  return decode_record<std::vector<core::SweepPoint>>(blob);
}

std::vector<regularity::WindowSweepPoint> decode_window_sweep_points(const Bytes& blob) {
  return decode_record<std::vector<regularity::WindowSweepPoint>>(blob);
}

fabsim::LotResult decode_lot_result(const Bytes& blob) {
  return decode_record<fabsim::LotResult>(blob);
}

Bytes encode(const place::MultistartResult& r) {
  ByteWriter w;
  const place::Placement& p = r.best.placement;
  w.i32(p.rows());
  w.i32(p.cols());
  w.i32(p.gate_count());
  for (std::int32_t g = 0; g < p.gate_count(); ++g) w.i32(p.site_of(g));
  tail_fields(w, r);
  return w.take();
}

place::MultistartResult decode_multistart_result(const Bytes& blob) {
  ByteReader r(blob, kContext);
  const std::int32_t rows = r.i32();
  const std::int32_t cols = r.i32();
  const std::int32_t gates = r.i32();
  // A corrupt grid or gate count must not size the placement: the grid
  // is capped, and each gate owes an 8-byte site field.
  if (rows < 1 || cols < 1 || std::int64_t{rows} * cols > kMaxPlacementSites) {
    r.fail("placement grid " + std::to_string(rows) + " x " + std::to_string(cols) +
           " is outside 1.." + std::to_string(kMaxPlacementSites) + " sites");
  }
  (void)r.count(static_cast<std::uint64_t>(gates), 8, "gate count");
  place::Placement placement(rows, cols, gates);
  for (std::int32_t g = 0; g < gates; ++g) placement.assign(g, r.i32());
  place::MultistartResult out{place::PlaceResult{std::move(placement), 0.0, 0.0, 0, 0}, 0, 0,
                              {}};
  tail_fields(r, out);
  r.expect_end();
  return out;
}

}  // namespace nanocost::cache
