#include "nanocost/serve/jobs.hpp"

#include <cstdio>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "nanocost/bytes/codec.hpp"
#include "nanocost/cache/cached.hpp"
#include "nanocost/cache/codec.hpp"
#include "nanocost/cache/key.hpp"
#include "nanocost/core/risk_campaign.hpp"
#include "nanocost/robust/cancel.hpp"

namespace nanocost::serve {

namespace {

using ByteReader = bytes::ByteReader<>;
using Bytes = std::vector<std::uint8_t>;
using bytes::ByteWriter;
using bytes::RecordOf;

constexpr std::string_view kContext = "serve job payload";

// ---- Field lists (bytes/codec.hpp): one per payload --------------------
// The strong unit types of the inputs travel as doubles and are
// re-entered (and re-validated: Probability throws on a corrupt yield)
// when read.

template <class IO, RecordOf<Eq4Job> R>
void fields(IO& io, R& job) {
  io.u64("request_id", job.request_id);
  fields(io, job.inputs);
  io.f64("lo", job.lo);
  io.f64("hi", job.hi);
  io.i32("steps", job.steps);
}

template <class IO, RecordOf<RiskJob> R>
void fields(IO& io, R& job) {
  io.u64("request_id", job.request_id);
  fields(io, job.inputs);
  io.f64("s_d", job.s_d);
  io.i32("samples", job.samples);
  io.u64("seed", job.seed);
  io.f64("die_budget", job.die_budget);
}

template <class IO, RecordOf<CampaignJob> R>
void fields(IO& io, R& job) {
  io.u64("request_id", job.request_id);
  io.f64("wafer_diameter_mm", job.wafer_diameter_mm);
  io.f64("wafer_edge_exclusion_mm", job.wafer_edge_exclusion_mm);
  io.f64("wafer_scribe_mm", job.wafer_scribe_mm);
  io.f64("die_width_mm", job.die_width_mm);
  io.f64("die_height_mm", job.die_height_mm);
  io.f64("size_xmin_um", job.size_xmin_um);
  io.f64("size_peak_um", job.size_peak_um);
  io.f64("size_xmax_um", job.size_xmax_um);
  io.f64("size_q", job.size_q);
  io.f64("defect_density_per_cm2", job.defect_density_per_cm2);
  io.f64("cluster_alpha", job.cluster_alpha);
  io.boolean("clustered", job.clustered);
  io.f64("radial_edge_boost", job.radial_edge_boost);
  io.f64("radial_sharpness", job.radial_sharpness);
  io.f64("wire_width_um", job.wire_width_um);
  io.f64("wire_spacing_um", job.wire_spacing_um);
  io.f64("wire_length_um", job.wire_length_um);
  io.i32("wire_count", job.wire_count);
  io.i64("n_wafers", job.n_wafers);
  io.u64("seed", job.seed);
  io.i64("max_chunks", job.max_chunks);
}

template <class IO, RecordOf<Response> R>
void fields(IO& io, R& r) {
  io.u64("request_id", r.request_id);
  io.u8("status", r.status, ResponseStatus::kError);
  io.str("message", r.message);
  io.bytes("result", r.result);
  io.f64("completeness", r.completeness);
  io.i64("frontier_chunks", r.frontier_chunks);
  io.u64("artifact_hits", r.artifact_hits);
  io.boolean("coalesced", r.coalesced);
}

template <class IO, RecordOf<StatsReport> R>
void fields(IO& io, R& report) {
  io.u64("request_id", report.request_id);
  io.str("server_version", report.server_version);
  io.str("simd_level", report.simd_level);
  io.wide_u32("hardware_concurrency", report.hardware_concurrency);
  io.u64("pid", report.pid);
  io.u64("uptime_ms", report.uptime_ms);
  io.bytes("stats", report.stats);
}

template <class IO, RecordOf<HelloRequest> R>
void fields(IO& io, R& hello) {
  io.u64("request_id", hello.request_id);
  io.wide_u32("protocol_version", hello.protocol_version);
  io.str("build_version", hello.build_version);
  io.str("tenant", hello.tenant);
  io.wide_u32("attempt", hello.attempt);
}

template <class IO, RecordOf<HelloAck> R>
void fields(IO& io, R& ack) {
  io.u64("request_id", ack.request_id);
  io.wide_u32("protocol_version", ack.protocol_version);
  io.str("build_version", ack.build_version);
}

/// Throws when `count` units of `unit_bytes` each pass the request cap.
/// A NaN or negative count passes: the kernels reject it by name.
void charge(const char* field, double count, double unit_bytes) {
  const double bytes = count * unit_bytes;
  if (!(bytes > static_cast<double>(kMaxRequestBytes))) return;
  char text[160];
  std::snprintf(text, sizeof(text), "%s = %.10g prices %.3g bytes, over the %llu-byte request cap",
                field, count, bytes, static_cast<unsigned long long>(kMaxRequestBytes));
  throw std::length_error(text);
}

template <class R>
Bytes encode_record(const R& r) {
  ByteWriter w;
  fields(w, r);
  return w.take();
}

template <class R>
R decode_record(const Bytes& payload) {
  ByteReader in(payload, kContext);
  R r;
  fields(in, r);
  in.expect_end();
  return r;
}

}  // namespace

fabsim::FabSimulator make_simulator(const CampaignJob& job) {
  return fabsim::FabSimulator(
      geometry::WaferSpec(units::Millimeters{job.wafer_diameter_mm},
                          units::Millimeters{job.wafer_edge_exclusion_mm},
                          units::Millimeters{job.wafer_scribe_mm}),
      geometry::DieSize(units::Millimeters{job.die_width_mm},
                        units::Millimeters{job.die_height_mm}),
      defect::DefectSizeDistribution(units::Micrometers{job.size_xmin_um},
                                     units::Micrometers{job.size_peak_um},
                                     units::Micrometers{job.size_xmax_um}, job.size_q),
      defect::DefectFieldParams{
          job.defect_density_per_cm2, job.cluster_alpha, job.clustered,
          defect::RadialProfile(job.radial_edge_boost, job.radial_sharpness)},
      defect::WireArray(units::Micrometers{job.wire_width_um},
                        units::Micrometers{job.wire_spacing_um},
                        units::Micrometers{job.wire_length_um}, job.wire_count));
}

const char* response_status_name(ResponseStatus s) noexcept {
  switch (s) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kPartial:
      return "partial";
    case ResponseStatus::kShed:
      return "shed";
    case ResponseStatus::kExpired:
      return "expired";
    case ResponseStatus::kStopped:
      return "stopped";
    case ResponseStatus::kError:
      return "error";
  }
  return "unknown";
}

std::string result_digest(const std::vector<std::uint8_t>& result) {
  if (result.empty()) return "-";
  const std::uint64_t h = bytes::fnv1a(result);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

// ---- Payload codecs -----------------------------------------------------

Bytes encode_payload(const Eq4Job& job) { return encode_record(job); }
Bytes encode_payload(const RiskJob& job) { return encode_record(job); }
Bytes encode_payload(const CampaignJob& job) { return encode_record(job); }
Bytes encode_payload(const Response& response) { return encode_record(response); }
Bytes encode_payload(const StatsReport& report) { return encode_record(report); }
Bytes encode_payload(const HelloRequest& hello) { return encode_record(hello); }
Bytes encode_payload(const HelloAck& ack) { return encode_record(ack); }

Eq4Job decode_eq4_job(const Bytes& payload) { return decode_record<Eq4Job>(payload); }
RiskJob decode_risk_job(const Bytes& payload) { return decode_record<RiskJob>(payload); }
CampaignJob decode_campaign_job(const Bytes& payload) {
  return decode_record<CampaignJob>(payload);
}
Response decode_response(const Bytes& payload) { return decode_record<Response>(payload); }
StatsReport decode_stats_report(const Bytes& payload) {
  return decode_record<StatsReport>(payload);
}
HelloRequest decode_hello(const Bytes& payload) { return decode_record<HelloRequest>(payload); }
HelloAck decode_hello_ack(const Bytes& payload) { return decode_record<HelloAck>(payload); }

void check_price(const Eq4Job& job) {
  charge("steps", job.steps, sizeof(core::SweepPoint));
}

void check_price(const RiskJob& job) { charge("samples", job.samples, sizeof(double)); }

void check_price(const CampaignJob& job) {
  charge("n_wafers", static_cast<double>(job.n_wafers), sizeof(fabsim::WaferResult));
  const double radius = job.wafer_diameter_mm / 2.0;
  const double step_area = (job.die_width_mm + job.wafer_scribe_mm) *
                           (job.die_height_mm + job.wafer_scribe_mm);
  if (step_area > 0.0) {
    charge("estimated wafer sites (wafer area / die_width_mm x die_height_mm step)",
           std::numbers::pi * radius * radius / step_area,
           sizeof(geometry::DieSite) + sizeof(std::int64_t));
  }
}

std::uint64_t peek_request_id(const std::vector<std::uint8_t>& payload) noexcept {
  return payload.size() < 8 ? 0 : bytes::from_le(payload.data(), 8);
}

// ---- Coalescing keys ----------------------------------------------------

cache::Digest128 job_key(const Eq4Job& job) {
  return cache::sweep_eq4_key(job.inputs, job.lo, job.hi, job.steps);
}

cache::Digest128 job_key(const RiskJob& job) {
  return cache::monte_carlo_cost_key(job.inputs, job.s_d, job.samples, job.seed,
                                     job.die_budget);
}

cache::Digest128 job_key(const CampaignJob& job) { return job_key(job, make_simulator(job)); }

cache::Digest128 job_key(const CampaignJob& job, const fabsim::FabSimulator& sim) {
  // The run key addresses the computation; max_chunks shapes how much
  // of it this submission performs, so it must split coalescing groups.
  return cache::KeyBuilder("serve.campaign")
      .sub("run", cache::fabsim_run_key(sim, job.n_wafers, job.seed))
      .i64("max_chunks", job.max_chunks)
      .digest();
}

// ---- Execution ----------------------------------------------------------

namespace {

/// The one shape of an eq4 response, shared by the hit and miss paths
/// so the two are equal field by field.
Response eq4_response(const Eq4Job& job, std::vector<std::uint8_t> encoded_points) {
  Response r;
  r.request_id = job.request_id;
  r.result = std::move(encoded_points);
  r.frontier_chunks = job.steps;
  return r;
}

}  // namespace

std::optional<Response> cached_response(const Eq4Job& job, const cache::Digest128& key) {
  std::vector<std::uint8_t> bytes;
  if (!cache::lookup_encoded(key, bytes)) return std::nullopt;
  return eq4_response(job, std::move(bytes));
}

Response execute(const Eq4Job& job, const cache::Digest128& key, exec::ThreadPool* pool) {
  std::vector<std::uint8_t> bytes =
      cache::encode(core::sweep_eq4(job.inputs, job.lo, job.hi, job.steps, pool));
  cache::publish_encoded(key, bytes);
  return eq4_response(job, std::move(bytes));
}

Response execute(const RiskJob& job, double budget_ms, exec::ThreadPool* pool) {
  Response r;
  r.request_id = job.request_id;
  // No budget installs an invalid token, which is a no-op scope.
  const robust::CancelScope scope(budget_ms > 0.0 ? robust::CancelToken::with_deadline(budget_ms)
                                                  : robust::CancelToken{});
  const core::PartialRisk p = core::monte_carlo_cost_partial(
      job.inputs, job.s_d, job.samples, job.seed, job.die_budget, pool);
  r.result = cache::encode(p.result);
  r.completeness = p.completeness;
  r.frontier_chunks = p.frontier_chunks;
  if (p.cancelled) {
    r.status = ResponseStatus::kPartial;
    r.message = "partial: the request budget truncated the run at chunk frontier " +
                std::to_string(p.frontier_chunks) + "; resubmit to refine";
  }
  return r;
}

}  // namespace nanocost::serve
