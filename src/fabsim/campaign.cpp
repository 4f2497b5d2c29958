#include "nanocost/fabsim/campaign.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "nanocost/bytes/codec.hpp"
#include "nanocost/cache/hash.hpp"

namespace nanocost::fabsim {

// Chunk blob layout (bytes/codec.hpp): each wafer's fields(), then the
// fault histogram as a u64 length and its i64 counts.

FabLotCampaign::FabLotCampaign(const FabSimulator& sim, std::int64_t n_wafers,
                               std::uint64_t seed)
    : sim_(&sim), n_wafers_(n_wafers), seed_(seed) {
  if (n_wafers < 1) {
    throw std::invalid_argument("fab lot campaign needs at least one wafer");
  }
}

std::uint64_t FabLotCampaign::config_fingerprint() const {
  // The simulator's whole configuration plus the seed shape every wafer
  // result (the wafer count is the unit count, which the engine mixes
  // in itself) -- the closure cache::fabsim_run_key hashes.
  cache::KeyBuilder key("fabsim.lot_campaign");
  append_key(key, *sim_);
  key.u64("seed", seed_);
  const cache::Digest128 d = key.digest();
  return d.hi ^ d.lo;
}

void FabLotCampaign::run_chunk(std::int64_t begin, std::int64_t end,
                               std::vector<std::uint8_t>& blob) const {
  std::vector<WaferResult> wafers(static_cast<std::size_t>(end - begin));
  std::vector<std::int64_t> histogram;
  sim_->run_units(begin, end, seed_, wafers.data(), histogram);
  bytes::ByteWriter w;
  w.reserve(static_cast<std::size_t>(end - begin + 1) * 32);
  for (const WaferResult& wafer : wafers) fields(w, wafer);
  w.seq("histogram length", histogram, 8, [&](std::int64_t h) { w.i64("dies", h); });
  blob = w.take();
}

PartialLot FabLotCampaign::assemble(const robust::CampaignResult& result) const {
  PartialLot out;
  out.lot.fault_histogram.assign(4, 0);
  out.lot.wafers.assign(static_cast<std::size_t>(n_wafers_), WaferResult{});
  for (std::size_t c = 0; c < result.chunks.size(); ++c) {
    const auto& blob = result.chunks[c];
    if (blob.empty()) continue;
    const std::int64_t begin = static_cast<std::int64_t>(c) * kGrain;
    const std::int64_t end = std::min(begin + kGrain, n_wafers_);
    // Every count is checked against what run_chunk can produce, so a
    // corrupt blob can neither overflow the lot sums nor decode.
    bytes::ByteReader r(blob, "fabsim campaign blob");
    std::int64_t chunk_dies = 0;
    for (std::int64_t i = begin; i < end; ++i) {
      WaferResult& w = out.lot.wafers[static_cast<std::size_t>(i)];
      fields(r, w);
      if (w.gross_dies != sim_->wafer_map().die_count() || w.good_dies < 0 ||
          w.good_dies > w.gross_dies || w.defects_on_dies < 0 ||
          w.defects_on_dies > w.defects) {
        r.fail("holds an impossible record for wafer " + std::to_string(i));
      }
      chunk_dies += w.gross_dies;
      out.lot.total_dies += w.gross_dies;
      out.lot.good_dies += w.good_dies;
      ++out.completed_wafers;
    }
    // The fault histogram counts each of the chunk's dies exactly once.
    const std::size_t hist_len = r.count(r.u64(), 8, "histogram length");
    if (hist_len > out.lot.fault_histogram.size()) {
      out.lot.fault_histogram.resize(hist_len, 0);
    }
    for (std::size_t k = 0; k < hist_len; ++k) {
      const std::int64_t dies = r.i64("dies");
      if (dies < 0 || dies > chunk_dies) r.fail("histogram miscounts the chunk's dies");
      chunk_dies -= dies;
      out.lot.fault_histogram[k] += dies;
    }
    if (chunk_dies != 0) r.fail("histogram miscounts the chunk's dies");
    r.expect_end();
  }
  out.completeness = result.completeness();
  out.failed_wafers = result.failed_units();
  out.cancelled = result.expired;
  out.frontier_chunks = result.frontier_chunks;
  return out;
}

}  // namespace nanocost::fabsim
