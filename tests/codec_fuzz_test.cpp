// Seeded mutation fuzzing of every strict byte decoder.
//
// Each target is one format plus a seed input: a golden from
// golden_vectors.hpp, or a freshly encoded job payload or served
// result.  A SplitMix64 stream drives four mutations -- bit flips,
// truncations, splices and length inflation -- and every mutant must
// either decode and re-encode to exactly its own bytes, or throw.
// The envelope formats (NCWIRE01, NCSTAT01, NCCKPT01, NCBLOB01) must
// throw their typed error.  Half of the NCWIRE01/NCSTAT01 mutants get a
// fresh trailing checksum, so they reach the body parser instead of
// all dying at the checksum.  The campaign chunk blobs decode into
// aggregates (assemble() merges wafers and summarizes samples) with no
// re-encoder, so they are held to "decode or throw".
//
// The iteration budget is fixed, so every run sees the same mutants.
// It is sized to stay well under 2 s in the ASan/UBSan build, where an
// allocation driven by a corrupt length aborts the test.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "golden_vectors.hpp"
#include "nanocost/bytes/codec.hpp"
#include "nanocost/cache/codec.hpp"
#include "nanocost/core/optimizer.hpp"
#include "nanocost/core/risk.hpp"
#include "nanocost/core/risk_campaign.hpp"
#include "nanocost/exec/rng.hpp"
#include "nanocost/fabsim/campaign.hpp"
#include "nanocost/obs/stats.hpp"
#include "nanocost/place/placer.hpp"
#include "nanocost/robust/artifact_store.hpp"
#include "nanocost/robust/checkpoint.hpp"
#include "nanocost/serve/jobs.hpp"
#include "nanocost/serve/wire.hpp"

namespace nanocost {
namespace {

using Bytes = std::vector<std::uint8_t>;

struct Target {
  std::string name;
  Bytes seed;
  /// Decodes `bytes` and returns their re-encoding (nullopt when the
  /// format has no re-encoder); throws when the bytes are rejected.
  std::function<std::optional<Bytes>(const Bytes&)> round_trip;
  /// The format's typed error; null accepts any std::exception.
  std::function<bool(const std::exception&)> typed;
  /// Recomputes an envelope's trailing checksum; null = never.
  std::function<void(Bytes&)> reseal;
};

template <class... Errors>
std::function<bool(const std::exception&)> one_of() {
  return [](const std::exception& e) {
    return ((dynamic_cast<const Errors*>(&e) != nullptr) || ...);
  };
}

void put_u64_at(Bytes& b, std::size_t at, std::uint64_t v) {
  const auto le = bytes::to_le(v);
  std::copy(le.begin(), le.end(), b.begin() + static_cast<std::ptrdiff_t>(at));
}

/// One mutant of `seed`; `pool` donates splice material.
Bytes mutate(const Bytes& seed, const std::vector<Bytes>& pool, exec::SplitMix64& rng) {
  const auto below = [&rng](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng.next() % n);
  };
  Bytes m = seed;
  switch (rng.next() % 4) {
    case 0:  // 1-3 bit flips
      for (std::size_t k = 1 + below(3); k > 0 && !m.empty(); --k) {
        m[below(m.size())] ^= static_cast<std::uint8_t>(1u << below(8));
      }
      break;
    case 1:  // truncation
      m.resize(below(m.size()));
      break;
    case 2: {  // splice: a donor slice replaces a slice of the mutant
      const Bytes& donor = pool[below(pool.size())];
      const std::size_t from = below(donor.size() + 1);
      const std::size_t len = below(donor.size() - from + 1);
      const std::size_t at = below(m.size() + 1);
      const std::size_t cut = below(m.size() - at + 1);
      m.erase(m.begin() + static_cast<std::ptrdiff_t>(at),
              m.begin() + static_cast<std::ptrdiff_t>(at + cut));
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(at),
               donor.begin() + static_cast<std::ptrdiff_t>(from),
               donor.begin() + static_cast<std::ptrdiff_t>(from + len));
      break;
    }
    default: {  // length inflation: grow the u64 at a random offset
      if (m.size() < 8) break;
      static constexpr std::uint64_t kDeltas[] = {1, 8, 1ULL << 31, 1ULL << 32, 1ULL << 62,
                                                  ~0ULL};
      const std::size_t at = below(m.size() - 7);
      put_u64_at(m, at, bytes::from_le(m.data() + at, 8) + kDeltas[below(std::size(kDeltas))]);
      break;
    }
  }
  return m;
}

struct Tally {
  int accepted = 0;
  int rejected = 0;
};

Tally fuzz(const Target& t, const std::vector<Bytes>& pool, std::uint64_t seed,
           int iterations) {
  exec::SplitMix64 rng(seed);
  Tally tally;
  int failures = 0;
  for (int i = 0; i < iterations && failures < 5; ++i) {
    Bytes m = mutate(t.seed, pool, rng);
    if (t.reseal && (rng.next() & 1) != 0) t.reseal(m);
    try {
      const std::optional<Bytes> again = t.round_trip(m);
      ++tally.accepted;
      if (again && *again != m) {
        ++failures;
        ADD_FAILURE() << t.name << " mutant " << i << " decoded but re-encoded differently\n"
                      << "  mutant:     " << testing::to_hex(m) << "\n"
                      << "  re-encoded: " << testing::to_hex(*again);
      }
    } catch (const std::exception& e) {
      ++tally.rejected;
      if (t.typed && !t.typed(e)) {
        ++failures;
        ADD_FAILURE() << t.name << " mutant " << i << " threw an untyped error: " << e.what()
                      << "\n  mutant: " << testing::to_hex(m);
      }
    }
  }
  std::printf("%-22s accepted %5d  rejected %5d\n", t.name.c_str(), tally.accepted,
              tally.rejected);
  return tally;
}

std::vector<Bytes> pool_of(const std::vector<Target>& targets) {
  std::vector<Bytes> pool;
  for (const Target& t : targets) pool.push_back(t.seed);
  return pool;
}

/// Decode, then re-encode, for the codecs of the serve job payloads.
template <class Decode>
std::function<std::optional<Bytes>(const Bytes&)> payload_round_trip(Decode decode) {
  return [decode](const Bytes& b) -> std::optional<Bytes> {
    return serve::encode_payload(decode(b));
  };
}

template <class Decode>
std::function<std::optional<Bytes>(const Bytes&)> result_round_trip(Decode decode) {
  return [decode](const Bytes& b) -> std::optional<Bytes> { return cache::encode(decode(b)); };
}

obs::MetricsSnapshot stat_fixture() {
  obs::MetricsSnapshot snap;
  snap.counters = {{"serve.requests", 42}, {"serve.shed", 7}};
  snap.gauges = {{"serve.queue_depth", 1.5}};
  obs::HistogramSnapshot h;
  h.name = "serve.request_us";
  h.bounds = {100, 1000, 10000};
  h.buckets = {1, 2, 3, 4};
  h.count = 10;
  h.sum = 54321;
  h.min = 37;
  h.max = 99999;
  snap.histograms.push_back(h);
  return snap;
}

TEST(CodecFuzz, JobPayloadsAndServedResultsRoundTripOrThrow) {
  serve::Eq4Job eq4;
  eq4.request_id = 42;
  eq4.steps = 16;
  serve::RiskJob risk;
  risk.request_id = 7;
  risk.samples = 256;
  serve::CampaignJob campaign;
  campaign.request_id = 9;
  campaign.n_wafers = 8;
  campaign.max_chunks = 3;
  serve::StatsReport report;
  report.request_id = 3;
  report.server_version = "1.0.0";
  report.simd_level = "avx2";
  report.hardware_concurrency = 4;
  report.stats = obs::encode_stats(stat_fixture());
  serve::HelloRequest hello;
  hello.tenant = "acme";
  hello.attempt = 2;
  place::Placement placement(3, 4, 5);
  for (std::int32_t g = 0; g < 5; ++g) placement.assign(g, (g * 5) % 12);
  const place::MultistartResult multistart{
      place::PlaceResult{std::move(placement), 12.0, 9.5, 100, 40}, 1, 3, {11.0, 9.5, 10.25}};
  fabsim::LotResult lot;
  lot.wafers = {{100, 90, 12, 10}, {100, 85, 20, 15}};
  lot.total_dies = 200;
  lot.good_dies = 175;
  lot.fault_histogram = {175, 20, 5};

  const std::vector<Target> targets = {
      {"eq4 job", serve::encode_payload(eq4), payload_round_trip(serve::decode_eq4_job), {}, {}},
      {"risk job", serve::encode_payload(risk), payload_round_trip(serve::decode_risk_job), {},
       {}},
      {"campaign job", serve::encode_payload(campaign),
       payload_round_trip(serve::decode_campaign_job), {}, {}},
      {"response", testing::from_hex(testing::kResponsePayloadHex),
       payload_round_trip(serve::decode_response), {}, {}},
      {"stats report", serve::encode_payload(report),
       payload_round_trip(serve::decode_stats_report), {}, {}},
      {"hello", serve::encode_payload(hello), payload_round_trip(serve::decode_hello), {}, {}},
      {"hello ack", serve::encode_payload(serve::HelloAck{}),
       payload_round_trip(serve::decode_hello_ack), {}, {}},
      {"sweep points", cache::encode(core::sweep_eq4(eq4.inputs, eq4.lo, eq4.hi, 4)),
       result_round_trip(cache::decode_sweep_points), {}, {}},
      {"risk result", cache::encode(core::RiskResult{1.0, 0.5, 0.2, 0.9, 1.8, 0.25}),
       result_round_trip(cache::decode_risk_result), {}, {}},
      {"robust optimum", cache::encode(core::RobustOptimum{321.5, 1e-7}),
       result_round_trip(cache::decode_robust_optimum), {}, {}},
      {"lot result", cache::encode(lot), result_round_trip(cache::decode_lot_result), {}, {}},
      {"placement", cache::encode(multistart),
       result_round_trip(cache::decode_multistart_result), {}, {}},
      {"window sweep", cache::encode(std::vector<regularity::WindowSweepPoint>{
                           {4, 100, 12, 0.88}, {8, 25, 9, 0.64}}),
       result_round_trip(cache::decode_window_sweep_points), {}, {}},
  };
  const std::vector<Bytes> pool = pool_of(targets);
  std::uint64_t seed = 1;
  for (const Target& t : targets) {
    const Tally tally = fuzz(t, pool, seed++, 2000);
    // Most single-field flips still decode: a target that rejects
    // everything would make the round-trip check vacuous.
    EXPECT_GT(tally.accepted, 0) << t.name;
    EXPECT_GT(tally.rejected, 0) << t.name;
  }
}

TEST(CodecFuzz, InMemoryEnvelopesRoundTripOrThrowTheirTypedError) {
  const auto wire_round_trip = [](const Bytes& b) -> std::optional<Bytes> {
    serve::MemStream stream(b);
    Bytes again;
    while (const std::optional<serve::Frame> frame = serve::read_frame(stream)) {
      const Bytes one = serve::encode_frame(frame->type, frame->payload);
      again.insert(again.end(), one.begin(), one.end());
    }
    return again;
  };
  // Checksum of a single frame: seeded with the version and type words,
  // over everything between the length word and the checksum.
  const auto wire_reseal = [](Bytes& m) {
    if (m.size() < 32) return;
    const std::span<const std::uint8_t> all(m);
    put_u64_at(m, m.size() - 8,
               bytes::fnv1a(all.subspan(24, m.size() - 32), bytes::fnv1a(all.subspan(8, 8))));
  };
  const auto stat_reseal = [](Bytes& m) {
    if (m.size() < 16) return;
    const std::span<const std::uint8_t> all(m);
    put_u64_at(m, m.size() - 8, bytes::fnv1a(all.subspan(8, m.size() - 16)));
  };
  Bytes two_frames = testing::from_hex(testing::kWirePingFrameHex);
  const Bytes eq4_frame = testing::from_hex(testing::kWireEq4FrameHex);
  two_frames.insert(two_frames.end(), eq4_frame.begin(), eq4_frame.end());

  const std::vector<Target> targets = {
      {"NCWIRE01 ping", testing::from_hex(testing::kWirePingFrameHex), wire_round_trip,
       one_of<serve::WireError>(), wire_reseal},
      {"NCWIRE01 eq4", eq4_frame, wire_round_trip, one_of<serve::WireError>(), wire_reseal},
      {"NCWIRE01 two frames", two_frames, wire_round_trip, one_of<serve::WireError>(), {}},
      {"NCSTAT01", obs::encode_stats(stat_fixture()),
       [](const Bytes& b) -> std::optional<Bytes> {
         return obs::encode_stats(obs::decode_stats(b));
       },
       one_of<obs::StatError>(), stat_reseal},
  };
  const std::vector<Bytes> pool = pool_of(targets);
  std::uint64_t seed = 100;
  for (const Target& t : targets) {
    const Tally tally = fuzz(t, pool, seed++, 3000);
    EXPECT_GT(tally.rejected, 0) << t.name;
  }
}

class FuzzDir final {
 public:
  FuzzDir() {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("nanocost_codec_fuzz_" + std::to_string(static_cast<long long>(::getpid())));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~FuzzDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] std::string path(const char* name) const { return (dir_ / name).string(); }

 private:
  std::filesystem::path dir_;
};

Bytes slurp(const std::string& path) {
  Bytes out;
  EXPECT_TRUE(robust::read_file(path, out)) << path;
  return out;
}

TEST(CodecFuzz, FileEnvelopesRoundTripOrThrowTheirTypedError) {
  const FuzzDir dir;
  const std::string ckpt = dir.path("fuzz.ckpt");
  const std::string resaved = dir.path("resaved.ckpt");
  robust::Checkpoint expected;  // the identity kCheckpointFileHex was saved under
  expected.fingerprint = 0xFEEDBEEF;
  expected.unit_count = 10;
  expected.grain = 4;

  const robust::ArtifactStore store(dir.path("store"));
  const robust::ArtifactStore restore(dir.path("restore"));
  const cache::Digest128 key{0x0123456789abcdefULL, 0xfedcba9876543210ULL};

  const std::vector<Target> targets = {
      {"NCCKPT01", testing::from_hex(testing::kCheckpointFileHex),
       [&](const Bytes& b) -> std::optional<Bytes> {
         robust::write_file_atomically(ckpt, b, "fuzz checkpoint");
         robust::Checkpoint loaded;
         EXPECT_TRUE(robust::load_checkpoint(ckpt, expected, loaded));
         robust::save_checkpoint(resaved, loaded);
         return slurp(resaved);
       },
       one_of<robust::CheckpointCorrupt, robust::CheckpointMismatch>(), {}},
      {"NCBLOB01", testing::from_hex(testing::kArtifactBlobHex),
       [&](const Bytes& b) -> std::optional<Bytes> {
         robust::write_file_atomically(store.path_for(key), b, "fuzz blob");
         Bytes payload;
         EXPECT_TRUE(store.load(key, payload));
         std::remove(restore.path_for(key).c_str());
         restore.store(key, payload);
         return slurp(restore.path_for(key));
       },
       one_of<robust::CheckpointCorrupt>(), {}},
  };
  const std::vector<Bytes> pool = pool_of(targets);
  std::uint64_t seed = 200;
  for (const Target& t : targets) {
    const Tally tally = fuzz(t, pool, seed++, 400);
    EXPECT_GT(tally.rejected, 0) << t.name;
  }
}

TEST(CodecFuzz, CampaignChunkBlobsDecodeOrThrow) {
  defect::DefectFieldParams field;
  field.density_per_cm2 = 0.8;
  const fabsim::FabSimulator sim{
      geometry::WaferSpec::mm200(),
      geometry::DieSize{units::Millimeters{12.0}, units::Millimeters{12.0}},
      defect::DefectSizeDistribution::for_feature_size(units::Micrometers{0.25}), field,
      defect::WireArray{units::Micrometers{0.25}, units::Micrometers{0.25},
                        units::Micrometers{100.0}, 50}};
  const fabsim::FabLotCampaign fab(sim, 6, 5);
  core::UncertainInputs u;
  u.nominal.transistors_per_chip = 1e7;
  u.nominal.n_wafers = 10000.0;
  u.nominal.yield = units::Probability{0.7};
  const core::RiskCampaign risk(u, 300.0, 256, 7);

  // Each mutant is the campaign's second chunk; the first is missing.
  const auto as_chunk = [](const Bytes& b) {
    robust::CampaignResult result;
    result.chunks = {{}, b};
    return result;
  };
  const std::vector<Target> targets = {
      {"fab chunk blob", testing::from_hex(testing::kFabChunkBlobHex),
       [&](const Bytes& b) -> std::optional<Bytes> {
         (void)fab.assemble(as_chunk(b));
         return std::nullopt;
       },
       {}, {}},
      {"risk chunk blob", testing::from_hex(testing::kRiskChunkBlobHex),
       [&](const Bytes& b) -> std::optional<Bytes> {
         (void)risk.assemble(as_chunk(b));
         return std::nullopt;
       },
       {}, {}},
  };
  const std::vector<Bytes> pool = pool_of(targets);
  std::uint64_t seed = 300;
  for (const Target& t : targets) {
    const Tally tally = fuzz(t, pool, seed++, 2000);
    EXPECT_GT(tally.accepted, 0) << t.name;
    EXPECT_GT(tally.rejected, 0) << t.name;
  }
}

}  // namespace
}  // namespace nanocost
