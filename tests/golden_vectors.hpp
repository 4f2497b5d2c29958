#pragma once
// Golden byte vectors for the repo's binary formats, pinned as hex.
//
// Each constant is the exact encoding of a small fixture described in
// its comment; the format's own test suite rebuilds the fixture and
// compares byte for byte, and tests/codec_fuzz_test.cpp mutates the
// goldens.  If a golden test fails, a format changed: that requires a
// version bump, never a golden update.  (The NCSTAT01 golden lives in
// obs_test's ObsStats.GoldenVectorPinsTheFormat.)

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace nanocost::testing {

inline std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

inline std::vector<std::uint8_t> from_hex(std::string_view hex) {
  const auto nibble = [](char c) -> std::uint8_t {
    if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<std::uint8_t>(c - 'a' + 10);
    throw std::invalid_argument("from_hex: not a lowercase hex digit");
  };
  if (hex.size() % 2 != 0) throw std::invalid_argument("from_hex: odd length");
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(nibble(hex[2 * i]) << 4 | nibble(hex[2 * i + 1]));
  }
  return out;
}

/// NCWIRE01 ping frame whose payload is request id 7.
inline constexpr std::string_view kWirePingFrameHex =
    "4e43574952453031010000000400000008000000000000000700000000000000"
    "47703c2faf6cef3c";

/// NCWIRE01 eq4-request frame: Eq4Job with request id 42, 16 steps, all
/// other fields at their defaults.
inline constexpr std::string_view kWireEq4FrameHex =
    "4e43574952453031010000000100000080000000000000002a00000000000000"
    "000000000000d03fcdccccccccccec3f000000000000204000000000d0126341"
    "00000000006ae840c3f5285c8fa2734000000000804f22410000000000408f40"
    "000000000000f03f333333333333f33f0000000000005940000000000000f03f"
    "0000000000006940000000000088c3401000000000000000bc978d288c2d08b2";

/// Response payload: request id 11, kPartial, message "partial", result
/// {1, 2, 3}, completeness 0.5, frontier 4, artifact hits 2, coalesced.
inline constexpr std::string_view kResponsePayloadHex =
    "0b000000000000000107000000000000007061727469616c0300000000000000"
    "010203000000000000e03f0400000000000000020000000000000001";

/// NCCKPT01 file: fingerprint 0xFEEDBEEF, 10 units, grain 4, chunk 0 =
/// {1, 2, 3}, chunk 1 missing, chunk 2 = {9, 8, 7, 6}.
inline constexpr std::string_view kCheckpointFileHex =
    "4e43434b50543031efbeedfe000000000a000000000000000400000000000000"
    "020000000000000000000000000000000300000000000000010203abf52c6718"
    "62aad002000000000000000400000000000000090807064d588320baa248f2";

/// NCBLOB01 file: digest {hi 0x0123456789abcdef, lo 0xfedcba9876543210},
/// payload {1, 2, 3, 4, 5}.
inline constexpr std::string_view kArtifactBlobHex =
    "4e43424c4f423031efcdab89674523011032547698badcfe0500000000000000"
    "0102030405887d6b4fbfdc660f";

/// FabLotCampaign chunk blob: campaign_test's make_simulator(), 6
/// wafers, seed 5, the tail chunk (wafers 4 and 5).
inline constexpr std::string_view kFabChunkBlobHex =
    "b10000000000000077000000000000001601000000000000df00000000000000"
    "b1000000000000008800000000000000dc00000000000000b400000000000000"
    "0400000000000000ff0000000000000052000000000000001000000000000000"
    "0100000000000000";

/// RiskCampaign chunk blob: campaign_test's risk_reference(), s_d 300,
/// 256 samples, seed 7, samples [128, 132).
inline constexpr std::string_view kRiskChunkBlobHex =
    "46292c1cbf6fd43e450d9d5037c5d63e5c4aadd92568e13e303ca51a9b86d13e";


/// RiskJob payload: serve_test's golden_risk_job() (request id 21, every
/// eq. (4)-(6) input, sigma and run field a distinct value).
inline constexpr std::string_view kRiskJobPayloadHex =
    "1500000000000000a4703d0ad7a3c03fb81e85eb51b8e63f0000000000001e40"
    "0000000084d77741000000000070c7400000000000a073400000000020d62341"
    "0000000000208c409a9999999999f13fcdccccccccccf43f0000000000805640"
    "8fc2f5285c8fea3fb81e85eb51b8ae3fb81e85eb51b8be3f666666666666d63f"
    "cdccccccccccdc3f00000000004888404101000000000000efcdab0000000000"
    "0000000000002940";

/// CampaignJob payload: serve_test's golden_campaign_job() (request id
/// 22, every wafer, die, defect, wire and run field a distinct value).
inline constexpr std::string_view kCampaignJobPayloadHex =
    "16000000000000000000000000c0724000000000000004407b14ae47e17ab43f"
    "00000000000027400000000000802240295c8fc2f528bc3f295c8fc2f528cc3f"
    "00000000000035409a99999999990940cdccccccccccdc3f333333333333fb3f"
    "01333333333333d33f00000000000004400ad7a3703d0ac73f48e17a14ae47d1"
    "3f0000000000005e4025000000000000006000000000000000d2040000000000"
    "000500000000000000";

/// HelloRequest payload: request id 23, protocol 3, build "1.2.3",
/// tenant "acme", attempt 4.
inline constexpr std::string_view kHelloPayloadHex =
    "170000000000000003000000000000000500000000000000312e322e33040000"
    "000000000061636d650400000000000000";

/// HelloAck payload: request id 24, protocol 5, build "1.0.9".
inline constexpr std::string_view kHelloAckPayloadHex =
    "180000000000000005000000000000000500000000000000312e302e39";

/// StatsReport payload: request id 25, version "1.0.0", simd "avx2", 12
/// cores, pid 4321, uptime 98765 ms, stats bytes {9, 8, 7}.
inline constexpr std::string_view kStatsReportPayloadHex =
    "19000000000000000500000000000000312e302e300400000000000000617678"
    "320c00000000000000e110000000000000cd8101000000000003000000000000"
    "00090807";

/// cache::encode of two sweep points: s_d 250 and 500, breakdown
/// {1.5e-6, 2.5e-6, 4e-6, 3.25, 7e6, per_die 40 and 41}.
inline constexpr std::string_view kSweepPointsBlobHex =
    "02000000000000000000000000406f4054e41071732ab93ef168e388b5f8c43e"
    "8dedb5a0f7c6d03e0000000000000a4000000000f0b35a410000000000004440"
    "0000000000407f4054e41071732ab93ef168e388b5f8c43e8dedb5a0f7c6d03e"
    "0000000000000a4000000000f0b35a410000000000804440";

/// cache::encode(RiskResult{1.25, 0.5, 0.75, 1.2, 2.25, 0.125}).
inline constexpr std::string_view kRiskResultBlobHex =
    "000000000000f43f000000000000e03f000000000000e83f333333333333f33f"
    "0000000000000240000000000000c03f";

/// cache::encode(RobustOptimum{321.5, 1e-7}).
inline constexpr std::string_view kRobustOptimumBlobHex =
    "000000000018744048afbc9af2d77a3e";

/// cache::encode of window-sweep points {4, 100, 12, 0.88} and
/// {8, 25, 9, 0.64}.
inline constexpr std::string_view kWindowSweepBlobHex =
    "0200000000000000040000000000000064000000000000000c00000000000000"
    "295c8fc2f528ec3f080000000000000019000000000000000900000000000000"
    "7b14ae47e17ae43f";

/// cache::encode(LotResult): wafers {100, 90, 12, 10} and
/// {101, 85, 20, 15}, 201 dies, 175 good, histogram {170, 25, 6}.
inline constexpr std::string_view kLotResultBlobHex =
    "020000000000000064000000000000005a000000000000000c00000000000000"
    "0a00000000000000650000000000000055000000000000001400000000000000"
    "0f00000000000000c900000000000000af000000000000000300000000000000"
    "aa0000000000000019000000000000000600000000000000";

/// cache::encode(MultistartResult): a 3 x 4 grid, gate g on site
/// (5g) mod 12, hpwl 12 -> 9.5, 100 moves tried, 40 accepted, best
/// start 1 of 3, start hpwls {11, 9.75, 10.25}.
inline constexpr std::string_view kMultistartResultBlobHex =
    "0300000000000000040000000000000005000000000000000000000000000000"
    "05000000000000000a0000000000000003000000000000000800000000000000"
    "0000000000002840000000000000234064000000000000002800000000000000"
    "0100000000000000030000000000000003000000000000000000000000002640"
    "00000000008023400000000000802440";

}  // namespace nanocost::testing
