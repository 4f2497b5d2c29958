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

}  // namespace nanocost::testing
