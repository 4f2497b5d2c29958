// Bitwise vector==scalar parity for every SoA/SIMD kernel.
//
// The repo's SIMD contract (DESIGN.md §12) is that a vector lane is an
// *implementation detail*: for any input, every SimdLevel produces the
// identical bit pattern and leaves shared RNG streams at the identical
// position.  These tests enumerate the levels the host actually
// supports (a lane the CPU lacks cannot be exercised) and compare each
// against the scalar oracle over randomized inputs and every
// odd-remainder tail length, including the out-of-support/model-
// fallback edges of the kill-probability LUT.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "nanocost/core/risk.hpp"
#include "nanocost/core/risk_campaign.hpp"
#include "nanocost/defect/size_distribution.hpp"
#include "nanocost/defect/spatial.hpp"
#include "nanocost/exec/rng.hpp"
#include "nanocost/exec/rng_batch.hpp"
#include "nanocost/exec/simd.hpp"
#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/place/pin_scan.hpp"

namespace {

using namespace nanocost;
using exec::SimdLevel;

/// Levels the host can execute, scalar first.
std::vector<SimdLevel> levels() {
  std::vector<SimdLevel> out{SimdLevel::kScalar};
  if (exec::detected_simd_level() == SimdLevel::kAvx2) out.push_back(SimdLevel::kAvx2);
  return out;
}

/// Tail lengths crossing every lane boundary of the 2/4/8-wide paths.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100};

template <typename T>
void expect_bitwise_equal(const std::vector<T>& a, const std::vector<T>& b,
                          const char* what, std::size_t n) {
  ASSERT_EQ(a.size(), b.size()) << what << " n=" << n;
  if (!a.empty()) {
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T)))
        << what << " diverges at n=" << n;
  }
}

TEST(SimdParity, UniformUnitBatch) {
  for (const std::size_t n : kLengths) {
    std::vector<double> ref(n);
    exec::SplitMix64 rng_ref(99);
    exec::uniform_unit_batch_at(SimdLevel::kScalar, rng_ref, ref.data(), n);
    exec::SplitMix64 serial(99);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ref[i], exec::uniform_unit(serial));
    }
    ASSERT_EQ(rng_ref.state(), serial.state()) << "batch != serial stream position";
    for (const SimdLevel level : levels()) {
      std::vector<double> got(n);
      exec::SplitMix64 rng(99);
      exec::uniform_unit_batch_at(level, rng, got.data(), n);
      expect_bitwise_equal(ref, got, "uniform_unit_batch", n);
      EXPECT_EQ(rng_ref.state(), rng.state());
    }
  }
}

TEST(SimdParity, Sse2OverrideIsRefusedAndFallsBackToDetection) {
  // simd_level() resolves once per process, so the override is read in
  // a re-executed child ("threadsafe" death-test style) where nothing
  // has consulted the level yet.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("NANOCOST_SIMD", "sse2", 1);
        std::exit(exec::simd_level() == exec::detected_simd_level() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0),
      "NANOCOST_SIMD='sse2' is not a recognised level \\(use scalar/avx2\\)");
}

TEST(SimdParity, CounterMappers) {
  for (const std::size_t n : kLengths) {
    std::vector<std::uint64_t> seeds_ref(n), mixed_ref(n);
    std::vector<double> unit_ref(n), pos_ref(n);
    exec::for_task_batch_at(SimdLevel::kScalar, 777, 3, seeds_ref.data(), n);
    exec::mix_add_batch_at(SimdLevel::kScalar, seeds_ref.data(), 2 * exec::kGoldenGamma,
                           mixed_ref.data(), n);
    exec::u53_to_unit_batch_at(SimdLevel::kScalar, mixed_ref.data(), unit_ref.data(), n);
    exec::u53_to_unit_pos_batch_at(SimdLevel::kScalar, mixed_ref.data(), pos_ref.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(seeds_ref[i], exec::SeedSequence::for_task(777, 3 + i));
    }
    for (const SimdLevel level : levels()) {
      std::vector<std::uint64_t> seeds(n), mixed(n);
      std::vector<double> unit(n), pos(n);
      exec::for_task_batch_at(level, 777, 3, seeds.data(), n);
      exec::mix_add_batch_at(level, seeds.data(), 2 * exec::kGoldenGamma, mixed.data(), n);
      exec::u53_to_unit_batch_at(level, mixed.data(), unit.data(), n);
      exec::u53_to_unit_pos_batch_at(level, mixed.data(), pos.data(), n);
      expect_bitwise_equal(seeds_ref, seeds, "for_task_batch", n);
      expect_bitwise_equal(mixed_ref, mixed, "mix_add_batch", n);
      expect_bitwise_equal(unit_ref, unit, "u53_to_unit_batch", n);
      expect_bitwise_equal(pos_ref, pos, "u53_to_unit_pos_batch", n);
    }
  }
}

TEST(SimdParity, DefectSizeBatch) {
  const auto classic = defect::DefectSizeDistribution::for_feature_size(units::Micrometers{0.25});
  // Non-cubic tail exercises the general-q (scalar pow) path at every level.
  const defect::DefectSizeDistribution general(units::Micrometers{0.1}, units::Micrometers{0.3},
                                               units::Micrometers{20.0}, 2.5);
  for (const auto* dist : {&classic, &general}) {
    for (const std::size_t n : kLengths) {
      std::vector<double> ref(n);
      exec::SplitMix64 rng_ref(31337);
      dist->sample_batch_at(SimdLevel::kScalar, rng_ref, ref.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_GE(ref[i], dist->xmin().value());
        ASSERT_LE(ref[i], dist->xmax().value());
      }
      for (const SimdLevel level : levels()) {
        std::vector<double> got(n);
        exec::SplitMix64 rng(31337);
        dist->sample_batch_at(level, rng, got.data(), n);
        expect_bitwise_equal(ref, got, "sample_batch", n);
        EXPECT_EQ(rng_ref.state(), rng.state());
      }
    }
  }
}

fabsim::FabSimulator make_simulator(defect::DefectFieldParams field) {
  return fabsim::FabSimulator{
      geometry::WaferSpec::mm200(),
      geometry::DieSize{units::Millimeters{12.0}, units::Millimeters{12.0}},
      defect::DefectSizeDistribution::for_feature_size(units::Micrometers{0.25}), field,
      defect::WireArray{units::Micrometers{0.25}, units::Micrometers{0.25},
                        units::Micrometers{100.0}, 50}};
}

/// Sizes the LUT lookup treats specially, for a LUT over [xmin, xmax]
/// with `bins` bins: every node and the doubles on either side of it,
/// every hint-cell lower edge and the double just below it, plus a
/// dense log grid.  Mirrors the node and hint-cell formulas of
/// KillProbabilityLut's constructor.
std::vector<double> lut_probe_sizes(double xmin, double xmax, int bins) {
  std::vector<double> xs;
  const auto around = [&](double x) {
    xs.push_back(std::nextafter(x, 0.0));
    xs.push_back(x);
    xs.push_back(std::nextafter(x, xmax * 2.0));
  };
  const double log_xmin = std::log(xmin);
  const double dlog = (std::log(xmax) - log_xmin) / bins;
  for (int i = 0; i <= bins; ++i) {
    around(i == 0 ? xmin : i == bins ? xmax : std::exp(log_xmin + i * dlog));
  }
  const auto bits_min = std::bit_cast<std::int64_t>(xmin);
  const std::int64_t span = std::bit_cast<std::int64_t>(xmax) - bits_min;
  int shift = 0;
  while ((span >> shift) >= 8191) ++shift;
  for (std::int64_t k = 0; k <= (span >> shift); ++k) {
    const double edge = std::bit_cast<double>(bits_min + (k << shift));
    xs.push_back(std::nextafter(edge, 0.0));
    xs.push_back(edge);
  }
  const int grid = 4 * bins + 1000;
  for (int i = 0; i <= grid; ++i) xs.push_back(xmin * std::exp(i * (std::log(xmax / xmin) / grid)));
  return xs;
}

TEST(SimdParity, KillLutBatch) {
  const fabsim::FabSimulator sim = make_simulator(defect::DefectFieldParams{});
  const fabsim::KillProbabilityLut& lut = sim.kill_lut();
  const auto sizes = defect::DefectSizeDistribution::for_feature_size(units::Micrometers{0.25});
  // Random in-support sizes plus the support endpoints and
  // out-of-support values (model fallback lanes).
  std::vector<double> xs(997);
  exec::SplitMix64 rng(2718);
  sizes.sample_batch_at(SimdLevel::kScalar, rng, xs.data(), xs.size());
  xs.push_back(sizes.xmin().value());
  xs.push_back(sizes.xmax().value());
  xs.push_back(sizes.xmin().value() / 2.0);
  xs.push_back(sizes.xmax().value() * 2.0);
  for (const std::size_t n : kLengths) {
    const std::size_t m = std::min(n, xs.size());
    std::vector<double> ref(m), got(m);
    lut.evaluate_batch_at(SimdLevel::kScalar, xs.data(), ref.data(), m);
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_EQ(ref[i], lut(units::Micrometers{xs[i]})) << "batch != operator() at " << i;
    }
    for (const SimdLevel level : levels()) {
      lut.evaluate_batch_at(level, xs.data(), got.data(), m);
      expect_bitwise_equal(ref, got, "evaluate_batch", m);
    }
  }
  // Full vector over everything, endpoints and fallbacks included.
  std::vector<double> ref(xs.size()), got(xs.size());
  lut.evaluate_batch_at(SimdLevel::kScalar, xs.data(), ref.data(), xs.size());
  for (const SimdLevel level : levels()) {
    lut.evaluate_batch_at(level, xs.data(), got.data(), xs.size());
    expect_bitwise_equal(ref, got, "evaluate_batch (full)", xs.size());
  }

  // Other table shapes: the fewest bins allowed, a support spanning a
  // factor of 2 (few hint cells per bin) and one spanning 1e6 (many
  // bins per hint cell), probed densely at every node and hint-cell
  // edge.  Every lane must reproduce operator() bitwise, and operator()
  // must track the model -- a hint pointing past the bracketing bin
  // would interpolate the wrong chord.
  struct LutShape {
    double xmin, xmax;
    int bins;
  };
  const LutShape shapes[] = {
      {sizes.xmin().value(), sizes.xmax().value(), 8},
      {0.1, 0.2, 8},
      {0.1, 0.2, 2048},
      {0.01, 1e4, 8},
      {0.01, 1e4, 2048},
      {0.3, 3.0, 333},
  };
  for (const LutShape& shape : shapes) {
    const fabsim::KillProbabilityLut table(sim.kill_model(), units::Micrometers{shape.xmin},
                                           units::Micrometers{shape.xmax}, shape.bins);
    const std::vector<double> probes = lut_probe_sizes(shape.xmin, shape.xmax, shape.bins);
    std::vector<double> want(probes.size()), have(probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      want[i] = table(units::Micrometers{probes[i]});
      const double direct = sim.kill_model().kill_probability(units::Micrometers{probes[i]});
      ASSERT_LE(std::abs(want[i] - direct), 1e-6 * std::max(direct, 1e-300))
          << "size " << probes[i] << " bins " << shape.bins << " [" << shape.xmin << ", "
          << shape.xmax << "]";
    }
    for (const SimdLevel level : levels()) {
      table.evaluate_batch_at(level, probes.data(), have.data(), probes.size());
      expect_bitwise_equal(want, have, "evaluate_batch (shape)", probes.size());
    }
  }
}

TEST(SimdParity, DefectFieldSoA) {
  defect::DefectFieldParams flat;
  flat.density_per_cm2 = 1.0;
  defect::DefectFieldParams radial = flat;
  radial.radial = defect::RadialProfile(2.0, 2.0);
  defect::DefectFieldParams clustered = flat;
  clustered.clustered = true;
  clustered.cluster_alpha = 1.5;

  const auto wafer = geometry::WaferSpec::mm200();
  const auto sizes = defect::DefectSizeDistribution::for_feature_size(units::Micrometers{0.25});
  for (const auto& params : {flat, radial, clustered}) {
    const defect::DefectField field(wafer, sizes, params);
    defect::DefectSoA ref;
    exec::SplitMix64 rng_ref(555);
    field.sample_wafer_at(SimdLevel::kScalar, rng_ref, ref);
    for (const SimdLevel level : levels()) {
      defect::DefectSoA got;
      exec::SplitMix64 rng(555);
      field.sample_wafer_at(level, rng, got);
      ASSERT_EQ(ref.size(), got.size());
      expect_bitwise_equal(ref.x_mm, got.x_mm, "defect x", ref.size());
      expect_bitwise_equal(ref.y_mm, got.y_mm, "defect y", ref.size());
      expect_bitwise_equal(ref.size_um, got.size_um, "defect size", ref.size());
      EXPECT_EQ(rng_ref.state(), rng.state()) << "wafer stream position diverges";
    }
  }
}

TEST(SimdParity, RiskSampleBatch) {
  core::UncertainInputs u;
  u.nominal.transistors_per_chip = 1e7;
  u.nominal.n_wafers = 10000.0;
  u.nominal.yield = units::Probability{0.7};
  const double s_d = 300.0;
  for (const std::size_t n : kLengths) {
    std::vector<double> ref(n);
    core::risk_sample_cost_batch_at(SimdLevel::kScalar, u, s_d, 17, 5, n, ref.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ref[i], core::risk_sample_cost(u, s_d, 17, 5 + i))
          << "batch != scalar kernel at " << i;
    }
    for (const SimdLevel level : levels()) {
      std::vector<double> got(n);
      core::risk_sample_cost_batch_at(level, u, s_d, 17, 5, n, got.data());
      expect_bitwise_equal(ref, got, "risk_sample_cost_batch", n);
    }
  }
}

TEST(SimdParity, RiskSampleBatchNamesAnEq5AreaOverflowAtEveryLevel) {
  // N_w * A_w overflows for every draw of these finite, positive
  // inputs: the scalar kernel throws eq. (5)'s named overflow, and every
  // lane must hand such a draw back to it rather than price it as a
  // manufacturing-only cost.
  core::UncertainInputs u;
  u.nominal.transistors_per_chip = 1e7;
  u.nominal.n_wafers = 1e300;
  u.nominal.wafer_area = units::SquareCentimeters{1e10};
  u.nominal.yield = units::Probability{0.7};
  for (const SimdLevel level : levels()) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{130}}) {
      std::vector<double> out(n);
      try {
        core::risk_sample_cost_batch_at(level, u, 300.0, 17, 5, n, out.data());
        ADD_FAILURE() << "no exception at level " << static_cast<int>(level) << " n=" << n;
      } catch (const std::overflow_error& e) {
        EXPECT_NE(std::string(e.what()).find("eq. (5)"), std::string::npos) << e.what();
      }
    }
  }
}

TEST(SimdParity, RiskCampaignChunkBlobsEqualScalarKernelBits) {
  // RiskCampaign::run_chunk runs the batched kernel at the process
  // level; its blob is the little-endian bits of the scalar kernel for
  // every chunk, including the 104-sample tail of 1000 = 7 * 128 + 104.
  core::UncertainInputs u;
  u.nominal.transistors_per_chip = 1e7;
  u.nominal.n_wafers = 10000.0;
  u.nominal.yield = units::Probability{0.7};
  const std::int64_t samples = 1000;
  const core::RiskCampaign task(u, 300.0, samples, 21);
  for (std::int64_t begin = 0; begin < samples; begin += task.grain()) {
    const std::int64_t end = std::min(samples, begin + task.grain());
    std::vector<std::uint8_t> blob;
    task.run_chunk(begin, end, blob);
    std::vector<std::uint8_t> want;
    for (std::int64_t i = begin; i < end; ++i) {
      const double c = core::risk_sample_cost(u, 300.0, 21, static_cast<std::uint64_t>(i));
      std::uint64_t bits = 0;
      std::memcpy(&bits, &c, sizeof bits);
      for (int b = 0; b < 8; ++b) want.push_back(static_cast<std::uint8_t>(bits >> (8 * b)));
    }
    expect_bitwise_equal(want, blob, "RiskCampaign::run_chunk",
                         static_cast<std::size_t>(end - begin));
  }
}

TEST(SimdParity, PinScanSpans) {
  // Random small-integer coordinates through a shuffled pin order, all
  // lengths crossing the 4- and 8-pin lane boundaries.
  exec::SplitMix64 rng(808);
  std::vector<place::detail::PinPos> pos(64);
  std::vector<std::int32_t> pin_gate(64);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    pos[i].c = static_cast<float>(exec::bounded_u32(rng, 4000));
    pos[i].r = static_cast<float>(exec::bounded_u32(rng, 4000));
    pin_gate[i] = static_cast<std::int32_t>(exec::bounded_u32(rng, 64));
  }
  for (std::int32_t begin = 0; begin < 4; ++begin) {
    for (std::int32_t len = 1; begin + len <= 33; ++len) {
      const std::int32_t end = begin + len;
      const place::detail::PinSpan ref =
          place::detail::scan_span_scalar(pos.data(), pin_gate.data(), begin, end);
      for (const SimdLevel level : levels()) {
        const place::detail::PinSpan got =
            place::detail::scan_span(level, pos.data(), pin_gate.data(), begin, end);
        EXPECT_EQ(0, std::memcmp(&ref.span_c, &got.span_c, sizeof(float)))
            << "span_c diverges len=" << len;
        EXPECT_EQ(0, std::memcmp(&ref.span_r, &got.span_r, sizeof(float)))
            << "span_r diverges len=" << len;
      }
    }
  }
}

}  // namespace
