#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "nanocost/core/optimizer.hpp"
#include "nanocost/core/risk.hpp"
#include "nanocost/core/risk_campaign.hpp"
#include "nanocost/exec/thread_pool.hpp"
#include "nanocost/robust/campaign.hpp"
#include "nanocost/robust/fault_injection.hpp"
#include "nanocost/robust/finite_guard.hpp"

namespace nanocost::core {
namespace {

UncertainInputs reference() {
  UncertainInputs u;
  u.nominal.transistors_per_chip = 1e7;
  u.nominal.n_wafers = 10000.0;
  u.nominal.yield = units::Probability{0.7};
  return u;
}

TEST(Risk, ZeroUncertaintyCollapsesToPointEstimate) {
  UncertainInputs u = reference();
  u.yield_sigma = 1e-12;
  u.cm_sq_sigma_rel = 1e-12;
  u.design_cost_sigma_rel = 1e-12;
  u.volume_sigma_rel = 1e-12;
  const double s_d = 300.0;
  const RiskResult r = monte_carlo_cost(u, s_d, 500, 7);
  const double point = cost_per_transistor_eq4(u.nominal, s_d).total.value();
  EXPECT_NEAR(r.mean, point, point * 1e-6);
  EXPECT_NEAR(r.stddev, 0.0, point * 1e-6);
  EXPECT_NEAR(r.p50, point, point * 1e-6);
}

TEST(Risk, PercentilesAreOrderedAndSpread) {
  const RiskResult r = monte_carlo_cost(reference(), 300.0, 4000, 11);
  EXPECT_LT(r.p10, r.p50);
  EXPECT_LT(r.p50, r.p90);
  EXPECT_GT(r.stddev, 0.0);
  // Lognormal-ish right skew: mean above median.
  EXPECT_GT(r.mean, r.p50 * 0.98);
}

TEST(Risk, MoreVolumeRiskWidensTheDistribution) {
  UncertainInputs narrow = reference();
  narrow.volume_sigma_rel = 0.1;
  UncertainInputs wide = reference();
  wide.volume_sigma_rel = 1.0;
  const RiskResult a = monte_carlo_cost(narrow, 250.0, 4000, 3);
  const RiskResult b = monte_carlo_cost(wide, 250.0, 4000, 3);
  EXPECT_GT(b.p90 / b.p10, a.p90 / a.p10);
}

TEST(Risk, BudgetProbabilityBehaves) {
  const UncertainInputs u = reference();
  const RiskResult r = monte_carlo_cost(u, 300.0, 4000, 5, /*die_budget=*/1e9);
  EXPECT_DOUBLE_EQ(r.prob_over_budget, 0.0);
  const RiskResult tight = monte_carlo_cost(u, 300.0, 4000, 5, /*die_budget=*/1e-9);
  EXPECT_DOUBLE_EQ(tight.prob_over_budget, 1.0);
  // A budget at the median per-die cost is exceeded about half the time.
  const RiskResult mid = monte_carlo_cost(
      u, 300.0, 4000, 5, r.p50 * u.nominal.transistors_per_chip);
  EXPECT_NEAR(mid.prob_over_budget, 0.5, 0.05);
}

TEST(Risk, DeterministicPerSeed) {
  const UncertainInputs u = reference();
  const RiskResult a = monte_carlo_cost(u, 300.0, 1000, 99);
  const RiskResult b = monte_carlo_cost(u, 300.0, 1000, 99);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.p90, b.p90);
}

TEST(Risk, RobustOptimumIsSparserUnderVolumeRisk) {
  // Volume risk hurts dense designs (their NRE needs the volume); the
  // p90-robust choice backs off toward sparser s_d than the nominal
  // optimum.
  UncertainInputs u = reference();
  u.volume_sigma_rel = 1.0;
  u.nominal.n_wafers = 5000.0;
  const Optimum nominal = optimal_sd_eq4(u.nominal);
  const RobustOptimum robust = robust_sd(u, 0.9, 110.0, 1500.0, 24, 1500, 17);
  EXPECT_GE(robust.s_d, nominal.s_d * 0.95);
  EXPECT_GT(robust.quantile_cost, 0.0);
}

TEST(Risk, Validation) {
  const UncertainInputs u = reference();
  EXPECT_THROW(monte_carlo_cost(u, 300.0, 5), std::invalid_argument);
  EXPECT_THROW(robust_sd(u, 0.0, 110.0, 1000.0, 10), std::invalid_argument);
  EXPECT_THROW(robust_sd(u, 0.9, 1000.0, 110.0, 10), std::invalid_argument);
}

/// Runs `f`, which must throw std::invalid_argument whose message names
/// `what`.
template <typename F>
void expect_invalid_naming(F&& f, const std::string& what) {
  try {
    f();
    ADD_FAILURE() << "no exception; expected one naming " << what;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(Risk, NanDieBudgetIsRejectedByNameNotReadAsNoBudget) {
  const UncertainInputs u = reference();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_invalid_naming([&] { (void)monte_carlo_cost(u, 300.0, 1000, 1, nan); }, "die_budget");
  expect_invalid_naming([&] { (void)monte_carlo_cost_partial(u, 300.0, 1000, 1, nan); },
                        "die_budget");
  expect_invalid_naming([&] { RiskCampaign task(u, 300.0, 1000, 1, nan); }, "die_budget");
}

TEST(Risk, RobustSweepNamesTheNonFiniteBound) {
  const UncertainInputs u = reference();
  const double inf = std::numeric_limits<double>::infinity();
  expect_invalid_naming([&] { (void)robust_sd(u, 0.9, 200.0, inf, 10, 100); },
                        "sweep bound hi must be finite");
  expect_invalid_naming([&] { (void)robust_sd(u, 0.9, -inf, 200.0, 10, 100); },
                        "sweep bound lo must be finite");
}

TEST(Risk, AnEq5AreaOverflowIsNamedByEveryRiskForm) {
  // Finite, positive inputs whose N_w * A_w overflows: the batched
  // kernel behind every form must raise eq. (5)'s named overflow, as the
  // scalar kernel and eq. (4) do, not return a manufacturing-only cost.
  UncertainInputs u = reference();
  u.nominal.n_wafers = 1e300;
  u.nominal.wafer_area = units::SquareCentimeters{1e10};
  const auto expect_eq5 = [](auto&& f, const char* form) {
    try {
      f();
      ADD_FAILURE() << form << ": no exception";
    } catch (const std::overflow_error& e) {
      EXPECT_NE(std::string(e.what()).find("eq. (5)"), std::string::npos)
          << form << ": " << e.what();
    }
  };
  expect_eq5([&] { (void)risk_sample_cost(u, 300.0, 1, 0); }, "risk_sample_cost");
  expect_eq5([&] { (void)monte_carlo_cost(u, 300.0, 1000, 1); }, "monte_carlo_cost");
  expect_eq5([&] { (void)robust_sd(u, 0.9, 110.0, 1500.0, 4, 200, 1); }, "robust_sd");
  expect_eq5(
      [&] {
        const RiskCampaign task(u, 300.0, 1000, 1);
        std::vector<std::uint8_t> blob;
        task.run_chunk(0, task.grain(), blob);
      },
      "RiskCampaign::run_chunk");
}

// ---------------------------------------------------------------------------
// The selection-based summaries against the sort-based reduction they
// replaced, and the served/campaign risk forms against the direct one.

/// The pre-selection reduction, kept as the oracle: sort everything,
/// then interpolate between the two straddling order statistics.
double sorted_percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double idx = q * (static_cast<double>(v.size()) - 1.0);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double t = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - t) + v[hi] * t;
}

/// The whole pre-selection summary, field for field.
RiskResult sorted_summary(const std::vector<double>& costs, const UncertainInputs& u,
                          double die_budget) {
  RiskResult r;
  double sum = 0.0;
  int over = 0;
  for (const double c : costs) {
    sum += c;
    if (c * u.nominal.transistors_per_chip > die_budget) ++over;
  }
  r.mean = sum / static_cast<double>(costs.size());
  double ss = 0.0;
  for (const double c : costs) ss += (c - r.mean) * (c - r.mean);
  r.stddev = std::sqrt(ss / static_cast<double>(costs.size() - 1));
  r.p10 = sorted_percentile(costs, 0.10);
  r.p50 = sorted_percentile(costs, 0.50);
  r.p90 = sorted_percentile(costs, 0.90);
  r.prob_over_budget = static_cast<double>(over) / static_cast<double>(costs.size());
  return r;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const RiskResult& a, const RiskResult& b) {
  return std::memcmp(&a, &b, sizeof(RiskResult)) == 0;
}

TEST(RiskSelection, SummaryEqualsSortOracleBitwise) {
  const UncertainInputs u = reference();
  std::mt19937_64 rng(2024);
  // n = 2 and 3 are the smallest summaries; 11, 21 and 101 put
  // q (n - 1) on a whole number for every summary quantile.
  for (const std::size_t n : {2, 3, 4, 5, 10, 11, 21, 101, 128, 1000, 1001, 20000}) {
    for (const bool ties : {false, true}) {
      std::vector<double> costs(n);
      for (double& c : costs) {
        // Ties: a handful of distinct values, so every selected order
        // statistic sits inside a run of equal elements.
        c = ties ? 1e-6 * static_cast<double>(1 + rng() % 4)
                 : 1e-6 * std::exp(std::normal_distribution<double>(0.0, 0.5)(rng));
      }
      const double budget = sorted_percentile(costs, 0.6) * u.nominal.transistors_per_chip;
      const RiskResult got = summarize_cost_samples(costs, u, budget);
      const RiskResult want = sorted_summary(costs, u, budget);
      EXPECT_TRUE(same_bits(got.p10, want.p10)) << "n=" << n << " ties=" << ties;
      EXPECT_TRUE(same_bits(got.p50, want.p50)) << "n=" << n << " ties=" << ties;
      EXPECT_TRUE(same_bits(got.p90, want.p90)) << "n=" << n << " ties=" << ties;
      EXPECT_TRUE(same_bits(got, want)) << "n=" << n << " ties=" << ties;
    }
  }
}

TEST(RiskSelection, RobustSweepQuantileEqualsSortOracleBitwise) {
  const UncertainInputs u = reference();
  const double lo = 150.0;
  const double hi = 2000.0;
  const int steps = 5;
  const std::uint64_t seed = 31;
  // samples = 11 and 21 put q (n - 1) on whole numbers for q = 0.5, 0.9.
  for (const int samples : {10, 11, 21, 130}) {
    for (const double q : {0.1, 0.37, 0.5, 0.9}) {
      const RobustOptimum got = robust_sd(u, q, lo, hi, steps, samples, seed);
      RobustOptimum want;
      want.quantile_cost = 1e300;
      const double ratio = std::log(hi / lo) / (steps - 1);
      for (int i = 0; i < steps; ++i) {
        const double s_d = lo * std::exp(ratio * i);
        std::vector<double> costs(static_cast<std::size_t>(samples));
        for (int j = 0; j < samples; ++j) {
          costs[static_cast<std::size_t>(j)] =
              risk_sample_cost(u, s_d, seed, static_cast<std::uint64_t>(j));
        }
        const double cost = sorted_percentile(costs, q);
        if (cost < want.quantile_cost) {
          want.quantile_cost = cost;
          want.s_d = s_d;
        }
      }
      EXPECT_TRUE(same_bits(got.s_d, want.s_d)) << "samples=" << samples << " q=" << q;
      EXPECT_TRUE(same_bits(got.quantile_cost, want.quantile_cost))
          << "samples=" << samples << " q=" << q;
    }
  }
}

// Runs at the process's SIMD level; the simd-dispatch CI matrix reruns
// the suite under every NANOCOST_SIMD level.
TEST(RiskForms, PartialWithoutTokenEqualsMonteCarloAtEveryThreadCount) {
  const UncertainInputs u = reference();
  const int samples = 20000;  // the served size; 156 full chunks + 32
  const int hw = exec::ThreadPool::default_thread_count();
  for (const int threads : {1, 2, hw}) {
    exec::ThreadPool pool(threads);
    const RiskResult direct = monte_carlo_cost(u, 300.0, samples, 9, 4e7, &pool);
    const PartialRisk partial = monte_carlo_cost_partial(u, 300.0, samples, 9, 4e7, &pool);
    EXPECT_FALSE(partial.cancelled);
    EXPECT_EQ(partial.completed_samples, samples);
    EXPECT_TRUE(same_bits(partial.result, direct)) << "threads " << threads;
  }
}

struct PlanGuard {
  ~PlanGuard() { robust::clear_fault_plan(); }
};

/// What one chunk of the scalar per-sample loop -- the chunk body every
/// risk form ran before the batched kernel -- throws, or "" if it
/// succeeds.
std::string scalar_chunk_error(const UncertainInputs& u, double s_d, std::uint64_t seed,
                               std::int64_t begin, std::int64_t end, const char* guard) {
  try {
    std::vector<double> costs;
    for (std::int64_t i = begin; i < end; ++i) {
      costs.push_back(risk_sample_cost(u, s_d, seed, static_cast<std::uint64_t>(i)));
    }
    robust::check_finite_range(costs.data(), costs.size(), guard);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(RiskForms, SampleFaultsFailTheSameChunkWithTheSameError) {
  const UncertainInputs u = reference();
  const double s_d = 300.0;
  const std::int64_t samples = 1000;  // odd tail: the last chunk has 104
  const std::uint64_t seed = 7;
  exec::ThreadPool serial(1);
  for (const robust::FaultKind kind : {robust::FaultKind::kNaN, robust::FaultKind::kThrow}) {
    PlanGuard guard;
    robust::FaultPlan plan;
    plan.seed(3).add("risk.sample", robust::FaultSpec{5e-3, kind, /*transient=*/false, 0});
    robust::install_fault_plan(plan);

    const RiskCampaign task(u, s_d, samples, seed);
    robust::CampaignOptions options;
    options.pool = &serial;
    options.max_attempts = 1;
    const robust::CampaignResult result = robust::run_campaign(task, options);
    std::vector<robust::ChunkFailure> failed = result.quarantined;
    std::sort(failed.begin(), failed.end(),
              [](const auto& a, const auto& b) { return a.chunk < b.chunk; });
    std::size_t next = 0;
    const std::int64_t chunks = (samples + RiskCampaign::kGrain - 1) / RiskCampaign::kGrain;
    for (std::int64_t c = 0; c < chunks; ++c) {
      const std::int64_t begin = c * RiskCampaign::kGrain;
      const std::int64_t end = std::min(samples, begin + RiskCampaign::kGrain);
      const std::string want =
          scalar_chunk_error(u, s_d, seed, begin, end, "risk.sample_chunk");
      if (want.empty()) {
        EXPECT_FALSE(result.chunks[static_cast<std::size_t>(c)].empty()) << "chunk " << c;
        continue;
      }
      ASSERT_LT(next, failed.size()) << "chunk " << c << " should fail: " << want;
      EXPECT_EQ(failed[next].chunk, c);
      EXPECT_EQ(failed[next].error, want) << "chunk " << c;
      ++next;
    }
    EXPECT_EQ(next, failed.size()) << "a chunk failed that the scalar body completes";
    EXPECT_GT(next, 0u) << "the plan should poison at least one chunk";
    EXPECT_LT(next, static_cast<std::size_t>(chunks)) << "and leave at least one intact";

    // The deadline-partial form fails with the first fault of the run:
    // the lowest firing sample's throw, or the whole-run guard naming
    // the first NaN -- exactly as the scalar body named it.
    const std::string want_partial = scalar_chunk_error(u, s_d, seed, 0, samples, "risk.samples");
    try {
      (void)monte_carlo_cost_partial(u, s_d, static_cast<int>(samples), seed, 0.0, &serial);
      ADD_FAILURE() << "a poisoned run must fail";
    } catch (const std::exception& e) {
      EXPECT_EQ(std::string(e.what()), want_partial);
    }
  }
}

}  // namespace
}  // namespace nanocost::core
