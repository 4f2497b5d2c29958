#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "nanocost/core/generalized_cost.hpp"
#include "nanocost/core/itrs_analysis.hpp"
#include "nanocost/core/optimizer.hpp"
#include "nanocost/core/regularity_link.hpp"
#include "nanocost/core/sensitivity.hpp"
#include "nanocost/core/transistor_cost.hpp"
#include "nanocost/regularity/extractor.hpp"

namespace nanocost::core {
namespace {

using units::CostPerArea;
using units::Micrometers;
using units::Money;
using units::Probability;
using units::SquareCentimeters;

TEST(Eq1, HandComputedValue) {
  // $2000 wafer, 10M transistors/chip, 100 chips/wafer, Y = 0.5:
  // 2000 / (1e7 * 100 * 0.5) = 4e-6 dollars per transistor.
  const Money c = cost_per_transistor_eq1(Money{2000.0}, 1e7, 100.0, Probability{0.5});
  EXPECT_NEAR(c.value(), 4e-6, 1e-12);
}

TEST(Eq1, RejectsZeroYield) {
  EXPECT_THROW(cost_per_transistor_eq1(Money{2000.0}, 1e7, 100.0, Probability{0.0}),
               std::domain_error);
}

TEST(Eq3, HandComputedValue) {
  // 8 $/cm^2, lambda 0.25 um (6.25e-10 cm^2), s_d 300, Y 0.8:
  // 8 * 6.25e-10 * 300 / 0.8 = 1.875e-6.
  const Money c = cost_per_transistor_eq3(CostPerArea{8.0}, Micrometers{0.25}, 300.0,
                                          Probability{0.8});
  EXPECT_NEAR(c.value(), 1.875e-6, 1e-15);
}

TEST(Eq3, MonotoneInEveryParameter) {
  const Money base = cost_per_transistor_eq3(CostPerArea{8.0}, Micrometers{0.25}, 300.0,
                                             Probability{0.8});
  EXPECT_GT(cost_per_transistor_eq3(CostPerArea{16.0}, Micrometers{0.25}, 300.0,
                                    Probability{0.8}),
            base);
  EXPECT_GT(cost_per_transistor_eq3(CostPerArea{8.0}, Micrometers{0.35}, 300.0,
                                    Probability{0.8}),
            base);
  EXPECT_GT(cost_per_transistor_eq3(CostPerArea{8.0}, Micrometers{0.25}, 400.0,
                                    Probability{0.8}),
            base);
  EXPECT_GT(cost_per_transistor_eq3(CostPerArea{8.0}, Micrometers{0.25}, 300.0,
                                    Probability{0.4}),
            base);
}

/// Runs `f`, which must throw std::overflow_error whose message names
/// `equation`.
template <typename F>
void expect_overflow_naming(F&& f, const std::string& equation) {
  try {
    (void)f();
    ADD_FAILURE() << "no exception; expected an overflow naming " << equation;
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string(e.what()).find(equation), std::string::npos) << e.what();
  }
}

TEST(Robustness, Eq1AndEq3AreDefinedOrNameTheOverflow) {
  // Every input below passes the entry guards (a denormal yield is > 0);
  // the quotient is then either finite or a std::overflow_error naming
  // the equation -- never a silent inf.
  const double denorm = std::numeric_limits<double>::denorm_min();
  expect_overflow_naming(
      [&] { return cost_per_transistor_eq1(Money{2000.0}, 1e7, 100.0, Probability{denorm}); },
      "eq. (1)");
  expect_overflow_naming(
      [&] {
        return cost_per_transistor_eq3(CostPerArea{8.0}, Micrometers{0.25}, 300.0,
                                       Probability{denorm});
      },
      "eq. (3)");
  expect_overflow_naming(
      [] {
        return cost_per_transistor_eq3(CostPerArea{8.0}, Micrometers{0.25}, 1e300,
                                       Probability{1e-30});
      },
      "eq. (3)");
  // Huge N_tr and s_d at a sane yield stay defined.
  const double eq1 = cost_per_transistor_eq1(Money{2000.0}, 1e300, 100.0, Probability{0.5}).value();
  EXPECT_TRUE(std::isfinite(eq1) && eq1 > 0.0) << eq1;
  const double eq3 =
      cost_per_transistor_eq3(CostPerArea{8.0}, Micrometers{0.25}, 1e300, Probability{0.8})
          .value();
  EXPECT_TRUE(std::isfinite(eq3) && eq3 > 0.0) << eq3;
}

TEST(Robustness, Eq1To5EntryPointsRejectNonFiniteInputs) {
  // A NaN slipping into any paper equation poisons every downstream
  // optimum silently; the entry points must refuse it loudly instead.
  const double kNaN = std::nan("");
  const double kInf = INFINITY;

  // Eq. (1).  Probability cannot hold NaN directly (its constructor
  // throws); clamped() maps NaN to 0, which the yield guard rejects.
  EXPECT_THROW(cost_per_transistor_eq1(Money{kNaN}, 1e7, 100.0, Probability{0.5}),
               std::domain_error);
  EXPECT_THROW(cost_per_transistor_eq1(Money{2000.0}, kInf, 100.0, Probability{0.5}),
               std::domain_error);
  EXPECT_THROW(cost_per_transistor_eq1(Money{2000.0}, 1e7, kNaN, Probability{0.5}),
               std::domain_error);
  EXPECT_THROW(
      cost_per_transistor_eq1(Money{2000.0}, 1e7, 100.0, Probability::clamped(kNaN)),
      std::domain_error);

  // Eq. (3).
  EXPECT_THROW(cost_per_transistor_eq3(CostPerArea{kInf}, Micrometers{0.25}, 300.0,
                                       Probability{0.8}),
               std::domain_error);
  EXPECT_THROW(cost_per_transistor_eq3(CostPerArea{8.0}, Micrometers{kNaN}, 300.0,
                                       Probability{0.8}),
               std::domain_error);
  EXPECT_THROW(cost_per_transistor_eq3(CostPerArea{8.0}, Micrometers{0.25}, kNaN,
                                       Probability{0.8}),
               std::domain_error);

  // Eq. (5).
  EXPECT_THROW(design_cost_per_area_eq5(Money{kNaN}, Money{9e6}, 1000.0,
                                        SquareCentimeters{100.0}),
               std::domain_error);
  EXPECT_THROW(design_cost_per_area_eq5(Money{1e6}, Money{kInf}, 1000.0,
                                        SquareCentimeters{100.0}),
               std::domain_error);
  EXPECT_THROW(design_cost_per_area_eq5(Money{1e6}, Money{9e6}, kNaN,
                                        SquareCentimeters{100.0}),
               std::domain_error);
  EXPECT_THROW(design_cost_per_area_eq5(Money{1e6}, Money{9e6}, 1000.0,
                                        SquareCentimeters{kInf}),
               std::domain_error);

  // The eq. (3) inversion behind Fig. 3.
  EXPECT_THROW(sd_for_die_cost(Money{kNaN}, Probability{0.8}, CostPerArea{8.0}, 1e7,
                               Micrometers{0.25}),
               std::domain_error);
  EXPECT_THROW(sd_for_die_cost(Money{50.0}, Probability{0.8}, CostPerArea{kInf}, 1e7,
                               Micrometers{0.25}),
               std::domain_error);

  // Eq. (4): non-finite scalars and a NaN-clamped yield both refuse.
  Eq4Inputs inputs;
  EXPECT_THROW((void)cost_per_transistor_eq4(inputs, kNaN), std::domain_error);
  inputs.manufacturing_cost = CostPerArea{kNaN};
  EXPECT_THROW((void)cost_per_transistor_eq4(inputs, 300.0), std::domain_error);
  inputs = Eq4Inputs{};
  inputs.transistors_per_chip = kInf;
  EXPECT_THROW((void)cost_per_transistor_eq4(inputs, 300.0), std::domain_error);
  inputs = Eq4Inputs{};
  inputs.yield = Probability::clamped(kNaN);
  EXPECT_THROW((void)cost_per_transistor_eq4(inputs, 300.0), std::domain_error);
}

TEST(Robustness, Eq1AndEq5NameADenominatorOverflow) {
  // N_tr * N_ch * Y and N_w * A_w overflow to inf for finite, positive
  // inputs; dividing by that would return an exact, finite 0.
  expect_overflow_naming(
      [] { return cost_per_transistor_eq1(Money{2000.0}, 1e300, 1e300, Probability{0.5}); },
      "eq. (1)");
  expect_overflow_naming(
      [] { return cost_per_transistor_eq1(Money{2000.0}, 1e200, 1e200, Probability{1.0}); },
      "N_tr * N_ch * Y");
  expect_overflow_naming(
      [] {
        return design_cost_per_area_eq5(Money{1e6}, Money{9e6}, 1e300,
                                        SquareCentimeters{1e10});
      },
      "eq. (5)");
  expect_overflow_naming(
      [] {
        return design_cost_per_area_eq5(Money{0.0}, Money{1.0}, 1e308,
                                        SquareCentimeters{10.0});
      },
      "N_w * A_w");
  // Just below the overflow the products are finite and the results
  // are tiny but positive.
  EXPECT_GT(cost_per_transistor_eq1(Money{2000.0}, 1e150, 1e150, Probability{0.5}).value(),
            0.0);
  EXPECT_GT(design_cost_per_area_eq5(Money{1e6}, Money{9e6}, 1e150, SquareCentimeters{1e10})
                .value(),
            0.0);
}

TEST(Eq5, AmortizesNreOverFabricatedSilicon) {
  const CostPerArea cd = design_cost_per_area_eq5(Money{1e6}, Money{9e6}, 1000.0,
                                                  SquareCentimeters{100.0});
  EXPECT_NEAR(cd.value(), 1e7 / 1e5, 1e-9);
}

TEST(Eq4, ConvergesToEq3AtInfiniteVolume) {
  // The paper: "for high volume IC products (large N_w) C_tr described
  // by (3) and (4) becomes equal."
  Eq4Inputs inputs;
  inputs.lambda = Micrometers{0.25};
  inputs.yield = Probability{0.8};
  inputs.manufacturing_cost = CostPerArea{8.0};
  inputs.transistors_per_chip = 1e7;
  const double s_d = 300.0;
  const Money eq3 = cost_per_transistor_eq3(inputs.manufacturing_cost, inputs.lambda, s_d,
                                            inputs.yield);
  inputs.n_wafers = 1e12;
  const Eq4Breakdown huge_volume = cost_per_transistor_eq4(inputs, s_d);
  EXPECT_NEAR(huge_volume.total.value(), eq3.value(), eq3.value() * 1e-6);
  // At modest volume the design term is material.
  inputs.n_wafers = 5000.0;
  const Eq4Breakdown small_volume = cost_per_transistor_eq4(inputs, s_d);
  EXPECT_GT(small_volume.total.value(), eq3.value() * 1.5);
}

TEST(Eq4, BreakdownSumsAndScales) {
  Eq4Inputs inputs;
  const Eq4Breakdown b = cost_per_transistor_eq4(inputs, 300.0);
  EXPECT_NEAR(b.total.value(), b.manufacturing.value() + b.design.value(), 1e-18);
  EXPECT_NEAR(b.per_die.value(), b.total.value() * inputs.transistors_per_chip, 1e-9);
  EXPECT_GT(b.design_nre.value(), 0.0);
  EXPECT_GT(b.cd_sq.value(), 0.0);
}

TEST(Eq4, UtilizationInflatesCostPerUsefulTransistor) {
  Eq4Inputs inputs;
  const double full = cost_per_transistor_eq4(inputs, 300.0).total.value();
  inputs.utilization = Probability{0.5};
  const double half = cost_per_transistor_eq4(inputs, 300.0).total.value();
  EXPECT_NEAR(half, full * 2.0, full * 1e-9);
}

TEST(Eq4, CostCurveIsUShaped) {
  // Fig. 4: C_tr(s_d) dips between the design-cost wall and the
  // manufacturing-cost ramp.
  Eq4Inputs inputs;
  inputs.transistors_per_chip = 1e7;
  inputs.n_wafers = 5000.0;
  inputs.yield = Probability{0.4};
  const double at_wall = cost_per_transistor_eq4(inputs, 110.0).total.value();
  const double at_mid = cost_per_transistor_eq4(inputs, 400.0).total.value();
  const double at_sparse = cost_per_transistor_eq4(inputs, 1900.0).total.value();
  EXPECT_LT(at_mid, at_wall);
  EXPECT_LT(at_mid, at_sparse);
}

TEST(SdForDieCost, ReproducesPaperAnchor) {
  // 1999: $34 die, Y = 0.8, 8 $/cm^2, 21M transistors, 180 nm ->
  // area = 34 * 0.8 / 8 = 3.4 cm^2 -> s_d = 3.4e8 / (21e6 * 0.0324).
  const double sd = sd_for_die_cost(Money{34.0}, Probability{0.8}, CostPerArea{8.0}, 21e6,
                                    Micrometers{0.18});
  EXPECT_NEAR(sd, 3.4e8 / (21e6 * 0.0324), 0.5);
}

TEST(Optimizer, FindsTheMinimumOfAParabola) {
  const Optimum opt = minimize_unimodal(
      [](double x) { return Money{(x - 7.0) * (x - 7.0) + 3.0}; }, 1.0, 100.0, 1e-6);
  EXPECT_NEAR(opt.s_d, 7.0, 1e-3);
  EXPECT_NEAR(opt.cost_per_transistor.value(), 3.0, 1e-6);
  EXPECT_THROW(minimize_unimodal([](double) { return Money{0.0}; }, 5.0, 1.0),
               std::invalid_argument);
}

TEST(Optimizer, Figure4OptimumShiftsWithVolumeAndYield) {
  // Fig. 4(a): N_tr = 1e7, N_w = 5000, Y = 0.4.
  Eq4Inputs low_volume;
  low_volume.transistors_per_chip = 1e7;
  low_volume.n_wafers = 5000.0;
  low_volume.yield = Probability{0.4};
  // Fig. 4(b): N_w = 50000, Y = 0.9.
  Eq4Inputs high_volume = low_volume;
  high_volume.n_wafers = 50000.0;
  high_volume.yield = Probability{0.9};

  const Optimum a = optimal_sd_eq4(low_volume);
  const Optimum b = optimal_sd_eq4(high_volume);
  // "the location of the optimum s_d changes substantially with the
  // volume and yield": high volume amortizes design cost, so the
  // optimum moves toward denser (smaller s_d) designs.
  EXPECT_LT(b.s_d, a.s_d * 0.7);
  // Neither optimum sits at the dense wall or at max yield (tiny die):
  EXPECT_GT(a.s_d, 110.0);
  EXPECT_LT(a.s_d, 1500.0);
  EXPECT_GT(b.s_d, 102.0);
  // And cost per transistor is cheaper in the high-volume scenario.
  EXPECT_LT(b.cost_per_transistor.value(), a.cost_per_transistor.value());
}

TEST(Optimizer, SweepMinimumMatchesGoldenSection) {
  Eq4Inputs inputs;
  inputs.n_wafers = 5000.0;
  inputs.yield = Probability{0.4};
  const Optimum opt = optimal_sd_eq4(inputs);
  const auto sweep = sweep_eq4(inputs, 105.0, 1900.0, 200);
  double best = 1e300;
  for (const SweepPoint& p : sweep) best = std::min(best, p.breakdown.total.value());
  EXPECT_NEAR(best, opt.cost_per_transistor.value(),
              opt.cost_per_transistor.value() * 0.01);
}

TEST(Optimizer, SweepNamesTheNonFiniteBound) {
  // An infinite hi passes 0 < lo < hi; the error must name hi, not the
  // NaN grid point it would produce.
  const Eq4Inputs inputs;
  const double inf = std::numeric_limits<double>::infinity();
  try {
    (void)sweep_eq4(inputs, 200.0, inf, 10);
    ADD_FAILURE() << "an infinite sweep bound was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sweep bound hi must be finite"), std::string::npos)
        << e.what();
  }
}

TEST(ItrsAnalysis, Figure2SeriesDeclines) {
  const auto series = itrs_implied_sd(roadmap::Roadmap::itrs1999());
  ASSERT_EQ(series.size(), 6u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_LT(series[i].implied_sd, series[i - 1].implied_sd);
    EXPECT_LT(series[i].lambda.value(), series[i - 1].lambda.value());
  }
}

TEST(ItrsAnalysis, Figure3RatioGrowsAsLambdaShrinks) {
  // The cost contradiction: the ratio of roadmap-implied s_d to the
  // constant-die-cost-required s_d starts at 1 in 1999 and grows.
  const auto series = constant_die_cost_sd(roadmap::Roadmap::itrs1999());
  ASSERT_EQ(series.size(), 6u);
  EXPECT_NEAR(series.front().ratio, 1.0, 0.02);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GT(series[i].ratio, series[i - 1].ratio);
  }
  EXPECT_GT(series.back().ratio, 1.5);
  // By the end of the roadmap the *required* s_d dives below the
  // custom-density wall of ~100 -- the contradiction is physical.
  EXPECT_LT(series.back().required_sd, 100.0);
}

TEST(Sensitivity, LambdaIsTheBiggestLeverAtHighVolume) {
  Eq4Inputs inputs;  // high volume default: manufacturing dominates
  inputs.n_wafers = 1e6;
  const auto elasticities = eq4_elasticities(inputs, 300.0);
  ASSERT_FALSE(elasticities.empty());
  // lambda enters squared: elasticity ~ +2, the largest magnitude.
  EXPECT_EQ(elasticities.front().parameter, "lambda");
  EXPECT_NEAR(elasticities.front().elasticity, 2.0, 0.05);
  // Yield enters inversely: elasticity ~ -1.
  for (const Elasticity& e : elasticities) {
    if (e.parameter == "yield") {
      EXPECT_NEAR(e.elasticity, -1.0, 0.05);
    }
    if (e.parameter == "Cm_sq") {
      EXPECT_GT(e.elasticity, 0.9);  // manufacturing share ~ 1 at volume
    }
  }
}

TEST(Sensitivity, DesignKnobsMatterAtLowVolume) {
  Eq4Inputs inputs;
  inputs.n_wafers = 2000.0;
  const auto elasticities = eq4_elasticities(inputs, 150.0);
  double a0_elasticity = 0.0, nw_elasticity = 0.0;
  for (const Elasticity& e : elasticities) {
    if (e.parameter == "A0") a0_elasticity = e.elasticity;
    if (e.parameter == "N_w") nw_elasticity = e.elasticity;
  }
  EXPECT_GT(a0_elasticity, 0.5);   // design cost dominates
  EXPECT_LT(nw_elasticity, -0.5);  // more volume would help a lot
}

TEST(Generalized, EvaluationIsInternallyConsistent) {
  ProductScenario scenario;
  scenario.transistors = 1e7;
  scenario.lambda = Micrometers{0.25};
  scenario.n_wafers = 20000.0;
  const GeneralizedCostModel model(scenario);
  const CostEvaluation e = model.evaluate(300.0);
  EXPECT_GT(e.dies_per_wafer, 0);
  EXPECT_GT(e.yield.value(), 0.0);
  EXPECT_LE(e.yield.value(), 1.0);
  EXPECT_NEAR(e.cost_per_transistor.value(),
              e.manufacturing_per_transistor.value() + e.design_per_transistor.value(),
              1e-18);
  EXPECT_NEAR(e.cost_per_die.value(), e.cost_per_transistor.value() * scenario.transistors,
              1e-9);
  EXPECT_NEAR(e.die_area.value(), 1e7 * 300.0 * 6.25e-10, 1e-9);
  EXPECT_LT(e.good_dies_per_wafer, static_cast<double>(e.dies_per_wafer));
}

TEST(Generalized, DensityDependentYieldPunishesDenseDesigns) {
  ProductScenario scenario;
  scenario.transistors = 2e7;
  scenario.density_dependent_yield = true;
  const GeneralizedCostModel with(scenario);
  scenario.density_dependent_yield = false;
  const GeneralizedCostModel without(scenario);
  // At dense s_d the density-coupled model sees more critical area ->
  // lower yield than the area-only model at the same s_d... but at the
  // *same* s_d the area is identical, so compare the CA ratio directly.
  const CostEvaluation dense = with.evaluate(120.0);
  const CostEvaluation sparse = with.evaluate(500.0);
  EXPECT_GT(dense.critical_area_ratio, sparse.critical_area_ratio);
  EXPECT_DOUBLE_EQ(without.evaluate(120.0).critical_area_ratio, 1.0);
}

TEST(Generalized, DieMustFitTheWafer) {
  ProductScenario scenario;
  scenario.transistors = 1e9;  // a billion transistors at 0.25 um...
  scenario.lambda = Micrometers{0.25};
  const GeneralizedCostModel model(scenario);
  // ...tops out near s_d ~ 300 on a 200 mm wafer; 400 cannot fit.
  EXPECT_THROW(model.evaluate(400.0), std::domain_error);
  EXPECT_LT(model.max_feasible_sd(), 400.0);
}

TEST(Generalized, OptimalSdIsInteriorAndVolumeSensitive) {
  ProductScenario low;
  low.transistors = 1e7;
  low.n_wafers = 3000.0;
  ProductScenario high = low;
  high.n_wafers = 100000.0;
  const Optimum a = optimal_sd(GeneralizedCostModel{low});
  const Optimum b = optimal_sd(GeneralizedCostModel{high});
  EXPECT_LT(b.s_d, a.s_d);
  EXPECT_LT(b.cost_per_transistor.value(), a.cost_per_transistor.value());
}

TEST(Generalized, LearningCurveBeatsPessimisticConstantDensity) {
  ProductScenario constant;
  constant.defect_density = 1.5;  // start-of-life density forever
  ProductScenario learning = constant;
  learning.learning = yield::LearningCurve{1.5, 0.3, 10000.0};
  const auto y_const = GeneralizedCostModel{constant}.evaluate(300.0).yield.value();
  const auto y_learn = GeneralizedCostModel{learning}.evaluate(300.0).yield.value();
  EXPECT_GT(y_learn, y_const);
}

TEST(RegularityLink, RegularFabricCutsDesignCost) {
  // A perfectly regular report vs an all-unique one.
  regularity::RegularityReport regular;
  regular.total_windows = 10000;
  regular.unique_patterns = 10;
  regularity::RegularityReport irregular;
  irregular.total_windows = 10000;
  irregular.unique_patterns = 10000;

  Eq4Inputs base;
  base.n_wafers = 5000.0;
  const double sd = 200.0;
  const double cost_regular =
      cost_per_transistor_eq4(apply_regularity(base, regular), sd).total.value();
  const double cost_irregular =
      cost_per_transistor_eq4(apply_regularity(base, irregular), sd).total.value();
  const double cost_base = cost_per_transistor_eq4(base, sd).total.value();
  EXPECT_LT(cost_regular, cost_base);
  EXPECT_NEAR(cost_irregular, cost_base, cost_base * 1e-9);
}

TEST(RegularityLink, FamilySharingAmortizesFurther) {
  regularity::RegularityReport regular;
  regular.total_windows = 10000;
  regular.unique_patterns = 100;
  Eq4Inputs base;
  base.n_wafers = 5000.0;
  RegularityAdjustment solo;
  solo.products_sharing = 1;
  RegularityAdjustment family;
  family.products_sharing = 5;
  const double sd = 200.0;
  const double cost_solo =
      cost_per_transistor_eq4(apply_regularity(base, regular, solo), sd).total.value();
  const double cost_family =
      cost_per_transistor_eq4(apply_regularity(base, regular, family), sd).total.value();
  EXPECT_LT(cost_family, cost_solo);
}

}  // namespace
}  // namespace nanocost::core
