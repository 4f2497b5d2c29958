// Parameterized property sweeps over the model family: invariants that
// must hold across the whole parameter space, not just at hand-picked
// points.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "nanocost/core/optimizer.hpp"
#include "nanocost/core/transistor_cost.hpp"
#include "nanocost/geometry/wafer_map.hpp"
#include "nanocost/yield/models.hpp"

namespace nanocost {
namespace {

using units::CostPerArea;
using units::Micrometers;
using units::Millimeters;
using units::Probability;

// ---------------------------------------------------------------------------
// Eq. (4) has a unique interior minimum for every scenario in the grid.

struct ScenarioCase {
  double transistors;
  double n_wafers;
  double yield;
  double lambda_um;
};

class OptimumExistence : public ::testing::TestWithParam<ScenarioCase> {};

TEST_P(OptimumExistence, InteriorUniqueMinimum) {
  const ScenarioCase c = GetParam();
  core::Eq4Inputs inputs;
  inputs.transistors_per_chip = c.transistors;
  inputs.n_wafers = c.n_wafers;
  inputs.yield = Probability{c.yield};
  inputs.lambda = Micrometers{c.lambda_um};

  const core::Optimum opt = core::optimal_sd_eq4(inputs, 2000.0);
  const double wall = inputs.design_model.params().s_d0;
  EXPECT_GT(opt.s_d, wall * 1.01);
  EXPECT_LT(opt.s_d, 2000.0);

  // The curve rises on both sides of the optimum.
  const double at_opt = opt.cost_per_transistor.value();
  const double left = core::cost_per_transistor_eq4(inputs, opt.s_d * 0.7).total.value();
  const double right = core::cost_per_transistor_eq4(inputs, opt.s_d * 1.6).total.value();
  EXPECT_GE(left, at_opt);
  EXPECT_GE(right, at_opt);
}

INSTANTIATE_TEST_SUITE_P(
    ScenarioGrid, OptimumExistence,
    ::testing::Values(ScenarioCase{1e6, 2000.0, 0.3, 0.35},
                      ScenarioCase{1e7, 5000.0, 0.4, 0.25},
                      ScenarioCase{1e7, 50000.0, 0.9, 0.25},
                      ScenarioCase{1e8, 20000.0, 0.6, 0.18},
                      ScenarioCase{5e7, 100000.0, 0.8, 0.13},
                      ScenarioCase{2e6, 1000.0, 0.5, 0.5}));

// ---------------------------------------------------------------------------
// Monotonicity of eq. (4) in each scalar input, everywhere on a grid.

class Eq4Monotonicity : public ::testing::TestWithParam<double> {};

TEST_P(Eq4Monotonicity, CostFallsWithVolumeRisesWithNre) {
  const double s_d = GetParam();
  core::Eq4Inputs inputs;
  inputs.n_wafers = 10000.0;

  const double base = core::cost_per_transistor_eq4(inputs, s_d).total.value();

  core::Eq4Inputs more_volume = inputs;
  more_volume.n_wafers *= 2.0;
  EXPECT_LT(core::cost_per_transistor_eq4(more_volume, s_d).total.value(), base);

  core::Eq4Inputs pricier_masks = inputs;
  pricier_masks.mask_cost = inputs.mask_cost * 10.0;
  EXPECT_GT(core::cost_per_transistor_eq4(pricier_masks, s_d).total.value(), base);

  core::Eq4Inputs better_yield = inputs;
  better_yield.yield = Probability{0.95};
  EXPECT_LT(core::cost_per_transistor_eq4(better_yield, s_d).total.value(), base);

  core::Eq4Inputs finer_node = inputs;
  finer_node.lambda = inputs.lambda * 0.7;
  EXPECT_LT(core::cost_per_transistor_eq4(finer_node, s_d).total.value(), base);
}

INSTANTIATE_TEST_SUITE_P(SdGrid, Eq4Monotonicity,
                         ::testing::Values(120.0, 150.0, 200.0, 300.0, 500.0, 900.0,
                                           1500.0));

// ---------------------------------------------------------------------------
// The design term always falls with s_d; the manufacturing term always
// rises: the tension that creates the Fig. 4 U-shape.

class TermOpposition : public ::testing::TestWithParam<double> {};

TEST_P(TermOpposition, DesignFallsManufacturingRises) {
  const double s_d = GetParam();
  core::Eq4Inputs inputs;
  inputs.n_wafers = 5000.0;
  const auto here = core::cost_per_transistor_eq4(inputs, s_d);
  const auto sparser = core::cost_per_transistor_eq4(inputs, s_d * 1.25);
  EXPECT_GT(sparser.manufacturing.value(), here.manufacturing.value());
  EXPECT_LT(sparser.design_nre.value(), here.design_nre.value());
}

INSTANTIATE_TEST_SUITE_P(SdGrid, TermOpposition,
                         ::testing::Values(110.0, 140.0, 200.0, 350.0, 600.0, 1200.0));

// ---------------------------------------------------------------------------
// Yield models stay in (0, 1] and decrease in lambda over a 2-D grid.

struct YieldCase {
  const char* model;
  double lambda;
};

// Names each case by its spec and lambda: the default byte dump would
// print the string pointer, which moves from build to build.
void PrintTo(const YieldCase& c, std::ostream* os) { *os << c.model << "@" << c.lambda; }

class YieldBounds : public ::testing::TestWithParam<YieldCase> {};

TEST_P(YieldBounds, InUnitIntervalAndMonotone) {
  const auto [spec, l] = GetParam();
  const auto model = yield::make_yield_model(spec);
  const double y = model->yield(l).value();
  EXPECT_GT(y, 0.0);
  EXPECT_LE(y, 1.0);
  EXPECT_LE(model->yield(l * 1.5).value(), y);
}

INSTANTIATE_TEST_SUITE_P(
    ModelLambdaGrid, YieldBounds,
    ::testing::Values(YieldCase{"poisson", 0.1}, YieldCase{"poisson", 2.0},
                      YieldCase{"murphy", 0.5}, YieldCase{"murphy", 5.0},
                      YieldCase{"seeds", 1.0}, YieldCase{"bose-einstein", 3.0},
                      YieldCase{"negbin:0.5", 1.0}, YieldCase{"negbin:2", 4.0},
                      YieldCase{"negbin:10", 0.3}));

// ---------------------------------------------------------------------------
// Wafer-map count scales ~linearly with wafer area across die sizes.

class WaferScaling : public ::testing::TestWithParam<double> {};

TEST_P(WaferScaling, Mm300HoldsRoughlyTwiceMm200) {
  const double edge = GetParam();
  const geometry::DieSize die{Millimeters{edge}, Millimeters{edge}};
  const auto n200 = geometry::gross_die_per_wafer(geometry::WaferSpec::mm200(), die);
  const auto n300 = geometry::gross_die_per_wafer(geometry::WaferSpec::mm300(), die);
  ASSERT_GT(n200, 0);
  const double ratio = static_cast<double>(n300) / static_cast<double>(n200);
  // Usable-area ratio is (147/97)^2 ~ 2.30; edge effects favor the
  // larger wafer, so the count ratio must be at least ~2.
  EXPECT_GT(ratio, 2.0) << "edge = " << edge;
  EXPECT_LT(ratio, 3.5) << "edge = " << edge;
}

INSTANTIATE_TEST_SUITE_P(DieEdges, WaferScaling,
                         ::testing::Values(5.0, 8.0, 11.0, 15.0, 20.0));

// ---------------------------------------------------------------------------
// sd_for_die_cost is the exact inverse of the eq. (3) die cost.

class DieCostInversion : public ::testing::TestWithParam<double> {};

TEST_P(DieCostInversion, RoundTrips) {
  const double budget = GetParam();
  const Micrometers lambda{0.18};
  const double n_tr = 21e6;
  const Probability y{0.8};
  const CostPerArea csq{8.0};
  const double sd = core::sd_for_die_cost(units::Money{budget}, y, csq, n_tr, lambda);
  const units::Money per_tr = core::cost_per_transistor_eq3(csq, lambda, sd, y);
  EXPECT_NEAR(per_tr.value() * n_tr, budget, budget * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Budgets, DieCostInversion,
                         ::testing::Values(5.0, 15.0, 34.0, 70.0, 150.0));

}  // namespace
}  // namespace nanocost
