#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "nanocost/geometry/die.hpp"
#include "nanocost/geometry/reticle.hpp"
#include "nanocost/geometry/wafer.hpp"
#include "nanocost/geometry/wafer_map.hpp"

namespace nanocost::geometry {
namespace {

using units::Millimeters;
using units::SquareCentimeters;

TEST(DieSize, SquareOfAreaHasRightArea) {
  const DieSize die = DieSize::square_of_area(SquareCentimeters{1.0});
  EXPECT_NEAR(die.width().value(), 10.0, 1e-12);
  EXPECT_NEAR(die.height().value(), 10.0, 1e-12);
  EXPECT_NEAR(die.area().value(), 1.0, 1e-12);
}

TEST(DieSize, AspectRatioIsHonored) {
  const DieSize die = DieSize::of_area(SquareCentimeters{2.0}, 2.0);
  EXPECT_NEAR(die.aspect_ratio(), 2.0, 1e-12);
  EXPECT_NEAR(die.area().value(), 2.0, 1e-12);
  EXPECT_GT(die.width(), die.height());
}

TEST(DieSize, RejectsDegenerateDimensions) {
  EXPECT_THROW(DieSize(Millimeters{0.0}, Millimeters{5.0}), std::domain_error);
  EXPECT_THROW(DieSize::square_of_area(SquareCentimeters{0.0}), std::domain_error);
  EXPECT_THROW(DieSize::of_area(SquareCentimeters{1.0}, 0.0), std::domain_error);
}

TEST(DieSize, HalfDiagonal) {
  const DieSize die{Millimeters{6.0}, Millimeters{8.0}};
  EXPECT_NEAR(die.half_diagonal().value(), 5.0, 1e-12);
}

TEST(WaferSpec, StandardGenerations) {
  EXPECT_DOUBLE_EQ(WaferSpec::mm200().diameter().value(), 200.0);
  EXPECT_DOUBLE_EQ(WaferSpec::mm300().diameter().value(), 300.0);
  EXPECT_DOUBLE_EQ(WaferSpec::mm200().usable_radius().value(), 97.0);
}

TEST(WaferSpec, AreaMatchesCircle) {
  const WaferSpec w = WaferSpec::mm200();
  EXPECT_NEAR(w.area().value(), M_PI * 10.0 * 10.0, 1e-9);
  EXPECT_LT(w.usable_area().value(), w.area().value());
}

TEST(WaferSpec, RejectsAbsurdEdgeExclusion) {
  EXPECT_THROW(WaferSpec(Millimeters{100.0}, Millimeters{50.0}, Millimeters{0.1}),
               std::domain_error);
}

TEST(GrossDie, TinyDieApproachesAreaRatio) {
  const WaferSpec wafer = WaferSpec::mm300();
  const DieSize die{Millimeters{2.0}, Millimeters{2.0}};
  const auto exact = gross_die_per_wafer(wafer, die);
  const double analytic = gross_die_per_wafer_analytic(wafer, die);
  EXPECT_NEAR(static_cast<double>(exact), analytic, analytic * 0.05);
}

TEST(GrossDie, HugeDieYieldsZeroOrOne) {
  const WaferSpec wafer = WaferSpec::mm200();
  const DieSize monster{Millimeters{180.0}, Millimeters{180.0}};
  EXPECT_EQ(gross_die_per_wafer(wafer, monster), 0);
  const DieSize barely{Millimeters{130.0}, Millimeters{130.0}};
  EXPECT_EQ(gross_die_per_wafer(wafer, barely), 1);
}

TEST(GrossDie, BestOfBothIsAtLeastEitherAnchor) {
  const WaferSpec wafer = WaferSpec::mm200();
  const DieSize die{Millimeters{17.0}, Millimeters{13.0}};
  const auto best = gross_die_per_wafer(wafer, die, GridAnchor::kBestOfBoth);
  EXPECT_GE(best, gross_die_per_wafer(wafer, die, GridAnchor::kDieCentered));
  EXPECT_GE(best, gross_die_per_wafer(wafer, die, GridAnchor::kStreetCentered));
}

TEST(GrossDie, MonotoneInWaferDiameter) {
  const DieSize die{Millimeters{12.0}, Millimeters{12.0}};
  const auto n150 = gross_die_per_wafer(WaferSpec::mm150(), die);
  const auto n200 = gross_die_per_wafer(WaferSpec::mm200(), die);
  const auto n300 = gross_die_per_wafer(WaferSpec::mm300(), die);
  EXPECT_LT(n150, n200);
  EXPECT_LT(n200, n300);
}

TEST(GrossDie, BoundedByUsableArea) {
  const WaferSpec wafer = WaferSpec::mm300();
  const DieSize die{Millimeters{8.0}, Millimeters{11.0}};
  const auto n = gross_die_per_wafer(wafer, die);
  const double upper = wafer.usable_area().value() / die.area().value();
  EXPECT_LE(static_cast<double>(n), upper);
}

class GrossDieSweep : public ::testing::TestWithParam<double> {};

TEST_P(GrossDieSweep, ExactCountIsWithinAnalyticEnvelope) {
  // Property: for die edges from 3 to 25 mm, the exact count sits within
  // 25% of the analytic approximation (both anchored on usable area).
  const double edge = GetParam();
  const WaferSpec wafer = WaferSpec::mm200();
  const DieSize die{Millimeters{edge}, Millimeters{edge}};
  const auto exact = static_cast<double>(gross_die_per_wafer(wafer, die));
  const double analytic = gross_die_per_wafer_analytic(wafer, die);
  EXPECT_GT(exact, 0.0);
  EXPECT_NEAR(exact, analytic, std::max(analytic * 0.25, 8.0)) << "edge = " << edge;
}

INSTANTIATE_TEST_SUITE_P(DieEdgesMm, GrossDieSweep,
                         ::testing::Values(3.0, 5.0, 7.0, 9.0, 11.0, 14.0, 18.0, 22.0, 25.0));

TEST(WaferMap, CountMatchesGrossDie) {
  const WaferSpec wafer = WaferSpec::mm200();
  const DieSize die{Millimeters{10.0}, Millimeters{14.0}};
  const WaferMap map(wafer, die);
  EXPECT_EQ(map.die_count(), gross_die_per_wafer(wafer, die));
}

TEST(WaferMap, AllSitesWithinUsableRadius) {
  const WaferSpec wafer = WaferSpec::mm200();
  const DieSize die{Millimeters{9.0}, Millimeters{9.0}};
  const WaferMap map(wafer, die);
  const double r = wafer.usable_radius().value();
  for (const DieSite& s : map.sites()) {
    EXPECT_LE(s.radial_distance().value() - die.half_diagonal().value(), r + 1e-9);
  }
}

TEST(WaferMap, SiteAtRoundTripsDieCenters) {
  const WaferSpec wafer = WaferSpec::mm200();
  const DieSize die{Millimeters{11.0}, Millimeters{7.0}};
  const WaferMap map(wafer, die);
  ASSERT_GT(map.die_count(), 0);
  for (std::size_t i = 0; i < map.sites().size(); i += 7) {
    const DieSite& s = map.sites()[i];
    EXPECT_EQ(map.site_at(s.center_x, s.center_y), static_cast<std::int64_t>(i));
  }
}

TEST(WaferMap, SiteAtRejectsPointsOffDie) {
  const WaferSpec wafer = WaferSpec::mm200();
  const DieSize die{Millimeters{10.0}, Millimeters{10.0}};
  const WaferMap map(wafer, die);
  // Far outside the wafer.
  EXPECT_EQ(map.site_at(Millimeters{500.0}, Millimeters{500.0}), -1);
}

/// Points site_at treats specially on `map`: for every site, its step
/// cell's edges, its die body's edges and the street margin between,
/// each with the doubles on either side, on both axes.
std::vector<double> site_probe_coords(const WaferMap& map, bool x_axis) {
  const double street = map.wafer().scribe_street().value();
  const double half =
      (x_axis ? map.die().width().value() : map.die().height().value()) / 2.0;
  std::vector<double> out;
  for (const DieSite& site : map.sites()) {
    const double c = x_axis ? site.center_x.value() : site.center_y.value();
    for (const double edge : {c - half - street / 2.0, c - half - street / 4.0, c - half,
                              c, c + half, c + half + street / 4.0, c + half + street / 2.0}) {
      out.push_back(std::nextafter(edge, -HUGE_VAL));
      out.push_back(edge);
      out.push_back(std::nextafter(edge, HUGE_VAL));
    }
  }
  return out;
}

/// The site whose die body holds (x, y), by scanning every site: what
/// the grid lookup must return whenever the street is wider than zero.
std::int64_t site_by_scan(const WaferMap& map, double x, double y) {
  const double half_w = map.die().width().value() / 2.0;
  const double half_h = map.die().height().value() / 2.0;
  for (std::size_t k = 0; k < map.sites().size(); ++k) {
    const DieSite& s = map.sites()[k];
    if (std::fabs(x - s.center_x.value()) <= half_w &&
        std::fabs(y - s.center_y.value()) <= half_h) {
      return static_cast<std::int64_t>(k);
    }
  }
  return -1;
}

TEST(WaferMap, SiteAtFindsTheDieBodyOnEdgesAndRejectsFarPoints) {
  // The lookup tests the grid bounds in the double domain before it
  // converts, so far, infinite and NaN coordinates return -1 instead of
  // reaching an out-of-range integer conversion.
  const WaferMap maps[] = {
      WaferMap(WaferSpec::mm200(), DieSize{Millimeters{12.0}, Millimeters{12.0}}),
      WaferMap(WaferSpec::mm200(), DieSize{Millimeters{7.0}, Millimeters{19.0}},
               GridAnchor::kStreetCentered),
      WaferMap(WaferSpec(Millimeters{100.0}, Millimeters{3.0}, Millimeters{2.0}),
               DieSize{Millimeters{60.0}, Millimeters{60.0}}),
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  const double far[] = {-kMax, -1e300, -1e19, -9.3e18, -1e9, 1e9, 9.3e18, 1e19, 1e300,
                        kMax, -kInf, kInf, std::numeric_limits<double>::quiet_NaN()};
  for (const WaferMap& map : maps) {
    ASSERT_GT(map.die_count(), 0);
    // Random points on and off the wafer, then every special x against
    // a site's center y (and the transpose), then far coordinates.
    const double r = map.wafer().diameter().value() * 0.6;
    std::vector<double> xs, ys;
    std::mt19937_64 rng(4242);
    std::uniform_real_distribution<double> coord(-r, r);
    for (int i = 0; i < 2000; ++i) {
      xs.push_back(coord(rng));
      ys.push_back(coord(rng));
    }
    for (const double x : site_probe_coords(map, true)) {
      xs.push_back(x);
      ys.push_back(map.sites()[xs.size() % map.sites().size()].center_y.value());
    }
    for (const double y : site_probe_coords(map, false)) {
      xs.push_back(map.sites()[ys.size() % map.sites().size()].center_x.value());
      ys.push_back(y);
    }
    const std::size_t near = xs.size();
    for (const double a : far) {
      for (const double b : {a, 0.0, map.sites().front().center_y.value()}) {
        xs.push_back(a);
        ys.push_back(b);
        xs.push_back(b);
        ys.push_back(a);
      }
    }
    std::vector<std::int64_t> got(xs.size());
    map.site_at_batch(xs.data(), ys.data(), got.data(), xs.size());
    std::int64_t hits = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(got[i], map.site_at(Millimeters{xs[i]}, Millimeters{ys[i]}))
          << "batch != site_at at (" << xs[i] << ", " << ys[i] << ")";
      const std::int64_t want = i < near ? site_by_scan(map, xs[i], ys[i]) : -1;
      ASSERT_EQ(got[i], want) << "at (" << xs[i] << ", " << ys[i] << ")";
      hits += got[i] >= 0 ? 1 : 0;
    }
    EXPECT_GT(hits, 0);
    EXPECT_LT(hits, static_cast<std::int64_t>(xs.size()));
  }
}

TEST(WaferMap, UtilizationIsReasonable) {
  const WaferSpec wafer = WaferSpec::mm300();
  const DieSize die{Millimeters{8.0}, Millimeters{8.0}};
  const WaferMap map(wafer, die);
  EXPECT_GT(map.area_utilization(), 0.7);
  EXPECT_LE(map.area_utilization(), 1.0);
}

TEST(Reticle, DiesPerFieldUsesBestOrientation) {
  const ReticleSpec reticle = ReticleSpec::typical();  // 25 x 32 mm
  // 12 x 30 die: upright 2x1 = 2, rotated (30x12): 0x2 -> 0; best = 2.
  const DieSize tall{Millimeters{12.0}, Millimeters{30.0}};
  EXPECT_EQ(reticle.dies_per_field(tall, Millimeters{0.1}), 2);
  // 30 x 12 die only fits rotated.
  const DieSize wide{Millimeters{30.0}, Millimeters{12.0}};
  EXPECT_EQ(reticle.dies_per_field(wide, Millimeters{0.1}), 2);
}

TEST(Reticle, FieldsPerWaferCoversAllDies) {
  const ReticleSpec reticle = ReticleSpec::typical();
  const WaferSpec wafer = WaferSpec::mm200();
  const DieSize die{Millimeters{10.0}, Millimeters{10.0}};
  const auto per_field = reticle.dies_per_field(die, wafer.scribe_street());
  const auto fields = reticle.fields_per_wafer(wafer, die);
  EXPECT_GE(fields * per_field, gross_die_per_wafer(wafer, die));
}

TEST(Reticle, OversizedDieThrows) {
  const ReticleSpec reticle = ReticleSpec::typical();
  const DieSize monster{Millimeters{40.0}, Millimeters{40.0}};
  EXPECT_THROW(reticle.fields_per_wafer(WaferSpec::mm200(), monster), std::domain_error);
}

}  // namespace
}  // namespace nanocost::geometry
