#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "nanocost/fabsim/economics.hpp"
#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/yield/models.hpp"

namespace nanocost::fabsim {
namespace {

using units::Micrometers;
using units::Millimeters;
using units::SquareCentimeters;

defect::WireArray reference_pattern() {
  return defect::WireArray{Micrometers{0.25}, Micrometers{0.25}, Micrometers{100.0}, 50};
}

FabSimulator make_simulator(double density, bool clustered = false,
                            double alpha = 2.0) {
  defect::DefectFieldParams field;
  field.density_per_cm2 = density;
  field.clustered = clustered;
  field.cluster_alpha = alpha;
  return FabSimulator{geometry::WaferSpec::mm200(),
                      geometry::DieSize{Millimeters{12.0}, Millimeters{12.0}},
                      defect::DefectSizeDistribution::for_feature_size(Micrometers{0.25}),
                      field, reference_pattern()};
}

TEST(KillModel, ProbabilityIsBoundedAndMonotone) {
  const DieKillModel kill{reference_pattern(), SquareCentimeters{1.44}};
  double prev = -1.0;
  for (double x = 0.1; x < 30.0; x *= 1.4) {
    const double p = kill.kill_probability(Micrometers{x});
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_GE(p, prev);
    prev = p;
  }
  // Defects below spacing and width are harmless.
  EXPECT_DOUBLE_EQ(kill.kill_probability(Micrometers{0.2}), 0.0);
}

TEST(KillModel, MeanFaultsScaleWithDensityAndArea) {
  const auto sizes = defect::DefectSizeDistribution::for_feature_size(Micrometers{0.25});
  const DieKillModel small{reference_pattern(), SquareCentimeters{1.0}};
  const DieKillModel large{reference_pattern(), SquareCentimeters{2.0}};
  EXPECT_NEAR(small.mean_faults_per_die(1.0, sizes) * 2.0,
              large.mean_faults_per_die(1.0, sizes), 1e-12);
  EXPECT_NEAR(small.mean_faults_per_die(0.5, sizes) * 2.0,
              small.mean_faults_per_die(1.0, sizes), 1e-12);
}

TEST(Simulator, ZeroDefectsMeansPerfectYield) {
  const auto sim = make_simulator(0.0);
  const LotResult lot = sim.run(5);
  EXPECT_DOUBLE_EQ(lot.yield(), 1.0);
  EXPECT_EQ(lot.good_dies, lot.total_dies);
}

TEST(Simulator, MatchesPoissonAnalyticYield) {
  // Uniform (unclustered) defects -> die kills are Poisson with the
  // analytic mean; measured yield must match exp(-lambda) within MC
  // error over a decent run.
  const auto sim = make_simulator(0.4);
  const double lambda = sim.analytic_mean_faults();
  ASSERT_GT(lambda, 0.05);
  const LotResult lot = sim.run(300, 99);
  const double expected = std::exp(-lambda);
  EXPECT_NEAR(lot.yield(), expected, 0.02);
}

TEST(Simulator, FaultCountStatisticsArePoissonWhenUnclustered) {
  const auto sim = make_simulator(0.8);
  const LotResult lot = sim.run(200, 5);
  // Poisson: variance == mean (allow MC slack).
  const double ratio = lot.fault_variance() / lot.fault_mean();
  EXPECT_NEAR(ratio, 1.0, 0.15);
}

TEST(Simulator, ClusteringInflatesFaultVarianceAndYield) {
  const auto plain = make_simulator(0.8);
  const auto clustered = make_simulator(0.8, true, 0.5);
  const LotResult lot_plain = plain.run(200, 5);
  const LotResult lot_clustered = clustered.run(200, 5);
  EXPECT_GT(lot_clustered.fault_variance() / lot_clustered.fault_mean(), 1.5);
  // Same mean defect pressure, but clustering spares more dies.
  EXPECT_GT(lot_clustered.yield(), lot_plain.yield());
}

TEST(Simulator, ClusteredYieldTracksNegativeBinomial) {
  const double alpha = 1.0;
  const auto sim = make_simulator(0.6, true, alpha);
  const double lambda = sim.analytic_mean_faults();
  const LotResult lot = sim.run(400, 123);
  const double expected = yield::NegativeBinomialYield{alpha}.yield(lambda).value();
  EXPECT_NEAR(lot.yield(), expected, 0.03);
}

TEST(Simulator, HigherDensityLowersYield) {
  const LotResult clean = make_simulator(0.2).run(50, 3);
  const LotResult dirty = make_simulator(1.5).run(50, 3);
  EXPECT_GT(clean.yield(), dirty.yield());
}

TEST(Simulator, RampImprovesYieldOverTime) {
  const auto sim = make_simulator(1.0);
  const yield::LearningCurve curve{2.0, 0.2, 2000.0};
  const auto checkpoints = sim.run_ramp(curve, 6000, 2000, 31);
  ASSERT_EQ(checkpoints.size(), 3u);
  EXPECT_LT(checkpoints.front().yield(), checkpoints.back().yield());
}

TEST(Simulator, ResultBookkeepingConsistent) {
  const auto sim = make_simulator(0.7);
  const LotResult lot = sim.run(20, 9);
  ASSERT_EQ(lot.wafers.size(), 20u);
  std::int64_t good = 0, total = 0, hist_total = 0;
  for (const WaferResult& w : lot.wafers) {
    EXPECT_LE(w.good_dies, w.gross_dies);
    EXPECT_LE(w.defects_on_dies, w.defects);
    good += w.good_dies;
    total += w.gross_dies;
  }
  for (const std::int64_t h : lot.fault_histogram) hist_total += h;
  EXPECT_EQ(good, lot.good_dies);
  EXPECT_EQ(total, lot.total_dies);
  EXPECT_EQ(hist_total, lot.total_dies);
}

TEST(Simulator, Validation) {
  EXPECT_THROW(make_simulator(0.5).run(0), std::invalid_argument);
  defect::DefectFieldParams field;
  EXPECT_THROW(FabSimulator(geometry::WaferSpec::mm150(),
                            geometry::DieSize{Millimeters{200.0}, Millimeters{200.0}},
                            defect::DefectSizeDistribution::for_feature_size(
                                Micrometers{0.25}),
                            field, reference_pattern()),
               std::invalid_argument);
}

TEST(Economics, PricesLotFromMeasuredYield) {
  const auto sim = make_simulator(0.5);
  const LotResult lot = sim.run(50, 21);
  const cost::WaferCostModel wafer_model{Micrometers{0.25}, geometry::WaferSpec::mm200(),
                                         24};
  const RunEconomics econ = price_lot(lot, wafer_model, 1e7);
  EXPECT_GT(econ.good_dies, 0);
  EXPECT_NEAR(econ.total_cost.value(), econ.wafer_cost.value() * 50.0, 1e-6);
  EXPECT_NEAR(econ.cost_per_good_die.value(),
              econ.total_cost.value() / static_cast<double>(econ.good_dies), 1e-9);
  EXPECT_NEAR(econ.cost_per_good_transistor.value(),
              econ.cost_per_good_die.value() / 1e7, 1e-18);
  EXPECT_DOUBLE_EQ(econ.measured_yield, lot.yield());
}

TEST(Economics, WorseYieldMeansPricierDies) {
  const cost::WaferCostModel wafer_model{Micrometers{0.25}, geometry::WaferSpec::mm200(),
                                         24};
  const RunEconomics clean = price_lot(make_simulator(0.2).run(50, 2), wafer_model, 1e7);
  const RunEconomics dirty = price_lot(make_simulator(1.5).run(50, 2), wafer_model, 1e7);
  EXPECT_GT(dirty.cost_per_good_die.value(), clean.cost_per_good_die.value());
}

TEST(Simulator, SnapshotFaultsMatchesMapSites) {
  const auto sim = make_simulator(1.0);
  const auto faults = sim.snapshot_faults(5);
  EXPECT_EQ(static_cast<std::int64_t>(faults.size()), sim.wafer_map().die_count());
  std::int64_t total = 0;
  for (const std::int32_t f : faults) {
    EXPECT_GE(f, 0);
    total += f;
  }
  EXPECT_GT(total, 0);  // at 1 defect/cm^2 some dies are hit
  // Deterministic per seed.
  EXPECT_EQ(sim.snapshot_faults(5), faults);
  EXPECT_NE(sim.snapshot_faults(6), faults);
}

/// A simulator for one kill-table configuration: the pattern, the die
/// and the size support vary; density and clustering do not enter the
/// table and vary too, to show they never split it.
FabSimulator lut_simulator(double wire_width = 0.25, double wire_spacing = 0.25,
                           double wire_length = 100.0, int wires = 50, double die_mm = 12.0,
                           double xmin = 0.125, double xmax = 25.0, double density = 0.5) {
  defect::DefectFieldParams field;
  field.density_per_cm2 = density;
  return FabSimulator{geometry::WaferSpec::mm200(),
                      geometry::DieSize{Millimeters{die_mm}, Millimeters{die_mm}},
                      defect::DefectSizeDistribution{Micrometers{xmin}, Micrometers{0.25},
                                                     Micrometers{xmax}, 3.0},
                      field,
                      defect::WireArray{Micrometers{wire_width}, Micrometers{wire_spacing},
                                        Micrometers{wire_length}, wires}};
}

TEST(KillLutMemo, EqualKillModelsShareOneTable) {
  const FabSimulator a = lut_simulator();
  const FabSimulator b = lut_simulator(0.25, 0.25, 100.0, 50, 12.0, 0.125, 25.0, 1.3);
  EXPECT_EQ(&a.kill_lut(), &b.kill_lut());
  const FabSimulator copy = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(&a.kill_lut(), &copy.kill_lut());
}

TEST(KillLutMemo, EveryKeyFieldGivesItsOwnTable) {
  const FabSimulator base = lut_simulator();
  const FabSimulator variants[] = {
      lut_simulator(0.3),                                     // wire width
      lut_simulator(0.25, 0.3),                               // wire spacing
      lut_simulator(0.25, 0.25, 120.0),                       // wire length
      lut_simulator(0.25, 0.25, 100.0, 51),                   // wire count
      lut_simulator(0.25, 0.25, 100.0, 50, 12.0, 0.12),       // xmin
      lut_simulator(0.25, 0.25, 100.0, 50, 12.0, 0.125, 30.0),  // xmax
  };
  std::set<const KillProbabilityLut*> tables{&base.kill_lut()};
  for (const FabSimulator& v : variants) tables.insert(&v.kill_lut());
  EXPECT_EQ(tables.size(), std::size(variants) + 1);
  // The die area is no input of the table: dies of one pattern share it.
  EXPECT_EQ(&lut_simulator(0.25, 0.25, 100.0, 50, 11.0).kill_lut(), &base.kill_lut());
  // bins: the one key field a simulator does not choose.
  const auto a = KillProbabilityLut::shared(base.kill_model(), Micrometers{0.125},
                                            Micrometers{25.0}, 512);
  EXPECT_NE(a.get(), &base.kill_lut());
  EXPECT_EQ(a.get(), KillProbabilityLut::shared(base.kill_model(), Micrometers{0.125},
                                                Micrometers{25.0}, 512)
                         .get());
}

TEST(KillLutMemo, SharedTableIsBitwiseAFreshBuild) {
  const FabSimulator sim = lut_simulator();
  const FabSimulator again = lut_simulator(0.25, 0.25, 100.0, 50, 12.0, 0.125, 25.0, 0.9);
  ASSERT_EQ(&sim.kill_lut(), &again.kill_lut());
  const KillProbabilityLut fresh(sim.kill_model(), Micrometers{0.125}, Micrometers{25.0});
  EXPECT_EQ(fresh.bins(), sim.kill_lut().bins());
  EXPECT_EQ(fresh.interpolated_bins(), sim.kill_lut().interpolated_bins());
  std::vector<double> xs;
  for (double x = 0.05; x < 40.0; x *= 1.0007) xs.push_back(x);
  std::vector<double> want(xs.size()), have(xs.size());
  fresh.evaluate_batch(xs.data(), want.data(), xs.size());
  sim.kill_lut().evaluate_batch(xs.data(), have.data(), xs.size());
  EXPECT_EQ(0, std::memcmp(want.data(), have.data(), xs.size() * sizeof(double)));
  // And the lot a shared table drives is the lot a private one would:
  // two simulators of one configuration agree bitwise.
  const LotResult x = sim.run(8, 5);
  const LotResult y = lut_simulator().run(8, 5);
  EXPECT_EQ(x.good_dies, y.good_dies);
  EXPECT_EQ(x.fault_histogram, y.fault_histogram);
}

TEST(KillLutMemo, DistinctConfigurationsStayWithinCapacity) {
  std::weak_ptr<const KillProbabilityLut> first;
  {
    const FabSimulator sim = lut_simulator(0.25, 0.25, 1000.0);
    first = KillProbabilityLut::shared(sim.kill_model(), Micrometers{0.125}, Micrometers{25.0});
    EXPECT_EQ(first.lock().get(), &sim.kill_lut());
  }
  // Once its simulator is gone, only the memo can keep a table alive,
  // so the tables still alive are the ones it retains.
  std::vector<std::weak_ptr<const KillProbabilityLut>> tables;
  for (int i = 1; i < 100; ++i) {
    const FabSimulator sim = lut_simulator(0.25, 0.25, 1000.0 + i);
    tables.push_back(KillProbabilityLut::shared(sim.kill_model(), Micrometers{0.125},
                                                Micrometers{25.0}));
    const auto alive = std::count_if(tables.begin(), tables.end(),
                                     [](const auto& t) { return !t.expired(); });
    EXPECT_LE(static_cast<std::size_t>(alive), KillProbabilityLut::kSharedCapacity);
  }
  // The most recent kSharedCapacity tables are the ones kept.
  for (std::size_t i = 0; i < tables.size(); ++i) {
    EXPECT_EQ(tables[i].expired(), i + KillProbabilityLut::kSharedCapacity < tables.size())
        << "table " << i;
  }
  // Evicted and held by no simulator: the table is gone.
  EXPECT_TRUE(first.expired());
  // A live simulator keeps its table through eviction.
  const FabSimulator held = lut_simulator(0.25, 0.25, 2000.0);
  const KillProbabilityLut* table = &held.kill_lut();
  for (int i = 1; i < 40; ++i) (void)lut_simulator(0.25, 0.25, 2000.0 + i);
  EXPECT_EQ(table, &held.kill_lut());
  EXPECT_EQ(held.run(4, 1).good_dies, lut_simulator(0.25, 0.25, 2000.0).run(4, 1).good_dies);
}

TEST(KillLutMemo, RejectedConfigurationBuildsNoTable) {
  obs::set_metrics_enabled(true);
  const obs::Counter& builds = obs::counter("fabsim.lut_builds");
  const std::uint64_t before = builds.value();
  EXPECT_THROW(FabSimulator(geometry::WaferSpec::mm150(),
                            geometry::DieSize{Millimeters{200.0}, Millimeters{200.0}},
                            defect::DefectSizeDistribution::for_feature_size(Micrometers{0.25}),
                            defect::DefectFieldParams{},
                            defect::WireArray{Micrometers{0.25}, Micrometers{0.25},
                                              Micrometers{4000.0}, 50}),
               std::invalid_argument);
  EXPECT_EQ(builds.value(), before);
  const FabSimulator fits = lut_simulator(0.25, 0.25, 4000.0);
  EXPECT_EQ(builds.value(), before + 1);
  obs::reset_metrics();
  obs::set_metrics_enabled(false);
}

TEST(KillLutMemo, ConcurrentSimulatorsSharePerConfiguration) {
  constexpr int kThreads = 8;
  constexpr int kConfigs = 3;
  constexpr int kRounds = 20;
  std::vector<std::vector<const KillProbabilityLut*>> seen(kThreads);
  std::vector<std::vector<std::int64_t>> good(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<FabSimulator> keep;
        for (int r = 0; r < kRounds; ++r) {
          const int c = (t + r) % kConfigs;
          keep.push_back(lut_simulator(0.25, 0.25, 3000.0 + c));
          seen[static_cast<std::size_t>(t)].push_back(&keep.back().kill_lut());
          good[static_cast<std::size_t>(t)].push_back(keep.back().run(1, 7).good_dies);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (int c = 0; c < kConfigs; ++c) {
    const FabSimulator ref = lut_simulator(0.25, 0.25, 3000.0 + c);
    const std::int64_t want = ref.run(1, 7).good_dies;
    for (int t = 0; t < kThreads; ++t) {
      for (int r = 0; r < kRounds; ++r) {
        if ((t + r) % kConfigs != c) continue;
        const auto at = static_cast<std::size_t>(r);
        EXPECT_EQ(seen[static_cast<std::size_t>(t)][at], &ref.kill_lut());
        EXPECT_EQ(good[static_cast<std::size_t>(t)][at], want);
      }
    }
  }
}

TEST(Economics, RejectsEmptyLots) {
  const cost::WaferCostModel wafer_model{Micrometers{0.25}, geometry::WaferSpec::mm200(),
                                         24};
  EXPECT_THROW(price_lot(LotResult{}, wafer_model, 1e7), std::invalid_argument);
}

}  // namespace
}  // namespace nanocost::fabsim
