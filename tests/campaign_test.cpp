#include <gtest/gtest.h>

#include "golden_vectors.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "nanocost/core/risk.hpp"
#include "nanocost/core/risk_campaign.hpp"
#include "nanocost/exec/thread_pool.hpp"
#include "nanocost/fabsim/campaign.hpp"
#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/report/campaign_report.hpp"
#include "nanocost/robust/campaign.hpp"
#include "nanocost/robust/checkpoint.hpp"
#include "nanocost/robust/fault_injection.hpp"
#include "nanocost/robust/finite_guard.hpp"
#include "nanocost/serve/jobs.hpp"

namespace nanocost {
namespace {

using units::Micrometers;
using units::Millimeters;

struct PlanGuard {
  ~PlanGuard() { robust::clear_fault_plan(); }
};

fabsim::FabSimulator make_simulator(double density = 0.8) {
  defect::DefectFieldParams field;
  field.density_per_cm2 = density;
  return fabsim::FabSimulator{
      geometry::WaferSpec::mm200(), geometry::DieSize{Millimeters{12.0}, Millimeters{12.0}},
      defect::DefectSizeDistribution::for_feature_size(Micrometers{0.25}), field,
      defect::WireArray{Micrometers{0.25}, Micrometers{0.25}, Micrometers{100.0}, 50}};
}

void expect_same_lot(const fabsim::LotResult& a, const fabsim::LotResult& b) {
  EXPECT_EQ(a.total_dies, b.total_dies);
  EXPECT_EQ(a.good_dies, b.good_dies);
  ASSERT_EQ(a.wafers.size(), b.wafers.size());
  for (std::size_t i = 0; i < a.wafers.size(); ++i) {
    EXPECT_EQ(a.wafers[i].gross_dies, b.wafers[i].gross_dies) << "wafer " << i;
    EXPECT_EQ(a.wafers[i].good_dies, b.wafers[i].good_dies) << "wafer " << i;
    EXPECT_EQ(a.wafers[i].defects, b.wafers[i].defects) << "wafer " << i;
    EXPECT_EQ(a.wafers[i].defects_on_dies, b.wafers[i].defects_on_dies) << "wafer " << i;
  }
  EXPECT_EQ(a.fault_histogram, b.fault_histogram);
}

std::string temp_checkpoint(const char* tag) {
  const std::string path = ::testing::TempDir() + "nanocost_campaign_" + tag + ".ckpt";
  std::remove(path.c_str());
  return path;
}

TEST(FabCampaign, CompleteCampaignReproducesRunBitwise) {
  const auto sim = make_simulator();
  const std::int64_t n_wafers = 37;  // not a multiple of the grain
  exec::ThreadPool serial(1);
  const fabsim::LotResult reference = sim.run(n_wafers, 5, &serial);

  const fabsim::FabLotCampaign task(sim, n_wafers, 5);
  for (const int threads : {1, 2, exec::ThreadPool::default_thread_count()}) {
    exec::ThreadPool pool(threads);
    robust::CampaignOptions options;
    options.pool = &pool;
    const robust::CampaignResult result = robust::run_campaign(task, options);
    EXPECT_EQ(result.completed_chunks, result.total_chunks);
    EXPECT_FALSE(result.interrupted);
    const fabsim::PartialLot assembled = task.assemble(result);
    EXPECT_DOUBLE_EQ(assembled.completeness, 1.0);
    EXPECT_EQ(assembled.completed_wafers, n_wafers);
    EXPECT_TRUE(assembled.failed_wafers.empty());
    expect_same_lot(assembled.lot, reference);
  }
}

TEST(FabCampaign, KilledAndResumedCampaignIsBitwiseIdentical) {
  const auto sim = make_simulator();
  const std::int64_t n_wafers = 60;  // 15 chunks of 4
  const std::uint64_t seed = 11;
  const fabsim::FabLotCampaign task(sim, n_wafers, seed);

  // The uninterrupted reference, on a 2-thread pool.
  exec::ThreadPool two(2);
  robust::CampaignOptions plain;
  plain.pool = &two;
  const fabsim::PartialLot reference = task.assemble(robust::run_campaign(task, plain));

  // "Kill" after 6 chunks, then resume on a *different* thread count.
  const std::string path = temp_checkpoint("kill_resume");
  robust::CampaignOptions first;
  first.checkpoint_path = path;
  first.pool = &two;
  first.wave_chunks = 3;
  first.max_chunks_this_run = 6;
  const robust::CampaignResult killed = robust::run_campaign(task, first);
  EXPECT_TRUE(killed.interrupted);
  EXPECT_EQ(killed.completed_chunks, 6);

  exec::ThreadPool serial(1);
  robust::CampaignOptions second;
  second.checkpoint_path = path;
  second.pool = &serial;
  const robust::CampaignResult resumed = robust::run_campaign(task, second);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.resumed_chunks, 6);
  EXPECT_EQ(resumed.completed_chunks, resumed.total_chunks);

  const fabsim::PartialLot assembled = task.assemble(resumed);
  expect_same_lot(assembled.lot, reference.lot);
  std::remove(path.c_str());
}

TEST(FabCampaign, ResumeRejectsACheckpointFromAnotherConfiguration) {
  const auto sim = make_simulator();
  const std::string path = temp_checkpoint("mismatch");
  const fabsim::FabLotCampaign task(sim, 24, 3);
  robust::CampaignOptions options;
  options.checkpoint_path = path;
  (void)robust::run_campaign(task, options);

  // Same file, different seed: the fingerprint must not match.
  const fabsim::FabLotCampaign other(sim, 24, 4);
  EXPECT_THROW((void)robust::run_campaign(other, options), robust::CheckpointMismatch);
  std::remove(path.c_str());
}

TEST(FabCampaign, PersistentFaultsDegradeGracefullyAndDeterministically) {
  PlanGuard guard;
  const auto sim = make_simulator();
  const std::int64_t n_wafers = 200;
  const fabsim::FabLotCampaign task(sim, n_wafers, 21);

  robust::FaultPlan plan;
  plan.seed(17).add("fabsim.wafer",
                    robust::FaultSpec{5e-2, robust::FaultKind::kThrow, false, 0});
  install_fault_plan(plan);

  fabsim::PartialLot reference;
  std::vector<std::int64_t> reference_quarantine;
  for (const int threads : {1, 2, exec::ThreadPool::default_thread_count()}) {
    exec::ThreadPool pool(threads);
    robust::CampaignOptions options;
    options.pool = &pool;
    const robust::CampaignResult result = robust::run_campaign(task, options);

    // Persistent faults survive every retry: coverage is partial and
    // the victims are quarantined, not fatal.
    EXPECT_LT(result.completeness(), 1.0);
    EXPECT_FALSE(result.quarantined.empty());
    EXPECT_GT(result.retries, 0);
    const fabsim::PartialLot lot = task.assemble(result);
    EXPECT_LT(lot.completeness, 1.0);
    EXPECT_FALSE(lot.failed_wafers.empty());
    EXPECT_EQ(lot.completed_wafers + static_cast<std::int64_t>(lot.failed_wafers.size()),
              n_wafers);
    for (const robust::ChunkFailure& f : result.quarantined) {
      EXPECT_NE(f.error.find("fabsim.wafer"), std::string::npos);
    }

    std::vector<std::int64_t> quarantine;
    for (const robust::ChunkFailure& f : result.quarantined) quarantine.push_back(f.chunk);
    if (threads == 1) {
      reference = lot;
      reference_quarantine = quarantine;
    } else {
      // The fault schedule is a pure function of (site, wafer, attempt):
      // every thread count loses exactly the same wafers and keeps
      // bitwise-identical survivors.
      EXPECT_EQ(quarantine, reference_quarantine) << "threads " << threads;
      expect_same_lot(lot.lot, reference.lot);
      EXPECT_EQ(lot.failed_wafers, reference.failed_wafers);
    }

    // The report names the loss.
    const std::string rendered = report::render_campaign(result, "wafer");
    EXPECT_NE(rendered.find("completeness"), std::string::npos);
    EXPECT_NE(rendered.find("quarantine"), std::string::npos);
  }
}

TEST(FabCampaign, TransientFaultsHealThroughRetryBitwise) {
  PlanGuard guard;
  const auto sim = make_simulator();
  const std::int64_t n_wafers = 80;
  const fabsim::FabLotCampaign task(sim, n_wafers, 9);
  exec::ThreadPool serial(1);
  robust::CampaignOptions options;
  options.pool = &serial;

  // Fault-free reference first (installing the plan would skew it).
  const fabsim::PartialLot reference = task.assemble(robust::run_campaign(task, options));

  robust::FaultPlan plan;
  plan.seed(29).add("fabsim.wafer",
                    robust::FaultSpec{2e-2, robust::FaultKind::kThrow, true, 0});
  install_fault_plan(plan);
  const robust::CampaignResult faulty = robust::run_campaign(task, options);
  robust::clear_fault_plan();

  // Transient faults re-draw their schedule on retry, so the campaign
  // heals to full coverage -- and the healed lot is bitwise identical,
  // because wafer streams depend only on the wafer index.
  EXPECT_GT(faulty.retries, 0);
  EXPECT_TRUE(faulty.quarantined.empty());
  EXPECT_DOUBLE_EQ(faulty.completeness(), 1.0);
  expect_same_lot(task.assemble(faulty).lot, reference.lot);
}

TEST(FabCampaign, StrictModeRethrowsTheLowestFailedChunk) {
  PlanGuard guard;
  const auto sim = make_simulator();
  const fabsim::FabLotCampaign task(sim, 200, 21);
  robust::FaultPlan plan;
  plan.seed(17).add("fabsim.wafer",
                    robust::FaultSpec{5e-2, robust::FaultKind::kThrow, false, 0});
  install_fault_plan(plan);
  exec::ThreadPool serial(1);
  robust::CampaignOptions options;
  options.pool = &serial;
  options.allow_partial = false;
  EXPECT_THROW((void)robust::run_campaign(task, options), std::runtime_error);
}

core::UncertainInputs risk_reference() {
  core::UncertainInputs u;
  u.nominal.transistors_per_chip = 1e7;
  u.nominal.n_wafers = 10000.0;
  u.nominal.yield = units::Probability{0.7};
  return u;
}

TEST(RiskCampaign, CompleteCampaignMatchesMonteCarloBitwise) {
  const core::UncertainInputs u = risk_reference();
  const double s_d = 300.0;
  const int samples = 1000;  // not a multiple of the grain
  const std::uint64_t seed = 13;
  const double budget = 5e7;
  exec::ThreadPool serial(1);
  const core::RiskResult reference =
      core::monte_carlo_cost(u, s_d, samples, seed, budget, &serial);

  const core::RiskCampaign task(u, s_d, samples, seed, budget);
  for (const int threads : {1, 2, exec::ThreadPool::default_thread_count()}) {
    exec::ThreadPool pool(threads);
    robust::CampaignOptions options;
    options.pool = &pool;
    const core::PartialRisk partial =
        task.assemble(robust::run_campaign(task, options));
    EXPECT_DOUBLE_EQ(partial.completeness, 1.0);
    EXPECT_EQ(partial.completed_samples, samples);
    EXPECT_DOUBLE_EQ(partial.result.mean, reference.mean);
    EXPECT_DOUBLE_EQ(partial.result.stddev, reference.stddev);
    EXPECT_DOUBLE_EQ(partial.result.p10, reference.p10);
    EXPECT_DOUBLE_EQ(partial.result.p50, reference.p50);
    EXPECT_DOUBLE_EQ(partial.result.p90, reference.p90);
    EXPECT_DOUBLE_EQ(partial.result.prob_over_budget, reference.prob_over_budget);
    EXPECT_LT(partial.mean_ci_lo, partial.result.mean);
    EXPECT_GT(partial.mean_ci_hi, partial.result.mean);
  }
}

TEST(RiskCampaign, KilledAndResumedMatchesMonteCarloBitwise) {
  const core::UncertainInputs u = risk_reference();
  const int samples = 1024;  // 8 chunks of 128
  exec::ThreadPool serial(1);
  const core::RiskResult reference = core::monte_carlo_cost(u, 250.0, samples, 3, 0.0, &serial);

  const core::RiskCampaign task(u, 250.0, samples, 3);
  const std::string path = temp_checkpoint("risk_resume");
  exec::ThreadPool two(2);
  robust::CampaignOptions first;
  first.checkpoint_path = path;
  first.pool = &two;
  first.wave_chunks = 2;
  first.max_chunks_this_run = 3;
  EXPECT_TRUE(robust::run_campaign(task, first).interrupted);

  robust::CampaignOptions second;
  second.checkpoint_path = path;
  second.pool = &serial;
  const robust::CampaignResult resumed = robust::run_campaign(task, second);
  EXPECT_EQ(resumed.resumed_chunks, 3);
  const core::PartialRisk partial = task.assemble(resumed);
  EXPECT_DOUBLE_EQ(partial.result.mean, reference.mean);
  EXPECT_DOUBLE_EQ(partial.result.p90, reference.p90);
  std::remove(path.c_str());
}

TEST(RiskCampaign, NaNPoisonIsCaughtNotAveraged) {
  PlanGuard guard;
  const core::UncertainInputs u = risk_reference();
  robust::FaultPlan plan;
  plan.seed(5).add("risk.sample",
                   robust::FaultSpec{1.0, robust::FaultKind::kNaN, false, 0});
  install_fault_plan(plan);
  exec::ThreadPool serial(1);
  // The monolithic path trips its boundary guard instead of folding
  // NaNs into the mean...
  EXPECT_THROW((void)core::monte_carlo_cost(u, 300.0, 256, 7, 0.0, &serial),
               robust::NonFiniteError);
  // ...and the campaign path quarantines every poisoned chunk, so
  // nothing survives to summarize.
  const core::RiskCampaign task(u, 300.0, 256, 7);
  robust::CampaignOptions options;
  options.pool = &serial;
  const robust::CampaignResult result = robust::run_campaign(task, options);
  EXPECT_EQ(result.completed_chunks, 0);
  EXPECT_DOUBLE_EQ(result.completeness(), 0.0);
  for (const robust::ChunkFailure& f : result.quarantined) {
    EXPECT_NE(f.error.find("risk.sample_chunk"), std::string::npos);
  }
  EXPECT_THROW((void)task.assemble(result), std::invalid_argument);
}

TEST(FabCampaign, ChunkBlobGoldenPinsTheFormat) {
  const auto sim = make_simulator();
  const fabsim::FabLotCampaign task(sim, 6, 5);
  std::vector<std::uint8_t> blob;
  task.run_chunk(4, 6, blob);
  EXPECT_EQ(nanocost::testing::to_hex(blob), nanocost::testing::kFabChunkBlobHex);

  // The golden decodes to the plain run's wafers 4 and 5.
  robust::CampaignResult result;
  result.chunks.resize(2);
  result.chunks[1] = nanocost::testing::from_hex(nanocost::testing::kFabChunkBlobHex);
  const fabsim::PartialLot lot = task.assemble(result);
  exec::ThreadPool serial(1);
  const fabsim::LotResult reference = sim.run(6, 5, &serial);
  for (const std::size_t w : {std::size_t{4}, std::size_t{5}}) {
    EXPECT_EQ(lot.lot.wafers[w].gross_dies, reference.wafers[w].gross_dies);
    EXPECT_EQ(lot.lot.wafers[w].good_dies, reference.wafers[w].good_dies);
    EXPECT_EQ(lot.lot.wafers[w].defects, reference.wafers[w].defects);
    EXPECT_EQ(lot.lot.wafers[w].defects_on_dies, reference.wafers[w].defects_on_dies);
  }
}

TEST(RiskCampaign, ChunkBlobGoldenPinsTheFormat) {
  const core::RiskCampaign task(risk_reference(), 300.0, 256, 7);
  std::vector<std::uint8_t> blob;
  task.run_chunk(128, 132, blob);
  EXPECT_EQ(nanocost::testing::to_hex(blob), nanocost::testing::kRiskChunkBlobHex);
}

TEST(FabCampaign, AssembleRejectsImpossibleChunkBlobs) {
  // Counts run_chunk cannot produce must throw, not reach the lot sums
  // (a corrupt gross_dies once overflowed total_dies).
  const auto sim = make_simulator();
  const fabsim::FabLotCampaign task(sim, 6, 5);
  const std::vector<std::uint8_t> golden =
      nanocost::testing::from_hex(nanocost::testing::kFabChunkBlobHex);
  const auto assemble = [&task](const std::vector<std::uint8_t>& blob) {
    robust::CampaignResult result;
    result.chunks = {{}, blob};
    return task.assemble(result);
  };
  EXPECT_NO_THROW((void)assemble(golden));
  // Each byte is the top byte of an i64 field; flipping 0x80 negates it.
  for (const std::size_t byte : {std::size_t{7},     // wafer 4 gross_dies
                                 std::size_t{15},    // wafer 4 good_dies
                                 std::size_t{31},    // wafer 4 defects_on_dies
                                 std::size_t{79}}) {  // first histogram bucket
    std::vector<std::uint8_t> bad = golden;
    bad[byte] ^= 0x80;
    EXPECT_THROW((void)assemble(bad), std::runtime_error) << "byte " << byte;
  }
}

TEST(RiskCampaign, AssembleRejectsANonFiniteSample) {
  const core::RiskCampaign task(risk_reference(), 300.0, 256, 7);
  std::vector<std::uint8_t> blob =
      nanocost::testing::from_hex(nanocost::testing::kRiskChunkBlobHex);
  blob[6] = 0xF0;  // sample 0's exponent bits all ones: +Inf or NaN
  blob[7] = 0x7F;
  robust::CampaignResult result;
  result.chunks = {{}, blob};
  EXPECT_THROW((void)task.assemble(result), std::runtime_error);
}

TEST(CampaignReport, RendersCompletenessAndQuarantine) {
  robust::CampaignResult result;
  result.total_chunks = 4;
  result.completed_chunks = 3;
  result.total_units = 16;
  result.completed_units = 12;
  result.retries = 2;
  robust::ChunkFailure failure;
  failure.chunk = 2;
  failure.unit_begin = 8;
  failure.unit_end = 12;
  failure.error = "injected fault at fabsim.wafer unit 9";
  result.quarantined.push_back(failure);
  const std::string rendered = report::render_campaign(result, "wafer");
  EXPECT_NE(rendered.find("3/4 chunks"), std::string::npos);
  EXPECT_NE(rendered.find("12/16 wafers"), std::string::npos);
  EXPECT_NE(rendered.find("0.7500"), std::string::npos);
  EXPECT_NE(rendered.find("chunk 2"), std::string::npos);
  EXPECT_NE(rendered.find("fabsim.wafer"), std::string::npos);
}

TEST(Campaign, ValidatesOptions) {
  const auto sim = make_simulator();
  const fabsim::FabLotCampaign task(sim, 8, 1);
  robust::CampaignOptions bad;
  bad.wave_chunks = 0;
  EXPECT_THROW((void)robust::run_campaign(task, bad), std::invalid_argument);
  bad = {};
  bad.max_attempts = 0;
  EXPECT_THROW((void)robust::run_campaign(task, bad), std::invalid_argument);
  EXPECT_THROW(fabsim::FabLotCampaign(sim, 0, 1), std::invalid_argument);
  EXPECT_THROW(core::RiskCampaign(risk_reference(), 300.0, 5, 1), std::invalid_argument);
}

/// A fresh artifact directory, removed on scope exit.
struct ArtifactDir final {
  explicit ArtifactDir(const char* tag)
      : path(::testing::TempDir() + "nanocost_campaign_artifacts_" + tag) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ArtifactDir() { std::filesystem::remove_all(path); }
  std::string path;
};

TEST(FabCampaign, ArtifactTierNeverReplaysAnotherConfiguration) {
  // Same seed, wafer count and die grid; only the defect density
  // differs -- so the chunks differ, and so must their addresses.
  serve::CampaignJob job;
  job.defect_density_per_cm2 = 0.3;
  const fabsim::FabSimulator sparse = serve::make_simulator(job);
  job.defect_density_per_cm2 = 0.9;
  const fabsim::FabSimulator dense = serve::make_simulator(job);
  ASSERT_EQ(sparse.wafer_map().die_count(), dense.wafer_map().die_count());

  const ArtifactDir dir("cross_config");
  exec::ThreadPool serial(1);
  robust::CampaignOptions options;
  options.pool = &serial;
  options.artifact_dir = dir.path;
  const fabsim::FabLotCampaign first(sparse, job.n_wafers, job.seed);
  const robust::CampaignResult stored = robust::run_campaign(first, options);
  EXPECT_EQ(stored.artifact_stores, stored.total_chunks);

  const fabsim::FabLotCampaign second(dense, job.n_wafers, job.seed);
  const robust::CampaignResult result = robust::run_campaign(second, options);
  EXPECT_EQ(result.artifact_hits, 0);
  expect_same_lot(second.assemble(result).lot, dense.run(job.n_wafers, job.seed, &serial));
  // The tier itself still works for the configuration that wrote it.
  EXPECT_EQ(robust::run_campaign(second, options).artifact_hits, result.total_chunks);
}

TEST(FabCampaign, FingerprintCoversTheWholeConfiguration) {
  // Every input cache::fabsim_run_key hashes, plus the seed.
  using Edit = std::function<void(serve::CampaignJob&)>;
  const std::vector<Edit> edits = {
      [](serve::CampaignJob& j) { j.wafer_diameter_mm = 210.0; },
      [](serve::CampaignJob& j) { j.wafer_edge_exclusion_mm = 4.0; },
      [](serve::CampaignJob& j) { j.wafer_scribe_mm = 0.11; },
      [](serve::CampaignJob& j) { j.die_width_mm = 13.01; },
      [](serve::CampaignJob& j) { j.die_height_mm = 13.01; },
      [](serve::CampaignJob& j) { j.size_xmin_um = 0.126; },
      [](serve::CampaignJob& j) { j.size_peak_um = 0.26; },
      [](serve::CampaignJob& j) { j.size_xmax_um = 26.0; },
      [](serve::CampaignJob& j) { j.size_q = 3.1; },
      [](serve::CampaignJob& j) { j.defect_density_per_cm2 = 0.61; },
      [](serve::CampaignJob& j) { j.cluster_alpha = 2.1; },
      [](serve::CampaignJob& j) { j.clustered = false; },
      [](serve::CampaignJob& j) { j.radial_edge_boost = 0.5; },
      [](serve::CampaignJob& j) { j.radial_sharpness = 3.0; },
      [](serve::CampaignJob& j) { j.wire_width_um = 0.26; },
      [](serve::CampaignJob& j) { j.wire_spacing_um = 0.26; },
      [](serve::CampaignJob& j) { j.wire_length_um = 101.0; },
      [](serve::CampaignJob& j) { j.wire_count = 51; },
      [](serve::CampaignJob& j) { j.seed = 43; },
  };
  const auto fingerprint = [](const serve::CampaignJob& j) {
    const fabsim::FabSimulator sim = serve::make_simulator(j);
    return fabsim::FabLotCampaign(sim, j.n_wafers, j.seed).config_fingerprint();
  };
  const serve::CampaignJob base;
  std::set<std::uint64_t> seen{fingerprint(base)};
  EXPECT_EQ(fingerprint(base), fingerprint(base));
  for (std::size_t i = 0; i < edits.size(); ++i) {
    serve::CampaignJob j = base;
    edits[i](j);
    EXPECT_TRUE(seen.insert(fingerprint(j)).second) << "edit " << i << " kept the fingerprint";
  }
}

TEST(RiskCampaign, FingerprintCoversTheWholeConfiguration) {
  struct Config {
    core::UncertainInputs u = risk_reference();
    double s_d = 300.0;
    std::uint64_t seed = 1;
    double budget = 0.0;
  };
  using Edit = std::function<void(Config&)>;
  const auto design = [](Config& c, auto&& edit) {
    cost::DesignCostParams p = c.u.nominal.design_model.params();
    edit(p);
    c.u.nominal.design_model = cost::DesignCostModel(p);
  };
  const std::vector<Edit> edits = {
      [](Config& c) { c.u.nominal.lambda = units::Micrometers{0.18}; },
      [](Config& c) { c.u.nominal.yield = units::Probability{0.71}; },
      [](Config& c) { c.u.nominal.manufacturing_cost = units::CostPerArea{8.5}; },
      [](Config& c) { c.u.nominal.transistors_per_chip = 2e7; },
      [](Config& c) { c.u.nominal.n_wafers = 10001.0; },
      [](Config& c) { c.u.nominal.wafer_area = units::SquareCentimeters{706.9}; },
      [](Config& c) { c.u.nominal.mask_cost = units::Money{700000.0}; },
      [&](Config& c) { design(c, [](cost::DesignCostParams& p) { p.a0 = 1100.0; }); },
      [&](Config& c) { design(c, [](cost::DesignCostParams& p) { p.p1 = 1.1; }); },
      [&](Config& c) { design(c, [](cost::DesignCostParams& p) { p.p2 = 1.3; }); },
      [&](Config& c) { design(c, [](cost::DesignCostParams& p) { p.s_d0 = 90.0; }); },
      [](Config& c) { c.u.nominal.utilization = units::Probability{0.9}; },
      [](Config& c) { c.u.yield_sigma = 0.09; },
      [](Config& c) { c.u.cm_sq_sigma_rel = 0.16; },
      [](Config& c) { c.u.design_cost_sigma_rel = 0.41; },
      [](Config& c) { c.u.volume_sigma_rel = 0.51; },
      [](Config& c) { c.s_d = 301.0; },
      [](Config& c) { c.seed = 2; },
      [](Config& c) { c.budget = 5e7; },
  };
  const auto fingerprint = [](const Config& c) {
    return core::RiskCampaign(c.u, c.s_d, 1000, c.seed, c.budget).config_fingerprint();
  };
  const Config base;
  std::set<std::uint64_t> seen{fingerprint(base)};
  EXPECT_EQ(fingerprint(base), fingerprint(Config{}));
  for (std::size_t i = 0; i < edits.size(); ++i) {
    Config c = base;
    edits[i](c);
    EXPECT_TRUE(seen.insert(fingerprint(c)).second) << "edit " << i << " kept the fingerprint";
  }
}

TEST(RiskCampaign, ArtifactTierNeverReplaysAnotherConfiguration) {
  const core::UncertainInputs u = risk_reference();
  core::UncertainInputs riskier = u;
  riskier.yield_sigma = 0.2;  // a field the old fingerprint ignored
  const ArtifactDir dir("risk_cross_config");
  exec::ThreadPool serial(1);
  robust::CampaignOptions options;
  options.pool = &serial;
  options.artifact_dir = dir.path;
  (void)robust::run_campaign(core::RiskCampaign(u, 300.0, 512, 9), options);

  const core::RiskCampaign second(riskier, 300.0, 512, 9);
  const robust::CampaignResult result = robust::run_campaign(second, options);
  EXPECT_EQ(result.artifact_hits, 0);
  const core::RiskResult direct = core::monte_carlo_cost(riskier, 300.0, 512, 9, 0.0, &serial);
  const core::PartialRisk served = second.assemble(result);
  EXPECT_EQ(served.result.mean, direct.mean);
  EXPECT_EQ(served.result.p90, direct.p90);
}

}  // namespace
}  // namespace nanocost
