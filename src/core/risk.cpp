#include "nanocost/core/risk.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "nanocost/bytes/codec.hpp"
#include "nanocost/cache/hash.hpp"
#include "nanocost/core/optimizer.hpp"
#include "nanocost/core/risk_campaign.hpp"
#include "nanocost/exec/parallel.hpp"
#include "nanocost/exec/rng.hpp"
#include "nanocost/exec/rng_batch.hpp"
#include "nanocost/exec/seed.hpp"
#include "nanocost/robust/cancel.hpp"
#include "nanocost/robust/fault_injection.hpp"
#include "nanocost/robust/finite_guard.hpp"

namespace nanocost::core {

namespace {

/// Injection site evaluated once per Monte-Carlo scenario; the unit
/// index is the sample index.  NaN faults poison the sampled cost,
/// which the risk.samples FiniteGuard then catches by name.
constexpr robust::FaultSite kSampleFaultSite{"risk.sample"};

/// Linear-interpolated q-quantile of `v` by order-statistic selection
/// instead of a full sort.  The interpolation reads two order
/// statistics, lo = floor(q (n-1)) and lo + 1: nth_element places the
/// first, and the second is the minimum of everything above it -- the
/// very elements a sort would put at those indices, so the result is
/// bitwise the sort-then-interpolate value (for non-NaN samples).
///
/// `first` carries selection state across calls with non-decreasing q
/// on the same vector: [0, first) already holds the `first` smallest
/// values and v[first - 1] sits at its sorted index, so a later call
/// partitions only [first, n).  Start a vector's calls with first = 0.
double select_quantile(std::vector<double>& v, std::size_t& first, double q) {
  const double idx = q * (static_cast<double>(v.size()) - 1.0);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double t = idx - static_cast<double>(lo);
  // lo < first only when lo == first - 1, the index the previous call
  // already selected.
  if (lo >= first) {
    std::nth_element(v.begin() + static_cast<std::ptrdiff_t>(first),
                     v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
    first = lo + 1;
  }
  const double at_lo = v[lo];
  const double at_hi =
      hi == lo ? at_lo : *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(hi), v.end());
  return at_lo * (1.0 - t) + at_hi * t;
}

/// The one risk sampler: fills `costs` with scenarios [0, samples) in
/// chunks of RiskCampaign::kGrain, one risk_sample_cost_batch call per
/// chunk, cancelled at chunk granularity by `token` (an invalid token
/// prices every scenario).  The chunk grid depends only on the sample
/// count, so results are thread-count invariant.
exec::LoopStatus sample_costs(const UncertainInputs& inputs, double s_d, int samples,
                              std::uint64_t seed, exec::ThreadPool* pool,
                              const robust::CancelToken& token, std::vector<double>& costs) {
  if (samples < 10) {
    throw std::invalid_argument("risk analysis needs at least 10 samples");
  }
  costs.resize(static_cast<std::size_t>(samples));
  const exec::LoopStatus status = exec::parallel_for_cancellable(
      pool, samples, RiskCampaign::kGrain, token, [&](std::int64_t begin, std::int64_t end) {
        risk_sample_cost_batch(inputs, s_d, seed, static_cast<std::uint64_t>(begin),
                               static_cast<std::size_t>(end - begin), costs.data() + begin);
      });
  // Samples at/after the frontier may have run out of order; only the
  // contiguous prefix is kept, so the result is a pure function of the
  // frontier.
  costs.resize(static_cast<std::size_t>(
      std::min<std::int64_t>(samples, status.frontier * RiskCampaign::kGrain)));
  return status;
}

/// Summary plus the 95% CI on the mean over the completed samples: the
/// one reduction the partial driver and RiskCampaign::assemble share.
/// Throws (summarize_cost_samples) on fewer than 2 samples.
void summarize_completed(PartialRisk& out, std::vector<double> costs,
                         const UncertainInputs& inputs, double die_budget) {
  const double n = static_cast<double>(costs.size());
  out.result = summarize_cost_samples(std::move(costs), inputs, die_budget);
  const double half_width = 1.96 * out.result.stddev / std::sqrt(n);
  out.mean_ci_lo = out.result.mean - half_width;
  out.mean_ci_hi = out.result.mean + half_width;
}

/// The risk Monte-Carlo driver behind monte_carlo_cost and
/// monte_carlo_cost_partial.  Fewer than 2 completed samples leave the
/// summary zeroed.
PartialRisk monte_carlo_impl(const UncertainInputs& inputs, double s_d, int samples,
                             std::uint64_t seed, double die_budget, exec::ThreadPool* pool,
                             const robust::CancelToken& token) {
  require_die_budget(die_budget);
  std::vector<double> costs;
  const exec::LoopStatus status = sample_costs(inputs, s_d, samples, seed, pool, token, costs);
  // risk -> consumer boundary: a NaN sample (model escape or injected
  // poison) must surface as a named diagnostic, not as a NaN mean that
  // silently corrupts every quantile and optimizer decision downstream.
  robust::check_finite_range(costs.data(), costs.size(), "risk.samples");
  PartialRisk out;
  out.completed_samples = static_cast<std::int64_t>(costs.size());
  out.completeness = status.completeness();
  out.frontier_chunks = status.frontier;
  out.cancelled = status.cancelled;
  if (out.completed_samples >= 2) {
    summarize_completed(out, std::move(costs), inputs, die_budget);
  }
  return out;
}

}  // namespace

double risk_sample_cost(const UncertainInputs& inputs, double s_d, std::uint64_t seed,
                        std::uint64_t index) {
  // One RNG per scenario, derived from the sample index: scenario i
  // is the same no matter which thread (or grid point) evaluates it.
  // SplitMix64 + Box-Muller rather than mt19937_64 +
  // normal_distribution: the scenario needs exactly four Gaussians, and
  // the mt19937_64 *construction* (312-word state expansion) cost more
  // than the whole pricing; the fixed-consumption stream is also what
  // lets risk_sample_cost_batch reproduce this function bitwise.
  exec::SplitMix64 rng(exec::SeedSequence::for_task(seed, index));
  const exec::GaussPair g12 = exec::gauss_pair(rng);
  const exec::GaussPair g34 = exec::gauss_pair(rng);

  Eq4Inputs draw = inputs.nominal;
  const double y = inputs.nominal.yield.value() + inputs.yield_sigma * g12.z0;
  draw.yield = units::Probability::clamped(std::max(y, 0.01));
  draw.manufacturing_cost =
      inputs.nominal.manufacturing_cost * std::exp(inputs.cm_sq_sigma_rel * g12.z1);
  draw.n_wafers = inputs.nominal.n_wafers * std::exp(inputs.volume_sigma_rel * g34.z0);
  cost::DesignCostParams params = inputs.nominal.design_model.params();
  params.a0 *= std::exp(inputs.design_cost_sigma_rel * g34.z1);
  draw.design_model = cost::DesignCostModel{params};

  return robust::observe(kSampleFaultSite, index,
                         cost_per_transistor_eq4(draw, s_d).total.value());
}

void risk_sample_cost_batch_at(exec::SimdLevel level, const UncertainInputs& inputs,
                               double s_d, std::uint64_t seed, std::uint64_t index0,
                               std::size_t n, double* out) {
  const Eq4Inputs& nom = inputs.nominal;
  const cost::DesignCostParams& params = nom.design_model.params();

  // Everything the scalar kernel validates per sample that does not
  // depend on the draws is checked once here; a violation routes the
  // whole batch through the scalar kernel so the exact per-sample
  // exception (and its message) fires unchanged.
  const bool nominal_ok =
      std::isfinite(s_d) && s_d > 0.0 && std::isfinite(nom.lambda.value()) &&
      nom.lambda.value() > 0.0 && std::isfinite(nom.manufacturing_cost.value()) &&
      nom.manufacturing_cost.value() > 0.0 && std::isfinite(nom.transistors_per_chip) &&
      nom.transistors_per_chip > 0.0 && std::isfinite(nom.yield.value()) &&
      nom.utilization.value() > 0.0 && std::isfinite(nom.mask_cost.value()) &&
      nom.mask_cost.value() >= 0.0 && std::isfinite(nom.wafer_area.value()) &&
      nom.wafer_area.value() > 0.0 && s_d > params.s_d0;
  if (!nominal_ok) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = risk_sample_cost(inputs, s_d, seed, index0 + i);
    }
    return;
  }

  // Constants of the eq.-4/eq.-6 evaluation that the scalar kernel
  // recomputes per scenario: the two pow() terms (by far its hottest
  // libm calls), lambda^2, and the clamp bound.  Reused verbatim, the
  // batched arithmetic below stays bitwise equal to the scalar chain.
  const double pow_t = std::pow(nom.transistors_per_chip, params.p1);
  const double pow_den = std::pow(s_d - params.s_d0, params.p2);
  const double l_cm = nom.lambda.to_centimeters().value();
  const double l2 = l_cm * l_cm;
  const double util = nom.utilization.value();
  const double nominal_yield = nom.yield.value();
  const double nominal_mc = nom.manufacturing_cost.value();
  const double nominal_nw = nom.n_wafers;
  const double nominal_a0 = params.a0;
  const double mask = nom.mask_cost.value();
  const double area = nom.wafer_area.value();

  constexpr std::size_t kTile = 128;
  std::uint64_t seeds[kTile];
  std::uint64_t col[kTile];
  double u1a[kTile], u2a[kTile], u1b[kTile], u2b[kTile];

  for (std::size_t t0 = 0; t0 < n; t0 += kTile) {
    const std::size_t tn = n - t0 < kTile ? n - t0 : kTile;
    // Columns: output j of every scenario's stream at once.  Outputs
    // 1/3 feed the (0,1] u1 mapping of the two gauss_pair calls,
    // outputs 2/4 the [0,1) u2 mapping -- the identical bits the
    // scalar kernel consumes.
    exec::for_task_batch_at(level, seed, index0 + t0, seeds, tn);
    exec::mix_add_batch_at(level, seeds, 1 * exec::kGoldenGamma, col, tn);
    exec::u53_to_unit_pos_batch_at(level, col, u1a, tn);
    exec::mix_add_batch_at(level, seeds, 2 * exec::kGoldenGamma, col, tn);
    exec::u53_to_unit_batch_at(level, col, u2a, tn);
    exec::mix_add_batch_at(level, seeds, 3 * exec::kGoldenGamma, col, tn);
    exec::u53_to_unit_pos_batch_at(level, col, u1b, tn);
    exec::mix_add_batch_at(level, seeds, 4 * exec::kGoldenGamma, col, tn);
    exec::u53_to_unit_batch_at(level, col, u2b, tn);

    for (std::size_t i = 0; i < tn; ++i) {
      const std::uint64_t index = index0 + t0 + i;
      // Box-Muller exactly as exec::gauss_pair spells it.
      const double r1 = std::sqrt(-2.0 * std::log(u1a[i]));
      const double t1 = exec::kTwoPi * u2a[i];
      const double g_yield = r1 * std::cos(t1);
      const double g_mc = r1 * std::sin(t1);
      const double r2 = std::sqrt(-2.0 * std::log(u1b[i]));
      const double t2 = exec::kTwoPi * u2b[i];
      const double g_nw = r2 * std::cos(t2);
      const double g_a0 = r2 * std::sin(t2);

      // std::max(y, 0.01) then Probability::clamped, written out.
      const double y = nominal_yield + inputs.yield_sigma * g_yield;
      const double y_floored = y < 0.01 ? 0.01 : y;
      const double mc = nominal_mc * std::exp(inputs.cm_sq_sigma_rel * g_mc);
      const double nw = nominal_nw * std::exp(inputs.volume_sigma_rel * g_nw);
      const double a0 = nominal_a0 * std::exp(inputs.design_cost_sigma_rel * g_a0);
      const double c_de = a0 * pow_t / pow_den;
      const double total_area = area * nw;
      // A draw the validators would reject (NaN sigma, exp overflow to
      // inf, underflow to zero, an eq.-5 area product past DBL_MAX)
      // goes back through the scalar kernel so its exception surfaces
      // identically.
      if (!(y_floored > 0.0) || !(std::isfinite(mc) && mc > 0.0) ||
          !(std::isfinite(nw) && nw > 0.0) || !(std::isfinite(a0) && a0 > 0.0) ||
          !std::isfinite(c_de) || !std::isfinite(total_area)) {
        out[t0 + i] = risk_sample_cost(inputs, s_d, seed, index);
        continue;
      }
      const double yield_v = y_floored > 1.0 ? 1.0 : y_floored;
      const double cd_sq = (mask + c_de) / total_area;  // eq. (5)
      const double uy = util * yield_v;
      const double manufacturing = l2 * s_d * mc / uy;  // eq. (4)
      const double design = l2 * s_d * cd_sq / uy;
      out[t0 + i] = robust::observe(kSampleFaultSite, index, manufacturing + design);
    }
  }
}

void risk_sample_cost_batch(const UncertainInputs& inputs, double s_d, std::uint64_t seed,
                            std::uint64_t index0, std::size_t n, double* out) {
  risk_sample_cost_batch_at(exec::simd_level(), inputs, s_d, seed, index0, n, out);
}

RiskResult summarize_cost_samples(std::vector<double> costs, const UncertainInputs& inputs,
                                  double die_budget) {
  if (costs.size() < 2) {
    throw std::invalid_argument("risk summary needs at least 2 cost samples");
  }
  RiskResult result;
  double sum = 0.0;
  int over = 0;
  for (const double c : costs) {
    sum += c;
    if (die_budget > 0.0 &&
        c * inputs.nominal.transistors_per_chip > die_budget) {
      ++over;
    }
  }
  result.mean = sum / static_cast<double>(costs.size());
  double ss = 0.0;
  for (const double c : costs) ss += (c - result.mean) * (c - result.mean);
  result.stddev = std::sqrt(ss / static_cast<double>(costs.size() - 1));
  std::size_t selected = 0;  // ascending q: each selection narrows the next
  result.p10 = select_quantile(costs, selected, 0.10);
  result.p50 = select_quantile(costs, selected, 0.50);
  result.p90 = select_quantile(costs, selected, 0.90);
  result.prob_over_budget =
      die_budget > 0.0 ? static_cast<double>(over) / static_cast<double>(costs.size())
                       : 0.0;
  return result;
}

void require_die_budget(double die_budget) {
  if (std::isnan(die_budget)) {
    throw std::invalid_argument("risk die_budget must not be NaN (<= 0 disables it)");
  }
}

RiskResult monte_carlo_cost(const UncertainInputs& inputs, double s_d, int samples,
                            std::uint64_t seed, double die_budget,
                            exec::ThreadPool* pool) {
  // An invalid token never cancels and ignores any ambient scope.
  return monte_carlo_impl(inputs, s_d, samples, seed, die_budget, pool,
                          robust::CancelToken{})
      .result;
}

PartialRisk monte_carlo_cost_partial(const UncertainInputs& inputs, double s_d, int samples,
                                     std::uint64_t seed, double die_budget,
                                     exec::ThreadPool* pool) {
  return monte_carlo_impl(inputs, s_d, samples, seed, die_budget, pool,
                          robust::current_cancel_token());
}

namespace {

struct SweepOutcome {
  RobustOptimum best;
  exec::LoopStatus status;
};

SweepOutcome robust_sd_impl(const UncertainInputs& inputs, double quantile, double lo,
                            double hi, int steps, int samples, std::uint64_t seed,
                            exec::ThreadPool* pool, const robust::CancelToken& token) {
  if (!(quantile > 0.0 && quantile < 1.0)) {
    throw std::invalid_argument("quantile must be in (0, 1)");
  }
  const std::vector<double> grid = log_grid(lo, hi, steps);

  // Grid points are independent and run in parallel; common random
  // numbers hold because scenario seeds derive from (seed, sample
  // index) only -- every grid point prices the identical scenario set.
  // The nested sampler runs inline on the worker lane under an explicit
  // invalid token, never the ambient one: a grid point is whole or not
  // run, which is what robust_sd_partial's prefix contract needs.
  std::vector<double> quantile_cost(grid.size());
  const exec::LoopStatus status = exec::parallel_for_cancellable(
      pool, steps, 1, token, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          std::vector<double> costs;
          sample_costs(inputs, grid[static_cast<std::size_t>(i)], samples, seed, pool,
                       robust::CancelToken{}, costs);
          std::size_t selected = 0;
          quantile_cost[static_cast<std::size_t>(i)] =
              select_quantile(costs, selected, quantile);
        }
      });

  // risk -> optimizer boundary: the sweep must not pick an optimum off
  // a poisoned quantile.  Only the completed prefix is trusted.
  robust::check_finite_range(quantile_cost.data(),
                             static_cast<std::size_t>(status.frontier), "risk.quantile");

  SweepOutcome out;
  out.status = status;
  if (status.frontier > 0) {
    out.best.quantile_cost = 1e300;
    for (std::int64_t i = 0; i < status.frontier; ++i) {
      if (quantile_cost[static_cast<std::size_t>(i)] < out.best.quantile_cost) {
        out.best.quantile_cost = quantile_cost[static_cast<std::size_t>(i)];
        out.best.s_d = grid[static_cast<std::size_t>(i)];
      }
    }
  }
  return out;
}

}  // namespace

RobustOptimum robust_sd(const UncertainInputs& inputs, double quantile, double lo,
                        double hi, int steps, int samples, std::uint64_t seed,
                        exec::ThreadPool* pool) {
  // An invalid token never cancels: the loop delegates to the plain
  // parallel_for and the frontier always spans the whole grid.
  return robust_sd_impl(inputs, quantile, lo, hi, steps, samples, seed, pool,
                        robust::CancelToken{})
      .best;
}

PartialSweep robust_sd_partial(const UncertainInputs& inputs, double quantile, double lo,
                               double hi, int steps, int samples, std::uint64_t seed,
                               exec::ThreadPool* pool) {
  const SweepOutcome o = robust_sd_impl(inputs, quantile, lo, hi, steps, samples, seed,
                                        pool, robust::current_cancel_token());
  PartialSweep out;
  out.optimum = o.best;
  out.completed_steps = static_cast<int>(o.status.frontier);
  out.completeness = o.status.completeness();
  out.frontier_chunks = o.status.frontier;
  out.cancelled = o.status.cancelled;
  return out;
}

RiskCampaign::RiskCampaign(const UncertainInputs& inputs, double s_d, std::int64_t samples,
                           std::uint64_t seed, double die_budget)
    : inputs_(inputs), s_d_(s_d), samples_(samples), seed_(seed), die_budget_(die_budget) {
  if (samples < 10) {
    throw std::invalid_argument("risk campaign needs at least 10 samples");
  }
  require_die_budget(die_budget);
}

std::uint64_t RiskCampaign::config_fingerprint() const {
  // The whole input closure of a scenario (the sample count is the
  // unit count, which the engine mixes in itself).
  cache::KeyBuilder key("risk.campaign");
  fields(key, inputs_);
  key.f64("s_d", s_d_).u64("seed", seed_).f64("die_budget", die_budget_);
  const cache::Digest128 d = key.digest();
  return d.hi ^ d.lo;
}

void RiskCampaign::run_chunk(std::int64_t begin, std::int64_t end,
                             std::vector<std::uint8_t>& blob) const {
  std::vector<double> costs(static_cast<std::size_t>(end - begin));
  risk_sample_cost_batch(inputs_, s_d_, seed_, static_cast<std::uint64_t>(begin), costs.size(),
                         costs.data());
  // A NaN here (model escape or injected poison) fails the chunk, which
  // the engine retries or quarantines -- never serialized.
  robust::check_finite_range(costs.data(), costs.size(), "risk.sample_chunk");
  // Chunk blob layout (bytes/codec.hpp): one f64 per sample, no length.
  bytes::ByteWriter w;
  w.reserve(costs.size() * 8);
  for (const double c : costs) w.f64(c);
  blob = w.take();
}

PartialRisk RiskCampaign::assemble(const robust::CampaignResult& result) const {
  PartialRisk out;
  std::vector<double> costs;
  costs.reserve(static_cast<std::size_t>(result.completed_units));
  for (std::size_t c = 0; c < result.chunks.size(); ++c) {
    const auto& blob = result.chunks[c];
    if (blob.empty()) continue;
    bytes::ByteReader r(blob, "risk campaign blob");
    if (blob.size() % 8 != 0) r.fail("has a torn sample");
    while (r.remaining() > 0) {
      costs.push_back(r.f64());
      // run_chunk never serializes a non-finite sample.
      if (!std::isfinite(costs.back())) r.fail("holds a non-finite sample");
    }
  }
  out.completed_samples = static_cast<std::int64_t>(costs.size());
  out.completeness = result.completeness();
  out.failed_samples = result.failed_units();
  out.cancelled = result.expired;
  out.frontier_chunks = result.frontier_chunks;
  summarize_completed(out, std::move(costs), inputs_, die_budget_);
  return out;
}

}  // namespace nanocost::core
