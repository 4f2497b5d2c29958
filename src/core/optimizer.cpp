#include "nanocost/core/optimizer.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "nanocost/exec/parallel.hpp"

namespace nanocost::core {

Optimum minimize_unimodal(const std::function<units::Money(double)>& objective, double lo,
                          double hi, double tol) {
  if (!(lo > 0.0 && lo < hi)) {
    throw std::invalid_argument("minimize_unimodal needs 0 < lo < hi");
  }
  if (!(tol > 0.0)) {
    throw std::invalid_argument("tolerance must be positive");
  }
  constexpr double kInvPhi = 0.6180339887498949;
  double a = lo, b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = objective(x1).value();
  double f2 = objective(x2).value();
  int evals = 2;
  while ((b - a) > tol * (std::fabs(a) + std::fabs(b)) * 0.5) {
    if (f1 <= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = objective(x1).value();
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = objective(x2).value();
    }
    ++evals;
    if (evals > 200) break;  // tol too tight for double precision
  }
  Optimum out;
  out.s_d = (a + b) / 2.0;
  out.cost_per_transistor = objective(out.s_d);
  out.evaluations = evals + 1;
  return out;
}

Optimum optimal_sd_eq4(const Eq4Inputs& inputs, double hi) {
  const double lo = inputs.design_model.params().s_d0 * 1.02;
  if (!(hi > lo)) {
    throw std::invalid_argument("sweep upper bound must exceed the s_d0 wall");
  }
  return minimize_unimodal(
      [&inputs](double s_d) { return cost_per_transistor_eq4(inputs, s_d).total; }, lo, hi);
}

Optimum optimal_sd(const GeneralizedCostModel& model, double hi) {
  const double lo = model.scenario().design_cost.s_d0 * 1.02;
  const double feasible_hi = std::min(hi, model.max_feasible_sd() * 0.98);
  if (!(feasible_hi > lo)) {
    throw std::domain_error("no feasible s_d range: die exceeds wafer near the s_d0 wall");
  }
  return minimize_unimodal(
      [&model](double s_d) { return model.cost_per_transistor(s_d); }, lo, feasible_hi);
}

std::vector<double> log_grid(double lo, double hi, int steps) {
  // Named first: an infinite bound otherwise passes 0 < lo < hi and
  // surfaces later as a NaN grid point blamed on s_d.
  if (!std::isfinite(lo)) {
    throw std::invalid_argument("sweep bound lo must be finite, got " + std::to_string(lo));
  }
  if (!std::isfinite(hi)) {
    throw std::invalid_argument("sweep bound hi must be finite, got " + std::to_string(hi));
  }
  if (!(lo > 0.0 && lo < hi) || steps < 2) {
    throw std::invalid_argument("sweep needs 0 < lo < hi and steps >= 2");
  }
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(steps));
  const double ratio = std::log(hi / lo) / (steps - 1);
  for (int i = 0; i < steps; ++i) {
    xs.push_back(lo * std::exp(ratio * i));
  }
  return xs;
}

namespace {

/// Grid points per parallel chunk for the s_d sweeps.
constexpr std::int64_t kSweepGrain = 8;

}  // namespace

std::vector<SweepPoint> sweep_eq4(const Eq4Inputs& inputs, double lo, double hi, int steps,
                                  exec::ThreadPool* pool) {
  const std::vector<double> grid = log_grid(lo, hi, steps);
  std::vector<SweepPoint> out(grid.size());
  exec::parallel_for(pool, static_cast<std::int64_t>(grid.size()), kSweepGrain,
                     [&](std::int64_t begin, std::int64_t end) {
                       for (std::int64_t i = begin; i < end; ++i) {
                         const double s_d = grid[static_cast<std::size_t>(i)];
                         out[static_cast<std::size_t>(i)] =
                             SweepPoint{s_d, cost_per_transistor_eq4(inputs, s_d)};
                       }
                     });
  return out;
}

std::vector<GeneralizedSweepPoint> sweep_generalized(const GeneralizedCostModel& model,
                                                     double lo, double hi, int steps,
                                                     exec::ThreadPool* pool) {
  const std::vector<double> grid = log_grid(lo, hi, steps);
  std::vector<GeneralizedSweepPoint> out(grid.size());
  exec::parallel_for(pool, static_cast<std::int64_t>(grid.size()), kSweepGrain,
                     [&](std::int64_t begin, std::int64_t end) {
                       for (std::int64_t i = begin; i < end; ++i) {
                         const double s_d = grid[static_cast<std::size_t>(i)];
                         out[static_cast<std::size_t>(i)] =
                             GeneralizedSweepPoint{s_d, model.evaluate(s_d)};
                       }
                     });
  return out;
}

}  // namespace nanocost::core
