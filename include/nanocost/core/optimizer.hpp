// Cost-optimal design density.
//
// The paper's Sec. 3.1 conclusion: "Neither the smallest die size nor
// maximum yield ... should be the objective of the cost oriented IC
// design activities" -- the objective is the s_d minimizing C_tr.
// C_tr(s_d) is the sum of a term increasing in s_d (manufacturing,
// ~linear) and one decreasing in s_d (design NRE, eq. 6), hence
// unimodal on (s_d0, inf); golden-section search finds the minimum.
#pragma once

#include <functional>
#include <vector>

#include "nanocost/core/generalized_cost.hpp"
#include "nanocost/core/transistor_cost.hpp"

namespace nanocost::exec {
class ThreadPool;
}

namespace nanocost::core {

/// Result of a density optimization.
struct Optimum final {
  double s_d = 0.0;
  units::Money cost_per_transistor{};
  int evaluations = 0;
};

/// Golden-section minimum of `objective` on [lo, hi] to relative
/// tolerance `tol` on s_d.  Requires lo < hi; assumes unimodality.
[[nodiscard]] Optimum minimize_unimodal(
    const std::function<units::Money(double)>& objective, double lo, double hi,
    double tol = 1e-4);

/// Optimal s_d under eq. (4).  The bracket starts just above the design
/// model's s_d0 wall and extends to `hi`.
[[nodiscard]] Optimum optimal_sd_eq4(const Eq4Inputs& inputs, double hi = 2000.0);

/// Optimal s_d under the generalized model; the bracket is clipped to
/// the wafer-feasible range.
[[nodiscard]] Optimum optimal_sd(const GeneralizedCostModel& model, double hi = 2000.0);

/// One sample of a cost sweep over s_d (Fig. 4's x axis).
struct SweepPoint final {
  double s_d = 0.0;
  Eq4Breakdown breakdown{};
};

/// The `steps`-point logarithmic grid over [lo, hi] that every s_d
/// sweep walks.  Throws std::invalid_argument, naming the bound at
/// fault, unless lo and hi are finite with 0 < lo < hi and steps >= 2.
[[nodiscard]] std::vector<double> log_grid(double lo, double hi, int steps);

/// Logarithmic sweep of eq. (4) over [lo, hi] with `steps` samples.
/// Grid points evaluate in parallel on `pool` (null: global pool); the
/// model is pure, so the sweep is deterministic at any thread count.
[[nodiscard]] std::vector<SweepPoint> sweep_eq4(const Eq4Inputs& inputs, double lo, double hi,
                                                int steps, exec::ThreadPool* pool = nullptr);

/// One sample of a generalized-model sweep.
struct GeneralizedSweepPoint final {
  double s_d = 0.0;
  CostEvaluation evaluation{};
};

[[nodiscard]] std::vector<GeneralizedSweepPoint> sweep_generalized(
    const GeneralizedCostModel& model, double lo, double hi, int steps,
    exec::ThreadPool* pool = nullptr);

}  // namespace nanocost::core
