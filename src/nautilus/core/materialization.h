#ifndef NAUTILUS_CORE_MATERIALIZATION_H_
#define NAUTILUS_CORE_MATERIALIZATION_H_

#include <vector>

#include "nautilus/core/multi_model.h"
#include "nautilus/core/planning.h"
#include "nautilus/solver/milp.h"

namespace nautilus {
namespace core {

/// Output of the materialization optimization (Section 4.2): which
/// materializable units to persist (V) and, for every candidate model, the
/// optimal reuse plan that exploits them.
struct MaterializationChoice {
  std::vector<bool> materialize;            // per multi-model unit (Z)
  std::vector<PlanningResult> model_plans;  // per candidate, given V
  /// Objective value: sum over candidates of C(M_i^opt) * r * epochs_i, in
  /// FLOPs (Equation 6).
  double total_cost_flops = 0.0;
  /// Bytes of materialized outputs at r records.
  double storage_bytes = 0.0;
  /// Search statistics.
  int nodes_explored = 0;
  bool proved_optimal = true;
};

/// Solves the materialization problem. Two interchangeable backends:
///
///  * Optimize(): exact branch-and-bound over the Z (materialize)
///    variables, with the max-flow reuse-plan solver providing bounds.
///    This is the offline substitute for the paper's Gurobi call and scales
///    to the full workloads.
///  * BuildMilp()/OptimizeWithMilp(): the literal Equation 9/10 MILP solved
///    by our simplex-based branch-and-bound; used for cross-checking and
///    for the MILP-timing experiment. (One deviation from the paper's
///    notation: constraint (c) is emitted per parent — a computed node needs
///    *all* parents present — which is the semantics Figure 4 depicts.)
class MaterializationOptimizer {
 public:
  explicit MaterializationOptimizer(const MultiModelGraph* mm);

  /// Evaluates the objective for a fixed set of loadable units (a "what-if"
  /// V): per-model optimal plans plus the total cost. With `force_load`,
  /// allowed materializable units must be loaded when present (the MAT-ALL
  /// baseline's behavior of always using materialized features).
  MaterializationChoice EvaluateGivenUnits(
      const std::vector<bool>& allowed_units, int64_t max_records,
      bool force_load = false) const;

  /// `warm_units` (optional): a prior cycle's materialization set, seeded as
  /// the starting incumbent when it is still budget-feasible and cheaper
  /// than the no-materialization plan. The search result is unchanged — the
  /// optimum is still proven — but subtrees that cannot beat the prior plan
  /// are pruned immediately, which is the common case when only the
  /// record-count scale changed between cycles.
  MaterializationChoice Optimize(
      double disk_budget_bytes, int64_t max_records,
      int max_search_nodes = 20000,
      const std::vector<bool>* warm_units = nullptr) const;

  MilpProblem BuildMilp(double disk_budget_bytes, int64_t max_records) const;
  MaterializationChoice OptimizeWithMilp(
      double disk_budget_bytes, int64_t max_records,
      const MilpOptions& options = MilpOptions()) const;

 private:
  /// Per-candidate planning instance given which units may be loaded.
  std::vector<PlanningNode> BuildPlanningNodes(
      int model, const std::vector<bool>& allowed_units, int64_t max_records,
      bool force_load) const;

  const MultiModelGraph* mm_;
};

}  // namespace core
}  // namespace nautilus

#endif  // NAUTILUS_CORE_MATERIALIZATION_H_
