#include "nautilus/core/materialization.h"

#include <algorithm>
#include <queue>

#include "nautilus/obs/metrics.h"
#include "nautilus/util/logging.h"

namespace nautilus {
namespace core {

MaterializationOptimizer::MaterializationOptimizer(const MultiModelGraph* mm)
    : mm_(mm) {
  NAUTILUS_CHECK(mm != nullptr);
}

std::vector<PlanningNode> MaterializationOptimizer::BuildPlanningNodes(
    int model, const std::vector<bool>& allowed_units, int64_t max_records,
    bool force_load) const {
  const Candidate& candidate =
      mm_->workload()[static_cast<size_t>(model)];
  const ModelProfile& profile =
      mm_->profiles()[static_cast<size_t>(model)];
  const double weight = static_cast<double>(max_records) *
                        static_cast<double>(candidate.hp.epochs);

  std::vector<PlanningNode> nodes(
      static_cast<size_t>(candidate.model.num_nodes()));
  for (const graph::GraphNode& node : candidate.model.nodes()) {
    const size_t j = static_cast<size_t>(node.id);
    PlanningNode& pn = nodes[j];
    pn.parents = node.parents;
    pn.forced_present = candidate.model.IsOutput(node.id);
    const LayerProfile& lp = profile.layers[j];
    if (node.parents.empty()) {
      // Raw data input: load-only, at its record-bytes load cost.
      pn.can_compute = false;
      pn.can_load = true;
      pn.load_cost = lp.load_cost_flops * weight;
      continue;
    }
    pn.compute_cost = lp.compute_cost_flops * weight;
    const int unit = mm_->UnitOf(model, node.id);
    if (unit >= 0 && allowed_units[static_cast<size_t>(unit)]) {
      pn.can_load = true;
      pn.load_cost = lp.load_cost_flops * weight;
      if (force_load) pn.can_compute = false;
    }
  }
  return nodes;
}

MaterializationChoice MaterializationOptimizer::EvaluateGivenUnits(
    const std::vector<bool>& allowed_units, int64_t max_records,
    bool force_load) const {
  MaterializationChoice choice;
  choice.materialize = allowed_units;
  choice.model_plans.reserve(static_cast<size_t>(mm_->num_models()));
  for (int i = 0; i < mm_->num_models(); ++i) {
    PlanningResult plan = SolveOptimalReusePlan(
        BuildPlanningNodes(i, allowed_units, max_records, force_load));
    choice.total_cost_flops += plan.total_cost;
    choice.model_plans.push_back(std::move(plan));
  }
  for (size_t u = 0; u < mm_->units().size(); ++u) {
    if (allowed_units[u]) {
      choice.storage_bytes += mm_->units()[u].disk_bytes *
                              static_cast<double>(max_records);
    }
  }
  return choice;
}

namespace {

// Units actually loaded by any model plan (these are the Z's that matter).
std::vector<bool> LoadedUnits(const MultiModelGraph& mm,
                              const MaterializationChoice& choice) {
  std::vector<bool> loaded(mm.units().size(), false);
  for (int i = 0; i < mm.num_models(); ++i) {
    const auto& actions = choice.model_plans[static_cast<size_t>(i)].actions;
    const graph::ModelGraph& model =
        mm.workload()[static_cast<size_t>(i)].model;
    for (int j = 0; j < model.num_nodes(); ++j) {
      if (actions[static_cast<size_t>(j)] != NodeAction::kLoaded) continue;
      if (model.node(j).parents.empty()) continue;  // raw input
      const int unit = mm.UnitOf(i, j);
      NAUTILUS_CHECK_GE(unit, 0) << "loaded node without a unit";
      loaded[static_cast<size_t>(unit)] = true;
    }
  }
  return loaded;
}

double UnitBytes(const MultiModelGraph& mm, const std::vector<bool>& units,
                 int64_t r) {
  double bytes = 0.0;
  for (size_t u = 0; u < units.size(); ++u) {
    if (units[u]) {
      bytes += mm.units()[u].disk_bytes * static_cast<double>(r);
    }
  }
  return bytes;
}

struct SearchNode {
  std::vector<int> fixed;  // -1 free, 0 fixed-out, 1 fixed-in (per unit)
  double lower_bound = 0.0;
};

struct SearchOrder {
  bool operator()(const std::pair<double, size_t>& a,
                  const std::pair<double, size_t>& b) const {
    return a.first > b.first;
  }
};

}  // namespace

MaterializationChoice MaterializationOptimizer::Optimize(
    double disk_budget_bytes, int64_t max_records, int max_search_nodes,
    const std::vector<bool>* warm_units) const {
  const size_t num_units = mm_->units().size();

  // Incumbent: no materialization at all (always feasible; this is the
  // Current Practice plan).
  MaterializationChoice best =
      EvaluateGivenUnits(std::vector<bool>(num_units, false), max_records);
  best.storage_bytes = 0.0;

  // Warm start: the prior cycle's unit set, if still feasible and cheaper,
  // replaces the trivial incumbent so bound pruning bites from node one.
  if (warm_units != nullptr && warm_units->size() == num_units) {
    MaterializationChoice prior = EvaluateGivenUnits(*warm_units, max_records);
    const std::vector<bool> loaded = LoadedUnits(*mm_, prior);
    const double loaded_bytes = UnitBytes(*mm_, loaded, max_records);
    if (loaded_bytes <= disk_budget_bytes + 1e-6 &&
        prior.total_cost_flops < best.total_cost_flops) {
      prior.materialize = loaded;
      prior.storage_bytes = loaded_bytes;
      best = std::move(prior);
    }
  }

  std::vector<SearchNode> arena;
  arena.push_back(SearchNode{std::vector<int>(num_units, -1), 0.0});
  std::priority_queue<std::pair<double, size_t>,
                      std::vector<std::pair<double, size_t>>, SearchOrder>
      open;
  open.push({0.0, 0});
  int explored = 0;
  bool capped = false;

  while (!open.empty()) {
    if (explored >= max_search_nodes) {
      capped = true;
      break;
    }
    const auto [bound, index] = open.top();
    open.pop();
    if (bound >= best.total_cost_flops - 1e-6) continue;
    const SearchNode node = arena[index];
    ++explored;

    // Storage feasibility of the committed units.
    std::vector<bool> committed(num_units, false);
    std::vector<bool> optimistic(num_units, false);
    double committed_bytes = 0.0;
    for (size_t u = 0; u < num_units; ++u) {
      if (node.fixed[u] == 1) {
        committed[u] = true;
        optimistic[u] = true;
        committed_bytes += mm_->units()[u].disk_bytes *
                           static_cast<double>(max_records);
      } else if (node.fixed[u] == -1) {
        optimistic[u] = true;
      }
    }
    if (committed_bytes > disk_budget_bytes + 1e-6) continue;  // infeasible

    // Lower bound: allow loading every committed or free unit (a superset
    // of any completion's V, and more materialization never costs more).
    MaterializationChoice relaxed =
        EvaluateGivenUnits(optimistic, max_records);
    if (relaxed.total_cost_flops >= best.total_cost_flops - 1e-6) continue;

    const std::vector<bool> loaded = LoadedUnits(*mm_, relaxed);
    const double loaded_bytes = UnitBytes(*mm_, loaded, max_records);
    if (loaded_bytes <= disk_budget_bytes + 1e-6) {
      // The relaxed plan is feasible as-is: it is optimal for this subtree.
      relaxed.materialize = loaded;
      relaxed.storage_bytes = loaded_bytes;
      best = std::move(relaxed);
      continue;
    }

    // Branch on the loaded-but-free unit with the largest footprint.
    int branch_unit = -1;
    double branch_bytes = -1.0;
    for (size_t u = 0; u < num_units; ++u) {
      if (node.fixed[u] != -1 || !loaded[u]) continue;
      const double bytes =
          mm_->units()[u].disk_bytes * static_cast<double>(max_records);
      if (bytes > branch_bytes) {
        branch_bytes = bytes;
        branch_unit = static_cast<int>(u);
      }
    }
    if (branch_unit < 0) {
      // Every loaded unit is committed, yet over budget: prune (committed
      // feasibility was checked, so the overflow comes from committed units
      // loading more than the budget allows — impossible; defensive).
      continue;
    }

    SearchNode out = node;
    out.fixed[static_cast<size_t>(branch_unit)] = 0;
    out.lower_bound = relaxed.total_cost_flops;
    SearchNode in = node;
    in.fixed[static_cast<size_t>(branch_unit)] = 1;
    in.lower_bound = relaxed.total_cost_flops;
    arena.push_back(std::move(out));
    open.push({relaxed.total_cost_flops, arena.size() - 1});
    arena.push_back(std::move(in));
    open.push({relaxed.total_cost_flops, arena.size() - 1});
  }

  // Post-processing (Section 4.2.2): discard materialized-but-unused units.
  const std::vector<bool> used = LoadedUnits(*mm_, best);
  best.materialize = used;
  best.storage_bytes = UnitBytes(*mm_, used, max_records);
  best.nodes_explored = explored;
  best.proved_optimal = !capped;
  static obs::Counter& search_nodes = obs::MetricsRegistry::Global().counter(
      "planner.search_nodes_explored");
  search_nodes.Add(explored);
  return best;
}

MilpProblem MaterializationOptimizer::BuildMilp(double disk_budget_bytes,
                                                int64_t max_records) const {
  // Variable layout: for each model i with n_i nodes, X_{i,j} then Y_{i,j}
  // blocks, followed by Z_k per unit.
  const int num_models = mm_->num_models();
  std::vector<int> x_base(static_cast<size_t>(num_models), 0);
  std::vector<int> y_base(static_cast<size_t>(num_models), 0);
  int next = 0;
  for (int i = 0; i < num_models; ++i) {
    const int n = mm_->workload()[static_cast<size_t>(i)].model.num_nodes();
    x_base[static_cast<size_t>(i)] = next;
    next += n;
    y_base[static_cast<size_t>(i)] = next;
    next += n;
  }
  const int z_base = next;
  next += static_cast<int>(mm_->units().size());

  MilpProblem problem(next);
  for (int v = 0; v < next; ++v) {
    problem.is_integer[static_cast<size_t>(v)] = true;
    problem.lp.SetUpperBound(v, 1.0);
  }

  // Objective (Equation 9), normalized to seconds for conditioning.
  const double scale = 1.0 / mm_->config().flops_per_second;
  for (int i = 0; i < num_models; ++i) {
    const Candidate& candidate = mm_->workload()[static_cast<size_t>(i)];
    const ModelProfile& profile = mm_->profiles()[static_cast<size_t>(i)];
    const double weight = static_cast<double>(max_records) *
                          static_cast<double>(candidate.hp.epochs) * scale;
    for (int j = 0; j < candidate.model.num_nodes(); ++j) {
      const LayerProfile& lp = profile.layers[static_cast<size_t>(j)];
      const int xj = x_base[static_cast<size_t>(i)] + j;
      const int yj = y_base[static_cast<size_t>(i)] + j;
      problem.lp.SetObjective(xj, lp.load_cost_flops * weight);
      problem.lp.SetObjective(
          yj, (lp.compute_cost_flops - lp.load_cost_flops) * weight);
      const graph::GraphNode& node = candidate.model.node(j);
      if (node.parents.empty()) {
        // Inputs cannot be computed.
        problem.lp.SetUpperBound(yj, 0.0);
      }
      // (a) outputs not pruned.
      if (candidate.model.IsOutput(j)) {
        problem.lp.AddGeqRow({{xj, 1.0}}, 1.0);
      }
      // (b) computed => not pruned.
      problem.lp.AddGeqRow({{xj, 1.0}, {yj, -1.0}}, 0.0);
      // (c) computed => each parent present.
      for (int p : node.parents) {
        const int xp = x_base[static_cast<size_t>(i)] + p;
        problem.lp.AddGeqRow({{xp, 1.0}, {yj, -1.0}}, 0.0);
      }
      // (d) loaded (present & not computed) only if materialized / input.
      if (!node.parents.empty()) {
        const int unit = mm_->UnitOf(i, j);
        if (unit >= 0) {
          problem.lp.AddLeqRow(
              {{xj, 1.0}, {yj, -1.0}, {z_base + unit, -1.0}}, 0.0);
        } else {
          // Not materializable: present implies computed.
          problem.lp.AddLeqRow({{xj, 1.0}, {yj, -1.0}}, 0.0);
        }
      }
    }
  }
  // (e) storage budget.
  std::vector<std::pair<int, double>> knapsack;
  for (size_t u = 0; u < mm_->units().size(); ++u) {
    knapsack.emplace_back(
        z_base + static_cast<int>(u),
        mm_->units()[u].disk_bytes * static_cast<double>(max_records));
  }
  if (!knapsack.empty()) {
    problem.lp.AddLeqRow(std::move(knapsack), disk_budget_bytes);
  }
  return problem;
}

MaterializationChoice MaterializationOptimizer::OptimizeWithMilp(
    double disk_budget_bytes, int64_t max_records,
    const MilpOptions& options) const {
  const MilpProblem problem = BuildMilp(disk_budget_bytes, max_records);
  const MilpSolution solution = SolveMilp(problem, options);
  NAUTILUS_CHECK(solution.status == LpStatus::kOptimal)
      << "materialization MILP: " << LpStatusToString(solution.status);

  // Recover Z and rebuild the per-model plans from it (the X/Y blocks agree
  // with the closure solver by optimality; re-deriving keeps one canonical
  // plan representation).
  const size_t num_units = mm_->units().size();
  std::vector<bool> allowed(num_units, false);
  const int z_base = static_cast<int>(solution.x.size() - num_units);
  for (size_t u = 0; u < num_units; ++u) {
    allowed[u] =
        solution.x[static_cast<size_t>(z_base) + u] > 0.5;
  }
  MaterializationChoice choice = EvaluateGivenUnits(allowed, max_records);
  const std::vector<bool> used = LoadedUnits(*mm_, choice);
  choice.materialize = used;
  choice.storage_bytes = UnitBytes(*mm_, used, max_records);
  choice.nodes_explored = solution.nodes_explored;
  return choice;
}

}  // namespace core
}  // namespace nautilus
