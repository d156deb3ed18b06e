#include "nautilus/solver/milp.h"

#include <cmath>
#include <memory>
#include <queue>
#include <vector>

#include "nautilus/obs/metrics.h"
#include "nautilus/obs/trace.h"
#include "nautilus/util/logging.h"

namespace nautilus {

namespace {

struct Node {
  // Variable bound tightenings relative to the root problem.
  std::vector<std::pair<int, double>> lower_bounds;  // var >= value
  std::vector<std::pair<int, double>> upper_bounds;  // var <= value
  double parent_bound;  // LP objective of the parent (for best-first order)
};

struct NodeOrder {
  bool operator()(const std::pair<double, size_t>& a,
                  const std::pair<double, size_t>& b) const {
    return a.first > b.first;  // min-heap on parent bound
  }
};

MilpSolution SolveMilpImpl(const MilpProblem& problem,
                           const MilpOptions& options) {
  NAUTILUS_CHECK_EQ(static_cast<int>(problem.is_integer.size()),
                    problem.lp.num_vars());
  MilpSolution best;
  best.status = LpStatus::kInfeasible;
  bool have_incumbent = false;

  std::vector<Node> nodes;
  nodes.push_back(Node{{}, {}, -std::numeric_limits<double>::infinity()});
  std::priority_queue<std::pair<double, size_t>,
                      std::vector<std::pair<double, size_t>>, NodeOrder>
      open;
  open.push({nodes[0].parent_bound, 0});

  int explored = 0;
  bool hit_limit = false;
  while (!open.empty()) {
    if (explored >= options.max_nodes) {
      hit_limit = true;
      break;
    }
    const size_t node_idx = open.top().second;
    open.pop();
    const Node node = nodes[node_idx];
    ++explored;

    // Prune by bound before re-solving.
    if (have_incumbent && node.parent_bound >= best.objective - 1e-9) continue;

    // Build the node LP: root LP plus bound tightenings.
    LinearProgram lp = problem.lp;
    for (const auto& [var, ub] : node.upper_bounds) lp.SetUpperBound(var, ub);
    for (const auto& [var, lb] : node.lower_bounds) {
      lp.AddGeqRow({{var, 1.0}}, lb);
    }

    const LpSolution relax = SolveLp(lp);
    if (relax.status == LpStatus::kInfeasible) continue;
    if (relax.status == LpStatus::kUnbounded) {
      // An unbounded relaxation at the root means the MILP is unbounded; at
      // deeper nodes it cannot happen for bounded-variable formulations.
      best.status = LpStatus::kUnbounded;
      best.nodes_explored = explored;
      return best;
    }
    if (relax.status == LpStatus::kIterationLimit) {
      hit_limit = true;
      continue;
    }
    if (have_incumbent && relax.objective >= best.objective - 1e-9) continue;

    // Find the most fractional integer variable.
    int branch_var = -1;
    double branch_frac_dist = 0.0;
    for (int j = 0; j < lp.num_vars(); ++j) {
      if (!problem.is_integer[static_cast<size_t>(j)]) continue;
      const double v = relax.x[static_cast<size_t>(j)];
      const double frac = v - std::floor(v);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist > options.integrality_tol && dist > branch_frac_dist) {
        branch_frac_dist = dist;
        branch_var = j;
      }
    }

    if (branch_var < 0) {
      // Integral solution: candidate incumbent.
      if (!have_incumbent || relax.objective < best.objective - 1e-12) {
        best.objective = relax.objective;
        best.x = relax.x;
        // Snap integer variables exactly.
        for (int j = 0; j < lp.num_vars(); ++j) {
          if (problem.is_integer[static_cast<size_t>(j)]) {
            best.x[static_cast<size_t>(j)] =
                std::round(best.x[static_cast<size_t>(j)]);
          }
        }
        have_incumbent = true;
      }
      continue;
    }

    const double v = relax.x[static_cast<size_t>(branch_var)];
    Node down = node;
    down.upper_bounds.emplace_back(branch_var, std::floor(v));
    down.parent_bound = relax.objective;
    Node up = node;
    up.lower_bounds.emplace_back(branch_var, std::ceil(v));
    up.parent_bound = relax.objective;
    nodes.push_back(std::move(down));
    open.push({relax.objective, nodes.size() - 1});
    nodes.push_back(std::move(up));
    open.push({relax.objective, nodes.size() - 1});
  }

  best.nodes_explored = explored;
  if (have_incumbent) {
    best.status = hit_limit ? LpStatus::kIterationLimit : LpStatus::kOptimal;
    if (!hit_limit) best.status = LpStatus::kOptimal;
  } else if (hit_limit) {
    best.status = LpStatus::kIterationLimit;
  }
  return best;
}

}  // namespace

MilpSolution SolveMilp(const MilpProblem& problem, const MilpOptions& options) {
  static obs::Counter& solves =
      obs::MetricsRegistry::Global().counter("milp.solves");
  static obs::Counter& nodes_explored =
      obs::MetricsRegistry::Global().counter("milp.nodes_explored");
  static obs::Histogram& solve_ns =
      obs::MetricsRegistry::Global().histogram("milp.solve_ns");
  solves.Add();
  obs::TraceScope span("plan", "milp.solve");
  span.AddArg("vars", problem.lp.num_vars());

  const MilpSolution solution = SolveMilpImpl(problem, options);
  nodes_explored.Add(solution.nodes_explored);
  if (span.active()) {
    solve_ns.Record(span.ElapsedNs());
    span.AddArg("status", LpStatusToString(solution.status))
        .AddArg("nodes_explored", solution.nodes_explored)
        .AddArg("objective", solution.objective);
  }
  return solution;
}

}  // namespace nautilus
