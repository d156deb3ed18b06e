#ifndef NAUTILUS_SOLVER_MILP_H_
#define NAUTILUS_SOLVER_MILP_H_

#include <cstddef>
#include <vector>

#include "nautilus/solver/simplex.h"

namespace nautilus {

/// A mixed-integer linear program: a LinearProgram plus integrality marks.
/// Integer variables must have finite bounds (the Nautilus formulations only
/// use binaries in [0, 1]).
struct MilpProblem {
  LinearProgram lp;
  std::vector<bool> is_integer;  // size == lp.num_vars()

  explicit MilpProblem(int num_vars)
      : lp(num_vars), is_integer(static_cast<size_t>(num_vars), false) {}
};

struct MilpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;
  int nodes_explored = 0;
};

struct MilpOptions {
  /// Hard cap on branch-and-bound nodes; kIterationLimit is reported if hit
  /// before proving optimality (the incumbent, if any, is still returned).
  int max_nodes = 200000;
  double integrality_tol = 1e-6;
};

/// Exact branch-and-bound MILP solver over the two-phase simplex. This is
/// the offline stand-in for Gurobi used by the materialization optimizer's
/// MILP formulation (paper Section 4.2.2).
MilpSolution SolveMilp(const MilpProblem& problem,
                       const MilpOptions& options = MilpOptions());

}  // namespace nautilus

#endif  // NAUTILUS_SOLVER_MILP_H_
