#ifndef NAUTILUS_SOLVER_SIMPLEX_H_
#define NAUTILUS_SOLVER_SIMPLEX_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace nautilus {

/// A linear program in the form
///   minimize    c^T x
///   subject to  sum_j a_ij x_j <= b_i   for each row i
///               0 <= x_j <= upper_j     (upper defaults to +infinity)
///
/// Equality rows can be expressed as a pair of <= rows; >= rows as a negated
/// <= row. This is the backend for the MILP solver that stands in for Gurobi
/// in the materialization optimizer (Section 4.2.2 of the Nautilus paper).
class LinearProgram {
 public:
  /// Creates a program with `num_vars` variables, all with zero objective
  /// coefficient and [0, +inf) bounds.
  explicit LinearProgram(int num_vars);

  void SetObjective(int var, double coeff);
  void SetUpperBound(int var, double upper);

  /// Adds a row sum_j coeffs[j].second * x_{coeffs[j].first} <= rhs.
  void AddLeqRow(std::vector<std::pair<int, double>> coeffs, double rhs);

  /// Convenience: adds a >= row by negating.
  void AddGeqRow(std::vector<std::pair<int, double>> coeffs, double rhs);

  /// Convenience: adds an equality row (as two inequalities).
  void AddEqRow(std::vector<std::pair<int, double>> coeffs, double rhs);

  int num_vars() const { return num_vars_; }
  int num_rows() const { return static_cast<int>(rows_.size()); }
  const std::vector<double>& objective() const { return objective_; }
  const std::vector<double>& upper_bounds() const { return upper_; }

  struct Row {
    std::vector<std::pair<int, double>> coeffs;
    double rhs;
  };
  const std::vector<Row>& rows() const { return rows_; }

  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

 private:
  int num_vars_;
  std::vector<double> objective_;
  std::vector<double> upper_;
  std::vector<Row> rows_;
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* LpStatusToString(LpStatus status);

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;
};

/// Solves `lp` with a dense two-phase primal simplex (Bland's rule, so it
/// cannot cycle). Intended for the small/medium instances produced by
/// Nautilus's optimizer formulations and tests.
LpSolution SolveLp(const LinearProgram& lp);

}  // namespace nautilus

#endif  // NAUTILUS_SOLVER_SIMPLEX_H_
