#include "nautilus/solver/simplex.h"

#include <algorithm>
#include <cmath>

#include "nautilus/util/logging.h"

namespace nautilus {

namespace {
constexpr double kEps = 1e-9;
constexpr int kMaxIterationsFactor = 200;
}  // namespace

LinearProgram::LinearProgram(int num_vars)
    : num_vars_(num_vars),
      objective_(static_cast<size_t>(num_vars), 0.0),
      upper_(static_cast<size_t>(num_vars), kInfinity) {
  NAUTILUS_CHECK_GT(num_vars, 0);
}

void LinearProgram::SetObjective(int var, double coeff) {
  NAUTILUS_CHECK_GE(var, 0);
  NAUTILUS_CHECK_LT(var, num_vars_);
  objective_[static_cast<size_t>(var)] = coeff;
}

void LinearProgram::SetUpperBound(int var, double upper) {
  NAUTILUS_CHECK_GE(var, 0);
  NAUTILUS_CHECK_LT(var, num_vars_);
  upper_[static_cast<size_t>(var)] = upper;
}

void LinearProgram::AddLeqRow(std::vector<std::pair<int, double>> coeffs,
                              double rhs) {
  for (const auto& [var, coeff] : coeffs) {
    NAUTILUS_CHECK_GE(var, 0);
    NAUTILUS_CHECK_LT(var, num_vars_);
    (void)coeff;
  }
  rows_.push_back({std::move(coeffs), rhs});
}

void LinearProgram::AddGeqRow(std::vector<std::pair<int, double>> coeffs,
                              double rhs) {
  for (auto& [var, coeff] : coeffs) coeff = -coeff;
  AddLeqRow(std::move(coeffs), -rhs);
}

void LinearProgram::AddEqRow(std::vector<std::pair<int, double>> coeffs,
                             double rhs) {
  AddLeqRow(coeffs, rhs);
  AddGeqRow(std::move(coeffs), rhs);
}

const char* LpStatusToString(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "Optimal";
    case LpStatus::kInfeasible:
      return "Infeasible";
    case LpStatus::kUnbounded:
      return "Unbounded";
    case LpStatus::kIterationLimit:
      return "IterationLimit";
  }
  return "Unknown";
}

namespace {

// Dense simplex tableau. Structural variables first, then slacks, then
// artificials. Row 0..m-1 are constraints; the objective is kept separately
// as reduced-cost bookkeeping via the standard tableau formulation.
class Tableau {
 public:
  Tableau(const LinearProgram& lp) {
    // Materialize finite upper bounds as extra rows x_j <= u_j.
    std::vector<LinearProgram::Row> rows = lp.rows();
    for (int j = 0; j < lp.num_vars(); ++j) {
      const double u = lp.upper_bounds()[static_cast<size_t>(j)];
      if (u != LinearProgram::kInfinity) {
        rows.push_back({{{j, 1.0}}, u});
      }
    }
    n_struct_ = lp.num_vars();
    m_ = static_cast<int>(rows.size());
    n_slack_ = m_;
    // Count rows needing artificials (negative rhs after slack insertion).
    n_art_ = 0;
    for (const auto& row : rows) {
      if (row.rhs < 0.0) ++n_art_;
    }
    n_total_ = n_struct_ + n_slack_ + n_art_;
    a_.assign(static_cast<size_t>(m_) * static_cast<size_t>(n_total_), 0.0);
    b_.assign(static_cast<size_t>(m_), 0.0);
    basis_.assign(static_cast<size_t>(m_), -1);

    int art = 0;
    for (int i = 0; i < m_; ++i) {
      const auto& row = rows[static_cast<size_t>(i)];
      const double sign = row.rhs < 0.0 ? -1.0 : 1.0;
      for (const auto& [var, coeff] : row.coeffs) {
        At(i, var) += sign * coeff;
      }
      At(i, n_struct_ + i) = sign * 1.0;  // slack
      b_[static_cast<size_t>(i)] = sign * row.rhs;
      if (sign < 0.0) {
        const int art_col = n_struct_ + n_slack_ + art;
        At(i, art_col) = 1.0;
        basis_[static_cast<size_t>(i)] = art_col;
        ++art;
      } else {
        basis_[static_cast<size_t>(i)] = n_struct_ + i;
      }
    }
  }

  double& At(int row, int col) {
    return a_[static_cast<size_t>(row) * static_cast<size_t>(n_total_) +
              static_cast<size_t>(col)];
  }
  double AtC(int row, int col) const {
    return a_[static_cast<size_t>(row) * static_cast<size_t>(n_total_) +
              static_cast<size_t>(col)];
  }

  // Runs primal simplex minimizing objective `c` (size n_total_) over the
  // current basis. Returns kOptimal or kUnbounded / kIterationLimit.
  LpStatus Minimize(const std::vector<double>& c, int allowed_cols) {
    const int max_iters = kMaxIterationsFactor * (m_ + n_total_ + 16);
    // Reduced costs maintained from scratch each iteration via the basis
    // (simple and robust; instances here are small).
    for (int iter = 0; iter < max_iters; ++iter) {
      // y = c_B applied through tableau rows: since we keep the tableau in
      // "dictionary" form (basis columns are unit vectors), the reduced cost
      // of column j is c_j - sum_i c_{basis[i]} * a_ij.
      int entering = -1;
      double best = -kEps;
      for (int j = 0; j < allowed_cols; ++j) {
        double rc = c[static_cast<size_t>(j)];
        for (int i = 0; i < m_; ++i) {
          const double cb = c[static_cast<size_t>(basis_[static_cast<size_t>(i)])];
          if (cb != 0.0) rc -= cb * AtC(i, j);
        }
        if (rc < best - kEps) {
          // Bland's rule: pick the smallest-index column with negative
          // reduced cost. We emulate it by scanning in order and taking the
          // first strictly negative one.
          entering = j;
          break;
        }
      }
      if (entering < 0) return LpStatus::kOptimal;

      // Ratio test (Bland's: smallest basis index on ties).
      int leaving = -1;
      double best_ratio = 0.0;
      for (int i = 0; i < m_; ++i) {
        const double aij = AtC(i, entering);
        if (aij > kEps) {
          const double ratio = b_[static_cast<size_t>(i)] / aij;
          if (leaving < 0 || ratio < best_ratio - kEps ||
              (std::fabs(ratio - best_ratio) <= kEps &&
               basis_[static_cast<size_t>(i)] <
                   basis_[static_cast<size_t>(leaving)])) {
            leaving = i;
            best_ratio = ratio;
          }
        }
      }
      if (leaving < 0) return LpStatus::kUnbounded;
      Pivot(leaving, entering);
    }
    return LpStatus::kIterationLimit;
  }

  void Pivot(int row, int col) {
    const double pivot = AtC(row, col);
    NAUTILUS_CHECK_GT(std::fabs(pivot), kEps);
    const double inv = 1.0 / pivot;
    for (int j = 0; j < n_total_; ++j) At(row, j) *= inv;
    b_[static_cast<size_t>(row)] *= inv;
    for (int i = 0; i < m_; ++i) {
      if (i == row) continue;
      const double factor = AtC(i, col);
      if (factor == 0.0) continue;
      for (int j = 0; j < n_total_; ++j) At(i, j) -= factor * AtC(row, j);
      b_[static_cast<size_t>(i)] -= factor * b_[static_cast<size_t>(row)];
    }
    basis_[static_cast<size_t>(row)] = col;
  }

  int m() const { return m_; }
  int n_struct() const { return n_struct_; }
  int n_slack() const { return n_slack_; }
  int n_art() const { return n_art_; }
  int n_total() const { return n_total_; }
  const std::vector<int>& basis() const { return basis_; }
  const std::vector<double>& b() const { return b_; }

 private:
  int m_ = 0;
  int n_struct_ = 0;
  int n_slack_ = 0;
  int n_art_ = 0;
  int n_total_ = 0;
  std::vector<double> a_;
  std::vector<double> b_;
  std::vector<int> basis_;
};

}  // namespace

LpSolution SolveLp(const LinearProgram& lp) {
  Tableau t(lp);
  LpSolution sol;

  // Phase 1: drive artificials to zero if any are present.
  if (t.n_art() > 0) {
    std::vector<double> phase1(static_cast<size_t>(t.n_total()), 0.0);
    for (int j = t.n_struct() + t.n_slack(); j < t.n_total(); ++j) {
      phase1[static_cast<size_t>(j)] = 1.0;
    }
    const LpStatus s1 = t.Minimize(phase1, t.n_total());
    if (s1 == LpStatus::kIterationLimit) {
      sol.status = s1;
      return sol;
    }
    double infeas = 0.0;
    for (int i = 0; i < t.m(); ++i) {
      if (t.basis()[static_cast<size_t>(i)] >= t.n_struct() + t.n_slack()) {
        infeas += t.b()[static_cast<size_t>(i)];
      }
    }
    if (infeas > 1e-7) {
      sol.status = LpStatus::kInfeasible;
      return sol;
    }
    // Pivot any degenerate artificial out of the basis where possible.
    for (int i = 0; i < t.m(); ++i) {
      if (t.basis()[static_cast<size_t>(i)] >= t.n_struct() + t.n_slack()) {
        for (int j = 0; j < t.n_struct() + t.n_slack(); ++j) {
          if (std::fabs(t.AtC(i, j)) > 1e-7) {
            t.Pivot(i, j);
            break;
          }
        }
      }
    }
  }

  // Phase 2: minimize the real objective over structural + slack columns.
  std::vector<double> c(static_cast<size_t>(t.n_total()), 0.0);
  for (int j = 0; j < lp.num_vars(); ++j) {
    c[static_cast<size_t>(j)] = lp.objective()[static_cast<size_t>(j)];
  }
  const LpStatus s2 = t.Minimize(c, t.n_struct() + t.n_slack());
  sol.status = s2;
  if (s2 != LpStatus::kOptimal) return sol;

  sol.x.assign(static_cast<size_t>(lp.num_vars()), 0.0);
  for (int i = 0; i < t.m(); ++i) {
    const int var = t.basis()[static_cast<size_t>(i)];
    if (var < lp.num_vars()) {
      sol.x[static_cast<size_t>(var)] = t.b()[static_cast<size_t>(i)];
    }
  }
  sol.objective = 0.0;
  for (int j = 0; j < lp.num_vars(); ++j) {
    sol.objective += lp.objective()[static_cast<size_t>(j)] *
                     sol.x[static_cast<size_t>(j)];
  }
  return sol;
}

}  // namespace nautilus
