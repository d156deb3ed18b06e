// Section 5.3 (optimizer cost): wall-clock time of the materialization
// optimization per workload at paper scale — the exact branch-and-bound
// (our Gurobi substitute) on every workload, plus the literal Equation 9/10
// MILP through the simplex-based solver on the smaller instances, with an
// agreement check between the two.
#include "bench_util.h"
#include "nautilus/core/materialization.h"
#include "nautilus/nn/layer.h"
#include "nautilus/util/stopwatch.h"
#include "nautilus/util/strings.h"

using namespace nautilus;

int main() {
  bench::PrintHeader("Optimizer cost: materialization solve times");
  nn::ProfileOnlyScope profile_only;
  const core::SystemConfig config = bench::PaperConfig();

  bench::PrintRow({"Workload", "units |U|", "B&B time", "B&B nodes",
                   "MILP vars", "MILP time", "agree"},
                  13);
  for (workloads::WorkloadId id : workloads::AllWorkloads()) {
    workloads::BuiltWorkload built =
        workloads::BuildWorkload(id, workloads::Scale::kPaper, 1);
    core::MultiModelGraph mm(&built.workload, config);
    core::MaterializationOptimizer optimizer(&mm);

    Stopwatch bnb_watch;
    core::MaterializationChoice structured = optimizer.Optimize(
        config.disk_budget_bytes, config.expected_max_records);
    const double bnb_seconds = bnb_watch.ElapsedSeconds();

    // The literal MILP grows with models x nodes; run it on the smaller
    // workloads (the big ones are what the structured solver is for).
    std::string milp_time = "-";
    std::string agree = "-";
    MilpProblem milp = optimizer.BuildMilp(config.disk_budget_bytes,
                                           config.expected_max_records);
    const int num_vars = milp.lp.num_vars();
    if (built.workload.size() <= 12) {
      Stopwatch milp_watch;
      core::MaterializationChoice via_milp = optimizer.OptimizeWithMilp(
          config.disk_budget_bytes, config.expected_max_records);
      const double milp_seconds = milp_watch.ElapsedSeconds();
      milp_time = FormatDouble(milp_seconds, 2) + " s";

      const double rel =
          std::abs(via_milp.total_cost_flops - structured.total_cost_flops) /
          std::max(1.0, structured.total_cost_flops);
      agree = rel < 1e-6 ? "yes" : "NO";
    }
    bench::PrintRow({built.name, std::to_string(mm.units().size()),
                     FormatDouble(bnb_seconds, 3) + " s",
                     std::to_string(structured.nodes_explored),
                     std::to_string(num_vars), milp_time, agree},
                    13);
  }
  std::printf(
      "\nPaper reference: the Gurobi MILP solves practical workload sizes\n"
      "in a few tens of seconds; the whole optimization is ~3%% of\n"
      "Nautilus's workload initialization time.\n");
  return 0;
}
