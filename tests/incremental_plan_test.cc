// Tests of incremental replanning and background materialization: the
// cross-cycle planner cache must reuse plans only while its inputs are
// unchanged, background appends must produce byte-identical feeds, and a
// failed background append must fall back to a synchronous rebuild without
// corrupting model selection.
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nautilus/core/model_selection.h"
#include "nautilus/core/multi_model.h"
#include "nautilus/core/planner.h"
#include "nautilus/data/synthetic.h"
#include "nautilus/obs/metrics.h"
#include "nautilus/storage/fault_injection.h"
#include "nautilus/storage/io_stats.h"
#include "nautilus/storage/tensor_store.h"
#include "nautilus/util/parallel.h"
#include "nautilus/zoo/bert_like.h"

namespace nautilus {
namespace core {
namespace {

SystemConfig TestConfig() {
  SystemConfig config;
  config.expected_max_records = 500;
  config.disk_budget_bytes = 10.0 * (1 << 20);
  config.memory_budget_bytes = 256.0 * (1 << 20);
  config.workspace_bytes = 1 << 20;
  config.disk_bytes_per_second = 2.0 * (1 << 20);
  config.flops_per_second = 1.0e9;
  config.per_model_setup_seconds = 0.01;
  return config;
}

// Fast disk + slow compute: materializing features wins, so the
// model-selection tests actually exercise the store-backed feed path.
SystemConfig LoadFriendlyConfig() {
  SystemConfig config;
  config.expected_max_records = 500;
  config.disk_budget_bytes = 1ull << 30;
  config.memory_budget_bytes = 2ull << 30;
  config.workspace_bytes = 1 << 20;
  config.flops_per_second = 2e8;
  config.disk_bytes_per_second = 1ull << 30;
  config.per_model_setup_seconds = 0.01;
  return config;
}

Workload MakeTinyWorkload(const zoo::BertLikeModel& source, int num_models,
                          uint64_t seed) {
  Workload workload;
  const zoo::BertFeature kFeatures[] = {
      zoo::BertFeature::kLastHidden, zoo::BertFeature::kSecondLastHidden,
      zoo::BertFeature::kSumLast4, zoo::BertFeature::kConcatLast4};
  for (int i = 0; i < num_models; ++i) {
    Hyperparams hp;
    hp.batch_size = 10;
    hp.learning_rate = 1e-3;
    hp.epochs = 2;
    workload.emplace_back(
        zoo::BuildBertFeatureTransferModel(
            source, kFeatures[i % 4], 3, "inc_m" + std::to_string(i),
            seed + static_cast<uint64_t>(i)),
        hp);
  }
  return workload;
}

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().counter(name).value();
}

// The background paths should run on real worker threads (this is also what
// the CI ThreadSanitizer stage relies on); a single-core budget would
// otherwise degenerate every wait into inline helping.
class ParallelismEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    if (ParallelismDegree() < 4) SetParallelismDegree(4);
  }
};
[[maybe_unused]] const auto* const kParallelismEnv =
    ::testing::AddGlobalTestEnvironment(new ParallelismEnv);

// ---------------------------------------------------------------------------
// (a) Cross-cycle planner cache: reuse only while the inputs are unchanged.
// ---------------------------------------------------------------------------

TEST(PlannerCacheTest, ReusesPlanUntilInputsChange) {
  zoo::BertLikeModel source(zoo::BertConfig::TinyScale(), 23);
  Workload workload = MakeTinyWorkload(source, 4, 700);
  SystemConfig config = TestConfig();
  MultiModelGraph mm(&workload, config);

  PlannerCache cache;
  const PlannedWorkload p1 = PlanWorkload(
      mm, MaterializationMode::kOptimized, /*enable_fusion=*/true, config,
      &cache);
  EXPECT_FALSE(cache.last_reused);
  const PlannedWorkload p2 = PlanWorkload(
      mm, MaterializationMode::kOptimized, /*enable_fusion=*/true, config,
      &cache);
  EXPECT_TRUE(cache.last_reused);
  EXPECT_EQ(p2.choice.materialize, p1.choice.materialize);
  EXPECT_EQ(p2.fusion.groups.size(), p1.fusion.groups.size());

  // Any planner input change (here: the record-count scale) must miss.
  config.expected_max_records *= 2;
  const PlannedWorkload p3 = PlanWorkload(
      mm, MaterializationMode::kOptimized, /*enable_fusion=*/true, config,
      &cache);
  EXPECT_FALSE(cache.last_reused);
  (void)p3;
}

// ---------------------------------------------------------------------------
// (b) Background materialization: identical feeds and results vs synchronous.
// ---------------------------------------------------------------------------

class IncrementalPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("nautilus_incplan_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    storage::FaultInjector::Global().Disarm();
    std::filesystem::remove_all(dir_);
  }
  std::filesystem::path dir_;
};

// Dumps every persisted feed as "<split>:<raw payload bytes>", sorted.
// Store keys embed process-local layer UIDs, so two runs in one process
// name the same unit differently — but the payloads must match exactly.
std::vector<std::string> ReadFeedPayloads(const std::filesystem::path& dir) {
  storage::IoStats stats;
  storage::TensorStore store((dir / "features").string(), &stats);
  std::vector<std::string> payloads;
  for (const std::string& key : store.ListKeys()) {
    if (key.rfind("session.", 0) == 0) continue;
    auto value = store.Get(key);
    EXPECT_TRUE(value.ok()) << key;
    if (!value.ok()) continue;
    const std::string split = key.substr(key.rfind('.') + 1);
    payloads.push_back(
        split + ":" +
        std::string(reinterpret_cast<const char*>(value->data()),
                    static_cast<size_t>(value->SizeBytes())));
  }
  std::sort(payloads.begin(), payloads.end());
  return payloads;
}

std::vector<FitResult> RunCycles(const std::filesystem::path& dir,
                                 bool background, int cycles,
                                 uint64_t model_seed = 800) {
  zoo::BertLikeModel source(zoo::BertConfig::TinyScale(), 24);
  data::LabeledDataset pool = data::GenerateTextPool(source, 240, 3, 5);
  ModelSelectionOptions options;
  options.seed = 7;
  options.background_materialization = background;
  ModelSelection selection(MakeTinyWorkload(source, 3, model_seed),
                           LoadFriendlyConfig(), dir.string(), options);
  data::LabelingSimulator labeler(pool, 60, 0.75);
  std::vector<FitResult> results;
  for (int c = 0; c < cycles; ++c) {
    auto cycle = labeler.NextCycle();
    results.push_back(selection.Fit(cycle.train, cycle.valid));
  }
  return results;
}

TEST_F(IncrementalPlanTest, BackgroundMatchesSynchronousBitwise) {
  const int64_t completions_before =
      CounterValue("materializer.background.completions");
  const std::vector<FitResult> sync =
      RunCycles(dir_ / "sync", /*background=*/false, 3);
  const int64_t completions_mid =
      CounterValue("materializer.background.completions");
  EXPECT_EQ(completions_mid, completions_before)
      << "synchronous run must not touch the background path";
  const std::vector<FitResult> bg =
      RunCycles(dir_ / "bg", /*background=*/true, 3);
  EXPECT_GT(CounterValue("materializer.background.completions"),
            completions_mid);

  // Model selection is unchanged, bit for bit.
  ASSERT_EQ(bg.size(), sync.size());
  for (size_t c = 0; c < bg.size(); ++c) {
    EXPECT_EQ(bg[c].best_model, sync[c].best_model) << "cycle " << c;
    EXPECT_EQ(bg[c].best_accuracy, sync[c].best_accuracy) << "cycle " << c;
    ASSERT_EQ(bg[c].evals.size(), sync[c].evals.size());
    for (size_t m = 0; m < bg[c].evals.size(); ++m) {
      EXPECT_EQ(bg[c].evals[m].val_accuracy, sync[c].evals[m].val_accuracy);
      EXPECT_EQ(bg[c].evals[m].val_loss, sync[c].evals[m].val_loss);
    }
  }
  // Every cycle reuses the plan cached at construction (r never doubles
  // here), so each increment runs in background.
  EXPECT_TRUE(bg[0].background);
  EXPECT_TRUE(bg[1].background);
  EXPECT_TRUE(bg[2].background);

  // And the persisted feeds are byte-identical.
  const auto sync_feeds = ReadFeedPayloads(dir_ / "sync");
  const auto bg_feeds = ReadFeedPayloads(dir_ / "bg");
  ASSERT_FALSE(sync_feeds.empty());
  EXPECT_EQ(bg_feeds, sync_feeds);
}

// ---------------------------------------------------------------------------
// (c) Failed background append: synchronous fallback, selection unchanged.
// ---------------------------------------------------------------------------

TEST_F(IncrementalPlanTest, FailedAppendFallsBackWithoutCorruption) {
  const std::vector<FitResult> reference =
      RunCycles(dir_ / "ref", /*background=*/true, 2);

  zoo::BertLikeModel source(zoo::BertConfig::TinyScale(), 24);
  data::LabeledDataset pool = data::GenerateTextPool(source, 240, 3, 5);
  ModelSelectionOptions options;
  options.seed = 7;
  options.background_materialization = true;
  ModelSelection selection(MakeTinyWorkload(source, 3, 800),
                           LoadFriendlyConfig(),
                           (dir_ / "faulty").string(), options);
  data::LabelingSimulator labeler(pool, 60, 0.75);
  auto c1 = labeler.NextCycle();
  selection.Fit(c1.train, c1.valid);

  // Cycle 2 runs in background; its very first store append fails, which
  // must trigger the synchronous per-split rebuild — not an abort, not a
  // wrong answer.
  const int64_t fallbacks_before =
      CounterValue("materializer.background.fallbacks");
  const int64_t faults_before = CounterValue("store.faults_injected");
  storage::FaultInjector::Global().Arm(
      storage::FaultInjector::Kind::kFailAppend, 1);
  auto c2 = labeler.NextCycle();
  const FitResult faulty = selection.Fit(c2.train, c2.valid);
  storage::FaultInjector::Global().Disarm();

  EXPECT_TRUE(faulty.background);
  EXPECT_GE(CounterValue("materializer.background.fallbacks"),
            fallbacks_before + 1);
  EXPECT_GE(CounterValue("store.faults_injected"), faults_before + 1);

  const FitResult& clean = reference[1];
  EXPECT_EQ(faulty.best_model, clean.best_model);
  EXPECT_EQ(faulty.best_accuracy, clean.best_accuracy);
  ASSERT_EQ(faulty.evals.size(), clean.evals.size());
  for (size_t m = 0; m < faulty.evals.size(); ++m) {
    EXPECT_EQ(faulty.evals[m].val_accuracy, clean.evals[m].val_accuracy);
  }

  // The rebuilt feeds are byte-identical to the clean run's.
  EXPECT_EQ(ReadFeedPayloads(dir_ / "faulty"), ReadFeedPayloads(dir_ / "ref"));
}

}  // namespace
}  // namespace core
}  // namespace nautilus
