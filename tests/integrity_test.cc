// Storage integrity & crash recovery: checksum verification on every read
// path, quarantine-on-scrub, torn-append detection, atomic checkpoints, and
// the trainer's recompute-from-frozen-prefix fallback. Injected corruption
// must surface as IoError (or a recovered run), never as wrong floats.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nautilus/core/model_selection.h"
#include "nautilus/data/synthetic.h"
#include "nautilus/obs/metrics.h"
#include "nautilus/storage/fault_injection.h"
#include "nautilus/storage/integrity.h"
#include "nautilus/storage/io_stats.h"
#include "nautilus/storage/tensor_store.h"
#include "nautilus/util/random.h"
#include "nautilus/zoo/bert_like.h"

namespace nautilus {
namespace storage {
namespace {

namespace fs = std::filesystem;

// Locates the single shard file whose name contains `hint` ("" = any).
fs::path FindShard(const fs::path& dir, const std::string& hint = "") {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".tns") continue;
    if (hint.empty() ||
        entry.path().filename().string().find(hint) != std::string::npos) {
      return entry.path();
    }
  }
  return {};
}

void FlipByte(const fs::path& path, int64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  unsigned char byte = 0;
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
  byte ^= 0x10;
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
  std::fclose(f);
}

class IntegrityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("nautilus_integrity_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    FaultInjector::Global().Disarm();
  }
  void TearDown() override {
    FaultInjector::Global().Disarm();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// CRC kernel & footer format
// ---------------------------------------------------------------------------

TEST_F(IntegrityTest, Crc32cKnownVectors) {
  // RFC 3720 test vector for CRC32C.
  EXPECT_EQ(Crc32c(0, "123456789", 9), 0xe3069283u);
  EXPECT_EQ(Crc32c(0, "", 0), 0u);
  const std::vector<char> zeros(32, 0);
  EXPECT_EQ(Crc32c(0, zeros.data(), zeros.size()), 0x8a9136aau);
}

TEST_F(IntegrityTest, Crc32cExtendsIncrementally) {
  Rng rng(7);
  std::vector<char> data(4097);
  for (char& c : data) c = static_cast<char>(rng.Uniform() * 255.0);
  const uint32_t whole = Crc32c(0, data.data(), data.size());
  uint32_t chunked = 0;
  for (size_t pos = 0; pos < data.size(); pos += 555) {
    const size_t n = std::min<size_t>(555, data.size() - pos);
    chunked = Crc32c(chunked, data.data() + pos, n);
  }
  EXPECT_EQ(whole, chunked);
}

TEST_F(IntegrityTest, FooterRoundTripAndTearDetection) {
  ShardFooter footer;
  footer.header_crc = 0xdeadbeef;
  footer.payload_crc = 0x12345678;
  footer.payload_bytes = 1 << 20;
  char bytes[kShardFooterBytes];
  EncodeShardFooter(footer, bytes);
  ShardFooter decoded;
  ASSERT_TRUE(DecodeShardFooter(bytes, &decoded));
  EXPECT_EQ(decoded.header_crc, footer.header_crc);
  EXPECT_EQ(decoded.payload_crc, footer.payload_crc);
  EXPECT_EQ(decoded.payload_bytes, footer.payload_bytes);
  EXPECT_EQ(decoded.version, kShardFooterVersion);
  // Damage inside the checksummed span.
  char torn[kShardFooterBytes];
  std::copy(bytes, bytes + kShardFooterBytes, torn);
  torn[5] ^= 0x01;
  EXPECT_FALSE(DecodeShardFooter(torn, &decoded));
  // A zeroed tail (no magic at all) is simply invalid.
  char zeroed[kShardFooterBytes] = {0};
  EXPECT_FALSE(DecodeShardFooter(zeroed, &decoded));
}

TEST_F(IntegrityTest, DurabilityParsing) {
  Durability d = Durability::kFsync;
  EXPECT_TRUE(ParseDurability("none", &d));
  EXPECT_EQ(d, Durability::kNone);
  EXPECT_TRUE(ParseDurability("flush", &d));
  EXPECT_EQ(d, Durability::kFlush);
  EXPECT_TRUE(ParseDurability("fsync", &d));
  EXPECT_EQ(d, Durability::kFsync);
  EXPECT_FALSE(ParseDurability("fsycn", &d));
  EXPECT_STREQ(DurabilityName(Durability::kFlush), "flush");
}

TEST_F(IntegrityTest, FaultInjectorSpecParsing) {
  FaultInjector& injector = FaultInjector::Global();
  EXPECT_TRUE(injector.ArmFromSpec("truncate:2"));
  EXPECT_TRUE(injector.armed());
  injector.Disarm();
  EXPECT_FALSE(injector.armed());
  EXPECT_TRUE(injector.ArmFromSpec("bitflip:1"));
  injector.Disarm();
  EXPECT_TRUE(injector.ArmFromSpec("crash_after_write:10"));
  injector.Disarm();
  EXPECT_FALSE(injector.ArmFromSpec("truncate"));
  EXPECT_FALSE(injector.ArmFromSpec("truncate:"));
  EXPECT_FALSE(injector.ArmFromSpec("truncate:0"));
  EXPECT_FALSE(injector.ArmFromSpec("melt:1"));
  EXPECT_FALSE(injector.armed());
}

// ---------------------------------------------------------------------------
// Read-path verification matrix
// ---------------------------------------------------------------------------

// Every read path must reject a truncated shard with IoError.
TEST_F(IntegrityTest, TruncatedShardFailsEveryReadPath) {
  IoStats stats;
  Rng rng(3);
  const Tensor value = Tensor::Randn(Shape({64, 16}), &rng, 1.0f);
  {
    TensorStore store(dir_.string(), &stats);
    FaultInjector::Global().Arm(FaultInjector::Kind::kTruncate, 1);
    ASSERT_TRUE(store.Put("t", value).ok());
    EXPECT_FALSE(FaultInjector::Global().armed());
  }
  TensorStore store(dir_.string(), &stats);
  EXPECT_EQ(store.Get("t").status().code(), StatusCode::kIoError);
  EXPECT_EQ(store.GetRows("t", 0, 8).status().code(), StatusCode::kIoError);
  EXPECT_EQ(store.GetRowsView("t", 0, 8).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(store.GetBatch({{"t", 0, -1}}).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(store.NumRows("t"), 0);
}

// A single flipped payload bit must fail both the mmap path and the
// buffered forced-disk path — even when the flip is outside the rows read.
TEST_F(IntegrityTest, BitflippedPayloadFailsReads) {
  IoStats stats;
  Rng rng(4);
  const int64_t before =
      obs::MetricsRegistry::Global().counter("store.corruption_detected")
          .value();
  {
    TensorStore store(dir_.string(), &stats);
    FaultInjector::Global().Arm(FaultInjector::Kind::kBitflip, 1);
    ASSERT_TRUE(store.Put("t", Tensor::Randn(Shape({64, 16}), &rng, 1.0f))
                    .ok());
  }
  TensorStore store(dir_.string(), &stats);
  EXPECT_EQ(store.Get("t").status().code(), StatusCode::kIoError);
  // Cold slice read of the FIRST rows: the flip sits mid-file, outside the
  // slice, and must still be caught (whole-payload streaming verify).
  EXPECT_EQ(store.GetRows("t", 0, 2).status().code(), StatusCode::kIoError);
  EXPECT_GT(obs::MetricsRegistry::Global()
                .counter("store.corruption_detected")
                .value(),
            before);
}

TEST_F(IntegrityTest, TornFooterFailsReads) {
  IoStats stats;
  {
    TensorStore store(dir_.string(), &stats);
    ASSERT_TRUE(store.Put("t", Tensor(Shape({8, 4}))).ok());
  }
  const fs::path shard = FindShard(dir_);
  ASSERT_FALSE(shard.empty());
  // Flip a byte inside the footer's checksummed span (version field).
  FlipByte(shard, static_cast<int64_t>(fs::file_size(shard)) -
                      kShardFooterBytes + 17);
  TensorStore store(dir_.string(), &stats);
  EXPECT_EQ(store.Get("t").status().code(), StatusCode::kIoError);
  EXPECT_EQ(store.GetRows("t", 0, 1).status().code(), StatusCode::kIoError);
}

// A crashed append must never let a reopened store serve rows past the
// durable payload; the pre-mutation cache invalidation must also keep the
// same store object from serving its stale cached shard.
TEST_F(IntegrityTest, TornAppendNeverServesPartialRows) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  Tensor a(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor b(Shape({1, 3}), {7, 8, 9});
  ASSERT_TRUE(store.AppendRows("f", a).ok());
  ASSERT_TRUE(store.Get("f").ok());  // now cached
  FaultInjector::Global().Arm(FaultInjector::Kind::kTruncate, 1);
  ASSERT_TRUE(store.AppendRows("f", b).ok());
  // Same store object: the cache was invalidated, the torn file detected.
  EXPECT_EQ(store.Get("f").status().code(), StatusCode::kIoError);
  // Fresh store (the "reopen after crash" view): 0 readable rows.
  TensorStore reopened(dir_.string(), &stats);
  EXPECT_EQ(reopened.NumRows("f"), 0);
  EXPECT_EQ(reopened.Get("f").status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// The footer is mandatory
// ---------------------------------------------------------------------------

// A shard with its footer cut off carries no checksum to verify, so it must
// never be served: a payload bit flipped after the cut would otherwise reach
// the caller as a wrong float.
TEST_F(IntegrityTest, FooterlessShardIsRejected) {
  IoStats stats;
  Rng rng(6);
  {
    TensorStore store(dir_.string(), &stats);
    ASSERT_TRUE(store.Put("t", Tensor::Randn(Shape({64, 16}), &rng, 1.0f))
                    .ok());
  }
  const fs::path shard = FindShard(dir_);
  ASSERT_FALSE(shard.empty());
  const int64_t bare_size =
      static_cast<int64_t>(fs::file_size(shard)) - kShardFooterBytes;
  fs::resize_file(shard, static_cast<uintmax_t>(bare_size));
  FlipByte(shard, bare_size - 100);  // inside the payload

  TensorStore store(dir_.string(), &stats);
  EXPECT_EQ(store.Get("t").status().code(), StatusCode::kIoError);
  EXPECT_EQ(store.GetRows("t", 0, 8).status().code(), StatusCode::kIoError);
  EXPECT_EQ(store.GetBatch({{"t", 0, -1}}).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(store.NumRows("t"), 0);
  const ScrubReport report = store.Scrub();
  EXPECT_EQ(report.checked, 1);
  EXPECT_EQ(report.ok, 0);
  EXPECT_EQ(report.quarantined, 1);
  EXPECT_FALSE(store.Contains("t"));
}

// An append that dies after its rows landed over the old footer and the
// header row count was bumped, but before the new footer was written: the
// file holds a complete-looking header and payload and no footer. Built here
// from a real 3-row shard by cutting its footer and zeroing the appended row
// (the row's bytes never reached the disk).
TEST_F(IntegrityTest, AppendTornBeforeFooterIsRejected) {
  IoStats stats;
  {
    TensorStore store(dir_.string(), &stats);
    ASSERT_TRUE(
        store.AppendRows("f", Tensor(Shape({2, 3}), {1, 2, 3, 4, 5, 6})).ok());
    ASSERT_TRUE(store.AppendRows("f", Tensor(Shape({1, 3}), {7, 8, 9})).ok());
    ASSERT_EQ(store.NumRows("f"), 3);
  }
  const fs::path shard = FindShard(dir_);
  ASSERT_FALSE(shard.empty());
  const int64_t bare_size =
      static_cast<int64_t>(fs::file_size(shard)) - kShardFooterBytes;
  fs::resize_file(shard, static_cast<uintmax_t>(bare_size));
  {
    std::fstream f(shard, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const int64_t row_bytes = 3 * static_cast<int64_t>(sizeof(float));
    f.seekp(bare_size - row_bytes);
    const std::vector<char> zeros(static_cast<size_t>(row_bytes), 0);
    f.write(zeros.data(), row_bytes);
    ASSERT_TRUE(f.good());
  }

  TensorStore reopened(dir_.string(), &stats);
  EXPECT_EQ(reopened.NumRows("f"), 0);
  EXPECT_EQ(reopened.Get("f").status().code(), StatusCode::kIoError);
  EXPECT_EQ(reopened.GetRows("f", 0, 3).status().code(), StatusCode::kIoError);
  const ScrubReport report = reopened.Scrub();
  EXPECT_EQ(report.quarantined, 1);
  EXPECT_EQ(reopened.NumRows("f"), 0);
}

// ---------------------------------------------------------------------------
// Scrub
// ---------------------------------------------------------------------------

TEST_F(IntegrityTest, ScrubQuarantinesCorruptShardsAndSweepsTmp) {
  IoStats stats;
  TensorStore store(dir_.string(), &stats);
  Rng rng(5);
  ASSERT_TRUE(store.Put("good", Tensor::Randn(Shape({16, 8}), &rng, 1.0f))
                  .ok());
  ASSERT_TRUE(store.Put("bad", Tensor::Randn(Shape({16, 8}), &rng, 1.0f))
                  .ok());
  const fs::path bad = FindShard(dir_, "bad");
  ASSERT_FALSE(bad.empty());
  FlipByte(bad, static_cast<int64_t>(fs::file_size(bad)) / 2);
  // Stale temp debris from a crashed writer.
  { std::ofstream(dir_ / "stale.tns.tmp") << "junk"; }

  ScrubReport report = store.Scrub();
  EXPECT_EQ(report.checked, 2);
  EXPECT_EQ(report.ok, 1);
  EXPECT_EQ(report.quarantined, 1);
  ASSERT_EQ(report.quarantined_keys.size(), 1u);
  EXPECT_EQ(report.quarantined_keys[0], "bad");

  // The quarantined key reads as absent; the good one still verifies.
  EXPECT_FALSE(store.Contains("bad"));
  EXPECT_EQ(store.Get("bad").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.NumRows("bad"), 0);
  EXPECT_TRUE(store.Get("good").ok());
  EXPECT_FALSE(fs::exists(dir_ / "stale.tns.tmp"));
  // Evidence file kept beside the store.
  bool found_quarantined = false;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".quarantined") found_quarantined = true;
  }
  EXPECT_TRUE(found_quarantined);
  // A second scrub is clean.
  report = store.Scrub();
  EXPECT_EQ(report.checked, 1);
  EXPECT_EQ(report.quarantined, 0);
}

// ---------------------------------------------------------------------------
// Checkpoint store
// ---------------------------------------------------------------------------

graph::ModelGraph CheckpointModel(const zoo::BertLikeModel& source,
                                  const std::string& prefix, uint64_t seed) {
  return zoo::BuildBertFeatureTransferModel(
      source, zoo::BertFeature::kLastHidden, 3, prefix, seed);
}

std::vector<nn::Parameter*> TrainableParams(const graph::ModelGraph& model) {
  std::vector<nn::Parameter*> params;
  for (const graph::GraphNode& node : model.nodes()) {
    if (node.frozen) continue;
    for (nn::Parameter* p : node.layer->Params()) params.push_back(p);
  }
  return params;
}

TEST_F(IntegrityTest, CheckpointSaveIsAtomicTempPlusRename) {
  IoStats stats;
  CheckpointStore store(dir_.string(), &stats);
  zoo::BertLikeModel source(zoo::BertConfig::TinyScale(), 11);
  graph::ModelGraph model = CheckpointModel(source, "ck", 100);
  model.Validate();
  ASSERT_TRUE(store.SaveModel(model, "m", /*include_frozen=*/false).ok());
  const int64_t good_size = store.SizeBytes("m");
  ASSERT_GT(good_size, 0);
  // A save that dies before its rename must leave the previous checkpoint
  // untouched under the live name (only a .tmp differs).
  FaultInjector::Global().Arm(FaultInjector::Kind::kTruncate, 1);
  ASSERT_TRUE(store.SaveModel(model, "m2", /*include_frozen=*/false).ok());
  EXPECT_EQ(store.SizeBytes("m"), good_size);
  ASSERT_TRUE(store.LoadModel(model, "m").ok());
}

TEST_F(IntegrityTest, CorruptCheckpointNeverPartiallyApplies) {
  IoStats stats;
  CheckpointStore store(dir_.string(), &stats);
  zoo::BertLikeModel source(zoo::BertConfig::TinyScale(), 12);
  graph::ModelGraph model = CheckpointModel(source, "cp", 200);
  model.Validate();
  ASSERT_TRUE(store.SaveModel(model, "m", /*include_frozen=*/false).ok());

  // Corrupt one byte in the middle of the checkpoint.
  fs::path ckpt;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".ckpt") ckpt = entry.path();
  }
  ASSERT_FALSE(ckpt.empty());
  FlipByte(ckpt, static_cast<int64_t>(fs::file_size(ckpt)) / 2);

  // Poison every trainable parameter with a sentinel, then attempt the load:
  // it must fail AND leave every sentinel in place (no partial overwrite).
  std::vector<nn::Parameter*> params = TrainableParams(model);
  ASSERT_FALSE(params.empty());
  for (nn::Parameter* p : params) {
    for (int64_t i = 0; i < p->value.NumElements(); ++i) {
      p->value.at(i) = 123.0f;
    }
  }
  const Status loaded = store.LoadModel(model, "m");
  EXPECT_EQ(loaded.code(), StatusCode::kIoError);
  for (nn::Parameter* p : params) {
    for (int64_t i = 0; i < p->value.NumElements(); ++i) {
      ASSERT_EQ(p->value.at(i), 123.0f) << "param " << p->name
                                        << " partially applied";
    }
  }
}

TEST_F(IntegrityTest, TruncatedCheckpointRejected) {
  IoStats stats;
  CheckpointStore store(dir_.string(), &stats);
  zoo::BertLikeModel source(zoo::BertConfig::TinyScale(), 13);
  graph::ModelGraph model = CheckpointModel(source, "tc", 300);
  model.Validate();
  ASSERT_TRUE(store.SaveModel(model, "m", /*include_frozen=*/false).ok());
  FaultInjector::Global().Arm(FaultInjector::Kind::kTruncate, 1);
  ASSERT_TRUE(store.SaveModel(model, "m", /*include_frozen=*/false).ok());
  const Status loaded = store.LoadModel(model, "m");
  EXPECT_EQ(loaded.code(), StatusCode::kIoError);
  EXPECT_NE(loaded.message().find("footer"), std::string::npos)
      << loaded.message();
}

// A checkpoint cut by exactly its footer must be rejected for the missing
// footer, never parsed unverified, and must leave the model untouched.
TEST_F(IntegrityTest, FooterlessCheckpointIsRejected) {
  IoStats stats;
  CheckpointStore store(dir_.string(), &stats);
  zoo::BertLikeModel source(zoo::BertConfig::TinyScale(), 14);
  graph::ModelGraph model = CheckpointModel(source, "fc", 400);
  model.Validate();
  ASSERT_TRUE(store.SaveModel(model, "m", /*include_frozen=*/false).ok());
  fs::path ckpt;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".ckpt") ckpt = entry.path();
  }
  ASSERT_FALSE(ckpt.empty());
  fs::resize_file(ckpt, fs::file_size(ckpt) - kShardFooterBytes);

  std::vector<nn::Parameter*> params = TrainableParams(model);
  ASSERT_FALSE(params.empty());
  for (nn::Parameter* p : params) {
    for (int64_t i = 0; i < p->value.NumElements(); ++i) {
      p->value.at(i) = 123.0f;
    }
  }
  const Status loaded = store.LoadModel(model, "m");
  EXPECT_EQ(loaded.code(), StatusCode::kIoError);
  EXPECT_NE(loaded.message().find("footer"), std::string::npos)
      << loaded.message();
  for (nn::Parameter* p : params) {
    for (int64_t i = 0; i < p->value.NumElements(); ++i) {
      ASSERT_EQ(p->value.at(i), 123.0f) << "param " << p->name
                                        << " partially applied";
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end recompute fallback
// ---------------------------------------------------------------------------

core::SystemConfig RecoveryConfig() {
  core::SystemConfig config;
  config.expected_max_records = 400;
  config.disk_budget_bytes = 1ull << 30;
  config.memory_budget_bytes = 2ull << 30;
  config.workspace_bytes = 1 << 20;
  config.flops_per_second = 2e8;
  config.disk_bytes_per_second = 1ull << 30;
  config.per_model_setup_seconds = 0.01;
  return config;
}

core::Workload RecoveryWorkload(const zoo::BertLikeModel& source) {
  core::Workload workload;
  core::Hyperparams hp;
  hp.batch_size = 10;
  hp.learning_rate = 1e-3;
  hp.epochs = 2;
  workload.emplace_back(zoo::BuildBertFeatureTransferModel(
                            source, zoo::BertFeature::kLastHidden, 3,
                            "rc_m0", 600),
                        hp);
  hp.learning_rate = 5e-4;
  workload.emplace_back(zoo::BuildBertFeatureTransferModel(
                            source, zoo::BertFeature::kSumLast4, 3,
                            "rc_m1", 601),
                        hp);
  return workload;
}

// A materialized feed corrupted between cycles is detected, recomputed from
// the frozen prefix, and the run converges to results bitwise-identical to
// an uncorrupted run.
TEST_F(IntegrityTest, CorruptFeedRecomputedTransparently) {
  const fs::path dir_clean = dir_ / "clean";
  const fs::path dir_hurt = dir_ / "hurt";
  core::ModelSelectionOptions options;
  options.seed = 99;
  options.materialization = core::MaterializationMode::kAll;
  const core::SystemConfig config = RecoveryConfig();

  zoo::BertLikeModel pool_source(zoo::BertConfig::TinyScale(), 31);
  data::LabeledDataset pool = data::GenerateTextPool(pool_source, 120, 3, 41);
  data::LabelingSimulator sim_clean(pool, 60, 0.75);
  data::LabelingSimulator sim_hurt(pool, 60, 0.75);

  zoo::BertLikeModel source_a(zoo::BertConfig::TinyScale(), 7);
  core::ModelSelection clean(RecoveryWorkload(source_a), config,
                             dir_clean.string(), options);
  auto batch = sim_clean.NextCycle();
  clean.Fit(batch.train, batch.valid);
  batch = sim_clean.NextCycle();
  const core::FitResult clean_final = clean.Fit(batch.train, batch.valid);

  zoo::BertLikeModel source_b(zoo::BertConfig::TinyScale(), 7);
  core::ModelSelection hurt(RecoveryWorkload(source_b), config,
                            dir_hurt.string(), options);
  batch = sim_hurt.NextCycle();
  hurt.Fit(batch.train, batch.valid);
  // Flip a payload bit in one materialized train feed between cycles.
  const fs::path victim = FindShard(dir_hurt / "features", ".train");
  ASSERT_FALSE(victim.empty());
  FlipByte(victim, static_cast<int64_t>(fs::file_size(victim)) / 2);
  const int64_t fallbacks_before =
      obs::MetricsRegistry::Global()
          .counter("materializer.recompute_fallbacks")
          .value();
  batch = sim_hurt.NextCycle();
  const core::FitResult hurt_final = hurt.Fit(batch.train, batch.valid);
  EXPECT_GT(obs::MetricsRegistry::Global()
                .counter("materializer.recompute_fallbacks")
                .value(),
            fallbacks_before);

  // Bitwise-identical model selection despite the mid-run corruption.
  EXPECT_EQ(hurt_final.best_model, clean_final.best_model);
  EXPECT_EQ(hurt_final.best_accuracy, clean_final.best_accuracy);
  ASSERT_EQ(hurt_final.evals.size(), clean_final.evals.size());
  for (size_t i = 0; i < clean_final.evals.size(); ++i) {
    EXPECT_EQ(hurt_final.evals[i].val_loss, clean_final.evals[i].val_loss);
    EXPECT_EQ(hurt_final.evals[i].val_accuracy,
              clean_final.evals[i].val_accuracy);
  }
}

// Startup scrub of a corrupted store: ModelSelection quarantines the shard
// at construction and reconciliation rebuilds it, so a resumed session
// matches the uninterrupted one.
TEST_F(IntegrityTest, ResumeAfterCorruptionScrubsAndRecovers) {
  const fs::path dir_clean = dir_ / "clean";
  const fs::path dir_crash = dir_ / "crash";
  core::ModelSelectionOptions options;
  options.seed = 55;
  options.materialization = core::MaterializationMode::kAll;
  const core::SystemConfig config = RecoveryConfig();

  zoo::BertLikeModel pool_source(zoo::BertConfig::TinyScale(), 31);
  data::LabeledDataset pool = data::GenerateTextPool(pool_source, 120, 3, 43);
  data::LabelingSimulator sim_clean(pool, 60, 0.75);
  data::LabelingSimulator sim_crash(pool, 60, 0.75);

  // Uninterrupted reference run, two cycles.
  zoo::BertLikeModel source_a(zoo::BertConfig::TinyScale(), 9);
  core::ModelSelection clean(RecoveryWorkload(source_a), config,
                             dir_clean.string(), options);
  auto batch = sim_clean.NextCycle();
  clean.Fit(batch.train, batch.valid);
  batch = sim_clean.NextCycle();
  const core::FitResult clean_final = clean.Fit(batch.train, batch.valid);

  // "Crashed" run: one cycle, session saved, then a feed shard is torn as a
  // crashed append would leave it.
  {
    zoo::BertLikeModel source_b(zoo::BertConfig::TinyScale(), 9);
    core::ModelSelection before(RecoveryWorkload(source_b), config,
                                dir_crash.string(), options);
    batch = sim_crash.NextCycle();
    before.Fit(batch.train, batch.valid);
    ASSERT_TRUE(before.SaveSession().ok());
  }
  const fs::path victim = FindShard(dir_crash / "features", ".train");
  ASSERT_FALSE(victim.empty());
  fs::resize_file(victim, fs::file_size(victim) - 17);

  // Resume: the constructor's scrub quarantines the torn shard and the
  // reconcile pass rebuilds it before training.
  options.resume = true;
  zoo::BertLikeModel source_c(zoo::BertConfig::TinyScale(), 9);
  core::ModelSelection resumed(RecoveryWorkload(source_c), config,
                               dir_crash.string(), options);
  batch = sim_crash.NextCycle();
  const core::FitResult resumed_final = resumed.Fit(batch.train, batch.valid);

  EXPECT_EQ(resumed_final.best_model, clean_final.best_model);
  EXPECT_EQ(resumed_final.best_accuracy, clean_final.best_accuracy);
}

}  // namespace
}  // namespace storage
}  // namespace nautilus
