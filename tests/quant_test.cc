// Quantized compute & storage tests: f16/int8 round-trip error bounds, the
// packed int8 GEMM's bitwise-determinism contract (across thread counts AND
// dispatch paths — stronger than f32), fused epilogue parity, the quantized
// dense layer, quantized shard encoding (size, round-trip, append, f32
// coexistence), and CRC fault injection on the quantized read paths.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nautilus/nn/basic.h"
#include "nautilus/nn/transformer.h"
#include "nautilus/storage/io_stats.h"
#include "nautilus/storage/tensor_store.h"
#include "nautilus/tensor/ops.h"
#include "nautilus/tensor/qgemm.h"
#include "nautilus/tensor/quant.h"
#include "nautilus/util/parallel.h"
#include "nautilus/util/random.h"

namespace nautilus {
namespace {

namespace fs = std::filesystem;

class ScopedDegree {
 public:
  explicit ScopedDegree(int degree) : saved_(ParallelismDegree()) {
    SetParallelismDegree(degree);
  }
  ~ScopedDegree() { SetParallelismDegree(saved_); }

 private:
  int saved_;
};

class ScopedSimd {
 public:
  explicit ScopedSimd(bool enabled) : saved_(ops::GemmSimdEnabled()) {
    ops::SetGemmSimdEnabled(enabled);
  }
  ~ScopedSimd() { ops::SetGemmSimdEnabled(saved_); }

 private:
  bool saved_;
};

std::vector<float> RandVec(int64_t n, uint64_t seed, float scale = 0.5f) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.Normal() * scale;
  return v;
}

// Quantizes a row-major [m,k] activation matrix per row, as
// ops::QuantizedDenseForward does internally.
void QuantizeRows(const std::vector<float>& a, int64_t m, int64_t k,
                  std::vector<int8_t>* q, std::vector<float>* scales) {
  q->resize(static_cast<size_t>(m * k));
  scales->resize(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    (*scales)[static_cast<size_t>(i)] = quant::QuantizeRowAbsMax(
        a.data() + i * k, k, q->data() + i * k);
  }
}

// ---------------------------------------------------------------------------
// f16 conversion
// ---------------------------------------------------------------------------

TEST(F16Test, ExactlyRepresentableValuesRoundTrip) {
  const float exact[] = {0.0f,  -0.0f, 1.0f,   -1.0f,  0.5f,  2.0f,
                         1.5f,  -3.25f, 65504.0f, -65504.0f, 0.125f,
                         1024.0f, 0.0009765625f /* 2^-10 */};
  for (float v : exact) {
    EXPECT_EQ(quant::F16ToF32(quant::F32ToF16(v)), v) << v;
  }
}

TEST(F16Test, RelativeErrorBoundedForNormalRange) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const float v = rng.Normal() * 100.0f;
    const float r = quant::F16ToF32(quant::F32ToF16(v));
    // Round-to-nearest-even: half ULP = 2^-11 relative for f16 normals.
    EXPECT_LE(std::abs(r - v), std::abs(v) * (1.0f / 2048.0f) + 1e-8f) << v;
  }
}

TEST(F16Test, OverflowSaturatesToInfAndTinyFlushesToZero) {
  EXPECT_TRUE(std::isinf(quant::F16ToF32(quant::F32ToF16(1e6f))));
  EXPECT_TRUE(std::isinf(quant::F16ToF32(quant::F32ToF16(-1e6f))));
  EXPECT_LT(quant::F16ToF32(quant::F32ToF16(-1e6f)), 0.0f);
  EXPECT_EQ(quant::F16ToF32(quant::F32ToF16(1e-10f)), 0.0f);
  EXPECT_TRUE(std::isnan(quant::F16ToF32(
      quant::F32ToF16(std::nanf("")))));
}

// ---------------------------------------------------------------------------
// int8 absmax quantization
// ---------------------------------------------------------------------------

TEST(Int8QuantTest, RoundTripErrorBoundedByHalfScale) {
  const std::vector<float> row = RandVec(257, 3, 2.0f);
  std::vector<int8_t> q(row.size());
  const float scale = quant::QuantizeRowAbsMax(row.data(),
                                               static_cast<int64_t>(row.size()),
                                               q.data());
  ASSERT_GT(scale, 0.0f);
  std::vector<float> back(row.size());
  quant::DequantizeRow(q.data(), static_cast<int64_t>(row.size()), scale,
                       back.data());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_LE(std::abs(back[i] - row[i]), scale * 0.5f + 1e-7f) << i;
    EXPECT_GE(q[i], -127);  // -128 is never produced
  }
}

TEST(Int8QuantTest, ZeroRowQuantizesToZeroScale) {
  const std::vector<float> zeros(16, 0.0f);
  std::vector<int8_t> q(zeros.size());
  const float scale = quant::QuantizeRowAbsMax(zeros.data(), 16, q.data());
  EXPECT_EQ(scale, 0.0f);
  for (int8_t v : q) EXPECT_EQ(v, 0);
}

TEST(Int8QuantTest, PerColumnScalesMatchColumnAbsMax) {
  const int64_t rows = 9, cols = 5;
  const std::vector<float> w = RandVec(rows * cols, 11);
  const quant::QuantizedMatrix m = quant::QuantizePerColumn(w.data(), rows,
                                                            cols);
  ASSERT_EQ(m.rows, rows);
  ASSERT_EQ(m.cols, cols);
  for (int64_t j = 0; j < cols; ++j) {
    float absmax = 0.0f;
    for (int64_t i = 0; i < rows; ++i) {
      absmax = std::max(absmax, std::abs(w[static_cast<size_t>(i * cols + j)]));
    }
    EXPECT_NEAR(m.scales[static_cast<size_t>(j)], absmax / 127.0f, 1e-7f);
    for (int64_t i = 0; i < rows; ++i) {
      const float back =
          static_cast<float>(m.q[static_cast<size_t>(i * cols + j)]) *
          m.scales[static_cast<size_t>(j)];
      EXPECT_LE(std::abs(back - w[static_cast<size_t>(i * cols + j)]),
                m.scales[static_cast<size_t>(j)] * 0.5f + 1e-7f);
    }
  }
}

// ---------------------------------------------------------------------------
// packed int8 GEMM
// ---------------------------------------------------------------------------

struct QGemmCase {
  int64_t m, n, k;
};

// Edge-heavy size sweep: micro-tile remainders in every dimension, odd k
// (the packed kernel walks k in int16 pairs), tiny and empty extents.
const QGemmCase kQGemmCases[] = {
    {1, 1, 1},  {6, 16, 2},  {7, 17, 3},   {5, 15, 64}, {12, 32, 63},
    {48, 64, 256}, {50, 70, 100}, {3, 130, 257}, {64, 64, 0},
};

TEST(QGemmTest, BlockedMatchesReferenceBitwise) {
  for (const QGemmCase& c : kQGemmCases) {
    const std::vector<float> af = RandVec(c.m * c.k, 21);
    std::vector<int8_t> a;
    std::vector<float> a_scales;
    QuantizeRows(af, c.m, c.k, &a, &a_scales);
    const std::vector<float> wf = RandVec(c.k * c.n, 22);
    const quant::QuantizedMatrix w =
        quant::QuantizePerColumn(wf.data(), c.k, c.n);

    std::vector<float> got(static_cast<size_t>(c.m * c.n), -99.0f);
    std::vector<float> want(static_cast<size_t>(c.m * c.n), 99.0f);
    ops::QGemmInt8(c.m, c.n, c.k, a.data(), a_scales.data(), w.q.data(),
                   w.scales.data(), got.data());
    ops::QGemmInt8Reference(c.m, c.n, c.k, a.data(), a_scales.data(),
                            w.q.data(), w.scales.data(), want.data());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << "m=" << c.m << " n=" << c.n << " k=" << c.k << " i=" << i;
    }
  }
}

TEST(QGemmTest, BitwiseIdenticalAcrossThreadCountsAndDispatch) {
  const int64_t m = 53, n = 67, k = 129;
  const std::vector<float> af = RandVec(m * k, 31);
  std::vector<int8_t> a;
  std::vector<float> a_scales;
  QuantizeRows(af, m, k, &a, &a_scales);
  const quant::QuantizedMatrix w =
      quant::QuantizePerColumn(RandVec(k * n, 32).data(), k, n);

  std::vector<float> base(static_cast<size_t>(m * n));
  {
    ScopedDegree d(1);
    ScopedSimd simd(false);
    ops::QGemmInt8(m, n, k, a.data(), a_scales.data(), w.q.data(),
                   w.scales.data(), base.data());
  }
  for (int degree : {2, 8}) {
    for (bool simd_on : {false, true}) {
      ScopedDegree d(degree);
      ScopedSimd simd(simd_on);
      std::vector<float> got(static_cast<size_t>(m * n), -1.0f);
      ops::QGemmInt8(m, n, k, a.data(), a_scales.data(), w.q.data(),
                     w.scales.data(), got.data());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], base[i]) << "degree=" << degree
                                   << " simd=" << simd_on << " i=" << i;
      }
    }
  }
}

TEST(QGemmTest, TracksF32GemmWithinQuantizationError) {
  const int64_t m = 24, n = 40, k = 96;
  const std::vector<float> af = RandVec(m * k, 41);
  const std::vector<float> wf = RandVec(k * n, 42);
  std::vector<int8_t> a;
  std::vector<float> a_scales;
  QuantizeRows(af, m, k, &a, &a_scales);
  const quant::QuantizedMatrix w = quant::QuantizePerColumn(wf.data(), k, n);

  std::vector<float> exact(static_cast<size_t>(m * n));
  ops::GemmReference(ops::GemmTranspose::kNN, m, n, k, af.data(), wf.data(),
                     exact.data());
  std::vector<float> approx(static_cast<size_t>(m * n));
  ops::QGemmInt8(m, n, k, a.data(), a_scales.data(), w.q.data(),
                 w.scales.data(), approx.data());

  // Worst-case dot-product error: each operand is off by <= scale/2, so the
  // product error per term is bounded by (|a|+|b|+scale/2) * scale/2; a loose
  // but safe bound is k * (sa/2 * |b|max + sb/2 * |a|max + sa*sb/4).
  for (int64_t i = 0; i < m; ++i) {
    const float sa = a_scales[static_cast<size_t>(i)];
    for (int64_t j = 0; j < n; ++j) {
      const float sb = w.scales[static_cast<size_t>(j)];
      const float bound = static_cast<float>(k) *
                          (sa * 63.5f * sb + sb * 63.5f * sa +
                           sa * sb * 0.25f) + 1e-5f;
      EXPECT_LE(std::abs(approx[static_cast<size_t>(i * n + j)] -
                         exact[static_cast<size_t>(i * n + j)]),
                bound) << i << "," << j;
    }
  }
}

TEST(QGemmTest, FusedEpilogueMatchesReferenceIncludingPreActivation) {
  const int64_t m = 14, n = 33, k = 50;
  const std::vector<float> af = RandVec(m * k, 51);
  std::vector<int8_t> a;
  std::vector<float> a_scales;
  QuantizeRows(af, m, k, &a, &a_scales);
  const quant::QuantizedMatrix w =
      quant::QuantizePerColumn(RandVec(k * n, 52).data(), k, n);
  const std::vector<float> bias = RandVec(n, 53);

  for (ops::EpilogueKind kind :
       {ops::EpilogueKind::kBias, ops::EpilogueKind::kBiasRelu,
        ops::EpilogueKind::kBiasTanh, ops::EpilogueKind::kBiasGelu}) {
    ops::Epilogue ep;
    ep.kind = kind;
    ep.bias = bias.data();
    std::vector<float> pre_got(static_cast<size_t>(m * n), -5.0f);
    std::vector<float> pre_want(static_cast<size_t>(m * n), 5.0f);
    std::vector<float> got(static_cast<size_t>(m * n));
    std::vector<float> want(static_cast<size_t>(m * n));

    ep.pre_activation = pre_got.data();
    ops::QGemmInt8(m, n, k, a.data(), a_scales.data(), w.q.data(),
                   w.scales.data(), got.data(), ep);
    ep.pre_activation = pre_want.data();
    ops::QGemmInt8Reference(m, n, k, a.data(), a_scales.data(), w.q.data(),
                            w.scales.data(), want.data(), ep);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << static_cast<int>(kind) << " i=" << i;
      ASSERT_EQ(pre_got[i], pre_want[i]) << static_cast<int>(kind);
    }
  }
}

// ---------------------------------------------------------------------------
// quantized dense ops / layer
// ---------------------------------------------------------------------------

TEST(QuantizedDenseTest, TracksF32DenseForward) {
  Rng rng(61);
  Tensor x = Tensor::Randn(Shape({8, 32}), &rng, 0.5f);
  Tensor w = Tensor::Randn(Shape({32, 16}), &rng, 0.2f);
  Tensor b = Tensor::Randn(Shape({16}), &rng, 0.1f);
  const quant::QuantizedMatrix qw =
      quant::QuantizePerColumn(w.data(), 32, 16);

  Tensor exact = ops::DenseForward(x, w, b, ops::EpilogueKind::kBiasGelu,
                                   nullptr);
  Tensor approx = ops::QuantizedDenseForward(x, qw, b,
                                             ops::EpilogueKind::kBiasGelu);
  ASSERT_EQ(approx.shape(), exact.shape());
  // GELU is 1-Lipschitz-ish on this range; the pre-activation error is what
  // the quantization bound above controls. Empirically ~1e-2 here; assert a
  // loose digit of headroom.
  EXPECT_LE(Tensor::MaxAbsDiff(approx, exact), 0.15f);
}

TEST(QuantizedDenseTest, RoundTripF16MatchesScalarConversion) {
  Rng rng(62);
  Tensor x = Tensor::Randn(Shape({5, 7}), &rng, 3.0f);
  Tensor r = ops::RoundTripF16(x);
  ASSERT_EQ(r.shape(), x.shape());
  for (int64_t i = 0; i < x.NumElements(); ++i) {
    EXPECT_EQ(r.at(i), quant::F16ToF32(quant::F32ToF16(x.at(i)))) << i;
  }
}

TEST(QuantizedDenseLayerTest, ForwardQuantizedModes) {
  Rng rng(63);
  nn::DenseLayer layer("d", 24, 12, nn::Activation::kGelu, &rng);
  Tensor x = Tensor::Randn(Shape({6, 24}), &rng, 0.7f);
  Tensor f32 = layer.Forward({&x}, nullptr);

  {
    quant::ScopedQuantMode mode(quant::QuantMode::kOff);
    Tensor off = layer.ForwardQuantized({&x});
    EXPECT_EQ(Tensor::MaxAbsDiff(off, f32), 0.0f);
  }
  {
    quant::ScopedQuantMode mode(quant::QuantMode::kInt8);
    Tensor q = layer.ForwardQuantized({&x});
    ASSERT_EQ(q.shape(), f32.shape());
    EXPECT_GT(Tensor::MaxAbsDiff(q, f32), 0.0f);  // actually quantized
    EXPECT_LE(Tensor::MaxAbsDiff(q, f32), 0.15f);
    // Deterministic: the lazily built weight cache returns the same bits.
    Tensor again = layer.ForwardQuantized({&x});
    EXPECT_EQ(Tensor::MaxAbsDiff(again, q), 0.0f);
  }
  {
    quant::ScopedQuantMode mode(quant::QuantMode::kF16);
    Tensor h = layer.ForwardQuantized({&x});
    ASSERT_EQ(h.shape(), f32.shape());
    EXPECT_LE(Tensor::MaxAbsDiff(h, f32), 0.05f);
  }
}

TEST(QuantizedTransformerBlockTest, ForwardQuantizedModes) {
  Rng rng(64);
  nn::TransformerBlockLayer block("t", /*hidden=*/16, /*heads=*/2,
                                  /*ffn_dim=*/32, &rng);
  Tensor x = Tensor::Randn(Shape({2, 4, 16}), &rng, 0.5f);
  Tensor f32 = block.Forward({&x}, nullptr);

  {
    quant::ScopedQuantMode mode(quant::QuantMode::kOff);
    Tensor off = block.ForwardQuantized({&x});
    EXPECT_EQ(Tensor::MaxAbsDiff(off, f32), 0.0f);
  }
  {
    quant::ScopedQuantMode mode(quant::QuantMode::kInt8);
    Tensor q = block.ForwardQuantized({&x});
    ASSERT_EQ(q.shape(), f32.shape());
    EXPECT_GT(Tensor::MaxAbsDiff(q, f32), 0.0f);  // the int8 path engaged
    // Layer norms bound the block output; quantizing six projections still
    // tracks the f32 features closely at these scales.
    EXPECT_LE(Tensor::MaxAbsDiff(q, f32), 0.3f);
    Tensor again = block.ForwardQuantized({&x});
    EXPECT_EQ(Tensor::MaxAbsDiff(again, q), 0.0f);
  }
  {
    quant::ScopedQuantMode mode(quant::QuantMode::kF16);
    Tensor h = block.ForwardQuantized({&x});
    ASSERT_EQ(h.shape(), f32.shape());
    EXPECT_GT(Tensor::MaxAbsDiff(h, f32), 0.0f);
    EXPECT_LE(Tensor::MaxAbsDiff(h, f32), 0.05f);
  }
}

// ---------------------------------------------------------------------------
// Quantized shards
// ---------------------------------------------------------------------------

class QuantShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("nautilus_quant_shard_" + std::string(::testing::UnitTest::
                                                      GetInstance()
                                                          ->current_test_info()
                                                          ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static fs::path FindShard(const fs::path& dir) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".tns") return entry.path();
    }
    return {};
  }

  static void FlipByte(const fs::path& path, int64_t offset) {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    unsigned char byte = 0;
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
    byte ^= 0x04;
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
    std::fclose(f);
  }

  fs::path dir_;
};

TEST_F(QuantShardTest, Int8PutGetRoundTripWithinScale) {
  storage::IoStats stats;
  storage::TensorStore store(dir_.string(), &stats);
  Rng rng(71);
  Tensor t = Tensor::Randn(Shape({10, 33}), &rng, 2.0f);
  ASSERT_TRUE(store.Put("feed", t, storage::ShardDtype::kInt8).ok());
  EXPECT_EQ(store.DtypeOf("feed"), storage::ShardDtype::kInt8);

  auto loaded = store.Get("feed");
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->shape(), t.shape());  // logical f32 shape preserved
  for (int64_t r = 0; r < 10; ++r) {
    float absmax = 0.0f;
    for (int64_t c = 0; c < 33; ++c) {
      absmax = std::max(absmax, std::abs(t.at(r * 33 + c)));
    }
    const float scale = absmax / 127.0f;
    for (int64_t c = 0; c < 33; ++c) {
      EXPECT_LE(std::abs(loaded->at(r * 33 + c) - t.at(r * 33 + c)),
                scale * 0.5f + 1e-7f) << r << "," << c;
    }
  }
}

TEST_F(QuantShardTest, F16PutGetRoundTrip) {
  storage::IoStats stats;
  storage::TensorStore store(dir_.string(), &stats);
  Rng rng(72);
  Tensor t = Tensor::Randn(Shape({4, 9}), &rng, 10.0f);
  ASSERT_TRUE(store.Put("feed", t, storage::ShardDtype::kF16).ok());
  EXPECT_EQ(store.DtypeOf("feed"), storage::ShardDtype::kF16);
  auto loaded = store.Get("feed");
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->shape(), t.shape());
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    EXPECT_EQ(loaded->at(i), quant::F16ToF32(quant::F32ToF16(t.at(i)))) << i;
  }
}

TEST_F(QuantShardTest, QuantizedShardsShrinkOnDisk) {
  storage::IoStats stats;
  storage::TensorStore store(dir_.string(), &stats);
  Rng rng(73);
  Tensor t = Tensor::Randn(Shape({64, 256}), &rng, 1.0f);
  ASSERT_TRUE(store.Put("f32", t, storage::ShardDtype::kF32).ok());
  ASSERT_TRUE(store.Put("int8", t, storage::ShardDtype::kInt8).ok());
  ASSERT_TRUE(store.Put("f16", t, storage::ShardDtype::kF16).ok());
  // Acceptance bar: quantized feeds at most half the f32 bytes (headers and
  // footers included). int8 actually lands near 0.26x here.
  EXPECT_LE(store.SizeBytes("int8"), store.SizeBytes("f32") / 2);
  EXPECT_LE(store.SizeBytes("f16"), store.SizeBytes("f32") / 2 + 64);
  EXPECT_LT(store.SizeBytes("int8"), store.SizeBytes("f16"));
}

TEST_F(QuantShardTest, AppendRowsExtendsInt8ShardAndStoredDtypeWins) {
  storage::IoStats stats;
  storage::TensorStore store(dir_.string(), &stats);
  Rng rng(74);
  Tensor a = Tensor::Randn(Shape({3, 8}), &rng, 1.0f);
  Tensor b = Tensor::Randn(Shape({2, 8}), &rng, 1.0f);
  ASSERT_TRUE(store.AppendRows("feed", a, storage::ShardDtype::kInt8).ok());
  // Caller asks for f32 on the second append; the stored dtype must win so
  // a shard never mixes encodings across cycles.
  ASSERT_TRUE(store.AppendRows("feed", b, storage::ShardDtype::kF32).ok());
  EXPECT_EQ(store.DtypeOf("feed"), storage::ShardDtype::kInt8);
  EXPECT_EQ(store.NumRows("feed"), 5);

  auto all = store.Get("feed");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->shape(), Shape({5, 8}));
  // Row-sliced forced-disk read of the appended rows decodes identically.
  auto tail = store.GetRows("feed", 3, 5);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->shape(), Shape({2, 8}));
  for (int64_t i = 0; i < tail->NumElements(); ++i) {
    EXPECT_EQ(tail->at(i), all->at(3 * 8 + i)) << i;
  }
}

TEST_F(QuantShardTest, BitflipInRowScaleFailsEveryReadPath) {
  storage::IoStats stats;
  Rng rng(75);
  Tensor t = Tensor::Randn(Shape({6, 16}), &rng, 1.0f);
  {
    storage::TensorStore store(dir_.string(), &stats);
    ASSERT_TRUE(store.Put("feed", t, storage::ShardDtype::kInt8).ok());
  }
  // rank-2 header: magic(8) + dtype(8) + rank(8) + dims(2*8) = 40 bytes;
  // the first row's f32 absmax scale is bytes [40, 44). Flip a scale bit —
  // the CRC covers scales, so a wrong scale must never decode silently.
  const fs::path shard = FindShard(dir_);
  ASSERT_FALSE(shard.empty());
  FlipByte(shard, 41);

  storage::TensorStore store(dir_.string(), &stats);  // fresh cache
  auto whole = store.Get("feed");
  EXPECT_FALSE(whole.ok());
  auto slice = store.GetRows("feed", 4, 6);  // flip is OUTSIDE these rows
  EXPECT_FALSE(slice.ok());

  storage::ScrubReport report = store.Scrub();
  EXPECT_EQ(report.quarantined, 1);
  EXPECT_FALSE(store.Contains("feed"));
}

TEST_F(QuantShardTest, F32AndInt8ShardsCoexist) {
  storage::IoStats stats;
  storage::TensorStore store(dir_.string(), &stats);
  Rng rng(76);
  Tensor t = Tensor::Randn(Shape({5, 12}), &rng, 1.0f);
  ASSERT_TRUE(store.Put("plain", t).ok());  // default dtype: f32
  ASSERT_TRUE(store.Put("quant", t, storage::ShardDtype::kInt8).ok());
  EXPECT_EQ(store.DtypeOf("plain"), storage::ShardDtype::kF32);
  EXPECT_EQ(store.DtypeOf("quant"), storage::ShardDtype::kInt8);

  auto plain = store.Get("plain");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(Tensor::MaxAbsDiff(*plain, t), 0.0f);  // f32 path stays lossless
  auto quantized = store.Get("quant");
  ASSERT_TRUE(quantized.ok());
  EXPECT_EQ(quantized->shape(), t.shape());

  storage::ScrubReport report = store.Scrub();
  EXPECT_EQ(report.checked, 2);
  EXPECT_EQ(report.ok, 2);
  EXPECT_EQ(report.quarantined, 0);
}

TEST(ShardRowBytesTest, EncodingSizes) {
  EXPECT_EQ(storage::ShardRowBytes(storage::ShardDtype::kF32, 100), 400);
  EXPECT_EQ(storage::ShardRowBytes(storage::ShardDtype::kInt8, 100), 104);
  EXPECT_EQ(storage::ShardRowBytes(storage::ShardDtype::kF16, 100), 200);
}

}  // namespace
}  // namespace nautilus
