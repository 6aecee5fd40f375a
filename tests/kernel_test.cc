// Kernel-layer contracts (nn/simd.h and its consumers):
//  - every SIMD kernel is bitwise identical to the scalar reference, tails
//    and odd shapes included;
//  - every GEMM variant is bitwise identical across ISA paths and thread
//    counts;
//  - the fused constant-source tape ops (GatherRowsFrom / GroupMeanRowsFrom
//    / GroupWeightedSumRowsFrom) reproduce Input(copy) + op bit for bit,
//    all the way up to a full Fit with fused_level0 on vs off.
// This suite runs twice: once as `kernels.` and once inside the tsan
// binary, where the 1-vs-4-thread cases double as race detectors.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/hignn.h"
#include "data/synthetic.h"
#include "nn/matrix.h"
#include "nn/simd.h"
#include "nn/tape.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hignn {
namespace {

// Restores the dispatch path (and a 1-thread pool) when a test exits, so
// path-forcing tests cannot leak state into later ones.
class PathGuard {
 public:
  PathGuard() : saved_(simd::Active()) {}
  ~PathGuard() {
    simd::ForcePathForTesting(saved_);
    SetGlobalThreadPoolThreads(1);
  }

 private:
  simd::IsaPath saved_;
};

::testing::AssertionResult BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << a.rows() << "x" << a.cols() << " vs " << b.rows()
           << "x" << b.cols();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a.data()[i] << " vs "
             << b.data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.FillNormal(rng);
  return m;
}

std::vector<float> RandomVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
  return v;
}

// Shapes chosen to exercise every tail: full 8-wide vector panels, partial
// column tails (n % 8 != 0), partial row tiles (m % kGemmRowTile != 0),
// degenerate 1xN / Nx1, and empties.
struct GemmShape {
  size_t m, k, n;
};

const GemmShape kGemmShapes[] = {
    {3, 7, 5},    {1, 33, 17}, {17, 1, 9},  {5, 9, 1},   {64, 64, 64},
    {4, 8, 8},    {6, 16, 24}, {12, 100, 130}, {8, 3, 31}, {0, 4, 4},
    {4, 0, 4},    {4, 4, 0},
};

TEST(SimdParityTest, MatMulScalarVsBestBitwiseIdentical) {
  PathGuard guard;
  for (const GemmShape& s : kGemmShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, 11 + s.m);
    const Matrix b = RandomMatrix(s.k, s.n, 23 + s.n);
    simd::ForcePathForTesting(simd::IsaPath::kScalar);
    const Matrix scalar = MatMul(a, b);
    simd::ForcePathForTesting(simd::Best());
    const Matrix best = MatMul(a, b);
    EXPECT_TRUE(BitwiseEqual(scalar, best))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(SimdParityTest, MatMulBTScalarVsBestBitwiseIdentical) {
  PathGuard guard;
  for (const GemmShape& s : kGemmShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, 31 + s.m);
    const Matrix b = RandomMatrix(s.n, s.k, 41 + s.n);
    simd::ForcePathForTesting(simd::IsaPath::kScalar);
    const Matrix scalar = MatMulBT(a, b);
    simd::ForcePathForTesting(simd::Best());
    const Matrix best = MatMulBT(a, b);
    EXPECT_TRUE(BitwiseEqual(scalar, best))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(SimdParityTest, MatMulATScalarVsBestBitwiseIdentical) {
  PathGuard guard;
  for (const GemmShape& s : kGemmShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, 53 + s.m);
    const Matrix b = RandomMatrix(s.m, s.n, 61 + s.n);
    simd::ForcePathForTesting(simd::IsaPath::kScalar);
    const Matrix scalar = MatMulAT(a, b);
    simd::ForcePathForTesting(simd::Best());
    const Matrix best = MatMulAT(a, b);
    EXPECT_TRUE(BitwiseEqual(scalar, best))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(SimdParityTest, AccumulateAndAxpyAllTailLengths) {
  PathGuard guard;
  for (size_t n = 0; n <= 35; ++n) {
    const std::vector<float> src = RandomVector(n, 71 + n);
    const std::vector<float> base = RandomVector(n, 83 + n);

    std::vector<float> scalar_acc = base;
    std::vector<float> best_acc = base;
    simd::ForcePathForTesting(simd::IsaPath::kScalar);
    simd::Accumulate(scalar_acc.data(), src.data(), n);
    simd::ForcePathForTesting(simd::Best());
    simd::Accumulate(best_acc.data(), src.data(), n);
    EXPECT_EQ(scalar_acc, best_acc) << "Accumulate n=" << n;

    std::vector<float> scalar_axpy = base;
    std::vector<float> best_axpy = base;
    simd::ForcePathForTesting(simd::IsaPath::kScalar);
    simd::Axpy(scalar_axpy.data(), 0.37f, src.data(), n);
    simd::ForcePathForTesting(simd::Best());
    simd::Axpy(best_axpy.data(), 0.37f, src.data(), n);
    EXPECT_EQ(scalar_axpy, best_axpy) << "Axpy n=" << n;
  }
}

// GemmBlock's accumulation contract (simd.h): it continues each element's
// ascending-p mul-then-add chain from the value C already holds, so a run
// over [0, s) followed by a run over [s, k) leaves the same bytes as one
// run over [0, k) from zero — for every split s, every row-tile height and
// both the forced-scalar and the active path. Mlp::Infer's shared-prefix
// first layer rests on this identity.
TEST(SimdParityTest, GemmBlockSplitAccumulationIsBitwiseIdentical) {
  PathGuard guard;
  const size_t k = 13;  // odd
  const size_t n = 21;  // n % 8 != 0: vector panels plus a scalar tail
  const std::vector<float> b = RandomVector(k * n, 193);
  for (const simd::IsaPath path : {simd::IsaPath::kScalar, simd::Best()}) {
    simd::ForcePathForTesting(path);
    for (size_t mr = 1; mr <= simd::kGemmRowTile; ++mr) {
      const std::vector<float> a = RandomVector(mr * k, 191 + mr);
      std::vector<float> whole(mr * n, 0.0f);
      simd::GemmBlock(mr, k, n, a.data(), k, b.data(), n, whole.data(), n);
      for (size_t s = 0; s <= k; ++s) {
        std::vector<float> split(mr * n, 0.0f);
        simd::GemmBlock(mr, s, n, a.data(), k, b.data(), n, split.data(), n);
        simd::GemmBlock(mr, k - s, n, a.data() + s, k, b.data() + s * n, n,
                        split.data(), n);
        EXPECT_EQ(0, std::memcmp(whole.data(), split.data(),
                                 whole.size() * sizeof(float)))
            << "path " << simd::PathName() << " mr=" << mr << " s=" << s;
      }
    }
  }
}

TEST(SimdParityTest, DotAndSquaredDistanceAllTailLengths) {
  PathGuard guard;
  for (size_t n = 0; n <= 35; ++n) {
    const std::vector<float> x = RandomVector(n, 101 + n);
    const std::vector<float> y = RandomVector(n, 113 + n);
    simd::ForcePathForTesting(simd::IsaPath::kScalar);
    const double scalar_dot = simd::Dot(x.data(), y.data(), n);
    const double scalar_sq = simd::SquaredDistance(x.data(), y.data(), n);
    simd::ForcePathForTesting(simd::Best());
    const double best_dot = simd::Dot(x.data(), y.data(), n);
    const double best_sq = simd::SquaredDistance(x.data(), y.data(), n);
    EXPECT_EQ(scalar_dot, best_dot) << "Dot n=" << n;
    EXPECT_EQ(scalar_sq, best_sq) << "SquaredDistance n=" << n;
  }
}

TEST(SimdParityTest, DotMatchesLaneStridedReference) {
  // Pins the documented reduction schedule itself, not just scalar/vector
  // agreement: lane l owns indices congruent to l, merged in fixed order.
  PathGuard guard;
  const size_t n = 29;
  const std::vector<float> x = RandomVector(n, 131);
  const std::vector<float> y = RandomVector(n, 137);
  double lane[simd::kReduceLanes] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    lane[i % simd::kReduceLanes] += static_cast<double>(x[i]) * y[i];
  }
  const double expected = ((lane[0] + lane[1]) + lane[2]) + lane[3];
  simd::ForcePathForTesting(simd::Best());
  EXPECT_EQ(expected, simd::Dot(x.data(), y.data(), n));
  simd::ForcePathForTesting(simd::IsaPath::kScalar);
  EXPECT_EQ(expected, simd::Dot(x.data(), y.data(), n));
}

TEST(SimdParityTest, RowReductionsRouteThroughSimd) {
  PathGuard guard;
  const Matrix m = RandomMatrix(2, 21, 149);
  simd::ForcePathForTesting(simd::IsaPath::kScalar);
  const double scalar_dot = RowDot(m, 0, m, 1);
  const double scalar_sq = RowSquaredDistance(m, 0, m, 1);
  simd::ForcePathForTesting(simd::Best());
  EXPECT_EQ(scalar_dot, RowDot(m, 0, m, 1));
  EXPECT_EQ(scalar_sq, RowSquaredDistance(m, 0, m, 1));
}

TEST(ParallelKernelTest, GemmVariantsOneVsFourThreadsOnBestPath) {
  PathGuard guard;
  simd::ForcePathForTesting(simd::Best());
  const Matrix a = RandomMatrix(128, 64, 157);
  const Matrix b = RandomMatrix(64, 48, 163);
  const Matrix c = RandomMatrix(96, 64, 167);
  const Matrix d = RandomMatrix(128, 80, 173);
  SetGlobalThreadPoolThreads(1);
  const Matrix mm1 = MatMul(a, b);
  const Matrix bt1 = MatMulBT(a, c);
  const Matrix at1 = MatMulAT(a, d);
  SetGlobalThreadPoolThreads(4);
  const Matrix mm4 = MatMul(a, b);
  const Matrix bt4 = MatMulBT(a, c);
  const Matrix at4 = MatMulAT(a, d);
  SetGlobalThreadPoolThreads(1);
  EXPECT_TRUE(BitwiseEqual(mm1, mm4));
  EXPECT_TRUE(BitwiseEqual(bt1, bt4));
  EXPECT_TRUE(BitwiseEqual(at1, at4));
}

// --- Fused constant-source tape ops ----------------------------------------

std::vector<std::vector<int32_t>> TestGroups() {
  return {{0, 3, 3, 7}, {}, {5, 1}, {9, 0, 2, 2, 8}};
}

TEST(FusedAggregateTest, GatherRowsFromMatchesInputPlusGather) {
  const Matrix src = RandomMatrix(10, 13, 179);
  const std::vector<int32_t> index = {7, 0, 0, 9, 4};
  Tape unfused;
  VarId in = unfused.Input(src);
  VarId gathered = unfused.GatherRows(in, index);
  Tape fused;
  VarId direct = fused.GatherRowsFrom(src, index);
  EXPECT_TRUE(BitwiseEqual(unfused.value(gathered), fused.value(direct)));
}

TEST(FusedAggregateTest, GroupMeanRowsFromMatchesInputPlusGroupMean) {
  const Matrix src = RandomMatrix(10, 13, 181);
  Tape unfused;
  VarId in = unfused.Input(src);
  VarId mean = unfused.GroupMeanRows(in, TestGroups());
  Tape fused;
  VarId direct = fused.GroupMeanRowsFrom(src, TestGroups());
  EXPECT_TRUE(BitwiseEqual(unfused.value(mean), fused.value(direct)));
}

TEST(FusedAggregateTest, GroupWeightedSumRowsFromMatchesUnfused) {
  const Matrix src = RandomMatrix(10, 13, 191);
  std::vector<std::vector<float>> weights;
  Rng rng(193);
  for (const auto& g : TestGroups()) {
    std::vector<float> w(g.size());
    for (float& x : w) x = static_cast<float>(rng.Uniform(0.0, 1.0));
    weights.push_back(std::move(w));
  }
  Tape unfused;
  VarId in = unfused.Input(src);
  VarId sum = unfused.GroupWeightedSumRows(in, TestGroups(), weights);
  Tape fused;
  VarId direct = fused.GroupWeightedSumRowsFrom(src, TestGroups(), weights);
  EXPECT_TRUE(BitwiseEqual(unfused.value(sum), fused.value(direct)));
}

HignnModel FitWithFusion(bool fused, int threads) {
  SyntheticConfig data_config = SyntheticConfig::Tiny();
  auto dataset = SyntheticDataset::Generate(data_config);
  EXPECT_TRUE(dataset.ok());
  const BipartiteGraph graph = dataset.value().BuildTrainGraph();

  HignnConfig config;
  config.levels = 2;
  config.sage.dims = {8, 8};
  config.sage.fanouts = {5, 3};
  config.sage.train_steps = 8;
  config.sage.batch_size = 64;
  config.sage.fused_level0 = fused;
  config.num_threads = threads;
  auto model = Hignn::Fit(graph, dataset.value().user_features(),
                          dataset.value().item_features(), config);
  SetGlobalThreadPoolThreads(1);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

void ExpectModelsIdentical(const HignnModel& a, const HignnModel& b) {
  ASSERT_EQ(a.num_levels(), b.num_levels());
  for (int32_t l = 0; l < a.num_levels(); ++l) {
    const HignnLevel& la = a.levels()[static_cast<size_t>(l)];
    const HignnLevel& lb = b.levels()[static_cast<size_t>(l)];
    EXPECT_EQ(la.left_assignment, lb.left_assignment) << "level " << l;
    EXPECT_EQ(la.right_assignment, lb.right_assignment) << "level " << l;
    EXPECT_TRUE(BitwiseEqual(la.left_embeddings, lb.left_embeddings))
        << "left embeddings, level " << l;
    EXPECT_TRUE(BitwiseEqual(la.right_embeddings, lb.right_embeddings))
        << "right embeddings, level " << l;
    EXPECT_EQ(la.train_loss, lb.train_loss) << "level " << l;
  }
}

TEST(FusedAggregateTest, FitFusedVsUnfusedBitwiseIdentical) {
  const HignnModel fused = FitWithFusion(true, 1);
  const HignnModel unfused = FitWithFusion(false, 1);
  ExpectModelsIdentical(fused, unfused);
}

TEST(FusedAggregateTest, FitFusedOneVsFourThreadsBitwiseIdentical) {
  const HignnModel one = FitWithFusion(true, 1);
  const HignnModel four = FitWithFusion(true, 4);
  ExpectModelsIdentical(one, four);
}

TEST(FusedAggregateTest, FitScalarVsBestPathBitwiseIdentical) {
  PathGuard guard;
  simd::ForcePathForTesting(simd::IsaPath::kScalar);
  const HignnModel scalar = FitWithFusion(true, 1);
  simd::ForcePathForTesting(simd::Best());
  const HignnModel best = FitWithFusion(true, 1);
  ExpectModelsIdentical(scalar, best);
}

}  // namespace
}  // namespace hignn
