// Cluster-tree retrieval index tests (serve/index/cluster_tree.h): the
// exactness knob (beam <= 0 and beam = "infinity" are bitwise identical
// to the linear scan), determinism across thread counts and hot-reload
// generations, recall@10 at the default beam on a planted hierarchy,
// the index built at store open checked against a reference
// construction, rejection of inconsistent chains, the wire protocol's
// optional per-request beam field (including the pre-beam 8-byte body
// old clients send), and the shared TopKByScore tie-break contract both
// paths rest on.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "data/planted.h"
#include "nn/tape.h"
#include "predict/recommender.h"
#include "serve/client.h"
#include "serve/embedding_store.h"
#include "serve/engine.h"
#include "serve/index/cluster_tree.h"
#include "serve/serve_metrics.h"
#include "serve/server.h"
#include "serve/store_manager.h"
#include "serve/wire.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace hignn {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// One planted world shared by every test: cluster structure and score
// landscape are planted (data/planted.h), so beam descent has a
// hierarchy it can actually route.
class PlantedIndexFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PlantedWorldConfig config;
    config.num_users = 200;
    config.num_items = 4000;
    config.level_dim = 8;
    config.cvr_train_samples = 12000;
    config.cvr_epochs = 2;
    config.seed = 7;
    world_ = BuildPlantedWorld(config).ValueOrDie().release();

    store_path_ = TempPath("planted_index.hgnnstore");
    EXPECT_TRUE(ExportEmbeddingStore(world_->model, world_->dataset,
                                     world_->spec, world_->cvr, store_path_)
                    .ok());
  }

  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  static PlantedWorld* world_;
  static std::string store_path_;
};

PlantedWorld* PlantedIndexFixture::world_ = nullptr;
std::string PlantedIndexFixture::store_path_;

// ------------------------------------------------------ tie-breaking --

// Satellite regression: TopKByScore must be an explicit total order
// (score desc, NaN last, ties by ascending id) for ANY candidate
// permutation — the property that makes the beamed and exact paths
// agree byte for byte on ties.
TEST(TopKByScoreOrder, TiesBreakByAscendingIdForAnyInputOrder) {
  const std::vector<int32_t> forward{3, 9, 1, 7, 5};
  const std::vector<float> scores_fwd{0.5f, 0.5f, 0.25f, 0.5f, 0.75f};
  const std::vector<int32_t> backward{5, 7, 1, 9, 3};
  const std::vector<float> scores_bwd{0.75f, 0.5f, 0.25f, 0.5f, 0.5f};

  const std::vector<Recommendation> a = TopKByScore(forward, scores_fwd, 4);
  const std::vector<Recommendation> b = TopKByScore(backward, scores_bwd, 4);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "rank " << i;
  }
  EXPECT_EQ(a[0].item, 5);  // 0.75
  EXPECT_EQ(a[1].item, 3);  // 0.5 tie -> smallest id first
  EXPECT_EQ(a[2].item, 7);
  EXPECT_EQ(a[3].item, 9);
}

TEST(TopKByScoreOrder, NaNsRankLastAndTieByIdDeterministically) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<int32_t> forward{4, 2, 8, 6};
  const std::vector<float> scores_fwd{nan, 0.1f, nan, 0.9f};
  const std::vector<int32_t> backward{6, 8, 2, 4};
  const std::vector<float> scores_bwd{0.9f, nan, 0.1f, nan};

  const std::vector<Recommendation> a = TopKByScore(forward, scores_fwd, 4);
  const std::vector<Recommendation> b = TopKByScore(backward, scores_bwd, 4);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(a[0].item, 6);
  EXPECT_EQ(a[1].item, 2);
  EXPECT_EQ(a[2].item, 4);  // NaN-vs-NaN tie -> ascending id
  EXPECT_EQ(a[3].item, 8);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item) << "rank " << i;
    EXPECT_EQ(std::isnan(a[i].score), std::isnan(b[i].score)) << "rank " << i;
  }
}

// -------------------------------------------------------- exactness --

TEST_F(PlantedIndexFixture, BeamAtInfinityIsBitwiseIdenticalToLinearScan) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  const int32_t num_items = engine->store().num_items();
  for (int32_t user : {0, 17, 63, 121, 199}) {
    const std::vector<Recommendation> exact =
        engine->RecommendTopK(user, 10).ValueOrDie();
    // beam <= 0: the explicit exactness knob.
    const std::vector<Recommendation> knob =
        engine->RecommendTopK(user, 10, -1).ValueOrDie();
    // beam >= every frontier: descent never prunes, all leaves survive.
    const std::vector<Recommendation> infinite =
        engine->RecommendTopK(user, 10, num_items).ValueOrDie();
    ASSERT_EQ(exact.size(), knob.size());
    ASSERT_EQ(exact.size(), infinite.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(exact[i], knob[i]) << "user " << user << " rank " << i;
      EXPECT_EQ(exact[i], infinite[i]) << "user " << user << " rank " << i;
    }
  }
}

TEST_F(PlantedIndexFixture, BeamedSearchPrunesAndReportsStats) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  ClusterTreeIndex::SearchStats stats;
  const std::vector<Recommendation> top =
      engine->RecommendTopK(42, 10, kDefaultTopKBeam, &stats).ValueOrDie();
  EXPECT_EQ(top.size(), 10u);
  EXPECT_GT(stats.nodes_scored, 0);
  EXPECT_GT(stats.leaves_selected, 0);
  EXPECT_EQ(stats.levels_descended, engine->store().index().num_levels());
  // The whole point: far fewer rows through the MLP than a linear scan.
  EXPECT_LT(stats.nodes_scored + stats.leaves_selected,
            engine->store().num_items() / 2);
}

// ------------------------------------------------------ determinism --

TEST_F(PlantedIndexFixture, BeamedTopKIsIdenticalAcrossThreadCounts) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  std::vector<std::vector<Recommendation>> with_one, with_four;
  SetGlobalThreadPoolThreads(1);
  for (int32_t user : {3, 58, 142}) {
    with_one.push_back(
        engine->RecommendTopK(user, 10, kDefaultTopKBeam).ValueOrDie());
  }
  SetGlobalThreadPoolThreads(4);
  for (int32_t user : {3, 58, 142}) {
    with_four.push_back(
        engine->RecommendTopK(user, 10, kDefaultTopKBeam).ValueOrDie());
  }
  SetGlobalThreadPoolThreads(1);
  ASSERT_EQ(with_one.size(), with_four.size());
  for (size_t u = 0; u < with_one.size(); ++u) {
    ASSERT_EQ(with_one[u].size(), with_four[u].size());
    for (size_t i = 0; i < with_one[u].size(); ++i) {
      EXPECT_EQ(with_one[u][i], with_four[u][i])
          << "query " << u << " rank " << i;
    }
  }
}

TEST_F(PlantedIndexFixture, BeamedTopKIsIdenticalAcrossHotReloads) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  const std::vector<Recommendation> before =
      stores->Current()
          ->engine->RecommendTopK(77, 10, kDefaultTopKBeam)
          .ValueOrDie();
  ASSERT_TRUE(stores->Reload().ok());
  // A second fresh export of the same world: its index is built anew at
  // open and must route identically.
  const std::string again_path = TempPath("planted_index_again.hgnnstore");
  ASSERT_TRUE(ExportEmbeddingStore(world_->model, world_->dataset,
                                   world_->spec, world_->cvr, again_path)
                  .ok());
  ASSERT_TRUE(stores->Reload(again_path).ok());
  const std::vector<Recommendation> after =
      stores->Current()
          ->engine->RecommendTopK(77, 10, kDefaultTopKBeam)
          .ValueOrDie();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "rank " << i;
  }
}

// ------------------------------------------------ tape-free forward --

// The tape forward on a copy of the store's network: the reference the
// engine's tape-free forward, with its once-per-query user prefix, must
// match bit for bit.
std::vector<float> TapeScores(const CvrModel& model, const Matrix& rows) {
  Mlp mlp = model.mlp();
  Tape tape;
  const VarId probs = tape.Sigmoid(
      mlp.Forward(tape, tape.Input(rows), /*train=*/false));
  const Matrix& values = tape.value(probs);
  return std::vector<float>(values.data(), values.data() + values.size());
}

::testing::AssertionResult SameRanking(
    const std::vector<Recommendation>& a,
    const std::vector<Recommendation>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "rank " << i << ": item " << a[i].item << " score "
             << a[i].score << " vs item " << b[i].item << " score "
             << b[i].score;
    }
  }
  return ::testing::AssertionSuccess();
}

void ExpectSameStats(const ClusterTreeIndex::SearchStats& a,
                     const ClusterTreeIndex::SearchStats& b) {
  EXPECT_EQ(a.nodes_scored, b.nodes_scored);
  EXPECT_EQ(a.leaves_selected, b.leaves_selected);
  EXPECT_EQ(a.levels_descended, b.levels_descended);
}

TEST_F(PlantedIndexFixture, TopKScoresMatchTapeForwardReferenceBitwise) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  const EmbeddingStore& store = engine->store();
  // The planted store has a user z^H block, so the engine really binds a
  // non-empty prefix on both top-k paths.
  ASSERT_GT(store.user_block_cols(), 0);
  const CvrModel& model = store.model();
  const int32_t num_items = store.num_items();
  for (const int32_t user : {5, 88, 190}) {
    Matrix rows(static_cast<size_t>(num_items),
                static_cast<size_t>(store.feature_dim()));
    std::vector<int32_t> items;
    for (int32_t item = 0; item < num_items; ++item) {
      ASSERT_TRUE(store.FillFeatureRow(user, item, rows.row(item)).ok());
      items.push_back(item);
    }
    const std::vector<float> reference = TapeScores(model, rows);
    EXPECT_TRUE(SameRanking(TopKByScore(items, reference, 10),
                            engine->RecommendTopK(user, 10, -1).ValueOrDie()))
        << "exact, user " << user;

    // The same descent with the tape scoring the centroid rows, then the
    // tape's leaf scores.
    const ClusterTreeIndex::RowScorer tape_scorer =
        [&model](const Matrix& r) -> Result<std::vector<float>> {
      return TapeScores(model, r);
    };
    ClusterTreeIndex::SearchStats reference_stats;
    const std::vector<int32_t> leaves =
        store.index()
            .SelectLeaves(store.UserBlock(user), store.UserTail(user),
                          kDefaultTopKBeam, tape_scorer, &reference_stats)
            .ValueOrDie();
    std::vector<float> leaf_scores;
    for (const int32_t leaf : leaves) leaf_scores.push_back(reference[leaf]);
    ClusterTreeIndex::SearchStats stats;
    EXPECT_TRUE(SameRanking(
        TopKByScore(leaves, leaf_scores, 10),
        engine->RecommendTopK(user, 10, kDefaultTopKBeam, &stats)
            .ValueOrDie()))
        << "beamed, user " << user;
    ExpectSameStats(reference_stats, stats);
  }
}

// The engine holds no lock around its forward: concurrent top-k and score
// requests on one engine, over a shared 4-thread pool, must return the
// serial answers bit for bit. Also built into the tsan binary, where this
// is the race check for the lock-free forward.
TEST_F(PlantedIndexFixture, ConcurrentRequestsMatchSerialAnswersBitwise) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  const int32_t num_users = engine->store().num_users();
  const int32_t num_items = engine->store().num_items();
  const std::vector<int32_t> users = {2, 31, 77, 140, 199};
  std::vector<ScoreRequest> pairs;
  for (int32_t i = 0; i < 64; ++i) {
    pairs.push_back(ScoreRequest{(i * 37) % num_users, (i * 101) % num_items});
  }
  struct Answers {
    std::vector<std::vector<Recommendation>> beamed;
    std::vector<std::vector<Recommendation>> exact;
    std::vector<ClusterTreeIndex::SearchStats> stats;
    std::vector<float> scores;
  };
  const auto answer = [&]() {
    Answers out;
    for (const int32_t user : users) {
      ClusterTreeIndex::SearchStats stats;
      out.beamed.push_back(
          engine->RecommendTopK(user, 10, kDefaultTopKBeam, &stats)
              .ValueOrDie());
      out.stats.push_back(stats);
      out.exact.push_back(engine->RecommendTopK(user, 10).ValueOrDie());
    }
    out.scores = engine->ScoreBatch(pairs).ValueOrDie();
    return out;
  };

  SetGlobalThreadPoolThreads(4);
  const Answers serial = answer();
  constexpr int kThreads = 4;
  std::vector<Answers> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&answer, &concurrent, t] {
      concurrent[static_cast<size_t>(t)] = answer();
    });
  }
  for (std::thread& thread : threads) thread.join();
  SetGlobalThreadPoolThreads(1);

  for (const Answers& got : concurrent) {
    for (size_t u = 0; u < users.size(); ++u) {
      EXPECT_TRUE(SameRanking(serial.beamed[u], got.beamed[u]))
          << "beamed, user " << users[u];
      EXPECT_TRUE(SameRanking(serial.exact[u], got.exact[u]))
          << "exact, user " << users[u];
      ExpectSameStats(serial.stats[u], got.stats[u]);
    }
    ASSERT_EQ(serial.scores.size(), got.scores.size());
    EXPECT_EQ(0, std::memcmp(serial.scores.data(), got.scores.data(),
                             serial.scores.size() * sizeof(float)));
  }
}

// ----------------------------------------------------------- recall --

TEST_F(PlantedIndexFixture, DefaultBeamHoldsRecallAt10Above95Percent) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  int64_t hits = 0;
  int64_t wanted = 0;
  for (int32_t user = 0; user < engine->store().num_users(); user += 4) {
    const std::vector<Recommendation> exact =
        engine->RecommendTopK(user, 10).ValueOrDie();
    const std::vector<Recommendation> beamed =
        engine->RecommendTopK(user, 10, kDefaultTopKBeam).ValueOrDie();
    std::set<int32_t> found;
    for (const Recommendation& rec : beamed) found.insert(rec.item);
    for (const Recommendation& rec : exact) {
      ++wanted;
      hits += found.count(rec.item) ? 1 : 0;
    }
  }
  ASSERT_GT(wanted, 0);
  const double recall =
      static_cast<double>(hits) / static_cast<double>(wanted);
  EXPECT_GE(recall, 0.95) << hits << "/" << wanted;
}

// ------------------------------------------------- index construction --

// Reference construction, written independently of Build: per level,
// one pass over the items in ascending order adds each item's block and
// tail into its cluster's double row, then every row is scaled by
// 1 / member count and rounded to float once.
TEST_F(PlantedIndexFixture, IndexMatchesReferenceCentroidsAndChainCsr) {
  auto store = std::move(EmbeddingStore::Open(store_path_).ValueOrDie());
  const ClusterTreeIndex& index = store->index();
  ASSERT_EQ(index.num_levels(), store->chain_levels());
  ASSERT_GE(index.num_levels(), 2);
  const int32_t n = store->num_items();
  const size_t block = static_cast<size_t>(index.geometry().item_block_cols);
  const size_t tail = static_cast<size_t>(index.geometry().item_tail_dim);
  ASSERT_GT(block, 0u);
  int32_t prev_clusters = 0;
  for (int32_t l = 1; l <= index.num_levels(); ++l) {
    const ClusterTreeLevel& level = index.level(l);
    const size_t clusters = static_cast<size_t>(level.num_clusters);
    std::vector<double> block_sum(clusters * block, 0.0);
    std::vector<double> tail_sum(clusters * tail, 0.0);
    std::vector<int64_t> count(clusters, 0);
    int32_t max_id = -1;
    for (int32_t item = 0; item < n; ++item) {
      const int32_t c = store->RightClusterAt(item, l);
      ASSERT_GE(c, 0);
      ASSERT_LT(static_cast<size_t>(c), clusters);
      max_id = std::max(max_id, c);
      ++count[static_cast<size_t>(c)];
      for (size_t j = 0; j < block; ++j) {
        block_sum[static_cast<size_t>(c) * block + j] +=
            static_cast<double>(store->ItemBlock(item)[j]);
      }
      for (size_t j = 0; j < tail; ++j) {
        tail_sum[static_cast<size_t>(c) * tail + j] +=
            static_cast<double>(store->ItemTail(item)[j]);
      }
    }
    EXPECT_EQ(max_id + 1, level.num_clusters) << "level " << l;
    std::vector<float> want_block(clusters * block);
    std::vector<float> want_tail(clusters * tail);
    for (size_t c = 0; c < clusters; ++c) {
      const double inv =
          count[c] > 0 ? 1.0 / static_cast<double>(count[c]) : 0.0;
      for (size_t j = 0; j < block; ++j) {
        want_block[c * block + j] =
            static_cast<float>(block_sum[c * block + j] * inv);
      }
      for (size_t j = 0; j < tail; ++j) {
        want_tail[c * tail + j] =
            static_cast<float>(tail_sum[c * tail + j] * inv);
      }
    }
    ASSERT_EQ(level.centroid_block.size(), want_block.size());
    ASSERT_EQ(level.centroid_tail.size(), want_tail.size());
    EXPECT_EQ(0, std::memcmp(level.centroid_block.data(), want_block.data(),
                             want_block.size() * sizeof(float)))
        << "level " << l << " centroid block";
    EXPECT_EQ(0, std::memcmp(level.centroid_tail.data(), want_tail.data(),
                             want_tail.size() * sizeof(float)))
        << "level " << l << " centroid tail";

    // Child CSR: offsets monotone from 0, children ascending within a
    // cluster, each child exactly once, and each child's chain (level
    // 1) or parent (higher levels) pointing back at its cluster.
    ASSERT_EQ(level.child_offsets.size(), clusters + 1);
    EXPECT_EQ(level.child_offsets.front(), 0);
    EXPECT_EQ(static_cast<size_t>(level.child_offsets.back()),
              level.child_ids.size());
    std::vector<int32_t> parent_of(static_cast<size_t>(prev_clusters), -1);
    if (l > 1) {
      for (int32_t item = 0; item < n; ++item) {
        parent_of[static_cast<size_t>(store->RightClusterAt(item, l - 1))] =
            store->RightClusterAt(item, l);
      }
    }
    const int32_t child_domain = l == 1 ? n : prev_clusters;
    std::vector<int32_t> seen(static_cast<size_t>(child_domain), 0);
    for (size_t c = 0; c < clusters; ++c) {
      const int32_t begin = level.child_offsets[c];
      const int32_t end = level.child_offsets[c + 1];
      ASSERT_LE(begin, end) << "level " << l << " cluster " << c;
      for (int32_t p = begin; p < end; ++p) {
        const int32_t child = level.child_ids[static_cast<size_t>(p)];
        ASSERT_GE(child, 0);
        ASSERT_LT(child, child_domain);
        if (p > begin) {
          EXPECT_LT(level.child_ids[static_cast<size_t>(p) - 1], child)
              << "level " << l << " cluster " << c;
        }
        ++seen[static_cast<size_t>(child)];
        const int32_t up = l == 1 ? store->RightClusterAt(child, 1)
                                  : parent_of[static_cast<size_t>(child)];
        EXPECT_EQ(up, static_cast<int32_t>(c))
            << "level " << l << " child " << child;
      }
    }
    for (int32_t child = 0; child < child_domain; ++child) {
      // Items all appear once; a lower cluster appears once unless it is
      // empty (no parent).
      const int32_t want =
          l == 1 || parent_of[static_cast<size_t>(child)] >= 0 ? 1 : 0;
      EXPECT_EQ(seen[static_cast<size_t>(child)], want)
          << "level " << l << " child " << child;
    }
    prev_clusters = level.num_clusters;
  }
}

// Build is the only structural check on the item hierarchy at store
// open: each malformed source must fail with InvalidArgument.
class BuildValidationTest : public ::testing::Test {
 protected:
  // Four items, two levels, one-column item block, no tails:
  // level 1 = {0, 1} {2, 3}, level 2 = everything in cluster 0.
  BuildValidationTest() {
    chain_ = {0, 0, 1, 1,  // level 1
              0, 0, 0, 0};  // level 2
    source_.num_items = 4;
    source_.chain_levels = 2;
    source_.item_block = block_.data();
    source_.right_chain = chain_.data();
    source_.geometry.level_dim = 1;
    source_.geometry.item_block_cols = 1;
    source_.geometry.feature_dim = 1;
  }

  std::vector<float> block_ = {0.5f, 1.5f, 2.5f, 3.5f};
  std::vector<int32_t> chain_;
  ClusterTreeIndex::Source source_;
};

TEST_F(BuildValidationTest, WellFormedSourceBuilds) {
  const ClusterTreeIndex index =
      ClusterTreeIndex::Build(source_).ValueOrDie();
  ASSERT_EQ(index.num_levels(), 2);
  EXPECT_EQ(index.level(1).centroid_block, (std::vector<float>{1.0f, 3.0f}));
  EXPECT_EQ(index.level(2).child_ids, (std::vector<int32_t>{0, 1}));
}

TEST_F(BuildValidationTest, NegativeClusterIdIsInvalidArgument) {
  chain_[2] = -1;
  const Result<ClusterTreeIndex> index = ClusterTreeIndex::Build(source_);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument)
      << index.status().ToString();
}

TEST_F(BuildValidationTest, LowerClusterWithTwoParentsIsInvalidArgument) {
  chain_[4 + 1] = 1;  // item 1 leaves its level-1 sibling's parent
  const Result<ClusterTreeIndex> index = ClusterTreeIndex::Build(source_);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument)
      << index.status().ToString();
}

TEST_F(BuildValidationTest, MissingItemBlockIsInvalidArgument) {
  source_.item_block = nullptr;
  const Result<ClusterTreeIndex> index = ClusterTreeIndex::Build(source_);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument)
      << index.status().ToString();
}

// ------------------------------------------------------------- wire --

TEST_F(PlantedIndexFixture, WireBeamOverrideSelectsExactOrBeamedPath) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, ServerConfig())
                    .ValueOrDie());
  auto client = std::move(
      ScoringClient::Connect("127.0.0.1", server->port()).ValueOrDie());

  const std::shared_ptr<const StoreGeneration> generation = stores->Current();
  for (int32_t user : {11, 87}) {
    const std::vector<Recommendation> exact =
        generation->engine->RecommendTopK(user, 5).ValueOrDie();
    const std::vector<Recommendation> beamed =
        generation->engine->RecommendTopK(user, 5, kDefaultTopKBeam)
            .ValueOrDie();

    // beam 0 -> server default (kDefaultTopKBeam), beam -1 -> exact,
    // explicit beam -> that beam.
    const std::vector<Recommendation> wire_default =
        client.TopK(user, 5).ValueOrDie();
    const std::vector<Recommendation> wire_exact =
        client.TopK(user, 5, -1).ValueOrDie();
    const std::vector<Recommendation> wire_beamed =
        client.TopK(user, 5, kDefaultTopKBeam).ValueOrDie();

    ASSERT_EQ(wire_default.size(), beamed.size());
    ASSERT_EQ(wire_exact.size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(wire_default[i], beamed[i]) << "user " << user << " rank " << i;
      EXPECT_EQ(wire_beamed[i], beamed[i]) << "user " << user << " rank " << i;
      EXPECT_EQ(wire_exact[i], exact[i]) << "user " << user << " rank " << i;
    }
  }

  // serve.index.* metrics observed the traffic: four beamed searches,
  // two exact ones.
  EXPECT_EQ(metrics.index_searches_total(), 6);
  EXPECT_EQ(metrics.index_exact_total(), 2);
  EXPECT_GT(metrics.index_nodes_scored_total(), 0);
  EXPECT_GT(metrics.index_leaves_scored_total(), 0);
  EXPECT_EQ(metrics.index_beam(), kDefaultTopKBeam);
  const std::string json = client.Stats().ValueOrDie();
  EXPECT_NE(json.find("\"index\": {\"searches\": 6, \"exact\": 2"),
            std::string::npos)
      << json;
  server->Stop();
}

TEST_F(PlantedIndexFixture, PreBeamEightByteTopKBodyStillParses) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, ServerConfig())
                    .ValueOrDie());

  // Hand-rolled legacy client: verb + user + k, no beam field — exactly
  // the body a pre-index binary emits. Must be served with the
  // configured default beam.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);

  WireWriter request;
  request.PutU8(static_cast<uint8_t>(WireVerb::kTopK));
  request.PutI32(33);
  request.PutI32(5);
  ASSERT_EQ(request.bytes().size(), 9u);  // the old fixed-size body
  ASSERT_TRUE(SendFrame(fd, request.bytes()).ok());
  const std::vector<char> body = RecvFrame(fd).ValueOrDie();
  ::close(fd);

  WireReader reader(body);
  ASSERT_EQ(reader.TakeU8().ValueOrDie(),
            static_cast<uint8_t>(WireStatus::kOk));
  const uint32_t count = reader.TakeU32().ValueOrDie();
  const std::vector<Recommendation> expected =
      stores->Current()
          ->engine->RecommendTopK(33, 5, kDefaultTopKBeam)
          .ValueOrDie();
  ASSERT_EQ(count, expected.size());
  for (uint32_t i = 0; i < count; ++i) {
    Recommendation rec;
    rec.item = reader.TakeI32().ValueOrDie();
    rec.score = reader.TakeF32().ValueOrDie();
    EXPECT_EQ(rec, expected[i]) << "rank " << i;
  }
  server->Stop();
}

}  // namespace
}  // namespace hignn
