// Online serving subsystem tests: store export/load integrity, bitwise
// offline-vs-online score parity, the full TCP round trip, concurrency
// determinism, and overload behaviour.
//
// The parity tests are the heart: the serving path reassembles feature
// rows from the store's precomputed pieces and runs the exported MLP, so
// a (user, item) score over TCP must equal the offline
// CvrModel::Predict float bit for bit — any batching, any thread count.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/hignn.h"
#include "data/synthetic.h"
#include "obs/event_log.h"
#include "predict/cvr_model.h"
#include "predict/features.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/embedding_store.h"
#include "serve/engine.h"
#include "serve/request_id.h"
#include "serve/serve_metrics.h"
#include "serve/server.h"
#include "serve/store_manager.h"
#include "serve/wire.h"
#include "util/io.h"
#include "util/status.h"

namespace hignn {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// One trained pipeline shared by every test: dataset -> hierarchy ->
// CVR network -> exported store. Mirrors what `hignn export-store` does.
class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticConfig data_config = SyntheticConfig::Tiny();
    data_config.num_users = 300;
    data_config.num_items = 120;
    data_config.num_days = 6;
    data_config.mean_clicks_per_user_day = 3.0;
    dataset_ = new SyntheticDataset(
        SyntheticDataset::Generate(data_config).ValueOrDie());

    HignnConfig hignn_config;
    hignn_config.levels = 2;
    hignn_config.sage.dims = {8, 8};
    hignn_config.sage.fanouts = {5, 3};
    hignn_config.sage.train_steps = 40;
    hignn_config.min_clusters = 2;
    model_ = new HignnModel(
        Hignn::Fit(dataset_->BuildTrainGraph(), dataset_->user_features(),
                   dataset_->item_features(), hignn_config)
            .ValueOrDie());

    spec_ = FeatureSpec::HiGnn(model_->num_levels());
    builder_ = new CvrFeatureBuilder(
        CvrFeatureBuilder::Create(dataset_, model_, spec_).ValueOrDie());
    samples_ = new SampleSet(BuildSamples(*dataset_, true, 99));

    CvrModelConfig cvr_config;
    cvr_config.hidden = {32, 16};
    cvr_config.epochs = 2;
    cvr_config.batch_size = 256;
    cvr_ = new CvrModel(
        CvrModel::Create(builder_->dim(), cvr_config).ValueOrDie());
    EXPECT_TRUE(cvr_->Train(*builder_, samples_->train).ok());

    store_path_ = TempPath("serve_fixture.hgnnstore");
    EXPECT_TRUE(
        ExportEmbeddingStore(*model_, *dataset_, spec_, *cvr_, store_path_)
            .ok());
  }

  static void TearDownTestSuite() {
    delete cvr_;
    delete samples_;
    delete builder_;
    delete model_;
    delete dataset_;
    cvr_ = nullptr;
    samples_ = nullptr;
    builder_ = nullptr;
    model_ = nullptr;
    dataset_ = nullptr;
  }

  /// First `count` test-day samples as serving requests.
  static std::vector<ScoreRequest> TestPairs(size_t count) {
    std::vector<ScoreRequest> pairs;
    for (size_t i = 0; i < count && i < samples_->test.size(); ++i) {
      pairs.push_back(
          {samples_->test[i].user, samples_->test[i].item});
    }
    return pairs;
  }

  /// Offline reference scores for `pairs` through the original builder +
  /// a fresh copy of the trained CVR network.
  static std::vector<float> OfflineScores(
      const std::vector<ScoreRequest>& pairs) {
    std::vector<LabeledSample> samples;
    for (const ScoreRequest& pair : pairs) {
      samples.push_back({pair.user, pair.item, 0.0f});
    }
    CvrModel offline = *cvr_;
    return offline.Predict(*builder_, samples).ValueOrDie();
  }

  static SyntheticDataset* dataset_;
  static HignnModel* model_;
  static CvrFeatureBuilder* builder_;
  static SampleSet* samples_;
  static CvrModel* cvr_;
  static FeatureSpec spec_;
  static std::string store_path_;
};

SyntheticDataset* ServeFixture::dataset_ = nullptr;
HignnModel* ServeFixture::model_ = nullptr;
CvrFeatureBuilder* ServeFixture::builder_ = nullptr;
SampleSet* ServeFixture::samples_ = nullptr;
CvrModel* ServeFixture::cvr_ = nullptr;
FeatureSpec ServeFixture::spec_;
std::string ServeFixture::store_path_;

// ---------------------------------------------------------------- store --

TEST_F(ServeFixture, StoreRoundTripsMetadataAndChains) {
  auto store = std::move(EmbeddingStore::Open(store_path_).ValueOrDie());
  EXPECT_EQ(store->num_users(), 300);
  EXPECT_EQ(store->num_items(), 120);
  EXPECT_EQ(store->level_dim(), model_->level_dim());
  EXPECT_EQ(store->chain_levels(), model_->num_levels());
  EXPECT_EQ(store->feature_dim(), builder_->dim());
  EXPECT_EQ(store->spec().user_levels, spec_.user_levels);
  EXPECT_EQ(store->spec().item_levels, spec_.item_levels);

  for (int32_t level = 1; level <= store->chain_levels(); ++level) {
    for (int32_t user = 0; user < store->num_users(); ++user) {
      ASSERT_EQ(store->LeftClusterAt(user, level),
                model_->LeftClusterAt(user, level))
          << "user " << user << " level " << level;
    }
    for (int32_t item = 0; item < store->num_items(); ++item) {
      ASSERT_EQ(store->RightClusterAt(item, level),
                model_->RightClusterAt(item, level))
          << "item " << item << " level " << level;
    }
  }
}

TEST_F(ServeFixture, StoreEmbeddingBlocksMatchModelBitwise) {
  auto store = std::move(EmbeddingStore::Open(store_path_).ValueOrDie());
  const Matrix user_hier =
      model_->AllHierarchicalLeft(spec_.user_levels);
  const Matrix item_hier =
      model_->AllHierarchicalRight(spec_.item_levels);
  for (int32_t user = 0; user < store->num_users(); ++user) {
    ASSERT_EQ(0, std::memcmp(store->UserBlock(user),
                             user_hier.row(static_cast<size_t>(user)),
                             user_hier.cols() * sizeof(float)))
        << "user " << user;
  }
  for (int32_t item = 0; item < store->num_items(); ++item) {
    ASSERT_EQ(0, std::memcmp(store->ItemBlock(item),
                             item_hier.row(static_cast<size_t>(item)),
                             item_hier.cols() * sizeof(float)))
        << "item " << item;
  }
}

TEST_F(ServeFixture, FillFeatureRowMatchesOfflineBuilderBitwise) {
  auto store = std::move(EmbeddingStore::Open(store_path_).ValueOrDie());
  ASSERT_GE(samples_->test.size(), 64u);
  std::vector<LabeledSample> probe(samples_->test.begin(),
                                   samples_->test.begin() + 64);
  const Matrix offline = builder_->BuildAll(probe);
  ASSERT_EQ(offline.cols(), static_cast<size_t>(store->feature_dim()));
  std::vector<float> row(static_cast<size_t>(store->feature_dim()));
  for (size_t i = 0; i < probe.size(); ++i) {
    ASSERT_TRUE(
        store->FillFeatureRow(probe[i].user, probe[i].item, row.data())
            .ok());
    ASSERT_EQ(0, std::memcmp(row.data(), offline.row(i),
                             row.size() * sizeof(float)))
        << "row " << i << " (user " << probe[i].user << ", item "
        << probe[i].item << ")";
  }
}

TEST_F(ServeFixture, TruncatedStoreIsRejectedBeforeParsing) {
  const std::string bytes = ReadBytes(store_path_);
  ASSERT_GT(bytes.size(), 256u);
  const std::string truncated_path = TempPath("serve_truncated.hgnnstore");
  WriteBytes(truncated_path, bytes.substr(0, bytes.size() - 64));
  auto store = EmbeddingStore::Open(truncated_path);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIOError)
      << store.status().ToString();
}

TEST_F(ServeFixture, BitFlippedStoreIsRejectedBeforeParsing) {
  std::string bytes = ReadBytes(store_path_);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  const std::string corrupt_path = TempPath("serve_corrupt.hgnnstore");
  WriteBytes(corrupt_path, bytes);
  auto store = EmbeddingStore::Open(corrupt_path);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIOError)
      << store.status().ToString();
}

// A minimal store written field by field in the exporter's layout: two
// users, three items, one chain level, d = 2, one-float tails. The meta
// fields are written as given and feature_dim (and the CVR model's input
// width) is made to add up, so only the checks under test can reject it.
struct CraftedStoreMeta {
  uint32_t version = 1;
  int32_t user_levels = 1;
  int32_t item_levels = 1;
  bool use_match = true;
  int32_t match_levels = 1;
  int32_t user_tail_dim = 1;
  int32_t item_tail_dim = 1;
};

std::string WriteCraftedStore(const std::string& name,
                              const CraftedStoreMeta& meta) {
  constexpr int32_t kUsers = 2;
  constexpr int32_t kItems = 3;
  constexpr int32_t kLevelDim = 2;
  constexpr size_t kAlignment = 64;
  const int32_t user_cols = meta.user_levels * kLevelDim;
  const int32_t item_cols = meta.item_levels * kLevelDim;
  const int32_t feature_dim = user_cols + item_cols + meta.match_levels +
                              meta.user_tail_dim + meta.item_tail_dim;
  CvrModelConfig config;
  config.hidden = {4};
  const CvrModel cvr = CvrModel::Create(feature_dim, config).ValueOrDie();

  const std::string path = TempPath(name);
  BinaryWriter writer(path);
  EXPECT_TRUE(writer.ok());
  writer.WriteHeader(kTagEmbeddingStore);
  writer.WriteU32(meta.version);
  writer.WriteI32(kUsers);
  writer.WriteI32(kItems);
  writer.WriteI32(kLevelDim);
  writer.WriteI32(/*chain_levels=*/1);
  writer.WriteI32(meta.user_levels);
  writer.WriteI32(meta.item_levels);
  writer.WriteU32(/*use_profile=*/1);
  writer.WriteU32(/*use_item_stats=*/1);
  writer.WriteU32(meta.use_match ? 1 : 0);
  writer.WriteI32(meta.match_levels);
  writer.WriteI32(user_cols);
  writer.WriteI32(item_cols);
  writer.WriteI32(meta.user_tail_dim);
  writer.WriteI32(meta.item_tail_dim);
  writer.WriteI32(feature_dim);
  writer.NextSection();
  for (const size_t count :
       {static_cast<size_t>(kUsers * std::max(user_cols, 0)),
        static_cast<size_t>(kItems * std::max(item_cols, 0)),
        static_cast<size_t>(kUsers * std::max(meta.user_tail_dim, 0)),
        static_cast<size_t>(kItems * std::max(meta.item_tail_dim, 0))}) {
    const std::vector<float> values(count, 0.25f);
    writer.AlignTo(kAlignment);
    writer.WriteRawFloats(values.data(), values.size());
    writer.NextSection();
  }
  const std::vector<int32_t> left_chain = {0, 0};
  const std::vector<int32_t> right_chain = {0, 0, 1};
  writer.AlignTo(kAlignment);
  writer.WriteRawI32s(left_chain.data(), left_chain.size());
  writer.AlignTo(kAlignment);
  writer.WriteRawI32s(right_chain.data(), right_chain.size());
  writer.NextSection();
  cvr.WriteWeightsPayload(writer);
  EXPECT_TRUE(writer.Close().ok());
  return path;
}

void ExpectCraftedStoreRejected(const std::string& name,
                                const CraftedStoreMeta& meta) {
  auto store = EmbeddingStore::Open(WriteCraftedStore(name, meta));
  ASSERT_FALSE(store.ok()) << name;
  EXPECT_EQ(store.status().code(), StatusCode::kIOError)
      << name << ": " << store.status().ToString();
}

TEST(StoreMetadataTest, ExporterMatchLevelsOpenAndServe) {
  auto store = EmbeddingStore::Open(
      WriteCraftedStore("crafted_ok.hgnnstore", CraftedStoreMeta()));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::vector<float> row(static_cast<size_t>(store.value()->feature_dim()));
  EXPECT_TRUE(store.value()->FillFeatureRow(1, 2, row.data()).ok());
  EXPECT_EQ(store.value()->index().num_levels(), 1);

  CraftedStoreMeta no_match;
  no_match.use_match = false;
  no_match.match_levels = 0;
  EXPECT_TRUE(
      EmbeddingStore::Open(WriteCraftedStore("crafted_nomatch.hgnnstore",
                                             no_match))
          .ok());
}

TEST(StoreMetadataTest, ImpossibleMatchLevelsAreIOErrors) {
  CraftedStoreMeta negative;
  negative.match_levels = -1;
  ExpectCraftedStoreRejected("crafted_match_neg.hgnnstore", negative);

  // More match dots than the one-level user row can feed.
  CraftedStoreMeta too_many;
  too_many.item_levels = 4;
  too_many.match_levels = 4;
  ExpectCraftedStoreRejected("crafted_match_many.hgnnstore", too_many);

  CraftedStoreMeta without_flag;
  without_flag.use_match = false;
  ExpectCraftedStoreRejected("crafted_match_noflag.hgnnstore", without_flag);
}

TEST(StoreMetadataTest, NegativeLevelCountsAndTailWidthsAreIOErrors) {
  CraftedStoreMeta negative_levels;
  negative_levels.user_levels = -1;
  negative_levels.match_levels = -1;  // what min(levels) would give
  ExpectCraftedStoreRejected("crafted_levels_neg.hgnnstore", negative_levels);

  CraftedStoreMeta negative_tail;
  negative_tail.user_tail_dim = -1;
  negative_tail.item_tail_dim = 2;
  ExpectCraftedStoreRejected("crafted_tail_neg.hgnnstore", negative_tail);
}

TEST(StoreMetadataTest, OtherStoreVersionsAskForAReExport) {
  CraftedStoreMeta version_two;
  version_two.version = 2;
  auto store = EmbeddingStore::Open(
      WriteCraftedStore("crafted_v2.hgnnstore", version_two));
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIOError);
  EXPECT_NE(store.status().message().find("hignn export-store"),
            std::string::npos)
      << store.status().ToString();
}

// --------------------------------------------------------------- engine --

TEST_F(ServeFixture, EngineScoresMatchOfflinePredictBitwise) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  const std::vector<ScoreRequest> pairs = TestPairs(200);
  const std::vector<float> expected = OfflineScores(pairs);
  const std::vector<float> actual =
      engine->ScoreBatch(pairs).ValueOrDie();
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "pair " << i;
  }
}

TEST_F(ServeFixture, EngineScoresAreInvariantToBatchComposition) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  const std::vector<ScoreRequest> pairs = TestPairs(48);
  const std::vector<float> together =
      engine->ScoreBatch(pairs).ValueOrDie();
  for (size_t i = 0; i < pairs.size(); ++i) {
    const std::vector<float> alone =
        engine->ScoreBatch({pairs[i]}).ValueOrDie();
    ASSERT_EQ(alone.size(), 1u);
    ASSERT_EQ(alone[0], together[i]) << "pair " << i;
  }
}

TEST_F(ServeFixture, EngineRejectsInvalidIds) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  auto bad_user = engine->ScoreBatch({{engine->store().num_users(), 0}});
  ASSERT_FALSE(bad_user.ok());
  EXPECT_EQ(bad_user.status().code(), StatusCode::kInvalidArgument);
  auto bad_item = engine->ScoreBatch({{0, -1}});
  ASSERT_FALSE(bad_item.ok());
  EXPECT_EQ(bad_item.status().code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------- batcher --

TEST_F(ServeFixture, BatcherStopRejectsNewWorkAfterDraining) {
  auto stores =
      std::move(StoreManager::Open(store_path_, nullptr).ValueOrDie());
  ServeMetrics metrics;
  MicroBatcher batcher(stores.get(), &metrics, BatcherConfig());
  EXPECT_TRUE(batcher.Score(TestPairs(4)).ok());
  batcher.Stop();
  auto after = batcher.Score(TestPairs(1));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeFixture, BatcherShedsRequestsBeyondTheQueueBound) {
  auto stores =
      std::move(StoreManager::Open(store_path_, nullptr).ValueOrDie());
  ServeMetrics metrics;
  BatcherConfig config;
  config.max_queue_rows = 8;
  MicroBatcher batcher(stores.get(), &metrics, config);
  auto shed = batcher.Score(TestPairs(16));  // 16 rows > bound of 8
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(metrics.shed_total(), 1);
  EXPECT_TRUE(batcher.Score(TestPairs(4)).ok());  // still serving
}

// ----------------------------------------------------------- TCP server --

TEST_F(ServeFixture, TcpRoundTripScoresMatchOfflineBitwise) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, ServerConfig())
                    .ValueOrDie());
  auto client =
      std::move(ScoringClient::Connect("127.0.0.1", server->port())
                    .ValueOrDie());

  const std::vector<ScoreRequest> pairs = TestPairs(64);
  const std::vector<float> expected = OfflineScores(pairs);
  const std::vector<float> actual = client.Score(pairs).ValueOrDie();
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "pair " << i;
  }

  EXPECT_TRUE(client.Health().ok());
  auto bad = client.Score({{-1, 0}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  server->Stop();
}

TEST_F(ServeFixture, TcpTopKMatchesEngineRanking) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, ServerConfig())
                    .ValueOrDie());
  auto client =
      std::move(ScoringClient::Connect("127.0.0.1", server->port())
                    .ValueOrDie());

  const std::shared_ptr<const StoreGeneration> generation = stores->Current();
  for (int32_t user : {0, 7, 123}) {
    const std::vector<Recommendation> expected =
        generation->engine->RecommendTopK(user, 5).ValueOrDie();
    const std::vector<Recommendation> actual =
        client.TopK(user, 5).ValueOrDie();
    ASSERT_EQ(actual.size(), expected.size()) << "user " << user;
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]) << "user " << user << " rank " << i;
    }
  }
  server->Stop();
}

TEST_F(ServeFixture, TcpStatsReportsServedTraffic) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, ServerConfig())
                    .ValueOrDie());
  auto client =
      std::move(ScoringClient::Connect("127.0.0.1", server->port())
                    .ValueOrDie());

  EXPECT_TRUE(client.Score(TestPairs(8)).ok());
  EXPECT_TRUE(client.Health().ok());
  const std::string json = client.Stats().ValueOrDie();
  EXPECT_NE(json.find("\"verbs\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"score\": {\"requests\": 1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"latency_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"batch_rows\""), std::string::npos) << json;
  EXPECT_GE(metrics.requests_total(), 2);
  EXPECT_GE(metrics.batches_total(), 1);
  server->Stop();
}

TEST_F(ServeFixture, TcpOverloadShedsWithFastFailure) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  ServerConfig config;
  config.batcher.max_queue_rows = 8;
  auto server =
      std::move(
      ScoringServer::Start(stores.get(), &metrics, config).ValueOrDie());
  auto client =
      std::move(ScoringClient::Connect("127.0.0.1", server->port())
                    .ValueOrDie());

  auto shed = client.Score(TestPairs(16));  // 16 rows > bound of 8
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_GE(metrics.shed_total(), 1);
  EXPECT_TRUE(client.Score(TestPairs(4)).ok());  // recovered immediately
  server->Stop();
}

// ------------------------------------------------- request tracing (§17) --

// Speaks the raw wire protocol so the compat matrix can send frames no
// current client emits (legacy bodies, malformed trailers).
class RawWireClient {
 public:
  explicit RawWireClient(int32_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~RawWireClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// One frame out, one frame back; returns the raw response payload
  /// (status byte included).
  std::vector<char> RoundTrip(const std::vector<char>& frame) {
    EXPECT_TRUE(SendFrame(fd_, frame).ok());
    auto response = RecvFrame(fd_);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? response.value() : std::vector<char>{};
  }

 private:
  int fd_ = -1;
};

TEST(RequestIdTest, StreamIsDeterministicNonZeroAndSeedScoped) {
  RequestIdGenerator a(0xFEED);
  RequestIdGenerator b(0xFEED);
  RequestIdGenerator other(0xBEEF);
  for (uint64_t n = 0; n < 100; ++n) {
    const uint64_t id = a.Next();
    EXPECT_EQ(id, b.Next());                            // same seed, same stream
    EXPECT_EQ(id, RequestIdGenerator::Derive(0xFEED, n));  // pure function
    EXPECT_NE(id, 0u);                                  // 0 is "untraced"
    EXPECT_NE(id, other.Next());                        // seeds partition IDs
  }
}

TEST_F(ServeFixture, TracedScoreEchoesStampsAndLandsInTheEventLog) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  obs::EventLog log(/*capacity=*/64, /*exemplar_capacity=*/8);
  ServerConfig config;
  config.event_log = &log;
  auto server =
      std::move(
      ScoringServer::Start(stores.get(), &metrics, config).ValueOrDie());

  const std::vector<ScoreRequest> pairs = TestPairs(8);
  const std::vector<float> expected = OfflineScores(pairs);

  ClientConfig traced_config;
  traced_config.request_id_seed = 0xFEED;
  auto traced =
      std::move(ScoringClient::Connect("127.0.0.1", server->port(),
                                       traced_config)
                    .ValueOrDie());

  // Tracing must not perturb a single bit of the scores (§11).
  const std::vector<float> actual = traced.Score(pairs).ValueOrDie();
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "pair " << i;
  }

  // The echoed trailer carries the predicted ID and ordered stamps.
  const RequestContext& trace = traced.last_trace();
  EXPECT_EQ(trace.request_id, RequestIdGenerator::Derive(0xFEED, 0));
  EXPECT_GE(trace.accept_us, 0);
  EXPECT_GE(trace.parse_us, trace.accept_us);
  EXPECT_GE(trace.enqueue_us, trace.parse_us);
  EXPECT_GE(trace.batch_close_us, trace.enqueue_us);
  EXPECT_GE(trace.rows_assembled_us, trace.batch_close_us);
  EXPECT_GE(trace.forward_done_us, trace.rows_assembled_us);
  EXPECT_EQ(trace.index_descent_us, -1);  // a score never descends the tree
  EXPECT_EQ(trace.reply_flushed_us, -1);  // unknowable before the flush

  // A beamed topk descends the index instead of closing a batch.
  EXPECT_TRUE(traced.TopK(3, 5).ok());
  const RequestContext& topk_trace = traced.last_trace();
  EXPECT_EQ(topk_trace.request_id, RequestIdGenerator::Derive(0xFEED, 1));
  EXPECT_GE(topk_trace.index_descent_us, topk_trace.parse_us);
  EXPECT_GE(topk_trace.rows_assembled_us, topk_trace.index_descent_us);
  EXPECT_EQ(topk_trace.enqueue_us, -1);
  EXPECT_EQ(topk_trace.batch_close_us, -1);

  server->Stop();  // joins handlers: every event is recorded by now

  EXPECT_EQ(log.recorded(), 2);
  const std::string jsonl = log.DumpJsonl();
  char id_hex[32];
  std::snprintf(id_hex, sizeof(id_hex), "%016llx",
                static_cast<unsigned long long>(trace.request_id));
  EXPECT_NE(jsonl.find(std::string("\"request_id\": \"") + id_hex + "\""),
            std::string::npos)
      << jsonl;
  // The phase histograms saw both requests.
  EXPECT_GE(metrics.registry()
                .GetHistogram("serve.phase.parse_us", {})
                .count(),
            2);
  EXPECT_GE(metrics.registry()
                .GetHistogram("serve.phase.forward_us", {})
                .count(),
            2);
}

TEST_F(ServeFixture, UntracedLegacyFramesStillParseAndLogAsUntraced) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  obs::EventLog log(/*capacity=*/64, /*exemplar_capacity=*/8);
  ServerConfig config;
  config.event_log = &log;
  auto server =
      std::move(
      ScoringServer::Start(stores.get(), &metrics, config).ValueOrDie());

  // The stock client (seed 0) IS the legacy client: no trailer bytes.
  auto legacy =
      std::move(ScoringClient::Connect("127.0.0.1", server->port())
                    .ValueOrDie());
  EXPECT_TRUE(legacy.Score(TestPairs(4)).ok());
  EXPECT_EQ(legacy.last_trace().request_id, 0u);

  // Old-style kTopK with the 8-byte (user, k) body — no beam, no tag.
  RawWireClient raw(server->port());
  WireWriter writer;
  writer.PutU8(static_cast<uint8_t>(WireVerb::kTopK));
  writer.PutI32(3);
  writer.PutI32(5);
  std::vector<char> response = raw.RoundTrip(writer.bytes());
  ASSERT_FALSE(response.empty());
  EXPECT_EQ(static_cast<WireStatus>(response[0]), WireStatus::kOk);

  server->Stop();
  // Both requests recorded as untraced, stamps intact.
  EXPECT_EQ(log.recorded(), 2);
  EXPECT_NE(log.DumpJsonl().find("\"request_id\": \"0000000000000000\""),
            std::string::npos);
}

TEST_F(ServeFixture, TopKTrailingFieldMatrixDisambiguatesByLength) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, ServerConfig())
                    .ValueOrDie());
  RawWireClient raw(server->port());

  const uint64_t id = RequestIdGenerator::Derive(0xFEED, 0);
  constexpr size_t kTrailerBytes = 1 + 8 + 8 * 8;
  struct Case {
    bool beam;
    bool tag;
  };
  for (const Case& c :
       {Case{false, false}, Case{true, false}, Case{false, true},
        Case{true, true}}) {
    SCOPED_TRACE(testing::Message()
                 << "beam=" << c.beam << " tag=" << c.tag);
    WireWriter writer;
    writer.PutU8(static_cast<uint8_t>(WireVerb::kTopK));
    writer.PutI32(3);
    writer.PutI32(5);
    if (c.beam) writer.PutI32(0);  // 0 = server default
    if (c.tag) {
      writer.PutU8(kRequestIdTag);
      writer.PutU64(id);
    }
    std::vector<char> response = raw.RoundTrip(writer.bytes());
    ASSERT_FALSE(response.empty());
    ASSERT_EQ(static_cast<WireStatus>(response[0]), WireStatus::kOk);
    WireReader reader(response);
    ASSERT_TRUE(reader.TakeU8().ok());  // status
    const uint32_t count = reader.TakeU32().ValueOrDie();
    for (uint32_t r = 0; r < count; ++r) {
      ASSERT_TRUE(reader.TakeI32().ok());
      ASSERT_TRUE(reader.TakeF32().ok());
    }
    // The reply trailer appears exactly when the request was tagged.
    EXPECT_EQ(reader.remaining(), c.tag ? kTrailerBytes : 0u);
    if (c.tag) {
      EXPECT_EQ(reader.TakeU8().ValueOrDie(), kRequestIdTag);
      EXPECT_EQ(reader.TakeU64().ValueOrDie(), id);
    }
  }
  server->Stop();
}

// Pins the reply trailer's byte layout independently of the client's
// parser: a consistent reorder of the stamp table on both ends would
// still pass the round-trip tests, but not this one.
TEST_F(ServeFixture, ReplyTrailerByteLayoutIsPinned) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, ServerConfig())
                    .ValueOrDie());
  RawWireClient raw(server->port());

  // Reads the 73-byte trailer off the end of `response` and returns its
  // eight stamp slots in wire order.
  const auto trailer_stamps = [](const std::vector<char>& response,
                                 uint64_t id) {
    constexpr size_t kTrailerBytes = 73;
    std::vector<int64_t> slots;
    EXPECT_GE(response.size(), kTrailerBytes);
    if (response.size() < kTrailerBytes) return slots;
    WireReader reader(response.data() + response.size() - kTrailerBytes,
                      kTrailerBytes);
    EXPECT_EQ(reader.TakeU8().ValueOrDie(), 0x52);
    EXPECT_EQ(reader.TakeU64().ValueOrDie(), id);
    for (int slot = 0; slot < 8; ++slot) {
      slots.push_back(reader.TakeI64().ValueOrDie());
    }
    EXPECT_EQ(reader.remaining(), 0u);
    return slots;
  };

  const uint64_t score_id = RequestIdGenerator::Derive(0xFEED, 0);
  WireWriter score;
  score.PutU8(static_cast<uint8_t>(WireVerb::kScore));
  score.PutU32(2);
  for (const ScoreRequest& pair : TestPairs(2)) {
    score.PutI32(pair.user);
    score.PutI32(pair.item);
  }
  score.PutU8(kRequestIdTag);
  score.PutU64(score_id);
  std::vector<char> response = raw.RoundTrip(score.bytes());
  ASSERT_FALSE(response.empty());
  ASSERT_EQ(static_cast<WireStatus>(response[0]), WireStatus::kOk);
  // status(1) + count(4) + 2 scores(8) + trailer(73).
  EXPECT_EQ(response.size(), 1u + 4u + 8u + 73u);
  std::vector<int64_t> slots = trailer_stamps(response, score_id);
  ASSERT_EQ(slots.size(), 8u);
  for (int slot = 0; slot < 6; ++slot) EXPECT_GE(slots[slot], 0) << slot;
  EXPECT_EQ(slots[6], -1);  // index_descent: a score never descends
  EXPECT_EQ(slots[7], -1);  // reply_flushed: unknowable before the flush

  const uint64_t topk_id = RequestIdGenerator::Derive(0xFEED, 1);
  WireWriter topk;
  topk.PutU8(static_cast<uint8_t>(WireVerb::kTopK));
  topk.PutI32(3);
  topk.PutI32(5);
  topk.PutI32(0);  // server-default beam: the beamed index path
  topk.PutU8(kRequestIdTag);
  topk.PutU64(topk_id);
  response = raw.RoundTrip(topk.bytes());
  ASSERT_FALSE(response.empty());
  ASSERT_EQ(static_cast<WireStatus>(response[0]), WireStatus::kOk);
  // status(1) + count(4) + 5 x (item, score)(40) + trailer(73).
  EXPECT_EQ(response.size(), 1u + 4u + 40u + 73u);
  slots = trailer_stamps(response, topk_id);
  ASSERT_EQ(slots.size(), 8u);
  EXPECT_GE(slots[0], 0);   // accept
  EXPECT_GE(slots[1], 0);   // parse
  EXPECT_EQ(slots[2], -1);  // enqueue: topk bypasses the batcher
  EXPECT_EQ(slots[3], -1);  // batch_close
  EXPECT_GE(slots[4], 0);   // rows_assembled
  EXPECT_GE(slots[5], 0);   // forward_done
  EXPECT_GE(slots[6], 0);   // index_descent
  EXPECT_EQ(slots[7], -1);  // reply_flushed
  server->Stop();
}

TEST_F(ServeFixture, MalformedRequestIdTrailersAreBadRequests) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, ServerConfig())
                    .ValueOrDie());
  RawWireClient raw(server->port());

  // Truncated trailer: 5 stray bytes after the pairs (not 0, not 9).
  WireWriter truncated;
  truncated.PutU8(static_cast<uint8_t>(WireVerb::kScore));
  truncated.PutU32(1);
  truncated.PutI32(3);
  truncated.PutI32(7);
  truncated.PutU8(kRequestIdTag);
  truncated.PutU32(0xDEAD);
  std::vector<char> response = raw.RoundTrip(truncated.bytes());
  ASSERT_FALSE(response.empty());
  EXPECT_EQ(static_cast<WireStatus>(response[0]), WireStatus::kBadRequest);

  // Right length, wrong tag byte.
  WireWriter wrong_tag;
  wrong_tag.PutU8(static_cast<uint8_t>(WireVerb::kScore));
  wrong_tag.PutU32(1);
  wrong_tag.PutI32(3);
  wrong_tag.PutI32(7);
  wrong_tag.PutU8(0x99);
  wrong_tag.PutU64(42);
  response = raw.RoundTrip(wrong_tag.bytes());
  ASSERT_FALSE(response.empty());
  EXPECT_EQ(static_cast<WireStatus>(response[0]), WireStatus::kBadRequest);

  // The connection survives protocol rejections; a clean frame works.
  WireWriter clean;
  clean.PutU8(static_cast<uint8_t>(WireVerb::kHealth));
  response = raw.RoundTrip(clean.bytes());
  ASSERT_FALSE(response.empty());
  EXPECT_EQ(static_cast<WireStatus>(response[0]), WireStatus::kOk);
  server->Stop();
}

TEST_F(ServeFixture, StatsCarriesTheDaemonSectionAndMetricsVerbsServe) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  ServerConfig config;
  config.slow_threshold_us = 1234;
  auto server =
      std::move(
      ScoringServer::Start(stores.get(), &metrics, config).ValueOrDie());

  ClientConfig traced_config;
  traced_config.request_id_seed = 0x5EED;
  auto client =
      std::move(ScoringClient::Connect("127.0.0.1", server->port(),
                                       traced_config)
                    .ValueOrDie());
  EXPECT_TRUE(client.Score(TestPairs(4)).ok());

  const std::string json = client.Stats().ValueOrDie();
  EXPECT_NE(json.find("\"daemon\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"start_generation\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"slow_threshold_us\": 1234"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"uptime_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"events_recorded\""), std::string::npos) << json;

  // Prometheus exposition straight off the shared registry.
  const std::string prom = client.Metrics().ValueOrDie();
  EXPECT_NE(prom.find("# TYPE hignn_serve_requests_score counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("hignn_serve_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE hignn_serve_phase_forward_us histogram"),
            std::string::npos)
      << prom;

  // trace-dump returns the JSONL view of the global event log; this
  // server records into the global log (config.event_log defaulted), so
  // the traced request's ID must appear.
  const std::string jsonl = client.TraceDump().ValueOrDie();
  char id_hex[32];
  std::snprintf(id_hex, sizeof(id_hex), "%016llx",
                static_cast<unsigned long long>(
                    RequestIdGenerator::Derive(0x5EED, 0)));
  EXPECT_NE(jsonl.find(id_hex), std::string::npos) << jsonl;
  server->Stop();
}

// The reply phase starts at forward_done only: verbs that run no forward
// must not file their handler work under serve.phase.reply_us.
TEST_F(ServeFixture, ReplyPhaseCountsOnlyRequestsThatRanAForward) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, ServerConfig())
                    .ValueOrDie());
  auto client =
      std::move(ScoringClient::Connect("127.0.0.1", server->port())
                    .ValueOrDie());
  const obs::Histogram& reply =
      metrics.registry().GetHistogram("serve.phase.reply_us", {});
  const obs::Histogram& parse =
      metrics.registry().GetHistogram("serve.phase.parse_us", {});

  EXPECT_TRUE(client.Health().ok());
  EXPECT_TRUE(client.Stats().ok());
  EXPECT_TRUE(client.Metrics().ok());
  EXPECT_TRUE(client.Reload().ok());
  // Handlers record phases after the flush, so a request's histograms
  // are final once the next reply on the same connection arrives.
  EXPECT_TRUE(client.Health().ok());
  EXPECT_EQ(reply.count(), 0);
  EXPECT_GE(parse.count(), 4);  // the verbs were stamped all the same

  EXPECT_TRUE(client.Score(TestPairs(4)).ok());
  EXPECT_TRUE(client.Health().ok());
  EXPECT_EQ(reply.count(), 1);
  server->Stop();
  EXPECT_EQ(reply.count(), 1);
}

// Scores must be identical whether one handler serializes every request
// or four handlers interleave them — the determinism half of the serving
// contract, checked end to end through real sockets.
TEST_F(ServeFixture, ConcurrentClientsGetIdenticalScoresAtAnyThreadCount) {
  auto stores =
      std::move(StoreManager::Open(store_path_, nullptr).ValueOrDie());
  const std::vector<ScoreRequest> pairs = TestPairs(32);
  const std::vector<float> expected = OfflineScores(pairs);

  for (int32_t num_threads : {1, 4}) {
    ServeMetrics metrics;
    ServerConfig config;
    config.num_threads = num_threads;
    auto server =
        std::move(
      ScoringServer::Start(stores.get(), &metrics, config).ValueOrDie());

    constexpr int kClients = 4;
    constexpr int kRoundsPerClient = 5;
    std::vector<std::vector<float>> results(kClients);
    std::vector<Status> statuses(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto client = ScoringClient::Connect("127.0.0.1", server->port());
        if (!client.ok()) {
          statuses[c] = client.status();
          return;
        }
        for (int round = 0; round < kRoundsPerClient; ++round) {
          auto scores = client.value().Score(pairs);
          if (!scores.ok()) {
            statuses[c] = scores.status();
            return;
          }
          if (round + 1 == kRoundsPerClient) {
            results[c] = std::move(scores).value();
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    server->Stop();

    for (int c = 0; c < kClients; ++c) {
      ASSERT_TRUE(statuses[c].ok())
          << "client " << c << " at " << num_threads << " threads: "
          << statuses[c].ToString();
      ASSERT_EQ(results[c].size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(results[c][i], expected[i])
            << "client " << c << " pair " << i << " at " << num_threads
            << " server threads";
      }
    }
  }
}

}  // namespace
}  // namespace hignn
