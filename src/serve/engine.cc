#include "serve/engine.h"

#include <utility>

#include "nn/matrix.h"
#include "obs/request_phases.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hignn {

namespace {

// Below this many rows the ParallelFor dispatch overhead exceeds the
// row-assembly work itself.
constexpr size_t kParallelRowCutoff = 32;

}  // namespace

Result<std::unique_ptr<PredictionEngine>> PredictionEngine::Open(
    const std::string& store_path) {
  HIGNN_ASSIGN_OR_RETURN(std::unique_ptr<EmbeddingStore> store,
                         EmbeddingStore::Open(store_path));
  return std::unique_ptr<PredictionEngine>(
      new PredictionEngine(std::move(store)));
}

PredictionEngine::PredictionEngine(std::unique_ptr<EmbeddingStore> store)
    : store_(std::move(store)) {}

Result<std::vector<float>> PredictionEngine::ScoreBatch(
    const std::vector<ScoreRequest>& batch, RequestContext* ctx) {
  if (batch.empty()) return std::vector<float>{};
  for (const ScoreRequest& request : batch) {
    if (request.user < 0 || request.user >= store_->num_users()) {
      return Status::InvalidArgument(
          StrFormat("user id %d out of range [0, %d)", request.user,
                    store_->num_users()));
    }
    if (request.item < 0 || request.item >= store_->num_items()) {
      return Status::InvalidArgument(
          StrFormat("item id %d out of range [0, %d)", request.item,
                    store_->num_items()));
    }
  }
  // Rows belong to different users, so no leading block is shared.
  return ScoreValidated(batch, ctx, InputPrefix{});
}

std::vector<float> PredictionEngine::ScoreValidated(
    const std::vector<ScoreRequest>& batch, RequestContext* ctx,
    const InputPrefix& prefix) {
  const size_t dim = static_cast<size_t>(store_->feature_dim());
  Matrix rows(batch.size(), dim);
  const auto fill = [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      const Status status =
          store_->FillFeatureRow(batch[r].user, batch[r].item, rows.row(r));
      HIGNN_CHECK(status.ok());  // ids were validated by the caller
    }
  };
  if (batch.size() < kParallelRowCutoff) {
    fill(0, batch.size());
  } else {
    GlobalThreadPool().ParallelFor(0, batch.size(), fill);
  }
  obs::Stamp(ctx, &RequestContext::rows_assembled_us);

  std::vector<float> scores = ForwardRows(rows, prefix);
  obs::Stamp(ctx, &RequestContext::forward_done_us);
  return scores;
}

InputPrefix PredictionEngine::BindUser(int32_t user) const {
  // The user's z^H block leads every FillFeatureRow / FillClusterRow row;
  // a store without one binds an empty prefix (c = 0).
  return store_->model().mlp().BindPrefix(
      store_->UserBlock(user),
      static_cast<size_t>(store_->user_block_cols()));
}

std::vector<float> PredictionEngine::ForwardRows(
    const Matrix& rows, const InputPrefix& prefix) const {
  Result<std::vector<float>> scores = store_->model().PredictRows(rows, prefix);
  // PredictRows only fails on shape mismatch, which the store rules out.
  HIGNN_CHECK(scores.ok());
  return std::move(scores).value();
}

Result<std::vector<Recommendation>> PredictionEngine::RecommendExact(
    int32_t user, int32_t k, RequestContext* ctx) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (user < 0 || user >= store_->num_users()) {
    return Status::InvalidArgument(StrFormat(
        "user id %d out of range [0, %d)", user, store_->num_users()));
  }
  std::vector<ScoreRequest> batch;
  batch.reserve(static_cast<size_t>(store_->num_items()));
  std::vector<int32_t> items;
  items.reserve(batch.capacity());
  for (int32_t item = 0; item < store_->num_items(); ++item) {
    batch.push_back(ScoreRequest{user, item});
    items.push_back(item);
  }
  const std::vector<float> scores = ScoreValidated(batch, ctx, BindUser(user));
  return TopKByScore(items, scores, k);
}

Result<std::vector<Recommendation>> PredictionEngine::RecommendTopK(
    int32_t user, int32_t k) {
  return RecommendExact(user, k, nullptr);
}

Result<std::vector<Recommendation>> PredictionEngine::RecommendTopK(
    int32_t user, int32_t k, int32_t beam,
    ClusterTreeIndex::SearchStats* stats, RequestContext* ctx) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (user < 0 || user >= store_->num_users()) {
    return Status::InvalidArgument(StrFormat(
        "user id %d out of range [0, %d)", user, store_->num_users()));
  }
  const ClusterTreeIndex& index = store_->index();
  if (beam <= 0 || index.num_levels() == 0) {
    // Exactness knob: no beam (or nothing to route on) means the plain
    // linear scan — bitwise identical to the two-argument overload. No
    // descent ran, so index_descent_us stays -1.
    if (stats != nullptr) *stats = ClusterTreeIndex::SearchStats{};
    return RecommendExact(user, k, ctx);
  }
  // One bound prefix serves the centroid rows at every level and the
  // surviving leaves: all of them start with this user's z^H block.
  const InputPrefix prefix = BindUser(user);
  const ClusterTreeIndex::RowScorer scorer =
      [this, &prefix](const Matrix& rows) -> Result<std::vector<float>> {
    return ForwardRows(rows, prefix);
  };
  HIGNN_ASSIGN_OR_RETURN(
      const std::vector<int32_t> leaves,
      index.SelectLeaves(store_->UserBlock(user), store_->UserTail(user),
                         beam, scorer, stats));
  obs::Stamp(ctx, &RequestContext::index_descent_us);
  std::vector<ScoreRequest> batch;
  batch.reserve(leaves.size());
  for (const int32_t item : leaves) {
    batch.push_back(ScoreRequest{user, item});
  }
  const std::vector<float> scores = ScoreValidated(batch, ctx, prefix);
  return TopKByScore(leaves, scores, k);
}

}  // namespace hignn
