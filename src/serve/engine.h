#ifndef HIGNN_SERVE_ENGINE_H_
#define HIGNN_SERVE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "predict/recommender.h"
#include "serve/embedding_store.h"
#include "serve/request_context.h"
#include "util/status.h"

namespace hignn {

/// \brief One scoring request: predict P(purchase | click) for a
/// (user, item) pair.
struct ScoreRequest {
  int32_t user = 0;
  int32_t item = 0;
};

/// \brief In-process scoring engine over an EmbeddingStore: assembles
/// feature rows (thread-pool parallel) and runs the stored CVR MLP.
///
/// Every kernel on this path is per-row independent with a fixed
/// accumulation order, so a pair's score is bitwise identical no matter
/// how requests are batched or how many threads serve them — and
/// identical to the offline CvrModel::Predict on the same pair. That is
/// the property the serving tests pin down. The forward is the const,
/// tape-free CvrModel::PredictRows on the store's own model, so
/// concurrent requests run their forwards in parallel, lock-free. A top-k
/// query binds its user's z^H block once (Mlp::BindPrefix) and every
/// candidate row reuses that first-layer product.
class PredictionEngine {
 public:
  /// \brief Opens `store_path` (integrity-checked) and readies the model.
  static Result<std::unique_ptr<PredictionEngine>> Open(
      const std::string& store_path);

  /// \brief Scores a batch of pairs; result[i] belongs to batch[i].
  /// Invalid ids fail the whole batch with InvalidArgument before any
  /// forward runs (the caller — the micro-batcher — validates per
  /// request, so a mixed batch never reaches the model). `ctx` (optional)
  /// receives the rows-assembled and forward-done stamps.
  Result<std::vector<float>> ScoreBatch(
      const std::vector<ScoreRequest>& batch,
      RequestContext* ctx = nullptr);

  /// \brief Scores every item for `user` and returns the k best via the
  /// same TopKByScore ranking the offline recommender uses (score
  /// descending, ties by ascending item id).
  Result<std::vector<Recommendation>> RecommendTopK(int32_t user, int32_t k);

  /// \brief Top-k through the cluster-tree retrieval index: beam-search
  /// descent over the store's hierarchy selects candidate leaves, and
  /// only those are brute-forced through the CVR head (same ScoreBatch
  /// arithmetic, same TopKByScore order). Exactness knob: `beam` <= 0 —
  /// or an empty index (store without an item hierarchical block) —
  /// falls back to the full linear scan, bitwise identical to the
  /// two-argument overload. Results are deterministic for any fixed
  /// beam regardless of thread count. `stats` (optional) receives the
  /// per-search index telemetry; it is zeroed on the exact path. `ctx`
  /// (optional) receives the index-descent (beamed path only),
  /// rows-assembled and forward-done stamps.
  Result<std::vector<Recommendation>> RecommendTopK(
      int32_t user, int32_t k, int32_t beam,
      ClusterTreeIndex::SearchStats* stats = nullptr,
      RequestContext* ctx = nullptr);

  const EmbeddingStore& store() const { return *store_; }

 private:
  explicit PredictionEngine(std::unique_ptr<EmbeddingStore> store);

  /// \brief Parallel row assembly + forward. Ids must be valid; with a
  /// bound `prefix`, every request must be for the user it was bound to.
  std::vector<float> ScoreValidated(const std::vector<ScoreRequest>& batch,
                                    RequestContext* ctx,
                                    const InputPrefix& prefix);

  /// \brief The first-layer product of `user`'s z^H block, the leading
  /// feature block of every row a top-k query for that user scores.
  InputPrefix BindUser(int32_t user) const;

  /// \brief Shared exact-scan tail of both RecommendTopK overloads.
  Result<std::vector<Recommendation>> RecommendExact(int32_t user, int32_t k,
                                                     RequestContext* ctx);

  /// \brief Forward over pre-assembled rows (the shared tail of
  /// ScoreValidated and the index's per-level centroid scoring).
  std::vector<float> ForwardRows(const Matrix& rows,
                                 const InputPrefix& prefix) const;

  const std::unique_ptr<EmbeddingStore> store_;
};

}  // namespace hignn

#endif  // HIGNN_SERVE_ENGINE_H_
