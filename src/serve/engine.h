#ifndef HIGNN_SERVE_ENGINE_H_
#define HIGNN_SERVE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "predict/recommender.h"
#include "serve/embedding_store.h"
#include "serve/request_context.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

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
/// the property the serving tests pin down.
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
  PredictionEngine(std::unique_ptr<EmbeddingStore> store, CvrModel model);

  /// \brief Parallel row assembly + chunked forward. Ids must be valid.
  std::vector<float> ScoreValidated(const std::vector<ScoreRequest>& batch,
                                    RequestContext* ctx = nullptr);

  /// \brief Shared exact-scan tail of both RecommendTopK overloads.
  Result<std::vector<Recommendation>> RecommendExact(int32_t user, int32_t k,
                                                     RequestContext* ctx);

  /// \brief Chunked forward over pre-assembled rows (the shared tail of
  /// ScoreValidated and the index's per-level centroid scoring).
  std::vector<float> ForwardRows(const Matrix& rows);

  const std::unique_ptr<EmbeddingStore> store_;
  Mutex model_mu_;  ///< serializes PredictRows calls
  CvrModel model_ HIGNN_GUARDED_BY(model_mu_);  ///< forwards record tape state
};

}  // namespace hignn

#endif  // HIGNN_SERVE_ENGINE_H_
