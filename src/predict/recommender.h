#ifndef HIGNN_PREDICT_RECOMMENDER_H_
#define HIGNN_PREDICT_RECOMMENDER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "predict/cvr_model.h"
#include "predict/features.h"
#include "util/status.h"

namespace hignn {

/// \brief One ranked recommendation.
struct Recommendation {
  int32_t item = -1;
  float score = 0.0f;  ///< predicted purchase probability

  friend bool operator==(const Recommendation& a, const Recommendation& b) {
    return a.item == b.item && a.score == b.score;
  }
};

/// \brief Ranks (item, score) pairs and returns the k best, the one
/// ranking implementation shared by the offline TopKRecommender, the
/// online serving engine's recommend-topk verb, and the cluster-tree
/// index's per-level beam selection. Order: score descending, any NaN
/// after every real score, ties (equal scores or NaN-vs-NaN) broken by
/// ascending item id — an explicit total order, so the result is
/// deterministic for any candidate ordering and thread count, and the
/// beamed and exact topk paths agree byte for byte on ties.
std::vector<Recommendation> TopKByScore(const std::vector<int32_t>& items,
                                        const std::vector<float>& scores,
                                        int32_t k);

/// \brief Top-K recommendation serving on a trained CVR model — the
/// "personalized recommendation list" task the paper's introduction
/// motivates. Scores every candidate item for a user in one batched
/// forward pass and returns the K best.
class TopKRecommender {
 public:
  /// \param model, features  a trained CvrModel and the matching feature
  ///   builder; both must outlive the recommender. Predict() is const and
  ///   writes no model state, so concurrent Recommend() calls are safe.
  TopKRecommender(const CvrModel* model, const CvrFeatureBuilder* features,
                  int32_t num_items);

  /// \brief Returns the top-k items for `user`, optionally excluding a
  /// set of items (e.g. already-purchased ones). Scores descending, ties
  /// by ascending item id.
  Result<std::vector<Recommendation>> Recommend(
      int32_t user, int32_t k,
      const std::vector<int32_t>* exclude = nullptr) const;

  /// \brief Recommend() without exclusions — the reusable serving-facing
  /// entry point (the TCP server's recommend-topk verb and the offline
  /// experiment loop both land here).
  Result<std::vector<Recommendation>> TopK(int32_t user, int32_t k) const {
    return Recommend(user, k);
  }

 private:
  const CvrModel* model_;
  const CvrFeatureBuilder* features_;
  int32_t num_items_;
};

/// \brief Offline top-K ranking quality over the test day.
struct TopKMetrics {
  double hit_rate = 0.0;    ///< users with >= 1 purchased item in top-K
  double precision = 0.0;   ///< mean fraction of top-K that was purchased
  double recall = 0.0;      ///< mean fraction of purchases covered
  double ndcg = 0.0;        ///< mean NDCG@K (binary relevance)
  double mrr = 0.0;         ///< mean reciprocal rank of the first hit
  int64_t users_evaluated = 0;
};

/// \brief Evaluates a recommender against the test-day purchases of
/// `samples` (users with no test purchase are skipped). `max_users`
/// caps the evaluation cost (0 = all purchasing users).
Result<TopKMetrics> EvaluateTopK(const TopKRecommender& recommender,
                                 const SampleSet& samples, int32_t k,
                                 int64_t max_users = 0);

}  // namespace hignn

#endif  // HIGNN_PREDICT_RECOMMENDER_H_
