#include "predict/recommender.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_set>

#include "util/logging.h"

namespace hignn {

std::vector<Recommendation> TopKByScore(const std::vector<int32_t>& items,
                                        const std::vector<float>& scores,
                                        int32_t k) {
  HIGNN_CHECK_EQ(items.size(), scores.size());
  if (k <= 0) return {};
  std::vector<size_t> order(items.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t top = std::min<size_t>(static_cast<size_t>(k), order.size());
  // Explicit total order: score descending, NaN after every real score,
  // ties (including NaN-vs-NaN, where `<` and `>` are both false) broken
  // by ascending item id. The old `scores[a] != scores[b]` guard treated
  // two NaNs as unequal and then ranked them by `>` — a comparator that
  // was neither irreflexive nor total, so partial_sort's output depended
  // on the candidate order. This form is a strict weak ordering for any
  // float input, which is what the index-vs-exact byte-for-byte
  // agreement on ties rests on.
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(top),
                    order.end(), [&](size_t a, size_t b) {
                      const bool nan_a = std::isnan(scores[a]);
                      const bool nan_b = std::isnan(scores[b]);
                      if (nan_a != nan_b) return nan_b;
                      if (!nan_a) {
                        if (scores[a] > scores[b]) return true;
                        if (scores[a] < scores[b]) return false;
                      }
                      return items[a] < items[b];
                    });
  std::vector<Recommendation> out;
  out.reserve(top);
  for (size_t i = 0; i < top; ++i) {
    out.push_back(Recommendation{items[order[i]], scores[order[i]]});
  }
  return out;
}

TopKRecommender::TopKRecommender(const CvrModel* model,
                                 const CvrFeatureBuilder* features,
                                 int32_t num_items)
    : model_(model), features_(features), num_items_(num_items) {
  HIGNN_CHECK(model_ != nullptr);
  HIGNN_CHECK(features_ != nullptr);
  HIGNN_CHECK_GT(num_items_, 0);
}

Result<std::vector<Recommendation>> TopKRecommender::Recommend(
    int32_t user, int32_t k, const std::vector<int32_t>* exclude) const {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (user < 0) return Status::InvalidArgument("negative user id");

  std::unordered_set<int32_t> excluded;
  if (exclude != nullptr) excluded.insert(exclude->begin(), exclude->end());

  std::vector<LabeledSample> candidates;
  candidates.reserve(static_cast<size_t>(num_items_));
  for (int32_t item = 0; item < num_items_; ++item) {
    if (excluded.count(item)) continue;
    candidates.push_back(LabeledSample{user, item, 0.0f});
  }
  if (candidates.empty()) return std::vector<Recommendation>{};

  HIGNN_ASSIGN_OR_RETURN(std::vector<float> scores,
                         model_->Predict(*features_, candidates));

  std::vector<int32_t> items;
  items.reserve(candidates.size());
  for (const LabeledSample& candidate : candidates) {
    items.push_back(candidate.item);
  }
  return TopKByScore(items, scores, k);
}

Result<TopKMetrics> EvaluateTopK(const TopKRecommender& recommender,
                                 const SampleSet& samples, int32_t k,
                                 int64_t max_users) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");

  // Ground truth: per-user purchased items on the test day.
  std::map<int32_t, std::set<int32_t>> purchases;
  for (const LabeledSample& sample : samples.test) {
    if (sample.label > 0.5f) purchases[sample.user].insert(sample.item);
  }
  if (purchases.empty()) {
    return Status::FailedPrecondition("no test purchases to evaluate");
  }

  TopKMetrics metrics;
  for (const auto& [user, items] : purchases) {
    if (max_users > 0 && metrics.users_evaluated >= max_users) break;
    HIGNN_ASSIGN_OR_RETURN(std::vector<Recommendation> top,
                           recommender.Recommend(user, k));
    int64_t hits = 0;
    double dcg = 0.0;
    double first_hit_rank = 0.0;
    for (size_t rank = 0; rank < top.size(); ++rank) {
      if (!items.count(top[rank].item)) continue;
      ++hits;
      dcg += 1.0 / std::log2(static_cast<double>(rank) + 2.0);
      if (first_hit_rank == 0.0) {
        first_hit_rank = static_cast<double>(rank) + 1.0;
      }
    }
    double ideal = 0.0;
    const size_t ideal_hits = std::min<size_t>(
        top.size(), items.size());
    for (size_t rank = 0; rank < ideal_hits; ++rank) {
      ideal += 1.0 / std::log2(static_cast<double>(rank) + 2.0);
    }
    metrics.hit_rate += hits > 0 ? 1.0 : 0.0;
    metrics.precision += static_cast<double>(hits) / static_cast<double>(k);
    metrics.recall +=
        static_cast<double>(hits) / static_cast<double>(items.size());
    metrics.ndcg += ideal > 0.0 ? dcg / ideal : 0.0;
    metrics.mrr += first_hit_rank > 0.0 ? 1.0 / first_hit_rank : 0.0;
    ++metrics.users_evaluated;
  }
  HIGNN_CHECK_GT(metrics.users_evaluated, 0);
  const double n = static_cast<double>(metrics.users_evaluated);
  metrics.hit_rate /= n;
  metrics.precision /= n;
  metrics.recall /= n;
  metrics.ndcg /= n;
  metrics.mrr /= n;
  return metrics;
}

}  // namespace hignn
