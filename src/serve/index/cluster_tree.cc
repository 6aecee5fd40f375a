#include "serve/index/cluster_tree.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "predict/recommender.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hignn {

namespace {

Status ValidateSource(const ClusterTreeIndex::Source& source) {
  if (source.num_items <= 0) {
    return Status::InvalidArgument("cluster tree needs at least one item");
  }
  if (source.chain_levels <= 0) {
    return Status::InvalidArgument("cluster tree needs at least one level");
  }
  if (source.right_chain == nullptr) {
    return Status::InvalidArgument("cluster tree needs the item chains");
  }
  const IndexFeatureGeometry& g = source.geometry;
  if (g.feature_dim != g.user_block_cols + g.item_block_cols +
                           g.match_levels + g.user_tail_dim +
                           g.item_tail_dim) {
    return Status::InvalidArgument(
        "index feature geometry does not add up to feature_dim");
  }
  if (g.item_block_cols > 0 && source.item_block == nullptr) {
    return Status::InvalidArgument("item block pointer missing");
  }
  if (g.item_tail_dim > 0 && source.item_tail == nullptr) {
    return Status::InvalidArgument("item tail pointer missing");
  }
  return Status::OK();
}

// Per-level cluster count implied by the chains: max id + 1. Negative
// ids are a malformed store, never a tolerable input.
Result<int32_t> ChainClusterCount(const int32_t* chain, int32_t num_items,
                                  int32_t level) {
  int32_t max_id = -1;
  for (int32_t i = 0; i < num_items; ++i) {
    if (chain[i] < 0) {
      return Status::InvalidArgument(StrFormat(
          "negative cluster id %d in level-%d chain", chain[i], level));
    }
    max_id = std::max(max_id, chain[i]);
  }
  return max_id + 1;
}

// Parent (level `level` cluster) of every level `level - 1` cluster,
// derived from the composed chains; -1 for empty lower clusters. Every
// member item of a lower cluster must agree on the parent — the chains
// were composed from per-level assignments, so disagreement means the
// store is corrupt.
Result<std::vector<int32_t>> ParentsFromChains(
    const int32_t* prev_chain, const int32_t* chain, int32_t num_items,
    int32_t prev_clusters, int32_t level) {
  std::vector<int32_t> parent(static_cast<size_t>(prev_clusters), -1);
  for (int32_t i = 0; i < num_items; ++i) {
    const int32_t child = prev_chain[i];
    if (child >= prev_clusters) {
      return Status::InvalidArgument("chain id out of range");
    }
    int32_t& slot = parent[static_cast<size_t>(child)];
    if (slot == -1) {
      slot = chain[i];
    } else if (slot != chain[i]) {
      return Status::InvalidArgument(StrFormat(
          "level-%d chains are not a partition hierarchy (cluster %d has "
          "two parents)",
          level, child));
    }
  }
  return parent;
}

// Stable counting sort of ids [0, count) by key[id] in [0, num_keys);
// ids with a negative key are left out. Returns the CSR offsets
// (num_keys + 1 entries) and fills `ids` so each key's ids ascend.
std::vector<int32_t> GroupByKey(const int32_t* key, int32_t count,
                                int32_t num_keys, std::vector<int32_t>* ids) {
  std::vector<int32_t> offsets(static_cast<size_t>(num_keys) + 1, 0);
  for (int32_t i = 0; i < count; ++i) {
    if (key[i] >= 0) ++offsets[static_cast<size_t>(key[i]) + 1];
  }
  for (size_t k = 1; k < offsets.size(); ++k) offsets[k] += offsets[k - 1];
  ids->assign(static_cast<size_t>(offsets.back()), 0);
  std::vector<int32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (int32_t i = 0; i < count; ++i) {
    if (key[i] >= 0) {
      (*ids)[static_cast<size_t>(cursor[static_cast<size_t>(key[i])]++)] = i;
    }
  }
  return offsets;
}

}  // namespace

Result<ClusterTreeIndex> ClusterTreeIndex::Build(const Source& source) {
  HIGNN_RETURN_IF_ERROR(ValidateSource(source));
  ClusterTreeIndex index;
  index.num_items_ = source.num_items;
  index.geometry_ = source.geometry;
  // Without item hierarchical blocks there is nothing to route on (the
  // HUP-only ablation): the index stays empty and the engine serves
  // every beam through the exact linear scan.
  if (source.geometry.item_block_cols <= 0) return index;

  const int32_t n = source.num_items;
  const size_t block_cols = static_cast<size_t>(source.geometry.item_block_cols);
  const size_t tail_dim = static_cast<size_t>(source.geometry.item_tail_dim);
  std::vector<double> sum(block_cols + tail_dim);

  int32_t prev_clusters = 0;
  for (int32_t l = 1; l <= source.chain_levels; ++l) {
    const int32_t* chain =
        source.right_chain + static_cast<size_t>(l - 1) * static_cast<size_t>(n);
    HIGNN_ASSIGN_OR_RETURN(const int32_t num_clusters,
                           ChainClusterCount(chain, n, l));
    const size_t clusters = static_cast<size_t>(num_clusters);
    ClusterTreeLevel level;
    level.num_clusters = num_clusters;

    // Member CSR: each cluster's items in ascending item order.
    std::vector<int32_t> members;
    std::vector<int32_t> member_offsets =
        GroupByKey(chain, n, num_clusters, &members);

    // Centroids: double-precision sums over the members in ascending
    // item order, rounded to float once — the fixed order makes the
    // tree a pure function of the store bytes.
    level.centroid_block.resize(clusters * block_cols);
    level.centroid_tail.resize(clusters * tail_dim);
    for (size_t c = 0; c < clusters; ++c) {
      std::fill(sum.begin(), sum.end(), 0.0);
      const int32_t begin = member_offsets[c];
      const int32_t end = member_offsets[c + 1];
      for (int32_t p = begin; p < end; ++p) {
        const size_t item =
            static_cast<size_t>(members[static_cast<size_t>(p)]);
        const float* block = source.item_block + item * block_cols;
        for (size_t j = 0; j < block_cols; ++j) {
          sum[j] += static_cast<double>(block[j]);
        }
        if (tail_dim > 0) {
          const float* tail = source.item_tail + item * tail_dim;
          for (size_t j = 0; j < tail_dim; ++j) {
            sum[block_cols + j] += static_cast<double>(tail[j]);
          }
        }
      }
      const double inv =
          end > begin ? 1.0 / static_cast<double>(end - begin) : 0.0;
      for (size_t j = 0; j < block_cols; ++j) {
        level.centroid_block[c * block_cols + j] =
            static_cast<float>(sum[j] * inv);
      }
      for (size_t j = 0; j < tail_dim; ++j) {
        level.centroid_tail[c * tail_dim + j] =
            static_cast<float>(sum[block_cols + j] * inv);
      }
    }

    // Child CSR: level 1 children are the member items; higher levels
    // group the previous level's clusters by parent.
    if (l == 1) {
      level.child_offsets = std::move(member_offsets);
      level.child_ids = std::move(members);
    } else {
      const int32_t* prev_chain =
          source.right_chain +
          static_cast<size_t>(l - 2) * static_cast<size_t>(n);
      HIGNN_ASSIGN_OR_RETURN(
          const std::vector<int32_t> parent,
          ParentsFromChains(prev_chain, chain, n, prev_clusters, l));
      level.child_offsets = GroupByKey(parent.data(), prev_clusters,
                                       num_clusters, &level.child_ids);
    }
    prev_clusters = num_clusters;
    index.levels_.push_back(std::move(level));
  }
  return index;
}

const ClusterTreeLevel& ClusterTreeIndex::level(int32_t level) const {
  HIGNN_CHECK_GE(level, 1);
  HIGNN_CHECK_LE(level, num_levels());
  return levels_[static_cast<size_t>(level - 1)];
}

void ClusterTreeIndex::FillClusterRow(int32_t level, int32_t cluster,
                                      const float* user_block,
                                      const float* user_tail,
                                      float* row) const {
  const ClusterTreeLevel& lev = this->level(level);
  HIGNN_CHECK_GE(cluster, 0);
  HIGNN_CHECK_LT(cluster, lev.num_clusters);
  const IndexFeatureGeometry& g = geometry_;
  std::memset(row, 0, static_cast<size_t>(g.feature_dim) * sizeof(float));
  const float* centroid_block =
      lev.centroid_block.data() +
      static_cast<size_t>(cluster) * static_cast<size_t>(g.item_block_cols);
  const float* centroid_tail =
      lev.centroid_tail.data() +
      static_cast<size_t>(cluster) * static_cast<size_t>(g.item_tail_dim);
  // Same block order and match-dot arithmetic as
  // EmbeddingStore::FillFeatureRow, with the centroid standing in for
  // the item pieces.
  size_t offset = 0;
  if (g.user_block_cols > 0) {
    std::copy(user_block, user_block + g.user_block_cols, row + offset);
    offset += static_cast<size_t>(g.user_block_cols);
  }
  if (g.item_block_cols > 0) {
    std::copy(centroid_block, centroid_block + g.item_block_cols,
              row + offset);
    offset += static_cast<size_t>(g.item_block_cols);
  }
  if (g.match_levels > 0) {
    const size_t d = static_cast<size_t>(g.level_dim);
    for (int32_t l = 0; l < g.match_levels; ++l) {
      double dot = 0.0;
      const float* ul = user_block + static_cast<size_t>(l) * d;
      const float* il = centroid_block + static_cast<size_t>(l) * d;
      for (size_t c = 0; c < d; ++c) dot += static_cast<double>(ul[c]) * il[c];
      row[offset + static_cast<size_t>(l)] = static_cast<float>(dot);
    }
    offset += static_cast<size_t>(g.match_levels);
  }
  if (g.user_tail_dim > 0) {
    std::copy(user_tail, user_tail + g.user_tail_dim, row + offset);
    offset += static_cast<size_t>(g.user_tail_dim);
  }
  if (g.item_tail_dim > 0) {
    std::copy(centroid_tail, centroid_tail + g.item_tail_dim, row + offset);
    offset += static_cast<size_t>(g.item_tail_dim);
  }
  HIGNN_CHECK_EQ(offset, static_cast<size_t>(g.feature_dim));
}

Result<std::vector<int32_t>> ClusterTreeIndex::SelectLeaves(
    const float* user_block, const float* user_tail, int32_t beam,
    const RowScorer& scorer, SearchStats* stats) const {
  if (beam < 1) return Status::InvalidArgument("beam must be >= 1");
  if (levels_.empty()) {
    return Status::FailedPrecondition("index has no levels");
  }
  SearchStats local;
  std::vector<int32_t> frontier(
      static_cast<size_t>(levels_.back().num_clusters));
  std::iota(frontier.begin(), frontier.end(), 0);
  for (int32_t l = num_levels(); l >= 1; --l) {
    const ClusterTreeLevel& lev = levels_[static_cast<size_t>(l - 1)];
    if (static_cast<int32_t>(frontier.size()) > beam) {
      Matrix rows(frontier.size(),
                  static_cast<size_t>(geometry_.feature_dim));
      for (size_t i = 0; i < frontier.size(); ++i) {
        FillClusterRow(l, frontier[i], user_block, user_tail, rows.row(i));
      }
      HIGNN_ASSIGN_OR_RETURN(const std::vector<float> scores, scorer(rows));
      if (scores.size() != frontier.size()) {
        return Status::Internal("row scorer returned a mismatched count");
      }
      local.nodes_scored += static_cast<int64_t>(frontier.size());
      // TopKByScore is the one total order every ranking path shares
      // (score descending, ties ascending id); re-sorting the survivors
      // ascending fixes the traversal order below.
      const std::vector<Recommendation> kept =
          TopKByScore(frontier, scores, beam);
      frontier.clear();
      for (const Recommendation& rec : kept) frontier.push_back(rec.item);
      std::sort(frontier.begin(), frontier.end());
    }
    std::vector<int32_t> next;
    for (const int32_t c : frontier) {
      const int32_t begin = lev.child_offsets[static_cast<size_t>(c)];
      const int32_t end = lev.child_offsets[static_cast<size_t>(c) + 1];
      const int32_t* ids = lev.child_ids.data();
      next.insert(next.end(), ids + begin, ids + end);
    }
    frontier = std::move(next);
    ++local.levels_descended;
  }
  std::sort(frontier.begin(), frontier.end());
  local.leaves_selected = static_cast<int64_t>(frontier.size());
  if (stats != nullptr) *stats = local;
  return frontier;
}

}  // namespace hignn
