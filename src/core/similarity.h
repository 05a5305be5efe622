#ifndef MMDB_CORE_SIMILARITY_H_
#define MMDB_CORE_SIMILARITY_H_

#include <vector>

#include "core/cancel.h"
#include "core/collection.h"
#include "core/histogram.h"
#include "core/query.h"  // SimilarityMatch lives with the query model.
#include "core/rules.h"
#include "util/result.h"

namespace mmdb {

/// Similarity (nearest-neighbor) search over an augmented database — the
/// extension the paper lists as future work (Section 6).
///
/// Binary images are ranked by exact L1 histogram distance. For edited
/// images the searcher reads the per-bin fraction intervals from the
/// stored interval row (the Table 1 rules folded once per image at
/// insert), then derives a provable interval [distance_lo, distance_hi]
/// on the L1 distance. The k-NN result is the
/// candidate set that provably contains the true k nearest images:
/// every image whose optimistic distance does not exceed the k-th best
/// guaranteed distance.
class SimilaritySearcher {
 public:
  /// Referents must outlive the searcher.
  SimilaritySearcher(const AugmentedCollection* collection,
                     const RuleEngine* engine);

  /// Per-bin fraction intervals for an edited image of the searcher's
  /// collection, read from its stored interval row (InvalidArgument when
  /// it has none).
  Result<std::pair<std::vector<double>, std::vector<double>>> AllBinBounds(
      const EditedImageInfo& info) const;

  /// Interval on the L1 distance between `query` (normalized fractions)
  /// and an edited image with per-bin fraction bounds [lo, hi].
  static SimilarityMatch DistanceInterval(
      ObjectId id, const std::vector<double>& query_fractions,
      const std::vector<double>& lo, const std::vector<double>& hi);

  /// k-NN candidate search (see class comment). Results are sorted by
  /// optimistic distance; `stats` counts the images examined
  /// (`edited_images_bounded` = row comparisons; no rules are applied).
  /// `context` (when limited) is honored cooperatively at per-image
  /// boundaries, same contract as the range-query processors.
  Result<std::vector<SimilarityMatch>> Knn(
      const ColorHistogram& query, size_t k, QueryStats* stats = nullptr,
      const QueryContext& context = {}) const;

  /// Answer of a similarity range query ("everything within L1 distance
  /// `radius` of the query"). `certain` images provably qualify
  /// (distance upper bound <= radius); `candidates` may qualify (lower
  /// bound <= radius < upper bound) and would need instantiation to
  /// settle. Together they contain every true match — the same
  /// no-false-negative contract as the color range queries.
  struct RangeAnswer {
    std::vector<SimilarityMatch> certain;
    std::vector<SimilarityMatch> candidates;
  };

  /// Runs a similarity range query without instantiating anything.
  Result<RangeAnswer> WithinDistance(const ColorHistogram& query,
                                     double radius,
                                     QueryStats* stats = nullptr) const;

 private:
  /// InvalidArgument unless `query` has the quantizer's bin count (the
  /// rows' arity).
  Status CheckArity(const ColorHistogram& query) const;

  /// Distance interval of an edited image, from its stored row.
  SimilarityMatch EditedDistance(
      const EditedImageInfo& edited,
      const std::vector<double>& query_fractions, QueryStats* stats) const;

  const AugmentedCollection* collection_;
  const RuleEngine* engine_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_SIMILARITY_H_
