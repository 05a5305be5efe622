#include "core/similarity.h"

#include <algorithm>
#include <cmath>

#include "core/bounds.h"

namespace mmdb {

namespace {

/// The interval L1 distance between `query_fractions` and per-bin
/// fraction bounds `bounds_of(i)` — one implementation for
/// `DistanceInterval`'s vectors and the stored rows the scans read.
template <typename BoundsOf>
SimilarityMatch IntervalDistance(ObjectId id,
                                 const std::vector<double>& query_fractions,
                                 const BoundsOf& bounds_of) {
  SimilarityMatch match;
  match.id = id;
  for (size_t i = 0; i < query_fractions.size(); ++i) {
    const double q = query_fractions[i];
    const FractionBounds bounds = bounds_of(i);
    const double lo = bounds.min_fraction;
    const double hi = bounds.max_fraction;
    // Per-bin |x - q| is minimized at the interval point closest to q and
    // maximized at the farthest endpoint.
    double bin_lo = 0.0;
    if (q < lo) {
      bin_lo = lo - q;
    } else if (q > hi) {
      bin_lo = q - hi;
    }
    const double bin_hi = std::max(std::fabs(q - lo), std::fabs(q - hi));
    match.distance_lo += bin_lo;
    match.distance_hi += bin_hi;
  }
  // Both histograms are distributions, so the true L1 distance is at most
  // 2 regardless of how loose the per-bin intervals are (the interval
  // model ignores the sum-to-one constraint; this clamp restores it).
  match.distance_hi = std::min(match.distance_hi, 2.0);
  return match;
}

}  // namespace

SimilaritySearcher::SimilaritySearcher(const AugmentedCollection* collection,
                                       const RuleEngine* engine)
    : collection_(collection), engine_(engine) {}

Result<std::pair<std::vector<double>, std::vector<double>>>
SimilaritySearcher::AllBinBounds(const EditedImageInfo& info) const {
  const IntervalRowView row = collection_->RowOf(info);
  const size_t bins = static_cast<size_t>(engine_->quantizer().BinCount());
  std::vector<double> lo(bins, 0.0);
  std::vector<double> hi(bins, 1.0);
  for (size_t bin = 0; bin < bins; ++bin) {
    const FractionBounds bounds = row.Fraction(static_cast<BinIndex>(bin));
    lo[bin] = bounds.min_fraction;
    hi[bin] = bounds.max_fraction;
  }
  return std::make_pair(std::move(lo), std::move(hi));
}

SimilarityMatch SimilaritySearcher::DistanceInterval(
    ObjectId id, const std::vector<double>& query_fractions,
    const std::vector<double>& lo, const std::vector<double>& hi) {
  return IntervalDistance(id, query_fractions, [&](size_t i) {
    return FractionBounds{lo[i], hi[i]};
  });
}

Status SimilaritySearcher::CheckArity(const ColorHistogram& query) const {
  if (query.BinCount() != engine_->quantizer().BinCount()) {
    return Status::InvalidArgument(
        "similarity query histogram has " + std::to_string(query.BinCount()) +
        " bins; the stored rows have " +
        std::to_string(engine_->quantizer().BinCount()));
  }
  return Status::OK();
}

SimilarityMatch SimilaritySearcher::EditedDistance(
    const EditedImageInfo& edited, const std::vector<double>& query_fractions,
    QueryStats* stats) const {
  const IntervalRowView row = collection_->RowOf(edited);
  if (stats != nullptr) ++stats->edited_images_bounded;
  return IntervalDistance(edited.id, query_fractions, [&row](size_t i) {
    return row.Fraction(static_cast<BinIndex>(i));
  });
}

Result<std::vector<SimilarityMatch>> SimilaritySearcher::Knn(
    const ColorHistogram& query, size_t k, QueryStats* stats,
    const QueryContext& context) const {
  CancelCheck check(context);
  MMDB_RETURN_IF_ERROR(CheckArity(query));
  const std::vector<double> query_fractions = query.Normalized();
  std::vector<SimilarityMatch> all;
  all.reserve(collection_->BinaryCount() + collection_->EditedCount());

  for (const BinaryImageInfo* binary : collection_->binary_infos()) {
    MMDB_RETURN_IF_ERROR(check.Check());
    SimilarityMatch match;
    match.id = binary->id;
    match.distance_lo = match.distance_hi =
        L1Distance(query, binary->histogram);
    match.exact = true;
    all.push_back(match);
    if (stats != nullptr) ++stats->binary_images_checked;
  }
  for (const EditedImageInfo* edited : collection_->edited_infos()) {
    MMDB_RETURN_IF_ERROR(check.Check());
    all.push_back(EditedDistance(*edited, query_fractions, stats));
  }

  // The k-th best *guaranteed* (upper-bound) distance caps the candidate
  // set: anything whose optimistic distance exceeds it cannot be in the
  // true top k.
  std::vector<double> guaranteed;
  guaranteed.reserve(all.size());
  for (const SimilarityMatch& match : all) {
    guaranteed.push_back(match.distance_hi);
  }
  std::sort(guaranteed.begin(), guaranteed.end());
  const double cutoff = k == 0 ? -1.0
                        : k <= guaranteed.size()
                            ? guaranteed[k - 1]
                            : std::numeric_limits<double>::infinity();

  std::vector<SimilarityMatch> out;
  for (const SimilarityMatch& match : all) {
    if (match.distance_lo <= cutoff) out.push_back(match);
  }
  std::sort(out.begin(), out.end(),
            [](const SimilarityMatch& a, const SimilarityMatch& b) {
              if (a.distance_lo != b.distance_lo) {
                return a.distance_lo < b.distance_lo;
              }
              return a.id < b.id;
            });
  return out;
}

Result<SimilaritySearcher::RangeAnswer> SimilaritySearcher::WithinDistance(
    const ColorHistogram& query, double radius, QueryStats* stats) const {
  if (radius < 0.0) {
    return Status::InvalidArgument("similarity radius must be >= 0");
  }
  MMDB_RETURN_IF_ERROR(CheckArity(query));
  const std::vector<double> query_fractions = query.Normalized();
  RangeAnswer answer;

  auto classify = [&](const SimilarityMatch& match) {
    if (match.distance_hi <= radius) {
      answer.certain.push_back(match);
    } else if (match.distance_lo <= radius) {
      answer.candidates.push_back(match);
    }
  };

  for (const BinaryImageInfo* binary : collection_->binary_infos()) {
    SimilarityMatch match;
    match.id = binary->id;
    match.distance_lo = match.distance_hi =
        L1Distance(query, binary->histogram);
    match.exact = true;
    classify(match);
    if (stats != nullptr) ++stats->binary_images_checked;
  }
  for (const EditedImageInfo* edited : collection_->edited_infos()) {
    classify(EditedDistance(*edited, query_fractions, stats));
  }
  auto by_distance = [](const SimilarityMatch& a, const SimilarityMatch& b) {
    if (a.distance_lo != b.distance_lo) {
      return a.distance_lo < b.distance_lo;
    }
    return a.id < b.id;
  };
  std::sort(answer.certain.begin(), answer.certain.end(), by_distance);
  std::sort(answer.candidates.begin(), answer.candidates.end(), by_distance);
  return answer;
}

}  // namespace mmdb
