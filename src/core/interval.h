#ifndef MMDB_CORE_INTERVAL_H_
#define MMDB_CORE_INTERVAL_H_

#include "core/collection.h"
#include "core/query.h"
#include "core/query_processor.h"
#include "util/result.h"

namespace mmdb {

/// Engine-internal header (`mmdb_internal.h`): applications reach this
/// access path as `QueryMethod::kInterval` through `QueryService` or the
/// facade.
///
/// The interval method (beyond-paper): BWM's idea of skipping rule work,
/// taken to its limit. Binary images are tested against their stored
/// histograms exactly, as in RBM; every edited image is tested against
/// its stored interval row (`AugmentedCollection::RowOf`, folded once at
/// insert), so a query applies no rules at all. The rows hold the very
/// counts RBM's fold computes and go through the same `ToFractionBounds`
/// division, so the result — ids and their order — equals kRbm's.
///
/// `QueryStats`: `rules_applied` stays 0 and `edited_images_bounded`
/// counts row comparisons.
class IntervalQueryProcessor : public QueryProcessor {
 public:
  /// `collection` must outlive the processor.
  explicit IntervalQueryProcessor(const AugmentedCollection* collection);

  using QueryProcessor::RunConjunctive;
  using QueryProcessor::RunRange;

  /// Checks `ctx`'s limits per image.
  Result<QueryResult> RunRange(const RangeQuery& query,
                               const QueryContext& ctx) const override;

  /// An edited image stays a candidate iff its row overlaps every
  /// conjunct, exactly as in `RbmQueryProcessor::RunConjunctive`.
  Result<QueryResult> RunConjunctive(const ConjunctiveQuery& query,
                                     const QueryContext& ctx) const override;

 private:
  template <typename BinaryTest, typename RowTest>
  Result<QueryResult> Scan(const QueryContext& ctx,
                           const BinaryTest& binary_matches,
                           const RowTest& row_matches) const;

  const AugmentedCollection* collection_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_INTERVAL_H_
