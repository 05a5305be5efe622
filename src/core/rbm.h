#ifndef MMDB_CORE_RBM_H_
#define MMDB_CORE_RBM_H_

#include "core/collection.h"
#include "core/query.h"
#include "core/query_processor.h"
#include "util/result.h"

namespace mmdb {

/// Engine-internal header (`mmdb_internal.h`): applications reach this
/// access path as `QueryMethod::kRbm` through `QueryService` or the
/// facade; constructing the processor directly is deprecated as public
/// API.
///
/// The Rule-Based Method (paper Section 3): answers a color range query
/// over an augmented database by checking every binary image's stored
/// histogram and, for every edited image, folding the Table 1 rules over
/// *all* of its editing operations to bound the queried bin. Each rule's
/// geometry was planned once at insert, so the fold applies only the
/// rule's count step (`AugmentedCollection::StoredBounds`).
///
/// Guarantee: no false negatives — an edited image is excluded only when
/// its computed fraction range provably cannot overlap the query range.
/// False positives are possible (the bounds are conservative), which the
/// paper accepts as the right trade-off for retrieval.
class RbmQueryProcessor : public QueryProcessor {
 public:
  /// `collection` must outlive the processor.
  explicit RbmQueryProcessor(const AugmentedCollection* collection);

  using QueryProcessor::RunConjunctive;
  using QueryProcessor::RunRange;

  /// Runs `query` over the whole collection ("w/out data structure").
  /// Checks `ctx`'s limits per image and per rule-walk operation.
  Result<QueryResult> RunRange(const RangeQuery& query,
                               const QueryContext& ctx) const override;

  /// Runs a conjunctive query: an edited image stays a candidate only if
  /// its bounds overlap the range of *every* conjunct (one BOUNDS fold
  /// per conjunct). Same no-false-negative guarantee as `RunRange`.
  Result<QueryResult> RunConjunctive(const ConjunctiveQuery& query,
                                     const QueryContext& ctx) const override;

 private:
  const AugmentedCollection* collection_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_RBM_H_
