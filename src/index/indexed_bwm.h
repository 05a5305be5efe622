#ifndef MMDB_INDEX_INDEXED_BWM_H_
#define MMDB_INDEX_INDEXED_BWM_H_

#include "core/bwm.h"
#include "core/collection.h"
#include "core/query.h"
#include "core/query_processor.h"
#include "index/histogram_index.h"
#include "util/result.h"

namespace mmdb {

/// Engine-internal header (`mmdb_internal.h`): applications reach this
/// access path as `QueryMethod::kBwmIndexed` through `QueryService` or
/// the facade; constructing the processor directly is deprecated as
/// public API.
///
/// BWM combined with the conventional access path the paper's Section 4
/// opens with: binary-image signatures live in a multidimensional index
/// (the R-tree), so the per-cluster "does the base satisfy the query?"
/// test becomes one index range search instead of a full histogram scan.
/// The edited images still flow through the Main/Unclassified logic of
/// Figure 2; result sets are identical to the plain `BwmQueryProcessor`
/// (enforced by the tests).
class IndexedBwmQueryProcessor : public QueryProcessor {
 public:
  /// `index` must contain exactly the collection's binary images. All
  /// referents must outlive the processor.
  IndexedBwmQueryProcessor(const AugmentedCollection* collection,
                           const BwmIndex* bwm_index,
                           const HistogramIndex* histogram_index);

  using QueryProcessor::RunConjunctive;
  using QueryProcessor::RunRange;

  /// Runs `query` using the index for the binary-image side. Checks
  /// `ctx`'s limits per cluster and per bounded image.
  Result<QueryResult> RunRange(const RangeQuery& query,
                               const QueryContext& ctx) const override;

  /// Conjunctive variant. The R-tree probes one bin per search, so a
  /// conjunction runs the plain BWM Figure 2 logic over the stored
  /// histograms (exactly what the facade used to fall back to); result
  /// sets are identical to `BwmQueryProcessor::RunConjunctive`.
  Result<QueryResult> RunConjunctive(const ConjunctiveQuery& query,
                                     const QueryContext& ctx) const override;

 private:
  const AugmentedCollection* collection_;
  const BwmIndex* bwm_index_;
  const HistogramIndex* histogram_index_;
};

}  // namespace mmdb

#endif  // MMDB_INDEX_INDEXED_BWM_H_
