#ifndef MMDB_CORE_PARALLEL_H_
#define MMDB_CORE_PARALLEL_H_

#include <memory>

#include "core/collection.h"
#include "core/executor.h"
#include "core/query.h"
#include "core/query_processor.h"
#include "util/result.h"

namespace mmdb {

/// Engine-internal header (`mmdb_internal.h`): applications reach this
/// access path as `QueryMethod::kParallelRbm` through `QueryService` or
/// the facade; constructing the processor directly is deprecated as
/// public API.
///
/// Multi-threaded Rule-Based Method scan (beyond-paper extension).
///
/// The per-edited-image BOUNDS folds (`AugmentedCollection::StoredBounds`)
/// are independent, so the scan partitions the edited images into
/// contiguous chunks and bounds each chunk as one `Executor` task.
/// Results are concatenated in chunk order, making the output
/// deterministic and identical to the serial `RbmQueryProcessor` (the
/// tests enforce both, for range and conjunctive queries alike).
///
/// Unlike the original implementation, no threads are created per query:
/// chunks run on a persistent pool — either one this processor owns or a
/// shared `Executor` (the facade's, when dispatched as
/// `QueryMethod::kParallelRbm`). The submitting thread always works on
/// chunks too (`Executor::ParallelFor`), so a saturated or shut-down pool
/// degrades to a serial scan instead of stalling.
class ParallelRbmQueryProcessor : public QueryProcessor {
 public:
  /// Owns a private pool sized for `threads`-way parallelism (the caller
  /// counts as one, so `threads - 1` workers are started; `threads` <= 1
  /// degenerates to a serial scan). Referents must outlive the processor.
  ParallelRbmQueryProcessor(const AugmentedCollection* collection,
                            int threads);

  /// Runs chunks on `executor` (not owned; must outlive the processor)
  /// instead of a private pool.
  ParallelRbmQueryProcessor(const AugmentedCollection* collection,
                            Executor* executor);

  using QueryProcessor::RunConjunctive;
  using QueryProcessor::RunRange;

  /// Runs `query` with the configured parallelism. Each chunk checks
  /// `ctx`'s limits per image (with its own check state — the stride
  /// countdown is not shareable across threads); an interrupt stops every
  /// chunk and the merged partial progress is reported via
  /// `ctx.interrupt`.
  Result<QueryResult> RunRange(const RangeQuery& query,
                               const QueryContext& ctx) const override;

  /// Conjunctive variant, same chunking and the same deterministic
  /// chunk-order guarantee.
  Result<QueryResult> RunConjunctive(const ConjunctiveQuery& query,
                                     const QueryContext& ctx) const override;

  /// Maximum threads a scan can occupy (pool workers + the caller).
  int threads() const { return executor_->worker_count() + 1; }

 private:
  /// Scans all edited images chunk-parallel; `bound_one` evaluates one
  /// edited image, given its id and slot (appending to ids/stats of its
  /// chunk). Merges every
  /// chunk's output (so interrupted scans still report partial work),
  /// returning the first hard error, else the first interrupt status.
  template <typename BoundFn>
  Status ScanEdited(const QueryContext& ctx, QueryResult* result,
                    const BoundFn& bound_one) const;

  const AugmentedCollection* collection_;
  std::unique_ptr<Executor> owned_executor_;
  Executor* executor_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_PARALLEL_H_
