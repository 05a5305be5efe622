#ifndef MMDB_CORE_QUERY_PROCESSOR_H_
#define MMDB_CORE_QUERY_PROCESSOR_H_

#include "core/cancel.h"
#include "core/query.h"
#include "util/result.h"

namespace mmdb {

/// The one interface every access path implements: instantiate, RBM, BWM,
/// indexed BWM, and the pooled parallel RBM scan are all
/// `QueryProcessor`s, and the facade dispatches to them through a
/// method→factory registry instead of a hand-rolled switch. New access
/// paths plug in by registering a factory (see
/// `MultimediaDatabase::RegisterQueryMethod`) without editing the facade.
///
/// Contract shared by every implementation:
///  - no false negatives versus the instantiate baseline;
///  - kRbm, kBwm, kBwmIndexed, and kParallelRbm return identical result
///    sets (the paper's equivalence argument, enforced by the tests);
///  - `Run*` methods are const and touch only in-memory read state, so
///    one processor is safe to use from the thread that built it while
///    other threads run their own processors. A single processor instance
///    is NOT shareable across threads (the instantiate path's pixel
///    resolver keeps per-instance cycle-detection scratch state); build
///    one per thread, which is exactly what the facade and `QueryService`
///    do.
/// Every processor additionally honors the limits in a `QueryContext`
/// (deadline, cancel tokens) by checking cooperatively at its natural
/// boundaries — per image scanned, per rule-walk operation, per BWM
/// cluster — and returns `DeadlineExceeded`/`Cancelled` with partial
/// progress recorded in `ctx.interrupt` when a limit trips. A
/// default-constructed context imposes no limits and takes the identical
/// code path, so the legacy single-argument overloads below stay
/// result-identical.
class QueryProcessor {
 public:
  virtual ~QueryProcessor() = default;

  /// Answers one color range query under `ctx`'s limits.
  virtual Result<QueryResult> RunRange(const RangeQuery& query,
                                       const QueryContext& ctx) const = 0;

  /// Answers a conjunction of range predicates under `ctx`'s limits.
  virtual Result<QueryResult> RunConjunctive(
      const ConjunctiveQuery& query, const QueryContext& ctx) const = 0;

  /// Legacy unlimited overloads; identical to passing an empty context.
  Result<QueryResult> RunRange(const RangeQuery& query) const {
    return RunRange(query, QueryContext{});
  }
  Result<QueryResult> RunConjunctive(const ConjunctiveQuery& query) const {
    return RunConjunctive(query, QueryContext{});
  }
};

}  // namespace mmdb

#endif  // MMDB_CORE_QUERY_PROCESSOR_H_
