#include "core/parallel.h"

#include <algorithm>
#include <vector>

#include "obs/trace.h"

namespace mmdb {

namespace {

obs::SpanCategory* ScanSpan() {
  static obs::SpanCategory* const category =
      obs::Tracer::Default().Intern("parallel_rbm.scan");
  return category;
}

}  // namespace

ParallelRbmQueryProcessor::ParallelRbmQueryProcessor(
    const AugmentedCollection* collection, int threads)
    : collection_(collection),
      owned_executor_(std::make_unique<Executor>(std::max(1, threads) - 1)),
      executor_(owned_executor_.get()) {}

ParallelRbmQueryProcessor::ParallelRbmQueryProcessor(
    const AugmentedCollection* collection, Executor* executor)
    : collection_(collection), executor_(executor) {}

template <typename BoundFn>
Status ParallelRbmQueryProcessor::ScanEdited(const QueryContext& ctx,
                                             QueryResult* result,
                                             const BoundFn& bound_one) const {
  const std::vector<ObjectId>& edited_ids = collection_->edited_ids();
  const std::vector<uint32_t>& slots = collection_->edited_slots();
  const size_t n = edited_ids.size();
  if (n == 0) return Status::OK();
  const size_t chunk_count =
      std::min(static_cast<size_t>(threads()), n);

  struct ChunkOutput {
    std::vector<ObjectId> ids;
    QueryStats stats;
    Status status;
  };
  std::vector<ChunkOutput> outputs(chunk_count);

  executor_->ParallelFor(chunk_count, [&](size_t w) {
    const size_t begin = n * w / chunk_count;
    const size_t end = n * (w + 1) / chunk_count;
    ChunkOutput& output = outputs[w];
    // Per-chunk check: the stride countdown is not thread-safe.
    CancelCheck check(ctx);
    for (size_t i = begin; i < end; ++i) {
      output.status = check.Check();
      if (!output.status.ok()) return;
      output.status = bound_one(&check, edited_ids[i], slots[i],
                                &output.ids, &output.stats);
      if (!output.status.ok()) return;
    }
  });

  // Merge every chunk (an interrupted scan still reports all partial
  // work); hard errors outrank interrupts.
  Status interrupt_status;
  for (ChunkOutput& output : outputs) {
    result->ids.insert(result->ids.end(), output.ids.begin(),
                       output.ids.end());
    result->stats += output.stats;
    if (!output.status.ok()) {
      if (!IsInterruptStatus(output.status)) return output.status;
      if (interrupt_status.ok()) interrupt_status = output.status;
    }
  }
  return interrupt_status;
}

Result<QueryResult> ParallelRbmQueryProcessor::RunRange(
    const RangeQuery& query, const QueryContext& ctx) const {
  obs::Span scan_span(ScanSpan());
  QueryResult result;
  CancelCheck check(ctx);
  // Binary images: cheap exact checks, done inline.
  for (const BinaryImageInfo* binary : collection_->binary_infos()) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, check.Check()));
    ++result.stats.binary_images_checked;
    if (query.Satisfies(binary->histogram.Fraction(query.bin))) {
      result.ids.push_back(binary->id);
    }
  }

  Status scan = ScanEdited(
      ctx, &result,
      [&](CancelCheck* chunk_check, ObjectId id, uint32_t slot,
          std::vector<ObjectId>* ids, QueryStats* stats) -> Status {
        MMDB_ASSIGN_OR_RETURN(
            FractionBounds bounds,
            collection_->StoredBounds(slot, query.bin,
                                      chunk_check->enabled_or_null()));
        ++stats->edited_images_bounded;
        stats->rules_applied += collection_->StepCount(slot);
        if (bounds.Overlaps(query.min_fraction, query.max_fraction)) {
          ids->push_back(id);
        }
        return Status::OK();
      });
  MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, scan));
  return result;
}

Result<QueryResult> ParallelRbmQueryProcessor::RunConjunctive(
    const ConjunctiveQuery& query, const QueryContext& ctx) const {
  obs::Span scan_span(ScanSpan());
  QueryResult result;
  CancelCheck check(ctx);
  for (const BinaryImageInfo* binary : collection_->binary_infos()) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, check.Check()));
    ++result.stats.binary_images_checked;
    if (query.Satisfies(
            [&](BinIndex bin) { return binary->histogram.Fraction(bin); })) {
      result.ids.push_back(binary->id);
    }
  }

  Status scan = ScanEdited(
      ctx, &result,
      [&](CancelCheck* chunk_check, ObjectId id, uint32_t slot,
          std::vector<ObjectId>* ids, QueryStats* stats) -> Status {
        bool candidate = true;
        for (const RangeQuery& conjunct : query.conjuncts) {
          MMDB_ASSIGN_OR_RETURN(
              FractionBounds bounds,
              collection_->StoredBounds(slot, conjunct.bin,
                                        chunk_check->enabled_or_null()));
          stats->rules_applied += collection_->StepCount(slot);
          if (!bounds.Overlaps(conjunct.min_fraction,
                               conjunct.max_fraction)) {
            candidate = false;
            break;
          }
        }
        ++stats->edited_images_bounded;
        if (candidate) ids->push_back(id);
        return Status::OK();
      });
  MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, scan));
  return result;
}

}  // namespace mmdb
