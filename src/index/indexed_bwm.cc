#include "index/indexed_bwm.h"

#include <set>

#include "obs/trace.h"

namespace mmdb {

namespace {

obs::SpanCategory* ScanSpan() {
  static obs::SpanCategory* const category =
      obs::Tracer::Default().Intern("bwm_indexed.scan");
  return category;
}

}  // namespace

IndexedBwmQueryProcessor::IndexedBwmQueryProcessor(
    const AugmentedCollection* collection, const BwmIndex* bwm_index,
    const HistogramIndex* histogram_index)
    : collection_(collection),
      bwm_index_(bwm_index),
      histogram_index_(histogram_index) {}

Result<QueryResult> IndexedBwmQueryProcessor::RunRange(
    const RangeQuery& query, const QueryContext& ctx) const {
  obs::Span scan_span(ScanSpan());
  QueryResult result;
  CancelCheck check(ctx);

  // One index probe answers the binary side for every cluster at once.
  MMDB_ASSIGN_OR_RETURN(std::vector<ObjectId> matching_binaries,
                        histogram_index_->RangeSearch(query));
  const std::set<ObjectId> satisfied(matching_binaries.begin(),
                                     matching_binaries.end());
  result.stats.binary_images_checked =
      static_cast<int64_t>(matching_binaries.size());

  auto bound_and_collect = [&](ObjectId id, uint32_t slot) -> Status {
    MMDB_RETURN_IF_ERROR(check.Check());
    MMDB_ASSIGN_OR_RETURN(
        FractionBounds bounds,
        collection_->StoredBounds(slot, query.bin, check.enabled_or_null()));
    ++result.stats.edited_images_bounded;
    result.stats.rules_applied += collection_->StepCount(slot);
    if (bounds.Overlaps(query.min_fraction, query.max_fraction)) {
      result.ids.push_back(id);
    }
    return Status::OK();
  };

  for (const BwmIndex::Cluster& cluster : bwm_index_->MainClusters()) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, check.Check()));
    if (satisfied.count(cluster.base_id)) {
      result.ids.push_back(cluster.base_id);
      result.ids.insert(result.ids.end(), cluster.edited_ids.begin(),
                        cluster.edited_ids.end());
      result.stats.edited_images_skipped +=
          static_cast<int64_t>(cluster.edited_ids.size());
    } else {
      for (size_t i = 0; i < cluster.edited_ids.size(); ++i) {
        MMDB_RETURN_IF_ERROR(AnnotateInterrupt(
            ctx, result,
            bound_and_collect(cluster.edited_ids[i], cluster.edited_slots[i])));
      }
    }
  }
  // Satisfied binaries that are not cluster bases (e.g. materialized
  // variants) still belong in the answer.
  for (ObjectId id : matching_binaries) {
    if (bwm_index_->FindCluster(id) == nullptr) result.ids.push_back(id);
  }
  const std::vector<ObjectId>& unclassified = bwm_index_->Unclassified();
  for (size_t i = 0; i < unclassified.size(); ++i) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(
        ctx, result,
        bound_and_collect(unclassified[i],
                          bwm_index_->UnclassifiedSlots()[i])));
  }
  return result;
}

Result<QueryResult> IndexedBwmQueryProcessor::RunConjunctive(
    const ConjunctiveQuery& query, const QueryContext& ctx) const {
  BwmQueryProcessor bwm(collection_, bwm_index_);
  return bwm.RunConjunctive(query, ctx);
}

}  // namespace mmdb
