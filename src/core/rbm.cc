#include "core/rbm.h"

#include "obs/trace.h"

namespace mmdb {

namespace {

obs::SpanCategory* ScanSpan() {
  static obs::SpanCategory* const category =
      obs::Tracer::Default().Intern("rbm.scan");
  return category;
}

/// Fine-grained span around one per-image BOUNDS rule fold — RBM pays
/// this for every edited image, which is exactly the cost BWM avoids on
/// its Main-cluster accepts.
obs::SpanCategory* RuleWalkSpan() {
  static obs::SpanCategory* const category =
      obs::Tracer::Default().Intern("rbm.rule_walk", obs::SpanDetail::kFine);
  return category;
}

}  // namespace

RbmQueryProcessor::RbmQueryProcessor(const AugmentedCollection* collection)
    : collection_(collection) {}

Result<QueryResult> RbmQueryProcessor::RunRange(const RangeQuery& query,
                                                const QueryContext& ctx) const {
  obs::Span scan_span(ScanSpan());
  QueryResult result;
  CancelCheck check(ctx);
  // Binary images: the stored histogram answers the query exactly.
  for (const BinaryImageInfo* binary : collection_->binary_infos()) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, check.Check()));
    ++result.stats.binary_images_checked;
    if (query.Satisfies(binary->histogram.Fraction(query.bin))) {
      result.ids.push_back(binary->id);
    }
  }
  // Edited images: apply the rule for every operation of every script.
  const std::vector<ObjectId>& edited_ids = collection_->edited_ids();
  const std::vector<uint32_t>& slots = collection_->edited_slots();
  for (size_t i = 0; i < edited_ids.size(); ++i) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, check.Check()));
    obs::Span walk_span(RuleWalkSpan());
    Result<FractionBounds> bounds = collection_->StoredBounds(
        slots[i], query.bin, check.enabled_or_null());
    if (!bounds.ok()) return AnnotateInterrupt(ctx, result, bounds.status());
    ++result.stats.edited_images_bounded;
    result.stats.rules_applied += collection_->StepCount(slots[i]);
    if (bounds->Overlaps(query.min_fraction, query.max_fraction)) {
      result.ids.push_back(edited_ids[i]);
    }
  }
  return result;
}

Result<QueryResult> RbmQueryProcessor::RunConjunctive(
    const ConjunctiveQuery& query, const QueryContext& ctx) const {
  obs::Span scan_span(ScanSpan());
  QueryResult result;
  CancelCheck check(ctx);
  for (const BinaryImageInfo* binary : collection_->binary_infos()) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, check.Check()));
    ++result.stats.binary_images_checked;
    if (query.Satisfies([&](BinIndex bin) {
          return binary->histogram.Fraction(bin);
        })) {
      result.ids.push_back(binary->id);
    }
  }
  const std::vector<ObjectId>& edited_ids = collection_->edited_ids();
  const std::vector<uint32_t>& slots = collection_->edited_slots();
  for (size_t i = 0; i < edited_ids.size(); ++i) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, check.Check()));
    obs::Span walk_span(RuleWalkSpan());
    bool candidate = true;
    for (const RangeQuery& conjunct : query.conjuncts) {
      Result<FractionBounds> bounds = collection_->StoredBounds(
          slots[i], conjunct.bin, check.enabled_or_null());
      if (!bounds.ok()) return AnnotateInterrupt(ctx, result, bounds.status());
      result.stats.rules_applied += collection_->StepCount(slots[i]);
      if (!bounds->Overlaps(conjunct.min_fraction, conjunct.max_fraction)) {
        candidate = false;
        break;
      }
    }
    ++result.stats.edited_images_bounded;
    if (candidate) result.ids.push_back(edited_ids[i]);
  }
  return result;
}

}  // namespace mmdb
