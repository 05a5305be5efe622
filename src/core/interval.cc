#include "core/interval.h"

#include "obs/trace.h"

namespace mmdb {

namespace {

obs::SpanCategory* ScanSpan() {
  static obs::SpanCategory* const category =
      obs::Tracer::Default().Intern("interval.scan");
  return category;
}

}  // namespace

IntervalQueryProcessor::IntervalQueryProcessor(
    const AugmentedCollection* collection)
    : collection_(collection) {}

template <typename BinaryTest, typename RowTest>
Result<QueryResult> IntervalQueryProcessor::Scan(
    const QueryContext& ctx, const BinaryTest& binary_matches,
    const RowTest& row_matches) const {
  obs::Span scan_span(ScanSpan());
  QueryResult result;
  CancelCheck check(ctx);
  // Binary images: the stored histogram answers the query exactly.
  for (const BinaryImageInfo* binary : collection_->binary_infos()) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, check.Check()));
    ++result.stats.binary_images_checked;
    if (binary_matches(binary->histogram)) result.ids.push_back(binary->id);
  }
  // Edited images: one comparison against the stored row each.
  for (const EditedImageInfo* edited : collection_->edited_infos()) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, check.Check()));
    ++result.stats.edited_images_bounded;
    if (row_matches(collection_->RowOf(*edited))) {
      result.ids.push_back(edited->id);
    }
  }
  return result;
}

Result<QueryResult> IntervalQueryProcessor::RunRange(
    const RangeQuery& query, const QueryContext& ctx) const {
  return Scan(
      ctx,
      [&](const ColorHistogram& histogram) {
        return query.Satisfies(histogram.Fraction(query.bin));
      },
      [&](const IntervalRowView& row) {
        return row.Fraction(query.bin)
            .Overlaps(query.min_fraction, query.max_fraction);
      });
}

Result<QueryResult> IntervalQueryProcessor::RunConjunctive(
    const ConjunctiveQuery& query, const QueryContext& ctx) const {
  return Scan(
      ctx,
      [&](const ColorHistogram& histogram) {
        return query.Satisfies(
            [&](BinIndex bin) { return histogram.Fraction(bin); });
      },
      [&](const IntervalRowView& row) {
        for (const RangeQuery& conjunct : query.conjuncts) {
          if (!row.Fraction(conjunct.bin)
                   .Overlaps(conjunct.min_fraction, conjunct.max_fraction)) {
            return false;
          }
        }
        return true;
      });
}

}  // namespace mmdb
