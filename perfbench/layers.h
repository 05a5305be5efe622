#ifndef MMDB_PERFBENCH_LAYERS_H_
#define MMDB_PERFBENCH_LAYERS_H_

// Per-layer figures for the traced run. Each function re-drives one
// module's public functions on a workload's own inputs, records every
// call as a span named after the layer, and reports the layer metric.

#include <string>
#include <vector>

#include "common.h"
#include "mmdb.h"
#include "mmdb_internal.h"

namespace perfbench::redrive {

/// `core.bounds.us_per_image`: `ComputeBounds` over every edited image
/// for the bins of the first windows.
void Bounds(const mmdb::MultimediaDatabase& db,
            const std::vector<mmdb::RangeQuery>& windows, SpanRecorder* spans,
            Report* report);

/// `core.plan.plan_us`: one `QueryPlanner` plan per window and
/// conjunction.
void Plan(const mmdb::MultimediaDatabase& db,
          const std::vector<mmdb::RangeQuery>& windows,
          const std::vector<mmdb::ConjunctiveQuery>& conjunctions,
          SpanRecorder* spans, Report* report);

/// `index.histogram_index.search_us`: one R-tree range search per
/// conjunct.
void IndexSearch(const mmdb::MultimediaDatabase& db,
                 const std::vector<mmdb::ConjunctiveQuery>& conjunctions,
                 SpanRecorder* spans, Report* report);

/// `core.similarity.bounds_us_per_image`: `AllBinBounds` per image.
void SimilarityBounds(const mmdb::MultimediaDatabase& db,
                      const std::vector<mmdb::ObjectId>& edited,
                      SpanRecorder* spans, Report* report);

/// `image.editor.instantiate_us`: `Editor::Instantiate` per image, with
/// the base fetched outside the span.
void Instantiate(const mmdb::MultimediaDatabase& db,
                 const std::vector<mmdb::ObjectId>& edited,
                 SpanRecorder* spans, Report* report);

/// `core.query_service.overhead_us`: `QueryService::Execute` minus
/// `RunRange` for the same kBwm window, median over windows.
void ServiceOverhead(const mmdb::MultimediaDatabase& db,
                     mmdb::QueryService& service,
                     const std::vector<mmdb::RangeQuery>& windows,
                     SpanRecorder* spans, Report* report);

/// `editops.script_bytes` and `image.raster_bytes`: mean encoded script
/// size and mean raster size.
void Sizes(const mmdb::MultimediaDatabase& db, Report* report);

}  // namespace perfbench::redrive

namespace perfbench {

/// Work counts from the answers of a query loop, for the `core.bounds`,
/// `core.bwm` and `core.plan` count metrics.
struct QueryCounts {
  mmdb::QueryStats range;
  int64_t range_ops = 0;
  mmdb::QueryStats bwm;
  int64_t bwm_ops = 0;
  mmdb::QueryStats planned;
  int64_t planned_ids = 0;

  /// Counts one answer; similarity answers are not counted.
  void Add(const mmdb::QueryRequest& request, const mmdb::QueryResult& result);
  void Merge(const QueryCounts& other);
  void ReportTo(double edited_images, Report* report) const;
};

/// Self time per operation of each layer span of the traced loop, plus
/// the traced and untraced medians side by side.
void ReportTrace(const SpanRecorder& loop, const ClassLatencies& untraced,
                 const ClassLatencies& traced,
                 const std::vector<std::string>& layers, Report* report);

/// Writes all spans to `<out_dir>/spans-<workload>-<seed>.json`.
void WriteSpans(const SpanRecorder& spans, const Options& options,
                Report* report);

}  // namespace perfbench

#endif  // MMDB_PERFBENCH_LAYERS_H_
