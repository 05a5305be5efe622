#include "layers.h"

#include <algorithm>
#include <fstream>
#include <iostream>

namespace perfbench::redrive {

using namespace mmdb;

namespace {

/// Windows whose bins the bounds re-drive walks.
constexpr size_t kBoundsWindows = 8;
constexpr int kPlanRepeats = 5;

double MedianUs(const SpanRecorder& spans, const std::string& name) {
  return Median(spans.Durations(name)) * 1e6;
}

}  // namespace

void Bounds(const MultimediaDatabase& db, const std::vector<RangeQuery>& windows,
            SpanRecorder* spans, Report* report) {
  const AugmentedCollection& collection = db.collection();
  const TargetBoundsResolver resolver =
      collection.MakeTargetResolver(db.rule_engine());
  int64_t images = 0;
  double seconds = 0.0;
  for (size_t w = 0; w < std::min(kBoundsWindows, windows.size()); ++w) {
    const BinIndex bin = windows[w].bin;
    const Clock::time_point start = Clock::now();
    spans->Record("core.bounds", -1, [&] {
      for (ObjectId id : collection.edited_ids()) {
        const EditedImageInfo* info = collection.FindEdited(id);
        const BinaryImageInfo* base =
            collection.FindBinary(info->script.base_id);
        if (base == nullptr) continue;
        Result<FractionBounds> bounds = ComputeBounds(
            db.rule_engine(), info->script, bin, base->histogram.Count(bin),
            base->width, base->height, resolver);
        if (bounds.ok()) ++images;
      }
    });
    seconds += SecondsBetween(start, Clock::now());
  }
  report->Layer("core.bounds.us_per_image",
                images > 0 ? seconds * 1e6 / static_cast<double>(images) : 0.0);
}

void Plan(const MultimediaDatabase& db, const std::vector<RangeQuery>& windows,
          const std::vector<ConjunctiveQuery>& conjunctions,
          SpanRecorder* spans, Report* report) {
  const QueryPlanner planner(db);
  size_t steps = 0;
  for (int r = 0; r < kPlanRepeats; ++r) {
    for (const RangeQuery& window : windows) {
      spans->Record("core.plan", -1,
                    [&] { steps += planner.PlanRange(window).steps.size(); });
    }
    for (const ConjunctiveQuery& query : conjunctions) {
      spans->Record("core.plan", -1, [&] {
        steps += planner.PlanConjunctive(query).steps.size();
      });
    }
  }
  report->Check(steps > 0, "planner produced no plan steps");
  report->Layer("core.plan.plan_us", MedianUs(*spans, "core.plan"));
}

void IndexSearch(const MultimediaDatabase& db,
                 const std::vector<ConjunctiveQuery>& conjunctions,
                 SpanRecorder* spans, Report* report) {
  for (const ConjunctiveQuery& query : conjunctions) {
    for (const RangeQuery& conjunct : query.conjuncts) {
      spans->Record("index.histogram_index", -1, [&] {
        Result<std::vector<ObjectId>> ids =
            db.histogram_index().RangeSearch(conjunct);
        report->Check(ids.ok(), "histogram index search failed");
      });
    }
  }
  report->Layer("index.histogram_index.search_us",
                MedianUs(*spans, "index.histogram_index"));
}

void SimilarityBounds(const MultimediaDatabase& db,
                      const std::vector<ObjectId>& edited, SpanRecorder* spans,
                      Report* report) {
  const SimilaritySearcher searcher(&db.collection(), &db.rule_engine());
  for (ObjectId id : edited) {
    const EditedImageInfo* info = db.collection().FindEdited(id);
    if (info == nullptr) continue;
    spans->Record("core.similarity", -1, [&] {
      report->Check(searcher.AllBinBounds(*info).ok(),
                    "AllBinBounds failed for " + std::to_string(id));
    });
  }
  report->Layer("core.similarity.bounds_us_per_image",
                MedianUs(*spans, "core.similarity"));
}

void Instantiate(const MultimediaDatabase& db,
                 const std::vector<ObjectId>& edited, SpanRecorder* spans,
                 Report* report) {
  const Editor editor(db.MakePixelResolver());
  for (ObjectId id : edited) {
    const EditedImageInfo* info = db.collection().FindEdited(id);
    if (info == nullptr) continue;
    Result<Image> base = db.GetImage(info->script.base_id);
    if (!base.ok()) {
      report->Check(false, "base fetch failed: " + base.status().ToString());
      continue;
    }
    spans->Record("image.editor", -1, [&] {
      report->Check(editor.Instantiate(*base, info->script).ok(),
                    "Instantiate failed for " + std::to_string(id));
    });
  }
  report->Layer("image.editor.instantiate_us",
                MedianUs(*spans, "image.editor"));
}

void ServiceOverhead(const MultimediaDatabase& db, QueryService& service,
                     const std::vector<RangeQuery>& windows,
                     SpanRecorder* spans, Report* report) {
  std::vector<double> overhead_us;
  for (int r = 0; r < 2; ++r) {
    for (const RangeQuery& window : windows) {
      double execute = 0.0;
      double direct = 0.0;
      auto run_execute = [&] {
        const Clock::time_point start = Clock::now();
        spans->Record("core.query_service", -1, [&] {
          report->Check(
              service.Execute(QueryRequest::Range(window, QueryMethod::kBwm))
                  .ok(),
              "Execute failed");
        });
        execute = SecondsBetween(start, Clock::now());
      };
      auto run_direct = [&] {
        const Clock::time_point start = Clock::now();
        spans->Record("core.bwm", -1, [&] {
          report->Check(db.RunRange(window, QueryMethod::kBwm).ok(),
                        "RunRange failed");
        });
        direct = SecondsBetween(start, Clock::now());
      };
      if (r == 0) {
        run_execute();
        run_direct();
      } else {
        run_direct();
        run_execute();
      }
      overhead_us.push_back((execute - direct) * 1e6);
    }
  }
  report->Layer("core.query_service.overhead_us", Median(overhead_us));
}

void Sizes(const MultimediaDatabase& db, Report* report) {
  const AugmentedCollection& collection = db.collection();
  double script_bytes = 0.0;
  for (ObjectId id : collection.edited_ids()) {
    script_bytes += static_cast<double>(
        EncodeEditScript(collection.FindEdited(id)->script).size());
  }
  double raster_bytes = 0.0;
  for (ObjectId id : collection.binary_ids()) {
    const BinaryImageInfo* info = collection.FindBinary(id);
    raster_bytes += 3.0 * info->width * info->height;
  }
  report->Layer("editops.script_bytes",
                script_bytes / std::max<size_t>(1, collection.EditedCount()));
  report->Layer("image.raster_bytes",
                raster_bytes / std::max<size_t>(1, collection.BinaryCount()));
}

}  // namespace perfbench::redrive

namespace perfbench {

void QueryCounts::Add(const mmdb::QueryRequest& request,
                      const mmdb::QueryResult& result) {
  if (request.kind() == mmdb::QueryKind::kSimilarity) return;
  range += result.stats;
  ++range_ops;
  if (request.method == mmdb::QueryMethod::kBwm) {
    bwm += result.stats;
    ++bwm_ops;
  } else if (request.method == mmdb::QueryMethod::kPlanned) {
    planned += result.stats;
    planned_ids += static_cast<int64_t>(result.ids.size());
  }
}

void QueryCounts::Merge(const QueryCounts& other) {
  range += other.range;
  range_ops += other.range_ops;
  bwm += other.bwm;
  bwm_ops += other.bwm_ops;
  planned += other.planned;
  planned_ids += other.planned_ids;
}

void QueryCounts::ReportTo(double edited_images, Report* report) const {
  auto per = [](int64_t count, int64_t n) {
    return static_cast<double>(count) / static_cast<double>(std::max<int64_t>(1, n));
  };
  report->Layer("core.bounds.images_bounded_per_query",
                per(range.edited_images_bounded, range_ops));
  report->Layer("core.bounds.rules_applied_per_query",
                per(range.rules_applied, range_ops));
  report->Layer("core.bwm.main_accepts_per_query",
                per(bwm.edited_images_skipped, bwm_ops));
  report->Layer("core.bwm.accept_share",
                per(bwm.edited_images_skipped, bwm_ops) /
                    std::max(1.0, edited_images));
  report->Layer("core.plan.examined_per_result",
                per(planned.binary_images_checked +
                        planned.edited_images_bounded +
                        planned.edited_images_skipped,
                    planned_ids));
}

void ReportTrace(const SpanRecorder& loop, const ClassLatencies& untraced,
                 const ClassLatencies& traced,
                 const std::vector<std::string>& layers, Report* report) {
  const std::map<std::string, double> self = loop.SelfSeconds();
  const std::map<std::string, int64_t> counts = loop.Counts();
  auto per_op_us = [&](const std::string& name) {
    auto it = self.find(name);
    auto ops = counts.find("bench.op");
    if (it == self.end() || ops == counts.end() || ops->second == 0) {
      return 0.0;
    }
    return it->second * 1e6 / static_cast<double>(ops->second);
  };
  report->Layer("self_us.bench", per_op_us("bench.op"));
  for (const std::string& layer : layers) {
    report->Layer("self_us." + layer, per_op_us(layer));
  }
  const double plain = untraced.GeoMeanOfMedians();
  const double with_spans = traced.GeoMeanOfMedians();
  report->Layer("trace.untraced_p50_ms", plain);
  report->Layer("trace.traced_p50_ms", with_spans);
  report->Layer("trace.overhead_pct",
                plain > 0 ? (with_spans / plain - 1.0) * 100.0 : 0.0);
}

void WriteSpans(const SpanRecorder& spans, const Options& options,
                Report* report) {
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  report->Check(spans.WriteJson(path), "could not write spans to " + path);
  std::cout << "spans " << spans.spans().size() << " written to " << path
            << "\n";
}

}  // namespace perfbench
