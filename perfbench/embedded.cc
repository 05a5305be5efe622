// Workload `embedded-helmet`: the paper's Figure 3 experiment at 10^4
// images. One closed-loop client sends grounded range windows (each under
// kRbm, kBwm and kPlanned), selective conjunctions (kPlanned) and top-10
// similarity queries through `QueryService::Execute`.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <set>

#include "common.h"
#include "mmdb.h"
#include "mmdb_internal.h"
#include "layers.h"
#include "truth.h"

namespace perfbench {
namespace {

using namespace mmdb;

constexpr int kImages = 10000;
/// Pools larger than one run covers, so each sample is mostly a query of
/// its own and a class median rests on many distinct queries.
constexpr int kWindows = 256;
constexpr int kConjunctions = 256;
constexpr int kKnnQueries = 64;
constexpr uint32_t kTopK = 10;
/// Per round: this many windows (each under three methods) and
/// conjunctions, then one similarity query.
constexpr int kWindowsPerRound = 4;
constexpr int kConjPerRound = 4;
/// Edited images whose pixels the benchmark instantiates itself to check
/// for false negatives.
constexpr int kEditedSample = 40;

struct Setup {
  std::unique_ptr<MultimediaDatabase> db;
  std::unique_ptr<QueryService> service;
  double stats_build_ms = 0.0;
};

Result<Setup> SetUp(uint64_t seed) {
  Setup setup;
  MMDB_ASSIGN_OR_RETURN(setup.db, MultimediaDatabase::Open());
  datasets::DatasetSpec spec;
  spec.kind = datasets::DatasetKind::kHelmets;
  spec.total_images = kImages;
  spec.edited_fraction = 0.8;
  spec.widening_probability = 0.8;
  spec.seed = seed;
  MMDB_RETURN_IF_ERROR(
      datasets::BuildAugmentedDatabase(setup.db.get(), spec).status());
  setup.service = std::make_unique<QueryService>(setup.db.get());
  const Clock::time_point start = Clock::now();
  if (setup.db->PlannerStats() == nullptr) {
    return Status::Internal("planner stats unavailable");
  }
  setup.stats_build_ms = SecondsBetween(start, Clock::now()) * 1e3;
  return setup;
}

struct Op {
  std::string op_class;
  QueryRequest request;
  /// Answer slot: windows x 3 methods, then conjunctions, then knn.
  size_t slot = 0;
};

}  // namespace

int RunEmbeddedHelmet(const Options& options, Report* report) {
  // Set-up: corpus build, service start, first planner-stats build.
  std::vector<double> setup_seconds;
  Setup setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup = Setup{};
    const Clock::time_point start = Clock::now();
    Result<Setup> built = SetUp(options.seed);
    setup_seconds.push_back(SecondsBetween(start, Clock::now()));
    if (!built.ok()) {
      std::cerr << "embedded-helmet setup: " << built.status().ToString()
                << "\n";
      return 1;
    }
    setup = std::move(built).value();
  }
  report->EndToEnd("setup_s", Median(setup_seconds), "s");
  MultimediaDatabase& db = *setup.db;
  QueryService& service = *setup.service;

  // The benchmark's own ground truth, from the stored pixels.
  Result<OwnTruth> truth_or = OwnTruth::Build(db, kEditedSample,
                                              options.seed * 131 + 7);
  if (!truth_or.ok()) {
    std::cerr << "embedded-helmet truth: " << truth_or.status().ToString()
              << "\n";
    return 1;
  }
  const OwnTruth& truth = *truth_or;

  Rng rng(options.seed * 7919 + 1);
  const std::vector<RangeQuery> windows = datasets::MakeGroundedRangeWorkload(
      db.collection(), db.quantizer(),
      datasets::PaletteFor(datasets::DatasetKind::kHelmets), kWindows, rng);
  const std::vector<ConjunctiveQuery> conjunctions =
      GroundedConjunctions(db, kConjunctions, rng);
  std::vector<SimilarityQuery> knn;
  for (int i = 0; i < kKnnQueries; ++i) {
    const ObjectId id = truth.binary_ids()[rng.Uniform(truth.binary_ids().size())];
    knn.push_back({db.collection().FindBinary(id)->histogram, kTopK});
  }

  const QueryMethod kWindowMethods[] = {QueryMethod::kRbm, QueryMethod::kBwm,
                                        QueryMethod::kPlanned};
  const char* kWindowClasses[] = {"rbm_range", "bwm_range", "planned_range"};
  const size_t conj_base = windows.size() * 3;
  const size_t knn_base = conj_base + conjunctions.size();

  auto make_round = [&](int64_t round) {
    std::vector<Op> ops;
    for (int j = 0; j < kWindowsPerRound; ++j) {
      const size_t w = (round * kWindowsPerRound + j) % windows.size();
      // Rotate the method order so no method always runs first.
      for (int i = 0; i < 3; ++i) {
        const int m = static_cast<int>((round + j + i) % 3);
        ops.push_back({kWindowClasses[m],
                       QueryRequest::Range(windows[w], kWindowMethods[m]),
                       w * 3 + m});
      }
    }
    for (int j = 0; j < kConjPerRound; ++j) {
      const size_t c = (round * kConjPerRound + j) % conjunctions.size();
      ops.push_back({"conj",
                     QueryRequest::Conjunctive(conjunctions[c],
                                               QueryMethod::kPlanned),
                     conj_base + c});
    }
    const size_t k = round % knn.size();
    ops.push_back({"knn", QueryRequest::Similarity(knn[k]), knn_base + k});
    return ops;
  };

  // Correctness against the benchmark's own pixel counts, made on each
  // slot's first answer, outside the timed calls. A window's methods run
  // one after another, so only the current windows' first id sets are
  // held. Also gathers the share of the corpus and of the binary images
  // each class returns.
  std::vector<char> checked(knn_base + knn.size(), 0);
  std::map<size_t, std::set<ObjectId>> window_ids;
  std::vector<int64_t> window_rules(windows.size() * 3, -1);
  std::vector<double> selectivity[2];
  std::vector<double> binary_selectivity[2];
  double candidates_per_k = 0.0;
  int knn_checked = 0;
  auto check = [&](const Op& op, const QueryResult& result) {
    if (checked[op.slot]) return;
    checked[op.slot] = 1;
    if (op.slot < conj_base) {
      const size_t w = op.slot / 3;
      const RangeQuery& window = windows[w];
      const std::string what = op.op_class + " window " + window.ToString();
      truth.CheckAnswer(
          result.ids,
          [&](const std::vector<double>& f) {
            return window.Satisfies(f[window.bin]);
          },
          what, report);
      window_rules[op.slot] = result.stats.rules_applied;
      std::set<ObjectId> ids(result.ids.begin(), result.ids.end());
      auto first = window_ids.find(w);
      if (first == window_ids.end()) {
        window_ids.emplace(w, std::move(ids));
        selectivity[0].push_back(static_cast<double>(result.ids.size()) /
                                 kImages);
        binary_selectivity[0].push_back(truth.BinaryShare(result.ids));
        return;
      }
      report->Check(ids == first->second,
                    what + ": id set differs across methods");
      if (checked[w * 3] && checked[w * 3 + 1] && checked[w * 3 + 2]) {
        window_ids.erase(first);
      }
    } else if (op.slot < knn_base) {
      const ConjunctiveQuery& query = conjunctions[op.slot - conj_base];
      truth.CheckAnswer(
          result.ids,
          [&](const std::vector<double>& f) {
            return query.Satisfies([&](BinIndex bin) { return f[bin]; });
          },
          "conj " + query.ToString(), report);
      selectivity[1].push_back(static_cast<double>(result.ids.size()) /
                               kImages);
      binary_selectivity[1].push_back(truth.BinaryShare(result.ids));
    } else {
      truth.CheckTopK(knn[op.slot - knn_base], result, report);
      candidates_per_k += static_cast<double>(result.ids.size()) / kTopK;
      ++knn_checked;
    }
  };

  // The closed loop. A traced run alternates untraced and traced rounds,
  // so both medians come from the same conditions.
  ClassLatencies untraced;
  ClassLatencies traced;
  SpanRecorder loop_spans;
  QueryCounts counts;
  int64_t op_id = 0;
  const Clock::time_point loop_start = Clock::now();
  double loop_seconds = 0.0;
  for (int64_t round = 0;; ++round) {
    const bool trace_round = options.trace && (round % 2 == 1);
    // Traced runs issue each round's queries twice, once per mode.
    for (Op& op : make_round(options.trace ? round / 2 : round)) {
      ++op_id;
      Result<QueryResult> result = Status::Internal("not run");
      const OpTime time = TimeOp([&] {
        if (trace_round) {
          loop_spans.Record("bench.op", op_id, [&] {
            loop_spans.Record("core.query_service", op_id,
                              [&] { result = service.Execute(op.request); });
          });
        } else {
          result = service.Execute(op.request);
        }
      });
      report->CountOp(result.ok());
      if (!result.ok()) {
        std::cerr << "embedded-helmet " << op.op_class << ": "
                  << result.status().ToString() << "\n";
        continue;
      }
      (trace_round ? traced : untraced).Add(op.op_class, time);
      counts.Add(op.request, *result);
      check(op, *result);
    }
    loop_seconds = SecondsBetween(loop_start, Clock::now());
    if (loop_seconds >= options.seconds) break;
  }
  ReportLoop(options.trace ? traced : untraced, loop_seconds, report);

  // The paper's claim as a count: over the windows both ran, BWM applies
  // fewer rules than RBM.
  int64_t rbm_rules = 0;
  int64_t bwm_rules = 0;
  for (size_t w = 0; w < windows.size(); ++w) {
    if (window_rules[w * 3] >= 0 && window_rules[w * 3 + 1] >= 0) {
      rbm_rules += window_rules[w * 3];
      bwm_rules += window_rules[w * 3 + 1];
    }
  }
  report->Check(rbm_rules == 0 || bwm_rules < rbm_rules,
                "BWM applied " + std::to_string(bwm_rules) +
                    " rules, not fewer than RBM's " +
                    std::to_string(rbm_rules));
  if (knn_checked > 0) candidates_per_k /= knn_checked;
  report->Detail("bwm_over_rbm_p50",
                 untraced.MedianOf("bwm_range") /
                     std::max(1e-9, untraced.MedianOf("rbm_range")),
                 "ratio");
  report->Detail("bwm_over_rbm_rules",
                 static_cast<double>(bwm_rules) /
                     std::max<double>(1.0, static_cast<double>(rbm_rules)),
                 "ratio");
  report->Detail("window_selectivity", Median(selectivity[0]), "ratio");
  report->Detail("conj_selectivity", Median(selectivity[1]), "ratio");
  report->Detail("window_binary_selectivity", Median(binary_selectivity[0]),
                 "ratio");
  report->Detail("conj_binary_selectivity", Median(binary_selectivity[1]),
                 "ratio");
  report->Detail("candidates_per_k", candidates_per_k, "ratio");
  if (!options.trace) return 0;

  // Per-layer figures: counts from the loop, times by re-driving each
  // layer's public functions on this workload's inputs.
  SpanRecorder redrive;
  counts.ReportTo(static_cast<double>(db.collection().EditedCount()), report);
  report->Layer("core.plan.stats_build_ms", setup.stats_build_ms);
  report->Layer("core.similarity.candidates_per_k", candidates_per_k);

  redrive::Bounds(db, windows, &redrive, report);
  redrive::Plan(db, windows, conjunctions, &redrive, report);
  redrive::IndexSearch(db, conjunctions, &redrive, report);
  redrive::SimilarityBounds(db, truth.edited_sample(), &redrive, report);
  redrive::Instantiate(db, truth.edited_sample(), &redrive, report);
  redrive::ServiceOverhead(db, service, windows, &redrive, report);
  redrive::Sizes(db, report);
  const QueryService::CounterSnapshot counters = service.Snapshot();
  report->Layer("core.executor.queue_wait_us",
                counters.total_queue_wait_seconds * 1e6 /
                    std::max<int64_t>(1, counters.queries));
  ReportTrace(loop_spans, untraced, traced, {"core.query_service"}, report);
  loop_spans.Merge(redrive);
  WriteSpans(loop_spans, options, report);
  return 0;
}

}  // namespace perfbench
