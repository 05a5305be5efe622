#include "core/query_service.h"

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <thread>
#include <vector>

#include "datasets/augment.h"
#include "test_util.h"

namespace mmdb {
namespace {

const QueryMethod kAllMethods[] = {
    QueryMethod::kInstantiate, QueryMethod::kRbm,
    QueryMethod::kBwm,         QueryMethod::kBwmIndexed,
    QueryMethod::kParallelRbm, QueryMethod::kInterval};

std::unique_ptr<MultimediaDatabase> MakeDataset(int total_images,
                                                uint64_t seed) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.total_images = total_images;
  spec.edited_fraction = 0.7;
  spec.seed = seed;
  EXPECT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
  return db;
}

std::vector<QueryRequest> MixedWorkload(const MultimediaDatabase& db,
                                        int per_method, uint64_t seed) {
  Rng rng(seed);
  const auto ranges = datasets::MakeGroundedRangeWorkload(
      db.collection(), db.quantizer(), datasets::FlagPalette(), per_method,
      rng);
  std::vector<QueryRequest> requests;
  for (QueryMethod method : kAllMethods) {
    for (const RangeQuery& query : ranges) {
      requests.push_back(QueryRequest::Range(query, method));
    }
    // One conjunctive request per method, built from two range windows.
    ConjunctiveQuery conjunctive;
    conjunctive.conjuncts.push_back(ranges[0]);
    RangeQuery second = ranges[1 % ranges.size()];
    if (second.bin == ranges[0].bin) second.bin = (second.bin + 1) % 4;
    conjunctive.conjuncts.push_back(second);
    requests.push_back(QueryRequest::Conjunctive(conjunctive, method));
  }
  return requests;
}

/// The serial answer the batched one must reproduce exactly.
Result<QueryResult> RunSerial(const MultimediaDatabase& db,
                              const QueryRequest& request) {
  switch (request.kind()) {
    case QueryKind::kRange:
      return db.RunRange(*request.range(), request.method);
    case QueryKind::kConjunctive:
      return db.RunConjunctive(*request.conjunctive(), request.method);
    case QueryKind::kSimilarity:
      return db.RunSimilarity(*request.similarity());
  }
  return Status::Internal("unreachable");
}

void ExpectSameStats(const QueryStats& a, const QueryStats& b) {
  EXPECT_EQ(a.binary_images_checked, b.binary_images_checked);
  EXPECT_EQ(a.edited_images_bounded, b.edited_images_bounded);
  EXPECT_EQ(a.edited_images_skipped, b.edited_images_skipped);
  EXPECT_EQ(a.rules_applied, b.rules_applied);
  EXPECT_EQ(a.images_instantiated, b.images_instantiated);
}

class QueryServiceBatch : public ::testing::TestWithParam<int> {};

TEST_P(QueryServiceBatch, BatchedMatchesSerialForEveryMethod) {
  auto db = MakeDataset(50, 2201);
  const std::vector<QueryRequest> requests = MixedWorkload(*db, 6, 2203);

  QueryServiceOptions options;
  options.threads = GetParam();
  QueryService service(db.get(), options);
  const auto batched = service.ExecuteBatch(requests);
  ASSERT_EQ(batched.size(), requests.size());

  for (size_t i = 0; i < requests.size(); ++i) {
    const auto serial = RunSerial(*db, requests[i]);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(batched[i].ok()) << batched[i].status().ToString();
    // Identical including order: every processor is deterministic.
    EXPECT_EQ(serial->ids, batched[i]->ids)
        << "method " << QueryMethodName(requests[i].method) << " request "
        << i;
    ExpectSameStats(serial->stats, batched[i]->stats);
  }

  const auto snapshot = service.Snapshot();
  EXPECT_EQ(snapshot.batches, 1);
  EXPECT_EQ(snapshot.queries, static_cast<int64_t>(requests.size()));
  EXPECT_EQ(snapshot.failed_queries, 0);
  EXPECT_EQ(snapshot.conjunctive_queries,
            static_cast<int64_t>(std::size(kAllMethods)));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, QueryServiceBatch,
                         ::testing::Values(1, 2, 4, 8));

TEST(QueryServiceTest, ShutdownJoinsCleanlyWithWorkInFlight) {
  auto db = MakeDataset(40, 2301);
  const std::vector<QueryRequest> requests = MixedWorkload(*db, 12, 2303);

  QueryServiceOptions options;
  options.threads = 4;
  auto service = std::make_unique<QueryService>(db.get(), options);

  // Batches racing against Shutdown must still return complete, correct
  // answers: queued chunk tasks drain, and the submitting threads pick
  // up whatever the pool no longer does.
  std::vector<std::vector<Result<QueryResult>>> answers(3);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < answers.size(); ++t) {
    clients.emplace_back(
        [&, t] { answers[t] = service->ExecuteBatch(requests); });
  }
  service->Shutdown();
  for (std::thread& client : clients) client.join();

  for (const auto& batch : answers) {
    ASSERT_EQ(batch.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
      EXPECT_EQ(batch[i]->ids, RunSerial(*db, requests[i])->ids);
    }
  }

  // A post-shutdown batch still completes (inline on the caller).
  const auto late = service->ExecuteBatch(requests);
  ASSERT_EQ(late.size(), requests.size());
  for (const auto& result : late) EXPECT_TRUE(result.ok());
  service.reset();  // Destructor after explicit Shutdown: idempotent.
}

TEST(QueryServiceTest, StatsMatchKnownScanCountsOnFixture) {
  // Fixture: 3 binary images (red, blue, white) and 2 edited images over
  // the red base, each with a known all-widening script.
  auto db = MultimediaDatabase::Open().value();
  const ObjectId red =
      db->InsertBinaryImage(Image(8, 8, colors::kRed)).value();
  ASSERT_TRUE(db->InsertBinaryImage(Image(8, 8, colors::kBlue)).ok());
  ASSERT_TRUE(db->InsertBinaryImage(Image(8, 8, colors::kWhite)).ok());
  EditScript two_ops;
  two_ops.base_id = red;
  two_ops.ops.emplace_back(ModifyOp{colors::kWhite, colors::kGreen});
  two_ops.ops.emplace_back(ModifyOp{colors::kGreen, colors::kWhite});
  ASSERT_TRUE(db->InsertEditedImage(two_ops).ok());
  EditScript three_ops = two_ops;
  three_ops.ops.emplace_back(ModifyOp{colors::kWhite, colors::kBlue});
  ASSERT_TRUE(db->InsertEditedImage(three_ops).ok());

  RangeQuery query;
  query.bin = db->BinOf(colors::kRed);
  query.min_fraction = 0.5;

  QueryServiceOptions options;
  options.threads = 2;
  QueryService service(db.get(), options);

  // RBM scans everything: 3 histograms checked, both scripts bounded,
  // one rule application per operation (2 + 3).
  auto result = service.Execute(QueryRequest::Range(query, QueryMethod::kRbm));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.binary_images_checked, 3);
  EXPECT_EQ(result->stats.edited_images_bounded, 2);
  EXPECT_EQ(result->stats.rules_applied, 5);

  // BWM: both scripts are all-widening and their base satisfies the
  // query, so the whole Main cluster is accepted rule-free.
  result = service.Execute(QueryRequest::Range(query, QueryMethod::kBwm));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.edited_images_skipped, 2);
  EXPECT_EQ(result->stats.edited_images_bounded, 0);
  EXPECT_EQ(result->stats.rules_applied, 0);

  // Service-level counters aggregate both observations.
  const auto snapshot = service.Snapshot();
  EXPECT_EQ(snapshot.queries, 2);
  EXPECT_EQ(snapshot.batches, 2);
  EXPECT_EQ(snapshot.range_queries, 2);
  EXPECT_EQ(snapshot.stats.binary_images_checked, 6);
  EXPECT_EQ(snapshot.stats.edited_images_bounded, 2);
  EXPECT_EQ(snapshot.stats.edited_images_skipped, 2);
  EXPECT_EQ(snapshot.stats.rules_applied, 5);
  EXPECT_EQ(snapshot.queries_per_method.at(QueryMethod::kRbm), 1);
  EXPECT_EQ(snapshot.queries_per_method.at(QueryMethod::kBwm), 1);
  EXPECT_GE(snapshot.total_query_seconds, 0.0);
  EXPECT_GE(snapshot.max_query_seconds, 0.0);

  service.ResetCounters();
  EXPECT_EQ(service.Snapshot().queries, 0);
}

TEST(QueryServiceTest, MalformedAndFailingRequestsAreCounted) {
  auto db = MakeDataset(10, 2401);
  QueryService service(db.get(), QueryServiceOptions{2, {}});

  // An empty conjunction is rejected by every processor.
  auto result = service.Execute(
      QueryRequest::Conjunctive(ConjunctiveQuery{}, QueryMethod::kRbm));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  RangeQuery bad_bin;
  bad_bin.bin = 10000;
  result = service.Execute(QueryRequest::Range(bad_bin, QueryMethod::kRbm));
  EXPECT_FALSE(result.ok());

  // A similarity request with mismatched histogram arity fails too.
  SimilarityQuery bad_similarity;
  bad_similarity.histogram = ColorHistogram(db->quantizer().BinCount() + 1);
  bad_similarity.histogram.Add(0, 1);
  result = service.Execute(QueryRequest::Similarity(bad_similarity));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  const auto snapshot = service.Snapshot();
  EXPECT_EQ(snapshot.queries, 3);
  EXPECT_EQ(snapshot.failed_queries, 3);
  EXPECT_EQ(snapshot.similarity_queries, 1);
}

TEST(QueryServiceTest, DefaultRequestIsMatchAllRange) {
  // A default-constructed request is the widest range query: bin 0 over
  // [0, 1] — valid, matches every image.
  auto db = MakeDataset(10, 2405);
  QueryService service(db.get(), QueryServiceOptions{2, {}});
  QueryRequest request;
  auto result = service.Execute(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ids.size(), db->collection().BinaryCount() +
                                    db->collection().EditedCount());
}

TEST(QueryServiceTest, SimilarityThroughServiceMatchesFacade) {
  auto db = MakeDataset(40, 2407);
  QueryService service(db.get(), QueryServiceOptions{2, {}});

  SimilarityQuery query;
  query.histogram = ColorHistogram(db->quantizer().BinCount());
  query.histogram.Add(db->BinOf(colors::kBlue), 3);
  query.histogram.Add(db->BinOf(colors::kWhite), 1);
  query.k = 7;

  const auto direct = db->RunSimilarity(query);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  const auto served = service.Execute(QueryRequest::Similarity(query));
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  EXPECT_EQ(direct->ids, served->ids);
  ASSERT_EQ(direct->matches.size(), served->matches.size());
  for (size_t i = 0; i < direct->matches.size(); ++i) {
    EXPECT_EQ(direct->matches[i].id, served->matches[i].id);
    EXPECT_EQ(direct->matches[i].distance_lo, served->matches[i].distance_lo);
    EXPECT_EQ(direct->matches[i].distance_hi, served->matches[i].distance_hi);
    EXPECT_EQ(direct->matches[i].exact, served->matches[i].exact);
  }
  // The contract is no-false-negatives: the candidate set may exceed k
  // when edited images' intervals straddle the cutoff, never undershoot
  // it (while enough images exist).
  EXPECT_GE(served->ids.size(), 7u);

  const auto snapshot = service.Snapshot();
  EXPECT_EQ(snapshot.similarity_queries, 1);
}

TEST(QueryServiceTest, PrintableSnapshot) {
  auto db = MakeDataset(12, 2501);
  QueryService service(db.get(), QueryServiceOptions{2, {}});
  RangeQuery query;
  query.bin = 0;
  ASSERT_TRUE(
      service.Execute(QueryRequest::Range(query, QueryMethod::kBwm)).ok());
  std::ostringstream os;
  service.Snapshot().PrintTo(os);
  EXPECT_NE(os.str().find("queries"), std::string::npos);
  EXPECT_NE(os.str().find("method bwm"), std::string::npos);
  EXPECT_NE(os.str().find("rules applied"), std::string::npos);
}

TEST(QueryServiceTest, RegistryDispatchesParallelRbmThroughFacade) {
  // kParallelRbm rides the database's shared pool; answers (including
  // order) must equal the serial RBM scan.
  auto db = MakeDataset(30, 2601);
  Rng rng(2603);
  const auto workload = datasets::MakeGroundedRangeWorkload(
      db->collection(), db->quantizer(), datasets::FlagPalette(), 8, rng);
  for (const RangeQuery& query : workload) {
    const auto serial = db->RunRange(query, QueryMethod::kRbm);
    const auto pooled = db->RunRange(query, QueryMethod::kParallelRbm);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(pooled.ok());
    EXPECT_EQ(serial->ids, pooled->ids) << query.ToString();
  }
}

}  // namespace
}  // namespace mmdb
