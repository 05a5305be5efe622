// Stored interval rows and the kInterval access path: every edited
// image's row equals the per-bin Table 1 fold (sound and paper-strict,
// through binary and edited merge targets, after reopen and deletes),
// kInterval answers exactly what kRbm answers, in kRbm's order, embedded,
// over loopback and across shards, and top-k intervals read from rows are
// bit-identical to intervals recomputed from `ComputeBounds`.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/database.h"
#include "core/query_service.h"
#include "core/similarity.h"
#include "datasets/augment.h"
#include "net/client.h"
#include "net/server.h"
#include "shard/backend.h"
#include "shard/coordinator.h"
#include "shard/sharded_db.h"
#include "storage/catalog.h"
#include "storage/object_store.h"
#include "test_util.h"

namespace mmdb {
namespace {

/// Checks every stored row of `db` against the per-bin fold through the
/// collection's recursive merge-target resolver.
void ExpectRowsMatchPerBinFolds(const MultimediaDatabase& db) {
  const AugmentedCollection& collection = db.collection();
  const RuleEngine& engine = db.rule_engine();
  const TargetBoundsResolver resolver = collection.MakeTargetResolver(engine);
  const BinIndex bins = db.quantizer().BinCount();
  for (const EditedImageInfo* info : collection.edited_infos()) {
    const BinaryImageInfo* base = collection.FindBinary(info->script.base_id);
    ASSERT_NE(base, nullptr);
    const IntervalRowView row = collection.RowOf(*info);
    ASSERT_NE(row.bins, nullptr) << info->id;
    for (BinIndex bin = 0; bin < bins; ++bin) {
      const Result<RuleState> state = ComputeRuleState(
          engine, info->script, bin, base->histogram.Count(bin), base->width,
          base->height, resolver);
      ASSERT_TRUE(state.ok()) << state.status().ToString();
      const IntervalBin& stored = row.bins[static_cast<size_t>(bin)];
      EXPECT_EQ(stored.min, state->hb_min) << info->id << " bin " << bin;
      EXPECT_EQ(stored.max, state->hb_max) << info->id << " bin " << bin;
      EXPECT_EQ(row.size, state->size) << info->id;
      EXPECT_EQ(row.width, state->width) << info->id;
      EXPECT_EQ(row.height, state->height) << info->id;
    }
  }
}

/// A copy of `info`'s stored row, outliving the collection.
IntervalRow CopyRow(const MultimediaDatabase& db, const EditedImageInfo& info) {
  const IntervalRowView view = db.collection().RowOf(info);
  return IntervalRow{
      std::vector<IntervalBin>(
          view.bins, view.bins + db.quantizer().BinCount()),
      view.size, view.width, view.height};
}

/// Random block images, random scripts that merge into binary images and
/// into earlier edited images, plus a deterministic chain of merges into
/// edited targets so every seed covers that case.
void FillCorpus(MultimediaDatabase* db, uint64_t seed) {
  Rng rng(seed);
  std::vector<datasets::MergeTarget> binaries;
  for (int i = 0; i < 5; ++i) {
    const int32_t w = static_cast<int32_t>(rng.UniformInt(10, 24));
    const int32_t h = static_cast<int32_t>(rng.UniformInt(10, 24));
    const ObjectId id =
        db->InsertBinaryImage(testing::RandomBlockImage(w, h, 6, rng)).value();
    binaries.push_back({id, w, h});
  }
  std::vector<datasets::MergeTarget> targets = binaries;
  auto insert = [&](const EditScript& script) {
    const ObjectId id = db->InsertEditedImage(script).value();
    const IntervalRowView row =
        db->collection().RowOf(*db->collection().FindEdited(id));
    if (row.width > 0 && row.height > 0) {
      targets.push_back({id, row.width, row.height});
    }
    return id;
  };
  for (int i = 0; i < 30; ++i) {
    const datasets::MergeTarget& base = binaries[rng.Uniform(binaries.size())];
    insert(testing::RandomScript(base.id, base.width, base.height,
                                 static_cast<int>(rng.UniformInt(1, 6)),
                                 targets, rng));
  }
  EditScript first;
  first.base_id = binaries[0].id;
  first.ops.emplace_back(ModifyOp{colors::kRed, colors::kBlue});
  ObjectId previous = insert(first);
  for (int i = 1; i < 4; ++i) {
    EditScript next;
    next.base_id = binaries[static_cast<size_t>(i)].id;
    next.ops.emplace_back(DefineOp{Rect(1, 1, 7, 6)});
    MergeOp merge;
    merge.target = previous;
    merge.x = i;
    merge.y = 2;
    next.ops.emplace_back(merge);
    previous = insert(next);
  }
}

int MergesIntoEditedTargets(const AugmentedCollection& collection) {
  int merges = 0;
  for (const EditedImageInfo* info : collection.edited_infos()) {
    for (const EditOp& op : info->script.ops) {
      const MergeOp* merge = std::get_if<MergeOp>(&op);
      if (merge != nullptr && merge->target.has_value() &&
          collection.FindEdited(*merge->target) != nullptr) {
        ++merges;
      }
    }
  }
  return merges;
}

std::string UniqueStorePath(const std::string& name) {
  return ::testing::TempDir() + "/mmdb_" + name + "_" +
         std::to_string(::getpid()) + ".db";
}

void RemoveStoreFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
}

class IntervalRowProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalRowProperty, RowsEqualPerBinFoldsInBothModes) {
  for (const bool paper_strict : {false, true}) {
    DatabaseOptions options;
    options.rule_options.paper_strict = paper_strict;
    auto db = MultimediaDatabase::Open(options).value();
    FillCorpus(db.get(), GetParam());
    ASSERT_GE(MergesIntoEditedTargets(db->collection()), 3);
    ExpectRowsMatchPerBinFolds(*db);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, IntervalRowProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

TEST(IntervalRowTest, RowsSurviveReopenAndDeletes) {
  const std::string path = UniqueStorePath("interval_reopen");
  RemoveStoreFiles(path);
  std::vector<std::pair<ObjectId, IntervalRow>> kept;
  {
    DatabaseOptions options;
    options.path = path;
    auto db = MultimediaDatabase::Open(options).value();
    FillCorpus(db.get(), 11);
    // Delete every other edited image nothing merges into, insert new
    // ones, then keep every row for comparison.
    std::vector<ObjectId> deletable;
    for (ObjectId id : db->collection().edited_ids()) {
      bool referenced = false;
      for (const EditedImageInfo* other : db->collection().edited_infos()) {
        for (const EditOp& op : other->script.ops) {
          const MergeOp* merge = std::get_if<MergeOp>(&op);
          referenced |= merge != nullptr && merge->target == id;
        }
      }
      if (!referenced) deletable.push_back(id);
    }
    ASSERT_GE(deletable.size(), 4u);
    for (size_t i = 0; i < deletable.size(); i += 2) {
      ASSERT_TRUE(db->DeleteImage(deletable[i]).ok());
    }
    // New images reuse the freed row slots.
    for (ObjectId base : db->collection().binary_ids()) {
      EditScript script;
      script.base_id = base;
      script.ops.emplace_back(ModifyOp{colors::kBlue, colors::kRed});
      ASSERT_TRUE(db->InsertEditedImage(script).ok());
    }
    ExpectRowsMatchPerBinFolds(*db);
    for (const EditedImageInfo* info : db->collection().edited_infos()) {
      kept.emplace_back(info->id, CopyRow(*db, *info));
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  DatabaseOptions options;
  options.path = path;
  auto db = MultimediaDatabase::Open(options).value();
  ASSERT_EQ(db->collection().EditedCount(), kept.size());
  for (const auto& [id, row] : kept) {
    const EditedImageInfo* info = db->collection().FindEdited(id);
    ASSERT_NE(info, nullptr) << id;
    const IntervalRow reloaded = CopyRow(*db, *info);
    EXPECT_EQ(reloaded.size, row.size);
    EXPECT_EQ(reloaded.width, row.width);
    EXPECT_EQ(reloaded.height, row.height);
    ASSERT_EQ(reloaded.bins.size(), row.bins.size());
    for (size_t bin = 0; bin < row.bins.size(); ++bin) {
      EXPECT_EQ(reloaded.bins[bin].min, row.bins[bin].min);
      EXPECT_EQ(reloaded.bins[bin].max, row.bins[bin].max);
    }
  }
  ExpectRowsMatchPerBinFolds(*db);
  db.reset();
  RemoveStoreFiles(path);
}

TEST(IntervalRowTest, ImageTooLargeForARowIsRejectedAtInsert) {
  auto db = MultimediaDatabase::Open().value();
  const ObjectId base =
      db->InsertBinaryImage(Image(4, 4, colors::kRed)).value();
  EditScript huge;
  huge.base_id = base;
  huge.ops.emplace_back(MutateOp::Scale(20000.0, 20000.0));  // 6.4e9 pixels.
  EXPECT_EQ(db->InsertEditedImage(huge).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(db->collection().EditedCount(), 0u);
  EditScript fits = huge;
  fits.ops[0] = MutateOp::Scale(100.0, 100.0);
  EXPECT_TRUE(db->InsertEditedImage(fits).ok());
}

// A reload folds each edited image's row from its base and merge targets.
// When one of those was quarantined (its catalog row is unreadable), the
// row cannot be folded and the pixels cannot be rebuilt, so the dependent
// image is quarantined too — transitively — and the rest of the database
// opens and answers as before.
TEST(IntervalRowTest, ReloadQuarantinesDependentsOfAQuarantinedImage) {
  const std::string path = UniqueStorePath("interval_quarantine");
  RemoveStoreFiles(path);
  ObjectId corrupt = kInvalidObjectId;
  std::vector<ObjectId> dependents;
  ObjectId survivor = kInvalidObjectId;
  {
    DatabaseOptions options;
    options.path = path;
    auto db = MultimediaDatabase::Open(options).value();
    Rng rng(23);
    corrupt =
        db->InsertBinaryImage(testing::RandomBlockImage(12, 10, 4, rng))
            .value();
    const ObjectId other =
        db->InsertBinaryImage(testing::RandomBlockImage(14, 9, 4, rng))
            .value();
    EditScript on_corrupt_base;
    on_corrupt_base.base_id = corrupt;
    on_corrupt_base.ops.emplace_back(ModifyOp{colors::kRed, colors::kGold});
    dependents.push_back(db->InsertEditedImage(on_corrupt_base).value());
    EditScript into_corrupt;
    into_corrupt.base_id = other;
    MergeOp merge;
    merge.target = corrupt;
    into_corrupt.ops.emplace_back(merge);
    dependents.push_back(db->InsertEditedImage(into_corrupt).value());
    EditScript transitive;
    transitive.base_id = other;
    merge.target = dependents.front();
    transitive.ops.emplace_back(merge);
    dependents.push_back(db->InsertEditedImage(transitive).value());
    EditScript unrelated;
    unrelated.base_id = other;
    unrelated.ops.emplace_back(ModifyOp{colors::kBlue, colors::kRed});
    survivor = db->InsertEditedImage(unrelated).value();
    ASSERT_TRUE(db->Flush().ok());
  }
  {
    auto store = DiskObjectStore::Open(path).value();
    ASSERT_TRUE(
        store->Upsert(catalog_keys::RowKey(corrupt), std::string("\xff\x01", 2))
            .ok());
    ASSERT_TRUE(store->Flush().ok());
  }
  DatabaseOptions options;
  options.path = path;
  auto reopened = MultimediaDatabase::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto db = std::move(reopened).value();
  std::vector<ObjectId> expected = dependents;
  expected.push_back(corrupt);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(db->QuarantinedImages(), expected);
  EXPECT_EQ(db->collection().edited_ids(), std::vector<ObjectId>{survivor});
  ExpectRowsMatchPerBinFolds(*db);
  RangeQuery all;
  all.bin = db->BinOf(colors::kRed);
  const auto interval = db->RunRange(all, QueryMethod::kInterval);
  const auto rbm = db->RunRange(all, QueryMethod::kRbm);
  ASSERT_TRUE(interval.ok()) << interval.status().ToString();
  ASSERT_TRUE(rbm.ok()) << rbm.status().ToString();
  EXPECT_EQ(interval->ids, rbm->ids);
  db.reset();
  RemoveStoreFiles(path);
}

std::unique_ptr<MultimediaDatabase> BuildAugmented(datasets::DatasetKind kind,
                                                   int images,
                                                   uint64_t seed) {
  auto db = MultimediaDatabase::Open().value();
  datasets::DatasetSpec spec;
  spec.kind = kind;
  spec.total_images = images;
  spec.edited_fraction = 0.75;
  spec.widening_probability = 0.6;
  spec.seed = seed;
  EXPECT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
  return db;
}

std::vector<ConjunctiveQuery> Conjunctions(
    const std::vector<RangeQuery>& windows) {
  std::vector<ConjunctiveQuery> out;
  for (size_t i = 0; i + 2 < windows.size(); ++i) {
    ConjunctiveQuery query;
    query.conjuncts = {windows[i], windows[i + 1]};
    if (i % 2 == 0) query.conjuncts.push_back(windows[i + 2]);
    out.push_back(query);
  }
  return out;
}

class IntervalMethodProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalMethodProperty, EqualsRbmIdsInRbmOrder) {
  for (const datasets::DatasetKind kind :
       {datasets::DatasetKind::kFlags, datasets::DatasetKind::kHelmets}) {
    auto db = BuildAugmented(kind, 120, GetParam());
    Rng rng(GetParam() * 17 + 3);
    const std::vector<RangeQuery> windows =
        datasets::MakeGroundedRangeWorkload(db->collection(), db->quantizer(),
                                            datasets::PaletteFor(kind), 10,
                                            rng);
    ASSERT_GE(windows.size(), 3u);
    for (const RangeQuery& window : windows) {
      const auto interval = db->RunRange(window, QueryMethod::kInterval);
      const auto rbm = db->RunRange(window, QueryMethod::kRbm);
      const auto truth = db->RunRange(window, QueryMethod::kInstantiate);
      ASSERT_TRUE(interval.ok()) << interval.status().ToString();
      ASSERT_TRUE(rbm.ok());
      ASSERT_TRUE(truth.ok());
      EXPECT_EQ(interval->ids, rbm->ids) << window.ToString();
      EXPECT_EQ(interval->stats.rules_applied, 0);
      EXPECT_EQ(interval->stats.edited_images_bounded,
                static_cast<int64_t>(db->collection().EditedCount()));
      // No false negatives against the instantiated ground truth.
      const std::set<ObjectId> answer = testing::AsSet(interval->ids);
      for (ObjectId id : truth->ids) EXPECT_EQ(answer.count(id), 1u) << id;
    }
    for (const ConjunctiveQuery& query : Conjunctions(windows)) {
      const auto interval = db->RunConjunctive(query, QueryMethod::kInterval);
      const auto rbm = db->RunConjunctive(query, QueryMethod::kRbm);
      const auto planned = db->RunConjunctive(query, QueryMethod::kPlanned);
      ASSERT_TRUE(interval.ok()) << interval.status().ToString();
      ASSERT_TRUE(rbm.ok());
      ASSERT_TRUE(planned.ok());
      EXPECT_EQ(interval->ids, rbm->ids) << query.ToString();
      EXPECT_EQ(testing::AsSet(planned->ids), testing::AsSet(rbm->ids))
          << query.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, IntervalMethodProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{4}));

TEST(IntervalServingTest, LoopbackAndFourShardsAnswerLikeEmbedded) {
  auto db = BuildAugmented(datasets::DatasetKind::kFlags, 100, 29);
  QueryService service(db.get());
  net::QueryServer server(db.get(), &service);
  ASSERT_TRUE(server.Start().ok());
  net::Client client = net::Client::Connect("127.0.0.1", server.port()).value();

  shard::ShardedDatabaseOptions sharded_options;
  sharded_options.shards = 4;
  auto sharded = shard::ShardedDatabase::Open(sharded_options).value();
  ASSERT_TRUE(shard::MirrorDatabase(*db, sharded.get()).ok());
  std::vector<std::unique_ptr<QueryService>> services;
  std::vector<std::vector<std::unique_ptr<shard::ShardBackend>>> backends(4);
  for (size_t s = 0; s < 4; ++s) {
    services.push_back(std::make_unique<QueryService>(sharded->shard(s)));
    backends[s].push_back(std::make_unique<shard::LocalShardBackend>(
        services.back().get(), &sharded->catalog(), s));
  }
  shard::Coordinator coordinator(std::move(backends), &sharded->catalog());

  Rng rng(31);
  const std::vector<RangeQuery> windows = datasets::MakeGroundedRangeWorkload(
      db->collection(), db->quantizer(), datasets::FlagPalette(), 6, rng);
  std::vector<QueryRequest> requests;
  for (const RangeQuery& window : windows) {
    requests.push_back(QueryRequest::Range(window, QueryMethod::kInterval));
  }
  for (const ConjunctiveQuery& query : Conjunctions(windows)) {
    requests.push_back(
        QueryRequest::Conjunctive(query, QueryMethod::kInterval));
  }
  for (const QueryRequest& request : requests) {
    const Result<QueryResult> embedded = service.Execute(request);
    ASSERT_TRUE(embedded.ok()) << embedded.status().ToString();
    const Result<QueryResult> remote = client.Execute(request);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_EQ(remote->ids, embedded->ids);
    EXPECT_EQ(remote->stats.edited_images_bounded,
              embedded->stats.edited_images_bounded);
    const Result<shard::ShardedResult> fanned = coordinator.Execute(request);
    ASSERT_TRUE(fanned.ok()) << fanned.status().ToString();
    EXPECT_TRUE(fanned->complete);
    // The coordinator emits the canonical single-store order, which for
    // sequential ids is kRbm's (and so kInterval's) order.
    EXPECT_EQ(fanned->result.ids, embedded->ids);
    EXPECT_EQ(fanned->result.stats.binary_images_checked,
              embedded->stats.binary_images_checked);
  }
  server.Stop();
}

TEST(IntervalSimilarityTest, TopKIsBitIdenticalToComputeBoundsIntervals) {
  auto db = BuildAugmented(datasets::DatasetKind::kHelmets, 90, 37);
  const AugmentedCollection& collection = db->collection();
  const RuleEngine& engine = db->rule_engine();
  const TargetBoundsResolver resolver = collection.MakeTargetResolver(engine);
  const SimilaritySearcher searcher(&collection, &engine);
  const BinIndex bins = db->quantizer().BinCount();

  Rng rng(41);
  for (int trial = 0; trial < 4; ++trial) {
    const ColorHistogram& query_histogram =
        collection
            .FindBinary(collection.binary_ids()[rng.Uniform(
                collection.BinaryCount())])
            ->histogram;
    const std::vector<double> query = query_histogram.Normalized();
    // The expected answer, with every edited interval recomputed from
    // 64 `ComputeBounds` folds.
    std::vector<SimilarityMatch> all;
    for (ObjectId id : collection.binary_ids()) {
      SimilarityMatch match;
      match.id = id;
      match.distance_lo = match.distance_hi =
          L1Distance(query_histogram, collection.FindBinary(id)->histogram);
      match.exact = true;
      all.push_back(match);
    }
    for (const EditedImageInfo* info : collection.edited_infos()) {
      const BinaryImageInfo* base = collection.FindBinary(info->script.base_id);
      std::vector<double> lo(static_cast<size_t>(bins));
      std::vector<double> hi(static_cast<size_t>(bins));
      for (BinIndex bin = 0; bin < bins; ++bin) {
        const Result<FractionBounds> bounds = ComputeBounds(
            engine, info->script, bin, base->histogram.Count(bin),
            base->width, base->height, resolver);
        ASSERT_TRUE(bounds.ok());
        lo[static_cast<size_t>(bin)] = bounds->min_fraction;
        hi[static_cast<size_t>(bin)] = bounds->max_fraction;
      }
      const auto stored = searcher.AllBinBounds(*info);
      ASSERT_TRUE(stored.ok());
      EXPECT_EQ(stored->first, lo) << info->id;
      EXPECT_EQ(stored->second, hi) << info->id;
      all.push_back(
          SimilaritySearcher::DistanceInterval(info->id, query, lo, hi));
    }
    const uint32_t k = 10;
    std::vector<double> upper;
    for (const SimilarityMatch& match : all) upper.push_back(match.distance_hi);
    std::sort(upper.begin(), upper.end());
    const double cutoff = upper[k - 1];
    std::vector<SimilarityMatch> expected;
    for (const SimilarityMatch& match : all) {
      if (match.distance_lo <= cutoff) expected.push_back(match);
    }
    std::sort(expected.begin(), expected.end(),
              [](const SimilarityMatch& a, const SimilarityMatch& b) {
                if (a.distance_lo != b.distance_lo) {
                  return a.distance_lo < b.distance_lo;
                }
                return a.id < b.id;
              });

    const Result<QueryResult> got =
        db->RunSimilarity(SimilarityQuery{query_histogram, k});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->matches.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got->matches[i].id, expected[i].id) << i;
      EXPECT_EQ(got->matches[i].distance_lo, expected[i].distance_lo) << i;
      EXPECT_EQ(got->matches[i].distance_hi, expected[i].distance_hi) << i;
      EXPECT_EQ(got->matches[i].exact, expected[i].exact) << i;
    }
    EXPECT_EQ(got->stats.rules_applied, 0);
  }
}

TEST(IntervalSimilarityTest, QueryArityMustMatchTheRows) {
  auto db = BuildAugmented(datasets::DatasetKind::kFlags, 20, 43);
  const SimilaritySearcher searcher(&db->collection(), &db->rule_engine());
  ColorHistogram narrow(8);
  narrow.Add(0, 1);
  EXPECT_EQ(searcher.Knn(narrow, 3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(searcher.WithinDistance(narrow, 0.5).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mmdb
