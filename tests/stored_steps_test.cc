// Stored rule steps: the collection plans every operation's geometry once
// at insert, and the per-query walk over those steps
// (`AugmentedCollection::StoredBounds`) equals a from-scratch
// `ComputeRuleState` for every bin — sound and paper-strict, through
// binary and edited merge targets, after deletes, slot reuse and reopen.
// kRbm, kBwm, kParallelRbm and kBwmIndexed answer with the ids, order and
// work counters of a per-query `ComputeBounds` reference.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/database.h"
#include "datasets/augment.h"
#include "test_util.h"

namespace mmdb {
namespace {

/// A merge-target resolver that shares nothing with the collection's
/// stored steps: an edited target is re-planned and re-folded from its
/// script for every bin, recursively.
struct ReferenceResolver {
  const AugmentedCollection* collection;
  const RuleEngine* engine;

  Result<TargetBounds> operator()(ObjectId id, BinIndex hb) const {
    TargetBounds out;
    if (const BinaryImageInfo* binary = collection->FindBinary(id)) {
      out.hb_min = out.hb_max = binary->histogram.Count(hb);
      out.size = binary->histogram.Total();
      out.width = binary->width;
      out.height = binary->height;
      return out;
    }
    const EditedImageInfo* edited = collection->FindEdited(id);
    if (edited == nullptr) return Status::NotFound("merge target");
    MMDB_ASSIGN_OR_RETURN(RuleState state, Reference(*edited, hb));
    out.hb_min = state.hb_min;
    out.hb_max = state.hb_max;
    out.size = state.size;
    out.width = state.width;
    out.height = state.height;
    return out;
  }

  Result<RuleState> Reference(const EditedImageInfo& info,
                              BinIndex hb) const {
    const BinaryImageInfo* base = collection->FindBinary(info.script.base_id);
    if (base == nullptr) return Status::NotFound("base");
    return ComputeRuleState(*engine, info.script, hb, base->histogram.Count(hb),
                            base->width, base->height, *this);
  }

  Result<FractionBounds> Bounds(const EditedImageInfo& info,
                                BinIndex hb) const {
    MMDB_ASSIGN_OR_RETURN(RuleState state, Reference(info, hb));
    return ToFractionBounds(state);
  }
};

/// Every stored walk of `db` equals the reference fold, bin for bin, and
/// so does the collection's own merge-target resolver.
void ExpectWalksMatchReference(const MultimediaDatabase& db) {
  const AugmentedCollection& collection = db.collection();
  const ReferenceResolver reference{&collection, &db.rule_engine()};
  const TargetBoundsResolver resolver =
      collection.MakeTargetResolver(db.rule_engine());
  for (const EditedImageInfo* info : collection.edited_infos()) {
    EXPECT_EQ(collection.StepCount(info->slot),
              static_cast<int64_t>(info->script.ops.size()));
    for (BinIndex bin = 0; bin < db.quantizer().BinCount(); ++bin) {
      const Result<RuleState> expected = reference.Reference(*info, bin);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      const Result<FractionBounds> walked =
          collection.StoredBounds(info->slot, bin);
      ASSERT_TRUE(walked.ok()) << walked.status().ToString();
      const FractionBounds want = ToFractionBounds(*expected);
      EXPECT_EQ(walked->min_fraction, want.min_fraction)
          << info->id << " bin " << bin;
      EXPECT_EQ(walked->max_fraction, want.max_fraction)
          << info->id << " bin " << bin;
      const Result<TargetBounds> target = resolver(info->id, bin);
      ASSERT_TRUE(target.ok()) << target.status().ToString();
      EXPECT_EQ(target->hb_min, expected->hb_min) << info->id << " bin " << bin;
      EXPECT_EQ(target->hb_max, expected->hb_max) << info->id << " bin " << bin;
      EXPECT_EQ(target->size, expected->size) << info->id;
      EXPECT_EQ(target->width, expected->width) << info->id;
      EXPECT_EQ(target->height, expected->height) << info->id;
    }
  }
}

/// Random scripts that merge into binary images and earlier edited images,
/// plus a chain of merges into edited targets.
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

/// Merges into binary and into edited targets, counted over the corpus.
std::pair<int, int> CountMerges(const AugmentedCollection& collection) {
  int into_binary = 0;
  int into_edited = 0;
  for (const EditedImageInfo* info : collection.edited_infos()) {
    for (const EditOp& op : info->script.ops) {
      const MergeOp* merge = std::get_if<MergeOp>(&op);
      if (merge == nullptr || !merge->target.has_value()) continue;
      if (collection.FindBinary(*merge->target) != nullptr) ++into_binary;
      if (collection.FindEdited(*merge->target) != nullptr) ++into_edited;
    }
  }
  return {into_binary, into_edited};
}

class StoredStepsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoredStepsProperty, WalkEqualsComputeRuleStateInBothModes) {
  for (const bool paper_strict : {false, true}) {
    DatabaseOptions options;
    options.rule_options.paper_strict = paper_strict;
    auto db = MultimediaDatabase::Open(options).value();
    FillCorpus(db.get(), GetParam());
    const auto [into_binary, into_edited] = CountMerges(db->collection());
    ASSERT_GE(into_binary, 1);
    ASSERT_GE(into_edited, 3);
    ExpectWalksMatchReference(*db);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, StoredStepsProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

TEST(StoredStepsTest, WalksSurviveDeletesSlotReuseAndReopen) {
  const std::string path = ::testing::TempDir() + "/mmdb_stored_steps_" +
                           std::to_string(::getpid()) + ".db";
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
  DatabaseOptions options;
  options.path = path;
  {
    auto db = MultimediaDatabase::Open(options).value();
    FillCorpus(db.get(), 17);
    // Delete every other image nothing references (the collection refuses
    // the rest), then insert new ones into the freed slots, merging into
    // surviving edited targets.
    std::vector<ObjectId> deleted;
    const std::vector<ObjectId> ids = db->collection().edited_ids();
    for (size_t i = 0; i < ids.size(); i += 2) {
      if (db->collection().CheckUnreferenced(ids[i]).ok()) {
        ASSERT_TRUE(db->DeleteImage(ids[i]).ok());
        deleted.push_back(ids[i]);
      } else {
        EXPECT_EQ(db->DeleteImage(ids[i]).code(),
                  StatusCode::kInvalidArgument);
      }
    }
    ASSERT_GE(deleted.size(), 4u);
    ExpectWalksMatchReference(*db);
    const ObjectId target = db->collection().edited_ids().back();
    for (ObjectId base : db->collection().binary_ids()) {
      EditScript script;
      script.base_id = base;
      script.ops.emplace_back(ModifyOp{colors::kBlue, colors::kRed});
      script.ops.emplace_back(DefineOp{Rect(0, 0, 5, 5)});
      MergeOp merge;
      merge.target = target;
      script.ops.emplace_back(merge);
      ASSERT_TRUE(db->InsertEditedImage(script).ok());
    }
    ExpectWalksMatchReference(*db);
    ASSERT_TRUE(db->Flush().ok());
  }
  auto db = MultimediaDatabase::Open(options).value();
  ExpectWalksMatchReference(*db);
  db.reset();
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
}

/// What a per-query `ComputeBounds` scan answers: kRbm's ids, order and
/// counters (paper Section 3).
QueryResult ReferenceRbm(const MultimediaDatabase& db,
                         const RangeQuery& query) {
  const AugmentedCollection& collection = db.collection();
  const ReferenceResolver reference{&collection, &db.rule_engine()};
  QueryResult out;
  for (ObjectId id : collection.binary_ids()) {
    ++out.stats.binary_images_checked;
    if (query.Satisfies(
            collection.FindBinary(id)->histogram.Fraction(query.bin))) {
      out.ids.push_back(id);
    }
  }
  for (const EditedImageInfo* info : collection.edited_infos()) {
    const FractionBounds bounds = reference.Bounds(*info, query.bin).value();
    ++out.stats.edited_images_bounded;
    out.stats.rules_applied += static_cast<int64_t>(info->script.ops.size());
    if (bounds.Overlaps(query.min_fraction, query.max_fraction)) {
      out.ids.push_back(info->id);
    }
  }
  return out;
}

/// The same for kBwm (paper Figure 2).
QueryResult ReferenceBwm(const MultimediaDatabase& db,
                         const RangeQuery& query) {
  const AugmentedCollection& collection = db.collection();
  const ReferenceResolver reference{&collection, &db.rule_engine()};
  QueryResult out;
  auto bound = [&](ObjectId id) {
    const EditedImageInfo* info = collection.FindEdited(id);
    const FractionBounds bounds = reference.Bounds(*info, query.bin).value();
    ++out.stats.edited_images_bounded;
    out.stats.rules_applied += static_cast<int64_t>(info->script.ops.size());
    if (bounds.Overlaps(query.min_fraction, query.max_fraction)) {
      out.ids.push_back(id);
    }
  };
  for (const BwmIndex::Cluster& cluster : db.bwm_index().MainClusters()) {
    ++out.stats.binary_images_checked;
    if (query.Satisfies(collection.FindBinary(cluster.base_id)
                            ->histogram.Fraction(query.bin))) {
      out.ids.push_back(cluster.base_id);
      out.ids.insert(out.ids.end(), cluster.edited_ids.begin(),
                     cluster.edited_ids.end());
      out.stats.edited_images_skipped +=
          static_cast<int64_t>(cluster.edited_ids.size());
    } else {
      for (ObjectId id : cluster.edited_ids) bound(id);
    }
  }
  for (ObjectId id : db.bwm_index().Unclassified()) bound(id);
  return out;
}

void ExpectSameWork(const QueryResult& got, const QueryResult& want,
                    const std::string& what) {
  EXPECT_EQ(got.stats.rules_applied, want.stats.rules_applied) << what;
  EXPECT_EQ(got.stats.edited_images_bounded, want.stats.edited_images_bounded)
      << what;
  EXPECT_EQ(got.stats.edited_images_skipped, want.stats.edited_images_skipped)
      << what;
}

/// `ids` without the binary images of `db`, order kept.
std::vector<ObjectId> EditedOnly(const MultimediaDatabase& db,
                                 const std::vector<ObjectId>& ids) {
  std::vector<ObjectId> out;
  for (ObjectId id : ids) {
    if (db.collection().FindEdited(id) != nullptr) out.push_back(id);
  }
  return out;
}

class StoredStepsMethods : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoredStepsMethods, MatchPerQueryComputeBoundsReference) {
  for (const datasets::DatasetKind kind :
       {datasets::DatasetKind::kHelmets, datasets::DatasetKind::kFlags}) {
    auto db = MultimediaDatabase::Open().value();
    datasets::DatasetSpec spec;
    spec.kind = kind;
    spec.total_images = 120;
    spec.edited_fraction = 0.75;
    spec.widening_probability = 0.6;
    spec.seed = GetParam();
    ASSERT_TRUE(datasets::BuildAugmentedDatabase(db.get(), spec).ok());
    Rng rng(GetParam() * 31 + 5);
    const std::vector<RangeQuery> windows = datasets::MakeGroundedRangeWorkload(
        db->collection(), db->quantizer(), datasets::PaletteFor(kind), 10,
        rng);
    ASSERT_GE(windows.size(), 3u);
    for (const RangeQuery& window : windows) {
      const std::string what = window.ToString();
      const QueryResult rbm_want = ReferenceRbm(*db, window);
      const QueryResult bwm_want = ReferenceBwm(*db, window);
      for (QueryMethod method :
           {QueryMethod::kRbm, QueryMethod::kParallelRbm}) {
        const Result<QueryResult> got = db->RunRange(window, method);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->ids, rbm_want.ids) << what;
        EXPECT_EQ(got->stats.binary_images_checked,
                  rbm_want.stats.binary_images_checked)
            << what;
        ExpectSameWork(*got, rbm_want, what);
      }
      const Result<QueryResult> bwm = db->RunRange(window, QueryMethod::kBwm);
      ASSERT_TRUE(bwm.ok()) << bwm.status().ToString();
      EXPECT_EQ(bwm->ids, bwm_want.ids) << what;
      EXPECT_EQ(bwm->stats.binary_images_checked,
                bwm_want.stats.binary_images_checked)
          << what;
      ExpectSameWork(*bwm, bwm_want, what);
      // kBwmIndexed reads the binary side from the R-tree, so its binary
      // ids and count follow the index; its edited side is Figure 2's.
      const Result<QueryResult> indexed =
          db->RunRange(window, QueryMethod::kBwmIndexed);
      ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
      EXPECT_EQ(testing::AsSet(indexed->ids), testing::AsSet(bwm_want.ids))
          << what;
      EXPECT_EQ(EditedOnly(*db, indexed->ids), EditedOnly(*db, bwm_want.ids))
          << what;
      ExpectSameWork(*indexed, bwm_want, what);
      // No false negatives against the instantiated ground truth.
      const Result<QueryResult> truth =
          db->RunRange(window, QueryMethod::kInstantiate);
      ASSERT_TRUE(truth.ok());
      const std::set<ObjectId> answer = testing::AsSet(bwm->ids);
      for (ObjectId id : truth->ids) EXPECT_EQ(answer.count(id), 1u) << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, StoredStepsMethods,
                         ::testing::Range(uint64_t{1}, uint64_t{4}));

}  // namespace
}  // namespace mmdb
