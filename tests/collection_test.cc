#include <gtest/gtest.h>

#include "core/collection.h"
#include "core/database.h"
#include "core/histogram.h"

namespace mmdb {
namespace {

BinaryImageInfo MakeBinary(ObjectId id, Rgb color, int32_t side = 4) {
  BinaryImageInfo info;
  info.id = id;
  info.width = side;
  info.height = side;
  info.histogram = ExtractHistogram(Image(side, side, color),
                                    ColorQuantizer(4));
  return info;
}

EditedImageInfo MakeEdited(ObjectId id, ObjectId base_id) {
  EditedImageInfo info;
  info.id = id;
  info.script.base_id = base_id;
  info.script.ops.emplace_back(ModifyOp{colors::kRed, colors::kBlue});
  return info;
}

/// Registers `info` with its fold, as the facade does. When the fold
/// fails (no such base), the fold passed is empty, which `AddEdited`
/// never reads: it refuses the image for the missing base.
Status AddEdited(AugmentedCollection& collection, EditedImageInfo info) {
  static const ColorQuantizer quantizer(4);
  static const RuleEngine engine(quantizer);
  Result<FoldedScript> folded = collection.Fold(engine, info.script);
  return collection.AddEdited(std::move(info),
                              folded.ok() ? *folded : FoldedScript{});
}

TEST(CollectionTest, AddAndFind) {
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(MakeBinary(1, colors::kRed)).ok());
  ASSERT_TRUE(AddEdited(collection, MakeEdited(2, 1)).ok());
  EXPECT_NE(collection.FindBinary(1), nullptr);
  EXPECT_EQ(collection.FindBinary(2), nullptr);
  EXPECT_NE(collection.FindEdited(2), nullptr);
  EXPECT_EQ(collection.FindEdited(1), nullptr);
  EXPECT_EQ(collection.BinaryCount(), 1u);
  EXPECT_EQ(collection.EditedCount(), 1u);
}

TEST(CollectionTest, RejectsZeroIds) {
  AugmentedCollection collection;
  EXPECT_EQ(collection.AddBinary(MakeBinary(0, colors::kRed)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AddEdited(collection, MakeEdited(0, 1)).code(),
            StatusCode::kInvalidArgument);
}

TEST(CollectionTest, RejectsDuplicateIdsAcrossKinds) {
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(MakeBinary(1, colors::kRed)).ok());
  EXPECT_EQ(collection.AddBinary(MakeBinary(1, colors::kBlue)).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(AddEdited(collection, MakeEdited(2, 1)).ok());
  EXPECT_EQ(AddEdited(collection, MakeEdited(2, 1)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(collection.AddBinary(MakeBinary(2, colors::kRed)).code(),
            StatusCode::kAlreadyExists);
}

TEST(CollectionTest, EditedRequiresStoredBase) {
  AugmentedCollection collection;
  EXPECT_EQ(AddEdited(collection, MakeEdited(2, 1)).code(),
            StatusCode::kNotFound);
}

TEST(CollectionTest, MaintainsConnections) {
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(MakeBinary(1, colors::kRed)).ok());
  ASSERT_TRUE(collection.AddBinary(MakeBinary(2, colors::kBlue)).ok());
  ASSERT_TRUE(AddEdited(collection, MakeEdited(3, 1)).ok());
  ASSERT_TRUE(AddEdited(collection, MakeEdited(4, 1)).ok());
  ASSERT_TRUE(AddEdited(collection, MakeEdited(5, 2)).ok());
  EXPECT_EQ(collection.EditedOf(1), (std::vector<ObjectId>{3, 4}));
  EXPECT_EQ(collection.EditedOf(2), std::vector<ObjectId>{5});
  EXPECT_TRUE(collection.EditedOf(99).empty());
}

TEST(CollectionTest, RemoveBinaryRefusesWhileAMergeTarget) {
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(MakeBinary(1, colors::kRed)).ok());
  ASSERT_TRUE(collection.AddBinary(MakeBinary(2, colors::kBlue)).ok());
  EditedImageInfo merging = MakeEdited(3, 1);
  MergeOp into_binary;
  into_binary.target = 2;
  merging.script.ops.emplace_back(into_binary);
  ASSERT_TRUE(AddEdited(collection, merging).ok());
  EXPECT_EQ(collection.RemoveBinary(2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(collection.RemoveBinary(1).code(), StatusCode::kInvalidArgument);
  EXPECT_NE(collection.FindBinary(2), nullptr);
  ASSERT_TRUE(collection.RemoveEdited(3).ok());
  EXPECT_TRUE(collection.RemoveBinary(2).ok());
  EXPECT_TRUE(collection.RemoveBinary(1).ok());
  EXPECT_TRUE(collection.binary_ids().empty());
  EXPECT_TRUE(collection.binary_infos().empty());
}

TEST(CollectionTest, RemoveEditedRefusesWhileAMergeTarget) {
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(MakeBinary(1, colors::kRed)).ok());
  ASSERT_TRUE(AddEdited(collection, MakeEdited(2, 1)).ok());
  EditedImageInfo merging = MakeEdited(3, 1);
  MergeOp into_edited;
  into_edited.target = 2;
  merging.script.ops.emplace_back(into_edited);
  merging.script.ops.emplace_back(into_edited);  // Twice: one referrer.
  ASSERT_TRUE(AddEdited(collection, merging).ok());
  EXPECT_EQ(collection.CheckUnreferenced(2).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(collection.RemoveEdited(2).code(), StatusCode::kInvalidArgument);
  EXPECT_NE(collection.FindEdited(2), nullptr);
  ASSERT_TRUE(collection.RemoveEdited(3).ok());
  EXPECT_TRUE(collection.CheckUnreferenced(2).ok());
  EXPECT_TRUE(collection.RemoveEdited(2).ok());
  EXPECT_TRUE(collection.edited_ids().empty());
  EXPECT_TRUE(collection.edited_slots().empty());
}

TEST(CollectionTest, InfoColumnsStayParallelToIds) {
  AugmentedCollection collection;
  for (ObjectId id : {5, 3, 9}) {
    ASSERT_TRUE(collection.AddBinary(MakeBinary(id, colors::kRed)).ok());
  }
  for (ObjectId id : {10, 11, 12}) {
    ASSERT_TRUE(AddEdited(collection, MakeEdited(id, 3)).ok());
  }
  ASSERT_TRUE(collection.RemoveEdited(11).ok());
  ASSERT_TRUE(collection.RemoveBinary(9).ok());
  ASSERT_TRUE(AddEdited(collection, MakeEdited(13, 5)).ok());
  ASSERT_EQ(collection.binary_infos().size(), collection.binary_ids().size());
  for (size_t i = 0; i < collection.binary_ids().size(); ++i) {
    EXPECT_EQ(collection.binary_infos()[i],
              collection.FindBinary(collection.binary_ids()[i]));
  }
  EXPECT_EQ(collection.edited_ids(), (std::vector<ObjectId>{10, 12, 13}));
  ASSERT_EQ(collection.edited_slots().size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    const EditedImageInfo* info =
        collection.FindEdited(collection.edited_ids()[i]);
    EXPECT_EQ(collection.edited_infos()[i], info);
    EXPECT_EQ(collection.edited_slots()[i], info->slot);
  }
  // Image 13 reused image 11's slot.
  EXPECT_EQ(collection.FindEdited(13)->slot, 1u);
  EXPECT_EQ(&collection.BaseOf(*collection.FindEdited(13)),
            collection.FindBinary(5));
}

TEST(CollectionTest, PreservesInsertionOrder) {
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(MakeBinary(5, colors::kRed)).ok());
  ASSERT_TRUE(collection.AddBinary(MakeBinary(3, colors::kBlue)).ok());
  EXPECT_EQ(collection.binary_ids(), (std::vector<ObjectId>{5, 3}));
}

TEST(CollectionTest, TargetResolverBinaryIsExact) {
  const ColorQuantizer quantizer(4);
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(MakeBinary(1, colors::kRed, 6)).ok());
  const RuleEngine engine(quantizer);
  const TargetBoundsResolver resolver =
      collection.MakeTargetResolver(engine);
  const BinIndex red_bin = quantizer.BinOf(colors::kRed);
  Result<TargetBounds> bounds = resolver(1, red_bin);
  ASSERT_TRUE(bounds.ok());
  EXPECT_EQ(bounds->hb_min, 36);
  EXPECT_EQ(bounds->hb_max, 36);
  EXPECT_EQ(bounds->size, 36);
  EXPECT_EQ(bounds->width, 6);
}

TEST(CollectionTest, TargetResolverRecursesThroughEditedTargets) {
  const ColorQuantizer quantizer(4);
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(MakeBinary(1, colors::kRed, 6)).ok());
  // Edited image 2: recolors red -> blue over the whole canvas.
  EditedImageInfo edited;
  edited.id = 2;
  edited.script.base_id = 1;
  edited.script.ops.emplace_back(ModifyOp{colors::kRed, colors::kBlue});
  ASSERT_TRUE(AddEdited(collection, edited).ok());

  const RuleEngine engine(quantizer);
  const TargetBoundsResolver resolver =
      collection.MakeTargetResolver(engine);
  const BinIndex red_bin = quantizer.BinOf(colors::kRed);
  Result<TargetBounds> bounds = resolver(2, red_bin);
  ASSERT_TRUE(bounds.ok());
  // All 36 red pixels may have left the bin.
  EXPECT_EQ(bounds->hb_min, 0);
  EXPECT_EQ(bounds->hb_max, 36);
  EXPECT_EQ(bounds->size, 36);
}

// Regression: the resolver used to capture a shared_ptr to itself, so
// every resolver — one per kRbm / kBwm processor, i.e. per query — leaked.
// LeakSanitizer (the CI address-sanitizer job) reports any resolver this
// test leaves behind, including those recursing through edited targets.
TEST(CollectionTest, TargetResolversAreReleased) {
  const ColorQuantizer quantizer(4);
  AugmentedCollection collection;
  ASSERT_TRUE(collection.AddBinary(MakeBinary(1, colors::kRed, 6)).ok());
  ASSERT_TRUE(AddEdited(collection, MakeEdited(2, 1)).ok());
  EditedImageInfo merging;
  merging.id = 3;
  merging.script.base_id = 1;
  MergeOp into_edited;
  into_edited.target = 2;
  merging.script.ops.emplace_back(into_edited);
  ASSERT_TRUE(AddEdited(collection, merging).ok());
  const RuleEngine engine(quantizer);
  for (int i = 0; i < 8; ++i) {
    const TargetBoundsResolver resolver =
        collection.MakeTargetResolver(engine);
    ASSERT_TRUE(resolver(3, quantizer.BinOf(colors::kBlue)).ok());
  }

  auto db = MultimediaDatabase::Open().value();
  const ObjectId base =
      db->InsertBinaryImage(Image(6, 6, colors::kRed)).value();
  EditScript recolor;
  recolor.base_id = base;
  recolor.ops.emplace_back(ModifyOp{colors::kRed, colors::kBlue});
  EditScript merge = recolor;
  into_edited.target = db->InsertEditedImage(recolor).value();
  merge.ops.emplace_back(into_edited);
  ASSERT_TRUE(db->InsertEditedImage(merge).ok());
  RangeQuery query;
  query.bin = db->BinOf(colors::kBlue);
  for (QueryMethod method : {QueryMethod::kRbm, QueryMethod::kBwm}) {
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(db->RunRange(query, method).ok());
  }
}

TEST(CollectionTest, TargetResolverReportsMissingTarget) {
  const ColorQuantizer quantizer(4);
  AugmentedCollection collection;
  const RuleEngine engine(quantizer);
  const TargetBoundsResolver resolver =
      collection.MakeTargetResolver(engine);
  EXPECT_EQ(resolver(42, 0).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mmdb
