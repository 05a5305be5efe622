#ifndef MMDB_CORE_COLLECTION_H_
#define MMDB_CORE_COLLECTION_H_

#include <map>
#include <set>
#include <vector>

#include "core/bounds.h"
#include "core/histogram.h"
#include "core/rules.h"
#include "editops/edit_ops.h"
#include "util/result.h"

namespace mmdb {

/// Catalog entry for a conventionally stored (binary) image: its extracted
/// color histogram and dimensions. Pixels live in the object store, not
/// here — query processing never needs them.
struct BinaryImageInfo {
  ObjectId id = kInvalidObjectId;
  int32_t width = 0;
  int32_t height = 0;
  ColorHistogram histogram;
};

/// Catalog entry for an edited image stored as a sequence of editing
/// operations.
struct EditedImageInfo {
  ObjectId id = kInvalidObjectId;
  EditScript script;
  /// Where the collection keeps the image's interval row
  /// (`AugmentedCollection::RowOf`); set by `AddEdited`.
  uint32_t row_slot = 0;
};

/// The in-memory description of an augmented image database: every binary
/// image's signature plus every edited image's operation sequence, with
/// the base->edited connections the paper's Section 2 requires the MMDBMS
/// to maintain.
///
/// This is the structure the RBM and BWM query processors scan. It is
/// deliberately pixel-free; the `MultimediaDatabase` facade keeps it in
/// sync with the backing object store.
class AugmentedCollection {
 public:
  AugmentedCollection() = default;
  // `edited_infos_` points into `editeds_`' nodes: a move keeps them, a
  // copy would not.
  AugmentedCollection(const AugmentedCollection&) = delete;
  AugmentedCollection& operator=(const AugmentedCollection&) = delete;
  AugmentedCollection(AugmentedCollection&&) = default;
  AugmentedCollection& operator=(AugmentedCollection&&) = default;

  /// Registers a binary image. Fails with AlreadyExists on duplicate ids.
  Status AddBinary(BinaryImageInfo info);

  /// Registers an edited image. Its `script.base_id` must identify a
  /// binary image already present. `row` — the image's `FoldRow` — is
  /// copied into the collection's row pool.
  Status AddEdited(EditedImageInfo info, const IntervalRow& row);

  /// Removes an edited image. NotFound when absent.
  Status RemoveEdited(ObjectId id);

  /// Removes a binary image; fails with InvalidArgument while any stored
  /// edited image still references it as its base.
  Status RemoveBinary(ObjectId id);

  /// Lookup; nullptr when absent.
  const BinaryImageInfo* FindBinary(ObjectId id) const;
  const EditedImageInfo* FindEdited(ObjectId id) const;

  /// All binary images in insertion order.
  const std::vector<ObjectId>& binary_ids() const { return binary_order_; }
  /// All edited images in insertion order.
  const std::vector<ObjectId>& edited_ids() const { return edited_order_; }
  /// Their catalog entries, parallel to `edited_ids()`: the row-reading
  /// scans walk these instead of looking each id up.
  const std::vector<const EditedImageInfo*>& edited_infos() const {
    return edited_infos_;
  }

  /// Edited images derived from base `base_id` (the stored connection
  /// between x and op(x)).
  const std::vector<ObjectId>& EditedOf(ObjectId base_id) const;

  size_t BinaryCount() const { return binary_order_.size(); }
  size_t EditedCount() const { return edited_order_.size(); }

  /// Builds the resolver the rule engine uses for Merge targets: a binary
  /// target yields its exact stored bin count; an edited target recurses
  /// through the rules (with cycle protection).
  TargetBoundsResolver MakeTargetResolver(const RuleEngine& engine) const;

  /// The stored interval row of `info`, an entry of this collection.
  /// Valid until the next mutation.
  IntervalRowView RowOf(const EditedImageInfo& info) const {
    const RowShape& shape = row_shapes_[info.row_slot];
    return IntervalRowView{&row_bins_[info.row_slot * row_width_], shape.size,
                           shape.width, shape.height};
  }

  /// Folds `script`'s interval row over its stored base image in one pass
  /// (`FoldIntervalRow`). A binary Merge target supplies its exact
  /// histogram and an edited one its stored row, so nothing recurses.
  Result<IntervalRow> FoldRow(const RuleEngine& engine,
                              const EditScript& script) const;

 private:
  /// One resolution behind `MakeTargetResolver`; recursion goes through
  /// this member, not a self-capturing std::function, which would be a
  /// reference cycle that leaks every resolver. `in_flight` guards
  /// against merge-target cycles.
  Result<TargetBounds> ResolveTarget(const RuleEngine& engine, ObjectId id,
                                     BinIndex hb,
                                     std::set<ObjectId>* in_flight) const;

  std::map<ObjectId, BinaryImageInfo> binaries_;
  std::map<ObjectId, EditedImageInfo> editeds_;
  std::map<ObjectId, std::vector<ObjectId>> base_to_edited_;
  std::vector<ObjectId> binary_order_;
  std::vector<ObjectId> edited_order_;
  std::vector<const EditedImageInfo*> edited_infos_;

  /// Interval rows, `row_width_` bins each, in one pool kept apart from
  /// the scripts and map nodes the rule-walking scans read: consecutive
  /// inserts get adjacent rows, and a removed image's slot is reused.
  struct RowShape {
    int64_t size = 0;
    int32_t width = 0;
    int32_t height = 0;
  };
  size_t row_width_ = 0;
  std::vector<IntervalBin> row_bins_;
  std::vector<RowShape> row_shapes_;
  std::vector<uint32_t> free_row_slots_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_COLLECTION_H_
