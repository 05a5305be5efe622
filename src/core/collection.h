#ifndef MMDB_CORE_COLLECTION_H_
#define MMDB_CORE_COLLECTION_H_

#include <map>
#include <vector>

#include "core/bounds.h"
#include "core/cancel.h"
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
  /// Where the collection keeps the image's interval row and rule steps
  /// (`AugmentedCollection::RowOf`, `StoredBounds`); set by `AddEdited`.
  uint32_t slot = 0;
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
  // The info columns, slots and steps point into `binaries_`' and
  // `editeds_`' nodes: a move keeps them, a copy would not.
  AugmentedCollection(const AugmentedCollection&) = delete;
  AugmentedCollection& operator=(const AugmentedCollection&) = delete;
  AugmentedCollection(AugmentedCollection&&) = default;
  AugmentedCollection& operator=(AugmentedCollection&&) = default;

  /// Registers a binary image. Fails with AlreadyExists on duplicate ids.
  Status AddBinary(BinaryImageInfo info);

  /// Registers an edited image. Its `script.base_id` must identify a
  /// binary image already present, and every Merge target a stored image.
  /// `folded` — the image's `Fold` — is copied into the collection's row
  /// and step pools, with each merge target resolved to a direct handle.
  Status AddEdited(EditedImageInfo info, const FoldedScript& folded);

  /// Removes an edited image. NotFound when absent; InvalidArgument while
  /// another stored edited image merges into it.
  Status RemoveEdited(ObjectId id);

  /// Removes a binary image; fails with InvalidArgument while any stored
  /// edited image still references it as its base or merge target.
  Status RemoveBinary(ObjectId id);

  /// OK iff no stored edited image references `id` as its base or merge
  /// target — the condition `RemoveBinary` / `RemoveEdited` enforce, which
  /// keeps every stored base pointer and target handle valid. Lets the
  /// facade refuse a delete before it touches the object store.
  Status CheckUnreferenced(ObjectId id) const;

  /// Lookup; nullptr when absent.
  const BinaryImageInfo* FindBinary(ObjectId id) const;
  const EditedImageInfo* FindEdited(ObjectId id) const;

  /// All binary images in insertion order.
  const std::vector<ObjectId>& binary_ids() const { return binary_order_; }
  /// Their catalog entries, parallel to `binary_ids()`: the scans walk
  /// these instead of looking each id up.
  const std::vector<const BinaryImageInfo*>& binary_infos() const {
    return binary_infos_;
  }
  /// All edited images in insertion order.
  const std::vector<ObjectId>& edited_ids() const { return edited_order_; }
  /// Their catalog entries, parallel to `edited_ids()`.
  const std::vector<const EditedImageInfo*>& edited_infos() const {
    return edited_infos_;
  }
  /// Their slots, parallel to `edited_ids()`: all a rule walk
  /// (`StoredBounds`) needs, so the rule-walking scans touch no catalog
  /// entry.
  const std::vector<uint32_t>& edited_slots() const { return edited_slots_; }

  /// Edited images derived from base `base_id` (the stored connection
  /// between x and op(x)).
  const std::vector<ObjectId>& EditedOf(ObjectId base_id) const;

  size_t BinaryCount() const { return binary_order_.size(); }
  size_t EditedCount() const { return edited_order_.size(); }

  /// Builds the resolver the rule engine uses for Merge targets: a binary
  /// target yields its exact stored bin count; an edited target walks its
  /// stored rule steps (`StoredBounds`). The steps were planned by the
  /// engine that folded them (`Fold`), which must be `engine`.
  TargetBoundsResolver MakeTargetResolver(const RuleEngine& engine) const;

  /// The stored interval row of `info`, an entry of this collection.
  /// Valid until the next mutation.
  IntervalRowView RowOf(const EditedImageInfo& info) const {
    const Slot& slot = slots_[info.slot];
    return IntervalRowView{&row_bins_[info.slot * row_width_], slot.size,
                           slot.width, slot.height};
  }

  /// The stored base image of `info`, an entry of this collection.
  const BinaryImageInfo& BaseOf(const EditedImageInfo& info) const {
    return *slots_[info.slot].base;
  }

  /// Bounds on bin `hb` of the edited image in `slot` (its
  /// `EditedImageInfo::slot`), from its stored rule steps: Table 1's count
  /// step per operation (`WalkRuleSteps`) and nothing else, since every
  /// step's geometry was planned at insert. Equal to `ComputeBounds` over
  /// the image's script. A non-null `check` is consulted before each step.
  Result<FractionBounds> StoredBounds(uint32_t slot, BinIndex hb,
                                      CancelCheck* check = nullptr) const;

  /// Operations (= stored steps) of the edited image in `slot`: the rules
  /// one `StoredBounds` call applies.
  int64_t StepCount(uint32_t slot) const {
    return slots_[slot].step_count;
  }

  /// Folds `script` over its stored base image in one pass
  /// (`FoldIntervalRow`): its interval row and its rule steps, ready for
  /// `AddEdited`. A binary Merge target supplies its exact histogram and
  /// an edited one its stored row, so nothing recurses.
  Result<FoldedScript> Fold(const RuleEngine& engine,
                            const EditScript& script) const;

 private:
  /// One planned operation of a stored edited image. A kPaste step's
  /// merge target is resolved at insert to a handle: the binary image's
  /// entry, or else the edited image's slot.
  struct StoredStep {
    RuleStep rule;
    const BinaryImageInfo* binary_target = nullptr;
    uint32_t edited_target = 0;
  };

  /// Per-slot state of a stored edited image: its row's shape, its base,
  /// and where its steps sit in `steps_`.
  struct Slot {
    int64_t size = 0;
    int32_t width = 0;
    int32_t height = 0;
    const BinaryImageInfo* base = nullptr;
    uint32_t first_step = 0;
    uint32_t step_count = 0;
  };

  /// `WalkRuleSteps` over slot `slot`'s stored steps, from its base's
  /// count of bin `hb`; an edited merge target's bounds come from the same
  /// walk over its slot.
  Status WalkSlot(uint32_t slot, BinIndex hb, CancelCheck* check,
                  int64_t* hb_min, int64_t* hb_max) const;

  /// One resolution behind `MakeTargetResolver`.
  Result<TargetBounds> ResolveTarget(ObjectId id, BinIndex hb) const;

  std::map<ObjectId, BinaryImageInfo> binaries_;
  std::map<ObjectId, EditedImageInfo> editeds_;
  std::map<ObjectId, std::vector<ObjectId>> base_to_edited_;
  /// Merge target -> the edited images that merge into it.
  std::map<ObjectId, std::vector<ObjectId>> target_to_referrers_;
  std::vector<ObjectId> binary_order_;
  std::vector<const BinaryImageInfo*> binary_infos_;
  std::vector<ObjectId> edited_order_;
  std::vector<const EditedImageInfo*> edited_infos_;
  std::vector<uint32_t> edited_slots_;

  /// Interval rows, `row_width_` bins each, and rule steps, each image's
  /// contiguous, in pools kept apart from the scripts and map nodes:
  /// consecutive inserts get adjacent rows and steps, and a removed
  /// image's slot is reused (its steps are erased from the pool).
  size_t row_width_ = 0;
  std::vector<IntervalBin> row_bins_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<StoredStep> steps_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_COLLECTION_H_
