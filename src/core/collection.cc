#include "core/collection.h"

#include <algorithm>

namespace mmdb {

Status AugmentedCollection::AddBinary(BinaryImageInfo info) {
  if (info.id == kInvalidObjectId) {
    return Status::InvalidArgument("binary image id must be non-zero");
  }
  if (binaries_.count(info.id) || editeds_.count(info.id)) {
    return Status::AlreadyExists("object id " + std::to_string(info.id));
  }
  binary_order_.push_back(info.id);
  const ObjectId id = info.id;
  binary_infos_.push_back(
      &binaries_.emplace(id, std::move(info)).first->second);
  return Status::OK();
}

Status AugmentedCollection::AddEdited(EditedImageInfo info,
                                      const FoldedScript& folded) {
  if (info.id == kInvalidObjectId) {
    return Status::InvalidArgument("edited image id must be non-zero");
  }
  if (binaries_.count(info.id) || editeds_.count(info.id)) {
    return Status::AlreadyExists("object id " + std::to_string(info.id));
  }
  const auto base = binaries_.find(info.script.base_id);
  if (base == binaries_.end()) {
    return Status::NotFound("referenced base image " +
                            std::to_string(info.script.base_id) +
                            " is not a stored binary image");
  }
  const IntervalRow& row = folded.row;
  if (row_width_ == 0) row_width_ = row.bins.size();
  if (row.bins.empty() || row.bins.size() != row_width_) {
    return Status::InvalidArgument(
        "interval row of image " + std::to_string(info.id) + " has " +
        std::to_string(row.bins.size()) + " bins, not " +
        std::to_string(row_width_));
  }
  const std::vector<EditOp>& ops = info.script.ops;
  if (folded.steps.size() != ops.size()) {
    return Status::InvalidArgument(
        "image " + std::to_string(info.id) + " has " +
        std::to_string(ops.size()) + " operations but " +
        std::to_string(folded.steps.size()) + " folded steps");
  }
  // Resolve every merge target to a handle before anything changes.
  std::vector<StoredStep> steps(ops.size());
  std::vector<ObjectId> targets;
  for (size_t i = 0; i < ops.size(); ++i) {
    steps[i].rule = folded.steps[i];
    const MergeOp* merge = std::get_if<MergeOp>(&ops[i]);
    if (merge == nullptr || merge->IsNullTarget()) continue;
    if (const auto binary = binaries_.find(*merge->target);
        binary != binaries_.end()) {
      steps[i].binary_target = &binary->second;
    } else if (const auto edited = editeds_.find(*merge->target);
               edited != editeds_.end()) {
      steps[i].edited_target = edited->second.slot;
    } else {
      return Status::NotFound("merge target " +
                              std::to_string(*merge->target) +
                              " is not stored");
    }
    targets.push_back(*merge->target);
  }

  if (free_slots_.empty()) {
    info.slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
    row_bins_.resize(row_bins_.size() + row_width_);
  } else {
    info.slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[info.slot] =
      Slot{row.size,
           row.width,
           row.height,
           &base->second,
           static_cast<uint32_t>(steps_.size()),
           static_cast<uint32_t>(steps.size())};
  steps_.insert(steps_.end(), steps.begin(), steps.end());
  std::copy(row.bins.begin(), row.bins.end(),
            row_bins_.begin() +
                static_cast<std::ptrdiff_t>(info.slot * row_width_));
  base_to_edited_[info.script.base_id].push_back(info.id);
  for (ObjectId target : targets) {
    std::vector<ObjectId>& referrers = target_to_referrers_[target];
    if (referrers.empty() || referrers.back() != info.id) {
      referrers.push_back(info.id);
    }
  }
  edited_order_.push_back(info.id);
  edited_slots_.push_back(info.slot);
  const ObjectId id = info.id;
  edited_infos_.push_back(&editeds_.emplace(id, std::move(info)).first->second);
  return Status::OK();
}

namespace {
void EraseId(std::vector<ObjectId>& ids, ObjectId id) {
  ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
}

/// Erases `id` from the list under `key`, dropping the list once empty.
void EraseConnection(std::map<ObjectId, std::vector<ObjectId>>& connections,
                     ObjectId key, ObjectId id) {
  const auto connection = connections.find(key);
  if (connection == connections.end()) return;
  EraseId(connection->second, id);
  if (connection->second.empty()) connections.erase(connection);
}
}  // namespace

Status AugmentedCollection::CheckUnreferenced(ObjectId id) const {
  if (const auto connection = base_to_edited_.find(id);
      connection != base_to_edited_.end() && !connection->second.empty()) {
    return Status::InvalidArgument(
        "image " + std::to_string(id) + " is still the base of " +
        std::to_string(connection->second.size()) + " edited image(s)");
  }
  if (const auto referrers = target_to_referrers_.find(id);
      referrers != target_to_referrers_.end() &&
      !referrers->second.empty()) {
    return Status::InvalidArgument("image " + std::to_string(id) +
                                   " is a merge target of " +
                                   std::to_string(referrers->second.front()));
  }
  return Status::OK();
}

Status AugmentedCollection::RemoveEdited(ObjectId id) {
  const auto it = editeds_.find(id);
  if (it == editeds_.end()) {
    return Status::NotFound("edited image " + std::to_string(id));
  }
  MMDB_RETURN_IF_ERROR(CheckUnreferenced(id));
  const EditedImageInfo& info = it->second;
  EraseConnection(base_to_edited_, info.script.base_id, id);
  for (const EditOp& op : info.script.ops) {
    const MergeOp* merge = std::get_if<MergeOp>(&op);
    if (merge != nullptr && !merge->IsNullTarget()) {
      EraseConnection(target_to_referrers_, *merge->target, id);
    }
  }
  const auto position =
      std::find(edited_order_.begin(), edited_order_.end(), id);
  const std::ptrdiff_t index = position - edited_order_.begin();
  edited_infos_.erase(edited_infos_.begin() + index);
  edited_slots_.erase(edited_slots_.begin() + index);
  edited_order_.erase(position);
  // Close the gap the image's steps leave, so every image's steps stay
  // contiguous and the pool holds only live steps.
  Slot& slot = slots_[info.slot];
  const auto first = steps_.begin() + slot.first_step;
  steps_.erase(first, first + slot.step_count);
  for (Slot& other : slots_) {
    if (other.first_step > slot.first_step) other.first_step -= slot.step_count;
  }
  slot = Slot{};
  free_slots_.push_back(info.slot);
  editeds_.erase(it);
  return Status::OK();
}

Status AugmentedCollection::RemoveBinary(ObjectId id) {
  const auto it = binaries_.find(id);
  if (it == binaries_.end()) {
    return Status::NotFound("binary image " + std::to_string(id));
  }
  MMDB_RETURN_IF_ERROR(CheckUnreferenced(id));
  const auto position =
      std::find(binary_order_.begin(), binary_order_.end(), id);
  binary_infos_.erase(binary_infos_.begin() +
                      (position - binary_order_.begin()));
  binary_order_.erase(position);
  binaries_.erase(it);
  return Status::OK();
}

const BinaryImageInfo* AugmentedCollection::FindBinary(ObjectId id) const {
  const auto it = binaries_.find(id);
  return it == binaries_.end() ? nullptr : &it->second;
}

const EditedImageInfo* AugmentedCollection::FindEdited(ObjectId id) const {
  const auto it = editeds_.find(id);
  return it == editeds_.end() ? nullptr : &it->second;
}

const std::vector<ObjectId>& AugmentedCollection::EditedOf(
    ObjectId base_id) const {
  static const std::vector<ObjectId> kEmpty;
  const auto it = base_to_edited_.find(base_id);
  return it == base_to_edited_.end() ? kEmpty : it->second;
}

Status AugmentedCollection::WalkSlot(uint32_t slot, BinIndex hb,
                                     CancelCheck* check, int64_t* hb_min,
                                     int64_t* hb_max) const {
  const Slot& image = slots_[slot];
  *hb_min = *hb_max = image.base->histogram.Count(hb);
  return WalkRuleSteps(
      steps_.data() + image.first_step, image.step_count, hb,
      [this, hb](const StoredStep& step, int64_t* target_min,
                 int64_t* target_max) -> Status {
        if (step.binary_target != nullptr) {
          *target_min = *target_max = step.binary_target->histogram.Count(hb);
          return Status::OK();
        }
        // Merge targets were stored before their referrers, so this
        // recursion follows an acyclic chain.
        return WalkSlot(step.edited_target, hb, nullptr, target_min,
                        target_max);
      },
      check, hb_min, hb_max);
}

Result<FractionBounds> AugmentedCollection::StoredBounds(
    uint32_t slot, BinIndex hb, CancelCheck* check) const {
  int64_t hb_min = 0;
  int64_t hb_max = 0;
  MMDB_RETURN_IF_ERROR(WalkSlot(slot, hb, check, &hb_min, &hb_max));
  return ToFractionBounds(hb_min, hb_max, slots_[slot].size);
}

TargetBoundsResolver AugmentedCollection::MakeTargetResolver(
    const RuleEngine& /*engine*/) const {
  return [this](ObjectId id, BinIndex hb) { return ResolveTarget(id, hb); };
}

Result<TargetBounds> AugmentedCollection::ResolveTarget(ObjectId id,
                                                        BinIndex hb) const {
  TargetBounds out;
  if (const BinaryImageInfo* binary = FindBinary(id)) {
    out.hb_min = out.hb_max = binary->histogram.Count(hb);
    out.size = binary->histogram.Total();
    out.width = binary->width;
    out.height = binary->height;
    return out;
  }
  const EditedImageInfo* edited = FindEdited(id);
  if (edited == nullptr) {
    return Status::NotFound("merge target " + std::to_string(id));
  }
  MMDB_RETURN_IF_ERROR(
      WalkSlot(edited->slot, hb, nullptr, &out.hb_min, &out.hb_max));
  const Slot& slot = slots_[edited->slot];
  out.size = slot.size;
  out.width = slot.width;
  out.height = slot.height;
  return out;
}

Result<FoldedScript> AugmentedCollection::Fold(const RuleEngine& engine,
                                               const EditScript& script) const {
  const BinaryImageInfo* base = FindBinary(script.base_id);
  if (base == nullptr) {
    return Status::NotFound("referenced base image " +
                            std::to_string(script.base_id) +
                            " is not a stored binary image");
  }
  return FoldIntervalRow(
      engine, script, base->histogram, base->width, base->height,
      [this](ObjectId id) -> Result<IntervalRow> {
        if (const BinaryImageInfo* binary = FindBinary(id)) {
          return IntervalRow::Exact(binary->histogram, binary->width,
                                    binary->height);
        }
        const EditedImageInfo* edited = FindEdited(id);
        if (edited == nullptr) {
          return Status::NotFound("merge target " + std::to_string(id));
        }
        const IntervalRowView row = RowOf(*edited);
        return IntervalRow{
            std::vector<IntervalBin>(row.bins, row.bins + row_width_),
            row.size, row.width, row.height};
      });
}

}  // namespace mmdb
