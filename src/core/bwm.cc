#include "core/bwm.h"

#include <algorithm>

#include "core/bounds.h"
#include "obs/trace.h"

namespace mmdb {

namespace {

obs::SpanCategory* ScanSpan() {
  static obs::SpanCategory* const category =
      obs::Tracer::Default().Intern("bwm.scan");
  return category;
}

/// Fine-grained span around one Main-cluster wholesale accept (paper
/// Figure 2, step 4.2) — the cheap side of the BWM split.
obs::SpanCategory* ClusterAcceptSpan() {
  static obs::SpanCategory* const category = obs::Tracer::Default().Intern(
      "bwm.cluster_accept", obs::SpanDetail::kFine);
  return category;
}

/// Fine-grained span around one per-image BOUNDS rule fold (step 4.3 /
/// step 5) — the expensive RBM-fallback side.
obs::SpanCategory* RuleWalkSpan() {
  static obs::SpanCategory* const category =
      obs::Tracer::Default().Intern("bwm.rule_walk", obs::SpanDetail::kFine);
  return category;
}

bool BaseIdLess(const BwmIndex::Cluster& cluster, ObjectId base_id) {
  return cluster.base_id < base_id;
}

}  // namespace

const BwmIndex::Cluster* BwmIndex::FindCluster(ObjectId base_id) const {
  const auto it =
      std::lower_bound(main_.begin(), main_.end(), base_id, BaseIdLess);
  return it != main_.end() && it->base_id == base_id ? &*it : nullptr;
}

BwmIndex::Cluster& BwmIndex::ClusterOf(ObjectId base_id) {
  // Ids grow with insertion, so a new cluster usually lands at the end.
  auto it = std::lower_bound(main_.begin(), main_.end(), base_id, BaseIdLess);
  if (it == main_.end() || it->base_id != base_id) {
    it = main_.insert(it, Cluster{});
    it->base_id = base_id;
  }
  return *it;
}

void BwmIndex::InsertBinary(const BinaryImageInfo& info) {
  // The cluster starts empty (or adopts members filed before their base).
  ClusterOf(info.id).base = &info;
}

void BwmIndex::InsertEdited(const EditedImageInfo& info) {
  // Figure 1, step 3: scan the operations; one non-bound-widening rule
  // sends the image to the Unclassified Component.
  if (!RuleEngine::IsAllBoundWidening(info.script)) {
    unclassified_.push_back(info.id);
    unclassified_slots_.push_back(info.slot);
    return;
  }
  // Figure 1, step 5: append to the cluster of the referenced base image,
  // keeping E_list sorted so lookups stay cheap (paper Section 4.1).
  Cluster& cluster = ClusterOf(info.script.base_id);
  const auto pos = std::upper_bound(cluster.edited_ids.begin(),
                                    cluster.edited_ids.end(), info.id);
  cluster.edited_slots.insert(
      cluster.edited_slots.begin() + (pos - cluster.edited_ids.begin()),
      info.slot);
  cluster.edited_ids.insert(pos, info.id);
  ++main_edited_count_;
}

void BwmIndex::RemoveEdited(ObjectId id, ObjectId base_id) {
  if (const auto it =
          std::lower_bound(main_.begin(), main_.end(), base_id, BaseIdLess);
      it != main_.end() && it->base_id == base_id) {
    Cluster& cluster = *it;
    const auto pos = std::lower_bound(cluster.edited_ids.begin(),
                                      cluster.edited_ids.end(), id);
    if (pos != cluster.edited_ids.end() && *pos == id) {
      cluster.edited_slots.erase(cluster.edited_slots.begin() +
                                 (pos - cluster.edited_ids.begin()));
      cluster.edited_ids.erase(pos);
      --main_edited_count_;
      return;
    }
  }
  const auto pos = std::find(unclassified_.begin(), unclassified_.end(), id);
  if (pos != unclassified_.end()) {
    unclassified_slots_.erase(unclassified_slots_.begin() +
                              (pos - unclassified_.begin()));
    unclassified_.erase(pos);
  }
}

void BwmIndex::RemoveBinary(ObjectId id) {
  const auto it = std::lower_bound(main_.begin(), main_.end(), id, BaseIdLess);
  if (it != main_.end() && it->base_id == id && it->edited_ids.empty()) {
    main_.erase(it);
  }
}

BwmQueryProcessor::BwmQueryProcessor(const AugmentedCollection* collection,
                                     const BwmIndex* index)
    : collection_(collection), index_(index) {}

Result<QueryResult> BwmQueryProcessor::RunRange(const RangeQuery& query,
                                                const QueryContext& ctx) const {
  obs::Span scan_span(ScanSpan());
  QueryResult result;
  CancelCheck check(ctx);

  auto bound_and_collect = [&](ObjectId id, uint32_t slot) -> Status {
    MMDB_RETURN_IF_ERROR(check.Check());
    obs::Span walk_span(RuleWalkSpan());
    MMDB_ASSIGN_OR_RETURN(
        FractionBounds bounds,
        collection_->StoredBounds(slot, query.bin, check.enabled_or_null()));
    ++result.stats.edited_images_bounded;
    result.stats.rules_applied += collection_->StepCount(slot);
    if (bounds.Overlaps(query.min_fraction, query.max_fraction)) {
      result.ids.push_back(id);
    }
    return Status::OK();
  };

  // Figure 2, step 4: walk the Main Component clusters.
  for (const BwmIndex::Cluster& cluster : index_->MainClusters()) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, check.Check()));
    if (cluster.base == nullptr) {
      return Status::Corruption("BWM cluster references missing base " +
                                std::to_string(cluster.base_id));
    }
    ++result.stats.binary_images_checked;
    if (query.Satisfies(cluster.base->histogram.Fraction(query.bin))) {
      // Step 4.2: the base satisfies the query, so every edited image in
      // the cluster does too — no rules applied.
      obs::Span accept_span(ClusterAcceptSpan());
      result.ids.push_back(cluster.base_id);
      result.ids.insert(result.ids.end(), cluster.edited_ids.begin(),
                        cluster.edited_ids.end());
      result.stats.edited_images_skipped +=
          static_cast<int64_t>(cluster.edited_ids.size());
    } else {
      // Step 4.3: fall back to the BOUNDS computation per cluster member.
      for (size_t i = 0; i < cluster.edited_ids.size(); ++i) {
        MMDB_RETURN_IF_ERROR(AnnotateInterrupt(
            ctx, result,
            bound_and_collect(cluster.edited_ids[i], cluster.edited_slots[i])));
      }
    }
  }

  // Figure 2, step 5: the Unclassified Component always pays full price.
  const std::vector<ObjectId>& unclassified = index_->Unclassified();
  for (size_t i = 0; i < unclassified.size(); ++i) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(
        ctx, result,
        bound_and_collect(unclassified[i], index_->UnclassifiedSlots()[i])));
  }
  return result;
}

Result<QueryResult> BwmQueryProcessor::RunConjunctive(
    const ConjunctiveQuery& query, const QueryContext& ctx) const {
  obs::Span scan_span(ScanSpan());
  QueryResult result;
  CancelCheck check(ctx);

  auto bound_and_collect = [&](ObjectId id, uint32_t slot) -> Status {
    MMDB_RETURN_IF_ERROR(check.Check());
    obs::Span walk_span(RuleWalkSpan());
    bool candidate = true;
    for (const RangeQuery& conjunct : query.conjuncts) {
      MMDB_ASSIGN_OR_RETURN(
          FractionBounds bounds,
          collection_->StoredBounds(slot, conjunct.bin,
                                    check.enabled_or_null()));
      result.stats.rules_applied += collection_->StepCount(slot);
      if (!bounds.Overlaps(conjunct.min_fraction, conjunct.max_fraction)) {
        candidate = false;
        break;
      }
    }
    ++result.stats.edited_images_bounded;
    if (candidate) result.ids.push_back(id);
    return Status::OK();
  };

  for (const BwmIndex::Cluster& cluster : index_->MainClusters()) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, result, check.Check()));
    if (cluster.base == nullptr) {
      return Status::Corruption("BWM cluster references missing base " +
                                std::to_string(cluster.base_id));
    }
    const BinaryImageInfo& base = *cluster.base;
    ++result.stats.binary_images_checked;
    if (query.Satisfies(
            [&](BinIndex bin) { return base.histogram.Fraction(bin); })) {
      obs::Span accept_span(ClusterAcceptSpan());
      result.ids.push_back(cluster.base_id);
      result.ids.insert(result.ids.end(), cluster.edited_ids.begin(),
                        cluster.edited_ids.end());
      result.stats.edited_images_skipped +=
          static_cast<int64_t>(cluster.edited_ids.size());
    } else {
      for (size_t i = 0; i < cluster.edited_ids.size(); ++i) {
        MMDB_RETURN_IF_ERROR(AnnotateInterrupt(
            ctx, result,
            bound_and_collect(cluster.edited_ids[i], cluster.edited_slots[i])));
      }
    }
  }
  const std::vector<ObjectId>& unclassified = index_->Unclassified();
  for (size_t i = 0; i < unclassified.size(); ++i) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(
        ctx, result,
        bound_and_collect(unclassified[i], index_->UnclassifiedSlots()[i])));
  }
  return result;
}

}  // namespace mmdb
