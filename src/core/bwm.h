#ifndef MMDB_CORE_BWM_H_
#define MMDB_CORE_BWM_H_

#include <vector>

#include "core/collection.h"
#include "core/query.h"
#include "core/query_processor.h"
#include "util/result.h"

namespace mmdb {

/// Engine-internal header (`mmdb_internal.h`): applications reach this
/// access path as `QueryMethod::kBwm` through `QueryService` or the
/// facade; constructing the processor directly is deprecated as public
/// API.
///
/// The paper's proposed data structure (Section 4.1): a Main Component of
/// `<B_id, E_list>` clusters holding the edited images whose operations
/// all have bound-widening rules, keyed by referenced base image, plus an
/// Unclassified Component for the rest.
///
/// Built incrementally via `InsertBinary` / `InsertEdited` (the paper's
/// Figure 1 insertion algorithm) as images enter the database.
class BwmIndex {
 public:
  /// Registers a newly inserted binary image, creating its (empty) Main
  /// cluster. `info` is the collection's entry and must stay registered
  /// while the cluster exists.
  void InsertBinary(const BinaryImageInfo& info);

  /// Classifies a newly inserted edited image (Figure 1): appends it to
  /// its base's Main cluster when every operation's rule is
  /// bound-widening, to the Unclassified Component otherwise. `info` is
  /// the collection's entry (its `slot` is recorded).
  void InsertEdited(const EditedImageInfo& info);

  /// Removes an edited image from whichever component holds it; no-op if
  /// absent. `base_id` must be the image's referenced base.
  void RemoveEdited(ObjectId id, ObjectId base_id);

  /// Removes a binary image's (empty) Main cluster; no-op if the cluster
  /// still has members or is absent.
  void RemoveBinary(ObjectId id);

  /// One Main Component cluster `<B_id, E_list>`: the base's id and
  /// catalog entry, its members' ids (kept sorted, per the paper) and,
  /// parallel to them, their collection slots, so a scan looks nothing up
  /// and walks each member's stored rule steps directly
  /// (`AugmentedCollection::StoredBounds`).
  struct Cluster {
    ObjectId base_id = kInvalidObjectId;
    const BinaryImageInfo* base = nullptr;
    std::vector<ObjectId> edited_ids;
    std::vector<uint32_t> edited_slots;
  };

  /// The Main Component, in base-id order, held flat so Figure 2's
  /// cluster walk reads it sequentially.
  const std::vector<Cluster>& MainClusters() const { return main_; }

  /// The cluster of base `base_id`; nullptr when absent.
  const Cluster* FindCluster(ObjectId base_id) const;

  /// Edited images in the Unclassified Component, in insertion order.
  const std::vector<ObjectId>& Unclassified() const { return unclassified_; }
  /// Their collection slots, parallel to `Unclassified()`.
  const std::vector<uint32_t>& UnclassifiedSlots() const {
    return unclassified_slots_;
  }

  /// Total edited images held in Main clusters.
  size_t MainEditedCount() const { return main_edited_count_; }

 private:
  /// The cluster of `base_id`, created (empty, in order) when absent.
  Cluster& ClusterOf(ObjectId base_id);

  std::vector<Cluster> main_;
  std::vector<ObjectId> unclassified_;
  std::vector<uint32_t> unclassified_slots_;
  size_t main_edited_count_ = 0;
};

/// The Bound-Widening Method (paper Section 4.2, Figure 2): processes a
/// range query using `BwmIndex`. When a cluster's base image satisfies
/// the query, every edited image in the cluster is accepted without
/// applying a single rule (their ranges start at the base's satisfying
/// value and can only widen); otherwise, and for every unclassified
/// image, it falls back to the RBM bounds computation.
///
/// Produces exactly the same result set as `RbmQueryProcessor`.
class BwmQueryProcessor : public QueryProcessor {
 public:
  /// Both referents must outlive the processor.
  BwmQueryProcessor(const AugmentedCollection* collection,
                    const BwmIndex* index);

  using QueryProcessor::RunConjunctive;
  using QueryProcessor::RunRange;

  /// Runs `query` ("with data structure"). Checks `ctx`'s limits per
  /// cluster (one check covers a wholesale accept) and per bounded image.
  Result<QueryResult> RunRange(const RangeQuery& query,
                               const QueryContext& ctx) const override;

  /// Conjunctive variant: a Main cluster is accepted wholesale when its
  /// base satisfies *every* conjunct (the widening argument applies
  /// per bin, so each member's per-conjunct range contains the base's
  /// satisfying value). Identical result sets to
  /// `RbmQueryProcessor::RunConjunctive`.
  Result<QueryResult> RunConjunctive(const ConjunctiveQuery& query,
                                     const QueryContext& ctx) const override;

 private:
  const AugmentedCollection* collection_;
  const BwmIndex* index_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_BWM_H_
