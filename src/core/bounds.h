#ifndef MMDB_CORE_BOUNDS_H_
#define MMDB_CORE_BOUNDS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/cancel.h"
#include "core/histogram.h"
#include "core/rules.h"
#include "editops/edit_ops.h"
#include "util/result.h"

namespace mmdb {

/// Bounds on the fraction of pixels of an image that map to a histogram
/// bin: the paper's range [BOUNDmin/imagesize, BOUNDmax/imagesize].
struct FractionBounds {
  double min_fraction = 0.0;
  double max_fraction = 0.0;

  /// True iff this range intersects [lo, hi] — i.e. the image *may*
  /// satisfy the query; disjoint ranges prove it cannot (no false
  /// negatives, paper Section 3.2).
  bool Overlaps(double lo, double hi) const {
    return max_fraction >= lo && min_fraction <= hi;
  }
};

/// The BOUNDS algorithm: computes fraction bounds for histogram bin `hb`
/// of the edited image described by `script`, by folding the Table 1
/// rules over every operation. Requires the referenced base image's exact
/// bin count and dimensions (both read from the catalog, never from
/// pixels).
///
/// `resolver` is consulted only for Merge operations with non-null
/// targets.
///
/// A non-null `check` is consulted between operations, so a long edit
/// script honors deadlines and cancellation mid-walk (the interrupt
/// status propagates out like any rule error).
Result<FractionBounds> ComputeBounds(const RuleEngine& engine,
                                     const EditScript& script, BinIndex hb,
                                     int64_t base_hb_count,
                                     int32_t base_width, int32_t base_height,
                                     const TargetBoundsResolver& resolver,
                                     CancelCheck* check = nullptr);

/// As `ComputeBounds`, but returns the final raw rule state (pixel-count
/// bounds, exact size and dimensions) for callers that need more than the
/// fractions (e.g. the recursive merge-target resolver).
Result<RuleState> ComputeRuleState(const RuleEngine& engine,
                                   const EditScript& script, BinIndex hb,
                                   int64_t base_hb_count, int32_t base_width,
                                   int32_t base_height,
                                   const TargetBoundsResolver& resolver,
                                   CancelCheck* check = nullptr);

/// The per-query half of BOUNDS: folds already planned rule steps into
/// one bin's `[*hb_min, *hb_max]` pixel bounds, applying only
/// `RuleEngine::ApplyStep` per step. `Step` carries its `RuleStep` as
/// `rule`; `paste_target(step, &min, &max)` supplies a kPaste step's
/// merge-target bounds for the same bin and returns a Status. A non-null
/// `check` is consulted before each step, so a long script honors
/// deadlines and cancellation mid-walk. `ComputeRuleState` (steps planned
/// per call) and `AugmentedCollection::StoredBounds` (steps planned once
/// at insert) both fold through this one loop.
template <typename Step, typename PasteTargetFn>
Status WalkRuleSteps(const Step* steps, size_t count, BinIndex hb,
                     const PasteTargetFn& paste_target, CancelCheck* check,
                     int64_t* hb_min, int64_t* hb_max) {
  for (const Step* step = steps; step != steps + count; ++step) {
    if (check != nullptr) MMDB_RETURN_IF_ERROR(check->Check());
    int64_t target_min = 0;
    int64_t target_max = 0;
    if (step->rule.kind == RuleStep::Kind::kPaste) {
      MMDB_RETURN_IF_ERROR(paste_target(*step, &target_min, &target_max));
    }
    RuleEngine::ApplyStep(step->rule, hb, target_min, target_max, hb_min,
                          hb_max);
  }
  return Status::OK();
}

/// Converts a final rule state to fraction bounds ([0, 0] for an empty
/// image).
FractionBounds ToFractionBounds(const RuleState& state);

/// The one division every bounds consumer uses: `hb_min` and `hb_max`
/// pixels out of `size` as fractions ([0, 0] when `size` is 0). Stored
/// rows and per-query folds both go through it, so their doubles are
/// bit-identical.
FractionBounds ToFractionBounds(int64_t hb_min, int64_t hb_max, int64_t size);

/// One bin of an interval row: `[min, max]` pixels.
struct IntervalBin {
  uint32_t min = 0;
  uint32_t max = 0;
};

/// A stored interval row read in place (`AugmentedCollection::RowOf`):
/// valid until the collection's next mutation.
struct IntervalRowView {
  const IntervalBin* bins = nullptr;
  int64_t size = 0;
  int32_t width = 0;
  int32_t height = 0;

  /// Bin `bin` as fractions, via the shared `ToFractionBounds` division.
  FractionBounds Fraction(BinIndex bin) const {
    const IntervalBin& b = bins[static_cast<size_t>(bin)];
    return ToFractionBounds(b.min, b.max, size);
  }
};

/// An edited image's interval histogram: for every bin, the
/// `[min, max]` pixel bounds the Table 1 rules give, plus the exact size
/// and canvas. The bounds depend on the script, the base image and the
/// merge targets, never on a query, and none of those can change while
/// the image is stored, so the facade folds the row once at insert (and
/// at reopen), the collection stores it, and range, conjunctive and
/// top-k queries compare against it instead of re-walking the rules.
/// Counts are u32 (512 B per image at 64 bins).
struct IntervalRow {
  std::vector<IntervalBin> bins;
  int64_t size = 0;
  int32_t width = 0;
  int32_t height = 0;

  /// The row of a binary image: every bin exact (min == max).
  static IntervalRow Exact(const ColorHistogram& histogram, int32_t width,
                           int32_t height);
};

/// Resolves a Merge target id to all of its bins at once: a binary
/// target's exact histogram, an edited target's stored row.
using TargetRowResolver = std::function<Result<IntervalRow>(ObjectId)>;

/// What `FoldIntervalRow` derives from an edited image's script: its
/// interval row, plus the `RuleStep` it planned for each operation, in
/// script order. The steps are the bin-independent half of every rule;
/// the collection stores them so a per-bin query replays only the count
/// half (`WalkRuleSteps`).
struct FoldedScript {
  IntervalRow row;
  std::vector<RuleStep> steps;
};

/// The all-bins BOUNDS fold: one pass over `script` that works out each
/// operation's geometry once (`RuleEngine::PlanRule`) and applies its
/// count step to every bin (`RuleEngine::ApplyStep`). Bin for bin equal
/// to `ComputeRuleState` given a resolver that agrees with `targets`.
/// Fails with OutOfRange when the final image has more than 2^32 - 1
/// pixels (the row stores u32 counts).
Result<FoldedScript> FoldIntervalRow(const RuleEngine& engine,
                                     const EditScript& script,
                                     const ColorHistogram& base_histogram,
                                     int32_t base_width, int32_t base_height,
                                     const TargetRowResolver& targets);

}  // namespace mmdb

#endif  // MMDB_CORE_BOUNDS_H_
