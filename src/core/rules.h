#ifndef MMDB_CORE_RULES_H_
#define MMDB_CORE_RULES_H_

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/quantizer.h"
#include "editops/edit_ops.h"
#include "util/result.h"

namespace mmdb {

/// Fidelity options for the rule engine.
///
/// The paper's Table 1 states its Combine rule as "no change" and its
/// Mutate rigid-body rule as exactly +/- |DR|. Both are idealizations: a
/// blur can move pixels across histogram-bin boundaries, and nearest-
/// neighbor rasterization of a rotated region can overwrite slightly more
/// than |DR| pixels. The default (sound) mode widens those rules just
/// enough that the computed bounds *provably* contain the instantiated
/// value (the property suite checks this against the pixel engine);
/// `paper_strict = true` reproduces Table 1 verbatim instead. The
/// bound-widening classification — and therefore all BWM behaviour — is
/// identical in both modes.
struct RuleOptions {
  bool paper_strict = false;
};

/// Bounds on one histogram bin of a merge target: `[hb_min, hb_max]`
/// pixels out of `size`, with exact canvas dimensions.
struct TargetBounds {
  int64_t hb_min = 0;
  int64_t hb_max = 0;
  int64_t size = 0;
  int32_t width = 0;
  int32_t height = 0;
};

/// Resolves a Merge target id to its bin bounds for the queried bin. For a
/// binary target this is the exact stored histogram value (min == max);
/// for an edited target the caller may recurse through the rule engine.
using TargetBoundsResolver =
    std::function<Result<TargetBounds>(ObjectId, BinIndex)>;

/// The paper's rule state: minimum and maximum number of pixels that may
/// be in bin HB (`hb_min`, `hb_max`), plus the total pixel count. We also
/// track the exact canvas dimensions and the current Defined Region —
/// both are derivable from the script without touching pixels, and they
/// make |DR| and resize arithmetic exact.
struct RuleState {
  int64_t hb_min = 0;
  int64_t hb_max = 0;
  int64_t size = 0;
  int32_t width = 0;
  int32_t height = 0;
  Rect defined_region;

  Rect CanvasBounds() const { return Rect::Full(width, height); }
  /// Pixels in the current DR (the paper's |DR|).
  int64_t DrSize() const { return defined_region.Area(); }
};

/// The bin-independent half of one Table 1 rule: how the rule moves a
/// bin's `[hb_min, hb_max]` pixel bounds once the operation's geometry
/// (canvas, Defined Region, size, resize replication, stamp box) is known.
/// `RuleEngine::PlanRule` derives it once per operation and
/// `RuleEngine::ApplyStep` applies it to one bin, so folding one bin
/// (`ComputeRuleState`) and folding every bin at once
/// (`FoldIntervalRow`) share one copy of the rule arithmetic.
struct RuleStep {
  enum class Kind : uint8_t {
    /// Define, a zero-weight Combine, a paper-strict Combine.
    kNone,
    /// Up to `changed` pixels may change bin membership (sound Combine,
    /// Mutate stamps).
    kWiden,
    /// Modify: `changed` (= |DR|) pixels may enter `enter_bin` or leave
    /// `leave_bin` (Table 1 rows 1-3).
    kRecolor,
    /// Mutate over the whole canvas with a pure scale: the canvas is
    /// resized.
    kScale,
    /// Merge into NULL: the `changed` (= |DR|) pixels become the image.
    kExtract,
    /// Merge into a target: `changed` pixels (the clipped paste overlap)
    /// land on the target's canvas.
    kPaste,
  };

  // Fields ordered widest first, so the struct packs into 64 bytes (the
  // collection stores one per operation of every edited image).
  int64_t changed = 0;
  /// Pixel count before the operation (kExtract, kPaste).
  int64_t size_before = 0;
  /// Pixel count after the operation: the ceiling of every bound.
  int64_t size = 0;
  /// kScale: the per-pixel replication bracket (sound mode) or the
  /// verbatim M11 * M22 factor (`strict`).
  int64_t min_hits = 1;
  int64_t max_hits = 1;
  double factor = 1.0;
  BinIndex enter_bin = -1;
  BinIndex leave_bin = -1;
  Kind kind = Kind::kNone;
  bool strict = false;
};

/// Applies the paper's Table 1 rules, one editing operation at a time,
/// without instantiating any pixels.
class RuleEngine {
 public:
  explicit RuleEngine(ColorQuantizer quantizer, RuleOptions options = {});

  const ColorQuantizer& quantizer() const { return quantizer_; }
  const RuleOptions& options() const { return options_; }

  /// True iff the rule for `op` is bound-widening (Section 4): it can only
  /// widen the percentage range [hb_min/size, hb_max/size]. Per the paper:
  /// Define/Combine/Modify/Mutate always; Merge iff its target is NULL.
  static bool IsBoundWidening(const EditOp& op);

  /// True iff every operation in `script` has a bound-widening rule — the
  /// condition for membership in BWM's Main component.
  static bool IsAllBoundWidening(const EditScript& script);

  /// Initial rule state for an edited image whose referenced base image
  /// has `hb_count` pixels in the queried bin out of `width` x `height`.
  static RuleState InitialState(int64_t hb_count, int32_t width,
                                int32_t height);

  /// Applies the rule for `op` to `state` for the queried bin `hb`
  /// (`PlanRule`, then `ApplyStep`). `resolver` is consulted only for
  /// Merge with a non-null target.
  Status ApplyRule(const EditOp& op, BinIndex hb,
                   const TargetBoundsResolver& resolver,
                   RuleState* state) const;

  /// Geometry half of the rule for `op`: advances `state`'s canvas,
  /// Defined Region and size past `op`, leaving its bin bounds alone, and
  /// returns the step every bin then applies. For a Merge with a non-null
  /// target, `target` must carry the target's dimensions and size (its
  /// bin fields are ignored); it is unused otherwise.
  RuleStep PlanRule(const EditOp& op, const TargetBounds* target,
                    RuleState* state) const;

  /// Count half: applies `step` to one bin's bounds. `target_min` /
  /// `target_max` are the merge target's bounds for the same bin (read
  /// for kPaste only). Inline, so the all-bins fold's per-bin loop
  /// compiles to straight arithmetic.
  static void ApplyStep(const RuleStep& step, BinIndex hb,
                        int64_t target_min, int64_t target_max,
                        int64_t* hb_min, int64_t* hb_max);

  /// `ApplyStep` over bins `0..bins-1`, whose `[min, max]` bounds sit at
  /// `bounds[2 * bin]` and `bounds[2 * bin + 1]`; `target(bin, &min,
  /// &max)` supplies a kPaste step's target bounds. Skips the bins the
  /// step provably leaves alone (all of them for kNone, all but its two
  /// bins for kRecolor).
  template <typename TargetFn>
  static void ApplyStepToBins(const RuleStep& step, size_t bins,
                              const TargetFn& target, int64_t* bounds);

 private:
  RuleStep PlanMutate(const MutateOp& op, RuleState* state) const;

  ColorQuantizer quantizer_;
  RuleOptions options_;
};

// Table 1's count arithmetic (see `RuleStep::Kind` for the rows).
inline void RuleEngine::ApplyStep(const RuleStep& step, BinIndex hb,
                                  int64_t target_min, int64_t target_max,
                                  int64_t* hb_min, int64_t* hb_max) {
  switch (step.kind) {
    case RuleStep::Kind::kNone:
      return;
    case RuleStep::Kind::kWiden:
      *hb_min = std::max<int64_t>(0, *hb_min - step.changed);
      *hb_max = std::min(step.size, *hb_max + step.changed);
      return;
    case RuleStep::Kind::kRecolor:
      if (hb == step.enter_bin) {
        // Table 1 row 1: recolored pixels may enter bin HB.
        *hb_max = std::min(step.size, *hb_max + step.changed);
      } else if (hb == step.leave_bin) {
        // Table 1 row 2: pixels of the old color may leave bin HB.
        *hb_min = std::max<int64_t>(0, *hb_min - step.changed);
      }
      // Table 1 row 3: neither color maps to HB — no change.
      return;
    case RuleStep::Kind::kScale:
      if (step.strict) {
        *hb_min = static_cast<int64_t>(std::llround(*hb_min * step.factor));
        *hb_max = static_cast<int64_t>(std::llround(*hb_max * step.factor));
      } else {
        *hb_min *= step.min_hits;
        *hb_max *= step.max_hits;
      }
      *hb_min = std::clamp<int64_t>(*hb_min, 0, step.size);
      *hb_max = std::clamp<int64_t>(*hb_max, *hb_min, step.size);
      return;
    case RuleStep::Kind::kExtract:
      //   min' = max(0, |DR| - (E - HBmin)),  max' = min(HBmax, |DR|).
      *hb_min =
          std::max<int64_t>(0, step.changed - (step.size_before - *hb_min));
      *hb_max = std::min(*hb_max, step.changed);
      return;
    case RuleStep::Kind::kPaste: {
      // DR pixels that land on the target contribute between
      // max(0, HBmin - E + overlap) and min(HBmax, overlap); surviving
      // target pixels contribute between max(0, T_HBmin - overlap) and
      // min(T_HBmax, T - overlap). (This is the paper's "Target is Not
      // NULL" row with pasting clipped to the target canvas; see
      // DESIGN.md.)
      const int64_t overlap = step.changed;
      const int64_t paste_min =
          std::max<int64_t>(0, *hb_min - step.size_before + overlap);
      const int64_t paste_max = std::min(*hb_max, overlap);
      const int64_t keep_min = std::max<int64_t>(0, target_min - overlap);
      const int64_t keep_max = std::min(target_max, step.size - overlap);
      *hb_min = std::clamp<int64_t>(paste_min + keep_min, 0, step.size);
      *hb_max = std::clamp<int64_t>(paste_max + keep_max, *hb_min, step.size);
      return;
    }
  }
}

template <typename TargetFn>
void RuleEngine::ApplyStepToBins(const RuleStep& step, size_t bins,
                                 const TargetFn& target, int64_t* bounds) {
  auto apply = [&](size_t bin) {
    int64_t target_min = 0;
    int64_t target_max = 0;
    if (step.kind == RuleStep::Kind::kPaste) {
      target(bin, &target_min, &target_max);
    }
    ApplyStep(step, static_cast<BinIndex>(bin), target_min, target_max,
              &bounds[2 * bin], &bounds[2 * bin + 1]);
  };
  switch (step.kind) {
    case RuleStep::Kind::kNone:
      return;
    case RuleStep::Kind::kRecolor:
      for (const BinIndex bin : {step.enter_bin, step.leave_bin}) {
        if (bin >= 0 && static_cast<size_t>(bin) < bins) {
          apply(static_cast<size_t>(bin));
        }
        if (step.enter_bin == step.leave_bin) break;
      }
      return;
    default:
      for (size_t bin = 0; bin < bins; ++bin) apply(bin);
  }
}

}  // namespace mmdb

#endif  // MMDB_CORE_RULES_H_
