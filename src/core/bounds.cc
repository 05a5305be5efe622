#include "core/bounds.h"

namespace mmdb {

Result<RuleState> ComputeRuleState(const RuleEngine& engine,
                                   const EditScript& script, BinIndex hb,
                                   int64_t base_hb_count, int32_t base_width,
                                   int32_t base_height,
                                   const TargetBoundsResolver& resolver,
                                   CancelCheck* check) {
  // Plan every operation's geometry (resolving each merge target's
  // bounds for `hb`), then walk the planned steps for the bin.
  struct PlannedStep {
    RuleStep rule;
    int64_t target_min = 0;
    int64_t target_max = 0;
  };
  RuleState state =
      RuleEngine::InitialState(base_hb_count, base_width, base_height);
  std::vector<PlannedStep> steps;
  steps.reserve(script.ops.size());
  for (const EditOp& op : script.ops) {
    TargetBounds target;
    const MergeOp* merge = std::get_if<MergeOp>(&op);
    if (merge != nullptr && !merge->IsNullTarget()) {
      if (!resolver) {
        return Status::InvalidArgument(
            "Merge rule: no target resolver for target " +
            std::to_string(*merge->target));
      }
      MMDB_ASSIGN_OR_RETURN(target, resolver(*merge->target, hb));
    }
    steps.push_back(PlannedStep{engine.PlanRule(op, &target, &state),
                                target.hb_min, target.hb_max});
  }
  MMDB_RETURN_IF_ERROR(WalkRuleSteps(
      steps.data(), steps.size(), hb,
      [](const PlannedStep& step, int64_t* target_min, int64_t* target_max) {
        *target_min = step.target_min;
        *target_max = step.target_max;
        return Status::OK();
      },
      check, &state.hb_min, &state.hb_max));
  return state;
}

FractionBounds ToFractionBounds(const RuleState& state) {
  return ToFractionBounds(state.hb_min, state.hb_max, state.size);
}

FractionBounds ToFractionBounds(int64_t hb_min, int64_t hb_max,
                                int64_t size) {
  FractionBounds bounds;
  if (size > 0) {
    bounds.min_fraction = static_cast<double>(hb_min) / size;
    bounds.max_fraction = static_cast<double>(hb_max) / size;
  }
  return bounds;
}

IntervalRow IntervalRow::Exact(const ColorHistogram& histogram,
                               int32_t width, int32_t height) {
  IntervalRow row;
  row.bins.resize(static_cast<size_t>(histogram.BinCount()));
  for (BinIndex bin = 0; bin < histogram.BinCount(); ++bin) {
    const uint32_t count = static_cast<uint32_t>(histogram.Count(bin));
    row.bins[static_cast<size_t>(bin)] = IntervalBin{count, count};
  }
  row.size = histogram.Total();
  row.width = width;
  row.height = height;
  return row;
}

Result<FoldedScript> FoldIntervalRow(const RuleEngine& engine,
                                     const EditScript& script,
                                     const ColorHistogram& base_histogram,
                                     int32_t base_width, int32_t base_height,
                                     const TargetRowResolver& targets) {
  const size_t bins = static_cast<size_t>(base_histogram.BinCount());
  // [min, max] per bin, interleaved.
  std::vector<int64_t> bounds(2 * bins);
  for (size_t bin = 0; bin < bins; ++bin) {
    bounds[2 * bin] = bounds[2 * bin + 1] =
        base_histogram.Count(static_cast<BinIndex>(bin));
  }
  // The bin fields of `shape` stay unused: it tracks only the geometry
  // every bin shares.
  RuleState shape = RuleEngine::InitialState(0, base_width, base_height);
  IntervalRow target;
  FoldedScript folded;
  folded.steps.reserve(script.ops.size());
  for (const EditOp& op : script.ops) {
    const MergeOp* merge = std::get_if<MergeOp>(&op);
    const bool pastes = merge != nullptr && !merge->IsNullTarget();
    TargetBounds target_shape;
    if (pastes) {
      if (!targets) {
        return Status::InvalidArgument(
            "Merge rule: no target resolver for target " +
            std::to_string(*merge->target));
      }
      MMDB_ASSIGN_OR_RETURN(target, targets(*merge->target));
      target_shape.size = target.size;
      target_shape.width = target.width;
      target_shape.height = target.height;
    }
    const RuleStep& step =
        folded.steps.emplace_back(engine.PlanRule(op, &target_shape, &shape));
    RuleEngine::ApplyStepToBins(
        step, bins,
        [&target](size_t bin, int64_t* target_min, int64_t* target_max) {
          *target_min = target.bins[bin].min;
          *target_max = target.bins[bin].max;
        },
        bounds.data());
  }
  if (shape.size > static_cast<int64_t>(UINT32_MAX)) {
    return Status::OutOfRange("edited image has " +
                              std::to_string(shape.size) +
                              " pixels; interval rows hold at most 2^32 - 1");
  }
  IntervalRow& row = folded.row;
  row.bins.resize(bins);
  for (size_t bin = 0; bin < bins; ++bin) {
    row.bins[bin] = IntervalBin{static_cast<uint32_t>(bounds[2 * bin]),
                                static_cast<uint32_t>(bounds[2 * bin + 1])};
  }
  row.size = shape.size;
  row.width = shape.width;
  row.height = shape.height;
  return folded;
}

Result<FractionBounds> ComputeBounds(const RuleEngine& engine,
                                     const EditScript& script, BinIndex hb,
                                     int64_t base_hb_count,
                                     int32_t base_width, int32_t base_height,
                                     const TargetBoundsResolver& resolver,
                                     CancelCheck* check) {
  MMDB_ASSIGN_OR_RETURN(
      RuleState state,
      ComputeRuleState(engine, script, hb, base_hb_count, base_width,
                       base_height, resolver, check));
  return ToFractionBounds(state);
}

}  // namespace mmdb
