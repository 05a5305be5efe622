#include "core/rules.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace mmdb {

namespace {

/// Exact per-cell sampling counts of the editor's nearest-neighbor resize
/// along one axis: returns, for the axis scaled by `s` from `old_extent`
/// to `new_extent`, the minimum and maximum number of destination samples
/// that hit any single source cell. O(new_extent) integer arithmetic; no
/// pixel access.
void AxisReplication(int32_t old_extent, int32_t new_extent, double s,
                     int64_t* min_hits, int64_t* max_hits) {
  if (old_extent <= 0 || new_extent <= 0) {
    *min_hits = 0;
    *max_hits = 0;
    return;
  }
  std::vector<int64_t> hits(static_cast<size_t>(old_extent), 0);
  for (int32_t x = 0; x < new_extent; ++x) {
    const int32_t src = std::clamp(
        static_cast<int32_t>(std::floor((x + 0.5) / s)), 0, old_extent - 1);
    ++hits[static_cast<size_t>(src)];
  }
  *min_hits = hits[0];
  *max_hits = hits[0];
  for (int64_t h : hits) {
    *min_hits = std::min(*min_hits, h);
    *max_hits = std::max(*max_hits, h);
  }
}

/// Destination bounding box of `dr` under matrix `op`, clipped to the
/// canvas — mirrors `Editor::ApplyMutate`'s stamp region exactly.
Rect MutateDestBox(const MutateOp& op, const Rect& dr, const Rect& canvas) {
  double min_x = 1e30, min_y = 1e30, max_x = -1e30, max_y = -1e30;
  const double corner_xs[2] = {static_cast<double>(dr.x0),
                               static_cast<double>(dr.x1)};
  const double corner_ys[2] = {static_cast<double>(dr.y0),
                               static_cast<double>(dr.y1)};
  for (double cx : corner_xs) {
    for (double cy : corner_ys) {
      double tx, ty;
      if (!op.Apply(cx, cy, &tx, &ty)) return canvas;  // Degenerate: worst
                                                       // case, whole canvas.
      min_x = std::min(min_x, tx);
      min_y = std::min(min_y, ty);
      max_x = std::max(max_x, tx);
      max_y = std::max(max_y, ty);
    }
  }
  return Rect(static_cast<int32_t>(std::floor(min_x)),
              static_cast<int32_t>(std::floor(min_y)),
              static_cast<int32_t>(std::ceil(max_x)) + 1,
              static_cast<int32_t>(std::ceil(max_y)) + 1)
      .Intersect(canvas);
}

}  // namespace

RuleEngine::RuleEngine(ColorQuantizer quantizer, RuleOptions options)
    : quantizer_(quantizer), options_(options) {}

bool RuleEngine::IsBoundWidening(const EditOp& op) {
  switch (GetOpType(op)) {
    case EditOpType::kDefine:
    case EditOpType::kCombine:
    case EditOpType::kModify:
    case EditOpType::kMutate:
      return true;
    case EditOpType::kMerge:
      return std::get<MergeOp>(op).IsNullTarget();
  }
  return false;
}

bool RuleEngine::IsAllBoundWidening(const EditScript& script) {
  for (const EditOp& op : script.ops) {
    if (!IsBoundWidening(op)) return false;
  }
  return true;
}

RuleState RuleEngine::InitialState(int64_t hb_count, int32_t width,
                                   int32_t height) {
  RuleState state;
  state.hb_min = hb_count;
  state.hb_max = hb_count;
  state.width = width;
  state.height = height;
  state.size = static_cast<int64_t>(width) * height;
  state.defined_region = Rect::Full(width, height);
  return state;
}

Status RuleEngine::ApplyRule(const EditOp& op, BinIndex hb,
                             const TargetBoundsResolver& resolver,
                             RuleState* state) const {
  TargetBounds target;
  if (GetOpType(op) == EditOpType::kMerge) {
    const MergeOp& merge = std::get<MergeOp>(op);
    if (!merge.IsNullTarget()) {
      if (!resolver) {
        return Status::InvalidArgument(
            "Merge rule: no target resolver for target " +
            std::to_string(*merge.target));
      }
      MMDB_ASSIGN_OR_RETURN(target, resolver(*merge.target, hb));
    }
  }
  const RuleStep step = PlanRule(op, &target, state);
  ApplyStep(step, hb, target.hb_min, target.hb_max, &state->hb_min,
            &state->hb_max);
  return Status::OK();
}

RuleStep RuleEngine::PlanRule(const EditOp& op, const TargetBounds* target,
                              RuleState* state) const {
  RuleStep step;
  step.size = state->size;
  switch (GetOpType(op)) {
    case EditOpType::kDefine:
      state->defined_region =
          std::get<DefineOp>(op).region.Intersect(state->CanvasBounds());
      return step;
    case EditOpType::kCombine:
      // A zero-weight kernel is an editor no-op; Table 1 says "No change"
      // for Combine (paper_strict). Sound mode: a blur can move every DR
      // pixel across a bin boundary.
      if (std::get<CombineOp>(op).WeightSum() != 0.0 &&
          !options_.paper_strict) {
        step.kind = RuleStep::Kind::kWiden;
        step.changed = state->DrSize();
      }
      return step;
    case EditOpType::kModify: {
      const ModifyOp& modify = std::get<ModifyOp>(op);
      step.kind = RuleStep::Kind::kRecolor;
      step.changed = state->DrSize();
      step.enter_bin = quantizer_.BinOf(modify.new_color);
      step.leave_bin = quantizer_.BinOf(modify.old_color);
      return step;
    }
    case EditOpType::kMutate:
      return PlanMutate(std::get<MutateOp>(op), state);
    case EditOpType::kMerge:
      break;
  }
  const MergeOp& merge = std::get<MergeOp>(op);
  step.size_before = state->size;
  if (merge.IsNullTarget()) {
    // Table 1 "Target is NULL": the DR is extracted as the new image.
    step.kind = RuleStep::Kind::kExtract;
    step.changed = state->DrSize();
    state->width = state->defined_region.Width();
    state->height = state->defined_region.Height();
    state->size = step.changed;
  } else {
    // Paste region in target coordinates, clipped to the target canvas —
    // mirrors Editor::ApplyMerge.
    step.kind = RuleStep::Kind::kPaste;
    step.changed =
        Rect(merge.x, merge.y, merge.x + state->defined_region.Width(),
             merge.y + state->defined_region.Height())
            .Intersect(Rect::Full(target->width, target->height))
            .Area();
    state->width = target->width;
    state->height = target->height;
    state->size = target->size;
  }
  step.size = state->size;
  state->defined_region = state->CanvasBounds();
  return step;
}

RuleStep RuleEngine::PlanMutate(const MutateOp& op, RuleState* state) const {
  RuleStep step;
  step.size = state->size;
  if (state->defined_region == state->CanvasBounds() && op.IsPureScale()) {
    // Table 1 "DR contains image": the canvas is resized. Dimensions (and
    // hence the total pixel count) are exact in both modes.
    const double sx = op.m[0];
    const double sy = op.m[4];
    const int32_t new_w =
        static_cast<int32_t>(std::lround(state->width * sx));
    const int32_t new_h =
        static_cast<int32_t>(std::lround(state->height * sy));
    step.kind = RuleStep::Kind::kScale;
    if (options_.paper_strict) {
      // Multiply the bin bounds by M11 * M22 verbatim.
      step.strict = true;
      step.factor = sx * sy;
    } else {
      // Sound mode: bracket the nearest-neighbor replication factor per
      // source pixel exactly (integer scales collapse to k^2 exactly).
      int64_t fx_min, fx_max, fy_min, fy_max;
      AxisReplication(state->width, new_w, sx, &fx_min, &fx_max);
      AxisReplication(state->height, new_h, sy, &fy_min, &fy_max);
      step.min_hits = fx_min * fy_min;
      step.max_hits = fx_max * fy_max;
    }
    state->width = new_w;
    state->height = new_h;
    state->size = static_cast<int64_t>(new_w) * new_h;
    state->defined_region = state->CanvasBounds();
    step.size = state->size;
    return step;
  }

  // Stamp semantics: only pixels inside the clipped destination box can
  // change, and at most ~|DR| of them have preimages inside the DR.
  const Rect dest =
      MutateDestBox(op, state->defined_region, state->CanvasBounds());
  step.kind = RuleStep::Kind::kWiden;
  if (op.IsRigidBody()) {
    // Table 1 "Rigid Body": adjust by |DR| — plus, in sound mode, a
    // rasterization slack bounded by the region perimeter.
    const int64_t slack =
        options_.paper_strict
            ? 0
            : 2 * (2 * (state->defined_region.Width() +
                        state->defined_region.Height())) +
                  16;
    step.changed = std::min(dest.Area(), state->DrSize() + slack);
  } else {
    // General affine stamp (not covered by Table 1): anything in the
    // destination box may change.
    step.changed = dest.Area();
  }
  return step;
}

}  // namespace mmdb
