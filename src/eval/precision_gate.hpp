// Accuracy gate for reduced-precision inference plans.
//
// A reduced-precision InferencePlan (nn::InferencePlan::Precision = f16 /
// bf16) trades weight bytes and GEMM bandwidth for rounding error. The
// gate quantifies that error against the fp32 plan on the *evaluation*
// metrics the reproduction actually reports — mean IoU and center error of
// the binarized resist images (eval::pixel_metrics / eval::center_error) —
// plus the raw max |delta| on the pre-threshold tanh outputs, which is the
// robust signal when outputs hover near the 0.5 binarization threshold
// (untrained weights do).
//
// Shared header-only helper: tools/accuracy_gate runs it standalone,
// bench/infer_latency gates its per-precision timing rows with it.
//
// Per-dtype default tolerances (see EXPERIMENTS.md for the calibration) can
// be overridden with LITHOGAN_ACC_MIN_IOU / LITHOGAN_ACC_MAX_CENTER /
// LITHOGAN_ACC_MAX_ABS; an override applies to every dtype, so exporting
// zeros is the "tolerance 0" hard mode that any rounding at all fails.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "data/batch.hpp"
#include "eval/metrics.hpp"
#include "math/half.hpp"
#include "nn/tensor.hpp"

namespace lithogan::eval {

/// Pass/fail thresholds for one reduced-precision comparison.
struct GateTolerance {
  double min_iou = 0.0;     ///< mean IoU of binarized outputs must be >= this
  double max_center = 0.0;  ///< worst per-sample center error (px) must be <=
  double max_abs = 0.0;     ///< max |reduced - fp32| on raw outputs must be <=
};

/// Default tolerance for `dtype` with env overrides applied. f32 demands
/// exactness (the default plan is bit-identical to eval-mode forward); the
/// reduced dtypes widen with the storage error: fp16 keeps 11 significand
/// bits, bf16 8.
inline GateTolerance gate_tolerance(math::Dtype dtype) {
  GateTolerance tol;
  switch (dtype) {
    case math::Dtype::kF32:
      tol = {1.0, 0.0, 0.0};
      break;
    case math::Dtype::kF16:
      tol = {0.98, 2.0, 0.02};
      break;
    case math::Dtype::kBF16:
      tol = {0.90, 4.0, 0.10};
      break;
  }
  if (const char* env = std::getenv("LITHOGAN_ACC_MIN_IOU")) {
    tol.min_iou = std::atof(env);
  }
  if (const char* env = std::getenv("LITHOGAN_ACC_MAX_CENTER")) {
    tol.max_center = std::atof(env);
  }
  if (const char* env = std::getenv("LITHOGAN_ACC_MAX_ABS")) {
    tol.max_abs = std::atof(env);
  }
  return tol;
}

/// Measured deltas between a reference (fp32) and a reduced-precision
/// generator output batch.
struct GateResult {
  double mean_iou = 1.0;    ///< mean over samples of binarized mean IoU
  double max_center = 0.0;  ///< worst per-sample center error, px
  double max_abs = 0.0;     ///< max |delta| over every raw output element
  std::size_t samples = 0;

  bool pass(const GateTolerance& tol) const {
    return mean_iou >= tol.min_iou && max_center <= tol.max_center &&
           max_abs <= tol.max_abs;
  }
};

/// Compares two (N, 1, H, W) generator outputs in [-1, 1], `ref` acting as
/// golden. Throws (via tensor_to_resist_image) on shape mismatch.
inline GateResult compare_outputs(const nn::Tensor& ref, const nn::Tensor& test) {
  GateResult r;
  r.samples = ref.dim(0);
  double iou_sum = 0.0;
  for (std::size_t n = 0; n < r.samples; ++n) {
    const image::Image golden = data::tensor_to_resist_image(ref, n);
    const image::Image predicted = data::tensor_to_resist_image(test, n);
    iou_sum += pixel_metrics(golden, predicted).mean_iou;
    r.max_center = std::max(r.max_center, center_error(golden, predicted));
  }
  r.mean_iou = r.samples > 0 ? iou_sum / static_cast<double>(r.samples) : 1.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    r.max_abs = std::max(r.max_abs, static_cast<double>(std::fabs(ref[i] - test[i])));
  }
  return r;
}

}  // namespace lithogan::eval
