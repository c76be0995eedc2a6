// The paper's evaluation metrics (Sec. 2): edge displacement error (Def. 1)
// between golden and predicted contours, plus the segmentation metrics —
// pixel accuracy (Def. 2), class accuracy (Def. 3) and mean IoU (Def. 4).
#pragma once

#include "image/image.hpp"

namespace lithogan::eval {

/// Segmentation metrics between two monochrome {0,1} images of equal size.
struct PixelMetrics {
  double pixel_accuracy = 0.0;  ///< (sum_i p_ii) / (sum_i t_i)
  double class_accuracy = 0.0;  ///< (1/2) sum_i p_ii / t_i
  double mean_iou = 0.0;        ///< (1/2) sum_i p_ii / (t_i - p_ii + sum_j p_ji)
};

/// Computes Defs. 2-4 treating `golden` as ground truth. Classes are pixel
/// colors {0, 1} after thresholding at 0.5. A class absent from both images
/// counts as perfectly predicted (accuracy/IoU 1 for that class).
PixelMetrics pixel_metrics(const image::Image& golden, const image::Image& predicted);

/// Edge displacement error (Def. 1): per-edge distances between the golden
/// and predicted pattern bounding boxes.
struct EdeResult {
  double left = 0.0;    ///< |golden.left - predicted.left|, pixels
  double right = 0.0;
  double top = 0.0;
  double bottom = 0.0;
  bool valid = false;   ///< false when either image has no pattern

  double mean() const { return (left + right + top + bottom) / 4.0; }
  double max() const;
};

/// EDE in pixel units; multiply by the pixel pitch (nm) for physical error.
/// The bounding box of the largest connected component is used on each side
/// so stray predicted specks don't dominate.
EdeResult edge_displacement_error(const image::Image& golden,
                                  const image::Image& predicted);

/// Euclidean distance between golden and predicted pattern centers (pixels)
/// — the CNN center-prediction error of Sec. 4.1.
double center_error(const image::Image& golden, const image::Image& predicted);

}  // namespace lithogan::eval
