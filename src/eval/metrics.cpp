#include "eval/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "data/render.hpp"
#include "image/connected_components.hpp"
#include "util/error.hpp"

namespace lithogan::eval {

PixelMetrics pixel_metrics(const image::Image& golden, const image::Image& predicted) {
  LITHOGAN_REQUIRE(golden.channels() == 1 && predicted.channels() == 1 &&
                       golden.height() == predicted.height() &&
                       golden.width() == predicted.width(),
                   "pixel_metrics image mismatch");
  const auto g = golden.to_mask(0);
  const auto p = predicted.to_mask(0);

  // Confusion counts: n[i][j] = pixels of true class i predicted as j.
  double n[2][2] = {{0.0, 0.0}, {0.0, 0.0}};
  for (std::size_t i = 0; i < g.size(); ++i) {
    n[g[i]][p[i]] += 1.0;
  }
  const double t0 = n[0][0] + n[0][1];
  const double t1 = n[1][0] + n[1][1];
  const double total = t0 + t1;

  PixelMetrics m;
  m.pixel_accuracy = total > 0 ? (n[0][0] + n[1][1]) / total : 1.0;

  const auto class_acc = [&](int c) {
    const double t = c == 0 ? t0 : t1;
    if (t == 0.0) return 1.0;  // class absent from ground truth
    return n[c][c] / t;
  };
  m.class_accuracy = (class_acc(0) + class_acc(1)) / 2.0;

  const auto iou = [&](int c) {
    const double t = c == 0 ? t0 : t1;
    const double pred_c = n[0][c] + n[1][c];
    const double uni = t + pred_c - n[c][c];
    if (uni == 0.0) return 1.0;  // class absent from both
    return n[c][c] / uni;
  };
  m.mean_iou = (iou(0) + iou(1)) / 2.0;
  return m;
}

namespace {
/// Bounding box (inclusive pixel indices) of the largest blob; returns an
/// empty rect when nothing is set.
geometry::Rect pattern_bbox(const image::Image& img) {
  const auto mask = img.to_mask(0);
  const auto labeling = image::label_components(mask, img.width(), img.height());
  const auto* blob = image::largest_component(labeling);
  return blob == nullptr ? geometry::Rect::empty() : blob->bbox;
}
}  // namespace

double EdeResult::max() const { return std::max({left, right, top, bottom}); }

EdeResult edge_displacement_error(const image::Image& golden,
                                  const image::Image& predicted) {
  LITHOGAN_REQUIRE(golden.height() == predicted.height() &&
                       golden.width() == predicted.width(),
                   "EDE image mismatch");
  EdeResult r;
  const geometry::Rect gb = pattern_bbox(golden);
  const geometry::Rect pb = pattern_bbox(predicted);
  if (gb.is_empty() || pb.is_empty()) return r;
  r.left = std::abs(gb.lo.x - pb.lo.x);
  r.right = std::abs(gb.hi.x - pb.hi.x);
  r.bottom = std::abs(gb.lo.y - pb.lo.y);
  r.top = std::abs(gb.hi.y - pb.hi.y);
  r.valid = true;
  return r;
}

double center_error(const image::Image& golden, const image::Image& predicted) {
  const geometry::Point g = data::pattern_center(golden);
  const geometry::Point p = data::pattern_center(predicted);
  return geometry::distance(g, p);
}

}  // namespace lithogan::eval
