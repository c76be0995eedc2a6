#include <gtest/gtest.h>

#include <cmath>

#include "baseline/flow.hpp"
#include "baseline/threshold_model.hpp"
#include "data/render.hpp"
#include "eval/metrics.hpp"
#include "image/ops.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace lb = lithogan::baseline;
namespace ld = lithogan::data;
namespace li = lithogan::image;
namespace le = lithogan::eval;
namespace lu = lithogan::util;

namespace {

/// Synthetic aerial image: an elliptical Gaussian bump. The iso-contours
/// are ellipses, so golden patterns cut at any level are reproducible by
/// threshold processing.
li::Image bump(std::size_t size, double cx, double cy, double sx, double sy,
               double peak = 0.5) {
  li::Image img(1, size, size);
  for (std::size_t y = 0; y < size; ++y) {
    for (std::size_t x = 0; x < size; ++x) {
      const double dx = (static_cast<double>(x) + 0.5 - cx) / sx;
      const double dy = (static_cast<double>(y) + 0.5 - cy) / sy;
      img.at(0, y, x) = static_cast<float>(peak * std::exp(-(dx * dx + dy * dy)));
    }
  }
  return img;
}

li::Image threshold_image(const li::Image& aerial, float level) {
  return li::Image::from_mask(aerial.to_mask(0, level), aerial.height(), aerial.width());
}

struct QuietLogs {
  QuietLogs() { lu::set_log_level(lu::LogLevel::kWarn); }
} const quiet_logs;

}  // namespace

// ---------------------------------------------------------------------------
// Golden threshold fitting
// ---------------------------------------------------------------------------

TEST(ThresholdFit, RecoverTheCuttingLevel) {
  const auto aerial = bump(32, 16.0, 16.0, 6.0, 6.0);
  const auto golden = threshold_image(aerial, 0.25f);
  lb::Thresholds t{};
  ASSERT_TRUE(lb::fit_golden_thresholds(aerial, golden, t));
  for (const double v : t) EXPECT_NEAR(v, 0.25, 0.04);
}

TEST(ThresholdFit, AsymmetricPatternGivesDistinctThresholds) {
  // Shift the golden pattern right of the bump: the left edge then sits at
  // a higher intensity than the right edge.
  const auto aerial = bump(32, 16.0, 16.0, 6.0, 6.0);
  auto golden = threshold_image(aerial, 0.25f);
  golden = li::shift_bilinear(golden, 2.0, 0.0);
  lb::Thresholds t{};
  ASSERT_TRUE(lb::fit_golden_thresholds(aerial, golden, t));
  EXPECT_GT(t[0], t[1]);  // left edge intensity > right edge intensity
}

TEST(ThresholdFit, EmptyGoldenReturnsFalse) {
  const auto aerial = bump(32, 16.0, 16.0, 6.0, 6.0);
  li::Image empty(1, 32, 32);
  lb::Thresholds t{};
  EXPECT_FALSE(lb::fit_golden_thresholds(aerial, empty, t));
}

TEST(ThresholdFit, MismatchedSizesThrow) {
  const auto aerial = bump(32, 16.0, 16.0, 6.0, 6.0);
  li::Image wrong(1, 16, 16);
  lb::Thresholds t{};
  EXPECT_THROW(lb::fit_golden_thresholds(aerial, wrong, t), lu::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Contour reconstruction
// ---------------------------------------------------------------------------

TEST(ContourFromThresholds, UniformThresholdReproducesIsoContour) {
  const auto aerial = bump(32, 16.0, 16.0, 6.0, 5.0);
  const auto golden = threshold_image(aerial, 0.3f);
  const lb::Thresholds t{0.3, 0.3, 0.3, 0.3};
  const auto rebuilt = lb::contour_from_thresholds(aerial, t);
  const auto m = le::pixel_metrics(golden, rebuilt);
  EXPECT_GT(m.mean_iou, 0.95);
}

TEST(ContourFromThresholds, GoldenFitRoundTrip) {
  // fit -> reconstruct must recover the golden pattern closely, even when
  // the pattern is off-center and elliptical.
  const auto aerial = bump(32, 17.5, 15.0, 7.0, 5.0);
  const auto golden = threshold_image(aerial, 0.22f);
  lb::Thresholds t{};
  ASSERT_TRUE(lb::fit_golden_thresholds(aerial, golden, t));
  const auto rebuilt = lb::contour_from_thresholds(aerial, t);
  const auto ede = le::edge_displacement_error(golden, rebuilt);
  ASSERT_TRUE(ede.valid);
  EXPECT_LT(ede.mean(), 1.0);  // sub-pixel on average
  EXPECT_GT(le::pixel_metrics(golden, rebuilt).mean_iou, 0.9);
}

TEST(ContourFromThresholds, KeepsOnlyCenterBlob) {
  // Two bumps: thresholding lights both, but only the centered one belongs
  // to the target contact.
  auto aerial = bump(32, 16.0, 16.0, 5.0, 5.0);
  const auto side = bump(32, 27.0, 16.0, 4.0, 4.0);
  for (std::size_t i = 0; i < aerial.data().size(); ++i) {
    aerial.data()[i] = std::max(aerial.data()[i], side.data()[i]);
  }
  const lb::Thresholds t{0.3, 0.3, 0.3, 0.3};
  const auto rebuilt = lb::contour_from_thresholds(aerial, t);
  // No lit pixel on the right-hand bump.
  for (std::size_t y = 0; y < 32; ++y) {
    for (std::size_t x = 25; x < 32; ++x) {
      EXPECT_FLOAT_EQ(rebuilt.at(0, y, x), 0.0f) << x << "," << y;
    }
  }
}

TEST(ContourFromThresholds, DirectionalThresholdsShapeTheBlob) {
  const auto aerial = bump(32, 16.0, 16.0, 6.0, 6.0);
  // Lower threshold on the right: the pattern extends further right.
  const lb::Thresholds t{0.35, 0.2, 0.28, 0.28};
  const auto rebuilt = lb::contour_from_thresholds(aerial, t);
  const auto c = ld::pattern_center(rebuilt);
  EXPECT_GT(c.x, 16.0);
}

// ---------------------------------------------------------------------------
// ThresholdFlow (CNN training on synthetic aerial/golden pairs)
// ---------------------------------------------------------------------------

namespace {
ld::Dataset synthetic_flow_dataset(std::size_t count, unsigned seed) {
  lu::Rng rng(seed);
  ld::Dataset ds;
  ds.process_name = "synthetic";
  ds.render.mask_size_px = 16;
  ds.render.resist_size_px = 16;
  for (std::size_t i = 0; i < count; ++i) {
    ld::Sample s;
    s.clip_id = "syn-" + std::to_string(i);
    s.resist_pixel_nm = 8.0;
    const double sx = rng.uniform(3.0, 4.5);
    const double sy = rng.uniform(3.0, 4.5);
    s.aerial = bump(16, 8.0, 8.0, sx, sy);
    const float level = static_cast<float>(rng.uniform(0.2, 0.3));
    s.resist = threshold_image(s.aerial, level);
    s.resist_centered = s.resist;
    s.mask_rgb = li::Image(3, 16, 16);
    s.center_px = ld::pattern_center(s.resist);
    ds.samples.push_back(std::move(s));
  }
  return ds;
}
}  // namespace

TEST(ThresholdFlow, TrainsAndPredictsReasonableThresholds) {
  const auto ds = synthetic_flow_dataset(32, 40);
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
  for (std::size_t i = 0; i < ds.size(); ++i) (i < 24 ? train : test).push_back(i);

  lithogan::core::LithoGanConfig cfg = lithogan::core::LithoGanConfig::tiny();
  cfg.image_size = 16;
  cfg.base_channels = 8;
  cfg.center_epochs = 40;
  lb::ThresholdFlow flow(cfg, lu::Rng(41));
  const double mse = flow.train(ds, train);
  EXPECT_LT(mse, 0.01);

  // Predictions land in the label range and reconstruct decent patterns.
  for (const auto i : test) {
    const auto t = flow.predict_thresholds(ds.samples[i]);
    for (const double v : t) {
      EXPECT_GT(v, 0.05);
      EXPECT_LT(v, 0.5);
    }
    const auto pred = flow.predict(ds.samples[i]);
    const auto m = le::pixel_metrics(ds.samples[i].resist, pred);
    EXPECT_GT(m.pixel_accuracy, 0.85);
  }
}

TEST(ThresholdFlow, GoldenOracleBeatsOrMatchesCnn) {
  const auto ds = synthetic_flow_dataset(16, 50);
  std::vector<std::size_t> train{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  lithogan::core::LithoGanConfig cfg = lithogan::core::LithoGanConfig::tiny();
  cfg.image_size = 16;
  cfg.base_channels = 8;
  cfg.center_epochs = 10;
  lb::ThresholdFlow flow(cfg, lu::Rng(51));
  flow.train(ds, train);

  double cnn_iou = 0.0;
  double oracle_iou = 0.0;
  for (std::size_t i = 12; i < 16; ++i) {
    cnn_iou += le::pixel_metrics(ds.samples[i].resist, flow.predict(ds.samples[i])).mean_iou;
    oracle_iou +=
        le::pixel_metrics(ds.samples[i].resist, flow.predict_with_golden(ds.samples[i]))
            .mean_iou;
  }
  EXPECT_GE(oracle_iou + 1e-9, cnn_iou * 0.95);  // oracle is an upper bound (noise margin)
}

TEST(ThresholdFlow, EmptyTrainingSetRejected) {
  lithogan::core::LithoGanConfig cfg = lithogan::core::LithoGanConfig::tiny();
  cfg.image_size = 16;
  lb::ThresholdFlow flow(cfg, lu::Rng(60));
  const auto ds = synthetic_flow_dataset(2, 61);
  EXPECT_THROW(flow.train(ds, {}), lu::InvalidArgument);
}
