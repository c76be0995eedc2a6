// Reduced-precision accuracy gate.
//
// Compiles the generator into an fp32 InferencePlan plus one plan per
// reduced precision (f16, bf16), runs the same input batch through all
// of them and gates the deltas with eval::compare_outputs against the
// per-dtype tolerances (eval::gate_tolerance; override via
// LITHOGAN_ACC_MIN_IOU / LITHOGAN_ACC_MAX_CENTER / LITHOGAN_ACC_MAX_ABS).
//
// A second, inverted check runs automatically: every reduced precision must
// *fail* the zero tolerance {min_iou=1, max_center=0, max_abs=0}. A gate
// that cannot distinguish rounded output from exact output gates nothing,
// so a bit-exact "reduced" plan (weights silently kept at fp32) is reported
// as a failure here, not a success.
//
// Usage: accuracy_gate [--config tiny|lite|paper] [--batch N] [--dump]
// Exit status 0 iff every tolerance check and the inverted check pass.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/lithogan.hpp"
#include "eval/precision_gate.hpp"
#include "math/half.hpp"
#include "nn/infer.hpp"
#include "nn/sequential.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

using namespace lithogan;

namespace {

nn::Tensor random_masks(std::size_t batch, const core::LithoGanConfig& cfg,
                        util::Rng& rng) {
  nn::Tensor t({batch, cfg.mask_channels, cfg.image_size, cfg.image_size});
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kWarn);

  core::LithoGanConfig cfg = core::LithoGanConfig::lite();
  std::size_t batch = 4;
  bool dump = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--config" && i + 1 < argc) {
      const std::string name = argv[++i];
      if (name == "tiny") cfg = core::LithoGanConfig::tiny();
      else if (name == "lite") cfg = core::LithoGanConfig::lite();
      else if (name == "paper") cfg = core::LithoGanConfig::paper();
      else {
        std::fprintf(stderr, "unknown --config %s\n", name.c_str());
        return 2;
      }
    } else if (arg == "--batch" && i + 1 < argc) {
      batch = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--dump") {
      dump = true;
    } else {
      std::fprintf(stderr,
                   "usage: accuracy_gate [--config tiny|lite|paper] [--batch N] "
                   "[--dump]\n");
      return 2;
    }
  }

  core::LithoGan model(cfg, core::Mode::kDualLearning);
  auto& gen = static_cast<nn::Sequential&>(model.cgan().generator());
  gen.set_training(false);
  util::Rng rng(20260808);
  const nn::Tensor masks = random_masks(batch, cfg, rng);
  const std::vector<std::size_t> sample_shape{cfg.mask_channels, cfg.image_size,
                                              cfg.image_size};

  nn::InferencePlan ref_plan;
  ref_plan.set_precision(math::Dtype::kF32);
  ref_plan.compile(gen, sample_shape);
  const nn::Tensor ref = ref_plan.infer(masks);  // copy: plan storage is reused

  std::printf("accuracy gate — generator %zux%zu, batch %zu, fp32 reference\n\n",
              cfg.image_size, cfg.image_size, batch);
  std::printf("  %-6s %10s %12s %10s %8s %8s\n", "dtype", "mean_iou", "max_center",
              "max_abs", "weights", "gate");

  const eval::GateTolerance zero{1.0, 0.0, 0.0};
  bool ok = true;
  for (const math::Dtype dtype : {math::Dtype::kF16, math::Dtype::kBF16}) {
    nn::InferencePlan plan;
    plan.set_precision(dtype);
    plan.compile(gen, sample_shape);
    const nn::Tensor& out = plan.infer(masks);
    const eval::GateResult r = eval::compare_outputs(ref, out);
    const eval::GateTolerance tol = eval::gate_tolerance(dtype);
    const bool pass = r.pass(tol);
    // Inverted check: rounding must be *visible* — a reduced plan whose
    // output is bit-exact would mean the precision knob did nothing.
    const bool discriminates = !r.pass(zero);
    ok = ok && pass && discriminates;
    std::printf("  %-6s %10.4f %12.3f %10.2e %7zuK %8s\n", math::dtype_name(dtype),
                r.mean_iou, r.max_center, r.max_abs, plan.weight_bytes() / 1024,
                !pass              ? "FAIL"
                : !discriminates   ? "FAIL(exact)"
                                   : "OK");
    if (!pass) {
      std::printf("         tolerance: min_iou=%.4f max_center=%.3f max_abs=%.2e\n",
                  tol.min_iou, tol.max_center, tol.max_abs);
    }
    if (dump) std::printf("\n%s\n", plan.plan_dump().c_str());
  }

  std::printf("\nfp32 plan weights: %zuK; zero-tolerance check: reduced plans "
              "must (and do%s) fail {iou=1, center=0, abs=0}\n",
              ref_plan.weight_bytes() / 1024, ok ? "" : " NOT");
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
