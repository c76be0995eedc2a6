// Gates on reduced-precision inference (math::Dtype + InferencePlan
// precision knob):
//   * fp32<->fp16 conversion is exact round-to-nearest-even against a
//     double-precision reference — exhaustive half->float->half round trip,
//     RNE midpoint ties, denormals, the 65520 overflow boundary, inf/NaN
//     (SNaN quieting) — and the bulk converters match the scalars;
//   * fp32<->bf16 truncate-RNE likewise (ties and NaN quieting);
//   * an f16 plan over a network equals, bit for bit, an f32 plan over the
//     same network with its weights round-tripped through f16 — reduced
//     storage changes *what* is multiplied, never *how*;
//   * every reduced precision stays within tolerance of the fp32 plan at
//     batch 1/2/8, serial and 8-thread, is bitwise thread-invariant and
//     batch-invariant, and actually differs from fp32 (the knob does
//     something);
//   * the default precision is kF32 unless LITHOGAN_INFER_DTYPE overrides
//     it with a known dtype (there is no int8 plan), and set_precision after
//     add_module throws.
#include <gtest/gtest.h>

#include <cfenv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/config.hpp"
#include "core/networks.hpp"
#include "math/half.hpp"
#include "nn/infer.hpp"
#include "nn/module.hpp"
#include "nn/sequential.hpp"
#include "util/error.hpp"
#include "util/exec_context.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace lc = lithogan::core;
namespace lm = lithogan::math;
namespace ln = lithogan::nn;
namespace lu = lithogan::util;

namespace {

struct QuietLogs {
  QuietLogs() { lu::set_log_level(lu::LogLevel::kWarn); }
} const quiet_logs;

std::uint32_t f32_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

float bits_f32(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

/// Double-precision reference for fp32 -> fp16 rounding: quantize |x| to a
/// p-bit significand at the fp16 exponent (min exponent -14, subnormal step
/// 2^-24) with nearbyint — ties-to-even in the default rounding mode — and
/// saturate to inf past the 65520 midpoint. Returns the rounded value as a
/// float (specials handled by the caller).
float ref_round_f16(float x) {
  const double ax = std::fabs(static_cast<double>(x));
  const double sign = std::signbit(x) ? -1.0 : 1.0;
  if (ax >= 65520.0) return static_cast<float>(sign * HUGE_VAL);
  int e = std::ilogb(ax == 0.0 ? 1.0 : ax);
  if (e < -14) e = -14;
  double m = std::nearbyint(std::scalbn(ax, 10 - e));
  if (m >= 2048.0) {
    m /= 2.0;
    e += 1;
  }
  if (e > 15) return static_cast<float>(sign * HUGE_VAL);
  return static_cast<float>(sign * std::scalbn(m, e - 10));
}

/// Same for fp32 -> bf16 (8-bit significand, min exponent -126; every fp32
/// magnitude below the bf16 normal range is itself a scaled bf16 subnormal,
/// so no separate subnormal clamp is needed beyond the exponent floor).
float ref_round_bf16(float x) {
  const double ax = std::fabs(static_cast<double>(x));
  const double sign = std::signbit(x) ? -1.0 : 1.0;
  int e = std::ilogb(ax == 0.0 ? 1.0 : ax);
  if (e < -126) e = -126;
  double m = std::nearbyint(std::scalbn(ax, 7 - e));
  if (m >= 256.0) {
    m /= 2.0;
    e += 1;
  }
  if (e > 127) return static_cast<float>(sign * HUGE_VAL);
  return static_cast<float>(sign * std::scalbn(m, e - 7));
}

ln::Tensor random_tensor(const std::vector<std::size_t>& shape, lu::Rng& rng) {
  ln::Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

void expect_bitwise_equal(const ln::Tensor& a, const ln::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)), 0)
      << "tensors differ bitwise";
}

lc::LithoGanConfig test_config() {
  lc::LithoGanConfig cfg = lc::LithoGanConfig::tiny();
  cfg.image_size = 16;
  cfg.base_channels = 6;
  cfg.max_channels = 24;
  return cfg;
}

/// Warms BatchNorm running statistics so eval-mode behavior is nontrivial.
void warm_and_eval(ln::Module& net, const std::vector<std::size_t>& sample_shape,
                   lu::Rng& rng) {
  std::vector<std::size_t> shape{4};
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
  net.set_training(true);
  (void)net.forward(random_tensor(shape, rng));
  (void)net.forward(random_tensor(shape, rng));
  net.set_training(false);
}

/// Rounds every *weight* (rank >= 2 parameter: conv/deconv/linear kernels —
/// never rank-1 biases or batchnorm affines, which plans keep at fp32)
/// through the given 16-bit dtype, in place.
void roundtrip_weights(ln::Module& net, lm::Dtype dtype) {
  for (ln::Parameter* p : net.parameters()) {
    if (p->value.rank() < 2) continue;
    float* w = p->value.raw();
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      w[i] = dtype == lm::Dtype::kF16 ? lm::half_to_float(lm::float_to_half(w[i]))
                                      : lm::bf16_to_float(lm::float_to_bf16(w[i]));
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// fp16 conversion
// ---------------------------------------------------------------------------

TEST(HalfConversion, ExhaustiveRoundTripHalfFloatHalf) {
  // Every half pattern must survive half -> float -> half unchanged: the
  // widening is exact and the narrowing of an exactly-representable value
  // must not round. NaNs keep sign/quietness through the float NaN.
  for (std::uint32_t h = 0; h < 0x10000; ++h) {
    const auto h16 = static_cast<std::uint16_t>(h);
    const float f = lm::half_to_float(h16);
    const std::uint16_t back = lm::float_to_half(f);
    if ((h16 & 0x7C00) == 0x7C00 && (h16 & 0x3FF) != 0) {
      EXPECT_TRUE(std::isnan(f)) << "h=" << h;
      EXPECT_EQ(back & 0x7C00, 0x7C00) << "h=" << h;
      EXPECT_NE(back & 0x3FF, 0) << "h=" << h;
    } else {
      EXPECT_EQ(back, h16) << "h=" << h << " f=" << f;
    }
  }
}

TEST(HalfConversion, MatchesDoubleReferenceOnRandomAndEdgeFloats) {
  lu::Rng rng(11);
  std::vector<float> inputs;
  // Dense random coverage across the fp16 dynamic range, plus subnormals.
  for (int i = 0; i < 200000; ++i) {
    const double mag = std::pow(2.0, rng.uniform(-26.0, 17.0));
    inputs.push_back(static_cast<float>(rng.uniform(-1.0, 1.0) * mag));
  }
  // Exact RNE tie cases: halfway between neighboring halves, both parities.
  inputs.insert(inputs.end(),
                {1.0f + 0x1p-11f,          // tie -> even (down): 1.0
                 1.0f + 0x1p-10f + 0x1p-11f,  // tie -> even (up): 1 + 2^-9
                 -(1.0f + 0x1p-11f), 0x1p-25f,  // subnormal tie -> 0
                 0x1p-24f + 0x1p-25f,           // subnormal tie -> 2^-23
                 65504.0f, std::nextafterf(65520.0f, 0.0f), 65520.0f, -65520.0f,
                 0.0f, -0.0f, 0x1p-14f, std::nextafterf(0x1p-14f, 0.0f)});
  for (const float x : inputs) {
    const float got = lm::half_to_float(lm::float_to_half(x));
    const float want = ref_round_f16(x);
    EXPECT_EQ(f32_bits(got), f32_bits(want))
        << "x=" << x << " got=" << got << " want=" << want;
  }
  // Signed zero keeps its sign bit.
  EXPECT_EQ(lm::float_to_half(-0.0f), 0x8000);
  EXPECT_EQ(lm::float_to_half(0.0f), 0x0000);
}

TEST(HalfConversion, SpecialsAndSNaNQuieting) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(lm::float_to_half(inf), 0x7C00);
  EXPECT_EQ(lm::float_to_half(-inf), 0xFC00);
  EXPECT_EQ(lm::half_to_float(0x7C00), inf);
  EXPECT_EQ(lm::half_to_float(0xFC00), -inf);
  // Signaling NaN (mantissa MSB clear) must come out quiet, still NaN.
  const float snan = bits_f32(0x7F800001);
  const std::uint16_t q = lm::float_to_half(snan);
  EXPECT_EQ(q & 0x7C00, 0x7C00);
  EXPECT_NE(q & 0x200, 0) << "SNaN not quieted";
  EXPECT_TRUE(std::isnan(lm::half_to_float(q)));
}

TEST(HalfConversion, BulkMatchesScalar) {
  lu::Rng rng(13);
  std::vector<float> src(1027);  // odd length: exercises the SIMD tail
  for (float& x : src) {
    x = static_cast<float>(rng.uniform(-3.0, 3.0) *
                           std::pow(2.0, rng.uniform(-20.0, 15.0)));
  }
  std::vector<std::uint16_t> bulk(src.size());
  std::vector<float> widened(src.size());
  lm::float_to_half_n(src.data(), src.size(), bulk.data());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(bulk[i], lm::float_to_half(src[i])) << "i=" << i;
  }
  lm::half_to_float_n(bulk.data(), bulk.size(), widened.data());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(f32_bits(widened[i]), f32_bits(lm::half_to_float(bulk[i]))) << "i=" << i;
  }
}

// ---------------------------------------------------------------------------
// bf16 conversion
// ---------------------------------------------------------------------------

TEST(Bf16Conversion, MatchesDoubleReferenceAndTiesToEven) {
  lu::Rng rng(17);
  for (int i = 0; i < 200000; ++i) {
    const double mag = std::pow(2.0, rng.uniform(-40.0, 40.0));
    const float x = static_cast<float>(rng.uniform(-1.0, 1.0) * mag);
    const float got = lm::bf16_to_float(lm::float_to_bf16(x));
    const float want = ref_round_bf16(x);
    EXPECT_EQ(f32_bits(got), f32_bits(want)) << "x=" << x;
  }
  // Ties: midpoint below an even mantissa rounds down, below odd rounds up.
  EXPECT_EQ(lm::bf16_to_float(lm::float_to_bf16(1.0f + 0x1p-8f)), 1.0f);
  EXPECT_EQ(lm::bf16_to_float(lm::float_to_bf16(1.0f + 0x1p-7f + 0x1p-8f)),
            1.0f + 0x1p-6f);
  // Specials.
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(lm::bf16_to_float(lm::float_to_bf16(inf)), inf);
  EXPECT_EQ(lm::bf16_to_float(lm::float_to_bf16(-inf)), -inf);
  EXPECT_EQ(lm::float_to_bf16(-0.0f), 0x8000);
  const std::uint16_t qn = lm::float_to_bf16(bits_f32(0x7F800001));
  EXPECT_NE(qn & 0x40, 0) << "SNaN not quieted";
  EXPECT_TRUE(std::isnan(lm::bf16_to_float(qn)));
}

TEST(Bf16Conversion, BulkMatchesScalar) {
  lu::Rng rng(19);
  std::vector<float> src(517);
  for (float& x : src) x = static_cast<float>(rng.uniform(-100.0, 100.0));
  std::vector<std::uint16_t> bulk(src.size());
  lm::float_to_bf16_n(src.data(), src.size(), bulk.data());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(bulk[i], lm::float_to_bf16(src[i])) << "i=" << i;
  }
}

// ---------------------------------------------------------------------------
// Plan-level invariants
// ---------------------------------------------------------------------------

TEST(PlanPrecision, F16PlanEqualsF32PlanOnRoundtrippedWeights) {
  // The strongest statement of "reduced storage, identical arithmetic":
  // round every weight of an identically-seeded twin network through fp16,
  // plan the twin at f32, and the original at f16 — outputs must be bit-
  // identical at every batch size and thread count, because the f16 plan
  // widens panels exactly and then runs the very same fp32 kernels.
  const lc::LithoGanConfig cfg = test_config();
  for (const lm::Dtype dtype : {lm::Dtype::kF16, lm::Dtype::kBF16}) {
    lu::Rng rng_a(cfg.seed), rng_b(cfg.seed), rng_warm(cfg.seed + 7),
        rng_warm2(cfg.seed + 7);
    auto net = lc::build_generator(cfg, rng_a);
    auto twin = lc::build_generator(cfg, rng_b);
    const std::vector<std::size_t> sample_shape{cfg.mask_channels, cfg.image_size,
                                                cfg.image_size};
    warm_and_eval(*net, sample_shape, rng_warm);
    warm_and_eval(*twin, sample_shape, rng_warm2);
    roundtrip_weights(*twin, dtype);

    ln::InferencePlan reduced, widened;
    reduced.set_precision(dtype);
    reduced.compile(*net, sample_shape);
    widened.set_precision(lm::Dtype::kF32);
    widened.compile(*twin, sample_shape);

    lu::Rng rng_x(31);
    lu::ExecContext exec(8);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      std::vector<std::size_t> shape{batch};
      shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
      const ln::Tensor x = random_tensor(shape, rng_x);
      reduced.set_exec_context(nullptr);
      widened.set_exec_context(nullptr);
      const ln::Tensor ref = widened.infer(x);
      expect_bitwise_equal(ref, reduced.infer(x));
      reduced.set_exec_context(&exec);
      expect_bitwise_equal(ref, reduced.infer(x));
    }
  }
}

TEST(PlanPrecision, ReducedPlansWithinToleranceOfF32) {
  const lc::LithoGanConfig cfg = test_config();
  lu::Rng rng(cfg.seed);
  auto net = lc::build_generator(cfg, rng);
  const std::vector<std::size_t> sample_shape{cfg.mask_channels, cfg.image_size,
                                              cfg.image_size};
  warm_and_eval(*net, sample_shape, rng);

  ln::InferencePlan f32_plan;
  f32_plan.set_precision(lm::Dtype::kF32);
  f32_plan.compile(*net, sample_shape);

  // Relative tolerance on the output range, sized to the weight storage
  // error: fp16 keeps 11 significand bits, bf16 8.
  const struct {
    lm::Dtype dtype;
    double rel_tol;
  } cases[] = {{lm::Dtype::kF16, 0.02}, {lm::Dtype::kBF16, 0.10}};
  lu::ExecContext exec(8);
  for (const auto& c : cases) {
    ln::InferencePlan plan;
    plan.set_precision(c.dtype);
    plan.compile(*net, sample_shape);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      std::vector<std::size_t> shape{batch};
      shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
      const ln::Tensor x = random_tensor(shape, rng);
      f32_plan.set_exec_context(nullptr);
      const ln::Tensor ref = f32_plan.infer(x);
      double ref_max = 0.0;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ref_max = std::max(ref_max, std::fabs(static_cast<double>(ref[i])));
      }
      for (lu::ExecContext* e : {static_cast<lu::ExecContext*>(nullptr), &exec}) {
        plan.set_exec_context(e);
        const ln::Tensor& out = plan.infer(x);
        ASSERT_EQ(out.shape(), ref.shape());
        double max_abs = 0.0;
        for (std::size_t i = 0; i < out.size(); ++i) {
          ASSERT_TRUE(std::isfinite(out[i]));
          max_abs =
              std::max(max_abs, std::fabs(static_cast<double>(out[i] - ref[i])));
        }
        EXPECT_LE(max_abs, c.rel_tol * ref_max + 1e-12)
            << lm::dtype_name(c.dtype) << " batch " << batch << " threads "
            << (e != nullptr ? 8 : 1);
        // The knob must do something: bit-exact "reduced" output means the
        // precision silently fell back everywhere.
        EXPECT_GT(max_abs, 0.0) << lm::dtype_name(c.dtype) << " batch " << batch;
      }
    }
  }
}

TEST(PlanPrecision, ReducedPlansThreadAndBatchInvariant) {
  const lc::LithoGanConfig cfg = test_config();
  lu::Rng rng(cfg.seed + 3);
  auto net = lc::build_generator(cfg, rng);
  const std::vector<std::size_t> sample_shape{cfg.mask_channels, cfg.image_size,
                                              cfg.image_size};
  warm_and_eval(*net, sample_shape, rng);
  lu::ExecContext exec(8);

  for (const lm::Dtype dtype : {lm::Dtype::kF16, lm::Dtype::kBF16}) {
    ln::InferencePlan plan;
    plan.set_precision(dtype);
    plan.compile(*net, sample_shape);

    std::vector<std::size_t> shape{4};
    shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
    const ln::Tensor x = random_tensor(shape, rng);
    plan.set_exec_context(nullptr);
    const ln::Tensor serial = plan.infer(x);
    plan.set_exec_context(&exec);
    expect_bitwise_equal(serial, plan.infer(x));

    // Batch stability: row i of the batched output tracks the single-sample
    // inference of row i to well within the dtype's own rounding scale. The
    // fp32 engine is not bitwise batch-invariant (accumulation shapes vary
    // with batch), so bitwise equality is not demanded.
    plan.set_exec_context(nullptr);
    const std::size_t sample_elems = serial.size() / 4;
    double out_max = 0.0;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      out_max = std::max(out_max, std::fabs(static_cast<double>(serial[i])));
    }
    for (std::size_t i = 0; i < 4; ++i) {
      ln::Tensor one({1, sample_shape[0], sample_shape[1], sample_shape[2]});
      std::memcpy(one.raw(), x.raw() + i * sample_elems,
                  sample_elems * sizeof(float));
      const ln::Tensor& y = plan.infer(one);
      double drift = 0.0;
      for (std::size_t e = 0; e < sample_elems; ++e) {
        drift = std::max(drift, std::fabs(static_cast<double>(
                                    y[e] - serial[i * sample_elems + e])));
      }
      EXPECT_LE(drift, 1e-2 * out_max + 1e-12)
          << lm::dtype_name(dtype) << " row " << i << " drifts with batch";
    }
  }
}

TEST(PlanPrecision, DefaultIsF32AndEnvOverrides) {
  unsetenv("LITHOGAN_INFER_DTYPE");
  EXPECT_EQ(ln::InferencePlan().precision(), lm::Dtype::kF32);
  setenv("LITHOGAN_INFER_DTYPE", "bf16", 1);
  EXPECT_EQ(ln::InferencePlan().precision(), lm::Dtype::kBF16);
  // int8 is not a plan dtype: its former spellings fall back to kF32 like
  // any other unknown string.
  for (const char* name : {"i8", "int8"}) {
    setenv("LITHOGAN_INFER_DTYPE", name, 1);
    EXPECT_EQ(ln::InferencePlan().precision(), lm::Dtype::kF32) << name;
    lm::Dtype parsed = lm::Dtype::kBF16;
    EXPECT_FALSE(lm::parse_dtype(name, parsed)) << name;
    EXPECT_EQ(parsed, lm::Dtype::kBF16) << name;  // left untouched
  }
  setenv("LITHOGAN_INFER_DTYPE", "not-a-dtype", 1);
  EXPECT_EQ(ln::InferencePlan().precision(), lm::Dtype::kF32);
  unsetenv("LITHOGAN_INFER_DTYPE");

  // Baking order: packing happens at add_module, so flipping the precision
  // afterwards must be rejected, not silently half-applied.
  const lc::LithoGanConfig cfg = test_config();
  lu::Rng rng(cfg.seed);
  auto net = lc::build_generator(cfg, rng);
  ln::InferencePlan plan;
  const auto in =
      plan.add_input({cfg.mask_channels, cfg.image_size, cfg.image_size});
  (void)plan.add_layers(*net, in);
  EXPECT_THROW(plan.set_precision(lm::Dtype::kF16), lu::InvalidArgument);
}

TEST(PlanPrecision, WeightBytesShrinkWithDtype) {
  const lc::LithoGanConfig cfg = test_config();
  lu::Rng rng(cfg.seed);
  auto net = lc::build_generator(cfg, rng);
  const std::vector<std::size_t> sample_shape{cfg.mask_channels, cfg.image_size,
                                              cfg.image_size};
  warm_and_eval(*net, sample_shape, rng);
  auto bytes_at = [&](lm::Dtype d) {
    ln::InferencePlan plan;
    plan.set_precision(d);
    plan.compile(*net, sample_shape);
    return plan.weight_bytes();
  };
  const std::size_t f32 = bytes_at(lm::Dtype::kF32);
  const std::size_t f16 = bytes_at(lm::Dtype::kF16);
  EXPECT_LT(f16, f32);
  EXPECT_EQ(bytes_at(lm::Dtype::kBF16), f16);  // same 16-bit layout
}
