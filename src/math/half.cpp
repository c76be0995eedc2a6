#include "math/half.hpp"

#include <cstring>
#include <string>

#if defined(__F16C__)
#include <immintrin.h>
#endif

namespace lithogan::math {
namespace {

std::uint32_t float_bits(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

float bits_float(std::uint32_t bits) {
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

bool cpu_has_f16c() {
#if defined(__F16C__)
  static const bool ok =
      __builtin_cpu_supports("f16c") && __builtin_cpu_supports("avx");
  return ok;
#else
  return false;
#endif
}

}  // namespace

const char* dtype_name(Dtype dtype) {
  switch (dtype) {
    case Dtype::kF32: return "f32";
    case Dtype::kF16: return "f16";
    case Dtype::kBF16: return "bf16";
  }
  return "f32";
}

bool parse_dtype(const char* name, Dtype& out) {
  if (name == nullptr) return false;
  const std::string s(name);
  if (s == "f32" || s == "fp32" || s == "float" || s == "float32") {
    out = Dtype::kF32;
  } else if (s == "f16" || s == "fp16" || s == "half") {
    out = Dtype::kF16;
  } else if (s == "bf16" || s == "bfloat16") {
    out = Dtype::kBF16;
  } else {
    return false;
  }
  return true;
}

std::size_t dtype_bytes(Dtype dtype) {
  switch (dtype) {
    case Dtype::kF32: return 4;
    case Dtype::kF16: return 2;
    case Dtype::kBF16: return 2;
  }
  return 4;
}

std::uint16_t float_to_half(float value) {
  const std::uint32_t bits = float_bits(value);
  const std::uint16_t sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000u);
  const std::uint32_t ax = bits & 0x7FFFFFFFu;
  if (ax >= 0x7F800000u) {  // inf / NaN: keep top 10 payload bits, quiet SNaNs
    std::uint16_t mant = static_cast<std::uint16_t>((ax >> 13) & 0x3FFu);
    if (ax > 0x7F800000u) mant |= 0x200u;
    return static_cast<std::uint16_t>(sign | 0x7C00u | mant);
  }
  if (ax >= 0x477FF000u) {  // >= 65520 rounds past the largest finite half
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  const std::int32_t exp = static_cast<std::int32_t>(ax >> 23);
  std::uint32_t mant = ax & 0x7FFFFFu;
  const std::int32_t e16 = exp - 112;  // half exponent field before rounding
  if (e16 >= 1) {
    // Normal result: RNE on the low 13 bits; a mantissa carry bumps the
    // exponent field naturally (including into infinity, excluded above).
    mant += 0xFFFu + ((mant >> 13) & 1u);
    return static_cast<std::uint16_t>(
        sign + (static_cast<std::uint32_t>(e16) << 10) + (mant >> 13));
  }
  // Subnormal (or zero) result: shift the implicit-1 mantissa right and RNE.
  const std::int32_t shift = 14 - e16;
  if (shift > 24) return sign;  // too small for even the smallest subnormal
  mant |= 0x800000u;
  std::uint16_t half = static_cast<std::uint16_t>(mant >> shift);
  const std::uint32_t rem = mant & ((1u << shift) - 1u);
  const std::uint32_t midpoint = 1u << (shift - 1);
  if (rem > midpoint || (rem == midpoint && (half & 1u))) ++half;
  return static_cast<std::uint16_t>(sign | half);
}

float half_to_float(std::uint16_t bits) {
  const std::uint32_t sign = static_cast<std::uint32_t>(bits & 0x8000u) << 16;
  const std::uint32_t exp = (bits >> 10) & 0x1Fu;
  std::uint32_t mant = bits & 0x3FFu;
  if (exp == 0) {
    if (mant == 0) return bits_float(sign);
    // Subnormal half: normalize into an fp32 normal.
    std::uint32_t shift = 0;
    while ((mant & 0x400u) == 0) {
      mant <<= 1;
      ++shift;
    }
    return bits_float(sign | ((113u - shift) << 23) | ((mant & 0x3FFu) << 13));
  }
  if (exp == 31) return bits_float(sign | 0x7F800000u | (mant << 13));
  return bits_float(sign | ((exp + 112u) << 23) | (mant << 13));
}

std::uint16_t float_to_bf16(float value) {
  std::uint32_t bits = float_bits(value);
  if ((bits & 0x7FFFFFFFu) > 0x7F800000u) {  // NaN: quiet, keep top payload
    return static_cast<std::uint16_t>((bits >> 16) | 0x40u);
  }
  bits += 0x7FFFu + ((bits >> 16) & 1u);
  return static_cast<std::uint16_t>(bits >> 16);
}

float bf16_to_float(std::uint16_t bits) {
  return bits_float(static_cast<std::uint32_t>(bits) << 16);
}

void float_to_half_n(const float* src, std::size_t count, std::uint16_t* dst) {
  std::size_t i = 0;
#if defined(__F16C__)
  if (cpu_has_f16c()) {
    for (; i + 8 <= count; i += 8) {
      const __m256 v = _mm256_loadu_ps(src + i);
      const __m128i h =
          _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
    }
  }
#endif
  for (; i < count; ++i) dst[i] = float_to_half(src[i]);
}

void half_to_float_n(const std::uint16_t* src, std::size_t count, float* dst) {
  std::size_t i = 0;
#if defined(__F16C__)
  if (cpu_has_f16c()) {
    for (; i + 8 <= count; i += 8) {
      const __m128i h =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
      _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
    }
  }
#endif
  for (; i < count; ++i) dst[i] = half_to_float(src[i]);
}

void float_to_bf16_n(const float* src, std::size_t count, std::uint16_t* dst) {
  for (std::size_t i = 0; i < count; ++i) dst[i] = float_to_bf16(src[i]);
}

void bf16_to_float_n(const std::uint16_t* src, std::size_t count, float* dst) {
  for (std::size_t i = 0; i < count; ++i) dst[i] = bf16_to_float(src[i]);
}

void to_float_n(const std::uint16_t* src, std::size_t count, Dtype dtype,
                float* dst) {
  if (dtype == Dtype::kBF16) {
    bf16_to_float_n(src, count, dst);
  } else {
    half_to_float_n(src, count, dst);
  }
}

const char* half_impl() { return cpu_has_f16c() ? "f16c" : "portable"; }

}  // namespace lithogan::math
