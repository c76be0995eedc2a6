// Reduced-precision scalar formats and conversion kernels.
//
// The inference engine can store prepacked weights in fp16 or bf16 to halve
// the bytes streamed per GEMM (the thin-tile serving kernels are
// bandwidth-bound); compute stays in fp32. This header provides the
// dtype vocabulary plus exact fp32<->fp16 and fp32<->bf16 conversions:
//
//  - fp16: IEEE binary16, round-to-nearest-even on narrowing, with the same
//    NaN quieting as the F16C VCVTPS2PH instruction so the portable
//    bit-twiddling path and the hardware path produce identical bits. Bulk
//    converters dispatch to F16C at runtime when compiled in.
//  - bf16: truncated fp32 with round-to-nearest-even (the additive-carry
//    trick); NaNs are quieted so no payload can truncate to infinity.
//
// Widening conversions are exact in both formats, which is what makes the
// reduced-precision GEMM paths testable: a plan packed at fp16 must produce
// bit-identical output to the fp32 plan run on fp16-roundtripped weights.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lithogan::math {

/// Storage dtype for prepacked inference weights.
enum class Dtype : std::uint8_t {
  kF32 = 0,  ///< IEEE binary32 (default; bit-identical to module forward)
  kF16 = 1,  ///< IEEE binary16 weights, fp32 accumulate
  kBF16 = 2, ///< bfloat16 weights, fp32 accumulate
};

/// Short lowercase name ("f32", "f16", "bf16").
const char* dtype_name(Dtype dtype);

/// Parses "f32"/"fp32", "f16"/"fp16"/"half", "bf16" (case sensitive).
/// Returns false (leaving `out` untouched) for null or unknown strings, so
/// env overrides can fall back to a default silently.
bool parse_dtype(const char* name, Dtype& out);

/// Bytes per stored element (4, 2, 2).
std::size_t dtype_bytes(Dtype dtype);

/// fp32 -> fp16 bits, round-to-nearest-even, matching VCVTPS2PH (values
/// beyond +-65519.996 round to +-inf; SNaNs are quieted, payload truncated).
std::uint16_t float_to_half(float value);

/// fp16 bits -> fp32, exact (subnormals and specials included).
float half_to_float(std::uint16_t bits);

/// fp32 -> bf16 bits, round-to-nearest-even; NaNs are quieted.
std::uint16_t float_to_bf16(float value);

/// bf16 bits -> fp32, exact (reinterpret with a 16-bit left shift).
float bf16_to_float(std::uint16_t bits);

/// Bulk conversions. dst/src must not overlap. The fp16 pair uses F16C when
/// the binary was compiled with it and the CPU supports it; every path
/// produces bits identical to the scalar functions above.
void float_to_half_n(const float* src, std::size_t count, std::uint16_t* dst);
void half_to_float_n(const std::uint16_t* src, std::size_t count, float* dst);
void float_to_bf16_n(const float* src, std::size_t count, std::uint16_t* dst);
void bf16_to_float_n(const std::uint16_t* src, std::size_t count, float* dst);

/// Bulk widening for either 16-bit dtype (kF16 or kBF16).
void to_float_n(const std::uint16_t* src, std::size_t count, Dtype dtype, float* dst);

/// "f16c" when the fp16 bulk converters use hardware, else "portable".
const char* half_impl();

}  // namespace lithogan::math
