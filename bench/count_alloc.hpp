// Counting global allocator for the zero-steady-state-allocation gates of
// chip_bench and serve_bench.
//
// count_alloc.cpp replaces every replaceable form of the global operator
// new and operator delete: plain, array and aligned, each with its nothrow
// variant. All of them allocate with malloc/aligned_alloc and free with
// free, so nothing a binary allocates is released by a different allocator
// (ASan's alloc-dealloc-mismatch check holds, including for library code
// such as std::stable_sort's nothrow temporary buffer). Compile the .cpp
// into the executable itself, not into a library the linker may drop.
#pragma once

#include <cstddef>

namespace lithogan::bench {

/// Zeroes the tally and starts counting global operator new calls on every
/// thread. With counting off, the allocator costs one relaxed load per call.
void alloc_count_begin();

/// Stops counting and returns the allocations made since
/// alloc_count_begin().
std::size_t alloc_count_end();

}  // namespace lithogan::bench
