// Workload binary of the benchmark. perfbench/run.py builds and starts it;
// it can also be run by hand from the build directory:
//
//   perfbench_workload --workload chip_golden --seed 1 --seconds 25 --trace 0
//
// The last line of its output is one JSON object (see Result::to_json) with
// every metric, its unit and sample count, the checks and the build's
// provenance; run.py turns it into the benchmark's result line.
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <new>
#include <string>
#include <thread>

#include "math/gemm.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// Counting allocator: chip.steady_allocs and util.allocs_per_op count every
// global new made while counting is on. With counting off it costs one
// relaxed load per call.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t n) {
  note_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t align) {
  note_alloc();
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
// Every other form forwards to the two above, so that everything the
// program allocates is counted and freed by the same allocator.
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
void* operator new(std::size_t n, std::align_val_t align, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t align, const std::nothrow_t&) noexcept {
  return ::operator new(n, align, std::nothrow);
}
// GCC flags free() inside a replacement operator delete although every
// operator new above allocates with malloc/aligned_alloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
#pragma GCC diagnostic pop
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace perfbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void count_allocations(bool on) {
  if (on) g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_workload --workload "
               "chip_golden|chip_learned|serve --seed N --seconds S --trace 0|1 "
               "[--setup-only]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 120.0) {
        usage("--seconds takes a number in (0, 120]");
      }
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("--trace is 0 or 1");
      opt.trace = v[0] == '1';
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = perfbench::Clock::now();
  const Options opt = parse(argc, argv);
  lithogan::util::set_log_level(lithogan::util::LogLevel::kWarn);

  void (*run)(perfbench::Context&) = nullptr;
  if (opt.workload == "chip_golden") run = perfbench::run_chip_golden;
  if (opt.workload == "chip_learned") run = perfbench::run_chip_learned;
  if (opt.workload == "serve") run = perfbench::run_serve;
  if (run == nullptr) usage(("unknown workload " + opt.workload).c_str());

  // One execution context for the whole program, sized to the host.
  lithogan::util::ExecContext exec(0);
  perfbench::Result result;
  result.workload = opt.workload;
  result.provenance = {
#if defined(__clang__)
      {"compiler", "clang " __clang_version__},
#else
      {"compiler", "gcc " __VERSION__},
#endif
      {"cxx_flags", PERFBENCH_CXX_FLAGS},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"simd_level", lithogan::math::simd_level()},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"program_threads", std::to_string(exec.threads())},
  };
  perfbench::Context ctx{opt, exec, start, result};
  try {
    run(ctx);
  } catch (const perfbench::SetupDone&) {
    // --setup-only: setup_s is already recorded.
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}
