// The three workloads of the benchmark. Each runs in its own process,
// drives the program only through its public API and fills a Result.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "chip/layout.hpp"
#include "common.hpp"
#include "core/config.hpp"
#include "data/render.hpp"
#include "layout/clip.hpp"
#include "litho/process.hpp"
#include "util/exec_context.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop at the first delivered result and report only setup_s: run.py
  /// starts extra processes this way to take a median set-up time.
  bool setup_only = false;
};

/// What every workload gets from main(): its options, the one execution
/// context shared by every part of the program (sized to the host, as the
/// program's front ends size it), the process start time and the result.
struct Context {
  const Options& opt;
  lithogan::util::ExecContext& exec;
  Clock::time_point start;
  Result& result;
};

/// Thrown from a result callback to end a --setup-only run once the first
/// result has arrived; main() catches it.
struct SetupDone {};

/// Chip window edge of every workload's layout: 49 default tiles, ~256
/// contacts.
inline constexpr double kChipNm = 8192.0;

/// Seed streams (see derive_seed): each input draws its own stream.
enum Stream : std::uint64_t { kLayoutStream, kCheckStream, kLightStream, kHeavyStream };

/// The program's default ChipConfig with the benchmark's window and a
/// layout seed drawn from the workload seed.
lithogan::chip::ChipConfig chip_config(std::uint64_t seed);

/// The mask rendering the learned path uses for a model: mask and resist at
/// the model's image size, cropped to the process's crop window.
lithogan::data::RenderConfig render_config(const lithogan::core::LithoGanConfig& model_cfg,
                                           const lithogan::litho::ProcessConfig& process);

/// `count` distinct contact indices out of `total`, drawn from `seed`.
std::vector<std::uint32_t> sample_contacts(std::size_t total, std::size_t count,
                                           std::uint64_t seed);

/// The clip of contact `i` in the frame the learned path uses: extent
/// `clip_extent`, target centred, neighbours from a ChipLayout::query of the
/// clip window (into `nidx`).
void build_clip(const lithogan::chip::ChipLayout& layout, std::uint32_t i, double clip_extent,
                lithogan::layout::MaskClip& clip, std::vector<std::uint32_t>& nidx);

/// Layer-pass stage times must account for the timed pass within this
/// share. The layer pass calls the same functions on the same inputs with
/// the same concurrency, so only glue the benchmark cannot time separately
/// (stitching, scheduling, copy-out) and run-to-run noise remain.
inline constexpr double kAccountingTolerance = 0.25;

/// Reports trace.layer_accounting = layer_s / timed_s and fails the run
/// when it is off 1 by more than kAccountingTolerance.
inline void check_accounting(Result& res, double layer_s, double timed_s,
                             const std::string& what) {
  const double ratio = layer_s / timed_s;
  res.add("trace.layer_accounting", ratio, "fraction", 1);
  char buf[200];
  std::snprintf(buf, sizeof(buf), "layer pass accounts for %s: %.4g of %.4g (%.2f, allowed 1 +- %.2f)",
                what.c_str(), layer_s, timed_s, ratio, kAccountingTolerance);
  res.check(std::abs(ratio - 1.0) <= kAccountingTolerance, buf);
}

/// Reports util.allocs_per_op: heap allocations counted over a warm traced
/// phase per operation (`op` names it) of that phase.
inline void add_allocs_per_op(Result& res, std::uint64_t allocs, std::uint64_t ops,
                              const std::string& op) {
  res.add("util.allocs_per_op", static_cast<double>(allocs) / static_cast<double>(ops), "count",
          ops, "heap allocations per " + op + " over the traced phase");
}

/// Reports the process's FFT plan-cache hits and misses so far
/// (math.fft_plan_hits, math.fft_plan_misses).
void add_plan_counters(Result& res);

void run_chip_golden(Context& ctx);
void run_chip_learned(Context& ctx);
void run_serve(Context& ctx);

// Process-level measurements (main.cpp).
double process_cpu_seconds();
double peak_rss_mb();
/// Heap allocations counted by the binary's operator new while counting is
/// on.
void count_allocations(bool on);
std::uint64_t allocations();

}  // namespace perfbench
