// chip_golden and chip_learned: chip::ChipPipeline over a generated chip
// window, at the program's default ChipConfig except for the window size and
// the layout seed.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chip/layout.hpp"
#include "chip/pipeline.hpp"
#include "core/config.hpp"
#include "core/lithogan.hpp"
#include "data/batch.hpp"
#include "data/render.hpp"
#include "geometry/marching_squares.hpp"
#include "litho/resist.hpp"
#include "litho/simulator.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lithogan;

namespace {

/// Contacts re-checked per run (standalone simulation / module forward).
constexpr std::size_t kGoldenChecks = 8;
constexpr std::size_t kLearnedChecks = 4;
/// Allowed difference between a plan output and the module-forward
/// reference, per pixel of the final resist image (values in [0, 1]). The
/// two paths may round differently (packed GEMM vs module forward); the
/// default build agrees exactly.
constexpr double kLearnedMaxAbs = 1e-3;

double ms_since(Clock::time_point t) { return seconds_between(t, Clock::now()) * 1e3; }

litho::ProcessConfig calibrated_process() {
  litho::Simulator calib(litho::ProcessConfig::n10());
  calib.calibrate_dose();
  return calib.process();
}

/// Counts how often each contact is delivered in one pass.
class Coverage {
 public:
  explicit Coverage(std::size_t contacts) : seen_(contacts, 0) {}
  void reset() { std::fill(seen_.begin(), seen_.end(), 0); }
  void add(std::span<const chip::ContactResult> results) {
    for (const chip::ContactResult& r : results) {
      if (r.contact < seen_.size() && seen_[r.contact] < 255) ++seen_[r.contact];
    }
  }
  /// Contacts not delivered exactly once.
  std::uint64_t failures() const {
    return static_cast<std::uint64_t>(
        std::count_if(seen_.begin(), seen_.end(), [](std::uint8_t s) { return s != 1; }));
  }

 private:
  std::vector<std::uint8_t> seen_;
};

struct Phase {
  std::vector<double> pass_s;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
};

/// Runs whole passes until `seconds` have elapsed (at least one pass).
template <typename PassFn>
Phase timed_phase(double seconds, std::size_t contacts, Coverage& coverage,
                  const PassFn& pass) {
  Phase ph;
  ph.pass_s.reserve(4096);  // no allocation inside a counted pass
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  while (ph.pass_s.empty() || seconds_between(t0, Clock::now()) < seconds) {
    coverage.reset();
    const auto tp = Clock::now();
    pass();
    ph.pass_s.push_back(seconds_between(tp, Clock::now()));
    ph.failed += coverage.failures();
    ph.attempted += contacts;
  }
  ph.wall_s = seconds_between(t0, Clock::now());
  ph.cpu_s = process_cpu_seconds() - cpu0;
  return ph;
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter_value(name);
}

/// Tracing overhead of a higher-is-better rate: the share the traced pass
/// lost (negative when it happened to run faster).
void add_overhead(Result& res, const std::string& metric, double untraced, double traced) {
  res.add("trace.overhead." + metric, (untraced - traced) / untraced, "fraction", 2,
          "share lost with tracing on");
}

}  // namespace

chip::ChipConfig chip_config(std::uint64_t seed) {
  chip::ChipConfig c;
  c.chip_nm = kChipNm;
  c.seed = derive_seed(seed, kLayoutStream);
  return c;
}

std::vector<std::uint32_t> sample_contacts(std::size_t total, std::size_t count,
                                           std::uint64_t seed) {
  std::vector<std::uint32_t> all(total);
  std::iota(all.begin(), all.end(), 0u);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i + 1 < total; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng() % (total - i));
    std::swap(all[i], all[j]);
  }
  all.resize(std::min(count, total));
  return all;
}

void build_clip(const chip::ChipLayout& layout, std::uint32_t i, double clip_extent,
                layout::MaskClip& clip, std::vector<std::uint32_t>& nidx) {
  const chip::ChipContact& contact = layout.contacts()[i];
  const geometry::Point center = contact.drawn.center();
  const geometry::Point off{clip_extent / 2.0 - center.x, clip_extent / 2.0 - center.y};
  clip.extent_nm = clip_extent;
  clip.target = contact.drawn.translated(off);
  clip.target_opc = contact.opc.translated(off);
  clip.neighbors.clear();
  clip.neighbors_opc.clear();
  clip.srafs.clear();
  layout.query({{center.x - clip_extent / 2.0, center.y - clip_extent / 2.0},
                {center.x + clip_extent / 2.0, center.y + clip_extent / 2.0}},
               nidx);
  for (const std::uint32_t j : nidx) {
    if (j == i) continue;
    clip.neighbors.push_back(layout.contacts()[j].drawn.translated(off));
    clip.neighbors_opc.push_back(layout.contacts()[j].opc.translated(off));
  }
}

void add_plan_counters(Result& res) {
  res.add("math.fft_plan_hits", static_cast<double>(counter("fft.plan_cache.hit")), "count", 1,
          "process total");
  res.add("math.fft_plan_misses", static_cast<double>(counter("fft.plan_cache.miss")), "count",
          1, "process total");
}

data::RenderConfig render_config(const core::LithoGanConfig& model_cfg,
                                 const litho::ProcessConfig& process) {
  data::RenderConfig rc;
  rc.mask_size_px = model_cfg.image_size;
  rc.resist_size_px = model_cfg.image_size;
  rc.crop_window_nm = process.crop_window_nm;
  return rc;
}

// ---------------------------------------------------------------------------
// chip_golden
// ---------------------------------------------------------------------------

namespace {

/// Per-tile stage times of the golden layer pass, ms.
struct TileStages {
  double query = 0, rasterize = 0, aerial = 0, latent = 0, threshold = 0, contour = 0;
  double total() const { return query + rasterize + aerial + latent + threshold + contour; }
};

/// One worker's copy of the golden stages, built from the pipeline's own
/// tile process so every stage sees the grid the tiles run on.
struct StageWorker {
  explicit StageWorker(const litho::ProcessConfig& tile) : sim(tile), resist(tile.resist) {}
  litho::Simulator sim;  ///< optical model + contour extraction
  litho::VariableThresholdResist resist;
  std::vector<std::uint32_t> idx;
  std::vector<geometry::Rect> openings;
};

TileStages run_tile_stages(const chip::ChipPipeline& pipe, const chip::ChipLayout& layout,
                           std::size_t tile, StageWorker& w) {
  TileStages st;
  const geometry::Rect window = pipe.tile_window(tile % pipe.tiles_x(), tile / pipe.tiles_x());
  auto t = Clock::now();
  layout.query(window, w.idx);
  st.query = ms_since(t);

  t = Clock::now();
  w.openings.clear();
  for (const std::uint32_t i : w.idx) {
    w.openings.push_back(layout.contacts()[i].opc.translated({-window.lo.x, -window.lo.y}));
  }
  const litho::FieldGrid mask = litho::rasterize_mask(w.openings, pipe.tile_process().grid);
  st.rasterize = ms_since(t);

  t = Clock::now();
  const litho::FieldGrid aerial = w.sim.optical().aerial_image(mask);
  st.aerial = ms_since(t);

  t = Clock::now();
  const litho::FieldGrid latent = w.resist.latent_image(aerial);
  st.latent = ms_since(t);

  t = Clock::now();
  litho::FieldGrid develop = w.resist.threshold_field(latent);
  for (std::size_t i = 0; i < develop.values.size(); ++i) {
    develop.values[i] = latent.values[i] - develop.values[i];
  }
  st.threshold = ms_since(t);

  t = Clock::now();
  const std::vector<geometry::Polygon> contours = w.sim.contours(develop);
  st.contour = ms_since(t);
  return st;
}

/// Re-simulates one contact alone, on a contact-centred window at the tile
/// pixel pitch whose origin sits on the tile pixel lattice, and compares
/// printed state and CD with the pipeline's stitched result.
bool golden_contact_agrees(const chip::ChipLayout& layout, litho::Simulator& solo,
                           std::uint32_t contact, const chip::ContactResult& got,
                           double px, std::string& detail) {
  const double extent = solo.process().grid.extent_nm;
  const geometry::Point c = layout.contacts()[contact].drawn.center();
  const geometry::Point lo{std::floor((c.x - extent / 2.0) / px) * px,
                           std::floor((c.y - extent / 2.0) / px) * px};
  std::vector<std::uint32_t> idx;
  layout.query({lo, {lo.x + extent, lo.y + extent}}, idx);
  std::vector<geometry::Rect> openings;
  for (const std::uint32_t i : idx) {
    openings.push_back(layout.contacts()[i].opc.translated({-lo.x, -lo.y}));
  }
  const litho::SimulationResult r = solo.run(openings);
  const litho::CriticalDimension cd = litho::measure_cd(r.contours, {c.x - lo.x, c.y - lo.y});
  const bool printed = cd.width_nm > 0.0;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "contact %u: chip %s %.1fx%.1f nm, standalone %s %.1fx%.1f nm",
                contact, got.printed ? "printed" : "open", got.cd_width_nm, got.cd_height_nm,
                printed ? "printed" : "open", cd.width_nm, cd.height_nm);
  detail = buf;
  if (printed != got.printed) return false;
  return !printed || (std::abs(cd.width_nm - got.cd_width_nm) <= px &&
                      std::abs(cd.height_nm - got.cd_height_nm) <= px);
}

}  // namespace

void run_chip_golden(Context& ctx) {
  Result& res = ctx.result;
  const litho::ProcessConfig process = calibrated_process();
  const chip::ChipLayout layout(process, chip_config(ctx.opt.seed));
  chip::ChipPipeline pipe(process, layout, &ctx.exec);
  const std::size_t contacts = layout.contacts().size();
  const double chip_um2 = (kChipNm / 1000.0) * (kChipNm / 1000.0);
  const std::size_t depth = pipe.stats().ring_slots;

  // Results of the sampled contacts, kept from the latest pass.
  const std::vector<std::uint32_t> checked =
      sample_contacts(contacts, kGoldenChecks, derive_seed(ctx.opt.seed, kCheckStream));
  std::vector<int> check_slot(contacts, -1);
  for (std::size_t k = 0; k < checked.size(); ++k) check_slot[checked[k]] = static_cast<int>(k);
  std::vector<chip::ContactResult> check_results(checked.size());

  Coverage coverage(contacts);
  SpanLog log;
  std::optional<Clock::time_point> first_result;
  const chip::ChipPipeline::Sink sink = [&](std::size_t tile,
                                            std::span<const chip::ContactResult> r) {
    const Span span(log, "chip.sink", tile);
    if (!first_result) {
      first_result = Clock::now();
      res.add("setup_s", seconds_between(ctx.start, *first_result), "s", 1);
      if (ctx.opt.setup_only) throw SetupDone{};
    }
    coverage.add(r);
    for (const chip::ContactResult& x : r) {
      if (x.contact < contacts && check_slot[x.contact] >= 0) {
        chip::ContactResult& keep = check_results[static_cast<std::size_t>(check_slot[x.contact])];
        keep.contact = x.contact;
        keep.printed = x.printed;
        keep.cd_width_nm = x.cd_width_nm;
        keep.cd_height_nm = x.cd_height_nm;
      }
    }
  };
  const auto pass = [&] {
    const auto t = Clock::now();
    log.add("chip.pass_start", t, t);
    pipe.run_golden(sink);
  };

  // Warm pass: per-worker simulator clones and FFT plans are built here.
  coverage.reset();
  pass();
  std::uint64_t failed = coverage.failures();
  std::uint64_t attempted = contacts;

  const Phase plain = timed_phase(ctx.opt.seconds, contacts, coverage, pass);
  failed += plain.failed;
  attempted += plain.attempted;
  std::vector<double> rates;
  for (const double s : plain.pass_s) rates.push_back(chip_um2 / s);
  const double rate = median(rates);

  if (!ctx.opt.trace) {
    res.add("golden_um2_per_s", rate, "um2/s", rates.size(), "median over passes");
    res.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  } else {
    // Traced pass: a marker at each pass start and a span on every sink call.
    log.arm(kSpanCapacity);
    count_allocations(true);
    const Phase traced = timed_phase(ctx.opt.seconds, contacts, coverage, pass);
    count_allocations(false);
    log.disarm();
    add_allocs_per_op(res, allocations(), traced.attempted, "contact");
    failed += traced.failed;
    attempted += traced.attempted;
    std::vector<double> traced_rates;
    for (const double s : traced.pass_s) traced_rates.push_back(chip_um2 / s);
    add_overhead(res, "golden_um2_per_s", rate, median(traced_rates));

    // Wave gaps: from each wave's first sink call to the next wave's (wave
    // 0 from the start of its pass). A slow or short tail wave shows here.
    std::vector<double> wave_ms;
    Clock::time_point prev{};
    for (const SpanLog::Event& e : log.events()) {
      if (std::strcmp(e.name, "chip.pass_start") == 0) {
        prev = e.start;
      } else if (std::strcmp(e.name, "chip.sink") == 0 && e.arg % depth == 0) {
        wave_ms.push_back(seconds_between(prev, e.start) * 1e3);
        prev = e.start;
      }
    }
    res.add("chip.wave_ms.p50", percentile(wave_ms, 0.5).value, "ms", wave_ms.size());
    // The highest percentile the wave count supports under the tail rule.
    for (const double q : {0.95, 0.9, 0.75, 0.5}) {
      const Percentile p = percentile(wave_ms, q);
      if (p.ok || q == 0.5) {
        char note[48];
        std::snprintf(note, sizeof(note), "p%g, %zu beyond", q * 100.0, p.beyond);
        res.add("chip.wave_ms.tail", p.value, "ms", p.n, note);
        res.check(p.ok, "chip.wave_ms.tail has " + std::to_string(p.beyond) +
                            " samples beyond it (need " + std::to_string(kMinBeyond) + ")");
        break;
      }
    }
    res.add("util.cpu_busy_frac", traced.cpu_s / (traced.wall_s * ctx.exec.threads()),
            "fraction", 1, "over the traced pass");
    res.add("chip.core_area_frac",
            kChipNm * kChipNm /
                (static_cast<double>(pipe.tiles()) * layout.config().tile_extent_nm *
                 layout.config().tile_extent_nm),
            "fraction", 1, "chip area / simulated tile area");
    res.add("chip.ring_mb", static_cast<double>(pipe.stats().ring_bytes) / (1024.0 * 1024.0),
            "MB", 1);
    add_plan_counters(res);
    res.check(log.dropped() == 0, "span log kept every event");

    // Layer pass: each stage's public function on every tile, waves fanned
    // out across the same pool the pipeline uses.
    std::vector<std::unique_ptr<StageWorker>> workers;
    for (std::size_t w = 0; w < ctx.exec.threads(); ++w) {
      workers.push_back(std::make_unique<StageWorker>(pipe.tile_process()));
    }
    std::vector<TileStages> stages(pipe.tiles());
    for (std::size_t wave = 0; wave < pipe.tiles(); wave += depth) {
      const std::size_t count = std::min(depth, pipe.tiles() - wave);
      ctx.exec.pool().parallel_for(0, count, 1,
                                   [&](std::size_t b, std::size_t e, std::size_t worker) {
                                     for (std::size_t k = b; k < e; ++k) {
                                       stages[wave + k] = run_tile_stages(
                                           pipe, layout, wave + k, *workers[worker]);
                                     }
                                   });
    }
    const auto stage_mean = [&](double TileStages::*field) {
      double s = 0.0;
      for (const TileStages& t : stages) s += t.*field;
      return s / static_cast<double>(stages.size());
    };
    const std::size_t n = stages.size();
    res.add("litho.rasterize_ms", stage_mean(&TileStages::rasterize), "ms", n, "mean per tile");
    res.add("litho.aerial_ms", stage_mean(&TileStages::aerial), "ms", n, "mean per tile");
    res.add("litho.latent_ms", stage_mean(&TileStages::latent), "ms", n, "mean per tile");
    res.add("litho.threshold_ms", stage_mean(&TileStages::threshold), "ms", n, "mean per tile");
    res.add("geometry.contour_ms", stage_mean(&TileStages::contour), "ms", n, "mean per tile");
    res.add("chip.query_us", stage_mean(&TileStages::query) * 1e3, "us", n, "mean per tile");

    // A wave lasts as long as its slowest tile; the waves add up to a pass.
    double layer_s = 0.0;
    for (std::size_t wave = 0; wave < n; wave += depth) {
      double slowest = 0.0;
      for (std::size_t k = wave; k < std::min(n, wave + depth); ++k) {
        slowest = std::max(slowest, stages[k].total());
      }
      layer_s += slowest / 1e3;
    }
    check_accounting(res, layer_s, median(traced.pass_s), "the golden pass time (s)");
  }

  // Standalone re-simulation of the sampled contacts.
  litho::ProcessConfig solo_process = pipe.tile_process();
  const double px = solo_process.grid.pixel_nm();
  solo_process.grid.pixels = 256;
  solo_process.grid.extent_nm = px * 256.0;
  litho::Simulator solo(solo_process);
  std::size_t agree = 0;
  for (std::size_t k = 0; k < checked.size(); ++k) {
    std::string detail;
    if (golden_contact_agrees(layout, solo, checked[k], check_results[k], px, detail)) {
      ++agree;
    } else {
      ++failed;
      res.check(false, "standalone re-simulation disagrees: " + detail);
    }
  }
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%zu/%zu sampled contacts agree with a standalone %.0f nm simulation "
                "(printed state, CD within %.1f nm = 1 px)",
                agree, checked.size(), solo_process.grid.extent_nm, px);
  res.check(agree == checked.size(), buf);
  res.check(failed == 0, "every contact delivered exactly once in every pass (" +
                             std::to_string(attempted) + " deliveries)");
  res.attempted = attempted;
  res.failed = failed;
}

// ---------------------------------------------------------------------------
// chip_learned
// ---------------------------------------------------------------------------

void run_chip_learned(Context& ctx) {
  Result& res = ctx.result;
  const litho::ProcessConfig process = calibrated_process();
  const chip::ChipLayout layout(process, chip_config(ctx.opt.seed));
  chip::ChipPipeline pipe(process, layout, &ctx.exec);
  core::LithoGanConfig model_cfg = core::LithoGanConfig::lite();
  model_cfg.exec = &ctx.exec;
  core::LithoGan model(model_cfg, core::Mode::kDualLearning);
  const std::size_t contacts = layout.contacts().size();

  Coverage coverage(contacts);
  SpanLog log;
  std::optional<Clock::time_point> first_result;
  const chip::ChipPipeline::Sink sink = [&](std::size_t tile,
                                            std::span<const chip::ContactResult> r) {
    const Span span(log, "chip.sink", tile);
    if (!first_result) {
      first_result = Clock::now();
      res.add("setup_s", seconds_between(ctx.start, *first_result), "s", 1);
      if (ctx.opt.setup_only) throw SetupDone{};
    }
    coverage.add(r);
  };
  const auto pass = [&] { pipe.run_learned(model, sink); };

  coverage.reset();
  pass();  // warm: compiles the plans, grows every pooled buffer
  std::uint64_t failed = coverage.failures();
  std::uint64_t attempted = contacts;

  const Phase plain = timed_phase(ctx.opt.seconds, contacts, coverage, pass);
  failed += plain.failed;
  attempted += plain.attempted;
  std::vector<double> rates;
  for (const double s : plain.pass_s) rates.push_back(static_cast<double>(contacts) / s);
  const double rate = median(rates);

  if (!ctx.opt.trace) {
    res.add("learned_contacts_per_s", rate, "contacts/s", rates.size(), "median over passes");
    res.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  } else {
    log.arm(kSpanCapacity);
    count_allocations(true);
    const Phase traced = timed_phase(ctx.opt.seconds, contacts, coverage, pass);
    count_allocations(false);
    log.disarm();
    const std::uint64_t allocs = allocations();
    failed += traced.failed;
    attempted += traced.attempted;
    std::vector<double> traced_rates;
    for (const double s : traced.pass_s) traced_rates.push_back(static_cast<double>(contacts) / s);
    add_overhead(res, "learned_contacts_per_s", rate, median(traced_rates));
    res.add("chip.steady_allocs", static_cast<double>(allocs), "count", traced.pass_s.size(),
            "heap allocations over the warm traced passes");
    add_allocs_per_op(res, allocs, traced.attempted, "contact");
    add_plan_counters(res);
    res.add("util.cpu_busy_frac", traced.cpu_s / (traced.wall_s * ctx.exec.threads()),
            "fraction", 1, "over the traced pass");
    res.check(log.dropped() == 0, "span log kept every event");

    // Layer pass: the learned path's steps, called one by one in the
    // pipeline's order on the same tiles, clips and sub-batches.
    const std::size_t batch = layout.config().infer_batch;
    const data::RenderConfig rc = render_config(model_cfg, process);
    const double clip_extent = process.grid.extent_nm;
    std::vector<data::Sample> samples(batch);
    std::vector<const data::Sample*> sample_ptrs(batch);
    std::vector<image::Image> outputs(batch);
    std::vector<image::Image*> output_ptrs(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      sample_ptrs[i] = &samples[i];
      output_ptrs[i] = &outputs[i];
    }
    core::PredictScratch scratch;
    layout::MaskClip clip;
    std::vector<std::uint32_t> idx, nidx;
    std::vector<double> grid;
    geometry::ContourScratch contour_scratch;
    std::vector<geometry::Polygon> pool;
    double query_ms = 0, render_ms = 0, predict_ms = 0, contour_ms = 0;
    std::size_t queries = 0, clips = 0, predicts = 0;
    const std::uint64_t flops0 = counter("gemm.flops");
    const std::uint64_t im2col0 = counter("conv.algo.im2col");
    const std::uint64_t fft0 = counter("conv.algo.fft");

    const auto flush = [&](std::size_t lane) {
      if (lane == 0) return;
      auto t = Clock::now();
      model.predict_batch_into(std::span<const data::Sample* const>(sample_ptrs.data(), lane),
                               std::span<image::Image* const>(output_ptrs.data(), lane),
                               scratch);
      predict_ms += ms_since(t);
      ++predicts;
      for (std::size_t l = 0; l < lane; ++l) {
        const image::Image& img = outputs[l];
        const std::size_t s = img.height();
        grid.resize(s * s);
        const std::span<const float> ch = img.channel(0);
        for (std::size_t p = 0; p < s * s; ++p) grid[p] = static_cast<double>(ch[p]);
        t = Clock::now();
        geometry::extract_contours_into(grid, s, s, 0.5, contour_scratch, pool);
        contour_ms += ms_since(t);
      }
    };
    for (std::size_t tile = 0; tile < pipe.tiles(); ++tile) {
      const geometry::Rect window = pipe.tile_window(tile % pipe.tiles_x(), tile / pipe.tiles_x());
      auto t = Clock::now();
      layout.query(window, idx);
      query_ms += ms_since(t);
      ++queries;
      std::size_t lane = 0;
      for (const std::uint32_t i : idx) {
        if (pipe.owner_tile(layout.contacts()[i].drawn.center()) != tile) continue;
        t = Clock::now();
        build_clip(layout, i, clip_extent, clip, nidx);
        query_ms += ms_since(t);
        t = Clock::now();
        data::render_mask_into(clip, rc, samples[lane].mask_rgb);
        render_ms += ms_since(t);
        samples[lane].resist_pixel_nm = rc.crop_window_nm / static_cast<double>(rc.mask_size_px);
        ++queries;
        ++clips;
        if (++lane == batch) {
          flush(lane);
          lane = 0;
        }
      }
      flush(lane);
    }
    const double gflop = static_cast<double>(counter("gemm.flops") - flops0) * 1e-9;
    const double nclips = static_cast<double>(clips);
    res.add("chip.query_us", query_ms * 1e3 / static_cast<double>(queries), "us", queries,
            "mean per ChipLayout::query call");
    res.add("data.render_us", render_ms * 1e3 / nclips, "us", clips, "mean per clip");
    res.add("geometry.contour_us", contour_ms * 1e3 / nclips, "us", clips, "mean per clip");
    res.add("core.predict_ms", predict_ms / static_cast<double>(predicts), "ms", predicts,
            "mean per sub-batch");
    res.add("core.predict_ms_per_clip", predict_ms / nclips, "ms", clips);
    res.add("math.gemm_gflop_per_clip", gflop / nclips, "GFLOP", clips, "from gemm.flops");
    res.add("nn.gemm_gflops", gflop / (predict_ms / 1e3), "GFLOP/s", predicts,
            "gemm.flops / predict time");
    res.add("math.conv_im2col",
            static_cast<double>(counter("conv.algo.im2col") - im2col0) / static_cast<double>(predicts),
            "count", predicts, "per predict call");
    res.add("math.conv_fft",
            static_cast<double>(counter("conv.algo.fft") - fft0) / static_cast<double>(predicts),
            "count", predicts, "per predict call");
    check_accounting(res, (query_ms + render_ms + predict_ms + contour_ms) / 1e3,
                     median(traced.pass_s), "the learned pass time (s)");
  }

  // Numerical check on untrained weights (not a fidelity measure): plan
  // outputs against the module-forward reference on sampled contacts.
  const std::vector<std::uint32_t> checked =
      sample_contacts(contacts, kLearnedChecks, derive_seed(ctx.opt.seed, kCheckStream));
  const data::RenderConfig rc = render_config(model_cfg, process);
  std::vector<data::Sample> samples(checked.size());
  layout::MaskClip clip;
  std::vector<std::uint32_t> nidx;
  for (std::size_t k = 0; k < checked.size(); ++k) {
    build_clip(layout, checked[k], process.grid.extent_nm, clip, nidx);
    data::render_mask_into(clip, rc, samples[k].mask_rgb);
    samples[k].resist_pixel_nm = rc.crop_window_nm / static_cast<double>(rc.mask_size_px);
  }
  const std::vector<image::Image> planned = model.predict_batch(samples);
  double worst = 0.0;
  std::uint64_t mismatched = 0;
  for (std::size_t k = 0; k < checked.size(); ++k) {
    const nn::Tensor shape = model.predict_shape(data::image_to_tensor(samples[k].mask_rgb));
    const image::Image reference =
        data::recenter_to(data::tensor_to_resist_image(shape), model.predict_center(samples[k]));
    double max_abs = 0.0;
    const std::span<const float> a = planned[k].data();
    const std::span<const float> b = reference.data();
    if (a.size() != b.size()) {
      max_abs = 1.0;
    } else {
      for (std::size_t p = 0; p < a.size(); ++p) {
        max_abs = std::max(max_abs, static_cast<double>(std::abs(a[p] - b[p])));
      }
    }
    worst = std::max(worst, max_abs);
    if (max_abs > kLearnedMaxAbs) ++mismatched;
  }
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%zu sampled plan outputs match the module-forward reference: max |diff| "
                "%.2e (allowed %.2e; untrained weights, a numerical check, not fidelity)",
                checked.size(), worst, kLearnedMaxAbs);
  res.check(mismatched == 0, buf);
  res.check(failed == 0, "every contact delivered exactly once in every pass (" +
                             std::to_string(attempted) + " deliveries)");
  res.attempted = attempted;
  res.failed = failed + mismatched;
}

}  // namespace perfbench
