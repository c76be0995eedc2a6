// serve: a serve::Server at its default Config, fed clips rendered from the
// benchmark's seeded chip layout by one generator (this thread produces, a
// claim thread waits). The untraced run holds 2 x max_batch requests in a
// closed loop for the whole run. The traced run adds the open-loop phases:
// Poisson arrivals at a light and at a heavy fixed rate, then a shorter
// closed loop. Their latencies repeat too poorly from run to run on a shared
// host to carry a bound (see README.md), so they are per-layer metrics.
#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "chip/layout.hpp"
#include "core/config.hpp"
#include "core/lithogan.hpp"
#include "data/render.hpp"
#include "litho/process.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lithogan;

namespace {

/// Offered open-loop rates, clips/s: about 25% and 60% of the closed-loop
/// rate the default build reached on a 4-CPU AVX-512 host (~79 clips/s).
/// Fixed numbers, never derived from a run, so every commit is offered the
/// same load.
constexpr double kLightRps = 20.0;
constexpr double kHeavyRps = 47.0;
/// Shares of --seconds the traced run spends in each phase. At 20 s the
/// light phase offers 220 requests; its p95 needs at least 200 under the
/// tail rule.
constexpr double kLightShare = 0.55;
constexpr double kHeavyShare = 0.3;
constexpr double kClosedShare = 0.15;
/// Distinct clips the generator cycles through.
constexpr std::size_t kPoolClips = 64;
/// Layer pass: predict calls per batch size.
constexpr std::size_t kLayerCalls = 8;

struct Pending {
  serve::Ticket ticket;
  Clock::time_point due;
  std::uint32_t clip = 0;
};

struct Done {
  Clock::time_point due;
  Clock::time_point done;
  std::size_t batch = 0;  ///< size of the batch the request rode in
  bool ok = false;
};

/// The generator's claim thread: waits for each ticket in submit order,
/// stamps its completion and checks the bytes against the first response
/// for the same clip.
class Claimer {
 public:
  Claimer(serve::Server& server, std::size_t clips)
      : server_(server), first_(clips), served_(clips, 0), thread_([this] { main(); }) {}
  ~Claimer() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Claimer(const Claimer&) = delete;
  Claimer& operator=(const Claimer&) = delete;

  void push(const Pending& p) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(p);
      ++outstanding_;
    }
    cv_.notify_all();
  }
  /// Blocks until fewer than `n` pushed requests are unclaimed.
  void wait_below(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return outstanding_ < n; });
  }
  /// Blocks until every pushed request is claimed; returns their records.
  std::vector<Done> drain() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return outstanding_ == 0; });
    std::vector<Done> out;
    out.swap(done_);
    return out;
  }
  /// First served bytes per clip (empty if never served) and serve counts.
  const std::vector<std::vector<float>>& first() const { return first_; }
  const std::vector<std::uint64_t>& served() const { return served_; }
  SpanLog& log() { return log_; }

 private:
  void main() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = queue_.front();
        queue_.pop_front();
      }
      bool ok = true;
      std::optional<serve::Response> r;
      try {
        const Span span(log_, "serve.wait");
        r = server_.wait(p.ticket);
      } catch (const std::exception&) {
        ok = false;
      }
      const auto done = Clock::now();
      if (ok) {
        const std::span<const float> bytes = r->resist.data();
        std::vector<float>& first = first_[p.clip];
        if (first.empty()) {
          first.assign(bytes.begin(), bytes.end());
        } else {
          ok = first.size() == bytes.size() &&
               std::memcmp(first.data(), bytes.data(), bytes.size_bytes()) == 0;
        }
        ++served_[p.clip];
      }
      {
        const std::lock_guard<std::mutex> lock(mu_);
        done_.push_back({p.due, done, ok ? r->batch : 0, ok});
        --outstanding_;
      }
      cv_.notify_all();
    }
  }

  serve::Server& server_;
  std::vector<std::vector<float>> first_;  // claim thread only until drained
  std::vector<std::uint64_t> served_;
  SpanLog log_;                            // claim thread only while armed
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::size_t outstanding_ = 0;
  std::vector<Done> done_;
  bool stop_ = false;
  std::thread thread_;
};

/// What one phase measured.
struct PhaseResult {
  std::vector<double> latency_ms;  ///< due -> wait() return; +inf if failed
  std::vector<double> late_ms;     ///< generator lateness per send
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Clips per second between the first and the last batch completed
  /// inside the phase window (closed loop).
  double rate = 0.0;
  std::size_t peak_depth = 0;      ///< server queue depth after sends (traced)
  serve::Stats before, after;
  double queue_wait_us = 0.0, compute_us = 0.0;  ///< histogram sums over the phase
  std::uint64_t histogram_count = 0;
};

class Generator {
 public:
  Generator(serve::Server& server, const std::vector<data::Sample>& pool)
      : server_(server), pool_(pool), claimer_(server, pool.size()) {}

  Claimer& claimer() { return claimer_; }
  SpanLog& log() { return log_; }

  /// Open loop: send at each scheduled time whatever the server is doing.
  PhaseResult open_loop(const std::vector<double>& schedule, double seconds) {
    PhaseResult ph = begin();
    const auto t0 = Clock::now();
    std::uint32_t clip = 0;
    for (const double at : schedule) {
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(at));
      std::this_thread::sleep_until(due);
      ph.late_ms.push_back(seconds_between(due, Clock::now()) * 1e3);
      send(ph, due, clip);
      clip = (clip + 1) % static_cast<std::uint32_t>(pool_.size());
    }
    finish(ph, t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds)));
    return ph;
  }

  /// Sends `count` requests at once and waits for them all.
  void burst(std::size_t count) {
    PhaseResult ph = begin();
    for (std::size_t i = 0; i < count; ++i) {
      send(ph, Clock::now(), static_cast<std::uint32_t>(i % pool_.size()));
    }
    finish(ph, Clock::now());
  }

  /// Closed loop: keep `outstanding` requests in the server for `seconds`.
  PhaseResult closed_loop(std::size_t outstanding, double seconds) {
    PhaseResult ph = begin();
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    std::uint32_t clip = 0;
    while (Clock::now() < end) {
      claimer_.wait_below(outstanding);
      send(ph, Clock::now(), clip);
      clip = (clip + 1) % static_cast<std::uint32_t>(pool_.size());
    }
    finish(ph, end);
    return ph;
  }

 private:
  PhaseResult begin() {
    PhaseResult ph;
    ph.before = server_.stats();
    obs::Registry& reg = obs::Registry::global();
    ph.queue_wait_us = -reg.histogram("serve.queue_wait_us").sum();
    ph.compute_us = -reg.histogram("serve.compute_us").sum();
    ph.histogram_count = reg.histogram("serve.compute_us").count();
    return ph;
  }

  void send(PhaseResult& ph, Clock::time_point due, std::uint32_t clip) {
    ++ph.attempted;
    std::optional<serve::Ticket> ticket;
    {
      const Span span(log_, "serve.submit");
      ticket = server_.try_submit(pool_[clip]);
    }
    if (log_.on()) ph.peak_depth = std::max(ph.peak_depth, server_.stats().queue_depth);
    if (ticket) {
      claimer_.push({*ticket, due, clip});
    } else {
      ++ph.failed;  // rejected: misses every latency metric
      ph.latency_ms.push_back(std::numeric_limits<double>::infinity());
    }
  }

  void finish(PhaseResult& ph, Clock::time_point window_end) {
    const std::vector<Done> done = claimer_.drain();
    // Batches complete together and are claimed in order, so a batch is a
    // run of `batch` consecutive records. Counting from one batch
    // completion to another avoids quantising the rate by whole batches.
    std::optional<Clock::time_point> first_batch;
    Clock::time_point last_batch{};
    std::uint64_t after_first = 0;
    for (std::size_t i = 0; i < done.size();) {
      const std::size_t b = std::max<std::size_t>(1, done[i].batch);
      if (done[i].done > window_end) break;
      if (!first_batch) {
        first_batch = done[i].done;
      } else {
        after_first += b;
        last_batch = done[i].done;
      }
      i += b;
    }
    if (after_first > 0) ph.rate = static_cast<double>(after_first) /
                                   seconds_between(*first_batch, last_batch);
    for (const Done& d : done) {
      if (d.ok) {
        ph.latency_ms.push_back(seconds_between(d.due, d.done) * 1e3);
      } else {
        ++ph.failed;
        ph.latency_ms.push_back(std::numeric_limits<double>::infinity());
      }
    }
    ph.after = server_.stats();
    obs::Registry& reg = obs::Registry::global();
    ph.queue_wait_us += reg.histogram("serve.queue_wait_us").sum();
    ph.compute_us += reg.histogram("serve.compute_us").sum();
    ph.histogram_count = reg.histogram("serve.compute_us").count() - ph.histogram_count;
  }

  serve::Server& server_;
  const std::vector<data::Sample>& pool_;
  SpanLog log_;  // this thread only
  Claimer claimer_;
};

struct Phases {
  PhaseResult light, heavy, closed;
  double cpu_s = 0.0, wall_s = 0.0;
};

Phases run_phases(Generator& gen, const Options& opt, std::size_t max_batch) {
  Phases p;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  const double light_s = opt.seconds * kLightShare;
  const double heavy_s = opt.seconds * kHeavyShare;
  p.light = gen.open_loop(
      poisson_schedule(derive_seed(opt.seed, kLightStream), kLightRps, light_s), light_s);
  p.heavy = gen.open_loop(
      poisson_schedule(derive_seed(opt.seed, kHeavyStream), kHeavyRps, heavy_s), heavy_s);
  p.closed = gen.closed_loop(2 * max_batch, opt.seconds * kClosedShare);
  p.wall_s = seconds_between(t0, Clock::now());
  p.cpu_s = process_cpu_seconds() - cpu0;
  return p;
}

/// The five serving metrics of one run of the phases, by name.
std::vector<std::pair<std::string, double>> serve_values(const Phases& p) {
  return {{"serve_light_p50_ms", percentile(p.light.latency_ms, 0.5).value},
          {"serve_light_p95_ms", percentile(p.light.latency_ms, 0.95).value},
          {"serve_heavy_p50_ms", percentile(p.heavy.latency_ms, 0.5).value},
          {"serve_heavy_p95_ms", percentile(p.heavy.latency_ms, 0.95).value},
          {"serve_saturated_rps", p.closed.rate}};
}

}  // namespace

void run_serve(Context& ctx) {
  Result& res = ctx.result;
  const litho::ProcessConfig process = litho::ProcessConfig::n10();
  const chip::ChipLayout layout(process, chip_config(ctx.opt.seed));
  core::LithoGanConfig model_cfg = core::LithoGanConfig::lite();
  model_cfg.exec = &ctx.exec;
  core::LithoGan model(model_cfg, core::Mode::kDualLearning);

  const data::RenderConfig rc = render_config(model_cfg, process);
  const std::vector<std::uint32_t> picked = sample_contacts(
      layout.contacts().size(), kPoolClips, derive_seed(ctx.opt.seed, kCheckStream));
  std::vector<data::Sample> pool(picked.size());
  layout::MaskClip clip;
  std::vector<std::uint32_t> nidx;
  double query_s = 0.0;
  for (std::size_t k = 0; k < picked.size(); ++k) {
    const auto t = Clock::now();
    build_clip(layout, picked[k], process.grid.extent_nm, clip, nidx);
    query_s += seconds_between(t, Clock::now());
    data::render_mask_into(clip, rc, pool[k].mask_rgb);
    pool[k].resist_pixel_nm = rc.crop_window_nm / static_cast<double>(rc.mask_size_px);
  }

  serve::Server server(model);
  const std::size_t max_batch = server.config().max_batch;
  Phases plain, traced;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::vector<float>> first;  // first served bytes per clip
  std::vector<std::uint64_t> served;
  {
    Generator gen(server, pool);
    // Warm-up: one lone request (its response ends set-up), then one burst
    // of 2 x max_batch so every batch buffer has grown before timing.
    gen.burst(1);
    res.add("setup_s", seconds_between(ctx.start, Clock::now()), "s", 1);
    if (ctx.opt.setup_only) throw SetupDone{};
    gen.burst(2 * max_batch);

    if (!ctx.opt.trace) {
      const PhaseResult closed = gen.closed_loop(2 * max_batch, ctx.opt.seconds);
      attempted += closed.attempted;
      failed += closed.failed;
      res.add("serve_saturated_rps", closed.rate, "clips/s", closed.attempted,
              "between batch completions in the closed-loop window");
      res.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    } else {
      plain = run_phases(gen, ctx.opt, max_batch);
      gen.log().arm(kSpanCapacity);
      gen.claimer().log().arm(kSpanCapacity);
      count_allocations(true);
      traced = run_phases(gen, ctx.opt, max_batch);
      count_allocations(false);
      gen.log().disarm();
      gen.claimer().log().disarm();
      res.check(gen.log().dropped() == 0 && gen.claimer().log().dropped() == 0,
                "span logs kept every event");
      for (const Phases* p : {&plain, &traced}) {
        for (const PhaseResult* ph : {&p->light, &p->heavy, &p->closed}) {
          attempted += ph->attempted;
          failed += ph->failed;
        }
      }
      res.add_percentile("serve_light_p50_ms", plain.light.latency_ms, 0.5, "ms");
      res.add_percentile("serve_light_p95_ms", plain.light.latency_ms, 0.95, "ms");
      res.add_percentile("serve_heavy_p50_ms", plain.heavy.latency_ms, 0.5, "ms");
      res.add_percentile("serve_heavy_p95_ms", plain.heavy.latency_ms, 0.95, "ms");
      // Overhead as the share by which tracing made each metric worse.
      const auto untraced_values = serve_values(plain);
      const auto traced_values = serve_values(traced);
      for (std::size_t i = 0; i < untraced_values.size(); ++i) {
        const auto& [name, before] = untraced_values[i];
        const double after = traced_values[i].second;
        const bool rate = name == "serve_saturated_rps";
        res.add("trace.overhead." + name, (rate ? before - after : after - before) / before,
                "fraction", 2, "share worse with tracing on");
      }
      std::vector<double> submit_us = gen.log().durations_ms("serve.submit");
      for (double& v : submit_us) v *= 1e3;
      res.add_percentile("serve.submit_us.p50", submit_us, 0.5, "us");
      res.add_percentile("serve.submit_us.p95", submit_us, 0.95, "us");
      const PhaseResult& light = traced.light;
      const double n_light = static_cast<double>(light.histogram_count);
      res.add("serve.queue_wait_ms", light.queue_wait_us / n_light / 1e3, "ms",
              light.histogram_count, "mean per request, light phase");
      res.add("serve.compute_ms", light.compute_us / n_light / 1e3, "ms",
              light.histogram_count, "mean per request, light phase");
      const PhaseResult& closed = traced.closed;
      const double mean_batch =
          static_cast<double>(closed.after.completed - closed.before.completed) /
          static_cast<double>(closed.after.batches - closed.before.batches);
      res.add("serve.mean_batch", mean_batch, "clips", closed.after.batches - closed.before.batches,
              "closed-loop phase");
      res.add("serve.batch_fill", mean_batch / static_cast<double>(max_batch), "fraction",
              closed.after.batches - closed.before.batches, "mean_batch / max_batch");
      res.add("serve.peak_queue_depth", static_cast<double>(traced.heavy.peak_depth), "count",
              traced.heavy.attempted, "heavy phase, sampled after each send");
      res.add("serve.rejected",
              static_cast<double>(traced.heavy.after.rejected - traced.heavy.before.rejected),
              "count", traced.heavy.attempted, "heavy phase");
      std::vector<double> late = traced.light.late_ms;
      late.insert(late.end(), traced.heavy.late_ms.begin(), traced.heavy.late_ms.end());
      res.add_percentile("serve.gen_late_ms.p95", late, 0.95, "ms");
      res.add("util.cpu_busy_frac", traced.cpu_s / (traced.wall_s * ctx.exec.threads()),
              "fraction", 1, "over the traced phases");
      add_allocs_per_op(res, allocations(),
                        traced.light.attempted + traced.heavy.attempted + traced.closed.attempted,
                        "request");
      add_plan_counters(res);
      res.add("chip.query_us", query_s * 1e6 / static_cast<double>(picked.size()), "us",
              picked.size(), "mean per clip of the pool (ChipLayout::query and clip build)");
    }
    first = gen.claimer().first();
    served = gen.claimer().served();
  }  // the claim thread is joined here
  server.shutdown();

  // The model is free once the scheduler has stopped.
  if (ctx.opt.trace) {
    std::vector<const data::Sample*> in;
    std::vector<image::Image> outs(max_batch);
    std::vector<image::Image*> out;
    for (std::size_t i = 0; i < max_batch; ++i) {
      in.push_back(&pool[i % pool.size()]);
      out.push_back(&outs[i]);
    }
    core::PredictScratch scratch;
    double b16_ms_per_clip = 0.0;
    for (const std::size_t b : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      const std::span<const data::Sample* const> s(in.data(), b);
      const std::span<image::Image* const> o(out.data(), b);
      model.predict_batch_into(s, o, scratch);  // grow buffers for this size
      const auto t = Clock::now();
      for (std::size_t c = 0; c < kLayerCalls; ++c) model.predict_batch_into(s, o, scratch);
      const double per_clip =
          seconds_between(t, Clock::now()) * 1e3 / static_cast<double>(kLayerCalls * b);
      res.add("core.per_clip_ms.b" + std::to_string(b), per_clip, "ms", kLayerCalls,
              "predict_batch_into, mean per clip");
      if (b == 16) b16_ms_per_clip = per_clip;
    }
    // Saturated, the server is never idle: its time per clip should be the
    // full-batch predict time per clip.
    check_accounting(res, b16_ms_per_clip, 1e3 / traced.closed.rate,
                     "the saturated time per clip (ms)");
  }

  // Every response of a clip was byte-identical to its first one (checked
  // as it arrived); the first must equal a direct predict_batch of the
  // clip, made here rather than before the server starts so that it neither
  // hides plan compilation from setup_s nor counts into it.
  const std::vector<image::Image> reference = model.predict_batch(pool);
  std::uint64_t wrong = 0, clips_served = 0;
  for (std::size_t k = 0; k < pool.size(); ++k) {
    if (served[k] == 0) continue;
    ++clips_served;
    const std::span<const float> want = reference[k].data();
    if (first[k].size() != want.size() ||
        std::memcmp(first[k].data(), want.data(), want.size_bytes()) != 0) {
      wrong += served[k];
    }
  }
  failed += wrong;
  res.check(wrong == 0, std::to_string(clips_served) +
                            " served clips byte-identical to a direct predict_batch (" +
                            std::to_string(wrong) + " responses differ)");
  res.check(failed == 0, "no request rejected, failed or mismatched (" +
                             std::to_string(attempted) + " requests)");
  res.attempted = attempted;
  res.failed = failed;
}

}  // namespace perfbench
