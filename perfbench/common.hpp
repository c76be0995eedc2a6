// Shared pieces of the benchmark's workload binary: the percentile rule,
// the seeded arrival schedule, the in-memory span log and the result record
// the binary prints for perfbench/run.py. Nothing here calls the program
// under test, so selftest.cpp can check it on its own.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Samples a tail percentile must leave beyond it before it is reported.
inline constexpr std::size_t kMinBeyond = 10;

/// A percentile of a sample set, with the counts that justify reporting it.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;       ///< samples in the set
  std::size_t beyond = 0;  ///< samples strictly above the chosen rank
  bool ok = false;         ///< beyond >= kMinBeyond
};

/// Nearest-rank q-th percentile: the ceil(q*n)-th smallest sample. It is
/// reportable only when at least kMinBeyond samples lie beyond that rank
/// (so p50 needs 20 samples and p95 needs 200). The benchmark keeps its own
/// statistics so that no change to the program can alter how it is scored.
inline Percentile percentile(std::vector<double> v, double q) {
  Percentile p;
  p.n = v.size();
  if (v.empty()) return p;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  p.value = v[idx];
  p.beyond = v.size() - 1 - idx;
  p.ok = p.beyond >= kMinBeyond;
  return p;
}

/// Median of any non-empty set (no tail rule: used for per-pass rates).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Gaps per block of a stratified schedule (see poisson_schedule).
inline constexpr std::size_t kScheduleBlock = 10;

/// Open-loop Poisson arrival times in seconds from the phase start, first
/// arrival at 0. There are round(rate * duration) arrivals; their gaps are
/// the exponential quantiles at (i + 1/2) / n, so every seed offers the same
/// load with the same gap distribution. The gaps are dealt in blocks of
/// kScheduleBlock: each block holds one gap from each of kScheduleBlock
/// equal-probability strata of the law, and the seed shuffles which gap of
/// a stratum lands in which block and the order inside each block. Seeds
/// thus differ in where bursts fall but not in the load of any block, which
/// caps how long a random lull or burst can last: tail latency then repeats
/// from seed to seed instead of following a few chance clusters.
///
/// A pure function of its arguments: std::mt19937_64 is fully specified by
/// the standard and the shuffles are written out, so the schedule depends on
/// neither the library's distributions nor the program's RNG.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                            double duration_s) {
  const auto n = static_cast<std::size_t>(std::llround(rate_per_s * duration_s));
  std::vector<double> sorted(n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted[i] = -std::log1p(-(static_cast<double>(i) + 0.5) / static_cast<double>(n)) / rate_per_s;
  }
  std::mt19937_64 rng(seed);
  const auto shuffle = [&rng](double* first, std::size_t count) {
    for (std::size_t i = 0; i + 1 < count; ++i) {
      std::swap(first[i], first[i + static_cast<std::size_t>(rng() % (count - i))]);
    }
  };
  // Stratum s is sorted[s * blocks, (s + 1) * blocks); block b takes the
  // b-th gap of every stratum after each stratum is shuffled.
  const std::size_t blocks = (n + kScheduleBlock - 1) / kScheduleBlock;
  for (std::size_t s = 0; s * blocks < n; ++s) {
    shuffle(sorted.data() + s * blocks, std::min(blocks, n - s * blocks));
  }
  std::vector<double> gaps;
  gaps.reserve(n);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t start = gaps.size();
    for (std::size_t s = 0; s * blocks + b < n; ++s) gaps.push_back(sorted[s * blocks + b]);
    shuffle(gaps.data() + start, gaps.size() - start);
  }
  std::vector<double> t(n);
  double now = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = now;
    now += gaps[i];
  }
  return t;
}

/// Mixes a workload seed with a stream tag, so the layout, the arrival
/// schedule of each phase and the check samples draw independent streams.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Events a span log holds per traced pass: far more than any pass records,
/// so a faster program never overflows it. Reserved, not touched.
inline constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;

/// In-memory span log for the traced pass. Events go into storage reserved
/// up front, so recording never allocates inside a pass whose allocations
/// are being counted; events past the reservation are counted as dropped.
class SpanLog {
 public:
  struct Event {
    const char* name = nullptr;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t arg = 0;  ///< tile index, batch size, ...
  };

  void arm(std::size_t capacity) {
    events_.clear();
    events_.reserve(capacity);
    dropped_ = 0;
    on_ = true;
  }
  void disarm() { on_ = false; }
  bool on() const { return on_; }

  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::uint64_t arg = 0) {
    if (!on_) return;
    if (events_.size() == events_.capacity()) {
      ++dropped_;
      return;
    }
    events_.push_back({name, start, end, arg});
  }

  const std::vector<Event>& events() const { return events_; }
  std::size_t dropped() const { return dropped_; }

  /// Durations (ms) of every event with this name.
  std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Event& e : events_) {
      if (name == e.name) out.push_back(seconds_between(e.start, e.end) * 1e3);
    }
    return out;
  }

 private:
  std::vector<Event> events_;
  std::size_t dropped_ = 0;
  bool on_ = false;
};

/// Times one call into the program when the log is armed.
class Span {
 public:
  Span(SpanLog& log, const char* name, std::uint64_t arg = 0)
      : log_(log), name_(name), arg_(arg), start_(log.on() ? Clock::now() : Clock::time_point{}) {}
  ~Span() {
    if (log_.on()) log_.add(name_, start_, Clock::now(), arg_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
  const char* name_;
  std::uint64_t arg_;
  Clock::time_point start_;
};

/// One run's result, printed as a single JSON line for run.py.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t n = 0;     ///< samples behind the value
    std::string note;      ///< e.g. which percentile a tail value is
  };

  std::string workload;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> checks;  ///< human-readable check lines
  std::vector<std::pair<std::string, std::string>> provenance;

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t n, const std::string& note = {}) {
    metrics.push_back({name, value, unit, n, note});
  }
  /// Adds a percentile if the tail rule allows it; otherwise records a
  /// failed check, because a metric the benchmark promises is missing.
  void add_percentile(const std::string& name, const std::vector<double>& samples,
                      double q, const std::string& unit) {
    const Percentile p = percentile(samples, q);
    char note[64];
    std::snprintf(note, sizeof(note), "p%g, %zu beyond", q * 100.0, p.beyond);
    if (p.ok) {
      add(name, p.value, unit, p.n, note);
    } else {
      check(false, name + ": only " + std::to_string(p.n) + " samples, " +
                       std::to_string(p.beyond) + " beyond p" +
                       std::to_string(static_cast<int>(q * 100.0)) + " (need " +
                       std::to_string(kMinBeyond) + ")");
    }
  }
  /// Records a check line; a failing check makes the run incorrect.
  void check(bool pass, const std::string& what) {
    checks.push_back(std::string(pass ? "ok   " : "FAIL ") + what);
    if (!pass) correct = false;
  }

  std::string to_json() const;
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string Result::to_json() const {
  std::string s;
  const auto str = [&s](const std::string& text) {
    s += '"';
    s += json_escape(text);
    s += '"';
  };
  s += "{\"workload\": ";
  str(workload);
  s += ", \"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    s += i ? ", {\"name\": " : "{\"name\": ";
    str(m.name);
    s += ", \"value\": " + json_number(m.value) + ", \"unit\": ";
    str(m.unit);
    s += ", \"n\": " + std::to_string(m.n) + ", \"note\": ";
    str(m.note);
    s += '}';
  }
  s += "], \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i) s += ", ";
    str(checks[i]);
  }
  s += "], \"provenance\": {";
  for (std::size_t i = 0; i < provenance.size(); ++i) {
    if (i) s += ", ";
    str(provenance[i].first);
    s += ": ";
    str(provenance[i].second);
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
