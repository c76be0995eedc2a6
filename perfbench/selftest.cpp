// Unit tests of the benchmark's own rules (common.hpp): the percentile and
// sample-count rule, seeded schedule determinism and the result schema.
// Built as perfbench_selftest; perfbench/test_run.py runs it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cpp:%d: FAILED %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

void percentile_rule() {
  using perfbench::percentile;
  // p50 needs 20 samples, p95 needs 200: ten must lie beyond the rank.
  EXPECT(!percentile(ramp(19), 0.5).ok);
  EXPECT(percentile(ramp(20), 0.5).ok);
  EXPECT(percentile(ramp(20), 0.5).beyond == 10);
  EXPECT(!percentile(ramp(199), 0.95).ok);
  EXPECT(percentile(ramp(200), 0.95).ok);
  EXPECT(percentile(ramp(200), 0.95).beyond == 10);
  EXPECT(!percentile(ramp(999), 0.99).ok);
  EXPECT(percentile(ramp(1000), 0.99).ok);
  // Nearest rank: the ceil(q*n)-th smallest.
  EXPECT(percentile(ramp(200), 0.95).value == 190.0);
  EXPECT(percentile(ramp(20), 0.5).value == 10.0);
  EXPECT(percentile(ramp(1), 0.5).value == 1.0);
  EXPECT(percentile({}, 0.5).n == 0 && !percentile({}, 0.5).ok);
  // A failed request (+inf) lies beyond every percentile.
  std::vector<double> v = ramp(40);
  for (std::size_t i = 0; i < 20; ++i) v[i] = std::numeric_limits<double>::infinity();
  EXPECT(std::isinf(percentile(v, 0.95).value));
  EXPECT(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void schedule_determinism() {
  using perfbench::poisson_schedule;
  const std::vector<double> a = poisson_schedule(11, 20.0, 10.0);
  const std::vector<double> b = poisson_schedule(11, 20.0, 10.0);
  const std::vector<double> c = poisson_schedule(12, 20.0, 10.0);
  EXPECT(a == b);
  EXPECT(a != c);
  EXPECT(a.size() == 200 && c.size() == 200);  // rate x duration, every seed
  EXPECT(a.front() == 0.0);
  bool sorted_in_window = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] >= 10.0 || (i > 0 && a[i] < a[i - 1])) sorted_in_window = false;
  }
  EXPECT(sorted_in_window);
  // Same gap multiset for every seed; only the order differs.
  const auto sorted_gaps = [](const std::vector<double>& t) {
    std::vector<double> g;
    for (std::size_t i = 1; i < t.size(); ++i) g.push_back(t[i] - t[i - 1]);
    std::sort(g.begin(), g.end());
    return g;
  };
  const std::vector<double> ga = sorted_gaps(a), gc = sorted_gaps(c);
  // n arrivals use n - 1 of the n gaps, so the two sets differ in one gap.
  std::size_t unmatched = 0;
  for (std::size_t i = 0, j = 0; i < ga.size(); ++i) {
    while (j < gc.size() && gc[j] < ga[i] - 1e-12) ++j;
    if (j == gc.size() || std::abs(gc[j] - ga[i]) > 1e-12) ++unmatched;
  }
  EXPECT(unmatched <= 1);
  // Gaps follow the exponential law: the median gap is ln 2 / rate.
  EXPECT(std::abs(ga[ga.size() / 2] - std::log(2.0) / 20.0) < 0.005);
  // Streams of one seed differ from each other and from other seeds.
  EXPECT(perfbench::derive_seed(1, 0) != perfbench::derive_seed(1, 1));
  EXPECT(perfbench::derive_seed(1, 0) != perfbench::derive_seed(2, 0));
  EXPECT(perfbench::derive_seed(1, 2) == perfbench::derive_seed(1, 2));
}

void result_schema() {
  perfbench::Result r;
  r.workload = "chip_golden";
  r.attempted = 3;
  r.add("setup_s", 1.25, "s", 5, "median");
  r.add_percentile("x_p95_ms", ramp(10), 0.95, "ms");  // too few samples
  r.check(true, "a \"quoted\" check");
  r.provenance = {{"compiler", "g++"}};
  EXPECT(!r.correct);  // the missing percentile is a failed check
  EXPECT(r.metrics.size() == 1);
  const std::string j = r.to_json();
  for (const char* key : {"\"workload\": \"chip_golden\"", "\"correct\": false",
                          "\"attempted\": 3", "\"failed\": 0", "\"metrics\": [",
                          "\"name\": \"setup_s\"", "\"value\": 1.25", "\"unit\": \"s\"",
                          "\"n\": 5", "\"checks\": [", "a \\\"quoted\\\" check",
                          "\"provenance\": {\"compiler\": \"g++\"}"}) {
    if (j.find(key) == std::string::npos) {
      std::fprintf(stderr, "result JSON lacks %s: %s\n", key, j.c_str());
      ++g_failures;
    }
  }
  EXPECT(perfbench::json_number(std::numeric_limits<double>::infinity()) == "null");
  EXPECT(perfbench::json_number(0.1) == "0.10000000000000001");
}

}  // namespace

int main() {
  percentile_rule();
  schedule_determinism();
  result_schema();
  if (g_failures == 0) std::printf("perfbench selftest: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
