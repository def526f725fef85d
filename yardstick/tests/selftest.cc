// Self-test of the benchmark: the summary helpers, and a tiny-scale run of
// every workload (untraced and traced) that must pass all checks and emit
// every named metric. Run it with `python3 yardstick/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>

#include "stats.h"
#include "workloads.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL %s\n", what.c_str());
  }
}

void test_helpers() {
  using yardstick::percentile;
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  expect(percentile(hundred, 50) == 50, "p50 of 1..100 is 50 (nearest rank)");
  expect(percentile(hundred, 99) == 99, "p99 of 1..100 is 99");
  expect(percentile(hundred, 100) == 100, "p100 is the maximum");
  expect(percentile({7}, 99) == 7, "percentile of one sample is that sample");
  expect(percentile({}, 50) == 0, "percentile of nothing is 0");
  expect(percentile({1, 2, 3}, 0.1) == 1, "a tiny p maps to the minimum");

  expect(yardstick::median({3, 1, 2}) == 2, "odd median");
  expect(yardstick::median({4, 1, 3, 2}) == 2.5, "even median averages the middle pair");
  expect(yardstick::median({}) == 0, "median of nothing is 0");

  expect(yardstick::ratio(3, 4) == 0.75, "ratio");
  expect(yardstick::ratio(3, 0) == 0, "ratio over zero is 0");

  expect(yardstick::completed_frac(200, 0) == 1.0, "nothing failed");
  expect(yardstick::completed_frac(200, 50) == 0.75, "a quarter failed");
  expect(yardstick::completed_frac(0, 0) == 1.0, "nothing generated");
}

void test_workload(yardstick::Workload w, bool trace, const std::filesystem::path& data_dir) {
  const std::string label =
      std::string(yardstick::workload_name(w)) + (trace ? " traced" : " untraced");
  yardstick::RunOptions opt;
  opt.workload = w;
  opt.seed = 11;
  opt.seconds = 0.01;
  opt.trace = trace;
  opt.data_dir = data_dir;
  // Long enough for the durable workload to checkpoint and truncate a
  // segment and for the overload workload's chaos window to open.
  opt.duration = w == yardstick::Workload::wan_overload ? 4 * otpdb::kSecond : 3 * otpdb::kSecond;
  opt.min_episodes = 1;
  const yardstick::RunResult r = yardstick::run_benchmark(opt);
  for (const std::string& v : r.violations) expect(false, label + ": " + v);
  expect(r.episodes >= (trace ? 3u : 2u), label + ": reference plus timed episodes ran");

  const auto& specs = trace ? yardstick::per_layer_metrics() : yardstick::end_to_end_metrics();
  std::set<std::string> emitted;
  for (const auto& m : r.metrics) {
    emitted.insert(m.name);
    expect(std::isfinite(m.value), label + ": " + m.name + " is finite");
  }
  expect(r.metrics.size() == specs.size(), label + ": one value per named metric");
  for (const auto& spec : specs) {
    expect(emitted.count(spec.name) == 1, label + ": emits " + spec.name);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path data_dir =
      argc > 1 ? std::filesystem::path(argv[1]) : std::filesystem::path("yardstick-selftest-data");
  test_helpers();
  for (auto w : {yardstick::Workload::lan_steady, yardstick::Workload::tpcc_durable,
                 yardstick::Workload::wan_overload}) {
    test_workload(w, false, data_dir);
    test_workload(w, true, data_dir);
  }
  std::filesystem::remove_all(data_dir);
  std::printf("%s (%d failure%s)\n", failures == 0 ? "selftest passed" : "selftest FAILED",
              failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
