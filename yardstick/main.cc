// The repository benchmark: measures one workload at one seed and prints the
// metrics, with the result as a JSON object on the last stdout line.
//
//   yardstick --workload lan_steady|tpcc_durable|wan_overload --seed N
//             --seconds S --trace 0|1 [--data-dir PATH]
//   yardstick --list-metrics
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and the tracing overhead). Exits 1 when an output, ledger or perturbation
// check fails, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "yardstick: %s\n"
               "usage: yardstick --workload lan_steady|tpcc_durable|wan_overload --seed N\n"
               "                 --seconds S --trace 0|1 [--data-dir PATH]\n"
               "       yardstick --list-metrics\n",
               why);
  return 2;
}

void print_metric(const yardstick::Metric& m) {
  std::string note;
  if (m.samples > 0) note += "n=" + std::to_string(m.samples);
  if (m.samples > 0 && m.episodes > 0) note += " per episode, ";
  if (m.episodes > 0) note += "median of " + std::to_string(m.episodes) + " episodes";
  std::printf("  %-38s %16.6f %-9s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
              note.empty() ? "" : ("(" + note + ")").c_str());
}

}  // namespace

int main(int argc, char** argv) {
  yardstick::RunOptions opt;
  bool have_workload = false, have_data_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-metrics") {
      for (const auto& m : yardstick::end_to_end_metrics()) std::printf("end_to_end %s %s\n", m.name, m.unit);
      for (const auto& m : yardstick::per_layer_metrics()) std::printf("per_layer %s %s\n", m.name, m.unit);
      return 0;
    }
    if (i + 1 >= argc) return usage("missing value after an option");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      const auto w = yardstick::parse_workload(value);
      if (!w) return usage("unknown workload");
      opt.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--data-dir") {
      opt.data_dir = value;
      have_data_dir = true;
    } else {
      return usage("unknown option");
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (opt.workload == yardstick::Workload::tpcc_durable && !have_data_dir) {
    return usage("tpcc_durable needs --data-dir");
  }

  std::printf("workload %s  seed %llu  trace %d\n", yardstick::workload_name(opt.workload),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  const yardstick::RunResult r = yardstick::run_benchmark(opt);
  for (const std::string& v : r.violations) std::fprintf(stderr, "VIOLATION %s\n", v.c_str());
  std::printf("exact counters (reference episode, bit-identical in every episode):\n");
  for (const auto& m : r.counts) std::printf("  %-38s %.17g\n", m.name.c_str(), m.value);
  std::printf("%s metrics:\n", opt.trace ? "per-layer" : "end-to-end");
  for (const auto& m : r.metrics) print_metric(m);

  std::string json = "{\"correct\": ";
  json += r.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.episodes);
  json += ", \"failed\": " + std::to_string(r.failed_episodes);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct() ? 0 : 1;
}
