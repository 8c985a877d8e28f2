// pimecc benchmark: the perfbench binary.
//
//   perfbench --workload run_table1|mixed_batch|fleet_campaign --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR] [--git-sha SHA]
//
// Prints a host fingerprint, the workload's report lines and every metric
// by name with its unit, then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  A traced run also prints its own end-to-end numbers on a
// `traced_end_to_end` line and writes its spans to DIR.  Exit status: 0
// when every output checked out, 1 on any mismatch, 2 on bad usage.
#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common.hpp"
#include "trace.hpp"
#include "util/executor.hpp"
#include "util/parse.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned int regs[12] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();  // drop the NUL padding
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

std::string metrics_json(const std::vector<MetricSpec>& specs,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const MetricSpec& spec : specs) {
    if (out.size() > 1) out += ", ";
    const auto it = values.find(spec.name);
    out += quoted(spec.name) + ": {\"value\": " +
           number(it == values.end() ? 0.0 : it->second) +
           ", \"unit\": " + quoted(spec.unit) + "}";
  }
  return out + "}";
}

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload run_table1|mixed_batch|"
               "fleet_campaign --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR] [--git-sha SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pimecc;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1) return usage("every option takes one value");

  Options options;
  options.workload = args["--workload"];
  const auto seed = util::parse_u64(args["--seed"]);
  const auto seconds = util::parse_double(args["--seconds"]);
  const std::string trace = args["--trace"];
  if (!seed) return usage("--seed needs a whole number");
  if (!seconds || !(*seconds > 0.0)) return usage("--seconds needs a positive number");
  if (trace != "0" && trace != "1") return usage("--trace needs 0 or 1");
  options.seed = *seed;
  options.seconds = *seconds;
  options.trace = trace == "1";

  Outcome (*workload)(const Options&, Tracer&) = nullptr;
  if (options.workload == "run_table1") workload = run_table1;
  if (options.workload == "mixed_batch") workload = mixed_batch;
  if (options.workload == "fleet_campaign") workload = fleet_campaign;
  if (workload == nullptr) return usage("unknown workload '" + options.workload + "'");

  const std::size_t nproc = affinity_cpus();
  const std::size_t parallelism = util::Executor::shared().parallelism();
  options.check_lanes = std::max<std::size_t>(1, std::min(nproc, parallelism));

  std::cout << "fingerprint {\"cpu\": " << quoted(cpu_model())
            << ", \"simd_detected\": "
            << quoted(util::simd::to_string(util::simd::detected_level()))
            << ", \"simd_active\": "
            << quoted(util::simd::to_string(util::simd::active_level()))
            << ", \"nproc\": " << nproc
            << ", \"executor_parallelism\": " << parallelism
            << ", \"lanes\": " << kLanes
            << ", \"check_lanes\": " << options.check_lanes
            << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << quoted(__VERSION__)
            << ", \"git_sha\": " << quoted(args.count("--git-sha") ? args["--git-sha"] : "unknown")
            << ", \"workload\": " << quoted(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"seconds\": " << number(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0) << "}\n";

  Tracer tracer(options.trace);
  Outcome outcome = workload(options, tracer);
  outcome.check(outcome.attempted > 0, "the workload attempted nothing");

  for (const std::string& line : outcome.notes) std::cout << line << '\n';
  // Reported, not bounded: with per-thread malloc arenas the peak moves by
  // 10-18% between runs of the 4-lane serving workloads.
  std::cout << "peak_rss_mb = " << number(peak_rss_mb()) << " MB\n";
  for (const MetricSpec& spec : kEndToEnd) {
    std::cout << "end_to_end " << spec.name << " = "
              << number(outcome.end_to_end[spec.name]) << ' ' << spec.unit
              << '\n';
  }
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      std::cout << "per_layer " << spec.name << " = "
                << number(outcome.per_layer[spec.name]) << ' ' << spec.unit
                << '\n';
    }
    for (const auto& [name, value] : outcome.per_layer) {
      const bool listed = std::any_of(
          kPerLayer.begin(), kPerLayer.end(),
          [&name](const MetricSpec& spec) { return name == spec.name; });
      outcome.check(listed, "per-layer metric " + name + " is not listed");
    }
    std::cout << "traced_end_to_end "
              << metrics_json(kEndToEnd, outcome.end_to_end) << '\n';
    if (args.count("--trace-dir")) {
      const std::filesystem::path dir = args["--trace-dir"];
      std::error_code error;
      std::filesystem::create_directories(dir, error);
      const std::string path = (dir / (options.workload + "_seed" +
                                       std::to_string(options.seed) + ".tsv"))
                                   .string();
      if (tracer.write(path)) std::cout << "trace written to " << path << '\n';
    }
  }
  for (const std::string& error : outcome.errors) {
    std::cerr << "perfbench: MISMATCH: " << error << '\n';
  }
  if (!outcome.correct()) {
    std::cerr << "perfbench: " << outcome.error_count
              << " output check(s) failed\n";
  }

  std::cout << "{\"correct\": " << (outcome.correct() ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": "
            << metrics_json(options.trace ? kPerLayer : kEndToEnd,
                            options.trace ? outcome.per_layer
                                          : outcome.end_to_end)
            << "}" << std::endl;
  return outcome.correct() ? 0 : 1;
}
