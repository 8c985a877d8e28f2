#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdint>

#include "util/stats.hpp"

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"throughput_per_s", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},    {"setup_s", "s"},
    {"sim_overhead_pct", "%"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"serve.parse_us", "us"},
    {"serve.format_us", "us"},
    {"serve.submit_us", "us"},
    {"serve.take_us", "us"},
    {"serve.registry_us", "us"},
    {"serve.registry_hit_ratio", "ratio"},
    {"serve.drain_once_ms", "ms"},
    {"serve.service_us.map", "us"},
    {"serve.service_us.mttf", "us"},
    {"serve.service_us.sweep", "us"},
    {"serve.service_us.run", "us"},
    {"serve.service_us.scenario", "us"},
    {"serve.lane_busy_frac", "ratio"},
    {"util.parallel_for_us", "us"},
    {"simpler.protected_run_ms", "ms"},
    {"simpler.schedule_us", "us"},
    {"simpler.find_min_pcs_us", "us"},
    {"arch.load_us", "us"},
    {"arch.critical_ops", "count"},
    {"arch.mem_cycles", "count"},
    {"arch.cmem_cycles", "count"},
    {"arch.host_ns_per_critical_op", "ns"},
    {"arch.protected_row_gate_ns", "ns"},
    {"arch.ecc_share", "ratio"},
    {"xbar.row_gate_ns", "ns"},
    {"bench_circuits.verify_ms", "ms"},
    {"reliability.scenario_trials_per_s", "1/s"},
    {"arch.fleet_construct_s", "s"},
    {"arch.fleet_load_s", "s"},
    {"arch.fleet_scrub_s", "s"},
    {"core.encode_cells_per_s", "1/s"},
    {"core.scrub_blocks_per_s", "1/s"},
    {"reliability.campaign_s", "s"},
    {"fault.flips_per_trial", "count"},
    {"reliability.repairs_per_trial", "count"},
    {"reliability.shards_quarantined", "count"},
};

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  ++error_count;
  // The first few failures are enough to diagnose; the count is exact.
  if (errors.size() < 20) errors.push_back(what);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : pimecc::util::percentile(values, p);
}

double HostGauge::tick(double now_s) {
  if (now_s - last_s_ < kIntervalS) return 0.0;
  last_s_ = now_s;
  static std::vector<std::uint64_t> buffer(2u << 20, 1);  // 16 MiB
  const Clock::time_point start = Clock::now();
  std::uint64_t sum = 0;
  for (const std::uint64_t word : buffer) sum += word;
  const double seconds = seconds_between(start, Clock::now());
  // Keeps the sum observable, so the pass is not optimised away.
  buffer[sum % buffer.size()] = 1;
  passes_.push_back(seconds);
  return seconds;
}

double HostGauge::slowdown() const {
  return passes_.empty() ? 1.0 : median(passes_) / kReferencePassS;
}

Summary summarize(const std::vector<Sample>& samples, double phase_start_s,
                  std::size_t group) {
  const std::size_t groups = samples.size() / group;
  if (groups == 0) return Summary{};
  const std::size_t windows = std::min(kWindows, groups);
  std::vector<double> throughput, p50, p90, p99;
  double window_start = phase_start_s;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t begin = w * groups / windows * group;
    const std::size_t end = (w + 1) * groups / windows * group;
    std::vector<double> latencies;
    double work = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      latencies.push_back(samples[i].latency_ms);
      if (samples[i].ok) work += samples[i].work;
    }
    const double window_end = samples[end - 1].done_s;
    throughput.push_back(work / std::max(window_end - window_start, 1e-9));
    window_start = window_end;
    p50.push_back(percentile(latencies, 50.0));
    p90.push_back(percentile(latencies, 90.0));
    p99.push_back(percentile(latencies, 99.0));
  }
  return Summary{median(throughput), median(p50), median(p90), median(p99)};
}

std::string summary_fields(const Summary& summary,
                           const char* throughput_name) {
  return std::string(throughput_name) + "=" + number(summary.throughput) +
         " latency_p50_ms=" + number(summary.p50_ms) +
         " latency_p90_ms=" + number(summary.p90_ms) +
         " latency_p99_ms=" + number(summary.p99_ms);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

}  // namespace perfbench
