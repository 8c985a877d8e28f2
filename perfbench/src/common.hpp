// pimecc benchmark -- shared vocabulary of the perfbench binary:
// options, the outcome of one workload run, the metric lists, and small
// timing and statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return seconds_between(from, to) * 1e3;
}

/// Executor lanes / campaign threads of the measured work.  One: a batch
/// or campaign spread over the vCPUs of a shared host waits for the
/// slowest of them, so its time follows the host's scheduler, not the
/// program.
inline constexpr std::size_t kLanes = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Lanes of the untimed multi-lane checks and the executor probe: the
  /// CPUs this process may run on, capped at the shared executor's
  /// parallelism.  Never 0.
  std::size_t check_lanes = 1;
};

/// A metric's name and unit, as listed in BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: reported by every workload's untraced run.
extern const std::vector<MetricSpec> kEndToEnd;
/// Per-layer metrics: reported by every workload's traced run (0 for a
/// layer the workload does not exercise).
extern const std::vector<MetricSpec> kPerLayer;

/// Everything one workload run produces.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness failures; any entry makes the run incorrect.
  std::vector<std::string> errors;
  std::size_t error_count = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Human-readable report lines printed before the result.
  std::vector<std::string> notes;

  /// Records a correctness failure when `ok` is false.
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
  [[nodiscard]] bool correct() const noexcept { return error_count == 0; }
};

/// Median of a copy of `values` (0 for an empty sample).
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile (0..100) of `values` (0 for an empty sample).
[[nodiscard]] double percentile(const std::vector<double>& values, double p);

/// One completed request (or campaign) of a measured phase.
struct Sample {
  double done_s = 0.0;      ///< completion time on the phase's clock
  double latency_ms = 0.0;
  double work = 0.0;        ///< units of work it completed when ok
  bool ok = false;
};

/// Gauge of the shared host's memory speed.  On a shared host the speed of
/// this program drifts by 10-40% between runs, with the other tenants'
/// cache and memory traffic; no statistic inside one run removes that from
/// a comparison between runs.  The gauge times a fixed pass over a 16 MiB
/// buffer, which depends on nothing in the library, every kIntervalS of a
/// run's measured phase.  A run's host-time figures are scaled to a host
/// whose pass takes kReferencePassS: times are divided by slowdown(), rates
/// multiplied by it.  The unscaled figures are reported beside them.
class HostGauge {
 public:
  /// One pass's seconds on the host the benchmark was tuned on (a 4-core
  /// Xeon microVM); it sets the scale of every host-time metric.
  static constexpr double kReferencePassS = 2.5e-3;
  /// Run-clock seconds between two timed passes.
  static constexpr double kIntervalS = 0.25;

  /// Times one pass at `now_s` on a run's clock when kIntervalS has passed
  /// since the last one; returns the seconds it took (0 when none ran), so
  /// that the caller can leave them out of its clock.
  double tick(double now_s);
  /// The median pass of the run divided by kReferencePassS; 1 when no
  /// pass was timed.
  [[nodiscard]] double slowdown() const;
  [[nodiscard]] std::size_t passes() const noexcept { return passes_.size(); }

 private:
  std::vector<double> passes_;  ///< seconds of each pass
  double last_s_ = -1e300;
};

/// Throughput and latency of a measured phase, each the median over
/// kWindows runs of consecutive samples of that window's figure, so that
/// one stall of a shared host moves one window, not the result.  Windows
/// hold whole groups of `group` samples; a trailing partial group is
/// dropped, so a window's mix of request kinds does not depend on where
/// the phase ended.
struct Summary {
  double throughput = 0.0;  ///< ok work per second of the phase's clock
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;

  /// This summary on a host whose gauge reads `slowdown`.
  [[nodiscard]] Summary scaled(double slowdown) const {
    return {throughput * slowdown, p50_ms / slowdown, p90_ms / slowdown,
            p99_ms / slowdown};
  }
};
inline constexpr std::size_t kWindows = 5;
/// `phase_start_s` is where the first window starts on the samples' clock.
[[nodiscard]] Summary summarize(const std::vector<Sample>& samples,
                                double phase_start_s, std::size_t group);
/// "throughput_rps=.. latency_p50_ms=.." report fields of a summary.
[[nodiscard]] std::string summary_fields(const Summary& summary,
                                         const char* throughput_name);

/// Untimed warm-up before the measured phase: the workload runs as
/// measured, but its samples are dropped, so idle CPUs have woken up and
/// caches are warm when timing starts.
[[nodiscard]] inline double warmup_seconds(double seconds) {
  return std::min(2.0, 0.2 * seconds);
}

/// Host time a traced run may spend replaying its requests step by step.
[[nodiscard]] inline double replay_budget_seconds(double seconds) {
  return std::min(5.0, 0.5 * seconds);
}
/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();
/// Formats `value` with the shortest round-trip representation.
[[nodiscard]] std::string number(double value);

/// Set-up repetitions per run; setup_s is their median, scaled by the
/// run's host gauge.
inline constexpr int kSetupRepetitions = 9;

}  // namespace perfbench
