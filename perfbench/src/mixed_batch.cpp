// mixed_batch: the daemon replaying a request trace -- a closed loop that
// keeps one full admission batch (32 requests) outstanding, drained by
// drain_once on `lanes` (one) executor lane, then taken and formatted, as
// `pimecc serve --trace` does.  The mix rotates evenly over five kinds:
// small `run` requests at n=255, Table I `map` lines with and without
// minpcs=1, `mttf` and `sweep` points, and `scenario` requests over the
// five fault presets with trials=16.
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_circuits/circuits.hpp"
#include "reliability/scenario.hpp"
#include "serving.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pimecc;

namespace {

constexpr std::size_t kMaxBatch = 32;
constexpr std::size_t kKinds = 5;
/// Lines per measured group: whole batches that hold whole rotations of
/// the mix.
constexpr std::size_t kMixGroup = kKinds * kMaxBatch;
constexpr std::size_t kScenarioTrials = 16;
constexpr std::size_t kSmallRunN = 255;

const std::vector<std::string>& small_run_circuits() {
  static const std::vector<std::string> kCircuits = {"ctrl", "cavlc",
                                                     "int2float"};
  return kCircuits;
}

/// The request lines whose responses do not depend on a seed; the cold
/// pass serves each once and every later answer must match it.
struct FixedLines {
  std::vector<std::string> maps;
  std::vector<std::string> mttfs;
  std::vector<std::string> sweeps;

  FixedLines() {
    for (const std::string& circuit : circuits::circuit_names()) {
      const std::string map =
          "map circuit=" + circuit + " width=1020 n=1020 m=15";
      maps.push_back(map);
      maps.push_back(map + " minpcs=1");
    }
    for (const char* fit : {"1e-4", "3e-4", "1e-3", "3e-3", "1e-2"}) {
      mttfs.push_back(std::string("mttf fit=") + fit +
                      " period=24 n=1020 m=15 gib=1");
    }
    for (const char* high : {"1e-2", "1e-1", "1"}) {
      sweeps.push_back(std::string("sweep fit_low=1e-4 fit_high=") + high +
                       " ppd=2 period=24 n=1020 m=15 gib=1");
    }
  }

  [[nodiscard]] std::vector<std::string> all() const {
    std::vector<std::string> lines = maps;
    lines.insert(lines.end(), mttfs.begin(), mttfs.end());
    lines.insert(lines.end(), sweeps.begin(), sweeps.end());
    return lines;
  }
};

std::string small_run_line(const std::string& circuit, std::uint64_t seed) {
  return "run circuit=" + circuit + " n=" + std::to_string(kSmallRunN) +
         " m=15 seed=" + std::to_string(seed);
}

std::string scenario_line(std::string_view model, std::uint64_t seed) {
  return "scenario model=" + std::string(model) +
         " trials=" + std::to_string(kScenarioTrials) +
         " seed=" + std::to_string(seed);
}

/// The request mix: bench_serving's even rotation over run, map, mttf and
/// sweep, with scenario added as a fifth kind.  The seed picks the line
/// within each kind and the seed= of every run and scenario request.
class MixStream {
 public:
  MixStream(std::uint64_t seed, const FixedLines& fixed)
      : rng_(seed), fixed_(fixed) {}

  std::string next() {
    const auto pick = [this](const std::vector<std::string>& from) {
      return from[rng_.uniform_below(from.size())];
    };
    switch (count_++ % kKinds) {
      case 0: {
        const auto& circuits = small_run_circuits();
        return small_run_line(circuits[rng_.uniform_below(circuits.size())],
                              rng_.next());
      }
      case 1:
        return pick(fixed_.maps);
      case 2:
        return pick(fixed_.mttfs);
      case 3:
        return pick(fixed_.sweeps);
      default: {
        const auto models = rel::fault_preset_names();
        return scenario_line(models[rng_.uniform_below(models.size())],
                             rng_.next());
      }
    }
  }

 private:
  util::Rng rng_;
  const FixedLines& fixed_;
  std::uint64_t count_ = 0;
};

/// Checks one answer: fixed lines must equal the cold pass's answer, the
/// seeded kinds must be complete and correct.
void check_answer(const std::string& line, const serve::Response& response,
                  const std::string& formatted,
                  const std::map<std::string, std::string>& expected,
                  Outcome& outcome) {
  bool good = response.ok;
  if (const auto it = expected.find(line); it != expected.end()) {
    good = good && formatted == it->second;
  } else if (response.kind == serve::RequestKind::kRun) {
    good = good && response.lanes == kSmallRunN && response.mismatches == 0 &&
           response.ecc_consistent;
  } else {
    good = good && response.kind == serve::RequestKind::kScenario &&
           response.trials_run == kScenarioTrials;
  }
  outcome.check(good, "'" + line + "' answered '" + formatted + "'");
}

}  // namespace

Outcome mixed_batch(const Options& options, Tracer& tracer) {
  Outcome outcome;
  const std::size_t lanes = kLanes;
  const FixedLines fixed;

  // Set-up: server construction and a cold pass over every fixed line,
  // one run per small circuit and one scenario per fault preset, which
  // fills the caches; then the n=255 machine pool.  The cold answers to
  // the fixed lines are what every later answer must equal.
  std::vector<std::string> cold = fixed.all();
  for (const std::string& circuit : small_run_circuits()) {
    cold.push_back(small_run_line(circuit, 1));
  }
  for (const std::string_view model : rel::fault_preset_names()) {
    cold.push_back(scenario_line(model, 1));
  }
  std::map<std::string, std::string> expected;
  const AnswerCheck check = [&](const std::string& line,
                                const serve::Response& response,
                                const std::string& formatted) {
    check_answer(line, response, formatted, expected, outcome);
  };
  std::vector<double> setups;
  const std::unique_ptr<serve::Server> server = set_up_server(
      serve::ServerConfig{kMaxBatch, lanes, 0}, cold, kSmallRunN, 15,
      [&](const std::string& line, const serve::Response& response,
          const std::string& formatted) {
        if (response.kind != serve::RequestKind::kRun &&
            response.kind != serve::RequestKind::kScenario) {
          expected.emplace(line, formatted);
        }
        check(line, response, formatted);
      },
      setups, outcome);

  Replayer replayer(*server, tracer);
  outcome.end_to_end["sim_overhead_pct"] =
      serve_table1(*server, tracer.enabled() ? &replayer : nullptr, outcome);

  MixStream stream(options.seed, fixed);
  // Measured in whole rotations of the mix over whole batches.
  ClosedLoop loop = run_closed_loop(
      *server, kMaxBatch, kMixGroup, options.seconds,
      [&stream] { return stream.next(); }, check, tracer, outcome);

  const Summary raw = summarize(loop.samples, loop.measured_from_s, kMixGroup);
  const double slowdown = loop.gauge.slowdown();
  const Summary summary = raw.scaled(slowdown);
  outcome.end_to_end["throughput_per_s"] = summary.throughput;
  outcome.end_to_end["latency_p50_ms"] = summary.p50_ms;
  outcome.end_to_end["latency_p90_ms"] = summary.p90_ms;
  outcome.end_to_end["setup_s"] = median(setups) / slowdown;
  outcome.note("mixed_batch lanes=" + std::to_string(lanes) +
               " outstanding=" + std::to_string(kMaxBatch) +
               " requests=" + std::to_string(outcome.attempted) +
               " measured=" + std::to_string(loop.samples.size()) + " " +
               summary_fields(summary, "throughput_rps") + " failed_frac=" +
               number(static_cast<double>(outcome.failed) /
                      static_cast<double>(outcome.attempted)));
  outcome.note("mixed_batch unscaled " + summary_fields(raw, "throughput_rps") +
               " setup_s=" + number(median(setups)) +
               " host_slowdown=" + number(slowdown) +
               " gauge_passes=" + std::to_string(loop.gauge.passes()));

  if (tracer.enabled()) {
    // The Table I replicas above are map spans too; the shares below
    // count the loop's replicas only.
    const double table1_map_s = tracer.totals("serve.service.map").seconds;
    loop.stats.replayed =
        replayer.replay_all(loop.lines, loop.served, kMaxBatch, lanes,
                            replay_budget_seconds(options.seconds), outcome);
    add_serving_layers(tracer, *server, replayer, loop.stats, lanes, outcome);
    add_common_layers(tracer, options.check_lanes, outcome);
    const Tracer::Totals scenarios = tracer.totals("serve.service.scenario");
    if (scenarios.seconds > 0.0) {
      outcome.per_layer["reliability.scenario_trials_per_s"] =
          static_cast<double>(scenarios.count * kScenarioTrials) /
          scenarios.seconds;
    }
    std::string shares;
    for (const char* kind : {"run", "map", "mttf", "sweep", "scenario"}) {
      double kind_s =
          tracer.totals(std::string("serve.service.") + kind).seconds;
      if (std::string_view(kind) == "map") kind_s -= table1_map_s;
      shares += std::string(" ") + kind + "=" +
                number(kind_s / loop.stats.replayed.service_seconds);
    }
    const double attributed = tracer.child_coverage("serve.service.run");
    outcome.note("mixed_batch replayed=" +
                 std::to_string(loop.stats.replayed.count) +
                 " service_time_share" + shares +
                 " run_service_attributed_to_spans=" + number(attributed));
    outcome.check(attributed >= 0.9,
                  "spans cover only " + number(attributed) +
                      " of the run requests' service time");
  }
  return outcome;
}

}  // namespace perfbench
